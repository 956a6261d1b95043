"""Reference evaluations of the classifier's objectives, for the tests.

These evaluate an objective once, at given parameters, through the same
cross-entropy kernel and mixing that a fit's stacked objective uses: each
evaluation builds its own :class:`_StackCE` for the parameters' leading
shape, so a ``(K, D + 1)`` model is a real 2-D evaluation.  The tests
compare the fits against them and against finite differences.

The kernel and the engine carry each model as one ``(K, D + 1)``
parameter array whose last column is the bias.  The helpers here take
and return weights and bias apart: they pack ``[W | b]`` on the way in
and split the gradient's last column off as the bias gradient on the way
out, which moves bits without rounding them.
"""

import numpy as np

from unlearn_lab.classifier import _mix, _mixing, _StackCE, fit_softmax, ft_coefficients


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Softmax over the class axis (second to last), shift-stabilized."""
    shifted = logits - logits.max(axis=-2, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-2, keepdims=True)


def pack(weights, bias):
    """``(..., K, D + 1)`` parameters: the weights, then the bias column."""
    return np.concatenate([weights, np.asarray(bias)[..., None]], axis=-1)


def split(loss, grad):
    """``(loss, grad)`` of packed parameters as ``(loss, grad_w, grad_b)``."""
    return loss, grad[..., :-1], grad[..., -1]


def kernel(params, data):
    """One cross-entropy pass over each set of ``data`` at ``(..., K, D + 1)``
    parameters, through a :class:`_StackCE` built for their leading shape."""
    return _StackCE(data, params.shape[-2], params.shape[:-2])(params)


def ce_value_and_grad(weights, bias, data):
    """The cross-entropy kernel at weights and bias given apart."""
    return split(*kernel(pack(weights, bias), data))


def fit_softmax_split(weights, bias, value_and_grad, epochs, step_size):
    """:func:`fit_softmax` on weights and bias given apart.

    ``value_and_grad(w, b)`` returns ``(loss, grad_w, grad_b)`` of the
    whole stack; the result is ``(weights, bias, trace)``.
    """
    def packed(params):
        loss, grad_w, grad_b = value_and_grad(params[..., :-1], params[..., -1])
        return loss, pack(grad_w, grad_b)

    params, trace = fit_softmax(pack(weights, bias), packed, epochs, step_size)
    return params[..., :-1], params[..., -1], trace


def _mixed_value_and_grad(weights, bias, remain, forget, coef_r, coef_f):
    """``coef_r * CE(remain) + coef_f * CE(forget)`` per stacked model, once.

    ``weights`` is ``(..., K, D)``; ``coef_r`` and ``coef_f`` broadcast
    against its leading axes.  A term whose weight is zero is selected
    away rather than multiplied by zero, so an overflowing unused term
    cannot make the loss non-finite, and a one-weight term contributes
    its exact bits.
    """
    params = pack(weights, bias)
    mixing = _mixing(np.asarray(coef_r, dtype=np.float64), np.asarray(coef_f, dtype=np.float64))
    terms = (kernel(params, data) for data in (remain, forget))
    return split(*(_mix(r, f, *how) for r, f, how in zip(*terms, mixing)))


def objective_value_and_grad(weights, bias, remain, forget, variant, alpha):
    """Loss and gradients of one fine-tuning objective at given parameters.

    ``forget`` must already carry the relabeled targets.  A zero ``alpha``
    drops the regularizer entirely, so the kl/ice objectives then
    reproduce ``naive-ft`` exactly.
    """
    return _mixed_value_and_grad(weights, bias, remain, forget, *ft_coefficients(variant, alpha))
