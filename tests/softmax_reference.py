"""Reference evaluations of the classifier's objectives, for the tests.

These evaluate an objective once, at given parameters, through the same
cross-entropy kernel and mixing that a fit's stacked objective uses, but
without its per-fit targets, buffers or flat stack; the tests compare
the fits against them and against finite differences.
"""

import numpy as np

from unlearn_lab.classifier import _ce_value_and_grad, _mix, _mixing, ft_coefficients


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Softmax over the class axis (second to last), shift-stabilized."""
    shifted = logits - logits.max(axis=-2, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-2, keepdims=True)


def _mixed_value_and_grad(weights, bias, remain, forget, coef_r, coef_f):
    """``coef_r * CE(remain) + coef_f * CE(forget)`` per stacked model, once.

    ``weights`` is ``(..., K, D)``; ``coef_r`` and ``coef_f`` broadcast
    against its leading axes.  A term whose weight is zero is selected
    away rather than multiplied by zero, so an overflowing unused term
    cannot make the loss non-finite, and a one-weight term contributes
    its exact bits.
    """
    mixing = _mixing(np.asarray(coef_r, dtype=np.float64), np.asarray(coef_f, dtype=np.float64))
    terms = (_ce_value_and_grad(weights, bias, data) for data in (remain, forget))
    return tuple(_mix(r, f, *how) for r, f, how in zip(*terms, mixing))


def objective_value_and_grad(weights, bias, remain, forget, variant, alpha):
    """Loss and gradients of one fine-tuning objective at given parameters.

    ``forget`` must already carry the relabeled targets.  A zero ``alpha``
    drops the regularizer entirely, so the kl/ice objectives then
    reproduce ``naive-ft`` exactly.
    """
    return _mixed_value_and_grad(weights, bias, remain, forget, *ft_coefficients(variant, alpha))
