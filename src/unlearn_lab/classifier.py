"""Toy multiclass softmax classifier with regularized unlearning objectives.

Class-wise forgetting on Gaussian blobs: pretrain a linear softmax model
on all classes, then fine-tune it on the remaining classes while a
regularizer pushes the forgetting class toward deliberately wrong
labels.  Four full-batch objectives are supported:

- ``naive-ft``:  CE(remain)
- ``kl-ft``:     CE(remain) + alpha * KL(onehot(Y_f') || softmax(X_f))
- ``ce-ft``:     CE(forget, Y_f') + alpha * CE(remain)
- ``ice-ft``:    CE(remain) + alpha * CE(forget, Y_f')

where ``Y_f'`` are the shifted (guaranteed-wrong) labels.  With hard
one-hot targets the KL term equals the cross-entropy on the relabeled
forget set (the ``0 * log 0`` terms vanish), so every objective is
``c_r * CE(remain) + c_f * CE(forget, Y_f')`` with per-variant weights
(:func:`ft_coefficients`) and one cross-entropy kernel serves all four.

Training is deterministic: full batch, fixed step size, no randomness
beyond data generation.  The engine, :func:`fit_softmax`, descends a
stack of models at once; every member follows bit for bit the trajectory
it would follow alone.  :func:`pretrain` is a one-member stack, and
:func:`unlearn_ft` is the one stacked fine-tune: one seed's whole
(variant, alpha) grid descends as a single ``(M, K, D)`` gradient
descent.  A member is keyed by its start and its weights ``(c_r, c_f)``,
and each distinct key descends once: the ``kl-ft``/``ice-ft`` twins
share one member, and the golden ``retrain`` model is the zero-start
``(1, 0)`` member of the same stack.  Gradients are computed
analytically and are checked against finite differences in the test
suite.

Each fit builds what its epochs share once and drops it when it ends:
per set the ``(K, m)`` one-hot targets and the flat target index
(:class:`_Targets`) and one logits buffer for the stack, and for the
fine-tune the mixing weights and the masks of members that use one term
alone (:class:`_Objective`).  An epoch is then one stacked cross-entropy
evaluation per set and one pass per mixed output, with the floating-point
operations, and so the bits, of indexing the targets on every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import rng
from .errors import DivergenceError
from .metrics import Metrics, classifier_metrics

VARIANTS = ("naive-ft", "kl-ft", "ce-ft", "ice-ft")

# Step-size halvings a diverging member gets before fit_softmax gives up.
MAX_HALVINGS = 5


@dataclass(frozen=True)
class LabeledSet:
    """Feature matrix (feature_dim x m) with integer class labels."""

    features: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ValueError("features must be 2-D and labels 1-D")
        if self.features.shape[1] != self.labels.shape[0]:
            raise ValueError(
                f"{self.features.shape[1]} feature columns but {self.labels.shape[0]} labels"
            )

    @property
    def size(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class SoftmaxClassifier:
    """Linear softmax model: logits are ``W x + b`` per column of ``x``."""

    weights: np.ndarray = field(repr=False)
    bias: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("model parameters must be finite")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]

    def logits(self, features: np.ndarray) -> np.ndarray:
        return self.weights @ features + self.bias[:, None]


def gen_class_task(
    num_classes: int,
    per_class: int,
    feature_dim: int,
    sep: float,
    seed: int,
) -> tuple[LabeledSet, LabeledSet]:
    """Gaussian class blobs with unit noise and equidistant means.

    Class ``c`` is centred at ``sep * e_c``, so every pair of means is
    ``sep * sqrt(2)`` apart; ``feature_dim >= num_classes`` makes room for
    the basis directions.  Returns an equally sized train and test split,
    each drawn from its own named stream.
    """
    if num_classes < 2:
        raise ValueError("need at least two classes")
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if feature_dim < num_classes:
        raise ValueError(
            f"feature_dim ({feature_dim}) must be >= num_classes ({num_classes})"
        )
    if sep <= 0:
        raise ValueError("sep must be positive")

    def draw(split: str) -> LabeledSet:
        gen = rng.stream(seed, f"class-task-{split}")
        features = np.empty((feature_dim, num_classes * per_class))
        labels = np.empty(num_classes * per_class, dtype=np.int64)
        for c in range(num_classes):
            cols = slice(c * per_class, (c + 1) * per_class)
            features[:, cols] = gen.standard_normal((feature_dim, per_class))
            features[c, cols] += sep
            labels[cols] = c
        return LabeledSet(features=features, labels=labels)

    return draw("train"), draw("test")


def split_class(data: LabeledSet, class_id: int) -> tuple[LabeledSet, LabeledSet]:
    """Split into (samples of ``class_id``, everything else)."""
    mask = data.labels == class_id
    return (
        LabeledSet(features=data.features[:, mask], labels=data.labels[mask]),
        LabeledSet(features=data.features[:, ~mask], labels=data.labels[~mask]),
    )


def relabel_forget(labels, num_classes: int) -> np.ndarray:
    """Deliberately wrong labels: ``label' = (label + 1) mod num_classes``.

    With at least two classes the shifted label always differs from the
    original.
    """
    if num_classes < 2:
        raise ValueError("relabeling needs at least two classes")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels outside [0, num_classes)")
    return (labels + 1) % num_classes


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Softmax over the class axis (second to last), shift-stabilized."""
    shifted = logits - logits.max(axis=-2, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-2, keepdims=True)


@dataclass(frozen=True)
class _Targets:
    """A labeled set as the cross-entropy kernel reads it, built once per fit.

    ``onehot`` is the ``(K, m)`` target matrix, 1.0 at each column's
    label; ``flat`` indexes the targets of a ``(K, m)`` logits block
    flattened to ``K * m``, as ``labels * m + arange(m)``.
    """

    features: np.ndarray = field(repr=False)
    onehot: np.ndarray = field(repr=False)
    flat: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, data: LabeledSet, num_classes: int) -> "_Targets":
        m = data.size
        cols = np.arange(m)
        onehot = np.zeros((num_classes, m))
        onehot[data.labels, cols] = 1.0
        return cls(data.features, onehot, data.labels * m + cols)

    @property
    def size(self) -> int:
        return self.flat.shape[0]


def _ce_value_and_grad(weights, bias, data, out=None):
    """Mean cross-entropy against the labels of ``data`` and its parameter gradient.

    ``weights`` is ``(..., K, D)`` and ``bias`` ``(..., K)``; leading axes
    index a stack of models and carry over to the losses and gradients.
    ``data`` is a :class:`LabeledSet`, or its :class:`_Targets`, which a fit
    builds once for all its epochs.  ``out``, if given, is the
    ``(..., K, m)`` buffer the logits use.

    The targets are gathered with one flat take and the one-hot matrix is
    subtracted from the probabilities: the bits of indexing ``[labels,
    arange(m)]`` for both, because a non-target entry ``p >= +0`` loses
    ``0.0`` and NaN and inf pass through unchanged.
    """
    if isinstance(data, LabeledSet):
        data = _Targets.of(data, weights.shape[-2])
    m = data.size
    # One logits buffer turns into the logit gradient in place; the
    # stacked buffers are large enough that fresh temporaries dominate.
    z = np.matmul(weights, data.features, out=out)
    z += bias[..., None]
    z -= np.maximum.reduce(z, axis=-2, keepdims=True)
    shifted_target = np.take(z.reshape(z.shape[:-2] + (-1,)), data.flat, axis=-1)
    np.exp(z, out=z)
    total = np.add.reduce(z, axis=-2, keepdims=True)
    # np.add.reduce(...) / m is what .mean computes, without its overhead.
    loss = -(np.add.reduce(shifted_target - np.log(total[..., 0, :]), axis=-1) / m)
    z /= total
    z -= data.onehot
    z /= m
    return loss, z @ data.features.T, np.add.reduce(z, axis=-1)


def ft_coefficients(variant: str, alpha: float) -> tuple[float, float]:
    """Weights ``(c_r, c_f)`` of CE(remain) and CE(forget) in an objective.

    A zero weight drops its term, so ``naive-ft`` and a zero ``alpha``
    reduce to the unregularized term exactly.  ``naive-ft`` ignores
    ``alpha``; the other variants need it in [0, 1].
    """
    if variant == "naive-ft":
        return 1.0, 0.0
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return (float(alpha), 1.0) if variant == "ce-ft" else (1.0, float(alpha))


def _mixing(coef_r: np.ndarray, coef_f: np.ndarray) -> list[tuple]:
    """How :func:`_mix` combines each output of a stack of objectives.

    Per output (loss, weight gradient, bias gradient): ``coef_r`` and
    ``coef_f`` shaped to broadcast against it, then the masks of the
    members that use the remain term alone (``coef_f == 0``) and the
    forget term alone (``coef_r == 0``), each ``None`` where no member
    does.
    """
    parts = [coef_r, coef_f]
    for alone in (coef_f == 0.0, coef_r == 0.0):
        parts.append(alone if alone.any() else None)
    return [
        tuple(None if part is None else part.reshape(part.shape + (1,) * extra)
              for part in parts)
        for extra in (0, 2, 1)
    ]


def _mix(r, f, coef_r, coef_f, remain_only, forget_only):
    """``coef_r * r + coef_f * f``, but ``r`` where ``remain_only`` and else
    ``f`` where ``forget_only``: an unused term is selected away rather
    than multiplied by zero, so it cannot leak a non-finite value."""
    mixed = np.asarray(coef_r * r)
    mixed += coef_f * f
    if forget_only is not None:
        np.copyto(mixed, f, where=forget_only)
    if remain_only is not None:
        np.copyto(mixed, r, where=remain_only)
    return mixed


class _Objective:
    """``coef_r * CE(remain) + coef_f * CE(forget)`` of a stack of models.

    Everything that stays the same between epochs is built once, when
    the fit builds this object: the :class:`_Targets` of both sets, the
    mixing weights and masks of :func:`_mixing`, and, with ``stack``
    members, one logits buffer per set (a fresh stack-sized buffer per
    epoch can make the allocator map new pages every epoch).  A call with
    ``members``, the indices of the members still running, re-indexes the
    mixing weights and masks and the buffers only when the stack has shrunk
    after a divergence.
    """

    def __init__(self, remain, forget, coef_r, coef_f, num_classes, stack=None):
        self.sets = [_Targets.of(data, num_classes) for data in (remain, forget)]
        self.coefs = np.asarray(coef_r, dtype=np.float64), np.asarray(coef_f, dtype=np.float64)
        self.mixing = _mixing(*self.coefs)
        self.stack = stack
        self.buffers = (None, None) if stack is None else [
            np.empty((stack, num_classes, data.size)) for data in self.sets]

    def __call__(self, weights, bias, members=None):
        mixing, buffers = self.mixing, self.buffers
        if members is not None and members.size < self.stack:
            mixing = _mixing(*(coef[members] for coef in self.coefs))
            buffers = [buf[:members.size] for buf in buffers]
        remain_terms = _ce_value_and_grad(weights, bias, self.sets[0], buffers[0])
        forget_terms = _ce_value_and_grad(weights, bias, self.sets[1], buffers[1])
        return tuple(_mix(r, f, *how) for r, f, how in zip(remain_terms, forget_terms, mixing))


def _mixed_value_and_grad(weights, bias, remain, forget, coef_r, coef_f):
    """``coef_r * CE(remain) + coef_f * CE(forget)`` per stacked model, once.

    A term whose weight is zero is selected away rather than multiplied
    by zero, so an overflowing unused term cannot make the loss
    non-finite, and a one-weight term contributes its exact bits.  A fit
    builds one :class:`_Objective` for all its epochs instead.
    """
    return _Objective(remain, forget, coef_r, coef_f, weights.shape[-2])(weights, bias)


def objective_value_and_grad(
    weights: np.ndarray,
    bias: np.ndarray,
    remain: LabeledSet,
    forget: LabeledSet,
    variant: str,
    alpha: float,
):
    """Loss and gradients of one fine-tuning objective at given parameters.

    ``forget`` must already carry the relabeled targets.  A zero ``alpha``
    drops the regularizer entirely, so the kl/ice objectives then
    reproduce ``naive-ft`` exactly.
    """
    coef_r, coef_f = ft_coefficients(variant, alpha)
    return _mixed_value_and_grad(weights, bias, remain, forget, coef_r, coef_f)


def fit_softmax(
    weights: np.ndarray,
    bias: np.ndarray,
    value_and_grad: Callable,
    epochs: int,
    step_size: float,
):
    """Full-batch gradient descent engine for a stack of models.

    ``weights`` is ``(M, K, D)`` and ``bias`` ``(M, K)``: M members that
    descend together for ``epochs`` deterministic steps.
    ``value_and_grad(w, b, members)`` receives the parameters of the
    members still running and their indices into the stack, and returns
    their losses ``(m,)`` and gradients.  Members never interact, so each
    one follows exactly the trajectory it would follow alone.

    A member whose loss turns non-finite leaves the stack.  When the
    others have finished, the members that left restart together from
    their start parameters at half the step size; members that never
    diverge are not recomputed.  A member still diverging after
    :data:`MAX_HALVINGS` halvings raises :class:`DivergenceError` with a
    step-size hint.

    Returns the final parameters and the ``(M, epochs)`` loss trace of
    each member's successful attempt.
    """
    if weights.ndim != 3 or bias.ndim != 2:
        raise ValueError("fit_softmax takes a stack: weights (M, K, D) and bias (M, K)")
    final_w, final_b = weights.copy(), bias.copy()
    trace = np.empty((weights.shape[0], epochs))
    pending = np.arange(weights.shape[0])
    for attempt in range(MAX_HALVINGS + 1):
        step = step_size / (2.0 ** attempt)
        members = pending
        w, b = weights[members], bias[members]
        diverged = []
        for epoch in range(epochs):
            # Divergence is detected via the loss value; silence the
            # redundant overflow warnings on that path.
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grad_w, grad_b = value_and_grad(w, b, members)
            finite = np.isfinite(loss)
            if not finite.all():
                diverged.append(members[~finite])
                members, w, b = members[finite], w[finite], b[finite]
                loss, grad_w, grad_b = loss[finite], grad_w[finite], grad_b[finite]
                if not members.size:
                    break
            trace[members, epoch] = loss
            w -= step * grad_w
            b -= step * grad_b
        final_w[members], final_b[members] = w, b
        if not diverged:
            return final_w, final_b, trace
        pending = np.sort(np.concatenate(diverged))
    raise DivergenceError(
        f"loss of {pending.size} model(s) became non-finite even at step size "
        f"{step:.3e}; try a smaller step_size"
    )


def pretrain(
    train: LabeledSet, epochs: int, step_size: float, num_classes: int | None = None
) -> SoftmaxClassifier:
    """Train a softmax classifier from zero-initialized parameters.

    Plain cross-entropy on ``train`` for ``epochs`` full-batch steps,
    descended as a one-member stack; with zero epochs the zero model is
    returned.  ``num_classes`` defaults to ``max(label) + 1`` and must be
    given explicitly when the training split does not contain the highest
    class.
    """
    if num_classes is None:
        num_classes = int(train.labels.max()) + 1
    targets = _Targets.of(train, num_classes)
    buffer = np.empty((1, num_classes, train.size))
    w, b, _ = fit_softmax(
        np.zeros((1, num_classes, train.features.shape[0])),
        np.zeros((1, num_classes)),
        lambda w_, b_, _members: _ce_value_and_grad(w_, b_, targets, buffer),
        epochs, step_size,
    )
    return SoftmaxClassifier(weights=w[0], bias=b[0])


def unlearn_ft(
    starts: Sequence[SoftmaxClassifier],
    coefs: Sequence[tuple[float, float]],
    remain: LabeledSet,
    forget: LabeledSet,
    epochs: int,
    step_size: float,
) -> list[SoftmaxClassifier]:
    """Fine-tune one model per pair, all pairs as one stack.

    Pair ``i`` starts from ``starts[i]`` and descends
    ``coefs[i][0] * CE(remain) + coefs[i][1] * CE(forget)``, with weights
    from :func:`ft_coefficients`; ``forget`` must already hold the
    relabeled targets.  Pairs with the same start object and weights
    follow one trajectory, so they share one stack member and get back
    the same model object.  ``starts`` must be non-empty.
    """
    # A pair's key is the first pair with its start object, then its weights.
    first = {}
    start_of = [first.setdefault(id(start), i) for i, start in enumerate(starts)]
    keys, inverse = np.unique(
        np.column_stack([start_of, coefs]), axis=0, return_inverse=True
    )
    key_start = keys[:, 0].astype(int)
    w, b, _ = fit_softmax(
        np.stack([starts[i].weights for i in key_start]),
        np.stack([starts[i].bias for i in key_start]),
        _Objective(remain, forget, keys[:, 1], keys[:, 2], starts[0].bias.size, len(keys)),
        epochs, step_size,
    )
    finals = [SoftmaxClassifier(weights=w[k], bias=b[k]) for k in range(len(keys))]
    return [finals[k] for k in inverse.ravel()]


@dataclass(frozen=True)
class ClassTask:
    """Parameters of one class-wise forgetting task on Gaussian blobs."""

    num_classes: int
    per_class: int
    feature_dim: int
    sep: float
    forget_class: int


def run_seed_grid(
    task: ClassTask,
    pairs: Sequence[tuple[str, float]],
    seed: int,
    epochs: int,
    step_size: float,
) -> list[Metrics]:
    """Full class-wise forgetting pipeline for one seed and many pairs.

    Generates the task and pretrains on all classes once, splits off the
    forgetting class and relabels it, then fine-tunes every pair in one
    :func:`unlearn_ft` stack: the (variant, alpha) pairs of
    :data:`VARIANTS` start from the pretrained model, and ``"retrain"``,
    the fit from scratch on the remaining classes, is the zero start with
    weights ``(1, 0)``.  Each distinct final model is scored once and its
    pairs share the scores.  Returns UA/RA/TA per pair, in order; TA is
    measured on held-out samples of the remaining classes.

    ``runtime_seconds`` of every pair, retrain included, is its equal
    share of the stack's wall time.  An unknown variant, or an ``alpha``
    that :func:`ft_coefficients` rejects, raises :class:`ValueError`
    before any work.
    """
    coefs = [
        (1.0, 0.0) if variant == "retrain" else ft_coefficients(variant, alpha)
        for variant, alpha in pairs
    ]
    if not pairs:
        return []
    train, test = gen_class_task(
        task.num_classes, task.per_class, task.feature_dim, task.sep, seed
    )
    forget, remain = split_class(train, task.forget_class)
    _, test_remain = split_class(test, task.forget_class)
    model = pretrain(train, epochs, step_size, num_classes=task.num_classes)
    zero = SoftmaxClassifier(
        weights=np.zeros_like(model.weights), bias=np.zeros_like(model.bias)
    )
    relabeled = LabeledSet(
        features=forget.features,
        labels=relabel_forget(forget.labels, task.num_classes),
    )
    starts = [zero if variant == "retrain" else model for variant, _ in pairs]
    start = time.perf_counter()
    finals = unlearn_ft(starts, coefs, remain, relabeled, epochs, step_size)
    share = (time.perf_counter() - start) / len(pairs)
    # Each distinct model is scored once, in the order its first pair appears.
    distinct = {id(final): final for final in finals}
    scores = {
        key: classifier_metrics(final, forget, remain, test_remain, runtime_seconds=share)
        for key, final in distinct.items()
    }
    return [scores[id(final)] for final in finals]
