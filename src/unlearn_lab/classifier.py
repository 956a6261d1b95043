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
beyond data generation.  The engine descends a stack of models at once,
so one seed's whole (variant, alpha) grid fine-tunes as a single
``(M, K, D)`` gradient descent; every member follows bit for bit the
trajectory it would follow alone.  A member is keyed by its start and
its weights ``(c_r, c_f)``, and each distinct key descends once: the
``kl-ft``/``ice-ft`` twins share one member, and the golden ``retrain``
model is the zero-start ``(1, 0)`` member.  Gradients are computed
analytically and are checked against finite differences in the test
suite.
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


@dataclass(frozen=True)
class FtConfig:
    """Hyperparameters for one fine-tuning run.

    ``alpha`` weighs the regularizer of the kl/ce/ice variants and must
    lie in [0, 1]; it is ignored for ``naive-ft``.
    """

    variant: str
    alpha: float = 0.5
    epochs: int = 500
    step_size: float = 0.1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        ft_coefficients(self.variant, self.alpha)
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")


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


def _ce_value_and_grad(weights, bias, data: LabeledSet, out=None):
    """Mean cross-entropy against ``data.labels`` and its parameter gradient.

    ``weights`` is ``(..., K, D)`` and ``bias`` ``(..., K)``; leading axes
    index a stack of models and carry over to the losses and gradients.
    ``out``, if given, is the ``(..., K, m)`` buffer the logits use.
    """
    m = data.size
    cols = np.arange(m)
    # One logits buffer turns into the logit gradient in place; the
    # stacked buffers are large enough that fresh temporaries dominate.
    z = np.matmul(weights, data.features, out=out)
    z += bias[..., None]
    z -= z.max(axis=-2, keepdims=True)
    shifted_target = z[..., data.labels, cols]
    np.exp(z, out=z)
    total = z.sum(axis=-2, keepdims=True)
    loss = -(shifted_target - np.log(total[..., 0, :])).mean(axis=-1)
    z /= total
    z[..., data.labels, cols] -= 1.0
    z /= m
    return loss, z @ data.features.T, z.sum(axis=-1)


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


def _mixed_value_and_grad(weights, bias, remain, forget, coef_r, coef_f, out=(None, None)):
    """``coef_r * CE(remain) + coef_f * CE(forget)`` per stacked model.

    A term whose weight is zero is selected away rather than multiplied
    by zero, so an overflowing unused term cannot make the loss
    non-finite, and a one-weight term contributes its exact bits.
    """
    remain_terms = _ce_value_and_grad(weights, bias, remain, out[0])
    forget_terms = _ce_value_and_grad(weights, bias, forget, out[1])
    mixed = []
    for r, f in zip(remain_terms, forget_terms):
        shape = np.shape(coef_r) + (1,) * (r.ndim - np.ndim(coef_r))
        c_r = np.reshape(coef_r, shape)
        c_f = np.reshape(coef_f, shape)
        mixed.append(np.where(c_f == 0.0, r, np.where(c_r == 0.0, f, c_r * r + c_f * f)))
    return tuple(mixed)


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
    max_halvings: int = 5,
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
    ``max_halvings`` halvings raises :class:`DivergenceError` with a
    step-size hint.

    Returns the final parameters and the ``(M, epochs)`` loss trace of
    each member's successful attempt.
    """
    if weights.ndim != 3 or bias.ndim != 2:
        raise ValueError("fit_softmax takes a stack: weights (M, K, D) and bias (M, K)")
    final_w, final_b = weights.copy(), bias.copy()
    trace = np.empty((weights.shape[0], epochs))
    pending = np.arange(weights.shape[0])
    for attempt in range(max_halvings + 1):
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


def pretrain(train: LabeledSet, cfg: FtConfig, num_classes: int | None = None) -> SoftmaxClassifier:
    """Train a softmax classifier from zero-initialized parameters.

    Plain cross-entropy on ``train`` for ``cfg.epochs`` full-batch steps,
    descended as a one-member stack; with zero epochs the zero model is
    returned.  ``num_classes`` defaults to ``max(label) + 1`` and must be
    given explicitly when the training split does not contain the highest
    class.
    """
    if num_classes is None:
        num_classes = int(train.labels.max()) + 1
    w, b, _ = fit_softmax(
        np.zeros((1, num_classes, train.features.shape[0])),
        np.zeros((1, num_classes)),
        lambda w_, b_, _members: _ce_value_and_grad(w_, b_, train),
        cfg.epochs, cfg.step_size,
    )
    return SoftmaxClassifier(weights=w[0], bias=b[0])


def _descend_distinct(
    starts: Sequence[SoftmaxClassifier],
    start_of: Sequence[int],
    coefs: np.ndarray,
    remain: LabeledSet,
    forget: LabeledSet,
    epochs: int,
    step_size: float,
) -> tuple[list[SoftmaxClassifier], list[int]]:
    """Descend each distinct ``(start, c_r, c_f)`` objective once, as one stack.

    Pair ``i`` starts from ``starts[start_of[i]]`` and descends
    ``coefs[i, 0] * CE(remain) + coefs[i, 1] * CE(forget)``.  Pairs with
    equal keys follow the same trajectory, so they share one member.
    Returns the final model of each distinct key and the key of each pair.
    """
    keys, inverse = np.unique(
        np.column_stack([start_of, coefs]), axis=0, return_inverse=True
    )
    first = keys[:, 0].astype(int)
    # One logits buffer per set for all epochs: a fresh stack-sized one per
    # epoch can make the allocator map new pages every epoch.
    bufs = [np.empty((len(keys), starts[0].bias.size, data.size)) for data in (remain, forget)]
    w, b, _ = fit_softmax(
        np.stack([starts[s].weights for s in first]),
        np.stack([starts[s].bias for s in first]),
        lambda w_, b_, members: _mixed_value_and_grad(
            w_, b_, remain, forget, keys[members, 1], keys[members, 2],
            [buf[:members.size] for buf in bufs]),
        epochs, step_size,
    )
    finals = [SoftmaxClassifier(weights=w[k], bias=b[k]) for k in range(len(keys))]
    return finals, inverse.ravel().tolist()


def unlearn_ft(
    model: SoftmaxClassifier,
    remain: LabeledSet,
    forget: LabeledSet,
    cfgs: Sequence[FtConfig],
) -> list[SoftmaxClassifier]:
    """Fine-tune the pretrained classifier once per config, as one stack.

    Every member starts from the pretrained parameters and descends its
    own objective; configs with equal weights ``(c_r, c_f)`` share one
    member.  ``forget`` must already hold the relabeled targets for the
    regularized variants.  ``cfgs`` must be non-empty and share
    ``epochs`` and ``step_size``.
    """
    epochs, step_size = cfgs[0].epochs, cfgs[0].step_size
    if any((c.epochs, c.step_size) != (epochs, step_size) for c in cfgs):
        raise ValueError("stacked fine-tuning needs one epochs and step_size for all configs")
    coefs = np.array([ft_coefficients(c.variant, c.alpha) for c in cfgs])
    finals, key_of = _descend_distinct(
        [model], [0] * len(cfgs), coefs, remain, forget, epochs, step_size
    )
    return [finals[k] for k in key_of]


@dataclass(frozen=True)
class ClassTask:
    """Parameters of one class-wise forgetting task on Gaussian blobs."""

    num_classes: int = 5
    per_class: int = 100
    feature_dim: int = 20
    sep: float = 4.0
    forget_class: int = 0


def run_seed_grid(
    task: ClassTask,
    pairs: Sequence[tuple[str, float]],
    seed: int,
    cfg: FtConfig | None = None,
) -> list[Metrics]:
    """Full class-wise forgetting pipeline for one seed and many pairs.

    Generates the task and pretrains on all classes once, splits off the
    forgetting class and relabels it, then descends every pair as one
    stack.  A pair is keyed by its start and weights ``(c_r, c_f)``: the
    pretrained model for the (variant, alpha) pairs of :data:`VARIANTS`,
    and zero with ``(1, 0)`` for ``"retrain"``, which is the fit from
    scratch on the remaining classes.  Each distinct key descends once
    and its pairs share the final model and its one scoring.  Returns
    UA/RA/TA per pair, in order; TA is measured on held-out samples of the
    remaining classes.
    Only ``epochs`` and ``step_size`` of ``cfg`` are used.

    ``runtime_seconds`` of every pair, retrain included, is its equal
    share of the stack's wall time.  An unknown variant, or an ``alpha``
    that :func:`ft_coefficients` rejects, raises :class:`ValueError`
    before any work.
    """
    coefs = np.array([
        (1.0, 0.0) if variant == "retrain" else ft_coefficients(variant, alpha)
        for variant, alpha in pairs
    ])
    if not pairs:
        return []
    if cfg is None:
        cfg = FtConfig(variant="naive-ft")
    train, test = gen_class_task(
        task.num_classes, task.per_class, task.feature_dim, task.sep, seed
    )
    forget, remain = split_class(train, task.forget_class)
    _, test_remain = split_class(test, task.forget_class)
    model = pretrain(train, cfg, num_classes=task.num_classes)
    zero = SoftmaxClassifier(
        weights=np.zeros_like(model.weights), bias=np.zeros_like(model.bias)
    )
    relabeled = LabeledSet(
        features=forget.features,
        labels=relabel_forget(forget.labels, task.num_classes),
    )
    start_of = [int(variant == "retrain") for variant, _ in pairs]
    start = time.perf_counter()
    finals, key_of = _descend_distinct(
        [model, zero], start_of, coefs, remain, relabeled, cfg.epochs, cfg.step_size
    )
    share = (time.perf_counter() - start) / len(pairs)
    # Each key is scored once, in the order its first pair appears.
    scores = {
        k: classifier_metrics(finals[k], forget, remain, test_remain, runtime_seconds=share)
        for k in dict.fromkeys(key_of)
    }
    return [scores[k] for k in key_of]
