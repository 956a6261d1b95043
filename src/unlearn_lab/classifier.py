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
it would follow alone.  A config's seeds share their labels (the task
layout fixes them), so :func:`run_seed_grid` stacks their features as
``(S, D, m)``: :func:`pretrain` trains every seed in one stack, and
:func:`unlearn_ft`, the one stacked fine-tune, descends every seed's
whole (variant, alpha) grid as a single ``(S, M, K, D + 1)`` gradient
descent, one broadcasting gemm per product.  A member is keyed by its
start and its weights ``(c_r, c_f)``, and each distinct key descends
once per seed: the ``kl-ft``/``ice-ft`` twins share one member, and the
golden ``retrain`` model is the zero-start ``(1, 0)`` member of the same
stack.  A member that runs out of step-size halvings fails its whole
stack; the experiment runner then runs each seed alone, so a diverging
seed fails alone with its own run's error.
Gradients are computed analytically and are checked against finite
differences in the test suite.

Every :class:`LabeledSet` holds C-contiguous features, whatever layout it
was built from.  Gemm bits depend on the operands' layout, so one layout
for every set is what lets a stack member reproduce its own run, and
numpy's stacked gemms take their fast path on C-ordered features; a
boolean-mask column selection (:func:`split_class`) returns Fortran
order, on which the same products take two to five times as long.

A fit carries each member as one ``(K, D + 1)`` parameter array whose
last column is the bias: :func:`pretrain` starts it at zero,
:func:`unlearn_ft` packs its starts into it, and both split their
results back into weights and bias.  Each fit builds what its epochs
share once and drops it when it ends (:class:`_Targets`,
:class:`_StackCE`, :class:`_Objective`): the ``(..., D + 1, m)``
features with a ones row appended, so that one gemm adds the bias and
one returns its gradient, where the fine-tune lays its remain and
relabeled forget sets side by side as two column segments; the ``(K,
m)`` one-hot targets and the flat target index, which all seeds share;
the logits and column buffers for the stack and the views of them the
kernel reads; and for the fine-tune the mixing weights and the masks of
members that use one term alone.  An epoch is then one stacked
cross-entropy pass over both sets, one mix of the two segments' losses
and one of their gradients, and one parameter update.  Each segment
gets the bits of a pass over its own set, with the floating-point
operations of indexing the targets on every call.
"""

from __future__ import annotations

import itertools
import math
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


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Feature matrix (feature_dim x m) with integer class labels.

    A stack of sets that share their labels, one per seed, holds
    ``(S, feature_dim, m)`` features.  The features are held C-contiguous,
    whatever layout they are given in, so every set reaches the
    cross-entropy kernel in the one layout whose gemms are fast and whose
    bits a stack member shares with its own run.
    """

    features: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        # Copies only features in another layout.
        object.__setattr__(self, "features", np.ascontiguousarray(self.features))
        if self.features.ndim not in (2, 3) or self.labels.ndim != 1:
            raise ValueError("features must be 2-D (3-D when stacked) and labels 1-D")
        if self.features.shape[-1] != self.labels.shape[0]:
            raise ValueError(
                f"{self.features.shape[-1]} feature columns but {self.labels.shape[0]} labels"
            )

    @property
    def size(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True, eq=False)
class SoftmaxClassifier:
    """Linear softmax model: logits are ``W x + b`` per column of ``x``.

    :func:`pretrain` and :func:`unlearn_ft` on stacked sets return one
    model per seed as one object with ``(S, K, D)`` weights.
    """

    weights: np.ndarray = field(repr=False)
    bias: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("model parameters must be finite")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[-2]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[-1]

    def logits(self, features: np.ndarray) -> np.ndarray:
        return self.weights @ features + self.bias[..., None]


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


@dataclass(frozen=True, eq=False)
class _Targets:
    """Labeled sets as the cross-entropy kernel reads them, built once per fit.

    A fit reads one set, or, for the fine-tune, the remain and relabeled
    forget sets side by side as the segments of one column range.
    ``features`` are the sets' ``(..., D, m_t)`` features concatenated
    along their columns with a ones row appended, C-contiguous
    ``(..., D + 1, m)``: against ``(K, D + 1)`` parameters whose last
    column is the bias, the forward gemm adds the bias and the gradient
    gemm returns its gradient as the last column.  ``onehot`` is the
    ``(K, m)`` target matrix, 1.0 at each column's label; ``flat``
    indexes the targets of a ``(K, m)`` logits block flattened to
    ``K * m``, as ``labels * m + arange(m)``; ``ends`` are the segments'
    end columns, ``(m,)`` for one set and ``(m_r, m_r + m_f)`` for a
    remain and a forget set.  Stacked sets share their labels, so all
    their seeds share one of each.
    """

    features: np.ndarray = field(repr=False)
    onehot: np.ndarray = field(repr=False)
    flat: np.ndarray = field(repr=False)
    ends: tuple[int, ...]

    @classmethod
    def of(cls, data: LabeledSet | Sequence[LabeledSet], num_classes: int) -> "_Targets":
        sets = (data,) if isinstance(data, LabeledSet) else tuple(data)
        labels = np.concatenate([s.labels for s in sets])
        m = labels.shape[0]
        cols = np.arange(m)
        onehot = np.zeros((num_classes, m))
        onehot[labels, cols] = 1.0
        lead, dim = sets[0].features.shape[:-2], sets[0].features.shape[-2]
        features = np.empty(lead + (dim + 1, m))
        ends = tuple(itertools.accumulate(s.size for s in sets))
        for s, lo, hi in zip(sets, (0,) + ends, ends):
            features[..., :dim, lo:hi] = s.features
        features[..., dim, :] = 1.0
        return cls(features, onehot, labels * m + cols, ends)

    @property
    def size(self) -> int:
        return self.flat.shape[0]


def _kernel_views(data: _Targets, z: np.ndarray, columns: np.ndarray):
    """The views :func:`_ce_value_and_grad` reads of the ``(..., K, m)``
    logits ``z``, its ``(2, ..., m)`` column buffers and the features of
    ``data``: the logits flattened to ``(..., K * m)`` for the target
    take, the column totals broadcast against the logits, per segment its
    column count and its slices of the features, of the logits, of the
    shifted targets and of the transposed ``(..., m, D + 1)`` features,
    and the logits and totals of each segment of one column."""
    total, shifted_target = columns
    features, features_t = data.features, data.features.swapaxes(-1, -2)
    bounds = list(zip((0,) + data.ends, data.ends))
    return (
        z.reshape(z.shape[:-2] + (-1,)),
        total[..., None, :],
        [(hi - lo, features[..., lo:hi], z[..., lo:hi], shifted_target[..., lo:hi],
          features_t[..., lo:hi, :]) for lo, hi in bounds],
        [(z[..., lo:hi], total[..., lo:hi]) for lo, hi in bounds if hi - lo == 1],
    )


def _ce_value_and_grad(params, data, out=None, columns=None, views=None):
    """Mean cross-entropy against the labels of each set of ``data`` and its parameter gradient.

    ``params`` is ``(..., K, D + 1)``: the weights, then the bias as the
    last column.  Leading axes index a stack of models and carry over to
    the ``(...)`` losses and the ``(..., K, D + 1)`` gradients, whose last
    column is the bias gradient.  ``data`` is a :class:`LabeledSet`, or
    :class:`_Targets` of one or more sets, whose ones row the bias
    multiplies and which a fit builds once for all its epochs.  ``out``,
    if given, is the ``(..., K, m)`` buffer the logits use, ``columns``
    the ``(2, ..., m)`` buffer of the per-column maxima, sums and targets,
    and ``views`` what :func:`_kernel_views` makes of them.

    Each segment's forward gemm writes its columns of one logits buffer,
    and one pass over all the columns then makes the softmax and the
    log-sum-exp.  That pass works column by column, and a segment of one
    column sums its column again the way a pass over it alone does, so
    each column gets the bits of a pass over its own set.  The gemms do
    not: the BLAS
    blocks a product's columns and treats a remainder apart, so a column's
    bits can depend on the count of its neighbours, and every gemm spans
    one segment.  Each segment then takes the mean of its columns and one
    gradient gemm over them.  Returns each segment's loss and gradient in
    order, flat: ``(loss, grad)`` for one set, ``(loss_r, grad_r, loss_f,
    grad_f)`` for a remain and a forget set.

    The targets are gathered with one flat take and the one-hot matrix is
    subtracted from the probabilities: the bits of indexing ``[labels,
    arange(m)]`` for both, because a non-target entry ``p >= +0`` loses
    ``0.0`` and NaN and inf pass through unchanged.
    """
    if isinstance(data, LabeledSet):
        data = _Targets.of(data, params.shape[-2])
    # The logits turn into the logit gradient in place, and the per-column
    # values share two rows: a stack's fresh temporaries would cost more
    # than its arithmetic.
    z = out
    if z is None:
        lead = np.broadcast_shapes(params.shape[:-2], data.features.shape[:-2])
        z = np.empty(lead + (params.shape[-2], data.size))
    if columns is None:
        columns = np.empty((2,) + z.shape[:-2] + (data.size,))
    if views is None:
        views = _kernel_views(data, z, columns)
    flat, totals, segments, lone = views
    for _, features, logits, _, _ in segments:
        np.matmul(params, features, out=logits)
    total, shifted_target = columns
    np.maximum.reduce(z, axis=-2, out=total)
    z -= totals
    # mode="clip" lets take write into its output unbuffered; no index clips.
    flat.take(data.flat, axis=-1, out=shifted_target, mode="clip")
    np.exp(z, out=z)
    np.add.reduce(z, axis=-2, out=total)
    for logits, column_total in lone:
        # numpy sums the K entries of a lone column pairwise and those of
        # wider blocks row by row; this is the sum of its set's own pass.
        np.add.reduce(logits, axis=-2, out=column_total)
    z /= totals
    shifted_target -= np.log(total, out=total)
    z -= data.onehot
    result = []
    for m, _, logit_grad, target, features_t in segments:
        # np.add.reduce(...) / m is what .mean computes, without its overhead.
        result.append(-(np.add.reduce(target, axis=-1) / m))
        # Dividing the (K, D + 1) gradient by m is cheaper than the (K, m) z.
        grad = logit_grad @ features_t
        grad /= m
        result.append(grad)
    return result


class _StackCE:
    """CE of each set of ``data`` for the running members of a flat stack of ``stack`` models.

    A fit builds one, with what its epochs share: the :class:`_Targets`
    of its set, or of the fine-tune's remain and forget sets side by
    side, the ``(N, K, m)`` logits and ``(2, N, m)`` column buffers of
    :func:`_ce_value_and_grad`, and the views of the whole stack that the
    kernel reads (:func:`_kernel_views`).  With the ``(S, D, m)`` features
    of ``S`` seeds the stack is seed-major: member ``n`` belongs to seed
    ``n // (N // S)``.  The whole stack runs as ``(S, N // S, K, D + 1)``
    parameters, the bias as their last column, against ``(S, 1, D + 1,
    m)`` features with their ones row, one broadcasting gemm per product;
    a stack that shrank after a divergence pairs each member with its own
    seed's features and takes the same joint pass on them.  The features
    are C-contiguous (:class:`_Targets`), and so is each seed's slice of
    them and each copy fancy indexing makes, so either way a member gets
    the bits of its seed's run alone.  A call on the ``(n, K, D + 1)``
    parameters of ``n`` members returns, per set, their ``(n,)`` losses
    and ``(n, K, D + 1)`` gradients, flat as the kernel returns them.
    """

    def __init__(self, data: LabeledSet | Sequence[LabeledSet], num_classes: int, stack: int):
        self.targets = targets = _Targets.of(data, num_classes)
        self.out = np.empty((stack, num_classes, targets.size))
        self.columns = np.empty((2, stack, targets.size))
        self.lead = targets.features.shape[:-2] + (-1,)
        whole = _Targets(targets.features[..., None, :, :], targets.onehot, targets.flat,
                         targets.ends)
        out = self.out.reshape(self.lead + self.out.shape[1:])
        columns = self.columns.reshape((2,) + self.lead + (targets.size,))
        self.whole = whole, out, columns, _kernel_views(whole, out, columns)

    def __call__(self, params, members):
        n, k, d = params.shape
        if n == len(self.out):
            data, out, columns, views = self.whole
            params = params.reshape(self.lead + (k, d))
        else:
            data, out, columns, views = self.targets, self.out[:n], self.columns[:, :n], None
            if data.features.ndim == 3:
                # Fancy indexing copies each seed's C-ordered slice as it is.
                seeds = members // (len(self.out) // len(data.features))
                data = _Targets(data.features[seeds], data.onehot, data.flat, data.ends)
        terms = _ce_value_and_grad(params, data, out, columns, views)
        shapes = ((n,), (n, k, d)) * len(data.ends)
        return [term.reshape(shape) for term, shape in zip(terms, shapes)]


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

    Per output, the ``(n,)`` losses and the ``(n, K, D + 1)`` gradients
    whose last column is the bias gradient: ``coef_r`` and
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
        for extra in (0, 2)
    ]


def _mix(r, f, coef_r, coef_f, remain_only, forget_only):
    """``coef_r * r + coef_f * f``, but ``r`` where ``remain_only`` and else
    ``f`` where ``forget_only``: an unused term is selected away rather
    than multiplied by zero, so it cannot leak a non-finite value.  A
    gradient carries the bias gradient as its last column, so one mix
    covers every parameter."""
    mixed = np.asarray(coef_r * r)
    mixed += coef_f * f
    if forget_only is not None:
        np.copyto(mixed, f, where=forget_only)
    if remain_only is not None:
        np.copyto(mixed, r, where=remain_only)
    return mixed


class _Objective:
    """``coef_r * CE(remain) + coef_f * CE(forget)`` of a flat stack of models.

    ``coef_r`` and ``coef_f`` weigh ``M`` objectives.  With the stacked
    sets of ``S`` seeds the stack holds every objective of every seed,
    seed-major (see :class:`_StackCE`): ``S * M`` members.  Everything
    that stays the same between epochs is built once, when the fit builds
    this object: one :class:`_StackCE` of the remain and forget sets side
    by side, with their joint targets, buffers and views (a fresh
    stack-sized buffer per epoch can make the allocator map new pages
    every epoch), and the mixing weights and masks of :func:`_mixing`.  A
    call makes one cross-entropy pass over both sets and mixes its two
    segments; with ``members``, the indices of the members still running,
    it re-indexes the mixing weights and masks only when the stack has
    shrunk after a divergence.
    """

    def __init__(self, remain, forget, coef_r, coef_f, num_classes):
        seeds = len(remain.features) if remain.features.ndim == 3 else 1
        self.coefs = tuple(np.tile(np.asarray(coef, dtype=np.float64), seeds)
                           for coef in (coef_r, coef_f))
        self.mixing = _mixing(*self.coefs)
        self.term = _StackCE((remain, forget), num_classes, self.coefs[0].size)

    def __call__(self, params, members):
        loss_mixing, grad_mixing = self.mixing
        if members.size < self.coefs[0].size:
            coef_r, coef_f = self.coefs
            loss_mixing, grad_mixing = _mixing(coef_r[members], coef_f[members])
        loss_r, grad_r, loss_f, grad_f = self.term(params, members)
        return _mix(loss_r, loss_f, *loss_mixing), _mix(grad_r, grad_f, *grad_mixing)


def fit_softmax(
    params: np.ndarray,
    value_and_grad: Callable,
    epochs: int,
    step_size: float,
):
    """Full-batch gradient descent engine for a stack of models.

    ``params`` is ``(M, K, D + 1)``, each member's weights with its bias as
    the last column: M members that descend together for ``epochs``
    deterministic steps, one update of one array per epoch.
    ``value_and_grad(p, members)`` receives the parameters of the members
    still running and their indices into the stack, and returns their
    losses ``(m,)`` and their gradients, shaped like ``p``, in arrays of
    its own: the engine scales the gradients in place.  Members never
    interact, so each one follows exactly the trajectory it would follow
    alone.

    A member whose loss turns non-finite leaves the stack.  When the
    others have finished, the members that left restart together from
    their start parameters at half the step size; members that never
    diverge are not recomputed.  A member still diverging after
    :data:`MAX_HALVINGS` halvings ends the fit: it raises
    :class:`DivergenceError` with a step-size hint and the number of
    members that ran out of halvings.

    Returns the final ``(M, K, D + 1)`` parameters and the ``(M, epochs)``
    loss trace of each member's successful attempt.
    """
    if params.ndim != 3:
        raise ValueError("fit_softmax takes a stack: parameters (M, K, D + 1)")
    final = params.copy()
    trace = np.empty((params.shape[0], epochs))
    pending = np.arange(params.shape[0])
    for attempt in range(MAX_HALVINGS + 1):
        step = step_size / (2.0 ** attempt)
        members = pending
        p = params[members]
        diverged = []
        for epoch in range(epochs):
            # Divergence is detected via the loss value; silence the
            # redundant overflow warnings on that path.
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grad = value_and_grad(p, members)
            finite = np.isfinite(loss)
            if not finite.all():
                diverged.append(members[~finite])
                members, p = members[finite], p[finite]
                loss, grad = loss[finite], grad[finite]
                if not members.size:
                    break
            trace[members, epoch] = loss
            # The bits of p -= step * grad, without the temporary.
            grad *= step
            p -= grad
        final[members] = p
        if not diverged:
            return final, trace
        pending = np.sort(np.concatenate(diverged))
    raise DivergenceError(
        f"loss of {pending.size} model(s) became non-finite even at step size "
        f"{step:.3e}; try a smaller step_size")


def _split(params: np.ndarray) -> SoftmaxClassifier:
    """The model of ``(..., K, D + 1)`` parameters whose last column is the
    bias.  The weights are copied to C order: gemm bits depend on the
    operands' layout, and so scoring a model multiplies C-ordered weights
    whichever stack they came from."""
    return SoftmaxClassifier(
        weights=np.ascontiguousarray(params[..., :-1]), bias=params[..., -1].copy())


def pretrain(
    train: LabeledSet, epochs: int, step_size: float, num_classes: int | None = None
) -> SoftmaxClassifier:
    """Train a softmax classifier from zero-initialized parameters.

    Plain cross-entropy on ``train`` for ``epochs`` full-batch steps; with
    zero epochs the zero model is returned.  A stacked ``train`` of ``S``
    seeds trains one model per seed in one stack and returns them as one
    model with ``(S, K, D)`` weights; a 2-D ``train`` is a one-member
    stack.  ``num_classes`` defaults to ``max(label) + 1`` and must be
    given explicitly when the training split does not contain the highest
    class.
    """
    if num_classes is None:
        num_classes = int(train.labels.max()) + 1
    lead = train.features.shape[:-2]
    stack = math.prod(lead)
    params, _ = fit_softmax(
        np.zeros((stack, num_classes, train.features.shape[-2] + 1)),
        _StackCE(train, num_classes, stack),
        epochs, step_size,
    )
    return _split(params.reshape(lead + params.shape[1:]))


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

    With the stacked sets of ``S`` seeds, every start holds one model per
    seed, ``(S, K, D)`` weights, and so does every returned model: each
    distinct pair descends once per seed, all in one stack, and a member
    of any seed that runs out of halvings raises the stack's
    :class:`DivergenceError`.
    """
    # A pair's key is the first pair with its start object, then its weights.
    first = {}
    start_of = [first.setdefault(id(start), i) for i, start in enumerate(starts)]
    keys, inverse = np.unique(
        np.column_stack([start_of, coefs]), axis=0, return_inverse=True
    )
    key_start = keys[:, 0].astype(int)
    # (..., M, K, D + 1): one member per key of each seed, seed-major when
    # flat, each the start's weights and then its bias as the last column.
    params = np.stack([np.concatenate([starts[i].weights, starts[i].bias[..., None]], axis=-1)
                       for i in key_start], axis=-3)
    final, _ = fit_softmax(
        params.reshape((-1,) + params.shape[-2:]),
        _Objective(remain, forget, keys[:, 1], keys[:, 2], starts[0].num_classes),
        epochs, step_size,
    )
    final = final.reshape(params.shape)
    finals = [_split(final[..., k, :, :]) for k in range(len(keys))]
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
    seeds: Sequence[int],
    epochs: int,
    step_size: float,
) -> dict[int, list[Metrics]]:
    """Full class-wise forgetting pipeline for many seeds and many pairs.

    Generates each seed's task, splits off the forgetting class and
    relabels it.  The task layout fixes the labels, so the seeds' sets
    stack: every seed pretrains on all classes in one :func:`pretrain`
    stack, then every pair of every seed fine-tunes in one
    :func:`unlearn_ft` stack.  The (variant, alpha) pairs of
    :data:`VARIANTS` start from the pretrained model, and ``"retrain"``,
    the fit from scratch on the remaining classes, is the zero start with
    weights ``(1, 0)``.  Each distinct final model of a seed is scored
    once and its pairs share the scores.

    Returns, per distinct seed in order, UA/RA/TA per pair, in order (TA
    is measured on held-out samples of the remaining classes).  A member
    of either stack that runs out of halvings raises the stack's
    :class:`DivergenceError`, and no seed gets a result.  Members never
    interact, so each seed run alone gets the bits it gets in the stack.
    ``runtime_seconds`` of every pair of every seed, retrain included, is
    its equal share of the fine-tune stack's wall time.  An unknown
    variant, or an ``alpha`` that :func:`ft_coefficients` rejects, raises
    :class:`ValueError` before any work.
    """
    coefs = [
        (1.0, 0.0) if variant == "retrain" else ft_coefficients(variant, alpha)
        for variant, alpha in pairs
    ]
    seeds = list(dict.fromkeys(seeds))
    if not pairs:
        return {seed: [] for seed in seeds}
    sets = {}
    for seed in seeds:
        train, test = gen_class_task(
            task.num_classes, task.per_class, task.feature_dim, task.sep, seed
        )
        forget, remain = split_class(train, task.forget_class)
        relabeled = LabeledSet(
            features=forget.features,
            labels=relabel_forget(forget.labels, task.num_classes),
        )
        sets[seed] = train, remain, relabeled, forget, split_class(test, task.forget_class)[1]
    # Every seed's features are C-ordered (LabeledSet), and np.stack copies
    # each one as it is: a seed's slice has the layout, and so the gemm
    # bits, of its own run.
    train, remain, relabeled = (
        LabeledSet(np.stack([sets[seed][i].features for seed in seeds]), sets[seeds[0]][i].labels)
        for i in range(3))
    model = pretrain(train, epochs, step_size, num_classes=task.num_classes)
    zero = SoftmaxClassifier(weights=np.zeros_like(model.weights), bias=np.zeros_like(model.bias))
    starts = [zero if variant == "retrain" else model for variant, _ in pairs]
    start = time.perf_counter()
    finals = unlearn_ft(starts, coefs, remain, relabeled, epochs, step_size)
    share = (time.perf_counter() - start) / (len(seeds) * len(pairs))
    grid = {}
    for i, seed in enumerate(seeds):
        _, remain, _, forget, test_remain = sets[seed]
        # Each distinct model is scored once, in the order its first pair appears.
        distinct = {id(final): final for final in finals}
        scores = {
            key: classifier_metrics(
                SoftmaxClassifier(weights=final.weights[i], bias=final.bias[i]),
                forget, remain, test_remain, runtime_seconds=share)
            for key, final in distinct.items()
        }
        grid[seed] = [scores[id(final)] for final in finals]
    return grid
