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
``(S, D, m)``: :func:`pretrain` trains every seed in one ``(S, 1, K, D
+ 1)`` stack, and :func:`unlearn_ft`, the one stacked fine-tune, descends
every seed's whole (variant, alpha) grid as a single ``(S, M, K, D + 1)``
gradient descent, one broadcasting gemm per product.  A stack keeps its
shape through the whole fit: a member that diverges halves its own step
size and the whole stack restarts, every other member replaying its own
trajectory.  :func:`run_seed_grid` keys each pair by its start and its
weights ``(c_r, c_f)``, and each distinct key is one member that
descends and is scored once per seed: the ``kl-ft``/``ice-ft`` twins
share one, and the golden ``retrain`` model is the zero-start ``(1,
0)`` member of the same stack.  A member
that runs out of step-size halvings fails its whole stack; the
experiment runner then runs each seed alone, so a diverging seed fails
alone with its own run's error.
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
results back into weights and bias.  The cross-entropy kernel has one
form, :class:`_StackCE`, built once per fit for the stack's leading
shape.  It holds what the epochs share: its sets' targets and their
features with a ones row, so that one gemm adds the bias and one returns
its gradient; the logits and column buffers; and the views of them that
the pass reads.  A call is one pass.  The fine-tune lays
its remain and relabeled forget sets side by side as the two column
segments of one pass, and its :class:`_Objective` mixes the segments'
losses and gradients.  An epoch is then one pass, one mix and one
parameter update, and each segment gets the bits of a pass over its own
set.

The logits buffer is held class-first, ``(K, *lead, m)``: the gemms
write and read its ``(*lead, K, m)`` view, and each class-axis step of
the pass (the max, the shift, the sum, the divide and the one-hot
subtraction) is then one contiguous sweep per class instead of a loop of
``m``-column rows per member and class.  Only the gemms' leading
dimension changes, which leaves their bits alone.  numpy adds the
classes of a column of this buffer row by row, but those of a pass over
one column alone pairwise, and the two orders round differently from
eight classes up; so a segment of one column copies each member's
classes to a small buffer and adds them again as its own pass does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import rng
from .errors import DivergenceError
from .metrics import Metrics, classifier_metrics, stage

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


class _StackCE:
    """The cross-entropy pass over each set of ``data`` of a stack of
    models of leading shape ``lead``: the one form of the kernel.

    A pass reads one set, or, for the fine-tune, the remain and relabeled
    forget sets side by side as the segments of one column range.
    Building it makes what every call shares, once per fit:

    - ``features``, the sets' ``(..., D, m_t)`` features concatenated
      along their columns with a ones row appended, C-contiguous ``(...,
      D + 1, m)``: against ``(K, D + 1)`` parameters whose last column is
      the bias, the forward gemm adds the bias and the gradient gemm
      returns its gradient as the last column;
    - ``z``, the logits buffer, held class-first: C-contiguous ``(K,
      *lead, m)``.  The gemms write and read its ``(*lead, K, m)`` view
      (the buffer's axis moved, so only their leading dimension changes),
      and every per-column value, ``(*lead, m)``, broadcasts against it
      over the leading axis alone: each class-axis step of the pass is
      one contiguous sweep per class, and the max and the sum over the
      classes are ``K - 1`` elementwise row operations;
    - ``onehot``, the target matrix at the buffer's shape, 1.0 at each
      column's label, so that subtracting it is a same-shape pass, and
      ``target_index``, each member's targets in the flattened buffer,
      ``labels * J * m + j * m + arange(m)`` for member ``j`` of the ``J =
      prod(lead)``.  Stacked sets share their labels, so all their seeds
      share both;
    - the ``(2, *lead, m)`` buffer of the per-column maxima, sums and
      targets and the ``(*lead, K)`` buffer of a lone column's classes (a
      fresh stack-sized buffer per epoch would let the allocator map new
      pages every epoch), and the views of them and of the features that
      the pass reads.

    The features get a member axis for each axis of ``lead`` they lack,
    so one broadcasting gemm per product pairs every member with its own
    seed's features: ``lead=()`` is one ``(K, D + 1)`` model, ``(M,)`` a
    stack over ``(D, m)`` sets, and ``(S, M)`` a stack over the ``(S, D,
    m)`` sets of ``S`` seeds, read as ``(S, 1, D + 1, m)``.  Each seed's
    slice of the C-contiguous features is C-contiguous too, so a member
    gets the bits of its seed's run alone.
    """

    def __init__(self, data: LabeledSet | Sequence[LabeledSet], num_classes: int,
                 lead: tuple[int, ...]):
        sets = (data,) if isinstance(data, LabeledSet) else tuple(data)
        labels = np.concatenate([s.labels for s in sets])
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError(f"labels outside [0, {num_classes})")
        m = labels.shape[0]
        ends = tuple(itertools.accumulate(s.size for s in sets))
        bounds = list(zip((0,) + ends, ends))
        dim = sets[0].features.shape[-2]
        self.features = features = np.empty(sets[0].features.shape[:-2] + (dim + 1, m))
        for s, (lo, hi) in zip(sets, bounds):
            features[..., :dim, lo:hi] = s.features
        features[..., dim, :] = 1.0
        features = features.reshape(
            features.shape[:-2] + (1,) * (len(lead) + 2 - features.ndim) + features.shape[-2:])
        features_t = features.swapaxes(-1, -2)
        # The logits turn into the logit gradient in place, and the per-column
        # values share two rows: a stack's fresh temporaries would cost more
        # than its arithmetic.
        self.z = z = np.empty((num_classes,) + lead + (m,))
        logits = np.moveaxis(z, 0, -2)
        self.onehot = np.zeros_like(z)
        np.moveaxis(self.onehot, 0, -2)[..., labels, np.arange(m)] = 1.0
        self.target_index = labels * z[0].size + np.arange(z[0].size).reshape(z.shape[1:])
        self.columns = np.empty((2,) + lead + (m,))
        total, shifted_target = self.columns
        # Per segment its column count and its slices of the features,
        # logits, targets and transposed features; per one-column segment,
        # its classes member-major and its total.
        self.segments = [(hi - lo, features[..., lo:hi], logits[..., lo:hi],
                          shifted_target[..., lo:hi], features_t[..., lo:hi, :])
                         for lo, hi in bounds]
        self.lone_classes = np.empty(lead + (num_classes,))
        self.lone = [(logits[..., lo], total[..., lo]) for lo, hi in bounds if hi - lo == 1]

    def __call__(self, params):
        """Each set's mean cross-entropy at ``(*lead, K, D + 1)`` parameters,
        the bias as their last column, and its gradient: ``(loss, grad)`` for
        one set, ``(loss_r, grad_r, loss_f, grad_f)`` for a remain and a
        forget set, the losses ``lead`` and the gradients shaped like
        ``params``.

        Each segment's forward gemm writes its columns of the logits, and
        one pass over all the columns then makes the softmax and the
        log-sum-exp.  That pass works column by column, and a segment of one
        column sums its column again the way a pass over it alone does, so
        each column gets the bits of a pass over its own set.  The gemms do
        not: the BLAS blocks a product's columns and treats a remainder
        apart, so a column's bits can depend on the count of its neighbours,
        and every gemm spans one segment.  The targets are gathered with one
        flat take and the one-hot matrix is subtracted from the
        probabilities: the bits of indexing ``[labels, arange(m)]`` for both,
        because a non-target entry ``p >= +0`` loses ``0.0`` and NaN and inf
        pass through unchanged.
        """
        z = self.z
        for _, features, logits, _, _ in self.segments:
            np.matmul(params, features, out=logits)
        total, shifted_target = self.columns
        np.maximum.reduce(z, axis=0, out=total)
        z -= total
        # mode="clip" lets take write into its output unbuffered; no label
        # is outside the classes (__init__), so no index clips.
        z.take(self.target_index, out=shifted_target, mode="clip")
        np.exp(z, out=z)
        np.add.reduce(z, axis=0, out=total)
        for logits, column_total in self.lone:
            # Over the buffer numpy adds a column's K entries row by row; a
            # pass over one column alone adds them pairwise, as a reduction
            # along a contiguous last axis does.
            np.copyto(self.lone_classes, logits)
            np.add.reduce(self.lone_classes, axis=-1, out=column_total)
        z /= total
        shifted_target -= np.log(total, out=total)
        z -= self.onehot
        result = []
        for m, _, logit_grad, target, features_t in self.segments:
            # np.add.reduce(...) / m is what .mean computes, without its overhead.
            result.append(-(np.add.reduce(target, axis=-1) / m))
            # Dividing the (K, D + 1) gradient by m is cheaper than the (K, m) z.
            grad = logit_grad @ features_t
            grad /= m
            result.append(grad)
        return result


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

    Per output, the ``(..., M)`` losses and the ``(..., M, K, D + 1)``
    gradients whose last column is the bias gradient: the ``(M,)``
    ``coef_r`` and ``coef_f`` shaped to broadcast against it, over any
    seed axis too, then the masks of the members that use the remain term
    alone (``coef_f == 0``) and the forget term alone (``coef_r == 0``),
    each ``None`` where no member does.
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
    """``coef_r * CE(remain) + coef_f * CE(forget)`` of a stack of models.

    ``coef_r`` and ``coef_f`` weigh ``M`` objectives, one per member of
    the stack's last leading axis: ``(M, K, D + 1)`` parameters, or with
    the stacked sets of ``S`` seeds ``(S, M, K, D + 1)``, every objective
    once per seed.  A fit builds one, and with it the :class:`_StackCE`
    of the remain and forget sets side by side for that leading shape and
    the mixing weights and masks of :func:`_mixing`, which broadcast over
    the seeds.  A call runs that pass once and mixes its two segments.
    """

    def __init__(self, remain, forget, coef_r, coef_f, num_classes):
        coef_r, coef_f = (np.asarray(coef, dtype=np.float64) for coef in (coef_r, coef_f))
        self.mixing = _mixing(coef_r, coef_f)
        self.term = _StackCE((remain, forget), num_classes,
                             remain.features.shape[:-2] + coef_r.shape)

    def __call__(self, params):
        loss_mixing, grad_mixing = self.mixing
        loss_r, grad_r, loss_f, grad_f = self.term(params)
        return _mix(loss_r, loss_f, *loss_mixing), _mix(grad_r, grad_f, *grad_mixing)


def fit_softmax(
    params: np.ndarray,
    value_and_grad: Callable,
    epochs: int,
    step_size: float,
):
    """Full-batch gradient descent engine for a stack of models.

    ``params`` is ``(..., M, K, D + 1)``, each member's weights with its
    bias as the last column: members that descend together for
    ``epochs`` deterministic steps, one update of one array per epoch.
    ``value_and_grad(p)`` receives the parameters of the whole stack and
    returns the ``(..., M)`` losses and the gradients, shaped like ``p``,
    in arrays of its own: the engine scales the gradients in place.
    Members never interact, so each one follows exactly the trajectory
    it would follow alone.

    The stack keeps its shape through the whole fit.  A member whose loss
    turns non-finite counts one halving and descends on with the others.
    Once no member still owed a result is finite, or when the epochs end
    with a member that diverged, the whole stack restarts from its start
    parameters, each member at ``step_size / 2 ** halvings``: a member
    that converged replays its own trajectory bit for bit, and one that
    diverged tries again at half its last step size.  An attempt lasts as
    long as the longest attempt of its members that are owed a result.  A
    member still diverging after :data:`MAX_HALVINGS` halvings ends the
    fit: it raises :class:`DivergenceError` with a step-size hint and the
    number of members that ran out of halvings.

    Returns only the final parameters, shaped like ``params``.
    """
    if params.ndim < 3:
        raise ValueError("fit_softmax takes a stack: parameters (..., M, K, D + 1)")
    halvings = np.zeros(params.shape[:-2], dtype=np.int64)
    for attempt in range(MAX_HALVINGS + 1):
        p = params.copy()
        step = (step_size / 2.0 ** halvings)[..., None, None]
        # Divergence is detected via the loss value; silence the redundant
        # overflow warnings on that path, where a member that diverged
        # descends on until the restart.  Entered once per attempt, not once
        # per epoch: each entry has a fixed cost of its own.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(epochs):
                loss, grad = value_and_grad(p)
                finite = np.isfinite(loss)
                if not finite.all():
                    # One halving per attempt, however long a member that
                    # diverged stays non-finite.
                    halvings[~finite] = attempt + 1
                    if not (halvings == attempt).any():
                        break
                # The bits of p -= step * grad, without the temporary.
                grad *= step
                p -= grad
        if not (halvings > attempt).any():
            return p
    raise DivergenceError(
        f"loss of {np.count_nonzero(halvings > MAX_HALVINGS)} model(s) became non-finite even "
        f"at step size {step_size / 2.0 ** MAX_HALVINGS:.3e}; try a smaller step_size")


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

    Plain cross-entropy on ``train`` for ``epochs`` full-batch steps;
    returns the model after the last step, and with zero epochs the zero
    model.  A stacked ``train`` of ``S`` seeds trains one model per seed
    in one stack and returns them as one model with ``(S, K, D)`` weights;
    a 2-D ``train`` is a one-member stack.  ``num_classes`` defaults to
    ``max(label) + 1`` and must be given explicitly when the training
    split does not contain the highest class; a label outside ``[0,
    num_classes)`` raises :class:`ValueError`.
    """
    if num_classes is None:
        num_classes = int(train.labels.max()) + 1
    lead = train.features.shape[:-2] + (1,)
    params = fit_softmax(
        np.zeros(lead + (num_classes, train.features.shape[-2] + 1)),
        _StackCE(train, num_classes, lead),
        epochs, step_size,
    )
    return _split(params[..., 0, :, :])


def unlearn_ft(
    starts: Sequence[SoftmaxClassifier],
    coefs: Sequence[tuple[float, float]],
    remain: LabeledSet,
    forget: LabeledSet,
    epochs: int,
    step_size: float,
) -> list[SoftmaxClassifier]:
    """Fine-tune one model per start, all of them as one stack.

    Member ``i`` starts from ``starts[i]`` and descends
    ``coefs[i][0] * CE(remain) + coefs[i][1] * CE(forget)``, with weights
    from :func:`ft_coefficients`; ``forget`` must already hold the
    relabeled targets, each in ``[0, K)`` or :class:`ValueError`.  Every
    member descends, so a caller gives each objective once:
    :func:`run_seed_grid` keys its pairs.  ``starts`` must be non-empty.

    With the stacked sets of ``S`` seeds, every start holds one model per
    seed, ``(S, K, D)`` weights, and so does every returned model: each
    member descends once per seed, all in one stack, and a member of any
    seed that runs out of halvings raises the stack's
    :class:`DivergenceError`.
    """
    # (..., M, K, D + 1): one member per start of each seed, each the start's
    # weights and then its bias as the last column.
    params = np.stack([np.concatenate([start.weights, start.bias[..., None]], axis=-1)
                       for start in starts], axis=-3)
    final = fit_softmax(
        params, _Objective(remain, forget, *zip(*coefs), starts[0].num_classes),
        epochs, step_size,
    )
    return [_split(final[..., k, :, :]) for k in range(len(starts))]


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
    weights ``(1, 0)``.  Each distinct key of a start and weights is one
    member, scored once per seed, and its pairs read its scores.

    Returns, per distinct seed in order, UA/RA/TA per pair, in order (TA
    is measured on held-out samples of the remaining classes).  A member
    of either stack that runs out of halvings raises the stack's
    :class:`DivergenceError`, and no seed gets a result.  Members never
    interact, so each seed run alone gets the bits it gets in the stack.
    The generation, the two stacks and the scoring each time one
    :func:`~unlearn_lab.metrics.stage`.  An unknown
    variant, or an ``alpha`` that :func:`ft_coefficients` rejects, raises
    :class:`ValueError` before any work.
    """
    # A pair's member is keyed by its start, zero for retrain, and its weights.
    keys = [(variant == "retrain",
             (1.0, 0.0) if variant == "retrain" else ft_coefficients(variant, alpha))
            for variant, alpha in pairs]
    members = {key: k for k, key in enumerate(dict.fromkeys(keys))}
    seeds = list(dict.fromkeys(seeds))
    if not pairs:
        return {seed: [] for seed in seeds}
    with stage("generate"):
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
            LabeledSet(np.stack([sets[seed][i].features for seed in seeds]),
                       sets[seeds[0]][i].labels)
            for i in range(3))
    with stage("pretrain"):
        model = pretrain(train, epochs, step_size, num_classes=task.num_classes)
    zero = SoftmaxClassifier(weights=np.zeros_like(model.weights), bias=np.zeros_like(model.bias))
    with stage("fine_tune"):
        finals = unlearn_ft([zero if retrain else model for retrain, _ in members],
                            [coefs for _, coefs in members], remain, relabeled, epochs, step_size)
    grid = {}
    with stage("score"):
        for i, seed in enumerate(seeds):
            _, remain, _, forget, test_remain = sets[seed]
            scores = [classifier_metrics(
                SoftmaxClassifier(weights=final.weights[i], bias=final.bias[i]),
                forget, remain, test_remain) for final in finals]
            grid[seed] = [scores[members[key]] for key in keys]
    return grid
