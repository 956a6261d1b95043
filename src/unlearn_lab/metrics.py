"""Loss measurement, oracle gap reporting, and classifier accuracy metrics.

Two metric families are kept strictly separate: mean-squared losses for
the linear pipeline, as ``(rl, ul)`` pairs, and 0/1 accuracy fractions
for the classifier pipeline (:class:`Metrics`).  Accuracies are reported
as fractions in [0, 1]; rendering as percentages is a display concern.

The linear measurement and comparison work on arrays, and one model is
the 0-d case of the same code.  The data and weights follow the shape
rule of :mod:`~unlearn_lab.linalg`, which checks them: a lone scenario
is a one-member stack, and weights carry the data's seed axes, with any
axes in front of them, and end in its ``d`` features; labels carry the
seed axes and end in its ``n`` samples.  Any other shape raises the one
:class:`InvalidMatrixError` message of
:func:`~unlearn_lab.linalg.seed_vectors`, such as
``w must have shape (..., 3, 40) over x_r, got (2, 40)``.
:func:`measure_losses` on a stacked scenario returns a pair of ``(S,)``
arrays, or of ``(N, S)`` for weights ``(N, S, d)``.  :func:`gap_report`
compares two ``(rl, ul)`` pairs, measured against predicted, and leaves
it to the caller to pair each model with its prediction.  The measured
losses may be arrays, say one seed's over every fine-tuning subset size,
compared with predictions of the same shape or with one prediction,
elementwise through :func:`~unlearn_lab.oracle.within_tolerance`, with
the bits of one call per element.

A run's :func:`stage_record` holds the wall seconds of each stage, which
coarse ``with stage(name)`` blocks add to; they never nest.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import InvalidMatrixError
from .linalg import _finite, seed_stack, seed_vectors, squared_norms
from .oracle import within_tolerance
from .scenarios import SyntheticScenario

if TYPE_CHECKING:
    from .classifier import LabeledSet

_STAGES: ContextVar[dict[str, float] | None] = ContextVar("stages", default=None)


@contextmanager
def stage_record(names) -> Iterator[dict[str, float]]:
    """``{name: 0.0}`` per stage, which the :func:`stage` blocks inside add to."""
    token = _STAGES.set(seconds := dict.fromkeys(names, 0.0))
    try:
        yield seconds
    finally:
        _STAGES.reset(token)


@contextmanager
def stage(name: str) -> Iterator[None]:
    """Add the block's wall seconds to stage ``name`` of the innermost record."""
    seconds, start = _STAGES.get(), time.perf_counter()
    try:
        yield
    finally:
        if seconds is not None:
            seconds[name] += time.perf_counter() - start


@dataclass(frozen=True)
class Metrics:
    """Classifier unlearning metrics: UA, RA, TA as fractions in [0, 1]."""

    ua: float
    ra: float
    ta: float

    def __post_init__(self):
        for name in ("ua", "ra", "ta"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _mse(w, x, y, names: tuple[str, str, str]):
    """Mean-squared loss ``(1/m) ||X^T w - y||^2`` of ``w`` on ``m``
    samples, one per model, with its arguments named ``names``.  ``w``
    may have axes in front of its seed axes, which the losses keep."""
    data, seeds = seed_stack(x, names[1])
    weights = seed_vectors(w, names[0], seeds, data.shape[1], names[1], front=True)
    targets = seed_vectors(y, names[2], seeds, data.shape[2], names[1])
    if targets.shape[-1] < 1:
        raise InvalidMatrixError(f"{names[1]} has no samples")
    # Finite inputs can overflow a loss: the check raises, not a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = (np.swapaxes(data, -1, -2) @ weights[..., None])[..., 0] - targets
        losses = _finite((squared_norms(residual) / targets.shape[-1]).reshape(
            weights.shape[:-2] + seeds), f"the loss of {names[0]} on {names[1]}")
    return losses if losses.ndim else float(losses)


def measure_losses(w, scenario: SyntheticScenario):
    """Remaining and unlearning loss of ``w`` on a scenario's two subsets,
    as an ``(rl, ul)`` pair.

    ``w`` is ``(..., d)``, or ``(..., S, d)`` for a stack of scenarios:
    ``rl`` and ``ul`` have the shape ``w.shape[:-1]``, each model with the
    bits of its own call, and are floats for one model of one scenario.
    The data and ``w`` are validated on every call, and finite inputs
    whose losses overflow raise :class:`InvalidMatrixError`.
    """
    return (_mse(w, scenario.x_r, scenario.y_r, ("w", "x_r", "y_r")),
            _mse(w, scenario.x_f, scenario.y_f, ("w", "x_f", "y_f")))


@dataclass(frozen=True, eq=False)
class GapEntry:
    """One measured-versus-predicted comparison, or one per element.

    The fields are floats and a bool for a pair of scalars, and arrays of
    the pair's broadcast shape otherwise.
    """

    abs_gap: float | np.ndarray
    rel_gap: float | np.ndarray
    ok: bool | np.ndarray


@dataclass(frozen=True)
class GapReport:
    """Structured diff between measured losses and an oracle prediction."""

    rl: GapEntry
    ul: GapEntry

    @property
    def passed(self) -> bool:
        """Whether every comparison of both entries is within tolerance."""
        return bool(np.all(self.rl.ok & self.ul.ok))


def _gap_entry(measured, predicted) -> GapEntry:
    # Measured losses are finite, so against a zero prediction a zero gap
    # is 0 / 0, taken as 0, and any other gap is x / 0 = inf.  Python
    # float arithmetic would neither warn nor raise here; the arrays
    # follow it.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        abs_gap = np.abs(np.subtract(measured, predicted))
        rel_gap = np.where(abs_gap == 0.0, 0.0, abs_gap / np.abs(predicted))
    ok = within_tolerance(measured, predicted)
    if rel_gap.ndim == 0:
        return GapEntry(float(abs_gap), float(rel_gap), ok)
    return GapEntry(abs_gap, rel_gap, ok)


def gap_report(measured, predicted) -> GapReport:
    """Compare a model's measured ``(rl, ul)`` pair against its predicted one.

    Each entry passes when :func:`~unlearn_lab.oracle.within_tolerance`
    holds for it.  The measured losses and the predicted ones may be
    arrays, compared elementwise under broadcasting: the losses over
    every ``n_t`` against one prediction, or against a prediction with
    one value per ``n_t``.  A zero prediction
    gives a relative gap of 0 when the gap is zero too and ``inf``
    otherwise; a NaN gap never passes.
    """
    (rl, ul), (rl_pred, ul_pred) = measured, predicted
    return GapReport(rl=_gap_entry(rl, rl_pred), ul=_gap_entry(ul, ul_pred))


def accuracy(weights: np.ndarray, bias: np.ndarray, data: LabeledSet):
    """Fraction of samples whose highest logit ``W x + b`` matches the label:
    a float for ``(K, D)`` weights and ``(K,)`` bias, and for ``(..., K, D)``
    and ``(..., K)`` stacks an array of their leading shape, each model with
    the bits of its own call.  ``(M, S, K, D)`` weights pair each member with
    each seed's ``(S, D, m)`` features.  Ties are broken toward the lowest
    class index, and adding a common constant to every logit leaves the
    result unchanged."""
    if data.size == 0:
        raise ValueError("accuracy of an empty set is undefined")
    predicted = np.argmax(weights @ data.features + bias[..., None], axis=-2)
    hits = np.mean(predicted == data.labels, axis=-1)
    return hits if hits.ndim else float(hits)


def classifier_metrics(weights: np.ndarray, bias: np.ndarray, forget_set: LabeledSet,
                       remain_set: LabeledSet, test_set: LabeledSet):
    """UA/RA/TA of the classifier of ``(K, D)`` weights and ``(K,)`` bias:
    ``UA = 1 - accuracy`` on the forget set.  A stack, shaped as for
    :func:`accuracy`, gets an object array of each model's :class:`Metrics`.
    Parameters that are not all finite raise :class:`ValueError`."""
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise ValueError("model parameters must be finite")
    forget, ra, ta = (accuracy(weights, bias, data) for data in (forget_set, remain_set, test_set))
    return np.frompyfunc(Metrics, 3, 1)(1.0 - forget, ra, ta)
