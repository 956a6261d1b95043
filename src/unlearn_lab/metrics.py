"""Loss measurement, oracle gap reporting, and classifier accuracy metrics.

Two metric families are kept strictly separate: mean-squared losses for
the linear pipeline, as ``(rl, ul)`` pairs, and 0/1 accuracy fractions
for the classifier pipeline, as UA/RA/TA arrays whose last axis holds
the three.  Accuracies are reported as fractions in [0, 1]; rendering as
percentages is a display concern.

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
compares two ``(rl, ul)`` pairs, measured against predicted, into their
absolute gaps and one verdict, and leaves it to the caller to pair each
model with its prediction.  The measured
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


def gap_report(measured, predicted):
    """Compare a model's measured ``(rl, ul)`` pair against its predicted one.

    Returns the ``(rl, ul)`` pair of absolute gaps ``|measured -
    predicted|`` and whether every comparison of both is within
    :func:`~unlearn_lab.oracle.within_tolerance`, as one bool.  The
    measured losses and the predicted ones may be arrays, compared
    elementwise under broadcasting: the losses over every ``n_t`` against
    one prediction, or against a prediction with one value per ``n_t``.
    The gaps then have the broadcast shape, and are floats for a pair of
    scalars.  A NaN gap never passes.
    """
    gaps, passed = [], True
    # Python float arithmetic neither warns nor raises on inf - inf; the
    # arrays follow it.
    with np.errstate(invalid="ignore", over="ignore"):
        for measured_loss, predicted_loss in zip(measured, predicted):
            gap = np.abs(np.subtract(measured_loss, predicted_loss))
            gaps.append(gap if gap.ndim else float(gap))
            passed &= bool(np.all(within_tolerance(measured_loss, predicted_loss)))
    return tuple(gaps), passed


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
                       remain_set: LabeledSet, test_set: LabeledSet) -> np.ndarray:
    """UA, RA and TA of the classifier of ``(K, D)`` weights and ``(K,)``
    bias, as a ``(3,)`` array: ``UA = 1 - accuracy`` on the forget set.  A
    stack, shaped as for :func:`accuracy`, gets a ``(..., 3)`` array of
    its leading shape, each model with the bits of its own call.
    Parameters that are not all finite raise :class:`ValueError`."""
    if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
        raise ValueError("model parameters must be finite")
    forget, ra, ta = (accuracy(weights, bias, data) for data in (forget_set, remain_set, test_set))
    return np.stack([1.0 - forget, ra, ta], axis=-1)
