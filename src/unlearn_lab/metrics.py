"""Loss measurement, oracle gap reporting, and classifier accuracy metrics.

Two metric families are kept strictly separate: mean-squared losses for
the linear pipeline (:class:`LossReport`) and 0/1 accuracy fractions for
the classifier pipeline (:class:`Metrics`).  Accuracies are reported as
fractions in [0, 1]; rendering as percentages is a display concern.

The linear measurement and comparison work on arrays, and one model is
the 0-d case of the same code.  :func:`measure_losses` on a stacked
scenario returns one :class:`LossReport` whose losses are ``(S,)``
arrays, validated once; :func:`gap_report` compares arrays of measured
losses, say one seed's over every fine-tuning subset size, with
predictions of the same shape or with one prediction, elementwise
through :func:`~unlearn_lab.oracle.within_tolerance`, with the bits of
one call per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ProvenanceMismatchError
from .linalg import as_matrix, as_vector, squared_norms
from .oracle import PRED_ABS_FLOOR, PRED_REL_TOL, TheoremPrediction, within_tolerance
from .scenarios import SyntheticScenario

if TYPE_CHECKING:
    from .classifier import LabeledSet, SoftmaxClassifier

MODEL_TAGS = ("original", "fine_tuned", "golden", "edited_fine_tuned")


@dataclass(frozen=True, eq=False)
class LossReport:
    """Measured remaining/unlearning losses of one model of the pipeline.

    ``rl`` and ``ul`` are floats for one model, or arrays of one shape
    with one loss per model, such as one per member of a stack.
    """

    rl: float | np.ndarray
    ul: float | np.ndarray
    model_tag: str

    def __post_init__(self):
        if self.model_tag not in MODEL_TAGS:
            raise ValueError(f"unknown model tag {self.model_tag!r}")
        if np.shape(self.rl) != np.shape(self.ul):
            raise ValueError(
                f"rl and ul must have one shape, got {np.shape(self.rl)} and {np.shape(self.ul)}"
            )
        losses = np.array((self.rl, self.ul), dtype=np.float64)
        # One pass over the losses: NaN fails both comparisons.
        if not ((losses >= 0.0) & (losses < np.inf)).all():
            if not np.isfinite(losses).all():
                raise ValueError("losses must be finite")
            raise ValueError("losses must be nonnegative")


@dataclass(frozen=True)
class Metrics:
    """Classifier unlearning metrics: UA, RA, TA as fractions in [0, 1]."""

    ua: float
    ra: float
    ta: float
    runtime_seconds: float

    def __post_init__(self):
        for name in ("ua", "ra", "ta"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def mse_loss(w, x, y):
    """Mean-squared loss ``(1/m) ||X^T w - y||^2`` over ``m`` samples.

    For a stack (``w`` ``(S, d)``, ``x`` ``(S, d, m)``, ``y`` ``(S, m)``)
    one loss per member, each with the bits of its own call.
    """
    stacked = np.ndim(x) == 3
    return _mse(as_vector(w, "w", stacked), as_matrix(x, "x", stacked),
                as_vector(y, "y", stacked))


def _mse(weights, data, targets):
    """:func:`mse_loss` of validated arrays."""
    if (data.shape[-2] != weights.shape[-1] or data.shape[-1] != targets.shape[-1]
            or data.shape[:-2] != weights.shape[:-1] or data.shape[:-2] != targets.shape[:-1]):
        raise ValueError(
            f"shape mismatch: x {data.shape}, w {weights.shape}, y {targets.shape}"
        )
    if targets.shape[-1] < 1:
        raise ValueError("need at least one sample")
    residual = (np.swapaxes(data, -1, -2) @ weights[..., None])[..., 0] - targets
    losses = squared_norms(residual) / targets.shape[-1]
    return losses if data.ndim == 3 else float(losses)


def measure_losses(w, scenario: SyntheticScenario, model_tag: str) -> LossReport:
    """Remaining and unlearning loss of ``w`` on a scenario's two subsets.

    For a stack of scenarios and weights ``(S, d)``, one report whose
    ``rl`` and ``ul`` are ``(S,)`` arrays, each member with the bits of
    its own call.  ``w`` is validated on every call and the scenario's
    data once per scenario (:attr:`SyntheticScenario.checked_data`).
    """
    x_r, y_r, x_f, y_f = scenario.checked_data
    weights = as_vector(w, "w", x_r.ndim == 3)
    return LossReport(
        rl=_mse(weights, x_r, y_r), ul=_mse(weights, x_f, y_f), model_tag=model_tag)


@dataclass(frozen=True, eq=False)
class GapEntry:
    """One measured-versus-predicted comparison, or one per element.

    The fields are floats and a bool for a pair of scalars, and arrays of
    the pair's broadcast shape otherwise.
    """

    measured: float | np.ndarray
    predicted: float | np.ndarray
    abs_gap: float | np.ndarray
    rel_gap: float | np.ndarray
    ok: bool | np.ndarray


@dataclass(frozen=True)
class GapReport:
    """Structured diff between a loss report and an oracle prediction."""

    rl: GapEntry
    ul: GapEntry

    @property
    def passed(self) -> bool:
        """Whether every comparison of both entries is within tolerance."""
        return bool(np.all(self.rl.ok & self.ul.ok))


# The prediction fields that describe each measured model.
_PREDICTED_PAIR = {
    "fine_tuned": ("rl_ft", "ul_ft"),
    "golden": ("rl_gold", "ul_gold"),
    "edited_fine_tuned": ("rl_edit", "ul_edit"),
}


def _gap_entry(measured, predicted, rel_tol, abs_floor) -> GapEntry:
    # Measured losses are finite, so against a zero prediction a zero gap
    # is 0 / 0, taken as 0, and any other gap is x / 0 = inf.  Python
    # float arithmetic would neither warn nor raise here; the arrays
    # follow it.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        abs_gap = np.abs(np.subtract(measured, predicted))
        rel_gap = np.where(abs_gap == 0.0, 0.0, abs_gap / np.abs(predicted))
    ok = within_tolerance(measured, predicted, rel_tol, abs_floor)
    if rel_gap.ndim == 0:
        return GapEntry(measured, predicted, float(abs_gap), float(rel_gap), ok)
    return GapEntry(measured, predicted, abs_gap, rel_gap, ok)


def gap_report(
    measured: LossReport,
    predicted: TheoremPrediction,
    rel_tol: float = PRED_REL_TOL,
    abs_floor: float = PRED_ABS_FLOOR,
) -> GapReport:
    """Compare measured losses against the prediction for the same model.

    The model tag selects which predicted pair applies; a tag with no
    predicted counterpart ("original", or a model the prediction leaves
    unpredicted) raises :class:`ProvenanceMismatchError`.  Each entry
    passes when its absolute gap is at most
    ``max(abs_floor, rel_tol * |predicted|)``.  The measured losses and
    the predicted ones may be arrays, compared elementwise under
    broadcasting: a report over every ``n_t`` against one prediction, or
    against a prediction whose fields hold one value per ``n_t``.  A
    zero prediction gives a relative gap of 0 when the gap is zero too and
    ``inf`` otherwise; a NaN gap never passes.
    """
    fields = _PREDICTED_PAIR.get(measured.model_tag, ())
    pair = [getattr(predicted, name) for name in fields]
    if not pair or any(value is None for value in pair):
        raise ProvenanceMismatchError(
            f"the prediction carries no losses for model tag {measured.model_tag!r}"
        )
    return GapReport(
        rl=_gap_entry(measured.rl, pair[0], rel_tol, abs_floor),
        ul=_gap_entry(measured.ul, pair[1], rel_tol, abs_floor),
    )


def accuracy(model: SoftmaxClassifier, data: LabeledSet) -> float:
    """Fraction of samples whose highest logit matches the label.

    Ties are broken toward the lowest class index, and adding a common
    constant to every logit leaves the result unchanged.
    """
    if data.size == 0:
        raise ValueError("accuracy of an empty set is undefined")
    predicted = np.argmax(model.logits(data.features), axis=0)
    return float(np.mean(predicted == data.labels))


def classifier_metrics(
    model: SoftmaxClassifier,
    forget_set: LabeledSet,
    remain_set: LabeledSet,
    test_set: LabeledSet,
    runtime_seconds: float = 0.0,
) -> Metrics:
    """UA/RA/TA of a classifier: ``UA = 1 - accuracy`` on the forget set."""
    return Metrics(
        ua=1.0 - accuracy(model, forget_set),
        ra=accuracy(model, remain_set),
        ta=accuracy(model, test_set),
        runtime_seconds=runtime_seconds,
    )
