"""Closed-form loss predictions for the linear unlearning pipeline.

Each predictor returns the remaining loss (RL) and unlearning loss (UL)
that the fine-tuned, golden, and (optionally) edited-then-fine-tuned
models must attain, expressed through projectors and the data-weighted
seminorm.  Measured losses from the actual solvers are compared against
these values with a relative tolerance plus a small absolute floor that
guards the exact-zero claims.

The overlap-layout golden UL has two algebraically equivalent writings:
one through the remaining-data projector and one expanded into the
overlap/feature blocks.  Both are implemented
(:func:`predict_overlap` and :func:`golden_ul_block_form`) so their
numerical agreement can be checked rather than assumed.

The edited-pipeline predictions are exact whenever the edit recovers the
true weights on the kept blocks: unconditionally for distinct layouts
(the joint projector is block diagonal), and for overlap layouts
whenever the remaining data spans the remaining-plus-overlap coordinate
blocks (rank(X_r) = d_r + d_lap, generic once n_r >= d_r + d_lap).  The
verification protocol operates in that regime.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .errors import LayoutMismatchError
from .linalg import oracle_work, projector, pseudoinverse, weighted_seminorm_sq
from .scenarios import SyntheticScenario, decompose_w_star, fine_tune_subset
from .solvers import EditOption

# Tolerance policy for oracle-versus-measurement comparisons.
PRED_REL_TOL = 1e-8
PRED_ABS_FLOOR = 1e-10


@dataclass(frozen=True)
class TheoremPrediction:
    """Predicted losses for one scenario; ``None`` where nothing is predicted.

    The unedited predictions fill ``rl_ft``/``ul_ft`` (the plain
    fine-tuned model, exactly zero) and ``rl_gold``/``ul_gold`` (the
    retrained-from-scratch model).  The edited predictions fill only
    ``rl_edit``/``ul_edit`` (the edited-then-fine-tuned model).  Every
    filled value is nonnegative.
    """

    rl_ft: float | None = None
    ul_ft: float | None = None
    rl_gold: float | None = None
    ul_gold: float | None = None
    rl_edit: float | None = None
    ul_edit: float | None = None


def within_tolerance(
    measured: float,
    predicted: float,
    rel_tol: float = PRED_REL_TOL,
    abs_floor: float = PRED_ABS_FLOOR,
) -> bool:
    """True when ``measured`` matches ``predicted`` within policy.

    The bound is ``max(abs_floor, rel_tol * |predicted|)``; the floor
    keeps near-zero predictions from demanding exact equality.
    """
    return abs(measured - predicted) <= max(abs_floor, rel_tol * abs(predicted))


@oracle_work
def predict_distinct(scenario: SyntheticScenario) -> TheoremPrediction:
    """Predicted losses for a layout with no overlap block.

    Fine-tuned RL and UL and golden RL are all zero; the golden UL equals
    the squared forgetting-block weights in the forgetting-data seminorm.
    """
    if not scenario.layout.is_distinct:
        raise LayoutMismatchError(
            f"distinct prediction requires d_lap = 0, got {scenario.layout.d_lap}"
        )
    parts = decompose_w_star(scenario)
    ul_gold = weighted_seminorm_sq(parts.w_f, scenario.x_f, scenario.n_f)
    return TheoremPrediction(rl_ft=0.0, ul_ft=0.0, rl_gold=0.0, ul_gold=ul_gold)


@oracle_work
def predict_overlap(scenario: SyntheticScenario) -> TheoremPrediction:
    """Predicted losses for a general (possibly overlapping) layout.

    The golden UL is the seminorm of ``P_r (w_r + w_lap) - (w_f + w_lap)``
    with ``P_r`` the remaining-data projector; with an empty overlap block
    this reduces to the distinct-layout value.
    """
    parts = decompose_w_star(scenario)
    p_r = projector(scenario.x_r).matrix
    gap = p_r @ (parts.w_r + parts.w_lap) - (parts.w_f + parts.w_lap)
    ul_gold = weighted_seminorm_sq(gap, scenario.x_f, scenario.n_f)
    return TheoremPrediction(rl_ft=0.0, ul_ft=0.0, rl_gold=0.0, ul_gold=ul_gold)


@oracle_work
def golden_ul_block_form(scenario: SyntheticScenario) -> float:
    """Golden UL expanded into explicit overlap/feature blocks.

    Algebraically identical to the projector form in
    :func:`predict_overlap`; kept as an independent code path so tests
    can adjudicate the two writings numerically.  The remaining-data Gram
    matrix is inverted in the pseudoinverse sense, which is what extends
    the expansion to rank-deficient remaining sets (more samples than
    active features).
    """
    layout = scenario.layout
    r = scenario.x_r[layout.remaining_block]
    l1 = scenario.x_r[layout.overlap_block]
    l2 = scenario.x_f[layout.overlap_block]
    f = scenario.x_f[layout.forgetting_block]
    a = scenario.w_star[layout.remaining_block]
    b = scenario.w_star[layout.overlap_block]
    c = scenario.w_star[layout.forgetting_block]
    gram_inv = pseudoinverse(r.T @ r + l1.T @ l1)
    through_overlap = l2.T @ (l1 @ (gram_inv @ (r.T @ a + l1.T @ b)))
    residual = through_overlap - (l2.T @ b + f.T @ c)
    return float(residual @ residual) / scenario.n_f


@oracle_work
def predict_edited(
    scenario: SyntheticScenario, option: EditOption, nt_values: Sequence[int]
) -> list[TheoremPrediction]:
    """Predicted losses after editing the pretrained model, then fine-tuning.

    Returns one prediction per fine-tuning subset size in ``nt_values``,
    in order.  Zeroing the forgetting block (and, for the discard option,
    the overlap block) before fine-tuning removes the residual influence
    of the forgetting data:

    - ``DISTINCT_ZERO_FORGET``: RL stays zero and UL rises to the golden
      value, closing the gap entirely.
    - ``OVERLAP_RETAIN``: RL stays zero; UL uses the joint-data projector
      on the kept weights.
    - ``OVERLAP_DISCARD``: RL becomes the seminorm of the overlap weights
      outside the fine-tuning span, and UL picks up the fine-tuning
      projector on the overlap weights.

    Only the discard option depends on ``n_t``; the other two repeat one
    prediction.  For the overlap options the values are exact when
    ``n_r >= d_r + d_lap`` (see the module docstring); outside that regime
    they are the idealized closed forms, not guarantees about the
    measured pipeline.
    """
    if option is EditOption.DISTINCT_ZERO_FORGET and not scenario.layout.is_distinct:
        raise LayoutMismatchError(
            "distinct-zero-forget prediction requires an empty overlap block"
        )
    subsets = [fine_tune_subset(scenario, n_t)[0] for n_t in nt_values]
    parts = decompose_w_star(scenario)

    def edited(rl_edit, gap):
        ul_edit = weighted_seminorm_sq(gap, scenario.x_f, scenario.n_f)
        return TheoremPrediction(rl_edit=rl_edit, ul_edit=ul_edit)

    if option is EditOption.DISTINCT_ZERO_FORGET:
        return [edited(0.0, parts.w_f)] * len(subsets)
    p = projector(scenario.joint_data()[0]).matrix
    if option is EditOption.OVERLAP_RETAIN:
        gap = p @ (parts.w_r + parts.w_lap) - (parts.w_f + parts.w_lap)
        return [edited(0.0, gap)] * len(subsets)
    predictions = []
    for x_t in subsets:
        p_t = projector(x_t).matrix
        left_out = parts.w_lap - p_t @ parts.w_lap
        rl_edit = weighted_seminorm_sq(left_out, scenario.x_r, scenario.n_r)
        gap = p @ parts.w_r + p_t @ parts.w_lap - (parts.w_f + parts.w_lap)
        predictions.append(edited(rl_edit, gap))
    return predictions
