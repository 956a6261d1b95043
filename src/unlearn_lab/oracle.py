"""Closed-form loss predictions for the linear unlearning pipeline.

Every prediction is one ``(rl, ul)`` pair, the remaining loss (RL) and
unlearning loss (UL) that one model of the pipeline must attain,
expressed through projectors and the data-weighted seminorm: the plain
fine-tuned model's is the constant :data:`FINE_TUNED`, the golden
model's comes from :func:`predict_distinct` or :func:`predict_overlap`,
and each edited-then-fine-tuned model's from :func:`predict_edited`.
Measured losses from the actual solvers are compared against these
values by :func:`within_tolerance`, with a relative tolerance plus a
small absolute floor that guards the exact-zero claims; no config or
flag changes either.

The edited-pipeline predictions are exact whenever the edit recovers the
true weights on the kept blocks: unconditionally for distinct layouts
(the joint projector is block diagonal), and for overlap layouts
whenever the remaining data spans the remaining-plus-overlap coordinate
blocks (rank(X_r) = d_r + d_lap, generic once n_r >= d_r + d_lap).  The
verification protocol operates in that regime.

The three predictors also take a stack of scenarios
(:func:`~unlearn_lab.scenarios.stack_scenarios`), whose predictions
hold one value per member, each with the bits of that member's own
call.  They read the scenario's arrays as given and leave the shapes to
the :mod:`~unlearn_lab.linalg` kernels: one scenario is their zero-lead
case, so the golden UL is a float for one scenario and ``(S,)`` for a
stack.  A run hands them the read-only stack its solvers fit.  They
factor every matrix of it themselves, one stacked projector per matrix
for all members, so a measured solve and its prediction never share a
factorization.  The tests also check them against independent
writings, such as the golden UL expanded into the overlap and feature
blocks, which live beside the tests, not in the package.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .linalg import projector, weighted_seminorm_sq
from .scenarios import SyntheticScenario, decompose_w_star, fine_tune_subset
from .solvers import EditOption

# Tolerance policy for oracle-versus-measurement comparisons.
PRED_REL_TOL = 1e-8
PRED_ABS_FLOOR = 1e-10


#: The plain fine-tuned model's predicted ``(rl, ul)``: fine-tuning the
#: minimum-norm interpolant on a subset of its own training data leaves
#: it interpolating every sample, so both losses are exactly zero.
FINE_TUNED = (0.0, 0.0)


def within_tolerance(measured, predicted):
    """True when ``measured`` matches ``predicted`` within policy.

    The bound is ``max(PRED_ABS_FLOOR, PRED_REL_TOL * |predicted|)``, the
    one oracle bound of the package; the floor keeps near-zero
    predictions from demanding exact equality.  Arrays
    are compared elementwise under broadcasting, giving a bool array; a
    pair of scalars is the 0-d case and gives a bool.  A NaN anywhere
    fails.
    """
    # Python float arithmetic neither warns nor raises on overflow or on
    # inf - inf; the arrays follow it.
    with np.errstate(invalid="ignore", over="ignore"):
        ok = np.abs(np.subtract(measured, predicted)) <= np.maximum(
            PRED_ABS_FLOOR, PRED_REL_TOL * np.abs(predicted))
    return ok if ok.ndim else bool(ok)


def _times(p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each member's matrix-vector product, for ``p`` ``(..., d, d)`` and
    ``v`` ``(..., d)``."""
    return (p @ v[..., None])[..., 0]


def predict_distinct(scenario: SyntheticScenario):
    """The golden model's ``(rl, ul)`` for a layout with no overlap block.

    The golden RL is zero; the golden UL equals the squared
    forgetting-block weights in the forgetting-data seminorm, one value
    per member for a stacked scenario.
    """
    scenario.layout.require_distinct("the distinct prediction")
    return 0.0, weighted_seminorm_sq(decompose_w_star(scenario).w_f, scenario.x_f)


def predict_overlap(scenario: SyntheticScenario):
    """The golden model's ``(rl, ul)`` for a general (possibly
    overlapping) layout.

    The golden RL is zero, and the golden UL is the seminorm of
    ``P_r (w_r + w_lap) - (w_f + w_lap)`` with ``P_r`` the remaining-data
    projector; with an empty overlap block this reduces to the
    distinct-layout value.  For a stacked scenario, the UL holds one value
    per member.
    """
    parts = decompose_w_star(scenario)
    p_r = projector(scenario.x_r)
    gap = _times(p_r, parts.w_r + parts.w_lap) - (parts.w_f + parts.w_lap)
    return 0.0, weighted_seminorm_sq(gap, scenario.x_f)


def predict_edited(
    scenario: SyntheticScenario, options: Sequence[EditOption], nt_values: Sequence[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Predicted losses after editing the pretrained model, then fine-tuning.

    Returns one ``(rl, ul)`` pair per edit option in ``options``, in
    order, whose arrays hold one value per fine-tuning subset size in
    ``nt_values``, in order: ``(len(nt_values),)``, or
    ``(S, len(nt_values))`` for a stack of ``S`` scenarios.
    Zeroing the forgetting block (and, for the discard option, the
    overlap block) before fine-tuning removes the residual influence of
    the forgetting data:

    - ``DISTINCT_ZERO_FORGET``: RL stays zero and UL rises to the golden
      value, closing the gap entirely.
    - ``OVERLAP_RETAIN``: RL stays zero; UL uses the joint-data projector
      on the kept weights.
    - ``OVERLAP_DISCARD``: RL becomes the seminorm of the overlap weights
      outside the fine-tuning span, and UL picks up the fine-tuning
      projector on the overlap weights.

    Only the discard option depends on ``n_t``; the other two repeat one
    prediction.  The two overlap options share one joint-data projector.
    For the overlap options the values are exact when ``n_r >= d_r +
    d_lap`` (see the module docstring); outside that regime they are the
    idealized closed forms, not guarantees about the measured pipeline.
    """
    if EditOption.DISTINCT_ZERO_FORGET in options:
        scenario.layout.require_distinct("the distinct-zero-forget prediction")
    subsets = [fine_tune_subset(scenario, n_t)[0] for n_t in nt_values]
    parts = decompose_w_star(scenario)
    w_f_lap = parts.w_f + parts.w_lap
    shape = scenario.w_star.shape[:-1] + (len(subsets),)

    def repeated(gap):
        """Zero RL, and the UL of ``gap`` at every ``n_t``."""
        ul_edit = weighted_seminorm_sq(gap, scenario.x_f)
        return np.zeros(shape), np.full(shape, np.expand_dims(ul_edit, -1))

    predictions = []
    joint = None
    for option in options:
        if option is EditOption.DISTINCT_ZERO_FORGET:
            predictions.append(repeated(parts.w_f))
            continue
        if joint is None:
            joint = projector(scenario.joint_data()[0])
        if option is EditOption.OVERLAP_RETAIN:
            predictions.append(repeated(_times(joint, parts.w_r + parts.w_lap) - w_f_lap))
            continue
        rl_edit, ul_edit = np.empty(shape), np.empty(shape)
        joint_w_r = _times(joint, parts.w_r)
        for i, x_t in enumerate(subsets):
            # Each prefix's projector stack is dropped once its n_t is predicted.
            kept = _times(projector(x_t), parts.w_lap)
            rl_edit[..., i] = weighted_seminorm_sq(parts.w_lap - kept, scenario.x_r)
            ul_edit[..., i] = weighted_seminorm_sq(joint_w_r + kept - w_f_lap, scenario.x_f)
        predictions.append((rl_edit, ul_edit))
    return predictions
