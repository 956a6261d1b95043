"""Training, fine-tuning, retraining, and coordinate-mask model editing.

Three closed-form procedures cover the linear pipeline: the pretrained
model is the minimum-norm interpolant of the full data, the "unlearned"
model fine-tunes it by moving the shortest distance onto the constraint
set of a remaining-data subset, and the golden model retrains from
scratch on the remaining data only.  Editing zeroes the pretrained
coordinates tied to the forgetting block before fine-tuning, either
keeping or dropping the overlap block.

The solvers and the edit also take a stack of scenarios (see
:func:`~unlearn_lab.scenarios.stack_scenarios`), with weights ``(S, d)``:
each member gets the bits of its own call.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import LayoutMismatchError
from .linalg import min_norm_anchor_solve, min_norm_solve
from .scenarios import FeatureLayout, SyntheticScenario


class EditOption(Enum):
    """How to zero out forgetting-related coordinates of a pretrained model.

    ``DISTINCT_ZERO_FORGET`` applies to layouts without an overlap block;
    the two overlap options keep or drop the overlap coordinates and are
    valid for any layout (they coincide when the overlap block is empty).
    """

    DISTINCT_ZERO_FORGET = "distinct-zero-forget"
    OVERLAP_RETAIN = "overlap-retain"
    OVERLAP_DISCARD = "overlap-discard"


def train_original(scenario: SyntheticScenario) -> np.ndarray:
    """Minimum-norm interpolant of the full (remaining + forgetting) data."""
    x, y = scenario.joint_data()
    return min_norm_solve(x, y)


def fine_tune_unlearn(w_o: np.ndarray, x_t, y_t) -> np.ndarray:
    """Fine-tune ``w_o`` onto the subset constraints ``X_t^T w = y_t``.

    Returns the interpolant of the subset nearest to the pretrained
    weights.  When ``w_o`` already fits the subset (always the case when
    the subset comes from the pretraining data) this is a no-op.  ``w_o``
    may stack several starts on leading axes, ``(E, d)`` or ``(E, S, d)``:
    they are fine-tuned in one call, on one SVD of the subset.
    """
    return min_norm_anchor_solve(x_t, y_t, w_o)


def retrain_golden(scenario: SyntheticScenario) -> np.ndarray:
    """Reference model: minimum-norm interpolant of the remaining data only."""
    return min_norm_solve(scenario.x_r, scenario.y_r)


def edit_pretrained(w_o: np.ndarray, layout: FeatureLayout, option: EditOption) -> np.ndarray:
    """Zero the forgetting-related coordinates of a pretrained model, or
    of each model of a stack ``(..., d)`` with any leading axes.

    ``DISTINCT_ZERO_FORGET`` and ``OVERLAP_DISCARD`` keep only the
    remaining-only block; ``OVERLAP_RETAIN`` keeps the remaining and
    overlap blocks.  Kept coordinates are copied unchanged, so the edit is
    idempotent and commutes with scalar rescaling of ``w_o``.
    """
    w_o = np.asarray(w_o, dtype=np.float64)
    if w_o.shape[-1:] != (layout.d,):
        raise LayoutMismatchError(
            f"weights have shape {w_o.shape} but the layout has d = {layout.d}"
        )
    if option is EditOption.DISTINCT_ZERO_FORGET:
        layout.require_distinct("the distinct-zero-forget edit")
    keep = layout.d_r if option is not EditOption.OVERLAP_RETAIN else layout.d_r + layout.d_lap
    edited = w_o.copy()
    edited[..., keep:] = 0.0
    return edited

