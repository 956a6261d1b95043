"""Independent cross-checks of the linear pipeline, for the tests.

Each reaches a quantity that the package computes by another route, and
is built only on the package's public API:

- :func:`gradient_descent_solve` iterates its way to the (anchored)
  minimum-norm interpolants that the solvers reach through one SVD;
- :func:`closed_form_wt_distinct` rebuilds the fine-tuned model of a
  distinct layout from projectors, which the solvers never form;
- :func:`golden_ul_block_form` expands the golden UL into the explicit
  overlap and feature blocks, through the remaining-data Gram
  pseudoinverse, where :func:`~unlearn_lab.oracle.predict_overlap`
  uses the remaining-data projector.

Agreement between two routes is checked, not assumed.  One helper is no
cross-check: :func:`mse_loss` measures a loss on given data through
:func:`~unlearn_lab.metrics.measure_losses`, which measures a scenario's
two subsets.
"""

import numpy as np

from unlearn_lab.linalg import projector, pseudoinverse
from unlearn_lab.metrics import measure_losses
from unlearn_lab.scenarios import (
    FeatureLayout,
    SyntheticScenario,
    decompose_w_star,
    fine_tune_subset,
)


def mse_loss(w, x, y):
    """Mean-squared loss ``(1/m) ||x^T w - y||^2`` of ``w`` on ``m`` samples,
    as :func:`~unlearn_lab.metrics.measure_losses` measures the remaining
    subset of a scenario whose two subsets are both ``(x, y)``.

    Shapes and errors are the measurement's, and name the remaining
    subset: ``y_r must have shape (4,) over x_r, got (5,)``.
    """
    x = np.asarray(x)
    data = SyntheticScenario(FeatureLayout(x.shape[-2], 0, 0), x, x, y, y,
                             np.zeros(x.shape[:-1]))
    return measure_losses(w, data)[0]


def gradient_descent_solve(
    x,
    y,
    w0=None,
    iters: int = 100_000,
    step_size: float | None = None,
    stop_tol: float = 0.0,
) -> np.ndarray:
    """Plain gradient descent on ``(1/n) ||X^T w - y||^2``.

    Started from zero it converges to the minimum-norm interpolant, and
    started from an anchor to the anchored minimum-norm solution, because
    the iterates never leave ``w0 + colspace(x)``.  The default step size
    is 0.4 * n / s_max^2, safely inside the stable region.  ``stop_tol``
    > 0 stops early once the gradient norm falls below it.
    """
    arr = np.asarray(x, dtype=np.float64)
    rhs = np.asarray(y, dtype=np.float64)
    n = arr.shape[1]
    w = np.zeros(arr.shape[0]) if w0 is None else np.array(w0, dtype=np.float64)
    if step_size is None:
        s_max = float(np.linalg.norm(arr, 2))
        step_size = 0.4 * n / (s_max * s_max) if s_max > 0 else 1.0
    for _ in range(iters):
        grad = (2.0 / n) * (arr @ (arr.T @ w - rhs))
        w -= step_size * grad
        if stop_tol > 0.0 and float(np.linalg.norm(grad)) < stop_tol:
            break
    return w


def closed_form_wt_distinct(scenario: SyntheticScenario, n_t: int) -> np.ndarray:
    """Projector-calculus reconstruction of the fine-tuned model.

    For layouts without an overlap block the fine-tuned model equals
    ``P w_r + (P - P_t) w_f``, where ``P`` projects onto the span of the
    full data and ``P_t`` onto the span of the fine-tuning subset.
    """
    scenario.layout.require_distinct("the distinct closed form")
    x, _ = scenario.joint_data()
    x_t, _ = fine_tune_subset(scenario, n_t)
    p = projector(x)
    p_t = projector(x_t)
    w_r, _, w_f = decompose_w_star(scenario)
    return p @ w_r + (p - p_t) @ w_f


def golden_ul_block_form(scenario: SyntheticScenario) -> float:
    """Golden UL expanded into explicit overlap/feature blocks.

    Algebraically identical to the projector form of
    :func:`~unlearn_lab.oracle.predict_overlap`.  The remaining-data Gram
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
