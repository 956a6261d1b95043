"""Dense linear-algebra kernels for interpolating linear models.

Everything here is built on one primitive: the truncated SVD.  The
pseudoinverse, the orthogonal projector onto a column space, and the
(minimum-norm / anchored minimum-norm) solutions of ``X^T w = y`` are all
derived from it, which keeps rank-deficient inputs well defined and
numerically stable.  Projectors are always formed from retained left
singular vectors, never from the normal-equations formula.

A :class:`RankDeficiencyCount` counts, inside its ``with`` block, the
truncated SVDs whose rank falls short of the matrix's smaller side: the
event ``--log-level DEBUG`` shows, counted at every level and apart for
the solvers and for the functions marked :func:`oracle_work`.

A :class:`Factored` matrix holds a validated data matrix and computes its
truncated SVD once, on first use.  The two solvers accept one in place
of an array, so several solves on the same matrix share one
factorization and give the same bits as separate solves.  A caller keeps
a factor only as long as it solves on that matrix; nothing is cached at
module level.

Conventions: a data matrix ``X`` is ``d x n`` (features by samples), the
linear system it induces is ``X^T w = y``, singular values are reported
in descending order, and values are retained only when strictly greater
than the cutoff.
"""

from __future__ import annotations

import functools
import logging
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InconsistentSystemError, InvalidMatrixError, SvdFailureError

logger = logging.getLogger(__name__)

# Tolerance policy, stated once and reused by every caller.
TOL_SYM = 1e-10
TOL_IDEM = 1e-10
CONSISTENCY_REL_TOL = 1e-8


def consistency_tol(y: np.ndarray) -> float:
    """Residual bound under which ``X^T w = y`` counts as consistent."""
    return CONSISTENCY_REL_TOL * (1.0 + float(np.linalg.norm(y)))


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidMatrixError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidMatrixError(f"{name} contains non-finite entries")
    return arr


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Validate and return ``v`` as a finite 1-D float64 array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidMatrixError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidMatrixError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Projector:
    """Orthogonal projector onto the column space of a data matrix.

    ``matrix`` is symmetric and idempotent to within :data:`TOL_SYM` /
    :data:`TOL_IDEM`; ``rank`` is the number of singular values of the
    source matrix retained above the cutoff.
    """

    matrix: np.ndarray = field(repr=False)
    rank: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def complement(self) -> np.ndarray:
        """The projector onto the orthogonal complement, ``I - P``."""
        return np.eye(self.dim) - self.matrix


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``A = U diag(S) V^T`` with descending singular values.

    ``U`` and ``V`` have orthonormal columns.  Raises
    :class:`InvalidMatrixError` on non-finite input and
    :class:`SvdFailureError` if the iteration does not converge.
    """
    arr = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailureError(f"SVD did not converge for shape {arr.shape}") from exc
    return u, s, vh.T


def default_sv_cutoff(shape: tuple[int, int], s_max: float) -> float:
    """Singular-value cutoff: ``max(rows, cols) * eps * s_max``."""
    return max(shape) * np.finfo(np.float64).eps * s_max


class RankDeficiencyCount:
    """Counts the rank-deficient truncated SVDs made inside ``with`` blocks.

    ``counts["oracle"]`` grows by one wherever :func:`_truncated_svd`
    logs a ``rank-deficient matrix`` record inside a function marked
    :func:`oracle_work`, and ``counts["solvers"]`` wherever it logs one
    elsewhere, whatever the log level.  The counts live in the caller's
    object; only the innermost open block counts.
    """

    def __init__(self):
        self.counts = {"solvers": 0, "oracle": 0}
        self._token = None

    def __enter__(self) -> "RankDeficiencyCount":
        self._token = _RANK_DEFICIENCY_COUNT.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _RANK_DEFICIENCY_COUNT.reset(self._token)


_RANK_DEFICIENCY_COUNT: ContextVar[RankDeficiencyCount | None] = ContextVar(
    "rank_deficiency_count", default=None)
_ORACLE_WORK: ContextVar[bool] = ContextVar("oracle_work", default=False)


def oracle_work(fn):
    """Mark ``fn`` as the oracle's: :class:`RankDeficiencyCount` counts the
    rank-deficient SVDs made inside it as ``"oracle"``."""
    @functools.wraps(fn)
    def marked(*args, **kwargs):
        token = _ORACLE_WORK.set(True)
        try:
            return fn(*args, **kwargs)
        finally:
            _ORACLE_WORK.reset(token)

    return marked


def _truncated_svd(a, sv_cutoff: float | None):
    """SVD restricted to singular values strictly above the cutoff."""
    u, s, v = svd(a)
    if sv_cutoff is None:
        sv_cutoff = default_sv_cutoff(a.shape, float(s[0]) if s.size else 0.0)
    elif sv_cutoff < 0:
        raise ValueError("sv_cutoff must be nonnegative")
    rank = int(np.count_nonzero(s > sv_cutoff))
    if rank < min(a.shape):
        counting = _RANK_DEFICIENCY_COUNT.get()
        if counting is not None:
            counting.counts["oracle" if _ORACLE_WORK.get() else "solvers"] += 1
        # Routine for block-structured data (zero feature rows), hence debug.
        logger.debug(
            "rank-deficient matrix: shape %s has rank %d (cutoff %.3e)",
            a.shape, rank, sv_cutoff,
        )
    return u[:, :rank], s[:rank], v[:, :rank]


class Factored:
    """A validated data matrix with its truncated SVD, computed on first use.

    ``truncated_svd`` is ``_truncated_svd(matrix, None)``: the default
    cutoff, as in :func:`min_norm_solve`.  Every solve on one object reuses
    that one factorization, which is what a fresh solve would compute, so
    the results are bit for bit those of solving on the array.
    """

    def __init__(self, x, name: str = "x"):
        self.matrix = as_matrix(x, name)

    @cached_property
    def truncated_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _truncated_svd(self.matrix, None)


def _as_factored(x, name: str) -> Factored:
    return x if isinstance(x, Factored) else Factored(x, name)


def pseudoinverse(a, sv_cutoff: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via truncated SVD.

    Singular values at or below the cutoff are treated as exact zeros.
    The default cutoff is ``max(rows, cols) * eps * s_max``.
    """
    arr = as_matrix(a)
    u, s, v = _truncated_svd(arr, sv_cutoff)
    if s.size == 0:
        return np.zeros((arr.shape[1], arr.shape[0]))
    return (v / s) @ u.T


def projector(x, sv_cutoff: float | None = None) -> Projector:
    """Orthogonal projector onto the column space of ``x``.

    Computed as ``U_r U_r^T`` from the retained left singular vectors; for
    full-column-rank ``x`` this equals ``X (X^T X)^{-1} X^T``.
    """
    arr = as_matrix(x)
    u, _, _ = _truncated_svd(arr, sv_cutoff)
    return Projector(matrix=u @ u.T, rank=u.shape[1])


def min_norm_solve(x, y) -> np.ndarray:
    """Minimum-Euclidean-norm solution of ``X^T w = y``.

    Returns ``(X^T)^+ y``, which interpolates the data and lies in the
    column space of ``x``.  ``x`` is an array or a :class:`Factored`
    matrix.  Raises :class:`InconsistentSystemError` when no interpolating
    solution exists (residual above :func:`consistency_tol`).
    """
    factored = _as_factored(x, "x")
    arr = factored.matrix
    rhs = as_vector(y, "y")
    if arr.shape[1] != rhs.shape[0]:
        raise InvalidMatrixError(
            f"x has {arr.shape[1]} samples but y has {rhs.shape[0]} entries"
        )
    u, s, v = factored.truncated_svd
    # (X^T)^+ = U diag(1/s) V^T from the thin SVD X = U diag(s) V^T.
    w = u @ ((v.T @ rhs) / s) if s.size else np.zeros(arr.shape[0])
    residual = float(np.linalg.norm(arr.T @ w - rhs))
    if residual > consistency_tol(rhs):
        raise InconsistentSystemError(
            f"system X^T w = y is inconsistent: residual {residual:.3e}"
        )
    return w


def min_norm_anchor_solve(x_t, y_t, w_o) -> np.ndarray:
    """Interpolating solution of ``X_t^T w = y_t`` nearest to ``w_o``.

    Returns ``w_o + (X_t^T)^+ (y_t - X_t^T w_o)``; with a zero anchor this
    reduces to :func:`min_norm_solve`, and when the anchor already
    interpolates it is returned unchanged up to round-off.  ``x_t`` is an
    array or a :class:`Factored` matrix.
    """
    anchor = as_vector(w_o, "w_o")
    factored = _as_factored(x_t, "x_t")
    arr = factored.matrix
    rhs = as_vector(y_t, "y_t")
    if arr.shape[0] != anchor.shape[0]:
        raise InvalidMatrixError(
            f"x_t has {arr.shape[0]} features but w_o has {anchor.shape[0]}"
        )
    try:
        correction = min_norm_solve(factored, rhs - arr.T @ anchor)
    except InconsistentSystemError as exc:
        raise InconsistentSystemError(
            f"anchored system X_t^T w = y_t is inconsistent ({exc})"
        ) from exc
    return anchor + correction


def weighted_seminorm_sq(v, x, n: int) -> float:
    """Squared seminorm ``v^T A v`` with ``A = (1/n) X X^T``.

    Equals ``(1/n) ||X^T v||^2``, hence nonnegative, and zero exactly when
    ``v`` is orthogonal to the columns of ``x``.
    """
    vec = as_vector(v, "v")
    arr = as_matrix(x, "x")
    if n < 1:
        raise ValueError("n must be >= 1")
    if arr.shape[0] != vec.shape[0]:
        raise InvalidMatrixError(
            f"x has {arr.shape[0]} features but v has {vec.shape[0]}"
        )
    t = arr.T @ vec
    return float(t @ t) / n


def gradient_descent_solve(
    x,
    y,
    w0=None,
    iters: int = 100_000,
    step_size: float | None = None,
    stop_tol: float = 0.0,
) -> np.ndarray:
    """Plain gradient descent on ``(1/n) ||X^T w - y||^2``.

    This is a verification oracle, not a production solver: started from
    zero it converges to the minimum-norm interpolant, and started from an
    anchor it converges to the anchored minimum-norm solution, because the
    iterates never leave ``w0 + colspace(x)``.  The default step size is
    0.4 * n / s_max^2, safely inside the stable region.  ``stop_tol`` > 0
    stops early once the gradient norm falls below it.
    """
    arr = as_matrix(x, "x")
    rhs = as_vector(y, "y")
    n = arr.shape[1]
    w = np.zeros(arr.shape[0]) if w0 is None else as_vector(w0, "w0").copy()
    if step_size is None:
        s_max = float(np.linalg.norm(arr, 2))
        step_size = 0.4 * n / (s_max * s_max) if s_max > 0 else 1.0
    for _ in range(iters):
        grad = (2.0 / n) * (arr @ (arr.T @ w - rhs))
        w -= step_size * grad
        if stop_tol > 0.0 and float(np.linalg.norm(grad)) < stop_tol:
            break
    return w
