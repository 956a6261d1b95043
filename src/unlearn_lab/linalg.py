"""Dense linear-algebra kernels for interpolating linear models.

Everything here is built on one primitive: the truncated SVD.  The
pseudoinverse, the orthogonal projector onto a column space, and the
(minimum-norm / anchored minimum-norm) solutions of ``X^T w = y`` are all
derived from it, which keeps rank-deficient inputs well defined and
numerically stable.  Projectors are always formed from retained left
singular vectors, never from the normal-equations formula.

The SVD, the two solvers, the projector and the seminorm also take a
stack of matrices ``(S, d, n)`` (with right-hand sides, anchors and
seminorm vectors ``(S, n)`` or ``(S, d)``), one member per seed, and a
single matrix is the one-member case of the same code.  Each member
keeps its own cutoff, rank, consistency check and rank-deficiency
record; members of one rank are solved or projected by one broadcasting
product, and members of another rank as their own sub-stack.  Stacked
LAPACK SVDs, matrix products and row dot products give every member the
bits of its own call.  The solvers serve the measured pipeline, the
projector and the seminorm the oracle, which stacks and factors its own
matrices; the pseudoinverse, which only the oracle's independent block
form uses, takes a single matrix.

A :class:`RankDeficiencyCount` counts, inside its ``with`` block, the
members of truncated SVDs whose rank falls short of the matrix's
smaller side: the event ``--log-level DEBUG`` shows, counted at every
level and apart for the solvers and for the functions marked
:func:`oracle_work`.  A held block keeps its records until they are
released, so a stack that is dropped and rerun seed by seed is counted
once.

A :class:`Factored` matrix (or stack) holds validated data and computes
its truncated SVD once, on first use.  The two solvers accept one in
place of an array, so several solves on the same matrix share one
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


def consistency_tol(y: np.ndarray):
    """Residual bound under which ``X^T w = y`` counts as consistent.

    For a stack ``y`` of shape ``(S, n)``, one bound per member.
    """
    return CONSISTENCY_REL_TOL * (1.0 + np.sqrt(squared_norms(y)))


def squared_norms(v: np.ndarray):
    """``v @ v`` of a vector, or of each row of a stack ``(S, n)``.

    Each row is one BLAS dot product, the one ``v @ v`` computes and
    ``np.linalg.norm(v)`` takes the square root of, so a stacked row gives
    the bits of the row alone.
    """
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _validated(a, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != ndim:
        raise InvalidMatrixError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidMatrixError(f"{name} contains non-finite entries")
    return arr


def as_matrix(a, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float64 array, or with
    ``stacked`` as a finite 3-D stack ``(S, d, n)`` of them."""
    return _validated(a, name, 2 + stacked)


def as_vector(v, name: str = "vector", stacked: bool = False) -> np.ndarray:
    """Validate and return ``v`` as a finite 1-D float64 array, or with
    ``stacked`` as a finite 2-D stack ``(S, n)`` of them."""
    return _validated(v, name, 1 + stacked)


def _transposed(a: np.ndarray) -> np.ndarray:
    """Each member's transpose, as a view."""
    return np.swapaxes(a, -1, -2)


def _as_stack(a, name: str) -> tuple[np.ndarray, bool]:
    """``a`` validated as a stack ``(S, d, n)``, a matrix being its
    one-member case, and whether it was given as a stack."""
    arr = np.asarray(a, dtype=np.float64)
    stacked = arr.ndim == 3
    arr = as_matrix(arr, name, stacked)
    return (arr if stacked else arr[None]), stacked


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector onto the column space of a data matrix.

    ``matrix`` is symmetric and idempotent to within :data:`TOL_SYM` /
    :data:`TOL_IDEM`; ``rank`` is the number of singular values of the
    source matrix retained above the cutoff.  For a stack of data
    matrices, ``matrix`` is ``(S, d, d)`` and ``rank`` a tuple with one
    rank per member.
    """

    matrix: np.ndarray = field(repr=False)
    rank: int | tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def complement(self) -> np.ndarray:
        """The projector onto the orthogonal complement, ``I - P``."""
        return np.eye(self.dim) - self.matrix


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``A = U diag(S) V^T`` with descending singular values.

    ``a`` is a matrix ``(d, n)`` or a stack ``(S, d, n)``, whose members
    are factored in one call, each with the bits of its own call.  ``U``
    and ``V`` have orthonormal columns.  Raises
    :class:`InvalidMatrixError` on non-finite input and
    :class:`SvdFailureError` if the iteration does not converge.
    """
    arr = np.asarray(a, dtype=np.float64)
    arr = as_matrix(arr, stacked=arr.ndim == 3)
    try:
        u, s, vh = np.linalg.svd(arr, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailureError(f"SVD did not converge for shape {arr.shape[-2:]}") from exc
    return u, s, _transposed(vh)


def default_sv_cutoff(shape: tuple[int, int], s_max):
    """Singular-value cutoff: ``max(rows, cols) * eps * s_max``.

    ``s_max`` may be an array of the members' largest singular values.
    """
    return max(shape) * np.finfo(np.float64).eps * s_max


class RankDeficiencyCount:
    """Counts the rank-deficient truncated SVDs made inside ``with`` blocks.

    ``counts["oracle"]`` grows by one wherever :func:`_truncated_svd`
    finds a member rank-deficient inside a function marked
    :func:`oracle_work`, and ``counts["solvers"]`` wherever it finds one
    elsewhere, whatever the log level.  The counts live in the caller's
    object; only the innermost open block counts.

    A block opened with ``hold=True`` counts and logs nothing yet: it
    keeps each record until :meth:`release` passes them on to the block
    around it, DEBUG line included, as if they had been made there.  A
    stacked pass that may be dropped and rerun seed by seed runs in such
    a block, so that the dropped attempt leaves no trace.
    """

    def __init__(self, hold: bool = False):
        self.counts = {"solvers": 0, "oracle": 0}
        self.held: list | None = [] if hold else None
        self._token = None

    def __enter__(self) -> "RankDeficiencyCount":
        self._token = _RANK_DEFICIENCY_COUNT.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _RANK_DEFICIENCY_COUNT.reset(self._token)

    def release(self) -> None:
        """Count and log the held records in the enclosing block."""
        held, self.held = self.held, []
        for record in held:
            _rank_deficient(*record)


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


def _rank_deficient(oracle: bool, shape: tuple, rank: int, cutoff: float) -> None:
    counting = _RANK_DEFICIENCY_COUNT.get()
    if counting is not None and counting.held is not None:
        counting.held.append((oracle, shape, rank, cutoff))
        return
    if counting is not None:
        counting.counts["oracle" if oracle else "solvers"] += 1
    # Routine for block-structured data (zero feature rows), hence debug.
    logger.debug(
        "rank-deficient matrix: shape %s has rank %d (cutoff %.3e)", shape, rank, cutoff,
    )


def _truncated_svd(a: np.ndarray, sv_cutoff: float | None) -> list[tuple]:
    """SVD of each member of a stack ``(S, d, n)``, restricted to its
    singular values strictly above its cutoff.

    Every member has its own cutoff (the default one scales with its own
    largest singular value), its own rank and, when that rank falls short
    of ``min(d, n)``, its own DEBUG record.  Returns one ``(members, u,
    s, v)`` group per distinct rank, in the order the members first reach
    it: ``members`` indexes the stack, ``slice(None)`` when every member
    has that rank, and ``u``, ``s``, ``v`` stack those members' truncated
    factors.  Each member's factors keep the memory layout of a
    one-member stack's, so a group's broadcasting products give each
    member the bits of its own.
    """
    u, s, v = svd(a)
    shape = a.shape[1:]
    if sv_cutoff is None:
        cutoff = default_sv_cutoff(shape, s[:, 0] if s.shape[1] else np.zeros(len(s)))
    elif sv_cutoff < 0:
        raise ValueError("sv_cutoff must be nonnegative")
    else:
        cutoff = np.full(len(s), float(sv_cutoff))
    ranks = (s > cutoff[:, None]).sum(axis=1).tolist()
    oracle = _ORACLE_WORK.get()
    for member, rank in enumerate(ranks):
        if rank < min(shape):
            _rank_deficient(oracle, shape, rank, float(cutoff[member]))
    vh = _transposed(v)
    distinct = dict.fromkeys(ranks)
    groups = []
    for rank in distinct:
        members = (slice(None) if len(distinct) == 1
                   else [member for member, r in enumerate(ranks) if r == rank])
        groups.append((
            members,
            u[members][..., :rank],
            s[members][..., :rank],
            _transposed(vh[members][..., :rank, :]),
        ))
    return groups


class Factored:
    """A validated data matrix with its truncated SVD, computed on first use.

    ``x`` is a matrix ``(d, n)`` or a stack ``(S, d, n)``.  ``matrix`` is
    always the stack, a matrix being its one-member case, and the solvers
    return results in the form of their input: one vector for a matrix,
    one row per member for a stack.  ``truncated_svd`` is
    ``_truncated_svd(matrix, None)``, the default cutoffs as in
    :func:`min_norm_solve`.  Every solve on one object reuses that one
    factorization, which is what a fresh solve would compute, so the
    results are bit for bit those of solving on the array, and each
    member's those of solving on that member alone.
    """

    def __init__(self, x, name: str = "x"):
        self.matrix, self.stacked = _as_stack(x, name)

    @cached_property
    def truncated_svd(self) -> list[tuple]:
        return _truncated_svd(self.matrix, None)

    def vectors(self, v, name: str) -> np.ndarray:
        """``v`` validated as one vector per member, as an ``(S, k)`` stack."""
        arr = as_vector(v, name, self.stacked)
        if self.stacked and arr.shape[0] != self.matrix.shape[0]:
            raise InvalidMatrixError(
                f"{name} has {arr.shape[0]} members but the stack has {self.matrix.shape[0]}"
            )
        return arr if self.stacked else arr[None]

    def result(self, w: np.ndarray) -> np.ndarray:
        """A ``(S, d)`` stack of solutions, in the form of the input."""
        return w if self.stacked else w[0]


def _as_factored(x, name: str) -> Factored:
    return x if isinstance(x, Factored) else Factored(x, name)


def _one_member(arr: np.ndarray, sv_cutoff: float | None):
    """The truncated factors of one matrix, as 2-D arrays."""
    [(_, u, s, v)] = _truncated_svd(arr[None], sv_cutoff)
    return u[0], s[0], v[0]


def pseudoinverse(a, sv_cutoff: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse via truncated SVD.

    Singular values at or below the cutoff are treated as exact zeros.
    The default cutoff is ``max(rows, cols) * eps * s_max``.
    """
    arr = as_matrix(a)
    u, s, v = _one_member(arr, sv_cutoff)
    if s.size == 0:
        return np.zeros((arr.shape[1], arr.shape[0]))
    return (v / s) @ u.T


def projector(x, sv_cutoff: float | None = None) -> Projector:
    """Orthogonal projector onto the column space of ``x``.

    Computed as ``U_r U_r^T`` from the retained left singular vectors; for
    full-column-rank ``x`` this equals ``X (X^T X)^{-1} X^T``.  For a
    stack ``(S, d, n)`` each member is projected with its own cutoff and
    rank, and gets the bits of its own call.
    """
    arr, stacked = _as_stack(x, "x")
    # Only the left factors are kept, and the output is allocated once the
    # right singular vectors are freed, so the two never coexist.
    groups = [(members, u) for members, u, _, _ in _truncated_svd(arr, sv_cutoff)]
    matrix = np.empty(arr.shape[:2] + arr.shape[1:2])
    rank = np.empty(len(arr), dtype=int)
    for members, u in groups:
        if isinstance(members, slice):
            # In place: a fresh product would double the stack's peak memory.
            np.matmul(u, _transposed(u), out=matrix)
        else:
            matrix[members] = u @ _transposed(u)
        rank[members] = u.shape[-1]
    if stacked:
        return Projector(matrix=matrix, rank=tuple(rank.tolist()))
    return Projector(matrix=matrix[0], rank=int(rank[0]))


def _min_norm(factored: Factored, rhs: np.ndarray) -> np.ndarray:
    """``(X^T)^+ y`` of each member, for ``rhs`` ``(S, n)``; ``(S, d)``.

    Members of one rank are solved by one broadcasting product per step.
    Raises :class:`InconsistentSystemError` with the residual of the
    first member whose residual is above its :func:`consistency_tol`.
    """
    arr = factored.matrix
    w = np.zeros(arr.shape[:2])
    for members, u, s, v in factored.truncated_svd:
        if s.shape[1]:
            # (X^T)^+ = U diag(1/s) V^T from the thin SVD X = U diag(s) V^T.
            coef = (_transposed(v) @ rhs[members][..., None]) / s[..., None]
            w[members] = (u @ coef)[..., 0]
    residual = np.sqrt(squared_norms((_transposed(arr) @ w[..., None])[..., 0] - rhs))
    inconsistent = np.flatnonzero(residual > consistency_tol(rhs))
    if inconsistent.size:
        raise InconsistentSystemError(
            f"system X^T w = y is inconsistent: residual {residual[inconsistent[0]]:.3e}"
        )
    return w


def min_norm_solve(x, y) -> np.ndarray:
    """Minimum-Euclidean-norm solution of ``X^T w = y``.

    Returns ``(X^T)^+ y``, which interpolates the data and lies in the
    column space of ``x``.  ``x`` is an array or a :class:`Factored`
    matrix; for a stack ``(S, d, n)`` with ``y`` ``(S, n)`` each member is
    solved, giving ``(S, d)``.  Raises :class:`InconsistentSystemError`
    when no interpolating solution exists (residual above
    :func:`consistency_tol`).
    """
    factored = _as_factored(x, "x")
    rhs = factored.vectors(y, "y")
    if factored.matrix.shape[2] != rhs.shape[1]:
        raise InvalidMatrixError(
            f"x has {factored.matrix.shape[2]} samples but y has {rhs.shape[1]} entries"
        )
    return factored.result(_min_norm(factored, rhs))


def min_norm_anchor_solve(x_t, y_t, w_o) -> np.ndarray:
    """Interpolating solution of ``X_t^T w = y_t`` nearest to ``w_o``.

    Returns ``w_o + (X_t^T)^+ (y_t - X_t^T w_o)``; with a zero anchor this
    reduces to :func:`min_norm_solve`, and when the anchor already
    interpolates it is returned unchanged up to round-off.  ``x_t`` is an
    array or a :class:`Factored` matrix; for a stack, ``y_t`` and ``w_o``
    hold one row per member.
    """
    factored = _as_factored(x_t, "x_t")
    anchor = factored.vectors(w_o, "w_o")
    arr = factored.matrix
    rhs = factored.vectors(y_t, "y_t")
    if arr.shape[1] != anchor.shape[1]:
        raise InvalidMatrixError(
            f"x_t has {arr.shape[1]} features but w_o has {anchor.shape[1]}"
        )
    if arr.shape[2] != rhs.shape[1]:
        raise InvalidMatrixError(
            f"x_t has {arr.shape[2]} samples but y_t has {rhs.shape[1]} entries"
        )
    shifted = as_vector(rhs - (_transposed(arr) @ anchor[..., None])[..., 0], "y", True)
    try:
        correction = _min_norm(factored, shifted)
    except InconsistentSystemError as exc:
        raise InconsistentSystemError(
            f"anchored system X_t^T w = y_t is inconsistent ({exc})"
        ) from exc
    return factored.result(anchor + correction)


def weighted_seminorm_sq(v, x, n: int):
    """Squared seminorm ``v^T A v`` with ``A = (1/n) X X^T``.

    Equals ``(1/n) ||X^T v||^2``, hence nonnegative, and zero exactly when
    ``v`` is orthogonal to the columns of ``x``.  For a stack ``x``
    ``(S, d, m)`` with ``v`` ``(S, d)``, one value per member, each with
    the bits of its own call.
    """
    arr, stacked = _as_stack(x, "x")
    vec = as_vector(v, "v", stacked)
    vec = vec if stacked else vec[None]
    if n < 1:
        raise ValueError("n must be >= 1")
    if arr.shape[1] != vec.shape[1]:
        raise InvalidMatrixError(
            f"x has {arr.shape[1]} features but v has {vec.shape[1]}"
        )
    if len(arr) != len(vec):
        raise InvalidMatrixError(f"v has {len(vec)} members but the stack has {len(arr)}")
    values = squared_norms((_transposed(arr) @ vec[..., None])[..., 0]) / n
    return values if stacked else float(values[0])


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
