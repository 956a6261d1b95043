"""Dense linear-algebra kernels for interpolating linear models.

Everything here is built on one primitive: the truncated SVD.  The
pseudoinverse, the orthogonal projector onto a column space, and the
(minimum-norm / anchored minimum-norm) solutions of ``X^T w = y`` are all
derived from it, which keeps rank-deficient inputs well defined and
numerically stable.  Projectors are always formed from retained left
singular vectors, never from the normal-equations formula.

One shape rule holds for every kernel, and this module alone applies
it (:func:`seed_stack`, :func:`seed_vectors`): a matrix argument is
``(d, n)`` or ``(S, d, n)``, and its leading axes, ``()`` or ``(S,)``,
are its seed axes, one member per seed.  Each vector argument carries
the same seed axes, and anchors and weights may add axes in front of
them: the fine-tunes of one prefix from several starts are one call,
which factors the matrix once.  A vector's last axis is as long as the
side of the matrix it meets, ``d`` for weights, anchors and seminorm
vectors and ``n`` for labels.  Any other vector shape raises one
:class:`InvalidMatrixError` message, such as
``y must have shape (4, 30) over x, got (4, 29)``.  A lone matrix is
flattened to a one-member stack before it is factored or multiplied,
the zero-lead case of the one path, and results keep the arguments'
axes: a projector is a plain ``(d, d)`` or ``(S, d, d)`` array, a
seminorm a float or ``(S,)``.  Each member keeps its own cutoff, rank,
consistency check and rank-deficiency record; members of one rank are
solved or projected by one broadcasting product, and members of
another rank as their own sub-stack.  Stacked LAPACK SVDs, matrix
products and row dot products give every member, and every anchor, the
bits of its own call.  The solvers serve the measured pipeline, the
projector and the seminorm the oracle, which factors its own matrices;
the pseudoinverse, which no experiment calls, takes a single matrix.
Nothing is cached: every call validates and factors its own input.
Finite inputs whose solution, residual or seminorm overflows raise
:class:`InvalidMatrixError`, never a numpy warning, and the consistency
check takes its norms scaled, so that finite inputs at any scale get a
decision.

A :class:`RankDeficiencyCount` counts, inside its ``with`` block, the
members of truncated SVDs whose rank falls short of the matrix's
smaller side: the event ``--log-level DEBUG`` shows, counted at every
level and by the side of the kernel that factored them, ``"solvers"``
for the min-norm solves and ``"oracle"`` for the projector and the
pseudoinverse, whoever calls them.  A held block keeps its records
until they are released, so a stack that is dropped and rerun seed by
seed is counted once.

Conventions: a data matrix ``X`` is ``d x n`` (features by samples), the
linear system it induces is ``X^T w = y``, singular values are reported
in descending order, and every factorization retains only the values
strictly greater than its :func:`default_sv_cutoff`.
"""

from __future__ import annotations

import logging
import math
from contextvars import ContextVar

import numpy as np

from .errors import InconsistentSystemError, InvalidMatrixError, SvdFailureError

logger = logging.getLogger(__name__)

# The relative residual bound of the consistency check.
CONSISTENCY_REL_TOL = 1e-8


def consistency_tol(y: np.ndarray):
    """Residual bound under which ``X^T w = y`` counts as consistent:
    ``CONSISTENCY_REL_TOL * (1 + ||y||)``.

    For a stack ``y`` of shape ``(S, n)``, one bound per member.  ``y``
    is scaled by the tolerance before its norm is taken, so the bound of
    any finite ``y`` is finite.
    """
    return CONSISTENCY_REL_TOL + _norms(CONSISTENCY_REL_TOL * y)


def _norms(v: np.ndarray):
    """Euclidean norm of a vector, or of each row of a stack ``(S, n)``.

    Each row is divided by its largest magnitude before it is squared,
    and its norm multiplied by it after, so the squares of finite entries
    at any scale cannot overflow.  Only a norm beyond the float range
    overflows, to ``inf``, with no warning.  A stacked row gives the bits
    of the row alone.
    """
    scale = np.abs(v).max(axis=-1, initial=0.0)
    unit = v / np.where(scale > 0.0, scale, 1.0)[..., None]
    with np.errstate(over="ignore"):
        return scale * np.sqrt(squared_norms(unit))


def squared_norms(v: np.ndarray):
    """``v @ v`` of a vector, or of each row of a stack ``(S, n)``.

    Each row is one BLAS dot product, the one ``v @ v`` computes and
    ``np.linalg.norm(v)`` takes the square root of, so a stacked row gives
    the bits of the row alone.
    """
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _validated(a, name: str, want: str, fits) -> np.ndarray:
    """``a`` as a finite float64 array whose number of axes ``fits``."""
    arr = np.asarray(a, dtype=np.float64)
    if not fits(arr.ndim):
        raise InvalidMatrixError(f"{name} must be {want}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidMatrixError(f"{name} contains non-finite entries")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite float64 matrix ``(d, n)`` or
    a stack ``(S, d, n)`` of them."""
    return _validated(a, name, "2-D, or 3-D for a stack", lambda ndim: ndim in (2, 3))


def seed_stack(x, name: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """A matrix argument, validated by :func:`as_matrix`, as a stack
    ``(S, d, n)``, and its seed axes: ``(S,)``, or ``()`` for a lone
    matrix, which is a one-member stack."""
    arr = as_matrix(x, name)
    return arr.reshape((math.prod(arr.shape[:-2]),) + arr.shape[-2:]), arr.shape[:-2]


def seed_vectors(v, name: str, seeds: tuple[int, ...], length: int, of: str,
                 front: bool = False) -> np.ndarray:
    """A vector argument of the matrix named ``of``, validated as finite
    float64 of shape ``seeds + (length,)``, or with ``front``
    ``(..., *seeds, length)``, and returned as ``(..., S, length)`` like
    :func:`seed_stack`.  A non-finite entry, or a 0-d ``v``, raises
    :class:`InvalidMatrixError` naming ``name``; so does any other shape,
    with one message: ``y must have shape (4, 30) over x, got (4, 29)``."""
    arr = _validated(v, name, "1-D or more", lambda ndim: ndim >= 1)
    lead = arr.shape[:-1]
    extra = len(lead) - len(seeds)
    if extra < 0 or lead[extra:] != seeds or extra and not front or arr.shape[-1] != length:
        want = seeds + (length,)
        want = f"(..., {', '.join(map(str, want))})" if front else str(want)
        raise InvalidMatrixError(f"{name} must have shape {want} over {of}, got {arr.shape}")
    return arr.reshape(lead[:extra] + (math.prod(seeds), length))


def _transposed(a: np.ndarray) -> np.ndarray:
    """Each member's transpose, as a view."""
    return np.swapaxes(a, -1, -2)


def svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``A = U diag(S) V^T`` with descending singular values.

    ``a`` is a matrix ``(d, n)`` or a stack ``(S, d, n)``, whose members
    are factored in one call, each with the bits of its own call.  ``U``
    and ``V`` have orthonormal columns.  Raises
    :class:`InvalidMatrixError` on non-finite input and
    :class:`SvdFailureError` if the iteration does not converge.
    """
    arr = as_matrix(a)
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

    ``counts[side]`` grows by one wherever :func:`_truncated_svd` finds
    a member rank-deficient for ``side``, whatever the log level:
    ``"solvers"`` in the min-norm solves, ``"oracle"`` in
    :func:`projector` and :func:`pseudoinverse`, whoever calls them.  The
    counts live in the caller's object; only the innermost open block counts.

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


def _rank_deficient(side: str, shape: tuple, rank: int, cutoff: float) -> None:
    counting = _RANK_DEFICIENCY_COUNT.get()
    if counting is not None and counting.held is not None:
        counting.held.append((side, shape, rank, cutoff))
        return
    if counting is not None:
        counting.counts[side] += 1
    # Routine for block-structured data (zero feature rows), hence debug.
    logger.debug(
        "rank-deficient matrix: shape %s has rank %d (cutoff %.3e)", shape, rank, cutoff,
    )


def _truncated_svd(a: np.ndarray, side: str) -> list[tuple]:
    """SVD of each member of a stack ``(S, d, n)``, restricted to its
    singular values strictly above its :func:`default_sv_cutoff`.

    Every member has its own cutoff, which scales with its own largest
    singular value, its own rank and, when that rank falls short of
    ``min(d, n)``, its own DEBUG record, counted for ``side``, the
    caller's: ``"solvers"`` or ``"oracle"``.  Returns one ``(members, u,
    s, v)`` group per distinct rank, in the order the members first reach
    it: ``members`` indexes the stack, ``slice(None)`` when every member
    has that rank, and ``u``, ``s``, ``v`` stack those members' truncated
    factors.  Each member's factors keep the memory layout of a
    one-member stack's, so a group's broadcasting products give each
    member the bits of its own.
    """
    u, s, v = svd(a)
    shape = a.shape[1:]
    cutoff = default_sv_cutoff(shape, s[:, 0] if s.shape[1] else np.zeros(len(s)))
    ranks = (s > cutoff[:, None]).sum(axis=1).tolist()
    for member, rank in enumerate(ranks):
        if rank < min(shape):
            _rank_deficient(side, shape, rank, float(cutoff[member]))
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


def pseudoinverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse via truncated SVD.

    Singular values at or below :func:`default_sv_cutoff` are treated as
    exact zeros.
    """
    arr = _validated(a, "matrix", "2-D", lambda ndim: ndim == 2)
    [(_, u, s, v)] = _truncated_svd(arr[None], "oracle")
    if s.shape[1] == 0:
        return np.zeros((arr.shape[1], arr.shape[0]))
    return (v[0] / s[0]) @ u[0].T


def projector(x) -> np.ndarray:
    """Orthogonal projector onto the column space of ``x``.

    Computed as ``U_r U_r^T`` from the retained left singular vectors; for
    full-column-rank ``x`` this equals ``X (X^T X)^{-1} X^T``.  It is
    symmetric and idempotent to within 1e-10 in every entry, and its rank
    is the number of singular values of ``x`` above
    :func:`default_sv_cutoff`.  A matrix ``(d, n)`` gives ``(d, d)``; a
    stack ``(S, d, n)`` gives ``(S, d, d)``, each member projected with
    its own cutoff and rank and with the bits of its own call.
    """
    arr, seeds = seed_stack(x, "x")
    # Only the left factors are kept, and the output is allocated once the
    # right singular vectors are freed, so the two never coexist.
    groups = [(members, u) for members, u, _, _ in _truncated_svd(arr, "oracle")]
    matrix = np.empty(arr.shape[:2] + arr.shape[1:2])
    for members, u in groups:
        if isinstance(members, slice):
            # In place: a fresh product would double the stack's peak memory.
            np.matmul(u, _transposed(u), out=matrix)
        else:
            matrix[members] = u @ _transposed(u)
    return matrix.reshape(seeds + matrix.shape[1:])


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, which finite inputs gave; raises
    :class:`InvalidMatrixError` naming ``what`` if any overflowed."""
    if not np.isfinite(values).all():
        raise InvalidMatrixError(f"{what} overflows")
    return values


def _min_norm(arr: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``(X^T)^+ y`` of each member of the stack ``arr``, for ``rhs``
    ``(..., S, n)``; ``(..., S, d)``.  Factors ``arr`` once, and solves
    members of one rank by one broadcasting product per step.  Raises
    :class:`InvalidMatrixError` when the solution or its residual
    overflows, and :class:`InconsistentSystemError` with the residual of
    the first ``rhs`` vector, in C order, above its
    :func:`consistency_tol`.
    """
    w = np.zeros(rhs.shape[:-1] + arr.shape[1:2])
    # Finite inputs can overflow: the checks raise, not a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for members, u, s, v in _truncated_svd(arr, "solvers"):
            if s.shape[1]:
                # (X^T)^+ = U diag(1/s) V^T from the thin SVD X = U diag(s) V^T.
                coef = (_transposed(v) @ rhs[..., members, :][..., None]) / s[..., None]
                w[..., members, :] = (u @ coef)[..., 0]
        _finite(w, "the solution of X^T w = y")
        miss = _finite((_transposed(arr) @ w[..., None])[..., 0] - rhs,
                       "the residual of X^T w = y")
    residual = _norms(miss)
    inconsistent = np.flatnonzero(residual > consistency_tol(rhs))
    if inconsistent.size:
        raise InconsistentSystemError(
            f"system X^T w = y is inconsistent: residual {residual.flat[inconsistent[0]]:.3e}"
        )
    return w


def min_norm_solve(x, y) -> np.ndarray:
    """Minimum-Euclidean-norm solution of ``X^T w = y``.

    Returns ``(X^T)^+ y``, which interpolates the data and lies in the
    column space of ``x``.  For a stack ``x`` ``(S, d, n)`` with ``y``
    ``(S, n)`` each member is solved, giving ``(S, d)``.  Raises
    :class:`InconsistentSystemError` when no interpolating solution exists
    (residual above :func:`consistency_tol`), and
    :class:`InvalidMatrixError` when finite inputs give a solution that
    overflows, or when ``y`` is not ``(n,)``, or ``(S, n)`` for a stack,
    with the :func:`seed_vectors` message.
    """
    arr, seeds = seed_stack(x, "x")
    rhs = seed_vectors(y, "y", seeds, arr.shape[2], "x")
    return _min_norm(arr, rhs).reshape(seeds + arr.shape[1:2])


def min_norm_anchor_solve(x_t, y_t, w_o) -> np.ndarray:
    """Interpolating solution of ``X_t^T w = y_t`` nearest to ``w_o``.

    Returns ``w_o + (X_t^T)^+ (y_t - X_t^T w_o)``; with a zero anchor this
    reduces to :func:`min_norm_solve`, and when the anchor already
    interpolates it is returned unchanged up to round-off.  For a stack
    ``x_t``, ``y_t`` holds one row per member.  ``w_o`` may have leading
    axes, ``(..., d)`` or ``(..., S, d)`` for a stack: every anchor is
    solved against one factorization of ``x_t``, with the bits of its own
    call, and an inconsistent system raises the error of the first
    anchor that fails.  Finite inputs whose shifted targets or solution
    overflow raise :class:`InvalidMatrixError`, and so do a ``w_o`` and a
    ``y_t`` of any other shape, with the :func:`seed_vectors` message.
    """
    arr, seeds = seed_stack(x_t, "x_t")
    anchor = seed_vectors(w_o, "w_o", seeds, arr.shape[1], "x_t", front=True)
    rhs = seed_vectors(y_t, "y_t", seeds, arr.shape[2], "x_t")
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = _finite(rhs - (_transposed(arr) @ anchor[..., None])[..., 0],
                          "y_t - X_t^T w_o")
    try:
        correction = _min_norm(arr, shifted)
    except InconsistentSystemError as exc:
        raise InconsistentSystemError(
            f"anchored system X_t^T w = y_t is inconsistent ({exc})"
        ) from exc
    with np.errstate(over="ignore"):
        w = _finite(anchor + correction, "the anchored solution")
    return w.reshape(w.shape[:-2] + seeds + w.shape[-1:])


def weighted_seminorm_sq(v, x):
    """Squared seminorm ``v^T A v`` with ``A = (1/n) X X^T``, ``n`` the
    column count of ``x``: its samples.

    Equals ``(1/n) ||X^T v||^2``, hence nonnegative, and zero exactly when
    ``v`` is orthogonal to the columns of ``x``.  For a stack ``x``
    ``(S, d, n)`` with ``v`` ``(S, d)``, one value per member, each with
    the bits of its own call.  A ``v`` of any other shape raises
    :class:`InvalidMatrixError` with the :func:`seed_vectors` message; so
    do an ``x`` without columns and finite inputs whose value overflows.
    """
    arr, seeds = seed_stack(x, "x")
    vec = seed_vectors(v, "v", seeds, arr.shape[1], "x")
    if arr.shape[2] < 1:
        raise InvalidMatrixError("x has no samples")
    # Finite inputs can overflow: the check raises, not a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        values = _finite(squared_norms((_transposed(arr) @ vec[..., None])[..., 0]) / arr.shape[2],
                         "the seminorm of v on x")
    return values if seeds else float(values[0])

