"""Synthetic interpolating-regression scenarios with block feature structure.

A scenario partitions the ``d`` feature coordinates into three contiguous
blocks: remaining-only, overlapping, and forgetting-only.  The remaining
data matrix is nonzero only on the first two blocks, the forgetting data
matrix only on the last two, and labels are generated noiselessly from a
dense ground-truth weight vector.  With an empty overlap block the two
sample sets touch disjoint coordinates.

Generation is reproducible: each block (remaining features, the two
overlap slabs, forgetting features, ground-truth weights) is drawn from
its own named random stream, so block shapes and generation order never
interact.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import rng
from .errors import RegimeViolationError
from .linalg import as_matrix, as_vector

DIST_TAGS = ("standard-normal", "uniform")
# The arrays of a scenario, which a stack of scenarios stacks.
_ARRAYS = ("x_r", "x_f", "y_r", "y_f", "w_star")


@dataclass(frozen=True)
class FeatureLayout:
    """Sizes of the remaining-only / overlapping / forgetting-only blocks."""

    d_r: int
    d_lap: int
    d_f: int

    def __post_init__(self):
        for name in ("d_r", "d_lap", "d_f"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")

    @property
    def d(self) -> int:
        return self.d_r + self.d_lap + self.d_f

    @property
    def is_distinct(self) -> bool:
        """True when there is no overlap block."""
        return self.d_lap == 0

    @property
    def remaining_block(self) -> slice:
        return slice(0, self.d_r)

    @property
    def overlap_block(self) -> slice:
        return slice(self.d_r, self.d_r + self.d_lap)

    @property
    def forgetting_block(self) -> slice:
        return slice(self.d_r + self.d_lap, self.d)


@dataclass(frozen=True, eq=False)
class SyntheticScenario:
    """Generated data matrices, noiseless labels, and the true weights.

    ``x_r`` is ``d x n_r`` and ``x_f`` is ``d x n_f`` (features by
    samples); ``y_r = x_r^T w_star`` and ``y_f = x_f^T w_star`` hold by
    construction.  A stack of scenarios (:func:`stack_scenarios`) has the
    same fields with a leading seed axis on every array, and ``seed``
    holds the members' seeds.
    """

    layout: FeatureLayout
    x_r: np.ndarray = field(repr=False)
    x_f: np.ndarray = field(repr=False)
    y_r: np.ndarray = field(repr=False)
    y_f: np.ndarray = field(repr=False)
    w_star: np.ndarray = field(repr=False)
    seed: int | tuple[int, ...]
    dist: str = "standard-normal"

    @property
    def stacked(self) -> bool:
        """True for a stack of scenarios, one member per seed."""
        return isinstance(self.seed, tuple)

    @property
    def d(self) -> int:
        return self.layout.d

    @property
    def n_r(self) -> int:
        return self.x_r.shape[-1]

    @property
    def n_f(self) -> int:
        return self.x_f.shape[-1]

    @property
    def n(self) -> int:
        return self.n_r + self.n_f

    @cached_property
    def checked_data(self) -> tuple[np.ndarray, ...]:
        """``(x_r, y_r, x_f, y_f)`` validated as finite float64 arrays.

        Validated once per scenario object: a measurement pass reads the
        same data for every model it measures.
        """
        stacked = np.ndim(self.x_r) == 3
        return (as_matrix(self.x_r, "x_r", stacked), as_vector(self.y_r, "y_r", stacked),
                as_matrix(self.x_f, "x_f", stacked), as_vector(self.y_f, "y_f", stacked))

    def joint_data(self) -> tuple[np.ndarray, np.ndarray]:
        """Full training set: remaining columns followed by forgetting columns."""
        return (
            np.concatenate([self.x_r, self.x_f], axis=-1),
            np.concatenate([self.y_r, self.y_f], axis=-1),
        )


@dataclass(frozen=True, eq=False)
class WStarDecomposition:
    """Split of the true weights onto the three coordinate blocks.

    Each part is a full-length vector supported on its own block, and the
    three parts sum to ``w_star`` exactly.
    """

    w_r: np.ndarray = field(repr=False)
    w_lap: np.ndarray = field(repr=False)
    w_f: np.ndarray = field(repr=False)


def _draw(seed: int, label: str, shape: tuple[int, ...], dist: str) -> np.ndarray:
    gen = rng.stream(seed, label)
    if dist == "standard-normal":
        return gen.standard_normal(shape)
    if dist == "uniform":
        return gen.uniform(-1.0, 1.0, shape)
    raise ValueError(f"unknown dist tag {dist!r}; expected one of {DIST_TAGS}")


def gen_scenario(
    n_r: int,
    n_f: int,
    layout: FeatureLayout,
    seed: int,
    dist: str = "standard-normal",
) -> SyntheticScenario:
    """Generate a reproducible block-structured scenario.

    Requires ``n_r + n_f <= d`` so that the joint system stays
    interpolable; larger sample counts raise
    :class:`RegimeViolationError`.  Nonzero blocks and the true weight
    vector are i.i.d. draws from ``dist`` (standard normal by default),
    and labels are exact products with no added noise.
    """
    if n_r < 1 or n_f < 1:
        raise ValueError("n_r and n_f must both be >= 1")
    if dist not in DIST_TAGS:
        raise ValueError(f"unknown dist tag {dist!r}; expected one of {DIST_TAGS}")
    d = layout.d
    if n_r + n_f > d:
        raise RegimeViolationError(
            f"n = {n_r + n_f} samples exceed d = {d} features; "
            "the joint system would no longer be interpolable"
        )

    remaining = _draw(seed, "remaining-features", (layout.d_r, n_r), dist)
    lap_r = _draw(seed, "overlap-remaining", (layout.d_lap, n_r), dist)
    lap_f = _draw(seed, "overlap-forgetting", (layout.d_lap, n_f), dist)
    forgetting = _draw(seed, "forgetting-features", (layout.d_f, n_f), dist)
    w_star = _draw(seed, "w-star", (d,), dist)

    x_r = np.zeros((d, n_r))
    x_r[layout.remaining_block] = remaining
    x_r[layout.overlap_block] = lap_r
    x_f = np.zeros((d, n_f))
    x_f[layout.overlap_block] = lap_f
    x_f[layout.forgetting_block] = forgetting

    return SyntheticScenario(
        layout=layout,
        x_r=x_r,
        x_f=x_f,
        y_r=x_r.T @ w_star,
        y_f=x_f.T @ w_star,
        w_star=w_star,
        seed=int(seed),
        dist=dist,
    )


def stack_scenarios(scenarios: Sequence[SyntheticScenario]) -> SyntheticScenario:
    """One scenario whose arrays stack those of ``scenarios`` along a
    leading seed axis; they must share one layout and distribution.

    Each member of a stacked array is a C-ordered copy of its scenario's,
    so a solver sees the memory layout of that scenario alone.
    """
    first = scenarios[0]
    if any((s.layout, s.dist) != (first.layout, first.dist) for s in scenarios):
        raise ValueError("stacked scenarios must share one layout and distribution")
    return SyntheticScenario(
        layout=first.layout,
        **{name: np.stack([getattr(s, name) for s in scenarios]) for name in _ARRAYS},
        seed=tuple(s.seed for s in scenarios),
        dist=first.dist,
    )


def as_stack(scenario: SyntheticScenario) -> SyntheticScenario:
    """``scenario`` if it is a stack, else its one-member stack, whose
    arrays are views of its own."""
    if scenario.stacked:
        return scenario
    return replace(scenario, **{name: getattr(scenario, name)[None] for name in _ARRAYS},
                   seed=(scenario.seed,))


def decompose_w_star(scenario: SyntheticScenario) -> WStarDecomposition:
    """Coordinate-mask split of the true weights by layout block (of each
    member's, for a stack, with parts ``(S, d)``)."""
    layout = scenario.layout
    parts = []
    for block in (layout.remaining_block, layout.overlap_block, layout.forgetting_block):
        part = np.zeros(scenario.w_star.shape)
        part[..., block] = scenario.w_star[..., block]
        parts.append(part)
    return WStarDecomposition(w_r=parts[0], w_lap=parts[1], w_f=parts[2])


def fine_tune_subset(scenario: SyntheticScenario, n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``n_t`` remaining samples and their labels, in order (of
    each member, for a stack)."""
    if not 1 <= n_t <= scenario.n_r:
        raise ValueError(f"n_t must be in [1, {scenario.n_r}], got {n_t}")
    return scenario.x_r[..., :n_t], scenario.y_r[..., :n_t]

