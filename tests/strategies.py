"""Hypothesis strategies that more than one test module draws from.

Each draws its distinct values distinct by construction, so no draw is
retried or rejected, as a unique-list filter would.
"""

from itertools import accumulate

from hypothesis import strategies as st

SEED_SPAN = 1 << 64


@st.composite
def distinct_integers(draw, span: int, min_size: int, max_size: int):
    """``min_size`` to ``max_size`` distinct integers in ``[0, span)``, in
    any order.

    One base is drawn from the whole range, and each further integer lies
    a positive gap of at most ``span // max_size`` past the previous one,
    modulo ``span``.  The at most ``max_size - 1`` gaps sum to less than
    ``span``, so no two integers can collide.
    """
    base = draw(st.integers(0, span - 1))
    gaps = [draw(st.integers(1, span // max_size))
            for _ in range(draw(st.integers(min_size - 1, max_size - 1)))]
    return draw(st.permutations([(base + offset) % span
                                 for offset in accumulate(gaps, initial=0)]))


def distinct_seeds():
    """2-4 distinct seeds in ``[0, 2^64)``, in any order."""
    return distinct_integers(SEED_SPAN, 2, 4)


@st.composite
def distinct_entries(draw, pool, min_size: int, max_size: int | None = None):
    """``min_size`` to ``max_size`` (at most all) distinct entries of
    ``pool``, in any order: a prefix of a permutation of it."""
    size = draw(st.integers(min_size, min(len(pool), max_size or len(pool))))
    return draw(st.permutations(pool))[:size]
