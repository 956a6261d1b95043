"""Hypothesis strategies that more than one test module draws from."""

from itertools import accumulate

from hypothesis import strategies as st

SEED_SPAN = 1 << 64


@st.composite
def distinct_seeds(draw):
    """2-4 distinct seeds in ``[0, 2^64)``, in any order.

    One base is drawn from the whole range, and each further seed lies a
    positive gap of at most ``2^62`` past the previous one, modulo
    ``2^64``.  Three gaps sum to less than ``2^64``, so no two seeds can
    collide and no draw is rejected, as a unique-list filter would.
    """
    base = draw(st.integers(0, SEED_SPAN - 1))
    gaps = [draw(st.integers(1, SEED_SPAN // 4)) for _ in range(draw(st.integers(1, 3)))]
    return draw(st.permutations([(base + offset) % SEED_SPAN
                                 for offset in accumulate(gaps, initial=0)]))
