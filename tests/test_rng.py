"""Named random streams: one key per (seed, label), no shared keys."""

import numpy as np
import pytest

from unlearn_lab.rng import stream
from unlearn_lab.scenarios import FeatureLayout, gen_scenario


def _draw(seed):
    return stream(seed, "x_r").random(4)


class TestStream:
    def test_seeds_above_two_to_the_63_do_not_collide(self):
        seeds = [2**63, 2**63 + 1, 2**63 + 2, 2**64 - 2, 2**64 - 1]
        draws = {tuple(_draw(seed)) for seed in seeds}
        assert len(draws) == len(seeds)

    def test_numpy_integer_seed_matches_python_int(self):
        assert np.array_equal(_draw(np.uint64(2**64 - 1)), _draw(2**64 - 1))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_rejected(self, seed):
        with pytest.raises(ValueError):
            stream(seed, "x_r")

    @pytest.mark.parametrize("seed,kind", [(True, "bool"), (False, "bool"), (1.0, "float"),
                                           ("3", "str")])
    def test_a_seed_that_is_not_an_integer_is_rejected(self, seed, kind):
        # bool is an int subclass: True would otherwise draw seed 1's stream.
        with pytest.raises(TypeError, match=f"^seed must be an integer, got {kind}$"):
            stream(seed, "x_r")

    def test_a_bool_seed_generates_no_scenario(self):
        with pytest.raises(TypeError, match="^seed must be an integer, got bool$"):
            gen_scenario(30, 10, FeatureLayout(20, 0, 20), seed=True)
