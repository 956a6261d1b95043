"""Tests for block-structured scenario generation."""

import numpy as np
import pytest

from unlearn_lab.errors import LayoutMismatchError, RegimeViolationError
from unlearn_lab.linalg import min_norm_solve, projector
from unlearn_lab.oracle import predict_distinct, predict_edited
from unlearn_lab.scenarios import (
    FeatureLayout,
    decompose_w_star,
    fine_tune_subset,
    gen_scenario,
)
from unlearn_lab.solvers import EditOption, edit_pretrained

from linear_reference import closed_form_wt_distinct

REFERENCE_DISTINCT = FeatureLayout(20, 0, 20)
REFERENCE_OVERLAP = FeatureLayout(16, 8, 16)


class TestFeatureLayout:
    def test_blocks_partition_the_coordinates(self):
        layout = FeatureLayout(3, 2, 4)
        assert layout.d == 9
        assert layout.remaining_block == slice(0, 3)
        assert layout.overlap_block == slice(3, 5)
        assert layout.forgetting_block == slice(5, 9)

    def test_no_overlap_flag(self):
        assert FeatureLayout(4, 0, 4).is_distinct
        assert not FeatureLayout(4, 1, 4).is_distinct

    def test_one_distinct_guard_names_each_operation(self):
        FeatureLayout(4, 0, 4).require_distinct("any operation")
        s = gen_scenario(30, 10, REFERENCE_OVERLAP, seed=0)
        zero_forget = EditOption.DISTINCT_ZERO_FORGET
        calls = {
            "the distinct-zero-forget edit": lambda: edit_pretrained(
                np.zeros(s.d), s.layout, zero_forget),
            "the distinct closed form": lambda: closed_form_wt_distinct(s, 5),
            "the distinct prediction": lambda: predict_distinct(s),
            "the distinct-zero-forget prediction": lambda: predict_edited(s, [zero_forget], [5]),
        }
        for operation, call in calls.items():
            with pytest.raises(LayoutMismatchError,
                               match=f"^{operation} requires d_lap = 0, got d_lap = 8$"):
                call()

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            FeatureLayout(3, -1, 4)


class TestGenScenario:
    def test_reference_distinct_geometry(self):
        s = gen_scenario(30, 10, REFERENCE_DISTINCT, seed=7)
        assert s.d == 40 and s.n_r + s.n_f == 40
        assert s.x_r.shape == (40, 30) and s.x_f.shape == (40, 10)
        # Forgetting data touches none of the first 20 coordinates.
        assert np.all(s.x_f[:20] == 0.0)
        assert np.all(s.x_r[20:] == 0.0)

    def test_reference_overlap_geometry(self):
        s = gen_scenario(30, 10, REFERENCE_OVERLAP, seed=7)
        assert s.d == 40
        assert np.all(s.x_f[:16] == 0.0)
        assert np.all(s.x_r[24:] == 0.0)
        assert np.any(s.x_r[16:24] != 0.0)
        assert np.any(s.x_f[16:24] != 0.0)

    def test_labels_are_exact_products(self):
        s = gen_scenario(12, 4, FeatureLayout(8, 2, 8), seed=3)
        np.testing.assert_array_equal(s.y_r, s.x_r.T @ s.w_star)
        np.testing.assert_array_equal(s.y_f, s.x_f.T @ s.w_star)

    def test_distinct_blocks_make_projectors_additive(self):
        s = gen_scenario(10, 5, FeatureLayout(9, 0, 9), seed=5)
        x, _ = s.joint_data()
        p = projector(x)
        p_r = projector(s.x_r)
        p_f = projector(s.x_f)
        assert np.max(np.abs(p - (p_r + p_f))) <= 1e-9

    def test_reproducible_bit_for_bit(self):
        a = gen_scenario(10, 5, FeatureLayout(8, 4, 8), seed=42)
        b = gen_scenario(10, 5, FeatureLayout(8, 4, 8), seed=42)
        np.testing.assert_array_equal(a.x_r, b.x_r)
        np.testing.assert_array_equal(a.x_f, b.x_f)
        np.testing.assert_array_equal(a.w_star, b.w_star)

    def test_streams_do_not_leak_across_blocks(self):
        # The true weights come from their own stream, so reshaping the
        # data blocks (same total d) must not change them.
        a = gen_scenario(30, 10, REFERENCE_DISTINCT, seed=11)
        b = gen_scenario(30, 10, REFERENCE_OVERLAP, seed=11)
        np.testing.assert_array_equal(a.w_star, b.w_star)

    def test_seeds_differ(self):
        a = gen_scenario(10, 5, FeatureLayout(8, 0, 8), seed=0)
        b = gen_scenario(10, 5, FeatureLayout(8, 0, 8), seed=1)
        assert np.any(a.x_r != b.x_r)

    def test_generated_system_is_consistent(self):
        for seed in range(5):
            s = gen_scenario(14, 6, FeatureLayout(10, 4, 10), seed=seed)
            x, y = s.joint_data()
            w = min_norm_solve(x, y)
            assert np.linalg.norm(x.T @ w - y) <= 1e-10

    def test_too_many_samples_rejected(self):
        with pytest.raises(RegimeViolationError):
            gen_scenario(30, 11, REFERENCE_DISTINCT, seed=0)

    def test_full_span_allowed(self):
        # n = d is the reference geometry and must be accepted.
        s = gen_scenario(30, 10, REFERENCE_DISTINCT, seed=0)
        assert s.n_r + s.n_f == s.d

    def test_uniform_dist_tag(self):
        s = gen_scenario(10, 5, FeatureLayout(8, 0, 8), seed=2, dist="uniform")
        nonzero = s.x_r[:8]
        assert np.all(np.abs(nonzero) <= 1.0)

    def test_unknown_dist_rejected(self):
        with pytest.raises(ValueError):
            gen_scenario(10, 5, FeatureLayout(8, 0, 8), seed=2, dist="cauchy")

    def test_empty_sides_rejected(self):
        with pytest.raises(ValueError):
            gen_scenario(0, 5, FeatureLayout(8, 0, 8), seed=2)


class TestDistinctLabelFidelity:
    def test_labels_depend_only_on_own_block_when_distinct(self):
        s = gen_scenario(12, 6, FeatureLayout(10, 0, 10), seed=9)
        w_r, _, w_f = decompose_w_star(s)
        np.testing.assert_array_equal(s.y_r, s.x_r.T @ w_r)
        np.testing.assert_array_equal(s.y_f, s.x_f.T @ w_f)


class TestDecomposeWStar:
    def test_parts_sum_exactly(self):
        s = gen_scenario(12, 6, FeatureLayout(9, 3, 9), seed=1)
        w_r, w_lap, w_f = decompose_w_star(s)
        np.testing.assert_array_equal(w_r + w_lap + w_f, s.w_star)

    def test_disjoint_supports(self):
        s = gen_scenario(12, 6, FeatureLayout(9, 3, 9), seed=1)
        w_r, w_lap, w_f = decompose_w_star(s)
        assert np.all(w_r[9:] == 0.0)
        assert np.all(w_lap[:9] == 0.0)
        assert np.all(w_lap[12:] == 0.0)
        assert np.all(w_f[:12] == 0.0)

    def test_empty_overlap_part_is_zero(self):
        s = gen_scenario(12, 6, FeatureLayout(10, 0, 10), seed=2)
        assert np.all(decompose_w_star(s)[1] == 0.0)

    def test_zero_weights_give_zero_parts(self):
        s = gen_scenario(12, 6, FeatureLayout(9, 3, 9), seed=2)
        zeroed = type(s)(
            layout=s.layout, x_r=s.x_r, x_f=s.x_f,
            y_r=np.zeros(s.n_r), y_f=np.zeros(s.n_f),
            w_star=np.zeros(s.d),
        )
        w_r, w_lap, w_f = decompose_w_star(zeroed)
        assert np.all(w_r == 0.0)
        assert np.all(w_lap == 0.0)
        assert np.all(w_f == 0.0)

    def test_cross_products_vanish_exactly(self):
        s = gen_scenario(12, 6, FeatureLayout(9, 3, 9), seed=4)
        w_r, _, w_f = decompose_w_star(s)
        np.testing.assert_array_equal(s.x_f.T @ w_r, np.zeros(s.n_f))
        np.testing.assert_array_equal(s.x_r.T @ w_f, np.zeros(s.n_r))


class TestFineTuneSubset:
    def test_full_subset_is_remaining_set(self):
        s = gen_scenario(10, 5, FeatureLayout(8, 0, 8), seed=3)
        x_t, y_t = fine_tune_subset(s, 10)
        np.testing.assert_array_equal(x_t, s.x_r)
        np.testing.assert_array_equal(y_t, s.y_r)

    def test_minimal_subset(self):
        s = gen_scenario(10, 5, FeatureLayout(8, 0, 8), seed=3)
        x_t, y_t = fine_tune_subset(s, 1)
        assert x_t.shape == (16, 1) and y_t.shape == (1,)
        np.testing.assert_array_equal(x_t[:, 0], s.x_r[:, 0])

    def test_prefix_keeps_block_zeros(self):
        s = gen_scenario(30, 10, REFERENCE_DISTINCT, seed=7)
        x_t, _ = fine_tune_subset(s, 15)
        assert x_t.shape == (40, 15)
        assert np.all(x_t[20:] == 0.0)

    @pytest.mark.parametrize("n_t", [0, -1, 11])
    def test_out_of_range_rejected(self, n_t):
        s = gen_scenario(10, 5, FeatureLayout(8, 0, 8), seed=3)
        with pytest.raises(ValueError):
            fine_tune_subset(s, n_t)

