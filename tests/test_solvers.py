"""Tests for the training/fine-tuning/retraining/editing procedures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearn_lab import linalg
from unlearn_lab.errors import InconsistentSystemError, LayoutMismatchError
from unlearn_lab.linalg import min_norm_anchor_solve, min_norm_solve, projector
from unlearn_lab.metrics import measure_losses
from unlearn_lab.scenarios import (
    FeatureLayout,
    SyntheticScenario,
    decompose_w_star,
    fine_tune_subset,
    gen_scenario,
    stack_scenarios,
)
from unlearn_lab.solvers import (
    EditOption,
    edit_pretrained,
    fine_tune_unlearn,
    retrain_golden,
    train_original,
)

from linear_reference import closed_form_wt_distinct, gradient_descent_solve

DISTINCT = FeatureLayout(20, 0, 20)
OVERLAP = FeatureLayout(16, 8, 16)


class TestTrainOriginal:
    def test_full_span_recovers_true_weights(self):
        # Square full-rank joint data pins the interpolant to the truth;
        # this needs n_r = d_r and n_f = d_f so neither block is thin.
        s = gen_scenario(10, 10, FeatureLayout(10, 0, 10), seed=7)
        w_o = train_original(s)
        np.testing.assert_allclose(w_o, s.w_star, atol=1e-8)

    def test_interpolates_joint_data(self):
        s = gen_scenario(30, 10, OVERLAP, seed=7)
        w_o = train_original(s)
        x, y = s.joint_data()
        assert np.linalg.norm(x.T @ w_o - y) < 1e-10

    def test_equals_projected_true_weights(self):
        s = gen_scenario(14, 6, FeatureLayout(12, 4, 12), seed=2)
        w_o = train_original(s)
        x, _ = s.joint_data()
        p = projector(x)
        assert np.max(np.abs(w_o - p @ s.w_star)) <= 1e-9

    def test_distinct_layout_block_decomposition(self):
        s = gen_scenario(12, 6, FeatureLayout(10, 0, 10), seed=3)
        w_o = train_original(s)
        parts = decompose_w_star(s)
        p_r = projector(s.x_r)
        p_f = projector(s.x_f)
        assert np.max(np.abs(w_o - (p_r @ parts.w_r + p_f @ parts.w_f))) <= 1e-9


class TestFineTuneUnlearn:
    def test_full_remaining_set_distinct_is_noop(self):
        s = gen_scenario(30, 10, DISTINCT, seed=7)
        w_o = train_original(s)
        w_t = fine_tune_unlearn(w_o, s.x_r, s.y_r)
        assert np.max(np.abs(w_t - w_o)) < 1e-10

    def test_already_consistent_anchor_is_noop(self):
        s = gen_scenario(14, 6, FeatureLayout(12, 4, 12), seed=4)
        w_o = train_original(s)
        x_t, y_t = fine_tune_subset(s, 5)
        w_t = fine_tune_unlearn(w_o, x_t, y_t)
        assert np.max(np.abs(w_t - w_o)) < 1e-10

    def test_remaining_loss_vanishes_any_overlap(self):
        s = gen_scenario(30, 10, OVERLAP, seed=9)
        w_o = train_original(s)
        for n_t in (1, 7, 15, 29):
            x_t, y_t = fine_tune_subset(s, n_t)
            w_t = fine_tune_unlearn(w_o, x_t, y_t)
            assert np.linalg.norm(s.x_r.T @ w_t - s.y_r) < 1e-8

    def test_projection_identity(self):
        # w_t= (I - P_t) w_o + P_t * min-norm interpolant of the subset.
        s = gen_scenario(16, 8, FeatureLayout(14, 4, 14), seed=5)
        w_o = train_original(s)
        for n_t in (1, 6, 12):
            x_t, y_t = fine_tune_subset(s, n_t)
            w_t = fine_tune_unlearn(w_o, x_t, y_t)
            p_t = projector(x_t)
            direct = (np.eye(s.d) - p_t) @ w_o + p_t @ min_norm_solve(x_t, y_t)
            assert np.max(np.abs(w_t - direct)) <= 1e-9

    def test_matches_gradient_descent_from_anchor(self):
        # An edited anchor violates the subset constraints, so descent
        # has real work to do; it must land on the anchored solution.
        s = gen_scenario(16, 8, FeatureLayout(14, 4, 14), seed=6)
        w_o = train_original(s)
        edited = edit_pretrained(w_o, s.layout, EditOption.OVERLAP_DISCARD)
        x_t, y_t = fine_tune_subset(s, 8)
        w_closed = fine_tune_unlearn(edited, x_t, y_t)
        w_gd = gradient_descent_solve(x_t, y_t, w0=edited, iters=60_000, stop_tol=1e-14)
        assert np.max(np.abs(w_closed - w_gd)) < 1e-6


class TestAnchorStack:
    """All the starts of a prefix fine-tune in one call, each with the bits
    of its own call."""

    @staticmethod
    def _anchors(s):
        w_o = train_original(s)
        options = [EditOption.OVERLAP_RETAIN, EditOption.OVERLAP_DISCARD]
        if s.layout.is_distinct:
            options.append(EditOption.DISTINCT_ZERO_FORGET)
        rng = np.random.default_rng(11)
        return np.stack(
            [w_o, np.zeros(s.layout.d), rng.standard_normal(s.layout.d)]
            + [edit_pretrained(w_o, s.layout, option) for option in options]
        )

    @pytest.mark.parametrize("dist", ["standard-normal", "uniform"])
    @pytest.mark.parametrize("layout", [DISTINCT, OVERLAP], ids=["distinct", "overlap"])
    def test_every_prefix_and_anchor_is_bit_identical(self, layout, dist):
        s = gen_scenario(30, 10, layout, seed=3, dist=dist)
        anchors = self._anchors(s)
        kept = layout.d_r + layout.d_lap
        for n_t in range(1, s.n_r):
            x_t, y_t = fine_tune_subset(s, n_t)
            shared = fine_tune_unlearn(anchors, x_t, y_t)
            assert shared.shape == anchors.shape
            for anchor, w_t in zip(anchors, shared):
                assert np.array_equal(w_t, min_norm_anchor_solve(x_t, y_t, anchor))
            # Prefixes wider than the kept blocks are rank-deficient.
            [(_, _, s_t, _)] = linalg._truncated_svd(x_t[None], "solvers")
            assert s_t.shape == (1, min(n_t, kept))

    @pytest.mark.parametrize("layout", [DISTINCT, OVERLAP], ids=["distinct", "overlap"])
    def test_an_inconsistent_prefix_raises_the_first_failing_anchors_error(self, layout):
        s = gen_scenario(30, 10, layout, seed=3)
        n_t = layout.d_r + layout.d_lap + 3
        x_t, y_t = fine_tune_subset(s, n_t)
        # A rank-deficient prefix cannot fit labels with a generic offset.
        y_bad = y_t + 1e-3 * np.random.default_rng(5).standard_normal(n_t)
        w_o = train_original(s)
        # A huge anchor raises its own consistency bound above the offset's
        # residual, so it passes alone; the anchors after it fail.
        huge = 1e9 * np.random.default_rng(6).standard_normal(layout.d)
        min_norm_anchor_solve(x_t, y_bad, huge)
        with pytest.raises(InconsistentSystemError) as alone:
            min_norm_anchor_solve(x_t, y_bad, w_o)
        with pytest.raises(InconsistentSystemError) as shared:
            min_norm_anchor_solve(x_t, y_bad, np.stack([huge, w_o, np.zeros(layout.d)]))
        assert str(shared.value) == str(alone.value)
        assert np.array_equal(min_norm_anchor_solve(x_t, y_t, np.stack([huge, w_o]))[1],
                              min_norm_anchor_solve(x_t, y_t, w_o))


@st.composite
def _anchored_stacks(draw):
    """Scenarios ``(S, d, n)`` of ragged ranks, with 1-4 anchors per member,
    ``(E, S, d)``.  Each member's first rows are zero, so its rank is at
    most the rows left, and some members have two equal columns."""
    members, d, n, m = (draw(st.integers(1, 4)), draw(st.integers(1, 8)),
                        draw(st.integers(1, 8)), draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x_r, x_f = rng.standard_normal((members, d, n)), rng.standard_normal((members, d, m))
    for member in x_r:
        member[:draw(st.integers(0, d - 1))] = 0.0
        if n > 1 and draw(st.booleans()):
            member[:, 1] = member[:, 0]
    w_star = rng.standard_normal((members, d))
    scenarios = [
        SyntheticScenario(FeatureLayout(d, 0, 0), x_r=x_r[i], x_f=x_f[i], y_r=x_r[i].T @ w_star[i],
                          y_f=x_f[i].T @ w_star[i], w_star=w_star[i])
        for i in range(members)
    ]
    return scenarios, rng.standard_normal((draw(st.integers(1, 4)), members, d))


@settings(max_examples=80, deadline=None)
@given(_anchored_stacks())
def test_one_call_fine_tunes_and_measures_every_anchor_of_every_member_as_alone(case):
    scenarios, anchors = case
    stack = stack_scenarios(scenarios)
    w = fine_tune_unlearn(anchors, stack.x_r, stack.y_r)
    assert w.shape == anchors.shape
    rl, ul = measure_losses(w, stack)
    assert np.shape(rl) == np.shape(ul) == anchors.shape[:2]
    for e, i in np.ndindex(anchors.shape[:2]):
        s = scenarios[i]
        alone = fine_tune_unlearn(anchors[e, i], s.x_r, s.y_r)
        assert np.array_equal(w[e, i], alone)
        assert (rl[e, i], ul[e, i]) == measure_losses(alone, s)


class TestStackedScenarios:
    """A stack of scenarios trains, retrains, edits and measures each member alone."""

    @pytest.mark.parametrize("layout", [DISTINCT, OVERLAP], ids=["distinct", "overlap"])
    def test_each_member_gets_the_bits_of_its_own_pipeline(self, layout):
        scenarios = [gen_scenario(30, 10, layout, seed) for seed in (0, 4, 9)]
        stack = stack_scenarios(scenarios)
        assert (stack.n_r, stack.n_f) == (30, 10)
        w_o, w_g = train_original(stack), retrain_golden(stack)
        edited = edit_pretrained(w_o, layout, EditOption.OVERLAP_DISCARD)
        x_t, y_t = fine_tune_subset(stack, 12)
        w_t = fine_tune_unlearn(edited, x_t, y_t)
        rl, ul = measure_losses(w_t, stack)
        for i, s in enumerate(scenarios):
            alone = train_original(s)
            assert np.array_equal(w_o[i], alone)
            assert np.array_equal(w_g[i], retrain_golden(s))
            assert np.array_equal(
                edited[i], edit_pretrained(alone, layout, EditOption.OVERLAP_DISCARD))
            assert np.array_equal(w_t[i], fine_tune_unlearn(edited[i], *fine_tune_subset(s, 12)))
            assert (rl[i], ul[i]) == measure_losses(w_t[i], s)

    def test_the_stacked_arrays_are_read_only_and_their_members_are_not(self):
        # A run's solvers and oracle read one stack; neither may write it.
        scenarios = [gen_scenario(30, 10, OVERLAP, seed) for seed in (0, 4)]
        stack = stack_scenarios(scenarios)
        with pytest.raises(ValueError, match="read-only"):
            fine_tune_subset(stack, 3)[0][...] = 1.0
        for name in ("x_r", "x_f", "y_r", "y_f", "w_star"):
            stacked, member = getattr(stack, name), getattr(scenarios[1], name)
            with pytest.raises(ValueError, match="read-only"):
                stacked[..., 0] = 1.0
            # gen_scenario's arrays stay writable, and the stack is a copy.
            member[..., 0] = 7.0
            assert not np.any(stacked[1, ..., 0] == 7.0)

    def test_members_must_share_one_layout(self):
        with pytest.raises(ValueError, match="one layout"):
            stack_scenarios([gen_scenario(30, 10, DISTINCT, 0), gen_scenario(30, 10, OVERLAP, 0)])


class TestRetrainGolden:
    def test_constraint_satisfaction(self):
        s = gen_scenario(30, 10, OVERLAP, seed=7)
        w_g = retrain_golden(s)
        assert np.linalg.norm(s.x_r.T @ w_g - s.y_r) < 1e-10

    def test_equals_projected_kept_weights(self):
        s = gen_scenario(18, 8, FeatureLayout(14, 6, 14), seed=8)
        w_g = retrain_golden(s)
        parts = decompose_w_star(s)
        p_r = projector(s.x_r)
        assert np.max(np.abs(w_g - p_r @ (parts.w_r + parts.w_lap))) <= 1e-9

    def test_distinct_layout_uses_remaining_weights_only(self):
        s = gen_scenario(12, 6, FeatureLayout(10, 0, 10), seed=9)
        w_g = retrain_golden(s)
        parts = decompose_w_star(s)
        p_r = projector(s.x_r)
        assert np.max(np.abs(w_g - p_r @ parts.w_r)) <= 1e-9

    def test_determined_remaining_subsystem(self):
        # n_r = d_r with full-rank remaining features pins the remaining
        # block of the golden model to the true weights.
        s = gen_scenario(10, 5, FeatureLayout(10, 0, 10), seed=10)
        w_g = retrain_golden(s)
        np.testing.assert_allclose(w_g[:10], s.w_star[:10], atol=1e-9)

    def test_golden_model_keeps_forgetting_loss(self):
        # The golden model does not interpolate the forgetting labels.
        s = gen_scenario(30, 10, DISTINCT, seed=11)
        w_g = retrain_golden(s)
        assert np.linalg.norm(s.x_f.T @ w_g - s.y_f) > 1e-3


class TestEditPretrained:
    def test_zero_forget_block_unchanged(self):
        layout = FeatureLayout(3, 0, 2)
        w_o = np.array([1.0, -2.0, 3.0, 0.0, 0.0])
        out = edit_pretrained(w_o, layout, EditOption.DISTINCT_ZERO_FORGET)
        np.testing.assert_array_equal(out, w_o)

    def test_retain_and_discard_coincide_without_overlap(self):
        layout = FeatureLayout(3, 0, 2)
        w_o = np.array([1.0, -2.0, 3.0, 4.0, 5.0])
        a = edit_pretrained(w_o, layout, EditOption.OVERLAP_RETAIN)
        b = edit_pretrained(w_o, layout, EditOption.OVERLAP_DISCARD)
        np.testing.assert_array_equal(a, b)

    def test_reference_overlap_indexing(self):
        s = gen_scenario(30, 10, OVERLAP, seed=7)
        w_o = train_original(s)
        out = edit_pretrained(w_o, s.layout, EditOption.OVERLAP_RETAIN)
        np.testing.assert_array_equal(out[:24], w_o[:24])
        assert np.all(out[24:] == 0.0)
        out = edit_pretrained(w_o, s.layout, EditOption.OVERLAP_DISCARD)
        np.testing.assert_array_equal(out[:16], w_o[:16])
        assert np.all(out[16:] == 0.0)

    def test_idempotent(self):
        layout = FeatureLayout(2, 2, 2)
        w_o = np.arange(6, dtype=float)
        once = edit_pretrained(w_o, layout, EditOption.OVERLAP_RETAIN)
        twice = edit_pretrained(once, layout, EditOption.OVERLAP_RETAIN)
        np.testing.assert_array_equal(once, twice)

    def test_commutes_with_scaling(self):
        layout = FeatureLayout(2, 2, 2)
        w_o = np.arange(6, dtype=float)
        a = edit_pretrained(3.5 * w_o, layout, EditOption.OVERLAP_DISCARD)
        b = 3.5 * edit_pretrained(w_o, layout, EditOption.OVERLAP_DISCARD)
        np.testing.assert_array_equal(a, b)

    def test_distinct_option_needs_empty_overlap(self):
        with pytest.raises(LayoutMismatchError):
            edit_pretrained(np.zeros(6), FeatureLayout(2, 2, 2),
                            EditOption.DISTINCT_ZERO_FORGET)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(LayoutMismatchError):
            edit_pretrained(np.zeros(5), FeatureLayout(2, 2, 2),
                            EditOption.OVERLAP_RETAIN)

    def test_any_leading_axes_edit_each_start_alone(self):
        starts = np.random.default_rng(2).standard_normal((2, 3, 40))
        edited = edit_pretrained(starts, DISTINCT, EditOption.OVERLAP_RETAIN)
        assert edited.shape == starts.shape
        for index in np.ndindex(2, 3):
            assert np.array_equal(
                edited[index], edit_pretrained(starts[index], DISTINCT, EditOption.OVERLAP_RETAIN))
        with pytest.raises(LayoutMismatchError, match=r"shape \(2, 3, 39\) but the layout has d = 40"):
            edit_pretrained(starts[..., :39], DISTINCT, EditOption.OVERLAP_RETAIN)


class TestClosedFormDistinct:
    def test_matches_fine_tuning_across_subset_sizes(self):
        s = gen_scenario(30, 10, DISTINCT, seed=12)
        w_o = train_original(s)
        for n_t in range(1, 30, 4):
            x_t, y_t = fine_tune_subset(s, n_t)
            w_t = fine_tune_unlearn(w_o, x_t, y_t)
            w_cf = closed_form_wt_distinct(s, n_t)
            assert np.max(np.abs(w_t - w_cf)) < 1e-9

    def test_full_subset_still_equals_pretrained(self):
        s = gen_scenario(30, 10, DISTINCT, seed=13)
        w_o = train_original(s)
        w_cf = closed_form_wt_distinct(s, 30)
        assert np.max(np.abs(w_cf - w_o)) < 1e-9

    def test_zero_forgetting_weights(self):
        s = gen_scenario(12, 6, FeatureLayout(10, 0, 10), seed=14)
        zeroed = s.w_star.copy()
        zeroed[10:] = 0.0
        t = type(s)(
            layout=s.layout, x_r=s.x_r, x_f=s.x_f,
            y_r=s.x_r.T @ zeroed, y_f=s.x_f.T @ zeroed,
            w_star=zeroed,
        )
        x, _ = t.joint_data()
        p = projector(x)
        parts = decompose_w_star(t)
        for n_t in (1, 6, 12):
            w_cf = closed_form_wt_distinct(t, n_t)
            assert np.max(np.abs(w_cf - p @ parts.w_r)) < 1e-12

    def test_requires_distinct_layout(self):
        s = gen_scenario(30, 10, OVERLAP, seed=15)
        with pytest.raises(LayoutMismatchError):
            closed_form_wt_distinct(s, 5)


class TestDistinctNoOp:
    def test_fine_tuning_never_moves_the_model(self):
        for seed in range(5):
            s = gen_scenario(30, 10, DISTINCT, seed=seed)
            w_o = train_original(s)
            for n_t in range(1, 30):
                x_t, y_t = fine_tune_subset(s, n_t)
                w_t = fine_tune_unlearn(w_o, x_t, y_t)
                assert np.max(np.abs(w_t - w_o)) < 1e-9
