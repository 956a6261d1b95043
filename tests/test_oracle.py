"""Closed-form predictions versus directly measured pipeline losses."""

import dataclasses

import numpy as np
import pytest

from unlearn_lab.errors import LayoutMismatchError
from unlearn_lab.metrics import measure_losses, mse_loss
from unlearn_lab.oracle import (
    golden_ul_block_form,
    predict_distinct,
    predict_edited,
    predict_overlap,
    within_tolerance,
)
from unlearn_lab.linalg import (
    min_norm_anchor_solve,
    min_norm_solve,
    projector,
    svd,
    weighted_seminorm_sq,
)
from unlearn_lab.scenarios import (
    FeatureLayout,
    SyntheticScenario,
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

DISTINCT = FeatureLayout(20, 0, 20)
OVERLAP = FeatureLayout(16, 8, 16)


def _scenario_with_weights(base, w_star):
    return SyntheticScenario(
        layout=base.layout, x_r=base.x_r, x_f=base.x_f,
        y_r=base.x_r.T @ w_star, y_f=base.x_f.T @ w_star,
        w_star=w_star, seed=base.seed, dist=base.dist,
    )


def _edited_pipeline_losses(scenario, option, n_t):
    w_o = train_original(scenario)
    edited = edit_pretrained(w_o, scenario.layout, option)
    x_t, y_t = fine_tune_subset(scenario, n_t)
    w_hat = fine_tune_unlearn(edited, x_t, y_t)
    return measure_losses(w_hat, scenario, "edited_fine_tuned")


class TestPredictDistinct:
    def test_layout_guard(self):
        s = gen_scenario(30, 10, OVERLAP, seed=0)
        with pytest.raises(LayoutMismatchError):
            predict_distinct(s)

    def test_zero_forgetting_weights_mean_zero_loss(self):
        s = gen_scenario(12, 6, FeatureLayout(10, 0, 10), seed=1)
        zeroed = s.w_star.copy()
        zeroed[10:] = 0.0
        assert predict_distinct(_scenario_with_weights(s, zeroed)).ul_gold == 0.0

    def test_identity_forgetting_features(self):
        # F = I makes the seminorm collapse to ||w_f||^2 / n_f.
        s = gen_scenario(10, 10, FeatureLayout(10, 0, 10), seed=2)
        x_f = np.zeros_like(s.x_f)
        x_f[10:] = np.eye(10)
        t = SyntheticScenario(
            layout=s.layout, x_r=s.x_r, x_f=x_f,
            y_r=s.y_r, y_f=x_f.T @ s.w_star,
            w_star=s.w_star, seed=s.seed, dist=s.dist,
        )
        predicted = predict_distinct(t).ul_gold
        expected = float(s.w_star[10:] @ s.w_star[10:]) / 10
        assert abs(predicted - expected) < 1e-14

    def test_reference_geometry_matches_measurement(self):
        s = gen_scenario(30, 10, DISTINCT, seed=7)
        predicted = predict_distinct(s)
        measured = mse_loss(retrain_golden(s), s.x_f, s.y_f)
        assert abs(measured - predicted.ul_gold) <= 1e-8 * predicted.ul_gold

    def test_fine_tuned_zeros_exactly(self):
        p = predict_distinct(gen_scenario(30, 10, DISTINCT, seed=3))
        assert p.rl_ft == p.ul_ft == p.rl_gold == 0.0


class TestPredictOverlap:
    def test_reduces_to_distinct_when_no_overlap(self):
        s = gen_scenario(30, 10, DISTINCT, seed=4)
        a = predict_distinct(s).ul_gold
        b = predict_overlap(s).ul_gold
        assert abs(a - b) <= 1e-10 * max(a, 1.0)

    def test_zero_overlap_weights_drop_out(self):
        s = gen_scenario(30, 10, OVERLAP, seed=5)
        w = s.w_star.copy()
        w[16:24] = 0.0
        t = _scenario_with_weights(s, w)
        from unlearn_lab.linalg import projector, weighted_seminorm_sq
        from unlearn_lab.scenarios import decompose_w_star

        parts = decompose_w_star(t)
        p_r = projector(t.x_r)
        expected = weighted_seminorm_sq(p_r @ parts.w_r - parts.w_f, t.x_f)
        assert abs(predict_overlap(t).ul_gold - expected) <= 1e-12 * max(expected, 1.0)

    def test_reference_geometry_matches_measurement(self):
        s = gen_scenario(30, 10, OVERLAP, seed=7)
        predicted = predict_overlap(s)
        measured = mse_loss(retrain_golden(s), s.x_f, s.y_f)
        assert abs(measured - predicted.ul_gold) <= 1e-8 * predicted.ul_gold

    def test_projector_and_block_forms_agree(self):
        # Two writings of the same golden UL; the block expansion goes
        # through the remaining-data Gram pseudoinverse.
        for seed in range(10):
            s = gen_scenario(30, 10, OVERLAP, seed=seed)
            a = predict_overlap(s).ul_gold
            b = golden_ul_block_form(s)
            assert abs(a - b) <= 1e-9 * max(a, 1.0)

    def test_both_forms_match_measurement_undersampled(self):
        # Agreement also holds with fewer samples than active features.
        for seed in range(5):
            s = gen_scenario(12, 6, FeatureLayout(16, 8, 16), seed=seed)
            measured = mse_loss(retrain_golden(s), s.x_f, s.y_f)
            for predicted in (predict_overlap(s).ul_gold, golden_ul_block_form(s)):
                assert within_tolerance(measured, predicted)


class TestPredictEdited:
    def test_distinct_edit_equals_golden_prediction(self):
        s = gen_scenario(30, 10, DISTINCT, seed=6)
        base = predict_distinct(s)
        [edited] = predict_edited(s, [EditOption.DISTINCT_ZERO_FORGET], [15])
        assert edited.rl_edit.tolist() == [base.rl_gold] == [0.0]
        assert edited.ul_edit.tolist() == [base.ul_gold]

    def test_full_subset_spans_remaining_data(self):
        # With n_t = n_r the fine-tuning span contains all remaining
        # data, so the discard option loses nothing on the remaining set.
        s = gen_scenario(30, 10, OVERLAP, seed=7)
        [p] = predict_edited(s, [EditOption.OVERLAP_DISCARD], [30])
        assert p.rl_edit.shape == (1,) and p.rl_edit[0] < 1e-18

    def test_discard_option_end_to_end(self):
        s = gen_scenario(30, 10, OVERLAP, seed=7)
        [predicted] = predict_edited(s, [EditOption.OVERLAP_DISCARD], [15])
        measured = _edited_pipeline_losses(s, EditOption.OVERLAP_DISCARD, 15)
        [rl], [ul] = predicted.rl_edit, predicted.ul_edit
        assert rl > 1e-10
        assert within_tolerance(measured.rl, rl)
        assert within_tolerance(measured.ul, ul)

    def test_retain_option_end_to_end(self):
        s = gen_scenario(30, 10, OVERLAP, seed=7)
        [predicted] = predict_edited(s, [EditOption.OVERLAP_RETAIN], [15])
        measured = _edited_pipeline_losses(s, EditOption.OVERLAP_RETAIN, 15)
        [rl], [ul] = predicted.rl_edit, predicted.ul_edit
        assert rl == 0.0
        assert measured.rl < 1e-18
        assert within_tolerance(measured.ul, ul)

    def test_layout_guard(self):
        s = gen_scenario(30, 10, OVERLAP, seed=8)
        with pytest.raises(LayoutMismatchError):
            predict_edited(s, [EditOption.DISTINCT_ZERO_FORGET], [5])

    @pytest.mark.parametrize("option", list(EditOption))
    def test_many_nt_values_equal_single_calls(self, option):
        layout = DISTINCT if option is EditOption.DISTINCT_ZERO_FORGET else OVERLAP
        s = gen_scenario(30, 10, layout, seed=9)
        nt_values = [29, 1, 15, 2, 30]
        [together] = predict_edited(s, [option], nt_values)
        alone = [predict_edited(s, [option], [n_t])[0] for n_t in nt_values]
        assert np.array_equal(together.rl_edit, [p.rl_edit[0] for p in alone])
        assert np.array_equal(together.ul_edit, [p.ul_edit[0] for p in alone])

    @pytest.mark.parametrize(
        "option,layout",
        [(EditOption.DISTINCT_ZERO_FORGET, DISTINCT), (EditOption.OVERLAP_RETAIN, OVERLAP)],
    )
    def test_retain_and_distinct_do_not_depend_on_nt(self, option, layout):
        [p] = predict_edited(gen_scenario(30, 10, layout, seed=10), [option], [1, 15, 29])
        assert p.rl_edit.tolist() == [0.0] * 3
        assert p.ul_edit.tolist() == [p.ul_edit[0]] * 3

    @pytest.mark.parametrize("layout", [DISTINCT, OVERLAP])
    def test_options_together_equal_each_alone(self, layout):
        # The overlap options share one joint-data projector.
        s = gen_scenario(30, 10, layout, seed=9)
        options = list(EditOption) if layout.is_distinct else list(EditOption)[1:]
        nt_values = [1, 15, 29]
        together = predict_edited(s, options, nt_values)
        assert len(together) == len(options)
        for option, p in zip(options, together):
            [alone] = predict_edited(s, [option], nt_values)
            assert np.array_equal(p.rl_edit, alone.rl_edit)
            assert np.array_equal(p.ul_edit, alone.ul_edit)

    def test_every_nt_is_validated(self):
        s = gen_scenario(30, 10, DISTINCT, seed=11)
        with pytest.raises(ValueError):
            predict_edited(s, [EditOption.DISTINCT_ZERO_FORGET], [15, 31])

    def test_one_scenario_gives_a_float_gold_and_a_value_per_nt(self):
        s = gen_scenario(30, 10, DISTINCT, seed=13)
        for predict in (predict_distinct, predict_overlap):
            assert type(predict(s).ul_gold) is float
        nt_values = [1, 15, 29]
        for p in predict_edited(s, list(EditOption), nt_values):
            assert isinstance(p.rl_edit, np.ndarray) and isinstance(p.ul_edit, np.ndarray)
            assert p.rl_edit.shape == p.ul_edit.shape == (len(nt_values),)

    def test_only_edit_losses_are_predicted(self):
        s = gen_scenario(30, 10, OVERLAP, seed=12)
        [p] = predict_edited(s, [EditOption.OVERLAP_DISCARD], [15])
        assert p.rl_edit is not None and p.ul_edit is not None
        assert p.rl_ft is p.ul_ft is p.rl_gold is p.ul_gold is None
        assert predict_overlap(s).rl_edit is predict_overlap(s).ul_edit is None


def _equal_columns(scenario):
    """``scenario`` with its second remaining column equal to its first,
    so that its prefixes of two or more columns are one rank short."""
    x_r = scenario.x_r.copy()
    x_r[:, 1] = x_r[:, 0]
    return dataclasses.replace(scenario, x_r=x_r, y_r=x_r.T @ scenario.w_star)


class TestStackedPredictions:
    """A stacked scenario gets, member by member, the bits of each seed's
    own predictions."""

    @pytest.mark.parametrize("layout,dist", [
        (DISTINCT, "standard-normal"),
        (OVERLAP, "standard-normal"),
        (FeatureLayout(4, 0, 36), "uniform"),
        (FeatureLayout(3, 2, 35), "uniform"),
    ], ids=["distinct", "overlap", "distinct-rank-deficient", "overlap-rank-deficient"])
    def test_each_member_equals_its_own_call(self, layout, dist):
        # Seed 1's equal columns put its prefixes in a rank group of their
        # own; in the rank-deficient layouts every member's remaining data
        # is rank-deficient too.
        scenarios = [gen_scenario(30, 10, layout, seed, dist) for seed in range(3)]
        scenarios[1] = _equal_columns(scenarios[1])
        stack = stack_scenarios(scenarios)
        prefixes = fine_tune_subset(stack, 3)[0]
        assert len({np.linalg.matrix_rank(member) for member in prefixes}) == 2

        predictors = [predict_overlap] + ([predict_distinct] if layout.is_distinct else [])
        for predict in predictors:
            stacked = predict(stack)
            assert stacked.ul_gold.shape == (3,)
            for member, s in enumerate(scenarios):
                alone = predict(s)
                assert np.array_equal(stacked.ul_gold[member], alone.ul_gold)
                assert stacked.rl_gold == alone.rl_gold == 0.0
        options = list(EditOption) if layout.is_distinct else list(EditOption)[1:]
        nt_values = list(range(1, 31))
        stacked = predict_edited(stack, options, nt_values)
        for member, s in enumerate(scenarios):
            for together, alone in zip(stacked, predict_edited(s, options, nt_values),
                                       strict=True):
                assert together.rl_edit.shape == together.ul_edit.shape == (3, 30)
                assert np.array_equal(together.rl_edit[member], alone.rl_edit)
                assert np.array_equal(together.ul_edit[member], alone.ul_edit)


class TestLoneCallIsAOneMemberStack:
    """A lone matrix or scenario is the zero-lead case of the stack path:
    each linear function's lone call gives the bits of member 0 of its
    one-member stack's call, with that member's shape, and a float where
    the stack gives one value per member."""

    @staticmethod
    def _same(lone, stacked, axis=0):
        member = np.take(stacked, 0, axis=axis)
        if np.ndim(member) == 0:
            assert type(lone) is float
        else:
            assert type(lone) is np.ndarray and lone.shape == member.shape
        assert np.array_equal(lone, member)

    @pytest.mark.parametrize("dist", ["standard-normal", "uniform"])
    @pytest.mark.parametrize("layout", [DISTINCT, OVERLAP], ids=["distinct", "overlap"])
    def test_every_linear_function(self, layout, dist):
        s = gen_scenario(30, 10, layout, 4, dist)
        stack = stack_scenarios([s])
        (x, y), (xs, ys) = s.joint_data(), stack.joint_data()
        (x_t, y_t), (xs_t, ys_t) = fine_tune_subset(s, 7), fine_tune_subset(stack, 7)
        # Two by three anchors in front of the seed axis.
        anchors = np.random.default_rng(0).standard_normal((2, 3, s.d))
        w = min_norm_anchor_solve(x_t, y_t, anchors)
        for lone, stacked in zip(svd(x), svd(xs), strict=True):
            self._same(lone, stacked)
        self._same(projector(x), projector(xs))
        self._same(min_norm_solve(x, y), min_norm_solve(xs, ys))
        self._same(w, min_norm_anchor_solve(xs_t, ys_t, anchors[..., None, :]), axis=-2)
        self._same(weighted_seminorm_sq(w[0, 0], s.x_f), weighted_seminorm_sq(w[0, :1], stack.x_f))
        self._same(mse_loss(w[0, 0], s.x_r, s.y_r), mse_loss(w[0, :1], stack.x_r, stack.y_r))
        for tag, weights in (("golden", w[0, 0]), ("fine_tuned", w)):
            lone, stacked = (measure_losses(weights, s, tag),
                             measure_losses(weights[..., None, :], stack, tag))
            self._same(lone.rl, stacked.rl, axis=-1)
            self._same(lone.ul, stacked.ul, axis=-1)
        options = list(EditOption) if layout.is_distinct else list(EditOption)[1:]
        for option in options:
            self._same(edit_pretrained(w, s.layout, option),
                       edit_pretrained(w[..., None, :], stack.layout, option), axis=-2)

        predictors = [predict_overlap] + ([predict_distinct] if layout.is_distinct else [])
        for predict in predictors:
            lone, stacked = predict(s), predict(stack)
            self._same(lone.ul_gold, stacked.ul_gold)
            assert lone.rl_ft == lone.ul_ft == lone.rl_gold == 0.0
        nt_values = [1, 7, 16, 24, 29]
        for lone, stacked in zip(predict_edited(s, options, nt_values),
                                 predict_edited(stack, options, nt_values), strict=True):
            self._same(lone.rl_edit, stacked.rl_edit)
            self._same(lone.ul_edit, stacked.ul_edit)


class TestOracleMeasurementAgreement:
    """Every predicted loss matches the measured pipeline across many
    random scenarios, within max(1e-10, 1e-8 * predicted)."""

    def _check_baselines(self, scenario):
        predicted = (
            predict_distinct(scenario)
            if scenario.layout.is_distinct
            else predict_overlap(scenario)
        )
        w_o = train_original(scenario)
        w_g = retrain_golden(scenario)
        n_t = max(1, scenario.n_r // 2)
        x_t, y_t = fine_tune_subset(scenario, n_t)
        w_t = fine_tune_unlearn(w_o, x_t, y_t)
        ft = measure_losses(w_t, scenario, "fine_tuned")
        gold = measure_losses(w_g, scenario, "golden")
        assert within_tolerance(ft.rl, predicted.rl_ft)
        assert within_tolerance(ft.ul, predicted.ul_ft)
        assert within_tolerance(gold.rl, predicted.rl_gold)
        assert within_tolerance(gold.ul, predicted.ul_gold)
        for value in (predicted.rl_ft, predicted.ul_ft, predicted.rl_gold, predicted.ul_gold):
            assert value >= 0.0

    def test_baseline_agreement_across_layouts(self):
        # 100 distinct-layout and 100 overlap-layout scenarios, with
        # sample counts ranging from sparse to full span.
        rng = np.random.default_rng(100)
        for case in range(200):
            d_lap = 0 if case < 100 else int(rng.integers(1, 7))
            d_r = int(rng.integers(2, 12))
            d_f = int(rng.integers(2, 12))
            d = d_r + d_lap + d_f
            n_r = int(rng.integers(2, d))
            n_f = int(rng.integers(1, d - n_r + 1))
            layout = FeatureLayout(d_r, d_lap, d_f)
            scenario = gen_scenario(n_r, n_f, layout, seed=case)
            self._check_baselines(scenario)

    def test_edited_agreement_in_spanning_regime(self):
        # The edited closed forms are exact once the remaining data spans
        # its feature blocks (n_r >= d_r + d_lap).
        rng = np.random.default_rng(200)
        for case in range(60):
            d_lap = int(rng.integers(0, 5))
            d_r = int(rng.integers(2, 8))
            d_f = int(rng.integers(2, 8))
            d = d_r + d_lap + d_f
            n_r = int(rng.integers(d_r + d_lap, d))
            n_f = int(rng.integers(1, d - n_r + 1))
            scenario = gen_scenario(n_r, n_f, FeatureLayout(d_r, d_lap, d_f), seed=case)
            options = [EditOption.OVERLAP_RETAIN, EditOption.OVERLAP_DISCARD]
            if scenario.layout.is_distinct:
                options.append(EditOption.DISTINCT_ZERO_FORGET)
            n_t = int(rng.integers(1, n_r + 1))
            for option, predicted in zip(options, predict_edited(scenario, options, [n_t])):
                measured = _edited_pipeline_losses(scenario, option, n_t)
                [rl], [ul] = predicted.rl_edit, predicted.ul_edit
                assert within_tolerance(measured.rl, rl)
                assert within_tolerance(measured.ul, ul)

    def test_zero_claims_stay_below_threshold(self):
        for seed in range(10):
            scenario = gen_scenario(30, 10, OVERLAP, seed=seed)
            w_o = train_original(scenario)
            w_g = retrain_golden(scenario)
            x_t, y_t = fine_tune_subset(scenario, 9)
            w_t = fine_tune_unlearn(w_o, x_t, y_t)
            ft = measure_losses(w_t, scenario, "fine_tuned")
            gold = measure_losses(w_g, scenario, "golden")
            assert ft.rl < 1e-9 and ft.ul < 1e-9
            assert gold.rl < 1e-9


class TestOverlapWidthTrend:
    def test_discard_remaining_loss_grows_with_overlap(self):
        # Median discard-option remaining loss over 50 seeds is
        # non-decreasing as the overlap block widens (statistical trend,
        # not a per-instance claim).
        d, n_r, n_f, n_t = 20, 14, 6, 7
        medians = []
        for d_lap in (0, 2, 4, 8):
            side = (d - d_lap) // 2
            layout = FeatureLayout(side, d_lap, side)
            values = []
            for seed in range(50):
                scenario = gen_scenario(n_r, n_f, layout, seed=seed)
                [predicted] = predict_edited(scenario, [EditOption.OVERLAP_DISCARD], [n_t])
                values.append(predicted.rl_edit[0])
            medians.append(float(np.median(values)))
        assert all(b >= a - 1e-12 for a, b in zip(medians, medians[1:])), medians
