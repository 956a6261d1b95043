"""Closed-form predictions versus directly measured pipeline losses."""

import dataclasses

import numpy as np
import pytest

from unlearn_lab.errors import InvalidMatrixError, LayoutMismatchError
from unlearn_lab.metrics import measure_losses
from unlearn_lab.oracle import (
    FINE_TUNED,
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

from linear_reference import golden_ul_block_form

DISTINCT = FeatureLayout(20, 0, 20)
OVERLAP = FeatureLayout(16, 8, 16)


def _scenario_with_weights(base, w_star):
    return SyntheticScenario(
        layout=base.layout, x_r=base.x_r, x_f=base.x_f,
        y_r=base.x_r.T @ w_star, y_f=base.x_f.T @ w_star,
        w_star=w_star,
    )


def _edited_pipeline_losses(scenario, option, n_t):
    w_o = train_original(scenario)
    edited = edit_pretrained(w_o, scenario.layout, option)
    x_t, y_t = fine_tune_subset(scenario, n_t)
    w_hat = fine_tune_unlearn(edited, x_t, y_t)
    return measure_losses(w_hat, scenario)


class TestPredictDistinct:
    def test_layout_guard(self):
        s = gen_scenario(30, 10, OVERLAP, seed=0)
        with pytest.raises(LayoutMismatchError):
            predict_distinct(s)

    def test_zero_forgetting_weights_mean_zero_loss(self):
        s = gen_scenario(12, 6, FeatureLayout(10, 0, 10), seed=1)
        zeroed = s.w_star.copy()
        zeroed[10:] = 0.0
        assert predict_distinct(_scenario_with_weights(s, zeroed))[1] == 0.0

    def test_identity_forgetting_features(self):
        # F = I makes the seminorm collapse to ||w_f||^2 / n_f.
        s = gen_scenario(10, 10, FeatureLayout(10, 0, 10), seed=2)
        x_f = np.zeros_like(s.x_f)
        x_f[10:] = np.eye(10)
        t = SyntheticScenario(
            layout=s.layout, x_r=s.x_r, x_f=x_f,
            y_r=s.y_r, y_f=x_f.T @ s.w_star,
            w_star=s.w_star,
        )
        _, predicted = predict_distinct(t)
        expected = float(s.w_star[10:] @ s.w_star[10:]) / 10
        assert abs(predicted - expected) < 1e-14

    def test_reference_geometry_matches_measurement(self):
        s = gen_scenario(30, 10, DISTINCT, seed=7)
        _, predicted = predict_distinct(s)
        measured = measure_losses(retrain_golden(s), s)[1]
        assert abs(measured - predicted) <= 1e-8 * predicted

    def test_fine_tuned_zeros_exactly(self):
        rl_gold, _ = predict_distinct(gen_scenario(30, 10, DISTINCT, seed=3))
        assert FINE_TUNED == (0.0, 0.0) and rl_gold == 0.0


@pytest.mark.parametrize("predict,layout", [(predict_distinct, DISTINCT),
                                            (predict_overlap, OVERLAP)],
                         ids=["distinct", "overlap"])
def test_a_prediction_that_overflows_raises_invalid_matrix_error(predict, layout):
    # Forgetting data scaled by 1e200 (the last member's, for a stack)
    # overflows the golden UL.  InvalidMatrixError, and no warning, lets
    # the experiment rerun such a stack seed by seed, as it does for an
    # overflowing measurement.
    members = [gen_scenario(30, 10, layout, seed) for seed in (0, 1)]
    stack = stack_scenarios(members)
    x_f = stack.x_f.copy()
    x_f[-1] *= 1e200
    for s in (dataclasses.replace(members[1], x_f=x_f[-1]),
              dataclasses.replace(stack, x_f=x_f)):
        with pytest.raises(InvalidMatrixError, match="^the seminorm of v on x overflows$"):
            predict(s)
    assert np.isfinite(predict(members[0])[1])


class TestPredictOverlap:
    def test_reduces_to_distinct_when_no_overlap(self):
        s = gen_scenario(30, 10, DISTINCT, seed=4)
        _, a = predict_distinct(s)
        _, b = predict_overlap(s)
        assert abs(a - b) <= 1e-10 * max(a, 1.0)

    def test_zero_overlap_weights_drop_out(self):
        s = gen_scenario(30, 10, OVERLAP, seed=5)
        w = s.w_star.copy()
        w[16:24] = 0.0
        t = _scenario_with_weights(s, w)
        from unlearn_lab.linalg import projector, weighted_seminorm_sq
        from unlearn_lab.scenarios import decompose_w_star

        w_r, _, w_f = decompose_w_star(t)
        p_r = projector(t.x_r)
        expected = weighted_seminorm_sq(p_r @ w_r - w_f, t.x_f)
        assert abs(predict_overlap(t)[1] - expected) <= 1e-12 * max(expected, 1.0)

    def test_reference_geometry_matches_measurement(self):
        s = gen_scenario(30, 10, OVERLAP, seed=7)
        _, predicted = predict_overlap(s)
        measured = measure_losses(retrain_golden(s), s)[1]
        assert abs(measured - predicted) <= 1e-8 * predicted

    def test_projector_and_block_forms_agree(self):
        # Two writings of the same golden UL; the block expansion goes
        # through the remaining-data Gram pseudoinverse.
        for seed in range(10):
            s = gen_scenario(30, 10, OVERLAP, seed=seed)
            _, a = predict_overlap(s)
            b = golden_ul_block_form(s)
            assert abs(a - b) <= 1e-9 * max(a, 1.0)

    def test_both_forms_match_measurement_undersampled(self):
        # Agreement also holds with fewer samples than active features.
        for seed in range(5):
            s = gen_scenario(12, 6, FeatureLayout(16, 8, 16), seed=seed)
            measured = measure_losses(retrain_golden(s), s)[1]
            for predicted in (predict_overlap(s)[1], golden_ul_block_form(s)):
                assert within_tolerance(measured, predicted)


class TestPredictEdited:
    def test_distinct_edit_equals_golden_prediction(self):
        s = gen_scenario(30, 10, DISTINCT, seed=6)
        rl_gold, ul_gold = predict_distinct(s)
        [(rl_edit, ul_edit)] = predict_edited(s, [EditOption.DISTINCT_ZERO_FORGET], [15])
        assert rl_edit.tolist() == [rl_gold] == [0.0]
        assert ul_edit.tolist() == [ul_gold]

    def test_full_subset_spans_remaining_data(self):
        # With n_t = n_r the fine-tuning span contains all remaining
        # data, so the discard option loses nothing on the remaining set.
        s = gen_scenario(30, 10, OVERLAP, seed=7)
        [(rl_edit, _)] = predict_edited(s, [EditOption.OVERLAP_DISCARD], [30])
        assert rl_edit.shape == (1,) and rl_edit[0] < 1e-18

    def test_discard_option_end_to_end(self):
        s = gen_scenario(30, 10, OVERLAP, seed=7)
        [predicted] = predict_edited(s, [EditOption.OVERLAP_DISCARD], [15])
        measured_rl, measured_ul = _edited_pipeline_losses(s, EditOption.OVERLAP_DISCARD, 15)
        [rl], [ul] = predicted
        assert rl > 1e-10
        assert within_tolerance(measured_rl, rl)
        assert within_tolerance(measured_ul, ul)

    def test_retain_option_end_to_end(self):
        s = gen_scenario(30, 10, OVERLAP, seed=7)
        [predicted] = predict_edited(s, [EditOption.OVERLAP_RETAIN], [15])
        measured_rl, measured_ul = _edited_pipeline_losses(s, EditOption.OVERLAP_RETAIN, 15)
        [rl], [ul] = predicted
        assert rl == 0.0
        assert measured_rl < 1e-18
        assert within_tolerance(measured_ul, ul)

    def test_layout_guard(self):
        s = gen_scenario(30, 10, OVERLAP, seed=8)
        with pytest.raises(LayoutMismatchError):
            predict_edited(s, [EditOption.DISTINCT_ZERO_FORGET], [5])

    @pytest.mark.parametrize("option", list(EditOption))
    def test_many_nt_values_equal_single_calls(self, option):
        layout = DISTINCT if option is EditOption.DISTINCT_ZERO_FORGET else OVERLAP
        s = gen_scenario(30, 10, layout, seed=9)
        nt_values = [29, 1, 15, 2, 30]
        [(rl_edit, ul_edit)] = predict_edited(s, [option], nt_values)
        alone = [predict_edited(s, [option], [n_t])[0] for n_t in nt_values]
        assert np.array_equal(rl_edit, [rl[0] for rl, _ in alone])
        assert np.array_equal(ul_edit, [ul[0] for _, ul in alone])

    @pytest.mark.parametrize(
        "option,layout",
        [(EditOption.DISTINCT_ZERO_FORGET, DISTINCT), (EditOption.OVERLAP_RETAIN, OVERLAP)],
    )
    def test_retain_and_distinct_do_not_depend_on_nt(self, option, layout):
        [(rl_edit, ul_edit)] = predict_edited(gen_scenario(30, 10, layout, seed=10), [option],
                                              [1, 15, 29])
        assert rl_edit.tolist() == [0.0] * 3
        assert ul_edit.tolist() == [ul_edit[0]] * 3

    @pytest.mark.parametrize("layout", [DISTINCT, OVERLAP])
    def test_options_together_equal_each_alone(self, layout):
        # The overlap options share one joint-data projector.
        s = gen_scenario(30, 10, layout, seed=9)
        options = list(EditOption) if layout.is_distinct else list(EditOption)[1:]
        nt_values = [1, 15, 29]
        together = predict_edited(s, options, nt_values)
        assert len(together) == len(options)
        for option, (rl_edit, ul_edit) in zip(options, together):
            [(rl_alone, ul_alone)] = predict_edited(s, [option], nt_values)
            assert np.array_equal(rl_edit, rl_alone)
            assert np.array_equal(ul_edit, ul_alone)

    def test_every_nt_is_validated(self):
        s = gen_scenario(30, 10, DISTINCT, seed=11)
        with pytest.raises(ValueError):
            predict_edited(s, [EditOption.DISTINCT_ZERO_FORGET], [15, 31])

    def test_one_scenario_gives_a_float_gold_and_a_value_per_nt(self):
        s = gen_scenario(30, 10, DISTINCT, seed=13)
        for predict in (predict_distinct, predict_overlap):
            assert type(predict(s)[1]) is float
        nt_values = [1, 15, 29]
        for rl_edit, ul_edit in predict_edited(s, list(EditOption), nt_values):
            assert isinstance(rl_edit, np.ndarray) and isinstance(ul_edit, np.ndarray)
            assert rl_edit.shape == ul_edit.shape == (len(nt_values),)

    def test_each_prediction_is_one_rl_ul_pair(self):
        s = gen_scenario(30, 10, OVERLAP, seed=12)
        [p] = predict_edited(s, [EditOption.OVERLAP_DISCARD], [15])
        for pair in (p, predict_overlap(s), predict_distinct(gen_scenario(30, 10, DISTINCT, 12)),
                     FINE_TUNED):
            assert type(pair) is tuple and len(pair) == 2


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
            rl_stacked, ul_stacked = predict(stack)
            assert ul_stacked.shape == (3,)
            for member, s in enumerate(scenarios):
                rl_alone, ul_alone = predict(s)
                assert np.array_equal(ul_stacked[member], ul_alone)
                assert rl_stacked == rl_alone == 0.0
        options = list(EditOption) if layout.is_distinct else list(EditOption)[1:]
        nt_values = list(range(1, 31))
        stacked = predict_edited(stack, options, nt_values)
        for member, s in enumerate(scenarios):
            for (rl_together, ul_together), (rl_alone, ul_alone) in zip(
                    stacked, predict_edited(s, options, nt_values), strict=True):
                assert rl_together.shape == ul_together.shape == (3, 30)
                assert np.array_equal(rl_together[member], rl_alone)
                assert np.array_equal(ul_together[member], ul_alone)


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
        for weights in (w[0, 0], w):
            lone, stacked = (measure_losses(weights, s),
                             measure_losses(weights[..., None, :], stack))
            for lone_loss, stacked_loss in zip(lone, stacked, strict=True):
                self._same(lone_loss, stacked_loss, axis=-1)
        options = list(EditOption) if layout.is_distinct else list(EditOption)[1:]
        for option in options:
            self._same(edit_pretrained(w, s.layout, option),
                       edit_pretrained(w[..., None, :], stack.layout, option), axis=-2)

        predictors = [predict_overlap] + ([predict_distinct] if layout.is_distinct else [])
        for predict in predictors:
            (rl_lone, ul_lone), (_, ul_stacked) = predict(s), predict(stack)
            self._same(ul_lone, ul_stacked)
            assert rl_lone == 0.0
        nt_values = [1, 7, 16, 24, 29]
        for lone, stacked in zip(predict_edited(s, options, nt_values),
                                 predict_edited(stack, options, nt_values), strict=True):
            self._same(lone[0], stacked[0])
            self._same(lone[1], stacked[1])


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
        rl_ft, ul_ft = measure_losses(w_t, scenario)
        rl_gold, ul_gold = measure_losses(w_g, scenario)
        assert within_tolerance(rl_ft, FINE_TUNED[0])
        assert within_tolerance(ul_ft, FINE_TUNED[1])
        assert within_tolerance(rl_gold, predicted[0])
        assert within_tolerance(ul_gold, predicted[1])
        for value in (*FINE_TUNED, *predicted):
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
                measured_rl, measured_ul = _edited_pipeline_losses(scenario, option, n_t)
                [rl], [ul] = predicted
                assert within_tolerance(measured_rl, rl)
                assert within_tolerance(measured_ul, ul)

    def test_zero_claims_stay_below_threshold(self):
        for seed in range(10):
            scenario = gen_scenario(30, 10, OVERLAP, seed=seed)
            w_o = train_original(scenario)
            w_g = retrain_golden(scenario)
            x_t, y_t = fine_tune_subset(scenario, 9)
            w_t = fine_tune_unlearn(w_o, x_t, y_t)
            rl_ft, ul_ft = measure_losses(w_t, scenario)
            rl_gold, _ = measure_losses(w_g, scenario)
            assert rl_ft < 1e-9 and ul_ft < 1e-9
            assert rl_gold < 1e-9


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
                [(rl_edit, _)] = predict_edited(scenario, [EditOption.OVERLAP_DISCARD], [n_t])
                values.append(rl_edit[0])
            medians.append(float(np.median(values)))
        assert all(b >= a - 1e-12 for a, b in zip(medians, medians[1:])), medians
