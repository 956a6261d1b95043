"""Tests for loss measurement, gap reporting, and accuracy metrics."""

import dataclasses
import warnings

import numpy as np
import pytest

from unlearn_lab import scenarios
from unlearn_lab.classifier import LabeledSet, SoftmaxClassifier
from unlearn_lab.errors import InvalidMatrixError, ProvenanceMismatchError
from unlearn_lab.linalg import projector
from unlearn_lab.metrics import (
    GapEntry,
    LossReport,
    Metrics,
    accuracy,
    classifier_metrics,
    gap_report,
    measure_losses,
    mse_loss,
)
from unlearn_lab.oracle import (
    TheoremPrediction,
    predict_distinct,
    predict_edited,
    predict_overlap,
    within_tolerance,
)
from unlearn_lab.scenarios import (
    FeatureLayout,
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


class TestMseLoss:
    def test_interpolating_weights_measure_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 5))
        w = rng.standard_normal(8)
        assert mse_loss(w, x, x.T @ w) < 1e-20

    def test_null_model(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4))
        y = rng.standard_normal(4)
        expected = float(y @ y) / 4
        assert abs(mse_loss(np.zeros(6), x, y) - expected) < 1e-15

    def test_reference_golden_forget_loss_matches_oracle(self):
        s = gen_scenario(30, 10, FeatureLayout(20, 0, 20), seed=7)
        predicted = predict_distinct(s).ul_gold
        measured = mse_loss(retrain_golden(s), s.x_f, s.y_f)
        assert abs(measured - predicted) <= 1e-8 * predicted

    def test_invariant_under_joint_column_permutation(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((7, 9))
        y = rng.standard_normal(9)
        w = rng.standard_normal(7)
        perm = rng.permutation(9)
        assert abs(mse_loss(w, x, y) - mse_loss(w, x[:, perm], y[perm])) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros(3), np.zeros((3, 4)), np.zeros(5))

    def test_a_stack_measures_each_member_alone(self):
        rng = np.random.default_rng(3)
        w, x, y = (rng.standard_normal(shape) for shape in ((5, 7), (5, 7, 9), (5, 9)))
        losses = mse_loss(w, x, y)
        assert losses.shape == (5,)
        assert all(loss == mse_loss(*member) for loss, member in zip(losses, zip(w, x, y)))
        with pytest.raises(ValueError, match="shape mismatch"):
            mse_loss(w[:4], x, y)


class TestLossReport:
    def test_fine_tuned_losses_vanish_for_unedited_pipelines(self):
        for layout in (FeatureLayout(20, 0, 20), FeatureLayout(16, 8, 16)):
            for seed in range(3):
                s = gen_scenario(30, 10, layout, seed=seed)
                w_o = train_original(s)
                for n_t in (1, 15, 29):
                    x_t, y_t = fine_tune_subset(s, n_t)
                    report = measure_losses(
                        fine_tune_unlearn(w_o, x_t, y_t), s, "fine_tuned"
                    )
                    assert report.rl < 1e-9
                    assert report.ul < 1e-9

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    @pytest.mark.parametrize("name", ["x_r", "y_r", "x_f", "y_f"])
    def test_a_non_finite_scenario_array_raises_the_error_of_mse_loss(self, name, stacked):
        members = [gen_scenario(30, 10, FeatureLayout(16, 8, 16), seed) for seed in (0, 1)]
        s = stack_scenarios(members) if stacked else members[0]
        w = retrain_golden(s)
        bad = getattr(s, name).copy()
        bad[(-1,) * bad.ndim] = np.nan
        s = dataclasses.replace(s, **{name: bad})
        x, y = (s.x_r, s.y_r) if name.endswith("_r") else (s.x_f, s.y_f)
        with pytest.raises(InvalidMatrixError) as direct:
            mse_loss(w, x, y)
        # A failed check is not remembered: every call raises.
        for _ in range(2):
            with pytest.raises(type(direct.value), match=f"^{name} contains non-finite entries$"):
                measure_losses(w, s, "golden")

    def test_the_data_is_checked_once_per_scenario_and_the_weights_on_every_call(
        self, monkeypatch
    ):
        checked = []
        real = scenarios.as_matrix
        monkeypatch.setattr(scenarios, "as_matrix",
                            lambda a, name, stacked: checked.append(name) or real(a, name, stacked))
        s = stack_scenarios([gen_scenario(30, 10, FeatureLayout(20, 0, 20), seed)
                             for seed in (0, 1)])
        w = retrain_golden(s)
        reports = [measure_losses(w, s, "golden") for _ in range(3)]
        assert checked == ["x_r", "x_f"]
        assert all(_bits([r.rl, r.ul]) == _bits([reports[0].rl, reports[0].ul]) for r in reports)
        w[1, 0] = np.inf
        with pytest.raises(InvalidMatrixError, match="^w contains non-finite entries$"):
            measure_losses(w, s, "golden")

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            LossReport(rl=0.0, ul=0.0, model_tag="mystery")

    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            LossReport(rl=-1.0, ul=0.0, model_tag="golden")


class TestGapReport:
    PRED = TheoremPrediction(rl_ft=0.0, ul_ft=0.0, rl_gold=0.0, ul_gold=0.5)

    def test_identical_values_pass_with_zero_gaps(self):
        measured = LossReport(rl=0.0, ul=0.5, model_tag="golden")
        report = gap_report(measured, self.PRED)
        assert report.passed
        assert all(e.abs_gap == 0.0 and e.rel_gap == 0.0 for e in (report.rl, report.ul))

    def test_tiny_measurement_passes_absolute_floor(self):
        measured = LossReport(rl=1e-12, ul=0.5, model_tag="golden")
        assert gap_report(measured, self.PRED).passed

    def test_relative_gap_failure(self):
        measured = LossReport(rl=0.0, ul=0.6, model_tag="golden")
        report = gap_report(measured, self.PRED)
        assert not report.passed
        ul_entry = report.ul
        assert abs(ul_entry.rel_gap - 0.2) < 1e-12

    def test_original_model_has_no_counterpart(self):
        measured = LossReport(rl=0.0, ul=0.0, model_tag="original")
        with pytest.raises(ProvenanceMismatchError):
            gap_report(measured, self.PRED)

    def test_edited_tag_needs_edit_fields(self):
        measured = LossReport(rl=0.0, ul=0.0, model_tag="edited_fine_tuned")
        with pytest.raises(ProvenanceMismatchError):
            gap_report(measured, self.PRED)

    def test_edited_tag_with_edit_fields(self):
        predicted = TheoremPrediction(rl_edit=0.0, ul_edit=1.0)
        measured = LossReport(rl=0.0, ul=1.0 + 1e-11, model_tag="edited_fine_tuned")
        assert gap_report(measured, predicted).passed

    def test_golden_tag_against_edit_prediction_is_rejected(self):
        s = gen_scenario(30, 10, FeatureLayout(20, 0, 20), seed=3)
        [[predicted]] = predict_edited(s, [EditOption.DISTINCT_ZERO_FORGET], [15])
        measured = measure_losses(retrain_golden(s), s, "golden")
        with pytest.raises(ProvenanceMismatchError):
            gap_report(measured, predicted)

    def test_entries_are_named(self):
        measured = LossReport(rl=0.25, ul=0.5, model_tag="golden")
        report = gap_report(measured, self.PRED)
        assert (report.rl.measured, report.rl.predicted) == (0.25, 0.0)
        assert (report.ul.measured, report.ul.predicted) == (0.5, 0.5)
        assert not report.passed and not report.rl.ok and report.ul.ok


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestStackedReports:
    """A stacked report and its comparisons give each member, and each
    ``n_t``, the bits of its own scalar call."""

    NT_VALUES = [1, 7, 15, 29]
    # The shipped layouts, and a uniform one whose remaining data is rank
    # deficient (30 samples on 6 coordinates).
    CASES = [
        (FeatureLayout(20, 0, 20), "standard-normal"),
        (FeatureLayout(16, 8, 16), "standard-normal"),
        (FeatureLayout(4, 2, 34), "uniform"),
    ]

    @pytest.mark.parametrize("layout,dist", CASES, ids=["distinct", "overlap", "rank-deficient"])
    def test_stacked_losses_and_gaps_equal_each_members_scalar_calls(self, layout, dist):
        scenarios = [gen_scenario(30, 10, layout, seed, dist) for seed in (0, 3, 8)]
        stack = stack_scenarios(scenarios)
        option = (EditOption.DISTINCT_ZERO_FORGET if layout.is_distinct
                  else EditOption.OVERLAP_DISCARD)
        w_o = train_original(stack)
        edited = edit_pretrained(w_o, layout, option)
        gold = measure_losses(retrain_golden(stack), stack, "golden")
        by_nt = [measure_losses(fine_tune_unlearn(w, *fine_tune_subset(stack, n_t)), stack, tag)
                 for n_t in self.NT_VALUES
                 for w, tag in ((w_o, "fine_tuned"), (edited, "edited_fine_tuned"))]
        assert gold.rl.shape == gold.ul.shape == (3,)
        baselines = (predict_distinct if layout.is_distinct else predict_overlap)(stack)
        edit_predictions = [runs for [runs] in predict_edited(stack, [option], self.NT_VALUES)]
        for i, s in enumerate(scenarios):
            own_gold = measure_losses(retrain_golden(s), s, "golden")
            assert _bits([gold.rl[i], gold.ul[i]]) == _bits([own_gold.rl, own_gold.ul])
            # One member's losses over n_t, as the row builders read them.
            series = {tag: LossReport(rl=np.array([r.rl[i] for r in by_nt if r.model_tag == tag]),
                                      ul=np.array([r.ul[i] for r in by_nt if r.model_tag == tag]),
                                      model_tag=tag)
                      for tag in ("fine_tuned", "edited_fine_tuned")}
            predictions = edit_predictions[i]
            over_nt = TheoremPrediction(rl_edit=np.array([p.rl_edit for p in predictions]),
                                        ul_edit=np.array([p.ul_edit for p in predictions]))
            for measured, predicted, each in (
                    (series["fine_tuned"], baselines[i], [baselines[i]] * len(self.NT_VALUES)),
                    (series["edited_fine_tuned"], over_nt, predictions)):
                stacked = gap_report(measured, predicted)
                alone = [gap_report(LossReport(rl=float(rl), ul=float(ul),
                                               model_tag=measured.model_tag), p)
                         for rl, ul, p in zip(measured.rl, measured.ul, each)]
                for name in ("rl", "ul"):
                    entry = getattr(stacked, name)
                    entries = [getattr(report, name) for report in alone]
                    for field in ("measured", "predicted", "abs_gap", "rel_gap"):
                        stacked_field = np.broadcast_to(getattr(entry, field), len(entries))
                        assert _bits(stacked_field) == _bits(
                            [getattr(e, field) for e in entries]), (name, field)
                    assert entry.ok.tolist() == [e.ok for e in entries]
                assert stacked.passed is all(report.passed for report in alone) is True

    def test_a_stacked_report_is_validated_once_as_a_whole(self):
        report = LossReport(rl=np.zeros(3), ul=np.ones(3), model_tag="golden")
        assert report.ul.shape == (3,)
        with pytest.raises(ValueError, match="finite"):
            LossReport(rl=np.array([0.0, np.nan]), ul=np.zeros(2), model_tag="golden")
        with pytest.raises(ValueError, match="finite"):
            LossReport(rl=np.array([-1.0, np.inf]), ul=np.zeros(2), model_tag="golden")
        with pytest.raises(ValueError, match="nonnegative"):
            LossReport(rl=np.zeros(2), ul=np.array([0.0, -1e-300]), model_tag="golden")
        with pytest.raises(ValueError, match="one shape"):
            LossReport(rl=np.zeros(2), ul=np.zeros(3), model_tag="golden")
        with pytest.raises(ValueError, match="unknown model tag"):
            LossReport(rl=np.zeros(2), ul=np.zeros(2), model_tag="mystery")

    def test_zero_and_nan_predictions_compare_without_warnings(self):
        # Zero prediction: zero gap -> rel 0 and pass; nonzero gap -> rel inf
        # and fail.  NaN prediction: NaN gaps, and a fail.
        measured = LossReport(rl=np.array([0.0, 0.5, 0.5]), ul=np.array([0.0, 1e-12, 0.5]),
                              model_tag="edited_fine_tuned")
        predicted = TheoremPrediction(rl_edit=np.array([0.0, 0.0, np.nan]),
                                      ul_edit=np.array([0.0, 0.0, np.nan]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = gap_report(measured, predicted)
            alone = [gap_report(LossReport(rl=rl, ul=ul, model_tag="edited_fine_tuned"),
                                TheoremPrediction(rl_edit=p_rl, ul_edit=p_ul))
                     for rl, ul, p_rl, p_ul in zip(measured.rl.tolist(), measured.ul.tolist(),
                                                   predicted.rl_edit.tolist(),
                                                   predicted.ul_edit.tolist())]
            assert within_tolerance(np.array([1e300, np.inf]), np.array([-1e300, np.inf])).tolist() \
                == [False, False]
        assert report.rl.rel_gap[:2].tolist() == [0.0, np.inf]
        assert report.ul.rel_gap[:2].tolist() == [0.0, np.inf]
        assert np.isnan(report.rl.abs_gap[2]) and np.isnan(report.rl.rel_gap[2])
        assert report.rl.ok.tolist() == [True, False, False]
        # The absolute floor passes the tiny gap against a zero prediction.
        assert report.ul.ok.tolist() == [True, True, False]
        assert not report.passed
        assert [a.rl.rel_gap for a in alone[:2]] == [0.0, np.inf]
        assert np.isnan(alone[2].rl.rel_gap)
        assert [a.rl.ok for a in alone] == [True, False, False]
        assert [a.passed for a in alone] == [True, False, False]

    def test_scalars_are_the_zero_dimensional_case(self):
        report = gap_report(LossReport(rl=0.0, ul=0.6, model_tag="golden"), TestGapReport.PRED)
        for entry in (report.rl, report.ul):
            assert type(entry.abs_gap) is float and type(entry.rel_gap) is float
            assert type(entry.ok) is bool
        assert type(report.passed) is bool
        assert within_tolerance(1.0, 1.0) is True and within_tolerance(1.0, 2.0) is False
        ok = within_tolerance(np.array([1.0, 1.0 + 1e-9, 2.0]), 1.0)
        assert ok.tolist() == [within_tolerance(m, 1.0) for m in (1.0, 1.0 + 1e-9, 2.0)]
        assert ok.tolist() == [True, True, False]


def _constant_logit_model(num_classes, feature_dim, favored):
    weights = np.zeros((num_classes, feature_dim))
    bias = np.zeros(num_classes)
    bias[favored] = 10.0
    return SoftmaxClassifier(weights=weights, bias=bias)


class TestClassifierMetrics:
    def _set(self, labels, dim=4):
        labels = np.asarray(labels, dtype=np.int64)
        rng = np.random.default_rng(3)
        return LabeledSet(features=rng.standard_normal((dim, labels.size)), labels=labels)

    def test_perfect_forget_predictions_give_zero_ua(self):
        data = self._set([2, 2, 2])
        model = _constant_logit_model(3, 4, favored=2)
        metrics = classifier_metrics(model, data, data, data)
        assert metrics.ua == 0.0 and metrics.ra == 1.0 and metrics.ta == 1.0

    def test_total_forgetting_gives_unit_ua(self):
        data = self._set([1, 1, 1, 1])
        model = _constant_logit_model(3, 4, favored=0)
        assert classifier_metrics(model, data, data, data).ua == 1.0

    def test_empty_set_rejected(self):
        data = self._set([0, 1])
        empty = LabeledSet(features=np.zeros((4, 0)), labels=np.zeros(0, dtype=np.int64))
        model = _constant_logit_model(2, 4, favored=0)
        with pytest.raises(ValueError):
            classifier_metrics(model, empty, data, data)

    def test_accuracy_invariant_to_constant_logit_shift(self):
        rng = np.random.default_rng(4)
        data = self._set(rng.integers(0, 3, size=50))
        weights = rng.standard_normal((3, 4))
        bias = rng.standard_normal(3)
        base = SoftmaxClassifier(weights=weights, bias=bias)
        shifted = SoftmaxClassifier(weights=weights, bias=bias + 137.0)
        assert accuracy(base, data) == accuracy(shifted, data)

    def test_argmax_ties_break_toward_lowest_class(self):
        data = LabeledSet(features=np.zeros((2, 1)), labels=np.array([0]))
        model = SoftmaxClassifier(weights=np.zeros((3, 2)), bias=np.zeros(3))
        assert accuracy(model, data) == 1.0

    def test_fraction_bounds_enforced(self):
        with pytest.raises(ValueError):
            Metrics(ua=1.2, ra=0.0, ta=0.0, runtime_seconds=0.0)


class TestArrayHoldersCompareByIdentity:
    """The linear side's scenarios, projectors, loss reports and gap
    entries hold arrays, so they compare, hash and test membership by
    identity instead of raising."""

    def test_equal_valued_holders_are_distinct_and_hashable(self):
        def scenario():
            return gen_scenario(5, 2, FeatureLayout(4, 0, 4), 0)

        losses = np.array([1.0, 2.0])
        for make in (scenario,
                     lambda: decompose_w_star(scenario()),
                     lambda: projector(scenario().x_r),
                     lambda: LossReport(rl=losses.copy(), ul=losses.copy(), model_tag="golden"),
                     lambda: GapEntry(losses, losses, np.zeros(2), np.zeros(2), np.ones(2, bool))):
            first, second = make(), make()
            assert first == first and first != second
            assert first in [second, first] and first not in [second]
            assert hash(first) == hash(first) and len({first, second}) == 2
