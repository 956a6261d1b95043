"""Tests for loss measurement, gap reporting, and accuracy metrics."""

import numpy as np
import pytest

from unlearn_lab.classifier import LabeledSet, SoftmaxClassifier
from unlearn_lab.errors import ProvenanceMismatchError
from unlearn_lab.metrics import (
    LossReport,
    Metrics,
    accuracy,
    classifier_metrics,
    gap_report,
    measure_losses,
    mse_loss,
)
from unlearn_lab.oracle import TheoremPrediction, predict_distinct, predict_edited
from unlearn_lab.scenarios import FeatureLayout, fine_tune_subset, gen_scenario
from unlearn_lab.solvers import EditOption, fine_tune_unlearn, retrain_golden, train_original


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
