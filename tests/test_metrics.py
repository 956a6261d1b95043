"""Tests for loss measurement, gap reporting, and accuracy metrics."""

import dataclasses
import warnings

import numpy as np
import pytest

from unlearn_lab.classifier import LabeledSet, SoftmaxClassifier
from unlearn_lab.errors import InvalidMatrixError
from unlearn_lab.metrics import (
    GapEntry,
    Metrics,
    accuracy,
    classifier_metrics,
    gap_report,
    measure_losses,
)
from unlearn_lab.oracle import (
    FINE_TUNED,
    predict_distinct,
    predict_edited,
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

from linear_reference import mse_loss


class TestMseLoss:
    """The loss on given data, measured as a scenario's remaining subset."""

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
        _, predicted = predict_distinct(s)
        measured = measure_losses(retrain_golden(s), s)[1]
        assert abs(measured - predicted) <= 1e-8 * predicted

    def test_invariant_under_joint_column_permutation(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((7, 9))
        y = rng.standard_normal(9)
        w = rng.standard_normal(7)
        perm = rng.permutation(9)
        assert abs(mse_loss(w, x, y) - mse_loss(w, x[:, perm], y[perm])) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidMatrixError,
                           match=r"^y_r must have shape \(4,\) over x_r, got \(5,\)$"):
            mse_loss(np.zeros(3), np.zeros((3, 4)), np.zeros(5))

    def test_zero_samples_rejected(self):
        # InvalidMatrixError is the package error that a seed's rerun catches.
        for w, x, y in ((np.zeros(3), np.zeros((3, 0)), np.zeros(0)),
                        (np.zeros((2, 3)), np.zeros((2, 3, 0)), np.zeros((2, 0)))):
            with pytest.raises(InvalidMatrixError, match="^x_r has no samples$"):
                mse_loss(w, x, y)

    def test_a_stack_measures_each_member_alone(self):
        rng = np.random.default_rng(3)
        w, x, y = (rng.standard_normal(shape) for shape in ((5, 7), (5, 7, 9), (5, 9)))
        losses = mse_loss(w, x, y)
        assert losses.shape == (5,)
        assert all(loss == mse_loss(*member) for loss, member in zip(losses, zip(w, x, y)))
        with pytest.raises(InvalidMatrixError,
                           match=r"^w must have shape \(\.\.\., 5, 7\) over x_r, got \(4, 7\)$"):
            mse_loss(w[:4], x, y)

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_finite_inputs_whose_loss_overflows_raise_invalid_matrix_error(self, stacked):
        # Raised, not warned and returned as inf: InvalidMatrixError is the
        # package error that a seed's rerun catches.
        w, x, y = np.full(3, 1e200), np.ones((3, 4)), np.zeros(4)
        if stacked:
            w, x, y = np.stack([np.ones(3), w]), np.stack([x, x]), np.stack([y, y])
            assert mse_loss(w[0], x[0], y[0]) == 9.0
        with pytest.raises(InvalidMatrixError, match="^the loss of w on x_r overflows$"):
            mse_loss(w, x, y)

    @pytest.mark.parametrize("name,args", [
        ("w", lambda w, x, y: (w[0], x, y)),
        ("w", lambda w, x, y: (w[:, None], x, y)),
        ("y_r", lambda w, x, y: (w, x, y[:2])),
        ("y_r", lambda w, x, y: (w[0], x[0], y)),
    ])
    def test_mismatched_leading_axes_name_the_vector(self, name, args):
        rng = np.random.default_rng(4)
        w, x, y = (rng.standard_normal(shape) for shape in ((3, 7), (3, 7, 9), (3, 9)))
        with pytest.raises(InvalidMatrixError, match=f"^{name} must have shape "):
            mse_loss(*args(w, x, y))

    def test_weights_may_carry_axes_in_front_of_the_seed_axes(self):
        # One model per leading index, each with the bits of its own call.
        rng = np.random.default_rng(4)
        w, x, y = (rng.standard_normal(shape) for shape in ((3, 7), (3, 7, 9), (3, 9)))
        assert np.array_equal(mse_loss(w[None], x, y), mse_loss(w, x, y)[None])
        lone = mse_loss(w, x[0], y[0])
        assert lone.shape == (3,)
        assert all(loss == mse_loss(w_i, x[0], y[0]) for loss, w_i in zip(lone, w))


class TestMeasureLosses:
    @pytest.mark.parametrize("name,w,arrays", [
        ("w", np.zeros((4, 40)), {}),
        ("w", np.zeros(40), {}),
        ("y_r", np.zeros((3, 40)), {"y_r": lambda s: s.y_r[:2]}),
        ("y_f", np.zeros((3, 40)), {"y_f": lambda s: s.y_f[0]}),
        # A lone scenario's y_r with the stack's seed axis.
        ("y_r", np.zeros((2, 40)), {name: lambda s, name=name: getattr(s, name)[0]
                                    for name in ("x_r", "x_f", "y_f")}),
    ], ids=["seeds", "no-seeds", "y_r", "y_f", "lone-x_r"])
    def test_mismatched_leading_axes_name_the_vector(self, name, w, arrays):
        s = stack_scenarios([gen_scenario(30, 10, FeatureLayout(20, 0, 20), seed)
                             for seed in range(3)])
        s = dataclasses.replace(s, **{key: take(s) for key, take in arrays.items()})
        with pytest.raises(InvalidMatrixError, match=f"^{name} must have shape "):
            measure_losses(w, s)

    def test_fine_tuned_losses_vanish_for_unedited_pipelines(self):
        for layout in (FeatureLayout(20, 0, 20), FeatureLayout(16, 8, 16)):
            for seed in range(3):
                s = gen_scenario(30, 10, layout, seed=seed)
                w_o = train_original(s)
                for n_t in (1, 15, 29):
                    x_t, y_t = fine_tune_subset(s, n_t)
                    rl, ul = measure_losses(fine_tune_unlearn(w_o, x_t, y_t), s)
                    assert rl < 1e-9
                    assert ul < 1e-9

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
                measure_losses(w, s)

    def test_weights_with_a_leading_axis_give_the_bits_of_one_call_each(self):
        s = stack_scenarios([gen_scenario(30, 10, FeatureLayout(20, 0, 20), seed)
                             for seed in (0, 1)])
        w = np.stack([retrain_golden(s), train_original(s),
                      np.random.default_rng(2).standard_normal((2, 40))])
        rl, ul = measure_losses(w, s)
        assert np.shape(rl) == np.shape(ul) == (3, 2)
        for i, w_i in enumerate(w):
            assert _bits([rl[i], ul[i]]) == _bits(measure_losses(w_i, s))

    def test_non_finite_weights_raise_on_every_call(self):
        s = stack_scenarios([gen_scenario(30, 10, FeatureLayout(20, 0, 20), seed)
                             for seed in (0, 1)])
        w = np.stack([retrain_golden(s)] * 3)
        w[1, 1, 0] = np.inf
        for _ in range(2):
            with pytest.raises(InvalidMatrixError, match="^w contains non-finite entries$"):
                measure_losses(w, s)

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_finite_inputs_whose_losses_overflow_raise_invalid_matrix_error(self, stacked):
        # InvalidMatrixError is the package error that a seed's rerun
        # catches.  Residuals near 1e200 square past the float range.
        members = [gen_scenario(30, 10, FeatureLayout(16, 8, 16), seed) for seed in (0, 1)]
        s = stack_scenarios(members) if stacked else members[1]
        w = retrain_golden(s)
        # Huge weights (the last member's, for a stack), then huge data.
        huge_w = w.copy()
        huge_w[-1] = 1e200
        for w_bad, s_bad in ((huge_w, s), (w, dataclasses.replace(s, x_r=s.x_r * 1e200))):
            assert np.isfinite(w_bad).all() and np.isfinite(s_bad.x_r).all()
            # A failed check is not remembered: every call raises.
            for _ in range(2):
                with pytest.raises(InvalidMatrixError,
                                   match="^the loss of w on x_[rf] overflows$"):
                    measure_losses(w_bad, s_bad)
        if stacked:
            # The first member alone measures finite losses.
            assert np.isfinite(measure_losses(huge_w[0], members[0])).all()


class TestGapReport:
    PRED = (0.0, 0.5)

    def test_identical_values_pass_with_zero_gaps(self):
        measured = (0.0, 0.5)
        report = gap_report(measured, self.PRED)
        assert report.passed
        assert all(e.abs_gap == 0.0 and e.rel_gap == 0.0 for e in (report.rl, report.ul))

    def test_tiny_measurement_passes_absolute_floor(self):
        measured = (1e-12, 0.5)
        assert gap_report(measured, self.PRED).passed

    def test_relative_gap_failure(self):
        measured = (0.0, 0.6)
        report = gap_report(measured, self.PRED)
        assert not report.passed
        ul_entry = report.ul
        assert abs(ul_entry.rel_gap - 0.2) < 1e-12

    def test_edited_pair_within_the_floor(self):
        assert gap_report((0.0, 1.0 + 1e-11), (0.0, 1.0)).passed

    def test_entries_are_named(self):
        measured = (0.25, 0.5)
        report = gap_report(measured, self.PRED)
        assert (report.rl.abs_gap, report.ul.abs_gap) == (0.25, 0.0)
        assert not report.passed and not report.rl.ok and report.ul.ok


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestStackedReports:
    """A stacked measurement and its comparisons give each member, and each
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
        rl_gold, ul_gold = measure_losses(retrain_golden(stack), stack)
        by_nt = {start: [measure_losses(fine_tune_unlearn(w, *fine_tune_subset(stack, n_t)), stack)
                         for n_t in self.NT_VALUES]
                 for start, w in (("fine_tuned", w_o), ("edited", edited))}
        assert rl_gold.shape == ul_gold.shape == (3,)
        [edit_prediction] = predict_edited(stack, [option], self.NT_VALUES)
        for i, s in enumerate(scenarios):
            own_gold = measure_losses(retrain_golden(s), s)
            assert _bits([rl_gold[i], ul_gold[i]]) == _bits(own_gold)
            # One member's losses over n_t, as the row builders read them.
            series = {start: (np.array([rl[i] for rl, _ in pairs]),
                              np.array([ul[i] for _, ul in pairs]))
                      for start, pairs in by_nt.items()}
            # One member's predictions over n_t, as the verify pass slices them.
            over_nt = tuple(losses[i] for losses in edit_prediction)
            predictions = [(float(rl), float(ul)) for rl, ul in zip(*over_nt)]
            for measured, predicted, each in (
                    (series["fine_tuned"], FINE_TUNED, [FINE_TUNED] * len(self.NT_VALUES)),
                    (series["edited"], over_nt, predictions)):
                stacked = gap_report(measured, predicted)
                alone = [gap_report((float(rl), float(ul)), p)
                         for rl, ul, p in zip(*measured, each)]
                for name in ("rl", "ul"):
                    entry = getattr(stacked, name)
                    entries = [getattr(report, name) for report in alone]
                    for field in ("abs_gap", "rel_gap"):
                        stacked_field = np.broadcast_to(getattr(entry, field), len(entries))
                        assert _bits(stacked_field) == _bits(
                            [getattr(e, field) for e in entries]), (name, field)
                    assert entry.ok.tolist() == [e.ok for e in entries]
                assert stacked.passed is all(report.passed for report in alone) is True

    def test_zero_and_nan_predictions_compare_without_warnings(self):
        # Zero prediction: zero gap -> rel 0 and pass; nonzero gap -> rel inf
        # and fail.  NaN prediction: NaN gaps, and a fail.
        measured = (np.array([0.0, 0.5, 0.5]), np.array([0.0, 1e-12, 0.5]))
        predicted = (np.array([0.0, 0.0, np.nan]), np.array([0.0, 0.0, np.nan]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = gap_report(measured, predicted)
            alone = [gap_report((rl, ul), (p_rl, p_ul))
                     for rl, ul, p_rl, p_ul in zip(*(a.tolist() for a in (*measured, *predicted)))]
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
        report = gap_report((0.0, 0.6), TestGapReport.PRED)
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
            Metrics(ua=1.2, ra=0.0, ta=0.0)


class TestArrayHoldersCompareByIdentity:
    """The linear side's scenarios and gap entries hold arrays, so they
    compare, hash and test membership by identity instead of raising."""

    def test_equal_valued_holders_are_distinct_and_hashable(self):
        def scenario():
            return gen_scenario(5, 2, FeatureLayout(4, 0, 4), 0)

        for make in (scenario,
                     lambda: decompose_w_star(scenario()),
                     lambda: GapEntry(np.zeros(2), np.zeros(2), np.ones(2, bool))):
            first, second = make(), make()
            assert first == first and first != second
            assert first in [second, first] and first not in [second]
            assert hash(first) == hash(first) and len({first, second}) == 2
