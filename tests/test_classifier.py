"""Tests for the softmax classifier and its unlearning objectives."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from unlearn_lab import classifier, experiments
from unlearn_lab.cli import main
from unlearn_lab.classifier import (
    ClassTask,
    LabeledSet,
    SoftmaxClassifier,
    _ce_value_and_grad,
    _mixed_value_and_grad,
    _Objective,
    _Targets,
    fit_softmax,
    ft_coefficients,
    gen_class_task,
    objective_value_and_grad,
    pretrain,
    relabel_forget,
    run_seed_grid,
    softmax_probs,
    split_class,
    unlearn_ft,
)
from unlearn_lab.errors import DivergenceError
from unlearn_lab.metrics import accuracy


def _small_problem(seed, num_classes=5, dim=8, per_class=6):
    rng = np.random.default_rng(seed)
    m = num_classes * per_class
    remain = LabeledSet(
        features=rng.standard_normal((dim, m)),
        labels=rng.integers(0, num_classes, size=m).astype(np.int64),
    )
    forget = LabeledSet(
        features=rng.standard_normal((dim, per_class)),
        labels=rng.integers(0, num_classes, size=per_class).astype(np.int64),
    )
    weights = 0.3 * rng.standard_normal((num_classes, dim))
    bias = 0.1 * rng.standard_normal(num_classes)
    return remain, forget, weights, bias


def _fit_alone(weights, bias, value_and_grad, epochs, step_size):
    """Descend one model whose ``value_and_grad(w, b)`` takes 2-D parameters.

    The engine sees a one-member stack; the kernel sees the unstacked
    model, so this is the reference trajectory a stack member must match.
    """
    def stacked(w, b, _members):
        loss, grad_w, grad_b = value_and_grad(w[0], b[0])
        return np.asarray(loss)[None], grad_w[None], grad_b[None]

    w, b, trace = fit_softmax(weights[None], bias[None], stacked, epochs, step_size)
    return w[0], b[0], trace[0].tolist()


def _unlearn_pairs(model, pairs, remain, forget, epochs, step_size):
    """``unlearn_ft`` of (variant, alpha) pairs that all start from ``model``."""
    coefs = [ft_coefficients(variant, alpha) for variant, alpha in pairs]
    return unlearn_ft([model] * len(pairs), coefs, remain, forget, epochs, step_size)


class TestGenClassTask:
    def test_sizes(self):
        train, test = gen_class_task(2, 50, 4, sep=3.0, seed=0)
        assert train.size == 100 and test.size == 100

    def test_deterministic(self):
        a, _ = gen_class_task(3, 10, 5, sep=2.0, seed=9)
        b, _ = gen_class_task(3, 10, 5, sep=2.0, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_train_test_independent(self):
        train, test = gen_class_task(3, 10, 5, sep=2.0, seed=9)
        assert np.any(train.features != test.features)

    def test_wide_separation_is_learnable(self):
        train, _ = gen_class_task(4, 30, 8, sep=8.0, seed=1)
        model = pretrain(train, 300, 0.1)
        assert accuracy(model, train) > 0.99

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            gen_class_task(5, 10, 4, sep=2.0, seed=0)


class TestRelabelForget:
    def test_shift_by_one(self):
        np.testing.assert_array_equal(
            relabel_forget(np.array([0, 1, 2]), 3), [1, 2, 0]
        )

    def test_two_classes(self):
        np.testing.assert_array_equal(relabel_forget(np.array([1, 1]), 2), [0, 0])

    def test_never_a_fixed_point(self):
        rng = np.random.default_rng(2)
        for num_classes in range(2, 11):
            labels = rng.integers(0, num_classes, size=10_000)
            shifted = relabel_forget(labels, num_classes)
            assert np.all(shifted != labels)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            relabel_forget(np.array([0]), 1)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError):
            relabel_forget(np.array([0, 3]), 3)


class TestSoftmax:
    def test_valid_distribution(self):
        rng = np.random.default_rng(3)
        p = softmax_probs(rng.standard_normal((6, 40)) * 50)
        assert np.all(p >= 0.0)
        np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)


class TestGradients:
    def _finite_difference(self, value_fn, weights, bias, h=1e-6):
        grad_w = np.zeros_like(weights)
        for idx in np.ndindex(weights.shape):
            delta = np.zeros_like(weights)
            delta[idx] = h
            grad_w[idx] = (value_fn(weights + delta, bias) - value_fn(weights - delta, bias)) / (2 * h)
        grad_b = np.zeros_like(bias)
        for i in range(bias.size):
            delta = np.zeros_like(bias)
            delta[i] = h
            grad_b[i] = (value_fn(weights, bias + delta) - value_fn(weights, bias - delta)) / (2 * h)
        return grad_w, grad_b

    @pytest.mark.parametrize("variant", ["naive-ft", "kl-ft", "ce-ft", "ice-ft"])
    def test_analytic_matches_central_differences(self, variant):
        for seed in range(5):
            remain, forget, weights, bias = _small_problem(seed)
            alpha = 0.7

            def value(w, b):
                return objective_value_and_grad(w, b, remain, forget, variant, alpha)[0]

            _, grad_w, grad_b = objective_value_and_grad(
                weights, bias, remain, forget, variant, alpha
            )
            fd_w, fd_b = self._finite_difference(value, weights, bias)
            flat = np.concatenate([grad_w.ravel(), grad_b])
            fd = np.concatenate([fd_w.ravel(), fd_b])
            assert np.linalg.norm(flat - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-12)


class TestObjectiveStructure:
    def test_zero_alpha_equals_remain_term_bitwise(self):
        remain, forget, weights, bias = _small_problem(11)
        for variant in ("kl-ft", "ice-ft"):
            with_reg = objective_value_and_grad(weights, bias, remain, forget, variant, 0.0)
            naive = objective_value_and_grad(weights, bias, remain, forget, "naive-ft", 0.0)
            assert with_reg[0] == naive[0]
            np.testing.assert_array_equal(with_reg[1], naive[1])
            np.testing.assert_array_equal(with_reg[2], naive[2])

    def test_zero_alpha_trajectory_identical_to_naive(self):
        remain, forget, weights, bias = _small_problem(12)
        runs = {}
        for variant in ("naive-ft", "kl-ft", "ice-ft"):
            w, b, losses = _fit_alone(
                weights, bias,
                lambda w_, b_, v=variant: objective_value_and_grad(
                    w_, b_, remain, forget, v, 0.0
                ),
                epochs=60, step_size=0.2,
            )
            runs[variant] = (w, b, losses)
        for variant in ("kl-ft", "ice-ft"):
            np.testing.assert_array_equal(runs[variant][0], runs["naive-ft"][0])
            np.testing.assert_array_equal(runs[variant][1], runs["naive-ft"][1])
            assert runs[variant][2] == runs["naive-ft"][2]

    def test_kl_term_nonnegative_and_zero_at_fixed_point(self):
        remain, forget, _, _ = _small_problem(13)
        for seed in range(20):
            _, f, w, b = _small_problem(seed)
            loss, _, _ = objective_value_and_grad(w, b, remain, f, "kl-ft", 1.0)
            base, _, _ = objective_value_and_grad(w, b, remain, f, "naive-ft", 0.0)
            assert loss - base >= -1e-15  # the regularizer itself is >= 0

        # Saturated logits put all mass on the relabeled target, which is
        # the unique zero of the divergence.
        dim = forget.features.shape[0]
        target = forget.labels[0]
        bias = np.full(5, -1e4)
        bias[target] = 1e4
        logits_probs = softmax_probs(bias[:, None])
        assert logits_probs[target, 0] == 1.0
        one = LabeledSet(features=np.zeros((dim, 1)), labels=np.array([target]))
        loss, _, _ = objective_value_and_grad(
            np.zeros((5, dim)), bias, remain, one, "kl-ft", 1.0
        )
        base, _, _ = objective_value_and_grad(
            np.zeros((5, dim)), bias, remain, one, "naive-ft", 0.0
        )
        assert loss - base == 0.0

    def test_kl_of_one_hot_targets_equals_cross_entropy(self):
        # The kl-ft regularizer runs through the cross-entropy kernel; this
        # pins the identity it relies on, from the divergence formula.
        _, forget, weights, bias = _small_problem(16)
        logits = weights @ forget.features + bias[:, None]
        shifted = logits - logits.max(axis=0, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=0, keepdims=True))
        cols = np.arange(forget.size)
        onehot = np.zeros_like(log_p)
        onehot[forget.labels, cols] = 1.0
        # sum_c t_c * (log t_c - log p_c), with 0 * log 0 taken as 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(onehot > 0.0, onehot * (np.log(onehot) - log_p), 0.0)
        kl = terms.sum(axis=0).mean()
        kl_grad_logits = (softmax_probs(logits) - onehot) / forget.size

        ce, grad_w, grad_b = _ce_value_and_grad(weights, bias, forget)
        assert kl == ce
        np.testing.assert_array_equal(grad_w, kl_grad_logits @ forget.features.T)
        np.testing.assert_array_equal(grad_b, kl_grad_logits.sum(axis=1))


class TestFitEngine:
    def test_zero_epochs_returns_initial_parameters(self):
        train, _ = gen_class_task(3, 10, 5, sep=2.0, seed=4)
        model = pretrain(train, 0, 0.1)
        assert np.all(model.weights == 0.0) and np.all(model.bias == 0.0)

    def test_loss_non_increasing_for_small_steps(self):
        remain, forget, weights, bias = _small_problem(14)
        _, _, losses = _fit_alone(
            weights, bias,
            lambda w, b: objective_value_and_grad(w, b, remain, forget, "kl-ft", 0.5),
            epochs=200, step_size=0.05,
        )
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_deterministic_trajectories(self):
        remain, forget, weights, bias = _small_problem(15)
        results = []
        for _ in range(2):
            w, b, losses = _fit_alone(
                weights, bias,
                lambda w_, b_: objective_value_and_grad(
                    w_, b_, remain, forget, "ce-ft", 0.3
                ),
                epochs=120, step_size=0.1,
            )
            results.append((w.copy(), b.copy(), list(losses)))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])
        assert results[0][2] == results[1][2]

    def test_unstacked_parameters_rejected(self):
        remain, forget, weights, bias = _small_problem(18)
        with pytest.raises(ValueError, match="stack"):
            fit_softmax(
                weights, bias,
                lambda w, b, _members: objective_value_and_grad(
                    w, b, remain, forget, "naive-ft", 0.0
                ),
                epochs=5, step_size=0.1,
            )

    def test_divergence_raises_with_hint(self):
        broken = LabeledSet(
            features=np.array([[np.inf], [0.0]]), labels=np.array([0])
        )
        with pytest.raises(DivergenceError, match="step_size"):
            _fit_alone(
                np.ones((2, 2)), np.zeros(2),
                lambda w, b: objective_value_and_grad(
                    w, b, broken, broken, "naive-ft", 0.0
                ),
                epochs=5, step_size=0.1,
            )


class TestFtCoefficients:
    def test_alpha_range_enforced_for_regularized_variants(self):
        with pytest.raises(ValueError):
            ft_coefficients("kl-ft", 1.5)
        ft_coefficients("kl-ft", 0.0)  # regularizer off is allowed
        ft_coefficients("naive-ft", 7.0)  # ignored for naive

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ft_coefficients("gradient-ascent", 0.5)

    @pytest.mark.parametrize("alpha", [5.0, -1.0, float("nan")])
    def test_seed_grid_rejects_alpha_outside_the_unit_interval(self, alpha):
        # The grid checks alpha in ft_coefficients, before it generates or
        # pretrains anything.
        task = ClassTask(num_classes=3, per_class=5, feature_dim=4, sep=4.0, forget_class=0)
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            run_seed_grid(task, [("naive-ft", 0.0), ("kl-ft", alpha)], 0, 500, 0.1)
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            ft_coefficients("kl-ft", alpha)


class TestPipelineTrends:
    """One-seed smoke versions of the behavioral claims; the acceptance
    suite runs them across ten seeds."""

    TASK = ClassTask(num_classes=5, per_class=40, feature_dim=20, sep=4.0, forget_class=0)
    SCHEDULE = (250, 0.1)  # epochs, step_size

    def test_naive_ft_barely_forgets_while_retrain_does(self):
        [naive] = run_seed_grid(self.TASK, [("naive-ft", 0.0)], 0, *self.SCHEDULE)
        [golden] = run_seed_grid(self.TASK, [("retrain", 0.0)], 0, *self.SCHEDULE)
        assert golden.ua > 0.9
        assert naive.ua <= golden.ua - 0.3
        assert naive.ra > 0.95

    def test_regularized_ft_forgets_and_retains(self):
        [kl] = run_seed_grid(self.TASK, [("kl-ft", 0.5)], 0, *self.SCHEDULE)
        assert kl.ua >= 0.9
        assert kl.ra >= 0.9

    def test_golden_retrain_never_saw_the_class(self):
        [golden] = run_seed_grid(self.TASK, [("retrain", 0.0)], 1, *self.SCHEDULE)
        assert golden.ua > 0.9


class TestSplitClass:
    def test_partition(self):
        train, _ = gen_class_task(4, 5, 6, sep=2.0, seed=5)
        forget, remain = split_class(train, 2)
        assert forget.size == 5 and remain.size == 15
        assert np.all(forget.labels == 2)
        assert np.all(remain.labels != 2)


class TestUnlearnFtStartsFromPretrained:
    def test_zero_epoch_unlearning_returns_pretrained(self):
        train, _ = gen_class_task(3, 10, 5, sep=3.0, seed=6)
        forget, remain = split_class(train, 0)
        model = pretrain(train, 100, 0.1)
        [frozen] = unlearn_ft([model], [ft_coefficients("naive-ft", 0.5)], remain, forget, 0, 0.1)
        np.testing.assert_array_equal(frozen.weights, model.weights)
        np.testing.assert_array_equal(frozen.bias, model.bias)


class TestSeedGrid:
    """One seed's grid pretrains once and fine-tunes as one stack; every
    member must match the run it would get alone, bit for bit."""

    TASK = ClassTask(num_classes=4, per_class=15, feature_dim=6, sep=3.0, forget_class=1)
    SCHEDULE = (60, 0.2)  # epochs, step_size
    PAIRS = [
        ("retrain", 0.0), ("naive-ft", 0.5), ("kl-ft", 0.3), ("ce-ft", 0.3),
        ("ice-ft", 0.0), ("ice-ft", 0.8), ("ce-ft", 1.0), ("retrain", 0.9),
    ]

    def test_grid_equals_per_pair_trials(self):
        grid = run_seed_grid(self.TASK, self.PAIRS, 3, *self.SCHEDULE)
        assert len(grid) == len(self.PAIRS)
        for (variant, alpha), metrics in zip(self.PAIRS, grid):
            [alone] = run_seed_grid(self.TASK, [(variant, alpha)], 3, *self.SCHEDULE)
            assert (metrics.ua, metrics.ra, metrics.ta) == (alone.ua, alone.ra, alone.ta)

    def test_stacked_weights_equal_one_member_runs(self):
        train, _ = gen_class_task(4, 15, 6, sep=3.0, seed=3)
        forget, remain = split_class(train, 1)
        relabeled = LabeledSet(forget.features, relabel_forget(forget.labels, 4))
        model = pretrain(train, *self.SCHEDULE, num_classes=4)
        pairs = [(v, a) for v, a in self.PAIRS if v != "retrain"]
        stacked = _unlearn_pairs(model, pairs, remain, relabeled, *self.SCHEDULE)
        for (variant, alpha), member in zip(pairs, stacked):
            [alone] = _unlearn_pairs(model, [(variant, alpha)], remain, relabeled, *self.SCHEDULE)
            w, b, _ = _fit_alone(
                model.weights, model.bias,
                lambda w_, b_: objective_value_and_grad(
                    w_, b_, remain, relabeled, variant, alpha
                ),
                *self.SCHEDULE,
            )
            for other_w, other_b in ((alone.weights, alone.bias), (w, b)):
                np.testing.assert_array_equal(member.weights, other_w)
                np.testing.assert_array_equal(member.bias, other_b)

    def test_unknown_variant_rejected_before_any_work(self):
        with pytest.raises(ValueError, match="gradient-ascent"):
            run_seed_grid(
                self.TASK, [("kl-ft", 0.5), ("gradient-ascent", 0.5)], 0, *self.SCHEDULE)


def _reference_ce(weights, bias, data):
    """The cross-entropy kernel as first written: fancy-index gather and
    scatter of the targets and ``.mean`` for the loss.  The rewritten
    kernel must give these bits."""
    m = data.size
    cols = np.arange(m)
    z = np.matmul(weights, data.features)
    z += bias[..., None]
    z -= z.max(axis=-2, keepdims=True)
    shifted_target = z[..., data.labels, cols]
    np.exp(z, out=z)
    total = z.sum(axis=-2, keepdims=True)
    loss = -(shifted_target - np.log(total[..., 0, :])).mean(axis=-1)
    z /= total
    z[..., data.labels, cols] -= 1.0
    z /= m
    return loss, z @ data.features.T, z.sum(axis=-1)


def _reference_mixed(weights, bias, remain, forget, coef_r, coef_f):
    """The mixing as first written: nested ``np.where`` over the
    reference kernel's terms."""
    mixed = []
    for r, f in zip(_reference_ce(weights, bias, remain), _reference_ce(weights, bias, forget)):
        shape = np.shape(coef_r) + (1,) * (r.ndim - np.ndim(coef_r))
        c_r = np.reshape(coef_r, shape)
        c_f = np.reshape(coef_f, shape)
        mixed.append(np.where(c_f == 0.0, r, np.where(c_r == 0.0, f, c_r * r + c_f * f)))
    return tuple(mixed)


def _assert_same_bits(got, want):
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.array_equal(g, w, equal_nan=True)


class TestKernelExactness:
    """A member of a stacked cross-entropy evaluation gets the bits of its
    own 2-D evaluation.  Gemm results depend on the memory layout of the
    features, so both the layout ``split_class`` returns (Fortran order)
    and C order are held."""

    @pytest.mark.parametrize("layout", ["as-split", "c-order"])
    def test_stack_of_24_equals_each_member_alone(self, layout):
        train, _ = gen_class_task(5, 100, 20, sep=4.0, seed=0)
        rng = np.random.default_rng(8)
        weights = rng.standard_normal((24, 5, 20))
        bias = rng.standard_normal((24, 5))
        for data in split_class(train, 0):
            if layout == "c-order":
                data = LabeledSet(np.ascontiguousarray(data.features), data.labels)
            assert data.features.flags.f_contiguous == (layout == "as-split")
            assert data.features.flags.c_contiguous == (layout == "c-order")
            loss, grad_w, grad_b = _ce_value_and_grad(weights, bias, data)
            for i in range(24):
                alone = _ce_value_and_grad(weights[i], bias[i], data)
                assert np.array_equal(loss[i], alone[0])
                assert np.array_equal(grad_w[i], alone[1])
                assert np.array_equal(grad_b[i], alone[2])

    @staticmethod
    def _sets(layout):
        """A shipped-size remain set, a set whose labels miss the highest
        class, and a set of 1e308 features whose logits overflow."""
        train, _ = gen_class_task(5, 100, 20, sep=4.0, seed=2)
        _, remain = split_class(train, 0)
        rng = np.random.default_rng(5)
        sets = [
            remain,
            LabeledSet(rng.standard_normal((20, 30)), rng.integers(0, 4, size=30)),
            LabeledSet(np.full((20, 7), 1e308), np.arange(7) % 5),
        ]
        if layout == "c-order":
            sets = [LabeledSet(np.ascontiguousarray(s.features), s.labels) for s in sets]
        else:
            sets = [LabeledSet(np.asfortranarray(s.features), s.labels) for s in sets]
        assert 4 not in sets[1].labels
        return sets

    @pytest.mark.parametrize("layout", ["fortran-order", "c-order"])
    @pytest.mark.parametrize("stack", [1, 4, 24])
    def test_kernel_equals_the_reference_formula(self, layout, stack):
        rng = np.random.default_rng(stack)
        weights = rng.standard_normal((stack, 5, 20))
        bias = rng.standard_normal((stack, 5))
        for data in self._sets(layout):
            with np.errstate(all="ignore"):
                want = _reference_ce(weights, bias, data)
                _assert_same_bits(_ce_value_and_grad(weights, bias, data), want)
                # As a fit calls it: targets built once, one reused buffer.
                targets = _Targets.of(data, 5)
                buffer = np.empty((stack, 5, data.size))
                for _ in range(2):
                    _assert_same_bits(_ce_value_and_grad(weights, bias, targets, buffer), want)
                # An unstacked model.
                _assert_same_bits(
                    _ce_value_and_grad(weights[0], bias[0], targets),
                    _reference_ce(weights[0], bias[0], data))


class TestMixingExactness:
    """The one-pass mixing gives the bits of the nested ``np.where``
    formula, including where an unused term overflows."""

    # No objective weighs both terms zero; the row pins the where order.
    COEFS = np.array([(1.0, 0.0), (0.0, 1.0), (0.5, 1.0), (1.0, 0.5), (0.5, 0.0), (0.0, 0.0)])

    @staticmethod
    def _problem(overflow):
        train, _ = gen_class_task(5, 40, 20, sep=4.0, seed=1)
        forget, remain = split_class(train, 0)
        forget = LabeledSet(forget.features, relabel_forget(forget.labels, 5))
        if overflow:
            forget = LabeledSet(np.full_like(forget.features, 1e308), forget.labels)
        rng = np.random.default_rng(3)
        count = len(TestMixingExactness.COEFS)
        return remain, forget, rng.standard_normal((count, 5, 20)), rng.standard_normal((count, 5))

    @pytest.mark.parametrize("overflow", [False, True])
    def test_one_call_equals_the_nested_where(self, overflow):
        remain, forget, weights, bias = self._problem(overflow)
        c_r, c_f = self.COEFS.T
        with np.errstate(all="ignore"):
            want = _reference_mixed(weights, bias, remain, forget, c_r, c_f)
            _assert_same_bits(_mixed_value_and_grad(weights, bias, remain, forget, c_r, c_f), want)
        assert np.isfinite(want[0]).tolist() == [True, not overflow, not overflow,
                                                 not overflow, True, True]
        for i, (a, b) in enumerate(self.COEFS):
            with np.errstate(all="ignore"):
                _assert_same_bits(
                    _mixed_value_and_grad(weights[i], bias[i], remain, forget, a, b),
                    _reference_mixed(weights[i], bias[i], remain, forget, a, b))

    @pytest.mark.parametrize("overflow", [False, True])
    def test_a_fit_objective_equals_the_nested_where_after_the_stack_shrinks(self, overflow):
        remain, forget, weights, bias = self._problem(overflow)
        c_r, c_f = self.COEFS.T
        objective = _Objective(remain, forget, c_r, c_f, 5, len(self.COEFS))
        everyone = np.arange(len(self.COEFS))
        # The full stack, two shrunken ones as fit_softmax makes after a
        # divergence, then the full stack again on the reused buffers.
        for members in (everyone, np.array([1, 3, 5]), np.array([0]), everyone):
            with np.errstate(all="ignore"):
                got = objective(weights[members], bias[members], members)
                want = _reference_mixed(
                    weights[members], bias[members], remain, forget, c_r[members], c_f[members])
            _assert_same_bits(got, want)


@pytest.fixture
def fits(monkeypatch):
    """Every ``fit_softmax`` call made through the classifier module, as
    ``(stack size, members of each gradient evaluation)`` in call order."""
    calls = []
    real = classifier.fit_softmax

    def recording(weights, bias, value_and_grad, epochs, step_size):
        evaluations = []
        calls.append((weights.shape[0], evaluations))

        def counted(w, b, members):
            evaluations.append(members.tolist())
            return value_and_grad(w, b, members)

        return real(weights, bias, counted, epochs, step_size)

    monkeypatch.setattr(classifier, "fit_softmax", recording)
    return calls


class TestDistinctObjectives:
    """Each distinct (start, c_r, c_f) objective descends once per seed:
    kl-ft/ice-ft twins share a member, and retrain is the zero-start
    (1, 0) member of the same stack."""

    SCHEDULE = (100, 0.1)  # epochs, step_size

    @pytest.mark.parametrize("experiment,stacks", [
        ("sweep-alpha", [1, 16]),
        ("classifier-demo", [1, 4]),
    ])
    def test_a_shipped_seed_descends_each_objective_once(
        self, fits, monkeypatch, experiment, stacks
    ):
        # The fine-tune stack descends inside the seed's one unlearn_ft
        # call, where the benchmark's trace looks for it.
        inside = []
        real = classifier.unlearn_ft

        def recording(*args, **kwargs):
            before = len(fits)
            finals = real(*args, **kwargs)
            inside.append([size for size, _ in fits[before:]])
            return finals

        monkeypatch.setattr(classifier, "unlearn_ft", recording)
        path = Path(__file__).resolve().parents[1] / "configs" / (
            experiment.replace("-", "_") + ".json")
        cfg = experiments.load_config(path, experiment)
        cfg["seeds"], cfg["epochs"] = [0], 5
        experiments.run_experiment(experiment, cfg)
        assert [size for size, _ in fits] == stacks
        assert inside == [stacks[1:]]

    @staticmethod
    def _count_scoring(monkeypatch):
        scored = []
        real = classifier.classifier_metrics

        def counting(final, *args, **kwargs):
            scored.append(final)
            return real(final, *args, **kwargs)

        monkeypatch.setattr(classifier, "classifier_metrics", counting)
        return scored

    @pytest.mark.parametrize("experiment,distinct", [("sweep-alpha", 16), ("classifier-demo", 4)])
    def test_a_shipped_seed_scores_each_distinct_model_once(
        self, monkeypatch, experiment, distinct
    ):
        scored = self._count_scoring(monkeypatch)
        path = Path(__file__).resolve().parents[1] / "configs" / (
            experiment.replace("-", "_") + ".json")
        cfg = experiments.load_config(path, experiment)
        cfg["seeds"], cfg["epochs"] = [0], 5
        experiments.run_experiment(experiment, cfg)
        assert len(scored) == len({id(model) for model in scored}) == distinct

    def test_pairs_of_one_key_share_one_scoring_with_unchanged_metrics(self, monkeypatch):
        pairs = [("kl-ft", 0.3), ("retrain", 0.0), ("ice-ft", 0.3), ("naive-ft", 0.2),
                 ("retrain", 0.5), ("kl-ft", 0.0), ("ce-ft", 0.3)]
        task, schedule = TestSeedGrid.TASK, TestSeedGrid.SCHEDULE
        scored = self._count_scoring(monkeypatch)
        grid = run_seed_grid(task, pairs, 4, *schedule)
        # Keys: kl/ice at 0.3, retrain, naive/kl at 0, ce at 0.3.
        assert len(scored) == 4
        assert grid[0] is grid[2] and grid[1] is grid[4] and grid[3] is grid[5]
        for pair, metrics in zip(pairs, grid):
            [alone] = run_seed_grid(task, [pair], 4, *schedule)
            assert (metrics.ua, metrics.ra, metrics.ta) == (alone.ua, alone.ra, alone.ta)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_retrain_equals_pretrain_on_remain(self, fits, monkeypatch, seed):
        task = ClassTask(num_classes=5, per_class=100, feature_dim=20, sep=4.0, forget_class=0)
        train, _ = gen_class_task(
            task.num_classes, task.per_class, task.feature_dim, task.sep, seed)
        _, remain = split_class(train, task.forget_class)
        golden = pretrain(remain, *self.SCHEDULE, num_classes=task.num_classes)
        models = []
        real_metrics = classifier.classifier_metrics

        def capture(final, *args, **kwargs):
            models.append(final)
            return real_metrics(final, *args, **kwargs)

        monkeypatch.setattr(classifier, "classifier_metrics", capture)
        del fits[:]
        pairs = [("retrain", 0.0), ("naive-ft", 0.5), ("kl-ft", 0.5), ("ce-ft", 0.5)]
        run_seed_grid(task, pairs, seed, *self.SCHEDULE)
        assert [size for size, _ in fits] == [1, 4]
        assert np.array_equal(models[0].weights, golden.weights)
        assert np.array_equal(models[0].bias, golden.bias)

    def test_duplicated_objectives_share_one_member(self, fits):
        train, _ = gen_class_task(4, 15, 6, sep=3.0, seed=3)
        forget, remain = split_class(train, 1)
        relabeled = LabeledSet(forget.features, relabel_forget(forget.labels, 4))
        model = pretrain(train, *TestSeedGrid.SCHEDULE, num_classes=4)
        pairs = [("kl-ft", 0.3), ("ice-ft", 0.3), ("naive-ft", 0.7), ("kl-ft", 0.0),
                 ("ice-ft", 0.0), ("ce-ft", 0.3)]
        del fits[:]
        finals = _unlearn_pairs(model, pairs, remain, relabeled, 60, 0.2)
        assert [size for size, _ in fits] == [3]
        for group in ([0, 1], [2, 3, 4], [5]):
            for i in group:
                assert finals[i] is finals[group[0]]
                [alone] = _unlearn_pairs(model, [pairs[i]], remain, relabeled, 60, 0.2)
                for member in (finals[group[0]], alone):
                    np.testing.assert_array_equal(finals[i].weights, member.weights)
                    np.testing.assert_array_equal(finals[i].bias, member.bias)
        assert not np.array_equal(finals[0].weights, finals[2].weights)

    def test_a_diverging_objective_listed_twice_restarts_once(self, fits):
        remain, forget, weights, bias = _exploding_forget_problem()
        model = SoftmaxClassifier(weights=weights, bias=bias)
        epochs = TestStackedDivergence.EPOCHS
        pairs = [("ice-ft", 1.0), ("kl-ft", 1.0), ("ice-ft", 0.05)]
        finals = _unlearn_pairs(model, pairs, remain, forget, epochs, 0.1)
        [(size, evaluations)] = fits
        assert size == 2
        solo_calls = []

        def solo(w, b):
            solo_calls.append(1)
            return objective_value_and_grad(w, b, remain, forget, "ice-ft", 1.0)

        w, b, _ = _fit_alone(weights, bias, solo, epochs, 0.1)
        assert len(solo_calls) > epochs  # the objective needed halvings
        # Keys sort by (c_r, c_f), so member 1 is the (1, 1) objective.
        assert sum(1 in members for members in evaluations) == len(solo_calls)
        for final in finals[:2]:
            np.testing.assert_array_equal(final.weights, w)
            np.testing.assert_array_equal(final.bias, b)

        stuck = LabeledSet(
            features=np.full_like(forget.features, np.inf), labels=forget.labels
        )
        with pytest.raises(DivergenceError, match=r"loss of 1 model\(s\)"):
            _unlearn_pairs(model, pairs[:2], remain, stuck, epochs, 0.1)


class TestHardInputs:
    """Numerically hard tasks on the first seed of the shipped
    ``classifier-demo`` config, run through the CLI: each one either
    passes or fails loudly, never silently."""

    @staticmethod
    def _run(tmp_path, capsys, task_sep, **changes):
        path = Path(__file__).resolve().parents[1] / "configs" / "classifier_demo.json"
        payload = dict(json.loads(path.read_text()), seeds=[0], **changes)
        payload["task"]["sep"] = task_sep
        config, out = tmp_path / "config.json", tmp_path / "demo.csv"
        config.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["classifier-demo", "--config", str(config), "--out", str(out)])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        summary = json.loads(experiments.summary_path_for(out).read_text())
        return code, list(csv.DictReader(lines)), summary

    def test_huge_sep_and_step_halve_through_pretrain_then_fail_loudly(
        self, fits, tmp_path, capsys
    ):
        code, rows, summary = self._run(tmp_path, capsys, 1e150, step_size=1e10)
        (pretrain_size, pretrain_evals), (stack_size, _) = fits
        # The pretrain diverges, halves its step and recovers; the fine-tune
        # stack runs out of halvings and its seed fails with one entry.
        assert (pretrain_size, len(pretrain_evals), stack_size) == (1, 508, 4)
        assert code == 1 and rows == [] and summary["rows"] == 0
        [failure] = summary["failures"]
        assert failure["seed"] == 0 and failure["type"] == "DivergenceError"
        assert f"step size {1e10 / 2 ** classifier.MAX_HALVINGS:.3e}" in failure["message"]

    def test_wide_sep_rows_are_finite_with_perfect_remaining_accuracy(
        self, tmp_path, capsys
    ):
        code, rows, summary = self._run(tmp_path, capsys, 100.0)
        assert code == 0 and summary["failures"] == [] and len(rows) == 3 * 5
        measures = ("ua", "ra", "ta", "runtime_seconds")
        for row in rows:
            assert all(np.isfinite(float(row[name])) for name in measures)
            if row["seed"] != "std":
                assert float(row["ra"]) == float(row["ta"]) == 1.0


def _exploding_forget_problem():
    """A forget set with one enormous feature row that remain lacks.

    The forget logits grow by about ``step * c_f * scale**2`` per epoch, so
    at step 0.1 the larger regularizer weights overflow within a few
    epochs and need one or more halvings, while the smallest never does.
    """
    rng = np.random.default_rng(0)
    remain = LabeledSet(
        features=np.vstack([rng.standard_normal((2, 12)), np.zeros((1, 12))]),
        labels=np.arange(12) % 3,
    )
    forget = LabeledSet(
        features=np.vstack([rng.standard_normal((2, 4)), np.full((1, 4), 1e155)]),
        labels=np.array([0, 1, 2, 0]),
    )
    weights = 0.1 * rng.standard_normal((3, 3))
    weights[:, 2] = 0.0
    return remain, forget, weights, np.zeros(3)


class TestStackedDivergence:
    MEMBERS = [
        ("ice-ft", 0.05), ("ice-ft", 0.1), ("kl-ft", 0.4), ("ice-ft", 1.0),
        ("naive-ft", 0.0), ("ce-ft", 0.7),
    ]
    EPOCHS = 8

    def _stacked_run(self, remain, forget, weights, bias):
        coef = np.array([ft_coefficients(v, a) for v, a in self.MEMBERS])
        evaluations = np.zeros(len(self.MEMBERS), dtype=int)

        def value_and_grad(w, b, members):
            evaluations[members] += 1
            return _mixed_value_and_grad(
                w, b, remain, forget, coef[members, 0], coef[members, 1]
            )

        count = len(self.MEMBERS)
        w, b, trace = fit_softmax(
            np.repeat(weights[None], count, axis=0), np.repeat(bias[None], count, axis=0),
            value_and_grad, self.EPOCHS, 0.1,
        )
        return w, b, trace, evaluations

    def test_every_member_equals_its_own_run(self):
        remain, forget, weights, bias = _exploding_forget_problem()
        w, b, trace, evaluations = self._stacked_run(remain, forget, weights, bias)
        solo_evaluations = []
        for i, (variant, alpha) in enumerate(self.MEMBERS):
            calls = []

            def value_and_grad(w_, b_, v=variant, a=alpha):
                calls.append(1)
                return objective_value_and_grad(w_, b_, remain, forget, v, a)

            w_i, b_i, losses = _fit_alone(weights, bias, value_and_grad, self.EPOCHS, 0.1)
            np.testing.assert_array_equal(w[i], w_i)
            np.testing.assert_array_equal(b[i], b_i)
            assert trace[i].tolist() == losses
            solo_evaluations.append(len(calls))
        # Each member is evaluated exactly as often as alone: members that
        # never diverge run once, the others pay only for their own restarts.
        assert evaluations.tolist() == solo_evaluations
        assert evaluations[0] == self.EPOCHS
        assert evaluations[4] == self.EPOCHS  # naive-ft ignores the forget set
        assert (evaluations > self.EPOCHS).sum() >= 3
        assert len(set(evaluations.tolist())) >= 3  # different halving depths

    def test_unlearn_ft_matches_the_engine(self):
        remain, forget, weights, bias = _exploding_forget_problem()
        w, b, _, _ = self._stacked_run(remain, forget, weights, bias)
        model = SoftmaxClassifier(weights=weights, bias=bias)
        finals = _unlearn_pairs(model, self.MEMBERS, remain, forget, self.EPOCHS, 0.1)
        for i, member in enumerate(finals):
            np.testing.assert_array_equal(member.weights, w[i])
            np.testing.assert_array_equal(member.bias, b[i])

    def test_exhausted_halvings_raise(self):
        remain, forget, weights, bias = _exploding_forget_problem()
        stuck = LabeledSet(
            features=np.full_like(forget.features, np.inf), labels=forget.labels
        )
        model = SoftmaxClassifier(weights=weights, bias=bias)
        pairs = [("naive-ft", 0.5), ("ice-ft", 0.5)]
        with pytest.raises(DivergenceError, match="step_size"):
            _unlearn_pairs(model, pairs, remain, stuck, 3, 0.1)

    def test_unused_overflowing_forget_term_never_restarts(self):
        remain, _, weights, bias = _small_problem(17, num_classes=3, dim=4)
        huge = LabeledSet(features=np.full((4, 3), 1e308), labels=np.array([0, 1, 2]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(_ce_value_and_grad(weights, bias, huge)[0])
        members = [("naive-ft", 0.5), ("kl-ft", 0.0), ("ice-ft", 0.0)]
        coef = np.array([ft_coefficients(v, a) for v, a in members])
        calls = []

        def value_and_grad(w, b, idx):
            calls.append(idx.tolist())
            return _mixed_value_and_grad(w, b, remain, huge, coef[idx, 0], coef[idx, 1])

        w, b, _ = fit_softmax(
            np.repeat(weights[None], 3, axis=0), np.repeat(bias[None], 3, axis=0),
            value_and_grad, 25, 0.1,
        )
        assert calls == [[0, 1, 2]] * 25
        w_naive, b_naive, _ = _fit_alone(
            weights, bias, lambda w_, b_: _ce_value_and_grad(w_, b_, remain), 25, 0.1
        )
        for i in range(3):
            np.testing.assert_array_equal(w[i], w_naive)
            np.testing.assert_array_equal(b[i], b_naive)
