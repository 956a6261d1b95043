"""Tests for the softmax classifier and its unlearning objectives."""

import csv
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearn_lab import classifier, experiments
from unlearn_lab.cli import main
from unlearn_lab.classifier import (
    ClassTask,
    LabeledSet,
    SoftmaxClassifier,
    _Objective,
    _StackCE,
    ft_coefficients,
    gen_class_task,
    pretrain,
    relabel_forget,
    run_seed_grid,
    split_class,
    unlearn_ft,
)
from unlearn_lab.errors import DivergenceError
from unlearn_lab.experiments import FIELDS, validate_config
from unlearn_lab.linalg import TOL_IDEM, projector
from unlearn_lab.metrics import accuracy

from softmax_reference import (
    _mixed_value_and_grad,
    ce_value_and_grad,
    fit_softmax_split,
    kernel,
    objective_value_and_grad,
    pack,
    softmax_probs,
    split,
)
from strategies import distinct_entries, distinct_integers, distinct_seeds


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
    def stacked(w, b):
        loss, grad_w, grad_b = value_and_grad(w[0], b[0])
        return np.asarray(loss)[None], grad_w[None], grad_b[None]

    w, b, trace = fit_softmax_split(weights[None], bias[None], stacked, epochs, step_size)
    return w[0], b[0], trace[0].tolist()


def _attempts(finite):
    """The length of each attempt of a one-member fit whose evaluations
    gave the losses flagged ``finite``, in order: an attempt ends at its
    first non-finite loss, and the last one runs every epoch."""
    lengths = [0]
    for ok in finite:
        lengths[-1] += 1
        if not ok:
            lengths.append(0)
    return lengths


def _stack_evaluations(attempts):
    """The evaluations of a stack whose members alone take ``attempts``.

    The stack restarts once every member still owed a result has
    diverged, so its attempt ``a`` lasts as long as the longest attempt
    ``a`` of the members that get one."""
    return sum(max(own[a] for own in attempts if len(own) > a)
               for a in range(max(map(len, attempts))))


def _objective_alone(weights, bias, remain, forget, variant, alpha, epochs, step_size):
    """``_fit_alone`` of one objective; returns its weights, bias, trace
    and the length of each of its attempts."""
    finite = []

    def value_and_grad(w, b):
        loss, grad_w, grad_b = objective_value_and_grad(w, b, remain, forget, variant, alpha)
        finite.append(np.isfinite(loss))
        return loss, grad_w, grad_b

    return (*_fit_alone(weights, bias, value_and_grad, epochs, step_size), _attempts(finite))


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
        # The logits of [W | b] @ [X; 1], the product the kernel makes.
        params = pack(weights, bias)
        features = np.vstack([forget.features, np.ones(forget.size)])
        logits = params @ features
        shifted = logits - logits.max(axis=0, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=0, keepdims=True))
        cols = np.arange(forget.size)
        onehot = np.zeros_like(log_p)
        onehot[forget.labels, cols] = 1.0
        # sum_c t_c * (log t_c - log p_c), with 0 * log 0 taken as 0.
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(onehot > 0.0, onehot * (np.log(onehot) - log_p), 0.0)
        kl = terms.sum(axis=0).mean()
        kl_grad = (softmax_probs(logits) - onehot) @ features.T / forget.size

        ce, grad = kernel(params, forget)
        assert kl == ce
        np.testing.assert_array_equal(grad, kl_grad)


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

    def test_a_fit_holds_no_memory_per_epoch(self):
        # A fit returns only its final parameters, so its peak does not grow
        # with its epochs: a 16-member stack's losses over 10,000 epochs
        # would take 1.28 MB.
        def value_and_grad(p):
            return np.zeros(p.shape[:-2]), np.zeros_like(p)

        params, peaks = np.zeros((16, 5, 21)), []
        # A first call makes numpy's and Python's one-time allocations.
        classifier.fit_softmax(params, value_and_grad, 10, 0.1)
        for epochs in (10, 10_000):
            tracemalloc.start()
            try:
                classifier.fit_softmax(params, value_and_grad, epochs, 0.1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Epoch counts above 256 are int objects of their own: a few bytes.
        assert abs(peaks[1] - peaks[0]) < 1024

    def test_labels_outside_the_classes_are_rejected(self):
        # Checked once per fit: a label of -1 would write the last class's
        # one-hot entry but take its target from the logits' first entry.
        train, _ = gen_class_task(5, 4, 5, sep=2.0, seed=0)
        with pytest.raises(ValueError, match=r"labels outside \[0, 2\)"):
            pretrain(train, 3, 0.1, num_classes=2)
        model = pretrain(train, 3, 0.1)
        forget, remain = split_class(train, 4)
        wrapped = LabeledSet(forget.features, np.full(forget.size, -1))
        with pytest.raises(ValueError, match=r"labels outside \[0, 5\)"):
            unlearn_ft([model], [(1.0, 0.5)], remain, wrapped, 3, 0.1)

    def test_unstacked_parameters_rejected(self):
        remain, forget, weights, bias = _small_problem(18)
        with pytest.raises(ValueError, match="stack"):
            fit_softmax_split(
                weights, bias,
                lambda w, b: objective_value_and_grad(
                    w, b, remain, forget, "naive-ft", 0.0
                ),
                epochs=5, step_size=0.1,
            )

    def test_a_diverged_member_descends_on_without_a_warning(self):
        # Member 1 diverges at once and descends with member 0 until the
        # epochs end: its infinite gradients take its parameter to +inf and
        # then to NaN (inf - inf), which must not warn.  It then runs out of
        # halvings, one evaluation per attempt.
        calls = []

        def value_and_grad(p):
            calls.append(p.shape)
            grad = np.zeros_like(p)
            grad[1] = (-1.0) ** len(calls) * np.inf
            return np.array([1.0, np.nan]), grad

        with pytest.raises(DivergenceError, match=r"loss of 1 model\(s\) .* 3\.125e-03;"):
            classifier.fit_softmax(np.zeros((2, 1, 1)), value_and_grad, 3, 0.1)
        assert calls == [(2, 1, 1)] * (3 + classifier.MAX_HALVINGS)

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
            run_seed_grid(task, [("naive-ft", 0.0), ("kl-ft", alpha)], [0], 500, 0.1)
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            ft_coefficients("kl-ft", alpha)


class TestPipelineTrends:
    """One-seed smoke versions of the behavioral claims; the acceptance
    suite runs them across ten seeds."""

    TASK = ClassTask(num_classes=5, per_class=40, feature_dim=20, sep=4.0, forget_class=0)
    SCHEDULE = (250, 0.1)  # epochs, step_size

    def test_naive_ft_barely_forgets_while_retrain_does(self):
        [naive] = run_seed_grid(self.TASK, [("naive-ft", 0.0)], [0], *self.SCHEDULE)[0]
        [golden] = run_seed_grid(self.TASK, [("retrain", 0.0)], [0], *self.SCHEDULE)[0]
        assert golden.ua > 0.9
        assert naive.ua <= golden.ua - 0.3
        assert naive.ra > 0.95

    def test_regularized_ft_forgets_and_retains(self):
        [kl] = run_seed_grid(self.TASK, [("kl-ft", 0.5)], [0], *self.SCHEDULE)[0]
        assert kl.ua >= 0.9
        assert kl.ra >= 0.9

    def test_golden_retrain_never_saw_the_class(self):
        [golden] = run_seed_grid(self.TASK, [("retrain", 0.0)], [1], *self.SCHEDULE)[1]
        assert golden.ua > 0.9


class TestSplitClass:
    def test_partition(self):
        train, _ = gen_class_task(4, 5, 6, sep=2.0, seed=5)
        forget, remain = split_class(train, 2)
        assert forget.size == 5 and remain.size == 15
        assert np.all(forget.labels == 2)
        assert np.all(remain.labels != 2)


class TestArrayHoldersCompareByIdentity:
    """Sets, models and cross-entropy passes hold arrays, so they compare,
    hash and test membership by identity instead of raising."""

    def test_equal_valued_holders_are_distinct_and_hashable(self):
        train, _ = gen_class_task(3, 4, 5, sep=2.0, seed=0)
        weights, bias = np.ones((3, 5)), np.zeros(3)
        for make in (lambda: LabeledSet(train.features.copy(), train.labels.copy()),
                     lambda: SoftmaxClassifier(weights.copy(), bias.copy()),
                     lambda: _StackCE(train, 3, (1,))):
            first, second = make(), make()
            assert first == first and first != second
            assert first in [second, first] and first not in [second]
            assert hash(first) == hash(first) and len({first, second}) == 2


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
        grid = run_seed_grid(self.TASK, self.PAIRS, [3], *self.SCHEDULE)[3]
        assert len(grid) == len(self.PAIRS)
        for (variant, alpha), metrics in zip(self.PAIRS, grid):
            [alone] = run_seed_grid(self.TASK, [(variant, alpha)], [3], *self.SCHEDULE)[3]
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
                self.TASK, [("kl-ft", 0.5), ("gradient-ascent", 0.5)], [0], *self.SCHEDULE)


def _reference_ce(params, data):
    """The cross-entropy kernel written plainly, in its operation order:
    the bias as a ones row of the features, fancy-index gather and scatter
    of the targets, ``.mean`` for the loss and ``/ m`` after the gradient
    gemm.  The kernel must give these bits."""
    m = data.size
    cols = np.arange(m)
    features = np.concatenate([data.features, np.ones(data.features.shape[:-2] + (1, m))], axis=-2)
    z = params @ features
    z -= z.max(axis=-2, keepdims=True)
    shifted_target = z[..., data.labels, cols]
    np.exp(z, out=z)
    total = z.sum(axis=-2, keepdims=True)
    loss = -(shifted_target - np.log(total[..., 0, :])).mean(axis=-1)
    z /= total
    z[..., data.labels, cols] -= 1.0
    return loss, z @ np.swapaxes(features, -1, -2) / m


def _first_written_ce(weights, bias, data):
    """The cross-entropy kernel as first written, with weights and bias
    apart: the bias added to the logits, ``/ m`` on the logit gradient and
    a sum over it for the bias gradient.  Its rounding differs from the
    kernel's, so it checks the kernel to a tolerance."""
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


def _reference_mixed(params, remain, forget, coef_r, coef_f):
    """The mixing as first written: nested ``np.where`` over the
    reference kernel's terms."""
    mixed = []
    for r, f in zip(_reference_ce(params, remain), _reference_ce(params, forget)):
        shape = np.shape(coef_r) + (1,) * (r.ndim - np.ndim(coef_r))
        c_r = np.reshape(coef_r, shape)
        c_f = np.reshape(coef_f, shape)
        mixed.append(np.where(c_f == 0.0, r, np.where(c_r == 0.0, f, c_r * r + c_f * f)))
    return tuple(mixed)


def _assert_same_bits(got, want):
    assert len(got) == len(want) in (2, 3)
    for g, w in zip(got, want):
        assert np.shape(g) == np.shape(w)
        assert np.array_equal(g, w, equal_nan=True)


class TestKernelExactness:
    """A member of a stacked cross-entropy evaluation gets the bits of its
    own 2-D evaluation.  Gemm results depend on the memory layout of the
    features; a :class:`LabeledSet` holds them in C order, both as
    ``split_class`` returns them and as an explicit C-ordered copy
    (:class:`TestLayoutContract` holds other layouts to the same bits)."""

    @pytest.mark.parametrize("layout", ["as-split", "c-order"])
    def test_stack_of_24_equals_each_member_alone(self, layout):
        train, _ = gen_class_task(5, 100, 20, sep=4.0, seed=0)
        rng = np.random.default_rng(8)
        params = pack(rng.standard_normal((24, 5, 20)), rng.standard_normal((24, 5)))
        for data in split_class(train, 0):
            if layout == "c-order":
                data = LabeledSet(np.ascontiguousarray(data.features), data.labels)
            assert data.features.flags.c_contiguous
            assert not data.features.flags.f_contiguous
            loss, grad = kernel(params, data)
            for i in range(24):
                alone = kernel(params[i], data)
                assert np.array_equal(loss[i], alone[0])
                assert np.array_equal(grad[i], alone[1])

    @staticmethod
    def _sets(layout):
        """A shipped-size remain set, a set whose labels miss the highest
        class, and a set of 1e308 features whose logits overflow, built
        from features in ``layout``; every set holds them in C order."""
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
        assert all(s.features.flags.c_contiguous for s in sets)
        return sets

    @pytest.mark.parametrize("layout", ["fortran-order", "c-order"])
    @pytest.mark.parametrize("stack", [1, 4, 24])
    def test_kernel_equals_the_reference_formula(self, layout, stack):
        rng = np.random.default_rng(stack)
        params = pack(rng.standard_normal((stack, 5, 20)), rng.standard_normal((stack, 5)))
        for data in self._sets(layout):
            with np.errstate(all="ignore"):
                want = _reference_ce(params, data)
                _assert_same_bits(kernel(params, data), want)
                # As a fit calls it: one pass built once, its buffers reused.
                term = _StackCE(data, 5, (stack,))
                for _ in range(2):
                    _assert_same_bits(term(params), want)
                # An unstacked model.
                _assert_same_bits(kernel(params[0], data), _reference_ce(params[0], data))

    @pytest.mark.parametrize("stack", [1, 4, 24])
    def test_kernel_is_close_to_the_formula_as_first_written(self, stack):
        # The 1e308 set overflows, so only the finite sets compare.  The two
        # orders differ by a few eps of each output's largest entry (at most
        # 3.2 over 30 draws of these sets); small gradient entries cancel,
        # so the bound is on that scale, not on each entry's own.
        rng = np.random.default_rng(stack)
        weights, bias = rng.standard_normal((stack, 5, 20)), rng.standard_normal((stack, 5))
        for data in self._sets("c-order")[:2]:
            got = split(*kernel(pack(weights, bias), data))
            for g, w in zip(got, _first_written_ce(weights, bias, data)):
                assert np.isfinite(w).all()
                bound = 16 * np.finfo(np.float64).eps * np.abs(w).max()
                np.testing.assert_allclose(g, w, rtol=0.0, atol=bound)


class TestOnesRowContract:
    """A fit reads each set as C-contiguous ``(..., D + 1, m)`` features
    whose last row is exactly 1.0, built once per set per fit, and carries
    each model as ``(K, D + 1)`` parameters whose last column is the bias:
    the models it returns hold those columns apart, bit for bit."""

    @staticmethod
    def _stacked_sets():
        sets = []
        for seed in (0, 1):
            train, _ = gen_class_task(4, 6, 5, sep=3.0, seed=seed)
            forget, remain = split_class(train, 1)
            sets.append([train, remain, LabeledSet(forget.features,
                                                   relabel_forget(forget.labels, 4))])
        return [LabeledSet(np.stack([a.features, b.features]), a.labels)
                for a, b in zip(*sets)]

    def test_targets_append_a_ones_row_to_c_contiguous_features(self):
        train, _ = gen_class_task(4, 6, 5, sep=3.0, seed=0)
        fortran = LabeledSet(np.asfortranarray(train.features), train.labels)
        for data in (train, *split_class(train, 1), fortran, *self._stacked_sets()):
            features = _StackCE(data, 4, data.features.shape[:-2] + (1,)).features
            assert features.shape == data.features.shape[:-2] + (6, data.size)
            assert features.flags.c_contiguous
            assert np.array_equal(features[..., :-1, :], data.features)
            assert np.all(features[..., -1, :] == 1.0)

    def test_one_build_per_set_per_fit_and_the_bias_is_the_last_column(self, monkeypatch):
        train, remain, relabeled = self._stacked_sets()
        built, fitted = [], []
        real_init, real_fit = _StackCE.__init__, classifier.fit_softmax

        def counting(self, data, num_classes, lead):
            built.append(data if isinstance(data, LabeledSet) else tuple(data))
            real_init(self, data, num_classes, lead)

        def keeping(*args, **kwargs):
            params = real_fit(*args, **kwargs)
            fitted.append(params)
            return params

        monkeypatch.setattr(_StackCE, "__init__", counting)
        monkeypatch.setattr(classifier, "fit_softmax", keeping)
        model = pretrain(train, 20, 0.1, num_classes=4)
        assert built == [train]
        coefs = [ft_coefficients("naive-ft", 0.0), ft_coefficients("kl-ft", 0.5)]
        finals = unlearn_ft([model, model], coefs, remain, relabeled, 20, 0.1)
        # The fine-tune builds its two sets once, as one joint pass.
        assert built == [train, (remain, relabeled)]
        # The stacks keep their seed axis: (S, 1, K, D + 1), then (S, M, K, D + 1).
        assert [params.shape for params in fitted] == [(2, 1, 4, 6), (2, 2, 4, 6)]
        pretrained, tuned = fitted
        for got, params in ((model, pretrained[:, 0]), *zip(finals, np.swapaxes(tuned, 0, 1))):
            assert np.array_equal(got.weights, params[..., :-1])
            assert np.array_equal(got.bias, params[..., -1])


class TestJointPass:
    """The fine-tune reads its remain and forget sets as the two segments
    of one :class:`_StackCE`, and an epoch makes one cross-entropy pass
    over both: each segment gets the bits of a pass over its own set.
    The draws reach the cases where numpy and the BLAS change their order
    of summation: segments of one column, at least eight classes, and
    column counts that leave a remainder of the BLAS's column blocks."""

    def test_an_epoch_makes_one_kernel_call(self, monkeypatch):
        train, remain, relabeled = TestOnesRowContract._stacked_sets()
        model = pretrain(train, 5, 0.1, num_classes=4)
        calls = []
        real = _StackCE.__call__

        def counting(self, params):
            calls.append(tuple(m for m, *_ in self.segments))
            return real(self, params)

        monkeypatch.setattr(_StackCE, "__call__", counting)
        pairs = [("naive-ft", 0.0), ("kl-ft", 0.5), ("ce-ft", 0.5)]
        _unlearn_pairs(model, pairs, remain, relabeled, 7, 0.1)
        assert calls == [(remain.size, relabeled.size)] * 7

    def test_a_call_reuses_the_buffers_of_the_pass(self):
        # A fresh stack-sized logits buffer per epoch let the allocator unmap
        # and remap its pages: about 10x the minor faults and a 25% slower
        # fine-tune.  So a call after the first allocates only its outputs.
        train, _ = gen_class_task(5, 100, 20, sep=4.0, seed=0)
        forget, remain = split_class(train, 0)
        relabeled = LabeledSet(forget.features, relabel_forget(forget.labels, 5))
        sets = [LabeledSet(s.features[None], s.labels) for s in (remain, relabeled)]
        term = _StackCE(sets, 5, (1, 16))
        params = np.random.default_rng(0).standard_normal((1, 16, 5, 21))
        term(params)
        tracemalloc.start()
        try:
            term(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert term.z.shape == (5, 1, 16, remain.size + relabeled.size)
        assert peak < term.z.nbytes

    def test_the_logits_are_held_class_first(self):
        # Held class-first, every per-column value broadcasts over the
        # buffer's leading axis alone, and the one-hot is subtracted as a
        # same-shape pass.
        train, _ = gen_class_task(4, 5, 4, sep=3.0, seed=1)
        forget, remain = split_class(train, 2)
        relabeled = LabeledSet(forget.features, relabel_forget(forget.labels, 4))
        lead, sets = (2, 3), [LabeledSet(np.stack([s.features] * 2), s.labels)
                              for s in (remain, relabeled)]
        labels = np.concatenate([remain.labels, relabeled.labels])
        m, cols = labels.size, np.arange(labels.size)
        term = _StackCE(sets, 4, lead)
        assert term.z.shape == term.onehot.shape == (4,) + lead + (m,)
        assert term.z.flags.c_contiguous
        logits = np.moveaxis(term.z, 0, -2)
        onehot = np.zeros(lead + (4, m))
        onehot[..., labels, cols] = 1.0
        assert np.array_equal(np.moveaxis(term.onehot, 0, -2), onehot)
        # The flat take gathers each member's targets from the buffer.
        term.z[...] = np.arange(term.z.size).reshape(term.z.shape)
        assert np.array_equal(term.z.take(term.target_index), logits[..., labels, cols])
        params = np.random.default_rng(2).standard_normal(lead + (4, 5))
        got = term(params)
        # The forward gemms write the (*lead, K, m) view, which holds the
        # logit gradient at the end, and the gradient gemms read it.
        features = term.features[:, None]
        want = softmax_probs(params @ features) - onehot
        np.testing.assert_allclose(logits, want, rtol=0.0, atol=1e-15)
        for (lo, hi), grad in zip(((0, remain.size), (remain.size, m)), got[1::2]):
            assert np.array_equal(
                grad, logits[..., lo:hi] @ np.swapaxes(features[..., lo:hi], -1, -2) / (hi - lo))

    def test_a_lone_column_sums_its_classes_as_its_own_pass(self):
        # A one-column forget segment of 12 classes: over the class-first
        # buffer numpy adds a column's classes row by row, and a pass over
        # the column alone adds them pairwise.  The draw is one where the
        # two orders differ, so only the lone re-sum gives the member its
        # own pass's bits.
        num_classes, lead = 12, (2, 3)
        rng = np.random.default_rng(3)
        remain = LabeledSet(rng.standard_normal((2, 4, 9)), rng.integers(0, num_classes, size=9))
        forget = LabeledSet(rng.standard_normal((2, 4, 1)), np.array([7]))
        params = pack(rng.standard_normal(lead + (num_classes, 4)),
                      rng.standard_normal(lead + (num_classes,)))
        z = params @ np.concatenate([forget.features, np.ones((2, 1, 1))], axis=-2)[:, None]
        exp = np.exp(z - z.max(axis=-2, keepdims=True))[..., 0]
        row_by_row = np.add.reduce(np.ascontiguousarray(np.moveaxis(exp, -1, 0)), axis=0)
        assert not np.array_equal(row_by_row, np.add.reduce(exp, axis=-1))
        got = _StackCE([remain, forget], num_classes, lead)(params)
        for member in np.ndindex(lead):
            for segment, s in zip((got[:2], got[2:]), (remain, forget)):
                own = LabeledSet(s.features[member[:-1]], s.labels)
                _assert_same_bits([term[member] for term in segment],
                                  kernel(params[member], own))

    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.integers(0, 3), members=st.integers(1, 5), num_classes=st.integers(2, 12),
        dim=st.integers(1, 6), m_r=st.integers(1, 12), m_f=st.integers(1, 8),
        draw_seed=st.integers(0, 2**32 - 1),
    )
    def test_each_segment_equals_a_pass_over_its_own_set(
        self, seeds, members, num_classes, dim, m_r, m_f, draw_seed
    ):
        # Zero seeds draws unstacked (D, m) sets and an (M, K, D + 1) stack.
        rng = np.random.default_rng(draw_seed)
        lead = (seeds, members) if seeds else (members,)
        sets = [LabeledSet(3.0 * rng.standard_normal(lead[:-1] + (dim, m)),
                           rng.integers(0, num_classes, size=m))
                for m in (m_r, m_f)]
        params = pack(rng.standard_normal(lead + (num_classes, dim)),
                      rng.standard_normal(lead + (num_classes,)))
        joint = classifier._StackCE(sets, num_classes, lead)
        alone = [classifier._StackCE(s, num_classes, lead) for s in sets]
        # Twice: the second call runs on the buffers the first one used.
        for _ in range(2):
            got = joint(params)
            assert len(got) == 4
            for segment, s, separate in zip((got[:2], got[2:]), sets, alone):
                _assert_same_bits(segment, separate(params))
                for member in np.ndindex(lead):
                    own = LabeledSet(s.features[member[:-1]], s.labels)
                    _assert_same_bits([term[member] for term in segment],
                                      kernel(params[member], own))


class TestLayoutContract:
    """A :class:`LabeledSet` holds C-contiguous features whatever layout it
    is given, so every set of the pipeline reaches the kernel in one
    layout and features given in Fortran order give the bits of their
    C-ordered copy: through the kernel, through a fit and through
    :func:`run_seed_grid`."""

    TASK = ClassTask(num_classes=5, per_class=40, feature_dim=20, sep=4.0, forget_class=0)
    PAIRS = [("retrain", 0.0), ("naive-ft", 0.5), ("kl-ft", 0.3), ("ice-ft", 0.3),
             ("ce-ft", 0.6)]

    @staticmethod
    def _fortran(data):
        features = np.asfortranarray(data.features)
        assert not features.flags.c_contiguous
        return LabeledSet(features, data.labels)

    def test_the_pipeline_sets_hold_c_contiguous_features(self, monkeypatch):
        train, test = gen_class_task(5, 40, 20, 4.0, seed=0)
        forget, remain = split_class(train, 0)
        relabeled = LabeledSet(forget.features, relabel_forget(forget.labels, 5))
        sets = [train, test, forget, remain, relabeled, *split_class(test, 0)]
        # run_seed_grid's stacked sets, as pretrain and unlearn_ft receive them.
        stacked = []
        real_pretrain, real_unlearn_ft = classifier.pretrain, classifier.unlearn_ft

        def pretrain_spy(train, *args, **kwargs):
            stacked.append(train)
            return real_pretrain(train, *args, **kwargs)

        def unlearn_ft_spy(starts, coefs, remain, forget, *args):
            stacked.extend([remain, forget])
            return real_unlearn_ft(starts, coefs, remain, forget, *args)

        monkeypatch.setattr(classifier, "pretrain", pretrain_spy)
        monkeypatch.setattr(classifier, "unlearn_ft", unlearn_ft_spy)
        run_seed_grid(self.TASK, self.PAIRS, [0, 1], 5, 0.1)
        assert [data.features.shape[0] for data in stacked] == [2, 2, 2]
        for data in sets + stacked:
            assert data.features.flags.c_contiguous

    def test_a_fortran_ordered_input_gives_the_bits_of_its_c_copy(self):
        train, _ = gen_class_task(5, 40, 20, 4.0, seed=4)
        other, _ = gen_class_task(5, 40, 20, 4.0, seed=5)
        c_sets = []
        for data in (train, other):
            forget, remain = split_class(data, 0)
            relabeled = LabeledSet(forget.features, relabel_forget(forget.labels, 5))
            c_sets.append([data, remain, relabeled])
        # Two seeds' sets stacked as run_seed_grid stacks them.
        c_sets.append([LabeledSet(np.stack([a.features, b.features]), a.labels)
                       for a, b in zip(*c_sets)])
        rng = np.random.default_rng(11)
        weights, bias = rng.standard_normal((6, 5, 20)), rng.standard_normal((6, 5))
        for sets in c_sets[:2]:
            for data in sets:
                fortran = self._fortran(data)
                for w, b in ((weights, bias), (weights[0], bias[0])):
                    _assert_same_bits(ce_value_and_grad(w, b, fortran),
                                      ce_value_and_grad(w, b, data))

        def fit(train, remain, relabeled):
            model = pretrain(train, 50, 0.1, num_classes=5)
            pairs = [("kl-ft", 0.3), ("ce-ft", 0.6), ("naive-ft", 0.0)]
            return [model, *_unlearn_pairs(model, pairs, remain, relabeled, 50, 0.1)]

        for sets in c_sets:
            for got, want in zip(fit(*map(self._fortran, sets)), fit(*sets)):
                assert np.array_equal(got.weights, want.weights)
                assert np.array_equal(got.bias, want.bias)

    def test_run_seed_grid_on_fortran_ordered_tasks_gives_the_same_models(self, monkeypatch):
        real_metrics, real_task = classifier.classifier_metrics, classifier.gen_class_task

        def run():
            scored = []

            def capture(final, *args, **kwargs):
                scored.append(final)
                return real_metrics(final, *args, **kwargs)

            monkeypatch.setattr(classifier, "classifier_metrics", capture)
            grid = run_seed_grid(self.TASK, self.PAIRS, [0, 1], 60, 0.1)
            return [(m.ua, m.ra, m.ta) for seed in (0, 1) for m in grid[seed]], scored

        want_rows, want_models = run()
        monkeypatch.setattr(classifier, "gen_class_task", lambda *args: tuple(
            self._fortran(data) for data in real_task(*args)))
        got_rows, got_models = run()
        assert got_rows == want_rows
        assert len(got_models) == len(want_models) == 8
        for got, want in zip(got_models, want_models):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.bias, want.bias)


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
        params = pack(weights, bias)
        c_r, c_f = self.COEFS.T
        with np.errstate(all="ignore"):
            want = _reference_mixed(params, remain, forget, c_r, c_f)
            _assert_same_bits(_mixed_value_and_grad(weights, bias, remain, forget, c_r, c_f),
                              split(*want))
        assert np.isfinite(want[0]).tolist() == [True, not overflow, not overflow,
                                                 not overflow, True, True]
        for i, (a, b) in enumerate(self.COEFS):
            with np.errstate(all="ignore"):
                _assert_same_bits(
                    _mixed_value_and_grad(weights[i], bias[i], remain, forget, a, b),
                    split(*_reference_mixed(params[i], remain, forget, a, b)))

    @pytest.mark.parametrize("overflow", [False, True])
    def test_a_fit_objective_equals_the_nested_where_on_every_seed(self, overflow):
        remain, forget, weights, bias = self._problem(overflow)
        params = pack(weights, bias)
        c_r, c_f = self.COEFS.T
        # A second seed: the sets scaled, so its rows overflow alike, and
        # the members' parameters in reverse order.
        other = [LabeledSet(0.5 * s.features, s.labels) for s in (remain, forget)]
        stacked = [LabeledSet(np.stack([a.features, b.features]), a.labels)
                   for a, b in zip((remain, forget), other)]
        seeds = [(params, remain, forget), (params[::-1].copy(), *other)]
        cases = [((remain, forget), params, {(): seeds[0]}),
                 (stacked, np.stack([seed[0] for seed in seeds]), dict(enumerate(seeds)))]
        for sets, stack, per_seed in cases:
            objective = _Objective(*sets, c_r, c_f, 5)
            # Twice: the second call runs on the buffers the first one used.
            for _ in range(2):
                with np.errstate(all="ignore"):
                    got = objective(stack)
                    for index, (p, r, f) in per_seed.items():
                        _assert_same_bits([term[index] for term in got],
                                          _reference_mixed(p, r, f, c_r, c_f))


@pytest.fixture
def fits(monkeypatch):
    """Every ``fit_softmax`` call made through the classifier module, as
    ``(stack shape, gradient evaluations)`` in call order: the leading
    shape of the stack's parameters, and per evaluation, each of which
    must see the whole stack, the finite flags of its losses."""
    calls = []
    real = classifier.fit_softmax

    def recording(params, value_and_grad, epochs, step_size):
        evaluations = []
        calls.append((params.shape[:-2], evaluations))

        def counted(p):
            assert p.shape == params.shape
            loss, grad = value_and_grad(p)
            evaluations.append(np.isfinite(loss))
            return loss, grad

        return real(params, counted, epochs, step_size)

    monkeypatch.setattr(classifier, "fit_softmax", recording)
    return calls


class TestDistinctObjectives:
    """Each distinct (start, c_r, c_f) objective descends once per seed:
    kl-ft/ice-ft twins share a member, and retrain is the zero-start
    (1, 0) member of the same stack."""

    SCHEDULE = (100, 0.1)  # epochs, step_size

    @pytest.mark.parametrize("experiment,stacks", [
        ("sweep-alpha", [(1, 1), (1, 16)]),
        ("classifier-demo", [(1, 1), (1, 4)]),
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
            inside.append([shape for shape, _ in fits[before:]])
            return finals

        monkeypatch.setattr(classifier, "unlearn_ft", recording)
        path = Path(__file__).resolve().parents[1] / "configs" / (
            experiment.replace("-", "_") + ".json")
        cfg = experiments.load_config(path, experiment)
        cfg["seeds"], cfg["epochs"] = [0], 5
        experiments.run_experiment(experiment, cfg)
        assert [shape for shape, _ in fits] == stacks
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
        grid = run_seed_grid(task, pairs, [4], *schedule)[4]
        # Keys: kl/ice at 0.3, retrain, naive/kl at 0, ce at 0.3.
        assert len(scored) == 4
        assert grid[0] is grid[2] and grid[1] is grid[4] and grid[3] is grid[5]
        for pair, metrics in zip(pairs, grid):
            [alone] = run_seed_grid(task, [pair], [4], *schedule)[4]
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
        run_seed_grid(task, pairs, [seed], *self.SCHEDULE)
        assert [shape for shape, _ in fits] == [(1, 1), (1, 4)]
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
        assert [shape for shape, _ in fits] == [(3,)]
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
        [(shape, evaluations)] = fits
        assert shape == (2,)
        w, b, _, attempts = _objective_alone(
            weights, bias, remain, forget, "ice-ft", 1.0, epochs, 0.1)
        assert len(attempts) > 1  # the objective needed halvings
        *_, small = _objective_alone(weights, bias, remain, forget, "ice-ft", 0.05, epochs, 0.1)
        assert small == [epochs]
        # The twins' one member restarts as often as the objective alone,
        # and each attempt sees the two-member stack.
        assert len(evaluations) == _stack_evaluations([attempts, small])
        for final in finals[:2]:
            np.testing.assert_array_equal(final.weights, w)
            np.testing.assert_array_equal(final.bias, b)

        stuck = LabeledSet(
            features=np.full_like(forget.features, np.inf), labels=forget.labels
        )
        with pytest.raises(DivergenceError, match=r"loss of 1 model\(s\)"):
            _unlearn_pairs(model, pairs[:2], remain, stuck, epochs, 0.1)


def _shipped_config(experiment, **changes):
    path = Path(__file__).resolve().parents[1] / "configs" / (
        experiment.replace("-", "_") + ".json")
    return dict(experiments.load_config(path, experiment), **changes)


def _run_scoring(monkeypatch, experiment, cfg):
    """Run a config; returns the result and the ``(weights, bias)`` of every
    model it scored, seed by seed, in scoring order."""
    scored = []
    real = classifier.classifier_metrics

    def capture(final, *args, **kwargs):
        scored.append((final.weights, final.bias))
        return real(final, *args, **kwargs)

    monkeypatch.setattr(classifier, "classifier_metrics", capture)
    result = experiments.run_experiment(experiment, cfg)
    monkeypatch.setattr(classifier, "classifier_metrics", real)
    return result, scored


def _seed_rows(result):
    """The per-seed rows, every cell as the CSV writes it."""
    return [[experiments._format_cell(value) for value in row.values()]
            for row in result.rows if isinstance(row["seed"], int)]


class TestSeedStack:
    """A config's seeds pretrain as one stack and fine-tune as one stack:
    every seed gets the bits of its own run, and a seed whose members run
    out of halvings fails alone, with its own run's message."""

    @pytest.mark.parametrize("experiment,epochs,stacks", [
        ("classifier-demo", 500, [(3, 1), (3, 4)]),
        ("sweep-alpha", 100, [(3, 1), (3, 16)]),
    ])
    def test_stacked_seeds_equal_their_own_runs(
        self, fits, monkeypatch, experiment, epochs, stacks
    ):
        cfg = _shipped_config(experiment, seeds=[0, 1, 2], epochs=epochs)
        stacked, models = _run_scoring(monkeypatch, experiment, cfg)
        assert [shape for shape, _ in fits] == stacks
        alone = [_run_scoring(monkeypatch, experiment, dict(cfg, seeds=[seed]))
                 for seed in (0, 1, 2)]
        assert _seed_rows(stacked) == [row for result, _ in alone for row in _seed_rows(result)]
        alone_models = [model for _, scored in alone for model in scored]
        assert len(models) == len(alone_models) == np.prod(stacks[1])
        for (w, b), (w_alone, b_alone) in zip(models, alone_models):
            assert np.array_equal(w, w_alone) and np.array_equal(b, b_alone)

    @pytest.mark.parametrize("case,step_size,message", [
        # Seed 1's pretrain never sees a finite loss.
        ("non-finite-task", 0.1,
         "loss of 1 model(s) became non-finite even at step size 3.125e-03; "
         "try a smaller step_size"),
        # Seed 1's pretrain halves and recovers (TestHardInputs); two of its
        # four fine-tune members run out of halvings.
        ("huge-sep-and-step", 1e10,
         "loss of 2 model(s) became non-finite even at step size 3.125e+08; "
         "try a smaller step_size"),
    ], ids=["non-finite-task", "huge-sep-and-step"])
    def test_a_diverging_seed_between_two_clean_ones_fails_alone(
        self, monkeypatch, case, step_size, message
    ):
        real = classifier.gen_class_task

        def seed_one_diverges(num_classes, per_class, feature_dim, sep, seed):
            if seed == 1 and case == "huge-sep-and-step":
                sep = 1e150
            train, test = real(num_classes, per_class, feature_dim, sep, seed)
            if seed == 1 and case == "non-finite-task":
                train = LabeledSet(np.full_like(train.features, np.nan), train.labels)
            return train, test

        monkeypatch.setattr(classifier, "gen_class_task", seed_one_diverges)
        cfg = _shipped_config("classifier-demo", seeds=[0, 1, 2], step_size=step_size)
        result, models = _run_scoring(monkeypatch, "classifier-demo", cfg)
        solo = experiments.run_experiment("classifier-demo", dict(cfg, seeds=[1]))
        assert solo.failures == [{"seed": 1, "type": "DivergenceError", "message": message}]
        assert result.failures == solo.failures
        assert experiments.exit_code_for(result) == 1
        alone = [_run_scoring(monkeypatch, "classifier-demo", dict(cfg, seeds=[seed]))
                 for seed in (0, 2)]
        assert _seed_rows(result) == [row for run, _ in alone for row in _seed_rows(run)]
        alone_models = [model for _, scored in alone for model in scored]
        assert len(models) == len(alone_models) == 8
        for (w, b), (w_alone, b_alone) in zip(models, alone_models):
            assert np.array_equal(w, w_alone) and np.array_equal(b, b_alone)

    @pytest.mark.parametrize("case,step_size,message", [
        ("non-finite-task", 0.1,
         "loss of 1 model(s) became non-finite even at step size 3.125e-03; "
         "try a smaller step_size"),
        ("huge-sep-and-step", 1e10,
         "loss of 2 model(s) became non-finite even at step size 3.125e+08; "
         "try a smaller step_size"),
    ], ids=["non-finite-task", "huge-sep-and-step"])
    def test_a_grid_with_a_diverging_seed_raises_and_one_without_it_returns(
        self, monkeypatch, case, step_size, message
    ):
        # run_seed_grid leaves the rerun to its caller: a stack that holds
        # the diverging seed raises the stack's error, and the clean seeds
        # stacked alone get the scores of their own runs.
        real = classifier.gen_class_task

        def seed_one_diverges(num_classes, per_class, feature_dim, sep, seed):
            if seed == 1 and case == "huge-sep-and-step":
                sep = 1e150
            train, test = real(num_classes, per_class, feature_dim, sep, seed)
            if seed == 1 and case == "non-finite-task":
                train = LabeledSet(np.full_like(train.features, np.nan), train.labels)
            return train, test

        monkeypatch.setattr(classifier, "gen_class_task", seed_one_diverges)
        cfg = _shipped_config("classifier-demo", step_size=step_size)
        task = ClassTask(**cfg["task"])
        pairs = [(variant, cfg["alpha"]) for variant in cfg["variants"]]
        schedule = 100, step_size
        with pytest.raises(DivergenceError) as excinfo:
            run_seed_grid(task, pairs, [0, 1, 2], *schedule)
        assert str(excinfo.value) == message

        def scores(grid):
            return {seed: [(m.ua, m.ra, m.ta) for m in metrics] for seed, metrics in grid.items()}

        clean = run_seed_grid(task, pairs, [0, 2], *schedule)
        assert list(clean) == [0, 2]
        assert scores(clean) == {
            seed: scores(run_seed_grid(task, pairs, [seed], *schedule))[seed] for seed in (0, 2)}


@st.composite
def _small_classifier_configs(draw):
    """A valid ``classifier-demo`` or ``sweep-alpha`` config of small sizes
    and 2-4 distinct seeds, each field drawn inside its domain in
    :data:`FIELDS`."""
    experiment = draw(st.sampled_from(["classifier-demo", "sweep-alpha"]))
    fields = FIELDS[experiment]

    def small(name, high):
        return draw(st.integers(fields[name][1].low, high))

    num_classes = small("task.num_classes", 4)
    raw = {
        "experiment": experiment,
        "seeds": draw(distinct_seeds()),
        "task": {
            "num_classes": num_classes,
            "per_class": small("task.per_class", 6),
            "feature_dim": draw(st.integers(num_classes, 6)),
            "sep": draw(st.floats(0.0, 10.0, exclude_min=True)),
            "forget_class": draw(st.integers(0, num_classes - 1)),
        },
        "epochs": small("epochs", 20),
        "step_size": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "variants": draw(distinct_entries(fields["variants"][1].choices, 1)),
    }
    if experiment == "sweep-alpha":
        # Distinct multiples of 2^-52 in [0, 1], each exact as a float.
        raw["alphas"] = [i / 2**52 for i in draw(distinct_integers(2**52 + 1, 1, 3))]
    else:
        raw["alpha"] = draw(st.floats(0.0, 1.0))
    return experiment, validate_config(raw, experiment)


@settings(max_examples=40, deadline=None)
@given(case=_small_classifier_configs())
def test_stacked_seeds_equal_their_own_runs_on_drawn_configs(case):
    experiment, cfg = case
    stacked = experiments.run_experiment(experiment, cfg)
    alone = [experiments.run_experiment(experiment, dict(cfg, seeds=[seed]))
             for seed in cfg["seeds"]]
    assert _seed_rows(stacked) == [row for run in alone for row in _seed_rows(run)]
    assert stacked.failures == [failure for run in alone for failure in run.failures]


class TestRetainedSubspace:
    """The paper's retention mechanism, exact for the softmax model.  Every
    CE(remain) gradient ``Z X_r^T`` has its rows in the span of the remain
    features, so with ``P_perp`` the projector onto that span's complement,
    naive-ft keeps ``W P_perp`` at the pretrained model's and retrain keeps
    it at zero; a forget term moves it.  The shipped task (100 samples per
    class in 20 dimensions) has an empty complement, so small tasks show it.
    """

    PAIRS = [("naive-ft", 0.5), ("retrain", 0.0), ("kl-ft", 0.5), ("ce-ft", 0.5), ("ice-ft", 0.5)]

    @pytest.mark.parametrize("per_class", [2, 3])
    def test_only_a_forget_term_moves_the_weights_outside_the_remain_span(
        self, monkeypatch, per_class
    ):
        task = ClassTask(
            num_classes=5, per_class=per_class, feature_dim=20, sep=4.0, forget_class=0)
        seeds = [0, 1, 2]
        returned = {}
        for name in ("pretrain", "unlearn_ft"):
            def recording(*args, real=getattr(classifier, name), name=name, **kwargs):
                returned[name] = real(*args, **kwargs)
                return returned[name]

            monkeypatch.setattr(classifier, name, recording)
        grid = run_seed_grid(task, self.PAIRS, seeds, 500, 0.1)
        assert all(isinstance(scores, list) for scores in grid.values())
        finals = dict(zip((variant for variant, _ in self.PAIRS), returned["unlearn_ft"]))
        for i, seed in enumerate(seeds):
            train, _ = gen_class_task(5, per_class, 20, 4.0, seed)
            _, remain = split_class(train, 0)
            assert np.linalg.matrix_rank(remain.features) == 4 * per_class
            outside = np.eye(20) - projector(remain.features)
            pretrained = returned["pretrain"].weights[i]

            def moved(variant, start):
                """The move's size outside the remain span, and in all."""
                delta = finals[variant].weights[i] - start
                return np.linalg.norm(delta @ outside), np.linalg.norm(delta)

            # The projector is idempotent to TOL_IDEM, so a move inside the
            # span shows at most that fraction of its size outside it.
            for variant, start in (("naive-ft", pretrained), ("retrain", 0.0)):
                out, total = moved(variant, start)
                assert total > 0.1 and out <= TOL_IDEM * total, (seed, variant, out, total)
            for variant in ("kl-ft", "ce-ft", "ice-ft"):
                out, total = moved(variant, pretrained)
                assert out >= 1e6 * TOL_IDEM * total, (seed, variant, out, total)


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
        (pretrain_shape, pretrain_evals), (stack_shape, _) = fits
        # The pretrain diverges, halves its step and recovers; the fine-tune
        # stack runs out of halvings and its seed fails with one entry.
        assert (pretrain_shape, len(pretrain_evals), stack_shape) == ((1, 1), 508, (1, 4))
        assert code == 1 and rows == [] and summary["rows"] == 0
        [failure] = summary["failures"]
        assert failure["seed"] == 0 and failure["type"] == "DivergenceError"
        assert f"step size {1e10 / 2 ** classifier.MAX_HALVINGS:.3e}" in failure["message"]

    def test_wide_sep_rows_are_finite_with_perfect_remaining_accuracy(
        self, tmp_path, capsys
    ):
        code, rows, summary = self._run(tmp_path, capsys, 100.0)
        assert code == 0 and summary["failures"] == [] and len(rows) == 3 * 5
        measures = ("ua", "ra", "ta")
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
        evaluations = []

        def value_and_grad(w, b):
            evaluations.append(w.shape[:-2])
            return _mixed_value_and_grad(w, b, remain, forget, coef[:, 0], coef[:, 1])

        count = len(self.MEMBERS)
        w, b, trace = fit_softmax_split(
            np.repeat(weights[None], count, axis=0), np.repeat(bias[None], count, axis=0),
            value_and_grad, self.EPOCHS, 0.1,
        )
        return w, b, trace, evaluations

    def test_every_member_equals_its_own_run(self):
        remain, forget, weights, bias = _exploding_forget_problem()
        w, b, trace, evaluations = self._stacked_run(remain, forget, weights, bias)
        solo_attempts = []
        for i, (variant, alpha) in enumerate(self.MEMBERS):
            w_i, b_i, losses, attempts = _objective_alone(
                weights, bias, remain, forget, variant, alpha, self.EPOCHS, 0.1)
            np.testing.assert_array_equal(w[i], w_i)
            np.testing.assert_array_equal(b[i], b_i)
            assert trace[i].tolist() == losses
            solo_attempts.append(attempts)
        # Every evaluation sees the whole stack, and the stack restarts only
        # when every member still owed a result has diverged.
        assert evaluations == [(len(self.MEMBERS),)] * _stack_evaluations(solo_attempts)
        evaluations = np.array([sum(attempts) for attempts in solo_attempts])
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

    @pytest.mark.parametrize("exploding", [(False, True, False), (True, False, True)],
                             ids=["middle-seed", "outer-seeds"])
    def test_a_restart_inside_a_seed_stack_gives_every_seed_its_own_run(self, fits, exploding):
        remain, forget, weights, bias = _exploding_forget_problem()
        # The clean seeds' forget sets lack the enormous row, so none of
        # their members diverges.
        clean = forget.features.copy()
        clean[2] = 0.0
        forgets = [LabeledSet(forget.features if huge else clean, forget.labels)
                   for huge in exploding]

        def stack(sets):
            return LabeledSet(np.stack([s.features for s in sets]), sets[0].labels)

        model = SoftmaxClassifier(np.stack([weights] * 3), np.stack([bias] * 3))
        finals = _unlearn_pairs(
            model, self.MEMBERS, stack([remain] * 3), stack(forgets), self.EPOCHS, 0.1)
        alone = [_unlearn_pairs(SoftmaxClassifier(weights, bias), self.MEMBERS, remain, f,
                                self.EPOCHS, 0.1) for f in forgets]
        [(shape, evaluations), *own] = fits
        assert shape == (3, len(self.MEMBERS))
        assert [len(e) > self.EPOCHS for _, e in own] == list(exploding)
        # A clean seed's one attempt is as long as any first attempt, so the
        # stack restarts exactly as an exploding seed alone does.
        assert len(evaluations) == max(len(e) for _, e in own)
        for i, members in enumerate(alone):
            for final, member in zip(finals, members):
                assert np.array_equal(final.weights[i], member.weights)
                assert np.array_equal(final.bias[i], member.bias)

    @pytest.mark.parametrize("diverging", [0, 1])
    def test_a_pretrain_seed_that_halves_gives_every_seed_its_own_run(self, fits, diverging):
        # sep 1e150 at step 1e10 halves through pretraining (TestHardInputs).
        tasks = [gen_class_task(5, 100, 20, 1e150 if seed == diverging else 4.0, seed)[0]
                 for seed in range(3)]
        model = pretrain(LabeledSet(np.stack([t.features for t in tasks]), tasks[0].labels),
                         500, 1e10, num_classes=5)
        alone = [pretrain(t, 500, 1e10, num_classes=5) for t in tasks]
        [(shape, evaluations), *own] = fits
        assert shape == (3, 1) and [s for s, _ in own] == [(1,)] * 3
        attempts = [_attempts(flags.all() for flags in e) for _, e in own]
        assert [len(a) > 1 for a in attempts] == [seed == diverging for seed in range(3)]
        assert len(evaluations) == _stack_evaluations(attempts)
        for i, seed_model in enumerate(alone):
            assert np.array_equal(model.weights[i], seed_model.weights)
            assert np.array_equal(model.bias[i], seed_model.bias)

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
            assert not np.isfinite(ce_value_and_grad(weights, bias, huge)[0])
        members = [("naive-ft", 0.5), ("kl-ft", 0.0), ("ice-ft", 0.0)]
        coef = np.array([ft_coefficients(v, a) for v, a in members])
        calls = []

        def value_and_grad(w, b):
            calls.append(w.shape[:-2])
            return _mixed_value_and_grad(w, b, remain, huge, coef[:, 0], coef[:, 1])

        w, b, _ = fit_softmax_split(
            np.repeat(weights[None], 3, axis=0), np.repeat(bias[None], 3, axis=0),
            value_and_grad, 25, 0.1,
        )
        assert calls == [(3,)] * 25
        w_naive, b_naive, _ = _fit_alone(
            weights, bias, lambda w_, b_: ce_value_and_grad(w_, b_, remain), 25, 0.1
        )
        for i in range(3):
            np.testing.assert_array_equal(w[i], w_naive)
            np.testing.assert_array_equal(b[i], b_naive)
