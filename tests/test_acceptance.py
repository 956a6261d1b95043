"""Acceptance suite: the package's exit criteria, one test per criterion.

Each criterion prints a single ``[PASS]``/``[FAIL]`` line (run pytest with
``-s`` to see them on success).  Tolerances are fixed here, not imported
from the code under test, so loosening the implementation cannot silently
loosen the gate.
"""

import time
from contextlib import contextmanager

import numpy as np

from unlearn_lab.classifier import (
    ClassTask,
    LabeledSet,
    objective_value_and_grad,
    run_seed_grid,
)
from unlearn_lab.experiments import render_csv, run_experiment, validate_config
from unlearn_lab.linalg import gradient_descent_solve, min_norm_solve, projector
from unlearn_lab.metrics import measure_losses, mse_loss
from unlearn_lab.oracle import golden_ul_block_form, predict_distinct, predict_edited, predict_overlap
from unlearn_lab.scenarios import (
    FeatureLayout,
    decompose_w_star,
    fine_tune_subset,
    gen_scenario,
)
from unlearn_lab.solvers import (
    EditOption,
    edit_pretrained,
    fine_tune_unlearn,
    retrain_golden,
    train_original,
)

SEEDS = list(range(20))
NT_VALUES = list(range(1, 30))
DISTINCT = FeatureLayout(20, 0, 20)
OVERLAP = FeatureLayout(16, 8, 16)

CLASSIFIER_TASK = ClassTask(num_classes=5, per_class=100, feature_dim=20,
                            sep=4.0, forget_class=0)
CLASSIFIER_SCHEDULE = (500, 0.1)  # epochs, step_size
CLASSIFIER_SEEDS = list(range(10))


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def _rel_gap(measured, predicted):
    return abs(measured - predicted) / abs(predicted)


def test_criterion_1_distinct_feature_reproduction():
    with criterion(1, "distinct-feature losses match closed forms"):
        start = time.perf_counter()
        for seed in SEEDS:
            s = gen_scenario(30, 10, DISTINCT, seed=seed)
            predicted = predict_distinct(s)
            w_o = train_original(s)
            w_g = retrain_golden(s)
            for n_t in NT_VALUES:
                x_t, y_t = fine_tune_subset(s, n_t)
                w_t = fine_tune_unlearn(w_o, x_t, y_t)
                assert mse_loss(w_t, s.x_r, s.y_r) < 1e-9
                assert mse_loss(w_t, s.x_f, s.y_f) < 1e-9
            assert mse_loss(w_g, s.x_r, s.y_r) < 1e-9
            measured_ul = mse_loss(w_g, s.x_f, s.y_f)
            assert _rel_gap(measured_ul, predicted.ul_gold) <= 1e-8
        elapsed = time.perf_counter() - start
        print(f"  note: 20 seeds x 29 subset sizes in {elapsed:.2f}s (budget 10s)")
        assert elapsed < 10.0, f"distinct reproduction took {elapsed:.1f}s"


def test_criterion_2_overlap_reproduction():
    with criterion(2, "overlap-feature losses match closed forms"):
        start = time.perf_counter()
        worst_form_gap = 0.0
        for seed in SEEDS:
            s = gen_scenario(30, 10, OVERLAP, seed=seed)
            predicted = predict_overlap(s)
            block_form = golden_ul_block_form(s)
            worst_form_gap = max(
                worst_form_gap, _rel_gap(block_form, predicted.ul_gold)
            )
            w_o = train_original(s)
            w_g = retrain_golden(s)
            for n_t in NT_VALUES:
                x_t, y_t = fine_tune_subset(s, n_t)
                w_t = fine_tune_unlearn(w_o, x_t, y_t)
                assert mse_loss(w_t, s.x_r, s.y_r) < 1e-9
                assert mse_loss(w_t, s.x_f, s.y_f) < 1e-9
            assert mse_loss(w_g, s.x_r, s.y_r) < 1e-9
            measured_ul = mse_loss(w_g, s.x_f, s.y_f)
            # Both writings of the golden forgetting loss must agree with
            # the measurement; no discrepancy between them was observed.
            assert _rel_gap(measured_ul, predicted.ul_gold) <= 1e-8
            assert _rel_gap(measured_ul, block_form) <= 1e-8
        elapsed = time.perf_counter() - start
        print(f"  note: projector-form vs block-form golden loss, worst "
              f"relative gap {worst_form_gap:.2e} over {len(SEEDS)} seeds")
        assert elapsed < 10.0, f"overlap reproduction took {elapsed:.1f}s"


def _edited_pipeline(scenario, w_o, option, n_t):
    edited = edit_pretrained(w_o, scenario.layout, option)
    x_t, y_t = fine_tune_subset(scenario, n_t)
    w_hat = fine_tune_unlearn(edited, x_t, y_t)
    return measure_losses(w_hat, scenario, "edited_fine_tuned")


def test_criterion_3_edited_pipeline_reproduction():
    with criterion(3, "edited pretrained pipelines match closed forms"):
        def check(measured, predicted):
            assert abs(measured - predicted) <= max(1e-10, 1e-8 * predicted)

        for seed in SEEDS:
            distinct = gen_scenario(30, 10, DISTINCT, seed=seed)
            overlap = gen_scenario(30, 10, OVERLAP, seed=seed)
            w_o = {"d": train_original(distinct), "o": train_original(overlap)}
            discard_positive = False
            for n_t in NT_VALUES:
                m = _edited_pipeline(distinct, w_o["d"], EditOption.DISTINCT_ZERO_FORGET, n_t)
                p = predict_edited(distinct, EditOption.DISTINCT_ZERO_FORGET, [n_t])[0]
                check(m.rl, p.rl_edit)
                check(m.ul, p.ul_edit)

                m = _edited_pipeline(overlap, w_o["o"], EditOption.OVERLAP_RETAIN, n_t)
                p = predict_edited(overlap, EditOption.OVERLAP_RETAIN, [n_t])[0]
                assert m.rl < 1e-9  # retaining the overlap keeps RL at zero
                check(m.rl, p.rl_edit)
                check(m.ul, p.ul_edit)

                m = _edited_pipeline(overlap, w_o["o"], EditOption.OVERLAP_DISCARD, n_t)
                p = predict_edited(overlap, EditOption.OVERLAP_DISCARD, [n_t])[0]
                check(m.rl, p.rl_edit)
                check(m.ul, p.ul_edit)
                discard_positive = discard_positive or m.rl > 1e-6
            assert discard_positive  # discarding the overlap must cost RL somewhere


def test_criterion_4_distinct_fine_tuning_is_noop():
    with criterion(4, "fine-tuning never moves the model under distinct features"):
        for seed in SEEDS:
            s = gen_scenario(30, 10, DISTINCT, seed=seed)
            w_o = train_original(s)
            for n_t in NT_VALUES:
                x_t, y_t = fine_tune_subset(s, n_t)
                w_t = fine_tune_unlearn(w_o, x_t, y_t)
                assert np.max(np.abs(w_t - w_o)) < 1e-9


def test_criterion_5_projection_property_suite():
    with criterion(5, "projector properties and block identities"):
        start = time.perf_counter()
        rng = np.random.default_rng(500)

        # Items 1-5: symmetry, idempotence, complement, norm split,
        # contraction, over 100 random matrices.
        for _ in range(100):
            d = int(rng.integers(2, 14))
            n = int(rng.integers(1, d + 1))
            p = projector(rng.standard_normal((d, n)))
            m = p.matrix
            q = p.complement()
            v = rng.standard_normal(d)
            assert np.max(np.abs(m - m.T)) <= 1e-9
            assert np.max(np.abs(m @ m - m)) <= 1e-9
            assert np.max(np.abs(q @ q - q)) <= 1e-9
            assert np.max(np.abs(q @ m)) <= 1e-9
            lhs = np.linalg.norm(q @ v) ** 2
            rhs = np.linalg.norm(v) ** 2 - np.linalg.norm(m @ v) ** 2
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
            assert np.linalg.norm(m @ v) <= np.linalg.norm(v) + 1e-12

        # Block identities over 100 random distinct-layout scenarios.
        for case in range(100):
            d_r = int(rng.integers(2, 10))
            d_f = int(rng.integers(2, 10))
            n_r = int(rng.integers(1, d_r + d_f))
            n_f = int(rng.integers(1, d_r + d_f - n_r + 1))
            s = gen_scenario(n_r, n_f, FeatureLayout(d_r, 0, d_f), seed=case)
            x, y = s.joint_data()
            p = projector(x).matrix
            p_r = projector(s.x_r).matrix
            p_f = projector(s.x_f).matrix
            assert np.max(np.abs(p - (p_r + p_f))) <= 1e-9
            assert np.max(np.abs((np.eye(s.d) - p) @ x)) <= 1e-9
            assert np.max(np.abs(p @ s.x_r - s.x_r)) <= 1e-9
            assert np.max(np.abs(p @ p_r - p_r)) <= 1e-9
            assert np.max(np.abs(s.x_r.T @ p_f)) <= 1e-9
            assert np.max(np.abs(s.x_f.T @ p_r)) <= 1e-9

        # Interpolant identities over 100 random layouts (with and
        # without an overlap block).
        for case in range(100):
            d_r = int(rng.integers(2, 8))
            d_lap = int(rng.integers(0, 5))
            d_f = int(rng.integers(2, 8))
            d = d_r + d_lap + d_f
            n_r = int(rng.integers(1, d))
            n_f = int(rng.integers(1, d - n_r + 1))
            s = gen_scenario(n_r, n_f, FeatureLayout(d_r, d_lap, d_f), seed=case)
            parts = decompose_w_star(s)
            x, y = s.joint_data()
            p = projector(x).matrix
            p_r = projector(s.x_r).matrix
            w_o = train_original(s)
            w_g = retrain_golden(s)
            assert np.max(np.abs(w_o - p @ s.w_star)) <= 1e-9
            assert np.max(np.abs(w_g - p_r @ (parts.w_r + parts.w_lap))) <= 1e-9
            n_t = max(1, n_r // 2)
            x_t, y_t = fine_tune_subset(s, n_t)
            w_t = fine_tune_unlearn(w_o, x_t, y_t)
            p_t = projector(x_t)
            direct = p_t.complement() @ w_o + p_t.matrix @ (parts.w_r + parts.w_lap)
            assert np.max(np.abs(w_t - direct)) <= 1e-9
            assert np.max(np.abs(s.x_r.T @ parts.w_f)) == 0.0
            assert np.max(np.abs(s.x_f.T @ parts.w_r)) == 0.0

        elapsed = time.perf_counter() - start
        print(f"  note: 300 random property cases in {elapsed:.2f}s (budget 5s)")
        assert elapsed < 5.0, f"property suite took {elapsed:.1f}s"


def test_criterion_6_gradient_descent_matches_min_norm():
    with criterion(6, "descent from zero converges to the minimum-norm solution"):
        rng = np.random.default_rng(600)
        for _ in range(10):
            x = rng.standard_normal((20, 10))  # 10 samples, 20 features
            y = x.T @ rng.standard_normal(20)
            w_gd = gradient_descent_solve(x, y, iters=100_000, stop_tol=1e-13)
            w_mn = min_norm_solve(x, y)
            assert np.max(np.abs(w_gd - w_mn)) < 1e-6


def test_criterion_7_classifier_trends():
    with criterion(7, "classifier unlearning trends across ten seeds"):
        start = time.perf_counter()

        # One grid per seed: a single pretrain serves every pair.
        pairs = [("retrain", 0.0), ("naive-ft", 0.0), ("ce-ft", 0.5), ("ice-ft", 0.5)]
        pairs += [("kl-ft", a) for a in (0.1, 0.4, 0.5, 0.8)]
        grids = [
            run_seed_grid(CLASSIFIER_TASK, pairs, seed, *CLASSIFIER_SCHEDULE)
            for seed in CLASSIFIER_SEEDS
        ]

        def mean_metrics(variant, alpha):
            return [grid[pairs.index((variant, alpha))] for grid in grids]

        golden = mean_metrics("retrain", 0.0)
        naive = mean_metrics("naive-ft", 0.0)
        kl_by_alpha = {a: mean_metrics("kl-ft", a) for a in (0.1, 0.4, 0.5, 0.8)}
        ce = mean_metrics("ce-ft", 0.5)
        ice = mean_metrics("ice-ft", 0.5)

        def mean(rows, field):
            return float(np.mean([getattr(m, field) for m in rows]))

        # (a) naive fine-tuning barely forgets compared with retraining.
        assert mean(naive, "ua") <= mean(golden, "ua") - 0.3

        # (b) the KL variant forgets while keeping remaining accuracy.
        assert mean(kl_by_alpha[0.5], "ua") >= 0.9
        assert mean(kl_by_alpha[0.5], "ra") >= mean(naive, "ra") - 0.05

        # (c) regularizing with the forget term (ice) retains at least as
        # well as regularizing with the remain term (ce) at matched alpha,
        # in aggregate and for most seed pairs; the KL variant retains at
        # least as well as ce in aggregate too.
        assert mean(ice, "ra") >= mean(ce, "ra")
        pairwise = np.mean([i.ra >= c.ra for i, c in zip(ice, ce)])
        assert pairwise >= 0.8
        assert mean(kl_by_alpha[0.5], "ra") >= mean(ce, "ra")

        # (d) KL remaining accuracy is non-increasing in alpha, within one
        # pooled standard deviation.
        ra_means = [mean(kl_by_alpha[a], "ra") for a in (0.1, 0.4, 0.8)]
        pooled = float(np.std([
            m.ra for a in (0.1, 0.4, 0.8) for m in kl_by_alpha[a]
        ]))
        assert all(b <= a + pooled for a, b in zip(ra_means, ra_means[1:])), (
            ra_means, pooled
        )

        elapsed = time.perf_counter() - start
        print(
            f"  note: 10 seed grids (pretrain, retrain and one 7-member stacked "
            f"fine-tune each) in {elapsed:.2f}s (budget 60s)"
        )
        assert elapsed < 60.0, f"classifier trends took {elapsed:.1f}s"


def test_criterion_8_objective_gradient_checks():
    with criterion(8, "analytic gradients match central finite differences"):
        rng = np.random.default_rng(800)
        num_classes, dim = 5, 8

        def finite_difference(value_fn, weights, bias, h=1e-6):
            grad_w = np.zeros_like(weights)
            for idx in np.ndindex(weights.shape):
                delta = np.zeros_like(weights)
                delta[idx] = h
                grad_w[idx] = (
                    value_fn(weights + delta, bias) - value_fn(weights - delta, bias)
                ) / (2 * h)
            grad_b = np.zeros_like(bias)
            for i in range(bias.size):
                delta = np.zeros_like(bias)
                delta[i] = h
                grad_b[i] = (
                    value_fn(weights, bias + delta) - value_fn(weights, bias - delta)
                ) / (2 * h)
            return grad_w, grad_b

        for instance in range(20):
            remain = LabeledSet(
                features=rng.standard_normal((dim, 24)),
                labels=rng.integers(0, num_classes, size=24).astype(np.int64),
            )
            forget = LabeledSet(
                features=rng.standard_normal((dim, 6)),
                labels=rng.integers(0, num_classes, size=6).astype(np.int64),
            )
            weights = 0.4 * rng.standard_normal((num_classes, dim))
            bias = 0.2 * rng.standard_normal(num_classes)
            alpha = float(rng.uniform(0.1, 1.0))
            for variant in ("naive-ft", "kl-ft", "ce-ft", "ice-ft"):
                def value(w, b, v=variant):
                    return objective_value_and_grad(w, b, remain, forget, v, alpha)[0]

                _, grad_w, grad_b = objective_value_and_grad(
                    weights, bias, remain, forget, variant, alpha
                )
                fd_w, fd_b = finite_difference(value, weights, bias)
                analytic = np.concatenate([grad_w.ravel(), grad_b])
                numeric = np.concatenate([fd_w.ravel(), fd_b])
                rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
                assert rel <= 1e-5, (instance, variant, rel)


DETERMINISM_CONFIGS = [
    ("verify-theorems", {"seeds": [0, 1], "nt_values": [1, 15, 29]}),
    ("sweep-nt", {"seeds": [0, 1], "layout": [16, 8, 16], "nt_values": [1, 15, 29]}),
    ("sweep-overlap", {"seeds": [0, 1], "d": 20, "n_r": 14, "n_f": 6,
                       "n_t": 7, "d_lap_values": [0, 4]}),
    ("classifier-demo", {"seeds": [0, 1], "epochs": 120,
                         "task": {"per_class": 25}}),
    ("sweep-alpha", {"seeds": [0, 1], "epochs": 120, "task": {"per_class": 25},
                     "variants": ["kl-ft", "ce-ft"], "alphas": [0.1, 0.8]}),
]


def _strip_runtime_column(csv_text):
    lines = []
    for line in csv_text.splitlines():
        lines.append(line if line.startswith("#") else line.rsplit(",", 1)[0])
    return "\n".join(lines)


def test_criterion_9_determinism_across_reruns():
    with criterion(9, "identical configs reproduce every CSV byte for byte"):
        for experiment, raw in DETERMINISM_CONFIGS:
            cfg = validate_config(raw, experiment)
            first = render_csv(run_experiment(experiment, cfg))
            second = render_csv(run_experiment(experiment, cfg))
            assert _strip_runtime_column(first) == _strip_runtime_column(second), experiment
