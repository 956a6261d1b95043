"""Tests for the experiment runner, CSV/JSON outputs, and the CLI."""

import gc
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from unlearn_lab import experiments, linalg
from unlearn_lab.cli import main
from unlearn_lab.errors import ConfigError, DivergenceError
from unlearn_lab.experiments import (
    COLUMNS,
    render_csv,
    run_experiment,
    summary_path_for,
    validate_config,
    write_outputs,
)

INF = float("inf")
NAN = float("nan")

VERIFY_CFG = {"seeds": [0, 1], "nt_values": [1, 10, 29]}
NT_CFG = {"seeds": [0], "layout": [16, 8, 16], "nt_values": [1, 5, 15, 25, 29]}
NT_DISTINCT_CFG = {"seeds": [0], "layout": [20, 0, 20], "nt_values": [1, 15, 29]}
OVERLAP_CFG = {"seeds": [0, 1], "d": 20, "n_r": 14, "n_f": 6, "n_t": 7,
               "d_lap_values": [0, 2, 4, 8]}
DEMO_CFG = {"seeds": [0, 1], "epochs": 120,
            "task": {"per_class": 25}, "alpha": 0.5}
ALPHA_CFG = {"seeds": [0], "epochs": 120, "task": {"per_class": 25},
             "variants": ["kl-ft"], "alphas": [0.1, 0.8]}


def _strip_runtime(csv_text: str) -> str:
    lines = []
    for line in csv_text.splitlines():
        if line.startswith("#"):
            lines.append(line)
        else:
            lines.append(line.rsplit(",", 1)[0])
    return "\n".join(lines)


class TestConfigValidation:
    def test_defaults_materialized(self):
        cfg = validate_config({"seeds": [1]}, "verify-theorems")
        assert cfg["distinct_layout"] == [20, 0, 20]
        assert cfg["overlap_layout"] == [16, 8, 16]
        assert cfg["nt_values"] == list(range(1, 30))
        assert cfg["tolerance"] == {"rel": 1e-8, "abs_floor": 1e-10}

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"seeds": []}, "verify-theorems")

    def test_missing_seeds_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({}, "sweep-nt")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"seeds": [0], "typo_key": 1}, "sweep-nt")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"seeds": [0]}, "sweep-everything")

    def test_declared_experiment_must_match(self):
        with pytest.raises(ConfigError):
            validate_config({"seeds": [0], "experiment": "sweep-nt"}, "verify-theorems")

    def test_nt_range_bounds(self):
        with pytest.raises(ConfigError):
            validate_config({"seeds": [0], "nt_values": [30]}, "sweep-nt")

    def test_regime_guard(self):
        with pytest.raises(ConfigError):
            validate_config(
                {"seeds": [0], "n_r": 35, "n_f": 10, "layout": [20, 0, 20]},
                "sweep-nt",
            )

    def test_overlap_parity_guard(self):
        bad = dict(OVERLAP_CFG, d_lap_values=[1])
        with pytest.raises(ConfigError):
            validate_config(bad, "sweep-overlap")

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(
                {"seeds": [0], "variants": ["fisher"]}, "classifier-demo"
            )


class TestSchemas:
    def test_pinned_column_sets(self):
        # Schema stability: these exact names and orders are the contract.
        assert COLUMNS["verify-theorems/v1"] == [
            "experiment", "seed", "check", "option",
            "d_r", "d_lap", "d_f", "n_r", "n_f", "n_t_min", "n_t_max",
            "rl_ft_max", "ul_ft_max", "rl_gold", "ul_gold", "ul_gold_pred",
            "ul_gold_rel_gap", "rl_edit_max", "ul_edit_max",
            "edit_rl_gap_max", "edit_ul_gap_max", "pass", "runtime_seconds",
        ]
        assert COLUMNS["sweep-nt/v1"] == [
            "experiment", "seed", "n_t", "rl_ft", "ul_ft", "rl_gold", "ul_gold",
            "rl_edit_zero", "ul_edit_zero", "rl_edit_retain", "ul_edit_retain",
            "rl_edit_discard", "ul_edit_discard", "runtime_seconds",
        ]
        assert COLUMNS["sweep-overlap/v1"] == [
            "experiment", "seed", "d_lap", "d_r", "d_f", "n_t",
            "rl_gold", "ul_gold", "rl_edit_retain", "ul_edit_retain",
            "rl_edit_discard", "ul_edit_discard", "runtime_seconds",
        ]
        assert COLUMNS["classifier/v3"] == [
            "experiment", "variant", "alpha", "seed", "ua", "ra", "ta",
            "runtime_seconds",
        ]

    def test_runtime_is_always_last(self):
        for columns in COLUMNS.values():
            assert columns[-1] == "runtime_seconds"

    def test_csv_header_lines(self):
        cfg = validate_config(dict(VERIFY_CFG, nt_values=[1]), "verify-theorems")
        result = run_experiment("verify-theorems", cfg)
        text = render_csv(result)
        lines = text.splitlines()
        assert lines[0] == "# schema: verify-theorems/v1"
        assert lines[1].startswith("# config: {")
        assert lines[2] == ",".join(COLUMNS["verify-theorems/v1"])
        # Config echo is valid canonical JSON.
        echoed = json.loads(lines[1][len("# config: "):])
        assert echoed["experiment"] == "verify-theorems"
        assert echoed["nt_values"] == [1]

    def test_cells_follow_the_schema_order(self):
        cfg = validate_config(dict(NT_DISTINCT_CFG, nt_values=[1]), "sweep-nt")
        result = run_experiment("sweep-nt", cfg)
        text = render_csv(result)
        result.rows = [dict(reversed(row.items())) for row in result.rows]
        assert render_csv(result) == text

    @pytest.mark.parametrize("fault", ["missing", "extra"])
    def test_row_keys_must_match_the_schema(self, fault):
        cfg = validate_config(dict(NT_DISTINCT_CFG, nt_values=[1]), "sweep-nt")
        result = run_experiment("sweep-nt", cfg)
        [row] = result.rows
        if fault == "missing":
            del row["ul_ft"]
        else:
            row["ul_extra"] = 0.0
        with pytest.raises(ValueError, match="sweep-nt/v1"):
            render_csv(result)


class TestVerifyTheorems:
    def test_all_checks_pass(self):
        cfg = validate_config(VERIFY_CFG, "verify-theorems")
        result = run_experiment("verify-theorems", cfg)
        assert result.passed is True
        assert result.numerical_failures == 0
        # One row per (seed, check/option): 2 baselines + 3 edit options.
        assert len(result.rows) == len(cfg["seeds"]) * 5

    def test_impossible_tolerance_fails_rows(self):
        cfg = validate_config(
            dict(VERIFY_CFG, tolerance={"rel": 0.0, "abs_floor": 0.0}),
            "verify-theorems",
        )
        result = run_experiment("verify-theorems", cfg)
        assert result.passed is False

    def test_uniform_distribution_also_passes(self):
        # The closed forms are distribution-free; the uniform tag exists
        # as a robustness variant and must verify identically.
        cfg = validate_config(
            dict(VERIFY_CFG, dist="uniform", nt_values=[1, 15, 29]),
            "verify-theorems",
        )
        result = run_experiment("verify-theorems", cfg)
        assert result.passed is True

    @pytest.mark.parametrize("dist", ["standard-normal", "uniform"])
    def test_rank_deficient_prefixes_pass_under_both_draws(self, dist):
        # A hard input: 30 remaining samples span only d_r (+ d_lap)
        # coordinates, so the remaining data and every prefix wider than
        # those blocks are rank-deficient.
        cfg = validate_config(
            {"seeds": [0, 1], "dist": dist, "n_r": 30,
             "distinct_layout": [4, 0, 36], "overlap_layout": [3, 2, 35]},
            "verify-theorems",
        )
        result = run_experiment("verify-theorems", cfg)
        assert result.passed is True and len(result.rows) == 10


class TestPrefixFactorization:
    """Solver prefixes are factored once per seed, apart from the oracle's SVDs."""

    @staticmethod
    def _shipped(experiment, seeds):
        name = experiment.replace("-", "_")
        path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        return validate_config(dict(raw, seeds=seeds), experiment)

    @classmethod
    def _shipped_verify(cls, seeds):
        return cls._shipped("verify-theorems", seeds)

    @pytest.mark.parametrize(
        "experiment,solver,oracle",
        [("verify-theorems", 62, 32), ("sweep-nt", 31, 0), ("sweep-overlap", 18, 0)],
        ids=["verify-theorems", "sweep-nt", "sweep-overlap"],
    )
    def test_one_shipped_seed_svd_counts(self, monkeypatch, experiment, solver, oracle):
        # One SVD per distinct solver input (the data, the remaining data
        # and each prefix), and the oracle's own.
        counts = Counter()
        exact = linalg.svd
        layers = ("unlearn_lab.oracle", "unlearn_lab.solvers")

        def counting_svd(a):
            frame = sys._getframe(1)
            while frame is not None and frame.f_globals["__name__"] not in layers:
                frame = frame.f_back
            counts[frame.f_globals["__name__"] if frame else "elsewhere"] += 1
            return exact(a)

        monkeypatch.setattr(linalg, "svd", counting_svd)
        result = run_experiment(experiment, self._shipped(experiment, [0]))
        assert result.failures == [] and result.passed in (True, None)
        assert counts == Counter({"unlearn_lab.solvers": solver, "unlearn_lab.oracle": oracle})

    def test_a_faulty_solver_factorization_fails_the_oracle_checks(self, monkeypatch):
        exact = linalg.Factored.truncated_svd.func

        def tilted(factored):
            # Tilt the left singular vectors out of the column space.  The
            # solves still interpolate (no InconsistentSystemError), but they
            # are no longer minimum-norm; only predictions made from the
            # oracle's own SVDs can notice.
            u, s, v = exact(factored)
            off = 1.0 - u @ u.sum(axis=0)
            if np.linalg.norm(off) < 1e-6:
                return u, s, v
            return u + 1e-3 * np.outer(off / np.linalg.norm(off), np.ones(s.size)), s, v

        monkeypatch.setattr(linalg.Factored, "truncated_svd", property(tilted))
        result = run_experiment("verify-theorems", self._shipped_verify([0]))
        assert result.numerical_failures == 0
        assert result.passed is False
        # The rows whose solves move the model: retraining and the discard
        # edit.  The other edits already fit every prefix, so nothing moves.
        failed = {(row["check"], row["option"]) for row in result.rows if not row["pass"]}
        assert failed == {("distinct", ""), ("overlap", ""), ("edit", "overlap-discard")}

    def test_no_factor_outlives_its_seed(self):
        def live_factors():
            gc.collect()
            return sum(isinstance(obj, linalg.Factored) for obj in gc.get_objects())

        before = live_factors()
        result = run_experiment("verify-theorems", self._shipped_verify([0, 1]))
        assert result.passed is True
        assert live_factors() == before


class TestSweepNt:
    def test_distinct_layout_flat_zero_ft_and_constant_golden_ul(self):
        cfg = validate_config(NT_DISTINCT_CFG, "sweep-nt")
        rows = run_experiment("sweep-nt", cfg).rows
        uls = {row["ul_gold"] for row in rows}
        assert len(uls) == 1  # golden UL does not depend on n_t
        for row in rows:
            assert row["rl_ft"] < 1e-9 and row["ul_ft"] < 1e-9
            assert row["rl_gold"] < 1e-9
            # Editing away the forgetting block reproduces the golden UL.
            assert abs(row["ul_edit_zero"] - row["ul_gold"]) <= 1e-8 * row["ul_gold"]
            assert row["rl_edit_zero"] < 1e-9

    def test_overlap_layout_discard_hurts_remaining_loss(self):
        cfg = validate_config(NT_CFG, "sweep-nt")
        rows = run_experiment("sweep-nt", cfg).rows
        # Below the span threshold (n_t < d_r + d_lap = 24) the discard
        # option pays a remaining-loss price; retain never does.
        shallow = [r for r in rows if r["n_t"] < 24]
        assert shallow and all(r["rl_edit_discard"] > 1e-10 for r in shallow)
        assert all(r["rl_edit_retain"] < 1e-9 for r in rows)
        # Zero-forget option is not defined for overlap layouts.
        assert all(np.isnan(r["rl_edit_zero"]) for r in rows)


class TestSweepOverlap:
    def test_rows_and_monotone_medians(self):
        cfg = validate_config(dict(OVERLAP_CFG, seeds=list(range(12))), "sweep-overlap")
        result = run_experiment("sweep-overlap", cfg)
        rows = result.rows
        assert len(rows) == 12 * 4
        medians = []
        for d_lap in cfg["d_lap_values"]:
            values = [r["rl_edit_discard"] for r in rows if r["d_lap"] == d_lap]
            medians.append(float(np.median(values)))
        assert all(b >= a - 1e-12 for a, b in zip(medians, medians[1:]))


class TestClassifierExperiments:
    def test_demo_row_count_and_aggregates(self):
        cfg = validate_config(
            dict(DEMO_CFG, variants=["naive-ft", "kl-ft", "ce-ft", "ice-ft"]),
            "classifier-demo",
        )
        result = run_experiment("classifier-demo", cfg)
        rows = result.rows
        per_seed = [r for r in rows if isinstance(r["seed"], int)]
        aggregates = [r for r in rows if r["seed"] in ("mean", "std")]
        assert len(per_seed) == 4 * len(cfg["seeds"])
        assert len(aggregates) == 4 * 2

    def test_demo_directional_gap(self):
        cfg = validate_config(
            dict(DEMO_CFG, variants=["retrain", "naive-ft", "kl-ft"]),
            "classifier-demo",
        )
        rows = run_experiment("classifier-demo", cfg).rows
        mean = {
            r["variant"]: r for r in rows if r["seed"] == "mean"
        }
        assert mean["naive-ft"]["ua"] < mean["retrain"]["ua"] - 0.3
        assert mean["kl-ft"]["ua"] >= 0.9

    def test_alpha_sweep_rows(self):
        cfg = validate_config(ALPHA_CFG, "sweep-alpha")
        rows = run_experiment("sweep-alpha", cfg).rows
        per_seed = [r for r in rows if isinstance(r["seed"], int)]
        assert {(r["variant"], r["alpha"]) for r in per_seed} == {
            ("kl-ft", 0.1), ("kl-ft", 0.8)
        }

    def test_sweep_cells_get_one_mean_and_one_std_row(self):
        cfg = validate_config(
            dict(ALPHA_CFG, seeds=[0, 1, 2], variants=["ice-ft", "kl-ft"], alphas=[0.8, 0.1]),
            "sweep-alpha",
        )
        rows = run_experiment("sweep-alpha", cfg).rows
        per_seed, aggregates = rows[:12], rows[12:]
        assert all(isinstance(r["seed"], int) for r in per_seed)
        cells = [("ice-ft", 0.8), ("ice-ft", 0.1), ("kl-ft", 0.8), ("kl-ft", 0.1)]
        assert [(r["variant"], r["alpha"], r["seed"]) for r in aggregates] == [
            (variant, alpha, stat) for variant, alpha in cells for stat in ("mean", "std")
        ]
        for row in aggregates:
            group = [r for r in per_seed if (r["variant"], r["alpha"]) == (row["variant"], row["alpha"])]
            assert [r["seed"] for r in group] == [0, 1, 2]
            reduce = np.mean if row["seed"] == "mean" else lambda v: np.std(v, ddof=0)
            for name in ("ua", "ra", "ta", "runtime_seconds"):
                assert row[name] == reduce([r[name] for r in group])

    def test_demo_retrain_rows_form_one_cell(self):
        cfg = validate_config(
            dict(DEMO_CFG, seeds=[0, 1, 2], variants=["retrain", "naive-ft"]),
            "classifier-demo",
        )
        rows = run_experiment("classifier-demo", cfg).rows
        aggregates = [r for r in rows if r["seed"] in ("mean", "std")]
        assert [(r["variant"], r["seed"]) for r in aggregates] == [
            ("retrain", "mean"), ("retrain", "std"), ("naive-ft", "mean"), ("naive-ft", "std"),
        ]
        assert np.isnan(aggregates[0]["alpha"]) and np.isnan(aggregates[1]["alpha"])
        retrain = [r for r in rows if r["variant"] == "retrain" and isinstance(r["seed"], int)]
        assert len(retrain) == 3
        assert aggregates[0]["ua"] == np.mean([r["ua"] for r in retrain])
        assert aggregates[1]["ua"] == np.std([r["ua"] for r in retrain], ddof=0)

    def test_fine_tuned_rows_share_the_stacked_runtime(self):
        cfg = validate_config(
            dict(DEMO_CFG, seeds=[0], variants=["retrain", "naive-ft", "kl-ft", "ice-ft"]),
            "classifier-demo",
        )
        rows = run_experiment("classifier-demo", cfg).rows
        runtime = {r["variant"]: r["runtime_seconds"] for r in rows if r["seed"] == 0}
        assert runtime["retrain"] == runtime["naive-ft"] == runtime["kl-ft"] == runtime["ice-ft"]
        assert runtime["retrain"] > 0.0

    def test_failed_seed_is_listed_in_the_summary(self, tmp_path, monkeypatch):
        real_grid = experiments.run_seed_grid

        def flaky_grid(task, pairs, seed, epochs, step_size):
            if seed == 1:
                raise DivergenceError("loss of 1 model(s) became non-finite; try a smaller step_size")
            return real_grid(task, pairs, seed, epochs, step_size)

        monkeypatch.setattr(experiments, "run_seed_grid", flaky_grid)
        cfg = validate_config(dict(DEMO_CFG, seeds=[0, 1, 2], variants=["kl-ft"]),
                              "classifier-demo")
        result = run_experiment("classifier-demo", cfg)
        assert result.numerical_failures == 1
        assert result.failures == [{
            "seed": 1, "type": "DivergenceError",
            "message": "loss of 1 model(s) became non-finite; try a smaller step_size",
        }]
        per_seed = [r for r in result.rows if isinstance(r["seed"], int)]
        assert [r["seed"] for r in per_seed] == [0, 2]

        csv_path = write_outputs(result, tmp_path / "demo.csv")
        summary = json.loads(summary_path_for(csv_path).read_text())
        assert summary["numerical_failures"] == 1
        assert summary["failures"] == result.failures
        assert experiments.exit_code_for(result) == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "experiment,cfg",
        [
            ("verify-theorems", dict(VERIFY_CFG, nt_values=[1, 10])),
            ("sweep-nt", NT_DISTINCT_CFG),
            ("sweep-overlap", OVERLAP_CFG),
            ("classifier-demo", dict(DEMO_CFG, variants=["naive-ft", "retrain"])),
            ("sweep-alpha", ALPHA_CFG),
        ],
    )
    def test_rerun_is_byte_identical_modulo_runtime(self, experiment, cfg):
        validated = validate_config(cfg, experiment)
        first = render_csv(run_experiment(experiment, validated))
        second = render_csv(run_experiment(experiment, validated))
        assert _strip_runtime(first) == _strip_runtime(second)


class TestCli:
    def _write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_verify_theorems_roundtrip(self, tmp_path, capsys):
        config = self._write_config(tmp_path, dict(VERIFY_CFG, nt_values=[1, 29]))
        out = tmp_path / "run.csv"
        code = main(["verify-theorems", "--config", str(config), "--out", str(out)])
        assert code == 0
        assert out.exists()
        summary = json.loads(summary_path_for(out).read_text())
        assert summary["passed"] is True
        assert summary["config"]["seeds"] == [0, 1]
        assert "rows ->" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        config = self._write_config(tmp_path, dict(VERIFY_CFG, nt_values=[1]))
        out = tmp_path / "run.csv"
        code = main([
            "verify-theorems", "--config", str(config),
            "--out", str(out), "--seeds", "5,6,7",
        ])
        assert code == 0
        summary = json.loads(summary_path_for(out).read_text())
        assert summary["config"]["seeds"] == [5, 6, 7]
        assert summary["rows"] == 15

    def test_zero_tolerance_exits_one(self, tmp_path):
        config = self._write_config(tmp_path, dict(VERIFY_CFG, nt_values=[1]))
        code = main([
            "verify-theorems", "--config", str(config),
            "--out", str(tmp_path / "x.csv"), "--tolerance", "0",
        ])
        assert code == 1

    def test_config_error_exits_two(self, tmp_path, capsys):
        config = self._write_config(tmp_path, {"seeds": []})
        code = main(["verify-theorems", "--config", str(config)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path):
        code = main(["sweep-nt", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["sweep-nt", "--config", str(path)]) == 2

    def test_bad_seeds_exits_two(self, tmp_path):
        config = self._write_config(tmp_path, VERIFY_CFG)
        code = main([
            "verify-theorems", "--config", str(config), "--seeds", "a,b",
        ])
        assert code == 2

    def test_negative_tolerance_exits_two(self, tmp_path):
        config = self._write_config(tmp_path, VERIFY_CFG)
        code = main([
            "verify-theorems", "--config", str(config), "--tolerance", "-1",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "experiment,payload",
        [
            ("verify-theorems", {"seeds": [True]}),
            ("verify-theorems", {"seeds": [0], "n_f": True}),
            ("verify-theorems", {"seeds": [0], "nt_values": [True]}),
            ("verify-theorems", {"seeds": [0], "n_r": 5, "n_f": 2,
                                 "overlap_layout": [16, True, 16]}),
            ("verify-theorems", {"seeds": [0], "tolerance": {"rel": False}}),
            ("sweep-overlap", {"seeds": [0], "n_t": True}),
            ("sweep-overlap", {"seeds": [0], "d_lap_values": [0, False]}),
            ("classifier-demo", {"seeds": [0], "epochs": True}),
            ("classifier-demo", {"seeds": [0], "alpha": True}),
            ("classifier-demo", {"seeds": [0], "step_size": True}),
            ("classifier-demo", {"seeds": [0], "task": {"per_class": True}}),
            ("classifier-demo", {"seeds": [0], "task": {"sep": True}}),
            ("sweep-alpha", {"seeds": [0], "alphas": [0.5, True]}),
            # Non-finite numbers (json.dumps writes them as NaN/Infinity).
            ("verify-theorems", {"seeds": [0], "tolerance": {"rel": INF, "abs_floor": INF}}),
            ("verify-theorems", {"seeds": [0], "tolerance": {"rel": NAN}}),
            ("classifier-demo", {"seeds": [0], "step_size": INF}),
            ("classifier-demo", {"seeds": [0], "task": {"sep": INF}}),
            # Seeds outside the 64-bit key range.
            ("verify-theorems", {"seeds": [-1]}),
            ("sweep-nt", {"seeds": [0, 2**64]}),
            # null is no stand-in for a default task or the requested experiment.
            ("classifier-demo", {"seeds": [0], "task": None}),
            ("sweep-nt", {"seeds": [0], "experiment": None}),
            # Arrays of 2^63 bytes or more, which numpy cannot address.
            ("sweep-nt", {"seeds": [0], "layout": [2**64, 0, 10], "nt_values": [1]}),
            ("sweep-nt", {"seeds": [0], "n_r": 2**64, "layout": [2**64, 0, 10]}),
            ("classifier-demo", {"seeds": [0], "task": {"per_class": 10**20}}),
        ],
    )
    def test_json_booleans_are_not_numbers(self, tmp_path, capsys, experiment, payload):
        config = self._write_config(tmp_path, payload)
        code = main([experiment, "--config", str(config), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "experiment,payload,key",
        [
            ("classifier-demo", {"seeds": [0], "task.sep": 3}, "task.sep"),
            ("verify-theorems", {"seeds": [0], "tolerance.rel": 0.5}, "tolerance.rel"),
            ("sweep-alpha", {"seeds": [0], "task": {"task.sep": 3}}, "task.task.sep"),
        ],
        ids=["top-level-task-sep", "top-level-tolerance-rel", "nested-task-sep"],
    )
    def test_dotted_keys_are_unknown(self, tmp_path, capsys, experiment, payload, key):
        # A dotted name is the README's notation for a nested field, not a key.
        config = self._write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        assert main([experiment, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {experiment}: unknown config keys [{key!r}]\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tolerance", "inf"],
            ["--tolerance", "nan"],
            ["--seeds", "-1"],
            ["--seeds", "0,18446744073709551616"],
        ],
    )
    def test_bad_flags_exit_two(self, tmp_path, capsys, flags):
        config = self._write_config(tmp_path, VERIFY_CFG)
        out = tmp_path / "x.csv"
        code = main(["verify-theorems", "--config", str(config), "--out", str(out), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-theorems", "--config", "{config}", "--log-level", "TRACE"],
            ["verify-theorems", "--config", "{config}", "--tolerance", "abc"],
            ["gradient-ascent", "--config", "{config}"],
            ["verify-theorems"],
        ],
        ids=["log-level", "tolerance", "experiment", "missing-config"],
    )
    def test_malformed_command_line_is_one_config_error_line(self, tmp_path, capsys, argv):
        config = self._write_config(tmp_path, VERIFY_CFG)
        with pytest.raises(SystemExit) as excinfo:
            main([arg.format(config=config) for arg in argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: unlearn-lab")

    @pytest.mark.parametrize(
        "experiment,payload",
        [
            ("sweep-nt", {"seeds": [0], "layout": [10**12, 0, 10], "nt_values": [1]}),
            ("classifier-demo", {"seeds": [0], "task": {"per_class": 10**12}}),
        ],
        ids=["sweep-nt-layout", "classifier-demo-per-class"],
    )
    def test_sizes_too_large_to_allocate_exit_two(self, tmp_path, capsys, experiment, payload):
        # ~10^12 entries fail to allocate at once; nothing is ever filled in.
        config = self._write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        assert main([experiment, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot allocate the arrays this config needs: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seeds": [0], "out": "\xff"}')
        out = tmp_path / "x.csv"
        assert main(["sweep-nt", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        config = self._write_config(tmp_path, dict(NT_DISTINCT_CFG, nt_values=[1]))
        out = tmp_path / "a_directory"
        out.mkdir()
        assert main(["sweep-nt", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert list(out.iterdir()) == []
        assert not summary_path_for(out).exists()


class TestLogLevel:
    def _run(self, tmp_path, capsys, name, *flags):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(VERIFY_CFG, nt_values=[1, 29])), encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        code = main([
            "verify-theorems", "--config", str(config), "--out", str(out), "--seeds", "0", *flags,
        ])
        assert code == 0
        summary = json.loads(summary_path_for(out).read_text(encoding="utf-8"))
        del summary["csv"], summary["total_runtime_seconds"]
        return _strip_runtime(out.read_text(encoding="utf-8")), summary, capsys.readouterr().err

    def test_debug_logs_each_rank_deficient_factorization_and_keeps_outputs(
        self, tmp_path, capsys
    ):
        csv, summary, err = self._run(tmp_path, capsys, "default")
        assert err == ""
        debug_csv, debug_summary, debug_err = self._run(
            tmp_path, capsys, "debug", "--log-level", "DEBUG")
        assert (debug_csv, debug_summary) == (csv, summary)
        lines = debug_err.splitlines()
        assert lines and all(
            line.startswith("DEBUG unlearn_lab.linalg: rank-deficient matrix: ") for line in lines)
        # The distinct n_t = 29 prefix (rank d_r = 20) is factored once and
        # shared by the plain and the zero-forget fine-tunes; the oracle
        # predicts neither from that prefix.
        assert sum("shape (40, 29) has rank 20 " in line for line in lines) == 1

    @staticmethod
    def _shipped(tmp_path, capsys, experiment, *flags):
        config = Path(__file__).resolve().parents[1] / "configs" / (
            experiment.replace("-", "_") + ".json")
        out = tmp_path / f"{experiment}.csv"
        code = main([experiment, "--config", str(config), "--out", str(out),
                     "--seeds", "0", *flags])
        assert code == 0
        summary = json.loads(summary_path_for(out).read_text(encoding="utf-8"))
        return summary["rank_deficient_solves"], capsys.readouterr().err.splitlines()

    def test_summary_counts_the_rank_deficient_lines_debug_prints(self, tmp_path, capsys):
        count, lines = self._shipped(tmp_path, capsys, "verify-theorems", "--log-level", "DEBUG")
        assert count > 0
        assert count == sum("rank-deficient matrix" in line for line in lines) == len(lines)
        # The count does not depend on the log level.
        assert self._shipped(tmp_path, capsys, "verify-theorems") == (count, [])

    def test_a_classifier_run_reports_no_rank_deficient_solves(self, tmp_path, capsys):
        assert self._shipped(tmp_path, capsys, "classifier-demo", "--log-level", "DEBUG") == (0, [])

    def test_info_shows_no_debug_lines(self, tmp_path, capsys):
        _, _, err = self._run(tmp_path, capsys, "info", "--log-level", "INFO")
        assert err == ""

    def test_invalid_level_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self._run(tmp_path, capsys, "bad", "--log-level", "TRACE")
        assert excinfo.value.code == 2
        assert "invalid choice: 'TRACE'" in capsys.readouterr().err


class TestWriteOutputs:
    def test_files_written(self, tmp_path):
        cfg = validate_config(dict(NT_DISTINCT_CFG, nt_values=[1]), "sweep-nt")
        result = run_experiment("sweep-nt", cfg)
        csv_path = write_outputs(result, tmp_path / "out" / "nt.csv")
        assert csv_path.read_text().startswith("# schema: sweep-nt/v1")
        summary = json.loads(summary_path_for(csv_path).read_text())
        assert summary["experiment"] == "sweep-nt"
        assert summary["rows"] == 1
        assert summary["passed"] is None
