"""Tests for the experiment runner, CSV/JSON outputs, and the CLI."""

import ctypes
import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearn_lab import experiments, linalg
from unlearn_lab.cli import main
from unlearn_lab.errors import ConfigError, DivergenceError
from unlearn_lab.scenarios import DIST_TAGS, FeatureLayout
from unlearn_lab.experiments import (
    COLUMNS,
    FIELDS,
    render_csv,
    run_experiment,
    summary_path_for,
    validate_config,
    write_outputs,
)

from strategies import distinct_entries, distinct_seeds

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


class TestConfigValidation:
    def test_defaults_materialized(self):
        cfg = validate_config({"seeds": [1]}, "verify-theorems")
        assert cfg["distinct_layout"] == [20, 0, 20]
        assert cfg["overlap_layout"] == [16, 8, 16]
        assert cfg["nt_values"] == list(range(1, 30))
        assert cfg["tolerance"] == {"rel": 1e-8, "abs_floor": 1e-10}

    def test_repeated_seeds_rejected(self):
        for seeds in ([3, 3], [0, 1, 0]):
            with pytest.raises(ConfigError, match="without repeats") as excinfo:
                validate_config({"seeds": seeds}, "sweep-nt")
            assert str(excinfo.value).endswith(f"(got {seeds})")
        assert experiments.as_seeds("--seeds", [2, 0, 1]) == [2, 0, 1]
        with pytest.raises(ConfigError, match="^--seeds: field 'seeds' must be"):
            experiments.as_seeds("--seeds", [1, 1])

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

    def test_dist_choices_are_the_generators_tags(self):
        # The config domain and the scenario generator read one list.
        linear = [e for e, fields in FIELDS.items() if "dist" in fields]
        assert sorted(linear) == ["sweep-nt", "sweep-overlap", "verify-theorems"]
        for experiment in linear:
            assert FIELDS[experiment]["dist"][1].choices == DIST_TAGS
            for dist in DIST_TAGS:
                cfg = validate_config({"seeds": [0], "dist": dist}, experiment)
                assert cfg["dist"] == dist
            with pytest.raises(ConfigError):
                validate_config({"seeds": [0], "dist": "gaussian"}, experiment)

    def test_bad_variant_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(
                {"seeds": [0], "variants": ["fisher"]}, "classifier-demo"
            )

    def test_epochs_are_not_bounded_by_the_seeds_and_variants(self):
        # A fit keeps no per-epoch array, so no rule relates epochs to the
        # seeds, variants or alphas.  Only validated: this config runs 2^60
        # epochs.
        payload = {"seeds": [0], "variants": ["kl-ft"], "epochs": 2**60}
        assert validate_config(payload, "classifier-demo")["epochs"] == 2**60

    def test_no_rule_relates_the_fields_that_flags_override(self):
        # The CLI sets seeds and tolerance from its flags after validation,
        # so a rule on either would need it to validate the config again.
        assert all({"seeds", "tolerance"}.isdisjoint(names) for names, _, _ in experiments.ACROSS)


class TestSchemas:
    def test_pinned_column_sets(self):
        # Schema stability: these exact names and orders are the contract.
        assert COLUMNS.keys() == {
            "verify-theorems/v3", "sweep-nt/v3", "sweep-overlap/v3", "classifier/v5"}
        assert COLUMNS["verify-theorems/v3"] == [
            "experiment", "seed", "check", "option",
            "d_r", "d_lap", "d_f", "n_r", "n_f", "n_t_min", "n_t_max",
            "rl_ft_max", "ul_ft_max", "rl_gold", "ul_gold", "ul_gold_pred",
            "ul_gold_rel_gap", "rl_edit_max", "ul_edit_max",
            "edit_rl_gap_max", "edit_ul_gap_max", "pass",
        ]
        assert COLUMNS["sweep-nt/v3"] == [
            "experiment", "seed", "n_t", "rl_ft", "ul_ft", "rl_gold", "ul_gold",
            "rl_edit_zero", "ul_edit_zero", "rl_edit_retain", "ul_edit_retain",
            "rl_edit_discard", "ul_edit_discard",
        ]
        assert COLUMNS["sweep-overlap/v3"] == [
            "experiment", "seed", "d_lap", "d_r", "d_f", "n_t",
            "rl_gold", "ul_gold", "rl_edit_retain", "ul_edit_retain",
            "rl_edit_discard", "ul_edit_discard",
        ]
        assert COLUMNS["classifier/v5"] == [
            "experiment", "variant", "alpha", "seed", "ua", "ra", "ta",
        ]

    # Each experiment's small config and the stages its summary must name.
    STAGED = [
        ("verify-theorems", dict(VERIFY_CFG, nt_values=[1, 10]),
         {"generate", "solve", "measure", "oracle", "report"}),
        ("sweep-nt", NT_DISTINCT_CFG, {"generate", "solve", "measure", "report"}),
        ("sweep-overlap", OVERLAP_CFG, {"generate", "solve", "measure", "report"}),
        ("classifier-demo", dict(DEMO_CFG, variants=["naive-ft", "retrain"]),
         {"generate", "pretrain", "fine_tune", "score", "report"}),
        ("sweep-alpha", ALPHA_CFG, {"generate", "pretrain", "fine_tune", "score", "report"}),
    ]

    @pytest.mark.parametrize("experiment,cfg,names", STAGED)
    def test_summary_stages_split_the_runtime(self, tmp_path, experiment, cfg, names):
        result = run_experiment(experiment, validate_config(cfg, experiment))
        csv_path = write_outputs(result, tmp_path / "run.csv")
        summary = json.loads(summary_path_for(csv_path).read_text())
        stages = summary["stages"]
        assert list(stages) == list(experiments.STAGES[experiment])
        assert stages.keys() == names
        assert all(seconds >= 0.0 for seconds in stages.values())
        # The stages never nest, so their sum cannot exceed the run's time.
        assert sum(stages.values()) <= summary["total_runtime_seconds"]

    def test_csv_header_lines(self):
        cfg = validate_config(dict(VERIFY_CFG, nt_values=[1]), "verify-theorems")
        result = run_experiment("verify-theorems", cfg)
        text = render_csv(result)
        lines = text.splitlines()
        assert lines[0] == "# schema: verify-theorems/v3"
        assert lines[1].startswith("# config: {")
        assert lines[2] == ",".join(COLUMNS["verify-theorems/v3"])
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
        with pytest.raises(ValueError, match="sweep-nt/v3"):
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


class TestVerifyRowsFromArrays:
    """The verify rows read each seed's losses over n_t as arrays and
    compare them in one gap report per row."""

    @staticmethod
    def _with_nan_predictions(monkeypatch, first_only):
        real = experiments.predict_edited

        def predict(scenario, options, nt_values):
            predictions = real(scenario, options, nt_values)
            for p in predictions:
                for losses in p:
                    losses[..., slice(1) if first_only else slice(None)] = NAN
            return predictions

        monkeypatch.setattr(experiments, "predict_edited", predict)

    @staticmethod
    def _edit_rows(nt_values):
        cfg = validate_config(dict(VERIFY_CFG, nt_values=nt_values), "verify-theorems")
        result = run_experiment("verify-theorems", cfg)
        return result, [row for row in result.rows if row["check"] == "edit"]

    def test_a_nan_gap_never_decides_the_edit_gap_maximum(self, monkeypatch):
        # A NaN prediction at n_t = 1 leaves the maximum of the other sizes'
        # gaps, which a run over those sizes alone reports; all-NaN gaps
        # leave the 0.0 the maximum starts from.
        _, clean = self._edit_rows([10, 29])
        self._with_nan_predictions(monkeypatch, first_only=True)
        result, partly_nan = self._edit_rows([1, 10, 29])
        assert result.passed is False and len(partly_nan) == len(clean) == 6
        for nan_row, clean_row in zip(partly_nan, clean):
            assert nan_row["pass"] is False and clean_row["pass"] is True
            for column in ("edit_rl_gap_max", "edit_ul_gap_max"):
                assert nan_row[column] == clean_row[column], column
                assert type(nan_row[column]) is float
        self._with_nan_predictions(monkeypatch, first_only=False)
        _, all_nan = self._edit_rows([1, 10, 29])
        assert [(row["edit_rl_gap_max"], row["edit_ul_gap_max"], row["pass"])
                for row in all_nan] == [(0.0, 0.0, False)] * 6

    @pytest.mark.parametrize("rel", [1e-8, 0.0])
    def test_pass_cells_are_python_bools_and_render_true_or_false(self, rel):
        cfg = validate_config(dict(VERIFY_CFG, tolerance={"rel": rel, "abs_floor": rel}),
                              "verify-theorems")
        result = run_experiment("verify-theorems", cfg)
        assert all(type(row["pass"]) is bool for row in result.rows)
        lines = render_csv(result).splitlines()
        column = lines[2].split(",").index("pass")
        cells = {line.split(",")[column] for line in lines[3:]}
        assert cells == ({"true"} if rel else {"false"})

    def test_every_number_cell_is_a_python_number(self):
        # A numpy scalar would still format like a float; the rows hold
        # plain Python values so that no cell depends on it.
        for experiment, raw in (("verify-theorems", VERIFY_CFG), ("sweep-nt", NT_CFG),
                                ("sweep-nt", NT_DISTINCT_CFG), ("sweep-overlap", OVERLAP_CFG)):
            result = run_experiment(experiment, validate_config(raw, experiment))
            for row in result.rows:
                assert {type(value) for value in row.values()} <= {str, int, float, bool}, row


class TestPrefixFactorization:
    """Solver prefixes are factored once per config, apart from the oracle's SVDs."""

    @staticmethod
    def _shipped_raw(experiment):
        name = experiment.replace("-", "_")
        path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        return json.loads(path.read_text(encoding="utf-8"))

    @classmethod
    def _shipped(cls, experiment, seeds):
        return validate_config(dict(cls._shipped_raw(experiment), seeds=seeds), experiment)

    @classmethod
    def _shipped_verify(cls, seeds):
        return cls._shipped("verify-theorems", seeds)

    @pytest.mark.parametrize(
        "experiment,solver,oracle",
        [("verify-theorems", 62, 31), ("sweep-nt", 31, 0), ("sweep-overlap", 18, 0)],
        ids=["verify-theorems", "sweep-nt", "sweep-overlap"],
    )
    def test_one_shipped_seed_svd_counts(self, monkeypatch, experiment, solver, oracle):
        # One SVD per distinct solver input (the data, the remaining data
        # and each prefix), and the oracle's own: the remaining data, the
        # joint data (once for both overlap edits) and each prefix.
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
        exact = linalg._truncated_svd

        def tilted(a, side):
            # Tilt each member's left singular vectors out of its column
            # space, in the solvers' factorizations only.  The solves still
            # interpolate (no InconsistentSystemError), but they are no
            # longer minimum-norm; only predictions made from the oracle's
            # own SVDs can notice.
            groups = exact(a, side)
            if side == "oracle":
                return groups
            tilted_groups = []
            for members, u, s, v in groups:
                u = u.copy()
                for member in u:
                    off = 1.0 - member @ member.sum(axis=0)
                    if np.linalg.norm(off) >= 1e-6:
                        member += 1e-3 * np.outer(off / np.linalg.norm(off), np.ones(s.shape[1]))
                tilted_groups.append((members, u, s, v))
            return tilted_groups

        monkeypatch.setattr(linalg, "_truncated_svd", tilted)
        result = run_experiment("verify-theorems", self._shipped_verify([0, 1, 2]))
        assert result.numerical_failures == 0
        assert result.passed is False
        # The rows whose solves move the model: retraining and the discard
        # edit.  The other edits already fit every prefix, so nothing moves.
        for seed in (0, 1, 2):
            failed = {(row["check"], row["option"]) for row in result.rows
                      if row["seed"] == seed and not row["pass"]}
            assert failed == {("distinct", ""), ("overlap", ""), ("edit", "overlap-discard")}

    def test_a_faulty_oracle_factorization_fails_the_oracle_checks(self, monkeypatch):
        exact = linalg._truncated_svd

        def tilted(a, side):
            # The mirror of the solver tilt above: only the oracle's own
            # factorizations are tilted, the solvers stay exact.
            groups = exact(a, side)
            if side == "solvers":
                return groups
            tilted_groups = []
            for members, u, s, v in groups:
                u = u.copy()
                for member in u:
                    off = 1.0 - member @ member.sum(axis=0)
                    if np.linalg.norm(off) >= 1e-6:
                        member += 1e-3 * np.outer(off / np.linalg.norm(off), np.ones(s.shape[1]))
                tilted_groups.append((members, u, s, v))
            return tilted_groups

        monkeypatch.setattr(linalg, "_truncated_svd", tilted)
        result = run_experiment("verify-theorems", self._shipped_verify([0, 1, 2]))
        assert result.numerical_failures == 0
        assert result.passed is False
        # The overlap golden UL (through the remaining-data projector) and
        # the discard edit (through each prefix's).  The distinct rows use
        # no projector.  The retain edit's joint data spans the remaining
        # and overlap blocks, so its tilt leaves that span only inside the
        # forgetting block, where the kept weights are zero and which the
        # forgetting data, inside the span, cannot see.
        for seed in (0, 1, 2):
            failed = {(row["check"], row["option"]) for row in result.rows
                      if row["seed"] == seed and not row["pass"]}
            assert failed == {("overlap", ""), ("edit", "overlap-discard")}

    @pytest.mark.parametrize(
        "experiment,solver,oracle",
        [("verify-theorems", 62, 31), ("sweep-nt", 31, 0), ("sweep-overlap", 18, 0)],
        ids=["verify-theorems", "sweep-nt", "sweep-overlap"],
    )
    def test_stacked_seeds_make_the_solver_svds_of_one(self, monkeypatch, experiment, solver,
                                                        oracle):
        # The solvers factor each input once for all seeds, and so does
        # the oracle, in calls of its own.
        counts = Counter()
        exact = linalg.svd

        def counting_svd(a):
            frame = sys._getframe(1)
            while frame.f_globals["__name__"] not in ("unlearn_lab.oracle", "unlearn_lab.solvers"):
                frame = frame.f_back
            counts[frame.f_globals["__name__"], np.ndim(a)] += 1
            return exact(a)

        monkeypatch.setattr(linalg, "svd", counting_svd)
        result = run_experiment(experiment, self._shipped(experiment, [0, 1, 2]))
        assert result.failures == [] and result.passed in (True, None)
        assert counts == Counter({("unlearn_lab.solvers", 3): solver,
                                  ("unlearn_lab.oracle", 3): oracle})


def _rows_by_seed(result) -> dict:
    """Each seed's rows as reprs (exact floats, NaN included)."""
    rows: dict = {}
    for row in result.rows:
        rows.setdefault(row["seed"], []).append(repr(row))
    return rows


def _collinear(scenario, cosine):
    """``scenario`` with its second remaining column at ``cosine`` to its
    first (equal to it at cosine 1), and labels that fit."""
    x_r = scenario.x_r.copy()
    first = x_r[:, 0]
    if cosine == 1.0:
        # No other direction is needed, so any layout will do, even one
        # whose remaining block is empty.
        x_r[:, 1] = first
    else:
        other = np.zeros_like(first)
        other[scenario.layout.remaining_block] = np.random.default_rng(7).standard_normal(
            scenario.layout.d_r)
        other -= (other @ first) / (first @ first) * first
        other *= np.linalg.norm(first) / np.linalg.norm(other)
        angle = np.arccos(cosine)
        x_r[:, 1] = np.cos(angle) * first + np.sin(angle) * other
    return dataclasses.replace(scenario, x_r=x_r, y_r=x_r.T @ scenario.w_star)


class TestLinearSeedStack:
    """A linear config solves all its seeds as one stack per layout, and
    each seed gets the rows, failure and rank-deficiency count of its own run."""

    @staticmethod
    def _stacked_and_alone(experiment, raw, seeds):
        stacked = run_experiment(experiment, validate_config(dict(raw, seeds=seeds), experiment))
        alone = [run_experiment(experiment, validate_config(dict(raw, seeds=[seed]), experiment))
                 for seed in seeds]
        return stacked, alone

    @staticmethod
    def _assert_each_seed_as_alone(stacked, alone):
        rows = _rows_by_seed(stacked)
        assert rows == {seed: seed_rows for run in alone
                        for seed, seed_rows in _rows_by_seed(run).items()}
        assert stacked.failures == [failure for run in alone for failure in run.failures]
        assert stacked.rank_deficient_solves == {
            kind: sum(run.rank_deficient_solves[kind] for run in alone)
            for kind in ("solvers", "oracle")}

    @pytest.mark.parametrize("experiment,raw", [
        ("verify-theorems", VERIFY_CFG),
        ("verify-theorems", {"n_r": 30, "dist": "uniform",
                             "distinct_layout": [4, 0, 36], "overlap_layout": [3, 2, 35]}),
        ("sweep-nt", NT_CFG),
        ("sweep-nt", NT_DISTINCT_CFG),
        ("sweep-overlap", OVERLAP_CFG),
    ], ids=["verify", "verify-rank-deficient", "sweep-nt", "sweep-nt-distinct", "sweep-overlap"])
    def test_stacked_seeds_equal_their_own_runs(self, experiment, raw):
        stacked, alone = self._stacked_and_alone(experiment, raw, [0, 1, 2])
        assert stacked.failures == [] and stacked.passed in (True, None)
        self._assert_each_seed_as_alone(stacked, alone)

    @pytest.mark.parametrize("experiment,raw,fault", [
        ("verify-theorems", VERIFY_CFG, "non-finite"),
        ("verify-theorems", VERIFY_CFG, 8),
        ("sweep-overlap", OVERLAP_CFG, 2),
    ], ids=["verify-non-finite", "verify-inconsistent-overlap", "sweep-overlap-inconsistent"])
    def test_a_failing_seed_between_two_clean_ones_fails_alone(
        self, monkeypatch, experiment, raw, fault
    ):
        # Seed 1's data holds a NaN, which its first solve rejects; or, in
        # the layout whose overlap block has width ``fault``, its remaining
        # labels leave the span of its rank-deficient remaining data, so
        # its retrain fails after its stack has factored and after an
        # earlier layout has passed.  In sweep-overlap the next layout
        # (width 4) is rank-deficient too, so solving it for seed 1 would
        # show in the counts.
        real = experiments.gen_scenario

        def faulty(n_r, n_f, layout, seed, dist):
            scenario = real(n_r, n_f, layout, seed, dist)
            if seed == 1 and fault == "non-finite":
                x_f = scenario.x_f.copy()
                x_f[-1, 0] = NAN
                return dataclasses.replace(scenario, x_f=x_f)
            if seed == 1 and layout.d_lap == fault:
                return dataclasses.replace(scenario, y_r=scenario.y_r + 1.0)
            return scenario

        monkeypatch.setattr(experiments, "gen_scenario", faulty)
        stacked, alone = self._stacked_and_alone(experiment, raw, [0, 1, 2])
        [failure] = stacked.failures
        assert failure["seed"] == 1
        assert failure["type"] == ("InvalidMatrixError" if fault == "non-finite"
                                   else "InconsistentSystemError")
        assert experiments.exit_code_for(stacked) == 1
        self._assert_each_seed_as_alone(stacked, alone)
        if experiment == "sweep-overlap":
            # Seed 1's run solves no layout past the one it fails on.
            widths = raw["d_lap_values"]
            cut = dict(raw, seeds=[1], d_lap_values=widths[:widths.index(fault) + 1])
            assert run_experiment(experiment, validate_config(cut, experiment)) \
                .rank_deficient_solves == alone[1].rank_deficient_solves

    @pytest.mark.parametrize("layout", ["distinct", "overlap"])
    def test_a_failing_oracle_seed_between_two_clean_ones_fails_alone(
        self, monkeypatch, caplog, layout
    ):
        # Seed 1's prediction raises while every solve passes: in the
        # distinct layout its baseline prediction, or in the overlap layout
        # the oracle's SVD of its joint data.  By then the stacked overlap
        # pass has projected the three seeds' rank-deficient remaining
        # data, which it must not count.
        message = "SVD did not converge for shape (40, 40)"
        raised = []
        if layout == "distinct":
            real = experiments.predict_distinct
            target = experiments.gen_scenario(
                30, 10, FeatureLayout(20, 0, 20), 1, "standard-normal").x_r

            def failing_prediction(scenario):
                if any(np.array_equal(member, target) for member in scenario.x_r):
                    raised.append(len(scenario.x_r))
                    raise linalg.SvdFailureError(message)
                return real(scenario)

            monkeypatch.setattr(experiments, "predict_distinct", failing_prediction)
        else:
            target = experiments.gen_scenario(
                30, 10, FeatureLayout(16, 8, 16), 1, "standard-normal").joint_data()[0]
            exact = linalg._truncated_svd

            def failing_svd(a, side):
                if side == "oracle" and any(np.array_equal(member, target) for member in a):
                    raised.append(len(a))
                    raise linalg.SvdFailureError(message)
                return exact(a, side)

            monkeypatch.setattr(linalg, "_truncated_svd", failing_svd)

        def run(seeds):
            caplog.clear()
            with caplog.at_level("DEBUG", logger="unlearn_lab.linalg"):
                result = run_experiment(
                    "verify-theorems", validate_config(dict(VERIFY_CFG, seeds=seeds),
                                                       "verify-theorems"))
            return result, Counter(record.getMessage() for record in caplog.records)

        stacked, stacked_lines = run([0, 1, 2])
        assert raised == [3, 1]
        alone = [run([seed]) for seed in (0, 1, 2)]
        assert stacked.failures == [{"seed": 1, "type": "SvdFailureError", "message": message}]
        assert sorted(_rows_by_seed(stacked)) == [0, 2]
        self._assert_each_seed_as_alone(stacked, [run for run, _ in alone])
        assert stacked_lines == sum((lines for _, lines in alone), Counter())
        assert sum(stacked_lines.values()) == sum(stacked.rank_deficient_solves.values())
        # Seed 1's run predicts no layout past the one it fails on: its one
        # oracle record is the remaining-data projector of the overlap pass.
        oracle_records = alone[1][0].rank_deficient_solves["oracle"]
        assert oracle_records == {"distinct": 0, "overlap": 1}[layout]

    def test_a_seed_stops_at_the_first_failing_step_of_its_own_run(self, monkeypatch):
        # Seed 1's distinct prediction raises, and its overlap retrain would
        # raise too (its remaining labels leave the span of its data).  Its
        # run predicts the distinct layout before it solves the overlap one,
        # so it gets the prediction's error and never solves that layout.
        message = "SVD did not converge for shape (40, 40)"
        real_predict, real_scenario = experiments.predict_distinct, experiments.gen_scenario
        target = real_scenario(30, 10, FeatureLayout(20, 0, 20), 1, "standard-normal").x_r
        generated = []

        def failing_prediction(scenario):
            if any(np.array_equal(member, target) for member in scenario.x_r):
                raise linalg.SvdFailureError(message)
            return real_predict(scenario)

        def faulty(n_r, n_f, layout, seed, dist):
            generated.append((seed, layout.d_lap))
            scenario = real_scenario(n_r, n_f, layout, seed, dist)
            if seed == 1 and layout.d_lap == 8:
                return dataclasses.replace(scenario, y_r=scenario.y_r + 1.0)
            return scenario

        monkeypatch.setattr(experiments, "predict_distinct", failing_prediction)
        monkeypatch.setattr(experiments, "gen_scenario", faulty)
        stacked, alone = self._stacked_and_alone("verify-theorems", VERIFY_CFG, [0, 1, 2])
        assert alone[1].failures == [{"seed": 1, "type": "SvdFailureError", "message": message}]
        assert sorted(_rows_by_seed(stacked)) == [0, 2]
        self._assert_each_seed_as_alone(stacked, alone)
        assert (1, 8) not in generated

    def test_near_collinear_remaining_columns_beside_generic_seeds(self, monkeypatch):
        # A hard input: seed 1's first two remaining columns meet at
        # cosine 1 - 1e-12, so its smallest singular values are about 1e-6
        # of the largest, far above the cutoff; seed 3's are equal, so its
        # prefixes of 2 to d_r columns are one rank short and solve as
        # their own sub-stack beside seeds 0 and 2.
        real = experiments.gen_scenario
        cosines = {1: 1.0 - 1e-12, 3: 1.0}

        def hard(n_r, n_f, layout, seed, dist):
            scenario = real(n_r, n_f, layout, seed, dist)
            if seed in cosines and layout.is_distinct:
                return _collinear(scenario, cosines[seed])
            return scenario

        monkeypatch.setattr(experiments, "gen_scenario", hard)
        x_r = hard(30, 10, FeatureLayout(20, 0, 20), 1, "standard-normal").x_r
        cosine = x_r[:, 0] @ x_r[:, 1] / np.linalg.norm(x_r[:, 0]) / np.linalg.norm(x_r[:, 1])
        assert abs(cosine - (1.0 - 1e-12)) < 1e-15

        groups = []
        exact = linalg._truncated_svd

        def grouping(a, side):
            factors = exact(a, side)
            groups.append([members for members, *_ in factors])
            return factors

        monkeypatch.setattr(linalg, "_truncated_svd", grouping)
        shipped = TestPrefixFactorization._shipped_raw("verify-theorems")
        stacked, alone = self._stacked_and_alone("verify-theorems", shipped, [0, 1, 2, 3])
        assert stacked.passed is True and stacked.failures == []
        self._assert_each_seed_as_alone(stacked, alone)
        # The n_t = 2 ... 20 distinct prefixes of the four-member stack.
        assert groups.count([[0, 1, 2], [3]]) == 19


@st.composite
def _small_linear_configs(draw, among=("verify-theorems", "sweep-nt", "sweep-overlap")):
    """A valid config of one of the linear experiments ``among``, of small
    sizes and 2-4 distinct seeds, each field drawn inside its domain in
    :data:`FIELDS`.  Layouts range from rank-deficient, where the
    remaining and overlap blocks together are narrower than ``n_r``, to
    generic; an overlap block keeps ``d_r + d_lap <= n_r``, as
    :data:`~unlearn_lab.experiments.ACROSS` requires.  Also draws some but
    not all of the seeds to have a second remaining column equal to their
    first: beside the other seeds of a layout, their prefixes of two or
    more columns can solve as a rank group of their own."""
    experiment = draw(st.sampled_from(among))
    fields = FIELDS[experiment]
    n_r = draw(st.integers(fields["n_r"][1].low, 8))
    n_f = draw(st.integers(fields["n_f"][1].low, 4))
    raw = {
        "experiment": experiment,
        "seeds": draw(distinct_seeds()),
        "n_r": n_r, "n_f": n_f,
        "dist": draw(st.sampled_from(fields["dist"][1].choices)),
    }

    def layout(d_lap):
        d_r = draw(st.integers(0, n_r - d_lap if d_lap else 12))
        return [d_r, d_lap, draw(st.integers(max(0, n_r + n_f - d_r - d_lap), 12))]

    if experiment == "sweep-overlap":
        # An odd d needs an odd d_lap > 0, which needs d + 1 <= 2 n_r.
        d = draw(st.sampled_from([d for d in range(n_r + n_f, 17) if d % 2 == 0 or d < 2 * n_r]))
        widths = [d_lap for d_lap in range(d) if (d - d_lap) % 2 == 0
                  and (d_lap == 0 or d + d_lap <= 2 * n_r)]
        raw.update(d=d, n_t=draw(st.integers(1, n_r - 1)),
                   d_lap_values=draw(distinct_entries(widths, 1, 3)))
    else:
        raw["nt_values"] = draw(st.none() | distinct_entries(range(1, n_r), 1, 4))
        overlap = layout(draw(st.integers(0, min(6, n_r))))
        if experiment == "sweep-nt":
            raw["layout"] = overlap
        else:
            raw.update(distinct_layout=layout(0), overlap_layout=overlap)
    collinear = set(draw(distinct_entries(raw["seeds"], 1, len(raw["seeds"]) - 1)))
    return experiment, validate_config(raw, experiment), collinear


@settings(max_examples=50, deadline=None)
@given(case=_small_linear_configs())
def test_stacked_linear_seeds_equal_their_own_runs_on_drawn_configs(case):
    experiment, cfg, collinear = case
    real = experiments.gen_scenario

    def ragged(n_r, n_f, layout, seed, dist):
        scenario = real(n_r, n_f, layout, seed, dist)
        return _collinear(scenario, 1.0) if seed in collinear else scenario

    with mock.patch.object(experiments, "gen_scenario", ragged):
        stacked, alone = TestLinearSeedStack._stacked_and_alone(experiment, cfg, cfg["seeds"])
    TestLinearSeedStack._assert_each_seed_as_alone(stacked, alone)


@settings(max_examples=50, deadline=None)
@given(case=_small_linear_configs(among=["verify-theorems"]))
def test_drawn_verify_configs_pass_the_oracle_checks(case):
    # Plain draws: a duplicated column leaves the theorem's generic regime.
    _, cfg, _ = case
    result = run_experiment("verify-theorems", cfg)
    assert result.failures == [] and result.passed is True


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
            for name in ("ua", "ra", "ta"):
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

    def test_failed_seed_is_listed_in_the_summary(self, tmp_path, monkeypatch):
        real_grid = experiments.run_seed_grid

        def flaky_grid(task, pairs, seeds, epochs, step_size):
            # A stack that holds seed 1 diverges; the runner reruns each seed alone.
            if 1 in seeds:
                raise DivergenceError(
                    "loss of 1 model(s) became non-finite; try a smaller step_size")
            return real_grid(task, pairs, seeds, epochs, step_size)

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
    def test_rerun_is_byte_identical(self, experiment, cfg):
        validated = validate_config(cfg, experiment)
        first = render_csv(run_experiment(experiment, validated))
        second = render_csv(run_experiment(experiment, validated))
        assert first == second


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

    @pytest.mark.parametrize("overlap_layout", [[16, 8, 16], [30, 2, 8], [20, 0, 20]])
    def test_an_overlap_layout_wider_than_n_r_exits_two_with_one_line(
            self, tmp_path, capsys, overlap_layout):
        # The overlap edit predictions hold once n_r >= d_r + d_lap; an
        # empty overlap block holds at any n_r.
        d_r, d_lap, _ = overlap_layout
        widest = d_r + d_lap if d_lap else 4
        for n_r, expected in ((widest - 1, 2 if d_lap else 0), (widest, 0)):
            payload = {"seeds": [0, 1, 2], "n_r": n_r, "n_f": 5,
                       "overlap_layout": overlap_layout, "nt_values": [1, n_r - 1]}
            out = tmp_path / f"{n_r}.csv"
            code = main(["verify-theorems", "--config", str(self._write_config(tmp_path, payload)),
                         "--out", str(out)])
            err = capsys.readouterr().err
            assert code == expected, (n_r, err)
            if expected:
                assert not out.exists()
                assert err == (
                    "config error: verify-theorems: overlap_layout must have d_lap = 0 or"
                    f" d_r + d_lap <= n_r (got {{'n_r': {n_r}, 'overlap_layout':"
                    f" {overlap_layout}}})\n")
            else:
                assert json.loads(summary_path_for(out).read_text())["passed"] is True

    @pytest.mark.parametrize("layout", [[16, 8, 16], [30, 2, 8], [20, 0, 20]])
    def test_a_sweep_nt_layout_wider_than_n_r_exits_two_with_one_line(
            self, tmp_path, capsys, layout):
        # The rule of the verify overlap layout above, on the sweep's one layout.
        d_r, d_lap, _ = layout
        widest = d_r + d_lap if d_lap else 4
        for n_r, expected in ((widest - 1, 2 if d_lap else 0), (widest, 0)):
            payload = {"seeds": [0, 1], "n_r": n_r, "n_f": 5, "layout": layout,
                       "nt_values": [1, n_r - 1]}
            out = tmp_path / f"{n_r}.csv"
            code = main(["sweep-nt", "--config", str(self._write_config(tmp_path, payload)),
                         "--out", str(out)])
            err = capsys.readouterr().err
            assert code == expected, (n_r, err)
            assert out.exists() == (expected == 0)
            if expected:
                assert err == ("config error: sweep-nt: layout must have d_lap = 0 or"
                               f" d_r + d_lap <= n_r (got {{'n_r': {n_r}, 'layout': {layout}}})\n")

    @pytest.mark.parametrize("d_lap_values,widest", [([0, 2, 8], 14), ([4], 12), ([0], 4)])
    def test_a_sweep_overlap_width_beyond_n_r_exits_two_with_one_line(
            self, tmp_path, capsys, d_lap_values, widest):
        # A sweep-overlap layout of width d_lap has d_r + d_lap = (d + d_lap) / 2,
        # here with d = 20.
        for n_r, expected in ((widest - 1, 2 if max(d_lap_values) else 0), (widest, 0)):
            payload = {"seeds": [0, 1], "d": 20, "n_r": n_r, "n_f": 5, "n_t": n_r - 1,
                       "d_lap_values": d_lap_values}
            out = tmp_path / f"{n_r}.csv"
            code = main(["sweep-overlap", "--config",
                         str(self._write_config(tmp_path, payload)), "--out", str(out)])
            err = capsys.readouterr().err
            assert code == expected, (n_r, err)
            assert out.exists() == (expected == 0)
            if expected:
                assert err == (
                    "config error: sweep-overlap: every d_lap > 0 must have (d + d_lap) / 2"
                    f" <= n_r (got {{'d': 20, 'n_r': {n_r}, 'd_lap_values': {d_lap_values}}})\n")

    def test_missing_config_file_exits_two(self, tmp_path):
        code = main(["sweep-nt", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["sweep-nt", "--config", str(path)]) == 2

    @pytest.mark.parametrize("experiment,text,key", [
        ("sweep-nt", '{"seeds": [0], "seeds": [1, 2]}', "seeds"),
        ("classifier-demo", '{"seeds": [0], "task": {"sep": 4.0, "sep": 1e150}}', "sep"),
    ], ids=["top-level", "nested"])
    def test_a_repeated_key_is_rejected_not_overwritten(self, tmp_path, experiment, text, key):
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            experiments.load_config(path, experiment)
        assert str(excinfo.value) == f"config file {path} repeats the key {key!r}"

    def test_a_repeated_key_exits_two_with_one_line(self, tmp_path, capsys):
        path, out = tmp_path / "repeated.json", tmp_path / "run.csv"
        path.write_text('{"seeds": [0], "nt_values": [1], "seeds": [1, 2]}', encoding="utf-8")
        assert main(["sweep-nt", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == f"config error: config file {path} repeats the key 'seeds'\n"

    @pytest.mark.parametrize("experiment,config,flags", [
        ("sweep-nt", NT_CFG, ["--seeds", "3,3"]),
        ("verify-theorems", VERIFY_CFG, ["--seeds", "0,1,0"]),
        ("classifier-demo", dict(DEMO_CFG, seeds=[1, 1]), []),
        ("sweep-overlap", dict(OVERLAP_CFG, seeds=[2, 0, 2]), []),
    ])
    def test_repeated_seeds_exit_two_with_one_line(self, tmp_path, capsys, experiment, config,
                                                   flags):
        out = tmp_path / "run.csv"
        code = main([experiment, "--config", str(self._write_config(tmp_path, config)),
                     "--out", str(out), *flags])
        assert code == 2 and not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert "field 'seeds' must be a non-empty list without repeats" in lines[0]

    @pytest.mark.parametrize("experiment,config,field,values", [
        ("sweep-nt", NT_CFG, "nt_values", [5, 5, 7]),
        ("sweep-overlap", OVERLAP_CFG, "d_lap_values", [0, 2, 4, 2]),
        ("classifier-demo", DEMO_CFG, "variants", ["kl-ft", "retrain", "kl-ft"]),
        ("sweep-alpha", ALPHA_CFG, "alphas", [0.1, 0.1]),
    ])
    def test_repeated_list_values_exit_two_with_one_line(self, tmp_path, capsys, experiment,
                                                         config, field, values):
        out = tmp_path / "run.csv"
        config = self._write_config(tmp_path, dict(config, **{field: values}))
        code = main([experiment, "--config", str(config), "--out", str(out)])
        assert code == 2 and not out.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert f"field '{field}' must be a non-empty list without repeats" in lines[0]

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
            # Every entry is a decimal integer: no empty entry, no underscore.
            ["--seeds", "1,,2"],
            ["--seeds", "1,"],
            ["--seeds", ",1"],
            ["--seeds", "1_0"],
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

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS and ru_maxrss in KiB")
    def test_a_huge_default_nt_range_exits_two_before_it_is_built(self, tmp_path):
        # The default nt_values of n_r = 2 * 10^7 would be that many Python
        # ints, about 800 MB; the data, 2.8 PiB, must fail to allocate
        # first.  The child runs under a 512 MiB address-space cap, so a
        # regression ends in MemoryError too, but only after filling the
        # cap: its peak resident size tells the two apart.
        config = self._write_config(
            tmp_path, {"seeds": [0], "n_r": 2 * 10**7, "layout": [2 * 10**7, 0, 10]})
        out = tmp_path / "x.csv"
        cap = 512 * 2**20
        script = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
            "from unlearn_lab.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
            "sys.exit(code)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run(
            [sys.executable, "-c", script, "sweep-nt", "--config", str(config), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == 2
        assert child.stderr.startswith("config error: cannot allocate the arrays this config needs: ")
        assert child.stderr.count("\n") == 1
        assert not out.exists()
        # ru_maxrss is in KiB on Linux: the child never grew past its imports.
        assert int(child.stdout) < 100 * 1024

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
    # The run's own INFO lines: each failed seed, then each stage's seconds.
    INFO = "INFO unlearn_lab.experiments: "

    def _run(self, tmp_path, capsys, name, *flags):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(VERIFY_CFG, nt_values=[1, 29])), encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        code = main([
            "verify-theorems", "--config", str(config), "--out", str(out), "--seeds", "0", *flags,
        ])
        assert code == 0
        summary = json.loads(summary_path_for(out).read_text(encoding="utf-8"))
        del summary["csv"], summary["total_runtime_seconds"], summary["stages"]
        return out.read_text(encoding="utf-8"), summary, capsys.readouterr().err

    @classmethod
    def _info_lines(cls, summary_path):
        """The INFO lines of the run whose summary is at ``summary_path``,
        its stages in STAGES order."""
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        return ([f"{cls.INFO}seed {f['seed']} failed: {f['type']}: {f['message']}"
                 for f in summary["failures"]]
                + [f"{cls.INFO}stage {name}: {summary['stages'][name]:.6f} s"
                   for name in experiments.STAGES[summary["experiment"]]])

    def test_debug_logs_each_rank_deficient_factorization_and_keeps_outputs(
        self, tmp_path, capsys
    ):
        csv, summary, err = self._run(tmp_path, capsys, "default")
        assert err == ""
        debug_csv, debug_summary, debug_err = self._run(
            tmp_path, capsys, "debug", "--log-level", "DEBUG")
        assert (debug_csv, debug_summary) == (csv, summary)
        lines = [line for line in debug_err.splitlines() if not line.startswith(self.INFO)]
        assert lines and all(
            line.startswith("DEBUG unlearn_lab.linalg: rank-deficient matrix: ") for line in lines)
        # The distinct n_t = 29 prefix (rank d_r = 20) is factored once and
        # shared by the plain and the zero-forget fine-tunes; the oracle
        # predicts neither from that prefix.
        assert sum("shape (40, 29) has rank 20 " in line for line in lines) == 1

    @staticmethod
    def _shipped(tmp_path, capsys, experiment, *flags, seeds="0"):
        config = Path(__file__).resolve().parents[1] / "configs" / (
            experiment.replace("-", "_") + ".json")
        out = tmp_path / f"{experiment}.csv"
        code = main([experiment, "--config", str(config), "--out", str(out),
                     "--seeds", seeds, *flags])
        assert code == 0
        summary = json.loads(summary_path_for(out).read_text(encoding="utf-8"))
        lines = capsys.readouterr().err.splitlines()
        return summary["rank_deficient_solves"], [
            line for line in lines if not line.startswith(TestLogLevel.INFO)]

    def test_summary_counts_the_rank_deficient_lines_debug_prints(self, tmp_path, capsys):
        counts, lines = self._shipped(tmp_path, capsys, "verify-theorems", "--log-level", "DEBUG")
        count = sum(counts.values())
        assert count > 0
        assert count == sum("rank-deficient matrix" in line for line in lines) == len(lines)
        # 18 of seed 0's factorizations are the solvers', 7 the oracle's
        # projectors: the remaining data, the joint data and five prefixes.
        assert counts == {"solvers": 18, "oracle": 7}
        # The count does not depend on the log level.
        assert self._shipped(tmp_path, capsys, "verify-theorems") == (counts, [])

    @pytest.mark.parametrize("experiment", ["verify-theorems", "sweep-nt", "sweep-overlap"])
    def test_a_stack_logs_and_counts_the_lines_of_its_seeds(self, tmp_path, capsys, experiment):
        counts, lines = self._shipped(
            tmp_path, capsys, experiment, "--log-level", "DEBUG", seeds="0,1,2")
        alone = [self._shipped(tmp_path, capsys, experiment, "--log-level", "DEBUG", seeds=seed)
                 for seed in "012"]
        assert Counter(lines) == sum((Counter(seed_lines) for _, seed_lines in alone), Counter())
        assert counts == {kind: sum(seed_counts[kind] for seed_counts, _ in alone)
                          for kind in ("solvers", "oracle")}
        assert sum(counts.values()) == len(lines) > 0

    def test_a_classifier_run_reports_no_rank_deficient_solves(self, tmp_path, capsys):
        assert self._shipped(tmp_path, capsys, "classifier-demo", "--log-level", "DEBUG") == (
            {"solvers": 0, "oracle": 0}, [])

    def test_info_shows_no_debug_lines(self, tmp_path, capsys):
        _, _, err = self._run(tmp_path, capsys, "info", "--log-level", "INFO")
        # One line per stage, in STAGES order, with the summary's seconds.
        assert err.splitlines() == self._info_lines(summary_path_for(tmp_path / "info.csv"))

    def test_outputs_are_the_same_at_every_level(self, tmp_path, capsys):
        outputs = {level: self._run(tmp_path, capsys, level, "--log-level", level)
                   for level in ("WARNING", "INFO", "DEBUG")}
        csv, summary, err = outputs["WARNING"]
        assert err == ""
        assert all(output[:2] == (csv, summary) for output in outputs.values())
        # DEBUG shows the INFO lines too, beside the rank-deficiency lines.
        debug_info = [line for line in outputs["DEBUG"][2].splitlines()
                      if line.startswith(self.INFO)]
        assert debug_info == self._info_lines(summary_path_for(tmp_path / "DEBUG.csv"))

    def test_info_shows_each_failed_seed_with_its_error(self, tmp_path, capsys):
        # sep 1e150 at step 1e10: each seed's fine-tune runs out of halvings.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(
            DEMO_CFG, variants=["kl-ft"], step_size=1e10,
            task=dict(DEMO_CFG["task"], sep=1e150))), encoding="utf-8")
        out = tmp_path / "diverge.csv"
        code = main(["classifier-demo", "--config", str(config), "--out", str(out),
                     "--log-level", "INFO"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == self._info_lines(summary_path_for(out))
        message = ("loss of 1 model(s) became non-finite even at step size 3.125e+08; "
                   "try a smaller step_size")
        assert lines[:2] == [f"{self.INFO}seed {seed} failed: DivergenceError: {message}"
                             for seed in (0, 1)]
        assert len(lines) == 2 + len(experiments.STAGES["classifier-demo"])

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
        assert csv_path.read_text().startswith("# schema: sweep-nt/v3")
        summary = json.loads(summary_path_for(csv_path).read_text())
        assert summary["experiment"] == "sweep-nt"
        assert summary["rows"] == 1
        assert summary["passed"] is None


class TestPlatformRecord:
    """The summary names what the run's bits depend on: numpy's version and
    the OpenBLAS kernel, read once per process and null where unreadable."""

    @pytest.fixture(autouse=True)
    def _fresh_read(self):
        experiments._openblas.cache_clear()
        yield
        experiments._openblas.cache_clear()

    def test_the_summary_records_the_platform_read_once(self, tmp_path, monkeypatch):
        opened = []
        real = ctypes.CDLL

        def counting(name, *args, **kwargs):
            opened.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(ctypes, "CDLL", counting)
        cfg = validate_config(dict(NT_DISTINCT_CFG, nt_values=[1]), "sweep-nt")
        result = run_experiment("sweep-nt", cfg)
        csvs = []
        for run in range(2):
            csv_path = write_outputs(result, tmp_path / f"{run}.csv")
            csvs.append(csv_path.read_text())
            platform = json.loads(summary_path_for(csv_path).read_text())["platform"]
            assert platform == experiments.platform_record()
            assert platform["numpy"] == np.__version__
            for name in ("openblas_core", "openblas_config"):
                assert platform[name] is None or (isinstance(platform[name], str)
                                                  and platform[name])
        assert len(opened) <= 1 and (platform["openblas_core"] is None or opened)
        assert csvs[0] == csvs[1] == render_csv(result)

    def test_an_unreadable_library_is_null(self, monkeypatch):
        monkeypatch.setattr(experiments, "OPENBLAS_GLOBS", ("no-such-directory/*",))
        assert experiments.platform_record() == {
            "numpy": np.__version__, "openblas_core": None, "openblas_config": None}
        # A library without the query function.
        assert experiments._openblas_string(object(), "scipy_openblas_get_corename64_") is None
