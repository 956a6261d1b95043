"""Configuration-driven experiment runner with CSV/JSON emission.

Five experiments are exposed: closed-form verification of the linear
pipeline (``verify-theorems``), sweeps over the fine-tuning subset size
(``sweep-nt``) and the overlap width (``sweep-overlap``), and the
classifier demo and its regularization sweep (``classifier-demo``,
``sweep-alpha``).

Output contract: one CSV per run whose header comments materialize the
full, defaulted configuration (so the file is self-describing), plus a
JSON summary with pass/fail and a config echo.  Re-running a config
reproduces the CSV byte for byte except for the trailing runtime column.
Column sets are versioned via the ``# schema:`` header line.  In
``classifier/v3`` every row of one seed, ``retrain`` included, comes
from one stacked descent in which identical objectives descend once and
``retrain`` is the zero-start member; ``runtime_seconds`` is each row's
equal share of that descent's wall time.

Rows are dicts keyed by column name; :data:`COLUMNS` alone fixes the
order of the cells, and :func:`render_csv` checks each row against it.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifier import (
    VARIANTS,
    ClassTask,
    FtConfig,
    run_seed_grid,
)
from .errors import ConfigError, UnlearnLabError
from .linalg import Factored
from .metrics import gap_report, measure_losses
from .oracle import predict_distinct, predict_edited, predict_overlap
from .rng import is_seed
from .scenarios import FeatureLayout, gen_scenario, fine_tune_subset
from .solvers import (
    EditOption,
    edit_pretrained,
    fine_tune_unlearn,
    retrain_golden,
    train_original,
)

EXPERIMENTS = (
    "verify-theorems",
    "sweep-nt",
    "sweep-overlap",
    "classifier-demo",
    "sweep-alpha",
)

SCHEMAS = {
    "verify-theorems": "verify-theorems/v1",
    "sweep-nt": "sweep-nt/v1",
    "sweep-overlap": "sweep-overlap/v1",
    "classifier-demo": "classifier/v3",
    "sweep-alpha": "classifier/v3",
}

COLUMNS = {
    "verify-theorems/v1": [
        "experiment", "seed", "check", "option",
        "d_r", "d_lap", "d_f", "n_r", "n_f", "n_t_min", "n_t_max",
        "rl_ft_max", "ul_ft_max", "rl_gold", "ul_gold", "ul_gold_pred",
        "ul_gold_rel_gap", "rl_edit_max", "ul_edit_max",
        "edit_rl_gap_max", "edit_ul_gap_max", "pass", "runtime_seconds",
    ],
    "sweep-nt/v1": [
        "experiment", "seed", "n_t", "rl_ft", "ul_ft", "rl_gold", "ul_gold",
        "rl_edit_zero", "ul_edit_zero", "rl_edit_retain", "ul_edit_retain",
        "rl_edit_discard", "ul_edit_discard", "runtime_seconds",
    ],
    "sweep-overlap/v1": [
        "experiment", "seed", "d_lap", "d_r", "d_f", "n_t",
        "rl_gold", "ul_gold", "rl_edit_retain", "ul_edit_retain",
        "rl_edit_discard", "ul_edit_discard", "runtime_seconds",
    ],
    "classifier/v3": [
        "experiment", "variant", "alpha", "seed", "ua", "ra", "ta",
        "runtime_seconds",
    ],
}


@dataclass
class ExperimentResult:
    """Rows plus bookkeeping for one experiment run."""

    experiment: str
    schema: str
    config: dict
    rows: list[dict] = field(default_factory=list)
    passed: bool | None = None
    failures: list[dict] = field(default_factory=list)
    total_runtime_seconds: float = 0.0

    @property
    def numerical_failures(self) -> int:
        """Number of seeds that raised; ``failures`` says which and why."""
        return len(self.failures)


# ----------------------------------------------------------------------
# Configuration loading and validation
# ----------------------------------------------------------------------

def _is_int(value) -> bool:
    """JSON integer; ``true``/``false`` are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """Finite JSON integer or float, booleans excluded.

    NaN and the infinities fail the bound, and so does an integer too
    large to become a float (where ``math.isfinite`` would raise).
    """
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _require(kind, value, name, predicate, message):
    if not predicate(value):
        raise ConfigError(f"{kind}: field {name!r} {message} (got {value!r})")
    return value


def _as_layout(kind, raw, name) -> list[int]:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 3
        or not all(_is_int(v) and v >= 0 for v in raw)
    ):
        raise ConfigError(f"{kind}: field {name!r} must be three nonnegative ints")
    return list(raw)


def as_seeds(kind, raw) -> list[int]:
    """Validated seed list: non-empty, every seed an integer in ``[0, 2^64)``."""
    if not isinstance(raw, list) or not raw or not all(_is_int(s) and is_seed(s) for s in raw):
        raise ConfigError(f"{kind}: 'seeds' must be a non-empty list of integers in [0, 2^64)")
    return list(raw)


def as_tolerance(kind, raw) -> dict:
    """Validated tolerance: the defaults overridden by finite nonnegative numbers."""
    tol = {"rel": 1e-8, "abs_floor": 1e-10}
    if raw is None:
        return tol
    if not isinstance(raw, dict):
        raise ConfigError(f"{kind}: 'tolerance' must be an object")
    for key in raw:
        if key not in tol:
            raise ConfigError(f"{kind}: unknown tolerance key {key!r}")
        value = raw[key]
        if not _is_number(value) or value < 0:
            raise ConfigError(f"{kind}: tolerance {key!r} must be a finite nonnegative number")
        tol[key] = float(value)
    return tol


def _as_task(kind, raw) -> dict:
    task = {
        "num_classes": 5, "per_class": 100, "feature_dim": 20,
        "sep": 4.0, "forget_class": 0,
    }
    if raw is None:
        return task
    if not isinstance(raw, dict):
        raise ConfigError(f"{kind}: 'task' must be an object")
    for key in raw:
        if key not in task:
            raise ConfigError(f"{kind}: unknown task key {key!r}")
        task[key] = raw[key]
    _require(kind, task["num_classes"], "task.num_classes",
             lambda v: _is_int(v) and v >= 2, "must be an int >= 2")
    _require(kind, task["per_class"], "task.per_class",
             lambda v: _is_int(v) and v >= 1, "must be an int >= 1")
    _require(kind, task["feature_dim"], "task.feature_dim",
             lambda v: _is_int(v) and v >= task["num_classes"],
             "must be an int >= num_classes")
    _require(kind, task["sep"], "task.sep",
             lambda v: _is_number(v) and v > 0, "must be positive")
    _require(kind, task["forget_class"], "task.forget_class",
             lambda v: _is_int(v) and 0 <= v < task["num_classes"],
             "must name a valid class")
    return task


def _nt_range(kind, raw, n_r) -> list[int]:
    if raw is None:
        return list(range(1, n_r))
    if (
        not isinstance(raw, list)
        or not raw
        or not all(_is_int(v) and 1 <= v <= n_r - 1 for v in raw)
    ):
        raise ConfigError(
            f"{kind}: 'nt_values' must be a non-empty list of ints in [1, n_r - 1]"
        )
    return list(raw)


def validate_config(raw: dict, experiment: str) -> dict:
    """Normalize a raw config dict, materializing every default.

    Raises :class:`ConfigError` on unknown experiments, missing or
    malformed fields, or an ``experiment`` field that contradicts the
    requested experiment.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    declared = raw.get("experiment")
    if declared is not None and declared != experiment:
        raise ConfigError(
            f"config declares experiment {declared!r} but {experiment!r} was requested"
        )

    cfg: dict = {"experiment": experiment}
    cfg["seeds"] = as_seeds(experiment, raw.get("seeds"))
    cfg["tolerance"] = as_tolerance(experiment, raw.get("tolerance"))
    cfg["out"] = raw.get("out")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError(f"{experiment}: 'out' must be a string path")

    known = {"experiment", "seeds", "tolerance", "out"}

    if experiment in ("verify-theorems", "sweep-nt"):
        cfg["n_r"] = _require(experiment, raw.get("n_r", 30), "n_r",
                              lambda v: _is_int(v) and v >= 2, "must be an int >= 2")
        cfg["n_f"] = _require(experiment, raw.get("n_f", 10), "n_f",
                              lambda v: _is_int(v) and v >= 1, "must be an int >= 1")
        cfg["dist"] = _require(experiment, raw.get("dist", "standard-normal"), "dist",
                               lambda v: v in ("standard-normal", "uniform"),
                               "must be 'standard-normal' or 'uniform'")
        cfg["nt_values"] = _nt_range(experiment, raw.get("nt_values"), cfg["n_r"])
        known |= {"n_r", "n_f", "dist", "nt_values"}
        if experiment == "verify-theorems":
            cfg["distinct_layout"] = _as_layout(
                experiment, raw.get("distinct_layout", [20, 0, 20]), "distinct_layout")
            if cfg["distinct_layout"][1] != 0:
                raise ConfigError(f"{experiment}: 'distinct_layout' must have d_lap = 0")
            cfg["overlap_layout"] = _as_layout(
                experiment, raw.get("overlap_layout", [16, 8, 16]), "overlap_layout")
            known |= {"distinct_layout", "overlap_layout"}
            layouts = (cfg["distinct_layout"], cfg["overlap_layout"])
        else:
            cfg["layout"] = _as_layout(experiment, raw.get("layout", [20, 0, 20]), "layout")
            known |= {"layout"}
            layouts = (cfg["layout"],)
        for layout in layouts:
            if cfg["n_r"] + cfg["n_f"] > sum(layout):
                raise ConfigError(
                    f"{experiment}: n_r + n_f = {cfg['n_r'] + cfg['n_f']} exceeds "
                    f"d = {sum(layout)} for layout {layout}"
                )

    elif experiment == "sweep-overlap":
        cfg["d"] = _require(experiment, raw.get("d", 40), "d",
                            lambda v: _is_int(v) and v >= 2, "must be an int >= 2")
        cfg["n_r"] = _require(experiment, raw.get("n_r", 30), "n_r",
                              lambda v: _is_int(v) and v >= 2, "must be an int >= 2")
        cfg["n_f"] = _require(experiment, raw.get("n_f", 10), "n_f",
                              lambda v: _is_int(v) and v >= 1, "must be an int >= 1")
        cfg["n_t"] = _require(experiment, raw.get("n_t", 15), "n_t",
                              lambda v: _is_int(v) and 1 <= v <= cfg["n_r"] - 1,
                              "must be an int in [1, n_r - 1]")
        cfg["dist"] = _require(experiment, raw.get("dist", "standard-normal"), "dist",
                               lambda v: v in ("standard-normal", "uniform"),
                               "must be 'standard-normal' or 'uniform'")
        d_lap_values = raw.get("d_lap_values", [0, 2, 4, 8])
        if not isinstance(d_lap_values, list) or not d_lap_values:
            raise ConfigError(f"{experiment}: 'd_lap_values' must be a non-empty list")
        for d_lap in d_lap_values:
            if not _is_int(d_lap) or d_lap < 0 or (cfg["d"] - d_lap) % 2 or d_lap >= cfg["d"]:
                raise ConfigError(
                    f"{experiment}: each d_lap must be an int >= 0 with d - d_lap even "
                    f"and positive (d = {cfg['d']}, got {d_lap!r})"
                )
        cfg["d_lap_values"] = list(d_lap_values)
        if cfg["n_r"] + cfg["n_f"] > cfg["d"]:
            raise ConfigError(
                f"{experiment}: n_r + n_f = {cfg['n_r'] + cfg['n_f']} exceeds d = {cfg['d']}"
            )
        known |= {"d", "n_r", "n_f", "n_t", "dist", "d_lap_values"}

    else:  # classifier-demo, sweep-alpha
        cfg["task"] = _as_task(experiment, raw.get("task"))
        cfg["epochs"] = _require(experiment, raw.get("epochs", 500), "epochs",
                                 lambda v: _is_int(v) and v >= 0, "must be an int >= 0")
        cfg["step_size"] = _require(experiment, raw.get("step_size", 0.1), "step_size",
                                    lambda v: _is_number(v) and v > 0,
                                    "must be positive")
        allowed = VARIANTS + ("retrain",)
        variants = raw.get(
            "variants",
            list(allowed) if experiment == "classifier-demo" else ["kl-ft"],
        )
        if (
            not isinstance(variants, list) or not variants
            or not all(v in allowed for v in variants)
        ):
            raise ConfigError(
                f"{experiment}: 'variants' must be a non-empty list drawn from {allowed}"
            )
        cfg["variants"] = list(variants)
        known |= {"task", "epochs", "step_size", "variants"}
        if experiment == "classifier-demo":
            cfg["alpha"] = _require(experiment, raw.get("alpha", 0.5), "alpha",
                                    lambda v: _is_number(v) and 0 <= v <= 1,
                                    "must lie in [0, 1]")
            known |= {"alpha"}
        else:
            alphas = raw.get("alphas", [0.1, 0.2, 0.4, 0.8])
            if (
                not isinstance(alphas, list) or not alphas
                or not all(_is_number(a) and 0 <= a <= 1 for a in alphas)
            ):
                raise ConfigError(f"{experiment}: 'alphas' must be a non-empty list in [0, 1]")
            cfg["alphas"] = [float(a) for a in alphas]
            known |= {"alphas"}

    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{experiment}: unknown config keys {sorted(unknown)}")
    return cfg


def load_config(path: str | Path, experiment: str) -> dict:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return validate_config(raw, experiment)


# ----------------------------------------------------------------------
# Shared pipeline pieces
# ----------------------------------------------------------------------

def _run_seeds(result: ExperimentResult, rows_for_seed) -> None:
    """Append each seed's rows in seed order; record the seeds that fail.

    A seed whose computation raises a package error contributes no rows
    and one ``{seed, type, message}`` entry to ``result.failures``.
    """
    for seed in result.config["seeds"]:
        try:
            result.rows.extend(rows_for_seed(result.config, seed))
        except UnlearnLabError as exc:
            result.failures.append(
                {"seed": seed, "type": type(exc).__name__, "message": str(exc)}
            )


def _prefix(scenario, n_t: int) -> tuple[Factored, np.ndarray]:
    """The fine-tuning prefix ``(X_t, y_t)``, with ``X_t`` factored lazily.

    Every fine-tune on the returned prefix shares one SVD, computed inside
    the first solve on it.  Callers keep a prefix no longer than the seed
    that uses it.
    """
    x_t, y_t = fine_tune_subset(scenario, n_t)
    return Factored(x_t, "x_t"), y_t


def _edited_losses(scenario, w_o, option, prefix):
    """Edit the pretrained weights, fine-tune on ``prefix``, measure both losses.

    Returns ``(loss report, solver seconds)``; the timer covers only the
    edit and fine-tune calls, not data handling or measurement.
    """
    x_t, y_t = prefix
    start = time.perf_counter()
    edited = edit_pretrained(w_o, scenario.layout, option)
    w_hat = fine_tune_unlearn(edited, x_t, y_t)
    elapsed = time.perf_counter() - start
    return measure_losses(w_hat, scenario, "edited_fine_tuned"), elapsed


# ----------------------------------------------------------------------
# verify-theorems
# ----------------------------------------------------------------------

def _verify_row(cfg: dict, seed: int, scenario, check: str, option: str, values: dict) -> dict:
    """One verify-theorems row; the columns ``values`` leaves out are NaN."""
    layout = scenario.layout
    row = dict.fromkeys(COLUMNS[SCHEMAS["verify-theorems"]], float("nan"))
    row.update({
        "experiment": cfg["experiment"], "seed": seed, "check": check, "option": option,
        "d_r": layout.d_r, "d_lap": layout.d_lap, "d_f": layout.d_f,
        "n_r": scenario.n_r, "n_f": scenario.n_f,
        "n_t_min": min(cfg["nt_values"]), "n_t_max": max(cfg["nt_values"]),
    })
    row.update(values)
    return row


def _verify_rows_for_seed(cfg: dict, seed: int) -> list[dict]:
    rel = cfg["tolerance"]["rel"]
    floor = cfg["tolerance"]["abs_floor"]
    nt_values = cfg["nt_values"]
    rows = []

    scenarios = {
        "distinct": gen_scenario(
            cfg["n_r"], cfg["n_f"], FeatureLayout(*cfg["distinct_layout"]),
            seed, cfg["dist"]),
        "overlap": gen_scenario(
            cfg["n_r"], cfg["n_f"], FeatureLayout(*cfg["overlap_layout"]),
            seed, cfg["dist"]),
    }
    pretrained = {check: train_original(s) for check, s in scenarios.items()}
    # One factored prefix per (scenario, n_t), shared by the plain and the
    # edited fine-tunes on it; the oracle factors its own matrices.
    prefixes = {
        check: {n_t: _prefix(s, n_t) for n_t in nt_values}
        for check, s in scenarios.items()
    }

    for check in ("distinct", "overlap"):
        scenario = scenarios[check]
        w_o = pretrained[check]
        predicted = predict_distinct(scenario) if check == "distinct" else predict_overlap(scenario)
        runtime = 0.0
        start = time.perf_counter()
        w_g = retrain_golden(scenario)
        runtime += time.perf_counter() - start
        rl_ft_max = ul_ft_max = 0.0
        ok = True
        for n_t in nt_values:
            x_t, y_t = prefixes[check][n_t]
            start = time.perf_counter()
            w_t = fine_tune_unlearn(w_o, x_t, y_t)
            runtime += time.perf_counter() - start
            ft = measure_losses(w_t, scenario, "fine_tuned")
            rl_ft_max = max(rl_ft_max, ft.rl)
            ul_ft_max = max(ul_ft_max, ft.ul)
            ok = ok and gap_report(ft, predicted, rel, floor).passed
        gold = measure_losses(w_g, scenario, "golden")
        gold_gaps = gap_report(gold, predicted, rel, floor)
        ok = ok and gold_gaps.passed
        rows.append(_verify_row(cfg, seed, scenario, check, "", {
            "rl_ft_max": rl_ft_max, "ul_ft_max": ul_ft_max,
            "rl_gold": gold.rl, "ul_gold": gold.ul, "ul_gold_pred": predicted.ul_gold,
            "ul_gold_rel_gap": gold_gaps.ul.rel_gap,
            "pass": ok, "runtime_seconds": runtime,
        }))

    for option in EditOption:
        family = "distinct" if option is EditOption.DISTINCT_ZERO_FORGET else "overlap"
        scenario = scenarios[family]
        w_o = pretrained[family]
        rl_edit_max = ul_edit_max = 0.0
        rl_gap_max = ul_gap_max = 0.0
        runtime = 0.0
        ok = True
        predictions = predict_edited(scenario, option, nt_values)
        for n_t, predicted in zip(nt_values, predictions):
            measured, elapsed = _edited_losses(scenario, w_o, option, prefixes[family][n_t])
            runtime += elapsed
            gaps = gap_report(measured, predicted, rel, floor)
            ok = ok and gaps.passed
            rl_edit_max = max(rl_edit_max, measured.rl)
            ul_edit_max = max(ul_edit_max, measured.ul)
            rl_gap_max = max(rl_gap_max, gaps.rl.abs_gap)
            ul_gap_max = max(ul_gap_max, gaps.ul.abs_gap)
        rows.append(_verify_row(cfg, seed, scenario, "edit", option.value, {
            "rl_edit_max": rl_edit_max, "ul_edit_max": ul_edit_max,
            "edit_rl_gap_max": rl_gap_max, "edit_ul_gap_max": ul_gap_max,
            "pass": ok, "runtime_seconds": runtime,
        }))
    return rows


def run_verify_theorems(cfg: dict) -> ExperimentResult:
    """Full pipeline versus closed-form predictions, one row per check."""
    result = ExperimentResult(cfg["experiment"], SCHEMAS[cfg["experiment"]], cfg)
    start = time.perf_counter()
    _run_seeds(result, _verify_rows_for_seed)
    result.passed = (
        result.numerical_failures == 0
        and all(row["pass"] for row in result.rows)
    )
    result.total_runtime_seconds = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# sweep-nt
# ----------------------------------------------------------------------

def _sweep_nt_rows_for_seed(cfg: dict, seed: int) -> list[dict]:
    layout = FeatureLayout(*cfg["layout"])
    scenario = gen_scenario(cfg["n_r"], cfg["n_f"], layout, seed, cfg["dist"])
    w_o = train_original(scenario)
    w_g = retrain_golden(scenario)
    gold = measure_losses(w_g, scenario, "golden")
    rows = []
    for n_t in cfg["nt_values"]:
        prefix = _prefix(scenario, n_t)
        x_t, y_t = prefix
        start = time.perf_counter()
        w_t = fine_tune_unlearn(w_o, x_t, y_t)
        runtime = time.perf_counter() - start
        ft = measure_losses(w_t, scenario, "fine_tuned")
        if layout.is_distinct:
            zero, elapsed = _edited_losses(scenario, w_o, EditOption.DISTINCT_ZERO_FORGET, prefix)
            zero_rl, zero_ul = zero.rl, zero.ul
            runtime += elapsed
        else:
            zero_rl = zero_ul = float("nan")
        retain, elapsed = _edited_losses(scenario, w_o, EditOption.OVERLAP_RETAIN, prefix)
        runtime += elapsed
        discard, elapsed = _edited_losses(scenario, w_o, EditOption.OVERLAP_DISCARD, prefix)
        runtime += elapsed
        rows.append({
            "experiment": cfg["experiment"], "seed": seed, "n_t": n_t,
            "rl_ft": ft.rl, "ul_ft": ft.ul, "rl_gold": gold.rl, "ul_gold": gold.ul,
            "rl_edit_zero": zero_rl, "ul_edit_zero": zero_ul,
            "rl_edit_retain": retain.rl, "ul_edit_retain": retain.ul,
            "rl_edit_discard": discard.rl, "ul_edit_discard": discard.ul,
            "runtime_seconds": runtime,
        })
    return rows


def run_sweep_nt(cfg: dict) -> ExperimentResult:
    """Losses of all pipelines as the fine-tuning subset grows."""
    result = ExperimentResult(cfg["experiment"], SCHEMAS[cfg["experiment"]], cfg)
    start = time.perf_counter()
    _run_seeds(result, _sweep_nt_rows_for_seed)
    result.total_runtime_seconds = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# sweep-overlap
# ----------------------------------------------------------------------

def _sweep_overlap_rows_for_seed(cfg: dict, seed: int) -> list[dict]:
    rows = []
    for d_lap in cfg["d_lap_values"]:
        side = (cfg["d"] - d_lap) // 2
        layout = FeatureLayout(side, d_lap, side)
        scenario = gen_scenario(cfg["n_r"], cfg["n_f"], layout, seed, cfg["dist"])
        w_o = train_original(scenario)
        start = time.perf_counter()
        w_g = retrain_golden(scenario)
        runtime = time.perf_counter() - start
        gold = measure_losses(w_g, scenario, "golden")
        prefix = _prefix(scenario, cfg["n_t"])
        retain, elapsed = _edited_losses(scenario, w_o, EditOption.OVERLAP_RETAIN, prefix)
        runtime += elapsed
        discard, elapsed = _edited_losses(scenario, w_o, EditOption.OVERLAP_DISCARD, prefix)
        runtime += elapsed
        rows.append({
            "experiment": cfg["experiment"], "seed": seed,
            "d_lap": d_lap, "d_r": side, "d_f": side, "n_t": cfg["n_t"],
            "rl_gold": gold.rl, "ul_gold": gold.ul,
            "rl_edit_retain": retain.rl, "ul_edit_retain": retain.ul,
            "rl_edit_discard": discard.rl, "ul_edit_discard": discard.ul,
            "runtime_seconds": runtime,
        })
    return rows


def run_sweep_overlap(cfg: dict) -> ExperimentResult:
    """Editing-strategy losses as the overlap block widens."""
    result = ExperimentResult(cfg["experiment"], SCHEMAS[cfg["experiment"]], cfg)
    start = time.perf_counter()
    _run_seeds(result, _sweep_overlap_rows_for_seed)
    result.total_runtime_seconds = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# classifier-demo and sweep-alpha
# ----------------------------------------------------------------------

# Per-seed measurements of a classifier row; the mean/std rows average them.
_MEASURES = ("ua", "ra", "ta", "runtime_seconds")


def _classifier_rows(cfg: dict, pairs: list[tuple[str, float]]) -> ExperimentResult:
    result = ExperimentResult(cfg["experiment"], SCHEMAS[cfg["experiment"]], cfg)
    start = time.perf_counter()
    task = ClassTask(**cfg["task"])
    base_cfg = FtConfig(
        variant="naive-ft", epochs=cfg["epochs"], step_size=cfg["step_size"]
    )

    def one_seed(_cfg: dict, seed: int) -> list[dict]:
        rows = []
        for (variant, alpha), metrics in zip(pairs, run_seed_grid(task, pairs, seed, base_cfg)):
            rows.append({
                "experiment": cfg["experiment"], "variant": variant,
                "alpha": float("nan") if variant == "retrain" else alpha, "seed": seed,
                **{name: getattr(metrics, name) for name in _MEASURES},
            })
        return rows

    _run_seeds(result, one_seed)
    # NaN keys break dict grouping, so group by the rendered alpha instead.
    collected: dict[tuple[str, str], list[dict]] = {}
    for row in result.rows:
        collected.setdefault((row["variant"], _format_cell(row["alpha"])), []).append(row)

    # Aggregate mean/std rows appended after the per-seed rows; the stat
    # name takes the seed column.
    for group in collected.values():
        values = np.array([[row[name] for name in _MEASURES] for row in group], dtype=np.float64)
        for stat, vec in (("mean", values.mean(axis=0)), ("std", values.std(axis=0))):
            result.rows.append(
                {**group[0], "seed": stat, **dict(zip(_MEASURES, map(float, vec)))}
            )
    result.total_runtime_seconds = time.perf_counter() - start
    return result


def run_classifier_demo(cfg: dict) -> ExperimentResult:
    """All configured variants at one regularization weight."""
    pairs = [(variant, float(cfg["alpha"])) for variant in cfg["variants"]]
    return _classifier_rows(cfg, pairs)


def run_sweep_alpha(cfg: dict) -> ExperimentResult:
    """Configured variants across a grid of regularization weights."""
    pairs = [
        (variant, alpha)
        for variant in cfg["variants"]
        for alpha in cfg["alphas"]
    ]
    return _classifier_rows(cfg, pairs)


# ----------------------------------------------------------------------
# Dispatch and output
# ----------------------------------------------------------------------

_RUNNERS = {
    "verify-theorems": run_verify_theorems,
    "sweep-nt": run_sweep_nt,
    "sweep-overlap": run_sweep_overlap,
    "classifier-demo": run_classifier_demo,
    "sweep-alpha": run_sweep_alpha,
}


def run_experiment(experiment: str, cfg: dict) -> ExperimentResult:
    """Dispatch a validated config to its runner."""
    if experiment not in _RUNNERS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    return _RUNNERS[experiment](cfg)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_csv(result: ExperimentResult) -> str:
    """CSV text with schema and config echo in the header comments.

    Cells follow the schema's column order.  A row whose keys differ from
    the schema's columns raises :class:`ValueError`.
    """
    columns = COLUMNS[result.schema]
    echo = json.dumps(result.config, sort_keys=True, separators=(",", ":"))
    lines = [f"# schema: {result.schema}", f"# config: {echo}"]
    lines.append(",".join(columns))
    for row in result.rows:
        if row.keys() != set(columns):
            raise ValueError(
                f"row keys do not match schema {result.schema}: "
                f"missing {sorted(set(columns) - row.keys())}, "
                f"extra {sorted(row.keys() - set(columns))}"
            )
        lines.append(",".join(_format_cell(row[name]) for name in columns))
    return "\n".join(lines) + "\n"


def summary_path_for(csv_path: Path) -> Path:
    return csv_path.with_suffix(".summary.json")


def write_outputs(result: ExperimentResult, csv_path: str | Path) -> Path:
    """Write the CSV and its JSON summary; returns the CSV path."""
    csv_path = Path(csv_path)
    if csv_path.parent and not csv_path.parent.exists():
        csv_path.parent.mkdir(parents=True, exist_ok=True)
    csv_path.write_text(render_csv(result), encoding="utf-8")
    summary = {
        "experiment": result.experiment,
        "schema": result.schema,
        "config": result.config,
        "csv": str(csv_path),
        "rows": len(result.rows),
        "passed": result.passed,
        "numerical_failures": result.numerical_failures,
        "failures": result.failures,
        "total_runtime_seconds": result.total_runtime_seconds,
    }
    summary_path_for(csv_path).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return csv_path


def exit_code_for(result: ExperimentResult) -> int:
    """0 when everything passed, 1 on numerical failures or failed checks."""
    if result.numerical_failures > 0:
        return 1
    if result.passed is False:
        return 1
    return 0
