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

A config is checked against its experiment's field table,
:data:`FIELDS`, and the rules that relate fields, :data:`ACROSS`.
:func:`run_experiment` runs every experiment through one seed loop.  The
three linear experiments build their models in one measured pass per
scenario, :func:`_solve`, which trains and retrains once, factors each
fine-tuning prefix once, edits and fine-tunes, and measures every model;
their row builders only shape rows.
Rows are dicts keyed by column name; :data:`COLUMNS` alone fixes the
order of the cells, and :func:`render_csv` checks each row against it.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classifier import VARIANTS, ClassTask, run_seed_grid
from .errors import ConfigError, UnlearnLabError
from .linalg import Factored, RankDeficiencyCount
from .metrics import LossReport, gap_report, measure_losses
from .oracle import PRED_ABS_FLOOR, PRED_REL_TOL, predict_distinct, predict_edited, predict_overlap
from .scenarios import FeatureLayout, gen_scenario, fine_tune_subset
from .solvers import (
    EditOption,
    edit_pretrained,
    fine_tune_unlearn,
    retrain_golden,
    train_original,
)

SCHEMAS = {
    "verify-theorems": "verify-theorems/v1",
    "sweep-nt": "sweep-nt/v1",
    "sweep-overlap": "sweep-overlap/v1",
    "classifier-demo": "classifier/v3",
    "sweep-alpha": "classifier/v3",
}
EXPERIMENTS = tuple(SCHEMAS)

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
    rank_deficient_solves: int = 0

    @property
    def numerical_failures(self) -> int:
        """Number of seeds that raised; ``failures`` says which and why."""
        return len(self.failures)


# ----------------------------------------------------------------------
# Configuration: one field table per experiment
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """The values one config field accepts; ``str()`` describes them.

    ``kind`` is ``"int"`` or ``"number"`` from ``low`` to ``high`` (each
    end closed ``[]`` or open ``()`` as ``bounds`` marks), ``"enum"``,
    ``"layout"`` (three nonnegative ints), ``"path"`` or ``"object"`` (of
    dotted fields).  With ``many``, a non-empty list of such values.
    """

    kind: str
    low: float = -math.inf
    high: float = math.inf
    bounds: str = "[)"
    choices: tuple = ()
    many: bool = False

    def holds(self, value) -> bool:
        if self.many:
            return isinstance(value, list) and bool(value) and all(map(self._holds_one, value))
        return self._holds_one(value)

    def _holds_one(self, v) -> bool:
        if self.kind in ("int", "number"):
            # JSON booleans are not numbers here.  A number must be finite:
            # NaN, the infinities and ints too large for a float fail.
            return (
                isinstance(v, int if self.kind == "int" else (int, float))
                and not isinstance(v, bool)
                and (self.kind == "int" or abs(v) <= sys.float_info.max)
                and (self.low <= v if self.bounds[0] == "[" else self.low < v)
                and (v <= self.high if self.bounds[1] == "]" else v < self.high)
            )
        if self.kind == "layout":
            return isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_COUNT.holds, v))
        if self.kind == "enum":
            return v in self.choices
        return isinstance(v, str if self.kind == "path" else dict)

    def __str__(self) -> str:
        interval = f"{self.bounds[0]}{self.low}, {self.high}{self.bounds[1]}"
        one = {
            "int": f"an int in {interval}",
            "number": f"a finite number in {interval}",
            "enum": "one of " + ", ".join(map(repr, self.choices)),
            "layout": "three nonnegative ints",
            "path": "a string",
            "object": "an object",
        }[self.kind]
        return f"a non-empty list, each {one}" if self.many else one


#: The default of a field that must be given.
REQUIRED = object()

_COUNT = Domain("int", 0)

_SEEDS = (REQUIRED, Domain("int", 0, 1 << 64, many=True))
_TOLERANCE = {
    "tolerance": (None, Domain("object")),
    "tolerance.rel": (PRED_REL_TOL, Domain("number", 0)),
    "tolerance.abs_floor": (PRED_ABS_FLOOR, Domain("number", 0)),
}
_SIZES = {"n_r": (30, Domain("int", 2)), "n_f": (10, Domain("int", 1))}
_DIST = ("standard-normal", Domain("enum", choices=("standard-normal", "uniform")))
_LINEAR = {**_SIZES, "dist": _DIST, "nt_values": (None, Domain("int", 1, many=True))}
_CLASSIFIER = {
    "task": ({}, Domain("object")),
    "task.num_classes": (5, Domain("int", 2)),
    "task.per_class": (100, Domain("int", 1)),
    "task.feature_dim": (20, Domain("int", 2)),
    "task.sep": (4.0, Domain("number", 0, bounds="()")),
    "task.forget_class": (0, _COUNT),
    "epochs": (500, _COUNT),
    "step_size": (0.1, Domain("number", 0, bounds="()")),
}
_VARIANTS = Domain("enum", choices=VARIANTS + ("retrain",), many=True)

#: Each experiment's fields: name -> (default, domain).  A dotted name is
#: a field of the object named by its prefix, which comes first.  Where
#: the default is ``None``, an explicit ``null`` means the default too;
#: ``nt_values`` then defaults to every size in ``[1, n_r - 1]``.
FIELDS = {
    experiment: {
        "experiment": (experiment, Domain("enum", choices=(experiment,))),
        "seeds": _SEEDS,
        "out": (None, Domain("path")),
        **_TOLERANCE,
        **fields,
    }
    for experiment, fields in {
        "verify-theorems": {
            **_LINEAR,
            "distinct_layout": ([20, 0, 20], Domain("layout")),
            "overlap_layout": ([16, 8, 16], Domain("layout")),
        },
        "sweep-nt": {**_LINEAR, "layout": ([20, 0, 20], Domain("layout"))},
        "sweep-overlap": {
            "d": (40, Domain("int", 2)),
            **_SIZES,
            "n_t": (15, Domain("int", 1)),
            "dist": _DIST,
            "d_lap_values": ([0, 2, 4, 8], Domain("int", 0, many=True)),
        },
        "classifier-demo": {
            **_CLASSIFIER,
            "variants": (list(VARIANTS + ("retrain",)), _VARIANTS),
            "alpha": (0.5, Domain("number", 0, 1, bounds="[]")),
        },
        "sweep-alpha": {
            **_CLASSIFIER,
            "variants": (["kl-ft"], _VARIANTS),
            "alphas": ([0.1, 0.2, 0.4, 0.8], Domain("number", 0, 1, bounds="[]", many=True)),
        },
    }.items()
}

# The fields that set a scenario's feature count d, and how a rule names it.
_SIZES_OF = {size: size if size == "d" else f"sum({size})"
             for size in ("d", "layout", "distinct_layout", "overlap_layout")}


def _size(c: dict, size: str) -> int:
    return c[size] if size == "d" else sum(c[size])


#: The rules that relate fields: (fields, rule, check).  A rule applies
#: to each experiment that has all of its fields.
ACROSS = [
    (("task",), "task.feature_dim must be >= task.num_classes > task.forget_class",
     lambda c: c["task"]["feature_dim"] >= c["task"]["num_classes"] > c["task"]["forget_class"]),
    # The samples must fit each size an experiment has: d, or a layout's sum.
    *((("n_r", "n_f", size), f"n_r + n_f must be <= {name}",
       lambda c, size=size: c["n_r"] + c["n_f"] <= _size(c, size))
      for size, name in _SIZES_OF.items()),
    # numpy cannot address 2^63 bytes or more; a smaller array that does not
    # fit in memory ends in MemoryError instead.
    *((("n_r", "n_f", size), f"the {name} x (n_r + n_f) float64 data must take < 2^63 bytes",
       lambda c, size=size: 8 * _size(c, size) * (c["n_r"] + c["n_f"]) < 2**63)
      for size, name in _SIZES_OF.items()),
    (("task",), "the task.feature_dim x task.num_classes x task.per_class float64 features"
     " must take < 2^63 bytes",
     lambda c: 8 * math.prod(c["task"][k] for k in ("feature_dim", "num_classes", "per_class"))
     < 2**63),
    (("distinct_layout",), "distinct_layout must have d_lap = 0",
     lambda c: c["distinct_layout"][1] == 0),
    (("n_r", "n_t"), "n_t must be <= n_r - 1", lambda c: c["n_t"] <= c["n_r"] - 1),
    (("n_r", "nt_values"), "every n_t in nt_values must be <= n_r - 1",
     lambda c: c["nt_values"] is None or max(c["nt_values"]) <= c["n_r"] - 1),
    (("d", "d_lap_values"), "every d_lap must be < d, with d - d_lap even",
     lambda c: all(d_lap < c["d"] and (c["d"] - d_lap) % 2 == 0 for d_lap in c["d_lap_values"])),
]


def _fill(kind: str, raw: dict, fields: dict) -> dict:
    """Walk a field table over ``raw``: fill in the defaults, and reject
    values outside their domain and keys the table does not name."""
    cfg: dict = {}
    given, filled = {"": raw}, {"": cfg}
    for name, (default, domain) in fields.items():
        group, _, key = name.rpartition(".")
        value = given[group].get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"{kind}: field {name!r} is required")
        if value is None and default is None:
            value = {} if domain.kind == "object" else None
        elif not domain.holds(value):
            raise ConfigError(f"{kind}: field {name!r} must be {domain} (got {value!r})")
        if domain.kind == "object":
            given[name], value = value, {}
            filled[name] = value
        elif isinstance(value, (list, tuple)):
            value = list(value)
        filled[group][key] = value
    for group, source in given.items():
        known = {name.rpartition(".")[2] for name in fields if name.rpartition(".")[0] == group}
        unknown = sorted(f"{group}.{key}" if group else f"{key}" for key in source.keys() - known)
        if unknown:
            raise ConfigError(f"{kind}: unknown config keys {unknown}")
    return cfg


def as_seeds(kind, raw) -> list[int]:
    """Validated seed list: non-empty, every seed an integer in ``[0, 2^64)``."""
    return _fill(kind, {"seeds": raw}, {"seeds": _SEEDS})["seeds"]


def as_tolerance(kind, raw) -> dict:
    """Validated tolerance: the defaults overridden by finite nonnegative numbers."""
    tol = _fill(kind, {"tolerance": raw}, _TOLERANCE)["tolerance"]
    return {key: float(value) for key, value in tol.items()}


def validate_config(raw: dict, experiment: str) -> dict:
    """Normalize a raw config dict, materializing every default.

    Walks the experiment's :data:`FIELDS`, then checks the :data:`ACROSS`
    rules.  Raises :class:`ConfigError` on unknown experiments or keys,
    missing or malformed fields, and an ``experiment`` field that
    contradicts the requested experiment.
    """
    if experiment not in FIELDS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    cfg = _fill(experiment, raw, FIELDS[experiment])
    for names, rule, holds in ACROSS:
        if cfg.keys() >= set(names) and not holds(cfg):
            got = {name: cfg[name] for name in names}
            raise ConfigError(f"{experiment}: {rule} (got {got})")
    if cfg.get("nt_values", ()) is None:
        cfg["nt_values"] = list(range(1, cfg["n_r"]))
    cfg["tolerance"] = {key: float(value) for key, value in cfg["tolerance"].items()}
    if "alphas" in cfg:
        cfg["alphas"] = [float(alpha) for alpha in cfg["alphas"]]
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
# Linear experiments: one measured pass per scenario
# ----------------------------------------------------------------------

def _solve(scenario, nt_values, edits) -> tuple[LossReport, float, dict]:
    """Train, retrain and fine-tune one scenario, and measure every model.

    On the prefix of each ``n_t`` this fine-tunes once per entry of
    ``edits``: an :class:`EditOption` edits the pretrained weights first,
    and ``None`` fine-tunes them unedited.  Each prefix is factored once
    and shared by its fine-tunes, the first of which pays for the SVD; the
    oracle factors its own matrices.  Returns the golden losses, the
    retrain's seconds, and per edit one ``(losses, seconds)`` per ``n_t``.
    The seconds cover only the solver calls, not data handling or
    measurement.
    """
    w_o = train_original(scenario)
    start = time.perf_counter()
    w_g = retrain_golden(scenario)
    gold_seconds = time.perf_counter() - start
    solved = {edit: [] for edit in edits}
    for n_t in nt_values:
        x_t, y_t = fine_tune_subset(scenario, n_t)
        x_t = Factored(x_t, "x_t")
        for edit in edits:
            start = time.perf_counter()
            w = w_o if edit is None else edit_pretrained(w_o, scenario.layout, edit)
            w_t = fine_tune_unlearn(w, x_t, y_t)
            seconds = time.perf_counter() - start
            tag = "fine_tuned" if edit is None else "edited_fine_tuned"
            solved[edit].append((measure_losses(w_t, scenario, tag), seconds))
    return measure_losses(w_g, scenario, "golden"), gold_seconds, solved


def _verify_rows_for_seed(cfg: dict, seed: int) -> list[dict]:
    """A baseline row per scenario (distinct, overlap), then one per edit."""
    rel, floor = cfg["tolerance"]["rel"], cfg["tolerance"]["abs_floor"]
    nt_values = cfg["nt_values"]
    rows, edit_rows = [], []
    for check, predict, options in (
        ("distinct", predict_distinct, [EditOption.DISTINCT_ZERO_FORGET]),
        ("overlap", predict_overlap, [EditOption.OVERLAP_RETAIN, EditOption.OVERLAP_DISCARD]),
    ):
        layout = FeatureLayout(*cfg[f"{check}_layout"])
        scenario = gen_scenario(cfg["n_r"], cfg["n_f"], layout, seed, cfg["dist"])
        gold, runtime, solved = _solve(scenario, nt_values, [None, *options])
        predicted = predict(scenario)
        gold_gaps = gap_report(gold, predicted, rel, floor)
        fine_tuned = [losses for losses, _ in solved[None]]
        common = {
            **dict.fromkeys(COLUMNS[SCHEMAS["verify-theorems"]], float("nan")),
            "experiment": cfg["experiment"], "seed": seed,
            "d_r": layout.d_r, "d_lap": layout.d_lap, "d_f": layout.d_f,
            "n_r": scenario.n_r, "n_f": scenario.n_f,
            "n_t_min": min(nt_values), "n_t_max": max(nt_values),
        }
        rows.append({
            **common, "check": check, "option": "",
            "rl_ft_max": max(ft.rl for ft in fine_tuned),
            "ul_ft_max": max(ft.ul for ft in fine_tuned),
            "rl_gold": gold.rl, "ul_gold": gold.ul, "ul_gold_pred": predicted.ul_gold,
            "ul_gold_rel_gap": gold_gaps.ul.rel_gap,
            "pass": all(gap_report(ft, predicted, rel, floor).passed for ft in fine_tuned)
            and gold_gaps.passed,
            "runtime_seconds": sum((seconds for _, seconds in solved[None]), runtime),
        })
        for option in options:
            edited = [losses for losses, _ in solved[option]]
            predictions = predict_edited(scenario, option, nt_values)
            gaps = [gap_report(m, p, rel, floor) for m, p in zip(edited, predictions)]
            edit_rows.append({
                **common, "check": "edit", "option": option.value,
                "rl_edit_max": max(m.rl for m in edited),
                "ul_edit_max": max(m.ul for m in edited),
                # Starting from 0.0 keeps a NaN gap from deciding the maximum.
                "edit_rl_gap_max": max(0.0, *(g.rl.abs_gap for g in gaps)),
                "edit_ul_gap_max": max(0.0, *(g.ul.abs_gap for g in gaps)),
                "pass": all(g.passed for g in gaps),
                "runtime_seconds": sum(seconds for _, seconds in solved[option]),
            })
    return rows + edit_rows


def _sweep_nt_rows_for_seed(cfg: dict, seed: int) -> list[dict]:
    """One row per ``n_t``; its runtime covers that row's fine-tunes."""
    layout = FeatureLayout(*cfg["layout"])
    scenario = gen_scenario(cfg["n_r"], cfg["n_f"], layout, seed, cfg["dist"])
    edits = [None, *EditOption]
    if not layout.is_distinct:
        edits.remove(EditOption.DISTINCT_ZERO_FORGET)
    gold, _, solved = _solve(scenario, cfg["nt_values"], edits)
    rows = []
    for i, n_t in enumerate(cfg["nt_values"]):
        at = {edit: runs[i] for edit, runs in solved.items()}
        ft, zero, retain, discard = (at[e][0] if e in at else None for e in (None, *EditOption))
        rows.append({
            "experiment": cfg["experiment"], "seed": seed, "n_t": n_t,
            "rl_ft": ft.rl, "ul_ft": ft.ul, "rl_gold": gold.rl, "ul_gold": gold.ul,
            "rl_edit_zero": zero.rl if zero else float("nan"),
            "ul_edit_zero": zero.ul if zero else float("nan"),
            "rl_edit_retain": retain.rl, "ul_edit_retain": retain.ul,
            "rl_edit_discard": discard.rl, "ul_edit_discard": discard.ul,
            "runtime_seconds": sum(seconds for _, seconds in at.values()),
        })
    return rows


def _sweep_overlap_rows_for_seed(cfg: dict, seed: int) -> list[dict]:
    """One row per ``d_lap``; its runtime covers the retrain and both edits."""
    rows = []
    for d_lap in cfg["d_lap_values"]:
        side = (cfg["d"] - d_lap) // 2
        layout = FeatureLayout(side, d_lap, side)
        scenario = gen_scenario(cfg["n_r"], cfg["n_f"], layout, seed, cfg["dist"])
        gold, runtime, solved = _solve(
            scenario, [cfg["n_t"]], [EditOption.OVERLAP_RETAIN, EditOption.OVERLAP_DISCARD])
        [(retain, retain_seconds)], [(discard, discard_seconds)] = solved.values()
        rows.append({
            "experiment": cfg["experiment"], "seed": seed,
            "d_lap": d_lap, "d_r": side, "d_f": side, "n_t": cfg["n_t"],
            "rl_gold": gold.rl, "ul_gold": gold.ul,
            "rl_edit_retain": retain.rl, "ul_edit_retain": retain.ul,
            "rl_edit_discard": discard.rl, "ul_edit_discard": discard.ul,
            "runtime_seconds": runtime + retain_seconds + discard_seconds,
        })
    return rows


# ----------------------------------------------------------------------
# classifier-demo and sweep-alpha
# ----------------------------------------------------------------------

# Per-seed measurements of a classifier row; the mean/std rows average them.
_MEASURES = ("ua", "ra", "ta", "runtime_seconds")


def _classifier_rows_for_seed(cfg: dict, seed: int) -> list[dict]:
    alphas = cfg["alphas"] if "alphas" in cfg else [cfg["alpha"]]
    pairs = [(variant, float(alpha)) for variant in cfg["variants"] for alpha in alphas]
    grid = run_seed_grid(ClassTask(**cfg["task"]), pairs, seed, cfg["epochs"], cfg["step_size"])
    return [
        {
            "experiment": cfg["experiment"], "variant": variant,
            "alpha": float("nan") if variant == "retrain" else alpha, "seed": seed,
            **{name: getattr(metrics, name) for name in _MEASURES},
        }
        for (variant, alpha), metrics in zip(pairs, grid)
    ]


def _mean_std_rows(rows: list[dict]) -> list[dict]:
    """One mean and one std row per (variant, alpha) cell, in the order
    the cells first appear; the stat name takes the seed column."""
    # NaN keys break dict grouping, so group by the rendered alpha instead.
    cells: dict[tuple[str, str], list[dict]] = {}
    for row in rows:
        cells.setdefault((row["variant"], _format_cell(row["alpha"])), []).append(row)
    stats = []
    for group in cells.values():
        values = np.array([[row[name] for name in _MEASURES] for row in group], dtype=np.float64)
        for stat, vec in (("mean", values.mean(axis=0)), ("std", values.std(axis=0))):
            stats.append({**group[0], "seed": stat, **dict(zip(_MEASURES, map(float, vec)))})
    return stats


# ----------------------------------------------------------------------
# Dispatch and output
# ----------------------------------------------------------------------

_ROWS_FOR_SEED = {
    "verify-theorems": _verify_rows_for_seed,
    "sweep-nt": _sweep_nt_rows_for_seed,
    "sweep-overlap": _sweep_overlap_rows_for_seed,
    "classifier-demo": _classifier_rows_for_seed,
    "sweep-alpha": _classifier_rows_for_seed,
}


def run_experiment(experiment: str, cfg: dict) -> ExperimentResult:
    """Run a validated config seed by seed, appending each seed's rows.

    A seed whose computation raises a package error contributes no rows
    and one ``{seed, type, message}`` entry to ``failures``.  Only
    ``verify-theorems`` sets ``passed``.  The classifier schema appends
    mean and std rows after the per-seed rows.  ``rank_deficient_solves``
    counts the run's rank-deficient factorizations, failed seeds included.
    """
    if experiment not in _ROWS_FOR_SEED:
        raise ConfigError(f"unknown experiment {experiment!r}")
    result = ExperimentResult(experiment, SCHEMAS[experiment], cfg)
    start = time.perf_counter()
    with RankDeficiencyCount() as rank_deficient:
        for seed in cfg["seeds"]:
            try:
                result.rows.extend(_ROWS_FOR_SEED[experiment](cfg, seed))
            except UnlearnLabError as exc:
                result.failures.append(
                    {"seed": seed, "type": type(exc).__name__, "message": str(exc)}
                )
    result.rank_deficient_solves = rank_deficient.count
    if experiment == "verify-theorems":
        result.passed = not result.failures and all(row["pass"] for row in result.rows)
    if result.schema == "classifier/v3":
        result.rows += _mean_std_rows(result.rows)
    result.total_runtime_seconds = time.perf_counter() - start
    return result


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
    lines = [f"# schema: {result.schema}", f"# config: {echo}", ",".join(columns)]
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
        "rank_deficient_solves": result.rank_deficient_solves,
        "total_runtime_seconds": result.total_runtime_seconds,
    }
    summary_path_for(csv_path).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return csv_path


def exit_code_for(result: ExperimentResult) -> int:
    """0 when everything passed, 1 on numerical failures or failed checks."""
    return int(result.numerical_failures > 0 or result.passed is False)
