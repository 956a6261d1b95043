"""Configuration-driven experiment runner with CSV/JSON emission.

Five experiments are exposed: closed-form verification of the linear
pipeline (``verify-theorems``), sweeps over the fine-tuning subset size
(``sweep-nt``) and the overlap width (``sweep-overlap``), and the
classifier demo and its regularization sweep (``classifier-demo``,
``sweep-alpha``).

Output contract: one CSV per run whose header comments materialize the
full, defaulted configuration (so the file is self-describing), plus a
JSON summary with pass/fail, a config echo, and the run's wall time
with its share per stage (:data:`STAGES`).  Re-running a config
reproduces the CSV byte for byte.  Column sets are versioned via the
``# schema:`` header line.

A config is checked against its experiment's field table,
:data:`FIELDS`, and the rules that relate fields, :data:`ACROSS`.
:func:`run_experiment` runs each experiment as one pass over all its
seeds: a run that maps the seeds to one result per seed, and a rows
function that maps a seed and its result to its rows.  The classifier
experiments descend every seed in one :func:`run_seed_grid`.  The
linear ones solve one stack of all seeds per layout (per scenario of
``verify-theorems``, per ``d_lap`` of ``sweep-overlap``), each in
:func:`_solve`, which generates the scenarios once into one read-only
stack, trains and retrains once, factors each fine-tuning prefix once,
edits and fine-tunes, and measures every model in one call per
``(rl, ul)`` pair.  In ``verify-theorems`` each layout's solve is
followed by the oracle's prediction on the same read-only stack, which
the oracle factors itself.  A stacked run that raises is made again seed
by seed, each seed's whole run alone (:func:`_stacked`, the one place
that decides it), so a failing seed fails alone with the error of its
own run, and the other seeds keep the rows of theirs.  A seed's rows
read its losses over ``nt_values`` as arrays.  The oracle's predictions
hold one value per seed, and each ``verify-theorems`` row compares its
seed's measured ``(rl, ul)`` pair with that seed's slice of the
predicted pair in one :func:`gap_report`: the plain fine-tuned model
against :data:`~unlearn_lab.oracle.FINE_TUNED`, the golden model
against its layout's prediction, and each edited model against its
option's.
Rows are dicts keyed by column name; :data:`COLUMNS` alone fixes the
order of the cells, and :func:`render_csv` checks each row against it.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import json
import logging
import math
import sys
import time
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .classifier import VARIANTS, ClassTask, run_seed_grid
from .errors import ConfigError, UnlearnLabError
from .linalg import RankDeficiencyCount
from .metrics import gap_report, measure_losses, stage, stage_record
from .oracle import FINE_TUNED, predict_distinct, predict_edited, predict_overlap
from .scenarios import DIST_TAGS, FeatureLayout, fine_tune_subset, gen_scenario, stack_scenarios
from .solvers import (
    EditOption,
    edit_pretrained,
    fine_tune_unlearn,
    retrain_golden,
    train_original,
)

SCHEMAS = {
    "verify-theorems": "verify-theorems/v3",
    "sweep-nt": "sweep-nt/v3",
    "sweep-overlap": "sweep-overlap/v3",
    "classifier-demo": "classifier/v5",
    "sweep-alpha": "classifier/v5",
}
EXPERIMENTS = tuple(SCHEMAS)

logger = logging.getLogger(__name__)

#: The stages whose wall seconds a run's summary reports.  ``solve``
#: includes the factorizations, which the first solve on a matrix makes.
STAGES = {
    "verify-theorems": ("generate", "solve", "measure", "oracle", "report"),
    **dict.fromkeys(("sweep-nt", "sweep-overlap"), ("generate", "solve", "measure", "report")),
    **dict.fromkeys(("classifier-demo", "sweep-alpha"),
                    ("generate", "pretrain", "fine_tune", "score", "report")),
}

COLUMNS = {
    "verify-theorems/v3": [
        "experiment", "seed", "check", "option",
        "d_r", "d_lap", "d_f", "n_r", "n_f", "n_t_min", "n_t_max",
        "rl_ft_max", "ul_ft_max", "rl_gold", "ul_gold", "ul_gold_pred",
        "ul_gold_rel_gap", "rl_edit_max", "ul_edit_max",
        "edit_rl_gap_max", "edit_ul_gap_max", "pass",
    ],
    "sweep-nt/v3": [
        "experiment", "seed", "n_t", "rl_ft", "ul_ft", "rl_gold", "ul_gold",
        "rl_edit_zero", "ul_edit_zero", "rl_edit_retain", "ul_edit_retain",
        "rl_edit_discard", "ul_edit_discard",
    ],
    "sweep-overlap/v3": [
        "experiment", "seed", "d_lap", "d_r", "d_f", "n_t",
        "rl_gold", "ul_gold", "rl_edit_retain", "ul_edit_retain",
        "rl_edit_discard", "ul_edit_discard",
    ],
    "classifier/v5": ["experiment", "variant", "alpha", "seed", "ua", "ra", "ta"],
}


@dataclass
class ExperimentResult:
    """Rows plus bookkeeping for one experiment run."""

    experiment: str
    config: dict
    rows: list[dict] = field(default_factory=list)
    passed: bool | None = None
    failures: list[dict] = field(default_factory=list)
    total_runtime_seconds: float = 0.0
    stages: dict = field(default_factory=dict)
    rank_deficient_solves: dict = field(default_factory=dict)

    @property
    def schema(self) -> str:
        """The CSV schema of ``experiment``, from :data:`SCHEMAS`."""
        return SCHEMAS[self.experiment]

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
    ``"layout"`` (three nonnegative ints), ``"path"`` (a non-empty
    string) or ``"object"`` (of dotted fields).  With ``many``, a
    non-empty list of such values in which no value repeats.
    """

    kind: str
    low: float = -math.inf
    high: float = math.inf
    bounds: str = "[)"
    choices: tuple = ()
    many: bool = False

    def holds(self, value) -> bool:
        if self.many:
            return (isinstance(value, list) and bool(value) and all(map(self._holds_one, value))
                    and len(set(value)) == len(value))
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
        if self.kind == "path":
            return isinstance(v, str) and v != ""
        return isinstance(v, dict)

    def __str__(self) -> str:
        interval = f"{self.bounds[0]}{self.low}, {self.high}{self.bounds[1]}"
        one = {
            "int": f"an int in {interval}",
            "number": f"a finite number in {interval}",
            "enum": "one of " + ", ".join(map(repr, self.choices)),
            "layout": "three nonnegative ints",
            "path": "a non-empty string",
            "object": "an object",
        }[self.kind]
        if self.many:
            return f"a non-empty list without repeats, each {one}"
        return one


#: The default of a field that must be given.
REQUIRED = object()

_COUNT = Domain("int", 0)

# A repeated seed would repeat its rows, and its classifier mean/std rows
# would count one run twice; a repeated value of any other list field
# would repeat its rows too.
_SEEDS = (REQUIRED, Domain("int", 0, 1 << 64, many=True))
_SIZES = {"n_r": (30, Domain("int", 2)), "n_f": (10, Domain("int", 1))}
_DIST = ("standard-normal", Domain("enum", choices=DIST_TAGS))
_LINEAR = {**_SIZES, "dist": _DIST,
           "nt_values": (None, Domain("int", 1, many=True))}
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
            "alphas": ([0.1, 0.2, 0.4, 0.8],
                       Domain("number", 0, 1, bounds="[]", many=True)),
        },
    }.items()
}

# The fields that set a scenario's feature count d, and how a rule names it.
_SIZES_OF = {size: size if size == "d" else f"sum({size})"
             for size in ("d", "layout", "distinct_layout", "overlap_layout")}


def _size(c: dict, size: str) -> int:
    return c[size] if size == "d" else sum(c[size])


#: The rules that relate fields: (fields, rule, check).  A rule applies
#: to each experiment that has all of its fields.  None names ``seeds`` or
#: ``out``, which the CLI's flags override after validation.
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
    # The overlap edit predictions are exact only once the remaining data
    # can span the remaining and overlap blocks (see the oracle module).
    *((("n_r", size), f"{size} must have d_lap = 0 or d_r + d_lap <= n_r",
       lambda c, size=size: c[size][1] == 0 or sum(c[size][:2]) <= c["n_r"])
      for size in ("overlap_layout", "layout")),
    (("n_r", "n_t"), "n_t must be <= n_r - 1", lambda c: c["n_t"] <= c["n_r"] - 1),
    (("n_r", "nt_values"), "every n_t in nt_values must be <= n_r - 1",
     lambda c: c["nt_values"] is None or max(c["nt_values"]) <= c["n_r"] - 1),
    (("d", "d_lap_values"), "every d_lap must be < d, with d - d_lap even",
     lambda c: all(d_lap < c["d"] and (c["d"] - d_lap) % 2 == 0 for d_lap in c["d_lap_values"])),
    # The same regime for sweep-overlap, whose layouts have
    # d_r = (d - d_lap) / 2.
    (("d", "n_r", "d_lap_values"), "every d_lap > 0 must have (d + d_lap) / 2 <= n_r",
     lambda c: all(d_lap == 0 or c["d"] + d_lap <= 2 * c["n_r"] for d_lap in c["d_lap_values"])),
]


def _fill(kind: str, raw: dict, fields: dict) -> dict:
    """Walk a field table over ``raw``: fill in the defaults, store each
    ``number`` as a float, and reject values outside their domain and keys
    the table does not name."""
    cfg: dict = {}
    given, filled = {"": raw}, {"": cfg}
    for name, (default, domain) in fields.items():
        group, _, key = name.rpartition(".")
        value = given[group].get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"{kind}: field {name!r} is required")
        if not (value is None and default is None or domain.holds(value)):
            raise ConfigError(f"{kind}: field {name!r} must be {domain} (got {value!r})")
        if domain.kind == "object":
            given[name], value = value, {}
            filled[name] = value
        elif domain.kind == "number":
            value = list(map(float, value)) if domain.many else float(value)
        elif isinstance(value, (list, tuple)):
            value = list(value)
        filled[group][key] = value
    for group, source in given.items():
        known = {name.rpartition(".")[2] for name in fields if name.rpartition(".")[0] == group}
        unknown = sorted(f"{group}.{key}" if group else f"{key}" for key in source.keys() - known)
        if unknown:
            raise ConfigError(f"{kind}: unknown config keys {unknown}")
    return cfg


def flag_value(experiment: str, flag: str, value):
    """The value of ``flag``, ``--seeds`` or ``--out``, checked by
    :func:`_fill` as the field it names in ``FIELDS[experiment]``
    (``--seeds: field 'seeds' must be ...``)."""
    name = flag.removeprefix("--")
    return _fill(flag, {name: value}, {name: FIELDS[experiment][name]})[name]


def validate_config(raw: dict, experiment: str) -> dict:
    """Normalize a raw config dict, materializing every default.

    Walks the experiment's :data:`FIELDS`, then checks the :data:`ACROSS`
    rules.  Raises :class:`ConfigError` on unknown experiments or keys,
    missing or malformed fields, and an ``experiment`` field that
    contradicts the requested experiment, and :class:`MemoryError` when
    the default ``nt_values`` belongs to data this host cannot allocate.
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
        # Reserve the largest data array before building n_r - 1 ints: an
        # n_r too large for this host raises MemoryError here, at once and
        # untouched, instead of after gigabytes of the list.
        np.empty((max(_size(cfg, size) for size in _SIZES_OF if size in cfg),
                  cfg["n_r"] + cfg["n_f"]))
        cfg["nt_values"] = list(range(1, cfg["n_r"]))
    return cfg


def load_config(path: str | Path, experiment: str) -> dict:
    """Read and validate a JSON config file.  A key that one object
    repeats, at any depth, raises :class:`ConfigError`."""
    def unique(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"config file {path} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return validate_config(raw, experiment)


# ----------------------------------------------------------------------
# Linear experiments: one stack of all seeds per layout
# ----------------------------------------------------------------------

def _solve(cfg: dict, layout: FeatureLayout, nt_values, edits, seeds) -> tuple:
    """Generate the scenarios of ``seeds`` on one layout as one read-only
    stack, then train, retrain and fine-tune the stack, and measure every
    model.

    Each entry of ``edits`` gives one start: an :class:`EditOption` edits
    the pretrained weights, and ``None`` leaves them unedited.  All the
    starts, ``(E, S, d)``, fine-tune on the prefix of each ``n_t`` in one
    call, on one SVD of that prefix; the oracle factors its own matrices.
    Every edit's models over every ``n_t`` are then measured in one call.
    Returns the stack and, per seed, ``((golden rl, golden ul), {edit:
    (rl, ul)})``, where the edits' ``rl`` and ``ul`` are arrays over
    ``nt_values``.
    """
    with stage("generate"):
        scenario = stack_scenarios([gen_scenario(cfg["n_r"], cfg["n_f"], layout, seed, cfg["dist"])
                                    for seed in seeds])
    with stage("solve"):
        w_o = train_original(scenario)
        w_g = retrain_golden(scenario)
        starts = np.stack([w_o if edit is None else edit_pretrained(w_o, layout, edit)
                           for edit in edits])
        # (E, len(nt_values), S, d): each edit's fine-tunes over nt_values.
        solved = np.stack([fine_tune_unlearn(starts, *fine_tune_subset(scenario, n_t))
                           for n_t in nt_values], axis=1)
    with stage("measure"):
        # (E, len(nt_values), S): member i's losses of edit e are [e, :, i].
        rl, ul = measure_losses(solved, scenario)
        rl_gold, ul_gold = measure_losses(w_g, scenario)
    return scenario, [(gold, {edit: (rl[e, :, i], ul[e, :, i]) for e, edit in enumerate(edits)})
                      for i, gold in enumerate(zip(rl_gold.tolist(), ul_gold.tolist()))]


def _stacked(seeds: list[int], solve) -> dict:
    """``solve`` all ``seeds`` as one stack; returns their results by seed.

    ``solve`` is an experiment's whole run: every layout of a linear
    experiment, with the oracle's checks in ``verify-theorems``, or the
    one classifier grid.  If the stack raises a package error, each seed's
    whole run is made again alone, as a one-member stack, and gets its
    own result or error, so its rows, failure, rank counts and DEBUG
    lines are those of its own run, in seed order.  This is the only
    place where seeds are rerun.  The stacked attempt's rank
    deficiencies are held until it succeeds, so a dropped attempt is
    neither counted nor logged.
    """
    if len(seeds) > 1:
        held = RankDeficiencyCount(hold=True)
        try:
            with held:
                results = solve(seeds)
        except UnlearnLabError:
            pass
        else:
            held.release()
            return dict(zip(seeds, results))
    outcome = {}
    for seed in seeds:
        try:
            [outcome[seed]] = solve([seed])
        except UnlearnLabError as exc:
            outcome[seed] = exc
    return outcome


def _verify(cfg: dict):
    """The run of ``verify-theorems`` and its rows.

    The run solves and then predicts each layout (distinct, then overlap)
    as one stack of the seeds; a seed's rows are its baseline row per
    layout, then one per edit.  The oracle predicts on the read-only
    stack that the solvers read and factors it itself; nothing the
    solvers built reaches it.
    """
    nt_values = cfg["nt_values"]
    checks = [
        ("distinct", predict_distinct, [EditOption.DISTINCT_ZERO_FORGET]),
        ("overlap", predict_overlap, [EditOption.OVERLAP_RETAIN, EditOption.OVERLAP_DISCARD]),
    ]

    def solve(seeds):
        layouts = []
        for check, predict, options in checks:
            scenario, solved = _solve(cfg, FeatureLayout(*cfg[f"{check}_layout"]), nt_values,
                                      [None, *options], seeds)
            with stage("oracle"):
                rl_gold, ul_gold = predict(scenario)
                edits = predict_edited(scenario, options, nt_values)
            # Each seed gets its own row of the stacked predictions.
            layouts.append([(*own, (rl_gold, float(ul_gold[i])),
                             [(rl[i], ul[i]) for rl, ul in edits])
                            for i, own in enumerate(solved)])
        return list(zip(*layouts))

    def rows_of(seed: int, result) -> list[dict]:
        rows, edit_rows = [], []
        for (check, _, options), ((rl_gold, ul_gold), fits, gold_pred, edits) \
                in zip(checks, result):
            gold_gaps = gap_report((rl_gold, ul_gold), gold_pred)
            rl_ft, ul_ft = fits[None]
            common = {
                **dict.fromkeys(COLUMNS[SCHEMAS["verify-theorems"]], float("nan")),
                "experiment": cfg["experiment"], "seed": seed,
                **dict(zip(("d_r", "d_lap", "d_f"), cfg[f"{check}_layout"])),
                "n_r": cfg["n_r"], "n_f": cfg["n_f"],
                "n_t_min": min(nt_values), "n_t_max": max(nt_values),
            }
            rows.append({
                **common, "check": check, "option": "",
                "rl_ft_max": float(rl_ft.max()),
                "ul_ft_max": float(ul_ft.max()),
                "rl_gold": rl_gold, "ul_gold": ul_gold, "ul_gold_pred": gold_pred[1],
                "ul_gold_rel_gap": gold_gaps.ul.rel_gap,
                "pass": gap_report(fits[None], FINE_TUNED).passed and gold_gaps.passed,
            })
            for option, predicted in zip(options, edits):
                rl, ul = fits[option]
                gaps = gap_report(fits[option], predicted)
                edit_rows.append({
                    **common, "check": "edit", "option": option.value,
                    "rl_edit_max": float(rl.max()),
                    "ul_edit_max": float(ul.max()),
                    # Starting from 0.0 keeps a NaN gap from deciding the maximum.
                    "edit_rl_gap_max": float(np.fmax.reduce(gaps.rl.abs_gap, initial=0.0)),
                    "edit_ul_gap_max": float(np.fmax.reduce(gaps.ul.abs_gap, initial=0.0)),
                    "pass": gaps.passed,
                })
        return rows + edit_rows

    return solve, rows_of


def _sweep_nt(cfg: dict):
    """The run of ``sweep-nt``, one stack of the seeds, and its rows: a
    seed's row per ``n_t``."""
    layout = FeatureLayout(*cfg["layout"])
    edits = [None, *EditOption]
    if not layout.is_distinct:
        edits.remove(EditOption.DISTINCT_ZERO_FORGET)

    def solve(seeds):
        return _solve(cfg, layout, cfg["nt_values"], edits, seeds)[1]

    def rows_of(seed: int, result) -> list[dict]:
        (rl_gold, ul_gold), fits = result
        missing = (np.full(len(cfg["nt_values"]), np.nan),) * 2
        columns = {"n_t": cfg["nt_values"]}
        for name, edit in (("ft", None), ("edit_zero", EditOption.DISTINCT_ZERO_FORGET),
                           ("edit_retain", EditOption.OVERLAP_RETAIN),
                           ("edit_discard", EditOption.OVERLAP_DISCARD)):
            rl, ul = fits.get(edit, missing)
            columns[f"rl_{name}"], columns[f"ul_{name}"] = rl.tolist(), ul.tolist()
        return [
            {"experiment": cfg["experiment"], "seed": seed, "rl_gold": rl_gold, "ul_gold": ul_gold,
             **dict(zip(columns, at))}
            for at in zip(*columns.values())
        ]

    return solve, rows_of


def _sweep_overlap(cfg: dict):
    """The run of ``sweep-overlap``, one stack of the seeds per ``d_lap``,
    and its rows: a seed's row per ``d_lap``."""
    layouts = [FeatureLayout((cfg["d"] - d_lap) // 2, d_lap, (cfg["d"] - d_lap) // 2)
               for d_lap in cfg["d_lap_values"]]
    edits = [EditOption.OVERLAP_RETAIN, EditOption.OVERLAP_DISCARD]

    def solve(seeds):
        return list(zip(*[_solve(cfg, layout, [cfg["n_t"]], edits, seeds)[1]
                          for layout in layouts]))

    def rows_of(seed: int, result) -> list[dict]:
        rows = []
        for layout, ((rl_gold, ul_gold), fits) in zip(layouts, result):
            # One n_t: each edit's losses are one-element arrays.
            [(rl_retain, ul_retain), (rl_discard, ul_discard)] = fits.values()
            rows.append({
                "experiment": cfg["experiment"], "seed": seed,
                "d_lap": layout.d_lap, "d_r": layout.d_r, "d_f": layout.d_f, "n_t": cfg["n_t"],
                "rl_gold": rl_gold, "ul_gold": ul_gold,
                "rl_edit_retain": float(rl_retain[0]), "ul_edit_retain": float(ul_retain[0]),
                "rl_edit_discard": float(rl_discard[0]), "ul_edit_discard": float(ul_discard[0]),
            })
        return rows

    return solve, rows_of


# ----------------------------------------------------------------------
# classifier-demo and sweep-alpha
# ----------------------------------------------------------------------

# Per-seed measurements of a classifier row; the mean/std rows average them.
_MEASURES = ("ua", "ra", "ta")


def _classifier(cfg: dict):
    """The run of ``classifier-demo`` or ``sweep-alpha``, every seed's grid
    descended in one :func:`run_seed_grid`, and its rows: a seed's row per
    (variant, alpha) pair."""
    alphas = cfg["alphas"] if "alphas" in cfg else [cfg["alpha"]]
    # retrain ignores alpha, so it gets one pair, whose alpha cell reads NaN.
    pairs = [(variant, alpha) for variant in cfg["variants"]
             for alpha in ([math.nan] if variant == "retrain" else alphas)]
    task = ClassTask(**cfg["task"])

    def solve(seeds):
        return list(run_seed_grid(task, pairs, seeds, cfg["epochs"], cfg["step_size"]).values())

    def rows_of(seed: int, scores) -> list[dict]:
        return [
            {
                "experiment": cfg["experiment"], "variant": variant, "alpha": alpha, "seed": seed,
                **{name: getattr(metrics, name) for name in _MEASURES},
            }
            for (variant, alpha), metrics in zip(pairs, scores)
        ]

    return solve, rows_of


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

# experiment -> (config -> (run, rows)): the run maps a list of seeds to
# one result per seed, and the rows map a seed and its result to its rows.
_RUNS = {
    "verify-theorems": _verify,
    "sweep-nt": _sweep_nt,
    "sweep-overlap": _sweep_overlap,
    "classifier-demo": _classifier,
    "sweep-alpha": _classifier,
}


def run_experiment(experiment: str, cfg: dict) -> ExperimentResult:
    """Run a validated config as one stack of its seeds (:func:`_stacked`),
    then append each seed's rows in seed order.

    A seed whose run raises a package error contributes no rows
    and one ``{seed, type, message}`` entry to ``failures``.  Only
    ``verify-theorems`` sets ``passed``.  The classifier schema appends
    mean and std rows after the per-seed rows.  ``rank_deficient_solves``
    counts the run's rank-deficient factorizations, failed seeds
    included: ``{"solvers": ..., "oracle": ...}``, by the side of the
    kernel that factored them, and ``stages`` the wall seconds of each of
    the experiment's :data:`STAGES`.
    At ``INFO`` it logs one line per failed seed, with its error, in seed
    order, and one line per stage with its seconds, in
    :data:`STAGES` order, once the run ends.
    """
    if experiment not in _RUNS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    result = ExperimentResult(experiment, cfg)
    solve, rows_of = _RUNS[experiment](cfg)
    start = time.perf_counter()
    with RankDeficiencyCount() as rank_count, stage_record(STAGES[experiment]) as result.stages:
        outcome = _stacked(cfg["seeds"], solve)
        with stage("report"):
            for seed, own in outcome.items():
                if isinstance(own, UnlearnLabError):
                    failure = {"seed": seed, "type": type(own).__name__, "message": str(own)}
                    result.failures.append(failure)
                    logger.info("seed %(seed)d failed: %(type)s: %(message)s", failure)
                else:
                    result.rows.extend(rows_of(seed, own))
            if experiment == "verify-theorems":
                result.passed = not result.failures and all(row["pass"] for row in result.rows)
            if result.schema == "classifier/v5":
                result.rows += _mean_std_rows(result.rows)
    result.rank_deficient_solves = rank_count.counts
    result.total_runtime_seconds = time.perf_counter() - start
    for name, seconds in result.stages.items():
        logger.info("stage %s: %.6f s", name, seconds)
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


#: Where numpy's wheels bundle OpenBLAS, relative to the directory that
#: holds the ``numpy`` package: ``numpy.libs`` on Linux and Windows,
#: ``numpy/.dylibs`` on macOS.
OPENBLAS_GLOBS = ("numpy.libs/libscipy_openblas64_*", "numpy/.dylibs/libscipy_openblas64_*")


def _openblas_string(lib: ctypes.CDLL, name: str) -> str | None:
    """The string that ``lib``'s query function ``name`` returns, or None
    where the library has no such function."""
    try:
        query = getattr(lib, name)
    except AttributeError:
        return None
    query.argtypes, query.restype = [], ctypes.c_char_p
    value = query()
    return None if value is None else value.decode("ascii", "replace").strip()


@cache
def _openblas() -> tuple[str | None, str | None]:
    """The core name of the OpenBLAS kernel this process runs and the
    library's config string, read from numpy's bundled OpenBLAS once per
    process; each is None where it cannot be read."""
    packages = Path(np.__file__).resolve().parent.parent
    for pattern in OPENBLAS_GLOBS:
        for path in sorted(packages.glob(pattern)):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            return (_openblas_string(lib, "scipy_openblas_get_corename64_"),
                    _openblas_string(lib, "scipy_openblas_get_config64_"))
    return None, None


def platform_record() -> dict:
    """What a run's floating-point bits depend on: numpy's version and the
    OpenBLAS kernel's core name and config string (None where unreadable).
    The linear CSVs repeat byte for byte only on the same numpy and kernel."""
    core, config = _openblas()
    return {"numpy": np.__version__, "openblas_core": core, "openblas_config": config}


def write_outputs(result: ExperimentResult, csv_path: str | Path) -> Path:
    """Write the CSV and its JSON summary, making the CSV's missing parent
    directories first; returns the CSV path.

    A write that fails leaves nothing behind: a summary that cannot be
    written takes its CSV with it, and either failure removes the
    directories this call made.  The :class:`OSError` is raised again.
    """
    csv_path = Path(csv_path)
    text = render_csv(result)
    # The missing directories, deepest first; rmdir removes only empty ones.
    missing = list(itertools.takewhile(lambda d: not d.exists(),
                                       (csv_path.parent, *csv_path.parent.parents)))
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
        "stages": result.stages,
        "platform": platform_record(),
    }
    try:
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(text, encoding="utf-8")
        try:
            summary_path_for(csv_path).write_text(json.dumps(summary, indent=2) + "\n",
                                                  encoding="utf-8")
        except OSError:
            csv_path.unlink(missing_ok=True)
            raise
    except OSError:
        for directory in missing:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    return csv_path


def exit_code_for(result: ExperimentResult) -> int:
    """0 when everything passed, 1 on numerical failures or failed checks."""
    return int(result.numerical_failures > 0 or result.passed is False)
