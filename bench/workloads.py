"""Workload definitions, seed derivation, one timed pass, and the output gate.

A workload is a fixed list of shipped configs from ``configs/``.  The
benchmark derives every config's ``seeds`` list from one workload seed and
leaves every other field as shipped, so the program only ever receives
ordinary configs.  One *pass* runs ``experiments.run_experiment`` and
``experiments.write_outputs`` for each config of the workload in turn.

Correctness is judged from the public outputs only: the CSV and its
``.summary.json``.  A CSV is digested over the seed-schema columns (looked
up by header name, ``runtime_seconds`` excluded), so a later change may add
columns but may not alter the value of any existing one.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib
import io
import json
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

# Derived seeds are ``workload_seed * SEED_STRIDE + i``; the default workload
# seed 0 therefore reproduces the first seeds of each shipped config.
SEED_STRIDE = 1000
DEFAULT_SEED = 0


@dataclass(frozen=True)
class ConfigSpec:
    """One shipped config of a workload and how many seeds it receives."""

    experiment: str
    path: str
    seed_count: int


# Seed counts keep one pass short enough to repeat within a run.  The shipped
# linear configs keep all their seeds; the classifier configs keep their full
# variant x alpha grid, so per-seed redundancy is unchanged.
WORKLOADS: dict[str, tuple[ConfigSpec, ...]] = {
    "linear-verify": (
        ConfigSpec("verify-theorems", "configs/verify_theorems.json", 20),
    ),
    "linear-sweep": (
        ConfigSpec("sweep-nt", "configs/sweep_nt.json", 5),
        ConfigSpec("sweep-overlap", "configs/sweep_overlap.json", 10),
    ),
    "classifier-sweep": (
        ConfigSpec("sweep-alpha", "configs/sweep_alpha.json", 1),
    ),
    "classifier-demo": (
        ConfigSpec("classifier-demo", "configs/classifier_demo.json", 2),
    ),
}

# Workloads whose summary must report ``passed: true`` (the oracle checks).
MUST_PASS = {"verify-theorems"}


class SetupError(Exception):
    """The checkout cannot be benchmarked (program or configs missing)."""


def import_program(root: Path) -> types.SimpleNamespace:
    """Import ``unlearn_lab`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "unlearn_lab" / "__init__.py").is_file():
        raise SetupError(f"no unlearn_lab package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("unlearn_lab")
    if Path(package.__file__).resolve().parent != src / "unlearn_lab":
        raise SetupError(f"unlearn_lab was imported from {package.__file__}, not {src}")
    for workload in WORKLOADS.values():
        for spec in workload:
            if not (root / spec.path).is_file():
                raise SetupError(f"missing config {spec.path}")
    return types.SimpleNamespace(
        src=src,
        package=package,
        experiments=importlib.import_module("unlearn_lab.experiments"),
        errors=importlib.import_module("unlearn_lab.errors"),
    )


def derive_seeds(workload_seed: int, count: int) -> list[int]:
    """The seed list a config receives for a given workload seed."""
    return [workload_seed * SEED_STRIDE + i for i in range(count)]


def load_configs(program, root: Path, workload: str, workload_seed: int) -> list[tuple[str, dict]]:
    """Load every config of ``workload`` and give it its derived seeds."""
    loaded = []
    for spec in WORKLOADS[workload]:
        cfg = program.experiments.load_config(root / spec.path, spec.experiment)
        cfg["seeds"] = derive_seeds(workload_seed, spec.seed_count)
        loaded.append((spec.experiment, cfg))
    return loaded


def csv_digest(text: str, columns: list[str]) -> str | None:
    """SHA-256 over ``columns`` of every data row, selected by header name.

    Comment lines (schema and config echo) are skipped.  Returns ``None``
    when a column is missing or a row is too short, which never matches a
    reference digest.
    """
    rows = csv.reader(line for line in io.StringIO(text) if not line.startswith("#"))
    header = next(rows, None)
    if header is None or not set(columns) <= set(header):
        return None
    index = [header.index(name) for name in columns]
    digest = hashlib.sha256()
    digest.update((",".join(columns) + "\n").encode())
    for row in rows:
        if len(row) <= max(index):
            return None
        digest.update((",".join(row[i] for i in index) + "\n").encode())
    return digest.hexdigest()


@dataclass
class ConfigOutcome:
    """Correctness record of one config in one pass."""

    experiment: str
    seeds: list[int]
    digest: str | None = None
    failed_seeds: set[int] = field(default_factory=set)
    reasons: list[str] = field(default_factory=list)

    def fail_all(self, reason: str) -> None:
        self.failed_seeds = set(self.seeds)
        self.reasons.append(reason)


@dataclass
class PassResult:
    """Wall and CPU seconds of one pass plus its per-config outcomes."""

    wall_s: float
    cpu_s: float
    outcomes: list[ConfigOutcome]

    @property
    def attempted(self) -> int:
        return sum(len(o.seeds) for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(len(o.failed_seeds) for o in self.outcomes)


def run_pass(program, configs: list[tuple[str, dict]], out_dir: Path) -> PassResult:
    """Run and write every config once; time it, then check the outputs.

    Only ``run_experiment`` and ``write_outputs`` fall inside the timed
    interval.  Both are looked up on the module at call time, so a tracer
    that has replaced them is honoured.
    """
    experiments = program.experiments
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[tuple[str, Path | None, str | None]] = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for experiment, cfg in configs:
        try:
            result = experiments.run_experiment(experiment, cfg)
        except program.errors.UnlearnLabError as exc:
            written.append((experiment, None, f"{type(exc).__name__}: {exc}"))
            continue
        written.append((experiment, experiments.write_outputs(result, out_dir / f"{experiment}.csv"), None))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0

    outcomes = []
    for (experiment, cfg), (_, csv_path, error) in zip(configs, written):
        outcome = ConfigOutcome(experiment, list(cfg["seeds"]))
        if error is not None:
            outcome.fail_all(error)
        else:
            check_outputs(outcome, Path(csv_path))
        outcomes.append(outcome)
    return PassResult(wall, cpu, outcomes)


def check_outputs(outcome: ConfigOutcome, csv_path: Path) -> None:
    """Fill ``outcome`` from a written CSV and its summary."""
    text = csv_path.read_text(encoding="utf-8")
    summary = json.loads(csv_path.with_suffix(".summary.json").read_text(encoding="utf-8"))
    rows = list(csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#")))
    present = {int(r["seed"]) for r in rows if (r.get("seed") or "").lstrip("-").isdigit()}
    missing = set(outcome.seeds) - present
    if missing:
        outcome.failed_seeds |= missing
        outcome.reasons.append(f"no rows for seeds {sorted(missing)}")
    bad = {int(r["seed"]) for r in rows if r.get("pass") == "false"}
    if bad:
        outcome.failed_seeds |= bad
        outcome.reasons.append(f"failed checks for seeds {sorted(bad)}")
    if summary.get("numerical_failures", 0) > len(missing):
        outcome.fail_all(f"{summary['numerical_failures']} numerical failures")
    if outcome.experiment in MUST_PASS and summary.get("passed") is not True:
        outcome.fail_all(f"summary reports passed={summary.get('passed')}")
    outcome.digest = csv_digest(text, reference_columns(outcome.experiment))


_REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@functools.cache
def load_reference() -> dict:
    """Seed-schema columns and the default-seed digests, as committed."""
    return json.loads(_REFERENCE_PATH.read_text(encoding="utf-8"))


def reference_columns(experiment: str) -> list[str]:
    return load_reference()["columns"][experiment]


def check_digests(passes: list[PassResult], workload: str, workload_seed: int) -> None:
    """Mark digest mismatches as failures of every seed of that config.

    Every pass of a run must reproduce the first pass's digest.  On the
    default workload seed each digest must also equal the committed one; on
    any other (held-out) seed only the run-internal agreement is checked.
    """
    expected = load_reference()["digests"][workload] if workload_seed == DEFAULT_SEED else {}
    first = {o.experiment: o.digest for o in passes[0].outcomes}
    for result in passes:
        for outcome in result.outcomes:
            want = expected.get(outcome.experiment, first[outcome.experiment])
            if outcome.digest is None or outcome.digest != want:
                outcome.fail_all(f"output digest {outcome.digest} != {want}")
