"""The shipped-config guarantees, as one local command.

Usage::

    python tests/shipped_checks.py repeat
    python tests/shipped_checks.py stacked
    python tests/shipped_checks.py kernel
    python tests/shipped_checks.py against REV
    python tests/shipped_checks.py all REV

Each check runs every config in ``configs/`` through this tree's CLI, as
``python -m unlearn_lab.cli`` with the tree's own ``src`` first on
``PYTHONPATH``, so nothing needs installing.  Every run is a process of
its own with every warning an error (``PYTHONWARNINGS=error``), and it
must exit 0.  Outputs go to a temporary directory.  The command exits 0
when every check holds, and 1 with the first failure on stderr.

- ``repeat``: each config on ``--seeds 0,1``, twice; the two CSVs are
  equal as written.  Every process salts str hashes anew, so a row that
  depends on set or dict-of-str order shows here.
- ``stacked``: each config on ``--seeds 3,11,5`` and on each of those
  seeds alone; the stacked run's seed rows equal the one-seed runs' rows,
  in seed order (:func:`compare_stacked`), and its
  ``rank_deficient_solves`` are, side by side, the sums of theirs
  (:func:`compare_rank_counts`).
- ``kernel``: each config on the default OpenBLAS kernel and on each of
  Haswell and Sandybridge that it does not already run, forced by name
  (:func:`forced_kernels`); each forced run agrees with the default's
  (:func:`compare_kernels`).  The default kernel's classifier CSVs match
  the committed ``shipped_classifier_digests.sha256``
  (:func:`check_digests`).
- ``against REV``: each config with this tree's code and config, and with
  the code and config of ``REV``, unpacked by ``git archive`` into the
  temporary directory (:func:`unpack`), on the shipped seeds and on
  ``--seeds 3,11,5``, at ``--log-level DEBUG``; the two runs agree
  (:func:`compare_against`).  The note names each top-level config key
  whose ``# config:`` echo changed, which the CSV comparison skips.  A
  config that ``REV`` lacks is skipped.
- ``all REV``: the four above.

It needs only the standard library.  The comparisons are pure functions
over text and dicts; ``test_shipped_checks.py`` tests them.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from functools import partial
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "shipped_classifier_digests.sha256"

#: The relative bound on a linear CSV cell across OpenBLAS kernels.
CELL_REL_TOL = 1e-12
#: ``unlearn_lab.oracle.PRED_ABS_FLOOR``, under which two cells agree
#: whatever their ratio; a tier-1 test holds the two equal.
PRED_ABS_FLOOR = 1e-10
#: The seeds that the stacked check and the second parent comparison use:
#: outside the tests' seeds and out of order.
SEEDS_APART = ("3", "11", "5")


class CheckFailed(Exception):
    """A shipped-config guarantee does not hold; the message says where."""


class Run(NamedTuple):
    """What one CLI run left: its CSV text, its summary and its stderr."""

    csv: str
    summary: dict
    log: str


def child_env(tree: Path, **extra: str) -> dict:
    """The environment of a process that runs ``tree``'s code: its ``src``
    first on ``PYTHONPATH``, every warning an error, and ``extra``."""
    path = os.pathsep.join(filter(None, (str(tree / "src"), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error", **extra}


def run_config(tree: Path, config: Path, out: Path, *flags: str, **env: str) -> Run:
    """Run ``config`` with ``tree``'s CLI, writing its CSV to ``out``.

    The experiment is the config's file name with ``-`` for ``_``.  The
    run's working directory is ``out``'s, so that no package beside the
    caller's shadows ``tree``'s.  A nonzero exit raises
    :class:`CheckFailed` with the run's stderr.
    """
    command = [sys.executable, "-m", "unlearn_lab.cli", config.stem.replace("_", "-"),
               "--config", str(config), "--out", str(out), *flags]
    out.parent.mkdir(parents=True, exist_ok=True)
    done = subprocess.run(command, env=child_env(tree, **env), cwd=out.parent,
                          capture_output=True, text=True)
    if done.returncode:
        raise CheckFailed(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return Run(out.read_text(encoding="utf-8"), read_summary(out), done.stderr)


def read_summary(csv_path: Path) -> dict:
    """The ``.summary.json`` written beside ``csv_path``."""
    return json.loads(csv_path.with_suffix(".summary.json").read_text(encoding="utf-8"))


def comment_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("#")]


def data_lines(text: str) -> list[str]:
    """The CSV lines after the comments: the header, then the rows."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def schema_line(text: str) -> str | None:
    return next((line for line in comment_lines(text) if line.startswith("# schema:")), None)


def config_echo(text: str) -> dict:
    """The ``# config:`` echo of a CSV, or ``{}`` where it has none."""
    line = next((line for line in comment_lines(text) if line.startswith("# config:")), None)
    return {} if line is None else json.loads(line.removeprefix("# config:"))


def echo_changes(theirs: str, ours: str) -> list[str]:
    """The top-level keys whose value is echoed differently in the
    ``# config:`` lines of two CSVs, in key order, each as ``'key'
    added``, ``'key' removed`` or ``'key' changed``.  Values compare as
    JSON text, so ``4`` and ``4.0`` differ."""
    before, after = config_echo(theirs), config_echo(ours)
    changes = []
    for key in sorted(before.keys() | after.keys()):
        if key not in before:
            changes.append(f"{key!r} added")
        elif key not in after:
            changes.append(f"{key!r} removed")
        elif json.dumps(before[key], sort_keys=True) != json.dumps(after[key], sort_keys=True):
            changes.append(f"{key!r} changed")
    return changes


def rank_lines(log: str) -> list[str]:
    """The DEBUG ``rank-deficient matrix`` lines of a run's stderr, in order."""
    return [line for line in log.splitlines() if "rank-deficient matrix" in line]


def require_equal_lines(what: str, a: list[str], b: list[str]) -> None:
    """Raises :class:`CheckFailed` at the first line where ``a`` and ``b``
    differ, or on their lengths."""
    for number, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            raise CheckFailed(f"{what} differ at line {number}:\n  {x!r}\n  {y!r}")
    if len(a) != len(b):
        raise CheckFailed(f"{what} differ in length: {len(a)} against {len(b)} lines")


def seed_rows(text: str) -> list[str]:
    """The rows of a CSV whose ``seed`` cell names one seed: every data
    line after the header but the aggregates over seeds, whose cell reads
    ``mean`` or ``std``.  A header with no ``seed`` column raises."""
    header, *rows = data_lines(text) or [""]
    columns = header.split(",")
    if "seed" not in columns:
        raise CheckFailed(f"no seed column in the header {header!r}")
    at = columns.index("seed")
    return [row for row in rows if row.split(",")[at] not in ("mean", "std")]


def compare_stacked(stacked: str, alone: list[str]) -> int:
    """Raises unless the CSV ``stacked`` has seed rows, and they are those
    of the CSVs ``alone``, one per seed in the stack's order; returns
    their count."""
    rows = seed_rows(stacked)
    if not rows:
        raise CheckFailed("the stacked run has no seed rows")
    require_equal_lines("the stacked and one-seed rows", rows,
                        [row for text in alone for row in seed_rows(text)])
    return len(rows)


def compare_rank_counts(stacked: dict, alone: list[dict]) -> dict:
    """Raises unless ``stacked``, a stacked run's ``rank_deficient_solves``,
    holds for each side the sum of the one-seed runs' counts ``alone``, a
    side that a run lacks counting 0; returns the sums."""
    sides = sorted({side for counts in (stacked, *alone) for side in counts})
    summed = {side: sum(counts.get(side, 0) for counts in alone) for side in sides}
    if {side: stacked.get(side, 0) for side in sides} != summed:
        raise CheckFailed(f"rank_deficient_solves reads {stacked} stacked, but the one-seed"
                          f" runs sum to {summed}")
    return summed


def cells_agree(a: str, b: str) -> bool:
    """Whether two CSV cells of the same linear row agree across kernels.

    Numbers agree when they are equal, within relative
    :data:`CELL_REL_TOL` of the larger, or both under
    :data:`PRED_ABS_FLOOR` in magnitude; NaN agrees only with NaN.  Any
    other cell must be equal.
    """
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    larger = max(abs(x), abs(y))
    return x == y or abs(x - y) <= CELL_REL_TOL * larger or larger < PRED_ABS_FLOOR


#: The kernels that the ``kernel`` check forces, by ``OPENBLAS_CORETYPE`` name.
FORCED_KERNELS = ("Haswell", "Sandybridge")


def forced_kernels(default: str | None) -> list[str]:
    """The kernels to force, in :data:`FORCED_KERNELS` order, skipping the
    one the default already runs: Zen runs the Haswell kernel."""
    own = "Haswell" if default == "Zen" else default
    return [core for core in FORCED_KERNELS if core != own]


def compare_kernels(default: Run, forced: Run, core: str) -> int:
    """Raises unless ``forced``, run on kernel ``core``, agrees with
    ``default``; returns the count of cells that differ.

    The forced summary names ``core``, and the two summaries have equal
    ``passed``, ``failures`` and ``rank_deficient_solves``.  A classifier
    CSV holds accuracies and must be equal as written.  A linear CSV must
    have equal comment lines and shape, and every cell must agree
    (:func:`cells_agree`).
    """
    named = forced.summary["platform"]["openblas_core"]
    if named != core:
        raise CheckFailed(f"the forced run reads kernel {named}, not {core}")
    for key in ("passed", "failures", "rank_deficient_solves"):
        if default.summary[key] != forced.summary[key]:
            raise CheckFailed(f"{key} reads {default.summary[key]} on the default kernel"
                              f" and {forced.summary[key]} on {core}")
    if default.summary["schema"].startswith("classifier/"):
        require_equal_lines("the classifier CSVs", default.csv.splitlines(keepends=True),
                            forced.csv.splitlines(keepends=True))
        return 0
    require_equal_lines("the comment lines", comment_lines(default.csv), comment_lines(forced.csv))
    rows, forced_rows = ([line.split(",") for line in data_lines(run.csv)]
                         for run in (default, forced))
    if len(rows) != len(forced_rows):
        raise CheckFailed(f"{len(rows)} CSV lines on the default kernel,"
                          f" {len(forced_rows)} on {core}")
    differ = 0
    for number, (row, forced_row) in enumerate(zip(rows, forced_rows), start=1):
        if len(row) != len(forced_row):
            raise CheckFailed(f"CSV line {number} has {len(row)} cells,"
                              f" and {len(forced_row)} on {core}")
        for column, a, b in zip(rows[0], row, forced_row):
            if not cells_agree(a, b):
                raise CheckFailed(f"{column} on CSV line {number} reads {a} on the default kernel"
                                  f" and {b} on {core}")
            differ += a != b
    return differ


def check_digests(listing: str, directory: Path) -> list[str]:
    """As ``sha256sum -c``: every ``<hex>  <name>`` line of ``listing``
    names a file in ``directory`` with that SHA-256; returns the names."""
    names = []
    for line in filter(None, listing.splitlines()):
        digest, name = line.split(maxsplit=1)
        path = directory / name
        if not path.exists():
            raise CheckFailed(f"{name}: no such output")
        actual = hashlib.sha256(path.read_bytes()).hexdigest()
        if actual != digest:
            raise CheckFailed(f"{name}: SHA-256 {actual}, committed {digest}")
        names.append(name)
    return names


def compare_against(theirs: Run, ours: Run) -> tuple[bool, list[str]]:
    """Raises unless ``ours`` repeats ``theirs``: equal
    ``rank_deficient_solves``, equal DEBUG rank lines in order and, where
    the two ``# schema:`` lines are equal, equal CSV lines after the
    comments.  Returns whether the CSV lines were compared, and the
    config keys whose echo changed (:func:`echo_changes`), which fail
    nothing."""
    if theirs.summary["rank_deficient_solves"] != ours.summary["rank_deficient_solves"]:
        raise CheckFailed(f"rank_deficient_solves reads {theirs.summary['rank_deficient_solves']}"
                          f" there and {ours.summary['rank_deficient_solves']} here")
    require_equal_lines("the DEBUG rank-deficient lines", rank_lines(theirs.log),
                        rank_lines(ours.log))
    changes = echo_changes(theirs.csv, ours.csv)
    if schema_line(theirs.csv) != schema_line(ours.csv):
        return False, changes
    require_equal_lines("the CSV lines after the comments", data_lines(theirs.csv),
                        data_lines(ours.csv))
    return True, changes


def repeat(config: Path, out: Path) -> str:
    first, second = (run_config(ROOT, config, out / run / f"{config.stem}.csv", "--seeds", "0,1")
                     for run in ("1", "2"))
    require_equal_lines("the two processes' CSVs", first.csv.splitlines(keepends=True),
                        second.csv.splitlines(keepends=True))
    return "seeds 0,1 in two processes, equal CSVs"


def stacked(config: Path, out: Path) -> str:
    seeds = ",".join(SEEDS_APART)
    stack = run_config(ROOT, config, out / f"{config.stem}.csv", "--seeds", seeds)
    alone = [run_config(ROOT, config, out / f"{config.stem}.{seed}.csv", "--seeds", seed)
             for seed in SEEDS_APART]
    rows = compare_stacked(stack.csv, [run.csv for run in alone])
    counts = compare_rank_counts(stack.summary["rank_deficient_solves"],
                                 [run.summary["rank_deficient_solves"] for run in alone])
    return (f"{rows} seed rows of seeds {seeds} equal their own runs',"
            f" rank_deficient_solves {counts} their sum")


def kernel(config: Path, out: Path) -> str:
    default = run_config(ROOT, config, out / "default" / f"{config.stem}.csv")
    notes = []
    for core in forced_kernels(default.summary["platform"]["openblas_core"]):
        forced = run_config(ROOT, config, out / core / f"{config.stem}.csv",
                            OPENBLAS_CORETYPE=core)
        notes.append(f"{compare_kernels(default, forced, core)} cells differ under {core}")
    return (f"{', '.join(notes)}, all within the bound;"
            f" rank_deficient_solves {default.summary['rank_deficient_solves']}")


def against(tree: Path, config: Path, out: Path) -> str:
    theirs = tree / "configs" / config.name
    if not theirs.exists():
        return "no such config there, skipped"
    notes = []
    seeds = ",".join(SEEDS_APART)
    for label, flags in (("shipped seeds", ()), (f"seeds {seeds}", ("--seeds", seeds))):
        name = f"{config.stem}.{label.replace(' ', '-')}"
        runs = [run_config(where, path, out / side / f"{name}.csv", *flags, "--log-level", "DEBUG")
                for where, path, side in ((tree, theirs, "theirs"), (ROOT, config, "ours"))]
        compared, changes = compare_against(*runs)
        csv_note = ("CSV lines equal" if compared else
                    f"schema changed, CSV not compared: {schema_line(runs[0].csv)!r}"
                    f" -> {schema_line(runs[1].csv)!r}")
        echo_note = "".join(f", config echo: {change}" for change in changes)
        notes.append(f"{label}: {csv_note}{echo_note}, rank_deficient_solves"
                     f" {runs[1].summary['rank_deficient_solves']},"
                     f" {len(rank_lines(runs[1].log))} DEBUG rank lines equal")
    return "; ".join(notes)


def unpack(rev: str, tree: Path) -> None:
    """Unpack ``rev``'s files at ``tree`` with ``git archive``, which
    writes nothing under ``.git``, and make sure its runs import
    ``unlearn_lab`` from there."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True)
    if archive.returncode:
        raise CheckFailed(f"no archive of {rev}:\n{archive.stderr.decode(errors='replace')}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(tree, filter="data")
    done = subprocess.run([sys.executable, "-c", "import unlearn_lab; print(unlearn_lab.__file__)"],
                          env=child_env(tree), cwd=tree.parent, capture_output=True, text=True)
    imported = Path(done.stdout.strip()).resolve()
    if done.returncode or not imported.is_relative_to((tree / "src").resolve()):
        raise CheckFailed(f"the copy of {rev} imports unlearn_lab from {imported}:"
                          f"\n{done.stderr}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Check the shipped configs' guarantees.")
    sub = parser.add_subparsers(dest="check", required=True)
    for name in ("repeat", "stacked", "kernel"):
        sub.add_parser(name)
    for name in ("against", "all"):
        sub.add_parser(name).add_argument("rev", help="git revision to compare with, e.g. HEAD^1")
    args = parser.parse_args(argv)
    names = ["repeat", "stacked", "kernel", "against"] if args.check == "all" else [args.check]
    with tempfile.TemporaryDirectory(prefix="shipped-checks-") as tmp:
        out, tree = Path(tmp), Path(tmp) / "tree"
        checks = {"repeat": repeat, "stacked": stacked, "kernel": kernel,
                  "against": partial(against, tree)}
        label = "against"
        try:
            if "against" in names:
                unpack(args.rev, tree)
            for config in sorted((ROOT / "configs").glob("*.json")):
                for name in names:
                    label = f"{name} {config.stem}"
                    print(f"{label}: {checks[name](config, out / name)}", flush=True)
            if "kernel" in names:
                label = "kernel digests"
                listed = check_digests(DIGESTS.read_text(encoding="utf-8"),
                                       out / "kernel" / "default")
                print(f"{label}: {', '.join(listed)} match {DIGESTS.name}")
        except CheckFailed as exc:
            print(f"{label}: FAILED: {exc}", file=sys.stderr)
            return 1
    print(f"{args.check}: every check holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
