"""unlearn-lab benchmark runner.

Usage, from the root of a checkout::

    python3 bench/run.py --workload linear-verify --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all           # every workload, one after another

Load model: closed loop, one client.  One process runs one workload and
passes never overlap.  ``UNLEARN_LAB_THREADS`` is removed from the
environment; the BLAS thread variables are recorded, not set.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (a
fresh interpreter importing ``unlearn_lab`` and loading the workload's
configs; median of several), and per pass of the workload ``wall_s`` and
``cpu_s`` (median over passes), plus the process's ``peak_rss_mb``.  The
three times are normalised to a reference host speed with the kernel of
``calibrate.py``, timed right before and after each measured interval; the
result record keeps the measured seconds and the host-speed factors too.
With ``--trace 1`` it reports the per-layer metrics of ``tracer.PER_LAYER``,
medians over traced passes, and ``trace.overhead_s``, the median wall-time
difference between each traced pass and the untraced pass run just before
it.  The first pass of a run is a warm-up and is not timed.

Every pass is checked: each seed run counts as attempted, and as failed if
it raised, produced a failing ``pass`` row, or belongs to a CSV whose
digest does not match (the committed one on the default seed 0, the run's
first pass on any other seed).  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a full record, with the
environment, goes to ``bench/out/``.  Exit status: 0 when correct, 1 when
an output check failed, 2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from calibrate import REFERENCE_S, Calibrator  # noqa: E402
from tracer import PER_LAYER, Tracer, median_metrics, pass_metrics  # noqa: E402
from workloads import WORKLOADS, SetupError  # noqa: E402

ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_SAMPLES = 9
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
THREAD_ENV = (
    "UNLEARN_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# Imports unlearn_lab from the given src directory and loads each
# (experiment, config path) pair, then reports readiness on stdout.
_SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
from unlearn_lab import experiments
for experiment, path in zip(sys.argv[2::2], sys.argv[3::2]):
    experiments.load_config(path, experiment)
print("ready", flush=True)
"""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------

def git_revision(root: Path) -> str | None:
    """HEAD of ``root/.git`` read from its files; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(program, thread_env: dict) -> dict:
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "thread_env": thread_env,
        "git_revision": git_revision(ROOT),
        "platform": platform.platform(),
        "unlearn_lab": getattr(program.package, "__version__", None),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def calibrated(calibrator: Calibrator, measure):
    """Call ``measure`` between two kernel samples.

    Returns its result and the host-speed factor ``REFERENCE_S / kernel
    seconds``, by which a time measured in between is normalised.
    """
    before = calibrator.sample()
    result = measure()
    after = calibrator.sample()
    return result, 2 * REFERENCE_S / (before + after)


def measure_setup(program, workload: str, calibrator: Calibrator) -> list[tuple[float, float]]:
    """(seconds, host factor) from spawning an interpreter to its configs being loaded."""
    argv = [sys.executable, "-c", _SETUP_CHILD, str(program.src)]
    for spec in WORKLOADS[workload]:
        argv += [spec.experiment, str(ROOT / spec.path)]

    def spawn() -> float:
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise SetupError(f"set-up child exited with status {proc.returncode}")
        return elapsed

    return [calibrated(calibrator, spawn) for _ in range(SETUP_SAMPLES)]


def timed_passes(run_one, budget: float, minimum: int) -> list:
    """Run passes until the next one would overrun ``budget`` seconds."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_one())
        durations.append(time.perf_counter() - t0)
        used = time.perf_counter() - start
        if len(results) >= minimum and used + statistics.median(durations) > budget:
            return results


def summarize(values: list[float]) -> dict:
    """Median, quartiles, count, and the highest of p99/p90 with ten samples beyond it."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    out = {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
           "samples": values}
    for pct in (99, 90):
        if len(values) * (100 - pct) >= 1000:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def run_workload(program, args) -> tuple[dict, list]:
    """Measure one workload; returns the result record and the traced spans."""
    configs = workloads.load_configs(program, ROOT, args.workload, args.seed)
    out_dir = OUT_DIR / args.workload
    record: dict = {
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": {experiment: cfg["seeds"] for experiment, cfg in configs},
    }

    def untraced():
        return workloads.run_pass(program, configs, out_dir)

    calibrator = Calibrator()
    setup = [] if args.trace else measure_setup(program, args.workload, calibrator)
    passes = [untraced()]  # warm-up: checked, not timed
    spans: list = []
    if args.trace:
        tracer = Tracer()
        per_pass = []

        def paired():
            # Untraced and traced passes alternate, so host load affects both alike.
            plain = untraced()
            tracer.reset()
            with tracer:
                loaded = workloads.load_configs(program, ROOT, args.workload, args.seed)
                traced = workloads.run_pass(program, loaded, out_dir)
            per_pass.append(pass_metrics(tracer))
            spans.append(tracer.spans)
            return plain, traced

        pairs = timed_passes(paired, args.seconds, MIN_TRACE_PASSES)
        passes += [p for pair in pairs for p in pair]
        layer = median_metrics(per_pass)
        layer["trace.overhead_s"] = statistics.median(t.wall_s - p.wall_s for p, t in pairs)
        record["traced_wall_s"] = summarize([t.wall_s for _, t in pairs])
        record["untraced_wall_s"] = summarize([p.wall_s for p, _ in pairs])
        record["counts_repeat"] = all(
            p[name] == per_pass[0][name] for p in per_pass for name, unit, _ in PER_LAYER
            if unit == "count")
        record["metrics"] = {name: {"value": layer[name], "unit": unit}
                             for name, unit, _ in PER_LAYER}
    else:
        plain = timed_passes(lambda: calibrated(calibrator, untraced), args.seconds, MIN_PASSES)
        passes += [p for p, _ in plain]
        stats = {
            "wall_s": summarize([p.wall_s * factor for p, factor in plain]),
            "cpu_s": summarize([p.cpu_s * factor for p, factor in plain]),
            "setup_s": summarize([s * factor for s, factor in setup]),
        }
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        record["stats"] = stats
        record["measured"] = {
            "wall_s": summarize([p.wall_s for p, _ in plain]),
            "cpu_s": summarize([p.cpu_s for p, _ in plain]),
            "setup_s": summarize([s for s, _ in setup]),
        }
        record["host_factor"] = {
            "passes": summarize([factor for _, factor in plain]),
            "setup": summarize([factor for _, factor in setup]),
        }
        record["metrics"] = {name: {"value": stats[name]["median"] if name in stats else peak,
                                    "unit": unit} for name, unit in END_TO_END}

    workloads.check_digests(passes, args.workload, args.seed)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record.update(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        failed_share=failed / attempted,
        digests={o.experiment: o.digest for o in passes[0].outcomes},
        failures=[{"experiment": o.experiment, "failed_seeds": sorted(o.failed_seeds),
                   "reasons": o.reasons} for p in passes for o in p.outcomes if o.failed_seeds],
    )
    return record, spans


def write_record(record: dict, spans: list, thread_env: dict, program) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['workload_seed']}-trace{record['trace']}"
    record["environment"] = environment(program, thread_env)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if spans:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for number, pass_spans in enumerate(spans):
                for index, (name, start, end, parent) in enumerate(pass_spans):
                    fh.write(json.dumps([number, index, parent, name, start, end]) + "\n")


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        line = f"{name:17s} {metric:42s} {entry['value']:.6g} {entry['unit']}"
        stats = record.get("stats", {}).get(metric)
        if stats:
            line += f"  (median of n={stats['n']}; q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}"
            line += "".join(f", {k} {stats[k]:.6g}" for k in ("p90", "p99") if k in stats)
            line += f"; measured {record['measured'][metric]['median']:.6g})"
        print(line)
    print(f"{name:17s} {'failed_share':42s} {record['failed_share']:.6g} share"
          f"  ({record['failed']} of {record['attempted']} seed runs)")


def run_all(args) -> int:
    """Run every workload in its own process and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return 2
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # Recorded as found, before UNLEARN_LAB_THREADS is removed below.
    thread_env = {key: os.environ.get(key) for key in THREAD_ENV}
    try:
        program = workloads.import_program(ROOT)
        os.environ.pop("UNLEARN_LAB_THREADS", None)
        record, spans = run_workload(program, args)
    except (SetupError, ImportError, OSError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    write_record(record, spans, thread_env, program)
    print_record(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
