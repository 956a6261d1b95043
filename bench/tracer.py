"""Span tracer that wraps the public functions of each ``unlearn_lab`` layer.

The tracer lives entirely in the benchmark: it replaces functions in the
program's module namespaces for the duration of a ``with`` block and puts
the originals back on exit.  A function is replaced in *every* module that
binds it, because ``experiments`` imports solver and oracle functions by
name and ``classifier`` looks up ``pretrain`` and ``fit_softmax`` as module
globals; wrapping only the defining module would miss those calls.

Each call records a span ``[name, start, end, parent]`` in memory.  Self
time is a span's duration minus the time covered by its direct children
(calls are single-threaded, so children never overlap).  A few probes add
counts where the work happens: distinct SVD inputs, distinct pretraining
sets, and gradient evaluations inside ``fit_softmax``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import statistics
import sys
import time
from collections import Counter

import numpy as np

# Layer (module) -> public functions wrapped in that layer.
TARGETS: dict[str, tuple[str, ...]] = {
    "scenarios": ("gen_scenario",),
    "linalg": (
        "svd", "projector", "min_norm_solve", "min_norm_anchor_solve",
        "pseudoinverse", "weighted_seminorm_sq",
    ),
    "solvers": ("train_original", "retrain_golden", "fine_tune_unlearn", "edit_pretrained"),
    "oracle": ("predict_distinct", "predict_overlap", "predict_edited"),
    "metrics": ("measure_losses", "gap_report", "classifier_metrics"),
    "classifier": ("gen_class_task", "pretrain", "unlearn_ft", "fit_softmax"),
    "experiments": ("load_config", "run_experiment", "render_csv", "write_outputs"),
}

PACKAGE = "unlearn_lab"


def _array_key(*arrays) -> tuple:
    """Content key of one or more arrays: shapes, dtypes and a byte hash."""
    digest = hashlib.blake2b(digest_size=16)
    meta = []
    for arr in arrays:
        meta.append((arr.shape, arr.dtype.str))
        digest.update(arr.tobytes())
    return tuple(meta), digest.digest()


class Tracer:
    """Install wrappers with ``with tracer:``; read spans and counts after.

    ``reset()`` clears spans and counts between passes; the wrappers stay
    installed until the block exits.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.inputs: dict[str, set] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._probes = {
            "linalg.svd": self._probe_svd,
            "classifier.pretrain": self._probe_pretrain,
            "classifier.fit_softmax": self._probe_fit_softmax,
        }

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.inputs = {}
        self._stack = []

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        try:
            for layer, names in TARGETS.items():
                defining = sys.modules[f"{PACKAGE}.{layer}"]
                for fname in names:
                    original = getattr(defining, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, attr, wrapper)
                                self._patched.append((module, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        probe = self._probes.get(name)
        signature = inspect.signature(fn) if probe else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                probe(bound)
                args, kwargs = bound.args, bound.kwargs
            spans = self.spans
            stack = self._stack
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    # -- probes ------------------------------------------------------------

    def _note_input(self, name: str, key) -> None:
        self.inputs.setdefault(name, set()).add(key)

    def _probe_svd(self, bound) -> None:
        self._note_input("linalg.svd", _array_key(np.asarray(bound.arguments["a"], dtype=np.float64)))

    def _probe_pretrain(self, bound) -> None:
        train = bound.arguments["train"]
        self._note_input("classifier.pretrain", _array_key(train.features, train.labels))

    def _probe_fit_softmax(self, bound) -> None:
        value_and_grad = bound.arguments["value_and_grad"]
        counts = self.counts
        counts["classifier.fit_softmax.epochs"] += bound.arguments["epochs"]

        def counted(*args, **kwargs):
            counts["classifier.fit_softmax.grad_evals"] += 1
            return value_and_grad(*args, **kwargs)

        bound.arguments["value_and_grad"] = counted


# ----------------------------------------------------------------------
# Per-layer metrics from the spans of one pass
# ----------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration minus the time covered by direct children, per span."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def _caller_layer(spans: list[list], index: int, layers: tuple[str, ...]) -> str | None:
    parent = spans[index][3]
    while parent >= 0:
        layer = spans[parent][0].split(".", 1)[0]
        if layer in layers:
            return layer
        parent = spans[parent][3]
    return None


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was counted."""
    return num / den if den else 0.0


def _per_layer_spec() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) of every per-layer metric.

    Counts are exact per pass; ``*_s`` metrics are seconds per pass.  The
    names are the benchmark's public interface.
    """
    def stats(base, *which):
        units = {"calls": "count", "total_s": "s", "self_s": "s"}
        return [(f"{base}.{stat}", units[stat], "lower") for stat in which]

    spec = stats("linalg.svd", "calls", "self_s") + [
        ("linalg.svd.distinct_ratio", "ratio", "higher"),
        ("linalg.svd.calls.oracle", "count", "lower"),
        ("linalg.svd.calls.solvers", "count", "lower"),
    ]
    for fn in ("projector", "min_norm_solve", "min_norm_anchor_solve", "pseudoinverse",
               "weighted_seminorm_sq"):
        spec += stats(f"linalg.{fn}", "calls", "self_s")
    for fn in ("predict_distinct", "predict_overlap", "predict_edited"):
        spec += stats(f"oracle.{fn}", "calls", "total_s", "self_s")
    for fn in ("train_original", "retrain_golden", "fine_tune_unlearn", "edit_pretrained"):
        spec += stats(f"solvers.{fn}", "calls", "total_s")
    spec += stats("scenarios.gen_scenario", "calls", "self_s")
    for fn in ("measure_losses", "gap_report", "classifier_metrics"):
        spec += stats(f"metrics.{fn}", "calls", "self_s")
    for fn in ("gen_class_task", "pretrain", "unlearn_ft", "fit_softmax"):
        spec += stats(f"classifier.{fn}", "calls", "total_s", "self_s")
    spec += [
        ("classifier.pretrain.distinct_ratio", "ratio", "higher"),
        ("classifier.fit_softmax.grad_evals", "count", "lower"),
        ("classifier.fit_softmax.useful_ratio", "ratio", "higher"),
    ]
    for fn in ("load_config", "render_csv", "write_outputs"):
        spec += stats(f"experiments.{fn}", "self_s")
    return spec + [("trace.overhead_s", "s", "lower")]


PER_LAYER = _per_layer_spec()


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s`` for one pass."""
    spans = tracer.spans
    own = self_times(spans)
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    svd_by_caller: Counter = Counter()
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += own[i]
        if name == "linalg.svd":
            svd_by_caller[_caller_layer(spans, i, ("oracle", "solvers"))] += 1

    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        base, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = float(calls[base])
        elif stat == "total_s":
            out[metric] = float(total[base])
        elif stat == "self_s":
            out[metric] = float(self_s[base])
    for caller in ("oracle", "solvers"):
        out[f"linalg.svd.calls.{caller}"] = float(svd_by_caller[caller])
    for name in ("linalg.svd", "classifier.pretrain"):
        out[f"{name}.distinct_ratio"] = _ratio(len(tracer.inputs.get(name, ())), calls[name])
    grad_evals = tracer.counts["classifier.fit_softmax.grad_evals"]
    out["classifier.fit_softmax.grad_evals"] = float(grad_evals)
    out["classifier.fit_softmax.useful_ratio"] = _ratio(
        tracer.counts["classifier.fit_softmax.epochs"], grad_evals)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes (counts are equal in every pass)."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
