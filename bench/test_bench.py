"""Self-tests of the benchmark: tracer hygiene, the output gate, exact counts.

Run from the repository root::

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return workloads.import_program(ROOT)


def first_seed_only(program, workload: str):
    configs = workloads.load_configs(program, ROOT, workload, workloads.DEFAULT_SEED)
    for _, cfg in configs:
        cfg["seeds"] = cfg["seeds"][:1]
    return configs


def traced_pass(program, configs, out_dir):
    t = tracer.Tracer()
    with t:
        result = workloads.run_pass(program, configs, out_dir)
    return result, t


def package_bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "unlearn_lab" or name.startswith("unlearn_lab.")
        for attr, value in vars(module).items()
    }


def test_tracer_wraps_every_binding_and_restores_it(program):
    before = package_bindings()
    with tracer.Tracer():
        during = package_bindings()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    wrapped = {key for key, value in during.items() if value is not before[key]}
    for layer, names in tracer.TARGETS.items():
        for name in names:
            assert (f"unlearn_lab.{layer}", name) in wrapped
    # Bound by name in importing modules, which calls go through.
    for key in [("unlearn_lab.experiments", "train_original"),
                ("unlearn_lab.experiments", "predict_edited"),
                ("unlearn_lab.oracle", "projector"),
                ("unlearn_lab.classifier", "classifier_metrics")]:
        assert key in wrapped


def test_tracer_restores_after_an_exception(program):
    before = package_bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    after = package_bindings()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("workload", ["linear-verify", "linear-sweep", "classifier-demo"])
def test_traced_run_matches_untraced_and_self_times_fit(program, tmp_path, workload):
    configs = first_seed_only(program, workload)
    plain = workloads.run_pass(program, configs, tmp_path / "plain")
    traced, t = traced_pass(program, configs, tmp_path / "traced")
    assert plain.failed == traced.failed == 0
    assert [o.digest for o in plain.outcomes] == [o.digest for o in traced.outcomes]
    own = tracer.self_times(t.spans)
    assert min(own) > -1e-9
    assert sum(own) <= traced.wall_s
    metrics = tracer.pass_metrics(t)
    layer_self = sum(v for name, v in metrics.items() if name.endswith(".self_s"))
    assert layer_self <= traced.wall_s


def test_linear_verify_counts_repeat_exactly(program, tmp_path):
    configs = workloads.load_configs(program, ROOT, "linear-verify", 0)
    configs[0][1]["seeds"] = configs[0][1]["seeds"][:2]
    _, t = traced_pass(program, configs, tmp_path)
    metrics = tracer.pass_metrics(t)
    assert metrics["linalg.svd.calls"] == 2 * 295
    assert metrics["linalg.svd.distinct_ratio"] == 62 / 295
    assert metrics["linalg.svd.calls.oracle"] + metrics["linalg.svd.calls.solvers"] == 2 * 295
    assert metrics["linalg.svd.calls.oracle"] > 0
    assert metrics["classifier.pretrain.calls"] == 0


def test_classifier_sweep_counts_and_reference_digest(program, tmp_path):
    configs = workloads.load_configs(program, ROOT, "classifier-sweep", 0)
    assert len(configs[0][1]["seeds"]) == 1
    result, t = traced_pass(program, configs, tmp_path)
    metrics = tracer.pass_metrics(t)
    assert metrics["classifier.pretrain.calls"] == 24
    assert metrics["classifier.pretrain.distinct_ratio"] == 1 / 24
    assert metrics["classifier.fit_softmax.calls"] == 48
    assert metrics["classifier.fit_softmax.grad_evals"] == 48 * 500
    assert metrics["classifier.fit_softmax.useful_ratio"] == 1.0
    assert metrics["linalg.svd.calls"] == 0
    workloads.check_digests([result], "classifier-sweep", 0)
    assert result.failed == 0


def fake_pass(digest: str, experiment: str = "sweep-nt") -> workloads.PassResult:
    outcome = workloads.ConfigOutcome(experiment, [0, 1], digest=digest)
    return workloads.PassResult(1.0, 1.0, [outcome])


def test_digest_gate_default_and_held_out_seeds():
    committed = workloads.load_reference()["digests"]["linear-sweep"]["sweep-nt"]
    good = fake_pass(committed)
    workloads.check_digests([good], "linear-sweep", workloads.DEFAULT_SEED)
    assert good.failed == 0

    wrong = fake_pass("0" * 64)
    workloads.check_digests([wrong], "linear-sweep", workloads.DEFAULT_SEED)
    assert wrong.failed == 2

    # A held-out seed is not held to the committed digest, only to itself.
    held_out = [fake_pass("1" * 64), fake_pass("1" * 64)]
    workloads.check_digests(held_out, "linear-sweep", 7)
    assert sum(p.failed for p in held_out) == 0
    drifting = [fake_pass("1" * 64), fake_pass("2" * 64)]
    workloads.check_digests(drifting, "linear-sweep", 7)
    assert [p.failed for p in drifting] == [0, 2]


def test_csv_digest_selects_columns_by_name():
    base = "# schema: x/v1\nseed,a,runtime_seconds\n0,1.5,0.25\n"
    digest = workloads.csv_digest(base, ["seed", "a"])
    assert workloads.csv_digest(base.replace("0.25", "9.75"), ["seed", "a"]) == digest
    moved = "# schema: x/v2\nnew,seed,runtime_seconds,a\nq,0,0.5,1.5\n"
    assert workloads.csv_digest(moved, ["seed", "a"]) == digest
    assert workloads.csv_digest(base.replace("1.5", "1.25"), ["seed", "a"]) != digest
    assert workloads.csv_digest(base, ["seed", "b"]) is None


def test_failing_rows_and_missing_seeds_count_as_failed(tmp_path):
    csv_path = tmp_path / "verify-theorems.csv"
    columns = workloads.reference_columns("verify-theorems") + ["runtime_seconds"]
    row = {name: "0" for name in columns}
    rows = [dict(row, seed="0", **{"pass": "true"}), dict(row, seed="1", **{"pass": "false"})]
    csv_path.write_text("\n".join([",".join(columns)] + [",".join(r[c] for c in columns) for r in rows]) + "\n")
    csv_path.with_suffix(".summary.json").write_text(json.dumps({"passed": False, "numerical_failures": 0}))
    outcome = workloads.ConfigOutcome("verify-theorems", [0, 1, 2])
    workloads.check_outputs(outcome, csv_path)
    assert outcome.failed_seeds == {0, 1, 2}  # summary says not passed: whole config fails

    csv_path.with_suffix(".summary.json").write_text(json.dumps({"passed": None, "numerical_failures": 1}))
    outcome = workloads.ConfigOutcome("sweep-nt", [0, 1, 2])
    workloads.check_outputs(outcome, csv_path)
    assert outcome.failed_seeds == {1, 2}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "linear-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
