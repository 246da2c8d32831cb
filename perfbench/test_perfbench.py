"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Each workload runs at its seconds-long smoke size through the same code
as a full run: the correctness gates, the JSON report and, traced, the
span-recording path.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> tuple[int, dict | None, str]:
    """Run the benchmark command; returns (exit code, last JSON, output)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last, proc.stdout + proc.stderr


def test_benchmark_json_matches_the_runner():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert {w for w in WORKLOADS} == set(run.shapes.WORKLOADS)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    assert set(record["workloads"]) == set(WORKLOADS)
    assert set(record["per_layer"]) == {m["name"] for m in BENCH["per_layer"]}


def test_references_cover_the_seed_pool():
    refs = run.load_reference()
    for workload, sizes in run.shapes.SIM_SHAPES.items():
        for size in sizes:
            assert set(refs[workload][size]) == {
                str(s) for s in run.shapes.SIM_SEED_POOL}


def test_gate_reports_every_mismatch():
    ref = {"makespan_s": 10.0, "job_done_s": [10.0], "sched_rpcs": 5,
           "trace_sha256": "ab"}
    assert run.gate({"gate": dict(ref)}, ref) == []
    bad = {**ref, "sched_rpcs": 6, "trace_sha256": "cd"}
    assert len(run.gate({"gate": bad}, ref)) == 2
    assert run.gate({"gate": ref}, None) == ["no reference for this seed"]


def test_self_times_add_up_with_late_parents():
    rec = spans.SpanRecorder()
    root = rec.closed("sim", 0.0, 10.0)
    child = rec.closed("net.maxmin", 1.0, 2.0)
    rec.parents[child] = 2  # reparented to a callback recorded after it
    rec.closed("net.alloc", 0.5, 4.0)
    rec.parents[2] = root
    selfs, covered = spans.self_times(rec)
    assert covered == 10.0
    assert selfs == {"sim": 6.5, "net.alloc": 2.5, "net.maxmin": 1.0}
    assert math.isclose(sum(selfs.values()), covered)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, last, _out = bench("--workload", WORKLOADS[0], "--seed", "1",
                             "--seconds", "1", "--trace", "0",
                             cwd=str(tmp_path))
    assert code != 0
    assert last is None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    code, last, out = bench("--workload", workload, "--seed", "5",
                            "--seconds", "2", "--trace", "0",
                            "--size", "smoke")
    assert code == 0, out
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert list(last["metrics"]) == list(run.END_TO_END)
    for name, metric in last["metrics"].items():
        assert metric["value"] > 0, name
        assert metric["unit"] == run.END_TO_END[name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    code, last, out = bench("--workload", workload, "--seed", "5",
                            "--seconds", "2", "--trace", "1",
                            "--size", "smoke")
    assert code == 0, out
    assert last["correct"]
    m = {k: v["value"] for k, v in last["metrics"].items()}
    assert list(m) == [p["name"] for p in BENCH["per_layer"]]
    layers = sum(v for k, v in m.items() if k.startswith("self."))
    assert math.isclose(layers + m["untraced_s"], m["traced_wall_s"],
                        rel_tol=1e-9)
    if workload == "live_gateway":
        assert all(v == 0 for k, v in m.items()
                   if k.startswith(("net.", "sim.", "self.net", "self.sim")))
        assert m["gw.requests.scheduler"] > 0 and m["boinc.sched_rpcs"] > 0
    else:
        assert m["net.maxmin_calls"] > 0 and m["sim.events"] > 0
        assert m["gw.requests.scheduler"] == 0
