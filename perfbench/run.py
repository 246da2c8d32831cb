"""The repository benchmark: ``python3 perfbench/run.py --workload <name>``.

Run from the root of a checkout of the repository (``src/`` must be
there).  Options: ``--seed N`` (inputs are a function of it),
``--seconds S`` (how long one run measures), ``--trace 0|1`` (``1`` runs
the traced variant and reports per-layer metrics instead of end-to-end
ones) and ``--size full|smoke`` (``smoke`` is the seconds-long size the
benchmark's own tests use).

The report goes to standard output: one line per metric with its unit
and sample count, the environment, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The same report, with
sample counts, failures and environment, is saved under
``.perfbench-out/``.  The exit code is 0 when every correctness gate held,
1 when one failed and 2 when the benchmark could not run.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
#: A simulated run that takes longer than this is a failure.
SIM_RUN_TIMEOUT_S = 120.0

sys.path.insert(0, HERE)

import shapes  # noqa: E402

#: End-to-end metrics and their units, printed by an untraced run; a
#: traced run prints the per-layer metrics ``BENCHMARK.json`` lists.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wall_s": "s",
    "job_turnaround_s": "s",
    "rpc_p50_ms": "ms",
    "rpc_p90_ms": "ms",
}


def environment() -> dict:
    """Where the numbers were measured; never compare across machines."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "platform": platform.platform()}


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 when there are no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values) -> float:
    """Median (0 when every run failed and there are no samples)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


# -- simulated workloads ---------------------------------------------------------

def load_reference() -> dict:
    """Reference results per workload, size and simulation seed."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def sim_run(workload: str, size: str, sim_seed: int, trace: bool,
            spans_out: str | None = None) -> dict:
    """One simulated run in a fresh interpreter (see ``simrep.py``)."""
    arg = json.dumps({"src": SRC, "workload": workload, "size": size,
                      "sim_seed": sim_seed, "trace": trace,
                      "spans_out": spans_out})
    proc = subprocess.run([sys.executable, os.path.join(HERE, "simrep.py"),
                           arg], capture_output=True, text=True,
                          timeout=SIM_RUN_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"simulated run failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(result: dict, reference: dict | None) -> list[str]:
    """Mismatches between a run's simulated statistics and its reference.

    The event count is deliberately not compared: a kernel change may
    legitimately dispatch a different number of callbacks.
    """
    if reference is None:
        return ["no reference for this seed"]
    return [f"{key}: {result['gate'][key]!r} != {reference[key]!r}"
            for key in ("makespan_s", "job_done_s", "sched_rpcs",
                        "trace_sha256")
            if result["gate"][key] != reference[key]]


def run_sim_workload(workload: str, size: str, seed: int, seconds: float,
                     trace: bool) -> dict:
    """Simulated runs cycling over the run's seeds until *seconds* pass."""
    refs = load_reference().get(workload, {}).get(size, {})
    seeds = shapes.sim_seeds(workload, seed)
    failures: list[str] = []
    tally = {"attempted": 0, "failed": 0}
    report: dict = {"failures": failures}

    def one(sim_seed: int, traced: bool, spans_out: str | None = None):
        tally["attempted"] += 1
        try:
            res = sim_run(workload, size, sim_seed, traced, spans_out)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            res, bad = None, [str(exc)]
        else:
            bad = gate(res, refs.get(str(sim_seed)))
        if bad:
            tally["failed"] += 1
            failures.extend(f"seed {sim_seed}: {b}" for b in bad)
            return None
        return res

    if not trace:
        # Whole cycles over the seeds, so every seed weighs the same in the
        # medians: as many as fit in *seconds* at the first cycle's pace,
        # and none started once *seconds* have passed (the machine may
        # slow down after the first cycle).
        runs: list[dict] = []
        t0 = time.perf_counter()
        cycles = 1
        done = 0
        while done < cycles and (done == 0
                                 or time.perf_counter() - t0 < seconds):
            for sim_seed in seeds:
                res = one(sim_seed, False)
                if res is not None:
                    runs.append(res)
            done += 1
            if done == 1:
                cycles = max(1, round(seconds / (time.perf_counter() - t0)))
        walls = [r["wall_s"] for r in runs]
        rpc = [x for r in runs for x in r["rpc_ms"]]
        report["metrics"] = {
            "setup_s": median(r["setup_s"] for r in runs),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
            "wall_s": median(walls),
            # Every simulated workload runs one job, submitted when the
            # run starts, so its turnaround is the run's wall time.
            "job_turnaround_s": median(walls),
            "rpc_p50_ms": quantile(rpc, 0.50),
            "rpc_p90_ms": quantile(rpc, 0.90),
        }
        report["samples"] = {"runs": len(runs), "rpc": len(rpc)}
        report["extra"] = {
            "rpc_p99_ms": quantile(rpc, 0.99),
            "events_per_run": median(r["events"] for r in runs),
            "sim_time_s": median(r["sim_time_s"] for r in runs),
            "sim_seeds": seeds,
        }
    else:
        # Untraced and traced runs alternate on the same seeds, so the
        # tracing overhead is a paired difference.
        pairs = []
        for k, sim_seed in enumerate(seeds[:2]):
            p = one(sim_seed, False)
            t = one(sim_seed, True, os.path.join(
                OUT, f"{workload}-{seed}-{k}.spans.jsonl"))
            if p is not None and t is not None:
                pairs.append((p, t))
        layers = [t["layers"] for _p, t in pairs]
        m = {key: median(x[key] for x in layers)
             for key in (layers[0] if layers else ())}
        m["sim.events_per_s"] = median(
            p["events"] / p["wall_s"] for p, _t in pairs)
        m["trace_overhead_s"] = median(
            t["wall_s"] - p["wall_s"] for p, t in pairs)
        m["rpc_p99_ms"] = quantile(
            [x for p, _t in pairs for x in p["rpc_ms"]], 0.99)
        for key in LIVE_ONLY:
            m[key] = 0
        report["metrics"] = m
        report["samples"] = {"pairs": len(pairs)}
    report.update(tally)
    return report


#: Per-layer metrics of the gateway and its load generator, which a
#: simulated workload never exercises (reported as 0 there).
LIVE_ONLY = (
    "gw.requests.scheduler", "gw.requests.data", "gw.requests.upload",
    "gw.decode_s", "gw.encode_s", "gw.blob_s", "gw.residual_p50_ms",
    "gw.refused", "gw.duplicate_reports", "gw.data_p99_ms",
    "load.offered_rps", "load.achieved_rps", "load.late_p99_ms",
    "load.sustained_rps", "load.client_cpu_frac", "self.gw_s",
)


# -- live workload ---------------------------------------------------------------

def run_live_workload(size: str, seed: int, seconds: float,
                      trace: bool) -> dict:
    """The live gateway workload (see ``live.py``)."""
    import live

    shape = shapes.LIVE_SHAPES[size]
    rng = shapes.run_rng("live_gateway", seed)
    corpora = [live.Corpus(shape, rng.randrange(1, 2**31))
               for _ in range(shape.corpora)]
    n_conns = min(2, os.cpu_count() or 1)
    if not trace:
        run = asyncio.run(live.measured_run(
            shape, seed, seconds, corpora, ROOT, OUT, f"{seed}", None,
            n_conns, shape.setups - 1))
        return live_report(run, shape)
    spans_out = os.path.join(OUT, f"live_gateway-{seed}.spans.jsonl")
    plain = asyncio.run(live.measured_run(
        shape, seed, seconds, corpora, ROOT, OUT, f"{seed}-plain", None,
        n_conns, 0))
    traced = asyncio.run(live.measured_run(
        shape, seed, seconds, corpora, ROOT, OUT, f"{seed}-traced",
        spans_out, n_conns, 0))
    report = live_report(traced, shape)
    report["metrics"] = live_layers(traced, plain, shape, spans_out)
    untraced = live_report(plain, shape)
    for key in ("failures", "attempted", "failed"):
        report[key] += untraced[key]
    return report


def live_report(run: dict, shape) -> dict:
    """End-to-end metrics of one measured live run."""
    import resource

    gen = run["gen"]
    open_rpc = [lat * 1e3 for phase, lat in gen.rpc_lat if phase == "open"]
    turnaround = [job.sealed - job.submitted for job in gen.jobs.values()
                  if job.phase == "closed" and job.sealed is not None]
    failures = [f"{why}: {n}" for why, n in sorted(gen.failures.items())]
    return {
        "metrics": {
            "setup_s": median(run["setups"]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "wall_s": median(run["rounds"]),
            "job_turnaround_s": (median(turnaround)
                                 if turnaround else 0.0),
            "rpc_p50_ms": quantile(open_rpc, 0.50),
            "rpc_p90_ms": quantile(open_rpc, 0.90),
        },
        "samples": {"setups": len(run["setups"]), "rpc": len(open_rpc),
                    "jobs": len(turnaround), "rounds": len(run["rounds"]),
                    "closed_contacts": run["closed_contacts"],
                    "backlog_left": run["backlog_left"]},
        "extra": {
            "rpc_p99_ms": quantile(open_rpc, 0.99),
            "data_p99_ms": quantile([lat * 1e3 for phase, lat in gen.data_lat
                                     if phase == "open"], 0.99),
            "sustained_rps": run["closed_good"] / run["closed_s"],
            "rpc_limit_ms": shape.rpc_limit_ms,
            "round_s": [round(r, 4) for r in run["rounds"]],
        },
        "attempted": gen.attempted,
        "failures": failures,
        "failed": sum(gen.failures.values()),
    }


def live_layers(run: dict, plain: dict, shape, spans_out: str) -> dict:
    """Per-layer metrics of a traced live run, from its spans."""
    from spans import durations, load_spans, self_times

    gen = run["gen"]
    rec = load_spans(spans_out)
    with open(spans_out + ".summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    window = run["window"]
    selfs, _covered = self_times(rec, window)
    wall = window[1] - window[0]

    def total(*names: str) -> float:
        return sum(selfs.get(n, 0.0) for n in names)

    route_by_contact = {}
    for i, name in enumerate(rec.names):
        if name == "gw.route.scheduler" and rec.contacts[i] is not None:
            route_by_contact[rec.contacts[i]] = rec.ends[i] - rec.starts[i]
    residual = [(end - start - route_by_contact[cid]) * 1e3
                for cid, start, end in gen.rpc_spans
                if cid in route_by_contact and window[0] <= start < window[1]]
    open_rpcs = [lat for phase, lat in gen.rpc_lat if phase == "open"]
    sched = durations(rec, "boinc.sched_rpc", window)
    layers = {
        "self.sim_s": total("sim"),
        "self.net_maxmin_s": total("net.maxmin"),
        "self.net_alloc_s": total("net.alloc"),
        "self.net_other_s": 0.0,
        "self.boinc_s": total("boinc.sched_rpc", "boinc.daemon"),
        "self.core_s": 0.0,
        "self.obs_s": total("obs.observe"),
        "self.gw_s": total(*(n for n in selfs if n.startswith("gw."))),
    }
    traced_contacts = sum(gen.contacts.values())
    return {
        "sim.events": len(durations(rec, "sim")),
        "sim.events_per_s": 0.0,
        "sim.kernel_self_s": total("sim"),
        "sim.peak_pending": 0,
        "net.maxmin_calls": len(durations(rec, "net.maxmin")),
        "net.maxmin_s": total("net.maxmin"),
        "net.maxmin_flows_mean": 0.0,
        "net.maxmin_flows_max": 0,
        "net.flows_started": len(durations(rec, "net.alloc")),
        "net.alloc_self_s": total("net.alloc"),
        "net.components_peak": 0,
        "boinc.sched_rpcs": len(sched),
        "boinc.sched_rpc_s": sum(sched),
        "boinc.work_frac": (gen.contacts_with_work / traced_contacts
                            if traced_contacts else 0.0),
        "boinc.client_backoffs": 0,
        "boinc.daemon_tick_p99_ms": quantile(
            durations(rec, "boinc.daemon", window), 0.99) * 1e3,
        "core.fetches": 0,
        "core.peer_fetch_frac": 0.0,
        "obs.observe_calls": len(durations(rec, "obs.observe", window)),
        "obs.observe_s": total("obs.observe"),
        "obs.trace_records": summary["trace_records"],
        "gw.requests.scheduler": len(durations(rec, "gw.route.scheduler",
                                               window)),
        "gw.requests.data": len(durations(rec, "gw.route.data", window)),
        "gw.requests.upload": len(durations(rec, "gw.route.upload", window)),
        "gw.decode_s": total("gw.decode"),
        "gw.encode_s": total("gw.encode"),
        "gw.blob_s": total("gw.blob"),
        "gw.residual_p50_ms": quantile(residual, 0.5),
        "gw.refused": gen.refused,
        "gw.duplicate_reports": int(run["counters"].get(
            "gateway.duplicate_reports_total", 0)),
        "gw.data_p99_ms": quantile([lat * 1e3 for ph, lat in gen.data_lat
                                    if ph == "open"], 0.99),
        "rpc_p99_ms": quantile([lat * 1e3 for lat in open_rpcs], 0.99),
        "load.offered_rps": shape.open_rate,
        "load.achieved_rps": len(open_rpcs) / run["open_s"],
        "load.late_p99_ms": quantile(gen.late, 0.99) * 1e3,
        "load.sustained_rps": run["closed_good"] / run["closed_s"],
        "load.client_cpu_frac": run["client_cpu_s"] / run["closed_s"],
        **layers,
        "untraced_s": wall - sum(layers.values()),
        "traced_wall_s": wall,
        "trace_overhead_s": run["closed_s"] - plain["closed_s"],
    }


# -- entry point -----------------------------------------------------------------

def per_layer_names() -> dict[str, str]:
    """Per-layer metric names and units, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    """Run one workload and print its report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=shapes.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    trace = bool(args.trace)
    if args.workload == "live_gateway":
        report = run_live_workload(args.size, args.seed, args.seconds, trace)
    else:
        report = run_sim_workload(args.workload, args.size, args.seed,
                                  args.seconds, trace)
    failed = report["failed"]
    units = per_layer_names() if trace else END_TO_END
    # A metric is missing only when every run failed (correct is false).
    metrics = {name: {"value": report["metrics"].get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    attempted = max(1, report["attempted"])
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    saved = {**result, "workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "size": args.size, "trace": args.trace,
             "samples": report.get("samples", {}),
             "extra": report.get("extra", {}),
             "failures": report["failures"], "environment": env}
    path = os.path.join(OUT, f"{args.workload}-{args.size}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(saved, fh, indent=1, sort_keys=True)
    print(f"workload {args.workload} ({args.size}) seed {args.seed}: "
          f"{'traced' if trace else 'end to end'}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("samples: " + ", ".join(f"{k}={v}" for k, v in
                                  report.get("samples", {}).items()))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    for name, value in report.get("extra", {}).items():
        print(f"  {name:28s} {value}")
    print(f"failed_frac {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for why in report["failures"][:20]:
        print(f"  failure: {why}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
