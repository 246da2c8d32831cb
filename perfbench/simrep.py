"""One simulated run in a fresh process: ``python simrep.py <json args>``.

The parent (``run.py``) starts one process per run so each run pays its
own imports (part of ``setup_s``) and reports its own peak RSS.  The
argument is a JSON object ``{"src", "workload", "size", "sim_seed",
"trace", "spans_out"}``; the process prints one JSON object with the
timings, the values the correctness gate compares with ``reference.json``
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before any repro import: setup_s covers imports

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def rpc_entry():
    """The ``SchedulerCore`` function that answers one scheduler RPC.

    The simulated transport (``ProjectServer.scheduler_rpc``) calls
    ``SchedulerCore._handle_rpc_now`` directly, after its simulated
    queueing; the public ``handle_scheduler_request`` used by the live
    gateway is that same call behind an availability check.  A rename
    must fail the benchmark, not silently time nothing.
    """
    from repro.boinc.server import SchedulerCore

    fn = getattr(SchedulerCore, "_handle_rpc_now", None)
    if fn is None:
        raise RuntimeError("SchedulerCore._handle_rpc_now is gone; "
                           "update perfbench/simrep.py:rpc_entry")
    return fn


def _layer_of_module(module: str) -> str:
    """``repro.<package>...`` -> layer name (``other`` outside the model)."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in (
            "sim", "net", "boinc", "core", "obs"):
        return parts[1]
    return "other"


#: Layer of each simulated process, by the process-name prefix the model
#: gives it (``Process.name`` is ``"<prefix>:<detail>"``).
PROCESS_LAYERS = {
    "peerdl": "net",
    "fetch": "core",
    "client": "boinc", "task": "boinc", "download": "boinc",
    "upload": "boinc", "rpc": "boinc", "feeder": "boinc",
    "transitioner": "boinc", "validator": "boinc", "assimilator": "boinc",
}


class SimTracing:
    """Spans and counters around the simulator's layers, from outside.

    Wraps ``repro.net.flows.maxmin_rates`` through its module attribute,
    ``FlowNetwork.start_flow``/``abort_flow``, the scheduler RPC (see
    :func:`rpc_entry`) and ``Histogram.observe``, and turns every
    dispatched callback into a span through ``Simulator.dispatch_hook``.
    """

    def __init__(self) -> None:
        """Install every wrapper (process-wide; one traced run per process)."""
        from spans import SpanRecorder

        import repro.net.flows as flows
        from repro.boinc.server import SchedulerCore
        from repro.obs.metrics import Histogram
        from repro.sim.process import Process

        self.rec = rec = SpanRecorder()
        self._process_cls = Process
        self.maxmin_flows: list[int] = []
        self.rpcs = 0
        self.rpcs_with_work = 0
        self.components_peak = 0
        self.flows_started = 0
        self._mark = 0
        self._run_idx = -1

        def count_flows(result, flows_arg):
            self.maxmin_flows.append(len(flows_arg))

        def count_rpc(reply, core, request):
            self.rpcs += 1
            if reply.assignments:
                self.rpcs_with_work += 1

        def count_start(flow, net, *args, **kwargs):
            self.flows_started += 1
            self.components_peak = max(self.components_peak,
                                       net.allocator.component_count())

        flows.maxmin_rates = rec.wrap("net.maxmin", flows.maxmin_rates,
                                      after=count_flows)
        flows.FlowNetwork.start_flow = rec.wrap(
            "net.alloc", flows.FlowNetwork.start_flow, after=count_start)
        flows.FlowNetwork.abort_flow = rec.wrap(
            "net.alloc", flows.FlowNetwork.abort_flow)
        SchedulerCore._handle_rpc_now = rec.wrap(
            "boinc.sched_rpc", rpc_entry(), after=count_rpc)
        Histogram.observe = rec.wrap("obs.observe", Histogram.observe)

    def _classify(self, fn) -> str:
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, self._process_cls):
            prefix = (owner.name or "").split(":", 1)[0]
            return PROCESS_LAYERS.get(prefix, "other")
        if owner is not None:
            if type(owner).__name__.endswith("Allocator"):
                return "net.alloc"
            return _layer_of_module(type(owner).__module__)
        return _layer_of_module(getattr(fn, "__module__", "") or "")

    def _hook(self, fn, args, elapsed: float) -> None:
        rec = self.rec
        end = time.perf_counter()
        idx = rec.closed(self._classify(fn), end - elapsed, end)
        parents = rec.parents
        run = self._run_idx
        for j in range(self._mark, idx):
            if parents[j] == run:
                parents[j] = idx
        self._mark = idx + 1
        if rec.names[idx] == "net.alloc":
            self.components_peak = max(
                self.components_peak,
                self._cloud.net.flownet.allocator.component_count())

    def run(self, cloud, until) -> float:
        """Run *cloud* until *until* fires inside a kernel span."""
        self._cloud = cloud
        cloud.sim.dispatch_hook = self._hook
        self._run_idx = self.rec.open("sim")
        self._mark = self._run_idx + 1
        try:
            cloud.run_until(until)
        finally:
            self.rec.close(self._run_idx)
            cloud.sim.dispatch_hook = None
        rec = self.rec
        return rec.ends[self._run_idx] - rec.starts[self._run_idx]

    def metrics(self, cloud, wall: float) -> dict:
        """Per-layer metrics of the traced run."""
        from spans import durations, self_times

        rec = self.rec
        selfs, _covered = self_times(rec)
        callbacks = sum(rec.ends[i] - rec.starts[i]
                        for i, p in enumerate(rec.parents)
                        if p == self._run_idx)
        mm = self.maxmin_flows
        counts = cloud.tracer.counts
        fetches = (counts.get("peer.local", 0) + counts.get("peer.fetched", 0)
                   + counts.get("peer.fallback_server", 0))
        layers = {f"self.{k}_s": sum(selfs.get(n, 0.0) for n in names)
                  for k, names in LAYER_SPANS.items()}
        untraced = wall - sum(layers.values())
        return {
            "sim.events": cloud.sim.dispatch_count,
            "sim.kernel_self_s": wall - callbacks,
            "sim.peak_pending": cloud.sim.peak_pending,
            "net.maxmin_calls": len(mm),
            "net.maxmin_s": selfs.get("net.maxmin", 0.0),
            "net.maxmin_flows_mean": statistics.fmean(mm) if mm else 0.0,
            "net.maxmin_flows_max": max(mm) if mm else 0,
            "net.flows_started": self.flows_started,
            "net.alloc_self_s": selfs.get("net.alloc", 0.0),
            "net.components_peak": self.components_peak,
            "boinc.sched_rpcs": self.rpcs,
            "boinc.sched_rpc_s": sum(durations(rec, "boinc.sched_rpc")),
            "boinc.work_frac": (self.rpcs_with_work / self.rpcs
                                if self.rpcs else 0.0),
            "boinc.client_backoffs": sum(c.backoffs for c in cloud.clients),
            "boinc.daemon_tick_p99_ms": 0.0,
            "core.fetches": fetches,
            "core.peer_fetch_frac": (counts.get("peer.fetched", 0) / fetches
                                     if fetches else 0.0),
            "obs.observe_calls": len(durations(rec, "obs.observe")),
            "obs.observe_s": selfs.get("obs.observe", 0.0),
            "obs.trace_records": sum(counts.values()),
            **layers,
            "untraced_s": untraced,
            "traced_wall_s": wall,
        }


#: Self-time breakdown: reported layer -> span names.  ``net.alloc`` is
#: the allocator's bookkeeping (callbacks, start/abort) without the
#: max-min solve; ``net`` is the rest of ``repro.net`` (transfer
#: processes).  Callbacks of no known layer stay in ``untraced_s``.
LAYER_SPANS = {
    "sim": ("sim",), "net_maxmin": ("net.maxmin",),
    "net_alloc": ("net.alloc",), "net_other": ("net",),
    "boinc": ("boinc", "boinc.sched_rpc"), "core": ("core",),
    "obs": ("obs.observe",),
}


def main(argv: list[str]) -> int:
    """Run one simulation as described by the JSON in ``argv[0]``."""
    args = json.loads(argv[0])
    sys.path.insert(0, args["src"])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import shapes
    from repro.boinc.server import SchedulerCore
    from repro.obs.export import trace_to_jsonl

    shape = shapes.SIM_SHAPES[args["workload"]][args["size"]]
    tracing = SimTracing() if args["trace"] else None
    rpc_s: list[float] = []
    if tracing is None:
        # The end-to-end run times only scheduler RPCs: one clock pair
        # per call into SchedulerCore, the layer both front ends share.
        handle = rpc_entry()

        def timed(core, request):
            t = time.perf_counter()
            try:
                return handle(core, request)
            finally:
                rpc_s.append(time.perf_counter() - t)

        SchedulerCore._handle_rpc_now = timed
    cloud, jobs = shapes.build_sim(shape, args["sim_seed"])
    done = cloud.sim.all_of([j.done for j in jobs])
    setup_s = time.perf_counter() - _T0
    gc.collect()
    if tracing is None:
        t0 = time.perf_counter()
        cloud.run_until(done)
        wall = time.perf_counter() - t0
    else:
        wall = tracing.run(cloud, done)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "rpc_ms": [s * 1e3 for s in rpc_s],
        "events": cloud.sim.dispatch_count,
        "sim_time_s": cloud.sim.now,
        "gate": {
            "makespan_s": max(j.makespan() for j in jobs),
            "job_done_s": [j.finished_at for j in jobs],
            "sched_rpcs": cloud.tracer.counts["sched.rpc"],
            "trace_sha256": hashlib.sha256(
                trace_to_jsonl(cloud.tracer).encode()).hexdigest(),
        },
    }
    if tracing is not None:
        out["layers"] = tracing.metrics(cloud, wall)
        if args.get("spans_out"):
            tracing.rec.write(args["spans_out"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
