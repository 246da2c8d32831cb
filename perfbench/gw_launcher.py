"""Start the gateway exactly as ``repro serve --port 0`` does, with spans.

Usage: ``python gw_launcher.py <spans.jsonl>`` with ``src`` on
``PYTHONPATH``.  Before calling :func:`repro.cli.main` it wraps, from
outside, the public functions of each gateway layer:

- ``repro.gateway.protocol.loads``/``validate`` (``gw.decode``) and
  ``dumps`` (``gw.encode``), through their module attributes;
- ``BlobStore.put``/``fetch`` (``gw.blob``);
- ``SchedulerCore.handle_scheduler_request`` (``boinc.sched_rpc``) and
  ``run_daemon_passes`` (``boinc.daemon``), which the gateway's event
  loop runs between requests;
- ``Histogram.observe`` (``obs.observe``);
- ``repro.net.flows.maxmin_rates``, ``FlowNetwork.start_flow`` and
  ``Simulator.step``, which the gateway must never call.

Each request is one ``gw.route.<family>`` span around
``GatewayServer._route`` (the one private name used), stamped with the
request's ``X-Contact-Id`` header so every span of one contact shares
that identifier.  On ctrl-c (SIGINT) the server stops as ``repro serve``
does; the spans are then written to the given file and a summary to
``<file>.summary.json``.
"""

from __future__ import annotations

import json
import os
import sys


def _family(path: str) -> str:
    if path == "/rpc/scheduler":
        return "scheduler"
    if path.startswith("/data/"):
        return "data"
    if path.startswith("/upload/"):
        return "upload"
    if path == "/rpc/register":
        return "register"
    if path.startswith("/jobs"):
        return "jobs"
    return "other"


def main(spans_out: str) -> int:
    """Install the spans, serve until interrupted, write the spans."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from spans import SpanRecorder

    import repro.gateway.protocol as protocol
    import repro.net.flows as flows
    from repro import cli
    from repro.boinc.server import SchedulerCore
    from repro.gateway.files import BlobStore
    from repro.gateway.server import GatewayServer
    from repro.obs.metrics import Histogram
    from repro.sim.engine import Simulator

    rec = SpanRecorder()
    protocol.loads = rec.wrap("gw.decode", protocol.loads)
    protocol.validate = rec.wrap("gw.decode", protocol.validate)
    protocol.dumps = rec.wrap("gw.encode", protocol.dumps)
    BlobStore.put = rec.wrap("gw.blob", BlobStore.put)
    BlobStore.fetch = rec.wrap("gw.blob", BlobStore.fetch)
    SchedulerCore.handle_scheduler_request = rec.wrap(
        "boinc.sched_rpc", SchedulerCore.handle_scheduler_request)
    SchedulerCore.run_daemon_passes = rec.wrap(
        "boinc.daemon", SchedulerCore.run_daemon_passes)
    Histogram.observe = rec.wrap("obs.observe", Histogram.observe)
    flows.maxmin_rates = rec.wrap("net.maxmin", flows.maxmin_rates)
    flows.FlowNetwork.start_flow = rec.wrap("net.alloc",
                                            flows.FlowNetwork.start_flow)
    Simulator.step = rec.wrap("sim", Simulator.step)

    route = GatewayServer._route

    def traced_route(self, method, path, headers, body):
        rec.contact = headers.get("x-contact-id")
        idx = rec.open(f"gw.route.{_family(path)}")
        try:
            return route(self, method, path, headers, body)
        finally:
            rec.close(idx)
            rec.contact = None

    GatewayServer._route = traced_route

    servers: list[GatewayServer] = []
    start = GatewayServer.start

    async def traced_start(self):
        servers.append(self)
        await start(self)

    GatewayServer.start = traced_start

    status = cli.main(["serve", "--port", "0"])
    rec.write(spans_out)
    summary = {
        "trace_records": sum(sum(s.core.tracer.counts.values())
                             for s in servers),
    }
    with open(spans_out + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
