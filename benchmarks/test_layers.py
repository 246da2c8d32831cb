"""Layer microbenchmarks: one fixed-shape number per simulator layer.

End-to-end runs (``benchmarks/test_scale.py``, ``perfbench/``) say how
fast the whole simulator is; this harness says how fast one layer is on
its own, so a speed-up claimed for a hot path can be read off the layer
that was changed.  It currently covers the ``repro.net`` slice:
:func:`repro.net.maxmin_rates` solves/s on synthetic components of 10,
100 and 1,000 flows in two shapes.

- ``hub`` — the server-relayed shuffle: every flow crosses one shared
  server link plus its volunteer's access link (four flows per access
  link, four capacity tiers).  The server saturates part-way through the
  filling, after the slowest tier has frozen.
- ``pairs`` — the BOINC-MR inter-client shuffle as the full allocator
  sees it: disjoint pairs of flows, each flow on its own uplink, each
  pair sharing one downlink.  Links and flows grow together.

Emits ``BENCH_layers.json``: one entry per (layer, name, shape, size)
with best-of-trials solves/s and flows/s (solves/s x flows per solve),
plus per shape the median over trials of the ``flows_per_s`` ratio of
the largest to the middle size, which stays near 1 while the cost of a
solve is linear in its component and falls when it is not.
``benchmarks/check_scale_regression.py --kind layers`` gates solves/s
against ``benchmarks/BENCH_layers_baseline.json`` and the
machine-independent ratio alongside it.

Run directly (``python benchmarks/test_layers.py``) or under pytest;
``LAYERS_OUT`` overrides the output path (default ``BENCH_layers.json``).
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time

from repro.net import Flow, Link, maxmin_rates
from repro.sim import Simulator

SIZES = (10, 100, 1000)
SHAPES = ("hub", "pairs")
#: Best-of-N trials per point; the best is the least disturbed by the host.
#: Trials run round-robin over the points, so a noisy stretch of the run
#: costs every point one trial instead of costing one point all of them.
TRIALS = 5
#: Seconds timed per trial of one point.
BUDGET_S = 0.2


def hub_component(n_flows: int) -> list[Flow]:
    """*n_flows* flows over one server link plus four-per-access links."""
    sim = Simulator()
    n_access = max(1, n_flows // 4)
    access = [Link(f"adsl{i}", 8e6 * (1 + i % 4)) for i in range(n_access)]
    server = Link("server", 10e6 * n_access)
    return [Flow(sim, f"f{i}", [server, access[i % n_access]], 1e6, None,
                 False) for i in range(n_flows)]


def pairs_component(n_flows: int) -> list[Flow]:
    """*n_flows* flows in disjoint pairs that share one downlink each."""
    sim = Simulator()
    flows = []
    for j in range(n_flows // 2):
        down = Link(f"down{j}", 1.5e6 * (1 + j % 4))
        for k in (2 * j, 2 * j + 1):
            up = Link(f"up{k}", 1e6)
            flows.append(Flow(sim, f"f{k}", [up, down], 1e6, None, False))
    return flows


BUILDERS = {"hub": hub_component, "pairs": pairs_component}


def solves_per_s(flows: list[Flow], budget: float) -> float:
    """``maxmin_rates(flows)`` calls per second over *budget* seconds.

    The garbage collector is paused while timing, as :mod:`timeit` does:
    a solve allocates only acyclic dicts and lists, and a collection
    landing in one trial but not another is noise, not allocator cost.
    """
    reps = 0
    gc.disable()
    try:
        t0 = time.perf_counter()
        while True:
            maxmin_rates(flows)
            reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= budget:
                return reps / elapsed
    finally:
        gc.enable()


def run_suite() -> dict:
    """Time every (shape, size) point and assemble the report."""
    components = {(shape, n): BUILDERS[shape](n)
                  for shape in SHAPES for n in SIZES}
    best = dict.fromkeys(components, 0.0)
    ratios: dict[str, list[float]] = {shape: [] for shape in SHAPES}
    middle, largest = SIZES[-2], SIZES[-1]
    for _ in range(TRIALS):
        rates = {key: solves_per_s(flows, BUDGET_S)
                 for key, flows in components.items()}
        for key, rate in rates.items():
            best[key] = max(best[key], rate)
        for shape in SHAPES:
            # Paired within one trial, so a drift in host speed between
            # trials cancels out of the ratio.
            ratios[shape].append(
                rates[shape, largest] * len(components[shape, largest])
                / (rates[shape, middle] * len(components[shape, middle])))
    report: dict = {"budget_s": BUDGET_S, "trials": TRIALS, "points": [],
                    "scaling": []}
    for shape in SHAPES:
        for n in SIZES:
            flows = components[shape, n]
            rate = best[shape, n]
            report["points"].append({
                "layer": "net", "name": "maxmin_rates", "shape": shape,
                "n_flows": len(flows), "solves_per_s": round(rate, 1),
                "flows_per_s": round(rate * len(flows), 1),
            })
            print(f"  net.maxmin_rates {shape:5s} n={n:5d} "
                  f"{rate:10.1f} solves/s  {rate * len(flows):11.0f} "
                  f"flows/s", flush=True)
        report["scaling"].append({
            "layer": "net", "name": "maxmin_rates", "shape": shape,
            "sizes": [middle, largest],
            "flows_per_s_ratio": round(statistics.median(ratios[shape]), 2),
        })
    return report


def write_report(report: dict, path: str | None = None) -> str:
    path = path or os.environ.get("LAYERS_OUT", "BENCH_layers.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def test_layers_benchmark():
    """Emit BENCH_layers.json; a solve must stay linear in its component."""
    report = run_suite()
    path = write_report(report)
    print(f"\nwrote {path}")
    for entry in report["scaling"]:
        # Linear cost keeps flows/s level from 100 to 1,000 flows; the
        # per-link rescans this harness guards against drop it to ~0.2.
        assert entry["flows_per_s_ratio"] >= 0.5, entry


def main() -> int:
    report = run_suite()
    path = write_report(report)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
