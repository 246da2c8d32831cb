#!/usr/bin/env python3
"""Gate: fail when benchmark throughput regresses vs a checked-in baseline.

A shared helper for the simulator-throughput, layer and live-gateway
benchmarks:

- ``--kind scale`` (default) compares ``BENCH_scale.json`` (from
  ``benchmarks/test_scale.py``) against
  ``benchmarks/BENCH_scale_baseline.json``: per common size, the
  incremental allocator's events/sec must stay within ``--tolerance`` of
  baseline, and so must the machine-independent incremental/full speedup
  ratio.
- ``--kind layers`` compares ``BENCH_layers.json`` (from
  ``benchmarks/test_layers.py``) against
  ``benchmarks/BENCH_layers_baseline.json``: per common (layer, name,
  shape, size) point, solves/s must stay within ``--tolerance`` of
  baseline, and so must each shape's machine-independent large/middle
  size flows/s ratio (a drop means a solve stopped being linear).
- ``--kind gateway`` compares ``BENCH_gateway.json`` (from
  ``benchmarks/test_gateway.py`` or ``repro loadgen``) against
  ``benchmarks/BENCH_gateway_baseline.json``: the live scheduler-RPC p99
  must stay under the absolute ``budget.p99_ms``, the replay must cover
  ``min_clients`` clients, and the correctness gates must be clean (zero
  lost/duplicated results, benchmark job done, reclaimed payload
  byte-equivalent to the simulated LocalRunner oracle).

Absolute events/sec varies across machines; regenerate a baseline on the
reference runner with e.g. ``python benchmarks/test_scale.py && cp
BENCH_scale.json benchmarks/BENCH_scale_baseline.json`` when an
intentional change shifts the numbers (likewise ``test_layers.py`` and
``BENCH_layers.json`` for the layer baseline).

Usage: python benchmarks/check_scale_regression.py
       [--kind scale|layers|gateway] [result] [baseline]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(__file__)

#: Per-kind defaults: (result file, checked-in baseline file).
DEFAULTS = {
    "scale": ("BENCH_scale.json",
              os.path.join(_HERE, "BENCH_scale_baseline.json")),
    "layers": ("BENCH_layers.json",
               os.path.join(_HERE, "BENCH_layers_baseline.json")),
    "gateway": ("BENCH_gateway.json",
                os.path.join(_HERE, "BENCH_gateway_baseline.json")),
}


def _index(report: dict) -> dict[int, dict]:
    return {entry["n_nodes"]: entry for entry in report.get("sizes", [])}


def _below(got: float, want: float, tolerance: float) -> bool:
    return got < (1.0 - tolerance) * want


def check(result: dict, baseline: dict, tolerance: float) -> list[str]:
    """Scale-kind findings: allocator throughput + speedup ratio (empty = pass)."""
    failures = []
    fresh, base = _index(result), _index(baseline)
    common = sorted(set(fresh) & set(base))
    if not common:
        return ["no common sizes between result and baseline"]
    for n in common:
        got = fresh[n]["incremental"]["events_per_s"]
        want = base[n]["incremental"]["events_per_s"]
        if _below(got, want, tolerance):
            failures.append(
                f"n={n}: incremental throughput {got:.0f} events/s is "
                f"{100 * (1 - got / want):.0f}% below baseline {want:.0f}")
        got_ratio = fresh[n]["speedup_events_per_s"]
        want_ratio = base[n]["speedup_events_per_s"]
        if _below(got_ratio, want_ratio, tolerance):
            failures.append(
                f"n={n}: incremental/full speedup {got_ratio:.2f}x is "
                f"{100 * (1 - got_ratio / want_ratio):.0f}% below "
                f"baseline {want_ratio:.2f}x")
    return failures


def _layer_points(report: dict) -> dict[tuple, dict]:
    return {(p["layer"], p["name"], p["shape"], p["n_flows"]): p
            for p in report.get("points", [])}


def _layer_scaling(report: dict) -> dict[tuple, dict]:
    return {(e["layer"], e["name"], e["shape"]): e
            for e in report.get("scaling", [])}


def check_layers(result: dict, baseline: dict,
                 tolerance: float) -> list[str]:
    """Layers-kind findings: per-point solves/s + per-shape scaling ratio."""
    failures = []
    fresh, base = _layer_points(result), _layer_points(baseline)
    common = sorted(set(fresh) & set(base))
    if not common:
        return ["no common layer points between result and baseline"]
    for key in common:
        got = fresh[key]["solves_per_s"]
        want = base[key]["solves_per_s"]
        if _below(got, want, tolerance):
            failures.append(
                f"{'.'.join(map(str, key))}: {got:.1f} solves/s is "
                f"{100 * (1 - got / want):.0f}% below baseline {want:.1f}")
    fresh_scaling, base_scaling = _layer_scaling(result), _layer_scaling(
        baseline)
    for key in sorted(set(fresh_scaling) & set(base_scaling)):
        got = fresh_scaling[key]["flows_per_s_ratio"]
        want = base_scaling[key]["flows_per_s_ratio"]
        if _below(got, want, tolerance):
            failures.append(
                f"{'.'.join(key)}: flows/s ratio {got:.2f} between sizes "
                f"{fresh_scaling[key]['sizes']} is "
                f"{100 * (1 - got / want):.0f}% below baseline {want:.2f}")
    return failures


def check_gateway(result: dict, baseline: dict,
                  tolerance: float) -> list[str]:
    """Gateway-kind findings: p99 budget + the zero-loss/oracle gates.

    Unlike the throughput kinds, the latency gate is an absolute budget
    (``baseline["budget"]["p99_ms"]``) rather than a relative tolerance:
    a live server that answers its scheduler RPC slower than the budget
    is a regression regardless of what the last run measured.
    """
    failures = []
    budget = baseline.get("budget", {}).get("p99_ms")
    if budget is None:
        return ["baseline has no budget.p99_ms entry"]
    p99 = result.get("latency_ms", {}).get("p99")
    if p99 is None:
        failures.append("result has no latency_ms.p99 measurement")
    elif p99 > budget:
        failures.append(f"scheduler-RPC p99 {p99:.2f}ms exceeds the "
                        f"{budget:.2f}ms budget")
    min_clients = baseline.get("min_clients", 0)
    if result.get("n_clients", 0) < min_clients:
        failures.append(f"replayed {result.get('n_clients', 0)} clients; "
                        f"the gate requires >= {min_clients}")
    if result.get("job_state") != "done":
        failures.append(f"benchmark job ended {result.get('job_state')!r}, "
                        "not 'done'")
    for gate in ("errors", "lost_results", "duplicated_results"):
        if result.get(gate, 1) != 0:
            failures.append(f"{gate} = {result.get(gate)} (must be 0)")
    if not result.get("equivalent", False):
        failures.append("reclaimed payload is not byte-equivalent to the "
                        "simulated LocalRunner oracle")
    return failures


#: Kind -> checker function.
CHECKERS = {"scale": check, "layers": check_layers,
            "gateway": check_gateway}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit status."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=sorted(CHECKERS),
                        default="scale",
                        help="which benchmark report to validate")
    parser.add_argument("result", nargs="?", default=None)
    parser.add_argument("baseline", nargs="?", default=None)
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop (default 0.20)")
    args = parser.parse_args(argv)
    default_result, default_baseline = DEFAULTS[args.kind]
    with open(args.result or default_result, encoding="utf-8") as fh:
        result = json.load(fh)
    with open(args.baseline or default_baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures = CHECKERS[args.kind](result, baseline, args.tolerance)
    if failures:
        print(f"{args.kind} benchmark regression:")
        for line in failures:
            print(f"  - {line}")
        return 1
    if args.kind == "gateway":
        print(f"gateway load gates clean: p99 "
              f"{result['latency_ms']['p99']:.2f}ms within the "
              f"{baseline['budget']['p99_ms']:.0f}ms budget, "
              f"{result['n_clients']} clients, zero lost/duplicated "
              f"results, oracle-equivalent output")
    elif args.kind == "layers":
        common = set(_layer_points(result)) & set(_layer_points(baseline))
        print(f"layers benchmark within {args.tolerance:.0%} of baseline "
              f"at {len(common)} points")
    else:
        print(f"{args.kind} benchmark within {args.tolerance:.0%} of "
              f"baseline at sizes "
              f"{sorted(set(_index(result)) & set(_index(baseline)))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
