"""Regenerate ``reference.json``: ``python3 perfbench/make_reference.py``.

Runs every simulated workload, at both sizes, once per seed of
``shapes.SIM_SEED_POOL`` and records what the correctness gate compares:
makespan, per-job completion times, scheduler RPC count and the SHA-256
of the JSONL trace.  Regenerate only when a change is *meant* to alter
simulated behaviour; a speed-up must leave every reference intact.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import shapes  # noqa: E402


def main() -> int:
    """Write the reference file next to this script."""
    reference: dict = {}
    for workload, sizes in shapes.SIM_SHAPES.items():
        for size in sizes:
            entries = reference.setdefault(workload, {}).setdefault(size, {})
            for sim_seed in shapes.SIM_SEED_POOL:
                entries[str(sim_seed)] = run.sim_run(
                    workload, size, sim_seed, False)["gate"]
                print(f"{workload} {size} seed {sim_seed}: "
                      f"{entries[str(sim_seed)]['makespan_s']} s", flush=True)
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
