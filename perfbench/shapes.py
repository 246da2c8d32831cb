"""Workload shapes, seed derivation and the simulator deployments.

Every input a run uses is derived here from ``--seed``.  The simulator
workloads draw their simulation seeds from :data:`SIM_SEED_POOL`, the
seeds ``reference.json`` holds reference results for, so every simulated
run can be checked against its reference.
"""

from __future__ import annotations

import dataclasses
import random

#: Simulation seeds with a stored reference (see ``make_reference.py``).
SIM_SEED_POOL = tuple(range(1, 33))
#: Distinct simulation seeds one run cycles through.
SIM_SEEDS_PER_RUN = 4


@dataclasses.dataclass(frozen=True)
class SimShape:
    """One simulated deployment: population, job geometry, client pacing."""

    volunteers: int
    mr_clients: bool
    n_maps: int
    n_reducers: int
    input_bytes: float
    #: Client backoff window after a no-work reply (seconds).
    backoff_min_s: float
    backoff_max_s: float


#: ``sim_mr_shuffle`` at full size is exactly
#: ``repro.experiments.build_scale_cloud(200)``: BOINC-MR clients, a
#: 1 Gbit server, ADSL volunteers and one 250 MB word count of 50 maps x
#: 50 reducers per 200 volunteers, with the 120 s backoff cap.
SIM_SHAPES: dict[str, dict[str, SimShape]] = {
    "sim_mr_shuffle": {
        "full": SimShape(200, True, 50, 50, 250e6, 60.0, 120.0),
        "smoke": SimShape(20, True, 10, 10, 50e6, 60.0, 120.0),
    },
    "sim_relay_hub": {
        "full": SimShape(100, False, 40, 5, 30e6, 10.0, 30.0),
        "smoke": SimShape(20, False, 10, 2, 5e6, 10.0, 30.0),
    },
}


@dataclasses.dataclass(frozen=True)
class LiveShape:
    """The live gateway load: population, jobs, open loop and rounds."""

    hosts: int
    #: Jobs submitted before each open-loop segment, about the work the
    #: segment's contacts take on.
    backlog_jobs: int
    #: Word-count jobs one closed-loop round submits together and runs to
    #: the end.
    round_jobs: int
    corpus_bytes: int
    #: Distinct corpora the jobs cycle through (outputs precomputed).
    corpora: int
    n_maps: int
    n_reducers: int
    replication: int
    #: Share of contacts that ask for work; the others only report or
    #: poll (``work_req_s`` 0), BOINC's report-only scheduler RPC.
    work_frac: float
    #: Open-loop contact rate (contacts per second).
    open_rate: float
    #: Cycles (open-loop segment and round) per second of half of
    #: ``--seconds``: a fixed count, so the server's memory and the job
    #: count do not depend on how fast it runs.
    cycles_per_s: float
    #: Scheduler-RPC latency limit a closed-loop contact must meet to count
    #: towards ``load.sustained_rps`` (milliseconds).
    rpc_limit_ms: float
    #: Server start-ups per run; the median is ``setup_s``.
    setups: int


LIVE_SHAPES: dict[str, LiveShape] = {
    "full": LiveShape(hosts=3000, backlog_jobs=2, round_jobs=4,
                      corpus_bytes=32_000,
                      corpora=4, n_maps=32, n_reducers=2, replication=2,
                      work_frac=0.5, open_rate=150.0, cycles_per_s=1.2,
                      rpc_limit_ms=20.0, setups=5),
    "smoke": LiveShape(hosts=200, backlog_jobs=1, round_jobs=2,
                       corpus_bytes=16_000,
                       corpora=2, n_maps=4, n_reducers=2, replication=2,
                       work_frac=0.5, open_rate=150.0, cycles_per_s=1.0,
                       rpc_limit_ms=50.0, setups=2),
}

WORKLOADS = ("sim_mr_shuffle", "sim_relay_hub", "live_gateway")


def run_rng(workload: str, seed: int) -> random.Random:
    """The run's private random stream, a function of workload and seed."""
    return random.Random(f"{workload}/{seed}")


def sim_seeds(workload: str, seed: int) -> list[int]:
    """The simulation seeds one run of *workload* cycles through."""
    return run_rng(workload, seed).sample(SIM_SEED_POOL, SIM_SEEDS_PER_RUN)


def build_sim(shape: SimShape, sim_seed: int):
    """The deployment and its one submitted job (the cloud is not run yet).

    One job per deployment is what ``build_scale_cloud`` submits for up to
    399 volunteers; every shape here stays below that.
    """
    from repro.boinc.client import ClientConfig
    from repro.core import (BoincMRConfig, CloudSpec, MapReduceJobSpec,
                            VolunteerCloud)
    from repro.net import ADSL_LINK, SERVER_LINK

    spec = CloudSpec(
        seed=sim_seed,
        mr_config=BoincMRConfig() if shape.mr_clients else None,
        client_config=ClientConfig(backoff_min_s=shape.backoff_min_s,
                                   backoff_max_s=shape.backoff_max_s),
        server_link=SERVER_LINK,
    )
    cloud = VolunteerCloud.from_spec(spec)
    cloud.add_volunteers(shape.volunteers, mr=shape.mr_clients,
                         link_spec=ADSL_LINK)
    jobs = [cloud.submit(MapReduceJobSpec(
        name="wordcount0", n_maps=shape.n_maps,
        n_reducers=shape.n_reducers, input_size=shape.input_bytes))]
    return cloud, jobs
