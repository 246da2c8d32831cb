"""Cross-commit golden traces: a seed must replay the same run forever.

The same-seed determinism tests elsewhere compare two runs inside one
process, so a change that shifts every run the same way passes them.
These goldens pin SHA-256 digests of the exported traces plus the event
loop's own scalars, so any change to the event order, the RNG draws or the
trace exporters shows up here.  A deliberate model change that moves them
must update the digests in the same commit and say why.

Two deployments are pinned: the 6-volunteer BOINC-MR word count
(inter-client shuffle) at two seeds, and the same job on plain BOINC
clients, whose reduce inputs are relayed through the project server.
"""

import hashlib

import pytest

from repro.core import BoincMRConfig, CloudSpec, MapReduceJobSpec, VolunteerCloud
from repro.obs import chrome_trace_json, trace_to_jsonl

GOLDENS = {
    "boinc_mr_seed3": dict(
        seed=3, mr=True,
        chrome="7bd5ecbd5229527caf6086fea4f45eb6f28bfff6b981b99f709265767df19fea",
        jsonl="c9f6b28fe322fc08195872b4c48b30e2690ea0631cac5c80312fe77cd3edd1cd",
        dispatches=895, now=210.0, peak_pending=25),
    "boinc_mr_seed7": dict(
        seed=7, mr=True,
        chrome="35770e748d8765e03c8b93750e52ef5e0facf37729962b619fdc3b74f2055657",
        jsonl="7b230244f8d7da6d9c11cd1adc54411321165acb13c220e42f9a7b22bc26caa3",
        dispatches=1105, now=380.0, peak_pending=26),
    "plain_relayed_seed5": dict(
        seed=5, mr=False,
        chrome="7d3bd361938f8b625032d855b0cee8c22f34beb76f98a19d844f9f8d9276bfe8",
        jsonl="86f637cc7c30bbe49f5304dec495ca6b1330ae05d5ff836f905167cf9c22cf32",
        dispatches=1007, now=310.0, peak_pending=25),
}


def _run(seed, mr):
    spec = CloudSpec(seed=seed, mr_config=BoincMRConfig() if mr else None)
    cloud = VolunteerCloud.from_spec(spec)
    cloud.add_volunteers(6, mr=mr)
    cloud.attach_observability(spans=True, probes=False, profile=False)
    cloud.run_job(MapReduceJobSpec("wc", n_maps=6, n_reducers=2,
                                   input_size=60e6))
    cloud.finish_observability()
    return cloud


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_trace_matches_golden(name):
    golden = GOLDENS[name]
    cloud = _run(golden["seed"], golden["mr"])
    got = {
        "chrome": _sha256(chrome_trace_json(cloud.span_builder)),
        "jsonl": _sha256(trace_to_jsonl(cloud.tracer)),
        "dispatches": cloud.sim.dispatch_count,
        "now": cloud.sim.now,
        "peak_pending": cloud.sim.peak_pending,
    }
    want = {k: golden[k] for k in got}
    assert got == want
