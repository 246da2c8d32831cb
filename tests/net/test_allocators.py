"""Equivalence and accounting tests for the pluggable rate allocators.

The incremental (component-partitioned) allocator must be observationally
equivalent to the reference full-recompute allocator: same rates on the
same active flow set, same completion behaviour, same link accounting.
These tests drive both implementations through randomized flow sets and
churn sequences (hypothesis) and pin the O(1) ``utilisation()`` sums
against a brute-force recount.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    ALLOCATORS,
    Flow,
    FlowNetwork,
    FullAllocator,
    IncrementalAllocator,
    Link,
    RateAllocator,
    maxmin_rates,
)
from repro.net import flows as flows_mod
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# Strategy / constructor API
# ---------------------------------------------------------------------------

class TestAllocatorAPI:
    def test_registry_names(self):
        assert set(ALLOCATORS) == {"full", "incremental"}

    def test_default_is_incremental(self):
        net = FlowNetwork(Simulator())
        assert isinstance(net.allocator, IncrementalAllocator)
        assert net.allocator.name == "incremental"

    def test_string_selects_strategy(self):
        net = FlowNetwork(Simulator(), allocator="full")
        assert isinstance(net.allocator, FullAllocator)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown allocator"):
            FlowNetwork(Simulator(), allocator="magic")

    def test_instance_passthrough(self):
        alloc = FullAllocator()
        net = FlowNetwork(Simulator(), allocator=alloc)
        assert net.allocator is alloc

    def test_protocol_runtime_checkable(self):
        assert isinstance(FullAllocator(), RateAllocator)
        assert isinstance(IncrementalAllocator(), RateAllocator)

    def test_component_count(self):
        sim = Simulator()
        net = FlowNetwork(sim)
        l1, l2 = Link("l1", 800), Link("l2", 800)
        net.start_flow("a", [l1], 1e6)
        net.start_flow("b", [l2], 1e6)
        assert net.allocator.component_count() == 2
        net.start_flow("c", [l1, l2], 1e6)  # bridges the two
        assert net.allocator.component_count() == 1


# ---------------------------------------------------------------------------
# Randomized equivalence: incremental vs full, no time passing
# ---------------------------------------------------------------------------

flow_spec = st.tuples(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3,
             unique=True),                                   # link indices
    st.floats(min_value=1.0, max_value=1e6),                 # size (bytes)
    st.booleans(),                                           # background
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e4)),  # cap
)

churn_script = st.tuples(
    st.lists(st.floats(min_value=100.0, max_value=1e5),     # capacities B/s
             min_size=5, max_size=5),
    st.lists(flow_spec, min_size=1, max_size=16),
    st.lists(st.integers(min_value=0, max_value=15),        # abort order
             max_size=8, unique=True),
)


def _build(allocator, caps, specs):
    sim = Simulator()
    net = FlowNetwork(sim, allocator=allocator)
    links = [Link(f"l{i}", cap * 8.0) for i, cap in enumerate(caps)]
    flows = []
    for i, (linkidx, size, background, max_rate) in enumerate(specs):
        flows.append(net.start_flow(
            f"f{i}", [links[j] for j in linkidx], size,
            background=background, max_rate=max_rate))
    return sim, net, links, flows


def _assert_rates_match(flows_a, flows_b):
    for fa, fb in zip(flows_a, flows_b):
        assert fa.rate == pytest.approx(fb.rate, rel=1e-9, abs=1e-9), \
            (fa.name, fa.rate, fb.rate)


@settings(max_examples=60, deadline=None)
@given(churn_script)
def test_incremental_matches_full_under_churn(script):
    """Same rates after every start and abort, with no time passing."""
    caps, specs, aborts = script
    _, net_inc, _, flows_inc = _build("incremental", caps, specs)
    _, net_full, _, flows_full = _build("full", caps, specs)
    _assert_rates_match(flows_inc, flows_full)
    for idx in aborts:
        if idx >= len(specs):
            continue
        net_inc.abort_flow(flows_inc[idx])
        net_full.abort_flow(flows_full[idx])
        _assert_rates_match(flows_inc, flows_full)


@settings(max_examples=60, deadline=None)
@given(churn_script)
def test_incremental_matches_maxmin_reference(script):
    """Foreground rates agree with a direct ``maxmin_rates`` evaluation."""
    caps, specs, _ = script
    _, net, _, flows = _build("incremental", caps, specs)
    foreground = [f for f in flows if not f.background and not f.finished]
    reference = maxmin_rates(foreground)
    for f in foreground:
        assert f.rate == pytest.approx(reference[f], rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(churn_script)
def test_incremental_matches_full_to_completion(script):
    """Both allocators deliver every byte and agree on completion times."""
    caps, specs, aborts = script
    sim_i, net_i, _, flows_i = _build("incremental", caps, specs)
    sim_f, net_f, _, flows_f = _build("full", caps, specs)
    for idx in aborts:
        if idx < len(specs):
            net_i.abort_flow(flows_i[idx])
            net_f.abort_flow(flows_f[idx])
    sim_i.run()
    sim_f.run()
    assert net_i.flows_completed == net_f.flows_completed
    assert net_i.flows_aborted == net_f.flows_aborted
    assert net_i.bytes_delivered == pytest.approx(
        net_f.bytes_delivered, rel=1e-9)
    for fi, ff in zip(flows_i, flows_f):
        assert fi.finished == ff.finished
        if fi.finished_at is not None:
            # Epsilon-simultaneous completions may resolve in a different
            # batch across strategies; allow the epsilon/rate slack.
            assert fi.finished_at == pytest.approx(
                ff.finished_at, rel=1e-6, abs=1e-2)


# ---------------------------------------------------------------------------
# O(1) utilisation accounting stays exact across abort/complete
# ---------------------------------------------------------------------------

def _brute_utilisation(net, link):
    used = sum(f.rate for f in net.active if link in f.links)
    return used / link.capacity


@pytest.mark.parametrize("allocator", ["incremental", "full"])
def test_utilisation_tracks_churn(allocator):
    sim = Simulator()
    net = FlowNetwork(sim, allocator=allocator)
    links = [Link(f"l{i}", 8e6) for i in range(3)]  # 1 MB/s each

    def check():
        for link in links:
            assert net.utilisation(link) == pytest.approx(
                _brute_utilisation(net, link), rel=1e-9, abs=1e-12)

    flows = []
    for i in range(12):
        flows.append(net.start_flow(
            f"f{i}", [links[i % 3], links[(i + 1) % 3]],
            2e5 * (1 + i % 4), background=(i % 5 == 0)))
        check()
    net.abort_flow(flows[2])
    check()
    sim.run(until=0.3)           # partial progress
    check()
    net.abort_flow(flows[7])
    check()
    sim.run(until_event=flows[1].done)   # at least one completion
    check()
    sim.run()                    # drain everything
    for link in links:
        assert net.utilisation(link) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("allocator", ["incremental", "full"])
def test_utilisation_no_drift_after_many_cycles(allocator):
    """Per-link used-rate sums must not accumulate float residue."""
    sim = Simulator()
    net = FlowNetwork(sim, allocator=allocator)
    link = Link("l", 8e5)  # 100 kB/s
    for cycle in range(30):
        f1 = net.start_flow(f"a{cycle}", [link], 1e4 / 3)
        f2 = net.start_flow(f"b{cycle}", [link], 1e4 / 7)
        if cycle % 3 == 0:
            net.abort_flow(f1)
        sim.run()
        assert f2.finished
    assert net.utilisation(link) == pytest.approx(0.0, abs=1e-9)
    assert net.active_count == 0
    assert net.allocator.component_count() == 0


def test_recompute_refreshes_rates_after_capacity_change():
    """`recompute()` is the one public entry point for external changes."""
    sim = Simulator()
    net = FlowNetwork(sim)
    link = Link("l", 8e6)
    flow = net.start_flow("f", [link], 1e9)
    assert flow.rate == pytest.approx(1e6)
    link.capacity /= 2          # e.g. a fault injector degrading the link
    net.recompute()
    assert flow.rate == pytest.approx(5e5)
    assert net.utilisation(link) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Bit-exact oracle: maxmin_rates == plain per-flow progressive filling
# ---------------------------------------------------------------------------

def _reference_maxmin(flows):
    """Plain progressive filling: every flow, every link, every round.

    The straightforward implementation :func:`maxmin_rates` replaced, kept
    verbatim as the oracle.  Its per-flow ``rate[f] += increment`` sums and
    per-link headroom updates define the exact floats the indexed version
    must reproduce (the golden traces depend on them to the last ulp).
    """
    if not flows:
        return {}
    rate = {f: 0.0 for f in flows}
    unfrozen = set(flows)
    headroom = {}
    active = {}
    for f in flows:
        for link in f.links:
            headroom.setdefault(link, link.capacity)
            active[link] = active.get(link, 0) + 1

    for _ in range(2 * len(flows) + 2):  # each round freezes >= 1 flow
        if not unfrozen:
            break
        increment = math.inf
        for link, count in active.items():
            if count > 0:
                increment = min(increment, headroom[link] / count)
        for f in unfrozen:
            if f.max_rate is not None:
                increment = min(increment, f.max_rate - rate[f])
        if increment < 0:
            increment = 0.0
        newly_frozen = []
        for f in unfrozen:
            rate[f] += increment
            if f.max_rate is not None and rate[f] >= f.max_rate * (1 - 1e-9):
                newly_frozen.append(f)
        for link in active:
            headroom[link] -= increment * active[link]
        for link, room in headroom.items():
            if room <= link.capacity * 1e-9 and active[link] > 0:
                for f in list(unfrozen):
                    if link in f.links and f not in newly_frozen:
                        newly_frozen.append(f)
        if not newly_frozen:
            break
        for f in newly_frozen:
            if f in unfrozen:
                unfrozen.remove(f)
                for link in f.links:
                    active[link] -= 1
    return rate


def _assert_bit_identical(flows):
    got, want = maxmin_rates(flows), _reference_maxmin(flows)
    assert list(got) == list(flows)
    for f in flows:
        assert got[f] == want[f], (f.name, got[f], want[f])


def _flow(sim, name, links, max_rate=None, background=False):
    return Flow(sim, name, links, 1e6, max_rate, background)


#: A cap is None, an arbitrary float, or exactly a link's fair share
#: (``capacity / k``) so caps and link saturation tie in the same round.
cap_spec = st.one_of(
    st.none(),
    st.floats(min_value=1.0, max_value=1e5),
    st.tuples(st.integers(min_value=0, max_value=4),
              st.integers(min_value=1, max_value=6)),
)

oracle_script = st.tuples(
    st.lists(st.one_of(st.sampled_from([100.0, 300.0, 1000.0, 1e4]),
                       st.floats(min_value=10.0, max_value=1e6)),
             min_size=5, max_size=5),                        # capacities B/s
    st.lists(st.tuples(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1,
                 max_size=3, unique=True),                   # link indices
        cap_spec,
        st.booleans(),                                       # background
    ), min_size=1, max_size=24),
)


def _oracle_flows(script):
    caps, specs = script
    sim = Simulator()
    links = [Link(f"l{i}", cap * 8.0) for i, cap in enumerate(caps)]
    flows = []
    for i, (linkidx, cap, background) in enumerate(specs):
        if isinstance(cap, tuple):
            cap = links[cap[0]].capacity / cap[1]
        flows.append(_flow(sim, f"f{i}", [links[j] for j in linkidx],
                           max_rate=cap, background=background))
    return flows


@settings(max_examples=300, deadline=None)
@given(oracle_script)
def test_maxmin_bit_identical_to_reference(script):
    """Indexed filling reproduces plain progressive filling exactly."""
    _assert_bit_identical(_oracle_flows(script))


@settings(max_examples=100, deadline=None)
@given(oracle_script)
def test_allocate_rates_bit_identical_with_background(script):
    """Both passes of ``allocate_rates`` (foreground, then Nice-style
    background over the residual) match the reference exactly."""
    flows = _oracle_flows(script)
    with mock.patch.object(flows_mod, "maxmin_rates", _reference_maxmin):
        flows_mod.allocate_rates(flows)
    want = [f.rate for f in flows]
    for f in flows:
        f.rate = -1.0
    flows_mod.allocate_rates(flows)
    assert [f.rate for f in flows] == want


class TestMaxminOracleCases:
    def test_cap_equal_to_fair_share_binds_with_link(self):
        """A cap at the link's fair share binds in the round the link
        saturates; both freeze every flow at the same level."""
        sim = Simulator()
        link = Link("l", 300 * 8.0)
        flows = [_flow(sim, "capped", [link], max_rate=100.0),
                 _flow(sim, "a", [link]), _flow(sim, "b", [link])]
        _assert_bit_identical(flows)
        assert [maxmin_rates(flows)[f] for f in flows] == [100.0] * 3

    def test_cap_binds_before_link(self):
        sim = Simulator()
        link = Link("l", 1000 * 8.0)
        flows = [_flow(sim, "capped", [link], max_rate=100.0),
                 _flow(sim, "a", [link]), _flow(sim, "b", [link])]
        _assert_bit_identical(flows)
        rates = maxmin_rates(flows)
        assert rates[flows[0]] == 100.0
        assert rates[flows[1]] == rates[flows[2]] == pytest.approx(450.0)

    def test_cap_and_other_link_saturate_in_same_round(self):
        """One link saturates in the round a cap on a disjoint flow binds."""
        sim = Simulator()
        narrow, wide = Link("narrow", 200 * 8.0), Link("wide", 1e4 * 8.0)
        flows = [_flow(sim, "n1", [narrow]), _flow(sim, "n2", [narrow]),
                 _flow(sim, "capped", [wide], max_rate=100.0),
                 _flow(sim, "w", [wide])]
        _assert_bit_identical(flows)
        rates = maxmin_rates(flows)
        assert [rates[f] for f in flows[:3]] == [100.0] * 3
        assert rates[flows[3]] == pytest.approx(9900.0)

    def test_hub_of_400_flows(self):
        """400 flows over one shared server link plus 100 access links of
        mixed capacity: several rounds, each freezing one access tier."""
        rng = random.Random(13)
        sim = Simulator()
        hub = Link("server", 1e8)
        access = [Link(f"adsl{i}", rng.choice([1e6, 2e6, 4e6, 8e6])
                       * rng.uniform(0.5, 1.5)) for i in range(100)]
        flows = [_flow(sim, f"f{i}", [access[i % 100], hub],
                       max_rate=None if i % 7 else 1e4 * (1 + i % 3))
                 for i in range(400)]
        _assert_bit_identical(flows)
        uncapped = [f for f in flows if f.max_rate is None]
        _assert_bit_identical(uncapped)
