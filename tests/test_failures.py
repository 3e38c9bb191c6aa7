"""Tests for repro.net.failures: scenario generation and side effects."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.failures import (
    FailureScenario,
    container_failure,
    isolated_switches,
    random_container_failure,
    random_switch_failures,
    switch_failures,
)
from repro.core.assignment import AssignmentConfig
from repro.core.intent import ControllerIntent
from repro.net.routing import EcmpRouter
from repro.net.topology import SwitchKind


def cut_links(topology, links, bidirectional=True):
    """The failed links after cutting ``links`` the controller's way."""
    intent = ControllerIntent(topology, AssignmentConfig())
    for index in links:
        intent.cut_link(index, bidirectional)
    return frozenset(intent.failed_links)


class TestScenarios:
    def test_none_is_normal(self):
        scenario = FailureScenario.none()
        assert not scenario.failed_switches and not scenario.failed_links

    def test_container_failure_members(self, tiny_topology):
        scenario = container_failure(tiny_topology, 0)
        assert scenario.failed_switches == frozenset(
            tiny_topology.container_switches(0)
        )
        assert scenario.failed_container == 0

    def test_container_out_of_range(self, tiny_topology):
        with pytest.raises(ValueError):
            container_failure(tiny_topology, 99)

    def test_switch_failures_validate_indices(self, tiny_topology):
        with pytest.raises(ValueError):
            switch_failures(tiny_topology, [999])

    def test_random_switch_failures_count(self, tiny_topology):
        rng = random.Random(1)
        scenario = random_switch_failures(tiny_topology, 3, rng)
        assert len(scenario.failed_switches) == 3

    def test_random_switch_failures_deterministic(self, tiny_topology):
        a = random_switch_failures(tiny_topology, 3, random.Random(5))
        b = random_switch_failures(tiny_topology, 3, random.Random(5))
        assert a.failed_switches == b.failed_switches

    def test_cannot_fail_more_than_exist(self, tiny_topology):
        with pytest.raises(ValueError):
            random_switch_failures(
                tiny_topology, tiny_topology.n_switches + 1, random.Random(0)
            )

    def test_random_container_failure(self, tiny_topology):
        scenario = random_container_failure(tiny_topology, random.Random(2))
        assert scenario.failed_container in (0, 1)

    def test_link_failure_bidirectional_by_default(self, tiny_topology):
        link = tiny_topology.links[0]
        reverse = tiny_topology.link_between(link.dst, link.src)
        assert cut_links(tiny_topology, [link.index]) == {
            link.index, reverse.index,
        }

    def test_link_failure_unidirectional(self, tiny_topology):
        link = tiny_topology.links[0]
        failed = cut_links(tiny_topology, [link.index], bidirectional=False)
        assert failed == frozenset([link.index])


class TestSideEffects:
    def test_dead_tors(self, tiny_topology):
        scenario = container_failure(tiny_topology, 0)
        assert scenario.dead_tors(tiny_topology) == set(tiny_topology.tors(0))

    def test_dead_servers(self, tiny_topology):
        tor = tiny_topology.tors(0)[0]
        scenario = switch_failures(tiny_topology, [tor])
        assert scenario.dead_tors(tiny_topology) == {tor}

    def test_agg_failure_kills_no_servers(self, tiny_topology):
        agg = tiny_topology.aggs(0)[0]
        scenario = switch_failures(tiny_topology, [agg])
        assert scenario.dead_tors(tiny_topology) == set()

    def test_router_excludes_failed(self, tiny_topology):
        tor = tiny_topology.tors(0)[0]
        scenario = switch_failures(tiny_topology, [tor])
        router = EcmpRouter(tiny_topology, scenario.failed_switches)
        assert not router.is_reachable(tor, tiny_topology.cores()[0])


class TestIsolation:
    def test_no_isolation_normally(self, tiny_topology):
        assert isolated_switches(tiny_topology, FailureScenario.none()) == set()

    def test_tor_isolated_by_losing_all_aggs(self, tiny_topology):
        scenario = switch_failures(tiny_topology, tiny_topology.aggs(0))
        isolated = isolated_switches(tiny_topology, scenario)
        assert set(tiny_topology.tors(0)) <= isolated

    def test_tor_isolated_by_link_cuts(self, tiny_topology):
        tor = tiny_topology.tors(0)[0]
        cuts = [
            tiny_topology.link_between(tor, agg).index
            for agg in tiny_topology.aggs(0)
        ]
        scenario = FailureScenario(
            "cuts", failed_links=cut_links(tiny_topology, cuts),
        )
        assert tor in isolated_switches(tiny_topology, scenario)


def isolated_oracle(topology, scenario):
    """Every live switch from which no live core passes the router's
    ``is_reachable``; nothing at all when every core is down."""
    failed = scenario.failed_switches
    cores = [c for c in topology.cores() if c not in failed]
    if not cores:
        return set()
    router = EcmpRouter(topology, failed, scenario.failed_links)
    return {
        s.index for s in topology.switches
        if s.index not in failed
        and not any(router.is_reachable(s.index, core) for core in cores)
    }


class TestIsolationDifferential:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_router_reachability(self, tiny_topology, data):
        """Random failed switches and directed links (so one-way cuts),
        sometimes with every core down, against the router's per-pair
        reachability."""
        switches = range(tiny_topology.n_switches)
        failed = set(data.draw(st.lists(st.sampled_from(switches))))
        if data.draw(st.booleans()):
            failed |= set(tiny_topology.cores())
        links = data.draw(st.lists(
            st.sampled_from(range(tiny_topology.n_links)),
            max_size=tiny_topology.n_links,
        ))
        scenario = FailureScenario(
            "drawn", failed_switches=frozenset(failed),
            failed_links=frozenset(links),
        )
        assert isolated_switches(tiny_topology, scenario) == isolated_oracle(
            tiny_topology, scenario,
        )

    @pytest.mark.parametrize("upward", [True, False])
    def test_one_way_cut_isolates_only_upward(self, tiny_topology, upward):
        """A ToR whose links *to* its Aggs are cut cannot reach a core;
        one whose links *from* its Aggs are cut still can."""
        tor = tiny_topology.tors(0)[0]
        cuts = frozenset(
            (tiny_topology.link_between(tor, agg) if upward
             else tiny_topology.link_between(agg, tor)).index
            for agg in tiny_topology.aggs(0)
        )
        scenario = FailureScenario("one-way", failed_links=cuts)
        isolated = isolated_switches(tiny_topology, scenario)
        assert isolated == isolated_oracle(tiny_topology, scenario)
        assert isolated == ({tor} if upward else set())


class TestRngPlumbing:
    """Every random helper takes an explicit seed-or-generator: shared
    module-global RNG state would break chaos replay."""

    def test_as_rng_passes_generators_through(self):
        from repro.net.failures import as_rng

        rng = random.Random(3)
        assert as_rng(rng) is rng

    def test_as_rng_seeds_from_int(self):
        from repro.net.failures import as_rng

        assert as_rng(42).random() == random.Random(42).random()

    @pytest.mark.parametrize("bad", [None, 1.5, "7", True, random])
    def test_as_rng_rejects_non_seeds(self, bad):
        from repro.net.failures import as_rng

        # ``random`` (the module) duck-types as a Random instance but is
        # global state; True is an int but almost certainly a bug.
        with pytest.raises(TypeError, match="chaos replay"):
            as_rng(bad)

    def test_scenario_helpers_accept_int_seeds(self, tiny_topology):
        a = random_switch_failures(tiny_topology, 3, 5)
        b = random_switch_failures(tiny_topology, 3, random.Random(5))
        assert a.failed_switches == b.failed_switches
        assert (
            random_container_failure(tiny_topology, 2).failed_container
            == random_container_failure(
                tiny_topology, random.Random(2)
            ).failed_container
        )
