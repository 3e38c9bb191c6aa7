"""Tests for repro.net.failures: scenario generation and side effects."""

import random

import pytest

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
        router = scenario.router(tiny_topology)
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

    def test_transient_fault_model_seed_forms_agree(self):
        from repro.net.failures import TransientFaultModel

        seeded = TransientFaultModel(seed=11, fail_prob=0.5)
        explicit = TransientFaultModel(seed=random.Random(11), fail_prob=0.5)
        outcomes = [
            (seeded.attempt("add", 0, 1), explicit.attempt("add", 0, 1))
            for _ in range(50)
        ]
        assert all(a == b for a, b in outcomes)
        assert seeded.injected == explicit.injected

    def test_transient_fault_model_rejects_module_rng(self):
        from repro.net.failures import TransientFaultModel

        with pytest.raises(TypeError):
            TransientFaultModel(seed=random)
