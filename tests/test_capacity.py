"""Tests for repro.core.capacity: what-if capacity planning."""

from dataclasses import replace

import pytest

from repro.core.capacity import CapacityReport, binding_resource, find_capacity
from repro.core.assignment import GreedyAssigner
from repro.net.topology import FatTreeParams, SwitchTableSpec, Topology
from repro.workload.distributions import DipCountModel
from repro.workload.vips import generate_population


@pytest.fixture(scope="module")
def world():
    topology = Topology(FatTreeParams(
        n_containers=2, tors_per_container=3,
        aggs_per_container=2, n_cores=2, servers_per_tor=8,
    ))
    population = generate_population(
        topology, n_vips=25, total_traffic_bps=10e9,
        dip_model=DipCountModel(median_large=6.0, max_dips=12),
        seed=23,
    )
    return topology, population


class TestFindCapacity:
    def test_ceiling_above_light_base_load(self, world):
        topology, population = world
        report = find_capacity(topology, population.demands())
        assert report.max_traffic_bps > population.total_traffic_bps
        assert report.coverage_at_max >= 0.99
        assert report.mru_at_max <= 1.0

    def test_ceiling_is_tight(self, world):
        """Scaling meaningfully past the reported ceiling must break the
        coverage target."""
        topology, population = world
        demands = population.demands()
        report = find_capacity(topology, demands, tolerance=0.02)
        factor = report.max_traffic_bps / population.total_traffic_bps
        over = [d.scaled(factor * 1.3) for d in demands]
        assignment = GreedyAssigner(topology).assign(over)
        assert assignment.hmux_traffic_fraction() < 0.99

    def test_binding_resource_named(self, world):
        topology, population = world
        report = find_capacity(topology, population.demands())
        assert any(
            tag in report.binding_resource
            for tag in ("tor-agg", "agg-core", "switch-memory")
        )

    def test_lower_coverage_target_allows_more(self, world):
        topology, population = world
        demands = population.demands()
        strict = find_capacity(topology, demands, coverage_target=0.999)
        loose = find_capacity(topology, demands, coverage_target=0.60)
        assert loose.max_traffic_bps >= strict.max_traffic_bps * 0.95

    def test_str_rendering(self, world):
        topology, population = world
        report = find_capacity(topology, population.demands())
        assert "binding" in str(report)

    def test_validation(self, world):
        topology, _ = world
        with pytest.raises(ValueError):
            find_capacity(topology, [])
        with pytest.raises(ValueError):
            find_capacity(topology, world[1].demands(), coverage_target=0.0)


class TestBindingResource:
    def test_memory_bound_detected(self, world):
        """Force memory to bind: tiny tunnel capacity."""
        from repro.core.assignment import AssignmentConfig

        topology, population = world
        tiny_tunnels = Topology(replace(
            topology.params, tables=SwitchTableSpec(tunnel_table=12),
        ))
        config = AssignmentConfig(stop_on_first_failure=False)
        assignment = GreedyAssigner(tiny_tunnels, config).assign(
            population.demands()
        )
        if float(assignment.memory_utilization.max()) >= float(
            assignment.link_utilization.max()
        ):
            assert binding_resource(assignment).startswith("switch-memory")
        else:
            assert "link" in binding_resource(assignment)

    def test_link_bound_detected(self, world):
        topology, population = world
        demands = [d.scaled(3.0) for d in population.demands()]
        from repro.core.assignment import AssignmentConfig

        assignment = GreedyAssigner(
            topology, AssignmentConfig(stop_on_first_failure=False)
        ).assign(demands)
        resource = binding_resource(assignment)
        assert "link" in resource or resource.startswith("switch-memory")
