"""Tests for repro.workload.vips: population generation."""

import pytest

from repro.workload.distributions import DipCountModel
from repro.workload.vips import (
    DIP_POOL,
    VIP_POOL,
    VipPopulation,
    generate_population,
    host_address,
    switch_loopback,
)


class TestGeneration:
    def test_population_size(self, tiny_population):
        assert len(tiny_population) == 20

    def test_total_traffic(self, tiny_population):
        assert tiny_population.total_traffic_bps == pytest.approx(10e9)

    def test_vip_addresses_unique_and_in_pool(self, tiny_population):
        addrs = [v.addr for v in tiny_population]
        assert len(set(addrs)) == len(addrs)
        assert all(VIP_POOL.contains(a) for a in addrs)

    def test_dip_addresses_unique_and_in_pool(self, tiny_population):
        addrs = [d.addr for v in tiny_population for d in v.dips]
        assert len(set(addrs)) == len(addrs)
        assert all(DIP_POOL.contains(a) for a in addrs)

    def test_dips_live_on_real_servers(self, tiny_population, tiny_topology):
        for vip in tiny_population:
            for dip in vip.dips:
                assert 0 <= dip.server_id < tiny_topology.params.n_servers
                assert dip.tor == tiny_topology.server_tor(dip.server_id)

    def test_ingress_fractions_sum(self, tiny_population):
        for vip in tiny_population:
            total = vip.internet_fraction + sum(
                f for _, f in vip.ingress_racks
            )
            assert total == pytest.approx(1.0)

    def test_deterministic_in_seed(self, tiny_topology):
        a = generate_population(tiny_topology, 10, 1e9, seed=5)
        b = generate_population(tiny_topology, 10, 1e9, seed=5)
        assert [v.addr for v in a] == [v.addr for v in b]
        assert [v.traffic_bps for v in a] == [v.traffic_bps for v in b]

    def test_different_seeds_differ(self, tiny_topology):
        # Traffic shares come from the (deterministic) skew; the seed
        # drives DIP placement and ingress sampling.
        a = generate_population(tiny_topology, 10, 1e9, seed=1)
        b = generate_population(tiny_topology, 10, 1e9, seed=2)
        assert [v.ingress_racks for v in a] != [v.ingress_racks for v in b]
        assert [d.server_id for v in a for d in v.dips] != [
            d.server_id for v in b for d in v.dips
        ]

    def test_validation(self, tiny_topology):
        with pytest.raises(ValueError):
            generate_population(tiny_topology, 0, 1e9)
        with pytest.raises(ValueError):
            generate_population(tiny_topology, 10, 0.0)


class TestViews:
    def test_by_traffic_desc(self, tiny_population):
        ordered = tiny_population.by_traffic_desc()
        traffic = [v.traffic_bps for v in ordered]
        assert traffic == sorted(traffic, reverse=True)

    def test_by_addr(self, tiny_population):
        vip = tiny_population.vips[3]
        assert tiny_population.by_addr(vip.addr) is vip

    def test_dip_tors_counts(self, tiny_population):
        for vip in tiny_population:
            tors = vip.dip_tors()
            assert sum(c for _, c in tors) == vip.n_dips

    def test_demand_view(self, tiny_population):
        demand = tiny_population.vips[0].demand()
        assert demand.vip_id == tiny_population.vips[0].vip_id
        assert demand.n_dips == tiny_population.vips[0].n_dips

    def test_demand_scaling(self, tiny_population):
        demand = tiny_population.vips[0].demand()
        doubled = demand.scaled(2.0)
        assert doubled.traffic_bps == pytest.approx(demand.traffic_bps * 2)
        with pytest.raises(ValueError):
            demand.scaled(-1.0)

    def test_total_dips(self, tiny_population):
        assert tiny_population.total_dips() == sum(
            v.n_dips for v in tiny_population
        )

    def test_duplicate_addresses_rejected(self, tiny_topology, tiny_population):
        vips = list(tiny_population.vips)
        with pytest.raises(ValueError):
            VipPopulation(tiny_topology, vips + [vips[0]])


class TestMutation:
    """VIP lifecycle on the population itself (the controller's add/
    remove path goes through these)."""

    def _new_vip(self, topology, addr=0x0A0F0042):
        from repro.workload.vips import Dip, Vip

        return Vip(
            vip_id=4242,
            addr=addr,
            dips=(Dip(addr=0x640F0042, server_id=0,
                      tor=topology.server_tor(0)),),
            traffic_bps=1e6,
            ingress_racks=((topology.tors()[0], 0.7),),
            internet_fraction=0.3,
        )

    def test_add(self, tiny_topology, fresh_tiny_population):
        pop = fresh_tiny_population
        vip = self._new_vip(tiny_topology)
        before = len(pop)
        pop.add(vip)
        assert len(pop) == before + 1
        assert vip.addr in {v.addr for v in pop}
        assert pop.by_addr(vip.addr) is vip
        assert vip in list(pop)

    def test_add_duplicate_rejected(self, tiny_topology, fresh_tiny_population):
        pop = fresh_tiny_population
        vip = self._new_vip(tiny_topology, addr=pop.vips[0].addr)
        with pytest.raises(ValueError):
            pop.add(vip)
        assert len(pop) == 20

    def test_remove_returns_the_vip(self, fresh_tiny_population):
        pop = fresh_tiny_population
        vip = pop.vips[3]
        removed = pop.remove(vip.addr)
        assert removed is vip
        assert vip.addr not in {v.addr for v in pop}
        assert len(pop) == 19
        assert vip not in list(pop)

    def test_remove_unknown_rejected(self, fresh_tiny_population):
        with pytest.raises(KeyError):
            fresh_tiny_population.remove(0x7F000001)

    def test_add_after_remove_round_trips(
        self, tiny_topology, fresh_tiny_population
    ):
        pop = fresh_tiny_population
        addr = pop.vips[0].addr
        pop.remove(addr)
        vip = self._new_vip(tiny_topology, addr=addr)
        pop.add(vip)
        assert pop.by_addr(addr) is vip


class TestAddressHelpers:
    def test_switch_loopback_distinct(self):
        assert switch_loopback(0) != switch_loopback(1)

    def test_host_address_distinct(self):
        assert host_address(0) != host_address(1)

    def test_pools_disjoint(self):
        from repro.workload.vips import CLIENT_POOL, HOST_POOL, SMUX_POOL, SWITCH_POOL

        pools = [VIP_POOL, DIP_POOL, HOST_POOL, SMUX_POOL, SWITCH_POOL, CLIENT_POOL]
        for i, a in enumerate(pools):
            for b in pools[i + 1:]:
                assert not a.covers(b) and not b.covers(a)
