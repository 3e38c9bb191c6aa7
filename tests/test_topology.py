"""Tests for repro.net.topology: FatTree construction and inventory."""

from collections import Counter

import pytest

from repro.net.topology import (
    FatTreeParams,
    SwitchKind,
    SwitchTableSpec,
    Topology,
    TopologyError,
    paper_scale,
)


def neighbors(topology, switch):
    return [link.dst for link in topology.links if link.src == switch]


class TestParams:
    def test_counts(self, tiny_params):
        assert tiny_params.n_tors == 6
        assert tiny_params.n_aggs == 4
        assert tiny_params.n_switches == 12
        assert tiny_params.n_servers == 48

    def test_cores_per_agg(self, tiny_params):
        assert tiny_params.cores_per_agg == 1

    def test_rejects_indivisible_striping(self):
        with pytest.raises(TopologyError):
            FatTreeParams(aggs_per_container=3, n_cores=4)

    def test_rejects_empty(self):
        with pytest.raises(TopologyError):
            FatTreeParams(n_containers=0)

    def test_paper_scale_dimensions(self):
        p = paper_scale()
        assert p.n_tors == 1600
        assert p.n_containers == 40
        assert p.n_cores == 40
        assert abs(p.n_servers - 50_000) / 50_000 < 0.05

    def test_testbed_scale_dimensions(self):
        # The paper's hardware testbed (S7): 2 containers of 2 Agg +
        # 2 ToR switches joined by 2 Cores, 60 servers over 4 racks.
        p = FatTreeParams(
            n_containers=2, tors_per_container=2, aggs_per_container=2,
            n_cores=2, servers_per_tor=15,
        )
        assert p.n_switches == 10  # 4 ToR + 4 Agg + 2 Core (Figure 10)
        assert p.n_servers == 60


class TestTableSpec:
    def test_defaults_match_paper(self):
        spec = SwitchTableSpec()
        assert spec.host_table == 16 * 1024
        assert spec.ecmp_table == 4 * 1024
        assert spec.tunnel_table == 512

    def test_dip_capacity_is_min(self):
        assert SwitchTableSpec().dip_capacity == 512
        assert SwitchTableSpec(ecmp_table=100, tunnel_table=512).dip_capacity == 100


class TestTopologyBuild:
    def test_switch_count(self, tiny_topology):
        assert tiny_topology.n_switches == 12

    def test_switch_ordering_tors_first(self, tiny_topology):
        kinds = [s.kind for s in tiny_topology.switches]
        assert kinds[:6] == [SwitchKind.TOR] * 6
        assert kinds[6:10] == [SwitchKind.AGG] * 4
        assert kinds[10:] == [SwitchKind.CORE] * 2

    def test_link_count(self, tiny_topology):
        # Per container: 3 ToR x 2 Agg duplex = 12 directed links; Agg-Core:
        # each agg to 1 core = 2 per container x 2 directed.
        expected = 2 * (3 * 2 * 2) + 2 * (2 * 1 * 2)
        assert tiny_topology.n_links == expected

    def test_links_are_directional_pairs(self, tiny_topology):
        for link in tiny_topology.links:
            reverse = tiny_topology.link_between(link.dst, link.src)
            assert reverse.capacity == link.capacity

    def test_link_capacities(self, tiny_topology):
        tor = tiny_topology.tors()[0]
        agg = tiny_topology.aggs(0)[0]
        assert tiny_topology.link_between(tor, agg).capacity == 10e9
        core = tiny_topology.cores()[0]
        # Find an agg adjacent to this core.
        neighbor_aggs = neighbors(tiny_topology, core)
        assert tiny_topology.link_between(neighbor_aggs[0], core).capacity == 40e9

    def test_container_membership(self, tiny_topology):
        for c in range(2):
            for s in tiny_topology.container_switches(c):
                assert tiny_topology.container_of(s) == c

    def test_cores_have_no_container(self, tiny_topology):
        for core in tiny_topology.cores():
            assert tiny_topology.container_of(core) is None

    def test_tor_agg_full_bipartite(self, tiny_topology):
        for c in range(2):
            for tor in tiny_topology.tors(c):
                assert set(neighbors(tiny_topology, tor)) == set(
                    tiny_topology.aggs(c)
                )

    def test_core_striping_reaches_every_container(self, tiny_topology):
        for core in tiny_topology.cores():
            containers = {
                tiny_topology.container_of(n)
                for n in neighbors(tiny_topology, core)
            }
            assert containers == {0, 1}

    def test_agg_connects_to_cores_per_agg(self):
        topo = Topology(FatTreeParams(
            n_containers=2, tors_per_container=2,
            aggs_per_container=2, n_cores=4,
        ))
        for agg in topo.aggs():
            cores = [
                n for n in neighbors(topo, agg)
                if topo.switch(n).kind is SwitchKind.CORE
            ]
            assert len(cores) == topo.params.cores_per_agg == 2

    def test_switch_by_name(self, tiny_topology):
        by_name = {switch.name: switch for switch in tiny_topology.switches}
        assert len(by_name) == tiny_topology.n_switches  # names are unique
        assert by_name["core-0"].kind is SwitchKind.CORE

    def test_container_links_touch_members(self, tiny_topology):
        # A link leaving a container lands on a core: containers only
        # reach each other through the core layer.
        members = set(tiny_topology.container_switches(0))
        for link in tiny_topology.links:
            if link.src in members and link.dst not in members:
                assert tiny_topology.switch(link.dst).kind is SwitchKind.CORE


class TestServerMapping:
    def test_server_tor_packing(self, tiny_topology):
        per = tiny_topology.params.servers_per_tor
        assert tiny_topology.server_tor(0) == 0
        assert tiny_topology.server_tor(per - 1) == 0
        assert tiny_topology.server_tor(per) == 1

    def test_server_out_of_range(self, tiny_topology):
        with pytest.raises(TopologyError):
            tiny_topology.server_tor(tiny_topology.params.n_servers)

    def test_rack_servers_roundtrip(self, tiny_topology):
        servers = range(tiny_topology.params.n_servers)
        racks = Counter(tiny_topology.server_tor(s) for s in servers)
        per = tiny_topology.params.servers_per_tor
        assert racks == {tor: per for tor in tiny_topology.tors()}

    def test_rack_servers_rejects_non_tor(self, tiny_topology):
        for server in range(tiny_topology.params.n_servers):
            tor = tiny_topology.server_tor(server)
            assert tiny_topology.switch(tor).kind is SwitchKind.TOR

    def test_every_server_has_a_rack(self, tiny_topology):
        racks = {
            tiny_topology.server_tor(s)
            for s in range(tiny_topology.params.n_servers)
        }
        assert racks == set(tiny_topology.tors())
