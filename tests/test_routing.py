"""Tests for repro.net.routing: ECMP distances and path fractions."""

import math

import numpy as np
import pytest

from repro.net.routing import (
    EcmpRouter,
    UNREACHABLE,
    UnreachableError,
)
from repro.net.topology import FatTreeParams, SwitchKind, Topology


@pytest.fixture(scope="module")
def topo():
    return Topology(FatTreeParams(
        n_containers=3, tors_per_container=3,
        aggs_per_container=2, n_cores=4,
    ))


@pytest.fixture(scope="module")
def router(topo):
    return EcmpRouter(topo)


def outflow(topo, fractions, node):
    return sum(
        f for link, f in fractions.items() if topo.links[link].src == node
    )


def inflow(topo, fractions, node):
    return sum(
        f for link, f in fractions.items() if topo.links[link].dst == node
    )


class TestDistances:
    def test_distance_to_self(self, router, topo):
        dist = router.distances_to(0)
        assert dist[0] == 0

    def test_same_container_tor_distance(self, router, topo):
        tors = topo.tors(0)
        assert router.distances_to(tors[1])[tors[0]] == 2  # via an agg

    def test_cross_container_tor_distance(self, router, topo):
        a = topo.tors(0)[0]
        b = topo.tors(1)[0]
        assert router.distances_to(b)[a] == 4  # tor-agg-core-agg-tor

    def test_tor_to_core_distance(self, router, topo):
        assert router.distances_to(topo.cores()[0])[topo.tors(0)[0]] == 2

    def test_reachability(self, router, topo):
        assert router.is_reachable(0, topo.n_switches - 1)

    def test_failed_destination_unreachable(self, topo):
        r = EcmpRouter(topo, failed_switches=[0])
        assert not r.is_reachable(1, 0)
        assert not r.is_reachable(0, 1)
        with pytest.raises(UnreachableError):
            r.path_fractions(1, 0)


class TestPathFractions:
    def test_self_path_empty(self, router):
        assert router.path_fractions(3, 3) == {}

    def test_conservation_at_source(self, router, topo):
        src, dst = topo.tors(0)[0], topo.tors(2)[1]
        fractions = router.path_fractions(src, dst)
        assert outflow(topo, fractions, src) == pytest.approx(1.0)

    def test_conservation_at_destination(self, router, topo):
        src, dst = topo.tors(0)[0], topo.tors(2)[1]
        fractions = router.path_fractions(src, dst)
        assert inflow(topo, fractions, dst) == pytest.approx(1.0)

    def test_conservation_at_transit(self, router, topo):
        src, dst = topo.tors(0)[0], topo.tors(2)[1]
        fractions = router.path_fractions(src, dst)
        transit = set()
        for link, _ in fractions.items():
            transit.add(topo.links[link].src)
            transit.add(topo.links[link].dst)
        transit -= {src, dst}
        for node in transit:
            assert inflow(topo, fractions, node) == pytest.approx(
                outflow(topo, fractions, node)
            )

    def test_equal_split_across_aggs(self, router, topo):
        src, dst = topo.tors(0)[0], topo.tors(0)[1]
        fractions = router.path_fractions(src, dst)
        # Two aggs, each carrying half up and half down.
        assert len(fractions) == 4
        assert all(f == pytest.approx(0.5) for f in fractions.values())

    def test_only_shortest_path_links(self, router, topo):
        # Same-container traffic never touches cores.
        src, dst = topo.tors(0)[0], topo.tors(0)[2]
        fractions = router.path_fractions(src, dst)
        cores = set(topo.cores())
        for link in fractions:
            assert topo.links[link].src not in cores
            assert topo.links[link].dst not in cores

    def test_fractions_positive(self, router, topo):
        fractions = router.path_fractions(topo.tors(0)[0], topo.cores()[1])
        assert all(f > 0 for f in fractions.values())

    def test_unreachable_raises(self, topo):
        # Kill both aggs of container 0: its ToRs are isolated.
        r = EcmpRouter(topo, failed_switches=topo.aggs(0))
        with pytest.raises(UnreachableError):
            r.path_fractions(topo.tors(0)[0], topo.tors(1)[0])

    def test_failed_link_shifts_traffic(self, topo):
        src, dst = topo.tors(0)[0], topo.tors(0)[1]
        agg0 = topo.aggs(0)[0]
        dead = topo.link_between(src, agg0).index
        r = EcmpRouter(topo, failed_links=[dead])
        fractions = r.path_fractions(src, dst)
        # All traffic now goes through the other agg.
        assert outflow(topo, fractions, src) == pytest.approx(1.0)
        assert dead not in fractions

    def test_vector_matches_dict(self, router, topo):
        src, dst = topo.tors(0)[0], topo.tors(1)[0]
        vec = router.path_fraction_vector(src, dst)
        fractions = router.path_fractions(src, dst)
        assert vec.sum() == pytest.approx(sum(fractions.values()))
        for link, f in fractions.items():
            assert vec[link] == pytest.approx(f)

    def test_caching_returns_same_object(self, router, topo):
        a = router.path_fractions(0, 5)
        b = router.path_fractions(0, 5)
        assert a is b


def hops_from(topo, src, cut):
    """Reference: forward BFS from ``src`` over the links not in ``cut``."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for node in frontier:
            for link in topo.links:
                if (
                    link.src == node and link.index not in cut
                    and link.dst not in dist
                ):
                    dist[link.dst] = dist[node] + 1
                    nxt.append(link.dst)
        frontier = nxt
    return dist


class TestSingleDirectionCuts:
    """``cut_link(i, bidirectional=False)`` is a journaled controller op:
    the router must route (or refuse) correctly when only one direction
    of a cable is down.  The distance BFS used to walk *outgoing* links
    from the destination, which is the reverse distance only for duplex
    cuts; a one-way cut then left ``path_fractions`` with an empty
    next-hop list (ZeroDivisionError)."""

    def cuts(self, topo):
        for link in topo.links:
            yield {link.index}
            yield {link.index, topo.link_between(link.dst, link.src).index}

    def test_distances_are_directed_hop_counts(self, tiny_topology):
        topo = tiny_topology
        for cut in self.cuts(topo):
            router = EcmpRouter(topo, failed_links=cut)
            forward = [hops_from(topo, s, cut) for s in range(topo.n_switches)]
            for dst in range(topo.n_switches):
                dist = router.distances_to(dst)
                for src in range(topo.n_switches):
                    assert dist[src] == forward[src].get(dst, UNREACHABLE), (
                        cut, src, dst,
                    )

    def test_mass_is_conserved_and_unreachable_means_unreachable(
        self, tiny_topology,
    ):
        topo = tiny_topology
        # Every one-way cut, plus a ToR whose uplinks are all cut in the
        # sending direction only: it can be reached but cannot send.
        mute = topo.tors(0)[0]
        cuts = [{link.index} for link in topo.links]
        cuts.append({link.index for link in topo.links if link.src == mute})
        refused = set()
        for cut in cuts:
            router = EcmpRouter(topo, failed_links=cut)
            for src in range(topo.n_switches):
                reachable = hops_from(topo, src, cut)
                for dst in range(topo.n_switches):
                    if src == dst:
                        continue
                    if dst not in reachable:
                        refused.add(src)
                        with pytest.raises(UnreachableError):
                            router.path_fractions(src, dst)
                        continue
                    fractions = router.path_fractions(src, dst)
                    assert not cut & set(fractions)
                    assert outflow(topo, fractions, src) == pytest.approx(1.0)
                    assert inflow(topo, fractions, dst) == pytest.approx(1.0)
        assert refused == {mute}
