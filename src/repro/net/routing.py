"""ECMP routing over the datacenter topology.

Duet's VIP assignment algorithm (S4.1) needs, for every (VIP, candidate
switch) pair, the extra utilization each link would see: traffic flows from
its ingress point to the candidate HMux (VIP traffic) and from the HMux to
the DIPs' racks (encapsulated DIP traffic), split over equal-cost shortest
paths by ECMP at every hop.

:class:`EcmpRouter` computes, for any ordered switch pair (src, dst), the
fraction of one unit of traffic that crosses each directional link — the
standard "flow on the shortest-path DAG with equal splitting" model.  The
router honours failed switches and links, which is how the failure
experiments (Figure 19) reroute through traffic.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

import numpy as np

from repro.net.topology import Topology

UNREACHABLE = -1


class RoutingError(Exception):
    """Base class for routing failures."""


class UnreachableError(RoutingError):
    """No path exists between the requested endpoints."""

    def __init__(self, src: int, dst: int) -> None:
        super().__init__(f"no path from switch {src} to switch {dst}")
        self.src = src
        self.dst = dst


class EcmpRouter:
    """Shortest-path ECMP routing with optional failed elements.

    The router is immutable with respect to the failure set: build a new
    router per network state (construction is cheap; BFS trees and path
    fractions are computed lazily and cached).
    """

    def __init__(
        self,
        topology: Topology,
        failed_switches: Iterable[int] = (),
        failed_links: Iterable[int] = (),
    ) -> None:
        self.topology = topology
        self.failed_switches: FrozenSet[int] = frozenset(failed_switches)
        self.failed_links: FrozenSet[int] = frozenset(failed_links)
        self._adjacency, self._incoming = self._build_adjacency()
        self._dist_cache: Dict[int, np.ndarray] = {}
        self._fraction_cache: Dict[Tuple[int, int], Dict[int, float]] = {}

    def _build_adjacency(
        self,
    ) -> Tuple[List[List[Tuple[int, int]]], List[List[int]]]:
        """Per-switch list of (neighbor, link_index) over live outgoing
        links, and per-switch list of the switches with a live link
        *into* it — the two differ once one direction of a cable is cut."""
        topo = self.topology
        adjacency: List[List[Tuple[int, int]]] = [
            [] for _ in range(topo.n_switches)
        ]
        incoming: List[List[int]] = [[] for _ in range(topo.n_switches)]
        for link in topo.links:
            if link.index in self.failed_links:
                continue
            if link.src in self.failed_switches:
                continue
            if link.dst in self.failed_switches:
                continue
            adjacency[link.src].append((link.dst, link.index))
            incoming[link.dst].append(link.src)
        return adjacency, incoming

    # -- reachability ------------------------------------------------------

    def distances_to(self, dst: int) -> np.ndarray:
        """Hop distance from every switch to ``dst`` (UNREACHABLE if none).

        BFS from ``dst`` against the direction of travel: a switch is
        one hop further than ``dst``'s frontier when it has a live link
        *into* it.  (Walking outgoing links instead is the same thing
        only while both directions of every cable fail together.)
        """
        cached = self._dist_cache.get(dst)
        if cached is not None:
            return cached
        n = self.topology.n_switches
        dist = np.full(n, UNREACHABLE, dtype=np.int32)
        if dst not in self.failed_switches:
            dist[dst] = 0
            frontier = [dst]
            depth = 0
            while frontier:
                depth += 1
                next_frontier: List[int] = []
                for node in frontier:
                    for neighbor in self._incoming[node]:
                        if dist[neighbor] == UNREACHABLE:
                            dist[neighbor] = depth
                            next_frontier.append(neighbor)
                frontier = next_frontier
        self._dist_cache[dst] = dist
        return dist

    def is_reachable(self, src: int, dst: int) -> bool:
        if src in self.failed_switches or dst in self.failed_switches:
            return False
        return bool(self.distances_to(dst)[src] != UNREACHABLE)

    # -- ECMP path fractions ------------------------------------------------

    def path_fractions(self, src: int, dst: int) -> Dict[int, float]:
        """Fraction of unit traffic from src to dst on each directed link.

        Returns a mapping link_index -> fraction in (0, 1].  Equal-cost
        splitting: at every node on the shortest-path DAG, incoming mass is
        divided evenly among next hops that lie on a shortest path.  For
        ``src == dst`` the result is empty (traffic never leaves the
        switch).  Raises :class:`UnreachableError` when no path exists.
        """
        key = (src, dst)
        cached = self._fraction_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            if src in self.failed_switches:
                raise UnreachableError(src, dst)
            self._fraction_cache[key] = {}
            return {}
        dist = self.distances_to(dst)
        if dist[src] == UNREACHABLE or src in self.failed_switches:
            raise UnreachableError(src, dst)

        fractions: Dict[int, float] = {}
        mass: Dict[int, float] = {src: 1.0}
        # Process nodes in decreasing distance-to-dst; every DAG edge goes
        # from distance d to d-1, so a node's mass is complete before it is
        # expanded.
        for depth in range(int(dist[src]), 0, -1):
            at_depth = [node for node in mass if dist[node] == depth]
            for node in at_depth:
                node_mass = mass.pop(node)
                next_hops = [
                    (neighbor, link)
                    for neighbor, link in self._adjacency[node]
                    if dist[neighbor] == depth - 1
                ]
                share = node_mass / len(next_hops)
                for neighbor, link in next_hops:
                    fractions[link] = fractions.get(link, 0.0) + share
                    mass[neighbor] = mass.get(neighbor, 0.0) + share
        self._fraction_cache[key] = fractions
        return fractions
