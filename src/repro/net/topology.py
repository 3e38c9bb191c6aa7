"""Datacenter topology model: a container-based FatTree, as in Duet S8.1.

The paper's simulated network is "a FatTree topology connecting 50k servers
connected to 1600 ToRs located in 40 containers.  Each container has 40 ToRs
and 4 Agg switches, and the 40 containers are connected with 40 Core
switches", with 10 Gbps ToR-Agg links and 40 Gbps Agg-Core links.  Switch
table sizes are 16K host-table entries, 4K ECMP entries and 512 tunneling
entries.

This module builds that topology (at any scale) as an explicit object
graph:  :class:`Switch` nodes, directional :class:`Link` edges, and a
:class:`Topology` container that exposes the node/link inventory used by
routing (:mod:`repro.net.routing`), the VIP assignment algorithm
(:mod:`repro.core.assignment`) and the failure models
(:mod:`repro.net.failures`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

GBPS = 1_000_000_000

#: Default switch-table capacities from the paper (S3.1, S8.1).
DEFAULT_HOST_TABLE_SIZE = 16 * 1024
DEFAULT_ECMP_TABLE_SIZE = 4 * 1024
DEFAULT_TUNNEL_TABLE_SIZE = 512


class SwitchKind(enum.Enum):
    """Layer of a switch in the FatTree hierarchy."""

    TOR = "tor"
    AGG = "agg"
    CORE = "core"


@dataclass(frozen=True)
class SwitchTableSpec:
    """Capacities of the three switch tables Duet re-purposes (S3.1)."""

    host_table: int = DEFAULT_HOST_TABLE_SIZE
    ecmp_table: int = DEFAULT_ECMP_TABLE_SIZE
    tunnel_table: int = DEFAULT_TUNNEL_TABLE_SIZE

    @property
    def dip_capacity(self) -> int:
        """Max DIPs one switch can hold: min of free ECMP and tunnel entries
        (paper S3.1: 'the number of DIPs an individual HMux can support is
        the minimum of the number of free entries in the ECMP and the
        tunneling tables')."""
        return min(self.ecmp_table, self.tunnel_table)


@dataclass(frozen=True)
class Switch:
    """A switch in the topology.

    ``index`` is dense (0..n_switches-1) and doubles as the row index in
    the numpy utilization vectors used by the assignment algorithm.
    ``container`` is None for core switches.
    """

    index: int
    name: str
    kind: SwitchKind
    container: Optional[int]
    tables: SwitchTableSpec = field(default=SwitchTableSpec(), repr=False)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Link:
    """A *directional* link between two switches.

    Utilization in the paper's Figure 19 is per-link and traffic is highly
    asymmetric (VIP traffic up to the HMux, DIP traffic down to the racks),
    so each physical cable appears as two Link objects, one per direction.
    ``index`` is dense and indexes the link-load vectors.
    """

    index: int
    src: int  # switch index
    dst: int  # switch index
    capacity: float  # bits per second

    def __str__(self) -> str:
        return f"link{self.index}({self.src}->{self.dst})"


class TopologyError(ValueError):
    """Raised for invalid topology parameters."""


@dataclass(frozen=True)
class FatTreeParams:
    """Parameters of the container FatTree.

    The defaults build a small instance for tests; :func:`paper_scale`
    returns the paper's production-sized parameters.
    """

    n_containers: int = 4
    tors_per_container: int = 4
    aggs_per_container: int = 2
    n_cores: int = 4
    servers_per_tor: int = 32
    tor_agg_gbps: float = 10.0
    agg_core_gbps: float = 40.0
    tables: SwitchTableSpec = SwitchTableSpec()

    def __post_init__(self) -> None:
        if self.n_containers < 1 or self.tors_per_container < 1:
            raise TopologyError("need at least one container with one ToR")
        if self.aggs_per_container < 1 or self.n_cores < 1:
            raise TopologyError("need at least one Agg and one Core switch")
        if self.n_cores % self.aggs_per_container != 0:
            raise TopologyError(
                "n_cores must be a multiple of aggs_per_container so the "
                "Agg-Core striping divides evenly "
                f"(got {self.n_cores} cores, {self.aggs_per_container} aggs)"
            )

    @property
    def cores_per_agg(self) -> int:
        return self.n_cores // self.aggs_per_container

    @property
    def n_tors(self) -> int:
        return self.n_containers * self.tors_per_container

    @property
    def n_aggs(self) -> int:
        return self.n_containers * self.aggs_per_container

    @property
    def n_switches(self) -> int:
        return self.n_tors + self.n_aggs + self.n_cores

    @property
    def n_servers(self) -> int:
        return self.n_tors * self.servers_per_tor


def paper_scale() -> FatTreeParams:
    """The paper's simulated production topology (S8.1)."""
    return FatTreeParams(
        n_containers=40,
        tors_per_container=40,
        aggs_per_container=4,
        n_cores=40,
        servers_per_tor=32,  # ~50k servers / 1600 ToRs
        tor_agg_gbps=10.0,
        agg_core_gbps=40.0,
    )


class Topology:
    """A built container FatTree.

    Switches are indexed ToRs first, then Aggs, then Cores (the assignment
    algorithm exploits this grouping for container decomposition).  Links
    are directional; :attr:`links` is the dense list.
    """

    def __init__(self, params: FatTreeParams) -> None:
        self.params = params
        self.switches: List[Switch] = []
        self.links: List[Link] = []
        self._link_by_pair: Dict[Tuple[int, int], Link] = {}
        #: Per switch, the directed links whose ``dst`` it is.
        self.links_into: List[List[Link]] = []
        self._tor_of_container: Dict[int, List[int]] = {}
        self._agg_of_container: Dict[int, List[int]] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _add_switch(self, name: str, kind: SwitchKind,
                    container: Optional[int]) -> Switch:
        switch = Switch(
            index=len(self.switches),
            name=name,
            kind=kind,
            container=container,
            tables=self.params.tables,
        )
        self.switches.append(switch)
        self.links_into.append([])
        return switch

    def _add_duplex_link(self, a: int, b: int, gbps: float) -> None:
        for src, dst in ((a, b), (b, a)):
            link = Link(
                index=len(self.links),
                src=src,
                dst=dst,
                capacity=gbps * GBPS,
            )
            self.links.append(link)
            self._link_by_pair[(src, dst)] = link
            self.links_into[dst].append(link)

    def _build(self) -> None:
        p = self.params
        for c in range(p.n_containers):
            tors = [
                self._add_switch(f"tor-{c}-{t}", SwitchKind.TOR, c)
                for t in range(p.tors_per_container)
            ]
            self._tor_of_container[c] = [s.index for s in tors]
        for c in range(p.n_containers):
            aggs = [
                self._add_switch(f"agg-{c}-{a}", SwitchKind.AGG, c)
                for a in range(p.aggs_per_container)
            ]
            self._agg_of_container[c] = [s.index for s in aggs]
        cores = [
            self._add_switch(f"core-{k}", SwitchKind.CORE, None)
            for k in range(p.n_cores)
        ]

        # Full bipartite ToR <-> Agg inside each container.
        for c in range(p.n_containers):
            for tor in self._tor_of_container[c]:
                for agg in self._agg_of_container[c]:
                    self._add_duplex_link(tor, agg, p.tor_agg_gbps)

        # Striped Agg <-> Core: agg j of every container connects to the
        # j-th group of cores_per_agg cores, so each core reaches every
        # container exactly once (standard FatTree striping).
        for c in range(p.n_containers):
            for j, agg in enumerate(self._agg_of_container[c]):
                lo = j * p.cores_per_agg
                for core in cores[lo:lo + p.cores_per_agg]:
                    self._add_duplex_link(agg, core.index, p.agg_core_gbps)

    # -- inventory ---------------------------------------------------------

    @property
    def n_switches(self) -> int:
        return len(self.switches)

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def n_containers(self) -> int:
        return self.params.n_containers

    def switch(self, index: int) -> Switch:
        return self.switches[index]

    def link_between(self, src: int, dst: int) -> Link:
        """The directed link src->dst; KeyError if not adjacent."""
        return self._link_by_pair[(src, dst)]

    def tors(self, container: Optional[int] = None) -> List[int]:
        """ToR switch indices, optionally restricted to one container."""
        if container is None:
            return [
                s.index for s in self.switches if s.kind is SwitchKind.TOR
            ]
        return list(self._tor_of_container[container])

    def aggs(self, container: Optional[int] = None) -> List[int]:
        """Agg switch indices, optionally restricted to one container."""
        if container is None:
            return [
                s.index for s in self.switches if s.kind is SwitchKind.AGG
            ]
        return list(self._agg_of_container[container])

    def cores(self) -> List[int]:
        """Core switch indices."""
        return [s.index for s in self.switches if s.kind is SwitchKind.CORE]

    def container_of(self, switch_index: int) -> Optional[int]:
        return self.switches[switch_index].container

    def container_switches(self, container: int) -> List[int]:
        """All switches (ToR + Agg) inside one container."""
        return self._tor_of_container[container] + self._agg_of_container[container]

    def link_capacities(self) -> List[float]:
        """Per-link capacity in bps, indexed by link index."""
        return [link.capacity for link in self.links]

    def server_tor(self, server_id: int) -> int:
        """The ToR switch index hosting server ``server_id``.

        Servers are numbered 0..n_servers-1, packed rack by rack in ToR
        index order.
        """
        if not 0 <= server_id < self.params.n_servers:
            raise TopologyError(f"server id out of range: {server_id}")
        return server_id // self.params.servers_per_tor

    def __repr__(self) -> str:
        p = self.params
        return (
            f"Topology(containers={p.n_containers}, "
            f"tors={p.n_tors}, aggs={p.n_aggs}, cores={p.n_cores}, "
            f"links={self.n_links})"
        )
