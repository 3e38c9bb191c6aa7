"""VIP/DIP population generation over a topology.

Builds the service inventory the Duet controller manages: each VIP with
its DIPs placed on servers (racks), its traffic volume drawn from the
Figure 15 skew, and its ingress split (intra-DC client racks vs Internet
through the core layer).  The :class:`VipDemand` view is what the
assignment algorithm consumes: it only needs volumes, ingress points and
DIP rack locations — never the packet-level details.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.net.addressing import AddressAllocator, Prefix
from repro.net.topology import Topology
from repro.workload.distributions import (
    DipCountModel,
    IngressModel,
    TrafficSkew,
)

#: The address plan: disjoint pools so address classes never collide.
VIP_POOL = Prefix.parse("10.0.0.0/12")
DIP_POOL = Prefix.parse("100.0.0.0/10")
HOST_POOL = Prefix.parse("20.0.0.0/12")
SMUX_POOL = Prefix.parse("30.0.0.0/16")
SWITCH_POOL = Prefix.parse("172.16.0.0/12")
CLIENT_POOL = Prefix.parse("8.0.0.0/12")

#: Aggregate prefixes the SMuxes announce to backstop every VIP (S3.3.1):
#: short enough that any /32 HMux announcement wins by LPM.
SMUX_AGGREGATES = (VIP_POOL,)


def switch_loopback(switch_index: int) -> int:
    """Deterministic loopback address of a switch (encap source IP)."""
    return SWITCH_POOL.network + switch_index


def host_address(server_id: int) -> int:
    """Deterministic native address of a physical server."""
    return HOST_POOL.network + server_id


@dataclass(frozen=True)
class Dip:
    """One service instance: a direct IP on a server in a rack.

    ``weight`` expresses heterogeneous processing power (paper S5.2:
    "When the DIPs for a given VIP have different processing power, we
    can proportionally split the traffic using WCMP").
    """

    addr: int
    server_id: int
    tor: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("DIP weight must be positive")


@dataclass(frozen=True)
class Vip:
    """One load-balanced service endpoint.

    ``port_pools`` optionally splits the DIP set by destination L4 port
    (paper S5.2, Figure 8: "A VIP can have one set of DIPs for the HTTP
    port and another for the FTP port"): each entry maps a port to the
    subset of DIP addresses serving it.  Ports not listed fall through
    to the whole DIP set.
    """

    vip_id: int
    addr: int
    dips: Tuple[Dip, ...]
    traffic_bps: float
    ingress_racks: Tuple[Tuple[int, float], ...]  # (ToR index, fraction)
    internet_fraction: float
    port_pools: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()
    latency_sensitive: bool = False

    def __post_init__(self) -> None:
        dip_addrs = {d.addr for d in self.dips}
        for port, pool in self.port_pools:
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"invalid service port {port}")
            if not pool:
                raise ValueError(f"empty DIP pool for port {port}")
            unknown = set(pool) - dip_addrs
            if unknown:
                raise ValueError(
                    f"port {port} pool references non-DIP addresses"
                )

    @property
    def n_dips(self) -> int:
        return len(self.dips)

    def dip_tors(self) -> Tuple[Tuple[int, int], ...]:
        """(ToR, number of DIPs there), the granularity assignment needs."""
        counts: Dict[int, int] = {}
        for dip in self.dips:
            counts[dip.tor] = counts.get(dip.tor, 0) + 1
        return tuple(sorted(counts.items()))

    def demand(self) -> "VipDemand":
        return VipDemand(
            vip_id=self.vip_id,
            addr=self.addr,
            traffic_bps=self.traffic_bps,
            n_dips=self.n_dips,
            ingress_racks=self.ingress_racks,
            internet_fraction=self.internet_fraction,
            dip_tors=self.dip_tors(),
            latency_sensitive=self.latency_sensitive,
        )


@dataclass(frozen=True)
class VipDemand:
    """The assignment algorithm's view of one VIP (paper Table 1 inputs)."""

    vip_id: int
    addr: int
    traffic_bps: float
    n_dips: int
    ingress_racks: Tuple[Tuple[int, float], ...]
    internet_fraction: float
    dip_tors: Tuple[Tuple[int, int], ...]
    latency_sensitive: bool = False

    @property
    def diffuse_intra_fraction(self) -> float:
        """Intra-DC traffic not pinned to explicit client racks: sourced
        uniformly from every rack (big services are consumed DC-wide).
        Zero when the VIP has explicit ingress racks."""
        residual = 1.0 - self.internet_fraction - sum(
            fraction for _, fraction in self.ingress_racks
        )
        return max(0.0, residual)

    def scaled(self, factor: float) -> "VipDemand":
        """The same demand with traffic multiplied by ``factor`` (used by
        the trace generator to apply epoch-to-epoch traffic dynamics)."""
        if factor < 0:
            raise ValueError("traffic scale factor must be non-negative")
        return VipDemand(
            vip_id=self.vip_id,
            addr=self.addr,
            traffic_bps=self.traffic_bps * factor,
            n_dips=self.n_dips,
            ingress_racks=self.ingress_racks,
            internet_fraction=self.internet_fraction,
            dip_tors=self.dip_tors,
            latency_sensitive=self.latency_sensitive,
        )


class VipPopulation:
    """The full set of VIPs over a topology."""

    def __init__(self, topology: Topology, vips: Sequence[Vip]) -> None:
        self.topology = topology
        self.vips: List[Vip] = list(vips)
        if len({v.addr for v in self.vips}) != len(self.vips):
            raise ValueError("duplicate VIP addresses in population")

    def __len__(self) -> int:
        return len(self.vips)

    def __iter__(self) -> Iterator[Vip]:
        return iter(self.vips)

    @property
    def total_traffic_bps(self) -> float:
        return sum(v.traffic_bps for v in self.vips)

    def by_traffic_desc(self) -> List[Vip]:
        """VIPs sorted by traffic, heaviest first (assignment order, S4.1)."""
        return sorted(self.vips, key=lambda v: (-v.traffic_bps, v.vip_id))

    def demands(self) -> List[VipDemand]:
        return [v.demand() for v in self.vips]

    def total_dips(self) -> int:
        return sum(v.n_dips for v in self.vips)


def generate_population(
    topology: Topology,
    n_vips: int,
    total_traffic_bps: float,
    *,
    skew: TrafficSkew = TrafficSkew(),
    dip_model: DipCountModel = DipCountModel(),
    ingress: IngressModel = IngressModel(),
    heterogeneous_fraction: float = 0.0,
    latency_sensitive_fraction: float = 0.0,
    seed: int = 0,
) -> VipPopulation:
    """Generate a population with Figure 15 characteristics.

    Deterministic in ``seed``.  DIPs are placed on servers sampled
    uniformly over racks (a server may host several DIPs — virtualized
    clusters); client racks are sampled per VIP with random weights.
    ``heterogeneous_fraction`` of the VIPs get mixed-generation server
    pools: half of their DIPs carry WCMP weight 2.0 (S5.2);
    ``latency_sensitive_fraction`` marks VIPs as latency-critical (stock
    trading / memory caches, S1), used by the "latency-first" assignment
    order of S9.
    """
    if not 0.0 <= heterogeneous_fraction <= 1.0:
        raise ValueError("heterogeneous_fraction must be in [0, 1]")
    if not 0.0 <= latency_sensitive_fraction <= 1.0:
        raise ValueError("latency_sensitive_fraction must be in [0, 1]")
    if n_vips < 1:
        raise ValueError("need at least one VIP")
    if total_traffic_bps <= 0:
        raise ValueError("total traffic must be positive")
    rng = random.Random(seed)
    # Separate stream so optional features never perturb the base
    # population sampling (placements stay identical across versions).
    sensitive_rng = random.Random(seed ^ 0x5E45)
    vip_alloc = AddressAllocator(VIP_POOL)
    dip_alloc = AddressAllocator(DIP_POOL)
    shares = skew.shares(n_vips, total_traffic_bps)
    dip_counts = dip_model.counts(n_vips, rng)
    tors = topology.tors()

    vips: List[Vip] = []
    for vip_id in range(n_vips):
        traffic = float(shares[vip_id]) * total_traffic_bps
        heterogeneous = rng.random() < heterogeneous_fraction
        n_dips = max(
            dip_counts[vip_id], dip_model.floor_for_traffic(traffic)
        )
        dips = _place_dips(
            topology, n_dips, dip_alloc, rng,
            heterogeneous=heterogeneous,
        )
        if ingress.is_diffuse(traffic):
            # DC-wide clients: no explicit racks; the intra fraction is
            # sourced uniformly from every rack (see VipDemand).
            ingress_racks = ()
        else:
            ingress_racks = _sample_ingress_racks(
                tors,
                ingress.racks_for(traffic, len(tors)),
                ingress.intra_dc_fraction,
                rng,
            )
        vips.append(Vip(
            vip_id=vip_id,
            addr=vip_alloc.allocate(),
            dips=tuple(dips),
            traffic_bps=traffic,
            ingress_racks=ingress_racks,
            internet_fraction=1.0 - ingress.intra_dc_fraction,
            latency_sensitive=(
                sensitive_rng.random() < latency_sensitive_fraction
            ),
        ))
    return VipPopulation(topology, vips)


def _place_dips(
    topology: Topology,
    count: int,
    dip_alloc: AddressAllocator,
    rng: random.Random,
    *,
    heterogeneous: bool = False,
) -> List[Dip]:
    """Place ``count`` DIPs on random servers (rack-uniform sampling)."""
    dips: List[Dip] = []
    n_servers = topology.params.n_servers
    for index in range(count):
        server = rng.randrange(n_servers)
        weight = 2.0 if heterogeneous and index % 2 == 0 else 1.0
        dips.append(Dip(
            addr=dip_alloc.allocate(),
            server_id=server,
            tor=topology.server_tor(server),
            weight=weight,
        ))
    return dips


def _sample_ingress_racks(
    tors: Sequence[int],
    n_racks: int,
    intra_fraction: float,
    rng: random.Random,
) -> Tuple[Tuple[int, float], ...]:
    """Sample client racks and split the intra-DC fraction among them."""
    if intra_fraction <= 0:
        return ()
    racks = rng.sample(list(tors), n_racks)
    weights = [rng.random() + 0.1 for _ in racks]
    total = sum(weights)
    return tuple(
        (rack, intra_fraction * weight / total)
        for rack, weight in sorted(zip(racks, weights))
    )
