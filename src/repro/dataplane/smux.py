"""SMux: the Ananta-style software Mux (paper S2.1), Duet's backstop.

Each SMux stores the VIP-to-DIP mapping for *every* VIP in the DC, selects
a DIP with the shared hash function (so connections survive VIP migration
between HMux and SMux), encapsulates with IP-in-IP, and — unlike the
stateless HMux — keeps **per-connection state**, which is what lets SMuxes
preserve existing connections across DIP additions (S5.2).

Capacity and latency are the SMux's defining limitations (S2.2): ~300K
packets/sec per instance before the CPU saturates, and 200µs-1ms of added
latency.  Those are modelled by :mod:`repro.sim.smux_model`; this module
is the functional data plane with the constants attached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataplane.conntable import ConnectionTable
from repro.dataplane.hashing import ResilientHashTable, five_tuple_hash
from repro.dataplane.hmux import default_wcmp_slots, layout_mutator
from repro.dataplane.packet import (
    DEFAULT_PACKET_BYTES,
    FiveTuple,
    Packet,
    pps_to_bps,
)
from repro.net.addressing import format_ip

#: Production SMux saturation point (paper S2.2): the CPU pegs at 300K pps.
SMUX_CAPACITY_PPS = 300_000

#: The same capacity in Gbps at 1,500-byte packets ("which translates to
#: 3.6 Gbps for 1,500-byte packets").
SMUX_CAPACITY_BPS = pps_to_bps(SMUX_CAPACITY_PPS, DEFAULT_PACKET_BYTES)

#: The paper's what-if capacity where the NIC (10G), not the CPU, limits.
SMUX_CAPACITY_10G_BPS = 10e9


class SMuxError(Exception):
    """Invalid SMux operation."""


@dataclass
class SMuxCounters:
    packets: int = 0
    bytes: int = 0
    drops_no_vip: int = 0
    connections: int = 0
    # Per-VIP breakdown, mirroring HMuxCounters: backstop traffic must be
    # visible to the per-VIP metering that feeds the assignment engine.
    per_vip_packets: Dict[int, int] = field(default_factory=dict)

    def count(self, vip: int, size_bytes: int) -> None:
        self.packets += 1
        self.bytes += size_bytes
        self.per_vip_packets[vip] = self.per_vip_packets.get(vip, 0) + 1


@functools.lru_cache(maxsize=4096)
def _slot_layout(
    dips: Tuple[int, ...],
    weights: Optional[Tuple[float, ...]],
    seed: int,
    n_slots: Optional[int],
) -> np.ndarray:
    """The slot -> DIP layout of a pool, read-only.  A pure function of
    its arguments, so the SMuxes of a fleet — pushed the same pools, and
    hashing alike (S3.3.1) — share one build per pool."""
    if n_slots is None:
        n_slots = default_wcmp_slots(len(dips), weights)
    table = ResilientHashTable(
        list(range(len(dips))), n_slots=n_slots, seed=seed, weights=weights,
    )
    layout = np.array([dips[m] for m in table.slots()], np.int64)
    layout.flags.writeable = False
    return layout


@dataclass
class _VipMapping:
    """One VIP's DIP set with the exact slot layout an HMux would build.

    Using :class:`ResilientHashTable` here is what makes the two planes
    agree packet-for-packet: same members, same slot count, same layout,
    same hash (S3.3.1).
    """

    dips: List[int]
    #: int64 array, element ``s`` the DIP of hash slot ``s``.  A mapping is
    #: rebuilt whole by every ``set_vip``, so this is flattened once here
    #: and the batch engine only concatenates these arrays.
    slot_dips: np.ndarray

    @classmethod
    def build(
        cls,
        dips: List[int],
        weights: Optional[List[float]],
        seed: int,
        n_slots: Optional[int] = None,
    ) -> "_VipMapping":
        return cls(dips=dips, slot_dips=_slot_layout(
            tuple(dips), None if weights is None else tuple(weights), seed,
            n_slots,
        ))

    def select(self, flow_hash: int) -> int:
        return self.slot_dips.item(flow_hash % len(self.slot_dips))


class SMux:
    """One software Mux instance.

    The connection table maps a live flow to its DIP so that membership
    changes never remap established connections — Ananta semantics
    ("SMuxes maintain detailed connection state to ensure that existing
    connections continue to go to the right DIPs", S5.2).  It is one
    columnar :class:`~repro.dataplane.conntable.ConnectionTable`, probed
    a flow at a time here and a batch at a time by
    :meth:`lookup_or_pin`.
    """

    def __init__(
        self,
        smux_id: int,
        smux_ip: int,
        hash_seed: int = 0,
        capacity_pps: float = SMUX_CAPACITY_PPS,
    ) -> None:
        self.smux_id = smux_id
        self.smux_ip = smux_ip
        self.hash_seed = hash_seed
        self.capacity_pps = capacity_pps
        self.counters = SMuxCounters()
        self._vips: Dict[int, _VipMapping] = {}
        self._port_vips: Dict[Tuple[int, int], _VipMapping] = {}
        self._connections = ConnectionTable()
        self._layout_version = 0
        self._conn_version = 0

    @property
    def layout_version(self) -> int:
        """Monotonic counter bumped by every VIP-map change (set/remove,
        port pools included).  The batch engine keys its cached slot
        layouts on this."""
        return self._layout_version

    @property
    def conn_version(self) -> int:
        """Monotonic counter bumped whenever the connection table
        changes (new pin, map-change cleanup, idle expiry)."""
        return self._conn_version

    # -- VIP map management (pushed by the controller) ---------------------------

    @layout_mutator
    def set_vip(
        self,
        vip: int,
        dips: Sequence[int],
        weights: Optional[Sequence[float]] = None,
        *,
        n_slots: Optional[int] = None,
    ) -> None:
        """Install or update a VIP's DIP set (full replacement).

        ``n_slots`` must match the width of the HMux ECMP group for this
        VIP when one exists (the controller keeps them in sync) so both
        planes map flows identically.  Existing connections keep their
        pinned DIP as long as it is still in the new set; connections to
        withdrawn DIPs are dropped, like the paper's DIP-failure
        semantics.
        """
        if not dips:
            raise SMuxError(f"VIP {format_ip(vip)} needs at least one DIP")
        if weights is not None and len(weights) != len(dips):
            raise SMuxError("weights must match DIPs 1:1")
        self._vips[vip] = _VipMapping.build(
            list(dips),
            list(weights) if weights is not None else None,
            self.hash_seed,
            n_slots=n_slots,
        )
        self._evict_connections(vip, survivors=dips)

    @layout_mutator
    def set_vip_port(
        self,
        vip: int,
        port: int,
        dips: Sequence[int],
        weights: Optional[Sequence[float]] = None,
        *,
        n_slots: Optional[int] = None,
    ) -> None:
        """Port-based mapping (S5.2, Figure 8): one DIP pool per service
        port, matched before the VIP-wide mapping."""
        if not dips:
            raise SMuxError(
                f"VIP {format_ip(vip)}:{port} needs at least one DIP"
            )
        if weights is not None and len(weights) != len(dips):
            raise SMuxError("weights must match DIPs 1:1")
        self._port_vips[(vip, port)] = _VipMapping.build(
            list(dips),
            list(weights) if weights is not None else None,
            self.hash_seed,
            n_slots=n_slots,
        )
        self._evict_connections(vip, port, survivors=dips)

    @layout_mutator
    def remove_vip_port(self, vip: int, port: int) -> None:
        if (vip, port) not in self._port_vips:
            raise SMuxError(f"VIP {format_ip(vip)}:{port} not installed")
        del self._port_vips[(vip, port)]
        self._evict_connections(vip, port)

    @layout_mutator
    def remove_vip(self, vip: int) -> None:
        if vip not in self._vips:
            raise SMuxError(f"VIP {format_ip(vip)} not installed")
        del self._vips[vip]
        for key in [k for k in self._port_vips if k[0] == vip]:
            del self._port_vips[key]
        self._evict_connections(vip)

    def _evict_connections(
        self,
        vip: int,
        port: Optional[int] = None,
        survivors: Collection[int] = (),
    ) -> None:
        """Drop the connections pinned to ``vip`` (only those of its
        ``port`` pool when given) whose DIP is not among ``survivors`` —
        the one sweep every VIP-map change runs."""
        if self._connections.evict(vip, port, survivors):
            self._conn_version += 1

    def has_vip(self, vip: int) -> bool:
        return vip in self._vips

    def vips(self) -> List[int]:
        return sorted(self._vips)

    def dips_of(self, vip: int, port: Optional[int] = None) -> List[int]:
        """A VIP's DIP set, or its ``port`` pool's."""
        mapping = (
            self._vips.get(vip) if port is None
            else self._port_vips.get((vip, port))
        )
        if mapping is None:
            where = format_ip(vip) if port is None else f"{format_ip(vip)}:{port}"
            raise SMuxError(f"VIP {where} not installed")
        return list(mapping.dips)

    def port_vips(self) -> List[Tuple[int, int]]:
        """(vip, port) keys of the installed port-specific pools."""
        return sorted(self._port_vips)

    def slot_dips(self, vip: int) -> List[int]:
        """Per-hash-slot DIP of a VIP: element ``s`` is the DIP a fresh
        (unpinned) flow hashing to slot ``s`` selects.  This is the flat
        layout the batch engine caches."""
        mapping = self._vips.get(vip)
        if mapping is None:
            raise SMuxError(f"VIP {format_ip(vip)} not installed")
        return mapping.slot_dips.tolist()

    def port_slot_dips(self, vip: int, port: int) -> List[int]:
        """Per-slot DIP of a port-specific pool."""
        mapping = self._port_vips.get((vip, port))
        if mapping is None:
            raise SMuxError(f"VIP {format_ip(vip)}:{port} not installed")
        return mapping.slot_dips.tolist()

    def slot_layouts(self) -> Tuple[
        Tuple[List[int], List[np.ndarray]],
        Tuple[List[Tuple[int, int]], List[np.ndarray]],
    ]:
        """Every pool's cached slot -> DIP array as ``(keys, arrays)``
        in step: the VIP-wide pools keyed by VIP, then the port pools
        keyed by ``(vip, port)``.  What :meth:`slot_dips` /
        :meth:`port_slot_dips` return one list at a time, without the
        copies; the arrays are the live ones, not to be written."""
        return (
            (list(self._vips),
             [m.slot_dips for m in self._vips.values()]),
            (list(self._port_vips),
             [m.slot_dips for m in self._port_vips.values()]),
        )

    # -- data plane ----------------------------------------------------------------

    def process(self, packet: Packet) -> Optional[Packet]:
        """Load-balance one packet: select (or recall) the DIP and
        encapsulate.  Returns None when the destination is not a VIP we
        know (counted as a drop)."""
        flow = packet.flow
        vip = flow.dst_ip
        # Port-specific pools match first, mirroring the HMux's ACL
        # precedence (Figure 8).
        mapping = self._port_vips.get((vip, flow.dst_port))
        if mapping is None:
            mapping = self._vips.get(vip)
        if mapping is None:
            self.counters.drops_no_vip += 1
            return None
        flow_hash = five_tuple_hash(flow, self.hash_seed)
        dip = self._connections.get(flow_hash, flow)
        if dip is None:
            dip = mapping.select(flow_hash)
            self._connections.pin(flow_hash, flow, dip)
            self._conn_version += 1
            self.counters.connections += 1
        self.counters.count(vip, packet.size_bytes)
        return packet.encapsulate(self.smux_ip, dip)

    def lookup_or_pin(
        self, hashes: np.ndarray, fields: np.ndarray, choice: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The connection-table step of :meth:`process` for a whole
        batch: per row the pinned DIP, or ``choice`` (the DIP its pool's
        layout selects) after pinning the flow to it; negative ``choice``
        rows matched no pool and are skipped.  ``hashes`` are the rows'
        ``five_tuple_hash`` under this SMux's seed, ``fields`` their
        ``(5, n)`` uint64 five-tuples.  Also returns each row's pin from
        before the call (-1 where none)."""
        held = len(self._connections)
        dip, prior = self._connections.lookup_or_pin(hashes, fields, choice)
        pinned = len(self._connections) - held
        self._conn_version += pinned
        self.counters.connections += pinned
        return dip, prior

    def connection_count(self) -> int:
        return len(self._connections)

    def connections(self) -> List[FiveTuple]:
        """The flows currently pinned in the connection table."""
        return [flow for flow, _dip in self._connections.items()]

    def pinned_dip(self, flow: FiveTuple) -> Optional[int]:
        """The DIP a live connection is pinned to, if any."""
        return self._connections.get(
            five_tuple_hash(flow, self.hash_seed), flow,
        )

    def expire_connection(self, flow: FiveTuple) -> bool:
        """Remove one connection-table entry (idle timeout)."""
        expired = self._connections.pop(
            five_tuple_hash(flow, self.hash_seed), flow,
        ) is not None
        if expired:
            self._conn_version += 1
        return expired
