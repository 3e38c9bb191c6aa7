"""HMux: the hardware Mux embedded in a commodity switch (paper S3.1).

The HMux links the three switch tables (:mod:`repro.dataplane.tables`)
exactly as Figure 2 shows: a VIP packet matches the host forwarding table,
which points at an ECMP group; the five-tuple hash selects an entry, which
points into the tunneling table; the packet is IP-in-IP encapsulated
toward that entry's address and forwarded.  Because all of this happens in
the forwarding pipeline, an HMux processes packets at line rate with
microsecond latency — capacity and latency are modelled in
:mod:`repro.sim`, not here.

This module also implements the S5.2 extensions:

* **TIP indirection** for VIPs with more than a tunnel-table's worth of
  DIPs (decap + re-encap at a second switch, Figure 7),
* **port-based load balancing** via ACL rules (Figure 8),
* **WCMP** weights for heterogeneous DIPs,
* **virtualized clusters**: tunnel entries hold host IPs (possibly
  repeated, Figure 6) and the host agent picks the VM.

DIP *addition* to a live VIP is intentionally unsupported here: resilient
hashing only protects removals, so the Duet controller must bounce the VIP
through SMux to add a DIP (S5.2).  :meth:`HMux.add_dip` raises to keep
that invariant honest.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataplane.hashing import ResilientHashTable
from repro.dataplane.packet import Packet
from repro.dataplane.tables import (
    AclRule,
    AclTable,
    EcmpTable,
    HostForwardingTable,
    TableEntryError,
    TunnelingTable,
)
from repro.net.addressing import format_ip
from repro.net.topology import SwitchTableSpec


class HMuxError(Exception):
    """Invalid HMux programming operation."""


class UnsupportedOperation(HMuxError):
    """Operation the hardware cannot do (the controller must work around
    it, e.g. DIP addition via the SMux bounce)."""


def default_wcmp_slots(
    n_targets: int, weights: Optional[Sequence[float]]
) -> int:
    """The default ECMP-group width: one entry per target, or — with
    WCMP weights — enough entries to express the integer weight ratio.
    HMux and SMux share this default so their slot layouts agree."""
    if weights is None:
        return n_targets
    return max(n_targets, sum(max(1, round(w)) for w in weights))


def layout_mutator(method):
    """Marks a programming op of a mux (:class:`HMux` here,
    :class:`~repro.dataplane.smux.SMux` likewise): the one path by which
    ``layout_version`` moves, once per call that returns.  A public
    method that changes what the pipeline would do and is not wrapped is
    caught by ``tests/test_batch_properties.py``."""

    @functools.wraps(method)
    def programmed(self, *args, **kwargs):
        result = method(self, *args, **kwargs)
        self._layout_version += 1
        return result

    return programmed


class HMuxAction(enum.Enum):
    """Outcome of running a packet through the HMux pipeline."""

    ENCAPSULATED = "encapsulated"      # VIP matched, packet tunneled to a DIP
    REENCAPSULATED = "reencapsulated"  # TIP matched: decap + encap (Figure 7)
    NO_MATCH = "no_match"              # not our VIP: normal forwarding


@dataclass(frozen=True)
class HMuxResult:
    action: HMuxAction
    packet: Packet
    selected_ip: Optional[int] = None  # encap target when (re)encapsulated


@dataclass
class _VipState:
    """Bookkeeping for one VIP (or TIP) programmed on this HMux."""

    vip: int
    encap_ips: List[int]            # by tunnel slot order
    tunnel_base: int
    group_id: int
    hash_table: ResilientHashTable  # members are tunnel indices
    is_tip: bool = False
    port: Optional[int] = None      # set for port-based (ACL) entries

    @property
    def n_tunnel_entries(self) -> int:
        return len(self.encap_ips)


@dataclass
class HMuxCounters:
    """Data plane counters, used by tests and the metering pipeline."""

    packets: int = 0
    bytes: int = 0
    no_match: int = 0
    per_vip_packets: Dict[int, int] = field(default_factory=dict)

    def count(self, vip: int, size_bytes: int) -> None:
        self.packets += 1
        self.bytes += size_bytes
        self.per_vip_packets[vip] = self.per_vip_packets.get(vip, 0) + 1


class HMux:
    """The load-balancing data plane of one switch."""

    def __init__(
        self,
        switch_ip: int,
        tables: SwitchTableSpec = SwitchTableSpec(),
        hash_seed: int = 0,
        host_table_reserved: int = 0,
    ) -> None:
        self.switch_ip = switch_ip
        self.hash_seed = hash_seed
        self.host_table = HostForwardingTable(
            tables.host_table, reserved=host_table_reserved
        )
        self.ecmp_table = EcmpTable(tables.ecmp_table)
        self.tunnel_table = TunnelingTable(tables.tunnel_table)
        self.acl_table = AclTable()
        self.counters = HMuxCounters()
        #: Packets counted by earlier lives of this switch, folded in by
        #: :meth:`reset` — the telemetry's fleet-cumulative forwarded
        #: count reads it, so a wipe loses no packet from that count.
        self.wiped_packets = 0
        self._tables_spec = tables
        self._host_table_reserved = host_table_reserved
        self._vips: Dict[int, _VipState] = {}
        self._port_vips: Dict[Tuple[int, int], _VipState] = {}
        self._evolved_vips: set = set()
        self._layout_version = 0

    @property
    def layout_version(self) -> int:
        """Monotonic counter bumped by every programming operation that
        changes what the forwarding pipeline would do (VIP add/remove,
        port-rule add/remove, resilient DIP removal, reset).  The batch
        engine (:mod:`repro.dataplane.batch`) keys its per-VIP layout
        caches on this: unchanged version == identical forwarding."""
        return self._layout_version

    @layout_mutator
    def reset(self) -> None:
        """Power-cycle the switch: every table entry and counter is gone.

        Switch ASIC state does not survive a crash, so the agent calls
        this on failure — a recovered switch must come back *empty* and be
        re-programmed from the controller's records (S5.1)."""
        self.host_table = HostForwardingTable(
            self._tables_spec.host_table, reserved=self._host_table_reserved
        )
        self.ecmp_table = EcmpTable(self._tables_spec.ecmp_table)
        self.tunnel_table = TunnelingTable(self._tables_spec.tunnel_table)
        self.acl_table = AclTable()
        self.wiped_packets += self.counters.packets
        self.counters = HMuxCounters()
        self._vips.clear()
        self._port_vips.clear()
        self._evolved_vips.clear()

    # -- programming -----------------------------------------------------------

    @layout_mutator
    def program_vip(
        self,
        vip: int,
        encap_ips: Sequence[int],
        weights: Optional[Sequence[float]] = None,
        *,
        is_tip: bool = False,
        n_slots: Optional[int] = None,
    ) -> None:
        """Install a VIP with its encapsulation targets.

        ``encap_ips`` are DIPs in the simple case, host IPs for virtualized
        clusters (repeat an HIP once per VM it hosts, Figure 6), or TIPs
        for large-fanout VIPs (Figure 7).  ``weights`` enables WCMP.
        ``n_slots`` sets the ECMP group width (defaults to one entry per
        encap target; pass more for finer WCMP ratios).
        """
        if vip in self._vips:
            raise HMuxError(f"VIP {format_ip(vip)} already programmed")
        if not encap_ips:
            raise HMuxError(f"VIP {format_ip(vip)} needs at least one target")
        slots = n_slots if n_slots is not None else default_wcmp_slots(
            len(encap_ips), weights
        )
        if slots < len(encap_ips):
            raise HMuxError("n_slots smaller than the number of targets")
        # Order matters: reserve tunnel entries, then ECMP width, then the
        # host route, unwinding on failure so a rejected VIP leaves no
        # residue (the assignment algorithm probes capacity this way).
        tunnel_base = self.tunnel_table.allocate_block(list(encap_ips))
        try:
            group = self.ecmp_table.create_group(tunnel_base, slots)
        except Exception:
            self.tunnel_table.free_block(tunnel_base, len(encap_ips))
            raise
        try:
            self.host_table.install(vip, group.group_id)
        except Exception:
            self.ecmp_table.destroy_group(group.group_id)
            self.tunnel_table.free_block(tunnel_base, len(encap_ips))
            raise
        members = list(range(tunnel_base, tunnel_base + len(encap_ips)))
        hash_table = ResilientHashTable(
            members, n_slots=slots, seed=self.hash_seed,
            weights=list(weights) if weights is not None else None,
        )
        self._vips[vip] = _VipState(
            vip=vip,
            encap_ips=list(encap_ips),
            tunnel_base=tunnel_base,
            group_id=group.group_id,
            hash_table=hash_table,
            is_tip=is_tip,
        )
        self._evolved_vips.discard(vip)

    @layout_mutator
    def program_vip_port(
        self,
        vip: int,
        port: int,
        encap_ips: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        """Port-based load balancing (S5.2): one DIP set per service port,
        installed as an ACL rule instead of a host route."""
        key = (vip, port)
        if key in self._port_vips:
            raise HMuxError(
                f"VIP {format_ip(vip)}:{port} already programmed"
            )
        if not encap_ips:
            raise HMuxError("port-based VIP needs at least one target")
        tunnel_base = self.tunnel_table.allocate_block(list(encap_ips))
        try:
            group = self.ecmp_table.create_group(tunnel_base, len(encap_ips))
        except Exception:
            self.tunnel_table.free_block(tunnel_base, len(encap_ips))
            raise
        try:
            self.acl_table.install(AclRule(vip, port, group.group_id))
        except Exception:
            self.ecmp_table.destroy_group(group.group_id)
            self.tunnel_table.free_block(tunnel_base, len(encap_ips))
            raise
        members = list(range(tunnel_base, tunnel_base + len(encap_ips)))
        self._port_vips[key] = _VipState(
            vip=vip,
            encap_ips=list(encap_ips),
            tunnel_base=tunnel_base,
            group_id=group.group_id,
            hash_table=ResilientHashTable(
                members, n_slots=len(encap_ips), seed=self.hash_seed,
                weights=list(weights) if weights is not None else None,
            ),
            port=port,
        )

    @layout_mutator
    def remove_vip(self, vip: int) -> None:
        """Uninstall a VIP, freeing all three tables' entries."""
        state = self._vips.pop(vip, None)
        if state is None:
            raise HMuxError(f"VIP {format_ip(vip)} not programmed")
        self._evolved_vips.discard(vip)
        self._teardown(state, from_acl=False)

    @layout_mutator
    def remove_vip_port(self, vip: int, port: int) -> None:
        state = self._port_vips.pop((vip, port), None)
        if state is None:
            raise HMuxError(f"VIP {format_ip(vip)}:{port} not programmed")
        self._teardown(state, from_acl=True)

    def _teardown(self, state: _VipState, from_acl: bool) -> None:
        if from_acl:
            assert state.port is not None
            self.acl_table.remove(state.vip, state.port)
        else:
            self.host_table.remove(state.vip)
        self.ecmp_table.destroy_group(state.group_id)
        # Free whichever tunnel slots are still allocated (removals may
        # have freed some mid-block already).
        for offset in range(state.n_tunnel_entries):
            index = state.tunnel_base + offset
            if index in state.hash_table.members:
                self.tunnel_table.free_block(index, 1)

    @layout_mutator
    def remove_dip(
        self, vip: int, encap_ip: int, port: Optional[int] = None,
    ) -> int:
        """Remove one target from a live VIP — from its ``port`` pool's
        ECMP group when given — using resilient hashing: only flows that
        hashed to the removed target are remapped (S5.1).  Returns the
        number of hash slots rewritten."""
        state = self._require_vip(vip, port)
        victim = self._find_tunnel_index(state, encap_ip)
        rewritten = state.hash_table.remove_member(victim)
        self.tunnel_table.free_block(victim, 1)
        self._evolved_vips.add(vip)
        return rewritten

    def add_dip(self, vip: int, encap_ip: int) -> None:
        """The hardware cannot add a DIP without remapping live flows —
        "Resilient hashing only ensures correct mapping in case of DIP
        removal - not DIP addition" (S5.2).  The controller must bounce
        the VIP through SMux instead (DuetController.add_dip does)."""
        raise UnsupportedOperation(
            "DIP addition on a live HMux VIP would remap existing "
            "connections; withdraw the VIP to SMux, add the DIP, and "
            "re-program the HMux (paper S5.2)"
        )

    # -- data plane -------------------------------------------------------------

    def process(self, packet: Packet) -> HMuxResult:
        """Run one packet through the pipeline."""
        # TIP handling (Figure 7): an encapsulated packet whose outer
        # destination is a TIP assigned here is decapsulated and
        # re-encapsulated toward a DIP from the TIP's table.
        if packet.is_encapsulated:
            state = self._vips.get(packet.routable_dst)
            if state is not None and state.is_tip:
                inner = packet.decapsulate()
                target = self._select(state, inner)
                out = inner.encapsulate(self.switch_ip, target)
                self.counters.count(state.vip, packet.size_bytes)
                return HMuxResult(HMuxAction.REENCAPSULATED, out, target)
            self.counters.no_match += 1
            return HMuxResult(HMuxAction.NO_MATCH, packet)

        # ACL rules match before the host table (Figure 8).
        rule = self.acl_table.lookup(packet.flow.dst_ip, packet.flow.dst_port)
        if rule is not None:
            state = self._port_vips[(rule.dst_ip, rule.dst_port)]
            target = self._select(state, packet)
            out = packet.encapsulate(self.switch_ip, target)
            self.counters.count(state.vip, packet.size_bytes)
            return HMuxResult(HMuxAction.ENCAPSULATED, out, target)

        state = self._vips.get(packet.flow.dst_ip)
        if state is None or state.is_tip:
            self.counters.no_match += 1
            return HMuxResult(HMuxAction.NO_MATCH, packet)
        target = self._select(state, packet)
        out = packet.encapsulate(self.switch_ip, target)
        self.counters.count(state.vip, packet.size_bytes)
        return HMuxResult(HMuxAction.ENCAPSULATED, out, target)

    def _select(self, state: _VipState, packet: Packet) -> int:
        tunnel_index = state.hash_table.select(packet.flow)
        return self.tunnel_table.get(tunnel_index)

    # -- introspection ------------------------------------------------------------

    def has_vip(self, vip: int) -> bool:
        return vip in self._vips

    def has_vip_port(self, vip: int, port: int) -> bool:
        return (vip, port) in self._port_vips

    def has_evolved_layout(self, vip: int) -> bool:
        """True when the VIP's ECMP group has absorbed resilient DIP
        removals since its last fresh program.  An evolved layout keeps
        surviving flows in place (S5.1) but no longer matches a fresh
        build over the same member set, so its flow-to-DIP choices do
        not transfer to any other mux."""
        return vip in self._evolved_vips

    def vips(self) -> List[int]:
        return sorted(self._vips)

    def is_tip(self, vip: int) -> bool:
        """Whether this programmed address is a TIP (Figure 7 indirection)."""
        return self._require_vip(vip).is_tip

    def port_rules(self) -> List[Tuple[int, int]]:
        """(vip, port) keys of the installed ACL rules."""
        return sorted(self._port_vips)

    def slot_targets(self, vip: int) -> List[int]:
        """Per-ECMP-slot encap target of a VIP: the fully resolved
        slot -> tunnel entry -> encap IP composition.  Element ``s`` is
        where a flow hashing to slot ``s`` is tunneled — the flat layout
        the batch engine caches and the differential tests compare
        slot-for-slot against :class:`ResilientHashTable`."""
        state = self._require_vip(vip)
        return [
            self.tunnel_table.get(index)
            for index in state.hash_table.slots()
        ]

    def port_slot_targets(self, vip: int, port: int) -> List[int]:
        """Per-slot encap target of a port-based (ACL) entry."""
        state = self._require_vip(vip, port)
        return [
            self.tunnel_table.get(index)
            for index in state.hash_table.slots()
        ]

    def dips_of(self, vip: int, port: Optional[int] = None) -> List[int]:
        """Current encap targets of a VIP, or of its ``port`` pool
        (post-removals)."""
        state = self._require_vip(vip, port)
        return [
            self.tunnel_table.get(index)
            for index in state.hash_table.members
        ]

    def _require_vip(self, vip: int, port: Optional[int] = None) -> _VipState:
        """The VIP's entry, or its ``port`` pool's."""
        state = (
            self._vips.get(vip) if port is None else self._port_vips.get((vip, port))
        )
        if state is None:
            where = format_ip(vip) if port is None else f"{format_ip(vip)}:{port}"
            raise HMuxError(f"VIP {where} not programmed")
        return state

    def _find_tunnel_index(self, state: _VipState, encap_ip: int) -> int:
        for index in state.hash_table.members:
            if self.tunnel_table.get(index) == encap_ip:
                return index
        raise HMuxError(
            f"{format_ip(encap_ip)} is not a target of VIP "
            f"{format_ip(state.vip)}"
        )
