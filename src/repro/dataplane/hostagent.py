"""Host Agent (HA): the per-server piece of the Duet data plane.

As in Ananta (paper S2.1), every server runs a host agent that:

* **decapsulates** incoming IP-in-IP packets and rewrites the destination
  from the VIP to the local DIP before delivery,
* implements **direct server return** (DSR): outgoing reply packets have
  their source rewritten from the DIP back to the VIP and bypass the mux,
* selects the **VM** in virtualized clusters, where the HMux can only
  encapsulate once and targets the host IP (S5.2, Figure 6),
* performs **SNAT** for outgoing connections by choosing a local port whose
  return five-tuple hashes to an HMux ECMP slot that points back at this
  DIP (S5.2),
* **meters traffic** per VIP and reports DIP health to the controller
  (S6, Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dataplane.hashing import five_tuple_hash
from repro.dataplane.packet import FiveTuple, Packet, PacketError
from repro.net.addressing import format_ip


class HostAgentError(Exception):
    """Invalid host agent operation."""


class SnatPortExhausted(HostAgentError):
    """No port in the assigned range hashes to one of our slots; the HA
    must request another range from the Duet controller (S5.2)."""


@dataclass(frozen=True)
class SnatLease:
    """One SNAT'd outbound connection."""

    dip: int
    vip: int
    vip_port: int
    remote_ip: int
    remote_port: int
    protocol: int


@dataclass
class VipMeter:
    """Per-VIP traffic statistics reported to the controller."""

    packets: int = 0
    bytes: int = 0

    def count(self, size_bytes: int) -> None:
        self.packets += 1
        self.bytes += size_bytes


@dataclass(frozen=True)
class SnatConfig:
    """What the controller tells an HA so it can invert the HMux hash.

    ``my_slots`` are the ECMP slot indices of the VIP's HMux group that
    point at this DIP; a return packet must hash into one of them to come
    back here.  ``port_range`` is the disjoint range the controller
    assigned to this DIP (paper: "Duet assigns disjoint port ranges to
    the DIPs").
    """

    vip: int
    n_slots: int
    my_slots: Tuple[int, ...]
    port_range: Tuple[int, int]
    hash_seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.port_range
        if not 0 <= lo <= hi <= 0xFFFF:
            raise HostAgentError(f"invalid port range {self.port_range}")
        if not self.my_slots:
            raise HostAgentError("SNAT config needs at least one slot")
        for slot in self.my_slots:
            if not 0 <= slot < self.n_slots:
                raise HostAgentError(
                    f"slot {slot} out of range (n_slots={self.n_slots})"
                )


class HostAgent:
    """The agent running on one physical host."""

    def __init__(self, host_ip: int) -> None:
        self.host_ip = host_ip
        self._dip_to_vip: Dict[int, int] = {}
        self._vip_local_dips: Dict[int, List[int]] = {}
        self._healthy: Set[int] = set()
        self._snat_configs: Dict[int, SnatConfig] = {}  # keyed by DIP
        self._snat_leases: Dict[Tuple[int, int, int, int], SnatLease] = {}
        self._used_ports: Dict[int, Set[int]] = {}  # dip -> ports in use
        self.meters: Dict[int, VipMeter] = {}
        self.hash_seed = 0

    # -- DIP registration ---------------------------------------------------------

    def register_dip(self, dip: int, vip: int) -> None:
        """Attach a DIP (a VM or the host itself) serving ``vip``."""
        if dip in self._dip_to_vip:
            raise HostAgentError(f"DIP {format_ip(dip)} already registered")
        self._dip_to_vip[dip] = vip
        self._vip_local_dips.setdefault(vip, []).append(dip)
        self._healthy.add(dip)

    def unregister_dip(self, dip: int) -> None:
        vip = self._dip_to_vip.pop(dip, None)
        if vip is None:
            raise HostAgentError(f"DIP {format_ip(dip)} not registered")
        self._vip_local_dips[vip].remove(dip)
        if not self._vip_local_dips[vip]:
            del self._vip_local_dips[vip]
        self._healthy.discard(dip)
        self._snat_configs.pop(dip, None)

    def registrations(self) -> Dict[int, List[int]]:
        """VIP -> its DIPs registered here, in registration order (a
        read-only view)."""
        return self._vip_local_dips

    # -- health -------------------------------------------------------------------

    def set_health(self, dip: int, healthy: bool) -> None:
        if dip not in self._dip_to_vip:
            raise HostAgentError(f"DIP {format_ip(dip)} not registered")
        if healthy:
            self._healthy.add(dip)
        else:
            self._healthy.discard(dip)

    def health_report(self) -> Dict[int, bool]:
        """DIP -> healthy, polled periodically by the controller."""
        return {dip: dip in self._healthy for dip in self._dip_to_vip}

    # -- inbound path ---------------------------------------------------------------

    def receive(self, packet: Packet) -> Packet:
        """Handle an encapsulated packet arriving at the host.

        Strips every encapsulation layer, picks the local DIP (hashing the
        five-tuple when several local VMs serve the VIP, Figure 6), and
        rewrites the destination so the server sees its own address.
        """
        if not packet.is_encapsulated:
            raise PacketError("host agent received a bare packet")
        flow = packet.flow
        # The innermost tunnel header carries what the mux aimed at.
        return replace(packet, outer=()).rewrite_dst(self.deliver(
            packet.outer[-1].dst_ip,
            (flow.src_ip, flow.src_port, flow.dst_ip, flow.dst_port),
            five_tuple_hash(flow, self.hash_seed), packet.wire_bytes,
        ))

    def deliver(
        self, target: int, flow: Tuple[int, int, int, int], flow_hash: int,
        wire_bytes: int,
    ) -> int:
        """The local DIP a packet tunneled to ``target`` goes to, metered;
        ``flow`` is its inner ``(src_ip, src_port, VIP, dst_port)``,
        ``flow_hash`` its five-tuple hash under :attr:`hash_seed`.  An SNAT
        lease wins, then a healthy DIP ``target`` (physical clusters), else
        the hash picks a healthy local DIP of the VIP (virtualized ones:
        ``target`` is this host, Figure 6).  :meth:`receive` and the
        controller's batch path both deliver through here."""
        lease = self._snat_leases.get(flow)
        vip = flow[2]
        if lease is not None:
            dip, vip = lease.dip, lease.vip
        elif target in self._dip_to_vip:
            if target not in self._healthy:
                raise HostAgentError(
                    f"encap target {format_ip(target)} is unhealthy"
                )
            dip = target
        else:
            local = [
                d for d in self._vip_local_dips.get(vip, []) if d in self._healthy
            ]
            if not local:
                raise HostAgentError(
                    f"no healthy local DIP for VIP {format_ip(vip)}"
                )
            # "At the host, the HA selects the DIP by hashing the 5-tuple"
            dip = local[flow_hash % len(local)]
        self._meter(vip, wire_bytes)
        return dip

    # -- outbound path (DSR) -----------------------------------------------------------

    def send(self, packet: Packet) -> Packet:
        """Process an outgoing packet from a local DIP.

        Reply traffic on inbound connections: rewrite source DIP -> VIP
        (direct server return, so only inbound traffic crosses the mux).
        """
        dip = packet.flow.src_ip
        vip = self._dip_to_vip.get(dip)
        if vip is None:
            raise HostAgentError(
                f"outgoing packet from unknown DIP {format_ip(dip)}"
            )
        return packet.rewrite_src(vip)

    # -- SNAT -----------------------------------------------------------------------

    def configure_snat(self, dip: int, config: SnatConfig) -> None:
        if dip not in self._dip_to_vip:
            raise HostAgentError(f"DIP {format_ip(dip)} not registered")
        self._snat_configs[dip] = config
        self._used_ports.setdefault(dip, set())

    def snat_config_of(self, dip: int) -> Optional[SnatConfig]:
        """The config currently pushed for ``dip`` (None if SNAT is not
        set up) — lets the controller's reconciler audit staleness
        without re-pushing."""
        return self._snat_configs.get(dip)

    def open_outbound(
        self, dip: int, remote_ip: int, remote_port: int, protocol: int
    ) -> SnatLease:
        """Establish an outgoing connection from ``dip``.

        Picks a VIP source port such that the *return* five-tuple
        (remote -> VIP) hashes onto an HMux ECMP slot pointing back at
        this DIP — the HA "selects a port such that the hash of the
        5-tuple would correctly match the ECMP table entry on HMux"
        (S5.2).  Raises :class:`SnatPortExhausted` when the assigned
        range has no usable free port.
        """
        config = self._snat_configs.get(dip)
        if config is None:
            raise HostAgentError(f"no SNAT config for DIP {format_ip(dip)}")
        used = self._used_ports[dip]
        lo, hi = config.port_range
        wanted = set(config.my_slots)
        for port in range(lo, hi + 1):
            if port in used:
                continue
            return_flow = FiveTuple(
                src_ip=remote_ip,
                dst_ip=config.vip,
                src_port=remote_port,
                dst_port=port,
                protocol=protocol,
            )
            slot = five_tuple_hash(return_flow, config.hash_seed) % config.n_slots
            if slot in wanted:
                lease = SnatLease(
                    dip=dip,
                    vip=config.vip,
                    vip_port=port,
                    remote_ip=remote_ip,
                    remote_port=remote_port,
                    protocol=protocol,
                )
                used.add(port)
                self._snat_leases[(remote_ip, remote_port, config.vip, port)] = lease
                return lease
        raise SnatPortExhausted(
            f"no free port in {config.port_range} hashes to slots "
            f"{sorted(wanted)} for DIP {format_ip(dip)}"
        )

    def close_outbound(self, lease: SnatLease) -> None:
        key = (lease.remote_ip, lease.remote_port, lease.vip, lease.vip_port)
        if key not in self._snat_leases:
            raise HostAgentError("unknown SNAT lease")
        del self._snat_leases[key]
        self._used_ports[lease.dip].discard(lease.vip_port)

    def snat_translate_outbound(self, packet: Packet) -> Packet:
        """Rewrite an outbound packet on a SNAT'd connection: source
        DIP:port -> VIP:leased-port."""
        for lease in self._snat_leases.values():
            if (
                lease.dip == packet.flow.src_ip
                and lease.remote_ip == packet.flow.dst_ip
                and lease.remote_port == packet.flow.dst_port
                and lease.protocol == packet.flow.protocol
            ):
                return packet.rewrite_src(lease.vip, lease.vip_port)
        raise HostAgentError("no SNAT lease matches outbound packet")

    # -- metering --------------------------------------------------------------------

    def _meter(self, vip: int, size_bytes: int) -> None:
        meter = self.meters.get(vip)
        if meter is None:
            meter = VipMeter()
            self.meters[vip] = meter
        meter.count(size_bytes)

    def traffic_report(self) -> Dict[int, Tuple[int, int]]:
        """VIP -> (packets, bytes) since start; consumed by the
        controller's datacenter-monitoring module (S6)."""
        return {
            vip: (meter.packets, meter.bytes)
            for vip, meter in self.meters.items()
        }
