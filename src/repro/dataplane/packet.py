"""Packet model with IP-in-IP encapsulation.

Duet's data plane rests on two primitives that commodity switches already
have (paper S3.1): ECMP traffic splitting and IP-in-IP tunneling.  This
module models the packet itself: an inner IP header carrying the VIP as
destination, wrapped in zero or more outer IP headers added by muxes (one
by an HMux or SMux; two logical levels for the TIP indirection of S5.2,
where the packet is decapsulated and re-encapsulated in flight).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.net.addressing import format_ip

#: IPv4 protocol numbers used in the model.
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMP = 1

#: Default MTU-sized packet used for pps<->bps conversions (the paper's
#: capacity arithmetic assumes 1,500-byte packets: "300K packets/sec ...
#: translates to 3.6 Gbps for 1,500-byte packets").
DEFAULT_PACKET_BYTES = 1500

IPV4_HEADER_BYTES = 20


class PacketError(Exception):
    """Malformed packet operation (e.g. decapsulating a bare packet)."""


@dataclass(frozen=True)
class FiveTuple:
    """The flow identity hashed by ECMP and connection tables."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int

    def __post_init__(self) -> None:
        if not 0 <= self.src_port <= 0xFFFF:
            raise PacketError(f"source port out of range: {self.src_port}")
        if not 0 <= self.dst_port <= 0xFFFF:
            raise PacketError(f"dest port out of range: {self.dst_port}")
        if not 0 <= self.protocol <= 0xFF:
            raise PacketError(f"protocol out of range: {self.protocol}")

    def reversed(self) -> "FiveTuple":
        """The reply direction of the same flow."""
        return FiveTuple(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            protocol=self.protocol,
        )

    def __str__(self) -> str:
        return (
            f"{format_ip(self.src_ip)}:{self.src_port}->"
            f"{format_ip(self.dst_ip)}:{self.dst_port}/{self.protocol}"
        )


@dataclass(frozen=True)
class OuterHeader:
    """One level of IP-in-IP encapsulation."""

    src_ip: int
    dst_ip: int


@dataclass(frozen=True)
class Packet:
    """An IPv4 packet: inner five-tuple + stack of outer IP-in-IP headers.

    ``outer`` is ordered outermost-first, matching the on-wire layout; the
    routable destination of the packet is the outermost header's dst (or
    the inner dst when there is no encapsulation).
    """

    flow: FiveTuple
    size_bytes: int = DEFAULT_PACKET_BYTES
    outer: Tuple[OuterHeader, ...] = ()

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise PacketError(f"packet size must be positive: {self.size_bytes}")

    # -- addressing ----------------------------------------------------------

    @property
    def routable_dst(self) -> int:
        """The address the network forwards on (outermost destination)."""
        if self.outer:
            return self.outer[0].dst_ip
        return self.flow.dst_ip

    @property
    def encap_depth(self) -> int:
        return len(self.outer)

    @property
    def is_encapsulated(self) -> bool:
        return bool(self.outer)

    @property
    def wire_bytes(self) -> int:
        """Size on the wire including encapsulation overhead."""
        return self.size_bytes + IPV4_HEADER_BYTES * len(self.outer)

    # -- encap / decap --------------------------------------------------------

    def encapsulate(self, src_ip: int, dst_ip: int) -> "Packet":
        """Wrap in a new outer IP header (IP-in-IP); outermost-first."""
        header = OuterHeader(src_ip=src_ip, dst_ip=dst_ip)
        return replace(self, outer=(header,) + self.outer)

    def decapsulate(self) -> "Packet":
        """Strip the outermost header; raises when not encapsulated."""
        if not self.outer:
            raise PacketError("cannot decapsulate a bare packet")
        return replace(self, outer=self.outer[1:])

    # -- NAT-style rewrites ----------------------------------------------------

    def rewrite_dst(self, dst_ip: int, dst_port: Optional[int] = None) -> "Packet":
        """Rewrite the inner destination (the HA does this before handing
        the packet to the server process)."""
        flow = FiveTuple(
            src_ip=self.flow.src_ip,
            dst_ip=dst_ip,
            src_port=self.flow.src_port,
            dst_port=self.flow.dst_port if dst_port is None else dst_port,
            protocol=self.flow.protocol,
        )
        return replace(self, flow=flow)

    def rewrite_src(self, src_ip: int, src_port: Optional[int] = None) -> "Packet":
        """Rewrite the inner source (DSR: DIP -> VIP on the return path)."""
        flow = FiveTuple(
            src_ip=src_ip,
            dst_ip=self.flow.dst_ip,
            src_port=self.flow.src_port if src_port is None else src_port,
            dst_port=self.flow.dst_port,
            protocol=self.flow.protocol,
        )
        return replace(self, flow=flow)

    def __str__(self) -> str:
        stack = "".join(
            f"[{format_ip(h.src_ip)}->{format_ip(h.dst_ip)}]" for h in self.outer
        )
        return f"{stack}{self.flow}"


def make_tcp_packet(
    src_ip: int, dst_ip: int, src_port: int, dst_port: int,
    size_bytes: int = DEFAULT_PACKET_BYTES,
) -> Packet:
    """Convenience constructor for a bare TCP packet."""
    return Packet(
        flow=FiveTuple(src_ip, dst_ip, src_port, dst_port, PROTO_TCP),
        size_bytes=size_bytes,
    )


def pps_to_bps(pps: float, packet_bytes: int = DEFAULT_PACKET_BYTES) -> float:
    """Packets/sec to bits/sec at a given packet size."""
    return pps * packet_bytes * 8


def bps_to_pps(bps: float, packet_bytes: int = DEFAULT_PACKET_BYTES) -> float:
    """Bits/sec to packets/sec at a given packet size."""
    return bps / (packet_bytes * 8)
