"""Batched (numpy-vectorized) dataplane fast path.

The scalar muxes (:mod:`repro.dataplane.hmux`, :mod:`repro.dataplane.smux`)
process one :class:`~repro.dataplane.packet.Packet` at a time through
python dictionaries — exactly right for semantics, far too slow to drive
the paper's loads (1.2M pps for hundreds of seconds, Figures 11-20).
This module resolves whole *arrays* of flows at once:

* :class:`FlowBatch` — a struct-of-arrays view of many packets,
* :class:`BatchHMux` — the HMux pipeline (host-table match -> ECMP slot
  selection -> tunnel resolution, plus TIP re-encapsulation and
  port-based ACL rules) over a batch in a handful of numpy operations,
* :class:`BatchSMux` — the SMux path (port pools, VIP-wide pools,
  connection pinning) over a batch,
* :class:`FleetLayouts` — every mux's layouts behind one index, the
  gather of :meth:`~repro.core.controller.DuetController.forward_batch`.

The engines do not re-implement state: they cache **flattened per-VIP
layouts** (slot -> encap target, the composition of the resilient hash
table with the tunneling table) computed from the live mux objects, and
invalidate those caches via the muxes' ``layout_version`` counters,
which every programming operation (VIP add/remove, resilient DIP
removal, reset) bumps.  A batch engine therefore always forwards exactly
like the mux it wraps — and the differential test suite
(``tests/test_batch_differential.py``) holds it to that, byte for byte.

Packets with two or more encapsulation headers are rare (only transient
TIP hops) and fall back to the scalar path row by row, keeping the
equivalence unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dataplane.hashing import five_tuple_hash_batch
from repro.dataplane.hmux import HMux, HMuxAction
from repro.dataplane.packet import (
    DEFAULT_PACKET_BYTES,
    FiveTuple,
    OuterHeader,
    Packet,
)
from repro.dataplane.smux import SMux

#: Action codes of :class:`BatchHMuxResult.action` (uint8 array).
ACTION_NO_MATCH = 0
ACTION_ENCAPSULATED = 1
ACTION_REENCAPSULATED = 2

#: :class:`ForwardResult` row statuses: delivered; no route; dropped at
#: or after the mux, before any host agent; refused by the host agent.
FORWARD_OK, NO_ROUTE, MUX_DROP, HOST_REFUSED = range(4)


class BatchError(Exception):
    """Invalid batch construction or lookup."""


# ---------------------------------------------------------------------------
# FlowBatch: struct-of-arrays packets
# ---------------------------------------------------------------------------

@dataclass
class FlowBatch:
    """Many packets as parallel field arrays.

    The five inner-flow fields and the packet size are dense arrays; at
    most one outer IP-in-IP header per row is carried in ``outer_src`` /
    ``outer_dst`` (``-1`` where the packet is bare).  Rows whose source
    packet had two or more outer headers are listed in ``deep`` (row
    index -> original packet) and are routed through the scalar path.
    """

    src_ip: np.ndarray    # uint64
    dst_ip: np.ndarray    # uint64
    src_port: np.ndarray  # uint64
    dst_port: np.ndarray  # uint64
    protocol: np.ndarray  # uint64
    size_bytes: np.ndarray  # int64
    outer_src: np.ndarray   # int64, -1 when bare
    outer_dst: np.ndarray   # int64, -1 when bare
    deep: Tuple[Tuple[int, Packet], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.src_ip)
        for name in ("dst_ip", "src_port", "dst_port", "protocol",
                     "size_bytes", "outer_src", "outer_dst"):
            if len(getattr(self, name)) != n:
                raise BatchError(f"field array {name} length mismatch")

    def __len__(self) -> int:
        return len(self.src_ip)

    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "FlowBatch":
        n = len(packets)
        src_ip = np.empty(n, np.uint64)
        dst_ip = np.empty(n, np.uint64)
        src_port = np.empty(n, np.uint64)
        dst_port = np.empty(n, np.uint64)
        protocol = np.empty(n, np.uint64)
        size_bytes = np.empty(n, np.int64)
        outer_src = np.full(n, -1, np.int64)
        outer_dst = np.full(n, -1, np.int64)
        deep: List[Tuple[int, Packet]] = []
        for i, packet in enumerate(packets):
            flow = packet.flow
            src_ip[i] = flow.src_ip
            dst_ip[i] = flow.dst_ip
            src_port[i] = flow.src_port
            dst_port[i] = flow.dst_port
            protocol[i] = flow.protocol
            size_bytes[i] = packet.size_bytes
            if packet.outer:
                outer_src[i] = packet.outer[0].src_ip
                outer_dst[i] = packet.outer[0].dst_ip
                if packet.encap_depth >= 2:
                    deep.append((i, packet))
        return cls(src_ip, dst_ip, src_port, dst_port, protocol,
                   size_bytes, outer_src, outer_dst, tuple(deep))

    @classmethod
    def from_fields(
        cls,
        src_ip: Iterable[int],
        dst_ip: Iterable[int],
        src_port: Iterable[int],
        dst_port: Iterable[int],
        protocol: Iterable[int],
        size_bytes: int = DEFAULT_PACKET_BYTES,
    ) -> "FlowBatch":
        """Build a batch of bare packets directly from field iterables
        (the zero-copy entry point for generators and benchmarks)."""
        src = np.asarray(src_ip, dtype=np.uint64)
        n = len(src)
        return cls(
            src_ip=src,
            dst_ip=np.asarray(dst_ip, dtype=np.uint64),
            src_port=np.asarray(src_port, dtype=np.uint64),
            dst_port=np.asarray(dst_port, dtype=np.uint64),
            protocol=np.asarray(protocol, dtype=np.uint64),
            size_bytes=np.full(n, size_bytes, np.int64),
            outer_src=np.full(n, -1, np.int64),
            outer_dst=np.full(n, -1, np.int64),
        )

    def flow_at(self, i: int) -> FiveTuple:
        return FiveTuple(
            src_ip=int(self.src_ip[i]),
            dst_ip=int(self.dst_ip[i]),
            src_port=int(self.src_port[i]),
            dst_port=int(self.dst_port[i]),
            protocol=int(self.protocol[i]),
        )

    def packet_at(self, i: int) -> Packet:
        """Reconstruct row ``i`` as a :class:`Packet` (deep rows return
        the original object, untouched)."""
        for index, packet in self.deep:
            if index == i:
                return packet
        outer: Tuple[OuterHeader, ...] = ()
        if self.outer_dst[i] >= 0:
            outer = (OuterHeader(int(self.outer_src[i]),
                                 int(self.outer_dst[i])),)
        return Packet(
            flow=self.flow_at(i),
            size_bytes=int(self.size_bytes[i]),
            outer=outer,
        )

    def fields(self) -> np.ndarray:
        """The inner five-tuples as one ``(5, n)`` uint64 block, rows in
        :class:`FiveTuple` field order."""
        return np.array((
            self.src_ip, self.dst_ip, self.src_port, self.dst_port,
            self.protocol,
        ))

    def hashes(self, seed: int = 0) -> np.ndarray:
        """The shared five-tuple hash of every row (inner flow)."""
        return five_tuple_hash_batch(
            self.src_ip, self.dst_ip, self.src_port, self.dst_port,
            self.protocol, seed,
        )


# ---------------------------------------------------------------------------
# Flattened slot layouts, shared by both engines
# ---------------------------------------------------------------------------

class _LayoutIndex:
    """A family of per-key slot layouts packed for vectorized lookup.

    ``keys`` is sorted; key ``k``'s layout is
    ``slot_targets[base[k] : base[k] + n_slots[k]]`` where element ``s``
    is the encap target a flow hashing to slot ``s`` resolves to.  One
    ``searchsorted`` + two gathers resolve a whole batch.
    """

    __slots__ = ("keys", "vips", "n_slots", "base", "slot_targets")

    def __init__(
        self,
        keys: Sequence[int] = (),
        vips: Sequence[int] = (),
        layouts: Sequence[Sequence[int]] = (),
    ) -> None:
        # Parallel sequences in any order: key, VIP to count against,
        # per-slot targets.  The layouts are packed in the order given;
        # only the small per-key arrays are sorted.
        lengths = np.fromiter(map(len, layouts), np.int64, len(layouts))
        unsorted = np.array(keys, dtype=np.uint64)
        order = np.argsort(unsorted)
        self.keys = unsorted[order]
        self.vips = np.array(vips, dtype=np.uint64)[order]
        self.n_slots = lengths.astype(np.uint64)[order]
        self.base = (np.cumsum(lengths) - lengths)[order]
        self.slot_targets = (
            np.concatenate(layouts, dtype=np.int64)
            if layouts else np.empty(0, np.int64)
        )

    def lookup(
        self, key_arr: np.ndarray, hashes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(found mask, per-row target or -1, per-row owning VIP)."""
        n = len(key_arr)
        if self.keys.size == 0:
            return (
                np.zeros(n, bool),
                np.full(n, -1, np.int64),
                np.zeros(n, np.uint64),
            )
        pos = np.searchsorted(self.keys, key_arr)
        # Rows past the last key cannot match; park them on index 0
        # (the equality test below rejects them).
        pos[pos == self.keys.size] = 0
        found = self.keys[pos] == key_arr
        slot = (hashes % self.n_slots[pos]).astype(np.int64)
        target = self.slot_targets[self.base[pos] + slot]
        return found, np.where(found, target, -1), self.vips[pos]

    @classmethod
    def merged(
        cls, parts: Sequence[Tuple[int, "_LayoutIndex"]], shift: int,
    ) -> "_LayoutIndex":
        """One index over ``(prefix, index)`` parts, key ``k`` of a part
        becoming ``prefix << shift | k`` (every key below ``1 << shift``):
        the parts' arrays concatenated, nothing re-flattened."""
        parts = sorted(parts, key=lambda part: part[0]) or [(0, cls())]
        offset = np.cumsum([0] + [p.slot_targets.size for _, p in parts])
        merged = cls()
        merged.keys = np.concatenate([
            np.uint64(prefix) << np.uint64(shift) | p.keys for prefix, p in parts
        ])
        merged.base = np.concatenate([
            p.base + at for (_, p), at in zip(parts, offset.tolist())
        ])
        for name in ("vips", "n_slots", "slot_targets"):
            setattr(merged, name, np.concatenate([getattr(p, name) for _, p in parts]))
        return merged


def _acl_key(vip: np.ndarray, port: np.ndarray) -> np.ndarray:
    """(vip, L4 port) packed into one uint64 key."""
    return (np.asarray(vip, np.uint64) << np.uint64(16)) | np.asarray(
        port, np.uint64
    )


# ---------------------------------------------------------------------------
# HMux batch engine
# ---------------------------------------------------------------------------

@dataclass
class BatchHMuxResult:
    """Array-form outcome of one batched HMux pass: ``action`` holds the
    ``ACTION_*`` codes, ``target`` the encap destination (``-1`` for
    no-match)."""

    action: np.ndarray  # uint8 ACTION_* codes
    target: np.ndarray  # int64, -1 when no match


class BatchHMux:
    """Vectorized forwarding over a live :class:`HMux`.

    Layout caches are rebuilt lazily whenever the wrapped HMux's
    ``layout_version`` moved — programming operations invalidate, the
    data plane never does.  Counters on the wrapped HMux are updated in
    aggregate, so scalar and batched processing of the same packets
    leave identical counter state.
    """

    def __init__(self, hmux: HMux) -> None:
        self.hmux = hmux
        self._version: Optional[int] = None
        self._host = _LayoutIndex()
        self._tips = _LayoutIndex()
        self._acl = _LayoutIndex()

    # -- cache maintenance -------------------------------------------------

    def _refresh(self) -> Tuple[_LayoutIndex, _LayoutIndex]:
        """The host-table and ACL indexes, re-flattened if stale."""
        if self._version == self.hmux.layout_version:
            return self._host, self._acl
        host_entries: List[Tuple[int, int, List[int]]] = []
        tip_entries: List[Tuple[int, int, List[int]]] = []
        for vip in self.hmux.vips():
            layout = self.hmux.slot_targets(vip)
            if self.hmux.is_tip(vip):
                tip_entries.append((vip, vip, layout))
            else:
                host_entries.append((vip, vip, layout))
        acl_entries = [
            (int(_acl_key(np.uint64(vip), np.uint64(port))), vip,
             self.hmux.port_slot_targets(vip, port))
            for vip, port in self.hmux.port_rules()
        ]
        self._host = _LayoutIndex(*zip(*host_entries))
        self._tips = _LayoutIndex(*zip(*tip_entries))
        self._acl = _LayoutIndex(*zip(*acl_entries))
        self._version = self.hmux.layout_version
        return self._host, self._acl

    # -- data plane --------------------------------------------------------

    def process(self, batch: FlowBatch) -> BatchHMuxResult:
        """Run a whole batch through the pipeline in numpy."""
        self._refresh()
        n = len(batch)
        action = np.zeros(n, np.uint8)
        target = np.full(n, -1, np.int64)
        count_vip = np.zeros(n, np.uint64)
        hashes = batch.hashes(self.hmux.hash_seed)

        vectorized = np.ones(n, bool)
        for i, _packet in batch.deep:
            vectorized[i] = False
        encapsulated = (batch.outer_dst >= 0) & vectorized
        bare = (batch.outer_dst < 0) & vectorized

        # TIP handling (Figure 7): encapsulated rows whose outer dst is a
        # TIP assigned here are decapsulated and re-encapsulated.
        if encapsulated.any():
            found, tgt, vip = self._tips.lookup(
                batch.outer_dst.astype(np.uint64), hashes,
            )
            hit = encapsulated & found
            action[hit] = ACTION_REENCAPSULATED
            target[hit] = tgt[hit]
            count_vip[hit] = vip[hit]

        if bare.any():
            # ACL rules match before the host table (Figure 8).
            acl_found, acl_tgt, acl_vip = self._acl.lookup(
                _acl_key(batch.dst_ip, batch.dst_port), hashes,
            )
            hit = bare & acl_found
            action[hit] = ACTION_ENCAPSULATED
            target[hit] = acl_tgt[hit]
            count_vip[hit] = acl_vip[hit]
            # Host forwarding table (TIP states never match bare packets:
            # they are keyed in the TIP index instead).
            host_found, host_tgt, host_vip = self._host.lookup(
                batch.dst_ip, hashes,
            )
            hit = bare & ~acl_found & host_found
            action[hit] = ACTION_ENCAPSULATED
            target[hit] = host_tgt[hit]
            count_vip[hit] = host_vip[hit]

        # Deep-encapsulation rows ride the scalar path (which also
        # updates counters for them).
        for i, packet in batch.deep:
            result = self.hmux.process(packet)
            if result.action is HMuxAction.ENCAPSULATED:
                action[i] = ACTION_ENCAPSULATED
                target[i] = result.selected_ip
            elif result.action is HMuxAction.REENCAPSULATED:
                action[i] = ACTION_REENCAPSULATED
                target[i] = result.selected_ip

        # Aggregate counter update for the vectorized rows.
        counters = self.hmux.counters
        hit = vectorized & (action != ACTION_NO_MATCH)
        n_hit = int(np.count_nonzero(hit))
        counters.packets += n_hit
        counters.no_match += int(np.count_nonzero(vectorized) - n_hit)
        if n_hit:
            counters.bytes += int(batch.size_bytes[hit].sum())
            vips, counts = np.unique(count_vip[hit], return_counts=True)
            per_vip = counters.per_vip_packets
            for vip, count in zip(vips.tolist(), counts.tolist()):
                per_vip[vip] = per_vip.get(vip, 0) + count

        return BatchHMuxResult(action=action, target=target)


# ---------------------------------------------------------------------------
# SMux batch engine
# ---------------------------------------------------------------------------

@dataclass
class BatchSMuxResult:
    """Array-form outcome of one batched SMux pass: ``dip`` is the
    selected DIP per row (``-1`` where the destination is not a known
    VIP — the scalar path's ``None``)."""

    dip: np.ndarray  # int64, -1 when dropped


class BatchSMux:
    """Vectorized forwarding over a live :class:`SMux`.

    With ``pin_connections=True`` (the default) the engine honours and
    maintains the SMux connection table exactly like the scalar path:
    pinned flows keep their DIP, fresh flows are pinned after selection.
    The SMux's own columnar table is the only connection state, and a
    batch resolves against it in one ``SMux.lookup_or_pin`` call.
    ``pin_connections=False`` skips connection state entirely —
    a stateless mode for fluid-scale replays of ephemeral probe traffic
    where affinity is irrelevant (it deviates from scalar semantics and
    is never used by the differential tests).
    """

    def __init__(self, smux: SMux, pin_connections: bool = True) -> None:
        self.smux = smux
        self.pin_connections = pin_connections
        self._version: Optional[int] = None
        self._vips = _LayoutIndex()
        self._ports = _LayoutIndex()

    def _refresh(self) -> Tuple[_LayoutIndex, _LayoutIndex]:
        """The VIP-wide and port pool indexes, re-flattened if stale."""
        if self._version == self.smux.layout_version:
            return self._vips, self._ports
        (vips, layouts), (ports, port_layouts) = self.smux.slot_layouts()
        self._vips = _LayoutIndex(vips, vips, layouts)
        self._ports = _LayoutIndex(
            [int(_acl_key(np.uint64(vip), np.uint64(port)))
             for vip, port in ports],
            [vip for vip, _port in ports],
            port_layouts,
        )
        self._version = self.smux.layout_version
        return self._vips, self._ports

    def process(self, batch: FlowBatch) -> BatchSMuxResult:
        """Load-balance a whole batch; mirrors ``SMux.process`` row by
        row (port pools first, then the VIP-wide pool, then drop)."""
        self._refresh()
        n = len(batch)
        hashes = batch.hashes(self.smux.hash_seed)
        port_found, port_dip, _ = self._ports.lookup(
            _acl_key(batch.dst_ip, batch.dst_port), hashes,
        )
        vip_found, vip_dip, _ = self._vips.lookup(batch.dst_ip, hashes)
        matched = port_found | vip_found
        dip = np.where(port_found, port_dip,
                       np.where(vip_found, vip_dip, -1)).astype(np.int64)

        if self.pin_connections:
            dip, _prior = self.smux.lookup_or_pin(hashes, batch.fields(), dip)

        counters = self.smux.counters
        n_hit = int(np.count_nonzero(matched))
        counters.packets += n_hit
        counters.drops_no_vip += n - n_hit
        if n_hit:
            counters.bytes += int(batch.size_bytes[matched].sum())
            # Port-pool rows attribute to the owning VIP, which is the
            # packet's dst_ip in both pool kinds — same as the scalar path.
            per_vip = counters.per_vip_packets
            vips, counts = np.unique(
                batch.dst_ip[matched], return_counts=True,
            )
            for vip, count in zip(vips.tolist(), counts.tolist()):
                per_vip[vip] = per_vip.get(vip, 0) + count

        return BatchSMuxResult(dip=dip)


# ---------------------------------------------------------------------------
# The fleet: every mux behind one index
# ---------------------------------------------------------------------------

class FleetLayouts:
    """Every mux's slot layouts as two :class:`_LayoutIndex` es, ``vips``
    keyed ``device << 32 | vip`` (HMux host tables, SMux VIP-wide pools)
    and ``ports`` keyed ``device << 48 | vip << 16 | port`` (ACL rules, port
    pools), ``device`` the caller's number (< 2**16) for the mux: muxes
    hash alike (S3.3.1), so one gather serves rows bound for any of them.
    The parts are the engines' own indexes — an engine re-flattens only a
    mux whose ``layout_version`` moved — merged again when any did."""

    def __init__(self) -> None:
        self._engines: Dict[object, Union[BatchHMux, BatchSMux]] = {}
        self._key: tuple = ()
        self.vips = self.ports = _LayoutIndex()

    def refresh(self, muxes: Mapping[int, Union[HMux, SMux]]) -> "FleetLayouts":
        """Bring the index up to date with ``muxes`` (by device number)."""
        key = tuple((dev, mux, mux.layout_version) for dev, mux in muxes.items())
        if key != self._key:
            old = self._engines
            self._engines = {
                mux: old.get(mux)
                or (BatchHMux if isinstance(mux, HMux) else BatchSMux)(mux)
                for mux in muxes.values()
            }
            parts = [(d, self._engines[m]._refresh()) for d, m in muxes.items()]
            self.vips = _LayoutIndex.merged([(d, p[0]) for d, p in parts], 32)
            self.ports = _LayoutIndex.merged([(d, p[1]) for d, p in parts], 48)
            self._key = key
        return self


@dataclass
class ForwardResult:
    """Per row of a :meth:`~repro.core.controller.DuetController.forward_batch`:
    the serving ``MuxRef`` (None: no route), the delivered DIP (-1 unless
    ``FORWARD_OK``), the status, an SMux row's pin from before the batch
    (-1: none), and what ``forward`` would raise for each failed row."""

    mux: List
    dip: np.ndarray
    status: np.ndarray
    pin: np.ndarray
    errors: Dict[int, Exception] = field(default_factory=dict)
