"""The SMux connection table as numpy columns.

An SMux is the only place Duet keeps per-connection state (paper S3.3,
S5.2): the table records which flows are live and the DIP each one was
given, which is what tells an established flow from a fresh one after a
DIP addition.  The scalar mux asks about one flow at a time, the batch
engine about thousands, and both must see the same state — so there is
one table, held as columns, with a Python-int probe for the former and a
numpy lookup-or-pin for the latter.

Layout: an open-addressed hash table of power-of-two capacity.  Slot
``s`` holds

* ``_tag[s]`` — ``0`` empty, ``1`` deleted, otherwise the flow's
  five-tuple hash (hashes 0 and 1 are stored as 2).  One gather of this
  column answers both "is the slot in use" and "can it be this flow",
* ``src_ip / dst_ip / src_port / dst_port / protocol [s]`` — the flow,
  uint64 like the columns of a ``FlowBatch`` (rows of one ``(5,
  capacity)`` block, so a probe verifies all five with one gather),
* ``_dip[s]`` — the pinned DIP.

The hash is the caller's: the shared :func:`five_tuple_hash` the muxes
have already computed to pick a DIP.  A flow's probe sequence is
triangular (``home, home+1, home+3, home+6, ...`` modulo capacity),
which visits every slot of a power-of-two table once, so a lookup ends at
the flow or at an empty slot.  Deleting marks the slot *deleted*, not
empty — emptying it would cut the probe chain of every flow stored past
it — and a later insert reuses it.  When live plus deleted slots would
pass half the table it is rebuilt without the deleted ones, at the
smallest capacity that leaves it at most a third full: growth is a
doubling, and a table that only churns is rebuilt in place.
"""

from __future__ import annotations

from typing import Collection, List, Optional, Set, Tuple

import numpy as np

from repro.dataplane.packet import FiveTuple

#: Slots of a new table.  An SMux that never sees a packet holds
#: ``INITIAL_CAPACITY * 56`` bytes.
INITIAL_CAPACITY = 64

_EMPTY = 0
_DELETED = 1
_MIN_TAG = 2


class ConnectionTable:
    """``{flow: dip}`` over numpy columns; see the module docstring."""

    def __init__(self) -> None:
        self._live = 0
        self._deleted = 0
        # VIPs that may have entries (expiry does not shrink it): a pool
        # update of a VIP that never had a pin — most VIPs are served by
        # an HMux — must not scan the table.
        self._vips: Set[int] = set()
        self._allocate(INITIAL_CAPACITY)

    def _allocate(self, capacity: int) -> None:
        self._mask = capacity - 1
        self._tag = np.zeros(capacity, np.uint64)
        self._keys = np.zeros((5, capacity), np.uint64)
        (self.src_ip, self.dst_ip, self.src_port, self.dst_port,
         self.protocol) = self._keys
        self._dip = np.zeros(capacity, np.int64)

    def __len__(self) -> int:
        return self._live

    @property
    def capacity(self) -> int:
        return self._mask + 1

    def items(self) -> List[Tuple[FiveTuple, int]]:
        """Every live ``(flow, dip)``, in slot order."""
        rows = np.nonzero(self._tag >= _MIN_TAG)[0]
        fields = self._keys.take(rows, axis=1).tolist()
        return [
            (FiveTuple(*flow), dip)
            for flow, dip in zip(zip(*fields), self._dip[rows].tolist())
        ]

    # -- one flow, Python ints -------------------------------------------------

    def _find(self, flow_hash: int, flow: FiveTuple) -> int:
        """Slot holding ``flow``, or -1."""
        tag = max(flow_hash, _MIN_TAG)
        tags, mask = self._tag, self._mask
        slot = tag & mask
        step = 0
        while True:
            seen = tags.item(slot)
            if (
                seen == tag
                and self.src_ip.item(slot) == flow.src_ip
                and self.dst_ip.item(slot) == flow.dst_ip
                and self.src_port.item(slot) == flow.src_port
                and self.dst_port.item(slot) == flow.dst_port
                and self.protocol.item(slot) == flow.protocol
            ):
                return slot
            if seen == _EMPTY:
                return -1
            step += 1
            slot = (slot + step) & mask

    def get(self, flow_hash: int, flow: FiveTuple) -> Optional[int]:
        slot = self._find(flow_hash, flow)
        return None if slot < 0 else self._dip.item(slot)

    def pin(self, flow_hash: int, flow: FiveTuple, dip: int) -> None:
        """Insert a flow that :meth:`get` has just reported absent."""
        self._reserve(1)
        tag = max(flow_hash, _MIN_TAG)
        tags, mask = self._tag, self._mask
        slot = tag & mask
        step = 0
        while tags.item(slot) >= _MIN_TAG:
            step += 1
            slot = (slot + step) & mask
        self._deleted -= tags.item(slot)    # 1 when a deleted slot is reused
        tags[slot] = tag
        self.src_ip[slot] = flow.src_ip
        self.dst_ip[slot] = flow.dst_ip
        self.src_port[slot] = flow.src_port
        self.dst_port[slot] = flow.dst_port
        self.protocol[slot] = flow.protocol
        self._dip[slot] = dip
        self._live += 1
        self._vips.add(flow.dst_ip)

    def pop(self, flow_hash: int, flow: FiveTuple) -> Optional[int]:
        slot = self._find(flow_hash, flow)
        if slot < 0:
            return None
        self._tag[slot] = _DELETED
        self._live -= 1
        self._deleted += 1
        return self._dip.item(slot)

    # -- many flows, numpy -------------------------------------------------------

    def lookup_or_pin(
        self, hashes: np.ndarray, fields: np.ndarray, choice: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Resolve a batch as if its rows arrived one by one: a row whose
        flow is in the table reads the pinned DIP, any other is pinned to
        its ``choice`` — so of several rows carrying one new flow the
        first pins and the rest read that pin.  Rows with a negative
        ``choice`` (no VIP matched) are neither looked up nor pinned.

        ``hashes`` is the ``(n,)`` five-tuple hash, ``fields`` the
        ``(5, n)`` uint64 block ``src_ip, dst_ip, src_port, dst_port,
        protocol``.  Returns the per-row DIP and the per-row DIP pinned
        before the call (-1 where none); the table grows by the number of
        flows pinned.
        """
        prior = np.full(choice.shape, -1, np.int64)
        tags = np.maximum(hashes, np.uint64(_MIN_TAG))
        absent = self._lookup(tags, fields, np.nonzero(choice >= 0)[0], prior)
        out = np.where(prior < 0, choice, prior)
        while absent.size:
            # Of the absent rows with one hash only the first pins now.
            # The others look again: a repeat of that flow then reads the
            # pin, a different flow with the same hash pins in its turn.
            _, first = np.unique(tags[absent], return_index=True)
            pins = absent[first]
            self._reserve(pins.size)
            self._place(tags[pins], fields.take(pins, axis=1), choice[pins])
            self._live += pins.size
            self._vips.update(fields[1, pins].tolist())
            absent = self._lookup(tags, fields, np.delete(absent, first), out)
        return out, prior

    def _lookup(
        self, tags: np.ndarray, fields: np.ndarray, rows: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """Write the pinned DIP of every row in ``rows`` whose flow is in
        the table to ``out``; return the other rows, ascending.  Each
        pass probes one slot per unresolved row."""
        want = tags[rows]
        slot = (want & np.uint64(self._mask)).astype(np.intp)
        absent: List[np.ndarray] = [rows[:0]]
        step = 0
        while rows.size:
            seen = self._tag[slot]
            probing = seen != _EMPTY
            absent.append(rows[~probing])
            maybe = np.nonzero(seen == want)[0]
            if maybe.size:
                same = (
                    self._keys.take(slot[maybe], axis=1)
                    == fields.take(rows[maybe], axis=1)
                ).all(axis=0)
                hit = maybe[same]
                out[rows[hit]] = self._dip[slot[hit]]
                probing[hit] = False
            step += 1
            rows, want = rows[probing], want[probing]
            slot = (slot[probing] + step) & self._mask
        return np.sort(np.concatenate(absent))

    def _place(
        self, tags: np.ndarray, fields: np.ndarray, dips: np.ndarray,
    ) -> None:
        """Store entries known to be absent and pairwise distinct, each
        in the first free slot of its probe sequence.  Rows that want the
        same slot all write their number into its ``_dip`` cell; the one
        that reads its own number back owns the slot, the others probe
        on."""
        rows = np.arange(tags.size)
        slot = (tags & np.uint64(self._mask)).astype(np.intp)
        step = 0
        while rows.size:
            probing = self._tag[slot] >= _MIN_TAG
            free = np.nonzero(~probing)[0]
            claimant, claimed = rows[free], slot[free]
            self._dip[claimed] = claimant
            won = self._dip[claimed] == claimant
            probing[free[~won]] = True
            row, at = claimant[won], claimed[won]
            self._deleted -= int(np.count_nonzero(self._tag[at]))
            self._tag[at] = tags[row]
            for column, values in zip(self._keys, fields):
                column[at] = values[row]
            self._dip[at] = dips[row]
            step += 1
            rows = rows[probing]
            slot = (slot[probing] + step) & self._mask

    def _reserve(self, incoming: int) -> None:
        """Make room for ``incoming`` more entries before any is stored:
        one batch can carry more new flows than the table has slots."""
        if 2 * (self._live + self._deleted + incoming) <= self.capacity:
            return
        rows = np.nonzero(self._tag >= _MIN_TAG)[0]
        tags, fields, dips = (
            self._tag[rows], self._keys.take(rows, axis=1), self._dip[rows],
        )
        capacity = INITIAL_CAPACITY
        while 3 * (self._live + incoming) > capacity:
            capacity *= 2
        self._allocate(capacity)
        self._deleted = 0
        self._place(tags, fields, dips)

    def evict(
        self,
        vip: int,
        port: Optional[int] = None,
        survivors: Collection[int] = (),
    ) -> int:
        """Drop the entries of ``vip`` (only those to ``port`` when
        given) whose DIP is not among ``survivors``; returns how many.
        One masked pass over the table, skipped when the VIP has no
        entry."""
        if vip not in self._vips:
            return 0
        rows = np.nonzero(self.dst_ip == vip)[0]
        rows = held = rows[self._tag[rows] >= _MIN_TAG]
        if port is not None:
            rows = rows[self.dst_port[rows] == port]
        if survivors:
            rows = rows[~np.isin(self._dip[rows], list(survivors))]
        if rows.size == held.size:
            self._vips.discard(vip)
        self._tag[rows] = _DELETED
        self._live -= rows.size
        self._deleted += rows.size
        return rows.size
