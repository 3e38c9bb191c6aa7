"""Flow hashing: the one function every Duet component must share.

"To ensure that existing connections do not break as a VIP migrates from
HMux to SMux or between HMuxes, all HMuxes and SMuxes use the same hash
function to select DIPs for a given VIP" (paper S3.3.1).  The host agent
additionally inverts this hash for SNAT: it picks a local port such that
the 5-tuple of the *outgoing* connection hashes to the desired ECMP entry
(S5.2).

This module provides:

* :func:`five_tuple_hash` — the shared deterministic hash,
* :class:`ResilientHashTable` — Broadcom-style resilient hashing: removing
  a member only remaps the flows of that member; there is no add path,
  because a build over a grown set remaps others (which is exactly why
  Duet routes DIP *additions* through SMux, S5.2),
* WCMP weighting (S5.2, heterogeneous servers).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataplane.packet import FiveTuple

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: cheap, well-distributed, dependency-free."""
    value = (value + _GOLDEN) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def five_tuple_hash(flow: FiveTuple, seed: int = 0) -> int:
    """Deterministic 64-bit hash of a flow's five-tuple.

    The same ``seed`` must be configured on every HMux and SMux (and known
    to the host agents for SNAT); per-deployment seeds exist so that hash
    polarization between the ECMP fabric and the mux layer can be broken.
    """
    h = _mix64(seed ^ flow.src_ip)
    h = _mix64(h ^ flow.dst_ip)
    h = _mix64(h ^ (flow.src_port << 16 | flow.dst_port))
    h = _mix64(h ^ flow.protocol)
    return h


def _mix64_batch(value: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array; bit-for-bit identical
    to :func:`_mix64` (the wrap-around of uint64 arithmetic is the
    ``& _MASK64`` of the scalar path)."""
    value = value + np.uint64(_GOLDEN)
    value = (value ^ (value >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    value = (value ^ (value >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return value ^ (value >> np.uint64(31))


def five_tuple_hash_batch(
    src_ip: np.ndarray,
    dst_ip: np.ndarray,
    src_port: np.ndarray,
    dst_port: np.ndarray,
    protocol: np.ndarray,
    seed: int = 0,
) -> np.ndarray:
    """Vectorized :func:`five_tuple_hash` over parallel field arrays.

    Returns a uint64 array where element ``i`` equals
    ``five_tuple_hash(FiveTuple(src_ip[i], ...), seed)`` exactly — the
    batched fast path is only allowed to exist because this equivalence
    holds (it is asserted by the differential test suite).
    """
    src_ip = np.asarray(src_ip, dtype=np.uint64)
    dst_ip = np.asarray(dst_ip, dtype=np.uint64)
    src_port = np.asarray(src_port, dtype=np.uint64)
    dst_port = np.asarray(dst_port, dtype=np.uint64)
    protocol = np.asarray(protocol, dtype=np.uint64)
    h = _mix64_batch(np.uint64(seed & _MASK64) ^ src_ip)
    h = _mix64_batch(h ^ dst_ip)
    h = _mix64_batch(h ^ (src_port << np.uint64(16) | dst_port))
    h = _mix64_batch(h ^ protocol)
    return h


class HashingError(Exception):
    """Invalid hashing configuration (no members, bad weights...)."""


class ResilientHashTable:
    """Resilient hashing over a fixed-size slot table.

    The table has ``n_slots`` entries, each holding a member id.  A flow is
    mapped by hashing into a slot.  The resilience property (Broadcom
    "smart hashing", paper S5.1): when a member is *removed*, only the
    slots that pointed at it are rewritten, so flows of surviving members
    are untouched.  When a member is *added*, slots are stolen from
    existing members to restore balance, remapping those flows — matching
    the paper's caveat that resilient hashing protects removals only.

    Weights implement WCMP: a member with weight 2 owns twice the slots.
    """

    def __init__(
        self,
        members: Sequence[int],
        n_slots: int = 256,
        seed: int = 0,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        if not members:
            raise HashingError("hash table needs at least one member")
        if len(set(members)) != len(members):
            raise HashingError("duplicate members in hash table")
        if n_slots < len(members):
            raise HashingError(
                f"{len(members)} members cannot fit {n_slots} slots"
            )
        self.n_slots = n_slots
        self.seed = seed
        self._weights: Dict[int, float] = {}
        if weights is not None:
            if len(weights) != len(members):
                raise HashingError("weights must match members 1:1")
            if any(w <= 0 for w in weights):
                raise HashingError("weights must be positive")
            self._weights = dict(zip(members, weights))
        else:
            self._weights = {m: 1.0 for m in members}
        self._slots: List[int] = self._initial_layout(list(members))

    # -- layout --------------------------------------------------------------

    def _quota(self, members: Sequence[int]) -> Dict[int, int]:
        """Integer slot quota per member, proportional to weight, summing
        exactly to n_slots (largest-remainder apportionment).

        Every member is guaranteed at least one slot — a 0-slot member
        would silently blackhole its DIP, and real ECMP groups always
        carry one entry per next hop.
        """
        total_weight = sum(self._weights[m] for m in members)
        raw = {
            m: self.n_slots * self._weights[m] / total_weight for m in members
        }
        quota = {m: int(raw[m]) for m in members}
        leftover = self.n_slots - sum(quota.values())
        # Hand the leftover slots to the largest fractional remainders,
        # breaking ties by member id for determinism.
        by_remainder = sorted(
            members, key=lambda m: (-(raw[m] - quota[m]), m)
        )
        for m in by_remainder[:leftover]:
            quota[m] += 1
        # Starvation guard: take from the richest for any zero-quota
        # member (n_slots >= n_members makes this always solvable).
        starving = sorted(m for m in members if quota[m] == 0)
        for m in starving:
            donor = max(members, key=lambda d: (quota[d], -d))
            quota[donor] -= 1
            quota[m] = 1
        return quota

    def _initial_layout(self, members: List[int]) -> List[int]:
        quota = self._quota(members)
        slots: List[int] = []
        # Round-robin interleave so adjacent slots belong to different
        # members (better balance for correlated hashes).
        remaining = dict(quota)
        order = sorted(members)
        while len(slots) < self.n_slots:
            progressed = False
            for m in order:
                if remaining[m] > 0:
                    slots.append(m)
                    remaining[m] -= 1
                    progressed = True
                    if len(slots) == self.n_slots:
                        break
            if not progressed:  # pragma: no cover - quota sums to n_slots
                raise HashingError("slot layout underflow")
        return slots

    # -- queries ---------------------------------------------------------------

    @property
    def members(self) -> Tuple[int, ...]:
        return tuple(sorted(self._weights))

    def slot_of(self, flow: FiveTuple) -> int:
        return five_tuple_hash(flow, self.seed) % self.n_slots

    def select(self, flow: FiveTuple) -> int:
        """The member serving this flow."""
        return self._slots[self.slot_of(flow)]

    def slots(self) -> Tuple[int, ...]:
        return tuple(self._slots)

    # -- membership changes ------------------------------------------------------

    def remove_member(self, member: int) -> int:
        """Remove a member, rewriting only its own slots (resilient).

        Freed slots are redistributed to the surviving members most below
        their new quota.  Returns the number of slots rewritten.
        """
        if member not in self._weights:
            raise HashingError(f"unknown member: {member}")
        if len(self._weights) == 1:
            raise HashingError("cannot remove the last member")
        del self._weights[member]
        survivors = sorted(self._weights)
        quota = self._quota(survivors)
        counts = {m: 0 for m in survivors}
        for m in self._slots:
            if m in counts:
                counts[m] += 1
        rewritten = 0
        for index, owner in enumerate(self._slots):
            if owner != member:
                continue
            # Give this slot to the survivor with the largest deficit.
            target = min(
                survivors, key=lambda m: (counts[m] - quota[m], m)
            )
            self._slots[index] = target
            counts[target] += 1
            rewritten += 1
        return rewritten
