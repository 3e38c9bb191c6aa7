"""Controller-side SNAT port-range management (paper S5.2).

For SNAT, "Duet assigns disjoint port ranges to the DIPs" of a VIP, and
each host agent picks ports from its range whose return five-tuple hashes
onto an HMux ECMP slot pointing back at that DIP.  "If an HA runs out of
available ports, it receives another set from the Duet controller."

:class:`SnatPortManager` owns the VIP's port space: it carves disjoint
ranges, remembers which DIP holds which, and hands out further ranges on
exhaustion.  :func:`slots_of_dip` computes the ECMP slots pointing at a
DIP — the other half of the :class:`~repro.dataplane.hostagent.SnatConfig`
the controller ships to each HA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataplane.hashing import ResilientHashTable
from repro.net.addressing import format_ip

#: Ephemeral port space carved into SNAT ranges (below it: well-known +
#: listener ports).
DEFAULT_PORT_FLOOR = 1024
DEFAULT_PORT_CEIL = 65535


class SnatError(Exception):
    """SNAT port-space exhaustion or misuse."""


@dataclass(frozen=True)
class PortRange:
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi <= 0xFFFF:
            raise SnatError(f"invalid port range [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def as_tuple(self) -> Tuple[int, int]:
        return (self.lo, self.hi)


class SnatPortManager:
    """Disjoint port-range allocation for one VIP's DIPs."""

    def __init__(
        self,
        vip: int,
        *,
        range_size: int = 2048,
        floor: int = DEFAULT_PORT_FLOOR,
        ceil: int = DEFAULT_PORT_CEIL,
    ) -> None:
        if range_size < 1:
            raise SnatError("range size must be positive")
        if not 0 <= floor <= ceil <= 0xFFFF:
            raise SnatError("invalid port space bounds")
        self.vip = vip
        self.range_size = range_size
        self.floor = floor
        self.ceil = ceil
        self._next = floor
        self._held: Dict[int, List[PortRange]] = {}

    @property
    def remaining_ports(self) -> int:
        return max(0, self.ceil - self._next + 1)

    def allocate(self, dip: int) -> PortRange:
        """Hand the DIP its next disjoint range; raises on exhaustion."""
        size = min(self.range_size, self.remaining_ports)
        if size == 0:
            raise SnatError(
                f"SNAT port space of VIP {format_ip(self.vip)} exhausted"
            )
        allocated = PortRange(self._next, self._next + size - 1)
        self._next = allocated.hi + 1
        self._held.setdefault(dip, []).append(allocated)
        return allocated

    def ranges_of(self, dip: int) -> List[PortRange]:
        return list(self._held.get(dip, ()))

    def to_state(self) -> Dict:
        """JSON-safe dump for the controller's journal snapshots.  Held
        ranges keep their insertion order — a restored manager must hand
        out the same next range as a never-crashed one."""
        return {
            "vip": self.vip,
            "range_size": self.range_size,
            "floor": self.floor,
            "ceil": self.ceil,
            "next": self._next,
            "held": [
                [dip, [r.as_tuple() for r in ranges]]
                for dip, ranges in self._held.items()
            ],
        }

    @classmethod
    def from_state(cls, state: Dict) -> "SnatPortManager":
        manager = cls(
            state["vip"],
            range_size=state["range_size"],
            floor=state["floor"],
            ceil=state["ceil"],
        )
        manager._next = state["next"]
        manager._held = {
            dip: [PortRange(lo, hi) for lo, hi in ranges]
            for dip, ranges in state["held"]
        }
        return manager

    def validate_disjoint(self) -> bool:
        """True iff no two held ranges overlap (invariant check)."""
        all_ranges = sorted(
            (r for ranges in self._held.values() for r in ranges),
            key=lambda r: r.lo,
        )
        for a, b in zip(all_ranges, all_ranges[1:]):
            if b.lo <= a.hi:
                return False
        return True


def slots_of_dip(
    dips: Sequence[int],
    target_dip: int,
    *,
    n_slots: Optional[int] = None,
    hash_seed: int = 0,
) -> Tuple[int, ...]:
    """ECMP slot indices pointing at ``target_dip`` in the HMux layout.

    Rebuilds the exact slot table an HMux programs for this DIP list (the
    layout is deterministic) and returns the slots owned by the target —
    what the HA needs to invert the hash for SNAT.
    """
    if target_dip not in dips:
        raise SnatError(f"{format_ip(target_dip)} is not one of the DIPs")
    table = ResilientHashTable(
        list(range(len(dips))),
        n_slots=n_slots if n_slots is not None else len(dips),
        seed=hash_seed,
    )
    member = list(dips).index(target_dip)
    return tuple(
        slot for slot, owner in enumerate(table.slots()) if owner == member
    )
