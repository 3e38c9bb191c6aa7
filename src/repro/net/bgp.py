"""BGP-style VIP route announcement, the glue of the Duet design.

Duet uses exactly two BGP behaviours (paper S3.3.1 and S5.1):

1. **Longest prefix match preference.**  Every SMux announces all VIPs in
   covering *aggregate* prefixes, while each HMux announces /32 routes for
   the VIPs assigned to it.  LPM therefore prefers the HMux whenever it is
   alive; when its /32 is withdrawn the very same lookup falls back to the
   SMux aggregate — this is the "SMux as backstop" mechanism.

2. **Convergence delay.**  Failure detection plus route withdrawal takes
   tens of milliseconds (the paper measures <40 ms, Figure 12) during which
   traffic to the failed HMux is blackholed.

:class:`VipRouteTable` implements (1) exactly; (2) is a set of timing
constants (:class:`BgpTimings`) consumed by the discrete-event simulator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.net.addressing import LpmTable, Prefix, format_ip


class MuxKind(enum.Enum):
    """Which data plane a route points at."""

    HMUX = "hmux"
    SMUX = "smux"


@dataclass(frozen=True, order=True)
class MuxRef:
    """Identity of a Mux instance.

    For an HMux, ``ident`` is the switch index in the topology; for an
    SMux it is the SMux instance id.
    """

    kind: MuxKind
    ident: int

    @classmethod
    def hmux(cls, switch_index: int) -> "MuxRef":
        return cls(MuxKind.HMUX, switch_index)

    @classmethod
    def smux(cls, smux_id: int) -> "MuxRef":
        return cls(MuxKind.SMUX, smux_id)

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.ident}"


class RouteResolutionError(Exception):
    """No route covers the requested VIP."""


class _NextHopSet:
    """The ECMP set of next hops for one prefix.

    Announcements from multiple muxes for the same prefix form an ECMP
    group (this is how multiple SMuxes share the aggregate, and how a
    replicated VIP would share its /32).  Selection is deterministic in the
    flow hash so a flow keeps hitting the same mux while membership is
    stable.
    """

    def __init__(self) -> None:
        self._hops: List[MuxRef] = []

    def __len__(self) -> int:
        return len(self._hops)

    def __contains__(self, hop: MuxRef) -> bool:
        return hop in self._hops

    def add(self, hop: MuxRef) -> bool:
        if hop in self._hops:
            return False
        self._hops.append(hop)
        self._hops.sort()
        return True

    def remove(self, hop: MuxRef) -> bool:
        if hop not in self._hops:
            return False
        self._hops.remove(hop)
        return True

    def members(self) -> Tuple[MuxRef, ...]:
        return tuple(self._hops)


#: Salt the fabric's ECMP route hash XORs into a deployment's
#: ``hash_seed``, so picking among equal-cost muxes (``resolve``'s
#: ``flow_hash``) is decorrelated from the muxes' own DIP-selection hash.
ROUTE_HASH_SALT = 0xECC


class VipRouteTable:
    """The network-wide VIP routing view.

    This models the converged state of BGP across the fabric: one logical
    LPM table mapping VIP prefixes to ECMP sets of muxes.  The discrete
    event simulator applies announce/withdraw calls only after the modelled
    propagation delays, so the table itself is instantaneous.
    """

    def __init__(self) -> None:
        self._lpm = LpmTable()
        self._announcements: Dict[MuxRef, Set[Prefix]] = {}
        # Monotone announce versions, one clock per table.  Each fresh
        # (prefix, mux) announcement gets a new version; a version-
        # carrying withdraw only removes the announcement it was issued
        # against, so a delayed/reordered withdraw can never erase a
        # newer re-announcement (the stale-withdraw race).
        self._versions: Dict[Tuple[Prefix, MuxRef], int] = {}
        self._version_clock = 0
        self.stale_withdraws_ignored = 0
        # VIP -> next_hops(VIP), emptied by every route change.
        self._hop_cache: Dict[int, Tuple[MuxRef, ...]] = {}

    # -- announcements -----------------------------------------------------

    def announce(self, prefix: Prefix, mux: MuxRef) -> bool:
        """Announce ``prefix`` from ``mux``; False if already announced."""
        hops = self._lpm.get_exact(prefix)
        if hops is None:
            hops = _NextHopSet()
            self._lpm.insert(prefix, hops)
        assert isinstance(hops, _NextHopSet)
        added = hops.add(mux)
        if added:
            self._hop_cache.clear()
            self._announcements.setdefault(mux, set()).add(prefix)
            self._version_clock += 1
            self._versions[(prefix, mux)] = self._version_clock
        return added

    def announce_version(
        self, prefix: Prefix, mux: MuxRef
    ) -> Optional[int]:
        """Version of the live (prefix, mux) announcement, or None.  Pass
        it back to :meth:`withdraw` to make the withdrawal stale-safe."""
        return self._versions.get((prefix, mux))

    def withdraw(
        self,
        prefix: Prefix,
        mux: MuxRef,
        *,
        version: Optional[int] = None,
    ) -> bool:
        """Withdraw ``prefix`` from ``mux``; False if it was not announced.

        When ``version`` is given, the withdraw only applies if the live
        announcement still carries that version: a stale withdraw (one
        issued before a re-announce, arriving after it) is ignored and
        counted in :attr:`stale_withdraws_ignored`.  ``version=None``
        withdraws unconditionally (session loss semantics).
        """
        if (
            version is not None
            and self._versions.get((prefix, mux)) != version
        ):
            self.stale_withdraws_ignored += 1
            return False
        hops = self._lpm.get_exact(prefix)
        if hops is None:
            return False
        assert isinstance(hops, _NextHopSet)
        removed = hops.remove(mux)
        if removed:
            self._hop_cache.clear()
            self._versions.pop((prefix, mux), None)
            owned = self._announcements.get(mux)
            if owned is not None:
                owned.discard(prefix)
                if not owned:
                    del self._announcements[mux]
            if not len(hops):
                self._lpm.remove(prefix)
        return removed

    def withdraw_all(self, mux: MuxRef) -> int:
        """Withdraw every prefix announced by ``mux`` (switch death);
        returns the number of routes withdrawn."""
        owned = list(self._announcements.get(mux, ()))
        for prefix in owned:
            self.withdraw(prefix, mux)
        return len(owned)

    def announced_by(self, mux: MuxRef) -> Set[Prefix]:
        return set(self._announcements.get(mux, set()))

    def stale_routes(
        self, live: Set[MuxRef]
    ) -> List[Tuple[Prefix, MuxRef]]:
        """Routes announced by muxes outside ``live`` — each one is a
        blackhole in waiting (a dead mux attracting traffic).  The chaos
        invariant checker asserts this list is empty after every event."""
        stale: List[Tuple[Prefix, MuxRef]] = []
        for mux, prefixes in self._announcements.items():
            if mux in live:
                continue
            for prefix in sorted(prefixes):
                stale.append((prefix, mux))
        return stale

    def announcers(self, prefix: Prefix) -> Tuple[MuxRef, ...]:
        hops = self._lpm.get_exact(prefix)
        if hops is None:
            return ()
        assert isinstance(hops, _NextHopSet)
        return hops.members()

    # -- resolution ----------------------------------------------------------

    def resolve(self, vip: int, flow_hash: int = 0) -> MuxRef:
        """LPM resolution of a VIP address to a mux.

        Raises :class:`RouteResolutionError` when nothing covers the VIP
        (a blackhole — the simulator counts these as drops).
        """
        hops = self.next_hops(vip)
        if not hops:
            raise RouteResolutionError(f"no route for VIP {format_ip(vip)}")
        return hops[flow_hash % len(hops)]

    def next_hops(self, vip: int) -> Tuple[MuxRef, ...]:
        """The ECMP set LPM picks for ``vip``, ordered as :meth:`resolve`
        indexes it by flow hash; empty when nothing covers the VIP."""
        hops = self._hop_cache.get(vip)
        if hops is None:
            match = self._lpm.lookup(vip)
            hops = self._hop_cache[vip] = () if match is None else match.members()
        return hops

    def routes(self) -> Iterator[Tuple[Prefix, Tuple[MuxRef, ...]]]:
        for prefix, hops in self._lpm.entries():
            assert isinstance(hops, _NextHopSet)
            yield prefix, hops.members()

    def __len__(self) -> int:
        return len(self._lpm)


@dataclass(frozen=True)
class BgpTimings:
    """Control-plane latencies, calibrated to the paper's testbed.

    * ``failure_detection_s`` + ``withdraw_propagation_s``: the paper's
      Figure 12 shows VIP traffic resuming on the SMux backstop 38 ms after
      an HMux dies; we split that into neighbour detection and BGP
      withdrawal propagation.
    * ``fib_update_s`` dominates VIP migration latency: Figure 14 reports
      add/delete-VIP taking ~400-450 ms, "almost all (80-90%) ... due to
      the latency of adding/removing the VIP to/from the FIB".
    * ``announce_propagation_s``: BGP update convergence measured tens of
      milliseconds in Figure 14.
    """

    failure_detection_s: float = 0.020
    withdraw_propagation_s: float = 0.018
    announce_propagation_s: float = 0.050
    fib_update_vip_s: float = 0.380
    fib_update_dip_s: float = 0.020

    @property
    def failover_s(self) -> float:
        """Total blackhole window after an HMux failure (~38 ms)."""
        return self.failure_detection_s + self.withdraw_propagation_s

    @property
    def vip_add_s(self) -> float:
        """End-to-end latency to add a VIP to an HMux and converge."""
        return self.fib_update_vip_s + self.announce_propagation_s

    @property
    def dip_update_s(self) -> float:
        """Latency to add/remove one DIP set on an HMux."""
        return self.fib_update_dip_s
