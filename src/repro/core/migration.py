"""VIP migration across assignment epochs (paper S4.2, S8.6).

As traffic shifts, VIPs are added/removed and failures happen, the
controller periodically recomputes the assignment and migrates VIPs.
Three strategies, exactly as evaluated in Figure 20:

* **Sticky** (Duet's choice): recompute greedily but keep a VIP on its
  current switch unless moving reduces its MRU by more than a threshold
  delta (paper uses 0.05).  Avoids mass reshuffling (~3.5% of traffic
  migrated per epoch vs ~37% for Non-sticky).
* **Non-sticky**: recompute the assignment from scratch each epoch and
  migrate every VIP whose placement changed.
* **One-time**: assign once at epoch 0 and never adapt (the strawman
  whose HMux coverage decays to ~75%).

Every migration is routed *through the SMuxes* as a stepping stone:
withdraw-then-announce in two global phases, which (a) never requires a
switch to hold both the old and new VIPs at once — eliminating the
transitional memory deadlock of Figure 4 — and (b) keeps the VIP served
(by SMux) at every instant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import (
    Assignment,
    AssignmentConfig,
    GreedyAssigner,
)
from repro.net.routing import EcmpRouter
from repro.net.topology import Topology
from repro.workload.vips import VipDemand

#: The paper's Sticky threshold: "a VIP will migrate to a new assignment
#: only if doing so reduces the MRU by 5%".
DEFAULT_STICKY_DELTA = 0.05


class StepKind(enum.Enum):
    WITHDRAW = "withdraw"  # remove VIP from a switch; traffic -> SMux
    ANNOUNCE = "announce"  # program + announce VIP on a switch


@dataclass(frozen=True)
class MigrationStep:
    kind: StepKind
    vip_id: int
    switch_index: int


@dataclass
class MigrationPlan:
    """An ordered, deadlock-free migration between two assignments.

    All withdrawals come before all announcements (SMux stepping stone,
    Figure 4c); ``traffic_shuffled_bps`` is the VIP traffic that transits
    the SMuxes during the migration — the Figure 20b metric — i.e. the
    traffic of VIPs that were on an HMux and are moving elsewhere.
    """

    steps: List[MigrationStep]
    moved_vip_ids: List[int]
    traffic_shuffled_bps: float
    total_traffic_bps: float

    @property
    def shuffled_fraction(self) -> float:
        if self.total_traffic_bps == 0:
            return 0.0
        return self.traffic_shuffled_bps / self.total_traffic_bps

    def withdrawals(self) -> List[MigrationStep]:
        return [s for s in self.steps if s.kind is StepKind.WITHDRAW]

    def announcements(self) -> List[MigrationStep]:
        return [s for s in self.steps if s.kind is StepKind.ANNOUNCE]

    def validate_two_phase(self) -> bool:
        """True iff no announcement precedes any withdrawal (the property
        that guarantees freedom from transitional memory deadlock)."""
        seen_announce = False
        for step in self.steps:
            if step.kind is StepKind.ANNOUNCE:
                seen_announce = True
            elif seen_announce:
                return False
        return True


def diff_assignments(
    old: Optional[Assignment],
    new: Assignment,
) -> MigrationPlan:
    """Build the two-phase migration plan from ``old`` to ``new``."""
    old_map: Dict[int, int] = dict(old.vip_to_switch) if old else {}
    new_map = new.vip_to_switch
    steps: List[MigrationStep] = []
    moved: List[int] = []
    shuffled = 0.0

    # Phase 1: withdraw every VIP leaving its old switch.
    for vip_id, old_switch in sorted(old_map.items()):
        if new_map.get(vip_id) != old_switch:
            steps.append(MigrationStep(StepKind.WITHDRAW, vip_id, old_switch))
            moved.append(vip_id)
            demand = new.demands.get(vip_id)
            if demand is not None:
                shuffled += demand.traffic_bps
    # Phase 2: announce every VIP arriving at a new switch.
    for vip_id, new_switch in sorted(new_map.items()):
        if old_map.get(vip_id) != new_switch:
            steps.append(MigrationStep(StepKind.ANNOUNCE, vip_id, new_switch))
            if vip_id not in old_map:
                moved.append(vip_id)
    return MigrationPlan(
        steps=steps,
        moved_vip_ids=sorted(set(moved)),
        traffic_shuffled_bps=shuffled,
        total_traffic_bps=new.total_traffic_bps(),
    )


def _checked_delta(delta: float) -> float:
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return delta


class StickyMigrator:
    """Sticky re-assignment (S4.2): move a VIP only for a >= delta MRU win.

    The migrator keeps one :class:`GreedyAssigner` for its router's
    failure set, so every epoch after the first solves on warm
    path-fraction and leg caches.
    """

    def __init__(
        self,
        topology: Topology,
        config: AssignmentConfig = AssignmentConfig(),
        delta: float = DEFAULT_STICKY_DELTA,
        router: Optional[EcmpRouter] = None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.delta = _checked_delta(delta)
        self.assigner = GreedyAssigner(topology, config, router=router)

    def reassign(
        self,
        old: Optional[Assignment],
        demands: Sequence[VipDemand],
        delta: Optional[float] = None,
    ) -> Tuple[Assignment, MigrationPlan]:
        """Compute the sticky assignment for the new epoch and its plan
        (``delta``: this epoch's threshold instead of the migrator's)."""
        delta = self.delta if delta is None else _checked_delta(delta)
        old_map = old.vip_to_switch if old else {}
        new = self.assigner.place(
            demands, self.assigner.keep_or_move(old_map, delta)
        )
        return new, diff_assignments(old, new)


class NonStickyMigrator:
    """Fresh assignment each epoch; migrates everything that changed.

    "calculates the new assignment from scratch based on current traffic
    matrix, but migrates all the VIPs at the same time through SMuxes to
    avoid the memory deadlock problem" (S8.6).
    """

    def __init__(
        self,
        topology: Topology,
        config: AssignmentConfig = AssignmentConfig(),
        router: Optional[EcmpRouter] = None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.assigner = GreedyAssigner(topology, config, router=router)

    def reassign(
        self,
        old: Optional[Assignment],
        demands: Sequence[VipDemand],
    ) -> Tuple[Assignment, MigrationPlan]:
        new = self.assigner.assign(demands)
        return new, diff_assignments(old, new)


class OneTimeMigrator:
    """Assign at the first epoch, then only carry the map forward.

    VIPs added after epoch 0 go to the SMuxes.  As traffic drifts, a
    stale placement can push a resource past capacity; since One-time by
    definition never migrates, the operator's only remedy is to shed the
    overflowing VIP to the SMuxes — so carrying the map forward enforces
    capacity (heaviest VIPs first) and spills the rest.  This is what
    makes One-time's HMux coverage decay over the trace (Figure 20a).
    """

    def __init__(
        self,
        topology: Topology,
        config: AssignmentConfig = AssignmentConfig(),
    ) -> None:
        self.topology = topology
        self.config = config
        self.assigner = GreedyAssigner(topology, config)
        self._initial: Optional[Dict[int, int]] = None

    def reassign(
        self,
        old: Optional[Assignment],
        demands: Sequence[VipDemand],
    ) -> Tuple[Assignment, MigrationPlan]:
        assigner = self.assigner
        if self._initial is None:
            new = assigner.assign(demands)
            self._initial = dict(new.vip_to_switch)
            return new, diff_assignments(old, new)
        initial = self._initial

        def keep_or_shed(
            demand: VipDemand, link_util: np.ndarray, mem_util: np.ndarray
        ) -> Tuple[Optional[int], bool]:
            # No search ever runs, so a shed VIP never ends the pass.
            switch = initial.get(demand.vip_id)
            if switch is None:
                return None, False
            mru = assigner.placement_mru(
                demand, switch, link_util, mem_util, global_max=0.0
            )
            if mru is None or mru > 1.0:
                return None, False  # shed to SMux
            return switch, False

        new = assigner.place(
            demands, keep_or_shed,
            ordered=sorted(demands, key=lambda d: (-d.traffic_bps, d.vip_id)),
        )
        return new, diff_assignments(old, new)
