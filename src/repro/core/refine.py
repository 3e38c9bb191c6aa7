"""Local-search refinement of a VIP assignment (paper S9).

"The VIP assignment problem resembles bin packing problem, which has many
sophisticated solutions.  We plan to study them in future."  This module
supplies the natural next step beyond one greedy pass: hill-climbing
**move** and **swap** refinement that repeatedly relieves the most
utilized resource.

Each iteration finds the resource (link or switch memory) with peak
utilization, picks a VIP whose placement loads it, and tries (a) moving
that VIP to the switch minimizing the new MRU, or (b) swapping it with a
VIP on another switch.  A change is kept only if it strictly lowers the
network MRU; the loop stops at a local optimum or the iteration budget.

Refinement is intentionally *offline*: the migration machinery (S4.2)
executes the resulting diff through the SMux stepping stone like any
other re-assignment, so refinement quality trades directly against
traffic shuffled — the ablation bench measures both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.assignment import (
    Assignment,
    AssignmentConfig,
    GreedyAssigner,
)
from repro.net.topology import Topology
from repro.workload.vips import VipDemand


@dataclass
class RefinementResult:
    assignment: Assignment
    initial_mru: float
    final_mru: float
    moves: int
    iterations: int


class AssignmentRefiner:
    """Hill-climbing move/swap refinement."""

    def __init__(
        self,
        topology: Topology,
        config: AssignmentConfig = AssignmentConfig(),
        *,
        max_iterations: int = 200,
        min_gain: float = 1e-4,
    ) -> None:
        if max_iterations < 0:
            raise ValueError("iteration budget must be non-negative")
        self.topology = topology
        self.config = config
        self.max_iterations = max_iterations
        self.min_gain = min_gain

    def refine(self, assignment: Assignment) -> RefinementResult:
        """Refine in place-copy; the input assignment is not mutated."""
        greedy = GreedyAssigner(self.topology, self.config)
        placed: Dict[int, int] = dict(assignment.vip_to_switch)
        demands = assignment.demands
        link_util = assignment.link_utilization.copy()
        mem_util = assignment.memory_utilization.copy()
        initial_mru = self._mru(link_util, mem_util)
        moves = 0
        iterations = 0

        for iterations in range(1, self.max_iterations + 1):
            # One peak-resource scan per iteration: both the current MRU
            # and the candidate pick below read from it, instead of each
            # re-deriving the argmax/max from scratch.
            peaks = self._peak_resource(link_util, mem_util)
            peak_link, link_peak, peak_switch, mem_peak = peaks
            current_mru = max(link_peak, mem_peak)
            candidates = self._vips_on_peak(
                placed, demands, greedy,
                peak_link, link_peak, peak_switch, mem_peak,
            )
            improved = False
            for vip_id in candidates:
                if self._try_move(
                    vip_id, placed, demands, link_util, mem_util,
                    greedy, current_mru,
                ):
                    moves += 1
                    improved = True
                    break
            if not improved:
                break
        final = Assignment(
            topology=self.topology,
            config=assignment.config,
            vip_to_switch=placed,
            unassigned=list(assignment.unassigned),
            link_utilization=link_util,
            memory_utilization=mem_util,
            demands=dict(demands),
        )
        return RefinementResult(
            assignment=final,
            initial_mru=initial_mru,
            final_mru=self._mru(link_util, mem_util),
            moves=moves,
            iterations=iterations,
        )

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _mru(link_util: np.ndarray, mem_util: np.ndarray) -> float:
        peak = float(link_util.max()) if len(link_util) else 0.0
        if len(mem_util):
            peak = max(peak, float(mem_util.max()))
        return peak

    @staticmethod
    def _peak_resource(
        link_util: np.ndarray, mem_util: np.ndarray
    ) -> Tuple[int, float, int, float]:
        """Locate the most-utilized link and switch memory in one scan.

        Returns ``(peak_link, link_peak, peak_switch, mem_peak)``;
        ``max(link_peak, mem_peak)`` is the network MRU, so callers never
        need a separate ``_mru`` pass per iteration.
        """
        peak_link = int(np.argmax(link_util)) if len(link_util) else -1
        link_peak = float(link_util[peak_link]) if peak_link >= 0 else 0.0
        peak_switch = int(np.argmax(mem_util)) if len(mem_util) else -1
        mem_peak = float(mem_util[peak_switch]) if peak_switch >= 0 else 0.0
        return peak_link, link_peak, peak_switch, mem_peak

    def _vips_on_peak(
        self,
        placed: Dict[int, int],
        demands: Dict[int, VipDemand],
        greedy: GreedyAssigner,
        peak_link: int,
        link_peak: float,
        peak_switch: int,
        mem_peak: float,
    ) -> List[int]:
        """VIPs contributing to the most-utilized resource, biggest
        contribution first."""
        scored: List[Tuple[float, int]] = []
        if link_peak >= mem_peak:
            for vip_id, switch in placed.items():
                idx, util = greedy.calculator.load_vector(
                    demands[vip_id], switch
                )
                mask = idx == peak_link
                if mask.any():
                    scored.append((float(util[mask].sum()), vip_id))
        else:
            for vip_id, switch in placed.items():
                if switch == peak_switch:
                    scored.append((
                        demands[vip_id].n_dips / greedy.dip_capacity,
                        vip_id,
                    ))
        scored.sort(reverse=True)
        return [vip_id for _score, vip_id in scored[:8]]

    def _try_move(
        self,
        vip_id: int,
        placed: Dict[int, int],
        demands: Dict[int, VipDemand],
        link_util: np.ndarray,
        mem_util: np.ndarray,
        greedy: GreedyAssigner,
        current_mru: float,
    ) -> bool:
        """Move one VIP to the best other switch if it lowers the MRU."""
        demand = demands[vip_id]
        old_switch = placed[vip_id]
        # Lift the VIP out.
        greedy.calculator.apply(link_util, demand, old_switch, sign=-1.0)
        mem_util[old_switch] -= demand.n_dips / greedy.dip_capacity
        choice = greedy.best_switch(demand, link_util, mem_util)
        if choice is not None:
            new_switch, new_mru = choice
            if (
                new_switch != old_switch
                and new_mru < current_mru - self.min_gain
            ):
                greedy.calculator.apply(link_util, demand, new_switch)
                mem_util[new_switch] += demand.n_dips / greedy.dip_capacity
                placed[vip_id] = new_switch
                return True
        # Put it back.
        greedy.calculator.apply(link_util, demand, old_switch)
        mem_util[old_switch] += demand.n_dips / greedy.dip_capacity
        return False
