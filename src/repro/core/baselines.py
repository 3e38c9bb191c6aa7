"""Baseline VIP assignment strategies.

The paper compares the MRU-greedy assignment against **Random** (S8.4,
Figure 18): "a random strategy that selects the first feasible switch
that does not violate the link or switch memory capacity ... a variant of
FFD (First Fit Decreasing) as the VIPs are assigned in the sorted order
of decreasing traffic volume".  Random needs 120%-307% more SMuxes
because it packs VIPs poorly and strands capacity.

``FirstFitAssigner`` is an extra ablation: first feasible switch in a
*fixed* (index) order rather than a random order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.assignment import (
    Assignment,
    AssignmentConfig,
    GreedyAssigner,
)
from repro.net.topology import Topology
from repro.workload.vips import VipDemand


class _FeasibleFirstAssigner:
    """Shared machinery: walk candidates in some order, take the first
    placement that keeps every resource within capacity."""

    def __init__(
        self,
        topology: Topology,
        config: AssignmentConfig = AssignmentConfig(),
    ) -> None:
        self.topology = topology
        self.config = config
        self._greedy = GreedyAssigner(topology, config)

    def _candidate_order(
        self, candidates: List[int], rng: random.Random
    ) -> List[int]:
        raise NotImplementedError

    def assign(self, demands: Sequence[VipDemand]) -> Assignment:
        rng = random.Random(self.config.seed)
        greedy = self._greedy

        def first_feasible(
            demand: VipDemand, link_util: np.ndarray, mem_util: np.ndarray
        ) -> Tuple[Optional[int], bool]:
            for switch in self._candidate_order(greedy._candidates, rng):
                mru = greedy.placement_mru(
                    demand, switch, link_util, mem_util, global_max=0.0
                )
                if mru is not None and mru <= 1.0:
                    return switch, False
            return None, True

        return greedy.place(
            demands, first_feasible,
            ordered=sorted(demands, key=lambda d: (-d.traffic_bps, d.vip_id)),
        )


class RandomAssigner(_FeasibleFirstAssigner):
    """The paper's Random baseline: first feasible switch in a random
    order, VIPs in decreasing traffic order (FFD variant, S8.4)."""

    def _candidate_order(
        self, candidates: List[int], rng: random.Random
    ) -> List[int]:
        shuffled = list(candidates)
        rng.shuffle(shuffled)
        return shuffled


class FirstFitAssigner(_FeasibleFirstAssigner):
    """Ablation: first feasible switch in fixed index order (ToRs first).
    Concentrates load even harder than Random."""

    def _candidate_order(
        self, candidates: List[int], rng: random.Random
    ) -> List[int]:
        return candidates
