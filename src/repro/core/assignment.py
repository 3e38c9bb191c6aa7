"""The Duet VIP-switch assignment algorithm (paper S4, Table 1).

VIP assignment is a variant of multi-dimensional bin packing (NP-hard);
Duet approximates it greedily: VIPs are considered in decreasing traffic
order and each is placed on the switch that minimizes the **maximum
resource utilization** (MRU) across all links and switch memories.  If no
placement keeps MRU <= 100%, the algorithm terminates and the remaining
VIPs are "not assigned to any switch - their traffic will be handled by
the SMuxes".

Resources (Table 1):

* every directional **link**, with effective capacity set to 80% of the
  raw bandwidth "to absorb the potential transient congestion during VIP
  migration and network failures",
* every switch's **memory**: the DIP entries of the VIPs assigned to it,
  bounded by min(free ECMP entries, free tunneling entries) ~ 512,
* one global budget: every switch must install a /32 host-table route for
  *every* HMux-assigned VIP (that is how traffic finds the owning HMux),
  so at most ~16K VIPs can be on HMuxes in total (S3.3.2, S8.2).

The extra link utilization of assigning VIP v to switch s is computed
from the topology and ECMP routing: v's ingress traffic flows from each
ingress point to s, and encapsulated traffic flows from s to each rack
hosting one of v's DIPs.

The container decomposition of S4.2/Figure 5 is implemented by
``candidate_strategy="container-best-tor"``: assigning a VIP to different
ToRs of one container only changes utilization *inside* that container,
so the algorithm first picks the best ToR per container by container-
local MRU and only evaluates that ToR globally, shrinking the candidate
set from |S_tor| to |C|.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence,
    Tuple,
)

import numpy as np

from repro.core.fastassign import FastAssignEngine, stats_for
from repro.net.routing import EcmpRouter, UnreachableError
from repro.net.topology import SwitchKind, Topology
from repro.workload.vips import VipDemand


class AssignmentError(Exception):
    """Invalid assignment configuration or state."""


#: VIP processing orders.  The paper uses decreasing traffic and notes
#: "other orderings are possible (e.g., consider VIPs with latency
#: sensitive traffic first)" (S9); the alternatives exist for ablation.
VIP_ORDERS = (
    "traffic-desc", "traffic-asc", "dips-desc", "random", "latency-first",
)


@dataclass(frozen=True)
class AssignmentConfig:
    """Tunables of the greedy assignment."""

    link_headroom: float = 0.8
    candidate_strategy: str = "container-best-tor"  # or "exhaustive"
    stop_on_first_failure: bool = True       # paper semantics (S4.1)
    vip_order: str = "traffic-desc"          # paper default (S4.1)
    seed: int = 0                            # tie-breaking randomness

    def __post_init__(self) -> None:
        if not 0 < self.link_headroom <= 1.0:
            raise AssignmentError("link_headroom must be in (0, 1]")
        if self.candidate_strategy not in ("container-best-tor", "exhaustive"):
            raise AssignmentError(
                f"unknown candidate strategy: {self.candidate_strategy}"
            )
        if self.vip_order not in VIP_ORDERS:
            raise AssignmentError(f"unknown VIP order: {self.vip_order}")

    def order_demands(self, demands: Sequence["VipDemand"]) -> List["VipDemand"]:
        """The processing order the greedy pass uses."""
        if self.vip_order == "traffic-desc":
            return sorted(demands, key=lambda d: (-d.traffic_bps, d.vip_id))
        if self.vip_order == "traffic-asc":
            return sorted(demands, key=lambda d: (d.traffic_bps, d.vip_id))
        if self.vip_order == "dips-desc":
            return sorted(demands, key=lambda d: (-d.n_dips, d.vip_id))
        if self.vip_order == "latency-first":
            # S9: "consider VIPs with latency sensitive traffic first" so
            # they land on HMuxes even when capacity runs out.
            return sorted(demands, key=lambda d: (
                0 if d.latency_sensitive else 1, -d.traffic_bps, d.vip_id,
            ))
        shuffled = list(demands)
        random.Random(self.seed ^ 0x5EED).shuffle(shuffled)
        return shuffled


@dataclass
class Assignment:
    """The result: which switch hosts each VIP, and the utilization state."""

    topology: Topology
    config: AssignmentConfig
    vip_to_switch: Dict[int, int]
    unassigned: List[int]
    link_utilization: np.ndarray
    memory_utilization: np.ndarray
    demands: Dict[int, VipDemand]

    @property
    def mru(self) -> float:
        """Maximum resource utilization across links and switch memory."""
        return float(max(self.link_utilization.max(initial=0.0),
                         self.memory_utilization.max(initial=0.0)))

    @property
    def n_assigned(self) -> int:
        return len(self.vip_to_switch)

    def assigned_traffic_bps(self) -> float:
        return sum(
            self.demands[vid].traffic_bps for vid in self.vip_to_switch
        )

    def unassigned_traffic_bps(self) -> float:
        return sum(self.demands[vid].traffic_bps for vid in self.unassigned)

    def total_traffic_bps(self) -> float:
        return sum(d.traffic_bps for d in self.demands.values())

    def hmux_traffic_fraction(self) -> float:
        """Fraction of total VIP traffic handled by HMuxes (Figure 20a)."""
        total = self.total_traffic_bps()
        if total == 0:
            return 1.0
        return self.assigned_traffic_bps() / total


#: Past this many memoized load vectors the cache is dropped wholesale
#: (greedy + refine on the paper's scale stay far below it; the cap only
#: guards against unbounded growth under adversarial demand churn).
_LOAD_CACHE_MAX = 65536


class LoadCalculator:
    """Computes the sparse extra-utilization vector L_{i,s,v} (Table 1).

    Path-fraction vectors are cached per (src, dst) pair as parallel
    (link index, fraction) numpy arrays; the Internet ingress pattern
    (spread equally over core switches, S2) is shared by all VIPs and
    cached per candidate switch.  Full load vectors are additionally
    memoized per (demand, candidate switch): :class:`VipDemand` is
    frozen and the router's failure set is fixed at construction, so a
    vector never goes stale for the lifetime of one calculator.  The
    greedy assigner probes every candidate switch per VIP and the
    refinement passes re-probe the same pairs repeatedly, so this turns
    the dominant cost from recompute into a dict hit.  Cached arrays
    are returned write-protected; callers must not mutate them.
    """

    def __init__(
        self,
        topology: Topology,
        router: Optional[EcmpRouter] = None,
        link_headroom: float = 0.8,
    ) -> None:
        self.topology = topology
        self.router = router if router is not None else EcmpRouter(topology)
        self._capacity = (
            np.asarray(topology.link_capacities()) * link_headroom
        )
        self._pf_cache: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._internet_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._diffuse_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._load_cache: Dict[
            Tuple[VipDemand, int], Tuple[np.ndarray, np.ndarray]
        ] = {}
        alive_cores = [
            c for c in topology.cores()
            if c not in self.router.failed_switches
        ]
        self._cores = alive_cores
        self._alive_tors = [
            t for t in topology.tors()
            if t not in self.router.failed_switches
        ]

    def _pf(self, src: int, dst: int) -> Tuple[np.ndarray, np.ndarray]:
        key = (src, dst)
        cached = self._pf_cache.get(key)
        if cached is not None:
            return cached
        fractions = self.router.path_fractions(src, dst)
        idx = np.fromiter(fractions.keys(), dtype=np.int64, count=len(fractions))
        val = np.fromiter(fractions.values(), dtype=float, count=len(fractions))
        self._pf_cache[key] = (idx, val)
        return idx, val

    def _internet_pf(self, dst: int) -> Tuple[np.ndarray, np.ndarray]:
        """Average path-fraction vector from all (alive) cores to dst."""
        cached = self._internet_cache.get(dst)
        if cached is not None:
            return cached
        if not self._cores:
            raise UnreachableError(-1, dst)
        acc: Dict[int, float] = {}
        share = 1.0 / len(self._cores)
        for core in self._cores:
            for link, fraction in self.router.path_fractions(core, dst).items():
                acc[link] = acc.get(link, 0.0) + fraction * share
        idx = np.fromiter(acc.keys(), dtype=np.int64, count=len(acc))
        val = np.fromiter(acc.values(), dtype=float, count=len(acc))
        self._internet_cache[dst] = (idx, val)
        return idx, val

    def _diffuse_pf(self, dst: int) -> Tuple[np.ndarray, np.ndarray]:
        """Average path-fraction vector from every alive rack to dst —
        the template pricing diffuse (DC-wide) intra ingress."""
        cached = self._diffuse_cache.get(dst)
        if cached is not None:
            return cached
        if not self._alive_tors:
            raise UnreachableError(-1, dst)
        acc: Dict[int, float] = {}
        share = 1.0 / len(self._alive_tors)
        for tor in self._alive_tors:
            if tor == dst:
                continue
            for link, fraction in self.router.path_fractions(tor, dst).items():
                acc[link] = acc.get(link, 0.0) + fraction * share
        idx = np.fromiter(acc.keys(), dtype=np.int64, count=len(acc))
        val = np.fromiter(acc.values(), dtype=float, count=len(acc))
        self._diffuse_cache[dst] = (idx, val)
        return idx, val

    def load_vector(
        self, demand: VipDemand, switch_index: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sparse additional *utilization* on links if ``demand`` lands on
        ``switch_index``: (link indices, added utilization).  Indices may
        repeat; callers accumulate.  The result is memoized per
        (demand, switch) and returned as write-protected arrays — treat
        them as read-only.

        Under failures, traffic sourced at dead racks has *disappeared*
        (S8.5) and DIPs on dead racks no longer receive a share (their
        flows re-spread over the survivors) — neither makes a placement
        infeasible.  Only a candidate unreachable from the live network
        (or a VIP with no surviving DIPs) raises
        :class:`UnreachableError` (never cached, so transient callers
        that catch it see consistent behavior on retry).
        """
        key = (demand, switch_index)
        cached = self._load_cache.get(key)
        if cached is not None:
            return cached
        idx, util = self._compute_load_vector(demand, switch_index)
        idx.setflags(write=False)
        util.setflags(write=False)
        if len(self._load_cache) >= _LOAD_CACHE_MAX:
            self._load_cache.clear()
        self._load_cache[key] = (idx, util)
        return idx, util

    def invalidate(self) -> None:
        """Drop the memoized load vectors (path-fraction caches stay:
        they depend only on the topology and the frozen failure set)."""
        self._load_cache.clear()

    def _compute_load_vector(
        self, demand: VipDemand, switch_index: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        failed = self.router.failed_switches
        parts_idx: List[np.ndarray] = []
        parts_val: List[np.ndarray] = []
        traffic = demand.traffic_bps
        # Ingress legs: client racks -> s (dead racks' traffic vanished).
        for tor, fraction in demand.ingress_racks:
            if tor in failed:
                continue
            idx, val = self._pf(tor, switch_index)
            parts_idx.append(idx)
            parts_val.append(val * (traffic * fraction))
        # Internet leg: cores -> s.
        if demand.internet_fraction > 0:
            idx, val = self._internet_pf(switch_index)
            parts_idx.append(idx)
            parts_val.append(val * (traffic * demand.internet_fraction))
        # Diffuse intra leg: uniformly from every rack -> s.
        diffuse = demand.diffuse_intra_fraction
        if diffuse > 1e-12:
            idx, val = self._diffuse_pf(switch_index)
            parts_idx.append(idx)
            parts_val.append(val * (traffic * diffuse))
        # DIP legs: s -> racks; the survivors share the traffic
        # (resilient hashing re-spreads the dead DIPs' flows).
        alive_dip_tors = [
            (tor, count) for tor, count in demand.dip_tors
            if tor not in failed
        ]
        alive_dips = sum(count for _, count in alive_dip_tors)
        if alive_dips == 0 and demand.n_dips > 0:
            raise UnreachableError(switch_index, switch_index)
        if alive_dips > 0:
            per_dip = traffic / alive_dips
            for tor, count in alive_dip_tors:
                idx, val = self._pf(switch_index, tor)
                parts_idx.append(idx)
                parts_val.append(val * (per_dip * count))
        if not parts_idx:
            return (np.empty(0, dtype=np.int64), np.empty(0))
        idx = np.concatenate(parts_idx)
        load = np.concatenate(parts_val)
        return idx, load / self._capacity[idx]

    def apply(
        self,
        link_utilization: np.ndarray,
        demand: VipDemand,
        switch_index: int,
        sign: float = 1.0,
    ) -> None:
        """Accumulate (or with sign=-1, remove) a placement's utilization
        into a dense per-link utilization vector."""
        idx, util = self.load_vector(demand, switch_index)
        np.add.at(link_utilization, idx, sign * util)


#: What the placement driver asks per demand, given the utilization
#: committed so far: the switch to put it on (None: no switch, the SMuxes
#: serve it) and whether the greedy search itself came up empty — the
#: S4.1 termination condition under ``stop_on_first_failure``.
PlacementPolicy = Callable[
    [VipDemand, np.ndarray, np.ndarray], Tuple[Optional[int], bool]
]


class GreedyAssigner:
    """The greedy MRU-minimizing assignment (paper S4.1).

    Candidates are scored by the vectorized backend
    (:mod:`repro.core.fastassign`) when its dense evaluation fits the
    fabric (``n_switches x n_links <= DENSE_CELL_LIMIT``) and by the
    per-candidate reference walk otherwise; ``engine_name`` says which.
    The two are placement-identical by contract — the differential tier
    (``tests/test_assign_differential.py``) reaches the walk by lowering
    that limit.

    An assigner is built for one router, i.e. one frozen failure set,
    and is meant to be kept across solves: everything it caches between
    them (path fractions, leg matrices, demand structures) depends on
    the topology and that failure set only.
    """

    def __init__(
        self,
        topology: Topology,
        config: AssignmentConfig = AssignmentConfig(),
        router: Optional[EcmpRouter] = None,
    ) -> None:
        self.topology = topology
        self.config = config
        self.calculator = LoadCalculator(
            topology, router=router, link_headroom=config.link_headroom
        )
        # Switch memory: the table spec bounds the DIPs one switch holds
        # and the VIPs the whole fabric can host.
        tables = topology.params.tables
        self.dip_capacity = tables.dip_capacity
        self.host_table_budget = tables.host_table
        self._candidates = self._candidate_switches()
        fast = FastAssignEngine(
            topology, self.calculator, self.config,
            self.dip_capacity, self._candidates,
        )
        self._engine: Optional[FastAssignEngine] = fast
        self.engine_name = "fast"
        if not fast.supported:
            # Dense evaluation would not fit this fabric: count the
            # fallback and run the reference walk.
            fast.stats.fallbacks += 1
            self._engine = None
            self.engine_name = "scalar"
        self.stats = stats_for(self.engine_name)

    def _candidate_switches(self) -> List[int]:
        failed = self.calculator.router.failed_switches
        return [
            s.index for s in self.topology.switches if s.index not in failed
        ]

    # -- public API ----------------------------------------------------------

    def assign(self, demands: Sequence[VipDemand]) -> Assignment:
        """Assign all demands from scratch: the sticky pass with no old
        map, so every VIP goes to its best switch."""
        return self.place(demands, self.keep_or_move({}, 0.0))

    def place(
        self,
        demands: Sequence[VipDemand],
        policy: PlacementPolicy,
        ordered: Optional[Sequence[VipDemand]] = None,
    ) -> Assignment:
        """The one placement pass every strategy runs: walk the demands
        in the configured order (or ``ordered``), let ``policy`` pick
        each one's switch, and commit it — within the global host-route
        budget, skipping VIPs no single HMux can hold, and terminating
        once the greedy search finds no feasible switch."""
        started = time.perf_counter()
        link_util = np.zeros(self.topology.n_links)
        mem_util = np.zeros(self.topology.n_switches)
        placed: Dict[int, int] = {}
        unassigned: List[int] = []
        if ordered is None:
            ordered = self.config.order_demands(demands)
        stopped = False
        for demand in ordered:
            if stopped or len(placed) >= self.host_table_budget:
                unassigned.append(demand.vip_id)
                continue
            if demand.n_dips > self.dip_capacity:
                # Cannot fit any single HMux (would need TIP indirection);
                # handled by SMuxes.
                unassigned.append(demand.vip_id)
                continue
            target, exhausted = policy(demand, link_util, mem_util)
            if target is None:
                unassigned.append(demand.vip_id)
                if exhausted and self.config.stop_on_first_failure:
                    stopped = True
                continue
            self._commit(demand, target, link_util, mem_util)
            placed[demand.vip_id] = target
        # Load vectors are keyed on this solve's demands; an assigner
        # that lives across epochs must not accumulate them.
        self.calculator.invalidate()
        self.stats.record_solve(time.perf_counter() - started)
        return Assignment(
            topology=self.topology,
            config=self.config,
            vip_to_switch=placed,
            unassigned=unassigned,
            link_utilization=link_util,
            memory_utilization=mem_util,
            demands={d.vip_id: d for d in demands},
        )

    def keep_or_move(
        self, old_map: Mapping[int, int], delta: float
    ) -> PlacementPolicy:
        """The sticky rule (S4.2): a VIP stays on its (alive, still
        feasible) switch in ``old_map`` unless the best fresh placement
        lowers its MRU by more than ``delta``; a VIP with no current
        switch takes the best fresh placement."""
        failed = self.calculator.router.failed_switches

        def policy(
            demand: VipDemand, link_util: np.ndarray, mem_util: np.ndarray
        ) -> Tuple[Optional[int], bool]:
            current = old_map.get(demand.vip_id)
            if current in failed:
                current = None
            choice, keep_mru = self.score(
                demand, link_util, mem_util, current
            )
            # Staying put is allowed even when no fresh placement fits,
            # as long as the current switch remains feasible.
            if keep_mru is not None and keep_mru <= 1.0 and (
                choice is None or keep_mru - choice[1] <= delta
            ):
                return current, False  # not worth the reshuffle
            if choice is None:
                return None, True
            return choice[0], False

        return policy

    def best_switch(
        self,
        demand: VipDemand,
        link_util: np.ndarray,
        mem_util: np.ndarray,
    ) -> Optional[Tuple[int, float]]:
        """The feasible switch minimizing MRU for this demand, with its
        resulting MRU; None if every placement would exceed capacity."""
        return self.score(demand, link_util, mem_util)[0]

    def score(
        self,
        demand: VipDemand,
        link_util: np.ndarray,
        mem_util: np.ndarray,
        current: Optional[int] = None,
    ) -> Tuple[Optional[Tuple[int, float]], Optional[float]]:
        """One scoring pass over the switches: :meth:`best_switch`'s
        answer, and beside it the MRU of placing the demand on
        ``current`` (:meth:`placement_mru`'s value; None when no switch
        is named or it is infeasible) — the two numbers the sticky rule
        weighs against each other."""
        if self._engine is not None:
            return self._engine.score(
                self, demand, link_util, mem_util, current,
            )
        # The reference walk: each candidate's load vector in turn.
        candidates = self._effective_candidates(demand, link_util, mem_util)
        self.stats.candidate_evaluations += len(candidates)
        global_max = self._global_max(link_util, mem_util)
        scored = (
            (
                switch_index,
                self.placement_mru(
                    demand, switch_index, link_util, mem_util,
                    global_max=global_max,
                ),
            )
            for switch_index in candidates
        )
        choice = self._select_best(demand, scored)
        if current is None:
            return choice, None
        return choice, self.placement_mru(
            demand, current, link_util, mem_util, global_max=global_max,
        )

    def _select_best(
        self,
        demand: VipDemand,
        scored: Iterable[Tuple[int, Optional[float]]],
    ) -> Optional[Tuple[int, float]]:
        """Shared selection over (candidate, MRU-or-None) pairs — both
        engines feed this one loop so epsilon comparisons and the seeded
        tie-break behave identically."""
        best: List[int] = []
        best_mru = float("inf")
        for switch_index, mru in scored:
            if mru is None:
                continue
            if mru < best_mru - 1e-12:
                best = [switch_index]
                best_mru = mru
            elif abs(mru - best_mru) <= 1e-12:
                best.append(switch_index)
        if not best or best_mru > 1.0:
            return None
        # "breaking ties at random" (S4.1).  The randomness is seeded per
        # VIP so the same VIP in an (almost) unchanged landscape breaks
        # its tie the same way across epochs — random placement without
        # artificial epoch-to-epoch churn.
        tie_rng = random.Random((self.config.seed << 20) ^ demand.vip_id)
        return tie_rng.choice(best), best_mru

    def placement_mru(
        self,
        demand: VipDemand,
        switch_index: int,
        link_util: np.ndarray,
        mem_util: np.ndarray,
        *,
        global_max: Optional[float] = None,
        link_subset: Optional[np.ndarray] = None,
    ) -> Optional[float]:
        """MRU after placing ``demand`` on ``switch_index`` (Equation 2).

        With ``link_subset`` (a boolean mask over links), the max is
        restricted to those links plus the switch memory — the
        container-local MRU of Figure 5.  Returns None when the placement
        is infeasible (memory overflow or unreachable legs).
        """
        mem_add = demand.n_dips / self.dip_capacity
        new_mem = mem_util[switch_index] + mem_add
        if new_mem > 1.0 + 1e-12:
            return None
        try:
            idx, util = self.calculator.load_vector(demand, switch_index)
        except UnreachableError:
            return None
        if link_subset is not None:
            keep = link_subset[idx]
            idx, util = idx[keep], util[keep]
        if len(idx):
            touched = link_util[idx] + util
            # Duplicate indices: the true post-placement utilization on a
            # link is U + sum of its contributions; aggregate first.
            if len(np.unique(idx)) != len(idx):
                agg: Dict[int, float] = {}
                for i, u in zip(idx.tolist(), util.tolist()):
                    agg[i] = agg.get(i, 0.0) + u
                link_peak = max(
                    link_util[i] + u for i, u in agg.items()
                )
            else:
                link_peak = float(touched.max())
        else:
            link_peak = 0.0
        base = (
            global_max if global_max is not None
            else self._global_max(link_util, mem_util)
        )
        return max(base, link_peak, new_mem)

    # -- internals -------------------------------------------------------------

    def _global_max(
        self, link_util: np.ndarray, mem_util: np.ndarray
    ) -> float:
        peak = float(link_util.max()) if len(link_util) else 0.0
        if len(mem_util):
            peak = max(peak, float(mem_util.max()))
        return peak

    def _commit(
        self,
        demand: VipDemand,
        switch_index: int,
        link_util: np.ndarray,
        mem_util: np.ndarray,
    ) -> None:
        self.calculator.apply(link_util, demand, switch_index)
        mem_util[switch_index] += demand.n_dips / self.dip_capacity

    def _effective_candidates(
        self,
        demand: VipDemand,
        link_util: np.ndarray,
        mem_util: np.ndarray,
    ) -> List[int]:
        if self.config.candidate_strategy == "exhaustive":
            return self._candidates
        # A VIP whose full volume exceeds a ToR's aggregate uplink
        # capacity can never live on a ToR (all its traffic must descend
        # through those uplinks); skip the per-container ToR scan.
        params = self.topology.params
        tor_capacity = (
            params.aggs_per_container * params.tor_agg_gbps * 1e9
            * self.config.link_headroom
        )
        skip_tors = demand.traffic_bps > tor_capacity
        # Container decomposition (S4.2, Figure 5): "assigning a VIP to
        # different ToR switches inside a container will only affect the
        # resource utilization inside the same container", and the only
        # links whose load depends on WHICH ToR is chosen are the ToR's
        # own Agg<->ToR links: every unit of the VIP's traffic descends
        # agg->t (split 1/|Aggs|) and its DIP-bound traffic ascends
        # t->agg.  So the best ToR per container falls out of the current
        # utilization of each ToR's adjacent links plus those two
        # t-independent increments — O(|Aggs|) per ToR, no path
        # computation.  Only the winner is evaluated exactly (globally),
        # alongside every Agg and Core.
        topo = self.topology
        failed = self.calculator.router.failed_switches
        mem_need = demand.n_dips / self.dip_capacity
        chosen: List[int] = []
        if not skip_tors:
            for container in range(topo.n_containers):
                best_tor = self._best_tor_in_container(
                    container, demand, link_util, mem_util, mem_need, failed,
                )
                if best_tor is not None:
                    chosen.append(best_tor)
        chosen.extend(
            s for s in self._candidates
            if topo.switch(s).kind in (SwitchKind.AGG, SwitchKind.CORE)
        )
        return chosen

    def _best_tor_in_container(
        self,
        container: int,
        demand: VipDemand,
        link_util: np.ndarray,
        mem_util: np.ndarray,
        mem_need: float,
        failed: FrozenSet[int],
    ) -> Optional[int]:
        topo = self.topology
        aggs = [a for a in topo.aggs(container) if a not in failed]
        if not aggs:
            return None
        headroom = self.config.link_headroom
        best_tor: Optional[int] = None
        best_score = float("inf")
        for tor in topo.tors(container):
            if tor in failed:
                continue
            if mem_util[tor] + mem_need > 1.0 + 1e-12:
                continue
            score = mem_util[tor] + mem_need
            for agg in aggs:
                down = topo.link_between(agg, tor)
                up = topo.link_between(tor, agg)
                share = demand.traffic_bps / len(aggs)
                down_util = link_util[down.index] + share / (
                    down.capacity * headroom
                )
                up_util = link_util[up.index] + share / (
                    up.capacity * headroom
                )
                score = max(score, down_util, up_util)
            if score < best_score:
                best_score = score
                best_tor = tor
        return best_tor
