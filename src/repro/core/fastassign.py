"""Vectorized incremental VIP-assignment engine.

The reference walk in :meth:`GreedyAssigner.best_switch` prices every
candidate switch per VIP with its own sparse load vector: for a fabric
with |S| switches that is |S| scatters and reductions *per VIP per
epoch* — the control-plane hot path once epoch re-assignment runs at
the ROADMAP scale.  This module batches that work:

* **Per-leg delta matrices.**  A VIP's load vector is a weighted sum of
  *legs* (ingress rack → s, Internet → s, diffuse → s, s → DIP rack),
  and each leg's path-fraction pattern depends only on the topology and
  the frozen failure set — never on the utilization state or the
  placement history.  The engine therefore caches, per leg anchor, a
  sparse matrix holding that leg's (link, fraction) row for **every**
  candidate switch at once, built from the same
  :class:`~repro.core.assignment.LoadCalculator` path-fraction caches the
  scalar engine reads.
* **One dense evaluation per VIP.**  Stacking the legs of one demand
  gives the per-(candidate, link) utilization-delta matrix; one
  ``np.add.at`` per leg over ``candidate * n_links + link`` accumulates
  it into a dense scratch matrix, and one row-max against the current
  link-utilization vector yields every switch's post-placement link
  peak.  Greedy placement becomes an argmin over that MRU vector instead
  of |S| topology walks.
* **Invalidation.**  Delta rows are *placement-invariant*: committing a
  VIP only changes the shared utilization vectors (which are inputs to
  the evaluation, not part of the cache), so placements invalidate
  nothing.  Rows are keyed by the frozen :class:`VipDemand` structure
  and hold only references to their leg matrices, so a row costs a few
  hundred bytes and survives every epoch an assigner lives through; only
  demand churn (new VIPs, shifted ingress/DIP sets) builds new rows.  A
  failure changes the legs themselves, so it needs a new engine: the
  controller keys its one solver context on the failure set.

**Bit-identity with the scalar engine** is the design contract, enforced
by ``tests/test_assign_differential.py``: every float is produced by the
same IEEE-754 operation sequence as the scalar code (``np.add.at``
accumulates per cell in input order, exactly like the scalar walk; both
take their legs and weights from one :class:`LegPlan`, divide by the
same capacities and compare with the same expressions), and
tie-breaking goes through the very same seeded RNG in
:meth:`GreedyAssigner._select_best`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.routing import UnreachableError
from repro.net.topology import SwitchKind, Topology
from repro.workload.vips import VipDemand

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.assignment import GreedyAssigner, LoadCalculator

#: Above this many dense cells (candidates x links) the evaluation's
#: scratch matrix would be unreasonably large; the assigner then runs the
#: reference walk instead (recorded in ``AssignStats.fallbacks``).
#: 16M cells = 128 MB of float64 scratch.
DENSE_CELL_LIMIT = 16_000_000

#: Cached leg matrices are bulk-cleared once their summed entry counts
#: pass this budget, cached demand structures once there are this many
#: (mirrors ``_LOAD_CACHE_MAX`` in the scalar calculator: guards against
#: unbounded growth under demand churn, not tuning knobs).
LEG_ENTRY_BUDGET = 8_000_000
STRUCTURE_MAX = 65536

#: Pending per-solve latencies kept for the metrics collector before the
#: oldest are dropped (scrapes normally drain far earlier).
_MAX_PENDING_SOLVES = 4096


@dataclass
class AssignStats:
    """Counters one engine flavor accumulates across all assigners.

    Mirrored into ``duet_assign_*`` metrics by
    :func:`repro.obs.instrument.register_assignment_metrics`.
    """

    engine: str
    solves: int = 0
    candidate_evaluations: int = 0
    rows_built: int = 0  # demand structures built: structure-cache misses
    rows_invalidated: int = 0
    fallbacks: int = 0
    structure_hits: int = 0
    sticky_keeps: int = 0  # VIPs the sticky rule kept without a search
    leg_hits: int = 0
    leg_misses: int = 0
    _pending_solve_seconds: List[float] = field(default_factory=list)

    def record_solve(self, seconds: float) -> None:
        self.solves += 1
        if len(self._pending_solve_seconds) < _MAX_PENDING_SOLVES:
            self._pending_solve_seconds.append(seconds)

    def drain_pending_solves(self) -> List[float]:
        """Hand the not-yet-observed solve latencies to the collector."""
        pending = self._pending_solve_seconds
        self._pending_solve_seconds = []
        return pending


#: Process-wide stats, one per engine flavor ("fast" / "scalar"), so the
#: obs collector sees every assigner the controller or experiments spin
#: up without threading a registry through the solver hot path.
ASSIGN_STATS: Dict[str, AssignStats] = {
    "fast": AssignStats("fast"),
    "scalar": AssignStats("scalar"),
}


def stats_for(engine: str) -> AssignStats:
    return ASSIGN_STATS[engine]


class _LegMatrix:
    """One leg's sparse (link, fraction) row for every switch.

    ``keys`` encodes each entry's dense cell ``switch * n_links + link``
    so a leg accumulates into the per-(switch, link) evaluation matrix
    with one ``np.add.at``.
    """

    __slots__ = ("pf", "caphr", "keys", "unreachable", "nnz")

    def __init__(
        self,
        n_switches: int,
        n_links: int,
        rows: List[Optional[Tuple[np.ndarray, np.ndarray]]],
        capacity: np.ndarray,
    ) -> None:
        lengths = np.zeros(n_switches, dtype=np.int64)
        self.unreachable = np.zeros(n_switches, dtype=bool)
        parts_idx: List[np.ndarray] = []
        parts_pf: List[np.ndarray] = []
        for s, row in enumerate(rows):
            if row is None:
                self.unreachable[s] = True
                continue
            idx, val = row
            lengths[s] = len(idx)
            if len(idx):
                parts_idx.append(idx)
                parts_pf.append(val)
        if parts_idx:
            link_idx = np.concatenate(parts_idx)
            self.pf = np.concatenate(parts_pf)
        else:
            link_idx = np.empty(0, dtype=np.int64)
            self.pf = np.empty(0)
        self.caphr = capacity[link_idx]
        row_ids = np.repeat(np.arange(n_switches, dtype=np.int64), lengths)
        self.keys = row_ids * n_links + link_idx
        self.nnz = int(len(link_idx))


def shape_key(demand: VipDemand) -> Tuple:
    """Everything a demand's load vectors depend on besides its traffic
    volume.  Every epoch of a trace (``VipDemand.scaled``) has the same
    key, so a shape's legs are built once per failure set."""
    return (
        demand.ingress_racks, demand.internet_fraction, demand.dip_tors,
        demand.n_dips,
    )


class LegPlan:
    """The legs of one demand shape's load vector and their weight rule,
    read by both engines: ingress racks -> s, Internet (cores) -> s,
    diffuse intra (every rack) -> s, then s -> DIP racks, in that order.

    ``keys`` names each leg's path-fraction pattern (``("from", tor)``,
    ``("inet",)``, ``("diff",)``, ``("to", tor)``).  Leg ``k`` carries
    ``coef[k] * (traffic / div[k])``: an ingress fraction, the Internet
    share or the diffuse share over a ``div`` of 1.0 (``x / 1.0 == x``
    exactly, so that is ``traffic * fraction``), or a DIP rack's count
    over the surviving DIPs (``(traffic / alive_dips) * count``).
    Traffic sourced at dead racks has vanished and the survivors share
    dead racks' DIPs' flows (S8.5); ``all_unreachable`` marks a VIP none
    of whose DIPs survive, which no switch can serve.
    """

    __slots__ = ("keys", "coef", "div", "all_unreachable")

    def __init__(self, demand: VipDemand, failed) -> None:
        keys: List[Tuple] = []
        coef: List[float] = []
        for tor, fraction in demand.ingress_racks:
            if tor not in failed:
                keys.append(("from", tor))
                coef.append(fraction)
        if demand.internet_fraction > 0:
            keys.append(("inet",))
            coef.append(demand.internet_fraction)
        diffuse = demand.diffuse_intra_fraction
        if diffuse > 1e-12:
            keys.append(("diff",))
            coef.append(diffuse)
        direct = len(keys)
        alive = [
            (tor, count) for tor, count in demand.dip_tors
            if tor not in failed
        ]
        alive_dips = sum(count for _, count in alive)
        self.all_unreachable = alive_dips == 0 and demand.n_dips > 0
        if alive_dips > 0:
            for tor, count in alive:
                keys.append(("to", tor))
                coef.append(count)
        self.keys = keys
        self.coef = np.array(coef, dtype=float)
        self.div = np.ones(len(keys))
        self.div[direct:] = alive_dips

    def weights(self, traffic: float) -> np.ndarray:
        """Per-leg traffic weights, in leg order."""
        return self.coef * (traffic / self.div)


class _DemandStructure:
    """One demand shape's legs as the engine's leg matrices.

    The per-epoch traffic volume only scales the leg weights
    (:meth:`LegPlan.weights`), so a shifted-traffic epoch reuses the
    structure as-is — the delta matrix never goes stale.  It holds
    references to the engine's leg matrices, not copies of their
    entries, so a structure is small enough to keep one per demand shape
    for as long as the engine lives.
    """

    __slots__ = ("legs", "plan", "reachable", "nnz")

    def __init__(
        self, n_switches: int, legs: List[_LegMatrix], plan: LegPlan,
    ) -> None:
        self.legs = legs
        self.plan = plan
        self.reachable = np.ones(n_switches, dtype=bool)
        for m in legs:
            self.reachable &= ~m.unreachable
        self.nnz = sum(m.nnz for m in legs)


class FastAssignEngine:
    """The numpy-vectorized evaluation backend of :class:`GreedyAssigner`.

    Owns the leg delta matrices and the per-demand stackings; the
    assigner keeps the driver loop, the tie-breaking RNG and the
    utilization state, so both engines share one selection code path.
    """

    def __init__(
        self,
        topology: Topology,
        calculator: "LoadCalculator",
        config,
        dip_capacity: int,
        candidates: Sequence[int],
    ) -> None:
        self.topology = topology
        self.calculator = calculator
        self.config = config
        self.dip_capacity = dip_capacity
        self.n_switches = topology.n_switches
        self.n_links = topology.n_links
        self.dense_cells = self.n_switches * self.n_links
        self.supported = self.dense_cells <= DENSE_CELL_LIMIT
        self.stats = stats_for("fast")
        # Leg matrices: ("from", tor) / ("to", tor) / ("inet",) / ("diff",).
        self._legs: Dict[Tuple, _LegMatrix] = {}
        self._leg_entries = 0
        self._structures: Dict[Tuple, _DemandStructure] = {}
        # Candidate bookkeeping shared with the scalar strategy: Aggs and
        # Cores in switch-index order, exactly as the scalar
        # ``_effective_candidates`` emits them.
        self._agg_core = [
            s for s in candidates
            if topology.switch(s).kind in (SwitchKind.AGG, SwitchKind.CORE)
        ]
        if self.supported:
            self._build_container_index()
            # Scratch for the per-(switch, link) evaluation, reused by
            # every call instead of allocated by each.
            self._dense = np.zeros((self.n_switches, self.n_links))

    # -- leg matrices --------------------------------------------------------

    def _leg(self, key: Tuple) -> _LegMatrix:
        cached = self._legs.get(key)
        if cached is not None:
            self.stats.leg_hits += 1
            return cached
        self.stats.leg_misses += 1
        calc = self.calculator
        rows: List[Optional[Tuple[np.ndarray, np.ndarray]]] = []
        for s in range(self.n_switches):
            try:
                rows.append(calc.leg_pf(key, s))
            except UnreachableError:
                rows.append(None)
        matrix = _LegMatrix(self.n_switches, self.n_links, rows, calc._capacity)
        if self._leg_entries + matrix.nnz > LEG_ENTRY_BUDGET and self._legs:
            self._legs.clear()
            self._leg_entries = 0
        self._legs[key] = matrix
        self._leg_entries += matrix.nnz
        return matrix

    # -- per-demand structures (the delta-matrix rows) -----------------------

    def _structure(self, demand: VipDemand) -> _DemandStructure:
        key = shape_key(demand)
        cached = self._structures.get(key)
        if cached is not None:
            self.stats.structure_hits += 1
            return cached
        plan = self.calculator.leg_plan(demand)
        structure = _DemandStructure(
            self.n_switches, [self._leg(leg) for leg in plan.keys], plan,
        )
        if len(self._structures) >= STRUCTURE_MAX:
            self.stats.rows_invalidated += len(self._structures)
            self._structures.clear()
        self._structures[key] = structure
        self.stats.rows_built += 1
        return structure

    # -- evaluation ----------------------------------------------------------

    def _link_peaks(
        self, structure: _DemandStructure, demand: VipDemand,
        link_util: np.ndarray,
    ) -> np.ndarray:
        """Post-placement link peak for *every* switch at once.

        Legs accumulate into the dense scratch matrix in leg order
        (``np.add.at`` applies its entries one by one, in order), which
        is the scalar walk's per-link summation order.  For untouched
        links the dense cell holds ``U + 0.0 == U`` so a row max can
        only report a value the global base already covers — the final
        ``max(global, peak, mem)`` matches the scalar
        ``max(base, touched-links peak, mem)`` exactly.
        """
        if structure.nnz == 0:
            return np.zeros(self.n_switches)
        dense = self._dense
        dense.fill(0.0)
        cells = dense.reshape(-1)
        weights = structure.plan.weights(demand.traffic_bps)
        for leg, weight in zip(structure.legs, weights):
            util = leg.pf * weight
            util /= leg.caphr
            np.add.at(cells, leg.keys, util)
        dense += link_util
        return dense.max(axis=1)

    def best_switch(
        self,
        assigner: "GreedyAssigner",
        demand: VipDemand,
        link_util: np.ndarray,
        mem_util: np.ndarray,
    ) -> Optional[Tuple[int, float]]:
        """Engine-side half of :meth:`GreedyAssigner.best_switch`: one
        vectorized pass prices every switch, and the shared scalar
        selection picks among the candidates."""
        candidates = self.effective_candidates(
            assigner, demand, link_util, mem_util,
        )
        self.stats.candidate_evaluations += len(candidates)
        structure = self._structure(demand)
        if structure.plan.all_unreachable:
            return None
        global_max = assigner._global_max(link_util, mem_util)
        mem_add = demand.n_dips / self.dip_capacity
        peaks = self._link_peaks(structure, demand, link_util)
        reachable = structure.reachable

        def mru_on(s: int) -> Optional[float]:
            new_mem = mem_util[s] + mem_add
            if new_mem > 1.0 + 1e-12 or not reachable[s]:
                return None
            return max(global_max, float(peaks[s]), float(new_mem))

        return assigner._select_best(
            demand, ((s, mru_on(s)) for s in candidates),
        )

    # -- candidate generation (vectorized container decomposition) -----------

    def _build_container_index(self) -> None:
        """Gather per-container ToR/Agg link indices into dense tensors so
        the Figure 5 best-ToR scan runs as a handful of array ops."""
        topo = self.topology
        failed = self.calculator.router.failed_switches
        n_c = topo.n_containers
        tpc = topo.params.tors_per_container
        apc = topo.params.aggs_per_container
        self._tor_sw = np.zeros((n_c, tpc), dtype=np.int64)
        self._tor_dead = np.zeros((n_c, tpc), dtype=bool)
        self._agg_alive = np.zeros((n_c, apc), dtype=bool)
        self._down_idx = np.zeros((n_c, tpc, apc), dtype=np.int64)
        self._up_idx = np.zeros((n_c, tpc, apc), dtype=np.int64)
        down_cap = np.zeros((n_c, tpc, apc))
        up_cap = np.zeros((n_c, tpc, apc))
        headroom = self.config.link_headroom
        for c in range(n_c):
            aggs = topo.aggs(c)
            for j, agg in enumerate(aggs):
                self._agg_alive[c, j] = agg not in failed
            for i, tor in enumerate(topo.tors(c)):
                self._tor_sw[c, i] = tor
                self._tor_dead[c, i] = tor in failed
                for j, agg in enumerate(aggs):
                    down = topo.link_between(agg, tor)
                    up = topo.link_between(tor, agg)
                    self._down_idx[c, i, j] = down.index
                    self._up_idx[c, i, j] = up.index
                    down_cap[c, i, j] = down.capacity * headroom
                    up_cap[c, i, j] = up.capacity * headroom
        self._down_caphr = down_cap
        self._up_caphr = up_cap
        self._n_alive_aggs = self._agg_alive.sum(axis=1)

    def best_tors(
        self,
        demand: VipDemand,
        link_util: np.ndarray,
        mem_util: np.ndarray,
        mem_need: float,
    ) -> List[int]:
        """Best ToR of each container (container order), vectorized over
        all containers — value-identical to the scalar
        ``_best_tor_in_container`` loop (argmin keeps the first minimum,
        matching its strict-improvement scan)."""
        n_alive = self._n_alive_aggs
        valid = n_alive > 0
        if not valid.any():
            return []
        share = np.zeros(len(n_alive))
        np.divide(
            demand.traffic_bps, n_alive, out=share, where=valid,
        )
        mem_term = mem_util[self._tor_sw] + mem_need
        down = link_util[self._down_idx] + share[:, None, None] / self._down_caphr
        up = link_util[self._up_idx] + share[:, None, None] / self._up_caphr
        per_agg = np.maximum(down, up)
        per_agg = np.where(self._agg_alive[:, None, :], per_agg, -np.inf)
        score = np.maximum(mem_term, per_agg.max(axis=2))
        score = np.where(
            self._tor_dead | (mem_term > 1.0 + 1e-12), np.inf, score,
        )
        best = np.argmin(score, axis=1)
        out: List[int] = []
        for c in range(len(n_alive)):
            if not valid[c]:
                continue
            if np.isinf(score[c, best[c]]):
                continue
            out.append(int(self._tor_sw[c, best[c]]))
        return out

    def effective_candidates(
        self,
        assigner: "GreedyAssigner",
        demand: VipDemand,
        link_util: np.ndarray,
        mem_util: np.ndarray,
    ) -> List[int]:
        if self.config.candidate_strategy == "exhaustive":
            return assigner._candidates
        params = self.topology.params
        tor_capacity = (
            params.aggs_per_container * params.tor_agg_gbps * 1e9
            * self.config.link_headroom
        )
        chosen: List[int] = []
        if not demand.traffic_bps > tor_capacity:
            mem_need = demand.n_dips / self.dip_capacity
            chosen = self.best_tors(demand, link_util, mem_util, mem_need)
        chosen.extend(self._agg_core)
        return chosen
