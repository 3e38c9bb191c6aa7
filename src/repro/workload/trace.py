"""Epoch trace generation: the 3-hour production trace stand-in.

The paper's large-scale simulations replay a 3-hour trace divided into
10-minute intervals, recalculating the VIP assignment each interval
(S8.1, S8.6); total VIP traffic varies between 6.2 and 7.1 Tbps over the
trace.  This module synthesizes an equivalent trace on top of a
:class:`~repro.workload.vips.VipPopulation`:

* per-VIP traffic evolves as a clamped geometric random walk (services
  ramp up and down),
* occasional *flash* events spike a previously small VIP (the dynamics
  that erode a One-time assignment in Figure 20a),
* a small fraction of VIPs is removed and added each epoch (customer
  churn, S4.2),
* total traffic is renormalized into the paper's observed band.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from repro.workload.vips import VipDemand, VipPopulation


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the synthetic trace.

    Defaults follow the paper: 18 epochs of 600 s span 3 hours; the total
    band [0.9, 1.03] of the base traffic mirrors the 6.2-7.1 Tbps swing.
    """

    n_epochs: int = 18
    epoch_seconds: float = 600.0
    volatility: float = 0.18        # sigma of per-epoch log traffic step
    flash_probability: float = 0.01  # per-VIP chance of a flash crowd
    flash_multiplier: float = 8.0
    flash_decay: float = 0.5        # flash factor shrinks by this per epoch
    churn_fraction: float = 0.01    # VIPs removed (and added) per epoch
    total_band: Tuple[float, float] = (0.90, 1.03)
    max_drift: float = 50.0         # clamp of the cumulative walk factor
    share_cap: float = 0.03         # max share of the total any VIP reaches

    def __post_init__(self) -> None:
        if self.n_epochs < 1:
            raise ValueError("need at least one epoch")
        if self.volatility < 0:
            raise ValueError("volatility must be non-negative")
        lo, hi = self.total_band
        if not 0 < lo <= hi:
            raise ValueError("total_band must be 0 < low <= high")
        if not 0 <= self.churn_fraction < 1:
            raise ValueError("churn_fraction must be in [0, 1)")
        if not 0 < self.share_cap <= 1:
            raise ValueError("share_cap must be in (0, 1]")


@dataclass(frozen=True)
class TraceEpoch:
    """One 10-minute interval of the trace."""

    index: int
    start_s: float
    demands: Tuple[VipDemand, ...]
    added_vip_ids: Tuple[int, ...] = ()
    removed_vip_ids: Tuple[int, ...] = ()

    @property
    def total_traffic_bps(self) -> float:
        return sum(d.traffic_bps for d in self.demands)


def _cap_shares(raw: Dict[int, float], cap: float) -> Dict[int, float]:
    """Water-fill clamp: no VIP exceeds ``cap`` of the epoch total.

    Mirrors the population skew's head cap — a service's traffic cannot
    outgrow what a single load-balancing vantage point can carry, no
    matter how hard a flash crowd hits it.
    """
    if len(raw) <= 1:
        return dict(raw)
    values = dict(raw)
    for _ in range(64):
        total = sum(values.values())
        if total <= 0:
            return values
        limit = cap * total
        over = {vid for vid, v in values.items() if v > limit}
        if not over:
            return values
        excess = sum(values[vid] - limit for vid in over)
        under_sum = sum(v for vid, v in values.items() if vid not in over)
        for vid in over:
            values[vid] = limit
        if under_sum <= 0:
            return values
        boost = 1.0 + excess / under_sum
        for vid in values:
            if vid not in over:
                values[vid] *= boost
    return values


class TraceGenerator:
    """Deterministic (seeded) epoch-by-epoch trace over a population."""

    def __init__(
        self,
        population: VipPopulation,
        config: TraceConfig = TraceConfig(),
        seed: int = 0,
    ) -> None:
        self.population = population
        self.config = config
        self.seed = seed

    def epochs(self) -> List[TraceEpoch]:
        """Materialize the whole trace (a list; traces are small)."""
        return list(self.iter_epochs())

    def iter_epochs(self) -> Iterator[TraceEpoch]:
        rng = random.Random(self.seed)
        config = self.config
        base = {d.vip_id: d for d in self.population.demands()}
        base_total = sum(d.traffic_bps for d in base.values())
        walk: Dict[int, float] = {vid: 1.0 for vid in base}
        flash: Dict[int, float] = {}
        active: Set[int] = set(base)
        removed_pool: List[int] = []

        for index in range(config.n_epochs):
            added: Tuple[int, ...] = ()
            removed: Tuple[int, ...] = ()
            if index > 0:
                walk = self._step_walk(walk, rng)
                flash = self._step_flash(flash, active, rng)
                added, removed = self._churn(active, removed_pool, rng)

            target_total = base_total * rng.uniform(*config.total_band)
            raw = {
                vid: base[vid].traffic_bps
                * walk[vid]
                * flash.get(vid, 1.0)
                for vid in active
            }
            raw = _cap_shares(raw, config.share_cap)
            raw_total = sum(raw.values())
            scale = target_total / raw_total if raw_total > 0 else 0.0
            demands = tuple(
                base[vid].scaled(raw[vid] * scale / base[vid].traffic_bps)
                for vid in sorted(active)
                if base[vid].traffic_bps > 0
            )
            yield TraceEpoch(
                index=index,
                start_s=index * config.epoch_seconds,
                demands=demands,
                added_vip_ids=added,
                removed_vip_ids=removed,
            )

    # -- dynamics ------------------------------------------------------------

    def _step_walk(
        self, walk: Dict[int, float], rng: random.Random
    ) -> Dict[int, float]:
        config = self.config
        stepped: Dict[int, float] = {}
        for vid, factor in walk.items():
            factor *= math.exp(rng.gauss(0.0, config.volatility))
            lo = 1.0 / config.max_drift
            stepped[vid] = min(config.max_drift, max(lo, factor))
        return stepped

    def _step_flash(
        self,
        flash: Dict[int, float],
        active: Set[int],
        rng: random.Random,
    ) -> Dict[int, float]:
        config = self.config
        decayed = {
            vid: 1.0 + (mult - 1.0) * config.flash_decay
            for vid, mult in flash.items()
            if (mult - 1.0) * config.flash_decay > 0.05
        }
        for vid in active:
            if vid not in decayed and rng.random() < config.flash_probability:
                decayed[vid] = config.flash_multiplier
        return decayed

    def _churn(
        self,
        active: Set[int],
        removed_pool: List[int],
        rng: random.Random,
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Remove a few active VIPs; re-admit previously removed ones
        (modeling customer VIP removal and addition, S5.2)."""
        config = self.config
        n_churn = int(len(active) * config.churn_fraction)
        if n_churn == 0:
            return (), ()
        victims = rng.sample(sorted(active), min(n_churn, len(active) - 1))
        for vid in victims:
            active.discard(vid)
            removed_pool.append(vid)
        # Re-admit the oldest removals, but never in the same epoch they
        # were removed.
        eligible = removed_pool[:-len(victims)] if victims else removed_pool
        n_add = min(len(eligible), n_churn)
        admitted = eligible[:n_add]
        for vid in admitted:
            removed_pool.remove(vid)
            active.add(vid)
        return tuple(admitted), tuple(victims)
