"""Skewed VIP traffic and DIP-count distributions (paper Figure 15).

The paper's evaluation is driven by a production trace of 30K VIPs whose
traffic is "highly skewed - most of the traffic is destined for a small
number of 'elephant' VIPs" (S3.3.2, Figure 15).  That skew is the load-
bearing property of the whole design: elephants fit in the 16K host-table
entries of the HMuxes while the long tail of mice overflows harmlessly to
the SMuxes.

We model the per-VIP traffic share with a bounded Zipf-Mandelbrot law and
the per-VIP DIP count with a traffic-correlated log-normal, both
parameterized so the synthetic CDFs match the shape of Figure 15:
roughly, the top ~10% of VIPs carry >90% of the bytes, and DIP counts
span 1 to a few hundred with a heavy tail.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass(frozen=True)
class TrafficSkew:
    """Zipf-Mandelbrot parameters for the per-VIP traffic shares.

    share(rank) ∝ 1 / (rank + shift)^alpha.  ``alpha`` ≈ 2 with a small
    shift reproduces the Figure 15 bytes CDF, where almost all traffic
    concentrates in the first few percent of VIPs.

    Two caps bound the head, and the binding one wins:

    * ``head_cap`` — a *relative* bound: no VIP exceeds this share of the
      total (keeps tiny test populations from degenerating into a single
      monster VIP);
    * ``max_vip_bps`` — a *physical* bound: one VIP's traffic must fit
      through a single load-balancer vantage point (the paper's HMuxes
      top out around 500 Gbps), so at multi-Tbps totals the absolute cap
      binds and the head flattens the way production traces do.

    The raw Zipf head is water-filled: shares above the cap are clipped
    and the excess redistributed over the tail.
    """

    alpha: float = 2.0
    shift: float = 5.0
    head_cap: float = 0.03
    max_vip_bps: float = 100e9

    def __post_init__(self) -> None:
        if not 0.0 < self.head_cap <= 1.0:
            raise ValueError("head_cap must be in (0, 1]")
        if self.max_vip_bps <= 0:
            raise ValueError("max_vip_bps must be positive")

    def effective_cap(self, total_bps: Optional[float]) -> float:
        """The binding per-VIP share cap for a given total volume."""
        if total_bps is None or total_bps <= 0:
            return self.head_cap
        return min(self.head_cap, self.max_vip_bps / total_bps)

    def shares(
        self, n_vips: int, total_bps: Optional[float] = None
    ) -> np.ndarray:
        """Traffic share per VIP, descending, summing to 1.0."""
        if n_vips < 1:
            raise ValueError("need at least one VIP")
        cap = self.effective_cap(total_bps)
        ranks = np.arange(1, n_vips + 1, dtype=float)
        raw = 1.0 / np.power(ranks + self.shift, self.alpha)
        shares = raw / raw.sum()
        if n_vips * cap <= 1.0:
            # The cap is unsatisfiable (too few VIPs); fall back to uniform.
            return np.full(n_vips, 1.0 / n_vips)
        # Water-fill: clip the head at the cap, renormalize the tail to
        # absorb the excess, repeat until stable.
        for _ in range(64):
            over = shares > cap
            if not over.any():
                break
            excess = float((shares[over] - cap).sum())
            shares[over] = cap
            tail = ~over
            tail_sum = float(shares[tail].sum())
            if tail_sum <= 0.0:
                break
            shares[tail] *= 1.0 + excess / tail_sum
        return np.minimum(shares, cap + 1e-12)


@dataclass(frozen=True)
class DipCountModel:
    """Traffic-correlated log-normal DIP counts.

    Elephant VIPs are backed by big server pools; mice often run on a
    couple of instances.  ``median_small``/``median_large`` anchor the
    distribution at the two ends of the traffic ranking and the count is
    interpolated in log-space by traffic rank, with log-normal noise.
    ``max_dips`` bounds the draw (the TIP mechanism of Figure 7 handles
    VIPs beyond one tunnel table, and tests exercise it explicitly).
    """

    median_small: float = 2.0
    median_large: float = 120.0
    sigma: float = 0.6
    min_dips: int = 1
    max_dips: int = 400
    #: No server sustains more than this much of one VIP's traffic; a
    #: VIP's DIP count is raised (past ``max_dips`` if necessary) until
    #: per-DIP load fits.  This is what ties the Figure 15 DIP CDF to
    #: the bytes CDF: elephants are backed by proportionally large pools.
    max_dip_load_bps: float = 1.0e9

    def counts(
        self, n_vips: int, rng: random.Random
    ) -> List[int]:
        """DIP count per VIP, index-aligned with descending traffic rank."""
        if n_vips < 1:
            raise ValueError("need at least one VIP")
        counts: List[int] = []
        log_small = math.log(self.median_small)
        log_large = math.log(self.median_large)
        for rank in range(n_vips):
            # rank 0 is the biggest VIP; interpolate toward median_small.
            position = rank / max(1, n_vips - 1)
            mu = log_large + (log_small - log_large) * position
            draw = rng.lognormvariate(mu, self.sigma)
            counts.append(
                max(self.min_dips, min(self.max_dips, round(draw)))
            )
        return counts

    def floor_for_traffic(self, traffic_bps: float) -> int:
        """Minimum DIP count so no server carries more than
        ``max_dip_load_bps`` of this VIP."""
        if traffic_bps <= 0:
            return self.min_dips
        return max(self.min_dips, math.ceil(traffic_bps / self.max_dip_load_bps))


@dataclass(frozen=True)
class IngressModel:
    """Where VIP traffic enters the network.

    "almost 70% of the total VIP traffic is generated within DC, and the
    rest is from the Internet" (S2).  Intra-DC traffic originates at
    client racks; Internet traffic enters through the core switches
    (split evenly — the WAN routers hash over them).

    ``client_racks_per_vip`` is the *floor*: an elephant VIP's client
    fan-in grows with its volume so that no single rack sources more
    than ``max_rack_ingress_bps`` on average — a 300 Gbps service is
    consumed DC-wide, not by eight racks (whose uplinks couldn't carry
    it anyway).

    ``diffuse_above_bps`` switches big services to *diffuse* ingress:
    their intra-DC clients are effectively everywhere, so their traffic
    is modelled as sourced uniformly from every rack (and the assignment
    algorithm prices it with one shared template per candidate switch —
    far cheaper than hundreds of explicit legs).
    """

    intra_dc_fraction: float = 0.70
    client_racks_per_vip: int = 8
    max_rack_ingress_bps: float = 2.5e9
    diffuse_above_bps: float = 20e9

    def __post_init__(self) -> None:
        if not 0.0 <= self.intra_dc_fraction <= 1.0:
            raise ValueError("intra_dc_fraction must be within [0, 1]")
        if self.client_racks_per_vip < 1:
            raise ValueError("need at least one client rack per VIP")
        if self.max_rack_ingress_bps <= 0:
            raise ValueError("max_rack_ingress_bps must be positive")
        if self.diffuse_above_bps <= 0:
            raise ValueError("diffuse_above_bps must be positive")

    def is_diffuse(self, traffic_bps: float) -> bool:
        """True when the VIP's intra-DC clients are modelled as DC-wide."""
        return traffic_bps >= self.diffuse_above_bps

    def racks_for(self, traffic_bps: float, n_tors: int) -> int:
        """Client-rack count for a VIP of the given volume."""
        intra = traffic_bps * self.intra_dc_fraction
        needed = math.ceil(intra / self.max_rack_ingress_bps)
        return max(1, min(n_tors, max(self.client_racks_per_vip, needed)))
