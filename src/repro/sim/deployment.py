"""Deployment-level latency model (paper S8.3, Figure 17).

Given a total VIP traffic volume and a mux fleet, what end-to-end latency
do requests see?  Ananta spreads all traffic over its SMuxes by ECMP, so
per-SMux load — and hence queueing latency — is set by the fleet size.
Duet sends the HMux-assigned fraction through switches (adding only
microseconds) and only the leftover through its small SMux fleet.

The paper holds traffic at 10 Tbps and sweeps Ananta from 2K to 15K
SMuxes: with Duet's SMux count (230) Ananta's median latency exceeds
6 ms, and it takes ~15K SMuxes to approach Duet's 474 µs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.dataplane.packet import DEFAULT_PACKET_BYTES, bps_to_pps
from repro.dataplane.smux import SMUX_CAPACITY_PPS
from repro.sim.queueing import (
    HMUX_BASE_LATENCY,
    LoadPhase,
    MuxStation,
    NETWORK_RTT,
    SMUX_BASE_LATENCY,
)


#: Packets an SMux queues before it drops (S8.5).
SMUX_BUFFER_PACKETS = 8192.0


@dataclass(frozen=True)
class DeploymentLatencyConfig:
    n_samples: int = 4000
    seed: int = 0


class DeploymentLatencyModel:
    """Samples request RTTs through a load-balancer deployment."""

    def __init__(self, config: DeploymentLatencyConfig = DeploymentLatencyConfig()) -> None:
        self.config = config

    def _steady_station(self, rate_pps: float) -> MuxStation:
        """An SMux station in steady state at a constant offered load."""
        horizon = 3600.0
        return MuxStation(
            SMUX_BASE_LATENCY,
            SMUX_CAPACITY_PPS,
            [LoadPhase(0.0, horizon, rate_pps)],
            buffer_packets=SMUX_BUFFER_PACKETS,
        )

    def smux_rtt_samples(self, per_smux_pps: float, n: Optional[int] = None) -> np.ndarray:
        """RTT samples through one SMux at a given offered load."""
        n = n if n is not None else self.config.n_samples
        rng = random.Random(self.config.seed)
        station = self._steady_station(per_smux_pps)
        probe_at = 3599.0  # deep in steady state
        return np.asarray([
            NETWORK_RTT.sample(rng) + station.latency_sample(probe_at, rng)
            for _ in range(n)
        ])

    def hmux_rtt_samples(self, n: Optional[int] = None) -> np.ndarray:
        """RTT samples through an HMux (line rate: no queueing term)."""
        n = n if n is not None else self.config.n_samples
        rng = random.Random(self.config.seed ^ 0xAB)
        return np.asarray([
            NETWORK_RTT.sample(rng) + HMUX_BASE_LATENCY.sample(rng)
            for _ in range(n)
        ])

    # -- deployments ------------------------------------------------------------

    def ananta_rtts(self, total_traffic_bps: float, n_smuxes: int) -> np.ndarray:
        """RTT samples for a pure-SMux deployment: ECMP splits the whole
        volume evenly over ``n_smuxes``."""
        if n_smuxes < 1:
            raise ValueError("need at least one SMux")
        per_smux = bps_to_pps(total_traffic_bps, DEFAULT_PACKET_BYTES) / n_smuxes
        return self.smux_rtt_samples(per_smux)

    def duet_rtts(
        self,
        total_traffic_bps: float,
        hmux_fraction: float,
        n_smuxes: int,
    ) -> np.ndarray:
        """RTT samples for a Duet deployment: ``hmux_fraction`` of the
        traffic rides HMuxes; the leftover is split over the SMuxes."""
        if not 0.0 <= hmux_fraction <= 1.0:
            raise ValueError("hmux_fraction must be in [0, 1]")
        if n_smuxes < 1:
            raise ValueError("need at least one SMux")
        n = self.config.n_samples
        n_hmux = int(round(n * hmux_fraction))
        hmux = self.hmux_rtt_samples(n_hmux) if n_hmux else np.empty(0)
        leftover_bps = total_traffic_bps * (1.0 - hmux_fraction)
        per_smux = bps_to_pps(leftover_bps, DEFAULT_PACKET_BYTES) / n_smuxes
        smux = (
            self.smux_rtt_samples(per_smux, n - n_hmux)
            if n - n_hmux > 0 else np.empty(0)
        )
        return np.concatenate([hmux, smux])

    # -- summaries --------------------------------------------------------------

    def ananta_median_rtt_s(self, total_traffic_bps: float, n_smuxes: int) -> float:
        return float(np.median(self.ananta_rtts(total_traffic_bps, n_smuxes)))

    def duet_median_rtt_s(
        self, total_traffic_bps: float, hmux_fraction: float, n_smuxes: int
    ) -> float:
        return float(np.median(
            self.duet_rtts(total_traffic_bps, hmux_fraction, n_smuxes)
        ))
