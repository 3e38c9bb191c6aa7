"""Probe generation for the discrete-event experiments.

The testbed experiments (Figures 11-13) measure latency and availability
with periodic pings.  This module provides the deterministic, seeded
probe generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.dataplane.packet import PROTO_ICMP, FiveTuple, Packet
from repro.workload.vips import CLIENT_POOL


@dataclass(frozen=True)
class TimedPacket:
    """A packet with its arrival time (seconds)."""

    time_s: float
    packet: Packet


class PingProbe:
    """Periodic ICMP-style probes to one VIP (the paper pings every 3 ms
    to measure availability and added latency, Figures 11-13)."""

    def __init__(
        self,
        vip: int,
        interval_s: float = 0.003,
        *,
        client_ip: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        rng = random.Random(seed)
        self.vip = vip
        self.interval_s = interval_s
        self.client_ip = (
            client_ip if client_ip is not None
            else CLIENT_POOL.network + rng.randrange(1 << 18)
        )
        self._seq_port = rng.randrange(1024, 60000)

    def generate(self, start_s: float, end_s: float) -> Iterator[TimedPacket]:
        """One probe every interval; each probe is its own flow so that
        per-flow ECMP re-rolls (sequence number in the source port)."""
        n = 0
        while True:
            t = start_s + n * self.interval_s
            if t >= end_s:
                return
            flow = FiveTuple(
                src_ip=self.client_ip,
                dst_ip=self.vip,
                src_port=(self._seq_port + n) % 65536,
                dst_port=7,  # echo
                protocol=PROTO_ICMP,
            )
            yield TimedPacket(t, Packet(flow, size_bytes=64))
            n += 1

    def probe_fields(
        self, start_s: float, end_s: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The batched counterpart of :meth:`generate`: (times, source
        ports) of every probe in ``[start, end)`` as arrays, in the same
        order and with exactly the same values — the batch scenario
        engine hashes these wholesale instead of materializing packets.
        """
        if end_s <= start_s:
            return np.empty(0), np.empty(0, np.uint64)
        count = max(0, int(np.ceil((end_s - start_s) / self.interval_s)))
        # Float rounding can put the formula off by one probe either
        # way; nudge until the count matches generate()'s loop exactly.
        while start_s + count * self.interval_s < end_s:
            count += 1
        while count > 0 and start_s + (count - 1) * self.interval_s >= end_s:
            count -= 1
        n = np.arange(count)
        times = start_s + n * self.interval_s
        src_ports = ((self._seq_port + n) % 65536).astype(np.uint64)
        return times, src_ports
