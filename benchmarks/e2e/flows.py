"""Synthetic client traffic for the forwarding workloads.

Traffic is in-process: no link or loopback is crossed, and the rates the
forwarding workloads report are call rates of the simulator's batch
engines, not wire rates.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.dataplane import BatchHMux, FlowBatch, HMux

from .world import BATCH, CheckFailed, World

CLIENT_NET = 0x0800_0000
SAMPLED_ROWS_PER_1000 = 3

Fields = Dict[str, np.ndarray]
HMuxRing = List[Tuple[BatchHMux, FlowBatch]]


def draw_flows(rng: np.random.Generator, vips: np.ndarray,
               weights: np.ndarray, n: int) -> Fields:
    """``n`` client flows to ``vips``, drawn in proportion to traffic."""
    return {
        "src_ip": (CLIENT_NET + rng.integers(0, 1 << 24, n)).astype(np.uint64),
        "dst_ip": rng.choice(vips, size=n, p=weights / weights.sum()),
        "src_port": rng.integers(1024, 65536, n).astype(np.uint64),
        "dst_port": np.full(n, 80, np.uint64),
        "protocol": np.full(n, 6, np.uint64),
    }


def to_batch(fields: Fields, rows=slice(None)) -> FlowBatch:
    return FlowBatch.from_fields(*(fields[key][rows] for key in (
        "src_ip", "dst_ip", "src_port", "dst_port", "protocol",
    )))


def hmux_ring(world: World, rng: np.random.Generator, per_switch: int,
              batch: int = BATCH) -> HMuxRing:
    """For every VIP-hosting switch, one engine over its live HMux and
    ``per_switch`` batches destined only to the VIPs that switch hosts."""
    controller = world.controller
    ring: HMuxRing = []
    for _index, agent in sorted(controller.switch_agents.items()):
        hosted = agent.hmux.vips()
        if not hosted:
            continue
        engine = BatchHMux(agent.hmux)
        vips = np.array(hosted, dtype=np.uint64)
        weights = np.array(
            [controller.record(vip).vip.traffic_bps for vip in hosted]
        )
        for _ in range(per_switch):
            ring.append((engine, to_batch(draw_flows(rng, vips, weights, batch))))
    return ring


def hmuxes_of(ring: HMuxRing) -> List[HMux]:
    return list({id(engine): engine.hmux for engine, _ in ring}.values())


def no_match(muxes: List[HMux]) -> int:
    return sum(mux.counters.no_match for mux in muxes)


def sample_plan(rng: np.random.Generator, n_batches: int) -> Dict[int, int]:
    """batch index -> row to compare against the scalar mux."""
    n = max(1, n_batches * SAMPLED_ROWS_PER_1000 // 1000)
    picks = rng.choice(n_batches, size=min(n, n_batches), replace=False)
    return {int(j): int(rng.integers(0, BATCH)) for j in picks}


def check_hmux_row(engine: BatchHMux, batch: FlowBatch, result, row: int) -> None:
    scalar = engine.hmux.process(batch.packet_at(row))
    if scalar.selected_ip != int(result.target[row]):
        raise CheckFailed(
            f"batch HMux row {row} chose {int(result.target[row]):#x}, "
            f"scalar HMux {scalar.selected_ip}"
        )
