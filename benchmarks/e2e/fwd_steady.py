"""``fwd_steady``: the HMux line-rate claim (Fig. 11) — a stateless hash
-> ECMP slot -> tunnel gather on a warm layout cache, nothing
reprogrammed.  ``dataplane.hmux`` / ``dataplane.batch`` read path does
all the work; SMux connection state, journal and solver do none."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .flows import (
    HMuxRing, check_hmux_row, hmux_ring, hmuxes_of, no_match, sample_plan,
)
from .layers import tracing
from .spans import SpanRecorder, clock
from .world import BATCH, Ledger, Result, Scale, World, build_world, world_layer

NAME = "fwd_steady"
#: Nothing structural lives above p75 of a read-only loop: the top few
#: percent are host-contention spikes (between two phases of this VM p95
#: moved 30% while p50 and p75 moved 10%).  p75 is the heavier switches.
TAIL_Q = 75.0


@dataclass
class State:
    world: World
    seed: int
    ring: HMuxRing
    n_batches: int
    samples: Dict[int, int]


def setup(seed: int, scale: Scale, seconds: float) -> State:
    world = build_world(seed, scale)
    rng = np.random.default_rng(seed)
    ring = hmux_ring(world, rng, per_switch=4)
    for engine, batch in ring:      # warm every layout cache
        engine.process(batch)
    n_batches = scale.count(scale.steady_batches_per_s, seconds, floor=20)
    return State(world, seed, ring, n_batches, sample_plan(rng, n_batches))


def run(state: State, trace: Optional[SpanRecorder]) -> Result:
    ring, samples = state.ring, state.samples
    muxes = hmuxes_of(ring)
    no_match_before = no_match(muxes)
    packets_before = sum(mux.counters.packets for mux in muxes)
    kept: List[Tuple[int, object]] = []
    latencies: List[float] = []
    n_ring = len(ring)
    with tracing(trace, NAME) as unit:
        started = clock()
        for j in range(state.n_batches):
            engine, batch = ring[j % n_ring]
            with unit(j, "batch"):
                t0 = clock()
                result = engine.process(batch)
                latencies.append(clock() - t0)
            if j in samples:
                kept.append((j, result))
        region_s = clock() - started

    packets = state.n_batches * BATCH
    ledger = Ledger(planned=packets)
    ledger.add(packets, no_match(muxes) - no_match_before)
    forwarded = sum(mux.counters.packets for mux in muxes) - packets_before
    return Result(
        ledger=ledger, tail_q=TAIL_Q, op_latencies=latencies,
        op_work=[float(BATCH)] * len(latencies), region_s=region_s,
        counts={"batches": state.n_batches, "packets": forwarded},
        layer={
            **world_layer(state.world),
            "dataplane.hmux.packets": forwarded,
            "dataplane.hmux.mpps": forwarded / sum(latencies) / 1e6,
        },
        extra=kept,
    )


def check(state: State, result: Result) -> None:
    n_ring = len(state.ring)
    for j, batch_result in result.extra:
        engine, batch = state.ring[j % n_ring]
        check_hmux_row(engine, batch, batch_result, state.samples[j])


def traced_extras(state: State, untraced: Result) -> Dict[str, float]:
    """The same traffic at two other batch sizes: small batches expose
    the per-call cost, large ones the per-packet cost."""
    out: Dict[str, float] = {}
    rng = np.random.default_rng(state.seed)
    for size, per_switch in ((256, 16), (16384, 1)):
        ring = hmux_ring(state.world, rng, per_switch, batch=size)
        busy = 0.0
        for _ in range(2):          # first pass warms, second is timed
            busy = 0.0
            for engine, batch in ring:
                t0 = clock()
                engine.process(batch)
                busy += clock() - t0
        out[f"dataplane.hmux.mpps_b{size}"] = len(ring) * size / busy / 1e6
    return out
