"""``fwd_churn``: the dataplane layer with writes beside reads.  After a
failover (Fig. 12) most traffic is stateful SMux traffic, new
connections keep arriving, and a DIP pool changes every 16 batches — so
the channel, the journal, ``SMux.set_vip``'s connection sweep, HMux
resilient removal and both engines' layout rebuilds are on the path.
``fwd_steady`` bypasses all of it."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.dataplane import (
    BatchHMux, BatchSMux, FlowBatch, HMux, SMux, five_tuple_hash_batch,
)
from repro.workload import Dip

from .flows import (
    Fields, HMuxRing, check_hmux_row, draw_flows, hmux_ring, hmuxes_of,
    no_match, sample_plan, to_batch,
)
from .layers import tracing
from .spans import SpanRecorder, clock
from .world import (
    BATCH, CheckFailed, Ledger, Result, Scale, World, build_world, world_layer,
)

NAME = "fwd_churn"
TAIL_Q = 95.0       # 1 batch in 16 follows an update: p95 sits on the stall
FRESH_NET = 0x0900_0000         # sources of first-seen flows
FRESH_ROWS = BATCH // 10        # first-seen flows per SMux batch
UPDATE_EVERY = 16
AFFINITY_ROWS = 512             # flows per VIP followed across its updates


@dataclass
class State:
    world: World
    n_batches: int
    hmux_ring: HMuxRing
    smux_engines: List[BatchSMux]
    smux_rings: List[List[np.ndarray]]       # per SMux: pool row indices
    pool: Fields
    pool_rows_of_vip: Dict[int, np.ndarray]
    smux_of_row: np.ndarray
    update_vips: List[int]
    samples: Dict[int, int]
    removed: Dict[int, Dip] = field(default_factory=dict)
    fresh_cursor: int = 0


def setup(seed: int, scale: Scale, seconds: float) -> State:
    world = build_world(seed, scale)
    controller = world.controller
    rng = np.random.default_rng(seed)
    # Fail the most VIP-loaded switches: their VIPs fall back to SMux.
    by_load = sorted(
        controller.switch_agents,
        key=lambda i: (-len(controller.switch_agents[i].hmux.vips()), i),
    )
    fallen: List[int] = []
    for index in by_load[:scale.churn_failed_switches]:
        fallen += controller.fail_switch(index)
    fallen.sort()

    weights = np.array([controller.record(v).vip.traffic_bps for v in fallen])
    pool = draw_flows(
        rng, np.array(fallen, dtype=np.uint64), weights, scale.churn_flows,
    )
    # Resolve every flow once, the way the fabric's ECMP would.
    hashes = five_tuple_hash_batch(
        pool["src_ip"], pool["dst_ip"], pool["src_port"],
        pool["dst_port"], pool["protocol"], controller.hash_seed ^ 0xECC,
    )
    resolve = controller.route_table.resolve
    smux_of_row = np.fromiter(
        (
            resolve(vip, flow_hash).ident
            for vip, flow_hash in zip(pool["dst_ip"].tolist(), hashes.tolist())
        ),
        dtype=np.int64, count=scale.churn_flows,
    )
    engines = [BatchSMux(smux, pin_connections=True) for smux in controller.smuxes]
    rings: List[List[np.ndarray]] = []
    for engine in engines:
        rows = np.nonzero(smux_of_row == engine.smux.smux_id)[0]
        engine.process(to_batch(pool, rows))        # the pinning pass
        rings.append([
            rng.choice(rows, size=BATCH, replace=False) for _ in range(8)
        ])
    ring = hmux_ring(world, rng, per_switch=1)
    for engine, batch in ring:
        engine.process(batch)

    # Pool updates alternate between SMux-served and HMux-hosted VIPs.
    def updatable(candidates) -> List[int]:
        picks = [v for v in candidates if len(controller.record(v).dips) >= 3]
        order = rng.permutation(len(picks))[:8]
        return [picks[i] for i in sorted(order.tolist())]

    hosted = sorted({
        int(v) for _engine, batch in ring for v in np.unique(batch.dst_ip)
    })
    on_smux, on_hmux = updatable(fallen), updatable(hosted)
    update_vips = [v for pair in zip(on_smux, on_hmux) for v in pair]
    if not update_vips:
        raise CheckFailed("no VIP with 3 or more DIPs on both planes")
    pool_rows_of_vip = {
        vip: np.nonzero(pool["dst_ip"] == np.uint64(vip))[0][:AFFINITY_ROWS]
        for vip in on_smux
    }
    n_batches = scale.count(
        scale.churn_batches_per_s, seconds, floor=UPDATE_EVERY,
        step=UPDATE_EVERY,
    )
    return State(
        world, n_batches, ring, engines, rings, pool, pool_rows_of_vip,
        smux_of_row, update_vips, sample_plan(rng, n_batches),
    )


def _smux_batch(state: State, visit: int) -> FlowBatch:
    """The ``visit``-th SMux batch: established pool flows, the first
    tenth replaced by connections never seen before."""
    ring = state.smux_rings[visit % len(state.smux_rings)]
    batch = to_batch(state.pool, ring[(visit // len(state.smux_rings)) % len(ring)])
    batch.src_ip[:FRESH_ROWS] = np.uint64(FRESH_NET) + np.arange(
        state.fresh_cursor, state.fresh_cursor + FRESH_ROWS, dtype=np.uint64,
    )
    state.fresh_cursor += FRESH_ROWS
    return batch


def run(state: State, trace: Optional[SpanRecorder]) -> Result:
    controller = state.world.controller
    smuxes = [engine.smux for engine in state.smux_engines]
    hmuxes = hmuxes_of(state.hmux_ring)
    dropped_before = _dropped(smuxes, hmuxes)
    conn_versions = sum(s.conn_version for s in smuxes)
    layout_versions = sum(s.layout_version for s in smuxes)
    latencies: List[float] = []
    on_hmux: List[bool] = []
    after_update: List[bool] = []
    updates = Ledger(planned=state.n_batches // UPDATE_EVERY)
    visits = 0
    with tracing(trace, NAME) as unit:
        started = clock()
        for j in range(state.n_batches):
            updated = j % UPDATE_EVERY == 0
            if updated:
                with unit(j, "core.controller.pool_update"):
                    _pool_update(state, updates, j // UPDATE_EVERY)
            to_hmux = j % 10 in (3, 6, 9)
            if to_hmux:
                engine, batch = state.hmux_ring[j % len(state.hmux_ring)]
            else:
                engine = state.smux_engines[visits % len(state.smux_engines)]
                batch = _smux_batch(state, visits)
                visits += 1
            with unit(j, "batch"):
                t0 = clock()
                result = engine.process(batch)
                latencies.append(clock() - t0)
            on_hmux.append(to_hmux)
            after_update.append(updated)
            if j in state.samples:
                _check_row(engine, batch, result, state.samples[j])
        region_s = clock() - started

    packets = state.n_batches * BATCH
    ledger = Ledger(planned=packets)
    ledger.add(packets, _dropped(smuxes, hmuxes) - dropped_before)
    ledger.attempted += updates.attempted
    ledger.failed += updates.failed
    ledger.errors += updates.errors
    # The update before every 16th batch is charged to that batch.
    update_s = iter(updates.latencies)
    overhead = [next(update_s) if u else 0.0 for u in after_update]

    def mpps(hmux: bool) -> float:
        spent = sum(t for t, h in zip(latencies, on_hmux) if h == hmux)
        return on_hmux.count(hmux) * BATCH / spent / 1e6

    # First process() after a pool update, against that plane's median.
    running = {
        hmux: statistics.median(
            t for t, h in zip(latencies, on_hmux) if h == hmux
        )
        for hmux in (True, False)
    }
    stalls = [
        t - running[h]
        for t, h, u in zip(latencies, on_hmux, after_update) if u
    ]
    connections = sum(s.connection_count() for s in smuxes)
    return Result(
        ledger=ledger, tail_q=TAIL_Q, op_latencies=latencies,
        op_work=[float(BATCH)] * len(latencies), op_overhead=overhead,
        region_s=region_s,
        counts={
            "batches": state.n_batches, "packets": packets,
            "pool_updates": updates.attempted,
            "connections_final": connections,
            "channel_sends": controller.channel.stats.sends,
            "journal_appends": controller.journal.ops_appended,
        },
        layer={
            **world_layer(state.world),
            "dataplane.smux.mpps_new_conn": mpps(False),
            "dataplane.hmux.mpps": mpps(True),
            "dataplane.hmux.packets": on_hmux.count(True) * BATCH,
            "dataplane.smux.connections_final": connections,
            "dataplane.smux.conn_version_bumps":
                sum(s.conn_version for s in smuxes) - conn_versions,
            "dataplane.smux.layout_version_bumps":
                sum(s.layout_version for s in smuxes) - layout_versions,
            "dataplane.batch.rebuild_stall_ms_p50":
                statistics.median(stalls) * 1e3,
            # Rows a pinning BatchSMux resolves one Python call at a time
            # (pinned_dip / pin_connection) instead of in numpy.
            "dataplane.batch.fallback_rows": on_hmux.count(False) * BATCH,
        },
    )


def check(state: State, result: Result) -> None:
    """An HMux and an SMux programmed with one VIP pick the same DIP."""
    controller = state.world.controller
    vip = state.update_vips[0]
    record = controller.record(vip)
    targets, weights = record.encap_targets(False), record.encap_weights()
    hmux = HMux(switch_ip=1, hash_seed=controller.hash_seed)
    smux = SMux(0, 2, hash_seed=controller.hash_seed)
    hmux.program_vip(vip, targets, weights)
    smux.set_vip(vip, targets, weights)
    flows = draw_flows(
        np.random.default_rng(vip), np.array([vip], np.uint64), np.ones(1), 1000,
    )
    batch = to_batch(flows)
    via_hmux = BatchHMux(hmux).process(batch).target
    via_smux = BatchSMux(smux, pin_connections=False).process(batch).dip
    if not np.array_equal(via_hmux, via_smux):
        raise CheckFailed(
            f"HMux and SMux disagree on {int((via_hmux != via_smux).sum())} "
            "of 1000 flows"
        )


def traced_extras(state: State, untraced: Result) -> Dict[str, float]:
    """Established-only SMux batches.  Two untimed passes over every
    ring entry re-pin the flows that pool updates evicted and let the pin
    prefilter settle; in the timed pass no connection arrives, so it is
    never rebuilt (hazard 3)."""
    spent = 0.0
    packets = 0
    for timed in (False, False, True):
        for which, engine in enumerate(state.smux_engines):
            for rows in state.smux_rings[which]:
                batch = to_batch(state.pool, rows)
                started = clock()
                engine.process(batch)
                if timed:
                    spent += clock() - started
                    packets += BATCH
    return {"dataplane.smux.mpps_established": packets / spent / 1e6}


def _dropped(smuxes, hmuxes) -> int:
    return sum(s.counters.drops_no_vip for s in smuxes) + no_match(hmuxes)


def _pool_update(state: State, updates: Ledger, number: int) -> None:
    """One DIP pool change through the controller: even updates remove a
    DIP from the next VIP, odd ones add it back.  Around it, check that
    every established flow whose DIP survives keeps its DIP (S3.3, S5.1)."""
    controller = state.world.controller
    vip = state.update_vips[(number // 2) % len(state.update_vips)]
    record = controller.record(vip)
    before = _pinned_dips(state, vip)
    if number % 2 == 0:
        dip = record.dips[0]
        state.removed[vip] = dip
        updates.call(controller.remove_dip, vip, dip.addr)
    else:
        updates.call(controller.add_dip, vip, state.removed.pop(vip))
    if before is None:
        return
    survivors = {dip.addr for dip in controller.record(vip).dips}
    after = _pinned_dips(state, vip)
    for row, (old, new) in enumerate(zip(before, after)):
        if old in survivors and new != old:
            raise CheckFailed(
                f"flow {row} of VIP {vip:#x} moved from DIP {old:#x} to "
                f"{new} across pool update {number}"
            )


def _pinned_dips(state: State, vip: int) -> Optional[List[Optional[int]]]:
    """Pinned DIP of the followed pool flows to an SMux-served ``vip``
    (None for an HMux-hosted one: nothing is pinned there)."""
    rows = state.pool_rows_of_vip.get(vip)
    if rows is None:
        return None
    by_id = {engine.smux.smux_id: engine.smux for engine in state.smux_engines}
    flows = to_batch(state.pool, rows)
    owners = state.smux_of_row[rows].tolist()
    return [
        by_id[owner].pinned_dip(flows.flow_at(i))
        for i, owner in enumerate(owners)
    ]


def _check_row(engine, batch: FlowBatch, result, row: int) -> None:
    if isinstance(engine, BatchHMux):
        check_hmux_row(engine, batch, result, row)
        return
    scalar = engine.smux.process(batch.packet_at(row))
    chosen = None if scalar is None else scalar.outer[0].dst_ip
    if chosen != int(result.dip[row]):
        raise CheckFailed(
            f"batch SMux row {row} chose {int(result.dip[row]):#x}, "
            f"scalar SMux {chosen}"
        )
