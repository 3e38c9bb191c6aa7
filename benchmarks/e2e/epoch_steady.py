"""``epoch_steady``: the paper's 10-minute epoch (S4.2, S8.6) with
everything on.  Solver-dominated: ``core.assign`` does most of the work
and the dataplane batch engines do none."""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.chaos import InvariantChecker
from repro.core import stats_for
from repro.durability import controller_fingerprint
from repro.health import FaultPlane, HealthConfig, HealthMonitor, HealthScorecard
from repro.obs import (
    AlertEvaluator, MetricsRegistry, Recorder, Tracer,
    build_default_policies, build_default_slos, instrument_controller,
)
from repro.workload import TraceConfig, TraceGenerator

from .layers import tracing
from .spans import SpanRecorder, clock
from .world import (
    CheckFailed, Ledger, Result, Scale, World, build_world, digest, world_layer,
)

NAME = "epoch_steady"
WARMUP_EPOCHS = 2
#: 14 measured epochs at the default run length: p75 has 3 samples
#: beyond it, fewer than the 10 a tail percentile should have (README).
TAIL_Q = 75.0


@dataclass
class State:
    world: World
    epochs: list
    vips_by_id: Dict[int, Any]
    registry: MetricsRegistry
    recorder: Recorder
    monitor: HealthMonitor
    scorecard: HealthScorecard
    alerts: AlertEvaluator


def n_epochs(scale: Scale, seconds: float) -> int:
    return scale.count(scale.epochs_per_s, seconds, floor=2)


def setup(seed: int, scale: Scale, seconds: float) -> State:
    world = build_world(seed, scale)
    controller = world.controller
    # Materialized before the controller mutates the shared population;
    # removed Vip objects are kept by id for re-admission.
    epochs = TraceGenerator(
        controller.population,
        TraceConfig(n_epochs=WARMUP_EPOCHS + n_epochs(scale, seconds)),
        seed=seed,
    ).epochs()
    vips_by_id = {vip.vip_id: vip for vip in controller.population}

    registry = MetricsRegistry()
    instrument_controller(controller, registry)
    recorder = Recorder(registry, capacity=512)
    health = HealthConfig()
    fault_plane = FaultPlane(seed=seed)
    monitor = HealthMonitor(
        controller, fault_plane, health, registry=registry, seed=seed,
    )
    scorecard = HealthScorecard(fault_plane, monitor, health, registry=registry)
    controller.attach_tracer(Tracer())
    alerts = AlertEvaluator(
        build_default_slos(registry, detection_budget_s=health.detection_budget_s),
        recorder,
        build_default_policies(health.probe_period_s),
        registry=registry,
    )
    return State(world, epochs, vips_by_id, registry, recorder, monitor,
                 scorecard, alerts)


def _run_epoch(state: State, epoch) -> Any:
    controller = state.world.controller
    for vip_id in epoch.removed_vip_ids:
        controller.remove_vip(state.vips_by_id[vip_id].addr)
    for vip_id in epoch.added_vip_ids:
        controller.add_vip(state.vips_by_id[vip_id])
    plan = controller.rebalance(list(epoch.demands))
    state.monitor.run_round()
    state.monitor.run_round()
    now = state.monitor.clock.now_s
    state.recorder.tick(now)
    state.alerts.evaluate(now)
    return plan


def run(state: State, trace: Optional[SpanRecorder]) -> Result:
    measured = state.epochs[WARMUP_EPOCHS:]
    for epoch in state.epochs[:WARMUP_EPOCHS]:
        _run_epoch(state, epoch)
    assign_before = _assign_counts()
    probes_sent = state.registry.get("duet_health_probes_total").total
    probes_before = probes_sent()
    ledger = Ledger(planned=len(measured))
    plans: List[Any] = []
    with tracing(trace, NAME) as unit:
        started = clock()
        for epoch in measured:
            with unit(epoch.index, "epoch"):
                plans.append(ledger.call(_run_epoch, state, epoch))
            gc.collect()    # between epochs, so no epoch pays for another's garbage
        region_s = clock() - started

    plans = [plan for plan in plans if plan is not None]
    assign_after = _assign_counts()
    moved = sum(len(plan.moved_vip_ids) for plan in plans)
    steps = sum(len(plan.steps) for plan in plans)
    counts = {
        "epochs": ledger.attempted,
        "moved_vips": moved,
        "plan_steps": steps,
        "candidate_evaluations":
            assign_after["candidate_evaluations"]
            - assign_before["candidate_evaluations"],
        "channel_sends": state.world.controller.channel.stats.sends,
        "journal_appends": state.world.controller.journal.ops_appended,
        "fingerprint": digest(controller_fingerprint(state.world.controller)),
    }
    layer = {
        **world_layer(state.world),
        "core.migration.moved_vips": moved,
        "core.migration.steps": steps,
        "core.migration.shuffled_fraction":
            sum(p.shuffled_fraction for p in plans) / max(1, len(plans)),
        "health.remediation_ops": len(state.monitor.remediation.actions),
        "obs.series_count": state.recorder.n_series,
        **{
            f"core.assign.{key}": assign_after[key] - assign_before[key]
            for key in assign_after
        },
    }
    return Result(
        ledger=ledger, tail_q=TAIL_Q, op_latencies=ledger.latencies,
        op_work=[1.0] * len(ledger.latencies), region_s=region_s,
        counts=counts, layer=layer,
        probes=probes_sent() - probes_before, extra=plans,
    )


def _assign_counts() -> Dict[str, int]:
    stats = stats_for("fast")
    return {
        "candidate_evaluations": stats.candidate_evaluations,
        "rows_built": stats.rows_built,
        "rows_invalidated": stats.rows_invalidated,
        "fallbacks": stats.fallbacks,
    }


def check(state: State, result: Result) -> None:
    controller = state.world.controller
    plans = result.extra
    if not all(plan.validate_two_phase() for plan in plans):
        raise CheckFailed("a migration plan announces before it withdraws")
    live = controller.live_mux_refs()
    for addr in controller.records():
        if controller.route_table.resolve(addr) not in live:
            raise CheckFailed(f"VIP {addr:#x} resolves to a dead mux")
    checker = InvariantChecker(controller)
    violations = checker.check_table_capacity() + checker.check_route_liveness()
    violations += state.scorecard.check(controller)
    if violations:
        raise CheckFailed(f"{len(violations)} violations, first: {violations[0]}")
