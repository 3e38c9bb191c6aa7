"""``failover_storm``: S5.1 failure / DIP / VIP lifecycle at scale over a
lossy, duplicating control channel, with periodic controller
crash-restarts.  Controller programming, channel and journal do nearly
all the work and the solver none (rebalance weight 0): the mirror image
of ``epoch_steady``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.chaos import EventGenerator, EventKind, InvariantChecker, apply_event
from repro.core import DuetController
from repro.durability import (
    AntiEntropyReconciler, controller_fingerprint, harvest_dataplane,
)

from .layers import tracing
from .spans import SpanRecorder, clock
from .world import (
    CheckFailed, Ledger, Result, Scale, World, build_world, digest, world_layer,
)

NAME = "failover_storm"
TAIL_Q = 99.0   # structurally the journal-snapshot ops, 1 in 64
_STAT_KEYS = ("retries", "degraded", "unwinds", "op_timeouts")


@dataclass
class State:
    world: World
    generator: EventGenerator
    n_ops: int
    scale: Scale


def setup(seed: int, scale: Scale, seconds: float) -> State:
    world = build_world(seed, scale)
    channel = world.controller.channel
    channel.set_loss(0.1)
    channel.set_delay(0.1)
    generator = EventGenerator(
        world.controller, seed=seed ^ 0x5EED,
        weights={EventKind.REBALANCE: 0.0},
    )
    n_ops = scale.count(scale.storm_ops_per_s, seconds, floor=100, step=100)
    return State(world, generator, n_ops, scale)


def _apply(controller: DuetController, event) -> None:
    apply_event(controller, event)
    controller.channel.pump()


def _require_no_violations(controller: DuetController, step: int) -> None:
    violations = InvariantChecker(controller).check()
    if violations:
        raise CheckFailed(
            f"{len(violations)} invariant violations after op {step}, "
            f"first: {violations[0]}"
        )


def run(state: State, trace: Optional[SpanRecorder]) -> Result:
    controller = state.world.controller
    generator = state.generator
    ledger = Ledger(planned=state.n_ops)
    stats: Dict[str, float] = dict.fromkeys(_STAT_KEYS, 0)
    restarts = repairs = 0

    def fold_stats() -> None:
        # ProgrammingStats die with each controller incarnation.
        for key in _STAT_KEYS:
            stats[key] += getattr(controller.programming_stats, key)

    with tracing(trace, NAME) as unit:
        started = clock()
        for step in range(state.n_ops):
            if step and step % state.scale.crash_every == 0:
                fold_stats()
                intent = controller_fingerprint(controller)
                with unit(step, "durability.recovery.restore"):
                    restored = DuetController.restore(
                        controller.journal,
                        dataplane=harvest_dataplane(controller),
                        topology=controller.topology,
                    )
                with unit(step, "durability.recovery.reconcile"):
                    report = AntiEntropyReconciler(restored).converge()
                restarts += 1
                repairs += report.n_repairs
                if not report.converged:
                    raise CheckFailed(f"reconcile did not converge at op {step}")
                if controller_fingerprint(restored) != intent:
                    raise CheckFailed(
                        f"restored controller differs from pre-crash intent "
                        f"at op {step}"
                    )
                controller = generator.controller = restored
            if step and step % state.scale.invariants_every == 0:
                _require_no_violations(controller, step)
            event = generator.next_event()
            with unit(step, f"op.{event.kind.value}"):
                ledger.call(_apply, controller, event)
        region_s = clock() - started

    fold_stats()
    state.world.controller = controller
    counts = {
        "ops": ledger.attempted,
        "crash_restarts": restarts,
        "channel_sends": controller.channel.stats.sends,
        "journal_appends": controller.journal.ops_appended,
        "fingerprint": digest(controller_fingerprint(controller)),
    }
    layer = {
        **world_layer(state.world),
        **{f"core.controller.{key}": stats[key] for key in _STAT_KEYS},
        "durability.recovery.reconcile_repairs": repairs,
    }
    return Result(
        ledger=ledger, tail_q=TAIL_Q, op_latencies=ledger.latencies,
        op_work=[1.0] * len(ledger.latencies), region_s=region_s,
        counts=counts, layer=layer,
    )


def check(state: State, result: Result) -> None:
    _require_no_violations(state.world.controller, result.ledger.attempted)
