"""Which public callables the traced run wraps, and how per-layer
metrics are read off the resulting spans.

Layer names are the repo's modules.  Everything here is measured from
outside: the program under test is not edited.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Tuple

import repro.chaos.engine as chaos_engine
import repro.durability.recovery as recovery
from repro.chaos import EventGenerator, FlowAffinityTracker, InvariantChecker
from repro.control import ControlChannel
from repro.core import DuetController, GreedyAssigner, StickyMigrator, SwitchAgent
from repro.dataplane import BatchHMux, BatchSMux, HMux, HostAgent, SMux
from repro.durability import WriteAheadJournal
from repro.health import HealthDetector, HealthMonitor, ProbeScheduler
from repro.net import EcmpRouter
from repro.obs import AlertEvaluator, Recorder

from .spans import SpanRecorder, Target, TraceSummary

#: Controller lifecycle ops reported as ``core.controller.op_ms_p50.<kind>``
#: (the benchmark opens one ``op.<kind>`` span per storm operation).
OP_KINDS = (
    "fail_switch", "recover_switch", "add_dip", "remove_dip",
    "add_vip", "remove_vip", "add_smux", "reap_dips",
)


def _tick_name(args: tuple, kwargs: dict) -> str:
    partial = kwargs.get("only") is not None or (
        len(args) > 2 and args[2] is not None
    )
    return "obs.tick_partial" if partial else "obs.tick"


def targets() -> List[Target]:
    controller_ops = [
        Target(DuetController, attr, f"core.controller.{attr}", "core.controller")
        for attr in (
            "rebalance", "add_dip", "remove_dip", "add_vip", "remove_vip",
            "fail_switch", "recover_switch", "add_smux", "reap_failed_dips",
        )
    ]
    return controller_ops + [
        Target(EcmpRouter, "__init__", "net.router_build", "net"),
        Target(StickyMigrator, "reassign", "core.assign.reassign", "core.assign"),
        Target(GreedyAssigner, "assign", "core.assign.assign", "core.assign"),
        Target(SwitchAgent, "add_vip", "core.controller.agent_add_vip", "core.controller"),
        Target(SwitchAgent, "remove_vip", "core.controller.agent_remove_vip", "core.controller"),
        Target(
            ControlChannel, "send", "control.channel.send", "control.channel",
            callback_arg=2, callback_name="control.channel.apply",
            callback_layer="device",
        ),
        Target(ControlChannel, "pump", "control.channel.pump", "control.channel"),
        Target(WriteAheadJournal, "append", "durability.journal.append", "durability.journal"),
        Target(WriteAheadJournal, "commit", "durability.journal.commit", "durability.journal"),
        Target(DuetController, "checkpoint", "durability.journal.snapshot", "durability.journal"),
        Target(recovery, "snapshot_state", "durability.journal.snapshot_state", "durability.journal"),
        Target(HMux, "program_vip", "dataplane.hmux.program_vip", "dataplane.hmux"),
        Target(HMux, "remove_dip", "dataplane.hmux.remove_dip", "dataplane.hmux"),
        Target(SMux, "set_vip", "dataplane.smux.set_vip", "dataplane.smux"),
        Target(BatchHMux, "process", "dataplane.hmux.batch_process", "dataplane.hmux"),
        Target(BatchSMux, "process", "dataplane.smux.batch_process", "dataplane.smux"),
        Target(DuetController, "forward", "dataplane.forward_scalar", "dataplane.forward_scalar"),
        Target(HostAgent, "receive", "dataplane.hostagent.receive", "dataplane.hostagent"),
        Target(HealthMonitor, "run_round", "health.round", "health"),
        Target(ProbeScheduler, "run_round", "health.probe_sweep", "health"),
        Target(HealthDetector, "observe", "health.detector", "health"),
        Target(Recorder, "tick", "obs.tick", "obs", namer=_tick_name),
        Target(AlertEvaluator, "evaluate", "obs.alert_eval", "obs"),
        Target(InvariantChecker, "check", "chaos.invariant_check", "chaos"),
        Target(FlowAffinityTracker, "check", "chaos.tracker_check", "chaos"),
        Target(EventGenerator, "next_event", "chaos.event_gen", "chaos"),
        Target(chaos_engine, "build_controller", "chaos.build_controller", "chaos"),
    ]


@contextmanager
def tracing(
    trace: Optional[SpanRecorder], workload: str,
) -> Iterator[Callable[[int, str], ContextManager]]:
    """The measured region of a workload.  Yields ``unit(unit_id, name)``,
    a context manager for one epoch / op / batch / seed.  Untraced
    (``trace`` is None) it does nothing; traced it wraps every target,
    opens one root span for the region and one span per unit."""
    if trace is None:
        idle = nullcontext()
        yield lambda unit_id, name: idle
        return

    def unit(unit_id: int, name: str) -> ContextManager:
        trace.unit = unit_id
        return trace.span(name, "bench")

    with trace.patched(targets()), trace.span(f"run.{workload}", "bench"):
        yield unit


_Reader = Callable[[TraceSummary], float]


def _p50(name: str, scale: float) -> _Reader:
    return lambda t: t.p50_s(name) * scale


def _self_total(*names: str) -> _Reader:
    return lambda t: sum(t.self_s(name) for name in names)


def _program_s(t: TraceSummary) -> float:
    # What rebalance spends outside the solver: executing the plan
    # through agents, channel and journal.
    rebalance = "core.controller.rebalance"
    return (
        t.total_s(rebalance)
        - t.total_under_s(rebalance, "core.assign.reassign")
        - t.total_under_s(rebalance, "net.router_build")
    )


def _share(layer: str) -> _Reader:
    return lambda t: t.layer_self_s.get(layer, 0.0) / t.root_s


#: Per-layer metrics that are pure functions of the spans.  A workload
#: that never enters a layer reports 0 for it: the "bypassed" prediction
#: made visible.
SPAN_METRICS: Dict[str, _Reader] = {
    "net.router_build_s": lambda t: t.total_s("net.router_build"),
    "core.assign.solve_s_p50": _p50("core.assign.reassign", 1.0),
    "core.assign.solve_share": _share("core.assign"),
    "core.controller.program_s": _program_s,
    "core.controller.pool_update_ms_p50": _p50("core.controller.pool_update", 1e3),
    "control.channel.send_self_us_p50":
        lambda t: t.self_p50_s("control.channel.send") * 1e6,
    "control.channel.pump_s": lambda t: t.total_s("control.channel.pump"),
    "durability.journal.append_commit_self_s": _self_total(
        "durability.journal.append", "durability.journal.commit",
    ),
    "durability.journal.snapshot_ms_p50": _p50("durability.journal.snapshot", 1e3),
    "durability.recovery.restore_ms_p50": _p50("durability.recovery.restore", 1e3),
    "durability.recovery.reconcile_ms_p50": _p50("durability.recovery.reconcile", 1e3),
    "dataplane.hmux.process_self_s": _self_total("dataplane.hmux.batch_process"),
    "dataplane.hmux.program_vip_us_p50": _p50("dataplane.hmux.program_vip", 1e6),
    "dataplane.hmux.remove_dip_us_p50": _p50("dataplane.hmux.remove_dip", 1e6),
    "dataplane.smux.set_vip_ms_p50": _p50("dataplane.smux.set_vip", 1e3),
    "dataplane.forward_scalar.calls": lambda t: t.count("dataplane.forward_scalar"),
    "dataplane.forward_scalar.self_s": _self_total("dataplane.forward_scalar"),
    "dataplane.hostagent.receive_self_s": _self_total("dataplane.hostagent.receive"),
    "health.round_ms_p50": _p50("health.round", 1e3),
    "health.detector_self_s": _self_total("health.detector"),
    "obs.tick_ms_p50": _p50("obs.tick", 1e3),
    "obs.tick_partial_ms_p50": _p50("obs.tick_partial", 1e3),
    "obs.alert_eval_ms_p50": _p50("obs.alert_eval", 1e3),
    "chaos.invariant_check_ms_p50": _p50("chaos.invariant_check", 1e3),
    "chaos.tracker_check_ms_p50": _p50("chaos.tracker_check", 1e3),
    "chaos.build_controller_ms_p50": _p50("chaos.build_controller", 1e3),
    "chaos.event_gen_share":
        lambda t: t.total_s("chaos.event_gen") / t.root_s,
    **{
        f"core.controller.op_ms_p50.{kind}": _p50(f"op.{kind}", 1e3)
        for kind in OP_KINDS
    },
}


def probe_metrics(t: TraceSummary, probes: float) -> Dict[str, float]:
    """Probe-sweep rates from the sweep spans and the probe count the
    health registry kept."""
    rounds = t.count("health.probe_sweep")
    sweep_s = t.total_s("health.probe_sweep")
    return {
        "health.probes_per_round": probes / rounds if rounds else 0.0,
        "health.probe_kpps": probes / sweep_s / 1e3 if sweep_s else 0.0,
    }


def span_metrics(t: TraceSummary) -> Dict[str, float]:
    return {name: float(read(t)) for name, read in SPAN_METRICS.items()}


def top_layers(t: TraceSummary, n: int = 8) -> List[Tuple[str, float]]:
    """The layers that own the traced region's time, as shares."""
    ranked = sorted(t.layer_self_s.items(), key=lambda kv: -kv[1])[:n]
    return [(layer, s / t.root_s) for layer, s in ranked]
