"""Chaos runner: seeded soak loop with per-step invariant checks.

The engine builds a live :class:`~repro.core.controller.DuetController`
from a :class:`ChaosConfig`.  :meth:`ChaosEngine.step` is the one place
an event reaches it: it applies the event and returns the verdict of
the engine's ordered :attr:`~ChaosEngine.battery`.  :meth:`~ChaosEngine.run`
feeds ``step`` from the seeded :class:`~repro.chaos.events.EventGenerator`
and, on a violation, emits a :class:`ChaosArtifact` — the config plus
the exact event prefix — which :func:`replay_artifact` (or ``python -m
repro chaos --replay``) turns back into the same violation, because
events carry fully-specified parameters and every random choice
(generation, fault injection, population synthesis) is seeded.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.assignment import AssignmentConfig
from repro.core.controller import DuetController, SimulatedCrash
from repro.net.topology import FatTreeParams, Topology
from repro.workload.distributions import DipCountModel
from repro.workload.vips import Dip, generate_population

from repro.chaos.events import (
    FORBIDDEN_IN_NO_ORACLE,
    NO_ORACLE_WEIGHTS,
    ChaosEvent,
    EventGenerator,
    EventKind,
    build_vip_from_params,
    crash_event,
)
from repro.chaos.invariants import (
    FlowAffinityTracker,
    InvariantChecker,
    MetricsConservation,
    Violation,
)


@dataclass
class ChaosConfig:
    """Everything needed to rebuild a chaos run bit-for-bit."""

    seed: int = 0
    n_events: int = 500
    # Deployment shape, on the fixed :data:`TOPOLOGY`.
    n_vips: int = 24
    n_smuxes: int = 3
    # Control-channel fault injection (0 = reliable channel).  The
    # values are ceilings: the generator samples loss/delay rates up to
    # them and keeps at most ``channel_partitions`` switches cut off
    # from lossy programming ops at once.
    channel_loss: float = 0.0
    channel_delay: float = 0.0
    channel_partitions: int = 0
    # These switches start partitioned from the control channel, so
    # they reject every programming op until healed.
    broken_switches: Tuple[int, ...] = ()
    # Engine behaviour.
    stop_on_violation: bool = True
    sabotage_step: Optional[int] = None
    # Controller-crash injection: per-step probability of killing the
    # controller and restoring it from its write-ahead journal.  Half
    # the crashes land at an op boundary, half at a fault point inside
    # the next op (mid-plan / mid-add_dip).
    crash_prob: float = 0.0
    snapshot_interval: int = 32
    # No-oracle mode: events mutate the health fault plane (silent
    # switch/SMux death, gray failures) instead of calling controller
    # lifecycle ops; remediation must come from the probe-driven
    # detector.  ``monitor_rounds_per_step`` probe periods run after
    # every event, and the HealthScorecard judges the loop against the
    # fault plane's ground truth.
    no_oracle: bool = False
    monitor_rounds_per_step: int = 3
    # Benign probe loss rate (exercises false-positive suppression).
    background_loss: float = 0.0
    # SLO engine + burn-rate alerting (requires no_oracle: the alert
    # evaluator runs on the monitor's sim clock and the AlertScorecard
    # judges incidents against the fault plane).
    slo: bool = False
    # False = keep the fault plane empty (only background loss): the
    # fault-free corpus for judging alert false positives.
    inject_faults: bool = True

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["broken_switches"] = list(self.broken_switches)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosConfig":
        """Inverse of :meth:`to_dict`.  A missing key takes its default;
        an unknown one (a field this version does not have) is refused,
        so an artifact never replays under a config it did not record."""
        unknown = sorted(data.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown ChaosConfig keys: {unknown}")
        kwargs = dict(data)
        kwargs["broken_switches"] = tuple(kwargs.get("broken_switches", ()))
        return cls(**kwargs)


#: The chaos deployment's fabric: the test suite's tiny FatTree.
TOPOLOGY = FatTreeParams(
    n_containers=2, tors_per_container=3, aggs_per_container=2, n_cores=2,
    servers_per_tor=8,
)


def build_controller(config: ChaosConfig) -> DuetController:
    """Deterministically build the deployment under test."""
    topology = Topology(TOPOLOGY)
    population = generate_population(
        topology,
        n_vips=config.n_vips,
        total_traffic_bps=10e9,
        dip_model=DipCountModel(median_large=6.0, max_dips=12),
        seed=config.seed,
    )
    controller = DuetController(
        topology,
        population,
        n_smuxes=config.n_smuxes,
        config=AssignmentConfig(),
        hash_seed=config.seed,
    )
    for switch in config.broken_switches:
        controller.channel.partition(f"switch:{switch}")
    controller.run_initial_assignment()
    return controller


def apply_event(controller: DuetController, event: ChaosEvent) -> None:
    """Apply one fully-specified event to the live controller."""
    kind, params = event.kind, event.params
    if kind is EventKind.FAIL_SWITCH:
        controller.fail_switch(params["switch"])
    elif kind is EventKind.RECOVER_SWITCH:
        controller.recover_switch(params["switch"])
    elif kind is EventKind.FAIL_SMUX:
        controller.fail_smux(params["smux"])
    elif kind is EventKind.ADD_SMUX:
        controller.add_smux()
    elif kind is EventKind.DIP_DOWN:
        controller.host_agents[params["server"]].set_health(
            params["dip"], False
        )
    elif kind is EventKind.DIP_UP:
        controller.host_agents[params["server"]].set_health(
            params["dip"], True
        )
    elif kind is EventKind.REAP_DIPS:
        controller.reap_failed_dips()
    elif kind is EventKind.CUT_LINK:
        controller.cut_link(params["link"])
    elif kind is EventKind.RESTORE_LINK:
        controller.restore_link(params["link"])
    elif kind is EventKind.ADD_VIP:
        controller.add_vip(build_vip_from_params(controller, params))
    elif kind is EventKind.REMOVE_VIP:
        controller.remove_vip(params["vip"])
    elif kind is EventKind.ADD_DIP:
        controller.add_dip(params["vip"], Dip(
            addr=params["dip"],
            server_id=params["server"],
            tor=controller.topology.server_tor(params["server"]),
        ))
    elif kind is EventKind.REMOVE_DIP:
        controller.remove_dip(params["vip"], params["dip"])
    elif kind is EventKind.REBALANCE:
        controller.rebalance()
    elif kind is EventKind.ENABLE_SNAT:
        controller.enable_snat(params["vip"])
    elif kind is EventKind.SABOTAGE:
        # Deliberate corruption, bypassing the controller: announce the
        # VIP's /32 from a switch that never programmed it.
        from repro.net.addressing import Prefix
        from repro.net.bgp import MuxRef

        controller.route_table.announce(
            Prefix.host(params["vip"]), MuxRef.hmux(params["switch"])
        )
    else:  # pragma: no cover
        raise ValueError(f"unhandled event kind {kind}")


#: Default sampling weights for channel-fault kinds, applied only when
#: the config enables the corresponding fault.  Heal outweighs injection
#: slightly so runs keep cycling degraded -> healed -> converged.
CHANNEL_WEIGHTS = {
    EventKind.CHANNEL_LOSS: 2.5,
    EventKind.CHANNEL_DELAY: 2.5,
    EventKind.CHANNEL_PARTITION: 3.0,
    EventKind.CHANNEL_HEAL: 3.5,
}

#: Event kinds handled by the engine itself: they mutate the control
#: channel (and, on heal, drive a timed anti-entropy convergence pass),
#: never the controller's data plane directly.
CHANNEL_KINDS = frozenset(CHANNEL_WEIGHTS)


#: Event kinds that mutate the fault plane instead of the controller.
FAULT_PLANE_KINDS = frozenset({
    EventKind.SILENT_FAIL_SWITCH,
    EventKind.SILENT_RECOVER_SWITCH,
    EventKind.SILENT_FAIL_SMUX,
    EventKind.SILENT_RECOVER_SMUX,
    EventKind.GRAY_FAILURE,
    EventKind.GRAY_RECOVER,
})


def apply_fault_event(fault_plane, event: ChaosEvent, t: float) -> None:
    """Apply one no-oracle event to the fault plane at simulated time
    ``t``.  The controller is deliberately not an argument: these events
    must not be able to touch it."""
    kind, params = event.kind, event.params
    if kind is EventKind.SILENT_FAIL_SWITCH:
        fault_plane.silent_fail_switch(params["switch"], t)
    elif kind is EventKind.SILENT_RECOVER_SWITCH:
        fault_plane.silent_recover_switch(params["switch"], t)
    elif kind is EventKind.SILENT_FAIL_SMUX:
        fault_plane.silent_fail_smux(params["smux"], t)
    elif kind is EventKind.SILENT_RECOVER_SMUX:
        fault_plane.silent_recover_smux(params["smux"], t)
    elif kind is EventKind.GRAY_FAILURE:
        fault_plane.inject_gray(
            params["switch"], params["vip"], params["loss"], t
        )
    elif kind is EventKind.GRAY_RECOVER:
        fault_plane.clear_gray(params["switch"], params["vip"], t)
    else:  # pragma: no cover
        raise ValueError(f"not a fault-plane event kind: {kind}")


@dataclass
class StepTrace:
    """One engine step: the event plus what the checkers said."""

    step: int
    event: ChaosEvent
    violations: List[Violation] = field(default_factory=list)


@dataclass
class ChaosArtifact:
    """Reproduction recipe for a violation: config + event prefix.

    ``events`` is every event applied up to and including the violating
    step, fully specified, so :func:`replay_artifact` reproduces the
    exact controller state without re-running generation.
    """

    config: Dict[str, Any]
    events: List[Dict[str, Any]]
    violation_step: int
    violations: List[str]
    #: Top-N (series, delta) pairs over the run up to the violation —
    #: the telemetry context needed to debug the artifact.
    metric_deltas: List[Tuple[str, float]] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "config": self.config,
            "events": self.events,
            "violation_step": self.violation_step,
            "violations": self.violations,
            "metric_deltas": [
                [name, delta] for name, delta in self.metric_deltas
            ],
        }, indent=2)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ChaosArtifact":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return cls(
            config=data["config"],
            events=data["events"],
            violation_step=data["violation_step"],
            violations=list(data["violations"]),
            metric_deltas=[
                (name, delta)
                for name, delta in data.get("metric_deltas", ())
            ],
        )


@dataclass
class ChaosReport:
    """Outcome of a chaos run."""

    config: ChaosConfig
    steps_run: int
    event_counts: Dict[str, int]
    violations: List[Violation]
    first_violation_step: Optional[int]
    artifact: Optional[ChaosArtifact]
    traces: List[StepTrace]
    crashes: int = 0
    stats: Dict[str, float] = field(default_factory=dict)
    #: Top-N (series, delta) pairs across the whole run.
    metric_deltas: List[Tuple[str, float]] = field(default_factory=list)
    #: No-oracle runs only: HealthScorecard.stats() — detection counts,
    #: latencies, false positives.
    health: Optional[Dict[str, Any]] = None
    #: Control-channel counters (the channel survives crashes) plus
    #: pending-ops ledger totals folded across every incarnation.
    channel: Dict[str, int] = field(default_factory=dict)
    #: SLO runs only: AlertScorecard stats, per-SLO error budgets, and
    #: every alert episode (fired and resolved).
    slo: Optional[Dict[str, Any]] = None
    #: SLO runs only: replayable incident artifacts
    #: (:class:`repro.obs.incident.Incident`), one per fired alert.
    incidents: List[Any] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


class ChaosEngine:
    """Drive a live controller through seeded chaos with per-step checks."""

    def __init__(
        self,
        config: ChaosConfig,
        *,
        events: Optional[Sequence[ChaosEvent]] = None,
    ) -> None:
        """With ``events`` the engine replays that exact sequence instead
        of generating (the artifact path); checks still run per step."""
        self.config = config
        self.controller = build_controller(config)
        self._scripted = list(events) if events is not None else None
        # No-oracle mode: faults go into a FaultPlane the controller
        # never sees; the probe-driven HealthMonitor must find and fix
        # them, and the HealthScorecard judges it against ground truth.
        self.fault_plane = None
        self.monitor = None
        self.scorecard = None
        if config.slo and not config.no_oracle:
            raise ValueError("slo=True requires no_oracle=True")
        if config.no_oracle:
            from repro.health import FaultPlane

            self.fault_plane = FaultPlane(
                seed=config.seed, background_loss=config.background_loss,
            )
        # Generator seed is derived from (not equal to) the config seed
        # so event sampling and population synthesis draw independent
        # streams.
        weights: Dict[EventKind, float] = (
            dict(NO_ORACLE_WEIGHTS) if config.no_oracle else {}
        )
        if config.no_oracle and not config.inject_faults:
            # Fault-free corpus: the generator still churns VIPs, DIPs
            # and rebalances, but the fault plane stays empty so any
            # alert that fires is a false positive by construction.
            for kind in FAULT_PLANE_KINDS:
                weights[kind] = 0.0
        channel_faults = {
            EventKind.CHANNEL_LOSS: config.channel_loss > 0,
            EventKind.CHANNEL_DELAY: config.channel_delay > 0,
            EventKind.CHANNEL_PARTITION: config.channel_partitions > 0,
        }
        channel_faults[EventKind.CHANNEL_HEAL] = any(channel_faults.values())
        for kind, enabled in channel_faults.items():
            if enabled:
                weights[kind] = CHANNEL_WEIGHTS[kind]
        self.generator = EventGenerator(
            self.controller,
            seed=config.seed ^ 0x5EED,
            weights=weights or None,
            fault_plane=self.fault_plane,
            channel_loss=config.channel_loss,
            channel_delay=config.channel_delay,
            channel_partitions=config.channel_partitions,
        )
        # Telemetry: a per-run registry + recorder.  The instrumentation
        # handle survives crash-restarts (rebind in _do_crash) and carries
        # every incarnation's counts, so its counters are monotone across
        # crashes, and the battery checks the registry's conservation laws.
        from repro.obs import MetricsRegistry, Recorder, instrument_controller

        self.registry = MetricsRegistry()
        self.instrumentation = instrument_controller(
            self.controller, self.registry,
        )
        # SLO runs tick once per monitor round on top of the per-step
        # tick; size the window so burn-rate lookbacks never fall off.
        recorder_capacity = (
            max(2, config.n_events * (config.monitor_rounds_per_step + 1) + 2)
            if config.slo
            else max(2, config.n_events + 1)
        )
        self.recorder = Recorder(self.registry, capacity=recorder_capacity)
        self._chaos_crashes = self.registry.counter(
            "duet_chaos_crashes_total",
            "Controller crash-restarts injected by the chaos engine",
        )
        self._chaos_events = self.registry.counter(
            "duet_chaos_events_total",
            "Chaos events applied, by kind", ("kind",),
        )
        self.registry.register_collector(
            "chaos", lambda reg: self._chaos_crashes.set_total(self.crashes),
        )
        self.checker = InvariantChecker(self.controller)
        self.tracker = FlowAffinityTracker(self.controller)
        # Durability: every engine run journals, so a crash event (or a
        # user poking at --crash-prob) always has intent to restore from.
        from repro.durability import WriteAheadJournal

        self.controller.attach_journal(
            WriteAheadJournal(),
            snapshot_interval=config.snapshot_interval,
        )
        # The crash decision stream is independent of event sampling so
        # the same seed explores the same event sequence with and
        # without crashes.
        self._crash_rng = random.Random(config.seed ^ 0xC4A54)
        self._armed: Optional[Dict[str, int]] = None
        self.crashes = 0
        if config.no_oracle:
            from repro.health import (
                HealthConfig, HealthMonitor, HealthScorecard,
            )

            self.health_config = HealthConfig()
            self.monitor = HealthMonitor(
                self.controller,
                self.fault_plane,
                self.health_config,
                registry=self.registry,
                seed=config.seed,
            )
            self.scorecard = HealthScorecard(
                self.fault_plane,
                self.monitor,
                self.health_config,
                registry=self.registry,
            )
            self._retired_smux_cursor = 0
        # SLO engine: compiled SLOs + burn-rate alert evaluator over the
        # recorder, incident forensics on fire, scorecard vs the fault
        # plane's ground truth.
        self.tracer = None
        self.alerts = None
        self.alert_scorecard = None
        self.incidents: List[Any] = []
        self._event_log: Optional[List[Tuple[float, Dict[str, Any]]]] = None
        self._slo_names: Optional[List[str]] = None
        self._build_incident = None
        if config.slo:
            from repro.obs import Tracer
            from repro.obs.alerts import (
                AlertEvaluator, build_default_policies,
            )
            from repro.obs.incident import AlertScorecard, build_incident
            from repro.obs.slo import build_default_slos

            self.tracer = Tracer()
            self.controller.attach_tracer(self.tracer)
            slos = build_default_slos(
                self.registry,
                detection_budget_s=self.health_config.detection_budget_s,
            )
            self.alerts = AlertEvaluator(
                slos,
                self.recorder,
                build_default_policies(self.health_config.probe_period_s),
                registry=self.registry,
            )
            self.alert_scorecard = AlertScorecard(
                self.fault_plane,
                self.alerts,
                detection_budget_s=self.health_config.detection_budget_s,
            )
            self._event_log = []
            self._slo_names = self.alerts.instrument_names()
            self._build_incident = build_incident
        #: What every step is judged by, in order.  ``step`` looks
        #: ``check`` up on each part at call time, so a class-level
        #: wrapper of a part's ``check`` sees every call.
        self.battery: Tuple[Any, ...] = (
            self.checker,
            MetricsConservation(self.registry),
            self.tracker,
        ) + ((self.scorecard,) if self.scorecard is not None else ())
        #: Everything kept across a crash that holds the controller, in
        #: rebind order: ``_do_crash`` points each at the restored one.
        self.survivors: Tuple[Any, ...] = (
            self.generator, self.checker, self.tracker, self.instrumentation,
        ) + ((self.monitor,) if self.monitor is not None else ())
        self.applied: List[ChaosEvent] = []
        self.event_counts: Dict[str, int] = {}
        self.tracker.prime()
        # The pre-chaos baseline observation.
        self.recorder.tick(now=self._now())

    def _now(self) -> Optional[float]:
        """The recorder's clock: SLO runs keep the whole time axis on
        the monitor's sim clock so burn-rate windows line up with probe
        rounds; other runs use the recorder's own."""
        return self.monitor.clock.now_s if self.config.slo else None

    def _next_event(self, step: int) -> Optional[ChaosEvent]:
        if self._scripted is not None:
            if step >= len(self._scripted):
                return None
            return self._scripted[step]
        if step >= self.config.n_events:
            return None
        if self.config.sabotage_step == step:
            return self.generator.sabotage_event()
        if (
            self.config.crash_prob > 0
            and self._armed is None
            and self._crash_rng.random() < self.config.crash_prob
        ):
            return crash_event(self._crash_rng)
        return self.generator.next_event()

    # -- controller crash-restart ------------------------------------------

    def _arm_crash(self, countdown: int) -> None:
        """Arm the controller's crash hook: die at the ``countdown``-th
        op-internal crash point reached from now on."""
        state = {"n": countdown}

        def hook(label: str) -> bool:
            state["n"] -= 1
            return state["n"] <= 0

        self._armed = state
        self.controller.set_crash_hook(hook)

    def _do_crash(self) -> None:
        """Kill the controller and bring it back: harvest the surviving
        dataplane, restore intent from the journal, reconcile drift,
        then point every one of :attr:`survivors` at the restored one."""
        from repro.durability import AntiEntropyReconciler, harvest_dataplane

        dying = self.controller
        restored = DuetController.restore(
            dying.journal,
            dataplane=harvest_dataplane(dying),
            topology=dying.topology,
        )
        AntiEntropyReconciler(restored).converge()
        self.controller = restored
        for survivor in self.survivors:
            survivor.rebind(restored)
        if self.tracer is not None:
            restored.attach_tracer(self.tracer)
        self._armed = None
        self.crashes += 1

    def _apply_channel_event(self, event: ChaosEvent) -> List[Violation]:
        """Apply one control-channel event.  A heal is immediately
        followed by a duplicate-redelivery pump and a timed anti-entropy
        convergence pass; failing to converge on a *fully* healed
        channel is an engine-level violation (with faults still active
        elsewhere, residual drift is expected and left to later heals).
        """
        import time

        from repro.durability import AntiEntropyReconciler

        channel = self.controller.channel
        kind, params = event.kind, event.params
        if kind is EventKind.CHANNEL_LOSS:
            channel.set_loss(params["loss"])
            return []
        if kind is EventKind.CHANNEL_DELAY:
            channel.set_delay(params["delay"])
            return []
        if kind is EventKind.CHANNEL_PARTITION:
            channel.partition(f"switch:{params['switch']}")
            return []
        assert kind is EventKind.CHANNEL_HEAL, kind
        switch = params.get("switch")
        channel.heal(None if switch is None else f"switch:{switch}")
        channel.pump()
        started = time.perf_counter()
        report = AntiEntropyReconciler(self.controller).converge()
        self.instrumentation.channel_convergence.observe(
            time.perf_counter() - started
        )
        fully_healed = (
            not channel.partitioned
            and channel.loss_prob == 0
            and channel.delay_prob == 0
        )
        if fully_healed and not report.converged:
            return [Violation(
                "channel-convergence",
                "intent and installed state failed to converge in "
                f"{report.rounds} reconcile round(s) after the channel "
                "fully healed",
            )]
        return []

    def channel_totals(self) -> Dict[str, int]:
        """Channel counters (deployment-lifetime) plus ledger totals
        folded across every controller incarnation."""
        channel = self.controller.channel
        totals: Dict[str, int] = dict(channel.stats.as_dict())
        for key, value in self.instrumentation.totals().items():
            if key.startswith("ledger_"):
                totals[key] = value
        totals["queued_dups"] = channel.queued_dups()
        totals["epoch"] = channel.epoch
        return totals

    def stats_totals(self) -> Dict[str, float]:
        """Observability counters summed over every controller
        incarnation of this run (journal counters are lifetime values of
        the shared journal, so they are taken from the live one only)."""
        folded = self.instrumentation.totals()
        return {
            key: folded.get(key, value)
            for key, value in self.controller.stats_snapshot().items()
        }

    def _run_monitor_rounds(self) -> None:
        """Advance the health loop ``monitor_rounds_per_step`` probe
        periods.  A crash armed earlier may fire inside a detector-driven
        remediation op here — that is the detect-under-crash scenario —
        and the monitor survives the restart via :meth:`_do_crash`'s
        rebind.  A crash still armed after the rounds lands on the
        boundary instead of evaporating."""
        for _ in range(self.config.monitor_rounds_per_step):
            try:
                self.monitor.run_round()
            except SimulatedCrash:
                self._do_crash()
            if self.alerts is not None:
                self._evaluate_alerts()
        if self._armed is not None:
            self._do_crash()
        # SMuxes the remediation loop removed can never fault again.
        removed = self.monitor.remediation.removed_smuxes
        for smux_id in removed[self._retired_smux_cursor:]:
            self.fault_plane.retire_smux(smux_id, self.monitor.clock.now_s)
        self._retired_smux_cursor = len(removed)

    def _evaluate_alerts(self) -> None:
        """One alert round on the sim clock: a cheap partial recorder
        tick over the SLO instrument whitelist (no collectors), then the
        burn-rate evaluator; each newly fired alert becomes a replayable
        incident artifact built from the causal state at fire time."""
        now = self.monitor.clock.now_s
        self.recorder.tick(now=now, only=self._slo_names)
        for alert in self.alerts.evaluate(now):
            self.incidents.append(self._build_incident(
                alert,
                now=now,
                config=self.config,
                events=self._event_log,
                fault_plane=self.fault_plane,
                monitor=self.monitor,
                controller=self.controller,
                tracer=self.tracer,
                index=len(self.incidents),
            ))

    def step(self, event: ChaosEvent) -> List[Violation]:
        """Apply one event, run the health loop, and judge the result:
        the only way an event reaches the deployment.  Returns the
        apply verdict (``channel-convergence`` after a heal) followed by
        each :attr:`battery` part's, in order; empty when all held."""
        violations: List[Violation] = []
        if event.kind is EventKind.CONTROLLER_CRASH:
            during = event.params.get("during_next")
            if during is None:
                self._do_crash()
            else:
                self._arm_crash(during)
        elif event.kind in CHANNEL_KINDS:
            try:
                violations = self._apply_channel_event(event)
            except SimulatedCrash:
                # The post-heal reconcile pass hit an armed crash
                # point; recovery's own converge finishes the heal.
                self._do_crash()
        elif event.kind in FAULT_PLANE_KINDS:
            if self.fault_plane is None:
                raise ValueError(
                    f"{event.kind.value} requires no_oracle=True"
                )
            apply_fault_event(
                self.fault_plane, event, self.monitor.clock.now_s
            )
        else:
            if self.config.no_oracle and event.kind in FORBIDDEN_IN_NO_ORACLE:
                raise ValueError(
                    f"{event.kind.value} is an oracle-style lifecycle "
                    "op, forbidden in no-oracle mode"
                )
            was_armed = self._armed is not None
            try:
                apply_event(self.controller, event)
            except SimulatedCrash:
                self._do_crash()
            else:
                if was_armed and self.monitor is None:
                    # The op exposed fewer crash points than the armed
                    # countdown; the kill lands on the op boundary
                    # instead of evaporating.  (In no-oracle mode the
                    # armed crash stays live so it can fire inside a
                    # detector-driven remediation op.)
                    self._do_crash()
        self.applied.append(event)
        if self._event_log is not None:
            self._event_log.append((self.monitor.clock.now_s, event.to_dict()))
        kind = event.kind.value
        self.event_counts[kind] = self.event_counts.get(kind, 0) + 1
        self._chaos_events.labels(kind).inc()
        self.tracker.note(event)
        if self.monitor is not None:
            self._run_monitor_rounds()
        # Redeliver any delayed duplicate commands before checking:
        # fencing must absorb them without side effects, and the
        # battery's channel-fencing check sees the result.
        self.controller.channel.pump()
        for part in self.battery:
            violations += part.check()
        # Observe after the checks, so the step's series include the
        # packets their probes forwarded.
        self.recorder.tick(now=self._now())
        return violations

    def run(self) -> ChaosReport:
        traces: List[StepTrace] = []
        all_violations: List[Violation] = []
        first_violation_step: Optional[int] = None
        artifact: Optional[ChaosArtifact] = None
        step = 0
        while (event := self._next_event(step)) is not None:
            violations = self.step(event)
            traces.append(StepTrace(step, event, violations))
            if violations:
                all_violations.extend(violations)
                if first_violation_step is None:
                    first_violation_step = step
                    artifact = ChaosArtifact(
                        config=self.config.to_dict(),
                        events=[e.to_dict() for e in self.applied],
                        violation_step=step,
                        violations=[str(v) for v in violations],
                        metric_deltas=self.recorder.top_deltas(10),
                    )
                if self.config.stop_on_violation:
                    break
            step += 1
        return ChaosReport(
            config=self.config,
            steps_run=len(self.applied),
            event_counts=self.event_counts,
            violations=all_violations,
            first_violation_step=first_violation_step,
            artifact=artifact,
            traces=traces,
            crashes=self.crashes,
            stats=self.stats_totals(),
            metric_deltas=self.recorder.top_deltas(10),
            health=(
                self.scorecard.stats() if self.scorecard is not None else None
            ),
            channel=self.channel_totals(),
            slo=self.slo_summary(),
            incidents=list(self.incidents),
        )

    def slo_summary(self) -> Optional[Dict[str, Any]]:
        """AlertScorecard stats + per-SLO budgets + alert episodes, or
        ``None`` when the SLO engine is off."""
        if self.alerts is None:
            return None
        now = self.monitor.clock.now_s
        return {
            "scorecard": self.alert_scorecard.stats(now),
            "budgets": self.alerts.budgets(),
            "alerts": [a.to_dict() for a in self.alerts.incidents],
        }


def replay_artifact(
    artifact: Union[ChaosArtifact, str],
) -> ChaosReport:
    """Rebuild the deployment from an artifact and re-apply its event
    prefix, checking invariants after every step.  A faithful artifact
    reproduces its violation at the recorded step."""
    if isinstance(artifact, str):
        artifact = ChaosArtifact.load(artifact)
    config = ChaosConfig.from_dict(artifact.config)
    events = [ChaosEvent.from_dict(e) for e in artifact.events]
    engine = ChaosEngine(config, events=events)
    return engine.run()
