"""Stateful (model-based) fuzzing of the chaos engine.

Hypothesis drives :meth:`ChaosEngine.step` — the one place an event
reaches the deployment and is judged — with events it draws itself: a
kind the engine's own generator samples for its config (plus controller
crashes), built against the live state by ``EventGenerator.build`` from
a drawn seed.  Every step must come back clean from the engine's battery
(reachability, route liveness, table capacity, SNAT disjointness,
intent == dataplane, channel fencing, metrics conservation, flow
affinity, and in no-oracle runs the health scorecard), and a failure
shrinks to a minimal event list.  Any kind the engine gains is fuzzed
with no edit here.

Two configs between them draw every event kind but ``SABOTAGE`` (which
is deliberate corruption): an oracle run over a lossy, delaying,
partitionable control channel, and a no-oracle run whose faults live in
the health fault plane.  A third, the oracle run over a reliable but
partitionable channel, sharpens the twin claim below.

The machine adds the claims no battery part states:

* journal replay is equivalent to never crashing: a never-crashed twin
  engine steps every event the machine steps, crashes included (on the
  twin a crash only runs the monitor rounds, the pump and the battery,
  which keeps its sim clock aligned), and after every step its battery
  is clean and its :func:`controller_fingerprint` equals the crashed
  engine's.  The lossy oracle run has no twin: every loss draw there
  comes from one channel RNG, which recovery's repairs also consume.

* a pinned flow keeps its DIP while its serving mux and DIP set are
  stable (the tracker excuses more, because it must re-anchor after
  every event);
* the intent is self-consistent where the anti-entropy diff cannot see:
  no record on a failed switch, degraded VIPs unplaced, SNAT only for
  live VIPs, the population a view of the records, and its DIP -> VIPs
  and switch -> VIPs indexes equal to a rebuild from the records — on
  the twin too, and after a crash's journal restore.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.chaos import ChaosConfig, ChaosEngine, EventKind
from repro.dataplane.batch import FORWARD_OK, FlowBatch
from repro.dataplane.packet import make_tcp_packet
from repro.durability import controller_fingerprint
from repro.workload.vips import CLIENT_POOL

#: Steps per example, and the configs' ``n_events`` (which sizes the
#: engine's recorder window).
STEPS = 30

ORACLE = ChaosConfig(
    seed=7, n_events=STEPS, n_vips=8,
    channel_loss=0.3, channel_delay=0.2, channel_partitions=2,
)
NO_ORACLE = ChaosConfig(
    seed=7, n_events=STEPS, n_vips=8, no_oracle=True, background_loss=0.02,
)
RELIABLE = replace(ORACLE, channel_loss=0.0, channel_delay=0.0)


def drawn_kinds(engine: ChaosEngine) -> List[EventKind]:
    """The kinds the machine draws for ``engine``: whatever its own
    generator samples, plus controller crashes (the engine's separate
    crash stream)."""
    weights = engine.generator.weights
    return [k for k, w in weights.items() if w > 0] + [
        EventKind.CONTROLLER_CRASH
    ]


def rebuilt_indexes(intent):
    """The intent's two indexes, rebuilt from its records."""
    of_dip: dict = {}
    on_switch: dict = {}
    for addr, record in intent.records.items():
        for dip in record.dips:
            of_dip.setdefault(dip.addr, set()).add(addr)
        if record.assigned_switch is not None:
            on_switch.setdefault(record.assigned_switch, set()).add(addr)
    return of_dip, on_switch


class NeverCrashedEngine(ChaosEngine):
    """The twin: a crash event neither kills nor arms anything."""

    def _do_crash(self) -> None:
        pass

    def _arm_crash(self, countdown: int) -> None:
        pass


class ChaosMachine(RuleBasedStateMachine):
    config = ORACLE
    with_twin = False

    def __init__(self) -> None:
        super().__init__()
        self.engine = ChaosEngine(self.config)
        self.twin = NeverCrashedEngine(self.config) if self.with_twin else None
        self.kinds = drawn_kinds(self.engine)
        # (vip, index) -> (dip, mux, DIP set, assigned switch)
        self.pinned: dict = {}

    @rule(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def chaos_event(self, data, seed):
        kind = data.draw(st.sampled_from(self.kinds), label="kind")
        generator = self.engine.generator
        generator.rng.seed(seed)
        event = generator.build(kind)
        if event is None:
            return  # infeasible against this state: not a step
        assert self.engine.step(event) == []
        if self.twin is not None:
            assert self.twin.step(event) == []
            assert controller_fingerprint(self.engine.controller) == (
                controller_fingerprint(self.twin.controller)
            )
        self.drop_unstable_pins()

    def drop_unstable_pins(self) -> None:
        """Forget each pin whose VIP vanished, moved switch or gained a
        DIP in the step just taken.  Checked after every step, so a DIP
        added and removed again between two pins (the addition rebuilt
        the tables) or a switch failed and recovered still drops it."""
        records = self.engine.controller.intent.records
        for key, (_, _, pin_dips, switch) in list(self.pinned.items()):
            record = records.get(key[0])
            if (record is None or record.assigned_switch != switch
                    or frozenset(record.dip_addrs()) - pin_dips):
                del self.pinned[key]

    @rule(index=st.integers(min_value=0, max_value=50))
    def pin_and_check_flow(self, index):
        """A previously seen flow keeps its DIP while its serving mux and
        DIP set are stable.

        The strict claim holds only when the flow stays on the same mux
        and no DIP was added since the pin: a DIP addition rebuilds the
        tables (resilient hashing cannot absorb additions, S5.2), and a
        mux change can land the flow on a fresh layout that never saw
        the resilient-removal history protecting it (the chaos tracker
        in repro.chaos.invariants models the full matrix).
        """
        controller = self.engine.controller
        records = sorted(controller.records().items())
        addr, record = records[index % len(records)]
        packet = make_tcp_packet(
            CLIENT_POOL.network + index, addr, 9000 + index, 80,
        )
        result = controller.forward_batch(FlowBatch.from_packets([packet]))
        if self.twin is not None:  # the twin sees the same traffic
            self.twin.controller.forward_batch(FlowBatch.from_packets([packet]))
        if result.status[0] != FORWARD_OK:
            return  # reachability is the battery's claim, not this one's
        got, mux = int(result.dip[0]), result.mux[0]
        key = (addr, index)
        dips_now = frozenset(record.dip_addrs())
        if key in self.pinned:
            dip, pin_mux, pin_dips, _ = self.pinned[key]
            if mux == pin_mux and dip in dips_now and not dips_now - pin_dips:
                assert got == dip
        self.pinned[key] = (got, mux, dips_now, record.assigned_switch)

    @invariant()
    def intent_is_self_consistent(self):
        """What the anti-entropy diff cannot see, the intent's own
        transitions guarantee."""
        controller = self.engine.controller
        intent = controller.intent
        for addr, record in intent.records.items():
            assert record.assigned_switch not in intent.failed_switches
            if addr in intent.degraded:
                assert record.assigned_switch is None
        assert set(intent.snat) <= set(intent.records)
        assert [v.addr for v in controller.population] == list(
            controller.records()
        )
        for engine in (self.engine, self.twin):
            if engine is not None:
                intent = engine.controller.intent
                assert (intent.vips_of_dip, intent.vips_on_switch) == (
                    rebuilt_indexes(intent)
                )


class NoOracleChaosMachine(ChaosMachine):
    config = NO_ORACLE
    with_twin = True


class ReliableChaosMachine(ChaosMachine):
    config = RELIABLE
    with_twin = True


for machine in (ChaosMachine, NoOracleChaosMachine, ReliableChaosMachine):
    machine.TestCase.settings = settings(
        max_examples=12, stateful_step_count=STEPS, deadline=None,
    )
TestDuetControllerStateful = ChaosMachine.TestCase
TestNoOracleStateful = NoOracleChaosMachine.TestCase
TestReliableStateful = ReliableChaosMachine.TestCase


def test_machine_draws_every_event_kind():
    drawn = set()
    for config in (ORACLE, NO_ORACLE):
        drawn.update(drawn_kinds(ChaosEngine(
            ChaosConfig.from_dict({**config.to_dict(), "n_events": 0})
        )))
    assert drawn == set(EventKind) - {EventKind.SABOTAGE}
