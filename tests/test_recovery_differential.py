"""Differential crash-recovery: a crashed-and-recovered controller is
indistinguishable from one that never crashed.

For each seeded chaos schedule (with ``controller_crash`` events enabled,
landing both at op boundaries and inside ops), the engine kills and
restores the controller mid-run; the full invariant battery — including
``intent-matches-dataplane`` — runs after every event.  A *twin*
controller is then driven through the same surviving event sequence
(every applied event except the crashes) without ever crashing, and the
two must agree on :func:`controller_fingerprint`: records in insertion
order, the stored assignment, announcements, every switch and SMux
table, SNAT manager state, and the SMux id high-water mark.

The schedules run on a reliable channel (``channel_loss=0``): channel
loss draws from one RNG stream shared by normal ops and reconciliation
repairs, so a crashed run and its twin would legitimately consume
different fault sequences — the twin would no longer be a control.

This file is the seeded corpus.  The shrinkable form of the same claim
is the never-crashed twin in the Hypothesis machine
(``tests/test_stateful.py``): it steps beside the crashed engine, crash
events included, and a divergence shrinks to a minimal event list.
"""

from __future__ import annotations

import pytest

from repro.chaos.engine import (
    ChaosConfig,
    ChaosEngine,
    apply_event,
    build_controller,
)
from repro.chaos.events import ChaosEvent, EventKind
from repro.durability import controller_fingerprint

N_SCHEDULES = 200
CHUNK = 25


def _schedule_config(seed: int) -> ChaosConfig:
    return ChaosConfig(
        seed=seed,
        n_events=30,
        n_vips=10,
        crash_prob=0.15,
        snapshot_interval=8,
    )


def _run_one(seed: int) -> int:
    """Run one schedule; returns the number of crashes survived."""
    config = _schedule_config(seed)
    engine = ChaosEngine(config)
    report = engine.run()
    assert report.ok, (
        f"seed {seed}: invariants broke at step {report.first_violation_step}: "
        f"{[str(v) for v in report.violations[:3]]}"
    )
    assert report.steps_run == config.n_events
    twin = build_controller(config)
    for trace in report.traces:
        if trace.event.kind is EventKind.CONTROLLER_CRASH:
            continue
        apply_event(twin, trace.event)
    crashed = controller_fingerprint(engine.controller)
    control = controller_fingerprint(twin)
    assert crashed == control, f"seed {seed}: recovered state diverged"
    return report.crashes


@pytest.mark.parametrize(
    "chunk_start", list(range(0, N_SCHEDULES, CHUNK))
)
def test_recovered_controller_equals_never_crashed_twin(chunk_start):
    crashes = sum(
        _run_one(seed) for seed in range(chunk_start, chunk_start + CHUNK)
    )
    # Roughly 0.15 * 30 crashes per schedule; a silent floor of zero
    # would mean the sweep stopped exercising recovery at all.
    assert crashes >= CHUNK, (
        f"only {crashes} crashes across {CHUNK} schedules — "
        "crash injection is not firing"
    )


def test_scripted_replay_reproduces_crashes():
    """An applied event list containing controller_crash events replays
    faithfully: a scripted engine re-runs the same crashes (boundary and
    mid-op) and converges to the same fingerprint."""
    config = _schedule_config(seed=1)
    first = ChaosEngine(config)
    report = first.run()
    assert report.ok and report.crashes > 0
    events = [trace.event for trace in report.traces]
    assert any(e.kind is EventKind.CONTROLLER_CRASH for e in events)
    # Round-trip through the artifact wire format too.
    events = [ChaosEvent.from_dict(e.to_dict()) for e in events]
    replayed = ChaosEngine(config, events=events)
    replay_report = replayed.run()
    assert replay_report.ok
    assert replay_report.crashes == report.crashes
    assert (
        controller_fingerprint(replayed.controller)
        == controller_fingerprint(first.controller)
    )


def test_mid_op_crashes_actually_occur():
    """The sweep must exercise the roll-forward path, not only boundary
    crashes: across a handful of seeds, reconciliation performs real
    repairs (drift only exists when a crash landed inside an op)."""
    repairs = 0.0
    for seed in range(8):
        engine = ChaosEngine(ChaosConfig(
            seed=seed, n_events=60, n_vips=10, crash_prob=0.15,
        ))
        report = engine.run()
        assert report.ok
        repairs += report.stats["reconcile_repairs"]
    assert repairs > 0, "no mid-op crash ever left drift to repair"
