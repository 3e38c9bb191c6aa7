"""Chaos engine: randomized fault injection over a live controller.

The paper's availability story (S5.1, Figures 12/19) is that the SMux
backstop keeps every VIP reachable through arbitrary HMux/switch/DIP
failures and migrations.  This package turns that claim into a checked
property: a seeded generator drives a live
:class:`~repro.core.controller.DuetController` through randomized event
sequences (switch fail/recover, SMux fail/add, DIP flaps, link cuts, VIP
and DIP churn, rebalance epochs, SNAT enablement, controller crashes,
control-channel and silent/gray faults).  Every event goes through
:meth:`ChaosEngine.step`, which applies it and returns the verdict of one
ordered battery of invariants.  Seeded runs come with a reproduction
artifact on violation: the config seed plus the exact event prefix,
replayable with :func:`replay_artifact` or ``python -m repro chaos
--replay``; the test suite's Hypothesis machine drives the same ``step``
with drawn events and shrinks a failure to a minimal event list.
"""

from repro.chaos.engine import (
    ChaosArtifact,
    ChaosConfig,
    ChaosEngine,
    ChaosReport,
    StepTrace,
    apply_event,
    build_controller,
    replay_artifact,
)
from repro.chaos.events import ChaosEvent, EventGenerator, EventKind
from repro.chaos.invariants import (
    FlowAffinityTracker,
    InvariantChecker,
    Violation,
)

__all__ = [
    "ChaosArtifact",
    "ChaosConfig",
    "ChaosEngine",
    "ChaosEvent",
    "ChaosReport",
    "EventGenerator",
    "EventKind",
    "FlowAffinityTracker",
    "InvariantChecker",
    "StepTrace",
    "Violation",
    "apply_event",
    "build_controller",
    "replay_artifact",
]
