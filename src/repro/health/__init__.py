"""Probe-driven failure detection and autonomous remediation.

Duet's availability story (paper S5.3, Figures 12/19) assumes failures
are *detected* — switch monitoring plus Ananta-style DIP health probes —
before the controller withdraws routes and falls back to SMuxes.  This
package closes that loop without oracle knowledge: a
:class:`ProbeScheduler` drives pingmesh-style heartbeats against
HMuxes, SMuxes and DIPs on a simulated clock, a :class:`HealthDetector`
turns probe columns into suspicion scores (EWMA loss + consecutive-miss
fast path) with gray-failure detection corroborated against the metrics
registry, a quarantine state machine
(``healthy -> suspect -> quarantined -> probation -> healthy``) adds
hysteresis, and a :class:`RemediationLoop` translates verdicts into the
existing journaled controller lifecycle ops.

The :class:`FaultPlane` is the injection side: it makes components fail
*silently* (observable through probes and telemetry only — the
controller is never told), which is what the chaos engine's no-oracle
mode drives.  :class:`HealthScorecard` judges the loop against the
fault plane's ground-truth log: every injected fault detected within
budget, no healthy component stuck in quarantine, no false positives.
"""

from repro.health.detector import (
    HealthConfig,
    HealthDetector,
    HealthState,
    Verdict,
    VerdictKind,
)
from repro.health.faults import FaultPlane, FaultRecord
from repro.health.probes import ProbeNetwork, ProbeRound, ProbeScheduler, SimClock
from repro.health.remediation import HealthMonitor, RemediationLoop
from repro.health.invariants import HealthScorecard

__all__ = [
    "FaultPlane",
    "FaultRecord",
    "HealthConfig",
    "HealthDetector",
    "HealthMonitor",
    "HealthScorecard",
    "HealthState",
    "ProbeNetwork",
    "ProbeRound",
    "ProbeScheduler",
    "RemediationLoop",
    "SimClock",
    "Verdict",
    "VerdictKind",
]
