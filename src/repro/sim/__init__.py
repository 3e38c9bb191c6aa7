"""Discrete/fluid simulation: mux queueing, ping probes, scenarios."""

from repro.sim.control import (
    BreakdownStats,
    ControlPlaneModel,
    OperationSample,
    breakdown,
)
from repro.sim.deployment import (
    DeploymentLatencyConfig,
    DeploymentLatencyModel,
)
from repro.sim.pingmesh import PingSeries, ProbeResult
from repro.sim.queueing import (
    HMUX_BASE_LATENCY,
    LoadPhase,
    LognormalLatency,
    MuxStation,
    NETWORK_RTT,
    NETWORK_RTT_MEDIAN_S,
    SMUX_BASE_LATENCY,
    SMUX_BASE_MEDIAN_S,
    SMUX_BASE_P90_S,
    hmux_station,
    smux_cpu_utilization,
    smux_station,
)
from repro.sim.scenarios import (
    HMuxCapacityConfig,
    ScenarioResult,
    run_failover,
    run_hmux_capacity,
    run_migration,
    run_smux_failure,
)

__all__ = [
    "BreakdownStats",
    "ControlPlaneModel",
    "DeploymentLatencyConfig",
    "DeploymentLatencyModel",
    "HMUX_BASE_LATENCY",
    "HMuxCapacityConfig",
    "LoadPhase",
    "LognormalLatency",
    "MuxStation",
    "NETWORK_RTT",
    "NETWORK_RTT_MEDIAN_S",
    "OperationSample",
    "PingSeries",
    "ProbeResult",
    "SMUX_BASE_LATENCY",
    "SMUX_BASE_MEDIAN_S",
    "SMUX_BASE_P90_S",
    "ScenarioResult",
    "breakdown",
    "hmux_station",
    "run_failover",
    "run_hmux_capacity",
    "run_migration",
    "run_smux_failure",
    "smux_cpu_utilization",
    "smux_station",
]
