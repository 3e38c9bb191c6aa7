"""Workload synthesis: VIP populations, traces, ping probes."""

from repro.workload.distributions import (
    DipCountModel,
    IngressModel,
    TrafficSkew,
    empirical_cdf,
    share_concentration,
)
from repro.workload.flowgen import PingProbe, TimedPacket
from repro.workload.serialization import (
    SerializationError,
    load_population,
    load_trace,
    save_population,
    save_trace,
)
from repro.workload.trace import TraceConfig, TraceEpoch, TraceGenerator
from repro.workload.vips import (
    CLIENT_POOL,
    DIP_POOL,
    HOST_POOL,
    SMUX_AGGREGATES,
    SMUX_POOL,
    SWITCH_POOL,
    VIP_POOL,
    Dip,
    Vip,
    VipDemand,
    VipPopulation,
    generate_population,
    host_address,
    switch_loopback,
)

__all__ = [
    "CLIENT_POOL",
    "DIP_POOL",
    "Dip",
    "DipCountModel",
    "HOST_POOL",
    "IngressModel",
    "PingProbe",
    "SMUX_AGGREGATES",
    "SerializationError",
    "SMUX_POOL",
    "SWITCH_POOL",
    "TimedPacket",
    "TraceConfig",
    "TraceEpoch",
    "TraceGenerator",
    "TrafficSkew",
    "VIP_POOL",
    "Vip",
    "VipDemand",
    "VipPopulation",
    "empirical_cdf",
    "generate_population",
    "host_address",
    "load_population",
    "load_trace",
    "save_population",
    "save_trace",
    "share_concentration",
    "switch_loopback",
]
