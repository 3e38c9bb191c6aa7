"""Network substrate: topology, addressing, ECMP routing, BGP, failures."""

from repro.net.addressing import (
    AddressAllocator,
    AddressError,
    LpmTable,
    Prefix,
    format_ip,
    parse_ip,
)
from repro.net.bgp import BgpTimings, MuxKind, MuxRef, RouteResolutionError, VipRouteTable
from repro.net.failures import (
    FailureScenario,
    container_failure,
    random_container_failure,
    random_switch_failures,
    switch_failures,
)
from repro.net.routing import EcmpRouter, RoutingError, UnreachableError
from repro.net.topology import (
    FatTreeParams,
    Link,
    Switch,
    SwitchKind,
    SwitchTableSpec,
    Topology,
    paper_scale,
)

__all__ = [
    "AddressAllocator",
    "AddressError",
    "BgpTimings",
    "EcmpRouter",
    "FailureScenario",
    "FatTreeParams",
    "Link",
    "LpmTable",
    "MuxKind",
    "MuxRef",
    "Prefix",
    "RouteResolutionError",
    "RoutingError",
    "Switch",
    "SwitchKind",
    "SwitchTableSpec",
    "Topology",
    "UnreachableError",
    "VipRouteTable",
    "container_failure",
    "format_ip",
    "paper_scale",
    "parse_ip",
    "random_container_failure",
    "random_switch_failures",
    "switch_failures",
]
