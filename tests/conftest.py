"""Shared fixtures: a small topology and population every suite can use."""

from __future__ import annotations

import os

import pytest

from repro.net.topology import FatTreeParams, Topology
from repro.workload.distributions import DipCountModel
from repro.workload.vips import VipPopulation, generate_population


def fleet_workers(default_cap: int = 8) -> int:
    """Worker count for the sharded soak corpora: ``REPRO_FLEET_WORKERS``
    when set (CI pins it), else the CPU count capped at ``default_cap``."""
    env = os.environ.get("REPRO_FLEET_WORKERS")
    if env:
        return max(1, int(env))
    return max(1, min(default_cap, os.cpu_count() or 1))


@pytest.fixture(scope="session")
def tiny_params() -> FatTreeParams:
    """2 containers x (3 ToRs + 2 Aggs), 2 cores: smallest interesting
    FatTree (multiple containers, multiple ECMP paths)."""
    return FatTreeParams(
        n_containers=2,
        tors_per_container=3,
        aggs_per_container=2,
        n_cores=2,
        servers_per_tor=8,
    )


@pytest.fixture(scope="session")
def tiny_topology(tiny_params) -> Topology:
    return Topology(tiny_params)


@pytest.fixture(scope="session")
def small_topology() -> Topology:
    """4 containers x (4 ToRs + 2 Aggs), 4 cores."""
    return Topology(FatTreeParams(
        n_containers=4,
        tors_per_container=4,
        aggs_per_container=2,
        n_cores=4,
        servers_per_tor=8,
    ))


@pytest.fixture(scope="session")
def tiny_population(tiny_topology) -> VipPopulation:
    """20 VIPs with modest DIP counts on the tiny topology."""
    return generate_population(
        tiny_topology,
        n_vips=20,
        total_traffic_bps=10e9,
        dip_model=DipCountModel(median_large=6.0, max_dips=12),
        seed=42,
    )


@pytest.fixture()
def fresh_tiny_population(tiny_topology) -> VipPopulation:
    """A non-shared population for tests that mutate it."""
    return generate_population(
        tiny_topology,
        n_vips=20,
        total_traffic_bps=10e9,
        dip_model=DipCountModel(median_large=6.0, max_dips=12),
        seed=42,
    )
