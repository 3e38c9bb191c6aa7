"""Failure scenarios for availability and congestion experiments.

The paper provisions SMuxes for, and evaluates congestion under, two
scenarios drawn from production failure studies (S8.2, S8.5): (1) the
failure of an entire container, and (2) the simultaneous failure of up to
three random switches.  This module generates those scenarios and computes
their side effects (which racks lose connectivity, which traffic
disappears), feeding the provisioning model (:mod:`repro.core.provisioning`)
and the Figure 19 experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Set

from repro.net.topology import SwitchKind, Topology

def as_rng(rng: "random.Random | int") -> random.Random:
    """Coerce a seed-or-generator argument to a ``random.Random``.

    Chaos runs must be replay-identical, so shared global RNG state is
    banned: passing the ``random`` *module* (which duck-types as a
    ``Random`` instance) is rejected explicitly, as is ``None``.
    """
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, bool) or not isinstance(rng, int):
        raise TypeError(
            "expected a random.Random instance or an int seed, got "
            f"{rng!r} — module-global RNG state breaks chaos replay"
        )
    return random.Random(rng)


@dataclass(frozen=True)
class FailureScenario:
    """A set of simultaneously failed network elements."""

    name: str
    failed_switches: FrozenSet[int] = frozenset()
    failed_links: FrozenSet[int] = frozenset()
    failed_container: Optional[int] = None

    @classmethod
    def none(cls) -> "FailureScenario":
        """The healthy network."""
        return cls(name="normal")

    def dead_tors(self, topology: Topology) -> Set[int]:
        """ToRs that are down (their racks are unreachable)."""
        return {
            s for s in self.failed_switches
            if topology.switch(s).kind is SwitchKind.TOR
        }


def container_failure(topology: Topology, container: int) -> FailureScenario:
    """Fail every switch inside one container."""
    if not 0 <= container < topology.n_containers:
        raise ValueError(f"container out of range: {container}")
    switches = frozenset(topology.container_switches(container))
    return FailureScenario(
        name=f"container-{container}-failure",
        failed_switches=switches,
        failed_container=container,
    )


def random_container_failure(
    topology: Topology, rng: "random.Random | int"
) -> FailureScenario:
    """Fail a uniformly random container.  ``rng`` is a seeded
    ``random.Random`` or an int seed (never the ``random`` module)."""
    rng = as_rng(rng)
    return container_failure(topology, rng.randrange(topology.n_containers))


def switch_failures(
    topology: Topology, switches: Sequence[int]
) -> FailureScenario:
    """Fail a specific set of switches."""
    for s in switches:
        if not 0 <= s < topology.n_switches:
            raise ValueError(f"switch index out of range: {s}")
    return FailureScenario(
        name=f"switch-failure-{'-'.join(str(s) for s in sorted(switches))}",
        failed_switches=frozenset(switches),
    )


def random_switch_failures(
    topology: Topology, count: int, rng: "random.Random | int"
) -> FailureScenario:
    """Fail ``count`` uniformly random distinct switches (the paper's
    "three random switch failures" scenario uses count=3)."""
    rng = as_rng(rng)
    if count > topology.n_switches:
        raise ValueError("cannot fail more switches than exist")
    picked = rng.sample(range(topology.n_switches), count)
    return switch_failures(topology, picked)


def isolated_switches(
    topology: Topology, scenario: FailureScenario
) -> Set[int]:
    """Switches that are alive but unreachable from every core switch.

    The paper treats "a link failure [that] isolates a switch ... as a
    switch failure" (S5.1); this helper finds such switches so callers can
    promote them into the failed set.
    """
    failed = scenario.failed_switches
    cores = [c for c in topology.cores() if c not in failed]
    if not cores:
        # Whole core layer down: no switch can reach a core, and
        # promoting every one of them would fail the whole fabric, so
        # none counts as isolated.
        return set()
    # One BFS from every live core at once, against the direction of
    # travel, as EcmpRouter.distances_to walks: a switch reaches a core
    # when it has a live link into a switch that does.
    reached = set(cores)
    stack = list(cores)
    while stack:
        for link in topology.links_into[stack.pop()]:
            src = link.src
            if (src not in reached and src not in failed
                    and link.index not in scenario.failed_links):
                reached.add(src)
                stack.append(src)
    return set(range(topology.n_switches)) - failed - reached
