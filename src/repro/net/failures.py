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
from typing import FrozenSet, Iterable, Optional, Sequence, Set

from repro.net.routing import EcmpRouter
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

    def router(self, topology: Topology) -> EcmpRouter:
        """An ECMP router reflecting this scenario."""
        return EcmpRouter(
            topology,
            failed_switches=self.failed_switches,
            failed_links=self.failed_links,
        )

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


class FaultModel:
    """Transient-fault hook for switch programming operations.

    A :class:`~repro.core.controller.SwitchAgent` consults its fault
    model before touching the ASIC; ``attempt`` returning True means
    *this* attempt fails (the op raises and the controller retries with
    backoff, ultimately degrading the VIP to SMux-only).  The base model
    never fails — subclass or use :class:`TransientFaultModel` /
    :class:`ScriptedFaultModel` to inject faults.
    """

    def attempt(self, op: str, switch_index: int, vip: int) -> bool:
        return False


class TransientFaultModel(FaultModel):
    """Seeded random transient faults with a bounded burst length.

    Each programming attempt fails independently with ``fail_prob``,
    except that no (switch, vip) pair fails more than
    ``max_consecutive`` times in a row — modelling flaky-but-recoverable
    agent RPCs.  With ``max_consecutive`` below the controller's retry
    budget, every operation eventually lands; raise it above the budget
    to exercise the SMux-only degradation path.
    """

    def __init__(
        self,
        seed: "random.Random | int" = 0,
        fail_prob: float = 0.1,
        max_consecutive: int = 2,
    ) -> None:
        if not 0.0 <= fail_prob <= 1.0:
            raise ValueError("fail_prob must be in [0, 1]")
        if max_consecutive < 0:
            raise ValueError("max_consecutive must be non-negative")
        self.rng = as_rng(seed)
        self.fail_prob = fail_prob
        self.max_consecutive = max_consecutive
        self.injected = 0
        self._streak: dict = {}

    def attempt(self, op: str, switch_index: int, vip: int) -> bool:
        key = (switch_index, vip)
        streak = self._streak.get(key, 0)
        if streak >= self.max_consecutive:
            self._streak[key] = 0
            return False
        if self.rng.random() < self.fail_prob:
            self._streak[key] = streak + 1
            self.injected += 1
            return True
        self._streak[key] = 0
        return False


class ScriptedFaultModel(FaultModel):
    """Deterministic faults on selected switches (tests and demos).

    Every programming op against a switch in ``broken_switches`` fails
    until the switch is removed from the set — the forced-fault scenario
    that demonstrates graceful degradation to the SMux backstop.
    """

    def __init__(self, broken_switches: Iterable[int] = ()) -> None:
        self.broken_switches: Set[int] = set(broken_switches)
        self.injected = 0

    def attempt(self, op: str, switch_index: int, vip: int) -> bool:
        if switch_index in self.broken_switches:
            self.injected += 1
            return True
        return False


def isolated_switches(
    topology: Topology, scenario: FailureScenario
) -> Set[int]:
    """Switches that are alive but unreachable from every core switch.

    The paper treats "a link failure [that] isolates a switch ... as a
    switch failure" (S5.1); this helper finds such switches so callers can
    promote them into the failed set.
    """
    router = scenario.router(topology)
    cores = [c for c in topology.cores() if c not in scenario.failed_switches]
    alive = [
        s.index for s in topology.switches
        if s.index not in scenario.failed_switches
    ]
    if not cores:
        # Whole core layer down: every container is its own island; a
        # switch is "isolated" if it cannot reach any Agg in its container.
        return set()
    isolated: Set[int] = set()
    for switch in alive:
        if not any(router.is_reachable(switch, core) for core in cores):
            isolated.add(switch)
    return isolated
