"""Silent dataplane faults: the injection side of no-oracle chaos.

The chaos engine's original event path mutates the controller directly
(``fail_switch`` / ``cut_link``), which means the controller is told
about every fault the instant it happens.  Real failures are not so
polite: a switch dies but its routes stay announced (a blackhole until
monitoring notices), or it keeps answering pings while dropping a
fraction of one VIP's traffic (a gray failure).

The :class:`FaultPlane` models exactly that gap.  It sits between the
probe network and the controller's dataplane objects and decides, per
probe, whether the packet would have survived the *physical* network —
without ever touching controller state.  The controller only learns of
a fault when the detector quarantines the target and the remediation
loop invokes a lifecycle op.

Every injection and clearance is recorded with its simulated timestamp.
That log is ground truth for the :class:`~repro.health.invariants.\
HealthScorecard` — used to *judge* the detector after the fact, never
to drive remediation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

# Fault kinds recorded in the ground-truth log.
SWITCH_SILENT = "switch-silent"
SMUX_SILENT = "smux-silent"
GRAY = "gray"


def switch_key(index: int) -> str:
    return f"switch:{index}"


def smux_key(smux_id: int) -> str:
    return f"smux:{smux_id}"


def dip_key(dip: int) -> str:
    return f"dip:{dip:#x}"


def gray_key(switch_index: int, vip: Optional[int]) -> str:
    scope = "*" if vip is None else f"{vip:#x}"
    return f"gray:{switch_index}:{scope}"


@dataclass
class FaultRecord:
    """Ground truth for one injected fault's lifecycle."""

    kind: str
    target: str
    injected_t: float
    cleared_t: Optional[float] = None
    detected_t: Optional[float] = None
    remediated_t: Optional[float] = None
    detail: str = ""

    @property
    def active(self) -> bool:
        return self.cleared_t is None

    @property
    def detected(self) -> bool:
        return self.detected_t is not None

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "target": self.target,
            "injected_t": self.injected_t,
            "cleared_t": self.cleared_t,
            "detected_t": self.detected_t,
            "remediated_t": self.remediated_t,
            "detail": self.detail,
        }


class FaultPlane:
    """Holds the set of currently-active silent faults.

    ``seed`` feeds the Bernoulli draws for gray (partial) loss; the
    stream is independent of every other RNG in the system so chaos
    replays stay bit-identical.
    """

    def __init__(self, seed: int = 0, background_loss: float = 0.0) -> None:
        self.rng = random.Random(seed ^ 0x6A11)
        self.background_loss = background_loss
        self.dead_switches: Set[int] = set()
        self.dead_smuxes: Set[int] = set()
        # (switch_index, vip-or-None) -> loss rate in (0, 1].  A None vip
        # means the gray failure affects every VIP on the switch.
        self.gray: Dict[Tuple[int, Optional[int]], float] = {}
        self.log: List[FaultRecord] = []
        self._open: Dict[str, FaultRecord] = {}

    # -- injection ----------------------------------------------------------

    def _record(self, kind: str, target: str, t: float, detail: str = "") -> None:
        rec = FaultRecord(kind=kind, target=target, injected_t=t, detail=detail)
        self.log.append(rec)
        self._open[target] = rec

    def _clear(self, target: str, t: float) -> None:
        rec = self._open.pop(target, None)
        if rec is not None:
            rec.cleared_t = t

    def silent_fail_switch(self, index: int, t: float) -> None:
        if index in self.dead_switches:
            raise ValueError(f"switch {index} already silently dead")
        self.dead_switches.add(index)
        self._record(SWITCH_SILENT, switch_key(index), t)

    def silent_recover_switch(self, index: int, t: float) -> None:
        self.dead_switches.discard(index)
        self._clear(switch_key(index), t)

    def silent_fail_smux(self, smux_id: int, t: float) -> None:
        if smux_id in self.dead_smuxes:
            raise ValueError(f"smux {smux_id} already silently dead")
        self.dead_smuxes.add(smux_id)
        self._record(SMUX_SILENT, smux_key(smux_id), t)

    def silent_recover_smux(self, smux_id: int, t: float) -> None:
        self.dead_smuxes.discard(smux_id)
        self._clear(smux_key(smux_id), t)

    def inject_gray(
        self,
        switch_index: int,
        vip: Optional[int],
        loss_rate: float,
        t: float,
    ) -> None:
        if not 0.0 < loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in (0, 1], got {loss_rate}")
        key = (switch_index, vip)
        if key in self.gray:
            raise ValueError(f"gray failure already active on {key}")
        self.gray[key] = loss_rate
        self._record(
            GRAY,
            gray_key(switch_index, vip),
            t,
            detail=f"loss={loss_rate}",
        )

    def clear_gray(self, switch_index: int, vip: Optional[int], t: float) -> None:
        self.gray.pop((switch_index, vip), None)
        self._clear(gray_key(switch_index, vip), t)

    def retire_smux(self, smux_id: int, t: float) -> None:
        """The remediation loop removed this SMux from the fleet; its
        fault (if any) can no longer recur."""
        self.dead_smuxes.discard(smux_id)
        self._clear(smux_key(smux_id), t)

    # -- the dataplane-truth question ---------------------------------------

    def hmux_drops(self, switch_index: int, vip: int) -> bool:
        """Would the physical network drop a packet for ``vip`` entering
        the HMux on ``switch_index``?"""
        if switch_index in self.dead_switches:
            return True
        loss = self.gray.get((switch_index, vip))
        if loss is None:
            loss = self.gray.get((switch_index, None))
        if loss is not None and self.rng.random() < loss:
            return True
        return self._background()

    def smux_drops(self, smux_id: int) -> bool:
        if smux_id in self.dead_smuxes:
            return True
        return self._background()

    def switch_heartbeat_drops(self, switch_index: int) -> bool:
        """Liveness heartbeats reach the switch CPU, not the VIP path:
        a silently dead switch misses them, but a gray switch — broken
        only for some forwarding — still answers."""
        if switch_index in self.dead_switches:
            return True
        return self._background()

    def smux_heartbeat_drops(self, smux_id: int) -> bool:
        if smux_id in self.dead_smuxes:
            return True
        return self._background()

    def _background(self) -> bool:
        return self.background_loss > 0.0 and self.rng.random() < self.background_loss

    # -- introspection (for the scorecard only) -----------------------------

    def record_for(self, target: str) -> Optional[FaultRecord]:
        return self._open.get(target)

    def to_dict(self) -> Dict[str, object]:
        return {"faults": [rec.to_dict() for rec in self.log]}
