"""Chaos event model and the seeded feasible-event generator.

Events are *fully specified* at generation time (every address, switch
index and link index is in the params), so applying a recorded event
list is deterministic — that is what makes the seed + event-prefix
artifact a faithful reproduction of a violation.  The generator samples
event kinds by weight and then picks feasible parameters against the
live controller state, so a generated event never trips the
controller's own precondition errors (those would be generator bugs,
not system bugs).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.controller import DuetController
from repro.workload.vips import Dip, Vip


class EventKind(enum.Enum):
    """Everything the chaos engine can do to a running deployment."""

    FAIL_SWITCH = "fail_switch"
    RECOVER_SWITCH = "recover_switch"
    FAIL_SMUX = "fail_smux"
    ADD_SMUX = "add_smux"
    DIP_DOWN = "dip_down"          # health flap: HA reports the DIP dead
    DIP_UP = "dip_up"              # health flap: the DIP comes back
    REAP_DIPS = "reap_dips"        # controller consumes the health feed
    CUT_LINK = "cut_link"
    RESTORE_LINK = "restore_link"
    ADD_VIP = "add_vip"
    REMOVE_VIP = "remove_vip"
    ADD_DIP = "add_dip"
    REMOVE_DIP = "remove_dip"
    REBALANCE = "rebalance"
    ENABLE_SNAT = "enable_snat"
    #: Kill the controller process and restore it from its write-ahead
    #: journal.  Params: ``{}`` crashes at this op boundary;
    #: ``{"during_next": k}`` arms the crash hook to fire at the k-th
    #: crash point *inside* the next event's op (mid-plan, mid-add_dip).
    #: Emitted by the engine's own crash stream (``--crash-prob``), not
    #: by weight sampling, but carried in the applied-event list so
    #: artifacts replay crashes faithfully.
    CONTROLLER_CRASH = "controller_crash"
    #: Deliberately corrupt state (announce a /32 from a mux that never
    #: programmed it).  Weight is zero unless explicitly requested; it
    #: exists to prove the invariant checker and the reproduction
    #: artifact actually work.
    SABOTAGE = "sabotage"
    #: No-oracle faults: these mutate the health fault plane, never the
    #: controller.  A silently failed switch keeps its routes announced
    #: (a blackhole) until the probe-driven detector quarantines it.
    SILENT_FAIL_SWITCH = "silent_fail_switch"
    SILENT_RECOVER_SWITCH = "silent_recover_switch"
    SILENT_FAIL_SMUX = "silent_fail_smux"
    SILENT_RECOVER_SMUX = "silent_recover_smux"
    #: Partial per-VIP loss on an otherwise-responsive switch.  Params:
    #: ``{"switch": i, "vip": addr-or-None, "loss": rate}`` — a None vip
    #: means the whole switch forwards lossily.
    GRAY_FAILURE = "gray_failure"
    GRAY_RECOVER = "gray_recover"
    #: Control-channel faults: these mutate the ControlChannel between
    #: the controller and its devices, never the data plane directly.
    #: ``channel_loss``/``channel_delay`` set a global probability
    #: (``{"loss": p}`` / ``{"delay": p}``; 0.0 clears the fault);
    #: ``channel_partition`` blackholes lossy programming ops to one
    #: switch (``{"switch": i}``); ``channel_heal`` reconnects one
    #: switch (``{"switch": i}``) or everything (``{"switch": None}``,
    #: which also zeroes loss/delay).  Every heal is followed by a
    #: timed anti-entropy convergence pass in the engine.
    CHANNEL_LOSS = "channel_loss"
    CHANNEL_DELAY = "channel_delay"
    CHANNEL_PARTITION = "channel_partition"
    CHANNEL_HEAL = "channel_heal"


@dataclass
class ChaosEvent:
    """One fully-specified event; params are JSON-serializable."""

    kind: EventKind
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind.value, "params": self.params}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosEvent":
        return cls(kind=EventKind(data["kind"]), params=dict(data["params"]))

    def __str__(self) -> str:
        inside = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.kind.value}({inside})"


#: Default sampling weights: churn-heavy (the interesting interleavings
#: come from VIP/DIP churn racing failures), with enough fail/recover
#: traffic to keep several elements down at any time.
DEFAULT_WEIGHTS: Dict[EventKind, float] = {
    EventKind.FAIL_SWITCH: 6.0,
    EventKind.RECOVER_SWITCH: 5.0,
    EventKind.FAIL_SMUX: 2.0,
    EventKind.ADD_SMUX: 2.0,
    EventKind.DIP_DOWN: 6.0,
    EventKind.DIP_UP: 4.0,
    EventKind.REAP_DIPS: 4.0,
    EventKind.CUT_LINK: 3.0,
    EventKind.RESTORE_LINK: 3.0,
    EventKind.ADD_VIP: 5.0,
    EventKind.REMOVE_VIP: 3.0,
    EventKind.ADD_DIP: 6.0,
    EventKind.REMOVE_DIP: 5.0,
    EventKind.REBALANCE: 8.0,
    EventKind.ENABLE_SNAT: 2.0,
    EventKind.CONTROLLER_CRASH: 0.0,
    EventKind.SABOTAGE: 0.0,
    EventKind.SILENT_FAIL_SWITCH: 0.0,
    EventKind.SILENT_RECOVER_SWITCH: 0.0,
    EventKind.SILENT_FAIL_SMUX: 0.0,
    EventKind.SILENT_RECOVER_SMUX: 0.0,
    EventKind.GRAY_FAILURE: 0.0,
    EventKind.GRAY_RECOVER: 0.0,
    EventKind.CHANNEL_LOSS: 0.0,
    EventKind.CHANNEL_DELAY: 0.0,
    EventKind.CHANNEL_PARTITION: 0.0,
    EventKind.CHANNEL_HEAL: 0.0,
}

#: Controller lifecycle ops the engine may NOT call in no-oracle mode:
#: detection must come from probes, so direct fail/recover mutations —
#: and the oracle consumption of the health feed (REAP_DIPS) — are
#: forbidden.  Link events are excluded too: a cut link's isolation
#: side effects run through ``fail_switch`` internally.
FORBIDDEN_IN_NO_ORACLE = frozenset({
    EventKind.FAIL_SWITCH,
    EventKind.RECOVER_SWITCH,
    EventKind.FAIL_SMUX,
    EventKind.REAP_DIPS,
    EventKind.CUT_LINK,
    EventKind.RESTORE_LINK,
    EventKind.SABOTAGE,
})

#: Sampling weights for no-oracle runs: silent/gray faults replace the
#: direct lifecycle mutations; operator churn (VIP/DIP lifecycle,
#: rebalance) keeps racing the detector.
NO_ORACLE_WEIGHTS: Dict[EventKind, float] = {
    **{kind: 0.0 for kind in FORBIDDEN_IN_NO_ORACLE},
    EventKind.SILENT_FAIL_SWITCH: 6.0,
    EventKind.SILENT_RECOVER_SWITCH: 5.0,
    EventKind.SILENT_FAIL_SMUX: 1.5,
    EventKind.SILENT_RECOVER_SMUX: 1.0,
    EventKind.GRAY_FAILURE: 5.0,
    EventKind.GRAY_RECOVER: 4.0,
    EventKind.DIP_DOWN: 4.0,
    EventKind.DIP_UP: 3.0,
    EventKind.ADD_SMUX: 1.0,
    EventKind.ADD_VIP: 4.0,
    EventKind.REMOVE_VIP: 2.0,
    EventKind.ADD_DIP: 4.0,
    EventKind.REMOVE_DIP: 3.0,
    EventKind.REBALANCE: 4.0,
    EventKind.ENABLE_SNAT: 1.0,
}


#: Concurrent-damage caps: at most this fraction of the switches failed
#: (silently or not), this many SMuxes in the fleet, this many cables cut.
MAX_FAILED_SWITCH_FRACTION = 0.34
MAX_SMUXES = 6
MAX_CUT_CABLES = 3


class EventGenerator:
    """Seeded generator of feasible chaos events.

    Reads (never mutates) the controller to keep each event feasible:
    it only recovers switches that are actually failed and reachable,
    only removes a DIP when the VIP keeps at least one, never fails the
    last SMux, and caps concurrent damage so the deployment stays a
    deployment rather than a crater.
    """

    def __init__(
        self,
        controller: DuetController,
        seed: int = 0,
        weights: Optional[Dict[EventKind, float]] = None,
        *,
        fault_plane=None,
        channel_loss: float = 0.0,
        channel_delay: float = 0.0,
        channel_partitions: int = 0,
    ) -> None:
        self.controller = controller
        #: Ceilings for the channel-fault builders: the sampled loss and
        #: delay rates never exceed these, and at most
        #: ``channel_partitions`` switches are partitioned at once.
        self.channel_loss = channel_loss
        self.channel_delay = channel_delay
        self.channel_partitions = channel_partitions
        #: A :class:`repro.health.faults.FaultPlane` in no-oracle runs;
        #: the silent/gray builders read it for feasibility (never
        #: silently fail an already-dead switch, only recover dead ones).
        self.fault_plane = fault_plane
        self.rng = random.Random(seed)
        self.weights = dict(DEFAULT_WEIGHTS)
        if weights:
            self.weights.update(weights)
        self.max_failed_switches = max(
            1, int(controller.topology.n_switches * MAX_FAILED_SWITCH_FRACTION)
        )
        self.max_vips = max(4, 2 * len(controller.intent.records))
        records = controller.records()
        self._next_vip_id = 1 + max(
            (r.vip.vip_id for r in records.values()), default=-1
        )
        self._next_vip_addr = 1 + max(records, default=0x0A000000)
        self._next_dip_addr = 1 + max(
            (d.addr for r in records.values() for d in r.dips),
            default=0x64000000,
        )
        # Canonical cables (one index per duplex pair) for link events.
        by_pair: Dict[Tuple[int, int], int] = {}
        for link in controller.topology.links:
            pair = (min(link.src, link.dst), max(link.src, link.dst))
            by_pair.setdefault(pair, link.index)
        self._cables = sorted(by_pair.values())

    # -- sampling ----------------------------------------------------------

    def next_event(self) -> ChaosEvent:
        """Sample a feasible event (rejection sampling over kinds); falls
        back to a rebalance epoch, which is always feasible."""
        kinds = [k for k, w in self.weights.items() if w > 0]
        cum = [self.weights[k] for k in kinds]
        for _ in range(64):
            kind = self.rng.choices(kinds, weights=cum)[0]
            event = self._try_build(kind)
            if event is not None:
                return event
        return ChaosEvent(EventKind.REBALANCE)

    def sabotage_event(self) -> ChaosEvent:
        """A deterministic state corruption: pick a VIP and announce its
        /32 from a switch that never programmed it."""
        c = self.controller
        records = c.records()
        vip_addr = self.rng.choice(sorted(records))
        assigned = records[vip_addr].assigned_switch
        candidates = [
            i for i in sorted(c.switch_agents) if i != assigned
        ]
        return ChaosEvent(EventKind.SABOTAGE, {
            "vip": vip_addr,
            "switch": self.rng.choice(candidates),
        })

    # -- per-kind builders -------------------------------------------------

    def _try_build(self, kind: EventKind) -> Optional[ChaosEvent]:
        builder = getattr(self, f"_build_{kind.value}", None)
        if builder is None:
            if kind in (EventKind.REBALANCE, EventKind.REAP_DIPS):
                return ChaosEvent(kind)
            if kind is EventKind.SABOTAGE:
                return self.sabotage_event()
            raise AssertionError(f"no builder for {kind}")  # pragma: no cover
        return builder()

    def _build_fail_switch(self) -> Optional[ChaosEvent]:
        c = self.controller
        if len(c.failed_switches) >= self.max_failed_switches:
            return None
        live = sorted(set(c.switch_agents) - c.failed_switches)
        if not live:
            return None
        return ChaosEvent(
            EventKind.FAIL_SWITCH, {"switch": self.rng.choice(live)}
        )

    def _build_recover_switch(self) -> Optional[ChaosEvent]:
        failed = self.controller.failed_switches
        isolated = self.controller.intent.isolated
        feasible = [
            switch for switch in sorted(failed)
            if switch not in isolated(failed - {switch})
        ]
        if not feasible:
            return None
        return ChaosEvent(
            EventKind.RECOVER_SWITCH, {"switch": self.rng.choice(feasible)}
        )

    def _build_fail_smux(self) -> Optional[ChaosEvent]:
        smuxes = self.controller.smuxes
        if len(smuxes) < 2:
            return None
        return ChaosEvent(EventKind.FAIL_SMUX, {
            "smux": self.rng.choice([s.smux_id for s in smuxes]),
        })

    def _build_add_smux(self) -> Optional[ChaosEvent]:
        if len(self.controller.smuxes) >= MAX_SMUXES:
            return None
        return ChaosEvent(EventKind.ADD_SMUX)

    def _healthy_split(self) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        """(healthy, unhealthy) lists of (dip, server) over all VIPs."""
        c = self.controller
        health = c.collect_health_reports()
        healthy, unhealthy = [], []
        for record in c.records().values():
            for dip in record.dips:
                entry = (dip.addr, dip.server_id)
                if health.get(dip.addr, False):
                    healthy.append(entry)
                else:
                    unhealthy.append(entry)
        return sorted(healthy), sorted(unhealthy)

    def _build_dip_down(self) -> Optional[ChaosEvent]:
        healthy, _ = self._healthy_split()
        if not healthy:
            return None
        dip, server = self.rng.choice(healthy)
        return ChaosEvent(EventKind.DIP_DOWN, {"dip": dip, "server": server})

    def _build_dip_up(self) -> Optional[ChaosEvent]:
        _, unhealthy = self._healthy_split()
        if not unhealthy:
            return None
        dip, server = self.rng.choice(unhealthy)
        return ChaosEvent(EventKind.DIP_UP, {"dip": dip, "server": server})

    def _build_cut_link(self) -> Optional[ChaosEvent]:
        c = self.controller
        if len(c.failed_links) >= 2 * MAX_CUT_CABLES:
            return None
        intact = [i for i in self._cables if i not in c.failed_links]
        if not intact:
            return None
        return ChaosEvent(EventKind.CUT_LINK, {"link": self.rng.choice(intact)})

    def _build_restore_link(self) -> Optional[ChaosEvent]:
        cut = [i for i in self._cables if i in self.controller.failed_links]
        if not cut:
            return None
        return ChaosEvent(
            EventKind.RESTORE_LINK, {"link": self.rng.choice(cut)}
        )

    def _build_add_vip(self) -> Optional[ChaosEvent]:
        c = self.controller
        if len(c.intent.records) >= self.max_vips:
            return None
        n_servers = c.topology.params.n_servers
        n_dips = self.rng.randint(1, 4)
        dips = []
        for _ in range(n_dips):
            dips.append({
                "addr": self._next_dip_addr,
                "server": self.rng.randrange(n_servers),
            })
            self._next_dip_addr += 1
        event = ChaosEvent(EventKind.ADD_VIP, {
            "vip_id": self._next_vip_id,
            "addr": self._next_vip_addr,
            "traffic_bps": float(self.rng.randint(1, 200)) * 1e6,
            "dips": dips,
        })
        self._next_vip_id += 1
        self._next_vip_addr += 1
        return event

    def _build_remove_vip(self) -> Optional[ChaosEvent]:
        c = self.controller
        if len(c.intent.records) < 2:
            return None
        return ChaosEvent(EventKind.REMOVE_VIP, {
            "vip": self.rng.choice(sorted(c.records())),
        })

    def _build_add_dip(self) -> Optional[ChaosEvent]:
        c = self.controller
        vip_addr = self.rng.choice(sorted(c.records()))
        event = ChaosEvent(EventKind.ADD_DIP, {
            "vip": vip_addr,
            "dip": self._next_dip_addr,
            "server": self.rng.randrange(c.topology.params.n_servers),
        })
        self._next_dip_addr += 1
        return event

    def _build_remove_dip(self) -> Optional[ChaosEvent]:
        c = self.controller
        candidates = [
            (addr, [d.addr for d in record.dips])
            for addr, record in sorted(c.records().items())
            if len(record.dips) >= 2
        ]
        if not candidates:
            return None
        vip_addr, dips = self.rng.choice(candidates)
        return ChaosEvent(EventKind.REMOVE_DIP, {
            "vip": vip_addr,
            "dip": self.rng.choice(dips),
        })

    # -- no-oracle builders (need a fault plane) ---------------------------

    def _build_silent_fail_switch(self) -> Optional[ChaosEvent]:
        fp, c = self.fault_plane, self.controller
        if fp is None:
            return None
        down = len(c.failed_switches | fp.dead_switches)
        if down >= self.max_failed_switches:
            return None
        live = sorted(
            set(c.switch_agents) - c.failed_switches - fp.dead_switches
        )
        if not live:
            return None
        return ChaosEvent(
            EventKind.SILENT_FAIL_SWITCH, {"switch": self.rng.choice(live)}
        )

    def _build_silent_recover_switch(self) -> Optional[ChaosEvent]:
        fp = self.fault_plane
        if fp is None or not fp.dead_switches:
            return None
        return ChaosEvent(EventKind.SILENT_RECOVER_SWITCH, {
            "switch": self.rng.choice(sorted(fp.dead_switches)),
        })

    def _build_silent_fail_smux(self) -> Optional[ChaosEvent]:
        fp, c = self.fault_plane, self.controller
        if fp is None:
            return None
        alive = [
            s.smux_id for s in c.smuxes if s.smux_id not in fp.dead_smuxes
        ]
        # Keep at least one working SMux: the backstop must stay a
        # backstop or every aggregate-routed packet blackholes at once.
        if len(alive) < 2:
            return None
        return ChaosEvent(EventKind.SILENT_FAIL_SMUX, {
            "smux": self.rng.choice(sorted(alive)),
        })

    def _build_silent_recover_smux(self) -> Optional[ChaosEvent]:
        fp, c = self.fault_plane, self.controller
        if fp is None:
            return None
        fleet = {s.smux_id for s in c.smuxes}
        dead = sorted(fp.dead_smuxes & fleet)
        if not dead:
            return None
        return ChaosEvent(EventKind.SILENT_RECOVER_SMUX, {
            "smux": self.rng.choice(dead),
        })

    def _build_gray_failure(self) -> Optional[ChaosEvent]:
        fp, c = self.fault_plane, self.controller
        if fp is None:
            return None
        gray_switches = {sw for sw, _ in fp.gray}
        by_switch: Dict[int, List[int]] = {}
        for addr, record in sorted(c.records().items()):
            sw = record.assigned_switch
            if sw is None:
                continue
            if sw in c.failed_switches or sw in fp.dead_switches:
                continue
            if sw in gray_switches:
                continue
            by_switch.setdefault(sw, []).append(addr)
        if not by_switch:
            return None
        switch = self.rng.choice(sorted(by_switch))
        # 1-in-4 gray failures are switch-wide (every VIP lossy).
        vip = (
            None if self.rng.random() < 0.25
            else self.rng.choice(by_switch[switch])
        )
        return ChaosEvent(EventKind.GRAY_FAILURE, {
            "switch": switch,
            "vip": vip,
            "loss": self.rng.choice([0.4, 0.6, 0.9]),
        })

    def _build_gray_recover(self) -> Optional[ChaosEvent]:
        fp = self.fault_plane
        if fp is None or not fp.gray:
            return None
        keys = sorted(
            fp.gray, key=lambda k: (k[0], -1 if k[1] is None else k[1])
        )
        switch, vip = self.rng.choice(keys)
        return ChaosEvent(
            EventKind.GRAY_RECOVER, {"switch": switch, "vip": vip}
        )

    # -- control-channel builders ------------------------------------------

    def _sample_channel_rate(self, ceiling: float) -> float:
        """A fault rate in (0, ceiling], or 0.0 (~40% of draws) to clear
        the fault so runs alternate between degraded and clean phases."""
        if self.rng.random() < 0.4:
            return 0.0
        return round(self.rng.choice([0.25, 0.5, 1.0]) * ceiling, 6)

    def _build_channel_loss(self) -> Optional[ChaosEvent]:
        if self.channel_loss <= 0:
            return None
        return ChaosEvent(EventKind.CHANNEL_LOSS, {
            "loss": self._sample_channel_rate(self.channel_loss),
        })

    def _build_channel_delay(self) -> Optional[ChaosEvent]:
        if self.channel_delay <= 0:
            return None
        return ChaosEvent(EventKind.CHANNEL_DELAY, {
            "delay": self._sample_channel_rate(self.channel_delay),
        })

    def _build_channel_partition(self) -> Optional[ChaosEvent]:
        c = self.controller
        if self.channel_partitions <= 0:
            return None
        partitioned = {
            int(dev.split(":", 1)[1])
            for dev in c.channel.partitioned
            if dev.startswith("switch:")
        }
        if len(partitioned) >= self.channel_partitions:
            return None
        live = sorted(
            set(c.switch_agents) - c.failed_switches - partitioned
        )
        if not live:
            return None
        return ChaosEvent(EventKind.CHANNEL_PARTITION, {
            "switch": self.rng.choice(live),
        })

    def _build_channel_heal(self) -> Optional[ChaosEvent]:
        channel = self.controller.channel
        partitioned = sorted(
            int(dev.split(":", 1)[1])
            for dev in channel.partitioned
            if dev.startswith("switch:")
        )
        if partitioned:
            return ChaosEvent(EventKind.CHANNEL_HEAL, {
                "switch": self.rng.choice(partitioned),
            })
        if channel.loss_prob > 0 or channel.delay_prob > 0:
            # Heal-all: clears loss/delay too, forcing a convergence pass.
            return ChaosEvent(EventKind.CHANNEL_HEAL, {"switch": None})
        return None

    def _build_enable_snat(self) -> Optional[ChaosEvent]:
        c = self.controller
        candidates = [
            addr for addr in sorted(c.records()) if not c.snat_enabled(addr)
        ]
        if not candidates:
            return None
        return ChaosEvent(
            EventKind.ENABLE_SNAT, {"vip": self.rng.choice(candidates)}
        )


def build_vip_from_params(
    controller: DuetController, params: Dict[str, Any]
) -> Vip:
    """Materialize the ADD_VIP event's fully-specified VIP."""
    topology = controller.topology
    dips = tuple(
        Dip(
            addr=d["addr"],
            server_id=d["server"],
            tor=topology.server_tor(d["server"]),
        )
        for d in params["dips"]
    )
    return Vip(
        vip_id=params["vip_id"],
        addr=params["addr"],
        dips=dips,
        traffic_bps=params["traffic_bps"],
        ingress_racks=(),
        internet_fraction=1.0,
    )
