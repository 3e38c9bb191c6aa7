"""Pingmesh-style probing of muxes and DIPs on a simulated clock.

Three probe families, mirroring what Duet's production ancestors run:

* **VIP probes** — end-to-end pings through the real forwarding path
  (route table -> mux -> host agent), every ``probe_period_s`` like the
  paper's 3 ms testbed pingmesh (Figures 11-13).  These are the only
  signal that can see a gray failure.
* **Liveness heartbeats** — per-switch and per-SMux reachability pings
  to the device CPU.  A silently dead device misses them; a gray device
  (broken only for some forwarding) still answers, which is what makes
  gray failures gray.
* **DIP health probes** — the Ananta-style host-agent health feed.

Probes consult the :class:`~repro.health.faults.FaultPlane` *before*
entering a mux, so a packet the physical network would have dropped
never increments mux counters — exactly the counter-vs-offered-load gap
the detector's telemetry corroboration keys on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.controller import DuetController
from repro.dataplane.batch import FORWARD_OK, HOST_REFUSED, FlowBatch
from repro.dataplane.packet import PROTO_TCP
from repro.health.faults import FaultPlane, dip_key, smux_key, switch_key
from repro.net.bgp import MuxKind
from repro.workload.vips import CLIENT_POOL

#: Paper testbed cadence: one ping every 3 ms (S5.1, Figure 11).
DEFAULT_PROBE_PERIOD_S = 0.003

#: Nominal one-way service latency by mux kind; the testbed measured
#: HMux forwarding in hardware (~us) and SMux in software (~ms tail).
_HMUX_BASE_LATENCY_S = 150e-6
_SMUX_BASE_LATENCY_S = 600e-6


class SimClock:
    """A trivially advancing simulated clock shared by the monitor."""

    def __init__(self, start_s: float = 0.0) -> None:
        self.now_s = start_s

    def advance(self, dt_s: float) -> float:
        self.now_s += dt_s
        return self.now_s


@dataclass(frozen=True)
class ProbeOutcome:
    """One probe's verdict, tagged with enough context to attribute it."""

    kind: str  # "switch" | "smux" | "dip" | "vip"
    target: str  # canonical target key ("switch:3", "dip:0x...", ...)
    t: float
    ok: bool
    vip: Optional[int] = None
    # For VIP probes: the mux that served (or should have served) it.
    mux_kind: Optional[str] = None
    mux_ident: Optional[int] = None
    # True when the loss happened *after* the mux (unhealthy DIP): the
    # mux counted the packet, so the drop must not be blamed on it.
    post_mux: bool = False
    latency_s: Optional[float] = None


class ProbeNetwork:
    """Sends VIP probes through the controller's forwarding path.

    A VIP outcome names the mux the prober *offered* the probe to.  The
    metrics registry counts packets the mux actually *processed* — the
    detector cross-checks the two to tell mux-level loss (never counted)
    from post-mux loss (counted, then failed at the host agent).
    """

    def __init__(
        self,
        controller: DuetController,
        fault_plane: FaultPlane,
        seed: int = 0,
    ) -> None:
        self.controller = controller
        self.fault_plane = fault_plane
        self.rng = random.Random(seed ^ 0x9B0E)

    def _latency(self, kind: MuxKind) -> float:
        base = _HMUX_BASE_LATENCY_S if kind is MuxKind.HMUX else _SMUX_BASE_LATENCY_S
        return base * (0.9 + 0.2 * self.rng.random())

    def probe_vips(
        self, vip_addrs: Sequence[int], t: float, seq: int,
    ) -> List[ProbeOutcome]:
        """One end-to-end ping per entry of ``vip_addrs``, the ``k``-th
        numbered ``seq + k``: the number varies the flow so consecutive
        probes ECMP-spread across SMuxes and exercise distinct hashes.
        Every probe is resolved and offered to the fault plane in order;
        the ones it lets through are forwarded as one batch."""
        n = len(vip_addrs)
        seqs = np.arange(seq, seq + n, dtype=np.uint64)
        fields = (
            CLIENT_POOL.network + 0x7000 + seqs % 251,
            np.asarray(vip_addrs, np.uint64), 20000 + seqs % 8191,
            np.full(n, 80), np.full(n, PROTO_TCP),
        )
        muxes = self.controller.resolve_batch(FlowBatch.from_fields(*fields))
        plane = self.fault_plane
        rows = np.flatnonzero([
            mux is not None and not (
                plane.hmux_drops(mux.ident, vip) if mux.kind is MuxKind.HMUX
                else plane.smux_drops(mux.ident)
            )
            for mux, vip in zip(muxes, vip_addrs)
        ])
        status = dict(zip(rows.tolist(), self.controller.forward_batch(
            FlowBatch.from_fields(*(column[rows] for column in fields))
        ).status.tolist()))
        outcomes = []
        for k, (mux, vip) in enumerate(zip(muxes, vip_addrs)):
            # No status: no route, or lost before the mux (never counted).
            ok = status.get(k) == FORWARD_OK
            outcomes.append(ProbeOutcome(
                kind="vip", target=f"vip:{vip:#x}", t=t, ok=ok, vip=vip,
                mux_kind=None if mux is None else mux.kind.value,
                mux_ident=None if mux is None else mux.ident,
                post_mux=status.get(k) == HOST_REFUSED,
                latency_s=self._latency(mux.kind) if ok else None,
            ))
        return outcomes


@dataclass
class ProbeRound:
    """Everything the scheduler observed in one probe period."""

    t: float
    outcomes: List[ProbeOutcome] = field(default_factory=list)
    # vip -> [dip, ...] as of this round (control-plane intent, used by
    # the detector to attribute DIP-level loss).
    vip_dips: Dict[int, List[int]] = field(default_factory=dict)


class ProbeScheduler:
    """Drives one full probe sweep per period over every target.

    Iteration orders are sorted so a chaos replay with the same seed
    produces bit-identical probe streams.
    """

    def __init__(
        self,
        network: ProbeNetwork,
        vip_probes_per_round: int = 1,
    ) -> None:
        self.network = network
        self.vip_probes_per_round = vip_probes_per_round
        self._seq = 0

    def run_round(self, t: float) -> ProbeRound:
        controller = self.network.controller
        plane = self.network.fault_plane
        round_ = ProbeRound(t=t)
        out = round_.outcomes
        out.extend(
            ProbeOutcome(kind="switch", target=switch_key(index), t=t,
                         ok=not plane.switch_heartbeat_drops(index))
            for index in sorted(controller.switch_agents)
        )
        out.extend(
            ProbeOutcome(kind="smux", target=smux_key(smux.smux_id), t=t,
                         ok=not plane.smux_heartbeat_drops(smux.smux_id))
            for smux in sorted(controller.smuxes, key=lambda s: s.smux_id)
        )

        records = controller.records()
        round_.vip_dips = {
            addr: records[addr].dip_addrs() for addr in sorted(records)
        }
        dip_to_vip = {
            dip: addr for addr, dips in round_.vip_dips.items() for dip in dips
        }
        for server in sorted(controller.host_agents):
            report = controller.host_agents[server].health_report()
            for dip in sorted(report):
                vip = dip_to_vip.get(dip)
                if vip is not None:
                    out.append(ProbeOutcome(
                        kind="dip", target=dip_key(dip), t=t, ok=report[dip],
                        vip=vip,
                    ))

        vips = [
            addr for addr in sorted(records)
            for _ in range(self.vip_probes_per_round)
        ]
        out.extend(self.network.probe_vips(vips, t, self._seq))
        self._seq += len(vips)
        return round_
