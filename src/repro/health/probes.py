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

A round is columns, one set per family (:class:`ProbeRound`): the
detector and the monitor read it in array passes, never one object per
probe.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Iterable, List, Sequence

import numpy as np

from repro.core.controller import DuetController
from repro.dataplane.batch import FORWARD_OK, MUX_DROP, NO_ROUTE, FlowBatch
from repro.dataplane.packet import PROTO_TCP
from repro.health.faults import FaultPlane
from repro.net.bgp import MuxKind
from repro.workload.vips import CLIENT_POOL

#: Paper testbed cadence: one ping every 3 ms (S5.1, Figure 11).
DEFAULT_PROBE_PERIOD_S = 0.003

#: Nominal one-way service latency by mux kind; the testbed measured
#: HMux forwarding in hardware (~us) and SMux in software (~ms tail).
_HMUX_BASE_LATENCY_S = 150e-6
_SMUX_BASE_LATENCY_S = 600e-6

#: :attr:`VipProbes.mux_kind` codes: the mux a VIP probe was offered to.
UNROUTED, HMUX, SMUX = range(3)


class SimClock:
    """A trivially advancing simulated clock shared by the monitor."""

    def __init__(self, start_s: float = 0.0) -> None:
        self.now_s = start_s

    def advance(self, dt_s: float) -> float:
        self.now_s += dt_s
        return self.now_s


class Heartbeats:
    """One liveness heartbeat per device: its id (switch index or SMux
    id) and whether it answered."""

    def __init__(self, ident: Iterable[int] = (), ok: Iterable[bool] = ()) -> None:
        self.ident = np.asarray(ident, np.int64)
        self.ok = np.asarray(ok, bool)


class DipProbes:
    """One host health probe per registered DIP: the DIP, the VIP the
    control plane serves it under, whether the host reports it healthy."""

    def __init__(
        self, dip: Iterable[int] = (), vip: Iterable[int] = (),
        ok: Iterable[bool] = (),
    ) -> None:
        self.dip = np.asarray(dip, np.int64)
        self.vip = np.asarray(vip, np.int64)
        self.ok = np.asarray(ok, bool)


class VipProbes:
    """One end-to-end ping per row.  Per row: the VIP; the mux it was
    offered to, ``mux_kind`` (``UNROUTED``, ``HMUX`` or ``SMUX``) and
    ``mux_ident`` (switch index or SMux id, -1 when unrouted); the
    forwarding status, where ``MUX_DROP`` also covers a probe lost before
    the mux (never counted) and ``HOST_REFUSED`` one the mux counted and
    the host agent refused; the round-trip latency, NaN unless delivered."""

    def __init__(
        self, vip: Iterable[int] = (), mux_kind: Iterable[int] = (),
        mux_ident: Iterable[int] = (), status: Iterable[int] = (),
        latency_s: Iterable[float] = (),
    ) -> None:
        self.vip = np.asarray(vip, np.int64)
        self.mux_kind = np.asarray(mux_kind, np.int8)
        self.mux_ident = np.asarray(mux_ident, np.int64)
        self.status = np.asarray(status, np.uint8)
        self.latency_s = np.asarray(latency_s, np.float64)

    @property
    def ok(self) -> np.ndarray:
        return self.status == FORWARD_OK


class ProbeNetwork:
    """Sends VIP probes through the controller's forwarding path.

    A VIP probe names the mux the prober *offered* it to.  The metrics
    registry counts packets the mux actually *processed* — the detector
    cross-checks the two to tell mux-level loss (never counted) from
    post-mux loss (counted, then failed at the host agent).
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

    def probe_vips(self, vip_addrs: Sequence[int], seq: int) -> VipProbes:
        """One end-to-end ping per entry of ``vip_addrs``, the ``k``-th
        numbered ``seq + k``: the number varies the flow so consecutive
        probes ECMP-spread across SMuxes and exercise distinct hashes.
        Every probe is resolved and offered to the fault plane in order;
        the ones it lets through are forwarded as one batch, and each
        delivered one draws its latency in row order."""
        n = len(vip_addrs)
        seqs = np.arange(seq, seq + n, dtype=np.uint64)
        fields = (
            CLIENT_POOL.network + 0x7000 + seqs % 251,
            np.asarray(vip_addrs, np.uint64), 20000 + seqs % 8191,
            np.full(n, 80), np.full(n, PROTO_TCP),
        )
        muxes = self.controller.resolve_batch(FlowBatch.from_fields(*fields))
        kind = np.array([
            UNROUTED if mux is None else HMUX if mux.kind is MuxKind.HMUX
            else SMUX for mux in muxes
        ], np.int8)
        ident = np.array([-1 if mux is None else mux.ident for mux in muxes], np.int64)
        plane = self.fault_plane
        if (plane.dead_switches or plane.dead_smuxes or plane.gray
                or plane.background_loss > 0.0):
            passed = np.flatnonzero([
                mux is not None and not (
                    plane.hmux_drops(mux.ident, vip) if mux.kind is MuxKind.HMUX
                    else plane.smux_drops(mux.ident)
                )
                for mux, vip in zip(muxes, vip_addrs)
            ])
        else:
            # A quiet plane drops nothing and draws nothing.
            passed = np.flatnonzero(kind != UNROUTED)
        status = np.where(kind == UNROUTED, NO_ROUTE, MUX_DROP).astype(np.uint8)
        status[passed] = self.controller.forward_batch(
            FlowBatch.from_fields(*(column[passed] for column in fields))
        ).status
        latency = np.full(n, np.nan)
        delivered = np.flatnonzero(status == FORWARD_OK)
        draws = np.fromiter(
            (self.rng.random() for _ in range(delivered.size)),
            np.float64, delivered.size,
        )
        base = np.where(
            kind[delivered] == HMUX, _HMUX_BASE_LATENCY_S, _SMUX_BASE_LATENCY_S,
        )
        latency[delivered] = base * (0.9 + 0.2 * draws)
        return VipProbes(vip_addrs, kind, ident, status, latency)


class ProbeRound:
    """Everything the scheduler observed in one probe period, one
    column set per probe family."""

    def __init__(
        self, t: float, switch: Heartbeats = Heartbeats(),
        smux: Heartbeats = Heartbeats(), dip: DipProbes = DipProbes(),
        vip: VipProbes = VipProbes(),
    ) -> None:
        self.t = t
        self.switch = switch
        self.smux = smux
        self.dip = dip
        self.vip = vip


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
        switches = sorted(controller.switch_agents)
        switch = Heartbeats(
            switches, [not plane.switch_heartbeat_drops(i) for i in switches],
        )
        smuxes = sorted(smux.smux_id for smux in controller.smuxes)
        smux = Heartbeats(
            smuxes, [not plane.smux_heartbeat_drops(i) for i in smuxes],
        )

        # A DIP in two VIPs is probed under the last in sorted order.
        records = controller.records()
        addrs = sorted(records)
        dip_to_vip = {
            dip: addr for addr in addrs for dip in records[addr].dip_addrs()
        }
        agents = controller.host_agents
        dips: List[int] = []
        oks: List[bool] = []
        for server in sorted(agents):
            local = sorted(agents[server].registered_dips())
            failed = agents[server].failed_dips()
            dips += local
            oks += [dip not in failed for dip in local]
        vips = np.fromiter(
            map(dip_to_vip.get, dips, repeat(-1)), np.int64, len(dips),
        )
        served = vips >= 0
        dip = DipProbes(np.asarray(dips, np.int64)[served], vips[served],
                        np.asarray(oks, bool)[served])

        probed = [addr for addr in addrs for _ in range(self.vip_probes_per_round)]
        vip = self.network.probe_vips(probed, self._seq)
        self._seq += len(probed)
        return ProbeRound(t, switch, smux, dip, vip)
