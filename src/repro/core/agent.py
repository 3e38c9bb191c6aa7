"""The per-switch agent (paper S6, Figure 9): it programs the switch's
HMux tables and fires the BGP route updates for them.

Every mutation is one command on the epoch-fenced
:class:`~repro.control.ControlChannel`; the controller decides *which*
mutations to issue (:mod:`repro.core.converge`), the agent only carries
them out, idempotently.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.control import ChannelSendError, ControlChannel
from repro.dataplane.hmux import HMux
from repro.net.addressing import Prefix, format_ip
from repro.net.bgp import MuxRef, VipRouteTable
from repro.obs.tracing import maybe_span, trace_event


class ControllerError(Exception):
    """Invalid controller operation."""


class SwitchProgrammingError(ControllerError):
    """A switch-agent programming RPC failed: the command was lost or
    partitioned on the :class:`~repro.control.ControlChannel`.  The
    controller retries with backoff and ultimately degrades the VIP to
    SMux-only."""


class SwitchAgent:
    """The per-switch agent: programs the HMux and announces routes (S6).

    "On every VIP change, the switch agent fires routing updates over
    BGP" — here, synchronously against the shared route table.  The
    channel's injected faults reach only the programming ops (never the
    withdrawals: a failed withdrawal would strand a route, which BGP
    itself prevents — the neighbours withdraw on session loss).
    """

    def __init__(
        self,
        switch_index: int,
        hmux: HMux,
        route_table: VipRouteTable,
        channel: ControlChannel,
    ) -> None:
        self.switch_index = switch_index
        self.hmux = hmux
        self.route_table = route_table
        self.mux_ref = MuxRef.hmux(switch_index)
        self.channel = channel
        self.device_id = f"switch:{switch_index}"
        # Route-announce versions captured at announce time, passed back
        # on withdraw so a stale (reordered) withdraw cannot erase a
        # newer announcement (see VipRouteTable.withdraw).
        self._announce_versions: Dict[int, Optional[int]] = {}
        # Set by DuetController.attach_tracer; every hook is a no-op
        # while this stays None.
        self.tracer = None

    def _send(self, op: str, fn):
        """Deliver one device mutation over the control channel.  Channel
        loss/partition surfaces as :class:`SwitchProgrammingError`, which
        the controller's retry/degrade path handles."""
        try:
            return self.channel.send(self.device_id, op, fn)
        except ChannelSendError as error:
            raise SwitchProgrammingError(str(error)) from error

    def add_vip(
        self,
        vip: int,
        encap_ips: Sequence[int],
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        """Program the tables, then announce the /32 (make-before-break).

        Idempotent under duplicate delivery: re-applying with the same
        encap targets leaves the tables, counters, and layout version
        untouched (the announce is a no-op when the route exists)."""
        with maybe_span(
            self.tracer, "hmux.program",
            switch=self.switch_index, vip=format_ip(vip),
        ):
            def apply() -> None:
                if not (
                    self.hmux.has_vip(vip)
                    and sorted(self.hmux.dips_of(vip)) == sorted(encap_ips)
                ):
                    self.hmux.program_vip(vip, encap_ips, weights)
                trace_event(
                    self.tracer, "bgp.announce",
                    vip=format_ip(vip), mux=str(self.mux_ref),
                )
                prefix = Prefix.host(vip)
                self.route_table.announce(prefix, self.mux_ref)
                self._announce_versions[vip] = (
                    self.route_table.announce_version(prefix, self.mux_ref)
                )

            self._send("program_vip", apply)

    def remove_vip(self, vip: int) -> None:
        """Withdraw the /32 first (traffic falls to SMux), then free the
        tables — the stepping-stone order of S4.2.  Idempotent: removing
        an absent VIP is a no-op, and the withdraw carries the announce
        version so it can never erase a newer re-announcement."""
        with maybe_span(
            self.tracer, "hmux.remove",
            switch=self.switch_index, vip=format_ip(vip),
        ):
            def apply() -> None:
                trace_event(
                    self.tracer, "bgp.withdraw",
                    vip=format_ip(vip), mux=str(self.mux_ref),
                )
                version = self._announce_versions.pop(vip, None)
                self.route_table.withdraw(
                    Prefix.host(vip), self.mux_ref, version=version
                )
                if self.hmux.has_vip(vip):
                    self.hmux.remove_vip(vip)

            self._send("withdraw_vip", apply)

    def add_vip_port_rules(
        self,
        vip: int,
        port_pools: Sequence[Tuple[int, Sequence[int]]],
    ) -> None:
        """Install the per-port ACL pools alongside the VIP (Figure 8).
        Each port rule is its own command (and its own fault point);
        re-delivery of an installed rule is a no-op."""
        for port, pool in port_pools:
            def apply(port: int = port, pool=pool) -> None:
                if not self.hmux.has_vip_port(vip, port):
                    self.hmux.program_vip_port(vip, port, list(pool))

            self._send("program_vip_port", apply)

    def remove_vip_port_rules(
        self,
        vip: int,
        ports: Sequence[int],
    ) -> None:
        def apply() -> None:
            for port in ports:
                if self.hmux.has_vip_port(vip, port):
                    self.hmux.remove_vip_port(vip, port)

        self._send("withdraw_vip_port", apply)

    def remove_dip(
        self, vip: int, encap_ip: int, port: Optional[int] = None,
    ) -> int:
        """Idempotent resilient DIP removal from the VIP (from its
        ``port`` pool when given): an already-removed (or never-present)
        encap target remaps zero slots instead of raising."""
        def apply() -> int:
            installed = (
                self.hmux.has_vip(vip) if port is None
                else self.hmux.has_vip_port(vip, port)
            )
            if not installed or encap_ip not in self.hmux.dips_of(vip, port):
                return 0
            return self.hmux.remove_dip(vip, encap_ip, port)

        return self._send("remove_dip", apply)

    def fail(self) -> int:
        """Switch death: all announcements disappear via BGP withdrawals
        from the neighbours (S5.1), and the ASIC tables are wiped — state
        really is lost with the switch, so a later recovery starts from
        an empty HMux.  Queued duplicate deliveries die with it: the
        replacement must not see ghosts of the previous life.  Returns
        the number of routes withdrawn."""
        withdrawn = self.route_table.withdraw_all(self.mux_ref)
        self._announce_versions.clear()
        trace_event(
            self.tracer, "bgp.withdraw_all",
            mux=str(self.mux_ref), routes=withdrawn,
        )
        self.hmux.reset()
        self.channel.purge_device(self.device_id)
        return withdrawn
