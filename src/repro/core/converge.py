"""One writer for the dataplane: render the intent, converge the devices.

What the switches, SMuxes and host agents must hold is a function of the
controller's intent — S6's assignment updater pushes the intended VIP-DIP
rules to them (Figure 9).  :func:`render` is that function; :func:`converge`
reads each device in its scope once, diffs it against the render and
issues the :class:`~repro.core.agent.SwitchAgent` and SMux / host-agent
writes that close the gap.  Every controller op converges the VIPs and
devices it touched; the anti-entropy reconciler converges everything.
Each write is one epoch-fenced command on the control channel; only
switch programming is subject to its injected loss
(``repro.control.LOSSY_OPS``).

The paper's ordering rules are written once, in :meth:`_Pass.run`:

* removals go inward — HMux, SMux, host — as each device's diff finds
  them, and additions outward — host, SMux, HMux — once every removal is
  done: no mux targets a DIP its host does not serve, and an HMux entry
  always has SMux coverage behind it (S3.3.1);
* an HMux entry leaves its switch /32 first, onto the SMux stepping stone
  (S4.2, ``SwitchAgent.remove_vip``);
* targets that shrank are removed in place by resilient hashing (S5.1),
  but an HMux entry whose targets *grew* is torn down with the removals
  and rebuilt with the additions, after the SMux push — the S5.2 bounce.

A missing HMux entry goes through the controller's guarded retry path,
whose attempts converge ``onto`` the target switch: a placement in flight,
which the intent records once it has landed.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.intent import VipRecord
from repro.core.snat import slots_of_dip
from repro.dataplane.hostagent import HostAgent, SnatConfig
from repro.net.addressing import Prefix, format_ip
from repro.net.bgp import MuxRef
from repro.workload.vips import SMUX_AGGREGATES, host_address

#: A mux entry: a VIP's VIP-wide targets (port None) or one port pool.
Key = Tuple[int, Optional[int]]
Write = Callable[[], object]


class VipState(NamedTuple):
    """What the dataplane must hold for one VIP."""

    record: VipRecord               # its DIPs: the host registrations
    switch: Optional[int]           # the HMux serving it; None: SMux-only
    entries: Dict[Key, List[int]]   # mux entry -> encap targets
    weights: Optional[List[float]]  # WCMP weights of the VIP-wide entry


def render(
    controller, addrs: Iterable[int], onto: Optional[int] = None,
) -> Dict[int, Optional[VipState]]:
    """The desired state of each VIP in ``addrs`` (None: the intent no
    longer has it), on switch ``onto`` instead of its assigned one."""
    desired: Dict[int, Optional[VipState]] = {}
    for addr in addrs:
        record = controller.intent.records.get(addr)
        if record is None:
            desired[addr] = None
            continue
        entries = {(addr, None): record.encap_targets(controller.virtualized)}
        if record.vip.port_pools:
            entries.update(((addr, p), pool) for p, pool in record.port_pools())
        switch = record.assigned_switch if onto is None else onto
        desired[addr] = VipState(record, switch, entries, record.encap_weights())
    return desired


def converge(
    controller,
    vips: Optional[Iterable[int]] = None,
    *,
    switches: Optional[Sequence[int]] = None,
    smuxes: Optional[Sequence] = None,
    servers: Optional[Sequence[int]] = None,
    onto: Optional[int] = None,
    repair: bool = True,
    found: Optional[List[str]] = None,
) -> None:
    """Drive the devices in scope — switch indices, SMux objects, server
    ids, None for all (live) ones — to the render of the VIPs in scope,
    describing each divergence into ``found``; ``repair=False`` only
    describes.  ``vips=None`` is every VIP the intent has or an examined
    device holds, plus the device-wide state: SMux aggregates and, with
    every switch examined, failed switches' residue."""
    _Pass(controller, vips, switches, smuxes, servers, onto, repair, found).run()


class _Pass:
    """One converge: its scope, the render per device, and the writes."""

    def __init__(self, c, vips, switches, smuxes, servers, onto, repair, found):
        self.c, self.onto, self.repair, self.found = c, onto, repair, found
        self.every_vip, self.every_switch = vips is None, switches is None
        if switches is None:
            failed = c.intent.failed_switches
            switches = [i for i in sorted(c.switch_agents) if i not in failed]
        self.switches = switches
        self.smuxes = c.smuxes if smuxes is None else smuxes
        self.servers = sorted(c.host_agents) if servers is None else servers
        self.want = render(c, sorted(c.intent.records) if vips is None else vips, onto)
        # Per device: HMux entries by switch, the entries every SMux
        # serves, DIP -> VIP registrations by server.
        self.hmux_want: Dict[int, Dict[Key, List[int]]] = {}
        self.smux_want: Dict[Key, List[int]] = {}
        self.host_want: Dict[int, Dict[int, int]] = {s: {} for s in self.servers}
        every_server = servers is None
        for vip, want in self.want.items():
            if want is None:
                continue
            if self.smuxes:
                self.smux_want.update(want.entries)
            if want.switch is not None and self.switches:
                self.hmux_want.setdefault(want.switch, {}).update(want.entries)
            for dip in want.record.dips if every_server or self.host_want else ():
                if every_server or dip.server_id in self.host_want:
                    self.host_want.setdefault(dip.server_id, {})[dip.addr] = vip

    def note(self, device: Tuple[str, object], what: str, vip=None, port=None,
             dip=None) -> bool:
        """Record a divergence on a ``(kind, id)`` device, described only
        when asked for; True when it is to be repaired."""
        if self.found is not None:
            entry = "" if vip is None else f" VIP {format_ip(vip)}" + (
                "" if port is None else f":{port}")
            self.found.append(f"{device[0]} {device[1]}{entry} {what}" + (
                "" if dip is None else f" {format_ip(dip)}"))
        return self.repair

    def run(self) -> None:
        if self.every_vip and self.every_switch:
            for i in sorted(self.c.intent.failed_switches):
                self.failed_switch(i)
        # Each device is diffed once: removals are issued as found, inward;
        # additions are queued, and go outward after every removal.
        hmux_adds: List[Write] = []
        smux_adds: List[Write] = []
        host_adds: List[Write] = []
        for i in self.switches:
            self.hmux(i, hmux_adds)
        for smux in self.smuxes:
            self.smux(smux, smux_adds)
        for server in self.host_want:
            self.host(server, host_adds)
        for write in host_adds:
            write()
        self.snat_configs()
        for write in smux_adds + hmux_adds:
            write()
        self.routes()

    def failed_switch(self, i: int) -> None:
        """A switch the intent knows is dead holds nothing (S5.1: state is
        lost with the switch): its death is replayed."""
        agent, table = self.c.switch_agents[i], self.c.route_table
        if (
            agent.hmux.vips() or len(agent.hmux.host_table)
            or table.announced_by(agent.mux_ref)
        ) and self.note(("failed switch", i), "holds residual state"):
            agent.fail()

    def _entries(self, mux, port_keys) -> Dict[Key, List[int]]:
        """What a mux holds of the VIPs in scope (every VIP it holds, with
        ``vips=None``), pools before entries."""
        held = {
            key: mux.dips_of(*key) for key in port_keys
            if self.every_vip or key[0] in self.want
        } if port_keys else {}
        for vip in mux.vips() if self.every_vip else self.want:
            if mux.has_vip(vip):
                held[(vip, None)] = mux.dips_of(vip)
        return held

    def hmux(self, i: int, adds: List[Write]) -> None:
        """Diff one switch.  An entry it should not hold leaves; one whose
        targets shrank loses them by resilient removal; one whose targets
        grew is torn down, to be rebuilt with the additions."""
        agent, want = self.c.switch_agents[i], self.hmux_want.get(i, {})
        have = self._entries(agent.hmux, agent.hmux.port_rules())
        if have == want:
            return
        torn, where = set(), ("switch", i)
        for (vip, port), held in have.items():
            target = want.get((vip, port))
            if held == target:
                continue
            if target is not None and not _grows(held, target):
                for dip in _multiset_difference(held, target):
                    if self.note(where, "still targets removed DIP", vip, port, dip):
                        agent.remove_dip(vip, dip, port)
            elif self.note(where, "holds a stray or outgrown entry", vip, port):
                torn.add((vip, port))
                if port is None:
                    agent.remove_vip(vip)
                else:
                    agent.remove_vip_port_rules(vip, [port])
        for (vip, port), target in want.items():
            if (vip, port) in have and (vip, port) not in torn:
                continue
            # A rebuild, or a pool of a missing entry, is noted already.
            noted = (vip, port) in torn or port is not None and (vip, None) not in have
            if not (self.repair if noted else self.note(where, "misses", vip, port)):
                continue
            state = self.want[vip]
            if port is not None:
                adds.append(lambda v=vip, p=port, t=target: _add_pool(agent, v, p, t))
            elif self.onto is not None:
                adds.append(
                    lambda v=vip, t=target, w=state.weights: agent.add_vip(v, t, w)
                )
            else:
                adds.append(lambda s=state: self.c._program_or_degrade(s.record, i))

    def smux(self, smux, adds: List[Write]) -> None:
        """Diff one SMux.  What the intent no longer has leaves it, and a
        set or pool that shrank is pushed now, before its hosts let go;
        one missing or grown is pushed with the additions."""
        have = self._entries(smux, smux.port_vips())
        if have == self.smux_want:
            return
        where = ("SMux", smux.smux_id)
        for (vip, port), held in have.items():
            target = self.smux_want.get((vip, port))
            if held != target and (target is None or not _grows(held, target)):
                if self.note(where, "serves a stray or shrunk entry", vip, port):
                    self._smux_write(smux, vip, port, target)
                have[(vip, port)] = target
        adds.extend(
            lambda v=vip, p=port, t=target: self._smux_write(smux, v, p, t)
            for (vip, port), target in self.smux_want.items()
            if have.get((vip, port)) != target
            and self.note(where, "misses or outgrew", vip, port)
        )

    def _smux_write(self, smux, vip: int, port: Optional[int], target) -> None:
        """Set one SMux entry to ``target``, or remove it (target None)."""
        if target is None and port is None:
            op, apply = "smux_remove_vip", lambda: smux.remove_vip(vip)
        elif target is None:
            op, apply = "smux_remove_vip_port", lambda: smux.remove_vip_port(vip, port)
        elif port is None:
            weights = self.want[vip].weights
            op, apply = "smux_set_vip", lambda: smux.set_vip(vip, target, weights)
        else:
            op, apply = "smux_set_vip_port", lambda: smux.set_vip_port(vip, port, target)
        self.c.channel.send(f"smux:{smux.smux_id}", op, apply)

    def host(self, server: int, adds: List[Write]) -> None:
        """Diff one host: it lets go now of the DIPs no mux targets any
        more, and takes on the ones the muxes are about to target."""
        c, want = self.c, self.host_want[server]
        agent = c.host_agents.get(server)
        if agent is None and want and self.repair:
            agent = c.host_agents[server] = HostAgent(host_address(server))
            agent.hash_seed = c.hash_seed
        registered = {} if agent is None else agent.registrations()
        have = {
            dip: vip for vip in (registered if self.every_vip else self.want)
            for dip in registered.get(vip, ())
        }
        if have == want:
            return
        where = ("server", server)
        for dip, vip in have.items():
            if want.get(dip) != vip and self.note(
                where, "registers removed DIP", vip, dip=dip,
            ):
                c.channel.send(f"host:{server}", "host_unregister_dip",
                               lambda d=dip: agent.unregister_dip(d))
                c._dip_to_server.pop(dip, None)
        adds.extend(
            lambda d=dip, v=vip: self._register(agent, server, d, v)
            for dip, vip in want.items()
            if have.get(dip) != vip and self.note(where, "misses DIP", vip, dip=dip)
        )

    def _register(self, agent, server: int, dip: int, vip: int) -> None:
        self.c.channel.send(f"host:{server}", "host_register_dip",
                            lambda: agent.register_dip(dip, vip))
        self.c._dip_to_server[dip] = server

    def snat_configs(self) -> None:
        """Each SNAT-granted DIP's host holds a config for its *latest*
        range (S5.2).  An older config with that range is left alone even
        when its slot snapshot is stale: re-pushing would diverge from a
        twin that never re-pushed either."""
        c = self.c
        for vip, want in self.want.items():
            manager = None if want is None else c.intent.snat.get(vip)
            for dip in () if manager is None else want.record.dips:
                ranges = manager.ranges_of(dip.addr)
                if not ranges or dip.addr not in self.host_want.get(dip.server_id, ()):
                    continue
                latest = ranges[-1].as_tuple()
                agent = c.host_agents.get(dip.server_id)
                have = None if agent is None else agent.snat_config_of(dip.addr)
                if have is not None and have.port_range == latest:
                    continue
                if not self.note(("server", dip.server_id), "misses the SNAT "
                                 "config of DIP", vip, dip=dip.addr) or agent is None:
                    continue
                addrs = want.record.dip_addrs()
                config = SnatConfig(
                    vip=vip, n_slots=len(addrs), port_range=latest,
                    my_slots=slots_of_dip(addrs, dip.addr, hash_seed=c.hash_seed),
                    hash_seed=c.hash_seed,
                )
                c.channel.send(
                    f"host:{dip.server_id}", "host_configure_snat",
                    lambda a=agent, d=dip.addr, f=config: a.configure_snat(d, f),
                )

    def routes(self) -> None:
        """A VIP's /32 comes from the switch holding its entry and nobody
        else; the aggregates from every live SMux, once programmed
        (make-before-break).  Routes are the agents' side effects, so only
        a converge of every VIP audits them."""
        c, table = self.c, self.c.route_table
        if not self.every_vip:
            return
        routed = (p.network for p, _ in table.routes() if p.length == 32)
        for vip in sorted({*self.want, *routed}) if self.switches else ():
            host, expected, want = Prefix.host(vip), None, self.want.get(vip)
            if want is not None and want.switch is not None:
                agent = c.switch_agents[want.switch]
                expected = agent.mux_ref if agent.hmux.has_vip(vip) else None
            announcers = table.announcers(host)
            for mux in announcers:
                if mux != expected and self.note(
                    ("mux", mux), "announces a stray /32", vip,
                ):
                    table.withdraw(host, mux)
            if expected is not None and expected not in announcers and self.note(
                ("mux", expected), "misses the /32", vip,
            ):
                table.announce(host, expected)
        live = {MuxRef.smux(s.smux_id) for s in c.smuxes}
        for aggregate in SMUX_AGGREGATES:
            announcers = table.announcers(aggregate)
            for ref in [MuxRef.smux(s.smux_id) for s in self.smuxes]:
                if ref not in announcers and self.note(
                    ("mux", ref), f"misses {aggregate}",
                ):
                    table.announce(aggregate, ref)
            for ref in sorted(set(announcers) - live, key=str):
                if self.note(("mux", ref), f"announces stale {aggregate}"):
                    table.withdraw(aggregate, ref)


def _add_pool(agent, vip: int, port: int, pool: List[int]) -> None:
    """A port pool goes in beside its VIP-wide entry only."""
    if agent.hmux.has_vip(vip) and not agent.hmux.has_vip_port(vip, port):
        agent.add_vip_port_rules(vip, [(port, pool)])


def _multiset_difference(left: List[int], right: List[int]) -> List[int]:
    """Elements of ``left`` beyond their multiplicity in ``right``."""
    remaining, out = list(right), []
    for item in left:
        if item in remaining:
            remaining.remove(item)
        else:
            out.append(item)
    return out


def _grows(current: List[int], target: List[int]) -> bool:
    """Whether ``target`` holds something ``current`` lacks."""
    return current != target and bool(_multiset_difference(target, current))
