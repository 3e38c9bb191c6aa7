#!/usr/bin/env python3
"""Advanced data plane features of S5.2: SNAT, port rules, TIPs, WCMP.

Demonstrates the four switch-level mechanisms beyond plain VIP->DIP
load balancing:

* the SNAT trick — the host agent picks outbound ports that invert the
  HMux hash so return traffic finds its way home,
* port-based load balancing via ACL rules (one DIP pool per service
  port, Figure 8),
* TIP indirection for a VIP with more DIPs than one tunneling table
  (Figure 7),
* WCMP weights for heterogeneous servers.

Run:  python examples/advanced_dataplane.py
"""

from collections import Counter

from repro.dataplane import (
    FiveTuple,
    HMux,
    HostAgent,
    SnatConfig,
    five_tuple_hash,
    make_tcp_packet,
)
from repro.dataplane.packet import PROTO_TCP
from repro.net import SwitchTableSpec, format_ip, parse_ip

SWITCH_IP = parse_ip("172.16.0.1")
VIP = parse_ip("10.0.0.1")
CLIENT = parse_ip("8.0.0.1")


def snat_demo() -> None:
    print("== SNAT: inverting the HMux hash at the host agent ==")
    dips = [parse_ip(f"100.0.0.{i}") for i in range(1, 5)]
    hmux = HMux(SWITCH_IP)
    hmux.program_vip(VIP, dips)

    # The controller tells each HA which ECMP slots point at its DIP.
    my_dip = dips[2]
    agent = HostAgent(parse_ip("20.0.0.3"))
    agent.register_dip(my_dip, VIP)
    agent.configure_snat(my_dip, SnatConfig(
        vip=VIP, n_slots=len(dips), my_slots=(2,),
        port_range=(10_000, 12_000),
    ))

    lease = agent.open_outbound(my_dip, CLIENT, 443, PROTO_TCP)
    print(
        f"outbound connection from {format_ip(my_dip)} leased VIP port "
        f"{lease.vip_port}"
    )
    # The return packet from the Internet hits the HMux...
    return_packet = make_tcp_packet(CLIENT, VIP, 443, lease.vip_port)
    result = hmux.process(return_packet)
    print(
        f"return traffic encapsulated to {format_ip(result.selected_ip)} "
        f"(wanted {format_ip(my_dip)}) -> "
        f"{'correct' if result.selected_ip == my_dip else 'WRONG'}"
    )


def port_rules_demo() -> None:
    print("\n== Port-based load balancing (ACL rules, Figure 8) ==")
    http_pool = [parse_ip(f"100.0.1.{i}") for i in range(1, 4)]
    ftp_pool = [parse_ip(f"100.0.2.{i}") for i in range(1, 3)]
    hmux = HMux(SWITCH_IP)
    hmux.program_vip_port(VIP, 80, http_pool)
    hmux.program_vip_port(VIP, 21, ftp_pool)
    for port, pool_name in ((80, "http"), (21, "ftp")):
        hits = Counter(
            hmux.process(
                make_tcp_packet(CLIENT + i, VIP, 30_000 + i, port)
            ).selected_ip
            for i in range(60)
        )
        print(f"  :{port} -> {len(hits)} {pool_name} DIPs hit")


def tip_demo() -> None:
    print("\n== TIP indirection for a 1,000-DIP VIP (Figure 7) ==")
    spec = SwitchTableSpec()  # tunnel table caps at 512
    n_dips = 1000
    dips = [parse_ip("100.1.0.0") + i for i in range(n_dips)]
    partitions = [dips[:512], dips[512:]]
    tips = [parse_ip("10.255.0.1"), parse_ip("10.255.0.2")]

    front = HMux(SWITCH_IP, spec)
    front.program_vip(VIP, tips)  # 2 tunnel entries instead of 1000
    tip_switches = []
    for tip, partition in zip(tips, partitions):
        switch = HMux(parse_ip("172.16.0.2") + len(tip_switches), spec)
        switch.program_vip(tip, partition, is_tip=True)
        tip_switches.append(switch)
    print(
        f"  front switch uses {len(front.tunnel_table)} tunnel "
        f"entries for {n_dips} DIPs"
    )
    reached = set()
    for i in range(2000):
        hop1 = front.process(make_tcp_packet(CLIENT + i, VIP, 20_000 + i % 40_000, 80))
        owner = tip_switches[tips.index(hop1.selected_ip)]
        hop2 = owner.process(hop1.packet)
        reached.add(hop2.selected_ip)
    print(f"  2000 flows reached {len(reached)} distinct DIPs")


def wcmp_demo() -> None:
    print("\n== WCMP for heterogeneous servers (S5.2) ==")
    fast = parse_ip("100.0.9.1")
    slow = parse_ip("100.0.9.2")
    hmux = HMux(SWITCH_IP)
    hmux.program_vip(VIP, [fast, slow], weights=[3.0, 1.0], n_slots=64)
    hits = Counter(
        hmux.process(make_tcp_packet(CLIENT + i, VIP, 25_000 + i, 80)).selected_ip
        for i in range(2000)
    )
    print(
        f"  fast:slow split = {hits[fast]}:{hits[slow]} "
        f"(~{hits[fast] / hits[slow]:.1f}:1, weights were 3:1)"
    )


if __name__ == "__main__":
    snat_demo()
    port_rules_demo()
    tip_demo()
    wcmp_demo()
