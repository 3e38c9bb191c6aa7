#!/usr/bin/env python3
"""Failure handling: the SMux backstop in action (paper S5.1, Figure 12).

Shows the two layers of Duet's failure story:

1. *Steady state control plane*: kill the switch hosting a VIP; BGP
   withdrawals fall the traffic back to the SMuxes, and because both
   planes share one hash function, established flows keep landing on the
   same DIPs.
2. *Timing*: replay the paper's Figure 12 testbed experiment on the
   event simulator and measure the ~38 ms blackhole window.

Run:  python examples/failover_demo.py
"""

from repro.core import DuetController
from repro.dataplane import make_tcp_packet
from repro.net import FatTreeParams, Topology, format_ip
from repro.net.bgp import MuxKind
from repro.sim import run_failover
from repro.workload import CLIENT_POOL, generate_population


def control_plane_story() -> None:
    topology = Topology(FatTreeParams(
        n_containers=3, tors_per_container=3,
        aggs_per_container=2, n_cores=2, servers_per_tor=8,
    ))
    population = generate_population(
        topology, n_vips=30,
        total_traffic_bps=topology.params.n_servers * 200e6,
        seed=3,
    )
    controller = DuetController(topology, population, n_smuxes=2)
    controller.run_initial_assignment()

    vip = next(
        v for v in population
        if controller.vip_location(v.addr) is not None
    )
    switch = controller.vip_location(vip.addr)
    print(
        f"VIP {format_ip(vip.addr)} lives on HMux "
        f"{topology.switch(switch).name}"
    )

    # Pin 20 client connections, then fail the switch.
    packets = [
        make_tcp_packet(CLIENT_POOL.network + i, vip.addr, 50_000 + i, 80)
        for i in range(20)
    ]
    before = [controller.forward(p)[0].flow.dst_ip for p in packets]
    affected = controller.fail_switch(switch)
    print(
        f"failed {topology.switch(switch).name}: {len(affected)} VIPs "
        "fell back to the SMux backstop"
    )
    preserved = 0
    for packet, old_dip in zip(packets, before):
        delivered, mux = controller.forward(packet)
        assert mux.kind is MuxKind.SMUX
        if delivered.flow.dst_ip == old_dip:
            preserved += 1
    print(
        f"connection preservation: {preserved}/{len(packets)} flows kept "
        "their DIP across the failover (shared hash, S3.3.1)"
    )


def timing_story() -> None:
    result = run_failover()
    failed = result["vip3-failed-hmux"]
    print(
        f"\nFigure 12 replay: outage of the failed HMux's VIP = "
        f"{failed.outage_s() * 1e3:.0f} ms "
        f"(paper: <40 ms); availability {failed.availability():.1%}"
    )
    for label in ("vip1-smux", "vip2-healthy-hmux"):
        print(
            f"  {label}: availability "
            f"{result[label].availability():.1%} (unaffected)"
        )


if __name__ == "__main__":
    control_plane_story()
    timing_story()
