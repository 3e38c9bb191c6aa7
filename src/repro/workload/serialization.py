"""Persist workloads: populations and traces to/from JSON.

The paper's evaluation is driven by a recorded production trace; the
reproduction synthesizes one, but downstream users need the same
affordance — freeze a workload to disk, share it, and replay it bit-for-
bit later (or substitute a real trace in the same schema).

Schema (version 1)::

    population.json
      {"version": 1, "kind": "population",
       "topology": {...FatTreeParams...},
       "vips": [{"vip_id", "addr", "traffic_bps", "internet_fraction",
                 "latency_sensitive", "ingress_racks": [[tor, frac]...],
                 "port_pools": [[port, [dip_addr...]]...],
                 "dips": [{"addr", "server_id", "weight"}...]}, ...]}

    trace.json
      {"version": 1, "kind": "trace",
       "epochs": [{"index", "start_s",
                   "added": [...], "removed": [...],
                   "demands": [{"vip_id", "traffic_bps"}, ...]}, ...]}

Trace files store only what varies per epoch (per-VIP traffic and
membership); static demand structure is joined back from the population
at load time.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Sequence, Union

from repro.net.topology import FatTreeParams, SwitchTableSpec, Topology
from repro.workload.trace import TraceEpoch
from repro.workload.vips import Dip, Vip, VipPopulation

PathLike = Union[str, pathlib.Path]

SCHEMA_VERSION = 1


class SerializationError(Exception):
    """Malformed or incompatible workload file."""


# -- topology ----------------------------------------------------------------

def params_to_dict(params: FatTreeParams) -> Dict:
    return {
        "n_containers": params.n_containers,
        "tors_per_container": params.tors_per_container,
        "aggs_per_container": params.aggs_per_container,
        "n_cores": params.n_cores,
        "servers_per_tor": params.servers_per_tor,
        "tor_agg_gbps": params.tor_agg_gbps,
        "agg_core_gbps": params.agg_core_gbps,
        "tables": {
            "host_table": params.tables.host_table,
            "ecmp_table": params.tables.ecmp_table,
            "tunnel_table": params.tables.tunnel_table,
        },
    }


def params_from_dict(payload: Dict) -> FatTreeParams:
    try:
        tables = payload.get("tables", {})
        return FatTreeParams(
            n_containers=payload["n_containers"],
            tors_per_container=payload["tors_per_container"],
            aggs_per_container=payload["aggs_per_container"],
            n_cores=payload["n_cores"],
            servers_per_tor=payload["servers_per_tor"],
            tor_agg_gbps=payload.get("tor_agg_gbps", 10.0),
            agg_core_gbps=payload.get("agg_core_gbps", 40.0),
            tables=SwitchTableSpec(
                host_table=tables.get("host_table", 16 * 1024),
                ecmp_table=tables.get("ecmp_table", 4 * 1024),
                tunnel_table=tables.get("tunnel_table", 512),
            ),
        )
    except KeyError as missing:
        raise SerializationError(f"topology field missing: {missing}")


# -- VIPs and DIPs (population files and journal records share these) -------

def dip_to_dict(dip: Dip) -> Dict:
    return {"addr": dip.addr, "server_id": dip.server_id, "weight": dip.weight}


def dip_from_dict(data: Dict, topology: Topology) -> Dip:
    return Dip(
        addr=data["addr"],
        server_id=data["server_id"],
        tor=topology.server_tor(data["server_id"]),
        weight=data.get("weight", 1.0),
    )


def vip_to_dict(vip: Vip) -> Dict:
    return {
        "vip_id": vip.vip_id,
        "addr": vip.addr,
        "traffic_bps": vip.traffic_bps,
        "internet_fraction": vip.internet_fraction,
        "latency_sensitive": vip.latency_sensitive,
        "ingress_racks": [[tor, frac] for tor, frac in vip.ingress_racks],
        "port_pools": [[port, list(pool)] for port, pool in vip.port_pools],
        "dips": [dip_to_dict(d) for d in vip.dips],
    }


def vip_from_dict(data: Dict, topology: Topology) -> Vip:
    """Raises ``KeyError`` on a missing required field."""
    return Vip(
        vip_id=data["vip_id"],
        addr=data["addr"],
        dips=tuple(dip_from_dict(d, topology) for d in data["dips"]),
        traffic_bps=data["traffic_bps"],
        ingress_racks=tuple((tor, frac) for tor, frac in data["ingress_racks"]),
        internet_fraction=data["internet_fraction"],
        port_pools=tuple(
            (port, tuple(pool)) for port, pool in data.get("port_pools", [])
        ),
        latency_sensitive=data.get("latency_sensitive", False),
    )


# -- population ----------------------------------------------------------------

def save_population(
    population: VipPopulation, path: PathLike
) -> pathlib.Path:
    """Write a population (with its topology parameters) to JSON."""
    payload = {
        "version": SCHEMA_VERSION,
        "kind": "population",
        "topology": params_to_dict(population.topology.params),
        "vips": [vip_to_dict(vip) for vip in population],
    }
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=1) + "\n")
    return target


def load_population(path: PathLike) -> VipPopulation:
    """Load a population; rebuilds the topology from the stored params."""
    payload = _read(path, expected_kind="population")
    params = params_from_dict(payload["topology"])
    topology = Topology(params)
    try:
        vips = [vip_from_dict(entry, topology) for entry in payload["vips"]]
    except KeyError as missing:
        raise SerializationError(f"VIP field missing: {missing}")
    return VipPopulation(topology, vips)


# -- traces ----------------------------------------------------------------------

def save_trace(
    epochs: Sequence[TraceEpoch], path: PathLike
) -> pathlib.Path:
    """Write a materialized trace (per-epoch traffic + membership)."""
    payload = {
        "version": SCHEMA_VERSION,
        "kind": "trace",
        "epochs": [
            {
                "index": epoch.index,
                "start_s": epoch.start_s,
                "added": list(epoch.added_vip_ids),
                "removed": list(epoch.removed_vip_ids),
                "demands": [
                    {"vip_id": d.vip_id, "traffic_bps": d.traffic_bps}
                    for d in epoch.demands
                ],
            }
            for epoch in epochs
        ],
    }
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=1) + "\n")
    return target


def load_trace(
    path: PathLike, population: VipPopulation
) -> List[TraceEpoch]:
    """Load a trace, joining static demand structure back from
    ``population`` (the file stores only what varies per epoch)."""
    payload = _read(path, expected_kind="trace")
    base = {v.vip_id: v.demand() for v in population}
    epochs: List[TraceEpoch] = []
    for entry in payload["epochs"]:
        demands = []
        for d in entry["demands"]:
            template = base.get(d["vip_id"])
            if template is None:
                raise SerializationError(
                    f"trace references unknown VIP {d['vip_id']}"
                )
            if template.traffic_bps > 0:
                demands.append(
                    template.scaled(d["traffic_bps"] / template.traffic_bps)
                )
            else:
                demands.append(template)
        epochs.append(TraceEpoch(
            index=entry["index"],
            start_s=entry["start_s"],
            demands=tuple(demands),
            added_vip_ids=tuple(entry.get("added", [])),
            removed_vip_ids=tuple(entry.get("removed", [])),
        ))
    return epochs


def _read(path: PathLike, expected_kind: str) -> Dict:
    target = pathlib.Path(path)
    try:
        payload = json.loads(target.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise SerializationError(f"cannot read {target}: {error}")
    if payload.get("version") != SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported schema version {payload.get('version')!r}"
        )
    if payload.get("kind") != expected_kind:
        raise SerializationError(
            f"expected a {expected_kind} file, got {payload.get('kind')!r}"
        )
    return payload
