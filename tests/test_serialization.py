"""Tests for repro.workload.serialization: JSON round-trips."""

import json

import pytest

from repro.net.topology import FatTreeParams
from repro.workload.serialization import (
    SerializationError,
    load_population,
    load_trace,
    params_from_dict,
    params_to_dict,
    save_population,
    save_trace,
)
from repro.workload import trace
from repro.workload.trace import TraceConfig, TraceGenerator
from repro.workload.vips import generate_population


@pytest.fixture(scope="module")
def population(tiny_topology):
    return generate_population(
        tiny_topology, n_vips=12, total_traffic_bps=5e9,
        heterogeneous_fraction=0.5,
        latency_sensitive_fraction=0.3,
        seed=3,
    )


class TestTopologyParams:
    def test_roundtrip(self, tiny_params):
        assert params_from_dict(params_to_dict(tiny_params)) == tiny_params

    def test_missing_field(self):
        with pytest.raises(SerializationError):
            params_from_dict({"n_containers": 2})

    def test_table_spec_preserved(self):
        from repro.net.topology import SwitchTableSpec

        params = FatTreeParams(tables=SwitchTableSpec(tunnel_table=128))
        restored = params_from_dict(params_to_dict(params))
        assert restored.tables.tunnel_table == 128


class TestPopulationRoundtrip:
    def test_full_roundtrip(self, population, tmp_path):
        path = save_population(population, tmp_path / "pop.json")
        restored = load_population(path)
        assert len(restored) == len(population)
        for original, loaded in zip(population, restored):
            assert loaded.vip_id == original.vip_id
            assert loaded.addr == original.addr
            assert loaded.traffic_bps == original.traffic_bps
            assert loaded.ingress_racks == original.ingress_racks
            assert loaded.latency_sensitive == original.latency_sensitive
            assert [d.addr for d in loaded.dips] == [
                d.addr for d in original.dips
            ]
            assert [d.weight for d in loaded.dips] == [
                d.weight for d in original.dips
            ]

    def test_demands_identical(self, population, tmp_path):
        path = save_population(population, tmp_path / "pop.json")
        restored = load_population(path)
        assert restored.demands() == population.demands()

    def test_topology_rebuilt(self, population, tmp_path):
        path = save_population(population, tmp_path / "pop.json")
        restored = load_population(path)
        assert restored.topology.params == population.topology.params

    def test_port_pools_roundtrip(self, tiny_topology, tmp_path):
        from repro.workload.vips import Dip, Vip, VipPopulation

        dips = (
            Dip(addr=0x64000001, server_id=0,
                tor=tiny_topology.server_tor(0)),
            Dip(addr=0x64000002, server_id=1,
                tor=tiny_topology.server_tor(1)),
        )
        vip = Vip(
            vip_id=0, addr=0x0A000001, dips=dips, traffic_bps=1e9,
            ingress_racks=((tiny_topology.tors()[0], 0.7),),
            internet_fraction=0.3,
            port_pools=((80, (0x64000001,)),),
        )
        path = save_population(
            VipPopulation(tiny_topology, [vip]), tmp_path / "p.json"
        )
        restored = load_population(path)
        assert restored.vips[0].port_pools == ((80, (0x64000001,)),)

    def test_rejects_wrong_kind(self, population, tmp_path):
        path = save_population(population, tmp_path / "pop.json")
        payload = json.loads(path.read_text())
        payload["kind"] = "trace"
        path.write_text(json.dumps(payload))
        with pytest.raises(SerializationError):
            load_population(path)

    def test_rejects_bad_version(self, population, tmp_path):
        path = save_population(population, tmp_path / "pop.json")
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(SerializationError):
            load_population(path)

    def test_rejects_garbage(self, tmp_path):
        bad = tmp_path / "x.json"
        bad.write_text("{not json")
        with pytest.raises(SerializationError):
            load_population(bad)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_population(tmp_path / "absent.json")


class TestTraceRoundtrip:
    def test_full_roundtrip(self, population, tmp_path, monkeypatch):
        monkeypatch.setattr(trace, "CHURN_FRACTION", 0.1)
        epochs = TraceGenerator(
            population, TraceConfig(n_epochs=5), seed=2,
        ).epochs()
        path = save_trace(epochs, tmp_path / "trace.json")
        restored = load_trace(path, population)
        assert len(restored) == len(epochs)
        for original, loaded in zip(epochs, restored):
            assert loaded.index == original.index
            assert loaded.start_s == original.start_s
            assert loaded.added_vip_ids == original.added_vip_ids
            assert loaded.removed_vip_ids == original.removed_vip_ids
            assert len(loaded.demands) == len(original.demands)
            for a, b in zip(original.demands, loaded.demands):
                assert a.vip_id == b.vip_id
                assert a.traffic_bps == pytest.approx(b.traffic_bps)
                assert a.dip_tors == b.dip_tors

    def test_replay_equivalence(self, population, tmp_path):
        """An assignment computed from a reloaded trace matches one from
        the original trace exactly."""
        from repro.core.assignment import GreedyAssigner

        epochs = TraceGenerator(
            population, TraceConfig(n_epochs=2), seed=4,
        ).epochs()
        path = save_trace(epochs, tmp_path / "trace.json")
        restored = load_trace(path, population)
        topo = population.topology
        a = GreedyAssigner(topo).assign(list(epochs[1].demands))
        b = GreedyAssigner(topo).assign(list(restored[1].demands))
        assert a.vip_to_switch == b.vip_to_switch

    def test_unknown_vip_rejected(self, population, tmp_path):
        epochs = TraceGenerator(
            population, TraceConfig(n_epochs=1), seed=1,
        ).epochs()
        path = save_trace(epochs, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        payload["epochs"][0]["demands"][0]["vip_id"] = 9999
        path.write_text(json.dumps(payload))
        with pytest.raises(SerializationError):
            load_trace(path, population)
