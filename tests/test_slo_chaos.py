"""Chaos-soak integration tests for the SLO/alerting/forensics loop.

The acceptance bar from the SLO PR: across a 200-seed fault-injecting
soak corpus the alert pipeline must catch every alertable fault kind at
least once, keep aggregate precision high, stay silent on fault-free
seeds, and produce bit-for-bit reproducible incident timelines.

Recall is asserted in AGGREGATE across the corpus, not per seed: a
narrow smux fault can be invisible to the fleet-wide availability SLI
on any single seed (the blast radius is a few VIPs out of many), but
across 200 seeds every kind must land.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import ChaosConfig, ChaosEngine
from repro.fleet import FleetConfig, SoakFleet
from repro.obs import replay_incident
from repro.obs.incident import ALERTABLE_FAULT_KINDS, Incident
from tests.conftest import fleet_workers

N_SEEDS = 200
N_FAULT_FREE_SEEDS = 30
N_EVENTS = 10
N_VIPS = 16
BACKGROUND_LOSS = 0.02

PRECISION_FLOOR = 0.95
RECALL_FLOOR = 0.55


def _config(seed: int, inject_faults: bool = True) -> ChaosConfig:
    return ChaosConfig(
        seed=seed,
        n_events=N_EVENTS,
        n_vips=N_VIPS,
        no_oracle=True,
        slo=True,
        background_loss=BACKGROUND_LOSS,
        inject_faults=inject_faults,
    )


def _run(seed: int, inject_faults: bool = True):
    return ChaosEngine(_config(seed, inject_faults)).run()


@pytest.fixture(scope="module")
def fleet():
    """Run the full fault-injecting corpus once through the soak fleet
    (sharded over ``fleet_workers()``); every aggregate assertion reads
    its per-seed summaries or its merged totals."""
    report = SoakFleet(
        _config(0), range(N_SEEDS),
        fleet=FleetConfig(workers=fleet_workers()),
    ).run()
    assert report.quarantined == []
    return report


@pytest.fixture(scope="module")
def corpus(fleet):
    return fleet.results


class TestSoakCorpus:
    def test_no_invariant_violations(self, corpus):
        bad = [r["violations"] for r in corpus if not r["ok"]]
        assert bad == []

    def test_slo_summary_present(self, corpus):
        for summary in corpus:
            assert summary["slo"] is not None
            assert set(summary["slo"]) == {"scorecard", "budgets", "alerts"}
            assert set(summary["slo"]["budgets"]) == {
                "vip-availability", "delivery-latency-p99",
                "post-heal-convergence", "detection-latency",
            }

    def test_aggregate_precision(self, fleet):
        card = fleet.totals["slo_scorecard"]
        assert card["incidents"] > 0
        assert card["precision"] >= PRECISION_FLOOR, (
            f"precision {card['precision']:.3f} over "
            f"{card['incidents']} incidents"
        )

    def test_aggregate_recall(self, fleet):
        card = fleet.totals["slo_scorecard"]
        assert card["eligible_faults"] > 0
        assert card["recall"] >= RECALL_FLOOR, (
            f"recall {card['recall']:.3f} "
            f"({card['matched_faults']}/{card['eligible_faults']})"
        )

    def test_every_alertable_kind_caught(self, fleet):
        by_kind = fleet.totals["slo_scorecard"]["matched_by_kind"]
        for kind in ALERTABLE_FAULT_KINDS:
            assert by_kind.get(kind, 0) >= 1, (
                f"no alert ever matched a {kind} fault; matched {by_kind}"
            )

    def test_incidents_carry_forensics(self, corpus):
        seen = 0
        for summary in corpus:
            for data in summary["incidents"]:
                seen += 1
                assert data["incident_id"].count(":") == 2
                assert data["timeline"], "empty incident timeline"
                ts = [entry["t"] for entry in data["timeline"]]
                assert ts == sorted(ts), "timeline not causally ordered"
                assert any(
                    entry["kind"] == "alert-fired"
                    for entry in data["timeline"]
                )
                assert data["replay"] is not None
        assert seen > 0

    def test_time_to_fire_within_reason(self, fleet):
        lats = fleet.totals["slo_scorecard"]["time_to_fire_s"]
        assert lats, "no true positives produced a time-to-fire"
        median = lats[len(lats) // 2]
        # Detection budget is 90 ms; alerting adds the burn windows and
        # FSM hysteresis on top.  A median beyond 150 ms means the fast
        # pair stopped doing its job.
        assert median < 0.15, f"median time-to-fire {median * 1e3:.1f} ms"


class TestFaultFreeSeeds:
    def test_zero_false_positives(self):
        for seed in range(N_FAULT_FREE_SEEDS):
            report = _run(seed, inject_faults=False)
            assert report.ok, report.violations
            card = report.slo["scorecard"]
            assert card["incidents"] == 0, (
                f"seed {seed}: {card['incidents']} incident(s) on a "
                f"fault-free run: {report.slo['alerts']}"
            )
            assert card["faults_total"] == 0


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_for_bit_timelines(self, seed):
        first = _run(seed)
        second = _run(seed)
        a = [i.to_json() for i in first.incidents]
        b = [i.to_json() for i in second.incidents]
        assert a == b
        assert json.dumps(first.slo, sort_keys=True) == json.dumps(
            second.slo, sort_keys=True
        )

    def test_replay_reproduces_incident(self, corpus):
        data = next(i for summary in corpus for i in summary["incidents"])
        replayed = replay_incident(Incident.from_dict(data))
        assert replayed is not None
        assert json.loads(json.dumps(replayed.to_dict())) == data


class TestConfigPlumbing:
    def test_slo_requires_no_oracle(self):
        with pytest.raises(ValueError, match="no_oracle"):
            ChaosEngine(ChaosConfig(seed=0, n_events=2, slo=True))

    def test_config_roundtrip(self):
        config = _config(3)
        clone = ChaosConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.slo is True

    def test_from_dict_backcompat_defaults_slo_off(self):
        # Artifacts from before the SLO engine carry no slo keys.
        legacy = _config(3).to_dict()
        for key in ("slo", "slo_overrides"):
            legacy.pop(key, None)
        config = ChaosConfig.from_dict(legacy)
        assert config.slo is False

    def test_slo_off_means_no_summary(self):
        config = ChaosConfig(
            seed=1, n_events=4, n_vips=8, no_oracle=True,
        )
        report = ChaosEngine(config).run()
        assert report.slo is None
        assert report.incidents == []
