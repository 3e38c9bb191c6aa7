"""Unit tests for the SLO engine: spec compilation, reset-aware window
math, burn-rate alert FSM, error budgets, incident forensics, and the
alert scorecard."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    AlertEvaluator,
    AlertPolicy,
    AlertScorecard,
    BurnWindow,
    Incident,
    MetricsRegistry,
    Recorder,
    RingBuffer,
    SeriesSelector,
    SloError,
    SloSpec,
    build_default_policies,
    build_default_slos,
    compile_slo,
    default_slo_specs,
    reset_aware_increase,
)
from repro.obs.alerts import (
    STATE_FIRING,
    STATE_INACTIVE,
    STATE_PENDING,
    _CumSeries,
)
from repro.obs.slo import budget_from_counts, recorder_lookup, window_increase


class FakeFaultPlane:
    def __init__(self, log):
        self.log = log


class FakeEvaluator:
    def __init__(self, incidents):
        self.incidents = incidents


# ---------------------------------------------------------------------------
# Reset-aware window math
# ---------------------------------------------------------------------------


class TestResetAwareIncrease:
    def test_monotonic(self):
        assert reset_aware_increase([(0, 0), (1, 4), (2, 10)]) == 10.0

    def test_reset_counts_post_reset_value(self):
        # 0 -> 100 -> reset -> 5: increase is 100 + 5, never negative.
        assert reset_aware_increase([(0, 0), (1, 100), (2, 0), (3, 5)]) == 105.0

    def test_empty_and_single(self):
        assert reset_aware_increase([]) == 0.0
        assert reset_aware_increase([(3, 42)]) == 0.0

    def test_window_increase_uses_baseline(self):
        points = [(0, 0), (1, 10), (2, 25), (3, 30)]
        # Window [2, 3] counts the 1->2 increment via the baseline at t=1.
        assert window_increase(points, 2, 3) == 20.0
        assert window_increase(points) == 30.0


class TestCumSeries:
    def _buf(self, points, capacity=64):
        buf = RingBuffer(capacity)
        for t, v in points:
            buf.append(t, v)
        return buf

    def test_matches_tail_window_scan(self):
        points = [(0, 0), (1, 10), (2, 3), (3, 8), (4, 8), (5, 20)]
        buf = self._buf(points)
        cum = _CumSeries()
        cum.ingest(buf)
        for start, end in [(0, 5), (1.5, 4), (2, 5), (4.5, 5), (6, 7)]:
            expected = reset_aware_increase(buf.tail_window(start, end))
            assert cum.increase(start, end) == expected

    def test_incremental_ingest_equals_bulk(self):
        points = [(t, t * 2.0) for t in range(10)]
        buf = self._buf(points)
        bulk = _CumSeries()
        bulk.ingest(buf)
        buf2 = RingBuffer(64)
        inc = _CumSeries()
        for t, v in points:
            buf2.append(t, v)
            inc.ingest(buf2)
        assert inc.cums == bulk.cums and inc.times == bulk.times

    def test_whole_run_cum_spans_resets(self):
        buf = self._buf([(0, 0), (1, 100), (2, 0), (3, 5)])
        cum = _CumSeries()
        cum.ingest(buf)
        assert cum.cum == 105.0


# ---------------------------------------------------------------------------
# Spec compilation
# ---------------------------------------------------------------------------


def _registry_with_health_metrics():
    registry = MetricsRegistry()
    registry.counter(
        "duet_health_vip_probe_outcomes_total", "", ("result",),
    )
    registry.histogram(
        "duet_health_vip_rtt_seconds", "",
        buckets=(0.0002, 0.0003, 0.0005, 0.00075, 0.001, 0.0025),
    )
    registry.histogram(
        "duet_ctrl_channel_convergence_seconds", "",
        buckets=(0.05, 0.1, 0.25, 0.5, 1.0),
    )
    registry.histogram(
        "duet_health_detection_latency_seconds", "",
        buckets=(0.01, 0.025, 0.05, 0.1, 0.25),
    )
    return registry


class TestCompileSlo:
    def test_default_set_compiles(self):
        slos = build_default_slos(_registry_with_health_metrics())
        assert [s.name for s in slos] == [
            "vip-availability", "delivery-latency-p99",
            "post-heal-convergence", "detection-latency",
        ]

    def test_unknown_metric_fails_at_compile_time(self):
        spec = SloSpec(
            name="bogus", description="", objective=0.9,
            good=(SeriesSelector("nope_total"),),
            total=(SeriesSelector("nope_total"),),
        )
        with pytest.raises(SloError, match="not registered"):
            compile_slo(spec, MetricsRegistry())

    def test_non_counter_selector_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("temp", "")
        spec = SloSpec(
            name="bad-kind", description="", objective=0.9,
            good=(SeriesSelector("temp"),), total=(SeriesSelector("temp"),),
        )
        with pytest.raises(SloError, match="gauge"):
            compile_slo(spec, registry)

    def test_objective_bounds(self):
        spec = SloSpec(
            name="x", description="", objective=1.0,
            good=(SeriesSelector("a_total"),),
            total=(SeriesSelector("a_total"),),
        )
        with pytest.raises(SloError, match="objective"):
            compile_slo(spec, MetricsRegistry())

    def test_latency_threshold_snaps_to_bucket(self):
        registry = _registry_with_health_metrics()
        slo = [
            s for s in build_default_slos(registry)
            if s.name == "delivery-latency-p99"
        ][0]
        assert slo.effective_threshold_s == 0.00075
        assert slo.good[0].name == "duet_health_vip_rtt_seconds_bucket"
        assert slo.good[0].labels == (("le", "0.00075"),)
        assert slo.total[0].name == "duet_health_vip_rtt_seconds_count"

    def test_latency_threshold_below_all_buckets(self):
        registry = _registry_with_health_metrics()
        spec = SloSpec(
            name="too-tight", description="", objective=0.9,
            histogram="duet_health_vip_rtt_seconds", threshold_s=1e-6,
        )
        with pytest.raises(SloError, match="no bucket"):
            compile_slo(spec, registry)

    def test_detection_threshold_floors_at_bucket_edge(self):
        specs = {s.name: s for s in default_slo_specs(detection_budget_s=0.09)}
        assert specs["detection-latency"].threshold_s == 0.1


class TestBurnRate:
    def _fixture(self):
        registry = _registry_with_health_metrics()
        outcomes = registry.get("duet_health_vip_probe_outcomes_total")
        recorder = Recorder(registry, capacity=64)
        slo = build_default_slos(registry)[0]  # vip-availability
        return registry, outcomes, recorder, slo

    def test_background_loss_burns_at_one(self):
        # 2% loss against a 98% objective is exactly burn 1.0.
        _, outcomes, recorder, slo = self._fixture()
        for t in range(10):
            outcomes.labels("ok").inc(98)
            outcomes.labels("mux-drop").inc(2)
            recorder.tick(
                now=float(t), only=["duet_health_vip_probe_outcomes_total"],
            )
        burn = slo.burn_rate(recorder_lookup(recorder), 5.0, 9.0)
        assert burn == pytest.approx(1.0)

    def test_post_mux_drop_counts_good(self):
        _, outcomes, recorder, slo = self._fixture()
        outcomes.labels("ok").inc(0)
        outcomes.labels("post-mux-drop").inc(0)
        recorder.tick(now=0.0)
        outcomes.labels("ok").inc(50)
        outcomes.labels("post-mux-drop").inc(50)
        recorder.tick(now=1.0)
        good, total = slo.good_total(recorder_lookup(recorder))
        assert good == total == 100.0

    def test_no_data_is_none_not_zero(self):
        _, _, recorder, slo = self._fixture()
        recorder.tick(now=0.0)
        assert slo.burn_rate(recorder_lookup(recorder), 1.0, 0.0) is None


class TestBudgetFromCounts:
    def test_untouched(self):
        assert budget_from_counts(100, 100, 0.98)["budget_remaining"] == 1.0

    def test_exactly_spent(self):
        remaining = budget_from_counts(98, 100, 0.98)["budget_remaining"]
        assert remaining == pytest.approx(0.0, abs=1e-9)

    def test_overspent_goes_negative(self):
        assert budget_from_counts(90, 100, 0.98)["budget_remaining"] < 0

    def test_no_data(self):
        out = budget_from_counts(0, 0, 0.98)
        assert out["budget_remaining"] == 1.0 and out["total"] == 0


# ---------------------------------------------------------------------------
# Alert evaluator FSM
# ---------------------------------------------------------------------------


class _AlertRig:
    """A registry + recorder + evaluator driven by synthetic outcomes."""

    def __init__(self, for_rounds=2, clear_rounds=4):
        self.registry = _registry_with_health_metrics()
        self.outcomes = self.registry.get(
            "duet_health_vip_probe_outcomes_total"
        )
        self.recorder = Recorder(self.registry, capacity=256)
        slos = build_default_slos(self.registry)
        policy = AlertPolicy(
            slo="vip-availability",
            windows=(BurnWindow(0.018, 0.006, 4.0, "page"),),
            for_rounds=for_rounds,
            clear_rounds=clear_rounds,
        )
        self.evaluator = AlertEvaluator(
            slos, self.recorder, [policy], registry=self.registry,
        )
        self.names = self.evaluator.instrument_names()
        self.t = 0.0
        # Create both outcome children before the first tick, as the
        # health monitor does: a series' first recorded point is a
        # baseline and contributes no increase.
        self.outcomes.labels("ok").inc(0)
        self.outcomes.labels("mux-drop").inc(0)
        self.recorder.tick(now=self.t, only=self.names)

    def round(self, ok, drop):
        self.t += 0.003
        self.outcomes.labels("ok").inc(ok)
        if drop:
            self.outcomes.labels("mux-drop").inc(drop)
        self.recorder.tick(now=self.t, only=self.names)
        return self.evaluator.evaluate(self.t)

    @property
    def track(self):
        return self.evaluator._tracks[0]


class TestAlertFsm:
    def test_clean_traffic_never_pages(self):
        rig = _AlertRig()
        for _ in range(30):
            assert rig.round(100, 0) == []
        assert rig.track.state == STATE_INACTIVE
        assert rig.evaluator.incidents == []

    def test_for_rounds_hysteresis_then_fire(self):
        rig = _AlertRig(for_rounds=2)
        for _ in range(10):
            rig.round(100, 0)
        # Total loss: burn pins at 1/(1-0.98) = 50 >> threshold 4.
        assert rig.round(0, 100) == []
        assert rig.track.state == STATE_PENDING
        fired = rig.round(0, 100)
        assert len(fired) == 1
        assert rig.track.state == STATE_FIRING
        incident = fired[0]
        assert incident.slo == "vip-availability"
        assert incident.severity == "page"
        assert incident.fire_t == pytest.approx(rig.t)
        assert incident.pending_t < incident.fire_t
        assert incident.open

    def test_short_breach_resets_pending_without_firing(self):
        # One bad round breaches for ~2 evaluations (it stays inside the
        # short window for one more round); for_rounds=4 means the
        # pending streak resets before ever firing.
        rig = _AlertRig(for_rounds=4)
        for _ in range(10):
            rig.round(100, 0)
        rig.round(0, 100)
        assert rig.track.state == STATE_PENDING
        # Clean rounds flush the short window below threshold.
        for _ in range(6):
            rig.round(100, 0)
        assert rig.track.state == STATE_INACTIVE
        assert rig.evaluator.incidents == []

    def test_clear_rounds_hysteresis_resolves(self):
        rig = _AlertRig(for_rounds=1, clear_rounds=4)
        for _ in range(10):
            rig.round(100, 0)
        fired = rig.round(0, 100)
        assert len(fired) == 1
        incident = fired[0]
        # Recovery: the burn decays, then 4 consecutive clean rounds.
        rounds_to_resolve = 0
        while incident.resolve_t is None and rounds_to_resolve < 40:
            rig.round(100, 0)
            rounds_to_resolve += 1
        assert incident.resolve_t is not None
        assert not incident.open
        assert rig.track.state == STATE_INACTIVE
        # One episode only, peaks recorded.
        assert len(rig.evaluator.incidents) == 1
        assert incident.peak_long_burn > 4.0

    def test_deterministic_across_evaluators(self):
        def run():
            rig = _AlertRig()
            out = []
            for i in range(40):
                drop = 100 if 15 <= i < 25 else 0
                rig.round(100 - drop, drop)
            return [i.to_dict() for i in rig.evaluator.incidents]

        assert run() == run()

    def test_duet_slo_metrics_exported(self):
        rig = _AlertRig(for_rounds=1)
        for _ in range(10):
            rig.round(100, 0)
        rig.round(0, 100)
        reg = rig.registry
        fired = reg.get("duet_slo_alerts_fired_total")
        assert fired.value("vip-availability", "page") == 1.0
        active = reg.get("duet_slo_alerts_active")
        assert active.value("vip-availability", "page") == 1.0
        burn = reg.get("duet_slo_burn_rate")
        assert burn.value("vip-availability", "page-long") > 4.0
        evals = reg.get("duet_slo_evaluations_total")
        assert evals.total() == rig.evaluator.evaluations

    def test_budgets_span_whole_run(self):
        rig = _AlertRig()
        for _ in range(5):
            rig.round(98, 2)
        budgets = rig.evaluator.budgets()
        avail = budgets["vip-availability"]
        assert avail["total"] == pytest.approx(500.0)
        assert avail["bad"] == pytest.approx(10.0)
        assert avail["budget_remaining"] == pytest.approx(0.0)


class TestPolicyValidation:
    def _slos(self):
        return build_default_slos(_registry_with_health_metrics())

    def test_unknown_slo_rejected(self):
        registry = _registry_with_health_metrics()
        recorder = Recorder(registry)
        policy = AlertPolicy(
            slo="nope", windows=(BurnWindow(1.0, 0.5, 4.0, "page"),),
        )
        with pytest.raises(SloError, match="unknown SLO"):
            AlertEvaluator(self._slos(), recorder, [policy], registry=registry)

    def test_short_window_must_not_exceed_long(self):
        registry = MetricsRegistry()
        recorder = Recorder(registry)
        policy = AlertPolicy(
            slo="vip-availability",
            windows=(BurnWindow(0.5, 1.0, 4.0, "page"),),
        )
        with pytest.raises(SloError, match="exceeds"):
            AlertEvaluator(self._slos(), recorder, [policy], registry=registry)

    def test_for_rounds_floor(self):
        registry = MetricsRegistry()
        recorder = Recorder(registry)
        policy = AlertPolicy(
            slo="vip-availability",
            windows=(BurnWindow(1.0, 0.5, 4.0, "page"),),
            for_rounds=0,
        )
        with pytest.raises(SloError, match="for_rounds"):
            AlertEvaluator(self._slos(), recorder, [policy], registry=registry)

    def test_default_policies_cover_default_slos(self):
        names = {p.slo for p in build_default_policies()}
        assert names == {s.name for s in self._slos()}

    def test_overrides_applied(self):
        policies = build_default_policies(
            overrides={"fast_burn_threshold": 8.0, "for_rounds": 3},
        )
        avail = [p for p in policies if p.slo == "vip-availability"][0]
        assert avail.windows[0].burn_threshold == 8.0
        assert avail.for_rounds == 3


# ---------------------------------------------------------------------------
# Scorecard + incident artifacts
# ---------------------------------------------------------------------------


def _incident(pending_t, fire_t, resolve_t=None, long_s=0.018):
    from repro.obs.alerts import AlertIncident
    return AlertIncident(
        slo="vip-availability", severity="page",
        window=BurnWindow(long_s, 0.006, 4.0, "page"),
        pending_t=pending_t, fire_t=fire_t, resolve_t=resolve_t,
    )


def _fault(kind, injected_t, cleared_t=None):
    from repro.health.faults import FaultRecord
    return FaultRecord(kind=kind, target="switch:0", injected_t=injected_t,
                       cleared_t=cleared_t)


class TestAlertScorecard:
    def test_overlap_is_true_positive(self):
        plane = FakeFaultPlane([_fault("switch-silent", 1.0, 1.5)])
        ev = FakeEvaluator([_incident(1.01, 1.02, 1.4)])
        stats = AlertScorecard(plane, ev).stats(now=2.0)
        assert stats["true_positives"] == 1
        assert stats["false_positives"] == 0
        assert stats["precision"] == 1.0
        assert stats["recall"] == 1.0
        assert stats["matched_by_kind"] == {"switch-silent": 1}
        assert stats["median_time_to_fire_s"] == pytest.approx(0.02)

    def test_disjoint_incident_is_false_positive(self):
        plane = FakeFaultPlane([_fault("switch-silent", 1.0, 1.1)])
        ev = FakeEvaluator([_incident(5.0, 5.01, 5.2)])
        stats = AlertScorecard(plane, ev).stats(now=6.0)
        assert stats["false_positives"] == 1
        assert stats["precision"] == 0.0
        assert stats["recall"] == 0.0

    def test_short_fault_not_an_eligible_miss(self):
        # Cleared within a burn window: cannot move any alert.
        plane = FakeFaultPlane([_fault("switch-silent", 1.0, 1.005)])
        ev = FakeEvaluator([])
        stats = AlertScorecard(plane, ev).stats(now=2.0)
        assert stats["eligible_faults"] == 0
        assert stats["recall"] == 1.0

    def test_gray_fault_is_bonus_not_required(self):
        plane = FakeFaultPlane([_fault("gray", 1.0, 2.0)])
        ev = FakeEvaluator([])
        stats = AlertScorecard(plane, ev).stats(now=3.0)
        assert stats["eligible_faults"] == 0
        assert stats["recall"] == 1.0

    def test_requires_fault_plane(self):
        with pytest.raises(SloError):
            AlertScorecard(None, FakeEvaluator([]))


class TestIncidentArtifact:
    def test_roundtrip_dict_json_file(self, tmp_path):
        incident = Incident(
            incident_id="vip-availability:page:000",
            alert={"slo": "vip-availability"},
            window={"start_t": 0.0, "end_t": 1.0},
            timeline=[{"t": 0.5, "source": "alert", "kind": "alert-fired"}],
            suspected_cause={"kind": "switch-silent"},
        )
        clone = Incident.from_dict(json.loads(incident.to_json()))
        assert clone.to_json() == incident.to_json()
        path = tmp_path / "incident.json"
        incident.save(str(path))
        assert Incident.load(str(path)).to_json() == incident.to_json()

    def test_replay_requires_replay_block(self):
        from repro.obs import replay_incident
        bare = Incident(incident_id="x:page:000", alert={}, window={})
        with pytest.raises(SloError, match="replay"):
            replay_incident(bare)
