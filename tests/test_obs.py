"""Unit tests for the telemetry layer: instruments, registry,
recorder, exporters, and the exposition-format validator."""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    Recorder,
    RingBuffer,
    format_series,
    render_prometheus,
    render_registry_jsonl,
    validate_prometheus_text,
)


class TestCounter:
    def test_inc_and_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests")
        counter.inc()
        counter.inc(4)
        assert counter.total() == 5

    def test_negative_inc_rejected(self):
        counter = MetricsRegistry().counter("x_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_labelled_children(self):
        counter = MetricsRegistry().counter("hits_total", "", ("vip",))
        counter.labels("10.0.0.1").inc(3)
        counter.labels("10.0.0.2").inc(1)
        assert counter.value("10.0.0.1") == 3
        assert counter.total() == 4
        assert {values for values, _ in counter.items()} == {
            ("10.0.0.1",), ("10.0.0.2",),
        }

    def test_label_values_stringified(self):
        counter = MetricsRegistry().counter("x_total", "", ("switch",))
        counter.labels(7).inc()
        assert counter.value("7") == 1

    def test_label_arity_enforced(self):
        counter = MetricsRegistry().counter("x_total", "", ("a", "b"))
        with pytest.raises(MetricError):
            counter.labels("only-one")

    def test_set_total_may_decrease(self):
        # Collector adapters mirror wiped components.
        counter = MetricsRegistry().counter("x_total")
        counter.set_total(10)
        counter.set_total(3)
        assert counter.total() == 3

    def test_prune(self):
        counter = MetricsRegistry().counter("x_total", "", ("smux",))
        counter.labels("0").inc()
        counter.labels("1").inc()
        assert counter.prune(lambda key: key[0] == "0") == 1
        assert [values for values, _ in counter.items()] == [("0",)]


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5)
        gauge.labels().inc(2)
        gauge.labels().inc(-4)
        assert gauge.value() == 3


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total")
        with pytest.raises(MetricError):
            registry.gauge("a_total")

    def test_label_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "", ("vip",))
        with pytest.raises(MetricError):
            registry.counter("a_total", "", ("switch",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("1bad")
        with pytest.raises(MetricError):
            registry.counter("ok_total", "", ("bad-label",))

    def test_collector_runs_on_scrape(self):
        registry = MetricsRegistry()
        state = {"n": 0}

        def collect(reg):
            reg.counter("mirrored_total").set_total(state["n"])

        registry.register_collector("c", collect)
        state["n"] = 7
        registry.collect()
        samples = {format_series(s.name, s.labels): s.value
                   for s in registry.samples()}
        assert samples["mirrored_total"] == 7

    def test_collector_overwrite_replaces(self):
        # Re-registration under the same name is the crash-restart path.
        registry = MetricsRegistry()
        registry.register_collector(
            "c", lambda reg: reg.counter("x_total").set_total(1))
        registry.register_collector(
            "c", lambda reg: reg.counter("x_total").set_total(2))
        registry.collect()
        assert registry.get("x_total").total() == 2

    def test_unregister_collector(self):
        registry = MetricsRegistry()
        registry.register_collector(
            "c", lambda reg: reg.counter("x_total").set_total(1))
        registry.unregister_collector("c")
        registry.collect()
        assert registry.get("x_total") is None


class TestHistogram:
    def test_bucket_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=())
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=(1.0, 1.0))

    def test_cumulative_counts(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.7, 4.0, 99.0):
            hist.observe(v)
        child = hist.labels()
        assert child.cumulative_counts() == [1, 3, 4, 5]
        assert child.count == 5
        assert child.sum == pytest.approx(0.5 + 1.5 + 1.7 + 4.0 + 99.0)

    def test_samples_expand_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        by_name = {}
        for sample in hist.samples():
            by_name.setdefault(sample.name, []).append(sample)
        assert len(by_name["h_bucket"]) == 3  # two finite + +Inf
        assert by_name["h_bucket"][-1].labels[-1] == ("le", "+Inf")
        assert by_name["h_sum"][0].value == pytest.approx(0.5)
        assert by_name["h_count"][0].value == 1

    def test_quantile_edge_cases(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0))
        assert math.isnan(hist.labels().quantile(0.5))
        with pytest.raises(MetricError):
            hist.labels().quantile(1.5)
        hist.observe(100.0)  # +Inf bucket only
        assert hist.labels().quantile(0.99) == 2.0  # last finite bound

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dist", ["uniform", "expo", "bimodal"])
    def test_quantile_error_bounded_by_bucket_width(self, seed, dist):
        """Property: for any distribution, the interpolated quantile is
        within one bucket width of the true sample quantile (as long as
        the true quantile lands in a finite bucket)."""
        rng = random.Random(seed)
        if dist == "uniform":
            values = [rng.uniform(0.0, 8.0) for _ in range(2000)]
        elif dist == "expo":
            values = [min(rng.expovariate(1.0), 9.9) for _ in range(2000)]
        else:
            values = [
                rng.uniform(0.5, 1.5) if rng.random() < 0.5
                else rng.uniform(6.0, 8.0)
                for _ in range(2000)
            ]
        buckets = tuple(float(b) for b in range(1, 11))  # width 1.0
        hist = MetricsRegistry().histogram("h", buckets=buckets)
        for v in values:
            hist.observe(v)
        ordered = sorted(values)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            true = ordered[min(len(ordered) - 1,
                               max(0, int(q * len(ordered)) - 1))]
            estimate = hist.labels().quantile(q)
            assert abs(estimate - true) <= 1.0 + 1e-9, (
                f"{dist} seed={seed} q={q}: {estimate} vs {true}"
            )

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_quantile_zero_with_empty_leading_bucket(self):
        # Regression: q=0 landing on an empty first bucket used to
        # report that bucket's upper bound; the smallest observation
        # can be no larger than its *lower* edge.
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.5)
        assert hist.labels().quantile(0.0) == 0.0

    def test_quantile_extremes(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        assert hist.labels().quantile(0.0) == 0.0
        assert hist.labels().quantile(1.0) == 2.0

    def test_quantile_in_inf_bucket_returns_last_finite_bound(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(50.0)
        assert hist.labels().quantile(0.99) == 2.0


class TestRingBuffer:
    def test_append_and_order(self):
        buf = RingBuffer(3)
        for t in range(5):
            buf.append(t, t * 10)
        assert buf.items() == [(2, 20), (3, 30), (4, 40)]
        assert buf.first == (2, 20)
        assert buf.last == (4, 40)
        assert len(buf) == 3

    def test_empty(self):
        buf = RingBuffer(2)
        assert buf.items() == [] and buf.first is None and buf.last is None

    def test_zero_capacity_rejected(self):
        with pytest.raises(MetricError):
            RingBuffer(0)

    def test_appended_counts_past_truncation(self):
        buf = RingBuffer(3)
        for t in range(5):
            buf.append(t, t)
        assert buf.appended == 5
        assert len(buf) == 3

    def test_tail_across_wraparound(self):
        buf = RingBuffer(3)
        for t in range(5):
            buf.append(t, t * 10)
        assert buf.tail(2) == [(3, 30), (4, 40)]
        assert buf.tail(10) == [(2, 20), (3, 30), (4, 40)]
        assert buf.tail(0) == []

    def test_tail_window_across_wraparound(self):
        buf = RingBuffer(3)
        for t in range(5):
            buf.append(t, t * 10)
        # Includes one point before start_t as the rate baseline.
        assert buf.tail_window(3.5, 4.5) == [(3, 30), (4, 40)]
        assert buf.tail_window(2.5, 3.5) == [(2, 20), (3, 30)]
        assert buf.tail_window() == buf.items()
        # Window entirely after the newest point: nothing but baseline.
        assert buf.tail_window(10.0, 20.0) == [(4, 40)]

    def test_wraparound_first_last_consistent(self):
        buf = RingBuffer(4)
        for t in range(11):
            buf.append(t, t)
        assert buf.first == (7, 7)
        assert buf.last == (10, 10)
        assert buf.items()[0] == buf.first
        assert buf.items()[-1] == buf.last


class TestRecorder:
    def _registry_with_source(self):
        registry = MetricsRegistry()
        state = {"n": 0}
        registry.register_collector(
            "src", lambda reg: reg.counter("pkts_total").set_total(state["n"]))
        return registry, state

    def test_tick_builds_series(self):
        registry, state = self._registry_with_source()
        recorder = Recorder(registry, capacity=8)
        for n in (0, 5, 9):
            state["n"] = n
            recorder.tick()
        assert recorder.series("pkts_total") == [(0, 0), (1, 5), (2, 9)]
        assert recorder.latest("pkts_total") == 9
        assert recorder.ticks == 3

    def test_explicit_timestamps(self):
        registry, state = self._registry_with_source()
        recorder = Recorder(registry, capacity=8)
        recorder.tick(now=100.0)
        assert recorder.series("pkts_total")[0][0] == 100.0

    def test_deltas_and_top_deltas(self):
        registry = MetricsRegistry()
        state = {"a": 0, "b": 0, "c": 0}

        def collect(reg):
            c = reg.counter("m_total", "", ("k",))
            for k, v in state.items():
                c.labels(k).set_total(v)

        registry.register_collector("src", collect)
        recorder = Recorder(registry, capacity=8)
        recorder.tick()
        state.update(a=100, b=-3, c=0)
        recorder.tick()
        deltas = recorder.deltas()
        assert deltas[("m_total", (("k", "a"),))] == 100
        top = recorder.top_deltas(5)
        assert top[0] == ('m_total{k="a"}', 100.0)
        # zero-delta series are excluded entirely
        assert all('k="c"' not in name for name, _ in top)

    def test_deltas_counter_reset_aware(self):
        # Regression: a counter reset mid-window (crash-restart, switch
        # wipe) must count the fresh incarnation, not report a tiny or
        # negative delta.  0 -> 100 -> 0 -> 5 is an increase of 105.
        registry = MetricsRegistry()
        state = {"n": 0}
        registry.register_collector(
            "src", lambda reg: reg.counter("r_total").set_total(state["n"]))
        recorder = Recorder(registry, capacity=8)
        for n in (0, 100, 0, 5):
            state["n"] = n
            recorder.tick()
        assert recorder.deltas()[("r_total", ())] == 105.0
        assert recorder.top_deltas(1) == [("r_total", 105.0)]

    def test_deltas_gauge_is_last_minus_first(self):
        registry = MetricsRegistry()
        state = {"v": 5.0}
        registry.register_collector(
            "src", lambda reg: reg.gauge("depth").set(state["v"]))
        recorder = Recorder(registry, capacity=8)
        recorder.tick()
        state["v"] = 2.0
        recorder.tick()
        assert recorder.deltas()[("depth", ())] == -3.0

    def test_partial_tick_replans_after_prune(self):
        # Regression: a partial-tick plan cached by child count survived
        # a prune followed by a creation (same count), so the tick kept
        # appending to the pruned child and never sampled the new one.
        registry = MetricsRegistry()
        counter = registry.counter("x_total", "", ("k",))
        counter.labels("a").inc(1)
        counter.labels("b").inc(2)
        recorder = Recorder(registry, capacity=8)
        recorder.tick(only=["x_total"])
        counter.prune(lambda key: key[0] != "a")
        counter.labels("c").inc(3)
        recorder.tick(only=["x_total"])
        assert recorder.series("x_total", (("k", "a"),)) == [(0, 1)]
        assert recorder.series("x_total", (("k", "b"),)) == [(0, 2), (1, 2)]
        assert recorder.series("x_total", (("k", "c"),)) == [(1, 3)]

    def test_full_tick_samples_every_child(self):
        """A full tick lands each sample of a scrape on its own series.
        Series new in a tick are created instrument by instrument in
        registry order and, within one instrument, in label order — not
        in the order its children happened to be created."""
        registry = MetricsRegistry()
        state = {"n": 0}

        def collect(reg):
            reg.counter("late_total", "", ("k",)).labels(
                str(state["n"])).set_total(state["n"])

        registry.register_collector("src", collect)
        rtt = registry.histogram("rtt_seconds", "", buckets=(0.1, 1.0))
        depth = registry.gauge("depth", "", ("q",))
        recorder = Recorder(registry, capacity=8)
        for n, queues in enumerate((["b"], ["z", "c"], ["a"])):
            state["n"] = n
            rtt.observe(0.05 * (n + 1))
            for queue in queues:
                depth.labels(queue).set(n)
            touched = recorder.tick()
            expected = registry.samples()
            assert touched == len(expected)
            for sample in expected:
                assert recorder.latest(sample.name, sample.labels) == sample.value
        assert recorder.series_keys() == [
            ("rtt_seconds_bucket", (("le", "0.1"),)),
            ("rtt_seconds_bucket", (("le", "1.0"),)),
            ("rtt_seconds_bucket", (("le", "+Inf"),)),
            ("rtt_seconds_sum", ()),
            ("rtt_seconds_count", ()),
            ("depth", (("q", "b"),)),
            ("late_total", (("k", "0"),)),
            ("depth", (("q", "c"),)),
            ("depth", (("q", "z"),)),
            ("late_total", (("k", "1"),)),
            ("depth", (("q", "a"),)),
            ("late_total", (("k", "2"),)),
        ]

    def test_capacity_bounds_series(self):
        registry, state = self._registry_with_source()
        recorder = Recorder(registry, capacity=4)
        for n in range(10):
            state["n"] = n
            recorder.tick()
        points = recorder.series("pkts_total")
        assert len(points) == 4
        assert points[-1] == (9, 9)


class TestExporters:
    def _populated_registry(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "duet_pkts_total", "Packets", ("switch",))
        counter.labels("0").inc(12)
        counter.labels("1").inc(3)
        registry.gauge("duet_depth", "Queue depth").set(2.5)
        hist = registry.histogram(
            "duet_rtt_seconds", "RTT", buckets=(0.001, 0.01))
        hist.observe(0.0005)
        hist.observe(0.5)
        return registry

    def test_prometheus_text_is_valid(self):
        text = render_prometheus(self._populated_registry())
        assert validate_prometheus_text(text) == []
        assert '# TYPE duet_pkts_total counter' in text
        assert 'duet_pkts_total{switch="0"} 12' in text
        assert 'duet_rtt_seconds_bucket{le="+Inf"} 2' in text
        assert text.endswith("\n")

    def test_registry_jsonl_round_trips(self):
        lines = render_registry_jsonl(self._populated_registry())
        rows = [json.loads(line) for line in lines]
        assert {"name", "kind", "labels", "value"} <= set(rows[0])
        pkts = [r for r in rows if r["name"] == "duet_pkts_total"]
        assert {r["labels"]["switch"] for r in pkts} == {"0", "1"}

    def test_recorder_jsonl(self):
        registry = MetricsRegistry()
        state = {"n": 0}
        registry.register_collector(
            "src", lambda reg: reg.counter("x_total").set_total(state["n"]))
        recorder = Recorder(registry)
        for n in (1, 4):
            state["n"] = n
            recorder.tick()
        assert recorder.series_keys() == [("x_total", ())]
        assert recorder.series("x_total") == [(0, 1), (1, 4)]


class TestValidator:
    def test_rejects_duplicate_series(self):
        text = ("# TYPE x_total counter\n"
                "x_total 1\n"
                "x_total 2\n")
        assert validate_prometheus_text(text)

    def test_rejects_interleaved_families(self):
        text = ("# TYPE a_total counter\n"
                "a_total 1\n"
                "# TYPE b_total counter\n"
                "b_total 1\n"
                'a_total{k="v"} 2\n')
        assert validate_prometheus_text(text)

    def test_rejects_noncumulative_histogram(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1.0"} 5\n'
                'h_bucket{le="2.0"} 3\n'
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 4\n"
                "h_count 5\n")
        assert validate_prometheus_text(text)

    def test_rejects_missing_inf_bucket(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1.0"} 5\n'
                "h_sum 4\n"
                "h_count 5\n")
        assert validate_prometheus_text(text)

    def test_rejects_garbage_line(self):
        assert validate_prometheus_text("this is not exposition format\n")

    def test_accepts_empty_text(self):
        assert validate_prometheus_text("") == []


class TestExportLinterCli:
    GOOD = "# TYPE x_total counter\nx_total 1\n"
    BAD = "# TYPE x_total counter\nx_total 1\nx_total 2\n"

    def _main(self, argv):
        from repro.obs.export import main
        return main(argv)

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.prom"
        path.write_text(self.GOOD)
        assert self._main([str(path)]) == 0
        assert "ok (1 samples)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.prom"
        path.write_text(self.BAD)
        assert self._main([str(path)]) == 1
        assert "bad.prom:" in capsys.readouterr().out

    def test_unreadable_file_exits_two(self, tmp_path):
        assert self._main([str(tmp_path / "missing.prom")]) == 2

    def test_no_args_is_usage_error(self, capsys):
        assert self._main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_worst_status_wins(self, tmp_path):
        good = tmp_path / "ok.prom"
        good.write_text(self.GOOD)
        missing = tmp_path / "missing.prom"
        assert self._main([str(good), str(missing)]) == 2

    def test_stdin_dash(self, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(self.GOOD))
        assert self._main(["-"]) == 0
        assert "<stdin>: ok" in capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(self.BAD))
        assert self._main(["-"]) == 1


class TestFormatSeries:
    def test_bare_and_labelled(self):
        assert format_series("x_total", ()) == "x_total"
        assert (format_series("x_total", (("a", "1"), ("b", "2")))
                == 'x_total{a="1",b="2"}')
