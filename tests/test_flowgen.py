"""Tests for repro.workload.flowgen: ping probes."""

import pytest

from repro.dataplane.packet import PROTO_ICMP
from repro.workload.flowgen import PingProbe
from repro.net.addressing import parse_ip

VIPS = [parse_ip("10.0.0.1"), parse_ip("10.0.0.2")]


class TestPingProbe:
    def test_cadence(self):
        probe = PingProbe(VIPS[0], interval_s=0.003)
        probes = list(probe.generate(0.0, 0.03))
        assert len(probes) == 10
        assert probes[1].time_s - probes[0].time_s == pytest.approx(0.003)

    def test_each_probe_new_flow(self):
        probe = PingProbe(VIPS[0])
        flows = {p.packet.flow for p in probe.generate(0.0, 0.05)}
        assert len(flows) == len(list(PingProbe(VIPS[0]).generate(0.0, 0.05)))

    def test_icmp_like(self):
        probe = PingProbe(VIPS[0])
        packet = next(iter(probe.generate(0.0, 0.01))).packet
        assert packet.flow.protocol == PROTO_ICMP
        assert packet.flow.dst_ip == VIPS[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            PingProbe(VIPS[0], interval_s=0.0)


class TestProbeFieldsMatchesGenerate:
    """probe_fields() is the vectorized twin of generate(): same count,
    same times, same source ports, for any window — including
    float-rounding-hostile (start, end, interval) combinations where
    the naive ceil() formula is off by one."""

    @staticmethod
    def _check(probe, start_s, end_s):
        times, ports = probe.probe_fields(start_s, end_s)
        packets = list(probe.generate(start_s, end_s))
        assert len(times) == len(ports) == len(packets)
        assert [float(t) for t in times] == [p.time_s for p in packets]
        assert [int(p) for p in ports] == \
            [p.packet.flow.src_port for p in packets]

    def test_hostile_literals(self):
        # 0.003 and 0.1 are not exactly representable; these windows sit
        # on accumulated-rounding boundaries where ceil() misfires.
        probe = PingProbe(VIPS[0], interval_s=0.003)
        for start, end in [
            (0.0, 0.03), (0.0, 0.003), (0.0, 0.0030000000000000005),
            (0.3, 0.3 + 29 * 0.003), (1.0, 1.0 + 1e-9),
            (0.1, 0.1), (0.7, 0.1),
        ]:
            self._check(probe, start, end)

    def test_property_randomized(self):
        from hypothesis import given, settings, strategies as st

        intervals = st.one_of(
            st.sampled_from([0.003, 0.1, 1 / 3, 0.0001, 7e-5]),
            st.floats(min_value=1e-4, max_value=0.5,
                      allow_nan=False, allow_infinity=False),
        )
        starts = st.one_of(
            st.sampled_from([0.0, 0.1, 0.3, 1e6, 123.456]),
            st.floats(min_value=0.0, max_value=1e3,
                      allow_nan=False, allow_infinity=False),
        )
        spans = st.one_of(
            # Multiples of the interval (the hostile case) arrive via
            # the shared strategy below; plain spans here.
            st.floats(min_value=0.0, max_value=2.0,
                      allow_nan=False, allow_infinity=False),
            st.integers(min_value=0, max_value=500),
        )

        @given(interval=intervals, start=starts, span=spans,
               seed=st.integers(min_value=0, max_value=10))
        @settings(max_examples=200, deadline=None)
        def run(interval, start, span, seed):
            probe = PingProbe(VIPS[0], interval_s=interval, seed=seed)
            # Integer spans mean "span probes": end lands exactly on a
            # probe tick, the worst case for the ceil() formula.
            end = (
                start + span * interval if isinstance(span, int)
                else start + span
            )
            if not (end - start) / interval < 5000:
                return  # keep generate() affordable
            self._check(probe, start, end)

        run()
