"""Golden regression tests for the paper-figure experiments (ISSUE 2).

Fixed-seed runs of Figures 11, 12 and 17 must keep producing these
exact summary numbers.  The scenario drivers have one (vectorized) probe
path and no selector; the goldens were derived when a packet-at-a-time
twin still ran beside it and produced the same numbers.  Each probe
golden therefore runs twice: as shipped (``batch``), and with the
vectorized flow hash swapped, test-side, for the per-packet scalar
``five_tuple_hash`` (``scalar``, :func:`scalar_probe_hashing`) — the
vectorization is only allowed to change how fast the figures compute,
never what they say.  If a legitimate model change moves a number,
re-derive the goldens with the snippet in each test's docstring and
update them in the same commit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataplane.hashing import five_tuple_hash
from repro.dataplane.packet import FiveTuple
from repro.experiments import fig11_hmux_capacity as fig11
from repro.experiments import fig12_failover as fig12
from repro.experiments import fig17_latency_vs_smux as fig17
from repro.sim import scenarios
from repro.sim.scenarios import (
    FailoverConfig,
    HMuxCapacityConfig,
    MigrationConfig,
    SmuxFailureConfig,
)

#: Goldens are asserted to a part-per-million — loose enough to ignore
#: float formatting, tight enough that any behavioural drift trips.
TOL = 1e-6

PROBE_HASHING = ("scalar", "batch")


def _hash_packet_at_a_time(src_ip, dst_ip, src_port, dst_port, protocol, seed):
    return np.array([
        five_tuple_hash(FiveTuple(*(int(field) for field in row)), seed)
        for row in zip(src_ip, dst_ip, src_port, dst_port, protocol)
    ], dtype=np.uint64)


def scalar_probe_hashing(patch: pytest.MonkeyPatch, hashing: str) -> None:
    """With ``hashing == "scalar"``, make the scenario probe driver hash
    every probe through the scalar reference instead of the batch hash."""
    if hashing == "scalar":
        patch.setattr(
            scenarios, "five_tuple_hash_batch", _hash_packet_at_a_time,
        )


@pytest.mark.parametrize("hashing", PROBE_HASHING)
def test_fig11_golden(hashing: str, monkeypatch) -> None:
    """``fig11.run(HMuxCapacityConfig(phase_seconds=2.0))`` per-phase
    (median, p90, availability)."""
    scalar_probe_hashing(monkeypatch, hashing)
    result = fig11.run(HMuxCapacityConfig(phase_seconds=2.0))
    golden = {
        "smux@600kpps": (3.8577124012901376e-4, 1.533403739565226e-3, 1.0),
        "smux@1200kpps": (2.8594334270447008e-2, 3.3744983834986725e-2,
                          0.7811094452773614),
        "hmux@1200kpps": (1.2117676535731861e-4, 1.8917961032369047e-4, 1.0),
    }
    windows = result.phase_windows()
    assert [name for name, _, _ in windows] == list(golden)
    for name, lo, hi in windows:
        window = result.series.window(lo, hi)
        want_median, want_p90, want_avail = golden[name]
        assert window.median_latency_s() == pytest.approx(
            want_median, rel=TOL), name
        assert window.percentile_latency_s(90) == pytest.approx(
            want_p90, rel=TOL), name
        assert window.availability() == pytest.approx(
            want_avail, rel=TOL), name
    # The paper's qualitative claim, pinned: 3 SMuxes at 1.2M pps are
    # overloaded (lossy, tens of ms); one HMux at the same load is not.
    assert result.series.window(2.0, 4.0).availability() < 0.9
    assert result.series.window(4.0, 6.0).availability() == 1.0


@pytest.mark.parametrize("hashing", PROBE_HASHING)
def test_fig12_golden(hashing: str, monkeypatch) -> None:
    """``fig12.run(FailoverConfig())`` failover window, observed outage
    and per-VIP availability."""
    scalar_probe_hashing(monkeypatch, hashing)
    result = fig12.run(FailoverConfig())
    assert result.failover_window_s == pytest.approx(0.038, rel=TOL)
    assert result.observed_outage_s() == pytest.approx(0.036, rel=TOL)
    golden_availability = {
        "vip1-smux": 1.0,
        "vip2-healthy-hmux": 1.0,
        "vip3-failed-hmux": 0.8378378378378378,
    }
    assert sorted(result.scenario.series) == sorted(golden_availability)
    for label, want in golden_availability.items():
        assert result.scenario[label].availability() == pytest.approx(
            want, rel=TOL), label


def test_fig17_golden() -> None:
    """``fig17.run()`` (small scale, analytic — no probe engine): Duet's
    point and the Ananta sweep curve."""
    result = fig17.run()
    assert result.duet_n_smuxes == 17
    assert result.duet_hmux_fraction == pytest.approx(1.0, rel=TOL)
    assert result.duet_median_s == pytest.approx(
        3.778534300435328e-4, rel=TOL)
    golden_curve = [
        (9, 2.891055863563404e-2),
        (17, 2.891055863563404e-2),
        (18, 2.891055863563404e-2),
        (36, 2.891055863563404e-2),
        (64, 2.891055863563404e-2),
        (86, 8.360506151391151e-4),
        (144, 6.918744427820234e-4),
        (288, 6.733019850057098e-4),
    ]
    assert len(result.ananta_curve) == len(golden_curve)
    for (count, latency), (want_count, want_latency) in zip(
        result.ananta_curve, golden_curve,
    ):
        assert count == want_count
        assert latency == pytest.approx(want_latency, rel=TOL)
    # Parity needs a much larger Ananta fleet than Duet's 17 SMuxes —
    # the figure's headline.
    parity = result.ananta_parity_smuxes(tolerance=2.5)
    assert parity is not None and parity > result.duet_n_smuxes


@pytest.mark.parametrize(
    "config_cls",
    [HMuxCapacityConfig, FailoverConfig, MigrationConfig, SmuxFailureConfig],
)
def test_engine_field_rejects_unknown(config_cls) -> None:
    """The scenario configs carry no probe-engine selector any more:
    every ``engine`` value is unknown to them."""
    import dataclasses

    with pytest.raises(TypeError):
        config_cls(engine="batch")
    assert "engine" not in {f.name for f in dataclasses.fields(config_cls)}
