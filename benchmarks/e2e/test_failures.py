"""Failure accounting and the poisoned-controller abort."""

from __future__ import annotations

import pytest

from repro.durability import JournalError

from . import failover_storm, harness
from .world import Ledger, Poisoned

SMOKE = ["--workload", "failover_storm", "--scale", "smoke", "--seconds", "1"]


def _raise(error):
    raise error


def test_ledger_counts_a_raising_op_and_keeps_going():
    ledger = Ledger(planned=1000)
    assert ledger.call(lambda: 5) == 5
    assert ledger.call(_raise, ValueError("bad op")) is None
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert len(ledger.latencies) == 2
    assert ledger.errors == ["ValueError: bad op"]


def test_ledger_aborts_on_journal_error_and_above_one_percent():
    with pytest.raises(Poisoned, match="journal"):
        Ledger(planned=1000).call(_raise, JournalError("depth guard stuck"))
    ledger = Ledger(planned=100)
    ledger.call(_raise, ValueError("first"))          # 1% exactly: tolerated
    with pytest.raises(Poisoned, match="2 of 100"):
        ledger.call(_raise, ValueError("second"))
    with pytest.raises(Poisoned):
        Ledger(planned=100).add(attempted=100, failed=2)


def test_a_raising_op_is_counted_and_sets_the_exit_code(monkeypatch, capsys):
    real, calls = failover_storm.apply_event, []

    def flaky(controller, event):
        calls.append(event)
        if len(calls) == 7:
            raise RuntimeError("injected")
        real(controller, event)

    monkeypatch.setattr(failover_storm, "apply_event", flaky)
    assert harness.main(SMOKE, import_s=0.0) == 1
    captured = capsys.readouterr()
    assert "1 of 200 operations failed" in captured.err
    assert "RuntimeError: injected" in captured.err
    assert '"metrics"' not in captured.out        # no timings from a failed run


def test_a_poisoned_journal_stops_the_workload(monkeypatch, capsys):
    calls = []

    def poisoned(controller, event):
        calls.append(event)
        raise JournalError("depth guard stuck")

    monkeypatch.setattr(failover_storm, "apply_event", poisoned)
    assert harness.main(SMOKE, import_s=0.0) == 1
    assert len(calls) == 1                        # stopped at the first one
    assert "journal poisoned" in capsys.readouterr().err
