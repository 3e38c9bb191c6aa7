"""Smoke tier: every workload at CI size, traced and untraced, emits
exactly the metrics ``BENCHMARK.json`` declares."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from .__main__ import RUN_PY, SPEC_PATH, invoke

SPEC = json.loads(Path(SPEC_PATH).read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(workload: str, seed: int, trace: bool):
    outcome = invoke(workload, seed, trace, "smoke", None)
    assert outcome is not None, f"{workload} failed at smoke scale"
    return outcome


@pytest.mark.parametrize("workload", WORKLOADS)
def test_emitted_names_are_the_declared_ones(workload):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics, _counts = _run(workload, 1, trace)
        declared = {entry["name"]: entry["unit"] for entry in SPEC[key]}
        assert list(metrics) == list(declared)
        for name, cell in metrics.items():
            assert NAME.fullmatch(name)
            assert cell["unit"] == declared[name] and cell["unit"]
            assert isinstance(cell["value"], float)
        if not trace:
            assert all(cell["value"] > 0 for cell in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_but_not_the_metric_set(workload):
    one, counts_one = _run(workload, 1, False)
    two, counts_two = _run(workload, 2, False)
    assert list(one) == list(two)
    assert counts_one.keys() == counts_two.keys()
    if workload != "fwd_steady":    # its counts are sizes, not outcomes
        assert counts_one != counts_two


def test_traced_run_writes_a_span_file():
    _run("failover_storm", 1, True)
    path = Path(RUN_PY).parent / "out" / "trace-failover_storm.jsonl"
    first = json.loads(path.read_text().splitlines()[0])
    assert set(first) == {
        "id", "name", "layer", "start", "end", "parent_id", "unit_id",
    }
    assert first["name"] == "run.failover_storm" and first["parent_id"] == -1


def test_result_is_the_last_line_and_has_exactly_the_contract_keys():
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "fwd_steady",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--scale", "smoke"],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
