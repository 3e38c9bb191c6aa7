"""One workload, one process: set up, measure, check, print.

``--trace 0`` measures the end-to-end metrics with no span recorded.
``--trace 1`` runs the same seed twice at a reduced size, once untraced
and once with spans on, and reports the per-layer metrics; the ratio of
the two regions' times is the tracing overhead.  End-to-end metrics never come
from a traced run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import epoch_steady, failover_storm, fwd_churn, fwd_steady, soak_stacked
from .layers import probe_metrics, span_metrics, top_layers
from .spans import SpanRecorder, clock
from .world import SCALES, CheckFailed, Result, Scale, block_medians

PACKAGE_DIR = Path(__file__).resolve().parent
SPEC_PATH = PACKAGE_DIR.parents[1] / "BENCHMARK.json"
OUT_DIR = PACKAGE_DIR / "out"

WORKLOADS = {
    workload.NAME: workload
    for workload in (
        epoch_steady, failover_storm, fwd_steady, fwd_churn, soak_stacked,
    )
}
#: Set-up is repeated and the median reported, so ``setup_s`` is steady.
SETUP_REPS = 3
#: Blocks behind every end-to-end statistic (see ``block_medians``).
BLOCKS = 20
#: Share of ``--seconds`` each of the traced run's two passes measures.
TRACED_SHARE = 0.5


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _set_up(workload, seed: int, scale: Scale, seconds: float,
            reps: int) -> Tuple[Any, float]:
    times: List[float] = []
    state = None
    for _ in range(reps):
        state = None
        gc.collect()
        started = clock()
        state = workload.setup(seed, scale, seconds)
        times.append(clock() - started)
    gc.collect()
    return state, statistics.median(times)


def _run_checked(workload, state, trace: Optional[SpanRecorder]) -> Result:
    result = workload.run(state, trace)
    gc.collect()
    workload.check(state, result)
    ledger = result.ledger
    if ledger.failed:
        raise CheckFailed(
            f"{ledger.failed} of {ledger.attempted} operations failed"
            + (f", first: {ledger.errors[0]}" if ledger.errors else "")
        )
    return result


def measure(workload, seed: int, scale: Scale, seconds: float,
            import_s: float) -> Tuple[Result, Dict[str, float]]:
    state, setup_s = _set_up(workload, seed, scale, seconds, SETUP_REPS)
    result = _run_checked(workload, state, None)
    latencies, work = result.op_latencies, result.op_work
    busy = latencies
    if result.op_overhead is not None:
        busy = [a + b for a, b in zip(latencies, result.op_overhead)]
    n = len(latencies)
    # A block keeps at least ten samples beyond the tail percentile.
    tail_blocks = int(n * (1.0 - result.tail_q / 100.0) // 10)
    return result, {
        "setup_s": import_s + setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput": block_medians(
            n, BLOCKS, lambda b: sum(work[b]) / sum(busy[b]),
        ),
        "op_ms_p50": 1e3 * block_medians(
            n, min(BLOCKS, n // 20), lambda b: statistics.median(latencies[b]),
        ),
        "op_ms_tail": 1e3 * block_medians(
            n, min(BLOCKS, tail_blocks),
            # inverted_cdf is the nearest-rank percentile: a real sample.
            lambda b: float(np.percentile(
                latencies[b], result.tail_q, method="inverted_cdf",
            )),
        ),
    }


def trace(workload, seed: int, scale: Scale, seconds: float,
          ) -> Tuple[Result, Dict[str, float]]:
    seconds *= TRACED_SHARE
    state, _ = _set_up(workload, seed, scale, seconds, 1)
    untraced = _run_checked(workload, state, None)
    extras = getattr(workload, "traced_extras", None)
    metrics: Dict[str, float] = extras(state, untraced) if extras else {}

    state, _ = _set_up(workload, seed, scale, seconds, 1)
    recorder = SpanRecorder()
    traced = _run_checked(workload, state, recorder)
    if traced.counts != untraced.counts:
        raise CheckFailed(
            "two runs of one seed disagree on exact counts: "
            f"{untraced.counts} vs {traced.counts}"
        )
    summary = recorder.summary()
    attributed = sum(summary.layer_self_s.values())
    if abs(attributed - traced.region_s) > 0.05 * traced.region_s:
        raise CheckFailed(
            f"self times sum to {attributed:.3f}s, the traced region took "
            f"{traced.region_s:.3f}s"
        )
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write_jsonl(OUT_DIR / f"trace-{workload.NAME}.jsonl")
    for layer, share in top_layers(summary):
        print(f"# self time {share:6.1%}  {layer}")

    metrics.update(span_metrics(summary))
    metrics.update(probe_metrics(summary, traced.probes))
    metrics.update(traced.layer)
    metrics["trace.overhead_ratio"] = traced.region_s / untraced.region_s
    return traced, metrics


def _emit(result: Result, metrics: Dict[str, float],
          declared: List[Dict[str, str]]) -> None:
    """Human-readable lines, then the exact counts, then the one JSON
    object the driver reads.  Exactly the declared metrics are printed:
    a layer the workload never entered reads 0."""
    unknown = sorted(set(metrics) - {entry["name"] for entry in declared})
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    out = {
        entry["name"]: {
            "value": float(metrics.get(entry["name"], 0.0)),
            "unit": entry["unit"],
        }
        for entry in declared
    }
    for name, cell in out.items():
        print(f"{name:48s} {cell['value']:.6g} {cell['unit']}")
    print("counts " + json.dumps(result.counts, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": result.ledger.attempted,
        "failed": result.ledger.failed,
        "metrics": out,
    }))


def main(argv: Optional[List[str]], import_s: float) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__.splitlines()[0],
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured region (default: "
                             "run_seconds of BENCHMARK.json; 1 at smoke scale)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    spec = load_spec()
    seconds = args.seconds
    if seconds is None:
        seconds = spec["run_seconds"] if args.scale == "full" else 1.0
    if seconds <= 0:
        parser.error("--seconds must be positive")
    workload, scale = WORKLOADS[args.workload], SCALES[args.scale]
    try:
        if args.trace:
            result, metrics = trace(workload, args.seed, scale, seconds)
            declared = spec["per_layer"]
        else:
            result, metrics = measure(
                workload, args.seed, scale, seconds, import_s,
            )
            declared = spec["end_to_end"]
    except CheckFailed as error:
        print(f"{args.workload}: FAILED: {error}", file=sys.stderr)
        return 1
    _emit(result, metrics, declared)
    return 0
