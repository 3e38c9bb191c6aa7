"""duet-e2e for people: every workload in its own fresh process.

    python -m benchmarks.e2e run   [--seed N] [--workload NAME] [--trace]
    python -m benchmarks.e2e check [--seed N]

``run`` prints every metric by name and unit and exits non-zero if a
workload's output check fails.  ``check`` runs every workload twice,
untraced, on the same code and seed, and asserts that every end-to-end
metric repeats within its bound and every exact count repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

RUN_PY = Path(__file__).resolve().parent / "run.py"
SPEC_PATH = RUN_PY.parents[2] / "BENCHMARK.json"

Outcome = Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]


def invoke(workload: str, seed: int, trace: bool, scale: str,
           seconds: Optional[float]) -> Optional[Outcome]:
    """One workload in a fresh process: (metrics, exact counts), or None
    when it failed (its stderr is passed through)."""
    command = [
        sys.executable, str(RUN_PY), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(trace)), "--scale", scale,
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        return None
    lines = done.stdout.strip().splitlines()
    counts = json.loads(lines[-2].removeprefix("counts "))
    return json.loads(lines[-1])["metrics"], counts


def _print_metrics(workload: str, kind: str, outcome: Outcome) -> None:
    metrics, counts = outcome
    print(f"== {workload} ({kind})")
    for name, cell in metrics.items():
        print(f"  {name:46s} {cell['value']:14.6g} {cell['unit']}")
    print(f"  counts {json.dumps(counts, sort_keys=True)}")


def cmd_run(args, workloads: List[str]) -> int:
    failed = []
    for workload in workloads:
        for trace in (False, True) if args.trace else (False,):
            outcome = invoke(workload, args.seed, trace, args.scale, args.seconds)
            if outcome is None:
                failed.append(workload)
                break
            _print_metrics(workload, "traced" if trace else "end to end", outcome)
    if failed:
        print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


def cmd_check(args, workloads: List[str], spec: Dict[str, Any]) -> int:
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    ok = True
    print(f"{'workload':15s} {'metric':12s} {'first':>13s} {'second':>13s} "
          f"{'gap':>7s} {'bound':>6s}")
    for workload in workloads:
        # The two runs of a workload are back to back: this box changes
        # speed by a quarter for minutes at a time, and runs minutes apart
        # would measure the box.
        pair = [
            invoke(workload, args.seed, False, args.scale, args.seconds)
            for _ in range(2)
        ]
        if None in pair:
            print(f"FAILED: {workload}", file=sys.stderr)
            return 1
        (first, first_counts), (second, second_counts) = pair
        for name, bound in bounds.items():
            a, b = first[name]["value"], second[name]["value"]
            gap = abs(a - b) / min(a, b)
            verdict = "" if gap <= bound else "  OUT OF BOUND"
            ok &= gap <= bound
            print(f"{workload:15s} {name:12s} {a:13.6g} {b:13.6g} "
                  f"{gap:7.2%} {bound:6.0%}{verdict}")
        if first_counts != second_counts:
            ok = False
            print(f"{workload}: exact counts differ:\n  {first_counts}\n  "
                  f"{second_counts}")
    print("repeatable" if ok else "NOT repeatable")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("run", "check"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--trace", action="store_true",
                        help="run: also the traced pass (per-layer metrics)")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else names
    if args.command == "run":
        return cmd_run(args, workloads)
    return cmd_check(args, workloads, spec)


if __name__ == "__main__":
    sys.exit(main())
