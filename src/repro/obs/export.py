"""Exporters for registry/recorder state, plus a Prometheus-text linter.

Two export surfaces:

* :func:`render_prometheus` — the classic Prometheus text exposition
  format (``# HELP`` / ``# TYPE`` headers, one sample per line), which
  :func:`validate_prometheus_text` can lint without any third-party
  dependency (CI runs it against `repro metrics` output).
* :func:`render_registry_jsonl` — a JSON-lines dump, one sample per
  line, for ad-hoc analysis with `jq`/pandas.

``python -m repro.obs.export <file.prom>`` lints a dump from disk.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import MetricsRegistry, Sample

_METRIC_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: (?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_sample(sample: Sample) -> str:
    if sample.labels:
        inner = ",".join(
            f'{k}="{_escape_label_value(v)}"' for k, v in sample.labels
        )
        return f"{sample.name}{{{inner}}} {_format_value(sample.value)}"
    return f"{sample.name} {_format_value(sample.value)}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry's current state (no collect — callers scrape first
    for a consistent observation) in Prometheus text format."""
    lines: List[str] = []
    for instrument in registry.instruments():
        samples = instrument.samples()
        if not samples:
            continue
        lines.append(
            f"# HELP {instrument.name} {_escape_help(instrument.help)}"
        )
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        for sample in samples:
            lines.append(_format_sample(sample))
    return "\n".join(lines) + "\n" if lines else ""


def render_registry_jsonl(registry: MetricsRegistry) -> List[str]:
    """One JSON object per sample (current registry state)."""
    out: List[str] = []
    for instrument in registry.instruments():
        for sample in instrument.samples():
            out.append(json.dumps({
                "name": sample.name,
                "kind": instrument.kind,
                "labels": dict(sample.labels),
                "value": sample.value,
            }, sort_keys=True))
    return out


def _parse_value(text: str) -> Optional[float]:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    try:
        return float(text)
    except ValueError:
        return None


def validate_prometheus_text(text: str) -> List[str]:
    """Lint a Prometheus text-format dump; returns error strings (empty
    when valid).  Checks the structural rules a scraper relies on:
    sample syntax, HELP/TYPE placement, one TYPE per family, grouped
    families, no duplicate series, histogram bucket shape."""
    errors: List[str] = []
    typed: Dict[str, str] = {}
    helped: Dict[str, str] = {}
    seen_series: Dict[str, int] = {}
    family_done: List[str] = []   # families we've moved past
    current_family: Optional[str] = None
    histogram_buckets: Dict[str, List[Tuple[float, float]]] = {}
    histogram_counts: Dict[str, float] = {}

    def family_of(name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix):
                base = name[: -len(suffix)]
                if typed.get(base) == "histogram":
                    return base
        return name

    def switch_family(line_no: int, family: str) -> None:
        nonlocal current_family
        if family == current_family:
            return
        if current_family is not None:
            family_done.append(current_family)
        if family in family_done:
            errors.append(
                f"line {line_no}: family {family!r} reappears after other "
                "families (samples must be grouped)"
            )
        current_family = family

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(" ", 1)
            name = parts[0]
            if not _METRIC_RE.match(name):
                errors.append(f"line {line_no}: bad metric name {name!r}")
                continue
            if name in helped:
                errors.append(f"line {line_no}: duplicate HELP for {name!r}")
            helped[name] = parts[1] if len(parts) > 1 else ""
            switch_family(line_no, name)
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split(" ")
            if len(parts) != 2:
                errors.append(f"line {line_no}: malformed TYPE line")
                continue
            name, kind = parts
            if not _METRIC_RE.match(name):
                errors.append(f"line {line_no}: bad metric name {name!r}")
                continue
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                errors.append(
                    f"line {line_no}: unknown metric type {kind!r}"
                )
                continue
            if name in typed:
                errors.append(f"line {line_no}: duplicate TYPE for {name!r}")
            typed[name] = kind
            switch_family(line_no, name)
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE_RE.match(line)
        if not match:
            errors.append(f"line {line_no}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        value = _parse_value(match.group("value"))
        if value is None:
            errors.append(
                f"line {line_no}: bad sample value {match.group('value')!r}"
            )
            continue
        labels: Dict[str, str] = {}
        raw_labels = match.group("labels")
        if raw_labels:
            for pair in _split_label_pairs(raw_labels):
                pair_match = _LABEL_PAIR_RE.match(pair)
                if not pair_match:
                    errors.append(
                        f"line {line_no}: malformed label pair {pair!r}"
                    )
                    continue
                key = pair_match.group("key")
                if key in labels:
                    errors.append(
                        f"line {line_no}: duplicate label {key!r}"
                    )
                labels[key] = pair_match.group("value")
        series = name + "|" + ",".join(
            f"{k}={v}" for k, v in sorted(labels.items())
        )
        if series in seen_series:
            errors.append(
                f"line {line_no}: duplicate series (first seen on line "
                f"{seen_series[series]}): {line!r}"
            )
        else:
            seen_series[series] = line_no
        family = family_of(name)
        switch_family(line_no, family)
        if typed.get(family) == "histogram":
            if name.endswith("_bucket"):
                le = labels.get("le")
                if le is None:
                    errors.append(
                        f"line {line_no}: histogram bucket without le label"
                    )
                else:
                    bound = _parse_value(le)
                    if bound is None:
                        errors.append(
                            f"line {line_no}: bad le value {le!r}"
                        )
                    else:
                        key = family + "|" + ",".join(
                            f"{k}={v}" for k, v in sorted(labels.items())
                            if k != "le"
                        )
                        histogram_buckets.setdefault(key, []).append(
                            (bound, value)
                        )
            elif name.endswith("_count"):
                key = family + "|" + ",".join(
                    f"{k}={v}" for k, v in sorted(labels.items())
                )
                histogram_counts[key] = value

    for key, buckets in histogram_buckets.items():
        family = key.split("|", 1)[0]
        bounds = [b for b, _ in buckets]
        if bounds != sorted(bounds):
            errors.append(
                f"histogram {family!r}: bucket bounds not ascending ({key})"
            )
        counts = [c for _, c in buckets]
        if counts != sorted(counts):
            errors.append(
                f"histogram {family!r}: bucket counts not cumulative ({key})"
            )
        if not bounds or bounds[-1] != float("inf"):
            errors.append(
                f"histogram {family!r}: missing le=\"+Inf\" bucket ({key})"
            )
        elif key in histogram_counts and counts[-1] != histogram_counts[key]:
            errors.append(
                f"histogram {family!r}: +Inf bucket != _count ({key})"
            )
    return errors


def _split_label_pairs(raw: str) -> List[str]:
    """Split ``k="v",k2="v2"`` on commas outside quotes."""
    out: List[str] = []
    depth_quote = False
    escaped = False
    current: List[str] = []
    for ch in raw:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            depth_quote = not depth_quote
            current.append(ch)
            continue
        if ch == "," and not depth_quote:
            out.append("".join(current))
            current = []
            continue
        current.append(ch)
    if current:
        out.append("".join(current))
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Lint Prometheus text dumps: ``python -m repro.obs.export f.prom``.

    ``-`` lints stdin, so a scrape can be piped straight through the
    linter without touching disk.  Exit status: 0 all clean, 1 lint
    findings, 2 unreadable input / usage error.
    """
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        print("usage: python -m repro.obs.export DUMP.prom [...|-]",
              file=sys.stderr)
        return 2
    status = 0
    for path in args:
        try:
            if path == "-":
                path = "<stdin>"
                text = sys.stdin.read()
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except OSError as error:
            print(f"{path}: {error}", file=sys.stderr)
            status = 2
            continue
        errors = validate_prometheus_text(text)
        if errors:
            status = 1
            for err in errors:
                print(f"{path}: {err}")
        else:
            n_samples = sum(
                1 for line in text.splitlines()
                if line.strip() and not line.startswith("#")
            )
            print(f"{path}: ok ({n_samples} samples)")
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
