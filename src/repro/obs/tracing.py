"""Control-plane tracing: causal span trees over controller operations.

A :class:`Tracer` owns a logical monotonic clock (an integer that
advances on every span boundary — deterministic, like the rest of the
repo) and a span stack: a span started while another is open becomes its
child, so one ``migrate_vip`` yields a full causal tree::

    op:migrate_vip
    ├─ migrate.withdraw
    │  └─ hmux.remove
    │     └─ bgp.withdraw
    ├─ migrate.smux_transit
    └─ migrate.reprogram
       └─ hmux.program
          └─ bgp.announce

Components hold no tracer by default: every hook goes through
:func:`maybe_span` / :func:`trace_event`, which are no-ops when the
tracer is ``None`` — the untraced hot path costs one ``is None`` test.

The :class:`PacketTap` is the data-plane sibling: it samples forwarded
flows and records their hop-by-hop decap/encap path (route resolution,
mux encapsulation, host-agent delivery).
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


class TracingError(Exception):
    """Invalid tracer use."""


@dataclass
class Span:
    """One traced operation."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    start: int
    end: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[int]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Span factory with a logical clock and a parent stack."""

    def __init__(self) -> None:
        self._clock = 0
        self._next_trace_id = 1
        self._next_span_id = 1
        self._stack: List[int] = []
        self._spans: Dict[int, Span] = {}

    # -- clock --------------------------------------------------------------

    def now(self) -> int:
        """Advance and read the logical clock — strictly monotonic, so
        span timestamps totally order all traced boundaries."""
        self._clock += 1
        return self._clock

    # -- span lifecycle -----------------------------------------------------

    def start_span(self, name: str, **attrs: Any) -> Span:
        if self._stack:
            parent = self._spans[self._stack[-1]]
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = self._next_trace_id
            self._next_trace_id += 1
            parent_id = None
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span_id,
            parent_id=parent_id,
            name=name,
            start=self.now(),
            attrs=dict(attrs),
        )
        self._next_span_id += 1
        self._spans[span.span_id] = span
        self._stack.append(span.span_id)
        return span

    def finish(self, span: Span) -> None:
        if span.finished:
            raise TracingError(f"span {span.name!r} already finished")
        if not self._stack or self._stack[-1] != span.span_id:
            raise TracingError(
                f"span {span.name!r} is not the innermost open span"
            )
        self._stack.pop()
        span.end = self.now()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Context-managed span; an escaping exception is recorded on
        the span (``error`` attr) and re-raised."""
        span = self.start_span(name, **attrs)
        try:
            yield span
        except BaseException as error:
            span.attrs["error"] = f"{type(error).__name__}: {error}"
            raise
        finally:
            self.finish(span)

    def event(self, name: str, **attrs: Any) -> Span:
        """A zero-duration span (journal writes, BGP route flaps)."""
        span = self.start_span(name, **attrs)
        self.finish(span)
        return span

    # -- introspection ------------------------------------------------------

    def spans(self) -> List[Span]:
        return list(self._spans.values())

    def roots(self) -> List[Span]:
        return [s for s in self._spans.values() if s.parent_id is None]

    def children(self, span_id: int) -> List[Span]:
        return [s for s in self._spans.values() if s.parent_id == span_id]

    def clear(self) -> None:
        if self._stack:
            raise TracingError("cannot clear with open spans")
        self._spans.clear()

    # -- rendering / export -------------------------------------------------

    def render(self, trace_id: Optional[int] = None) -> str:
        """ASCII tree of one trace (or all of them)."""
        lines: List[str] = []
        for root in self.roots():
            if trace_id is not None and root.trace_id != trace_id:
                continue
            self._render_into(root, lines, prefix="", is_last=True,
                              is_root=True)
        return "\n".join(lines)

    def _render_into(
        self, span: Span, lines: List[str], *,
        prefix: str, is_last: bool, is_root: bool = False,
    ) -> None:
        attrs = "".join(
            f" {k}={v}" for k, v in span.attrs.items()
        )
        ticks = "?" if span.duration is None else str(span.duration)
        if is_root:
            lines.append(f"{span.name} [trace {span.trace_id}, "
                         f"{ticks} ticks]{attrs}")
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            lines.append(f"{prefix}{connector}{span.name} "
                         f"[{ticks} ticks]{attrs}")
            child_prefix = prefix + ("   " if is_last else "│  ")
        children = sorted(self.children(span.span_id), key=lambda s: s.start)
        for i, child in enumerate(children):
            self._render_into(
                child, lines, prefix=child_prefix,
                is_last=(i == len(children) - 1),
            )

    def to_json_lines(self) -> List[str]:
        return [
            json.dumps(span.to_dict(), sort_keys=True)
            for span in self._spans.values()
        ]


def maybe_span(tracer: Optional[Tracer], name: str, **attrs: Any):
    """A tracer span, or a no-op context manager when untraced."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **attrs)


def trace_event(tracer: Optional[Tracer], name: str, **attrs: Any) -> None:
    if tracer is not None:
        tracer.event(name, **attrs)


def span_attrs(params: Dict[str, Any]) -> Dict[str, Any]:
    """Scalar-only view of op params, safe to attach to a span (the
    full payload — serialized VIPs, whole assignments — belongs in the
    journal, not the trace)."""
    return {
        k: v for k, v in params.items()
        if isinstance(v, (int, float, str, bool)) or v is None
    }


# ---------------------------------------------------------------------------
# Per-packet tap
# ---------------------------------------------------------------------------

@dataclass
class TapRecord:
    """The hop-by-hop path of one sampled packet."""

    index: int              # sample's position in the forward stream
    flow: Any               # FiveTuple
    hops: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        f = self.flow
        return {
            "index": self.index,
            "flow": {
                "src_ip": f.src_ip, "dst_ip": f.dst_ip,
                "src_port": f.src_port, "dst_port": f.dst_port,
                "protocol": f.protocol,
            },
            "hops": self.hops,
        }


class PacketTap:
    """Samples every ``sample_every``-th forwarded packet and records
    its decap/encap path.  Records live in a bounded deque-like list
    (oldest dropped) so a long soak cannot grow without bound."""

    def __init__(self, sample_every: int = 1, capacity: int = 256) -> None:
        if sample_every < 1:
            raise TracingError("sample_every must be >= 1")
        if capacity < 1:
            raise TracingError("tap capacity must be >= 1")
        self.sample_every = sample_every
        self.capacity = capacity
        self.seen = 0
        self.sampled = 0
        self._records: List[TapRecord] = []

    def begin(self, flow: Any) -> Optional[TapRecord]:
        """Start a record for this packet, or ``None`` when the sampler
        skips it."""
        index = self.seen
        self.seen += 1
        if index % self.sample_every != 0:
            return None
        record = TapRecord(index=index, flow=flow)
        self._records.append(record)
        if len(self._records) > self.capacity:
            del self._records[0]
        self.sampled += 1
        return record

    @staticmethod
    def hop(record: Optional[TapRecord], hop: str, **attrs: Any) -> None:
        if record is not None:
            record.hops.append({"hop": hop, **attrs})

    def records(self) -> List[TapRecord]:
        return list(self._records)

    def render(self) -> str:
        from repro.net.addressing import format_ip

        lines: List[str] = []
        for record in self._records:
            f = record.flow
            path = " -> ".join(
                h["hop"] + "(" + ",".join(
                    f"{k}={v}" for k, v in h.items() if k != "hop"
                ) + ")"
                for h in record.hops
            )
            lines.append(
                f"#{record.index} {format_ip(f.src_ip)}:{f.src_port} -> "
                f"{format_ip(f.dst_ip)}:{f.dst_port}  {path}"
            )
        return "\n".join(lines)

    def to_json_lines(self) -> List[str]:
        return [
            json.dumps(r.to_dict(), sort_keys=True) for r in self._records
        ]
