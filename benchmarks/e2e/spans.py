"""Span recorder: times calls into the program's public callables from
outside, by temporarily wrapping them.

A span is ``[name, layer, start, end, parent, unit]``: ``parent`` is the
index of the span that was open when this one started (-1 for a root),
``unit`` the epoch / op / batch / seed the benchmark was working on.
Spans stay in memory and are written once, after the run.  A span's self
time is its duration minus the part covered by its direct children —
one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

NAME, LAYER, START, END, PARENT, UNIT = range(6)

#: Every time the benchmark reports is CPU time of this process, not wall
#: time.  The workloads are one thread that never sleeps or waits, so the
#: two agree on a quiet machine; but this VM loses its vCPU to the host
#: for minutes at a time, which doubles wall time and leaves CPU time
#: alone.  (``process_time`` also counts from process start, which is
#: what ``setup_s`` wants.)
clock = time.process_time


class TraceError(Exception):
    """A callable could not be wrapped (never skipped silently)."""


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``getattr(owner, attr)`` becomes a span
    called ``name`` in ``layer``.

    ``namer(args, kwargs)`` overrides the name per call (e.g. full vs
    partial recorder ticks).  ``callback_arg`` is the positional index
    of a callable argument that runs inside the call on behalf of
    another layer (``ControlChannel.send``'s ``fn``); it gets its own
    child span ``callback_name`` in ``callback_layer`` so the parent's
    self time excludes it.
    """

    owner: Any
    attr: str
    name: str
    layer: str
    namer: Optional[Callable[[tuple, dict], str]] = None
    callback_arg: Optional[int] = None
    callback_name: str = ""
    callback_layer: str = ""


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.unit: int = -1
        self._stack: List[int] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """A span around a region of the benchmark's own code."""
        record = self._open(name, layer)
        try:
            yield
        finally:
            record[END] = clock()
            self._stack.pop()

    def _open(self, name: str, layer: str) -> list:
        stack = self._stack
        record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = clock()
        return record

    def traced(self, fn: Callable, name: str, layer: str,
               namer: Optional[Callable[[tuple, dict], str]] = None,
               ) -> Callable:
        """``fn`` with a span around every call."""
        stack = self._stack
        open_span = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = open_span(
                name if namer is None else namer(args, kwargs), layer,
            )
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return wrapper

    # -- wrapping ----------------------------------------------------------

    @contextmanager
    def patched(self, targets: Sequence[Target]) -> Iterator["SpanRecorder"]:
        """Wrap every target for the duration of the block; the
        originals are restored on exit, also when the block raises."""
        installed: List[tuple] = []
        try:
            for target in targets:
                installed.append(self._install(target))
            yield self
        finally:
            for owner, attr, had_own, original in reversed(installed):
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def _install(self, target: Target) -> tuple:
        owner, attr = target.owner, target.attr
        where = f"{getattr(owner, '__name__', owner)!s}.{attr}"
        try:
            namespace = vars(owner)
        except TypeError:  # an instance of a slotted class
            namespace = {}
        had_own = attr in namespace
        try:
            original = namespace[attr] if had_own else getattr(owner, attr)
        except AttributeError as error:
            raise TraceError(f"cannot wrap {where}: no such attribute") from error
        if isinstance(original, (staticmethod, classmethod)) or not callable(original):
            raise TraceError(
                f"cannot wrap {where}: only plain functions and methods "
                "are supported"
            )
        fn = original
        if target.callback_arg is not None:
            fn = self._with_traced_callback(original, target)
        wrapper = self.traced(fn, target.name, target.layer, target.namer)
        try:
            setattr(owner, attr, wrapper)
        except (AttributeError, TypeError) as error:
            # Slotted instances and built-in types reject new attributes.
            raise TraceError(f"cannot wrap {where}: {error}") from error
        return owner, attr, had_own, original

    def _with_traced_callback(self, fn: Callable, target: Target) -> Callable:
        # +1: the wrapped callable is a method, args[0] is self.
        position = target.callback_arg + 1

        @functools.wraps(fn)
        def call(*args, **kwargs):
            if len(args) > position:
                args = list(args)
                args[position] = self.traced(
                    args[position], target.callback_name,
                    target.callback_layer,
                )
            return fn(*args, **kwargs)

        return call

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        keys = ("name", "layer", "start", "end", "parent_id", "unit_id")
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                row = dict(zip(keys, span))
                row["id"] = index
                handle.write(json.dumps(row) + "\n")

    def summary(self) -> "TraceSummary":
        return TraceSummary(self.spans)


class TraceSummary:
    """Durations and self times of a finished trace, grouped by span
    name and by layer."""

    def __init__(self, spans: Sequence[list]) -> None:
        covered = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.self_times: Dict[str, List[float]] = defaultdict(list)
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        self._under: Dict[tuple, float] = defaultdict(float)
        self.root_s = 0.0
        for span, child_s in zip(spans, covered):
            duration = span[END] - span[START]
            if span[PARENT] >= 0:
                self._under[spans[span[PARENT]][NAME], span[NAME]] += duration
            self.durations[span[NAME]].append(duration)
            self.self_times[span[NAME]].append(duration - child_s)
            self.layer_self_s[span[LAYER]] += duration - child_s
            if span[PARENT] < 0:
                self.root_s += duration

    def count(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total_s(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def total_under_s(self, parent: str, name: str) -> float:
        """Seconds in ``name`` spans whose direct parent is ``parent``."""
        return self._under.get((parent, name), 0.0)

    def self_s(self, name: str) -> float:
        return sum(self.self_times.get(name, ()))

    def p50_s(self, name: str) -> float:
        values = self.durations.get(name)
        return statistics.median(values) if values else 0.0

    def self_p50_s(self, name: str) -> float:
        values = self.self_times.get(name)
        return statistics.median(values) if values else 0.0
