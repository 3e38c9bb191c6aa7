"""Typed metrics instruments and the pull-model registry.

Design: the hot paths (scalar ``process``, the batch engines) keep
mutating their existing plain-int counter structs — near-zero overhead,
no registry in the packet loop.  Observability happens at *scrape* time:
named **collectors** registered on the :class:`MetricsRegistry` copy the
component state into typed instruments when :meth:`MetricsRegistry.scrape`
runs.  Components therefore never hold a reference to the registry, and
a crash-restarted controller is re-observed simply by overwriting its
collector under the same name (see
:func:`repro.obs.instrument.instrument_controller`).

Instruments follow the Prometheus model:

* :class:`Counter` — monotone within one component incarnation; label
  children via :meth:`~Counter.labels`.  Collector adapters mirror an
  external counter with :meth:`~_CounterValue.set_total` (a mirrored
  value may *drop* when the underlying component was wiped, e.g. a
  failed switch — the fleet-cumulative view is rebuilt by the
  instrumentation layer, not here).
* :class:`Gauge` — goes up and down.
* :class:`Histogram` — fixed buckets, cumulative on export, with a
  bucket-interpolation :meth:`~_HistogramValue.quantile` estimate.

The :class:`Recorder` turns scrapes into per-tick time series held in
bounded ring buffers, keyed by ``(sample name, label pairs)``.
Timestamps default to the tick index — deterministic, like every clock
in this repo.
"""

from __future__ import annotations

import re
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds-flavoured, like the Prometheus
#: client defaults).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(Exception):
    """Invalid instrument definition or use."""


class Sample(NamedTuple):
    """One exported time-series point: histogram children expand into
    ``_bucket``/``_sum``/``_count`` samples."""

    name: str
    labels: Tuple[Tuple[str, str], ...]
    value: float


def format_series(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """Canonical ``name{k="v",...}`` rendering of a series key."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class _Instrument:
    """Shared child bookkeeping for all three instrument kinds."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, label_names: Sequence[str] = (),
    ) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        if len(set(label_names)) != len(label_names):
            raise MetricError(f"duplicate label names in {name!r}")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _make_child(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *values: Any) -> Any:
        """The child for one label-value combination (created on first
        use).  Values are stringified, mirroring Prometheus clients."""
        if len(values) != len(self.label_names):
            raise MetricError(
                f"{self.name} takes {len(self.label_names)} label values, "
                f"got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def items(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """(label values, child) pairs in creation order."""
        return list(self._children.items())

    def prune(self, keep: Callable[[Tuple[str, ...]], bool]) -> int:
        """Drop children whose label values fail ``keep`` (used when a
        labelled component — an SMux, say — leaves the fleet)."""
        dead = [k for k in self._children if not keep(k)]
        for key in dead:
            del self._children[key]
        return len(dead)

    def _label_pairs(
        self, values: Tuple[str, ...]
    ) -> Tuple[Tuple[str, str], ...]:
        return tuple(zip(self.label_names, values))

    def samples(self) -> List[Sample]:  # pragma: no cover - overridden
        raise NotImplementedError


class _CounterValue:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError("counters only go up")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Mirror an externally-maintained counter (collector adapters).
        Unlike :meth:`inc` this may lower the value: the mirrored
        component may have been wiped/restarted."""
        self.value = float(value)


class Counter(_Instrument):
    kind = "counter"

    def _make_child(self) -> _CounterValue:
        return _CounterValue()

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def set_total(self, value: float) -> None:
        self.labels().set_total(value)

    def value(self, *label_values: Any) -> float:
        return self.labels(*label_values).value

    def total(self) -> float:
        """Sum over every child."""
        return sum(c.value for c in self._children.values())

    def samples(self) -> List[Sample]:
        return [
            Sample(self.name, self._label_pairs(values), child.value)
            for values, child in self._children.items()
        ]


class _GaugeValue:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge(_Instrument):
    kind = "gauge"

    def _make_child(self) -> _GaugeValue:
        return _GaugeValue()

    def set(self, value: float) -> None:
        self.labels().set(value)

    def value(self, *label_values: Any) -> float:
        return self.labels(*label_values).value

    def samples(self) -> List[Sample]:
        return [
            Sample(self.name, self._label_pairs(values), child.value)
            for values, child in self._children.items()
        ]


class _HistogramValue:
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets          # ascending finite upper bounds
        self.counts = [0] * len(buckets)  # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        # falls into the implicit +Inf bucket only

    def cumulative_counts(self) -> List[int]:
        """Cumulative counts per finite bucket plus the +Inf bucket."""
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        out.append(self.count)
        return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (the PromQL
        ``histogram_quantile`` algorithm): find the bucket holding the
        q-th observation, interpolate linearly inside it.  Error is
        bounded by the width of that bucket."""
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        running = 0
        lower = 0.0
        for i, bound in enumerate(self.buckets):
            prev = running
            running += self.counts[i]
            if running >= rank:
                if self.counts[i] == 0:
                    # Only reachable at rank 0 (q=0) landing on an empty
                    # leading bucket: the smallest observation is no
                    # larger than this bucket's *lower* edge, so report
                    # that, not the upper bound.
                    return lower
                frac = (rank - prev) / self.counts[i]
                return lower + frac * (bound - lower)
            lower = bound
        # Landed in +Inf: the best bounded estimate is the last finite
        # bound (PromQL returns the same).
        return self.buckets[-1] if self.buckets else float("nan")


class Histogram(_Instrument):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricError(f"histogram {name!r} needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise MetricError(
                f"histogram {name!r} buckets must be strictly ascending"
            )
        self.buckets = bounds

    def _make_child(self) -> _HistogramValue:
        return _HistogramValue(self.buckets)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def samples(self) -> List[Sample]:
        out: List[Sample] = []
        for values, child in self._children.items():
            pairs = self._label_pairs(values)
            cumulative = child.cumulative_counts()
            for bound, count in zip(self.buckets, cumulative):
                out.append(Sample(
                    f"{self.name}_bucket",
                    pairs + (("le", _format_bound(bound)),),
                    float(count),
                ))
            out.append(Sample(
                f"{self.name}_bucket", pairs + (("le", "+Inf"),),
                float(cumulative[-1]),
            ))
            out.append(Sample(f"{self.name}_sum", pairs, child.sum))
            out.append(Sample(
                f"{self.name}_count", pairs, float(child.count),
            ))
        return out


def _format_bound(bound: float) -> str:
    return repr(bound) if bound != int(bound) else f"{int(bound)}.0"


class MetricsRegistry:
    """Instruments plus named collectors, scraped on demand.

    Collectors are callables ``fn(registry)`` that synchronise component
    state into instruments.  They are *named* and re-registration under
    the same name overwrites — that is how the chaos engine re-observes
    a crash-restarted controller without disturbing series continuity.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}
        self._collectors: Dict[str, Callable[["MetricsRegistry"], None]] = {}

    # -- instrument definition ---------------------------------------------

    def _get_or_create(
        self, cls, name: str, help: str, label_names: Sequence[str], **kwargs,
    ):
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise MetricError(
                    f"{name!r} already registered as {existing.kind}"
                )
            if existing.label_names != tuple(label_names):
                raise MetricError(
                    f"{name!r} already registered with labels "
                    f"{existing.label_names}"
                )
            return existing
        instrument = cls(name, help, label_names, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = (),
    ) -> Counter:
        return self._get_or_create(Counter, name, help, label_names)

    def gauge(
        self, name: str, help: str = "", label_names: Sequence[str] = (),
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, label_names)

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, label_names, buckets=buckets,
        )

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def instruments(self) -> List[_Instrument]:
        return list(self._instruments.values())

    # -- collectors ---------------------------------------------------------

    def register_collector(
        self, name: str, fn: Callable[["MetricsRegistry"], None],
    ) -> None:
        """Install (or replace) the collector called ``name``."""
        self._collectors[name] = fn

    def unregister_collector(self, name: str) -> None:
        self._collectors.pop(name, None)

    # -- scraping -----------------------------------------------------------

    def collect(self) -> None:
        """Run every collector (component state -> instruments)."""
        for fn in list(self._collectors.values()):
            fn(self)

    def samples(self) -> List[Sample]:
        """Flatten every instrument into exposition samples, *without*
        running collectors (see :meth:`scrape`)."""
        out: List[Sample] = []
        for instrument in self._instruments.values():
            out.extend(instrument.samples())
        return out

    def scrape(self) -> List[Sample]:
        """Collect, then flatten: one consistent observation."""
        self.collect()
        return self.samples()


class RingBuffer:
    """Fixed-capacity (t, value) series; appends drop the oldest.

    Window-truncation semantics: once more than ``capacity`` points have
    been appended, the buffer holds the *most recent* ``capacity``
    points and :meth:`items` / :attr:`first` / :attr:`last` describe
    that retained window only.  Consumers computing deltas or rates
    (``Recorder.deltas``, the SLO engine) therefore always measure over
    the retained window, never the series' full lifetime — ``first`` is
    the oldest *surviving* point, which silently advances as old points
    are evicted."""

    __slots__ = ("capacity", "_items", "_start", "appended")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise MetricError("ring buffer capacity must be positive")
        self.capacity = capacity
        self._items: List[Tuple[float, float]] = []
        self._start = 0
        #: Total points ever appended (keeps counting past eviction) —
        #: lets incremental consumers detect new points in O(1).
        self.appended = 0

    def append(self, t: float, value: float) -> None:
        self.appended += 1
        if len(self._items) < self.capacity:
            self._items.append((t, value))
        else:
            self._items[self._start] = (t, value)
            self._start = (self._start + 1) % self.capacity

    def items(self) -> List[Tuple[float, float]]:
        return self._items[self._start:] + self._items[:self._start]

    def tail_window(
        self,
        start_t: Optional[float] = None,
        end_t: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """Chronological points in ``[start_t, end_t]`` plus the last
        point *before* ``start_t`` as a rate baseline.  Scans backwards
        from the newest point and stops at the baseline, so the cost is
        O(window), not O(capacity) — the property the per-round SLO
        burn-rate evaluation depends on."""
        items = self._items
        n = len(items)
        out: List[Tuple[float, float]] = []
        for i in range(n - 1, -1, -1):
            point = items[(self._start + i) % n]
            if end_t is not None and point[0] > end_t:
                continue
            out.append(point)
            if start_t is not None and point[0] < start_t:
                break
        out.reverse()
        return out

    def tail(self, n: int) -> List[Tuple[float, float]]:
        """The newest ``n`` retained points in chronological order."""
        items = self._items
        count = len(items)
        n = min(n, count)
        if n <= 0:
            return []
        return [
            items[(self._start + count - n + i) % count] for i in range(n)
        ]

    def __len__(self) -> int:
        return len(self._items)

    @property
    def first(self) -> Optional[Tuple[float, float]]:
        items = self.items()
        return items[0] if items else None

    @property
    def last(self) -> Optional[Tuple[float, float]]:
        items = self.items()
        return items[-1] if items else None


SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def reset_aware_increase(points: Sequence[Tuple[float, float]]) -> float:
    """Total increase over a counter series, treating any decrease as a
    counter reset (Prometheus ``increase`` semantics): the post-reset
    sample's value counts in full as the new incarnation's increments.

    >>> reset_aware_increase([(0, 0), (1, 100), (2, 0), (3, 5)])
    105.0
    """
    inc = 0.0
    prev: Optional[float] = None
    for _, value in points:
        if prev is not None:
            delta = value - prev
            inc += delta if delta >= 0 else value
        prev = value
    return inc


class Recorder:
    """Scrape-to-time-series pipeline: every :meth:`tick` runs the
    registry's collectors and appends each sample to that series' ring
    buffer."""

    def __init__(self, registry: MetricsRegistry, capacity: int = 512) -> None:
        self.registry = registry
        self.capacity = capacity
        self.ticks = 0
        self._series: Dict[SeriesKey, RingBuffer] = {}
        self._kind_cache: Dict[str, str] = {}
        # Partial-tick plans: instrument name -> (child count at build
        # time, [(child, [series buffers])]) — see _partial_plan.
        self._plans: Dict[str, Tuple[int, List[Tuple[Any, List[RingBuffer]]]]] = {}

    def tick(
        self,
        now: Optional[float] = None,
        only: Optional[Sequence[str]] = None,
    ) -> int:
        """One observation; returns the number of series touched.
        ``now`` defaults to the tick index (deterministic).

        ``only`` restricts the observation to the named instruments and
        **skips collectors entirely** — a partial tick.  That makes it
        cheap enough to run every probe round, but it only observes
        fresh values for instruments incremented directly on hot paths;
        collector-mirrored instruments would be stale, so they are not
        sampled at all.  Full ticks (``only=None``) scrape everything.
        """
        t = float(self.ticks if now is None else now)
        if only is not None:
            touched = self._partial_tick(t, only)
            self.ticks += 1
            return touched
        touched = 0
        for sample in self.registry.scrape():
            key = (sample.name, sample.labels)
            buf = self._series.get(key)
            if buf is None:
                buf = RingBuffer(self.capacity)
                self._series[key] = buf
            buf.append(t, sample.value)
            touched += 1
        self.ticks += 1
        return touched

    def _buffer_for(self, key: SeriesKey) -> RingBuffer:
        buf = self._series.get(key)
        if buf is None:
            buf = RingBuffer(self.capacity)
            self._series[key] = buf
        return buf

    def _partial_plan(
        self, instrument: Any,
    ) -> List[Tuple[Any, List[RingBuffer]]]:
        """Bind an instrument's children straight to their ring buffers
        so partial ticks skip sample construction entirely.  The series
        keys match :meth:`_Instrument.samples` exactly, so partial and
        full ticks land on the same series."""
        plan: List[Tuple[Any, List[RingBuffer]]] = []
        for values, child in instrument.items():
            pairs = instrument._label_pairs(values)
            if instrument.kind == "histogram":
                buffers = [
                    self._buffer_for((
                        f"{instrument.name}_bucket",
                        pairs + (("le", _format_bound(bound)),),
                    ))
                    for bound in instrument.buckets
                ]
                buffers.append(self._buffer_for((
                    f"{instrument.name}_bucket", pairs + (("le", "+Inf"),),
                )))
                buffers.append(
                    self._buffer_for((f"{instrument.name}_sum", pairs))
                )
                buffers.append(
                    self._buffer_for((f"{instrument.name}_count", pairs))
                )
            else:
                buffers = [self._buffer_for((instrument.name, pairs))]
            plan.append((child, buffers))
        return plan

    def _partial_tick(self, t: float, only: Sequence[str]) -> int:
        touched = 0
        for name in only:
            instrument = self.registry.get(name)
            if instrument is None:
                continue
            cached = self._plans.get(name)
            n_children = len(instrument._children)
            if cached is None or cached[0] != n_children:
                cached = (n_children, self._partial_plan(instrument))
                self._plans[name] = cached
            if instrument.kind == "histogram":
                for child, buffers in cached[1]:
                    cumulative = child.cumulative_counts()
                    for i, count in enumerate(cumulative):
                        buffers[i].append(t, float(count))
                    buffers[-2].append(t, child.sum)
                    buffers[-1].append(t, float(child.count))
                    touched += len(buffers)
            else:
                for child, buffers in cached[1]:
                    buffers[0].append(t, child.value)
                    touched += 1
        return touched

    def series_keys(self) -> List[SeriesKey]:
        return list(self._series)

    @property
    def n_series(self) -> int:
        """Series count — cheap cache-invalidation signal for consumers
        (the alert evaluator) that memoise selector -> buffer maps."""
        return len(self._series)

    def buffer(self, key: SeriesKey) -> Optional[RingBuffer]:
        """Direct ring-buffer access for one series (or ``None``)."""
        return self._series.get(key)

    def series(
        self, name: str, labels: Tuple[Tuple[str, str], ...] = (),
    ) -> List[Tuple[float, float]]:
        buf = self._series.get((name, labels))
        return buf.items() if buf is not None else []

    def latest(
        self, name: str, labels: Tuple[Tuple[str, str], ...] = (),
    ) -> Optional[float]:
        buf = self._series.get((name, labels))
        if buf is None or buf.last is None:
            return None
        return buf.last[1]

    def _series_kind(self, name: str) -> str:
        """``counter`` (monotonic: reset-aware delta) or ``gauge``
        (last - first).  Histogram ``_bucket``/``_count``/``_sum``
        children count as counters.  Unknown names default to gauge and
        are *not* cached — the instrument may register later."""
        kind = self._kind_cache.get(name)
        if kind is not None:
            return kind
        instrument = self.registry.get(name)
        if instrument is None:
            for suffix in ("_bucket", "_count", "_sum"):
                if name.endswith(suffix):
                    instrument = self.registry.get(name[: -len(suffix)])
                    if instrument is not None:
                        break
        if instrument is None:
            return "gauge"
        kind = (
            "counter" if instrument.kind in ("counter", "histogram")
            else "gauge"
        )
        self._kind_cache[name] = kind
        return kind

    def deltas(self) -> Dict[SeriesKey, float]:
        """Movement per series over the recorded window.

        Gauge series report ``last - first``.  Counter-kind series
        (counters and histogram children) report the *reset-aware
        increase*: the sum of positive increments, treating any decrease
        as a restart of a fresh incarnation (crash-restart, switch wipe)
        whose current value all counts — so 0 -> 100 -> 0 -> 5 is an
        increase of 105, not a misleading delta of 5."""
        out: Dict[SeriesKey, float] = {}
        for key, buf in self._series.items():
            points = buf.items()
            if not points:
                continue
            if self._series_kind(key[0]) == "counter":
                out[key] = reset_aware_increase(points)
            else:
                out[key] = points[-1][1] - points[0][1]
        return out

    def top_deltas(self, n: int = 10) -> List[Tuple[str, float]]:
        """The ``n`` series that moved the most (by absolute delta) over
        the window, as (rendered series name, delta) — the telemetry
        context attached to chaos soak summaries and artifacts."""
        ranked = sorted(
            (
                (format_series(name, labels), delta)
                for (name, labels), delta in self.deltas().items()
                if delta != 0.0
            ),
            key=lambda item: (-abs(item[1]), item[0]),
        )
        return ranked[:n]
