"""Declarative SLOs compiled against recorded metric series.

An :class:`SloSpec` states an objective ("99.8% of end-to-end VIP
probes are delivered") in terms of *metric names*, not code: a ratio
SLO names counter series for its good and total events, a latency SLO
names a histogram plus a threshold.  :func:`compile_slo` validates the
spec against a live :class:`~repro.obs.registry.MetricsRegistry` —
the metric must exist, have the right kind, and (for latency SLOs) a
bucket boundary at or below the threshold — and returns a
:class:`CompiledSlo` that evaluates over
:class:`~repro.obs.registry.Recorder` ring-buffer series.

Both SLO forms reduce to the same shape, a (good, total) pair of
series selectors: a latency SLO's good events are the cumulative
``_bucket`` series at the largest bound <= threshold and its total is
the ``_count`` series, which is exactly how Prometheus recording rules
express latency SLOs.

Rates are **counter-reset aware**: an increase over a window is the
sum of positive increments, and a decrease (a crash-restarted
component, a wiped switch) is treated as a reset — the post-reset
value is the new incarnation's contribution.  ``last - first`` would
report a huge negative delta instead.

Error-budget accounting follows the standard SRE model: over the
recorder's retained window, the budget is ``(1 - objective) * total``
events; ``budget_remaining`` is the fraction of it not yet consumed
(negative once the SLO is out of budget).  Burn rate is
``error_rate / (1 - objective)`` — 1.0 means the budget is consumed
exactly at the rate that exhausts it at the end of the SLO window.

Everything here is deterministic: same recorder contents, same
numbers, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    Recorder,
    RingBuffer,
    _format_bound,
    reset_aware_increase,
)

Points = Sequence[Tuple[float, float]]


class SloError(Exception):
    """Invalid SLO definition, or one that doesn't compile against the
    registry it was given."""


# -- reset-aware rate primitives -------------------------------------------


def window_points(points: Points, start_t: float,
                  end_t: Optional[float] = None) -> List[Tuple[float, float]]:
    """The points inside ``[start_t, end_t]`` plus the last point before
    ``start_t`` as the rate baseline (so the first in-window increment
    is counted).  ``points`` must be time-ordered, as recorder buffers
    are."""
    out: List[Tuple[float, float]] = []
    baseline: Optional[Tuple[float, float]] = None
    for point in points:
        t = point[0]
        if t < start_t:
            baseline = point
            continue
        if end_t is not None and t > end_t:
            break
        out.append(point)
    if baseline is not None:
        out.insert(0, baseline)
    return out


def window_increase(points: Points, start_t: Optional[float] = None,
                    end_t: Optional[float] = None) -> float:
    """Reset-aware increase over ``[start_t, end_t]`` (the whole series
    when ``start_t`` is None)."""
    if start_t is not None:
        points = window_points(points, start_t, end_t)
    return reset_aware_increase(points)


# -- selectors --------------------------------------------------------------


@dataclass(frozen=True)
class SeriesSelector:
    """Matches recorded series by sample name plus a label subset
    (``labels=()`` matches every child of the family)."""

    name: str
    labels: Tuple[Tuple[str, str], ...] = ()

    def matches(self, key: Tuple[str, Tuple[Tuple[str, str], ...]]) -> bool:
        sample_name, sample_labels = key
        if sample_name != self.name:
            return False
        have = dict(sample_labels)
        return all(have.get(k) == v for k, v in self.labels)

    def render(self) -> str:
        if not self.labels:
            return self.name
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return f"{self.name}{{{inner}}}"


# -- specs ------------------------------------------------------------------


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective.  Exactly one form must be used:

    * **ratio** — ``good`` and ``total`` selector tuples over counter
      families (good must be a subset of total for the math to mean
      anything; that is the author's contract, not checked).
    * **latency** — ``histogram`` + ``threshold_s``; compiled to the
      cumulative bucket at the largest bound <= threshold over
      ``_count``.
    """

    name: str
    description: str
    objective: float
    good: Tuple[SeriesSelector, ...] = ()
    total: Tuple[SeriesSelector, ...] = ()
    histogram: Optional[str] = None
    threshold_s: Optional[float] = None

    @property
    def is_latency(self) -> bool:
        return self.histogram is not None


@dataclass
class CompiledSlo:
    """An :class:`SloSpec` resolved against a registry: selectors are
    known to exist with the right instrument kinds, and a latency
    threshold is snapped to its effective bucket boundary."""

    spec: SloSpec
    good: Tuple[SeriesSelector, ...]
    total: Tuple[SeriesSelector, ...]
    #: For latency SLOs: the bucket bound actually enforcing the
    #: threshold (largest bound <= ``spec.threshold_s``).
    effective_threshold_s: Optional[float] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def objective(self) -> float:
        return self.spec.objective

    def instrument_names(self) -> List[str]:
        """Base instrument names this SLO reads (for partial scrapes)."""
        if self.spec.is_latency:
            return [self.spec.histogram]
        seen: List[str] = []
        for sel in self.good + self.total:
            if sel.name not in seen:
                seen.append(sel.name)
        return seen

    # -- evaluation ---------------------------------------------------------

    def _sum_increase(
        self,
        lookup,
        selectors: Tuple[SeriesSelector, ...],
        start_t: Optional[float],
        end_t: Optional[float],
    ) -> float:
        total = 0.0
        for selector in selectors:
            for series in lookup(selector):
                # Ring buffers expose an O(window) backward scan; plain
                # point sequences (tests, ad-hoc lookups) take the
                # generic path.
                if isinstance(series, RingBuffer):
                    total += reset_aware_increase(
                        series.tail_window(start_t, end_t)
                    )
                else:
                    total += window_increase(series, start_t, end_t)
        return total

    def good_total(
        self,
        lookup,
        start_t: Optional[float] = None,
        end_t: Optional[float] = None,
    ) -> Tuple[float, float]:
        """(good, total) event increases over the window.  ``lookup``
        maps a selector to an iterable of point lists — see
        :func:`recorder_lookup`."""
        good = self._sum_increase(lookup, self.good, start_t, end_t)
        total = self._sum_increase(lookup, self.total, start_t, end_t)
        return good, total

    def error_rate(
        self,
        lookup,
        start_t: Optional[float] = None,
        end_t: Optional[float] = None,
    ) -> Optional[float]:
        """Bad fraction over the window, or None when there were no
        events (no data is not the same as no errors)."""
        good, total = self.good_total(lookup, start_t, end_t)
        if total <= 0:
            return None
        return min(1.0, max(0.0, 1.0 - good / total))

    def burn_rate(
        self,
        lookup,
        window_s: float,
        now: float,
    ) -> Optional[float]:
        """How fast the error budget burns over the trailing window:
        1.0 = exactly at budget, >1 = overspending.  None without data."""
        rate = self.error_rate(lookup, now - window_s, now)
        if rate is None:
            return None
        return rate / (1.0 - self.objective)

    def budget(self, lookup) -> Dict[str, float]:
        """Error-budget accounting over the full recorded window."""
        good, total = self.good_total(lookup)
        return budget_from_counts(good, total, self.objective)


def budget_from_counts(
    good: float, total: float, objective: float,
) -> Dict[str, float]:
    """Standard SRE error-budget arithmetic from (good, total) counts:
    the budget is ``(1 - objective) * total`` bad events, and
    ``budget_remaining`` is the unspent fraction (negative once the
    objective is blown; 1.0 with no data)."""
    bad = max(0.0, total - good)
    allowed = (1.0 - objective) * total
    if total <= 0:
        remaining = 1.0
    elif allowed <= 0:  # pragma: no cover - objective < 1 enforced
        remaining = 0.0 if bad == 0 else -1.0
    else:
        remaining = 1.0 - bad / allowed
    return {
        "good": good,
        "total": total,
        "bad": bad,
        "objective": objective,
        "allowed_bad": allowed,
        "budget_remaining": remaining,
    }


def recorder_lookup(recorder: Recorder):
    """An uncached selector -> series lookup over a recorder (yields
    ring buffers).  The alert evaluator keeps its own cached
    resolution; this one is for one-shot uses (CLI, tests)."""
    def lookup(selector: SeriesSelector):
        for key in recorder.series_keys():
            if selector.matches(key):
                buf = recorder.buffer(key)
                if buf is not None:
                    yield buf
    return lookup


# -- compilation ------------------------------------------------------------


def _check_counter_family(registry: MetricsRegistry, spec_name: str,
                          selector: SeriesSelector) -> None:
    name = selector.name
    instrument = registry.get(name)
    if instrument is None:
        # Histogram child series (name_bucket / name_count / name_sum)
        # are counter-like and legal in ratio selectors too.
        for suffix in ("_bucket", "_count", "_sum"):
            if name.endswith(suffix):
                base = registry.get(name[: -len(suffix)])
                if base is not None and base.kind == "histogram":
                    return
        raise SloError(
            f"SLO {spec_name!r}: metric {name!r} is not registered"
        )
    if instrument.kind != "counter":
        raise SloError(
            f"SLO {spec_name!r}: {name!r} is a {instrument.kind}, "
            "ratio SLOs need counters"
        )
    known = set(instrument.label_names) | {"le"}
    for key, _ in selector.labels:
        if key not in known:
            raise SloError(
                f"SLO {spec_name!r}: {name!r} has no label {key!r} "
                f"(labels: {instrument.label_names})"
            )


def compile_slo(spec: SloSpec, registry: MetricsRegistry) -> CompiledSlo:
    """Validate ``spec`` against the registry and resolve it to good /
    total selectors.  Raises :class:`SloError` on any mismatch — a
    typo'd metric name fails at compile time, not silently at runtime."""
    if not 0.0 < spec.objective < 1.0:
        raise SloError(
            f"SLO {spec.name!r}: objective must be in (0, 1), "
            f"got {spec.objective}"
        )
    if spec.is_latency:
        if spec.good or spec.total:
            raise SloError(
                f"SLO {spec.name!r}: latency SLOs take histogram + "
                "threshold_s, not good/total selectors"
            )
        if spec.threshold_s is None or spec.threshold_s <= 0:
            raise SloError(
                f"SLO {spec.name!r}: latency SLOs need threshold_s > 0"
            )
        instrument = registry.get(spec.histogram)
        if instrument is None:
            raise SloError(
                f"SLO {spec.name!r}: histogram {spec.histogram!r} is "
                "not registered"
            )
        if not isinstance(instrument, Histogram):
            raise SloError(
                f"SLO {spec.name!r}: {spec.histogram!r} is a "
                f"{instrument.kind}, not a histogram"
            )
        eligible = [b for b in instrument.buckets if b <= spec.threshold_s]
        if not eligible:
            raise SloError(
                f"SLO {spec.name!r}: no bucket of {spec.histogram!r} at "
                f"or below threshold {spec.threshold_s}s (buckets: "
                f"{instrument.buckets})"
            )
        bound = eligible[-1]
        return CompiledSlo(
            spec=spec,
            good=(SeriesSelector(
                f"{spec.histogram}_bucket", (("le", _format_bound(bound)),),
            ),),
            total=(SeriesSelector(f"{spec.histogram}_count"),),
            effective_threshold_s=bound,
        )
    if not spec.good or not spec.total:
        raise SloError(
            f"SLO {spec.name!r}: ratio SLOs need good and total selectors"
        )
    for selector in spec.good + spec.total:
        _check_counter_family(registry, spec.name, selector)
    return CompiledSlo(spec=spec, good=spec.good, total=spec.total)


# -- the default Duet SLO set ----------------------------------------------

#: End-to-end VIP probe delivery through the *fabric* (mux layer).
#: Post-mux drops are a DIP's failure — the mux forwarded the packet —
#: so they count as good here; Ananta-style DIP health handles them.
AVAILABILITY_OBJECTIVE = 0.98

#: Delivered-probe RTT: HMux serves at ~150us and SMux at ~600us
#: (+-10% jitter), so 750us covers both healthy paths with headroom.
DELIVERY_LATENCY_THRESHOLD_S = 0.00075
DELIVERY_LATENCY_OBJECTIVE = 0.99

#: Post-heal anti-entropy convergence (wall-clock measurement — see
#: docs/OBSERVABILITY.md on determinism).
CONVERGENCE_THRESHOLD_S = 0.25
CONVERGENCE_OBJECTIVE = 0.95

DETECTION_LATENCY_OBJECTIVE = 0.90

_OUTCOMES = "duet_health_vip_probe_outcomes_total"


def default_slo_specs(
    detection_budget_s: float = 0.09,
) -> List[SloSpec]:
    """The four paper-derived objectives (S5-S7: availability through
    failure and migration, delivery latency, recovery speed)."""
    return [
        SloSpec(
            name="vip-availability",
            description=(
                "End-to-end VIP probes delivered by the mux fabric "
                "(post-mux DIP loss excluded)"
            ),
            objective=AVAILABILITY_OBJECTIVE,
            good=(
                SeriesSelector(_OUTCOMES, (("result", "ok"),)),
                SeriesSelector(_OUTCOMES, (("result", "post-mux-drop"),)),
            ),
            total=(SeriesSelector(_OUTCOMES),),
        ),
        SloSpec(
            name="delivery-latency-p99",
            description="Delivered VIP probe RTT within the hybrid-path bound",
            objective=DELIVERY_LATENCY_OBJECTIVE,
            histogram="duet_health_vip_rtt_seconds",
            threshold_s=DELIVERY_LATENCY_THRESHOLD_S,
        ),
        SloSpec(
            name="post-heal-convergence",
            description="Anti-entropy convergence time after a channel heal",
            objective=CONVERGENCE_OBJECTIVE,
            histogram="duet_ctrl_channel_convergence_seconds",
            threshold_s=CONVERGENCE_THRESHOLD_S,
        ),
        SloSpec(
            name="detection-latency",
            description="Silent-fault detection within the detection budget",
            objective=DETECTION_LATENCY_OBJECTIVE,
            histogram="duet_health_detection_latency_seconds",
            # The budget (default 90 ms) snaps to the 0.1 s bucket edge.
            threshold_s=max(detection_budget_s, 0.1),
        ),
    ]


def build_default_slos(
    registry: MetricsRegistry,
    detection_budget_s: float = 0.09,
) -> List[CompiledSlo]:
    """Compile the default set against a registry that already has the
    health + control-channel instrumentation installed."""
    return [
        compile_slo(spec, registry)
        for spec in default_slo_specs(detection_budget_s)
    ]
