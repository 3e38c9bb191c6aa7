"""Multi-window multi-burn-rate alerting over recorded SLO series.

The evaluator implements the Google SRE workbook's alerting strategy:
each severity pairs a **long** window (enough events to be statistically
meaningful) with a **short** window (so the alert clears quickly once
the burn stops), and the alert condition requires *both* windows'
burn rates above the pair's threshold.  A fast/page pair catches
cliff-edge burn (a silently dead switch blackholing its VIPs) within a
few probe rounds; a slow/ticket pair catches sustained moderate burn
that would quietly exhaust the budget.

Windows are sized in *simulated* seconds: the chaos engine ticks its
recorder on the health monitor's :class:`~repro.health.probes.SimClock`
(3 ms probe periods, the paper's testbed cadence), so the defaults are
expressed as round counts times the probe period.

Each (SLO, severity) pair runs a small FSM with hysteresis::

    inactive -> pending -> firing -> (resolved) inactive

``for_rounds`` consecutive breaching evaluations are required before
firing (one unlucky window never pages) and ``clear_rounds`` consecutive
clean ones before resolving (no flapping at probe frequency).  Every
fired episode becomes an :class:`AlertIncident`, the unit the incident
forensics engine and the :class:`~repro.obs.incident.AlertScorecard`
consume.

Evaluation is deterministic — pure arithmetic over recorder ring
buffers on the sim clock — so a replayed chaos run fires bit-identical
alerts at bit-identical times.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import MetricsRegistry, Recorder, RingBuffer
from repro.obs.slo import (
    CompiledSlo,
    SeriesSelector,
    SloError,
    budget_from_counts,
)

#: Paper testbed probe cadence (seconds) — the unit the default windows
#: are sized in.
DEFAULT_PROBE_PERIOD_S = 0.003

SEVERITY_PAGE = "page"
SEVERITY_TICKET = "ticket"


@dataclass(frozen=True)
class BurnWindow:
    """One (long, short, threshold) burn-rate condition."""

    long_s: float
    short_s: float
    burn_threshold: float
    severity: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "long_s": self.long_s,
            "short_s": self.short_s,
            "burn_threshold": self.burn_threshold,
            "severity": self.severity,
        }


@dataclass(frozen=True)
class AlertPolicy:
    """Burn-rate windows plus FSM hysteresis for one SLO."""

    slo: str
    windows: Tuple[BurnWindow, ...]
    #: Consecutive breaching evaluations before pending becomes firing.
    for_rounds: int = 2
    #: Consecutive clean evaluations before firing resolves.
    clear_rounds: int = 4


def build_default_policies(
    probe_period_s: float = DEFAULT_PROBE_PERIOD_S,
    overrides: Optional[Dict[str, object]] = None,
) -> List[AlertPolicy]:
    """Default policies for the default SLO set, windows in rounds of
    the probe period.  ``overrides`` tweaks the availability pair —
    keys ``fast_burn_threshold`` / ``slow_burn_threshold`` /
    ``for_rounds`` / ``clear_rounds`` (all JSON-scalar, so a
    :class:`~repro.chaos.engine.ChaosConfig` can carry them)."""
    ov = dict(overrides or {})
    p = probe_period_s
    fast_thresh = float(ov.get("fast_burn_threshold", 4.0))
    slow_thresh = float(ov.get("slow_burn_threshold", 3.0))
    for_rounds = int(ov.get("for_rounds", 2))
    clear_rounds = int(ov.get("clear_rounds", 4))
    availability = AlertPolicy(
        slo="vip-availability",
        windows=(
            # 6-round long / 2-round short: a blackholed switch pushes
            # both far past the threshold within the detection budget.
            BurnWindow(6 * p, 2 * p, fast_thresh, SEVERITY_PAGE),
            # 20-round long / 4-round short: sustained moderate burn.
            BurnWindow(20 * p, 4 * p, slow_thresh, SEVERITY_TICKET),
        ),
        for_rounds=for_rounds,
        clear_rounds=clear_rounds,
    )
    latency = AlertPolicy(
        slo="delivery-latency-p99",
        windows=(
            BurnWindow(20 * p, 4 * p, 4.0, SEVERITY_TICKET),
        ),
        for_rounds=for_rounds,
        clear_rounds=clear_rounds,
    )
    convergence = AlertPolicy(
        slo="post-heal-convergence",
        # Convergence passes are rare events; a long window spanning the
        # soak plus a shortish confirmation window.
        windows=(
            BurnWindow(200 * p, 20 * p, 4.0, SEVERITY_TICKET),
        ),
        for_rounds=for_rounds,
        clear_rounds=clear_rounds,
    )
    detection = AlertPolicy(
        slo="detection-latency",
        windows=(
            BurnWindow(60 * p, 10 * p, 4.0, SEVERITY_TICKET),
        ),
        for_rounds=for_rounds,
        clear_rounds=clear_rounds,
    )
    return [availability, latency, convergence, detection]


STATE_INACTIVE = "inactive"
STATE_PENDING = "pending"
STATE_FIRING = "firing"


@dataclass
class AlertIncident:
    """One fired episode of an (SLO, severity) alert."""

    slo: str
    severity: str
    window: BurnWindow
    pending_t: float
    fire_t: float
    resolve_t: Optional[float] = None
    peak_long_burn: float = 0.0
    peak_short_burn: float = 0.0

    @property
    def open(self) -> bool:
        return self.resolve_t is None

    def to_dict(self) -> Dict[str, object]:
        return {
            "slo": self.slo,
            "severity": self.severity,
            "window": self.window.to_dict(),
            "pending_t": self.pending_t,
            "fire_t": self.fire_t,
            "resolve_t": self.resolve_t,
            "peak_long_burn": self.peak_long_burn,
            "peak_short_burn": self.peak_short_burn,
        }


#: Keep at most this many cumulative points per series; pruning keeps
#: the newest half, which must still span the longest alert window.
_CUM_MAX = 4096


class _CumSeries:
    """Reset-adjusted cumulative view of one ring-buffer series.

    ``cums[i]`` is the counter's total reset-aware increase from the
    first ingested point up to ``times[i]``, so any trailing-window
    increase is a difference of two bisected entries — O(log n) per
    query instead of an O(window) rescan per alert track per round.
    """

    __slots__ = ("seen", "last_raw", "cum", "times", "cums")

    def __init__(self) -> None:
        self.seen = 0
        self.last_raw: Optional[float] = None
        self.cum = 0.0
        self.times: List[float] = []
        self.cums: List[float] = []

    def ingest(self, buf: RingBuffer) -> None:
        new = buf.appended - self.seen
        if new <= 0:
            return
        for t, value in buf.tail(new):
            if self.last_raw is not None:
                delta = value - self.last_raw
                # Counter reset: the post-reset value is all increase.
                self.cum += value if delta < 0 else delta
            self.last_raw = value
            self.times.append(t)
            self.cums.append(self.cum)
        self.seen = buf.appended
        if len(self.times) > _CUM_MAX:
            del self.times[: -_CUM_MAX // 2]
            del self.cums[: -_CUM_MAX // 2]

    def increase(
        self,
        start_t: Optional[float],
        end_t: float,
    ) -> float:
        """Increase over ``[start_t, end_t]``.  The baseline is the last
        point before ``start_t``; without one, the oldest retained point
        — the same truncation behaviour as the ring buffer itself."""
        times = self.times
        if not times:
            return 0.0
        idx_end = bisect_right(times, end_t) - 1
        if idx_end < 0:
            return 0.0
        base_cum = self.cums[0]
        if start_t is not None:
            idx_base = bisect_left(times, start_t) - 1
            if idx_base >= 0:
                base_cum = self.cums[idx_base]
        return max(0.0, self.cums[idx_end] - base_cum)


class _AlertTrack:
    """FSM state for one (SLO, BurnWindow) pair."""

    __slots__ = (
        "policy", "window", "state", "breach_streak", "clear_streak",
        "pending_t", "incident",
    )

    def __init__(self, policy: AlertPolicy, window: BurnWindow) -> None:
        self.policy = policy
        self.window = window
        self.state = STATE_INACTIVE
        self.breach_streak = 0
        self.clear_streak = 0
        self.pending_t: Optional[float] = None
        self.incident: Optional[AlertIncident] = None


class AlertEvaluator:
    """Evaluates every policy once per call against the recorder.

    Exposes the ``duet_slo_*`` metric family when given a registry:
    per-SLO budget-remaining and burn-rate gauges, per-severity
    alerts-fired counters and active-alert gauges, and an evaluation
    counter.  Gauges are set directly at the end of each evaluation
    (no registered collector — the health monitor collects on its hot
    path, so scrape-time mirroring would re-run per probe round); a
    scrape between evaluations reads the last evaluated values.
    """

    def __init__(
        self,
        slos: Sequence[CompiledSlo],
        recorder: Recorder,
        policies: Optional[Sequence[AlertPolicy]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.slos: Dict[str, CompiledSlo] = {s.name: s for s in slos}
        self.recorder = recorder
        self.policies = list(
            policies if policies is not None else build_default_policies()
        )
        for policy in self.policies:
            if policy.slo not in self.slos:
                raise SloError(
                    f"alert policy references unknown SLO {policy.slo!r}"
                )
            if policy.for_rounds < 1 or policy.clear_rounds < 1:
                raise SloError(
                    f"policy {policy.slo!r}: for_rounds and clear_rounds "
                    "must be >= 1"
                )
            for window in policy.windows:
                if window.short_s > window.long_s:
                    raise SloError(
                        f"policy {policy.slo!r}: short window "
                        f"{window.short_s}s exceeds long {window.long_s}s"
                    )
        self._tracks: List[_AlertTrack] = [
            _AlertTrack(policy, window)
            for policy in self.policies
            for window in policy.windows
        ]
        self.incidents: List[AlertIncident] = []
        self.evaluations = 0
        # Selector -> ring buffers, resolved incrementally: series are
        # only ever added to the recorder (insertion-ordered), so each
        # refresh matches just the keys that appeared since last time.
        self._selectors: List[SeriesSelector] = []
        for slo in self.slos.values():
            for sel in slo.good + slo.total:
                if sel not in self._selectors:
                    self._selectors.append(sel)
        self._resolved: Dict[SeriesSelector, List[RingBuffer]] = {
            sel: [] for sel in self._selectors
        }
        self._scanned = 0
        self._resolved_at = -1
        # Incremental cumulative sums per watched series (keyed by
        # buffer identity — buffers live as long as the recorder).
        self._cums: Dict[int, _CumSeries] = {}
        self._watched: List[RingBuffer] = []
        self._watched_ids = set()
        # Burn rates cached during evaluate(), mirrored to the gauges.
        self._burn_cache: Dict[Tuple[str, str], float] = {}
        # Whole-run error-budget counters, refreshed each evaluation
        # from the cumulative sums (which span the entire run even
        # after the recorder's ring buffers truncate).
        self._budget_good: Dict[str, float] = {n: 0.0 for n in self.slos}
        self._budget_total: Dict[str, float] = {n: 0.0 for n in self.slos}
        self._last_eval_t: Optional[float] = None
        self._instruments = None
        if registry is not None:
            self._instruments = {
                "budget": registry.gauge(
                    "duet_slo_budget_remaining_ratio",
                    "Error budget left over the recorded window "
                    "(1 = untouched, <0 = overspent).",
                    ("slo",),
                ),
                "burn": registry.gauge(
                    "duet_slo_burn_rate",
                    "Burn rate per alert window at the last evaluation.",
                    ("slo", "window"),
                ),
                "fired": registry.counter(
                    "duet_slo_alerts_fired_total",
                    "Alert episodes fired.",
                    ("slo", "severity"),
                ),
                "active": registry.gauge(
                    "duet_slo_alerts_active",
                    "Currently firing alerts.",
                    ("slo", "severity"),
                ),
                "evals": registry.counter(
                    "duet_slo_evaluations_total",
                    "Alert evaluation rounds.",
                ),
            }
            # Pre-bind gauge children: labels() is a dict lookup per
            # call and the mirror runs every probe round.
            inst = self._instruments
            self._budget_gauges = {
                name: inst["budget"].labels(name) for name in self.slos
            }
            self._burn_gauges = {}
            self._active_gauges = []
            for track in self._tracks:
                slo_name = track.policy.slo
                severity = track.window.severity
                for side in ("long", "short"):
                    key = (slo_name, f"{severity}-{side}")
                    self._burn_gauges[key] = inst["burn"].labels(*key)
                self._active_gauges.append(
                    (track, inst["active"].labels(slo_name, severity))
                )

    # -- series resolution --------------------------------------------------

    def instrument_names(self) -> List[str]:
        """Base instrument names the SLO set reads — the whitelist for
        cheap per-round partial recorder ticks."""
        names: List[str] = []
        for slo in self.slos.values():
            for name in slo.instrument_names():
                if name not in names:
                    names.append(name)
        return names

    def _refresh(self) -> None:
        """Match series keys that appeared since the last refresh
        against every selector — O(new keys), not O(all keys)."""
        if self.recorder.n_series == self._resolved_at:
            return
        keys = self.recorder.series_keys()
        for key in keys[self._scanned:]:
            buf = None
            for selector in self._selectors:
                if selector.matches(key):
                    if buf is None:
                        buf = self.recorder.buffer(key)
                    self._resolved[selector].append(buf)
            if buf is not None and id(buf) not in self._watched_ids:
                self._watched_ids.add(id(buf))
                self._watched.append(buf)
        self._scanned = len(keys)
        self._resolved_at = self.recorder.n_series

    def _lookup(self, selector: SeriesSelector):
        self._refresh()
        buffers = self._resolved.get(selector)
        if buffers is None:
            # Ad-hoc selector from an external caller: full scan once,
            # then keep it refreshed incrementally like the rest.
            buffers = []
            for key in self.recorder.series_keys():
                if selector.matches(key):
                    buf = self.recorder.buffer(key)
                    buffers.append(buf)
                    if id(buf) not in self._watched_ids:
                        self._watched_ids.add(id(buf))
                        self._watched.append(buf)
            self._resolved[selector] = buffers
            self._selectors.append(selector)
        return buffers

    def _ingest(self) -> None:
        """Pull new points from every watched series into the
        cumulative-sum caches — O(new points) per round."""
        self._refresh()
        cums = self._cums
        for buf in self._watched:
            state = cums.get(id(buf))
            if state is None:
                state = cums[id(buf)] = _CumSeries()
            state.ingest(buf)

    def _sum(
        self,
        selectors,
        start_t: Optional[float],
        end_t: float,
    ) -> float:
        total = 0.0
        cums = self._cums
        resolved = self._resolved
        for selector in selectors:
            # _ingest refreshed resolution at the top of evaluate();
            # only a selector never seen before needs the slow path.
            buffers = resolved.get(selector)
            if buffers is None:
                buffers = self._lookup(selector)
            for buf in buffers:
                state = cums.get(id(buf))
                if state is None:
                    state = cums[id(buf)] = _CumSeries()
                    state.ingest(buf)
                total += state.increase(start_t, end_t)
        return total

    def _burn(
        self, slo: CompiledSlo, window_s: float, now: float,
    ) -> Optional[float]:
        """Trailing-window burn rate from the cumulative caches —
        numerically identical to :meth:`CompiledSlo.burn_rate` but two
        bisects per series instead of an O(window) rescan."""
        start_t = now - window_s
        total = self._sum(slo.total, start_t, now)
        if total <= 0:
            return None
        good = self._sum(slo.good, start_t, now)
        rate = min(1.0, max(0.0, 1.0 - good / total))
        return rate / (1.0 - slo.objective)

    # -- metrics mirror ------------------------------------------------------

    def _cum_total(self, selectors) -> float:
        """Whole-run reset-aware increase: the final cumulative value of
        every matched series — O(series), no window scan."""
        total = 0.0
        cums = self._cums
        resolved = self._resolved
        for selector in selectors:
            buffers = resolved.get(selector)
            if buffers is None:
                buffers = self._lookup(selector)
            for buf in buffers:
                state = cums.get(id(buf))
                if state is not None:
                    total += state.cum
        return total

    def _mirror(self) -> None:
        """Refresh the ``duet_slo_*`` gauges from this evaluation."""
        for name, gauge in self._budget_gauges.items():
            gauge.set(
                budget_from_counts(
                    self._budget_good[name],
                    self._budget_total[name],
                    self.slos[name].objective,
                )["budget_remaining"]
            )
        for key, burn in self._burn_cache.items():
            self._burn_gauges[key].set(burn)
        for track, gauge in self._active_gauges:
            gauge.set(1.0 if track.state == STATE_FIRING else 0.0)

    # -- evaluation ----------------------------------------------------------

    def _evaluate_track(
        self, track: _AlertTrack, now: float,
    ) -> Optional[AlertIncident]:
        slo = self.slos[track.policy.slo]
        window = track.window
        long_burn = self._burn(slo, window.long_s, now)
        short_burn = self._burn(slo, window.short_s, now)
        self._burn_cache[(slo.name, f"{window.severity}-long")] = (
            long_burn if long_burn is not None else 0.0
        )
        self._burn_cache[(slo.name, f"{window.severity}-short")] = (
            short_burn if short_burn is not None else 0.0
        )
        breaching = (
            long_burn is not None
            and short_burn is not None
            and long_burn > window.burn_threshold
            and short_burn > window.burn_threshold
        )

        fired: Optional[AlertIncident] = None
        if track.state == STATE_INACTIVE:
            if breaching:
                track.state = STATE_PENDING
                track.pending_t = now
                track.breach_streak = 1
                if track.breach_streak >= track.policy.for_rounds:
                    fired = self._fire(track, now, long_burn, short_burn)
        elif track.state == STATE_PENDING:
            if breaching:
                track.breach_streak += 1
                if track.breach_streak >= track.policy.for_rounds:
                    fired = self._fire(track, now, long_burn, short_burn)
            else:
                track.state = STATE_INACTIVE
                track.breach_streak = 0
                track.pending_t = None
        elif track.state == STATE_FIRING:
            incident = track.incident
            if breaching:
                track.clear_streak = 0
                incident.peak_long_burn = max(
                    incident.peak_long_burn, long_burn
                )
                incident.peak_short_burn = max(
                    incident.peak_short_burn, short_burn
                )
            else:
                track.clear_streak += 1
                if track.clear_streak >= track.policy.clear_rounds:
                    incident.resolve_t = now
                    track.state = STATE_INACTIVE
                    track.incident = None
                    track.breach_streak = 0
                    track.clear_streak = 0
                    track.pending_t = None
        return fired

    def _fire(
        self,
        track: _AlertTrack,
        now: float,
        long_burn: float,
        short_burn: float,
    ) -> AlertIncident:
        incident = AlertIncident(
            slo=track.policy.slo,
            severity=track.window.severity,
            window=track.window,
            pending_t=track.pending_t if track.pending_t is not None else now,
            fire_t=now,
            peak_long_burn=long_burn,
            peak_short_burn=short_burn,
        )
        track.state = STATE_FIRING
        track.incident = incident
        track.clear_streak = 0
        self.incidents.append(incident)
        if self._instruments is not None:
            self._instruments["fired"].labels(
                incident.slo, incident.severity
            ).inc()
        return incident

    def evaluate(self, now: float) -> List[AlertIncident]:
        """One evaluation round at simulated time ``now``; returns the
        incidents that fired *this* round (for incident forensics)."""
        self.evaluations += 1
        if self._instruments is not None:
            self._instruments["evals"].inc()
        self._ingest()
        fired: List[AlertIncident] = []
        for track in self._tracks:
            incident = self._evaluate_track(track, now)
            if incident is not None:
                fired.append(incident)
        for name, slo in self.slos.items():
            self._budget_good[name] = self._cum_total(slo.good)
            self._budget_total[name] = self._cum_total(slo.total)
        self._last_eval_t = now
        if self._instruments is not None:
            self._mirror()
        return fired

    # -- reporting ----------------------------------------------------------

    def budgets(self) -> Dict[str, Dict[str, float]]:
        """Whole-run error-budget accounting per SLO, from the counters
        accumulated across every evaluation round."""
        self._refresh()
        return {
            name: budget_from_counts(
                self._budget_good[name],
                self._budget_total[name],
                slo.objective,
            )
            for name, slo in self.slos.items()
        }
