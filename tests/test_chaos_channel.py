"""Chaos soak over control-channel faults: loss, duplicate delivery,
partitions, heals — racing VIP/DIP churn, switch failures, and
controller crash-restarts with unacked in-flight commands.

The acceptance bar of the control-channel PR: across a 200-seed corpus,
zero fencing violations (no stale/duplicate command ever mutates a
device), and intent == installed state within bounded reconcile rounds
after every full heal.
"""

from __future__ import annotations

import pytest

from repro.chaos.engine import ChaosConfig, ChaosEngine
from repro.chaos.events import EventKind
from repro.fleet import FleetConfig, SoakFleet
from tests.conftest import fleet_workers
from tests.test_durability import FaultAtCall

SOAK = dict(
    n_events=10, n_vips=8,
    channel_loss=0.8, channel_delay=0.5, channel_partitions=2,
    crash_prob=0.08,
)


def run_seed(seed: int, **overrides):
    params = {**SOAK, **overrides}
    return ChaosEngine(ChaosConfig(seed=seed, **params)).run()


class TestChannelSoak:
    def test_200_seed_soak_no_violations(self):
        """Zero invariant violations over the full corpus, with every
        channel fault path actually exercised — including crashes that
        strand unacked in-flight commands (fence_rejects counts the
        dead incarnation's duplicates being refused)."""
        report = SoakFleet(
            ChaosConfig(seed=0, **SOAK), range(200),
            fleet=FleetConfig(workers=fleet_workers()),
        ).run()
        assert report.quarantined == []
        for summary in report.results:
            assert summary["ok"], (
                f"seed {summary['seed']}: {summary['violations']}"
            )
        agg = report.totals["channel"]
        kinds = set(report.totals["event_counts"])
        crashes = report.totals["crashes"]
        # The corpus must have exercised every injected fault kind...
        assert {
            "channel_loss", "channel_delay",
            "channel_partition", "channel_heal",
        } <= kinds
        # ...and every channel code path.
        assert agg["losses"] > 0
        assert agg["partition_drops"] > 0
        assert agg["delayed_dups"] > 0
        assert agg["dup_drops"] > 0
        assert agg["fence_rejects"] > 0      # dead-incarnation dups refused
        assert agg["heals"] > 0
        assert agg["ledger_timeouts"] > 0    # degrade-to-SMux happened
        assert crashes > 0
        # The tentpole invariant: no stale/duplicate command ever
        # mutated a device, anywhere in the corpus.
        assert agg["stale_applied"] == 0
        # Every queued duplicate was either fence-dropped, epoch-fenced,
        # or purged with its dead device — none left dangling unclassified.
        assert (
            agg["dup_drops"] + agg["fence_rejects"] <= agg["delayed_dups"]
        )

    def test_same_seed_reproduces_bit_for_bit(self):
        a = run_seed(1234)
        b = run_seed(1234)
        assert [e.to_dict() for t in a.traces for e in [t.event]] == \
               [e.to_dict() for t in b.traces for e in [t.event]]
        assert a.channel == b.channel
        assert a.crashes == b.crashes
        assert a.stats == b.stats

    def test_config_roundtrips_channel_fields(self):
        config = ChaosConfig(seed=9, **SOAK)
        clone = ChaosConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.channel_loss == SOAK["channel_loss"]
        assert clone.channel_partitions == SOAK["channel_partitions"]

    def test_old_artifact_configs_still_load(self):
        """Artifacts recorded before the channel fields existed must
        keep replaying (back-compat via dataclass defaults)."""
        data = ChaosConfig(seed=3).to_dict()
        for key in ("channel_loss", "channel_delay", "channel_partitions"):
            del data[key]
        config = ChaosConfig.from_dict(data)
        assert config.channel_loss == 0.0
        assert config.channel_partitions == 0

    def test_channel_kinds_disabled_by_default(self):
        """Without channel fault config the generator never emits
        channel events (weights stay zero)."""
        report = run_seed(
            5, channel_loss=0.0, channel_delay=0.0, channel_partitions=0,
            n_events=30,
        )
        assert report.ok
        emitted = {
            k for k in report.event_counts if k.startswith("channel_")
        }
        assert emitted == set()

    def test_heal_convergence_violation_detected(self):
        """Sanity-check the oracle itself: a full heal that cannot
        converge must be reported, not swallowed.  Every switch starts
        partitioned, and each agent sends through a channel that keeps
        losing programming ops after the heal, so the switches stay
        permanently broken; then force loss + heal-all."""
        from repro.chaos.events import ChaosEvent

        config = ChaosConfig(
            seed=2, n_vips=8, n_events=2, channel_loss=1.0,
            broken_switches=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
            stop_on_violation=False,
        )
        events = [
            ChaosEvent(EventKind.REBALANCE),
            ChaosEvent(EventKind.CHANNEL_HEAL, {"switch": None}),
        ]
        engine = ChaosEngine(config, events=events)
        controller = engine.controller
        for agent in controller.switch_agents.values():
            agent.channel = FaultAtCall(controller.channel, 0, every_after=True)
        controller.channel.set_loss(1.0)
        report = engine.run()
        # The heal lifted every partition, but every switch still
        # rejects programming: the reconciler retries the degraded VIPs,
        # fails, and re-degrades — that IS convergence (degraded intent
        # == installed state), so no violation.  But the ledger must
        # show the abandoned ops.
        assert not controller.channel.partitioned
        assert controller.degraded_vips
        assert report.ok, [str(v) for v in report.violations]
        assert report.channel["ledger_timeouts"] > 0


class TestChannelSoakDeeper:
    """A thinner, deeper tier: longer schedules shake out cross-event
    interactions (partition -> switch death -> recover -> heal)."""

    @pytest.mark.parametrize("seed", [7, 77, 777])
    def test_deep_schedule(self, seed):
        report = run_seed(
            seed, n_events=60, n_vips=12, crash_prob=0.05,
        )
        assert report.ok, [str(v) for v in report.violations]
        assert report.channel["stale_applied"] == 0
