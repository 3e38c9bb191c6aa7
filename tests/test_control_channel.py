"""Control-channel robustness: epoch fencing, retry/backoff, ledger,
degrade-to-SMux, and crash recovery with unacked in-flight commands.

Unit tiers exercise :mod:`repro.control` directly; the integration
tiers drive a real :class:`DuetController` built by the chaos harness
through channel loss/partition and hold the recovered deployment to
fingerprint equality with a never-faulted twin.
"""

from __future__ import annotations

import random

import pytest

from repro.chaos.engine import ChaosConfig, build_controller
from repro.control import (
    ChannelSendError,
    ControlChannel,
    LOSSY_OPS,
    PendingOpsLedger,
    RetryPolicy,
    RetryPolicyError,
)
from repro.core.controller import (
    DuetController,
    SimulatedCrash,
    SwitchAgent,
    SwitchProgrammingError,
)
from repro.dataplane import HMux
from repro.durability import (
    AntiEntropyReconciler,
    WriteAheadJournal,
    controller_fingerprint,
    harvest_dataplane,
)
from repro.net.addressing import Prefix
from repro.net.bgp import MuxKind, VipRouteTable
from repro.workload.vips import Dip, Vip

SWITCH_IP = 0xAC10_0001
VIP = 0x0A00_0042
DIPS = [0x6400_0001, 0x6400_0002, 0x6400_0003]


def make_controller(seed: int = 11, n_vips: int = 10) -> DuetController:
    return build_controller(ChaosConfig(seed=seed, n_vips=n_vips))


def fresh_vip(controller: DuetController, n_dips: int = 2) -> Vip:
    records = controller.records()
    addr = 1 + max(records)
    dip_base = 1 + max(
        d.addr for r in records.values() for d in r.dips
    )
    dips = tuple(
        Dip(addr=dip_base + i, server_id=i,
            tor=controller.topology.server_tor(i))
        for i in range(n_dips)
    )
    vip_id = 1 + max(r.vip.vip_id for r in records.values())
    return Vip(
        vip_id=vip_id, addr=addr, dips=dips, traffic_bps=5e6,
        ingress_racks=(), internet_fraction=1.0,
    )


# ---------------------------------------------------------------------------
# RetryPolicy / RetrySchedule
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_backoff_sequence_doubles_up_to_cap(self):
        policy = RetryPolicy(
            max_attempts=6, base_backoff_s=0.05, max_backoff_s=0.3,
        )
        schedule = policy.start()
        delays = [schedule.next_backoff() for _ in range(5)]
        assert delays == [0.05, 0.1, 0.2, 0.3, 0.3]
        assert schedule.next_backoff() is None
        assert not schedule.timed_out

    def test_attempt_budget_exhausts(self):
        schedule = RetryPolicy(max_attempts=3).start()
        assert schedule.next_backoff() is not None
        assert schedule.next_backoff() is not None
        assert schedule.next_backoff() is None
        assert schedule.retries_issued == 2

    def test_single_attempt_never_retries(self):
        assert RetryPolicy(max_attempts=1).start().next_backoff() is None

    def test_deadline_times_out(self):
        policy = RetryPolicy(
            max_attempts=10, base_backoff_s=0.1, deadline_s=0.25,
        )
        schedule = policy.start()
        assert schedule.next_backoff() == pytest.approx(0.1)
        # Next backoff (0.2) would push cumulative 0.1 -> 0.3 > 0.25.
        assert schedule.next_backoff() is None
        assert schedule.timed_out

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(
            max_attempts=8, base_backoff_s=0.05, jitter=0.5,
            max_backoff_s=100.0,
        )
        a = [policy.start(rng=7).next_backoff() for _ in range(1)]
        b = [policy.start(rng=7).next_backoff() for _ in range(1)]
        assert a == b  # same seed, same jitter
        schedule = policy.start(rng=random.Random(3))
        for k in range(7):
            base = 0.05 * 2 ** k
            delay = schedule.next_backoff()
            assert base <= delay <= base * 1.5

    def test_jitter_without_rng_raises(self):
        with pytest.raises(RetryPolicyError):
            RetryPolicy(jitter=0.2).start()

    def test_invalid_configs_raise(self):
        with pytest.raises(RetryPolicyError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(RetryPolicyError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(RetryPolicyError):
            RetryPolicy(base_backoff_s=1.0, max_backoff_s=0.5)
        with pytest.raises(RetryPolicyError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(RetryPolicyError):
            RetryPolicy(deadline_s=0.0)


# ---------------------------------------------------------------------------
# ControlChannel
# ---------------------------------------------------------------------------

class TestControlChannel:
    def test_send_applies_and_returns(self):
        channel = ControlChannel(seed=1)
        assert channel.send("switch:0", "program_vip", lambda: 42) == 42
        assert channel.stats.sends == channel.stats.applied == 1

    def test_sequence_numbers_increment_per_device(self):
        channel = ControlChannel(seed=1)
        for _ in range(3):
            channel.send("switch:0", "program_vip", lambda: None)
        channel.send("switch:1", "program_vip", lambda: None)
        assert channel.device_watermark("switch:0") == (0, 2)
        assert channel.device_watermark("switch:1") == (0, 0)

    def test_loss_raises_and_nothing_applied(self):
        channel = ControlChannel(seed=1, loss_prob=1.0)
        applied = []
        with pytest.raises(ChannelSendError):
            channel.send("switch:0", "program_vip", lambda: applied.append(1))
        assert applied == []
        assert channel.stats.losses == 1
        assert channel.stats.applied == 0

    def test_loss_only_hits_lossy_ops(self):
        channel = ControlChannel(seed=1, loss_prob=1.0)
        # Withdrawals are reliable (BGP session-loss semantics).
        assert "withdraw_vip" not in LOSSY_OPS
        channel.send("switch:0", "withdraw_vip", lambda: None)
        assert channel.stats.applied == 1

    def test_partition_blocks_programming_not_withdrawal(self):
        channel = ControlChannel(seed=1)
        channel.partition("switch:0")
        with pytest.raises(ChannelSendError):
            channel.send("switch:0", "program_vip", lambda: None)
        channel.send("switch:0", "withdraw_vip", lambda: None)
        # Other devices unaffected.
        channel.send("switch:1", "program_vip", lambda: None)
        assert channel.stats.partition_drops == 1

    def test_heal_lifts_partition(self):
        channel = ControlChannel(seed=1)
        channel.partition("switch:0")
        assert channel.heal("switch:0") == ["switch:0"]
        channel.send("switch:0", "program_vip", lambda: None)
        assert channel.stats.applied == 1

    def test_heal_all_clears_weather(self):
        channel = ControlChannel(seed=1, loss_prob=1.0, delay_prob=1.0)
        channel.partition("switch:0")
        channel.partition("switch:1")
        assert channel.heal() == ["switch:0", "switch:1"]
        assert channel.loss_prob == 0.0 and channel.delay_prob == 0.0

    def test_delayed_duplicate_is_fence_dropped(self):
        channel = ControlChannel(seed=1, delay_prob=1.0)
        applied = []
        channel.send("switch:0", "program_vip", lambda: applied.append(1))
        assert applied == [1]           # original applied immediately
        assert channel.queued_dups() == 1
        channel.pump()
        assert applied == [1]           # duplicate had no side effect
        assert channel.stats.dup_drops == 1
        assert channel.stats.stale_applied == 0

    def test_epoch_bump_fences_queued_dups(self):
        channel = ControlChannel(seed=1, delay_prob=1.0)
        applied = []
        channel.send("switch:0", "program_vip", lambda: applied.append(1))
        channel.bump_epoch()
        channel.pump()
        assert applied == [1]
        assert channel.stats.fence_rejects == 1
        assert channel.stats.stale_applied == 0

    def test_purge_device_drops_dups_keeps_watermark(self):
        channel = ControlChannel(seed=1, delay_prob=1.0)
        channel.send("switch:0", "program_vip", lambda: None)
        watermark = channel.device_watermark("switch:0")
        assert channel.purge_device("switch:0") == 1
        assert channel.queued_dups() == 0
        # Sequence numbers keep growing: post-recovery commands pass.
        assert channel.device_watermark("switch:0") == watermark
        channel.send("switch:0", "program_vip", lambda: None)
        assert channel.stats.applied == 2

    def test_invalid_probabilities_rejected(self):
        channel = ControlChannel(seed=1)
        with pytest.raises(ValueError):
            channel.set_loss(1.5)
        with pytest.raises(ValueError):
            channel.set_delay(-0.1)


class TestPendingOpsLedger:
    def test_ack_settles_ticket(self):
        ledger = PendingOpsLedger()
        ticket = ledger.open("switch:0", "program_vip", vip=VIP)
        assert ledger.pending() == [ticket]
        ledger.ack(ticket)
        assert ledger.pending() == []
        assert ticket.state == "acked"
        assert (ledger.opened, ledger.acked) == (1, 1)

    def test_timeout_hands_device_to_reconciler(self):
        ledger = PendingOpsLedger()
        ticket = ledger.open("switch:3", "program_vip")
        ledger.note_retry(ticket)
        ledger.timeout(ticket)
        assert ticket.state == "timed_out"
        assert ledger.unreconciled == {"switch:3"}
        assert (ledger.retries, ledger.timeouts) == (1, 1)
        ledger.mark_reconciled("switch:3")
        assert ledger.unreconciled == set()

    def test_reject_is_not_a_channel_fault(self):
        ledger = PendingOpsLedger()
        ticket = ledger.open("switch:0", "program_vip")
        ledger.reject(ticket)
        assert ticket.state == "rejected"
        assert ledger.unreconciled == set()  # device is in sync

    def test_mark_reconciled_all(self):
        ledger = PendingOpsLedger()
        ledger.timeout(ledger.open("switch:0", "program_vip"))
        ledger.timeout(ledger.open("switch:1", "program_vip"))
        ledger.mark_reconciled()
        assert ledger.unreconciled == set()


# ---------------------------------------------------------------------------
# SwitchAgent idempotency under duplicate delivery
# ---------------------------------------------------------------------------

def bare_agent() -> SwitchAgent:
    return SwitchAgent(0, HMux(SWITCH_IP), VipRouteTable(), ControlChannel())


def agent_state(agent: SwitchAgent):
    hmux = agent.hmux
    return (
        sorted(hmux.vips()),
        {v: sorted(hmux.dips_of(v)) for v in hmux.vips()},
        hmux.layout_version,
        {
            v: agent.route_table.announcers(Prefix.host(v))
            for v in hmux.vips()
        },
        hmux.counters.packets,
    )


class TestSwitchAgentIdempotency:
    def test_add_vip_reapplied_twice_is_identical(self):
        agent = bare_agent()
        agent.add_vip(VIP, DIPS)
        want = agent_state(agent)
        agent.add_vip(VIP, DIPS)  # duplicate delivery
        assert agent_state(agent) == want

    def test_remove_vip_reapplied_twice_is_identical(self):
        agent = bare_agent()
        agent.add_vip(VIP, DIPS)
        agent.remove_vip(VIP)
        want = agent_state(agent)
        agent.remove_vip(VIP)  # duplicate delivery
        assert agent_state(agent) == want

    def test_remove_dip_reapplied_twice_is_identical(self):
        agent = bare_agent()
        agent.add_vip(VIP, DIPS)
        moved = agent.remove_dip(VIP, DIPS[0])
        assert moved > 0
        want = agent_state(agent)
        assert agent.remove_dip(VIP, DIPS[0]) == 0  # duplicate delivery
        assert agent_state(agent) == want

    def test_port_rules_reapplied_twice_is_identical(self):
        agent = bare_agent()
        agent.add_vip(VIP, DIPS)
        agent.add_vip_port_rules(VIP, [(80, DIPS[:2])])
        want = agent_state(agent)
        agent.add_vip_port_rules(VIP, [(80, DIPS[:2])])
        assert agent_state(agent) == want

    def test_stale_withdraw_after_reprogram_keeps_route(self):
        """The bgp stale-withdraw race at agent level: remove_vip uses
        the captured announce version, so a duplicate of an *old*
        removal cannot erase a fresh re-announcement."""
        agent = bare_agent()
        agent.add_vip(VIP, DIPS)
        stale_version = agent.route_table.announce_version(
            Prefix.host(VIP), agent.mux_ref,
        )
        agent.remove_vip(VIP)
        agent.add_vip(VIP, DIPS)  # re-programmed: fresh announcement
        # The delayed duplicate of the old withdraw arrives now.
        assert not agent.route_table.withdraw(
            Prefix.host(VIP), agent.mux_ref, version=stale_version,
        )
        assert agent.route_table.resolve(VIP) == agent.mux_ref
        assert agent.route_table.stale_withdraws_ignored == 1


# ---------------------------------------------------------------------------
# Controller integration: degrade, heal, reconcile
# ---------------------------------------------------------------------------

class TestControllerDegradeAndHeal:
    def test_total_loss_degrades_to_smux_and_heal_recovers(self):
        controller = make_controller(seed=19)
        controller.channel.set_loss(1.0)
        vip = fresh_vip(controller)
        controller.add_vip(vip)
        # A new VIP starts on SMux coverage; the rebalance that should
        # promote it to an HMux cannot land a single programming op.
        controller.rebalance()
        record = controller.records()[vip.addr]
        assert record.assigned_switch is None
        assert vip.addr in controller.degraded_vips
        assert controller.ledger.timeouts > 0
        assert controller.ledger.unreconciled
        assert controller.programming_stats.op_timeouts > 0
        # SMux aggregates still cover the VIP: resolution works.
        assert (
            controller.route_table.resolve(vip.addr).kind
            is MuxKind.SMUX
        )
        # Channel heals; the next sticky rebalance retries the VIP.
        controller.channel.heal()
        controller.rebalance()
        record = controller.records()[vip.addr]
        assert record.assigned_switch is not None
        assert vip.addr not in controller.degraded_vips
        assert AntiEntropyReconciler(controller).diff() == []

    def test_partitioned_switch_is_avoided_then_reconciled(self):
        controller = make_controller(seed=23)
        vip = fresh_vip(controller)
        # Partition every switch: programming cannot land anywhere.
        for index in sorted(controller.switch_agents):
            controller.channel.partition(f"switch:{index}")
        controller.add_vip(vip)
        controller.rebalance()
        assert vip.addr in controller.degraded_vips
        controller.channel.heal()
        controller.rebalance()
        assert vip.addr not in controller.degraded_vips
        assert AntiEntropyReconciler(controller).diff() == []

    def test_reconciler_clears_ledger_unreconciled(self):
        controller = make_controller(seed=29)
        controller.channel.set_loss(1.0)
        vip = fresh_vip(controller)
        controller.add_vip(vip)
        controller.rebalance()
        assert controller.ledger.unreconciled
        controller.channel.heal()
        report = AntiEntropyReconciler(controller).converge()
        assert report.converged
        assert controller.ledger.unreconciled == set()

    def test_retry_policy_survives_journal_meta(self):
        controller = make_controller(seed=31)
        controller.attach_journal(WriteAheadJournal())
        vip = fresh_vip(controller)
        controller.add_vip(vip)
        restored = DuetController.restore(
            controller.journal,
            dataplane=harvest_dataplane(controller),
            topology=controller.topology,
        )
        assert restored.retry_policy == controller.retry_policy


# ---------------------------------------------------------------------------
# Crash with unacked in-flight commands
# ---------------------------------------------------------------------------

def crash_on_program(controller: DuetController) -> None:
    controller.set_crash_hook(lambda label: label.startswith("program:"))


class TestCrashWithInFlightCommands:
    def test_crash_mid_program_recovers_to_twin(self):
        """The controller dies at the program crash point with the
        ledger ticket still pending (in-flight, unacked).  Recovery must
        roll the journaled intent forward: the restored deployment
        matches a twin that completed the op without crashing."""
        crashed = make_controller(seed=37)
        twin = make_controller(seed=37)
        crashed.attach_journal(WriteAheadJournal())
        vip = fresh_vip(crashed)
        crashed.add_vip(vip)
        crash_on_program(crashed)
        with pytest.raises(SimulatedCrash):
            crashed.rebalance()  # dies at the program crash point
        assert crashed.ledger.pending()  # unacked at the moment of death
        assert crashed.journal.uncommitted()
        restored = DuetController.restore(
            crashed.journal,
            dataplane=harvest_dataplane(crashed),
            topology=crashed.topology,
        )
        AntiEntropyReconciler(restored).converge()
        twin.add_vip(vip)
        twin.rebalance()
        assert (
            controller_fingerprint(restored)
            == controller_fingerprint(twin)
        )

    def test_restored_incarnation_bumps_epoch(self):
        controller = make_controller(seed=41)
        controller.attach_journal(WriteAheadJournal())
        epoch_before = controller.channel.epoch
        restored = DuetController.restore(
            controller.journal,
            dataplane=harvest_dataplane(controller),
            topology=controller.topology,
        )
        assert restored.channel is controller.channel  # harvested
        assert restored.channel.epoch == epoch_before + 1

    def test_dead_incarnations_queued_dups_are_fenced(self):
        """Duplicates queued by the dead incarnation must be fence-
        rejected by the restored one (epoch bump), with zero side
        effects on any device."""
        controller = make_controller(seed=43)
        controller.attach_journal(WriteAheadJournal())
        controller.channel.set_delay(1.0)
        vip = fresh_vip(controller)
        controller.add_vip(vip)
        assert controller.channel.queued_dups() > 0
        controller.channel.set_delay(0.0)
        restored = DuetController.restore(
            controller.journal,
            dataplane=harvest_dataplane(controller),
            topology=controller.topology,
        )
        AntiEntropyReconciler(restored).converge()
        want = controller_fingerprint(restored)
        channel = restored.channel
        rejects_before = channel.stats.fence_rejects
        channel.pump()
        assert channel.stats.fence_rejects > rejects_before
        assert channel.stats.stale_applied == 0
        assert controller_fingerprint(restored) == want
