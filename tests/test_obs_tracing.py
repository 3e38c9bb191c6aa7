"""Control-plane tracing tests: tracer mechanics, the traced
``migrate_vip`` causal tree, crash/replay of the migrate op, and the
per-packet tap."""

from __future__ import annotations

import json

import pytest

from repro.chaos.engine import ChaosConfig, build_controller
from repro.core.controller import (
    ControllerError,
    DuetController,
    SimulatedCrash,
)
from repro.durability import (
    AntiEntropyReconciler,
    WriteAheadJournal,
    controller_fingerprint,
    harvest_dataplane,
)
from repro.obs import (
    PacketTap,
    Tracer,
    TracingError,
    maybe_span,
    span_attrs,
    trace_event,
)


def make_controller(seed: int = 11, n_vips: int = 12) -> DuetController:
    return build_controller(ChaosConfig(seed=seed, n_vips=n_vips))


def restore_warm(controller: DuetController) -> DuetController:
    restored = DuetController.restore(
        controller.journal,
        dataplane=harvest_dataplane(controller),
        topology=controller.topology,
    )
    AntiEntropyReconciler(restored).converge()
    return restored


def hmux_assigned_vip(controller: DuetController) -> int:
    records = controller.records()
    return next(
        addr for addr in sorted(records)
        if records[addr].assigned_switch is not None
    )


def other_switch(controller: DuetController, avoid) -> int:
    return next(
        index for index in sorted(controller.switch_agents)
        if index != avoid and index not in controller.failed_switches
    )


class TestTracerMechanics:
    def test_nesting_builds_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None
        assert tracer.roots() == [outer]
        assert tracer.children(outer.span_id) == [inner]

    def test_timestamps_totally_ordered(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                pass
        assert a.start < b.start < b.end < a.end
        assert a.finished and a.duration == 3

    def test_separate_roots_get_separate_traces(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        ids = {s.trace_id for s in tracer.spans()}
        assert len(ids) == 2

    def test_exception_recorded_and_reraised(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        span = tracer.find("doomed")[0]
        assert span.finished
        assert span.attrs["error"] == "ValueError: boom"

    def test_finish_out_of_order_rejected(self):
        tracer = Tracer()
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        with pytest.raises(TracingError):
            tracer.finish(outer)

    def test_clear_with_open_span_rejected(self):
        tracer = Tracer()
        tracer.start_span("open")
        with pytest.raises(TracingError):
            tracer.clear()

    def test_event_is_finished_child(self):
        tracer = Tracer()
        with tracer.span("op") as op:
            event = tracer.event("journal.append", seq=3)
        assert event.finished
        assert event.parent_id == op.span_id
        assert event.attrs == {"seq": 3}

    def test_render_and_json_lines(self):
        tracer = Tracer()
        with tracer.span("op", vip="10.0.0.1"):
            tracer.event("step")
        text = tracer.render()
        assert "op [trace 1" in text and "└─ step" in text
        rows = [json.loads(line) for line in tracer.to_json_lines()]
        assert {r["name"] for r in rows} == {"op", "step"}

    def test_null_tracer_helpers(self):
        with maybe_span(None, "anything") as span:
            assert span is None
        trace_event(None, "nothing")  # no-op, no error
        assert span_attrs({"a": 1, "b": "x", "c": [1, 2], "d": None}) == {
            "a": 1, "b": "x", "d": None,
        }


class TestTracedMigration:
    def test_migrate_vip_yields_full_causal_tree(self):
        controller = make_controller()
        controller.attach_journal(WriteAheadJournal())
        tracer = Tracer()
        controller.attach_tracer(tracer)
        vip = hmux_assigned_vip(controller)
        source = controller.records()[vip].assigned_switch
        target = other_switch(controller, source)

        assert controller.migrate_vip(vip, target) == target

        roots = tracer.roots()
        assert [r.name for r in roots] == ["op:migrate_vip"]
        names = {s.name for s in tracer.spans()}
        assert {
            "journal.append", "migrate.withdraw", "bgp.withdraw",
            "migrate.smux_transit", "migrate.reprogram",
            "hmux.program", "bgp.announce", "journal.commit",
        } <= names
        # The transit span names the SMux backstop that carried traffic.
        transit = tracer.find("migrate.smux_transit")[0]
        assert transit.attrs["backstop"].startswith("smux:")
        # Causal order: withdraw finished before reprogram started.
        withdraw = tracer.find("migrate.withdraw")[0]
        reprogram = tracer.find("migrate.reprogram")[0]
        assert withdraw.end < reprogram.start

    def test_untraced_migrate_is_equivalent(self):
        traced = make_controller(seed=7)
        plain = make_controller(seed=7)
        traced.attach_tracer(Tracer())
        vip = hmux_assigned_vip(traced)
        source = traced.records()[vip].assigned_switch
        target = other_switch(traced, source)
        assert traced.migrate_vip(vip, target) == plain.migrate_vip(
            vip, target)
        assert (controller_fingerprint(traced)
                == controller_fingerprint(plain))

    def test_migrate_semantics(self):
        controller = make_controller()
        vip = hmux_assigned_vip(controller)
        record = controller.records()[vip]
        source = record.assigned_switch
        target = other_switch(controller, source)

        assert controller.migrate_vip(vip, target) == target
        record = controller.records()[vip]
        assert record.assigned_switch == target
        assert str(controller.route_table.resolve(vip, 0)) == f"hmux:{target}"
        assert controller.assignment.vip_to_switch[record.vip.vip_id] == target
        # Migrating to where it already lives is a no-op.
        assert controller.migrate_vip(vip, target) == target

    def test_migrate_validations(self):
        controller = make_controller()
        vip = hmux_assigned_vip(controller)
        with pytest.raises(ControllerError):
            controller.migrate_vip(vip, 10_000)
        dead = other_switch(controller, None)
        controller.fail_switch(dead)
        with pytest.raises(ControllerError):
            controller.migrate_vip(vip, dead)

    @pytest.mark.parametrize("crash_at", [1, 2, 3])
    def test_crash_during_migrate_rolls_forward(self, crash_at):
        """Killing the controller at any migrate crash point and
        restoring from the journal lands in the same state as a
        never-crashed twin that ran the same migration."""
        crashed = make_controller(seed=23)
        twin = make_controller(seed=23)
        crashed.attach_journal(WriteAheadJournal())
        vip = hmux_assigned_vip(crashed)
        source = crashed.records()[vip].assigned_switch
        target = other_switch(crashed, source)
        state = {"n": crash_at}

        def hook(label: str) -> bool:
            state["n"] -= 1
            return state["n"] <= 0

        crashed.set_crash_hook(hook)
        with pytest.raises(SimulatedCrash):
            crashed.migrate_vip(vip, target)
        assert crashed.journal.uncommitted()
        restored = restore_warm(crashed)
        twin.migrate_vip(vip, target)
        assert (controller_fingerprint(restored)
                == controller_fingerprint(twin)), f"crash point {crash_at}"

    def test_committed_migrate_replays(self):
        controller = make_controller(seed=5)
        controller.attach_journal(WriteAheadJournal())
        vip = hmux_assigned_vip(controller)
        source = controller.records()[vip].assigned_switch
        target = other_switch(controller, source)
        controller.migrate_vip(vip, target)
        restored = restore_warm(controller)
        assert restored.records()[vip].assigned_switch == target


class TestPacketTap:
    def test_sampling_rate(self):
        tap = PacketTap(sample_every=3)
        hits = [tap.begin(object()) is not None for _ in range(9)]
        assert hits == [True, False, False] * 3
        assert tap.seen == 9 and tap.sampled == 3

    def test_capacity_bound(self):
        tap = PacketTap(sample_every=1, capacity=4)
        for _ in range(10):
            tap.begin(object())
        records = tap.records()
        assert len(records) == 4
        assert records[0].index == 6  # oldest records dropped

    def test_hop_on_skipped_packet_is_noop(self):
        PacketTap.hop(None, "route.resolve", mux="hmux:0")

    def test_invalid_config_rejected(self):
        with pytest.raises(TracingError):
            PacketTap(sample_every=0)
        with pytest.raises(TracingError):
            PacketTap(capacity=0)

    def test_tapped_forward_records_decap_encap_path(self):
        from repro.dataplane.packet import make_tcp_packet
        from repro.workload.vips import CLIENT_POOL

        controller = make_controller()
        tap = PacketTap(sample_every=1)
        controller.attach_tap(tap)
        vip = hmux_assigned_vip(controller)
        packet = make_tcp_packet(CLIENT_POOL.network + 9, vip, 40000, 80)
        controller.forward(packet)

        [record] = tap.records()
        assert record.hop_names() == [
            "route.resolve", "hmux.encap", "host.decap",
        ]
        assert record.hops[1]["mux"].startswith("hmux:")
        rows = [json.loads(line) for line in tap.to_json_lines()]
        assert rows[0]["flow"]["dst_ip"] == vip
        assert tap.render()  # human rendering is non-empty

    def test_smux_path_visible(self):
        controller = make_controller()
        tap = PacketTap(sample_every=1)
        controller.attach_tap(tap)
        records = controller.records()
        smux_vip = next(
            (addr for addr in sorted(records)
             if records[addr].assigned_switch is None), None)
        if smux_vip is None:
            vip = hmux_assigned_vip(controller)
            source = records[vip].assigned_switch
            controller.fail_switch(source)
            smux_vip = vip
        from repro.dataplane.packet import make_tcp_packet
        from repro.workload.vips import CLIENT_POOL

        controller.forward(
            make_tcp_packet(CLIENT_POOL.network + 1, smux_vip, 41000, 80))
        assert "smux.encap" in tap.records()[-1].hop_names()
