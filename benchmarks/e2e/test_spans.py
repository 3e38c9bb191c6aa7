"""Span recorder: self-time arithmetic and wrap/restore behaviour."""

from __future__ import annotations

import types

import pytest

from .spans import SpanRecorder, Target, TraceError, TraceSummary


def test_self_time_of_nested_and_sibling_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8].
    spans = [
        ["root", "bench", 0.0, 10.0, -1, 0],
        ["a", "x", 1.0, 4.0, 0, 0],
        ["b", "y", 5.0, 9.0, 0, 0],
        ["c", "x", 6.0, 8.0, 2, 0],
    ]
    summary = TraceSummary(spans)
    assert summary.self_s("root") == pytest.approx(3.0)   # 10 - 3 - 4
    assert summary.self_s("a") == pytest.approx(3.0)
    assert summary.self_s("b") == pytest.approx(2.0)      # 4 - 2
    assert summary.self_s("c") == pytest.approx(2.0)
    assert summary.layer_self_s == pytest.approx({"bench": 3.0, "x": 5.0, "y": 2.0})
    # Self times partition the root: nothing is counted twice or lost.
    assert sum(summary.layer_self_s.values()) == pytest.approx(summary.root_s)
    assert summary.total_under_s("b", "c") == pytest.approx(2.0)
    assert summary.total_under_s("root", "c") == 0.0


class Plain:
    def work(self, x):
        return x + 1


class Child(Plain):
    pass


def test_wrapped_callables_are_restored():
    original = Plain.__dict__["work"]
    recorder = SpanRecorder()
    with recorder.patched([
        Target(Plain, "work", "plain.work", "layer"),
        Target(Child, "work", "child.work", "layer"),   # inherited attribute
    ]):
        assert Plain().work(1) == 2
        assert Child().work(1) == 2
    assert Plain.__dict__["work"] is original
    assert "work" not in Child.__dict__
    # Child().work ran both wrappers: its own, then Plain's beneath it.
    assert [s[0] for s in recorder.spans] == ["plain.work", "child.work", "plain.work"]
    assert recorder.spans[2][4] == 1      # nested under child.work


def test_wrapped_callables_are_restored_on_exception():
    original = Plain.__dict__["work"]
    recorder = SpanRecorder()
    with pytest.raises(ZeroDivisionError):
        with recorder.patched([Target(Plain, "work", "plain.work", "layer")]):
            Plain().work(1)
            1 / 0
    assert Plain.__dict__["work"] is original
    assert recorder._stack == []


def test_span_closes_when_the_wrapped_call_raises():
    class Boom:
        def go(self):
            raise ValueError("boom")

    recorder = SpanRecorder()
    with recorder.patched([Target(Boom, "go", "boom.go", "layer")]):
        with pytest.raises(ValueError):
            Boom().go()
    (span,) = recorder.spans
    assert span[3] >= span[2] > 0.0
    assert recorder._stack == []


class Slotted:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 3

    def get(self):
        return self.value


def test_slotted_class_wraps_and_slotted_instance_is_reported():
    recorder = SpanRecorder()
    with recorder.patched([Target(Slotted, "get", "slotted.get", "layer")]):
        assert Slotted().get() == 3
    assert len(recorder.spans) == 1
    # An instance of a slotted class cannot take the wrapper: reported.
    with pytest.raises(TraceError, match="Slotted"):
        with recorder.patched([Target(Slotted(), "get", "slotted.get", "layer")]):
            pass


def test_unwrappable_targets_are_reported_not_skipped():
    recorder = SpanRecorder()
    for target in (
        Target(Plain, "missing", "x", "layer"),
        Target(dict, "get", "x", "layer"),            # built-in type
        Target(types.SimpleNamespace(n=3), "n", "x", "layer"),   # not callable
    ):
        with pytest.raises(TraceError):
            with recorder.patched([target]):
                pass


def test_module_function_and_callback_child_span():
    module = types.ModuleType("fake")

    class Channel:
        def send(self, device, op, fn):
            return fn()

    module.helper = lambda: 7
    recorder = SpanRecorder()
    with recorder.patched([
        Target(module, "helper", "fake.helper", "layer"),
        Target(Channel, "send", "channel.send", "channel", callback_arg=2,
               callback_name="channel.apply", callback_layer="device"),
    ]):
        assert module.helper() == 7
        assert Channel().send("switch:1", "program_vip", lambda: 5) == 5
    assert module.helper() == 7 and len(recorder.spans) == 3
    names = [(s[0], s[1], s[4]) for s in recorder.spans]
    assert names == [
        ("fake.helper", "layer", -1),
        ("channel.send", "channel", -1),
        ("channel.apply", "device", 1),
    ]
    summary = recorder.summary()
    assert summary.self_s("channel.send") == pytest.approx(
        summary.total_s("channel.send") - summary.total_s("channel.apply")
    )


def test_unit_ids_and_jsonl(tmp_path):
    recorder = SpanRecorder()
    recorder.unit = 41
    with recorder.span("epoch", "bench"):
        pass
    path = tmp_path / "trace.jsonl"
    recorder.write_jsonl(path)
    (line,) = path.read_text().splitlines()
    assert '"unit_id": 41' in line and '"parent_id": -1' in line
