"""The columnar connection table against a plain ``dict``.

``BatchSMux`` and ``SMux.process`` share one ``ConnectionTable``, so the
batch-vs-scalar differential no longer says anything about the table
itself.  This is its own oracle: Hypothesis interleaves scalar
get / pin / pop, batched lookup-or-pin (duplicate rows, rows with no
VIP), per-VIP and per-port eviction with survivor sets, and holds the
table equal to a dict after every step.

Every machine runs twice: with the real five-tuple hash, and with a
degenerate one that sends every flow to one of four home slots, so probe
chains run through live, deleted and reused slots on every operation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dataplane.conntable import INITIAL_CAPACITY, ConnectionTable
from repro.dataplane.hashing import five_tuple_hash
from repro.dataplane.packet import PROTO_TCP, FiveTuple

VIPS = [0x64_0000_01 + k for k in range(3)]
PORTS = [80, 443]
DIPS = [0x0A_0001_00 + j for j in range(5)]


def real_hash(flow: FiveTuple) -> int:
    return five_tuple_hash(flow, 7)


def degenerate_hash(flow: FiveTuple) -> int:
    # 0 and 1 are the table's own empty / deleted marks: a flow hashing
    # to them must still be storable.
    return five_tuple_hash(flow, 7) & 3


# 192 flows: small enough that rules keep meeting flows already stored.
flows = st.builds(
    FiveTuple,
    src_ip=st.integers(0, 7),
    dst_ip=st.sampled_from(VIPS),
    src_port=st.integers(1000, 1003),
    dst_port=st.sampled_from(PORTS),
    protocol=st.just(PROTO_TCP),
)
dips = st.sampled_from(DIPS)


def batch_arrays(hash_fn, rows: List[Tuple[FiveTuple, int]]):
    batch = [flow for flow, _choice in rows]
    return (
        np.array([hash_fn(f) for f in batch], np.uint64),
        np.array(
            [[f.src_ip, f.dst_ip, f.src_port, f.dst_port, f.protocol]
             for f in batch], np.uint64,
        ).reshape(len(batch), 5).T,
        np.array([choice for _flow, choice in rows], np.int64),
    )


class TableMachine(RuleBasedStateMachine):
    hash_fn = staticmethod(real_hash)

    def __init__(self) -> None:
        super().__init__()
        self.table = ConnectionTable()
        self.model: Dict[FiveTuple, int] = {}

    @rule(flow=flows)
    def get(self, flow: FiveTuple) -> None:
        assert self.table.get(self.hash_fn(flow), flow) == self.model.get(flow)

    @rule(flow=flows, dip=dips)
    def pin(self, flow: FiveTuple, dip: int) -> None:
        if flow not in self.model:
            self.table.pin(self.hash_fn(flow), flow, dip)
            self.model[flow] = dip

    @rule(flow=flows)
    def pop(self, flow: FiveTuple) -> None:
        assert (
            self.table.pop(self.hash_fn(flow), flow)
            == self.model.pop(flow, None)
        )

    # A negative choice is a row whose destination is no VIP.
    @rule(rows=st.lists(
        st.tuples(flows, st.one_of(dips, st.just(-1))), max_size=64,
    ))
    def lookup_or_pin(self, rows: List[Tuple[FiveTuple, int]]) -> None:
        expected, prior, new = [], [], 0
        before = dict(self.model)
        for flow, choice in rows:
            if choice < 0:
                expected.append(-1)
                prior.append(-1)
                continue
            if flow not in self.model:
                self.model[flow] = choice
                new += 1
            expected.append(self.model[flow])
            prior.append(before.get(flow, -1))
        held = len(self.table)
        got, was = self.table.lookup_or_pin(*batch_arrays(self.hash_fn, rows))
        assert got.tolist() == expected
        assert was.tolist() == prior
        assert len(self.table) - held == new

    @rule(
        vip=st.sampled_from(VIPS),
        port=st.one_of(st.none(), st.sampled_from(PORTS)),
        survivors=st.lists(dips, unique=True),
    )
    def evict(self, vip: int, port: Optional[int], survivors: List[int]) -> None:
        stale = [
            flow for flow, dip in self.model.items()
            if flow.dst_ip == vip
            and (port is None or flow.dst_port == port)
            and dip not in survivors
        ]
        for flow in stale:
            del self.model[flow]
        assert self.table.evict(vip, port, survivors) == len(stale)

    @invariant()
    def equals_the_dict(self) -> None:
        assert len(self.table) == len(self.model)
        assert dict(self.table.items()) == self.model
        # ... and every entry is reachable by probing, not just stored.
        for flow, dip in self.model.items():
            assert self.table.get(self.hash_fn(flow), flow) == dip

    @invariant()
    def half_the_slots_stay_empty(self) -> None:
        capacity = self.table.capacity
        assert capacity >= INITIAL_CAPACITY and capacity & (capacity - 1) == 0
        used = int(np.count_nonzero(self.table._tag))
        assert 2 * used <= capacity


class DegenerateTableMachine(TableMachine):
    hash_fn = staticmethod(degenerate_hash)


TableMachine.TestCase.settings = DegenerateTableMachine.TestCase.settings = (
    settings(max_examples=60, stateful_step_count=40, deadline=None)
)
TestTable = TableMachine.TestCase
TestTableDegenerateHash = DegenerateTableMachine.TestCase


@pytest.mark.parametrize("hash_fn", [real_hash, degenerate_hash])
def test_growth_churn_and_slot_reuse(hash_fn) -> None:
    """A seeded stream sized so the table doubles several times, then
    churns at a constant size: deleted slots are reused or rebuilt away
    and the capacity stops moving."""
    rng = np.random.default_rng(5)
    table, model = ConnectionTable(), {}

    def some_flows(n: int) -> List[FiveTuple]:
        return [
            FiveTuple(int(s), VIPS[int(s) % 3], 1000 + int(p), 80, PROTO_TCP)
            for s, p in zip(rng.integers(0, 400, n), rng.integers(0, 4, n))
        ]

    def resolve(batch: List[FiveTuple]) -> None:
        rows = [(flow, DIPS[flow.src_ip % 5]) for flow in batch]
        got, _prior = table.lookup_or_pin(*batch_arrays(hash_fn, rows))
        for flow, choice in rows:
            model.setdefault(flow, choice)
        assert got.tolist() == [model[flow] for flow in batch]

    # One call with more first-seen flows than the table has slots.
    resolve(some_flows(150))
    assert table.capacity >= 4 * INITIAL_CAPACITY
    for flow in some_flows(120):       # scalar pins grow it the same way
        if flow not in model:
            table.pin(hash_fn(flow), flow, DIPS[0])
            model[flow] = DIPS[0]
    assert dict(table.items()) == model
    grown = table.capacity
    assert grown >= 8 * INITIAL_CAPACITY

    for round_no in range(30):
        victims = list(model)[round_no::7]
        for flow in victims:
            assert table.pop(hash_fn(flow), flow) == model.pop(flow)
        resolve(victims[::2] + some_flows(8))
        assert dict(table.items()) == model
        for flow in victims:           # popped and not re-pinned: gone
            assert table.get(hash_fn(flow), flow) == model.get(flow)
    assert table.capacity <= 2 * grown


def test_an_unused_table_is_small() -> None:
    table = ConnectionTable()
    held = sum(
        a.nbytes for a in (table._tag, table._keys, table._dip)
    )
    assert held <= 4096
    assert table.evict(VIPS[0]) == 0 and len(table) == 0
