"""Tests for repro.dataplane.hashing: the shared hash and resilience."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane.hashing import (
    EcmpSelector,
    HashingError,
    ResilientHashTable,
    five_tuple_hash,
)
from repro.dataplane.packet import FiveTuple, PROTO_TCP

flows = st.builds(
    FiveTuple,
    src_ip=st.integers(min_value=0, max_value=0xFFFFFFFF),
    dst_ip=st.integers(min_value=0, max_value=0xFFFFFFFF),
    src_port=st.integers(min_value=0, max_value=0xFFFF),
    dst_port=st.integers(min_value=0, max_value=0xFFFF),
    protocol=st.integers(min_value=0, max_value=0xFF),
)


def flow(i: int = 0) -> FiveTuple:
    return FiveTuple(0x0A000001 + i, 0x0B000001, 1000 + i, 80, PROTO_TCP)


class TestFiveTupleHash:
    def test_deterministic(self):
        assert five_tuple_hash(flow()) == five_tuple_hash(flow())

    def test_seed_changes_hash(self):
        assert five_tuple_hash(flow(), 0) != five_tuple_hash(flow(), 1)

    def test_different_flows_differ(self):
        assert five_tuple_hash(flow(0)) != five_tuple_hash(flow(1))

    @given(flows)
    def test_in_64bit_range(self, f):
        h = five_tuple_hash(f)
        assert 0 <= h < 2 ** 64

    @given(flows, flows)
    def test_collision_unlikely(self, a, b):
        if a != b:
            assert five_tuple_hash(a) != five_tuple_hash(b)

    def test_reasonable_distribution(self):
        buckets = [0] * 8
        for i in range(4000):
            buckets[five_tuple_hash(flow(i)) % 8] += 1
        assert max(buckets) < 2 * min(buckets)


class TestEcmpSelector:
    def test_requires_members(self):
        with pytest.raises(HashingError):
            EcmpSelector([])

    def test_selects_member(self):
        selector = EcmpSelector([10, 20, 30])
        assert selector.select(flow()) in (10, 20, 30)

    def test_deterministic(self):
        selector = EcmpSelector([10, 20, 30])
        assert selector.select(flow(5)) == selector.select(flow(5))

    def test_spreads_flows(self):
        selector = EcmpSelector([0, 1, 2, 3])
        chosen = {selector.select(flow(i)) for i in range(100)}
        assert chosen == {0, 1, 2, 3}


class TestResilientHashTable:
    def test_requires_members(self):
        with pytest.raises(HashingError):
            ResilientHashTable([])

    def test_rejects_duplicates(self):
        with pytest.raises(HashingError):
            ResilientHashTable([1, 1])

    def test_rejects_too_few_slots(self):
        with pytest.raises(HashingError):
            ResilientHashTable([1, 2, 3], n_slots=2)

    def test_balanced_slot_counts(self):
        table = ResilientHashTable([1, 2, 3, 4], n_slots=256)
        counts = Counter(table.slots())
        assert sum(counts.values()) == 256
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_select_consistent(self):
        table = ResilientHashTable([1, 2, 3], n_slots=64)
        assert table.select(flow(9)) == table.select(flow(9))

    def test_removal_only_remaps_victims(self):
        """THE resilient-hashing property (S5.1): removing a member never
        remaps flows of surviving members."""
        table = ResilientHashTable([1, 2, 3, 4], n_slots=128)
        before = {i: table.select(flow(i)) for i in range(500)}
        table.remove_member(3)
        for i, owner in before.items():
            if owner != 3:
                assert table.select(flow(i)) == owner

    def test_removal_rebalances(self):
        table = ResilientHashTable([1, 2, 3, 4], n_slots=128)
        table.remove_member(1)
        counts = Counter(table.slots())
        assert set(counts) == {2, 3, 4}
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_cannot_remove_last(self):
        table = ResilientHashTable([1], n_slots=8)
        with pytest.raises(HashingError):
            table.remove_member(1)

    def test_remove_unknown(self):
        table = ResilientHashTable([1, 2], n_slots=8)
        with pytest.raises(HashingError):
            table.remove_member(9)

    def test_addition_meets_quota(self):
        table = ResilientHashTable([1, 2], n_slots=64)
        table.add_member(3)
        counts = Counter(table.slots())
        assert counts[3] >= 64 // 3

    def test_addition_remaps_some_flows(self):
        """Addition is NOT resilient — the reason Duet bounces DIP
        additions through SMux (S5.2)."""
        table = ResilientHashTable([1, 2], n_slots=64)
        before = {i: table.select(flow(i)) for i in range(300)}
        table.add_member(3)
        remapped = sum(
            1 for i, owner in before.items() if table.select(flow(i)) != owner
        )
        assert remapped > 0

    def test_add_existing_rejected(self):
        table = ResilientHashTable([1, 2], n_slots=8)
        with pytest.raises(HashingError):
            table.add_member(2)

    def test_wcmp_weights(self):
        table = ResilientHashTable(
            [1, 2], n_slots=90, weights=[2.0, 1.0]
        )
        counts = Counter(table.slots())
        assert counts[1] == 60 and counts[2] == 30

    def test_wcmp_flow_split(self):
        table = ResilientHashTable([1, 2], n_slots=120, weights=[3.0, 1.0])
        hits = {1: 0, 2: 0}
        for i in range(2000):
            hits[table.select(flow(i))] += 1
        assert 2.0 < hits[1] / hits[2] < 4.5

    def test_weights_must_be_positive(self):
        with pytest.raises(HashingError):
            ResilientHashTable([1, 2], weights=[1.0, 0.0])

    def test_weights_must_match(self):
        with pytest.raises(HashingError):
            ResilientHashTable([1, 2], weights=[1.0])

    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30)
    def test_removal_resilience_property(self, n_members, probe_seed):
        members = list(range(n_members))
        table = ResilientHashTable(members, n_slots=64)
        probes = [flow(probe_seed + i) for i in range(50)]
        before = {p: table.select(p) for p in probes}
        victim = members[probe_seed % n_members]
        table.remove_member(victim)
        for p, owner in before.items():
            if owner != victim:
                assert table.select(p) == owner
