"""Property tests for batched resilient hashing (ISSUE 2 satellite).

The batch engine's cached slot layouts are snapshots of live
:class:`ResilientHashTable` state.  These properties pin the contract
after arbitrary DIP-removal sequences:

* the cached layout matches the hash table **slot for slot**,
* removal protection holds — a removal only rewrites the slots of the
  removed member; every other flow keeps its target (paper S5.1),
* batched ECMP selection over those layouts picks the same target the
  scalar ``select`` does for every flow,
* the caches' key is structural: every public method of ``HMux`` and
  ``SMux`` is classified as read-only or as a programming op, and a
  programming op that changes what the pipeline forwards moves
  ``layout_version``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dataplane import (
    BatchHMux,
    FlowBatch,
    HashingError,
    HMux,
    HMuxError,
    ResilientHashTable,
    SMux,
    SMuxError,
    TableEntryError,
)
from repro.dataplane.packet import FiveTuple, PROTO_TCP, Packet
from repro.net.topology import SwitchTableSpec

VIP = 0x64_0000_01
DIP_BASE = 0x0A_0001_00
TABLES = SwitchTableSpec(host_table=256, ecmp_table=4096, tunnel_table=4096)


@st.composite
def removal_sequence(draw):
    n_members = draw(st.integers(2, 12))
    weighted = draw(st.booleans())
    weights = (
        [float(draw(st.integers(1, 3))) for _ in range(n_members)]
        if weighted else None
    )
    # Up to n-1 removals, as indices into the shrinking member list.
    n_removals = draw(st.integers(0, n_members - 1))
    picks = [draw(st.integers(0, 31)) for _ in range(n_removals)]
    seed = draw(st.integers(0, 2 ** 16))
    return n_members, weights, picks, seed


@given(removal_sequence())
@settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_removal_protection_and_slot_layout(scenario) -> None:
    """After every removal in a random sequence: (a) untouched slots
    keep their member (removal protection), (b) the HMux's flattened
    layout equals the hash table's ``slots()`` mapped through the tunnel
    table, slot for slot."""
    n_members, weights, picks, seed = scenario
    dips = [DIP_BASE + j for j in range(n_members)]
    hmux = HMux(0x0A00_0001, tables=TABLES, hash_seed=seed)
    hmux.program_vip(VIP, dips, weights)
    # A twin hash table driven with the same removals, as the reference.
    state = hmux._vips[VIP]
    before = list(state.hash_table.slots())
    for pick in picks:
        current = hmux.dips_of(VIP)
        if len(current) <= 1:
            break
        victim = current[pick % len(current)]
        victim_member = next(
            m for m in state.hash_table.members
            if hmux.tunnel_table.get(m) == victim
        )
        hmux.remove_dip(VIP, victim)
        after = list(state.hash_table.slots())
        # Removal protection: only the victim's old slots changed.
        for slot, (old, new) in enumerate(zip(before, after)):
            if old != victim_member:
                assert new == old, (
                    f"slot {slot} remapped {old}->{new} though "
                    f"{victim_member} was removed"
                )
            else:
                assert new != victim_member
        before = after
        # The flattened layout the batch engine caches tracks exactly.
        assert hmux.slot_targets(VIP) == [
            hmux.tunnel_table.get(m) for m in after
        ]


@given(removal_sequence(), st.integers(0, 2 ** 32 - 1))
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_batch_ecmp_matches_scalar_select(scenario, flow_seed) -> None:
    """Batched slot selection over the cached layout equals scalar
    ``ResilientHashTable.select`` for a spread of flows, after any
    removal sequence."""
    n_members, weights, picks, seed = scenario
    dips = [DIP_BASE + j for j in range(n_members)]
    hmux = HMux(0x0A00_0001, tables=TABLES, hash_seed=seed)
    hmux.program_vip(VIP, dips, weights)
    for pick in picks:
        current = hmux.dips_of(VIP)
        if len(current) <= 1:
            break
        hmux.remove_dip(VIP, current[pick % len(current)])

    rng = np.random.default_rng(flow_seed)
    n = 200
    batch = FlowBatch.from_fields(
        src_ip=rng.integers(0, 1 << 32, n, dtype=np.uint64),
        dst_ip=np.full(n, VIP, np.uint64),
        src_port=rng.integers(1024, 65536, n, dtype=np.uint64),
        dst_port=np.full(n, 80, np.uint64),
        protocol=np.full(n, PROTO_TCP, np.uint64),
    )
    engine = BatchHMux(hmux)
    got = engine.process(batch)
    state = hmux._vips[VIP]
    for i in range(n):
        flow = batch.flow_at(i)
        expected = hmux.tunnel_table.get(state.hash_table.select(flow))
        assert int(got.target[i]) == expected, f"row {i}: {flow}"


def test_slot_layout_is_weight_proportional() -> None:
    """WCMP sanity: the flattened layout holds each member's slot count
    in (integer) weight proportion — the invariant the batch engine
    inherits by snapshotting ``slots()``."""
    table = ResilientHashTable([1, 2, 3], n_slots=12, seed=9,
                               weights=[3.0, 2.0, 1.0])
    counts = Counter(table.slots())
    assert counts[1] == 3 * counts[3]
    assert counts[2] == 2 * counts[3]
    assert counts[1] + counts[2] + counts[3] == 12
    assert len(table.slots()) == 12


# -- layout_version is structural --------------------------------------------
#
# BatchHMux/BatchSMux serve cached slot layouts until ``layout_version``
# moves, so a programming op that forgets to move it is silent stale
# forwarding.  Every public method is therefore classified below; a new
# one fails ``test_every_public_mux_method_is_classified`` until it is.

MUX_VIPS = [VIP + k for k in range(3)]
MUX_PORTS = [80, 443]
MUX_DIPS = [DIP_BASE + j for j in range(6)]

#: Never change what the pipeline forwards (``process`` and the
#: connection-table methods move ``conn_version``, not the layout;
#: ``HMux.add_dip`` always raises).
LAYOUT_READ_ONLY = {
    HMux: {
        "add_dip", "process", "has_vip", "has_vip_port",
        "has_evolved_layout", "vips", "is_tip", "port_rules",
        "slot_targets", "port_slot_targets", "dips_of",
    },
    SMux: {
        "has_vip", "vips", "dips_of", "port_vips", "slot_dips",
        "slot_layouts", "process", "lookup_or_pin",
        "connection_count", "connections", "pinned_dip",
    },
}

_vip = st.sampled_from(MUX_VIPS)
_port = st.sampled_from(MUX_PORTS)
_dip = st.sampled_from(MUX_DIPS)
_dips = st.lists(_dip, max_size=4, unique=True)

#: Programming ops: arguments that change forwarding on the mux
#: ``programmed`` builds, and a strategy for arbitrary (often invalid)
#: ones.
LAYOUT_MUTATORS = {
    HMux: {
        "reset": ((), st.tuples()),
        "program_vip": ((MUX_VIPS[1], MUX_DIPS[:2]), st.tuples(_vip, _dips)),
        "program_vip_port": (
            (MUX_VIPS[0], 443, MUX_DIPS[:2]), st.tuples(_vip, _port, _dips),
        ),
        "remove_vip": ((MUX_VIPS[0],), st.tuples(_vip)),
        "remove_vip_port": ((MUX_VIPS[0], 80), st.tuples(_vip, _port)),
        "remove_dip": ((MUX_VIPS[0], MUX_DIPS[0]), st.tuples(_vip, _dip)),
    },
    SMux: {
        "set_vip": ((MUX_VIPS[1], MUX_DIPS[:2]), st.tuples(_vip, _dips)),
        "set_vip_port": (
            (MUX_VIPS[0], 443, MUX_DIPS[:2]), st.tuples(_vip, _port, _dips),
        ),
        "remove_vip_port": ((MUX_VIPS[0], 80), st.tuples(_vip, _port)),
        "remove_vip": ((MUX_VIPS[0],), st.tuples(_vip)),
    },
}

MUTATOR_CASES = [
    (cls, name) for cls, ops in LAYOUT_MUTATORS.items() for name in ops
]


def programmed(cls):
    """A mux serving ``MUX_VIPS[0]`` VIP-wide and on port 80."""
    if cls is HMux:
        mux = HMux(0x0A00_0001, tables=TABLES)
        mux.program_vip(MUX_VIPS[0], MUX_DIPS[:3])
        mux.program_vip_port(MUX_VIPS[0], 80, MUX_DIPS[3:5])
    else:
        mux = SMux(0, 0x1E00_0001)
        mux.set_vip(MUX_VIPS[0], MUX_DIPS[:3])
        mux.set_vip_port(MUX_VIPS[0], 80, MUX_DIPS[3:5])
    return mux


def forwarding(mux):
    """Everything the batch engines cache: per-slot targets and DIP sets
    of every VIP, per-slot targets of every port rule."""
    if isinstance(mux, HMux):
        return (
            {v: (mux.slot_targets(v), mux.dips_of(v)) for v in mux.vips()},
            {k: mux.port_slot_targets(*k) for k in mux.port_rules()},
        )
    return (
        {v: (mux.slot_dips(v), mux.dips_of(v)) for v in mux.vips()},
        {k: pool.tolist() for k, pool in zip(*mux.slot_layouts()[1])},
    )


@pytest.mark.parametrize("cls", [HMux, SMux])
def test_every_public_mux_method_is_classified(cls) -> None:
    public = {
        name for name, member in vars(cls).items()
        if not name.startswith("_") and callable(member)
    }
    mutators = set(LAYOUT_MUTATORS[cls])
    assert not LAYOUT_READ_ONLY[cls] & mutators
    assert public == LAYOUT_READ_ONLY[cls] | mutators


@pytest.mark.parametrize("cls, name", MUTATOR_CASES)
def test_each_programming_op_moves_layout_version(cls, name) -> None:
    mux = programmed(cls)
    before, version = forwarding(mux), mux.layout_version
    getattr(mux, name)(*LAYOUT_MUTATORS[cls][name][0])
    assert forwarding(mux) != before, "example no longer changes forwarding"
    assert mux.layout_version != version


def _programming_ops(cls):
    return st.lists(
        st.one_of(*(
            st.tuples(st.just(name), args)
            for name, (_, args) in LAYOUT_MUTATORS[cls].items()
        )),
        max_size=16,
    )


@pytest.mark.parametrize("cls", [HMux, SMux])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_changed_forwarding_means_changed_layout_version(cls, data) -> None:
    """Across arbitrary programming sequences, rejected calls included:
    whenever what the mux forwards differs, so does the cache key."""
    mux = programmed(cls)
    for name, args in data.draw(_programming_ops(cls)):
        before, version = forwarding(mux), mux.layout_version
        try:
            getattr(mux, name)(*args)
        except (HMuxError, SMuxError, HashingError, TableEntryError):
            pass
        if forwarding(mux) != before:
            assert mux.layout_version != version, (name, args)
