"""Tests for repro.net.addressing: parsing, prefixes, LPM, allocation."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addressing import (
    AddressAllocator,
    AddressError,
    LpmTable,
    Prefix,
    format_ip,
    parse_ip,
    prefix_mask,
)


class TestParseFormat:
    def test_parse_simple(self):
        assert parse_ip("10.0.0.1") == (10 << 24) + 1

    def test_parse_zero(self):
        assert parse_ip("0.0.0.0") == 0

    def test_parse_max(self):
        assert parse_ip("255.255.255.255") == 0xFFFFFFFF

    def test_format_roundtrip(self):
        assert format_ip(parse_ip("192.168.17.254")) == "192.168.17.254"

    @pytest.mark.parametrize("bad", [
        "10.0.0", "10.0.0.0.0", "10.0.0.256", "a.b.c.d", "10..0.1", "",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(AddressError):
            parse_ip(bad)

    def test_format_rejects_out_of_range(self):
        with pytest.raises(AddressError):
            format_ip(1 << 32)
        with pytest.raises(AddressError):
            format_ip(-1)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip_property(self, addr):
        assert parse_ip(format_ip(addr)) == addr


class TestPrefixMask:
    def test_mask_zero(self):
        assert prefix_mask(0) == 0

    def test_mask_32(self):
        assert prefix_mask(32) == 0xFFFFFFFF

    def test_mask_24(self):
        assert prefix_mask(24) == 0xFFFFFF00

    def test_mask_out_of_range(self):
        with pytest.raises(AddressError):
            prefix_mask(33)


class TestPrefix:
    def test_parse_with_length(self):
        p = Prefix.parse("10.0.0.0/8")
        assert p.network == 10 << 24
        assert p.length == 8

    def test_parse_bare_address_is_host(self):
        assert Prefix.parse("10.1.2.3").length == 32

    def test_rejects_host_bits(self):
        with pytest.raises(AddressError):
            Prefix(parse_ip("10.0.0.1"), 24)

    def test_contains(self):
        p = Prefix.parse("10.0.0.0/24")
        assert p.contains(parse_ip("10.0.0.200"))
        assert not p.contains(parse_ip("10.0.1.0"))

    def test_covers(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.5.0.0/16")
        assert outer.contains(inner.network)
        assert outer.contains(inner.last_address)
        assert not inner.contains(outer.network)

    def test_covers_self(self):
        p = Prefix.parse("10.0.0.0/24")
        assert p.contains(p.network) and p.contains(p.last_address)

    def test_num_addresses(self):
        assert Prefix.parse("10.0.0.0/24").num_addresses == 256
        assert Prefix.parse("10.0.0.0/32").num_addresses == 1

    def test_hosts_count(self):
        p = Prefix.parse("10.0.0.0/30")
        assert p.last_address - p.network + 1 == 4
        assert p.last_address == parse_ip("10.0.0.3")

    def test_str(self):
        assert str(Prefix.parse("10.0.0.0/12")) == "10.0.0.0/12"

    def test_ordering_deterministic(self):
        a = Prefix.parse("10.0.0.0/24")
        b = Prefix.parse("10.0.1.0/24")
        assert a < b

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF),
           st.integers(min_value=0, max_value=32))
    def test_host_prefix_canonicalizes(self, addr, length):
        network = addr & prefix_mask(length)
        p = Prefix(network, length)
        assert p.contains(addr)


class TestLpmTable:
    def test_empty_lookup(self):
        assert LpmTable().lookup(parse_ip("10.0.0.1")) is None

    def test_exact_match(self):
        table = LpmTable()
        table.insert(Prefix.parse("10.0.0.1/32"), "host")
        assert table.lookup(parse_ip("10.0.0.1")) == "host"
        assert table.lookup(parse_ip("10.0.0.2")) is None

    def test_longest_prefix_wins(self):
        table = LpmTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "agg")
        table.insert(Prefix.parse("10.1.0.0/16"), "mid")
        table.insert(Prefix.parse("10.1.1.1/32"), "host")
        assert table.lookup(parse_ip("10.1.1.1")) == "host"
        assert table.lookup(parse_ip("10.1.1.2")) == "mid"
        assert table.lookup(parse_ip("10.2.0.0")) == "agg"

    def test_lookup_with_prefix(self):
        table = LpmTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "agg")
        prefix, value = table.lookup_with_prefix(parse_ip("10.9.9.9"))
        assert prefix == Prefix.parse("10.0.0.0/8")
        assert value == "agg"

    def test_remove_reveals_shorter(self):
        table = LpmTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "agg")
        table.insert(Prefix.parse("10.1.1.1/32"), "host")
        assert table.remove(Prefix.parse("10.1.1.1/32"))
        assert table.lookup(parse_ip("10.1.1.1")) == "agg"

    def test_remove_missing_returns_false(self):
        assert not LpmTable().remove(Prefix.parse("10.0.0.0/8"))

    def test_insert_replaces(self):
        table = LpmTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "old")
        table.insert(Prefix.parse("10.0.0.0/8"), "new")
        assert len(table) == 1
        assert table.lookup(parse_ip("10.0.0.1")) == "new"

    def test_len_tracks_inserts_and_removes(self):
        table = LpmTable()
        table.insert(Prefix.parse("10.0.0.0/8"), 1)
        table.insert(Prefix.parse("11.0.0.0/8"), 2)
        assert len(table) == 2
        table.remove(Prefix.parse("10.0.0.0/8"))
        assert len(table) == 1

    def test_default_route(self):
        table = LpmTable()
        table.insert(Prefix.parse("0.0.0.0/0"), "default")
        assert table.lookup(parse_ip("203.0.113.5")) == "default"

    def test_entries_longest_first(self):
        table = LpmTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "a")
        table.insert(Prefix.parse("10.1.1.1/32"), "b")
        entries = list(table.entries())
        assert entries[0][0].length == 32
        assert entries[-1][0].length == 8

    def test_get_exact_does_not_lpm(self):
        table = LpmTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "agg")
        assert table.get_exact(Prefix.parse("10.1.0.0/16")) is None

    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=0xFFFFFFFF),
            st.integers(min_value=0, max_value=32),
        ),
        min_size=1, max_size=20,
    ))
    def test_lookup_matches_linear_scan(self, raw):
        table = LpmTable()
        prefixes = []
        for addr, length in raw:
            p = Prefix(addr & prefix_mask(length), length)
            table.insert(p, str(p))
            prefixes.append(p)
        probe = raw[0][0]
        expected = max(
            (p for p in prefixes if p.contains(probe)),
            key=lambda p: p.length,
            default=None,
        )
        got = table.lookup(probe)
        if expected is None:
            assert got is None
        else:
            # Equal-length duplicates collapse; compare the prefix itself.
            match = table.lookup_with_prefix(probe)
            assert match is not None
            assert match[0].length == expected.length


class TestAddressAllocator:
    def test_sequential(self):
        alloc = AddressAllocator(Prefix.parse("10.0.0.0/30"))
        assert [alloc.allocate() for _ in range(4)] == [
            parse_ip("10.0.0.0"), parse_ip("10.0.0.1"),
            parse_ip("10.0.0.2"), parse_ip("10.0.0.3"),
        ]

    def test_exhaustion(self):
        alloc = AddressAllocator(Prefix.parse("10.0.0.0/31"))
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(AddressError):
            alloc.allocate()

    def test_counts(self):
        alloc = AddressAllocator(Prefix.parse("10.0.0.0/24"))
        alloc.allocate_block(10)
        assert alloc.allocated == 10
        assert alloc.remaining == 246

    def test_allocate_block(self):
        alloc = AddressAllocator(Prefix.parse("10.0.0.0/28"))
        block = alloc.allocate_block(5)
        assert len(set(block)) == 5
