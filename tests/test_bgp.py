"""Tests for repro.net.bgp: LPM route resolution, the Duet backstop glue."""

import pytest

from repro.net.addressing import Prefix, parse_ip
from repro.net.bgp import (
    BgpTimings,
    MuxKind,
    MuxRef,
    RouteResolutionError,
    VipRouteTable,
)

VIP = parse_ip("10.0.0.7")
AGG = Prefix.parse("10.0.0.0/12")


@pytest.fixture()
def table():
    return VipRouteTable()


class TestAnnouncements:
    def test_announce_and_resolve(self, table):
        table.announce(Prefix.host(VIP), MuxRef.hmux(3))
        assert table.resolve(VIP) == MuxRef.hmux(3)

    def test_announce_idempotent(self, table):
        ref = MuxRef.hmux(3)
        assert table.announce(Prefix.host(VIP), ref)
        assert not table.announce(Prefix.host(VIP), ref)

    def test_withdraw_unknown_returns_false(self, table):
        assert not table.withdraw(Prefix.host(VIP), MuxRef.hmux(3))

    def test_no_route_raises(self, table):
        with pytest.raises(RouteResolutionError):
            table.resolve(VIP)

    def test_announced_by(self, table):
        ref = MuxRef.hmux(1)
        table.announce(Prefix.host(VIP), ref)
        table.announce(AGG, ref)
        assert table.announced_by(ref) == {Prefix.host(VIP), AGG}

    def test_len_counts_prefixes(self, table):
        table.announce(Prefix.host(VIP), MuxRef.hmux(1))
        table.announce(AGG, MuxRef.smux(0))
        assert len(table) == 2


class TestStaleWithdrawRace:
    """A withdraw delayed past a fresh re-announce must not erase the
    newer /32 (the reordered-withdraw race): withdraws carry the
    announce version they were issued against."""

    def test_stale_withdraw_ignored(self, table):
        ref = MuxRef.hmux(3)
        host = Prefix.host(VIP)
        table.announce(host, ref)
        stale_version = table.announce_version(host, ref)
        # The VIP migrates away and back: withdraw + fresh announce.
        table.withdraw(host, ref, version=stale_version)
        table.announce(host, ref)
        # Now the original withdraw arrives late, carrying the old
        # version — it must be ignored and the newer route kept.
        assert not table.withdraw(host, ref, version=stale_version)
        assert table.resolve(VIP) == ref
        assert table.announce_version(host, ref) > stale_version

    def test_matching_version_withdraws(self, table):
        ref = MuxRef.hmux(3)
        host = Prefix.host(VIP)
        table.announce(host, ref)
        version = table.announce_version(host, ref)
        assert table.withdraw(host, ref, version=version)
        assert table.next_hops(VIP) == ()
        assert table.announce_version(host, ref) is None

    def test_versionless_withdraw_is_unconditional(self, table):
        ref = MuxRef.hmux(3)
        host = Prefix.host(VIP)
        table.announce(host, ref)
        table.withdraw(host, ref)
        table.announce(host, ref)
        # Session-loss semantics: no version, always applies.
        assert table.withdraw(host, ref)
        assert table.next_hops(VIP) == ()

    def test_reannounce_gets_fresh_version(self, table):
        ref = MuxRef.hmux(3)
        host = Prefix.host(VIP)
        table.announce(host, ref)
        first = table.announce_version(host, ref)
        table.withdraw(host, ref)
        table.announce(host, ref)
        second = table.announce_version(host, ref)
        assert first is not None and second is not None
        assert second > first

    def test_version_of_unannounced_is_none(self, table):
        assert table.announce_version(
            Prefix.host(VIP), MuxRef.hmux(3)
        ) is None

    def test_duplicate_announce_keeps_version(self, table):
        ref = MuxRef.hmux(3)
        host = Prefix.host(VIP)
        table.announce(host, ref)
        version = table.announce_version(host, ref)
        # Redundant announce (no membership change) must not reversion:
        # an in-flight withdraw for the live announcement stays valid.
        table.announce(host, ref)
        assert table.announce_version(host, ref) == version


class TestLpmPreference:
    """The core Duet mechanism: HMux /32 beats SMux aggregate (S3.3.1)."""

    def test_hmux_slash32_wins(self, table):
        table.announce(AGG, MuxRef.smux(0))
        table.announce(Prefix.host(VIP), MuxRef.hmux(5))
        assert table.resolve(VIP).kind is MuxKind.HMUX

    def test_withdrawal_falls_back_to_smux(self, table):
        table.announce(AGG, MuxRef.smux(0))
        table.announce(Prefix.host(VIP), MuxRef.hmux(5))
        table.withdraw(Prefix.host(VIP), MuxRef.hmux(5))
        assert table.resolve(VIP).kind is MuxKind.SMUX

    def test_other_vips_unaffected_by_slash32(self, table):
        table.announce(AGG, MuxRef.smux(0))
        table.announce(Prefix.host(VIP), MuxRef.hmux(5))
        other = parse_ip("10.0.0.8")
        assert table.resolve(other).kind is MuxKind.SMUX


class TestEcmpSets:
    def test_multiple_smuxes_share_aggregate(self, table):
        for i in range(4):
            table.announce(AGG, MuxRef.smux(i))
        chosen = {table.resolve(VIP, flow_hash=h).ident for h in range(64)}
        assert chosen == {0, 1, 2, 3}

    def test_selection_deterministic_in_hash(self, table):
        for i in range(3):
            table.announce(AGG, MuxRef.smux(i))
        assert table.resolve(VIP, 17) == table.resolve(VIP, 17)

    def test_member_removal_respreads(self, table):
        for i in range(2):
            table.announce(AGG, MuxRef.smux(i))
        table.withdraw(AGG, MuxRef.smux(0))
        for h in range(16):
            assert table.resolve(VIP, h) == MuxRef.smux(1)

    def test_announcers(self, table):
        table.announce(AGG, MuxRef.smux(0))
        table.announce(AGG, MuxRef.smux(1))
        assert set(table.announcers(AGG)) == {MuxRef.smux(0), MuxRef.smux(1)}
        assert table.announcers(Prefix.host(VIP)) == ()


class TestWithdrawAll:
    def test_switch_death_withdraws_everything(self, table):
        ref = MuxRef.hmux(2)
        vips = [parse_ip(f"10.0.0.{i}") for i in range(5)]
        for vip in vips:
            table.announce(Prefix.host(vip), ref)
        table.announce(AGG, MuxRef.smux(0))
        assert table.withdraw_all(ref) == 5
        for vip in vips:
            assert table.resolve(vip).kind is MuxKind.SMUX

    def test_withdraw_all_empty(self, table):
        assert table.withdraw_all(MuxRef.hmux(9)) == 0

    def test_has_route(self, table):
        assert table.next_hops(VIP) == ()
        table.announce(AGG, MuxRef.smux(0))
        assert table.next_hops(VIP) == (MuxRef.smux(0),)

    def test_routes_iteration(self, table):
        table.announce(AGG, MuxRef.smux(0))
        table.announce(Prefix.host(VIP), MuxRef.hmux(1))
        routes = list(table.routes())
        assert routes[0][0].length == 32  # longest first


def vip_add_s(timings):
    """End-to-end latency to add a VIP to an HMux and converge."""
    return timings.fib_update_vip_s + timings.announce_propagation_s


class TestTimings:
    def test_failover_is_about_38ms(self):
        # Figure 12: traffic resumes on SMux within ~38 ms.
        assert BgpTimings().failover_s == pytest.approx(0.038, abs=0.005)

    def test_vip_add_dominated_by_fib(self):
        t = BgpTimings()
        assert t.fib_update_vip_s / vip_add_s(t) > 0.8  # "80-90%" (S7.3)

    def test_vip_add_in_figure13_band(self):
        # Figure 13 measures ~400-450 ms per migration step.
        assert 0.3 <= vip_add_s(BgpTimings()) <= 0.6

    def test_dip_update_fast(self):
        t = BgpTimings()
        assert t.dip_update_s < vip_add_s(t) / 5
