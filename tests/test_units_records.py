"""Tests for units helpers and measurement records."""

import gc
import pickle

import pytest

from repro.measurement.records import NDTRecord, TraceHop, TracerouteRecord
from repro.util.units import GBPS, KBPS, MBPS, mbps, seconds_to_hours


class TestUnits:
    def test_constants_ordering(self):
        assert KBPS < MBPS < GBPS

    def test_mbps(self):
        assert mbps(25_000_000.0) == 25.0

    def test_seconds_to_hours(self):
        assert seconds_to_hours(3600.0) == 1.0
        assert seconds_to_hours(86400.0 + 1800.0) == 0.5  # wraps the day

    def test_seconds_to_hours_range(self):
        for s in (0, 1, 86399, 86400, 100000):
            assert 0 <= seconds_to_hours(s) < 24


def _record(**overrides):
    base = dict(
        test_id=1, timestamp_s=0.0, local_hour=12.0, client_ip=9,
        server_id=1, server_ip=2, server_asn=3, server_city="atl",
        download_bps=25_000_000.0, rtt_ms=20.0, retx_rate=0.0,
        congestion_signals=0, gt_client_asn=4, gt_client_org="X",
        gt_crossed_links=(), gt_bottleneck_link=None, gt_bottleneck_kind="access",
    )
    base.update(overrides)
    return NDTRecord(**base)


class TestNDTRecord:
    def test_download_mbps(self):
        assert _record().download_mbps == 25.0

    def test_rtt_extremes_default(self):
        record = _record()
        assert record.rtt_min_ms == 0.0
        assert record.rtt_max_ms == 0.0


class TestTracerouteRecord:
    def _trace(self, hops, reached, dst_ip=99):
        return TracerouteRecord.from_hops(
            trace_id=1, timestamp_s=0.0, src_ip=1, src_asn=1, dst_ip=dst_ip,
            hops=tuple(hops), reached_destination=reached,
            gt_crossed_links=(), gt_as_path=(1,),
        )

    def test_responding_ips_drops_stars(self):
        trace = self._trace(
            [TraceHop(1, 10, 1.0), TraceHop(2, None, None), TraceHop(3, 11, 2.0)],
            reached=False,
        )
        assert trace.responding_ips() == [10, 11]

    def test_router_hops_strip_destination_only_when_reached(self):
        hops = [TraceHop(1, 10, 1.0), TraceHop(2, 99, 2.0)]
        reached = self._trace(hops, reached=True)
        assert reached.router_hop_ips() == [10]
        unreached = self._trace(hops, reached=False)
        assert unreached.router_hop_ips() == [10, 99]

    def test_router_hops_keep_nonmatching_tail(self):
        # reached flag set but last hop is not the destination address
        # (should not happen, but must not silently drop a router hop).
        hops = [TraceHop(1, 10, 1.0), TraceHop(2, 55, 2.0)]
        trace = self._trace(hops, reached=True)
        assert trace.router_hop_ips() == [10, 55]

    def _three_hop(self):
        # One silent hop, destination reached as the last hop.
        return self._trace(
            [TraceHop(1, 10, 1.5), TraceHop(2, None, None), TraceHop(3, 99, 4.25)],
            reached=True,
        )

    def test_repr_keeps_per_hop_format(self):
        assert repr(self._three_hop()) == (
            "TracerouteRecord(trace_id=1, timestamp_s=0.0, src_ip=1, src_asn=1, "
            "dst_ip=99, hops=(TraceHop(ttl=1, ip=10, rtt_ms=1.5), "
            "TraceHop(ttl=2, ip=None, rtt_ms=None), "
            "TraceHop(ttl=3, ip=99, rtt_ms=4.25)), reached_destination=True, "
            "gt_crossed_links=(), gt_as_path=(1,))"
        )

    def test_pickle_round_trip_carries_no_hop_objects(self):
        trace = self._three_hop()
        data = pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.loads(data) == trace
        assert b"TraceHop" not in data

    def test_hop_columns_untracked_by_collector(self):
        trace = self._three_hop()
        gc.collect()
        assert not gc.is_tracked(trace.hop_ips)
        assert not gc.is_tracked(trace.hop_rtts)

    def test_from_hops_rejects_ttl_gap(self):
        with pytest.raises(ValueError, match="TTL"):
            self._trace([TraceHop(1, 10, 1.0), TraceHop(3, 11, 2.0)], reached=False)
