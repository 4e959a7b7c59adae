"""Measurement records.

Fields prefixed ``gt_`` are ground truth carried along for validation
experiments; analysis code that mimics what a real analyst could do must
not read them (the analyses in :mod:`repro.core` take care to only use the
public fields, and the validation experiments diff their output against
the ``gt_`` fields).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.util.units import MBPS


@dataclass(frozen=True)
class NDTRecord:
    """One NDT download test as logged by the server side."""

    test_id: int
    #: Absolute campaign time in seconds (campaign starts at local midnight).
    timestamp_s: float
    #: Local hour-of-day at the client, in [0, 24).
    local_hour: float
    client_ip: int
    server_id: int
    server_ip: int
    server_asn: int
    server_city: str
    download_bps: float
    rtt_ms: float
    retx_rate: float
    congestion_signals: int
    # --- ground truth (validation only) ---
    gt_client_asn: int
    gt_client_org: str
    gt_crossed_links: tuple[int, ...]
    gt_bottleneck_link: int | None
    gt_bottleneck_kind: str
    #: Flow RTT extremes over the transfer — NDT logs the per-ack RTT
    #: series, so these are part of the public record (used by the TCP
    #: congestion-signature analysis).
    rtt_min_ms: float = 0.0
    rtt_max_ms: float = 0.0
    #: Upstream (client→server) throughput; 0 when not measured.
    upload_bps: float = 0.0

    @property
    def download_mbps(self) -> float:
        return self.download_bps / MBPS

    @property
    def upload_mbps(self) -> float:
        return self.upload_bps / MBPS


class TraceHop(NamedTuple):
    """One TTL step of a traceroute. ``ip`` is None for a non-response (*).

    The per-hop view that :attr:`TracerouteRecord.hops` builds on access;
    records themselves store their hops as two flat columns.
    """

    ttl: int
    ip: int | None
    rtt_ms: float | None


@dataclass(frozen=True, repr=False)
class TracerouteRecord:
    """A Paris traceroute from a measurement server toward a client.

    Hops are stored as two exact tuples of atoms, ``hop_ips`` (None for a
    non-response) and ``hop_rtts``, with the TTL implied by position
    (1..n). Tuples of atoms pickle through the C pickler with no
    per-hop Python call, and the cyclic collector untracks them, so a
    campaign's hundreds of thousands of hops are neither rebuilt one
    object at a time on load nor rescanned on every full collection.
    """

    trace_id: int
    timestamp_s: float
    src_ip: int
    src_asn: int
    dst_ip: int
    hop_ips: tuple[int | None, ...]
    hop_rtts: tuple[float | None, ...]
    reached_destination: bool
    # --- ground truth (validation only) ---
    gt_crossed_links: tuple[int, ...]
    gt_as_path: tuple[int, ...]

    @classmethod
    def from_hops(
        cls,
        trace_id: int,
        timestamp_s: float,
        src_ip: int,
        src_asn: int,
        dst_ip: int,
        hops: Sequence[TraceHop],
        reached_destination: bool,
        gt_crossed_links: tuple[int, ...],
        gt_as_path: tuple[int, ...],
    ) -> "TracerouteRecord":
        """Build a record from per-hop ``TraceHop`` values.

        Raises ``ValueError`` unless the TTLs run 1..n, since the columns
        carry the TTL only as a position.
        """
        for position, hop in enumerate(hops, start=1):
            if hop.ttl != position:
                raise ValueError(
                    f"hop TTLs must run 1..{len(hops)}; "
                    f"position {position} has TTL {hop.ttl}"
                )
        return cls(
            trace_id=trace_id,
            timestamp_s=timestamp_s,
            src_ip=src_ip,
            src_asn=src_asn,
            dst_ip=dst_ip,
            hop_ips=tuple(hop.ip for hop in hops),
            hop_rtts=tuple(hop.rtt_ms for hop in hops),
            reached_destination=reached_destination,
            gt_crossed_links=gt_crossed_links,
            gt_as_path=gt_as_path,
        )

    @property
    def hops(self) -> tuple[TraceHop, ...]:
        """The hops as ``TraceHop`` values, built on each access."""
        return tuple(
            TraceHop(ttl, ip, rtt)
            for ttl, (ip, rtt) in enumerate(zip(self.hop_ips, self.hop_rtts), start=1)
        )

    def __repr__(self) -> str:
        # The repr a dataclass with a ``hops`` field would print: digests
        # of record collections are taken over this text.
        return (
            f"{type(self).__qualname__}(trace_id={self.trace_id!r}, "
            f"timestamp_s={self.timestamp_s!r}, src_ip={self.src_ip!r}, "
            f"src_asn={self.src_asn!r}, dst_ip={self.dst_ip!r}, "
            f"hops={self.hops!r}, "
            f"reached_destination={self.reached_destination!r}, "
            f"gt_crossed_links={self.gt_crossed_links!r}, "
            f"gt_as_path={self.gt_as_path!r})"
        )

    def responding_ips(self) -> list[int]:
        return [ip for ip in self.hop_ips if ip is not None]

    def router_hop_ips(self) -> list[int | None]:
        """TTL-ordered hop addresses (None for ``*``), destination excluded.

        Border-inference algorithms reason about router interfaces; the
        destination host's response is not a router hop and would poison
        adjacency evidence (a last-router→host pair looks like an AS
        boundary whenever the two sit in different prefixes).
        """
        ips = self.hop_ips
        if self.reached_destination and ips and ips[-1] == self.dst_ip:
            return list(ips[:-1])
        return list(ips)
