"""NDT and traceroute dataset I/O.

CSV for NDT rows (flat, analyst-friendly, mirrors the BigQuery export
shape) and JSONL for traceroutes (hop lists nest naturally). Addresses are
serialized dotted-quad for interoperability with external tooling.

Round-tripping preserves every public field exactly; ground-truth fields
are written only when ``include_ground_truth=True`` and default to absent
on load (so analyses written against public exports cannot accidentally
lean on them).
"""

from __future__ import annotations

import csv
import json
from typing import Iterable

from repro.measurement.records import NDTRecord, TraceHop, TracerouteRecord
from repro.util.ip import format_ip, parse_ip

_NDT_PUBLIC_FIELDS = [
    "test_id",
    "timestamp_s",
    "local_hour",
    "client_ip",
    "server_id",
    "server_ip",
    "server_asn",
    "server_city",
    "download_bps",
    "upload_bps",
    "rtt_ms",
    "rtt_min_ms",
    "rtt_max_ms",
    "retx_rate",
    "congestion_signals",
]

_NDT_GT_FIELDS = [
    "gt_client_asn",
    "gt_client_org",
    "gt_crossed_links",
    "gt_bottleneck_link",
    "gt_bottleneck_kind",
]


def write_ndt_csv(
    records: Iterable[NDTRecord],
    path: str,
    include_ground_truth: bool = False,
) -> int:
    """Write NDT records as CSV; returns the row count."""
    fields = list(_NDT_PUBLIC_FIELDS)
    if include_ground_truth:
        fields += _NDT_GT_FIELDS
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        for record in records:
            row = []
            for field in fields:
                value = getattr(record, field)
                if field in ("client_ip", "server_ip"):
                    value = format_ip(value)
                elif field == "gt_crossed_links":
                    value = ";".join(str(l) for l in value)
                elif field == "gt_bottleneck_link" and value is None:
                    value = ""
                row.append(value)
            writer.writerow(row)
            count += 1
    return count


def load_ndt_csv(path: str) -> list[NDTRecord]:
    """Load NDT records from CSV (ground-truth columns optional)."""
    records: list[NDTRecord] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            has_gt = "gt_client_org" in row
            crossed: tuple[int, ...] = ()
            bottleneck = None
            if has_gt:
                raw = row.get("gt_crossed_links", "")
                crossed = tuple(int(x) for x in raw.split(";") if x)
                raw_link = row.get("gt_bottleneck_link", "")
                bottleneck = int(raw_link) if raw_link else None
            records.append(
                NDTRecord(
                    test_id=int(row["test_id"]),
                    timestamp_s=float(row["timestamp_s"]),
                    local_hour=float(row["local_hour"]),
                    client_ip=parse_ip(row["client_ip"]),
                    server_id=int(row["server_id"]),
                    server_ip=parse_ip(row["server_ip"]),
                    server_asn=int(row["server_asn"]),
                    server_city=row["server_city"],
                    download_bps=float(row["download_bps"]),
                    rtt_ms=float(row["rtt_ms"]),
                    retx_rate=float(row["retx_rate"]),
                    congestion_signals=int(row["congestion_signals"]),
                    gt_client_asn=int(row["gt_client_asn"]) if has_gt else 0,
                    gt_client_org=row.get("gt_client_org", ""),
                    gt_crossed_links=crossed,
                    gt_bottleneck_link=bottleneck,
                    gt_bottleneck_kind=row.get("gt_bottleneck_kind", ""),
                    rtt_min_ms=float(row.get("rtt_min_ms", 0.0) or 0.0),
                    rtt_max_ms=float(row.get("rtt_max_ms", 0.0) or 0.0),
                    upload_bps=float(row.get("upload_bps", 0.0) or 0.0),
                )
            )
    return records


def write_traceroutes_jsonl(
    traces: Iterable[TracerouteRecord],
    path: str,
    include_ground_truth: bool = False,
) -> int:
    """Write traceroutes as JSONL; returns the line count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for trace in traces:
            payload = {
                "trace_id": trace.trace_id,
                "timestamp_s": trace.timestamp_s,
                "src_ip": format_ip(trace.src_ip),
                "src_asn": trace.src_asn,
                "dst_ip": format_ip(trace.dst_ip),
                "reached_destination": trace.reached_destination,
                "hops": [
                    {
                        "ttl": hop.ttl,
                        "ip": format_ip(hop.ip) if hop.ip is not None else None,
                        "rtt_ms": hop.rtt_ms,
                    }
                    for hop in trace.hops
                ],
            }
            if include_ground_truth:
                payload["gt_crossed_links"] = list(trace.gt_crossed_links)
                payload["gt_as_path"] = list(trace.gt_as_path)
            handle.write(json.dumps(payload) + "\n")
            count += 1
    return count


def load_traceroutes_jsonl(path: str) -> list[TracerouteRecord]:
    """Load traceroutes from JSONL (ground truth optional).

    Raises ``ValueError`` naming the line when a trace's hop TTLs do not
    run 1..n.
    """
    traces: list[TracerouteRecord] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            hops = [
                TraceHop(
                    ttl=hop["ttl"],
                    ip=parse_ip(hop["ip"]) if hop["ip"] is not None else None,
                    rtt_ms=hop["rtt_ms"],
                )
                for hop in payload["hops"]
            ]
            try:
                trace = TracerouteRecord.from_hops(
                    trace_id=payload["trace_id"],
                    timestamp_s=payload["timestamp_s"],
                    src_ip=parse_ip(payload["src_ip"]),
                    src_asn=payload["src_asn"],
                    dst_ip=parse_ip(payload["dst_ip"]),
                    hops=hops,
                    reached_destination=payload["reached_destination"],
                    gt_crossed_links=tuple(payload.get("gt_crossed_links", ())),
                    gt_as_path=tuple(payload.get("gt_as_path", ())),
                )
            except ValueError as error:
                raise ValueError(f"{path}:{line_number}: {error}") from error
            traces.append(trace)
    return traces
