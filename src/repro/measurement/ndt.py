"""NDT test execution.

One NDT run measures download throughput from a measurement server to a
client over the server→client forwarding path, through the TCP model. The
runner does not decide *when* tests happen or *which* server is used —
that is platform policy (:mod:`repro.platforms.mlab`); it only executes a
test and emits the record.

Execution is split into *plan* and *complete* so callers can batch the
TCP evaluations: :meth:`NDTRunner.plan` routes the flow(s) and assigns
the test id, :meth:`NDTRunner.complete` turns the TCP observations back
into an :class:`NDTRecord`. Routing consumes no randomness, so planning
ahead of evaluation leaves every RNG stream's draw order untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.measurement.records import NDTRecord
from repro.net.batch import ObserveRequest
from repro.net.tcp import PathObservation, TCPModel
from repro.obs import flowprobe
from repro.routing.forwarding import Forwarder, ForwardingPath


@dataclass(frozen=True)
class NDTConfig:
    """NDT execution constants (currently none beyond the TCP model's)."""

    seed: int = 7


@dataclass(frozen=True)
class ClientEndpoint:
    """What the NDT runner needs to know about the client side of a test."""

    ip: int
    asn: int
    org_name: str
    city: str
    plan_rate_bps: float
    home_factor: float
    access_loss: float
    #: Provisioned upstream rate; 0 disables the upstream measurement.
    upload_rate_bps: float = 0.0


@dataclass(frozen=True)
class ServerEndpoint:
    """A measurement server able to serve NDT tests."""

    server_id: int
    ip: int
    asn: int
    city: str


@dataclass(frozen=True)
class PlannedTest:
    """A routed NDT test awaiting its TCP evaluation(s).

    ``requests`` holds the download request and, when the client measures
    upstream and the reverse path routes, the upload request — in the
    order their noise draws must be consumed.
    """

    test_id: int
    client: ClientEndpoint
    server: ServerEndpoint
    timestamp_s: float
    local_hour: float
    path: ForwardingPath
    requests: tuple[ObserveRequest, ...]
    has_upload: bool


class NDTRunner:
    """Executes NDT downloads over an Internet + link-state instance."""

    def __init__(self, forwarder: Forwarder, tcp: TCPModel) -> None:
        self._forwarder = forwarder
        self._tcp = tcp
        self._next_test_id = 1

    def plan(
        self,
        client: ClientEndpoint,
        server: ServerEndpoint,
        timestamp_s: float,
        local_hour: float,
    ) -> PlannedTest | None:
        """Route one test and claim its id; None when the client is unreachable.

        A test id is consumed only when the download path routes — the
        same rule the single-shot path always had.
        """
        test_id = self._next_test_id
        flow_key = ("ndt", test_id, server.server_id, client.ip)
        path = self._forwarder.route_flow(
            server.asn, server.city, client.asn, client.city, flow_key
        )
        if path is None:
            return None
        # Flow probing is opt-in; the key is only built when a recorder
        # is active so the default path stays allocation-free.
        probe_key = (
            ("ndt", client.org_name, test_id)
            if flowprobe.active() is not None
            else None
        )
        requests = [
            ObserveRequest(
                path=path,
                hour=local_hour,
                access_rate_bps=client.plan_rate_bps,
                home_factor=client.home_factor,
                access_loss=client.access_loss,
                probe_key=probe_key,
            )
        ]
        has_upload = False
        if client.upload_rate_bps > 0:
            # Upstream phase: client → server over the *client's* best path
            # (forward/reverse routes can differ — §5.1's asymmetry caveat).
            upstream_path = self._forwarder.route_flow(
                client.asn, client.city, server.asn, server.city,
                ("ndt-up", *flow_key[1:]),
            )
            if upstream_path is not None:
                has_upload = True
                requests.append(
                    ObserveRequest(
                        path=upstream_path,
                        hour=local_hour,
                        access_rate_bps=client.upload_rate_bps,
                        home_factor=client.home_factor,
                        access_loss=client.access_loss,
                    )
                )
        self._next_test_id += 1
        return PlannedTest(
            test_id=test_id,
            client=client,
            server=server,
            timestamp_s=timestamp_s,
            local_hour=local_hour,
            path=path,
            requests=tuple(requests),
            has_upload=has_upload,
        )

    def complete(
        self, planned: PlannedTest, observations: list[PathObservation]
    ) -> tuple[NDTRecord, ForwardingPath]:
        """Assemble the record from a planned test's TCP observations."""
        observation = observations[0]
        upload_bps = observations[1].throughput_bps if planned.has_upload else 0.0
        client = planned.client
        server = planned.server
        record = NDTRecord(
            test_id=planned.test_id,
            timestamp_s=planned.timestamp_s,
            local_hour=planned.local_hour,
            client_ip=client.ip,
            server_id=server.server_id,
            server_ip=server.ip,
            server_asn=server.asn,
            server_city=server.city,
            download_bps=observation.throughput_bps,
            rtt_ms=observation.rtt_ms,
            retx_rate=observation.retx_rate,
            congestion_signals=observation.congestion_signals,
            gt_client_asn=client.asn,
            gt_client_org=client.org_name,
            gt_crossed_links=planned.path.crossed_links,
            gt_bottleneck_link=observation.bottleneck_link_id,
            gt_bottleneck_kind=observation.bottleneck_kind,
            rtt_min_ms=observation.rtt_min_ms,
            rtt_max_ms=observation.rtt_max_ms,
            upload_bps=upload_bps,
        )
        return record, planned.path
