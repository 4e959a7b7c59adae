"""Month-long crowdsourced NDT campaigns.

Generates the May-2015-style dataset the paper analyses: volunteers launch
NDT tests against M-Lab with a strong evening arrival bias (§6.1), some as
single tests and some as Battle-for-the-Net-style bursts against several
regional sites (§2.2). After every test the serving site's single-threaded
Paris traceroute daemon tries to trace back to the client — and silently
skips when still busy, producing the incomplete NDT↔traceroute matching
of §4.1.

Tests are executed in timestamp order so daemon contention is physical,
not an artifact of generation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.measurement.ndt import ClientEndpoint, NDTRunner
from repro.measurement.records import NDTRecord, TracerouteRecord
from repro.measurement.traceroute import TracerouteEngine
from repro.net.diurnal import crowdsourced_test_intensity
from repro.obs import metrics
from repro.obs.log import get_logger
from repro.net.tcp import TCPModel
from repro.platforms.clients import Client, ClientPopulation
from repro.platforms.mlab import MLabPlatform, MLabServer
from repro.routing.forwarding import Forwarder
from repro.topology.internet import Internet
from repro.util.gcpause import gc_paused
from repro.util.rng import derive_random

_SECONDS_PER_DAY = 86_400.0

_log = get_logger(__name__)

_CAMPAIGNS = metrics.counter("campaign.runs")
_TESTS = metrics.counter("campaign.ndt_tests")
_TRACES = metrics.counter("campaign.traceroutes")
_LOST_TRACES = metrics.counter("campaign.traces_lost_to_busy_daemon")

#: Events per TCP evaluation block. Within a block, tests are still
#: planned and completed strictly in timestamp order; only the TCP
#: arithmetic is dispatched in bulk. Blocks bound peak memory and keep
#: the batch hot in cache; the exact size never affects output because
#: ``observe_batch`` preserves the noise stream's draw order.
_EVENT_BLOCK = 1024


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 7
    days: int = 28
    total_tests: int = 50_000
    #: Restrict volunteering clients to these orgs (None = all access orgs).
    orgs: tuple[str, ...] | None = None
    #: "nearest" (M-Lab backend), "regional" (Battle-for-the-Net wrapper),
    #: or "direct" (topology-aware: only directly connected hosts, §7).
    selection_policy: str = "nearest"
    #: Probability a session is a multi-test burst against several sites.
    burst_prob: float = 0.30
    #: Burst size range (inclusive).
    burst_tests: tuple[int, int] = (2, 5)
    #: Gap between tests in a burst, seconds.
    burst_gap_s: tuple[float, float] = (20.0, 75.0)
    #: NDT test duration (throughput phase), seconds.
    test_duration_s: float = 10.0


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    config: CampaignConfig
    ndt_records: list[NDTRecord]
    traceroute_records: list[TracerouteRecord]
    servers_by_id: dict[int, MLabServer]

    def tests_toward_org(self, org_name: str) -> list[NDTRecord]:
        return [r for r in self.ndt_records if r.gt_client_org == org_name]


# Builds tens of thousands of acyclic, long-lived records: no cycles to find.
@gc_paused()
def run_ndt_campaign(
    internet: Internet,
    population: ClientPopulation,
    platform: MLabPlatform,
    forwarder: Forwarder,
    tcp: TCPModel,
    config: CampaignConfig | None = None,
    traceroute_engine: TracerouteEngine | None = None,
) -> CampaignResult:
    """Simulate a crowdsourced NDT campaign and return all records."""
    if config is None:
        config = CampaignConfig()
    rng = derive_random(config.seed, "campaign")
    runner = NDTRunner(forwarder, tcp)
    engine = traceroute_engine if traceroute_engine is not None else TracerouteEngine(
        internet, forwarder
    )
    platform.reset_daemons()

    orgs = list(config.orgs) if config.orgs is not None else population.orgs()
    clients_by_org: dict[str, list[Client]] = {}
    weights = []
    for org in orgs:
        clients = population.clients_of(org)
        if not clients:
            raise ValueError(f"org {org!r} has no clients")
        clients_by_org[org] = clients
        weights.append(float(len(clients)))

    # --- schedule individual test events -------------------------------
    # Each session expands into per-test events up front; the whole event
    # list is then executed in global time order so the single-threaded
    # traceroute daemons see arrivals exactly as wall-clock would deliver
    # them (bursts from different sessions interleave).
    events: list[tuple[float, Client, MLabServer]] = []
    scheduled_tests = 0
    while scheduled_tests < config.total_tests:
        org = rng.choices(orgs, weights=weights, k=1)[0]
        client = rng.choice(clients_by_org[org])
        n_tests = 1
        if rng.random() < config.burst_prob:
            n_tests = rng.randint(*config.burst_tests)
        n_tests = min(n_tests, config.total_tests - scheduled_tests)
        day = rng.randrange(config.days)
        hour = _sample_local_hour(rng)
        now = day * _SECONDS_PER_DAY + hour * 3600.0 + rng.uniform(0, 59)
        sites = platform.select_regional_sites(client.city, count=5)
        for test_index in range(n_tests):
            if config.selection_policy == "direct":
                server = platform.select_server_direct(client.city, client.asn, rng)
            elif config.selection_policy == "regional":
                server = rng.choice(platform.servers_at(rng.choice(sites)))
            elif n_tests > 1:
                # Battle-for-the-Net bursts walk the regional site list.
                site = sites[test_index % len(sites)]
                server = rng.choice(platform.servers_at(site))
            else:
                server = platform.select_server(client.city, rng, config.selection_policy)
            events.append((now, client, server))
            now += rng.uniform(*config.burst_gap_s)
        scheduled_tests += n_tests
    events.sort(key=lambda e: e[0])

    # --- execute in time order ------------------------------------------
    _log.info(
        "campaign start: %d tests over %d days across %d orgs (seed=%d)",
        config.total_tests, config.days, len(orgs), config.seed,
    )
    # Blocked execution: plan (draw conditions + route) every event of a
    # block in timestamp order, evaluate all the block's TCP transfers in
    # one observe_batch call, then complete records and run the daemon /
    # traceroute machinery — still in timestamp order. Each RNG stream's
    # internal draw order is exactly what the per-event loop produced
    # (campaign draws in the plan phase, TCP noise inside the batch,
    # daemon and traceroute draws in the completion phase), so records
    # are byte-identical to unblocked execution.
    ndt_records: list[NDTRecord] = []
    traceroutes: list[TracerouteRecord] = []
    for start in range(0, len(events), _EVENT_BLOCK):
        block = events[start:start + _EVENT_BLOCK]
        planned_tests = []
        for now, client, server in block:
            local_hour = (now % _SECONDS_PER_DAY) / 3600.0
            conditions = population.draw_conditions(client, local_hour, rng)
            endpoint = ClientEndpoint(
                ip=client.ip,
                asn=client.asn,
                org_name=client.org_name,
                city=client.city,
                plan_rate_bps=conditions.effective_plan_bps,
                home_factor=conditions.home_factor,
                access_loss=conditions.access_loss,
                upload_rate_bps=conditions.effective_upload_bps,
            )
            planned = runner.plan(
                endpoint, server.endpoint(), timestamp_s=now, local_hour=local_hour
            )
            if planned is not None:
                planned_tests.append((planned, server))

        observations = tcp.observe_batch(
            [req for planned, _ in planned_tests for req in planned.requests]
        )

        cursor = 0
        for planned, server in planned_tests:
            n_requests = len(planned.requests)
            record, _path = runner.complete(
                planned, observations[cursor:cursor + n_requests]
            )
            cursor += n_requests
            ndt_records.append(record)
            test_end = planned.timestamp_s + config.test_duration_s
            if platform.daemon_try_acquire(server.site, test_end) is None:
                _LOST_TRACES.inc()
            else:
                trace = engine.trace(
                    src_ip=server.ip,
                    src_asn=server.asn,
                    src_city=server.city,
                    dst_ip=planned.client.ip,
                    dst_asn=planned.client.asn,
                    dst_city=planned.client.city,
                    timestamp_s=test_end + 1.0,
                    flow_key=("paris", server.site, planned.client.ip, record.test_id),
                )
                if trace is not None:
                    traceroutes.append(trace)

    _CAMPAIGNS.inc()
    _TESTS.inc(len(ndt_records))
    _TRACES.inc(len(traceroutes))
    _log.info(
        "campaign done: %d NDT records, %d traceroutes (%d lost to busy daemons)",
        len(ndt_records), len(traceroutes), len(ndt_records) - len(traceroutes),
    )
    return CampaignResult(
        config=config,
        ndt_records=ndt_records,
        traceroute_records=traceroutes,
        servers_by_id={s.server_id: s for s in platform.servers()},
    )


def _sample_local_hour(rng) -> float:
    """Rejection-sample a local hour from the crowdsourced demand curve."""
    while True:
        hour = rng.uniform(0.0, 24.0)
        if rng.random() < crowdsourced_test_intensity(hour):
            return hour
