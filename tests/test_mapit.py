"""Unit tests for MAP-IT on hand-built boundary scenarios, an
integration accuracy check on the generated world, and the per-result
link index behind ``annotate_trace`` on the golden corpus."""

import pickle

import pytest

from repro.inference.borders import OriginOracle
from repro.inference.mapit import MapIt, MapItConfig
from repro.measurement.traceroute import TracerouteConfig
from repro.topology.addressing import Prefix, PrefixTable
from repro.topology.asgraph import AS, ASGraph, ASRole, Relationship
from repro.topology.orgs import Organization, OrgMap
from repro.util.ip import parse_ip
from tests.test_trace_batch_equivalence import (
    GOLDEN_MAPIT_SHA,
    _engine,
    _golden_requests,
    _mapit_digest,
)

A_ASN, B_ASN = 100, 200

A_CORE = parse_ip("10.0.0.2")
B_CORE = parse_ip("10.1.0.2")
B_ACCESS = parse_ip("10.1.0.4")


def _world(ixp=False):
    table = PrefixTable()
    table.insert(Prefix(parse_ip("10.0.0.0"), 16, A_ASN))
    table.insert(Prefix(parse_ip("10.1.0.0"), 16, B_ASN))
    ixp_prefixes = []
    if ixp:
        ixp_prefixes.append(Prefix(parse_ip("10.9.0.0"), 24, 0))
    graph = ASGraph()
    graph.add_as(AS(A_ASN, "A", ASRole.TIER1))
    graph.add_as(AS(B_ASN, "B", ASRole.ACCESS))
    graph.add_edge(A_ASN, B_ASN, Relationship.PEER)
    oracle = OriginOracle(table, None, ixp_prefixes)
    return MapIt(oracle, graph, MapItConfig()), oracle


class TestBoundaryRules:
    def test_border_numbered_from_near_side(self):
        """/31 from A's space: the far interface must flip to B."""
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        mapit, _ = _world()
        traces = [[A_CORE, near, far, B_CORE, B_ACCESS]] * 4
        result = mapit.infer(traces)
        assert result.ownership[far] == B_ASN
        assert result.ownership[near] == A_ASN
        links = {(l.ip_pair(), l.as_pair()) for l in result.links}
        assert ((near, far), (A_ASN, B_ASN)) in links
        assert len(result.links) == 1

    def test_border_numbered_from_far_side(self):
        """/31 from B's space: the near interface must flip to A."""
        near, far = parse_ip("10.1.0.100"), parse_ip("10.1.0.101")
        mapit, _ = _world()
        traces = [[A_CORE, near, far, B_CORE, B_ACCESS]] * 4
        result = mapit.infer(traces)
        assert result.ownership[near] == A_ASN
        assert result.ownership[far] == B_ASN
        assert len(result.links) == 1
        assert result.links[0].ip_pair() == (near, far)

    def test_converges(self):
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        mapit, _ = _world()
        result = mapit.infer([[A_CORE, near, far, B_CORE]] * 3)
        assert result.passes_used < MapItConfig().max_passes

    def test_boundary_does_not_creep(self):
        """Core interfaces on either side must keep their true owner."""
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        mapit, _ = _world()
        result = mapit.infer([[A_CORE, near, far, B_CORE, B_ACCESS]] * 6)
        assert result.ownership[A_CORE] == A_ASN
        assert result.ownership[B_CORE] == B_ASN
        assert result.ownership[B_ACCESS] == B_ASN

    def test_relationship_gate_blocks_implausible_flip(self):
        """No A–B relationship → no flip, no link."""
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        table = PrefixTable()
        table.insert(Prefix(parse_ip("10.0.0.0"), 16, A_ASN))
        table.insert(Prefix(parse_ip("10.1.0.0"), 16, B_ASN))
        graph = ASGraph()
        graph.add_as(AS(A_ASN, "A", ASRole.TIER1))
        graph.add_as(AS(B_ASN, "B", ASRole.ACCESS))
        # no edge added
        mapit = MapIt(OriginOracle(table), graph, MapItConfig())
        result = mapit.infer([[A_CORE, near, far, B_CORE]] * 4)
        assert result.ownership[far] == A_ASN  # flip rejected


class TestIXPHandling:
    def test_ixp_run_collapsed_to_link(self):
        ixp1, ixp2 = parse_ip("10.9.0.5"), parse_ip("10.9.0.6")
        mapit, _ = _world(ixp=True)
        result = mapit.infer([[A_CORE, ixp1, ixp2, B_CORE, B_ACCESS]] * 4)
        assert len(result.links) == 1
        link = result.links[0]
        assert link.via_ixp
        assert link.as_pair() == (A_ASN, B_ASN)

    def test_ixp_addresses_stay_unowned(self):
        ixp1, ixp2 = parse_ip("10.9.0.5"), parse_ip("10.9.0.6")
        mapit, _ = _world(ixp=True)
        result = mapit.infer([[A_CORE, ixp1, ixp2, B_CORE]] * 4)
        assert result.ownership[ixp1] is None
        assert result.ownership[ixp2] is None


class TestGapsAndNoise:
    def test_gap_produces_no_evidence(self):
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        mapit, _ = _world()
        result = mapit.infer([[A_CORE, None, far, B_CORE]] * 4)
        # Without the near hop, the /31 partner is invisible: no flip, and
        # no (core, far) pseudo-link may be fabricated across the gap.
        pairs = {l.ip_pair() for l in result.links}
        assert (min(A_CORE, far), max(A_CORE, far)) not in pairs

    def test_min_observations_filter(self):
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        table = PrefixTable()
        table.insert(Prefix(parse_ip("10.0.0.0"), 16, A_ASN))
        table.insert(Prefix(parse_ip("10.1.0.0"), 16, B_ASN))
        graph = ASGraph()
        graph.add_as(AS(A_ASN, "A", ASRole.TIER1))
        graph.add_as(AS(B_ASN, "B", ASRole.ACCESS))
        graph.add_edge(A_ASN, B_ASN, Relationship.PEER)
        mapit = MapIt(
            OriginOracle(table), graph, MapItConfig(min_link_observations=3)
        )
        result = mapit.infer([[A_CORE, near, far, B_CORE]] * 2)
        assert result.links == []

    def test_annotate_trace(self):
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        mapit, _ = _world()
        result = mapit.infer([[A_CORE, near, far, B_CORE]] * 4)
        crossings = result.annotate_trace([A_CORE, near, far, B_CORE])
        assert len(crossings) == 1
        index, link = crossings[0]
        assert index == 2
        assert link.as_pair() == (A_ASN, B_ASN)

    def test_sibling_collapse_suppresses_intra_org_links(self):
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        table = PrefixTable()
        table.insert(Prefix(parse_ip("10.0.0.0"), 16, A_ASN))
        table.insert(Prefix(parse_ip("10.1.0.0"), 16, B_ASN))
        orgs = OrgMap()
        orgs.add(Organization("o", "SameOrg", (A_ASN, B_ASN)))
        graph = ASGraph()
        graph.add_as(AS(A_ASN, "A", ASRole.TIER1))
        graph.add_as(AS(B_ASN, "B", ASRole.ACCESS))
        graph.add_edge(A_ASN, B_ASN, Relationship.CUSTOMER)
        mapit = MapIt(OriginOracle(table, orgs), graph, MapItConfig())
        result = mapit.infer([[A_CORE, near, far, B_CORE]] * 4)
        assert result.links == []  # sibling boundary is not interdomain


class TestIntegrationAccuracy:
    def test_as_pair_accuracy_on_generated_world(self, small_study):
        from repro.platforms.campaign import CampaignConfig

        result = small_study.run_campaign(
            CampaignConfig(seed=2, days=7, total_tests=2500)
        )
        traces = [t.router_hop_ips() for t in result.traceroute_records]
        mapit = MapIt(small_study.oracle, small_study.internet.graph)
        inferred = mapit.infer(traces)

        internet = small_study.internet
        gt_as_pairs = set()
        for trace in result.traceroute_records:
            for link_id in trace.gt_crossed_links:
                link = internet.fabric.interconnect(link_id)
                if internet.orgs.are_siblings(link.a_asn, link.b_asn):
                    continue
                a = internet.orgs.canonical_asn(link.a_asn)
                b = internet.orgs.canonical_asn(link.b_asn)
                gt_as_pairs.add((min(a, b), max(a, b)))
        inf_as_pairs = {l.as_pair() for l in inferred.links}
        tp = len(gt_as_pairs & inf_as_pairs)
        assert tp / len(inf_as_pairs) > 0.9, "AS-pair precision"
        assert tp / len(gt_as_pairs) > 0.8, "AS-pair recall"


@pytest.fixture(scope="module")
def golden_mapit(small_study):
    """MAP-IT over the round-one golden corpus pinned by GOLDEN_MAPIT_SHA."""
    records = _engine(small_study, TracerouteConfig(seed=7), "golden").trace_batch(
        _golden_requests(small_study)
    )
    paths = [r.router_hop_ips() for r in records if r is not None]
    return paths, MapIt(small_study.oracle, small_study.internet.graph).infer(paths)


def _reference_crossings(links, ips):
    """annotate_trace's contract as a linear scan over the link list."""
    crossings = []
    for index in range(1, len(ips)):
        a, b = ips[index - 1], ips[index]
        if a is None or b is None:
            continue
        for link in links:
            if {link.near_ip, link.far_ip} == {a, b}:
                crossings.append((index, link))
                break
    return crossings


class TestLinkIndex:
    def test_annotate_matches_reference_scan_on_golden_corpus(self, golden_mapit):
        paths, result = golden_mapit
        assert _mapit_digest(result) == GOLDEN_MAPIT_SHA
        found = 0
        for ips in paths:
            got = result.annotate_trace(ips)
            assert got == _reference_crossings(result.links, ips)
            found += len(got)
        assert found, "golden corpus crosses no inferred link"
        # The index is invisible to the fields the golden digest reads.
        assert _mapit_digest(result) == GOLDEN_MAPIT_SHA

    def test_pickle_bytes_unchanged_by_annotation(self, golden_mapit):
        paths, result = golden_mapit
        fresh = pickle.loads(pickle.dumps(result))
        assert "_link_index" not in vars(fresh)
        before = pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL)
        for ips in paths:
            fresh.annotate_trace(ips)
        assert "_link_index" in vars(fresh)
        after = pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL)
        assert after == before
        assert pickle.loads(after) == fresh == result
