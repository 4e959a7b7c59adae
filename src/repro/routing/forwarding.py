"""Router-level path expansion: hot-potato exits and per-flow ECMP.

Given an AS path, the forwarder picks the concrete interconnect used at
each AS boundary the way real networks do:

* **hot-potato** — among all interconnects between the current AS and the
  next AS, prefer the one whose metro is geographically closest to where
  the flow currently is (earliest exit);
* **per-flow ECMP** — when several interconnects are equally close
  (parallel links between the same border routers, or multiple links in
  one metro), a deterministic hash of the flow key picks one, so distinct
  flows spread across links while one flow is stable (Paris-traceroute
  style).

The result is a :class:`ForwardingPath`: the ordered router-level hops,
each annotated with the interface that would answer a traceroute probe,
plus the interdomain links crossed. RTT is derived from hop metro
coordinates downstream in :mod:`repro.net`.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import NamedTuple

from repro.obs import metrics
from repro.routing.bgp import BGPRouting
from repro.topology.geo import city_by_code, geo_distance_km
from repro.topology.internet import Internet
from repro.topology.routers import Interconnect, Router, RouterRole

_ROUTES = metrics.counter("forwarder.routes_resolved")
_UNROUTABLE = metrics.counter("forwarder.unroutable_flows")
_SEG_HITS = metrics.counter("forwarder.segment_cache.hits")
_SEG_MISSES = metrics.counter("forwarder.segment_cache.misses")
_ASPATH_HITS = metrics.counter("forwarder.as_path_cache.hits")
_ASPATH_MISSES = metrics.counter("forwarder.as_path_cache.misses")
_PATH_HITS = metrics.counter("forwarder.path_cache.hits")
_PATH_MISSES = metrics.counter("forwarder.path_cache.misses")
_BATCH_FLOWS = metrics.counter("forwarder.batch.flows")
_FLOW_MEMO_HITS = metrics.counter("forwarder.batch.flow_memo.hits")

#: Cache-miss sentinel for tables whose values may legitimately be None.
_ABSENT = object()


class RouterHop(NamedTuple):
    """One router on a forwarding path.

    ``reply_ip`` is the interface that answers traceroute probes: the
    ingress interface of the interdomain link for border crossings, or the
    router's core interface otherwise. ``entered_via_link`` is the
    interconnect crossed to reach this router (None inside an AS).

    A NamedTuple for construction speed: path assembly creates several of
    these per uncached route and tuple construction skips the frozen-
    dataclass ``object.__setattr__`` per field.
    """

    router_id: int
    asn: int
    city_code: str
    reply_ip: int
    entered_via_link: int | None


@dataclass(frozen=True)
class ForwardingPath:
    """Router-level realization of one flow's path."""

    src_asn: int
    dst_asn: int
    as_path: tuple[int, ...]
    hops: tuple[RouterHop, ...]
    crossed_links: tuple[int, ...]  # interconnect ids in path order

    def cities(self) -> list[str]:
        return [hop.city_code for hop in self.hops]


def flow_hash(*parts: object) -> int:
    """Stable 32-bit hash of a flow key (no PYTHONHASHSEED dependence)."""
    text = "|".join(map(str, parts))
    return zlib.crc32(text.encode("utf-8"))


class Forwarder:
    """Expands AS paths to router-level paths over one Internet instance.

    Path *segments* — the per-boundary equally-near interconnect groups,
    the per-(AS, city) core hop, and the per-(AS, city) access-router
    fan-out — are memoized in bounded FIFO caches, so repeated client→server
    flows skip re-walking the fabric. The caches hold only inputs to the
    flow-key hash, never its outcome, so cached and uncached routing are
    bit-identical (``segment_cache_size=0`` disables them, which the
    determinism suite uses to prove it).
    """

    def __init__(
        self,
        internet: Internet,
        routing: BGPRouting | None = None,
        segment_cache_size: int = 65536,
    ) -> None:
        self._internet = internet
        self._routing = routing if routing is not None else BGPRouting(internet.graph)
        self._distance_cache: dict[tuple[str, str], float] = {}
        self._segment_cache_size = max(0, segment_cache_size)
        #: (current_as, next_as, anchor_city) → equally-nearest interconnects.
        #: Bounded caches here evict in insertion (FIFO) order rather than
        #: LRU: skipping the per-hit reordering is measurably cheaper on
        #: the route hot path, and eviction policy can never change which
        #: path a flow gets — only how often it is recomputed.
        self._segment_cache: dict[tuple[int, int, str], tuple[Interconnect, ...]] = {}
        #: (asn, city) → prebuilt core RouterHop (or None when absent).
        self._core_hop_cache: dict[tuple[int, str], RouterHop | None] = {}
        #: (asn, city) → (router_id, first-interface ip) access candidates.
        self._access_cache: dict[tuple[int, str], tuple[tuple[int, int], ...]] = {}
        #: (src_asn, dst_asn) → AS path tuple (None = unroutable).
        self._as_path_cache: dict[tuple[int, int], tuple[int, ...] | None] = {}
        #: (current_as, next_as, dst_city) → honours-MED coin. The coin is
        #: a pure crc32 of its key, so memoizing it is free of semantics.
        self._egress_memo: dict[tuple[int, int, str], bool] = {}
        #: Fully-resolved flow choices → interned ForwardingPath. Distinct
        #: flows that hash onto the same links share one path object,
        #: which downstream identity-keyed memos (TCP base-RTT) exploit.
        self._path_cache: dict[tuple, ForwardingPath] = {}
        #: Whole batch request → interned path. route_flow is a pure
        #: function of its arguments, so repeated sweeps over the same
        #: targets (the batch engine's steady state) skip the per-flow
        #: hash walk entirely. Only successful resolutions are stored.
        self._flow_memo: dict[tuple, ForwardingPath] = {}

    @property
    def routing(self) -> BGPRouting:
        return self._routing

    def clear_segment_caches(self) -> None:
        """Drop memoized path segments (topology mutation hook)."""
        self._segment_cache.clear()
        self._core_hop_cache.clear()
        self._access_cache.clear()
        self._as_path_cache.clear()
        self._egress_memo.clear()
        self._path_cache.clear()
        self._flow_memo.clear()

    def route_flow(
        self,
        src_asn: int,
        src_city: str,
        dst_asn: int,
        dst_city: str,
        flow_key: object,
    ) -> ForwardingPath | None:
        """Compute the router-level path for one flow, or None if unroutable.

        ``flow_key`` identifies the flow for ECMP purposes; the same key
        always takes the same path (which is what lets Paris traceroute
        see the path an NDT flow used).
        """
        as_path = self._cached_as_path(src_asn, dst_asn)
        if as_path is None:
            _UNROUTABLE.inc()
            return None
        _ROUTES.inc()

        # Resolve every flow-dependent choice up front: the ECMP link pick
        # at each boundary and the access-router pick. The assembled path
        # is a pure function of these plus the endpoints, so flows whose
        # hashes land on the same choices can share one interned object.
        selected: list[Interconnect] = []
        current_city = src_city
        # flow_hash() renders every part with str(); rendering the (often
        # nested-tuple) flow key once here feeds every per-boundary hash
        # the identical text.
        flow_text = str(flow_key)
        for position in range(len(as_path) - 1):
            link = self._select_link(
                as_path[position], as_path[position + 1],
                current_city, dst_city, flow_text, position,
            )
            if link is None:
                return None  # AS adjacency with no fabric realization
            selected.append(link)
            current_city = link.city_code
        access_choice = self._access_choice(dst_asn, dst_city, flow_text)

        if self._segment_cache_size:
            key = (
                src_asn, src_city, dst_asn, dst_city,
                tuple(link.link_id for link in selected), access_choice,
            )
            cached = self._path_cache.get(key)
            if cached is not None:
                _PATH_HITS.inc()
                return cached
            _PATH_MISSES.inc()

        path = self._assemble(
            src_asn, src_city, dst_asn, dst_city, as_path, selected, access_choice
        )
        if self._segment_cache_size:
            self._path_cache[key] = path
            if len(self._path_cache) > self._segment_cache_size:
                del self._path_cache[next(iter(self._path_cache))]
        return path

    def resolve_paths_batch(
        self,
        requests: "list[tuple[int, str, int, str, object]]",
    ) -> "list[ForwardingPath | None]":
        """Resolve many flows' paths in one call.

        Each request is ``(src_asn, src_city, dst_asn, dst_city,
        flow_key)``; the result list is order-aligned with the input and
        every entry is *identical* (the same interned object where caching
        is on) to what :meth:`route_flow` returns for that request. A
        request already resolved is answered from the flow memo, which is
        what repeated sweeps over the same targets hit; every other one is
        a plain :meth:`route_flow` call.
        """
        results: list[ForwardingPath | None] = []
        flow_memo = self._flow_memo
        cache_size = self._segment_cache_size
        route_flow = self.route_flow
        memo_hits = 0
        for request in requests:
            try:
                path = flow_memo.get(request)
            except TypeError:  # unhashable flow key — resolve uncached
                results.append(route_flow(*request))
                continue
            if path is not None:
                memo_hits += 1
            else:
                path = route_flow(*request)
                if path is not None and cache_size:
                    flow_memo[request] = path
                    if len(flow_memo) > cache_size:
                        del flow_memo[next(iter(flow_memo))]
            results.append(path)
        _BATCH_FLOWS.inc(len(requests))
        if memo_hits:
            _ROUTES.inc(memo_hits)
            _FLOW_MEMO_HITS.inc(memo_hits)
        return results

    def _assemble(
        self,
        src_asn: int,
        src_city: str,
        dst_asn: int,
        dst_city: str,
        as_path: tuple[int, ...],
        selected: list[Interconnect],
        access_choice: tuple[int, int] | None,
    ) -> ForwardingPath:
        """Expand resolved choices into concrete router hops."""
        hops: list[RouterHop] = []
        crossed: list[int] = []
        current_city = src_city
        self._append_core_hop(hops, src_asn, current_city, None)

        for position, link in enumerate(selected):
            current_as = as_path[position]
            next_as = as_path[position + 1]
            near_router, near_ip, far_router, far_ip = self._orient(link, current_as)
            if link.city_code != current_city:
                # Backhaul across the current AS to the exit metro.
                self._append_core_hop(hops, current_as, link.city_code, None)
            hops.append(RouterHop(near_router, current_as, link.city_code, near_ip, None))
            hops.append(RouterHop(far_router, next_as, link.city_code, far_ip, link.link_id))
            crossed.append(link.link_id)
            current_city = link.city_code

        self._append_core_hop(hops, dst_asn, dst_city, None)
        if access_choice is not None and access_choice[1] != 0:
            hops.append(RouterHop(access_choice[0], dst_asn, dst_city, access_choice[1], None))

        return ForwardingPath(
            src_asn=src_asn,
            dst_asn=dst_asn,
            as_path=tuple(as_path),
            hops=tuple(hops),
            crossed_links=tuple(crossed),
        )

    # ------------------------------------------------------------------

    def _cached_as_path(self, src_asn: int, dst_asn: int) -> tuple[int, ...] | None:
        """AS path as a memoized tuple (the BGP walk is per-hop dict
        chasing; thousands of identical client→server pairs repeat it)."""
        if not self._segment_cache_size:
            path = self._routing.as_path(src_asn, dst_asn)
            return tuple(path) if path is not None else None
        key = (src_asn, dst_asn)
        cached = self._as_path_cache.get(key, _ABSENT)
        if cached is not _ABSENT:
            _ASPATH_HITS.inc()
            return cached
        _ASPATH_MISSES.inc()
        path = self._routing.as_path(src_asn, dst_asn)
        cached = tuple(path) if path is not None else None
        self._as_path_cache[key] = cached
        if len(self._as_path_cache) > self._segment_cache_size:
            del self._as_path_cache[next(iter(self._as_path_cache))]
        return cached

    def _append_core_hop(
        self, hops: list[RouterHop], asn: int, city: str, link_id: int | None
    ) -> None:
        """Append the AS's core router in ``city`` if it has one there."""
        key = (asn, city)
        if self._segment_cache_size and key in self._core_hop_cache:
            hop = self._core_hop_cache[key]
        else:
            hop = self._build_core_hop(asn, city)
            if self._segment_cache_size:
                self._core_hop_cache[key] = hop
        if hop is None:
            return
        if hops and hops[-1].router_id == hop.router_id:
            return
        if link_id is not None:
            hop = RouterHop(
                router_id=hop.router_id,
                asn=hop.asn,
                city_code=hop.city_code,
                reply_ip=hop.reply_ip,
                entered_via_link=link_id,
            )
        hops.append(hop)

    def _build_core_hop(self, asn: int, city: str) -> RouterHop | None:
        core = self._internet.fabric.core_router_of(asn, city)
        if core is None:
            return None
        interfaces = self._internet.fabric.interfaces_of(core.router_id)
        if not interfaces:
            return None
        return RouterHop(
            router_id=core.router_id,
            asn=asn,
            city_code=city,
            reply_ip=interfaces[0].ip,
            entered_via_link=None,
        )

    def _access_choice(
        self, asn: int, city: str, flow_key: object
    ) -> tuple[int, int] | None:
        """Pick the last-mile aggregation hop, as (router_id, reply_ip).

        Returns None when the destination AS has no access routers in the
        metro; a reply_ip of 0 marks an interface-less pick (the hop is
        then omitted). Interface-less routers stay in the candidate list
        so the flow-hash modulo matches the uncached walk exactly.
        """
        key = (asn, city)
        candidates = self._access_cache.get(key) if self._segment_cache_size else None
        if candidates is None:
            candidates = tuple(
                (router.router_id, interfaces[0].ip if interfaces else 0)
                for router in self._internet.fabric.access_routers_of(asn, city)
                for interfaces in (self._internet.fabric.interfaces_of(router.router_id),)
            )
            if self._segment_cache_size:
                self._access_cache[key] = candidates
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]  # modulo of anything is 0; skip the hash
        return candidates[flow_hash(flow_key, "access", asn, city) % len(candidates)]

    def _city_distance(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        key = (a, b) if a < b else (b, a)
        cached = self._distance_cache.get(key)
        if cached is None:
            cached = geo_distance_km(city_by_code(a), city_by_code(b))
            self._distance_cache[key] = cached
        return cached

    def _select_link(
        self,
        current_as: int,
        next_as: int,
        current_city: str,
        dst_city: str,
        flow_key: object,
        position: int,
    ) -> Interconnect | None:
        """Pick the interconnect for one AS boundary.

        Egress policy is a deterministic mix: for half of the
        (AS pair, destination region) combinations the boundary honours the
        next AS's MEDs and exits near the *destination* (cold potato); for
        the rest it exits near the flow's current position (hot potato).
        This mix is what lets a single server's tests cross interconnects
        in several metros — the Table 2 observation (one Atlanta server's
        AT&T tests crossing links in Atlanta, Washington DC, and New York).
        """
        policy_key = (current_as, next_as, dst_city)
        honors_med = self._egress_memo.get(policy_key)
        if honors_med is None:
            honors_med = (
                flow_hash("egress-policy", current_as, next_as, dst_city) % 2 == 0
            )
            if len(self._egress_memo) >= 1_048_576:
                self._egress_memo.clear()
            self._egress_memo[policy_key] = honors_med
        anchor_city = dst_city if honors_med else current_city
        nearest = self._nearest_links(current_as, next_as, anchor_city)
        if not nearest:
            return None
        if len(nearest) == 1:
            return nearest[0]  # modulo of anything is 0; skip the hash
        index = flow_hash(flow_key, current_as, next_as, position) % len(nearest)
        return nearest[index]

    def _nearest_links(
        self, current_as: int, next_as: int, anchor_city: str
    ) -> tuple[Interconnect, ...]:
        """Equally-nearest interconnects for one boundary, memoized.

        This is the path segment repeated client→server flows share: the
        candidate group depends only on the AS pair and the anchor metro,
        never on the flow key, so memoizing it cannot change which member
        a given flow hashes onto.
        """
        key = (current_as, next_as, anchor_city)
        if self._segment_cache_size:
            cached = self._segment_cache.get(key)
            if cached is not None:
                _SEG_HITS.inc()
                return cached
            _SEG_MISSES.inc()
        candidates = self._internet.fabric.links_between(current_as, next_as)
        if candidates:
            best_distance = min(
                self._city_distance(anchor_city, c.city_code) for c in candidates
            )
            nearest = tuple(
                sorted(
                    (c for c in candidates
                     if self._city_distance(anchor_city, c.city_code) <= best_distance + 1e-9),
                    key=lambda c: c.link_id,
                )
            )
        else:
            nearest = ()
        if self._segment_cache_size:
            self._segment_cache[key] = nearest
            if len(self._segment_cache) > self._segment_cache_size:
                del self._segment_cache[next(iter(self._segment_cache))]
        return nearest

    @staticmethod
    def _orient(link: Interconnect, near_asn: int) -> tuple[int, int, int, int]:
        """Return (near_router, near_ip, far_router, far_ip) for ``near_asn``."""
        if link.a_asn == near_asn:
            return link.a_router_id, link.a_ip, link.b_router_id, link.b_ip
        if link.b_asn == near_asn:
            return link.b_router_id, link.b_ip, link.a_router_id, link.a_ip
        raise ValueError(f"AS{near_asn} not an endpoint of link {link.link_id}")
