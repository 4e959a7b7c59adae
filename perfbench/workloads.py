"""The benchmark's workloads, built only from the program's public functions.

Each workload is a ``setup`` (untimed set-up, reported as ``setup_s``), a
``run`` (the timed part, split into named operations), a ``check``
(ground-truth checks applied to the run's outputs after timing) and a
``summary`` (the deterministic outputs the digest is taken over).

* ``tomography`` — the paper's §4 pipeline, cold: an NDT campaign with
  Paris traceroutes, matching, MAP-IT, per-link localization and the
  Table 2 link-diversity analysis.
* ``coverage`` — the §5 sweep, cold: per Ark VP, bdrmap and platform
  traceroutes, the coverage analysis and bdrmap itself. No TCP and no
  ``annotate_trace``, so a §4-only change should leave it unchanged.
* ``warm-reload`` — the warm path: §4 and §5 artifacts written once per
  seed by :func:`prepare_warm` are mapped and unpickled, then only the
  light analyses that read them run.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.assumptions import as_hop_distribution, link_diversity
from repro.core.coverage import coverage_analysis, collect_target_traces
from repro.core.localization import localize_per_link
from repro.core.matching import match_ndt_to_traceroutes
from repro.core.pipeline import StudyConfig, build_study
from repro.experiments.common import MAY2015_CAMPAIGN, analyzed_campaign, coverage_reports
from repro.inference.alias import AliasResolver
from repro.inference.bdrmap import collect_bdrmap_traces, run_bdrmap
from repro.inference.mapit import MapIt, MapItConfig
from repro.measurement.records import NDTRecord, TracerouteRecord
from repro.measurement.traceroute import TracerouteConfig, TracerouteEngine
from repro.net.compiled import compile_world, compiled_world_for
from repro.obs import metrics as obs_metrics
from repro.topology.generator import InternetConfig
from repro.validate.contracts import check_coverage_report

#: Ground-truth levels. MAP-IT: the paper cites >90%, EXPERIMENTS.md
#: measures AS-pair precision 0.979 and recall 0.969 (over 40 seeds here:
#: at least 0.95 and 0.94). bdrmap: EXPERIMENTS.md gives neighbor-org
#: recall ~0.91 (here 0.89-0.94) and per-VP precision 0.76-0.92, but the
#: program's own val-bdrmap output at seed 7 has per-VP precision
#: 0.54-0.89 (mean 0.755) and the mean over VPs ranges 0.70-0.80 across
#: seeds, so the precision floor applies to that mean and sits below it.
MAPIT_MIN_PRECISION = 0.90
MAPIT_MIN_RECALL = 0.90
BDRMAP_MIN_MEAN_PRECISION = 0.65
BDRMAP_MIN_MEAN_RECALL = 0.85
#: §4.1's gate band starts at 0.60 for a high-rate campaign; the
#: month-long campaign loads the traceroute daemon less and matches more,
#: but the busy daemon still drops some traces, so never all of them.
MATCHED_FRACTION_RANGE = (0.60, 0.995)

EPOCHS = ("2015", "2017")
#: The 2017 world is studied with the larger 2017 Speedtest deployment
#: (as §5.4's experiment does).
SPEEDTEST_SERVERS = {"2015": 900, "2017": 1300}


@dataclass(frozen=True)
class Size:
    """Workload size; the benchmark always runs :data:`FULL`, tests shrink it."""

    scale: float = 1.0
    tests: int = 60_000
    days: int = 28
    max_vps: int | None = None
    max_prefixes: int | None = None
    alexa: int = 500


FULL = Size()


def study_config(seed: int, size: Size, epoch: str = "2015") -> StudyConfig:
    return StudyConfig(
        seed=seed,
        epoch=epoch,
        scale=size.scale,
        speedtest_server_count=SPEEDTEST_SERVERS[epoch],
    )


def campaign_config(seed: int, size: Size):
    """The paper-shaped §4 campaign (Figure 1's ISPs, burst 0.35), seeded."""
    return dataclasses.replace(
        MAY2015_CAMPAIGN, seed=seed, days=size.days, total_tests=size.tests
    )


def rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Operations:
    """Runs a workload's operations, counting attempts and failures.

    An operation is one workload stage or one per-VP unit. It fails when
    it raises or when a check later reports a violation against it; an
    operation fails at most once. Each stage also records its resident
    memory delta and, when a tracer is given, a span.
    """

    def __init__(self, tracer=None) -> None:
        self.attempted: list[str] = []
        self.failures: dict[str, str] = {}
        self.rss_delta_mb: defaultdict[str, float] = defaultdict(float)
        self.stage_s: defaultdict[str, float] = defaultdict(float)
        #: Ground-truth scores the checks computed, kept with the result.
        self.scores: dict[str, float] = {}
        self._tracer = tracer

    @contextmanager
    def stage(self, name: str):
        before = rss_mb()
        span_id = self._tracer.open(f"stage:{name}") if self._tracer else None
        started = time.perf_counter()
        try:
            yield
        finally:
            self.stage_s[name] += time.perf_counter() - started
            if span_id is not None:
                self._tracer.close(span_id)
            self.rss_delta_mb[name] += rss_mb() - before

    def run(self, name: str, fn, *args, stage: str | None = None):
        """Run one operation; returns its result, or None when it raised."""
        self.attempted.append(name)
        try:
            with self.stage(stage or name):
                return fn(*args)
        except Exception as error:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.failures.setdefault(name, f"{type(error).__name__}: {error}")
            return None

    def check(self, name: str, violations) -> None:
        """Mark ``name`` failed when ``violations`` is non-empty."""
        violations = list(violations)
        if violations and name not in self.failures:
            self.failures[name] = "; ".join(str(v) for v in violations[:3])

    def verify(self, name: str, fn, *args) -> None:
        """Run a check function; a check that raises fails the operation."""
        try:
            self.check(name, fn(*args))
        except Exception as error:
            traceback.print_exc(file=sys.stderr)
            self.check(name, [f"check raised {type(error).__name__}: {error}"])

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------- digests


def _canon(value, out: list[str]) -> None:
    """Append a canonical text form of ``value`` (sets and dicts sorted)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        out.append(repr(value))
    elif isinstance(value, (NDTRecord, TracerouteRecord)):
        out.append(repr(value))  # frozen, scalar/tuple fields: repr is canonical
    elif isinstance(value, enum.Enum):
        out.append(f"{type(value).__name__}.{value.name}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for item in value:
            _canon(item, out)
            out.append(",")
        out.append("]")
    elif isinstance(value, (set, frozenset)):
        out.append("{" + ",".join(sorted(canonical(item) for item in value)) + "}")
    elif isinstance(value, dict):
        items = sorted(f"{canonical(k)}:{canonical(v)}" for k, v in value.items())
        out.append("{" + ",".join(items) + "}")
    elif dataclasses.is_dataclass(value):
        out.append(type(value).__name__ + "(")
        for field in dataclasses.fields(value):
            out.append(field.name + "=")
            _canon(getattr(value, field.name), out)
            out.append(",")
        out.append(")")
    elif hasattr(value, "item"):  # numpy scalar
        out.append(repr(value.item()))
    else:
        raise TypeError(f"no canonical form for {type(value).__name__}")


def canonical(value) -> str:
    out: list[str] = []
    _canon(value, out)
    return "".join(out)


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()


# ---------------------------------------------------------- shared scoring


def mapit_scores(study, matched_pairs, mapit_result) -> dict[str, float]:
    """AS-pair precision/recall of MAP-IT against the crossed interconnects
    (the ``val-mapit`` procedure)."""
    internet = study.internet
    truth: set[tuple[int, int]] = set()
    for _record, trace in matched_pairs:
        for link_id in trace.gt_crossed_links:
            link = internet.fabric.interconnect(link_id)
            if internet.orgs.are_siblings(link.a_asn, link.b_asn):
                continue
            a = internet.orgs.canonical_asn(link.a_asn)
            b = internet.orgs.canonical_asn(link.b_asn)
            truth.add((min(a, b), max(a, b)))
    inferred = {link.as_pair() for link in mapit_result.links}
    hits = len(truth & inferred)
    return {
        "precision": hits / len(inferred) if inferred else 0.0,
        "recall": hits / len(truth) if truth else 0.0,
        "links": len(mapit_result.links),
    }


def mapit_violations(scores: dict[str, float], label: str) -> list[str]:
    violations = []
    if scores["precision"] < MAPIT_MIN_PRECISION:
        violations.append(f"{label} MAP-IT AS-pair precision {scores['precision']:.3f} "
                          f"< {MAPIT_MIN_PRECISION}")
    if scores["recall"] < MAPIT_MIN_RECALL:
        violations.append(f"{label} MAP-IT AS-pair recall {scores['recall']:.3f} "
                          f"< {MAPIT_MIN_RECALL}")
    return violations


def matched_fraction_violations(fraction: float, label: str) -> list[str]:
    low, high = MATCHED_FRACTION_RANGE
    if low <= fraction <= high:
        return []
    return [f"{label} matched fraction {fraction:.3f} outside [{low}, {high}]"]


def matched_pairs_of(campaign, report):
    traces_by_id = {t.trace_id: t for t in campaign.traceroute_records}
    return [
        (record, traces_by_id[report.matched[record.test_id]])
        for record in campaign.ndt_records
        if record.test_id in report.matched
    ]


# ------------------------------------------------------------- tomography


def tomography_setup(seed: int, size: Size) -> dict:
    study = build_study(study_config(seed, size))
    compile_world(study.internet)  # compiles and persists the world snapshot
    return {"seed": seed, "size": size, "study": study}


def tomography_run(ctx: dict, ops: Operations) -> dict:
    study = ctx["study"]
    config = campaign_config(ctx["seed"], ctx["size"])
    out: dict = {}
    out["campaign"] = campaign = ops.run("campaign", study.run_campaign, config)
    if campaign is None:
        return out
    out["matching"] = report = ops.run(
        "matching", match_ndt_to_traceroutes, campaign.ndt_records, campaign.traceroute_records
    )
    if report is None:
        return out

    def infer():
        pairs = matched_pairs_of(campaign, report)
        mapit = MapIt(study.oracle, study.internet.graph, MapItConfig())
        return pairs, mapit.infer([trace.router_hop_ips() for _r, trace in pairs])

    inferred = ops.run("mapit", infer)
    if inferred is None:
        return out
    out["pairs"], out["mapit"] = pairs, mapit_result = inferred
    out["localization"] = ops.run("localization", localize_per_link, pairs, mapit_result)

    def diversity():
        level3 = study.oracle.canonical(study.internet.as_named("Level3").asn)
        return link_diversity(
            pairs, mapit_result, study.oracle, server_org_asn=level3,
            server_label="Level3", rdns=study.internet.rdns, org_names=study.org_names,
        )

    out["link_diversity"] = ops.run("link_diversity", diversity)
    return out


def tomography_check(ctx: dict, out: dict, ops: Operations) -> None:
    size = ctx["size"]
    if out.get("campaign") is not None:
        produced = len(out["campaign"].ndt_records)
        ops.check("campaign", [] if produced == size.tests else
                  [f"campaign produced {produced} tests, configured {size.tests}"])
    if out.get("matching") is not None:
        fraction = ops.scores["matched_fraction"] = out["matching"].matched_fraction
        ops.check("matching", matched_fraction_violations(fraction, "campaign"))
    if out.get("mapit") is not None:
        def score():
            scores = mapit_scores(ctx["study"], out["pairs"], out["mapit"])
            ops.scores.update({f"mapit_{k}": v for k, v in scores.items()})
            return mapit_violations(scores, "campaign")

        ops.verify("mapit", score)
    if out.get("localization") is not None:
        verdicts = out["localization"].verdicts
        ops.check("localization", [] if any(v.verdict.congested for v in verdicts) else
                  [f"no congested link among {len(verdicts)} verdicts"])
    if out.get("link_diversity") is not None:
        ops.check("link_diversity", [] if out["link_diversity"] else
                  ["no client ISP reached from Level3"])


def tomography_summary(ctx: dict, out: dict):
    campaign = out.get("campaign")
    matching = out.get("matching")
    return {
        "ndt": campaign.ndt_records if campaign else None,
        "traceroutes": campaign.traceroute_records if campaign else None,
        "matched": matching.matched if matching else None,
        "mapit": out.get("mapit"),
        "localization": out.get("localization"),
        "link_diversity": out.get("link_diversity"),
    }


# --------------------------------------------------------------- coverage


def coverage_setup(seed: int, size: Size) -> dict:
    study = build_study(study_config(seed, size))
    compile_world(study.internet)
    vps = study.ark_vps()
    if size.max_vps is not None:
        vps = vps[: size.max_vps]
    return {"seed": seed, "size": size, "study": study, "vps": vps}


def _vp_unit(study, vp, size: Size, ops: Operations) -> dict:
    internet = study.internet
    engine = TracerouteEngine(
        internet, study.forwarder, TracerouteConfig(seed=study.config.seed),
        stream=f"coverage:{vp.code}",
    )
    with ops.stage("bdrmap_traces"):
        bdrmap_traces = collect_bdrmap_traces(
            internet, vp, engine, max_prefixes=size.max_prefixes
        )
    targets = {
        "mlab": [(s.ip, s.asn, s.city) for s in study.mlab.servers()],
        "speedtest": [(s.ip, s.asn, s.city) for s in study.speedtest.servers()],
        "alexa": [(t.ip, t.asn, t.city) for t in study.alexa_targets(count=size.alexa)],
    }
    with ops.stage("target_traces"):
        platform_traces = {
            name: collect_target_traces(internet, vp, engine, batch, name)
            for name, batch in targets.items()
        }
    with ops.stage("coverage_analysis"):
        report = coverage_analysis(internet, vp, bdrmap_traces, platform_traces, study.oracle)
    with ops.stage("run_bdrmap"):
        bdrmap = run_bdrmap(
            internet, vp, bdrmap_traces, study.oracle,
            alias_resolver=AliasResolver(internet, seed=study.config.seed),
        )
    return {"report": report, "bdrmap": bdrmap}


def coverage_run(ctx: dict, ops: Operations) -> dict:
    study = ctx["study"]
    return {
        vp.label: ops.run(f"vp:{vp.label}", _vp_unit, study, vp, ctx["size"], ops,
                          stage="vp_unit")
        for vp in ctx["vps"]
    }


def bdrmap_scores(internet, result) -> tuple[float, float]:
    """Neighbor-org (precision, recall) of one VP's bdrmap inventory
    (the ``val-bdrmap`` procedure)."""
    vp_org = internet.orgs.canonical_asn(result.vp.asn)
    truth = set()
    for link in internet.interconnects_of_org(result.vp.asn):
        for asn in (link.a_asn, link.b_asn):
            canonical_asn = internet.orgs.canonical_asn(asn)
            if canonical_asn != vp_org:
                truth.add(canonical_asn)
    inferred = result.neighbor_asns()
    hits = len(inferred & truth)
    return (hits / len(inferred) if inferred else 0.0, hits / len(truth) if truth else 0.0)


def coverage_check(ctx: dict, out: dict, ops: Operations) -> None:
    internet = ctx["study"].internet
    scores = []
    for label, unit in out.items():
        if unit is None:
            continue
        ops.verify(f"vp:{label}", check_coverage_report, unit["report"])
        scores.append(bdrmap_scores(internet, unit["bdrmap"]))
    ops.attempted.append("bdrmap_accuracy")
    precision = sum(p for p, _r in scores) / len(scores) if scores else 0.0
    recall = sum(r for _p, r in scores) / len(scores) if scores else 0.0
    ops.scores.update(bdrmap_mean_precision=precision, bdrmap_mean_recall=recall)
    violations = []
    if precision < BDRMAP_MIN_MEAN_PRECISION:
        violations.append(f"bdrmap mean neighbor precision {precision:.3f} "
                          f"< {BDRMAP_MIN_MEAN_PRECISION}")
    if recall < BDRMAP_MIN_MEAN_RECALL:
        violations.append(f"bdrmap mean neighbor recall {recall:.3f} < {BDRMAP_MIN_MEAN_RECALL}")
    ops.check("bdrmap_accuracy", violations)


def coverage_summary(ctx: dict, out: dict):
    return {
        label: None if unit is None else {
            "discovered": unit["report"].discovered,
            "reachable": unit["report"].reachable,
            "relationships": unit["report"].relationships,
            "borders": unit["bdrmap"].borders,
            "traces_used": unit["bdrmap"].traces_used,
        }
        for label, unit in out.items()
    }


# ------------------------------------------------------------ warm-reload


def prepare_warm(seed: int, size: Size, epochs=EPOCHS) -> None:
    """Write every artifact ``warm-reload`` reads, through the program's
    own entry points, into ``$REPRO_CACHE_DIR`` (run once per seed)."""
    for epoch in epochs:
        config = study_config(seed, size, epoch)
        study = build_study(config)
        compiled_world_for(InternetConfig(seed=seed, scale=size.scale, epoch=epoch))
        analyzed_campaign(study, campaign_config(seed, size))
        coverage_reports(study, alexa_count=size.alexa, max_prefixes=size.max_prefixes, jobs=1)


def warm_setup(seed: int, size: Size) -> dict:
    studies = {}
    for epoch in EPOCHS:
        compiled_world_for(InternetConfig(seed=seed, scale=size.scale, epoch=epoch))
        studies[epoch] = build_study(study_config(seed, size, epoch))
    return {"seed": seed, "size": size, "studies": studies}


def warm_run(ctx: dict, ops: Operations) -> dict:
    size = ctx["size"]
    config = campaign_config(ctx["seed"], size)
    out: dict = {"loaded": {}}
    for epoch, study in ctx["studies"].items():
        out["loaded"][epoch] = ops.run(f"load_{epoch}", lambda s=study: (
            analyzed_campaign(s, config),
            coverage_reports(s, alexa_count=size.alexa, max_prefixes=size.max_prefixes, jobs=1),
        ))
    loaded = {epoch: pair for epoch, pair in out["loaded"].items() if pair is not None}
    studies = ctx["studies"]

    def as_hops():
        result = {}
        for epoch, (analyzed, _reports) in loaded.items():
            study = studies[epoch]
            dists = as_hop_distribution(
                analyzed.matched_pairs, analyzed.mapit_result, study.oracle, study.org_names
            )
            total = sum(d.total for d in dists)
            result[epoch] = {
                "rows": {d.client_org: (d.total, d.one_hop, d.two_hops, d.more_hops) for d in dists},
                "one_hop": sum(d.one_hop for d in dists) / total if total else 0.0,
            }
        return result

    def matching():
        return {
            epoch: match_ndt_to_traceroutes(
                analyzed.campaign.ndt_records, analyzed.campaign.traceroute_records
            ).matched_fraction
            for epoch, (analyzed, _reports) in loaded.items()
        }

    def coverage_fractions():
        return {
            epoch: {
                label: {
                    (name, level, peers_only): report.coverage_fraction(name, level, peers_only)
                    for name in report.reachable
                    for level in ("as", "router")
                    for peers_only in (False, True)
                }
                for label, report in reports.items()
            }
            for epoch, (_analyzed, reports) in loaded.items()
        }

    out["as_hops"] = ops.run("as_hops", as_hops)
    out["matching"] = ops.run("matching", matching)
    out["coverage_fractions"] = fractions = ops.run("coverage_fractions", coverage_fractions)

    def deltas():
        before, after = fractions["2015"], fractions["2017"]
        per_vp = {
            label: after[label][("mlab", "as", False)] - before[label][("mlab", "as", False)]
            for label in before.keys() & after.keys()
        }
        return {
            "mlab_as_coverage": per_vp,
            "one_hop": out["as_hops"]["2017"]["one_hop"] - out["as_hops"]["2015"]["one_hop"],
        }

    out["deltas"] = ops.run("deltas", deltas)
    out["mapit_scoring"] = ops.run("mapit_scoring", lambda: {
        epoch: mapit_scores(studies[epoch], analyzed.matched_pairs, analyzed.mapit_result)
        for epoch, (analyzed, _reports) in loaded.items()
    })
    return out


def warm_check(ctx: dict, out: dict, ops: Operations) -> None:
    # Any miss means an artifact was recomputed, not reloaded: the run
    # then measured the cold path and is not a warm-reload run.
    misses = obs_metrics.snapshot().get("artifact_cache.misses", 0)
    for epoch, pair in out["loaded"].items():
        if pair is None:
            continue
        _analyzed, reports = pair
        violations = [f"{misses} artifact cache misses"] if misses else []
        for label, report in reports.items():
            violations.extend(f"{label}: {v}" for v in check_coverage_report(report))
        ops.check(f"load_{epoch}", violations)
    if out.get("matching") is not None:
        ops.scores.update({f"matched_fraction_{e}": f for e, f in out["matching"].items()})
        ops.check("matching", [v for epoch, fraction in out["matching"].items()
                               for v in matched_fraction_violations(fraction, epoch)])
    if out.get("mapit_scoring") is not None:
        ops.scores.update({f"mapit_{k}_{epoch}": v for epoch, scores in
                           out["mapit_scoring"].items() for k, v in scores.items()})
        ops.check("mapit_scoring", [v for epoch, scores in out["mapit_scoring"].items()
                                    for v in mapit_violations(scores, epoch)])
    if out.get("coverage_fractions") is not None:
        ops.check("coverage_fractions", [
            f"{epoch} {label} {key} = {value}"
            for epoch, per_vp in out["coverage_fractions"].items()
            for label, values in per_vp.items()
            for key, value in values.items()
            if not 0.0 <= value <= 1.0
        ])


def warm_summary(ctx: dict, out: dict):
    return {key: out.get(key) for key in
            ("as_hops", "matching", "coverage_fractions", "deltas", "mapit_scoring")}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run: object
    check: object
    summary: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tomography", tomography_setup, tomography_run, tomography_check,
                 tomography_summary),
        Workload("coverage", coverage_setup, coverage_run, coverage_check,
                 coverage_summary),
        Workload("warm-reload", warm_setup, warm_run, warm_check, warm_summary),
    )
}
