"""Measure the fast-path speedups and write ``BENCH_PR1.json``.

Times the heavy steps the caching/parallelism work targets — study
construction, the NDT campaign replay on the benchmark configuration,
the per-VP coverage sweep, and full-scale fig2 (serial and ``--jobs 4``)
— then records medians, totals, and speedups against the pre-optimization
baselines measured on the same machine.

The on-disk artifact cache is disabled for the compute benchmarks so the
numbers measure computation, not disk reads; a separate cold/warm pair
demonstrates what the artifact cache itself buys.

This PR additionally measures what the observability layer costs: the
benchmark campaign is replayed with the metrics registry collecting
(the default) and with it disabled (what ``REPRO_METRICS=0`` does), and
the run **fails** if the overhead exceeds 3 %. The observability
numbers are written to ``BENCH_PR2.json``.

The batch-engine suite (``BENCH_PR3.json``) measures what vectorized
flow evaluation buys on top of the PR1 fast path: a µbench of
``observe_batch`` against the sequential ``observe`` loop over the same
requests, the campaign and fig5 sweeps that now dispatch TCP work in
blocks, and full-scale fig2 in a fresh interpreter. Speedups are
computed against the medians recorded in ``BENCH_PR1.json`` on the same
machine, and the run **fails** unless campaign_bench improved ≥2x and
fig2_full_serial ≥1.5x.

The scaling suite (``BENCH_PR5.json``) measures what the compiled-world
snapshot and the batched traceroute engine buy: a steady-state µbench of
``trace_batch`` against the scalar ``trace`` loop over identical bdrmap
probe sets, the per-VP coverage sweep serially and at ``--jobs {2,4}``,
and full-scale fig2 across the same job counts in fresh interpreters.
Gates: the kernel must hold ≥2x, serial coverage ≥1.3x over the
pre-compiled-world medians, and fig2 ``--jobs 4`` ≥1.5x its own serial
on multi-core machines (parity within 15 % on single-core boxes, which
the report flags as ``cpu_limited``). ``--smoke`` is the CI shape: fewer
repeats, no full-scale fig2, machine-relative gates recorded but not
enforced.

The worldgen suite (``BENCH_PR6.json``) measures what the table-first
flip buys at scale=1.0: the object-graph-first build (regenerate +
derive, what every cold process used to pay) against the table-first
snapshot hit (digest-index lookup + memory-mapped attach), the
fresh-interpreter cold-load budget, a large-world smoke over the
resident snapshot, and the serial coverage sweep re-run as a regression
check against BENCH_PR5. Gates: snapshot-hit cold start ≥3x over the
object-graph path, subprocess cold load ≤100 ms, both builders
byte-identical, coverage serial within 10 % of the PR5 median
(regression gate skipped in ``--smoke``).

The array-native worldgen suite (``BENCH_PR8.json``) measures what
retiring the object graph from the generation hot path buys. Fresh
interpreters (``REPRO_CACHE=0``) build the scale=1.0 world two ways —
array-native (the recorder is the only product) and the PR6-equivalent
object path (generation plus eager ``materialize()``, what the
table-first flip used to keep resident) — and report generation wall
clock plus the peak RSS *net of the import floor*, measured in the
same process before generation so the ~30 MB interpreter+numpy baseline
cannot dilute the ratio; ``compile_world`` runs outside the clock but
inside the RSS window, identically on both sides. Gates: fresh generation ≥1.5x faster and
≤0.5x the net peak RSS of the object path, both builders byte-identical
(``compile_from_object_graph`` cross-check), and the scale=4.0 world must
generate within 0.5x of its object-path RSS and an absolute 256 MB
net ceiling. The in-process section re-times the table-first build so
the bench trend has a PR6-comparable metric.

The telemetry suite (``BENCH_PR7.json``) measures what the *full* live
telemetry stack costs: the benchmark campaign replayed with everything
on — metrics registry, cadence sampler, the ``/metrics`` HTTP endpoint,
and the ~100 Hz sampling profiler — against the same campaign with
metrics disabled and nothing else running, interleaved so machine drift
cancels. Gates: overhead ≤5 %, every run's campaign output hashes
identical (telemetry must never touch results), and the live
``/metrics`` scrape mid-setup must be valid OpenMetrics carrying the
``tcp_batch`` histogram quantiles and pool time-series. The profiler's
collapsed stacks land in ``profile_folded.txt`` for the CI artifact
upload, and a ``campaign_bench`` median is recorded so the bench-trend
gate (``make bench-report``) has a cross-PR comparable.

Run via ``make bench`` or::

    PYTHONPATH=src python benchmarks/run_bench.py
    PYTHONPATH=src python benchmarks/run_bench.py --obs-only   # just the overhead gate
    PYTHONPATH=src python benchmarks/run_bench.py --pr3-only   # just the batch-engine suite
    PYTHONPATH=src python benchmarks/run_bench.py --pr5-only   # just the scaling suite
    PYTHONPATH=src python benchmarks/run_bench.py --pr6-only   # just the worldgen suite
    PYTHONPATH=src python benchmarks/run_bench.py --pr6-only --smoke  # CI smoke shape
    PYTHONPATH=src python benchmarks/run_bench.py --telemetry-only    # just the PR7 suite
    PYTHONPATH=src python benchmarks/run_bench.py --pr8-only   # array-native worldgen
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.coverage import collect_coverage_reports  # noqa: E402
from repro.core.pipeline import build_study, clear_study_cache  # noqa: E402
from repro.experiments.common import analyze_campaign  # noqa: E402
from repro.experiments.fig5_diurnal import FIG5_CAMPAIGN  # noqa: E402
from repro.measurement.traceroute import (  # noqa: E402
    TraceRequest,
    TracerouteConfig,
    TracerouteEngine,
)
from repro.net.batch import ObserveRequest  # noqa: E402
from repro.net.compiled import (  # noqa: E402
    CompiledWorld,
    clear_compile_cache,
    compile_from_object_graph,
    compile_world,
    compiled_world_for,
    load_snapshot_world,
    snapshot_path,
)
from repro.topology.generator import InternetConfig, generate_internet  # noqa: E402
from repro.obs import metrics  # noqa: E402
from repro.platforms.campaign import run_ndt_campaign  # noqa: E402
from repro.routing.forwarding import Forwarder  # noqa: E402
from repro.util import artifact_cache  # noqa: E402
from repro.util.parallel import pool_stats  # noqa: E402

from conftest import BENCH_CAMPAIGN, BENCH_STUDY_CONFIG  # noqa: E402

#: Wall-clock seconds for the same steps at the seed commit (e9bf91f),
#: measured on this machine before the fast-path work landed.
SEED_BASELINES_S = {
    "campaign_bench": 5.2,
    "build_study_bench": 7.6,
    "fig2_full_serial": 45.0,
}

OUTPUT = REPO_ROOT / "BENCH_PR1.json"
OBS_OUTPUT = REPO_ROOT / "BENCH_PR2.json"
PR3_OUTPUT = REPO_ROOT / "BENCH_PR3.json"

#: Hard ceiling on what metrics collection may cost the hot path.
OBS_OVERHEAD_LIMIT = 0.03

#: Medians recorded in BENCH_PR1.json on this machine, used as the
#: fallback baseline when that file is absent (fresh clone).
PR1_BASELINES_S = {
    "campaign_bench": 1.689,
    "build_study_bench": 0.305,
    "fig2_full_serial": 15.974,
    "fig2_full_jobs4": 18.706,
}

#: Minimum speedups the batch engine must deliver over BENCH_PR1.
PR3_GATES = {"campaign_bench": 2.0, "fig2_full_serial": 1.5}

PR5_OUTPUT = REPO_ROOT / "BENCH_PR5.json"

#: Medians at the parent commit (b8a00ec) on this machine, measured with
#: interleaved fresh-interpreter A/B runs so machine drift cancels out.
#: Denominator for the serial-coverage gate; the fig2 pair documents
#: that --jobs was pure overhead on this single-core box before the
#: worker-context work.
PR5_BASELINES_S = {
    "coverage_bench_serial": 1.125,
    "fig2_full_serial": 10.65,
    "fig2_full_jobs4": 11.32,
}

#: Minimum speedups the compiled-world / batched-traceroute work must hold.
PR5_GATES = {
    "trace_batch_kernel": 2.0,       # steady-state batch vs scalar trace loop
    "coverage_serial_vs_pr4": 1.3,   # serial coverage vs parent-commit medians
    "fig2_jobs4_vs_serial": 1.5,     # enforced only when cpu_count > 1
}

#: Single-core machines cannot beat serial with --jobs (the pool clamps
#: to the cpu count and falls back); require parity within this fraction
#: instead and mark the report ``cpu_limited``.
PR5_PARITY_TOLERANCE = 0.15


PR6_OUTPUT = REPO_ROOT / "BENCH_PR6.json"

#: Full-scale generator config for the table-first worldgen suite. The
#: ISSUE's gates are phrased at scale=1.0; smoke mode keeps the scale
#: (one build is sub-second) and trims repeats instead.
PR6_WORLD_CONFIG = InternetConfig(seed=7, scale=1.0)

PR6_GATES = {
    # Table-first cold start (snapshot hit, mmap attach) vs the
    # object-graph-first path (regenerate + derive every process).
    "worldgen_table_first_vs_object_first": 3.0,
    # Fresh-interpreter budget for resolving a config to a mapped world.
    "snapshot_cold_load_ms": 100.0,
    # Serial coverage sweep must stay no slower than BENCH_PR5; the
    # tolerance absorbs shared-box noise on a sub-second median.
    "coverage_serial_tolerance": 1.10,
}

#: BENCH_PR5's coverage_bench_serial median on this machine, used when
#: the file is absent (fresh clone).
PR5_COVERAGE_SERIAL_MEDIAN_S = 0.848


PR8_OUTPUT = REPO_ROOT / "BENCH_PR8.json"

#: Gates for the array-native worldgen suite. The RSS comparisons are
#: *net of the import floor* (``ru_maxrss`` sampled post-import,
#: pre-generation, in the same process): the ~30 MB interpreter+numpy
#: baseline is identical on both sides and would otherwise dilute a
#: 3x heap reduction down to a fraction that reads like noise.
PR8_GATES = {
    # Fresh array-native generate+compile vs the PR6-equivalent object
    # path (generation + eager materialize()) at scale=1.0.
    "fresh_speedup": 1.5,
    # Net peak RSS of the array-native path vs the object path.
    "fresh_rss_ratio": 0.5,
    # Scale=4.0 world: net RSS vs its own object path, and absolute.
    "scale4_rss_ratio": 0.5,
    "scale4_rss_max_mb": 256.0,
}

#: The large-world config the RSS ceiling is gated at.
PR8_SCALE4 = 4.0


PR7_OUTPUT = REPO_ROOT / "BENCH_PR7.json"

#: Hard ceiling on what the *entire* telemetry stack (metrics + cadence
#: sampler + HTTP endpoint + sampling profiler) may cost the campaign.
TELEMETRY_OVERHEAD_LIMIT = 0.05


def _timed(func, repeats: int) -> list[float]:
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        runs.append(round(time.perf_counter() - start, 3))
    return runs


def bench_build_study(repeats: int = 3) -> list[float]:
    def build():
        clear_study_cache()
        build_study(BENCH_STUDY_CONFIG)

    return _timed(build, repeats)


def bench_campaign(repeats: int = 3) -> list[float]:
    study = build_study(BENCH_STUDY_CONFIG)

    def campaign():
        study._run_campaign_uncached(BENCH_CAMPAIGN)

    return _timed(campaign, repeats)


def bench_coverage(jobs: int, repeats: int = 2) -> list[float]:
    study = build_study(BENCH_STUDY_CONFIG)

    def coverage():
        collect_coverage_reports(study, alexa_count=150, jobs=jobs)

    return _timed(coverage, repeats)


def bench_fig2_subprocess(jobs: int | None) -> list[float]:
    """One full-scale fig2 run in a fresh interpreter (cold everything)."""
    command = [sys.executable, "-m", "repro.experiments", "fig2"]
    if jobs is not None:
        command += ["--jobs", str(jobs)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE"] = "0"
    start = time.perf_counter()
    subprocess.run(command, check=True, capture_output=True, env=env, cwd=REPO_ROOT)
    return [round(time.perf_counter() - start, 3)]


def bench_artifact_cache() -> dict[str, float]:
    """Cold compute-and-store vs warm load of the benchmark campaign."""
    study = build_study(BENCH_STUDY_CONFIG)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        artifact_cache.set_enabled(True)
        try:
            start = time.perf_counter()
            study.run_campaign(BENCH_CAMPAIGN)
            cold = time.perf_counter() - start
            start = time.perf_counter()
            study.run_campaign(BENCH_CAMPAIGN)
            warm = time.perf_counter() - start
        finally:
            artifact_cache.set_enabled(None)
            os.environ.pop("REPRO_CACHE_DIR", None)
    return {"cold_s": round(cold, 3), "warm_s": round(warm, 3)}


def bench_obs_overhead(repeats: int = 5) -> dict[str, object]:
    """Campaign replay with metrics collecting vs disabled, interleaved.

    Interleaving the on/off runs and comparing fastest-vs-fastest keeps
    machine drift (thermal, noisy neighbours) out of a 3 % comparison;
    the medians are reported alongside for context.
    """
    study = build_study(BENCH_STUDY_CONFIG)
    study._run_campaign_uncached(BENCH_CAMPAIGN)  # warm code paths once
    on_runs: list[float] = []
    off_runs: list[float] = []
    for _ in range(repeats):
        for enabled, runs in ((False, off_runs), (True, on_runs)):
            metrics.set_enabled(enabled)
            try:
                start = time.perf_counter()
                study._run_campaign_uncached(BENCH_CAMPAIGN)
                runs.append(round(time.perf_counter() - start, 3))
            finally:
                metrics.set_enabled(None)
    overhead = min(on_runs) / min(off_runs) - 1.0
    return {
        "metrics_on_runs_s": on_runs,
        "metrics_off_runs_s": off_runs,
        "metrics_on_best_s": min(on_runs),
        "metrics_off_best_s": min(off_runs),
        "metrics_on_median_s": round(statistics.median(on_runs), 3),
        "metrics_off_median_s": round(statistics.median(off_runs), 3),
        "overhead_fraction": round(overhead, 4),
        "limit_fraction": OBS_OVERHEAD_LIMIT,
        "within_limit": overhead <= OBS_OVERHEAD_LIMIT,
    }


def _observe_requests(study, count: int = 6000) -> list[ObserveRequest]:
    """A fixed randomized request mix over real routed paths."""
    rng = random.Random(1234)
    clients = study.population.all_clients()
    servers = study.mlab.servers()
    requests: list[ObserveRequest] = []
    attempt = 0
    while len(requests) < count and attempt < count * 3:
        attempt += 1
        client = rng.choice(clients)
        server = rng.choice(servers)
        path = study.forwarder.route_flow(
            client.asn, client.city, server.asn, server.city, ("bench", attempt)
        )
        if path is None:
            continue
        requests.append(
            ObserveRequest(
                path=path,
                hour=rng.uniform(0.0, 24.0),
                access_rate_bps=client.plan_rate_bps,
                home_factor=client.base_home_factor,
            )
        )
    return requests


def bench_tcp_observe(repeats: int = 5, count: int = 6000) -> dict[str, object]:
    """``observe_batch`` vs the equivalent sequential ``observe`` loop.

    Both paths evaluate the identical request list from identically
    reseeded models (so they produce byte-identical observations); the
    difference is purely link-table reuse + vectorized arithmetic vs
    per-call scalar evaluation.
    """
    study = build_study(BENCH_STUDY_CONFIG)
    requests = _observe_requests(study, count)
    scalar_runs: list[float] = []
    batch_runs: list[float] = []
    for _ in range(repeats):
        model = study.tcp.reseeded(3)
        start = time.perf_counter()
        for request in requests:
            model.observe_request(request)
        scalar_runs.append(round(time.perf_counter() - start, 4))
        model = study.tcp.reseeded(3)
        start = time.perf_counter()
        model.observe_batch(requests)
        batch_runs.append(round(time.perf_counter() - start, 4))
    scalar_median = round(statistics.median(scalar_runs), 4)
    batch_median = round(statistics.median(batch_runs), 4)
    return {
        "requests": len(requests),
        "scalar_runs_s": scalar_runs,
        "batch_runs_s": batch_runs,
        "scalar_median_s": scalar_median,
        "batch_median_s": batch_median,
        "batch_speedup": round(scalar_median / batch_median, 2) if batch_median else None,
    }


def bench_fig5_sweep(repeats: int = 2) -> list[float]:
    """The fig5 heavy step, uncached: 24k-test campaign + matching + MAP-IT."""
    study = build_study(BENCH_STUDY_CONFIG)

    def sweep():
        analyze_campaign(study, FIG5_CAMPAIGN)

    return _timed(sweep, repeats)


def _kernel_requests(study, max_prefixes: int = 600) -> list[TraceRequest]:
    """bdrmap-style probes from VP0 toward one address per routed prefix."""
    internet = study.internet
    vp = study.ark_vps()[0]
    requests: list[TraceRequest] = []
    for prefix in internet.routed_prefixes()[:max_prefixes]:
        if prefix.asn == 0 or prefix.asn not in internet.graph:
            continue
        dst_as = internet.graph.get(prefix.asn)
        if not dst_as.home_cities:
            continue
        requests.append(
            TraceRequest(
                vp.ip, vp.asn, vp.city, prefix.base + 1, prefix.asn,
                dst_as.home_cities[0], 0.0, ("bench", vp.code, prefix.base),
            )
        )
    return requests


def bench_trace_kernel(rounds: int = 8, repeats: int = 3) -> dict[str, object]:
    """Steady-state ``trace_batch`` vs the scalar ``trace`` loop.

    Fresh forwarder + engine per repeat; one untimed warm-up round pays
    the routing walks and render-table builds, then ``rounds`` timed
    rounds replay the identical request set — the regime the §5 sweep
    lives in, where every VP revisits its probe list day after day.
    Best-of-repeats keeps GC pauses out of the ratio. Both paths produce
    byte-identical records (tests/test_trace_batch_equivalence.py), so
    the ratio is pure dispatch cost.
    """
    study = build_study(BENCH_STUDY_CONFIG)
    requests = _kernel_requests(study)

    def steady(mode: str) -> float:
        best = float("inf")
        for _ in range(repeats):
            forwarder = Forwarder(study.internet)
            engine = TracerouteEngine(
                study.internet,
                forwarder,
                TracerouteConfig(seed=study.config.seed),
                stream="bench:kernel",
            )
            if mode == "batch":
                engine.trace_batch(requests)
                start = time.perf_counter()
                for _ in range(rounds):
                    engine.trace_batch(requests)
            else:
                for request in requests:
                    engine.trace(*request)
                start = time.perf_counter()
                for _ in range(rounds):
                    for request in requests:
                        engine.trace(*request)
            best = min(best, time.perf_counter() - start)
        return round(best, 3)

    scalar = steady("scalar")
    batch = steady("batch")
    return {
        "requests": len(requests),
        "rounds": rounds,
        "scalar_best_s": scalar,
        "batch_best_s": batch,
        "speedup": round(scalar / batch, 2) if batch else None,
    }


def _pr1_medians() -> dict[str, float]:
    """BENCH_PR1 medians for the speedup denominator (file, else snapshot)."""
    try:
        data = json.loads(OUTPUT.read_text())
        return {
            name: entry["median_s"]
            for name, entry in data["benchmarks"].items()
            if isinstance(entry, dict) and entry.get("median_s")
        }
    except (OSError, ValueError, KeyError):
        return dict(PR1_BASELINES_S)


def run_pr3_suite() -> int:
    """Batch-engine benchmarks: write BENCH_PR3.json, gate on the speedups."""
    artifact_cache.set_enabled(False)
    results: dict[str, dict] = {}
    suite_start = time.perf_counter()
    try:
        observe = bench_tcp_observe()
        results["tcp_observe_bench"] = observe
        print(
            f"tcp_observe_bench: scalar {observe['scalar_median_s']}s vs "
            f"batch {observe['batch_median_s']}s over {observe['requests']} requests "
            f"({observe['batch_speedup']}x)"
        )
        for name, runs in (
            ("build_study_bench", bench_build_study()),
            ("campaign_bench", bench_campaign()),
            ("fig5_sweep_bench", bench_fig5_sweep()),
            ("fig2_full_serial", bench_fig2_subprocess(jobs=None)),
            ("fig2_full_jobs4", bench_fig2_subprocess(jobs=4)),
        ):
            median = round(statistics.median(runs), 3)
            results[name] = {"runs_s": runs, "median_s": median}
            print(f"{name}: median {median}s over {len(runs)} run(s) {runs}")
    finally:
        artifact_cache.set_enabled(None)

    pr1 = _pr1_medians()
    speedups = {
        name: round(pr1[name] / results[name]["median_s"], 2)
        for name in ("build_study_bench", "campaign_bench", "fig2_full_serial", "fig2_full_jobs4")
        if pr1.get(name) and results.get(name, {}).get("median_s")
    }
    gates = {
        name: {
            "required_speedup": required,
            "measured_speedup": speedups.get(name),
            "passed": bool(speedups.get(name) and speedups[name] >= required),
        }
        for name, required in PR3_GATES.items()
    }
    report = {
        "machine": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "study_config": repr(BENCH_STUDY_CONFIG),
        "campaign_config": repr(BENCH_CAMPAIGN),
        "fig5_campaign_config": repr(FIG5_CAMPAIGN),
        "pr1_baseline_medians_s": pr1,
        "benchmarks": results,
        "speedups_vs_pr1": speedups,
        "gates": gates,
        "suite_wall_s": round(time.perf_counter() - suite_start, 3),
    }
    PR3_OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {PR3_OUTPUT}")
    for name, factor in speedups.items():
        print(f"  {name}: {factor}x vs BENCH_PR1")
    failed = [name for name, gate in gates.items() if not gate["passed"]]
    if failed:
        print(f"FAIL: speedup gate(s) not met: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def run_pr5_suite(smoke: bool = False) -> int:
    """Scaling benchmarks for the compiled-world work: BENCH_PR5.json.

    ``smoke`` is the CI shape: fewer repeats, no full-scale fig2 runs,
    and the gates measured against this machine's parent-commit
    baselines are recorded but not enforced (they were calibrated on a
    specific box). The kernel gate always runs — it is self-relative, so
    it holds on any machine the batch path actually helps.
    """
    artifact_cache.set_enabled(False)
    results: dict[str, dict] = {}
    suite_start = time.perf_counter()
    cpu_count = os.cpu_count() or 1
    cpu_limited = cpu_count < 2
    try:
        kernel = bench_trace_kernel(repeats=2 if smoke else 3)
        results["trace_kernel_bench"] = kernel
        print(
            f"trace_kernel_bench: scalar {kernel['scalar_best_s']}s vs "
            f"batch {kernel['batch_best_s']}s over {kernel['rounds']} rounds "
            f"of {kernel['requests']} requests ({kernel['speedup']}x)"
        )
        for name, jobs in (
            ("coverage_bench_serial", 1),
            ("coverage_bench_jobs2", 2),
            ("coverage_bench_jobs4", 4),
        ):
            runs = bench_coverage(jobs=jobs, repeats=2 if smoke else 5)
            entry: dict[str, object] = {
                "runs_s": runs,
                "median_s": round(statistics.median(runs), 3),
                "best_s": min(runs),
            }
            if jobs > 1:
                # How the pool actually ran: start method plus per-worker
                # study-cache hits (fork inherits) vs rebuilds (spawn).
                stats = pool_stats()
                entry["pool"] = {
                    "workers": stats.get("workers"),
                    "fallback": stats.get("fallback"),
                    "start_method": stats.get("start_method"),
                    "worker_stats": stats.get("worker_stats"),
                }
            results[name] = entry
            print(f"{name}: median {entry['median_s']}s best {entry['best_s']}s {runs}")
        if not smoke:
            for name, jobs in (
                ("fig2_full_serial", None),
                ("fig2_full_jobs2", 2),
                ("fig2_full_jobs4", 4),
            ):
                runs = bench_fig2_subprocess(jobs=jobs)
                results[name] = {
                    "runs_s": runs,
                    "median_s": round(statistics.median(runs), 3),
                }
                print(f"{name}: median {results[name]['median_s']}s {runs}")
    finally:
        artifact_cache.set_enabled(None)

    kernel_speedup = kernel["speedup"] or 0.0
    # Best-of-runs vs the parent commit's interleaved medians: both
    # numbers are steady-state walls of the identical sweep, and min()
    # is the noise-robust statistic on a shared box.
    coverage_best = results["coverage_bench_serial"]["best_s"]
    coverage_speedup = round(
        PR5_BASELINES_S["coverage_bench_serial"] / coverage_best, 2
    )
    gates = {
        "trace_batch_kernel": {
            "required_speedup": PR5_GATES["trace_batch_kernel"],
            "measured_speedup": kernel_speedup,
            "enforced": True,
            "passed": kernel_speedup >= PR5_GATES["trace_batch_kernel"],
        },
        "coverage_serial_vs_pr4": {
            "required_speedup": PR5_GATES["coverage_serial_vs_pr4"],
            "measured_speedup": coverage_speedup,
            "baseline_s": PR5_BASELINES_S["coverage_bench_serial"],
            "enforced": not smoke,
            "passed": smoke
            or coverage_speedup >= PR5_GATES["coverage_serial_vs_pr4"],
        },
    }
    if "fig2_full_jobs4" in results:
        serial_s = results["fig2_full_serial"]["median_s"]
        jobs4_s = results["fig2_full_jobs4"]["median_s"]
        parallel_speedup = round(serial_s / jobs4_s, 2)
        if cpu_limited:
            required = f"parity within {PR5_PARITY_TOLERANCE:.0%} (single core)"
            passed = jobs4_s <= serial_s * (1.0 + PR5_PARITY_TOLERANCE)
        else:
            required = f">= {PR5_GATES['fig2_jobs4_vs_serial']}x vs own serial"
            passed = parallel_speedup >= PR5_GATES["fig2_jobs4_vs_serial"]
        gates["fig2_jobs4_vs_serial"] = {
            "required": required,
            "measured_speedup": parallel_speedup,
            "cpu_limited": cpu_limited,
            "enforced": True,
            "passed": passed,
        }

    report = {
        "machine": {
            "python": platform.python_version(),
            "cpu_count": cpu_count,
            "platform": platform.platform(),
        },
        "smoke": smoke,
        "cpu_limited": cpu_limited,
        "study_config": repr(BENCH_STUDY_CONFIG),
        "pr4_baseline_medians_s": PR5_BASELINES_S,
        "baseline_provenance": (
            "parent commit b8a00ec on this machine, interleaved "
            "fresh-interpreter A/B medians"
        ),
        "benchmarks": results,
        "gates": gates,
        "suite_wall_s": round(time.perf_counter() - suite_start, 3),
    }
    PR5_OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {PR5_OUTPUT}")
    for name, gate in gates.items():
        state = "pass" if gate["passed"] else "FAIL"
        state += "" if gate["enforced"] else " (not enforced)"
        print(f"  {name}: {gate['measured_speedup']}x [{state}]")
    failed = [n for n, g in gates.items() if g["enforced"] and not g["passed"]]
    if failed:
        print(f"FAIL: scaling gate(s) not met: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _world_sha(world: CompiledWorld) -> str:
    """One sha256 over every array in schema order — the byte identity."""
    hasher = hashlib.sha256()
    for name in CompiledWorld._ARRAY_FIELDS:
        array = np.ascontiguousarray(getattr(world, name))
        hasher.update(name.encode())
        hasher.update(str(array.dtype).encode())
        hasher.update(str(array.shape).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def _time_object_path(config: InternetConfig, repeats: int) -> tuple[list[float], str]:
    """Time the object-first leg: generate, materialize every facade, then
    derive the arrays by walking the objects. Returns the runs and the
    last world's sha."""
    runs: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        internet = generate_internet(config)
        internet.materialize()
        world = compile_from_object_graph(internet)
        runs.append(round(time.perf_counter() - start, 3))
    return runs, _world_sha(world)


def bench_worldgen(smoke: bool = False) -> dict[str, object]:
    """Scale-1.0 world builds: object-graph-first vs table-first.

    Three regimes, all post-import wall clock:

    * ``object_first`` — generate, materialize the object graph, then
      derive the arrays by walking it with ``compile_from_object_graph``
      (the PR-5 shape, and what every cold process used to pay).
    * ``table_first_build`` — the recorder emits the arrays during
      generation and the snapshot is persisted (file removed between
      repeats so the write is always paid).
    * ``snapshot_hit`` — ``compiled_world_for`` against a warm cache:
      digest-index lookup + mmap attach, no generator at all. This is
      the table-first cold start the speedup gate scores.

    The two builders' worlds are hashed and compared — the ≥3x headline
    is only meaningful because the fast path is byte-identical.
    """
    repeats = 2 if smoke else 3
    config = PR6_WORLD_CONFIG

    object_runs, object_sha = _time_object_path(config, repeats)

    table_runs: list[float] = []
    path = None
    for _ in range(repeats):
        clear_compile_cache()
        if path is not None and path.exists():
            path.unlink()
        start = time.perf_counter()
        world = compile_world(generate_internet(config))
        table_runs.append(round(time.perf_counter() - start, 3))
        path = snapshot_path(world.digest)
    table_sha = _world_sha(world)

    compiled_world_for(config)  # seed the config→digest index
    hit_runs_ms: list[float] = []
    for _ in range(3 if smoke else 5):
        clear_compile_cache()
        start = time.perf_counter()
        compiled_world_for(config)
        hit_runs_ms.append(round((time.perf_counter() - start) * 1000, 3))

    return {
        "world_config": repr(config),
        "object_first_runs_s": object_runs,
        "object_first_median_s": round(statistics.median(object_runs), 3),
        "table_first_build_runs_s": table_runs,
        "table_first_build_median_s": round(statistics.median(table_runs), 3),
        "snapshot_hit_runs_ms": hit_runs_ms,
        "snapshot_hit_median_ms": round(statistics.median(hit_runs_ms), 3),
        "snapshot_file": str(path),
        "snapshot_file_bytes": path.stat().st_size if path and path.exists() else None,
        "object_first_sha256": object_sha,
        "table_first_sha256": table_sha,
        "byte_identical": object_sha == table_sha,
    }


def bench_snapshot_cold_subprocess(cache_dir: str) -> dict[str, object]:
    """Fresh-interpreter cold load: config → mapped world, post-import.

    Only ``compiled_world_for`` is inside the clock — the gate budgets
    the snapshot machinery (digest-index read + zip walk + mmap), not
    Python start-up, which every alternative pays identically.
    """
    script = (
        "import json, time\n"
        "from repro.topology.generator import InternetConfig\n"
        "from repro.net.compiled import compiled_world_for\n"
        f"config = {PR6_WORLD_CONFIG!r}\n"
        "start = time.perf_counter()\n"
        "world = compiled_world_for(config)\n"
        "elapsed_ms = (time.perf_counter() - start) * 1000\n"
        "print(json.dumps({'ms': round(elapsed_ms, 3), 'digest': world.digest,"
        " 'ases': int(world.adj_indptr.shape[0] - 1)}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = cache_dir
    env.pop("REPRO_CACHE", None)
    result = subprocess.run(
        [sys.executable, "-c", script],
        check=True, capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def bench_large_world_smoke(smoke: bool = False) -> dict[str, object]:
    """Scale-1.0 end-to-end smoke over the resident snapshot.

    Records the world's headline sizes, the in-process mmap re-load
    time, and ``origin_batch`` throughput over millions of random
    addresses — the access pattern the §5 trace corpus analysis puts on
    the LPM table.
    """
    config = PR6_WORLD_CONFIG
    world = compiled_world_for(config)
    array_bytes = sum(
        np.ascontiguousarray(getattr(world, name)).nbytes
        for name in CompiledWorld._ARRAY_FIELDS
    )
    path = snapshot_path(world.digest)

    clear_compile_cache()
    start = time.perf_counter()
    reloaded = load_snapshot_world(world.digest)
    reload_ms = round((time.perf_counter() - start) * 1000, 3)
    assert reloaded is not None, "large-world snapshot did not reload"

    rng = np.random.default_rng(7)
    lookups = 500_000 if smoke else 2_000_000
    ips = rng.integers(
        int(world.lpm_starts[0]), int(world.lpm_ends[-1]),
        size=lookups, dtype=np.int64,
    )
    start = time.perf_counter()
    origins = reloaded.origin_batch(ips)
    lookup_s = time.perf_counter() - start
    return {
        "world_config": repr(config),
        "digest": world.digest,
        "ases": int(world.adj_indptr.shape[0] - 1),
        "interfaces": int(world.iface_ips.shape[0]),
        "links": int(world.link_ids.shape[0]),
        "array_bytes": int(array_bytes),
        "snapshot_file_bytes": path.stat().st_size if path.exists() else None,
        "snapshot_reload_ms": reload_ms,
        "origin_batch_lookups": lookups,
        "origin_batch_s": round(lookup_s, 3),
        "origin_batch_per_s": int(lookups / lookup_s) if lookup_s else None,
        "origins_resolved_fraction": round(float((origins >= 0).mean()), 4),
    }


def _pr5_coverage_median() -> float:
    try:
        data = json.loads(PR5_OUTPUT.read_text())
        return float(data["benchmarks"]["coverage_bench_serial"]["median_s"])
    except (OSError, ValueError, KeyError, TypeError):
        return PR5_COVERAGE_SERIAL_MEDIAN_S


def run_pr6_suite(smoke: bool = False) -> int:
    """Table-first worldgen benchmarks: write BENCH_PR6.json, gate.

    The worldgen benches run against a private, *enabled* artifact cache
    in a temp dir — the suite measures the snapshot machinery itself, so
    it must be on, but never against the developer's real cache. The
    coverage regression bench then runs with the cache disabled, exactly
    as BENCH_PR5 measured its baseline.
    """
    results: dict[str, dict] = {}
    suite_start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-bench-worldgen-") as cache_dir:
        previous_dir = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        artifact_cache.set_enabled(True)
        try:
            worldgen = bench_worldgen(smoke=smoke)
            results["worldgen_bench"] = worldgen
            print(
                f"worldgen_bench: object-first {worldgen['object_first_median_s']}s, "
                f"table-first build {worldgen['table_first_build_median_s']}s, "
                f"snapshot hit {worldgen['snapshot_hit_median_ms']}ms "
                f"(byte_identical={worldgen['byte_identical']})"
            )
            cold = bench_snapshot_cold_subprocess(cache_dir)
            results["snapshot_cold_subprocess"] = cold
            print(f"snapshot_cold_subprocess: {cold['ms']}ms in a fresh interpreter")
            large = bench_large_world_smoke(smoke=smoke)
            results["large_world_smoke"] = large
            print(
                f"large_world_smoke: {large['ases']} ASes, "
                f"{large['array_bytes'] / 1e6:.1f}MB arrays, reload "
                f"{large['snapshot_reload_ms']}ms, origin_batch "
                f"{large['origin_batch_per_s']:,}/s"
            )
        finally:
            artifact_cache.set_enabled(None)
            clear_compile_cache()
            if previous_dir is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous_dir

    artifact_cache.set_enabled(False)
    try:
        coverage_runs = bench_coverage(jobs=1, repeats=2 if smoke else 5)
    finally:
        artifact_cache.set_enabled(None)
    coverage_median = round(statistics.median(coverage_runs), 3)
    results["coverage_bench_serial"] = {
        "runs_s": coverage_runs,
        "median_s": coverage_median,
        "best_s": min(coverage_runs),
    }
    print(f"coverage_bench_serial: median {coverage_median}s {coverage_runs}")

    build_speedup = round(
        worldgen["object_first_median_s"]
        / (worldgen["snapshot_hit_median_ms"] / 1000.0),
        2,
    )
    pr5_median = _pr5_coverage_median()
    coverage_ratio = round(coverage_median / pr5_median, 3)
    tolerance = PR6_GATES["coverage_serial_tolerance"]
    gates = {
        "worldgen_table_first_vs_object_first": {
            "required_speedup": PR6_GATES["worldgen_table_first_vs_object_first"],
            "measured_speedup": build_speedup,
            "enforced": True,
            "passed": build_speedup >= PR6_GATES["worldgen_table_first_vs_object_first"],
        },
        "snapshot_cold_load_ms": {
            "required_max_ms": PR6_GATES["snapshot_cold_load_ms"],
            "measured_ms": cold["ms"],
            "enforced": True,
            "passed": cold["ms"] <= PR6_GATES["snapshot_cold_load_ms"],
        },
        "table_first_byte_identity": {
            "required": "object-first and table-first worlds hash equal",
            "measured": worldgen["byte_identical"],
            "enforced": True,
            "passed": bool(worldgen["byte_identical"]),
        },
        "coverage_serial_vs_pr5": {
            "required": f"median <= {tolerance}x BENCH_PR5 median",
            "baseline_s": pr5_median,
            "measured_s": coverage_median,
            "measured_ratio": coverage_ratio,
            "enforced": not smoke,
            "passed": smoke or coverage_ratio <= tolerance,
        },
    }

    report = {
        "machine": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "smoke": smoke,
        "world_config": repr(PR6_WORLD_CONFIG),
        "study_config": repr(BENCH_STUDY_CONFIG),
        "benchmarks": results,
        "gates": gates,
        "suite_wall_s": round(time.perf_counter() - suite_start, 3),
    }
    PR6_OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {PR6_OUTPUT}")
    for name, gate in gates.items():
        state = "pass" if gate["passed"] else "FAIL"
        state += "" if gate["enforced"] else " (not enforced)"
        print(f"  {name}: [{state}]")
    failed = [n for n, g in gates.items() if g["enforced"] and not g["passed"]]
    if failed:
        print(f"FAIL: worldgen gate(s) not met: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def bench_telemetry_overhead(smoke: bool = False) -> dict[str, object]:
    """Full telemetry stack on vs everything off, interleaved.

    The "on" runs carry the whole PR-7 stack live: metrics collecting
    (with the ``gcstats`` collector hook), the cadence sampler ticking
    at 100 ms, the asyncio ``/metrics`` endpoint serving, and the
    sampling profiler's ``SIGALRM`` timer sampling the campaign thread.
    The "off" runs
    disable metrics (``REPRO_METRICS=0``'s state) and start nothing.
    Every run's campaign output is content-hashed —
    a single distinct hash across all runs is the byte-identity gate —
    and the last "on" run's live ``/metrics`` scrape is validated for
    the quantile histogram and pool time-series families.

    The gate is the *median of pairwise on/off process-CPU-time
    ratios*, with wall clock recorded alongside. On shared/virtualized
    runners (CI, steal-prone VMs) identical ~1 s runs drift ±20 %+ in
    wall time — and host frequency scaling drifts CPU time by a
    similar margin over minutes — which makes any cross-run 5 % gate
    pure noise. Adjacent runs, though, see the same host weather, so
    each pair's on/off ratio isolates the telemetry cost; alternating
    which mode runs first inside the pair cancels within-pair ramp
    bias, and the median across pairs suppresses the occasional pair
    that straddles a drift step. CPU time (``time.process_time()``)
    charges every telemetry thread's work — sampler, server — and the
    profiler's signal handler to this process, so the ratio is the honest measure of what the
    stack costs the measured code.
    """
    import urllib.request

    from repro.obs import gcstats
    from repro.obs import serve as obs_serve
    from repro.obs import timeseries as obs_timeseries
    from repro.obs.profiler import SamplingProfiler

    repeats = 3 if smoke else 6
    study = build_study(BENCH_STUDY_CONFIG)
    study._run_campaign_uncached(BENCH_CAMPAIGN)  # warm code paths once

    def run_once() -> tuple[float, float, str]:
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        result = study._run_campaign_uncached(BENCH_CAMPAIGN)
        cpu = time.process_time() - cpu_start
        wall = time.perf_counter() - wall_start
        hasher = hashlib.sha256()
        for record in result.ndt_records:
            hasher.update(repr(record).encode())
        for record in result.traceroute_records:
            hasher.update(repr(record).encode())
        return wall, cpu, hasher.hexdigest()

    on_wall: list[float] = []
    off_wall: list[float] = []
    on_cpu: list[float] = []
    off_cpu: list[float] = []
    pair_ratios: list[float] = []
    hashes: set[str] = set()
    openmetrics: dict[str, object] = {}
    profiler = None

    def run_off() -> None:
        metrics.set_enabled(False)
        try:
            wall, cpu, sha = run_once()
        finally:
            metrics.set_enabled(None)
        off_wall.append(round(wall, 3))
        off_cpu.append(cpu)
        hashes.add(sha)

    def run_on(scrape: bool) -> None:
        nonlocal openmetrics, profiler
        metrics.set_enabled(True)
        metrics.reset()
        gcstats.install()
        sampler = obs_timeseries.default_sampler()
        server = obs_serve.TelemetryServer(port=0, sampler=sampler).start()
        profiler = SamplingProfiler().start()
        try:
            wall, cpu, sha = run_once()
            if scrape:
                with urllib.request.urlopen(
                    f"{server.url}/metrics", timeout=5
                ) as response:
                    text = response.read().decode("utf-8")
                openmetrics = {
                    "bytes": len(text),
                    "has_tcp_batch_quantiles": "tcp_batch_requests_quantiles" in text,
                    "has_pool_timeseries": "ts_pool_" in text,
                    "ends_with_eof": text.rstrip().endswith("# EOF"),
                }
        finally:
            profiler.stop()
            server.stop()
            gcstats.uninstall()
            metrics.set_enabled(None)
        on_wall.append(round(wall, 3))
        on_cpu.append(cpu)
        hashes.add(sha)

    for index in range(repeats):
        # Alternate which mode runs first so within-pair warm-up or
        # host-frequency ramp cannot systematically favour one side.
        if index % 2 == 0:
            run_off()
            run_on(scrape=index == repeats - 1)
        else:
            run_on(scrape=index == repeats - 1)
            run_off()
        pair_ratios.append(on_cpu[-1] / off_cpu[-1])

    folded_path = profiler.write_folded(REPO_ROOT) if profiler else None
    overhead = statistics.median(pair_ratios) - 1.0
    return {
        "telemetry_on_runs_s": on_wall,
        "telemetry_off_runs_s": off_wall,
        "telemetry_on_cpu_runs_s": [round(c, 3) for c in on_cpu],
        "telemetry_off_cpu_runs_s": [round(c, 3) for c in off_cpu],
        "telemetry_on_median_s": round(statistics.median(on_wall), 3),
        "telemetry_off_median_s": round(statistics.median(off_wall), 3),
        "telemetry_on_cpu_median_s": round(statistics.median(on_cpu), 3),
        "telemetry_off_cpu_median_s": round(statistics.median(off_cpu), 3),
        "pairwise_cpu_ratios": [round(r, 4) for r in pair_ratios],
        "overhead_basis": "median_pairwise_process_cpu_ratio",
        "overhead_fraction": round(overhead, 4),
        "limit_fraction": TELEMETRY_OVERHEAD_LIMIT,
        "within_limit": overhead <= TELEMETRY_OVERHEAD_LIMIT,
        "distinct_output_hashes": len(hashes),
        "byte_identical": len(hashes) == 1,
        "openmetrics": openmetrics,
        "profiler_samples": profiler.samples if profiler else 0,
        "profile_folded": str(folded_path) if folded_path else None,
    }


def run_pr7_suite(smoke: bool = False) -> int:
    """Telemetry benchmarks: write BENCH_PR7.json, gate overhead ≤5 %.

    Also records a ``campaign_bench`` median so the cross-PR bench-trend
    report has a metric this PR shares with its predecessors.
    """
    artifact_cache.set_enabled(False)
    suite_start = time.perf_counter()
    try:
        telemetry = bench_telemetry_overhead(smoke=smoke)
        campaign_runs = bench_campaign(repeats=2 if smoke else 3)
    finally:
        artifact_cache.set_enabled(None)
    print(
        f"telemetry overhead: {telemetry['overhead_fraction']:+.2%} "
        f"(median pairwise cpu ratio {telemetry['pairwise_cpu_ratios']}, "
        f"limit {TELEMETRY_OVERHEAD_LIMIT:.0%}; cpu medians on/off "
        f"{telemetry['telemetry_on_cpu_median_s']}s/"
        f"{telemetry['telemetry_off_cpu_median_s']}s, wall medians "
        f"{telemetry['telemetry_on_median_s']}s/"
        f"{telemetry['telemetry_off_median_s']}s); byte_identical="
        f"{telemetry['byte_identical']}; openmetrics={telemetry['openmetrics']}"
    )
    campaign_median = round(statistics.median(campaign_runs), 3)
    print(f"campaign_bench: median {campaign_median}s {campaign_runs}")

    scrape = telemetry["openmetrics"]
    gates = {
        "telemetry_overhead": {
            "required_max_fraction": TELEMETRY_OVERHEAD_LIMIT,
            "measured_fraction": telemetry["overhead_fraction"],
            "enforced": True,
            "passed": bool(telemetry["within_limit"]),
        },
        "byte_identity": {
            "required": "identical campaign output hash, telemetry on and off",
            "distinct_hashes": telemetry["distinct_output_hashes"],
            "enforced": True,
            "passed": bool(telemetry["byte_identical"]),
        },
        "openmetrics_scrape": {
            "required": "live /metrics carries tcp_batch quantiles, pool "
                        "time-series, and the # EOF terminator",
            "measured": scrape,
            "enforced": True,
            "passed": bool(
                scrape
                and scrape.get("has_tcp_batch_quantiles")
                and scrape.get("has_pool_timeseries")
                and scrape.get("ends_with_eof")
            ),
        },
    }
    report = {
        "machine": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "smoke": smoke,
        "study_config": repr(BENCH_STUDY_CONFIG),
        "campaign_config": repr(BENCH_CAMPAIGN),
        "benchmarks": {
            "telemetry_overhead_bench": telemetry,
            "campaign_bench": {
                "runs_s": campaign_runs,
                "median_s": campaign_median,
            },
        },
        "gates": gates,
        "suite_wall_s": round(time.perf_counter() - suite_start, 3),
    }
    PR7_OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {PR7_OUTPUT}")
    for name, gate in gates.items():
        print(f"  {name}: [{'pass' if gate['passed'] else 'FAIL'}]")
    failed = [n for n, g in gates.items() if g["enforced"] and not g["passed"]]
    if failed:
        print(f"FAIL: telemetry gate(s) not met: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def bench_worldgen_rss_probe(mode: str, scale: float) -> dict[str, object]:
    """One world build in a fresh interpreter, RSS net of imports.

    The clock covers generation (plus ``materialize()`` for the object
    path) — the thing this PR made array-native. ``compile_world`` runs
    after the clock stops but before the RSS sample, identically on
    both sides, so the digest is checked and the compiled arrays count
    toward both peaks equally.

    The high-water mark must be sampled twice in the same process —
    after imports, then after generation — and differenced: the import
    floor is what generation itself never pays. ``VmHWM`` from
    ``/proc/self/status`` is the right counter because it lives on the
    memory map and execve replaces the map; ``ru_maxrss`` survives
    fork+exec, so a child of a fat benchmark driver would inherit the
    driver's watermark and read a floor above its own peak (observed:
    an 81 MB "floor" in a process that never used more than 45).
    Falls back to ``ru_maxrss`` off Linux. ``mode`` is
    ``array_native`` (generation's only product is the recorder; facades
    stay unmaterialized) or ``object_path`` (eager ``materialize()``
    right after generation — the PR6-equivalent shape where the object
    graph and the tables are both resident). The cache is off so the
    clock measures generation, never a snapshot hit.
    """
    assert mode in ("array_native", "object_path"), mode
    materialize = "internet.materialize()\n" if mode == "object_path" else ""
    script = (
        "import json, resource, time\n"
        "def rss_mb():\n"
        "    try:\n"
        "        with open('/proc/self/status') as status:\n"
        "            for line in status:\n"
        "                if line.startswith('VmHWM:'):\n"
        "                    return int(line.split()[1]) / 1024.0\n"
        "    except OSError:\n"
        "        pass\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0\n"
        "from repro.topology.generator import InternetConfig, generate_internet\n"
        "from repro.net.compiled import compile_world\n"
        "import_rss = rss_mb()\n"
        f"config = InternetConfig(seed=7, scale={scale!r})\n"
        "start = time.perf_counter()\n"
        "internet = generate_internet(config)\n"
        f"{materialize}"
        "wall = time.perf_counter() - start\n"
        "world = compile_world(internet)\n"
        "peak = rss_mb()\n"
        "print(json.dumps({'wall_s': round(wall, 3),"
        " 'import_rss_mb': round(import_rss, 1),"
        " 'peak_rss_mb': round(peak, 1),"
        " 'net_rss_mb': round(peak - import_rss, 1),"
        " 'digest': world.digest}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE"] = "0"
    result = subprocess.run(
        [sys.executable, "-c", script],
        check=True, capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def _probe_series(mode: str, scale: float, repeats: int) -> dict[str, object]:
    """Repeat the fresh-interpreter probe; medians over wall and net RSS."""
    probes = [bench_worldgen_rss_probe(mode, scale) for _ in range(repeats)]
    digests = {p["digest"] for p in probes}
    assert len(digests) == 1, f"unstable digest across probes: {digests}"
    return {
        "runs_s": [p["wall_s"] for p in probes],
        "median_s": round(statistics.median(p["wall_s"] for p in probes), 3),
        "net_rss_runs_mb": [p["net_rss_mb"] for p in probes],
        "net_rss_median_mb": round(
            statistics.median(p["net_rss_mb"] for p in probes), 1
        ),
        "import_floor_mb": probes[0]["import_rss_mb"],
        "peak_rss_runs_mb": [p["peak_rss_mb"] for p in probes],
        "digest": probes[0]["digest"],
    }


def bench_array_native_build(smoke: bool = False) -> dict[str, object]:
    """In-process scale=1.0 builds: byte identity + a PR6-comparable median.

    The object path generates array-native, then eagerly materializes
    the facades and compiles by walking the objects — an independent
    cross-check of the recorder's arrays. Its world must hash
    identically to the array-native compile. The table-first
    build runs are recorded under the same key BENCH_PR6 used
    (``table_first_build_median_s``) so ``repro.bench.trend`` scores
    this PR against the pre-array-native build cost.
    """
    repeats = 2 if smoke else 3
    config = PR6_WORLD_CONFIG

    object_runs, object_sha = _time_object_path(config, repeats)

    table_runs: list[float] = []
    path = None
    for _ in range(repeats):
        clear_compile_cache()
        if path is not None and path.exists():
            path.unlink()
        start = time.perf_counter()
        world = compile_world(generate_internet(config))
        table_runs.append(round(time.perf_counter() - start, 3))
        path = snapshot_path(world.digest)
    table_sha = _world_sha(world)

    return {
        "world_config": repr(config),
        "object_path_runs_s": object_runs,
        "object_path_median_s": round(statistics.median(object_runs), 3),
        "table_first_build_runs_s": table_runs,
        "table_first_build_median_s": round(statistics.median(table_runs), 3),
        "object_path_sha256": object_sha,
        "array_native_sha256": table_sha,
        "byte_identical": object_sha == table_sha,
    }


def run_pr8_suite(smoke: bool = False) -> int:
    """Array-native worldgen benchmarks: write BENCH_PR8.json, gate.

    The byte-identity section runs against a private enabled cache in a
    temp dir (the array-native build persists its snapshot; never into
    the developer's real cache). The RSS probes run in fresh
    interpreters with the cache off, so every run pays full generation
    and ``ru_maxrss`` means this world, not a previous one.
    """
    suite_start = time.perf_counter()
    results: dict[str, dict] = {}

    with tempfile.TemporaryDirectory(prefix="repro-bench-arraygen-") as cache_dir:
        previous_dir = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        artifact_cache.set_enabled(True)
        try:
            build = bench_array_native_build(smoke=smoke)
        finally:
            artifact_cache.set_enabled(None)
            clear_compile_cache()
            if previous_dir is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous_dir
    results["worldgen_bench"] = build
    print(
        f"worldgen_bench: array-native build {build['table_first_build_median_s']}s, "
        f"object-path cross-check {build['object_path_median_s']}s "
        f"(byte_identical={build['byte_identical']})"
    )

    repeats = 2 if smoke else 3
    fresh = _probe_series("array_native", scale=1.0, repeats=repeats)
    results["worldgen_fresh"] = fresh
    print(
        f"worldgen_fresh: median {fresh['median_s']}s, net RSS "
        f"{fresh['net_rss_median_mb']}MB (import floor {fresh['import_floor_mb']}MB)"
    )
    object_path = _probe_series("object_path", scale=1.0, repeats=repeats)
    results["worldgen_object_path"] = object_path
    print(
        f"worldgen_object_path: median {object_path['median_s']}s, net RSS "
        f"{object_path['net_rss_median_mb']}MB"
    )

    scale4_fresh = _probe_series("array_native", scale=PR8_SCALE4, repeats=1)
    scale4_object = _probe_series("object_path", scale=PR8_SCALE4, repeats=1)
    results["worldgen_scale4_fresh"] = scale4_fresh
    results["worldgen_scale4_object_path"] = scale4_object
    print(
        f"worldgen_scale4: fresh {scale4_fresh['median_s']}s / "
        f"{scale4_fresh['net_rss_median_mb']}MB net, object path "
        f"{scale4_object['median_s']}s / {scale4_object['net_rss_median_mb']}MB net"
    )

    speedup = round(object_path["median_s"] / fresh["median_s"], 2)
    rss_ratio = round(
        fresh["net_rss_median_mb"] / object_path["net_rss_median_mb"], 3
    )
    scale4_ratio = round(
        scale4_fresh["net_rss_median_mb"] / scale4_object["net_rss_median_mb"], 3
    )
    gates = {
        "worldgen_fresh_vs_object_path": {
            "required_speedup": PR8_GATES["fresh_speedup"],
            "measured_speedup": speedup,
            "enforced": True,
            "passed": speedup >= PR8_GATES["fresh_speedup"],
        },
        "worldgen_rss_vs_object_path": {
            "required_max_ratio": PR8_GATES["fresh_rss_ratio"],
            "measured_ratio": rss_ratio,
            "fresh_net_rss_mb": fresh["net_rss_median_mb"],
            "object_path_net_rss_mb": object_path["net_rss_median_mb"],
            "enforced": True,
            "passed": rss_ratio <= PR8_GATES["fresh_rss_ratio"],
        },
        "array_native_byte_identity": {
            "required": "compile_from_object_graph walk hashes equal to the "
                        "array-native compile",
            "measured": build["byte_identical"],
            "enforced": True,
            "passed": bool(build["byte_identical"]),
        },
        "scale4_rss_bound": {
            "required": f"net RSS <= {PR8_GATES['scale4_rss_ratio']}x object "
                        f"path and <= {PR8_GATES['scale4_rss_max_mb']}MB",
            "measured_ratio": scale4_ratio,
            "measured_net_rss_mb": scale4_fresh["net_rss_median_mb"],
            "enforced": True,
            "passed": (
                scale4_ratio <= PR8_GATES["scale4_rss_ratio"]
                and scale4_fresh["net_rss_median_mb"]
                <= PR8_GATES["scale4_rss_max_mb"]
            ),
        },
    }

    report = {
        "machine": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "smoke": smoke,
        "world_config": repr(PR6_WORLD_CONFIG),
        "scale4": PR8_SCALE4,
        "benchmarks": results,
        "gates": gates,
        "suite_wall_s": round(time.perf_counter() - suite_start, 3),
    }
    PR8_OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {PR8_OUTPUT}")
    for name, gate in gates.items():
        state = "pass" if gate["passed"] else "FAIL"
        state += "" if gate["enforced"] else " (not enforced)"
        print(f"  {name}: [{state}]")
    failed = [n for n, g in gates.items() if g["enforced"] and not g["passed"]]
    if failed:
        print(
            f"FAIL: array-native worldgen gate(s) not met: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


def run_obs_gate() -> int:
    """Measure observability overhead, write BENCH_PR2.json, gate at 3 %."""
    artifact_cache.set_enabled(False)
    try:
        obs = bench_obs_overhead()
    finally:
        artifact_cache.set_enabled(None)
    report = {
        "machine": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "study_config": repr(BENCH_STUDY_CONFIG),
        "campaign_config": repr(BENCH_CAMPAIGN),
        "obs_overhead": obs,
    }
    OBS_OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"obs overhead: {obs['overhead_fraction']:+.2%} "
        f"(metrics on {obs['metrics_on_best_s']}s vs off {obs['metrics_off_best_s']}s, "
        f"limit {OBS_OVERHEAD_LIMIT:.0%}); wrote {OBS_OUTPUT}"
    )
    if not obs["within_limit"]:
        print("FAIL: observability overhead exceeds the limit", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    smoke = "--smoke" in sys.argv[1:]
    if "--obs-only" in sys.argv[1:]:
        return run_obs_gate()
    if "--pr3-only" in sys.argv[1:]:
        return run_pr3_suite()
    if "--pr5-only" in sys.argv[1:]:
        return run_pr5_suite(smoke=smoke)
    if "--pr6-only" in sys.argv[1:]:
        return run_pr6_suite(smoke=smoke)
    if "--telemetry-only" in sys.argv[1:]:
        return run_pr7_suite(smoke=smoke)
    if "--pr8-only" in sys.argv[1:]:
        return run_pr8_suite(smoke=smoke)
    artifact_cache.set_enabled(False)
    results: dict[str, dict] = {}

    suite_start = time.perf_counter()
    for name, runs in (
        ("build_study_bench", bench_build_study()),
        ("campaign_bench", bench_campaign()),
        ("coverage_bench_serial", bench_coverage(jobs=1)),
        ("coverage_bench_jobs4", bench_coverage(jobs=4)),
        ("fig2_full_serial", bench_fig2_subprocess(jobs=None)),
        ("fig2_full_jobs4", bench_fig2_subprocess(jobs=4)),
    ):
        median = round(statistics.median(runs), 3)
        results[name] = {"runs_s": runs, "median_s": median}
        print(f"{name}: median {median}s over {len(runs)} run(s) {runs}")

    artifact_cache.set_enabled(None)
    cache_pair = bench_artifact_cache()
    results["artifact_cache_campaign"] = cache_pair
    print(f"artifact_cache_campaign: cold {cache_pair['cold_s']}s warm {cache_pair['warm_s']}s")

    speedups = {
        name: round(baseline / results[name]["median_s"], 2)
        for name, baseline in SEED_BASELINES_S.items()
        if results.get(name, {}).get("median_s")
    }
    speedups["fig2_full_jobs4_vs_seed_serial"] = round(
        SEED_BASELINES_S["fig2_full_serial"] / results["fig2_full_jobs4"]["median_s"], 2
    )

    report = {
        "machine": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        },
        "study_config": repr(BENCH_STUDY_CONFIG),
        "campaign_config": repr(BENCH_CAMPAIGN),
        "seed_baselines_s": SEED_BASELINES_S,
        "benchmarks": results,
        "totals": {
            "suite_wall_s": round(time.perf_counter() - suite_start, 3),
            "study_build_median_s": results["build_study_bench"]["median_s"],
            "campaign_median_s": results["campaign_bench"]["median_s"],
        },
        "speedups_vs_seed": speedups,
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {OUTPUT}")
    for name, factor in speedups.items():
        print(f"  {name}: {factor}x vs seed")
    status = run_obs_gate()
    return (
        status
        or run_pr3_suite()
        or run_pr5_suite(smoke=smoke)
        or run_pr6_suite(smoke=smoke)
        or run_pr7_suite(smoke=smoke)
        or run_pr8_suite(smoke=smoke)
    )


if __name__ == "__main__":
    raise SystemExit(main())
