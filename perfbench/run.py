"""The repository's benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload tomography --seed 7 --seconds 16 --trace 0

Run it from the repository root (it builds nothing: the program is the
pure-Python package under ``src/``). Workloads are described in
``perfbench/workloads.py`` and ``BENCHMARK.json``. The load is one closed-loop client:
a single serial process at a time, ``jobs=1``, no pool.

``--trace 0`` times fresh-interpreter runs of the workload until
``--seconds`` of measurement has been spent (at least one), plus
:data:`SETUP_SAMPLES` set-up-only interpreters, and reports the median
of each end-to-end metric. ``--trace 1`` makes one untraced and one
traced run and reports the traced run's per-layer numbers (see
``perfbench/layers.json`` for which end-to-end metric each should move).

Every run checks its outputs: ground-truth levels, coverage-report
contracts, digest agreement across runs of one seed and, for seed 7,
with ``perfbench/golden.json``. The last line of standard output is the
JSON result; the line before it records the host context. State lives
in ``.perfbench/`` under the working directory: per-run caches, the
warm-reload artifacts of each seed, digests, spans and result records.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("tomography", "coverage", "warm-reload")
GOLDEN_SEED = 7
#: Extra set-up-only interpreters per untraced run, for a steadier setup_s.
SETUP_SAMPLES = 2
#: A run stops starting new work when this much wall time has passed, so
#: that it exits within the 180 s a run is allowed.
DEADLINE_S = 165.0
#: Warm-reload artifact sets (≈110 MB each) and span files (≈10 MB each)
#: kept on disk, newest first.
WARM_SEEDS_KEPT = 3
SPAN_FILES_KEPT = 6


def source_salt(src: Path) -> str:
    """Digest of the program's sources: a new program never reuses stale
    warm-reload artifacts or digests recorded for another version."""
    hasher = hashlib.sha256()
    for path in sorted((src / "repro").rglob("*.py")):
        hasher.update(str(path.relative_to(src)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def cpu_times() -> list[int]:
    with open("/proc/stat") as handle:
        return [int(v) for v in handle.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of all CPU time the hypervisor stole between two samples."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # guest time is already counted in user/nice
    return delta[7] / total if total else 0.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Bench:
    """One invocation: spawns children, aggregates, checks digests."""

    def __init__(self, root: Path, workload: str, seed: int, deadline: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = root / ".perfbench"
        self.salt = source_salt(root / "src")
        self.attempted = 0
        self.failures: list[str] = []
        self.cache_bytes = 0
        self._count = 0
        # Runs are serial: what an interrupted run left in runs/ and tmp/ is stale.
        for sub in ("runs", "tmp"):
            shutil.rmtree(self.work / sub, ignore_errors=True)
        for sub in ("runs", "tmp", "warm", "spans", "results"):
            (self.work / sub).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------ children

    def _children(self, specs: list[dict], cache: Path, label: str) -> list[dict | None]:
        """Run child.py once per spec, concurrently; a child that did not
        finish (crash, deadline) yields None and counts as a failed operation."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["REPRO_CACHE_DIR"] = str(cache)
        env["PYTHONPATH"] = str(self.root / "src")
        started = []
        try:
            for spec in specs:
                self._count += 1
                run_id = f"{self.workload}-s{self.seed}-{os.getpid()}-{self._count}"
                spec_path = self.work / "runs" / f"{run_id}.json"
                spec = dict(spec, workload=self.workload, seed=self.seed, run_id=run_id,
                            result=str(spec_path.with_suffix(".out.json")),
                            spans=str(self.work / "spans" / f"{run_id}.npz"))
                spec["spawn_time"] = time.time()
                spec_path.write_text(json.dumps(spec))
                with spec_path.with_suffix(".log").open("wb") as log:
                    proc = subprocess.Popen(
                        [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                        cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT,
                    )
                started.append((proc, spec_path))
            results = []
            for proc, spec_path in started:
                try:
                    code = proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
                    reason = f"exit code {code}, see {spec_path.with_suffix('.log')}"
                except subprocess.TimeoutExpired:
                    code, reason = None, f"killed at the {DEADLINE_S:.0f} s deadline"
                results.append(self._collect(spec_path, code, reason, label))
            return results
        finally:
            for proc, _spec_path in started:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    def _collect(self, spec_path: Path, code: int | None, reason: str, label: str):
        result_path = spec_path.with_suffix(".out.json")
        if code != 0 or not result_path.is_file():
            self.attempted += 1
            self.failures.append(f"{label}: {reason}")
            return None
        result = json.loads(result_path.read_text())
        for path in (spec_path, result_path, spec_path.with_suffix(".log")):
            path.unlink()
        return result

    def _child(self, spec: dict, cache: Path, label: str) -> dict | None:
        return self._children([spec], cache, label)[0]

    def _cache_for_run(self) -> Path:
        if self.workload == "warm-reload":
            return self.warm_dir
        path = self.work / "tmp" / f"{os.getpid()}-{self._count + 1}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def _done_with(self, cache: Path) -> None:
        self.cache_bytes = max(self.cache_bytes, dir_bytes(cache))
        if self.workload != "warm-reload":
            shutil.rmtree(cache, ignore_errors=True)

    def setup_sample(self) -> float | None:
        cache = self._cache_for_run()
        result = self._child({"setup_only": True}, cache, "setup")
        self._done_with(cache)
        if result is not None:
            self.attempted += 1
            return result["setup_s"]
        return None

    def iteration(self, trace: bool = False) -> dict | None:
        cache = self._cache_for_run()
        result = self._child({"trace": trace}, cache, "run")
        self._done_with(cache)
        if result is not None:
            self.attempted += result["attempted"]
            self.failures.extend(f"{op}: {why}" for op, why in result["failures"].items())
        return result

    def prepare_warm(self) -> None:
        """Write the warm-reload artifacts of this seed once per program."""
        warm_root = self.work / "warm"
        self.warm_dir = warm_root / f"{self.salt}-seed{self.seed}"
        ready = self.warm_dir / "ready"
        if ready.is_file():
            ready.touch()
            return
        shutil.rmtree(self.warm_dir, ignore_errors=True)
        self.warm_dir.mkdir(parents=True)
        # One interpreter per epoch, side by side: preparation is not timed.
        specs = [{"prepare": True, "epochs": [epoch]} for epoch in ("2015", "2017")]
        results = self._children(specs, self.warm_dir, "prepare")
        self.attempted += sum(r is not None for r in results)
        if None in results:
            return
        ready.touch()
        kept = sorted(
            (p for p in warm_root.iterdir() if (p / "ready").is_file()),
            key=lambda p: (p / "ready").stat().st_mtime, reverse=True,
        )
        for stale in kept[WARM_SEEDS_KEPT:]:
            shutil.rmtree(stale, ignore_errors=True)

    # ------------------------------------------------------------- digests

    def prune_spans(self) -> None:
        files = sorted((self.work / "spans").glob("*.npz"), key=lambda p: p.stat().st_mtime)
        for stale in files[:-SPAN_FILES_KEPT]:
            stale.unlink()

    def check_digests(self, digests: list[str | None]) -> None:
        """Digests agree across this run's iterations, with earlier runs of
        this seed on this program, and for seed 7 with golden.json."""
        self.attempted += 1
        known = [d for d in digests if d is not None]
        if not known:
            return  # the iteration that produced no digest already failed
        if len(set(known)) > 1:
            self.failures.append(f"digest: iterations disagree {sorted(set(known))}")
        digest = known[0]
        store = self.work / "digests.json"
        recorded = json.loads(store.read_text()) if store.is_file() else {}
        key = f"{self.salt}/{self.workload}/{self.seed}"
        if key in recorded and recorded[key] != digest:
            self.failures.append(f"digest: {digest} differs from earlier run's {recorded[key]}")
        recorded.setdefault(key, digest)
        store.write_text(json.dumps(recorded, indent=1, sort_keys=True))
        if self.seed == GOLDEN_SEED:
            self.attempted += 1
            golden = json.loads((BENCH_DIR / "golden.json").read_text())["digests"]
            if golden.get(self.workload) != digest:
                self.failures.append(
                    f"digest: seed-{GOLDEN_SEED} digest {digest} differs from golden.json's "
                    f"{golden.get(self.workload)}"
                )


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def measure(bench: Bench, seconds: float) -> tuple[dict, list[dict]]:
    """Untraced: set-up samples, then timed runs until ``seconds`` are spent."""
    setups = [s for s in (bench.setup_sample() for _ in range(SETUP_SAMPLES)) if s is not None]
    runs: list[dict] = []
    spent = 0.0
    while True:
        started = time.monotonic()
        result = bench.iteration()
        took = time.monotonic() - started
        if result is None:
            break
        runs.append(result)
        spent += result["run_s"]
        # Start another run only if it fits both the measuring time and
        # the deadline, judged by the one just made.
        if spent + result["run_s"] > seconds or time.monotonic() + 1.5 * took > bench.deadline:
            break
    if not runs:
        return {}, runs
    setups.extend(r["setup_s"] for r in runs)
    metrics = {
        "run_s": (median_of(runs, "run_s"), "s"),
        "run_cpu_s": (median_of(runs, "run_cpu_s"), "s"),
        "peak_rss_mb": (median_of(runs, "peak_rss_mb"), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, runs


def trace(bench: Bench) -> tuple[dict, list[dict]]:
    """One untraced run, then one traced run for the per-layer numbers."""
    plain = bench.iteration()
    traced = bench.iteration(trace=True) if plain is not None else None
    if traced is None:
        return {}, [r for r in (plain,) if r is not None]
    metrics = {name: (value, unit_of(name)) for name, value in traced["layers"].items()}
    # Both in reference seconds, so host drift between the two runs cancels.
    metrics["bench.untraced_run_s"] = (plain["run_s"], "s")
    metrics["bench.traced_run_s"] = (traced["run_s"], "s")
    metrics["bench.trace_overhead_ratio"] = (traced["run_s"] / plain["run_s"], "ratio")
    return metrics, [plain, traced]


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("bytes_read") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Exit through the normal path on SIGTERM, so running children are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {root / 'src' / 'repro'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, started + DEADLINE_S)
    prepare_s = 0.0
    if args.workload == "warm-reload":
        bench.prepare_warm()
        prepare_s = time.monotonic() - started
    measured_from = cpu_times()
    if args.trace:
        metrics, runs = trace(bench)
        bench.prune_spans()
    else:
        metrics, runs = measure(bench, args.seconds)
    bench.check_digests([r.get("digest") for r in runs])

    failed = len(bench.failures)
    attempted = max(bench.attempted, failed, 1)
    if args.trace:
        metrics["failed_frac"] = (failed / attempted, "ratio")
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": runs[0].get("numpy") if runs else None,
        "cache_dir_bytes": bench.cache_bytes,
        "steal_share": steal_share(measured_from, cpu_times()),
        # Medians over runs of the raw wall seconds and of child.SpeedProbe's
        # kernel time while timing: a higher probe means a slower host.
        "run_wall_s": statistics.median([r["run_wall_s"] for r in runs] or [0.0]),
        "probe_run_us": statistics.median([r["probe_run_us"] for r in runs] or [0.0]),
        "runs": len(runs),
        "wall_s": time.monotonic() - started,
        "prepare_s": prepare_s,
    }
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  host=host, failures=bench.failures, runs=runs)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (bench.work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps(record, indent=1))
    for failure in bench.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
