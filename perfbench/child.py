"""One timed run of one workload, in a fresh interpreter.

``run.py`` starts this script once per timed run (and once per extra
set-up sample) with a JSON spec file and reads the JSON result it
writes next to the spec. A fresh interpreter per run means no in-process
memo (study, campaign, coverage or compiled-world caches) serves a run;
``REPRO_CACHE_DIR`` is set by the parent to a directory the benchmark
owns. Usage: ``python3 perfbench/child.py SPEC.json``.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time
from pathlib import Path


_PROBE_INPUT = tuple(range(64))

#: Probe-kernel time, in microseconds, that defines a reference second:
#: about what the kernel takes inside a run on the 2-vCPU reference host
#: when that host is quiet, so reference and wall seconds then agree.
PROBE_REF_US = 60.0


def _probe_kernel() -> int:
    # Integer arithmetic only: allocates no container, so it can neither
    # trigger nor be billed for a cyclic collection of the workload's heap.
    acc = 0
    for _ in range(12):
        for value in _PROBE_INPUT:
            acc = (acc * 31 + value) & 0xFFFF
    return acc


class SpeedProbe:
    """How fast the host let this interpreter run, sampled while it works.

    The benchmark's host is shared: its speed drifts by tens of percent
    over minutes with no steal time showing, and wall and CPU seconds
    drift together. A SIGALRM handler times a fixed pure-Python kernel
    every ``interval`` seconds; :meth:`take` turns the samples since the
    last call into a speed factor, ``PROBE_REF_US / trimmed mean``, which
    scales measured seconds to reference seconds. The kernel tracks the
    core's speed, not contention for memory bandwidth, so the scaling
    removes most but not all of the drift; raw seconds are kept too.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.samples: list[float] = []

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        _probe_kernel()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> tuple[float, float]:
        """(speed factor, trimmed mean kernel µs) of the samples since the
        last call; factor 1.0 when no sample landed."""
        ordered = sorted(self.samples)
        self.samples = []
        if not ordered:
            return 1.0, 0.0
        # Trim the slowest and fastest tenth: a sample that lands on a
        # context switch says nothing about the host's sustained speed.
        cut = len(ordered) // 10
        mean_us = statistics.fmean(ordered[cut:len(ordered) - cut]) * 1e6
        return PROBE_REF_US / mean_us, mean_us


def _vm_hwm_mb() -> float:
    """Peak resident memory of this interpreter (VmHWM, not ru_maxrss,
    which can carry the parent's high-water mark across exec)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _counter(snapshot: dict, name: str) -> float:
    value = snapshot.get(name, 0)
    return float(value["total"] if isinstance(value, dict) else value)


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_metrics(
    tracer, gc_timer, rss_delta_mb: dict, snapshot: dict, run_s: float, matched_frac: float
) -> dict[str, float]:
    """Per-layer numbers of one traced run (names as in BENCHMARK.json).

    Times here are wall seconds as the spans saw them; multiply by
    ``bench.host_speed_ratio`` to compare them with the end-to-end metrics.
    """
    from tracing import attribute, inclusive_times

    spans = tracer.spans()
    layer_self, unattributed = attribute(spans)
    roots = {name: end - start for name, _layer, parent, start, end in spans if parent < 0}
    inclusive = inclusive_times(spans)
    calls: dict[str, int] = {}
    for name, _layer, _parent, _start, _end in spans:
        calls[name] = calls.get(name, 0) + 1
    sizes = tracer.result_sizes

    path_hits = _counter(snapshot, "forwarder.path_cache.hits")
    path_total = path_hits + _counter(snapshot, "forwarder.path_cache.misses")
    seg_hits = _counter(snapshot, "forwarder.segment_cache.hits")
    seg_total = seg_hits + _counter(snapshot, "forwarder.segment_cache.misses")
    cell_hits = _counter(snapshot, "tcp.batch.link_cell_hits")
    cell_total = cell_hits + _counter(snapshot, "tcp.batch.link_cells_materialized")

    metrics = {
        f"{layer}.self_s": layer_self.get(layer, 0.0)
        for layer in (
            "topology", "net.link", "net.compiled", "routing", "measurement.traceroute",
            "net.tcp", "platforms", "core.matching", "inference.mapit",
            "inference.bdrmap", "inference.alias", "core.coverage",
            "core.localization", "core.assumptions", "util.artifact_cache",
            "core.pipeline",
        )
    }
    metrics.update({
        "inference.mapit.annotate_s": inclusive.get("MapItResult.annotate_trace", 0.0),
        "inference.mapit.annotate_calls": calls.get("MapItResult.annotate_trace", 0),
        "inference.mapit.infer_s": inclusive.get("MapIt.infer", 0.0),
        "inference.mapit.infer_calls": calls.get("MapIt.infer", 0),
        "inference.mapit.links": sizes.get("MapIt.infer", 0),
        "measurement.traceroute.calls": calls.get("TracerouteEngine.trace", 0)
        + calls.get("TracerouteEngine.trace_batch", 0),
        "measurement.traceroute.traces": sizes.get("TracerouteEngine.trace", 0)
        + sizes.get("TracerouteEngine.trace_batch", 0),
        "routing.path_lookups": path_total,
        "routing.path_cache_hit_ratio": _ratio(path_hits, path_total),
        "routing.segment_lookups": seg_total,
        "routing.segment_cache_hit_ratio": _ratio(seg_hits, seg_total),
        "net.tcp.flows": _counter(snapshot, "tcp.flows_simulated"),
        "net.tcp.link_cell_lookups": cell_total,
        "net.tcp.link_cell_hit_ratio": _ratio(cell_hits, cell_total),
        "platforms.tests": sizes.get("run_ndt_campaign", 0),
        "core.matching.matched_frac": matched_frac,
        "util.artifact_cache.load_s": inclusive.get("load", 0.0),
        "util.artifact_cache.bytes_read": _counter(snapshot, "artifact_cache.bytes_read"),
        "util.artifact_cache.hits": _counter(snapshot, "artifact_cache.hits"),
        "util.artifact_cache.store_s": inclusive.get("store", 0.0),
        "util.artifact_cache.bytes_written": _counter(snapshot, "artifact_cache.bytes_written"),
        "util.artifact_cache.misses": _counter(snapshot, "artifact_cache.misses"),
        "net.snapshot.load_ms": _counter(snapshot, "snapshot.load_ms"),
        "net.snapshot.saves": _counter(snapshot, "snapshot.saves"),
        "runtime.gc_s": gc_timer.seconds,
        "runtime.gc_collections": gc_timer.collections,
        "bench.spans": len(spans),
        # Σ <layer>.self_s + both remainders = traced run + setup wall seconds.
        "bench.traced_run_wall_s": run_s,
        "bench.traced_setup_wall_s": roots["setup"],
        "bench.unattributed_s": unattributed.get("run", 0.0),
        "bench.setup_unattributed_s": unattributed.get("setup", 0.0),
    })
    for stage in STAGES:
        metrics[f"{stage}.rss_delta_mb"] = rss_delta_mb.get(stage, 0.0)
    return metrics


#: Every stage name any workload opens (see workloads.py).
STAGES = (
    "campaign", "matching", "mapit", "localization", "link_diversity",
    "vp_unit", "bdrmap_traces", "target_traces", "coverage_analysis", "run_bdrmap",
    "load_2015", "load_2017", "as_hops", "coverage_fractions", "deltas", "mapit_scoring",
)


def main(spec_path: str) -> int:
    with SpeedProbe() as probe:
        return _main(spec_path, probe)


def _main(spec_path: str, probe: SpeedProbe) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import numpy
    import workloads
    from repro.obs import metrics as obs_metrics

    workload = workloads.WORKLOADS[spec["workload"]]
    size = workloads.Size(**spec.get("size", {}))
    seed = spec["seed"]
    result: dict = {"workload": workload.name, "seed": seed}

    if spec.get("prepare"):
        workloads.prepare_warm(seed, size, spec["epochs"])
        Path(spec["result"]).write_text(json.dumps(result))
        return 0

    tracer = gc_timer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer(spec["run_id"])
        tracing.install(tracer, extra_modules=[workloads])
        gc_timer = tracing.GcTimer()
        setup_root = tracer.open("setup")
    ctx = workload.setup(seed, size)
    if tracer is not None:
        tracer.close(setup_root)
    setup_wall_s = time.time() - spec["spawn_time"]
    factor, mean_us = probe.take()
    result.update(setup_s=setup_wall_s * factor, setup_wall_s=setup_wall_s, probe_setup_us=mean_us)
    if spec.get("setup_only"):
        Path(spec["result"]).write_text(json.dumps(result))
        return 0

    ops = workloads.Operations(tracer)
    if tracer is not None:
        gc_timer.__enter__()
        run_root = tracer.open("run")
    wall0, cpu0 = time.perf_counter(), time.process_time()
    outputs = workload.run(ctx, ops)
    run_wall_s = time.perf_counter() - wall0
    run_cpu_wall_s = time.process_time() - cpu0
    factor, mean_us = probe.take()
    if tracer is not None:
        tracer.close(run_root)
        gc_timer.__exit__()
    result.update(
        run_s=run_wall_s * factor, run_cpu_s=run_cpu_wall_s * factor,
        run_wall_s=run_wall_s, run_cpu_wall_s=run_cpu_wall_s, probe_run_us=mean_us,
        speed_factor=factor, peak_rss_mb=_vm_hwm_mb(), numpy=numpy.__version__,
    )

    checked_from = time.perf_counter()
    workload.check(ctx, outputs, ops)
    ops.attempted.append("digest")
    try:
        result["digest"] = workloads.digest(workload.summary(ctx, outputs))
    except Exception as error:  # an unreadable output fails the run, not the parent
        ops.check("digest", [f"digest failed: {type(error).__name__}: {error}"])
        result["digest"] = None
    result.update(attempted=len(ops.attempted), failed=ops.failed, failures=ops.failures,
                  scores=ops.scores, stage_s=ops.stage_s, check_s=time.perf_counter() - checked_from)

    if tracer is not None:
        result["layers"] = layer_metrics(
            tracer, gc_timer, ops.rss_delta_mb, obs_metrics.snapshot(), run_wall_s,
            _matched_fraction(outputs),
        )
        result["layers"]["bench.host_speed_ratio"] = factor
        tracer.write(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def _matched_fraction(outputs: dict) -> float:
    matching = outputs.get("matching")
    if matching is None:
        return 0.0
    if isinstance(matching, dict):  # warm-reload: one fraction per epoch
        return sum(matching.values()) / len(matching)
    return matching.matched_fraction


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
