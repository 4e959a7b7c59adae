"""Observability layer: logging, metrics, tracing, telemetry, profiling.

``repro.obs`` is the cross-cutting instrumentation the measurement
pipeline reports through. It never feeds back into results: metrics and
spans live *beside* experiment outputs (a run with observability off is
byte-identical to a run with it on), and every hot-path hook is guarded
so the disabled state costs a single flag check.

Sub-modules:

* :mod:`repro.obs.log` — stdlib logging with an optional JSONL formatter,
  wired to ``--log-level`` / ``--log-json`` on the CLIs;
* :mod:`repro.obs.metrics` — process-local counters / gauges / log-bucket
  quantile histograms (``REPRO_METRICS=0`` disables collection);
* :mod:`repro.obs.trace` — ``span("phase")`` timing trees, merged
  deterministically across pool workers and rendered by ``--trace``;
* :mod:`repro.obs.flowprobe` — opt-in tcp_probe-style per-tick flow
  series (cwnd / ssthresh / srtt / throughput) for selected flows;
* :mod:`repro.obs.timeseries` — bounded ring-buffer series plus the
  background cadence sampler (rates, pool depth, cache ratio, RSS);
* :mod:`repro.obs.expo` — OpenMetrics text exposition of the registries;
* :mod:`repro.obs.serve` — the ``/metrics`` ``/healthz`` ``/snapshot``
  HTTP endpoint (``--telemetry-port`` / ``python -m repro.obs.serve``);
* :mod:`repro.obs.profiler` — ~100 Hz sampling profiler with
  collapsed-stack output and per-span CPU attribution;
* :mod:`repro.obs.gcstats` — cyclic-collector collections per generation
  and pause seconds via ``gc.callbacks`` (installed while metrics are on);
* :mod:`repro.obs.manifest` — the ``run_manifest.json`` / ``trace.json``
  writers (schema v2: resource usage + per-phase wall-clock).

Metric name groups are dot-prefixed by layer (``bgp.*``, ``tcp.batch.*``,
``cache.*``); the validation subsystem reports under ``validate.*``
(``contracts_run`` / ``contracts_failed`` / ``gates_run`` /
``gates_failed`` / ``violations``) and traces each check as a
``contract:<name>`` or ``gate:<name>`` span under ``validate_world``.
"""

from repro.obs.log import JSONLFormatter, configure_logging, get_logger
from repro.obs import flowprobe, metrics, trace
from repro.obs.trace import span

__all__ = [
    "JSONLFormatter",
    "configure_logging",
    "flowprobe",
    "get_logger",
    "metrics",
    "span",
    "trace",
]
