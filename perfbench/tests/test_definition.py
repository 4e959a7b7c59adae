"""BENCHMARK.json, layers.json and the traced run name the same metrics."""

import json
import subprocess
import sys

import tracing
from child import layer_metrics
from conftest import BENCH_DIR, REPO_ROOT
from tracing import Tracer

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH_DIR / "layers.json").read_text())


def traced_metric_names() -> set[str]:
    tracer = Tracer("t")
    for root in ("setup", "run"):
        tracer.close(tracer.open(root))
    names = set(layer_metrics(tracer, tracing.GcTimer(), {}, {}, 0.0, 0.0))
    # Added by child.py's main and by run.py from the untraced/traced pair.
    return names | {"bench.host_speed_ratio", "bench.untraced_run_s", "bench.traced_run_s",
                    "bench.trace_overhead_ratio", "failed_frac"}


def test_per_layer_metrics_are_what_a_traced_run_prints():
    assert {m["name"] for m in BENCHMARK["per_layer"]} == traced_metric_names()


def test_layers_json_maps_every_per_layer_metric_once():
    mapped = [name for row in LAYERS["layers"] for name in row["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(LAYERS["workloads"]) == workloads
    for row in LAYERS["layers"]:
        assert set(row["moves"]) <= end_to_end
        assert set(row["on"]) | set(row["unchanged_on"]) <= workloads


def test_golden_digests_cover_every_workload():
    golden = json.loads((BENCH_DIR / "golden.json").read_text())["digests"]
    assert set(golden) == {w["name"] for w in BENCHMARK["workloads"]}


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "coverage",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
