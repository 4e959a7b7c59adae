"""failed_frac accounting and digests of the benchmark's workloads."""

import json
import subprocess
import sys

import pytest

from conftest import BENCH_DIR, REPO_ROOT
from workloads import Operations, canonical, digest


def test_raising_stage_counts_once_and_the_run_goes_on():
    ops = Operations()

    def boom():
        raise ValueError("injected")

    assert ops.run("first", lambda: 1) == 1
    assert ops.run("broken", boom) is None
    assert ops.run("third", lambda: 3) == 3
    assert (len(ops.attempted), ops.failed) == (3, 1)

    ops.check("broken", ["also fails its check"])  # already failed: not twice
    ops.check("first", [])
    ops.check("third", ["wrong answer"])
    assert (len(ops.attempted), ops.failed) == (3, 2)
    assert ops.failures["broken"].startswith("ValueError: injected")

    ops.verify("first", boom)  # a check that raises fails its operation
    assert ops.failed / len(ops.attempted) == 1.0


def test_stages_record_memory_deltas():
    ops = Operations()
    ops.run("grow", lambda: bytearray(32 * 2**20), stage="alloc")
    assert set(ops.rss_delta_mb) == {"alloc"}


def test_canonical_form_ignores_set_and_dict_order():
    assert canonical({3, 1, 2}) == canonical({2, 3, 1})
    assert canonical({"b": 1, "a": (1.5, None)}) == canonical({"a": (1.5, None), "b": 1})
    assert digest([1, 2]) != digest([2, 1])
    with pytest.raises(TypeError):
        canonical(object())


TINY = {"scale": 0.05, "tests": 2000, "days": 2, "max_vps": 2, "max_prefixes": 150, "alexa": 40}


def run_child(tmp_path, workload, tag):
    spec = tmp_path / f"{workload}-{tag}.json"
    result = tmp_path / f"{workload}-{tag}.out.json"
    cache = tmp_path / f"cache-{workload}-{tag}"
    spec.write_text(json.dumps({
        "workload": workload, "seed": 5, "size": TINY, "trace": tag == "traced",
        "run_id": tag, "result": str(result), "spans": str(tmp_path / f"{tag}.npz"),
        "spawn_time": 0.0,
    }))
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "REPRO_CACHE_DIR": str(cache),
           "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(spec)],
                   env=env, cwd=REPO_ROOT, check=True, timeout=300)
    return json.loads(result.read_text())


@pytest.mark.parametrize("workload", ["tomography", "coverage"])
def test_digest_is_stable_across_interpreters_and_tracing(tmp_path, workload):
    first = run_child(tmp_path, workload, "a")
    second = run_child(tmp_path, workload, "b")
    traced = run_child(tmp_path, workload, "traced")
    assert first["digest"] is not None
    assert first["digest"] == second["digest"] == traced["digest"]
    assert first["attempted"] > 0
    assert traced["layers"]["bench.spans"] > 0
