"""The cyclic collector: pausing it around bulk builders, and counting it.

``gc_paused`` must always hand the collector back in the state it found
it (after an exception, when it was already off, when nested), and the
builders it wraps must return with the collector running. ``gcstats``
must count collections per generation and pause time while metrics are
on, and show them in the manifest's metrics and the OpenMetrics
exposition.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.inference.mapit import MapIt
from repro.measurement.traceroute import TracerouteConfig
from repro.experiments import EXPERIMENTS
from repro.obs import expo, gcstats, metrics, trace
from repro.util import artifact_cache
from repro.util.gcpause import gc_paused
from repro.util.parallel import parallel_map
from tests.test_trace_batch_equivalence import _engine, _golden_requests


def _full_collection(_item):
    return gc.collect(2)


@pytest.fixture(autouse=True)
def _restore_gc():
    """Leave the collector, its hooks and the registry as each test found them."""
    was_enabled = gc.isenabled()
    metrics.set_enabled(None)
    metrics.reset()
    yield
    gcstats.uninstall()
    metrics.set_enabled(None)
    metrics.reset()
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestGcPaused:
    def test_pauses_inside_and_restores_after(self):
        gc.enable()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_reenabled_after_body_raises(self):
        gc.enable()
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("builder failed")
        assert gc.isenabled()

    def test_already_disabled_collector_stays_disabled(self):
        gc.disable()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_nested_use_keeps_collector_off_until_outermost_exit(self):
        gc.enable()
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_decorator_form_restores_after_raise(self):
        @gc_paused()
        def build(fail):
            assert not gc.isenabled()
            if fail:
                raise ValueError("bad input")
            return "built"

        gc.enable()
        assert build(False) == "built"
        assert gc.isenabled()
        with pytest.raises(ValueError):
            build(True)
        assert gc.isenabled()


class TestBuildersRestoreCollector:
    def test_trace_batch_and_mapit_infer_return_with_gc_enabled(self, small_study):
        gc.enable()
        engine = _engine(small_study, TracerouteConfig(seed=7), "gc:restore")
        records = engine.trace_batch(_golden_requests(small_study, tag="gc:restore"))
        assert gc.isenabled()
        paths = [r.router_hop_ips() for r in records if r is not None]
        result = MapIt(small_study.oracle, small_study.internet.graph).infer(paths)
        assert gc.isenabled()
        assert result.links

    def test_cache_round_trip_returns_with_gc_enabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        gc.enable()
        artifact_cache.store("gc-probe", "k", {"rows": [(1, 2.0)] * 3})
        assert gc.isenabled()
        assert artifact_cache.load("gc-probe", "k") == {"rows": [(1, 2.0)] * 3}
        assert gc.isenabled()


class TestGcStats:
    def test_counts_collections_per_generation_and_pause_time(self):
        gcstats.install()
        gcstats.install()  # idempotent: one hook, one count per collection
        gc.collect(2)
        gc.collect(0)
        snap = metrics.snapshot()
        assert snap["runtime.gc.collections.gen2"] >= 1
        assert snap["runtime.gc.collections.gen0"] >= 1
        assert snap["runtime.gc.pause_s"]["count"] >= 2
        assert snap["runtime.gc.pause_s"]["total"] >= 0.0

    def test_metrics_off_records_nothing(self):
        metrics.set_enabled(False)
        gcstats.install()
        gc.collect()
        assert not any(name.startswith("runtime.gc.") for name in metrics.snapshot())

    def test_uninstall_stops_counting(self):
        gcstats.install()
        gcstats.uninstall()
        gc.collect()
        assert "runtime.gc.collections.gen2" not in metrics.snapshot()

    def test_collections_appear_in_openmetrics(self):
        gcstats.install()
        gc.collect()
        text = expo.render_openmetrics(timeseries_snapshot={})
        assert "runtime_gc_collections_gen2_total" in text
        assert "runtime_gc_pause_s_count" in text

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_workers_count_and_fold_into_parent(self, monkeypatch, start_method):
        # The parent has no hook: every counted collection is a worker's.
        monkeypatch.setenv("REPRO_POOL_OVERSUBSCRIBE", "1")
        monkeypatch.setenv("REPRO_POOL_START", start_method)
        parallel_map(_full_collection, [0, 1], jobs=2)
        assert metrics.snapshot().get("runtime.gc.collections.gen2", 0) >= 2

    @pytest.mark.parametrize("metrics_env", ["1", "0"])
    def test_experiments_run_records_collections_and_unhooks(
        self, tmp_path, monkeypatch, capsys, metrics_env
    ):
        tab1 = EXPERIMENTS["tab1"]

        def tab1_with_full_collection():
            gc.collect(2)
            return tab1()

        monkeypatch.setitem(EXPERIMENTS, "tab1", tab1_with_full_collection)
        monkeypatch.setenv("REPRO_METRICS", metrics_env)
        metrics.set_enabled(None)
        try:
            assert experiments_main(["tab1", "--obs-dir", str(tmp_path)]) == 0
        finally:
            trace.set_enabled(False)
            trace.reset()
        capsys.readouterr()
        payload = json.loads((tmp_path / "run_manifest.json").read_text())
        recorded = payload["metrics"]
        if metrics_env == "1":
            assert recorded["runtime.gc.collections.gen2"] >= 1
            assert recorded["runtime.gc.pause_s"]["count"] >= 1
        else:
            assert not any(name.startswith("runtime.gc.") for name in recorded)
        assert gcstats._on_gc not in gc.callbacks
