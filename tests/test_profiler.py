"""The sampling profiler: collapsed output, span attribution, summaries.

The profiler's contract is observational: it reads stacks, never
injects into the measured thread, and its artifacts (folded stacks,
span CPU, summary) are derived purely from what it sampled.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import trace
from repro.obs.profiler import (
    FOLDED_FILENAME,
    SPAN_SAMPLES_KEY,
    SamplingProfiler,
    default_hz,
)


@pytest.fixture(autouse=True)
def _clean_trace():
    trace.set_enabled(False)
    trace.reset()
    yield
    trace.set_enabled(False)
    trace.reset()


def _burn(duration_s: float) -> None:
    deadline = time.monotonic() + duration_s
    while time.monotonic() < deadline:
        sum(range(200))


class TestDefaults:
    def test_default_hz_scales_with_cores(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_PROFILE_HZ", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert default_hz() == 100.0
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert default_hz() == 25.0
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_hz() == 100.0

    def test_env_override_and_clamp(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setenv("REPRO_PROFILE_HZ", "5000")
        assert default_hz() == 1000.0
        monkeypatch.setenv("REPRO_PROFILE_HZ", "0")
        assert default_hz() == 1.0
        monkeypatch.setenv("REPRO_PROFILE_HZ", "junk")
        assert default_hz() == 25.0  # unparsable falls back to machine default


class TestSampling:
    def test_collapsed_stacks_from_a_busy_thread(self):
        profiler = SamplingProfiler(hz=500)
        profiler.start()
        _burn(0.3)
        profiler.stop()
        assert profiler.samples > 0
        lines = profiler.collapsed()
        assert lines, "no stacks collected"
        # Folded grammar: "frame;frame;... count", root first.
        frames, count = lines[0].rsplit(" ", 1)
        assert int(count) >= 1
        assert ";" in frames or ":" in frames
        assert any("_burn" in line for line in lines)

    def test_write_folded_creates_file(self, tmp_path):
        profiler = SamplingProfiler(hz=500)
        profiler.start()
        _burn(0.1)
        profiler.stop()
        path = profiler.write_folded(tmp_path / "deep")
        assert path.name == FOLDED_FILENAME
        assert path.read_text().strip()

    def test_span_attribution_and_annotate(self):
        trace.set_enabled(True)
        profiler = SamplingProfiler(hz=500)
        profiler.start()
        with trace.span("hot-phase"):
            _burn(0.3)
        profiler.stop()
        tree = trace.tree()
        meta = tree[0]["meta"]
        assert meta.get(SPAN_SAMPLES_KEY, 0) > 0
        profiler.annotate(tree)
        assert meta["cpu_s"] == pytest.approx(meta[SPAN_SAMPLES_KEY] / profiler.hz)
        assert profiler.span_cpu().get("hot-phase", 0) > 0

    def test_annotate_leaves_unprofiled_spans_alone(self):
        profiler = SamplingProfiler(hz=100)
        tree = [{"name": "idle", "meta": {}, "children": []}]
        profiler.annotate(tree)
        assert "cpu_s" not in tree[0]["meta"]

    def test_missed_samples_counted_for_dead_thread(self):
        worker = threading.Thread(target=lambda: None)
        worker.start()
        worker.join()
        profiler = SamplingProfiler(hz=200)
        profiler.start(thread_id=worker.ident)
        deadline = time.monotonic() + 5.0
        while profiler.missed == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        profiler.stop()
        assert profiler.samples == 0
        assert profiler.missed > 0

    def test_summary_shape(self):
        profiler = SamplingProfiler(hz=500)
        profiler.start()
        _burn(0.2)
        profiler.stop()
        summary = profiler.summary()
        assert summary["hz"] == 500
        assert summary["samples"] == profiler.samples
        assert summary["wall_s"] > 0
        assert summary["distinct_stacks"] == len(profiler.collapsed())
        assert summary["top_frames"], "no leaf frames ranked"
        top = summary["top_frames"][0]
        assert top["cpu_s"] == pytest.approx(top["samples"] / 500)

    def test_start_is_idempotent_and_stop_twice_is_safe(self):
        profiler = SamplingProfiler(hz=100)
        profiler.start()
        assert profiler.start() is profiler
        profiler.stop()
        profiler.stop()
        assert not profiler.running
