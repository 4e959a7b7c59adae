"""Cyclic-collector telemetry: collections per generation and pause time.

:func:`install` appends one hook to :data:`gc.callbacks`. Each finished
collection bumps ``runtime.gc.collections.gen<N>`` and observes its wall
time in the ``runtime.gc.pause_s`` histogram, so the collector's share
of a run lands in ``run_manifest.json`` (its ``metrics`` snapshot) and
on ``/metrics`` beside every other layer. The experiments
CLI and pool workers install it only while metrics are on; with
``REPRO_METRICS=0`` no hook runs at all.
"""

from __future__ import annotations

import gc
import time

from repro.obs import metrics

_COLLECTIONS = tuple(
    metrics.counter(f"runtime.gc.collections.gen{generation}") for generation in range(3)
)
_PAUSE = metrics.histogram("runtime.gc.pause_s")

_started = 0.0


def _on_gc(phase: str, info: dict) -> None:
    global _started
    if phase == "start":
        _started = time.perf_counter()
    else:
        _PAUSE.observe(time.perf_counter() - _started)
        _COLLECTIONS[info["generation"]].inc()


def install() -> None:
    """Start counting collections (idempotent; fork children inherit it)."""
    if _on_gc not in gc.callbacks:
        gc.callbacks.append(_on_gc)


def uninstall() -> None:
    if _on_gc in gc.callbacks:
        gc.callbacks.remove(_on_gc)
