"""Low-overhead sampling profiler for measurement runs.

``cProfile`` (the existing ``--profile`` flag) instruments every call
and distorts exactly the hot loops this repo spends its PRs speeding
up. This module is the production-shaped alternative: a wall-clock
interval timer (``ITIMER_REAL``) raises ``SIGALRM`` at
``REPRO_PROFILE_HZ`` (default ~100 Hz, machine-scaled — see
:func:`default_hz`), and the handler, which CPython runs on the main
thread between two bytecodes, records the target thread's stack as a
collapsed stack. The measured code runs unmodified. There is no sampler
thread, so a sample costs no thread wake-up and no GIL hand-off: on a
2-vCPU VM a polling thread costs ~120 µs of CPU and ~8 context switches
per sample, the handler ~30 µs and no switch. The
telemetry-overhead bench gates the *whole* telemetry stack at ≤5 %.

Output is the collapsed-stack ("folded") format flamegraph tooling
eats: one ``frame;frame;frame count`` line per distinct stack, written
to ``profile_folded.txt`` per run. Samples are also attributed to the
active :mod:`repro.obs.trace` span at sample time — each span
accumulates ``cpu_samples`` in its meta, and :meth:`annotate` converts
those to ``cpu_s`` in the serialized tree, so ``trace.json`` answers
"which phase actually burned the CPU" without a second run.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from pathlib import Path

from repro.obs import trace
from repro.obs.log import get_logger

_ENV_HZ = "REPRO_PROFILE_HZ"

_log = get_logger(__name__)

FOLDED_FILENAME = "profile_folded.txt"

#: Meta key spans accumulate sample counts under while profiled.
SPAN_SAMPLES_KEY = "cpu_samples"


def default_hz() -> float:
    """Sampling frequency: ``REPRO_PROFILE_HZ``, else machine-scaled.

    The default is ~100 Hz. On a single-core machine it drops to 25 Hz:
    there the measured thread shares its only core with the telemetry
    server and cadence sampler threads, so the profiler takes a smaller
    share of the budget. The env var overrides either way.
    """
    raw = os.environ.get(_ENV_HZ, "").strip()
    if raw:
        try:
            return min(1000.0, max(1.0, float(raw)))
        except ValueError:
            _log.warning("ignoring unparsable %s=%r", _ENV_HZ, raw)
    return 100.0 if (os.cpu_count() or 2) > 1 else 25.0


#: id(code) -> (code, label). Memoizing keeps the per-sample cost to
#: dict lookups — Path parsing and string formatting at 100 Hz across
#: deep stacks is exactly the overhead the ≤5 % gate forbids. The cache
#: holds the code object itself so its id can never be reused.
_label_cache: dict[int, tuple[object, str]] = {}


def _frame_label(frame) -> str:
    code = frame.f_code
    entry = _label_cache.get(id(code))
    if entry is None:
        entry = (code, f"{Path(code.co_filename).stem}:{code.co_name}")
        _label_cache[id(code)] = entry
    return entry[1]


class SamplingProfiler:
    """Collapsed-stack sampler for one target thread.

    ``start()`` and ``stop()`` must run on the main thread (only it can
    install a signal handler), and nothing else in the process may be
    using ``SIGALRM`` meanwhile. ``start()`` targets the calling thread
    by default (the measurement loop); the handler only reads frame
    objects, so the profiled run's results are byte-identical to an
    unprofiled run. A target that is not a live thread (e.g. already
    joined) counts every tick as missed.
    """

    def __init__(self, hz: float | None = None, max_depth: int = 128) -> None:
        self.hz = default_hz() if hz is None else min(1000.0, max(1.0, float(hz)))
        self.max_depth = max_depth
        self.samples = 0
        self.missed = 0
        self._counts: dict[tuple[str, ...], int] = {}
        self._span_counts: dict[str, int] = {}
        #: Handle of the sampled thread, resolved once in ``start``. A raw
        #: ident is not enough: CPython reuses the idents of joined
        #: threads, so a dead target's ident can name a newer thread.
        self._target: threading.Thread | None = None
        self._target_is_main = False
        self._armed = False
        self._started_monotonic: float | None = None
        self.wall_s = 0.0

    # -- sampling ---------------------------------------------------------

    def _on_alarm(self, _signum: int, frame) -> None:
        # Runs on the main thread, so ``frame`` is the main thread's stack.
        if not self._target_is_main:
            target = self._target
            if target is None or not target.is_alive():
                self.missed += 1
                return
            frame = sys._current_frames().get(target.ident)
            if frame is None:
                self.missed += 1
                return
        stack: list[str] = []
        depth = 0
        while frame is not None and depth < self.max_depth:
            stack.append(_frame_label(frame))
            frame = frame.f_back
            depth += 1
        stack.reverse()
        key = tuple(stack)
        self._counts[key] = self._counts.get(key, 0) + 1
        self.samples += 1
        span = trace.current()
        if span is not None:
            span.meta[SPAN_SAMPLES_KEY] = span.meta.get(SPAN_SAMPLES_KEY, 0) + 1
            name = span.name
        else:
            name = "(no-span)"
        self._span_counts[name] = self._span_counts.get(name, 0) + 1

    # -- lifecycle --------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._armed

    def start(self, thread_id: int | None = None) -> "SamplingProfiler":
        if self.running:
            return self
        if signal.getsignal(signal.SIGALRM) is not signal.SIG_DFL:
            raise RuntimeError("SIGALRM already has a handler; cannot profile")
        if thread_id is None:
            self._target = threading.current_thread()
        else:
            self._target = next(
                (t for t in threading.enumerate() if t.ident == thread_id), None
            )
        self._target_is_main = self._target is threading.main_thread()
        signal.signal(signal.SIGALRM, self._on_alarm)
        interval = 1.0 / self.hz
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        self._armed = True
        self._started_monotonic = time.monotonic()
        return self

    def stop(self) -> None:
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._armed = False
        if self._started_monotonic is not None:
            self.wall_s += time.monotonic() - self._started_monotonic
            self._started_monotonic = None

    # -- output -----------------------------------------------------------

    def collapsed(self) -> list[str]:
        """``frame;frame;frame count`` lines, flamegraph-compatible."""
        return [
            f"{';'.join(stack)} {count}"
            for stack, count in sorted(self._counts.items())
        ]

    def write_folded(self, directory: str | Path = ".") -> Path:
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        path = root / FOLDED_FILENAME
        path.write_text("\n".join(self.collapsed()) + "\n")
        return path

    def span_cpu(self) -> dict[str, float]:
        """Span name → sampled CPU seconds (samples / hz), sorted by cost."""
        return {
            name: round(count / self.hz, 3)
            for name, count in sorted(
                self._span_counts.items(), key=lambda item: -item[1]
            )
        }

    def annotate(self, span_tree: list[dict[str, object]]) -> None:
        """Add ``cpu_s`` beside ``cpu_samples`` in a serialized span tree."""

        def walk(nodes: list[dict[str, object]]) -> None:
            for node in nodes:
                meta = node.get("meta")
                if isinstance(meta, dict) and SPAN_SAMPLES_KEY in meta:
                    meta["cpu_s"] = round(int(meta[SPAN_SAMPLES_KEY]) / self.hz, 3)
                walk(node.get("children", []))  # type: ignore[arg-type]

        walk(span_tree)

    def summary(self) -> dict[str, object]:
        """Manifest payload: volume, rate, and the heaviest leaf frames."""
        leaves: dict[str, int] = {}
        for stack, count in self._counts.items():
            if stack:
                leaves[stack[-1]] = leaves.get(stack[-1], 0) + count
        top = sorted(leaves.items(), key=lambda item: -item[1])[:10]
        return {
            "hz": self.hz,
            "samples": self.samples,
            "missed": self.missed,
            "wall_s": round(self.wall_s, 3),
            "distinct_stacks": len(self._counts),
            "top_frames": [
                {"frame": frame, "samples": count, "cpu_s": round(count / self.hz, 3)}
                for frame, count in top
            ],
            "span_cpu_s": self.span_cpu(),
        }
