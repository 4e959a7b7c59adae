"""Span tracing for the benchmark's traced run, kept outside the program.

The program is not edited to be traced. Instead :func:`install` wraps
the public entry points of each layer (module functions and class
methods) in place, so every call records a span with a name, a layer,
its start and end, and the span that was open when it began. Spans stay
in memory as flat columns and are written out once, when the run ends.

A layer's self time is the duration of its spans minus the part of each
interval that their child spans cover (:func:`self_times`); spans that
belong to no layer (the benchmark's own ``setup`` and ``run`` roots)
collect the time no layer claims, so layer self times plus that
remainder add up to the root's duration (:func:`attribute`).
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from collections import defaultdict

#: (module, attribute, layer). ``Class.method`` attributes are patched on
#: the class; plain functions are patched in every loaded module that
#: bound the same object (``from x import f`` copies the reference).
WRAPPED_CALLS: tuple[tuple[str, str, str], ...] = (
    ("repro.core.pipeline", "build_study", "core.pipeline"),
    ("repro.topology.generator", "generate_internet", "topology"),
    ("repro.net.link", "provision_links", "net.link"),
    ("repro.net.compiled", "compile_world", "net.compiled"),
    ("repro.net.compiled", "compiled_world_for", "net.compiled"),
    ("repro.routing.forwarding", "Forwarder.route_flow", "routing"),
    ("repro.routing.forwarding", "Forwarder.resolve_paths_batch", "routing"),
    ("repro.measurement.traceroute", "TracerouteEngine.trace", "measurement.traceroute"),
    ("repro.measurement.traceroute", "TracerouteEngine.trace_batch", "measurement.traceroute"),
    ("repro.net.tcp", "TCPModel.observe", "net.tcp"),
    ("repro.net.tcp", "TCPModel.observe_batch", "net.tcp"),
    ("repro.platforms.campaign", "run_ndt_campaign", "platforms"),
    ("repro.core.matching", "match_ndt_to_traceroutes", "core.matching"),
    ("repro.inference.mapit", "MapIt.infer", "inference.mapit"),
    ("repro.inference.mapit", "MapItResult.annotate_trace", "inference.mapit"),
    ("repro.inference.alias", "AliasResolver.resolve", "inference.alias"),
    ("repro.inference.bdrmap", "collect_bdrmap_traces", "inference.bdrmap"),
    ("repro.inference.bdrmap", "run_bdrmap", "inference.bdrmap"),
    ("repro.core.coverage", "collect_target_traces", "core.coverage"),
    ("repro.core.coverage", "coverage_analysis", "core.coverage"),
    ("repro.core.localization", "localize_per_link", "core.localization"),
    ("repro.core.assumptions", "link_diversity", "core.assumptions"),
    ("repro.core.assumptions", "as_hop_distribution", "core.assumptions"),
    ("repro.util.artifact_cache", "load", "util.artifact_cache"),
    ("repro.util.artifact_cache", "store", "util.artifact_cache"),
)

#: Layer of the benchmark's own root spans: time no program layer claims.
ROOT_LAYER = ""

#: Work counts read off a wrapped call's result, summed per call name.
RESULT_SIZES = {
    "TracerouteEngine.trace": lambda record: 0 if record is None else 1,
    "TracerouteEngine.trace_batch": lambda records: sum(r is not None for r in records),
    "MapIt.infer": lambda result: len(result.links),
    "run_ndt_campaign": lambda result: len(result.ndt_records),
}


class Tracer:
    """In-memory span recorder: one run, one thread, flat columns."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_index: dict[tuple[str, str], int] = {}
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        #: Summed :data:`RESULT_SIZES` per call name.
        self.result_sizes: defaultdict[str, int] = defaultdict(int)

    def _name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        index = self._name_index.get(key)
        if index is None:
            index = self._name_index[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return index

    def open(self, name: str, layer: str = ROOT_LAYER) -> int:
        span_id = len(self.start)
        self.name_of.append(self._name_id(name, layer))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.end[span_id] = time.perf_counter()
        popped = self._stack.pop()
        if popped != span_id:
            raise RuntimeError(f"span {span_id} closed out of order (open: {popped})")

    def spans(self) -> list[tuple[str, str, int, float, float]]:
        """(name, layer, parent, start, end) per span, in opening order."""
        return [
            (self.names[n], self.layers[n], p, s, e)
            for n, p, s, e in zip(self.name_of, self.parent, self.start, self.end)
        ]

    def write(self, path) -> None:
        """Persist every span as numpy columns plus the name/layer tables."""
        import numpy as np

        np.savez(
            path,
            run_id=np.array([self.run_id]),
            names=np.array(self.names, dtype=object).astype(str),
            layers=np.array(self.layers, dtype=object).astype(str),
            name=np.asarray(self.name_of, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
        )


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of the parts
    of its interval that its direct children cover.

    ``spans`` is a sequence of ``(..., parent, start, end)`` tuples whose
    last three fields are the parent index (-1 for a root), start and
    end. Children are clipped to their parent's interval and overlapping
    children are counted once.
    """
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent, start, end = span[-3:]
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, span in enumerate(spans):
        _parent, start, end = span[-3:]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def attribute(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Self time summed per layer, and per root the self time of the
    root-layer spans under it: the time no program layer claims.

    Roots are opened one after another (``setup``, then ``run``), so a
    span's root is the latest root opened at or before it.
    """
    layers: defaultdict[str, float] = defaultdict(float)
    unattributed: defaultdict[str, float] = defaultdict(float)
    root = None
    for span, own in zip(spans, self_times(spans)):
        name, layer, parent = span[0], span[1], span[2]
        if parent < 0:
            root = name
        if layer == ROOT_LAYER:
            unattributed[root] += own
        else:
            layers[layer] += own
    return dict(layers), dict(unattributed)


def inclusive_times(spans) -> dict[str, float]:
    """Total duration per span name, counting only the outermost span of
    each name (a recursive call is not counted twice)."""
    totals: defaultdict[str, float] = defaultdict(float)
    for index, (name, _layer, parent, start, end) in enumerate(spans):
        ancestor = parent
        nested = False
        while ancestor >= 0:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][2]
        if not nested:
            totals[name] += end - start
    return dict(totals)


def _wrap(tracer: Tracer, func, name: str, layer: str):
    open_span, close_span = tracer.open, tracer.close
    size_of = RESULT_SIZES.get(name)
    sizes = tracer.result_sizes

    @functools.wraps(func)
    def traced(*args, **kwargs):
        span_id = open_span(name, layer)
        try:
            result = func(*args, **kwargs)
        finally:
            close_span(span_id)
        if size_of is not None:
            sizes[name] += size_of(result)
        return result

    return traced


def install(tracer: Tracer, extra_modules=()) -> list:
    """Wrap every call in :data:`WRAPPED_CALLS`; returns an undo list.

    Function references already bound by ``from x import f`` in loaded
    ``repro`` modules, or in ``extra_modules``, are replaced too.
    """
    undo = []
    for module_name, attribute, layer in WRAPPED_CALLS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            setattr(owner, method, _wrap(tracer, original, attribute, layer))
            undo.append((owner, method, original))
            continue
        original = getattr(module, attribute)
        traced = _wrap(tracer, original, attribute, layer)
        holders = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ]
        holders.extend(extra_modules)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, traced)
                    undo.append((holder, key, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


class GcTimer:
    """Wall time and count of CPython's cyclic collections, via gc.callbacks."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)
