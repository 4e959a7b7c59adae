"""Self-time arithmetic and call wrapping of the benchmark's tracer."""

import pytest

import tracing
from child import layer_metrics
from tracing import ROOT_LAYER, Tracer, attribute, inclusive_times, self_times


def span(name, layer, parent, start, end):
    return (name, layer, parent, start, end)


# run [0, 10] ├─ a [1, 5] ─ b [2, 3]
#             ├─ c [4, 7]          (overlaps a: the union [1, 7] is covered once)
#             └─ d [9, 12]         (runs past its parent: clipped to [9, 10])
SPANS = [
    span("run", ROOT_LAYER, -1, 0.0, 10.0),
    span("a", "layer.a", 0, 1.0, 5.0),
    span("b", "layer.b", 1, 2.0, 3.0),
    span("c", "layer.c", 0, 4.0, 7.0),
    span("d", "layer.a", 0, 9.0, 12.0),
]


def test_self_time_subtracts_union_of_children():
    assert self_times(SPANS) == pytest.approx([10 - 6 - 1, 4 - 1, 1, 3, 3])


def test_attribution_sums_to_each_root_duration_when_children_nest():
    nested = [
        span("setup", ROOT_LAYER, -1, 0.0, 2.0),
        span("g", "layer.g", 0, 0.5, 1.5),
        span("run", ROOT_LAYER, -1, 2.0, 12.0),
        span("a", "layer.a", 2, 3.0, 7.0),
        span("b", "layer.b", 3, 4.0, 5.0),
        span("stage", ROOT_LAYER, 2, 8.0, 11.5),
        span("c", "layer.a", 5, 8.0, 9.0),
    ]
    layers, unattributed = attribute(nested)
    assert layers == pytest.approx({"layer.g": 1.0, "layer.a": 4.0, "layer.b": 1.0})
    assert unattributed == pytest.approx({"setup": 1.0, "run": 5.0})
    assert sum(layers.values()) + sum(unattributed.values()) == pytest.approx(12.0)


def test_inclusive_time_counts_recursion_once():
    recursive = [
        span("run", ROOT_LAYER, -1, 0.0, 10.0),
        span("f", "layer.f", 0, 1.0, 6.0),
        span("f", "layer.f", 1, 2.0, 4.0),
        span("f", "layer.f", 0, 7.0, 8.0),
    ]
    assert inclusive_times(recursive)["f"] == pytest.approx(6.0)


def test_tracer_records_parents_and_rejects_out_of_order_close():
    tracer = Tracer("t")
    outer = tracer.open("outer")
    inner = tracer.open("inner", "layer.x")
    tracer.close(inner)
    tracer.close(outer)
    (_, _, outer_parent, _, _), (_, layer, inner_parent, start, end) = tracer.spans()
    assert (outer_parent, inner_parent, layer) == (-1, outer, "layer.x")
    assert end >= start
    first, second = tracer.open("a"), tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(first)
    del second


def test_install_wraps_public_calls_and_uninstall_restores_them():
    from repro.core import matching
    from repro.inference.mapit import MapItResult

    original = matching.match_ndt_to_traceroutes
    original_method = MapItResult.__dict__["annotate_trace"]
    tracer = Tracer("t")
    undo = tracing.install(tracer)
    try:
        assert matching.match_ndt_to_traceroutes is not original
        report = matching.match_ndt_to_traceroutes([], [])
        MapItResult(ownership={}, links=[], passes_used=0, flips=0).annotate_trace([1, 2, None])
    finally:
        tracing.uninstall(undo)
    assert report.total_tests == 0
    assert matching.match_ndt_to_traceroutes is original
    assert MapItResult.__dict__["annotate_trace"] is original_method
    names = [(name, layer) for name, layer, _p, _s, _e in tracer.spans()]
    assert names == [
        ("match_ndt_to_traceroutes", "core.matching"),
        ("MapItResult.annotate_trace", "inference.mapit"),
    ]


def test_layer_metrics_attribute_everything_under_the_run_root():
    tracer = Tracer("t")
    setup = tracer.open("setup")
    tracer.close(tracer.open("generate_internet", "topology"))
    tracer.close(setup)
    run = tracer.open("run")
    stage = tracer.open("stage:campaign")
    tracer.close(tracer.open("TracerouteEngine.trace", "measurement.traceroute"))
    tracer.close(stage)
    tracer.close(run)
    spans = tracer.spans()
    run_s = spans[run][4] - spans[run][3]

    metrics = layer_metrics(tracer, tracing.GcTimer(), {}, {}, run_s, 0.5)
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert layers + metrics["bench.unattributed_s"] + metrics["bench.setup_unattributed_s"] == (
        pytest.approx(metrics["bench.traced_run_wall_s"] + metrics["bench.traced_setup_wall_s"])
    )
    assert metrics["measurement.traceroute.calls"] == 1
    assert metrics["bench.spans"] == 5
