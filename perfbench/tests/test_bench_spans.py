"""Spans, self times and the per-layer fold."""

from spans import Span, Tracer, per_layer_metrics, self_times, span_calls


def _span(id, name, start, end, parent=None, phase="job"):
    return Span(id=id, name=name, start=start, end=end, parent=parent, workload="w", phase=phase)


def test_self_time_subtracts_children():
    spans = [
        _span(1, "fusion.run", 0, 100),
        _span(2, "core.detect", 10, 60, parent=1),
        _span(3, "core.index_build", 15, 25, parent=2),
        _span(4, "fusion.workspace", 70, 80, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 100 - 50 - 10, 2: 50 - 10, 3: 10, 4: 10}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, "outer", 0, 100),
        _span(2, "a", 10, 50, parent=1),
        _span(3, "b", 40, 70, parent=1),
        _span(4, "c", 90, 150, parent=1),  # runs past its parent: clipped
    ]
    assert self_times(spans)[1] == 100 - 60 - 10


def test_wrapped_calls_nest_through_the_tracer():
    tracer = Tracer("w")

    def inner(x):
        return x + 1

    wrapped_inner = tracer.timed("core.index_build", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = tracer.timed("core.detect", outer)
    assert wrapped_outer(1) == 4  # disabled: nothing recorded
    assert tracer.spans == []
    tracer.enable()
    tracer.phase = "job"
    assert wrapped_outer(1) == 4
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["core.index_build"].parent == by_name["core.detect"].id
    assert by_name["core.detect"].parent is None
    assert span_calls(tracer) == {"core.detect": 1, "core.index_build": 1}


def test_per_layer_fold_divides_job_phase_and_skips_same_name_nesting():
    tracer = Tracer("w")
    s = 1_000_000_000  # one second in ns
    tracer.spans = [
        _span(1, "fusion.workspace", 0, 2 * s, phase="setup"),
        _span(2, "fusion.workspace", 0, 1 * s, parent=1, phase="setup"),
        _span(3, "core.detect", 0, 4 * s),
        _span(4, "core.index_build", 0, 1 * s, parent=3),
        _span(5, "core.detect", 10 * s, 12 * s),
    ]
    tracer.counters[("job", "core.pairs_decided")] = 10
    tracer.counters[("job", "core.early_pairs")] = 4
    out = per_layer_metrics(tracer, n_jobs=2)
    assert out["fusion.workspace_s"] == 2.0
    assert out["core.detect_s"] == 3.0
    assert out["core.scan_s"] == 2.5
    assert out["core.index_build_s"] == 0.5
    assert out["core.pairs_decided"] == 5
    assert out["core.early_ratio"] == 0.4
