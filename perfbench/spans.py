"""In-memory spans and counters, recorded by wrapping repro's public entry points.

The benchmark times each layer *from outside*: :func:`install_layer_wrappers`
replaces the public functions a workload calls into (``data``, ``core``,
``parallel``, ``fusion``, ``serving``, ``streaming``) with thin wrappers
that open a span, call the original and close the span.  Each wrapper is
installed where its callers look the name up — a class attribute for
methods (instances resolve through the class), the module global the
caller reads for plain functions — so nothing under ``src/`` changes.

A span records its name, start, end, parent span and workload id, plus
the phase of the run it fell in (``setup``, ``job`` or ``read``).  Spans
and counters stay in memory; :meth:`Tracer.write` dumps them at the end.
A layer's self time is its span minus the part of that interval its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    """One timed call: ``[start, end)`` in ``perf_counter_ns`` units."""

    id: int
    name: str
    start: int
    end: int
    parent: int | None
    workload: str
    phase: str


class Tracer:
    """Span and counter sink for one workload run.

    Disabled tracers cost one attribute test per wrapped call; spans and
    counters are only recorded between :meth:`enable` and :meth:`disable`.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = False
        self.phase = "setup"
        self.spans: list[Span] = []
        #: ``(phase, name) -> total``
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        with self._id_lock:
            span_id = next(self._ids)
        span = Span(
            id=span_id,
            name=name,
            start=0,
            end=0,
            parent=stack[-1].id if stack else None,
            workload=self.workload,
            phase=self.phase,
        )
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """Time a block as one span (no-op while disabled)."""
        if not self.enabled:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def count(self, name: str, value: float = 1) -> None:
        """Add to a named counter of the current phase (no-op while disabled)."""
        if self.enabled:
            self.counters[(self.phase, name)] += value

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(tracer, args, kwargs, result)``
        runs outside the span to record counters from the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Dump every span and counter as JSON."""
        payload = {
            "workload": self.workload,
            "spans": [asdict(span) for span in self.spans],
            "counters": [
                {"phase": phase, "name": name, "value": value}
                for (phase, name), value in sorted(self.counters.items())
            ],
        }
        path.write_text(json.dumps(payload))


def self_times(spans: list[Span]) -> dict[int, int]:
    """Per span id: duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start) - covered
    return out


class _Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class LayoutFallbackCounter(logging.Handler):
    """Counts ``repro.core.pairspace`` auto-layout warnings instead of printing them."""

    def __init__(self, tracer: Tracer):
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        self.tracer.count("core.layout_fallbacks")


@contextmanager
def count_layout_fallbacks(tracer: Tracer):
    """Route the pair-layout warnings into ``tracer`` for the block's duration."""
    logger = logging.getLogger("repro.core.pairspace")
    handler = LayoutFallbackCounter(tracer)
    propagate = logger.propagate
    logger.addHandler(handler)
    logger.propagate = False
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.propagate = propagate


# ----------------------------------------------------------------------
# Counter hooks: run after a wrapped call returns, outside its span.
# ----------------------------------------------------------------------
def _after_index_build(tracer, args, kwargs, index):
    tracer.count("core.index_build_calls")
    tracer.count("core.index_entries", len(index.entries))


def _after_detect(tracer, args, kwargs, result):
    cost = result.cost
    tracer.count("core.pairs_considered", cost.pairs_considered)
    tracer.count("core.computations", cost.computations)
    tracer.count("core.values_examined", cost.values_examined)
    decisions = result.decisions.values()
    tracer.count("core.pairs_decided", len(result.decisions))
    tracer.count("core.copying_pairs", sum(1 for d in decisions if d.copying))
    tracer.count("core.early_pairs", sum(1 for d in decisions if d.early))


def _after_incremental_round(tracer, args, kwargs, result):
    _after_detect(tracer, args, kwargs, result)
    detector, round_no = args[0], args[1]
    state = detector.state
    # Only rounds after the preparation round run the three-pass
    # incremental update, and each of those appends one RoundStats.
    if round_no <= detector.prepare_round or state is None or not state.history:
        return
    stats = state.history[-1]
    tracer.count("core.incr_rounds")
    tracer.count("core.incr_pairs_total", stats.pairs_total)
    tracer.count("core.incr_done_pass1", stats.done_pass1)
    tracer.count("core.incr_done_pass2", stats.done_pass2)
    tracer.count("core.incr_done_pass3", stats.done_pass3)
    tracer.count("core.incr_reopened_pairs", stats.reopened_pairs)


def _after_parallel(tracer, args, kwargs, result):
    tracer.count("parallel.calls")
    tracer.count("parallel.partitions", kwargs.get("n_partitions", 4))


def _after_run_fusion(tracer, args, kwargs, result):
    tracer.count("fusion.rounds", result.n_rounds)


def _after_write(kind):
    def hook(tracer, args, kwargs, snapshot_id):
        store = args[0]
        tracer.count(f"serving.publishes_{kind}")
        tracer.count("serving.snapshot_bytes", store.snapshot_path(snapshot_id).stat().st_size)

    return hook


def install_layer_wrappers(tracer: Tracer) -> _Patches:
    """Wrap every entry point the per-layer table names; returns the patches.

    Call ``.restore()`` on the result to put the originals back.
    """
    import repro.parallel
    import repro.streaming.engine
    from repro.core.detector import IncrementalDetector, SingleRoundDetector
    from repro.core.index import InvertedIndex
    from repro.data import ClaimLedger
    from repro.fusion import pipeline
    from repro.fusion.workspace import FusionWorkspace
    from repro.serving.reader import VerdictReader
    from repro.serving.store import SnapshotPublisher, VerdictStore
    from repro.streaming.engine import StreamEngine

    patches = _Patches()

    def method(owner, attr, name, after=None):
        patches.replace(owner, attr, tracer.timed(name, owner.__dict__[attr], after))

    def function(module, attr, name, after=None):
        patches.replace(module, attr, tracer.timed(name, getattr(module, attr), after))

    def prop(owner, attr, name):
        original = owner.__dict__[attr]
        patches.replace(owner, attr, property(tracer.timed(name, original.fget)))

    # data (batch set-up times its own Dataset construction: see workloads)
    method(ClaimLedger, "apply", "data.ledger_apply")
    method(ClaimLedger, "snapshot", "data.ledger_snapshot")
    # core: InvertedIndex.build is a classmethod — wrap the function inside it.
    build = InvertedIndex.__dict__["build"].__func__
    patches.replace(
        InvertedIndex,
        "build",
        classmethod(tracer.timed("core.index_build", build, _after_index_build)),
    )
    method(SingleRoundDetector, "run_round", "core.detect", _after_detect)
    method(IncrementalDetector, "run_round", "core.detect", _after_incremental_round)
    # parallel: the detector imports it from the package at call time.
    function(repro.parallel, "detect_index_parallel", "parallel.detect", _after_parallel)
    method(FusionWorkspace, "broadcast", "parallel.broadcast")
    method(FusionWorkspace, "pool", "parallel.pool")
    # fusion: workloads call pipeline.run_fusion; the stream engine reads
    # the name it imported into its own module.
    function(pipeline, "run_fusion", "fusion.run", _after_run_fusion)
    function(repro.streaming.engine, "run_fusion", "fusion.run", _after_run_fusion)
    method(FusionWorkspace, "__init__", "fusion.workspace")
    method(FusionWorkspace, "rebind", "fusion.workspace")
    prop(FusionWorkspace, "shared_items", "fusion.workspace")
    prop(FusionWorkspace, "fusion_columns", "fusion.workspace")
    # serving
    method(SnapshotPublisher, "publish_round", "serving.publish")
    method(VerdictStore, "write_full", "serving.write", _after_write("full"))
    method(VerdictStore, "write_delta", "serving.write", _after_write("delta"))
    method(VerdictReader, "refresh", "serving.refresh")
    # streaming
    method(StreamEngine, "run_epoch", "streaming.engine")
    return patches


#: Every per-layer metric the traced run reports, with its unit.  Layers a
#: workload does not use report 0 (e.g. ``parallel.*`` on the serial
#: workloads), which is itself the "no change" prediction made visible.
PER_LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("data.dataset_build_s", "s"),
    ("data.ledger_apply_s", "s"),
    ("data.ledger_snapshot_s", "s"),
    ("data.ledger_claims_end", "count"),
    ("core.index_build_s", "s"),
    ("core.index_build_calls", "count"),
    ("core.index_entries", "count"),
    ("core.detect_s", "s"),
    ("core.scan_s", "s"),
    ("core.pairs_considered", "count"),
    ("core.pairs_decided", "count"),
    ("core.copying_pairs", "count"),
    ("core.early_pairs", "count"),
    ("core.early_ratio", "ratio"),
    ("core.computations", "count"),
    ("core.values_examined", "count"),
    ("core.layout_fallbacks", "count"),
    ("core.incr_pairs_total", "count"),
    ("core.incr_done_pass1", "count"),
    ("core.incr_done_pass2", "count"),
    ("core.incr_done_pass3", "count"),
    ("core.incr_reopened_pairs", "count"),
    ("core.incr_pass1_ratio", "ratio"),
    ("parallel.detect_s", "s"),
    ("parallel.broadcast_s", "s"),
    ("parallel.pool_start_s", "s"),
    ("parallel.partitions", "count"),
    ("fusion.run_s", "s"),
    ("fusion.update_s", "s"),
    ("fusion.rounds", "count"),
    ("fusion.workspace_s", "s"),
    ("serving.publish_s", "s"),
    ("serving.publishes_full", "count"),
    ("serving.publishes_delta", "count"),
    ("serving.snapshot_bytes", "bytes"),
    ("serving.refresh_s", "s"),
    ("serving.read_hit_ratio", "ratio"),
    ("streaming.engine_s", "s"),
    ("streaming.wait_ms", "ms"),
    ("streaming.epochs", "count"),
    ("streaming.epochs_skipped", "count"),
    ("streaming.rounds_per_epoch", "count"),
    ("trace.overhead_job_s", "s"),
    ("trace.overhead_epoch_p50_ms", "ms"),
)

#: ``metric -> span name`` for the summed call times.
_SPAN_TOTALS = {
    "data.dataset_build_s": "data.dataset_build",
    "data.ledger_apply_s": "data.ledger_apply",
    "data.ledger_snapshot_s": "data.ledger_snapshot",
    "core.index_build_s": "core.index_build",
    "core.detect_s": "core.detect",
    "parallel.detect_s": "parallel.detect",
    "parallel.broadcast_s": "parallel.broadcast",
    "fusion.run_s": "fusion.run",
    "fusion.workspace_s": "fusion.workspace",
    "serving.publish_s": "serving.publish",
    "serving.refresh_s": "serving.refresh",
    "streaming.engine_s": "streaming.engine",
}

#: ``metric -> span name`` for self times (the span minus its children).
_SPAN_SELF = {
    "core.scan_s": "core.detect",
    "fusion.update_s": "fusion.run",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_calls(tracer: Tracer) -> dict[str, int]:
    """Recorded call count per span name."""
    calls: dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        calls[span.name] += 1
    return calls


def per_layer_metrics(tracer: Tracer, n_jobs: int) -> dict[str, float]:
    """Fold the traced pass into the :data:`PER_LAYER_METRICS` values.

    Spans and counters of the ``job`` phase are divided by ``n_jobs`` (the
    figures are per job); ``setup`` and ``read`` phases happen once per
    traced pass and are taken as they are.  A span nested inside a span of
    the same name is not counted twice.
    """
    weight = {"setup": 1.0, "read": 1.0, "job": 1.0 / max(n_jobs, 1)}
    by_id = {span.id: span for span in tracer.spans}
    selfs = self_times(tracer.spans)

    def nested_in_same_name(span: Span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == span.name:
                return True
            parent = by_id.get(parent.parent)
        return False

    totals: dict[str, float] = defaultdict(float)
    self_totals: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        if nested_in_same_name(span):
            continue
        w = weight[span.phase]
        totals[span.name] += w * (span.end - span.start) / 1e9
        self_totals[span.name] += w * selfs[span.id] / 1e9

    counters: dict[str, float] = defaultdict(float)
    for (phase, name), value in tracer.counters.items():
        counters[name] += weight[phase] * value

    out = {name: 0.0 for name, _ in PER_LAYER_METRICS}
    for metric, span_name in _SPAN_TOTALS.items():
        out[metric] = totals[span_name]
    for metric, span_name in _SPAN_SELF.items():
        out[metric] = self_totals[span_name]
    out["parallel.pool_start_s"] = totals["parallel.pool"] + totals["parallel.pool_spawn"]
    for name in (
        "core.index_build_calls",
        "core.index_entries",
        "core.pairs_considered",
        "core.pairs_decided",
        "core.copying_pairs",
        "core.early_pairs",
        "core.computations",
        "core.values_examined",
        "core.layout_fallbacks",
        "core.incr_pairs_total",
        "core.incr_done_pass1",
        "core.incr_done_pass2",
        "core.incr_done_pass3",
        "core.incr_reopened_pairs",
        "fusion.rounds",
        "serving.publishes_full",
        "serving.publishes_delta",
        "serving.snapshot_bytes",
    ):
        out[name] = counters[name]
    out["core.early_ratio"] = _ratio(counters["core.early_pairs"], counters["core.pairs_decided"])
    out["core.incr_pass1_ratio"] = _ratio(
        counters["core.incr_done_pass1"], counters["core.incr_pairs_total"]
    )
    out["parallel.partitions"] = _ratio(counters["parallel.partitions"], counters["parallel.calls"])
    return out
