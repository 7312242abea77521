"""Span tracer that times calls into each layer from outside the program.

Nothing under ``src/`` is changed: :func:`instrument` replaces public
functions and methods with timing wrappers for the duration of one traced
``serve`` and restores the originals afterwards.  Where a module imported a
name directly (``gts`` imports ``batch_range_query``, the query engine
imports ``segmented_distances``), the wrapper is installed on the name the
caller looks up.

Each span records its name, start, end, parent span and the micro-batch it
ran in.  A span that opens a micro-batch (the index's ``execute_batch``)
numbers it; the service dispatches every micro-batch through exactly one
``execute_batch`` call, so the numbers equal ``MicroBatchRecord.batch_id``
and ``Response.batch_id`` of the same run.  Spans stay in memory and are
written out at the end as Chrome trace-event JSON.

A span's self time is its duration minus the time of its direct children.
The service's ``serve`` is the root of every span, so the self times of all
spans add up to the traced ``serve`` wall-clock.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core import (
    cache_table,
    construction,
    gts,
    knn_query,
    maintenance,
    range_query,
    searchcommon,
)
from repro.service import GTSService
from repro.shard import ShardedGTS


@dataclass
class Span:
    span_id: int
    name: str
    parent: int
    batch_id: Optional[int]
    start: float
    end: float = 0.0
    #: seconds covered by direct children
    child_s: float = 0.0
    #: metric pairs evaluated inside the span, children included
    pairs: int = 0
    #: work items handed to the call (queries of an engine call)
    items: int = 0
    #: results it returned (neighbours of a kNN engine call)
    results: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """In-memory span recorder."""

    def __init__(self, pair_count: Callable[[], int]):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._pair_count = pair_count
        self._batches = 0
        self._batch_id: Optional[int] = None
        self.origin = time.perf_counter()

    def wrap(self, name: str, fn, opens_batch=False, items=None, results=None):
        """``fn`` wrapped so that each call records one span called ``name``.

        ``items(arguments)`` and ``results(value)`` count the call's inputs
        and outputs; ``arguments`` maps ``fn``'s parameter names to values.
        """
        signature = inspect.signature(fn) if items is not None else None
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if opens_batch:
                tracer._batches += 1
                tracer._batch_id = tracer._batches
            span = Span(
                span_id=len(tracer.spans),
                name=name,
                parent=parent.span_id if parent else -1,
                batch_id=tracer._batch_id,
                start=time.perf_counter(),
            )
            if signature is not None:
                span.items = items(signature.bind(*args, **kwargs).arguments)
            tracer.spans.append(span)
            tracer._stack.append(span)
            pairs_before = tracer._pair_count()
            try:
                value = fn(*args, **kwargs)
                if results is not None:
                    span.results = results(value)
                return value
            finally:
                span.pairs = tracer._pair_count() - pairs_before
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                if opens_batch:
                    tracer._batch_id = None

        traced.__wrapped__ = fn
        return traced

    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event document (Perfetto opens it)."""
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - self.origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "span_id": span.span_id,
                    "parent": span.parent,
                    "batch_id": span.batch_id,
                    "self_us": span.self_s * 1e6,
                    "pairs": span.pairs,
                },
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def _count_queries(arguments) -> int:
    return len(arguments["queries"])


def _count_neighbours(value) -> int:
    return sum(len(answer) for answer in value)


@contextmanager
def instrument(tracer: Tracer, metric, policy):
    """Install the layer wrappers for the duration of the ``with`` block.

    ``metric`` and ``policy`` are the served index's metric and the
    service's scheduling policy; their methods are wrapped on the instance.
    Everything else is wrapped where its callers look it up.
    """
    engine = dict(items=_count_queries)
    knn_engine = dict(engine, results=_count_neighbours)
    targets = [
        (metric, "pairwise_segmented", "metrics.pairwise_segmented", {}),
        (metric, "pairwise", "metrics.pairwise", {}),
        (searchcommon, "segmented_distances", "searchcommon.segmented_distances", {}),
        (range_query, "segmented_distances", "searchcommon.segmented_distances", {}),
        (knn_query, "segmented_distances", "searchcommon.segmented_distances", {}),
        (range_query, "prune_children", "searchcommon.prune_children", {}),
        (knn_query, "prune_children", "searchcommon.prune_children", {}),
        (gts, "batch_range_query", "range_query.batch_range_query", engine),
        (gts, "batch_knn_query", "knn_query.batch_knn_query", knn_engine),
        (cache_table.CacheTable, "range_scan_batch", "cache_table.range_scan_batch", {}),
        (cache_table.CacheTable, "knn_scan_batch", "cache_table.knn_scan_batch", {}),
        (cache_table.CacheTable, "insert", "cache_table.insert", {}),
        (gts.GTS, "execute_batch", "gts.execute_batch", dict(opens_batch=True)),
        (gts.GTS, "range_query_batch", "gts.range_query_batch", {}),
        (gts.GTS, "knn_query_batch", "gts.knn_query_batch", {}),
        (gts.GTS, "insert", "gts.insert", {}),
        (gts.GTS, "delete", "gts.delete", {}),
        (gts.GTS, "run_maintenance_slice", "maintenance.run_maintenance_slice", {}),
        (maintenance, "build_level", "construction.build_level", {}),
        (construction, "build_level", "construction.build_level", {}),
        (ShardedGTS, "execute_batch", "shard.execute_batch", dict(opens_batch=True)),
        (ShardedGTS, "insert", "shard.insert", {}),
        (ShardedGTS, "run_maintenance_slice", "shard.run_maintenance_slice", {}),
        (GTSService, "serve", "service.serve", {}),
        (policy, "decide", "service.decide", {}),
    ]
    saved = []
    try:
        for owner, attr, name, options in targets:
            own = vars(owner)
            saved.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **options))
        yield tracer
    finally:
        for owner, attr, had, original in reversed(saved):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


METRIC_CALLS = ("metrics.pairwise_segmented", "metrics.pairwise")
GATHER = "searchcommon.segmented_distances"
PRUNE = "searchcommon.prune_children"
RANGE_ENGINE = "range_query.batch_range_query"
KNN_ENGINE = "knn_query.batch_knn_query"
CACHE_SCANS = ("cache_table.range_scan_batch", "cache_table.knn_scan_batch")
CACHE_CALLS = CACHE_SCANS + ("cache_table.insert",)
MERGE = ("gts.range_query_batch", "gts.knn_query_batch")
SLICE = "maintenance.run_maintenance_slice"
BUILD_LEVEL = "construction.build_level"
SERVICE = ("service.serve", "service.decide")
SHARD = ("shard.execute_batch", "shard.insert", "shard.run_maintenance_slice")


def _by_name(spans) -> dict:
    grouped: dict = {}
    for span in spans:
        grouped.setdefault(span.name, []).append(span)
    return grouped


def layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    """Per-layer metrics of one traced round.

    ``traced`` and ``untraced`` are the run's two rounds of the same stream
    (identical answers and simulated metrics); host-time ratios of the
    ``gpusim`` layer come from the untraced one.  Every ``*host_s`` and
    ``*host_self_s`` value is a self time, so together they add up to the
    traced ``serve`` wall-clock (``trace.serve_s``).
    """
    spans = _by_name(tracer.spans)

    def calls(*names):
        return sum(len(spans.get(name, ())) for name in names)

    def self_s(*names):
        return sum(span.self_s for name in names for span in spans.get(name, ()))

    requests = len(traced.responses)
    service = traced.service
    engine = spans.get(RANGE_ENGINE, []) + spans.get(KNN_ENGINE, [])
    knn = spans.get(KNN_ENGINE, [])
    neighbours = sum(span.results for span in knn)
    slices = [record.sim_time for record in service.maintenance_records]
    shard_busy = [stats.sim_time for stats in traced.stats[1:]] or [traced.stats[0].sim_time]
    device = untraced.stats[0]
    return {
        "metrics.calls": calls(*METRIC_CALLS),
        "metrics.host_s": self_s(*METRIC_CALLS),
        "metrics.pairs_per_request": traced.pairs / requests,
        "searchcommon.gather_host_s": self_s(GATHER),
        "searchcommon.prune_host_s": self_s(PRUNE),
        "range_query.calls": calls(RANGE_ENGINE),
        "range_query.host_self_s": self_s(RANGE_ENGINE),
        "knn_query.calls": calls(KNN_ENGINE),
        "knn_query.host_self_s": self_s(KNN_ENGINE),
        "knn_query.pairs_per_result": sum(s.pairs for s in knn) / neighbours if neighbours else 0.0,
        "engine.queries_per_call": sum(s.items for s in engine) / len(engine) if engine else 0.0,
        "cache_table.scan_calls": calls(*CACHE_SCANS),
        "cache_table.host_s": self_s(*CACHE_CALLS),
        "gts.execute_host_s": self_s("gts.execute_batch"),
        "gts.merge_host_s": self_s(*MERGE),
        "gts.insert.host_s": self_s("gts.insert"),
        "gts.delete.host_s": self_s("gts.delete"),
        "gts.rebuilds": traced.rebuilds,
        "maintenance.slices": len(slices),
        "maintenance.sim_s": sum(slices),
        "maintenance.max_slice_us": max(slices, default=0.0) * 1e6,
        "maintenance.host_s": self_s(SLICE),
        "construction.pairs": sum(span.pairs for span in spans.get(BUILD_LEVEL, ())),
        "construction.host_s": self_s(BUILD_LEVEL),
        "service.batches": len(service.batches),
        "service.mean_batch": requests / len(service.batches),
        "service.queue_us_mean": 1e6 * sum(r.queue_time for r in traced.responses) / requests,
        "service.kernel_us_mean": 1e6 * sum(r.kernel_time for r in traced.responses) / requests,
        "service.host_self_s": self_s(*SERVICE),
        "shard.host_self_s": self_s(*SHARD),
        "shard.imbalance": max(shard_busy) / (sum(shard_busy) / len(shard_busy)),
        "gpusim.launches_per_request": device.kernel_launches / requests,
        "gpusim.sim_kernel_s": device.sim_time,
        "gpusim.sorted_elements": device.sorted_elements,
        "gpusim.host_outside_kernels_s": untraced.serve_s - device.host_time,
        "trace.serve_s": spans["service.serve"][0].duration,
        "trace.overhead_pct": 100.0 * (traced.serve_s / untraced.serve_s - 1.0),
    }


def layer_table(tracer: Tracer) -> str:
    """Per-layer self time, call count and share of the traced ``serve``."""
    layers: dict = {}
    for span in tracer.spans:
        entry = layers.setdefault(span.layer, [0, 0.0])
        entry[0] += 1
        entry[1] += span.self_s
    total = sum(entry[1] for entry in layers.values())
    lines = [f"  {'layer':<14} {'calls':>9} {'self_s':>10} {'share':>7}"]
    for layer, (count, seconds) in sorted(layers.items(), key=lambda item: -item[1][1]):
        lines.append(f"  {layer:<14} {count:>9} {seconds:>10.4f} {seconds / total:>7.1%}")
    lines.append(f"  {'total':<14} {len(tracer.spans):>9} {total:>10.4f} {1:>7.1%}")
    return "\n".join(lines)
