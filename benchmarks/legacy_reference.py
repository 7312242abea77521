"""Pre-refactor reference implementation of the batch query hot paths.

The columnar/fused-segmented engine (DESIGN.md §8) replaced the original
per-query evaluation strategy:

* the object store was a Python **list** of rows (``bulk_load`` listified
  every dataset), so every candidate gather walked object-by-object;
* pivot distances and leaf verification issued one ``metric.pairwise`` call
  per unique query;
* qualifying results were inserted **per hit** into Python dicts, and the
  MkNNQ candidate pools computed every k-th bound with ``sorted()`` over a
  per-query dict;
* edit distance made one Python call per pair into a two-row NumPy dynamic
  program, one NumPy pass per DP row (superseded by the bit-parallel lane
  kernel of ``repro.metrics.string``).

This module preserves that strategy, adapted to the current internal
interfaces, so ``bench_host_wallclock.py`` can measure the refactor's host
wall-clock speedup against a faithful baseline *and* assert that answers and
simulated device time are byte-for-byte unchanged.  The simulated-GPU charges
(kernel launches, work items, result buffers) are copied verbatim from the
historical code, which is what makes that equality assertion meaningful.

Not imported by the library — benchmark-only code.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

import repro.core.gts as gts_module
import repro.core.knn_query as knn_module
import repro.core.range_query as range_module
from repro.core.construction import take_objects
from repro.core.searchcommon import RESULT_BYTES
from repro.metrics.base import Metric
from repro.metrics.string import EditDistance
from repro.metrics.vector import _VectorMetric

__all__ = ["legacy_engine"]


def legacy_edit_distance(a: str, b: str) -> int:
    """Historical Levenshtein distance: a two-row NumPy dynamic program.

    The insertion recurrence ``cur[j] = min(A[j], cur[j-1] + 1)`` has the
    closed form ``cur[j] = j + cummin(A - index)[j]``, so each DP row is a
    handful of NumPy operations.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    m = len(b)
    b_codes = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    idx = np.arange(m + 1, dtype=np.int64)
    prev = idx.copy()
    cand = np.empty(m + 1, dtype=np.int64)
    for i, ca in enumerate(a, start=1):
        cost = (b_codes != ord(ca)).astype(np.int64)
        cand[0] = i
        np.minimum(prev[:-1] + cost, prev[1:] + 1, out=cand[1:])
        prev = np.minimum.accumulate(cand - idx) + idx
    return int(prev[-1])


def _legacy_edit_pairwise(self, query, objects):
    """Historical ``EditDistance._pairwise``: one DP call per pair."""
    return np.array([legacy_edit_distance(query, o) for o in objects], dtype=np.float64)


def _legacy_edit_distance_pair(self, a, b) -> float:
    return float(legacy_edit_distance(a, b))


def _exclude_set(tombstones: Optional[np.ndarray]) -> Optional[set]:
    if tombstones is None or len(tombstones) == 0:
        return None
    return {int(t) for t in tombstones}


def _legacy_pivot_distances(device, metric, objects, queries, cand_query, pivot_ids):
    """Historical pivot-distance evaluation: one pairwise call per query."""
    out = np.empty(len(cand_query), dtype=np.float64)
    if len(cand_query) == 0:
        return out
    if getattr(objects, "prefetch_enabled", False):
        objects.prefetch_ids(pivot_ids)
    order = np.argsort(cand_query, kind="stable")
    sorted_q = cand_query[order]
    unique_queries, starts = np.unique(sorted_q, return_index=True)
    boundaries = list(starts) + [len(order)]
    host_start = time.perf_counter()
    for qi, query_index in enumerate(unique_queries):
        idx = order[boundaries[qi] : boundaries[qi + 1]]
        pivots = take_objects(objects, pivot_ids[idx])
        out[idx] = metric.pairwise(queries[int(query_index)], pivots)
    host = time.perf_counter() - host_start
    device.launch_kernel(
        work_items=len(cand_query),
        op_cost=metric.unit_cost,
        label="pivot-distances",
        host_time=host,
    )
    return out


def _legacy_mrq_verify(
    tree, objects, metric, device, queries, radii, leaf_q, leaf_node, tombstones, results
) -> None:
    """Historical MRQ leaf verification: per-query pairwise + per-hit inserts."""
    if len(leaf_q) == 0:
        return
    exclude = _exclude_set(tombstones)
    if getattr(objects, "prefetch_enabled", False):
        objects.prefetch_ids(
            np.concatenate([tree.node_objects(int(n)) for n in np.unique(leaf_node)])
        )
    order = np.argsort(leaf_q, kind="stable")
    sorted_q = leaf_q[order]
    unique_queries, starts = np.unique(sorted_q, return_index=True)
    boundaries = list(starts) + [len(order)]
    total_verified = 0
    host_start = time.perf_counter()
    total_hits = 0
    buckets: dict[int, dict[int, float]] = {}
    for qi, query_index in enumerate(unique_queries):
        idx = order[boundaries[qi] : boundaries[qi + 1]]
        obj_ids = np.concatenate([tree.node_objects(int(n)) for n in leaf_node[idx]])
        if exclude:
            obj_ids = obj_ids[~np.isin(obj_ids, list(exclude))]
        if len(obj_ids) == 0:
            continue
        obj_ids = np.sort(obj_ids)
        candidates = take_objects(objects, obj_ids)
        dists = metric.pairwise(queries[int(query_index)], candidates)
        total_verified += len(obj_ids)
        r = radii[int(query_index)]
        hit = dists <= r
        total_hits += int(hit.sum())
        bucket = buckets.setdefault(int(query_index), {})
        for oid, dist in zip(obj_ids[hit], dists[hit]):
            bucket[int(oid)] = float(dist)
    host = time.perf_counter() - host_start
    device.launch_kernel(
        work_items=total_verified,
        op_cost=metric.unit_cost,
        label="mrq-verify",
        host_time=host,
    )
    if total_hits:
        buffer_bytes = min(total_hits * RESULT_BYTES, max(RESULT_BYTES, device.available_bytes))
        alloc = device.allocate(buffer_bytes, "mrq-results", pool="workspace")
        device.transfer_to_host(total_hits * RESULT_BYTES, label="results-d2h")
        device.free(alloc)
    # integration shim: hand the dict buckets to the triple accumulator
    for query_index, bucket in buckets.items():
        if bucket:
            ids = np.fromiter(bucket.keys(), dtype=np.int64, count=len(bucket))
            ds = np.fromiter(bucket.values(), dtype=np.float64, count=len(bucket))
            results.add(np.full(len(bucket), query_index, dtype=np.int64), ids, ds)


class _LegacyCandidatePools:
    """Historical per-query dict pools (sorted() k-th bounds, per-item adds)."""

    def __init__(self, num_queries: int, k: np.ndarray, tombstones: Optional[np.ndarray]):
        self._pools: list[dict[int, float]] = [dict() for _ in range(num_queries)]
        self._k = k
        self._exclude = _exclude_set(tombstones)

    def _add_one(self, query_index: int, obj_id: int, dist: float) -> None:
        if self._exclude and obj_id in self._exclude:
            return
        pool = self._pools[query_index]
        prev = pool.get(obj_id)
        if prev is None or dist < prev:
            pool[obj_id] = dist

    def add(self, query_indices, obj_ids, dists) -> None:
        for qi, oid, dist in zip(
            np.asarray(query_indices), np.asarray(obj_ids), np.asarray(dists)
        ):
            self._add_one(int(qi), int(oid), float(dist))

    def add_many(self, query_index: int, obj_ids, dists) -> None:
        for oid, dist in zip(obj_ids, dists):
            self._add_one(query_index, int(oid), float(dist))

    def bound(self, query_index: int) -> float:
        pool = self._pools[query_index]
        k = int(self._k[query_index])
        if len(pool) < k:
            return np.inf
        dists = sorted(pool.values())
        return float(dists[k - 1])

    def bounds(self, query_indices) -> np.ndarray:
        return np.array([self.bound(int(q)) for q in query_indices], dtype=np.float64)

    def k_of(self, query_indices) -> np.ndarray:
        return self._k[np.asarray(query_indices, dtype=np.int64)]

    def topk(self, query_index: int) -> list[tuple[int, float]]:
        pool = self._pools[query_index]
        k = int(self._k[query_index])
        ranked = sorted(pool.items(), key=lambda item: (item[1], item[0]))
        return [(int(oid), float(dist)) for oid, dist in ranked[:k]]

    def topk_all(self) -> list[list[tuple[int, float]]]:
        return [self.topk(qi) for qi in range(len(self._pools))]


def _legacy_knn_verify(
    tree, objects, metric, device, queries, leaf_q, leaf_node, tombstones, pools
) -> None:
    """Historical MkNNQ leaf verification: per-query pairwise + dict pools."""
    if len(leaf_q) == 0:
        return
    if getattr(objects, "prefetch_enabled", False):
        objects.prefetch_ids(
            np.concatenate([tree.node_objects(int(n)) for n in np.unique(leaf_node)])
        )
    order = np.argsort(leaf_q, kind="stable")
    sorted_q = leaf_q[order]
    unique_queries, starts = np.unique(sorted_q, return_index=True)
    boundaries = list(starts) + [len(order)]
    total_verified = 0
    host_start = time.perf_counter()
    for qi, query_index in enumerate(unique_queries):
        idx = order[boundaries[qi] : boundaries[qi + 1]]
        obj_ids = np.concatenate([tree.node_objects(int(n)) for n in leaf_node[idx]])
        exclude = pools._exclude
        if exclude:
            obj_ids = obj_ids[~np.isin(obj_ids, list(exclude))]
        if len(obj_ids) == 0:
            continue
        obj_ids = np.sort(obj_ids)
        candidates = take_objects(objects, obj_ids)
        dists = metric.pairwise(queries[int(query_index)], candidates)
        total_verified += len(obj_ids)
        pools.add_many(int(query_index), obj_ids, dists)
    host = time.perf_counter() - host_start
    device.launch_kernel(
        work_items=total_verified,
        op_cost=metric.unit_cost,
        label="mknn-verify",
        host_time=host,
    )
    if total_verified:
        answers = int(sum(pools._k[int(q)] for q in unique_queries))
        needed = max(answers, 1) * RESULT_BYTES
        buffer_bytes = min(needed, max(RESULT_BYTES, device.available_bytes))
        alloc = device.allocate(buffer_bytes, "mknn-results", pool="workspace")
        device.transfer_to_host(needed, label="results-d2h")
        device.free(alloc)


@contextmanager
def legacy_engine():
    """Swap the engine's hot paths for the pre-refactor implementations.

    Patches the list-backed object store, per-query pivot distances, dict
    result buckets, dict candidate pools, the generic per-query
    ``pairwise_segmented`` fallback (no fused passes, no store digest) and
    the per-pair NumPy edit-distance DP.  Restores everything on exit.
    """
    saved = (
        gts_module.make_object_store,
        range_module.pivot_distances_per_query,
        range_module._verify_leaves,
        knn_module.pivot_distances_per_query,
        knn_module._verify_leaves,
        knn_module._CandidatePools,
        _VectorMetric._pairwise_segmented,
        Metric.store_digest,
        EditDistance._distance,
        EditDistance._pairwise,
        EditDistance._matrix,
        EditDistance._pairwise_segmented,
    )
    gts_module.make_object_store = lambda objs: [objs[i] for i in range(len(objs))]
    range_module.pivot_distances_per_query = _legacy_pivot_distances
    range_module._verify_leaves = _legacy_mrq_verify
    knn_module.pivot_distances_per_query = _legacy_pivot_distances
    knn_module._verify_leaves = _legacy_knn_verify
    knn_module._CandidatePools = _LegacyCandidatePools
    _VectorMetric._pairwise_segmented = Metric._pairwise_segmented
    Metric.store_digest = lambda self, matrix: None
    EditDistance._distance = _legacy_edit_distance_pair
    EditDistance._pairwise = _legacy_edit_pairwise
    EditDistance._matrix = Metric._matrix
    EditDistance._pairwise_segmented = Metric._pairwise_segmented
    try:
        yield
    finally:
        (
            gts_module.make_object_store,
            range_module.pivot_distances_per_query,
            range_module._verify_leaves,
            knn_module.pivot_distances_per_query,
            knn_module._verify_leaves,
            knn_module._CandidatePools,
            _VectorMetric._pairwise_segmented,
            Metric.store_digest,
            EditDistance._distance,
            EditDistance._pairwise,
            EditDistance._matrix,
            EditDistance._pairwise_segmented,
        ) = saved
