"""Batch MkNNQ over a GTS tree (Algorithm 5) and the descent it shares with MRQ.

Algorithm 5 is Algorithm 4 with one change: Lemma 5.2 replaces the fixed
radius of Lemma 5.1 with each query's running k-th bound.  Both algorithms
therefore run the one level-synchronous, memory-aware descent of this module
(:func:`search_batch`) over one candidate pool (:class:`_CandidatePools`):

1. each live (query, node) pair knows ``d(q, N.pivot)``;
2. every child of every candidate node is tested against the lemma in one
   kernel, with the pool's per-query bound as the allowance: the radius for
   MRQ, the k-th smallest candidate distance seen so far for MkNNQ (``inf``
   until ``k`` candidates are known);
3. surviving internal children get their own pivot distance computed (one
   kernel, grouped per query) and become the next level's candidates; every
   pivot is itself an indexed object, so its distance joins the pool;
   surviving leaves go to verification;
4. before expanding a level, the projected intermediate-table size is checked
   against the per-level memory limit; if it does not fit the query batch is
   split into groups processed sequentially (the two-stage strategy).

Verification computes the real distances of every object in the surviving
leaves and keeps those within the query's bound.  The pool holds flat
``(query, id, distance)`` triple arrays: adds append in O(1), MkNNQ bounds
are recomputed lazily with one dedup-lexsort plus a ``np.partition`` per
query, and both answers come out of one final lexsort (DESIGN.md §8).

Range answers are exact.  kNN answers are exact in the usual tie-tolerant
sense: the returned distances are the true k smallest, and when several
objects tie at the k-th distance an arbitrary subset of the tied objects
completes the answer.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from ..exceptions import QueryError
from ..gpusim.device import Device
from ..metrics.base import Metric
from .cache_table import CacheTable
from .construction import take_objects
from .nodes import TreeStructure
from .searchcommon import (
    ENTRY_BYTES,
    RESULT_BYTES,
    IntermediateTable,
    PruneMode,
    broadcast_query_param,
    dedupe_min_triples,
    dense_band_filter,
    filter_live_triples,
    leaf_candidate_segments,
    leaf_prefetch_ids,
    level_pair_limit,
    pivot_distances_per_query,
    prune_children,
    segmented_distances,
    split_into_groups,
    tombstone_array,
    triples_to_answer_lists,
)

__all__ = ["batch_knn_query", "search_batch"]


class _CandidatePools:
    """Per-query candidate pools of one batch as flat (query, id, distance) arrays.

    Built with per-query ``radii`` (MRQ) or ``k`` (MkNNQ), which set the
    bound every pruning and verification test compares against: the fixed
    radius, or the k-th smallest distinct candidate distance so far.  Adds
    are O(1) array appends that drop tombstoned objects and, for MRQ,
    objects beyond the radius; compaction (triggered lazily by a kNN bound
    read or by :meth:`finalize`) merges the pending triples with one
    ``np.lexsort``, keeping the minimum distance per (query, id) pair.
    """

    def __init__(
        self,
        num_queries: int,
        tombstones: Optional[np.ndarray],
        *,
        radii: Optional[np.ndarray] = None,
        k: Optional[np.ndarray] = None,
    ):
        self._num_queries = int(num_queries)
        self._tombstones = tombstones
        self._radii = radii
        #: per-query k of an MkNNQ pool, None for MRQ
        self.k = k
        #: kernel and buffer label prefix
        self.label = "mrq" if k is None else "mknn"
        # compacted pool: sorted by (query, id), unique per (query, id)
        self._cq = np.zeros(0, dtype=np.int64)
        self._cid = np.zeros(0, dtype=np.int64)
        self._cd = np.zeros(0, dtype=np.float64)
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # a radius never moves; a k-th bound is recomputed after adds
        self._bounds: Optional[np.ndarray] = radii

    def add(self, query_indices, obj_ids, dists) -> None:
        """Append candidate triples, dropping tombstoned and out-of-radius ones."""
        query_indices, obj_ids, dists = filter_live_triples(
            query_indices, obj_ids, dists, self._tombstones
        )
        if self._radii is not None and len(obj_ids):
            within = dists <= self._radii[query_indices]
            if not within.all():
                query_indices, obj_ids, dists = (
                    query_indices[within], obj_ids[within], dists[within]
                )
        if len(obj_ids) == 0:
            return
        self._pending.append((query_indices, obj_ids, dists))
        if self.k is not None:
            self._bounds = None

    def _compact(self) -> None:
        if not self._pending:
            return
        qs = np.concatenate([self._cq] + [p[0] for p in self._pending])
        ids = np.concatenate([self._cid] + [p[1] for p in self._pending])
        dists = np.concatenate([self._cd] + [p[2] for p in self._pending])
        self._pending = []
        self._cq, self._cid, self._cd = dedupe_min_triples(qs, ids, dists)

    def _ensure_bounds(self) -> np.ndarray:
        if self._bounds is None:
            self._compact()
            bounds = np.full(self._num_queries, np.inf, dtype=np.float64)
            edges = np.searchsorted(
                self._cq, np.arange(self._num_queries + 1, dtype=np.int64)
            )
            for qi in range(self._num_queries):
                start, end = int(edges[qi]), int(edges[qi + 1])
                k = int(self.k[qi])
                if end - start >= k:
                    bounds[qi] = np.partition(self._cd[start:end], k - 1)[k - 1]
            self._bounds = bounds
        return self._bounds

    def bounds(self, query_indices: np.ndarray) -> np.ndarray:
        """Current bound per query: the radius, or the k-th distance (inf until k)."""
        return self._ensure_bounds()[np.asarray(query_indices, dtype=np.int64)]

    def level_bounds(self, device: Device, cand_q: np.ndarray) -> np.ndarray:
        """Bounds of a level's candidate pairs, charging the k-th selection.

        The device sorts each kNN query's candidate distances to locate its
        k-th bound (Algorithm 5 lines 11-12); a radius costs nothing.
        """
        bounds = self.bounds(cand_q)
        if self.k is not None:
            device.launch_kernel(work_items=len(cand_q), op_cost=4.0, label="mknn-kth-bound")
        return bounds

    def k_of(self, query_indices: np.ndarray) -> Optional[np.ndarray]:
        """Per-query ``k`` of an MkNNQ pool; None for MRQ."""
        if self.k is None:
            return None
        return self.k[np.asarray(query_indices, dtype=np.int64)]

    def result_slots(self, leaf_q: np.ndarray, hits: int) -> int:
        """Result-buffer slots of one verification pass.

        MRQ ships its hits; MkNNQ ships ``k`` per distinct verified query.
        """
        if self.k is None:
            return hits
        return max(int(self.k[np.unique(leaf_q)].sum()), 1)

    def scan_cache(self, cache: CacheTable, metric: Metric, queries: Sequence, device: Device):
        """The cache table's triples for this pool's queries (one scan kernel)."""
        if self.k is None:
            return cache.range_scan_batch(metric, queries, self._radii, device)
        return cache.knn_scan_batch(metric, queries, self.k, device)

    def finalize(self) -> list[list[tuple[int, float]]]:
        """Per-query ``(id, distance)`` lists by (distance, id), cut to ``k``."""
        self._compact()
        return triples_to_answer_lists(
            self._cq, self._cid, self._cd, self._num_queries, k=self.k
        )


def _verify_leaves(
    tree: TreeStructure,
    objects: Sequence,
    metric: Metric,
    device: Device,
    queries: Sequence,
    leaf_q: np.ndarray,
    leaf_node: np.ndarray,
    tombstones: Optional[np.ndarray],
    pools: _CandidatePools,
) -> None:
    """Verify every object of the surviving leaves against its query.

    One fused pass: the surviving leaves' table-list slices are expanded into
    per-query candidate segments, gathered once, and evaluated with a single
    segmented distance call; the candidates within the query's bound land in
    the pool.  Dense angular batches first drop, through one GEMM tile and
    its error band, the candidates provably beyond the bound or, for MkNNQ,
    beyond ``k`` other candidates
    (:func:`~repro.core.searchcommon.dense_band_filter`).
    """
    if len(leaf_q) == 0:
        return
    # Lookahead for tiered stores: the surviving leaves are the first stage's
    # candidate list, so their object blocks can be staged in one coalesced
    # prefetch before verification gathers them.
    if getattr(objects, "prefetch_enabled", False):
        objects.prefetch_ids(leaf_prefetch_ids(tree, leaf_node))
    host_start = time.perf_counter()
    unique_queries, boundaries, obj_ids = leaf_candidate_segments(
        tree,
        leaf_q,
        leaf_node,
        tombstones,
        coalesce=getattr(objects, "coalesced_gather", False),
    )
    total_verified = len(obj_ids)
    hits = 0
    if total_verified:
        unique_queries, boundaries, obj_ids = dense_band_filter(
            metric,
            objects,
            queries,
            unique_queries,
            boundaries,
            obj_ids,
            pools.bounds(unique_queries),
            k=pools.k_of(unique_queries),
        )
        query_objects = take_objects(queries, unique_queries)
        dists = segmented_distances(metric, objects, query_objects, boundaries, obj_ids)
        owner = np.repeat(unique_queries, np.diff(boundaries))
        # An MRQ hit, or a kNN candidate not beyond the current k-th bound
        # (the bound only shrinks and ties at it are kept, so a culled object
        # never enters the final top-k).  This is what a device kernel does:
        # select per query, ship only the results.
        keep = dists <= pools.bounds(owner)
        hits = int(keep.sum())
        if hits < len(keep):
            owner, obj_ids, dists = owner[keep], obj_ids[keep], dists[keep]
        pools.add(owner, obj_ids, dists)
    host = time.perf_counter() - host_start
    device.launch_kernel(
        work_items=total_verified,
        op_cost=metric.unit_cost,
        label=f"{pools.label}-verify",
        host_time=host,
    )
    # result buffer, streamed back to the host in chunks, so it never needs
    # to exceed the memory that is still available on the device
    slots = pools.result_slots(leaf_q, hits) if total_verified else 0
    if slots:
        needed = slots * RESULT_BYTES
        buffer_bytes = min(needed, max(RESULT_BYTES, device.available_bytes))
        alloc = device.allocate(buffer_bytes, f"{pools.label}-results", pool="workspace")
        device.transfer_to_host(needed, label="results-d2h")
        device.free(alloc)


def _descend(
    tree: TreeStructure,
    objects: Sequence,
    metric: Metric,
    device: Device,
    queries: Sequence,
    layer: int,
    cand_q: np.ndarray,
    cand_node: np.ndarray,
    pivot_dist: np.ndarray,
    tombstones: Optional[np.ndarray],
    mode: PruneMode,
    pools: _CandidatePools,
) -> None:
    """Recursive per-level expansion (Range_Q of Algorithm 4, Knn_Q of Algorithm 5)."""
    if len(cand_q) == 0:
        return
    if tree.is_leaf_level(layer):
        _verify_leaves(
            tree, objects, metric, device, queries, cand_q, cand_node, tombstones, pools
        )
        return

    # Two-stage memory strategy: split the batch when the projected
    # intermediate table would exceed the per-level limit.
    limit_pairs = level_pair_limit(device, tree.height, layer, tree.node_capacity)
    if len(cand_q) > limit_pairs:
        for group in split_into_groups(cand_q, limit_pairs):
            _descend(
                tree,
                objects,
                metric,
                device,
                queries,
                layer,
                cand_q[group],
                cand_node[group],
                pivot_dist[group],
                tombstones,
                mode,
                pools,
            )
        return

    projected = len(cand_q) * tree.node_capacity
    with IntermediateTable(device, projected, label=f"{pools.label}-level-{layer + 1}"):
        bounds = pools.level_bounds(device, cand_q)
        pair_index, child_ids = prune_children(tree, cand_node, pivot_dist, bounds, mode, device)
        next_q = cand_q[pair_index]

        if tree.is_leaf_level(layer + 1):
            next_pivot_dist = np.zeros(len(child_ids), dtype=np.float64)
        else:
            pivots = tree.pivot[child_ids]
            next_pivot_dist = pivot_distances_per_query(
                device, metric, objects, queries, next_q, pivots
            )
            pools.add(next_q, pivots, next_pivot_dist)

        _descend(
            tree,
            objects,
            metric,
            device,
            queries,
            layer + 1,
            next_q,
            child_ids,
            next_pivot_dist,
            tombstones,
            mode,
            pools,
        )


def _search_tree(
    tree: TreeStructure,
    objects: Sequence,
    metric: Metric,
    device: Device,
    queries: Sequence,
    tombstones: Optional[np.ndarray],
    mode: PruneMode,
    pools: _CandidatePools,
) -> None:
    """Descend the whole tree for the batch, adding candidates to ``pools``."""
    num_queries = len(queries)
    # Load the queries onto the device (Section 5.1: queries are copied from
    # the CPU to the GPU before processing).
    device.transfer_to_device(num_queries * ENTRY_BYTES)

    cand_q = np.arange(num_queries, dtype=np.int64)
    cand_node = np.zeros(num_queries, dtype=np.int64)

    if tree.height == 0:
        # Degenerate tree: the root is the single (over-full) leaf.
        pivot_dist = np.zeros(num_queries, dtype=np.float64)
    else:
        root_pivots = np.full(num_queries, tree.pivot[0], dtype=np.int64)
        pivot_dist = pivot_distances_per_query(
            device, metric, objects, queries, cand_q, root_pivots
        )
        pools.add(cand_q, root_pivots, pivot_dist)

    _descend(
        tree,
        objects,
        metric,
        device,
        queries,
        0,
        cand_q,
        cand_node,
        pivot_dist,
        tombstones,
        mode,
        pools,
    )


def search_batch(
    tree: TreeStructure,
    objects: Sequence,
    metric: Metric,
    device: Device,
    queries: Sequence,
    exclude: Optional[set],
    cache: Optional[CacheTable],
    prune_mode: str | PruneMode,
    *,
    radii: Optional[np.ndarray] = None,
    k: Optional[np.ndarray] = None,
) -> list[list[tuple[int, float]]]:
    """Answer a batch given per-query ``radii`` (MRQ) or ``k`` (MkNNQ), not both.

    The single engine entry behind :func:`batch_knn_query` and
    :func:`~repro.core.range_query.batch_range_query`.  Query objects the
    metric cannot honour (a non-finite vector, a non-string for edit
    distance) raise :class:`~repro.exceptions.MetricError` before anything
    is charged.  The tree descent runs first and the cache table's scan
    second, so the cache never tightens a pruning bound; tombstones never
    name a cached id.
    """
    mode = prune_mode if isinstance(prune_mode, PruneMode) else PruneMode.from_name(prune_mode)
    if len(queries) == 0:
        return []
    metric.validate_objects(queries)
    tombstones = tombstone_array(exclude)
    pools = _CandidatePools(len(queries), tombstones, radii=radii, k=k)
    if tree.num_objects:
        _search_tree(tree, objects, metric, device, queries, tombstones, mode, pools)
    if cache is not None and len(cache):
        pools.add(*pools.scan_cache(cache, metric, queries, device))
    return pools.finalize()


def batch_knn_query(
    tree: TreeStructure,
    objects: Sequence,
    metric: Metric,
    device: Device,
    queries: Sequence,
    k,
    exclude: Optional[set] = None,
    cache: Optional[CacheTable] = None,
    prune_mode: str | PruneMode = "two-sided",
) -> list[list[tuple[int, float]]]:
    """Answer a batch of metric k-nearest-neighbour queries exactly.

    Parameters
    ----------
    queries:
        The query objects.
    k:
        A single ``k`` shared by all queries or one per query.
    exclude:
        Object ids to ignore (tombstoned deletions).
    cache:
        The cache table of streaming inserts (Section 4.4): the rest of the
        visible set, scanned with one kernel after the tree descent.
    prune_mode:
        ``"two-sided"`` (default) or ``"one-sided"`` (ablation).

    Returns
    -------
    One list per query of ``(object_id, distance)`` pairs, sorted by distance
    then id, of length ``min(k, number of visible objects)``.
    """
    k_arr = broadcast_query_param(k, len(queries), "k", np.int64)
    if np.any(k_arr <= 0):
        raise QueryError("k must be positive for a kNN query")
    return search_batch(
        tree, objects, metric, device, queries, exclude, cache, prune_mode, k=k_arr
    )
