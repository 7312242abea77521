"""Shared machinery of the batch MRQ / MkNNQ algorithms.

Both query algorithms (Sections 5.1 and 5.2) share four ingredients:

* computing the distances from each query to the pivots of its candidate
  nodes — evaluated as **one fused segmented pass** over all (query, pivot)
  pairs of the level (:func:`pivot_distances_per_query` builds per-query
  segments and hands them to ``Metric.pairwise_segmented``);
* the **two-stage memory strategy**: before a level is expanded, the size of
  the next intermediate-result table is compared with the per-level memory
  limit ``size_GPU / ((h - layer + 1) * Nc)``; when it does not fit, the query
  batch is divided into groups processed sequentially;
* tracking intermediate-result allocations on the simulated device so that
  memory pressure has observable consequences;
* **triple-array results**: every candidate ``(query, object, distance)`` —
  tree pivots, verified leaf objects and the cache table's scan alike — is
  appended as flat arrays to the one candidate pool of the shared descent
  (:mod:`repro.core.knn_query`), deduplicated by
  :func:`dedupe_min_triples` and turned into the per-query sorted answer
  lists by one final ``np.lexsort`` (:func:`triples_to_answer_lists`, which
  the sharded index's merge uses too), instead of per-hit Python dict
  inserts.

The helpers here are pure functions over NumPy arrays, which keeps the query
modules small and the behaviour property-testable.  Only the *host*
evaluation strategy lives here — the simulated device-time accounting
(kernel launches, work item counts, transfer flows) is byte-for-byte the
same as the historical per-query implementation (DESIGN.md §8).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..exceptions import MemoryDeadlockError, QueryError
from ..gpusim.device import Device
from ..metrics.base import Metric
from ..metrics.vector import (
    AngularDistance,
    angular_cosine_floor,
    angular_distance_ceiling,
    angular_tile_halfwidth,
)
from .construction import concatenated_ranges, take_objects
from .nodes import TreeStructure
from .objectstore import (
    GATHER_CHUNK_ELEMENTS,
    object_dimension,
    rows_matrix,
    store_metric_digest,
)

__all__ = [
    "ENTRY_BYTES",
    "PruneMode",
    "broadcast_query_param",
    "tombstone_array",
    "tombstoned_mask",
    "filter_live_triples",
    "dedupe_min_triples",
    "triples_to_answer_lists",
    "level_pair_limit",
    "split_into_groups",
    "pivot_distances_per_query",
    "segmented_distances",
    "leaf_candidate_segments",
    "dense_band_filter",
    "leaf_prefetch_ids",
    "prune_children",
    "IntermediateTable",
]

#: Simulated size of one intermediate-result entry ``{node, query, bound}``.
ENTRY_BYTES = 32

#: Simulated size of one verified-result slot ``{object, distance}``.
RESULT_BYTES = 16

#: Dense-tile dispatch of leaf verification: a batch's candidates are
#: filtered through one dense tile when the tile (queries x candidate id
#: span) has at most this many cells per candidate pair; sparser batches
#: keep the segmented gather alone.  A 300-d tile cell costs a few percent
#: of a row-wise pair, so the break-even lies well above this factor.
DENSE_TILE_FACTOR = 8


def broadcast_query_param(values, num_queries: int, name: str, dtype) -> np.ndarray:
    """Broadcast a per-query parameter (radii, ``k``) to the batch shape.

    Accepts a scalar shared by every query, a length-1 sequence, or one value
    per query.  Anything else raises :class:`~repro.exceptions.QueryError`
    naming the parameter: a wrong length or extra dimensions (with both
    shapes), non-numeric entries, NaN, and — for an integer ``dtype`` — a
    value that is not a finite whole number, which a plain cast would
    silently truncate.  ``+inf`` stays a legal radius.
    """
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise QueryError(
            f"{name} must be numeric (a scalar or one value per query), got {values!r}"
        ) from exc
    if arr.ndim > 1 or (arr.ndim == 1 and arr.shape[0] not in (1, num_queries)):
        raise QueryError(
            f"{name} must be a scalar or match the query batch: "
            f"expected shape ({num_queries},), got shape {arr.shape}"
        )
    if np.isnan(arr).any():
        raise QueryError(f"{name} must not be NaN")
    if np.issubdtype(dtype, np.integer) and not (
        np.isfinite(arr).all() and (arr == np.trunc(arr)).all()
    ):
        raise QueryError(f"{name} must be a finite whole number, got {values!r}")
    return np.broadcast_to(arr.astype(dtype), (num_queries,)).copy()


def tombstone_array(exclude: Optional[set]) -> Optional[np.ndarray]:
    """Sorted int64 array of tombstoned ids, precomputed once per batch.

    Replaces the per-group ``np.isin(obj_ids, list(exclude))`` pattern, which
    rebuilt a Python list from the set on every query group.
    """
    if not exclude:
        return None
    return np.asarray(sorted(exclude), dtype=np.int64)


def tombstoned_mask(obj_ids: np.ndarray, tombstones: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Boolean mask of the ids present in the sorted tombstone array.

    ``searchsorted`` over the precomputed sorted array — equivalent to
    ``np.isin`` but without re-sorting the tombstones per call.  Returns
    None when nothing is tombstoned (the common case keeps zero overhead).
    """
    if tombstones is None or len(tombstones) == 0 or len(obj_ids) == 0:
        return None
    pos = np.searchsorted(tombstones, obj_ids)
    pos = np.minimum(pos, len(tombstones) - 1)
    return tombstones[pos] == obj_ids


def filter_live_triples(query_indices, obj_ids, dists, tombstones):
    """Normalise (query, id, dist) triples and drop tombstoned objects.

    Returns the three aligned arrays, possibly empty — the add() prologue of
    the query engine's candidate pools.
    """
    obj_ids = np.asarray(obj_ids, dtype=np.int64)
    query_indices = np.asarray(query_indices, dtype=np.int64)
    dists = np.asarray(dists, dtype=np.float64)
    if len(obj_ids) == 0:
        return query_indices, obj_ids, dists
    dead = tombstoned_mask(obj_ids, tombstones)
    if dead is not None and dead.any():
        live = ~dead
        query_indices, obj_ids, dists = query_indices[live], obj_ids[live], dists[live]
    return query_indices, obj_ids, dists


def triples_to_answer_lists(
    qs: np.ndarray,
    ids: np.ndarray,
    dists: np.ndarray,
    num_queries: int,
    k: Optional[np.ndarray] = None,
) -> list[list[tuple[int, float]]]:
    """Turn (query, id, dist) triples into per-query (id, dist) answer lists.

    One global ``(query, distance, id)`` lexsort, then per-query slices —
    truncated to ``k[qi]`` entries when a per-query ``k`` array is given.
    The finalisation of the engine's candidate pools and of the sharded
    index's merge.
    """
    order = np.lexsort((ids, dists, qs))
    qs, ids, dists = qs[order], ids[order], dists[order]
    starts = np.searchsorted(qs, np.arange(num_queries, dtype=np.int64))
    ends = np.searchsorted(qs, np.arange(1, num_queries + 1, dtype=np.int64))
    id_list = ids.tolist()
    dist_list = dists.tolist()
    out = []
    for qi in range(num_queries):
        start = int(starts[qi])
        end = int(ends[qi])
        if k is not None:
            end = min(end, start + int(k[qi]))
        out.append(list(zip(id_list[start:end], dist_list[start:end])))
    return out


def dedupe_min_triples(
    qs: np.ndarray, ids: np.ndarray, dists: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse duplicate (query, id) pairs to their minimum distance.

    Returns the surviving triples sorted by (query, id): the compaction of
    the engine's candidate pools.  The engine only ever produces
    equal distances for duplicates, so min matches the historical
    last-write-wins dict semantics.
    """
    key = qs * (int(ids.max()) + 1) + ids
    order = np.lexsort((dists, key))
    key_sorted = key[order]
    # first occurrence per key carries the minimum distance; ``keep`` is
    # already in key order, i.e. sorted by (query, id)
    keep = order[np.concatenate(([True], key_sorted[1:] != key_sorted[:-1]))]
    return qs[keep], ids[keep], dists[keep]


@dataclass(frozen=True)
class PruneMode:
    """Which side(s) of the distance interval the pruning rule uses.

    ``two_sided`` (default) prunes a child when the query ball misses the
    child's ``[min_dis, max_dis]`` interval from either side.  ``one_sided``
    reproduces the paper's literal statement, which only uses ``min_dis``
    (``d(q, p) + r < min_dis``); it is kept for the ablation benchmark.
    """

    two_sided: bool = True

    @classmethod
    def from_name(cls, name: str) -> "PruneMode":
        key = name.strip().lower().replace("_", "-")
        if key in ("two-sided", "both", "default"):
            return cls(two_sided=True)
        if key in ("one-sided", "paper", "min-only"):
            return cls(two_sided=False)
        raise QueryError(f"unknown prune mode {name!r}")


def level_pair_limit(device: Device, height: int, layer: int, node_capacity: int) -> int:
    """Maximum number of candidate (query, node) pairs expandable at ``layer``.

    Derived from the paper's per-level limit ``size_GPU / ((h - layer + 1) * Nc)``
    with ``size_GPU`` taken as the *currently available* device memory, so an
    index (or other tenants) already resident on the device shrinks the
    budget, as it would on real hardware.
    """
    levels_left = max(1, height - layer + 1)
    budget = device.available_bytes // (levels_left * max(node_capacity, 1) * ENTRY_BYTES)
    return max(1, int(budget))


def split_into_groups(
    cand_query: np.ndarray, limit_pairs: int
) -> list[np.ndarray]:
    """Split candidate pair indices into groups of at most ``limit_pairs`` pairs.

    Pairs of the same query are kept together whenever a single query fits
    within the limit (the paper divides *queries* into groups); a query whose
    own candidate list exceeds the limit is chunked on its own, which keeps
    the search correct (range/kNN candidate sets are unions) while bounding
    memory.
    Returns a list of index arrays into the pair arrays.
    """
    if limit_pairs <= 0:
        raise QueryError("limit_pairs must be positive")
    order = np.argsort(cand_query, kind="stable")
    sorted_q = cand_query[order]
    # per-query segment boundaries of the sorted pair list (cumulative-sum
    # form: one vectorised pass instead of per-pair Python bookkeeping)
    change = np.flatnonzero(np.diff(sorted_q)) + 1
    seg_starts = np.concatenate(([0], change))
    seg_ends = np.concatenate((change, [len(order)]))
    # greedy packing over whole-query segments; groups are recorded as index
    # ranges into ``order`` and materialised with slices at the end
    groups: list[list[tuple[int, int]]] = []
    current: list[tuple[int, int]] = []
    current_len = 0
    for start, end in zip(seg_starts.tolist(), seg_ends.tolist()):
        size = end - start
        if size > limit_pairs:
            # flush current, then chunk this oversized query on its own
            if current:
                groups.append(current)
                current, current_len = [], 0
            for chunk in range(start, end, limit_pairs):
                groups.append([(chunk, min(chunk + limit_pairs, end))])
            continue
        if current_len + size > limit_pairs and current:
            groups.append(current)
            current, current_len = [], 0
        current.append((start, end))
        current_len += size
    if current:
        groups.append(current)
    return [
        order[g[0][0] : g[0][1]]
        if len(g) == 1
        else np.concatenate([order[s:e] for s, e in g])
        for g in groups
    ]


def pivot_distances_per_query(
    device: Device,
    metric: Metric,
    objects: Sequence,
    queries: Sequence,
    cand_query: np.ndarray,
    pivot_ids: np.ndarray,
) -> np.ndarray:
    """Distance from each candidate pair's query to the pair's node pivot.

    The pairs are grouped by query index into segments and evaluated with a
    single fused ``Metric.pairwise_segmented`` call — one gather plus one
    broadcast pass over all (query, pivot) pairs of the level; device time is
    charged as one level-wide kernel over all pairs (this is the paper's
    "compute the distances of all nodes at the level simultaneously").
    """
    out = np.empty(len(cand_query), dtype=np.float64)
    if len(cand_query) == 0:
        return out
    # Tiered stores: stage the level's pivot blocks in one coalesced prefetch
    # before the segmented gather touches them.
    if getattr(objects, "prefetch_enabled", False):
        objects.prefetch_ids(pivot_ids)
    order = np.argsort(cand_query, kind="stable")
    unique_queries, starts = np.unique(cand_query[order], return_index=True)
    boundaries = np.append(starts, len(order))
    host_start = time.perf_counter()
    query_objects = take_objects(queries, unique_queries)
    out[order] = segmented_distances(
        metric, objects, query_objects, boundaries, pivot_ids[order]
    )
    host = time.perf_counter() - host_start
    device.launch_kernel(
        work_items=len(cand_query),
        op_cost=metric.unit_cost,
        label="pivot-distances",
        host_time=host,
    )
    return out


def segmented_distances(
    metric: Metric,
    objects: Sequence,
    query_objects: Sequence,
    boundaries: np.ndarray,
    obj_ids: np.ndarray,
) -> np.ndarray:
    """Gather candidate rows by id and evaluate the per-query segments.

    The flat candidate list is processed in cache-sized chunks of whole
    segments: each chunk is gathered (``take_objects`` — one columnar fancy
    index, with tiered stores charging their block faults in the identical
    order) and handed to ``Metric.pairwise_segmented`` while the gathered
    rows are still cache-resident.  Segments larger than the chunk budget
    are evaluated alone, which is exactly the cache-blocked shape of
    per-query evaluation.  Chunking is invisible to the results and the
    simulated device: only the host wall-clock changes.
    """
    n = len(obj_ids)
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    num_segments = len(boundaries) - 1
    dim = object_dimension(objects)
    if dim is None:
        # list store (strings, sets, ragged data): the metric loops per
        # segment anyway and the "gather" is a view comprehension
        rows = take_objects(objects, obj_ids)
        out[:] = metric.pairwise_segmented(query_objects, rows, boundaries)
        return out
    # per-row auxiliaries (e.g. angular row norms), precomputed once per
    # store generation and gathered alongside the rows
    digest = store_metric_digest(objects, metric)
    budget_rows = max(1, GATHER_CHUNK_ELEMENTS // max(1, dim))
    seg = 0
    while seg < num_segments:
        end_seg = seg + 1
        chunk_rows = int(boundaries[end_seg] - boundaries[seg])
        while (
            end_seg < num_segments
            and chunk_rows + int(boundaries[end_seg + 1] - boundaries[end_seg]) <= budget_rows
        ):
            chunk_rows += int(boundaries[end_seg + 1] - boundaries[end_seg])
            end_seg += 1
        lo, hi = int(boundaries[seg]), int(boundaries[end_seg])
        chunk_ids = obj_ids[lo:hi]
        rows = take_objects(objects, chunk_ids)
        out[lo:hi] = metric.pairwise_segmented(
            query_objects[seg:end_seg],
            rows,
            boundaries[seg : end_seg + 1] - lo,
            object_digest=None if digest is None else digest[chunk_ids],
        )
        seg = end_seg
    return out


def leaf_candidate_segments(
    tree: TreeStructure,
    leaf_q: np.ndarray,
    leaf_node: np.ndarray,
    tombstones: Optional[np.ndarray],
    coalesce: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-query candidate segments of the surviving (query, leaf) pairs.

    Expands every pair's leaf slice of the table list and drops tombstoned
    ids.  With ``coalesce`` (any store whose gathers fault device blocks)
    each query's candidates are additionally sorted by object id, so the
    gather is block-coalesced per query — the order tiered paging is
    measured against.  Resident stores skip that sort: distances are
    per-row and every consumer (result triples, candidate pools) orders by
    ``(distance, id)`` at the end, so candidate order cannot influence a
    single output bit.

    Returns ``(unique_queries, boundaries, obj_ids)``: segment ``i`` of the
    flat ``obj_ids`` — rows ``boundaries[i]:boundaries[i + 1]`` — holds the
    candidates of ``unique_queries[i]``.  Queries whose candidates were all
    tombstoned produce no segment, exactly like the historical per-query
    loop's ``continue``.
    """
    if len(leaf_q) and np.any(np.diff(leaf_q) < 0):
        # engine invariants keep pair lists query-sorted; re-sort stably for
        # direct (test) callers that pass arbitrary pair order
        order = np.argsort(leaf_q, kind="stable")
        leaf_q, leaf_node = leaf_q[order], leaf_node[order]
    sizes = tree.size[leaf_node]
    flat = concatenated_ranges(tree.pos[leaf_node], sizes)
    obj_ids = tree.obj_ids[flat]
    owner = np.repeat(leaf_q, sizes)
    dead = tombstoned_mask(obj_ids, tombstones)
    if dead is not None and dead.any():
        live = ~dead
        obj_ids, owner = obj_ids[live], owner[live]
    if coalesce and len(obj_ids):
        order = np.lexsort((obj_ids, owner))
        obj_ids, owner = obj_ids[order], owner[order]
    if len(owner) == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            obj_ids,
        )
    starts = np.concatenate(([0], np.flatnonzero(np.diff(owner)) + 1))
    unique_queries = owner[starts]
    boundaries = np.append(starts, len(owner))
    return unique_queries, boundaries, obj_ids


def dense_band_filter(
    metric: Metric,
    objects: Sequence,
    queries: Sequence,
    unique_queries: np.ndarray,
    boundaries: np.ndarray,
    obj_ids: np.ndarray,
    cutoffs: np.ndarray,
    k: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop the leaf candidates whose exact distance provably exceeds a cutoff.

    Takes and returns the ``(unique_queries, boundaries, obj_ids)`` segments
    of :func:`leaf_candidate_segments`.  ``cutoffs`` holds one value per
    segment: the radius for MRQ, the pool's k-th bound for MkNNQ, which
    also passes each segment's ``k``.  A pair is dropped only when its
    row-wise distance — the value :func:`segmented_distances` would return —
    is strictly greater than the cutoff, or, for MkNNQ, strictly greater
    than the distances of ``k`` distinct candidates of the same query: the
    caller would cull such a pair or never rank it in the top k, so no
    answer and no pool bound changes.  The survivors keep their segments;
    the caller evaluates them exactly.

    The filter runs for :class:`~repro.metrics.vector.AngularDistance` over
    a resident columnar store when the batch is dense (``queries x id span
    <= DENSE_TILE_FACTOR x pairs``), as blocks of one float64 GEMM tile with
    a rigorous error band (DESIGN.md §8, "Dense angular tiles").  Otherwise
    — other metrics, list stores, tiered stores whose gathers must fault
    their blocks in the measured order, sparse batches — it returns its
    input unchanged.  ``counter.pairs`` still counts every candidate pair
    once: the dropped pairs are recorded here, the survivors by their exact
    evaluation.  Simulated accounting is the caller's and is unchanged.
    """
    unchanged = unique_queries, boundaries, obj_ids
    matrix = rows_matrix(objects)
    if (
        len(obj_ids) == 0
        or matrix is None
        or not isinstance(metric, AngularDistance)
        or getattr(objects, "coalesced_gather", False)
    ):
        return unchanged
    first = int(obj_ids.min())
    span = int(obj_ids.max()) - first + 1
    num_segments = len(unique_queries)
    # a tile cosine and the row-wise clipped cosine differ by at most the
    # half-width; the margin also absorbs one subtraction's rounding
    margin = angular_tile_halfwidth(matrix.shape[1]) + 4.0 * 2.0 ** -53
    if num_segments * span > DENSE_TILE_FACTOR * len(obj_ids) or not np.isfinite(margin):
        return unchanged
    query_objects = take_objects(queries, unique_queries)
    candidate = np.zeros((num_segments, span), dtype=bool)
    for i in range(num_segments):
        candidate[i, obj_ids[boundaries[i] : boundaries[i + 1]] - first] = True
    digest = store_metric_digest(objects, metric)
    cutoffs = np.asarray(cutoffs, dtype=np.float64)
    if k is not None:
        # the kmax largest tile cosines per query seen so far, negated and
        # unordered; ranks past the candidate count read -inf
        kmax = int(min(int(np.max(k)), span))
        best = np.full((num_segments, kmax), np.inf)
        rank = (np.arange(num_segments), np.minimum(k, kmax) - 1)
    block = max(1, GATHER_CHUNK_ELEMENTS // max(num_segments, matrix.shape[1]))
    floor = None
    kept_seg, kept_col, kept_cos = [], [], []
    for start in range(0, span, block):
        stop = min(span, start + block)
        cos = metric.cosine_tile(
            query_objects,
            matrix[first + start : first + stop],
            None if digest is None else digest[first + start : first + stop],
        )
        cand = candidate[:, start:stop]
        if k is not None:
            # NaN cells (no band) sort after +inf, so they can only reach a
            # rank when a query has fewer candidates, and then bound nothing
            merged = np.concatenate((best, np.where(cand, -cos, np.inf)), axis=1)
            best = np.partition(merged, kmax - 1, axis=1)[:, :kmax]
            # k distinct candidates have a row-wise cosine of at least
            # kth - margin, hence a distance of at most its ceiling
            kth = np.where(k > kmax, -np.inf, -np.sort(best, axis=1)[rank])
            bound = np.minimum(cutoffs, angular_distance_ceiling(kth - margin))
            floor = angular_cosine_floor(bound) - margin
        elif floor is None:
            floor = angular_cosine_floor(cutoffs) - margin
        # tile cosine below floor: row-wise cosine below the cosine floor,
        # distance strictly beyond the bound (NaN cells always survive)
        seg, col = np.nonzero(cand & ~(cos < floor[:, None]))
        kept_seg.append(seg)
        kept_col.append(col + (first + start))
        kept_cos.append(cos[seg, col])
    seg = np.concatenate(kept_seg)
    ids = np.concatenate(kept_col)
    if k is not None:
        # earlier blocks were filtered against a looser running bound
        final = ~(np.concatenate(kept_cos) < floor[seg])
        seg, ids = seg[final], ids[final]
    order = np.argsort(seg, kind="stable")
    seg, ids = seg[order], ids[order]
    dropped = len(obj_ids) - len(ids)
    if dropped:
        metric.counter.record(dropped)
    counts = np.bincount(seg, minlength=num_segments)
    present = counts > 0
    return (
        unique_queries[present],
        np.concatenate(([0], np.cumsum(counts[present]))).astype(np.int64),
        ids.astype(np.int64),
    )


def leaf_prefetch_ids(tree: TreeStructure, leaf_node: np.ndarray) -> np.ndarray:
    """Candidate ids of the distinct surviving leaves (prefetch lookahead)."""
    nodes = np.unique(leaf_node)
    return tree.obj_ids[concatenated_ranges(tree.pos[nodes], tree.size[nodes])]


def prune_children(
    tree: TreeStructure,
    cand_node: np.ndarray,
    pivot_dist: np.ndarray,
    allowance: np.ndarray,
    mode: PruneMode,
    device: Device,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply Lemma 5.1 / 5.2 to every child of every candidate node at once.

    Parameters
    ----------
    cand_node:
        Candidate node ids (all at the same level), one per pair.
    pivot_dist:
        ``d(q, N.pivot)`` for each pair.
    allowance:
        Per-pair slack of the interval test: the radius ``r`` for MRQ, the
        query's current k-th bound for MkNNQ.  A child survives when
        ``[d(q,p) - allowance, d(q,p) + allowance]`` meets its
        ``[min_dis, max_dis]`` interval, boundaries included.  Lemma 5.1
        prunes only on a strict miss; Lemma 5.2 may also prune a child that
        merely touches the k-th bound, and keeping it instead is safe (it
        costs verification work, never an answer).

    Returns
    -------
    (pair_index, child_id):
        Arrays describing the surviving (pair, child) combinations; the pair
        index refers back to the positions in ``cand_node``.
    """
    nc = tree.node_capacity
    if len(cand_node) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    child_ids = cand_node[:, None] * nc + 1 + np.arange(nc, dtype=np.int64)[None, :]
    sizes = tree.size[child_ids]
    lb = tree.min_dis[child_ids]
    ub = tree.max_dis[child_ids]
    d = pivot_dist[:, None]
    keep = sizes > 0
    slack = allowance[:, None]
    keep &= d + slack >= lb
    if mode.two_sided:
        keep &= d - slack <= ub
    device.launch_kernel(work_items=child_ids.size, op_cost=2.0, label="prune-children")
    pair_index, child_col = np.nonzero(keep)
    return pair_index.astype(np.int64), child_ids[pair_index, child_col].astype(np.int64)


class IntermediateTable:
    """RAII-style allocation of the per-level intermediate result table.

    Raises :class:`MemoryDeadlockError` when the allocation cannot be
    satisfied — the exact failure mode the paper ascribes to prior GPU tree
    indexes; GTS itself avoids it through :func:`level_pair_limit` grouping,
    so within GTS this error indicates the device is too small to hold even
    one query group (which the tests exercise explicitly).
    """

    def __init__(self, device: Device, entries: int, label: str = "intermediate"):
        self._device = device
        try:
            self._allocation = device.allocate(int(entries) * ENTRY_BYTES, label, pool="workspace")
        except Exception as exc:  # DeviceMemoryError
            raise MemoryDeadlockError(
                f"cannot allocate intermediate table of {entries} entries: {exc}"
            ) from exc

    def __enter__(self) -> "IntermediateTable":
        return self

    def __exit__(self, *exc_info) -> None:
        self._device.free(self._allocation)
