"""Public facade of the GTS index.

:class:`GTS` ties together the pieces built in the rest of :mod:`repro.core`:

* level-synchronous parallel construction (Algorithms 1-3);
* batch metric range queries and batch metric kNN queries (Algorithms 4-5)
  with the two-stage memory-aware grouping;
* streaming updates through the cache table and tombstones, with automatic
  full rebuilds when the cache outgrows its budget (Section 4.4);
* the node-capacity cost model (Section 5.3).

A minimal end-to-end use looks like::

    from repro import GTS, EuclideanDistance

    index = GTS.build(points, EuclideanDistance(), node_capacity=20)
    hits = index.range_query(points[0], radius=0.5)
    neighbours = index.knn_query_batch(points[:64], k=10)

Object identity: every object handed to the index receives a persistent
integer id (its position in the insertion order).  Query answers are
``(object_id, distance)`` pairs sorted by ``(distance, object_id)``;
:meth:`GTS.get_object` maps ids back to objects.  Ids survive rebuilds and
are never reused after deletion.

Concurrent callers: :meth:`GTS.execute_batch` is the mixed-batch entry point
the serving layer (:mod:`repro.service`) coalesces interleaved client
requests through; see DESIGN.md §4.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..exceptions import IndexError_, QueryError, UpdateError
from ..gpusim.device import Device
from ..gpusim.specs import DeviceSpec
from ..metrics.base import Metric
from ..tier.config import TierConfig
from .cache_table import CacheTable
from .construction import BuildResult, build_tree
from .cost_model import (
    DistanceDistribution,
    estimate_distance_distribution,
    recommend_node_capacity,
)
from .knn_query import batch_knn_query
from .nodes import TreeStructure
from .objectstore import make_object_store
from .range_query import batch_range_query
from .searchcommon import PruneMode

__all__ = ["GTS", "execute_operation_batch"]

#: Default cache-table budget; the paper recommends ~5 KB (Section 6.2).
DEFAULT_CACHE_BYTES = 5 * 1024

#: Sentinel distinguishing "not cached" from any cacheable object.
_MISSING = object()


def execute_operation_batch(index, ops: Sequence[tuple]) -> list:
    """Run a mixed operation batch against any index exposing the GTS API.

    The shared implementation behind :meth:`GTS.execute_batch` and
    :meth:`repro.shard.ShardedGTS.execute_batch` — ``index`` only needs
    ``range_query_batch`` / ``knn_query_batch`` / ``insert`` / ``delete``.
    Maximal runs of consecutive same-kind queries are coalesced into one
    batch call; updates act as barriers; results come back in submission
    order, one entry per operation.
    """
    results: list = [None] * len(ops)
    start = 0
    while start < len(ops):
        kind = ops[start][0]
        end = start
        while end < len(ops) and ops[end][0] == kind and kind in ("range", "knn"):
            end += 1
        if kind in ("range", "knn"):
            run = index.range_query_batch if kind == "range" else index.knn_query_batch
            # raw radii / k: the batch call validates them (no truncation)
            batch = ops[start:end]
            results[start:end] = run([op[1] for op in batch], [op[2] for op in batch])
            start = end
        elif kind == "insert":
            results[start] = index.insert(ops[start][1])
            start += 1
        elif kind == "delete":
            results[start] = index.delete(int(ops[start][1]))
            start += 1
        else:
            raise QueryError(f"unknown batch operation kind {kind!r}")
    return results


class GTS:
    """GPU-based Tree index for Similarity search (simulated-GPU edition).

    Parameters
    ----------
    metric:
        Distance metric of the metric space.
    node_capacity:
        Fan-out ``Nc`` of the tree (the paper's tuning knob, default 20).
    device:
        Simulated GPU to run on; a default 11 GB / 4096-core device is
        created when omitted.
    cache_capacity_bytes:
        Byte budget of the streaming-update cache table.
    pivot_strategy:
        Pivot selection strategy (``"fft"``, ``"random"``, ``"center"``).
    prune_mode:
        ``"two-sided"`` (default) or ``"one-sided"`` pruning (ablation).
    seed:
        Seed of the construction RNG (root pivot choice), for reproducibility.
    memory_budget_bytes:
        When given, the index runs in **tiered mode** (DESIGN.md §7): the
        object store stays in simulated host memory, split into blocks, and
        a :class:`~repro.tier.BlockPager` stages blocks into a device pool
        of at most this many bytes on demand.  Query/update answers are
        identical to the fully-resident index; only the charged transfer
        time (and the device-memory footprint) changes.
    tier:
        Full :class:`~repro.tier.TierConfig` (block size, eviction policy,
        prefetch) for tiered mode; ``memory_budget_bytes``, when also
        given, overrides the config's budget.
    """

    def __init__(
        self,
        metric: Metric,
        node_capacity: int = 20,
        device: Optional[Device] = None,
        cache_capacity_bytes: int = DEFAULT_CACHE_BYTES,
        pivot_strategy: str = "fft",
        prune_mode: str = "two-sided",
        seed: int = 17,
        memory_budget_bytes: Optional[int] = None,
        tier: Optional[TierConfig] = None,
    ):
        if node_capacity < 2:
            raise IndexError_(f"node capacity must be at least 2, got {node_capacity}")
        self.metric = metric
        self.node_capacity = int(node_capacity)
        self.device = device or Device(DeviceSpec())
        self.pivot_strategy = pivot_strategy
        self.prune_mode = PruneMode.from_name(prune_mode)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        if tier is not None and memory_budget_bytes is not None:
            tier = tier.with_budget(memory_budget_bytes)
        elif tier is None and memory_budget_bytes is not None:
            tier = TierConfig(memory_budget_bytes=int(memory_budget_bytes))
        self.tier_config: Optional[TierConfig] = tier
        self._pager = None

        self._objects: list = []
        self._indexed_ids = np.zeros(0, dtype=np.int64)
        self._tombstones: set[int] = set()
        self._tree: Optional[TreeStructure] = None
        self._build_result: Optional[BuildResult] = None
        self._allocations: list = []
        self._cache = CacheTable(cache_capacity_bytes, device=self.device)
        self._automatic_rebuild_count = 0
        self._forced_rebuild_count = 0
        self._maintenance = None

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def build(
        cls,
        objects: Sequence,
        metric: Metric,
        node_capacity: int = 20,
        device: Optional[Device] = None,
        cache_capacity_bytes: int = DEFAULT_CACHE_BYTES,
        pivot_strategy: str = "fft",
        prune_mode: str = "two-sided",
        seed: int = 17,
        memory_budget_bytes: Optional[int] = None,
        tier: Optional[TierConfig] = None,
    ) -> "GTS":
        """Build a GTS index over ``objects`` and return it."""
        index = cls(
            metric=metric,
            node_capacity=node_capacity,
            device=device,
            cache_capacity_bytes=cache_capacity_bytes,
            pivot_strategy=pivot_strategy,
            prune_mode=prune_mode,
            seed=seed,
            memory_budget_bytes=memory_budget_bytes,
            tier=tier,
        )
        index.bulk_load(objects)
        return index

    def bulk_load(self, objects: Sequence) -> BuildResult:
        """(Re)initialise the index with ``objects`` as its full content.

        Runs the level-synchronous parallel construction (Algorithms 1-3,
        Section 4.1-4.3).  Object ``i`` of ``objects`` receives object id
        ``i``; any previous content, cache entries and tombstones are
        dropped first.  Returns the construction's
        :class:`~repro.core.construction.BuildResult` (simulated time,
        distance computations, allocations).
        """
        if len(objects) == 0:
            raise IndexError_("cannot bulk load an empty object collection")
        # reject malformed objects (e.g. a NaN row) before anything changes
        self.metric.validate_objects(objects)
        if self._maintenance is not None:
            self._maintenance.abort()
        self._release_index()
        if self._pager is not None:
            self._pager.release()
            self._pager = None
        # Vector datasets stay one contiguous matrix end-to-end (a
        # ColumnarStore); everything else falls back to a plain list.
        self._objects = make_object_store(objects)
        if self.tier_config is not None:
            self._init_tier()
        self._tombstones = set()
        self._cache.clear()
        self._indexed_ids = np.arange(len(self._objects), dtype=np.int64)
        return self._build()

    def _init_tier(self) -> None:
        """Wrap the host object list behind the block store + demand pager."""
        from ..exceptions import TierError
        from ..tier.pager import BlockPager
        from ..tier.store import PagedObjects, TieredObjectStore

        store = TieredObjectStore(self._objects, self.tier_config.block_bytes)
        # Blocks are sized by the *average* payload, so variable-length data
        # (strings) can produce blocks larger than block_bytes; validate the
        # real maximum up front instead of surprising a query mid-descent.
        max_block = max(store.block_nbytes(b) for b in range(store.num_blocks))
        if max_block > self.tier_config.memory_budget_bytes:
            raise TierError(
                f"tier memory budget ({self.tier_config.memory_budget_bytes} B) "
                f"cannot hold the largest object block ({max_block} B; average-"
                f"sized blocks target {self.tier_config.block_bytes} B); raise "
                "memory_budget_bytes or shrink block_bytes"
            )
        self._pager = BlockPager(self.device, store, self.tier_config)
        self._objects = PagedObjects(store, self._pager)

    def _build(self) -> BuildResult:
        """Build the tree over the currently indexed ids."""
        result = build_tree(
            self._objects,
            self._indexed_ids,
            self.metric,
            self.node_capacity,
            self.device,
            rng=self._rng,
            pivot_strategy=self.pivot_strategy,
            # Tiered mode never materialises the full object store on the
            # device: construction faults blocks through the pager instead,
            # and only the tree storage is allocated (pinned) below.
            allocate_storage=self.tier_config is None,
        )
        return self._finalize_build(result)

    def _finalize_build(self, result: BuildResult) -> BuildResult:
        """Install a finished construction as the live tree.

        Shared by :meth:`_build` and the maintenance generation swap: tiered
        indexes allocate the tree storage here (construction faulted object
        blocks instead of staging the store) and re-pin the pivot blocks.
        """
        if self.tier_config is not None:
            result.allocations.append(
                self.device.allocate(result.tree.storage_bytes(), "gts-index", pool="tree")
            )
            self._pager.set_pins(
                self._objects.store.blocks_for(result.tree.pivot[result.tree.pivot >= 0])
            )
        self._tree = result.tree
        self._build_result = result
        self._allocations = result.allocations
        return result

    def _release_index(self) -> None:
        for alloc in self._allocations:
            self.device.free(alloc)
        self._allocations = []
        self._tree = None
        self._build_result = None

    def close(self) -> None:
        """Free every device allocation held by the index."""
        if self._maintenance is not None:
            self._maintenance.abort()
        self._release_index()
        if self._pager is not None:
            self._pager.release()
        self._cache.release()

    # ------------------------------------------------------------ properties
    @property
    def _indexed_ids(self) -> np.ndarray:
        return self.__indexed_ids

    @_indexed_ids.setter
    def _indexed_ids(self, value: np.ndarray) -> None:
        # Keep a set view in sync so per-id membership checks (delete,
        # is_live) stay O(1) instead of rescanning the array every call.
        self.__indexed_ids = value
        self._indexed_id_set = {int(i) for i in value.tolist()}

    @property
    def tree(self) -> TreeStructure:
        """The underlying flat tree structure (read-only use only)."""
        self._require_built()
        return self._tree

    @property
    def height(self) -> int:
        """Height ``h`` of the tree (leaves live at level ``h``)."""
        self._require_built()
        return self._tree.height

    @property
    def num_objects(self) -> int:
        """Number of live (visible) objects: indexed - deleted + cached."""
        return len(self._indexed_ids) - len(self._tombstones) + len(self._cache)

    @property
    def num_indexed(self) -> int:
        """Number of objects inside the tree (including tombstoned slots)."""
        return len(self._indexed_ids)

    @property
    def cache_size(self) -> int:
        """Number of objects currently buffered in the cache table."""
        return len(self._cache)

    @property
    def rebuild_count(self) -> int:
        """Total rebuilds of any kind: ``automatic + forced``.

        Kept as the sum for backwards compatibility; use
        :attr:`automatic_rebuild_count` for overflow-triggered rebuilds and
        :attr:`forced_rebuild_count` for explicit :meth:`rebuild` /
        :meth:`batch_update` reconstructions.
        """
        return self._automatic_rebuild_count + self._forced_rebuild_count

    @property
    def automatic_rebuild_count(self) -> int:
        """Rebuilds streaming-update cache overflows triggered (Section 4.4),
        including non-blocking generation swaps completed by the maintenance
        subsystem."""
        return self._automatic_rebuild_count

    @property
    def forced_rebuild_count(self) -> int:
        """Explicitly requested reconstructions (:meth:`rebuild`, non-empty
        :meth:`batch_update`)."""
        return self._forced_rebuild_count

    @property
    def tiered(self) -> bool:
        """True when the index pages its object store (tiered mode)."""
        return self.tier_config is not None

    @property
    def pager(self):
        """The :class:`~repro.tier.BlockPager` of a tiered index (else None)."""
        return self._pager

    @property
    def storage_bytes(self) -> int:
        """Bytes of index storage (node list + table list)."""
        self._require_built()
        return self._tree.storage_bytes()

    @property
    def build_result(self) -> BuildResult:
        """Timing/statistics of the most recent construction."""
        self._require_built()
        return self._build_result

    def get_object(self, obj_id: int):
        """Return the object registered under ``obj_id``.

        A host-side read: in tiered mode the primary copy lives in host
        memory, so this never faults a block onto the device.
        """
        obj_id = int(obj_id)
        cached = self._cache.get(obj_id, _MISSING)
        if cached is not _MISSING:
            return cached
        objects = getattr(self._objects, "raw", self._objects)
        if 0 <= obj_id < len(objects):
            return objects[obj_id]
        raise IndexError_(f"unknown object id {obj_id}")

    def is_live(self, obj_id: int) -> bool:
        """True when ``obj_id`` is currently visible to queries."""
        obj_id = int(obj_id)
        if obj_id in self._cache:
            return True
        return (
            0 <= obj_id < len(self._objects)
            and obj_id in self._indexed_id_set
            and obj_id not in self._tombstones
        )

    def __len__(self) -> int:
        return self.num_objects

    def _require_built(self) -> None:
        if self._tree is None:
            raise IndexError_("the index has not been built yet; call bulk_load() first")

    # -------------------------------------------------------------- queries
    def range_query(self, query, radius: float) -> list[tuple[int, float]]:
        """Answer a single metric range query ``MRQ(query, radius)``.

        Convenience wrapper over :meth:`range_query_batch` with a batch of
        one — the underlying algorithm (Algorithm 4, Section 5.1) is always
        the batch algorithm.  Returns ``(object_id, distance)`` pairs sorted
        by ``(distance, object_id)``; ids map back to objects via
        :meth:`get_object`.
        """
        return self.range_query_batch([query], radius)[0]

    def range_query_batch(self, queries: Sequence, radii) -> list[list[tuple[int, float]]]:
        """Answer a batch of metric range queries concurrently (Algorithm 4).

        The batch descends the tree level-synchronously with Lemma 5.1
        pruning; when a level's projected intermediate table would overflow
        device memory the batch is split into sequentially processed groups
        (the two-stage strategy of Section 5.2).

        Parameters
        ----------
        queries:
            Query objects from the same metric space as the indexed objects.
        radii:
            A scalar radius shared by all queries or one value per query.

        Returns
        -------
        One list per query, in query order.  Each list holds
        ``(object_id, distance)`` pairs — ``object_id`` the persistent
        integer id assigned at insertion, ``distance`` a float with
        ``distance <= radius`` — sorted by ``(distance, object_id)``.
        Answers are exact: they merge the tree's results with the
        cache-table's (Section 4.4) and never contain deleted objects.
        """
        self._require_built()
        return batch_range_query(
            self._tree,
            self._objects,
            self.metric,
            self.device,
            queries,
            radii,
            exclude=self._tombstones or None,
            cache=self._cache,
            prune_mode=self.prune_mode,
        )

    def knn_query(self, query, k: int) -> list[tuple[int, float]]:
        """Answer a single metric k-nearest-neighbour query ``MkNNQ(query, k)``.

        Convenience wrapper over :meth:`knn_query_batch` with a batch of one
        (Algorithm 5, Section 5.2).  Returns at most ``k``
        ``(object_id, distance)`` pairs sorted by ``(distance, object_id)``.
        """
        return self.knn_query_batch([query], k)[0]

    def knn_query_batch(self, queries: Sequence, k) -> list[list[tuple[int, float]]]:
        """Answer a batch of metric kNN queries concurrently (Algorithm 5).

        Same level-synchronous, memory-aware descent as
        :meth:`range_query_batch`, with the fixed radius replaced by each
        query's running k-th-candidate bound and Lemma 5.2 pruning.

        Parameters
        ----------
        queries:
            Query objects from the same metric space as the indexed objects.
        k:
            A scalar shared by all queries or one positive value per query.

        Returns
        -------
        One list per query, in query order: up to ``k``
        ``(object_id, distance)`` pairs sorted by ``(distance, object_id)``.
        The returned distances are the true k smallest among live objects
        (cache-table entries included, deleted objects excluded); when
        several objects tie at the k-th distance an arbitrary subset of the
        tied objects completes the answer.
        """
        self._require_built()
        return batch_knn_query(
            self._tree,
            self._objects,
            self.metric,
            self.device,
            queries,
            k,
            exclude=self._tombstones or None,
            cache=self._cache,
            prune_mode=self.prune_mode,
        )

    def execute_batch(self, ops: Sequence[tuple]) -> list:
        """Execute a heterogeneous batch of operations in submission order.

        This is the mixed-batch entry point the serving layer
        (:class:`repro.service.GTSService`) dispatches micro-batches through.
        Each operation is a tuple whose first element names its kind:

        ``("range", query, radius)``
            A metric range query; its result is a ``(object_id, distance)``
            list as returned by :meth:`range_query`.
        ``("knn", query, k)``
            A metric kNN query; result as returned by :meth:`knn_query`.
        ``("insert", obj)``
            A streaming insert; the result is the new object id.
        ``("delete", obj_id)``
            A streaming delete; the result is ``None``.

        Maximal runs of consecutive query operations of the same kind are
        coalesced into one call of the paper's batch algorithms
        (Algorithms 4-5) — with per-query radii/``k`` — so a homogeneous batch
        of ``n`` queries costs exactly one ``range_query_batch`` /
        ``knn_query_batch`` invocation.  Updates act as barriers: a query
        submitted after an insert/delete observes it, one submitted before
        does not, exactly as if every operation had been issued sequentially.
        Results come back in submission order, one entry per operation.
        """
        self._require_built()
        return execute_operation_batch(self, ops)

    # -------------------------------------------------------------- updates
    def insert(self, obj) -> int:
        """Insert one object (streaming update, Section 4.4); returns its id.

        Object ids are assigned in insertion order (the new id is always
        ``num_indexed + cached`` inserts so far), are stable for the life of
        the index, and are what every query reports in its
        ``(object_id, distance)`` pairs.

        The object lands in the device-resident cache table in ``O(1)`` and
        is immediately visible to queries (their answers merge the tree's
        results with a cache scan).  When the cache exceeds its byte budget
        (``cache_capacity_bytes``, default ~5 KB per Section 6.2) the whole
        index is automatically rebuilt with the parallel construction
        algorithm (Algorithms 1-3), folding cached objects into the tree and
        clearing the cache — observable via :attr:`automatic_rebuild_count`.
        With incremental maintenance enabled
        (:meth:`enable_incremental_maintenance`) the overflow only schedules
        a non-blocking generation-swap rebuild instead (DESIGN.md §9): the
        insert returns immediately and the reconstruction proceeds in
        bounded slices driven by :meth:`run_maintenance_slice`.

        An object too large to ever fit the cache budget is rejected with
        :class:`~repro.exceptions.UpdateError` before any state changes or
        simulated time is charged (it could otherwise never be folded out,
        forcing a futile rebuild on every subsequent insert).
        """
        self._require_built()
        # Validate before charging or touching the store: a rejected insert
        # must be stats-neutral and must not consume an object id.
        self.metric.validate_objects([obj])
        self._cache.ensure_fits(obj)
        obj_id = len(self._objects)
        self._objects.append(obj)
        # O(1) append: ship the object to the device-resident cache table
        from .construction import objects_nbytes

        self.device.transfer_to_device(max(1, objects_nbytes([obj])))
        self.device.launch_kernel(work_items=1, op_cost=1.0, label="cache-append")
        self._cache.insert(obj_id, obj)
        if self._cache.is_full:
            if self._maintenance is not None:
                self._maintenance.notify_overflow()
            else:
                self._automatic_rebuild_count += 1
                self._fold_and_rebuild()
        return obj_id

    def delete(self, obj_id: int) -> None:
        """Delete one object by id (streaming update, Section 4.4).

        Cached objects are removed immediately; indexed objects are
        tombstoned in the table list in ``O(1)`` and filtered from every
        query answer until the next rebuild physically drops them.  Deleting
        an unknown or already-deleted id raises
        :class:`~repro.exceptions.UpdateError`; the id itself is never
        reused.
        """
        self._require_built()
        obj_id = int(obj_id)
        # Validate before charging: a rejected delete must not advance the
        # simulated clock or pollute ExecutionStats.
        if obj_id in self._cache:
            # O(1): dropping the cached slot is one device write
            self.device.launch_kernel(work_items=1, op_cost=1.0, label="tombstone-mark")
            self._cache.remove(obj_id)
            return
        if obj_id in self._tombstones:
            raise UpdateError(f"object {obj_id} has already been deleted")
        if obj_id < 0 or obj_id >= len(self._objects) or obj_id not in self._indexed_id_set:
            raise UpdateError(f"unknown object id {obj_id}")
        # O(1): locating the slot and flipping the tombstone mark is one device write
        self.device.launch_kernel(work_items=1, op_cost=1.0, label="tombstone-mark")
        self._tombstones.add(obj_id)

    def update(self, obj_id: int, new_obj) -> int:
        """Modify an object: delete the old version, insert the new one.

        Following the paper's modification semantics (Section 4.4), the new
        version gets a *fresh* object id (returned); ``obj_id`` becomes a
        tombstone.  Validated atomically: a replacement too large for the
        cache budget is rejected up front, before the old version is
        touched.
        """
        self._require_built()
        self.metric.validate_objects([new_obj])
        self._cache.ensure_fits(new_obj)
        self.delete(obj_id)
        return self.insert(new_obj)

    def rebuild(self) -> BuildResult:
        """Rebuild the tree from all live objects (Algorithms 1-3).

        Folds the cache table's objects into the tree, physically drops
        tombstoned objects, and clears both — the same reconstruction
        :meth:`insert` triggers automatically on cache overflow
        (Section 4.4), requested explicitly here (counted under
        :attr:`forced_rebuild_count`).  Object ids survive rebuilds
        unchanged.  Any in-flight maintenance generation is discarded: the
        forced rebuild folds everything the generation would have.
        """
        self._require_built()
        if self._maintenance is not None:
            self._maintenance.abort()
        self._forced_rebuild_count += 1
        return self._fold_and_rebuild()

    def _fold_ids(self) -> tuple[np.ndarray, list[int]]:
        """The rebuild fold set: live indexed ids then cached ids, in order.

        The single source of truth for what a rebuild indexes — shared by
        the stop-the-world path and the maintenance generation snapshot, so
        both produce identical trees over identical state.
        """
        live = [int(i) for i in self._indexed_ids if int(i) not in self._tombstones]
        cached = [int(oid) for oid, _ in self._cache.items()]
        return np.asarray(live + cached, dtype=np.int64), cached

    def _fold_and_rebuild(self) -> BuildResult:
        """Fold (live indexed ∪ cached) into a fresh tree, stop-the-world."""
        self._indexed_ids, _ = self._fold_ids()
        self._tombstones = set()
        self._cache.clear()
        self._release_index()
        return self._build()

    def batch_update(self, inserts: Sequence = (), deletes: Sequence[int] = ()) -> BuildResult:
        """Apply a bulk update (Section 4.4, "Batch Updates").

        Deletions and insertions are applied to the object store, then the
        whole index is reconstructed — the paper's strategy for large update
        volumes, which its Fig. 5 shows to be the GPU-friendly choice.  The
        reconstruction counts under :attr:`forced_rebuild_count`; a call
        with both sequences empty is a free no-op (no rebuild, no simulated
        time, counters untouched) returning the standing build result.
        """
        self._require_built()
        inserts = list(inserts)
        self.metric.validate_objects(inserts)
        delete_set = {int(d) for d in deletes}
        if not inserts and not delete_set:
            # zero-cost result over the standing tree: no construction ran
            return BuildResult(tree=self._tree)
        already_deleted = delete_set & self._tombstones
        if already_deleted:
            raise UpdateError(
                f"objects have already been deleted: {sorted(already_deleted)}"
            )
        cached_ids = {oid for oid, _ in self._cache.items()}
        unknown = delete_set - (self._indexed_id_set - self._tombstones) - cached_ids
        if unknown:
            raise UpdateError(f"cannot delete unknown object ids: {sorted(unknown)}")
        if self._maintenance is not None:
            self._maintenance.abort()
        for obj_id in delete_set:
            self._cache.remove(obj_id)
        live = [int(i) for i in self._indexed_ids if int(i) not in delete_set and int(i) not in self._tombstones]
        live += [oid for oid, _ in self._cache.items()]
        new_ids = []
        for obj in inserts:
            obj_id = len(self._objects)
            self._objects.append(obj)
            new_ids.append(obj_id)
        self._indexed_ids = np.asarray(live + new_ids, dtype=np.int64)
        self._tombstones = set()
        self._cache.clear()
        self._release_index()
        self._forced_rebuild_count += 1
        return self._build()

    # ---------------------------------------------------------- maintenance
    def enable_incremental_maintenance(self, config=None):
        """Switch cache-overflow rebuilds to non-blocking generation swaps.

        After this call a cache overflow inside :meth:`insert` only marks
        the index *maintenance-due*; the replacement tree is then built in
        bounded slices by :meth:`run_maintenance_slice` (which the serving
        layer schedules between micro-batches) and swapped in atomically,
        with queries answered from the old tree + cache table throughout —
        answers stay byte-identical to the stop-the-world path (DESIGN.md
        §9).  Returns the :class:`~repro.core.maintenance.IncrementalMaintenance`
        controller; calling again replaces the configuration (aborting any
        in-flight generation).
        """
        from .maintenance import IncrementalMaintenance

        if self._maintenance is not None:
            self._maintenance.abort()
        self._maintenance = IncrementalMaintenance(self, config)
        return self._maintenance

    @property
    def maintenance(self):
        """The incremental-maintenance controller, or None (blocking mode)."""
        return self._maintenance

    @property
    def maintenance_enabled(self) -> bool:
        """True when cache overflows schedule non-blocking rebuilds."""
        return self._maintenance is not None

    @property
    def maintenance_due(self) -> bool:
        """True when a maintenance slice would make progress."""
        return self._maintenance is not None and self._maintenance.due

    def run_maintenance_slice(self):
        """Advance a due generation rebuild by one bounded slice.

        Returns the slice's :class:`~repro.core.maintenance.SliceReport`
        (``swapped=True`` on the slice that installs the new generation), or
        None when no maintenance is due or enabled.
        """
        if self._maintenance is None:
            return None
        return self._maintenance.run_slice()

    # ------------------------------------------------------------ persistence
    def save(self, path) -> "Path":
        """Serialise the built index (tree, objects, cache, config) to ``path``.

        See :func:`repro.core.persistence.save_index` for the file format.
        """
        from .persistence import save_index

        return save_index(self, path)

    @classmethod
    def load(cls, path, metric: Optional[Metric] = None, device: Optional[Device] = None) -> "GTS":
        """Load an index previously written by :meth:`save`.

        The metric is re-created from the registry name stored in the archive
        unless an explicit ``metric`` is given (required for custom metrics).
        """
        from .persistence import load_index

        return load_index(path, metric=metric, device=device)

    # ------------------------------------------------------------ cost model
    def distance_distribution(self, sample_size: int = 128) -> DistanceDistribution:
        """Estimate the dataset's pairwise-distance distribution (for tuning).

        Host-side sampling — reads the host copy of the store, no faulting.
        """
        objects = getattr(self._objects, "raw", self._objects)
        live = [objects[int(i)] for i in self._indexed_ids if int(i) not in self._tombstones]
        return estimate_distance_distribution(live, self.metric, sample_size=sample_size, rng=self._rng)

    def recommend_node_capacity(
        self,
        radius: float,
        candidates: Sequence[int] = (10, 20, 40, 80, 160, 320),
        sample_size: int = 128,
    ) -> int:
        """Recommend a node capacity for the given query radius (Section 5.3)."""
        dist = self.distance_distribution(sample_size=sample_size)
        return recommend_node_capacity(
            n=self.num_objects,
            device=self.device.spec,
            sigma=dist.std,
            radius=radius,
            candidates=candidates,
            metric_unit_cost=self.metric.unit_cost,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        built = "built" if self._tree is not None else "empty"
        return (
            f"GTS({built}, objects={self.num_objects}, Nc={self.node_capacity}, "
            f"metric={self.metric.name!r})"
        )
