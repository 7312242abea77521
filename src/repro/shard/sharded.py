"""Multi-device sharded GTS index (scatter-gather scale-out).

:class:`ShardedGTS` partitions the object store across ``K`` simulated
:class:`~repro.gpusim.device.Device`\\ s — the single biggest hardware lever
the paper's single-GPU design leaves unused, and the route Faiss takes to
billion scale (Johnson et al., "Billion-scale similarity search with GPUs").
Each shard is a complete, independent :class:`~repro.core.gts.GTS` index on
its own device: its own tree, cache table and rebuild schedule.

**Queries** are answered by scatter-gather: the whole batch is broadcast to
every shard, each shard runs the paper's batch algorithm (Algorithms 4-5)
over its partition in parallel, and the host unions (range) or merges-top-k
(kNN) the per-shard answers.  Because the partitions are disjoint and every
shard answers exactly over its partition, the merged answers equal a
single-device GTS over the same data — including the ``(distance, id)``
tie-breaking, since local-id order within a shard follows global-id order.

**Updates** are routed to the owning shard: inserts go to the shard the
assignment policy picks, deletes to the shard that holds the id.  Cache
tables and overflow rebuilds stay shard-local, so a hot shard rebuilding
never blocks the others' (simulated) progress.

**Time accounting** is deliberately honest.  The shards' devices run in
parallel, so each scatter-gather round charges the coordinating timeline
(``self.device``) the *makespan* over the shards' deltas — not their sum —
plus a host-side merge term proportional to the gathered result volume
(charged on a sequential :class:`~repro.gpusim.cpu.CPUExecutor`).  The
speedup curve therefore flattens exactly where it should: when per-shard
work stops shrinking (kernel-launch floors) or the merge term starts to
matter.

The class exposes the same ``execute_batch`` contract as :class:`GTS`, so
:class:`~repro.service.GTSService` serves a sharded index unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.construction import objects_nbytes
from ..core.gts import DEFAULT_CACHE_BYTES, GTS, execute_operation_batch
from ..core.searchcommon import RESULT_BYTES, broadcast_query_param, triples_to_answer_lists
from ..exceptions import IndexError_, QueryError, UpdateError
from ..gpusim.cpu import CPUExecutor
from ..gpusim.device import Device
from ..gpusim.specs import CPUSpec, DeviceSpec
from ..gpusim.stats import ExecutionStats
from ..metrics.base import Metric
from ..tier.config import TierConfig
from .policy import AssignmentPolicy, make_assignment_policy

__all__ = ["ShardedGTS", "ShardedBuildReport", "DEFAULT_HOST_SPEC"]

#: Host the scatter/merge work runs on.  Unlike the CPU *baselines* (which
#: the paper runs sequentially, one query at a time), the gather-merge is
#: embarrassingly parallel across queries, so the coordinator uses the
#: paper's host CPU (i9-10900X) with all ten cores.
DEFAULT_HOST_SPEC = CPUSpec(name="shard-host", cores=10)


@dataclass
class ShardedBuildReport:
    """Per-shard construction results plus the parallel-build makespan."""

    #: one :class:`~repro.core.construction.BuildResult` per shard
    per_shard: list = field(default_factory=list)
    #: simulated seconds of the parallel build (slowest shard)
    sim_time: float = 0.0

    @property
    def distance_computations(self) -> int:
        """Total construction distance computations across shards."""
        return sum(r.distance_computations for r in self.per_shard)


class ShardedGTS:
    """GTS index partitioned over several simulated devices.

    Parameters
    ----------
    metric:
        Distance metric of the metric space (shared by every shard).
    num_shards:
        Number of devices/shards ``K``.
    assignment:
        Shard-assignment policy: ``"round-robin"`` (default),
        ``"size-balanced"`` or an :class:`AssignmentPolicy` instance.
    node_capacity / cache_capacity_bytes / pivot_strategy / prune_mode:
        Per-shard GTS configuration, identical across shards.
    device_spec:
        Spec every shard device (and the coordinating device) is created
        from; the default 11 GB / 4096-core spec when omitted.
    host_spec:
        Spec of the host executor the scatter/merge work is charged on;
        defaults to :data:`DEFAULT_HOST_SPEC` (a 10-core host, the merge
        being parallel across queries).
    seed:
        Base construction seed; shard ``s`` uses ``seed + s`` so shards draw
        independent pivot choices while staying reproducible.
    memory_budget_bytes / tier:
        Tiered-memory configuration (DESIGN.md §7) applied to **every
        shard**: each shard keeps its partition host-resident and pages
        object blocks into a per-device pool of ``memory_budget_bytes``.
        The ``execute_batch`` contract is unchanged, so the serving layer
        works over a tiered sharded index as-is.
    """

    def __init__(
        self,
        metric: Metric,
        num_shards: int = 2,
        assignment: str | AssignmentPolicy = "round-robin",
        node_capacity: int = 20,
        device_spec: Optional[DeviceSpec] = None,
        host_spec: Optional[CPUSpec] = None,
        cache_capacity_bytes: int = DEFAULT_CACHE_BYTES,
        pivot_strategy: str = "fft",
        prune_mode: str = "two-sided",
        seed: int = 17,
        memory_budget_bytes: Optional[int] = None,
        tier: Optional[TierConfig] = None,
    ):
        if num_shards < 1:
            raise IndexError_(f"num_shards must be at least 1, got {num_shards}")
        self.metric = metric
        self.num_shards = int(num_shards)
        self.policy = (
            assignment
            if isinstance(assignment, AssignmentPolicy)
            else make_assignment_policy(assignment)
        )
        self.node_capacity = int(node_capacity)
        self.seed = int(seed)
        spec = device_spec or DeviceSpec()
        #: the host-facing timeline every operation's makespan is charged to
        self.device = Device(spec)
        #: host executor the scatter/merge work is charged on
        self.host = CPUExecutor(host_spec or DEFAULT_HOST_SPEC)
        self.shards: list[GTS] = [
            GTS(
                metric=metric,
                node_capacity=node_capacity,
                device=Device(spec),
                cache_capacity_bytes=cache_capacity_bytes,
                pivot_strategy=pivot_strategy,
                prune_mode=prune_mode,
                seed=self.seed + s,
                memory_budget_bytes=memory_budget_bytes,
                tier=tier,
            )
            for s in range(self.num_shards)
        ]
        self.tier_config = self.shards[0].tier_config
        self._owner: dict[int, tuple[int, int]] = {}
        self._shard_to_global: list[list[int]] = [[] for _ in range(self.num_shards)]
        self._deleted: set[int] = set()
        self._loads: list[float] = [0.0] * self.num_shards
        self._next_id = 0
        self._built = False

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def build(
        cls,
        objects: Sequence,
        metric: Metric,
        num_shards: int = 2,
        assignment: str | AssignmentPolicy = "round-robin",
        node_capacity: int = 20,
        device_spec: Optional[DeviceSpec] = None,
        host_spec: Optional[CPUSpec] = None,
        cache_capacity_bytes: int = DEFAULT_CACHE_BYTES,
        pivot_strategy: str = "fft",
        prune_mode: str = "two-sided",
        seed: int = 17,
        memory_budget_bytes: Optional[int] = None,
        tier: Optional[TierConfig] = None,
    ) -> "ShardedGTS":
        """Build a sharded index over ``objects`` and return it."""
        index = cls(
            metric=metric,
            num_shards=num_shards,
            assignment=assignment,
            node_capacity=node_capacity,
            device_spec=device_spec,
            host_spec=host_spec,
            cache_capacity_bytes=cache_capacity_bytes,
            pivot_strategy=pivot_strategy,
            prune_mode=prune_mode,
            seed=seed,
            memory_budget_bytes=memory_budget_bytes,
            tier=tier,
        )
        index.bulk_load(objects)
        return index

    def bulk_load(self, objects: Sequence) -> ShardedBuildReport:
        """Partition ``objects`` across the shards and build all of them.

        Object ``i`` receives *global* id ``i`` (the same contract as
        :meth:`GTS.bulk_load`); the assignment policy maps each global id to
        a shard.  Per-shard constructions run on independent devices, so the
        reported ``sim_time`` is their makespan.
        """
        if len(objects) == 0:
            raise IndexError_("cannot bulk load an empty object collection")
        if len(objects) < self.num_shards:
            raise IndexError_(
                f"cannot spread {len(objects)} objects over {self.num_shards} shards"
            )
        # reject malformed objects before the partition charge
        self.metric.validate_objects(objects)
        self._owner = {}
        self._shard_to_global = [[] for _ in range(self.num_shards)]
        self._deleted = set()
        self._loads = [0.0] * self.num_shards
        partitions: list[list] = [[] for _ in range(self.num_shards)]
        for gid in range(len(objects)):
            obj = objects[gid]
            sid = self.policy.assign(gid, obj, self._loads)
            self._owner[gid] = (sid, len(partitions[sid]))
            self._shard_to_global[sid].append(gid)
            partitions[sid].append(obj)
            self._loads[sid] += max(1, objects_nbytes([obj]))
        self._next_id = len(objects)
        empty = [s for s, part in enumerate(partitions) if not part]
        if empty:
            raise IndexError_(f"assignment left shards {empty} empty")
        # one partitioning pass over the stream happens on the host
        self._charge_host(len(objects), "shard-partition")
        results = self._shard_round(
            lambda sid, shard: shard.bulk_load(partitions[sid])
        )
        self._built = True
        return ShardedBuildReport(
            per_shard=list(results),
            sim_time=max(r.sim_time for r in results),
        )

    def close(self) -> None:
        """Free every device allocation held by the shards."""
        for shard in self.shards:
            shard.close()

    def _require_built(self) -> None:
        if not self._built:
            raise IndexError_(
                "the sharded index has not been built yet; call bulk_load() first"
            )

    # ---------------------------------------------------------- time charging
    def _shard_round(self, fn) -> list:
        """Run ``fn(sid, shard)`` on every shard as one parallel round.

        The shards' devices advance independently; the coordinating timeline
        is charged the round's makespan while the additive work counters keep
        their cross-shard totals (see :meth:`Device.absorb`).
        """
        befores = [shard.device.snapshot() for shard in self.shards]
        outs = [fn(sid, shard) for sid, shard in enumerate(self.shards)]
        deltas = [
            shard.device.stats.delta_since(before)
            for shard, before in zip(self.shards, befores)
        ]
        merged = ExecutionStats()
        for delta in deltas:
            merged = merged.merge(delta)
        self.device.absorb(merged, sim_time=max(d.sim_time for d in deltas))
        return outs

    def _single_shard(self, sid: int, fn):
        """Run ``fn(shard)`` on one shard, charging its delta to the timeline."""
        shard = self.shards[sid]
        before = shard.device.snapshot()
        out = fn(shard)
        self.device.absorb(shard.device.stats.delta_since(before))
        return out

    def _charge_host(self, ops: float, label: str) -> None:
        """Charge sequential host-side work (partitioning, result merging)."""
        before = self.host.snapshot()
        self.host.execute(ops, label=label)
        self.device.absorb(self.host.stats.delta_since(before))

    def _log_shards(self) -> float:
        """Per-item comparison cost of a ``K``-way merge (heap of ``K`` heads)."""
        return max(1.0, math.log2(max(2, self.num_shards)))

    def _global_triples(
        self, per_shard: list, num_queries: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flatten per-shard answer lists to global-id ``(query, id, distance)`` triples."""
        qs, ids, dists = [], [], []
        for sid, answers in enumerate(per_shard):
            to_global = self._shard_to_global[sid]
            pairs = [pair for answer in answers for pair in answer]
            qs.append(np.repeat(np.arange(num_queries), [len(answer) for answer in answers]))
            ids.append(np.array([to_global[oid] for oid, _ in pairs], dtype=np.int64))
            dists.append(np.array([dist for _, dist in pairs], dtype=np.float64))
        return np.concatenate(qs), np.concatenate(ids), np.concatenate(dists)

    # -------------------------------------------------------------- queries
    def range_query(self, query, radius: float) -> list[tuple[int, float]]:
        """Answer one metric range query (scatter-gather over the shards)."""
        return self.range_query_batch([query], radius)[0]

    def range_query_batch(self, queries: Sequence, radii) -> list[list[tuple[int, float]]]:
        """Answer a batch of range queries: broadcast, per-shard Algorithm 4, union.

        Same answer contract as :meth:`GTS.range_query_batch` — exact
        ``(object_id, distance)`` lists sorted by ``(distance, object_id)``
        with *global* object ids.
        """
        self._require_built()
        radii_arr = broadcast_query_param(radii, len(queries), "radii", np.float64)

        def run(sid: int, shard: GTS):
            answers = shard.range_query_batch(queries, radii_arr)
            # each shard gathers its surviving results back to the host
            shard.device.transfer_to_host(
                sum(len(a) for a in answers) * RESULT_BYTES, label="results-d2h"
            )
            return answers

        qs, ids, dists = self._global_triples(self._shard_round(run), len(queries))
        # The union keeps every gathered hit (partitions are disjoint, so the
        # union size equals the single-device answer size): a K-way merge of
        # the per-shard sorted lists costs log2(K) comparisons per hit.
        self._charge_host(len(ids) * self._log_shards(), "shard-merge-range")
        return triples_to_answer_lists(qs, ids, dists, len(queries))

    def knn_query(self, query, k: int) -> list[tuple[int, float]]:
        """Answer one metric kNN query (scatter-gather over the shards)."""
        return self.knn_query_batch([query], k)[0]

    def knn_query_batch(self, queries: Sequence, k) -> list[list[tuple[int, float]]]:
        """Answer a batch of kNN queries: broadcast, per-shard Algorithm 5, merge-top-k.

        Every shard answers the full batch with the full ``k`` over its
        partition; the host merges the ``K`` per-shard top-k lists and keeps
        the global top-k.  Exact, because any object among the global k
        nearest has fewer than ``k`` objects ahead of it in its own shard.
        """
        self._require_built()
        k_arr = broadcast_query_param(k, len(queries), "k", np.int64)
        if np.any(k_arr <= 0):
            raise QueryError("k must be positive")

        def run(sid: int, shard: GTS):
            answers = shard.knn_query_batch(queries, k_arr)
            shard.device.transfer_to_host(
                sum(len(a) for a in answers) * RESULT_BYTES, label="results-d2h"
            )
            return answers

        qs, ids, dists = self._global_triples(self._shard_round(run), len(queries))
        # Selecting the global top-k from K sorted per-shard lists needs only
        # k pops from a K-element heap per query — the merge never has to
        # consume all K*k gathered candidates.
        self._charge_host(
            len(queries) * self.num_shards
            + float(np.sum(k_arr)) * self._log_shards(),
            "shard-merge-knn",
        )
        return triples_to_answer_lists(qs, ids, dists, len(queries), k=k_arr)

    def execute_batch(self, ops: Sequence[tuple]) -> list:
        """Execute a heterogeneous operation batch in submission order.

        Identical contract to :meth:`GTS.execute_batch` (the serving layer's
        entry point): maximal homogeneous runs of range/kNN queries ride one
        scatter-gather batch each, updates act as barriers, results come back
        in submission order.
        """
        self._require_built()
        return execute_operation_batch(self, ops)

    # -------------------------------------------------------------- updates
    def insert(self, obj) -> int:
        """Insert one object, routed to the shard the policy picks.

        Returns the new *global* id (insertion order, like :meth:`GTS.insert`).
        The object lands in the owning shard's cache table; a cache overflow
        rebuilds that shard alone.
        """
        self._require_built()
        self.metric.validate_objects([obj])
        gid = self._next_id
        sid = self.policy.assign(gid, obj, self._loads)
        # validate before charging: a rejected insert (object larger than the
        # shard's whole cache budget) must stay stats-neutral
        self.shards[sid]._cache.ensure_fits(obj)
        # routing the object to its shard is one host-side table lookup
        self._charge_host(1.0, "shard-route")
        lid = self._single_shard(sid, lambda shard: shard.insert(obj))
        self._owner[gid] = (sid, lid)
        self._shard_to_global[sid].append(gid)
        self._loads[sid] += max(1, objects_nbytes([obj]))
        self._next_id += 1
        return gid

    def delete(self, obj_id: int) -> None:
        """Delete one object by global id, routed to its owning shard.

        Validates before charging any simulated time, like :meth:`GTS.delete`:
        unknown or already-deleted ids raise
        :class:`~repro.exceptions.UpdateError` with no device activity.
        """
        self._require_built()
        gid = int(obj_id)
        if gid in self._deleted:
            raise UpdateError(f"object {gid} has already been deleted")
        owner = self._owner.get(gid)
        if owner is None:
            raise UpdateError(f"unknown object id {gid}")
        sid, lid = owner
        self._charge_host(1.0, "shard-route")
        self._single_shard(sid, lambda shard: shard.delete(lid))
        self._loads[sid] -= max(1, objects_nbytes([self.shards[sid].get_object(lid)]))
        self._deleted.add(gid)

    def update(self, obj_id: int, new_obj) -> int:
        """Modify an object: delete the old version, insert the new one.

        Validated atomically: every shard shares one cache budget, so a
        replacement too large for it is rejected before the old version is
        touched.
        """
        self._require_built()
        self.metric.validate_objects([new_obj])
        self.shards[0]._cache.ensure_fits(new_obj)
        self.delete(obj_id)
        return self.insert(new_obj)

    def batch_update(self, inserts: Sequence = (), deletes: Sequence[int] = ()) -> ShardedBuildReport:
        """Apply a bulk update; only the shards it touches rebuild (in parallel).

        Deletes are validated up front against the global id space (unknown
        and already-deleted ids raise), then grouped per owning shard;
        inserts are assigned global ids and shards exactly as streaming
        inserts would be.  Each affected shard runs :meth:`GTS.batch_update`
        (its full reconstruction), untouched shards do nothing, and the
        reported ``sim_time`` is the makespan of the round.  A call with both
        sequences empty is a free no-op: no round, no host charge, no rebuild
        counters.
        """
        self._require_built()
        inserts = list(inserts)
        # before the routing charge and any load or owner bookkeeping
        self.metric.validate_objects(inserts)
        delete_set = {int(d) for d in deletes}
        if not inserts and not delete_set:
            return ShardedBuildReport(per_shard=[], sim_time=0.0)
        already_deleted = delete_set & self._deleted
        if already_deleted:
            raise UpdateError(
                f"objects have already been deleted: {sorted(already_deleted)}"
            )
        unknown = {d for d in delete_set if d not in self._owner}
        if unknown:
            raise UpdateError(f"cannot delete unknown object ids: {sorted(unknown)}")

        per_shard_deletes: list[list[int]] = [[] for _ in range(self.num_shards)]
        for gid in sorted(delete_set):
            sid, lid = self._owner[gid]
            per_shard_deletes[sid].append(lid)
            self._loads[sid] -= max(1, objects_nbytes([self.shards[sid].get_object(lid)]))

        per_shard_inserts: list[list] = [[] for _ in range(self.num_shards)]
        # GTS assigns local ids consecutively from its current object count
        next_local = [len(shard._objects) for shard in self.shards]
        new_owners: dict[int, tuple[int, int]] = {}
        num_inserts = 0
        for obj in inserts:
            gid = self._next_id
            sid = self.policy.assign(gid, obj, self._loads)
            new_owners[gid] = (sid, next_local[sid])
            next_local[sid] += 1
            per_shard_inserts[sid].append(obj)
            self._loads[sid] += max(1, objects_nbytes([obj]))
            self._next_id += 1
            num_inserts += 1

        self._charge_host(len(delete_set) + num_inserts, "shard-route")

        def run(sid: int, shard: GTS):
            if per_shard_inserts[sid] or per_shard_deletes[sid]:
                return shard.batch_update(per_shard_inserts[sid], per_shard_deletes[sid])
            return None

        results = self._shard_round(run)
        for gid, (sid, lid) in new_owners.items():
            self._owner[gid] = (sid, lid)
            self._shard_to_global[sid].append(gid)
        self._deleted |= delete_set
        rebuilt = [r for r in results if r is not None]
        return ShardedBuildReport(
            per_shard=rebuilt,
            sim_time=max((r.sim_time for r in rebuilt), default=0.0),
        )

    def rebuild(self) -> ShardedBuildReport:
        """Force every shard to rebuild (one parallel round)."""
        self._require_built()
        results = self._shard_round(lambda sid, shard: shard.rebuild())
        return ShardedBuildReport(
            per_shard=list(results),
            sim_time=max(r.sim_time for r in results),
        )

    # ---------------------------------------------------------- maintenance
    def enable_incremental_maintenance(self, config=None) -> None:
        """Enable non-blocking generation-swap rebuilds on every shard.

        Shard-local cache overflows then only mark the owning shard
        maintenance-due; :meth:`run_maintenance_slice` advances the rebuilds
        under a **staggered schedule** — at most one shard is in maintenance
        at a time, so a scatter-gather query batch never waits behind more
        than one shard's slice and the tail latency of the round stays
        bounded (DESIGN.md §9).
        """
        for shard in self.shards:
            shard.enable_incremental_maintenance(config)

    @property
    def maintenance_enabled(self) -> bool:
        """True when the shards run non-blocking generation-swap rebuilds."""
        return any(shard.maintenance_enabled for shard in self.shards)

    @property
    def maintenance_due(self) -> bool:
        """True when a maintenance slice would advance some shard."""
        return any(shard.maintenance_due for shard in self.shards)

    def run_maintenance_slice(self):
        """Advance maintenance on **at most one** shard (staggered schedule).

        A shard with an in-flight generation always goes first — it runs to
        completion over successive calls before any other due shard may
        start its own rebuild, which is what keeps at most one shard in
        maintenance at any time.  The slice's delta is charged to the
        coordinating timeline like any single-shard operation.  Returns the
        shard's :class:`~repro.core.maintenance.SliceReport` or None.
        """
        self._require_built()
        target = None
        for sid, shard in enumerate(self.shards):
            if shard.maintenance is not None and shard.maintenance.in_flight:
                target = sid
                break
        if target is None:
            for sid, shard in enumerate(self.shards):
                if shard.maintenance_due:
                    target = sid
                    break
        if target is None:
            return None
        return self._single_shard(target, lambda shard: shard.run_maintenance_slice())

    # ------------------------------------------------------------ properties
    def get_object(self, obj_id: int):
        """Return the object registered under the *global* ``obj_id``."""
        owner = self._owner.get(int(obj_id))
        if owner is None:
            raise IndexError_(f"unknown object id {int(obj_id)}")
        sid, lid = owner
        return self.shards[sid].get_object(lid)

    def is_live(self, obj_id: int) -> bool:
        """True when the global ``obj_id`` is currently visible to queries."""
        gid = int(obj_id)
        owner = self._owner.get(gid)
        if owner is None or gid in self._deleted:
            return False
        sid, lid = owner
        return self.shards[sid].is_live(lid)

    @property
    def num_objects(self) -> int:
        """Number of live (visible) objects across all shards."""
        return sum(shard.num_objects for shard in self.shards)

    @property
    def num_indexed(self) -> int:
        """Number of objects inside the shard trees (incl. tombstoned slots)."""
        return sum(shard.num_indexed for shard in self.shards)

    @property
    def cache_size(self) -> int:
        """Objects currently buffered across the shard-local cache tables."""
        return sum(shard.cache_size for shard in self.shards)

    @property
    def rebuild_count(self) -> int:
        """Total rebuilds across all shards: ``automatic + forced``."""
        return sum(shard.rebuild_count for shard in self.shards)

    @property
    def automatic_rebuild_count(self) -> int:
        """Cache-overflow (streaming-update) rebuilds across all shards."""
        return sum(shard.automatic_rebuild_count for shard in self.shards)

    @property
    def forced_rebuild_count(self) -> int:
        """Explicit :meth:`rebuild` / :meth:`batch_update` reconstructions
        across all shards."""
        return sum(shard.forced_rebuild_count for shard in self.shards)

    @property
    def shard_sizes(self) -> list[int]:
        """Live object count of each shard (balance diagnostic)."""
        return [shard.num_objects for shard in self.shards]

    @property
    def shard_load_bytes(self) -> list[float]:
        """Payload bytes assigned to each shard (what size-balanced evens out)."""
        return list(self._loads)

    @property
    def tiered(self) -> bool:
        """True when the shards page their object stores (tiered mode)."""
        return self.tier_config is not None

    def pager_stats(self) -> Optional[dict]:
        """Aggregate block-pager counters across the shards (None if resident)."""
        if not self.tiered:
            return None
        totals: dict = {}
        for shard in self.shards:
            for key, value in shard.pager.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        accesses = totals.get("hits", 0) + totals.get("misses", 0)
        totals["hit_rate"] = totals.get("hits", 0) / accesses if accesses else 1.0
        return totals

    @property
    def storage_bytes(self) -> int:
        """Total index storage across the shard trees."""
        return sum(shard.storage_bytes for shard in self.shards)

    @property
    def height(self) -> int:
        """Height of the tallest shard tree."""
        self._require_built()
        return max(shard.height for shard in self.shards)

    def __len__(self) -> int:
        return self.num_objects

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        built = "built" if self._built else "empty"
        return (
            f"ShardedGTS({built}, shards={self.num_shards}, "
            f"objects={self.num_objects}, policy={self.policy.name!r}, "
            f"metric={self.metric.name!r})"
        )
