"""Differential test of the merged result path against brute force.

Every range and kNN answer must equal a brute-force evaluation over the
visible set ``(indexed \\ tombstones) ∪ cache`` (DESIGN.md §9), on the
resident, tiered (cap 0.25), 2-shard and maintenance-enabled indexes.  The
data sits on a small integer grid, so duplicate points, ties at the radius
and ties at the k-th distance are common, and every distance is exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GTS, EuclideanDistance
from repro.core import MaintenanceConfig
from repro.core.construction import objects_nbytes
from repro.shard import ShardedGTS
from repro.tier import TierConfig

CONFIGS = ("resident", "tiered", "sharded", "maintenance")
RADII = [0.0, 1.0, np.sqrt(2.0), 2.0, np.sqrt(5.0), np.inf]
KS = [1, 3, 7, 500]


def _build(config, points):
    metric = EuclideanDistance()
    kwargs = dict(node_capacity=8, cache_capacity_bytes=4096, seed=3)
    if config == "tiered":
        budget = max(2048, objects_nbytes(points) // 4)
        tier = TierConfig(memory_budget_bytes=budget, block_bytes=512)
        return GTS.build(points, metric, tier=tier, **kwargs)
    if config == "sharded":
        return ShardedGTS.build(points, metric, num_shards=2, **kwargs)
    if config == "maintenance":
        # a small cache overflows on the first inserts and starts a rebuild
        # that stays in flight while the queries run
        index = GTS.build(points, metric, **dict(kwargs, cache_capacity_bytes=128))
        index.enable_incremental_maintenance(
            MaintenanceConfig(levels_per_slice=1, hard_overflow_factor=None)
        )
        return index
    return GTS.build(points, metric, **kwargs)


def _brute_force(live: dict, query) -> list[tuple[int, float]]:
    """Every visible ``(id, distance)``, sorted by ``(distance, id)``."""
    ids = sorted(live)
    dists = EuclideanDistance().pairwise(query, [live[i] for i in ids])
    return sorted(zip(ids, dists.tolist()), key=lambda pair: (pair[1], pair[0]))


def _check_answers(index, live: dict, queries) -> None:
    expected = [_brute_force(live, q) for q in queries]
    for radius in RADII:
        got = index.range_query_batch(queries, radius)
        for answer, truth in zip(got, expected):
            assert answer == [pair for pair in truth if pair[1] <= radius]
    truth_dist = [dict(truth) for truth in expected]
    for k in KS:
        got = index.knn_query_batch(queries, k)
        for answer, truth, dist_of in zip(got, expected, truth_dist):
            # the true k smallest distances; ties at the k-th distance may
            # be completed by any of the tied objects
            assert [d for _, d in answer] == [d for _, d in truth[:k]]
            assert all(dist_of[oid] == d for oid, d in answer)
            assert len({oid for oid, _ in answer}) == len(answer)
            assert answer == sorted(answer, key=lambda pair: (pair[1], pair[0]))


@pytest.mark.parametrize("config", CONFIGS)
def test_answers_equal_brute_force_over_visible_set(config):
    rng = np.random.default_rng(11)
    points = rng.integers(0, 6, size=(120, 2)).astype(np.float64)
    index = _build(config, points)
    live = {i: points[i] for i in range(len(points))}
    queries = [points[i] for i in range(0, 120, 10)] + [np.array([2.5, 2.5])]

    # cache: fresh grid points plus exact duplicates of indexed points
    cached = []
    fresh = list(rng.integers(0, 6, size=(12, 2)).astype(np.float64))
    for obj in fresh + [points[0], points[5]]:
        cached.append(index.insert(obj))
        live[cached[-1]] = obj
    if config == "maintenance":
        assert index.maintenance_due
        index.run_maintenance_slice()
        assert index.maintenance.in_flight
    # tombstones in the tree, and deletes that drop cached objects
    for oid in [int(i) for i in rng.choice(120, size=15, replace=False)] + cached[:2]:
        index.delete(oid)
        del live[oid]
    assert index.cache_size > 0
    _check_answers(index, live, queries)

    # every indexed object deleted: only the cache is left
    for oid in [oid for oid in live if oid < len(points)]:
        index.delete(oid)
        del live[oid]
    assert index.num_objects == len(live) == index.cache_size
    _check_answers(index, live, queries)
    index.close()
