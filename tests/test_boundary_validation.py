"""Malformed objects are rejected at the boundary, stats-neutrally.

A NaN coordinate breaks every Lemma 5.1 / 5.2 comparison it reaches, so the
index rejects non-finite vectors with the metric's own validator
(``Metric.validate_objects``) on every entry path — queries, ``bulk_load``,
``insert``, ``update`` and ``batch_update`` — before any simulated charge,
state change or id allocation.  Each case checks the typed error, that every
``ExecutionStats`` field except host time is unchanged, that the next
inserted object still receives the next id, and that the index still
answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GTS, EuclideanDistance
from repro.exceptions import MetricError
from repro.shard import ShardedGTS

N = 200
DIM = 8


def _points():
    return np.random.default_rng(7).normal(size=(N, DIM))


def _nan_vector():
    vec = np.zeros(DIM)
    vec[3] = np.nan
    return vec


def _build(config):
    kwargs = dict(node_capacity=8, seed=3)
    if config == "sharded":
        return ShardedGTS.build(_points(), EuclideanDistance(), num_shards=2, **kwargs)
    return GTS.build(_points(), EuclideanDistance(), **kwargs)


def _devices(index):
    return [index.device] + [shard.device for shard in getattr(index, "shards", [])]


def _stats(index):
    records = []
    for device in _devices(index):
        record = device.stats.as_dict()
        record.pop("host_time")
        records.append(record)
    return records


def _poisoned_points():
    points = _points()
    points[17, 2] = np.nan
    return points


REJECTED = {
    "knn_query": lambda index: index.knn_query(_nan_vector(), 3),
    "range_query": lambda index: index.range_query(_nan_vector(), 1.0),
    "knn_query_batch": lambda index: index.knn_query_batch([np.zeros(DIM), _nan_vector()], 3),
    "execute_batch": lambda index: index.execute_batch([("range", _nan_vector(), 1.0)]),
    "insert": lambda index: index.insert(_nan_vector()),
    "insert_inf": lambda index: index.insert(np.full(DIM, np.inf)),
    "update": lambda index: index.update(5, _nan_vector()),
    "batch_update": lambda index: index.batch_update(
        inserts=[np.ones(DIM), _nan_vector()], deletes=[3]
    ),
    "bulk_load": lambda index: index.bulk_load(_poisoned_points()),
}


@pytest.mark.parametrize("operation", sorted(REJECTED))
@pytest.mark.parametrize("config", ["gts", "sharded"])
def test_non_finite_object_is_rejected_stats_neutrally(config, operation):
    index = _build(config)
    probe = np.full(DIM, 0.25)
    answer_before = index.knn_query(probe, 5)
    before = _stats(index)
    pairs_before = index.metric.counter.pairs

    with pytest.raises(MetricError, match="finite"):
        REJECTED[operation](index)

    assert _stats(index) == before
    assert index.metric.counter.pairs == pairs_before
    assert index.num_objects == N
    assert index.is_live(3) and index.is_live(5)
    assert index.knn_query(probe, 5) == answer_before
    assert index.insert(np.ones(DIM)) == N


@pytest.mark.parametrize("config", ["gts", "sharded"])
def test_bulk_load_of_a_nan_row_is_rejected_before_any_charge(config):
    if config == "sharded":
        index = ShardedGTS(EuclideanDistance(), num_shards=2)
    else:
        index = GTS(EuclideanDistance())
    before = _stats(index)
    with pytest.raises(MetricError, match="finite"):
        index.bulk_load(_poisoned_points())
    assert _stats(index) == before
    assert all(record["kernel_launches"] == 0 for record in before)
    assert index.metric.counter.pairs == 0
