"""Pinned absolute accounting of the query engine.

The other engine tests compare two strategies of the current code, or
answers against brute force, so a refactor that shifts a charge, drops a
kernel or reorders a float sum in both strategies at once passes them.  This
test replays one fixed stream and asserts the exact values recorded in
``pinned_accounting.json`` before the MRQ and MkNNQ descents were merged into
one: the answer ids, ``metric.counter.pairs`` and every ``ExecutionStats``
field except host time, with floats compared bit for bit via ``float.hex``.

The stream is a range batch with per-query radii, a kNN batch with per-query
``k`` (one ``k`` larger than the index), inserts that overflow a small cache,
deletes and a mixed ``execute_batch``.  It runs on T-Loc (2-d L2) and Words
(edit distance, whose integer distances keep every pruning decision
platform-stable) over the resident, tiered (cap 0.25), 2-shard and
maintenance-enabled configurations.

A change that alters the accounting on purpose reports the difference and
updates the JSON file; ``PYTHONPATH=src python tests/test_pinned_accounting.py``
prints the current values in its format.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import GTS
from repro.core import MaintenanceConfig
from repro.core.construction import objects_nbytes
from repro.datasets import generate_tloc, generate_words
from repro.shard import ShardedGTS
from repro.tier import TierConfig

PINNED_PATH = Path(__file__).with_name("pinned_accounting.json")
CONFIGS = ("resident", "tiered", "sharded", "maintenance")
DATASETS = ("tloc", "words")

#: per-dataset range radii, one per query (0 and a wide radius included)
RADII = {
    "tloc": [0.0, 0.5, 1.5, 4.0, 12.0, 40.0],
    "words": [0.0, 1.0, 2.0, 3.0, 4.0, 6.0],
}
#: per-query k; 1000 exceeds every index of the stream
KS = [1, 3, 8, 1, 1000, 5]
#: a tiny cache: a handful of inserts overflow it
CACHE_BYTES = 48


def _dataset(name):
    if name == "tloc":
        return generate_tloc(cardinality=300, seed=102)
    return generate_words(cardinality=240, seed=101)


def _build(config, dataset):
    objects, metric = dataset.objects, dataset.metric
    kwargs = dict(node_capacity=6, cache_capacity_bytes=CACHE_BYTES, seed=4)
    if config == "tiered":
        budget = max(1024, objects_nbytes(objects) // 4)
        tier = TierConfig(memory_budget_bytes=budget, block_bytes=256)
        return GTS.build(objects, metric, tier=tier, **kwargs)
    if config == "sharded":
        return ShardedGTS.build(objects, metric, num_shards=2, **kwargs)
    index = GTS.build(objects, metric, **kwargs)
    if config == "maintenance":
        index.enable_incremental_maintenance(
            MaintenanceConfig(levels_per_slice=1, hard_overflow_factor=None)
        )
    return index


def _hex(value):
    return float(value).hex()


def _stats_record(stats) -> dict:
    """Every ``ExecutionStats`` field except host time, floats as hex."""
    record = {}
    for name, value in stats.as_dict().items():
        if name == "host_time":
            continue
        if isinstance(value, dict):
            value = {
                key: _hex(v) if isinstance(v, float) else v for key, v in sorted(value.items())
            }
        elif isinstance(value, float):
            value = _hex(value)
        record[name] = value
    return record


def _answer_ids(answers) -> str:
    """Digest of the answer ids, in answer order."""
    ids = [[oid for oid, _ in answer] if isinstance(answer, list) else answer for answer in answers]
    return hashlib.sha256(json.dumps(ids).encode()).hexdigest()[:20]


def replay(config: str, dataset_name: str) -> dict:
    """Run the pinned stream; returns the values the test compares."""
    dataset = _dataset(dataset_name)
    metric = dataset.metric
    index = _build(config, dataset)
    queries = dataset.sample_queries(6, seed=5)
    extra = dataset.sample_queries(10, seed=9)
    steps = {}

    def step(name, answers):
        steps[name] = {
            "answers": _answer_ids(answers),
            "pairs": int(metric.counter.pairs),
            "sim_time": _hex(index.device.stats.sim_time),
            "rebuilds": index.rebuild_count,
        }

    step("range", index.range_query_batch(queries, RADII[dataset_name]))
    step("knn", index.knn_query_batch(queries, KS))
    inserted = [index.insert(obj) for obj in extra[:8]]
    for obj_id in (0, 7, 42, inserted[-1]):
        index.delete(obj_id)
    if index.maintenance_enabled:
        index.run_maintenance_slice()
    step("updates", inserted)
    mixed = [
        ("range", queries[0], RADII[dataset_name][3]),
        ("knn", queries[1], 4),
        ("knn", queries[2], KS[4]),
        ("insert", extra[8]),
        ("range", queries[3], RADII[dataset_name][4]),
        ("range", queries[4], RADII[dataset_name][2]),
        ("delete", inserted[0]),
        ("knn", queries[5], 2),
        ("insert", extra[9]),
        ("range", queries[1], RADII[dataset_name][5]),
    ]
    step("mixed", index.execute_batch(mixed))
    devices = [index.device] + [shard.device for shard in getattr(index, "shards", [])]
    return {"steps": steps, "devices": [_stats_record(device.stats) for device in devices]}


def _pinned() -> dict:
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("dataset_name", DATASETS)
@pytest.mark.parametrize("config", CONFIGS)
def test_engine_accounting_is_pinned(config, dataset_name):
    pinned = _pinned()[f"{dataset_name}/{config}"]
    got = replay(config, dataset_name)
    for name, expected in pinned["steps"].items():
        assert got["steps"][name] == expected, name
    assert got["devices"] == pinned["devices"]


if __name__ == "__main__":
    print(json.dumps(
        {f"{d}/{c}": replay(c, d) for d in DATASETS for c in CONFIGS},
        indent=1,
        sort_keys=True,
    ))
