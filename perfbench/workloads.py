"""The four request streams of the serving benchmark and how each is set up.

Every workload is a fixed dataset (generated from ``DATASET_SEED``, so the
indexed corpus is the same on every run) plus an open-loop request stream
generated by :func:`repro.service.generate_workload` from the run's
``--seed``.  Arrival times are simulated seconds fixed before serving starts,
so a slow host can never make the generator run late: the stream is the
same whatever the host does, and every simulated metric is a pure function
of the seed.

Why these four (the layers each one stresses):

``vector-knn``
    300-d angular kNN with uniform keys.  Leaf verification is nearly dense,
    so the metric kernel and the segmented row gather dominate host time; a
    homogeneous stream never fragments ``execute_batch`` and, with no
    updates, the cache table and maintenance sit idle.
``tloc-mixed``
    2-d L2 with a 40/40/10/10 range/kNN/insert/delete mix and Zipf hot keys.
    Orchestration (level descent, ``prune_children``, per-kind engine calls)
    dominates; the 5 KB cache never overflows.
``tloc-update-heavy``
    Half the stream inserts into a 512 B cache on two round-robin shards with
    generation-swap maintenance: the write path (cache scans, maintenance
    slices, construction, shard routing) beside the read path.
``words-range``
    Edit-distance range queries only: the per-pair string fallback in the
    metrics layer is almost all of the host time.  No kNN and one query kind,
    so it is the "no change" control for kNN work and for query coalescing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.core.gts import DEFAULT_CACHE_BYTES, GTS
from repro.core.maintenance import MaintenanceConfig
from repro.datasets import get_dataset
from repro.evalsuite.workloads import radius_for_selectivity
from repro.gpusim.device import Device
from repro.gpusim.specs import DeviceSpec
from repro.service import (
    DELETE,
    INSERT,
    KNN,
    RANGE,
    GreedyBatchPolicy,
    GTSService,
    MaintenanceHook,
    WorkloadSpec,
    generate_workload,
)
from repro.shard import ShardedGTS

#: Seed of every workload's dataset; only the request stream follows ``--seed``.
DATASET_SEED = 1
#: Seed of the index construction (root pivot choice).
INDEX_SEED = 17
#: Simulated clients per stream.  They are independent Poisson processes
#: merged into one arrival-ordered stream, not threads.
NUM_CLIENTS = 8
#: Greedy micro-batching: cut at 64 requests or after 200 simulated µs.
MAX_BATCH = 64
MAX_WAIT_S = 200e-6
#: k of every kNN request.
K = 10
#: Queries served straight through ``execute_batch`` during set-up, so lazy
#: host caches (row norms) fill before timing.  They query the first indexed
#: objects, so the warm-up costs the same whatever the stream seed.
WARMUP_QUERIES = 16


@dataclass(frozen=True)
class WorkloadDef:
    """Static description of one benchmark workload."""

    name: str
    dataset: str
    #: objects the index is built over
    indexed: int
    #: objects held out as the insert pool (0 for query-only streams)
    holdout: int
    mix: dict
    #: offered load of the whole stream, requests per simulated second
    offered_rps: float
    #: requests in one stream
    requests: int
    #: latency limit of ``slo_miss_rate``, simulated microseconds
    latency_limit_us: float
    #: query sample checked against the brute-force oracle per run
    oracle_sample: int
    #: range radius as a selectivity of the indexed set (None: no range)
    selectivity: Optional[float] = None
    zipf_theta: Optional[float] = None
    cache_bytes: int = DEFAULT_CACHE_BYTES
    node_capacity: int = 20
    shards: int = 1
    maintenance: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        WorkloadDef(
            name="vector-knn",
            dataset="vector",
            indexed=6000,
            holdout=0,
            mix={KNN: 1.0},
            offered_rps=320_000.0,
            requests=1000,
            latency_limit_us=600.0,
            oracle_sample=40,
        ),
        WorkloadDef(
            name="tloc-mixed",
            dataset="tloc",
            indexed=15000,
            holdout=1000,
            mix={RANGE: 0.4, KNN: 0.4, INSERT: 0.1, DELETE: 0.1},
            offered_rps=400_000.0,
            requests=4800,
            latency_limit_us=500.0,
            oracle_sample=120,
            selectivity=0.001,
            zipf_theta=1.3,
        ),
        WorkloadDef(
            name="tloc-update-heavy",
            dataset="tloc",
            indexed=15000,
            holdout=2000,
            mix={RANGE: 0.2, KNN: 0.2, INSERT: 0.5, DELETE: 0.1},
            offered_rps=400_000.0,
            requests=3000,
            latency_limit_us=500.0,
            oracle_sample=120,
            selectivity=0.001,
            zipf_theta=1.3,
            cache_bytes=512,
            node_capacity=8,
            shards=2,
            maintenance=True,
        ),
        WorkloadDef(
            name="words-range",
            dataset="words",
            indexed=1200,
            holdout=0,
            mix={RANGE: 1.0},
            offered_rps=250_000.0,
            # about 40 ms of host time per request: a few hundred per serve
            requests=250,
            latency_limit_us=400.0,
            oracle_sample=8,
            selectivity=0.001,
        ),
    )
}


@dataclass
class Setup:
    """One ready-to-serve instance of a workload: data, stream and index."""

    workload: WorkloadDef
    objects: object
    metric: object
    requests: list
    index: object
    #: simulated devices of the index, the coordinating device first
    devices: list
    #: host seconds this set-up took (generation + build + warm-up)
    seconds: float

    def new_service(self) -> GTSService:
        """A fresh service (batch ids from 1) over this set-up's index."""
        hook = None
        if self.workload.maintenance:
            # Slice after nearly every micro-batch and keep the hard overflow
            # valve off, so every rebuild completes inside service slices.
            hook = MaintenanceHook(
                defer_queue_threshold=4 * MAX_BATCH,
                max_deferrals=2,
                config=MaintenanceConfig(levels_per_slice=1, hard_overflow_factor=None),
            )
        policy = GreedyBatchPolicy(max_batch_size=MAX_BATCH, max_wait=MAX_WAIT_S)
        return GTSService(self.index, policy=policy, maintenance=hook)

    def close(self) -> None:
        self.index.close()


def stream_spec(workload: WorkloadDef, seed: int, radius: float) -> WorkloadSpec:
    """The generator spec of ``workload``'s stream under ``seed``."""
    return WorkloadSpec(
        num_clients=NUM_CLIENTS,
        rate_per_client=workload.offered_rps / NUM_CLIENTS,
        # long enough that the Poisson count almost surely exceeds the
        # stream size; make_stream keeps the first ``requests`` arrivals
        duration=1.5 * workload.requests / workload.offered_rps,
        mix=dict(workload.mix),
        radius=radius,
        k=K,
        zipf_theta=workload.zipf_theta,
        seed=seed,
    )


def make_stream(workload: WorkloadDef, seed: int) -> tuple:
    """Generate the dataset and ``seed``'s request stream.

    Returns ``(objects, metric, radius, requests)``:
    ``objects[:workload.indexed]`` is what the index is built over and the
    rest is the insert pool; ``radius`` is the range requests' radius.
    """
    dataset = get_dataset(
        workload.dataset, cardinality=workload.indexed + workload.holdout, seed=DATASET_SEED
    )
    objects, metric = dataset.objects, dataset.metric
    radius = 1.0
    if workload.selectivity is not None:
        radius = radius_for_selectivity(objects[: workload.indexed], metric, workload.selectivity)
    requests = generate_workload(objects, workload.indexed, stream_spec(workload, seed, radius))
    # A prefix of a generated stream is itself valid: deletes only name ids
    # inserted earlier.  A fixed count keeps every seed's stream equally long.
    return objects, metric, radius, requests.requests[: workload.requests]


def set_up(workload: WorkloadDef, seed: int) -> Setup:
    """Generate the dataset and stream, build the index and warm it up."""
    start = time.perf_counter()
    objects, metric, radius, requests = make_stream(workload, seed)
    indexed = objects[: workload.indexed]
    if workload.shards > 1:
        index = ShardedGTS.build(
            indexed,
            metric,
            num_shards=workload.shards,
            assignment="round-robin",
            node_capacity=workload.node_capacity,
            cache_capacity_bytes=workload.cache_bytes,
            seed=INDEX_SEED,
        )
        devices = [index.device] + [shard.device for shard in index.shards]
    else:
        index = GTS.build(
            indexed,
            metric,
            node_capacity=workload.node_capacity,
            device=Device(DeviceSpec()),
            cache_capacity_bytes=workload.cache_bytes,
            seed=INDEX_SEED,
        )
        devices = [index.device]

    kinds = [kind for kind in (RANGE, KNN) if workload.mix.get(kind)]
    warmup = [
        (RANGE, indexed[i], radius) if kinds[i % len(kinds)] == RANGE else (KNN, indexed[i], K)
        for i in range(WARMUP_QUERIES)
    ]
    index.execute_batch(warmup)
    return Setup(
        workload=workload,
        objects=objects,
        metric=metric,
        requests=requests,
        index=index,
        seconds=time.perf_counter() - start,
        devices=devices,
    )
