"""Host wall-clock trajectory of the batch query engine (DESIGN.md §8).

Unlike every other benchmark in this harness — which reports **simulated
device seconds** — this one measures the *host* wall-clock of the batch
MRQ/MkNNQ engine, i.e. how fast the reproduction itself runs.  Four
paper-style workloads are timed on the current columnar/fused-segmented
engine and on the preserved pre-refactor reference implementation
(:mod:`benchmarks.legacy_reference`: list store, per-query ``pairwise``
calls, per-hit dict inserts, ``sorted()`` k-th bounds, and a per-pair NumPy
dynamic program for edit distance):

* **vector-300d-angular** — 300-d word-embedding stand-in, angular
  distance, a 512-query batch (the paper's largest batch size);
* **tloc-2d-l2** — 2-d T-Loc stand-in, L2 norm, same batch shape;
* **words-edit** — Words stand-in (length 2-34), edit distance through the
  bit-parallel lane kernel, a 32-query batch;
* **dna-edit** — DNA stand-in (length ~108, two 64-bit pattern words),
  edit distance, a 16-query batch.  The string batches are smaller only
  because the per-pair reference DP needs ~0.2 ms (Words) to ~1 ms (DNA)
  per pair.

The refactor is a host-only change, so besides the speedup the benchmark
asserts the invariants that make it safe: byte-identical MRQ/MkNNQ answers
and identical simulated seconds / kernel launches on both engines.

Reported per workload and phase (build / mrq / mknn / total): host seconds
for both engines, the speedup, and the (shared) simulated seconds.  The rows
land in ``BENCH_smoke.json`` via ``make bench-smoke``, giving every later
perf PR a machine-readable wall-clock baseline.
"""

from __future__ import annotations

import copy
import time

from repro import GTS
from repro.datasets import generate_dna, generate_tloc, generate_vector, generate_words
from repro.evalsuite.reporting import ExperimentResult
from repro.evalsuite.workloads import make_workload
from repro.gpusim import Device, DeviceSpec

from .conftest import BENCH_SCALE, attach, run_once
from .legacy_reference import legacy_engine

#: Host-seconds speedup floors asserted per workload (total = build+mrq+mknn).
#: The acceptance target for the columnar refactor is >= 3x on the 300-d
#: vector workload; the 2-d workload asserts a softer floor against CI
#: jitter.  The edit-distance lanes measure far above their 5x floor, which
#: is set low so that a shared machine cannot make it flake.
SPEEDUP_FLOORS = {
    "vector-300d-angular": 3.0,
    "tloc-2d-l2": 2.0,
    "words-edit": 5.0,
    "dna-edit": 5.0,
}

#: Paper Table 3's largest query batch.
BATCH_SIZE = 512


def _workloads(scale: float):
    """``(name, dataset, query batch size)`` per workload."""
    vector = generate_vector(cardinality=max(500, int(20_000 * scale)))
    yield "vector-300d-angular", vector, BATCH_SIZE
    yield "tloc-2d-l2", generate_tloc(cardinality=max(1000, int(40_000 * scale))), BATCH_SIZE
    yield "words-edit", generate_words(cardinality=max(500, int(2000 * scale))), 32
    yield "dna-edit", generate_dna(cardinality=max(200, int(600 * scale))), 16


def _measure(dataset, queries, radius, k):
    """Build + batch MRQ + batch MkNNQ with per-phase host/sim seconds."""
    metric = copy.deepcopy(dataset.metric)
    device = Device(DeviceSpec())
    phases = {}

    t0 = time.perf_counter()
    index = GTS.build(dataset.objects, metric, node_capacity=20, device=device, seed=23)
    phases["build"] = {"host": time.perf_counter() - t0, "sim": device.stats.sim_time,
                       "kernels": device.stats.kernel_launches}

    s0, k0 = device.stats.sim_time, device.stats.kernel_launches
    t0 = time.perf_counter()
    mrq = index.range_query_batch(queries, radius)
    phases["mrq"] = {"host": time.perf_counter() - t0, "sim": device.stats.sim_time - s0,
                     "kernels": device.stats.kernel_launches - k0}

    s0, k0 = device.stats.sim_time, device.stats.kernel_launches
    t0 = time.perf_counter()
    knn = index.knn_query_batch(queries, k)
    phases["mknn"] = {"host": time.perf_counter() - t0, "sim": device.stats.sim_time - s0,
                      "kernels": device.stats.kernel_launches - k0}

    index.close()
    return phases, (mrq, knn)


def experiment_host_wallclock(scale: float = BENCH_SCALE) -> ExperimentResult:
    """Measure the fast engine against the pre-refactor reference."""
    result = ExperimentResult(
        experiment="host-wallclock",
        title="Host wall-clock: columnar + fused segmented kernels vs pre-refactor",
        notes=(
            "host seconds of the reproduction itself (not simulated device time); "
            "sim seconds and answers are asserted identical across both engines"
        ),
    )
    for name, dataset, batch_size in _workloads(scale):
        workload = make_workload(dataset, num_queries=batch_size, seed=41)
        fast_phases, fast_answers = _measure(dataset, workload.queries, workload.radius, workload.k)
        with legacy_engine():
            legacy_phases, legacy_answers = _measure(
                dataset, workload.queries, workload.radius, workload.k
            )
        identical = fast_answers == legacy_answers and all(
            fast_phases[p]["sim"] == legacy_phases[p]["sim"]
            and fast_phases[p]["kernels"] == legacy_phases[p]["kernels"]
            for p in fast_phases
        )
        for phase in ("build", "mrq", "mknn"):
            result.add_row(
                workload=name,
                phase=phase,
                status="ok",
                host_seconds=fast_phases[phase]["host"],
                legacy_host_seconds=legacy_phases[phase]["host"],
                speedup=legacy_phases[phase]["host"] / max(fast_phases[phase]["host"], 1e-9),
                sim_seconds=fast_phases[phase]["sim"],
                identical=identical,
            )
        total_fast = sum(fast_phases[p]["host"] for p in fast_phases)
        total_legacy = sum(legacy_phases[p]["host"] for p in fast_phases)
        result.add_row(
            workload=name,
            phase="total",
            status="ok",
            host_seconds=total_fast,
            legacy_host_seconds=total_legacy,
            speedup=total_legacy / max(total_fast, 1e-9),
            sim_seconds=sum(fast_phases[p]["sim"] for p in fast_phases),
            identical=identical,
        )
    return result


def test_host_wallclock(benchmark):
    result = run_once(benchmark, experiment_host_wallclock, scale=BENCH_SCALE)
    attach(benchmark, result)

    totals = {row["workload"]: row for row in result.filter(phase="total")}
    assert set(totals) == set(SPEEDUP_FLOORS)

    # the refactor is host-only: same answers, same simulated execution
    assert all(row["identical"] for row in result.rows)

    # wall-clock assertions are calibrated for the default REPRO_BENCH_SCALE;
    # tiny scales shrink the batch work the old engine chokes on into
    # millisecond phases where scheduler jitter dominates, so only enforce
    # them at >= 0.5
    if BENCH_SCALE >= 0.5:
        # query phases must never be slower than the pre-refactor engine
        for row in result.filter(phase="mrq") + result.filter(phase="mknn"):
            assert row["speedup"] > 1.0, (row["workload"], row["phase"], row["speedup"])
        # the headline acceptance target
        for name, floor in SPEEDUP_FLOORS.items():
            assert totals[name]["speedup"] >= floor, (
                f"{name}: host speedup {totals[name]['speedup']:.2f}x below {floor}x"
            )
