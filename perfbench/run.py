#!/usr/bin/env python3
"""Two-clock serving benchmark of the GTS reproduction.

Serves one of four generated request streams (see ``workloads.py``) through
the public ``GTSService.serve`` entry point and reports end-to-end metrics on
both of the system's clocks: *simulated* seconds charged by ``repro.gpusim``
(deterministic, so they repeat exactly for a seed) and *host* wall-clock
seconds spent in Python.

    python3 perfbench/run.py --workload tloc-mixed --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the run sets the workload up several times (``setup_s``
is the median), serves the stream on a fresh index, checks a seeded sample
of answers against a brute-force oracle, and serves the same stream again on
fresh indexes until ``--seconds`` of serving have been measured; every
repeat must give the same answers and simulated metrics.  ``host_rps`` is
the median over the serves.

With ``--trace 1`` the run serves the stream once untraced and once with the
layer tracer installed, checks that both give identical answers and
simulated metrics, writes the spans as Chrome trace-event JSON under
``perfbench/out/`` and reports the per-layer metrics.

Metric names and units come from ``BENCHMARK.json`` at the repository root.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero on any
wrong answer, on a run that does not repeat itself, and when the repository
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
#: Set-ups per run before serving: at least ``SETUP_REPEATS`` and until
#: ``SETUP_SECONDS`` have been spent, so short set-ups get more samples.
#: ``setup_s`` is the median of these and of the set-ups of later serves.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: Relative tolerance of the backlog check: the median latency of the last
#: quarter of arrivals may exceed the first quarter's by at most this share.
BACKLOG_TOLERANCE = 0.25


def _load_repro():
    """Import the benchmark modules, which import ``repro`` from ``src/``."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import oracle
    import tracer
    import workloads

    return oracle, tracer, workloads


@dataclass
class Round:
    """One timed ``serve`` of a workload's stream on a fresh index."""

    responses: list
    service: object
    serve_s: float
    #: per-device ExecutionStats over the serve (coordinating device first)
    stats: list
    pairs: int
    rebuilds: int

    @property
    def answers(self) -> list:
        return [response.result for response in self.responses]


def serve_round(setup, tracer_module=None) -> tuple:
    """Serve ``setup``'s stream once; returns ``(Round, Tracer or None)``."""
    service = setup.new_service()
    for device in setup.devices:
        device.reset_stats()
    pairs = setup.metric.pair_count
    rebuilds = setup.index.automatic_rebuild_count
    tracer = None
    gc.collect()
    if tracer_module is None:
        start = time.perf_counter()
        responses = service.serve(setup.requests)
        serve_s = time.perf_counter() - start
    else:
        tracer = tracer_module.Tracer(lambda: setup.metric.pair_count)
        with tracer_module.instrument(tracer, setup.metric, service.policy):
            start = time.perf_counter()
            responses = service.serve(setup.requests)
            serve_s = time.perf_counter() - start
    return (
        Round(
            responses=responses,
            service=service,
            serve_s=serve_s,
            stats=[device.stats.copy() for device in setup.devices],
            pairs=setup.metric.pair_count - pairs,
            rebuilds=setup.index.automatic_rebuild_count - rebuilds,
        ),
        tracer,
    )


def busy_seconds(service) -> float:
    """Simulated seconds the device spent on micro-batches and maintenance."""
    return sum(b.service_time for b in service.batches) + sum(
        m.sim_time for m in service.maintenance_records
    )


def simulated_metrics(rnd: Round) -> dict:
    """The simulated-clock end-to-end metrics of one round (deterministic)."""
    latency_us = np.array([r.latency for r in rnd.responses]) * 1e6
    p50, p90, p99 = np.percentile(latency_us, [50, 90, 99])
    return {
        "sim_capacity_rps": len(rnd.responses) / busy_seconds(rnd.service),
        "sim_p50_us": float(p50),
        "sim_p90_us": float(p90),
        "sim_p99_us": float(p99),
        "gpusim.device_peak_mb": max(s.peak_memory_bytes for s in rnd.stats) / 1e6,
    }


def headroom(rnd: Round) -> dict:
    """Utilisation and backlog growth of one round's stream.

    ``latency_growth`` is the median latency of the last quarter of
    arrivals over that of the first quarter; a growing backlog drives it
    far above 1.
    """
    service = rnd.service
    first = min(r.request.arrival_time for r in rnd.responses)
    last = max(r.completed_at for r in rnd.responses)
    ordered = sorted(rnd.responses, key=lambda r: r.request.arrival_time)
    quarter = max(1, len(ordered) // 4)
    head = np.median([r.latency for r in ordered[:quarter]])
    tail = np.median([r.latency for r in ordered[-quarter:]])
    return {
        "service.utilisation": busy_seconds(service) / (last - first),
        "service.latency_growth": float(tail / head),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def differing(a: Round, b: Round) -> int:
    """Responses whose answers differ between two rounds of one stream."""
    return sum(x != y for x, y in zip(a.answers, b.answers)) + abs(
        len(a.responses) - len(b.responses)
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, modules) -> dict:
    """Run one workload; returns the result record (see module docstring)."""
    oracle, tracer_module, workloads = modules
    workload = workloads.WORKLOADS[name]
    setup_times = []

    def set_up():
        gc.collect()
        setup = workloads.set_up(workload, seed)
        setup_times.append(setup.seconds)
        return setup

    setup = set_up()
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        setup.close()
        setup = set_up()
    first, _ = serve_round(setup)
    # Peak memory of a fixed amount of work (imports, set-ups, one serve):
    # the oracle and the repeats below must not count.
    rss_mb = peak_rss_mb()
    sim = simulated_metrics(first)
    checked, wrong = oracle.check_answers(
        setup.objects,
        workload.indexed,
        setup.metric,
        setup.requests,
        first.responses,
        workload.oracle_sample,
        seed,
    )
    setup.close()
    problems = []
    if wrong:
        problems.append(f"{len(wrong)} of {checked} checked answers differ from the oracle")
    failed = len(wrong)

    def check_repeat(rnd: Round, label: str) -> None:
        """A later serve of the same stream must repeat the first exactly."""
        nonlocal failed
        diff = differing(first, rnd)
        same_sim = simulated_metrics(rnd) == sim
        failed += diff
        if diff or not same_sim:
            problems.append(
                f"{label} serve differs from the first: {diff} answers differ, "
                f"simulated metrics {'equal' if same_sim else 'differ'}"
            )

    # Only counts and times of the repeats are kept, so memory does not grow
    # with the number of repeats a fast host fits into --seconds.
    served = [(len(first.responses), first.serve_s)]
    layers = table = None
    if trace:
        setup = set_up()
        traced, tracer = serve_round(setup, tracer_module)
        setup.close()
        check_repeat(traced, "traced")
        trace_checks(tracer, traced, problems)
        layers = tracer_module.layer_metrics(tracer, traced, first)
        table = tracer_module.layer_table(tracer)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.json")
        attempted = len(first.responses) + len(traced.responses)
    else:
        while sum(serve_s for _, serve_s in served) < seconds:
            setup = set_up()
            rnd, _ = serve_round(setup)
            setup.close()
            check_repeat(rnd, "repeated")
            served.append((len(rnd.responses), rnd.serve_s))
        attempted = sum(count for count, _ in served)

    limit_s = workload.latency_limit_us * 1e-6
    misses = sum(
        r.latency > limit_s or r.request.request_id in wrong for r in first.responses
    )
    values = dict(sim)
    values.update(
        setup_s=statistics.median(setup_times),
        host_rps=statistics.median(count / serve_s for count, serve_s in served),
        host_peak_rss_mb=rss_mb,
        slo_miss_rate=misses / len(first.responses),
        error_rate=failed / attempted,
    )
    values.update(headroom(first))
    warnings = []
    if (
        values["service.utilisation"] >= 1
        or values["service.latency_growth"] > 1 + BACKLOG_TOLERANCE
    ):
        warnings.append(
            "the offered rate leaves no headroom: utilisation "
            f"{values['service.utilisation']:.3f}, latency growth "
            f"{values['service.latency_growth']:.3f} from the first to the last quarter"
        )
    if layers is not None:
        values.update(layers)
    return {
        "workload": name,
        "requests": len(first.responses),
        "serves": len(served) + (1 if trace else 0),
        "checked": checked,
        "problems": problems,
        "warnings": warnings,
        "layer_table": table,
        "attempted": attempted,
        "failed": failed,
        "values": values,
    }


def trace_checks(tracer, rnd: Round, problems: list) -> None:
    """Check that spans nest, link to micro-batches and cover ``serve``."""
    batch_spans = [s.batch_id for s in tracer.spans if s.name.endswith(".execute_batch")]
    if batch_spans != [b.batch_id for b in rnd.service.batches]:
        problems.append("trace micro-batch ids do not match the service's batches")
    roots = [s for s in tracer.spans if s.parent == -1]
    if [s.name for s in roots] != ["service.serve"]:
        problems.append(f"trace has {len(roots)} root spans, expected one service.serve")
    accounted = sum(s.self_s for s in tracer.spans)
    if roots and abs(accounted - roots[0].duration) > 1e-6 * max(1.0, roots[0].duration):
        problems.append("layer self times do not add up to the traced serve")


def print_record(record: dict, spec: dict, trace: bool) -> None:
    """Print one workload's metrics by name with their units."""
    values = record["values"]
    print(
        f"== {record['workload']}: {record['requests']} requests, "
        f"{record['serves']} serves, {record['checked']} answers checked"
    )
    rows = [(entry["name"], entry["unit"]) for entry in spec["end_to_end"]]
    rows += [("slo_miss_rate", "share"), ("error_rate", "share"), ("gpusim.device_peak_mb", "MB")]
    rows += [("service.utilisation", "share"), ("service.latency_growth", "ratio")]
    if trace:
        print(record["layer_table"])
        rows = [(entry["name"], entry["unit"]) for entry in spec["per_layer"]]
    for name, unit in rows:
        print(f"  {name:<34} {values[name]:>16.6f} {unit}")
    for line in record["warnings"]:
        print(f"  warning: {line}")
    for line in record["problems"]:
        print(f"  FAILED: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name or 'all'")
    parser.add_argument("--seed", type=int, default=1, help="request-stream seed")
    parser.add_argument("--seconds", type=float, default=12.0, help="serving seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        modules = _load_repro()
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot load the benchmark: {exc}", file=sys.stderr)
        return 2
    workloads = modules[2].WORKLOADS
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(name not in workloads for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose {sorted(workloads)} or 'all'")

    section = spec["per_layer" if args.trace else "end_to_end"]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), modules)
        print_record(record, spec, bool(args.trace))
        records.append(record)
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "/"
        for entry in section:
            value = float(record["values"][entry["name"]])
            metrics[prefix + entry["name"]] = {"value": value, "unit": entry["unit"]}
    correct = not any(record["problems"] for record in records)
    result = {
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
