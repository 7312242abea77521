"""Self-tests of the serving benchmark.

Run them by naming the file (the repository's test suite does not collect
it):

    python3 -m pytest -q perfbench/selftest.py

They check that a seed reproduces every simulated metric bit for bit across
processes, that another seed changes the request stream, that each stream
leaves headroom at the default seed, that the oracle catches a wrong answer
and that tracing leaves nothing patched behind.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
SEED = 1


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def stream_digest(name: str, seed: int) -> str:
    """Digest of a workload's request stream (kinds, times, payloads)."""
    _, _, _, requests = workloads.make_stream(workloads.WORKLOADS[name], seed)
    return _digest(
        [(r.kind, r.arrival_time, repr(r.payload), r.radius, r.k) for r in requests]
    )


def simulate(name: str, seed: int) -> dict:
    """Serve one workload's stream once; its simulated outcome as plain data."""
    setup = workloads.set_up(workloads.WORKLOADS[name], seed)
    rnd, _ = run.serve_round(setup)
    setup.close()
    return {
        "simulated": run.simulated_metrics(rnd),
        "headroom": run.headroom(rnd),
        "answers": _digest(rnd.answers),
        "stream": stream_digest(name, seed),
    }


@functools.cache
def simulate_in_subprocess(name: str, seed: int, attempt: int) -> dict:
    """:func:`simulate` in a fresh interpreter (own hash seed)."""
    code = f"import json, selftest; print(json.dumps(selftest.simulate({name!r}, {seed})))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=HERE,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_reproduces_simulated_metrics(name):
    first = simulate_in_subprocess(name, SEED, 0)
    second = simulate_in_subprocess(name, SEED, 1)
    assert first["simulated"] == second["simulated"]
    assert first["answers"] == second["answers"]
    assert first["stream"] == second["stream"]


@pytest.mark.parametrize("name", NAMES)
def test_different_seed_changes_stream(name):
    assert stream_digest(name, SEED) != stream_digest(name, SEED + 1)


@pytest.mark.parametrize("name", NAMES)
def test_stream_leaves_headroom(name):
    room = simulate_in_subprocess(name, SEED, 0)["headroom"]
    assert room["service.utilisation"] < 1
    assert room["service.latency_growth"] <= 1 + run.BACKLOG_TOLERANCE


def _short_setup(name: str, requests: int):
    workload = dataclasses.replace(workloads.WORKLOADS[name], requests=requests)
    return workload, workloads.set_up(workload, SEED)


def _short_round(name: str, requests: int = 300):
    workload, setup = _short_setup(name, requests)
    rnd, _ = run.serve_round(setup)
    setup.close()
    return workload, setup, rnd


def test_oracle_flags_a_wrong_answer():
    workload, setup, rnd = _short_round("tloc-mixed")
    args = (setup.objects, workload.indexed, setup.metric, setup.requests)
    queries = len([r for r in setup.requests if r.kind in ("range", "knn")])
    assert oracle.check_answers(*args, rnd.responses, queries, SEED)[1] == set()

    victim = next(r for r in rnd.responses if r.request.kind == "knn" and r.result)
    oid, dist = victim.result[-1]
    victim.result = victim.result[:-1] + [(oid, dist + 1.0)]
    wrong = oracle.check_answers(*args, rnd.responses, queries, SEED)[1]
    assert wrong == {victim.request.request_id}


def test_tracing_restores_every_wrapped_name():
    _, setup = _short_setup("tloc-update-heavy", requests=200)
    service = setup.new_service()
    owners = [
        tracing.searchcommon,
        tracing.range_query,
        tracing.knn_query,
        tracing.gts,
        tracing.maintenance,
        tracing.construction,
        tracing.gts.GTS,
        tracing.cache_table.CacheTable,
        tracing.ShardedGTS,
        tracing.GTSService,
        setup.metric,
        service.policy,
    ]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer(lambda: setup.metric.pair_count)
    with tracing.instrument(tracer, setup.metric, service.policy):
        responses = service.serve(setup.requests)
    setup.close()
    assert [dict(vars(owner)) for owner in owners] == before
    assert {s.batch_id for s in tracer.spans if s.name == "shard.execute_batch"} == {
        r.batch_id for r in responses
    }
