"""Brute-force correctness oracle over the visible set of a served stream.

The stream is replayed in arrival order against a plain id -> object map:
the indexed objects, minus earlier deletes, plus earlier inserts.  Every
insert and delete response is checked; a seeded sample of query responses
is compared with an exhaustive scan of the visible set at that point of the
stream.  The scan uses an independent copy of the metric, so the oracle's
distance evaluations never touch the served index's counters.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.service import DELETE, INSERT, KNN, RANGE


def _visible_batch(store, ids, as_array):
    """The objects with ``ids`` in the form the metric's ``pairwise`` takes."""
    rows = [store[i] for i in ids]
    return np.stack(rows) if as_array and rows else rows


def _expected_range(dists, ids, radius):
    hits = [(ids[i], float(dists[i])) for i in np.flatnonzero(dists <= radius)]
    return sorted(hits, key=lambda item: (item[1], item[0]))


def _knn_matches(answer, dists, ids, k) -> bool:
    """True when ``answer`` is a correct kNN answer; any tie order at the k-th."""
    true_dist = dict(zip(ids, (float(d) for d in dists)))
    want = sorted(float(d) for d in dists)[:k]
    if len(answer) != len(want):
        return False
    got_ids = [oid for oid, _ in answer]
    if len(set(got_ids)) != len(got_ids):
        return False
    for (oid, dist), expected in zip(answer, want):
        if oid not in true_dist or true_dist[oid] != dist or dist != expected:
            return False
    return True


def check_answers(objects, num_indexed, metric, requests, responses, sample_size, seed):
    """Check one served stream; returns ``(checked, wrong)``.

    ``requests`` is the arrival-ordered stream and ``responses`` the
    service's responses to it.  ``checked`` counts the responses compared
    (every update plus the query sample); ``wrong`` is the set of request
    ids whose answers differ from the oracle's.
    """
    metric = copy.deepcopy(metric)
    by_request = {r.request.request_id: r.result for r in responses}
    queries = [i for i, r in enumerate(requests) if r.kind in (RANGE, KNN)]
    rng = np.random.default_rng(seed)
    picked = set(
        rng.choice(queries, size=min(sample_size, len(queries)), replace=False).tolist()
    )

    store = {i: objects[i] for i in range(num_indexed)}
    live = set(range(num_indexed))
    next_id = num_indexed
    checked = 0
    wrong = {r.request_id for r in requests} - by_request.keys()
    for position, request in enumerate(requests):
        result = by_request.get(request.request_id)
        if request.kind == INSERT:
            checked += 1
            ok = result == next_id
            store[next_id] = request.payload
            live.add(next_id)
            next_id += 1
        elif request.kind == DELETE:
            checked += 1
            ok = result is None and request.payload in live
            live.discard(int(request.payload))
        elif position in picked:
            checked += 1
            ids = sorted(live)
            batch = _visible_batch(store, ids, isinstance(objects, np.ndarray))
            dists = metric.pairwise(request.payload, batch)
            if request.kind == RANGE:
                ok = result == _expected_range(dists, ids, request.radius)
            else:
                ok = _knn_matches(result, dists, ids, int(request.k))
        else:
            continue
        if not ok:
            wrong.add(request.request_id)
    return checked, wrong
