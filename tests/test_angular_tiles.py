"""Dense angular verification tiles (DESIGN.md §8, "Dense angular tiles").

Leaf verification under :class:`~repro.metrics.AngularDistance` drops, via
one float64 GEMM tile and a rigorous error band, the candidates whose
row-wise distance provably exceeds the query's cutoff, and evaluates the
rest exactly.  These tests check:

* the zero-vector identity ``d(0, 0) = 0`` on every entry point and through
  a GTS index;
* the band itself: the row-wise value lies inside it for random and
  adversarial pairs, and it is never narrower than its derivation;
* the cutoff rule of :func:`~repro.core.searchcommon.dense_band_filter`;
* a differential property: tiled verification equals the row-wise path
  bit for bit (answers, ``counter.pairs``, ``ExecutionStats`` minus host
  time) on resident, tiered, sharded and maintenance-enabled indexes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.searchcommon as searchcommon
from repro import GTS
from repro.core import MaintenanceConfig
from repro.core.construction import objects_nbytes
from repro.core.objectstore import ColumnarStore
from repro.metrics import AngularDistance
from repro.metrics.vector import (
    angular_cosine_floor,
    angular_distance_ceiling,
    angular_tile_halfwidth,
)
from repro.shard import ShardedGTS
from repro.tier import TierConfig

U = 2.0 ** -53

CONFIGS = ("resident", "tiered", "sharded", "maintenance")


# ------------------------------------------------------------ zero vectors
class TestZeroVectorIdentity:
    def test_every_entry_point_maps_two_zero_vectors_to_zero(self):
        metric = AngularDistance()
        zero = np.zeros(4)
        other = np.array([1.0, -2.0, 0.5, 3.0])
        rows = np.stack([zero, other, zero])
        assert metric.distance(zero, zero) == 0.0
        assert metric.pairwise(zero, rows).tolist() == [0.0, 0.5, 0.0]
        assert metric.pairwise(other, rows).tolist() == [0.5, 0.0, 0.5]
        assert metric.matrix(rows, rows)[[0, 0, 2], [0, 2, 2]].tolist() == [0.0] * 3
        assert metric.matrix(rows, rows)[0, 1] == 0.5
        boundaries = np.array([0, 3, 6])
        segmented = np.concatenate([rows, rows])
        # fused pass and per-segment loop (with and without the store digest)
        expected = [0.0, 0.5, 0.0, 0.5, 0.0, 0.5]
        assert metric.pairwise_segmented([zero, other], segmented, boundaries).tolist() == expected
        digest = metric.store_digest(segmented)
        for fused_elements in (10**9, 0):
            metric.fused_segment_elements = fused_elements
            got = metric.pairwise_segmented([zero, other], segmented, boundaries, digest)
            assert got.tolist() == expected

    def test_tiny_rows_whose_squares_underflow_are_not_zero(self):
        metric = AngularDistance()
        tiny = np.array([1e-170, 0.0])
        orthogonal = np.array([0.0, 1e-170])
        assert metric.distance(tiny, orthogonal) == 0.5
        assert metric.pairwise(tiny, [orthogonal, np.zeros(2)]).tolist() == [0.5, 0.5]
        assert metric.matrix([tiny], [orthogonal])[0, 0] == 0.5

    def test_index_over_zero_vectors_matches_distance_brute_force(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(60, 5))
        points[::7] = 0.0
        index = GTS.build(points, AngularDistance(), node_capacity=4, seed=1)
        reference = AngularDistance()
        queries = [np.zeros(5), points[1]]
        for query, answer in zip(queries, index.range_query_batch(queries, 0.1)):
            truth = [(i, reference.distance(query, p)) for i, p in enumerate(points)]
            assert answer == sorted((t for t in truth if t[1] <= 0.1), key=lambda t: (t[1], t[0]))
        zero_answer = index.knn_query_batch([np.zeros(5)], 9)[0]
        assert zero_answer == [(i, 0.0) for i in range(0, 60, 7)]


# -------------------------------------------------------------------- band
def _row_cosines(queries, rows):
    """The row-wise path's clipped cosines (per-query _pairwise formula)."""
    return np.stack([AngularDistance._cosine(rows, q[None, :]) for q in queries])


def _adversarial_rows(rng, dim):
    base = rng.normal(size=(24, dim))
    near = base.copy()
    near[:, 0] = np.nextafter(near[:, 0], np.inf)  # an ulp apart
    # products 1, then dim - 1 terms just over half an ulp of 1: a
    # sequential sum rounds up on every term, a pairwise sum does not
    seq = np.full((2, dim), np.sqrt(2.0 ** -53 * (1 + 2.0 ** -10)))
    seq[:, 0] = 1.0
    seq[1, 1:] *= -1
    return np.concatenate([
        base,
        near,
        -base,  # antipodal
        base * 1e-150,
        base * 1e150,
        np.round(base * 3),
        seq,
    ])


class TestCosineBand:
    @pytest.mark.parametrize("dim", [2, 3, 33, 300])
    def test_row_wise_value_inside_band(self, dim):
        rng = np.random.default_rng(dim)
        rows = _adversarial_rows(rng, dim)
        queries = np.concatenate([rows[::5], rng.normal(size=(4, dim))])
        metric = AngularDistance()
        cos = metric.cosine_tile(queries, rows)
        halfwidth = angular_tile_halfwidth(dim)
        row_cos = _row_cosines(queries, rows)
        values = np.stack([metric.pairwise(q, rows) for q in queries])
        band = ~np.isnan(cos)
        assert band.sum() > 0.8 * cos.size
        # cosine space: the row-wise clipped cosine lies within the half-width
        assert np.all(np.abs(row_cos - cos)[band] <= halfwidth)
        # distance space: lo <= row-wise value <= hi, where hi is the
        # ceiling of the band's lower cosine, and lo holds because the
        # filter never drops a pair at a cutoff equal to its own value
        margin = halfwidth + 4 * U
        hi = angular_distance_ceiling(cos - margin)
        assert np.all(values[band] <= hi[band])
        floor = angular_cosine_floor(values) - margin
        assert not np.any((cos < floor)[band])

    def test_out_of_range_norms_get_no_band(self):
        metric = AngularDistance()
        rows = np.array([[0.0, 0.0], [1e200, 1.0], [1e-200, 0.0], [1.0, 2.0]])
        cos = metric.cosine_tile(rows, rows)
        assert np.isnan(cos[:3]).all() and np.isnan(cos[:, :3]).all()
        assert not np.isnan(cos[3, 3])

    @pytest.mark.parametrize("dim", [1, 2, 300, 4096])
    def test_halfwidth_covers_both_summation_orders(self, dim):
        # each order's dot product is within γ_d ‖x‖‖q‖ of the exact one,
        # and each division adds u: the band must hold both orders at once
        gamma = dim * U / (1 - dim * U)
        assert angular_tile_halfwidth(dim) >= 2 * gamma + 2 * U

    def test_distance_maps_allow_for_arccos_and_cosine_rounding(self):
        cos = np.linspace(-0.999, 0.999, 2001)
        exact = np.arccos(cos) / np.pi
        # strictly outside the plain images, so a non-monotone library
        # arccos or cosine cannot move a row-wise value across the band
        assert np.all(angular_distance_ceiling(cos) > exact)
        cutoff = np.linspace(0.0, 0.99, 2001)
        assert np.all(angular_cosine_floor(cutoff) < np.cos(np.pi * cutoff))
        assert np.all(angular_cosine_floor([1.0, np.inf, np.nan]) == -np.inf)


# ------------------------------------------------------------- cutoff rule
def _filter(rows, queries, cutoffs, k=None):
    metric = AngularDistance()
    store = ColumnarStore(rows)
    n = len(rows)
    obj_ids = np.tile(np.arange(n), len(queries))
    boundaries = np.arange(0, n * len(queries) + 1, n)
    result = searchcommon.dense_band_filter(
        metric,
        store,
        list(queries),
        np.arange(len(queries)),
        boundaries,
        obj_ids,
        np.asarray(cutoffs, dtype=np.float64),
        k=None if k is None else np.full(len(queries), k),
    )
    return result, metric


class TestCutoffRule:
    def test_range_drops_only_pairs_beyond_the_radius(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(200, 16))
        query = rows[:1] + 0.3 * rng.normal(size=(1, 16))
        values = AngularDistance().pairwise(query[0], rows)
        radius = np.sort(values)[9]  # a tie at the radius stays
        (queries, boundaries, ids), metric = _filter(rows, query, [radius])
        assert set(ids.tolist()) >= set(np.flatnonzero(values <= radius).tolist())
        assert len(ids) < 40
        # dropped pairs are counted once, as if evaluated
        assert metric.counter.pairs == 200 - len(ids)

    def test_knn_respects_the_pool_bound(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(200, 16))
        query = rng.normal(size=(1, 16))
        # the pool already holds k objects at distance 0: no candidate can
        # enter the top k, so every pair is dropped
        (queries, boundaries, ids), _ = _filter(rows, query, [0.0], k=3)
        assert len(ids) == 0 and len(queries) == 0
        # without a pool bound the k nearest candidates must survive
        values = AngularDistance().pairwise(query[0], rows)
        (queries, boundaries, ids), _ = _filter(rows, query, [np.inf], k=3)
        assert set(np.argsort(values)[:3].tolist()) <= set(ids.tolist())
        assert len(ids) < 20

    def test_k_beyond_candidates_keeps_everything(self):
        rows = np.random.default_rng(7).normal(size=(30, 8))
        (queries, boundaries, ids), _ = _filter(rows, rows[:2], [np.inf, np.inf], k=31)
        assert len(ids) == 60

    def test_blocked_tile_keeps_the_same_survivors(self, monkeypatch):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(300, 12))
        queries = rows[:5] + 0.2 * rng.normal(size=(5, 12))
        whole = _filter(rows, queries, [np.inf] * 5, k=4)[0]
        # 5-row blocks: later blocks see a tighter running bound, and the
        # final pass applies the final bound to the early blocks' survivors
        monkeypatch.setattr(searchcommon, "GATHER_CHUNK_ELEMENTS", 60)
        blocked = _filter(rows, queries, [np.inf] * 5, k=4)[0]
        assert all(np.array_equal(a, b) for a, b in zip(whole, blocked))

    def test_exact_for_any_tile_within_the_halfwidth(self, monkeypatch):
        # a tile that errs by up to the half-width in either direction (as
        # another summation order may) must not change a single answer
        original = AngularDistance.cosine_tile
        rng = np.random.default_rng(10)
        halfwidth = angular_tile_halfwidth(300)

        def worst_case_tile(self, *args, **kwargs):
            cos = original(self, *args, **kwargs)
            return cos + rng.choice([-0.999, 0.999], size=cos.shape) * halfwidth

        data = np.random.default_rng(11).normal(size=(400, 300))
        data[200:] = data[:200] + 1e-9 * data[200:]  # near-ties everywhere
        queries = [data[i] + 1e-3 * data[i + 1] for i in range(0, 400, 40)]
        values = np.concatenate([AngularDistance().pairwise(q, data) for q in queries])
        radii = [float(np.sort(values)[i]) for i in (5, 50)]
        monkeypatch.setattr(AngularDistance, "cosine_tile", worst_case_tile)
        tiled = _run("resident", data, [], [], queries, radii, [1, 2, 5])
        monkeypatch.setattr(searchcommon, "DENSE_TILE_FACTOR", 0)
        assert _run("resident", data, [], [], queries, radii, [1, 2, 5]) == tiled

    def test_band_is_exercised_when_tile_order_differs(self, monkeypatch):
        # rows a few ulps apart: the tile's cosine order disagrees with the
        # row-wise distance order, and the exact recompute must decide
        rng = np.random.default_rng(0)
        query = rng.normal(size=300)
        rows = np.repeat(rng.normal(size=(1, 300)), 256, axis=0)
        rows *= 1 + rng.integers(-40, 40, size=rows.shape) * 2.0 ** -52
        metric = AngularDistance()
        cos = metric.cosine_tile([query], rows)[0]
        values = metric.pairwise(query, rows)
        inverted = np.argwhere((cos[:, None] > cos[None, :]) & (values[:, None] > values[None, :]))
        assert len(inverted)
        # the tile ranks row 0 first, the exact order row 1
        pair = rows[inverted[0]]
        (_, _, ids), _ = _filter(pair, [query], [np.inf], k=1)
        assert ids.tolist() == [0, 1]
        tiled = _run("resident", pair, [], [], [query], [], [1])
        assert tiled[0] == [[[(1, float(values[inverted[0][1]]))]]]
        monkeypatch.setattr(searchcommon, "DENSE_TILE_FACTOR", 0)
        assert _run("resident", pair, [], [], [query], [], [1]) == tiled


# ------------------------------------------------------ differential check
def _stats_without_host_time(stats):
    fields = stats.as_dict()
    del fields["host_time"]
    return fields


def _build(config, data, metric):
    kwargs = dict(node_capacity=6, cache_capacity_bytes=1 << 16, seed=5)
    if config == "tiered":
        budget = max(2048, objects_nbytes(data) // 4)
        tier = TierConfig(memory_budget_bytes=budget, block_bytes=512)
        return GTS.build(data, metric, tier=tier, **kwargs)
    if config == "sharded":
        return ShardedGTS.build(data, metric, num_shards=2, **kwargs)
    if config == "maintenance":
        index = GTS.build(data, metric, **dict(kwargs, cache_capacity_bytes=256))
        index.enable_incremental_maintenance(
            MaintenanceConfig(levels_per_slice=1, hard_overflow_factor=None)
        )
        return index
    return GTS.build(data, metric, **kwargs)


def _run(config, data, inserts, deletes, queries, radii, ks):
    metric = AngularDistance()
    index = _build(config, data, metric)
    for obj in inserts:
        index.insert(obj)
    for oid in deletes:
        index.delete(oid)
    before = index.device.stats.copy()
    pairs = metric.pair_count
    answers = [index.range_query_batch(queries, r) for r in radii]
    answers += [index.knn_query_batch(queries, k) for k in ks]
    stats = _stats_without_host_time(index.device.stats.delta_since(before))
    result = answers, metric.pair_count - pairs, stats
    index.close()
    return result


@st.composite
def angular_cases(draw):
    dtype = draw(st.sampled_from(["float64", "float32", "int"]))
    dim = draw(st.sampled_from([2, 5, 24]))
    n = draw(st.integers(20, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype == "int":
        data = rng.integers(-2, 3, size=(n, dim))  # duplicates and zero rows
    else:
        data = rng.normal(size=(n, dim))
        data[1::9] = data[0::9][: len(data[1::9])]  # exact duplicates
        data[2::9] = -data[0::9][: len(data[2::9])]  # antipodal rows
        data[3::9, 0] = np.nextafter(data[3::9, 0], np.inf)  # an ulp from a row
        data[4::11] = 0.0
        data = data.astype(dtype)
        # magnitudes near the dtype's square-root range limits
        tiny, huge = (1e-150, 1e150) if dtype == "float64" else (1e-18, 1e18)
        data[5::13] *= draw(st.sampled_from([1.0, tiny, huge]))
    picks = rng.integers(0, n, size=6)
    queries = [data[i] for i in picks] + [np.zeros(dim, dtype=data.dtype), -data[picks[0]]]
    reference = AngularDistance()
    values = np.concatenate([reference.pairwise(q, data) for q in queries[:2]])
    radii = [0.0, float(np.sort(values)[len(values) // 4]), 0.5]  # a tie at r
    inserts = [data[i] for i in rng.integers(0, n, size=3)]  # duplicates in the cache
    deletes = sorted(set(rng.integers(0, n, size=3).tolist()))
    ks = [1, 3, n + 5]
    return data, inserts, deletes, queries, radii, ks


class TestTiledEqualsRowWise:
    @pytest.mark.parametrize("config", CONFIGS)
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=angular_cases())
    def test_answers_pairs_and_stats_identical(self, config, case, monkeypatch):
        tiled = _run(config, *case)
        with monkeypatch.context() as patch:
            patch.setattr(searchcommon, "DENSE_TILE_FACTOR", 0)
            row_wise = _run(config, *case)
        assert tiled == row_wise

    def test_resident_queries_take_the_tile(self, monkeypatch):
        calls = []
        original = AngularDistance.cosine_tile

        def spy(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(AngularDistance, "cosine_tile", spy)
        data = np.random.default_rng(8).normal(size=(300, 24))
        queries = [data[i] for i in range(0, 300, 30)]
        tiled = _run("resident", data, [], [3], queries, [0.3], [5])
        assert calls
        monkeypatch.setattr(searchcommon, "DENSE_TILE_FACTOR", 0)
        calls.clear()
        assert _run("resident", data, [], [3], queries, [0.3], [5]) == tiled
        assert not calls
