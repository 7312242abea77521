"""Tests for the fused segmented distance kernels (Metric.pairwise_segmented).

The segmented call is the workhorse of the batch query engine, so its
contract is strict: for *every* registered metric, evaluating per-query
segments in one call must be **bitwise identical** to the historical
per-query ``pairwise`` evaluation — regardless of which host strategy
(fused broadcast pass, per-segment loop, store-digest reuse) answers it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.metrics.string as string_metrics
from repro.exceptions import MetricError
from repro.metrics import EditDistance, edit_distance, get_metric
from repro.metrics.base import Metric
from repro.metrics.registry import available_metrics
from repro.metrics.vector import AngularDistance, EuclideanDistance, _VectorMetric

from edit_reference import reference_edit_distance


def _objects_for(metric, rng, count):
    """Synthetic objects in the metric's domain."""
    if metric.supports_vectors:
        return [rng.normal(size=12) for _ in range(count)]
    name = metric.name
    if name == "hamming":
        alphabet = np.array(list("acgt"))
        return ["".join(rng.choice(alphabet, size=9)) for _ in range(count)]
    if name == "edit-distance":
        alphabet = np.array(list("abcdef"))
        return [
            "".join(rng.choice(alphabet, size=rng.integers(3, 10)))
            for _ in range(count)
        ]
    if name == "jaccard":
        return [
            frozenset(rng.choice(30, size=rng.integers(1, 8), replace=False).tolist())
            for _ in range(count)
        ]
    if name.startswith("hausdorff"):
        return [rng.normal(size=(rng.integers(2, 5), 3)) for _ in range(count)]
    raise AssertionError(f"no object generator for metric {name!r}")


def _segment_case(metric, rng, num_queries=7, max_segment=9):
    queries = _objects_for(metric, rng, num_queries)
    sizes = [int(rng.integers(0, max_segment + 1)) for _ in range(num_queries)]
    if not any(sizes):
        sizes[0] = 3
    objects = _objects_for(metric, rng, sum(sizes))
    boundaries = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    return queries, objects, boundaries


@pytest.mark.parametrize("name", available_metrics())
class TestSegmentedEqualsPairwise:
    def test_bitwise_equal_to_per_query_pairwise(self, name):
        metric = get_metric(name) if name != "minkowski" else get_metric(name, p=3)
        rng = np.random.default_rng(sum(map(ord, name)))
        queries, objects, boundaries = _segment_case(metric, rng)
        fused = metric.pairwise_segmented(queries, objects, boundaries)
        expected = np.concatenate(
            [
                metric.pairwise(queries[qi], objects[boundaries[qi] : boundaries[qi + 1]])
                for qi in range(len(queries))
            ]
        )
        np.testing.assert_array_equal(fused, expected)

    def test_counts_one_call_covering_all_pairs(self, name):
        metric = get_metric(name) if name != "minkowski" else get_metric(name, p=3)
        rng = np.random.default_rng(5)
        queries, objects, boundaries = _segment_case(metric, rng)
        metric.reset_counter()
        metric.pairwise_segmented(queries, objects, boundaries)
        assert metric.pair_count == len(objects)


class TestSegmentedValidation:
    def test_boundary_length_must_match_queries(self):
        m = EuclideanDistance()
        with pytest.raises(MetricError):
            m.pairwise_segmented([[0.0, 0.0]], [[1.0, 1.0]], [0, 1, 1])

    def test_boundaries_must_span_objects(self):
        m = EuclideanDistance()
        with pytest.raises(MetricError):
            m.pairwise_segmented([[0.0, 0.0]], [[1.0, 1.0], [2.0, 2.0]], [0, 1])

    def test_boundaries_must_be_monotone(self):
        m = EuclideanDistance()
        with pytest.raises(MetricError):
            m.pairwise_segmented(
                [[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [2.0, 2.0]], [0, 2, 2][::-1]
            )

    def test_empty_batch_returns_empty(self):
        m = EuclideanDistance()
        out = m.pairwise_segmented([], [], [0])
        assert out.shape == (0,)

    def test_empty_segments_are_skipped(self):
        m = EuclideanDistance()
        out = m.pairwise_segmented(
            [[0.0, 0.0], [1.0, 0.0]], [[3.0, 4.0]], np.array([0, 0, 1])
        )
        np.testing.assert_allclose(out, [np.hypot(2.0, 4.0)])


class TestStrategyEquivalence:
    """Fused pass, per-segment loop, and digest reuse agree bit for bit."""

    @pytest.mark.parametrize("metric", [EuclideanDistance(), AngularDistance()])
    def test_fused_equals_segment_loop(self, metric):
        rng = np.random.default_rng(11)
        queries = rng.normal(size=(6, 20))
        sizes = [0, 3, 17, 1, 400, 2]
        objects = rng.normal(size=(sum(sizes), 20))
        boundaries = np.concatenate(([0], np.cumsum(sizes)))
        fused = metric._fused_segmented(queries, objects, boundaries)
        looped = metric._segment_loop(queries, objects, boundaries, None)
        np.testing.assert_array_equal(fused, looped)

    def test_angular_digest_matches_recomputation(self):
        metric = AngularDistance()
        rng = np.random.default_rng(13)
        queries = rng.normal(size=(4, 16))
        objects = rng.normal(size=(40, 16))
        boundaries = np.array([0, 10, 10, 25, 40])
        digest = metric.store_digest(objects)
        np.testing.assert_array_equal(
            digest, np.linalg.norm(objects, axis=-1)
        )
        plain = metric.pairwise_segmented(queries, objects, boundaries)
        with_digest = metric.pairwise_segmented(
            queries, objects, boundaries, object_digest=digest
        )
        np.testing.assert_array_equal(plain, with_digest)
        fused = metric._fused_segmented(queries, objects, boundaries, digest)
        looped = metric._segment_loop(queries, objects, boundaries, digest)
        np.testing.assert_array_equal(fused, looped)
        np.testing.assert_array_equal(fused, plain)

    def test_dispatch_threshold_does_not_change_bits(self):
        rng = np.random.default_rng(17)
        queries = rng.normal(size=(5, 30))
        sizes = [200, 1, 50, 9, 130]
        objects = rng.normal(size=(sum(sizes), 30))
        boundaries = np.concatenate(([0], np.cumsum(sizes)))
        small, large = EuclideanDistance(), EuclideanDistance()
        small.fused_segment_elements = 1  # force the per-segment loop
        large.fused_segment_elements = 10**9  # force the fused pass
        np.testing.assert_array_equal(
            small.pairwise_segmented(queries, objects, boundaries),
            large.pairwise_segmented(queries, objects, boundaries),
        )

    def test_generic_fallback_matches_vector_override(self):
        metric = EuclideanDistance()
        rng = np.random.default_rng(23)
        queries = rng.normal(size=(6, 8))
        sizes = [4, 0, 12, 7, 1, 90]
        objects = rng.normal(size=(sum(sizes), 8))
        boundaries = np.concatenate(([0], np.cumsum(sizes)))
        fast = metric.pairwise_segmented(queries, objects, boundaries)
        generic = Metric._pairwise_segmented(metric, queries, objects, boundaries)
        np.testing.assert_array_equal(fast, np.asarray(generic))

    def test_vector_metric_observes_dimension(self):
        metric = EuclideanDistance()
        rng = np.random.default_rng(29)
        queries = rng.normal(size=(2, 44))
        objects = rng.normal(size=(6, 44))
        metric.pairwise_segmented(queries, objects, [0, 3, 6])
        assert metric.unit_cost == pytest.approx(_VectorMetric.ops_per_dimension * 44)


class TestSegmentedDistanceKernel:
    """The gpusim primitive pairs the fused pass with its device charge."""

    def test_result_and_accounting(self):
        from repro.gpusim import Device, DeviceSpec
        from repro.gpusim.kernels import segmented_distance_kernel

        metric = EuclideanDistance()
        device = Device(DeviceSpec())
        rng = np.random.default_rng(31)
        queries = rng.normal(size=(3, 5))
        objects = rng.normal(size=(10, 5))
        boundaries = np.array([0, 4, 4, 10])
        before = device.snapshot()
        dists = segmented_distance_kernel(device, metric, queries, objects, boundaries)
        delta = device.stats.delta_since(before)
        np.testing.assert_array_equal(
            dists, metric.pairwise_segmented(queries, objects, boundaries)
        )
        assert delta.kernel_launches == 1
        assert delta.total_ops == pytest.approx(len(objects) * metric.unit_cost)


#: A small alphabet (so distances are not all maximal), a non-BMP character,
#: a NUL and both halves of a surrogate pair as lone code points.
LANE_ALPHABET = ["a", "b", "c", "\U0001f600", "\x00", "\ud83d", "\ude00"]
#: Lengths either side of the 64-bit word boundaries, and anything up to 140.
LANE_LENGTH = st.one_of(
    st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129, 140]), st.integers(0, 140)
)


@st.composite
def lane_strings(draw):
    length = draw(LANE_LENGTH)
    symbols = draw(st.integers(1, len(LANE_ALPHABET)))
    chars = st.sampled_from(LANE_ALPHABET[:symbols])
    return "".join(draw(st.lists(chars, min_size=length, max_size=length)))


@st.composite
def segmented_calls(draw):
    queries = draw(st.lists(lane_strings(), min_size=1, max_size=4))
    sizes = draw(st.lists(st.integers(0, 4), min_size=len(queries), max_size=len(queries)))
    objects = draw(st.lists(lane_strings(), min_size=sum(sizes), max_size=sum(sizes)))
    boundaries = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    return queries, objects, boundaries


def _reference_segmented(queries, objects, boundaries):
    return [
        reference_edit_distance(queries[qi], objects[k])
        for qi in range(len(queries))
        for k in range(boundaries[qi], boundaries[qi + 1])
    ]


class TestEditDistanceLanes:
    """The bit-parallel lane kernel equals the classic full DP exactly."""

    @given(call=segmented_calls(), lane_chunk=st.sampled_from([1, 3, 4096]))
    @settings(max_examples=40, deadline=None)
    def test_lanes_match_reference_dp(self, call, lane_chunk):
        queries, objects, boundaries = call
        expected = _reference_segmented(queries, objects, boundaries)
        with pytest.MonkeyPatch.context() as mp:
            # every call through the lanes, in chunks of every shape
            mp.setattr(string_metrics, "SCALAR_PAIRS", 0)
            mp.setattr(string_metrics, "LANE_CHUNK", lane_chunk)
            lanes = string_metrics.edit_distance_segmented(queries, objects, boundaries)
        assert lanes.tolist() == expected
        scalar = [
            edit_distance(queries[qi], objects[k])
            for qi in range(len(queries))
            for k in range(boundaries[qi], boundaries[qi + 1])
        ]
        assert scalar == expected
        metric = EditDistance()
        np.testing.assert_array_equal(
            metric.pairwise_segmented(queries, objects, boundaries), expected
        )

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_batches_at_the_chunk_edge(self, extra):
        rng = np.random.default_rng(41 + extra)
        lanes = string_metrics.LANE_CHUNK + extra
        words = ["".join(rng.choice(list("abcd"), size=int(n))) for n in rng.integers(0, 9, 64)]
        queries = words[:5] + ["", "dcba"]
        objects = [words[int(i)] for i in rng.integers(0, len(words), lanes)]
        cuts = np.sort(rng.integers(0, lanes + 1, len(queries) - 1))
        boundaries = np.concatenate(([0], cuts, [lanes])).astype(np.int64)
        got = string_metrics.edit_distance_segmented(queries, objects, boundaries)
        assert got.tolist() == _reference_segmented(queries, objects, boundaries)

    def test_large_alphabet_caps_queries_per_chunk(self, monkeypatch):
        rng = np.random.default_rng(43)
        queries = [
            "".join(chr(0x4E00 + int(c)) for c in rng.integers(0, 400, 6)) for _ in range(30)
        ]
        objects = [q[::-1] + q[:2] for q in queries for _ in range(4)]
        boundaries = np.arange(len(queries) + 1, dtype=np.int64) * 4
        expected = _reference_segmented(queries, objects, boundaries)
        monkeypatch.setattr(string_metrics, "PEQ_CHUNK_ROWS", 500)
        got = string_metrics.edit_distance_segmented(queries, objects, boundaries)
        assert got.tolist() == expected

    def test_empty_segments_and_strings(self):
        queries = ["", "abc", "", "x" * 70, "ab"]
        sizes = [3, 0, 0, 66, 2]
        objects = ["", "a", "abc"] + ["x" * n for n in range(66)] + ["", "ba"]
        boundaries = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
        got = EditDistance().pairwise_segmented(queries, objects, boundaries)
        np.testing.assert_array_equal(got, _reference_segmented(queries, objects, boundaries))

    def test_pairwise_matrix_and_distance_agree_bitwise(self):
        rng = np.random.default_rng(47)
        words = [
            "".join(rng.choice(list("acgt"), size=int(n))) for n in rng.integers(0, 120, 30)
        ]
        xs, ys = words[:9], words[9:]
        metric = EditDistance()
        matrix = metric.matrix(xs, ys)
        for i, x in enumerate(xs):
            row = metric.pairwise(x, ys * 4)  # 84 pairs: the lane kernel
            np.testing.assert_array_equal(row, np.tile(matrix[i], 4))
            np.testing.assert_array_equal(
                matrix[i], [metric.distance(x, y) for y in ys]
            )

    def test_counter_semantics(self):
        metric = EditDistance()
        words = ["abc", "abd", "", "xyz"] * 20
        metric.pairwise("ab", words)
        assert metric.counter.snapshot() == {"calls": 1, "pairs": 80}
        metric.matrix(words[:3], words)
        assert metric.counter.snapshot() == {"calls": 2, "pairs": 320}
        metric.pairwise_segmented(["a", "b"], words, [0, 30, 80])
        assert metric.counter.snapshot() == {"calls": 3, "pairs": 400}
        metric.distance("a", "b")
        assert metric.counter.snapshot() == {"calls": 4, "pairs": 401}
        metric.pairwise("ab", [])
        metric.matrix([], words)
        assert metric.counter.snapshot() == {"calls": 4, "pairs": 401}
