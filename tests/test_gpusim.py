"""Unit tests for the simulated GPU / CPU execution substrates."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.exceptions import DeviceMemoryError, KernelError
from repro.gpusim import (
    CPUExecutor,
    CPUSpec,
    Device,
    DeviceSpec,
    ExecutionStats,
    MiB,
    distance_kernel,
    distance_matrix_kernel,
    elementwise_kernel,
    measure,
    reduce_kernel,
    sort_kernel,
    throughput_per_minute,
    topk_kernel,
)
from repro.metrics import EuclideanDistance


class TestDeviceSpec:
    def test_defaults_reasonable(self):
        spec = DeviceSpec()
        assert spec.cores > 0 and spec.memory_bytes > 0

    def test_with_memory_returns_copy(self):
        spec = DeviceSpec()
        smaller = spec.with_memory(1 * MiB)
        assert smaller.memory_bytes == 1 * MiB
        assert spec.memory_bytes != smaller.memory_bytes

    def test_with_cores(self):
        assert DeviceSpec().with_cores(128).cores == 128

    def test_invalid_cores_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec(cores=0)

    def test_invalid_memory_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec(memory_bytes=0)

    def test_cpu_spec_validation(self):
        with pytest.raises(ValueError):
            CPUSpec(op_time=0)


class TestDeviceMemory:
    def test_allocate_and_free(self, device):
        alloc = device.allocate(1024, "buf")
        assert device.used_bytes == 1024
        device.free(alloc)
        assert device.used_bytes == 0

    def test_free_is_idempotent(self, device):
        alloc = device.allocate(100)
        device.free(alloc)
        device.free(alloc)
        assert device.used_bytes == 0

    def test_out_of_memory_raises(self):
        device = Device(DeviceSpec(memory_bytes=1000))
        with pytest.raises(DeviceMemoryError):
            device.allocate(2000)

    def test_oom_error_carries_sizes(self):
        device = Device(DeviceSpec(memory_bytes=1000))
        device.allocate(600)
        with pytest.raises(DeviceMemoryError) as err:
            device.allocate(500)
        assert err.value.requested == 500
        assert err.value.available == 400
        assert err.value.capacity == 1000

    def test_negative_allocation_rejected(self, device):
        with pytest.raises(KernelError):
            device.allocate(-1)

    def test_peak_memory_tracked(self, device):
        a = device.allocate(1000)
        b = device.allocate(2000)
        device.free(a)
        device.free(b)
        assert device.stats.peak_memory_bytes == 3000

    def test_free_all(self, device):
        device.allocate(100)
        device.allocate(200)
        device.free_all()
        assert device.used_bytes == 0
        assert device.live_allocations() == []

    def test_alloc_array_charges_bytes(self, device):
        arr = device.alloc_array((10, 10), dtype=np.float64, label="m")
        assert arr.nbytes == 800
        assert device.used_bytes == 800
        arr.free()
        assert device.used_bytes == 0

    def test_device_array_use_after_free_raises(self, device):
        arr = device.alloc_array(4)
        arr.free()
        with pytest.raises(KernelError):
            _ = arr.data

    def test_to_device_copies_and_charges(self, device):
        host = np.arange(100, dtype=np.float64)
        dev = device.to_device(host)
        assert device.used_bytes == host.nbytes
        assert device.stats.bytes_to_device == host.nbytes
        np.testing.assert_array_equal(dev.data, host)


class TestDeviceTiming:
    def test_parallel_steps_ceiling(self):
        device = Device(DeviceSpec(cores=100))
        assert device.parallel_steps_for(1) == 1
        assert device.parallel_steps_for(100) == 1
        assert device.parallel_steps_for(101) == 2
        assert device.parallel_steps_for(0) == 0

    def test_launch_kernel_accumulates_time(self):
        device = Device(DeviceSpec(cores=10, op_time=1e-9, kernel_launch_overhead=1e-6))
        elapsed = device.launch_kernel(work_items=25, op_cost=2.0)
        assert elapsed == pytest.approx(1e-6 + 3 * 2.0 * 1e-9)
        assert device.stats.kernel_launches == 1
        assert device.stats.parallel_steps == 3

    def test_launch_kernel_zero_work_costs_only_overhead(self, device):
        elapsed = device.launch_kernel(0)
        assert elapsed == pytest.approx(device.spec.kernel_launch_overhead)

    def test_negative_work_rejected(self, device):
        with pytest.raises(KernelError):
            device.launch_kernel(-1)

    def test_sort_cost_includes_log_factor(self):
        device = Device(DeviceSpec(cores=16, op_time=1e-9, kernel_launch_overhead=0.000001))
        device.sort_cost(1024)
        # ceil(1024/16) * log2(1024) = 64 * 10 = 640 steps
        assert device.stats.parallel_steps == 640
        assert device.stats.sorted_elements == 1024

    def test_sort_of_one_element_is_free(self, device):
        assert device.sort_cost(1) == 0.0

    def test_transfer_costs(self):
        device = Device(DeviceSpec(transfer_bandwidth=1e9))
        t = device.transfer_to_device(1e6)
        assert t == pytest.approx(1e-3)
        t = device.transfer_to_host(2e6)
        assert t == pytest.approx(2e-3)
        assert device.stats.bytes_to_device == 1_000_000
        assert device.stats.bytes_to_host == 2_000_000

    def test_reset_stats_keeps_live_memory(self, device):
        device.allocate(512)
        device.launch_kernel(10)
        device.reset_stats()
        assert device.stats.kernel_launches == 0
        assert device.used_bytes == 512
        assert device.stats.peak_memory_bytes == 512


class TestExecutionStats:
    def test_delta_since(self, device):
        device.launch_kernel(100)
        before = device.snapshot()
        device.launch_kernel(200)
        delta = device.stats.delta_since(before)
        assert delta.kernel_launches == 1

    def test_merge(self):
        a = ExecutionStats(kernel_launches=2, sim_time=1.0, peak_memory_bytes=10)
        b = ExecutionStats(kernel_launches=3, sim_time=0.5, peak_memory_bytes=20)
        merged = a.merge(b)
        assert merged.kernel_launches == 5
        assert merged.sim_time == pytest.approx(1.5)
        assert merged.peak_memory_bytes == 20

    def test_as_dict_roundtrip(self):
        stats = ExecutionStats(kernel_launches=1, total_ops=5.0)
        d = stats.as_dict()
        assert d["kernel_launches"] == 1 and d["total_ops"] == 5.0

    def test_reset(self):
        stats = ExecutionStats(kernel_launches=4, sim_time=2.0)
        stats.reset()
        assert stats.kernel_launches == 0 and stats.sim_time == 0.0


#: The combination rule of every ``ExecutionStats`` field, spelled out by hand
#: so a new counter must be classified here before the test passes.
SUMMED = {
    "kernel_launches", "parallel_steps", "total_ops", "sorted_elements",
    "bytes_to_device", "bytes_to_host", "sim_time", "host_time", "maintenance_seconds",
}
SUMMED_NOT_ABSORBED = {"allocations", "frees"}
HIGH_WATER = {"peak_memory_bytes"}
DICT_SUM = {"transfer_seconds"}
DICT_HIGH_WATER = {"pool_peak_bytes"}


def _filled(base: int, own_key: str) -> ExecutionStats:
    """Stats whose every field holds a distinct non-default value."""
    values = {}
    for i, f in enumerate(fields(ExecutionStats)):
        if f.name in DICT_SUM | DICT_HIGH_WATER:
            values[f.name] = {"shared": base + i, own_key: 0.5 + i}
        else:
            values[f.name] = base + i
    return ExecutionStats(**values)


class TestExecutionStatsFieldRules:
    @pytest.fixture
    def pair(self):
        return _filled(10, "a-only"), _filled(100, "b-only")

    def test_every_field_has_a_rule(self):
        names = {f.name for f in fields(ExecutionStats)}
        groups = [SUMMED, SUMMED_NOT_ABSORBED, HIGH_WATER, DICT_SUM, DICT_HIGH_WATER]
        assert set().union(*groups) == names
        assert sum(len(g) for g in groups) == len(names)
        assert all(getattr(ExecutionStats(), name) != getattr(_filled(10, "x"), name)
                   for name in names)

    def test_every_operation_follows_the_field_rule(self, pair):
        a, b = pair
        merged, delta, scaled, copied = a.merge(b), b.delta_since(a), a.scale(0.5), a.copy()
        as_dict = a.as_dict()
        reset = a.copy()
        reset.reset()
        absorbed = Device(DeviceSpec())
        absorbed.stats = a.copy()
        absorbed.absorb(b, sim_time=7.0)
        assert set(as_dict) == {f.name for f in fields(ExecutionStats)}
        for name in as_dict:
            x, y = getattr(a, name), getattr(b, name)
            if name in SUMMED | SUMMED_NOT_ABSORBED:
                expected = (x + y, y - x, x * 0.5)
            elif name in HIGH_WATER:
                expected = (max(x, y), y, x)
            elif name in DICT_SUM:
                expected = (
                    {**x, **y, "shared": x["shared"] + y["shared"]},
                    {**y, "shared": y["shared"] - x["shared"]},
                    {key: value * 0.5 for key, value in x.items()},
                )
            else:
                expected = ({**x, **y, "shared": max(x["shared"], y["shared"])}, y, x)
            assert (getattr(merged, name), getattr(delta, name), getattr(scaled, name)) == expected, name
            assert getattr(copied, name) == x and as_dict[name] == x, name
            assert getattr(reset, name) == getattr(ExecutionStats(), name), name
            if name == "sim_time":
                assert absorbed.stats.sim_time == x + 7.0
            elif name in SUMMED | DICT_SUM:
                assert getattr(absorbed.stats, name) == expected[0], name
            else:
                assert getattr(absorbed.stats, name) == x, name

    def test_copies_do_not_share_dicts(self, pair):
        a, b = pair
        for derived in (a.copy(), a.merge(b), b.delta_since(a), a.scale(1.0)):
            for name in DICT_SUM | DICT_HIGH_WATER:
                getattr(derived, name)["shared"] = -1
        for name in DICT_SUM | DICT_HIGH_WATER:
            assert a.as_dict()[name]["shared"] != -1 and getattr(b, name)["shared"] != -1


class TestKernels:
    def test_distance_kernel_returns_distances_and_charges(self, device, rng):
        metric = EuclideanDistance()
        pts = rng.normal(size=(64, 3))
        d = distance_kernel(device, metric, pts[0], pts)
        assert len(d) == 64
        assert d[0] == pytest.approx(0.0, abs=1e-12)
        assert device.stats.kernel_launches == 1
        assert device.stats.total_ops == pytest.approx(64 * metric.unit_cost)

    def test_distance_matrix_kernel(self, device, rng):
        metric = EuclideanDistance()
        xs = rng.normal(size=(5, 3))
        ys = rng.normal(size=(7, 3))
        table = distance_matrix_kernel(device, metric, xs, ys)
        assert table.shape == (5, 7)
        assert device.stats.total_ops == pytest.approx(35 * metric.unit_cost)

    def test_elementwise_kernel(self, device):
        arr = np.arange(10.0)
        out = elementwise_kernel(device, lambda x: x * 2, arr)
        np.testing.assert_array_equal(out, arr * 2)
        assert device.stats.kernel_launches == 1

    def test_sort_kernel_returns_argsort(self, device, rng):
        keys = rng.normal(size=100)
        order = sort_kernel(device, keys)
        assert np.all(np.diff(keys[order]) >= 0)
        assert device.stats.sorted_elements == 100

    def test_reduce_kernel(self, device, rng):
        arr = rng.normal(size=50)
        assert reduce_kernel(device, np.max, arr) == pytest.approx(arr.max())

    def test_topk_kernel_smallest(self, device, rng):
        values = rng.normal(size=200)
        idx = topk_kernel(device, values, 5)
        expected = np.sort(values)[:5]
        np.testing.assert_allclose(np.sort(values[idx]), expected)

    def test_topk_kernel_k_larger_than_n(self, device):
        values = np.array([3.0, 1.0, 2.0])
        idx = topk_kernel(device, values, 10)
        assert len(idx) == 3

    def test_topk_kernel_k_zero(self, device):
        assert len(topk_kernel(device, np.array([1.0]), 0)) == 0


class TestCPUExecutor:
    def test_execute_charges_sequential_time(self):
        cpu = CPUExecutor(CPUSpec(cores=1, op_time=1e-9))
        elapsed = cpu.execute(1000)
        assert elapsed == pytest.approx(1e-6)
        assert cpu.stats.total_ops == 1000

    def test_negative_ops_rejected(self):
        with pytest.raises(ValueError):
            CPUExecutor().execute(-5)

    def test_distances_helper(self, rng):
        cpu = CPUExecutor()
        metric = EuclideanDistance()
        pts = rng.normal(size=(10, 2))
        d = cpu.distances(metric, pts[0], pts)
        assert len(d) == 10
        assert cpu.stats.total_ops > 0

    def test_snapshot_and_reset(self):
        cpu = CPUExecutor()
        cpu.execute(10)
        snap = cpu.snapshot()
        cpu.execute(10)
        assert cpu.stats.total_ops == 20 and snap.total_ops == 10
        cpu.reset_stats()
        assert cpu.stats.total_ops == 0


class TestTiming:
    def test_throughput_per_minute(self):
        assert throughput_per_minute(60, 60.0) == pytest.approx(60.0)
        assert throughput_per_minute(0, 10.0) == 0.0
        assert throughput_per_minute(10, 0.0) == float("inf")

    def test_measure_context_captures_delta(self, device):
        device.launch_kernel(10)
        with measure(device, num_queries=4) as run:
            device.launch_kernel(10)
            device.launch_kernel(10)
        assert run.stats.kernel_launches == 2
        assert run.num_queries == 4
        assert run.throughput > 0
