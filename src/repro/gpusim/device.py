"""Simulated GPU device: memory manager + SIMT timing model.

The :class:`Device` is the substrate every "GPU-based" method in this
repository runs on.  It does two jobs:

1. **Memory accounting.**  Allocations are explicit and bounded by the spec's
   ``memory_bytes``.  Exceeding the capacity raises
   :class:`~repro.exceptions.DeviceMemoryError`; algorithms that cannot make
   progress because intermediate results fill the device raise
   :class:`~repro.exceptions.MemoryDeadlockError`.  This is what lets the
   reproduction exhibit the out-of-memory / memory-deadlock behaviour the
   paper reports for EGNAT, GPU-Tree, GANNS and LBPG-Tree (Figs. 9 and 11)
   and what forces GTS's two-stage query grouping to kick in.

2. **Timing.**  Work is submitted as *kernels*: a kernel processing ``W``
   independent work items of per-item cost ``c`` on a device with ``C`` cores
   takes ``launch_overhead + ceil(W / C) * c * op_time`` simulated seconds.
   ``ceil(W / C)`` is exactly the paper's ``⌈n/C⌉`` term; sorting uses the
   ``⌈n/C⌉ * log2 n`` term of Section 4.5.  Host↔device transfers are charged
   at ``bytes / transfer_bandwidth``.

The device never executes user code itself — callers do the actual arithmetic
with NumPy and tell the device how much *parallel* work it represented.  That
keeps the simulation honest (the numbers cannot depend on Python overhead)
while still producing the relative performance shapes of the paper.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

import numpy as np

from ..exceptions import DeviceMemoryError, KernelError, MemoryLeakError
from .specs import DeviceSpec
from .stats import ExecutionStats

__all__ = ["Device", "Allocation", "DeviceArray", "DEFAULT_POOL"]

#: Pool that unqualified allocations are charged to.
DEFAULT_POOL = "main"


@dataclass
class Allocation:
    """Handle to a live region of simulated device memory."""

    alloc_id: int
    nbytes: int
    label: str
    freed: bool = False
    #: memory pool the allocation is accounted under (per-pool high-water
    #: marks land in ``ExecutionStats.pool_peak_bytes``)
    pool: str = DEFAULT_POOL


class DeviceArray:
    """A NumPy array whose storage is accounted against a :class:`Device`.

    The data itself lives in host memory (it is a plain ``numpy.ndarray``),
    but its size is charged to the simulated device so that memory-capacity
    effects are reproduced.  Freeing the array releases the simulated memory;
    the NumPy buffer is dropped with it.
    """

    def __init__(self, device: "Device", data: np.ndarray, allocation: Allocation):
        self._device = device
        self._data: Optional[np.ndarray] = data
        self._allocation = allocation

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            raise KernelError("device array used after free")
        return self._data

    @property
    def nbytes(self) -> int:
        return self._allocation.nbytes

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def free(self) -> None:
        """Release the simulated device memory backing this array."""
        if self._data is not None:
            self._device.free(self._allocation)
            self._data = None

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "freed" if self._data is None else f"shape={self._data.shape}"
        return f"DeviceArray({self._allocation.label!r}, {state})"


class Device:
    """A simulated GPU with bounded memory and a SIMT cost model."""

    def __init__(self, spec: Optional[DeviceSpec] = None):
        self.spec = spec or DeviceSpec()
        self.stats = ExecutionStats()
        self._used_bytes = 0
        self._next_alloc_id = 0
        self._live: Dict[int, Allocation] = {}
        self._pool_used: Dict[str, int] = {}

    # ------------------------------------------------------------ memory API
    @property
    def capacity_bytes(self) -> int:
        """Total simulated device memory."""
        return self.spec.memory_bytes

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        return self._used_bytes

    @property
    def available_bytes(self) -> int:
        """Bytes still free for allocation."""
        return self.spec.memory_bytes - self._used_bytes

    def allocate(self, nbytes: int, label: str = "buffer", pool: str = DEFAULT_POOL) -> Allocation:
        """Reserve ``nbytes`` of device memory.

        ``pool`` names the accounting pool the bytes are charged under —
        pools share the device's physical capacity but keep independent
        high-water marks in ``stats.pool_peak_bytes``, so multi-pool
        workflows (tree storage vs. paged object blocks vs. per-query
        workspace) can report what actually pinned memory.

        Raises :class:`DeviceMemoryError` when the request does not fit.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise KernelError(f"allocation size must be non-negative, got {nbytes}")
        if nbytes > self.available_bytes:
            raise DeviceMemoryError(nbytes, self.available_bytes, self.capacity_bytes)
        self._next_alloc_id += 1
        alloc = Allocation(self._next_alloc_id, nbytes, label, pool=pool)
        self._live[alloc.alloc_id] = alloc
        self._used_bytes += nbytes
        self._pool_used[pool] = self._pool_used.get(pool, 0) + nbytes
        self.stats.allocations += 1
        self.stats.peak_memory_bytes = max(self.stats.peak_memory_bytes, self._used_bytes)
        self.stats.pool_peak_bytes[pool] = max(
            self.stats.pool_peak_bytes.get(pool, 0), self._pool_used[pool]
        )
        return alloc

    def free(self, allocation: Allocation) -> None:
        """Release a previous allocation (idempotent)."""
        if allocation.freed:
            return
        live = self._live.pop(allocation.alloc_id, None)
        if live is None:
            return
        allocation.freed = True
        self._used_bytes -= allocation.nbytes
        self._pool_used[allocation.pool] = self._pool_used.get(allocation.pool, 0) - allocation.nbytes
        self.stats.frees += 1

    def free_all(self) -> None:
        """Release every live allocation (used when an index is dropped)."""
        for alloc in list(self._live.values()):
            self.free(alloc)

    def alloc_array(
        self, shape, dtype=np.float64, label: str = "array", fill=None
    ) -> DeviceArray:
        """Allocate a device-resident NumPy array of the given shape."""
        dtype = np.dtype(dtype)
        size = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
        nbytes = size * dtype.itemsize
        allocation = self.allocate(nbytes, label=label)
        if fill is None:
            data = np.zeros(shape, dtype=dtype)
        else:
            data = np.full(shape, fill, dtype=dtype)
        return DeviceArray(self, data, allocation)

    def to_device(self, array: np.ndarray, label: str = "h2d") -> DeviceArray:
        """Copy a host array to the device, charging the transfer time."""
        array = np.asarray(array)
        self.transfer_to_device(array.nbytes)
        allocation = self.allocate(array.nbytes, label=label)
        return DeviceArray(self, array.copy(), allocation)

    def live_allocations(self) -> list[Allocation]:
        """Return the currently live allocations (for diagnostics/tests)."""
        return list(self._live.values())

    def pool_used_bytes(self, pool: str = DEFAULT_POOL) -> int:
        """Bytes currently allocated under the named pool."""
        return self._pool_used.get(pool, 0)

    # ------------------------------------------------------------ leak guard
    def assert_no_leaks(self, baseline: Optional[set] = None) -> None:
        """Fail loudly when allocations are live that should have been freed.

        With ``baseline`` omitted every live allocation counts as a leak;
        passing a set of allocation ids (as :meth:`leak_guard` does) only
        flags allocations created since the baseline was captured.  Raises
        :class:`~repro.exceptions.MemoryLeakError` naming the leaked labels.
        """
        leaked = [
            alloc
            for alloc in self._live.values()
            if baseline is None or alloc.alloc_id not in baseline
        ]
        if leaked:
            summary = ", ".join(
                f"{alloc.label}[{alloc.pool}]={alloc.nbytes}B" for alloc in leaked[:8]
            )
            if len(leaked) > 8:
                summary += f", ... ({len(leaked) - 8} more)"
            raise MemoryLeakError(
                f"{len(leaked)} simulated allocation(s) leaked "
                f"({sum(a.nbytes for a in leaked)} bytes): {summary}"
            )

    @contextmanager
    def leak_guard(self) -> Iterator["Device"]:
        """Context manager asserting the block frees everything it allocates.

        Only allocations made *inside* the block are checked, so a guard can
        wrap individual operations against a device that already holds an
        index.  The check is skipped when the block raises, letting the
        original error surface.
        """
        baseline = set(self._live)
        yield self
        self.assert_no_leaks(baseline=baseline)

    # ---------------------------------------------------------- timing model
    def parallel_steps_for(self, work_items: int) -> int:
        """Number of sequential rounds needed for ``work_items`` on this device."""
        if work_items <= 0:
            return 0
        return math.ceil(work_items / self.spec.cores)

    def launch_kernel(
        self,
        work_items: int,
        op_cost: float = 1.0,
        label: str = "kernel",
        host_time: float = 0.0,
    ) -> float:
        """Record the launch of one kernel over ``work_items`` independent items.

        Parameters
        ----------
        work_items:
            Number of independent work items (threads' worth of work).
        op_cost:
            Abstract operations per item; e.g. a distance computation passes
            the metric's ``unit_cost`` times the per-distance operation count.
        label:
            Debug label (not interpreted).
        host_time:
            Optional wall-clock seconds the caller spent doing the actual
            NumPy work, recorded for diagnostics.

        Returns
        -------
        float
            Simulated seconds charged for this kernel.
        """
        work_items = int(work_items)
        if work_items < 0:
            raise KernelError(f"work_items must be non-negative, got {work_items}")
        if op_cost < 0:
            raise KernelError(f"op_cost must be non-negative, got {op_cost}")
        steps = self.parallel_steps_for(work_items)
        elapsed = self.spec.kernel_launch_overhead + steps * op_cost * self.spec.op_time
        self.stats.kernel_launches += 1
        self.stats.parallel_steps += steps
        self.stats.total_ops += work_items * op_cost
        self.stats.sim_time += elapsed
        self.stats.host_time += host_time
        return elapsed

    def sort_cost(self, n: int, op_cost: float = 1.0, label: str = "sort") -> float:
        """Charge the cost of a device-wide parallel sort of ``n`` keys.

        Follows the paper's ``O(⌈n/C⌉ · log2 n)`` term for GPU sorting
        (Section 4.5, citing [30]).
        """
        n = int(n)
        if n <= 1:
            return 0.0
        steps = self.parallel_steps_for(n) * max(1.0, math.log2(n))
        elapsed = self.spec.kernel_launch_overhead + steps * op_cost * self.spec.op_time
        self.stats.kernel_launches += 1
        self.stats.parallel_steps += int(math.ceil(steps))
        self.stats.total_ops += n * max(1.0, math.log2(n)) * op_cost
        self.stats.sorted_elements += n
        self.stats.sim_time += elapsed
        return elapsed

    def transfer_to_device(
        self, nbytes: int, label: Optional[str] = None, latency: float = 0.0
    ) -> float:
        """Charge a host→device copy of ``nbytes``.

        ``latency`` adds a fixed per-transaction cost (e.g. the PCIe fault
        round-trip the block pager models); ``label`` attributes the elapsed
        seconds under ``stats.transfer_seconds[label]`` so flows like pager
        traffic stay distinguishable from bulk loads.
        """
        nbytes = int(nbytes)
        if latency < 0:
            raise KernelError(f"transfer latency must be non-negative, got {latency}")
        elapsed = latency + nbytes / self.spec.transfer_bandwidth
        self.stats.bytes_to_device += nbytes
        self.stats.sim_time += elapsed
        if label is not None:
            self.stats.transfer_seconds[label] = (
                self.stats.transfer_seconds.get(label, 0.0) + elapsed
            )
        return elapsed

    def transfer_to_host(
        self, nbytes: int, label: Optional[str] = None, latency: float = 0.0
    ) -> float:
        """Charge a device→host copy of ``nbytes`` (see :meth:`transfer_to_device`)."""
        nbytes = int(nbytes)
        if latency < 0:
            raise KernelError(f"transfer latency must be non-negative, got {latency}")
        elapsed = latency + nbytes / self.spec.transfer_bandwidth
        self.stats.bytes_to_host += nbytes
        self.stats.sim_time += elapsed
        if label is not None:
            self.stats.transfer_seconds[label] = (
                self.stats.transfer_seconds.get(label, 0.0) + elapsed
            )
        return elapsed

    def absorb(self, stats: ExecutionStats, sim_time: Optional[float] = None) -> float:
        """Fold another executor's activity delta into this device's timeline.

        The multi-device sharding layer (:mod:`repro.shard`) runs shards on
        independent devices *in parallel*, so the coordinating timeline must
        advance by the round's **makespan** — pass it as ``sim_time`` — while
        the additive work counters (kernel launches, ops, transfers) keep
        their true totals across shards.  With ``sim_time`` omitted the
        delta's own ``sim_time`` is charged (serial host-side work).  Memory
        counters (allocations, frees, peak) describe the *other* device's
        memory and are not folded in.  Returns the seconds charged.
        """
        elapsed = stats.sim_time if sim_time is None else float(sim_time)
        if elapsed < 0:
            raise KernelError(f"absorbed sim_time must be non-negative, got {elapsed}")
        self.stats.absorb(stats, elapsed)
        return elapsed

    # ------------------------------------------------------------- lifecycle
    def snapshot(self) -> ExecutionStats:
        """Return a copy of the current counters (for delta measurements)."""
        return self.stats.copy()

    def reset_stats(self) -> None:
        """Zero the counters without touching live allocations."""
        self.stats.reset()
        self.stats.peak_memory_bytes = self._used_bytes
        self.stats.pool_peak_bytes = {
            pool: used for pool, used in self._pool_used.items() if used > 0
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        used = self._used_bytes / (1024 ** 2)
        cap = self.capacity_bytes / (1024 ** 2)
        return f"Device({self.spec.name!r}, {used:.1f}/{cap:.1f} MiB used)"
