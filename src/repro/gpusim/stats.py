"""Execution statistics collected by the simulated device.

Every kernel launch, sort, transfer and allocation on a
:class:`~repro.gpusim.device.Device` updates an :class:`ExecutionStats`
instance.  The evaluation harness converts the accumulated ``sim_time`` into
the throughput numbers (queries/min) that the paper's figures report, and the
tests assert on the structural counters (kernel launches, parallel steps,
distance-op counts) to verify that the algorithms behave as described.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from typing import Callable, Dict

__all__ = ["ExecutionStats"]


def _merge_max(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, int]:
    out = dict(a)
    for key, value in b.items():
        out[key] = max(out.get(key, 0), value)
    return out


def _merge_sum(a: Dict[str, float], b: Dict[str, float]) -> Dict[str, float]:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0.0) + value
    return out


@dataclass(frozen=True)
class _Rule:
    """How one counter combines: ``merge(a, b)``, ``delta(now, earlier)``,
    ``scale(value, factor)``; ``keyed`` counters are per-name dicts."""

    merge: Callable
    delta: Callable
    scale: Callable
    keyed: bool = False


#: additive counter
SUM = _Rule(merge=operator.add, delta=operator.sub, scale=operator.mul)
#: high-water mark: merged by max, carried unchanged by deltas and scaling
HIGH_WATER = _Rule(merge=max, delta=lambda now, _: now, scale=lambda value, _: value)
#: additive counter per named flow
DICT_SUM = _Rule(
    merge=_merge_sum,
    delta=lambda now, earlier: {k: v - earlier.get(k, 0.0) for k, v in now.items()},
    scale=lambda value, factor: {k: v * factor for k, v in value.items()},
    keyed=True,
)
#: high-water mark per named pool
DICT_HIGH_WATER = _Rule(
    merge=_merge_max,
    delta=lambda now, _: dict(now),
    scale=lambda value, _: dict(value),
    keyed=True,
)


def _counter(rule: _Rule = SUM, default=0, absorbed: bool = True):
    """A stats field combined by ``rule``.

    ``absorbed=False`` marks a counter that describes one device's own
    memory, which :meth:`ExecutionStats.absorb` does not fold into another
    timeline.
    """
    metadata = {"rule": rule, "absorbed": absorbed}
    if rule.keyed:
        return field(default_factory=dict, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class ExecutionStats:
    """Mutable accumulator of simulated execution activity.

    Every operation below is generated from the fields' rules, so a new
    counter only needs its declaration.
    """

    kernel_launches: int = _counter()
    parallel_steps: int = _counter()
    total_ops: float = _counter(default=0.0)
    sorted_elements: int = _counter()
    bytes_to_device: int = _counter()
    bytes_to_host: int = _counter()
    allocations: int = _counter(absorbed=False)
    frees: int = _counter(absorbed=False)
    peak_memory_bytes: int = _counter(HIGH_WATER, absorbed=False)
    sim_time: float = _counter(default=0.0)
    #: wall-clock seconds spent inside simulated kernels (host-side NumPy work)
    host_time: float = _counter(default=0.0)
    #: per-pool high-water marks of allocated bytes (e.g. "tree" vs "pager");
    #: ``peak_memory_bytes`` remains the device-wide mark across all pools
    pool_peak_bytes: Dict[str, int] = _counter(DICT_HIGH_WATER, absorbed=False)
    #: simulated transfer seconds attributed to named flows (e.g. "pager-h2d",
    #: "pager-d2h", "results-d2h"); a subset of ``sim_time``
    transfer_seconds: Dict[str, float] = _counter(DICT_SUM)
    #: simulated seconds spent inside incremental-maintenance slices
    #: (generation-swap rebuild work, DESIGN.md §9); a subset of ``sim_time``
    maintenance_seconds: float = _counter(default=0.0)

    def merge(self, other: "ExecutionStats") -> "ExecutionStats":
        """Return a new stats object that is the element-wise sum of both
        (high-water marks take the maximum)."""
        mine, theirs = vars(self), vars(other)
        return ExecutionStats(**{
            name: rule.merge(mine[name], theirs[name]) for name, rule, _ in _FIELD_RULES
        })

    def delta_since(self, earlier: "ExecutionStats") -> "ExecutionStats":
        """Return the activity that happened after ``earlier`` was snapshotted.

        High-water marks are not differences: the delta carries the current
        marks.
        """
        now, then = vars(self), vars(earlier)
        return ExecutionStats(**{
            name: rule.delta(now[name], then[name]) for name, rule, _ in _FIELD_RULES
        })

    def copy(self) -> "ExecutionStats":
        """Return an independent snapshot of the current counters."""
        return ExecutionStats(**self.as_dict())

    def scale(self, factor: float) -> "ExecutionStats":
        """Return a copy with every additive counter multiplied by ``factor``.

        Used to attribute the cost of a shared micro-batch to its individual
        requests: a batch of ``n`` requests whose dispatch cost ``stats``
        charges each request ``stats.scale(1 / n)``.  Scaled counters are
        left as floats (fractional kernel launches, bytes, ...) so that
        summing the per-request shares reproduces the batch totals exactly;
        high-water marks are not additive quantities, so they are carried
        over unscaled.
        """
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        mine = vars(self)
        return ExecutionStats(**{
            name: rule.scale(mine[name], factor) for name, rule, _ in _FIELD_RULES
        })

    def absorb(self, other: "ExecutionStats", sim_time: float) -> None:
        """Fold ``other``'s absorbed counters into these, in place.

        The timeline advances by ``sim_time`` instead of ``other.sim_time``
        (see :meth:`repro.gpusim.device.Device.absorb`); memory counters
        (allocations, frees, peaks) are left alone.
        """
        mine, theirs = vars(self), vars(other)
        for name, rule, absorbed in _FIELD_RULES:
            if absorbed:
                value = sim_time if name == "sim_time" else theirs[name]
                mine[name] = rule.merge(mine[name], value)

    def as_dict(self) -> dict:
        """Return the counters as a plain dictionary (for reports/JSON)."""
        mine = vars(self)
        return {
            name: dict(mine[name]) if rule.keyed else mine[name]
            for name, rule, _ in _FIELD_RULES
        }

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, f.default_factory() if f.metadata["rule"].keyed else f.default)


#: ``(name, rule, absorbed)`` of every field, in declaration order
_FIELD_RULES = tuple(
    (f.name, f.metadata["rule"], f.metadata["absorbed"]) for f in fields(ExecutionStats)
)
