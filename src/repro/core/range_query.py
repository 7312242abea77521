"""Batch metric range query (MRQ) over a GTS tree — Algorithm 4.

A range query is a kNN query whose bound never moves: Lemma 5.1 prunes with
the fixed radius where Lemma 5.2 uses the running k-th distance.  The batch
therefore runs the shared level-synchronous descent of
:mod:`repro.core.knn_query` with a candidate pool built from per-query radii;
the pool keeps only the objects within each query's radius, so every pivot
met on the way down and every verified leaf object within the radius is
reported.  Results are exact.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..exceptions import QueryError
from ..gpusim.device import Device
from ..metrics.base import Metric
from .cache_table import CacheTable
from .knn_query import search_batch
from .nodes import TreeStructure
from .searchcommon import PruneMode, broadcast_query_param

# Re-exported for the layer tracer of perfbench, which wraps both names here.
from .searchcommon import prune_children, segmented_distances  # noqa: F401

__all__ = ["batch_range_query"]


def batch_range_query(
    tree: TreeStructure,
    objects: Sequence,
    metric: Metric,
    device: Device,
    queries: Sequence,
    radii,
    exclude: Optional[set] = None,
    cache: Optional[CacheTable] = None,
    prune_mode: str | PruneMode = "two-sided",
) -> list[list[tuple[int, float]]]:
    """Answer a batch of metric range queries exactly.

    Parameters
    ----------
    queries:
        The query objects (same domain as the indexed objects).
    radii:
        A scalar radius shared by all queries or one radius per query.
    exclude:
        Object ids to ignore (tombstoned deletions).
    cache:
        The cache table of streaming inserts (Section 4.4): the rest of the
        visible set, scanned with one kernel after the tree descent.
    prune_mode:
        ``"two-sided"`` (default) or ``"one-sided"`` (paper-literal ablation).

    Returns
    -------
    One result list per query: ``(object_id, distance)`` pairs sorted by
    distance then id, all within the query's radius.
    """
    radii_arr = broadcast_query_param(radii, len(queries), "radii", np.float64)
    if np.any(radii_arr < 0):
        raise QueryError("range query radius must be non-negative")
    return search_batch(
        tree, objects, metric, device, queries, exclude, cache, prune_mode, radii=radii_arr
    )
