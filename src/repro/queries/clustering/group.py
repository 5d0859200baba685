"""Density-based segment grouping (TRACLUS phase 2).

A DBSCAN pass over line segments using the three-component segment distance:
a segment with at least ``min_lns`` segments within ``eps`` is a core; cores
expand clusters transitively; border segments join the first reaching
cluster; everything else is noise (label ``-1``).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.queries.clustering.distances import segment_distance_blocks


def dbscan_segments(
    segments: np.ndarray,
    eps: float,
    min_lns: int,
) -> np.ndarray:
    """Cluster an ``(n, 2, 2)`` stack of segments; returns ``(n,)`` labels.

    Labels are 0-based cluster ids, with ``-1`` for noise.
    """
    n = len(segments)
    if n == 0:
        return np.empty(0, dtype=int)
    if eps < 0:
        raise ValueError("eps must be non-negative")
    # Neighbour lists are built one block of rows at a time: time is still
    # O(n^2) distance evaluations, memory O(block x n) plus the lists.
    neighbours = [
        np.flatnonzero(row <= eps)
        for _, block in segment_distance_blocks(segments)
        for row in block
    ]
    is_core = np.array([len(nb) >= min_lns for nb in neighbours])

    labels = np.full(n, -1, dtype=int)
    cluster_id = 0
    for seed in range(n):
        if labels[seed] != -1 or not is_core[seed]:
            continue
        labels[seed] = cluster_id
        queue = deque(neighbours[seed].tolist())
        while queue:
            j = queue.popleft()
            if labels[j] == -1:
                labels[j] = cluster_id
                if is_core[j]:
                    queue.extend(
                        k for k in neighbours[j].tolist() if labels[k] == -1
                    )
        cluster_id += 1
    return labels
