"""TRACLUS orchestration: partition every trajectory, group the segments.

The clustering query of the paper runs TRACLUS on a database and measures
quality as the pair-counting F1 between the trajectory co-cluster pairs of
the original and the simplified database (Section III-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.database import TrajectoryDatabase
from repro.queries.clustering.group import dbscan_segments
from repro.queries.clustering.partition import characteristic_segments
from repro.queries.metrics import clustering_pairs


@dataclass(frozen=True, slots=True)
class TraclusConfig:
    """TRACLUS parameters.

    ``eps`` is in the same units as the data (metres for the synthetic
    profiles); ``min_lns`` is the DBSCAN density threshold; clusters drawing
    segments from fewer than ``min_trajectories`` distinct trajectories are
    discarded as noise (the paper's trajectory-cardinality check).
    """

    eps: float = 500.0
    min_lns: int = 3
    min_trajectories: int = 2


@dataclass(slots=True)
class TraclusResult:
    """Output of :func:`traclus_cluster`."""

    labels: np.ndarray  # (n_segments,) cluster ids, -1 noise
    segment_owners: np.ndarray  # (n_segments,) trajectory ids
    clusters: list[set[int]] = field(default_factory=list)  # traj ids per cluster

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def trajectory_pairs(self) -> set[frozenset[int]]:
        """Unordered trajectory pairs that share at least one cluster."""
        return clustering_pairs(self.clusters)


def traclus_cluster(
    db: TrajectoryDatabase,
    config: TraclusConfig | None = None,
) -> TraclusResult:
    """Run TRACLUS on a database."""
    config = config or TraclusConfig()
    all_segments: list[np.ndarray] = []
    owners: list[int] = []
    for traj in db:
        segments, _ = characteristic_segments(traj)
        all_segments.extend(segments)
        owners.extend([traj.traj_id] * len(segments))
    segment_stack = (
        np.stack(all_segments) if all_segments else np.empty((0, 2, 2))
    )
    owner_arr = np.asarray(owners, dtype=int)
    labels = dbscan_segments(segment_stack, config.eps, config.min_lns)

    clusters: list[set[int]] = []
    for cluster_id in range(labels.max() + 1 if len(labels) else 0):
        members = set(owner_arr[labels == cluster_id].tolist())
        if len(members) >= config.min_trajectories:
            clusters.append(members)
    return TraclusResult(labels=labels, segment_owners=owner_arr, clusters=clusters)
