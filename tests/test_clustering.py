"""Unit tests for the TRACLUS substrate (partition, distance, group)."""

import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.data import Trajectory, TrajectoryDatabase
from repro.queries.clustering import (
    TraclusConfig,
    dbscan_segments,
    mdl_partition,
    segment_distance,
    traclus_cluster,
)
from repro.queries.clustering.partition import characteristic_segments
from tests.conftest import segment_stacks


def seg(x1, y1, x2, y2):
    return np.array([[x1, y1], [x2, y2]], dtype=float)


class TestSegmentDistance:
    def test_identical_zero(self):
        s = seg(0, 0, 10, 0)
        assert segment_distance(s, s) == pytest.approx(0.0)

    def test_symmetric(self):
        a, b = seg(0, 0, 10, 0), seg(2, 3, 9, 4)
        assert segment_distance(a, b) == pytest.approx(segment_distance(b, a))

    def test_parallel_offset_is_perpendicular(self):
        a = seg(0, 0, 10, 0)
        b = seg(0, 2, 10, 2)
        # Same length/direction, 2 apart: d_perp = 2, d_para = 0, d_theta = 0.
        assert segment_distance(a, b) == pytest.approx(2.0)

    def test_perpendicular_component_is_lehmer_mean(self):
        a = seg(0, 0, 10, 0)
        b = seg(0, 1, 8, 3)  # strictly shorter, so it projects onto a
        expected_perp = (1.0**2 + 3.0**2) / (1.0 + 3.0)
        assert segment_distance(a, b, w_para=0.0, w_theta=0.0) == pytest.approx(
            expected_perp
        )

    def test_angular_component(self):
        a = seg(0, 0, 10, 0)
        b = seg(0, 0, 0, 4)  # orthogonal, length 4
        assert segment_distance(a, b, w_perp=0.0, w_para=0.0) == pytest.approx(4.0)

    def test_opposite_direction_full_length(self):
        a = seg(0, 0, 10, 0)
        b = seg(5, 1, 1, 1)  # anti-parallel, length 4
        assert segment_distance(a, b, w_perp=0.0, w_para=0.0) == pytest.approx(4.0)

    def test_weights_scale_components(self):
        a, b = seg(0, 0, 10, 0), seg(0, 2, 10, 2)
        assert segment_distance(a, b, w_perp=3.0) == pytest.approx(6.0)

    def test_degenerate_point_segment(self):
        a = seg(0, 0, 10, 0)
        b = seg(4, 5, 4, 5)
        d = segment_distance(a, b)
        assert np.isfinite(d) and d > 0


class TestMDLPartition:
    def test_straight_line_collapses(self):
        # 10-unit steps: keeping every segment costs 29 * log2(10) bits while
        # one anchor costs log2(290), so MDL collapses the line.
        xs = np.arange(30.0) * 10
        t = Trajectory(np.column_stack([xs, np.zeros(30), np.arange(30.0)]))
        idx = mdl_partition(t)
        assert idx[0] == 0 and idx[-1] == 29
        assert len(idx) <= 5  # near-total collapse

    def test_sharp_corner_kept(self):
        # L-shaped route: the corner should survive partitioning.
        n = 21
        xy = np.zeros((n, 2))
        xy[:11, 0] = np.arange(11.0) * 10
        xy[11:, 0] = 100.0
        xy[11:, 1] = np.arange(1, 11.0) * 10
        t = Trajectory(np.column_stack([xy, np.arange(n)]))
        idx = mdl_partition(t)
        corner_zone = set(range(9, 13))
        assert corner_zone & set(idx)

    def test_endpoints_always_present(self, random_trajectory):
        idx = mdl_partition(random_trajectory)
        assert idx[0] == 0
        assert idx[-1] == len(random_trajectory) - 1
        assert idx == sorted(idx)

    def test_characteristic_segments_align_with_spans(self, random_trajectory):
        segments, spans = characteristic_segments(random_trajectory)
        assert len(segments) == len(spans)
        for segment, (s, e) in zip(segments, spans):
            assert np.allclose(segment[0], random_trajectory.xy[s])
            assert np.allclose(segment[1], random_trajectory.xy[e])


def scalar_distances(segments):
    """Pairwise scalar distances; the lower index of each pair is ``seg_a``."""
    n = len(segments)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dist[i, j] = dist[j, i] = segment_distance(segments[i], segments[j])
    return dist


def dbscan_reference(dist, eps, min_lns):
    """DBSCAN over a full distance matrix: the reference the blocked
    neighbour lists of :func:`dbscan_segments` must reproduce."""
    n = len(dist)
    neighbours = [np.flatnonzero(dist[i] <= eps) for i in range(n)]
    is_core = [len(nb) >= min_lns for nb in neighbours]
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
                    queue.extend(k for k in neighbours[j].tolist() if labels[k] == -1)
        cluster_id += 1
    return labels


class TestDBSCAN:
    def test_empty_input(self):
        labels = dbscan_segments(np.empty((0, 2, 2)), eps=1.0, min_lns=2)
        assert len(labels) == 0

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            dbscan_segments(np.zeros((2, 2, 2)), eps=-1.0, min_lns=2)

    def test_two_bundles_two_clusters(self):
        bundle_a = [seg(0, i * 0.1, 10, i * 0.1) for i in range(5)]
        bundle_b = [seg(100, 100 + i * 0.1, 110, 100 + i * 0.1) for i in range(5)]
        segments = np.stack(bundle_a + bundle_b)
        labels = dbscan_segments(segments, eps=2.0, min_lns=3)
        assert set(labels[:5]) == {0} or set(labels[:5]) == {1}
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_isolated_segment_is_noise(self):
        bundle = [seg(0, i * 0.1, 10, i * 0.1) for i in range(5)]
        outlier = [seg(1000, 1000, 1010, 1000)]
        labels = dbscan_segments(np.stack(bundle + outlier), eps=2.0, min_lns=3)
        assert labels[-1] == -1

    def test_labels_contiguous_from_zero(self):
        bundle_a = [seg(0, i * 0.1, 10, i * 0.1) for i in range(4)]
        bundle_b = [seg(50, 50 + i * 0.1, 60, 50 + i * 0.1) for i in range(4)]
        labels = dbscan_segments(np.stack(bundle_a + bundle_b), eps=2.0, min_lns=3)
        found = set(labels) - {-1}
        assert found == set(range(len(found)))

    @settings(max_examples=100, deadline=None)
    @given(
        segments=segment_stacks(),
        eps_frac=st.floats(0.0, 1.1),
        min_lns=st.integers(1, 4),
    )
    def test_labels_match_scalar_reference(self, segments, eps_frac, min_lns):
        dist = scalar_distances(segments)
        eps = eps_frac * float(dist.max())
        pairs = dist[np.triu_indices(len(segments), 1)]
        # No pair may sit within rounding of eps, where <= could flip.
        assume(np.all(np.abs(pairs - eps) > 1e-9 * np.maximum(pairs, eps)))
        labels = dbscan_segments(segments, eps=eps, min_lns=min_lns)
        assert np.array_equal(labels, dbscan_reference(dist, eps, min_lns))

    def test_peak_memory_is_blocked_not_quadratic(self):
        # About the size of the evaluation's clustering truth subset; a full
        # distance matrix alone would take 8 * n * n bytes.
        n = 800
        rng = np.random.default_rng(3)
        start = rng.uniform(0.0, 2000.0, size=(n, 2))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
        step = rng.uniform(10.0, 300.0, size=(n, 1))
        end = start + step * np.column_stack([np.cos(angle), np.sin(angle)])
        segments = np.stack([start, end], axis=1)
        tracemalloc.start()
        try:
            labels = dbscan_segments(segments, eps=100.0, min_lns=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels.max() >= 1  # real neighbourhoods, not all noise
        assert peak < 8 * n * n


class TestTraclus:
    def _corridor_db(self):
        """Two corridors of co-moving trajectories + one outlier."""
        trajectories = []
        tid = 0
        for base_y in (0.0, 500.0):
            for offset in range(4):
                xs = np.arange(12.0) * 10
                ys = np.full(12, base_y + offset * 2.0)
                ts = np.arange(12.0) + tid  # unique times, still increasing
                trajectories.append(
                    Trajectory(np.column_stack([xs, ys, ts]), traj_id=tid)
                )
                tid += 1
        # Outlier wandering far away.
        xs = 4000 + np.arange(12.0) * 10
        trajectories.append(
            Trajectory(np.column_stack([xs, xs, np.arange(12.0)]), traj_id=tid)
        )
        return TrajectoryDatabase(trajectories)

    def test_corridors_clustered_separately(self):
        db = self._corridor_db()
        result = traclus_cluster(db, TraclusConfig(eps=20.0, min_lns=3))
        assert result.n_clusters >= 2
        pairs = result.trajectory_pairs()
        # Same-corridor pairs present, cross-corridor absent.
        assert frozenset((0, 1)) in pairs
        assert frozenset((4, 5)) in pairs
        assert frozenset((0, 4)) not in pairs

    def test_outlier_not_in_any_cluster(self):
        db = self._corridor_db()
        result = traclus_cluster(db, TraclusConfig(eps=20.0, min_lns=3))
        outlier_id = len(db) - 1
        for members in result.clusters:
            assert outlier_id not in members

    def test_min_trajectories_filters_clusters(self):
        db = self._corridor_db()
        strict = traclus_cluster(
            db, TraclusConfig(eps=20.0, min_lns=3, min_trajectories=100)
        )
        assert strict.n_clusters == 0

    def test_result_arrays_aligned(self, geolife_db):
        sub = geolife_db.subset(range(6))
        result = traclus_cluster(sub, TraclusConfig(eps=200.0, min_lns=2))
        assert len(result.labels) == len(result.segment_owners)
