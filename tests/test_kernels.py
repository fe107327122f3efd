"""Distance kernels: exactness, the grid index, and threading knobs."""

import math
import warnings

import numpy as np
import pytest

from cmla import kernels
from cmla.clustering import DbscanParams, dbscan
from cmla.errors import ConfigError
from cmla.kernels import (
    cross_min_distances,
    dists_to,
    kth_neighbor_distances,
    medoid_local_index,
    neighbor_lists,
    thread_count,
)

import reference
from conftest import clustered_cloud, matrix


def test_row_reduction_matches_per_pair_reduction_bitwise(rng):
    # the property every exact cross-check in this suite rests on
    for d in (1, 2, 7, 33):
        x = rng.standard_normal((20, d)) * rng.uniform(0.1, 100)
        a = rng.standard_normal(d)
        row = dists_to(a, x)
        for j in range(len(x)):
            assert row[j] == reference.pair_dist(a, x[j])


def test_neighbor_lists_are_sorted_closed_ball_and_include_self(rng):
    x = clustered_cloud(rng, 80, 3)
    lists = neighbor_lists(x, 0.9)
    for i, nb in enumerate(lists):
        assert i in nb
        assert list(nb) == sorted(nb)
        d = dists_to(x[i], x)
        np.testing.assert_array_equal(nb, np.flatnonzero(d <= 0.9))


def test_grid_index_equals_brute_force(rng):
    # same inputs through both paths must give identical neighbor sets
    for d in (1, 2, 3, 6):
        x = clustered_cloud(rng, 300, d, duplicates=0.05)
        for eps in (0.3, 0.9, 2.5):
            brute = neighbor_lists(x, eps, grid_threshold=10**9)
            grid = neighbor_lists(x, eps, grid_threshold=1)
            assert len(brute) == len(grid)
            for a, b in zip(brute, grid):
                np.testing.assert_array_equal(a, b)


def test_grid_index_handles_boundary_coordinates():
    # points exactly on cell boundaries and exactly eps apart
    x = np.array([[0.0], [1.0], [2.0], [2.0], [4.0]])
    brute = neighbor_lists(x, 1.0, grid_threshold=10**9)
    grid = neighbor_lists(x, 1.0, grid_threshold=1)
    for a, b in zip(brute, grid):
        np.testing.assert_array_equal(a, b)
    assert list(brute[1]) == [0, 1, 2, 3]


def test_grid_index_falls_back_to_brute_force_when_cell_keys_overflow(rng):
    # x / eps reaches 1e19 > 2^63 on [0, 1] data: int64 cell keys would wrap
    x = rng.uniform(0.0, 1.0, size=(60, 2))
    x[40:] = x[:20]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = neighbor_lists(x, 1e-19, grid_threshold=1)
    brute = neighbor_lists(x, 1e-19, grid_threshold=10**9)
    for a, b in zip(brute, grid):
        np.testing.assert_array_equal(a, b)
    assert [len(nb) for nb in grid] == [2] * 20 + [1] * 20 + [2] * 20


def test_neighbor_lists_reject_non_positive_eps(rng):
    with pytest.raises(ConfigError, match="eps must be positive"):
        neighbor_lists(np.zeros((3, 1)), 0.0)


def test_kth_neighbor_distances_match_sorted_reference(rng):
    x = clustered_cloud(rng, 60, 2, duplicates=0.1)
    for k in (1, 3, 10):
        out = kth_neighbor_distances(x, k)
        for i in range(len(x)):
            assert out[i] == reference.kth_nn_distance(x, i, k)


def test_kth_neighbor_distance_bounds():
    x = np.zeros((4, 1))
    with pytest.raises(ConfigError, match=r"k must be in \[1, 3\]"):
        kth_neighbor_distances(x, 4)
    with pytest.raises(ConfigError):
        kth_neighbor_distances(x, 0)


def test_medoid_local_index_hand_case():
    # sums of distances: 11, 10, 19, so the middle point wins
    members = np.array([[0.0], [1.0], [10.0]])
    assert medoid_local_index(members) == 1


def test_medoid_local_index_tie_takes_lowest():
    members = np.array([[1.0], [1.0], [1.0]])
    assert medoid_local_index(members) == 0


def exhaustive_medoid(x):
    """Lowest index with the smallest exact (fsum) distance sum."""
    sums = [math.fsum(reference.row_dists(x, i)) for i in range(len(x))]
    return sums.index(min(sums))


def test_medoid_duplicated_optimum_takes_the_lowest_copy(rng):
    core = rng.normal(0.0, 1.0, size=(300, 4))
    best = exhaustive_medoid(core)
    x = core.copy()
    copies = [17, 120, 250]
    x[copies] = core[best]
    want = exhaustive_medoid(x)
    assert want == min(copies + [best])
    assert medoid_local_index(x) == want


def test_medoid_symmetric_layouts_keep_the_exhaustive_tie_rule():
    # every sum ties mathematically; rounding alone separates the rows
    for n in (12, 64, 257):
        angle = 2.0 * np.pi * np.arange(n) / n
        polygon = np.column_stack([np.cos(angle), np.sin(angle)])
        assert medoid_local_index(polygon) == exhaustive_medoid(polygon)
    # the two middle points tie exactly: the lower one wins
    for n in (2, 10, 400):
        line = np.column_stack([np.arange(n, dtype=np.float64), np.zeros(n)])
        assert medoid_local_index(line) == exhaustive_medoid(line) == n // 2 - 1


def test_medoid_with_a_far_outlier_and_a_dense_core(rng):
    x = rng.normal(0.0, 0.01, size=(400, 3))
    x[0] = [1e6, -1e6, 1e6]
    assert medoid_local_index(x) == exhaustive_medoid(x)


def test_medoid_matches_exhaustive_fsum_across_scales(rng):
    # 1e-160 underflows squared differences, 1e160 overflows them to inf
    for scale in (1e-160, 1e-3, 1.0, 1e150, 1e160):
        for d in (1, 2, 9):
            x = clustered_cloud(rng, 150, d, duplicates=0.2) * scale
            with np.errstate(over="ignore", invalid="ignore"):
                assert medoid_local_index(x) == exhaustive_medoid(x), (scale, d)


def test_medoid_computes_few_exact_sums_on_a_large_cluster(rng, monkeypatch):
    # triangle bounds prune well at low intrinsic dimension; an isotropic
    # 9-d gaussian still needs most sums, since its distances concentrate
    x = rng.normal(0.0, 1.0, size=(4000, 2))
    rows = []
    real_dists_to = kernels.dists_to

    def counting(a, points):
        rows.append(a)
        return real_dists_to(a, points)

    monkeypatch.setattr(kernels, "dists_to", counting)
    got = medoid_local_index(x)
    monkeypatch.undo()
    assert got == exhaustive_medoid(x)
    assert len(rows) < len(x) // 10


def test_cross_min_distances_match_double_loop(rng):
    a = rng.standard_normal((17, 4))
    b = rng.standard_normal((40, 4))
    a_min, a_arg, b_min = cross_min_distances(a, b)
    d_min, nearest, per_real, _, _ = reference.double_loop_metrics(a, b, [])
    assert a_min.tolist() == d_min
    assert a_arg.tolist() == nearest
    assert b_min.tolist() == per_real


def test_cross_min_distances_tie_takes_lowest_index():
    a = np.array([[0.0]])
    b = np.array([[1.0], [1.0], [-1.0]])
    _, a_arg, _ = cross_min_distances(a, b)
    assert a_arg[0] == 0


def test_cross_min_distances_reject_empty():
    with pytest.raises(ConfigError):
        cross_min_distances(np.empty((0, 2)), np.zeros((1, 2)))


def test_thread_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("CMLA_THREADS", raising=False)
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert thread_count() == 3
    monkeypatch.setattr(kernels.os, "sched_getaffinity", lambda pid: set(range(32)))
    assert thread_count() == 8
    monkeypatch.setenv("CMLA_THREADS", "12")
    assert thread_count() == 12
    monkeypatch.delenv("CMLA_THREADS")
    monkeypatch.delattr(kernels.os, "sched_getaffinity")
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 2)
    assert thread_count() == 2
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: None)
    assert thread_count() == 1


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("CMLA_THREADS", raising=False)
    assert thread_count() >= 1
    monkeypatch.setenv("CMLA_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("CMLA_THREADS", "0")
    with pytest.raises(ConfigError, match="at least 1"):
        thread_count()
    monkeypatch.setenv("CMLA_THREADS", "many")
    with pytest.raises(ConfigError, match="must be an integer"):
        thread_count()


def test_results_do_not_depend_on_worker_count(rng, monkeypatch):
    # n > 256 so the pool actually engages
    x = clustered_cloud(rng, 400, 3, duplicates=0.1)

    def run():
        labeling = dbscan(matrix(x), DbscanParams(eps=0.8, min_samples=5))
        medoids = [
            medoid_local_index(x[labeling.labels == cid])
            for cid in range(labeling.n_clusters)
        ]
        return kth_neighbor_distances(x, 5), neighbor_lists(x, 0.8), labeling, medoids

    monkeypatch.setenv("CMLA_THREADS", "1")
    serial, serial_nb, serial_lab, serial_med = run()
    monkeypatch.setenv("CMLA_THREADS", "5")
    threaded, threaded_nb, threaded_lab, threaded_med = run()
    np.testing.assert_array_equal(serial, threaded)
    for a, b in zip(serial_nb, threaded_nb):
        np.testing.assert_array_equal(a, b)
    assert serial_lab.n_clusters >= 2
    np.testing.assert_array_equal(serial_lab.labels, threaded_lab.labels)
    np.testing.assert_array_equal(serial_lab.core_mask, threaded_lab.core_mask)
    assert serial_med == threaded_med
