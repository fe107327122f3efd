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
    # the property every exact cross-check in this suite rests on, in both
    # the one-to-many and the paired form of dists_to
    for d in (1, 2, 7, 9, 33):
        x = rng.standard_normal((20, d)) * rng.uniform(0.1, 100)
        a = rng.standard_normal(d)
        row = dists_to(a, x)
        for j in range(len(x)):
            assert row[j] == reference.pair_dist(a, x[j])
        rows = rng.standard_normal((20, d))
        paired = dists_to(rows, x)
        for j in range(len(x)):
            assert paired[j] == reference.pair_dist(rows[j], x[j])
            assert paired[j] == dists_to(rows[j], x)[j]


def reference_neighbors(x, eps):
    return [np.flatnonzero(reference.row_dists(x, i) <= eps) for i in range(len(x))]


def reference_cross_min(a, b):
    """Per row of a, the minimum into b and its lowest index; per row of b,
    the minimum into a; each row from the explicit-difference formula."""
    rows = [reference.row_dists(np.vstack([a[i], b]), 0)[1:] for i in range(len(a))]
    a_min = [float(np.min(d)) for d in rows]
    a_arg = [int(np.argmin(d)) for d in rows]
    return a_min, a_arg, np.min(rows, axis=0).tolist()


def count_exact_pairs(monkeypatch):
    """Route kernels.dists_to through a counter of the pairs it evaluates."""
    pairs = [0]
    real_dists_to = kernels.dists_to

    def counting(a, points):
        pairs[0] += len(points)
        return real_dists_to(a, points)

    monkeypatch.setattr(kernels, "dists_to", counting)
    return pairs


def assert_engine_matches_reference(x, epss, ks, a_rows=()):
    for eps in epss:
        for got, want in zip(neighbor_lists(x, eps), reference_neighbors(x, eps)):
            np.testing.assert_array_equal(got, want)
    for k in ks:
        want = [reference.kth_nn_distance(x, i, k) for i in range(len(x))]
        np.testing.assert_array_equal(kth_neighbor_distances(x, k), want)
    for rows in a_rows:
        got = cross_min_distances(x[rows], x)
        for g, w in zip(got, reference_cross_min(x[rows], x)):
            np.testing.assert_array_equal(g, w)  # NaN matches NaN


def test_engine_is_exact_across_scales(rng):
    # 1e-160 underflows every square and 1e160 overflows them to inf; in
    # between the norms cross the 2^1000 cap of the prefilter
    for scale in (1e-160, 1e-150, 1e-3, 1.0, 1e150, 1e160):
        for d in (1, 2, 9):
            x = clustered_cloud(rng, 150, d, duplicates=0.2) * scale
            with np.errstate(over="ignore", invalid="ignore"):
                assert_engine_matches_reference(
                    x, [0.7 * scale, 2.5 * scale], [1, 7], [rng.choice(150, 9)]
                )


def non_finite_cloud(rng):
    """300 rows whose squared norms overflow or are NaN mixed with ordinary rows."""
    x = clustered_cloud(rng, 300, 2)
    x[10] = [1.3e154, 0.0]
    x[20] = [1.3e154 + 1e140, 0.0]  # 1e140 from row 10, norms near 2^1024
    x[30] = [1e200, -1e200]
    x[40, 1] = np.nan
    x[50] = [np.inf, 1.0]
    x[260] = x[40]
    return x


def test_engine_matches_reference_with_non_finite_and_overflowing_rows(rng):
    # only the exact comparison may decide the pairs of non-finite rows, and
    # NaN distances rank as np.partition, np.argmin and np.minimum rank them
    x = non_finite_cloud(rng)
    with np.errstate(over="ignore", invalid="ignore"):
        nb = neighbor_lists(x, 2e140)
        assert list(nb[10]) == [10, 20]
        assert_engine_matches_reference(
            x, [0.6, 2e140], [1, 4, 299], [np.array([0, 10, 30, 40, 50, 60, 70]), np.arange(60, 90)]
        )
        got = cross_min_distances(x[[60, 61]], x)
    assert np.isnan(got[0]).all() and got[1].tolist() == [40, 40]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_caller_errstate_reaches_pool_workers(rng, monkeypatch):
    # NumPy keeps the error state in a context variable, so each worker range
    # has to run in a copy of the caller's context to honour np.errstate
    monkeypatch.setenv("CMLA_THREADS", "2")
    x = non_finite_cloud(rng)
    with np.errstate(over="ignore", invalid="ignore"):
        assert list(neighbor_lists(x, 2e140)[10]) == [10, 20]
        assert np.isnan(kth_neighbor_distances(x, 4)[40])
        assert cross_min_distances(x[[60, 61]], x)[1].tolist() == [40, 40]


def test_far_offset_cloud_sends_every_pair_to_the_exact_path(rng, monkeypatch):
    # at norms near 1e12 the rounding band is wider than any distance here
    x = rng.normal(0.0, 0.01, size=(200, 3)) + 1e6
    pairs = count_exact_pairs(monkeypatch)
    nb = neighbor_lists(x, 0.015)
    assert pairs[0] == 200 * 200
    kth = kth_neighbor_distances(x, 4)
    assert pairs[0] == 2 * 200 * 200
    monkeypatch.undo()
    for got, want in zip(nb, reference_neighbors(x, 0.015)):
        np.testing.assert_array_equal(got, want)
    assert kth.tolist() == [reference.kth_nn_distance(x, i, 4) for i in range(200)]
    assert_engine_matches_reference(x, [], [], [np.arange(0, 200, 7)])


def test_engine_decides_lattice_distances_of_exactly_eps(rng):
    # neighbours sit exactly eps and sqrt(2)*eps apart, so the band must pass
    # every boundary pair to the exact comparison
    for eps in (0.5, 0.1, 3.0):
        x = np.array([[i, j] for i in range(16) for j in range(16)], dtype=np.float64) * eps
        x = x[rng.permutation(len(x))]
        diag = float(np.sqrt(2.0) * eps)
        epss = [eps, np.nextafter(eps, 0), np.nextafter(eps, 1e9), diag,
                np.nextafter(diag, 0), np.nextafter(diag, 1e9)]
        assert_engine_matches_reference(x, epss, [1, 4, 8], [rng.choice(256, 20)])


def test_engine_on_duplicate_heavy_inputs(rng):
    x = np.repeat(rng.normal(size=(25, 3)), 12, axis=0)[rng.permutation(300)]
    x[:40] = rng.normal(size=(40, 3))
    assert_engine_matches_reference(x, [0.3, 1.0], [1, 11, 12, 30], [np.arange(0, 300, 13)])


def test_kth_neighbor_distance_at_k_equal_to_n_minus_1(rng):
    x = clustered_cloud(rng, 120, 3, duplicates=0.1)
    assert_engine_matches_reference(x, [], [119, 118], [])


def test_engine_is_exact_on_inputs_of_many_tiles(rng):
    x = clustered_cloud(rng, 700, 9, duplicates=0.05)
    assert 700 > 5 * (kernels.TILE_BYTES // (8 * 700))  # many row blocks
    assert_engine_matches_reference(x, [1.2], [5], [rng.choice(700, 40)])


def test_cross_min_ties_across_tiles_and_identical_rows(rng):
    a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # four rows at distance 3 from the first medoid, repeated so that tied
    # minima fall in different tiles (and worker ranges); the lowest b row
    # must win
    per_tile = kernels.TILE_BYTES // (8 * len(a))
    b = np.tile([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0], [0.0, -3.0]], (3 * per_tile // 4 + 50, 1))
    b = b[rng.permutation(len(b))]
    assert len(b) > 2 * per_tile
    got = cross_min_distances(a, b)
    want = reference_cross_min(a, b)
    assert got[0].tolist() == want[0]
    assert got[1].tolist() == want[1]
    assert got[2].tolist() == want[2]
    # every b row the same: every pair is a candidate for the b side
    same = np.tile(rng.normal(size=(1, 2)), (3 * per_tile, 1))
    a = rng.normal(size=(3, 2))
    got = cross_min_distances(a, same)
    want = reference_cross_min(a, same)
    assert got[0].tolist() == want[0]
    assert got[1].tolist() == want[1] == [0, 0, 0]
    assert got[2].tolist() == want[2]
    # far from the origin (a wide band): each medoid has two real rows at
    # exactly distance 1, and each of those rows has a nearer medoid of its
    # own, so only the medoid's column bound can keep the tied pairs; centres
    # off the binary grid make the two pairs' upper bounds round apart
    medoids, real = [], []
    for _ in range(40):
        centre = 1e6 + rng.uniform(0.0, 1e4, size=2)
        p, q = centre + [1.0, 0.0], centre - [1.0, 0.0]
        medoids += [centre, p + [0.0, 0.001], q + [0.0, 0.001]]
        real += [p, q]
    a, b = np.array(medoids), np.array(real)[rng.permutation(len(real))]
    got = cross_min_distances(a, b)
    want = reference_cross_min(a, b)
    assert got[0].tolist() == want[0]
    assert got[1].tolist() == want[1]
    assert got[2].tolist() == want[2]


def test_prefilter_leaves_few_pairs_to_the_exact_path(rng, monkeypatch):
    x = clustered_cloud(rng, 2000, 4)
    n, k = len(x), 10
    pairs = count_exact_pairs(monkeypatch)
    neighbor_lists(x, 0.5)
    assert pairs[0] < n * n // 100
    pairs[0] = 0
    kth_neighbor_distances(x, k)
    assert pairs[0] < 4 * (k + 1) * n


def test_neighbor_lists_are_sorted_closed_ball_and_include_self(rng):
    x = clustered_cloud(rng, 80, 3)
    lists = neighbor_lists(x, 0.9)
    for i, nb in enumerate(lists):
        assert i in nb
        assert list(nb) == sorted(nb)
        d = dists_to(x[i], x)
        np.testing.assert_array_equal(nb, np.flatnonzero(d <= 0.9))


def neighbor_lists_above(monkeypatch, min_rows, x, eps):
    """neighbor_lists with the grid index taking over above min_rows rows."""
    monkeypatch.setattr(kernels, "GRID_INDEX_MIN_ROWS", min_rows)
    return neighbor_lists(x, eps)


def test_grid_index_equals_brute_force(rng, monkeypatch):
    # same inputs through both paths must give identical neighbor sets
    for d in (1, 2, 3, 6):
        x = clustered_cloud(rng, 300, d, duplicates=0.05)
        for eps in (0.3, 0.9, 2.5):
            brute = neighbor_lists_above(monkeypatch, 10**9, x, eps)
            grid = neighbor_lists_above(monkeypatch, 1, x, eps)
            assert len(brute) == len(grid)
            for a, b in zip(brute, grid):
                np.testing.assert_array_equal(a, b)


def test_grid_index_handles_boundary_coordinates(monkeypatch):
    # points exactly on cell boundaries and exactly eps apart
    x = np.array([[0.0], [1.0], [2.0], [2.0], [4.0]])
    brute = neighbor_lists_above(monkeypatch, 10**9, x, 1.0)
    grid = neighbor_lists_above(monkeypatch, 1, x, 1.0)
    for a, b in zip(brute, grid):
        np.testing.assert_array_equal(a, b)
    assert list(brute[1]) == [0, 1, 2, 3]


def test_grid_index_falls_back_to_brute_force_when_cell_keys_overflow(rng, monkeypatch):
    # x / eps reaches 1e19 > 2^63 on [0, 1] data: int64 cell keys would wrap
    x = rng.uniform(0.0, 1.0, size=(60, 2))
    x[40:] = x[:20]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = neighbor_lists_above(monkeypatch, 1, x, 1e-19)
    brute = neighbor_lists_above(monkeypatch, 10**9, x, 1e-19)
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
    # n is large enough that each of 5 workers runs several row blocks
    x = clustered_cloud(rng, 1200, 3, duplicates=0.1)
    real = clustered_cloud(rng, 3000, 3)
    real[::7] = x[rng.integers(0, len(x), size=len(real[::7]))]
    assert len(real) // 5 > 3 * (kernels.TILE_BYTES // (8 * len(x)))

    def run():
        labeling = dbscan(matrix(x), DbscanParams(eps=0.8, min_samples=5))
        medoids = [
            medoid_local_index(x[labeling.labels == cid])
            for cid in range(labeling.n_clusters)
        ]
        return (
            kth_neighbor_distances(x, 5),
            neighbor_lists(x, 0.8),
            labeling,
            medoids,
            cross_min_distances(x, real),
        )

    monkeypatch.setenv("CMLA_THREADS", "1")
    serial, serial_nb, serial_lab, serial_med, serial_cross = run()
    assert serial_lab.n_clusters >= 2
    for threads, tile_bytes in (("5", kernels.TILE_BYTES), ("5", 4096), ("2", 50_000)):
        monkeypatch.setenv("CMLA_THREADS", threads)
        monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
        threaded, threaded_nb, threaded_lab, threaded_med, threaded_cross = run()
        np.testing.assert_array_equal(serial, threaded)
        for a, b in zip(serial_nb, threaded_nb):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(serial_lab.labels, threaded_lab.labels)
        np.testing.assert_array_equal(serial_lab.core_mask, threaded_lab.core_mask)
        assert serial_med == threaded_med
        for a, b in zip(serial_cross, threaded_cross):
            np.testing.assert_array_equal(a, b)
