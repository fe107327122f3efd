"""Distance kernels: exactness, the grid index, and the tile size."""

import math
import warnings

import numpy as np
import pytest

from cmla import encoding, kernels
from cmla.clustering import dbscan
from cmla.errors import ConfigError
from cmla.kernels import (
    cross_min_distances,
    dists_to,
    eps_components,
    kth_neighbor_distances,
    medoid_local_index,
    neighbor_lists,
)

import reference
from conftest import child_rss_growth_mib, clustered_cloud, matrix, mixed_table


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
        for got, want in zip(neighbor_lists(x, eps, len(x)), reference_neighbors(x, eps)):
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
        nb = neighbor_lists(x, 2e140, len(x))
        assert list(nb[10]) == [10, 20]
        assert_engine_matches_reference(
            x, [0.6, 2e140], [1, 4, 299], [np.array([0, 10, 30, 40, 50, 60, 70]), np.arange(60, 90)]
        )
        got = cross_min_distances(x[[60, 61]], x)
    assert np.isnan(got[0]).all() and got[1].tolist() == [40, 40]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_caller_errstate_reaches_pool_workers(rng):
    # the kernels silence only their own bound arithmetic, so a caller's
    # np.errstate decides what the exact distances of non-finite rows raise
    x = non_finite_cloud(rng)
    with np.errstate(over="ignore", invalid="ignore"):
        assert list(neighbor_lists(x, 2e140, len(x))[10]) == [10, 20]
        assert np.isnan(kth_neighbor_distances(x, 4)[40])
        assert cross_min_distances(x[[60, 61]], x)[1].tolist() == [40, 40]


def test_far_offset_cloud_sends_every_pair_to_the_exact_path(rng, monkeypatch):
    # at norms near 1e12 the rounding band is wider than any distance here
    x = rng.normal(0.0, 0.01, size=(200, 3)) + 1e6
    pairs = count_exact_pairs(monkeypatch)
    nb = neighbor_lists(x, 0.015, len(x))
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
    per_tile = kernels.TILE_BYTES // (8 * max(len(a), a.shape[1] + 2))
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
    neighbor_lists(x, 0.5, n)
    assert pairs[0] < n * n // 100
    pairs[0] = 0
    kth_neighbor_distances(x, k)
    assert pairs[0] < 4 * (k + 1) * n


def test_neighbor_lists_are_sorted_closed_ball_and_include_self(rng):
    x = clustered_cloud(rng, 80, 3)
    lists = neighbor_lists(x, 0.9, len(x))
    for i, nb in enumerate(lists):
        assert i in nb
        assert list(nb) == sorted(nb)
        d = dists_to(x[i], x)
        np.testing.assert_array_equal(nb, np.flatnonzero(d <= 0.9))


def force_grid(monkeypatch, grid):
    """Make the cost rule always take the grid (True) or brute force (False)."""
    monkeypatch.setattr(kernels, "_grid_pays", lambda cost, n: grid)


def neighbor_lists_by(monkeypatch, grid, x, eps, limit=None):
    """neighbor_lists through the grid or through brute force, uncut unless
    limit is given."""
    force_grid(monkeypatch, grid)
    return neighbor_lists(x, eps, len(x) if limit is None else limit)


def assert_grid_equals_brute_force(monkeypatch, x, eps):
    brute = neighbor_lists_by(monkeypatch, False, x, eps)
    grid = neighbor_lists_by(monkeypatch, True, x, eps)
    assert len(brute) == len(grid)
    for a, b in zip(brute, grid):
        np.testing.assert_array_equal(a, b)
    force_grid(monkeypatch, False)
    components = eps_components(x, eps)
    force_grid(monkeypatch, True)
    np.testing.assert_array_equal(eps_components(x, eps), components)
    return brute


def test_grid_index_equals_brute_force(rng, monkeypatch):
    # same inputs through both paths must give identical neighbor sets
    for d in (1, 2, 3, 6):
        x = clustered_cloud(rng, 300, d, duplicates=0.05)
        for eps in (0.3, 0.9, 2.5):
            assert_grid_equals_brute_force(monkeypatch, x, eps)


def adverse_grid_inputs(rng, n):
    """(name, x, eps) where a grid of one cell per tile lost to brute force:
    about one row per cell, one cell holding every row, and leading columns
    that are constant."""
    constant = rng.uniform(0.0, 1.0, size=(n, 9))
    constant[:, :3] = 0.25
    return [
        ("1-d, one row per cell", rng.uniform(0.0, n * 1e-4, size=(n, 1)), 1e-4),
        ("eps 5 on [0, 1]^9", rng.uniform(0.0, 1.0, size=(n, 9)), 5.0),
        ("three constant columns", constant, 0.3),
    ]


def test_grid_index_equals_brute_force_on_inputs_adverse_to_the_grid(rng, monkeypatch):
    for name, x, eps in adverse_grid_inputs(rng, 1500):
        lists = assert_grid_equals_brute_force(monkeypatch, x, eps)
        assert max(map(len, lists)) > 1, name


def test_cost_rule_takes_the_grid_where_batched_cells_pay(rng, monkeypatch):
    # at the size where one cell per tile lost: tiny cells batched into tiles,
    # and keys over the columns past the constant ones, now pay; one cell
    # holding every row has no dimension to key and stays on brute force,
    # whatever the rule says
    taken = {name: kernels._cell_map(x, eps) is not None
             for name, x, eps in adverse_grid_inputs(rng, 8000)}
    assert taken == {
        "1-d, one row per cell": True,
        "eps 5 on [0, 1]^9": False,
        "three constant columns": True,
    }
    sparse = rng.uniform(0.0, 1.0, size=(8000, 9))
    assert kernels._cell_map(sparse, 0.2) is not None
    force_grid(monkeypatch, True)
    name, x, eps = adverse_grid_inputs(rng, 100)[1]
    assert kernels._cell_map(x, eps) is None, name


def encoded_mixed_table(rng, n, n_numeric, cardinalities, prototypes=None):
    """The encoding of n rows of uniform numeric columns and one categorical
    column per cardinality, numerics first as encode lays them out. With
    prototypes, each row copies the categories of one of that many random
    rows, so that rows share their one-hot blocks."""
    cats = np.column_stack([rng.integers(0, c, size=n) for c in cardinalities])
    if prototypes is not None:
        cats = cats[rng.integers(0, prototypes, size=n)]
    table = mixed_table(
        {f"x{j}": rng.uniform(0.0, 1.0, size=n) for j in range(n_numeric)},
        {f"c{j}": [f"v{v}" for v in cats[:, j]] for j in range(len(cardinalities))},
    )
    return encoding.encode(encoding.fit_encoding(table), table).vectors


def test_grid_equals_brute_force_on_encoded_mixed_tables(rng, monkeypatch):
    # a one-hot column's keys are 0 and floor(1/h): two keys apart while the
    # cell side h <= 1/2 (separating), adjacent keys for 1/2 < h <= 1, one
    # key above; the median's radii land in the same three ranges
    dense = encoded_mixed_table(rng, 600, 2, (2, 3), prototypes=6)
    spread = encoded_mixed_table(rng, 600, 6, (2, 2), prototypes=4)
    lonely = encoded_mixed_table(rng, 400, 1, (3,) * 6)
    for eps in (0.3, 0.7, 1.5):
        for x in (dense, spread, lonely):
            assert_grid_equals_brute_force(monkeypatch, x, eps)
    for x, k, lo, hi in ((dense, 5, 0.0, 0.5), (spread, 5, 0.5, 1.0), (lonely, 3, 1.0, 2.0)):
        radii = assert_median_is_brute_forces(monkeypatch, x, k)
        assert lo < kernels._cell_side(radii[-1]) <= hi, radii


def test_grid_keys_more_one_hot_dimensions_than_its_digits_hold(rng, monkeypatch):
    # about 90 one-hot dimensions of radix 2 each, past the 2^62 budget of
    # the codes: the trailing dimensions are left out of the key, so rows
    # that differ only there share a cell, and every answer is still exact
    x = encoded_mixed_table(rng, 500, 1, (8,) * 12, prototypes=30)
    assert x.shape[1] > 1 + 62
    x[1] = x[0]
    x[1, -2:] = 1.0 - x[0, -2:]
    code, steps = kernels._cell_codes(x, kernels._cell_side(0.3))
    assert code[0] == code[1] and len(steps) == 1
    assert_grid_equals_brute_force(monkeypatch, x, 0.3)
    radii = assert_median_is_brute_forces(monkeypatch, x, 4)
    assert kernels._cell_side(radii[-1]) <= 0.5, radii


def test_cell_map_blocks_partition_the_rows_within_the_tile_budget(rng, monkeypatch):
    # blocks are runs of whole cells; a block over the budget is one cell
    force_grid(monkeypatch, True)
    budget = kernels.TILE_BYTES // 8
    inputs = [(x, eps) for _, x, eps in adverse_grid_inputs(rng, 3000) if eps != 5.0]
    inputs += [(clustered_cloud(rng, 2000, 3, duplicates=0.1), 0.4),
               (encoded_mixed_table(rng, 2000, 2, (2, 3), prototypes=6), 0.05)]
    for x, eps in inputs:
        code = kernels._cell_codes(x, kernels._cell_side(eps))[0]
        blocks = list(kernels._cell_map(x, eps))
        rows = np.concatenate([r for r, _ in blocks])
        assert sorted(rows.tolist()) == list(range(len(x)))
        assert len(blocks) < len(np.unique(code))
        for r, c in blocks:
            assert (np.diff(c) > 0).all() and np.isin(r, c).all()
            assert len(r) * len(c) <= budget or len(np.unique(code[r])) == 1
        cells = [code[r] for r, _ in blocks]
        assert all(a.max() < b.min() for a, b in zip(cells, cells[1:]))


def test_grid_index_handles_boundary_coordinates(monkeypatch):
    # points exactly on cell boundaries and exactly eps apart
    x = np.array([[0.0], [1.0], [2.0], [2.0], [4.0]])
    brute = assert_grid_equals_brute_force(monkeypatch, x, 1.0)
    assert list(brute[1]) == [0, 1, 2, 3]
    # rows on the boundaries of the cells the grid uses, with pairs exactly
    # eps apart across them
    side = kernels._cell_side(1.0)
    x = np.array([[0.0], [side], [side - 1.0], [2 * side], [2 * side + 1.0], [3 * side + 1.0]])
    assert np.floor(x[[1, 3], 0] / side).tolist() == [1.0, 2.0]
    brute = assert_grid_equals_brute_force(monkeypatch, x, 1.0)
    assert [len(nb) for nb in brute] == [2, 2, 3, 2, 2, 1]


def test_grid_index_falls_back_to_brute_force_when_cell_keys_overflow(rng, monkeypatch):
    # x / eps reaches 1e19 > 2^40 on [0, 1] data: the cell keys are refused
    x = rng.uniform(0.0, 1.0, size=(60, 2))
    x[40:] = x[:20]
    force_grid(monkeypatch, True)
    assert kernels._cell_map(x, 1e-19) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = neighbor_lists_by(monkeypatch, True, x, 1e-19)
    brute = neighbor_lists_by(monkeypatch, False, x, 1e-19)
    for a, b in zip(brute, grid):
        np.testing.assert_array_equal(a, b)
    assert [len(nb) for nb in grid] == [2] * 20 + [1] * 20 + [2] * 20


def test_capped_neighbor_lists_are_the_full_lists_cut(rng, monkeypatch):
    x = clustered_cloud(rng, 300, 3, duplicates=0.2)
    want = reference_neighbors(x, 0.7)
    assert max(map(len, want)) > 20 and min(map(len, want)) < 3
    for grid in (False, True):
        for limit in (1, 2, 7, 20, 301):
            got = neighbor_lists_by(monkeypatch, grid, x, 0.7, limit)
            for i, (g, w) in enumerate(zip(got, want)):
                np.testing.assert_array_equal(g, w[:limit], err_msg=f"row {i}, limit {limit}")


def test_eps_components_give_each_row_the_lowest_row_of_its_component(rng, monkeypatch):
    # a shuffled line needs many hooking rounds per block; duplicates and
    # scatter give ties and singletons
    line = np.column_stack([np.arange(300.0), np.zeros(300)])[rng.permutation(300)]
    for x, eps in ((line, 1.0), (clustered_cloud(rng, 400, 2, duplicates=0.2), 0.3)):
        labels, _ = reference.eps_graph_clustering(x, eps, 1)
        want = np.array([np.flatnonzero(labels == lab)[0] for lab in labels])
        for grid, tile_bytes in ((False, kernels.TILE_BYTES), (False, 4096), (True, 4096)):
            force_grid(monkeypatch, grid)
            monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
            np.testing.assert_array_equal(eps_components(x, eps), want)
    assert eps_components(line, 1.0).tolist() == [0] * 300
    assert eps_components(np.empty((0, 2)), 1.0).tolist() == []
    with pytest.raises(ConfigError, match="eps must be positive"):
        eps_components(line, 0.0)


def assert_median_is_brute_forces(monkeypatch, x, k, grid=True):
    """Checks kth_neighbor_median(x, k), with the cost rule forced to `grid`,
    against the brute-force median bit for bit; returns the radii of the cell
    maps it asked for."""
    radii = []
    real = kernels._cell_map

    def spy(x, radius):
        radii.append(radius)
        return real(x, radius)

    monkeypatch.setattr(kernels, "_cell_map", spy)
    force_grid(monkeypatch, grid)
    got = kernels.kth_neighbor_median(x, k)
    want = float(np.median(kth_neighbor_distances(x, k)))
    assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)
    return radii


def test_certified_median_on_duplicate_heavy_clouds(rng, monkeypatch):
    x = np.repeat(clustered_cloud(rng, 200, 3), 3, axis=0)[rng.permutation(600)]
    x[:50] = rng.normal(size=(50, 3))
    for k in (1, 2, 3, 5, 40):
        radii = assert_median_is_brute_forces(monkeypatch, x, k)
        # two copies besides itself put most rows' 2nd distance at 0: the
        # radius is 0, which no grid takes, so brute force answers
        assert (radii == [0.0]) == (k <= 2), k


def test_certified_median_with_rows_on_cell_boundaries(monkeypatch):
    # 600 rows 1 apart (k-th distance 1, so the first radius is exactly 1)
    # and 399 rows on and 1/2 to either side of the boundaries of the cells
    # of side r = 1, most with k-th distance 1/2; rows at exactly r certify
    side = kernels._cell_side(1.0)
    lattice = np.column_stack([1000.0 + np.arange(600), np.zeros(600)])
    bounds = side * np.arange(1, 134)
    edges = np.concatenate([bounds - 0.5, bounds, bounds + 0.5])
    x = np.vstack([lattice, np.column_stack([edges, np.ones(399)])])
    assert np.floor(bounds / side).tolist() == list(range(1, 134))
    assert assert_median_is_brute_forces(monkeypatch, x, 2) == [1.0]


def test_certified_median_doubles_the_radius_until_half_the_rows_certify(rng, monkeypatch):
    # the evenly spaced sample takes every 4th row, all of them in a tight
    # blob; the other three quarters are scattered, so the first radius
    # certifies too few rows
    n = (kernels.MEDIAN_SAMPLE - 1) * 4 + 1
    x = rng.uniform(0.0, 100.0, size=(n, 2))
    x[::4] = rng.uniform(0.0, 0.1, size=(len(x[::4]), 2))
    radii = assert_median_is_brute_forces(monkeypatch, x, 5)
    assert len(radii) > 2
    assert radii[1:] == [2.0 * r for r in radii[:-1]]
    # exactly n // 2 rows certify at r = 1 and 2, which leaves the middle row
    # uncertified: the sampled rows and 254 more sit three to a point, points
    # 1 apart (k-th distance 1); the others sit alone at 1000 + 1.5 * index,
    # so their k-th distance is at least 3
    tight = np.r_[np.arange(0, n, 4), np.arange(1, 4 * 254, 4)]
    x = 1000.0 + 1.5 * np.arange(n, dtype=np.float64)[:, None]
    x[np.sort(tight), 0] = np.arange(len(tight)) // 3
    assert len(tight) == n // 2
    assert assert_median_is_brute_forces(monkeypatch, x, 3) == [1.0, 2.0, 4.0]


def test_certified_median_at_k_equal_to_n_minus_1(rng, monkeypatch):
    x = clustered_cloud(rng, 120, 3, duplicates=0.1)
    for k in (119, 118):
        assert len(assert_median_is_brute_forces(monkeypatch, x, k)) >= 1


def test_certified_median_falls_back_to_brute_force(rng, monkeypatch):
    # a row that is not finite, and cell keys of 1e14 / r >= 2^40
    for bad in (np.nan, np.inf, 1e14):
        x = clustered_cloud(rng, 300, 2)
        x[17, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(invalid="ignore"):
                radii = assert_median_is_brute_forces(monkeypatch, x, 4)
        assert len(radii) == (bad == 1e14)
    x = clustered_cloud(rng, 300, 2)
    assert len(assert_median_is_brute_forces(monkeypatch, x, 4, grid=False)) == 1


def test_certified_median_on_a_60k_row_table(rng, monkeypatch):
    # a numeric column in [0, 1] and four one-hot pairs, like an encoded audit
    # table. Rows in different categories are at least sqrt(2) apart and rows
    # in the same ones at most 1, so with more than k rows per category each
    # row's k nearest rows share its categories: brute force over each of the
    # 16 groups gives every row's k-th distance at 1/16 of the full cost
    n, k = 60_000, 100
    cats = rng.integers(0, 2, size=(n, 4))
    x = np.column_stack([rng.uniform(0.0, 1.0, n), np.eye(2)[cats].reshape(n, 8)])
    kth = np.empty(n)
    for group in range(16):
        rows = np.flatnonzero(cats @ [8, 4, 2, 1] == group)
        kth[rows] = kth_neighbor_distances(x[rows], k)
    for i in rng.choice(n, 20, replace=False):
        assert np.partition(dists_to(x[i], x), k)[k] == kth[i]
    calls = count_calls(monkeypatch, "kth_neighbor_distances")
    assert kernels.kth_neighbor_median(x, k) == float(np.median(kth))
    assert calls == []


def count_calls(monkeypatch, name):
    """Route kernels.<name> through a recorder of its calls' arguments."""
    calls = []
    real = getattr(kernels, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, name, recording)
    return calls


def test_tile_budget_counts_the_row_width_and_the_exact_batch():
    # one medoid against 3000 rows at d = 1000: a block sized by the column
    # count alone would hold 65536 rows, a 500 MiB left operand, and none of
    # the pairs settle, so the exact batch is 3000 x 1000 as well
    growth = child_rss_growth_mib(
        "import numpy as np\n"
        "from cmla.kernels import cross_min_distances, dists_to\n"
        "rng = np.random.default_rng(3)\n"
        "a = rng.normal(size=(1, 1000))\n"
        "b = rng.normal(size=(3000, 1000))\n"
        "cross_min_distances(a, b[:10].copy())",
        "a_min, a_arg, b_min = cross_min_distances(a, b)",
    )
    assert growth < 16
    a = np.random.default_rng(3).normal(size=(1, 1000))
    b = np.random.default_rng(4).normal(size=(400, 1000))
    a_min, a_arg, b_min = cross_min_distances(a, b)
    want = dists_to(a[0], b)
    assert b_min.tolist() == want.tolist()
    assert (a_min[0], a_arg[0]) == (want.min(), int(np.argmin(want)))


def test_neighbor_lists_reject_non_positive_eps(rng):
    with pytest.raises(ConfigError, match="eps must be positive"):
        neighbor_lists(np.zeros((3, 1)), 0.0, 3)


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


def test_distinct_rows_compare_bytes_in_order_of_first_occurrence(monkeypatch):
    nan = np.float64("nan")
    x = np.array([[1.0, 2.0], [0.0, nan], [1.0, 2.0], [-0.0, nan], [0.0, nan], [1.0, 2.0]])
    for tile_bytes in (kernels.TILE_BYTES, 16):
        monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
        first, inverse, weight = kernels.distinct_rows(x)
        assert first.tolist() == [0, 1, 3]
        assert inverse.tolist() == [0, 1, 0, 2, 1, 0]
        assert weight.tolist() == [3, 2, 1]
        assert x[first][inverse].tobytes() == x.tobytes()


def test_medoid_of_rows_repeated_2_to_5_times_matches_exhaustive_fsum(rng, monkeypatch):
    for d in (1, 3):
        core = clustered_cloud(rng, 60, d)
        x = np.repeat(core, rng.integers(2, 6, size=len(core)), axis=0)
        x = np.ascontiguousarray(x[rng.permutation(len(x))])
        want = exhaustive_medoid(x)
        for tile_bytes in (kernels.TILE_BYTES, 4096):
            monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
            assert medoid_local_index(x) == want, (d, tile_bytes)


def test_medoid_ties_between_distinct_rows_take_the_lowest_row_id(rng):
    # 1 and 2 both sum to 5 and occur twice each: the first 2 is row 1
    line = np.array([[3.0], [2.0], [1.0], [0.0], [2.0], [1.0]])
    assert medoid_local_index(line) == exhaustive_medoid(line) == 1
    # each vertex of a polygon repeated equally: the sums tie mathematically
    for n in (12, 64):
        angle = 2.0 * np.pi * np.arange(n) / n
        polygon = np.column_stack([np.cos(angle), np.sin(angle)])
        x = np.ascontiguousarray(np.tile(polygon, (3, 1))[rng.permutation(3 * n)])
        assert medoid_local_index(x) == exhaustive_medoid(x)


def test_medoid_of_an_identical_wide_cluster_makes_one_exact_sum(monkeypatch):
    x = np.ones((2000, 2001))
    got, sums = exact_sums(monkeypatch, x)
    assert got == 0
    assert sums == 1


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


def exact_sums(monkeypatch, x):
    """(medoid_local_index(x), the exact sums it computed: pairs sent to
    dists_to over the distinct member count)."""
    pairs = []
    real_dists_to = kernels.dists_to

    def counting(a, points):
        pairs.append(len(points))
        return real_dists_to(a, points)

    monkeypatch.setattr(kernels, "dists_to", counting)
    got = medoid_local_index(x)
    monkeypatch.undo()
    return got, sum(pairs) / len(kernels.distinct_rows(x)[0])


def test_medoid_computes_few_exact_sums_on_a_large_cluster(rng, monkeypatch):
    # the band's row sums bracket every sum within a relative 1e-12 or so, far
    # tighter than the gaps between the sums of the rows nearest the centre,
    # in 9-d as in 2-d, although 9-d distances concentrate
    for d in (2, 9):
        x = rng.normal(0.0, 1.0, size=(4000, d))
        got, sums = exact_sums(monkeypatch, x)
        assert got == exhaustive_medoid(x)
        assert sums <= 10, d


def one_hot_ids(rng, m):
    """m members of a unique-ID column one-hot encoded, plus one numeric
    column in [0, 1]: all pairs are about sqrt(2) apart, which defeats
    triangle bounds."""
    x = np.zeros((m, m + 1))
    x[np.arange(m), np.arange(m)] = 1.0
    x[:, m] = rng.random(m)
    return x


def test_medoid_of_equidistant_one_hot_rows_computes_few_exact_sums(rng, monkeypatch):
    x = one_hot_ids(rng, 500)
    got, sums = exact_sums(monkeypatch, x)
    assert got == exhaustive_medoid(x)
    assert sums <= 10


def test_medoid_of_a_wide_one_hot_cluster_stays_in_bounded_memory():
    # 2000 members at d = 2001, a 30.5 MiB input: one full distance row
    # allocates an m x d difference array, while the screen's tiles and exact
    # batches hold at most TILE_BYTES each
    growth = child_rss_growth_mib(
        "import numpy as np\n"
        "from cmla.kernels import medoid_local_index\n"
        "m = 2000\n"
        "x = np.zeros((m, m + 1))\n"
        "x[np.arange(m), np.arange(m)] = 1.0\n"
        "x[:, m] = np.random.default_rng(7).random(m)\n"
        "medoid_local_index(x[:10].copy())",
        "medoid_local_index(x)",
    )
    assert growth < 1.5 * 2000 * 2001 * 8 / 2**20


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


def test_results_do_not_depend_on_tile_size(rng, monkeypatch):
    # n is large enough that the default tile size runs several row blocks
    x = clustered_cloud(rng, 1200, 3, duplicates=0.1)
    real = clustered_cloud(rng, 3000, 3)
    real[::7] = x[rng.integers(0, len(x), size=len(real[::7]))]
    assert len(real) > 3 * (kernels.TILE_BYTES // (8 * len(x)))

    def run():
        labeling = dbscan(matrix(x), 0.8, 5)
        medoids = [
            medoid_local_index(x[labeling.labels == cid])
            for cid in range(labeling.n_clusters)
        ]
        return (
            kth_neighbor_distances(x, 5),
            neighbor_lists(x, 0.8, len(x)),
            labeling,
            medoids,
            cross_min_distances(x, real),
        )

    kth, nb, lab, med, cross = run()
    assert lab.n_clusters >= 2
    for tile_bytes in (4096, 50_000):
        monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
        tiled, tiled_nb, tiled_lab, tiled_med, tiled_cross = run()
        np.testing.assert_array_equal(kth, tiled)
        for a, b in zip(nb, tiled_nb):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(lab.labels, tiled_lab.labels)
        np.testing.assert_array_equal(lab.core_mask, tiled_lab.core_mask)
        assert med == tiled_med
        for a, b in zip(cross, tiled_cross):
            np.testing.assert_array_equal(a, b)
