"""Distance kernels: exactness, the grid index, and the tile size."""

import dataclasses
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cmla import encoding, harness, kernels
from cmla.clustering import dbscan
from cmla.errors import ConfigError
from cmla.kernels import (
    cross_min_distances,
    dists_to,
    kth_neighbor_distances,
    medoid_local_index,
    neighbor_lists,
)

import reference
from conftest import (
    DATA_DIR,
    child_rss_growth_mib,
    clustered_cloud,
    count_calls,
    hit_lists,
    matrix,
    mixed_table,
    overflow_cloud,
    record_cell_maps,
)


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


def reference_border(lists, core):
    """Each non-core row's lowest core neighbour, the first core entry of its
    ascending list, or len(core) for a core row or a list with none."""
    border = np.full(len(core), len(core))
    for i in np.flatnonzero(~core):
        hits = lists[i][core[lists[i]]]
        if len(hits):
            border[i] = hits[0]
    return border


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
        for got, want in zip(hit_lists(x, eps), reference_neighbors(x, eps)):
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
        nb = hit_lists(x, 2e140)
        assert list(nb[10]) == [10, 20]
        assert_engine_matches_reference(
            x, [0.6, 2e140], [1, 4, 299], [np.array([0, 10, 30, 40, 50, 60, 70]), np.arange(60, 90)]
        )
        got = cross_min_distances(x[[60, 61]], x)
    assert np.isnan(got[0]).all() and got[1].tolist() == [40, 40]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_caller_errstate_reaches_the_exact_distances(rng):
    # the kernels silence only their own bound arithmetic, so a caller's
    # np.errstate decides what the exact distances of non-finite rows raise
    x = non_finite_cloud(rng)
    with np.errstate(over="ignore", invalid="ignore"):
        lists = hit_lists(x, 2e140)
        assert list(lists[10]) == [10, 20]
        graph = neighbor_lists(x, 2e140, 3, np.ones(len(x), dtype=np.int64))
        assert not graph.core[10]
        np.testing.assert_array_equal(graph.border, reference_border(lists, graph.core))
        assert np.isnan(kth_neighbor_distances(x, 4)[40])
        assert cross_min_distances(x[[60, 61]], x)[1].tolist() == [40, 40]


def test_far_offset_cloud_sends_every_pair_to_the_exact_path(rng, monkeypatch):
    # at norms near 1e12 the rounding band is wider than any distance here
    x = rng.normal(0.0, 0.01, size=(200, 3)) + 1e6
    pairs = count_exact_pairs(monkeypatch)
    nb = hit_lists(x, 0.015)
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
    # minima fall in different tiles; the lowest b row must win
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
    hit_lists(x, 0.5)
    assert pairs[0] < n * n // 100
    pairs[0] = 0
    kth_neighbor_distances(x, k)
    assert pairs[0] < 4 * (k + 1) * n


def test_neighbor_lists_are_sorted_closed_ball_and_include_self(rng):
    # at min_samples above the row count no row is core, so no row has a core
    # neighbour; the lists are those the hit blocks give
    x = clustered_cloud(rng, 80, 3)
    graph = neighbor_lists(x, 0.9, len(x) + 1, np.ones(len(x), dtype=np.int64))
    assert not graph.core.any() and (graph.border == len(x)).all()
    for i, nb in enumerate(hit_lists(x, 0.9)):
        assert i in nb
        assert list(nb) == sorted(nb)
        d = dists_to(x[i], x)
        np.testing.assert_array_equal(nb, np.flatnonzero(d <= 0.9))


def force_grid(monkeypatch, grid):
    """Make the cost rule always take the grid (True) or brute force (False)."""
    monkeypatch.setattr(kernels, "_grid_pays", lambda cost, n: grid)


def hit_lists_by(monkeypatch, grid, x, eps):
    """hit_lists through the grid or through brute force."""
    force_grid(monkeypatch, grid)
    return hit_lists(x, eps)


def graph_by(monkeypatch, grid, x, eps, min_samples, weight=None):
    """neighbor_lists through the grid or through brute force, every row
    weighted one unless weight is given."""
    force_grid(monkeypatch, grid)
    if weight is None:
        weight = np.ones(len(x), dtype=np.int64)
    return neighbor_lists(x, eps, min_samples, weight)


def assert_grid_equals_brute_force(monkeypatch, x, eps):
    brute = hit_lists_by(monkeypatch, False, x, eps)
    grid = hit_lists_by(monkeypatch, True, x, eps)
    assert len(brute) == len(grid)
    for a, b in zip(brute, grid):
        np.testing.assert_array_equal(a, b)
    for min_samples in (1, 5):
        want = graph_by(monkeypatch, False, x, eps, min_samples)
        got = graph_by(monkeypatch, True, x, eps, min_samples)
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a, b)
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
    # key above; the median's last radius lands in each of the three ranges
    dense = encoded_mixed_table(rng, 600, 2, (2, 3), prototypes=6)
    spread = encoded_mixed_table(rng, 600, 6, (2, 2), prototypes=4)
    lonely = encoded_mixed_table(rng, 400, 1, (3,) * 6)
    for eps in (0.3, 0.7, 1.5):
        for x in (dense, spread, lonely):
            assert_grid_equals_brute_force(monkeypatch, x, eps)
    for x, k, lo, hi in ((dense, 5, 0.0, 0.5), (spread, 5, 0.0, 0.5), (spread, 8, 0.5, 1.0),
                         (lonely, 3, 1.0, 2.0)):
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
        grid = hit_lists_by(monkeypatch, True, x, 1e-19)
    brute = hit_lists_by(monkeypatch, False, x, 1e-19)
    for a, b in zip(brute, grid):
        np.testing.assert_array_equal(a, b)
    assert [len(nb) for nb in grid] == [2] * 20 + [1] * 20 + [2] * 20


def test_neighbor_lists_give_each_row_the_reference_border(rng, monkeypatch):
    x = clustered_cloud(rng, 300, 3, duplicates=0.2)
    want = reference_neighbors(x, 0.7)
    assert max(map(len, want)) > 20 and min(map(len, want)) < 3
    for grid in (False, True):
        for min_samples in (1, 2, 7, 20, 301):
            graph = graph_by(monkeypatch, grid, x, 0.7, min_samples)
            core = np.array([len(w) >= min_samples for w in want])
            np.testing.assert_array_equal(graph.core, core)
            where = f"grid {grid}, min_samples {min_samples}"
            np.testing.assert_array_equal(graph.border, reference_border(want, core), err_msg=where)


def test_neighbor_lists_give_each_core_row_the_lowest_row_of_its_component(rng, monkeypatch):
    # at min_samples 1 every row is core. A shuffled line needs many hooking
    # rounds per block; duplicates and scatter give ties and singletons
    line = np.column_stack([np.arange(300.0), np.zeros(300)])[rng.permutation(300)]
    for x, eps in ((line, 1.0), (clustered_cloud(rng, 400, 2, duplicates=0.2), 0.3)):
        labels, _ = reference.eps_graph_clustering(x, eps, 1)
        want = np.array([np.flatnonzero(labels == lab)[0] for lab in labels])
        for grid, tile_bytes in ((False, kernels.TILE_BYTES), (False, 4096), (True, 4096)):
            monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
            graph = graph_by(monkeypatch, grid, x, eps, 1)
            assert graph.core.all() and (graph.border == len(x)).all()
            np.testing.assert_array_equal(graph.root, want)
    ones = np.ones(300, dtype=np.int64)
    assert neighbor_lists(line, 1.0, 1, ones).root.tolist() == [0] * 300
    empty = neighbor_lists(np.empty((0, 2)), 1.0, 1, ones[:0])
    assert [len(a) for a in empty] == [0, 0, 0]
    with pytest.raises(ConfigError, match="eps must be positive"):
        neighbor_lists(line, 0.0, 1, ones)


def assert_one_pass_matches_reference(monkeypatch, x, eps, min_samples):
    """neighbor_lists on the rows of x weighted one, and dbscan on x, against
    the reference at default and 4 KiB tiles with the grid forced off and on:
    the core mask, each core row's lowest core row of its component, each
    non-core row's lowest core neighbour and the labels. Returns the reference
    labels."""
    labels, core = reference.eps_graph_clustering(x, eps, min_samples)
    root = np.arange(len(x))
    for lab in np.unique(labels[core]):
        members = np.flatnonzero(core & (labels == lab))
        root[members] = members[0]
    lists = reference_neighbors(x, eps)
    for tile_bytes in (kernels.TILE_BYTES, 4096):
        for grid in (False, True):
            where = f"tiles {tile_bytes}, grid {grid}"
            monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
            graph = graph_by(monkeypatch, grid, x, eps, min_samples)
            np.testing.assert_array_equal(graph.core, core, err_msg=where)
            np.testing.assert_array_equal(graph.root, root, err_msg=where)
            np.testing.assert_array_equal(graph.border, reference_border(lists, core), err_msg=where)
            labeling = dbscan(matrix(x), eps, min_samples)
            np.testing.assert_array_equal(labeling.labels, labels, err_msg=where)
            np.testing.assert_array_equal(labeling.core_mask, core, err_msg=where)
            monkeypatch.undo()
    return labels


def one_row_blocks(n):
    """True when 4 KiB brute-force tiles hold one row of an n-row input."""
    return max(1, 4096 // (8 * n)) == 1


def test_one_pass_hits_are_symmetric_bit_for_bit(rng, monkeypatch):
    # the pass counts a column's hits from the rows before its block, which
    # bounds its count only if every hit (i, j) is also the hit (j, i): pairs
    # exactly eps and sqrt(2)*eps apart, rows on the grid's cell boundaries
    # and a far offset cloud whose every pair goes to the exact comparison
    eps = 0.1
    lattice = np.array([[i, j] for i in range(16) for j in range(18)], dtype=np.float64) * eps
    side = kernels._cell_side(1.0)
    bounds = side * np.arange(1, 101)
    edges = np.concatenate([bounds - 1.0, bounds, bounds + 1.0])[:, None]
    far = rng.normal(0.0, 0.01, size=(260, 3)) + 1e6
    diag = float(np.sqrt(2.0) * eps)
    lattice = lattice[rng.permutation(len(lattice))]
    cases = [(lattice, e, 5) for e in (eps, diag, np.nextafter(diag, 0))]
    cases += [(edges, 1.0, 3), (far, 0.015, 4)]
    for x, e, min_samples in cases:
        assert one_row_blocks(len(x))
        for tile_bytes in (kernels.TILE_BYTES, 4096):
            for grid in (False, True):
                monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
                hit = np.zeros((len(x), len(x)), dtype=bool)
                for i, nb in enumerate(hit_lists_by(monkeypatch, grid, x, e)):
                    hit[i, nb] = True
                assert (hit == hit.T).all(), (e, tile_bytes, grid)
                monkeypatch.undo()
        labels = assert_one_pass_matches_reference(monkeypatch, x, e, min_samples)
        assert labels.max() >= 0


def test_one_pass_joins_core_rows_whose_core_neighbours_come_in_later_blocks(monkeypatch):
    # two lines of rows 1 apart, 2 apart from each other: with one row per
    # block, every other row comes first, before any of its core neighbours,
    # so each core edge is joined in the block of its second row
    line = np.r_[np.arange(200.0), 202.0 + np.arange(200.0)]
    x = np.r_[line[::2], line[1::2]][:, None]
    assert one_row_blocks(len(x))
    labels = assert_one_pass_matches_reference(monkeypatch, x, 1.0, 3)
    assert labels.max() == 1 and (labels >= 0).all()


def bridged_pairs(min_samples):
    """Rows on a line at eps 1 and this min_samples: pairs of clusters, each
    pair bridged by one row that comes after every other row and reaches
    min_samples + 1, min_samples or min_samples - 1 rows of the two clusters
    with itself, and scattered rows that make the input long enough for one
    row per 4 KiB block. Returns (x, the bridges)."""
    clusters, bridges = [], []
    for k, reach in enumerate((min_samples + 1, min_samples, min_samples - 1)):
        centre = 100.0 * k
        near = reach - 1  # the bridge's neighbours besides itself
        left = centre - 0.7 - 0.05 * np.arange(near - near // 2)
        right = centre + 0.7 + 0.05 * np.arange(near // 2)
        # each cluster gets min_samples rows beyond the bridge's reach
        far = 1.4 + 0.05 * np.arange(min_samples)
        clusters += [left, centre - far, right, centre + far]
        bridges.append(centre)
    scatter = 1000.0 + 3.0 * np.arange(300)
    x = np.concatenate(clusters + [scatter, bridges])[:, None]
    return x, len(x) - 3 + np.arange(3)


def test_one_pass_joins_clusters_through_a_bridge_core_at_exactly_min_samples(monkeypatch):
    # each bridge streams after every row it hits: the first reaches
    # min_samples + 1 rows and the second exactly min_samples, so both are
    # core and join their two clusters in their own blocks; the third stays a
    # border row, which must not join its two clusters
    min_samples = 5
    x, bridges = bridged_pairs(min_samples)
    assert one_row_blocks(len(x))
    labels = assert_one_pass_matches_reference(monkeypatch, x, 1.0, min_samples)
    core = reference.eps_graph_clustering(x, 1.0, min_samples)[1]
    assert core[bridges].tolist() == [True, True, False]
    assert labels.max() == 3
    assert len(np.unique(labels[np.abs(x[:, 0] - 200.0) < 3.0])) == 2


def test_border_row_takes_its_lowest_core_neighbour_when_a_higher_one_streams_first(monkeypatch):
    # a border row at 11 between two cores of different clusters: the core
    # at 12 has the lower row index, the core at 10 the higher, and on the
    # grid the block of the core at 10 streams first; the row still takes
    # the label of the core at 12
    right = np.r_[12.0, np.linspace(12.05, 12.95, 30)]
    left = np.r_[10.0, np.linspace(9.05, 9.95, 30)]
    scatter = 1000.0 + 3.0 * np.arange(300)
    x = np.r_[right, 11.0, left, scatter][:, None]
    low, row, high = 0, len(right), len(right) + 1
    assert one_row_blocks(len(x))
    monkeypatch.setattr(kernels, "TILE_BYTES", 4096)
    force_grid(monkeypatch, True)
    block = {}
    for k, (rows, _, _) in enumerate(kernels._hit_blocks(x, 1.0)):
        block.update(dict.fromkeys(rows.tolist(), k))
    assert block[high] < block[low]
    monkeypatch.undo()
    labels = assert_one_pass_matches_reference(monkeypatch, x, 1.0, 4)
    core = reference.eps_graph_clustering(x, 1.0, 4)[1]
    assert core[[low, high]].all() and not core[row]
    assert labels[row] == labels[low] != labels[high]


def test_border_rows_streamed_before_a_block_core_by_weight_alone_take_its_row(rng, monkeypatch):
    # at eps 1 and min_samples 4, a row of weight two with a row of weight one
    # 0.95 below it and another 0.99 above, each in the next cell: the middle
    # row is core by its weights alone (three distinct neighbours), the outer
    # two are border rows. With one grid cell per block, the lower row streams
    # before the middle row's block, in which no row is core by count, and
    # the upper row after it
    side = kernels._cell_side(1.0)
    middle = side * (10.0 * np.arange(20) + 0.5)
    position = np.r_[middle - 0.95, middle, middle + 0.99]
    perm = rng.permutation(len(position))
    xd = position[perm][:, None]
    weight = np.where(perm // 20 == 1, 2, 1)
    low, mid, high = (np.argsort(perm)[20 * k : 20 * (k + 1)] for k in range(3))
    monkeypatch.setattr(kernels, "TILE_BYTES", 8)
    force_grid(monkeypatch, True)
    block = {}
    for k, (rows, cols, hit) in enumerate(kernels._hit_blocks(xd, 1.0)):
        assert (hit.sum(axis=1) < 4).all()
        block.update(dict.fromkeys(rows.tolist(), (k, len(rows))))
    assert all(block[a][0] < block[b][0] < block[c][0] for a, b, c in zip(low, mid, high))
    assert all(block[b][1] == 1 for b in mid)
    graph = neighbor_lists(xd, 1.0, 4, weight)
    lists = reference_neighbors(xd, 1.0)
    core = np.array([weight[nb].sum() >= 4 for nb in lists])
    assert core[mid].all() and core.sum() == 20
    np.testing.assert_array_equal(graph.core, core)
    np.testing.assert_array_equal(graph.border, reference_border(lists, core))
    assert (graph.border[low] == mid).all() and (graph.border[high] == mid).all()
    monkeypatch.undo()
    assert_one_pass_matches_reference(monkeypatch, np.repeat(xd, weight, axis=0), 1.0, 4)


def test_neighbor_lists_memory_does_not_grow_with_min_samples(rng):
    # at min_samples 200 every row of this table is non-core, with about 150
    # neighbours each; at 10 every row is core. The pass keeps one state and
    # one border entry per row and one block at a time, so its peak is the
    # same at both; keeping the non-core rows' neighbour lists would peak
    # about 4x higher at 200
    x = rng.random((4000, 3))
    weight = np.ones(len(x), dtype=np.int64)
    peaks = {}
    for min_samples in (10, 200):
        tracemalloc.start()
        try:
            graph = neighbor_lists(x, 0.2, min_samples, weight)
            peaks[min_samples] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.core.all() if min_samples == 10 else not graph.core.any()
    assert peaks[200] <= 1.25 * peaks[10]


def test_one_pass_joins_a_row_core_by_weight_alone_before_its_neighbours(rng, monkeypatch):
    # row 0 stands for three copies: its two distinct neighbours (itself and
    # the row at 0.9) make a short list, complete in the first block, whose
    # weights reach min_samples 4; the row at 0.9 is core by count, in a
    # later block, and joins it
    chain = np.array([0.0, 0.9, 1.2, 1.4, 1.6, 1.8])
    scatter = 100.0 + 3.0 * np.arange(300)
    xd = np.r_[chain, scatter][:, None]
    weight = np.ones(len(xd), dtype=np.int64)
    weight[0] = 3
    assert one_row_blocks(len(xd))
    for tile_bytes in (kernels.TILE_BYTES, 4096):
        for grid in (False, True):
            monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
            graph = graph_by(monkeypatch, grid, xd, 1.0, 4, weight)
            assert graph.core[:6].all() and not graph.core[6:].any()
            assert graph.root[:6].tolist() == [0] * 6
            assert (graph.border == len(xd)).all()
            monkeypatch.undo()
    x = np.repeat(xd, weight, axis=0)
    assert_one_pass_matches_reference(monkeypatch, x, 1.0, 4)


def test_dbscan_streams_the_hit_blocks_once(rng, monkeypatch):
    # one stream over the distinct rows, of the rows outside dense cells; the
    # dense cells' passes run on their own rows, never on the table again
    calls = count_calls(monkeypatch, "_hit_blocks")
    x = clustered_cloud(rng, 500, 2, duplicates=0.1)
    first, _, weight = kernels.distinct_rows(x)
    for eps in (0.3, None):
        calls.clear()
        labeling = dbscan(matrix(x), eps, 5)
        streams = [c for c in calls if len(c[0]) == len(first)]
        assert len(streams) == 1, eps
        assert all(len(c[0]) < len(first) for c in calls if c is not streams[0])
        dense = kernels._dense_cells(x[first], labeling.eps, 5, weight)
        if dense is None:
            assert eps is None and len(calls) == 1 and streams[0][2] is None
        else:
            assert len(calls) == 4, eps  # the stream, and the cells' three passes
            stream = np.setdiff1d(np.arange(len(first)), dense[0])
            np.testing.assert_array_equal(streams[0][2], stream)


def dense_case_check(monkeypatch, x, eps, min_samples, weight=None):
    """The dense rows of x, then neighbor_lists on the rows of x with their
    weights (one by default) against the reference core mask and borders, and
    dbscan on the rows repeated weight times against the reference labels, at
    default and 4 KiB tiles with the grid forced off and on."""
    weight = np.ones(len(x), dtype=np.int64) if weight is None else weight
    dense = kernels._dense_cells(x, eps, min_samples, weight)
    lists = reference_neighbors(x, eps)
    core = np.array([weight[nb].sum() >= min_samples for nb in lists])
    for tile_bytes in (kernels.TILE_BYTES, 4096):
        for grid in (False, True):
            where = f"tiles {tile_bytes}, grid {grid}"
            monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
            graph = graph_by(monkeypatch, grid, x, eps, min_samples, weight)
            np.testing.assert_array_equal(graph.core, core, err_msg=where)
            np.testing.assert_array_equal(graph.border, reference_border(lists, core), err_msg=where)
            monkeypatch.undo()
    assert_one_pass_matches_reference(monkeypatch, np.repeat(x, weight, axis=0), eps, min_samples)
    return set() if dense is None else set(dense[0].tolist())


def cell_edges(h, key):
    """The least and the greatest float x > 0 whose dense-cell key
    floor(fl(x / h)) is key, by bisection over the ordered bit patterns."""

    def least_at(k):
        lo, hi = 0, int(np.array(np.inf).view(np.int64))
        while lo < hi:
            mid = (lo + hi) // 2
            if np.floor(np.array(mid).view(np.float64) / h) >= k:
                hi = mid
            else:
                lo = mid + 1
        return float(np.array(lo).view(np.float64))

    return least_at(key), float(np.nextafter(least_at(key + 1), 0.0))


def test_dense_cells_hold_their_widest_pairs_within_eps(rng, monkeypatch):
    # rows on the extreme floats of a cell's keys in every dimension, at a
    # small key and at one near 2^39, where each quotient rounds by up to
    # 2^-13: the corners are within 2^-7 of eps apart and still hits; the
    # next cell's corners sit one float past them
    eps, d = 1.0, 3
    h = kernels._dense_side(eps, d)
    for key in (5, 2**39 - 3):
        cells = []
        for k in (key, key + 1):
            lo, hi = cell_edges(h, k)
            corners = np.array(np.meshgrid(*[[lo, hi]] * d)).reshape(d, -1).T
            inside = lo + (hi - lo) * rng.uniform(0.0, 1.0, size=(4, d))
            cells.append(np.vstack([corners, inside]))
        x = np.vstack(cells + [rng.uniform(0.0, 1.0, size=(10, d)) * h * key])
        spread = dists_to(cells[0][0], cells[0][-5:-4])[0]
        assert eps * (1 - 2.0**-7) <= spread <= eps, key
        assert dense_case_check(monkeypatch, x, eps, 4) == set(range(24)), key


def test_a_cell_dense_by_its_weights_alone_is_core_without_streaming(rng, monkeypatch):
    # eight distinct rows 0.1 apart in one cell, each standing for three
    # copies, at min_samples 20: no row has 20 distinct neighbours, but the
    # cell weighs 24, so its rows are core; the row 0.95 past its last row is
    # a border row. At min_samples 25 the cell is light and every row streams
    eps = 1.0
    h = kernels._dense_side(eps, 1)
    cell = 10 * h + 0.1 * np.arange(1, 9)
    scatter = 30.0 + 1.5 * np.arange(40)
    x = np.r_[scatter[:20], cell[-1] + 0.95, cell, scatter[20:]][:, None]
    weight = np.ones(len(x), dtype=np.int64)
    weight[21:29] = 3
    assert dense_case_check(monkeypatch, x, eps, 20, weight) == set(range(21, 29))
    assert kernels._dense_cells(x, eps, 25, weight) is None
    graph = neighbor_lists(x, eps, 20, weight)
    assert graph.core.tolist() == [False] * 21 + [True] * 8 + [False] * 20
    assert graph.border[20] == 28 and graph.root[21:29].tolist() == [21] * 8


def block_order(x, eps, stream):
    """Each streamed row's block index in _hit_blocks."""
    order = {}
    for k, (rows, _, _) in enumerate(kernels._hit_blocks(x, eps, stream)):
        order.update(dict.fromkeys(rows.tolist(), k))
    return order


def test_border_row_beside_a_dense_cell_takes_a_lower_core_row_streamed_later(monkeypatch):
    # eps 1 and min_samples 4 on a line: a dense cell of eight rows at
    # 5.0-5.7 (rows 2-9), and a border row at 6.65 (row 0) that reaches only
    # the cell's row at 5.7 and the core row at 7.6 (row 1). The border row
    # streams first, by row order and by grid cell, when its first core
    # column is a dense row; row 1, lower, must replace it when it streams
    h = kernels._dense_side(1.0, 1)
    cell = 5.0 + 0.1 * np.arange(8)
    assert len(np.unique(np.floor(cell / h))) == 1
    x = np.r_[6.65, 7.6, cell, 7.9, 8.2, 8.5, 1000.0 + 3.0 * np.arange(300)][:, None]
    assert one_row_blocks(len(x))
    weight = np.ones(len(x), dtype=np.int64)
    rows, root = kernels._dense_cells(x, 1.0, 4, weight)
    assert rows.tolist() == list(range(2, 10)) and (root == 2).all()
    stream = np.setdiff1d(np.arange(len(x)), rows)
    # one row per block on brute force, one grid cell per block on the grid
    for grid, tile_bytes in ((False, 4096), (True, 8)):
        monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
        force_grid(monkeypatch, grid)
        order = block_order(x, 1.0, stream)
        assert order[0] < order[1], grid
        graph = neighbor_lists(x, 1.0, 4, weight)
        assert not graph.core[0] and graph.core[1:13].all()
        assert graph.border[0] == 1, grid
        monkeypatch.undo()
    assert dense_case_check(monkeypatch, x, 1.0, 4) == set(range(2, 10))


def test_dense_cells_whose_lowest_rows_do_not_decide_take_the_exact_test(monkeypatch):
    # eps 1 and min_samples 4 on a line of dense cells of eight rows, each
    # cell's lowest row first. Cells A and B are adjacent with lowest rows
    # 1.98 apart, while A's last row is 0.016 from B's first: only the exact
    # test of their rows joins them. The lowest rows of C and D are 1.6 apart,
    # within what their radii allow, but no pair of theirs is within eps:
    # the exact test keeps them apart
    h = kernels._dense_side(1.0, 1)
    a = 10 * h + np.array([0.001, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99])
    b = 11 * h + np.array([0.99, 0.01, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9])
    c = 20 * h + np.array([0.001, 0.1, 0.2, 0.3, 0.35, 0.4, 0.45, 0.5])
    e = 21 * h + np.array([0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95])
    x = np.r_[a, b, c, e][:, None]
    assert dists_to(x[0], x[8:9])[0] > 1.0 and dists_to(x[7], x[9:10])[0] <= 1.0
    assert dists_to(x[16], x[24:25])[0] < 1.0 + 0.499 + 0.35
    assert dists_to(x[23], x[24:25])[0] > 1.0
    assert dense_case_check(monkeypatch, x, 1.0, 4) == set(range(32))
    labels = dbscan(matrix(x), 1.0, 4).labels
    assert labels.tolist() == [0] * 16 + [1] * 8 + [2] * 8


def test_rows_with_huge_keys_or_not_finite_stay_out_of_dense_cells(rng, monkeypatch):
    # eps 1e-6 in 2-d: the rows near 1e7 have keys about 1.4e13 >= 2^40, so
    # their group streams though it is as tight as the dense one near 0;
    # NaN and inf rows are in no cell
    near = rng.uniform(0.0, 3e-7, size=(12, 2))
    bad = np.array([[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf], [np.nan, np.nan]])
    x = np.vstack([1e7 + near, bad, near, rng.uniform(1.0, 2.0, size=(20, 2))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels._dense_cells(x, 1e-6, 4, np.ones(len(x), dtype=np.int64))[0].tolist() == list(range(16, 28))
    with np.errstate(invalid="ignore"):
        assert dense_case_check(monkeypatch, x, 1e-6, 4) == set(range(16, 28))


def test_dense_cells_at_eps_near_the_ends_of_their_range(rng, monkeypatch):
    # dense cells key rows for 2^-500 < eps < 2^496 only; the same cloud,
    # scaled by powers of two, just inside and just outside that range
    base = np.vstack([rng.normal(0.0, 0.05, (30, 2)), rng.normal(3.0, 0.05, (30, 2)),
                      rng.uniform(-5.0, 5.0, (20, 2))])
    for scale, taken in ((2.0**-498, True), (2.0**-500, False), (2.0**494, True), (2.0**497, False)):
        x, eps = base * scale, 0.5 * scale
        assert (len(dense_case_check(monkeypatch, x, eps, 4)) > 40) == taken, scale


def test_dense_rows_never_enter_a_tile_as_block_rows(rng, monkeypatch):
    # a memorizer-like table: two modes of 1500 rows on one numeric column
    # and four one-hot pairs, and 300 scattered rows, at eps 0.35 and
    # min_samples 100. Only the rows outside dense cells stream, and the
    # cells' passes see their lowest rows, so the tiles hold fewer than
    # n_d^2 / 10 pairs for the n_d dense rows (4.4 %); refusing the cells
    # gives more than n_d^2 / 4 (56 %), with the same graph
    n = 3300
    pattern = np.where(np.arange(n) < 1500, 0, 1)
    pattern[3000:] = rng.integers(0, 2, size=(300, 4)) @ [1, 2, 4, 8]
    x = np.zeros((n, 9))
    x[:, 0] = rng.normal(0.5, 0.15, n)
    x[3000:, 0] = rng.uniform(0.0, 1.0, 300)
    for j in range(4):
        bit = np.where(pattern == 1, 1 - j % 2, (pattern >> j) & 1)
        x[:, 1 + 2 * j], x[:, 2 + 2 * j] = bit, 1 - bit
    x = x[rng.permutation(n)]
    weight = np.ones(n, dtype=np.int64)
    rows, root = kernels._dense_cells(x, 0.35, 100, weight)
    dense, lowest = set(rows.tolist()), set(root.tolist())
    index = {r.tobytes(): i for i, r in enumerate(x)}
    assert len(index) == n and len(dense) > 2500
    real = kernels._bracket_tiles

    def spy(a, y, rows=None):
        block = [index[r.tobytes()] for r in (a if rows is None else a[rows])]
        seen.extend(block)
        pairs[0] += len(block) * len(y)
        return real(a, y, rows)

    monkeypatch.setattr(kernels, "_bracket_tiles", spy)
    want = None
    for cell_rows in (kernels.CELL_ROWS, n + 1):
        seen, pairs = [], [0]
        monkeypatch.setattr(kernels, "CELL_ROWS", cell_rows)
        graph = neighbor_lists(x, 0.35, 100, weight)
        if want is None:
            assert not (set(seen) & dense) - lowest
            assert pairs[0] < len(dense) ** 2 / 10
            want = graph
        else:
            assert pairs[0] > len(dense) ** 2 / 4
            for a, b in zip(graph, want):
                np.testing.assert_array_equal(a, b)


def assert_median_is_brute_forces(monkeypatch, x, k, grid=True):
    """Checks kth_neighbor_median(x, k), with the cost rule forced to `grid`,
    against the brute-force median bit for bit; returns the radii of the cell
    maps over every row that it asked for (the maps of the rows given an
    exact value, which stream, are left out)."""
    radii = []
    real = kernels._cell_map

    def spy(x, radius, stream=None):
        if stream is None:
            radii.append(radius)
        return real(x, radius, stream)

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
        # sample's estimates of 0 are the bounds' slack, below 1e-6, and the
        # grid at that radius answers, with no brute force
        assert len(radii) == 1 and (radii[0] < 1e-6) == (k <= 2), (k, radii)


def test_certified_median_with_rows_on_cell_boundaries(monkeypatch):
    # 600 rows 1 apart (k-th distance 1, so the first radius is the estimate
    # of 1) and 399 rows on and 1/2 to either side of the boundaries of the
    # cells of side r = 1, most with k-th distance 1/2; rows at exactly r_lo
    # or r_hi are counted on their side of the bracket
    side = kernels._cell_side(1.0)
    lattice = np.column_stack([1000.0 + np.arange(600), np.zeros(600)])
    bounds = side * np.arange(1, 134)
    edges = np.concatenate([bounds - 0.5, bounds, bounds + 0.5])
    x = np.vstack([lattice, np.column_stack([edges, np.ones(399)])])
    assert np.floor(bounds / side).tolist() == list(range(1, 134))
    (r,) = assert_median_is_brute_forces(monkeypatch, x, 2)
    assert 1.0 <= r < 1.0 + 2.0**-20
    want = float(np.median(kth_neighbor_distances(x, 2)))
    for r_lo, r_hi in ((0.5, 1.0), (1.0, 1.0), (0.5, 0.5), (0.5, 2.0), (1.0, 2.0)):
        found = kernels._select_median(x, 2, kernels._cell_map(x, r_hi), r_lo, r_hi)
        assert found.median == (want if r_hi >= 1.0 else None), (r_lo, r_hi)


def test_certified_median_doubles_the_radius_until_half_the_rows_certify(rng, monkeypatch):
    # the evenly spaced sample takes every 4th row, all of them in a tight
    # blob; the other three quarters are scattered, so the median lies above
    # the first radius and the selection repeats at twice the radius
    n = (kernels.MEDIAN_SAMPLE - 1) * 4 + 1
    x = rng.uniform(0.0, 100.0, size=(n, 2))
    x[::4] = rng.uniform(0.0, 0.1, size=(len(x[::4]), 2))
    radii = assert_median_is_brute_forces(monkeypatch, x, 5)
    assert len(radii) > 2
    assert radii[1:] == [2.0 * r for r in radii[:-1]]
    # exactly n // 2 rows have a k-th distance at most r = 1 and 2, which
    # leaves the upper middle value above both: the sampled rows and
    # MEDIAN_SAMPLE - 2 more sit three to a point, points 1 apart (k-th
    # distance 1); the others sit alone at 1000 + 1.5 * index, so their k-th
    # distance is at least 3
    tight = np.r_[np.arange(0, n, 4), np.arange(1, 4 * (kernels.MEDIAN_SAMPLE - 2), 4)]
    x = 1000.0 + 1.5 * np.arange(n, dtype=np.float64)[:, None]
    x[np.sort(tight), 0] = np.arange(len(tight)) // 3
    assert len(tight) == n // 2
    radii = assert_median_is_brute_forces(monkeypatch, x, 3)
    r = radii[0]
    assert radii == [r, 2.0 * r, 4.0 * r] and 1.0 <= r < 1.0 + 2.0**-20


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
    # a refused grid steps down from the sample's 5/8 quantile towards its
    # median, then brute force answers
    x = clustered_cloud(rng, 300, 2)
    radii = assert_median_is_brute_forces(monkeypatch, x, 4, grid=False)
    picks = np.linspace(0, 299, kernels.MEDIAN_SAMPLE).astype(np.int64)
    sample = np.sort(kernels._kth_estimates(x, picks, 4))
    assert radii[0] == sample[len(sample) * 5 // 8] and radii[-1] == sample[len(sample) // 2]
    assert len(radii) > 2 and radii == sorted(set(radii), reverse=True)


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


def two_lattices(n_ones, n_twos):
    """n_ones rows 1 apart and n_twos rows 2 apart, far from each other, on
    small integers so that every distance is exact. At k = 2 the k-th
    distances are n_ones - 2 ones, n_twos twos besides 2 at the ends of the
    first lattice (2 in all) and two fours at the ends of the second."""
    ones = np.column_stack([np.arange(n_ones, dtype=np.float64), np.zeros(n_ones)])
    twos = np.column_stack([2.0 * np.arange(n_twos), np.full(n_twos, 100.0)])
    return np.vstack([ones, twos])


@pytest.mark.parametrize("n_ones, n_twos, want", [(202, 198, 1.5), (201, 200, 2.0), (203, 198, 1.0)])
def test_median_selection_with_ties_at_both_radii_and_either_parity(monkeypatch, n_ones, n_twos,
                                                                    want):
    # 400 rows, whose middle values are a one and a two, and 401 rows whose
    # middle value is a two or a one. Radii of exactly 1 and 2 put the rows
    # of the middle ranks on r_lo, on r_hi or on both
    x = two_lattices(n_ones, n_twos)
    n = len(x)
    kth = kth_neighbor_distances(x, 2)
    assert float(np.median(kth)) == want
    top = np.sort(kth)[n // 2]
    force_grid(monkeypatch, True)
    for r_lo, r_hi in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (0.5, 1.0), (0.5, 2.0), (1.5, 4.0)):
        found = kernels._select_median(x, 2, kernels._cell_map(x, r_hi), r_lo, r_hi)
        if r_hi >= top:
            assert found.median == want, (r_lo, r_hi)
            assert found.low + found.mid + found.high == n and found.exact < n
        else:
            assert found.median is None, (r_lo, r_hi)
    assert_median_is_brute_forces(monkeypatch, x, 2)


def test_rank_window_holds_the_order_statistics(rng):
    # small integer intervals, many of them single points (some at +inf),
    # and values on their ends as often as inside: ties everywhere
    for _ in range(500):
        n = int(rng.integers(1, 30))
        lo = rng.integers(0, 6, n).astype(np.float64)
        hi = lo + rng.integers(0, 3, n)
        hi[rng.random(n) < 0.15] = np.inf
        v = lo + np.floor(rng.random(n) * (np.minimum(hi, lo + 4) - lo + 1))
        top = rng.random(n) < 0.1
        lo[top] = hi[top] = v[top] = np.inf
        p = int(rng.integers(0, n))
        q = int(rng.integers(p, n))
        below, window = kernels._rank_window(lo, hi, p, q)
        got = np.sort(v[window])[p - below : q - below + 1]
        assert got.tolist() == np.sort(v)[p : q + 1].tolist(), (lo, hi, v, p, q)


def median_log(caplog, x, k):
    """kth_neighbor_median(x, k), checked against brute force bit for bit,
    and the message of its INFO line."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="cmla.kernels"), np.errstate(over="ignore"):
        got = kernels.kth_neighbor_median(x, k)
        want = float(np.median(kth_neighbor_distances(x, k)))
    assert np.array(got).tobytes() == np.array(want).tobytes(), (got, want)
    (message,) = [r.getMessage() for r in caplog.records if "k-th distance median" in r.getMessage()]
    return message


def test_median_selection_falls_back_where_the_bracket_misses(rng, monkeypatch, caplog):
    # estimates scaled down put the median above r_hi, so the pass repeats
    # at 2 r_hi and further; scaled up, it lies below r_lo and the rows that
    # can hold it get exact values; a row whose squared norm overflows gives
    # infinite spreads, whose rows take [0, +inf]
    x = clustered_cloud(rng, 1500, 3)
    force_grid(monkeypatch, True)
    real = kernels._kth_estimates
    for scale in (0.25, 4.0, 1.0):
        monkeypatch.setattr(kernels, "_kth_estimates", lambda x, rows, k: scale * real(x, rows, k))
        message = median_log(caplog, x, 5)
        assert message.endswith("path selection"), message
        assert "r_lo" in message and "r_hi" in message and "low" in message
        exact = int(message.split(" exact")[0].rsplit(" ", 1)[1])
        passes = int(message.split(" selection passes")[0].rsplit(" ", 1)[1])
        # below the median, r_hi misses it and the pass repeats; at the true
        # scale one pass gives a few rows an exact value
        assert passes > 1 if scale < 1 else passes == 1, message
        assert exact < 10 if scale == 1 else exact > 0, message
    monkeypatch.setattr(kernels, "_kth_estimates", real)
    x[7, 0] = 1e160
    assert median_log(caplog, x, 5).endswith("path selection")
    x[7, 0] = np.nan
    assert median_log(caplog, x, 5).endswith("path brute")


def test_median_selection_gives_rows_of_infinite_spread_tiles_every_value(rng, monkeypatch):
    # a row with a coordinate of 1e160 and 40 copies of it: their squared
    # norms overflow, so their pairs get NaN bounds, and every tile with one
    # as a column an infinite spread. Their other coordinates sit in the
    # densest blob, so many rows' adjacent cells hold them; those rows take
    # [0, +inf] and reach the rank window, where the streamed grid gives
    # them exact values, with no second map and no brute force. The copies'
    # k-th distances are 0 up to k = 40: a pass that read their NaN bounds
    # as "above r_hi" would move the median
    x = overflow_cloud(rng)
    # kth_neighbor_distances would compute every pair exactly here (the
    # NaN bounds settle none); the reference rows do the same, one partition
    # for all three k
    with np.errstate(over="ignore"):
        kth = np.array([np.partition(reference.row_dists(x, j), (1, 5, 40))[[1, 5, 40]]
                        for j in range(len(x))])
    want = {k: float(np.median(kth[:, c])) for c, k in enumerate((1, 5, 40))}
    maps = record_cell_maps(monkeypatch)
    brute = count_calls(monkeypatch, "kth_neighbor_distances")
    for k, median in want.items():
        maps.clear()
        with np.errstate(over="ignore"):
            got = kernels.kth_neighbor_median(x, k)
        assert brute == [] and len(maps) == 1 and maps[0][1], (k, maps)
        assert np.array(got).tobytes() == np.array(median).tobytes(), (k, got, median)


def audit_shaped_table(n_rows):
    """The encoded synthetic rows of the benchmark's sparse-auto-eps
    workload at n_rows: the ordering scenario's recipe, the independent
    generator, the scenario's seed."""
    scenario = harness.load_scenario(DATA_DIR / "ordering_scenario.json")
    rng = np.random.default_rng(scenario.seed)
    real = harness.make_real(dataclasses.replace(scenario.real, n_rows=n_rows), rng)
    spec = harness.GeneratorSpec("independent", "independent", n_rows)
    synthetic = harness.sample_synthetic(real, spec, rng)
    return encoding.encode(encoding.fit_encoding(synthetic), synthetic).vectors


def test_median_selection_computes_few_exact_distances_on_an_audit_shaped_table(monkeypatch):
    # 8000 rows at k = 100: exact k-th distances for under 5 % of the rows,
    # a partition for under 40 %, with the grid taken at the first radius
    x = audit_shaped_table(8000)
    n, k = len(x), 100
    exact, parted = [0], [0]
    kth_tiles, kth_column = kernels._kth_tiles, kernels._kth_column

    def tiles(a, y, k):
        exact[0] += len(a)
        return kth_tiles(a, y, k)

    def column(a, k):
        parted[0] += len(a)
        return kth_column(a, k)

    monkeypatch.setattr(kernels, "_kth_tiles", tiles)
    monkeypatch.setattr(kernels, "_kth_column", column)
    brute = count_calls(monkeypatch, "kth_neighbor_distances")
    maps = record_cell_maps(monkeypatch)
    got = kernels.kth_neighbor_median(x, k)
    assert brute == [] and len(maps) == 1 and maps[0][1]
    assert exact[0] < n / 20 and parted[0] + exact[0] < n * 2 / 5, (exact, parted)
    monkeypatch.setattr(kernels, "_kth_tiles", kth_tiles)
    assert got == float(np.median(kernels._kth_distances(x, x, k)))


def test_median_steps_down_to_a_radius_the_grid_takes(rng, monkeypatch):
    # a one-hot table with bimodal k-th distances: 56 % of the rows share
    # two category patterns and lie close, the rest have patterns of their
    # own, at least sqrt(2) from any other row. The sample's 5/8 quantile
    # is such a distance, whose cells no one-hot column can key, and the
    # schedule steps down to a radius below the grid's limit of about 1/2
    n, k = 4000, 5
    cats = rng.integers(0, 4, size=(n, 6))
    close = rng.random(n) < 0.56
    cats[close] = cats[rng.integers(0, 2, size=np.count_nonzero(close))]
    table = mixed_table({"x0": rng.uniform(0.0, 1.0, size=n)},
                        {f"c{j}": [f"v{v}" for v in cats[:, j]] for j in range(6)})
    x = encoding.encode(encoding.fit_encoding(table), table).vectors
    maps = record_cell_maps(monkeypatch)
    brute = count_calls(monkeypatch, "kth_neighbor_distances")
    got = kernels.kth_neighbor_median(x, k)
    assert brute == []
    (first, refused), (last, grid) = maps[0], maps[-1]
    assert refused is False and kernels._cell_side(first) > 1.0
    assert grid is True and kernels._cell_side(last) <= 0.5 and len(maps) > 1
    assert got == float(np.median(kernels._kth_distances(x, x, k)))


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
        neighbor_lists(np.zeros((3, 1)), 0.0, 3, np.ones(3, dtype=np.int64))


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


def ones(x):
    return np.ones(len(x), dtype=np.int64)


def test_medoid_local_index_hand_case():
    # sums of distances: 11, 10, 19, so the middle point wins
    members = np.array([[0.0], [1.0], [10.0]])
    assert medoid_local_index(members, ones(members)) == 1


def test_medoid_local_index_tie_takes_lowest():
    # equal rows of weight 1 each are valid input: their sums are equal
    members = np.array([[1.0], [1.0], [1.0]])
    assert medoid_local_index(members, ones(members)) == 0


def exhaustive_medoid(x):
    """Lowest index with the smallest exact (fsum) distance sum."""
    sums = [math.fsum(reference.row_dists(x, i)) for i in range(len(x))]
    return sums.index(min(sums))


def medoid_of_copies(x):
    """The row of x whose copy medoid_local_index picks from x's distinct rows
    and their counts, the input clustering.dbscan gives extract_medoids."""
    first, _, weight = kernels.distinct_rows(x)
    return int(first[medoid_local_index(x[first], weight)])


def test_medoid_duplicated_optimum_takes_the_lowest_copy(rng):
    core = rng.normal(0.0, 1.0, size=(300, 4))
    best = exhaustive_medoid(core)
    x = core.copy()
    copies = [17, 120, 250]
    x[copies] = core[best]
    want = exhaustive_medoid(x)
    assert want == min(copies + [best])
    assert medoid_of_copies(x) == want


def test_medoid_symmetric_layouts_keep_the_exhaustive_tie_rule(monkeypatch):
    # every sum ties mathematically; rounding alone separates the rows
    for n in (12, 64, 257):
        angle = 2.0 * np.pi * np.arange(n) / n
        polygon = np.column_stack([np.cos(angle), np.sin(angle)])
        assert medoid_local_index(polygon, ones(polygon)) == exhaustive_medoid(polygon)
    # the two middle points tie exactly: the lower one wins
    for n in (2, 10, 400):
        line = np.column_stack([np.arange(n, dtype=np.float64), np.zeros(n)])
        assert medoid_local_index(line, ones(line)) == exhaustive_medoid(line) == n // 2 - 1
        # mirrored counts of 1 to 4 keep the exact tie under weights, so the
        # middle point the axis bound does not pick must pass it to tie; in
        # reverse order the other middle point's copy comes first
        half = 1 + np.arange(n // 2) % 4
        counts = np.concatenate([half, half[::-1]])
        x = np.repeat(line, counts, axis=0)
        for tile_bytes in (kernels.TILE_BYTES, 4096):
            monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
            assert medoid_of_copies(x) == exhaustive_medoid(x) == half[:-1].sum()
            reverse = np.ascontiguousarray(x[::-1])
            assert medoid_of_copies(reverse) == exhaustive_medoid(reverse) == half[:-1].sum()
        monkeypatch.undo()


def test_medoid_of_non_finite_members_takes_the_first_nan_sum():
    # np.argmin over every exact sum: a NaN member makes every sum NaN; an inf
    # member's distance to itself is NaN (inf - inf) and every other sum is
    # inf; squares that overflow make every sum inf, so the first row wins
    nan, inf = math.nan, math.inf
    cases = [
        ([[0.0, 1.0], [nan, 0.0], [2.0, 0.0]], 0),
        ([[0.0, 0.0], [1.0, 0.0], [inf, 0.0], [3.0, 0.0]], 2),
        ([[0.0, 0.0], [inf, 0.0], [0.0, -inf], [1.0, 0.0]], 1),
        ([[1e300, 0.0], [-1e300, 0.0], [0.0, 1e300]], 0),
    ]
    with np.errstate(all="ignore"):
        for rows, want in cases:
            x = np.array(rows)
            sums = [math.fsum(reference.row_dists(x, i)) for i in range(len(x))]
            assert medoid_local_index(x, ones(x)) == np.argmin(sums) == want, rows


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
            assert medoid_of_copies(x) == want, (d, tile_bytes)


def test_medoid_ties_between_distinct_rows_take_the_lowest_row_id(rng):
    # 1 and 2 both sum to 5 and occur twice each: the first 2 is row 1
    line = np.array([[3.0], [2.0], [1.0], [0.0], [2.0], [1.0]])
    assert medoid_of_copies(line) == exhaustive_medoid(line) == 1
    # each vertex of a polygon repeated equally: the sums tie mathematically
    for n in (12, 64):
        angle = 2.0 * np.pi * np.arange(n) / n
        polygon = np.column_stack([np.cos(angle), np.sin(angle)])
        x = np.ascontiguousarray(np.tile(polygon, (3, 1))[rng.permutation(3 * n)])
        assert medoid_of_copies(x) == exhaustive_medoid(x)


def test_medoid_of_an_identical_wide_cluster_makes_one_exact_sum(monkeypatch):
    # 2000 copies of one row at d = 2001, as dbscan merges them
    got, sums, _ = medoid_work(monkeypatch, np.ones((1, 2001)), np.array([2000]))
    assert got == 0
    assert sums == 1


def test_medoid_with_a_far_outlier_and_a_dense_core(rng):
    x = rng.normal(0.0, 0.01, size=(400, 3))
    x[0] = [1e6, -1e6, 1e6]
    assert medoid_local_index(x, ones(x)) == exhaustive_medoid(x)


def test_medoid_matches_exhaustive_fsum_across_scales(rng):
    # 1e-160 underflows squared differences, 1e160 overflows them to inf
    for scale in (1e-160, 1e-3, 1.0, 1e150, 1e160):
        for d in (1, 2, 9):
            x = clustered_cloud(rng, 150, d, duplicates=0.2) * scale
            with np.errstate(over="ignore", invalid="ignore"):
                assert medoid_of_copies(x) == exhaustive_medoid(x), (scale, d)


def medoid_work(monkeypatch, xd, weight):
    """(medoid_local_index(xd, weight), the exact sums it computed, the rows
    its tiles bounded): pairs sent to dists_to and pairs of _bracket_tiles'
    upper bounds, each over the distinct member count len(xd)."""
    exact, bounded = [], []
    real_dists_to, real_tiles = kernels.dists_to, kernels._bracket_tiles

    def counting(a, points):
        exact.append(len(points))
        return real_dists_to(a, points)

    def tiles(*args):
        for i0, upper, spread in real_tiles(*args):
            bounded.append(upper.size)
            yield i0, upper, spread

    monkeypatch.setattr(kernels, "dists_to", counting)
    monkeypatch.setattr(kernels, "_bracket_tiles", tiles)
    got = medoid_local_index(xd, weight)
    monkeypatch.undo()
    return got, sum(exact) / len(xd), sum(bounded) / len(xd)


def test_medoid_computes_few_exact_sums_on_a_large_cluster(rng, monkeypatch):
    # the band's row sums bracket every sum within a relative 1e-12 or so, far
    # tighter than the gaps between the sums of the rows nearest the centre,
    # in 9-d as in 2-d, although 9-d distances concentrate
    for d in (2, 9):
        x = rng.normal(0.0, 1.0, size=(4000, d))
        got, sums, _ = medoid_work(monkeypatch, x, ones(x))
        assert got == exhaustive_medoid(x)
        assert sums <= 10, d


def test_medoid_rules_out_rows_by_the_widest_axis_before_the_tiles(rng, monkeypatch):
    # one column spans the cluster and eight are constant: the axis bound is
    # the exact sum up to rounding, so few rows reach the tiles, which alone
    # would bound all n^2 pairs
    n = 20_000
    x = np.column_stack([rng.random(n), np.full((n, 8), 0.5)])
    got, sums, screened = medoid_work(monkeypatch, x, ones(x))
    assert screened <= 10 and sums <= 10
    # the two middle rows' sums differ from every other one by far more than
    # rounding, so the exhaustive rule reduces to them
    middle = np.argsort(x[:, 0])[n // 2 - 1 : n // 2 + 1].tolist()
    assert got == min(middle, key=lambda i: (math.fsum(reference.row_dists(x, i)), i))
    # far from the origin the tiles' band spans many sums, but the axis
    # bound's error grows only with m * max |x| * md * u
    line = 1e6 + rng.random((4000, 1))
    got, sums, _ = medoid_work(monkeypatch, line, ones(line))
    assert got == exhaustive_medoid(line)
    assert sums <= 30


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
    got, sums, _ = medoid_work(monkeypatch, x, ones(x))
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
        "w = np.ones(m, dtype=np.int64)\n"
        "medoid_local_index(x[:10].copy(), w[:10])",
        "medoid_local_index(x, w)",
    )
    assert growth < 1.5 * 2000 * 2001 * 8 / 2**20


def unique_patterns(keys: list, n: int) -> tuple[np.ndarray, int, np.ndarray]:
    """The ids, their count and the first rows of the rows' key patterns,
    ids ascending with the patterns in lexicographic order, by np.unique."""
    if not keys:
        return np.zeros(n, dtype=np.int64), int(n > 0), np.zeros(int(n > 0), dtype=np.int64)
    codes = np.stack([key for key, _ in keys], 1)
    _, first, gid = np.unique(codes, axis=0, return_index=True, return_inverse=True)
    return gid.ravel(), len(first), first


def key_cases(rng) -> list[list[tuple[np.ndarray, int]]]:
    """Key columns, (codes, span) each, on which ranks and folds turn."""
    cases = [[], [(np.array([3]), 5)], [(np.array([True]), 2), (np.array([0]), 1)]]
    for n in (2, 9, 300):
        cases.append([(rng.random(n) < 0.5, 2) for _ in range(3)])
        # values that span exactly 4n and 4n + 1: a bincount, then a sort
        for span in (4 * n, 4 * n + 1):
            v = rng.integers(0, span, n)
            v[0] = span - 1
            cases.append([(v, span), (rng.integers(0, 3, n), 3)])
        # 70 binary columns: the code passes 4n in the middle of the fold
        cases.append([(rng.random(n) < 0.1, 2) for _ in range(70)])
        # one key whose radix alone is above 4n, between two small ones
        cases.append([(rng.integers(0, 2, n), 2), (rng.integers(0, 40 * n, n), 40 * n),
                      (rng.integers(0, 3, n).astype(np.int32), 3)])
    return cases


def test_rank_gives_dense_ranks_in_value_order(rng):
    ranks, count = kernels._rank(np.zeros(0, dtype=np.int64))
    assert ranks.tolist() == [] and count == 0
    for keys in key_cases(rng):
        for v, _ in keys:
            uniq, inverse = np.unique(v, return_inverse=True)
            ranks, count = kernels._rank(v)
            assert ranks.tolist() == inverse.ravel().tolist() and count == len(uniq)


def test_fold_keeps_codes_small_and_lexicographic(rng):
    for keys in key_cases(rng):
        n = len(keys[0][0]) if keys else 0
        code, radix = np.zeros(n, dtype=np.int64), 1
        for j, (key, span) in enumerate(keys):
            code, radix = kernels._fold(code, radix, key, span)
            assert 0 <= code.min() and code.max() < radix <= 4 * n
            assert kernels._rank(code)[0].tolist() == unique_patterns(keys[: j + 1], n)[0].tolist()


def test_patterns_match_np_unique_over_the_key_columns(rng):
    for n in (0, 1, 5):
        gid, g, first = kernels._patterns([], n)
        assert (gid.tolist(), g, first.tolist()) == ([0] * n, int(n > 0), [0] * (n > 0))
    for keys in key_cases(rng):
        n = len(keys[0][0]) if keys else 1
        gid, g, first = kernels._patterns(keys, n)
        want_gid, want_g, want_first = unique_patterns(keys, n)
        assert gid.tolist() == want_gid.tolist() and g == want_g
        assert first.tolist() == want_first.tolist()


def test_lowest_merges_candidates_in_any_order_as_argmin_does(rng):
    # ties, infinities and NaNs of both signs; group 5 gets no candidate
    m, n = 8, 60
    d = rng.choice([0.0, 0.25, 1.0, 3.0], size=(m, n))
    d[rng.random((m, n)) < 0.1] = np.inf
    d[1, [7, 40]] = -np.nan, np.nan
    d[2, [3, 12]] = np.nan, -np.nan
    d[3] = np.inf
    d[4, [10, 20, 30]] = -np.nan
    group, ids = np.divmod(np.arange(m * n), n)
    fed = group != 5
    want_at = np.argmin(d, axis=1)
    for _ in range(3):
        rank, at = np.full(m, np.inf), np.full(m, n + 1)
        perm = rng.permutation(np.flatnonzero(fed))
        calls = np.array_split(perm, [len(perm) // 3, 2 * len(perm) // 3])
        # one call with its ids in descending order
        calls[1] = calls[1][np.argsort(-ids[calls[1]], kind="stable")]
        for c in calls:
            got = kernels._lowest(rank, at, group[c], d[group[c], ids[c]], ids[c])
        assert at[5] == n + 1 and rank[5] == np.inf and got[5] == np.inf
        rows = np.arange(m) != 5
        assert at[rows].tolist() == want_at[rows].tolist()
        np.testing.assert_array_equal(got[rows], d.min(axis=1)[rows])
        assert not np.signbit(got[np.isnan(got)]).any()


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
        medoids = []
        for cid in range(labeling.n_clusters):
            rows = (labeling.labels == cid) & (labeling.weight > 0)
            medoids.append(medoid_local_index(x[rows], labeling.weight[rows]))
        return (
            kth_neighbor_distances(x, 5),
            hit_lists(x, 0.8),
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
