"""Threshold grids, nearest-real profiles, ASR and coverage, summaries."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cmla import encoding, harness, kernels, metrics, tables
from cmla.audit import AuditConfig
from cmla.clustering import Medoid, MedoidSet, dbscan, extract_medoids
from cmla.errors import ConfigError, LineageError, SchemaError
from cmla.metrics import (
    ThresholdGrid,
    asr_curve,
    curves_from_profile,
    gower_cells,
    gower_fold,
    grid_from_spec,
    proximity_profile,
    proximity_profile_gower,
    summarize_dmin,
)

import reference
from conftest import DATA_DIR, coverage_of, medoid_set, mixed_table, numeric_table, unit_table

GRID = grid_from_spec("0:2.5:0.01", (0.1, 0.5))
# Gower distances lie in [0, 1]
GOWER_GRID = grid_from_spec("0:1:0.001", ())


def records_with(dmins):
    from cmla.metrics import DistanceRecord

    return [DistanceRecord(i, i, d, 0) for i, d in enumerate(dmins)]


def test_default_grid_shape_and_marks():
    g = grid_from_spec(AuditConfig.grid, AuditConfig.marks)
    assert len(g.taus) == 251
    assert g.taus[0] == 0.0
    assert g.taus[-1] == 2.5
    assert g.marks == (0.1, 0.5)
    assert g.taus[g.index_of(0.1)] == 0.1
    assert g.taus[g.index_of(0.5)] == 0.5
    steps = np.diff(g.taus)
    assert np.allclose(steps, 0.01, atol=1e-10)


def test_grid_from_spec_matches_the_default():
    # the default spec gives the 251 rounded linspace points, bit for bit
    a = grid_from_spec("0:2.5:0.01", (0.1, 0.5))
    assert np.array(a.taus).tobytes() == np.round(np.linspace(0.0, 2.5, 251), 10).tobytes()
    assert a.marks == (0.1, 0.5)
    # a step that does not divide the span exactly still lands on count+1 points
    g = grid_from_spec("0:1:0.25", marks=(0.5,))
    assert g.taus == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_grid_spec_validation():
    for bad in ("0:1", "0:1:0:2", "a:b:c", "0:1:0", "1:0:0.1",
                "nan:1:0.1", "0:inf:0.1", "0:1:nan", "-inf:0:0.1"):
        with pytest.raises(ConfigError, match="grid spec"):
            grid_from_spec(bad, ())


def test_grid_spec_point_count_is_bounded():
    assert len(grid_from_spec("0:99999:1", ()).taus) == 100_000
    for bad in ("0:100000:1", "0:1e30:1e-30", "-1e308:1e308:1", "0:1:5e-324"):
        with pytest.raises(ConfigError, match="at most 100000 points"):
            grid_from_spec(bad, ())


def test_grid_rejects_bad_threshold_arrays():
    with pytest.raises(ConfigError, match="non-empty"):
        ThresholdGrid(np.array([]))
    with pytest.raises(ConfigError, match="non-negative"):
        ThresholdGrid(np.array([-0.1, 0.5]))
    with pytest.raises(ConfigError, match="strictly increasing"):
        ThresholdGrid(np.array([0.0, 0.0, 0.1]))
    for taus in ([np.nan], [np.inf], [0.0, 0.1, np.inf], [0.0, np.nan, 0.1], [-np.inf, 0.0]):
        with pytest.raises(ConfigError, match="thresholds must be finite"):
            ThresholdGrid(np.array(taus))


def test_marks_must_land_on_grid_points():
    with pytest.raises(ConfigError, match="not on the grid"):
        ThresholdGrid(np.array([0.0, 0.1]), marks=(0.15,))
    # within 1e-12 resolves to the grid value
    g = ThresholdGrid(np.array([0.0, 0.1]), marks=(0.1 + 1e-13,))
    assert g.marks == (0.1,)


def test_asr_hand_case_and_strictness():
    recs = records_with([0.05, 0.2, 0.5])
    g = ThresholdGrid(np.array([0.0, 0.1, 0.5, 1.0]))
    asr = asr_curve(recs, g)
    # strict <: d_min = 0.5 does not count at tau = 0.5
    assert asr.tolist() == [0.0, 1 / 3, 2 / 3, 1.0]


def test_asr_is_zero_at_tau_zero_even_for_exact_copies():
    recs = records_with([0.0, 0.0])
    g = ThresholdGrid(np.array([0.0, 0.01]))
    assert asr_curve(recs, g).tolist() == [0.0, 1.0]


def test_asr_requires_records():
    with pytest.raises(ConfigError):
        asr_curve([], grid_from_spec("0:2.5:0.01", (0.1, 0.5)))


def test_coverage_hand_case():
    per_real = np.array([0.05, 0.2])
    g = ThresholdGrid(np.array([0.0, 0.1, 0.3]))
    assert coverage_of(per_real, g) == [0.0, 0.5, 1.0]
    with pytest.raises(ConfigError):
        coverage_of(np.array([]), g)


def test_curve_counts_are_strict_on_ties_duplicates_and_infinity(rng):
    g = ThresholdGrid(np.array([0.0, 0.1, 0.25, 0.5, 1.0, 2.0]))
    # values exactly on thresholds, repeated values, 0 and +inf
    values = [0.1, 0.1, 0.25, 0.5, 0.5, 0.5, 0.0, np.inf, 1.0, 0.3, np.inf]
    values += list(rng.choice(g.taus, 40)) + list(rng.uniform(0.0, 2.5, 40))
    want = [sum(1 for v in values if v < t) / len(values) for t in g.taus]
    assert asr_curve(records_with(values), g).tolist() == want
    assert coverage_of(np.array(values), g) == want
    assert coverage_of(np.array([np.inf, np.inf]), g) == [0.0] * 6
    assert asr_curve(records_with([0.5] * 3), g).tolist() == [0, 0, 0, 0, 1, 1]
    with pytest.raises(ConfigError, match="at least one record"):
        asr_curve([], g)
    with pytest.raises(ConfigError, match="at least one real row"):
        coverage_of(np.array([]), g)


def test_proximity_profile_matches_the_double_loop(rng):
    meds = rng.standard_normal((7, 3))
    real = rng.standard_normal((30, 3))
    table, model = unit_table(real)
    profile = proximity_profile(medoid_set(meds, model.model_hash()), [table], GRID, model)
    d_min, nearest, per_real, _, cov = reference.double_loop_metrics(meds, real, GRID.taus)
    assert [r.d_min for r in profile.records] == d_min
    assert [r.nearest_real_row_id for r in profile.records] == nearest
    assert kernels.cross_min_distances(meds, real)[2].tolist() == per_real
    assert curves_from_profile(profile, GRID).coverage == cov


def test_proximity_profile_checks_lineage():
    table, model = unit_table([[0.0]])
    with pytest.raises(LineageError, match="different encoding models"):
        proximity_profile(medoid_set([[0.0]], model_hash="a"), [table], GRID, model)


def test_proximity_profile_requires_medoids():
    table, model = unit_table([[0.0]])
    empty = medoid_set(np.empty((0, 1)), model.model_hash())
    empty.medoids = []
    with pytest.raises(ConfigError, match="no medoids"):
        proximity_profile(empty, [table], GRID, model)


def test_nearest_real_distance_ties_take_the_lowest_real_row():
    table, model = unit_table([[1.0], [1.0], [-1.0]])
    profile = proximity_profile(medoid_set([[0.0]], model.model_hash()), [table], GRID, model)
    assert profile.records[0].nearest_real_row_id == 0
    assert profile.records[0].d_min == 1.0


def test_gower_profile_hand_case():
    table = mixed_table(numeric={"x": [0.0, 4.0]}, categorical={"c": ["u", "v"]})
    medoids = medoid_set([[0.0]])
    medoids.medoids[0] = medoids.medoids[0].__class__(
        cluster_id=0, row_id=0, vector=np.array([0.0]), raw=(1.0, "u")
    )
    ranges = {"x": (0.0, 4.0)}
    g = ThresholdGrid(np.array([0.0, 0.125, 0.5, 1.0]))
    profile = proximity_profile_gower(medoids, [table], g, ranges)
    # per row: (|1-0|/4 + 0)/2 = 0.125 and (|1-4|/4 + 1)/2 = 0.875
    assert profile.records[0].d_min == 0.125
    assert profile.records[0].nearest_real_row_id == 0
    # per row: 0.125 and 0.875, below 0.5 and 1.0 and below 1.0 alone
    assert gower_counts([(1.0, "u")], [table], ranges, g) == [[0, 0, 1, 2]]
    assert curves_from_profile(profile, g).coverage == [0.0, 0.0, 0.5, 1.0]


def raw_medoids(rows) -> MedoidSet:
    meds = [Medoid(cluster_id=i, row_id=i, vector=np.zeros(1), raw=tuple(row))
            for i, row in enumerate(rows)]
    return MedoidSet(medoids=meds, cluster_sizes=[1] * len(meds), model_hash="m0")


def gower_double_loop(rows, table, ranges, grid=GOWER_GRID):
    """d_min, the lowest nearest row, each row's minimum over the medoids and
    coverage on grid, by reference.gower_pair on every pair and counting."""
    real = [table.row(j) for j in range(table.n_rows)]
    d = np.array([[reference.gower_pair(row, x, table.schema, ranges) for x in real]
                  for row in rows])
    per_real = d.min(axis=0)
    cov = [sum(1 for v in per_real if v < t) / len(per_real) for t in grid.taus]
    return d.min(axis=1), d.argmin(axis=1), per_real, cov


def gower_counts(rows, blocks, ranges, grid=GOWER_GRID) -> list[list[int]]:
    """Each block's per-threshold counts, as _gower_minima gives them."""
    return [metrics._gower_minima(b, gower_cells(b.schema, rows), ranges, grid).counts.tolist()
            for b in blocks]


def block_counts(per_real, blocks, grid) -> list[list[int]]:
    """Per block, _count_below of the per-real minima of its rows."""
    ends = np.cumsum([b.n_rows for b in blocks])[:-1]
    return [metrics._count_below(v, grid).tolist()
            for v in np.split(np.array(per_real, dtype=np.float64), ends)]


def assert_profile_is(profile, counts, want, blocks, grid=GOWER_GRID):
    d_min, nearest, per_real, cov = want
    assert [r.d_min for r in profile.records] == d_min.tolist()
    assert [r.nearest_real_row_id for r in profile.records] == nearest.tolist()
    assert counts == block_counts(per_real, blocks, grid)
    assert curves_from_profile(profile, grid).coverage == cov


def ulps(values) -> np.ndarray:
    """Each value and its two float neighbours, as one ascending array."""
    v = np.asarray(values, dtype=np.float64)
    return np.unique(np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]))


def gower_shape(name, rng, n=240, m=48):
    """A real table, medoid rows, ranges and a grid of one shape. Numeric
    cells sit on a coarse grid, so distances tie; the ranges miss the tails,
    so terms clamp; one medoid in eight carries an unseen category.
    "on-thresholds" puts the grid's thresholds on distances, and a float to
    either side of them; "past-the-top" puts most rows past the top
    threshold; "subnormal-axis" has numeric differences and thresholds in
    the subnormal range."""
    numeric, categorical = {
        "one-axis": (1, [2, 2, 2, 2]),
        "five-numeric": (5, []),
        "thousand-categories": (3, [1000]),
        "two-three-category": (5, [3, 3]),
        "on-thresholds": (1, [2, 2, 3, 4]),
        "past-the-top": (1, [2, 2, 2, 2]),
        "subnormal-axis": (1, [2, 2]),
    }[name]
    cols = {f"x{j}": np.round(rng.standard_normal(n + m), 1) for j in range(numeric)}
    grid = GOWER_GRID
    if name == "on-thresholds":
        # terms of 0, 1/2 and 1 over five columns: totals j/2, distances j/10
        cols["x0"] = rng.choice([0.0, 0.5, 1.0], n + m)
        grid = ThresholdGrid(np.concatenate([[0.0, 5e-324], ulps(np.arange(1, 11) / 2 / 5)]))
    elif name == "past-the-top":
        grid = grid_from_spec("0:0.1:0.001", ())
    elif name == "subnormal-axis":
        cols["x0"] = rng.choice([0.0, 5e-324, 1e-320, 1e-310, 2.0**-1022, 1.0], n + m)
        grid = ThresholdGrid(np.array([0.0, 5e-324, 1e-321, 1e-311, 1e-300, 0.1, 0.5, 1.0]))
    cats = {f"c{j}": [f"k{v}" for v in rng.integers(0, size, n + m)]
            for j, size in enumerate(categorical)}
    table = mixed_table(numeric={k: v[:n] for k, v in cols.items()},
                        categorical={k: v[:n] for k, v in cats.items()})
    ranges = {k: (float(np.quantile(v[:n], 0.1)), float(np.quantile(v[:n], 0.9)))
              for k, v in cols.items()}
    if numeric > 1:
        ranges["x0"] = (0.5, 0.5)  # the axis is the first column with a range
    if name in ("on-thresholds", "subnormal-axis"):
        ranges["x0"] = (0.0, 1.0)
    rows = []
    for i in range(m):
        row = [float(cols[k][n + i]) for k in cols] + [cats[k][n + i] for k in cats]
        if categorical and i % 8 == 0:
            row[-1] = "unseen"
        rows.append(tuple(row))
    return table, rows, ranges, grid


GOWER_SHAPES = ["one-axis", "five-numeric", "thousand-categories", "two-three-category",
                "on-thresholds", "past-the-top", "subnormal-axis"]


@pytest.mark.parametrize("windows", [False, True], ids=["cost-rule", "windows"])
@pytest.mark.parametrize("block_bytes", [1, 64, tables.BLOCK_BYTES])
@pytest.mark.parametrize("shape", GOWER_SHAPES)
def test_gower_profile_equals_a_double_loop_bit_for_bit(tmp_path, monkeypatch, rng, shape,
                                                        block_bytes, windows):
    table, rows, ranges, grid = gower_shape(shape, rng)
    want = gower_double_loop(rows, table, ranges, grid)
    path = tmp_path / "real.csv"
    tables.write_csv(table, path)
    monkeypatch.setattr(tables, "BLOCK_BYTES", block_bytes)
    if windows:
        monkeypatch.setattr(metrics, "_windows_pay", lambda pairs, m, n: True)
    blocks = list(tables.read_blocks(path, table.schema))
    profile = proximity_profile_gower(raw_medoids(rows), iter(blocks), grid, ranges)
    assert_profile_is(profile, gower_counts(rows, blocks, ranges, grid), want, blocks, grid)
    work = profile.work
    assert work.cross == len(rows) * table.n_rows
    if windows:
        assert work.scanned == 0


def test_gower_windows_keep_a_tie_on_the_edge_of_a_medoids_window():
    # Row 1 is the medoid at 0's nearest row on the axis, and row 0, on the
    # other side, ties it: |x| / R rounds to the same float for both. Row 0
    # lies past fl(D * R), the window that the bound (k + t) / C <= D gives
    # without its rounding margins, so only the margins keep it, and with it
    # the lowest nearest row.
    width = 1.4670955493330347
    near, tie = 0.06231225029749548, 0.062312250297495486
    assert near / width == tie / width and tie > (near / width) * width
    x = [-tie, near] + [10.0 * i + 0.001 * j for i in range(1, 100) for j in range(2)]
    table = mixed_table(numeric={"x": x})
    rows = [(0.0,)] + [(10.0 * i,) for i in range(1, 100)]
    ranges = {"x": (0.0, width)}
    profile = proximity_profile_gower(raw_medoids(rows), [table], GOWER_GRID, ranges)
    assert profile.work.scanned == 0
    assert profile.records[0].nearest_real_row_id == 0
    assert_profile_is(profile, gower_counts(rows, [table], ranges),
                      gower_double_loop(rows, table, ranges), [table])


@pytest.mark.parametrize("windows", [False, True], ids=["scan", "windows"])
def test_gower_reduction_memory_does_not_grow_with_the_medoids(rng, monkeypatch, windows):
    table, rows, ranges, _ = gower_shape("one-axis", rng, n=20_000, m=200)
    monkeypatch.setattr(metrics, "_windows_pay", lambda pairs, m, n: windows)
    # at 64 KiB tiles every batch of exact pairs is full at both medoid
    # counts, so the peak shows what grows with m, not how full the batches are
    monkeypatch.setattr(kernels, "TILE_BYTES", 64 * 1024)
    peaks = {}
    for m in (10, 200):
        medoids = raw_medoids(rows[:m])
        tracemalloc.start()
        try:
            profile = proximity_profile_gower(medoids, [table], GOWER_GRID, ranges)
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile.work.scanned == (not windows)
    assert peaks[200] <= 1.25 * peaks[10]


def euclidean_shape(name, rng, n=240, m=48):
    """Synthetic and real tables of one shape, the encoding fitted on the
    synthetic one, medoid vectors, m encoded synthetic rows, the first eight
    of which the real table repeats, and a grid. Numeric cells sit on a
    coarse grid, so distances tie; the real table scales past the synthetic
    range. "numeric-01" has a column that scales to exactly 0 and 1, which
    is no key; "on-thresholds" has only such numeric terms and one-hot
    mismatches, so every distance is the root of an integer, and the grid's
    thresholds lie on those roots and a float to either side; "past-the-top"
    puts half the rows past the top threshold; "subnormal-axis" has axis
    differences and thresholds in the subnormal range; "non-tame" has one
    real value past 2^500, whose block must take the tiles."""
    numeric, categorical, scale, pca = {
        "one-axis": (1, [2, 2, 2, 2], "minmax", None),
        "unknown-categories": (2, [3, 5], "minmax", None),
        "numeric-01": (2, [2, 3], "minmax", None),
        "zscore": (1, [2, 2, 2, 2], "zscore", None),
        "pca": (3, [3, 3], "minmax", 3),
        "all-binary": (0, [2, 3, 4], "minmax", None),
        "on-thresholds": (1, [2, 3, 4], "minmax", None),
        "past-the-top": (1, [2, 2, 2, 2], "minmax", None),
        "subnormal-axis": (1, [2, 2], "minmax", None),
        "non-tame": (1, [2, 2, 2, 2], "minmax", None),
    }[name]
    total = m + n
    cols = {f"x{j}": np.round(rng.standard_normal(total) * (1.0 + j), 1) for j in range(numeric)}
    grid = GRID
    if name in ("numeric-01", "on-thresholds"):
        cols["x0"] = rng.choice([2.0, 5.0], total)  # min-max scales it to exactly 0/1
    if name == "on-thresholds":
        grid = ThresholdGrid(np.concatenate([[0.0, 5e-324], ulps(np.sqrt(np.arange(1, 9)))]))
    elif name == "past-the-top":
        cols["x0"][m::2] += 100.0
    elif name == "subnormal-axis":
        # min-max over [0, 1] scales each value to itself
        cols["x0"] = rng.choice([0.0, 5e-324, 1e-320, 1e-310, 2.0**-1022, 1.0], total)
        cols["x0"][:2] = 0.0, 1.0
        grid = ThresholdGrid(np.array([0.0, 5e-324, 1e-320, 1e-160, 1e-150, 0.5, 1.0, 2.5]))
    elif name == "non-tame":
        cols["x0"][m + 5] = 2.0**506
    cats = {f"c{j}": [f"k{v}" for v in rng.integers(0, size, total)]
            for j, size in enumerate(categorical)}
    if name in ("unknown-categories", "on-thresholds"):
        for labels in cats.values():
            for i in range(m, total, 7):
                labels[i] = "unseen"  # a zero one-hot block in the real rows only

    def table(rows):
        return mixed_table(numeric={k: v[rows] for k, v in cols.items()},
                           categorical={k: [v[i] for i in rows] for k, v in cats.items()})

    synthetic = table(np.arange(m))
    real = table(np.concatenate([np.arange(m, total), np.arange(8)]))
    model = encoding.fit_encoding(synthetic, scale, pca)
    medoids = medoid_set(encoding.encode(model, synthetic).vectors, model.model_hash())
    return model, synthetic.schema, real, medoids, grid


def euclidean_counts(medoids, blocks, model, grid) -> list[list[int]]:
    """Each block's per-threshold counts, as _euclidean_minima gives them."""
    reduce = metrics._euclidean_minima(medoids.vectors(), model, grid)
    return [sum(piece.counts for piece in reduce(b)).tolist() for b in blocks]


def assert_euclidean_profile_is_the_double_loop(medoids, blocks, model, profile, grid=GRID):
    real = np.concatenate([encoding.encode(model, b).vectors for b in blocks])
    d_min, nearest, per_real, _, cov = reference.double_loop_metrics(medoids.vectors(), real,
                                                                     grid.taus)
    assert [r.d_min for r in profile.records] == d_min
    assert [r.nearest_real_row_id for r in profile.records] == nearest
    assert euclidean_counts(medoids, blocks, model, grid) == block_counts(per_real, blocks, grid)
    assert curves_from_profile(profile, grid).coverage == cov
    assert profile.work.cross == len(medoids) * len(real)


EUCLIDEAN_SHAPES = ["one-axis", "unknown-categories", "numeric-01", "zscore", "pca",
                    "all-binary", "on-thresholds", "past-the-top", "subnormal-axis", "non-tame"]


@pytest.mark.parametrize("windows", [False, True], ids=["cost-rule", "windows"])
@pytest.mark.parametrize("block_bytes", [1, 64, tables.BLOCK_BYTES])
@pytest.mark.parametrize("shape", EUCLIDEAN_SHAPES)
def test_euclidean_profile_equals_a_double_loop_bit_for_bit(tmp_path, monkeypatch, rng, shape,
                                                            block_bytes, windows):
    model, schema, real, medoids, grid = euclidean_shape(shape, rng)
    path = tmp_path / "real.csv"
    tables.write_csv(real, path)
    monkeypatch.setattr(tables, "BLOCK_BYTES", block_bytes)
    if windows:
        monkeypatch.setattr(metrics, "_windows_pay", lambda pairs, m, n: True)
    blocks = list(tables.read_blocks(path, schema))
    profile = proximity_profile(medoids, iter(blocks), grid, model)
    assert_euclidean_profile_is_the_double_loop(medoids, blocks, model, profile, grid)
    assert min(r.d_min for r in profile.records) == 0.0
    if windows:
        # under a PCA no column is a key and every block takes the tiles, as
        # does the one block that holds a value past 2^500
        work = profile.work
        assert work.scanned == {"pca": work.blocks, "non-tame": 1}.get(shape, 0)
        if shape == "on-thresholds":
            assert 0 < work.compared < len(real.columns[0])


def test_a_wide_table_settles_most_real_rows_without_an_exact_distance(monkeypatch):
    # about 100 medoids of a noised 4000-row sample of the recipe the
    # benchmark uses, against 20 000 real rows in 1 MiB blocks
    scenario = harness.load_scenario(DATA_DIR / "ordering_scenario.json")
    rng = np.random.default_rng(20240817)
    real = harness.make_real(dataclasses.replace(scenario.real, n_rows=20_000), rng)
    synthetic = harness.sample_synthetic(
        real, harness.GeneratorSpec("noised", "noised", 4000, sigma=0.5), rng)
    model = encoding.fit_encoding(synthetic)
    matrix = encoding.encode(model, synthetic)
    medoids = extract_medoids(matrix, dbscan(matrix, 0.01, 3), synthetic)
    assert 80 <= len(medoids) <= 150
    encoded = []
    layout = encoding.Parts.__getitem__
    monkeypatch.setattr(encoding.Parts, "__getitem__",
                        lambda self, rows: encoded.append(len(rows)) or layout(self, rows))
    blocks = [tables.DataTable(real.schema, tuple(c[i : i + 4000] for c in real.columns))
              for i in range(0, real.n_rows, 4000)]
    for metric in ("euclidean", "gower"):
        if metric == "gower":
            profile = proximity_profile_gower(medoids, blocks, GRID, metrics.numeric_ranges(model))
        else:
            profile = proximity_profile(medoids, blocks, GRID, model)
        assert profile.work.scanned == 0
        assert profile.work.compared < 0.02 * real.n_rows
    assert 0 < sum(encoded) < 0.05 * real.n_rows


@pytest.mark.parametrize("windows", [False, True], ids=["cost-rule", "windows"])
def test_euclidean_windows_keep_a_tie_across_patterns_at_sqrt_6(monkeypatch, windows):
    # Medoid 0 and real row 0 differ in three categories, six one-hot
    # columns, so s = 6; real row 1 shares the medoid's pattern and lies
    # fl(sqrt(6)) away on the axis, so s = fl(sqrt(6))^2 < 6. Both give
    # d = fl(sqrt(6)). Row 1 is the medoid's seed, and the bound h <= s
    # without its rounding margins would rule row 0's pattern out.
    monkeypatch.setattr(metrics, "_windows_pay", lambda pairs, m, n: windows)
    s6 = math.sqrt(6.0)
    assert s6 * s6 < 6.0 and math.sqrt(s6 * s6) == s6
    a, b = [1.0, 0.0] * 3, [0.0, 1.0] * 3
    medoids = [[0.5, *a]] + [[10.0 * i, *(a if i % 2 else b)] for i in range(1, 40)]
    real = [[0.5, *b], [0.5 + s6, *a]] + [[10.0 * i + 0.1 * j, *(b if j % 2 else a)]
                                          for i in range(1, 40) for j in range(3)]
    table, model = unit_table(real, [("u", "v")] * 3)
    medoids = medoid_set(medoids, model.model_hash())
    profile = proximity_profile(medoids, [table], GRID, model)
    assert profile.records[0].d_min == s6
    assert profile.records[0].nearest_real_row_id == 0
    assert profile.work.scanned == (not windows)
    assert_euclidean_profile_is_the_double_loop(medoids, [table], model, profile)


@pytest.mark.parametrize("case", ["binary-in-medoids-only", "binary-in-real-only", "copies"])
def test_euclidean_windows_on_columns_that_are_0_1_on_one_side(monkeypatch, rng, case):
    # numeric columns that hold only 0 and 1 on one side or both are no keys
    monkeypatch.setattr(metrics, "_windows_pay", lambda pairs, m, n: True)
    medoids = np.column_stack([np.round(rng.standard_normal((40, 2)), 1),
                               rng.integers(0, 2, (40, 4)).astype(float)])
    real = np.column_stack([np.round(rng.standard_normal((300, 2)), 1),
                            rng.integers(0, 2, (300, 4)).astype(float)])
    if case == "binary-in-medoids-only":
        real[::9, 3] = 0.5
    elif case == "binary-in-real-only":
        medoids[5, 4] = 0.25
        real[:, 0] = rng.integers(0, 2, 300)
    else:
        real[::30] = medoids[:10]
    table, model = unit_table(real)
    medoids = medoid_set(medoids, model.model_hash())
    blocks = [tables.DataTable(table.schema, tuple(c[rows] for c in table.columns))
              for rows in (slice(150), slice(150, None))]
    profile = proximity_profile(medoids, blocks, GRID, model)
    assert profile.work.scanned == 0
    assert_euclidean_profile_is_the_double_loop(medoids, blocks, model, profile)


@pytest.mark.parametrize("case", ["nan-real", "inf-real", "overflow-real", "huge-medoid"])
def test_euclidean_chunks_with_values_past_the_bound_go_to_the_tiles(monkeypatch, rng, case):
    monkeypatch.setattr(metrics, "_windows_pay", lambda pairs, m, n: True)
    medoids = np.column_stack([rng.standard_normal((40, 1)),
                               rng.integers(0, 2, (40, 4)).astype(float)])
    real = np.column_stack([rng.standard_normal((200, 1)),
                            rng.integers(0, 2, (200, 4)).astype(float)])
    tame = real.copy()
    value = {"nan-real": np.nan, "inf-real": np.inf, "overflow-real": 1e200,
             "huge-medoid": 2.0**501}[case]
    if case == "huge-medoid":
        medoids[3, 0] = value
    else:
        real[17, 0] = value
    (table, model), (tame_table, _) = unit_table(real), unit_table(tame)
    profile = proximity_profile(medoid_set(medoids, model.model_hash()),
                                [table, tame_table], GRID, model)
    assert profile.work.scanned == (2 if case == "huge-medoid" else 1)
    with np.errstate(over="ignore"):
        tiles = [kernels.cross_min_distances(medoids, real),
                 kernels.cross_min_distances(medoids, tame)]
    (piece,) = metrics._euclidean_minima(medoids, model, GRID)(table)
    assert piece.scanned
    np.testing.assert_array_equal(piece.d_min, tiles[0][0])
    np.testing.assert_array_equal(piece.nearest, tiles[0][1])
    assert piece.counts.tolist() == metrics._count_below(tiles[0][2], GRID).tolist()
    key = np.where(np.isnan(tiles[0][0]), -np.inf, tiles[0][0])
    first = key <= np.where(np.isnan(tiles[1][0]), -np.inf, tiles[1][0])
    want = np.where(first, tiles[0][0], tiles[1][0])
    np.testing.assert_array_equal([r.d_min for r in profile.records], want)
    assert [r.nearest_real_row_id for r in profile.records] == np.where(
        first, tiles[0][1], 200 + tiles[1][1]).tolist()


@pytest.mark.parametrize("windows", [False, True], ids=["tiles", "windows"])
def test_euclidean_reduction_memory_does_not_grow_with_the_medoids(rng, monkeypatch, windows):
    model, schema, real, *_ = euclidean_shape("one-axis", rng, n=20_000, m=10)
    medoid_rows = np.round(rng.standard_normal((200, 1)), 1), rng.integers(0, 2, (200, 4))
    vectors = np.column_stack([medoid_rows[0], np.repeat(medoid_rows[1], 2, axis=1)])
    vectors[:, 2::2] = 1.0 - vectors[:, 1::2]
    monkeypatch.setattr(metrics, "_windows_pay", lambda pairs, m, n: windows)
    # at 64 KiB tiles every batch of exact pairs is full at both medoid
    # counts, so the peak shows only what grows with them, such as the m x g
    # mismatch matrix, which the windows keep under a tile
    monkeypatch.setattr(kernels, "TILE_BYTES", 64 * 1024)
    peaks = {}
    for m in (10, 200):
        medoids = medoid_set(vectors[:m], model.model_hash())
        tracemalloc.start()
        try:
            profile = proximity_profile(medoids, [real], GRID, model)
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile.work.scanned == (not windows)
    assert peaks[200] <= 1.25 * peaks[10]


def test_curves_from_profile_carries_counts(rng):
    meds = rng.standard_normal((4, 2))
    table, model = unit_table(rng.standard_normal((11, 2)))
    profile = proximity_profile(medoid_set(meds, model.model_hash()), [table], GRID, model)
    curves = curves_from_profile(profile, GRID)
    assert len(profile.records) == 4
    assert profile.n_real == 11
    assert len(curves.asr) == 251
    assert len(curves.coverage) == 251


def test_coverage_from_the_profile_minima_matches_a_double_loop(rng):
    # the counts of the chunks add up to the whole table's
    meds = rng.standard_normal((3, 2))
    real = rng.standard_normal((9, 2))
    (head, model), (tail, _) = unit_table(real[:4]), unit_table(real[4:])
    profile = proximity_profile(medoid_set(meds, model.model_hash()), [head, tail], GRID, model)
    *_, cov = reference.double_loop_metrics(meds, real, GRID.taus)
    assert curves_from_profile(profile, GRID).coverage == cov


def test_profile_memory_does_not_grow_with_the_real_rows(rng):
    # a profile keeps one count per threshold, not a minimum per real row, so
    # ten times the chunks of 20 000 rows leave its peak where it was
    _, model = unit_table(np.zeros((1, 9)))
    medoids = medoid_set(rng.standard_normal((50, 9)), model.model_hash())
    peaks = {}
    for n in (2, 20):
        blocks = (numeric_table(rng.standard_normal((20_000, 9))) for _ in range(n))
        tracemalloc.start()
        try:
            curves = curves_from_profile(proximity_profile(medoids, blocks, GRID, model), GRID)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < curves.coverage[-1]
    assert peaks[20] <= 1.1 * peaks[2]


def gower_to_rows(row, table, ranges):
    """gower_fold of one raw row against every row of a table."""
    cells = gower_cells(table.schema, [row])
    return gower_fold(table.schema, ranges, table.columns, cells, np.empty((2, table.n_rows)))


def test_gower_hand_value():
    t = mixed_table(numeric={"x": [1.0, 2.0]}, categorical={"c": ["u", "v"]})
    ranges = {"x": (0.0, 4.0)}
    # |1 - 2| / 4 = 0.25 on the numeric, 1 on the mismatch: mean 0.625
    assert gower_to_rows(t.row(0), t, ranges).tolist() == [0.0, 0.625]


def test_gower_clamps_and_ignores_empty_ranges():
    t = mixed_table(numeric={"x": [0.0, 100.0], "y": [5.0, 9.0]})
    ranges = {"x": (0.0, 10.0), "y": (3.0, 3.0)}
    # x overshoots the range (clamped to 1), y has no range (contributes 0)
    assert gower_to_rows(t.row(0), t, ranges).tolist() == [0.0, 0.5]


def test_gower_fold_matches_pairwise_loop(rng):
    table = mixed_table(
        numeric={"x": rng.uniform(0, 10, 20), "y": rng.uniform(-5, 5, 20)},
        categorical={"c": [str(v) for v in rng.integers(0, 3, 20)]},
    )
    ranges = {"x": (0.0, 10.0), "y": (-5.0, 5.0)}
    probe = (3.3, 0.7, "1")
    d = gower_to_rows(probe, table, ranges)
    for j in range(table.n_rows):
        assert d[j] == reference.gower_pair(probe, table.row(j), table.schema, ranges)
    # the same pairs with both sides given per pair, as the window kernel does
    rows = rng.integers(0, 20, 50)
    probes = [table.row(int(i)) for i in rng.integers(0, 20, 50)]
    cells = gower_cells(table.schema, probes)
    d = gower_fold(table.schema, ranges, [c[rows] for c in table.columns], cells,
                   np.empty((2, 50)))
    for j, (i, probe) in enumerate(zip(rows, probes)):
        assert d[j] == reference.gower_pair(probe, table.row(int(i)), table.schema, ranges)


def test_gower_fold_with_unseen_category_counts_every_row_as_mismatch():
    table = mixed_table(categorical={"c": ["a", "b"]})
    assert gower_cells(table.schema, [("z",)])[0].tolist() == [-1]
    d = gower_to_rows(("z",), table, {})
    assert d.tolist() == [1.0, 1.0]


def test_gower_row_length_validation():
    table = mixed_table(numeric={"x": [1.0]})
    with pytest.raises(SchemaError):
        gower_to_rows((1.0, "extra"), table, {"x": (0.0, 1.0)})


def test_summarize_dmin_hand_case():
    s = summarize_dmin([1.0, 2.0, 3.0, 4.0])
    assert s.count == 4
    assert s.min == 1.0
    assert s.max == 4.0
    assert s.mean == 2.5
    assert abs(s.median - 2.5) <= 1e-12
    assert abs(s.p10 - 1.3) <= 1e-12
    assert abs(s.p90 - 3.7) <= 1e-12


def test_summarize_dmin_is_order_free():
    a = summarize_dmin([3.0, 1.0, 2.0])
    b = summarize_dmin([1.0, 2.0, 3.0])
    assert a == b
    assert a.median == 2.0


def test_summarize_single_value():
    s = summarize_dmin([0.7])
    assert (s.min, s.median, s.max, s.p10, s.p90) == (0.7, 0.7, 0.7, 0.7, 0.7)


def test_a_percentile_between_equal_neighbours_is_their_value():
    s = summarize_dmin([math.inf] * 4)
    assert (s.min, s.mean, s.median, s.max, s.p10, s.p90) == (math.inf,) * 6
    s = summarize_dmin([0.5, math.inf, math.inf])
    assert (s.median, s.p90) == (math.inf, math.inf)
    assert s.p10 == 0.5 + 0.2 * (math.inf - 0.5)


def test_summarize_rejects_empty_input():
    with pytest.raises(ConfigError):
        summarize_dmin([])


def test_percentiles_match_the_interpolation_reference(rng):
    for _ in range(20):
        values = rng.uniform(0, 5, int(rng.integers(1, 40)))
        s = summarize_dmin(values)
        assert s.p10 == reference.percentile(values, 10.0)
        assert s.median == reference.percentile(values, 50.0)
        assert s.p90 == reference.percentile(values, 90.0)
