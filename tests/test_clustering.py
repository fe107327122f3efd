"""Density clustering semantics and medoid extraction."""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from cmla.clustering import (
    ClusterLabeling,
    auto_eps,
    dbscan,
    extract_medoids,
)
from cmla.errors import ConfigError, DegenerateGeometryError, LineageError
from cmla.tables import write_csv

import reference
from cmla import cli, kernels
from conftest import child_rss_growth_mib, clustered_cloud, matrix, mixed_table, numeric_table


def cluster(x, eps=None, min_samples=5):
    return dbscan(matrix(x), eps, min_samples)


def test_labels_match_the_graph_reference_on_random_clouds(rng):
    for _ in range(25):
        n = int(rng.integers(20, 120))
        d = int(rng.integers(1, 4))
        x = clustered_cloud(rng, n, d, duplicates=0.1)
        eps = float(rng.uniform(0.2, 1.5))
        min_samples = int(rng.integers(2, 7))
        got = cluster(x, eps=eps, min_samples=min_samples)
        want_labels, want_core = reference.eps_graph_clustering(x, eps, min_samples)
        np.testing.assert_array_equal(got.labels, want_labels)
        np.testing.assert_array_equal(got.core_mask, want_core)
        assert got.n_clusters == int(want_labels.max()) + 1


def duplicate_heavy_chains(rng):
    """Three chains with eps-hop depth in the hundreds at eps 1, 30% duplicated
    rows, background scatter, rows shuffled so discovery order is not chain
    order."""
    t = np.linspace(0.0, 320.0, 1000) + rng.uniform(-0.1, 0.1, 1000)
    t = t[(np.abs(t - 110.0) > 2.0) & (np.abs(t - 230.0) > 2.0)]
    chain = np.column_stack([t, 3.0 * np.sin(t / 10.0)]) + rng.normal(0.0, 0.05, (len(t), 2))
    scatter = rng.uniform([0.0, -8.0], [320.0, 8.0], size=(150, 2))
    x = np.vstack([chain, scatter])
    x = np.vstack([x, x[rng.integers(0, len(x), size=450)]])
    return np.ascontiguousarray(x[rng.permutation(len(x))])


def test_labels_match_the_graph_reference_on_long_duplicate_heavy_chains(rng):
    x = duplicate_heavy_chains(rng)
    eps, min_samples = 1.0, 6

    got = cluster(x, eps=eps, min_samples=min_samples)
    want_labels, want_core = reference.eps_graph_clustering(x, eps, min_samples)
    np.testing.assert_array_equal(got.labels, want_labels)
    np.testing.assert_array_equal(got.core_mask, want_core)
    assert got.n_clusters == int(want_labels.max()) + 1 >= 3
    extents = [np.ptp(x[got.labels == cid, 0]) for cid in range(got.n_clusters)]
    assert max(extents) > 100 * eps  # a path of more than 100 eps-hops
    border = (~got.core_mask) & (got.labels != -1)
    assert border.any() and got.noise_count > 0


def every_row_repeated(rng, x):
    """x with each row repeated 2 to 5 times, in shuffled order."""
    x = np.repeat(x, rng.integers(2, 6, size=len(x)), axis=0)
    return np.ascontiguousarray(x[rng.permutation(len(x))])


def weight_alone_case(rng, min_samples):
    """A scattered cloud, one far row repeated min_samples times (core by its
    copies alone) and another repeated min_samples - 1 times (noise)."""
    cloud = rng.uniform(0.0, 100.0, size=(40, 2))
    x = np.vstack([cloud, [[500.0, 500.0]] * min_samples, [[-500.0, 0.0]] * (min_samples - 1)])
    return np.ascontiguousarray(x[rng.permutation(len(x))])


def signed_zeros(rng):
    """Rows whose coordinates are 0.0, -0.0 or 1.0: rows that differ only in
    the sign of a zero are different bytes at distance 0."""
    return rng.choice([0.0, -0.0, 1.0], size=(60, 3))


def duplicate_cases(rng):
    """(x, eps, min_samples) inputs where rows repeat, clustered on their
    distinct rows."""
    cloud = clustered_cloud(rng, 150, 2)
    duplicates = np.vstack([cloud, cloud[rng.integers(0, 150, size=300)]])
    return {
        "duplicates": (duplicates[rng.permutation(450)], 0.4, 5),
        "every row 2-5x": (every_row_repeated(rng, clustered_cloud(rng, 80, 2)), 0.4, 6),
        "core by weight alone": (weight_alone_case(rng, 7), 1.0, 7),
        "signed zeros": (signed_zeros(rng), 0.5, 4),
        "identical rows": (np.zeros((30, 3)), 0.5, 7),
    }


def test_labels_match_the_graph_reference_on_edge_cases_in_every_setting(rng, monkeypatch):
    # neighbour lists are cut to min_samples and clusters are components of
    # the core graph; neither may depend on the tile size or the grid
    cases = {
        **duplicate_cases(rng),
        "chains": (duplicate_heavy_chains(rng), 1.0, 6),
        "min_samples 1": (clustered_cloud(rng, 200, 2, duplicates=0.1), 0.3, 1),
        "min_samples above n": (clustered_cloud(rng, 50, 2), 5.0, 51),
        "all noise": (rng.uniform(0.0, 100.0, size=(100, 2)), 0.5, 3),
        "single blob": (rng.normal(0.0, 0.3, size=(400, 2)), 10.0, 5),
    }
    settings = {
        "default tiles": (kernels.TILE_BYTES, False),
        "4 KiB tiles": (4096, False),
        "grid index": (kernels.TILE_BYTES, True),
        "grid index, 4 KiB tiles": (4096, True),
    }
    for case, (x, eps, min_samples) in cases.items():
        want_labels, want_core = reference.eps_graph_clustering(x, eps, min_samples)
        for setting, (tile_bytes, grid) in settings.items():
            monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
            monkeypatch.setattr(kernels, "_grid_pays", lambda cost, n, grid=grid: grid)
            got = cluster(np.ascontiguousarray(x), eps=eps, min_samples=min_samples)
            where = f"{case}, {setting}"
            np.testing.assert_array_equal(got.labels, want_labels, err_msg=where)
            np.testing.assert_array_equal(got.core_mask, want_core, err_msg=where)
            assert got.n_clusters == int(want_labels.max()) + 1, where
    assert cluster(cases["single blob"][0], eps=10.0, min_samples=5).n_clusters == 1


def test_medoids_of_duplicated_rows_match_the_exhaustive_reference(rng, monkeypatch):
    # dbscan's weights let the medoid kernel sum each distinct row once,
    # times its count
    for case, (x, eps, min_samples) in duplicate_cases(rng).items():
        labeling = cluster(x, eps=eps, min_samples=min_samples)
        assert labeling.n_clusters > 0, case
        for tile_bytes in (kernels.TILE_BYTES, 4096):
            monkeypatch.setattr(kernels, "TILE_BYTES", tile_bytes)
            medoids = extract_medoids(matrix(x), labeling, numeric_table(x))
            chosen = {md.cluster_id: md.row_id for md in medoids.medoids}
            assert reference.medoid_violations(x, labeling.labels, chosen) == [], case


def test_a_row_repeated_min_samples_times_is_core_by_weight_alone():
    x = np.array([[5.0], [0.0], [5.0], [9.0], [0.0], [5.0], [0.0], [0.0], [9.0]])
    got = cluster(x, eps=1.0, min_samples=4)
    assert got.core_mask.tolist() == (x[:, 0] == 0.0).tolist()
    assert got.labels.tolist() == [-1, 0, -1, -1, 0, -1, 0, 0, -1]
    # each count sits at the first copy
    assert got.weight.tolist() == [3, 4, 0, 2, 0, 0, 0, 0, 0]
    want_labels, want_core = reference.eps_graph_clustering(x, 1.0, 4)
    np.testing.assert_array_equal(got.labels, want_labels)
    np.testing.assert_array_equal(got.core_mask, want_core)


# A child's set-up line that keeps kernels.neighbor_lists from taking dense
# cells, so that every row streams
REFUSE_DENSE_CELLS = "from cmla import kernels\nkernels.CELL_ROWS = 10**9\n"


def test_dbscan_memory_does_not_grow_with_the_edge_count():
    # 6000 rows within eps of each other are 36M eps-edges, 275 MiB as int64;
    # they fill a few dense cells, and with the cells refused they all stream
    for refuse in ("", REFUSE_DENSE_CELLS):
        growth = child_rss_growth_mib(
            refuse + "import numpy as np\n"
            "from cmla.clustering import dbscan\n"
            "from cmla.encoding import EncodedMatrix\n"
            "x = np.random.default_rng(5).normal(0.0, 1.0, size=(6000, 2))\n"
            "dbscan(EncodedMatrix(x[:300].copy(), 'm'), 100.0, 5)",
            "labeling = dbscan(EncodedMatrix(x, 'm'), 100.0, 5)\n"
            "assert labeling.n_clusters == 1 and labeling.core_mask.all()",
        )
        assert growth < 48, refuse


def test_dbscan_stores_no_neighbour_list_for_a_core_row():
    # 12000 rows, each with more than 700 rows within eps, at min_samples
    # 600: lists cut to min_samples for every row would hold 12000 x 600
    # int64 indices, 55 MiB. No cell of side eps/sqrt(2) along the line holds
    # 600 rows, so every row streams; at min_samples 400 most rows are in
    # dense cells
    for min_samples, dense in ((600, False), (400, True)):
        growth = child_rss_growth_mib(
            "import numpy as np\n"
            "from cmla import kernels\n"
            "from cmla.clustering import dbscan\n"
            "from cmla.encoding import EncodedMatrix\n"
            "n = 12000\n"
            "x = np.column_stack([np.linspace(0.0, 100.0, n),\n"
            "                     np.random.default_rng(6).uniform(0.0, 1.0, n)])\n"
            f"cells = kernels._dense_cells(x, 6.0, {min_samples}, np.ones(n, dtype=np.int64))\n"
            f"assert (cells is not None and len(cells[0]) > n // 2) == {dense}\n"
            "dbscan(EncodedMatrix(x[::40].copy(), 'm'), 6.0, 5)",
            f"labeling = dbscan(EncodedMatrix(x, 'm'), 6.0, {min_samples})\n"
            "assert labeling.n_clusters == 1 and labeling.core_mask.all()",
        )
        assert growth < 16, min_samples


def test_bench_tracer_wraps_attributes_that_the_audit_calls(monkeypatch, tmp_path):
    # bench/tracing.py times layers by replacing cmla's module attributes, so
    # each must exist, and dbscan must look neighbor_lists up at call time;
    # bench/run.py records kernels.thread_count() with every audit
    assert callable(getattr(kernels, "thread_count", None))
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    originals = {}
    for module, attr, _, _ in tracing.LAYERS:
        originals[module, attr] = getattr(importlib.import_module(f"cmla.{module}"), attr)
        assert callable(originals[module, attr]), (module, attr)
    calls = []
    real = kernels.neighbor_lists
    monkeypatch.setattr(kernels, "neighbor_lists", lambda *args: calls.append(args) or real(*args))
    x = clustered_cloud(np.random.default_rng(8), 200, 2, duplicates=0.2)
    for eps in (0.5, None):
        calls.clear()
        cluster(x, eps=eps, min_samples=4)
        assert len(calls) == 1
    monkeypatch.setattr(kernels, "neighbor_lists", real)
    # one small audit under the tracer evaluates every layer's counters on the
    # wrapped functions' real arguments and results; at 200 rows the grid
    # loses to brute force, so auto eps calls kth_neighbor_distances
    synth, real_csv = tmp_path / "synth.csv", tmp_path / "real.csv"
    write_csv(numeric_table(x, ["a", "b"]), synth)
    write_csv(numeric_table(x[::3] + 0.01, ["a", "b"]), real_csv)
    argv = ["audit", "--synthetic", str(synth), "--real", str(real_csv),
            "--out", str(tmp_path / "out"), "--eps", "auto", "--min-samples", "4"]
    with tracing.Tracer() as tracer, tracer.span(tracing.ROOT_SPAN):
        assert cli.main(argv) == 0
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(f"cmla.{module}"), attr) is original, (module, attr)
    counted = {sp.name for sp in tracer.spans if sp.counters}
    assert counted == {name for _, _, name, count in tracing.LAYERS if count is not None}
    layers = tracing.layer_metrics(tracer.spans)
    assert set(layers) == set(tracing.LAYER_UNITS)
    assert all(math.isfinite(v) and v >= 0 for v in layers.values())
    assert layers["tables.load_csv.rows"] == len(x)
    assert layers["clustering.clusters"] >= 1
    # a Gower audit under the wrappers: proximity_profile_gower's wrapper gets
    # and passes on every argument, and the report is the untraced one
    def gower(out):
        return [*argv[:6], str(tmp_path / out), *argv[7:], "--metric", "gower"]

    assert cli.main(gower("plain")) == 0
    with tracing.Tracer() as tracer, tracer.span(tracing.ROOT_SPAN):
        assert cli.main(gower("traced")) == 0
    names = [sp.name for sp in tracer.spans]
    assert names.count("metrics.proximity_profile_gower") == 1
    assert "kernels.cross_min_distances" not in names
    for name in ("report.json", "curves.csv"):
        traced, plain = (tmp_path / out / name for out in ("traced", "plain"))
        assert traced.read_bytes() == plain.read_bytes()


def test_an_audit_finds_the_distinct_rows_once(monkeypatch, tmp_path):
    # dbscan alone decides which rows are copies; the medoid stage takes its
    # weights, at a fixed eps as at auto eps
    calls = []
    real = kernels.distinct_rows
    monkeypatch.setattr(kernels, "distinct_rows", lambda x: calls.append(len(x)) or real(x))
    x = clustered_cloud(np.random.default_rng(8), 200, 2, duplicates=0.2)
    synth = tmp_path / "synth.csv"
    write_csv(numeric_table(x, ["a", "b"]), synth)
    for eps in ("0.5", "auto"):
        calls.clear()
        out = tmp_path / eps
        argv = ["audit", "--synthetic", str(synth), "--out", str(out),
                "--eps", eps, "--min-samples", "4"]
        assert cli.main(argv) == 0
        assert len((out / "medoids.csv").read_text().splitlines()) > 1, eps
        assert calls == [len(x)], eps


def test_two_separated_blobs_form_two_clusters():
    x = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [10.2]])
    got = cluster(x, eps=0.5, min_samples=3)
    assert got.labels.tolist() == [0, 0, 0, 1, 1, 1]
    assert got.core_mask.all()
    assert np.bincount(got.labels[got.labels >= 0]).tolist() == [3, 3]
    assert got.noise_count == 0


def test_border_point_joins_the_lowest_index_core_cluster():
    # -2 and 2 are the only cores; 0 is border to both, row order decides
    x = np.array([[-4.0], [-3.0], [-2.0], [0.0], [2.0], [3.0], [4.0]])
    got = cluster(x, eps=2.0, min_samples=4)
    assert got.core_mask.tolist() == [False, False, True, False, True, False, False]
    assert got.labels.tolist() == [0, 0, 0, 0, 1, 1, 1]


def test_closed_ball_counts_points_exactly_at_eps():
    # the middle point is core only because both neighbors sit at exactly eps;
    # an open ball would leave every point as noise
    x = np.array([[0.0], [1.0], [2.0]])
    got = cluster(x, eps=1.0, min_samples=3)
    assert got.core_mask.tolist() == [False, True, False]
    assert got.labels.tolist() == [0, 0, 0]


def test_identical_points_form_one_cluster():
    x = np.zeros((8, 2))
    got = cluster(x, eps=0.5, min_samples=5)
    assert got.n_clusters == 1
    assert got.labels.tolist() == [0] * 8
    assert got.core_mask.all()


def test_isolated_points_are_noise():
    x = np.array([[0.0], [100.0], [200.0]])
    got = cluster(x, eps=1.0, min_samples=2)
    assert got.labels.tolist() == [-1, -1, -1]
    assert got.n_clusters == 0
    assert got.noise_count == 3


def test_noise_does_not_grow_when_eps_grows(rng):
    x = clustered_cloud(rng, 150, 2)
    noise = [cluster(x, eps=e, min_samples=4).noise_count for e in (0.2, 0.4, 0.8, 1.6)]
    assert noise == sorted(noise, reverse=True)


def test_core_partition_is_stable_under_row_permutation(rng):
    x = clustered_cloud(rng, 90, 2, duplicates=0.1)
    perm = rng.permutation(len(x))
    base = cluster(x, eps=0.7, min_samples=4)
    shuffled = cluster(x[perm], eps=0.7, min_samples=4)

    np.testing.assert_array_equal(shuffled.core_mask, base.core_mask[perm])
    # noise is order-free; border points may legitimately switch clusters
    np.testing.assert_array_equal(shuffled.labels == -1, base.labels[perm] == -1)

    def core_partition(labels, core, ids):
        groups = {}
        for i, (lab, c) in enumerate(zip(labels, core)):
            if c:
                groups.setdefault(int(lab), set()).add(int(ids[i]))
        return {frozenset(g) for g in groups.values()}

    assert core_partition(shuffled.labels, shuffled.core_mask, perm) == core_partition(
        base.labels, base.core_mask, np.arange(len(x))
    )


def test_auto_eps_on_the_collinear_hand_case():
    # per-point distances to the 2nd neighbor (self excluded): 2, 1, 2
    assert auto_eps(matrix([[0.0], [1.0], [2.0]]), 2) == 2.0


def test_auto_eps_median_matches_reference(rng):
    x = clustered_cloud(rng, 41, 3)
    got = auto_eps(matrix(x), 5)
    kth = [reference.kth_nn_distance(x, i, 5) for i in range(len(x))]
    want = sorted(kth)[len(kth) // 2]  # odd count: the middle element
    assert got == want


def test_auto_eps_needs_more_rows_than_min_samples():
    with pytest.raises(ConfigError, match="auto eps needs more than"):
        auto_eps(matrix(np.zeros((5, 1))), 5)


def test_degenerate_geometry_asks_for_an_explicit_eps():
    x = np.zeros((9, 2))
    with pytest.raises(DegenerateGeometryError, match="degenerate geometry, supply eps"):
        cluster(x, eps=None, min_samples=3)
    # an explicit eps resolves it
    assert cluster(x, eps=0.1, min_samples=3).n_clusters == 1


def test_zero_median_from_the_copies_computes_no_distance(monkeypatch):
    # 40 rows with 6 copies each and 100 rows alone: 240 of 340 rows have
    # more than min_samples = 5 copies, so both middle k-th distances are 0
    rng = np.random.default_rng(4)
    x = np.vstack([np.repeat(rng.normal(size=(40, 3)), 6, axis=0), rng.normal(size=(100, 3))])
    assert float(np.median(kernels.kth_neighbor_distances(x, 5))) == 0.0
    tiles = []
    real = kernels._bracket_tiles
    monkeypatch.setattr(kernels, "_bracket_tiles", lambda *args: tiles.append(args) or real(*args))
    with pytest.raises(DegenerateGeometryError, match="degenerate geometry, supply eps"):
        cluster(x, eps=None, min_samples=5)
    assert tiles == []
    # a row that is not finite makes the median NaN, as before, and no
    # error is raised
    x[-1, 0] = np.nan
    with np.errstate(invalid="ignore"):
        assert math.isnan(cluster(x, eps=None, min_samples=5).eps)
    # at min_samples = 6, a row's 6th neighbour is no copy: the median is
    # positive and comes from the kernel
    x[-1, 0] = 0.0
    labeling = cluster(x, eps=None, min_samples=6)
    assert labeling.eps == float(np.median(kernels.kth_neighbor_distances(x, 6))) > 0
    assert tiles != []


def test_dbscan_rejects_empty_input():
    with pytest.raises(ConfigError, match="empty"):
        dbscan(matrix(np.empty((0, 2))), 1.0, 5)


def test_medoid_is_the_member_with_the_smallest_distance_sum():
    x = np.array([[0.0], [1.0], [10.0], [50.0], [50.5], [51.0]])
    t = numeric_table(x)
    m = matrix(x, model_hash="h")
    labeling = dbscan(m, 9.0, 2)
    medoids = extract_medoids(m, labeling, t)
    assert [md.cluster_id for md in medoids.medoids] == [0, 1]
    assert medoids.medoids[0].row_id == 1
    assert medoids.medoids[1].row_id == 4
    assert medoids.cluster_sizes == [3, 3]
    assert medoids.medoids[0].raw == (1.0,)


def test_medoid_tie_takes_the_lowest_row_id():
    x = np.array([[0.0], [0.0], [5.0]])
    got = extract_medoids(
        matrix(x), cluster(x, eps=10.0, min_samples=1), numeric_table(x)
    )
    assert got.medoids[0].row_id == 0


def test_noise_rows_never_reach_medoids(rng):
    x = clustered_cloud(rng, 120, 2)
    m = matrix(x)
    labeling = cluster(x, eps=0.6, min_samples=5)
    assert labeling.noise_count > 0  # the cloud has background scatter
    medoids = extract_medoids(m, labeling, numeric_table(x))
    assert len(medoids) == labeling.n_clusters
    noise_rows = set(np.flatnonzero(labeling.labels == -1).tolist())
    assert noise_rows.isdisjoint({md.row_id for md in medoids.medoids})


def test_extract_medoids_of_many_clusters_match_a_scan_per_cluster(rng):
    # labels set directly: 600 clusters of one or more rows, shuffled among
    # noise rows, on a table with repeated rows
    x = clustered_cloud(rng, 2000, 2, duplicates=0.3)
    labels = np.full(len(x), -1, dtype=np.int32)
    labels[:1800] = np.r_[np.arange(600), rng.integers(0, 600, size=1200)]
    labels = labels[rng.permutation(len(x))]
    weight = np.ones(len(x), dtype=np.int64)
    labeling = ClusterLabeling(labels, labels >= 0, weight, 600, 0.5, "m0")
    got = extract_medoids(matrix(x), labeling, numeric_table(x))
    assert len(got) == 600
    for cid, (medoid, size) in enumerate(zip(got.medoids, got.cluster_sizes)):
        members = np.flatnonzero(labels == cid)
        assert medoid.cluster_id == cid and size == len(members)
        assert medoid.row_id == members[kernels.medoid_local_index(x[members], weight[members])]


def test_extract_medoids_verifies_lineage(rng):
    x = clustered_cloud(rng, 30, 1)
    labeling = cluster(x, eps=0.5, min_samples=3)
    with pytest.raises(LineageError, match="different encoding models"):
        extract_medoids(matrix(x, model_hash="other"), labeling, numeric_table(x))
    short = numeric_table(x[:-1])
    with pytest.raises(LineageError, match="row counts disagree"):
        extract_medoids(matrix(x), labeling, short)


def test_medoids_agree_with_the_exhaustive_reference(rng):
    for _ in range(10):
        x = clustered_cloud(rng, int(rng.integers(30, 100)), 2, duplicates=0.15)
        labeling = cluster(x, eps=0.8, min_samples=3)
        if labeling.n_clusters == 0:
            continue
        medoids = extract_medoids(matrix(x), labeling, numeric_table(x))
        chosen = {md.cluster_id: md.row_id for md in medoids.medoids}
        assert reference.medoid_violations(x, labeling.labels, chosen) == []


def test_label_and_medoid_csv_emission(tmp_path):
    t = mixed_table(numeric={"x": [0.0, 0.1, 9.0]}, categorical={"c": ["u", "u", "v"]})
    synth, out = tmp_path / "t.csv", tmp_path / "out"
    write_csv(t, synth)
    argv = ["audit", "--synthetic", str(synth), "--out", str(out),
            "--eps", "0.5", "--min-samples", "2"]
    assert cli.main(argv) == 0

    lines = (out / "labels.csv").read_text().splitlines()
    assert lines[0] == "row_id,label"
    assert lines[1:] == ["0,0", "1,0", "2,-1"]

    lines = (out / "medoids.csv").read_text().splitlines()
    assert lines[0] == "cluster_id,row_id,cluster_size,x,c"
    assert lines[1] == "0,0,2,0.0,u"
