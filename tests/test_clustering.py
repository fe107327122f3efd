"""Density clustering semantics and medoid extraction."""

import numpy as np
import pytest

from cmla.clustering import (
    DbscanParams,
    auto_eps,
    dbscan,
    extract_medoids,
    write_labels_csv,
    write_medoids_csv,
)
from cmla.errors import ConfigError, DegenerateGeometryError, LineageError

import reference
from conftest import clustered_cloud, matrix, mixed_table, numeric_table


def cluster(x, eps=None, min_samples=5):
    return dbscan(matrix(x), DbscanParams(eps=eps, min_samples=min_samples))


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


def test_labels_match_the_graph_reference_on_long_duplicate_heavy_chains(rng):
    # three chains with eps-hop depth in the hundreds, 30% duplicated rows,
    # background scatter, rows shuffled so discovery order is not chain order
    t = np.linspace(0.0, 320.0, 1000) + rng.uniform(-0.1, 0.1, 1000)
    t = t[(np.abs(t - 110.0) > 2.0) & (np.abs(t - 230.0) > 2.0)]
    chain = np.column_stack([t, 3.0 * np.sin(t / 10.0)]) + rng.normal(0.0, 0.05, (len(t), 2))
    scatter = rng.uniform([0.0, -8.0], [320.0, 8.0], size=(150, 2))
    x = np.vstack([chain, scatter])
    x = np.vstack([x, x[rng.integers(0, len(x), size=450)]])
    x = np.ascontiguousarray(x[rng.permutation(len(x))])
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


def test_dbscan_param_validation():
    with pytest.raises(ConfigError, match="eps must be positive"):
        DbscanParams(eps=0.0)
    with pytest.raises(ConfigError, match="min_samples"):
        DbscanParams(min_samples=0)
    assert DbscanParams().eps_mode == "auto"
    assert DbscanParams(eps=1.0).eps_mode == "fixed"


def test_dbscan_rejects_empty_input():
    with pytest.raises(ConfigError, match="empty"):
        dbscan(matrix(np.empty((0, 2))), DbscanParams(eps=1.0))


def test_medoid_is_the_member_with_the_smallest_distance_sum():
    x = np.array([[0.0], [1.0], [10.0], [50.0], [50.5], [51.0]])
    t = numeric_table(x)
    m = matrix(x, model_hash="h")
    labeling = dbscan(m, DbscanParams(eps=9.0, min_samples=2))
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
    from cmla.encoding import encode, fit_encoding

    enc = encode(fit_encoding(t), t)
    labeling = dbscan(enc, DbscanParams(eps=0.5, min_samples=2))
    medoids = extract_medoids(enc, labeling, t)

    labels_path = tmp_path / "labels.csv"
    write_labels_csv(labeling, labels_path)
    lines = labels_path.read_text().splitlines()
    assert lines[0] == "row_id,label"
    assert lines[1:] == ["0,0", "1,0", "2,-1"]

    medoids_path = tmp_path / "medoids.csv"
    write_medoids_csv(medoids, t, medoids_path)
    lines = medoids_path.read_text().splitlines()
    assert lines[0] == "cluster_id,row_id,cluster_size,x,c"
    assert lines[1] == "0,0,2,0.0,u"
