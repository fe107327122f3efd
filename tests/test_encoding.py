"""The shared representation: scaling, one-hot blocks, PCA."""

import math

import numpy as np
import pytest

from cmla.encoding import encode, fit_encoding, fit_pca
from cmla.errors import ConfigError, SchemaError
from cmla.kernels import dists_to
from cmla.metrics import gower_cells, gower_fold, numeric_ranges
from cmla.tables import load_csv

from conftest import mixed_table, numeric_table


def test_minmax_scaling_and_extrapolation():
    synth = numeric_table([1.0, 3.0], names=["x"])
    model = fit_encoding(synth)
    other = numeric_table([2.0, 5.0, -1.0], names=["x"])
    enc = encode(model, other)
    assert enc.vectors[:, 0].tolist() == [0.5, 2.0, -1.0]


def test_zscore_uses_population_std():
    # mean 2, population std exactly 1 (sample std would be sqrt(2))
    synth = numeric_table([1.0, 3.0], names=["x"])
    model = fit_encoding(synth, mode="zscore")
    enc = encode(model, synth)
    assert enc.vectors[:, 0].tolist() == [-1.0, 1.0]


def test_constant_column_encodes_to_zero_with_unit_divisor():
    synth = numeric_table([4.0, 4.0, 4.0], names=["x"])
    for mode in ("minmax", "zscore"):
        model = fit_encoding(synth, mode=mode)
        assert encode(model, synth).vectors[:, 0].tolist() == [0.0, 0.0, 0.0]
    # divisor falls back to 1, not to a tiny epsilon
    probe = numeric_table([7.0], names=["x"])
    assert encode(fit_encoding(synth), probe).vectors[0, 0] == 3.0


def test_unknown_scaling_mode():
    with pytest.raises(ConfigError, match="unknown scaling mode"):
        fit_encoding(numeric_table([1.0]), mode="robust")


def test_layout_numerics_first_then_one_hot_blocks():
    t = mixed_table(
        numeric={"x": [0.0, 1.0], "y": [0.0, 2.0]},
        categorical={"c": ["u", "v"], "d": ["p", "p"]},
    )
    model = fit_encoding(t)
    assert model.feature_names() == ("x", "y", "c=u", "c=v", "d=p")
    enc = encode(model, t)
    assert enc.vectors.tolist() == [
        [0.0, 0.0, 1.0, 0.0, 1.0],
        [1.0, 1.0, 0.0, 1.0, 1.0],
    ]


def test_category_outside_the_model_vocabulary_encodes_to_zero_block():
    synth = mixed_table(categorical={"c": ["a", "b"]})
    real = mixed_table(categorical={"c": ["b", "z", "a"]})
    enc = encode(fit_encoding(synth), real)
    assert enc.vectors.tolist() == [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]


def test_model_is_fitted_on_synthetic_only():
    synth = numeric_table([0.0, 2.0], names=["x"])
    model = fit_encoding(synth)
    assert numeric_ranges(model) == {"x": (0.0, 2.0)}
    # encoding a wider real table does not touch the fitted range
    real = numeric_table([-10.0, 10.0], names=["x"])
    enc = encode(model, real)
    assert enc.vectors[:, 0].tolist() == [-5.0, 5.0]
    assert numeric_ranges(model) == {"x": (0.0, 2.0)}


def test_schema_compatibility_is_enforced():
    model = fit_encoding(mixed_table(numeric={"x": [1.0]}))
    with pytest.raises(SchemaError, match="do not match the model"):
        encode(model, mixed_table(numeric={"y": [1.0]}))
    with pytest.raises(SchemaError, match="'x' is numeric in the model"):
        encode(model, mixed_table(categorical={"x": ["a"]}))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_categorical_mismatches_give_sqrt_2k(k):
    cats = {f"c{j}": ["a", "b"] for j in range(3)}
    t = mixed_table(numeric={"x": [5.0, 5.0]}, categorical=cats)
    model = fit_encoding(t)
    flipped = {f"c{j}": ["a", "b" if j < k else "a"] for j in range(3)}
    enc = encode(model, mixed_table(numeric={"x": [5.0, 5.0]}, categorical=flipped))
    d = dists_to(enc.vectors[0], enc.vectors[1:])[0]
    assert abs(d - math.sqrt(2 * k)) <= 1e-12


def test_model_hash_tracks_fitted_statistics():
    a = fit_encoding(numeric_table([0.0, 1.0], names=["x"]))
    b = fit_encoding(numeric_table([0.0, 2.0], names=["x"]))
    assert a.model_hash() != b.model_hash()


def test_pca_components_are_orthonormal_and_ordered(rng):
    x = rng.standard_normal((60, 5)) @ rng.standard_normal((5, 5))
    t = numeric_table(x)
    base = fit_encoding(t)
    pca = fit_pca(encode(base, t), 4)
    gram = pca.components @ pca.components.T
    assert np.abs(gram - np.eye(4)).max() <= 1e-8
    assert np.all(np.diff(pca.explained) <= 0.0)
    assert np.all(pca.explained >= 0.0)
    # sign convention: the largest-magnitude coordinate is non-negative
    for row in pca.components:
        assert row[np.argmax(np.abs(row))] >= 0.0


def test_pca_on_collinear_points_explains_everything_on_one_axis():
    t = numeric_table([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    base = fit_encoding(t)
    pca = fit_pca(encode(base, t), 2)
    assert pca.explained.tolist() == [1.0, 0.0]
    assert abs(pca.components[0, 0] - math.sqrt(0.5)) <= 1e-12
    assert abs(pca.components[0, 1] - math.sqrt(0.5)) <= 1e-12


def test_pca_projection_reduces_dimension():
    t = numeric_table([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    base = fit_encoding(t)
    model = fit_encoding(t, pca=1)
    assert model.feature_names() == ("pc0",)
    enc = encode(model, t)
    assert enc.vectors.shape == (3, 1)
    # distances in the base encoded space survive the full-rank-direction cut
    base_enc = encode(base, t)
    d = dists_to(enc.vectors[0], enc.vectors[2:])[0]
    assert abs(d - dists_to(base_enc.vectors[0], base_enc.vectors[2:])[0]) <= 1e-12


def test_pca_dimension_bounds(rng):
    t = numeric_table(rng.standard_normal((5, 3)))
    enc = encode(fit_encoding(t), t)
    with pytest.raises(ConfigError, match="not in"):
        fit_pca(enc, 4)
    with pytest.raises(ConfigError, match="not in"):
        fit_pca(enc, 0)
    single = numeric_table([[1.0, 2.0]])
    with pytest.raises(ConfigError, match="at least 2 rows"):
        fit_pca(encode(fit_encoding(single), single), 1)


def test_pca_zero_variance_explains_nothing():
    t = numeric_table([[1.0, 1.0], [1.0, 1.0]])
    pca = fit_pca(encode(fit_encoding(t), t), 1)
    assert pca.explained.tolist() == [0.0]


def test_real_only_category_is_a_zero_block_and_a_gower_mismatch(tmp_path):
    (tmp_path / "synthetic.csv").write_text("x,c\n0.0,a\n1.0,b\n")
    (tmp_path / "real.csv").write_text("x,c\n0.5,z\n0.5,a\n")
    synth = load_csv(tmp_path / "synthetic.csv")
    real = load_csv(tmp_path / "real.csv", synth.schema)
    model = fit_encoding(synth)
    assert encode(model, real).vectors.tolist() == [[0.5, 0.0, 0.0], [0.5, 1.0, 0.0]]
    cells = gower_cells(real.schema, [(0.5, "a")])
    d = gower_fold(real.schema, numeric_ranges(model), real.columns, cells, np.empty((2, 2)))
    assert d.tolist() == [0.5, 0.0]


def test_encode_rows_align_with_table_rows():
    t = mixed_table(numeric={"x": [0.0, 1.0, 2.0]}, categorical={"c": ["a", "b", "a"]})
    enc = encode(fit_encoding(t), t)
    assert len(enc.vectors) == t.n_rows
    assert enc.vectors[2].tolist() == [1.0, 1.0, 0.0]


def test_scale_equivariance_of_minmax():
    # affine rescaling of a numeric column leaves the encoding unchanged
    a = numeric_table([1.0, 2.0, 4.0], names=["x"])
    b = numeric_table([10.0, 20.0, 40.0], names=["x"])
    ea = encode(fit_encoding(a), a).vectors
    eb = encode(fit_encoding(b), b).vectors
    np.testing.assert_allclose(ea, eb, atol=1e-15)
