"""The shared representation: scaling, one-hot blocks, PCA, Gower."""

import math

import numpy as np
import pytest

from cmla.encoding import (
    EncodingModel,
    encode,
    fit_encoding,
    fit_pca,
    gower_to_table,
    model_from_json_dict,
    numeric_ranges,
    with_pca,
)
from cmla.errors import ConfigError, SchemaError
from cmla.kernels import dists_to

import reference
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


def test_model_json_round_trip_preserves_hash_and_output():
    t = mixed_table(numeric={"x": [1.0, 4.0]}, categorical={"c": ["a", "b"]})
    model = fit_encoding(t, mode="zscore")
    clone = model_from_json_dict(model.to_json_dict())
    assert clone.model_hash() == model.model_hash()
    assert encode(clone, t).vectors.tolist() == encode(model, t).vectors.tolist()


def test_model_json_round_trip_with_pca():
    t = numeric_table([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    base = fit_encoding(t)
    model = with_pca(base, fit_pca(encode(base, t), 2))
    clone = model_from_json_dict(model.to_json_dict())
    assert clone.model_hash() == model.model_hash()
    np.testing.assert_array_equal(encode(clone, t).vectors, encode(model, t).vectors)


def test_model_hash_tracks_fitted_statistics():
    a = fit_encoding(numeric_table([0.0, 1.0], names=["x"]))
    b = fit_encoding(numeric_table([0.0, 2.0], names=["x"]))
    assert a.model_hash() != b.model_hash()


def test_model_json_validation():
    with pytest.raises(ConfigError, match="not an encoding model"):
        model_from_json_dict({"kind": "something"})
    doc = fit_encoding(numeric_table([1.0])).to_json_dict()
    doc["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        model_from_json_dict(doc)


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
    model = with_pca(base, fit_pca(encode(base, t), 1))
    assert model.dim == 1
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


def test_gower_hand_value():
    t = mixed_table(numeric={"x": [1.0, 2.0]}, categorical={"c": ["u", "v"]})
    ranges = {"x": (0.0, 4.0)}
    # |1 - 2| / 4 = 0.25 on the numeric, 1 on the mismatch: mean 0.625
    assert gower_to_table(t.row(0), t, ranges).tolist() == [0.0, 0.625]


def test_gower_clamps_and_ignores_empty_ranges():
    t = mixed_table(numeric={"x": [0.0, 100.0], "y": [5.0, 9.0]})
    ranges = {"x": (0.0, 10.0), "y": (3.0, 3.0)}
    # x overshoots the range (clamped to 1), y has no range (contributes 0)
    assert gower_to_table(t.row(0), t, ranges).tolist() == [0.0, 0.5]


def test_gower_to_table_matches_pairwise_loop(rng):
    table = mixed_table(
        numeric={"x": rng.uniform(0, 10, 20), "y": rng.uniform(-5, 5, 20)},
        categorical={"c": [str(v) for v in rng.integers(0, 3, 20)]},
    )
    ranges = {"x": (0.0, 10.0), "y": (-5.0, 5.0)}
    probe = (3.3, 0.7, "1")
    d = gower_to_table(probe, table, ranges)
    for j in range(table.n_rows):
        assert d[j] == reference.gower_pair(probe, table.row(j), table.schema, ranges)


def test_gower_to_table_with_unseen_category_counts_every_row_as_mismatch():
    table = mixed_table(categorical={"c": ["a", "b"]})
    d = gower_to_table(("z",), table, {})
    assert d.tolist() == [1.0, 1.0]


def test_gower_row_length_validation():
    table = mixed_table(numeric={"x": [1.0]})
    with pytest.raises(SchemaError):
        gower_to_table((1.0, "extra"), table, {"x": (0.0, 1.0)})


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
