"""Mixture sampling, the three synthetic generators, and scenario files."""

import numpy as np
import pytest

from cmla.errors import ConfigError, LoadError
from cmla.harness import (
    Component,
    GeneratorSpec,
    HarnessScenario,
    RealRecipe,
    load_scenario,
    make_real,
    sample_synthetic,
    scenario_from_dict,
)
from cmla.tables import write_csv

from conftest import DATA_DIR


def two_blob_recipe(n_rows=200):
    return RealRecipe(
        n_rows=n_rows,
        numeric_columns=("x", "y"),
        categorical_columns={"tag": ("a", "b")},
        components=(
            Component(weight=0.5, means=(-3.0, 0.0), sigma=0.2,
                      categorical={"tag": {"a": 1.0}}),
            Component(weight=0.5, means=(3.0, 0.0), sigma=0.2,
                      categorical={"tag": {"b": 1.0}}),
        ),
    )


def rows_of(table):
    return [table.row(i) for i in range(table.n_rows)]


def test_make_real_is_deterministic(tmp_path):
    recipe = two_blob_recipe()
    a = make_real(recipe, np.random.default_rng(9))
    b = make_real(recipe, np.random.default_rng(9))
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, pa)
    write_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_make_real_respects_deterministic_categories():
    table = make_real(two_blob_recipe(), np.random.default_rng(3))
    x = table.column_array("x")
    tag = table.column_array("tag")
    vocab = table.schema.column("tag").categories
    # each component pins its tag with probability one
    for i in range(table.n_rows):
        expected = "a" if x[i] < 0 else "b"
        assert vocab[tag[i]] == expected


def test_make_real_component_weights_are_respected():
    recipe = RealRecipe(
        n_rows=4000,
        numeric_columns=("x",),
        categorical_columns={},
        components=(
            Component(weight=0.9, means=(0.0,), sigma=0.01),
            Component(weight=0.1, means=(10.0,), sigma=0.01),
        ),
    )
    x = make_real(recipe, np.random.default_rng(5)).column_array("x")
    frac_high = float(np.mean(x > 5.0))
    assert 0.07 < frac_high < 0.13


def test_uniform_marginal_when_component_omits_a_column():
    recipe = RealRecipe(
        n_rows=6000,
        numeric_columns=(),
        categorical_columns={"c": ("u", "v", "w")},
        components=(Component(weight=1.0, means=(), sigma=0.0),),
    )
    codes = make_real(recipe, np.random.default_rng(8)).column_array("c")
    counts = np.bincount(codes, minlength=3) / len(codes)
    assert np.all(np.abs(counts - 1 / 3) < 0.03)


def test_memorizer_rows_are_copies_of_real_rows():
    real = make_real(two_blob_recipe(50), np.random.default_rng(2))
    spec = GeneratorSpec(label="m", kind="memorizer", n_samples=120)
    synth = sample_synthetic(real, spec, np.random.default_rng(4))
    real_rows = set(rows_of(real))
    assert synth.n_rows == 120
    assert set(rows_of(synth)) <= real_rows


def test_noised_stays_in_vocab_but_moves_numerics():
    real = make_real(two_blob_recipe(100), np.random.default_rng(2))
    spec = GeneratorSpec(label="n", kind="noised", n_samples=200, sigma=0.4)
    synth = sample_synthetic(real, spec, np.random.default_rng(4))
    assert synth.schema is real.schema
    assert set(np.unique(synth.column_array("tag"))) <= {0, 1}
    real_x = set(real.column_array("x").tolist())
    synth_x = synth.column_array("x").tolist()
    moved = sum(1 for v in synth_x if v not in real_x)
    assert moved == len(synth_x)


def test_noised_numeric_noise_scales_with_sigma():
    real = make_real(two_blob_recipe(400), np.random.default_rng(2))
    lo = real.column_array("x").min()
    hi = real.column_array("x").max()

    def spread(sigma):
        spec = GeneratorSpec(label="n", kind="noised", n_samples=4000, sigma=sigma)
        synth = sample_synthetic(real, spec, np.random.default_rng(4))
        idx_free = synth.column_array("x")
        return float(np.std(idx_free))

    # noise sd is sigma * (hi - lo); with sigma=0.5 it dwarfs the base spread
    assert spread(0.5) > spread(0.05)
    assert spread(0.5) > 0.3 * (hi - lo)


def test_independent_breaks_joint_structure():
    # real data only pairs (x<0, tag=a) and (x>0, tag=b); column-wise
    # resampling must produce cross pairs
    real = make_real(two_blob_recipe(500), np.random.default_rng(2))
    spec = GeneratorSpec(label="i", kind="independent", n_samples=500)
    synth = sample_synthetic(real, spec, np.random.default_rng(4))
    x = synth.column_array("x")
    tag = synth.column_array("tag")
    vocab = synth.schema.column("tag").categories
    crossed = sum(
        1
        for i in range(synth.n_rows)
        if (x[i] < 0) != (vocab[tag[i]] == "a")
    )
    assert crossed > 100
    real_x = set(real.column_array("x").tolist())
    assert all(v in real_x for v in x.tolist())


def test_generators_are_deterministic_per_seed():
    real = make_real(two_blob_recipe(80), np.random.default_rng(2))
    for kind, sigma in (("memorizer", 0.0), ("noised", 0.3), ("independent", 0.0)):
        spec = GeneratorSpec(label="g", kind=kind, n_samples=60, sigma=sigma)
        a = sample_synthetic(real, spec, np.random.default_rng(77))
        b = sample_synthetic(real, spec, np.random.default_rng(77))
        assert rows_of(a) == rows_of(b)


def test_recipe_validation():
    comp = Component(weight=1.0, means=(0.0,), sigma=1.0)
    with pytest.raises(ConfigError, match="n_rows"):
        RealRecipe(0, ("x",), {}, (comp,))
    with pytest.raises(ConfigError, match="at least one component"):
        RealRecipe(5, ("x",), {}, ())
    with pytest.raises(ConfigError, match="do not cover"):
        RealRecipe(5, ("x", "y"), {}, (comp,))
    with pytest.raises(ConfigError, match="sigma"):
        RealRecipe(5, ("x",), {}, (Component(1.0, (0.0,), -1.0),))
    with pytest.raises(ConfigError, match="not all be zero"):
        RealRecipe(5, ("x",), {}, (Component(0.0, (0.0,), 1.0),))
    with pytest.raises(ConfigError, match="means must be finite"):
        RealRecipe(5, ("x",), {}, (Component(1.0, (float("nan"),), 1.0),))
    with pytest.raises(ConfigError, match="weight must be finite"):
        RealRecipe(5, ("x",), {}, (Component(float("inf"), (0.0,), 1.0),))
    with pytest.raises(ConfigError, match="'c' declares no categories"):
        RealRecipe(5, ("x",), {"c": ()}, (comp,))


def test_component_probability_validation():
    with pytest.raises(ConfigError, match="unknown categories"):
        RealRecipe(
            n_rows=5,
            numeric_columns=(),
            categorical_columns={"c": ("u", "v")},
            components=(
                Component(1.0, (), 0.0, categorical={"c": {"zzz": 1.0}}),
            ),
        )
    with pytest.raises(ConfigError, match="invalid probabilities"):
        RealRecipe(
            n_rows=5,
            numeric_columns=(),
            categorical_columns={"c": ("u", "v")},
            components=(Component(1.0, (), 0.0, categorical={"c": {"u": -1.0}}),),
        )
    for probs in ({"u": float("inf")}, {"u": 0.0, "v": 0.0}, {}):
        with pytest.raises(ConfigError, match="invalid probabilities"):
            RealRecipe(5, (), {"c": ("u", "v")}, (Component(1.0, (), 0.0, {"c": probs}),))
    with pytest.raises(ConfigError, match="undeclared column 'd'"):
        RealRecipe(5, (), {"c": ("u", "v")}, (Component(1.0, (), 0.0, {"d": {"u": 1.0}}),))


def test_generator_spec_validation():
    with pytest.raises(ConfigError, match="unknown generator kind"):
        GeneratorSpec(label="g", kind="copycat", n_samples=10)
    with pytest.raises(ConfigError, match="n_samples"):
        GeneratorSpec(label="g", kind="memorizer", n_samples=0)
    with pytest.raises(ConfigError, match="sigma > 0"):
        GeneratorSpec(label="g", kind="noised", n_samples=10, sigma=0.0)
    with pytest.raises(ConfigError, match="sigma must be finite"):
        GeneratorSpec(label="g", kind="noised", n_samples=10, sigma=float("nan"))
    for label in ("", ".", "..", "a/b", "a\\b", "/"):
        with pytest.raises(ConfigError, match="must be a plain file name"):
            GeneratorSpec(label=label, kind="memorizer", n_samples=10)
    GeneratorSpec(label="..a", kind="memorizer", n_samples=10)


def test_load_scenario_reads_the_bundled_file():
    scn = load_scenario(DATA_DIR / "ordering_scenario.json")
    assert isinstance(scn, HarnessScenario)
    assert scn.name == "paired-modes"
    assert scn.seed == 20240817
    assert scn.real.n_rows == 2000
    assert scn.real.numeric_columns == ("x0",)
    assert [g.label for g in scn.generators] == ["memorizer", "noised", "independent"]
    assert scn.generators[1].sigma == 0.5
    assert scn.audit["min_samples"] == 100
    assert scn.expected_ordering.tau == 0.1
    assert scn.expected_ordering.order == ("memorizer", "noised", "independent")


def test_load_scenario_missing_file_and_bad_json(tmp_path):
    with pytest.raises(LoadError, match="no such file"):
        load_scenario(tmp_path / "nope.json")
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(LoadError, match="invalid JSON"):
        load_scenario(p)
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"name": "\xff"}')
    with pytest.raises(LoadError, match="latin1.json: invalid JSON"):
        load_scenario(p)


def minimal_doc():
    return {
        "name": "t",
        "seed": 1,
        "real": {
            "n_rows": 10,
            "numeric_columns": ["x"],
            "categorical_columns": {},
            "components": [{"weight": 1.0, "means": [0.0], "sigma": 1.0}],
        },
        "generators": [{"label": "m", "kind": "memorizer", "n_samples": 5}],
        "audit": {},
    }


def test_scenario_from_dict_validation():
    doc = minimal_doc()
    del doc["seed"]
    with pytest.raises(ConfigError, match="is missing the key 'seed'"):
        scenario_from_dict(doc)

    doc = minimal_doc()
    doc["seed"] = -3
    with pytest.raises(ConfigError, match="unsigned 64-bit"):
        scenario_from_dict(doc)

    doc = minimal_doc()
    doc["generators"].append(dict(doc["generators"][0]))
    with pytest.raises(ConfigError, match="duplicate generator label"):
        scenario_from_dict(doc)

    doc = minimal_doc()
    doc["generators"] = []
    with pytest.raises(ConfigError, match="no generators"):
        scenario_from_dict(doc)

    doc = minimal_doc()
    doc["expected_ordering"] = {"tau": 0.1, "order": ["m", "ghost"]}
    with pytest.raises(ConfigError, match="unknown generators"):
        scenario_from_dict(doc)

    doc = minimal_doc()
    doc["expected_ordering"] = {"tau": 0.1, "order": ["m"]}
    with pytest.raises(ConfigError, match="at least two labels"):
        scenario_from_dict(doc)

    doc = minimal_doc()
    doc["real"]["categorical_columns"] = {"x": ["a", "b"]}
    with pytest.raises(ConfigError, match="real: column 'x' is declared twice"):
        scenario_from_dict(doc)

    doc = minimal_doc()
    doc["real"]["numeric_columns"] = ["x", "x"]
    doc["real"]["components"][0]["means"] = [0.0, 0.0]
    with pytest.raises(ConfigError, match="real: column 'x' is declared twice"):
        scenario_from_dict(doc)

    doc = minimal_doc()
    doc["audit"] = ["eps"]
    with pytest.raises(ConfigError, match="has a malformed 'audit'"):
        scenario_from_dict(doc)
