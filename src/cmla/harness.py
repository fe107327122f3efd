"""Deterministic test-bed: reference tables and toy generators.

Reference tables come from a Gaussian mixture over the numeric columns;
each component carries its own categorical distributions (defaulting to
uniform over the declared vocabulary), so mixed-type cluster structure is
expressible. Generators produce synthetic tables from a reference table:

- memorizer: uniform row resampling with replacement (verbatim leakage)
- noised(sigma): memorizer plus isotropic Gaussian noise on scaled numerics
  (v + sigma * (hi - lo) * z, ranges from the reference table) and, with
  probability min(1, sigma) per cell, categorical resampling from the
  column's empirical marginal
- independent: every column resampled independently from its empirical
  marginal, which preserves marginals and destroys joint structure

Randomness comes from numpy's PCG64 (np.random.default_rng) seeded with the
scenario's 64-bit seed. Draw order is fixed: component assignments, then the
numeric noise matrix, then one uniform array per categorical column in schema
order; generators consume the stream in their listed order. Outputs are
byte-identical for a given seed and numpy version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, LoadError
from .tables import CATEGORICAL, NUMERIC, ColumnSpec, DataTable, TableSchema

GENERATOR_KINDS = ("memorizer", "noised", "independent")


@dataclass(frozen=True)
class Component:
    """One mixture component: weight, per-numeric-column mean, isotropic
    sigma, and optional per-categorical-column value probabilities."""

    weight: float
    means: tuple[float, ...]
    sigma: float
    categorical: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class RealRecipe:
    n_rows: int
    numeric_names: tuple[str, ...]
    categorical_vocab: tuple[tuple[str, tuple[str, ...]], ...]
    components: tuple[Component, ...]

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise ConfigError("recipe needs n_rows >= 1")
        if not self.components:
            raise ConfigError("recipe needs at least one component")
        for comp in self.components:
            if len(comp.means) != len(self.numeric_names):
                raise ConfigError(
                    f"component means {comp.means!r} do not cover the "
                    f"{len(self.numeric_names)} numeric columns"
                )
            if comp.sigma < 0.0:
                raise ConfigError("component sigma must be non-negative")
            if comp.weight < 0.0:
                raise ConfigError("component weights must be non-negative")
        if sum(c.weight for c in self.components) <= 0.0:
            raise ConfigError("component weights must not all be zero")


@dataclass(frozen=True)
class GeneratorSpec:
    label: str
    kind: str
    n_samples: int
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.n_samples < 1:
            raise ConfigError("generator needs n_samples >= 1")
        if self.kind == "noised" and self.sigma <= 0.0:
            raise ConfigError("noised generator needs sigma > 0")


@dataclass(frozen=True)
class ExpectedOrdering:
    """Declares that ASR at tau is non-increasing across the listed labels."""

    tau: float
    labels: tuple[str, ...]


@dataclass(frozen=True)
class HarnessScenario:
    name: str
    seed: int
    real: RealRecipe
    generators: tuple[GeneratorSpec, ...]
    audit: dict
    expected_ordering: ExpectedOrdering | None = None


def _recipe_schema(recipe: RealRecipe) -> TableSchema:
    specs = [ColumnSpec(name, NUMERIC) for name in recipe.numeric_names]
    specs.extend(
        ColumnSpec(name, CATEGORICAL, vocab) for name, vocab in recipe.categorical_vocab
    )
    return TableSchema(tuple(specs))


def make_real(recipe: RealRecipe, rng: np.random.Generator) -> DataTable:
    """Sample a reference table from the recipe.

    Draw order: one component-choice call, one standard-normal matrix for all
    numeric columns, then one uniform array per categorical column in declared
    order (inverse-CDF against the per-component distribution).
    """
    n = recipe.n_rows
    weights = np.array([c.weight for c in recipe.components], dtype=np.float64)
    weights = weights / weights.sum()
    comp = rng.choice(len(recipe.components), size=n, p=weights)

    columns: list[np.ndarray] = []
    d = len(recipe.numeric_names)
    if d:
        z = rng.standard_normal((n, d))
        means = np.array([c.means for c in recipe.components], dtype=np.float64)
        sigmas = np.array([c.sigma for c in recipe.components], dtype=np.float64)
        values = means[comp] + sigmas[comp][:, None] * z
        columns.extend(np.ascontiguousarray(values[:, j]) for j in range(d))

    for name, vocab in recipe.categorical_vocab:
        cum = np.empty((len(recipe.components), len(vocab)), dtype=np.float64)
        for k, c in enumerate(recipe.components):
            probs = _component_probs(c, name, vocab)
            cum[k] = np.cumsum(probs)
            cum[k, -1] = 1.0
        u = rng.random(n)
        codes = (cum[comp] <= u[:, None]).sum(axis=1)
        codes = np.minimum(codes, len(vocab) - 1).astype(np.int32)
        columns.append(codes)

    return DataTable(_recipe_schema(recipe), tuple(columns))


def _component_probs(comp: Component, column: str, vocab: tuple[str, ...]) -> np.ndarray:
    raw = comp.categorical.get(column)
    if raw is None:
        return np.full(len(vocab), 1.0 / len(vocab))
    unknown = set(raw) - set(vocab)
    if unknown:
        raise ConfigError(
            f"component assigns probabilities to unknown categories {sorted(unknown)!r} "
            f"of column {column!r}"
        )
    probs = np.array([float(raw.get(v, 0.0)) for v in vocab], dtype=np.float64)
    if np.any(probs < 0.0) or probs.sum() <= 0.0:
        raise ConfigError(f"invalid probabilities for column {column!r}")
    return probs / probs.sum()


def sample_synthetic(
    real: DataTable, spec: GeneratorSpec, rng: np.random.Generator
) -> DataTable:
    """Sample a synthetic table from a reference table.

    Draw order per kind: memorizer takes one row-index call. noised takes the
    row-index call, one standard-normal matrix over numeric columns, then per
    categorical column one uniform array (resample mask) and one row-index
    call (marginal draws). independent takes one row-index call per column in
    schema order.
    """
    n = real.n_rows
    m = spec.n_samples
    schema = real.schema

    if spec.kind == "memorizer":
        idx = rng.integers(0, n, size=m)
        columns = tuple(arr[idx].copy() for arr in real.columns)

    elif spec.kind == "noised":
        idx = rng.integers(0, n, size=m)
        resample_p = min(1.0, spec.sigma)
        numeric = schema.numeric_columns()
        noise = rng.standard_normal((m, len(numeric))) if numeric else None
        out: list[np.ndarray] = []
        j = 0
        for spec_col, arr in zip(schema.columns, real.columns):
            base = arr[idx]
            if spec_col.kind == NUMERIC:
                lo = float(arr.min())
                hi = float(arr.max())
                out.append(base + spec.sigma * (hi - lo) * noise[:, j])
                j += 1
            else:
                mask = rng.random(m) < resample_p
                draws = arr[rng.integers(0, n, size=m)]
                out.append(np.where(mask, draws, base).astype(np.int32))
        columns = tuple(out)

    else:  # independent
        out = []
        for arr in real.columns:
            out.append(arr[rng.integers(0, n, size=m)].copy())
        columns = tuple(out)

    return DataTable(schema, columns)


def load_scenario(path: str | Path) -> HarnessScenario:
    """Parse and validate a scenario description file (JSON)."""
    p = Path(path)
    if not p.is_file():
        raise LoadError(f"no such file: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise LoadError(f"{p.name}: invalid JSON: {e}") from None
    return scenario_from_dict(doc, source=p.name)


def scenario_from_dict(doc: dict, source: str = "scenario") -> HarnessScenario:
    """Build a scenario from its JSON document. A missing, unknown or
    malformed field anywhere in it is a ConfigError naming source."""
    try:
        return _scenario(doc, source)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as e:
        raise ConfigError(f"{source}: missing or malformed field: {e}") from None


def _object(doc: object, where: str, known) -> dict:
    """doc, checked to be a JSON object whose keys are all in known."""
    if not isinstance(doc, dict):
        raise TypeError(f"{where} must be an object")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")
    return doc


def _whole(value: object, where: str) -> int:
    """An int, an integral float or an integer string, as the audit settings
    take them; never a bool."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{where} must be a whole number, got {value!r}")
    return int(value)


def _scenario(doc: dict, source: str) -> HarnessScenario:
    _object(doc, "the scenario",
            ("name", "seed", "real", "generators", "audit", "expected_ordering"))
    name = str(doc["name"])
    seed = _whole(doc["seed"], "seed")
    real_doc = _object(doc["real"], "real",
                       ("n_rows", "numeric_columns", "categorical_columns", "components"))
    gen_docs = doc["generators"]
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{source}: seed must be an unsigned 64-bit integer")

    numeric_names = tuple(str(s) for s in real_doc.get("numeric_columns", ()))
    cat_doc = real_doc.get("categorical_columns", {})
    categorical_vocab = tuple(
        (str(name), tuple(str(v) for v in vocab)) for name, vocab in cat_doc.items()
    )
    components = []
    for i, c in enumerate(real_doc.get("components", ())):
        where = f"real.components[{i}]"
        _object(c, where, ("weight", "means", "sigma", "categorical"))
        components.append(
            Component(
                weight=float(c.get("weight", 1.0)),
                means=tuple(float(v) for v in c.get("means", ())),
                sigma=float(c.get("sigma", 1.0)),
                categorical={
                    str(col): {str(k): float(v) for k, v in probs.items()}
                    for col, probs in _object(
                        c.get("categorical", {}), f"{where}.categorical", cat_doc
                    ).items()
                },
            )
        )
    recipe = RealRecipe(
        n_rows=_whole(real_doc.get("n_rows", 0), "real.n_rows"),
        numeric_names=numeric_names,
        categorical_vocab=categorical_vocab,
        components=tuple(components),
    )

    generators = []
    seen = set()
    for i, g in enumerate(gen_docs):
        where = f"generators[{i}]"
        _object(g, where, ("label", "kind", "n_samples", "sigma"))
        spec = GeneratorSpec(
            label=str(g["label"]),
            kind=str(g["kind"]),
            n_samples=_whole(g["n_samples"], f"{where}.n_samples"),
            sigma=float(g.get("sigma", 0.0)),
        )
        if spec.label in seen:
            raise ConfigError(f"{source}: duplicate generator label {spec.label!r}")
        seen.add(spec.label)
        generators.append(spec)
    if not generators:
        raise ConfigError(f"{source}: scenario declares no generators")

    ordering = None
    if doc.get("expected_ordering") is not None:
        o = _object(doc["expected_ordering"], "expected_ordering", ("tau", "order"))
        labels = tuple(str(v) for v in o.get("order", ()))
        missing = [lab for lab in labels if lab not in seen]
        if missing:
            raise ConfigError(f"{source}: expected_ordering names unknown generators {missing!r}")
        if len(labels) < 2:
            raise ConfigError(f"{source}: expected_ordering needs at least two labels")
        ordering = ExpectedOrdering(tau=float(o.get("tau", 0.1)), labels=labels)

    audit = doc.get("audit", {})
    if not isinstance(audit, dict):
        raise ConfigError(f"{source}: audit section must be an object")

    return HarnessScenario(
        name=name,
        seed=seed,
        real=recipe,
        generators=tuple(generators),
        audit=dict(audit),
        expected_ordering=ordering,
    )
