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

The dataclasses below are the scenario file's schema: documents.read maps
its keys onto their fields, checks each value's JSON type against the type
hints, and fills the field defaults. Every other check is in __post_init__,
so a bad scenario fails when it is read, before any table is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import documents
from .errors import ConfigError
from .tables import CATEGORICAL, NUMERIC, ColumnSpec, DataTable, TableSchema

GENERATOR_KINDS = ("memorizer", "noised", "independent")


@dataclass(frozen=True)
class Component:
    """One mixture component: weight, per-numeric-column mean, isotropic
    sigma, and optional per-categorical-column value probabilities."""

    weight: float = 1.0
    means: tuple[float, ...] = ()
    sigma: float = 1.0
    categorical: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class RealRecipe:
    n_rows: int
    numeric_columns: tuple[str, ...] = ()
    categorical_columns: dict[str, tuple[str, ...]] = field(default_factory=dict)
    components: tuple[Component, ...] = ()

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise ConfigError("recipe needs n_rows >= 1")
        if not self.components:
            raise ConfigError("recipe needs at least one component")
        names = [*self.numeric_columns, *self.categorical_columns]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigError(f"column {name!r} is declared twice")
        for column, vocab in self.categorical_columns.items():
            if not vocab:
                raise ConfigError(f"categorical column {column!r} declares no categories")
        for comp in self.components:
            if len(comp.means) != len(self.numeric_columns):
                raise ConfigError(f"component means {comp.means!r} do not cover the "
                                  f"{len(self.numeric_columns)} numeric columns")
            if not all(map(math.isfinite, comp.means)):
                raise ConfigError(f"component means must be finite, got {comp.means!r}")
            if not (0.0 <= comp.sigma < math.inf and 0.0 <= comp.weight < math.inf):
                raise ConfigError("component sigma and weight must be finite and non-negative")
            for column, probs in comp.categorical.items():
                if column not in self.categorical_columns:
                    raise ConfigError(f"component assigns probabilities to undeclared "
                                      f"column {column!r}")
                unknown = sorted(set(probs) - set(self.categorical_columns[column]))
                if unknown:
                    raise ConfigError(f"component assigns probabilities to unknown categories "
                                      f"{unknown!r} of column {column!r}")
                values = probs.values()
                if not (all(0.0 <= p < math.inf for p in values) and 0.0 < sum(values) < math.inf):
                    raise ConfigError(f"invalid probabilities for column {column!r}")
        if not 0.0 < sum(c.weight for c in self.components) < math.inf:
            raise ConfigError("component weights must not all be zero and must have a finite sum")


@dataclass(frozen=True)
class GeneratorSpec:
    label: str
    kind: str
    n_samples: int
    sigma: float = 0.0

    def __post_init__(self) -> None:
        # the label names the generator's table and report directory
        if self.label in ("", ".", "..") or any(c in self.label for c in "/\\\0"):
            raise ConfigError(f"generator label {self.label!r} must be a plain file name")
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.n_samples < 1:
            raise ConfigError("generator needs n_samples >= 1")
        if not math.isfinite(self.sigma):
            raise ConfigError(f"sigma must be finite, got {self.sigma!r}")
        if self.kind == "noised" and self.sigma <= 0.0:
            raise ConfigError("noised generator needs sigma > 0")


@dataclass(frozen=True)
class ExpectedOrdering:
    """Declares that ASR at tau is non-increasing across the listed labels."""

    order: tuple[str, ...]
    tau: float = 0.1

    def __post_init__(self) -> None:
        if len(self.order) < 2:
            raise ConfigError("the ordering needs at least two labels")
        if not math.isfinite(self.tau):
            raise ConfigError(f"tau must be finite, got {self.tau!r}")


@dataclass(frozen=True)
class HarnessScenario:
    name: str
    seed: int
    real: RealRecipe
    generators: tuple[GeneratorSpec, ...]
    audit: dict = field(default_factory=dict)
    expected_ordering: ExpectedOrdering | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if not self.generators:
            raise ConfigError("scenario declares no generators")
        labels = [g.label for g in self.generators]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ConfigError(f"duplicate generator label {label!r}")
        if self.expected_ordering is not None:
            missing = [lab for lab in self.expected_ordering.order if lab not in labels]
            if missing:
                raise ConfigError(f"expected_ordering names unknown generators {missing!r}")


def _recipe_schema(recipe: RealRecipe) -> TableSchema:
    specs = [ColumnSpec(name, NUMERIC) for name in recipe.numeric_columns]
    specs.extend(
        ColumnSpec(name, CATEGORICAL, vocab) for name, vocab in recipe.categorical_columns.items()
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
    d = len(recipe.numeric_columns)
    if d:
        z = rng.standard_normal((n, d))
        means = np.array([c.means for c in recipe.components], dtype=np.float64)
        sigmas = np.array([c.sigma for c in recipe.components], dtype=np.float64)
        values = means[comp] + sigmas[comp][:, None] * z
        columns.extend(np.ascontiguousarray(values[:, j]) for j in range(d))

    for name, vocab in recipe.categorical_columns.items():
        cum = np.empty((len(recipe.components), len(vocab)), dtype=np.float64)
        for k, c in enumerate(recipe.components):
            raw = c.categorical.get(name, dict.fromkeys(vocab, 1.0))
            probs = np.array([raw.get(v, 0.0) for v in vocab], dtype=np.float64)
            cum[k] = np.cumsum(probs / probs.sum())
            cum[k, -1] = 1.0
        u = rng.random(n)
        codes = (cum[comp] <= u[:, None]).sum(axis=1)
        codes = np.minimum(codes, len(vocab) - 1).astype(np.int32)
        columns.append(codes)

    return DataTable(_recipe_schema(recipe), tuple(columns))


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
    name, _, doc = documents.load(path)
    return scenario_from_dict(doc, source=name)


def scenario_from_dict(doc: dict, source: str = "scenario") -> HarnessScenario:
    """The scenario in doc, read by documents.read; every error starts with source."""
    return documents.read(HarnessScenario, doc, "the scenario", f"{source}:")
