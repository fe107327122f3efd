"""Shared numeric representation for mixed-type tables.

The encoding model is fitted on the synthetic table alone and applied to every
table in the audit, so nothing about the real data can leak into the
representation. Numeric columns are rescaled (min-max by default, population
z-score optional) and categorical columns become one-hot blocks over the
fitted vocabulary; a category outside that vocabulary encodes as an all-zero
block. Layout: scaled numerics first in schema order, then one-hot blocks in
schema order. Values outside the fitted numeric range extrapolate linearly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemaError
from .tables import CATEGORICAL, NUMERIC, ColumnSpec, DataTable, TableSchema

MINMAX = "minmax"
ZSCORE = "zscore"

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class NumericStats:
    """Fitted per-column statistics. std is the population value (divisor N)."""

    lo: float
    hi: float
    mean: float
    std: float


@dataclass(frozen=True)
class PcaModel:
    """Optional linear projection fitted on the encoded synthetic matrix.

    components has shape (d_prime, D) with orthonormal rows; explained holds
    the fraction of total variance per component, non-increasing.
    """

    mean: np.ndarray
    components: np.ndarray
    explained: np.ndarray


@dataclass(eq=False)
class EncodingModel:
    schema: TableSchema
    mode: str
    stats: dict[str, NumericStats]
    pca: PcaModel | None = None

    @property
    def base_dim(self) -> int:
        n_num = len(self.schema.numeric_columns())
        n_onehot = sum(len(c.categories) for c in self.schema.categorical_columns())
        return n_num + n_onehot

    @property
    def dim(self) -> int:
        return len(self.pca.components) if self.pca is not None else self.base_dim

    def feature_names(self) -> tuple[str, ...]:
        """One name per encoded dimension, each traceable to a source column."""
        if self.pca is not None:
            return tuple(f"pc{i}" for i in range(len(self.pca.components)))
        names = [c.name for c in self.schema.numeric_columns()]
        for col in self.schema.categorical_columns():
            names.extend(f"{col.name}={cat}" for cat in col.categories)
        return tuple(names)

    def to_json_dict(self) -> dict:
        columns = []
        for col in self.schema.columns:
            if col.kind == NUMERIC:
                s = self.stats[col.name]
                columns.append(
                    {
                        "name": col.name,
                        "kind": NUMERIC,
                        "lo": s.lo,
                        "hi": s.hi,
                        "mean": s.mean,
                        "std": s.std,
                    }
                )
            else:
                columns.append(
                    {"name": col.name, "kind": CATEGORICAL, "categories": list(col.categories)}
                )
        pca = None
        if self.pca is not None:
            pca = {
                "mean": self.pca.mean.tolist(),
                "components": self.pca.components.tolist(),
                "explained": self.pca.explained.tolist(),
            }
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "kind": "encoding_model",
            "mode": self.mode,
            "columns": columns,
            "pca": pca,
        }

    def model_hash(self) -> str:
        canonical = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def model_from_json_dict(doc: dict) -> EncodingModel:
    if doc.get("kind") != "encoding_model":
        raise ConfigError("not an encoding model document")
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise ConfigError(f"unsupported model schema_version {doc.get('schema_version')!r}")
    specs = []
    stats: dict[str, NumericStats] = {}
    for col in doc["columns"]:
        if col["kind"] == NUMERIC:
            specs.append(ColumnSpec(col["name"], NUMERIC))
            stats[col["name"]] = NumericStats(col["lo"], col["hi"], col["mean"], col["std"])
        else:
            specs.append(ColumnSpec(col["name"], CATEGORICAL, tuple(col["categories"])))
    pca = None
    if doc.get("pca") is not None:
        p = doc["pca"]
        pca = PcaModel(
            mean=np.asarray(p["mean"], dtype=np.float64),
            components=np.asarray(p["components"], dtype=np.float64),
            explained=np.asarray(p["explained"], dtype=np.float64),
        )
    return EncodingModel(TableSchema(tuple(specs)), doc["mode"], stats, pca)


@dataclass(eq=False)
class EncodedMatrix:
    """N x D float64 matrix; rows correspond 1:1 with the source table's rows."""

    vectors: np.ndarray
    model_hash: str


def fit_encoding(table: DataTable, mode: str = MINMAX) -> EncodingModel:
    """Fit the shared representation on one table (the synthetic one)."""
    if mode not in (MINMAX, ZSCORE):
        raise ConfigError(f"unknown scaling mode {mode!r}")
    stats: dict[str, NumericStats] = {}
    for col in table.schema.numeric_columns():
        arr = table.column_array(col.name)
        stats[col.name] = NumericStats(
            lo=float(arr.min()),
            hi=float(arr.max()),
            mean=float(arr.mean()),
            std=float(arr.std()),
        )
    return EncodingModel(table.schema, mode, stats)


def with_pca(model: EncodingModel, pca: PcaModel) -> EncodingModel:
    return EncodingModel(model.schema, model.mode, dict(model.stats), pca)


def _check_compatible(model: EncodingModel, table: DataTable) -> None:
    if table.schema.names != model.schema.names:
        raise SchemaError(
            f"table columns {list(table.schema.names)!r} do not match the model "
            f"columns {list(model.schema.names)!r}"
        )
    for m_col, t_col in zip(model.schema.columns, table.schema.columns):
        if m_col.kind != t_col.kind:
            raise SchemaError(
                f"column {m_col.name!r} is {m_col.kind} in the model but "
                f"{t_col.kind} in the table"
            )


def encode(model: EncodingModel, table: DataTable) -> EncodedMatrix:
    """Apply the fitted representation to a table.

    The table must match the model schema by name and kind; its categorical
    vocabularies may differ. Cells whose category is unknown to the model
    produce an all-zero one-hot block.
    """
    _check_compatible(model, table)
    n = table.n_rows
    parts: list[np.ndarray] = []

    numeric = model.schema.numeric_columns()
    if numeric:
        block = np.empty((n, len(numeric)), dtype=np.float64)
        for j, col in enumerate(numeric):
            arr = table.column_array(col.name)
            s = model.stats[col.name]
            if model.mode == MINMAX:
                denom = s.hi - s.lo
                block[:, j] = (arr - s.lo) / (denom if denom != 0.0 else 1.0)
            else:
                denom = s.std
                block[:, j] = (arr - s.mean) / (denom if denom != 0.0 else 1.0)
        parts.append(block)

    for col in model.schema.categorical_columns():
        table_vocab = table.schema.column(col.name).categories
        model_pos = {cat: k for k, cat in enumerate(col.categories)}
        posmap = np.array([model_pos.get(cat, -1) for cat in table_vocab], dtype=np.int64)
        codes = table.column_array(col.name)
        pos = posmap[codes]
        block = np.zeros((n, len(col.categories)), dtype=np.float64)
        hit = np.flatnonzero(pos >= 0)
        block[hit, pos[hit]] = 1.0
        parts.append(block)

    base = np.ascontiguousarray(np.concatenate(parts, axis=1))
    if model.pca is not None:
        base = np.ascontiguousarray((base - model.pca.mean) @ model.pca.components.T)
    return EncodedMatrix(base, model.model_hash())


def gower_to_table(
    row: tuple,
    table: DataTable,
    ranges: dict[str, tuple[float, float]],
) -> np.ndarray:
    """Gower distance from one raw row to every row of a table: the mean
    per-column dissimilarity.

    Numeric columns contribute |a - b| / (hi - lo) clamped to [0, 1], or 0 when
    the fitted range is empty; categorical columns contribute 0 on a match and
    1 otherwise. Ranges come from the fitted model so the comparison stays
    independent of the real table.
    """
    if len(row) != len(table.schema.columns):
        raise SchemaError("row length does not match the table schema")
    n = table.n_rows
    total = np.zeros(n, dtype=np.float64)
    for col, cell in zip(table.schema.columns, row):
        arr = table.column_array(col.name)
        if col.kind == NUMERIC:
            lo, hi = ranges[col.name]
            if hi != lo:
                total += np.minimum(np.abs(arr - float(cell)) / (hi - lo), 1.0)
        else:
            vocab = table.schema.column(col.name).categories
            try:
                pos = vocab.index(cell)
            except ValueError:
                pos = -1
            total += (arr != pos).astype(np.float64)
    return total / len(table.schema.columns)


def numeric_ranges(model: EncodingModel) -> dict[str, tuple[float, float]]:
    """Per-column (lo, hi) from the fitted model, for Gower evaluation."""
    return {name: (s.lo, s.hi) for name, s in model.stats.items()}


def fit_pca(matrix: EncodedMatrix, d_prime: int) -> PcaModel:
    """Fit a deterministic PCA projection on an encoded matrix.

    Uses the eigendecomposition of the sample covariance (divisor N - 1).
    Components are ordered by non-increasing eigenvalue and sign-fixed so the
    largest-magnitude coordinate of each component is non-negative. Explained
    fractions are eigenvalue shares of the total variance; with zero total
    variance they are all zero.
    """
    x = matrix.vectors
    n, d = x.shape
    if n < 2:
        raise ConfigError("pca requires at least 2 rows")
    if not 1 <= d_prime <= min(n, d):
        raise ConfigError(f"pca dimension {d_prime} not in [1, {min(n, d)}]")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(-evals, kind="stable")
    components = np.ascontiguousarray(evecs[:, order].T[:d_prime])
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    positive = np.clip(evals[order], 0.0, None)
    total = positive.sum()
    if total > 0.0:
        explained = positive[:d_prime] / total
    else:
        explained = np.zeros(d_prime, dtype=np.float64)
    return PcaModel(mean=mean, components=components, explained=explained)
