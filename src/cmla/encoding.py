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
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import documents
from .errors import ConfigError, SchemaError
from .tables import CATEGORICAL, NUMERIC, ColumnSpec, DataTable, TableSchema

MINMAX = "minmax"
ZSCORE = "zscore"

MODEL_SCHEMA_VERSION = 1

# encode refuses a table whose encoded matrix, before any projection, would
# take more bytes than this (a 1 GiB bound, not a setting): a one-hot block
# of a column with many categories grows with rows x categories.
MAX_ENCODED_BYTES = 1 << 30
# encode_chunks encodes at most this many bytes at a time. Each chunk starts
# the pruning bound of kernels.cross_min_distances afresh: on a 200k x 9 real
# table, 8 MiB chunks took as much CPU as one whole matrix, 512 KiB chunks
# 12 % more.
CHUNK_BYTES = 8 << 20


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
                stats = documents.write(self.stats[col.name])
                columns.append({"name": col.name, "kind": NUMERIC, **stats})
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


@dataclass(eq=False)
class EncodedMatrix:
    """N x D float64 matrix; rows correspond 1:1 with the source table's rows."""

    vectors: np.ndarray
    model_hash: str


def fit_encoding(table: DataTable, mode: str = MINMAX, pca: int | None = None) -> EncodingModel:
    """Fit the shared representation on one table (the synthetic one): the
    scaling, then, with pca, a projection to pca dimensions fitted on the
    scaled encoding of the same table."""
    if mode not in (MINMAX, ZSCORE):
        raise ConfigError(f"unknown scaling mode {mode!r}")
    stats: dict[str, NumericStats] = {}
    for col in table.schema.numeric_columns():
        arr = table.column_array(col.name)
        with np.errstate(over="ignore", invalid="ignore"):
            s = NumericStats(
                lo=float(arr.min()),
                hi=float(arr.max()),
                mean=float(arr.mean()),
                std=float(arr.std()),
            )
        if not all(map(math.isfinite, (s.lo, s.hi, s.hi - s.lo, s.mean, s.std))):
            raise ConfigError(
                f"numeric column {col.name!r} spans [{s.lo!r}, {s.hi!r}]: its range, "
                f"mean or spread overflows float64, so it cannot be scaled"
            )
        stats[col.name] = s
    model = EncodingModel(table.schema, mode, stats)
    if pca is not None:
        model.pca = fit_pca(encode(model, table), pca)
    return model


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


def _width(schema: TableSchema) -> int:
    """Encoded dimensions before any projection: one per numeric column, one
    per category."""
    return len(schema.numeric_columns()) + sum(
        len(col.categories) for col in schema.categorical_columns()
    )


def encode(model: EncodingModel, table: DataTable) -> EncodedMatrix:
    """Apply the fitted representation to a table.

    The table must match the model schema by name and kind; its categorical
    vocabularies may differ. Cells whose category is unknown to the model
    produce an all-zero one-hot block. Each row's encoding depends on that
    row alone, bit for bit, so rows encode alike in any batch. A table whose
    matrix would exceed MAX_ENCODED_BYTES is a ConfigError, before any of it
    is allocated.
    """
    return _encoder(model)(table)


def _encoder(model: EncodingModel) -> Callable[[DataTable], EncodedMatrix]:
    """encode(model, .) for a run of tables. The model's hash and each
    categorical column's positions in the model vocabulary are worked out
    once; a table vocabulary's position map is kept while the next table
    carries the same tuple, as the chunks of a table and the blocks of
    tables.read_blocks that add no category do."""
    numeric = model.schema.numeric_columns()
    categorical = model.schema.categorical_columns()
    width = _width(model.schema)
    model_hash = model.model_hash()
    model_pos = [{cat: k for k, cat in enumerate(col.categories)} for col in categorical]
    posmaps: list[tuple[tuple[str, ...], np.ndarray] | None] = [None] * len(categorical)

    def encode_table(table: DataTable) -> EncodedMatrix:
        _check_compatible(model, table)
        need = 8 * table.n_rows * width
        if need > MAX_ENCODED_BYTES:
            widest = max(categorical, key=lambda col: len(col.categories), default=None)
            blame = "" if widest is None else (
                f"; column {widest.name!r} has {len(widest.categories)} categories"
            )
            raise ConfigError(
                f"encoding {table.n_rows} rows x {width} dimensions needs {need} bytes, "
                f"over the bound of {MAX_ENCODED_BYTES}{blame}"
            )
        base = np.zeros((table.n_rows, width), dtype=np.float64)

        for j, col in enumerate(numeric):
            arr = table.column_array(col.name)
            s = model.stats[col.name]
            if model.mode == MINMAX:
                denom = s.hi - s.lo
                base[:, j] = (arr - s.lo) / (denom if denom != 0.0 else 1.0)
            else:
                denom = s.std
                base[:, j] = (arr - s.mean) / (denom if denom != 0.0 else 1.0)

        offset = len(numeric)
        for c, col in enumerate(categorical):
            table_vocab = table.schema.column(col.name).categories
            if posmaps[c] is None or posmaps[c][0] is not table_vocab:
                positions = [model_pos[c].get(cat, -1) for cat in table_vocab]
                posmaps[c] = table_vocab, np.array(positions, dtype=np.int64)
            pos = posmaps[c][1][table.column_array(col.name)]
            hit = np.flatnonzero(pos >= 0)
            base[hit, offset + pos[hit]] = 1.0
            offset += len(col.categories)

        if model.pca is not None:
            # einsum sums each row's products in one order whatever the row
            # count, where a BLAS matmul's order may depend on the batch shape
            base = np.einsum("ij,kj->ik", base - model.pca.mean, model.pca.components)
        return EncodedMatrix(base, model_hash)

    return encode_table


def encode_chunks(model: EncodingModel, tables: Iterable[DataTable]) -> Iterator[EncodedMatrix]:
    """The tables' encodings in row order, each table in chunks of rows whose
    encoded matrix takes at most CHUNK_BYTES (or one row), so a wide one-hot
    never allocates rows x width at once."""
    step = max(1, CHUNK_BYTES // (8 * _width(model.schema)))
    encode_table = _encoder(model)
    for table in tables:
        for start in range(0, table.n_rows, step):
            rows = slice(start, start + step)
            yield encode_table(DataTable(table.schema, tuple(c[rows] for c in table.columns)))


def gower_to_table(
    row: tuple,
    table: DataTable,
    ranges: dict[str, tuple[float, float]],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Gower distance from one raw row to every row of a table: the mean
    per-column dissimilarity.

    Numeric columns contribute |a - b| / (hi - lo) clamped to [0, 1], or 0 when
    the fitted range is empty; categorical columns contribute 0 on a match and
    1 otherwise. Ranges come from the fitted model so the comparison stays
    independent of the real table. out, a (2, n_rows) float64 array, takes
    the distances in out[0] and a scratch term in out[1], so a caller that
    compares many rows allocates them once.
    """
    if len(row) != len(table.schema.columns):
        raise SchemaError("row length does not match the table schema")
    if out is None:
        out = np.empty((2, table.n_rows), dtype=np.float64)
    total, term = out
    total.fill(0.0)
    for col, cell in zip(table.schema.columns, row):
        arr = table.column_array(col.name)
        if col.kind == NUMERIC:
            lo, hi = ranges[col.name]
            if hi != lo:
                np.subtract(arr, float(cell), out=term)
                np.abs(term, out=term)
                np.divide(term, hi - lo, out=term)
                total += np.minimum(term, 1.0, out=term)
        else:
            vocab = table.schema.column(col.name).categories
            try:
                pos = vocab.index(cell)
            except ValueError:
                pos = -1
            total += arr != pos
    total /= len(table.schema.columns)
    return total


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
