"""Shared numeric representation for mixed-type tables.

The encoding model is fitted on the synthetic table alone and applied to every
table in the audit, so nothing about the real data can leak into the
representation. Numeric columns are rescaled (min-max by default, population
z-score optional) and categorical columns become one-hot blocks over the
fitted vocabulary; a category outside that vocabulary encodes as an all-zero
block. Layout: scaled numerics first in schema order, then one-hot blocks in
schema order. Values outside the fitted numeric range extrapolate linearly.
This is the Euclidean metric's representation; the Gower metric compares raw
rows, in metrics, with only the fitted numeric ranges taken from the model.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Callable, Iterator
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
# encode_chunks encodes at most this many bytes at a time. It serves the
# real blocks that metrics._euclidean_minima compares in full, on the tiles
# of kernels.cross_min_distances, where each chunk starts the pruning bound
# afresh; the windows encode only the rows of their exact pairs. On the
# tiles, on a 200k x 9 real table, 8 MiB chunks took as much CPU as one whole
# matrix, 512 KiB chunks 12 % more.
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
    width = _width(model.schema)
    need = 8 * table.n_rows * width
    if need > MAX_ENCODED_BYTES:
        widest = max(model.schema.categorical_columns(), key=lambda col: len(col.categories),
                     default=None)
        blame = "" if widest is None else (
            f"; column {widest.name!r} has {len(widest.categories)} categories"
        )
        raise ConfigError(
            f"encoding {table.n_rows} rows x {width} dimensions needs {need} bytes, "
            f"over the bound of {MAX_ENCODED_BYTES}{blame}"
        )
    return EncodedMatrix(_project(model, parts_of(model)(table)[:]), model.model_hash())


@dataclass(eq=False)
class Parts:
    """A table's encoding before its layout: its numeric columns scaled, and
    per categorical column the table's codes and, per code, the position of
    its category in the model vocabulary or -1 outside it. parts[rows] lays
    out the given rows, a slice or an index array, as encode does before
    any projection, byte for byte: the scaling is elementwise and a row's
    one-hot entries are its own."""

    numeric: list[np.ndarray]
    codes: list[np.ndarray]
    positions: list[np.ndarray]
    sizes: tuple[int, ...]

    def __len__(self) -> int:
        return len((self.numeric + self.codes)[0])

    def __getitem__(self, rows) -> np.ndarray:
        n = len(range(len(self))[rows]) if isinstance(rows, slice) else len(rows)
        base = np.zeros((n, len(self.numeric) + sum(self.sizes)), dtype=np.float64)
        for j, col in enumerate(self.numeric):
            base[:, j] = col[rows]
        offset = len(self.numeric)
        for code, pos, size in zip(self.codes, self.positions, self.sizes):
            at = pos[code[rows]]
            hit = np.flatnonzero(at >= 0)
            base[hit, offset + at[hit]] = 1.0
            offset += size
        return base


def parts_of(model: EncodingModel) -> Callable[[DataTable], Parts]:
    """The parts of a run of tables under model. Each categorical column's
    positions in the model vocabulary are worked out once; a table
    vocabulary's position map is kept while the next table carries the same
    tuple, as the blocks of tables.read_blocks that add no category do."""
    numeric = model.schema.numeric_columns()
    categorical = model.schema.categorical_columns()
    sizes = tuple(len(col.categories) for col in categorical)
    model_pos = [{cat: k for k, cat in enumerate(col.categories)} for col in categorical]
    posmaps: list[tuple[tuple[str, ...], np.ndarray] | None] = [None] * len(categorical)

    def parts(table: DataTable) -> Parts:
        _check_compatible(model, table)
        scaled = []
        for col in numeric:
            arr = table.column_array(col.name)
            s = model.stats[col.name]
            if model.mode == MINMAX:
                denom = s.hi - s.lo
                scaled.append((arr - s.lo) / (denom if denom != 0.0 else 1.0))
            else:
                denom = s.std
                scaled.append((arr - s.mean) / (denom if denom != 0.0 else 1.0))
        for c, col in enumerate(categorical):
            table_vocab = table.schema.column(col.name).categories
            if posmaps[c] is None or posmaps[c][0] is not table_vocab:
                pos = [model_pos[c].get(cat, -1) for cat in table_vocab]
                posmaps[c] = table_vocab, np.array(pos, dtype=np.int64)
        return Parts(scaled, [table.column_array(col.name) for col in categorical],
                     [posmap[1] for posmap in posmaps], sizes)

    return parts


def read_layout(model: EncodingModel,
                vectors: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]] | None:
    """What Parts lays out as vectors, rows in model's layout before any
    projection: their numeric columns and, per categorical column, each
    row's position of the 1.0 in its one-hot block, or -1 where the block is
    all zero. None under a PCA, or when a block is neither."""
    if model.pca is not None:
        return None
    p = len(model.schema.numeric_columns())
    positions, offset = [], p
    for col in model.schema.categorical_columns():
        block = vectors[:, offset : offset + len(col.categories)]
        pos = np.where((block == 1.0).any(axis=1), block.argmax(axis=1), -1)
        if not (block == (np.arange(len(col.categories)) == pos[:, None])).all():
            return None
        positions.append(pos)
        offset += len(col.categories)
    return list(vectors[:, :p].T), positions


def _project(model: EncodingModel, base: np.ndarray) -> np.ndarray:
    """Rows laid out by Parts, projected when the model has a PCA."""
    if model.pca is None:
        return base
    # einsum sums each row's products in one order whatever the row count,
    # where a BLAS matmul's order may depend on the batch shape
    return np.einsum("ij,kj->ik", base - model.pca.mean, model.pca.components)


def encode_chunks(model: EncodingModel, parts: Parts) -> Iterator[np.ndarray]:
    """The encoding of parts' rows in row order, in chunks of rows whose
    matrix before any projection takes at most CHUNK_BYTES (or one row), so
    a wide one-hot never allocates rows x width at once."""
    step = max(1, CHUNK_BYTES // (8 * _width(model.schema)))
    for start in range(0, len(parts), step):
        yield _project(model, parts[start : start + step])


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
