"""CSV-backed tables with a typed, ordered schema.

The loader reads an RFC-4180 style format: comma delimiter, double-quote
quoting, UTF-8, one mandatory header row. Column kinds are inferred unless a
schema hint pins them: a column is numeric when every non-empty cell parses as
a finite decimal, otherwise it is categorical and its vocabulary is the
distinct cell values in first-appearance order. A missing cell in a numeric
column is a load error; the empty string is a legitimate category. The loader
never imputes, drops, or deduplicates rows.

Each column is read in one pass: its cells are parsed as decimals, none
twice, up to the first non-empty cell that is not one. That pass settles an
inferred kind, checks a hinted one, and holds a numeric column's values.
"""

from __future__ import annotations

import csv
import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import LoadError, SchemaError

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class ColumnSpec:
    """One column: name, kind, and (for categoricals) an ordered vocabulary."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"unknown column kind {self.kind!r} for column {self.name!r}")
        if self.kind == NUMERIC and self.categories:
            raise SchemaError(f"numeric column {self.name!r} cannot carry a vocabulary")


@dataclass(frozen=True)
class TableSchema:
    columns: tuple[ColumnSpec, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("schema has no columns")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column(self, name: str) -> ColumnSpec:
        for c in self.columns:
            if c.name == name:
                return c
        raise SchemaError(f"no column named {name!r}")

    def numeric_columns(self) -> tuple[ColumnSpec, ...]:
        return tuple(c for c in self.columns if c.kind == NUMERIC)

    def categorical_columns(self) -> tuple[ColumnSpec, ...]:
        return tuple(c for c in self.columns if c.kind == CATEGORICAL)


@dataclass(eq=False)
class DataTable:
    """In-memory table. Numeric columns are float64 arrays, categorical columns
    are int32 indices into the column vocabulary. Row ids are the stable
    0-based row positions and never change after load.
    """

    schema: TableSchema
    columns: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.schema.columns):
            raise SchemaError("column arrays do not match the schema")
        lengths = {len(c) for c in self.columns}
        if len(lengths) > 1:
            raise SchemaError("column arrays have unequal lengths")

    @property
    def n_rows(self) -> int:
        return int(len(self.columns[0]))

    def column_array(self, name: str) -> np.ndarray:
        for spec, arr in zip(self.schema.columns, self.columns):
            if spec.name == name:
                return arr
        raise SchemaError(f"no column named {name!r}")

    def row(self, row_id: int) -> tuple:
        """Decode one row to raw cell values (floats and category strings)."""
        cells = []
        for spec, arr in zip(self.schema.columns, self.columns):
            if spec.kind == NUMERIC:
                cells.append(float(arr[row_id]))
            else:
                cells.append(spec.categories[int(arr[row_id])])
        return tuple(cells)


def _parse_decimal(cell: str) -> float | None:
    """Return the finite float value of a cell, or None when it has none."""
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _parse_column(cells: Iterable[str]) -> tuple[array, int | None, int | None]:
    """Parse cells as decimals, each once, up to the first text cell: the
    first non-empty cell that is not a finite decimal.

    Returns the values parsed before it, the index of the first empty cell
    before it and its own index; either index is None when there is none.
    """
    values = array("d")
    empty = None
    for i, cell in enumerate(cells):
        value = _parse_decimal(cell)
        if value is not None:
            values.append(value)
        elif cell:
            return values, empty, i
        elif empty is None:
            empty = i
    return values, empty, None


def load_csv(path: str | Path, schema_hint: TableSchema | None = None) -> DataTable:
    """Load a CSV file into a DataTable.

    With a schema hint the header must match the hinted column names exactly
    and the hinted kinds are enforced: a numeric column fails at its first cell
    that is not a finite decimal, and a categorical column whose non-empty
    cells are all decimals is a SchemaError, as inference would make it
    numeric. Categorical vocabularies start from the hint and extend by first
    appearance, so a write/reload round trip under the same schema is
    index-stable. Without a hint, kinds are inferred from the cells. Error rows
    are reported 1-based over data rows (header excluded).
    """
    p = Path(path)
    if not p.is_file():
        raise LoadError(f"no such file: {p}")
    with open(p, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LoadError(f"{p.name}: missing header row") from None
        rows = list(reader)

    n_cols = len(header)
    if n_cols == 0:
        raise LoadError(f"{p.name}: header row has no columns")
    for i, r in enumerate(rows, start=1):
        if len(r) != n_cols:
            raise LoadError(f"{p.name}: row {i} has {len(r)} fields, expected {n_cols}")
    if not rows:
        raise LoadError(f"{p.name}: no data rows")
    if schema_hint is not None and tuple(header) != schema_hint.names:
        raise LoadError(
            f"{p.name}: header {header!r} does not match expected columns "
            f"{list(schema_hint.names)!r}"
        )

    arrays: list[np.ndarray] = []
    specs: list[ColumnSpec] = []
    for j, name in enumerate(header):
        cell = itemgetter(j)
        values, empty, text = _parse_column(map(cell, rows))
        if schema_hint is not None:
            spec = schema_hint.columns[j]
        else:
            spec = ColumnSpec(name, NUMERIC if text is None else CATEGORICAL)
        if spec.kind == NUMERIC:
            bad = text if empty is None else empty
            if bad is not None:
                raise LoadError(
                    f"{p.name}: row {bad + 1}, column {name!r}: "
                    f"cell {rows[bad][j]!r} is not a finite decimal"
                )
            arrays.append(np.frombuffer(values, dtype=np.float64))
            specs.append(spec)
        else:
            if text is None:
                raise SchemaError(
                    f"{p.name}: column {name!r} is categorical in the expected schema "
                    f"but holds only decimals"
                )
            seen = dict.fromkeys(chain(spec.categories, map(cell, rows)))
            vocab = {v: k for k, v in enumerate(seen)}
            arrays.append(np.fromiter(map(vocab.__getitem__, map(cell, rows)), np.int32, len(rows)))
            specs.append(ColumnSpec(name, CATEGORICAL, tuple(vocab)))

    return DataTable(TableSchema(tuple(specs)), tuple(arrays))


def write_csv(table: DataTable, path: str | Path) -> None:
    """Write a table back to CSV. Numeric cells use repr(float), the shortest
    form that reloads to the identical value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.names)
        for i in range(table.n_rows):
            writer.writerow(
                repr(v) if isinstance(v, float) else v for v in table.row(i)
            )
