"""CSV-backed tables with a typed, ordered schema.

The loader reads an RFC-4180 style format: comma delimiter, double-quote
quoting, UTF-8, one mandatory header row. Column kinds are inferred unless a
schema hint pins them: a column is numeric when every non-empty cell parses as
a finite decimal, otherwise it is categorical and its vocabulary is the
distinct cell values in first-appearance order. A missing cell in a numeric
column is a load error; the empty string is a legitimate category. The loader
never imputes, drops, or deduplicates rows.

The file is read in blocks of lines, about BLOCK_BYTES characters each
(readlines' size hint). A block in the plain form, with no quote, NUL or bare
CR, one line ending throughout (LF or CRLF), n_cols - 1 commas on every line,
no line longer than csv's field limit and, in a one-column table, no blank
line, is cut into cells with one str.split. The first block that is not
plain, and every line after it, goes through csv.reader, so quoting, ragged
rows and their errors are csv.reader's. Error rows count over the whole file
either way.

Each column keeps its state from block to block: its cells are parsed as
decimals, none twice, up to the first non-empty cell that is not one. That
pass settles an inferred kind and checks a hinted one. A categorical column
codes its cells block by block. After each block the reader hands over the
block's new values and codes and drops them: load_csv joins them into one
table, and read_blocks yields them as one table per block, so that a real
table is streamed in memory bounded per block, with the errors and row
numbers load_csv gives.
"""

from __future__ import annotations

import csv
from array import array
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, filterfalse, repeat
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import LoadError, SchemaError

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# The reader reads lines in blocks of about this many characters.
BLOCK_BYTES = 1 << 20
# Rows that write_csv and clustering.write_labels_csv format at a time.
WRITE_ROWS = 1 << 14


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


# float() of one cell, which raises ValueError on a cell that is no number.
# A module attribute, so that tests can count the cells parsed.
_parse_decimal = float


def _first_non_finite(values: array, start: int) -> int | None:
    """Offset from start of the first value in values[start:] that is not
    finite, or None when there is none."""
    if len(values) == start:
        return None
    finite = np.isfinite(np.frombuffer(values[start:], dtype=np.float64))
    return None if finite.all() else int(finite.argmin())


class _Column:
    """One column's parse state, carried from block to block.

    Until its first text cell, the first non-empty cell that is not a finite
    decimal, the cells are parsed as decimals, each once, and the first empty
    cell is noted. An inferred column keeps its cells meanwhile, in case a
    text cell makes it categorical. A categorical column codes each cell by a
    vocabulary that starts from the hint and grows by first appearance. take
    hands over and drops what the cells fed since the last take have added.
    """

    def __init__(self, hint: ColumnSpec | None) -> None:
        self.hint = hint
        self.rows = 0
        self.values = array("d")
        self.empty: int | None = None
        self.text: int | None = None
        self.text_cell = ""
        self.kept: list[str] | None = [] if hint is None else None
        self.vocab: dict[str, int] | None = None
        self.codes: list[np.ndarray] = []
        if hint is not None and hint.kind == CATEGORICAL:
            self.vocab = {c: k for k, c in enumerate(hint.categories)}

    def feed(self, cells: Sequence[str]) -> None:
        if self.text is None:
            self._parse(cells)
            if self.kept is not None:
                if self.text is None:
                    self.kept.extend(cells)
                else:
                    self.vocab = {}
                    self._code(self.kept)
                    self.kept = None
        if self.vocab is not None:
            self._code(cells)
        self.rows += len(cells)

    def _parse(self, cells: Sequence[str]) -> None:
        # array.extend keeps what it appended before a ValueError, and map has
        # taken the failing cell from the iterator, so parsing resumes after it.
        values = self.values
        rest = iter(cells)
        pos = 0
        while pos < len(cells):
            start = len(values)
            try:
                values.extend(map(_parse_decimal, rest))
            except ValueError:
                pass
            bad = _first_non_finite(values, start)
            if bad is not None:
                del values[start + bad:]
                pos += bad
            else:
                pos += len(values) - start
                if pos == len(cells):
                    return
                if not cells[pos]:
                    if self.empty is None:
                        self.empty = self.rows + pos
                    pos += 1
                    continue
            self.text = self.rows + pos
            self.text_cell = cells[pos]
            return

    def _code(self, cells: Sequence[str]) -> None:
        vocab = self.vocab
        # Most blocks bring no new category: grow the vocabulary on a miss.
        try:
            codes = np.fromiter(map(vocab.__getitem__, cells), np.int32, len(cells))
        except KeyError:
            fresh = list(filterfalse(vocab.__contains__, dict.fromkeys(cells)))
            vocab.update(zip(fresh, range(len(vocab), len(vocab) + len(fresh))))
            codes = np.fromiter(map(vocab.__getitem__, cells), np.int32, len(cells))
        self.codes.append(codes)

    def take(self) -> np.ndarray:
        """The float64 values parsed since the last take while the column may
        be numeric, else the int32 codes coded since then. When an inferred
        column turns categorical, its codes start again from row 0."""
        values, self.values = self.values, array("d")
        if self.vocab is None:
            return np.frombuffer(values, dtype=np.float64)
        codes, self.codes = self.codes, []
        return np.concatenate(codes)

    @property
    def failed(self) -> bool:
        """Whether a hinted numeric column has met a cell that is not a finite
        decimal."""
        return self.hint is not None and self.hint.kind == NUMERIC and (
            self.text is not None or self.empty is not None
        )

    def spec(self, file: str, name: str) -> ColumnSpec:
        """The column's spec once every row is fed, or the error its cells make."""
        if self.hint is not None:
            kind = self.hint.kind
        else:
            kind = NUMERIC if self.text is None else CATEGORICAL
        if kind == NUMERIC:
            bad = self.text if self.empty is None else self.empty
            if bad is not None:
                cell = "" if bad == self.empty else self.text_cell
                raise LoadError(
                    f"{file}: row {bad + 1}, column {name!r}: "
                    f"cell {cell!r} is not a finite decimal"
                )
            return ColumnSpec(name, NUMERIC)
        if self.text is None:
            raise SchemaError(
                f"{file}: column {name!r} is categorical in the expected schema "
                f"but holds only decimals"
            )
        return ColumnSpec(name, CATEGORICAL, tuple(self.vocab))


def _split(lines: list[str], n_cols: int) -> list[str] | None:
    """A block's cells in row order, or None when csv.reader must read it:
    when the block has a quote, a NUL or a bare CR, mixes LF and CRLF, has a
    line without exactly n_cols - 1 commas or one longer than csv's field
    limit, or is a one-column block with a blank line (csv.reader's 0-field
    row)."""
    text = "".join(lines)
    if '"' in text or "\0" in text:
        return None
    end = "\r\n" if "\r" in text else "\n"
    flat = text.replace(end, ",")
    if "\r" in flat or "\n" in flat:
        return None
    if set(map(str.count, lines, repeat(","))) != {n_cols - 1}:
        return None
    if n_cols == 1 and end in lines:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    cells = flat.split(",")
    if lines[-1].endswith(end):
        cells.pop()
    return cells


class _Reader:
    """One open CSV file, read block by block.

    The header is read and checked on construction. blocks then yields, per
    block of rows, what take hands over from each column, and specs, called
    after the last block, gives the column specs or raises the error the file
    makes. A field-count or csv error raises at once, in blocks; the errors of
    the header and of the cells wait for specs, so that one of the former
    anywhere in the file takes precedence.
    """

    def __init__(self, file: str, fh: TextIO, schema_hint: TableSchema | None) -> None:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise LoadError(f"{file}: missing header row") from None
        except csv.Error as e:
            raise LoadError(f"{file}: header row: {e}") from None
        if not header:
            raise LoadError(f"{file}: header row has no columns")
        if len(set(header)) < len(header):
            twice = next(name for j, name in enumerate(header) if name in header[:j])
            raise LoadError(f"{file}: header names column {twice!r} twice")
        self.file = file
        self.fh = fh
        self.header = header
        self.hint = schema_hint
        self.mismatch = schema_hint is not None and tuple(header) != schema_hint.names
        # Under a header that fails the hint, the rows are only counted, for
        # the field-count errors that take precedence over the header's.
        hints = [None] * len(header) if schema_hint is None else schema_hint.columns
        self.columns = [] if self.mismatch else [_Column(hint) for hint in hints]
        self.rows = 0

    @property
    def failed(self) -> bool:
        """Whether specs is bound to raise, whatever the rows still to come."""
        return self.mismatch or any(column.failed for column in self.columns)

    def blocks(self) -> Iterator[list[np.ndarray]]:
        n_cols = len(self.header)
        while lines := self.fh.readlines(BLOCK_BYTES):
            cells = _split(lines, n_cols)
            if cells is None:
                # From here on csv.reader reads everything: a quoted field may
                # hold a line break that readlines split across blocks.
                yield from self._csv_blocks(chain(lines, self.fh), len(lines))
                return
            for j, column in enumerate(self.columns):
                column.feed(cells[j::n_cols])
            self.rows += len(lines)
            # the block's cells go before the next block is read
            del lines, cells
            yield [column.take() for column in self.columns]

    def _csv_blocks(self, lines: Iterable[str], size: int) -> Iterator[list[np.ndarray]]:
        """The rest of the file read by csv.reader, size rows a block."""
        n_cols = len(self.header)
        block: list[list[str]] = []
        try:
            for r in csv.reader(lines):
                if len(r) != n_cols:
                    raise LoadError(f"{self.file}: row {self.rows + len(block) + 1} has "
                                    f"{len(r)} fields, expected {n_cols}")
                block.append(r)
                if len(block) == size:
                    taken = self._feed(block)
                    block = []
                    yield taken
        except csv.Error as e:
            raise LoadError(f"{self.file}: row {self.rows + len(block) + 1}: {e}") from None
        if block:
            yield self._feed(block)

    def _feed(self, block: list[list[str]]) -> list[np.ndarray]:
        for column, cells in zip(self.columns, zip(*block)):
            column.feed(cells)
        self.rows += len(block)
        return [column.take() for column in self.columns]

    def specs(self) -> tuple[ColumnSpec, ...]:
        """The column specs once every block is read, or the file's error."""
        if self.rows == 0:
            raise LoadError(f"{self.file}: no data rows")
        if self.mismatch:
            raise LoadError(
                f"{self.file}: header {self.header!r} does not match expected columns "
                f"{list(self.hint.names)!r}"
            )
        return tuple(column.spec(self.file, name)
                     for column, name in zip(self.columns, self.header))


def _undecodable_line(path: Path) -> int:
    """The 1-based number of the first line of a file that is not UTF-8."""
    with open(path, "rb") as fh:
        for k, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                break
    return k


@contextmanager
def _opened(path: str | Path) -> Iterator[tuple[str, TextIO]]:
    """The file's name and text, with a missing file and bytes that are not
    UTF-8 as LoadErrors."""
    p = Path(path)
    if not p.is_file():
        raise LoadError(f"no such file: {p}")
    try:
        with open(p, encoding="utf-8", newline="") as fh:
            yield p.name, fh
    except UnicodeDecodeError:
        raise LoadError(f"{p.name}: line {_undecodable_line(p)} is not UTF-8 text") from None


def load_csv(path: str | Path, schema_hint: TableSchema | None = None) -> DataTable:
    """Load a CSV file into a DataTable: the blocks of the reader, joined.

    The header may not name a column twice. With a schema hint it must match
    the hinted column names exactly
    and the hinted kinds are enforced: a numeric column fails at its first cell
    that is not a finite decimal, and a categorical column whose non-empty
    cells are all decimals is a SchemaError, as inference would make it
    numeric. Categorical vocabularies start from the hint and extend by first
    appearance, so a write/reload round trip under the same schema is
    index-stable. Without a hint, kinds are inferred from the cells. Error rows
    are reported 1-based over data rows (header excluded).
    """
    with _opened(path) as (file, fh):
        reader = _Reader(file, fh, schema_hint)
        blocks = list(reader.blocks())
        specs = reader.specs()
    dtypes = [np.float64 if spec.kind == NUMERIC else np.int32 for spec in specs]
    # an inferred column that turned categorical handed over values first
    return DataTable(TableSchema(specs), tuple(
        np.concatenate([block[j] for block in blocks if block[j].dtype == dtype])
        for j, dtype in enumerate(dtypes)
    ))


def read_blocks(path: str | Path, schema: TableSchema) -> Iterator[DataTable]:
    """The rows of a CSV file under a schema hint, as consecutive DataTables
    of about BLOCK_BYTES characters each, read one at a time.

    Each block's categorical columns carry the vocabulary so far: the hint's,
    then the new categories in first appearance, as load_csv would give. From
    the first block in which a cell fails the hint, or at once under a header
    that does, no block is yielded, but the file is read to its end. Every
    error is then the one load_csv(path, schema) raises, with its row number;
    an error known only at the end, such as a categorical column that holds
    only decimals, comes after the last block.
    """
    specs = schema.columns
    with _opened(path) as (file, fh):
        reader = _Reader(file, fh, schema)
        for arrays in reader.blocks():
            if reader.failed:
                continue
            # a vocabulary only grows, so its tuple is rebuilt only in a
            # block that added a category
            specs = tuple(
                spec if column.vocab is None or len(column.vocab) == len(spec.categories)
                else ColumnSpec(spec.name, CATEGORICAL, tuple(column.vocab))
                for spec, column in zip(specs, reader.columns)
            )
            yield DataTable(TableSchema(specs), tuple(arrays))
        reader.specs()


def write_csv(table: DataTable, path: str | Path) -> None:
    """Write a table back to CSV, WRITE_ROWS rows at a time. Numeric cells use
    repr(float), the shortest form that reloads to the identical value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.names)
        for start in range(0, table.n_rows, WRITE_ROWS):
            columns = []
            for spec, arr in zip(table.schema.columns, table.columns):
                cells = arr[start : start + WRITE_ROWS].tolist()
                if spec.kind == NUMERIC:
                    columns.append(map(repr, cells))
                else:
                    columns.append(map(spec.categories.__getitem__, cells))
            writer.writerows(zip(*columns))
