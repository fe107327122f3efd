"""CSV-backed tables with a typed, ordered schema, and every CSV file cmla
reads or writes.

Every CSV that cmla writes (tables, labels, medoids, curves, distance
records, heatmaps and the encode dump) goes through write_rows, in
csv.writer's default dialect, and reads back through load_csv with the values
written, floats bit for bit, unless its header names a column twice:
medoids.csv does when a synthetic column is named cluster_id, row_id or
cluster_size, and the encode dump when a feature is named row_id.

The loader reads an RFC-4180 style format: comma delimiter, double-quote
quoting, UTF-8, one mandatory header row. Column kinds are inferred unless a
schema hint pins them: a column is numeric when every non-empty cell parses as
a finite decimal, otherwise it is categorical and its vocabulary is the
distinct cell values in first-appearance order. A missing cell in a numeric
column is a load error; the empty string is a legitimate category. The loader
never imputes, drops, or deduplicates rows.

The file is read in blocks: one read of BLOCK_BYTES characters, completed
to the end of its last line. A block in the plain form, with no quote, NUL or
bare CR, one line ending throughout (LF or CRLF), n_cols - 1 commas on every
line, no line longer than csv's field limit and, in a one-column table, no
blank line, is read from its UTF-8 bytes, behind a 32-byte lead, with no
Python object per cell: a few NumPy passes find its separators as int32
offsets and check the form, and each column takes its cells as byte spans,
_BATCH at a time. The first block that is not plain, and every line after
it, goes through csv.reader, so quoting, ragged rows and their errors are
csv.reader's. Error rows count over the whole file either way. csv.reader's
cells take the same conversion and coding as a plain block's: each
column's cells, _BATCH at a time, are joined by line feeds behind the lead,
ended by one and encoded once. Where no cell holds a line feed, the line
feeds are the cell ends, found in one NumPy pass; otherwise each cell's
encoded length places it.

A cell in the grammar -?digits[.digits] (float reads "1." and ".5" alike,
and they pass too) with at most 24 bytes after its sign and at most 19
digits is converted without float. Its last 24 bytes are loaded as three
little-endian words from an unaligned uint64 view, XORed with "0" in every
byte, and the bytes before the cell and its sign are masked off. A byte b is
no digit iff ((b + 0x76) | b) & 0x80; the cell's one such byte must be a dot,
which is dropped by moving the digits before it one byte on. Two
multiply-shift steps per word give its eight digits as a number (Lemire,
Number Parsing at a Gigabyte per Second, SPE 2021), and the three words give
the integer M < 10^19 < 2^64 of all the digits, with f of them after the dot.
The exact value is x = M / 10^f, at least 10^-23 and below 10^19, so neither
subnormal nor overflowing, and it is rounded once, to float's bits:

- If M <= 2^53 and f <= 22, M and 10^f are doubles, and fl(M / 10^f), one
  correctly rounded division, is x rounded to nearest (Clinger, How to Read
  Floating Point Numbers Accurately, PLDI 1990).
- Otherwise, when long double carries at least 64 mantissa bits, which a
  probe at import checks, M and 10^f (f <= 23, 5^23 < 2^64) are exact in it
  and q = M / 10^f is x rounded to a unit u of q's last place. With
  g = q * 2^-63, at least u, the long doubles q - g and q + g round to at
  most q - u and at least q + u, so they bracket x; as rounding is
  monotonic, when both round to the same double, x does. The cell is proven
  only then: within a unit or so of a point halfway between two doubles,
  where q alone could round the wrong way, it is not.

Every non-empty cell this does not prove, the ones near halfway, in
e-notation, with a plus, a space, an underscore, other digits, nan or inf,
and every cell without the probe outside Clinger's path, is parsed by float,
one at a time, so that every value has float's bits.

A categorical cell is coded by the packed key of its bytes, inverted, found
in the column's sorted table of its vocabulary's keys: the last word itself
for a cell of at most 8 bytes, else a hash of the three words, whose match
is checked word for word. UTF-8 has no 0xFF byte, so no inverted byte is
zero, and the zeros in front of a short cell make no two cells alike, not
even cells that hold a NUL, as csv.reader's may. A category new to the
vocabulary joins it at the first cell of its key, cells of more than 24
bytes are decoded one at a time, and should two new categories share a
hash, the batch is coded one cell at a time.

Each column keeps its state from block to block: its cells are converted
to decimals, none twice, until its first text cell, the first non-empty
cell that is not one. The conversion goes a batch at a time, the file's
first _PROBE cells alone. NumPy converts a whole batch, to its end, and
float parses the cells it leaves in order, stopping at the text cell; the
values of the cells after it are dropped, and no later batch is converted.
That pass settles an inferred kind and checks a hinted one; an inferred
column keeps its cells, as byte spans, until it settles. A categorical
column codes its cells block by block. After each block the reader hands
over the block's new values and codes and drops them: load_csv joins them
into one table, and read_blocks yields them as one table per block, so
that a real table is streamed in memory bounded per block, with the errors
and row numbers load_csv gives.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import LoadError, SchemaError

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# The reader reads blocks of this many characters, completed to a line end.
BLOCK_BYTES = 1 << 20
# Rows that write_csv formats at a time.
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


def _long_double_is_wide() -> bool:
    """Whether long double carries at least 64 mantissa bits, so that it holds
    every uint64 and 10^k for k <= 27 exactly."""
    pair = np.array([2**63 + 1, 2**63], np.uint64).astype(np.longdouble)
    return np.finfo(np.longdouble).nmant >= 63 and bool(pair[0] - pair[1] == 1)


# Whether _decimals may round the cells outside Clinger's path in long double.
_LONG_DOUBLE = _long_double_is_wide()

# What the bytes of a plain block, or of csv.reader's cells packed, come
# behind, so that the three 8-byte words that end at any cell's end lie in
# them: spaces, and a line feed that stands for the line end before them.
_PAD = 32
_LEAD = " " * (_PAD - 1) + "\n"
# Bytes of a block searched for separators at a time.
_SLICE = 1 << 16
# Cells of one column that are converted or coded at a time, and at first.
_BATCH = 1 << 13
_PROBE = 1 << 6

_U64 = np.uint64
_ZEROS = _U64(0x3030303030303030)  # "0" in every byte
_TENS = _U64(0x7676767676767676)  # added to a byte, sets its top bit iff it is 10 or more
_TOPS = _U64(0x8080808080808080)
_GATHER = _U64(0x0102040810204080)  # times bytes of 0 or 1, gathers them in the top byte
_POW10 = np.array([float(10**k) for k in range(24)])  # exact up to 10^22
_POW10_LONG = np.cumprod(np.array([1] + [10] * 23, np.longdouble))  # exact given _LONG_DOUBLE
_SIGN = np.array([1.0, -1.0])
_HASH = (_U64(0xC2B2AE3D27D4EB4F), _U64(0x9E3779B97F4A7C15))


def _masks(kept: np.ndarray) -> np.ndarray:
    """The masks of the three little-endian words of a 24-byte window that
    keep the bytes each row of kept marks, one column each."""
    return np.frombuffer(np.where(kept, 0xFF, 0).astype(np.uint8).tobytes(),
                         "<u8").reshape(-1, 3).T.copy()


_BYTES = np.arange(24)
# Where each of a cell's three words ends, back from the cell's end.
_WORD_END = np.array([[24], [16], [8]])
# Column n keeps the window's last n bytes.
_KEEP = _masks(_BYTES >= 24 - np.arange(25)[:, None])
# Column d keeps the bytes before, and after, byte d; column 24 none, and all.
_BELOW = _masks(_BYTES < np.append(_BYTES, 0)[:, None])
_ABOVE = _masks(_BYTES > np.append(_BYTES, -1)[:, None])


class _Cells:
    """Cells of one column, of a plain block or packed from csv.reader's: the
    spans [starts, ends) of their bytes in data, which begins with _LEAD and
    goes on past the last cell's end."""

    __slots__ = ("data", "starts", "ends")

    def __init__(self, data: bytes, starts: np.ndarray, ends: np.ndarray) -> None:
        self.data, self.starts, self.ends = data, starts, ends

    def __len__(self) -> int:
        return len(self.ends)

    def take(self, index: np.ndarray | slice) -> _Cells:
        return _Cells(self.data, self.starts[index], self.ends[index])

    def cell(self, i: int) -> str:
        return self.data[self.starts[i]:self.ends[i]].decode()

    def raw(self) -> np.ndarray:
        return np.frombuffer(self.data, np.uint8)

    def words(self, lengths: np.ndarray, n: int, xor: np.uint64) -> np.ndarray:
        """The last n of the three little-endian 8-byte words of the 24 bytes
        that end at each cell's end, XORed with xor, and all but their last
        lengths bytes zeroed: an (n, len) uint64 array. lengths is at most 24."""
        view = np.ndarray((len(self.data) - 7,), "<u8", self.data, 0, (1,))
        words = view[self.ends - _WORD_END[3 - n:]]
        words ^= xor
        words &= np.take(_KEEP[3 - n:], lengths, axis=1)
        return words


def _decimals(cells: _Cells) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's float64 value and whether it is proven to be float's, for
    cells in the grammar -?digits[.digits] of at most 24 bytes after the sign
    and at most 19 digits; the module docstring has the proof."""
    raw = cells.raw()
    neg = raw[cells.starts] == ord("-")
    lengths = cells.ends - cells.starts - neg
    x = cells.words(np.minimum(lengths, 24), 3, _ZEROS)
    # the bytes that are no digit, as the bits of their window indices: a
    # cell in the grammar has at most one, its dot
    bits = (((x + _TENS) | x) & _TOPS) >> _U64(7)
    bits = (bits * _GATHER) >> _U64(56)
    bits = bits[0] | (bits[1] << _U64(8)) | (bits[2] << _U64(16))
    has_dot = bits != 0
    # the highest bit's index is its float's exponent; 24 stands for none
    dot = (bits.astype(np.float64).view(_U64) >> _U64(52)).astype(np.intp) - 1023
    dot[~has_dot] = 24
    proven = ((bits & (bits - _U64(1))) == 0) & (lengths <= 24) & (lengths > has_dot)
    proven &= ~has_dot | (raw[cells.ends - 24 + dot] == ord("."))
    # drop the dot: the digits before it move one byte on
    low = x & np.take(_BELOW, dot, axis=1)
    x &= np.take(_ABOVE, dot, axis=1)
    x += low << _U64(8)
    x[1:] += low[:-1] >> _U64(56)
    # each word's eight digits, most significant first, as one number
    # (Lemire, Number Parsing at a Gigabyte per Second, SPE 2021)
    x = x * _U64(10) + (x >> _U64(8))
    x = ((x & _U64(0x000000FF000000FF)) * _U64(100 + (1000000 << 32))
         + ((x >> _U64(16)) & _U64(0x000000FF000000FF)) * _U64(1 + (10000 << 32))) >> _U64(32)
    proven &= x[0] < 1000
    m = (x[0] * _U64(10**8) + x[1]) * _U64(10**8) + x[2]
    f = np.where(has_dot, 23 - dot, 0)
    values = m.astype(np.float64) / np.take(_POW10, f)
    inexact = np.flatnonzero(proven & ((m > 2**53) | (f > 22)))
    if inexact.size and _LONG_DOUBLE:
        q = m[inexact].astype(np.longdouble) / _POW10_LONG[f[inexact]]
        gap = q * np.longdouble(2.0**-63)
        below, above = (q - gap).astype(np.float64), (q + gap).astype(np.float64)
        values[inexact] = above
        proven[inexact] = below == above
    else:
        proven[inexact] = False
    values *= np.take(_SIGN, neg.view(np.uint8))
    return values, proven


def _hash(words: np.ndarray) -> np.ndarray:
    """One uint64 key per column of a (3, n) array of words: the last word
    itself where the others are zero."""
    return words[2] + words[1] * _HASH[0] + words[0] * _HASH[1]


def _find(keys: np.ndarray, table_keys: np.ndarray, table_codes: np.ndarray) -> np.ndarray:
    """The code of each key in a sorted table, or -1 where it is absent. Of
    a key that the table holds twice, two categories' hashes, it gives one
    code, which the caller's check of the words rejects where it is wrong."""
    if not len(table_keys):
        return np.full(len(keys), -1, np.int32)
    at = np.searchsorted(table_keys, keys)
    at[at == len(table_keys)] = 0
    return np.where(table_keys[at] == keys, table_codes[at], -1)


def _merge(keys: np.ndarray, codes: np.ndarray, new_keys: np.ndarray,
           new_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted keys and their codes, with new ones inserted in order."""
    order = np.argsort(new_keys, kind="stable")
    at = np.searchsorted(keys, new_keys[order], side="right")
    return np.insert(keys, at, new_keys[order]), np.insert(codes, at, new_codes[order])


class _Table:
    """A vocabulary as cells' keys: each category's three words, as
    _Cells.words gives them with every byte inverted, by code; and, for
    categories of at most 24 UTF-8 bytes, its key, sorted, with its code,
    among all such categories and among the ones of at most 8 bytes. update
    brings it up to a vocabulary that has grown."""

    def __init__(self) -> None:
        self.size = 0
        self.words = np.zeros((3, 0), _U64)
        self.keys = self.short_keys = np.zeros(0, _U64)
        self.codes = self.short_codes = np.zeros(0, np.int32)

    def update(self, vocab: dict[str, int]) -> None:
        # the words of a category that has no key are never checked, as no
        # key gives its code
        words = np.zeros((3, len(vocab) - self.size), _U64)
        fit = []
        for k, category in enumerate(islice(vocab, self.size, None)):
            # a hint may hold a lone surrogate, whose bytes no cell has
            b = category.encode("utf-8", "surrogatepass")
            if len(b) <= 24:
                words[:, k] = ~np.frombuffer(b.rjust(24, b"\xff"), "<u8")
                fit.append(k)
        codes = np.array(fit, np.int32) + self.size
        self.words = np.concatenate([self.words, words], axis=1)
        self.size = len(vocab)
        words = words[:, fit]
        self.keys, self.codes = _merge(self.keys, self.codes, _hash(words), codes)
        short = (words[0] == 0) & (words[1] == 0)
        self.short_keys, self.short_codes = _merge(self.short_keys, self.short_codes,
                                                   words[2, short], codes[short])

    def find(self, cells: _Cells, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's code, or -1 where its category has no key here, and
        its key. A batch of cells of at most 8 bytes loads one word a cell,
        its key, which matches only its own category's among the short ones;
        other batches load three, whose hash is checked word for word."""
        if lengths.max() <= 8:
            keys = cells.words(lengths, 1, ~_U64(0))[0]
            return _find(keys, self.short_keys, self.short_codes), keys
        words = cells.words(np.minimum(lengths, 24), 3, ~_U64(0))
        keys = _hash(words)
        codes = _find(keys, self.keys, self.codes)
        if self.size:
            found = np.take(self.words, codes, axis=1, mode="clip")
            codes[(lengths > 24) | (found != words).any(axis=0)] = -1
        return codes, keys


class _Column:
    """One column's parse state, carried from block to block.

    Cells come as _Cells, of a plain block or packed from csv.reader's. Until
    its first text cell, the first non-empty cell that is not a finite
    decimal, the cells are converted to decimals, none twice, and the first
    empty cell is noted. An inferred column keeps its cells meanwhile, in
    case a text cell makes it categorical. A categorical column codes each
    cell by a vocabulary that starts from the hint and grows by first
    appearance. take hands over and drops what the cells fed since the last
    take have added. decimals counts the cells converted to values, and
    one_by_one those of them that float parsed alone.
    """

    def __init__(self, hint: ColumnSpec | None) -> None:
        self.hint = hint
        self.rows = 0
        self.values = array("d")
        self.empty: int | None = None
        self.text: int | None = None
        self.text_cell = ""
        self.kept: list[_Cells] | None = [] if hint is None else None
        self.vocab: dict[str, int] | None = None
        self.table = _Table()
        self.codes: list[np.ndarray] = []
        self.decimals = self.one_by_one = 0
        if hint is not None and hint.kind == CATEGORICAL:
            self.vocab = {c: k for k, c in enumerate(hint.categories)}

    def feed(self, cells: _Cells) -> None:
        if self.rows == 0 and len(cells) > _PROBE:
            # the first cells go alone: a categorical column mostly meets its
            # first text cell among them, and then converts no more
            self.feed(cells.take(slice(_PROBE)))
            self.feed(cells.take(slice(_PROBE, None)))
            return
        if self.text is None:
            self._convert(cells)
            if self.kept is not None:
                if self.text is None:
                    self.kept.append(cells)
                else:
                    self.vocab = {}
                    self.codes = [self._code(kept) for kept in self.kept]
                    self.kept = None
        if self.vocab is not None:
            self.codes.append(self._code(cells))
        self.rows += len(cells)

    def _convert(self, cells: _Cells) -> None:
        """Converts the cells to decimals up to the first text cell:
        _decimals converts the whole batch and proves what it can, and float
        parses the others, one at a time, stopping at that cell; the values
        after it are dropped."""
        values, proven = _decimals(cells)
        lengths = cells.ends - cells.starts
        stop = len(cells)
        for i in np.flatnonzero(~proven & (lengths > 0)).tolist():
            cell = cells.cell(i)
            try:
                value = _parse_decimal(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                stop = i
                self.text = self.rows + i
                self.text_cell = cell
                break
            values[i] = value
            self.one_by_one += 1
        filled = lengths[:stop] > 0
        if self.empty is None and not filled.all():
            self.empty = self.rows + int(filled.argmin())
        self.values.frombytes(values[:stop][filled].tobytes())
        self.decimals += int(filled.sum())

    def _code(self, cells: _Cells) -> np.ndarray:
        """The cells' codes, found by their keys in the table. A category
        new to the vocabulary joins it at the first cell of its key, and a
        cell of more than 24 bytes, which has no key, is decoded; should two
        new categories share a key, the cells are coded one at a time."""
        vocab, table = self.vocab, self.table
        if table.size != len(vocab):
            table.update(vocab)
        lengths = cells.ends - cells.starts
        codes, keys = table.find(cells, lengths)
        miss = np.flatnonzero(codes < 0)
        if not miss.size:
            return codes
        size = len(vocab)
        short, long = miss[lengths[miss] <= 24], miss[lengths[miss] > 24]
        # the first cell of each key, the head of its run in a stable sort,
        # and every cell that has none, in order
        order = np.argsort(keys[short], kind="stable")
        ranked = keys[short[order]]
        heads = np.append(True, ranked[1:] != ranked[:-1])[:len(ranked)]
        first = np.sort(np.concatenate([short[order[heads]], long]))
        for i in first.tolist():
            codes[i] = vocab.setdefault(cells.cell(i), len(vocab))
        if short.size:
            table.update(vocab)
            codes[short] = table.find(cells.take(short), lengths[short])[0]
            if (codes[short] < 0).any():
                while len(vocab) > size:
                    vocab.popitem()
                self.table = _Table()
                return np.array([vocab.setdefault(cells.cell(i), len(vocab))
                                 for i in range(len(cells))], np.int32)
        return codes

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


def _plain(data: bytes, n_cols: int) -> tuple[np.ndarray, int] | None:
    """The int32 offsets of a block's separators, commas and line feeds, in
    data, its UTF-8 bytes behind _LEAD and ended by a line end, and the
    length of that line end less one. Or None when csv.reader must read the
    block: when it has a quote, a NUL or a bare CR, mixes LF and CRLF, has a
    line without exactly n_cols - 1 commas or one longer than csv's field
    limit, or is a one-column block with a blank line (csv.reader's 0-field
    row). In UTF-8 a comma or a line feed is never part of another
    character, so every n_cols-th separator, counting _LEAD's line feed as
    the 0th, must be a line feed, and no other."""
    if b'"' in data or b"\0" in data or len(data) >= 2**31:
        return None
    end = b"\r\n" if b"\r" in data else b"\n"
    if n_cols == 1 and (data.startswith(end, _PAD) or end + end in data):
        return None
    raw = np.frombuffer(data, np.uint8)
    # found a slice at a time, so that no mask or offset spans the block
    seps = []
    lfs = crs = 0
    for lo in range(0, len(raw), _SLICE):
        piece = raw[lo:lo + _SLICE]
        feed = piece == ord("\n")
        lfs += np.count_nonzero(feed)
        seps.append(np.flatnonzero(feed | (piece == ord(","))).astype(np.int32) + lo)
        if end == b"\r\n":
            crs += np.count_nonzero(piece == ord("\r"))
    seps = np.concatenate(seps)
    rows = (len(seps) - 1) // n_cols
    feeds = seps[::n_cols]
    if len(seps) != rows * n_cols + 1 or lfs != rows + 1 or (raw[feeds] != ord("\n")).any():
        return None
    # with CRLF, every line feed after _LEAD's follows a CR, and no other byte
    # is one
    if end == b"\r\n" and (crs != rows or (raw[feeds[1:] - 1] != ord("\r")).any()):
        return None
    # line lengths in bytes, at least those in characters
    limit = csv.field_size_limit()
    if len(raw) > limit and np.diff(feeds).max() > limit:
        return None
    return seps, len(end) - 1


def _packed(cells: Sequence[str]) -> _Cells:
    """csv.reader's cells of one column as _Cells: joined by line feeds
    behind _LEAD, ended by one and encoded once. Where no cell holds a line
    feed, the line feeds after _LEAD's are the cell ends; otherwise each
    cell's encoded length places it."""
    data = (_LEAD + "\n".join(cells) + "\n").encode()
    feeds = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    if len(feeds) == len(cells) + 1:
        return _Cells(data, feeds[:-1] + 1, feeds[1:])
    lengths = np.fromiter(map(len, map(str.encode, cells)), np.intp, len(cells))
    ends = np.cumsum(lengths + 1) + (_PAD - 1)
    return _Cells(data, ends - lengths, ends)


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
        while block := self.fh.read(BLOCK_BYTES):
            text = _LEAD + block
            del block
            if not text.endswith("\n"):
                text += self.fh.readline()
            end = "\r\n" if "\r" in text else "\n"
            tail = "" if text.endswith(end) else end
            text += tail
            data = text.encode("utf-8")
            del text
            plain = _plain(data, n_cols)
            if plain is None:
                # From here on csv.reader reads everything, one line at a
                # time: a quoted field may hold a line break that the read
                # split across blocks.
                text = data[_PAD:len(data) - len(tail)].decode("utf-8")
                lines = io.StringIO(text, newline="").readlines()
                yield from self._csv_blocks(chain(lines, self.fh), len(lines))
                return
            seps, cr = plain
            rows = (len(seps) - 1) // n_cols
            for j, column in enumerate(self.columns):
                # cell j of each line lies between separators j and j + 1,
                # less the CR of a CRLF line end
                before, after = seps[j::n_cols], seps[j + 1::n_cols]
                cut = cr if j == n_cols - 1 else 0
                for lo in range(0, rows, _BATCH):
                    hi = min(lo + _BATCH, rows)
                    column.feed(_Cells(data, before[lo:hi] + 1, after[lo:hi] - cut))
            self.rows += rows
            # the block goes before the next one is read
            del plain, data, seps
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
            for lo in range(0, len(cells), _BATCH):
                column.feed(_packed(cells[lo:lo + _BATCH]))
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


@dataclass
class ReadCounts:
    """What a read converted: the cells parsed as decimals, and how many of
    them float parsed one at a time."""

    decimals: int = 0
    one_by_one: int = 0


def read_blocks(path: str | Path, schema: TableSchema,
                counts: ReadCounts | None = None) -> Iterator[DataTable]:
    """The rows of a CSV file under a schema hint, as consecutive DataTables
    of about BLOCK_BYTES characters each, read one at a time.

    Each block's categorical columns carry the vocabulary so far: the hint's,
    then the new categories in first appearance, as load_csv would give. From
    the first block in which a cell fails the hint, or at once under a header
    that does, no block is yielded, but the file is read to its end. Every
    error is then the one load_csv(path, schema) raises, with its row number;
    an error known only at the end, such as a categorical column that holds
    only decimals, comes after the last block. counts, if given, gains the
    read's counts once the file is read.
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
    if counts is not None:
        counts.decimals += sum(column.decimals for column in reader.columns)
        counts.one_by_one += sum(column.one_by_one for column in reader.columns)


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows as CSV, in the dialect load_csv reads:
    csv.writer's defaults, so CRLF line ends and quotes only where a cell
    needs them. A float cell, numpy's float64 too, is written as float's
    repr, the shortest form that reloads to the identical value."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(table: DataTable, path: str | Path) -> None:
    """Write a table back to CSV by write_rows, formatting WRITE_ROWS rows at
    a time."""

    def block(start: int) -> Iterator[tuple]:
        columns = []
        for spec, arr in zip(table.schema.columns, table.columns):
            cells = arr[start : start + WRITE_ROWS].tolist()
            if spec.kind == NUMERIC:
                # repr here, in one map per column, is faster than csv.writer's
                # own float formatting, and gives the same text
                columns.append(map(repr, cells))
            else:
                columns.append(map(spec.categories.__getitem__, cells))
        return zip(*columns)

    write_rows(path, table.schema.names,
               chain.from_iterable(map(block, range(0, table.n_rows, WRITE_ROWS))))
