"""CSV loading, schema inference, and round trips."""

import csv
import json
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cmla import tables
from cmla.audit import AuditConfig, run_audit, run_scenario
from cmla.cli import main
from cmla.encoding import encode, fit_encoding
from cmla.errors import LoadError, SchemaError
from cmla.tables import (
    CATEGORICAL,
    NUMERIC,
    ColumnSpec,
    DataTable,
    TableSchema,
    load_csv,
    write_csv,
)

from conftest import mixed_table


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_kind_inference(tmp_path):
    t = load_csv(write(tmp_path, "a,b,c\n1.5,x,1e3\n-2,y,0\n"))
    kinds = {c.name: c.kind for c in t.schema.columns}
    assert kinds == {"a": NUMERIC, "b": CATEGORICAL, "c": NUMERIC}
    assert t.column_array("c")[0] == 1000.0


def test_one_non_numeric_cell_makes_a_column_categorical(tmp_path):
    t = load_csv(write(tmp_path, "a\n1\n2\noops\n"))
    assert t.schema.column("a").kind == CATEGORICAL
    assert t.schema.column("a").categories == ("1", "2", "oops")


def test_nan_and_inf_are_not_numeric(tmp_path):
    # float() accepts them but the table format does not
    t = load_csv(write(tmp_path, "a\n1.0\nnan\n"))
    assert t.schema.column("a").kind == CATEGORICAL
    t = load_csv(write(tmp_path, "a\n1.0\ninf\n"))
    assert t.schema.column("a").kind == CATEGORICAL


def test_vocabulary_order_is_first_appearance(tmp_path):
    t = load_csv(write(tmp_path, "job\nB\nA\nB\nC\n"))
    assert t.schema.column("job").categories == ("B", "A", "C")
    assert list(t.column_array("job")) == [0, 1, 0, 2]


def test_empty_string_is_a_legitimate_category(tmp_path):
    t = load_csv(write(tmp_path, "job,k\nA,1\n,2\nB,3\n"))
    assert t.schema.column("job").categories == ("A", "", "B")
    assert t.row(1) == ("", 2.0)


def test_missing_numeric_cell_is_an_error_with_1_based_row(tmp_path):
    # empty cells are skipped during inference, so age stays numeric and the
    # empty cell in data row 2 is the load failure
    with pytest.raises(LoadError, match=r"row 2, column 'age'"):
        load_csv(write(tmp_path, "age,job\n4.5,x\n,y\n"))


def test_hinted_numeric_rejects_text_cells(tmp_path):
    hint = TableSchema((ColumnSpec("age", NUMERIC),))
    with pytest.raises(LoadError, match=r"row 1, column 'age'.*'abc'"):
        load_csv(write(tmp_path, "age\nabc\n"), schema_hint=hint)


def test_ragged_row_is_rejected(tmp_path):
    with pytest.raises(LoadError, match=r"row 2 has 1 fields, expected 2"):
        load_csv(write(tmp_path, "a,b\n1,2\n3\n"))


def test_empty_file_and_header_only_are_rejected(tmp_path):
    with pytest.raises(LoadError, match="missing header row"):
        load_csv(write(tmp_path, ""))
    with pytest.raises(LoadError, match="no data rows"):
        load_csv(write(tmp_path, "a,b\n"))


def test_header_that_repeats_a_name_is_rejected_before_any_cell(tmp_path):
    # the ragged row and the text cell below are never reached
    with pytest.raises(LoadError, match=r"^dup\.csv: header names column 'a' twice$"):
        load_csv(write(tmp_path, "a,b,a\n1,2,3\n4\n", name="dup.csv"))
    hint = TableSchema((ColumnSpec("x", NUMERIC), ColumnSpec("y", NUMERIC)))
    with pytest.raises(LoadError, match=r"^t\.csv: header names column 'y' twice$"):
        load_csv(write(tmp_path, "y,x,y\nz,1,2\n"), schema_hint=hint)


def test_missing_file_is_a_load_error(tmp_path):
    with pytest.raises(LoadError, match="no such file"):
        load_csv(tmp_path / "absent.csv")


def test_hint_header_mismatch(tmp_path):
    hint = TableSchema((ColumnSpec("age", NUMERIC),))
    with pytest.raises(LoadError, match="does not match expected columns"):
        load_csv(write(tmp_path, "years\n1\n"), schema_hint=hint)


def test_hint_seeds_vocabulary_and_extends_by_appearance(tmp_path):
    hint = TableSchema((ColumnSpec("job", CATEGORICAL, ("A", "B")),))
    t = load_csv(write(tmp_path, "job\nB\nC\n"), schema_hint=hint)
    # hinted categories keep their indices even when absent from the file
    assert t.schema.column("job").categories == ("A", "B", "C")
    assert list(t.column_array("job")) == [1, 2]


def test_write_load_round_trip_is_cell_identical(tmp_path, rng):
    values = rng.standard_normal(40) * 1e3
    values[0] = 0.1 + 0.2  # classic shortest-repr stress value
    t = mixed_table(
        numeric={"x": values},
        categorical={"job": ["alpha", "beta"] * 20},
    )
    p = tmp_path / "round.csv"
    write_csv(t, p)
    back = load_csv(p)
    assert back.schema.names == t.schema.names
    for i in range(t.n_rows):
        assert back.row(i) == t.row(i)
    # a second write is byte-identical
    p2 = tmp_path / "round2.csv"
    write_csv(back, p2)
    assert p2.read_bytes() == p.read_bytes()


def test_rows_are_never_dropped_or_deduplicated(tmp_path):
    t = load_csv(write(tmp_path, "a\n1\n1\n1\n"))
    assert t.n_rows == 3


def test_real_table_loads_under_the_synthetic_schema(tmp_path):
    synth = load_csv(write(tmp_path, "x,c\n1.0,a\n2.0,b\n", "synthetic.csv"))
    real = load_csv(write(tmp_path, "x,c\n3.0,z\n4.0,b\n", "real.csv"), synth.schema)
    assert [(c.name, c.kind) for c in real.schema.columns] == [
        (c.name, c.kind) for c in synth.schema.columns
    ]
    # the synthetic categories keep their indices; a real-only one is appended
    assert real.schema.column("c").categories == ("a", "b", "z")
    assert real.row(0) == (3.0, "z")
    assert real.row(1) == (4.0, "b")


def test_hint_rejects_name_and_kind_mismatches(tmp_path):
    hint = load_csv(write(tmp_path, "x,c\n1.0,a\n", "synthetic.csv")).schema
    with pytest.raises(LoadError, match=r"header \['y', 'c'\] does not match"):
        load_csv(write(tmp_path, "y,c\n1.0,a\n"), hint)
    with pytest.raises(LoadError, match=r"row 2, column 'x': cell 'a'"):
        load_csv(write(tmp_path, "x,c\n1.0,a\na,b\n"), hint)
    with pytest.raises(SchemaError, match=r"column 'c' is categorical"):
        load_csv(write(tmp_path, "x,c\n1.0,1\n2.0,\n3.0,2.5\n"), hint)


_FIFTY = "x,c\n" + "".join(f"{i}.5,k{i % 3}\n" for i in range(50))
_HINT = TableSchema((ColumnSpec("x", NUMERIC), ColumnSpec("c", CATEGORICAL)))


def count_conversions(monkeypatch) -> tuple[list[str], list[list[str]], list[str]]:
    """From here on: the cells converted to decimals, in order, the ones the
    NumPy conversion proves and then the ones float parses one at a time;
    the cells that each NumPy conversion takes; and the cells float parses."""
    converted, batches, parsed = [], [], []
    decimals, parse = tables._decimals, tables._parse_decimal

    def converting(cells):
        values, proven = decimals(cells)
        batches.append([cells.cell(i) for i in range(len(cells))])
        converted.extend(cells.cell(i) for i in np.flatnonzero(proven))
        return values, proven

    def parsing(cell):
        converted.append(cell)
        parsed.append(cell)
        return parse(cell)

    monkeypatch.setattr(tables, "_decimals", converting)
    monkeypatch.setattr(tables, "_parse_decimal", parsing)
    return converted, batches, parsed


_EMPTY_THEN_TEXT = "c,k\n1,0\n,0\nx,0\n2,0\n"


@pytest.mark.parametrize("text, hint, converted", [
    (_FIFTY, None, ["0.5", "k0"] + [f"{i}.5" for i in range(1, 50)]),
    (_FIFTY, _HINT, ["0.5", "k0"] + [f"{i}.5" for i in range(1, 50)]),
    (_EMPTY_THEN_TEXT, None, ["1", "0", "0", "x", "0", "0"]),
    ('c,k\n"1","0"\n"","0"\n"x","0"\n"2","0"\n', None, ["1", "0", "0", "x", "0", "0"]),
], ids=["inferred", "hinted", "empty-then-text", "quoted-empty-then-text"])
def test_each_cell_is_parsed_at_most_once(tmp_path, monkeypatch, text, hint, converted):
    # at one line a block, each conversion takes one cell, so the calls show
    # them all in row order: a numeric column converts every cell once, a
    # categorical one stops at its first non-empty cell that is not a
    # decimal, and an empty cell is never converted
    calls = count_conversions(monkeypatch)[0]
    monkeypatch.setattr(tables, "BLOCK_BYTES", 1)
    load_csv(write(tmp_path, text), hint)
    assert calls == converted


_FIFTY_BATCHES = [[f"{i}.5" for i in range(50)], [f"k{i % 3}" for i in range(50)]]


@pytest.mark.parametrize("text, hint, batches, parsed", [
    (_FIFTY, None, _FIFTY_BATCHES, ["k0"]),
    (_FIFTY, _HINT, _FIFTY_BATCHES, ["k0"]),
    ("c,k\n1e5,0\n,0\nx,0\n+2,0\n", None, [["1e5", "", "x", "+2"], ["0"] * 4], ["1e5", "x"]),
], ids=["inferred", "hinted", "empty-then-text"])
def test_float_stops_at_the_first_text_cell_of_a_batch(tmp_path, monkeypatch, text, hint,
                                                       batches, parsed):
    # at the default block size each column's cells are one batch: NumPy
    # converts the whole batch once, to its end, cells after the first text
    # cell too, and float parses the cells it leaves in order, up to that
    # cell and none after it
    _, taken, calls = count_conversions(monkeypatch)
    load_csv(write(tmp_path, text), hint)
    assert taken == batches
    assert calls == parsed


def test_a_categorical_column_converts_nothing_after_the_batch_of_its_first_text_cell(
        tmp_path, monkeypatch):
    # three batches a column in one block: c turns categorical at row 0, and
    # of its decimals after that only those in its first batch, which holds
    # the first _PROBE cells of the file, are converted
    rows = 3 * tables._BATCH
    calls = count_conversions(monkeypatch)[0]
    load_csv(write(tmp_path, "x,c\n0.25,k\n" + "".join(f"{i}.25,{i}\n" for i in range(1, rows))))
    assert sorted(c for c in calls if c.endswith(".25")) == sorted(
        f"{i}.25" for i in range(rows))
    others = [c for c in calls if not c.endswith(".25")]
    assert others.count("k") == 1
    assert sorted(others) == sorted(set(others))
    assert set(others) <= {"k"} | {str(i) for i in range(1, tables._PROBE)}


BLOCK_SIZES = pytest.mark.parametrize("block_bytes", [1, 64, tables.BLOCK_BYTES])

_LONG = "".join(f"{i}.25,k{i % 4}\n" for i in range(40))
_SYNTH = "x,c\n0.5,k3\n1.5,k9\n"


def csv_reader_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


@pytest.mark.parametrize("text, categories", [
    (_LONG, {"c": ("k0", "k1", "k2", "k3")}),
    (_LONG.replace("\n", "\r\n"), {"c": ("k0", "k1", "k2", "k3")}),
    (_LONG.rstrip("\n"), {"c": ("k0", "k1", "k2", "k3")}),
    (_LONG.replace("\n", "\r"), {"c": ("k0", "k1", "k2", "k3")}),
    (_LONG[:200] + _LONG[200:].replace("\n", "\r\n"), {"c": ("k0", "k1", "k2", "k3")}),
    ('1,"k,0"\n2,"say ""hi"""\n' + _LONG, {"c": ("k,0", 'say "hi"', "k0", "k1", "k2", "k3")}),
    (_LONG + '7,"two\nlines"\n8,k1\n', {"c": ("k0", "k1", "k2", "k3", "two\nlines")}),
    ('7,"é"\n8,"two\nlines"\n' + _LONG, {"c": ("é", "two\nlines", "k0", "k1", "k2", "k3")}),
    (_LONG.replace(",k3", ",") + "9,k2\n", {"c": ("k0", "k1", "k2", "")}),
    (_LONG + "nan,k1\n", {"x": tuple(f"{i}.25" for i in range(40)) + ("nan",)}),
    (_LONG + "1e999,k1\n", {"x": tuple(f"{i}.25" for i in range(40)) + ("1e999",)}),
    (_LONG + "z,k1\n", {"x": tuple(f"{i}.25" for i in range(40)) + ("z",)}),
], ids=["lf", "crlf", "no-final-newline", "bare-cr", "lf-then-crlf", "quoted",
        "quoted-newline-across-blocks", "quoted-non-ascii-and-newline", "empty-category",
        "nan-in-last-block", "inf-in-last-block", "turns-categorical-in-last-block"])
@BLOCK_SIZES
def test_block_reader_gives_csv_readers_table(tmp_path, monkeypatch, block_bytes, text,
                                              categories):
    # the 41-line texts span many 64-character blocks and one default block
    monkeypatch.setattr(tables, "BLOCK_BYTES", block_bytes)
    p = write(tmp_path, "x,c\n" + text)
    t = load_csv(p)
    for name, vocab in categories.items():
        assert t.schema.column(name).categories == vocab
    rows = csv_reader_rows(p)
    assert t.n_rows == len(rows)
    for i, cells in enumerate(rows):
        assert t.row(i) == tuple(
            float(cell) if spec.kind == NUMERIC else cell
            for spec, cell in zip(t.schema.columns, cells)
        )


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_a_last_line_without_its_end_stays_plain(tmp_path, monkeypatch, end):
    def no_csv_reader(*args):
        raise AssertionError("csv.reader read a plain file")

    monkeypatch.setattr(tables._Reader, "_csv_blocks", no_csv_reader)
    t = load_csv(write(tmp_path, end.join(["x,c", "1.5,a", "-2,b"])))
    assert t.row(1) == (-2.0, "b")


@pytest.mark.parametrize("hinted", [False, True], ids=["inferred", "hinted"])
def test_results_do_not_depend_on_the_block_size(tmp_path, monkeypatch, rng, hinted):
    values = rng.standard_normal(300).tolist()
    jobs = rng.choice(["a", "b", "", "c d", "k3"], 300)
    p = tmp_path / "t.csv"
    p.write_text("x,c,y\n" + "".join(
        f"{v!r},{j},{i % 7}\n" for i, (v, j) in enumerate(zip(values, jobs))
    ) + "1.5,\"q,\"\"r\",2\n" + "".join(f"{v},{j},0\n" for v, j in zip(values, jobs)))
    hint = None
    if hinted:
        hint = load_csv(write(tmp_path, "x,c,y\n1,k3,2\n2,zz,3\n", "synthetic.csv")).schema
    seen = set()
    for block_bytes in (1, 64, 4096, tables.BLOCK_BYTES):
        monkeypatch.setattr(tables, "BLOCK_BYTES", block_bytes)
        t = load_csv(p, hint)
        seen.add((
            tuple((c.name, c.kind, c.categories) for c in t.schema.columns),
            tuple((a.dtype.str, a.tobytes()) for a in t.columns),
        ))
    assert len(seen) == 1


_LABELS = (
    # short ones
    ["a", "", "é", "1", *(f"k{i}" for i in range(10))]
    # 9 to 24 bytes, two pairs of which share their last 8
    + ["Married-civ-spouse", "ü-Married-civ-spouse", "Never-married", "ab-Never-married",
       *(f"Some-college-{i:02}" for i in range(10))]
    # more than 24 bytes, which no key holds
    + ["Outlying-US(Guam-USVI-etc)", "x" * 40, "y" * 25]
)


# labels with a NUL, which only csv.reader's cells hold, and labels that
# differ from them only in the NUL
_NUL_LABELS = ["\0a", "a\0", "\0", "\0abcdefgh", "abcdefgh"]


@pytest.mark.parametrize("hashing", ["hash", "last-word"])
@BLOCK_SIZES
def test_categories_are_coded_in_order_of_first_appearance(tmp_path, monkeypatch, block_bytes,
                                                          hashing):
    # hashing only the last word makes the pairs collide, and then a batch
    # is coded one cell at a time; in the quoted file every cell goes
    # through csv.reader
    monkeypatch.setattr(tables, "BLOCK_BYTES", block_bytes)
    if hashing == "last-word":
        monkeypatch.setattr(tables, "_hash", lambda words: words[2].copy())
    # a hint with categories that no cell of either file holds: too long,
    # with a NUL or with a lone surrogate
    hinted = ("z" * 30, "q\0", "\ud800", "Never-married", "k3")
    hint = TableSchema((ColumnSpec("c", CATEGORICAL, hinted), ColumnSpec("x", NUMERIC)))
    for labels, line in ((_LABELS, "{},{}\n"), (_LABELS + _NUL_LABELS, '"{}","{}"\n')):
        cells = [labels[i] for i in np.random.default_rng(3).integers(0, len(labels), 400)]
        p = write(tmp_path, "c,x\n" + "".join(line.format(c, i) for i, c in enumerate(cells)))
        for schema in (None, hint):
            vocab = list(dict.fromkeys((hinted if schema else ()) + tuple(cells)))
            t = load_csv(p, schema)
            assert t.schema.column("c").categories == tuple(vocab)
            assert t.column_array("c").tolist() == [vocab.index(c) for c in cells]


@pytest.mark.parametrize("text, hint, error, match", [
    ("x,c\n" + _LONG + "\n1,k1\n", None, LoadError, r"row 41 has 0 fields, expected 2"),
    ("x\n" + "".join(f"{i}\n" for i in range(40)) + "\n1\n", None, LoadError,
     r"row 41 has 0 fields, expected 1"),
    ("x,c\n" + _LONG + "nan,k1\n", _SYNTH, LoadError, r"row 41, column 'x': cell 'nan' is not"),
    ("x,c\n" + _LONG + "-inf,k1\n", _SYNTH, LoadError, r"row 41, column 'x': cell '-inf' is not"),
    ("x,c\n" + _LONG + ",k1\n3,k1\n", None, LoadError, r"row 41, column 'x': cell '' is not"),
    ('x,c\n1,"k0"\n' + _LONG + "z,k1\n", _SYNTH, LoadError,
     r"row 42, column 'x': cell 'z' is not"),
    ('x,c\n1,"k0"\n' + _LONG + "1,k1,extra\n", None, LoadError,
     r"row 42 has 3 fields, expected 2"),
    ("x,c\n" + _LONG.replace(",k", ",1") + "1,\n", _SYNTH, SchemaError,
     r"column 'c' is categorical in the expected schema but holds only decimals"),
], ids=["blank-line", "blank-line-one-column", "nan-hinted", "inf-hinted",
        "empty-cell-inferred", "text-after-fallback", "ragged-after-fallback",
        "hinted-categorical-only-decimals"])
@BLOCK_SIZES
def test_block_reader_gives_csv_readers_error(tmp_path, monkeypatch, block_bytes, text, hint,
                                              error, match):
    monkeypatch.setattr(tables, "BLOCK_BYTES", block_bytes)
    if hint is not None:
        hint = load_csv(write(tmp_path, hint, "synthetic.csv")).schema
    with pytest.raises(error, match=match):
        load_csv(write(tmp_path, text), hint)


def test_bad_cell_deep_in_a_large_hinted_file_is_reported_at_its_row(tmp_path):
    rows = [f"{i % 97}.5,{'ab'[i % 2]}\n" for i in range(200_000)]
    rows[149_999] = "n/a,a\n"
    p = tmp_path / "real.csv"
    p.write_text("x,c\n" + "".join(rows))
    hint = load_csv(write(tmp_path, "x,c\n1.0,a\n2.0,b\n", "synthetic.csv")).schema
    with pytest.raises(LoadError, match=r"real.csv: row 150000, column 'x': cell 'n/a'"):
        load_csv(p, hint)


@st.composite
def long_mantissas(draw) -> str:
    """17 to 20 digits, with a sign and a point anywhere, or none."""
    digits = draw(st.text("0123456789", min_size=17, max_size=20))
    point = draw(st.integers(0, len(digits)))
    sign = draw(st.sampled_from(["", "-"]))
    return sign + (digits if point == len(digits) else f"{digits[:point]}.{digits[point:]}")


@st.composite
def near_halfway(draw) -> str:
    """The exact decimal of the midpoint between a double and the next, cut
    after 16 to 21 digits and moved by -1, 0 or +1 in its last one. Cut
    after 19, it lies within a long double's unit of the midpoint about one
    time in ten, where rounding in long double alone can go wrong."""
    x = draw(st.floats(min_value=1e-3, max_value=1e6))
    with localcontext() as ctx:
        ctx.prec = 1200
        mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
        cut = Decimal(1).scaleb(mid.adjusted() + 1 - draw(st.integers(16, 21)))
        cut = mid.quantize(cut, rounding="ROUND_DOWN") + draw(st.integers(-1, 1)) * cut
        return format(cut, "f")


DECIMAL_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0.0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308",
                     "1e300", "-1e-300", "1.7976931348623157e+308", "9007199254740991",
                     "9007199254740992", "9007199254740993", "-9007199254740993.0",
                     "18446744073709551615", "0.000000000000000000001"]),
    long_mantissas(),
    near_halfway(),
    # float accepts these, off the plain grammar
    st.sampled_from(["1.", ".5", "+1", " 1", "1_0", "1e5", "١٢", "-.5", "1.5E-3", "1 "]),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cells=st.lists(DECIMAL_CELLS, min_size=1, max_size=40))
def test_decimals_have_the_bits_of_float(tmp_path_factory, cells):
    # the quoted copy goes through csv.reader
    plain = tmp_path_factory.getbasetemp() / "decimals.csv"
    plain.write_text("x,c\n" + "".join(f"{cell},k\n" for cell in cells), encoding="utf-8")
    quoted = tmp_path_factory.getbasetemp() / "quoted-decimals.csv"
    quoted.write_text("x,c\n" + "".join(f'"{cell}","k"\n' for cell in cells), encoding="utf-8")
    expected = bits([float(cell) for cell in cells])
    hint = TableSchema((ColumnSpec("x", NUMERIC), ColumnSpec("c", CATEGORICAL, ("k",))))
    with pytest.MonkeyPatch.context() as mp:
        # with and without long double, when this platform's has 64 bits
        for wide in {tables._LONG_DOUBLE, False}:
            mp.setattr(tables, "_LONG_DOUBLE", wide)
            for block_bytes in (1, 64, tables.BLOCK_BYTES):
                mp.setattr(tables, "BLOCK_BYTES", block_bytes)
                for path in (plain, quoted):
                    assert bits(load_csv(path).column_array("x")) == expected
                    assert bits(load_csv(path, hint).column_array("x")) == expected
                    assert bits(np.concatenate([block.column_array("x") for block in
                                                tables.read_blocks(path, hint)])) == expected


def test_hard_decimals_have_the_bits_of_float(tmp_path, monkeypatch):
    # midpoints between doubles cut after 17 to 19 digits, of which about one
    # in forty a long double alone rounds wrong, and mantissas up to 2^53
    # with 17 to 23 decimals, past the 10^22 of Clinger's path
    rng = np.random.default_rng(7)
    cells = []
    with localcontext() as ctx:
        ctx.prec = 1200
        for x, digits, step in zip(rng.uniform(1e-3, 1e3, 4000), rng.integers(17, 20, 4000),
                                   rng.integers(-1, 2, 4000)):
            mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
            cut = Decimal(1).scaleb(mid.adjusted() + 1 - int(digits))
            cells.append(format(mid.quantize(cut, rounding="ROUND_DOWN") + int(step) * cut, "f"))
    for m, f in zip(rng.integers(1, 2**53, 2000), rng.integers(17, 24, 2000)):
        digits = str(m).rjust(int(f), "0")
        cells.append(f"{digits[:-f]}.{digits[-f:]}")  # ".0...0m" where m is short
    p = write(tmp_path, "x\n" + "\n".join(cells) + "\n")
    expected = bits([float(cell) for cell in cells])
    for wide in {tables._LONG_DOUBLE, False}:
        monkeypatch.setattr(tables, "_LONG_DOUBLE", wide)
        assert bits(load_csv(p).column_array("x")) == expected


@pytest.mark.parametrize("wide", [True, False], ids=["long-double", "float-only"])
@pytest.mark.parametrize("cell", ["nan", "-inf", "Infinity", "1e999"])
def test_a_cell_that_float_makes_no_finite_number_is_text(tmp_path, monkeypatch, cell, wide):
    monkeypatch.setattr(tables, "_LONG_DOUBLE", wide and tables._LONG_DOUBLE)
    p = write(tmp_path, f"x\n1.5\n{cell}\n2.5\n")
    assert load_csv(p).schema.column("x").categories == ("1.5", cell, "2.5")
    with pytest.raises(LoadError, match=rf"row 2, column 'x': cell '{cell}' is not a finite"):
        load_csv(p, TableSchema((ColumnSpec("x", NUMERIC),)))


def test_reader_memory_is_bounded_per_block(tmp_path, monkeypatch):
    # rows shaped like the benchmark's real table, 64 KiB blocks
    monkeypatch.setattr(tables, "BLOCK_BYTES", 1 << 16)
    values = np.random.default_rng(0).standard_normal(45_000).tolist()
    lines = [f"{v!r},{'ab'[i % 2]},{'ab'[i % 3 % 2]},a,b\r\n" for i, v in enumerate(values)]
    hint = TableSchema((ColumnSpec("x", NUMERIC),
                        *(ColumnSpec(name, CATEGORICAL, ("a", "b")) for name in "abcd")))

    def peak(name, text):
        path = write(tmp_path, "x,a,b,c,d\r\n" + text, name)
        tracemalloc.start()
        try:
            blocks = sum(1 for _ in tables.read_blocks(path, hint))
            return tracemalloc.get_traced_memory()[1], blocks
        finally:
            tracemalloc.stop()

    two, n_two = peak("two.csv", "".join(lines[:4_500]))
    twenty, n_twenty = peak("twenty.csv", "".join(lines))
    # a quote sends every line to csv.reader, in blocks of as many lines
    quoted, _ = peak("quoted.csv", '"0.5",a,b,a,b\r\n' + "".join(lines))
    assert (n_two, n_twenty) == (2, 20)
    assert twenty <= 1.1 * two
    assert twenty <= quoted


@pytest.mark.parametrize("text, match", [
    (b"x,c\n1,a\n2,\xe9t\xe9\n", r"t.csv: line 3 is not UTF-8 text"),
    (b'x,c\n1,"a"\n' + b"2,b\n" * 3000 + b"3,\xff\n", r"t.csv: line 3003 is not UTF-8 text"),
], ids=["block", "csv-reader"])
def test_file_that_is_not_utf8_is_a_load_error(tmp_path, monkeypatch, text, match):
    # at 64 characters a block, the quoted file reaches its bad bytes inside
    # csv.reader, well after the decoder's first chunk
    monkeypatch.setattr(tables, "BLOCK_BYTES", 64)
    p = tmp_path / "t.csv"
    p.write_bytes(text)
    with pytest.raises(LoadError, match=match):
        load_csv(p)


@pytest.mark.parametrize("cell", ["x" * 131_073, '"' + "x" * 131_073 + '"'],
                         ids=["plain", "quoted"])
def test_field_over_csvs_limit_is_a_load_error(tmp_path, cell):
    with pytest.raises(LoadError, match=r"row 2: field larger than field limit \(131072\)"):
        load_csv(write(tmp_path, f"x,c\n1,a\n2,{cell}\n3,b\n"))
    with pytest.raises(LoadError, match=r"header row: field larger than field limit"):
        load_csv(write(tmp_path, f"x,{cell}\n1,a\n"))


def test_schema_validation():
    with pytest.raises(SchemaError):
        TableSchema(())
    with pytest.raises(SchemaError, match="duplicate column names"):
        TableSchema((ColumnSpec("a", NUMERIC), ColumnSpec("a", NUMERIC)))
    with pytest.raises(SchemaError):
        ColumnSpec("a", "interval")
    with pytest.raises(SchemaError, match="cannot carry a vocabulary"):
        ColumnSpec("a", NUMERIC, ("x",))


def test_table_row_decoding():
    t = mixed_table(numeric={"x": [1.5, 2.5]}, categorical={"c": ["u", "v"]})
    assert t.row(0) == (1.5, "u")
    assert t.row(1) == (2.5, "v")
    with pytest.raises(SchemaError, match="no column named"):
        t.column_array("nope")


def test_table_shape_validation():
    schema = TableSchema((ColumnSpec("a", NUMERIC), ColumnSpec("b", NUMERIC)))
    with pytest.raises(SchemaError, match="unequal lengths"):
        DataTable(schema, (np.zeros(2), np.zeros(3)))
    with pytest.raises(SchemaError, match="do not match the schema"):
        DataTable(schema, (np.zeros(2),))


def read_back(path) -> dict:
    """Each column of a CSV as load_csv reads it: numeric columns as float64
    arrays, categorical ones as lists of cells."""
    t = load_csv(path)
    return {
        spec.name: arr if spec.kind == NUMERIC else [spec.categories[c] for c in arr]
        for spec, arr in zip(t.schema.columns, t.columns)
    }


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def test_every_csv_cmla_writes_reads_back_with_the_values_written(tmp_path, rng):
    def cloud(n):
        x = np.concatenate([rng.normal(0.0, 0.01, n // 2), rng.normal(1.0, 0.01, n // 2)])
        return {"x": x, "y": x + rng.normal(0.0, 0.01, n)}

    synth_values = cloud(60)
    synth_values["x"][:3] = (-0.0, 5e-324, 0.1 + 0.2)
    tags = [("a", "b,c", 'q"z')[i % 3] for i in range(60)]
    table = mixed_table(numeric=synth_values, categorical={"tag": tags})
    synth, real = tmp_path / "synthetic.csv", tmp_path / "real.csv"
    write_csv(table, synth)
    write_csv(mixed_table(numeric=cloud(20), categorical={"tag": tags[:20]}), real)
    cols = read_back(synth)
    assert bits(cols["x"]) == bits(synth_values["x"])
    assert bits(cols["y"]) == bits(synth_values["y"])
    assert cols["tag"] == tags

    out = tmp_path / "out"
    result = run_audit(AuditConfig(synthetic=str(synth), real=str(real), out=str(out),
                                   eps=0.1, min_samples=3, records=True))
    rpt, medoids = result.report, result.medoids
    assert len(medoids) >= 2 and rpt.records is not None

    cols = read_back(out / "labels.csv")
    assert bits(cols["row_id"]) == bits(range(60))
    assert bits(cols["label"]) == bits(result.labeling.labels)

    cols = read_back(out / "medoids.csv")
    assert bits(cols["cluster_id"]) == bits([m.cluster_id for m in medoids.medoids])
    assert bits(cols["row_id"]) == bits([m.row_id for m in medoids.medoids])
    assert bits(cols["cluster_size"]) == bits(medoids.cluster_sizes)
    assert bits(cols["x"]) == bits([m.raw[0] for m in medoids.medoids])
    assert bits(cols["y"]) == bits([m.raw[1] for m in medoids.medoids])
    assert cols["tag"] == [m.raw[2] for m in medoids.medoids]

    cols = read_back(out / "curves.csv")
    assert bits(cols["tau"]) == bits(rpt.grid.taus)
    assert bits(cols["asr"]) == bits(rpt.curves.asr)
    assert bits(cols["coverage"]) == bits(rpt.curves.coverage)

    cols = read_back(out / "dmin_records.csv")
    for name in ("cluster_id", "medoid_row_id", "d_min", "nearest_real_row_id"):
        assert bits(cols[name]) == bits([getattr(r, name) for r in rpt.records])

    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps({
        "name": "real", "seed": 3,
        "real": {"n_rows": 60, "numeric_columns": ["x"], "categorical_columns": {},
                 "components": [{"weight": 1.0, "means": [0.0], "sigma": 1.0}]},
        "generators": [{"label": "synthetic", "kind": "noised", "n_samples": 60, "sigma": 0.1},
                       {"label": "other", "kind": "independent", "n_samples": 60}],
        "audit": {"eps": 0.1, "min_samples": 3},
    }))
    reports = run_scenario(sp, tmp_path / "run").reports
    cols = read_back(tmp_path / "run" / "heatmap_tau0.1.csv")
    assert cols["generator"] == ["synthetic", "other"]
    assert bits(cols["real"]) == bits([r.curves.coverage[r.grid.index_of(0.1)]
                                       for r in reports.values()])

    assert main(["encode", "--synthetic", str(synth), "--out", str(tmp_path / "enc.csv")]) == 0
    cols = read_back(tmp_path / "enc.csv")
    model = fit_encoding(load_csv(synth))
    vectors = encode(model, load_csv(synth)).vectors
    assert list(cols) == ["row_id", *model.feature_names()]
    assert bits(cols["row_id"]) == bits(range(60))
    for j, name in enumerate(model.feature_names()):
        assert bits(cols[name]) == bits(vectors[:, j])
