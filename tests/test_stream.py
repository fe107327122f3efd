"""The real table streamed block by block through the nearest-real minima."""

import re
import subprocess
import sys

import numpy as np
import pytest

from cmla import encoding, metrics, tables
from cmla.audit import AuditConfig, run_audit
from cmla.clustering import dbscan, extract_medoids
from cmla.cli import main
from cmla.errors import LoadError, SchemaError, StageError

from conftest import child_env



def write_mixed(tmp_path, n_real=300, seed=5):
    """Synthetic: three tight blobs plus scatter over x, y and a category c;
    real: rows near the blobs and elsewhere, with a category the synthetic
    table lacks."""
    rng = np.random.default_rng(seed)
    centers = [(0.0, 0.0, "a"), (3.0, 1.0, "b"), (-2.0, 4.0, "c")]
    synth = [
        (cx + rng.normal(0, 0.02), cy + rng.normal(0, 0.02), cat)
        for cx, cy, cat in centers for _ in range(30)
    ] + [(rng.uniform(-5, 5), rng.uniform(-5, 5), "d") for _ in range(12)]
    real = []
    for i in range(n_real):
        cx, cy, cat = centers[i % 3]
        if i % 7 == 0:
            cat = "zz"
        real.append((cx + rng.normal(0, 0.3), cy + rng.normal(0, 0.3), cat))

    def dump(rows, name):
        path = tmp_path / name
        path.write_text("x,y,c\n" + "".join(f"{x!r},{y!r},{c}\n" for x, y, c in rows))
        return path

    return dump(synth, "synthetic.csv"), dump(real, "real.csv")


def audit_files(synth, real, out, **settings):
    config = AuditConfig(synthetic=str(synth), real=str(real), out=str(out), eps=0.1,
                         min_samples=3, records=True, **settings)
    result = run_audit(config)
    return result, {p.name: p.read_bytes() for p in out.iterdir()}


def set_small_blocks(monkeypatch):
    # 300 real rows of about 20 characters: at 64 characters a block, dozens
    # of blocks, each of them encoded in chunks of one or two rows
    monkeypatch.setattr(tables, "BLOCK_BYTES", 64)
    monkeypatch.setattr(encoding, "CHUNK_BYTES", 64)


@pytest.mark.parametrize("settings", [
    {}, {"metric": "gower"}, {"pca": 2}, {"scale": "zscore"},
], ids=["euclidean", "gower", "pca", "zscore"])
def test_streamed_profiles_equal_the_whole_table_bit_for_bit(tmp_path, monkeypatch, settings):
    synth, real = write_mixed(tmp_path)
    whole, whole_files = audit_files(synth, real, tmp_path / "whole", **settings)
    set_small_blocks(monkeypatch)
    assert len(list(tables.read_blocks(real, tables.load_csv(synth).schema))) > 20
    streamed, streamed_files = audit_files(synth, real, tmp_path / "streamed", **settings)
    assert streamed_files == whole_files
    assert "dmin_records.csv" in streamed_files
    assert streamed.report.meta.n_real_rows == 300
    assert len(streamed.medoids) >= 3


def test_a_block_without_a_new_category_reuses_the_vocabulary_tuple(tmp_path, monkeypatch):
    # the real table brings its category "zz" at row 0, then only categories
    # it has seen: every later block carries the very same tuple
    synth, real = write_mixed(tmp_path)
    set_small_blocks(monkeypatch)
    schema = tables.load_csv(synth).schema
    vocabs = [block.schema.column("c").categories
              for block in tables.read_blocks(real, schema)]
    assert len(vocabs) > 20
    assert vocabs[0] == (*schema.column("c").categories, "zz")
    assert all(v is vocabs[0] for v in vocabs)
    # a block that adds a category gets a new tuple, extended in order
    text = real.read_text().splitlines(keepends=True)
    real.write_text("".join(text[:200] + ["0.0,0.0,yy\n"] + text[200:]))
    vocabs = [block.schema.column("c").categories
              for block in tables.read_blocks(real, schema)]
    changed = [i for i in range(1, len(vocabs)) if vocabs[i] is not vocabs[i - 1]]
    assert len(changed) == 1 and vocabs[-1] == (*vocabs[0], "yy")


def test_encoding_chunks_hashes_the_model_once(tmp_path, monkeypatch):
    # a profile over dozens of blocks hashes the model once; the blocks'
    # chunks of one or two rows are byte for byte the rows of one whole
    # encoding
    synth, real = write_mixed(tmp_path)
    set_small_blocks(monkeypatch)
    table = tables.load_csv(synth)
    model = encoding.fit_encoding(table)
    matrix = encoding.encode(model, table)
    medoids = extract_medoids(matrix, dbscan(matrix, 0.1, 3), table)
    calls = []
    model_hash = encoding.EncodingModel.model_hash
    monkeypatch.setattr(encoding.EncodingModel, "model_hash",
                        lambda self: calls.append(1) or model_hash(self))
    grid = metrics.grid_from_spec("0:2.5:0.01", ())
    profile = metrics.proximity_profile(medoids, tables.read_blocks(real, model.schema), grid,
                                        model)
    assert profile.work.blocks > 20 and len(calls) == 1
    parts = encoding.parts_of(model)
    chunks = [chunk for block in tables.read_blocks(real, model.schema)
              for chunk in encoding.encode_chunks(model, parts(block))]
    assert len(chunks) > 100
    whole = encoding.encode(model, tables.load_csv(real, model.schema)).vectors
    assert np.vstack(chunks).tobytes() == whole.tobytes()


def test_a_row_encodes_alike_in_any_batch_also_under_pca(tmp_path):
    # a real row equal to a synthetic medoid is at distance 0, not a rounding
    # error away, because a row's projection does not depend on its batch
    synth, _ = write_mixed(tmp_path)
    table = tables.load_csv(synth)
    model = encoding.fit_encoding(table, pca=2)
    whole = encoding.encode(model, table).vectors
    rows = [encoding.encode(model, tables.DataTable(
        table.schema, tuple(c[i : i + 1] for c in table.columns))).vectors
        for i in range(table.n_rows)]
    assert np.vstack(rows).tobytes() == whole.tobytes()


@pytest.mark.parametrize("metric", ["euclidean", "gower"])
def test_a_tie_across_a_block_boundary_goes_to_the_lowest_row_id(tmp_path, monkeypatch,
                                                                 metric):
    synth = tmp_path / "synthetic.csv"
    synth.write_text("x,c\n" + "0.5,a\n" * 10 + "0.0,b\n1.0,b\n")
    rows = ["0.9,b\n"] * 300
    rows[120] = rows[260] = "0.7,a\n"
    real = tmp_path / "real.csv"
    real.write_text("x,c\n" + "".join(rows))
    set_small_blocks(monkeypatch)
    starts, n = [], 0
    for block in tables.read_blocks(real, tables.load_csv(synth).schema):
        starts.append(n)
        n += block.n_rows
    assert np.searchsorted(starts, 120, "right") < np.searchsorted(starts, 260, "right")
    result = run_audit(AuditConfig(synthetic=str(synth), real=str(real), eps=0.01,
                                   min_samples=5, metric=metric, records=True))
    (record,) = result.report.records
    assert record.nearest_real_row_id == 120
    assert record.d_min > 0.0


def _late_fault(fault):
    """A 300-row real text with a fault in its last blocks, and the error
    load_csv gives for it."""
    rows = [f"{i % 5}.0,{'ab'[i % 2]}\n" for i in range(300)]
    header = "x,c\n"
    if fault == "cell":
        rows[279] = "n/a,a\n"
        return header + "".join(rows), LoadError, "real.csv: row 280, column 'x': cell 'n/a' is not"
    if fault == "empty-cell":
        rows[250] = ",a\n"
        return header + "".join(rows), LoadError, "real.csv: row 251, column 'x': cell '' is not"
    if fault == "ragged-after-cell":
        rows[100] = "n/a,a\n"
        rows[290] = "1.0,a,extra\n"
        return header + "".join(rows), LoadError, "real.csv: row 291 has 3 fields, expected 2"
    if fault == "header":
        return ("x,z\n" + "".join(rows), LoadError,
                "real.csv: header ['x', 'z'] does not match expected columns ['x', 'c']")
    if fault == "ragged-after-header":
        rows[290] = "1.0\n"
        return "x,z\n" + "".join(rows), LoadError, "real.csv: row 291 has 1 fields, expected 2"
    if fault == "kind":
        rows = [f"{i % 5}.0,{i % 3}\n" for i in range(300)]
        return (header + "".join(rows), SchemaError, "real.csv: column 'c' is categorical in "
                "the expected schema but holds only decimals")
    raise AssertionError(fault)


FAULTS = ["cell", "empty-cell", "ragged-after-cell", "header", "ragged-after-header", "kind",
          "not-utf8"]


@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_in_a_late_block_keeps_its_message_row_and_stage(tmp_path, monkeypatch, fault):
    synth = tmp_path / "synthetic.csv"
    synth.write_text("x,c\n" + "".join(f"{i % 5}.0,{'ab'[i % 2]}\n" for i in range(40)))
    real = tmp_path / "real.csv"
    if fault == "not-utf8":
        real.write_bytes(b"x,c\n" + b"1.0,a\n" * 280 + b"2.0,\xe9\n" + b"1.0,b\n" * 19)
        error, message = LoadError, "real.csv: line 282 is not UTF-8 text"
    else:
        text, error, message = _late_fault(fault)
        real.write_text(text)
    set_small_blocks(monkeypatch)
    schema = tables.load_csv(synth).schema
    with pytest.raises(error, match=re.escape(message)):
        tables.load_csv(real, schema)
    for metric in ("euclidean", "gower"):
        with pytest.raises(StageError) as exc:
            run_audit(AuditConfig(synthetic=str(synth), real=str(real), eps=0.5,
                                  min_samples=3, metric=metric))
        assert exc.value.stage == "load-real"
        assert type(exc.value.cause) is error
        assert str(exc.value.cause).startswith(message)


def test_no_block_after_a_bad_cell_reaches_the_kernel(tmp_path, monkeypatch):
    synth = tmp_path / "synthetic.csv"
    synth.write_text("x,c\n1.0,a\n2.0,b\n")
    text, _, message = _late_fault("cell")
    real = tmp_path / "real.csv"
    real.write_text(text)
    set_small_blocks(monkeypatch)
    rows = 0
    with pytest.raises(LoadError, match=re.escape(message)):
        for block in tables.read_blocks(real, tables.load_csv(synth).schema):
            rows += block.n_rows
    assert 250 < rows < 279


def test_an_audit_without_medoids_still_reads_the_real_table(tmp_path):
    synth = tmp_path / "synthetic.csv"
    synth.write_text("x\n0.0\n5.0\n9.0\n")
    real = tmp_path / "real.csv"
    real.write_text("x\n" + "1.0\n" * 250 + "bad\n")
    config = AuditConfig(synthetic=str(synth), real=str(real), eps=0.1, min_samples=2)
    with pytest.raises(StageError, match="row 251, column 'x'") as exc:
        run_audit(config)
    assert exc.value.stage == "load-real"
    real.write_text("x\n" + "1.0\n" * 250)
    rpt = run_audit(config).report
    assert rpt.clustering.n_clusters == 0
    assert rpt.meta.n_real_rows == 250
    assert rpt.curves is None


_PEAK_RSS = """
import resource, sys
from cmla.cli import main
code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
"""


def _peak_mib(*argv):
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, *map(str, argv)], env=child_env(),
                          capture_output=True, text=True)
    code, mib = proc.stdout.split()[-2:]
    assert code == "0", proc.stderr
    return int(mib)


def test_a_200k_row_real_table_adds_little_to_the_peak_rss(tmp_path):
    # The whole real table, one-hot encoded, would take 200k x 66 x 8 bytes,
    # about 100 MiB; streamed, the real side holds one block and one chunk.
    rng = np.random.default_rng(3)
    cats = np.array([f"k{j}" for j in range(64)])
    synth = tmp_path / "synthetic.csv"
    rows = rng.integers(0, 64, 2000)
    synth.write_text("x,y,c\n" + "".join(
        f"{x:.3f},{y:.3f},{c}\n"
        for x, y, c in zip(rng.random(2000), rng.random(2000), cats[rows])))
    real = tmp_path / "real.csv"
    n = 200_000
    real.write_text("x,y,c\n" + "".join(
        f"{x:.3f},{y:.3f},{c}\n"
        for x, y, c in zip(rng.random(n), rng.random(n), cats[rng.integers(0, 64, n)])))
    flags = ["--synthetic", synth, "--eps", "0.05", "--min-samples", "3"]
    without = _peak_mib("audit", *flags)
    streamed = _peak_mib("audit", *flags, "--real", real)
    assert streamed - without <= 40, (without, streamed)


def test_a_one_hot_over_the_bound_fails_before_it_is_allocated(tmp_path):
    # 140k rows x 1001 dimensions x 8 bytes is 1.12 GB, above the 1 GiB bound;
    # zeroed and touched once a row it would put 140k pages, 547 MiB, in RSS
    n = 140_000
    assert 8 * n * 1001 > encoding.MAX_ENCODED_BYTES
    synth = tmp_path / "synthetic.csv"
    synth.write_text("x,c\n" + "".join(f"{i % 10}.5,k{i % 1000}\n" for i in range(n)))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, "audit", "--synthetic", str(synth), "--eps", "0.5"],
        env=child_env(), capture_output=True, text=True,
    )
    code, mib = proc.stdout.split()
    assert code == "2"
    assert int(mib) < 200
    assert (f"error in stage encode: encoding {n} rows x 1001 dimensions needs "
            f"{8 * n * 1001} bytes, over the bound of {1 << 30}; column 'c' has 1000 "
            "categories") in proc.stderr


@pytest.mark.parametrize("scale", ["minmax", "zscore"])
@pytest.mark.parametrize("metric", ["euclidean", "gower"])
def test_a_numeric_column_whose_range_overflows_exits_2_before_clustering(
    tmp_path, capsys, scale, metric
):
    synth = tmp_path / "synthetic.csv"
    synth.write_text("x0,x1\n1e308,0.0\n-1e308,1.0\n0,2.0\n")
    real = tmp_path / "real.csv"
    real.write_text("x0,x1\n0,0.0\n")
    code = main(["audit", "--synthetic", str(synth), "--real", str(real), "--eps", "0.5",
                 "--min-samples", "1", "--scale", scale, "--metric", metric])
    assert code == 2
    err = capsys.readouterr().err
    assert "cmla: error in stage encode: numeric column 'x0' spans [-1e+308, 1e+308]" in err
    assert "stage cluster" not in err


def test_an_audit_with_infinite_distances_verifies(tmp_path, capsys):
    # Every medoid is an infinite distance from every real row, since
    # (x_real - x_synthetic)^2 overflows, so the median, p10 and p90 lie between
    # two infinities: they are inf, not inf - inf = NaN.
    synth = tmp_path / "synthetic.csv"
    synth.write_text("x0,x1\n" + "1e300,0.0\n" * 4 + "1e300,1.0\n" * 4)
    real = tmp_path / "real.csv"
    real.write_text("x0,x1\n-1e300,0.0\n0,1.0\n")
    out = tmp_path / "out"
    assert main(["audit", "--synthetic", str(synth), "--real", str(real), "--out", str(out),
                 "--eps", "0.5", "--min-samples", "2"]) == 0
    text = (out / "report.json").read_text()
    summary = re.search(r'"dmin_summary": \{[^}]*\}', text).group(0)
    assert "NaN" not in summary
    assert summary.count("Infinity") == 6
    capsys.readouterr()
    assert main(["verify", str(out / "report.json")]) == 0
    assert "verify: ok" in capsys.readouterr().out
