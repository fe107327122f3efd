"""Report assembly, JSON round-trips, CSV emission, and document diffs."""

import hashlib
import json
import re

import numpy as np
import pytest

from cmla.clustering import DbscanParams, dbscan, extract_medoids
from cmla.encoding import encode, fit_encoding
from cmla.errors import ConfigError, CurveError, LineageError
from cmla.metrics import (
    DistanceRecord,
    DminSummary,
    MetricCurves,
    ProximityProfile,
    ThresholdGrid,
    curves_from_profile,
    default_grid,
    proximity_profile,
    summarize_dmin,
)
from cmla.report import (
    LeakageReport,
    ReferenceReadout,
    RunMeta,
    build_report,
    compare_reports,
    emit_curves_csv,
    format_summary_row,
    heatmap_cell,
    parse_json,
    render_json,
    report_from_dict,
    report_to_dict,
    write_dmin_records_csv,
    write_heatmap_csv,
    write_report_json,
)

from conftest import numeric_table


def small_report(with_real=True, marks=(0.1, 0.5)):
    synth = numeric_table(
        [[v, 0.0] for v in (0.0, 0.1, 0.05, 2.0, 2.1, 2.05, 9.0)],
        names=["x", "y"],
    )
    model = fit_encoding(synth)
    mat = encode(model, synth)
    labeling = dbscan(mat, DbscanParams(eps=0.2, min_samples=2))
    medoids = extract_medoids(mat, labeling, synth)
    grid = default_grid(marks)
    summary = curves = records = None
    if with_real:
        real = numeric_table([[0.0, 0.0], [2.4, 0.0], [5.0, 0.0]], names=["x", "y"])
        profile = proximity_profile(medoids, encode(model, real))
        curves = curves_from_profile(profile, grid)
        records = profile.records
        summary = summarize_dmin([r.d_min for r in records])
    meta = RunMeta(
        dataset_label="demo",
        generator_label="toy",
        synthetic_path="/tmp/synthetic.csv",
        real_path="/tmp/real.csv" if with_real else None,
        n_synthetic_rows=synth.n_rows,
        n_real_rows=3 if with_real else None,
        scale="minmax",
        metric="euclidean",
        pca_dim=None,
        encoded_dim=mat.vectors.shape[1],
        eps=0.2,
        eps_mode="fixed",
        min_samples=2,
        seed=7,
        model_hash=mat.model_hash,
    )
    return build_report(meta, labeling, medoids, grid, summary, curves, records)


def test_render_parse_render_is_byte_stable():
    report = small_report()
    text = render_json(report)
    assert text.endswith("\n")
    again = render_json(parse_json(text))
    assert again == text
    # and the dict layer agrees too
    assert json.loads(text) == report_to_dict(parse_json(text))


def numpy_typed_report(with_real, with_records):
    """A report whose sections hold numpy scalars and an int eps, as a
    caller outside the pipeline may build one."""
    meta = RunMeta(
        dataset_label="demo",
        generator_label="toy",
        synthetic_path="synthetic.csv",
        real_path="real.csv" if with_real else None,
        n_synthetic_rows=np.int64(7),
        n_real_rows=np.int64(3) if with_real else None,
        scale="zscore",
        metric="euclidean",
        pca_dim=np.int32(2),
        encoded_dim=np.int64(2),
        eps=1,
        eps_mode="fixed",
        min_samples=np.int64(2),
        seed=np.uint64(2**63 + 5),
        model_hash="0123abcd",
    )
    grid = ThresholdGrid(np.array([0.0, 0.25, 0.5, 1.0]), (0.25, 1.0))
    profile = ProximityProfile(
        records=[
            DistanceRecord(np.int64(0), np.int64(1), np.float64(0.2), np.int64(2)),
            DistanceRecord(np.int32(1), np.int64(4), np.float64(0.75), np.int64(0)),
        ],
        per_real_min=np.array([0.75, 0.3, 0.2]),
    )
    summary = curves = readouts = None
    if with_real:
        summary = DminSummary(
            count=np.int64(2), min=np.float64(0.2), mean=np.float64(0.475),
            median=np.float64(0.475), max=np.float64(0.75), p10=np.float64(0.255),
            p90=np.float64(0.695),
        )
        curves = curves_from_profile(profile, grid)
        readouts = [
            ReferenceReadout(tau=float(grid.taus[i]), asr=curves.asr[i],
                             coverage=curves.coverage[i])
            for i in (1, 3)
        ]
    return LeakageReport(
        meta=meta,
        n_clusters=np.int64(2),
        cluster_sizes=[np.int64(3), np.int64(2)],
        n_noise=np.int64(1),
        n_core=np.int64(4),
        grid=grid,
        dmin_summary=summary,
        curves=curves,
        readouts=readouts,
        records=profile.records if with_records else None,
    )


@pytest.mark.parametrize(
    "with_real, with_records, digest",
    [
        (False, False, "96f282ac9d264ec337c5ae3cd4a3a1fa56a8fadce2e4389ea90b3ff60333e87e"),
        (False, True, "ec9f823a7469edb731de0048910ae48bfd80b39e5ed13725113d18d7f590847b"),
        (True, False, "312add1290cc0a2cc86f2a0a393a05363452df952658b24d821428704c90eff1"),
        (True, True, "94d2499bb6b0963b4e022a7a1765a06f2acc7cb28e2544f828242275782b68ea"),
    ],
)
def test_rendered_bytes_are_pinned_and_round_trip(with_real, with_records, digest):
    text = render_json(numpy_typed_report(with_real, with_records))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    assert render_json(parse_json(text)) == text
    assert '"eps": 1.0,' in text and '"seed": 9223372036854775813,' in text


def test_report_without_real_table_has_no_curve_sections():
    doc = report_to_dict(small_report(with_real=False))
    assert doc["dmin_summary"] is None
    assert doc["curves"] is None
    assert doc["reference_readouts"] is None
    assert doc["records"] is None
    assert doc["clustering"]["n_clusters"] >= 1


def test_document_key_order_is_fixed():
    doc = report_to_dict(small_report())
    assert list(doc) == [
        "schema_version",
        "kind",
        "meta",
        "clustering",
        "grid",
        "dmin_summary",
        "curves",
        "reference_readouts",
        "records",
    ]
    assert doc["schema_version"] == 1
    assert doc["kind"] == "leakage_report"


def test_readouts_equal_curve_values_exactly():
    report = small_report()
    doc = report_to_dict(report)
    for readout in doc["reference_readouts"]:
        i = report.grid.index_of(readout["tau"])
        assert readout["asr"] == doc["curves"]["asr"][i]
        assert readout["coverage"] == doc["curves"]["coverage"][i]


def test_build_report_rejects_foreign_artifacts():
    synth = numeric_table([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]], names=["x", "y"])
    mat = encode(fit_encoding(synth), synth)
    labeling = dbscan(mat, DbscanParams(eps=0.2, min_samples=1))
    medoids = extract_medoids(mat, labeling, synth)
    report = small_report()
    meta = report.meta.__class__(**{**report.meta.__dict__, "model_hash": "other"})
    with pytest.raises(LineageError, match="different encoding models"):
        build_report(meta, labeling, medoids, report.grid, None, None, None)


def test_report_from_dict_validates_kind_and_version():
    doc = report_to_dict(small_report())
    bad = dict(doc)
    bad["kind"] = "something"
    with pytest.raises(ConfigError, match="not a leakage report"):
        report_from_dict(bad)
    bad = dict(doc)
    bad["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        report_from_dict(bad)


def test_write_report_json_round_trip(tmp_path):
    report = small_report()
    p = tmp_path / "report.json"
    write_report_json(report, p)
    assert render_json(parse_json(p.read_text())) == p.read_text()


def test_compare_reports_tolerance_boundary():
    a = report_to_dict(small_report())
    b = json.loads(json.dumps(a))
    assert compare_reports(a, b) == []
    b["curves"]["asr"][5] = a["curves"]["asr"][5] + 5e-10
    assert compare_reports(a, b, tol=1e-9) == []
    b["curves"]["asr"][5] = a["curves"]["asr"][5] + 2e-9
    diffs = compare_reports(a, b, tol=1e-9)
    assert len(diffs) == 1
    assert diffs[0].startswith("curves.asr[5]:")


def test_compare_reports_catches_shape_and_text_changes():
    a = report_to_dict(small_report())
    b = json.loads(json.dumps(a))
    b["meta"]["scale"] = "zscore"
    del b["clustering"]["n_noise"]
    b["grid"]["taus"] = b["grid"]["taus"][:-1]
    diffs = compare_reports(a, b)
    assert any("meta.scale" in d for d in diffs)
    assert any("clustering.n_noise: missing in recomputation" in d for d in diffs)
    assert any("grid.taus: length 251 vs 250" in d for d in diffs)


def test_format_summary_row_frozen_string():
    s = summarize_dmin([1.0, 2.0, 3.0, 4.0])
    assert format_summary_row(s) == (
        "M=4, min=1.0000, mean=2.5000, median=2.5000, max=4.0000, "
        "p10=1.3000, p90=3.7000"
    )


def test_emit_curves_csv_layout(tmp_path):
    report = small_report()
    p = tmp_path / "curves.csv"
    emit_curves_csv(report.curves, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "tau,asr,coverage"
    assert len(lines) == 252
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0


def test_emit_curves_csv_enforces_curve_laws(tmp_path):
    taus = np.array([0.0, 0.1, 0.2])
    ok = np.array([0.0, 0.5, 1.0])
    p = tmp_path / "c.csv"
    with pytest.raises(CurveError, match="strictly increasing"):
        emit_curves_csv(MetricCurves(np.array([0.0, 0.0, 0.2]), ok, ok), p)
    with pytest.raises(CurveError, match="leaves \\[0, 1\\]"):
        emit_curves_csv(MetricCurves(taus, np.array([0.0, 0.5, 1.2]), ok), p)
    with pytest.raises(CurveError, match="not non-decreasing"):
        emit_curves_csv(MetricCurves(taus, np.array([0.5, 0.1, 1.0]), ok), p)
    with pytest.raises(CurveError, match="length"):
        emit_curves_csv(MetricCurves(taus, np.array([0.0, 1.0]), ok), p)


def test_dmin_records_csv(tmp_path):
    report = small_report()
    p = tmp_path / "records.csv"
    write_dmin_records_csv(report.records, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "cluster_id,medoid_row_id,d_min,nearest_real_row_id"
    assert len(lines) == 1 + len(report.records)
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert float(cells[2]) == report.records[0].d_min


def test_heatmap_cell_and_csv(tmp_path):
    report = small_report()
    cell = heatmap_cell(report, 0.5)
    assert cell.generator == "toy"
    assert cell.dataset == "demo"
    assert cell.coverage == float(report.curves.coverage[report.grid.index_of(0.5)])

    other = cell.__class__(generator="other", dataset="demo", coverage=0.25)
    p = tmp_path / "heat.csv"
    write_heatmap_csv([cell, other], p)
    lines = p.read_text().splitlines()
    assert lines[0] == "generator,demo"
    assert lines[1].startswith("toy,")
    assert lines[2] == "other,0.25"


def test_heatmap_empty_cells_and_duplicates(tmp_path):
    from cmla.report import HeatmapCell

    cells = [
        HeatmapCell("g1", "d1", 0.5),
        HeatmapCell("g2", "d2", 0.75),
    ]
    p = tmp_path / "heat.csv"
    write_heatmap_csv(cells, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "generator,d1,d2"
    assert lines[1] == "g1,0.5,"
    assert lines[2] == "g2,,0.75"
    with pytest.raises(ConfigError, match="duplicate heatmap cell"):
        write_heatmap_csv(cells + [HeatmapCell("g1", "d1", 0.9)], p)


def test_heatmap_requires_curves():
    report = small_report(with_real=False)
    with pytest.raises(ConfigError, match="no curves"):
        heatmap_cell(report, 0.5)


def test_off_grid_readout_is_rejected():
    report = small_report()
    with pytest.raises(ConfigError, match="not on the grid"):
        heatmap_cell(report, 0.123)


def test_rendered_floats_survive_json_exactly():
    report = small_report()
    doc = json.loads(render_json(report))
    assert doc["curves"]["asr"] == [float(v) for v in report.curves.asr]
    assert doc["dmin_summary"]["p90"] == report.dmin_summary.p90
