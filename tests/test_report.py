"""Report assembly, JSON round-trips, the report's CSV files, and document diffs."""

import hashlib
import json
import math
import re

import numpy as np
import pytest

from cmla import metrics
from cmla.audit import AuditConfig, _emit_files, run_audit, run_scenario
from cmla.clustering import dbscan, extract_medoids
from cmla.documents import write
from cmla.encoding import encode, fit_encoding
from cmla.errors import ConfigError, CurveError, LineageError, StageError
from cmla.metrics import (
    DistanceRecord,
    DminSummary,
    MetricCurves,
    ProximityProfile,
    ThresholdGrid,
    curves_from_profile,
    grid_from_spec,
    proximity_profile,
    summarize_dmin,
)
from cmla.report import (
    Clustering,
    LeakageReport,
    ReferenceReadout,
    RunMeta,
    build_report,
    compare_reports,
    format_summary_row,
    render_json,
    report_from_dict,
)
from cmla.tables import write_csv

from conftest import numeric_table


def small_synthetic():
    return numeric_table(
        [[v, 0.0] for v in (0.0, 0.1, 0.05, 2.0, 2.1, 2.05, 9.0)],
        names=["x", "y"],
    )


def small_pipeline(with_real=True, marks=(0.1, 0.5)):
    """The inputs of build_report for a 7-row toy audit, and its curves."""
    synth = small_synthetic()
    model = fit_encoding(synth)
    mat = encode(model, synth)
    labeling = dbscan(mat, 0.2, 2)
    medoids = extract_medoids(mat, labeling, synth)
    grid = grid_from_spec("0:2.5:0.01", marks)
    summary = curves = records = None
    if with_real:
        real = numeric_table([[0.0, 0.0], [2.4, 0.0], [5.0, 0.0]], names=["x", "y"])
        profile = proximity_profile(medoids, [real], grid, model)
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
    return (meta, labeling, medoids, grid, summary, curves, records)


def small_report(with_real=True, marks=(0.1, 0.5)):
    return build_report(*small_pipeline(with_real, marks))


def emit_small_report(report, out_dir):
    """Lay out report, one of small_report's, in out_dir as an audit's --out."""
    synth = small_synthetic()
    _, labeling, medoids, *_ = small_pipeline()
    _emit_files(report, out_dir, fit_encoding(synth), labeling, medoids, synth)


def test_render_parse_render_is_byte_stable():
    report = small_report()
    text = render_json(report)
    assert text.endswith("\n")
    again = render_json(report_from_dict(json.loads(text)))
    assert again == text
    # and the dict layer agrees too
    assert json.loads(text) == write(report_from_dict(json.loads(text)))


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
        # the real rows' minima 0.75, 0.3 and 0.2 counted below each threshold
        counts=np.array([0, 1, 2, 3]),
        n_real=np.int64(3),
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
        clustering=Clustering(n_clusters=np.int64(2), cluster_sizes=[np.int64(3), np.int64(2)],
                              n_noise=np.int64(1), n_core=np.int64(4)),
        grid=grid,
        dmin_summary=summary,
        curves=curves,
        reference_readouts=readouts,
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
    assert render_json(report_from_dict(json.loads(text))) == text
    assert '"eps": 1.0,' in text and '"seed": 9223372036854775813,' in text


def test_report_without_real_table_has_no_curve_sections():
    doc = write(small_report(with_real=False))
    assert doc["dmin_summary"] is None
    assert doc["curves"] is None
    assert doc["reference_readouts"] is None
    assert doc["records"] is None
    assert doc["clustering"]["n_clusters"] >= 1


def test_document_key_order_is_fixed():
    doc = write(small_report())
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
    doc = write(report)
    for readout in doc["reference_readouts"]:
        i = report.grid.index_of(readout["tau"])
        assert readout["asr"] == doc["curves"]["asr"][i]
        assert readout["coverage"] == doc["curves"]["coverage"][i]


def test_build_report_rejects_foreign_artifacts():
    synth = numeric_table([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]], names=["x", "y"])
    mat = encode(fit_encoding(synth), synth)
    labeling = dbscan(mat, 0.2, 1)
    medoids = extract_medoids(mat, labeling, synth)
    report = small_report()
    meta = report.meta.__class__(**{**report.meta.__dict__, "model_hash": "other"})
    with pytest.raises(LineageError, match="different encoding models"):
        build_report(meta, labeling, medoids, report.grid, None, None, None)


def test_report_from_dict_validates_kind_and_version():
    doc = write(small_report())
    bad = dict(doc)
    bad["kind"] = "something"
    with pytest.raises(ConfigError, match="not a leakage report"):
        report_from_dict(bad)
    bad = dict(doc)
    bad["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        report_from_dict(bad)


@pytest.mark.parametrize(
    "section, key",
    [("meta", "eps"), ("records", "d_min"), ("dmin_summary", "p90"), ("grid", "taus"),
     ("curves", "asr"), ("clustering", "n_core"), ("document", "grid")],
)
def test_report_from_dict_names_an_unknown_or_missing_section_key(section, key):
    doc = write(small_report())
    name = "records[1]" if section == "records" else section

    def tampered(change):
        bad = json.loads(json.dumps(doc))
        if section == "document":
            change(bad)
        else:
            change(bad[section][1] if section == "records" else bad[section])
        return bad

    with pytest.raises(ConfigError, match=re.escape(f"report {name} has an unknown key 'extra'")):
        report_from_dict(tampered(lambda part: part.update(extra=1)))
    with pytest.raises(ConfigError, match=re.escape(f"report {name} is missing the key '{key}'")):
        report_from_dict(tampered(lambda part: part.pop(key)))


def test_compare_reports_tolerance_boundary():
    a = write(small_report())
    b = json.loads(json.dumps(a))
    assert compare_reports(a, b) == []
    b["curves"]["asr"][5] = a["curves"]["asr"][5] + 5e-10
    assert compare_reports(a, b) == []
    b["curves"]["asr"][5] = a["curves"]["asr"][5] + 2e-9
    diffs = compare_reports(a, b)
    assert len(diffs) == 1
    assert diffs[0].startswith("curves.asr[5]:")


def test_compare_reports_takes_two_nans_or_two_equal_infinities_as_equal():
    a = write(small_report())
    b = json.loads(json.dumps(a))
    for x, y, equal in [(math.nan, math.nan, True), (math.inf, math.inf, True),
                        (math.nan, 1.0, False), (math.inf, -math.inf, False),
                        (math.nan, math.inf, False)]:
        a["curves"]["asr"][5], b["curves"]["asr"][5] = x, y
        assert (compare_reports(a, b) == []) is equal


def test_compare_reports_catches_shape_and_text_changes():
    a = write(small_report())
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


def test_curves_csv_layout(tmp_path):
    emit_small_report(small_report(), tmp_path)
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert lines[0] == "tau,asr,coverage"
    assert len(lines) == 252
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0


def test_build_report_enforces_curve_laws():
    meta, labeling, medoids, _, summary, _, records = small_pipeline()
    grid = ThresholdGrid([0.0, 0.1, 0.2])
    ok = [0.0, 0.5, 1.0]
    for asr, message in (([0.0, 0.5, 1.2], "leaves \\[0, 1\\]"),
                         ([0.5, 0.1, 1.0], "not non-decreasing"),
                         ([0.0, 1.0], "length")):
        with pytest.raises(CurveError, match=message):
            build_report(meta, labeling, medoids, grid, summary, MetricCurves(asr, ok), records)


def test_a_curve_that_breaks_its_laws_leaves_no_out_directory(tmp_path, monkeypatch):
    synth, real, out = tmp_path / "synthetic.csv", tmp_path / "real.csv", tmp_path / "out"
    write_csv(small_synthetic(), synth)
    write_csv(numeric_table([[0.0, 0.0], [2.4, 0.0]], names=["x", "y"]), real)

    def falling(profile, grid):
        curves = curves_from_profile(profile, grid)
        return MetricCurves(curves.asr[::-1], curves.coverage)

    monkeypatch.setattr(metrics, "curves_from_profile", falling)
    with pytest.raises(StageError) as exc:
        run_audit(AuditConfig(synthetic=str(synth), real=str(real), out=str(out),
                              eps=0.2, min_samples=2))
    assert exc.value.stage == "report"
    assert str(exc.value.cause) == "asr curve is not non-decreasing"
    assert not out.exists()


def test_dmin_records_csv(tmp_path):
    report = small_report()
    emit_small_report(report, tmp_path)
    lines = (tmp_path / "dmin_records.csv").read_text().splitlines()
    assert lines[0] == "cluster_id,medoid_row_id,d_min,nearest_real_row_id"
    assert len(lines) == 1 + len(report.records)
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert float(cells[2]) == report.records[0].d_min


@pytest.fixture(scope="module")
def heatmap_run(tmp_path_factory):
    """A scenario whose generator 'none' draws fewer rows than min_samples,
    so that its audit finds no cluster and gives no curves."""
    tmp = tmp_path_factory.mktemp("heatmap")
    sp = tmp / "scenario.json"
    sp.write_text(json.dumps({
        "name": "demo",
        "seed": 5,
        "real": {"n_rows": 120, "numeric_columns": ["x"], "categorical_columns": {},
                 "components": [{"weight": 1.0, "means": [0.0], "sigma": 1.0}]},
        "generators": [
            {"label": "toy", "kind": "memorizer", "n_samples": 60},
            {"label": "none", "kind": "memorizer", "n_samples": 3},
            {"label": "other", "kind": "independent", "n_samples": 60},
        ],
        "audit": {"eps": 0.1, "min_samples": 5, "marks": [0.1, 0.5]},
    }))
    return run_scenario(sp, tmp / "run")


def test_heatmap_cell_and_csv(heatmap_run):
    def cell(label):
        rpt = heatmap_run.reports[label]
        return rpt.curves.coverage[rpt.grid.index_of(0.5)]

    assert cell("toy") != cell("other")
    text = f"generator,demo\r\ntoy,{cell('toy')!r}\r\nother,{cell('other')!r}\r\n"
    assert (heatmap_run.out_dir / "heatmap_tau0.5.csv").read_bytes() == text.encode()


def test_heatmap_requires_curves(heatmap_run):
    # a report without curves gets no row
    assert heatmap_run.reports["none"].curves is None
    lines = (heatmap_run.out_dir / "heatmap_tau0.1.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["generator", "toy", "other"]


def test_rendered_floats_survive_json_exactly():
    report = small_report()
    doc = json.loads(render_json(report))
    assert doc["curves"]["asr"] == [float(v) for v in report.curves.asr]
    assert doc["dmin_summary"]["p90"] == report.dmin_summary.p90
