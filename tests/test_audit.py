"""End-to-end audits, report verification, and scenario runs."""

import json
import logging
import re
from dataclasses import replace

import numpy as np
import pytest

from cmla import audit, clustering, tables
from cmla.audit import (
    AuditConfig,
    run_audit,
    run_scenario,
    verify_report_file,
)
from cmla.errors import ConfigError, StageError

from conftest import DATA_DIR


def write_tables(tmp_path, with_noise_tail=True):
    """Synthetic: two tight blobs plus scatter; real: one blob shared."""
    rng = np.random.default_rng(42)
    a = rng.normal(0.0, 0.05, (40, 2))
    b = rng.normal(5.0, 0.05, (40, 2)) if with_noise_tail else np.empty((0, 2))
    tail = rng.uniform(-10, 10, (8, 2))
    synth = np.vstack([a, b, tail]) if with_noise_tail else np.vstack([a, tail])
    real = np.vstack([rng.normal(0.0, 0.05, (30, 2)), rng.uniform(8, 9, (5, 2))])

    def dump(arr, name):
        path = tmp_path / name
        lines = ["x,y"] + [f"{repr(float(r[0]))},{repr(float(r[1]))}" for r in arr]
        path.write_text("\n".join(lines) + "\n")
        return path

    return dump(synth, "synthetic.csv"), dump(real, "real.csv")


def test_run_audit_emits_the_full_file_set(tmp_path):
    synth, real = write_tables(tmp_path)
    out = tmp_path / "out"
    config = AuditConfig(
        synthetic=str(synth), real=str(real), out=str(out),
        eps=0.05, min_samples=5, seed=11,
    )
    result = run_audit(config)
    assert sorted(p.name for p in out.iterdir()) == [
        "curves.csv", "labels.csv", "medoids.csv", "model.json", "report.json",
    ]
    rpt = result.report
    assert rpt.meta.synthetic_path == str(synth.resolve())
    assert rpt.meta.real_path == str(real.resolve())
    assert rpt.meta.eps_mode == "fixed"
    assert rpt.meta.eps == 0.05
    assert rpt.meta.seed == 11
    assert rpt.n_clusters == len(result.medoids)
    assert rpt.curves is not None
    assert rpt.readouts is not None
    doc = json.loads((out / "report.json").read_text())
    assert doc["clustering"]["n_clusters"] == rpt.n_clusters


def test_records_flag_adds_the_records_file(tmp_path):
    synth, real = write_tables(tmp_path)
    out = tmp_path / "out"
    config = AuditConfig(
        synthetic=str(synth), real=str(real), out=str(out),
        eps=0.05, min_samples=5, records=True,
    )
    result = run_audit(config)
    assert (out / "dmin_records.csv").is_file()
    assert result.report.records is not None
    doc = json.loads((out / "report.json").read_text())
    assert len(doc["records"]) == result.report.n_clusters


def test_audit_without_real_table_skips_evaluation(tmp_path):
    synth, _ = write_tables(tmp_path)
    out = tmp_path / "out"
    config = AuditConfig(synthetic=str(synth), out=str(out), eps=0.05, min_samples=5)
    result = run_audit(config)
    rpt = result.report
    assert rpt.curves is None
    assert rpt.dmin_summary is None
    assert rpt.readouts is None
    assert rpt.meta.real_path is None
    assert not (out / "curves.csv").exists()


def test_auto_eps_mode_is_recorded(tmp_path):
    synth, real = write_tables(tmp_path)
    config = AuditConfig(synthetic=str(synth), real=str(real), min_samples=5)
    rpt = run_audit(config).report
    assert rpt.meta.eps_mode == "auto"
    assert rpt.meta.eps > 0.0


def test_real_table_is_opened_only_after_clustering(tmp_path, monkeypatch):
    synth, real = write_tables(tmp_path)
    events = []

    orig_load = tables.load_csv
    orig_dbscan = clustering.dbscan

    def spy_load(path, schema_hint=None, origin="data"):
        events.append(("load", origin))
        return orig_load(path, schema_hint, origin)

    def spy_dbscan(matrix, params):
        events.append(("cluster", None))
        return orig_dbscan(matrix, params)

    monkeypatch.setattr(tables, "load_csv", spy_load)
    monkeypatch.setattr(clustering, "dbscan", spy_dbscan)
    run_audit(AuditConfig(synthetic=str(synth), real=str(real), eps=0.05, min_samples=5))

    kinds = [origin for kind, origin in events if kind == "load"]
    assert kinds == ["synthetic", "real"]
    assert events.index(("cluster", None)) < events.index(("load", "real"))


def test_stage_errors_name_the_failing_stage(tmp_path):
    with pytest.raises(StageError) as exc:
        run_audit(AuditConfig(synthetic=str(tmp_path / "missing.csv")))
    assert exc.value.stage == "load-synthetic"
    assert "no such file" in str(exc.value.cause)

    synth, _ = write_tables(tmp_path)
    bad_real = tmp_path / "bad_real.csv"
    bad_real.write_text("x,y\n1.0\n")
    with pytest.raises(StageError) as exc:
        run_audit(AuditConfig(synthetic=str(synth), real=str(bad_real), eps=0.05))
    assert exc.value.stage == "load-real"


def test_a_failing_stage_logs_its_elapsed_time(tmp_path, caplog):
    # identical rows make auto eps collapse to zero inside the cluster stage
    synth = tmp_path / "synthetic.csv"
    synth.write_text("x,y\n" + "1.0,2.0\n" * 12)
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="cmla"):
        with pytest.raises(StageError) as exc:
            run_audit(AuditConfig(synthetic=str(synth), out=str(out), min_samples=3))
    assert exc.value.stage == "cluster"
    messages = [r.getMessage() for r in caplog.records]
    assert any(re.fullmatch(r"stage encode done in \d+\.\d{3}s", m) for m in messages)
    assert any(re.fullmatch(r"stage cluster failed after \d+\.\d{3}s", m) for m in messages)
    assert not any("stage cluster done" in m for m in messages)
    assert not (out / "report.json").exists()


def test_verify_report_file_clean_and_tampered(tmp_path):
    synth, real = write_tables(tmp_path)
    out = tmp_path / "out"
    run_audit(AuditConfig(
        synthetic=str(synth), real=str(real), out=str(out),
        eps=0.05, min_samples=5, seed=3,
    ))
    path = out / "report.json"
    assert verify_report_file(path) == []

    doc = json.loads(path.read_text())
    doc["clustering"]["n_clusters"] += 1
    path.write_text(json.dumps(doc, indent=2) + "\n")
    problems = verify_report_file(path)
    assert any("n_clusters" in p for p in problems)

    # whitespace-only edits break canonical serialization
    canonical = json.dumps(doc, indent=2) + "\n"
    path.write_text(canonical.replace("\n", "\n "))
    problems = verify_report_file(path)
    assert any("not canonical" in p for p in problems)

    with pytest.raises(ConfigError, match="no such report"):
        verify_report_file(tmp_path / "absent.json")


def test_verify_covers_pca_and_gower_audits(tmp_path):
    synth, real = write_tables(tmp_path)
    for name, extra in (
        ("pca", {"pca": 1, "eps": 0.05}),
        ("gower", {"metric": "gower", "eps": 0.05}),
    ):
        out = tmp_path / f"out_{name}"
        rpt = run_audit(AuditConfig(
            synthetic=str(synth), real=str(real), out=str(out),
            min_samples=5, **extra,
        )).report
        assert verify_report_file(out / "report.json") == []
        if name == "pca":
            assert rpt.meta.pca_dim == 1
            assert rpt.meta.encoded_dim == 1
        else:
            assert rpt.meta.metric == "gower"


def small_scenario_doc(order):
    return {
        "name": "mini",
        "seed": 404,
        "real": {
            "n_rows": 300,
            "numeric_columns": ["x", "y"],
            "categorical_columns": {"tag": ["a", "b"]},
            "components": [
                {"weight": 0.5, "means": [-3.0, 0.0], "sigma": 0.2,
                 "categorical": {"tag": {"a": 1.0}}},
                {"weight": 0.5, "means": [3.0, 0.0], "sigma": 0.2,
                 "categorical": {"tag": {"b": 1.0}}},
            ],
        },
        "generators": [
            {"label": "memorizer", "kind": "memorizer", "n_samples": 300},
            {"label": "independent", "kind": "independent", "n_samples": 300},
        ],
        "audit": {"eps": 0.2, "min_samples": 15},
        "expected_ordering": {"tau": 0.1, "order": order},
    }


def test_run_scenario_layout_and_summary(tmp_path):
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(small_scenario_doc(["memorizer", "independent"])))
    out = tmp_path / "run"
    outcome = run_scenario(sp, out)

    assert outcome.ordering_checked
    assert outcome.ordering_ok
    assert sorted(p.name for p in (out / "data").iterdir()) == [
        "independent.csv", "memorizer.csv", "real.csv",
    ]
    for label in ("memorizer", "independent"):
        assert (out / label / "report.json").is_file()
    assert (out / "heatmap_tau0.1.csv").is_file()
    assert (out / "heatmap_tau0.5.csv").is_file()

    summary = json.loads((out / "scenario_summary.json").read_text())
    assert summary["kind"] == "scenario_summary"
    assert summary["name"] == "mini"
    assert summary["seed"] == 404
    assert [g["label"] for g in summary["generators"]] == ["memorizer", "independent"]
    for g in summary["generators"]:
        assert (out / g["report"]).is_file()
        assert {r["tau"] for r in g["readouts"]} == {0.1, 0.5}

    # memorizer medoids sit on real rows; independent medoids often do not
    mem = outcome.reports["memorizer"]
    ind = outcome.reports["independent"]
    mem_asr = mem.curves.asr[mem.grid.index_of(0.1)]
    ind_asr = ind.curves.asr[ind.grid.index_of(0.1)]
    assert mem_asr > ind_asr


def test_run_scenario_flags_a_violated_ordering(tmp_path):
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(small_scenario_doc(["independent", "memorizer"])))
    outcome = run_scenario(sp, tmp_path / "run")
    assert outcome.ordering_checked
    assert not outcome.ordering_ok


def test_run_scenario_without_declared_ordering(tmp_path):
    doc = small_scenario_doc(["memorizer", "independent"])
    del doc["expected_ordering"]
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(doc))
    outcome = run_scenario(sp, tmp_path / "run")
    assert not outcome.ordering_checked
    assert outcome.ordering_ok


def test_run_scenario_rejects_unknown_audit_settings(tmp_path):
    doc = small_scenario_doc(["memorizer", "independent"])
    doc["audit"]["verbosity"] = 3
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="unknown audit settings"):
        run_scenario(sp, tmp_path / "run")


def test_scenario_runs_are_reproducible(tmp_path):
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(small_scenario_doc(["memorizer", "independent"])))
    run_scenario(sp, tmp_path / "a")
    run_scenario(sp, tmp_path / "b")
    for name in ("data/real.csv", "data/memorizer.csv", "memorizer/curves.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    da = json.loads((tmp_path / "a" / "memorizer" / "report.json").read_text())
    db = json.loads((tmp_path / "b" / "memorizer" / "report.json").read_text())
    del da["meta"]["synthetic_path"], db["meta"]["synthetic_path"]
    del da["meta"]["real_path"], db["meta"]["real_path"]
    assert da == db


@pytest.mark.parametrize(
    "settings",
    [{"eps": 0.05}, {}, {"eps": 0.05, "pca": 1}, {"eps": 0.05, "records": True},
     {"eps": 0.05, "metric": "gower"}],
    ids=["fixed-eps", "auto-eps", "pca", "records", "gower"],
)
def test_verify_rebuilds_the_original_config(tmp_path, monkeypatch, settings):
    synth, real = write_tables(tmp_path)
    original = AuditConfig(synthetic=str(synth), real=str(real), out=str(tmp_path / "out"),
                           min_samples=5, seed=3, **settings)
    meta = run_audit(original).report.meta
    seen = []

    def recording(config, grid_override=None):
        seen.append(config)
        return run_audit(config, grid_override)

    monkeypatch.setattr(audit, "run_audit", recording)
    assert verify_report_file(tmp_path / "out" / "report.json") == []
    assert seen == [replace(
        original, synthetic=str(synth.resolve()), real=str(real.resolve()), out=None,
        dataset_label=meta.dataset_label, generator_label=meta.generator_label,
    )]


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown metric"):
        AuditConfig(synthetic="s.csv", metric="cosine")
    with pytest.raises(ConfigError, match="unknown scaling"):
        AuditConfig(synthetic="s.csv", scale="robust")
    with pytest.raises(ConfigError, match="pca dimension"):
        AuditConfig(synthetic="s.csv", pca=0)
    with pytest.raises(ConfigError, match="seed"):
        AuditConfig(synthetic="s.csv", seed=-1)


def test_bundled_scenario_file_loads_and_validates():
    # the checked-in scenario drives the acceptance tests; make sure it stays
    # parseable on its own
    from cmla.harness import load_scenario

    sc = load_scenario(DATA_DIR / "ordering_scenario.json")
    assert sc.audit == {"eps": 0.35, "min_samples": 100, "marks": [0.1, 0.5]}
