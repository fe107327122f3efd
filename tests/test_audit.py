"""End-to-end audits, report verification, and scenario runs."""

import json
import logging
import re
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cmla import audit, clustering, tables
from cmla.audit import (
    AuditConfig,
    run_audit,
    run_scenario,
    verify_report_file,
)
from cmla.errors import ConfigError, LoadError, StageError

from conftest import DATA_DIR


def write_tables(tmp_path, with_noise_tail=True, blob=40):
    """Synthetic: two tight blobs of `blob` rows plus scatter; real: one blob
    shared."""
    rng = np.random.default_rng(42)
    a = rng.normal(0.0, 0.05, (blob, 2))
    b = rng.normal(5.0, 0.05, (blob, 2)) if with_noise_tail else np.empty((0, 2))
    tail = rng.uniform(-10, 10, (8, 2))
    synth = np.vstack([a, b, tail]) if with_noise_tail else np.vstack([a, tail])
    real = np.vstack([rng.normal(0.0, 0.05, (blob * 3 // 4, 2)), rng.uniform(8, 9, (5, 2))])

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
    assert rpt.clustering.n_clusters == len(result.medoids)
    assert rpt.curves is not None
    assert rpt.reference_readouts is not None
    doc = json.loads((out / "report.json").read_text())
    assert doc["clustering"]["n_clusters"] == rpt.clustering.n_clusters


def test_an_audit_starts_no_thread(tmp_path, monkeypatch):
    # the distance kernels run in one thread, also on tables of hundreds of
    # rows at auto eps, where the k-th pass and the cross minima run
    started = []
    start = threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", spy)
    synth, real = write_tables(tmp_path, blob=400)
    config = AuditConfig(synthetic=str(synth), real=str(real), out=str(tmp_path / "out"))
    result = run_audit(config)
    assert result.report.meta.n_real_rows == 305 and result.report.curves is not None
    assert started == []


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
    assert len(doc["records"]) == result.report.clustering.n_clusters


def test_audit_without_real_table_skips_evaluation(tmp_path):
    synth, _ = write_tables(tmp_path)
    out = tmp_path / "out"
    config = AuditConfig(synthetic=str(synth), out=str(out), eps=0.05, min_samples=5)
    result = run_audit(config)
    rpt = result.report
    assert rpt.curves is None
    assert rpt.dmin_summary is None
    assert rpt.reference_readouts is None
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

    orig_medoids = clustering.extract_medoids
    orig_dbscan = clustering.dbscan

    def spy_open(path, *args, **kwargs):
        events.append(("open", Path(path).name))
        return open(path, *args, **kwargs)

    def spy_dbscan(matrix, eps, min_samples):
        events.append(("cluster", None))
        return orig_dbscan(matrix, eps, min_samples)

    def spy_medoids(*args):
        result = orig_medoids(*args)
        events.append(("medoids", None))
        return result

    # the tables module's own open, through which both tables are read
    monkeypatch.setattr(tables, "open", spy_open, raising=False)
    monkeypatch.setattr(clustering, "dbscan", spy_dbscan)
    monkeypatch.setattr(clustering, "extract_medoids", spy_medoids)
    run_audit(AuditConfig(synthetic=str(synth), real=str(real), eps=0.05, min_samples=5))

    opened = [name for kind, name in events if kind == "open"]
    assert opened == [synth.name, real.name]
    assert events.index(("cluster", None)) < events.index(("open", real.name))
    assert events.index(("medoids", None)) < events.index(("open", real.name))


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


def test_a_gower_audit_logs_its_exact_pairs_and_full_scans(tmp_path, caplog):
    synth, real = write_tables(tmp_path)
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="cmla"):
        result = run_audit(AuditConfig(synthetic=str(synth), real=str(real), out=str(out),
                                       eps=0.05, min_samples=5, metric="gower"))
    cross = len(result.medoids) * result.report.meta.n_real_rows
    messages = [r.getMessage() for r in caplog.records]
    assert any(re.fullmatch(rf"gower: \d+ exact pairs of {cross} medoid-row pairs; "
                            r"\d+ of 1 blocks scanned in full", m) for m in messages)
    assert "exact pairs" not in (out / "report.json").read_text()


def test_a_euclidean_audit_logs_its_exact_pairs_and_full_scans(tmp_path, caplog):
    # two medoids: the cost rule leaves the one chunk to the tiles, which
    # count as a full scan of every medoid-row pair
    synth, real = write_tables(tmp_path)
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="cmla"):
        result = run_audit(AuditConfig(synthetic=str(synth), real=str(real), out=str(out),
                                       eps=0.05, min_samples=5))
    cross = len(result.medoids) * result.report.meta.n_real_rows
    messages = [r.getMessage() for r in caplog.records]
    assert len(result.medoids) == 2
    assert (f"euclidean: {cross} exact pairs of {cross} medoid-row pairs; "
            "1 of 1 blocks scanned in full") in messages
    assert "exact pairs" not in (out / "report.json").read_text()

def test_an_audit_logs_the_decimal_cells_parsed_one_by_one(tmp_path, caplog):
    # e-notation, a leading space and a plus sign are for float alone
    synth, real = write_tables(tmp_path)
    with real.open("a") as fh:
        fh.write("1e-3,0.5\n 2,+3\n")
    counts = tables.ReadCounts()
    schema = tables.load_csv(synth).schema
    n_rows = sum(block.n_rows for block in tables.read_blocks(real, schema, counts))
    assert counts.decimals == 2 * n_rows and counts.one_by_one >= 3
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="cmla"):
        run_audit(AuditConfig(synthetic=str(synth), real=str(real), out=str(out),
                              eps=0.05, min_samples=5, metric="gower"))
    messages = [r.getMessage() for r in caplog.records]
    assert (f"real table: {n_rows} rows; {counts.one_by_one} of {counts.decimals} "
            "decimal cells parsed one by one") in messages
    assert "one by one" not in (out / "report.json").read_text()


def test_a_cluster_stage_logs_its_dense_cells_and_streamed_rows(tmp_path, caplog):
    # the two 40-row blobs fill dense cells; the 8 scattered rows stream
    synth, real = write_tables(tmp_path)
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="cmla"):
        run_audit(AuditConfig(synthetic=str(synth), real=str(real), out=str(out),
                              eps=0.05, min_samples=5))
    pattern = r"eps-graph: (\d+) of (\d+) distinct rows in (\d+) dense cells; (\d+) rows streamed"
    found = [re.fullmatch(pattern, r.getMessage()) for r in caplog.records]
    (dense, n, cells, streamed), = [tuple(map(int, m.groups())) for m in found if m]
    assert n == 88 and dense + streamed == n
    assert dense >= 40 and cells >= 2 and streamed >= 8
    assert "dense cells" not in (out / "report.json").read_text()


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
    path.write_bytes(canonical.replace("\n", "\r\n").encode("utf-8"))
    problems = verify_report_file(path)
    assert any("not canonical" in p for p in problems)

    with pytest.raises(LoadError, match="no such file"):
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

    assert outcome.ordering_ok is True
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
    assert outcome.ordering_ok is False


def test_run_scenario_without_declared_ordering(tmp_path):
    doc = small_scenario_doc(["memorizer", "independent"])
    del doc["expected_ordering"]
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(doc))
    outcome = run_scenario(sp, tmp_path / "run")
    assert outcome.ordering_ok is None


def test_run_scenario_rejects_unknown_audit_settings(tmp_path):
    doc = small_scenario_doc(["memorizer", "independent"])
    doc["audit"]["verbosity"] = 3
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="the audit section has an unknown key 'verbosity'"):
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
