"""Command-line behavior: exit codes, printed lines, config precedence."""

import csv
import json
import logging
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cmla import audit
from cmla.audit import AuditConfig
from cmla.cli import main

from conftest import child_env


def run_cli(*argv, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "cmla.cli", *map(str, argv)],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def csv_pair(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_data")
    rng = np.random.default_rng(7)
    synth = np.vstack([
        rng.normal(0.0, 0.05, (40, 2)),
        rng.normal(4.0, 0.05, (40, 2)),
        rng.uniform(-9, 9, (6, 2)),
    ])
    real = rng.normal(0.0, 0.05, (30, 2))

    def dump(arr, name):
        path = tmp / name
        lines = ["x,y"] + [f"{repr(float(r[0]))},{repr(float(r[1]))}" for r in arr]
        path.write_text("\n".join(lines) + "\n")
        return path

    return dump(synth, "synthetic.csv"), dump(real, "real.csv")


def test_audit_happy_path_with_verify(csv_pair, tmp_path):
    synth, real = csv_pair
    out = tmp_path / "out"
    proc = run_cli(
        "audit", "--synthetic", synth, "--real", real, "--out", out,
        "--eps", "0.05", "--min-samples", "5", "--verify",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(
        r"M=\d+, min=\d+\.\d{4}, mean=\d+\.\d{4}, median=\d+\.\d{4}, "
        r"max=\d+\.\d{4}, p10=\d+\.\d{4}, p90=\d+\.\d{4}",
        lines[0],
    )
    assert lines[1].startswith("tau=0.1: asr=")
    assert lines[2].startswith("tau=0.5: asr=")
    assert lines[3] == "verify: ok"
    assert (out / "report.json").is_file()


def test_cmla_threads_changes_no_byte(csv_pair, tmp_path, monkeypatch):
    # the kernels run in one thread: the variable that once set their worker
    # count is not read, so even its former error value 0 is no error
    synth, real = csv_pair
    argv = ["audit", "--synthetic", str(synth), "--real", str(real), "--out"]
    monkeypatch.delenv("CMLA_THREADS", raising=False)
    assert main([*argv, str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("CMLA_THREADS", "0")
    assert main([*argv, str(tmp_path / "zero")]) == 0
    plain, zero = (tmp_path / run / "report.json" for run in ("plain", "zero"))
    assert zero.read_bytes() == plain.read_bytes()


def test_audit_without_real_prints_cluster_count(csv_pair, tmp_path):
    synth, _ = csv_pair
    proc = run_cli("audit", "--synthetic", synth, "--eps", "0.05")
    assert proc.returncode == 0
    assert re.fullmatch(r"clusters=\d+ \(no real table evaluated\)",
                        proc.stdout.strip())


def test_malformed_synthetic_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1.0,2.0\n3.0\n")
    proc = run_cli("audit", "--synthetic", bad)
    assert proc.returncode == 2
    assert "error in stage load-synthetic" in proc.stderr


def test_header_that_repeats_a_name_exits_2_naming_file_and_column(tmp_path, capsys):
    dup = tmp_path / "dup.csv"
    dup.write_text("a,a\n1.0,2.0\n")
    assert main(["audit", "--synthetic", str(dup)]) == 2
    assert ("cmla: error in stage load-synthetic: dup.csv: header names column 'a' twice"
            in capsys.readouterr().err)


@pytest.mark.parametrize("fault, message", [
    ("header", "header ['x', 'z'] does not match expected columns ['x', 'c']"),
    ("cell", "row 150, column 'x': cell 'n/a' is not a finite decimal"),
    ("kind", "column 'c' is categorical in the expected schema but holds only decimals"),
], ids=["header", "cell", "kind"])
def test_real_table_off_the_synthetic_schema_exits_2_at_load_real(
    tmp_path, capsys, fault, message
):
    rows = [f"{i % 5}.0,{'ab'[i % 2]}" for i in range(200)]
    synth = tmp_path / "synthetic.csv"
    synth.write_text("x,c\n" + "\n".join(rows[:40]) + "\n")
    if fault == "cell":
        rows[149] = "n/a,a"
    if fault == "kind":
        rows = [f"{i % 5}.0,{i % 3}" for i in range(200)]
    real = tmp_path / "real.csv"
    real.write_text(("x,z" if fault == "header" else "x,c") + "\n" + "\n".join(rows) + "\n")
    code = main(["audit", "--synthetic", str(synth), "--real", str(real), "--eps", "0.5"])
    assert code == 2
    assert f"cmla: error in stage load-real: real.csv: {message}" in capsys.readouterr().err


def write_tables_with_fault(tmp_path, table, fault: bytes) -> list[str]:
    # row 50 of one table is replaced by the fault; returns the audit's argv
    paths = {}
    for name in ("synthetic", "real"):
        rows = [f"{i % 5}.0,{'ab'[i % 2]}".encode() for i in range(200)]
        if name == table:
            rows[49] = fault
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_bytes(b"x,c\n" + b"\n".join(rows) + b"\n")
    return ["audit", "--synthetic", str(paths["synthetic"]), "--real", str(paths["real"]),
            "--eps", "0.5"]


@pytest.mark.parametrize("table", ["synthetic", "real"])
def test_table_that_is_not_utf8_exits_2(tmp_path, capsys, table):
    code = main(write_tables_with_fault(tmp_path, table, "1.0,\u00e9t\u00e9".encode("latin-1")))
    assert code == 2
    assert (f"cmla: error in stage load-{table}: {table}.csv: line 51 is not UTF-8 text"
            in capsys.readouterr().err)


@pytest.mark.parametrize("table", ["synthetic", "real"])
def test_field_over_csvs_limit_exits_2(tmp_path, capsys, table):
    code = main(write_tables_with_fault(tmp_path, table, b"1.0," + b"a" * 131_073))
    assert code == 2
    assert (f"cmla: error in stage load-{table}: {table}.csv: row 50: "
            f"field larger than field limit (131072)" in capsys.readouterr().err)


def test_eps_flag_accepts_auto_and_rejects_junk(csv_pair):
    synth, _ = csv_pair
    proc = run_cli("audit", "--synthetic", synth, "--eps", "auto")
    assert proc.returncode == 0
    proc = run_cli("audit", "--synthetic", synth, "--eps", "wide")
    assert proc.returncode == 2
    assert "argument --eps: 'wide' is not a number" in proc.stderr


def test_verify_subcommand_detects_tampering(csv_pair, tmp_path):
    synth, real = csv_pair
    out = tmp_path / "out"
    run_cli("audit", "--synthetic", synth, "--real", real, "--out", out,
            "--eps", "0.05", check=True)
    report = out / "report.json"

    proc = run_cli("verify", report)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "verify: ok"

    doc = json.loads(report.read_text())
    doc["dmin_summary"]["mean"] += 0.5
    report.write_text(json.dumps(doc, indent=2) + "\n")
    proc = run_cli("verify", report)
    assert proc.returncode == 1
    assert "verify:" in proc.stderr
    assert "dmin_summary.mean" in proc.stderr


@pytest.mark.parametrize("change", ["extra", "missing"])
def test_verify_exits_2_naming_a_bad_meta_key(csv_pair, tmp_path, change):
    synth, real = csv_pair
    out = tmp_path / "out"
    run_cli("audit", "--synthetic", synth, "--real", real, "--out", out,
            "--eps", "0.05", check=True)
    report = out / "report.json"
    doc = json.loads(report.read_text())
    if change == "extra":
        doc["meta"]["extra"] = 1
    else:
        del doc["meta"]["eps"]
    report.write_text(json.dumps(doc, indent=2) + "\n")
    proc = run_cli("verify", report)
    assert proc.returncode == 2
    want = {"extra": "has an unknown key 'extra'", "missing": "is missing the key 'eps'"}
    assert f"cmla: report meta {want[change]}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_exits_2_on_a_report_missing_clustering_n_core(csv_pair, tmp_path, capsys):
    synth, real = csv_pair
    out = tmp_path / "out"
    assert main(["audit", "--synthetic", str(synth), "--real", str(real), "--out", str(out),
                 "--eps", "0.05"]) == 0
    report = out / "report.json"
    doc = json.loads(report.read_text())
    del doc["clustering"]["n_core"]
    report.write_text(json.dumps(doc, indent=2) + "\n")
    capsys.readouterr()
    assert main(["verify", str(report)]) == 2
    assert "cmla: report clustering is missing the key 'n_core'" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("grid", "taus", "abc"),
    ("clustering", "cluster_sizes", 5),
    ("meta", "min_samples", "x"),
    ("curves", "asr", None),
])
def test_verify_exits_2_naming_a_malformed_report_value(csv_pair, tmp_path, capsys,
                                                        section, key, value):
    synth, real = csv_pair
    out = tmp_path / "out"
    assert main(["audit", "--synthetic", str(synth), "--real", str(real), "--out", str(out),
                 "--eps", "0.05"]) == 0
    report = out / "report.json"
    doc = json.loads(report.read_text())
    doc[section][key] = value
    report.write_text(json.dumps(doc, indent=2) + "\n")
    capsys.readouterr()
    assert main(["verify", str(report)]) == 2
    assert f"cmla: report {section} has a malformed {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"{", b"\xff\xfe"])
def test_verify_exits_2_naming_an_unreadable_report(tmp_path, capsys, content):
    report = tmp_path / "report.json"
    report.write_bytes(content)
    assert main(["verify", str(report)]) == 2
    assert "cmla: report.json: invalid JSON: " in capsys.readouterr().err


def bad_order(grid):
    grid["taus"][3] = grid["taus"][2]


def negative_start(grid):
    grid["taus"][0] = -0.01


def off_grid_mark(grid):
    grid["marks"][0] = 0.123


def infinite_last(grid):
    grid["taus"][-1] = float("inf")


@pytest.mark.parametrize("change, message", [
    (bad_order, "thresholds must be strictly increasing"),
    (negative_start, "thresholds must be non-negative"),
    (off_grid_mark, "threshold 0.123 is not on the grid"),
    (infinite_last, "thresholds must be finite"),
])
def test_verify_exits_2_naming_the_grid_that_breaks_its_laws(csv_pair, tmp_path, caplog,
                                                            capsys, change, message):
    synth, real = csv_pair
    out = tmp_path / "out"
    assert main(["audit", "--synthetic", str(synth), "--real", str(real), "--out", str(out),
                 "--eps", "0.05"]) == 0
    report = out / "report.json"
    doc = json.loads(report.read_text())
    change(doc["grid"])
    report.write_text(json.dumps(doc, indent=2) + "\n")
    capsys.readouterr()
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="cmla"):
        assert main(["verify", str(report)]) == 2
    assert capsys.readouterr().err == f"cmla: report grid: {message}\n"
    assert not [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage")]


def test_verify_flag_requires_out(csv_pair):
    synth, real = csv_pair
    proc = run_cli("audit", "--synthetic", synth, "--real", real,
                   "--eps", "0.05", "--verify")
    assert proc.returncode == 2
    assert "--verify needs --out" in proc.stderr
    assert "stage" not in proc.stderr
    assert proc.stdout == ""


def test_audit_with_no_marks_prints_only_the_summary(csv_pair, tmp_path, capsys):
    synth, real = csv_pair
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"marks": []}))
    capsys.readouterr()
    assert main(["audit", "--synthetic", str(synth), "--real", str(real),
                 "--eps", "0.05", "--config", str(cfg)]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("M=")


def scenario_doc(order):
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


def test_scenario_subcommand_prints_readouts(tmp_path):
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(scenario_doc(["memorizer", "independent"])))
    proc = run_cli("scenario", sp, "--out", tmp_path / "run")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("memorizer: clusters=")
    assert "asr@0.1=" in lines[0] and "asr@0.5=" in lines[0]
    assert lines[1].startswith("independent: clusters=")


def test_malformed_scenario_fields_exit_2(tmp_path, capsys):
    def no_label(doc):
        del doc["generators"][0]["label"]

    def wordy_size(doc):
        doc["generators"][0]["n_samples"] = "many"

    def real_as_list(doc):
        doc["real"] = []

    def misspelled_ordering(doc):
        doc["expected_orderng"] = doc.pop("expected_ordering")

    def sd_for_sigma(doc):
        doc["real"]["components"][1]["sd"] = doc["real"]["components"][1].pop("sigma")

    def fractional_size(doc):
        doc["generators"][1]["n_samples"] = 2000.7

    def text_columns(doc):
        doc["real"]["numeric_columns"] = "xy"

    def text_means(doc):
        doc["real"]["components"][0]["means"] = "12"

    def bool_sigma(doc):
        doc["real"]["components"][0]["sigma"] = True

    def text_weight(doc):
        doc["real"]["components"][1]["weight"] = "2"

    def number_name(doc):
        doc["name"] = 5

    def number_label(doc):
        doc["generators"][0]["label"] = 7

    def text_vocab(doc):
        doc["real"]["categorical_columns"]["tag"] = "ab"

    def text_order(doc):
        doc["expected_ordering"]["order"] = "mn"

    def bool_probability(doc):
        doc["real"]["components"][0]["categorical"]["tag"]["a"] = True

    def infinite_weight(doc):
        doc["real"]["components"][0]["weight"] = float("inf")

    def infinite_mean(doc):
        doc["real"]["components"][1]["means"][0] = float("inf")

    def nan_component_sigma(doc):
        doc["real"]["components"][0]["sigma"] = float("nan")

    def infinite_probability(doc):
        doc["real"]["components"][1]["categorical"]["tag"]["b"] = float("inf")

    def nan_noised_sigma(doc):
        doc["generators"][1].update(kind="noised", sigma=float("nan"))

    def nan_tau(doc):
        doc["expected_ordering"]["tau"] = float("nan")

    def empty_vocab(doc):
        doc["real"]["categorical_columns"]["tag"] = []
        for component in doc["real"]["components"]:
            del component["categorical"]

    named = {
        no_label: "generators[0] is missing the key 'label'",
        wordy_size: "generators[0] has a malformed 'n_samples': expected int",
        real_as_list: "the scenario has a malformed 'real': expected object",
        misspelled_ordering: "the scenario has an unknown key 'expected_orderng'",
        sd_for_sigma: "real.components[1] has an unknown key 'sd'",
        fractional_size: "generators[1] has a malformed 'n_samples': expected int",
        text_columns: "real has a malformed 'numeric_columns'",
        text_means: "real.components[0] has a malformed 'means'",
        bool_sigma: "real.components[0] has a malformed 'sigma'",
        text_weight: "real.components[1] has a malformed 'weight'",
        number_name: "the scenario has a malformed 'name'",
        number_label: "generators[0] has a malformed 'label'",
        text_vocab: "real has a malformed 'categorical_columns'",
        text_order: "expected_ordering has a malformed 'order'",
        bool_probability: "real.components[0] has a malformed 'categorical'",
        infinite_weight: "real: component sigma and weight must be finite and non-negative",
        infinite_mean: "real: component means must be finite, got (inf, 0.0)",
        nan_component_sigma: "real: component sigma and weight must be finite and non-negative",
        infinite_probability: "real: invalid probabilities for column 'tag'",
        nan_noised_sigma: "generators[1]: sigma must be finite, got nan",
        nan_tau: "expected_ordering: tau must be finite, got nan",
        empty_vocab: "real: categorical column 'tag' declares no categories",
    }
    for i, change in enumerate(named):
        doc = scenario_doc(["memorizer", "independent"])
        change(doc)
        sp = tmp_path / f"scenario{i}.json"
        sp.write_text(json.dumps(doc))
        assert main(["scenario", str(sp), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"cmla: {sp.name}: " in err, change.__name__
        assert named[change] in err, change.__name__


@pytest.mark.parametrize("label", ["..", ".", "a/b", "a\\b", ""])
def test_generator_label_must_stay_inside_out(tmp_path, capsys, label):
    doc = scenario_doc(["memorizer", "independent"])
    doc["generators"][0]["label"] = label
    doc["expected_ordering"] = None
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(doc))
    work = tmp_path / "work"
    assert main(["scenario", str(sp), "--out", str(work / "run")]) == 2
    assert f"generators[0]: generator label {label!r}" in capsys.readouterr().err
    assert not work.exists()


def relabel(label):
    """A scenario change giving the first generator this label."""
    def change(doc):
        doc["generators"][0]["label"] = label
        doc["expected_ordering"] = None
    return change


@pytest.mark.parametrize("change, message", [
    (lambda doc: doc["expected_ordering"].update(tau=0.123),
     "expected_ordering.tau: threshold 0.123 is not on the grid"),
    (lambda doc: doc["audit"].update(seed=7), "the audit section may not set 'seed'"),
    (lambda doc: doc["audit"].update(out="elsewhere"), "the audit section may not set 'out'"),
    (lambda doc: doc["real"]["numeric_columns"].append("tag"),
     "real: column 'tag' is declared twice"),
    (lambda doc: doc["audit"].update(grid="0.1:0.101:0.0000002", marks=[0.1000002, 0.1000004]),
     "the audit section: marks 0.1000002 and 0.1000004 would both write heatmap_tau0.1.csv"),
    (lambda doc: doc.update(name="generator"),
     "name 'generator' would write heatmap_tau0.1.csv with the header generator,generator"),
    *[(relabel(label), f"generator label {label!r} names a file that the scenario writes itself")
      for label in ["real", "data", "scenario_summary.json", "heatmap_tau0.1.csv",
                    "heatmap_tau7.csv"]],
    (relabel("mem\0x"), "generators[0]: generator label 'mem\\x00x' must be a plain file name"),
])
def test_scenario_faults_exit_2_before_any_table(tmp_path, capsys, change, message):
    doc = scenario_doc(["memorizer", "independent"])
    change(doc)
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(doc))
    assert main(["scenario", str(sp), "--out", str(tmp_path / "run")]) == 2
    assert f"cmla: scenario.json: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run" / "data").exists()


def test_unwritable_outputs_exit_2_with_one_line(csv_pair, tmp_path, caplog, capsys):
    # exit 1 means a failed check; a path the OS refuses is bad input, and
    # it is refused before the first stage
    synth, _ = csv_pair
    taken = tmp_path / "taken"
    taken.write_text("")
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(scenario_doc(["memorizer", "independent"])))
    cfg = tmp_path / "nul.json"
    cfg.write_text(json.dumps({"out": "o\u0000ut"}))
    runs = {
        "audit": (["audit", "--synthetic", str(synth), "--out", str(taken)], "File exists"),
        "audit NUL": (["audit", "--synthetic", str(synth), "--config", str(cfg)],
                      "out may not hold a NUL byte"),
        "scenario": (["scenario", str(sp), "--out", str(taken)], "Not a directory"),
        "encode": (["encode", "--synthetic", str(synth),
                    "--out", str(tmp_path / "missing" / "x.csv")], "No such file or directory"),
    }
    for command, (argv, reason) in runs.items():
        capsys.readouterr()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="cmla"):
            assert main(argv) == 2, command
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("cmla: ") and reason in err[-1], command
        assert not any("Traceback" in line for line in err), command
        assert not [r for r in caplog.records if r.getMessage().startswith("stage")], command


def test_scenario_named_generator_runs_when_it_writes_no_heatmap(tmp_path):
    # only a heatmap's header clashes with that name
    doc = scenario_doc(["memorizer", "independent"])
    doc.update(name="generator")
    doc["audit"]["marks"] = []
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(doc))
    assert main(["scenario", str(sp), "--out", str(tmp_path / "run")]) == 0
    assert not list((tmp_path / "run").glob("heatmap_*"))


def test_scenario_ordering_violation_exits_1(tmp_path):
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(scenario_doc(["independent", "memorizer"])))
    proc = run_cli("scenario", sp, "--out", tmp_path / "run")
    assert proc.returncode == 1
    assert "declared ordering violated" in proc.stderr


def test_encode_subcommand_dumps_features(csv_pair, tmp_path):
    synth, real = csv_pair
    out = tmp_path / "encoded.csv"
    proc = run_cli("encode", "--synthetic", synth, "--table", real, "--out", out)
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "row_id,x,y"
    assert len(lines) == 1 + 30
    first = lines[1].split(",")
    assert first[0] == "0"
    float(first[1]), float(first[2])


def test_encode_quotes_categories_holding_commas_and_quotes(tmp_path, capsys):
    synth = tmp_path / "synthetic.csv"
    with open(synth, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(
            [["x", "c"]] + [[f"{i}.0", ("a,b", 'q"z', "plain")[i % 3]] for i in range(9)]
        )
    out = tmp_path / "encoded.csv"
    assert main(["encode", "--synthetic", str(synth), "--out", str(out)]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row_id", "x", "c=a,b", 'c=q"z', "c=plain"]
    assert len(rows) == 10
    assert {len(r) for r in rows} == {5}


def test_config_file_provides_defaults_cli_overrides(csv_pair, tmp_path, capsys):
    synth, real = csv_pair
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "real": str(real), "eps": 0.05, "min_samples": 5, "scale": "zscore",
    }))

    out1 = tmp_path / "out1"
    code = main(["audit", "--synthetic", str(synth), "--config", str(cfg),
                 "--out", str(out1)])
    assert code == 0
    assert json.loads((out1 / "report.json").read_text())["meta"]["scale"] == "zscore"

    out2 = tmp_path / "out2"
    code = main(["audit", "--synthetic", str(synth), "--config", str(cfg),
                 "--out", str(out2), "--scale", "minmax"])
    assert code == 0
    assert json.loads((out2 / "report.json").read_text())["meta"]["scale"] == "minmax"
    capsys.readouterr()


def test_unknown_config_key_exits_2(csv_pair, tmp_path, capsys):
    synth, _ = csv_pair
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"verbose": True}))
    code = main(["audit", "--synthetic", str(synth), "--config", str(cfg)])
    assert code == 2
    assert "has an unknown key 'verbose'" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_exits_2(csv_pair, tmp_path, capsys):
    synth, _ = csv_pair
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'{"scale": "\xff"}')
    assert main(["audit", "--synthetic", str(synth), "--config", str(cfg)]) == 2
    assert "cmla: config.json: invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("fault", [None, b'{"name": "\xff"}', b"{not json"],
                         ids=["missing", "not-utf8", "not-json"])
@pytest.mark.parametrize("source", ["scenario", "config", "verify"])
def test_every_json_input_fails_alike(csv_pair, tmp_path, capsys, source, fault):
    path = tmp_path / "input.json"
    if fault is not None:
        path.write_bytes(fault)
    argv = {
        "scenario": ["scenario", str(path), "--out", str(tmp_path / "run")],
        "config": ["audit", "--synthetic", str(csv_pair[0]), "--config", str(path)],
        "verify": ["verify", str(path)],
    }[source]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    if fault is None:
        assert err == f"cmla: no such file: {path}\n"
    else:
        assert err.startswith("cmla: input.json: invalid JSON: ")
        assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_missing_synthetic_everywhere_exits_2(capsys):
    code = main(["audit", "--eps", "0.1"])
    assert code == 2
    assert "is missing the key 'synthetic'" in capsys.readouterr().err


# Each malformed setting with the key its message must name. "mark" is the
# old --config spelling of marks: it is an unknown key now, not a default.
BAD_SETTINGS = [
    ({"records": "false"}, "records"),
    ({"min_samples": 2.7}, "min_samples"),
    ({"min_samples": "x"}, "min_samples"),
    ({"min_samples": True}, "min_samples"),
    ({"eps": True}, "eps"),
    ({"eps": "abc"}, "eps"),
    ({"marks": [0.1, "x"]}, "marks"),
    ({"marks": "0.1,x"}, "marks"),
    ({"marks": 0.1}, "marks"),
    ({"mark": [0.1, 0.5]}, "mark"),
    ({"grid": 5}, "grid"),
    ({"pca": 1.5}, "pca"),
    ({"scale": 1}, "scale"),
    ({"eps": "inf"}, "eps"),
    ({"eps": 0}, "eps"),
    ({"min_samples": 0}, "min_samples"),
    ({"grid": "nan:1:0.1"}, "grid"),
    ({"grid": "0:inf:0.1"}, "grid"),
    ({"grid": "0:1e30:1e-30"}, "grid"),
    ({"grid": "0:1e6:1"}, "grid"),
    ({"min_samples": "5"}, "min_samples"),
    ({"min_samples": 5.0}, "min_samples"),
    ({"eps": "0.05"}, "eps"),
    ({"seed": "7"}, "seed"),
    ({"marks": "0.1,0.5"}, "marks"),
]


@pytest.mark.parametrize("source", ["config", "scenario"])
@pytest.mark.parametrize("bad, key", BAD_SETTINGS)
def test_malformed_settings_exit_2_naming_the_key(csv_pair, tmp_path, capsys, source, bad, key):
    synth, _ = csv_pair
    if source == "config":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"eps": 0.05, **bad}))
        code = main(["audit", "--synthetic", str(synth), "--config", str(path)])
    else:
        doc = scenario_doc(["memorizer", "independent"])
        doc["audit"].update(bad)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code = main(["scenario", str(path), "--out", str(tmp_path / "run")])
        assert not (tmp_path / "run" / "data").exists()
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(rf"^cmla: .*\b{key}\b", err, re.MULTILINE), err


@pytest.mark.parametrize("source", ["config", "scenario"])
@pytest.mark.parametrize("bad", ["0.05", True, [0.05]])
def test_malformed_eps_message_names_auto(csv_pair, tmp_path, capsys, source, bad):
    synth, _ = csv_pair
    if source == "config":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"eps": bad}))
        code = main(["audit", "--synthetic", str(synth), "--config", str(path)])
        where = "audit: the configuration"
    else:
        doc = scenario_doc(["memorizer", "independent"])
        doc["audit"]["eps"] = bad
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code = main(["scenario", str(path), "--out", str(tmp_path / "run")])
        where = "scenario.json: the audit section"
    assert code == 2
    want = f"""cmla: {where} has a malformed 'eps': expected float | "auto" | None\n"""
    assert capsys.readouterr().err == want


def test_scenario_grid_fault_names_the_file_and_the_audit_section(tmp_path, capsys):
    doc = scenario_doc(["memorizer", "independent"])
    doc["audit"]["grid"] = "0:inf:0.1"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code = main(["scenario", str(path), "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == (
        "cmla: scenario.json: the audit section: grid spec must be finite, got '0:inf:0.1'\n"
    )
    assert not (tmp_path / "run" / "data").exists()


@pytest.mark.parametrize("flag, value", [
    ("--eps", "0"), ("--eps", "inf"), ("--min-samples", "0"), ("--grid", "nan:1:0.1"),
])
def test_malformed_setting_fails_before_any_stage(csv_pair, tmp_path, caplog, capsys,
                                                  flag, value):
    synth, real = csv_pair
    with caplog.at_level(logging.INFO, logger="cmla"):
        code = main(["audit", "--synthetic", str(synth), "--real", str(real),
                     "--out", str(tmp_path / "out"), flag, value])
    assert code == 2
    key = flag[2:].replace("-", "_")
    assert re.search(rf"^cmla: .*\b{key}\b", capsys.readouterr().err, re.MULTILINE)
    assert not [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage")]
    assert not (tmp_path / "out").exists()


def test_a_missing_real_table_fails_before_any_stage(csv_pair, tmp_path, caplog, capsys):
    synth, _ = csv_pair
    missing = tmp_path / "nope.csv"
    capsys.readouterr()
    with caplog.at_level(logging.INFO, logger="cmla"):
        code = main(["audit", "--synthetic", str(synth), "--real", str(missing),
                     "--out", str(tmp_path / "out"), "--eps", "0.05"])
    assert code == 2
    assert capsys.readouterr().err == f"cmla: error in stage load-real: no such file: {missing}\n"
    assert not [r.getMessage() for r in caplog.records if r.getMessage().startswith("stage")]
    assert not (tmp_path / "out").exists()


class Recorded(Exception):
    pass


def recorded_config(monkeypatch, argv) -> AuditConfig:
    """The AuditConfig the command hands to its first audit, paths and labels
    blanked."""
    seen = []

    def record(config, grid_override=None):
        seen.append(config)
        raise Recorded

    monkeypatch.setattr(audit, "run_audit", record)
    with pytest.raises(Recorded):
        main(argv)
    return replace(seen[0], synthetic="", real=None, out=None,
                   dataset_label=None, generator_label=None)


def test_flags_config_file_and_scenario_section_agree(csv_pair, tmp_path, monkeypatch):
    synth, real = csv_pair
    settings = {"eps": 0.2, "min_samples": 15, "scale": "zscore", "pca": 2,
                "grid": "0:1:0.05", "marks": [0.1, 0.5], "metric": "gower", "records": True}
    want = AuditConfig(synthetic="", seed=404, **{**settings, "marks": (0.1, 0.5)})

    flags = recorded_config(monkeypatch, [
        "audit", "--synthetic", str(synth), "--real", str(real), "--eps", "0.2",
        "--min-samples", "15", "--scale", "zscore", "--pca", "2", "--grid", "0:1:0.05",
        "--mark", "0.1,0.5", "--metric", "gower", "--records", "--seed", "404",
    ])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**settings, "seed": 404, "real": str(real)}))
    from_file = recorded_config(monkeypatch, [
        "audit", "--synthetic", str(synth), "--config", str(cfg),
    ])
    doc = scenario_doc(["memorizer", "independent"])
    doc["audit"] = settings
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(doc))
    from_scenario = recorded_config(monkeypatch, [
        "scenario", str(sp), "--out", str(tmp_path / "run"),
    ])
    assert flags == from_file == from_scenario == want


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert re.fullmatch(r"cmla \d+\.\d+\.\d+", proc.stdout.strip())


def test_console_script_is_installed():
    proc = subprocess.run(["cmla", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("cmla ")
