"""Command-line behavior: exit codes, printed lines, config precedence."""

import json
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cmla import audit
from cmla.audit import AuditConfig
from cmla.cli import main


def run_cli(*argv, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "cmla.cli", *map(str, argv)],
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


def test_eps_flag_accepts_auto_and_rejects_junk(csv_pair):
    synth, _ = csv_pair
    proc = run_cli("audit", "--synthetic", synth, "--eps", "auto")
    assert proc.returncode == 0
    proc = run_cli("audit", "--synthetic", synth, "--eps", "wide")
    assert proc.returncode == 2
    assert "cmla: eps must be a number or 'auto', got 'wide'" in proc.stderr


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


def test_verify_flag_requires_out(csv_pair):
    synth, real = csv_pair
    proc = run_cli("audit", "--synthetic", synth, "--real", real,
                   "--eps", "0.05", "--verify")
    assert proc.returncode == 2
    assert "--verify needs --out" in proc.stderr


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
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_synthetic_everywhere_exits_2(capsys):
    code = main(["audit", "--eps", "0.1"])
    assert code == 2
    assert "cmla: synthetic is required" in capsys.readouterr().err


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
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(rf"^cmla: .*\b{key}\b", err, re.MULTILINE), err


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
    doc["audit"] = {**settings, "marks": "0.1,0.5"}
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
