"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run  # puts the checkout's src on sys.path before the cmla imports below
import gate
import tracing
import workloads
from cmla import kernels

SEED = 5


def tiny(name: str) -> workloads.Workload:
    w = workloads.WORKLOADS[name]
    scale = 40 if w.n_real > 10_000 else 20
    return replace(w, n_real=w.n_real // scale,
                   generator=replace(w.generator, n_samples=w.generator.n_samples // 20))


def tiny_runner(name: str, tmp_path: Path) -> run.Runner:
    w = tiny(name)
    workloads.generate(w, SEED, tmp_path / "inputs")
    return run.Runner(w, SEED, tmp_path / "inputs", tmp_path / "out")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_builds_and_audits_at_tiny_size(name, tmp_path):
    runner = tiny_runner(name, tmp_path)
    record = runner.audit()
    assert record["problems"] == []
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["clustering"]["n_clusters"] >= 1
    assert report["meta"]["n_real_rows"] == runner.workload.n_real


def test_generation_repeats_for_a_seed(tmp_path):
    w = tiny("wide-real")
    workloads.generate(w, SEED, tmp_path / "a")
    workloads.generate(w, SEED, tmp_path / "b")
    workloads.generate(w, SEED + 1, tmp_path / "c")
    for name in (workloads.SYNTHETIC_CSV, workloads.REAL_CSV):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "c" / name).read_bytes()


@pytest.fixture
def dense_out(tmp_path) -> Path:
    runner = tiny_runner("dense-memorizer", tmp_path)
    assert runner.audit()["problems"] == []
    return runner.out


def test_gate_flags_one_flipped_label(dense_out):
    golden = gate.digests(dense_out)
    assert gate.check(dense_out, 0, memorizer=True, golden=golden) == []
    labels = dense_out / "labels.csv"
    lines = labels.read_text(encoding="utf-8").splitlines(keepends=True)
    row_id, label = lines[1].rstrip("\r\n").split(",")
    lines[1] = f"{row_id},{int(label) + 1}\r\n"
    labels.write_text("".join(lines), encoding="utf-8")
    assert gate.check(dense_out, 0, memorizer=True, golden=golden) == [
        "labels.csv differs from the golden digest"
    ]


def test_gate_flags_one_changed_report_byte_but_not_the_input_paths(dense_out):
    golden = gate.digests(dense_out)
    report = dense_out / "report.json"
    text = report.read_text(encoding="utf-8")
    moved = text.replace(json.dumps(str(dense_out.parent / "inputs" / "real.csv")),
                         json.dumps("/elsewhere/real.csv"))
    assert moved != text
    report.write_text(moved, encoding="utf-8")
    assert gate.check(dense_out, 0, memorizer=True, golden=golden) == []

    i = text.index('"n_noise": ') + len('"n_noise": ')
    changed = text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]
    report.write_text(changed, encoding="utf-8")
    assert gate.check(dense_out, 0, memorizer=True, golden=golden) == [
        "report.json differs from the golden digest"
    ]


def test_gate_checks_curve_laws_and_memorizer_exactness(dense_out):
    curves = dense_out / "curves.csv"
    lines = curves.read_text(encoding="utf-8").splitlines(keepends=True)
    tau, _, coverage = lines[-1].rstrip("\r\n").split(",")
    lines[-1] = f"{tau},0.5,{coverage}\r\n"
    curves.write_text("".join(lines), encoding="utf-8")
    assert gate.check(dense_out, 0, memorizer=True, golden=None) == [
        "asr curve decreases",
        "memorizer ASR(tau) < 1 for some tau > 0",
    ]
    assert gate.check(dense_out, 2, memorizer=True, golden=None) == ["exit code 2"]


def span(i, name, start, end, parent=None):
    return tracing.Span(i, name, start, end, parent, audit=1)


def test_self_times_on_a_hand_built_span_tree():
    spans = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "audit.run_audit", 1.0, 9.0, parent=0),
        span(2, "clustering.dbscan", 2.0, 6.0, parent=1),
        span(3, "kernels.neighbor_lists", 2.5, 4.0, parent=2),
        span(4, "kernels.kth_neighbor_distances", 4.0, 5.5, parent=2),
        span(5, "report.emit", 7.0, 8.0, parent=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 3.0, 1.0, 1.5, 1.5, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span(0, "p", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 3.0, 6.0, parent=0),
        span(3, "c", 9.0, 12.0, parent=0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_traced_audit_accounts_for_its_time_and_restores_the_program(tmp_path):
    originals = {(m, a): getattr(sys.modules[f"cmla.{m}"], a) for m, a, _, _ in tracing.LAYERS}
    runner = tiny_runner("sparse-auto-eps", tmp_path)
    tracer = tracing.Tracer()
    with tracer:
        record = runner.audit(tracer)
    assert record["problems"] == []
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[f"cmla.{m}"], a) is fn
    (root,) = [s for s in tracer.spans if s.name == tracing.ROOT_SPAN]
    assert root.end - root.start <= record["audit_s"]
    layers = tracing.layer_metrics(tracer.spans)
    accounted = sum(v for k, v in layers.items() if k.endswith((".s", ".self_s")))
    assert accounted == pytest.approx(root.end - root.start, rel=1e-9)
    n = runner.workload.generator.n_samples
    assert layers["kernels.neighbor_lists.evals"] == n * n
    assert layers["kernels.kth_neighbor_distances.evals"] == n * n
    assert layers["kernels.neighbor_lists.bytes"] == 8 * layers["kernels.neighbor_lists.edges"]
    assert layers["tables.load_csv.rows"] == n + runner.workload.n_real
    assert layers["clustering.core_rows"] + layers["clustering.noise_rows"] <= n
    assert layers["kernels.cross_min_distances.evals"] == (
        layers["clustering.clusters"] * runner.workload.n_real
    )
    assert layers["report.emit.bytes"] == sum(p.stat().st_size for p in runner.out.iterdir())


def test_single_thread_baseline_restores_the_thread_setting(tmp_path, monkeypatch):
    monkeypatch.delenv("CMLA_THREADS", raising=False)
    runner = tiny_runner("wide-real-gower", tmp_path)
    metrics = run.traced_metrics(runner, 0.0, tracing.Tracer())
    assert "CMLA_THREADS" not in os.environ
    assert [r["threads"] for r in runner.records] == [kernels.thread_count()] * 3 + [1]
    assert all(r["problems"] == [] for r in runner.records)
    assert metrics["kernels.cross_min_distances.evals"] == 0
    assert metrics["kernels.neighbor_lists.speedup_1t"] > 0


def test_benchmark_json_matches_what_run_prints():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.TRACE_UNITS
    assert set(json.loads(gate.GOLDEN.read_text(encoding="utf-8"))) == set(workloads.WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-memorizer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
