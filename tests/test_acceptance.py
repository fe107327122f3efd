"""Acceptance gate: ten numbered criteria, one verdict per test.

Each test prints an `ACCEPTANCE <criterion>: PASS|FAIL` line (visible under
pytest -s, and in the failure output otherwise) and `pytest -v` shows one
PASSED/FAILED line per criterion. The randomized criteria use fixed seeds so
the whole gate is reproducible; the scenario-backed criteria share a single
run of tests/data/ordering_scenario.json.
"""

import json
import math
import re
import time

import numpy as np
import pytest

from cmla.audit import AuditConfig, run_audit, run_scenario, verify_report_file
from cmla.clustering import DbscanParams, dbscan, extract_medoids
from cmla.encoding import encode, fit_encoding
from cmla.kernels import dists_to
from cmla.metrics import (
    DistanceRecord,
    ThresholdGrid,
    asr_curve,
    coverage_from_minima,
    default_grid,
    proximity_profile,
    summarize_dmin,
)
from cmla.report import format_summary_row, parse_json, render_json
from cmla.tables import load_csv

import reference
from conftest import DATA_DIR, clustered_cloud, matrix, medoid_set, mixed_table, numeric_table


def _verdict(name: str, problems: list) -> None:
    print(f"ACCEPTANCE {name}: {'FAIL' if problems else 'PASS'}")
    assert not problems, f"{name}: " + "; ".join(str(p) for p in problems[:10])


@pytest.fixture(scope="module")
def scenario_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_scenario")
    t0 = time.perf_counter()
    outcome = run_scenario(DATA_DIR / "ordering_scenario.json", out)
    elapsed = time.perf_counter() - t0
    return outcome, elapsed


def test_criterion_01_clustering_matches_density_reference(rng):
    problems = []
    t0 = time.perf_counter()
    for case in range(100):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(1, 5))
        x = clustered_cloud(rng, n, d, duplicates=float(rng.uniform(0, 0.2)))
        eps = float(rng.uniform(0.2, 1.5))
        min_samples = int(rng.integers(2, 9))

        labeling = dbscan(matrix(x), DbscanParams(eps=eps, min_samples=min_samples))
        ref_labels, ref_core = reference.eps_graph_clustering(x, eps, min_samples)

        if not np.array_equal(labeling.core_mask, ref_core):
            problems.append(f"case {case}: core mask differs")
        if not np.array_equal(labeling.labels, ref_labels):
            problems.append(f"case {case}: labels differ")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.2f}s, budget is 10s")
    _verdict("clustering-vs-reference", problems)


def test_criterion_02_metrics_bitwise_vs_double_loop(rng):
    problems = []
    grid = default_grid()
    taus = [float(t) for t in grid.taus]
    for case in range(100):
        k = int(rng.integers(1, 51))
        n = int(rng.integers(20, 1001))
        d = int(rng.integers(1, 6))
        meds = rng.uniform(-2, 2, (k, d))
        real = rng.uniform(-2, 2, (n, d))
        if case % 3 == 0:
            # force exact hits and ties
            meds[0] = real[0]
            if k > 1 and n > 1:
                real[1] = real[0]

        profile = proximity_profile(medoid_set(meds), matrix(real))
        asr = asr_curve(profile.records, grid)
        cov = coverage_from_minima(profile.per_real_min, grid)
        r_dmin, r_nearest, r_per_real, r_asr, r_cov = reference.double_loop_metrics(
            meds, real, taus
        )

        if [r.d_min for r in profile.records] != r_dmin:
            problems.append(f"case {case}: d_min differs")
        if [r.nearest_real_row_id for r in profile.records] != r_nearest:
            problems.append(f"case {case}: nearest ids differ")
        if profile.per_real_min.tolist() != r_per_real:
            problems.append(f"case {case}: per-real minima differ")
        if asr.tolist() != r_asr:
            problems.append(f"case {case}: asr differs")
        if cov.tolist() != r_cov:
            problems.append(f"case {case}: coverage differs")
    _verdict("metrics-vs-double-loop", problems)


def test_criterion_03_medoids_exhaustively_optimal(rng, scenario_run):
    problems = []
    checked = 0
    for case in range(60):
        n = int(rng.integers(20, 301))
        d = int(rng.integers(1, 4))
        x = clustered_cloud(rng, n, d, duplicates=float(rng.uniform(0, 0.3)))
        mat = matrix(x)
        labeling = dbscan(
            mat,
            DbscanParams(eps=float(rng.uniform(0.3, 1.2)),
                         min_samples=int(rng.integers(2, 7))),
        )
        table = numeric_table(x)
        medoids = extract_medoids(mat, labeling, table)
        chosen = {m.cluster_id: m.row_id for m in medoids.medoids}
        bad = reference.medoid_violations(x, labeling.labels, chosen)
        checked += len(chosen)
        problems.extend(f"case {case}: {v}" for v in bad)

    # the pipeline's own medoids on the scenario tables, same exhaustive check
    outcome, _ = scenario_run
    for label in ("noised", "independent"):
        path = outcome.out_dir / "data" / f"{label}.csv"
        result = run_audit(AuditConfig(synthetic=str(path), eps=0.35, min_samples=100))
        vectors = encode(result.model, load_csv(path, origin="synthetic")).vectors
        chosen = {m.cluster_id: m.row_id for m in result.medoids.medoids}
        bad = reference.medoid_violations(vectors, result.labeling.labels, chosen)
        checked += len(chosen)
        problems.extend(f"{label}: {v}" for v in bad)

    if checked < 100:
        problems.append(f"only {checked} clusters were checked")
    _verdict("medoid-optimality", problems)


def test_criterion_04_curve_laws_hold_on_randomized_runs(rng):
    problems = []
    for case in range(1000):
        k = int(rng.integers(1, 40))
        values = rng.uniform(0.0, 3.0, k)
        values[rng.random(k) < 0.15] = 0.0
        if k > 2:
            values[2] = values[1]
        records = [DistanceRecord(i, i, float(v), 0) for i, v in enumerate(values)]

        if case % 4 == 0:
            grid = default_grid()
        else:
            taus = np.unique(rng.uniform(0.0, 3.0, int(rng.integers(1, 30))))
            grid = ThresholdGrid(np.concatenate(([0.0], taus[taus > 0.0])))

        asr = asr_curve(records, grid)
        per_real = rng.uniform(0.0, 3.0, int(rng.integers(1, 50)))
        cov = coverage_from_minima(per_real, grid)

        for name, curve in (("asr", asr), ("coverage", cov)):
            if curve[0] != 0.0:
                problems.append(f"case {case}: {name}(0) = {curve[0]}")
            if np.any(curve < 0.0) or np.any(curve > 1.0):
                problems.append(f"case {case}: {name} leaves [0, 1]")
            if np.any(np.diff(curve) < 0.0):
                problems.append(f"case {case}: {name} decreases")
        if problems:
            break
    _verdict("curve-laws", problems)


def test_criterion_05_memorizer_is_flagged_as_exact_copies(scenario_run):
    outcome, elapsed = scenario_run
    rpt = outcome.reports["memorizer"]
    problems = []
    if rpt.dmin_summary.median != 0.0:
        problems.append(f"median d_min = {rpt.dmin_summary.median!r}, want exact 0.0")
    if rpt.dmin_summary.max != 0.0:
        problems.append(f"max d_min = {rpt.dmin_summary.max!r}")
    asr = np.asarray(rpt.curves.asr)
    if float(rpt.grid.taus[0]) != 0.0 or asr[0] != 0.0:
        problems.append("asr at tau=0 is not 0")
    if not np.all(asr[1:] == 1.0):
        problems.append(f"asr below 1 at some tau > 0 (min {asr[1:].min()})")
    if elapsed >= 30.0:
        problems.append(f"scenario run took {elapsed:.2f}s, budget is 30s")
    _verdict("memorizer-detection", problems)


def test_criterion_06_generator_ordering_is_separated(scenario_run):
    outcome, _ = scenario_run
    problems = []

    def asr_at(label: str, tau: float) -> float:
        rpt = outcome.reports[label]
        return float(rpt.curves.asr[rpt.grid.index_of(tau)])

    mem = asr_at("memorizer", 0.1)
    noi = asr_at("noised", 0.1)
    ind = asr_at("independent", 0.1)
    if not mem >= noi + 0.2:
        problems.append(f"memorizer {mem} < noised {noi} + 0.2")
    if not noi >= ind:
        problems.append(f"noised {noi} < independent {ind}")
    if not outcome.ordering_ok:
        problems.append("declared ordering flagged as violated")
    # pinned values for the checked-in seed
    if (mem, noi, ind) != (1.0, 0.2, 0.125):
        problems.append(f"pinned readouts moved: {(mem, noi, ind)}")
    _verdict("generator-ordering", problems)


def test_criterion_07_categorical_distance_is_sqrt_2k():
    table = mixed_table(
        numeric={"x": [1.5, 1.5, 1.5, 1.5]},
        categorical={
            "c1": ["a", "b", "b", "b"],
            "c2": ["a", "a", "b", "b"],
            "c3": ["a", "a", "a", "b"],
        },
    )
    model = fit_encoding(table)
    enc = encode(model, table).vectors
    problems = []
    for k in (1, 2, 3):
        got = float(dists_to(enc[0], enc[k : k + 1])[0])
        want = math.sqrt(2.0 * k)
        if abs(got - want) > 1e-12:
            problems.append(f"k={k}: {got!r} vs sqrt(2k)={want!r}")
    _verdict("categorical-distance", problems)


def test_criterion_08_summary_quantiles_are_interpolated():
    s = summarize_dmin([1.0, 2.0, 3.0, 4.0])
    problems = []
    for name, got, want in (
        ("median", s.median, 2.5), ("p10", s.p10, 1.3), ("p90", s.p90, 3.7),
    ):
        if abs(got - want) > 1e-12:
            problems.append(f"{name}: {got!r} vs {want!r}")
    _verdict("summary-quantiles", problems)


def test_criterion_09_reports_verify_and_round_trip(scenario_run):
    outcome, _ = scenario_run
    problems = []
    path = outcome.out_dir / "memorizer" / "report.json"
    problems.extend(verify_report_file(path, tol=1e-9))

    text = path.read_text(encoding="utf-8")
    if render_json(parse_json(text)) != text:
        problems.append("parse/render round trip changed the document bytes")
    if json.loads(text) != json.loads(render_json(parse_json(text))):
        problems.append("round trip changed document values")
    _verdict("verify-round-trip", problems)


def test_criterion_10_summary_row_format():
    problems = []
    row = format_summary_row(summarize_dmin([1.0, 2.0, 3.0, 4.0]))
    want = ("M=4, min=1.0000, mean=2.5000, median=2.5000, max=4.0000, "
            "p10=1.3000, p90=3.7000")
    if row != want:
        problems.append(f"frozen row mismatch: {row!r}")
    pattern = (r"M=\d+, min=-?\d+\.\d{4}, mean=-?\d+\.\d{4}, median=-?\d+\.\d{4}, "
               r"max=-?\d+\.\d{4}, p10=-?\d+\.\d{4}, p90=-?\d+\.\d{4}")
    if not re.fullmatch(pattern, row):
        problems.append("row does not match the four-decimal layout")
    _verdict("summary-format", problems)
