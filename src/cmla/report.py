"""Leakage report assembly, serialization, and file emission.

The report is a versioned JSON document. Floats are serialized at full repr
precision (at least 6 significant digits, and lossless on reload), keys keep a
fixed order, and no timestamp enters any emitted file, so rendering the same
audit twice gives byte-identical output and render -> parse -> render is the
identity on bytes.

report_from_dict reads a document back with documents.read; the private
dataclasses _Document and its sections, in report_to_dict's layout, are the
schema.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__, documents
from .clustering import ClusterLabeling, MedoidSet
from .errors import ConfigError, CurveError, LineageError
from .metrics import (
    DistanceRecord,
    DminSummary,
    MetricCurves,
    ThresholdGrid,
)

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunMeta:
    # keyword-only, so it can lead the serialized section and keep its default
    tool_version: str = field(default=__version__, kw_only=True)
    dataset_label: str
    generator_label: str
    synthetic_path: str
    real_path: str | None
    n_synthetic_rows: int
    n_real_rows: int | None
    scale: str
    metric: str
    pca_dim: int | None
    encoded_dim: int
    eps: float
    eps_mode: str
    min_samples: int
    seed: int | None
    model_hash: str


@dataclass(frozen=True)
class ReferenceReadout:
    tau: float
    asr: float
    coverage: float


@dataclass(eq=False)
class LeakageReport:
    meta: RunMeta
    n_clusters: int
    cluster_sizes: list[int]
    n_noise: int
    n_core: int
    grid: ThresholdGrid
    dmin_summary: DminSummary | None
    curves: MetricCurves | None
    readouts: list[ReferenceReadout] | None
    records: list[DistanceRecord] | None


def build_report(
    meta: RunMeta,
    labeling: ClusterLabeling,
    medoids: MedoidSet,
    grid: ThresholdGrid,
    dmin_summary: DminSummary | None,
    curves: MetricCurves | None,
    records: list[DistanceRecord] | None,
) -> LeakageReport:
    """Assemble the report, checking artifact lineage and deriving the
    reference readouts from the curve values so they agree exactly."""
    if labeling.model_hash != meta.model_hash or medoids.model_hash != meta.model_hash:
        raise LineageError("report inputs come from different encoding models")
    if len(medoids) != labeling.n_clusters:
        raise LineageError("medoid count does not match the cluster count")
    readouts = None
    if curves is not None:
        readouts = []
        for mark in grid.marks:
            i = grid.index_of(mark)
            readouts.append(
                ReferenceReadout(
                    tau=float(grid.taus[i]),
                    asr=float(curves.asr[i]),
                    coverage=float(curves.coverage[i]),
                )
            )
    return LeakageReport(
        meta=meta,
        n_clusters=labeling.n_clusters,
        cluster_sizes=[int(s) for s in medoids.cluster_sizes],
        n_noise=labeling.noise_count,
        n_core=int(labeling.core_mask.sum()),
        grid=grid,
        dmin_summary=dmin_summary,
        curves=curves,
        readouts=readouts,
        records=records,
    )


_CASTS = {"int": int, "float": float}


def _section(obj) -> dict:
    """A flat dataclass as a JSON object in field order. Fields annotated int
    or float (optionally | None) pass through int() or float(), so numpy
    scalars and an int where a float is declared serialize as Python numbers
    of the declared type."""
    doc = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        cast = _CASTS.get(f.type.removesuffix(" | None"))
        doc[f.name] = value if value is None or cast is None else cast(value)
    return doc


def report_to_dict(report: LeakageReport) -> dict:
    doc: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": "leakage_report",
        "meta": _section(report.meta),
        "clustering": {
            "n_clusters": int(report.n_clusters),
            "cluster_sizes": [int(s) for s in report.cluster_sizes],
            "n_noise": int(report.n_noise),
            "n_core": int(report.n_core),
        },
        "grid": {
            "taus": [float(t) for t in report.grid.taus],
            "marks": [float(t) for t in report.grid.marks],
        },
        "dmin_summary": None,
        "curves": None,
        "reference_readouts": None,
        "records": None,
    }
    if report.dmin_summary is not None:
        doc["dmin_summary"] = _section(report.dmin_summary)
    if report.curves is not None:
        doc["curves"] = {
            "asr": [float(v) for v in report.curves.asr],
            "coverage": [float(v) for v in report.curves.coverage],
        }
    if report.readouts is not None:
        doc["reference_readouts"] = [_section(r) for r in report.readouts]
    if report.records is not None:
        doc["records"] = [_section(r) for r in report.records]
    return doc


@dataclass(frozen=True)
class _Clustering:
    n_clusters: int
    cluster_sizes: list[int]
    n_noise: int
    n_core: int


@dataclass(frozen=True)
class _Grid:
    taus: list[float]
    marks: list[float]


@dataclass(frozen=True)
class _Curves:
    asr: list[float]
    coverage: list[float]


@dataclass(frozen=True)
class _Document:
    schema_version: int
    kind: str
    meta: RunMeta
    clustering: _Clustering
    grid: _Grid
    dmin_summary: DminSummary | None
    curves: _Curves | None
    reference_readouts: list[ReferenceReadout] | None
    records: list[DistanceRecord] | None


def report_from_dict(doc: dict) -> LeakageReport:
    if not isinstance(doc, dict) or doc.get("kind") != "leakage_report":
        raise ConfigError("not a leakage report document")
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ConfigError(f"unsupported report schema_version {doc.get('schema_version')!r}")
    d = documents.read(_Document, doc, "document", "report")
    grid = ThresholdGrid(np.asarray(d.grid.taus, dtype=np.float64), d.grid.marks)
    curves = None
    if d.curves is not None:
        curves = MetricCurves(
            taus=grid.taus.copy(),
            asr=np.asarray(d.curves.asr, dtype=np.float64),
            coverage=np.asarray(d.curves.coverage, dtype=np.float64),
        )
    return LeakageReport(
        meta=d.meta,
        n_clusters=d.clustering.n_clusters,
        cluster_sizes=d.clustering.cluster_sizes,
        n_noise=d.clustering.n_noise,
        n_core=d.clustering.n_core,
        grid=grid,
        dmin_summary=d.dmin_summary,
        curves=curves,
        readouts=d.reference_readouts,
        records=d.records,
    )


def render_json(report: LeakageReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def parse_json(text: str) -> LeakageReport:
    return report_from_dict(json.loads(text))


def write_report_json(report: LeakageReport, path: str | Path) -> None:
    Path(path).write_text(render_json(report), encoding="utf-8")


def format_summary_row(summary: DminSummary) -> str:
    """Fixed-format nearest-real summary line, 4 decimals per statistic."""
    s = summary
    return (
        f"M={s.count}, min={s.min:.4f}, mean={s.mean:.4f}, median={s.median:.4f}, "
        f"max={s.max:.4f}, p10={s.p10:.4f}, p90={s.p90:.4f}"
    )


def emit_curves_csv(curves: MetricCurves, path: str | Path) -> None:
    """Write tau,asr,coverage rows, validating the curve laws on the way out:
    thresholds strictly increasing, both curves within [0, 1] and
    non-decreasing."""
    taus = np.asarray(curves.taus, dtype=np.float64)
    if len(taus) > 1 and not np.all(np.diff(taus) > 0.0):
        raise CurveError("thresholds must be strictly increasing")
    for name, values in (("asr", curves.asr), ("coverage", curves.coverage)):
        v = np.asarray(values, dtype=np.float64)
        if len(v) != len(taus):
            raise CurveError(f"{name} curve length does not match the grid")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise CurveError(f"{name} curve leaves [0, 1]")
        if len(v) > 1 and np.any(np.diff(v) < 0.0):
            raise CurveError(f"{name} curve is not non-decreasing")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tau", "asr", "coverage"])
        for t, a, c in zip(taus, curves.asr, curves.coverage):
            writer.writerow([repr(float(t)), repr(float(a)), repr(float(c))])


def write_dmin_records_csv(records: Sequence[DistanceRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id", "medoid_row_id", "d_min", "nearest_real_row_id"])
        for r in records:
            writer.writerow(
                [r.cluster_id, r.medoid_row_id, repr(float(r.d_min)), r.nearest_real_row_id]
            )


def write_heatmap_csv(reports: Sequence[LeakageReport], tau: float, path: str | Path) -> None:
    """Coverage at grid threshold tau of reports on one dataset: a
    generator,<dataset> header, then one row per report that has curves."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["generator", reports[0].meta.dataset_label])
        for rpt in reports:
            if rpt.curves is not None:
                coverage = rpt.curves.coverage[rpt.grid.index_of(tau)]
                writer.writerow([rpt.meta.generator_label, repr(float(coverage))])


def compare_reports(original: dict, recomputed: dict, tol: float = 1e-9) -> list[str]:
    """Structural diff of two report documents. Numbers must agree within tol,
    everything else exactly. Returns human-readable difference lines."""
    diffs: list[str] = []
    _compare("", original, recomputed, tol, diffs)
    return diffs


def _compare(path: str, a, b, tol: float, diffs: list[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            here = f"{path}.{key}" if path else key
            if key not in a:
                diffs.append(f"{here}: missing in original")
            elif key not in b:
                diffs.append(f"{here}: missing in recomputation")
            else:
                _compare(here, a[key], b[key], tol, diffs)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _compare(f"{path}[{i}]", x, y, tol, diffs)
    elif isinstance(a, bool) or isinstance(b, bool):
        if a is not b:
            diffs.append(f"{path}: {a!r} vs {b!r}")
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        fa, fb = float(a), float(b)
        equal = (fa == fb) or (
            math.isfinite(fa) and math.isfinite(fb) and abs(fa - fb) <= tol
        )
        if not equal:
            diffs.append(f"{path}: {a!r} vs {b!r}")
    elif a != b:
        diffs.append(f"{path}: {a!r} vs {b!r}")
