"""Leakage report assembly and serialization.

The report is a versioned JSON document, report.json, and LeakageReport is
its schema: its fields are the document's sections in order, and each
section's fields its keys; grid and curves are the pipeline's own
ThresholdGrid and MetricCurves. documents.write renders them and
documents.read reads them back, so the layout lives in one place. Floats are
serialized at full repr precision (at least 6 significant digits, and lossless
on reload), keys keep the fields' order, and no timestamp enters any emitted
file, so rendering the same audit twice gives byte-identical output and
render -> parse -> render is the identity on bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__, documents
from .clustering import ClusterLabeling, MedoidSet
from .errors import ConfigError, CurveError, LineageError
from .metrics import DistanceRecord, DminSummary, MetricCurves, ThresholdGrid

REPORT_SCHEMA_VERSION = 1
REPORT_KIND = "leakage_report"
# verify takes a recomputed number as equal to the stored one within this
# absolute difference
TOLERANCE = 1e-9


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
class Clustering:
    n_clusters: int
    cluster_sizes: list[int]
    n_noise: int
    n_core: int


@dataclass(frozen=True)
class ReferenceReadout:
    tau: float
    asr: float
    coverage: float


@dataclass
class LeakageReport:
    # keyword-only, so they can lead the document and keep their defaults
    schema_version: int = field(default=REPORT_SCHEMA_VERSION, kw_only=True)
    kind: str = field(default=REPORT_KIND, kw_only=True)
    meta: RunMeta
    clustering: Clustering
    grid: ThresholdGrid
    dmin_summary: DminSummary | None
    curves: MetricCurves | None
    reference_readouts: list[ReferenceReadout] | None
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
    """Assemble the report, checking artifact lineage and the curve laws (one
    value per grid threshold, both curves within [0, 1] and non-decreasing),
    and deriving the reference readouts from the curve values so they agree
    exactly."""
    if labeling.model_hash != meta.model_hash or medoids.model_hash != meta.model_hash:
        raise LineageError("report inputs come from different encoding models")
    if len(medoids) != labeling.n_clusters:
        raise LineageError("medoid count does not match the cluster count")
    readouts = None
    if curves is not None:
        for name, values in (("asr", curves.asr), ("coverage", curves.coverage)):
            v = np.asarray(values, dtype=np.float64)
            if len(v) != len(grid.taus):
                raise CurveError(f"{name} curve length does not match the grid")
            if np.any(v < 0.0) or np.any(v > 1.0):
                raise CurveError(f"{name} curve leaves [0, 1]")
            if len(v) > 1 and np.any(np.diff(v) < 0.0):
                raise CurveError(f"{name} curve is not non-decreasing")
        readouts = [
            ReferenceReadout(tau=grid.taus[i], asr=curves.asr[i], coverage=curves.coverage[i])
            for i in map(grid.index_of, grid.marks)
        ]
    return LeakageReport(
        meta=meta,
        clustering=Clustering(
            n_clusters=labeling.n_clusters,
            cluster_sizes=list(medoids.cluster_sizes),
            n_noise=labeling.noise_count,
            n_core=int(labeling.core_mask.sum()),
        ),
        grid=grid,
        dmin_summary=dmin_summary,
        curves=curves,
        reference_readouts=readouts,
        records=records,
    )


def report_from_dict(doc: dict) -> LeakageReport:
    if not isinstance(doc, dict) or doc.get("kind") != REPORT_KIND:
        raise ConfigError("not a leakage report document")
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ConfigError(f"unsupported report schema_version {doc.get('schema_version')!r}")
    return documents.read(LeakageReport, doc, "document", "report")


def render_json(report: LeakageReport) -> str:
    return documents.render(documents.write(report))


def format_summary_row(summary: DminSummary) -> str:
    """Fixed-format nearest-real summary line, 4 decimals per statistic."""
    s = summary
    return (
        f"M={s.count}, min={s.min:.4f}, mean={s.mean:.4f}, median={s.median:.4f}, "
        f"max={s.max:.4f}, p10={s.p10:.4f}, p90={s.p90:.4f}"
    )


def compare_reports(original: dict, recomputed: dict) -> list[str]:
    """Structural diff of two report documents. Numbers must agree within
    TOLERANCE, where two equal infinities and two NaNs agree, and everything
    else exactly. Returns human-readable difference lines."""
    diffs: list[str] = []
    _compare("", original, recomputed, diffs)
    return diffs


def _compare(path: str, a, b, diffs: list[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            here = f"{path}.{key}" if path else key
            if key not in a:
                diffs.append(f"{here}: missing in original")
            elif key not in b:
                diffs.append(f"{here}: missing in recomputation")
            else:
                _compare(here, a[key], b[key], diffs)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _compare(f"{path}[{i}]", x, y, diffs)
    elif isinstance(a, bool) or isinstance(b, bool):
        if a is not b:
            diffs.append(f"{path}: {a!r} vs {b!r}")
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        fa, fb = float(a), float(b)
        equal = (fa == fb) or (math.isnan(fa) and math.isnan(fb)) or (
            math.isfinite(fa) and math.isfinite(fb) and abs(fa - fb) <= TOLERANCE
        )
        if not equal:
            diffs.append(f"{path}: {a!r} vs {b!r}")
    elif a != b:
        diffs.append(f"{path}: {a!r} vs {b!r}")
