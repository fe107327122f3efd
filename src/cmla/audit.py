"""Audit orchestration: configuration, the staged pipeline, verify, scenarios.

Stage order is part of the black-box contract: the real table is not opened
until clustering and medoid extraction have finished, so nothing about the
real data can influence the representation or the clusters. Stage timings go
to the logger (stderr in the CLI); no timing ever enters an emitted file.
"""

from __future__ import annotations

import json
import logging
import time
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import clustering, encoding, harness, metrics, report as report_mod, tables
from .errors import CmlaError, ConfigError, OrderingError, StageError

log = logging.getLogger("cmla")

STAGE_LOAD_SYNTHETIC = "load-synthetic"
STAGE_ENCODE = "encode"
STAGE_CLUSTER = "cluster"
STAGE_MEDOIDS = "medoids"
STAGE_LOAD_REAL = "load-real"
STAGE_EVALUATE = "evaluate"
STAGE_REPORT = "report"

EUCLIDEAN = "euclidean"
GOWER = "gower"


@dataclass(frozen=True)
class AuditConfig:
    """One audit's settings. The field names are the setting keys of a
    --config file, of a scenario's audit section and of the audit flags; eps
    None selects automatic eps."""

    synthetic: str
    real: str | None = None
    out: str | None = None
    eps: float | None = None
    min_samples: int = 5
    scale: str = encoding.MINMAX
    pca: int | None = None
    grid: str | None = None
    marks: tuple[float, ...] = (0.1, 0.5)
    metric: str = EUCLIDEAN
    seed: int | None = None
    records: bool = False
    dataset_label: str | None = None
    generator_label: str | None = None

    def __post_init__(self) -> None:
        if self.metric not in (EUCLIDEAN, GOWER):
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.scale not in (encoding.MINMAX, encoding.ZSCORE):
            raise ConfigError(f"unknown scaling mode {self.scale!r}")
        if self.pca is not None and self.pca < 1:
            raise ConfigError("pca dimension must be at least 1")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")

    @classmethod
    def from_settings(
        cls, settings: Mapping[str, object], source: str = "settings", **fixed: object
    ) -> AuditConfig:
        """Parse settings keyed by field name, as JSON or the command line
        gives them, over the field defaults; a None value keeps the default.

        fixed holds the settings the caller supplies itself: settings may not
        name them, and any key that is not a field is reported as an unknown
        key of source. A malformed value raises ConfigError naming its key.
        """
        settable = {f.name for f in fields(cls)} - fixed.keys()
        unknown = sorted(set(settings) - settable)
        if unknown:
            raise ConfigError(f"unknown {source}: {unknown!r}")
        given = {**settings, **fixed}
        values = {}
        for f in fields(cls):
            value = given.get(f.name)
            if value is not None:
                values[f.name] = _PARSERS[f.type.removesuffix(" | None")](f.name, value)
            elif f.default is MISSING:
                raise ConfigError(f"{f.name} is required")
        return cls(**values)


def _text(key: str, value: object) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _integer(key: str, value: object) -> int:
    """An int, an integral float or an integer string; never a bool."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _flag(key: str, value: object) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _as_float(value: object) -> float | None:
    """A number or numeric string as a float, anything else (bools too) None."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    return None


def _eps(key: str, value: object) -> float | None:
    number = _as_float(value)
    if number is None and value != "auto":
        raise ConfigError(f"{key} must be a number or 'auto', got {value!r}")
    return number


def _marks(key: str, value: object) -> tuple[float, ...]:
    """A list of numbers, or the comma-separated string --mark takes."""
    items = value.split(",") if isinstance(value, str) else value
    marks = [_as_float(v) for v in items] if isinstance(items, (list, tuple)) else [None]
    if None in marks:
        raise ConfigError(f"{key} must be numbers, as a list or comma-separated, got {value!r}")
    return tuple(marks)


# parser per field annotation; eps is the only float setting
_PARSERS = {"str": _text, "int": _integer, "bool": _flag, "float": _eps,
            "tuple[float, ...]": _marks}


@dataclass(eq=False)
class AuditResult:
    report: report_mod.LeakageReport
    out_dir: Path | None
    labeling: clustering.ClusterLabeling
    medoids: clustering.MedoidSet
    model: encoding.EncodingModel


@contextmanager
def _stage(name: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as e:
        log.info("stage %s failed after %.3fs", name, time.perf_counter() - t0)
        if isinstance(e, CmlaError) and not isinstance(e, StageError):
            raise StageError(name, e) from e
        raise
    log.info("stage %s done in %.3fs", name, time.perf_counter() - t0)


def _build_grid(config: AuditConfig) -> metrics.ThresholdGrid:
    if config.grid is None:
        return metrics.default_grid(config.marks)
    return metrics.grid_from_spec(config.grid, config.marks)


def run_audit(
    config: AuditConfig, grid_override: metrics.ThresholdGrid | None = None
) -> AuditResult:
    """Run the full pipeline for one synthetic table (and optional real table).

    grid_override replaces the configured threshold grid; verify uses it to
    recompute curves on a stored report's exact grid values.
    """
    grid = grid_override if grid_override is not None else _build_grid(config)

    with _stage(STAGE_LOAD_SYNTHETIC):
        synthetic = tables.load_csv(config.synthetic, origin="synthetic")
        log.info("synthetic table: %d rows, %d columns",
                 synthetic.n_rows, len(synthetic.schema.columns))

    with _stage(STAGE_ENCODE):
        model = encoding.fit_encoding(synthetic, config.scale)
        enc_synth = encoding.encode(model, synthetic)
        if config.pca is not None:
            pca = encoding.fit_pca(enc_synth, config.pca)
            model = encoding.with_pca(model, pca)
            enc_synth = encoding.encode(model, synthetic)
        log.info("encoded dimension: %d", enc_synth.vectors.shape[1])

    with _stage(STAGE_CLUSTER):
        params = clustering.DbscanParams(eps=config.eps, min_samples=config.min_samples)
        labeling = clustering.dbscan(enc_synth, params)
        log.info("clusters: %d, noise points: %d, eps=%s (%s)",
                 labeling.n_clusters, labeling.noise_count, labeling.eps, labeling.eps_mode)

    with _stage(STAGE_MEDOIDS):
        medoids = clustering.extract_medoids(enc_synth, labeling, synthetic)

    real = None
    if config.real is not None:
        with _stage(STAGE_LOAD_REAL):
            real = tables.load_csv(config.real, origin="real")
            tables.unify_schema(synthetic, real)
            log.info("real table: %d rows", real.n_rows)

    profile = None
    summary = None
    curves = None
    if real is not None and len(medoids) > 0:
        with _stage(STAGE_EVALUATE):
            if config.metric == GOWER:
                profile = metrics.proximity_profile_gower(
                    medoids, real, encoding.numeric_ranges(model)
                )
            else:
                enc_real = encoding.encode(model, real)
                profile = metrics.proximity_profile(medoids, enc_real)
            summary = metrics.summarize_dmin([r.d_min for r in profile.records])
            curves = metrics.curves_from_profile(profile, grid)
            log.info("nearest-real summary: %s", report_mod.format_summary_row(summary))

    with _stage(STAGE_REPORT):
        meta = report_mod.RunMeta(
            dataset_label=config.dataset_label or _stem(config.real) or "unlabeled",
            generator_label=config.generator_label or _stem(config.synthetic) or "unlabeled",
            synthetic_path=str(Path(config.synthetic).resolve()),
            real_path=None if config.real is None else str(Path(config.real).resolve()),
            n_synthetic_rows=synthetic.n_rows,
            n_real_rows=None if real is None else real.n_rows,
            scale=config.scale,
            metric=config.metric,
            pca_dim=config.pca,
            encoded_dim=int(enc_synth.vectors.shape[1]),
            eps=labeling.eps,
            eps_mode=labeling.eps_mode,
            min_samples=config.min_samples,
            seed=config.seed,
            model_hash=model.model_hash(),
        )
        rpt = report_mod.build_report(
            meta=meta,
            labeling=labeling,
            medoids=medoids,
            grid=grid,
            dmin_summary=summary,
            curves=curves,
            records=profile.records if (profile is not None and config.records) else None,
        )
        out_dir = None
        if config.out is not None:
            out_dir = Path(config.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            _emit_files(rpt, out_dir, model, labeling, medoids, synthetic, curves, profile,
                        config.records)

    return AuditResult(report=rpt, out_dir=out_dir, labeling=labeling,
                       medoids=medoids, model=model)


def _stem(path: str | None) -> str | None:
    return None if path is None else Path(path).stem


def _emit_files(
    rpt: report_mod.LeakageReport,
    out_dir: Path,
    model: encoding.EncodingModel,
    labeling: clustering.ClusterLabeling,
    medoids: clustering.MedoidSet,
    synthetic: tables.DataTable,
    curves: metrics.MetricCurves | None,
    profile: metrics.ProximityProfile | None,
    emit_records: bool,
) -> None:
    report_mod.write_report_json(rpt, out_dir / "report.json")
    (out_dir / "model.json").write_text(
        json.dumps(model.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )
    clustering.write_labels_csv(labeling, out_dir / "labels.csv")
    clustering.write_medoids_csv(medoids, synthetic, out_dir / "medoids.csv")
    if curves is not None:
        report_mod.emit_curves_csv(curves, out_dir / "curves.csv")
    if profile is not None and emit_records:
        report_mod.write_dmin_records_csv(profile.records, out_dir / "dmin_records.csv")


def verify_report_file(path: str | Path, tol: float = 1e-9) -> list[str]:
    """Recompute every reported number from the recorded inputs and diff.

    Also checks that the stored document is canonical: parsing and
    re-rendering it must reproduce the original bytes.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"no such report: {p}")
    text = p.read_text(encoding="utf-8")
    rpt = report_mod.parse_json(text)
    problems = []
    if report_mod.render_json(rpt) != text:
        problems.append("serialization: document is not canonical")

    m = rpt.meta
    config = AuditConfig.from_settings({
        "synthetic": m.synthetic_path,
        "real": m.real_path,
        "eps": "auto" if m.eps_mode == "auto" else m.eps,
        "min_samples": m.min_samples,
        "scale": m.scale,
        "pca": m.pca_dim,
        "marks": rpt.grid.marks,
        "metric": m.metric,
        "seed": m.seed,
        "records": rpt.records is not None,
        "dataset_label": m.dataset_label,
        "generator_label": m.generator_label,
    })
    grid = metrics.ThresholdGrid(
        np.asarray(rpt.grid.taus, dtype=np.float64).copy(), rpt.grid.marks
    )
    recomputed = run_audit(config, grid_override=grid)
    problems.extend(
        report_mod.compare_reports(
            report_mod.report_to_dict(rpt),
            report_mod.report_to_dict(recomputed.report),
            tol,
        )
    )
    return problems


@dataclass(eq=False)
class ScenarioOutcome:
    scenario: harness.HarnessScenario
    reports: dict[str, report_mod.LeakageReport]
    out_dir: Path
    ordering_checked: bool
    ordering_ok: bool


def run_scenario(scenario_path: str | Path, out_dir: str | Path) -> ScenarioOutcome:
    """Generate the scenario's tables, audit every generator against the
    reference table, and emit per-mark heatmaps plus a machine-readable
    summary. With a declared expected ordering the outcome records whether it
    held; the CLI turns a violation into a nonzero exit."""
    sc = harness.load_scenario(scenario_path)
    out = Path(out_dir)
    data_dir = out / "data"
    data_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(sc.seed)
    real = harness.make_real(sc.real, rng)
    real_path = data_dir / "real.csv"
    tables.write_csv(real, real_path)

    configs: dict[str, AuditConfig] = {}
    for gen in sc.generators:
        synth = harness.sample_synthetic(real, gen, rng)
        sp = data_dir / f"{gen.label}.csv"
        tables.write_csv(synth, sp)
        configs[gen.label] = AuditConfig.from_settings(
            sc.audit,
            "audit settings in scenario",
            synthetic=str(sp),
            real=str(real_path),
            out=str(out / gen.label),
            seed=sc.seed,
            dataset_label=sc.name,
            generator_label=gen.label,
        )

    reports: dict[str, report_mod.LeakageReport] = {}
    for label, config in configs.items():
        log.info("auditing generator %s", label)
        reports[label] = run_audit(config).report

    grid_marks = next(iter(reports.values())).grid.marks if reports else ()
    for mark in grid_marks:
        cells = []
        for gen in sc.generators:
            rpt = reports[gen.label]
            if rpt.curves is not None:
                cells.append(report_mod.heatmap_cell(rpt, mark))
        if cells:
            report_mod.write_heatmap_csv(cells, out / f"heatmap_tau{mark:g}.csv")

    summary_doc = {
        "schema_version": 1,
        "kind": "scenario_summary",
        "name": sc.name,
        "seed": sc.seed,
        "generators": [
            {
                "label": gen.label,
                "n_clusters": reports[gen.label].n_clusters,
                "readouts": [
                    {"tau": r.tau, "asr": r.asr, "coverage": r.coverage}
                    for r in (reports[gen.label].readouts or [])
                ],
                "report": f"{gen.label}/report.json",
            }
            for gen in sc.generators
        ],
    }
    (out / "scenario_summary.json").write_text(
        json.dumps(summary_doc, indent=2) + "\n", encoding="utf-8"
    )

    checked = sc.expected_ordering is not None
    ok = True
    if sc.expected_ordering is not None:
        ok = _ordering_holds(sc.expected_ordering, reports)
    return ScenarioOutcome(
        scenario=sc, reports=reports, out_dir=out, ordering_checked=checked, ordering_ok=ok
    )


def _ordering_holds(
    ordering: harness.ExpectedOrdering,
    reports: dict[str, report_mod.LeakageReport],
) -> bool:
    values = []
    for label in ordering.labels:
        rpt = reports[label]
        if rpt.curves is None:
            raise OrderingError(f"generator {label!r} produced no curves to compare")
        i = rpt.grid.index_of(ordering.tau)
        values.append(float(rpt.curves.asr[i]))
    for (la, va), (lb, vb) in zip(
        zip(ordering.labels, values), zip(ordering.labels[1:], values[1:])
    ):
        if va < vb:
            log.info("ordering violated: asr(%s)=%.4f < asr(%s)=%.4f at tau=%g",
                     la, va, lb, vb, ordering.tau)
            return False
    log.info(
        "ordering holds at tau=%g: %s",
        ordering.tau,
        " >= ".join(f"{lab}={val:.4f}" for lab, val in zip(ordering.labels, values)),
    )
    return True
