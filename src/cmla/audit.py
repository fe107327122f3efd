"""Audit orchestration: configuration, the staged pipeline, verify, scenarios.

AuditConfig is the one place that defaults and checks each setting, so a bad
setting fails before the first stage; the stages receive resolved values.

Stage order is part of the black-box contract: the real table is not opened
until clustering and medoid extraction have finished, so nothing about the
real data can influence the representation or the clusters. The real table
is then streamed block by block through the evaluate stage, never held
whole, and reduced to the medoids' nearest-real records and one coverage
count per threshold, so its memory is bounded per block; its load errors
still name the load-real stage. Stage timings go to the logger (stderr in
the CLI); no timing ever enters an emitted file.
"""

from __future__ import annotations

import errno
import logging
import math
import os
import time
from collections.abc import Iterator
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import clustering, documents, encoding, harness, metrics, report as report_mod, tables
from .errors import CmlaError, ConfigError, LoadError, OrderingError, StageError

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
    None selects automatic eps. run_audit parses the grid spec before its
    first stage, since verify replaces the grid with a report's stored one."""

    synthetic: str
    real: str | None = None
    out: str | None = None
    eps: float | None = None
    min_samples: int = 5
    scale: str = encoding.MINMAX
    pca: int | None = None
    grid: str = "0:2.5:0.01"
    marks: tuple[float, ...] = (0.1, 0.5)
    metric: str = EUCLIDEAN
    seed: int | None = None
    records: bool = False
    dataset_label: str | None = None
    generator_label: str | None = None

    def __post_init__(self) -> None:
        if self.eps is not None and not 0.0 < self.eps < math.inf:
            raise ConfigError(f"eps must be a positive finite number or 'auto', got {self.eps}")
        if self.min_samples < 1:
            raise ConfigError(f"min_samples must be at least 1, got {self.min_samples}")
        if self.metric not in (EUCLIDEAN, GOWER):
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.scale not in (encoding.MINMAX, encoding.ZSCORE):
            raise ConfigError(f"unknown scaling mode {self.scale!r}")
        if self.pca is not None and self.pca < 1:
            raise ConfigError("pca dimension must be at least 1")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")

    @classmethod
    def read(cls, settings: dict, prefix: str, where: str, **fixed: object) -> AuditConfig:
        """The config from settings keyed by field name, read by documents.read
        as a JSON object over the field defaults: a None value and eps "auto"
        keep the default. fixed holds the settings the caller supplies itself,
        which settings may not name. Errors start with prefix and name where.
        """
        taken = sorted(settings.keys() & fixed.keys())
        if taken:
            raise ConfigError(f"{prefix} {where} may not set {taken[0]!r}")
        given = {k: v for k, v in settings.items()
                 if v is not None and not (k == "eps" and v == "auto")}
        if type(given.get("eps", 0.0)) not in (int, float):
            raise ConfigError(f"{prefix} {where} has a malformed 'eps': "
                              'expected float | "auto" | None')
        return documents.read(cls, {**given, **fixed}, where, prefix)


@dataclass(eq=False)
class AuditResult:
    report: report_mod.LeakageReport
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


def run_audit(
    config: AuditConfig, grid_override: metrics.ThresholdGrid | None = None
) -> AuditResult:
    """Run the full pipeline for one synthetic table (and optional real table).

    grid_override replaces the configured threshold grid; verify uses it to
    recompute curves on a stored report's exact grid values.
    """
    if grid_override is None:
        grid = metrics.grid_from_spec(config.grid, config.marks)
    else:
        grid = grid_override
    eps_mode = "auto" if config.eps is None else "fixed"
    # the report stage makes the out directory and load-real follows the
    # medoids, so these paths would fail only after the stages before them
    if config.out is not None and "\0" in config.out:
        raise ConfigError(f"out may not hold a NUL byte, got {config.out!r}")
    if config.out is not None and Path(config.out).exists() and not Path(config.out).is_dir():
        raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), config.out)
    if config.real is not None and not Path(config.real).is_file():
        raise StageError(STAGE_LOAD_REAL, LoadError(f"no such file: {Path(config.real)}"))

    with _stage(STAGE_LOAD_SYNTHETIC):
        synthetic = tables.load_csv(config.synthetic)
        log.info("synthetic table: %d rows, %d columns",
                 synthetic.n_rows, len(synthetic.schema.columns))

    with _stage(STAGE_ENCODE):
        model = encoding.fit_encoding(synthetic, config.scale, config.pca)
        enc_synth = encoding.encode(model, synthetic)
        log.info("encoded dimension: %d", enc_synth.vectors.shape[1])

    with _stage(STAGE_CLUSTER):
        labeling = clustering.dbscan(enc_synth, config.eps, config.min_samples)
        log.info("clusters: %d, noise points: %d, eps=%s (%s)",
                 labeling.n_clusters, labeling.noise_count, labeling.eps, eps_mode)

    with _stage(STAGE_MEDOIDS):
        medoids = clustering.extract_medoids(enc_synth, labeling, synthetic)

    n_real_rows = None
    profile = None
    summary = None
    curves = None
    if config.real is not None and len(medoids) == 0:
        with _stage(STAGE_LOAD_REAL):
            n_real_rows = sum(b.n_rows for b in tables.read_blocks(config.real, synthetic.schema))
            log.info("real table: %d rows", n_real_rows)
    elif config.real is not None:
        counts = tables.ReadCounts()
        with (_stage(STAGE_EVALUATE),
              closing(_real_blocks(config.real, synthetic.schema, counts)) as blocks):
            if config.metric == GOWER:
                profile = metrics.proximity_profile_gower(
                    medoids, blocks, grid, metrics.numeric_ranges(model)
                )
            else:
                profile = metrics.proximity_profile(
                    medoids, encoding.encode_chunks(model, blocks), grid
                )
            work = profile.work
            log.info("%s: %d exact pairs of %d medoid-row pairs; %d of %d blocks scanned in full",
                     config.metric, work.pairs, work.cross, work.scanned, work.blocks)
            n_real_rows = profile.n_real
            log.info("real table: %d rows; %d of %d decimal cells parsed one by one",
                     n_real_rows, counts.one_by_one, counts.decimals)
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
            n_real_rows=n_real_rows,
            scale=config.scale,
            metric=config.metric,
            pca_dim=config.pca,
            encoded_dim=int(enc_synth.vectors.shape[1]),
            eps=labeling.eps,
            eps_mode=eps_mode,
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
        if config.out is not None:
            out_dir = Path(config.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            _emit_files(rpt, out_dir, model, labeling, medoids, synthetic)

    return AuditResult(report=rpt, labeling=labeling, medoids=medoids, model=model)


def _real_blocks(path: str, schema: tables.TableSchema,
                 counts: tables.ReadCounts) -> Iterator[tables.DataTable]:
    """tables.read_blocks, whose errors belong to the load-real stage though
    they surface while the evaluate stage consumes the blocks."""
    try:
        yield from tables.read_blocks(path, schema, counts)
    except CmlaError as e:
        raise StageError(STAGE_LOAD_REAL, e) from e


def _stem(path: str | None) -> str | None:
    return None if path is None else Path(path).stem


def _emit_files(
    rpt: report_mod.LeakageReport,
    out_dir: Path,
    model: encoding.EncodingModel,
    labeling: clustering.ClusterLabeling,
    medoids: clustering.MedoidSet,
    synthetic: tables.DataTable,
) -> None:
    """The one owner of an audit's --out layout: each file's name, header and
    rows, each CSV written by one tables.write_rows call."""
    (out_dir / "report.json").write_text(report_mod.render_json(rpt), encoding="utf-8")
    (out_dir / "model.json").write_text(documents.render(model.to_json_dict()), encoding="utf-8")
    tables.write_rows(out_dir / "labels.csv", ["row_id", "label"],
                      enumerate(labeling.labels.tolist()))
    # a synthetic column named cluster_id, row_id or cluster_size repeats a
    # header name, which load_csv refuses to read; the layout is kept as is
    tables.write_rows(out_dir / "medoids.csv",
                      ["cluster_id", "row_id", "cluster_size", *synthetic.schema.names],
                      ([m.cluster_id, m.row_id, size, *m.raw]
                       for m, size in zip(medoids.medoids, medoids.cluster_sizes)))
    if rpt.curves is not None:
        tables.write_rows(out_dir / "curves.csv", ["tau", "asr", "coverage"],
                          zip(rpt.grid.taus, rpt.curves.asr, rpt.curves.coverage))
    if rpt.records is not None:
        tables.write_rows(out_dir / "dmin_records.csv",
                          ["cluster_id", "medoid_row_id", "d_min", "nearest_real_row_id"],
                          ([r.cluster_id, r.medoid_row_id, r.d_min, r.nearest_real_row_id]
                           for r in rpt.records))


def verify_report_file(path: str | Path) -> list[str]:
    """Recompute every reported number from the recorded inputs and diff
    them, within report.TOLERANCE.

    Also checks that the stored document is canonical: parsing and
    re-rendering it must reproduce the original bytes.
    """
    _, text, doc = documents.load(path)
    rpt = report_mod.report_from_dict(doc)
    problems = []
    if report_mod.render_json(rpt) != text:
        problems.append("serialization: document is not canonical")

    m = rpt.meta
    config = AuditConfig(
        synthetic=m.synthetic_path,
        real=m.real_path,
        eps=None if m.eps_mode == "auto" else m.eps,
        min_samples=m.min_samples,
        scale=m.scale,
        pca=m.pca_dim,
        metric=m.metric,
        seed=m.seed,
        records=rpt.records is not None,
        dataset_label=m.dataset_label,
        generator_label=m.generator_label,
    )
    recomputed = run_audit(config, grid_override=rpt.grid).report
    problems += report_mod.compare_reports(documents.write(rpt), documents.write(recomputed))
    return problems


@dataclass(eq=False)
class ScenarioOutcome:
    scenario: harness.HarnessScenario
    reports: dict[str, report_mod.LeakageReport]
    out_dir: Path
    # None when the scenario declares no ordering
    ordering_ok: bool | None


def run_scenario(scenario_path: str | Path, out_dir: str | Path) -> ScenarioOutcome:
    """Generate the scenario's tables, audit every generator against the
    reference table, and emit per-mark heatmaps plus a machine-readable
    summary. With a declared expected ordering the outcome records whether it
    held; the CLI turns a violation into a nonzero exit."""
    sc = harness.load_scenario(scenario_path)
    out = Path(out_dir)
    data_dir = out / "data"
    real_path = data_dir / "real.csv"

    # every audit setting, the grid spec and the ordering's tau fail before any table
    source = Path(scenario_path).name
    configs = {
        gen.label: AuditConfig.read(
            sc.audit,
            f"{source}:",
            "the audit section",
            synthetic=str(data_dir / f"{gen.label}.csv"),
            real=str(real_path),
            out=str(out / gen.label),
            seed=sc.seed,
            dataset_label=sc.name,
            generator_label=gen.label,
        )
        for gen in sc.generators
    }
    first = next(iter(configs.values()))
    try:
        grid = metrics.grid_from_spec(first.grid, first.marks)
    except ConfigError as e:
        raise ConfigError(f"{source}: the audit section: {e}") from None
    if sc.expected_ordering is not None:
        try:
            grid.index_of(sc.expected_ordering.tau)
        except ConfigError as e:
            raise ConfigError(f"{source}: expected_ordering.tau: {e}") from None
    heatmaps: dict[str, float] = {}
    for mark in grid.marks:
        name = f"heatmap_tau{mark:g}.csv"
        if heatmaps.setdefault(name, mark) != mark:
            raise ConfigError(f"{source}: the audit section: marks {heatmaps[name]!r} and "
                              f"{mark!r} would both write {name}")
        # the heatmap header is generator,<scenario name>
        if sc.name == "generator":
            raise ConfigError(f"{source}: name 'generator' would write {name} with the "
                              "header generator,generator, which names one column twice")
    # a label names data/<label>.csv and the report directory <label>/
    for gen in sc.generators:
        if gen.label in ("real", "data", "scenario_summary.json") or (
            gen.label.startswith("heatmap_tau") and gen.label.endswith(".csv")
        ):
            raise ConfigError(f"{source}: generator label {gen.label!r} names a file that "
                              "the scenario writes itself")

    data_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(sc.seed)
    real = harness.make_real(sc.real, rng)
    tables.write_csv(real, real_path)
    for gen in sc.generators:
        synth = harness.sample_synthetic(real, gen, rng)
        tables.write_csv(synth, configs[gen.label].synthetic)

    reports: dict[str, report_mod.LeakageReport] = {}
    for label, config in configs.items():
        log.info("auditing generator %s", label)
        reports[label] = run_audit(config).report

    with_curves = [rpt for rpt in reports.values() if rpt.curves is not None]
    if with_curves:
        for name, mark in heatmaps.items():
            tables.write_rows(out / name, ["generator", sc.name],
                              ([rpt.meta.generator_label,
                                rpt.curves.coverage[rpt.grid.index_of(mark)]]
                               for rpt in with_curves))

    summary_doc = {
        "schema_version": 1,
        "kind": "scenario_summary",
        "name": sc.name,
        "seed": sc.seed,
        "generators": [
            {
                "label": gen.label,
                "n_clusters": reports[gen.label].clustering.n_clusters,
                "readouts": [
                    documents.write(r) for r in reports[gen.label].reference_readouts or []
                ],
                "report": f"{gen.label}/report.json",
            }
            for gen in sc.generators
        ],
    }
    (out / "scenario_summary.json").write_text(documents.render(summary_doc), encoding="utf-8")

    ok = None
    if sc.expected_ordering is not None:
        ok = _ordering_holds(sc.expected_ordering, reports)
    return ScenarioOutcome(scenario=sc, reports=reports, out_dir=out, ordering_ok=ok)


def _ordering_holds(
    ordering: harness.ExpectedOrdering,
    reports: dict[str, report_mod.LeakageReport],
) -> bool:
    values = []
    for label in ordering.order:
        rpt = reports[label]
        if rpt.curves is None:
            raise OrderingError(f"generator {label!r} produced no curves to compare")
        i = rpt.grid.index_of(ordering.tau)
        values.append(float(rpt.curves.asr[i]))
    for (la, va), (lb, vb) in zip(
        zip(ordering.order, values), zip(ordering.order[1:], values[1:])
    ):
        if va < vb:
            log.info("ordering violated: asr(%s)=%.4f < asr(%s)=%.4f at tau=%g",
                     la, va, lb, vb, ordering.tau)
            return False
    log.info(
        "ordering holds at tau=%g: %s",
        ordering.tau,
        " >= ".join(f"{lab}={val:.4f}" for lab, val in zip(ordering.order, values)),
    )
    return True
