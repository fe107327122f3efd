"""Command line interface.

Subcommands: audit (run the pipeline on CSV tables), scenario (generate a
test-bed scenario and audit every generator), verify (recompute a stored
report and diff within 1e-9), encode (dump the encoded representation of a
table for debugging).

Exit codes: 0 success, 1 failed verification or violated scenario ordering,
2 bad input or configuration (a malformed CSV reports the loading stage that
rejected it), or a file the system refuses to write, reported in one line.
Config precedence: flags override --config file values, which override the
built-in defaults. A --config file is a JSON object keyed by the
audit settings' names (the flag names with underscores, and marks for --mark),
read with exact JSON types like a scenario's audit section; null keeps the
default. argparse converts the flags, and --mark takes a comma list.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__, audit, documents, encoding, report as report_mod, tables
from .errors import CmlaError, ConfigError, OrderingError, StageError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmla",
        description="Cluster-medoid leakage audit for synthetic tabular data.",
    )
    parser.add_argument("--version", action="version", version=f"cmla {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_audit = sub.add_parser("audit", help="audit one synthetic table")
    p_audit.add_argument("--synthetic", help="synthetic table CSV")
    p_audit.add_argument("--real", help="real table CSV (optional)")
    p_audit.add_argument("--out", help="output directory")
    p_audit.add_argument("--eps", type=_eps_arg, help="DBSCAN radius, a number or 'auto'")
    p_audit.add_argument("--min-samples", type=int, dest="min_samples")
    p_audit.add_argument("--scale", choices=["minmax", "zscore"])
    p_audit.add_argument("--pca", type=int, help="project to this many dimensions")
    p_audit.add_argument("--grid", help="threshold grid as start:stop:step")
    p_audit.add_argument("--mark", dest="marks", type=_marks_arg,
                         help="reference thresholds, comma separated")
    p_audit.add_argument("--metric", choices=["euclidean", "gower"])
    p_audit.add_argument("--seed", type=int, help="seed recorded in the report")
    p_audit.add_argument("--records", action="store_true", default=None,
                         help="emit per-medoid distance records")
    p_audit.add_argument("--verify", action="store_true",
                         help="recompute the emitted report and diff it")
    p_audit.add_argument("--config", help="JSON file with default settings, keyed by the "
                         "flag names with underscores (marks for --mark)")
    p_audit.add_argument("--dataset-label", dest="dataset_label")
    p_audit.add_argument("--generator-label", dest="generator_label")

    p_scenario = sub.add_parser("scenario", help="run a generated scenario")
    p_scenario.add_argument("scenario", help="scenario JSON file")
    p_scenario.add_argument("--out", required=True, help="output directory")

    p_verify = sub.add_parser("verify", help="recompute a stored report and diff")
    p_verify.add_argument("report", help="path to report.json")

    p_encode = sub.add_parser("encode", help="dump the encoded representation")
    p_encode.add_argument("--synthetic", required=True, help="table the model is fitted on")
    p_encode.add_argument("--table", help="table to encode (default: the synthetic table)")
    p_encode.add_argument("--out", required=True, help="output CSV file")
    p_encode.add_argument("--scale", choices=["minmax", "zscore"], default="minmax")
    p_encode.add_argument("--pca", type=int)

    return parser


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None


def _eps_arg(text: str) -> float | str:
    return text if text == "auto" else _number(text)


def _marks_arg(text: str) -> list[float]:
    """--mark's comma list as the JSON list a marks setting is."""
    return [_number(v) for v in text.split(",")]


def _audit_config(args: argparse.Namespace) -> audit.AuditConfig:
    """The --config file's settings with the given flags over them."""
    settings: dict = {}
    if args.config is not None:
        name, _, settings = documents.load(args.config)
        if not isinstance(settings, dict):
            raise ConfigError(f"{name}: config must be a JSON object")
    for f in fields(audit.AuditConfig):
        if getattr(args, f.name) is not None:
            settings[f.name] = getattr(args, f.name)
    return audit.AuditConfig.read(settings, "audit:", "the configuration")


def _cmd_audit(args: argparse.Namespace) -> int:
    config = _audit_config(args)
    if args.verify and config.out is None:
        raise ConfigError("--verify needs --out to locate the emitted report")
    rpt = audit.run_audit(config).report
    if rpt.dmin_summary is not None:
        print(report_mod.format_summary_row(rpt.dmin_summary))
    if rpt.curves is None:
        print(f"clusters={rpt.clustering.n_clusters} (no real table evaluated)")
    for r in rpt.reference_readouts or []:
        print(f"tau={r.tau:g}: asr={r.asr:.4f}, coverage={r.coverage:.4f}")
    return _verify(Path(config.out) / "report.json") if args.verify else 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    outcome = audit.run_scenario(args.scenario, args.out)
    for gen in outcome.scenario.generators:
        rpt = outcome.reports[gen.label]
        readouts = ", ".join(
            f"asr@{r.tau:g}={r.asr:.4f}" for r in (rpt.reference_readouts or [])
        )
        print(f"{gen.label}: clusters={rpt.clustering.n_clusters} {readouts}")
    if outcome.ordering_ok is False:
        print("declared ordering violated", file=sys.stderr)
        return 1
    return 0


def _verify(report: str | Path) -> int:
    """Verify a stored report, printing each problem, or "verify: ok"."""
    problems = audit.verify_report_file(report)
    for line in problems:
        print(f"verify: {line}", file=sys.stderr)
    if problems:
        return 1
    print("verify: ok")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    synthetic = tables.load_csv(args.synthetic)
    model = encoding.fit_encoding(synthetic, args.scale, args.pca)
    target = synthetic
    if args.table is not None:
        target = tables.load_csv(args.table, synthetic.schema)
    matrix = encoding.encode(model, target)
    tables.write_rows(args.out, ["row_id", *model.feature_names()],
                      ([i, *row.tolist()] for i, row in enumerate(matrix.vectors)))
    print(f"encoded {len(matrix.vectors)} rows x {matrix.vectors.shape[1]} dims -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="cmla: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "verify":
            return _verify(args.report)
        if args.command == "encode":
            return _cmd_encode(args)
        parser.error(f"unknown command {args.command!r}")
    except StageError as e:
        print(f"cmla: error in {e}", file=sys.stderr)
        return 2
    except OrderingError as e:
        print(f"cmla: {e}", file=sys.stderr)
        return 1
    except (CmlaError, OSError) as e:
        print(f"cmla: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
