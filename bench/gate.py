"""Correctness gate applied to every audit the benchmark runs.

An audit fails when its exit code is non-zero or when any of these fail:

- at the default seed, labels.csv, medoids.csv and curves.csv match the
  golden sha256 digests in golden.json, and so does report.json once
  meta.synthetic_path and meta.real_path are masked (they hold resolved
  absolute paths, which change with the work directory);
- at any seed, both curves start at 0, never decrease and stay in [0, 1];
- for a memorizer, every medoid has d_min == 0 and ASR(tau) = 1 for tau > 0.

golden.json holds the digests of each workload's outputs at the default seed;
run.py records the digests of every run in its results file, which is where
a deliberate refresh copies them from.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden.json"
GOLDEN_FILES = ("labels.csv", "medoids.csv", "curves.csv", "report.json")
_MASKED = re.compile(r'("(?:synthetic_path|real_path)": )(?:"(?:[^"\\]|\\.)*"|null)')


def load_golden(workload: str) -> dict[str, str]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))[workload]


def mask_report(text: str) -> str:
    """report.json text with the two input paths in meta replaced by a marker."""
    return _MASKED.sub(r'\1"<masked>"', text)


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of each golden file in an audit's output directory."""
    out = {}
    for name in GOLDEN_FILES:
        data = (out_dir / name).read_bytes()
        if name == "report.json":
            data = mask_report(data.decode("utf-8")).encode("utf-8")
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def _read_curves(path: Path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in ("tau", "asr", "coverage")}


def check(out_dir: Path, exit_code: int, *, memorizer: bool,
          golden: dict[str, str] | None) -> list[str]:
    """Problems found in one audit's outputs; empty when the audit passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [name for name in GOLDEN_FILES if not (out_dir / name).is_file()]
    if missing:
        return [f"missing outputs: {missing}"]
    problems = []
    curves = _read_curves(out_dir / "curves.csv")
    for name in ("asr", "coverage"):
        v = curves[name]
        if len(v) == 0 or v[0] != 0.0:
            problems.append(f"{name} curve does not start at 0")
        if np.any(np.diff(v) < 0.0):
            problems.append(f"{name} curve decreases")
        if np.any((v < 0.0) | (v > 1.0)):
            problems.append(f"{name} curve leaves [0, 1]")
    if memorizer:
        summary = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["dmin_summary"]
        if summary is None or summary["max"] != 0.0:
            problems.append("a memorizer medoid has d_min > 0")
        if np.any(curves["asr"][curves["tau"] > 0.0] != 1.0):
            problems.append("memorizer ASR(tau) < 1 for some tau > 0")
    if golden is not None:
        for name, digest in digests(out_dir).items():
            if digest != golden[name]:
                problems.append(f"{name} differs from the golden digest")
    return problems
