"""Benchmark workloads: the tables each one audits and the flags it audits them with.

Every workload draws a real table from the bundled mixture recipe and a
synthetic table from that real table with one reference generator, both from
the workload seed, and writes them with tables.write_csv. recipe.json is a
frozen copy of tests/data/ordering_scenario.json (1 numeric and 4 binary
categorical columns, 9 encoded dimensions), so edits to the test data never
move the benchmark; its seed is the default workload seed.

Run as a script it writes one workload's inputs; run.py times exactly this, in
a fresh interpreter, as the benchmark's set-up:

    PYTHONPATH=src python3 bench/workloads.py --workload wide-real --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from cmla import harness, tables

RECIPE = Path(__file__).resolve().parent / "recipe.json"
SYNTHETIC_CSV = "synthetic.csv"
REAL_CSV = "real.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    generator: harness.GeneratorSpec
    n_real: int
    audit_flags: tuple[str, ...]


_NOISED = harness.GeneratorSpec("noised", "noised", 4000, sigma=0.5)
_WIDE_FLAGS = ("--eps", "0.01", "--min-samples", "3")

# Why these four: each layer of the audit dominates one workload and barely
# runs on another, so a change to one layer has a workload that shows it and
# one that must stay flat.
WORKLOADS = {
    w.name: w
    for w in (
        # Verbatim copies make two dense modes: ~30M eps-edges, a Python
        # cluster expansion over all of them and two ~4k-member medoids.
        Workload(
            "dense-memorizer",
            harness.GeneratorSpec("memorizer", "memorizer", 8000),
            8000,
            ("--eps", "0.35", "--min-samples", "100"),
        ),
        # Independent columns scatter rows: the k-th-NN auto-eps pass and the
        # neighbour search dominate; expansion and medoids are cheap.
        Workload(
            "sparse-auto-eps",
            harness.GeneratorSpec("independent", "independent", 8000),
            8000,
            ("--eps", "auto", "--min-samples", "100"),
        ),
        # Light clustering, heavy real side: a 200k-row CSV read, ~100
        # medoids against 200k real rows and a 200k x 251 curve sweep.
        Workload("wide-real", _NOISED, 200_000, _WIDE_FLAGS),
        # The same inputs on the only Gower path (gower_to_table per medoid).
        Workload("wide-real-gower", _NOISED, 200_000, (*_WIDE_FLAGS, "--metric", "gower")),
    )
}


def default_seed() -> int:
    return harness.load_scenario(RECIPE).seed


def generate(workload: Workload, seed: int, out_dir: Path) -> None:
    """Write the workload's synthetic and real CSVs for this seed into out_dir."""
    recipe = replace(harness.load_scenario(RECIPE).real, n_rows=workload.n_real)
    rng = np.random.default_rng(seed)
    real = harness.make_real(recipe, rng)
    synthetic = harness.sample_synthetic(real, workload.generator, rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables.write_csv(real, out_dir / REAL_CSV)
    tables.write_csv(synthetic, out_dir / SYNTHETIC_CSV)


def audit_argv(workload: Workload, inputs: Path, out_dir: Path, seed: int) -> list[str]:
    """The `cmla audit` arguments a user would type for this workload."""
    return [
        "audit",
        "--synthetic", str(inputs / SYNTHETIC_CSV),
        "--real", str(inputs / REAL_CSV),
        "--out", str(out_dir),
        *workload.audit_flags,
        "--seed", str(seed),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description="write one workload's input tables")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    generate(WORKLOADS[args.workload], args.seed, args.out)


if __name__ == "__main__":
    main()
