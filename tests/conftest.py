"""Shared builders for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cmla import kernels, metrics
from cmla.clustering import Medoid, MedoidSet
from cmla.encoding import EncodedMatrix
from cmla.tables import CATEGORICAL, NUMERIC, ColumnSpec, DataTable, TableSchema

DATA_DIR = Path(__file__).parent / "data"


def numeric_table(values, names=None) -> DataTable:
    """DataTable of float64 columns from a 1-d or 2-d array-like."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    names = list(names) if names is not None else [f"x{j}" for j in range(arr.shape[1])]
    specs = tuple(ColumnSpec(n, NUMERIC) for n in names)
    cols = tuple(np.ascontiguousarray(arr[:, j]) for j in range(arr.shape[1]))
    return DataTable(TableSchema(specs), cols)


def mixed_table(numeric=None, categorical=None) -> DataTable:
    """numeric: {name: values}; categorical: {name: cell labels}. Vocabularies
    follow first appearance, like the CSV loader."""
    specs: list[ColumnSpec] = []
    cols: list[np.ndarray] = []
    for name, vals in (numeric or {}).items():
        specs.append(ColumnSpec(name, NUMERIC))
        cols.append(np.asarray(vals, dtype=np.float64))
    for name, labels in (categorical or {}).items():
        vocab = list(dict.fromkeys(labels))
        specs.append(ColumnSpec(name, CATEGORICAL, tuple(vocab)))
        cols.append(np.array([vocab.index(v) for v in labels], dtype=np.int32))
    return DataTable(TableSchema(tuple(specs)), tuple(cols))


def matrix(vectors, model_hash="m0") -> EncodedMatrix:
    vs = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    return EncodedMatrix(np.ascontiguousarray(vs), model_hash)


def medoid_set(vectors, model_hash="m0", row_ids=None) -> MedoidSet:
    vs = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    ids = list(row_ids) if row_ids is not None else list(range(len(vs)))
    meds = [
        Medoid(cluster_id=i, row_id=ids[i], vector=vs[i].copy(), raw=())
        for i in range(len(vs))
    ]
    return MedoidSet(medoids=meds, cluster_sizes=[1] * len(vs), model_hash=model_hash)


def coverage_of(per_real, grid, pieces=3) -> list[float]:
    """Coverage on grid of real rows whose minima over the medoids are
    per_real, as metrics._profile counts them over that many consecutive
    pieces of the rows and metrics.curves_from_profile divides the counts."""
    rows = np.array_split(np.array(per_real, dtype=np.float64), pieces)
    blocks = [((np.zeros(1), np.zeros(1, dtype=np.int64), piece), None) for piece in rows]
    profile = metrics._profile(medoid_set([[0.0]]), blocks, grid)
    return metrics.curves_from_profile(profile, grid).coverage


def clustered_cloud(rng: np.random.Generator, n: int, d: int, duplicates: float = 0.0):
    """Blobby point cloud with background scatter and optional exact
    duplicates, the randomized input for clustering tests."""
    k = int(rng.integers(1, 5))
    centers = rng.uniform(-4.0, 4.0, size=(k, d))
    x = centers[rng.integers(0, k, size=n)] + rng.normal(0.0, 0.35, size=(n, d))
    scatter = max(1, n // 10)
    x[:scatter] = rng.uniform(-5.0, 5.0, size=(scatter, d))
    m = int(n * duplicates)
    if m and n >= 2:
        x[rng.integers(0, n, size=m)] = x[rng.integers(0, n, size=m)]
    return np.ascontiguousarray(x)


def hit_lists(x, eps) -> list[np.ndarray]:
    """Each row's full sorted list of the rows within eps, as the hit blocks
    that kernels.neighbor_lists streams decide it."""
    lists = [None] * len(x)
    for rows, cols, hit in kernels._hit_blocks(x, eps):
        for k, i in enumerate(rows.tolist()):
            lists[i] = cols[hit[k]]
    return lists


def child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports cmla from this
    checkout's src, as the tests themselves do."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def child_rss_growth_mib(setup: str, measured: str) -> float:
    """Peak-RSS growth of a fresh interpreter over `measured`, after `setup`
    has run; both are Python source with cmla importable."""
    code = (
        "import resource\n"
        f"{setup}\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        f"{measured}\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((after - before) / 1024)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return float(done.stdout.split()[-1])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
