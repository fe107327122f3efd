"""Deterministic density clustering and per-cluster medoid extraction.

DBSCAN semantics, pinned: a point is core when at least min_samples points
(itself included) lie within eps (closed ball); clusters are the maximal sets
of density-connected core points plus their border points; a border point
reachable from several clusters joins the cluster of the lowest-index core
point that reaches it; everything else is noise, labeled -1. Seed expansion
scans row ids in ascending order, so cluster ids count up in order of first
discovery. All distances are euclidean on encoded vectors.

Expansion works per node, not per edge: a point popped from the stack labels
all its unlabeled core neighbors in one masked numpy step and pushes them, and
a border point takes the label of the first core entry of its ascending
neighbor list. Temporaries are the size of one neighbor list.

A medoid is the member with the smallest exact (fsum) sum of distances to its
cluster, ties to the lowest row id; kernels.medoid_local_index computes the
exact sum only for rows whose lower bound does not rule them out.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .errors import ConfigError, DegenerateGeometryError, LineageError
from .encoding import EncodedMatrix
from .tables import DataTable

NOISE = -1


@dataclass(frozen=True)
class DbscanParams:
    """eps None means automatic selection via auto_eps."""

    eps: float | None = None
    min_samples: int = 5

    def __post_init__(self) -> None:
        if self.eps is not None and not self.eps > 0.0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.min_samples < 1:
            raise ConfigError(f"min_samples must be at least 1, got {self.min_samples}")

    @property
    def eps_mode(self) -> str:
        return "auto" if self.eps is None else "fixed"


@dataclass(eq=False)
class ClusterLabeling:
    labels: np.ndarray
    core_mask: np.ndarray
    n_clusters: int
    eps: float
    eps_mode: str
    min_samples: int
    model_hash: str

    @property
    def noise_count(self) -> int:
        return int((self.labels == NOISE).sum())


@dataclass(frozen=True)
class Medoid:
    cluster_id: int
    row_id: int
    vector: np.ndarray
    raw: tuple


@dataclass(eq=False)
class MedoidSet:
    """One medoid per cluster, ordered by cluster id."""

    medoids: list[Medoid]
    cluster_sizes: list[int]
    model_hash: str

    def __len__(self) -> int:
        return len(self.medoids)

    def vectors(self) -> np.ndarray:
        if not self.medoids:
            return np.empty((0, 0), dtype=np.float64)
        return np.stack([m.vector for m in self.medoids])


def auto_eps(matrix: EncodedMatrix, min_samples: int) -> float:
    """Median over rows of the distance to the min_samples-th nearest neighbor
    (self excluded). Errors when the result is zero, since a zero radius
    cannot define a neighborhood."""
    n = len(matrix.vectors)
    if n <= min_samples:
        raise ConfigError(
            f"auto eps needs more than min_samples={min_samples} rows, got {n}"
        )
    kdist = kernels.kth_neighbor_distances(matrix.vectors, min_samples)
    eps = float(np.median(kdist))
    if eps == 0.0:
        raise DegenerateGeometryError("degenerate geometry, supply eps")
    return eps


def dbscan(matrix: EncodedMatrix, params: DbscanParams) -> ClusterLabeling:
    x = matrix.vectors
    n = len(x)
    if n == 0:
        raise ConfigError("cannot cluster an empty matrix")
    eps = params.eps if params.eps is not None else auto_eps(matrix, params.min_samples)

    neighbors = kernels.neighbor_lists(x, eps)
    core = np.fromiter(map(len, neighbors), dtype=np.int64, count=n) >= params.min_samples
    labels = np.full(n, NOISE, dtype=np.int32)

    cluster = 0
    for seed in np.flatnonzero(core).tolist():
        if labels[seed] != NOISE:
            continue
        labels[seed] = cluster
        stack = [seed]
        while stack:
            nb = neighbors[stack.pop()]
            new = nb[core[nb] & (labels[nb] == NOISE)]
            labels[new] = cluster
            stack.extend(new.tolist())
        cluster += 1

    # Border points: non-core within eps of a core point. Neighbor lists are
    # ascending, so the first core neighbor is the lowest-index one.
    for i in np.flatnonzero(~core).tolist():
        nb = neighbors[i]
        hit = nb[core[nb]]
        if len(hit):
            labels[i] = labels[hit[0]]

    return ClusterLabeling(
        labels=labels,
        core_mask=core,
        n_clusters=cluster,
        eps=eps,
        eps_mode=params.eps_mode,
        min_samples=params.min_samples,
        model_hash=matrix.model_hash,
    )


def extract_medoids(
    matrix: EncodedMatrix, labeling: ClusterLabeling, table: DataTable
) -> MedoidSet:
    """Medoid per cluster: the member minimizing the sum of encoded distances
    to its cluster, ties to the lowest row id. Noise rows are discarded."""
    if labeling.model_hash != matrix.model_hash:
        raise LineageError("labeling and matrix come from different encoding models")
    if len(labeling.labels) != len(matrix.vectors) or len(labeling.labels) != table.n_rows:
        raise LineageError("labeling, matrix, and table row counts disagree")
    medoids: list[Medoid] = []
    sizes: list[int] = []
    for cid in range(labeling.n_clusters):
        members = np.flatnonzero(labeling.labels == cid)
        local = kernels.medoid_local_index(matrix.vectors[members])
        row_id = int(members[local])
        medoids.append(
            Medoid(
                cluster_id=cid,
                row_id=row_id,
                vector=matrix.vectors[row_id].copy(),
                raw=table.row(row_id),
            )
        )
        sizes.append(int(len(members)))
    return MedoidSet(medoids=medoids, cluster_sizes=sizes, model_hash=matrix.model_hash)


def write_labels_csv(labeling: ClusterLabeling, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row_id", "label"])
        for row_id, label in enumerate(labeling.labels):
            writer.writerow([row_id, int(label)])


def write_medoids_csv(medoids: MedoidSet, table: DataTable, path: str | Path) -> None:
    """cluster_id, row_id, cluster_size, then the medoid's raw column values."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id", "row_id", "cluster_size", *table.schema.names])
        for m, size in zip(medoids.medoids, medoids.cluster_sizes):
            cells = [repr(v) if isinstance(v, float) else v for v in m.raw]
            writer.writerow([m.cluster_id, m.row_id, size, *cells])
