"""Deterministic density clustering and per-cluster medoid extraction.

DBSCAN semantics, pinned: a point is core when at least min_samples points
(itself included) lie within eps (closed ball); clusters are the maximal sets
of density-connected core points plus their border points; a border point
reachable from several clusters joins the cluster of the lowest-index core
point that reaches it; everything else is noise, labeled -1. Cluster ids
count up in order of first discovery by a seed scan in ascending row order,
which is the order of each cluster's lowest core row. All distances are
euclidean on encoded vectors. eps and min_samples arrive resolved and checked
by audit.AuditConfig; this module keeps no defaults of its own.

Rows with equal bytes are merged once, in dbscan, in order of first
occurrence and weighted by their count: a distinct row is core iff its
neighbours' weights sum to at least min_samples, as in scikit-learn's
DBSCAN(sample_weight=) (Pedregosa et al., JMLR 2011). Labels and the core
mask go back to every copy, and the labeling's weight keeps each count at
the first copy for extract_medoids, which merges nothing itself. The merge
comes before auto eps, so that rows with more than min_samples copies, at a
k-th distance of 0, settle a zero median from the counts alone.

One stream of kernels' hit blocks (kernels.neighbor_lists) gives the core
rows, the components of the eps-graph on them, which are the clusters' cores,
each rooted at its lowest row (Patwary et al., SC 2012), and each border
point's lowest-index core neighbour, whose label it takes (Schubert et al.,
TODS 2017). The pass decides each border row inside the block where the
later of it and its core neighbour streams and stores no neighbour list, so
its memory is O(n_distinct) plus one tile, whatever min_samples. Rows in
dense grid cells (Gan and Tao, SIGMOD 2015), whose pairs are all within eps
and whose weights reach min_samples, are core before the pass and never
stream; their cells are joined at cell level, so the eps-edges inside dense
regions, where a memorizing generator puts its copies, are never computed.
The stage logs how many distinct rows the dense cells took and how many
streamed.

A medoid is the member with the smallest exact (fsum) sum of distances to its
cluster, ties to the lowest row id; kernels.medoid_local_index takes each
cluster's distinct members with their counts and computes the exact sum only
for rows that two lower bounds cannot rule out: a sorted one-axis bound in
O(md log md), then the tile engine's band for the rows it keeps, against
every member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, DegenerateGeometryError, LineageError
from .encoding import EncodedMatrix
from .tables import DataTable

NOISE = -1


@dataclass(eq=False)
class ClusterLabeling:
    """Per row: its label (NOISE or a cluster id), whether it is core, and its
    weight, the number of rows with its bytes at the first of them and 0 at
    each later copy. Copies share a label."""

    labels: np.ndarray
    core_mask: np.ndarray
    weight: np.ndarray
    n_clusters: int
    eps: float
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
    (self excluded), every row counted. kernels.kth_neighbor_median computes
    it exactly, bit for bit the median of kernels.kth_neighbor_distances, by
    selection: a sample brackets the median between two radii, one grid pass
    counts the rows on either side, and only the rows that can hold the two
    middle values get an exact distance. Errors when the result is zero,
    since a zero radius cannot define a neighborhood."""
    n = len(matrix.vectors)
    if n <= min_samples:
        raise ConfigError(
            f"auto eps needs more than min_samples={min_samples} rows, got {n}"
        )
    eps = kernels.kth_neighbor_median(matrix.vectors, min_samples)
    if eps == 0.0:
        raise DegenerateGeometryError("degenerate geometry, supply eps")
    return eps


def dbscan(matrix: EncodedMatrix, eps: float | None, min_samples: int) -> ClusterLabeling:
    """Label the rows at radius eps, or at auto_eps when eps is None."""
    x = matrix.vectors
    if len(x) == 0:
        raise ConfigError("cannot cluster an empty matrix")
    first, inverse, weight = kernels.distinct_rows(x)
    if eps is None:
        # a row with more than min_samples copies has a k-th distance of 0;
        # when such rows are more than half, so are both middle values
        # (unless a row that is not finite makes the median NaN)
        if weight[weight > min_samples].sum() > len(x) // 2 and np.isfinite(x).all():
            raise DegenerateGeometryError("degenerate geometry, supply eps")
        eps = auto_eps(matrix, min_samples)
    core, root, border = kernels.neighbor_lists(x[first], eps, min_samples, weight)
    # clusters numbered by their lowest core row
    labels = np.full(len(first), NOISE, dtype=np.int32)
    labels[core], n_clusters = kernels._rank(root[core])
    # a border row takes the label of its lowest core neighbour
    reached = border < len(first)
    labels[reached] = labels[border[reached]]
    counts = np.zeros(len(x), dtype=weight.dtype)
    counts[first] = weight

    return ClusterLabeling(
        labels=labels[inverse],
        core_mask=core[inverse],
        weight=counts,
        n_clusters=n_clusters,
        eps=eps,
        model_hash=matrix.model_hash,
    )


def extract_medoids(
    matrix: EncodedMatrix, labeling: ClusterLabeling, table: DataTable
) -> MedoidSet:
    """Medoid per cluster: the member minimizing the sum of encoded distances
    to its cluster, ties to the lowest row id. Noise rows are discarded.

    Each cluster's rows of zero weight are dropped and the rest go to the
    kernel with their weights, so this relies on the labeling's weight: a
    row's count at its first copy, in the copies' shared cluster. dbscan
    guarantees that. A weight of 1 on every row is always valid, whatever
    the labels, since equal rows have equal sums."""
    if labeling.model_hash != matrix.model_hash:
        raise LineageError("labeling and matrix come from different encoding models")
    if len(labeling.labels) != len(matrix.vectors) or len(labeling.labels) != table.n_rows:
        raise LineageError("labeling, matrix, and table row counts disagree")
    medoids: list[Medoid] = []
    # each cluster's members, in ascending row order, from one stable sort
    order = np.argsort(labeling.labels, kind="stable")
    bounds = np.searchsorted(labeling.labels, np.arange(labeling.n_clusters + 1), sorter=order)
    for cid in range(labeling.n_clusters):
        members = order[bounds[cid] : bounds[cid + 1]]
        members = members[labeling.weight[members] > 0]
        local = kernels.medoid_local_index(matrix.vectors[members], labeling.weight[members])
        row_id = int(members[local])
        medoids.append(
            Medoid(
                cluster_id=cid,
                row_id=row_id,
                vector=matrix.vectors[row_id].copy(),
                raw=table.row(row_id),
            )
        )
    sizes = np.diff(bounds).tolist()
    return MedoidSet(medoids=medoids, cluster_sizes=sizes, model_hash=matrix.model_hash)

