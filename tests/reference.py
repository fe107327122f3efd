"""Independent reference implementations the tests cross-check against.

Everything here re-derives results through a different algorithmic route than
the package: density clustering via an explicit epsilon graph with union-find,
metrics via per-pair python loops, medoid sums via math.fsum, quantiles via
hand-rolled interpolation. Distances use the same explicit-difference formula
as the package kernels; numpy evaluates the row-wise and per-pair reductions
of that formula bitwise-identically, which is what makes exact cross-checks
possible.
"""

from __future__ import annotations

import math

import numpy as np


def pair_dist(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt((diff * diff).sum()))


def gower_pair(a_row: tuple, b_row: tuple, schema, ranges: dict) -> float:
    """Mean per-column Gower dissimilarity of two raw rows, one column at a time."""
    total = 0.0
    for col, a, b in zip(schema.columns, a_row, b_row):
        if col.kind == "numeric":
            lo, hi = ranges[col.name]
            if hi != lo:
                total += min(abs(float(a) - float(b)) / (hi - lo), 1.0)
        else:
            total += 0.0 if a == b else 1.0
    return total / len(schema.columns)


def row_dists(x: np.ndarray, i: int) -> np.ndarray:
    diff = x - x[i]
    return np.sqrt((diff * diff).sum(axis=1))


def eps_graph_clustering(
    x: np.ndarray, eps: float, min_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Density clustering by connected components over core points.

    Core: closed-ball neighborhood (self included) of size >= min_samples.
    Components are numbered by their lowest core row, border points join the
    cluster of the lowest-index core point reaching them, the rest is -1.
    """
    n = len(x)
    neighbors = [np.flatnonzero(row_dists(x, i) <= eps) for i in range(n)]
    core = np.array([len(nb) >= min_samples for nb in neighbors], dtype=bool)

    parent = list(range(n))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            # parent the larger root to the smaller, so the component root
            # is always its lowest row
            parent[max(ra, rb)] = min(ra, rb)

    for i in range(n):
        if not core[i]:
            continue
        for j in neighbors[i]:
            if core[j]:
                union(i, int(j))

    labels = np.full(n, -1, dtype=np.int32)
    numbering: dict[int, int] = {}
    for i in range(n):
        if core[i]:
            root = find(i)
            if root not in numbering:
                numbering[root] = len(numbering)
            labels[i] = numbering[root]
    for i in range(n):
        if core[i]:
            continue
        for j in neighbors[i]:
            if core[j]:
                labels[i] = labels[j]
                break
    return labels, core


def double_loop_metrics(
    medoid_vectors: np.ndarray, real_vectors: np.ndarray, taus
) -> tuple[list[float], list[int], list[float], list[float], list[float]]:
    """d_min, nearest indices, per-real minima, ASR and coverage, all by
    explicit loops and counting. Strict < against every threshold."""
    k = len(medoid_vectors)
    n = len(real_vectors)
    d_min: list[float] = []
    nearest: list[int] = []
    per_real = [math.inf] * n
    for i in range(k):
        best = math.inf
        arg = -1
        for j in range(n):
            d = pair_dist(medoid_vectors[i], real_vectors[j])
            if d < best:
                best = d
                arg = j
            if d < per_real[j]:
                per_real[j] = d
        d_min.append(best)
        nearest.append(arg)
    asr = [sum(1 for d in d_min if d < t) / k for t in taus]
    cov = [sum(1 for d in per_real if d < t) / n for t in taus]
    return d_min, nearest, per_real, asr, cov


def medoid_violations(
    vectors: np.ndarray,
    labels: np.ndarray,
    chosen: dict[int, int],
    max_size: int = 500,
) -> list[tuple[int, int, int]]:
    """Exhaustively re-derive every cluster's medoid with exact (fsum) sums.

    chosen maps cluster id to the row id the implementation picked. Returns
    (cluster_id, chosen_row, expected_row) triples; ties must resolve to the
    lowest row id. Clusters above max_size members are skipped.
    """
    bad: list[tuple[int, int, int]] = []
    for cid, chosen_row in chosen.items():
        members = np.flatnonzero(labels == cid)
        if len(members) > max_size:
            continue
        sums = {
            int(i): math.fsum(pair_dist(vectors[i], vectors[j]) for j in members)
            for i in members
        }
        best = min(sums.values())
        expected = min(i for i, s in sums.items() if s == best)
        if sums[chosen_row] > best or chosen_row != expected:
            bad.append((cid, chosen_row, expected))
    return bad


def kth_nn_distance(x: np.ndarray, i: int, k: int) -> float:
    """k-th nearest neighbor distance of row i, self excluded: index k of the
    sorted self-inclusive distance vector, NaN sorted last as numpy does."""
    ds = sorted((pair_dist(x[i], x[j]) for j in range(len(x))), key=lambda v: (math.isnan(v), v))
    return ds[k]


def percentile(values, p: float) -> float:
    """Linear interpolation at rank h = (n - 1) * p / 100 on sorted values."""
    s = sorted(float(v) for v in values)
    h = (len(s) - 1) * (p / 100.0)
    f = math.floor(h)
    if f + 1 >= len(s):
        return s[f]
    return s[f] + (h - f) * (s[f + 1] - s[f])
