"""Exact distance kernels shared by clustering and evaluation.

Every kernel computes euclidean distances from explicit coordinate
differences (never the expanded dot-product identity) and compares the
square-rooted distance against thresholds, so all code paths agree bitwise on
every pair. The grid index only prefilters candidates; membership always goes
through the same exact comparison, which keeps accelerated neighbor sets
identical to brute force by construction. The medoid kernel follows the same
pattern: triangle-inequality lower bounds, loosened by a proven rounding
slack, skip rows whose exact sum must exceed the best one, and fsum sums
decide among the rest.

The CMLA_THREADS environment variable caps the worker threads used for row
partitioning. Workers write disjoint output slices, so results do not depend
on the worker count.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError

GRID_INDEX_MIN_ROWS = 50_000


def thread_count() -> int:
    """CMLA_THREADS if set, else the CPUs this process may run on, at most 8."""
    raw = os.environ.get("CMLA_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        return min(8, cpus)
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"CMLA_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError("CMLA_THREADS must be at least 1")
    return n


def dists_to(a: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distances from one vector to every row of a matrix."""
    diff = points - a
    return np.sqrt((diff * diff).sum(axis=1))


def _row_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    step = max(1, -(-n // workers))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _parallel_rows(n: int, fill) -> None:
    """Run fill(lo, hi) over a partition of range(n), threaded when allowed."""
    workers = min(thread_count(), n)
    if workers <= 1 or n < 256:
        fill(0, n)
        return
    ranges = _row_ranges(n, workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fill, lo, hi) for lo, hi in ranges]
        for f in futures:
            f.result()


def _brute_neighbor_lists(x: np.ndarray, eps: float) -> list[np.ndarray]:
    n = len(x)
    out: list[np.ndarray | None] = [None] * n

    def fill(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            out[i] = np.flatnonzero(dists_to(x[i], x) <= eps)

    _parallel_rows(n, fill)
    return out  # type: ignore[return-value]


def _grid_neighbor_lists(x: np.ndarray, eps: float) -> list[np.ndarray]:
    """Neighbor lists through a uniform grid over the leading dimensions.

    A point within eps in the full space is within one cell step along any
    subset of dimensions, so gathering the 3^g adjacent cells yields a
    superset of the true neighborhood; the exact filter then matches the
    brute-force rule bit for bit. Cell keys that would not fit in int64
    (tiny eps, huge or non-finite coordinates) send the input to brute force.
    """
    n, d = x.shape
    g = min(3, d)
    scaled = np.floor(x[:, :g] / eps)
    if not (np.abs(scaled) < 2.0**62).all():
        return _brute_neighbor_lists(x, eps)
    keys = scaled.astype(np.int64)
    cells: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(map(tuple, keys)):
        cells.setdefault(key, []).append(i)
    offsets = list(itertools.product((-1, 0, 1), repeat=g))
    out: list[np.ndarray | None] = [None] * n
    for key, members in cells.items():
        candidates: list[int] = []
        for off in offsets:
            hit = cells.get(tuple(k + o for k, o in zip(key, off)))
            if hit is not None:
                candidates.extend(hit)
        cand = np.sort(np.asarray(candidates, dtype=np.int64))
        block = x[cand]
        for i in members:
            out[i] = cand[dists_to(x[i], block) <= eps]
    return out  # type: ignore[return-value]


def neighbor_lists(
    x: np.ndarray,
    eps: float,
    *,
    grid_threshold: int = GRID_INDEX_MIN_ROWS,
) -> list[np.ndarray]:
    """Sorted index arrays of all points within eps of each row (self included)."""
    if eps <= 0.0:
        raise ConfigError("eps must be positive")
    if len(x) > grid_threshold:
        return _grid_neighbor_lists(x, eps)
    return _brute_neighbor_lists(x, eps)


def kth_neighbor_distances(x: np.ndarray, k: int) -> np.ndarray:
    """Distance from each row to its k-th nearest neighbor, self excluded.

    The self distance occupies one slot among the k + 1 smallest entries of
    the row's full distance vector, so the k-th self-excluded neighbor sits at
    partition index k of the vector that includes self.
    """
    n = len(x)
    if not 1 <= k < n:
        raise ConfigError(f"k must be in [1, {n - 1}], got {k}")
    out = np.empty(n, dtype=np.float64)

    def fill(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            out[i] = np.partition(dists_to(x[i], x), k)[k]

    _parallel_rows(n, fill)
    return out


def medoid_local_index(members: np.ndarray) -> int:
    """Index of the member minimizing the sum of distances to all members.

    Ties resolve to the lowest index, which is the lowest row id when callers
    pass members in ascending row order. The per-row sums are exact (fsum):
    duplicated rows produce the same distance multiset in different orders,
    and a naive float sum can rank such exact ties either way.

    Not every sum is computed (trimed; Newling & Fleuret, AISTATS 2017). Rows
    are visited in ascending order of a lower bound on their sum, ties to the
    lowest index, from all-zero bounds. Visiting row j computes its distance
    row d_j and S(j) = fsum(d_j) and raises every bound to
    |S(j) - m*d_j[i]| - slack. The visits stop once every unvisited bound
    exceeds the best sum so far strictly, so a row that could tie is always
    computed and the answer is the exhaustive argmin whatever the visit order.

    Why the bound holds. Write D for the exact euclidean distance between the
    stored vectors, S* for exact sums of D, dim for the dimension, u = 2^-53.
    The triangle inequality gives D(i, k) >= |D(j, k) - D(j, i)|, so
    S*(i) >= |S*(j) - m*D(j, i)|. A computed distance rounds the difference
    (relative error u), the square (u) and a sum of dim non-negative terms
    (gamma_{dim-1}), then the square root halves the relative error and adds
    u: |d - D| <= (dim/2 + 2)*u*D to first order, plus at most
    sqrt(dim)*2^-537 where squares underflow. fsum rounds the exact sum once,
    so S(i) and S(j) are within (dim/2 + 3)*u relative (plus m times that
    absolute term) of S*(i) and S*(j); forming m*d_j[i], the difference and
    the subtraction of the slack add three more roundings. Collecting terms,
    S(i) >= |S(j) - m*d_j[i]| - e with
    e <= (dim + 9)*u*(S(j) + m*d_j[i]) + 3*m*sqrt(dim)*2^-537 to first
    order. The slack is at least eight times the relative term and over
    forty times the absolute one, which covers the higher-order terms for
    any dim*u < 2^-6. NaN bounds, from sums that overflow, are ignored, and an
    infinite best sum prunes nothing.
    """
    m, dim = members.shape
    rel = 16 * (dim + 4) * 2.0**-53
    floor = m * math.sqrt(dim) * 2.0**-530
    sums = np.full(m, np.inf)
    bound = np.zeros(m)  # visited rows hold inf
    best = math.inf
    for _ in range(m):
        j = int(np.argmin(bound))
        if bound[j] > best:
            break
        d = dists_to(members[j], members)
        s = math.fsum(d)
        sums[j] = s
        best = min(best, s)
        md = m * d
        np.fmax(bound, np.abs(s - md) - (rel * (s + md) + floor), out=bound)
        bound[j] = np.inf
    return int(np.argmin(sums))


def cross_min_distances(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min distances between two point sets in one pass.

    Returns (a_min, a_arg, b_min): per row of a, the minimum distance into b
    and the lowest index attaining it; and per row of b, the minimum distance
    into a.
    """
    if len(a) == 0 or len(b) == 0:
        raise ConfigError("cross_min_distances requires non-empty inputs")
    a_min = np.empty(len(a), dtype=np.float64)
    a_arg = np.empty(len(a), dtype=np.int64)
    b_min = np.full(len(b), np.inf, dtype=np.float64)
    for i in range(len(a)):
        d = dists_to(a[i], b)
        a_min[i] = d.min()
        a_arg[i] = int(np.argmin(d))
        np.minimum(b_min, d, out=b_min)
    return a_min, a_arg, b_min
