"""Exact distance kernels shared by clustering and evaluation.

Every decision rests on the distance dists_to computes from explicit
coordinate differences, so all code paths agree bitwise on every pair. The
kernels share one pattern: a cheap prefilter that provably settles most
pairs, then that exact comparison for the rest.

- Brute-force neighbour search, the k-th-neighbour pass and the cross minima
  run on one row-tile engine (_bracket_tiles). For a block of rows against
  every column, one BLAS product gives an upper bound U on the float sum of
  squares s that dists_to takes the square root of, and each row gets a
  spread with U - spread/2 <= s. Pairs these bounds settle never reach
  dists_to.
- The grid index gathers candidates from adjacent cells.
- The medoid kernel skips rows whose triangle-inequality lower bound, loosened
  by a proven rounding slack, exceeds the best exact (fsum) sum.

The band. Write u = 2^-53, d for the dimension and, for stored rows a and b,
A = |a|^2, B = |b|^2, P = a.b and D^2 = |a - b|^2 = A + B - 2P in exact
arithmetic. A float inner product of n terms, in any summation order and with
or without fused multiply-add, is within gamma_n = n*u/(1 - n*u) times the sum
of its absolute terms of the exact value (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, ch. 3); with gradual underflow each product adds
at most 2^-1075, and sums that underflow are exact. Hence:
- s = fl(sum fl(fl(b_k - a_k)^2)) is within gamma_{d+1}*D^2 + d*2^-1075 of D^2;
- n_a = fl(sum a_k^2) is within gamma_d*A + d*2^-1075 of A; the slack is
  e_a = fl(fl(w*n_a) + z) with w = 16(d + 1)u and z = (d + 1)*2^-1070, and
  the addend n_a + e_a rounds once more;
- U = [-2a, n_a + e_a, 1] . [b, 1, n_b + e_b] is one inner product of d + 2
  terms, the last two exact, so it is within
  gamma_{d+2}*(2|a||b| + n_a + e_a + n_b + e_b) + d*2^-1074 of
  n_a + e_a + n_b + e_b - 2P.
With 2|a||b| <= A + B and D^2 <= 2(A + B), the first-order terms give
U - s >= (w - (5d + 9)u)(A + B) + 2z - (4d + 4)*2^-1075 and
U - s <= e_a + e_b + (5d + 9)u(A + B) + (4d + 4)*2^-1075. w is at least 2.2
times (5d + 9)u and z sixteen times (d + 1)*2^-1074, which covers the
higher-order terms for any d*u < 2^-10, so 0 <= U - s <= 1.5(e_a + e_b). The
spread 3(e_a + max over b of e_b) thus gives U - spread/2 <= s <= U, and it
is at least 48(d + 1)u(A + B) + 6z while U <= 2.1(A + B) + 3z. A row whose
squared norm is not finite or exceeds 2^1000 could overflow the product: its
pairs get U = NaN, which every test below leaves to dists_to, and its spread
(every spread, if it is a column row) is inf.

Thresholds. A test compares U with T = fl(v + spread) for some v >= 0, and
U > T implies s > v: s >= U - spread/2 > v + spread/2 - u(v + spread), which
is at least v unless u*v > spread/2 - u*spread; but then v exceeds
2.1(A + B) + 3z >= U, so U < T. Likewise U >= T implies s >= v, and the
rounding of fl(t - spread) keeps it at most t - spread/2.

The decisions. fl(sqrt) is correctly rounded and monotone, and the distance
is d = fl(sqrt(s)).
- Neighbour search, for 2^-500 < eps < 2^500: U <= fl(eps^2)(1 - 4u) gives
  s <= eps^2, so d <= eps; U >= fl(v + spread) with v = fl(eps^2)(1 + 8u)
  gives s > eps^2(1 + u)^2, so sqrt(s) lies past the midpoint between eps and
  the next float and d > eps. Only the pairs in between are compared exactly.
- Widening. For floats s, m >= 0, fl(sqrt(s)) <= fl(sqrt(m)) implies
  s <= m(1 + u)^4 (and s <= m where m < 2^-1022), which is at most
  widen(m) = fl(m(1 + 8u)). So a pair with s > widen(m) has d > fl(sqrt(m)).
- k-th neighbour: with t the row's (k+1)-th smallest U, k + 1 pairs have
  d <= fl(sqrt(t)), so the answer v is at most that and every pair with
  d <= v is a candidate: U <= fl(widen(t) + spread). Among the candidates, a
  pair with widen(U) < fl(t - spread) has d < v, because the (k+1)-th
  smallest s is at least t - spread/2. Such pairs are counted, not computed;
  v is the exact distance at rank k minus their count among the remaining
  candidates. NaN distances sort last, as in np.partition.
- Cross minima: a running minimum of U over the pairs seen bounds each row's
  and each column's minimum s from above, and every pair within widen of
  either bound (plus the largest spread of the block) is computed, which
  includes every pair tying a minimum. Row minima keep the first
  (lowest-index) minimum, with NaN first as in np.argmin; column minima
  propagate NaN as np.minimum does.

The CMLA_THREADS environment variable caps the worker threads used for row
partitioning. Workers write disjoint output slices, and cross minima merge
per-worker partials in range order, so results depend neither on the worker
count nor on the tile size.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError

GRID_INDEX_MIN_ROWS = 50_000
# Bytes of upper bounds per tile. 512 KiB measured fastest at n = 8000,
# d = 9 on a 2 MiB-L2 core: the tile, its partition copy and the (d+2) x n
# right operand stay in L2, while 256 KiB tiles pay twice the per-tile
# overhead and 1 MiB tiles spill.
TILE_BYTES = 512 * 1024
_U = 2.0**-53


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
    """Euclidean distances from one vector to every row of a matrix, or
    between the paired rows of two matrices of the same shape."""
    diff = points - a
    return np.sqrt((diff * diff).sum(axis=1))


def _row_ranges(n: int, workers: int) -> list[tuple[int, int]]:
    step = max(1, -(-n // workers))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _parallel_rows(n: int, fill) -> None:
    """Run fill(lo, hi) over a partition of range(n), threaded when allowed.

    Each range runs in a copy of the caller's context, which carries NumPy's
    error state (np.errstate) into the workers."""
    workers = min(thread_count(), n)
    if workers <= 1 or n < 256:
        fill(0, n)
        return
    ranges = _row_ranges(n, workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(contextvars.copy_context().run, fill, lo, hi) for lo, hi in ranges
        ]
        for f in futures:
            f.result()


def _bracket_tiles(x: np.ndarray, y: np.ndarray):
    """tiles(lo, hi) yields (i0, upper, spread) for blocks of rows x[lo:hi].

    For every pair, upper[r, j] - spread[r]/2 <= s <= upper[r, j] (module
    docstring), where s is the float sum of squares that
    dists_to(x[i0 + r], y[j]) takes the square root of. A pair with a row
    whose squared norm is not finite or exceeds 2^1000 gets a NaN upper bound,
    and every spread is inf when y has such a row (only the row's own spread
    when x has it). Each block spans all of y and holds at most TILE_BYTES, or
    one row; the arrays are reused from block to block.
    """
    d = x.shape[1]
    x_up, x_slack = _norm_addends(x)
    y_up, y_slack = _norm_addends(y)
    x_bad = np.isinf(x_slack)
    y_bad = np.flatnonzero(np.isinf(y_slack))
    y_slack_max = y_slack.max(initial=0.0)
    # one BLAS product per block: [-2a, n_a + e_a, 1] . [b, 1, n_b + e_b]
    right = np.empty((d + 2, len(y)))
    right[:d] = y.T
    right[d] = 1.0
    right[d + 1] = y_up
    rows = max(1, TILE_BYTES // (8 * max(1, len(y))))

    def tiles(lo: int, hi: int):
        left = np.ones((rows, d + 2))
        out = np.empty((rows, len(y)))
        for i0 in range(lo, hi, rows):
            m = min(rows, hi - i0)
            np.multiply(x[i0 : i0 + m], -2.0, out=left[:m, :d])
            left[:m, d] = x_up[i0 : i0 + m]
            upper = out[:m]
            with np.errstate(all="ignore"):
                np.matmul(left[:m], right, out=upper)
            bad = x_bad[i0 : i0 + m]
            if bad.any():
                upper[bad] = np.nan
            if len(y_bad):
                upper[:, y_bad] = np.nan
            yield i0, upper, 3.0 * (x_slack[i0 : i0 + m] + y_slack_max)

    return tiles


def _norm_addends(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n + e, e) per row: the squared norm n raised by its slack
    e = w*n + z, with w = 16(d + 1)u and z = (d + 1)*2^-1070; the slack is inf
    where n is not finite or exceeds 2^1000."""
    d = x.shape[1]
    with np.errstate(all="ignore"):
        norms = np.einsum("ij,ij->i", x, x)
        slack = 16 * (d + 1) * _U * norms + (d + 1) * 2.0**-1070
    slack[~(norms <= 2.0**1000)] = np.inf
    return norms + slack, slack


def _pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the set entries, in row-major order; 2-d
    np.nonzero is several times slower."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _widen(bound: np.ndarray) -> np.ndarray:
    """At least every float sum of squares whose square root rounds to at most
    fl(sqrt(bound)), for bound >= 0 (module docstring)."""
    return bound * (1 + 8 * _U)


def _brute_neighbor_lists(x: np.ndarray, eps: float) -> list[np.ndarray]:
    n = len(x)
    out: list[np.ndarray | None] = [None] * n
    tiles = _bracket_tiles(x, x)
    # U <= inside proves d <= eps and U >= outside + spread proves d > eps;
    # the thresholds are only used where eps^2 is far from under- and overflow
    if 2.0**-500 < eps < 2.0**500:
        inside, outside = eps * eps * (1 - 4 * _U), eps * eps * (1 + 8 * _U)
    else:
        inside = outside = math.nan

    def fill(lo: int, hi: int) -> None:
        for i0, upper, spread in tiles(lo, hi):
            hit = upper <= inside
            settled = hit | (upper >= (outside + spread)[:, None])
            if not settled.all():
                r, c = _pairs(~settled)
                hit[r, c] = dists_to(x[i0 + r], x[c]) <= eps
            flat = np.flatnonzero(hit)
            rows = np.split(flat, np.searchsorted(flat, np.arange(1, len(hit)) * n))
            for r, cols in enumerate(rows):
                out[i0 + r] = cols - r * n

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


def neighbor_lists(x: np.ndarray, eps: float) -> list[np.ndarray]:
    """Sorted index arrays of all points within eps of each row (self included);
    above GRID_INDEX_MIN_ROWS rows through the grid index."""
    if eps <= 0.0:
        raise ConfigError("eps must be positive")
    if len(x) > GRID_INDEX_MIN_ROWS:
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
    tiles = _bracket_tiles(x, x)

    def fill(lo: int, hi: int) -> None:
        for i0, upper, spread in tiles(lo, hi):
            m = len(upper)
            t = np.partition(upper, k, axis=1)[:, k]
            r, c = _pairs(~(upper > (_widen(t) + spread)[:, None]))
            # the (k+1)-th smallest sum of squares is at least t - spread, so
            # a candidate whose widened upper bound is below that is strictly
            # smaller than the answer and needs no exact distance
            with np.errstate(invalid="ignore"):
                below = _widen(upper[r, c]) < (t - spread)[r]
            rank = k - np.bincount(r[below], minlength=m)
            r, c = r[~below], c[~below]
            d = dists_to(x[i0 + r], x[c])
            d = d[np.lexsort((d, r))]
            out[i0 : i0 + m] = d[np.searchsorted(r, np.arange(m)) + rank]

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
    a_min = np.full(len(a), np.inf)
    a_arg = np.zeros(len(a), dtype=np.int64)
    b_min = np.empty(len(b), dtype=np.float64)
    tiles = _bracket_tiles(b, a)
    parts: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def fill(lo: int, hi: int) -> None:
        # per row of a: an upper bound over the b rows seen so far, and the
        # best exact distance, ranked like argmin (NaN first, then the value)
        bound = np.full(len(a), np.inf)
        rank = np.full(len(a), np.inf)
        best = np.full(len(a), np.inf)
        arg = np.zeros(len(a), dtype=np.int64)
        for i0, upper, spread in tiles(lo, hi):
            m = len(upper)
            np.fmin(bound, np.fmin.reduce(upper, axis=0), out=bound)
            far_row = upper > (_widen(np.fmin.reduce(upper, axis=1)) + spread)[:, None]
            r, c = _pairs(~(far_row & (upper > _widen(bound) + spread.max())))
            d = dists_to(a[c], b[i0 + r])
            b_min[i0 : i0 + m] = np.minimum.reduceat(d, np.searchsorted(r, np.arange(m)))
            key = np.where(np.isnan(d), -np.inf, d)
            order = np.lexsort((r, key, c))
            first = order[np.r_[True, c[order][1:] != c[order][:-1]]]
            first = first[key[first] < rank[c[first]]]
            cols = c[first]
            rank[cols], best[cols], arg[cols] = key[first], d[first], i0 + r[first]
        parts[lo] = (rank, best, arg)

    _parallel_rows(len(b), fill)
    rank = np.full(len(a), np.inf)
    for lo in sorted(parts):
        part_rank, part_best, part_arg = parts[lo]
        better = part_rank < rank
        rank[better] = part_rank[better]
        a_min[better] = part_best[better]
        a_arg[better] = part_arg[better]
    return a_min, a_arg, b_min
