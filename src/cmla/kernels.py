"""Exact distance kernels shared by clustering and evaluation.

Every decision rests on the distance dists_to computes from explicit
coordinate differences, so all code paths agree bitwise on every pair. The
kernels share one pattern: a cheap prefilter that provably settles most
pairs, then that exact comparison for the rest.

- Neighbour search, the k-th-neighbour pass and the cross minima run on one
  row-tile engine (_bracket_tiles). For a block of rows against every
  column, one BLAS product gives an upper bound U on the float sum of
  squares s that dists_to takes the square root of, and each row gets a
  spread with U - spread/2 <= s. Pairs these bounds settle never reach
  dists_to. A tile's left operand, its bounds and each batch of exact pairs
  hold at most TILE_BYTES, whatever the widths.
- The eps-graph is never stored whole. _hit_blocks yields it one block of
  rows at a time as a boolean hit matrix against ascending columns, decided
  by the tile test: row tiles against every row, or a block of grid cells
  against their adjacent cells. neighbor_lists(x, eps, limit) keeps at most
  limit of each row's lowest neighbours, and eps_components unions the hits
  into connected components; each streams the blocks once.
- The grid (_cell_map) gives each row one int64 code for its cell and sorts
  the rows by it. Every dimension whose occupied keys never differ by
  exactly one (a one-hot column at a radius below about 1/2) is a digit
  that adjacent cells share; up to three others step by one, as the least
  significant digits, so a cell's adjacent cells are 3^(g-1) runs of the
  sorted codes for g of them. Consecutive cells are batched into blocks of
  about one tile, each against the union of its cells' adjacent rows. The
  work is estimated as the sum over blocks of rows * columns plus CELL_COST
  per block, and the cost rule (_grid_pays) takes the grid only when that is
  below the n^2 pairs of brute force: one cell holding most rows stays on
  brute force. Both neighbour search and the median below use it.
- clustering.auto_eps needs only the median of the k-th-neighbour
  distances. kth_neighbor_median computes the k-th distance exactly for the
  rows that a grid of side r certifies, and the median from them alone.
- Rows with equal bytes give equal distances, so distinct_rows merges them
  where the work scales with their count: clustering.dbscan and
  medoid_local_index run on distinct rows weighted by their counts. The
  medoid kernel screens them with the same tiles: the weighted row sums
  fl(sqrt(U)) . weight bound each row's exact (fsum) distance sum over the
  m = sum(weight) members from above and, less m*sqrt(spread), from below.
  Only rows whose lower bound reaches the least upper bound get an exact sum.

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
- Hits, for 2^-500 < eps < 2^500: U <= fl(eps^2)(1 - 4u) gives
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

The grid. A cell has side h = fl(r(1 + 2^-10)) for a radius
2^-500 < r < 2^500, and a row's key in dimension j is floor(fl(x_j / h)); a
dimension keys the grid only when every |fl(x_j / h)| < 2^40 in it.
Let rows a and b have distance fl(sqrt(s)) <= r and t = fl(b_j - a_j). Each
rounded partial sum of non-negative terms is at least each of its terms, so
s >= fl(t^2). If t^2 >= 2^-1022, fl(t^2) >= t^2(1 - u) and
fl(sqrt(s)) >= sqrt(s)(1 - u), so |t| <= r(1 + 2u) and
|b_j - a_j| <= |t|/(1 - u) <= r(1 + 4u); otherwise |b_j - a_j| < 2^-510 < r.
Each quotient is within u*2^40 = 2^-13 of x_j / h, so the two quotients
differ by at most (1 + 4u)r/h + 2^-12 < 1 - 2^-11, and their floors by at
most one. In a dimension where no two occupied keys differ by exactly one,
both keys are occupied, so they are equal. So every pair within r lies in
adjacent cells, and the tile test decides a block's rows against any
superset of their adjacent cells' rows exactly as brute force does.

The median. In a grid for radius r, a row's candidates are the columns of
its block, which hold the rows of its adjacent cells and itself, and its
candidate value c is their k-th smallest distance (from 0, as in
kth_neighbor_distances), or +inf when there are at most k; c >= v, the
row's true value. If v <= r, the k + 1 rows at distance at most v from it
are all candidates, so c = v. Hence c <= r certifies c = v, and every
uncertified row has v > r, above every certified value. When more than n/2
rows certify, the order statistics (n - 1)//2 and n//2 of all the values
are certified ones, so np.median over the certified values with +inf for
the rest reads the same one or two numbers as np.median over every v, bit
for bit. Otherwise r doubles and the grid is rebuilt.

The kernels run in one thread: on 2 vCPUs, a pool of row workers saved at
most 30 ms of an 8000-row k-th pass and cost CPU time and peak RSS on every
benchmark workload (CHANGES.md). Each kernel takes its blocks in one fixed
order, and the component union ends at the lowest index of each set whatever
that order, so results do not depend on the tile size.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

# The set-up of one grid block, in pairs of brute force. Fitted at 25k-75k
# per cell when each cell was its own tile; fits per batched block read
# 93k-254k on 8000-row inputs, but every grid decision on them is the same
# at 50k and 200k, and the grid won each one it took (2 vCPUs; CHANGES.md).
CELL_COST = 50_000
# Rows whose exact k-th distances set kth_neighbor_median's first radius.
MEDIAN_SAMPLE = 256
# Bytes of upper bounds per tile. 512 KiB measured fastest at n = 8000,
# d = 9 on a 2 MiB-L2 core: the tile, its partition copy and the (d+2) x n
# right operand stay in L2, while 256 KiB tiles pay twice the per-tile
# overhead and 1 MiB tiles spill.
TILE_BYTES = 512 * 1024
_U = 2.0**-53


def thread_count() -> int:
    """1, as the kernels run in one thread. The benchmark records this with
    every audit and its tests assert on it."""
    return 1


def dists_to(a: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Euclidean distances from one vector to every row of a matrix, or
    between the paired rows of two matrices of the same shape."""
    diff = points - a
    return np.sqrt((diff * diff).sum(axis=1))


def distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, inverse, weight): each distinct row's first index, ascending;
    each row's distinct index; each distinct row's count. Rows are compared
    by their bytes, so 0.0 and -0.0 differ and equal NaNs match."""
    x = np.ascontiguousarray(x)
    keys = x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel()
    # np.unique would copy the keys twice: compare sorted neighbours in batches
    order = np.argsort(keys, kind="stable")
    new = np.ones(len(keys), dtype=bool)
    step = max(1, TILE_BYTES // keys.itemsize)
    for lo in range(1, len(keys), step):
        hi = min(lo + step, len(keys))
        new[lo:hi] = keys[order[lo:hi]] != keys[order[lo - 1 : hi - 1]]
    starts = np.flatnonzero(new)
    by_first = np.argsort(order[starts])
    inverse = np.argsort(by_first)[np.cumsum(new) - 1][np.argsort(order)]
    return order[starts[by_first]], inverse, np.diff(starts, append=len(keys))[by_first]


def _bracket_tiles(x: np.ndarray, y: np.ndarray):
    """Yields (i0, upper, spread) for blocks of the rows of x, in order.

    For every pair, upper[r, j] - spread[r]/2 <= s <= upper[r, j] (module
    docstring), where s is the float sum of squares that
    dists_to(x[i0 + r], y[j]) takes the square root of. A pair with a row
    whose squared norm is not finite or exceeds 2^1000 gets a NaN upper bound,
    and every spread is inf when y has such a row (only the row's own spread
    when x has it). Each block spans all of y; its bounds and its left
    operand of d + 2 columns each hold at most TILE_BYTES, or one row. The
    arrays are reused from block to block.
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
    rows = max(1, TILE_BYTES // (8 * max(len(y), d + 2)))
    size = min(rows, len(x))
    left = np.ones((size, d + 2))
    out = np.empty((size, len(y)))
    for i0 in range(0, len(x), rows):
        m = min(rows, len(x) - i0)
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


def _exact_dists(a: np.ndarray, ai: np.ndarray, b: np.ndarray, bi: np.ndarray) -> np.ndarray:
    """dists_to(a[ai], b[bi]) in batches of at most TILE_BYTES of coordinates."""
    step = max(1, TILE_BYTES // (8 * a.shape[1]))
    out = np.empty(len(ai))
    for k in range(0, len(ai), step):
        out[k : k + step] = dists_to(a[ai[k : k + step]], b[bi[k : k + step]])
    return out


def _tile_hits(x: np.ndarray, y: np.ndarray, eps: float):
    """Yields (i0, hit) for the tiles of the rows of x, where hit[r, j] says
    dists_to(x[i0 + r], y[j]) <= eps."""
    # U <= inside proves d <= eps, and U >= outside + spread proves d > eps
    # for any spread at least the row's, so the tile's largest one serves all
    # its rows; the thresholds are only used where eps^2 is far from under-
    # and overflow
    if 2.0**-500 < eps < 2.0**500:
        inside, outside = eps * eps * (1 - 4 * _U), eps * eps * (1 + 8 * _U)
    else:
        inside = outside = math.nan
    for i0, upper, spread in _bracket_tiles(x, y):
        hit = upper <= inside
        settled = hit | (upper >= outside + spread.max())
        if not settled.all():
            r, c = _pairs(~settled)
            hit[r, c] = _exact_dists(x, i0 + r, y, c) <= eps
        yield i0, hit


def _grid_pays(cost: int, n: int) -> bool:
    """The cost rule: take the grid when its estimated work is below the n^2
    pairs of brute force."""
    return cost < n * n


def _cell_side(radius: float) -> float:
    """The grid's cell side for a radius: a little more, so that rounding
    keeps every pair within radius in adjacent cells (module docstring)."""
    return radius * (1 + 2.0**-10)


def _cell_codes(x: np.ndarray, h: float) -> tuple[np.ndarray, list[int]] | None:
    """Each row's int64 cell code for cells of side h, and the radices of its
    step digits, least significant last; None when no dimension can serve.

    A dimension serves when its keys floor(fl(x_j / h)) all stay below 2^40
    and take more than one value. It is separating when no two of its
    occupied keys differ by exactly one, and its digit is then the rank of
    its key. The first three others are step digits: the key shifted to start
    at 1, so that a step of one never leaves the digit. Separating digits are
    the most significant. Dimensions are taken in order while the radix
    product stays below 2^62; each is scanned in O(n) memory, by a bincount
    of its keys, or by a sort when they span more than n values.
    """
    n = len(x)
    with np.errstate(all="ignore"):
        lo, hi = np.floor(x.min(axis=0) / h), np.floor(x.max(axis=0) / h)
    serves = (np.abs(lo) < 2.0**40) & (np.abs(hi) < 2.0**40) & (lo < hi)
    separating, steps = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    step_radix: list[int] = []
    product = 1
    for j in np.flatnonzero(serves).tolist():
        if 2 * product >= 2**62:
            break
        span = int(hi[j] - lo[j]) + 1
        keys = (np.floor(x[:, j] / h) - lo[j]).astype(np.int64)
        if span <= n:
            occupied = np.flatnonzero(np.bincount(keys, minlength=span))
        else:
            occupied = np.unique(keys)
        if not (np.diff(occupied) == 1).any():
            code, radix, digit = separating, len(occupied), np.searchsorted(occupied, keys)
        elif len(step_radix) < 3:
            code, radix, digit = steps, span + 2, keys + 1
        else:
            continue
        if product * radix >= 2**62:
            continue
        product *= radix
        code *= radix
        code += digit
        if code is steps:
            step_radix.append(radix)
    if product == 1:
        return None
    separating *= math.prod(step_radix)
    separating += steps
    return separating, step_radix


def _cell_map(x: np.ndarray, radius: float):
    """An iterator over blocks of the cells of a grid for radius whose
    adjacent cells hold every pair within radius (module docstring), or None
    when the cost rule prefers brute force or no dimension can key the grid
    (radius out of range, keys at or above 2^40, constant or non-finite
    columns). It yields (rows, cols) for runs of consecutive cells in the
    order of their codes: the block's rows, and the sorted union of the rows
    of its cells' adjacent cells. A block is the longest run from its first
    cell whose rows times adjacent rows stay within TILE_BYTES // 8 pairs, or
    that one cell.
    """
    n = len(x)
    if n == 0 or not 2.0**-500 < radius < 2.0**500:
        return None
    codes = _cell_codes(x, _cell_side(radius))
    if codes is None:
        return None
    code, step_radix = codes
    order = np.argsort(code, kind="stable")
    code = code[order]
    starts = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
    cell = code[starts]
    bounds = np.append(starts, n)
    # a cell's neighbours whose upper step digits are those of code + step are
    # the codes within one of code + step: one run of the sorted codes per
    # step, [lo, hi) in sorted positions, or the cell itself without steps
    steps, reach = [0], 1 if step_radix else 0
    for j in range(len(step_radix) - 1):
        steps = [s + o * math.prod(step_radix[j + 1 :]) for s in steps for o in (-1, 0, 1)]

    def runs(cells: np.ndarray, offsets: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """[lo, hi): the sorted positions of the run of each step in offsets,
        a row each, for each of these cells."""
        lo = np.array([np.searchsorted(code, cells + s - reach) for s in offsets])
        hi = np.array([np.searchsorted(code, cells + s + reach + 1) for s in offsets])
        return lo, hi

    # a step's runs move forward with the cell, so within a block each later
    # cell adds the part of its run past the previous cell's: a block's
    # columns are at most its first cell's runs plus those parts, summed over
    # steps (one step at a time, in O(cells) memory)
    own = np.zeros(len(cell), dtype=np.int64)
    grown = np.zeros(len(cell), dtype=np.int64)
    for s in steps:
        (lo,), (hi,) = runs(cell, [s])
        own += hi - lo
        lo[1:] = np.maximum(lo[1:], hi[:-1])
        grown += np.maximum(hi - lo, 0)
    grown = np.cumsum(grown)
    budget = TILE_BYTES // 8
    # cols hold the block's rows, so rows^2 <= budget bounds its cells
    window = math.isqrt(budget) + 1
    spans, cost, a = [], 0, 0
    while a < len(cell):
        end = min(a + window, len(cell))
        pairs = (bounds[a + 1 : end + 1] - bounds[a]) * (own[a] + grown[a:end] - grown[a])
        m = max(1, int(np.searchsorted(pairs, budget, side="right")))
        cost += int(pairs[m - 1]) + CELL_COST
        spans.append((a, a + m))
        a += m
    if not _grid_pays(cost, n):
        return None

    def blocks():
        for a, b in spans:
            lo, hi = runs(cell[a:b], steps)
            lo[:, 1:] = np.maximum(lo[:, 1:], hi[:, :-1])
            lengths = np.maximum(hi - lo, 0).ravel()
            lo = lo.ravel()
            at = np.arange(lengths.sum()) + np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
            cols = np.sort(order[at])
            if len(steps) > 1:  # runs of different steps may overlap
                cols = cols[np.r_[True, cols[1:] != cols[:-1]]]
            yield order[bounds[a] : bounds[b]], cols

    return blocks()


def _hit_blocks(x: np.ndarray, eps: float):
    """Yields (rows, cols, hit) for blocks of rows that partition
    range(len(x)), where hit[r, j] says dists_to(x[rows[r]], x[cols[j]]) <= eps,
    cols ascend and hold every neighbour of the block's rows. The blocks are
    runs of grid cells where the cost rule takes the grid (_cell_map), else
    row tiles."""
    if eps <= 0.0:
        raise ConfigError("eps must be positive")
    cells = _cell_map(x, eps)
    if cells is None:
        ids = np.arange(len(x))
        for i0, hit in _tile_hits(x, x, eps):
            yield ids[i0 : i0 + len(hit)], ids, hit
        return
    for rows, cols in cells:
        for i0, hit in _tile_hits(x[rows], x[cols], eps):
            yield rows[i0 : i0 + len(hit)], cols, hit


def neighbor_lists(x: np.ndarray, eps: float, limit: int) -> list[np.ndarray]:
    """Sorted index arrays of the points within eps of each row (self
    included), each cut to its limit lowest indices. A block's lists are
    views of one array, which keeps the allocations few."""
    out: list[np.ndarray | None] = [None] * len(x)
    for rows, cols, hit in _hit_blocks(x, eps):
        m, width = hit.shape
        flat = np.flatnonzero(hit)
        starts = np.searchsorted(flat, np.arange(m + 1) * width)
        # row k keeps flat[starts[k] : starts[k] + counts[k]], which go to
        # kept[bounds[k] : bounds[k + 1]]
        counts = np.minimum(np.diff(starts), limit)
        bounds = np.r_[0, np.cumsum(counts)]
        at = np.arange(bounds[-1]) + np.repeat(starts[:-1] - bounds[:-1], counts)
        kept = cols[flat[at] - np.repeat(np.arange(m) * width, counts)]
        bounds = bounds.tolist()
        for k, i in enumerate(rows.tolist()):
            out[i] = kept[bounds[k] : bounds[k + 1]]
    return out  # type: ignore[return-value]


def _roots(parent: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The root of each node in v, following parents until they stop moving."""
    p = parent[v]
    while True:
        pp = parent[p]
        if (pp == p).all():
            return p
        p = pp


def eps_components(x: np.ndarray, eps: float) -> np.ndarray:
    """For each row, the lowest row index in its connected component of the
    graph that joins rows within eps.

    A union-find over the hit blocks, vectorised per block: hits whose rows
    already share a parent are dropped, and the remaining pairs are joined.
    A block with more such hits than rows and columns first joins each row
    to its first hit column and each column to its first hit row; on a
    dense block that leaves few hits spanning two sets to list pair by pair.
    Joining hooks the larger of two roots onto the smaller with
    np.minimum.at and finds the roots again until no pair spans two of them.
    Parents only decrease, so a root is the lowest index of its set. The
    joined rows and columns then point straight at their roots, so later
    hits within a set are dropped.
    """
    parent = np.arange(len(x))
    for rows, cols, hit in _hit_blocks(x, eps):
        hit &= parent[cols] != parent[rows][:, None]
        if np.count_nonzero(hit) > len(rows) + len(cols):
            live_rows, live_cols = hit.any(axis=1), hit.any(axis=0)
            ends = rows[live_rows], cols[live_cols]
            _join(parent, ends[0], cols[hit.argmax(axis=1)[live_rows]])
            _join(parent, rows[hit.argmax(axis=0)[live_cols]], ends[1])
            for v in ends:
                parent[v] = _roots(parent, v)
            hit &= parent[cols] != parent[rows][:, None]
        r, c = _pairs(hit)
        ends = rows[r], cols[c]
        _join(parent, *ends)
        for v in ends:
            parent[v] = _roots(parent, v)
    return _roots(parent, np.arange(len(x)))


def _join(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Merge the sets of a[i] and b[i] for every i, each root hooked onto the
    lowest root it meets."""
    while len(a):
        a, b = _roots(parent, a), _roots(parent, b)
        split = a != b
        a, b = np.minimum(a[split], b[split]), np.maximum(a[split], b[split])
        np.minimum.at(parent, b, a)


def _kth_tiles(x: np.ndarray, y: np.ndarray, k: int):
    """Yields (i0, v) for the tiles of the rows of x, where v[r] is the k-th
    smallest (from 0) of the distances from x[i0 + r] to the rows of y,
    exactly as np.partition would place it (module docstring)."""
    for i0, upper, spread in _bracket_tiles(x, y):
        m = len(upper)
        t = np.partition(upper, k, axis=1)[:, k]
        r, c = _pairs(~(upper > (_widen(t) + spread)[:, None]))
        # the (k+1)-th smallest sum of squares is at least t - spread, so a
        # candidate whose widened upper bound is below that is strictly
        # smaller than the answer and needs no exact distance
        with np.errstate(invalid="ignore"):
            below = _widen(upper[r, c]) < (t - spread)[r]
        rank = k - np.bincount(r[below], minlength=m)
        r, c = r[~below], c[~below]
        d = _exact_dists(x, i0 + r, y, c)
        d = d[np.lexsort((d, r))]
        yield i0, d[np.searchsorted(r, np.arange(m)) + rank]


def _kth_distances(x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """The k-th smallest (from 0) distance from each row of x to the rows of y."""
    out = np.empty(len(x), dtype=np.float64)
    for i0, v in _kth_tiles(x, y, k):
        out[i0 : i0 + len(v)] = v
    return out


def _check_k(n: int, k: int) -> None:
    if not 1 <= k < n:
        raise ConfigError(f"k must be in [1, {n - 1}], got {k}")


def kth_neighbor_distances(x: np.ndarray, k: int) -> np.ndarray:
    """Distance from each row to its k-th nearest neighbor, self excluded.

    The self distance occupies one slot among the k + 1 smallest entries of
    the row's full distance vector, so the k-th self-excluded neighbor sits at
    partition index k of the vector that includes self.
    """
    _check_k(len(x), k)
    return _kth_distances(x, x, k)


def kth_neighbor_median(x: np.ndarray, k: int) -> float:
    """float(np.median(kth_neighbor_distances(x, k))), bit for bit, from the
    rows whose k-th distance a grid certifies to be at most a radius r
    (module docstring). r starts a little above the median of an evenly
    spaced sample of MEDIAN_SAMPLE rows and doubles until more than half the
    rows are certified; brute force serves rows that are not finite and
    grids the cost rule rejects."""
    n = len(x)
    _check_k(n, k)
    if np.isfinite(x).all():
        picks = np.unique(np.linspace(0, n - 1, MEDIAN_SAMPLE).astype(np.int64))
        sample = np.sort(_kth_distances(x[picks], x, k))
        # the sample's 5/8 quantile: a margin of about four standard errors
        # of the sampled median, so one grid usually certifies enough rows
        r = float(sample[len(sample) * 5 // 8])
        while (cells := _cell_map(x, r)) is not None:
            kth = np.full(n, np.inf)
            for rows, cols in cells:
                if len(cols) > k:
                    for i0, v in _kth_tiles(x[rows], x[cols], k):
                        kth[rows[i0 : i0 + len(v)]] = v
            certified = kth <= r
            if certified.sum() > n // 2:
                return float(np.median(np.where(certified, kth, np.inf)))
            r *= 2.0
    return float(np.median(kth_neighbor_distances(x, k)))


def medoid_local_index(members: np.ndarray) -> int:
    """Index of the member minimizing the sum of distances to all members.

    Ties resolve to the lowest index, which is the lowest row id when callers
    pass members in ascending row order. Duplicate members are merged
    (distinct_rows), each weighted by its count; m = sum(weight). A row's sum
    is exact: the fsum of its distances each repeated weight times, the
    multiset of its sum over all members, so rows whose sums tie exactly
    rank as equal, which a naive float sum could order either way.

    Only rows that the tile engine's band cannot rule out get an exact sum.
    Each pair of distinct row i has U - spread/2 <= s <= U (module docstring),
    so with r = fl(sqrt(U)) its distance fl(sqrt(s)) is at most r and at least
    (1 - 2u)r - sqrt(spread/2). T = fl(r . weight), an inner product of at
    most m nonnegative terms whose integer weights are exact floats summing
    to m, is within gamma_m of its exact value, and fsum rounds once, so the
    row's sum S(i) lies between T(1 - (m + 3)u) - m*sqrt(spread/2) and
    T(1 + (m + 3)u) to first order. The screen widens these to T(1 + w) and
    T(1 - w) - m*sqrt(spread) with w = 4(m + 2)u: the factor four and the
    sqrt(2) on the spread term cover the higher-order terms and the rounding
    of the bounds themselves for any m*u < 2^-10. A row whose lower bound
    exceeds the least upper bound has a sum above the minimum; every other
    row gets its exact sum, so each row attaining the minimum is computed. A
    NaN bound rules nothing out.
    """
    first, _, weight = distinct_rows(members)
    xd = members if len(first) == len(members) else members[first]
    md, m = len(xd), int(weight.sum())
    w = 4 * (m + 2) * _U
    upper_sum = np.empty(md)
    lower_sum = np.empty(md)
    for i0, upper, spread in _bracket_tiles(xd, xd):
        t = np.sqrt(upper, out=upper) @ weight
        upper_sum[i0 : i0 + len(t)] = t * (1 + w)
        lower_sum[i0 : i0 + len(t)] = t * (1 - w) - m * np.sqrt(spread)
    sums = np.full(md, np.inf)
    ids = np.arange(md)
    for i in np.flatnonzero(~(lower_sum > np.fmin.reduce(upper_sum))).tolist():
        sums[i] = math.fsum(np.repeat(_exact_dists(xd, np.full(md, i), xd, ids), weight))
    return int(first[np.argmin(sums)])


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
    # per row of a: an upper bound over the b rows seen so far, and the rank
    # of its best exact distance a_min, ranked like argmin (NaN first, then
    # the value)
    bound = np.full(len(a), np.inf)
    rank = np.full(len(a), np.inf)
    for i0, upper, spread in _bracket_tiles(b, a):
        m = len(upper)
        np.fmin(bound, np.fmin.reduce(upper, axis=0), out=bound)
        far_row = upper > (_widen(np.fmin.reduce(upper, axis=1)) + spread)[:, None]
        r, c = _pairs(~(far_row & (upper > _widen(bound) + spread.max())))
        d = _exact_dists(a, c, b, i0 + r)
        b_min[i0 : i0 + m] = np.minimum.reduceat(d, np.searchsorted(r, np.arange(m)))
        key = np.where(np.isnan(d), -np.inf, d)
        order = np.lexsort((r, key, c))
        first = order[np.r_[True, c[order][1:] != c[order][:-1]]]
        first = first[key[first] < rank[c[first]]]
        cols = c[first]
        rank[cols], a_min[cols], a_arg[cols] = key[first], d[first], i0 + r[first]
    return a_min, a_arg, b_min
