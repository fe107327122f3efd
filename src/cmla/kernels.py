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
  against their adjacent cells. neighbor_lists streams them once for DBSCAN
  and stores no list: a row with min_samples hits is core (every weight is
  at least one), and any other row's hits in its own block are all its
  neighbours, so their weight sum decides it. Hits are symmetric bit for
  bit (fl(a - b) = -fl(b - a)), so every pair is seen whole in the block of
  whichever of its two rows streams later, when both rows are decided. A
  block's core rows join only the core rows they hit there, in a union-find
  whose roots are the lowest rows. Its non-core rows take their first core
  column, the lowest core neighbour so far, and its core rows lower that
  of the non-core rows of earlier blocks that they hit. So every core-core
  edge and every core/non-core pair is settled whatever the block order,
  and the pass holds O(n_distinct) entries plus one block.
- Dense cells, after the exact grid DBSCAN of Gan and Tao (SIGMOD 2015).
  Before the stream, _dense_cells keys every row on every dimension in
  cells of side a little below eps/sqrt(d), where every pair is a hit (the
  dense cells below). A cell whose weights reach min_samples and that holds
  at least CELL_ROWS distinct rows is dense: its rows are core, form one set
  rooted at its lowest row and never stream. Pairs of dense cells are
  settled at cell level, with each cell's lowest row standing for it: before
  the stream, a hit between two lowest rows joins their cells
  (_join_lowest), so that a dense region streams as one set. The other rows
  then stream as above, against every row, and see the dense rows as core
  columns from the first block. After the stream (_join_cells), a certified
  gap drops a pair of cells, a pair already in one set is skipped, and only
  the rows of the cells left over take the tile test against each other.
  So the eps-edges inside dense regions are never computed; the keys take
  O(n) memory, one dimension at a time.
- The grid (_cell_map) gives each row one int64 code for its cell and sorts
  the rows by it. Every dimension whose occupied keys never differ by
  exactly one (a one-hot column at a radius below about 1/2) is a digit
  that adjacent cells share; up to three others step by one, as the least
  significant digits, so a cell's adjacent cells are 3^(g-1) runs of the
  sorted codes for g of them. Consecutive cells are batched into blocks of
  about one tile, each against the union of its cells' adjacent rows. The
  work is estimated as the sum over blocks of rows * columns plus CELL_COST
  per block, and the cost rule (_grid_pays) takes the grid only when that is
  below the pairs of brute force, the streamed rows times all n rows: one
  cell holding most rows stays on brute force. Blocks hold only streamed
  rows, and cells without one make no block. Both neighbour search and the
  median below use it.
- clustering.auto_eps needs only the median of the k-th-neighbour
  distances, and kth_neighbor_median finds it by sampled selection (Floyd
  and Rivest, CACM 1975) on the grid: a sample brackets the median between
  radii r_lo and r_hi, one grid pass at r_hi counts each row's neighbours
  that are certainly within either radius, and only the rows whose value
  can land on the two middle ranks get an exact k-th distance.
- Rows with equal bytes give equal distances, so clustering.dbscan merges
  them once, and neighbor_lists and medoid_local_index take the distinct
  rows with their counts as weights. The medoid kernel first bounds each
  row's exact (fsum) distance sum over the m = sum(weight) members from
  below by its weighted L1 spread along the one axis of widest range (the
  axis bound below): one sort of that column and two prefix sums,
  O(md log md) for md distinct rows. The row with the least bound gets its
  exact sum s0, and every row whose bound exceeds s0 is ruled out. Only the
  rest reach the tiles: their weighted row sums fl(sqrt(U)) . weight bound
  each sum from above and, less m*sqrt(spread), from below, and only rows
  whose lower bound reaches the least upper bound (or s0) get an exact sum.

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
  includes every pair tying a minimum. Row minima merge by _lowest (keys and
  ties, below); column minima propagate NaN as np.minimum does.

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

The dense cells. For 2^-500 < eps < 2^496 and d < 2^35, so that
gamma_{d+1} < 2^-17, the side is h = fl(eps * fl((1 - 2^-8)/fl(sqrt(d)))),
at most eps(1 - 2^-8)(1 + 4u)/sqrt(d), and a row's key in dimension j is
floor(fl(x_j / h)); a row is in a cell only when every |fl(x_j / h)| < 2^40
(a key that is not finite fails this). Each quotient is within 2^-12 of
x_j / h (u*2^40, or 2^-1074 where it underflows), so two rows with equal
keys differ by less than h(1 + 2^-11) in every dimension, and their exact
distance D has D^2 < d*h^2(1 + 2^-11)^2 < eps^2(1 - 2^-8). By the band,
s <= (1 + gamma_{d+1})D^2 + d*2^-1075 <= eps^2, as eps^2 > 2^-1000, so
fl(sqrt(s)) <= eps: every pair in a cell is a hit, bit for bit.
For any pair, the band and the rounding of fl(sqrt) also give
c(1 - 2^-10) - 2^-520 <= D <= c(1 + 2^-10) + 2^-520 between the computed
distance c and the exact D. Let rho_A be the largest computed distance from
a row of cell A to A's lowest row r_A (at most eps, by the above). If the
computed distance from r_A to r_B exceeds fl((rho_A + rho_B + eps)(1 + 2^-6)),
then for rows a of A and b of B the triangle inequality gives
D(a, b) >= D(r_A, r_B) - D(a, r_A) - D(b, r_B) > eps(1 + 2^-7), so
c(a, b) > eps(1 + 2^-8), past the next float above eps: no pair of the two
cells is a hit. One hit pass over the lowest rows at radius
fl((2 max rho + eps)(1 + 2^-6)) <= fl(3.05 eps) < 2^500 lists every pair
the gap cannot drop.

The median. Write v for a row's k-th distance (from 0, as in
kth_neighbor_distances) and, for a radius r_hi, w = v where v <= r_hi and
+inf otherwise. w rises with v, so where the order statistics p = (n - 1)//2
and q = n//2 of w are at most r_hi they are those of v, and np.median, one
value for odd n and the mean of two for even n, reads the same number from
them as from every v, bit for bit. In a grid for r_hi, a row's candidates
are the columns of its block, which hold its adjacent cells and so every row
within r_hi; its candidate value c is their k-th smallest distance, or +inf
when there are at most k. c >= v, and if v <= r_hi the k + 1 rows at
distance at most v are all candidates, so c = v: w is c where c <= r_hi and
+inf otherwise. One pass at r_hi puts w in an interval [lo, hi] per row, by
the tests of the decisions above:
- low: at least k + 1 candidates have U <= fl(r_lo^2)(1 - 4u), so v <= r_lo,
  and [lo, hi] = [0, r_lo];
- high: at most k candidates have U < fl(fl(r_hi^2)(1 + 8u) + spread), with
  the largest spread of the tile, so at most k rows lie within r_hi and
  v > r_hi (as for a block of at most k columns): w = +inf;
- mid, every other row: with t its (k+1)-th smallest U, k + 1 candidates have
  distance at most fl(sqrt(t)), and the (k+1)-th smallest s is at least
  t - spread/2 >= fl(t - spread), so fl(sqrt(max(fl(t - spread), 0))) <= c
  <= fl(sqrt(t)); hi is +inf where fl(sqrt(t)) > r_hi.
Let L be the p-th smallest lo and H the q-th smallest hi, so that the p-th
smallest w is at least L and the q-th at most H. The b rows with hi < L hold
values below both middle ones, and the rows with lo > H values above them,
so the middle values are the order statistics p - b and q - b of the rows in
between: the rank window, which holds at least q + 1 - b rows. Only those of
its rows whose interval is not one point need their value: c from a grid for
r_hi that streams them, or v by brute force where the cost rule prefers it.
A value above r_hi stands for +inf, since only its side of r_hi moves the
ranks of the values at most r_hi. A tile whose largest spread is not finite
(a row whose squared norm overflows, so that some bounds are NaN) gives its
rows the interval [0, +inf], which holds any w; those that reach the rank
window get their value as the other rows do. When the upper middle value
exceeds r_hi, the median lies above r_hi, and the pass repeats with
r_lo = r_hi and r_hi doubled, until one finds the median or the cost rule
refuses the grid, where brute force answers.
r_lo and r_hi, the 3/8 and 5/8 quantiles of estimates fl(sqrt(t)) of the
k-th distances of an evenly spaced sample (t against every row), only pick
the radii: a bracket that misses costs time, never a bit of the result.

The axis bound. For the column k of widest range, a distinct row j and a
distinct row i with exact difference delta = |x_jk - x_ik| and
t = fl(x_jk - x_ik), |t| >= delta(1 - u), and since s >= fl(t^2) (the grid
proof above) the distance is fl(sqrt(s)) >= fl(sqrt(fl(t^2))). If
t^2 >= 2^-1022 this is at least |t|(1 - u)^2 >= delta(1 - 3u); otherwise
delta < 2^-510, so the distance is at least delta(1 - 3u) - 2^-510 either
way. fsum rounds the sum of the m distances once, so j's exact sum
S(j) >= (1 - 4u)A(j) - m*2^-510 with A(j) = sum over i of weight_i * delta,
or S(j) is inf. Sorted by x_k, with W and P the prefix sums of weight and
weight * x_k up to j's position, A(j) = x_jk(2W - m) + P_total - 2P. W is exact; each float P is a sum of
at most md products, within gamma_md*Z of its exact value for
Z = m * max |x_k| (plus 2^-1074 per product that underflows, which the
m*2^-508 term below covers), and the remaining three operations add at
most u|x_jk|m, 3u*Z and 4u*Z, so the computed A is within (3md + 8)u*Z of
A(j) to first order. The bound L(j) = A(1 - 8u) - (4(md + 4)u*Z + m*2^-508)
covers these, the higher-order terms and its own rounding for any
m*u < 2^-10, so L(j) <= S(j): the error grows with Z, so for clusters far
from the origin the bound stays valid and only gets weaker. The bound is
taken only when Z <= 2^1000, so nothing overflows. A column holding a value
that is not finite has an inf or NaN range, so the axis taken has one too
(np.argmax takes the first NaN), its Z is NaN, inf or above 2^1000, and
no bound is taken. A row with L(j) > s0 has
S(j) > s0 >= the least sum, so it is neither the medoid nor tied with it.
When s0 is inf (sums that overflow), no comparison with it holds and
nothing is ruled out. A sum is NaN only when a member has a coordinate
that is not finite, and then no bound is taken, so np.argmin sees the same
NaN sums as without it.

Keys and ties. _rank gives integer keys dense ranks in value order, and
_fold appends a key to a code as a mixed-radix digit, ranking the key or the
code so that codes stay below 4n^2: the dense cells, the grid's separating
digits, the windows' category patterns (_patterns) and clustering.dbscan's
cluster ids all rest on them. _lowest merges nearest rows: per group the
least distance, NaN first as np.argmin ranks it, and on a tie the lowest id,
in any order of the candidates. A NaN minimum comes back as np.nan, whose
sign may differ from the input's; the report's NaN and the CSV files' nan
show no sign.

The kernels run in one thread: on 2 vCPUs, a pool of row workers saved at
most 30 ms of an 8000-row k-th pass and cost CPU time and peak RSS on every
benchmark workload (CHANGES.md). Each kernel takes its blocks in one fixed
order, and the union-find ends at the lowest index of each set whatever that
order, so results do not depend on the tile size.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

log = logging.getLogger(__name__)

# The set-up of one grid block, in pairs of brute force. Fitted at 25k-75k
# per cell when each cell was its own tile; fits per batched block read
# 93k-254k on 8000-row inputs, but every grid decision on them is the same
# at 50k and 200k, and the grid won each one it took (2 vCPUs; CHANGES.md).
CELL_COST = 50_000
# The fewest distinct rows a dense cell of neighbor_lists must hold. Its
# lowest row stands for it in the passes over the cells, which pays only
# once it saves several streamed rows: on 4000-row inputs whose cells held
# one, two or four rows, the pass ran up to 1.7x, 1.25x and 1.13x slower
# than without dense cells; at eight the slowest input ran 1.1x, within the
# spread of repeated runs (2 vCPUs; CHANGES.md).
CELL_ROWS = 8
# Rows whose k-th distance estimates set kth_neighbor_median's radii. Its
# 3/8 and 5/8 quantiles then lie about 2.7 standard errors of the sampled
# median from the median, which falls outside about 6 brackets in 1000, and
# the sample takes about 2.5 ms of an 8000-row median (2 vCPUs; CHANGES.md).
MEDIAN_SAMPLE = 128
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


def _bracket_tiles(x: np.ndarray, y: np.ndarray, rows: np.ndarray | None = None):
    """Yields (i0, upper, spread) for blocks of the rows of x, or of
    x[rows] without copying it, in order.

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
    if rows is not None:
        x_up, x_slack = x_up[rows], x_slack[rows]
    y_up, y_slack = _norm_addends(y)
    x_bad = np.isinf(x_slack)
    y_bad = np.flatnonzero(np.isinf(y_slack))
    y_slack_max = y_slack.max(initial=0.0)
    # one BLAS product per block: [-2a, n_a + e_a, 1] . [b, 1, n_b + e_b]
    right = np.empty((d + 2, len(y)))
    right[:d] = y.T
    right[d] = 1.0
    right[d + 1] = y_up
    n = len(x_up)
    step = max(1, TILE_BYTES // (8 * max(len(y), d + 2)))
    size = min(step, n)
    left = np.ones((size, d + 2))
    out = np.empty((size, len(y)))
    for i0 in range(0, n, step):
        m = min(step, n - i0)
        block = x[i0 : i0 + m] if rows is None else x[rows[i0 : i0 + m]]
        np.multiply(block, -2.0, out=left[:m, :d])
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


def _exact_dists(a: np.ndarray, ai: np.ndarray, b, bi: np.ndarray) -> np.ndarray:
    """dists_to(a[ai], b[bi]) in batches of at most TILE_BYTES of coordinates;
    b is a matrix, or anything that an index array turns into its rows, such
    as encoding.Parts, which lays out only the rows of a batch."""
    step = max(1, TILE_BYTES // (8 * a.shape[1]))
    out = np.empty(len(ai))
    for k in range(0, len(ai), step):
        out[k : k + step] = dists_to(a[ai[k : k + step]], b[bi[k : k + step]])
    return out


def _tile_hits(x: np.ndarray, y: np.ndarray, eps: float, rows: np.ndarray | None = None):
    """Yields (i0, hit) for the tiles of the rows of x, or of x[rows], where
    hit[r, j] says dists_to(a, y[j]) <= eps for the tile's row a, x[i0 + r]
    or x[rows[i0 + r]]."""
    # U <= inside proves d <= eps, and U >= outside + spread proves d > eps
    # for any spread at least the row's, so the tile's largest one serves all
    # its rows; the thresholds are only used where eps^2 is far from under-
    # and overflow
    if 2.0**-500 < eps < 2.0**500:
        inside, outside = eps * eps * (1 - 4 * _U), eps * eps * (1 + 8 * _U)
    else:
        inside = outside = math.nan
    for i0, upper, spread in _bracket_tiles(x, y, rows):
        hit = upper <= inside
        settled = hit | (upper >= outside + spread.max())
        if not settled.all():
            r, c = _pairs(~settled)
            at = i0 + r if rows is None else rows[i0 + r]
            hit[r, c] = _exact_dists(x, at, y, c) <= eps
        yield i0, hit


def _grid_pays(cost: int, brute: int) -> bool:
    """The cost rule: take the grid when its estimated work is below the
    pairs of brute force, the streamed rows times all rows."""
    return cost < brute


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
    product stays below 2^62; each is ranked (_rank) in O(n) memory.
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
        keys = (np.floor(x[:, j] / h) - lo[j]).astype(np.int64)
        digit, radix = _rank(keys)
        occupied = np.empty(radix, dtype=np.int64)
        occupied[digit] = keys
        if not (np.diff(occupied) == 1).any():
            code = separating
        elif len(step_radix) < 3:
            code, radix, digit = steps, int(hi[j] - lo[j]) + 3, keys + 1
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


def _cell_map(x: np.ndarray, radius: float, stream: np.ndarray | None = None):
    """An iterator over blocks of the cells of a grid for radius whose
    adjacent cells hold every pair within radius (module docstring), or None
    when the cost rule prefers brute force or no dimension can key the grid
    (radius out of range, keys at or above 2^40, constant or non-finite
    columns). It yields (rows, cols) for runs of consecutive cells in the
    order of their codes: the block's rows, those of stream (every row by
    default), and the sorted union of the rows of its cells' adjacent cells.
    A block is the longest run from its first cell whose rows times adjacent
    rows stay within TILE_BYTES // 8 pairs, or that one cell; cells without
    a row of stream make no block.
    """
    n = len(x)
    brute = n * (n if stream is None else len(stream))
    # a grid costs at least one block: where that does not pay, none does
    if n == 0 or not 2.0**-500 < radius < 2.0**500 or not _grid_pays(CELL_COST, brute):
        return None
    codes = _cell_codes(x, _cell_side(radius))
    if codes is None:
        return None
    code, step_radix = codes
    order = np.argsort(code, kind="stable")
    code = code[order]
    # the block rows in the order of their codes
    mine, mine_code = order, code
    if stream is not None:
        keep = np.zeros(n, dtype=bool)
        keep[stream] = True
        keep = keep[order]
        mine, mine_code = order[keep], code[keep]
    starts = np.flatnonzero(np.r_[True, mine_code[1:] != mine_code[:-1]])
    cell = mine_code[starts]
    bounds = np.append(starts, len(mine))
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
    if not _grid_pays(cost, brute):
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
            yield mine[bounds[a] : bounds[b]], cols

    return blocks()


def _hit_blocks(x: np.ndarray, eps: float, stream: np.ndarray | None = None):
    """Yields (rows, cols, hit) for blocks of rows that partition stream, the
    ascending rows to stream (all of range(len(x)) by default), where
    hit[r, j] says dists_to(x[rows[r]], x[cols[j]]) <= eps, cols ascend and
    hold every neighbour of the block's rows. The blocks are runs of grid
    cells where the cost rule takes the grid (_cell_map), else row tiles."""
    if eps <= 0.0:
        raise ConfigError("eps must be positive")
    if stream is not None and not len(stream):
        return
    cells = _cell_map(x, eps, stream)
    if cells is None:
        ids = np.arange(len(x))
        rows = ids if stream is None else stream
        for i0, hit in _tile_hits(x, x, eps, stream):
            yield rows[i0 : i0 + len(hit)], ids, hit
        return
    for rows, cols in cells:
        for i0, hit in _tile_hits(x[rows], x[cols], eps):
            yield rows[i0 : i0 + len(hit)], cols, hit


class EpsGraph(NamedTuple):
    """The core mask; each row's lowest core row of its component (a non-core
    row's own index); each non-core row's lowest core neighbour, len(x) for a
    core row or a row with none."""

    core: np.ndarray
    root: np.ndarray
    border: np.ndarray


def neighbor_lists(x: np.ndarray, eps: float, min_samples: int, weight: np.ndarray) -> EpsGraph:
    """DBSCAN's core rows, their components and the border rows' lowest core
    neighbours from one stream of the hit blocks (module docstring). A row is
    core when the weights of its neighbours, itself included, sum to at least
    min_samples. No list outlives its block: besides the current block, the
    pass holds one state, one parent and one border entry per row."""
    n = len(x)
    # 0 until the row's block streams, then 1 for a non-core row, 2 for a core one
    state = np.zeros(n, dtype=np.int8)
    parent = np.arange(n)
    border = np.full(n, n)
    dense = _dense_cells(x, eps, min_samples, weight)
    stream = None
    if dense is not None:
        # rows of dense cells are core, each cell one set, and never stream
        state[dense[0]] = 2
        _join_lowest(x, eps, parent, *dense)
        stream = np.flatnonzero(state == 0)
    lone = False  # whether a non-core row has streamed
    for rows, cols, hit in _hit_blocks(x, eps, stream):
        count = hit.sum(axis=1, dtype=np.int32)
        row_core = count >= min_samples
        short = np.flatnonzero(~row_core)
        if len(short):
            r, c = _pairs(hit[short])
            row_core[short] = np.bincount(r, weight[cols[c]], len(short)) >= min_samples
        # the columns that are non-core rows of earlier blocks
        done = np.flatnonzero(state[cols] == 1) if lone else ()
        state[rows] = row_core + np.int8(1)
        hot = state[cols] == 2
        hits = hit if row_core.all() else hit[row_core]
        if len(hits) < len(hit):
            # columns ascend, so a non-core row's first core column is its
            # lowest core neighbour among the rows streamed so far
            lone = True
            near = hit[~row_core] & hot
            border[rows[~row_core]] = np.where(near.any(axis=1), cols[near.argmax(axis=1)], n)
        if len(done):
            # the later core neighbours of earlier non-core rows
            r, c = _pairs(hits[:, done])
            np.minimum.at(border, cols[done[c]], rows[row_core][r])
        if len(hits):
            _join_hits(parent, rows[row_core], cols, hits & hot)
    if dense is not None:
        _join_cells(x, eps, parent, *dense)
    streamed = n if stream is None else len(stream)
    cells = 0 if dense is None else np.count_nonzero(dense[0] == dense[1])
    log.info("eps-graph: %d of %d distinct rows in %d dense cells; %d rows streamed",
             n - streamed, n, cells, streamed)
    return EpsGraph(state == 2, _roots(parent, np.arange(n)), border)


def _dense_cells(
    x: np.ndarray, eps: float, min_samples: int, weight: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """(rows, root): the ascending rows that lie in dense cells, and the
    lowest row of each one's cell; None when there are none. Cells have side
    a little below eps/sqrt(d), so every pair in one is within eps (module
    docstring); a cell is dense when its weights sum to at least min_samples
    and it holds at least CELL_ROWS rows. A row whose key floor(fl(x_j / h))
    reaches 2^40 in magnitude, or is not finite, in any dimension is in no
    cell. The keys are folded (_fold) one dimension at a time into an int64
    code, and after each dimension the rows whose group so far weighs less
    than min_samples or holds fewer than CELL_ROWS rows are dropped; memory
    stays O(n) whatever d."""
    n, d = x.shape
    if n == 0 or d == 0 or not 2.0**-500 < eps < 2.0**496:
        return None
    h = _dense_side(eps, d)
    rows = np.arange(n)
    code = np.zeros(n, dtype=np.int64)
    radix = 1
    for j in range(d):
        with np.errstate(all="ignore"):
            q = x[rows, j] / h
        keyed = np.abs(q) < 2.0**40
        if not keyed.all():
            rows, code, q = rows[keyed], code[keyed], q[keyed]
            if not len(rows):
                return None
        key = np.floor(q).astype(np.int64)
        key -= key.min()
        code, radix = _fold(code, radix, key, int(key.max()) + 1)
        # a cell lies in one group of every prefix of its dimensions, so the
        # rows of light or small groups are in no dense cell
        heavy = ((np.bincount(code, weight[rows], radix) >= min_samples)
                 & (np.bincount(code, minlength=radix) >= CELL_ROWS))[code]
        if not heavy.all():
            rows, code = rows[heavy], code[heavy]
            if not len(rows):
                return None
    cell, count = _rank(code)
    root = np.full(count, n)
    np.minimum.at(root, cell, rows)
    return rows, root[cell]


def _dense_side(eps: float, d: int) -> float:
    """The side of the dense cells: a little below eps/sqrt(d), so that
    rounding keeps every pair in a cell within eps (module docstring)."""
    return eps * ((1 - 2.0**-8) / math.sqrt(d))


def _rank(v: np.ndarray) -> tuple[np.ndarray, int]:
    """Each entry's rank among the distinct values of v, integers >= 0 or
    booleans, and their count: by a bincount when the values span at most
    4 len(v), else a sort. An empty v gives (empty, 0)."""
    v = v.astype(np.intp, copy=False)  # a boolean index would be a mask
    span = int(v.max(initial=-1)) + 1
    if span <= 4 * len(v):
        seen = np.bincount(v, minlength=span) > 0
        return (np.cumsum(seen) - 1)[v], int(np.count_nonzero(seen))
    order = np.argsort(v)
    new = np.r_[True, v[order[1:]] != v[order[:-1]]]
    rank = np.empty_like(v)
    rank[order] = np.cumsum(new) - 1
    return rank, int(np.count_nonzero(new))


def _fold(code: np.ndarray, radix: int, key: np.ndarray, span: int) -> tuple[np.ndarray, int]:
    """(code, radix) with key, in [0, span), appended to code, in [0, radix),
    as the least significant digit. The key is ranked when radix * span would
    pass 4n, and the code once its radix does, so codes stay below 4n^2 and,
    as ranks keep the order, ascend with the keys taken lexicographically."""
    n = len(code)
    if radix * span > 4 * n:
        key, span = _rank(key)
    code = code * span + key
    radix *= span
    if radix > 4 * n:
        code, radix = _rank(code)
    return code, radix


def _patterns(keys: list[tuple[np.ndarray, int]], n: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Each of the n rows' pattern over keys, (codes in [0, span), span)
    per key, as a dense id in 0..g-1 that ascends with the patterns taken
    lexicographically, g, and each pattern's first row."""
    code, radix = np.zeros(n, dtype=np.int64), 1
    for key, span in keys:
        code, radix = _fold(code, radix, key, span)
    gid, g = _rank(code)
    first = np.full(g, n)
    np.minimum.at(first, gid, np.arange(n))
    return gid, g, first


def _lowest(rank: np.ndarray, at: np.ndarray, group: np.ndarray, d: np.ndarray,
            ids: np.ndarray) -> np.ndarray:
    """Merge the candidates (group[i], ids[i]) at distance d[i] into each
    group's running minimum rank, with NaN stored as -inf, and the lowest id
    at attaining it (keys and ties, module docstring); groups without a
    candidate keep their entries. Returns the minima, NaN as np.nan."""
    key = np.where(np.isnan(d), -np.inf, d)
    low = np.full(len(rank), np.inf)
    np.minimum.at(low, group, key)
    tie = key == low[group]
    first = np.full(len(at), np.iinfo(np.int64).max)
    np.minimum.at(first, group[tie], ids[tie])
    take = (low < rank) | ((low == rank) & (first < at))
    rank[take], at[take] = low[take], first[take]
    return np.where(rank == -np.inf, np.nan, rank)


def _join_lowest(
    x: np.ndarray, eps: float, parent: np.ndarray, rows: np.ndarray, root: np.ndarray
) -> None:
    """Make each dense cell one set, for the dense rows and their cells'
    lowest rows, join the cells whose lowest rows hit, and point every dense
    row at its set's root, so that the stream finds a dense region one set."""
    parent[rows] = root
    reps = rows[rows == root]
    for a, b, hit in _hit_blocks(x[reps], eps):
        _join_hits(parent, reps[a], reps[b], hit)
    parent[rows] = _roots(parent, root)


def _join_cells(
    x: np.ndarray, eps: float, parent: np.ndarray, rows: np.ndarray, root: np.ndarray
) -> None:
    """Join the dense cells whose rows hit each other, after _join_lowest and
    the stream (module docstring). With rho a cell's largest distance from
    its lowest row, two cells whose lowest rows are further apart than
    (rho + rho' + eps)(1 + 2^-6) hold no hit; the rows of the cells still in
    different sets take the exact test against each other."""
    reps = rows[rows == root]
    cell = np.searchsorted(reps, root)
    xr = x[reps]
    # each cell's largest distance from its lowest row, in batches of a
    # quarter tile, as an exact batch holds four arrays of its size
    rho = np.zeros(len(reps))
    step = max(1, TILE_BYTES // (32 * x.shape[1]))
    for k in range(0, len(rows), step):
        at = slice(k, k + step)
        np.maximum.at(rho, cell[at], _exact_dists(x, rows[at], x, root[at]))
    unsure = np.zeros(len(reps), dtype=bool)
    for a, b, hit in _hit_blocks(xr, (2 * rho.max() + eps) * (1 + 2.0**-6)):
        r, c = _pairs(hit)
        r, c = a[r], b[c]
        split = _roots(parent, reps[r]) != _roots(parent, reps[c])
        r, c = r[split], c[split]
        near = _exact_dists(xr, r, xr, c) <= (rho[r] + rho[c] + eps) * (1 + 2.0**-6)
        unsure[r[near]] = True
    u = rows[unsure[cell]]
    for a, b, hit in _hit_blocks(x[u], eps):
        _join_hits(parent, u[a], u[b], hit)


def _join_hits(parent: np.ndarray, rows: np.ndarray, cols: np.ndarray, hit: np.ndarray) -> None:
    """Merge the sets of rows[r] and cols[c] for every hit (r, c); every row
    has a hit. Joining each row to its first hit column leaves most rows of a
    dense block in one set s (the median root): s is joined to every column
    its rows hit, and only the other rows' hits are listed pair by pair."""
    _join(parent, rows, cols[hit.argmax(axis=1)])
    root = parent[rows] = _roots(parent, rows)
    s = np.sort(root)[len(root) // 2]
    in_s = root == s
    reach = np.logical_or.reduce(hit if in_s.all() else hit[in_s], axis=0) & (parent[cols] != s)
    r, c = _pairs(hit[~in_s] & (parent[cols] != root[~in_s][:, None]))
    a = np.concatenate([np.full(np.count_nonzero(reach), s), rows[~in_s][r]])
    b = np.concatenate([cols[reach], cols[c]])
    _join(parent, a, b)
    parent[a], parent[b] = _roots(parent, a), _roots(parent, b)


def _roots(parent: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The root of each node in v, following parents until they stop moving."""
    p = parent[v]
    while (parent[p] != p).any():
        p = parent[p]
    return p


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


class _Selection(NamedTuple):
    """What one grid pass at r_hi learns of the median (_select_median): the
    median, or None where it lies above r_hi; the low, mid and high row
    counts; the rows given an exact value."""

    median: float | None
    low: int
    mid: int
    high: int
    exact: int


def kth_neighbor_median(x: np.ndarray, k: int) -> float:
    """float(np.median(kth_neighbor_distances(x, k))), bit for bit, by
    selection on a grid (module docstring). Two quantiles of the k-th
    distance estimates of an evenly spaced sample of MEDIAN_SAMPLE rows, the
    3/8 and the 5/8, bracket the median as r_lo < r_hi; where the cost rule
    refuses the grid for r_hi, r_hi steps down through the sample quantiles
    towards the sample median. One grid pass at r_hi (_select_median) then
    needs exact k-th distances only for the rows whose value can land on the
    two middle ranks. Where the median lies above r_hi, the pass repeats
    with r_lo = r_hi and r_hi doubled; brute force serves rows that are not
    finite and radii the cost rule refuses. Logs one INFO line: the last
    radii, the last pass's low, mid and high rows and exact rows, the number
    of passes and the path."""
    n = len(x)
    _check_k(n, k)
    r_lo = r_hi = math.nan
    found = _Selection(None, 0, 0, 0, 0)
    passes = 0
    if np.isfinite(x).all():
        picks = np.linspace(0, n - 1, min(n, MEDIAN_SAMPLE)).astype(np.int64)
        sample = np.sort(_kth_estimates(x, picks, k))
        m = len(sample)
        r_lo, half = float(sample[m * 3 // 8]), m // 2
        # from the 5/8 quantile halfway towards the median at each refusal
        gap = m * 5 // 8 - half
        steps = [half + (gap >> i) for i in range(gap.bit_length() + 1)]
        for r_hi in dict.fromkeys(float(sample[j]) for j in steps):
            if (cells := _cell_map(x, r_hi)) is not None:
                break
        while cells is not None:
            found = _select_median(x, k, cells, r_lo, r_hi)
            passes += 1
            if found.median is not None:
                break
            r_lo, r_hi = r_hi, 2.0 * r_hi
            cells = _cell_map(x, r_hi)
    median, path = found.median, "selection"
    if median is None:
        path = "brute"
        median = float(np.median(kth_neighbor_distances(x, k)))
    log.info("k-th distance median: r_lo %.6g, r_hi %.6g; %d low, %d mid and %d high rows; "
             "%d exact k-th distances; %d selection passes; path %s",
             r_lo, r_hi, found.low, found.mid, found.high, found.exact, passes, path)
    return median


def _kth_estimates(x: np.ndarray, rows: np.ndarray, k: int) -> np.ndarray:
    """fl(sqrt(t)) for each of x[rows], t its (k+1)-th smallest upper bound
    against every row: at least its k-th distance, and close to it."""
    out = np.empty(len(rows))
    for i0, upper, _ in _bracket_tiles(x, x, rows):
        out[i0 : i0 + len(upper)] = _kth_column(upper, k)
    return np.sqrt(out)


def _kth_column(a: np.ndarray, k: int) -> np.ndarray:
    """A copy of the (k+1)-th smallest entry of each row of a, which it
    partitions in place; NaN sorts last. A copy, as a view would keep the
    whole of a alive."""
    a.partition(k, axis=1)
    return a[:, k].copy()


def _select_median(x: np.ndarray, k: int, cells, r_lo: float, r_hi: float) -> _Selection:
    """The median of the k-th distances from one pass over cells, the blocks
    of a grid for r_hi (module docstring). Each row gets an interval that
    holds w, its k-th distance v where v <= r_hi and +inf otherwise: [0, r_lo]
    for a low row, +inf for a high one, and for a mid row the bounds its
    (k+1)-th smallest upper bound t gives, sqrt(t - spread) and sqrt(t), or
    [0, +inf] in a tile whose largest spread is not finite. Only the rows
    whose interval can reach the two middle ranks get an exact value; the
    median is None where it lies above r_hi."""
    n = len(x)
    p, q = (n - 1) // 2, n // 2
    inside = r_lo * r_lo * (1 - 4 * _U) if 2.0**-500 < r_lo < 2.0**500 else math.nan
    outside = r_hi * r_hi * (1 + 8 * _U)
    # every row is low until its tile says otherwise
    lo = np.zeros(n)
    hi = np.full(n, r_lo)
    n_mid = n_high = 0
    for rows, cols in cells:
        if len(cols) <= k:
            lo[rows] = hi[rows] = np.inf
            n_high += len(rows)
            continue
        for i0, upper, spread in _bracket_tiles(x[rows], x[cols]):
            # a finite spread leaves no NaN bound; the tile's largest one
            # serves every row in the test for r_hi. Without one the rows
            # keep lo = 0 and take hi = +inf
            top = spread.max()
            at = rows[i0 : i0 + len(upper)]
            if top == np.inf:
                hi[at] = np.inf
                n_mid += len(at)
                continue
            high = _row_counts(upper < outside + top) <= k
            mid = ~high & (_row_counts(upper <= inside) <= k)
            lo[at[high]] = hi[at[high]] = np.inf
            n_high += np.count_nonzero(high)
            if mid.any():
                n_mid += np.count_nonzero(mid)
                t = _kth_column(upper[mid], k)
                lo[at[mid]] = np.sqrt(np.maximum(t - spread[mid], 0.0))
                t = np.sqrt(t)
                hi[at[mid]] = np.where(t <= r_hi, t, np.inf)
    below, window = _rank_window(lo, hi, p, q)
    unknown = np.flatnonzero(window & (lo < hi))
    w = lo[window & (lo == hi)]
    if len(unknown):
        grid = _cell_map(x, r_hi, unknown)
        if grid is None:
            v = _kth_distances(x[unknown], x, k)
        else:
            v = np.empty(len(unknown))
            for rows, cols in grid:
                for i0, c in _kth_tiles(x[rows], x[cols], k):
                    v[np.searchsorted(unknown, rows[i0 : i0 + len(c)])] = c
        # a value above r_hi stands for +inf: only its side of r_hi matters
        w = np.concatenate([w, v])
    w.sort()
    middle = w[p - below : q - below + 1]
    counts = (n - n_mid - n_high, n_mid, n_high, len(unknown))
    if middle[-1] > r_hi:
        return _Selection(None, *counts)
    return _Selection(float(np.median(middle)), *counts)


def _rank_window(lo: np.ndarray, hi: np.ndarray, p: int, q: int) -> tuple[int, np.ndarray]:
    """(b, window) for values known to lie in [lo, hi], row by row, and
    ranks p <= q: b rows hold values below the p-th smallest value and the
    rows outside window values above the q-th, so the order statistics p to
    q are those p - b to q - b of the values of window's rows."""
    least, most = np.partition(lo, p)[p], np.partition(hi, q)[q]
    return np.count_nonzero(hi < least), (hi >= least) & (lo <= most)


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """The set entries of each row of a boolean matrix; summing its bytes
    is about twice as fast as np.count_nonzero along an axis."""
    return mask.view(np.uint8).sum(axis=1, dtype=np.int32)


def medoid_local_index(xd: np.ndarray, weight: np.ndarray) -> int:
    """Index of the row of xd minimizing the sum of distances to all members,
    where row i stands for weight[i] members (a positive integer count).

    Ties resolve to the lowest index, which is the lowest row id when callers
    pass rows in ascending row order. clustering.dbscan merges byte-equal rows
    once and extract_medoids passes each cluster's distinct rows with their
    counts; a weight of 1 on rows that repeat is also valid, as equal rows
    have equal sums. m = sum(weight). A row's sum is exact: the fsum of its
    distances each repeated weight times, the multiset of its sum over all
    members, so rows whose sums tie exactly rank as equal, which a naive
    float sum could order either way. The pick is np.argmin over the
    computed sums (inf for the rest), so when any sum is NaN it is the first
    row whose sum is NaN, as an exhaustive scan with np.argmin gives.

    Two screens rule rows out before any exact sum. First the axis bound
    (module docstring): L(j) <= S(j) from the weighted L1 spread along the
    column of widest range, in O(md log md) time and O(md) memory. The row
    with the least L (the lowest on ties) gets its exact sum s0, and every
    row with L > s0 is dropped; a NaN or inf s0 drops none. Only the rest
    reach the tile engine's band, against all md distinct rows, with s0
    joining the least upper bound.
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
    exceeds the least upper bound (or s0) has a sum above the minimum; every
    other row gets its exact sum, so each row attaining the minimum is
    computed. A NaN bound rules nothing out.
    """
    md, m = len(xd), int(weight.sum())
    ids = np.arange(md)

    def exact_sum(i: int) -> float:
        return math.fsum(np.repeat(_exact_dists(xd, np.full(md, i), xd, ids), weight))

    sums = np.full(md, np.inf)
    rows, s0 = ids, math.inf
    bound = _axis_bound(xd, weight, m)
    if bound is not None:
        j0 = int(np.argmin(bound))
        sums[j0] = s0 = exact_sum(j0)
        rows = np.flatnonzero(~(bound > s0) & (ids != j0))
    w = 4 * (m + 2) * _U
    upper_sum = np.empty(len(rows))
    lower_sum = np.empty(len(rows))
    for i0, upper, spread in _bracket_tiles(xd, xd, rows):
        t = np.sqrt(upper, out=upper) @ weight
        upper_sum[i0 : i0 + len(t)] = t * (1 + w)
        lower_sum[i0 : i0 + len(t)] = t * (1 - w) - m * np.sqrt(spread)
    least = np.fmin.reduce(upper_sum, initial=s0)
    for i in rows[~(lower_sum > least)].tolist():
        sums[i] = exact_sum(i)
    return int(np.argmin(sums))


def _axis_bound(xd: np.ndarray, weight: np.ndarray, m: int) -> np.ndarray | None:
    """A lower bound on each row's exact distance sum from the one axis k of
    widest range, sum over i of weight[i] * |x_k - xd[i, k]| widened for
    rounding (module docstring); None when that axis holds a value that is
    not finite or m * max |x_k| exceeds 2^1000."""
    with np.errstate(all="ignore"):
        k = int(np.argmax(xd.max(axis=0) - xd.min(axis=0)))
        z = m * float(np.abs(xd[:, k]).max())
    if not z <= 2.0**1000:
        return None
    order = np.argsort(xd[:, k], kind="stable")
    v = xd[order, k]
    w = weight[order]
    # the rows up to each sorted position count at v minus their values, the
    # rest at their values minus v: v(2W - m) + P_total - 2P over prefix sums
    below = np.cumsum(w)
    prefix = np.cumsum(w * v)
    total = v * (2 * below - m) + (prefix[-1] - 2 * prefix)
    out = np.empty(len(v))
    out[order] = total * (1 - 8 * _U) - (4 * (len(v) + 4) * _U * z + m * 2.0**-508)
    return out


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
    a_arg = np.zeros(len(a), dtype=np.int64)
    b_min = np.empty(len(b), dtype=np.float64)
    # per row of a: an upper bound over the b rows seen so far, and the rank
    # of its best exact distance (_lowest)
    bound = np.full(len(a), np.inf)
    rank = np.full(len(a), np.inf)
    for i0, upper, spread in _bracket_tiles(b, a):
        m = len(upper)
        np.fmin(bound, np.fmin.reduce(upper, axis=0), out=bound)
        far_row = upper > (_widen(np.fmin.reduce(upper, axis=1)) + spread)[:, None]
        r, c = _pairs(~(far_row & (upper > _widen(bound) + spread.max())))
        d = _exact_dists(a, c, b, i0 + r)
        b_min[i0 : i0 + m] = np.minimum.reduceat(d, np.searchsorted(r, np.arange(m)))
        a_min = _lowest(rank, a_arg, c, d, i0 + r)
    return a_min, a_arg, b_min
