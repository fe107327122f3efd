"""Leakage metrics over medoids and the real table.

For each medoid m the nearest-real distance is d_min(m) = min over real rows x
of delta(psi(m), psi(x)), exact over all real rows, ties to the lowest real
row id. The attack success rate at threshold tau is the fraction of medoids
with d_min strictly below tau; coverage at tau is the fraction of real rows
strictly within tau of at least one medoid. Both inequalities are strict, so
both curves are exactly zero at tau = 0.

The real rows come as a stream of blocks. Each block is reduced as it
arrives, by kernels.cross_min_distances on its encoding or by _gower_minima
on its raw rows. One loop merges the medoids' minima in row order and adds,
per grid threshold, how many of the block's rows have a medoid strictly
within it. The counts are integers, so their sum over blocks is exact: the
profile is the one a whole table gives, bit for bit, and the real side's
memory is bounded per block, plus one count per threshold.

Gower. gower_fold gives a pair the distance d = fl(total / C) for C
columns, total being the float sum, from 0 in column order, of the terms: 0
or 1 per categorical column, and min(fl(|fl(x - a)| / R), 1) per numeric
column whose fitted range lo <= hi has R = fl(hi - lo) > 0. Cells and ranges
are finite, so every term lies in [0, 1]. _gower_minima groups a block's
rows by category pattern and takes as the axis the first numeric column
with a range, or zeros of width 0 without one (t is then 0 and every window
whole). For a medoid and a pattern, k counts the categorical columns in
which they differ, and t is a pair's axis term. Unless the cost rule
(_windows_pay) expects the per-medoid scan to be cheaper, each row and each
medoid gets a seed distance D, the exact distance to one medoid or row, and
only the pairs in its windows, which hold every pair with d <= D, are
computed: the ones at the minimum, ties included, are among them.

The windows. Write u = 2^-53. A sum of non-negative floats rounds to at
least 1 - u times its exact value, and of the at most C additions the first
is exact, so total >= (1 - u)^(C-1) S with S >= k + t the exact sum of the
terms; the division gives d >= (1 - u) total / C, or total / C - 2^-1075
when the quotient is subnormal. So d <= D implies
k + t <= B = C (D + 2^-1075) / (1 - u)^C.
- Reach. X = fl(fl(D' C) (1 + 2(C + 2)u)) with D' = max(D, 2^-1000)
  (_reach): both products are normal, so X >= D' C (1 - u)^2 (1 + 2(C + 2)u),
  while B <= D' C (1 + 2^-75)(1 + Cu + C^2 u^2). For any C u < 2^-20, X
  exceeds B by at least (C + 1)u D' C >= uX + 2^-1075. A pattern with k > X
  holds no pair with d <= D, and T = fl(X - k), which rounds down by at most
  uX, has t + 2^-1075 <= T.
- Width. If T >= 1 the window holds the whole pattern. Otherwise t < 1 is
  unclamped: t = fl(q) for q = |fl(x - a)| / R, so q <= t / (1 - u) + 2^-1075
  <= T / (1 - u), and fl(x - a) is finite and within a factor 1 - u of
  x - a (exact when subnormal), so |x - a| <= T R / (1 - u)^2. The half
  width h = max(fl(fl(T R)(1 + 8u)), 2^-1020) (_half_width) is at least
  that: if T R >= 2^-1021 both products are normal and
  h >= T R (1 - u)^2 (1 + 8u) >= T R / (1 - u)^2; otherwise
  T R / (1 - u)^2 < 2^-1020. An h that overflows keeps every row.
- Ends. A float x with |x - a| <= h has fl(a - h) <= x <= fl(a + h), as
  rounding is monotone, so a searchsorted of those two floats over values
  sorted by the axis drops no row or medoid of the window.
A medoid's windows run over the rows of each pattern with k <= X, sorted by
the axis. A row's runs over the medoids sorted by the axis, taking T from the
fewest mismatches any medoid has with its pattern; when T < 1 a medoid with
more mismatches has t <= X - k - uX < 0, so only the medoids with the fewest
are listed. A row whose window holds its seed alone keeps the seed distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import kernels
from .clustering import MedoidSet
from .encoding import EncodedMatrix, EncodingModel
from .errors import ConfigError, LineageError, SchemaError
from .tables import CATEGORICAL, NUMERIC, DataTable, TableSchema

MARK_RESOLUTION = 1e-12
_U = 2.0**-53


@dataclass(frozen=True)
class DistanceRecord:
    cluster_id: int
    medoid_row_id: int
    d_min: float
    nearest_real_row_id: int


class GowerWork(NamedTuple):
    """What the Gower reduction computed: exact pairs (seeds included) out of
    the medoids x rows of a scan, and the blocks scanned in full out of all."""

    pairs: int
    cross: int
    scanned: int
    blocks: int


@dataclass(eq=False)
class ProximityProfile:
    """Per-medoid nearest-real records and, from the same pass over n_real
    real rows, per threshold of the grid it was taken on, how many of those
    rows have a medoid strictly within it; with Gower, the work done."""

    records: list[DistanceRecord]
    counts: np.ndarray
    n_real: int
    gower: GowerWork | None = None


@dataclass
class ThresholdGrid:
    """Finite, strictly increasing, non-negative thresholds plus marked references:
    the grid section of report.json.

    taus are stored as a tuple of floats. Marks must land on grid points
    (within 1e-12); they are stored resolved to the exact grid values so
    reference readouts equal curve values exactly.
    """

    taus: tuple[float, ...]
    marks: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        taus = np.asarray(self.taus, dtype=np.float64)
        if taus.ndim != 1 or len(taus) == 0:
            raise ConfigError("threshold grid must be a non-empty 1-d array")
        if not np.isfinite(taus).all():
            raise ConfigError("thresholds must be finite")
        if taus[0] < 0.0:
            raise ConfigError("thresholds must be non-negative")
        if len(taus) > 1 and not np.all(np.diff(taus) > 0.0):
            raise ConfigError("thresholds must be strictly increasing")
        self.taus = tuple(taus.tolist())
        self.marks = tuple(self.taus[self.index_of(m)] for m in self.marks)

    def index_of(self, tau: float) -> int:
        """The index of the grid threshold within MARK_RESOLUTION of tau."""
        taus = np.asarray(self.taus)
        i = int(np.argmin(np.abs(taus - tau)))
        if abs(taus[i] - tau) <= MARK_RESOLUTION:
            return i
        raise ConfigError(f"threshold {tau!r} is not on the grid")


def grid_from_spec(spec: str, marks: Sequence[float]) -> ThresholdGrid:
    """Parse a start:stop:step grid description of finite numbers, checking
    its point count (at most 100 000) before allocating it."""
    pieces = spec.split(":")
    if len(pieces) != 3:
        raise ConfigError(f"grid spec must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in pieces)
    except ValueError:
        raise ConfigError(f"grid spec must be numeric, got {spec!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"grid spec must be finite, got {spec!r}")
    if step <= 0.0 or stop < start:
        raise ConfigError(f"grid spec must have step > 0 and stop >= start, got {spec!r}")
    span = (stop - start) / step + 1e-9
    if not span < 100_000:
        raise ConfigError(f"grid spec must give at most 100000 points, got {spec!r}")
    count = int(math.floor(span)) + 1
    taus = np.round(start + step * np.arange(count), 10)
    return ThresholdGrid(taus, marks)


# Per piece of consecutive real rows: each medoid's minimum distance into the
# piece, the piece-local row attaining it first, and each row's minimum over
# the medoids.
Minima = tuple[np.ndarray, np.ndarray, np.ndarray]


def _profile(medoids: MedoidSet, pieces: Iterable[Minima],
             grid: ThresholdGrid) -> ProximityProfile:
    """The profile on grid over pieces that cover the real rows in order.

    A medoid takes a later piece's row only when it is strictly nearer, with
    NaN nearest of all as in np.argmin, so ties keep the lowest row id; row
    ids count over all pieces. pieces is consumed only when there are medoids.
    """
    if len(medoids) == 0:
        raise ConfigError("no medoids to evaluate")
    d_min = np.full(len(medoids), np.inf)
    nearest = np.zeros(len(medoids), dtype=np.int64)
    rank = np.full(len(medoids), np.inf)
    counts = np.zeros(len(grid.taus), dtype=np.int64)
    offset = 0
    for a_min, a_arg, b_min in pieces:
        key = np.where(np.isnan(a_min), -np.inf, a_min)
        better = key < rank
        rank[better], d_min[better] = key[better], a_min[better]
        nearest[better] = offset + a_arg[better]
        counts += _count_below(b_min, grid)
        offset += len(b_min)
    records = [
        DistanceRecord(
            cluster_id=m.cluster_id,
            medoid_row_id=m.row_id,
            d_min=float(d_min[i]),
            nearest_real_row_id=int(nearest[i]),
        )
        for i, m in enumerate(medoids.medoids)
    ]
    return ProximityProfile(records=records, counts=counts, n_real=offset)


def proximity_profile(medoids: MedoidSet, real: Iterable[EncodedMatrix],
                      grid: ThresholdGrid) -> ProximityProfile:
    """Exact nearest-real distances for every medoid, and the coverage counts
    on grid. real is the consecutive row chunks of one matrix, each reduced
    by kernels.cross_min_distances."""

    def pieces():
        vectors = medoids.vectors()
        for chunk in real:
            if medoids.model_hash != chunk.model_hash:
                raise LineageError("medoids and real matrix come from different encoding models")
            # a square that overflows makes d_min infinite, as intended; the
            # state is left before yielding, so the caller's stays its own
            with np.errstate(over="ignore"):
                minima = kernels.cross_min_distances(vectors, chunk.vectors)
            yield minima

    return _profile(medoids, pieces(), grid)


def proximity_profile_gower(
    medoids: MedoidSet,
    real: Iterable[DataTable],
    grid: ThresholdGrid,
    ranges: dict[str, tuple[float, float]],
) -> ProximityProfile:
    """Gower variant: distances on raw rows with model-fitted numeric ranges.
    real is the consecutive blocks of one table, each reduced by
    _gower_minima; the profile's gower field says how much exact work that
    took."""
    rows = [m.raw for m in medoids.medoids]
    work = [0, 0, 0, 0]

    def pieces():
        for block in real:
            cells = gower_cells(block.schema, rows)
            minima, pairs = _gower_minima(block, cells, ranges)
            cross = block.n_rows * len(rows)
            work[0] += cross if pairs is None else pairs
            work[1] += cross
            work[2] += pairs is None
            work[3] += 1
            yield minima

    profile = _profile(medoids, pieces(), grid)
    profile.gower = GowerWork(*work)
    return profile


def numeric_ranges(model: EncodingModel) -> dict[str, tuple[float, float]]:
    """Per-column (lo, hi) from the fitted model, for Gower evaluation."""
    return {name: (s.lo, s.hi) for name, s in model.stats.items()}


def gower_cells(schema: TableSchema, rows: Sequence[tuple]) -> list[np.ndarray]:
    """Raw rows column by column, as gower_fold compares them: float64 values
    of the numeric columns, and for a categorical column each cell's index in
    schema's vocabulary, or -1 for a category outside it, as int32 like a
    table's codes, so that comparing them widens neither side."""
    if any(len(row) != len(schema.columns) for row in rows):
        raise SchemaError("row length does not match the table schema")
    cells = []
    for j, col in enumerate(schema.columns):
        if col.kind == NUMERIC:
            cells.append(np.array([row[j] for row in rows], dtype=np.float64))
        else:
            pos = {cat: k for k, cat in enumerate(col.categories)}
            cells.append(np.array([pos.get(row[j], -1) for row in rows], dtype=np.int32))
    return cells


def gower_fold(
    schema: TableSchema,
    ranges: dict[str, tuple[float, float]],
    columns: Sequence[np.ndarray],
    cells: Sequence,
    out: np.ndarray,
) -> np.ndarray:
    """Gower distances, the mean per-column dissimilarity, of rows given
    column by column (a table's columns, or their cells gathered per pair)
    against cells of the other side: per column one value for every row, or
    one per row, as gower_cells gives them.

    Numeric columns contribute |a - b| / (hi - lo) clamped to [0, 1], or 0 when
    the fitted range is empty; categorical columns contribute 0 on a match and
    1 otherwise. The terms are added in column order to a total that starts
    at 0, which is then divided by the column count, so a pair's distance is
    the same float whichever rows share the call, as the window proof in the
    module docstring needs. Ranges come from the fitted model so the
    comparison stays independent of the real table. out, a (2, rows) float64
    array, takes the distances in out[0] and a scratch term in out[1], so a
    caller that compares many rows allocates them once.
    """
    total, term = out
    total.fill(0.0)
    for col, arr, cell in zip(schema.columns, columns, cells):
        if col.kind == NUMERIC:
            lo, hi = ranges[col.name]
            if hi != lo:
                np.subtract(arr, cell, out=term)
                np.abs(term, out=term)
                np.divide(term, hi - lo, out=term)
                total += np.minimum(term, 1.0, out=term)
        else:
            total += arr != cell
    total /= len(schema.columns)
    return total


def _gower_minima(
    block: DataTable, cells: list[np.ndarray], ranges: dict[str, tuple[float, float]]
) -> tuple[Minima, int | None]:
    """One block's minima against the medoids given by cells, and the exact
    pairs the windows took, or None when the block is scanned per medoid.

    Seeds give every row and every medoid one exact distance, and their
    windows (the module docstring) then hold every pair that could reach or
    tie it: a row's window runs over the medoids listed by pattern and axis,
    a medoid's over the rows sorted by pattern and axis. The cost rule runs
    before the patterns are found (as if there were one), on their count, on
    the windows of a sample of about m rows, and on all the windows before
    any pair in them is computed.
    """
    schema = block.schema
    n, m, c = block.n_rows, len(cells[0]), len(schema.columns)
    if not _windows_pay(2 * m, m, n):
        return _gower_scan(block, cells, ranges), None
    gid, g, rep = _patterns(block)
    if m * g > kernels.TILE_BYTES // 8 or not _windows_pay(m + m * g, m, n):
        return _gower_scan(block, cells, ranges), None
    axis = next((j for j, col in enumerate(schema.columns)
                 if col.kind == NUMERIC and ranges[col.name][0] != ranges[col.name][1]), None)
    if axis is None:
        x, a, width = np.zeros(n), np.zeros(m), 0.0
    else:
        low, high = ranges[schema.columns[axis].name]
        x, a, width = block.columns[axis], cells[axis], high - low

    def fold(pm: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The distances of the pairs (medoid pm[i], row rows[i])."""
        out = np.empty((2, len(pm)))
        return gower_fold(schema, ranges, [col[rows] for col in block.columns],
                          [cell[pm] for cell in cells], out)

    # k[i, p]: categories in which medoid i and pattern p differ
    k = np.zeros((m, g), dtype=np.int32)
    for j, col in enumerate(schema.columns):
        if col.kind == CATEGORICAL:
            k += cells[j][:, None] != block.columns[j][rep]

    # A row's seed is the nearest medoid on the axis among those with its
    # pattern's fewest mismatches, listed by pattern and then by the axis.
    # Only they can lie in a window below 1 on the axis, which for most rows
    # holds the seed alone: its neighbours in the list fall outside. A wider
    # window holds every medoid, the entries from len(lr) on of listed.
    fewest = k.min(0)
    mo = np.argsort(a)
    lg, lr = np.nonzero((k[mo] == fewest).T)
    listed = np.concatenate([mo[lr], mo])
    a_listed = a[listed]
    padded = np.concatenate([[-np.inf], a_listed, [np.inf]])
    medpos = _placer(lg, lr, a[mo])
    lstarts = np.searchsorted(lg, np.arange(g + 1))

    def row_windows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per row, its seed distance, and for the rows whose window may hold
        more than the seed, their positions in rows and windows [lo, hi) in
        listed. A neighbour of the seed across a pattern's end in padded is
        another pattern's medoid or an infinity: at worst it sends the row
        to the search."""
        group, v = gid[rows], x[rows]
        pick = _axis_nearest(a_listed, lstarts[group], lstarts[group + 1] - 1,
                             medpos(group, v, "left"), v)
        d = fold(listed[pick], rows)
        t = _reach(d, c) - fewest[group]
        half = _half_width(np.minimum(t, 1.0), width)
        lower, upper = v - half, v + half
        near = t < 1.0
        alone = near & (padded[pick] < lower) & (padded[pick + 2] > upper)
        far, near = np.flatnonzero(~near), np.flatnonzero(near & ~alone)
        wide = np.concatenate([near, far])
        lo = np.concatenate([medpos(group[near], lower[near], "left"), np.full(len(far), len(lr))])
        hi = np.concatenate([medpos(group[near], upper[near], "right"),
                             np.full(len(far), len(listed))])
        return d, wide, lo, hi

    sample = np.arange(0, n, max(1, n // m))
    _, _, lo, hi = row_windows(sample)
    if not _windows_pay(m + m * g + int((hi - lo)[hi - lo > 1].sum()) * n // len(sample), m, n):
        return _gower_scan(block, cells, ranges), None

    # rows by pattern, then by the axis
    perm = np.argsort(x)
    order = perm
    if g > 1:
        order = perm[np.argsort(gid[perm].astype(np.uint16 if g <= 1 << 16 else np.int64),
                                kind="stable")]
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n)
    gs = gid[order]
    starts = np.searchsorted(gs, np.arange(g + 1))
    rowpos = _placer(gs, rank[order], x[perm])
    del rank, perm, gs

    # the rows' windows, in that order, whose ascending values searchsorted
    # places fastest, and in batches whose dozen row arrays of float64 each
    # hold an eighth of a tile
    per_real = np.empty(n)
    wide, row_lo, row_len = [], [], []
    for first in range(0, n, kernels.TILE_BYTES // 64):
        rows = order[first : first + kernels.TILE_BYTES // 64]
        per_real[rows], at, lo, hi = row_windows(rows)
        more = hi - lo > 1
        wide.append(rows[at[more]])
        row_lo.append(lo[more])
        row_len.append(hi[more] - lo[more])
    more, row_lo, row_len = map(np.concatenate, (wide, row_lo, row_len))

    # each medoid's seed: the nearest row on the axis in each pattern of its
    # fewest mismatches; its windows then hold every row within that reach
    sm, sg = np.nonzero(k == k.min(1)[:, None])
    sp = _axis_nearest(x[order], starts[sg], starts[sg + 1] - 1,
                       rowpos(sg, a[sm], "left"), a[sm])
    reach = np.full(m, np.inf)
    np.minimum.at(reach, sm, fold(sm, order[sp]))
    reach = _reach(reach, c)
    wm, wg = np.nonzero(k <= reach[:, None])
    lo, hi = starts[wg], starts[wg + 1]
    t = reach[wm] - k[wm, wg]
    near = np.flatnonzero(t < 1.0)
    half = _half_width(t[near], width)
    v = a[wm[near]]
    lo[near] = rowpos(wg[near], v - half, "left")
    hi[near] = rowpos(wg[near], v + half, "right")
    del rowpos

    pairs = n + len(sm) + int((hi - lo).sum()) + int(row_len.sum())
    if not _windows_pay(pairs - n + m * g, m, n):
        return _gower_scan(block, cells, ranges), None

    d_min = np.full(m, np.inf)
    nearest = np.zeros(m, dtype=np.int64)
    for seg, pos in _ragged(lo, hi - lo):
        pm, rows = wm[seg], order[pos]
        d = fold(pm, rows)
        chunk_min = np.full(m, np.inf)
        np.minimum.at(chunk_min, pm, d)
        tie = d == chunk_min[pm]
        chunk_arg = np.full(m, n, dtype=np.int64)
        np.minimum.at(chunk_arg, pm[tie], rows[tie])
        nearest = np.where(chunk_min < d_min, chunk_arg, np.where(
            chunk_min == d_min, np.minimum(nearest, chunk_arg), nearest))
        np.minimum(d_min, chunk_min, out=d_min)
    for seg, pos in _ragged(row_lo, row_len):
        rows = more[seg]
        np.minimum.at(per_real, rows, fold(listed[pos], rows))
    return (d_min, nearest, per_real), pairs


def _gower_scan(
    block: DataTable, cells: list[np.ndarray], ranges: dict[str, tuple[float, float]]
) -> Minima:
    """One block's minima by one pass over every row per medoid, with its cells
    as Python scalars, which numpy compares at the column's own width."""
    m = len(cells[0])
    d_min = np.empty(m, dtype=np.float64)
    nearest = np.empty(m, dtype=np.int64)
    per_real = np.full(block.n_rows, np.inf, dtype=np.float64)
    scratch = np.empty((2, block.n_rows), dtype=np.float64)
    for i, row in enumerate(zip(*(cell.tolist() for cell in cells))):
        d = gower_fold(block.schema, ranges, block.columns, row, scratch)
        d_min[i] = d.min()
        nearest[i] = np.argmin(d)
        np.minimum(per_real, d, out=per_real)
    return d_min, nearest, per_real


def _windows_pay(pairs: int, m: int, n: int) -> bool:
    """The cost rule: windows holding pairs exact pairs pay against the m * n
    entries of the scan when eight times pairs + 4n stays below m * n. On
    36k-row blocks of 5 to 7 columns a pair, whose cells are gathered from
    both sides and whose minimum is merged, cost about six entries of the
    scan, and each row's sort, seed and window about four pairs (CHANGES.md);
    eight leaves a margin for the estimates."""
    return 8 * (pairs + 4 * n) < m * n


def _patterns(block: DataTable) -> tuple[np.ndarray, int, np.ndarray]:
    """Each row's category pattern as a dense id in 0..g-1, g, and each
    pattern's first row. The ids are mixed-radix numbers over the
    vocabularies, renumbered densely whenever their span would pass the row
    count."""
    n = block.n_rows
    gid = np.zeros(n, dtype=np.int64)
    span = 1
    for col, codes in zip(block.schema.columns, block.columns):
        if col.kind == CATEGORICAL:
            gid = gid * len(col.categories) + codes
            span *= len(col.categories)
            if span > n:
                _, gid = np.unique(gid, return_inverse=True)
                span = int(gid.max()) + 1
    present = np.bincount(gid, minlength=span) > 0
    gid = (np.cumsum(present) - 1)[gid]
    g = int(present.sum())
    first = np.full(g, n)
    np.minimum.at(first, gid, np.arange(n))
    return gid, g, first


def _placer(groups: np.ndarray, ranks: np.ndarray, values: np.ndarray):
    """For entries sorted by group and then by value, given as each entry's
    group and the rank of its value in the ascending values: the function
    that gives, per query group and value v, the first entry of that group
    whose value is not below v (side "left") or above v ("right"), or the
    group's end. A rank r passes v exactly when r reaches v's own
    searchsorted place, so ties and repeated values need no care."""
    size = len(values)
    key = groups * (size + 1) + ranks

    def place(group: np.ndarray, v: np.ndarray, side: str) -> np.ndarray:
        return np.searchsorted(key, group * (size + 1) + np.searchsorted(values, v, side))

    return place


def _axis_nearest(values, first, last, place, v) -> np.ndarray:
    """Per query, of the entries place - 1 and place, kept inside
    [first, last], the one whose value is nearer v (values ascend there, and
    place, at most last + 1, is the first entry not below v)."""
    after = np.minimum(place, last)
    before = np.maximum(place - 1, first)
    return np.where(np.abs(values[after] - v) < np.abs(values[before] - v), after, before)


def _reach(d: np.ndarray, c: int) -> np.ndarray:
    """Per distance d, an X with k + t <= X for every pair whose computed
    distance is at most d (the module docstring's window proof)."""
    return np.maximum(d, 2.0**-1000) * c * (1.0 + 2 * (c + 2) * _U)


def _half_width(t: np.ndarray, width: float) -> np.ndarray:
    """Per axis bound t < 1, a delta with |x - a| <= delta for every pair
    whose axis term is at most t (the module docstring's window proof)."""
    return np.maximum(t * width * (1.0 + 8 * _U), 2.0**-1020)


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The positions starts[s] .. starts[s] + lengths[s] - 1 of every segment
    s in turn, in chunks of at most TILE_BYTES // 8 as (segment, position)."""
    ends = np.cumsum(lengths)
    begins = ends - lengths
    shift = starts - begins
    total = int(ends[-1]) if len(ends) else 0
    step = kernels.TILE_BYTES // 8
    for first in range(0, total, step):
        last = min(first + step, total)
        s0, s1 = np.searchsorted(ends, [first, last - 1], "right")
        span = slice(s0, s1 + 1)
        cut = np.minimum(ends[span], last) - np.maximum(begins[span], first)
        seg = np.repeat(np.arange(s0, s1 + 1), cut)
        yield seg, np.arange(first, last) + shift[seg]


def asr_curve(records: Sequence[DistanceRecord], grid: ThresholdGrid) -> np.ndarray:
    """Fraction of medoids with d_min strictly below each grid threshold."""
    if not records:
        raise ConfigError("asr curve needs at least one record")
    dmin = np.array([r.d_min for r in records], dtype=np.float64)
    return _count_below(dmin, grid) / len(records)


def _count_below(values: np.ndarray, grid: ThresholdGrid) -> np.ndarray:
    """Per threshold, how many values lie strictly below it: a left insertion
    point in sorted order counts exactly the smaller values (NaN sorts last
    and never counts, as with <). values, which its callers make for this
    call alone, is sorted in place, so a block of real rows needs no copy."""
    values.sort()
    return np.searchsorted(values, grid.taus, side="left")


@dataclass(frozen=True)
class DminSummary:
    count: int
    min: float
    mean: float
    median: float
    max: float
    p10: float
    p90: float


def _percentile(sorted_values: np.ndarray, p: float) -> float:
    """Linear interpolation at rank h = (n - 1) * p / 100 on sorted values.
    Between two equal neighbours it is their value, also when both are
    infinite, where the interpolation would give inf - inf = NaN."""
    n = len(sorted_values)
    h = (n - 1) * (p / 100.0)
    f = math.floor(h)
    frac = h - f
    lo = float(sorted_values[f])
    if frac == 0.0 or f + 1 >= n or sorted_values[f + 1] == lo:
        return lo
    return lo + frac * (float(sorted_values[f + 1]) - lo)


def summarize_dmin(values: Sequence[float] | np.ndarray) -> DminSummary:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or len(arr) == 0:
        raise ConfigError("summary needs a non-empty 1-d value set")
    s = np.sort(arr)
    return DminSummary(
        count=int(len(s)),
        min=float(s[0]),
        mean=float(arr.mean()),
        median=_percentile(s, 50.0),
        max=float(s[-1]),
        p10=_percentile(s, 10.0),
        p90=_percentile(s, 90.0),
    )


@dataclass(frozen=True)
class MetricCurves:
    """ASR and coverage per grid threshold: the curves section of report.json."""

    asr: list[float]
    coverage: list[float]


def curves_from_profile(profile: ProximityProfile, grid: ThresholdGrid) -> MetricCurves:
    """The curves on grid, the one the profile was taken on: coverage is the
    fraction of the real rows that its counts give."""
    if profile.n_real == 0:
        raise ConfigError("coverage needs at least one real row")
    return MetricCurves(
        asr=asr_curve(profile.records, grid).tolist(),
        coverage=(profile.counts / profile.n_real).tolist(),
    )
