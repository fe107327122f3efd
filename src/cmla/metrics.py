"""Leakage metrics over medoids and the real table.

For each medoid m the nearest-real distance is d_min(m) = min over real rows x
of delta(psi(m), psi(x)), exact over all real rows, ties to the lowest real
row id, NaN first (kernels._lowest). The attack success rate at threshold
tau is the fraction of medoids with d_min strictly below tau; coverage at
tau is the fraction of real rows strictly within tau of at least one medoid.
Both inequalities are strict, so both curves are exactly zero at tau = 0.

The real rows come as a stream of blocks. Each block is reduced as it
arrives, by _euclidean_minima or _gower_minima, to pieces: each medoid's
minimum into the piece and, per grid threshold, how many of its rows have a
medoid strictly within it. One loop merges the medoids' minima in row order
and adds the counts. The counts are integers, so their sum over blocks is
exact: the profile is the one a whole table gives, bit for bit, and the
real side's memory is bounded per block, plus one count per threshold.

The windows. Both metrics reduce a block in one engine (_window_minima)
unless the cost rule (_windows_pay) expects their full scan to be cheaper:
the per-medoid Gower scan, or the tiles of kernels.cross_min_distances. The
block's rows are grouped by pattern over key columns, the categorical ones,
by the block's codes; for a medoid and a pattern, k is the exact sum of the
pair's terms in the key columns, an integer each metric counts from codes.
One other column, the axis, gives each pair a term t >= 0. Each row and
each medoid gets a seed distance D, at least its distance to one medoid or
row (Seeds below), and its windows hold every pair with d <= D: the ones at
the minimum, ties included, are among them. Write u = 2^-53. Each metric
proves, for its distance d, that d <= D implies k + t <= B for a bound B,
and gives a reach X with X(1 - u) >= B. A pattern with k > X then holds no
pair with d <= D, and T = fl(X - k), which rounds down by at most uX (and
not at all when subnormal), has t <= T. The metric's half width h(T) bounds
|x - a| for every pair with t <= T < 1, x and a being the row's and the
medoid's axis values.
- Ends. A float x with |x - a| <= h has fl(a - h) <= x <= fl(a + h), as
  rounding is monotone, so a searchsorted of those two floats over values
  sorted by the axis drops no row or medoid of the window. If T >= 1 the
  window holds the whole pattern.
- Listing. A medoid's windows run over the rows of each pattern with
  k <= X, sorted by the axis. A row's runs over the medoids sorted by the
  axis, taking T from the fewest mismatches F any medoid has with its
  pattern; when T < 1 a medoid with more mismatches has t <= X - k - uX < 0,
  so only the medoids with the fewest are listed. A row whose window holds
  its seed alone has the seed's distance as its minimum.

Seeds. A seed pair's distance is bounded, not computed. Its terms outside
the keys, each the float the distance itself adds, sum with k in floats, in
any order, to S'. Let S be their exact sum. Each rounding in a float sum of
non-negative terms is within a factor 1 +- u of its exact value (exact when
subnormal), so if the distance's own sum s of the same terms rounds a times
and S' b times, a + b <= N and N u <= 2^-20, then
S'(1 - Nu) <= s <= S'(1 + 2Nu). _sum_span, with w = 4Nu, gives
lo = max(fl(fl(S'(1 - w)) - 2^-1000), 0) and hi = fl(fl(S'(1 + w)) + 2^-1000),
or hi = 0 when S' = 0, which holds only when every term, and so s, is 0. A
product rounds to within a factor 1 +- u of its value, or by 2^-1075 when
subnormal, so fl(S'(1 - w)) <= s + 2^-1075 and fl(S'(1 + w)) >= s - 2^-1075;
the 2^-1000 carries each past the float s, and rounding, monotone, does not
bring it back: lo <= s <= hi. The same lo holds for every s whose exact sum
is at least S', such as any pair of a pattern with S' = F. The distance is a
monotone function of s, so it maps lo and hi to bounds on d; the upper one
is the seed distance D.

Counts. A row's minimum lies in [L, H]: H is its seed's upper bound, and L
its seed's lower bound when the window holds no other medoid, else the
floor of its pattern, the lower bound for S' = F. Its bin, the number of
thresholds at or below the minimum, is the minimum's when no threshold lies
in (L, H], and the row then counts under every threshold past its bin
(strictly below), so the counts are cumsum(bincount(bins)). That holds when
L reaches the top threshold, and when L = H = 0, as for a copy of a medoid,
which no threshold counts at tau = 0. Only a row with a threshold in
(L, H] gets exact distances: to its seed when the seed is alone in its
window, else to every medoid in it. Every pair in a medoid's windows is
computed, for its exact minimum and lowest row.

Gower. gower_fold gives a pair the distance d = fl(total / C) for C
columns, total being the float sum, from 0 in column order, of the terms: 0
or 1 per categorical column, and min(fl(|fl(x - a)| / R), 1) per numeric
column whose fitted range lo <= hi has R = fl(hi - lo) > 0. Cells and ranges
are finite, so every term lies in [0, 1]. The keys are the categorical
columns, with a term of 1 per differing category, and the axis is the first
numeric column with a range, or zeros of width 0 without one (t is then 0
and every window whole); with N = 2C, S' takes k and the numeric terms,
and d = fl(total / C) is monotone in total. A sum of
non-negative floats rounds to at least 1 - u times its exact value, and of
the at most C additions the first is exact, so total >= (1 - u)^(C-1) S
with S >= k + t the exact sum of the terms; the division gives
d >= (1 - u) total / C, or total / C - 2^-1075 when the quotient is
subnormal. So d <= D implies k + t <= B = C (D + 2^-1075) / (1 - u)^C.
- Reach. X = fl(fl(D' C) (1 + 2(C + 2)u)) with D' = max(D, 2^-1000)
  (_gower_reach): both products are normal, so
  X >= D' C (1 - u)^2 (1 + 2(C + 2)u), while
  B <= D' C (1 + 2^-75)(1 + Cu + C^2 u^2). For any C u < 2^-20, X exceeds B
  by at least (C + 1)u D' C >= uX + 2^-1075, so t + 2^-1075 <= T.
- Width. t < 1 is unclamped: t = fl(q) for q = |fl(x - a)| / R, so
  q <= t / (1 - u) + 2^-1075 <= T / (1 - u), and fl(x - a) is finite and
  within a factor 1 - u of x - a (exact when subnormal), so
  |x - a| <= T R / (1 - u)^2. The half width
  h = max(fl(fl(T R)(1 + 8u)), 2^-1020) (_gower_half_width) is at least
  that: if T R >= 2^-1021 both products are normal and
  h >= T R (1 - u)^2 (1 + 8u) >= T R / (1 - u)^2; otherwise
  T R / (1 - u)^2 < 2^-1020. An h that overflows keeps every row.

Euclidean. kernels._exact_dists gives a pair of encoded rows the distance
d = fl(sqrt(s)), s being the float sum, in any order, of the terms
fl(fl(x_j - a_j)^2) over the dim columns. The keys are the categorical
columns, whose codes map to positions in the model's vocabulary, and
encoding.read_layout reads the medoids' from their one-hot blocks: a
differing category puts a difference of exactly +-1 in two one-hot
columns, terms of exactly 2 in all, and one outside the vocabulary, an
all-zero block, a term of exactly 1. The other terms come from the scaled
numeric columns, and the axis is the one along which the medoids spread
widest, or zeros without one (t is then 0). Only the rows of exact pairs
are laid out as encoded rows (encoding.Parts); with N = 2 dim, S' takes k
and one term per numeric column. A block goes to the tiles, encoded in
full, whenever a scaled value in it or in the medoids is not finite or
exceeds 2^500 in magnitude, so no term overflows; under a PCA every block
does, as no projected column holds a category.
- Bound. Of the additions in s, at most dim - 1 round, each to at least
  1 - u times its exact value (or exactly, when subnormal), so
  s >= (1 - u)^(dim-1) (k + t). The square root is correctly rounded and
  never subnormal, so d >= sqrt(s)(1 - u), and d <= D implies
  k + t <= B = D^2 / (1 - u)^(dim+1).
- Reach. X = fl(fl(D' D') (1 + 2(dim + 2)u)) with D' = max(D, 2^-500)
  (_euclidean_reach): both products are normal, so
  X(1 - u) >= D'^2 (1 - u)^3 (1 + 2(dim + 2)u), which exceeds
  B <= D'^2 (1 + (dim + 1)u + (dim + 1)^2 u^2) for any dim u < 2^-20.
- Width. t = fl(e^2) for e = fl(x - a), and e is within a factor 1 - u of
  x - a (exact when subnormal). If e^2 >= 2^-1022, t >= e^2 (1 - u), so
  |x - a| <= |e| / (1 - u) <= sqrt(T) / (1 - u)^(3/2); the half width
  h = max(fl(fl(sqrt(T)) (1 + 4u)), 2^-500) (_euclidean_half_width) is at
  least sqrt(T)(1 - u)^2 (1 + 4u), which is more. Otherwise
  |x - a| < 2^-510 < h.
A tie across patterns shows the margins at work: at D = fl(sqrt(6)),
D^2 rounds to 5.999999999999999, yet three one-hot mismatches (k = 6,
t = 0) give s = 6 and d = D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import encoding, kernels
from .clustering import MedoidSet
from .encoding import EncodingModel
from .errors import ConfigError, LineageError, SchemaError
from .tables import CATEGORICAL, NUMERIC, ColumnSpec, DataTable, TableSchema

MARK_RESOLUTION = 1e-12
_U = 2.0**-53


@dataclass(frozen=True)
class DistanceRecord:
    cluster_id: int
    medoid_row_id: int
    d_min: float
    nearest_real_row_id: int


class Work(NamedTuple):
    """What a profile's reduction computed: exact pairs (every pair of a
    block scanned in full) out of the medoids x real rows, the blocks
    scanned in full out of all, and the real rows given at least one exact
    distance (every row of a block scanned in full)."""

    pairs: int
    cross: int
    scanned: int
    blocks: int
    compared: int


@dataclass(eq=False)
class ProximityProfile:
    """Per-medoid nearest-real records and, from the same pass over n_real
    real rows, per threshold of the grid it was taken on, how many of those
    rows have a medoid strictly within it; and the work done."""

    records: list[DistanceRecord]
    counts: np.ndarray
    n_real: int
    work: Work | None = None


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


class Piece(NamedTuple):
    """One piece of consecutive real rows reduced against the medoids: each
    medoid's minimum distance into it and the piece-local row attaining it
    first, per grid threshold how many of its rows have a medoid strictly
    within it, its row count, its exact pairs, the rows among them given an
    exact distance, and whether it was scanned in full."""

    d_min: np.ndarray
    nearest: np.ndarray
    counts: np.ndarray
    rows: int
    pairs: int
    compared: int
    scanned: bool


def _scanned(minima: tuple[np.ndarray, np.ndarray, np.ndarray], grid: ThresholdGrid) -> Piece:
    """The piece of a full scan's (d_min, nearest, each row's minimum)."""
    d_min, nearest, per_real = minima
    n = len(per_real)
    return Piece(d_min, nearest, _count_below(per_real, grid), n, n * len(d_min), n, True)


def _profile(medoids: MedoidSet, pieces: Iterable[Piece], grid: ThresholdGrid) -> ProximityProfile:
    """The profile on grid over pieces that cover the real rows in order.

    The pieces' minima merge by kernels._lowest, so ties keep the lowest row
    id, counted over all pieces, and NaN is nearest of all as in np.argmin.
    pieces is consumed only when there are medoids.
    """
    if len(medoids) == 0:
        raise ConfigError("no medoids to evaluate")
    d_min = rank = np.full(len(medoids), np.inf)
    nearest = np.zeros(len(medoids), dtype=np.int64)
    counts = np.zeros(len(grid.taus), dtype=np.int64)
    offset = pairs = scanned = blocks = compared = 0
    for piece in pieces:
        d_min = kernels._lowest(rank, nearest, np.arange(len(rank)), piece.d_min,
                                offset + piece.nearest)
        counts += piece.counts
        offset += piece.rows
        pairs += piece.pairs
        compared += piece.compared
        scanned += piece.scanned
        blocks += 1
    records = [
        DistanceRecord(
            cluster_id=m.cluster_id,
            medoid_row_id=m.row_id,
            d_min=float(d_min[i]),
            nearest_real_row_id=int(nearest[i]),
        )
        for i, m in enumerate(medoids.medoids)
    ]
    return ProximityProfile(records, counts, offset,
                            Work(pairs, offset * len(medoids), scanned, blocks, compared))


def proximity_profile(medoids: MedoidSet, real: Iterable[DataTable], grid: ThresholdGrid,
                      model: EncodingModel) -> ProximityProfile:
    """Exact nearest-real distances for every medoid, and the coverage counts
    on grid, under the Euclidean metric on model's encoding. real is the
    consecutive blocks of one table, each reduced by the function that
    _euclidean_minima gives; the profile's work says how much exact work
    that took."""

    def pieces():
        if medoids.model_hash != model.model_hash():
            raise LineageError("medoids and real table come from different encoding models")
        reduce = _euclidean_minima(medoids.vectors(), model, grid)
        for block in real:
            yield from reduce(block)

    return _profile(medoids, pieces(), grid)


def proximity_profile_gower(
    medoids: MedoidSet,
    real: Iterable[DataTable],
    grid: ThresholdGrid,
    ranges: dict[str, tuple[float, float]],
) -> ProximityProfile:
    """Gower variant: distances on raw rows with model-fitted numeric ranges.
    real is the consecutive blocks of one table, each reduced by
    _gower_minima; the profile's work says how much exact work that took."""
    rows = [m.raw for m in medoids.medoids]
    pieces = (_gower_minima(block, gower_cells(block.schema, rows), ranges, grid)
              for block in real)
    return _profile(medoids, pieces, grid)


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
    columns: Iterable[np.ndarray],
    cells: Iterable,
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
    total = _gower_total(schema.columns, ranges, columns, cells, out)
    total /= len(schema.columns)
    return total


def _gower_total(specs: Iterable[ColumnSpec], ranges: dict[str, tuple[float, float]],
                 columns: Iterable[np.ndarray], cells: Iterable, out: np.ndarray) -> np.ndarray:
    """gower_fold before its division: the float sum, from 0 in the order of
    specs, of the columns' terms, in out[0]."""
    total, term = out
    total.fill(0.0)
    for col, arr, cell in zip(specs, columns, cells):
        if col.kind == NUMERIC:
            lo, hi = ranges[col.name]
            if hi != lo:
                np.subtract(arr, cell, out=term)
                np.abs(term, out=term)
                np.divide(term, hi - lo, out=term)
                total += np.minimum(term, 1.0, out=term)
        else:
            total += arr != cell
    return total


def _euclidean_minima(medoids: np.ndarray, model: EncodingModel,
                      grid: ThresholdGrid) -> Callable[[DataTable], Iterator[Piece]]:
    """The reduction of each real block against the medoid vectors, encoded
    by model: by the windows (_window_minima), keyed on the block's
    categories, or else on the tiles of kernels.cross_min_distances over the
    block's encoding, in chunks of encoding.CHUNK_BYTES, one piece each. The
    tiles take every block under a PCA, and every block when a medoid's
    categorical entries are no one-hot block of the model; they take a
    block when a scaled numeric value is not finite or exceeds 2^500 in
    magnitude, in it or in the medoids, so that the tiles' rules for NaN and
    overflow stay the only ones."""
    to_parts = encoding.parts_of(model)
    m, dim = medoids.shape
    layout = encoding.read_layout(model, medoids)
    keyed = layout is not None and all(map(_tame, layout[0]))
    taus = np.asarray(grid.taus)
    if keyed:
        numeric, codes = layout
        # the numeric column along which the medoids spread widest
        axis = int(np.argmax([np.ptp(col) for col in numeric])) if numeric else None

    def reduce(block: DataTable) -> Iterator[Piece]:
        parts = to_parts(block)
        n = block.n_rows
        found = None
        if keyed and _windows_pay(2 * m, m, n) and all(map(_tame, parts.numeric)):

            def mismatches(rep: np.ndarray) -> np.ndarray:
                # a differing category costs its two one-hot entries, and
                # one outside the model's vocabulary, an all-zero block, one
                k = np.zeros((m, len(rep)), dtype=np.int32)
                for cm, code, pos in zip(codes, parts.codes, parts.positions):
                    cr = pos[code[rep]]
                    known = (cm >= 0).astype(np.int32)[:, None] + (cr >= 0)
                    k += np.where(cm[:, None] != cr, known, 0)
                return k

            def terms(pm: np.ndarray, rows: np.ndarray) -> np.ndarray:
                total = np.zeros(len(pm))
                for x, a in zip(parts.numeric, numeric):
                    e = x[rows] - a[pm]
                    total += e * e
                return total

            def span(total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                lo, hi = _sum_span(total, dim)
                return np.sqrt(lo), np.sqrt(hi)

            if axis is None:
                x, a = np.zeros(n), np.zeros(m)
            else:
                x, a = parts.numeric[axis], numeric[axis]
            found = _window_minima(
                [(code, len(pos)) for code, pos in zip(parts.codes, parts.positions)], x, a,
                _Metric(mismatches, lambda d: _euclidean_reach(d, dim), _euclidean_half_width,
                        terms, span,
                        lambda pm, rows: kernels._exact_dists(medoids, pm, parts, rows)),
                taus)
        if found is not None:
            yield found
            return
        for chunk in encoding.encode_chunks(model, parts):
            # a square that overflows makes d_min infinite, as intended; the
            # state is left before returning, so the caller's stays its own
            with np.errstate(over="ignore"):
                yield _scanned(kernels.cross_min_distances(medoids, chunk), grid)

    return reduce


def _tame(v: np.ndarray) -> bool:
    """Whether every value is at most 2^500 in magnitude, so none is NaN or
    infinite and no square of a difference overflows."""
    return bool((np.abs(v) <= 2.0**500).all())


def _gower_minima(block: DataTable, cells: list[np.ndarray],
                  ranges: dict[str, tuple[float, float]], grid: ThresholdGrid) -> Piece:
    """One block's piece against the medoids given by cells, by the windows
    (_window_minima), or scanned per medoid."""
    schema = block.schema
    n, m, c = block.n_rows, len(cells[0]), len(schema.columns)
    found = None
    if _windows_pay(2 * m, m, n):
        categorical = [j for j, col in enumerate(schema.columns) if col.kind == CATEGORICAL]
        numeric = [j for j, col in enumerate(schema.columns) if col.kind == NUMERIC]

        def mismatches(rep: np.ndarray) -> np.ndarray:
            k = np.zeros((m, len(rep)), dtype=np.int32)
            for j in categorical:
                k += cells[j][:, None] != block.columns[j][rep]
            return k

        axis = next((j for j in numeric if ranges[schema.columns[j].name][0]
                     != ranges[schema.columns[j].name][1]), None)
        if axis is None:
            x, a, width = np.zeros(n), np.zeros(m), 0.0
        else:
            low, high = ranges[schema.columns[axis].name]
            x, a, width = block.columns[axis], cells[axis], high - low

        def terms(pm: np.ndarray, rows: np.ndarray) -> np.ndarray:
            return _gower_total([schema.columns[j] for j in numeric], ranges,
                                (block.columns[j][rows] for j in numeric),
                                (cells[j][pm] for j in numeric), np.empty((2, len(pm))))

        def span(total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            lo, hi = _sum_span(total, c)
            return lo / c, hi / c

        def fold(pm: np.ndarray, rows: np.ndarray) -> np.ndarray:
            # gathered one column at a time, as the fold reaches it, so a
            # batch of pairs holds one column's cells and not every column's
            out = np.empty((2, len(pm)))
            return gower_fold(schema, ranges, (col[rows] for col in block.columns),
                              (cell[pm] for cell in cells), out)

        found = _window_minima(
            [(block.columns[j], len(schema.columns[j].categories)) for j in categorical], x, a,
            _Metric(mismatches, lambda d: _gower_reach(d, c),
                    lambda t: _gower_half_width(t, width), terms, span, fold),
            np.asarray(grid.taus))
    if found is None:
        return _scanned(_gower_scan(block, cells, ranges), grid)
    return found


def _gower_scan(
    block: DataTable, cells: list[np.ndarray], ranges: dict[str, tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


# Per column that keys the patterns: the rows' codes, from 0, and the number
# of codes a row can take.
Key = tuple[np.ndarray, int]


class _Metric(NamedTuple):
    """What the windows need of a metric (module docstring): mismatches(rep),
    the m x g matrix of k for the patterns whose first rows are rep; the
    reach X of a seed distance; the half width of an axis bound T < 1;
    terms(pm, rows), per pair (medoid pm[i], row rows[i]) the float sum of
    its terms outside the keys; span(s), bounds lo <= d <= hi for the pairs
    whose k plus those terms sums to s, and lo alone for every pair whose
    terms sum to at least s; and dist(pm, rows), the pairs' distances."""

    mismatches: Callable[[np.ndarray], np.ndarray]
    reach: Callable[[np.ndarray], np.ndarray]
    half_width: Callable[[np.ndarray], np.ndarray]
    terms: Callable[[np.ndarray, np.ndarray], np.ndarray]
    span: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    dist: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _window_minima(keys: list[Key], x: np.ndarray, a: np.ndarray, metric: _Metric,
                   taus: np.ndarray) -> Piece | None:
    """The piece of the rows, with axis values x, against the medoids, with
    axis values a, by the windows of the module docstring, with counts on
    the thresholds taus; or None when the cost rule expects the metric's
    full scan to be cheaper.

    Seeds give every row and every medoid bounds on its distance to one
    medoid or row, and their windows then hold every pair that could reach
    or tie the upper one: a row's window runs over the medoids listed by
    pattern and axis, a medoid's over the rows sorted by pattern and axis.
    Every pair in a medoid's window is computed. A row needs an exact
    distance only when its bounds straddle a threshold: the seed's alone if
    its window holds no other medoid, else every pair of its window. The cost
    rule runs on the pattern count, on the windows of a sample of about m
    rows, on the medoids' windows plus the sample's estimate for the rows'
    before any row's window is found, and on all the windows, as if each
    were computed, before any pair in them is; the caller has already asked
    it as if there were one pattern.
    """
    n, m = len(x), len(a)
    gid, g, rep = kernels._patterns(keys, n)
    if m * g > kernels.TILE_BYTES // 8 or not _windows_pay(m + m * g, m, n):
        return None

    # k[i, p]: the key terms of medoid i and pattern p
    k = metric.mismatches(rep)

    # A row's seed is the nearest medoid on the axis among those with its
    # pattern's fewest mismatches, listed by pattern and then by the axis.
    # Only they can lie in a window below 1 on the axis, which for most rows
    # holds the seed alone: its neighbours in the list fall outside. A wider
    # window holds every medoid, the entries from len(lr) on of listed.
    fewest = k.min(0)
    floor = metric.span(fewest.astype(np.float64))[0]
    mo = np.argsort(a)
    lg, lr = np.nonzero((k[mo] == fewest).T)
    listed = np.concatenate([mo[lr], mo])
    a_listed = a[listed]
    padded = np.concatenate([[-np.inf], a_listed, [np.inf]])
    medpos = _placer(lg, lr, a[mo])
    lstarts = np.searchsorted(lg, np.arange(g + 1))
    lfirst, llast = lstarts[:-1], lstarts[1:] - 1

    def bounds(pm: np.ndarray, group: np.ndarray, rows: np.ndarray):
        """Per pair (medoid pm[i], row rows[i] of pattern group[i]), the
        metric's bounds on its distance."""
        return metric.span(k[pm, group] + metric.terms(pm, rows))

    def row_windows(rows: np.ndarray):
        """Per row, its seed and the bounds on its distance, and for the rows
        whose window may hold more than the seed, their positions in rows and
        windows [lo, hi) in listed. A neighbour of the seed across a
        pattern's end in padded is another pattern's medoid or an infinity:
        at worst it sends the row to the search."""
        group, v = gid[rows], x[rows]
        pick = _axis_nearest(a_listed, lfirst[group], llast[group], medpos(group, v, "left"), v)
        seed = listed[pick]
        d_lo, d_hi = bounds(seed, group, rows)
        t = metric.reach(d_hi) - fewest[group]
        half = metric.half_width(np.minimum(t, 1.0))
        lower, upper = v - half, v + half
        near = t < 1.0
        alone = near & (padded[pick] < lower) & (padded[pick + 2] > upper)
        far, near = np.flatnonzero(~near), np.flatnonzero(near & ~alone)
        wide = np.concatenate([near, far])
        lo = np.concatenate([medpos(group[near], lower[near], "left"), np.full(len(far), len(lr))])
        hi = np.concatenate([medpos(group[near], upper[near], "right"),
                             np.full(len(far), len(listed))])
        return seed, d_lo, d_hi, wide, lo, hi

    sample = np.arange(0, n, max(1, n // m))
    *_, lo, hi = row_windows(sample)
    guess = int((hi - lo)[hi - lo > 1].sum()) * n // len(sample)
    if not _windows_pay(m + m * g + guess, m, n):
        return None

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

    # each medoid's seed: the nearest row on the axis in each pattern of its
    # fewest mismatches; its windows then hold every row within that reach
    sm, sg = np.nonzero(k == k.min(1)[:, None])
    sp = _axis_nearest(x[order], starts[sg], starts[sg + 1] - 1,
                       rowpos(sg, a[sm], "left"), a[sm])
    seed = np.full(m, np.inf)
    np.minimum.at(seed, sm, bounds(sm, sg, order[sp])[1])
    seed = metric.reach(seed)
    wm, wg = np.nonzero(k <= seed[:, None])
    lo, hi = starts[wg], starts[wg + 1]
    t = seed[wm] - k[wm, wg]
    near = np.flatnonzero(t < 1.0)
    half = metric.half_width(t[near])
    v = a[wm[near]]
    lo[near] = rowpos(wg[near], v - half, "left")
    hi[near] = rowpos(wg[near], v + half, "right")
    del rowpos
    pairs = len(sm) + int((hi - lo).sum())
    if not _windows_pay(pairs + m * g + guess, m, n):
        return None

    # Each row's bin, the count of thresholds at or below its minimum, from
    # bounds on that minimum: the seed's when the window holds no other
    # medoid, else from the pattern's floor to the seed's upper bound. The
    # rows whose bounds straddle a threshold are kept for exact distances.
    # The rows go in pattern and axis order, whose ascending values
    # searchsorted places fastest, in batches whose dozen row arrays of
    # float64 each hold an eighth of a tile.
    bins = np.empty(n, dtype=np.intp)
    padded_taus = np.concatenate([[-np.inf], taus])
    single, single_seed = [], []
    wide, row_lo, row_len, straddles = [], [], [], []
    for first in range(0, n, kernels.TILE_BYTES // 64):
        rows = order[first : first + kernels.TILE_BYTES // 64]
        seeds, d_lo, d_hi, at, rlo, rhi = row_windows(rows)
        more = rhi - rlo > 1
        many = at[more]
        d_lo[many] = floor[gid[rows[many]]]
        # the bounds straddle a threshold when the last one at or below
        # the upper bound lies above the lower one
        at_hi = np.searchsorted(taus, d_hi, "right")
        bins[rows] = at_hi
        straddle = d_lo < padded_taus[at_hi]
        straddles.append(straddle[many])
        straddle[many] = False
        single.append(rows[straddle])
        single_seed.append(seeds[straddle])
        wide.append(rows[many])
        row_lo.append(rlo[more])
        row_len.append(rhi[more] - rlo[more])
    wide, row_lo, row_len, straddles, single, single_seed = map(
        np.concatenate, (wide, row_lo, row_len, straddles, single, single_seed))
    pairs += n + int(row_len.sum())
    if not _windows_pay(pairs - n + m * g, m, n):
        return None

    d_min = rank = np.full(m, np.inf)
    nearest = np.zeros(m, dtype=np.int64)
    for seg, pos in _ragged(lo, hi - lo):
        pm, rows = wm[seg], order[pos]
        d_min = kernels._lowest(rank, nearest, pm, metric.dist(pm, rows), rows)
    bins[single] = np.searchsorted(taus, metric.dist(single_seed, single), "right")
    wide, row_lo, row_len = wide[straddles], row_lo[straddles], row_len[straddles]
    per_row = np.full(len(wide), np.inf)
    for seg, pos in _ragged(row_lo, row_len):
        np.minimum.at(per_row, seg, metric.dist(listed[pos], wide[seg]))
    bins[wide] = np.searchsorted(taus, per_row, "right")
    counts = np.cumsum(np.bincount(bins, minlength=len(taus) + 1)[: len(taus)])
    exact = int((hi - lo).sum()) + len(single) + int(row_len.sum())
    return Piece(d_min, nearest, counts, n, exact, len(single) + len(wide), False)


def _windows_pay(pairs: int, m: int, n: int) -> bool:
    """The cost rule: windows holding pairs exact pairs pay against the m * n
    entries of the scan when eight times pairs + 4n stays below m * n. On
    36k-row blocks of 5 to 7 columns a pair, whose cells are gathered from
    both sides and whose minimum is merged, cost about six entries of the
    scan, and each row's sort, seed and window about four pairs (CHANGES.md);
    eight leaves a margin for the estimates."""
    return 8 * (pairs + 4 * n) < m * n


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


def _gower_reach(d: np.ndarray, c: int) -> np.ndarray:
    """Per Gower distance d over c columns, an X with k + t <= X for every
    pair whose distance is at most d (the module docstring)."""
    return np.maximum(d, 2.0**-1000) * c * (1.0 + 2 * (c + 2) * _U)


def _gower_half_width(t: np.ndarray, width: float) -> np.ndarray:
    """Per axis bound t < 1, a delta with |x - a| <= delta for every pair
    whose Gower axis term is at most t (the module docstring)."""
    return np.maximum(t * width * (1.0 + 8 * _U), 2.0**-1020)


def _sum_span(total: np.ndarray, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Per float sum total of non-negative terms, bounds lo <= s <= hi on
    every float sum s of the same terms when the two sums round at most
    2 * terms times between them; lo alone also holds for every s whose
    terms sum to at least total (the module docstring)."""
    w = 4 * 2 * terms * _U
    lo = np.maximum(total * (1.0 - w) - 2.0**-1000, 0.0)
    hi = np.where(total == 0.0, 0.0, total * (1.0 + w) + 2.0**-1000)
    return lo, hi


def _euclidean_reach(d: np.ndarray, dim: int) -> np.ndarray:
    """Per Euclidean distance d in dim dimensions, an X with h + t <= X for
    every pair whose distance is at most d (the module docstring)."""
    r = np.maximum(d, 2.0**-500)
    return r * r * (1.0 + 2 * (dim + 2) * _U)


def _euclidean_half_width(t: np.ndarray) -> np.ndarray:
    """Per axis bound t, a delta with |x - a| <= delta for every pair whose
    Euclidean axis term is at most t (the module docstring)."""
    return np.maximum(np.sqrt(t) * (1.0 + 4 * _U), 2.0**-500)


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
