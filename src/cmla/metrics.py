"""Leakage metrics over medoids and the real table.

For each medoid m the nearest-real distance is d_min(m) = min over real rows x
of delta(psi(m), psi(x)), brute force over all real rows, ties to the lowest
real row id. The attack success rate at threshold tau is the fraction of
medoids with d_min strictly below tau; coverage at tau is the fraction of real
rows strictly within tau of at least one medoid. Both inequalities are strict,
so both curves are exactly zero at tau = 0.

The real rows come as a stream of blocks. Each block is reduced as it
arrives, by kernels.cross_min_distances on its encoding or by gower_to_table
on its raw rows, and one loop merges the blocks' minima in row order. So the
real side's memory is bounded per block, and the profile is the one a whole
table gives, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .clustering import MedoidSet
from .encoding import EncodedMatrix, gower_to_table
from .errors import ConfigError, LineageError
from .tables import DataTable

MARK_RESOLUTION = 1e-12


@dataclass(frozen=True)
class DistanceRecord:
    cluster_id: int
    medoid_row_id: int
    d_min: float
    nearest_real_row_id: int


@dataclass(eq=False)
class ProximityProfile:
    """Per-medoid nearest-real records plus the cached per-real-row minimum
    over medoids, computed in the same pass."""

    records: list[DistanceRecord]
    per_real_min: np.ndarray


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


def _profile(medoids: MedoidSet, pieces: Iterable[Minima]) -> ProximityProfile:
    """The profile over pieces that cover the real rows in order.

    A medoid takes a later piece's row only when it is strictly nearer, with
    NaN nearest of all as in np.argmin, so ties keep the lowest row id; row
    ids count over all pieces. pieces is consumed only when there are medoids.
    """
    if len(medoids) == 0:
        raise ConfigError("no medoids to evaluate")
    d_min = np.full(len(medoids), np.inf)
    nearest = np.zeros(len(medoids), dtype=np.int64)
    rank = np.full(len(medoids), np.inf)
    per_real = []
    offset = 0
    for a_min, a_arg, b_min in pieces:
        key = np.where(np.isnan(a_min), -np.inf, a_min)
        better = key < rank
        rank[better], d_min[better] = key[better], a_min[better]
        nearest[better] = offset + a_arg[better]
        per_real.append(b_min)
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
    return ProximityProfile(records=records, per_real_min=np.concatenate(per_real))


def proximity_profile(medoids: MedoidSet, real: Iterable[EncodedMatrix]) -> ProximityProfile:
    """Brute-force nearest-real distances for every medoid, with the per-real
    minimum cached for the coverage sweep. real is the consecutive row chunks
    of one matrix, each reduced by kernels.cross_min_distances."""

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

    return _profile(medoids, pieces())


def proximity_profile_gower(
    medoids: MedoidSet,
    real: Iterable[DataTable],
    ranges: dict[str, tuple[float, float]],
) -> ProximityProfile:
    """Gower variant: distances on raw rows with model-fitted numeric ranges.
    real is the consecutive blocks of one table, each reduced by
    gower_to_table per medoid."""

    def pieces():
        for block in real:
            d_min = np.empty(len(medoids), dtype=np.float64)
            nearest = np.empty(len(medoids), dtype=np.int64)
            per_real = np.full(block.n_rows, np.inf, dtype=np.float64)
            scratch = np.empty((2, block.n_rows), dtype=np.float64)
            for i, m in enumerate(medoids.medoids):
                d = gower_to_table(m.raw, block, ranges, scratch)
                d_min[i] = d.min()
                nearest[i] = np.argmin(d)
                np.minimum(per_real, d, out=per_real)
            yield d_min, nearest, per_real

    return _profile(medoids, pieces())


def asr_curve(records: Sequence[DistanceRecord], grid: ThresholdGrid) -> np.ndarray:
    """Fraction of medoids with d_min strictly below each grid threshold."""
    if not records:
        raise ConfigError("asr curve needs at least one record")
    dmin = np.array([r.d_min for r in records], dtype=np.float64)
    return _count_below(dmin, grid) / len(records)


def coverage_from_minima(per_real_min: np.ndarray, grid: ThresholdGrid) -> np.ndarray:
    """Fraction of real rows strictly within each threshold of some medoid,
    from each real row's minimum distance over the medoids."""
    if len(per_real_min) == 0:
        raise ConfigError("coverage needs at least one real row")
    return _count_below(per_real_min, grid) / len(per_real_min)


def _count_below(values: np.ndarray, grid: ThresholdGrid) -> np.ndarray:
    """Per threshold, how many values lie strictly below it, in O(N) memory:
    a left insertion point in sorted order counts exactly the smaller values
    (NaN sorts last and never counts, as with <)."""
    return np.searchsorted(np.sort(values), grid.taus, side="left")


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


def curves_from_profile(
    profile: ProximityProfile, grid: ThresholdGrid
) -> MetricCurves:
    return MetricCurves(
        asr=asr_curve(profile.records, grid).tolist(),
        coverage=coverage_from_minima(profile.per_real_min, grid).tolist(),
    )
