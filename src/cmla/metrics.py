"""Leakage metrics over medoids and the real table.

For each medoid m the nearest-real distance is d_min(m) = min over real rows x
of delta(psi(m), psi(x)), brute force over all real rows, ties to the lowest
real row id. The attack success rate at threshold tau is the fraction of
medoids with d_min strictly below tau; coverage at tau is the fraction of real
rows strictly within tau of at least one medoid. Both inequalities are strict,
so both curves are exactly zero at tau = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


class ThresholdGrid:
    """Strictly increasing, non-negative thresholds plus marked references.

    Marks must land on grid points (within 1e-12); they are stored resolved to
    the exact grid values so reference readouts equal curve values exactly.
    """

    def __init__(self, taus: np.ndarray, marks: Sequence[float] = ()) -> None:
        taus = np.asarray(taus, dtype=np.float64)
        if taus.ndim != 1 or len(taus) == 0:
            raise ConfigError("threshold grid must be a non-empty 1-d array")
        if taus[0] < 0.0:
            raise ConfigError("thresholds must be non-negative")
        if len(taus) > 1 and not np.all(np.diff(taus) > 0.0):
            raise ConfigError("thresholds must be strictly increasing")
        self.taus = taus
        self.marks = tuple(float(taus[_locate(taus, m)]) for m in marks)

    def index_of(self, tau: float) -> int:
        return _locate(self.taus, tau)

    def __len__(self) -> int:
        return len(self.taus)


def _locate(taus: np.ndarray, tau: float) -> int:
    i = int(np.argmin(np.abs(taus - tau)))
    if abs(float(taus[i]) - tau) <= MARK_RESOLUTION:
        return i
    raise ConfigError(f"threshold {tau!r} is not on the grid")


def default_grid(marks: Sequence[float] = (0.1, 0.5)) -> ThresholdGrid:
    """tau from 0.00 to 2.50 in steps of 0.01 (251 points)."""
    taus = np.round(np.linspace(0.0, 2.5, 251), 10)
    return ThresholdGrid(taus, marks)


def grid_from_spec(spec: str, marks: Sequence[float] = (0.1, 0.5)) -> ThresholdGrid:
    """Parse a start:stop:step grid description."""
    pieces = spec.split(":")
    if len(pieces) != 3:
        raise ConfigError(f"grid spec must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in pieces)
    except ValueError:
        raise ConfigError(f"grid spec must be numeric, got {spec!r}") from None
    if step <= 0.0 or stop < start:
        raise ConfigError(f"grid spec must have step > 0 and stop >= start, got {spec!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    taus = np.round(start + step * np.arange(count), 10)
    return ThresholdGrid(taus, marks)


def _profile(medoids: MedoidSet, minima) -> ProximityProfile:
    """Profile from minima() -> (d_min per medoid, its nearest real row, the
    per-real-row minimum over medoids), called only when there are medoids."""
    if len(medoids) == 0:
        raise ConfigError("no medoids to evaluate")
    d_min, nearest, per_real_min = minima()
    records = [
        DistanceRecord(
            cluster_id=m.cluster_id,
            medoid_row_id=m.row_id,
            d_min=float(d_min[i]),
            nearest_real_row_id=int(nearest[i]),
        )
        for i, m in enumerate(medoids.medoids)
    ]
    return ProximityProfile(records=records, per_real_min=per_real_min)


def proximity_profile(medoids: MedoidSet, real: EncodedMatrix) -> ProximityProfile:
    """Brute-force nearest-real distances for every medoid, with the per-real
    minimum cached for the coverage sweep."""
    if medoids.model_hash != real.model_hash:
        raise LineageError("medoids and real matrix come from different encoding models")
    return _profile(
        medoids, lambda: kernels.cross_min_distances(medoids.vectors(), real.vectors)
    )


def proximity_profile_gower(
    medoids: MedoidSet,
    real_table: DataTable,
    ranges: dict[str, tuple[float, float]],
) -> ProximityProfile:
    """Gower variant: distances on raw rows with model-fitted numeric ranges."""

    def minima():
        d_min = np.empty(len(medoids), dtype=np.float64)
        nearest = np.empty(len(medoids), dtype=np.int64)
        per_real = np.full(real_table.n_rows, np.inf, dtype=np.float64)
        for i, m in enumerate(medoids.medoids):
            d = gower_to_table(m.raw, real_table, ranges)
            d_min[i] = d.min()
            nearest[i] = np.argmin(d)
            np.minimum(per_real, d, out=per_real)
        return d_min, nearest, per_real

    return _profile(medoids, minima)


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
    """Linear interpolation at rank h = (n - 1) * p / 100 on sorted values."""
    n = len(sorted_values)
    h = (n - 1) * (p / 100.0)
    f = math.floor(h)
    frac = h - f
    lo = float(sorted_values[f])
    if frac == 0.0 or f + 1 >= n:
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


@dataclass(eq=False)
class MetricCurves:
    taus: np.ndarray
    asr: np.ndarray
    coverage: np.ndarray


def curves_from_profile(
    profile: ProximityProfile, grid: ThresholdGrid
) -> MetricCurves:
    return MetricCurves(
        taus=grid.taus.copy(),
        asr=asr_curve(profile.records, grid),
        coverage=coverage_from_minima(profile.per_real_min, grid),
    )
