"""Threshold grids, nearest-real profiles, ASR and coverage, summaries."""

import math

import numpy as np
import pytest

from cmla.audit import AuditConfig
from cmla.errors import ConfigError, LineageError
from cmla.metrics import (
    ThresholdGrid,
    asr_curve,
    coverage_from_minima,
    curves_from_profile,
    grid_from_spec,
    proximity_profile,
    proximity_profile_gower,
    summarize_dmin,
)

import reference
from conftest import matrix, medoid_set, mixed_table


def records_with(dmins):
    from cmla.metrics import DistanceRecord

    return [DistanceRecord(i, i, d, 0) for i, d in enumerate(dmins)]


def test_default_grid_shape_and_marks():
    g = grid_from_spec(AuditConfig.grid, AuditConfig.marks)
    assert len(g.taus) == 251
    assert g.taus[0] == 0.0
    assert g.taus[-1] == 2.5
    assert g.marks == (0.1, 0.5)
    assert g.taus[g.index_of(0.1)] == 0.1
    assert g.taus[g.index_of(0.5)] == 0.5
    steps = np.diff(g.taus)
    assert np.allclose(steps, 0.01, atol=1e-10)


def test_grid_from_spec_matches_the_default():
    # the default spec gives the 251 rounded linspace points, bit for bit
    a = grid_from_spec("0:2.5:0.01", (0.1, 0.5))
    assert np.array(a.taus).tobytes() == np.round(np.linspace(0.0, 2.5, 251), 10).tobytes()
    assert a.marks == (0.1, 0.5)
    # a step that does not divide the span exactly still lands on count+1 points
    g = grid_from_spec("0:1:0.25", marks=(0.5,))
    assert g.taus == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_grid_spec_validation():
    for bad in ("0:1", "0:1:0:2", "a:b:c", "0:1:0", "1:0:0.1",
                "nan:1:0.1", "0:inf:0.1", "0:1:nan", "-inf:0:0.1"):
        with pytest.raises(ConfigError, match="grid spec"):
            grid_from_spec(bad, ())


def test_grid_spec_point_count_is_bounded():
    assert len(grid_from_spec("0:99999:1", ()).taus) == 100_000
    for bad in ("0:100000:1", "0:1e30:1e-30", "-1e308:1e308:1", "0:1:5e-324"):
        with pytest.raises(ConfigError, match="at most 100000 points"):
            grid_from_spec(bad, ())


def test_grid_rejects_bad_threshold_arrays():
    with pytest.raises(ConfigError, match="non-empty"):
        ThresholdGrid(np.array([]))
    with pytest.raises(ConfigError, match="non-negative"):
        ThresholdGrid(np.array([-0.1, 0.5]))
    with pytest.raises(ConfigError, match="strictly increasing"):
        ThresholdGrid(np.array([0.0, 0.0, 0.1]))
    for taus in ([np.nan], [np.inf], [0.0, 0.1, np.inf], [0.0, np.nan, 0.1], [-np.inf, 0.0]):
        with pytest.raises(ConfigError, match="thresholds must be finite"):
            ThresholdGrid(np.array(taus))


def test_marks_must_land_on_grid_points():
    with pytest.raises(ConfigError, match="not on the grid"):
        ThresholdGrid(np.array([0.0, 0.1]), marks=(0.15,))
    # within 1e-12 resolves to the grid value
    g = ThresholdGrid(np.array([0.0, 0.1]), marks=(0.1 + 1e-13,))
    assert g.marks == (0.1,)


def test_asr_hand_case_and_strictness():
    recs = records_with([0.05, 0.2, 0.5])
    g = ThresholdGrid(np.array([0.0, 0.1, 0.5, 1.0]))
    asr = asr_curve(recs, g)
    # strict <: d_min = 0.5 does not count at tau = 0.5
    assert asr.tolist() == [0.0, 1 / 3, 2 / 3, 1.0]


def test_asr_is_zero_at_tau_zero_even_for_exact_copies():
    recs = records_with([0.0, 0.0])
    g = ThresholdGrid(np.array([0.0, 0.01]))
    assert asr_curve(recs, g).tolist() == [0.0, 1.0]


def test_asr_requires_records():
    with pytest.raises(ConfigError):
        asr_curve([], grid_from_spec("0:2.5:0.01", (0.1, 0.5)))


def test_coverage_hand_case():
    per_real = np.array([0.05, 0.2])
    g = ThresholdGrid(np.array([0.0, 0.1, 0.3]))
    assert coverage_from_minima(per_real, g).tolist() == [0.0, 0.5, 1.0]
    with pytest.raises(ConfigError):
        coverage_from_minima(np.array([]), g)


def test_curve_counts_are_strict_on_ties_duplicates_and_infinity(rng):
    g = ThresholdGrid(np.array([0.0, 0.1, 0.25, 0.5, 1.0, 2.0]))
    # values exactly on thresholds, repeated values, 0 and +inf
    values = [0.1, 0.1, 0.25, 0.5, 0.5, 0.5, 0.0, np.inf, 1.0, 0.3, np.inf]
    values += list(rng.choice(g.taus, 40)) + list(rng.uniform(0.0, 2.5, 40))
    want = [sum(1 for v in values if v < t) / len(values) for t in g.taus]
    assert asr_curve(records_with(values), g).tolist() == want
    assert coverage_from_minima(np.array(values), g).tolist() == want
    assert coverage_from_minima(np.array([np.inf, np.inf]), g).tolist() == [0.0] * 6
    assert asr_curve(records_with([0.5] * 3), g).tolist() == [0, 0, 0, 0, 1, 1]
    with pytest.raises(ConfigError, match="at least one record"):
        asr_curve([], g)
    with pytest.raises(ConfigError, match="at least one real row"):
        coverage_from_minima(np.array([]), g)


def test_proximity_profile_matches_the_double_loop(rng):
    meds = rng.standard_normal((7, 3))
    real = rng.standard_normal((30, 3))
    profile = proximity_profile(medoid_set(meds), [matrix(real)])
    d_min, nearest, per_real, _, _ = reference.double_loop_metrics(meds, real, [])
    assert [r.d_min for r in profile.records] == d_min
    assert [r.nearest_real_row_id for r in profile.records] == nearest
    assert profile.per_real_min.tolist() == per_real


def test_proximity_profile_checks_lineage():
    with pytest.raises(LineageError, match="different encoding models"):
        proximity_profile(medoid_set([[0.0]], model_hash="a"), [matrix([[0.0]], "b")])


def test_proximity_profile_requires_medoids():
    empty = medoid_set(np.empty((0, 1)))
    empty.medoids = []
    with pytest.raises(ConfigError, match="no medoids"):
        proximity_profile(empty, [matrix([[0.0]])])


def test_nearest_real_distance_ties_take_the_lowest_real_row():
    profile = proximity_profile(medoid_set([[0.0]]), [matrix([[1.0], [1.0], [-1.0]])])
    assert profile.records[0].nearest_real_row_id == 0
    assert profile.records[0].d_min == 1.0


def test_gower_profile_hand_case():
    table = mixed_table(numeric={"x": [0.0, 4.0]}, categorical={"c": ["u", "v"]})
    medoids = medoid_set([[0.0]])
    medoids.medoids[0] = medoids.medoids[0].__class__(
        cluster_id=0, row_id=0, vector=np.array([0.0]), raw=(1.0, "u")
    )
    profile = proximity_profile_gower(medoids, [table], {"x": (0.0, 4.0)})
    # per row: (|1-0|/4 + 0)/2 = 0.125 and (|1-4|/4 + 1)/2 = 0.875
    assert profile.records[0].d_min == 0.125
    assert profile.records[0].nearest_real_row_id == 0
    assert profile.per_real_min.tolist() == [0.125, 0.875]


def test_curves_from_profile_carries_counts(rng):
    meds = rng.standard_normal((4, 2))
    real = rng.standard_normal((11, 2))
    profile = proximity_profile(medoid_set(meds), [matrix(real)])
    curves = curves_from_profile(profile, grid_from_spec("0:2.5:0.01", (0.1, 0.5)))
    assert len(profile.records) == 4
    assert len(profile.per_real_min) == 11
    assert len(curves.asr) == 251
    assert len(curves.coverage) == 251


def test_coverage_from_the_profile_minima_matches_a_double_loop(rng):
    meds = rng.standard_normal((3, 2))
    real = rng.standard_normal((9, 2))
    profile = proximity_profile(medoid_set(meds), [matrix(real)])
    g = grid_from_spec("0:2.5:0.01", (0.1, 0.5))
    *_, cov = reference.double_loop_metrics(meds, real, g.taus)
    assert coverage_from_minima(profile.per_real_min, g).tolist() == cov


def test_summarize_dmin_hand_case():
    s = summarize_dmin([1.0, 2.0, 3.0, 4.0])
    assert s.count == 4
    assert s.min == 1.0
    assert s.max == 4.0
    assert s.mean == 2.5
    assert abs(s.median - 2.5) <= 1e-12
    assert abs(s.p10 - 1.3) <= 1e-12
    assert abs(s.p90 - 3.7) <= 1e-12


def test_summarize_dmin_is_order_free():
    a = summarize_dmin([3.0, 1.0, 2.0])
    b = summarize_dmin([1.0, 2.0, 3.0])
    assert a == b
    assert a.median == 2.0


def test_summarize_single_value():
    s = summarize_dmin([0.7])
    assert (s.min, s.median, s.max, s.p10, s.p90) == (0.7, 0.7, 0.7, 0.7, 0.7)


def test_a_percentile_between_equal_neighbours_is_their_value():
    s = summarize_dmin([math.inf] * 4)
    assert (s.min, s.mean, s.median, s.max, s.p10, s.p90) == (math.inf,) * 6
    s = summarize_dmin([0.5, math.inf, math.inf])
    assert (s.median, s.p90) == (math.inf, math.inf)
    assert s.p10 == 0.5 + 0.2 * (math.inf - 0.5)


def test_summarize_rejects_empty_input():
    with pytest.raises(ConfigError):
        summarize_dmin([])


def test_percentiles_match_the_interpolation_reference(rng):
    for _ in range(20):
        values = rng.uniform(0, 5, int(rng.integers(1, 40)))
        s = summarize_dmin(values)
        assert s.p10 == reference.percentile(values, 10.0)
        assert s.median == reference.percentile(values, 50.0)
        assert s.p90 == reference.percentile(values, 90.0)
