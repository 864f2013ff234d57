"""Betweenness, segment distances, instability searches, growth rates,
and the distortion-transfer inequality."""

import math

import numpy as np
import pytest

from teichlen import (
    UHPoint,
    ValidationError,
    distortion_transfer_check,
    euclidean_instability_exact,
    euclidean_space,
    growth_rate_estimate,
    hyp_product_space,
    instability_lower_bound,
    is_delta_between,
    segment_distance,
    sup_product_space,
)


class TestIsDeltaBetween:
    def test_collinear_euclidean(self):
        space = euclidean_space(1)
        ok, slack = is_delta_between(space, [0.0], [2.0], [1.0], 0.01)
        assert ok
        assert slack == pytest.approx(0.0, abs=1e-12)

    def test_sup_metric_corner(self):
        space = sup_product_space(2)
        ok, slack = is_delta_between(space, [0, 0], [10, 0], [5, 5], 0.01)
        assert ok
        assert slack == 0.0

    def test_euclidean_detour(self):
        space = euclidean_space(2)
        ok, slack = is_delta_between(space, [0, 0], [10, 0], [5, 5], 0.01)
        assert not ok
        assert slack == pytest.approx(2 * math.sqrt(50) - 10, abs=1e-12)


class TestSegmentDistance:
    def test_point_on_segment(self):
        space = euclidean_space(2)
        assert segment_distance(space, [0, 0], [2, 0], [1, 0]) <= 1e-6

    def test_sup_metric_half_offset(self):
        space = sup_product_space(2)
        value = segment_distance(space, [0, 0], [10, 0], [5, 5])
        assert value == pytest.approx(5.0, abs=1e-9)

    def test_perpendicular_foot(self):
        space = euclidean_space(2)
        value = segment_distance(space, [0, 0], [2, 0], [1, 0.37])
        assert value == pytest.approx(0.37, abs=1e-6)

    def test_degenerate_segment(self):
        space = euclidean_space(2)
        assert segment_distance(space, [1, 1], [1, 1], [4, 5]) == pytest.approx(
            space.distance([1, 1], [4, 5])
        )

    def test_hyp_product_segment(self):
        space = hyp_product_space(2)
        x = (UHPoint(0, 1), UHPoint(0, 1))
        y = (UHPoint(0, math.e ** 4), UHPoint(0, 1))
        z = (UHPoint(0, math.e ** 2), UHPoint(0, math.e))
        # the factor-0 geodesic passes through z's factor-0 coordinate
        assert segment_distance(space, x, y, z) == pytest.approx(0.5, abs=1e-6)


class TestEuclideanInstabilityExact:
    def test_zero_delta(self):
        assert euclidean_instability_exact(0.0, 7.0) == 0.0

    def test_value(self):
        assert euclidean_instability_exact(0.02, 1.0) == pytest.approx(
            math.sqrt(0.04 + 0.0004) / 2, abs=1e-15
        )

    def test_homogeneity(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            delta, L, c = rng.uniform(0.01, 2), rng.uniform(0.5, 20), rng.uniform(0.1, 5)
            assert euclidean_instability_exact(c * delta, c * L) == pytest.approx(
                c * euclidean_instability_exact(delta, L), rel=1e-12
            )


class TestInstabilityLowerBound:
    def test_sup_product_reaches_half_length(self):
        space = sup_product_space(2)
        for L in (1.0, 10.0, 100.0):
            value, witness = instability_lower_bound(space, 0.0, L, budget=100)
            assert value >= L / 2 - 1e-9
            assert witness is not None
            assert witness.delta_slack <= 1e-12

    @pytest.mark.parametrize("delta, L", [
        (math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf), (-0.1, 1.0), (0.0, 0.0),
    ])
    def test_invalid_inputs_rejected(self, delta, L):
        with pytest.raises(ValidationError):
            instability_lower_bound(euclidean_space(2), delta, L, budget=5)

    def test_euclidean_tracks_closed_form(self):
        space = euclidean_space(2)
        for delta, L in ((0.02, 1.0), (0.2, 10.0)):
            exact = euclidean_instability_exact(delta, L)
            value, _ = instability_lower_bound(space, delta, L, budget=200)
            assert value <= exact + 1e-6
            assert value >= 0.95 * exact

    def test_unique_geodesics_give_zero_at_zero_delta(self):
        space = euclidean_space(2)
        # structured witnesses vanish at delta = 0; random candidates with
        # slack <= atol lie on the segment
        value, _ = instability_lower_bound(space, 0.0, 5.0, budget=300)
        assert value <= 1e-6

    def test_never_exceeds_euclidean_exact(self):
        space = euclidean_space(3)
        rng = np.random.default_rng(62)
        for _ in range(5):
            delta, L = float(rng.uniform(0.01, 1)), float(rng.uniform(1, 20))
            value, _ = instability_lower_bound(space, delta, L, budget=300)
            assert value <= euclidean_instability_exact(delta, L) + 1e-6

    def test_sup_witness_family_offsets_exact(self):
        # witnesses z = (L/2, h) stay 0-between with offline distance h
        space = sup_product_space(2)
        L = 8.0
        for h in np.linspace(0.5, L / 2, 9):
            ok, slack = is_delta_between(space, [0, 0], [L, 0], [L / 2, h], 1e-9)
            assert ok or slack == 0.0
            assert segment_distance(space, [0, 0], [L, 0], [L / 2, h]) == pytest.approx(
                h, abs=1e-9
            )


class TestGrowthRateEstimate:
    LADDER = [1.0, 10.0, 100.0, 1000.0, 10000.0]

    def test_synthetic_sqrt_data(self):
        fit = growth_rate_estimate(None, 0.0, self.LADDER,
                                   s_values=[math.sqrt(L) for L in self.LADDER])
        assert fit.slope == pytest.approx(0.5, abs=1e-6)
        assert fit.residual < 1e-12

    def test_sup_product_slope_one(self):
        fit = growth_rate_estimate(sup_product_space(2), 0.0, self.LADDER, budget=60)
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_euclidean_exact_slope_half(self):
        ladder = [10.0, 100.0, 1000.0, 10000.0, 100000.0]
        fit = growth_rate_estimate(
            None, 0.5, ladder,
            s_values=[euclidean_instability_exact(0.5, L) for L in ladder],
        )
        assert fit.slope == pytest.approx(0.5, abs=0.05)

    def test_constant_data_slope_zero(self):
        fit = growth_rate_estimate(None, 0.0, self.LADDER, s_values=[3.0] * 5)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_short_ladder_rejected(self):
        with pytest.raises(ValidationError):
            growth_rate_estimate(None, 0.0, [1.0, 10.0], s_values=[1.0, 2.0])
        with pytest.raises(ValidationError):
            growth_rate_estimate(None, 0.0, [1, 2, 4, 8, 16], s_values=[1] * 5)

    @pytest.mark.parametrize("delta, ladder", [
        (math.nan, [1.0, 10.0, 100.0, 1000.0, 10000.0]),
        (math.inf, [1.0, 10.0, 100.0, 1000.0, 10000.0]),
        (0.0, [1.0, 10.0, 100.0, 1000.0, math.inf]),
        (0.0, [1.0, 10.0, math.nan, 1000.0, 10000.0]),
    ])
    def test_non_finite_inputs_rejected(self, delta, ladder):
        with pytest.raises(ValidationError):
            growth_rate_estimate(None, delta, ladder, s_values=[1.0] * 5)
        with pytest.raises(ValidationError):
            growth_rate_estimate(euclidean_space(2), delta, ladder, budget=5)

    def test_zero_points_excluded_with_warning(self):
        with pytest.warns(UserWarning):
            fit = growth_rate_estimate(
                None, 0.0, self.LADDER, s_values=[0.0, 10.0, 100.0, 1000.0, 10000.0]
            )
        assert fit.slope == pytest.approx(1.0, abs=1e-9)
        assert len(fit.points) == 4


class TestDistortionTransferCheck:
    GRID = [(0.1, 1.0), (0.1, 10.0), (0.5, 10.0)]

    def test_identity_map_holds(self):
        table = {key: euclidean_instability_exact(*key) for key in self.GRID}
        report = distortion_transfer_check(table, table, 0.0)
        assert report.ok

    def test_shifted_grid_holds(self):
        c = 0.05
        s_x = {key: euclidean_instability_exact(*key) for key in self.GRID}
        s_y = {
            (d + 3 * c, L + c): euclidean_instability_exact(d + 3 * c, L + c)
            for d, L in self.GRID
        }
        assert distortion_transfer_check(s_x, s_y, c).ok

    def test_corrupted_left_side_flagged(self):
        table = {key: euclidean_instability_exact(*key) for key in self.GRID}
        corrupted = {key: 10 * value for key, value in table.items()}
        report = distortion_transfer_check(corrupted, table, 0.0)
        assert not report.ok
        assert any(not row.holds for row in report.rows)

    def test_missing_shifted_argument_rejected(self):
        table = {key: 1.0 for key in self.GRID}
        with pytest.raises(ValidationError):
            distortion_transfer_check(table, table, 0.25)


class TestSpaceHandles:
    def test_distance_axioms_spot_check(self):
        rng = np.random.default_rng(63)
        for space in (euclidean_space(3), sup_product_space(3), hyp_product_space(2)):
            for _ in range(25):
                x, y, z = space.random_triple(rng, 0.5, 4.0)
                assert space.distance(x, y) >= 0
                assert space.distance(x, x) == 0.0
                assert space.distance(x, y) == pytest.approx(
                    space.distance(y, x), rel=1e-12
                )
                assert space.distance(x, y) <= (
                    space.distance(x, z) + space.distance(z, y) + 1e-9
                )

    def test_segments_join_endpoints(self):
        rng = np.random.default_rng(64)
        for space in (euclidean_space(2), sup_product_space(2), hyp_product_space(2)):
            x, y, _ = space.random_triple(rng, 0.1, 3.0)
            path = space.segment(x, y)
            assert space.distance(path(0.0), x) <= 1e-9
            assert space.distance(path(1.0), y) <= 1e-7
