"""Betweenness, segment distances, instability searches, growth rates,
and the distortion-transfer inequality."""

import dataclasses
import functools
import itertools
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teichlen
from teichlen import (
    MetricSpaceHandle,
    UHPoint,
    ValidationError,
    distortion_transfer_check,
    euclidean_instability_exact,
    euclidean_space,
    geodesic_point,
    growth_rate_estimate,
    hyp_distance,
    hyp_product_space,
    instability_lower_bound,
    pi_image_space,
    segment_distance,
    sup_product_space,
)
from teichlen.instability import _floors, _lengths_and_slacks, _segment_distances


def triangle_slack(space, x, y, z):
    """d(x, z) + d(z, y) - d(x, y), from the space's own distance; z is
    delta-between x and y when this is below delta."""
    return space.distance(x, z) + space.distance(z, y) - space.distance(x, y)


class TestIsDeltaBetween:
    def test_collinear_euclidean(self):
        space = euclidean_space(1)
        assert triangle_slack(space, [0.0], [2.0], [1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_sup_metric_corner(self):
        space = sup_product_space(2)
        assert triangle_slack(space, [0, 0], [10, 0], [5, 5]) == 0.0

    def test_euclidean_detour(self):
        space = euclidean_space(2)
        slack = triangle_slack(space, [0, 0], [10, 0], [5, 5])
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
            assert triangle_slack(space, [0, 0], [L, 0], [L / 2, h]) < 1e-9
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
        # the excluded rung is absent from fit.points, the one report of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = growth_rate_estimate(
                None, 0.0, self.LADDER, s_values=[0.0, 10.0, 100.0, 1000.0, 10000.0]
            )
        assert fit.slope == pytest.approx(1.0, abs=1e-9)
        assert [L for L, _ in fit.points] == self.LADDER[1:]


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
        rng = random.Random(63)
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
        rng = random.Random(64)
        for space in (euclidean_space(2), sup_product_space(2), hyp_product_space(2)):
            x, y, _ = space.random_triple(rng, 0.1, 3.0)
            assert space.segment_distances([(x, y, x)], np.zeros((1, 1)))[0, 0] <= 1e-9
            assert space.segment_distances([(x, y, y)], np.ones((1, 1)))[0, 0] <= 1e-7


def factor_max(p, q):
    """Sup over factors of half-plane distances, one scalar call per factor."""
    return max(hyp_distance(a, b) for a, b in zip(p, q, strict=True))


METRICS = {
    "euclidean:3": (lambda genus2: euclidean_space(3), math.dist),
    "euclidean:9": (lambda genus2: euclidean_space(9), math.dist),
    "supprod:3": (lambda genus2: sup_product_space(3),
                  lambda p, q: max(abs(a - b) for a, b in zip(p, q, strict=True))),
    "hyp-product:2": (lambda genus2: hyp_product_space(2), factor_max),
    "hyp-product:3": (lambda genus2: hyp_product_space(3), factor_max),
    "pi-image": (lambda genus2: pi_image_space(genus2), factor_max),
}


class TestKernelMetric:
    @pytest.mark.parametrize("name", METRICS)
    def test_distance_matches_independent_formula(self, genus2, name):
        build, reference = METRICS[name]
        space = build(genus2)
        rng = random.Random(91)
        for L in (0.1, 1.0, 10.0, 100.0):
            for _ in range(30):
                x, y, z = space.random_triple(rng, 0.5, L)
                for p, q in ((x, y), (x, z), (z, y), (y, x)):
                    expected = reference(p, q)
                    assert abs(space.distance(p, q) - expected) <= 1e-15 * expected
                assert space.distance(x, x) == 0.0

    def test_a_kernel_alone_drives_every_entry_point(self):
        # the real line, with a kernel written here rather than borrowed
        def segment_distances(triples, ts):
            return np.array([[abs(z - (x + t * (y - x))) for t in row]
                             for (x, y, z), row in zip(triples, ts)])

        space = MetricSpaceHandle("line", segment_distances)
        assert space.distance(2.0, 5.0) == 3.0
        assert segment_distance(space, 0.0, 4.0, 6.0) == 2.0
        assert segment_distance(space, 1.0, 1.0, 4.0) == 3.0
        lengths, slacks = _lengths_and_slacks(space, [(0.0, 4.0, 1.0), (0.0, 4.0, 5.0)])
        assert (lengths.tolist(), slacks.tolist()) == ([4.0, 4.0], [0.0, 2.0])
        assert instability_lower_bound(space, 0.1, 4.0, budget=5) == (0.0, None)


class TestMalformedPoints:
    P, Q, R = UHPoint(0.0, 1.0), UHPoint(1.0, 2.0), UHPoint(-2.0, 0.5)

    def test_product_distance_needs_every_factor(self):
        with pytest.raises(ValidationError):
            hyp_product_space(2).distance((self.P,), (self.Q, self.R))

    def test_kernel_rejects_a_wrong_factor_count(self):
        space = hyp_product_space(2)
        x, y = (self.P, self.Q), (self.Q, self.R)
        ts = np.zeros((1, 2))
        for triple in ((x, y, (self.R,)), (x, y, (self.P, self.Q, self.R)),
                       ((self.P, self.Q, self.R),) * 3):
            with pytest.raises(ValidationError):
                space.segment_distances([triple], ts)
        with pytest.raises(ValidationError):
            segment_distance(space, x, y, (self.R,))
        with pytest.raises(ValidationError):
            euclidean_space(3).distance(np.zeros(2), np.ones(2))


def scalar_path(x, y):
    """The chosen geodesic from x to y, one point at a time."""
    if isinstance(x, tuple):
        return lambda t: tuple(geodesic_point(p, q, t) for p, q in zip(x, y))
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return lambda t: x + t * (y - x)


def ternary_segment_distance(space, x, y, z, resolution=1e-13):
    """Reference refinement on the scalar kernels: 65 samples, then ternary search."""
    if space.distance(x, y) == 0.0:
        return space.distance(z, x)
    path = scalar_path(x, y)

    def objective(t):
        return space.distance(z, path(t))

    ts = np.linspace(0.0, 1.0, 65)
    values = [objective(t) for t in ts]
    k = int(np.argmin(values))
    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, len(ts) - 1)]
    while hi - lo > resolution:
        m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if objective(m1) <= objective(m2):
            hi = m2
        else:
            lo = m1
    return min(values[k], objective(0.5 * (lo + hi)))


def nearly_vertical(p, q):
    """q with every half-plane factor moved to 1e-9 (relative) right of p's."""
    return tuple(UHPoint(a.x + 1e-9 * a.y, b.y) for a, b in zip(p, q))


def accepted_candidates(space, delta, L, budget, seed=0):
    """The candidates a search draws that pass its filters, one scalar check each."""
    candidates = list(itertools.islice(space.witnesses(delta, L), budget)
                      if space.witnesses else [])
    rng = random.Random(seed)
    while space.random_triple is not None and len(candidates) < budget:
        candidates.append(space.random_triple(rng, delta, L))
    accepted = []
    for x, y, z in candidates:
        length = space.distance(x, y)
        if length > L * (1.0 + 1e-12):
            continue
        slack = space.distance(x, z) + space.distance(z, y) - length
        if slack < delta or slack <= 1e-12:
            accepted.append((x, y, z))
    return accepted


def sequential_search(space, delta, L, budget, seed=0):
    """Reference search: one refinement per accepted candidate, kept if larger.

    Each refinement zooms its one row to the end.  A refined distance
    counts only above its sampling error, the final bracket width times
    d(x, y).
    """
    best, best_triple = 0.0, None
    for x, y, z in accepted_candidates(space, delta, L, budget, seed):
        length = space.distance(x, y)
        (value,), (width,) = _segment_distances(space, [(x, y, z)], np.full(1, length))
        if value > width * length and value > best:
            best, best_triple = float(value), (x, y, z)
    return best, best_triple


def same_point(p, q):
    return np.array_equal(p, q) if isinstance(p, np.ndarray) else p == q


SPACES = {
    "euclidean:3": lambda genus2: euclidean_space(3),
    "supprod:2": lambda genus2: sup_product_space(2),
    "hyp-product:2": lambda genus2: hyp_product_space(2),
    "pi-image": lambda genus2: pi_image_space(genus2, gamma=("g1", "g2")),
}


class TestZoomRefinement:
    @pytest.mark.parametrize("name", SPACES)
    def test_matches_ternary_reference(self, genus2, name):
        # never below the reference minimum (up to rounding), and above it
        # by at most the resolution times the speed d(x, y) of the path
        space = SPACES[name](genus2)
        rng = random.Random(81)
        triples = [space.random_triple(rng, 0.5, 4.0) for _ in range(10)]
        triples += [(x, y, triples[k - 1][2]) for k, (x, y, _) in enumerate(triples)]
        if not isinstance(triples[0][0], np.ndarray):
            triples += [(x, nearly_vertical(x, y), z) for x, y, z in triples]
        for x, y, z in triples:
            value = segment_distance(space, x, y, z)
            reference = ternary_segment_distance(space, x, y, z)
            assert reference - 1e-12 <= value <= reference + 1e-6 * space.distance(x, y)
        for x, _, z in triples[:3]:
            assert segment_distance(space, x, x, z) == space.distance(z, x)

    @pytest.mark.parametrize("name", SPACES)
    @pytest.mark.parametrize("delta, L, budget", [
        pytest.param(delta, L, 60, id=f"{delta}-{L}")
        for delta, L in ((0.0, 1.0), (0.0, 10.0), (0.1, 10.0), (0.1, 100.0), (0.1, 1000.0),
                         (0.0, 10000.0))
    ] + [(0.0, 1.0, 200), (0.1, 100.0, 200), (0.0, 10000.0, 200)])
    def test_batched_search_matches_sequential_loop(self, genus2, name, delta, L, budget):
        # the search zooms only the rows that can still win; the oracle zooms every one
        space = SPACES[name](genus2)
        value, witness = instability_lower_bound(space, delta, L, budget=budget, seed=4)
        expected, triple = sequential_search(space, delta, L, budget=budget, seed=4)
        assert value == expected
        if witness is None:  # euclidean:3 at delta 0, whose exact value is 0
            assert value == 0.0 and triple is None
            return
        assert value == witness.offline_distance
        assert all(same_point(p, q) for p, q in zip((witness.x, witness.y, witness.z), triple))

    def test_later_rounds_zoom_only_rows_that_can_still_win(self):
        space = hyp_product_space(2)
        rows = []

        def kernel(triples, ts):
            rows.append(len(triples))
            return space.segment_distances(triples, ts)

        counted = dataclasses.replace(space, segment_distances=kernel)
        instability_lower_bound(counted, 0.0, 1.0, budget=60, seed=4)
        accepted = len(accepted_candidates(space, 0.0, 1.0, budget=60, seed=4))
        assert len(rows) == 5  # the filter call and 4 zoom rounds
        assert rows[1] == accepted
        assert all(n < accepted for n in rows[2:])

    def test_ties_go_to_the_first_candidate(self):
        x, y = np.zeros(2), np.array([8.0, 0.0])
        candidates = [(x, y, np.array([4.0, 2.0])), (x, y, np.array([4.0, 4.0])),
                      (x, y, np.array([4.0, 4.0])), (x, y, np.array([4.0, 1.0]))]
        space = dataclasses.replace(sup_product_space(2), random_triple=None,
                                    witnesses=lambda delta, L: iter(candidates))
        value, witness = instability_lower_bound(space, 0.0, 8.0, budget=10)
        assert value == sequential_search(space, 0.0, 8.0, budget=10)[0] == 4.0
        assert witness.z is candidates[1][2]

    def test_no_positive_candidate_gives_no_witness(self):
        # one candidate too long for L = 1, one with z on its segment
        x = np.zeros(2)
        candidates = [(x, np.array([5.0, 0.0]), np.array([2.5, 1.0])),
                      (x, np.array([1.0, 0.0]), np.array([0.5, 0.0]))]
        space = dataclasses.replace(sup_product_space(2), random_triple=None,
                                    witnesses=lambda delta, L: iter(candidates))
        assert instability_lower_bound(space, 0.0, 1.0, budget=10) == (0.0, None)
        with pytest.raises(ValidationError):
            instability_lower_bound(space, 0.0, 1.0, budget=0)

    def test_no_candidate_within_the_filters_gives_no_witness(self):
        # the only candidate is longer than L = 1
        candidate = (np.zeros(2), np.array([5.0, 0.0]), np.array([2.5, 1.0]))
        space = dataclasses.replace(sup_product_space(2), random_triple=None,
                                    witnesses=lambda delta, L: iter([candidate]))
        assert instability_lower_bound(space, 0.0, 1.0, budget=10) == (0.0, None)

    def test_sample_off_the_half_plane_raises(self):
        # heights 1e-300 and 1e300: the geodesic circle's centre overflows
        space = hyp_product_space(1)
        x, y = (UHPoint(0.0, 1e-300),), (UHPoint(1.0, 1e300),)
        with pytest.raises(ValidationError):
            segment_distance(space, x, y, (UHPoint(0.0, 1.0),))

    def test_an_accepted_row_off_the_half_plane_raises(self):
        # the triple above as the only candidate: at delta = L = 1000 the
        # filters accept it, and its first zoom round leaves the half-plane
        triple = (UHPoint(0.0, 1e-300),), (UHPoint(1.0, 1e300),), (UHPoint(0.0, 1.0),)
        space = dataclasses.replace(hyp_product_space(1), random_triple=None,
                                    witnesses=lambda delta, L: iter([triple]))
        assert accepted_candidates(space, 1000.0, 1000.0, budget=1) == [triple]
        with pytest.raises(ValidationError):
            instability_lower_bound(space, 1000.0, 1000.0, budget=1)


GRID = np.linspace(0.0, 1.0, 65)  # one zoom round's samples, on its bracket
FINE = np.linspace(0.0, 1.0, 64 * 64 + 1)


def factor_profile(factors, ts):
    """max over factors (h, s, c) of acosh(cosh h cosh(s (t - c))) / 2.

    The shape of a half-plane product's distance along a path: factor
    by factor, the path passes closest at t = c, at distance h / 2, with
    speed s / 2.  Computed as asinh(sqrt(sinh(h/2)^2 cosh x +
    sinh(x/2)^2)) at x = s (t - c), which keeps its digits near 0.
    """
    return functools.reduce(np.maximum, (
        np.arcsinh(np.sqrt(np.sinh(h / 2) ** 2 * np.cosh(s * (ts - c))
                           + np.sinh(s * (ts - c) / 2) ** 2))
        for h, s, c in factors))


def floor_and_next_bracket(f):
    """The floor of samples f on GRID and the bracket the next round samples."""
    k = int(f.argmin())
    return _floors(f[None], np.array([k]))[0], k, (GRID[max(k - 1, 0)], GRID[min(k + 1, 64)])


# closest points inside the path, before it (argmin at t = 0) and after it (t = 1)
CENTRES = {"inside": (0.05, 0.95, range(1, 64)), "start": (-2.0, 0.0, [0]),
           "end": (1.0, 3.0, [64])}


class TestFloors:
    @pytest.mark.parametrize("where", CENTRES)
    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(data=st.data())
    def test_floor_stays_below_the_next_bracket(self, where, data):
        lo, hi, argmins = CENTRES[where]
        factors = data.draw(st.lists(
            st.tuples(st.floats(0.0, 3.0), st.floats(0.1, 30.0), st.floats(lo, hi)),
            min_size=1, max_size=3))
        floor, k, (start, end) = floor_and_next_bracket(factor_profile(factors, GRID))
        assert k in argmins
        inside = FINE[(FINE >= start) & (FINE <= end)]
        assert floor <= factor_profile(factors, inside).min()

    def test_edge_form_that_clips_the_neighbours_is_no_bound(self):
        # a V with its minimum 0 at 0.4 / 64: the best sample is t_0, and
        # 2 f_0 - f_1 = 0.2 / 64 lies above it, where 2 f_1 - max(f_0, f_2) does not
        f = factor_profile([(0.0, 2.0, 0.4 / 64)], GRID)
        floor, k, _ = floor_and_next_bracket(f)
        assert k == 0
        assert 2.0 * f[0] - f[1] == pytest.approx(0.2 / 64)
        assert floor <= 0.0


# float.hex of instability_lower_bound(space, delta, L, budget=200, seed=3) for
# delta in (0, 0.05) and L in (0.5, 3, 50), pinned bit for bit; dim 1 has
# random candidates only.  An entry of 0 means every candidate passing the
# filters has its z within the zoom's sampling error of its path: at delta 0
# in Euclidean space and in dimension 1, where the exact value is 0, and for
# supprod-1 at delta 0.05 and L = 50, whose delta-between random z all lie on
# their segments.  The half-plane rows are hyp-product:2 and pi-image of
# genus 2 pinched along g1 and g2, which share one handle and so their bits
ZERO = "0x0.0p+0"
HALF_PLANE_BITS = ["0x1.0000000000001p-2", "0x1.8000000000000p+0", "0x1.9000000000000p+4",
                   "0x1.1544877baaedep-2", "0x1.8322655988cbdp+0", "0x1.870973ca6fda4p+4"]
PINNED = {
    ("euclidean", 1): [ZERO, ZERO, ZERO,
                       "0x1.8540507a2b796p-6", "0x1.8a25af676ca20p-6", "0x1.acd8545928000p-8"],
    ("euclidean", 2): [ZERO, ZERO, ZERO,
                       "0x1.d54178e0a39d4p-4", "0x1.19999994e0233p-2", "0x1.1e49ca7e86a86p+0"],
    ("euclidean", 3): [ZERO, ZERO, ZERO,
                       "0x1.d54178e0a39d4p-4", "0x1.19999994e0233p-2", "0x1.1e49ca7e86a86p+0"],
    ("supprod", 1): [ZERO, ZERO, ZERO, "0x1.97e59c41b8b58p-6", "0x1.b898b2068ae00p-7", ZERO],
    ("supprod", 2): ["0x1.0000000000000p-2", "0x1.8000000000000p+0", "0x1.9000000000000p+4",
                     "0x1.19999994e0233p-2", "0x1.8666665fd9a51p+0", "0x1.9066665faeb1fp+4"],
    ("supprod", 3): ["0x1.0000000000000p-2", "0x1.8000000000000p+0", "0x1.9000000000000p+4",
                     "0x1.19999994e0233p-2", "0x1.8666665fd9a51p+0", "0x1.9066665faeb1fp+4"],
    ("hyp-product", 2): HALF_PLANE_BITS,
    ("pi-image", 2): HALF_PLANE_BITS,
}
NORMED = {"euclidean": euclidean_space, "supprod": sup_product_space}


def pinned_space(genus2, name, dim):
    if name == "pi-image":
        return pi_image_space(genus2, gamma=("g1", "g2"))
    return {**NORMED, "hyp-product": hyp_product_space}[name](dim)


class TestNormedSearch:
    @pytest.mark.parametrize("name, dim", PINNED)
    def test_values_match_pinned_bits(self, genus2, name, dim):
        space = pinned_space(genus2, name, dim)
        values = [instability_lower_bound(space, delta, L, budget=200, seed=3)[0].hex()
                  for delta in (0.0, 0.05) for L in (0.5, 3.0, 50.0)]
        assert values == PINNED[name, dim]

    @pytest.mark.parametrize("name, dim", [key for key in PINNED if key[0] in NORMED])
    def test_witness_points_are_float_vectors(self, name, dim):
        _, witness = instability_lower_bound(NORMED[name](dim), 0.05, 3.0, budget=200, seed=3)
        for point in (witness.x, witness.y, witness.z):
            assert isinstance(point, np.ndarray)
            assert point.dtype == np.float64 and point.shape == (dim,)

    @pytest.mark.parametrize("name", SPACES)
    def test_one_filter_call_and_four_zoom_rounds_on_stacked_arrays(self, genus2, name):
        space = SPACES[name](genus2)
        calls = []

        def kernel(triples, ts):
            calls.append(triples)
            return space.segment_distances(triples, ts)

        counted = dataclasses.replace(space, segment_distances=kernel)
        instability_lower_bound(counted, 0.1, 10.0, budget=60, seed=4)
        assert len(calls) == 5
        assert all(isinstance(triples, np.ndarray) for triples in calls)
        assert len(calls[0]) == 3 * 60  # d(x, y), d(x, z) and d(z, y) per candidate

    @pytest.mark.parametrize("triple", [
        (np.zeros(2), np.zeros(3), np.zeros(2)),
        (np.zeros(2), np.zeros(2)),
        ("x", "y", "z"),
    ], ids=["ragged", "pair", "strings"])
    def test_a_malformed_random_candidate_raises_validation_error(self, triple):
        space = dataclasses.replace(sup_product_space(2), witnesses=None,
                                    random_triple=lambda rng, delta, L: triple)
        with pytest.raises(ValidationError):
            instability_lower_bound(space, 0.0, 1.0, budget=5)

    def test_candidates_of_two_dimensions_raise_validation_error(self):
        dims = itertools.cycle((2, 3))

        def random_triple(rng, delta, L):
            return np.zeros((3, next(dims)))

        space = dataclasses.replace(sup_product_space(2), witnesses=None,
                                    random_triple=random_triple)
        with pytest.raises(ValidationError):
            instability_lower_bound(space, 0.0, 1.0, budget=5)


def test_cli_instability_never_imports_numpy_random():
    src = str(Path(teichlen.__file__).resolve().parent.parent)
    code = ("import io, sys\n"
            "from teichlen.cli import main\n"
            "main(['--budget', '30', 'instability', '--space', 'hyp-product:2',\n"
            "      '--delta', '0', '--ladder', '1,10,100,1000,10000'], out=io.StringIO())\n"
            "print('numpy.random' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


LADDER = [1.0, 10.0, 100.0, 1000.0, 10000.0]


@pytest.mark.parametrize("call", [
    lambda: instability_lower_bound(hyp_product_space(2), 0.1, 10.0, budget=2.5),
    lambda: growth_rate_estimate(None, 0.0, LADDER, s_values=[1, 2, math.nan, 4, 5]),
    lambda: growth_rate_estimate(None, 0.0, LADDER, s_values=[1, 2, math.inf, 4, 5]),
    lambda: euclidean_instability_exact(math.nan, 1.0),
    lambda: euclidean_instability_exact(1.0, math.inf),
    lambda: growth_rate_estimate(None, 0.0, LADDER),
    lambda: growth_rate_estimate(None, 0.0, LADDER, s_values=[1, 2, 3]),
    lambda: growth_rate_estimate(None, 0.0, LADDER, s_values=[0, 0, 0, 0, 5]),
], ids=["float-budget", "nan-s", "inf-s", "nan-delta", "inf-L", "no-space", "short-s",
        "one-nonzero-s"])
def test_bad_arguments_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()
