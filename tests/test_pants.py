"""Hexagon/pants trigonometry against independent geometric oracles.

Two oracles are used: an explicit geodesic walk in the half-plane (for
single hexagons) and the trace model of the pants group, where each
orthogeodesic length is the minimum over short words of the distance
between translated axes computed from matrix traces.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teichlen import (
    ArcMultiplicities,
    DegenerateHexagonError,
    FlatAnnulus,
    NoCollarError,
    NumericDomainError,
    OrthoLengths,
    PantsCuffs,
    ValidationError,
    annulus_arc_crossings,
    collar_modulus,
    flat_annulus_twist,
    hexagon_side,
    pants_orthogeodesics,
)

LD = np.longdouble


# --- oracle helpers -------------------------------------------------------


def axis_distance_endpoints(p, q, r, s):
    """Distance between disjoint geodesics (p,q), (r,s) via the cross-ratio."""
    rho = (r - p) * (s - q) / ((s - p) * (r - q))
    if rho > 1:
        rho = 1 / rho
    assert 0 < rho < 1
    return math.acosh((1 + rho) / (1 - rho))


def perpendicular_at_arclength(scale, d):
    """Endpoints of the geodesic orthogonal to the circle |z| = scale at
    arclength d from i*scale (toward positive x)."""
    return scale * math.tanh(d / 2), scale / math.tanh(d / 2)


def hexagon_oracle(a, gamma, b):
    """Walk a right-angled hexagon with consecutive sides (a, gamma, b) and
    return the side opposite gamma as a distance between geodesics."""
    # gamma side along the imaginary axis from i to i e^gamma
    # side a leaves perpendicular at i (unit circle), side b at i e^gamma
    ga = perpendicular_at_arclength(1.0, a)
    gb = perpendicular_at_arclength(math.exp(gamma), b)
    return axis_distance_endpoints(ga[0], ga[1], gb[0], gb[1])


def pants_group(l1, l2, l3):
    """SL(2,R) pants group with tr X = 2cosh(l1/2), tr Y = 2cosh(l2/2),
    tr XY = -2cosh(l3/2); extended precision keeps word traces accurate."""
    l1, l2, l3 = LD(l1), LD(l2), LD(l3)
    c2, c3 = np.cosh(l2 / 2), np.cosh(l3 / 2)
    m = np.exp(l1 / 2)
    x_mat = np.array([[m, 0], [0, 1 / m]], dtype=LD)
    a = -2 * (c3 * m + c2) / (m * m - 1)
    d = 2 * c2 - a
    y_mat = np.array([[a, 1], [a * d - 1, d]], dtype=LD)
    return x_mat, y_mat


def sl2_inv(m):
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=LD)


def axes_distance_from_traces(g, h):
    tg, th, tgh = np.trace(g), np.trace(h), np.trace(g @ h)
    denom2 = (tg * tg - 4) * (th * th - 4)
    if denom2 <= 0:
        return None
    value = abs(2 * tgh - tg * th) / np.sqrt(denom2)
    if value <= 1:
        return None
    return float(np.arccosh(value))


def group_words(gens, max_len):
    out = [np.eye(2, dtype=LD)]
    frontier = [np.eye(2, dtype=LD)]
    for _ in range(max_len):
        frontier = [w @ g for w in frontier for g in gens]
        out.extend(frontier)
    return out


def pants_oracle(l1, l2, l3, word_len=3):
    """Six orthogeodesic lengths as minima of axis distances over words."""
    x_mat, y_mat = pants_group(l1, l2, l3)
    z_mat = x_mat @ y_mat
    gens = [x_mat, sl2_inv(x_mat), y_mat, sl2_inv(y_mat)]
    words = group_words(gens, word_len)

    def min_dist(g, h):
        best = math.inf
        for w in words:
            cand = axes_distance_from_traces(g, w @ h @ sl2_inv(w))
            # same-axis conjugates reappear as acosh(1 + roundoff); distinct
            # lifts in this cuff range are never closer than 1e-3
            if cand is not None and cand > 1e-3:
                best = min(best, cand)
        return best

    return {
        "d12": min_dist(x_mat, y_mat),
        "d13": min_dist(x_mat, z_mat),
        "d23": min_dist(y_mat, z_mat),
        "d11": min_dist(x_mat, x_mat),
        "d22": min_dist(y_mat, y_mat),
        "d33": min_dist(z_mat, z_mat),
    }


# --- hexagon --------------------------------------------------------------


@st.composite
def well_conditioned_hexagons(draw):
    """Sides (a, gamma, b) whose cosine rule cancels at most half its leading term.

    cosh c - 1 = t - r with t = 2 sinh a sinh b sinh^2(gamma/2) and
    r = 2 cosh^2((a - b)/2); the sides drawn have t >= 2 r.  As t nears r,
    c becomes ill-conditioned in a and b (an ulp of either moves c by up
    to t / (t - r) ulps), so no double formula can be held to 1e-14 there.
    """
    a, b = (10.0 ** draw(st.floats(-3, math.log10(60))) for _ in range(2))
    # the gamma with t = 2 r, scaled up by 1.002 to 32
    least = 2 * math.asinh(math.cosh((a - b) / 2)
                           * math.sqrt(2 / (math.sinh(a) * math.sinh(b))))
    return a, least * 10.0 ** draw(st.floats(0.001, 1.5)), b


class TestHexagonSide:
    def test_matches_geodesic_walk_oracle(self):
        # frozen value computed with hexagon_oracle(2, 1, 2)
        assert hexagon_side(2, 1, 2) == pytest.approx(2.5018917435724415, abs=1e-12)
        assert hexagon_side(2, 1, 2) == pytest.approx(hexagon_oracle(2, 1, 2), abs=1e-9)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 50:
            a, g, b = rng.uniform(0.3, 3.0, size=3)
            try:
                value = hexagon_side(a, g, b)
            except DegenerateHexagonError:
                continue
            assert value == pytest.approx(hexagon_oracle(a, g, b), abs=1e-9)
            checked += 1

    def test_symmetry_in_a_b(self):
        assert hexagon_side(2.5, 0.7, 2.0) == hexagon_side(2.0, 0.7, 2.5)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateHexagonError):
            hexagon_side(1, 1, 1)

    @pytest.mark.parametrize("sides", [(800, 1, 800), (400, 1, 400), (1, 1, 1500)])
    def test_overflow_raises_domain_error(self, sides):
        # sinh/cosh overflow, or inf - inf = nan, must not escape or return nan
        with pytest.raises(NumericDomainError):
            hexagon_side(*sides)

    def test_full_cyclic_relation(self):
        # build all six sides from alternating sides, then check the cosine
        # law at every rotation of the cyclic order
        rng = np.random.default_rng(12)
        for _ in range(50):
            l1, l2, l3 = rng.uniform(0.2, 3.0, size=3)

            def even_side(p, q, opposite):
                return math.acosh(
                    (math.cosh(opposite) + math.cosh(p) * math.cosh(q))
                    / (math.sinh(p) * math.sinh(q))
                )

            sides = [
                l1,
                even_side(l1, l2, l3),
                l2,
                even_side(l2, l3, l1),
                l3,
                even_side(l3, l1, l2),
            ]
            for k in range(6):
                a, g, b, c = sides[k], sides[(k + 1) % 6], sides[(k + 2) % 6], sides[(k + 4) % 6]
                assert hexagon_side(a, g, b) == pytest.approx(c, abs=1e-9)

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(sides=well_conditioned_hexagons())
    @example(sides=(15.0, 1e-3, 15.0))  # was off by 2.1e-11 relative
    @example(sides=(30.0, 1e-4, 30.0))  # was off by 3.6e-10 relative
    @example(sides=(50.0, 1e-9, 50.0))  # was rejected as degenerate
    def test_relative_error_against_mpmath(self, sides):
        # the cosine rule in 150 digits, where nothing cancels
        a, g, b = sides
        with mpmath.workdps(150):
            a_, g_, b_ = (mpmath.mpf(v) for v in sides)
            rest = 2 * mpmath.cosh((a_ - b_) / 2) ** 2
            excess = 2 * mpmath.sinh(a_) * mpmath.sinh(b_) * mpmath.sinh(g_ / 2) ** 2 - rest
            assert excess >= rest, sides
            exact = mpmath.acosh(1 + excess)
        assert abs(hexagon_side(a, g, b) - exact) <= 1e-14 * exact, sides


# --- pants orthogeodesics -------------------------------------------------


class TestPantsOrthogeodesics:
    def test_fields_follow_arc_multiplicities(self):
        # the evaluator indexes an orthogeodesic row by arc number
        assert [f.replace("d", "a") for f in OrthoLengths._fields] == list(
            ArcMultiplicities._fields)
        assert isinstance(pants_orthogeodesics(PantsCuffs(1.0, 2.0, 3.0)), tuple)

    def test_equilateral_seams(self):
        ortho = pants_orthogeodesics(PantsCuffs(2, 2, 2))
        expected = math.acosh((math.cosh(1) + math.cosh(1) ** 2) / math.sinh(1) ** 2)
        assert ortho.d12 == pytest.approx(expected, abs=1e-12)
        assert ortho.d12 == ortho.d13 == ortho.d23

    @pytest.mark.parametrize("cuffs", [(2000, 1, 1), (1500, 0, 0), (700, 700, 700)])
    def test_overflow_raises_domain_error(self, cuffs):
        # (700, 700, 700) used to return d11 = inf for finite cuffs
        with pytest.raises(NumericDomainError):
            pants_orthogeodesics(PantsCuffs(*cuffs))

    def test_permutation_equivariance(self):
        base = pants_orthogeodesics(PantsCuffs(1.0, 2.0, 3.0))
        swapped = pants_orthogeodesics(PantsCuffs(2.0, 1.0, 3.0))
        assert swapped.d12 == base.d12
        assert swapped.d13 == base.d23
        assert swapped.d23 == base.d13
        assert swapped.d11 == base.d22
        assert swapped.d22 == base.d11
        assert swapped.d33 == base.d33

    def test_matrix_model_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            l1, l2, l3 = rng.uniform(0.05, 6.0, size=3)
            ortho = pants_orthogeodesics(PantsCuffs(l1, l2, l3))
            oracle = pants_oracle(l1, l2, l3)
            for key, expected in oracle.items():
                assert getattr(ortho, key) == pytest.approx(expected, abs=1e-8), (
                    key,
                    (l1, l2, l3),
                )

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(log_cuffs=st.tuples(*[st.floats(-8, math.log10(200))] * 3))
    @example(log_cuffs=(math.log10(200), math.log10(200), math.log10(60)))  # seam 2e-37
    @example(log_cuffs=(math.log10(104), 0.0, 0.0))  # d11 near 2e-11
    def test_relative_error_against_mpmath(self, log_cuffs):
        # the cosh formulas in 120 digits, where acosh near 1 loses nothing
        cuffs = [10.0 ** v for v in log_cuffs]
        ortho = pants_orthogeodesics(PantsCuffs(*cuffs))
        with mpmath.workdps(120):
            half = [mpmath.mpf(v) / 2 for v in cuffs]
            c, s = [mpmath.cosh(h) for h in half], [mpmath.sinh(h) for h in half]
            root = mpmath.sqrt(c[0] ** 2 + c[1] ** 2 + c[2] ** 2 + 2 * c[0] * c[1] * c[2] - 1)
            exact = {f"d{i + 1}{i + 1}": 2 * mpmath.acosh(root / s[i]) for i in range(3)}
            for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                exact[f"d{i + 1}{j + 1}"] = mpmath.acosh((c[k] + c[i] * c[j]) / (s[i] * s[j]))
            for key, value in exact.items():
                assert abs(getattr(ortho, key) - value) <= 1e-14 * value, (key, cuffs)

    def test_pentagon_limit(self):
        limit = pants_orthogeodesics(PantsCuffs(2, 2, 0))
        expected = math.acosh((1 + math.cosh(1) ** 2) / math.sinh(1) ** 2)
        assert limit.d12 == pytest.approx(expected, abs=1e-12)
        diffs = []
        for l3 in (1e-2, 1e-3, 1e-4):
            value = pants_orthogeodesics(PantsCuffs(2, 2, l3)).d12
            diffs.append(abs(value - limit.d12))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[2] <= 1e-6

    def test_cusp_arcs_unbounded(self):
        ortho = pants_orthogeodesics(PantsCuffs(0, 2, 2))
        assert ortho.d12 == math.inf
        assert ortho.d13 == math.inf
        assert ortho.d11 == math.inf
        assert math.isfinite(ortho.d23)
        assert math.isfinite(ortho.d22)


# --- collar modulus -------------------------------------------------------


class TestCollarModulus:
    def test_direct_value(self):
        assert collar_modulus(0.05, 0.5) == pytest.approx(20 * math.pi - 4, abs=1e-12)

    def test_zero_modulus_boundary(self):
        eps0 = 0.5
        delta = math.pi / (2 / eps0)  # this makes pi/delta == 2/eps0
        with pytest.raises(NoCollarError):
            collar_modulus(delta, eps0)

    def test_monotone_in_delta(self):
        values = [collar_modulus(d, 0.5) for d in (0.01, 0.05, 0.1, 0.3)]
        assert values == sorted(values, reverse=True)

    def test_core_longer_than_boundary_rejected(self):
        with pytest.raises(NoCollarError):
            collar_modulus(0.6, 0.5)

    def test_exact_identity(self):
        for eps0 in (0.3, 0.5):
            for delta in (1e-2, 1e-3, 1e-4):
                m = collar_modulus(delta, eps0)
                assert abs(m * delta - (math.pi - 2 * delta / eps0)) <= 1e-12


# --- flat annulus ---------------------------------------------------------


class TestFlatAnnulus:
    def test_modulus(self):
        assert FlatAnnulus(2.0, 5.0).modulus == 2.5

    def test_twist_zero(self):
        assert flat_annulus_twist(FlatAnnulus(1.0, 2.0), 0.0, 0.0) == 0.0

    def test_twist_value(self):
        assert flat_annulus_twist(FlatAnnulus(1.0, 2.0), 0.0, 3.0) == 1.5

    def test_wrap_additivity(self):
        ann = FlatAnnulus(1.0, 2.0)
        base = flat_annulus_twist(ann, 0.3, 1.1)
        assert flat_annulus_twist(ann, 0.3, 1.1 + ann.height) == pytest.approx(base + 1)
        assert flat_annulus_twist(ann, 0.3, 1.1 - 2 * ann.height) == pytest.approx(base - 2)


# --- arc crossings --------------------------------------------------------


def crossings_oracle(t1, t2, window=40):
    """Count proper segment intersections of the two straight arc lifts."""

    def ccw(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    lo, hi = (t1, t2) if t1 <= t2 else (t2, t1)
    a0, a1 = (0.0, 0.0), (lo, 1.0)
    count = 0
    for n in range(-window, window + 1):
        b0, b1 = (0.25 + n, 0.0), (0.25 + n + hi, 1.0)
        d1, d2 = ccw(a0, a1, b0), ccw(a0, a1, b1)
        d3, d4 = ccw(b0, b1, a0), ccw(b0, b1, a1)
        if d1 * d2 < -1e-12 and d3 * d4 < -1e-12:
            count += 1
    return count


class TestAnnulusArcCrossings:
    def test_parallel(self):
        assert annulus_arc_crossings(0.0, 0.0) == 0

    def test_three_twists(self):
        value = annulus_arc_crossings(0.0, 3.0)
        assert value in (2, 3, 4)
        assert abs(3.0) - 1 <= value <= abs(3.0) + 1

    def test_symmetry(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            t1, t2 = rng.uniform(-10, 10, size=2)
            assert annulus_arc_crossings(t1, t2) == annulus_arc_crossings(t2, t1)

    def test_grid_bound(self):
        grid = np.arange(-10, 10.25, 0.25)
        for t1 in grid:
            for t2 in grid:
                value = annulus_arc_crossings(float(t1), float(t2))
                gap = abs(t2 - t1)
                assert gap - 1 <= value <= gap + 1

    def test_matches_segment_intersection_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            t1, t2 = rng.uniform(-12, 12, size=2)
            assert annulus_arc_crossings(t1, t2) == crossings_oracle(t1, t2)

    def test_large_gap_obeys_the_twist_gap_law(self):
        value = annulus_arc_crossings(-3.25, 997.25)
        assert 1000.5 - 1 <= value <= 1000.5 + 1
        assert value == crossings_oracle(-3.25, 997.25, window=1100)

    @pytest.mark.parametrize("t1, t2", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf), (-1e308, 1e308),
    ])
    def test_non_finite_twists_rejected(self, t1, t2):
        with pytest.raises(ValidationError):
            annulus_arc_crossings(t1, t2)
