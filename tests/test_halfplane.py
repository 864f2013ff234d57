"""Upper half-plane oracles: distances, geodesic points, the
quadratic-ratio sup and torus lengths."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teichlen import (
    TorusLattice,
    UHPoint,
    ValidationError,
    geodesic_point,
    hyp_distance,
    k_ratio_sup,
    torus_extremal_length,
)
from teichlen.halfplane import geodesic_distances

I = UHPoint(0.0, 1.0)


def random_point(rng, x_range=2.0, y_low=0.2, y_high=5.0):
    return UHPoint(rng.uniform(-x_range, x_range), rng.uniform(y_low, y_high))


def random_mobius(rng):
    """Coefficients (a, b, c, d) of a real Moebius map with ad - bc = 1."""
    while True:
        a, b, c, d = rng.normal(size=4)
        det = a * d - b * c
        if abs(det) > 0.1:
            break
    if det < 0:
        a, b, c, d = c, d, a, b
    s = math.sqrt(abs(det))
    return a / s, b / s, c / s, d / s


def mobius(a, b, c, d, z):
    """The image (az + b)/(cz + d) of a half-plane point, as a UHPoint."""
    w = (a * z + b) / (c * z + d)
    return UHPoint(w.real, w.imag)


class TestHypDistance:
    def test_identity(self):
        assert hyp_distance(I, I) == 0.0

    def test_vertical_pair(self):
        # closed form: half of log 2 for heights 1 and 2
        assert hyp_distance(I, UHPoint(0, 2)) == pytest.approx(
            0.5 * math.log(2), abs=1e-15
        )

    def test_horizontal_pair(self):
        assert hyp_distance(I, UHPoint(1, 1)) == pytest.approx(
            0.5 * math.acosh(1.5), abs=1e-15
        )

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z1, z2, z3 = (random_point(rng) for _ in range(3))
            d12 = hyp_distance(z1, z2)
            assert d12 == hyp_distance(z2, z1)
            assert d12 <= hyp_distance(z1, z3) + hyp_distance(z3, z2) + 1e-12

    def test_mobius_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            z1, z2 = random_point(rng), random_point(rng)
            m = random_mobius(rng)
            assert hyp_distance(mobius(*m, z1), mobius(*m, z2)) == pytest.approx(
                hyp_distance(z1, z2), abs=1e-10
            )

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValidationError):
            UHPoint(0.0, -1.0)
        with pytest.raises(ValidationError):
            UHPoint(0.0, 0.0)


ORACLE_DPS = 60
# fixed examples and no example database, so every run checks the same inputs
ORACLE_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=300)


def oracle_distance(z1, z2):
    """Half distance in 60-digit arithmetic from the exact float inputs."""
    with mpmath.workdps(ORACLE_DPS):
        x1, y1, x2, y2 = map(mpmath.mpf, (z1.x, z1.y, z2.x, z2.y))
        return mpmath.asinh(mpmath.hypot(x1 - x2, y1 - y2) / (2 * mpmath.sqrt(y1 * y2)))


def oracle_geodesic_point(z, w, t):
    """Arclength parametrisation x = c - r tanh u, y = r sech u in 60 digits."""
    with mpmath.workdps(ORACLE_DPS):
        zx, zy, wx, wy, t = map(mpmath.mpf, (z.x, z.y, w.x, w.y, t))
        if zx == wx:
            return zx, zy * (wy / zy) ** t
        c = (wx ** 2 + wy ** 2 - zx ** 2 - zy ** 2) / (2 * (wx - zx))
        r = mpmath.hypot(zx - c, zy)
        u_z = mpmath.asinh((c - zx) / zy)
        u = u_z + t * (mpmath.asinh((c - wx) / wy) - u_z)
        return c - r * mpmath.tanh(u), r * mpmath.sech(u)


def oracle_k_ratio_sup(z1, z2):
    """Largest ratio over its critical points and t -> infinity, in 60 digits."""
    with mpmath.workdps(ORACLE_DPS):
        x1, y1, x2, y2 = map(mpmath.mpf, (z1.x, z1.y, z2.x, z2.y))
        d = x2 - x1
        if d == 0:
            critical = [-x1]
        else:
            # critical points in u = t + x1: d u^2 - (y1^2 - y2^2 - d^2) u - d y1^2 = 0
            bq = y1 ** 2 - y2 ** 2 - d ** 2
            root = mpmath.sqrt(bq ** 2 + 4 * d ** 2 * y1 ** 2)
            critical = [(bq + root) / (2 * d) - x1, (bq - root) / (2 * d) - x1]
        ratios = [(y2 + (t + x2) ** 2 / y2) / (y1 + (t + x1) ** 2 / y1) for t in critical]
        return max([y1 / y2] + ratios)


class TestHalfPlaneOracles:
    """Property tests against 60-digit mpmath oracles."""

    @ORACLE_SETTINGS
    @given(
        log_y=st.floats(-150, 150),
        x_over_y=st.floats(-10, 10),
        log_sep=st.floats(-14, 2),
        angle=st.floats(0, 2 * math.pi),
    )
    @example(log_y=-200, x_over_y=0.0, log_sep=0.0, angle=1.0)
    def test_distance_relative_error(self, log_y, x_over_y, log_sep, angle):
        # the second point sits at relative separation sep from the first
        y = 10.0 ** log_y
        sep = 10.0 ** log_sep
        z1 = UHPoint(x_over_y * y, y)
        z2 = UHPoint(z1.x + sep * y * math.cos(angle), y * math.exp(sep * math.sin(angle)))
        exact = oracle_distance(z1, z2)
        if exact == 0:
            assert hyp_distance(z1, z2) == 0.0
            return
        assert abs(hyp_distance(z1, z2) - exact) <= 1e-15 * exact

    @ORACLE_SETTINGS
    @given(
        log_y=st.floats(-150, 150),
        x_over_y=st.floats(-10, 10),
        log_sep=st.floats(-14, 2),
        angle=st.floats(0, 2 * math.pi),
    )
    @example(log_y=0.0, x_over_y=0.0, log_sep=-8.0, angle=0.0)
    def test_k_ratio_sup_relative_error(self, log_y, x_over_y, log_sep, angle):
        # closed form (s + hypot(1, s))^2 against the critical-point supremum
        y = 10.0 ** log_y
        sep = 10.0 ** log_sep
        z1 = UHPoint(x_over_y * y, y)
        z2 = UHPoint(z1.x + sep * y * math.cos(angle), y * math.exp(sep * math.sin(angle)))
        exact = oracle_k_ratio_sup(z1, z2)
        assert abs(k_ratio_sup(z1, z2) - exact) <= 2e-15 * exact

    @ORACLE_SETTINGS
    @given(
        points=st.lists(
            st.tuples(st.floats(-10, 10), st.floats(-30, 30)), min_size=3, max_size=3),
    )
    def test_metric_axioms(self, points):
        # heights e^-30..e^30: symmetry, zero on the diagonal, triangle
        # inequality up to rounding, and the (1/2) log k_ratio_sup identity
        z1, z2, z3 = (UHPoint(x, math.exp(log_y)) for x, log_y in points)
        d12 = hyp_distance(z1, z2)
        assert hyp_distance(z1, z1) == 0.0
        assert d12 == hyp_distance(z2, z1)
        assert d12 <= (hyp_distance(z1, z3) + hyp_distance(z3, z2)) * (1 + 4e-16)
        assert 0.5 * math.log(k_ratio_sup(z1, z2)) == pytest.approx(d12, rel=1e-15, abs=1e-15)

    @ORACLE_SETTINGS
    @given(
        scale=st.floats(-100, 100),
        z=st.tuples(st.floats(-10, 10), st.floats(-3, 3)),
        w_y=st.floats(-3, 3),
        log_gap=st.one_of(st.none(), st.floats(-14, 1)),
        sign=st.sampled_from((-1.0, 1.0)),
        t=st.floats(0, 1),
    )
    def test_geodesic_point_against_arclength(self, scale, z, w_y, log_gap, sign, t):
        # coordinates are relative to 10**scale; log_gap None is a vertical geodesic
        s = 10.0 ** scale
        start = UHPoint(z[0] * s, s * 10.0 ** z[1])
        gap = 0.0 if log_gap is None else sign * s * 10.0 ** log_gap
        end = UHPoint(start.x + gap, s * 10.0 ** w_y)
        point = geodesic_point(start, end, t)
        x, y = oracle_geodesic_point(start, end, t)
        assert abs(point.x - x) <= 1e-13 * (abs(x) + y)
        assert abs(point.y - y) <= 1e-13 * y

    @ORACLE_SETTINGS
    @given(
        scale=st.floats(-100, 100),
        z=st.tuples(st.floats(-10, 10), st.floats(-3, 3)),
        w_y=st.floats(-3, 3),
        log_gap=st.one_of(st.none(), st.floats(-14, 1)),
        sign=st.sampled_from((-1.0, 1.0)),
        r=st.tuples(st.floats(-10, 10), st.floats(-3, 3)),
        t=st.floats(0, 1),
    )
    def test_geodesic_distances_match_scalar_kernels(self, scale, z, w_y, log_gap, sign, r, t):
        # the array kernel against hyp_distance(r, geodesic_point(z, w, t)) on
        # 17 grid parameters and t; log_gap None is a vertical geodesic.  The
        # two round the path point differently by a few ulp of its height,
        # so below distance 1 the bound is absolute (relative errors reach
        # 6e-13 at distance 0.004)
        s = 10.0 ** scale
        start = UHPoint(z[0] * s, s * 10.0 ** z[1])
        gap = 0.0 if log_gap is None else sign * s * 10.0 ** log_gap
        end = UHPoint(start.x + gap, s * 10.0 ** w_y)
        other = UHPoint(r[0] * s, s * 10.0 ** r[1])
        ts = np.append(np.linspace(0.0, 1.0, 17), t)
        got = geodesic_distances(start.x, start.y, end.x, end.y, other.x, other.y, ts)
        for u, value in zip(ts, got):
            expected = hyp_distance(other, geodesic_point(start, end, u))
            assert abs(value - expected) <= 1e-14 * max(expected, 1.0)

    def test_geodesic_point_near_vertical_midpoint(self):
        z, w = UHPoint(0.0, 1.0), UHPoint(1e-7, 4.0)
        x, y = oracle_geodesic_point(z, w, 0.5)
        mid = geodesic_point(z, w, 0.5)
        assert abs(mid.x - x) <= 1e-13 * abs(x)
        assert abs(mid.y - y) <= 1e-13 * y


class TestKRatioSup:
    def test_identity(self):
        assert k_ratio_sup(I, I) == 1.0

    def test_vertical_pair_exact(self):
        # ratio (2 + t^2/2)/(1 + t^2) is maximized at t = 0
        assert k_ratio_sup(I, UHPoint(0, 2)) == pytest.approx(2.0, abs=1e-14)

    def test_matches_half_log_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            z1, z2 = random_point(rng), random_point(rng)
            assert hyp_distance(z1, z2) == pytest.approx(
                0.5 * math.log(k_ratio_sup(z1, z2)), abs=1e-10
            )

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            z1, z2 = random_point(rng), random_point(rng)
            assert k_ratio_sup(z1, z2) == pytest.approx(
                k_ratio_sup(z2, z1), abs=1e-10
            )

    def test_dominates_grid_sup(self):
        # closed form must dominate any sampled value of the ratio
        rng = np.random.default_rng(5)
        ts = np.linspace(-50, 50, 20001)
        for _ in range(20):
            z1, z2 = random_point(rng), random_point(rng)
            num = z2.y + (ts + z2.x) ** 2 / z2.y
            den = z1.y + (ts + z1.x) ** 2 / z1.y
            grid = float(np.max(num / den))
            sup = k_ratio_sup(z1, z2)
            assert sup >= grid - 1e-12
            assert sup >= z1.y / z2.y - 1e-15  # the t -> infinity limit


class TestTorusExtremalLength:
    def test_square_torus(self):
        lat = TorusLattice(1.0, 1j)
        assert torus_extremal_length(lat, 1, 0) == pytest.approx(1.0)

    def test_tall_torus(self):
        lat = TorusLattice(1.0, 2j)
        assert torus_extremal_length(lat, 0, 1) == pytest.approx(2.0)
        assert torus_extremal_length(lat, 1, 0) == pytest.approx(0.5)

    def test_degree_two_homogeneity(self):
        lat = TorusLattice(1.0 + 0.3j, -0.2 + 1.7j)
        base = torus_extremal_length(lat, 2, 3)
        assert torus_extremal_length(lat, 6, 9) == pytest.approx(9 * base, rel=1e-14)

    def test_rejects_zero_class(self):
        with pytest.raises(ValidationError):
            torus_extremal_length(TorusLattice(1.0, 1j), 0, 0)

    def test_rejects_bad_orientation(self):
        with pytest.raises(ValidationError):
            TorusLattice(1.0, -1j)

    def test_product_inequality_with_equality_case(self):
        # lambda(u1,v1) lambda(u2,v2) >= (u1 v2 - u2 v1)^2, sharp on the square torus
        lat = TorusLattice(1.0, 1j)
        assert torus_extremal_length(lat, 1, 0) * torus_extremal_length(lat, 0, 1) == 1.0
        rng = np.random.default_rng(6)
        for _ in range(5):
            lat = TorusLattice(1.0, complex(rng.uniform(-2, 2), rng.uniform(0.3, 3)))
            pairs = [
                (u, v)
                for u in range(-10, 11)
                for v in range(-10, 11)
                if math.gcd(abs(u), abs(v)) == 1
            ]
            lams = {p: torus_extremal_length(lat, *p) for p in pairs}
            for u1, v1 in pairs[::7]:
                for u2, v2 in pairs[::7]:
                    det = u1 * v2 - u2 * v1
                    assert lams[(u1, v1)] * lams[(u2, v2)] >= det * det - 1e-12


class TestGeodesicPoint:
    def test_endpoints_and_midpoint(self):
        z, w = UHPoint(-1.0, 0.7), UHPoint(2.0, 1.3)
        assert hyp_distance(geodesic_point(z, w, 0.0), z) < 1e-12
        assert hyp_distance(geodesic_point(z, w, 1.0), w) < 1e-9
        mid = geodesic_point(z, w, 0.5)
        assert hyp_distance(z, mid) == pytest.approx(hyp_distance(mid, w), abs=1e-9)

    def test_constant_speed(self):
        z, w = UHPoint(0.0, 1.0), UHPoint(3.0, 0.4)
        total = hyp_distance(z, w)
        for t in (0.25, 0.5, 0.75):
            assert hyp_distance(z, geodesic_point(z, w, t)) == pytest.approx(
                t * total, abs=1e-9
            )


class TestMobiusAction:
    def test_point_is_its_own_complex(self):
        z = UHPoint(1.0, 2.0)
        assert mobius(1.0, 3.0, 0.0, 1.0, z) == complex(z) + 3.0
