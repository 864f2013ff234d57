"""Distance estimation, the pinching projection, and the product metric."""

import dataclasses
import itertools
import math
import pathlib
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teichlen import (
    CurveFamily,
    CurveSystem,
    FNPoint,
    NumericDomainError,
    UHPoint,
    ValidationError,
    collar_decomposition,
    core_curve,
    default_curve_family,
    fn_dehn_twist,
    hyp_distance,
    k_ratio_sup,
    kerckhoff_distance_estimate,
    pair_curve_family,
    pi_map,
    pi_map_inverse,
    product_distance,
    product_region_discrepancy,
    torus_family_estimate,
)

from conftest import family_members, family_rows, genus2_point, members_family
import teichlen.distance
import teichlen.extremal
from teichlen.distance import product_model
from teichlen.distance import ProductPoint, _curve_family, _ideal_endpoints
from teichlen.extremal import _annulus_term, component_table
from teichlen.files import parse_fn, parse_surface
from teichlen.surface import CURVE, Marking

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


def reference_family(marking, i_max, twist_bound):
    """Brute-force enumeration, one CurveSystem per member, in the family's order."""
    curves = marking.curves
    members = []
    for pattern in itertools.product(range(i_max + 1), repeat=len(curves)):
        counts = dict(zip(curves, pattern))
        if sum(pattern) == 0 or any(
            sum(counts[e.name] for e in p.ends if e.kind == CURVE) % 2
            for p in marking.decomposition.pants
        ):
            continue
        crossing = [c for c in curves if counts[c] > 0]
        for offsets in itertools.product(
            range(-twist_bound, twist_bound + 1), repeat=len(crossing)
        ):
            data = {c: (counts[c], 0, 0) for c in curves}
            for c, b in zip(crossing, offsets):
                data[c] = (counts[c], b, 0)
            members.append(CurveSystem(data))
    return members + [core_curve(marking, c) for c in curves]


def member_set(members):
    return {tuple(sorted(beta.data.items())) for beta in members}


def euclidean_base_metric(rho1, rho2):
    """Exact auxiliary metric on base coordinates, for metric-axiom tests."""
    keys = sorted(rho1.lengths)
    dl = [math.log(rho1.length(k)) - math.log(rho2.length(k)) for k in keys]
    ds = [rho1.twist(k) - rho2.twist(k) for k in sorted(rho1.twists)]
    return math.sqrt(sum(v * v for v in dl + ds))


class TestTorusFamilyEstimate:
    def test_vertical_pair_exact_at_n1(self):
        # sup attained at the class (0, 1)
        z1, z2 = UHPoint(0, 1), UHPoint(0, 2)
        assert torus_family_estimate(z1, z2, 1) == pytest.approx(
            0.5 * math.log(2), abs=1e-14
        )
        assert torus_family_estimate(z1, z2, 1) == pytest.approx(
            hyp_distance(z1, z2), abs=1e-14
        )

    def test_identity(self):
        assert torus_family_estimate(UHPoint(0, 1), UHPoint(0, 1), 10) == 0.0

    def test_convergence_for_diagonal_pair(self):
        z1, z2 = UHPoint(0, 1), UHPoint(1, 1)
        exact = hyp_distance(z1, z2)
        assert torus_family_estimate(z1, z2, 20) == pytest.approx(exact, abs=0.02)

    def test_lower_bound_and_monotone_in_n(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            z1 = UHPoint(rng.uniform(-2, 2), rng.uniform(0.2, 5))
            z2 = UHPoint(rng.uniform(-2, 2), rng.uniform(0.2, 5))
            exact = hyp_distance(z1, z2)
            previous = 0.0
            for n in (1, 2, 5, 10, 25):
                value = torus_family_estimate(z1, z2, n)
                assert value <= exact + 1e-12
                assert value >= previous - 1e-15
                previous = value


# closed genus 3 in four pants; g4 separates pA from the rest
GENUS3_SURF = """
[surface]
genus = 3
punctures = 0
boundary = 0

[curves]
g1 = +
g2 = +
g3 = +
g4 = +
g5 = +
g6 = +

[pants]
pA = g1 g1 g4
pB = g4 g2 g5
pC = g6 g2 g5
pD = g3 g3 g6

[seams]
g1 = 0
g2 = 0
g3 = 0
g4 = 0
g5 = 0
g6 = 0
"""


class TestDefaultCurveFamily:
    def test_members_valid_and_parity_filtered(self, genus2):
        members = family_members(default_curve_family(genus2, i_max=1, twist_bound=1))
        for member in members:
            member.validate_for(genus2)
        # genus-2 pants see all three curves, so single crossings are odd
        assert all(
            sum(member.intersection(c) for c in genus2.curves) % 2 == 0
            for member in members
        )

    def test_contains_cores(self, genus2):
        family = default_curve_family(genus2, i_max=1, twist_bound=0)
        cores = [row for row in family_rows(family) if row[:, 2].any()]
        assert len(cores) == 3

    def test_size_scales_with_bounds(self, genus2):
        small = default_curve_family(genus2, i_max=1, twist_bound=1)
        large = default_curve_family(genus2, i_max=2, twist_bound=2)
        assert len(large) > len(small)

    def test_size_cap_refuses_genus_3_before_allocating(self):
        # 179 crossing patterns of up to 17^6 members each, plus 6 cores
        marking = parse_surface(GENUS3_SURF)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"243,299,705 members"):
                default_curve_family(marking)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_size_cap_counts_every_member(self, genus2, monkeypatch):
        monkeypatch.setattr(teichlen.extremal, "_MAX_FAMILY_MEMBERS", 21440)
        assert len(default_curve_family(genus2)) == 21440
        monkeypatch.setattr(teichlen.extremal, "_MAX_FAMILY_MEMBERS", 21439)
        with pytest.raises(ValidationError, match=r"21,440 members"):
            default_curve_family(genus2)

    def test_matches_brute_force_enumeration(self, genus2, holed_torus):
        family = default_curve_family(genus2)
        reference = reference_family(genus2, 2, 8)
        assert len(family) == len(reference) == 21440
        assert member_set(family_members(family)) == member_set(reference)
        # a self-glued pants counts its curve twice in the parity rule
        family = default_curve_family(holed_torus, i_max=3, twist_bound=2)
        reference = reference_family(holed_torus, 3, 2)
        assert len(family) == len(reference)
        assert member_set(family_members(family)) == member_set(reference)

    @pytest.mark.parametrize("surface", ["genus2", "holed_torus", "punctured_torus"])
    @pytest.mark.parametrize("i_max, twist_bound", [(1, 0), (2, 3), (3, 1)])
    def test_patterns_group_the_members(self, request, surface, i_max, twist_bound):
        # a block per crossing pattern, or a one-member block per member: the
        # patterns index each member's i-counts either way
        marking = request.getfixturevalue(surface)
        blocks = default_curve_family(marking, i_max, twist_bound)
        for family in (blocks, members_family(reversed(family_members(blocks)))):
            assert np.array_equal(np.array(family.patterns)[family.key],
                                  family_rows(family)[:, :, 0])
            assert len(set(family.patterns)) == len(family.patterns)
            assert not family.key.flags.writeable
        assert len(members_family(family_members(blocks)).patterns) == len(blocks.patterns)

    @pytest.mark.parametrize("surface", ["genus2", "holed_torus", "punctured_torus"])
    @pytest.mark.parametrize("i_max, twist_bound", [(1, 0), (2, 8), (3, 1)])
    def test_columns_rebuild_the_enumeration_in_order(self, request, surface, i_max,
                                                      twist_bound):
        # gathering the cells by the index gives the brute-force rows, in
        # order, from pattern blocks and from one-member blocks
        marking = request.getfixturevalue(surface)
        reference = reference_family(marking, i_max, twist_bound)
        blocks = default_curve_family(marking, i_max, twist_bound)
        rows = np.array([[beta.data[c] for c in blocks.curves] for beta in reference])
        for family, expected in ((blocks, rows),
                                 (members_family(reversed(reference)), rows[::-1])):
            assert np.array_equal(family_rows(family), expected)
            for k, (cells, index) in enumerate(zip(family.cells, family.index)):
                assert np.array_equal(cells[index], expected[:, k])
                assert not index.flags.writeable and not cells.flags.writeable
        # a column holds one cell per offset of each block: a crossing block
        # 2 twist_bound + 1, any other block one
        for k, cells in enumerate(blocks.cells):
            assert len(cells) == sum(2 * twist_bound + 1 if pattern[k] else 1
                                     for pattern in blocks.patterns[:-1]) + len(blocks.curves)

    @pytest.mark.parametrize("surface", ["genus2", "holed_torus", "punctured_torus"])
    @pytest.mark.parametrize("i_max, twist_bound", [(1, 2), (2, 4), (3, 1)])
    def test_both_groupings_give_identical_estimates(self, request, surface, i_max,
                                                     twist_bound):
        marking = request.getfixturevalue(surface)
        blocks = default_curve_family(marking, i_max, twist_bound)
        grouped = members_family(reversed(family_members(blocks)))
        names = marking.curves + marking.decomposition.boundary_names()
        rng = np.random.default_rng(46)
        for _ in range(4):
            sigma, tau = (
                FNPoint(dict(zip(names, np.exp(rng.uniform(np.log(1e-3), np.log(2.0),
                                                           size=len(names))).tolist())),
                        {c: float(rng.uniform(-5, 5)) for c in marking.curves})
                for _ in range(2)
            )
            assert kerckhoff_distance_estimate(sigma, tau, grouped, marking) == (
                kerckhoff_distance_estimate(sigma, tau, blocks, marking))


def ideal_endpoints_oracle(x1, y1, x2, y2):
    """Both ideal endpoints at 60 digits, from the roots of xi^2 - 2 c xi - y1^2
    relative to x1; their product -y1^2 gives the smaller root."""
    with mpmath.workdps(60):
        x1, y1, x2, y2 = (mpmath.mpf(v) for v in (x1, y1, x2, y2))
        u = x2 - x1
        center = (u * u + y2 * y2 - y1 * y1) / (2 * u)
        far = center + (1 if center >= 0 else -1) * mpmath.sqrt(center * center + y1 * y1)
        return sorted([x1 + far, x1 - y1 * y1 / far])


class TestIdealEndpoints:
    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(log_y1=st.floats(-100, 100), log_y2=st.floats(-100, 100),
           log_gap=st.floats(-6, 6), log_x1=st.one_of(st.none(), st.floats(-6, 6)),
           signs=st.tuples(st.sampled_from([-1, 1]), st.sampled_from([-1, 1])))
    def test_relative_error_against_mpmath(self, log_y1, log_y2, log_gap, log_x1, signs):
        # heights 1e-100..1e100; the twist gap and x1 span 12 decades of the larger
        # height, so x2 != x1 and both endpoints are finite
        y1, y2 = 10.0 ** log_y1, 10.0 ** log_y2
        x1 = 0.0 if log_x1 is None else signs[0] * 10.0 ** log_x1 * max(y1, y2)
        x2 = x1 + signs[1] * 10.0 ** log_gap * max(y1, y2)
        got = sorted(_ideal_endpoints(x1, y1, x2, y2))
        for value, exact in zip(got, ideal_endpoints_oracle(x1, y1, x2, y2), strict=True):
            # the sum x1 + (xi - x1) can cancel, so the error is relative to its terms;
            # at most 6.6e-16 over 220,000 random cases from these ranges
            scale = abs(x1) + abs(float(exact) - x1)
            assert abs(value - exact) <= 1e-15 * scale

    def test_vertical_geodesic_has_one_endpoint(self):
        assert _ideal_endpoints(0.25, 1e-100, 0.25, 1e100) == (0.25,)
        assert _ideal_endpoints(-3.0, 2.0, -3.0, 0.5) == (-3.0,)


class TestPairCurveFamily:
    @pytest.mark.parametrize("surface", ["genus2", "holed_torus", "punctured_torus"])
    @pytest.mark.parametrize("i_max, twist_bound", [(1, 0), (2, 8), (3, 1)])
    def test_default_is_the_builder_on_box_offsets(self, request, surface, i_max,
                                                   twist_bound):
        marking = request.getfixturevalue(surface)
        box = np.arange(-twist_bound, twist_bound + 1)
        built = _curve_family(marking, [box] * len(marking.curves), i_max)
        default = default_curve_family(marking, i_max, twist_bound)
        for name in ("cells", "index"):
            assert all(np.array_equal(a, b) for a, b in
                       zip(getattr(built, name), getattr(default, name), strict=True))
        assert np.array_equal(built.key, default.key)
        assert built.patterns == default.patterns

    def test_offsets_untwist_both_points_and_reach_the_geodesic_endpoints(self, genus2):
        # g1 10 apart in twist at l1 = 0.01: the annulus ratio peaks at
        # b = -xi for the geodesic endpoints xi = 5 +- sqrt(25 + 100^2)
        sigma, tau = genus2_point(l1=0.01, s1=0.0), genus2_point(l1=0.01, s1=10.0)
        family = pair_curve_family(genus2, sigma, tau)
        cells = family.cells[genus2.curves.index("g1")]
        offsets = set(cells[cells[:, 0] > 0, 1].tolist())
        assert {0, -10, 32, -32, -42, 22, -106, -105, 95, 96} <= offsets
        assert offsets <= {0, -10, 32, -32, -42, 22, -107, -106, -105, -104, 94, 95, 96, 97}
        assert np.array_equal(np.array(family.patterns)[family.key], family_rows(family)[:, :, 0])
        assert family.patterns == default_curve_family(genus2, twist_bound=0).patterns

    def test_not_below_the_box_on_demo_pairs_and_the_criterion_9_grid(self, genus2):
        box = default_curve_family(genus2)
        points = [parse_fn(path.read_text(), genus2) for path in sorted(DATA.glob("genus2_*.fn"))]
        pairs = list(itertools.combinations(points, 2))
        assert len(pairs) == 10
        for l1 in (1e-2, 1e-3):
            sigma = genus2_point(l1=l1)
            for shift, ratio in itertools.product((2 ** j for j in range(4, 13)),
                                                  (10.0, 100.0, 1000.0)):
                pairs.append((sigma, genus2_point(l1=l1 / ratio, s1=shift)))
        for sigma, tau in pairs:
            family = pair_curve_family(genus2, sigma, tau)
            assert len(family) < len(box)
            assert (kerckhoff_distance_estimate(sigma, tau, family, genus2)
                    >= kerckhoff_distance_estimate(sigma, tau, box, genus2))

    # twists on a 2^-20 grid, so adding a power up to 10^4 is exact in floating
    # point; with arbitrary floats a shift can merge two twists (0 and 1e-241
    # both become 1.0 under one twist), which changes the pair itself
    TWIST = st.integers(-30 * 2 ** 20, 30 * 2 ** 20).map(lambda n: n / 2 ** 20)
    POINT = st.tuples(st.lists(st.floats(-3.0, 0.4), min_size=3, max_size=3),
                      st.lists(TWIST, min_size=3, max_size=3))

    @settings(derandomize=True, deadline=None, database=None, max_examples=100)
    @given(POINT, POINT, st.sampled_from(["g1", "g2", "g3"]), st.integers(-10 ** 4, 10 ** 4))
    def test_dehn_twist_of_both_points_keeps_the_estimate(self, genus2, first, second,
                                                          curve, power):
        sigma, tau = (FNPoint({c: 10.0 ** e for c, e in zip(genus2.curves, exponents)},
                              dict(zip(genus2.curves, twists)))
                      for exponents, twists in (first, second))
        before = kerckhoff_distance_estimate(
            sigma, tau, pair_curve_family(genus2, sigma, tau), genus2)
        sigma, tau = (fn_dehn_twist(point, curve, power) for point in (sigma, tau))
        after = kerckhoff_distance_estimate(
            sigma, tau, pair_curve_family(genus2, sigma, tau), genus2)
        assert after == pytest.approx(before, rel=1e-12)


class TestKerckhoffDistanceEstimate:
    def test_identity_point(self, genus2):
        sigma = genus2_point(l1=0.05)
        family = default_curve_family(genus2, twist_bound=3)
        assert kerckhoff_distance_estimate(sigma, sigma, family, genus2) == 0.0

    def test_symmetry(self, genus2):
        family = default_curve_family(genus2, twist_bound=3)
        sigma = genus2_point(l1=0.05, s1=0.2)
        tau = genus2_point(l1=0.008, s1=3.7, l2=0.9)
        forward = kerckhoff_distance_estimate(sigma, tau, family, genus2)
        backward = kerckhoff_distance_estimate(tau, sigma, family, genus2)
        assert forward == backward
        assert forward > 0

    def test_family_monotonicity(self, genus2):
        sigma = genus2_point(l1=0.05)
        tau = fn_dehn_twist(sigma, "g1", 40)
        small = default_curve_family(genus2, i_max=1, twist_bound=2)
        large = members_family(
            family_members(small)
            + family_members(default_curve_family(genus2, i_max=2, twist_bound=6))
        )
        d_small = kerckhoff_distance_estimate(sigma, tau, small, genus2)
        d_large = kerckhoff_distance_estimate(sigma, tau, large, genus2)
        assert d_large >= d_small

    def test_empty_family_rejected(self, genus2):
        with pytest.raises(ValidationError):
            CurveFamily(())

    def test_member_missing_a_curve_rejected(self, genus2):
        family = CurveFamily([{"g1": (1, 0, 0), "g2": (1, 0, 0)}])
        sigma = genus2_point()
        with pytest.raises(ValidationError):
            kerckhoff_distance_estimate(sigma, sigma, family, genus2)

    def test_member_with_extra_curve_rejected(self, genus2):
        family = CurveFamily([
            {"g1": (1, 0, 0), "g2": (1, 0, 0), "g3": (0, 0, 0), "g4": (2, 0, 0)}])
        sigma = genus2_point()
        with pytest.raises(ValidationError):
            kerckhoff_distance_estimate(sigma, sigma, family, genus2)

    def test_members_over_different_curves_rejected(self, genus2):
        members = family_members(default_curve_family(genus2, i_max=1, twist_bound=0))
        with pytest.raises(ValidationError):
            members_family(members + (CurveSystem({"g1": (0, 0, 1)}),))

    def test_family_from_members_gives_the_same_estimate(self, genus2):
        family = default_curve_family(genus2, twist_bound=3)
        rebuilt = members_family(reversed(family_members(family)))
        sigma = genus2_point(l1=0.05, s1=0.2)
        tau = genus2_point(l1=0.008, s1=3.7, l2=0.9)
        assert kerckhoff_distance_estimate(sigma, tau, rebuilt, genus2) == (
            kerckhoff_distance_estimate(sigma, tau, family, genus2)
        )

    def test_independent_of_curve_order_in_surface_file(self):
        text = (DATA / "genus2.surf").read_text()
        reordered = text.replace("g1 = +\ng2 = +\ng3 = +\n", "g3 = +\ng1 = +\ng2 = +\n")
        assert reordered != text
        sigma = genus2_point(l1=0.01, s1=0.0)
        tau = genus2_point(l1=0.004, l2=0.05, s1=37.5, s2=-2.25)
        values = []
        for marking in (parse_surface(text), parse_surface(reordered)):
            family = default_curve_family(marking, twist_bound=4)
            values.append(kerckhoff_distance_estimate(sigma, tau, family, marking))
        assert parse_surface(reordered).curves == ("g3", "g1", "g2")
        assert values[0] == values[1] > 0

    @pytest.mark.parametrize("twists", [{"s1": 1e200}, {"s2": 1e200}],
                             ids=["thin-annulus", "thick-twist-travel"])
    def test_non_finite_contribution_raises(self, genus2, twists):
        # a value with no meaning (inf before) is a numeric-domain error,
        # raised without numpy warnings
        family = default_curve_family(genus2, i_max=1, twist_bound=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericDomainError):
                kerckhoff_distance_estimate(genus2_point(), genus2_point(**twists),
                                            family, genus2)

    def test_agrees_with_surface_estimate_at_height_m_over_pi(self, genus2):
        # reference: ratio sup of the per-member max over components of
        # collar decompositions whose thin moduli are divided by pi
        family = default_curve_family(genus2, i_max=1, twist_bound=2)
        rng = np.random.default_rng(44)

        def scaled(point):
            dec = collar_decomposition(genus2, point)
            thin = tuple(dataclasses.replace(a, modulus=a.modulus / math.pi)
                         for a in dec.thin)
            return dataclasses.replace(dec, thin=thin)

        for _ in range(8):
            sigma, tau = (
                genus2_point(*np.exp(rng.uniform(np.log(1e-3), np.log(2.0), size=3)),
                             *rng.uniform(-5, 5, size=3))
                for _ in range(2)
            )
            d_sigma, d_tau = scaled(sigma), scaled(tau)
            sup = 1.0
            for beta in family_members(family):
                a = component_table(d_sigma, sigma, CurveFamily([beta.data])).max()
                b = component_table(d_tau, tau, CurveFamily([beta.data])).max()
                if a > 0.0 and b > 0.0:
                    sup = max(sup, a / b, b / a)
            assert kerckhoff_distance_estimate(sigma, tau, family, genus2) == (
                pytest.approx(0.5 * math.log(sup), rel=1e-12)
            )

    def test_twist_growth_slopes_match_product_metric(self, genus2):
        # twist-only deformations: both distances grow like log(shift) and
        # their fitted slopes agree within 15 percent
        family = default_curve_family(genus2)
        sigma = genus2_point(l1=0.01, s1=0.0)
        shifts = [2 ** j for j in range(4, 13)]
        d_hat, d_prod = [], []
        for shift in shifts:
            tau = fn_dehn_twist(sigma, "g1", shift)
            d_hat.append(kerckhoff_distance_estimate(sigma, tau, family, genus2))
            d_prod.append(
                hyp_distance(UHPoint(0.0, 100.0), UHPoint(float(shift), 100.0))
            )
        slope_hat = np.polyfit(np.log(shifts), d_hat, 1)[0]
        slope_prod = np.polyfit(np.log(shifts), d_prod, 1)[0]
        assert slope_hat == pytest.approx(slope_prod, rel=0.15)


class TestPiMap:
    def test_factor_coordinates(self, genus2):
        sigma = genus2_point(l1=0.01, s1=2.5)
        point = pi_map(sigma, ["g1"], genus2)
        assert point.factors == (UHPoint(2.5, 100.0),)
        assert set(point.base.lengths) == {"g2", "g3"}
        assert set(point.base.twists) == {"g2", "g3"}

    def test_empty_gamma(self, genus2):
        sigma = genus2_point()
        point = pi_map(sigma, [], genus2)
        assert point.factors == ()
        assert point.base == sigma

    def test_round_trip_reinserting_pairs(self, genus2):
        # deleting the (length, twist) pairs and re-inserting them recovers
        # the point exactly; twists ride along unchanged through the factors
        from teichlen import FNPoint

        rng = np.random.default_rng(52)
        for _ in range(50):
            sigma = genus2_point(
                *rng.uniform(0.005, 1.5, size=3), *rng.uniform(-5, 5, size=3)
            )
            for gamma in ([], ["g1"], ["g1", "g3"], ["g1", "g2", "g3"]):
                point = pi_map(sigma, gamma, genus2)
                lengths = dict(point.base.lengths)
                twists = dict(point.base.twists)
                for g, factor in zip(point.gamma, point.factors):
                    lengths[g] = sigma.length(g)
                    twists[g] = factor.x
                assert FNPoint(lengths, twists) == sigma

    def test_round_trip_through_reciprocal(self, genus2):
        # the y = 1/length factor coordinate inverts to within one ulp
        rng = np.random.default_rng(152)
        for _ in range(50):
            sigma = genus2_point(
                *rng.uniform(0.005, 1.5, size=3), *rng.uniform(-5, 5, size=3)
            )
            recovered = pi_map_inverse(pi_map(sigma, ["g1", "g2"], genus2))
            assert recovered.twists == sigma.twists
            for name in sigma.lengths:
                assert recovered.length(name) == pytest.approx(
                    sigma.length(name), rel=4e-16
                )

    def test_twist_locality(self, genus2):
        sigma = genus2_point(l1=0.01, s1=0.25)
        before = pi_map(sigma, ["g1"], genus2)
        after = pi_map(fn_dehn_twist(sigma, "g1", 1), ["g1"], genus2)
        assert after.base == before.base
        assert after.factors[0].x == before.factors[0].x + 1
        assert after.factors[0].y == before.factors[0].y

    def test_boundary_gamma_rejected(self, holed_torus):
        from teichlen import FNPoint

        sigma = FNPoint({"g1": 0.05, "b1": 1.0}, {"g1": 0.0})
        with pytest.raises(ValidationError):
            pi_map(sigma, ["b1"], holed_torus)


class TestProductDistance:
    def test_identity(self, genus2):
        p = pi_map(genus2_point(l1=0.01), ["g1"], genus2)
        assert product_distance(p, p, euclidean_base_metric) == 0.0

    def test_twist_only_factor_value(self, genus2):
        sigma = genus2_point(l1=0.01, s1=0.0)
        tau = fn_dehn_twist(sigma, "g1", 10)
        p, q = (pi_map(pt, ["g1"], genus2) for pt in (sigma, tau))
        value = product_distance(p, q, euclidean_base_metric)
        # frozen: (1/2) arccosh(1 + 100 / (2 * 10^4))
        assert value == pytest.approx(0.04997919006934813, abs=1e-15)

    def test_pinch_only_factor_value(self, genus2):
        sigma = genus2_point(l1=0.01)
        lengths = dict(sigma.lengths)
        lengths["g1"] = 0.001
        tau = type(sigma)(lengths, sigma.twists)
        p, q = (pi_map(pt, ["g1"], genus2) for pt in (sigma, tau))
        value = product_distance(p, q, euclidean_base_metric)
        assert value == pytest.approx(0.5 * math.log(10), abs=1e-12)

    def test_metric_axioms_with_exact_base(self, genus2):
        rng = np.random.default_rng(53)
        for _ in range(100):
            points = []
            for _ in range(3):
                sigma = genus2_point(
                    *rng.uniform(0.005, 1.5, size=3), *rng.uniform(-4, 4, size=3)
                )
                points.append(pi_map(sigma, ["g1"], genus2))
            p, q, r = points
            dpq = product_distance(p, q, euclidean_base_metric)
            assert dpq == product_distance(q, p, euclidean_base_metric)
            assert dpq >= max(
                hyp_distance(p.factors[0], q.factors[0]),
                euclidean_base_metric(p.base, q.base),
            )
            assert dpq <= (
                product_distance(p, r, euclidean_base_metric)
                + product_distance(r, q, euclidean_base_metric)
                + 1e-9
            )

    def test_shape_mismatch_rejected(self, genus2):
        p = pi_map(genus2_point(l1=0.01), ["g1"], genus2)
        q = pi_map(genus2_point(l1=0.01), ["g1", "g2"], genus2)
        with pytest.raises(ValidationError):
            product_distance(p, q, euclidean_base_metric)


def annulus_ratio(b, x1, y1, x2, y2):
    """The one-crossing annulus ratio profile, written out; its sup over b is k_ratio_sup."""
    return (y2 + (b + x2) ** 2 / y2) / (y1 + (b + x1) ** 2 / y1)


class TestAnnulusRatioCheck:
    def test_constant_for_equal_points(self):
        for b in (-3.0, 0.0, 5.0):
            assert _annulus_term(1, 0, 2.0, b + 0.3) / _annulus_term(1, 0, 2.0, b + 0.3) == 1.0

    def test_sup_over_offsets_matches_closed_form(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            x1, x2 = rng.uniform(-3, 3, size=2)
            y1, y2 = rng.uniform(0.3, 4, size=2)
            target = k_ratio_sup(UHPoint(x1, y1), UHPoint(x2, y2))
            grid = np.linspace(-200, 200, 40001)
            values = annulus_ratio(grid, x1, y1, x2, y2)
            k = int(np.argmax(values))
            lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
            for _ in range(80):  # ternary refinement around the best sample
                m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
                if annulus_ratio(m1, x1, y1, x2, y2) <= annulus_ratio(m2, x1, y1, x2, y2):
                    lo = m1
                else:
                    hi = m2
            sampled = annulus_ratio(0.5 * (lo + hi), x1, y1, x2, y2)
            sampled = max(sampled, y1 / y2)  # the unbounded-offset limit
            assert sampled <= target + 1e-9
            assert sampled == pytest.approx(target, abs=1e-6)


class TestProductRegionDiscrepancy:
    def test_identity_pair(self, genus2):
        sigma = genus2_point(l1=0.01)
        family = default_curve_family(genus2, twist_bound=3)
        report = product_region_discrepancy(
            sigma, sigma, ["g1"], genus2, family=family
        )
        assert report.d_teich == 0.0
        assert report.d_product == 0.0
        assert report.discrepancy == 0.0
        assert report.thin_ok

    def test_pinch_only_pair(self, genus2):
        sigma = genus2_point(l1=0.01)
        lengths = dict(sigma.lengths)
        lengths["g1"] = 0.001
        tau = type(sigma)(lengths, sigma.twists)
        family = default_curve_family(genus2, twist_bound=3)
        report = product_region_discrepancy(sigma, tau, ["g1"], genus2, family=family)
        assert report.d_product == pytest.approx(0.5 * math.log(10), abs=1e-12)
        assert report.discrepancy <= 0.2

    def test_thin_violation_warns(self, genus2):
        # thin_ok is the one report: no warning is raised besides it
        sigma = genus2_point(l1=0.5)
        family = default_curve_family(genus2, i_max=1, twist_bound=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = product_region_discrepancy(
                sigma, fn_dehn_twist(sigma, "g1", 5), ["g1"], genus2, family=family
            )
        assert not report.thin_ok


class TestProductModel:
    def test_one_pinch_and_one_base_family_per_marking_and_gamma(self, genus2, monkeypatch):
        import teichlen.distance as distance

        pinches, builds = [], []
        pinch, build = Marking.pinch, distance.default_curve_family
        monkeypatch.setattr(Marking, "pinch",
                            lambda self, gamma: pinches.append(gamma) or pinch(self, gamma))
        monkeypatch.setattr(distance, "default_curve_family",
                            lambda marking, *a: builds.append(marking) or build(marking, *a))
        family = default_curve_family(genus2, twist_bound=3)
        sigma = genus2_point()
        product_model.cache_clear()
        reports = [product_region_discrepancy(sigma, genus2_point(l1=0.01 / (k + 2), s1=k),
                                              ["g1"], genus2, family=family)
                   for k in range(20)]
        assert len(pinches) == 1 and len(builds) == 1
        assert builds[0] == genus2.pinch(["g1"])
        assert all(report.gamma == ("g1",) for report in reports)
        for k, report in enumerate(reports):
            product_model.cache_clear()  # a fresh model for every pair
            tau = genus2_point(l1=0.01 / (k + 2), s1=k)
            assert product_region_discrepancy(sigma, tau, ["g1"], genus2,
                                              family=family) == report

    def test_reports_match_a_fresh_pinch(self, genus2):
        # reference: pinch and build the base family by hand
        family = default_curve_family(genus2, twist_bound=3)
        pinched = genus2.pinch(["g1", "g3"])
        base_family = default_curve_family(pinched)
        sigma = genus2_point(l1=0.004, l3=0.02)
        for k in range(5):
            tau = genus2_point(l1=0.002, l2=1.2 + 0.1 * k, l3=0.05, s1=3.0 * k, s2=-k)
            report = product_region_discrepancy(sigma, tau, ["g3", "g1"], genus2,
                                                family=family)
            expected = product_distance(
                pi_map(sigma, ["g1", "g3"], genus2), pi_map(tau, ["g1", "g3"], genus2),
                lambda a, b: kerckhoff_distance_estimate(a, b, base_family, pinched))
            assert report.d_product == expected
            assert report.d_teich == kerckhoff_distance_estimate(sigma, tau, family, genus2)

    def test_shared_by_equal_markings(self):
        text = (DATA / "genus2.surf").read_text()
        first, second = parse_surface(text), parse_surface(text)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert product_model(first, ("g1",)) is product_model(second, ("g1",))
        assert product_model(first, ("g1",)) is not product_model(first, ("g1", "g2"))
        pinched, base = product_model(first, ("g1", "g2"))
        assert pinched.curves == base.curves == ("g3",)

    @pytest.mark.parametrize("surface", ["holed_torus", "punctured_torus"])
    def test_no_base_curve_left(self, request, surface):
        marking = request.getfixturevalue(surface)
        boundary = {name: 1.5 for name in marking.decomposition.boundary_names()}
        sigma = FNPoint({"g1": 0.05, **boundary}, {"g1": 0.25})
        tau = FNPoint({"g1": 0.004, **boundary}, {"g1": -3.0})
        pinched, base = product_model(marking, ("g1",))
        assert pinched.curves == () and base is None
        report = product_region_discrepancy(sigma, tau, ["g1"], marking)
        assert report.d_product == hyp_distance(UHPoint(0.25, 1 / 0.05),
                                                UHPoint(-3.0, 1 / 0.004))
        assert report.thin_ok and math.isfinite(report.d_teich)


class TestArgumentValidation:
    @pytest.mark.parametrize("call", [
        lambda m: default_curve_family(m, 2, -1),
        lambda m: default_curve_family(m, -1, 2),
        lambda m: default_curve_family(m, 2.5, 2),
        lambda m: default_curve_family(m, 2, 2.0),
        lambda m: torus_family_estimate(UHPoint(0.0, 1.0), UHPoint(1.0, 2.0), 2.5),
        lambda m: torus_family_estimate(UHPoint(0.0, 1.0), UHPoint(1.0, 2.0), 0),
    ], ids=["negative-twist-bound", "negative-i-max", "float-i-max", "float-twist-bound",
            "float-n-max", "zero-n-max"])
    def test_raises_validation_error(self, genus2, call):
        with pytest.raises(ValidationError):
            call(genus2)

    def test_product_region_discrepancy_defaults_to_the_default_family(self, genus2):
        sigma, tau = genus2_point(), genus2_point(l1=0.004, s1=3.0)
        assert (product_region_discrepancy(sigma, tau, ["g1"], genus2)
                == product_region_discrepancy(sigma, tau, ["g1"], genus2,
                                              family=pair_curve_family(genus2, sigma, tau)))

    def test_unknown_gamma_rejected_before_any_estimate(self, genus2, monkeypatch):
        calls = []
        estimate = teichlen.distance.kerckhoff_distance_estimate
        monkeypatch.setattr(teichlen.distance, "kerckhoff_distance_estimate",
                            lambda *a, **k: calls.append(a) or estimate(*a, **k))
        sigma = genus2_point()
        with pytest.raises(ValidationError, match="unknown curves"):
            product_region_discrepancy(sigma, sigma, ["x"], genus2)
        assert calls == []


@pytest.mark.parametrize("call", [
    lambda: ProductPoint(FNPoint({}, {}), ("g1",), ()),
], ids=["factor-count"])
def test_invalid_product_inputs_rejected(call):
    with pytest.raises(ValidationError):
        call()
