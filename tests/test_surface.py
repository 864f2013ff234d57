"""Markings, Fenchel-Nielsen points, curve systems, and twist calculus."""

import math

import numpy as np
import pytest

from teichlen import (
    CurveSystem,
    FNPoint,
    Marking,
    SurfaceSpec,
    TwistUndefinedError,
    ValidationError,
    core_curve,
    curve_dehn_twist,
    estimated_twist,
    fn_dehn_twist,
)
from teichlen.surface import CURVE, PUNCTURE, End, Pants, PantsDecomposition
from teichlen.surface import BOUNDARY

from conftest import genus2_curve, genus2_point


class TestSurfaceSpec:
    def test_euler_characteristic(self):
        assert SurfaceSpec(2).euler_characteristic == -2
        assert SurfaceSpec(1, punctures=1).euler_characteristic == -1

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(ValidationError):
            SurfaceSpec(1)
        with pytest.raises(ValidationError):
            SurfaceSpec(0, punctures=2)

    def test_curve_and_pants_counts(self):
        assert SurfaceSpec(2).internal_curve_count == 3
        assert SurfaceSpec(2).pants_count == 2
        assert SurfaceSpec(1, punctures=1).internal_curve_count == 1
        assert SurfaceSpec(1, boundary=1).internal_curve_count == 1
        assert SurfaceSpec(3).internal_curve_count == 6


class TestBuildMarking:
    def test_genus2_accepted(self, genus2):
        assert genus2.curves == ("g1", "g2", "g3")
        assert len(genus2.decomposition.pants) == 2

    def test_punctured_torus_accepted(self, punctured_torus):
        assert punctured_torus.curves == ("g1",)

    def test_wrong_curve_count_rejected(self):
        dec = PantsDecomposition(
            ("g1", "g2"),
            (
                Pants("pA", (End(CURVE, "g1"), End(CURVE, "g2"), End(CURVE, "g1"))),
                Pants("pB", (End(CURVE, "g2"), End(PUNCTURE, "q1"), End(PUNCTURE, "q2"))),
            ),
        )
        with pytest.raises(ValidationError):
            Marking(dec, {"g1": 0, "g2": 0}, SurfaceSpec(2))

    def test_dangling_end_rejected(self):
        dec = PantsDecomposition(
            ("g1", "g2", "g3"),
            (
                Pants("pA", (End(CURVE, "g1"), End(CURVE, "g2"), End(CURVE, "g3"))),
                Pants("pB", (End(CURVE, "g1"), End(CURVE, "g2"), End(CURVE, "g2"))),
            ),
        )
        with pytest.raises(ValidationError):
            Marking(dec, {"g1": 0, "g2": 0, "g3": 0}, SurfaceSpec(2))

    def test_bad_seam_matching_rejected(self, genus2):
        with pytest.raises(ValidationError):
            Marking(genus2.decomposition, {"g1": 0, "g2": 2, "g3": 0}, genus2.spec)
        with pytest.raises(ValidationError):
            Marking(genus2.decomposition, {"g1": 0, "g2": 0}, genus2.spec)

    def test_exact_curve_count_law(self):
        # closed genus-g surfaces with p punctures need 3g - 3 + p curves
        for genus, punctures in ((2, 0), (1, 1), (1, 2), (2, 1), (0, 4)):
            spec = SurfaceSpec(genus, punctures=punctures)
            assert spec.internal_curve_count == 3 * genus - 3 + punctures


class TestPinch:
    def test_pinch_one_curve(self, genus2):
        pinched = genus2.pinch(["g1"])
        assert pinched.curves == ("g2", "g3")
        kinds = [
            (end.kind, end.name)
            for pants in pinched.decomposition.pants
            for end in pants.ends
            if end.kind == PUNCTURE
        ]
        assert sorted(kinds) == [(PUNCTURE, "g1.a"), (PUNCTURE, "g1.b")]

    def test_pinch_all(self, genus2):
        pinched = genus2.pinch(["g1", "g2", "g3"])
        assert pinched.curves == ()
        ends = [e for p in pinched.decomposition.pants for e in p.ends]
        assert sum(e.kind == PUNCTURE for e in ends) == 6

    def test_unknown_curve_rejected(self, genus2):
        with pytest.raises(ValidationError):
            genus2.pinch(["nope"])


class TestFNPoint:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValidationError):
            FNPoint({"g1": 0.0}, {"g1": 0.0})

    def test_validate_for_marking(self, genus2):
        genus2_point().validate_for(genus2)
        with pytest.raises(ValidationError):
            FNPoint({"g1": 1.0}, {"g1": 0.0}).validate_for(genus2)

    def test_boundary_lengths_required(self, holed_torus):
        with pytest.raises(ValidationError):
            FNPoint({"g1": 1.0}, {"g1": 0.0}).validate_for(holed_torus)
        FNPoint({"g1": 1.0, "b1": 2.0}, {"g1": 0.0}).validate_for(holed_torus)


class TestCurveSystem:
    def test_intersection_number(self):
        beta = genus2_curve(i1=3, b1=1, i2=1, i3=2)
        assert beta.intersection("g1") == 3

    def test_core_reports_zero_intersection(self, genus2):
        core = core_curve(genus2, "g1")
        assert core.intersection("g1") == 0
        assert core.data["g1"] == (0, 0, 1)

    def test_core_with_crossings_rejected(self):
        with pytest.raises(ValidationError):
            CurveSystem({"g1": (2, 0, 1)})

    def test_parity_validation(self, genus2):
        with pytest.raises(ValidationError):
            genus2_curve(i1=1).validate_for(genus2)
        genus2_curve(i1=1, i2=1).validate_for(genus2)

    def test_self_glued_parity(self, punctured_torus):
        # both ends of g1 lie on the same pants, so any count is even there
        CurveSystem({"g1": (1, 0, 0)}).validate_for(punctured_torus)

    def test_unknown_curve_id(self):
        with pytest.raises(ValidationError):
            genus2_curve().intersection("zz")


class TestTwistCalculus:
    def test_fn_dehn_twist_shifts_one_coordinate(self):
        sigma = genus2_point(s1=0.0)
        moved = fn_dehn_twist(sigma, "g1", 1)
        assert moved.twist("g1") == 1.0
        assert moved.twist("g2") == sigma.twist("g2")
        assert moved.lengths == sigma.lengths

    def test_fn_dehn_twist_identity_and_inverse(self):
        sigma = genus2_point(s1=0.25)
        assert fn_dehn_twist(sigma, "g1", 0) == sigma
        assert fn_dehn_twist(fn_dehn_twist(sigma, "g1", -2), "g1", 2) == sigma

    def test_fn_dehn_twist_boundaryless_curve_rejected(self, genus2):
        with pytest.raises(ValidationError):
            fn_dehn_twist(genus2_point(), "b1", 1)

    def test_curve_dehn_twist_offsets(self):
        beta = genus2_curve(i1=2, b1=0, i2=2)
        assert curve_dehn_twist(beta, "g1", 1).data["g1"] == (2, 1, 0)
        assert curve_dehn_twist(beta, "g1", 3) == curve_dehn_twist(
            curve_dehn_twist(curve_dehn_twist(beta, "g1", 1), "g1", 1), "g1", 1
        )

    def test_curve_dehn_twist_trivial_on_disjoint(self):
        beta = genus2_curve(i2=2, b2=5)
        assert curve_dehn_twist(beta, "g1", 4) == beta

    def test_estimated_twist_value(self):
        beta = genus2_curve(i1=1, b1=3, i2=1)
        sigma = genus2_point(s1=-1.25)
        assert estimated_twist(beta, sigma, "g1") == pytest.approx(1.75)

    def test_estimated_twist_zero(self):
        beta = genus2_curve(i1=1, b1=0, i2=1)
        assert estimated_twist(beta, genus2_point(s1=0.0), "g1") == 0.0

    def test_estimated_twist_undefined_without_crossing(self, genus2):
        with pytest.raises(TwistUndefinedError):
            estimated_twist(core_curve(genus2, "g1"), genus2_point(), "g1")

    def test_exact_shift_under_fn_twist(self):
        # dyadic twists keep the float arithmetic exact
        rng = np.random.default_rng(21)
        beta = genus2_curve(i1=2, b1=0, i2=2)
        for _ in range(300):
            s1 = rng.integers(-(2**24), 2**24) / 2**20
            sigma = genus2_point(s1=float(s1))
            k = int(rng.integers(-50, 51))
            before = estimated_twist(beta, sigma, "g1")
            after = estimated_twist(beta, fn_dehn_twist(sigma, "g1", k), "g1")
            assert after - before == k

    def test_exact_shift_under_curve_twist(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            s1 = rng.integers(-(2**24), 2**24) / 2**20
            sigma = genus2_point(s1=float(s1))
            beta = genus2_curve(i1=2, b1=int(rng.integers(-8, 9)), i2=2)
            k = int(rng.integers(-50, 51))
            before = estimated_twist(beta, sigma, "g1")
            after = estimated_twist(curve_dehn_twist(beta, "g1", k), sigma, "g1")
            assert after - before == k

    def test_intersection_parity_preserved_by_twists(self, genus2):
        rng = np.random.default_rng(23)
        beta = genus2_curve(i1=2, b1=0, i2=1, i3=1)
        beta.validate_for(genus2)
        for _ in range(50):
            j = ("g1", "g2", "g3")[rng.integers(0, 3)]
            beta = curve_dehn_twist(beta, j, int(rng.integers(-5, 6)))
        beta.validate_for(genus2)
        assert beta.intersection("g1") == 2


@pytest.mark.parametrize("coords", [(1, 0), (1, 0, 0, 0), ("a", 0, 0), (float("nan"), 0, 0),
                                    (1, float("inf"), 0), (1.5, 0, 0), None],
                         ids=["two", "four", "text", "nan", "inf", "fraction", "none"])
def test_curve_system_rejects_malformed_coordinates(coords):
    with pytest.raises(ValidationError):
        CurveSystem({"g1": coords})


G1 = End(CURVE, "g1")
TORUS = (Pants("p", (G1, G1, End(PUNCTURE, "cusp"))),)


def two_pants(kind):
    """Two pants glued along g1 whose first free ends share one name."""
    return PantsDecomposition(("g1",), (Pants("pA", (G1, End(kind, "x"), End(kind, "y"))),
                                        Pants("pB", (G1, End(kind, "x"), End(kind, "z")))))


@pytest.mark.parametrize("call", [
    lambda g: End("ring", "x"),
    lambda g: End(CURVE, ""),
    lambda g: Pants("p", (G1, G1)),
    lambda g: SurfaceSpec(2, punctures=-1),
    lambda g: PantsDecomposition(("g1",), TORUS, (1, 1)),
    lambda g: PantsDecomposition(("g1",), TORUS, (2,)),
    lambda g: PantsDecomposition(("g1", "g1"), TORUS),
    lambda g: PantsDecomposition(("g1",), TORUS + TORUS),
    lambda g: Marking(PantsDecomposition(
        ("g1",), (Pants("p", (G1, End(CURVE, "g2"), End(PUNCTURE, "cusp"))),)), {"g1": 0}),
    lambda g: Marking(two_pants(BOUNDARY), {"g1": 0}),
    lambda g: Marking(two_pants(PUNCTURE), {"g1": 0}),
    lambda g: Marking(PantsDecomposition(("g1",), TORUS + (Pants("q", tuple(
        End(PUNCTURE, name) for name in "xyz")),)), {"g1": 0}, SurfaceSpec(1, punctures=1)),
    lambda g: Marking(PantsDecomposition(("g1",), TORUS), {"g1": 0}, SurfaceSpec(1, boundary=1)),
    lambda g: FNPoint({"g1": 1.0}, {"g1": math.inf}),
    lambda g: FNPoint({"g1": 1.0}, {"g1": 0.0}).length("g2"),
    lambda g: FNPoint({"g1": 1.0}, {"g1": 0.0}).twist("g2"),
    lambda g: FNPoint({"g1": 1.0, "g2": 1.0, "g3": 1.0}, {"g1": 0.0}).validate_for(g),
    lambda g: CurveSystem({"g1": (0, 0, -1)}),
    lambda g: CurveSystem({"g1": (0, 0, 1)}).validate_for(g),
    lambda g: core_curve(g, "g4"),
], ids=["end-kind", "end-name", "two-ends", "negative-count", "orientation-count",
        "orientation-sign", "curve-name-twice", "pants-name-twice", "unknown-curve",
        "boundary-twice", "puncture-twice", "pants-count", "boundary-count", "infinite-twist",
        "no-length", "no-twist", "twists-mismatch", "negative-copies", "other-curves",
        "core-of-unknown-curve"])
def test_invalid_structures_rejected(genus2, call):
    with pytest.raises(ValidationError):
        call(genus2)
