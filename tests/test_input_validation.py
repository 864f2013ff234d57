"""Invalid sizes, counts and non-finite inputs raise ValidationError; extreme
inputs to the pair curve family raise a TeichlenError or give a finite estimate."""

import dataclasses
import math

import numpy as np
import pytest

from teichlen import (
    CurveSystem,
    FlatAnnulus,
    FNPoint,
    NumericDomainError,
    TorusLattice,
    UHPoint,
    ValidationError,
    arc_multiplicities,
    collar_modulus,
    core_curve,
    curve_dehn_twist,
    default_curve_family,
    distortion_transfer_check,
    euclidean_space,
    flat_annulus_twist,
    fn_dehn_twist,
    hexagon_side,
    hyp_product_space,
    instability_lower_bound,
    kerckhoff_distance_estimate,
    pair_curve_family,
    sup_product_space,
    torus_extremal_length,
    torus_family_estimate,
)

from conftest import genus2_curve, make_genus2_marking

SPACES = {"euclidean": euclidean_space, "supprod": sup_product_space,
          "hyp-product": hyp_product_space}


@pytest.mark.parametrize("size", [2.0, "2", 0, -1, None, True])
@pytest.mark.parametrize("kind", sorted(SPACES))
def test_space_size_checked_at_construction(kind, size):
    with pytest.raises(ValidationError):
        SPACES[kind](size)


GENUS2 = make_genus2_marking()
Z = UHPoint(0.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: arc_multiplicities(1.5, 0.5, 0),
    lambda: arc_multiplicities(2.0, 1, 1),
    lambda: fn_dehn_twist(FNPoint({"g1": 1.0}, {"g1": 0.0}), "g1", 0.5),
    lambda: fn_dehn_twist(FNPoint({"g1": 1.0}, {"g1": 0.0}), "g1", True),
    lambda: arc_multiplicities(True, True, 0),
    lambda: curve_dehn_twist(genus2_curve(), "g1", "abc"),
    lambda: curve_dehn_twist(genus2_curve(), "g1", None),
    lambda: curve_dehn_twist(genus2_curve(), "g1", math.nan),
    lambda: curve_dehn_twist(genus2_curve(i1=2), "g1", True),
    lambda: core_curve(GENUS2, "g1", True),
    lambda: CurveSystem({"g1": (True, 0, 0)}),
    lambda: CurveSystem({"g1": (2.0, 0, 0)}),
    lambda: CurveSystem({"g1": (2, 0.0, 0)}),
    lambda: CurveSystem({"g1": (np.True_, 0, 0)}),
    lambda: default_curve_family(GENUS2, True),
    lambda: default_curve_family(GENUS2, 2, 1.5),
    lambda: torus_family_estimate(Z, Z, True),
], ids=["arc-fraction", "arc-float", "dehn-twist",
        "dehn-twist-bool", "arc-bool", "curve-dehn-twist-missed-str",
        "curve-dehn-twist-missed-None", "curve-dehn-twist-missed-nan",
        "curve-dehn-twist-bool", "core-copies-bool", "curve-coordinate-bool",
        "curve-coordinate-float-i", "curve-coordinate-float-b", "curve-coordinate-numpy-bool",
        "family-i_max-bool", "family-twist_bound-float", "torus-family-bool"])
def test_non_integer_counts_rejected(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("call", [
    lambda: hexagon_side(math.nan, 1.0, 1.0),
    lambda: FlatAnnulus(math.inf, 1.0),
    lambda: distortion_transfer_check({(0.0, 1.0): 0.0}, {(0.0, 1.0): 0.0}, math.nan),
    lambda: torus_extremal_length(TorusLattice(1, 1j), math.nan, 1.0),
    lambda: torus_extremal_length(TorusLattice(1, 1j), math.inf, 1.0),
    lambda: flat_annulus_twist(FlatAnnulus(1, 1), math.nan, 0.0),
    lambda: collar_modulus(math.inf, 0.5),
    lambda: collar_modulus(0.1, math.inf),
], ids=["hexagon_side", "FlatAnnulus", "distortion_transfer_check",
        "torus_extremal_length-nan", "torus_extremal_length-inf", "flat_annulus_twist",
        "collar_modulus-core", "collar_modulus-eps0"])
def test_non_finite_kernel_input_rejected(call):
    with pytest.raises(ValidationError, match="finite"):
        call()


@pytest.mark.parametrize("call", [
    lambda: UHPoint("a", 1.0),
    lambda: UHPoint(0.0, None),
    lambda: UHPoint(True, 1.0),
    lambda: FNPoint({"g1": "1"}, {"g1": 0.0}),
    lambda: FNPoint({"g1": True}, {"g1": 0.0}),
    lambda: FNPoint({"g1": 1.0}, {"g1": "0"}),
], ids=["UHPoint-str-x", "UHPoint-None-y", "UHPoint-bool-x", "FNPoint-str-length",
        "FNPoint-bool-length", "FNPoint-str-twist"])
def test_non_number_point_coordinates_rejected(call):
    with pytest.raises(ValidationError):
        call()


def _search_with_random_triple(triple):
    space = dataclasses.replace(sup_product_space(2), witnesses=None,
                                random_triple=lambda rng, delta, L: triple)
    return instability_lower_bound(space, 0.0, 1.0, budget=5)


@pytest.mark.parametrize("call", [
    lambda: sup_product_space(2).distance((0.0, math.nan), (1.0, 1.0)),
    lambda: _search_with_random_triple(((0.0, 1.0), (1.0, None), (2.0, 0.0))),
], ids=["distance-nan", "search-None"])
def test_non_finite_normed_point_coordinates_rejected(call):
    # nan once came back as a distance, and None was read as nan and filtered out
    with pytest.raises(ValidationError, match="finite"):
        call()


def test_numpy_coordinates_accepted():
    assert UHPoint(np.float64(0.5), np.int64(2)) == complex(0.5, 2.0)
    point = FNPoint({"g1": np.float64(0.5)}, {"g1": np.int64(1)})
    assert (point.length("g1"), point.twist("g1")) == (0.5, 1)
    beta = CurveSystem({"g1": (np.int64(2), np.int64(-1), 0)})
    assert [type(x) for x in beta.data["g1"]] == [int, int, int]  # stored as plain ints


BALANCED = FNPoint({"g1": 0.5, "g2": 1.0, "g3": 1.0}, {"g1": 0.0, "g2": 0.0, "g3": 0.0})


@pytest.mark.parametrize("twist", [1e200, 1e300])
def test_pair_family_offset_outside_int64_rejected(twist):
    far = FNPoint(BALANCED.lengths, {**BALANCED.twists, "g2": twist})
    for pair in ((BALANCED, far), (far, BALANCED)):
        with pytest.raises(NumericDomainError, match="g2"):
            pair_curve_family(GENUS2, *pair)


@pytest.mark.parametrize("twist", [0.0, 0.25])
def test_pair_family_estimate_finite_at_height_1e300(twist):
    # 1/l overflows the geodesic's far endpoint, which is left out; the box
    # family gives 343.63 for this pair
    thin = FNPoint({**BALANCED.lengths, "g1": 1e-300}, {**BALANCED.twists, "g1": twist})
    box = kerckhoff_distance_estimate(BALANCED, thin, default_curve_family(GENUS2), GENUS2)
    for sigma, tau in ((BALANCED, thin), (thin, BALANCED)):
        value = kerckhoff_distance_estimate(sigma, tau, pair_curve_family(GENUS2, sigma, tau),
                                            GENUS2)
        assert math.isfinite(value) and value >= box > 343
