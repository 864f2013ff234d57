"""The pi-image space: hyp-product:k over the k pinched curves, under its own name.

Points are k-tuples of half-plane factors; every value and witness is
that of hyp_product_space(k).
"""

import pathlib
import random

import numpy as np
import pytest

from teichlen import (
    UHPoint,
    ValidationError,
    growth_rate_estimate,
    hyp_distance,
    hyp_product_space,
    instability_lower_bound,
    pi_image_space,
    segment_distance,
)
from teichlen.files import parse_surface

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
LADDER = [0.3, 3.0, 30.0, 100.0, 300.0]


class TestPiImageSpace:
    def test_distance_axioms_on_random_triples(self, genus2):
        space = pi_image_space(genus2, gamma=("g1", "g2"))
        rng = random.Random(71)
        for _ in range(20):
            x, y, z = space.random_triple(rng, 0.1, 2.0)
            assert space.distance(x, x) == 0.0
            assert space.distance(x, y) == space.distance(y, x)
            assert space.distance(x, y) <= (
                space.distance(x, z) + space.distance(z, y) + 1e-9
            )

    def test_distance_is_max_of_factor_distances(self, genus2):
        space = pi_image_space(genus2, gamma=("g1", "g2", "g3"))
        p = (UHPoint(0.0, 1.0),) * 3
        q = (p[0], UHPoint(0.0, 4.0), p[2])
        assert space.distance(p, q) == pytest.approx(
            hyp_distance(UHPoint(0.0, 1.0), UHPoint(0.0, 4.0))
        )

    def test_sup_witness_reaches_half_length(self, genus2):
        space = pi_image_space(genus2)
        for L in (1.0, 10.0, 100.0):
            value, witness = instability_lower_bound(space, 0.0, L, budget=60)
            assert value >= L / 2 - 1e-9
            assert witness is not None

    @pytest.mark.parametrize("L", [1.0, 10.0, 100.0, 1000.0, 10000.0])
    def test_factor_hooks_match_hyp_product(self, genus2, L):
        # L <= 100 runs the structured witnesses (k >= 2); L >= 1000 only random triples
        for delta in (0.0, 0.1):
            for gamma in (("g1",), ("g1", "g2"), ("g1", "g2", "g3")):
                pi_value, pi_witness = instability_lower_bound(
                    pi_image_space(genus2, gamma=gamma), delta, L, budget=50, seed=5)
                hyp_value, hyp_witness = instability_lower_bound(
                    hyp_product_space(len(gamma)), delta, L, budget=50, seed=5)
                assert pi_value.hex() == hyp_value.hex() and pi_value > 0.0
                assert ((pi_witness.x, pi_witness.y, pi_witness.z)
                        == (hyp_witness.x, hyp_witness.y, hyp_witness.z))

    def test_growth_rate_slope_one(self, genus2):
        space = pi_image_space(genus2)
        fit = growth_rate_estimate(space, 0.0, LADDER, budget=50)
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_partial_gamma_base_metric_runs(self, genus2):
        space = pi_image_space(genus2, gamma=("g1",))
        rng = random.Random(73)
        x, y, _ = space.random_triple(rng, 0.1, 2.0)
        assert space.distance(x, y) >= 0.0

    def test_requires_a_pinched_curve(self, genus2):
        with pytest.raises(ValidationError):
            pi_image_space(genus2, gamma=())
        with pytest.raises(ValidationError):  # pi_map's rule: internal curves only
            pi_image_space(genus2, gamma=("g1", "b1"))

    def test_repeated_curves_pinched_once(self, genus2):
        space = pi_image_space(genus2, gamma=("g2", "g1", "g2", "g1"))
        assert space.name == "pi-image[g1,g2]"
        x, y, z = space.random_triple(random.Random(77), 0.1, 2.0)
        assert len(x) == len(y) == len(z) == 2
        assert all(isinstance(f, UHPoint) for f in x + y + z)


def test_a_malformed_point_rejected(genus2):
    # a point is a tuple of exactly one factor per pinched curve
    space = pi_image_space(genus2, gamma=("g1", "g2"))
    x, y, z = space.random_triple(random.Random(76), 0.1, 2.0)
    assert space.segment_distances([(x, y, z)], np.full((1, 3), 0.5)).shape == (1, 3)
    for other in (z[:1], z + z[:1], z[0]):
        with pytest.raises(ValidationError):
            space.segment_distances([(x, y, other)], np.full((1, 3), 0.5))
        with pytest.raises(ValidationError):
            segment_distance(space, x, y, other)


def test_bordered_surface_base_and_single_factor():
    # one pinched curve: the space is one half-plane, whose geodesics are unique
    marking = parse_surface((DATA / "holed_torus.surf").read_text())
    space = pi_image_space(marking)
    x, y, _ = space.random_triple(random.Random(78), 0.1, 2.0)
    assert space.name == "pi-image[g1]" and len(x) == len(y) == 1
    assert space.distance(x, y) == pytest.approx(
        hyp_distance(x[0], y[0]), rel=1e-12, abs=0.0)
    value, _ = instability_lower_bound(space, 0.0, 4.0, budget=20, seed=1)
    assert value <= 1e-6
