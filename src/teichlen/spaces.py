"""Metric-space handle over product-model points of a marked surface.

Points are images of the pinching projection with a fixed base point, so
the search explores the half-plane factor directions while the base
distance stays zero; a point off that base is rejected.  This is the
product geometry the distance comparison experiments measure.
"""

from __future__ import annotations

import math

import numpy as np

from .distance import ProductPoint, pi_map, product_distance
from .errors import ValidationError
from .halfplane import UHPoint, geodesic_point
from .instability import MetricSpaceHandle
from .surface import FNPoint, Marking


def _default_base_point(marking: Marking) -> FNPoint:
    lengths = {name: 1.0 for name in marking.curves}
    for name in marking.decomposition.boundary_names():
        lengths[name] = 1.0
    twists = {name: 0.0 for name in marking.curves}
    return FNPoint(lengths, twists)


def pi_image_space(marking: Marking, gamma: tuple[str, ...] | None = None,
                   base: FNPoint | None = None) -> MetricSpaceHandle:
    """Sup-metric space of product points over a fixed pinched base.

    ``gamma`` defaults to all internal pants curves.  Factor segments are
    half-plane geodesics parameterized proportionally; the base segment
    is constant since all points share the base, and the base distance is
    0 between points on it.
    """
    gamma = tuple(sorted(gamma if gamma is not None else marking.curves))
    if not gamma:
        raise ValidationError("need at least one pinched curve")
    base_point = base if base is not None else _default_base_point(marking)
    template = pi_map(base_point, gamma, marking)

    def base_metric(rho1: FNPoint, rho2: FNPoint) -> float:
        if rho1 != template.base or rho2 != template.base:
            raise ValidationError("pi-image points must share the space's base point")
        return 0.0

    def make_point(factors) -> ProductPoint:
        return ProductPoint(template.base, gamma, tuple(factors))

    def distance(p: ProductPoint, q: ProductPoint) -> float:
        return product_distance(p, q, base_metric)

    def segment(p: ProductPoint, q: ProductPoint):
        def sampler(t: float) -> ProductPoint:
            return make_point(
                geodesic_point(zp, zq, t) for zp, zq in zip(p.factors, q.factors)
            )

        return sampler

    k = len(gamma)

    def witnesses(delta: float, L: float):
        if k < 2 or 2.0 * L > 600.0:
            return
        rest = tuple(UHPoint(0.0, 1.0) for _ in range(k - 2))
        x = make_point((UHPoint(0.0, 1.0), UHPoint(0.0, 1.0)) + rest)
        y = make_point((UHPoint(0.0, math.exp(2.0 * L)), UHPoint(0.0, 1.0)) + rest)
        for frac in np.linspace(0.05, 1.0, 40):
            height = math.exp(2.0 * min(L / 2.0 + delta, L) * frac)
            z = make_point(
                (UHPoint(0.0, math.exp(L)), UHPoint(0.0, height)) + rest
            )
            yield x, y, z

    def random_triple(rng, delta, L):
        scale = min(L / 4.0, 5.0)

        def rand_point():
            return UHPoint(rng.normal() * scale, math.exp(rng.normal() * scale))

        x = make_point(rand_point() for _ in range(k))
        y = make_point(rand_point() for _ in range(k))
        z = make_point(
            geodesic_point(zx, zy, 0.5 + rng.normal() * 0.1)
            for zx, zy in zip(x.factors, y.factors)
        )
        return x, y, z

    return MetricSpaceHandle(
        name=f"pi-image[{','.join(gamma)}]",
        distance=distance,
        segment=segment,
        witnesses=witnesses if k >= 2 else None,
        random_triple=random_triple,
    )
