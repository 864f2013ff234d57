"""Metric-space handle over product-model points of a marked surface.

Points are images of the pinching projection with a fixed base point, so
the search explores the half-plane factor directions while the base
distance stays zero; a point off that base is rejected.  This is the
product geometry the distance comparison experiments measure.  The
segment-distance, witness and random-triple hooks of the half-plane
factors are those of ``instability.hyp_product_space``, applied to the
factor tuples of the product points.
"""

from __future__ import annotations

from .distance import ProductPoint, pi_map, product_distance
from .errors import ValidationError
from .instability import MetricSpaceHandle, _halfplane_product_hooks
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
        return ProductPoint(template.base, gamma, factors)

    def distance(p: ProductPoint, q: ProductPoint) -> float:
        return product_distance(p, q, base_metric)

    factor_segment_distances, factor_witnesses, factor_triple = (
        _halfplane_product_hooks(len(gamma)))

    def factors_on_base(p: ProductPoint):
        base_metric(p.base, template.base)
        return p.factors

    def segment_distances(triples, ts):
        return factor_segment_distances(
            [tuple(map(factors_on_base, triple)) for triple in triples], ts)

    def witnesses(delta: float, L: float):
        for triple in factor_witnesses(delta, L):
            yield tuple(map(make_point, triple))

    def random_triple(rng, delta, L):
        return tuple(map(make_point, factor_triple(rng, delta, L)))

    return MetricSpaceHandle(
        name=f"pi-image[{','.join(gamma)}]",
        distance=distance,
        segment_distances=segment_distances,
        witnesses=witnesses if factor_witnesses is not None else None,
        random_triple=random_triple,
    )
