"""Metric-space handle over product-model points of a marked surface.

Points are images of the pinching projection with a fixed base point, so
the search explores the half-plane factor directions while the base
distance stays zero.  This is the product geometry the distance
comparison experiments measure.  The space wraps the half-plane product
handle ``hyp-product:k`` of the k pinched curves: its segment-distance
kernel, the only metric of the space, and its witness and random-triple
hooks are applied to the factor tuples of the product points; a point
that is not a ProductPoint, lies off the base or pinches other curves
raises ``ValidationError`` in the one place that unpacks the factors.
"""

from __future__ import annotations

from .distance import ProductPoint, pi_map
from .errors import ValidationError
from .instability import MetricSpaceHandle, _halfplane_product
from .surface import FNPoint, Marking


def _default_base_point(marking: Marking) -> FNPoint:
    lengths = {name: 1.0 for name in marking.curves}
    for name in marking.decomposition.boundary_names():
        lengths[name] = 1.0
    twists = {name: 0.0 for name in marking.curves}
    return FNPoint(lengths, twists)


def pi_image_space(marking: Marking,
                   gamma: tuple[str, ...] | None = None) -> MetricSpaceHandle:
    """Sup-metric space of product points over a fixed pinched base.

    ``gamma`` defaults to all internal pants curves.  Factor segments are
    half-plane geodesics parameterized proportionally; the base segment
    is constant since all points share the base, and the base distance is
    0 between points on it.
    """
    # pi_map sorts and deduplicates the pinched curves, for the space and its points
    template = pi_map(_default_base_point(marking),
                      marking.curves if gamma is None else gamma, marking)
    gamma = template.gamma
    if not gamma:
        raise ValidationError("need at least one pinched curve")

    def make_point(factors) -> ProductPoint:
        return ProductPoint(template.base, gamma, factors)

    # the private factory, not hyp_product_space, whose handles perfbench counts
    product = _halfplane_product(len(gamma))

    def factors_on_base(p: ProductPoint):
        if not isinstance(p, ProductPoint):
            raise ValidationError(f"pi-image points are ProductPoints, not {type(p).__name__}")
        # every point the space builds shares template.base, so identity comes first
        if p.base is not template.base and p.base != template.base:
            raise ValidationError("pi-image points must share the space's base point")
        if p.gamma != gamma:
            raise ValidationError(f"pi-image points must pinch {gamma}, not {p.gamma}")
        return p.factors

    def segment_distances(triples, ts):
        return product.segment_distances(
            [tuple(map(factors_on_base, triple)) for triple in triples], ts)

    def witnesses(delta: float, L: float):
        for triple in product.witnesses(delta, L):
            yield tuple(map(make_point, triple))

    def random_triple(rng, delta, L):
        return tuple(map(make_point, product.random_triple(rng, delta, L)))

    return MetricSpaceHandle(
        name=f"pi-image[{','.join(gamma)}]",
        segment_distances=segment_distances,
        witnesses=witnesses if product.witnesses is not None else None,
        random_triple=random_triple,
    )
