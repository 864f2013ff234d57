"""The pi-image space: the half-plane factors of pinched points over a fixed base.

The product-regions theorem compares the Teichmüller distance with the
sup metric on Teich(pinched surface) x one half-plane per pinched curve.
With the base point fixed its distance is always 0, so the space is the
half-plane product ``hyp-product:k`` of the k pinched curves under its
own name: a point is a k-tuple of ``UHPoint``s, factor i being (twist of
gamma_i, 1 / length of gamma_i) for the sorted curves gamma.
"""

from __future__ import annotations

import dataclasses

from .errors import ValidationError
from .instability import MetricSpaceHandle, _halfplane_product
from .surface import Marking


def pi_image_space(marking: Marking,
                   gamma: tuple[str, ...] | None = None) -> MetricSpaceHandle:
    """``hyp-product:k`` named ``pi-image[<gamma>]``, one factor per pinched curve.

    ``gamma``, by default every internal pants curve, is resolved as by
    ``pi_map`` and must name at least one curve.
    """
    gamma = marking.pinch_set(marking.curves if gamma is None else gamma)
    if not gamma:
        raise ValidationError("need at least one pinched curve")
    # the private factory, not hyp_product_space, whose handles perfbench counts
    return dataclasses.replace(_halfplane_product(len(gamma)),
                               name=f"pi-image[{','.join(gamma)}]")
