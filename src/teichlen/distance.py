"""Distance estimation over finite curve families and the product model.

The distance estimator takes the supremum of extremal-length ratios over
a finite family of curve systems, symmetrized over the two directions,
and returns half its log.  A family (``extremal.CurveFamily``) keeps per
curve each distinct (i, b, n) cell once, an index of cells by member and
a grouping of members by crossing pattern; ``default_curve_family``
shares one cell table among its curves and fills both indexes from its
own blocks, with no pass over the members.  One ``component_table`` per
point computes each term per cell or pattern and gathers by member.  Its
annulus terms sit at height m/pi rather than m, set in this one place by
modulus_unit = pi, which puts twist- and pinch-direction ratios on the
same hyperbolic scale as the product coordinates (s, 1/l); the public
extremal-length estimate keeps the raw modulus.  For the torus the exact
formula is available as ``torus_family_estimate`` / ``hyp_distance``.

The product model's base factor is the same estimator on the pinched
marking.  ``product_model`` builds the pinched marking and its base family
once per (marking, gamma) and keeps the last few; when pinching leaves no
internal curve the base factor is a single point and its distance is 0.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .collar import DEFAULT_PARAMS, CollarParams, collar_decomposition
from .errors import ValidationError, check_count
from .extremal import CurveFamily, _annulus_term, component_table
from .halfplane import TorusLattice, UHPoint, _lattice_extremal_length, hyp_distance
from .surface import CURVE, FNPoint, Marking


def default_curve_family(marking: Marking, i_max: int = 2,
                         twist_bound: int = 8) -> CurveFamily:
    """All curve systems with i_j <= i_max and |b_j| <= twist_bound, plus cores.

    Crossing patterns are filtered by the per-pants parity constraint.
    The family covers both kinds of ratio witnesses: curves confined to a
    thick piece and curves twisting through an annulus.  Every column shares
    one cell table: (0,0,0), (0,0,1), then (i, b, 0) in row 2 + (i-1) width + b + twist_bound.
    The index is filled one block per crossing pattern, offsets in
    ``itertools.product`` order, so the blocks are the family's pattern
    groups and the cores the last one.
    """
    check_count(i_max, "i_max")
    check_count(twist_bound, "twist_bound")
    curves = marking.curves
    pants_columns = [[curves.index(e.name) for e in p.ends if e.kind == CURVE]
                     for p in marking.decomposition.pants]
    width = 2 * twist_bound + 1
    cells = np.array([(0, 0, 0), (0, 0, 1)] + [(i, b, 0) for i in range(1, i_max + 1)
                      for b in range(-twist_bound, twist_bound + 1)], dtype=np.int64)
    blocks, patterns = [], []
    for pattern in itertools.product(range(i_max + 1), repeat=len(curves)):
        if sum(pattern) == 0 or any(sum(pattern[k] for k in cols) % 2
                                    for cols in pants_columns):
            continue
        crossing = [k for k, count in enumerate(pattern) if count > 0]
        grid = np.indices((width,) * len(crossing)).reshape(len(crossing), -1)
        block = np.zeros((len(curves), grid.shape[1]), dtype=np.int64)
        block[crossing] = grid + [[2 + (pattern[k] - 1) * width] for k in crossing]
        blocks.append(block)
        patterns.append(pattern)
    blocks.append(np.eye(len(curves), dtype=np.int64))  # cell 1 on its own curve
    patterns.append((0,) * len(curves))
    key = np.repeat(np.arange(len(blocks)), [block.shape[1] for block in blocks])
    # valid and grouped by construction, so __init__'s checks and grouping pass are skipped
    return CurveFamily.__new__(CurveFamily)._store(
        (cells,) * len(curves), tuple(np.concatenate(blocks, axis=1)), curves, key,
        tuple(patterns))


def kerckhoff_distance_estimate(sigma: FNPoint, tau: FNPoint,
                                family: CurveFamily, marking: Marking,
                                params: CollarParams = DEFAULT_PARAMS) -> float:
    """Distance estimate (1/2) log of the symmetrized supremal length ratio.

    Ratios run over the family; members whose estimate vanishes at either
    point carry no usable ratio and are skipped (the ratio of vanishing
    contributions is conventionally 1).  The result is a lower-bound
    style estimate: enlarging the family can only increase it.
    """
    if set(family.curves) != set(marking.curves):
        raise ValidationError(
            f"curve family over {sorted(family.curves)} does not match "
            f"marking curves {sorted(marking.curves)}"
        )
    a, b = (
        component_table(collar_decomposition(marking, point, params), point, family,
                        modulus_unit=math.pi).max(0)
        for point in (sigma, tau)
    )
    usable = (a != 0.0) & (b != 0.0)
    a, b = a[usable], b[usable]
    return 0.5 * math.log(np.max(np.maximum(a, b) / np.minimum(a, b), initial=1.0))


def torus_family_estimate(z1: UHPoint, z2: UHPoint, n_max: int) -> float:
    """Torus distance estimate from coprime classes |u|,|v| <= n_max.

    Uses the exact extremal lengths |u + v z|^2 / Im z of the lattice
    (1, z), the expression of ``torus_extremal_length``; never exceeds
    hyp_distance(z1, z2) and is nondecreasing in n_max.
    """
    check_count(n_max, "n_max", 1)
    u, v = np.meshgrid(np.arange(-n_max, n_max + 1), np.arange(-n_max, n_max + 1))
    coprime = np.gcd(u, v) == 1
    u, v = u[coprime].astype(float), v[coprime].astype(float)
    lam1, lam2 = (_lattice_extremal_length(TorusLattice(1.0, z), u, v) for z in (z1, z2))
    ratio = lam2 / lam1
    sup = max(ratio.max(), (1.0 / ratio).max())
    return 0.5 * math.log(sup)


@dataclass(frozen=True, slots=True)
class ProductPoint:
    """Image of a marked point under the pinching projection.

    ``base`` is the point of the pinched surface (coordinates of the
    unpinched curves); ``factors[i]`` is the half-plane point
    (twist of gamma_i, 1 / length of gamma_i).
    """

    base: FNPoint
    gamma: tuple[str, ...]
    factors: tuple[UHPoint, ...]

    def __post_init__(self):
        if len(self.gamma) != len(self.factors):
            raise ValidationError("one factor per pinched curve required")


def pi_map(sigma: FNPoint, gamma: Iterable[str], marking: Marking) -> ProductPoint:
    """Project a marked point to (pinched-surface point, one half-plane per curve)."""
    sigma.validate_for(marking)
    gamma = tuple(sorted(set(gamma)))
    for g in gamma:
        if g not in marking.curves:
            raise ValidationError(f"cannot pinch {g!r}: not an internal pants curve")
    lengths = {k: v for k, v in sigma.lengths.items() if k not in gamma}
    twists = {k: v for k, v in sigma.twists.items() if k not in gamma}
    base = FNPoint(lengths, twists)
    factors = tuple(
        UHPoint(sigma.twist(g), 1.0 / sigma.length(g)) for g in gamma
    )
    return ProductPoint(base, gamma, factors)


def pi_map_inverse(point: ProductPoint) -> FNPoint:
    """Reinsert the pinched length/twist pairs, inverting pi_map exactly."""
    lengths = dict(point.base.lengths)
    twists = dict(point.base.twists)
    for g, factor in zip(point.gamma, point.factors):
        lengths[g] = 1.0 / factor.y
        twists[g] = factor.x
    return FNPoint(lengths, twists)


def product_distance(p: ProductPoint, q: ProductPoint,
                     base_metric: Callable[[FNPoint, FNPoint], float]) -> float:
    """Sup metric: max of the base distance and the factor distances."""
    if p.gamma != q.gamma:
        raise ValidationError("product points pinch different curve systems")
    best = base_metric(p.base, q.base)
    for zp, zq in zip(p.factors, q.factors):
        d = hyp_distance(zp, zq)
        if d > best:
            best = d
    return best


def annulus_ratio_check(b: float, x1: float, y1: float,
                        x2: float, y2: float) -> float:
    """Annulus length-ratio profile (y2+(b+x2)^2/y2) / (y1+(b+x1)^2/y1).

    The quotient of two one-crossing annulus terms, from the estimators'
    own ``_annulus_term``.  Its supremum over b equals
    k_ratio_sup((x1,y1), (x2,y2)); used as an internal consistency check
    between annulus contributions and the half-plane factor metric.
    """
    if not all(math.isfinite(v) for v in (b, x1, y1, x2, y2)):
        raise ValidationError(f"profile arguments must be finite, got {(b, x1, y1, x2, y2)}")
    if not (y1 > 0 and y2 > 0):
        raise ValidationError("heights must be positive")
    return float(_annulus_term(1, 0, y2, b + x2) / _annulus_term(1, 0, y1, b + x1))


@dataclass(frozen=True, slots=True)
class DiscrepancyReport:
    d_teich: float
    d_product: float
    gamma: tuple[str, ...]
    thin_ok: bool

    @property
    def discrepancy(self) -> float:
        return abs(self.d_teich - self.d_product)


@dataclass(frozen=True, slots=True)
class ProductModel:
    """The pinched marking of one (marking, gamma) and its base family.

    ``base_family`` is None when pinching leaves no internal curve: the
    base factor is then a single point, at distance 0 from itself.  The
    reports of one model share its ``gamma`` tuple.
    """

    gamma: tuple[str, ...]
    pinched: Marking
    base_family: CurveFamily | None

    def base_distance(self, rho1: FNPoint, rho2: FNPoint,
                      params: CollarParams = DEFAULT_PARAMS) -> float:
        if self.base_family is None:
            return 0.0
        return kerckhoff_distance_estimate(rho1, rho2, self.base_family, self.pinched, params)


@functools.lru_cache(maxsize=16)
def product_model(marking: Marking, gamma: tuple[str, ...]) -> ProductModel:
    """Product model of pinching gamma (sorted, no repeats) on the marking, built once."""
    pinched = marking.pinch(gamma)
    return ProductModel(gamma, pinched,
                        default_curve_family(pinched) if pinched.curves else None)


def product_region_discrepancy(sigma: FNPoint, tau: FNPoint, gamma: Iterable[str],
                               marking: Marking,
                               params: CollarParams = DEFAULT_PARAMS,
                               family: CurveFamily | None = None,
                               ) -> DiscrepancyReport:
    """Compare the surface distance estimate with the product-model distance.

    The base factor of the product distance reuses the same estimator on
    the pinched marking, so the recursion terminates after one step; the
    pinched marking and its family come from ``product_model``, built
    once per (marking, gamma).
    Pinched curves are expected to be thin at both points; violations
    are reported via ``thin_ok`` rather than rejected.
    """
    gamma = tuple(sorted(set(gamma)))
    if family is None:
        family = default_curve_family(marking)
    d_teich = kerckhoff_distance_estimate(sigma, tau, family, marking, params)
    model = product_model(marking, gamma)
    p = pi_map(sigma, gamma, marking)
    q = pi_map(tau, gamma, marking)
    d_product = product_distance(p, q, functools.partial(model.base_distance, params=params))
    thin_ok = all(
        point.length(g) <= params.eps1 for g in gamma for point in (sigma, tau)
    )
    if not thin_ok:
        warnings.warn(
            "pinched curves are not thin at both points; the product model "
            "only tracks the distance estimate on the thin region",
            stacklevel=2,
        )
    return DiscrepancyReport(d_teich, d_product, model.gamma, thin_ok)
