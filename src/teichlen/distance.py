"""Distance estimation over finite curve families and the product model.

The distance estimator takes the supremum of extremal-length ratios over
a finite family of curve systems, symmetrized over the two directions,
and returns half its log.  A family (``extremal.CurveFamily``) keeps per
curve each distinct (i, b, n) cell once, an index of cells by member and
a grouping of members by crossing pattern.  One builder, ``_curve_family``,
makes a family from one array of twist offsets b per curve: crossing
patterns with i <= 2 that meet the pants parity rule, each crossed curve
taking its offsets, plus the cores.  It fills both indexes by pattern
block, with no pass over the members.  It first counts the members from
the patterns' sizes, and a family of more than _MAX_FAMILY_MEMBERS (10^6)
raises ValidationError naming that count before any array is built.

``default_curve_family`` is the box family, |b| <= 8 on every curve.
``pair_curve_family`` picks each curve's offsets from the two points, so
that the curves attaining the supremum are in the family wherever the
points are.  For curve c with twist t and height 1/l at each point:

- the nearest integer to -t at each point: the curve that untwists it,
  which makes the family move with a Dehn twist of both points;
- the integers within one of -xi for both ideal endpoints xi of the
  half-plane geodesic through (t(sigma), 1/l(sigma)) and (t(tau),
  1/l(tau)): the annulus ratio of one crossing peaks there, at
  ``k_ratio_sup`` (the paper's orthogonal twist t2 = -m^2/t1);
- the untwisting offsets +- _FAR_OFFSET (32): on a thick curve the
  twist-travel ratio can keep growing with |b + t| toward the squared
  ratio of the two lengths, which offsets next to the untwisting ones
  would miss.

One component_table per point computes each term per cell or pattern and
gathers by member.  Its annulus terms sit at height m/pi rather than m,
set in this one place by modulus_unit = pi, which puts twist- and
pinch-direction ratios on the same hyperbolic scale as the product
coordinates (s, 1/l); the public extremal-length estimate keeps the raw
modulus.  For the torus the exact formula is available as
``torus_family_estimate`` / ``hyp_distance``.

The product model's base factor is the same estimator on the pinched
marking, over the box family of the pinched marking.  ``product_model``
builds the pinched marking and its base family once per (marking, gamma)
and keeps the last few; when pinching leaves no internal curve the base
factor is a single point and its distance is 0.
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
from .errors import NumericDomainError, ValidationError, check_count
from .extremal import CurveFamily, component_table
from .halfplane import TorusLattice, UHPoint, _lattice_extremal_length, hyp_distance
from .surface import CURVE, FNPoint, Marking


# the far offsets lie _FAR_OFFSET either side of each point's untwisting offset
_FAR_OFFSET = 32
_INT64_MAX = 2 ** 63 - 1
# a family over this many members is refused before it is allocated: one genus-2
# estimate on a 930,436-member box family takes about 0.07 s at 100 MB peak RSS,
# and the largest family the demos build, the genus-2 box, has 21,440
_MAX_FAMILY_MEMBERS = 10 ** 6


def _curve_family(marking: Marking, offsets: list[np.ndarray], i_max: int = 2) -> CurveFamily:
    """All curve systems with i_j <= i_max and b_j in offsets[j], plus cores.

    ``offsets`` holds one sorted int64 array of distinct offsets per curve
    of the marking.  Crossing patterns are filtered by the per-pants parity
    constraint.  The member count, the product of the crossed curves' widths
    summed over patterns, is checked against _MAX_FAMILY_MEMBERS before any
    array is built; a larger family raises ValidationError naming it.  Curve
    k's cells are (0,0,0), (0,0,1), then (i, b, 0) in row 2 + (i-1) width_k +
    position of b.  The index is filled one block per crossing pattern,
    offsets in ``itertools.product`` order, so the blocks are the family's
    pattern groups and the cores the last one.
    """
    curves = marking.curves
    pants_columns = [[curves.index(e.name) for e in p.ends if e.kind == CURVE]
                     for p in marking.decomposition.pants]
    widths = [len(column) for column in offsets]
    patterns = [pattern for pattern in itertools.product(range(i_max + 1), repeat=len(curves))
                if sum(pattern) and not any(sum(pattern[k] for k in cols) % 2
                                            for cols in pants_columns)]
    sizes = [math.prod(widths[k] for k, count in enumerate(pattern) if count)
             for pattern in patterns] + [len(curves)]  # the cores last
    if sum(sizes) > _MAX_FAMILY_MEMBERS:
        raise ValidationError(f"the curve family would have {sum(sizes):,} members, "
                              f"over the cap of {_MAX_FAMILY_MEMBERS:,}")
    cells = []
    for column in offsets:
        crossing = np.zeros((i_max * len(column), 3), dtype=np.int64)
        crossing[:, 0] = np.repeat(np.arange(1, i_max + 1), len(column))
        crossing[:, 1] = np.tile(column, i_max)
        cells.append(np.concatenate([[(0, 0, 0), (0, 0, 1)], crossing]))
    blocks = []
    for pattern in patterns:
        crossing = [k for k, count in enumerate(pattern) if count > 0]
        grid = np.indices([widths[k] for k in crossing]).reshape(len(crossing), -1)
        block = np.zeros((len(curves), grid.shape[1]), dtype=np.int64)
        block[crossing] = grid + [[2 + (pattern[k] - 1) * widths[k]] for k in crossing]
        blocks.append(block)
    blocks.append(np.eye(len(curves), dtype=np.int64))  # cell 1 on its own curve
    patterns.append((0,) * len(curves))
    key = np.repeat(np.arange(len(blocks)), sizes)
    # valid and grouped by construction, so __init__'s checks and grouping pass are skipped
    return CurveFamily.__new__(CurveFamily)._store(
        tuple(cells), tuple(np.concatenate(blocks, axis=1)), curves, key, tuple(patterns))


def default_curve_family(marking: Marking, i_max: int = 2,
                         twist_bound: int = 8) -> CurveFamily:
    """All curve systems with i_j <= i_max and |b_j| <= twist_bound, plus cores.

    The box family: every curve takes the offsets -twist_bound..twist_bound.
    """
    check_count(i_max, "i_max")
    check_count(twist_bound, "twist_bound")
    box = np.arange(-twist_bound, twist_bound + 1, dtype=np.int64)
    return _curve_family(marking, [box] * len(marking.curves), i_max)


def _ideal_endpoints(x1: float, y1: float, x2: float, y2: float) -> tuple[float, ...]:
    """The finite ideal endpoints of the half-plane geodesic through (x1,y1), (x2,y2).

    Scaled by a power of two so that the largest of |x2 - x1|, y1, y2 is
    about 1, the endpoints relative to x1 are the roots of
    xi^2 - 2 c xi - y1^2, c the center relative to x1: the root larger in
    size without cancellation, the other as -y1^2 over it, formed as
    -y1 (h1 / far) so that no square underflows.  A vertical
    geodesic, or one whose twist difference vanishes at that scale, has
    the one finite endpoint x1.  An endpoint past double range comes out
    infinite.
    """
    exponent = math.frexp(max(abs(x2 - x1), y1, y2))[1]
    u, h1, h2 = (math.ldexp(v, -exponent) for v in (x2 - x1, y1, y2))
    if u == 0.0:
        return (x1,)
    center = (u * u + (h2 - h1) * (h2 + h1)) / (2.0 * u)
    far = center + math.copysign(math.hypot(center, h1), center)
    with np.errstate(over="ignore"):
        return x1 + float(np.ldexp(far, exponent)), x1 - y1 * (h1 / far)


def _pair_offsets(sigma: FNPoint, tau: FNPoint, curve: str) -> np.ndarray:
    """Sorted distinct twist offsets for one curve, chosen from the pair of points.

    The geodesic is taken in the frame that untwists sigma, shifted by the
    integer n nearest to -t(sigma), where t(sigma) + n is exact; so a Dehn
    twist of both points that is exact in floating point shifts every
    offset by exactly its power.
    """
    x1, x2 = sigma.twist(curve), tau.twist(curve)
    untwists = [math.floor(0.5 - x) for x in (x1, x2)]  # the nearest integers to -x
    if max(map(abs, untwists)) > _INT64_MAX - _FAR_OFFSET:
        raise NumericDomainError(f"the untwisting offset of {curve} leaves int64 range")
    chosen = {n + d for n in untwists for d in (-_FAR_OFFSET, 0, _FAR_OFFSET)}
    n = untwists[0]
    for xi in _ideal_endpoints(x1 + n, 1.0 / sigma.length(curve),
                               x2 + n, 1.0 / tau.length(curve)):
        if math.isfinite(xi):  # a non-finite endpoint, or an offset past int64, is left out
            chosen.update(b for b in range(n + math.floor(-xi) - 1, n + math.ceil(-xi) + 2)
                          if abs(b) <= _INT64_MAX)
    return np.array(sorted(chosen), dtype=np.int64)


def pair_curve_family(marking: Marking, sigma: FNPoint, tau: FNPoint) -> CurveFamily:
    """The default's crossing patterns and cores, with offsets chosen per curve from sigma, tau.

    For curve c with twist t and height 1/l at each point, the offsets are
    the nearest integer to -t at each point and those +- _FAR_OFFSET, and
    the integers within one of -xi for each finite ideal endpoint xi of the
    half-plane geodesic through (t(sigma), 1/l(sigma)) and (t(tau), 1/l(tau)).
    Chosen from the points, the family makes ``d_teich`` jump where a curve's
    twists at the two points merge: one genus-2 pair reads 1.85260 with g1
    twists 0 and 1.07e-241 (a semicircle) and 1.85087 with both 0 (vertical).
    """
    for point in (sigma, tau):
        point.validate_for(marking)
    return _curve_family(marking, [_pair_offsets(sigma, tau, c) for c in marking.curves])


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
    up, down = (np.divide(p, q, out=np.ones_like(p), where=usable) for p, q in ((a, b), (b, a)))
    return 0.5 * math.log(max(up.max(), down.max()))


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
    gamma = marking.pinch_set(gamma)
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
    once per (marking, gamma).  ``d_teich`` runs over ``family``, by
    default the pair's ``pair_curve_family``.
    Pinched curves are expected to be thin at both points; violations
    are reported via ``thin_ok`` rather than rejected.
    """
    gamma = marking.pinch_set(gamma)
    if family is None:
        family = pair_curve_family(marking, sigma, tau)
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
