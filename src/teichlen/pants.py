"""Right-angled hexagon trigonometry, pants orthogeodesics, flat annuli.

Cuff length 0 encodes a cusp; every formula takes the continuous limit
(right-angled pentagon with one ideal vertex).  Orthogeodesics that run
into a cusp are reported as ``math.inf``; lengths whose cosh formulas
leave double range raise NumericDomainError.  Hexagon sides and
orthogeodesic lengths come from cosh d - 1 written without cancellation,
so they keep their relative accuracy next to long sides or cuffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DegenerateHexagonError,
    NoCollarError,
    NumericDomainError,
    ValidationError,
)


@dataclass(frozen=True)
class PantsCuffs:
    """Boundary lengths of a pair of pants; a value of 0 is a cusp."""

    l1: float
    l2: float
    l3: float

    def __post_init__(self):
        for value in (self.l1, self.l2, self.l3):
            if value < 0 or not math.isfinite(value):
                raise ValidationError(f"cuff lengths must be >= 0, got {value}")

    def as_tuple(self):
        return (self.l1, self.l2, self.l3)


@dataclass(frozen=True)
class FlatAnnulus:
    """Flat annulus with boundary circle length L and height H; modulus H/L.

    Crossing arcs are described by lift endpoints whose second coordinate
    is periodic with period ``height`` (one full wrap shifts y by H).
    """

    circumference: float
    height: float

    def __post_init__(self):
        if not (0 < self.circumference < math.inf and 0 < self.height < math.inf):
            raise ValidationError("annulus dimensions must be positive and finite")

    @property
    def modulus(self) -> float:
        return self.height / self.circumference


def hexagon_side(a: float, gamma: float, b: float) -> float:
    """Side of a right-angled hexagon two steps past gamma.

    Cosine rule for right-angled hexagons (sides a, gamma, b consecutive):
    cosh c = sinh a sinh b cosh gamma - cosh a cosh b, evaluated as
    cosh c - 1 = 2 sinh a sinh b sinh^2(gamma/2) - 2 cosh^2((a - b)/2),
    which keeps long sides around a short gamma from cancelling.
    Symmetric in a, b.
    """
    if not all(0 <= side < math.inf for side in (a, gamma, b)):
        raise ValidationError(f"hexagon sides must be finite and >= 0, got {(a, gamma, b)}")
    try:
        s, h = math.sinh(gamma / 2.0), math.cosh(abs(a - b) / 2.0)
        excess = _finite(2.0 * (math.sinh(a) * s) * (math.sinh(b) * s) - 2.0 * h * h)
    except OverflowError:
        raise NumericDomainError(f"sides ({a}, {gamma}, {b}) overflow double range") from None
    if excess <= 0.0:
        raise DegenerateHexagonError(
            f"sides ({a}, {gamma}, {b}) do not bound a right-angled hexagon"
        )
    return 2.0 * math.asinh(math.sqrt(excess / 2.0))


class OrthoLengths(NamedTuple):
    """The six orthogeodesic lengths of a pants, in ``ArcMultiplicities`` order."""

    d11: float
    d22: float
    d33: float
    d12: float
    d13: float
    d23: float


def _finite(value: float) -> float:
    """The value of a cosh formula, or OverflowError if it left double range."""
    if not math.isfinite(value):
        raise OverflowError
    return value


def _seam(half: tuple, i: int, j: int, k: int) -> float:
    # cosh d - 1 = (c_k + cosh(h_i - h_j)) / (s_i s_j) has no cancellation,
    # and d = 2 asinh(sqrt((cosh d - 1) / 2)); the roots keep s_i s_j from underflow
    si, sj = math.sinh(half[i]), math.sinh(half[j])
    if si == 0.0 or sj == 0.0:
        return math.inf
    excess = _finite(math.cosh(half[k]) + math.cosh(half[i] - half[j]))
    return 2.0 * math.asinh(_finite(math.sqrt(excess / 2.0)
                                    / (math.sqrt(si) * math.sqrt(sj))))


def _self_seam(half: tuple, i: int) -> float:
    # twice the hexagon altitude from cuff i to the opposite seam side:
    # cosh(d/2) = sqrt(s_i^2 + q) / s_i with q = c_j^2 + c_k^2 + 2 c_i c_j c_k, so
    # cosh(d/2) - 1 = q / (s_i (sqrt(s_i^2 + q) + s_i)) has no cancellation
    si = math.sinh(half[i])
    if si == 0.0:
        return math.inf
    ci, cj, ck = (math.cosh(half[m]) for m in (i, (i + 1) % 3, (i + 2) % 3))
    q = _finite(cj * cj + ck * ck + 2.0 * ci * (cj * ck))
    root = math.sqrt(_finite(si * si + q)) + si
    return 4.0 * math.asinh(_finite(math.sqrt(q / 2.0)
                                    / (math.sqrt(si) * math.sqrt(root))))


def pants_orthogeodesics(cuffs: PantsCuffs) -> OrthoLengths:
    """All six orthogeodesic lengths of the pants with the given cuffs.

    d_ij joins cuffs i and j (the seam), d_ii runs from cuff i back to
    itself separating the other two cuffs.  Arcs ending on a cusp have
    infinite length.
    """
    half = tuple(l / 2.0 for l in cuffs.as_tuple())
    try:
        return OrthoLengths(
            d11=_self_seam(half, 0),
            d22=_self_seam(half, 1),
            d33=_self_seam(half, 2),
            d12=_seam(half, 0, 1, 2),
            d13=_seam(half, 0, 2, 1),
            d23=_seam(half, 1, 2, 0),
        )
    except OverflowError:
        raise NumericDomainError(f"cuffs {cuffs.as_tuple()} overflow double range") from None


def collar_modulus(delta: float, eps0: float) -> float:
    """Modulus pi/delta - 2/eps0 of the collar about a core of length delta.

    The collar's internal boundary circles have length eps0.  The modulus
    is positive whenever delta <= eps0: it is at least (pi - 2)/eps0.
    """
    if not (0 < delta < math.inf and 0 < eps0 < math.inf):
        raise ValidationError(
            f"delta and eps0 must be positive and finite, got {delta}, {eps0}")
    if delta > eps0:
        raise NoCollarError(f"core length {delta} exceeds boundary length {eps0}")
    return math.pi / delta - 2.0 / eps0


def flat_annulus_twist(ann: FlatAnnulus, y0: float, y1: float) -> float:
    """Twist (y1 - y0)/H of a crossing arc lifted to endpoints (0,y0), (L,y1)."""
    if not (math.isfinite(y0) and math.isfinite(y1)):
        raise ValidationError(f"lift endpoints must be finite, got {y0} and {y1}")
    return (y1 - y0) / ann.height


_CROSSING_OFFSET = 0.25  # generic boundary offset between the two arcs


def annulus_arc_crossings(t1: float, t2: float) -> int:
    """Crossing number of two straight arcs with twists t1, t2 in an annulus.

    The arcs enter at boundary positions offset by a quarter turn, so no
    crossing sits on the boundary; crossings within 1e-9 of the boundary
    are dropped (perturbation convention).  With the slower-twisting arc
    at position 0, lift translate n crosses it at height
    (-1/4 - n) / |t1 - t2|, so the count is the number of integers n
    strictly between -1/4 - |t1 - t2| (1 - 1e-9) and -1/4 - 1e-9 |t1 - t2|.
    The result is symmetric in (t1, t2) and lies in
    [|t1 - t2| - 1, |t1 - t2| + 1].
    """
    spread = abs(t2 - t1)
    if not math.isfinite(spread):
        raise ValidationError(f"twists must be finite, got {t1} and {t2}")
    lo = -_CROSSING_OFFSET - spread * (1.0 - 1e-9)
    hi = -_CROSSING_OFFSET - 1e-9 * spread
    return max(0, math.ceil(hi) - math.floor(lo) - 1)
