"""Exact geometry in the upper half-plane model.

Distances carry the factor 1/2 used for Teichmueller distance, so
``hyp_distance`` is half of the textbook hyperbolic distance.  Ideal
boundary points are floats: the boundary circle R u {inf} has a single
point at infinity, ``INFTY``, which is ``math.inf``.  ``-math.inf`` names
the same point and is stored as ``INFTY``; nan raises ValidationError.
A ``UHPoint`` is a complex number, so Moebius maps act on it directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    NoCrossingsError,
    NotCrossingError,
    ProjectionUndefinedError,
    TwistSpreadWarning,
    ValidationError,
)


INFTY = math.inf  # the one point at infinity of R u {inf}; -inf names it too
_ON_AXIS_TOL = 1e-9  # relative offset at which an origin is off its axis
_SPREAD_TOL = 1e-9  # rounding allowance on the twist-spread bound 1


def _check_ideal(xi: float) -> float:
    try:
        value = float(xi)
    except (TypeError, ValueError):
        value = math.nan
    if math.isnan(value):
        raise ValidationError(f"an ideal point is a finite float or INFTY, not {xi!r}")
    return abs(value) if math.isinf(value) else value


class UHPoint(complex):
    """Point x + iy of the upper half-plane, y > 0 strictly.

    An immutable complex number, so one 48-byte object holds both
    coordinates (a dataclass point also keeps two float objects); ``x``
    and ``y`` are its real and imaginary parts.
    """

    __slots__ = ()
    x = complex.real
    y = complex.imag

    def __new__(cls, x: float, y: float):
        if not (y > 0 and math.isfinite(x) and math.isfinite(y)):
            raise ValidationError(f"not an upper half-plane point: ({x}, {y})")
        return super().__new__(cls, x, y)

    def __repr__(self):
        return f"UHPoint(x={self.x!r}, y={self.y!r})"


@dataclass(frozen=True)
class HGeodesic:
    """Complete geodesic given by two distinct ideal endpoints."""

    e0: float
    e1: float

    def __post_init__(self):
        object.__setattr__(self, "e0", _check_ideal(self.e0))
        object.__setattr__(self, "e1", _check_ideal(self.e1))
        if self.e0 == self.e1:
            raise ValidationError("geodesic endpoints must be distinct")


@dataclass(frozen=True)
class TorusLattice:
    """Oriented lattice basis (alpha, beta) with Im(beta * conj(alpha)) > 0."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        if not self.area > 0:
            raise ValidationError("lattice basis must be positively oriented")

    @property
    def area(self) -> float:
        return (self.beta * self.alpha.conjugate()).imag


@dataclass(frozen=True)
class MobiusMap:
    """Real Moebius map z -> (az+b)/(cz+d) with ad - bc > 0."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not self.det > 0:
            raise ValidationError("Moebius map must have positive determinant")

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def normalized(self) -> "MobiusMap":
        s = math.sqrt(self.det)
        return MobiusMap(self.a / s, self.b / s, self.c / s, self.d / s)

    def apply(self, z: UHPoint) -> UHPoint:
        w = (self.a * z + self.b) / (self.c * z + self.d)
        return UHPoint(w.real, w.imag)

    def apply_ideal(self, xi: float) -> float:
        if math.isinf(xi):
            if self.c == 0:
                return INFTY
            return self.a / self.c
        denom = self.c * xi + self.d
        if denom == 0:
            return INFTY
        return (self.a * xi + self.b) / denom

    def apply_geodesic(self, g: HGeodesic) -> HGeodesic:
        return HGeodesic(self.apply_ideal(g.e0), self.apply_ideal(g.e1))

    @classmethod
    def to_zero_infinity(cls, p: float, q: float) -> "MobiusMap":
        """The orientation-preserving map sending p -> 0 and q -> infinity."""
        p = _check_ideal(p)
        q = _check_ideal(q)
        if p == q:
            raise ValidationError("endpoints must be distinct")
        if p == INFTY:
            # z -> -1/(z - q)
            return cls(0.0, -1.0, 1.0, -q)
        if q == INFTY:
            return cls(1.0, -p, 0.0, 1.0)
        if p < q:
            return cls(1.0, -p, -1.0, q)
        return cls(1.0, -p, 1.0, -q)


def _sinh_distance(z1: UHPoint, z2: UHPoint) -> float:
    """|z1 - z2| / (2 sqrt(y1) sqrt(y2)), the sinh of ``hyp_distance``."""
    return math.hypot(z1.x - z2.x, z1.y - z2.y) / (2.0 * math.sqrt(z1.y) * math.sqrt(z2.y))


def hyp_distance(z1: UHPoint, z2: UHPoint) -> float:
    """Half the hyperbolic distance between two half-plane points.

    asinh of |z1 - z2| / (2 sqrt(y1 y2)): no cancellation at small
    separations, and no overflow while x1 - x2 is a finite double.
    """
    return math.asinh(_sinh_distance(z1, z2))


def geodesic_point(z: UHPoint, w: UHPoint, t: float) -> UHPoint:
    """Point at arclength fraction t along the geodesic from z to w.

    Off a vertical line: the circle x = c - r tanh u, y = r sech u in the
    arclength u = asinh((c - x)/y), evaluated relative to z so that nearly
    vertical geodesics keep their digits.
    """
    dx = w.x - z.x
    if dx == 0.0:
        return UHPoint(z.x, z.y * (w.y / z.y) ** t)
    cz = (dx * dx + (w.y - z.y) * (w.y + z.y)) / (2.0 * dx)  # c - z.x
    u_z = math.asinh(cz / z.y)
    step = t * (math.asinh((cz - dx) / w.y) - u_z)  # u - u_z
    cosh_z = math.cosh(u_z)
    y = z.y * cosh_z / math.cosh(u_z + step)
    return UHPoint(z.x - y * math.sinh(step) / cosh_z, y)


def geodesic_distances(zx, zy, wx, wy, rx, ry, t) -> np.ndarray:
    """``hyp_distance(r, geodesic_point(z, w, t))`` over broadcast arrays.

    The closed forms of the two scalar kernels, elementwise: the vertical
    line where ``wx == zx``, else the circle in arclength.  Nothing is
    validated; an entry is non-finite where a point leaves the half-plane.
    """
    with np.errstate(all="ignore"):
        vertical = wx == zx
        dx = np.where(vertical, 1.0, wx - zx)  # vertical rows use the line below
        cz = (dx * dx + (wy - zy) * (wy + zy)) / (2.0 * dx)
        u_z = np.arcsinh(cz / zy)
        step = t * (np.arcsinh((cz - dx) / wy) - u_z)
        cosh_z = np.cosh(u_z)
        y = np.where(vertical, zy * (wy / zy) ** t, zy * cosh_z / np.cosh(u_z + step))
        x = np.where(vertical, zx, zx - y * np.sinh(step) / cosh_z)
        return np.arcsinh(np.hypot(rx - x, ry - y) / (2.0 * np.sqrt(ry) * np.sqrt(y)))


def k_ratio_sup(z1: UHPoint, z2: UHPoint) -> float:
    """Exact supremum over t in R u {inf} of the quadratic length ratio.

    The ratio compared is (y2 + (t+x2)^2/y2) / (y1 + (t+x1)^2/y1); the
    t -> infinity limit y1/y2 is included.  The supremum is
    exp(2 hyp_distance) = (s + sqrt(1 + s^2))^2 with s = sinh(hyp_distance).
    """
    s = _sinh_distance(z1, z2)
    root = s + math.hypot(1.0, s)
    return root * root


def _lattice_extremal_length(lat: TorusLattice, u, v):
    """|u alpha + v beta|^2 / area for the lattice; u and v scalars or arrays."""
    re = u * lat.alpha.real + v * lat.beta.real
    im = u * lat.alpha.imag + v * lat.beta.imag
    return (re * re + im * im) / lat.area


def torus_extremal_length(lat: TorusLattice, u: float, v: float) -> float:
    """Extremal length of the (u, v) class on the torus spanned by the lattice."""
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValidationError(f"(u, v) must be finite, got ({u}, {v})")
    if u == 0 and v == 0:
        raise ValidationError("(u, v) must be nonzero")
    return _lattice_extremal_length(lat, u, v)


def _axis_chart(axis: HGeodesic, origin: UHPoint, orientation: int):
    """Normalize so the axis is (0, infinity) oriented upward.

    Returns the chart map and log-height of the origin, which fixes the
    zero of the arclength coordinate along the axis.
    """
    if orientation not in (-1, 1):
        raise ValidationError("orientation must be +1 or -1")
    tail, head = (axis.e0, axis.e1) if orientation == 1 else (axis.e1, axis.e0)
    m = MobiusMap.to_zero_infinity(tail, head)
    w0 = m.apply(origin)
    if abs(w0.x) > _ON_AXIS_TOL * w0.y:
        raise ValidationError("origin does not lie on the axis")
    return m, math.log(w0.y)


def project_ideal_to_axis(axis: HGeodesic, xi: float, origin: UHPoint,
                          orientation: int = 1) -> float:
    """Signed arclength position of the orthogonal projection of ideal xi.

    Positions run along the axis, zero at origin, increasing toward the
    endpoint the orientation selects.  Projection of an axis endpoint
    escapes to infinity and raises ProjectionUndefinedError.
    """
    m, log_y0 = _axis_chart(axis, origin, orientation)
    w = m.apply_ideal(_check_ideal(xi))
    if math.isinf(w) or w == 0.0:
        raise ProjectionUndefinedError("ideal point is an endpoint of the axis")
    return math.log(abs(w)) - log_y0


def twist_prime(axis: HGeodesic, ell: float, crossing: HGeodesic,
                origin: UHPoint, orientation: int = 1) -> float:
    """Signed twisting number of a crossing geodesic about an oriented axis.

    Equals (position of right endpoint - position of left endpoint) / ell,
    sides taken relative to the axis orientation.  Invariant under Moebius
    conjugation of both geodesics and under sliding along the axis.
    """
    if not 0 < ell < math.inf:
        raise ValidationError(f"translation length must be positive and finite, got {ell}")
    m, log_y0 = _axis_chart(axis, origin, orientation)
    w0 = m.apply_ideal(crossing.e0)
    w1 = m.apply_ideal(crossing.e1)
    for w in (w0, w1):
        if math.isinf(w) or w == 0.0:
            raise NotCrossingError("geodesics share an ideal endpoint")
    if (w0 > 0) == (w1 > 0):
        raise NotCrossingError("geodesic endpoints do not separate the axis endpoints")
    w_right, w_left = (w0, w1) if w0 > 0 else (w1, w0)
    pos_right = math.log(w_right) - log_y0
    pos_left = math.log(-w_left) - log_y0
    return (pos_right - pos_left) / ell


def twist_min(values: Sequence[float]) -> float:
    """Minimum of per-crossing twists; warns if their spread exceeds 1.

    Twists measured at different crossings of the same pair differ by at
    most 1, so a wider spread indicates inconsistent inputs.
    """
    if len(values) == 0:
        raise NoCrossingsError("no crossings supplied")
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"twists must be finite, got {list(values)}")
    spread = max(values) - min(values)
    if spread > 1.0 + _SPREAD_TOL:
        warnings.warn(
            f"twist spread {spread:.6g} exceeds the conjugation bound 1",
            TwistSpreadWarning,
            stacklevel=2,
        )
    return min(values)
