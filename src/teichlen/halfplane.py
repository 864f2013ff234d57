"""Exact geometry in the upper half-plane model.

Distances carry the factor 1/2 used for Teichmueller distance, so
``hyp_distance`` is half of the textbook hyperbolic distance.  A
``UHPoint`` is a complex number, so Moebius maps act on it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, is_real


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
        # two floats skip the isinstance tests: most points are built from floats
        if not ((type(x) is type(y) is float or is_real(x) and is_real(y))
                and y > 0 and math.isfinite(x) and math.isfinite(y)):
            raise ValidationError(f"not an upper half-plane point: ({x!r}, {y!r})")
        return super().__new__(cls, x, y)

    def __repr__(self):
        return f"UHPoint(x={self.x!r}, y={self.y!r})"


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

