"""Geodesic-stability diagnostics for metric spaces.

A point z is delta-between x and y when d(x,z) + d(z,y) - d(x,y) < delta.
The instability value s(delta, L) is the supremal distance from such a z
to a chosen geodesic [xy] with d(x,y) <= L; searches return certified
lower bounds together with their witness triples.  In sup-metric
products the chosen geodesic is the coordinatewise one with all factors
parameterized proportionally, so reported values are relative to that
representative (still valid lower bounds for the supremum over paths).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .halfplane import UHPoint, geodesic_point, hyp_distance

Point = Any
_BETWEEN_ATOL = 1e-12  # closure tolerance so exact-slack witnesses count at delta = 0


@dataclass
class MetricSpaceHandle:
    """A metric space presented by a distance oracle and a segment chooser.

    ``segment(x, y)`` returns a sampler mapping [0, 1] onto a chosen
    geodesic from x to y.  Optional hooks drive the witness search:
    ``witnesses(delta, L)`` yields structured candidate triples and
    ``random_triple(rng, delta, L)`` samples one candidate.
    """

    name: str
    distance: Callable[[Point, Point], float]
    segment: Callable[[Point, Point], Callable[[float], Point]]
    witnesses: Callable[[float, float], Iterable[tuple]] | None = None
    random_triple: Callable[[np.random.Generator, float, float], tuple] | None = None


@dataclass(frozen=True)
class BetweennessWitness:
    x: Point
    y: Point
    z: Point
    delta_slack: float
    offline_distance: float


def is_delta_between(space: MetricSpaceHandle, x: Point, y: Point, z: Point,
                     delta: float) -> tuple[bool, float]:
    """Whether z is delta-between x and y, along with the triangle slack."""
    slack = space.distance(x, z) + space.distance(z, y) - space.distance(x, y)
    return slack < delta, slack


def segment_distance(space: MetricSpaceHandle, x: Point, y: Point, z: Point,
                     resolution: float = 1e-6) -> float:
    """Distance from z to the chosen geodesic [xy], refined to ``resolution``.

    Coarse sampling followed by ternary search around the best sample;
    an upper bound on the true minimum for the chosen representative.
    """
    if space.distance(x, y) == 0.0:
        return space.distance(z, x)
    path = space.segment(x, y)

    def objective(t: float) -> float:
        return space.distance(z, path(t))

    ts = np.linspace(0.0, 1.0, 65)
    values = [objective(t) for t in ts]
    k = int(np.argmin(values))
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, len(ts) - 1)]
    while hi - lo > resolution:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if objective(m1) <= objective(m2):
            hi = m2
        else:
            lo = m1
    return min(values[k], objective(0.5 * (lo + hi)))


def euclidean_instability_exact(delta: float, L: float) -> float:
    """Closed form sqrt(2 L delta + delta^2) / 2 for Euclidean space."""
    if delta < 0 or L < 0:
        raise ValidationError("delta and L must be nonnegative")
    return math.sqrt(2.0 * L * delta + delta * delta) / 2.0


def instability_lower_bound(space: MetricSpaceHandle, delta: float, L: float,
                            budget: int = 500, resolution: float = 1e-6,
                            seed: int = 0,
                            ) -> tuple[float, BetweennessWitness | None]:
    """Certified lower bound for s(delta, L) with its best witness.

    Structured witnesses from the space handle are tried before random
    sampling; every reported witness satisfies the betweenness and
    diameter constraints (betweenness accepted up to closure tolerance,
    so exact-geodesic witnesses count at delta = 0).
    """
    if not (0 <= delta < math.inf and 0 < L < math.inf):
        raise ValidationError("need finite delta >= 0 and L > 0")
    best = 0.0
    best_witness = None
    rng = np.random.default_rng(seed)

    def consider(x, y, z):
        nonlocal best, best_witness
        if space.distance(x, y) > L * (1.0 + 1e-12):
            return
        _, slack = is_delta_between(space, x, y, z, delta)
        if not (slack < delta or slack <= _BETWEEN_ATOL):
            return
        value = segment_distance(space, x, y, z, resolution)
        if value > best:
            best = value
            best_witness = BetweennessWitness(x, y, z, slack, value)

    spent = 0
    if space.witnesses is not None:
        for x, y, z in space.witnesses(delta, L):
            consider(x, y, z)
            spent += 1
            if spent >= budget:
                break
    if space.random_triple is not None:
        while spent < budget:
            consider(*space.random_triple(rng, delta, L))
            spent += 1
    return best, best_witness


@dataclass(frozen=True)
class GrowthRateFit:
    slope: float
    residual: float
    points: tuple[tuple[float, float], ...]  # (L, s) pairs actually fitted


def growth_rate_estimate(space: MetricSpaceHandle | None, delta: float,
                         L_values: Sequence[float], budget: int = 500,
                         seed: int = 0,
                         s_values: Sequence[float] | None = None) -> GrowthRateFit:
    """Least-squares slope of log s(delta, L) against log L over a ladder.

    The ladder needs at least 5 values spanning at least 3 decades.
    ``s_values`` short-circuits the search (for exact formulas or
    synthetic data).  Zero estimates are excluded with a warning.
    """
    L_values = [float(L) for L in L_values]
    if not (math.isfinite(delta) and all(0 < L < math.inf for L in L_values)):
        raise ValidationError("need finite delta and finite ladder values L > 0")
    if len(L_values) < 5:
        raise ValidationError("need at least 5 ladder values")
    if max(L_values) < 1000.0 * min(L_values) * (1.0 - 1e-12):
        raise ValidationError("ladder must span at least 3 decades")
    if s_values is None:
        if space is None:
            raise ValidationError("either a space or s_values is required")
        s_values = [
            instability_lower_bound(space, delta, L, budget=budget, seed=seed)[0]
            for L in L_values
        ]
    elif len(s_values) != len(L_values):
        raise ValidationError("s_values must match the ladder")
    points = []
    for L, s in zip(L_values, s_values):
        if s <= 0.0:
            warnings.warn(f"s estimate vanished at L={L}; point excluded", stacklevel=2)
            continue
        points.append((L, s))
    if len(points) < 2:
        raise ValidationError("not enough nonzero points to fit a growth rate")
    log_l = np.log([p[0] for p in points])
    log_s = np.log([p[1] for p in points])
    slope, intercept = np.polyfit(log_l, log_s, 1)
    residual = float(np.sqrt(np.mean((log_s - (slope * log_l + intercept)) ** 2)))
    return GrowthRateFit(float(slope), residual, tuple(points))


@dataclass(frozen=True)
class TransferRow:
    delta: float
    L: float
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class TransferReport:
    c: float
    rows: tuple[TransferRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.holds for row in self.rows)


def distortion_transfer_check(s_x: dict, s_y: dict, c: float,
                              key_decimals: int = 9) -> TransferReport:
    """Check s_X(delta, L) <= 3c + 4 s_Y(delta + 3c, L + c) on matched grids.

    ``s_x`` and ``s_y`` map (delta, L) pairs to sampled instability
    values.  The left side holds lower bounds, so only a left value
    exceeding the right side counts as a violation; s_y must contain
    every shifted argument.
    """
    if c < 0:
        raise ValidationError("distortion bound c must be nonnegative")

    def key(delta, L):
        return (round(delta, key_decimals), round(L, key_decimals))

    table_y = {key(d, L): v for (d, L), v in s_y.items()}
    rows = []
    for (delta, L), lhs in sorted(s_x.items()):
        shifted = key(delta + 3.0 * c, L + c)
        if shifted not in table_y:
            raise ValidationError(
                f"s_Y grid is missing the shifted argument {shifted}"
            )
        rhs = 3.0 * c + 4.0 * table_y[shifted]
        rows.append(TransferRow(delta, L, lhs, rhs, lhs <= rhs + 1e-12))
    return TransferReport(c, tuple(rows))


# ---------------------------------------------------------------------------
# Built-in spaces


def _as_array(p) -> np.ndarray:
    return np.asarray(p, dtype=float)


def _linear_segment(x, y):
    x = _as_array(x)
    y = _as_array(y)

    def sampler(t: float):
        return x + t * (y - x)

    return sampler


def _offset_witnesses(dim: int, h_cap: Callable[[float, float], float]):
    """Midpoint-offset family: x = 0, y = L e1, z = (L/2) e1 + h e2."""

    def witnesses(delta: float, L: float):
        cap = h_cap(delta, L)
        for frac in np.linspace(0.05, 1.0, 40):
            h = cap * frac
            x = np.zeros(dim)
            y = np.zeros(dim)
            y[0] = L
            z = np.zeros(dim)
            z[0] = L / 2.0
            z[min(1, dim - 1)] = h
            yield x, y, z

    return witnesses


def euclidean_space(dim: int) -> MetricSpaceHandle:
    """R^dim with the Euclidean metric and straight segments."""
    if dim < 1:
        raise ValidationError("dimension must be positive")

    def distance(p, q):
        return float(np.linalg.norm(_as_array(p) - _as_array(q)))

    def h_cap(delta, L):
        # largest strict-betweenness offset: sqrt(2 L delta + delta^2)/2
        return euclidean_instability_exact(delta, L) * (1.0 - 1e-9)

    def random_triple(rng, delta, L):
        x = rng.normal(size=dim) * L / 4.0
        y = x + rng.normal(size=dim) * L / 4.0
        z = 0.5 * (x + y) + rng.normal(size=dim) * delta
        return x, y, z

    return MetricSpaceHandle(
        name=f"euclidean:{dim}",
        distance=distance,
        segment=_linear_segment,
        witnesses=_offset_witnesses(dim, h_cap) if dim >= 2 else None,
        random_triple=random_triple,
    )


def sup_product_space(dim: int) -> MetricSpaceHandle:
    """R^dim with the sup metric; coordinatewise proportional segments."""
    if dim < 1:
        raise ValidationError("dimension must be positive")

    def distance(p, q):
        return float(np.max(np.abs(_as_array(p) - _as_array(q))))

    def h_cap(delta, L):
        # max(L/2, h) keeps slack 0 up to h = L/2, then slack = 2h - L
        return (L + delta) / 2.0 * (1.0 - 1e-9) if delta > 0 else L / 2.0

    def random_triple(rng, delta, L):
        x = rng.uniform(-L / 2.0, L / 2.0, size=dim)
        y = rng.uniform(-L / 2.0, L / 2.0, size=dim)
        z = 0.5 * (x + y) + rng.uniform(-L / 2.0, L / 2.0, size=dim)
        return x, y, z

    return MetricSpaceHandle(
        name=f"supprod:{dim}",
        distance=distance,
        segment=_linear_segment,
        witnesses=_offset_witnesses(dim, h_cap) if dim >= 2 else None,
        random_triple=random_triple,
    )


def _halfplane_product_hooks(k: int):
    """Segment, witness and random-triple hooks on k-tuples of UHPoints.

    Returns ``(segment, witnesses, random_triple)``; ``witnesses`` is
    None for a single factor.  Segments move every factor along its
    half-plane geodesic at proportional speed.
    """

    def segment(p, q):
        def sampler(t: float):
            return tuple(geodesic_point(zp, zq, t) for zp, zq in zip(p, q))

        return sampler

    def witnesses(delta: float, L: float):
        # move distance L in factor 0; offset the midpoint in factor 1
        if 2.0 * L > 600.0:  # heights would overflow doubles
            return
        x = (UHPoint(0.0, 1.0),) * k
        y = (UHPoint(0.0, math.exp(2.0 * L)),) + x[1:]
        for frac in np.linspace(0.05, 1.0, 40):
            height = math.exp(2.0 * min(L / 2.0 + delta, L) * frac)
            z = (UHPoint(0.0, math.exp(L)), UHPoint(0.0, height)) + x[2:]
            yield x, y, z

    def random_triple(rng, delta, L):
        scale = min(L / 4.0, 5.0)  # keep exp() inside double range

        def rand_point():
            return UHPoint(rng.normal() * scale, math.exp(rng.normal() * scale))

        x = tuple(rand_point() for _ in range(k))
        y = tuple(rand_point() for _ in range(k))
        z = tuple(
            geodesic_point(zx, zy, 0.5 + rng.normal() * 0.1) for zx, zy in zip(x, y)
        )
        return x, y, z

    return segment, (witnesses if k >= 2 else None), random_triple


def hyp_product_space(factors: int) -> MetricSpaceHandle:
    """Product of half-planes with the sup of the (halved) hyperbolic metrics."""
    if factors < 1:
        raise ValidationError("need at least one factor")

    def distance(p, q):
        return max(hyp_distance(zp, zq) for zp, zq in zip(p, q))

    segment, witnesses, random_triple = _halfplane_product_hooks(factors)
    return MetricSpaceHandle(
        name=f"hyp-product:{factors}",
        distance=distance,
        segment=segment,
        witnesses=witnesses,
        random_triple=random_triple,
    )
