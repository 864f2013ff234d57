"""Geodesic-stability diagnostics for metric spaces.

A point z is delta-between x and y when d(x,z) + d(z,y) - d(x,y) < delta.
The instability value s(delta, L) is the supremal distance from such a z
to a chosen geodesic [xy] with d(x,y) <= L; searches return certified
lower bounds together with their witness triples.  In sup-metric
products the chosen geodesic is the coordinatewise one with all factors
parameterized proportionally, so reported values are relative to that
representative (still valid lower bounds for the supremum over paths).

A space states its metric once, in its ``segment_distances`` kernel:
d(p, q) is the kernel on the constant path at p.  A search stacks its n
candidates once into one (n, 3, width) array and hands the kernel
slices of it: d(x, y), d(x, z) and d(z, y) for every candidate come from
one call on 3n constant-path rows, picked by fancy indexing, before
filtering with array masks.

The distance from z to [xy] is refined by zooming the live rows together:
each round evaluates 65 evenly spaced parameters per row in one
``segment_distances`` call, on [0, 1] for every row first, then on the
bracket [t_{k-1}, t_{k+1}] around each live row's best sample t_k, until
those brackets are at most 1e-6 wide (4 rounds).  Distance to a point is
convex along CAT(0) half-plane geodesics and affine normed paths, and so
is a maximum of convex functions, so the bracket keeps the minimiser and
a row's floor (``_floors``) stays below its later samples.  A row stays
live while its best sample reaches every floor exceeding its own row's
sampling error; the value is the smallest sample, at a point of the path.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import ValidationError, check_count
from .halfplane import UHPoint, geodesic_distances, geodesic_point

Point = Any
Triples = Sequence[tuple] | np.ndarray  # n triples (x, y, z), or their (n, 3, width) stack
_BETWEEN_ATOL = 1e-12  # closure tolerance so exact-slack witnesses count at delta = 0
_ZOOM_GRID = np.linspace(0.0, 1.0, 65)  # samples per row and zoom round
_RESOLUTION = 1e-6  # zooming stops once every bracket is this narrow
_CONSTANT_PATHS = np.array([(0, 0, 1), (0, 0, 2), (2, 2, 1)])  # rows for d(x,y), d(x,z), d(z,y)


@dataclass
class MetricSpaceHandle:
    """A metric space presented by one segment-distance kernel.

    ``segment_distances(triples, ts)`` takes n triples (x, y, z), as a
    sequence or as one (n, 3, width) array of stacked points, and an
    (n, m) array of parameters in [0, 1] and returns the (n, m) array of
    distances from each z to the point at each of its row's parameters on
    the chosen geodesic from x to y; an entry that is not finite means a
    path point left the space.  The kernel must accept x == y, the
    constant path, and it is the space's only metric: ``distance`` and
    the betweenness filter evaluate it on constant paths.  The path must
    be parametrized proportionally to arclength, so moving t by w moves
    the path point by at most w * d(x, y); a search counts a distance
    only above that bound for its final bracket width w.  Each row's
    t -> d(z, path(t)) must be convex: the zoom's bracket and its floor
    rely on it, and a kernel that is not convex may change results.  A
    search stacks its candidates once and passes every call an array.
    Optional hooks drive the witness search: ``witnesses(delta, L)``
    yields structured candidate triples and ``random_triple(rng, delta,
    L)`` samples one candidate from a ``random.Random``.
    """

    name: str
    segment_distances: Callable[[Triples, np.ndarray], np.ndarray]
    witnesses: Callable[[float, float], Iterable[tuple]] | None = None
    random_triple: Callable[[random.Random, float, float], tuple] | None = None

    def distance(self, p: Point, q: Point) -> float:
        """d(p, q): the kernel on the constant path at p, at t = 0."""
        return float(self.segment_distances([(p, p, q)], np.zeros((1, 1)))[0, 0])


@dataclass(frozen=True, slots=True)
class BetweennessWitness:
    x: Point
    y: Point
    z: Point
    delta_slack: float
    offline_distance: float


def _lengths_and_slacks(space: MetricSpaceHandle,
                        triples: Triples) -> tuple[np.ndarray, np.ndarray]:
    """d(x, y) and the slack d(x, z) + d(z, y) - d(x, y) per triple, from one kernel call.

    The kernel gets the 3n constant-path rows (x, x, y), (x, x, z) and
    (z, z, y), each block in triple order, gathered from the stacked points.
    """
    points = _stacked(triples)
    rows = points[:, _CONSTANT_PATHS].swapaxes(0, 1).reshape(-1, *points.shape[1:])
    d_xy, d_xz, d_zy = space.segment_distances(rows, np.zeros((len(rows), 1))).reshape(3, -1)
    return d_xy, d_xz + d_zy - d_xy


def _floors(d: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per row of samples d with argmin k, a bound below the row on [t_{k-1}, t_{k+1}].

    2 f_j - max(f_{j-1}, f_{j+1}) at j = clip(k, 1, 63), less 1e-9 of that
    max for rounding: a convex row lies above its secants through f_j.
    """
    at, j = np.arange(len(d)), np.clip(k, 1, d.shape[1] - 2)
    return 2.0 * d[at, j] - (1.0 + 1e-9) * np.maximum(d[at, j - 1], d[at, j + 1])


def _segment_distances(space: MetricSpaceHandle, triples: Triples,
                       lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each z to its chosen geodesic [xy], the live rows zoomed together.

    Returns the smallest sample of each row and its last bracket width; a
    row that is no longer live keeps those of its last round.  A constant
    path (x == y) needs no branch: the kernel returns d(z, x) throughout.
    """
    triples = _stacked(triples)
    live = np.arange(len(triples))
    lo, width, best = np.zeros(len(live)), np.ones(len(live)), np.full(len(live), np.inf)
    sure = -np.inf  # the largest floor above its row's sampling error
    while True:
        ts = lo[live, None] + width[live, None] * _ZOOM_GRID
        d = space.segment_distances(triples[live], ts)
        if not np.isfinite(d).all():
            raise ValidationError("a segment sample leaves the space")
        at, k = np.arange(len(live)), d.argmin(axis=1)
        best[live] = np.minimum(best[live], d[at, k])
        lo[live] = ts[at, np.maximum(k - 1, 0)]
        width[live] = ts[at, np.minimum(k + 1, ts.shape[1] - 1)] - lo[live]
        floors = _floors(d, k)
        sure = floors[floors > _RESOLUTION * lengths[live]].max(initial=sure)
        live = live[best[live] >= sure]
        if (width[live] <= _RESOLUTION).all():
            return best, width


def segment_distance(space: MetricSpaceHandle, x: Point, y: Point, z: Point) -> float:
    """Distance from z to the chosen geodesic [xy], refined to a bracket of 1e-6.

    The one-triple case of the search's zoom: an upper bound on the true
    minimum for the chosen representative, attained at a point of the path.
    """
    # with an infinite length no floor is sure: the one row is zoomed to the end
    return float(_segment_distances(space, [(x, y, z)], np.full(1, np.inf))[0][0])


def euclidean_instability_exact(delta: float, L: float) -> float:
    """Closed form sqrt(2 L delta + delta^2) / 2 for Euclidean space."""
    if not (0 <= delta < math.inf and 0 <= L < math.inf):
        raise ValidationError("delta and L must be finite and nonnegative")
    return math.sqrt(2.0 * L * delta + delta * delta) / 2.0


def instability_lower_bound(space: MetricSpaceHandle, delta: float, L: float,
                            budget: int = 500, seed: int = 0,
                            ) -> tuple[float, BetweennessWitness | None]:
    """Certified lower bound for s(delta, L) with its best witness.

    Up to ``budget`` candidates are collected, structured witnesses from
    the space handle first, then random triples from ``random.Random(seed)``,
    and stacked once into one array; a ragged candidate, or one with a
    coordinate that is not a finite number, raises ValidationError.
    Those within the diameter and betweenness constraints (betweenness
    accepted up to closure tolerance, so exact-geodesic witnesses count
    at delta = 0) are refined together.  A refined distance no larger
    than its bracket width times d(x, y) is within sampling error of 0 and
    counts as 0.  The witness holds the first candidate attaining the
    largest distance.
    """
    if not (0 <= delta < math.inf and 0 < L < math.inf):
        raise ValidationError("need finite delta >= 0 and L > 0")
    check_count(budget, "budget", 1)
    candidates = []
    if space.witnesses is not None:
        candidates.extend(itertools.islice(space.witnesses(delta, L), budget))
    if space.random_triple is not None:
        rng = random.Random(seed)
        while len(candidates) < budget:
            candidates.append(space.random_triple(rng, delta, L))
    if not candidates:
        return 0.0, None
    points = _stacked(candidates)
    lengths, slacks = _lengths_and_slacks(space, points)
    keep = np.flatnonzero((lengths <= L * (1.0 + 1e-12))
                          & ((slacks < delta) | (slacks <= _BETWEEN_ATOL)))
    if not len(keep):
        return 0.0, None
    values, width = _segment_distances(space, points[keep], lengths[keep])
    values = np.where(values > width * lengths[keep], values, 0.0)
    k = int(values.argmax())  # the first maximum
    value = float(values[k])
    if not value > 0.0:
        return 0.0, None
    return value, BetweennessWitness(*candidates[keep[k]], float(slacks[keep[k]]), value)


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
    synthetic data).  Zero estimates are left out of the fit and of
    ``points``.
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
    elif not all(math.isfinite(s) for s in s_values):
        raise ValidationError("s_values must be finite")
    points = [(L, s) for L, s in zip(L_values, s_values) if s > 0.0]
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


def distortion_transfer_check(s_x: dict, s_y: dict, c: float) -> TransferReport:
    """Check s_X(delta, L) <= 3c + 4 s_Y(delta + 3c, L + c) on matched grids.

    ``s_x`` and ``s_y`` map (delta, L) pairs to sampled instability
    values.  The left side holds lower bounds, so only a left value
    exceeding the right side counts as a violation; s_y must contain
    every shifted argument, matched after rounding to 9 decimals.
    """
    if not 0 <= c < math.inf:
        raise ValidationError(f"distortion bound c must be finite and nonnegative, got {c}")

    def key(delta, L):
        return (round(delta, 9), round(L, 9))

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


def _stacked(triples: Triples, dtype=None, width: int | None = None) -> np.ndarray:
    """Triples as one (n, 3, ...) array, not copied if already one of ``dtype``.

    A malformed point raises ValidationError: ragged points, a coordinate
    that is not a finite number (``None`` and nan included), and with
    ``width`` a point of any other number of coordinates.
    """
    try:
        points = np.asarray(triples, dtype=dtype)
    except (TypeError, ValueError):  # ragged or non-numeric points
        points = np.empty(0)
    if width is not None and points.shape[1:] != (3, width):
        raise ValidationError(f"points of this space have {width} coordinates")
    if points.shape[1:2] != (3,):
        raise ValidationError("candidates must be triples of points of one shape")
    if not (np.issubdtype(points.dtype, np.number) and np.isfinite(points).all()):
        raise ValidationError("point coordinates must be finite numbers")
    return points


def _normed_space(name: str, dim: int,
                  norm: Callable[[Iterable[np.ndarray]], np.ndarray],
                  h_cap: Callable[[float, float], float],
                  random_triple: Callable[[random.Random, float, float], np.ndarray],
                  ) -> MetricSpaceHandle:
    """R^dim under ``norm`` with straight segments x + t (y - x).

    ``norm`` combines the dim coordinate arrays of the offsets elementwise.
    A candidate is one (3, dim) array whose rows are x, y and z.
    Structured witnesses (dim >= 2) are the midpoint offsets x = 0,
    y = L e1, z = (L/2) e1 + h e2 for 40 heights h up to ``h_cap(delta, L)``.
    """
    check_count(dim, "dimension", 1)

    def segment_distances(triples, ts):
        # points indexed (coordinate, point of the triple, row, 1)
        points = _stacked(triples, float, dim).transpose(2, 1, 0)[..., None]
        return norm(z - (x + ts * (y - x)) for x, y, z in points)

    def witnesses(delta: float, L: float):
        cap = h_cap(delta, L)
        for frac in np.linspace(0.05, 1.0, 40):
            triple = np.zeros((3, dim))
            triple[1, 0] = L
            triple[2, 0] = L / 2.0
            triple[2, 1] = cap * frac
            yield triple

    return MetricSpaceHandle(
        name=f"{name}:{dim}",
        segment_distances=segment_distances,
        witnesses=witnesses if dim >= 2 else None,
        random_triple=random_triple,
    )


def euclidean_space(dim: int) -> MetricSpaceHandle:
    """R^dim with the Euclidean metric and straight segments."""

    def h_cap(delta, L):
        # largest strict-betweenness offset: sqrt(2 L delta + delta^2)/2
        return euclidean_instability_exact(delta, L) * (1.0 - 1e-9)

    def random_triple(rng, delta, L):
        x = [rng.gauss(0.0, L / 4.0) for _ in range(dim)]
        y = [p + rng.gauss(0.0, L / 4.0) for p in x]
        z = [0.5 * (p + q) + rng.gauss(0.0, delta) for p, q in zip(x, y)]
        return np.array((x, y, z))

    return _normed_space("euclidean", dim,
                         lambda vs: np.sqrt(functools.reduce(np.add, (v * v for v in vs))),
                         h_cap, random_triple)


def sup_product_space(dim: int) -> MetricSpaceHandle:
    """R^dim with the sup metric; coordinatewise proportional segments."""

    def h_cap(delta, L):
        # max(L/2, h) keeps slack 0 up to h = L/2, then slack = 2h - L
        return (L + delta) / 2.0 * (1.0 - 1e-9) if delta > 0 else L / 2.0

    def random_triple(rng, delta, L):
        x = [rng.uniform(-L / 2.0, L / 2.0) for _ in range(dim)]
        y = [rng.uniform(-L / 2.0, L / 2.0) for _ in range(dim)]
        z = [0.5 * (p + q) + rng.uniform(-L / 2.0, L / 2.0) for p, q in zip(x, y)]
        return np.array((x, y, z))

    return _normed_space("supprod", dim,
                         lambda vs: functools.reduce(np.maximum, (np.abs(v) for v in vs)),
                         h_cap, random_triple)


def _halfplane_product(k: int) -> MetricSpaceHandle:
    """``hyp-product:k``: k-tuples of UHPoints under the sup of the factor metrics.

    Segments move every factor along its half-plane geodesic at
    proportional speed, and the distance to a path point is the largest
    factor distance.  A single factor has no structured witnesses.
    """

    def segment_distances(triples, ts):
        # points indexed (factor, point of the triple, row, 1); one factor at
        # a time keeps the temporaries at the size of ts
        points = _stacked(triples, complex, k).transpose(2, 1, 0)[..., None]
        return functools.reduce(np.maximum, (
            geodesic_distances(x.real, x.imag, y.real, y.imag, z.real, z.imag, ts)
            for x, y, z in points))

    origin = (UHPoint(0.0, 1.0),) * k  # shared by every structured witness

    def witnesses(delta: float, L: float):
        # move distance L in factor 0; offset the midpoint in factor 1
        if 2.0 * L > 600.0:  # heights would overflow doubles
            return
        x = origin
        y = (UHPoint(0.0, math.exp(2.0 * L)),) + x[1:]
        for frac in np.linspace(0.05, 1.0, 40):
            height = math.exp(2.0 * min(L / 2.0 + delta, L) * frac)
            z = (UHPoint(0.0, math.exp(L)), UHPoint(0.0, height)) + x[2:]
            yield x, y, z

    def random_triple(rng, delta, L):
        scale = min(L / 4.0, 5.0)  # keep exp() inside double range

        def rand_point():
            return UHPoint(rng.gauss(0.0, scale), math.exp(rng.gauss(0.0, scale)))

        x = tuple(rand_point() for _ in range(k))
        y = tuple(rand_point() for _ in range(k))
        z = tuple(
            geodesic_point(zx, zy, 0.5 + rng.gauss(0.0, 0.1)) for zx, zy in zip(x, y)
        )
        return x, y, z

    return MetricSpaceHandle(f"hyp-product:{k}", segment_distances,
                             witnesses if k >= 2 else None, random_triple)


def hyp_product_space(factors: int) -> MetricSpaceHandle:
    """Product of half-planes with the sup of the (halved) hyperbolic metrics."""
    check_count(factors, "factor count", 1)
    return _halfplane_product(factors)
