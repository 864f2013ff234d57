"""Extremal-length estimators over a collar decomposition.

Each component of the decomposition contributes separately and the
surface-level estimate is the maximum over components.  A thin annulus
with modulus m crossed i times at estimated twist t contributes
i^2 (m + t^2 / m), or n^2 / m for n parallel core copies.  A thick
component contributes the square of a concrete length proxy: summed
orthogeodesic arc lengths inside each pants plus a twist-travel term
|t| * l * i on moderate internal cuffs.  The proxy is validated by
property tests, not by matching any particular multiplicative constant.

``ComponentEvaluator`` computes every contribution, for these estimators
and for the distance estimator alike.  It evaluates a thin annulus at
height m / modulus_unit: the ``lambda_*`` estimators here use the raw
modulus (modulus_unit = 1) and the distance estimator uses m / pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .collar import (
    DEFAULT_PARAMS,
    CollarDecomposition,
    CollarParams,
    ThickComponent,
    collar_decomposition,
)
from .errors import ValidationError
from .pants import PantsCuffs, pants_orthogeodesics
from .surface import CURVE, PUNCTURE, CurveSystem, FNPoint, Marking


def _annulus_term(i: int, n: int, height: float, t: float) -> float:
    if i > 0:
        return i * i * (height + t * t / height)
    if n > 0:
        return n * n / height
    return 0.0


def lambda_annulus(i: int, n: int, m: float, t_hat: float | None = None) -> float:
    """Annulus contribution: i^2 (m + t^2/m) for crossings, n^2/m for cores."""
    if i < 0 or n < 0:
        raise ValidationError("counts must be nonnegative")
    if not m > 0:
        raise ValidationError("modulus must be positive")
    if i > 0 and (t_hat is None or not math.isfinite(t_hat)):
        raise ValidationError("crossing arcs need a finite twist estimate")
    return _annulus_term(i, n, m, t_hat)


@dataclass(frozen=True)
class ArcMultiplicities:
    """How arc endpoints on the three cuffs of a pants pair up inside it."""

    a11: int
    a22: int
    a33: int
    a12: int
    a13: int
    a23: int

    def pairs(self):
        return (
            ((1, 1), self.a11), ((2, 2), self.a22), ((3, 3), self.a33),
            ((1, 2), self.a12), ((1, 3), self.a13), ((2, 3), self.a23),
        )


@lru_cache(maxsize=4096)
def arc_multiplicities(m1: int, m2: int, m3: int) -> ArcMultiplicities:
    """Canonical arc pairing for endpoint counts (m1, m2, m3) on the cuffs.

    When the counts satisfy the triangle inequalities every arc joins two
    distinct cuffs; otherwise the excess on the dominant cuff returns to
    it.  This is the unique pairing with the fewest same-cuff arcs.
    """
    counts = (m1, m2, m3)
    if min(counts) < 0:
        raise ValidationError("endpoint counts must be nonnegative")
    if sum(counts) % 2 != 0:
        raise ValidationError(f"endpoint counts {counts} have odd total")
    a = {key: 0 for key in ((1, 1), (2, 2), (3, 3), (1, 2), (1, 3), (2, 3))}
    big = max(range(3), key=lambda k: counts[k])
    rest = [k for k in range(3) if k != big]
    if counts[big] > counts[rest[0]] + counts[rest[1]]:
        for other in rest:
            key = tuple(sorted((big + 1, other + 1)))
            a[key] = counts[other]
        a[(big + 1, big + 1)] = (counts[big] - counts[rest[0]] - counts[rest[1]]) // 2
    else:
        a[(1, 2)] = (m1 + m2 - m3) // 2
        a[(1, 3)] = (m1 + m3 - m2) // 2
        a[(2, 3)] = (m2 + m3 - m1) // 2
    return ArcMultiplicities(
        a11=a[(1, 1)], a22=a[(2, 2)], a33=a[(3, 3)],
        a12=a[(1, 2)], a13=a[(1, 3)], a23=a[(2, 3)],
    )


@lru_cache(maxsize=65536)
def _ortho_row(cuffs: tuple[float, float, float]) -> tuple[float, ...]:
    """Orthogeodesic lengths of one pants in ``ArcMultiplicities.pairs()`` order."""
    o = pants_orthogeodesics(PantsCuffs(*cuffs))
    return (o.d11, o.d22, o.d33, o.d12, o.d13, o.d23)


class ComponentEvaluator:
    """Per-point table of the component contributions of a decomposition.

    Built once per point sigma; ``contributions(beta)`` then returns one
    value per component in the decomposition's order (thin annuli, then
    thick components), labelled by ``labels``.  A thin annulus of modulus
    m is evaluated at height m / modulus_unit; peripheral annuli always
    contribute 0.  Cuffs longer than the decomposition's eps1 inside a
    thick component add the twist-travel term.
    """

    def __init__(self, decomposition: CollarDecomposition, sigma: FNPoint,
                 modulus_unit: float = 1.0):
        pants_by_name = decomposition.marking.pants_by_name()
        eps1 = decomposition.params.eps1
        self.labels = tuple(
            [(a.curve, "annulus") for a in decomposition.thin]
            + [(c.component_id, "thick") for c in decomposition.thick]
        )
        self._thin = tuple(
            None if a.peripheral
            else (a.curve, a.modulus / modulus_unit, sigma.twist(a.curve))
            for a in decomposition.thin
        )
        self._thick = []
        for comp in decomposition.thick:
            pants_rows = []
            for name in comp.pants:
                ends = pants_by_name[name].ends
                curve_ends = tuple(e.name if e.kind == CURVE else None for e in ends)
                cuffs = tuple(0.0 if e.kind == PUNCTURE else sigma.length(e.name)
                              for e in ends)
                pants_rows.append((curve_ends, cuffs))
            cuff_terms = tuple(
                (cuff, sigma.length(cuff), sigma.twist(cuff))
                for cuff in comp.internal_cuffs
                if sigma.length(cuff) > eps1
            )
            self._thick.append((tuple(pants_rows), cuff_terms))

    def contributions(self, beta: CurveSystem) -> list[float]:
        data = beta.data
        values = []
        for entry in self._thin:
            if entry is None:
                values.append(0.0)
                continue
            curve, height, twist = entry
            i, b, n = data[curve]
            values.append(_annulus_term(i, n, height, b + twist))
        for pants_rows, cuff_terms in self._thick:
            length = 0.0
            for curve_ends, cuffs in pants_rows:
                counts = [0 if name is None else data[name][0] for name in curve_ends]
                if not any(counts):
                    continue
                ortho = _ortho_row(cuffs)
                for (_, count), d in zip(arc_multiplicities(*counts).pairs(), ortho):
                    if count:
                        length += count * d
            for cuff, ell, twist in cuff_terms:
                i, b, _ = data[cuff]
                if i > 0:
                    length += abs(b + twist) * ell * i
            values.append(length * length)
        return values


def lambda_thick(component: ThickComponent, beta: CurveSystem, sigma: FNPoint,
                 marking: Marking, params: CollarParams = DEFAULT_PARAMS) -> float:
    """Thick contribution: square of the length proxy of beta inside the component.

    Core components parallel to a thin cuff contribute nothing here; they
    are counted by the annulus term alone.
    """
    beta.validate_for(marking)
    single = CollarDecomposition(marking, params, (), (component,))
    return ComponentEvaluator(single, sigma).contributions(beta)[0]


@dataclass(frozen=True)
class ComponentLength:
    """Labeled contribution of one decomposition component."""

    component: str
    kind: str  # "annulus" or "thick"
    value: float


@dataclass(frozen=True)
class EstimateResult:
    value: float
    components: tuple[ComponentLength, ...]

    def component_value(self, component: str) -> float:
        for row in self.components:
            if row.component == component:
                return row.value
        raise ValidationError(f"no component {component!r} in this estimate")


def lambda_surface_estimate(beta: CurveSystem, sigma: FNPoint, marking: Marking,
                            params: CollarParams = DEFAULT_PARAMS,
                            decomposition: CollarDecomposition | None = None,
                            ) -> EstimateResult:
    """Surface extremal-length estimate: max over decomposition components.

    Returns the maximum together with the per-component breakdown.  When
    ``decomposition`` is omitted the full collar decomposition of sigma
    is used; a partial decomposition gives the coarser estimate.  The
    decomposition's own params set the moderate-cuff threshold.
    """
    beta.validate_for(marking)
    sigma.validate_for(marking)
    if decomposition is None:
        decomposition = collar_decomposition(marking, sigma, params)
    ev = ComponentEvaluator(decomposition, sigma)
    rows = tuple(
        ComponentLength(component, kind, value)
        for (component, kind), value in zip(ev.labels, ev.contributions(beta))
    )
    return EstimateResult(max((row.value for row in rows), default=0.0), rows)
