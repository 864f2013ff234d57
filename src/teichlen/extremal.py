"""Extremal-length estimators over a collar decomposition.

Each component of the decomposition contributes separately and the
surface-level estimate is the maximum over components.  A thin annulus
with modulus m crossed i times at estimated twist t contributes
i^2 (m + t^2 / m), or n^2 / m for n parallel core copies.  A thick
component contributes the square of a concrete length proxy: summed
orthogeodesic arc lengths inside each pants plus a twist-travel term
|t| * l * i on moderate internal cuffs.  The proxy is validated by
property tests, not by matching any particular multiplicative constant.

A ``CurveFamily`` stores its curve systems by column, each distinct
(i, b, n) cell of a curve once, and groups its members by crossing
pattern when it is built.  It also owns the arc multiplicities of its
patterns in each pants curve-end triple, worked out on first use and
kept, since they do not depend on the point.  ``ComponentEvaluator.table``
computes the contributions of a whole family at once, for the distance
estimator and, as its one-member case, for the ``lambda_*`` estimators:
annulus and twist-travel terms once per cell, and per pattern a thick arc
sum of count * d over the point's orthogeodesic rows, each gathered by
member.  A thin annulus is evaluated at height m / modulus_unit: 1 here,
pi in the distance estimator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .collar import (
    DEFAULT_PARAMS,
    CollarDecomposition,
    CollarParams,
    ThickComponent,
    collar_decomposition,
)
from .errors import NumericDomainError, ValidationError
from .pants import PantsCuffs, pants_orthogeodesics
from .surface import CURVE, PUNCTURE, CurveSystem, FNPoint, Marking


def _annulus_term(i, n, height, t):
    """i^2 (height + t^2/height) where i > 0, else n^2/height; scalars or arrays."""
    return np.where(i > 0, i * i * (height + t * t / height), n * n / height)


def lambda_annulus(i: int, n: int, m: float, t_hat: float | None = None) -> float:
    """Annulus contribution: i^2 (m + t^2/m) for crossings, n^2/m for cores."""
    if not all(isinstance(k, numbers.Integral) and k >= 0 for k in (i, n)):
        raise ValidationError(f"counts must be integers >= 0, got {i!r}, {n!r}")
    if not 0 < m < math.inf:
        raise ValidationError("modulus must be positive and finite")
    if i > 0 and (t_hat is None or not math.isfinite(t_hat)):
        raise ValidationError("crossing arcs need a finite twist estimate")
    return float(_annulus_term(i, n, m, 0.0 if t_hat is None else t_hat))


class ArcMultiplicities(NamedTuple):
    """How arc endpoints on the three cuffs of a pants pair up inside it."""

    a11: int
    a22: int
    a33: int
    a12: int
    a13: int
    a23: int


def arc_multiplicities(m1: int, m2: int, m3: int) -> ArcMultiplicities:
    """Canonical arc pairing for endpoint counts (m1, m2, m3) on the cuffs.

    When the counts satisfy the triangle inequalities every arc joins two
    distinct cuffs; otherwise the excess on the dominant cuff returns to
    it.  This is the unique pairing with the fewest same-cuff arcs.
    """
    counts = [m1, m2, m3]
    if not all(isinstance(m, numbers.Integral) and m >= 0 for m in counts):
        raise ValidationError(f"endpoint counts must be integers >= 0, got {tuple(counts)}")
    if sum(counts) % 2 != 0:
        raise ValidationError(f"endpoint counts {tuple(counts)} have odd total")
    big = counts.index(max(counts))
    loops = [0, 0, 0]
    loops[big] = max(0, 2 * counts[big] - sum(counts)) // 2
    counts[big] -= 2 * loops[big]  # the rest satisfies the triangle inequalities
    m1, m2, m3 = counts
    return ArcMultiplicities(*loops, (m1 + m2 - m3) // 2, (m1 + m3 - m2) // 2,
                             (m2 + m3 - m1) // 2)


class CurveFamily:
    """Finite stand-in for the full set of curve classes, stored by column.

    ``curves`` names the columns.  For curve k, ``cells[k]`` is an int
    array of shape (cells, 3) holding each distinct (i, b, n) of that
    column once, and the read-only ``index[k]`` gives each member the row
    of its cell.  The family also groups its members by crossing pattern,
    the i-counts of a member: ``patterns`` holds each distinct pattern
    once and the read-only ``key`` gives each member the index of its
    pattern.  ``coords``, shape (members, curves, 3), and ``members``
    rebuild the full rows on each access.
    """

    def __init__(self, members: Iterable[CurveSystem]):
        members = tuple(members)
        curves = members[0].data.keys() if members else {}.keys()
        if any(beta.data.keys() != curves for beta in members):
            raise ValidationError("curve family members must share one curve set")
        # a CurveSystem keeps its curves sorted, so all rows share one column order
        coords = np.array([list(beta.data.values()) for beta in members], dtype=np.int64)
        coords = coords.reshape(len(members), len(curves), 3)
        patterns, key = np.unique(coords[:, :, 0], axis=0, return_inverse=True)
        unique = [np.unique(c, axis=0, return_inverse=True) for c in coords.swapaxes(0, 1)]
        self._store(tuple(u[0] for u in unique), tuple(u[1] for u in unique),
                    tuple(curves), key, tuple(map(tuple, patterns.tolist())))

    def _store(self, cells: tuple[np.ndarray, ...], index: tuple[np.ndarray, ...],
               curves: tuple[str, ...], key: np.ndarray,
               patterns: tuple[tuple[int, ...], ...]) -> "CurveFamily":
        if len(key) == 0:
            raise ValidationError("curve family must be nonempty")
        for array in (*cells, *index, key):
            array.flags.writeable = False
        self.cells, self.index, self.curves = cells, index, curves
        self.key, self.patterns = key, patterns
        self._arcs: dict[tuple[str | None, ...], tuple] = {}
        return self

    def arc_counts(self, curve_ends: tuple[str | None, ...]) -> tuple:
        """Per pattern, the nonzero (arc, count) pairs of one pants' arc pairing.

        ``curve_ends`` names the curve on each end of the pants, None for
        a boundary or puncture; arcs are numbered in ``ArcMultiplicities``
        order.  Built on first use for each triple and kept.
        """
        arcs = self._arcs.get(curve_ends)
        if arcs is None:
            columns = [None if name is None else self.curves.index(name)
                       for name in curve_ends]
            arcs = []
            for pattern in self.patterns:
                counts = [0 if k is None else pattern[k] for k in columns]
                pairs = enumerate(arc_multiplicities(*counts)) if any(counts) else ()
                arcs.append(tuple((arc, count) for arc, count in pairs if count))
            arcs = self._arcs[curve_ends] = tuple(arcs)
        return arcs

    @property
    def coords(self) -> np.ndarray:
        coords = np.empty((len(self), len(self.curves), 3), dtype=np.int64)
        for k, (cells, index) in enumerate(zip(self.cells, self.index)):
            coords[:, k] = cells[index]
        return coords

    @property
    def members(self) -> tuple[CurveSystem, ...]:
        return tuple(CurveSystem(dict(zip(self.curves, row)))
                     for row in self.coords.tolist())

    def __len__(self):
        return len(self.key)

    def __iter__(self):
        return iter(self.members)


class ComponentEvaluator:
    """Per-point table of the component contributions of a decomposition.

    Built once per point sigma, with the orthogeodesics of each pants (all
    inf where they leave double range, so that only the curve systems
    entering that pants overflow); ``table`` then gives one row per
    component in the decomposition's order (thin annuli, then thick
    components), labelled by ``labels``.
    A thin annulus of modulus m is evaluated at height m / modulus_unit;
    peripheral annuli always contribute 0.  Cuffs longer than the
    decomposition's eps1 inside a thick component add the twist-travel term.
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
            for ends in (pants_by_name[name].ends for name in comp.pants):
                try:
                    ortho = pants_orthogeodesics(PantsCuffs(
                        *(0.0 if e.kind == PUNCTURE else sigma.length(e.name) for e in ends)))
                except NumericDomainError:  # table raises for the patterns entering it
                    ortho = (math.inf,) * 6
                pants_rows.append((tuple(e.name if e.kind == CURVE else None for e in ends),
                                   ortho))
            cuff_terms = tuple(
                (cuff, sigma.length(cuff), sigma.twist(cuff))
                for cuff in comp.internal_cuffs
                if sigma.length(cuff) > eps1
            )
            self._thick.append((pants_rows, cuff_terms))

    def table(self, family: CurveFamily) -> np.ndarray:
        """Contributions of every member of the family, shape (components, members).

        Annulus and twist-travel terms are computed once per cell of
        ``family.cells`` and gathered by ``family.index``; thick arc sums
        add count * d over the family's ``arc_counts`` once per pattern in
        ``family.patterns`` and are gathered by ``family.key``.  The terms
        are summed in the scalar order, so values are bit-identical to a
        per-member loop, and a pattern that does not enter an overflowed
        (inf) pants never meets its row.  A value outside double range
        raises NumericDomainError naming its component.
        """
        column = {c: k for k, c in enumerate(family.curves)}
        cells = [c.T.astype(float) for c in family.cells]  # (i, b, n) rows per curve
        rows = []
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for entry in self._thin:
                if entry is None:
                    rows.append(np.zeros(len(family)))
                    continue
                curve, height, twist = entry
                k = column[curve]
                i, b, n = cells[k]
                rows.append(_annulus_term(i, n, height, b + twist)[family.index[k]])
            for pants_rows, cuff_terms in self._thick:
                arcs = [(family.arc_counts(ends), ortho) for ends, ortho in pants_rows]
                sums = []
                for p in range(len(family.patterns)):
                    length = 0.0
                    for counts, ortho in arcs:
                        for arc, count in counts[p]:
                            length += count * ortho[arc]
                    sums.append(length)
                length = np.array(sums)[family.key]
                for cuff, ell, twist in cuff_terms:
                    k = column[cuff]
                    i, b, _ = cells[k]
                    length = length + np.where(
                        i > 0, np.abs(b + twist) * ell * i, 0.0)[family.index[k]]
                rows.append(length * length)
        table = np.array(rows)
        if not np.isfinite(table).all():
            component = self.labels[np.isfinite(table).all(axis=1).argmin()][0]
            raise NumericDomainError(f"the contribution of {component} leaves double range")
        return table

    def contributions(self, beta: CurveSystem) -> list[float]:
        """One value per component for a single curve system."""
        # one member is its own cells and pattern, so np.unique is skipped
        cells = np.array(list(beta.data.values()), dtype=np.int64).reshape(-1, 1, 3)
        zero = np.zeros(1, dtype=np.int64)
        single = CurveFamily.__new__(CurveFamily)._store(
            tuple(cells), (zero,) * len(cells), tuple(beta.data), zero,
            (tuple(i for i, _, _ in beta.data.values()),))
        return self.table(single)[:, 0].tolist()


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
