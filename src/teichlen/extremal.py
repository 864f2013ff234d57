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
pattern when it is built: ``CurveFamily(members)`` in one pass over the
members, the builder in ``distance`` one block per pattern.  The arc
multiplicities of its patterns in each pants curve-end triple depend only
on the patterns and the triple's columns, not on the point or the family,
so one module-level cache keeps them for every family with those patterns.
``component_table``, the one place contributions are computed, takes a
whole family at one point over the point's collar decomposition: for the
distance estimator, and with a one-member family for
``lambda_surface_estimate``.  It computes annulus and twist-travel terms
once per cell, and per pattern a thick arc sum of count * d over the
point's orthogeodesic rows, each gathered by member.  A thin annulus is
evaluated at height m / modulus_unit: 1 here, pi in the distance estimator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .collar import (
    DEFAULT_PARAMS,
    CollarDecomposition,
    CollarParams,
    collar_decomposition,
)
from .errors import NumericDomainError, ValidationError, check_count
from .pants import PantsCuffs, pants_orthogeodesics
from .surface import CURVE, PUNCTURE, CurveSystem, FNPoint, Marking


def _annulus_term(i, n, height, t):
    """i^2 (height + t^2/height) where i > 0, else n^2/height; scalars or arrays."""
    return np.where(i > 0, i * i * (height + t * t / height), n * n / height)


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
    for m in counts:
        check_count(m, "endpoint count")
    if sum(counts) % 2 != 0:
        raise ValidationError(f"endpoint counts {tuple(counts)} have odd total")
    big = counts.index(max(counts))
    loops = [0, 0, 0]
    loops[big] = max(0, 2 * counts[big] - sum(counts)) // 2
    counts[big] -= 2 * loops[big]  # the rest satisfies the triangle inequalities
    m1, m2, m3 = counts
    return ArcMultiplicities(*loops, (m1 + m2 - m3) // 2, (m1 + m3 - m2) // 2,
                             (m2 + m3 - m1) // 2)


@functools.lru_cache(maxsize=256)
def _arc_table(patterns: tuple[tuple[int, ...], ...],
               columns: tuple[int | None, ...]) -> tuple:
    """Per pattern, the nonzero (arc, count) pairs for one pants' end columns."""
    arcs = []
    for pattern in patterns:
        counts = [0 if k is None else pattern[k] for k in columns]
        pairs = enumerate(arc_multiplicities(*counts)) if any(counts) else ()
        arcs.append(tuple((arc, count) for arc, count in pairs if count))
    return tuple(arcs)


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
        # one pass over the members numbers each distinct cell of a column and
        # each distinct pattern in first-seen order; a CurveSystem keeps its
        # curves sorted, so all rows share one column order
        cells, patterns = [{} for _ in curves], {}
        index, key = [[] for _ in curves], []
        for beta in members:
            row = tuple(beta.data.values())
            for seen, rows, cell in zip(cells, index, row):
                rows.append(seen.setdefault(cell, len(seen)))
            key.append(patterns.setdefault(tuple(i for i, _, _ in row), len(patterns)))
        self._store(tuple(np.array(list(seen), dtype=np.int64) for seen in cells),
                    tuple(np.array(rows, dtype=np.int64) for rows in index),
                    tuple(curves), np.array(key, dtype=np.int64), tuple(patterns))

    def _store(self, cells: tuple[np.ndarray, ...], index: tuple[np.ndarray, ...],
               curves: tuple[str, ...], key: np.ndarray,
               patterns: tuple[tuple[int, ...], ...]) -> "CurveFamily":
        if len(key) == 0:
            raise ValidationError("curve family must be nonempty")
        for array in (*cells, *index, key):
            array.flags.writeable = False
        self.cells, self.index, self.curves = cells, index, curves
        self.key, self.patterns = key, patterns
        return self

    def arc_counts(self, curve_ends: tuple[str | None, ...]) -> tuple:
        """Per pattern, the nonzero (arc, count) pairs of one pants' arc pairing.

        ``curve_ends`` names the curve on each end of the pants, None for
        a boundary or puncture; arcs are numbered in ``ArcMultiplicities``
        order.  Cached by (patterns, columns), so families sharing their
        patterns share the table.
        """
        columns = tuple(None if name is None else self.curves.index(name) for name in curve_ends)
        return _arc_table(self.patterns, columns)

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


def component_table(decomposition: CollarDecomposition, sigma: FNPoint,
                    family: CurveFamily, modulus_unit: float = 1.0) -> np.ndarray:
    """Contributions of every member of the family at sigma, shape (components, members).

    One row per component, in the order of ``decomposition.labels``.  A
    thin annulus of modulus m is evaluated at height m / modulus_unit; a
    peripheral one contributes 0.  Every internal cuff of a thick
    component adds the twist-travel term: the decomposition cuts every
    curve of length at most eps1, so no such cuff is thin.  Annulus and
    twist-travel terms are computed once per cell of ``family.cells`` and
    gathered by ``family.index``; thick arc sums add count * d over the
    family's ``arc_counts`` once per pattern and are gathered by
    ``family.key``.  Terms are summed in the scalar order, so values are
    bit-identical to a per-member loop.  A pants whose orthogeodesics leave
    double range is a row of inf that only the patterns entering it meet;
    a value outside double range raises NumericDomainError naming its
    component.
    """
    pants_by_name = decomposition.marking.pants_by_name()
    column = {c: k for k, c in enumerate(family.curves)}
    cells = [c.T.astype(float) for c in family.cells]  # (i, b, n) rows per curve
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for a in decomposition.thin:
            if a.peripheral:
                rows.append(np.zeros(len(family)))
                continue
            k = column[a.curve]
            i, b, n = cells[k]
            rows.append(_annulus_term(i, n, a.modulus / modulus_unit,
                                      b + sigma.twist(a.curve))[family.index[k]])
        for comp in decomposition.thick:
            arcs = []
            for ends in (pants_by_name[name].ends for name in comp.pants):
                try:
                    ortho = pants_orthogeodesics(PantsCuffs(
                        *(0.0 if e.kind == PUNCTURE else sigma.length(e.name) for e in ends)))
                except NumericDomainError:  # raised below for the patterns entering it
                    ortho = (math.inf,) * 6
                curve_ends = tuple(e.name if e.kind == CURVE else None for e in ends)
                arcs.append((family.arc_counts(curve_ends), ortho))
            sums = []
            for p in range(len(family.patterns)):
                length = 0.0
                for counts, ortho in arcs:
                    for arc, count in counts[p]:
                        length += count * ortho[arc]
                sums.append(length)
            length = np.array(sums)[family.key]
            for cuff in comp.internal_cuffs:
                k = column[cuff]
                i, b, _ = cells[k]
                length = length + np.where(
                    i > 0, np.abs(b + sigma.twist(cuff)) * sigma.length(cuff) * i,
                    0.0)[family.index[k]]
            rows.append(length * length)
    table = np.array(rows)
    if not np.isfinite(table).all():
        component = decomposition.labels[np.isfinite(table).all(axis=1).argmin()][0]
        raise NumericDomainError(f"the contribution of {component} leaves double range")
    return table


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
                            params: CollarParams = DEFAULT_PARAMS) -> EstimateResult:
    """Surface extremal-length estimate: max over collar decomposition components.

    Returns the maximum together with the per-component breakdown, over
    the collar decomposition of sigma under params.
    """
    beta.validate_for(marking)
    decomposition = collar_decomposition(marking, sigma, params)
    values = component_table(decomposition, sigma, CurveFamily((beta,)))[:, 0].tolist()
    rows = tuple(
        ComponentLength(component, kind, value)
        for (component, kind), value in zip(decomposition.labels, values)
    )
    return EstimateResult(max((row.value for row in rows), default=0.0), rows)
