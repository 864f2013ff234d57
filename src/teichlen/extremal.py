"""Extremal-length estimators over a collar decomposition.

Each component of the decomposition contributes separately and the
surface-level estimate is the maximum over components.  A thin annulus
with modulus m crossed i times at estimated twist t contributes
i^2 (m + t^2 / m), or n^2 / m for n parallel core copies.  A thick
component contributes the square of a concrete length proxy: summed
orthogeodesic arc lengths inside each pants plus a twist-travel term
|t| * l * i on moderate internal cuffs.  The proxy is validated by
property tests, not by matching any particular multiplicative constant.

A ``CurveFamily`` is built from blocks, each a crossing pattern over
per-curve arrays of twist offsets; its constructor alone lays the family
out by column, groups its members by pattern and caps its size.  The arc
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
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

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


# a family over this many members is refused before it is allocated: one genus-2
# estimate on a 930,436-member box family takes about 0.07 s at 100 MB peak RSS,
# and the largest family the demos build, the genus-2 box, has 21,440
_MAX_FAMILY_MEMBERS = 10 ** 6


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
    """Finite stand-in for the full set of curve classes, built from blocks.

    A block maps every curve to (i, b, n), as ``CurveSystem.data`` does,
    except that b may be a 1-D signed integer array of twist offsets.  Its
    members are every choice of one offset per curve, in C order over
    ``curves`` (the first block's curve order), numbered block by block.
    For curve k, ``cells[k]`` is an int array of shape (cells, 3) holding
    each block's (i, b, n) rows, one per offset, and the read-only
    ``index[k]`` gives each member the row of its cell.  ``patterns``
    holds each distinct crossing pattern, the i-counts of a member, once,
    and the read-only ``key`` gives each member the index of its pattern.
    Member j's (i, b, n) on curve k is ``cells[k][index[k][j]]``.  A
    family of more than _MAX_FAMILY_MEMBERS members, counted from the
    offset widths, raises ValidationError before any array is built.
    """

    def __init__(self, blocks: Iterable[Mapping[str, tuple]]):
        blocks = tuple(blocks)
        if not blocks or not blocks[0]:
            raise ValidationError("curve family must have members and curves")
        curves = blocks[0].keys()
        if any(block.keys() != curves for block in blocks):
            raise ValidationError("curve family blocks must share one curve set")
        self.curves = curves = tuple(curves)
        rows = [[block[c] for c in curves] for block in blocks]
        try:
            widths = [[len(b) if isinstance(b, np.ndarray) else 1 for _, b, _ in row]
                      for row in rows]
        except (TypeError, ValueError):
            raise ValidationError("a block maps every curve to three values (i, b, n)") from None
        sizes = [math.prod(row) for row in widths]
        if sum(sizes) > _MAX_FAMILY_MEMBERS:
            raise ValidationError(f"the curve family would have {sum(sizes):,} members, "
                                  f"over the cap of {_MAX_FAMILY_MEMBERS:,}")
        # (i, b, n) of each block and curve, an array of offsets as 0 for now
        counts, offsets, cores = zip(*[cell for row in rows for cell in row])
        base = np.array([counts, [0 if isinstance(b, np.ndarray) else b for b in offsets], cores])
        if (base.dtype.kind != "i" or min(counts) < 0 or min(cores) < 0
                or any(i and n for i, n in zip(counts, cores))
                or any(b.ndim != 1 or b.dtype.kind != "i" or not len(b)
                       for b in offsets if isinstance(b, np.ndarray))):
            raise ValidationError("curve family cells must be integers (i, b, n), i, n >= 0, "
                                  "no core copies where i > 0, b a nonempty 1-D signed integer "
                                  "array or int")
        patterns = {}
        key = [patterns.setdefault(counts[j:j + len(curves)], len(patterns))
               for j in range(0, len(counts), len(curves))]
        # cells[k] holds each block's cells on curve k, block j's from row first[k][j];
        # a member's index moves from its block's first row to its offset's row
        first = [list(itertools.accumulate(column, initial=0)) for column in zip(*widths)]
        cells = [np.repeat(base[:, k::len(curves)].T, column, axis=0)
                 for k, column in enumerate(zip(*widths))]
        index = np.repeat(np.array([column[:-1] for column in first]), sizes, axis=1)
        lo, positions = 0, np.arange(max(map(max, widths)))[:, None]
        for j, (row, size) in enumerate(zip(rows, sizes)):
            inner = size
            for k, (_, b, _) in enumerate(row):
                if isinstance(b, np.ndarray):
                    cells[k][first[k][j]:first[k][j + 1], 1] = b
                    # curve k's offsets run along axis 1 of this view of the block
                    inner //= len(b)
                    grid = index[k, lo:lo + size].reshape(-1, len(b), inner)
                    grid += positions[:len(b)]
            lo += size
        self.key = np.repeat(np.array(key, dtype=np.int64), sizes)
        for array in (*cells, index, self.key):
            array.flags.writeable = False
        self.cells, self.index, self.patterns = tuple(cells), tuple(index), tuple(patterns)

    def __len__(self):
        return len(self.key)


def component_table(decomposition: CollarDecomposition, sigma: FNPoint,
                    family: CurveFamily, modulus_unit: float = 1.0) -> np.ndarray:
    """Contributions of every member of the family at sigma, shape (components, members).

    One row per component, in the order of ``decomposition.labels``.  A
    thin annulus of modulus m is evaluated at height m / modulus_unit; a
    peripheral one contributes 0.  Every internal cuff of a thick
    component adds the twist-travel term: the decomposition cuts every
    curve of length at most eps1, so no such cuff is thin.  Annulus and
    twist-travel terms are computed once per cell of ``family.cells`` and
    gathered by ``family.index``; thick arc sums add count * d over each
    pants' cached arc table once per pattern and are gathered by
    ``family.key``.  Terms are summed in the scalar order, so values are
    bit-identical to a per-member loop.  A pants whose orthogeodesics leave
    double range is a row of inf that only the patterns entering it meet;
    a value outside double range raises NumericDomainError naming its
    component.  A family over other curves than the decomposition's
    marking raises ValidationError.
    """
    curves = decomposition.marking.curves
    if set(family.curves) != set(curves):
        raise ValidationError(f"curve family over {sorted(family.curves)} does not match "
                              f"marking curves {sorted(curves)}")
    pants_by_name = decomposition.marking.pants_by_name()
    column = {c: k for k, c in enumerate(family.curves)}
    cells = [c.T.astype(float) for c in family.cells]  # (i, b, n) rows per curve
    # one member-sized allocation, its last row scratch: a fresh temporary per row
    # faults its pages in again whenever the allocator returned the last one
    table = np.empty((len(decomposition.labels) + 1, len(family)))
    table, gathered = table[:-1], table[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for row, a in zip(table, decomposition.thin):
            if a.peripheral:
                row.fill(0.0)
                continue
            k = column[a.curve]
            i, b, n = cells[k]
            # "clip" writes straight into row; every index is in range by construction
            _annulus_term(i, n, a.modulus / modulus_unit, b + sigma.twist(a.curve)).take(
                family.index[k], out=row, mode="clip")
        for row, comp in zip(table[len(decomposition.thin):], decomposition.thick):
            arcs = []
            for ends in (pants_by_name[name].ends for name in comp.pants):
                try:
                    ortho = pants_orthogeodesics(PantsCuffs(
                        *(0.0 if e.kind == PUNCTURE else sigma.length(e.name) for e in ends)))
                except NumericDomainError:  # raised below for the patterns entering it
                    ortho = (math.inf,) * 6
                columns = tuple(column[e.name] if e.kind == CURVE else None for e in ends)
                arcs.append((_arc_table(family.patterns, columns), ortho))
            sums = []
            for p in range(len(family.patterns)):
                length = 0.0
                for counts, ortho in arcs:
                    for arc, count in counts[p]:
                        length += count * ortho[arc]
                sums.append(length)
            np.array(sums).take(family.key, out=row, mode="clip")
            for cuff in comp.internal_cuffs:
                k = column[cuff]
                i, b, _ = cells[k]
                np.where(i > 0, np.abs(b + sigma.twist(cuff)) * sigma.length(cuff) * i,
                         0.0).take(family.index[k], out=gathered, mode="clip")
                row += gathered
            row *= row
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


def lambda_surface_estimate(beta: CurveSystem, sigma: FNPoint, marking: Marking,
                            params: CollarParams = DEFAULT_PARAMS) -> EstimateResult:
    """Surface extremal-length estimate: max over collar decomposition components.

    Returns the maximum together with the per-component breakdown, over
    the collar decomposition of sigma under params.
    """
    beta.validate_for(marking)
    decomposition = collar_decomposition(marking, sigma, params)
    values = component_table(decomposition, sigma, CurveFamily([beta.data]))[:, 0].tolist()
    rows = tuple(
        ComponentLength(component, kind, value)
        for (component, kind), value in zip(decomposition.labels, values)
    )
    return EstimateResult(max((row.value for row in rows), default=0.0), rows)
