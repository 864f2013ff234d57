"""Pants decompositions, markings, Fenchel-Nielsen points, curve systems.

Curves are identified by name.  A pants end is a side of an internal
pants curve, a boundary component, or a puncture.  Twist coordinates are
dimensionless (fractions of the core length), so a Dehn twist shifts a
twist coordinate by exactly 1.  Curve systems are stored per pants curve
as (intersection count, integer twist offset, core copies).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import TwistUndefinedError, ValidationError, check_count, is_real

CURVE = "curve"
BOUNDARY = "boundary"
PUNCTURE = "puncture"

_END_KINDS = (CURVE, BOUNDARY, PUNCTURE)


@dataclass(frozen=True)
class End:
    """One of the three ends of a pair of pants."""

    kind: str
    name: str

    def __post_init__(self):
        if self.kind not in _END_KINDS:
            raise ValidationError(f"unknown end kind {self.kind!r}")
        if not self.name:
            raise ValidationError("end name must be nonempty")

    def __str__(self):
        return self.name if self.kind == CURVE else f"{self.kind}:{self.name}"


@dataclass(frozen=True)
class Pants:
    name: str
    ends: tuple[End, End, End]

    def __post_init__(self):
        if len(self.ends) != 3:
            raise ValidationError(f"pants {self.name} must have exactly 3 ends")


@dataclass(frozen=True)
class SurfaceSpec:
    """Topological type: genus, punctures, boundary components."""

    genus: int
    punctures: int = 0
    boundary: int = 0

    def __post_init__(self):
        if min(self.genus, self.punctures, self.boundary) < 0:
            raise ValidationError("topological counts must be nonnegative")
        if self.euler_characteristic >= 0:
            raise ValidationError(
                f"surface ({self.genus},{self.punctures},{self.boundary}) is not hyperbolic"
            )

    @property
    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - self.punctures - self.boundary

    @property
    def internal_curve_count(self) -> int:
        return 3 * self.genus - 3 + self.punctures + self.boundary

    @property
    def pants_count(self) -> int:
        return -self.euler_characteristic


@dataclass(frozen=True)
class PantsDecomposition:
    """Oriented internal pants curves plus the pants they glue."""

    curves: tuple[str, ...]
    pants: tuple[Pants, ...]
    orientations: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.orientations:
            object.__setattr__(self, "orientations", tuple(1 for _ in self.curves))
        if len(self.orientations) != len(self.curves):
            raise ValidationError("one orientation per curve required")
        if any(o not in (-1, 1) for o in self.orientations):
            raise ValidationError("orientations must be +1 or -1")
        if len(set(self.curves)) != len(self.curves):
            raise ValidationError("duplicate curve names")
        if len({p.name for p in self.pants}) != len(self.pants):
            raise ValidationError("duplicate pants names")

    def sides(self) -> dict[str, list[tuple[str, int]]]:
        """For each internal curve, the (pants name, slot) pairs gluing along it."""
        found: dict[str, list[tuple[str, int]]] = {name: [] for name in self.curves}
        for pants in self.pants:
            for slot, end in enumerate(pants.ends):
                if end.kind == CURVE:
                    if end.name not in found:
                        raise ValidationError(
                            f"pants {pants.name} references unknown curve {end.name}"
                        )
                    found[end.name].append((pants.name, slot))
        return found

    def boundary_names(self) -> tuple[str, ...]:
        return tuple(
            sorted(e.name for p in self.pants for e in p.ends if e.kind == BOUNDARY)
        )


@dataclass(frozen=True)
class Marking:
    """A pants decomposition together with seam matching data.

    Each internal curve carries a matching bit saying how the two seam
    endpoint pairs on its two sides are paired; the bit pins down the
    zero of the twist coordinate.  ``spec`` is None for derived markings
    (for example after pinching curves), which are validated only for
    internal consistency.
    """

    decomposition: PantsDecomposition
    seams: Mapping[str, int]
    spec: SurfaceSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "seams", MappingProxyType(dict(self.seams)))
        self._validate()

    def __hash__(self):  # the seams mapping itself is unhashable
        return hash((self.decomposition, tuple(sorted(self.seams.items())), self.spec))

    def _validate(self):
        dec = self.decomposition
        sides = dec.sides()
        for name, places in sides.items():
            if len(places) != 2:
                raise ValidationError(
                    f"curve {name} glues {len(places)} pants ends, expected 2"
                )
        if set(self.seams) != set(dec.curves):
            raise ValidationError("seam matching must cover exactly the internal curves")
        for name, bit in self.seams.items():
            if bit not in (0, 1):
                raise ValidationError(f"seam matching for {name} must be 0 or 1")
        boundary = [e for p in dec.pants for e in p.ends if e.kind == BOUNDARY]
        punctures = [e for p in dec.pants for e in p.ends if e.kind == PUNCTURE]
        if len({e.name for e in boundary}) != len(boundary):
            raise ValidationError("boundary component used by two pants ends")
        if len({e.name for e in punctures}) != len(punctures):
            raise ValidationError("puncture used by two pants ends")
        if self.spec is not None:
            if len(dec.curves) != self.spec.internal_curve_count:
                raise ValidationError(
                    f"expected {self.spec.internal_curve_count} internal curves, "
                    f"got {len(dec.curves)}"
                )
            if len(dec.pants) != self.spec.pants_count:
                raise ValidationError(
                    f"expected {self.spec.pants_count} pants, got {len(dec.pants)}"
                )
            # the puncture count then matches too: 3 ends per pants, 2 per curve
            if len(boundary) != self.spec.boundary:
                raise ValidationError("boundary component count mismatch")

    @property
    def curves(self) -> tuple[str, ...]:
        return self.decomposition.curves

    def pants_by_name(self) -> dict[str, Pants]:
        return {p.name: p for p in self.decomposition.pants}

    def pinch_set(self, gamma: Iterable[str]) -> tuple[str, ...]:
        """The named curves sorted, without repeats; each must be an internal curve."""
        gamma = tuple(sorted(set(gamma)))
        unknown = [g for g in gamma if g not in self.curves]
        if unknown:
            raise ValidationError(f"cannot pinch unknown curves {unknown}")
        return gamma

    def pinch(self, gamma: Iterable[str]) -> "Marking":
        """Marking of the surface obtained by pinching the named curves.

        Each pinched curve is removed and its two sides become punctures
        named ``<curve>.a`` and ``<curve>.b``.
        """
        gamma = self.pinch_set(gamma)
        sides = self.decomposition.sides()  # both sides of each curve, in end order
        punctures = {side: End(PUNCTURE, f"{g}.{label}")
                     for g in gamma for side, label in zip(sides[g], "ab")}
        new_pants = tuple(Pants(p.name, tuple(punctures.get((p.name, slot), end)
                                              for slot, end in enumerate(p.ends)))
                          for p in self.decomposition.pants)
        keep = tuple(c for c in self.curves if c not in gamma)
        orientations = tuple(
            o for c, o in zip(self.curves, self.decomposition.orientations)
            if c not in gamma
        )
        dec = PantsDecomposition(keep, new_pants, orientations)
        seams = {c: self.seams[c] for c in keep}
        return Marking(dec, seams, spec=None)


def _sorted_proxy(mapping: Mapping[str, float]) -> Mapping[str, float]:
    return MappingProxyType({k: mapping[k] for k in sorted(mapping)})


@dataclass(frozen=True, slots=True)
class FNPoint:
    """Length/twist coordinates over a fixed marking.

    ``lengths`` covers internal pants curves and boundary components;
    ``twists`` covers internal curves only and is dimensionless.
    """

    lengths: Mapping[str, float]
    twists: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "lengths", _sorted_proxy(self.lengths))
        object.__setattr__(self, "twists", _sorted_proxy(self.twists))
        for name, value in self.lengths.items():
            if not (is_real(value) and value > 0 and math.isfinite(value)):
                raise ValidationError(f"length of {name} must be a positive number, got {value!r}")
        for name, value in self.twists.items():
            if not (is_real(value) and math.isfinite(value)):
                raise ValidationError(f"twist of {name} must be a finite number, got {value!r}")

    def length(self, name: str) -> float:
        try:
            return self.lengths[name]
        except KeyError:
            raise ValidationError(f"no length coordinate for {name!r}") from None

    def twist(self, name: str) -> float:
        try:
            return self.twists[name]
        except KeyError:
            raise ValidationError(f"no twist coordinate for {name!r}") from None

    def validate_for(self, marking: Marking) -> "FNPoint":
        expected = set(marking.curves) | set(marking.decomposition.boundary_names())
        if set(self.lengths) != expected:
            raise ValidationError(
                f"length coordinates {sorted(self.lengths)} do not match "
                f"marking curves {sorted(expected)}"
            )
        if set(self.twists) != set(marking.curves):
            raise ValidationError("twist coordinates do not match internal curves")
        return self


@dataclass(frozen=True)
class CurveSystem:
    """Closed curve class in intersection/twist-offset coordinates.

    Per pants curve j: intersection count i_j >= 0, integer twist offset
    b_j, and (meaningful only when i_j = 0) the number n_j of parallel
    copies of the core of j.
    """

    data: Mapping[str, tuple[int, int, int]]

    def __post_init__(self):
        clean = {}
        for name in sorted(self.data):
            coords = self.data[name]
            try:
                i, b, n = coords
            except (TypeError, ValueError):  # not three values
                raise ValidationError(f"coordinates on {name} must be three integers, "
                                      f"got {coords!r}") from None
            check_count(i, f"intersection count on {name}")
            check_count(b, f"twist offset on {name}", None)
            check_count(n, f"core count on {name}")
            if i > 0 and n != 0:
                raise ValidationError(
                    f"curve {name}: core copies require zero intersection"
                )
            clean[name] = (int(i), int(b), int(n))
        object.__setattr__(self, "data", MappingProxyType(clean))

    def _entry(self, name: str) -> tuple[int, int, int]:
        try:
            return self.data[name]
        except KeyError:
            raise ValidationError(f"unknown pants curve {name!r}") from None

    def intersection(self, name: str) -> int:
        return self._entry(name)[0]

    def validate_for(self, marking: Marking) -> "CurveSystem":
        if set(self.data) != set(marking.curves):
            raise ValidationError("curve system does not match the marking's curves")
        for pants in marking.decomposition.pants:
            total = sum(
                self.intersection(e.name) for e in pants.ends if e.kind == CURVE
            )
            if total % 2 != 0:
                raise ValidationError(
                    f"odd number of arc endpoints in pants {pants.name}"
                )
        return self


def fn_dehn_twist(sigma: FNPoint, j: str, power: int) -> FNPoint:
    """Dehn twist about internal curve j: shifts the twist coordinate by power."""
    if j not in sigma.twists:
        raise ValidationError(f"cannot twist about {j!r}: no twist coordinate")
    check_count(power, "Dehn twist power", None)
    twists = dict(sigma.twists)
    twists[j] = twists[j] + power
    return FNPoint(sigma.lengths, twists)


def curve_dehn_twist(beta: CurveSystem, j: str, power: int) -> CurveSystem:
    """Dehn twist acting on a curve system: offsets b_j by power when i_j > 0."""
    i, b, n = beta._entry(j)
    check_count(power, "Dehn twist power", None)
    if i == 0:
        return beta
    data = dict(beta.data)
    data[j] = (i, b + power, n)
    return CurveSystem(data)


def estimated_twist(beta: CurveSystem, sigma: FNPoint, j: str) -> float:
    """Canonical twist estimate b_j + s_j of beta about pants curve j.

    Carries an additive O(1) uncertainty relative to geodesic twisting
    numbers; exact under Dehn twists on either argument.
    """
    i, b, _ = beta._entry(j)
    if i == 0:
        raise TwistUndefinedError(f"curve system does not cross {j!r}")
    return b + sigma.twist(j)


def core_curve(marking: Marking, j: str, copies: int = 1) -> CurveSystem:
    """Curve system consisting of parallel copies of the core of pants curve j."""
    if j not in marking.curves:
        raise ValidationError(f"unknown pants curve {j!r}")
    check_count(copies, "core copies")
    data = {name: (0, 0, 0) for name in marking.curves}
    data[j] = (0, 0, copies)
    return CurveSystem(data)
