"""Collar decompositions: thin annuli around short pants curves, thick rest.

A pants curve is thin when its length is at most eps1; its collar gets
internal boundary circles of length eps0 and modulus pi/l - 2/eps0.
Only pants curves (and boundary components) can be thin in this model,
so inputs should use a decomposition adapted to the intended thin locus.
``collar_decomposition``, the one constructor, cuts every thin pants curve;
thick components merge one set per pants across every uncut glued curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericDomainError, ValidationError
from .pants import collar_modulus
from .surface import FNPoint, Marking

MARGULIS_2D = 2.0 * math.asinh(1.0)


@dataclass(frozen=True)
class CollarParams:
    """Thin-thin thresholds 0 < eps1 < eps0 < MARGULIS_2D."""

    eps0: float = 0.5
    eps1: float = 0.1

    def __post_init__(self):
        if not (0 < self.eps1 < self.eps0 < MARGULIS_2D):
            raise ValidationError(
                f"need 0 < eps1 < eps0 < {MARGULIS_2D:.6g} (Margulis), "
                f"got eps0 = {self.eps0}, eps1 = {self.eps1}"
            )


DEFAULT_PARAMS = CollarParams()


@dataclass(frozen=True)
class ThinAnnulus:
    curve: str
    core_length: float
    modulus: float
    peripheral: bool = False


@dataclass(frozen=True)
class ThickComponent:
    """A connected union of pants with the internal cuffs joining them."""

    pants: tuple[str, ...]
    internal_cuffs: tuple[str, ...]

    @property
    def component_id(self) -> str:
        return "thick[" + ",".join(self.pants) + "]"


@dataclass(frozen=True)
class CollarDecomposition:
    marking: Marking
    params: CollarParams
    thin: tuple[ThinAnnulus, ...]
    thick: tuple[ThickComponent, ...]

    @property
    def labels(self) -> tuple[tuple[str, str], ...]:
        """(name, kind) of each component: thin annuli, then thick components."""
        return tuple([(a.curve, "annulus") for a in self.thin]
                     + [(c.component_id, "thick") for c in self.thick])

    def thin_curves(self) -> tuple[str, ...]:
        return tuple(a.curve for a in self.thin if not a.peripheral)

    def annulus(self, curve: str) -> ThinAnnulus:
        for a in self.thin:
            if a.curve == curve:
                return a
        raise ValidationError(f"{curve!r} is not a thin curve of this decomposition")


def _components(marking: Marking, removed: set[str]) -> tuple[ThickComponent, ...]:
    """Connected components of the pants graph after cutting the removed curves."""
    glued = {c: (pa, pb) for c, ((pa, _), (pb, _)) in marking.decomposition.sides().items()
             if c not in removed}
    component = {p.name: frozenset([p.name]) for p in marking.decomposition.pants}
    for pa, pb in glued.values():
        merged = component[pa] | component[pb]
        component.update(dict.fromkeys(merged, merged))
    return tuple(sorted(
        (ThickComponent(tuple(sorted(pants)),
                        tuple(sorted(c for c, (pa, _) in glued.items() if pa in pants)))
         for pants in set(component.values())),
        key=lambda c: c.pants))


def _annulus(curve: str, sigma: FNPoint, params: CollarParams,
             peripheral: bool) -> ThinAnnulus:
    length = sigma.length(curve)
    m = collar_modulus(length, params.eps0)
    if m < 1.0:
        raise NumericDomainError(
            f"collar of {curve} has modulus {m:.4g} < 1; "
            f"choose a smaller eps1 or larger eps0"
        )
    return ThinAnnulus(curve, length, m, peripheral=peripheral)


def collar_decomposition(marking: Marking, sigma: FNPoint,
                         params: CollarParams = DEFAULT_PARAMS) -> CollarDecomposition:
    """Split the marked surface into thin collars and thick components."""
    sigma.validate_for(marking)
    internal = sorted(c for c in marking.curves if sigma.length(c) <= params.eps1)
    peripheral = sorted(b for b in marking.decomposition.boundary_names()
                        if sigma.length(b) <= params.eps1)
    thin = tuple([_annulus(c, sigma, params, False) for c in internal]
                 + [_annulus(b, sigma, params, True) for b in peripheral])
    return CollarDecomposition(marking, params, thin, _components(marking, set(internal)))
