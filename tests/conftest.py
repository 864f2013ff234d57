import numpy as np
import pytest

from teichlen import CurveFamily, CurveSystem, FNPoint, Marking, SurfaceSpec
from teichlen.surface import CURVE, BOUNDARY, PUNCTURE, End, Pants, PantsDecomposition


def make_genus2_marking():
    """Closed genus-2 surface: two pants glued along three curves."""
    dec = PantsDecomposition(
        ("g1", "g2", "g3"),
        (
            Pants("pA", (End(CURVE, "g1"), End(CURVE, "g2"), End(CURVE, "g3"))),
            Pants("pB", (End(CURVE, "g1"), End(CURVE, "g2"), End(CURVE, "g3"))),
        ),
    )
    return Marking(dec, {"g1": 0, "g2": 0, "g3": 0}, SurfaceSpec(2))


def make_punctured_torus_marking():
    """Genus 1 with one puncture: a single self-glued pants."""
    dec = PantsDecomposition(
        ("g1",),
        (Pants("p", (End(CURVE, "g1"), End(CURVE, "g1"), End(PUNCTURE, "cusp"))),),
    )
    return Marking(dec, {"g1": 0}, SurfaceSpec(1, punctures=1))


def make_holed_torus_marking():
    """Genus 1 with one boundary component."""
    dec = PantsDecomposition(
        ("g1",),
        (Pants("p", (End(CURVE, "g1"), End(CURVE, "g1"), End(BOUNDARY, "b1"))),),
    )
    return Marking(dec, {"g1": 0}, SurfaceSpec(1, boundary=1))


@pytest.fixture(scope="session")
def genus2():
    return make_genus2_marking()


@pytest.fixture(scope="session")
def punctured_torus():
    return make_punctured_torus_marking()


@pytest.fixture(scope="session")
def holed_torus():
    return make_holed_torus_marking()


def fn_point(marking, lengths, twists):
    return FNPoint(lengths, twists).validate_for(marking)


def genus2_point(l1=0.01, l2=1.2, l3=0.8, s1=0.0, s2=0.1, s3=-0.2):
    return FNPoint({"g1": l1, "g2": l2, "g3": l3}, {"g1": s1, "g2": s2, "g3": s3})


def genus2_curve(i1=0, b1=0, n1=0, i2=0, b2=0, n2=0, i3=0, b3=0, n3=0):
    return CurveSystem({"g1": (i1, b1, n1), "g2": (i2, b2, n2), "g3": (i3, b3, n3)})


def family_rows(family):
    """Every member's (i, b, n) per curve, shape (members, curves, 3): cells[k][index[k]]."""
    rows = np.empty((len(family), len(family.curves), 3), dtype=np.int64)
    for k, (cells, index) in enumerate(zip(family.cells, family.index)):
        rows[:, k] = cells[index]
    return rows


def family_members(family):
    """The members of a CurveFamily as curve systems, in member order."""
    return tuple(CurveSystem(dict(zip(family.curves, row)))
                 for row in family_rows(family).tolist())


def members_family(members):
    """A CurveFamily of one one-member block per curve system, in order."""
    return CurveFamily(beta.data for beta in members)


def component_value(result, component):
    """The value of the named component of an EstimateResult."""
    (value,) = [row.value for row in result.components if row.component == component]
    return value


def thin_annulus(decomposition, curve):
    """The thin annulus of a collar decomposition around the named curve."""
    (annulus,) = [a for a in decomposition.thin if a.curve == curve]
    return annulus


def thin_curves(decomposition):
    """Names of the non-peripheral thin annuli of a collar decomposition."""
    return tuple(a.curve for a in decomposition.thin if not a.peripheral)
