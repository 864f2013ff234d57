"""Collar decompositions against a graph-connectivity oracle."""

import math

import networkx as nx
import numpy as np
import pytest

from teichlen import (
    CollarParams,
    MARGULIS_2D,
    NumericDomainError,
    ValidationError,
    collar_decomposition,
    collar_modulus,
)

from conftest import genus2_point, fn_point


def thick_components_oracle(marking, removed):
    """Connected components of the pants graph via networkx."""
    graph = nx.MultiGraph()
    graph.add_nodes_from(p.name for p in marking.decomposition.pants)
    for curve, places in marking.decomposition.sides().items():
        if curve not in removed:
            graph.add_edge(places[0][0], places[1][0], key=curve)
    return sorted(tuple(sorted(c)) for c in nx.connected_components(graph))


class TestCollarParams:
    def test_defaults(self):
        params = CollarParams()
        assert params.eps0 == 0.5
        assert params.eps1 == 0.1

    def test_ordering_enforced(self):
        with pytest.raises(ValidationError):
            CollarParams(eps0=0.1, eps1=0.5)
        with pytest.raises(ValidationError):
            CollarParams(eps0=2.0, eps1=0.1)  # above the Margulis bound
        assert MARGULIS_2D == pytest.approx(1.762747174039086)


class TestCollarDecomposition:
    def test_single_thin_curve(self, genus2):
        sigma = genus2_point(l1=0.05, l2=1.2, l3=0.8)
        dec = collar_decomposition(genus2, sigma)
        assert dec.thin_curves() == ("g1",)
        assert dec.annulus("g1").modulus == pytest.approx(20 * math.pi - 4, abs=1e-12)
        assert len(dec.thick) == 1
        assert dec.thick[0].pants == ("pA", "pB")
        assert dec.thick[0].internal_cuffs == ("g2", "g3")

    def test_no_thin_curves(self, genus2):
        dec = collar_decomposition(genus2, genus2_point(l1=0.5, l2=1.2, l3=0.8))
        assert dec.thin == ()
        assert len(dec.thick) == 1

    def test_all_thin_splits_into_pants(self, genus2):
        dec = collar_decomposition(genus2, genus2_point(l1=0.05, l2=0.05, l3=0.05))
        assert dec.thin_curves() == ("g1", "g2", "g3")
        assert [c.pants for c in dec.thick] == [("pA",), ("pB",)]
        assert all(c.internal_cuffs == () for c in dec.thick)

    def test_moduli_match_collar_modulus_exactly(self, genus2):
        params = CollarParams(eps0=0.4, eps1=0.09)
        sigma = genus2_point(l1=0.03, l2=0.07, l3=0.8)
        dec = collar_decomposition(genus2, sigma, params)
        for annulus in dec.thin:
            assert annulus.modulus == collar_modulus(annulus.core_length, params.eps0)

    def test_monotone_in_eps1(self, genus2):
        rng = np.random.default_rng(31)
        for _ in range(20):
            lengths = rng.uniform(0.01, 1.5, size=3)
            sigma = genus2_point(*lengths)
            previous = None
            for eps1 in (0.4, 0.2, 0.1, 0.05, 0.02):
                dec = collar_decomposition(genus2, sigma, CollarParams(0.5, eps1))
                thin = set(dec.thin_curves())
                if previous is not None:
                    assert thin <= previous
                previous = thin

    def test_component_count_against_graph_oracle(self, genus2, punctured_torus):
        rng = np.random.default_rng(32)
        for marking in (genus2, punctured_torus):
            names = marking.curves
            for _ in range(30):
                lengths = {c: float(rng.choice([0.05, 1.0])) for c in names}
                sigma = fn_point(marking, lengths, {c: 0.0 for c in names})
                dec = collar_decomposition(marking, sigma)
                got = sorted(c.pants for c in dec.thick)
                assert got == thick_components_oracle(marking, set(dec.thin_curves()))

    def test_self_glued_curve_never_disconnects(self, punctured_torus):
        sigma = fn_point(punctured_torus, {"g1": 0.05}, {"g1": 0.0})
        dec = collar_decomposition(punctured_torus, sigma)
        assert dec.thin_curves() == ("g1",)
        assert len(dec.thick) == 1

    def test_low_modulus_rejected(self, genus2):
        params = CollarParams(eps0=1.7, eps1=1.69)
        sigma = genus2_point(l1=1.6, l2=2.2, l3=2.4)
        with pytest.raises(NumericDomainError):
            collar_decomposition(genus2, sigma, params)

    def test_peripheral_annulus(self, holed_torus):
        sigma = fn_point(holed_torus, {"g1": 1.0, "b1": 0.05}, {"g1": 0.0})
        dec = collar_decomposition(holed_torus, sigma)
        assert [a.curve for a in dec.thin] == ["b1"]
        assert dec.thin[0].peripheral

    def test_annulus_of_a_thick_curve_rejected(self, genus2):
        dec = collar_decomposition(genus2, genus2_point(l1=0.05))
        with pytest.raises(ValidationError):
            dec.annulus("g2")
