"""Unit tests for the combinatorial incidence core."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_force_biclique, pairwise_block_meets,
                      scan_blocks_of_point, scan_points_of_block)
from pointconic import incidence
from pointconic.analysis import intersection_type_combinatorial
from pointconic.constructions import crossed_ellipses
from pointconic.incidence import (IncidenceError, catalog, catalog_names,
                                  cyclic_cascade, disjoint_union, dual,
                                  girth, has_biclique, incidence_switch,
                                  are_isomorphic, levi_graph,
                                  new_incidence_structure, property_report,
                                  signature, vertex_connectivity)


def _cycle_structure(n):
    """n points, n size-2 blocks forming one 2n-cycle in the Levi graph."""
    flags = [(i, i) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
    return new_incidence_structure(n, n, flags)


class TestBasics:
    def test_validation(self):
        with pytest.raises(IncidenceError, match="out of range"):
            new_incidence_structure(2, 2, [(2, 0)])
        with pytest.raises(IncidenceError, match="out of range"):
            new_incidence_structure(2, 2, [(0, 5)])
        with pytest.raises(IncidenceError, match="duplicate"):
            new_incidence_structure(2, 2, [(0, 0), (0, 0)], strict=True)
        C = new_incidence_structure(2, 2, [(0, 0), (0, 0)])
        assert len(C.flags) == 1

    def test_accessors(self):
        C = catalog("miquel")
        assert C.point_degree(0) == 3
        assert C.block_size(0) == 4
        assert len(C.points_of_block(2)) == 4
        assert len(C.blocks_of_point(5)) == 3

    def test_levi_graph(self):
        L = levi_graph(catalog("miquel"))
        assert len(L.black) == 8 and len(L.white) == 6
        assert L.graph.number_of_edges() == 24
        degs = {d for _, d in L.graph.degree()}
        assert degs == {3, 4}

    def test_dual_involution(self):
        C = catalog("miquel")
        D = dual(C)
        assert str(signature(D)) == "(6_4,8_3)"
        assert dual(D).flags == C.flags

    def test_signatures(self):
        assert str(signature(catalog("miquel"))) == "(8_3,6_4)"
        assert str(signature(catalog("fano"))) == "(7_3)"
        irregular = new_incidence_structure(3, 2, [(0, 0), (1, 0), (2, 1)])
        assert signature(irregular).q == 1
        assert signature(irregular).k is None
        assert "irregular" in str(signature(irregular))


@st.composite
def structures(draw):
    """Incidence structures with up to 12 points and 10 blocks, drawn as a
    0/1 incidence matrix so dense structures (large bicliques) occur."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, 10))
    cells = draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m))
    flags = [(i // m, i % m) for i, on in enumerate(cells) if on]
    return new_incidence_structure(n, m, flags)


class TestIndexedCore:
    @given(structures())
    @settings(max_examples=200, deadline=None)
    def test_accessors_match_flag_scans(self, C):
        for p in range(C.num_points):
            assert C.blocks_of_point(p) == scan_blocks_of_point(C, p)
            assert C.point_degree(p) == len(scan_blocks_of_point(C, p))
        for b in range(C.num_blocks):
            assert C.points_of_block(b) == scan_points_of_block(C, b)
            assert C.block_size(b) == len(scan_points_of_block(C, b))
        assert C.block_point_sets == [scan_points_of_block(C, b)
                                      for b in range(C.num_blocks)]

    @given(structures())
    @settings(max_examples=200, deadline=None)
    def test_per_pair_matches_pairwise_intersections(self, C):
        got = intersection_type_combinatorial(C).per_pair
        assert list(got.items()) == list(pairwise_block_meets(C).items())

    @given(structures())
    @settings(max_examples=200, deadline=None)
    def test_biclique_matches_brute_force(self, C):
        for s in range(1, 6):
            for t in range(1, 6):
                assert has_biclique(C, s, t) == brute_force_biclique(C, s, t)

    def test_geometric_configuration_shares_one_structure(self):
        G = crossed_ellipses()
        C = G.to_incidence_structure()
        assert G.to_incidence_structure() is C
        for b in range(G.num_conics):
            assert G.points_of_conic(b) == scan_points_of_block(C, b)
        for p in range(G.num_points):
            assert G.conics_of_point(p) == scan_blocks_of_point(C, p)


class TestBicliques:
    def test_miquel(self):
        C = catalog("miquel")
        assert has_biclique(C, 2, 2)        # edge = 2 points on 2 faces
        assert not has_biclique(C, 3, 2)    # circular
        assert not has_biclique(C, 2, 3)    # strongly circular
        assert has_biclique(C, 1, 1)
        assert has_biclique(C, 4, 1)
        assert not has_biclique(C, 5, 1)

    def test_fano(self):
        C = catalog("fano")
        assert not has_biclique(C, 2, 2)    # lineal

    def test_errors(self):
        with pytest.raises(IncidenceError):
            has_biclique(catalog("fano"), 0, 1)

    def test_transpose_side(self):
        # K_{2,3}: 2 points common to 3 blocks.
        C = new_incidence_structure(
            4, 3, [(0, b) for b in range(3)] + [(1, b) for b in range(3)]
            + [(2, 0), (3, 1)])
        assert has_biclique(C, 2, 3)
        assert not has_biclique(C, 3, 2)


class TestGraphInvariants:
    def test_girth(self):
        assert girth(levi_graph(catalog("fano"))) == 6
        assert girth(levi_graph(catalog("miquel"))) == 4
        tree = new_incidence_structure(2, 1, [(0, 0), (1, 0)])
        assert girth(levi_graph(tree)) == math.inf

    def test_connectivity(self):
        assert vertex_connectivity(levi_graph(_cycle_structure(3))) == 2
        assert vertex_connectivity(levi_graph(catalog("fano"))) == 3
        disconnected = disjoint_union([catalog("fano"), catalog("fano")])
        assert vertex_connectivity(levi_graph(disconnected)) == 0

    def test_property_report(self):
        rep = property_report(catalog("fano"))
        assert rep.lineal and rep.circular and rep.strongly_circular
        assert rep.conical and rep.strongly_conical
        assert rep.girth == 6
        rep = property_report(catalog("miquel"))
        assert not rep.lineal
        assert rep.circular and rep.strongly_circular
        assert rep.girth == 4
        assert rep.vertex_connectivity == 3

    def test_lineal_girth_cross_check_raises(self, monkeypatch):
        monkeypatch.setattr(incidence, "girth", lambda L: 4)
        with pytest.raises(IncidenceError, match="cross-check"):
            property_report(catalog("fano"))

    def test_strongly_circular_edge_sharing(self):
        # In a strongly circular structure, two blocks share at most 2
        # points and two points share at most 2 blocks.
        C = catalog("anti-miquel-small")
        sets = C.block_point_sets
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                assert len(sets[i] & sets[j]) <= 2


class TestIsomorphism:
    def test_relabelling(self):
        C = catalog("miquel")
        perm = [3, 1, 0, 2, 7, 5, 6, 4]
        C2 = new_incidence_structure(
            8, 6, [(perm[p], b) for (p, b) in C.flags])
        assert are_isomorphic(C, C2)

    def test_colour_preserved(self):
        # Self-dual count data but colour classes must not be swapped:
        # a (6_2, 4_3) path-like structure vs its dual.
        C = new_incidence_structure(
            3, 2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
        assert not are_isomorphic(C, dual(C))

    def test_negative(self):
        assert not are_isomorphic(catalog("fano"), catalog("pappus"))
        assert not are_isomorphic(catalog("fano"), catalog("miquel"))


class TestSwitchAndCascade:
    def test_switch_involution(self):
        C = catalog("miquel")
        f1, f2 = (0, 0), (7, 5)
        C2 = incidence_switch(C, f1, f2)
        assert len(C2.flags) == len(C.flags)
        assert (0, 5) in C2.flags and (7, 0) in C2.flags
        assert (0, 0) not in C2.flags and (7, 5) not in C2.flags
        back = incidence_switch(C2, (0, 5), (7, 0))
        assert back.flags == C.flags

    def test_switch_preserves_degrees(self):
        C = catalog("miquel")
        C2 = incidence_switch(C, (0, 0), (7, 5))
        for p in range(8):
            assert C2.point_degree(p) == C.point_degree(p)
        for b in range(6):
            assert C2.block_size(b) == C.block_size(b)

    def test_switch_errors(self):
        C = catalog("miquel")
        with pytest.raises(IncidenceError, match="not present"):
            incidence_switch(C, (0, 1), (7, 5))
        with pytest.raises(IncidenceError, match="share point"):
            incidence_switch(C, (0, 0), (0, 2))
        with pytest.raises(IncidenceError, match="share block"):
            incidence_switch(C, (0, 0), (1, 0))
        with pytest.raises(IncidenceError, match="already present"):
            incidence_switch(C, (0, 0), (1, 2))

    def test_cascade_single_part(self):
        C = catalog("miquel")
        assert cyclic_cascade([C], []) is C
        with pytest.raises(IncidenceError):
            cyclic_cascade([], [])

    def test_cascade_two_parts(self):
        m = catalog("miquel")
        C = cyclic_cascade([m, m], [((0, 0), (7, 5)), ((0, 2), (7, 3))])
        assert C.num_points == 16 and C.num_blocks == 12
        assert len(C.flags) == 48
        sig = signature(C)
        assert (sig.p, sig.q, sig.n, sig.k) == (16, 3, 12, 4)

    def test_cascade_spec_length(self):
        m = catalog("miquel")
        with pytest.raises(IncidenceError, match="one switch pair"):
            cyclic_cascade([m, m], [((0, 0), (7, 5))])


class TestCatalog:
    def test_names(self):
        assert set(catalog_names()) >= {"miquel", "fano", "pappus",
                                        "anti-miquel-small",
                                        "anti-miquel-large"}
        with pytest.raises(IncidenceError, match="unknown catalog"):
            catalog("nope")

    def test_anti_miquel_small(self):
        C = catalog("anti-miquel-small")
        assert str(signature(C)) == "(16_3,12_4)"
        rep = property_report(C)
        assert rep.strongly_circular
        assert rep.vertex_connectivity == 2
        assert not are_isomorphic(C, disjoint_union([catalog("miquel")] * 2))

    def test_anti_miquel_large(self):
        C = catalog("anti-miquel-large")
        assert str(signature(C)) == "(32_3,24_4)"
        rep = property_report(C)
        assert rep.strongly_circular
        assert rep.vertex_connectivity == 2

    def test_pappus(self):
        rep = property_report(catalog("pappus"))
        assert rep.lineal and rep.girth == 6
