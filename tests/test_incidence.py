"""Unit tests for the combinatorial incidence core."""
import collections
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (brute_force_biclique, index_signature, nx_girth,
                      nx_local_connectivities, nx_vertex_connectivity,
                      pairwise_block_meets, scan_blocks_of_point,
                      scan_points_of_block, sequential_switches)
from pointconic import incidence
from pointconic.analysis import intersection_type_combinatorial
from pointconic.constructions import (cell24, crossed_ellipses,
                                      dipyramid_carnot, pmn, polygon_ring,
                                      product, qcube_48, realize_by_conics,
                                      realize_lineal_by_circles,
                                      richter_gebert)
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
        C = new_incidence_structure(2, 2, [(0, 0), (0, 0)])
        assert len(C.flags) == 1

    @pytest.mark.parametrize("num_points, num_blocks, flags", [
        (-1, 2, []), (2.5, 2, [(0, 0)]), (True, 1, [(0, 0)]),
        (2, np.float64(2.0), []), (1, np.bool_(True), [(0, 0)])])
    def test_counts_are_ints(self, num_points, num_blocks, flags):
        # A bool or a float is no count, as in the reader; such a structure
        # used to construct and fail later, inside `signature`.
        for make in (incidence.IncidenceStructure, new_incidence_structure):
            with pytest.raises(IncidenceError, match="is not an int >= 0"):
                make(num_points, num_blocks, flags)

    def test_numpy_counts_stored_as_ints(self):
        with mock.patch.object(incidence.IncidenceStructure, "_of",
                               side_effect=AssertionError):
            C = new_incidence_structure(np.int64(2), np.int32(1),
                                        [(0, 0), (1, 0)])
        assert type(C.num_points) is int and type(C.num_blocks) is int
        assert C == new_incidence_structure(2, 1, [(0, 0), (1, 0)])
        assert str(signature(C)) == "(2_1,1_2)"

    def test_accessors(self):
        C = catalog("miquel")
        assert C.point_degree(0) == 3
        assert C.block_size(0) == 4
        assert len(C.points_of_block(2)) == 4
        assert len(C.blocks_of_point(5)) == 3

    def test_accessors_refuse_indices_outside_range(self):
        # A negative index used to wrap around: points_of_block(-1) gave
        # block 6's points, point_degree(-7) point 0's degree.
        C, G = catalog("fano"), crossed_ellipses()
        for accessor, n in ((C.point_degree, 7), (C.block_size, 7),
                            (C.points_of_block, 7), (C.blocks_of_point, 7),
                            (G.points_of_conic, G.num_conics),
                            (G.conics_of_point, G.num_points)):
            accessor(0), accessor(n - 1)
            for index in (-1, -n, n, n + 1):
                with pytest.raises(IndexError, match=f" index {index} "):
                    accessor(index)

    def test_levi_graph(self):
        L = levi_graph(catalog("miquel"))
        assert len(L.black) == 8 and len(L.white) == 6
        assert L.graph.number_of_edges() == 24
        degs = {d for _, d in L.graph.degree()}
        assert degs == {3, 4}
        colours = dict(L.graph.nodes(data="color"))
        assert colours == {**{v: "black" for v in L.black},
                           **{v: "white" for v in L.white}}
        assert all(colours[u] != colours[w] for u, w in L.graph.edges)

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


@st.composite
def dense_structures(draw):
    """Incidence matrices about three-quarters full: mostly connected Levi
    graphs with connectivity above 1."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 10))
    cells = draw(st.lists(st.integers(0, 3), min_size=n * m,
                          max_size=n * m))
    flags = [(i // m, i % m) for i, v in enumerate(cells) if v]
    return new_incidence_structure(n, m, flags)


@st.composite
def sparse_structures(draw):
    """Structures with few flags, so that the Levi graph often falls apart,
    has cut vertices or isolated nodes, or is a forest."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 10))
    flags = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, m - 1)),
                          max_size=n + m + 2))
    return new_incidence_structure(n, m, flags)


@st.composite
def forests(draw):
    """Levi graphs without cycles: each new node hangs off one earlier
    node of the other colour, or (one time in five) starts a new tree."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 10))
    order = draw(st.permutations([("p", i) for i in range(n)]
                                 + [("b", j) for j in range(m)]))
    flags = []
    for k, (side, i) in enumerate(order):
        other = [j for (s, j) in order[:k] if s != side]
        if other and draw(st.integers(0, 4)):
            j = draw(st.sampled_from(other))
            flags.append((i, j) if side == "p" else (j, i))
    return new_incidence_structure(n, m, flags)


class TestIndexedCore:
    @given(structures())
    @settings(max_examples=200, deadline=None)
    def test_accessors_match_flag_scans(self, C):
        # The index is cut from the sorted flag array at its offsets; the
        # flag scans are its oracle.
        blocks_of = [scan_blocks_of_point(C, p) for p in range(C.num_points)]
        points_of = [scan_points_of_block(C, b) for b in range(C.num_blocks)]
        for p in range(C.num_points):
            assert C.blocks_of_point(p) == blocks_of[p]
            assert C.point_degree(p) == len(blocks_of[p])
        for b in range(C.num_blocks):
            assert C.points_of_block(b) == points_of[b]
            assert C.block_size(b) == len(points_of[b])
        assert C.block_point_sets == points_of
        P = C.num_points
        assert list(map(frozenset, levi_graph(C)._adjacency)) == (
            [frozenset(P + b for b in bs) for bs in blocks_of] + points_of)

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


@st.composite
def irregular_structures(draw):
    """Structures with points of degree 0 and degrees that vary widely:
    each block takes a random subset of the points, some of them empty."""
    n = draw(st.integers(0, 14))
    m = draw(st.integers(0, 8))
    flags = [(p, b) for b in range(m)
             for p in draw(st.sets(st.integers(0, n - 1), max_size=n)
                           if n else st.just(set()))]
    return new_incidence_structure(n, m, flags)


_FIXED = {
    "empty": lambda: new_incidence_structure(0, 0, []),
    "no flags": lambda: new_incidence_structure(3, 2, []),
    "single flag": lambda: new_incidence_structure(1, 1, [(0, 0)]),
    "isolated points": lambda: new_incidence_structure(
        5, 2, [(0, 0), (1, 0), (1, 1)]),
    **{name: (lambda name=name: catalog(name)) for name in catalog_names()},
}


class TestFlagArray:
    """The sorted flag array and the counts read off it, against set
    scans."""

    def _check(self, C):
        F = C.flag_array
        assert F.dtype == "int64" and F.shape == (len(C.flags), 2)
        assert not F.flags.writeable
        assert list(map(tuple, F.tolist())) == sorted(C.flags)
        counts = intersection_type_combinatorial(C).per_pair
        assert list(counts.items()) == list(pairwise_block_meets(C).items())
        sig = signature(C)
        assert (sig.p, sig.q, sig.n, sig.k) == index_signature(C)
        D = dual(C)
        assert D.flags == frozenset((b, p) for (p, b) in C.flags)
        assert list(map(tuple, D.flag_array.tolist())) == sorted(D.flags)

    @pytest.mark.parametrize("name", sorted(_FIXED))
    def test_fixed_structures(self, name):
        self._check(_FIXED[name]())

    @given(st.one_of(structures(), sparse_structures(),
                     irregular_structures()))
    @settings(max_examples=300, deadline=None)
    def test_random_structures(self, C):
        self._check(C)

    def test_structure_built_from_a_frozenset(self):
        C = catalog("pappus")
        twin = incidence.IncidenceStructure(C.num_points, C.num_blocks,
                                            frozenset(C.flags))
        # The sorted array is the stored state; the frozenset is built
        # only when asked for.
        assert set(vars(twin)) == {"num_points", "num_blocks", "flag_array"}
        assert (twin.flag_array == C.flag_array).all()
        assert twin.flags == C.flags and "flags" in vars(twin)
        self._check(twin)

    def test_array_built_once_and_shared(self):
        G = crossed_ellipses()
        C = G.to_incidence_structure()
        F = C.flag_array
        signature(C), intersection_type_combinatorial(C).per_pair
        assert C.flag_array is F
        assert G.flags is C.flags

    @pytest.mark.parametrize("flag, what", [
        ((-1, 0), "point index -1"), ((0, -3), "block index -3"),
        ((4, 0), "point index 4"), ((0, 2), "block index 2"),
        ((2 ** 63, 0), f"point index {2 ** 63}"),
        ((0, 2 ** 70), f"block index {2 ** 70}")])
    def test_raises_naming_the_flag(self, flag, what):
        for flags in ([(0, 0), flag, (1, 1)], iter([(0, 0), flag])):
            with pytest.raises(IncidenceError) as exc:
                new_incidence_structure(4, 2, flags)
            assert str(exc.value) == f"flag {flag}: {what} out of range"

    def test_integer_arrays_and_mixed_ints(self):
        C = catalog("fano")
        rows = sorted(C.flags)
        for flags in (np.array(rows, dtype=np.int32),
                      np.array(rows, dtype=np.uint64),
                      [(np.int64(p), b) for p, b in rows], rows[::-1]):
            D = new_incidence_structure(7, 7, flags)
            assert D == C and (D.flag_array == C.flag_array).all()
        with pytest.raises(IncidenceError, match="point index"):
            new_incidence_structure(7, 7, np.array([[2 ** 63, 0]],
                                                   dtype=np.uint64))
        with pytest.raises(TypeError):
            new_incidence_structure(7, 7, [(0.5, 0)])

    @pytest.mark.parametrize("flag", [(-1, 0), (0, -1), (5, 0), (0, 5),
                                      (2 ** 63, 0)])
    def test_constructor_checks_flags(self, flag):
        # A negative index used to wrap and an index past the counts to
        # break the accessors; the constructor now rejects both, with the
        # message of new_incidence_structure.
        with pytest.raises(IncidenceError) as want:
            new_incidence_structure(2, 2, [flag])
        for flags in (frozenset({flag}), [flag], [(0, 0), flag]):
            with pytest.raises(IncidenceError) as got:
                incidence.IncidenceStructure(2, 2, flags)
            assert str(got.value) == str(want.value)

    def test_equality_and_hash_across_routes(self):
        C = catalog("pappus")
        rows = sorted(C.flags)
        twins = [incidence.IncidenceStructure(9, 9, frozenset(rows)),
                 incidence.IncidenceStructure(9, 9, rows[::-1] + rows[:5]),
                 incidence.IncidenceStructure(9, 9, np.array(rows)),
                 new_incidence_structure(9, 9, rows),
                 dual(dual(C))]
        for D in twins:
            assert D == C and hash(D) == hash(C)
            assert D is not C
        assert len({C: 0, **{D: k for k, D in enumerate(twins, 1)}}) == 1
        other = incidence.IncidenceStructure(9, 9, rows[1:])
        bigger = incidence.IncidenceStructure(10, 9, rows)
        assert other != C and bigger != C and C != rows
        assert len({C, other, bigger}) == 3


def _cut_vertex_structure():
    """Two 4-cycles sharing point 0 in the Levi graph: point 0 is a cut
    vertex."""
    return new_incidence_structure(
        3, 4, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (2, 2), (0, 3),
               (2, 3)])


def _cut_through_min_degree_vertex():
    """Two K_{4,4} joined by points 0 and 9, each on two blocks of either
    side: point 0 has minimum degree 4 and lies in the only 2-cut, so only
    the flows between its neighbours find connectivity 2."""
    flags = [(p, b) for p in range(1, 5) for b in range(4)]
    flags += [(p, b) for p in range(5, 9) for b in range(4, 8)]
    flags += [(0, b) for b in (0, 1, 4, 5)] + [(9, b) for b in (2, 3, 6, 7)]
    return new_incidence_structure(10, 8, flags)


def _rerouting_structure():
    """A 9-node Levi graph in which the second path between blocks 1 and 4
    is found only if the search backs up through a node that the first
    path already uses."""
    return new_incidence_structure(
        4, 5, [(0, 0), (0, 3), (0, 4), (1, 0), (1, 1), (1, 2), (2, 1),
               (2, 3), (3, 2), (3, 4)])


def _planted_cut(seed, cut, through):
    """A Levi graph of 100 to 600 nodes in which `cut` nodes, points and
    blocks in turn, join two random (cut + 3)-regular halves. Each cut node
    meets the halves in nodes that no other cut node meets, so no fewer
    than `cut` nodes separate them. With `through`, the first cut point has
    the unique minimum degree cut + 1; without, point 0, in the first
    half, has it."""
    rng = random.Random(seed)
    r = cut + 3
    halves, flags = [], []
    P = B = 0
    for _ in range(2):
        m = rng.randint(25, 148)
        offsets = [0, 1] + rng.sample(range(2, m), r - 2)  # 0, 1: connected
        blocks = rng.sample(range(B, B + m), m)
        flags += [(P + i, blocks[(i + d) % m])
                  for i in range(m) for d in offsets]
        halves.append((rng.sample(range(P + 1, P + m), m - 1), blocks))
        P, B = P + m, B + m
    for k in range(cut):
        deg = cut + 1 if through and k == 0 else cut + 2
        a = rng.randint(1, deg - 1)
        sides = [[half[k % 2 == 0].pop() for _ in range(n)]
                 for half, n in zip(halves, (a, deg - a))]
        if k % 2 == 0:
            flags += [(P, b) for side in sides for b in side]
            P += 1
        else:
            flags += [(p, B) for side in sides for p in side]
            B += 1
    if not through:
        drop = rng.sample([f for f in flags if f[0] == 0], r - cut - 1)
        flags = [f for f in flags if f not in drop]
    return new_incidence_structure(P, B, flags)


def _relabel(C, rng):
    """C with its points and blocks renumbered by random permutations."""
    pts = rng.sample(range(C.num_points), C.num_points)
    blks = rng.sample(range(C.num_blocks), C.num_blocks)
    return new_incidence_structure(C.num_points, C.num_blocks,
                                   [(pts[p], blks[b]) for (p, b) in C.flags])


PLANTED = [(cut, through) for cut in range(1, 6) for through in (False, True)]
PLANTED_IDS = [f"cut{cut}-{'through' if through else 'avoids'}-v"
               for cut, through in PLANTED]


def _square():
    d = dipyramid_carnot(3, seed=0)
    return product(d, d, genericize=True, seed=1).to_incidence_structure()


class TestLeviInvariantsAgainstNetworkx:
    @staticmethod
    def _check(C):
        L = levi_graph(C)
        for got, want in ((girth(L), nx_girth(L)),
                          (vertex_connectivity(L), nx_vertex_connectivity(L))):
            assert got == want
            assert type(got) is type(want)

    @given(st.one_of(structures(), dense_structures(),
                     sparse_structures(), forests()))
    @example(new_incidence_structure(0, 0, []))             # empty
    @example(new_incidence_structure(1, 0, []))             # one point
    @example(new_incidence_structure(1, 1, [(0, 0)]))       # K2
    @example(new_incidence_structure(1, 5, [(0, b) for b in range(5)]))
    @example(new_incidence_structure(5, 1, [(p, 0) for p in range(5)]))
    @example(new_incidence_structure(3, 2, [(0, 0), (1, 0), (1, 1),
                                            (2, 1)]))      # path
    @example(new_incidence_structure(2, 2, [(0, 0), (1, 1)]))  # two K2s
    @example(new_incidence_structure(3, 1, [(0, 0), (1, 0)]))  # isolated
    @example(_cut_vertex_structure())
    @example(_cut_through_min_degree_vertex())
    @settings(max_examples=300, deadline=None)
    def test_random_structures(self, C):
        self._check(C)

    @given(st.one_of(structures(), dense_structures(), sparse_structures()),
           st.integers(1, 3))
    @example(_rerouting_structure(), 2)
    @settings(max_examples=100, deadline=None)
    def test_local_flows(self, C, cap):
        L = levi_graph(C)
        flows = incidence._DisjointPaths(L._adjacency)
        n = len(L._adjacency)
        for (s, t), want in nx_local_connectivities(L).items():
            assert flows.count(s, t, n) == want
            assert flows.count(s, t, cap) == min(cap, want)

    @pytest.mark.parametrize("build", [
        lambda: pmn(4, 4).to_incidence_structure(),
        lambda: pmn(10, 10).to_incidence_structure(),
        lambda: qcube_48().to_incidence_structure(),
        lambda: cell24().to_incidence_structure(),
        lambda: catalog("anti-miquel-large"),
        _square,
    ], ids=["pmn-4-4", "pmn-10-10", "qcube_48", "cell24",
            "anti-miquel-large", "dipyramid-square"])
    def test_scenes(self, build):
        self._check(build())

    @pytest.mark.parametrize("cut, through", PLANTED, ids=PLANTED_IDS)
    def test_planted_cuts(self, cut, through):
        C = _planted_cut(10 * cut + through, cut, through)
        L = levi_graph(C)
        adj = L._adjacency
        assert 100 <= len(adj) <= 600
        v = min(range(len(adj)), key=lambda x: len(adj[x]))
        assert v == (C.num_points - (cut + 1) // 2 if through else 0)
        self._check(C)
        assert vertex_connectivity(L) == cut


class TestConnectivityOrderInvariance:
    """Relabelling moves the minimum-degree node that the flows start from
    and the order in which they visit the rest, never the result."""

    @given(dense_structures(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_dense_structures(self, C, rng):
        want = vertex_connectivity(levi_graph(C))
        for _ in range(3):
            assert vertex_connectivity(levi_graph(_relabel(C, rng))) == want

    @pytest.mark.parametrize("cut, through", PLANTED, ids=PLANTED_IDS)
    def test_planted_cuts(self, cut, through):
        C = _planted_cut(10 * cut + through, cut, through)
        rng = random.Random(cut)
        for _ in range(5):
            assert vertex_connectivity(levi_graph(_relabel(C, rng))) == cut


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


# Every builder, a product and both realizers.
_SCENES = {
    "crossed_ellipses": crossed_ellipses,
    "polygon_ring": lambda: polygon_ring(5),
    "qcube_48": qcube_48,
    "richter_gebert": lambda: richter_gebert(seed=1),
    "dipyramid_carnot": lambda: dipyramid_carnot(4, seed=3),
    "pmn": lambda: pmn(4, 6),
    "cell24": cell24,
    "product": lambda: product(dipyramid_carnot(3, seed=0),
                               dipyramid_carnot(3, seed=0), genericize=True,
                               seed=1),
    "realize_lineal_by_circles":
        lambda: realize_lineal_by_circles(catalog("pappus"), seed=0),
    "realize_by_conics": lambda: realize_by_conics(catalog("miquel"), seed=0),
}


def _predicates(C, biclique) -> tuple:
    """The report's five biclique verdicts, asked one (s, t) at a time."""
    circular = not biclique(C, 3, 2)
    conical = not biclique(C, 5, 2)
    return (not biclique(C, 2, 2), circular,
            circular and not biclique(C, 2, 3), conical,
            conical and not biclique(C, 2, 5))


def _reported(C) -> tuple:
    rep = property_report(C)
    return (rep.lineal, rep.circular, rep.strongly_circular, rep.conical,
            rep.strongly_conical)


class TestPropertyReportPredicates:
    """property_report reads each side's largest pair count once; its
    verdicts must be those of has_biclique and of the brute-force search."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog(self, name):
        C = catalog(name)
        assert _reported(C) == _predicates(C, has_biclique) == \
            _predicates(C, brute_force_biclique)

    @pytest.mark.parametrize("build", _SCENES.values(), ids=_SCENES)
    def test_builders(self, build):
        C = build().to_incidence_structure()
        assert _reported(C) == _predicates(C, has_biclique)

    @given(st.one_of(structures(), dense_structures(), sparse_structures()))
    @settings(max_examples=200, deadline=None)
    def test_random_structures(self, C):
        assert _reported(C) == _predicates(C, has_biclique) == \
            _predicates(C, brute_force_biclique)


class TestSortedFlagReaders:
    """`dual` is the one sort by block. The Levi adjacency, property_report
    and the realizers read rows cut off the sorted flag arrays and leave
    the frozenset index, which only the public accessors need, unbuilt;
    property_report takes girth 4 from the pair counts when two blocks
    share two points."""

    @staticmethod
    def _check(C):
        L = levi_graph(C)
        got, want = property_report(C).girth, nx_girth(L)
        assert got == want and type(got) is type(want)
        assert dual(C) == incidence.IncidenceStructure(
            C.num_blocks, C.num_points, C.flag_array[:, ::-1])
        assert "_index" not in vars(C)
        blocks_of, points_of = C._index
        P = C.num_points
        rows = L._adjacency
        assert all(list(row) == sorted(set(row)) for row in rows)
        assert list(map(frozenset, rows)) == (
            [frozenset(P + b for b in bs) for bs in blocks_of]
            + list(points_of))

    @pytest.mark.parametrize("name", sorted(_FIXED))
    def test_fixed_structures(self, name):
        self._check(_FIXED[name]())

    @pytest.mark.parametrize("build", _SCENES.values(), ids=_SCENES)
    def test_scenes(self, build):
        self._check(build().to_incidence_structure())

    @given(st.one_of(structures(), dense_structures(), sparse_structures(),
                     forests(), irregular_structures()))
    @settings(max_examples=300, deadline=None)
    def test_random_structures(self, C):
        self._check(C)

    @pytest.mark.parametrize("read", [
        property_report, dual, lambda C: has_biclique(C, 2, 5),
        lambda C: realize_by_conics(C, seed=0),
        lambda C: realize_lineal_by_circles(C, seed=1)],
        ids=["property_report", "dual", "has_biclique", "realize_by_conics",
             "realize_lineal_by_circles"])
    def test_readers_leave_the_index_unbuilt(self, read):
        C = catalog("fano")
        read(C)
        assert "_index" not in vars(C)


class TestGraphInvariants:
    def test_girth(self):
        assert girth(levi_graph(catalog("fano"))) == 6
        assert girth(levi_graph(catalog("miquel"))) == 4
        tree = new_incidence_structure(2, 1, [(0, 0), (1, 0)])
        assert girth(levi_graph(tree)) == math.inf
        star = new_incidence_structure(1, 5, [(0, b) for b in range(5)])
        assert girth(levi_graph(star)) == math.inf
        assert girth(levi_graph(_cut_vertex_structure())) == 4

    def test_connectivity(self):
        assert vertex_connectivity(levi_graph(_cycle_structure(3))) == 2
        assert vertex_connectivity(levi_graph(catalog("fano"))) == 3
        disconnected = disjoint_union([catalog("fano"), catalog("fano")])
        assert vertex_connectivity(levi_graph(disconnected)) == 0
        flag = new_incidence_structure(1, 1, [(0, 0)])
        assert vertex_connectivity(levi_graph(flag)) == 1
        assert vertex_connectivity(levi_graph(_cut_vertex_structure())) == 1
        L = levi_graph(_cut_through_min_degree_vertex())
        assert vertex_connectivity(L) == 2

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

    @pytest.mark.parametrize("spec, text", [
        # (8, 6) is part 1's (0, 0) in union indices, so without the range
        # check the switch meant for part 0 exchanges two flags of part 1.
        ([((8, 6), (7, 5)), ((0, 2), (7, 3))],
         "switch 0: flag (8, 6) lies outside part 0 (8 points, 6 blocks)"),
        ([((0, 0), (7, 5)), ((0, 2), (7, -1))],
         "switch 1: flag (7, -1) lies outside part 0 (8 points, 6 blocks)"),
        ([((0, 0), (7, 6)), ((0, 2), (7, 3))],
         "switch 0: flag (7, 6) lies outside part 1 (8 points, 6 blocks)")])
    def test_cascade_flag_outside_part(self, spec, text):
        m = catalog("miquel")
        with pytest.raises(IncidenceError) as exc:
            cyclic_cascade([m, m], spec)
        assert str(exc.value) == text

    def test_one_pass_matches_sequential(self):
        # Random switches over copies of Miquel, Fano and Pappus: equal
        # structures, or the same error text at the same switch. Chained
        # `incidence_switch` calls draw from the flags of the structure so
        # far, so later switches take flags that earlier ones made; a
        # refused switch is dropped from the chain.
        pool = [catalog(name) for name in ("miquel", "fano", "pappus")]
        seen = collections.Counter()

        def flag(c):
            if rng.random() < 0.8:
                return rng.choice(sorted(c.flags))
            return rng.randrange(c.num_points), rng.randrange(c.num_blocks)

        def outcome(run):
            try:
                return run()
            except IncidenceError as exc:
                return str(exc)

        for seed in range(60):
            rng = random.Random(seed)
            parts = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
            n = len(parts)
            spec = [(flag(parts[i]), flag(parts[(i + 1) % n]))
                    for i in range(n)]
            expected = outcome(lambda: sequential_switches(parts, spec))
            assert outcome(lambda: cyclic_cascade(parts, spec)) == expected
            seen["cascade refused" if isinstance(expected, str)
                 else "cascade"] += 1
            assert disjoint_union(parts) == sequential_switches(parts, [])
            base = C = parts[0]
            switches = []
            for _ in range(12):
                switches.append((flag(C), flag(C)))
                made = set(switches[-1]) & (C.flags - base.flags)
                try:
                    C = incidence_switch(C, *switches[-1])
                except IncidenceError as exc:
                    with pytest.raises(IncidenceError) as ref:
                        sequential_switches([base], switches)
                    assert (ref.value.switch, str(ref.value)) == \
                        (len(switches) - 1, str(exc))
                    seen["refused"] += 1
                    switches.pop()
                    continue
                assert C == sequential_switches([base], switches)
                seen["switched"] += 1
                seen["made"] += bool(made)
        assert len(seen) == 5, seen

    def test_anti_miquel_chains_match_sequential(self):
        m = catalog("miquel")
        assert catalog("anti-miquel-small") == \
            sequential_switches([m] * 2, [((0, 0), (0, 0))])
        assert catalog("anti-miquel-large") == \
            sequential_switches([m] * 4, [((0, 0), (7, 5))] * 3)

    def test_cascade_constructed_once(self):
        # One sort of one flag array, however many switches: switching
        # stays linear in the parts.
        m = catalog("miquel")
        with mock.patch.object(incidence.IncidenceStructure, "_set",
                               autospec=True,
                               side_effect=incidence.IncidenceStructure._set
                               ) as sort:
            C = cyclic_cascade([m] * 50, [((0, 0), (7, 5))] * 50)
        assert sort.call_count == 1
        assert C == sequential_switches([m] * 50, [((0, 0), (7, 5))] * 50)

    def test_cascade_indexes_named_flags_only(self):
        # The flag -> row dict holds only the flags that the switches name,
        # not every flag of the union: 10^3 Miquel copies trace a peak near
        # 2.5 MB, where a dict of all 24,000 flags peaks near 6.4 MB.
        m = catalog("miquel")
        tracemalloc.start()
        try:
            C = cyclic_cascade([m] * 1000, [((0, 0), (7, 5))] * 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak
        want = {(p + 8 * i, b + 6 * i) for i in range(1000)
                for p, b in m.flags}
        for i in range(1000):
            j = (i + 1) % 1000
            (p1, b1), (p2, b2) = (8 * i, 6 * i), (8 * j + 7, 6 * j + 5)
            want -= {(p1, b1), (p2, b2)}
            want |= {(p1, b2), (p2, b1)}
        assert (C.num_points, C.num_blocks) == (8000, 6000)
        assert C.flags == want

    @pytest.mark.parametrize("flag", [(0, 6), (1, -6), (0.5, 3), (8, 0),
                                      (10 ** 30, 0), (-1, 0)])
    def test_switch_flag_outside_structure_not_present(self, flag):
        # (0, 6), (1, -6) and (0.5, 3) have the keys p * 6 + b of flags
        # (1, 0) and (0, 0) of Miquel's structure, which are present.
        with pytest.raises(IncidenceError) as exc:
            incidence_switch(catalog("miquel"), flag, (7, 5))
        assert str(exc.value) == f"flag {flag} not present"


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
