"""Combinatorial incidence structures and their Levi graphs.

Points and blocks are 0-based indices in disjoint namespaces; a flag is a
(point, block) pair. Graph work (girth, connectivity, colour-preserving
isomorphism) is delegated to networkx, which is plenty for the desk-scale
structures this library deals with.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import networkx as nx


class IncidenceError(ValueError):
    """Raised on malformed incidence data or violated preconditions."""


@dataclass(frozen=True)
class IncidenceStructure:
    num_points: int
    num_blocks: int
    flags: frozenset

    @cached_property
    def _index(self) -> tuple[tuple[frozenset, ...], tuple[frozenset, ...]]:
        """(blocks of each point, points of each block), from one flag pass."""
        blocks = [[] for _ in range(self.num_points)]
        points = [[] for _ in range(self.num_blocks)]
        for (p, b) in self.flags:
            blocks[p].append(b)
            points[b].append(p)
        return tuple(map(frozenset, blocks)), tuple(map(frozenset, points))

    def point_degree(self, p: int) -> int:
        return len(self._index[0][p])

    def block_size(self, b: int) -> int:
        return len(self._index[1][b])

    def points_of_block(self, b: int) -> frozenset:
        return self._index[1][b]

    def blocks_of_point(self, p: int) -> frozenset:
        return self._index[0][p]

    @property
    def block_point_sets(self) -> list[frozenset]:
        return list(self._index[1])


@dataclass(frozen=True)
class LeviGraph:
    """Coloured bipartite incidence graph; black = points, white = blocks."""

    graph: nx.Graph

    @property
    def black(self):
        return [v for v, d in self.graph.nodes(data=True)
                if d["color"] == "black"]

    @property
    def white(self):
        return [v for v, d in self.graph.nodes(data=True)
                if d["color"] == "white"]


@dataclass(frozen=True)
class Signature:
    """(p_q, n_k) data; q or k is None when the side is irregular."""

    p: int
    q: int | None
    n: int
    k: int | None

    @property
    def balanced(self) -> bool:
        return self.p == self.n and self.q == self.k

    def __str__(self):
        def side(c, d):
            return f"{c}_{d}" if d is not None else f"{c}_irregular"
        if self.balanced and self.q is not None:
            return f"({side(self.p, self.q)})"
        return f"({side(self.p, self.q)},{side(self.n, self.k)})"


@dataclass(frozen=True)
class PropertyReport:
    lineal: bool
    circular: bool
    strongly_circular: bool
    conical: bool
    strongly_conical: bool
    girth: float
    vertex_connectivity: int


def new_incidence_structure(num_points: int, num_blocks: int, flags,
                            strict: bool = False) -> IncidenceStructure:
    """Validated incidence structure from raw flag data."""
    flags = [tuple(f) for f in flags]
    for (p, b) in flags:
        if not (0 <= p < num_points):
            raise IncidenceError(f"point index {p} out of range")
        if not (0 <= b < num_blocks):
            raise IncidenceError(f"block index {b} out of range")
    dedup = frozenset(flags)
    if strict and len(dedup) != len(flags):
        raise IncidenceError("duplicate flags in strict mode")
    return IncidenceStructure(num_points, num_blocks, dedup)


def levi_graph(C: IncidenceStructure) -> LeviGraph:
    G = nx.Graph()
    G.add_nodes_from((("p", i) for i in range(C.num_points)), color="black")
    G.add_nodes_from((("b", i) for i in range(C.num_blocks)), color="white")
    G.add_edges_from((("p", p), ("b", b)) for (p, b) in C.flags)
    return LeviGraph(G)


def dual(C: IncidenceStructure) -> IncidenceStructure:
    return IncidenceStructure(C.num_blocks, C.num_points,
                              frozenset((b, p) for (p, b) in C.flags))


def signature(C: IncidenceStructure) -> Signature:
    blocks_of, points_of = C._index
    pdeg = {len(bs) for bs in blocks_of}
    bdeg = {len(ps) for ps in points_of}
    q = pdeg.pop() if len(pdeg) == 1 else None
    k = bdeg.pop() if len(bdeg) == 1 else None
    return Signature(C.num_points, q, C.num_blocks, k)


def block_pair_counts(C: IncidenceStructure) -> dict:
    """Shared-point count of every block pair (i, j), i < j, that shares a
    point, in sorted key order; O(sum of squared point degrees)."""
    counts = Counter()
    for blocks in C._index[0]:
        counts.update(combinations(sorted(blocks), 2))
    return dict(sorted(counts.items()))


def has_biclique(C: IncidenceStructure, s: int, t: int) -> bool:
    """True iff some s points and t blocks are mutually incident (K_{s,t})."""
    if s < 1 or t < 1:
        raise IncidenceError("biclique sides must be at least 1")
    # Work on the side with the fewer blocks per biclique; every paper
    # predicate then has t == 2, which the block-pair counts answer.
    if t > s:
        return has_biclique(dual(C), t, s)
    if t == 2:
        return any(n >= s for n in block_pair_counts(C).values())
    sets = [ps for ps in C.block_point_sets if len(ps) >= s]
    for blocks in combinations(sets, t):
        common = frozenset.intersection(*blocks)
        if len(common) >= s:
            return True
    return False


def girth(L: LeviGraph) -> float:
    """Girth of the Levi graph; acyclic graphs report infinity."""
    if L.graph.number_of_edges() == 0:
        return float("inf")
    return nx.girth(L.graph)


def vertex_connectivity(L: LeviGraph) -> int:
    G = L.graph
    if G.number_of_nodes() == 0 or not nx.is_connected(G):
        return 0
    return nx.node_connectivity(G)


def property_report(C: IncidenceStructure) -> PropertyReport:
    lineal = not has_biclique(C, 2, 2)
    circular = not has_biclique(C, 3, 2)
    strongly_circular = circular and not has_biclique(C, 2, 3)
    conical = not has_biclique(C, 5, 2)
    strongly_conical = conical and not has_biclique(C, 2, 5)
    L = levi_graph(C)
    g = girth(L)
    if lineal != (g >= 6):
        raise IncidenceError(
            f"lineality/girth cross-check failed: lineal={lineal}, girth={g}")
    return PropertyReport(lineal, circular, strongly_circular, conical,
                          strongly_conical, g, vertex_connectivity(L))


def are_isomorphic(C1: IncidenceStructure, C2: IncidenceStructure) -> bool:
    """Colour-preserving isomorphism of the two Levi graphs."""
    if (C1.num_points, C1.num_blocks, len(C1.flags)) != \
            (C2.num_points, C2.num_blocks, len(C2.flags)):
        return False
    g1, g2 = levi_graph(C1).graph, levi_graph(C2).graph
    gm = nx.isomorphism.GraphMatcher(
        g1, g2, node_match=nx.isomorphism.categorical_node_match("color", ""))
    return gm.is_isomorphic()


def incidence_switch(C: IncidenceStructure, f1, f2) -> IncidenceStructure:
    """Exchange the block ends of two flags, preserving all degrees."""
    f1, f2 = tuple(f1), tuple(f2)
    p1, b1 = f1
    p2, b2 = f2
    for f in (f1, f2):
        if f not in C.flags:
            raise IncidenceError(f"flag {f} not present")
    if p1 == p2:
        raise IncidenceError(f"flags share point {p1}")
    if b1 == b2:
        raise IncidenceError(f"flags share block {b1}")
    for f in ((p1, b2), (p2, b1)):
        if f in C.flags:
            raise IncidenceError(f"switch target flag {f} already present")
    flags = set(C.flags) - {f1, f2} | {(p1, b2), (p2, b1)}
    return IncidenceStructure(C.num_points, C.num_blocks, frozenset(flags))


def disjoint_union(parts) -> IncidenceStructure:
    flags = set()
    po = bo = 0
    for part in parts:
        flags |= {(p + po, b + bo) for (p, b) in part.flags}
        po += part.num_points
        bo += part.num_blocks
    return IncidenceStructure(po, bo, frozenset(flags))


def cyclic_cascade(parts, switch_spec) -> IncidenceStructure:
    """Disjoint union with one incidence switch per consecutive pair of parts.

    `switch_spec` holds one (flag-in-part-i, flag-in-part-i+1) pair per
    cyclic adjacency, in part-local indices; a single part with an empty
    spec is returned unchanged.
    """
    parts = list(parts)
    if not parts:
        raise IncidenceError("cascade needs at least one part")
    if len(parts) == 1 and not switch_spec:
        return parts[0]
    if len(switch_spec) != len(parts):
        raise IncidenceError("need exactly one switch pair per cyclic "
                             "adjacency of parts")
    offsets = []
    po = bo = 0
    for part in parts:
        offsets.append((po, bo))
        po += part.num_points
        bo += part.num_blocks
    C = disjoint_union(parts)
    for i, (fa, fb) in enumerate(switch_spec):
        j = (i + 1) % len(parts)
        (pa, ba), (pb, bb) = tuple(fa), tuple(fb)
        g1 = (pa + offsets[i][0], ba + offsets[i][1])
        g2 = (pb + offsets[j][0], bb + offsets[j][1])
        C = incidence_switch(C, g1, g2)
    return C


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def _miquel() -> IncidenceStructure:
    # Cube model: points = the 8 vertices (bit vectors), blocks = the 6
    # faces (coordinate, value); signature (8_3, 6_4), strongly circular.
    verts = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    faces = [(axis, val) for axis in range(3) for val in (0, 1)]
    flags = [(i, j) for i, v in enumerate(verts)
             for j, (axis, val) in enumerate(faces) if v[axis] == val]
    return new_incidence_structure(8, 6, flags)


def _fano() -> IncidenceStructure:
    lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
             (2, 3, 6), (2, 4, 5)]
    flags = [(p, b) for b, line in enumerate(lines) for p in line]
    return new_incidence_structure(7, 7, flags)


def _pappus() -> IncidenceStructure:
    lines = [(0, 1, 2), (3, 4, 5), (6, 7, 8),
             (0, 4, 8), (0, 5, 7), (1, 3, 8),
             (1, 5, 6), (2, 3, 7), (2, 4, 6)]
    flags = [(p, b) for b, line in enumerate(lines) for p in line]
    return new_incidence_structure(9, 9, flags)


# Default switch flags used to splice Miquel copies together. Flag (0, 0)
# is "vertex (0,0,0) on face x=0", flag (7, 5) is "vertex (1,1,1) on face
# z=1"; the two are vertex- and block-disjoint, so consecutive cascade
# switches never compete for a flag.
SWITCH_FLAG_A = (0, 0)
SWITCH_FLAG_B = (7, 5)


def _anti_miquel_small() -> IncidenceStructure:
    # One switch between two Miquel copies (copy 2 lives at offsets +8, +6).
    m = _miquel()
    C = disjoint_union([m, m])
    (p1, b1) = SWITCH_FLAG_A
    (p2, b2) = SWITCH_FLAG_A
    return incidence_switch(C, (p1, b1), (p2 + 8, b2 + 6))


def _anti_miquel_large() -> IncidenceStructure:
    # Chain of switches through four Miquel copies. Closing the chain into
    # a ring would make the graph 3-connected; the open chain keeps a
    # 2-vertex cut at every splice, which is the behaviour documented for
    # this configuration (strongly circular, 2- but not 3-connected).
    C = disjoint_union([_miquel() for _ in range(4)])
    for i in range(3):
        (pa, ba) = SWITCH_FLAG_A
        (pb, bb) = SWITCH_FLAG_B
        g1 = (pa + 8 * i, ba + 6 * i)
        g2 = (pb + 8 * (i + 1), bb + 6 * (i + 1))
        C = incidence_switch(C, g1, g2)
    return C


_CATALOG = {
    "miquel": _miquel,
    "fano": _fano,
    "pappus": _pappus,
    "anti-miquel-small": _anti_miquel_small,
    "anti-miquel-large": _anti_miquel_large,
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def catalog(name: str) -> IncidenceStructure:
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise IncidenceError(
            f"unknown catalog name {name!r}; known: {catalog_names()}"
        ) from None
    return builder()
