"""Combinatorial incidence structures and their Levi graphs.

Points and blocks are 0-based indices in disjoint namespaces; a flag is a
(point, block) pair. A structure stores its flags once, as one sorted int64
array, which signatures, block-pair counts, audits, products and the writer
read; `dual` is the one sort by block, and the Levi adjacency and the
realizers read rows cut off the sorted arrays. The `flags` frozenset and
the accessors' per-point and per-block sets are built on first use.
networkx serves only `LeviGraph.graph` and `are_isomorphic`, imported there.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import numpy as np

_INT64_END = 2 ** 63


class IncidenceError(ValueError):
    """Raised on malformed incidence data or violated preconditions."""


@dataclass(frozen=True, eq=False, init=False)
class IncidenceStructure:
    """`num_points` points, `num_blocks` blocks and their flags.

    The flags are stored once, as `flag_array`: a read-only (F, 2) int64
    array of distinct rows sorted by (point, block). The constructor takes
    any collection of (point, block) pairs or an (F, 2) integer array, and
    raises `IncidenceError` on a count that is not an int >= 0 (numpy ints
    count, bools and floats do not) and on the first flag out of range.
    `flags`, the frozenset of pairs, and the accessors' per-point and
    per-block sets are built on first use; an index outside [0, n) raises
    IndexError. Structures compare and hash by counts and flag array.
    """

    num_points: int
    num_blocks: int
    flag_array: np.ndarray

    def __init__(self, num_points: int, num_blocks: int, flags):
        for name, n in (("num_points", num_points),
                        ("num_blocks", num_blocks)):
            if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                    or n < 0):
                raise IncidenceError(f"{name} {n!r} is not an int >= 0")
        num_points, num_blocks = int(num_points), int(num_blocks)
        F, bad = _flag_rows(flags, num_points, num_blocks)
        if bad is not None:
            p, b = bad
            what = (f"point index {p}" if not 0 <= p < num_points
                    else f"block index {b}")
            raise IncidenceError(f"flag {bad}: {what} out of range")
        self._set(num_points, num_blocks, F)

    @classmethod
    def _of(cls, num_points: int, num_blocks: int,
            F: np.ndarray) -> IncidenceStructure:
        """The structure of an (F, 2) int64 flag array whose range the
        caller has checked (`_flag_rows`)."""
        C = object.__new__(cls)
        C._set(num_points, num_blocks, F)
        return C

    def _set(self, num_points: int, num_blocks: int, F: np.ndarray):
        """Store the counts and the distinct rows of F sorted by (point,
        block), as a new read-only array."""
        F = F[np.lexsort((F[:, 1], F[:, 0]))]
        if len(F) > 1:
            F = F[np.concatenate([[True], (F[1:] != F[:-1]).any(axis=1)])]
        F.setflags(write=False)
        vars(self).update(num_points=num_points, num_blocks=num_blocks,
                          flag_array=F)

    def __eq__(self, other):
        return (isinstance(other, IncidenceStructure)
                and self.num_points == other.num_points
                and self.num_blocks == other.num_blocks
                and np.array_equal(self.flag_array, other.flag_array))

    def __hash__(self):
        return hash((self.num_points, self.num_blocks,
                     self.flag_array.tobytes()))

    @cached_property
    def flags(self) -> frozenset:
        return frozenset(zip(*self.flag_array.T.tolist()))

    @cached_property
    def _index(self) -> tuple[tuple[frozenset, ...], tuple[frozenset, ...]]:
        """(blocks of each point, points of each block): the rows of the
        structure and of its dual, as sets."""
        return (tuple(map(frozenset, _rows(self))),
                tuple(map(frozenset, _rows(dual(self)))))

    def point_degree(self, p: int) -> int:
        return len(self.blocks_of_point(p))

    def block_size(self, b: int) -> int:
        return len(self.points_of_block(b))

    def points_of_block(self, b: int) -> frozenset:
        return self._index[1][_checked(b, self.num_blocks, "block")]

    def blocks_of_point(self, p: int) -> frozenset:
        return self._index[0][_checked(p, self.num_points, "point")]

    @property
    def block_point_sets(self) -> list[frozenset]:
        return list(self._index[1])


def _checked(i, n: int, what: str):
    """`i`, or IndexError naming it when it lies outside [0, n)."""
    if not 0 <= i < n:
        raise IndexError(f"{what} index {i!r} out of range [0, {n})")
    return i


def _rows(C: IncidenceStructure) -> list[list[int]]:
    """Each point's blocks, ascending: the block column of the flag array
    cut at each point's offset. `_rows(dual(C))` gives each block's points."""
    F = C.flag_array
    ends = np.searchsorted(F[:, 0], np.arange(1, C.num_points + 1)).tolist()
    values = F[:, 1].tolist()
    return [values[a:b] for a, b in zip([0] + ends, ends)]


def _int64_rows(rows) -> np.ndarray | None:
    """`rows` as an (F, 2) int64 array when each row is a pair of ints
    within int64; None when some row is not."""
    try:
        if (set(map(len, rows)) <= {2}
                and set(map(type, chain.from_iterable(rows))) <= {int}):
            return np.fromiter(chain.from_iterable(rows), np.int64,
                               2 * len(rows)).reshape(-1, 2)
    except (TypeError, OverflowError):
        pass
    return None


def _flag_rows(flags, num_points: int, num_blocks: int):
    """(F, bad) for raw flag data: F the flags as an (F, 2) int64 array in
    input order, or None when `bad`, the first flag in input order with an
    index outside [0, num_points) x [0, num_blocks), is not None.

    Integer arrays and pairs of ints are checked in one array pass; any
    other data, such as ints beyond int64, one flag at a time. An index
    beyond int64 counts as out of range."""
    n, B = min(num_points, _INT64_END), min(num_blocks, _INT64_END)
    if (isinstance(flags, np.ndarray) and flags.dtype.kind in "iu"
            and flags.shape[1:] == (2,)):
        F = flags
    else:
        rows = flags if isinstance(flags, (list, tuple)) else list(flags)
        F = _int64_rows(rows)
    if F is None:
        rows = [tuple(f) for f in rows]
        for (p, b) in rows:
            if not (0 <= p < n and 0 <= b < B):
                return None, (p, b)
        F = np.array([[operator.index(p), operator.index(b)]
                      for (p, b) in rows], dtype=np.int64)
        return F.reshape(-1, 2), None
    out = (F < 0).any(axis=1) | (F[:, 0] >= n) | (F[:, 1] >= B)
    if out.any():
        return None, tuple(F[int(np.argmax(out))].tolist())
    return F.astype(np.int64, copy=False), None


@dataclass(frozen=True)
class LeviGraph:
    """Coloured bipartite incidence graph of `structure`; black = points
    ("p", i), white = blocks ("b", j)."""

    structure: IncidenceStructure

    @property
    def black(self) -> list:
        return [("p", i) for i in range(self.structure.num_points)]

    @property
    def white(self) -> list:
        return [("b", j) for j in range(self.structure.num_blocks)]

    @cached_property
    def graph(self):
        """The same graph as a networkx `Graph` with a "color" node
        attribute, built on first access."""
        import networkx as nx
        G = nx.Graph()
        G.add_nodes_from(self.black, color="black")
        G.add_nodes_from(self.white, color="white")
        G.add_edges_from((("p", p), ("b", b))
                         for (p, b) in self.structure.flag_array.tolist())
        return G

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each node's neighbours, ascending, the rows of C and its dual:
        point p is node p, block b is node num_points + b."""
        C = self.structure
        return (tuple(tuple(map(C.num_points.__add__, bs)) for bs in _rows(C))
                + tuple(map(tuple, _rows(dual(C)))))


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


def new_incidence_structure(num_points: int, num_blocks: int,
                            flags) -> IncidenceStructure:
    """Validated incidence structure from raw flag data: the constructor,
    which checks every index and keeps each repeated flag once."""
    return IncidenceStructure(num_points, num_blocks, flags)


def levi_graph(C: IncidenceStructure) -> LeviGraph:
    return LeviGraph(C)


def dual(C: IncidenceStructure) -> IncidenceStructure:
    return IncidenceStructure._of(C.num_blocks, C.num_points,
                                  C.flag_array[:, ::-1])


def _common(degrees: np.ndarray) -> int | None:
    """The degree all entries share, or None (also when there are none)."""
    if len(degrees) and (degrees == degrees[0]).all():
        return int(degrees[0])
    return None


def signature(C: IncidenceStructure) -> Signature:
    F = C.flag_array
    return Signature(C.num_points,
                     _common(np.bincount(F[:, 0], minlength=C.num_points)),
                     C.num_blocks,
                     _common(np.bincount(F[:, 1], minlength=C.num_blocks)))


def _near_pairs(values: np.ndarray, window: float):
    """Index arrays (a, b) of every pair of entries of `values` that differ
    by at most `window`, each pair once, from one sort: in sorted order,
    an entry within `window` of the entry k places on is also within it of
    every entry in between, so each pass over offset k keeps only the
    entries that found a partner at offset k - 1."""
    order = np.argsort(values, kind="stable")
    v, rows, k = values[order], np.arange(len(values)), 1
    a, b = [order[:0]], [order[:0]]
    while len(rows):
        rows = rows[rows < len(v) - k]
        rows = rows[v[rows + k] - v[rows] <= window]
        a.append(order[rows])
        b.append(order[rows + k])
        k += 1
    return np.concatenate(a), np.concatenate(b)


def _block_pairs(F: np.ndarray, num_blocks: int):
    """(keys, counts): the sorted keys i * num_blocks + j of the block
    pairs i < j that share a point, and how many points each pair shares.

    The counts are the off-diagonal of M^T M for the point-by-block
    incidence matrix M, found by sort and count rather than by a product
    (Gustavson, ACM TOMS 4, 1978). F is sorted by (point, block), so the
    block pairs are the pairs of rows with equal points: the offset sweep
    `_near_pairs` at window 0 makes one pass per offset up to the largest
    point degree d and collects the S = sum of C(deg p, 2) pairs, in O(F d)
    time, and one sort of their keys counts them, in O(S log S)."""
    a, b = _near_pairs(F[:, 0], 0)
    return np.unique(F[a, 1] * num_blocks + F[b, 1], return_counts=True)


def has_biclique(C: IncidenceStructure, s: int, t: int) -> bool:
    """True iff some s points and t blocks are mutually incident (K_{s,t})."""
    if s < 1 or t < 1:
        raise IncidenceError("biclique sides must be at least 1")
    # Work on the side with the fewer blocks per biclique; every paper
    # predicate then has t == 2, which the block-pair counts answer.
    if t > s:
        return has_biclique(dual(C), t, s)
    if t == 2:
        return bool((_block_pairs(C.flag_array, C.num_blocks)[1] >= s).any())
    sets = [ps for ps in C.block_point_sets if len(ps) >= s]
    for blocks in combinations(sets, t):
        common = frozenset.intersection(*blocks)
        if len(common) >= s:
            return True
    return False


def girth(L: LeviGraph) -> float:
    """Length of the Levi graph's shortest cycle; acyclic graphs report
    infinity. BFS from every node; a cycle closed from depth d is at least
    2d + 1 long, so each search stops once that reaches the best so far."""
    adj = L._adjacency
    best = math.inf
    depth = [-1] * len(adj)
    parent = [-1] * len(adj)
    for root in range(len(adj)):
        depth[root] = 0
        seen, level = [root], [root]
        d = 0
        while level and 2 * d + 1 < best:
            nxt = []
            for u in level:
                pu = parent[u]
                for w in adj[u]:
                    dw = depth[w]
                    if dw < 0:
                        depth[w] = d + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != pu and d + dw + 1 < best:
                        best = d + dw + 1
            seen += nxt
            level = nxt
            d += 1
        for u in seen:
            depth[u] = parent[u] = -1
    return best


def vertex_connectivity(L: LeviGraph) -> int:
    """Vertex connectivity of the Levi graph; 0 when it is disconnected or
    empty.

    Esfahanian and Hakimi (Networks 14, 1984): with v of minimum degree
    and K = deg(v), some minimum vertex cut either contains v, and then
    separates two of v's neighbours, or misses v, and then separates v
    from a non-neighbour. Those flows suffice, and each stops once it
    reaches the current K (Even, SIAM J. Comput. 4, 1975). The graph is
    bipartite, so v's neighbours are pairwise non-adjacent.

    The non-neighbour flows run last, since they join nodes to v, and visit
    w in BFS order from v. Every node of Y = {v} + N(v) + the nodes visited
    so far stays connected to v once fewer than K other nodes are removed,
    so min(K, k(v, w)) = min(K, f) for f the number of paths from w to Y
    disjoint except at v. Proof: if f >= K, a set S of fewer than K nodes
    other than v and w misses one path, whose end lies in v's component of
    G - S; if f < K, Menger gives a cut of w from Y of size f, which cuts w
    from v. So each visited node is joined to v, first in its adjacency
    (Even contracts verified nodes into the sink the same way), and the
    search from w ends a step or two away, at its BFS parent or another
    node of Y. A node that the BFS misses shows a disconnected graph.
    """
    adj = list(L._adjacency)
    if not adj:
        return 0
    v = min(range(len(adj)), key=lambda x: len(adj[x]))
    K = len(adj[v])
    flows = _DisjointPaths(adj)
    for (s, t) in combinations(adj[v], 2):
        K = flows.count(s, t, K)
    order, seen = [v], {v}
    for x in order:
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                order.append(y)
    if len(order) < len(adj):
        return 0
    for w in order[len(adj[v]) + 1:]:
        K = flows.count(w, v, K)
        adj[w] = (v,) + adj[w]
    return K


class _DisjointPaths:
    """Internally vertex-disjoint paths between non-adjacent nodes, by BFS
    augmenting paths on the split graph (node x as x_in -> x_out with
    capacity 1, edge {x, w} as x_out -> w_in and w_out -> x_in).

    The split graph stays implicit. Flow through node x enters by exactly
    one edge, so `pred[x]` (-1 when x carries none) says both whether
    x_in -> x_out is saturated and which edge into x carries flow. Edges
    into the target need no record: a node whose flow enters the target
    has its only way out saturated, so no search reaches its x_out. A
    free node that lists the target first ends the search on entry. The
    search marks and parent links are reset only where a search touched
    them.
    """

    def __init__(self, adj):
        n = len(adj)
        self.adj = adj
        self.pred = [-1] * n
        self.seen_in = [False] * n
        self.seen_out = [False] * n
        self.par_in = [0] * n     # x_in entered from par_in[x]'s out; -1: x_out
        self.par_out = [0] * n    # x_out entered from par_out[x]'s in; -1: x_in

    def count(self, s: int, t: int, cap: int) -> int:
        """min(cap, number of internally disjoint paths between the
        non-adjacent nodes s and t)."""
        pred = self.pred
        carrying = []
        found = 0
        while found < cap:
            hit = self._augmenting_path(s, t)
            if hit < 0:
                break
            found += 1
            x = hit                     # walk back from x_out to s_out
            while x != s:
                p = self.par_out[x]
                y = x if p < 0 else p   # now at y_in
                q = self.par_in[y]
                if q < 0:               # y_in from y_out: y's flow cancelled
                    pred[y] = -1
                    x = y
                else:                   # flow edge q -> y replaces y's old one
                    pred[y] = q
                    carrying.append(y)
                    x = q
        for y in carrying:
            pred[y] = -1
        return found

    def _augmenting_path(self, s: int, t: int) -> int:
        """BFS from s_out; the node whose edge reaches t_in, or -1."""
        adj, pred = self.adj, self.pred
        seen_in, seen_out = self.seen_in, self.seen_out
        par_in, par_out = self.par_in, self.par_out
        seen_in[s] = seen_out[s] = True
        touched = [s]
        queue = [2 * s + 1]             # 2x: x_in, 2x + 1: x_out
        hit = -1
        for state in queue:
            x = state >> 1
            if state & 1:
                for w in adj[x]:
                    if w == t:
                        hit = x
                        break
                    elif not seen_in[w] and pred[w] != x:
                        seen_in[w] = True
                        par_in[w] = x
                        touched.append(w)
                        if pred[w] < 0 and adj[w][0] == t:
                            par_out[w] = -1     # free w_in -> w_out -> t
                            hit = w
                            break
                        queue.append(2 * w)
                if hit >= 0:
                    break
                if pred[x] >= 0 and not seen_in[x]:
                    seen_in[x] = True   # back along x's own saturated edge
                    par_in[x] = -1
                    touched.append(x)
                    queue.append(2 * x)
            else:
                u = pred[x]
                if u < 0:               # x_in -> x_out is free
                    if not seen_out[x]:
                        seen_out[x] = True
                        par_out[x] = -1
                        touched.append(x)
                        queue.append(2 * x + 1)
                elif not seen_out[u]:   # back along the flow edge u -> x
                    seen_out[u] = True
                    par_out[u] = x
                    touched.append(u)
                    queue.append(2 * u + 1)
        for x in touched:
            seen_in[x] = seen_out[x] = False
        return hit


def property_report(C: IncidenceStructure) -> PropertyReport:
    # K_{s,2} exists iff two blocks share s points, and K_{2,t} iff two
    # points share t blocks: each side's largest pair count answers every
    # predicate (`has_biclique` asks the same question one (s, t) at a time).
    F = C.flag_array
    shared_points = int(_block_pairs(F, C.num_blocks)[1].max(initial=0))
    lineal = shared_points < 2
    circular = shared_points < 3
    conical = shared_points < 5
    shared_blocks = (int(_block_pairs(dual(C).flag_array, C.num_points)[1]
                         .max(initial=0)) if conical else None)
    strongly_circular = circular and shared_blocks < 3
    strongly_conical = conical and shared_blocks < 5
    # Two blocks that share two points close a 4-cycle, the shortest a
    # bipartite graph can have; only a lineal structure needs the search.
    L = levi_graph(C)
    g = girth(L) if lineal else 4
    if lineal and g < 6:
        raise IncidenceError(
            f"lineality/girth cross-check failed: lineal={lineal}, girth={g}")
    return PropertyReport(lineal, circular, strongly_circular, conical,
                          strongly_conical, g, vertex_connectivity(L))


def are_isomorphic(C1: IncidenceStructure, C2: IncidenceStructure) -> bool:
    """Colour-preserving isomorphism of the two Levi graphs."""
    if (C1.num_points, C1.num_blocks, len(C1.flag_array)) != \
            (C2.num_points, C2.num_blocks, len(C2.flag_array)):
        return False
    import networkx as nx
    g1, g2 = levi_graph(C1).graph, levi_graph(C2).graph
    gm = nx.isomorphism.GraphMatcher(
        g1, g2, node_match=nx.isomorphism.categorical_node_match("color", ""))
    return gm.is_isomorphic()


def incidence_switch(C: IncidenceStructure, f1, f2) -> IncidenceStructure:
    """Exchange the block ends of two flags, preserving all degrees."""
    return _cascade([C], [(f1, f2)])


def _cascade(parts, switches) -> IncidenceStructure:
    """The disjoint union of `parts`, with switch i exchanging the block
    ends of a flag of part i and a flag of part (i + 1) mod n, both in
    part-local indices, in order.

    The parts' flag arrays are offset into one sorted array. Each switch is
    checked against the flags that the earlier ones left, in a flag -> row
    dict of the flags that switches name, by `incidence_switch`'s four
    checks in its order; its texts name union indices. One construction."""
    shifts = np.cumsum([(0, 0)] + [(c.num_points, c.num_blocks)
                                   for c in parts], axis=0)
    F = np.concatenate([np.zeros((0, 2), np.int64)]
                       + [c.flag_array + s for c, s in zip(parts, shifts)])
    shifts = shifts.tolist()
    (P, B), n = shifts[-1], len(parts)
    ends = [((pa + dp1, ba + db1), (pb + dp2, bb + db2))
            for ((pa, ba), (pb, bb)), (dp1, db1), (dp2, db2)
            in zip(switches, shifts, shifts[1:n] + shifts[:1])]
    named = [f for (p1, b1), (p2, b2) in ends
             for f in ((p1, b1), (p2, b2), (p1, b2), (p2, b1))
             if 0 <= f[0] < P and 0 <= f[1] < B]
    Q = np.reshape(named, (-1, 2))
    at = np.searchsorted(F[:, 0] * B + F[:, 1], Q[:, 0] * B + Q[:, 1])
    hit = (np.vstack([F, [(-1, -1)]])[at] == Q).all(axis=1).tolist()
    row = {f: r for f, r, h in zip(named, at.tolist(), hit) if h}
    for f1, f2 in ends:
        (p1, b1), (p2, b2) = f1, f2
        for f in (f1, f2):
            if f not in row:
                raise IncidenceError(f"flag {f} not present")
        if p1 == p2:
            raise IncidenceError(f"flags share point {p1}")
        if b1 == b2:
            raise IncidenceError(f"flags share block {b1}")
        for f in ((p1, b2), (p2, b1)):
            if f in row:
                raise IncidenceError(f"switch target flag {f} already present")
        r1, r2 = row.pop(f1), row.pop(f2)
        row[p1, b2], row[p2, b1] = r1, r2
        F[r1, 1], F[r2, 1] = b2, b1
    return IncidenceStructure._of(*shifts[-1], F)


def disjoint_union(parts) -> IncidenceStructure:
    return _cascade(list(parts), [])


def cyclic_cascade(parts, switch_spec) -> IncidenceStructure:
    """Disjoint union with one incidence switch per consecutive pair of parts.

    `switch_spec` holds one (flag-in-part-i, flag-in-part-i+1) pair per
    cyclic adjacency, in part-local indices; a single part with an empty
    spec is returned unchanged. A flag outside its part is refused before
    any switch.
    """
    parts = list(parts)
    if not parts:
        raise IncidenceError("cascade needs at least one part")
    if len(parts) == 1 and not switch_spec:
        return parts[0]
    if len(switch_spec) != len(parts):
        raise IncidenceError("need exactly one switch pair per cyclic "
                             "adjacency of parts")
    for i, (fa, fb) in enumerate(switch_spec):
        for k, (p, b) in ((i, fa), ((i + 1) % len(parts), fb)):
            c = parts[k]
            if not (0 <= p < c.num_points and 0 <= b < c.num_blocks):
                raise IncidenceError(
                    f"switch {i}: flag {(p, b)} lies outside part {k} "
                    f"({c.num_points} points, {c.num_blocks} blocks)")
    return _cascade(parts, switch_spec)


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


def _miquel_chain(copies: int, into) -> IncidenceStructure:
    # Switches flag SWITCH_FLAG_A of each Miquel copy with the flag `into` of
    # the next. Closing the chain into a ring would make the graph
    # 3-connected; the open chain keeps a 2-vertex cut at every splice,
    # which is the behaviour documented for anti-miquel-large (strongly
    # circular, 2- but not 3-connected).
    return _cascade([_miquel()] * copies,
                    [(SWITCH_FLAG_A, into)] * (copies - 1))


_CATALOG = {
    "miquel": _miquel,
    "fano": _fano,
    "pappus": _pappus,
    "anti-miquel-small": lambda: _miquel_chain(2, SWITCH_FLAG_A),
    "anti-miquel-large": lambda: _miquel_chain(4, SWITCH_FLAG_B),
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
