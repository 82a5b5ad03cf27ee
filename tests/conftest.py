"""Shared test helpers: random generators and brute-force oracles."""
from __future__ import annotations

import argparse
import json
import math
import warnings
from fractions import Fraction
from itertools import combinations

import networkx as nx
import numpy as np
from networkx.algorithms.connectivity import (
    build_auxiliary_node_connectivity, local_node_connectivity)
from networkx.algorithms.flow import build_residual_network

from pointconic import incidence
from pointconic.analysis import SPURIOUS_REL, intersection_type
from pointconic.cli import BUILDERS
from pointconic.configuration import GeometricConfiguration
from pointconic.constructions import (ConstructionError, _require_audit,
                                      _retry,
                                      _with_default_projection,
                                      cell24_polytope, ellipse_conic,
                                      hypercube, octagonal_projection,
                                      prism_product)
from pointconic.geometry import (COND_WARN, TOL_COINCIDENT, TOL_MERGE,
                                 AffineMap2, Conic, GeometryError, _axis_angle,
                                 _conic_of, _kind, conic_conic_intersections,
                                 cross2, pencil_intersections, project)
from pointconic.incidence import (IncidenceStructure, LeviGraph,
                                  new_incidence_structure)
from pointconic.io import InterfaceError
from pointconic.svg import SceneStyle


def random_ellipse(rng, center_box: float = 1.0,
                   min_axis: float = 0.15, max_axis: float = 1.2) -> Conic:
    center = rng.uniform(-center_box, center_box, size=2)
    a = rng.uniform(min_axis, max_axis)
    b = rng.uniform(min_axis, a)
    ang = rng.uniform(0, math.pi)
    return ellipse_conic(center, a, b, ang)


def stack_of(conics) -> np.ndarray:
    """The forms of a sequence of conics: the stack that
    `GeometricConfiguration` stores and the stacked kernels take."""
    return np.array([c.form for c in conics]).reshape(-1, 3, 3)


def conics_of(forms) -> tuple:
    """The `Conic`s of a stack of normalized forms, each form a view of it,
    as `GeometricConfiguration.conics` builds them."""
    return tuple(map(_conic_of, forms))


def sweep_intersections(A: Conic, B: Conic, samples: int = 4096,
                        merge: float = 1e-9) -> list[np.ndarray]:
    """Brute-force intersection oracle: sample ellipse A parametrically,
    bisect the sign changes of B's form along it."""
    center, a, b, ang = scalar_ellipse_parameters(A)
    R = np.array([[math.cos(ang), -math.sin(ang)],
                  [math.sin(ang), math.cos(ang)]])
    M = B.form

    def value(t):
        xy = center + R @ np.array([a * math.cos(t), b * math.sin(t)])
        v = np.array([xy[0], xy[1], 1.0])
        return v @ M @ v

    ts = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    xs = center[0] + a * np.cos(ts) * R[0, 0] + b * np.sin(ts) * R[0, 1]
    ys = center[1] + a * np.cos(ts) * R[1, 0] + b * np.sin(ts) * R[1, 1]
    V = np.column_stack([xs, ys, np.ones(samples)])
    vals = np.einsum("ni,ij,nj->n", V, M, V)
    roots = []
    for k in range(samples):
        v0, v1 = vals[k], vals[(k + 1) % samples]
        if v0 == 0.0:
            roots.append(ts[k])
            continue
        if v0 * v1 >= 0:
            continue
        lo, hi = ts[k], ts[k] + 2 * math.pi / samples
        flo = v0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = value(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    pts = []
    for t in roots:
        p = center + R @ np.array([a * math.cos(t), b * math.sin(t)])
        if not any(np.linalg.norm(p - q) < merge for q in pts):
            pts.append(p)
    return pts


def random_conical_structure(rng, num_points: int = 10, num_blocks: int = 8,
                             max_size: int = 5) -> IncidenceStructure:
    """Random K_{5,2}-free structure with block sizes in 2..max_size."""
    blocks: list[frozenset] = []
    while len(blocks) < num_blocks:
        size = int(rng.integers(2, max_size + 1))
        blk = frozenset(int(i) for i in
                        rng.choice(num_points, size=size, replace=False))
        if blk in blocks or any(len(blk & other) >= 5 for other in blocks):
            continue
        blocks.append(blk)
    flags = [(p, b) for b, blk in enumerate(blocks) for p in sorted(blk)]
    return new_incidence_structure(num_points, num_blocks, flags)


def no_3_collinear(pts: np.ndarray, threshold: float = 1e-9) -> bool:
    for i, j, k in combinations(range(len(pts)), 3):
        if abs(cross2(pts[j] - pts[i], pts[k] - pts[i])) <= threshold:
            return False
    return True


def no_4_concyclic(pts: np.ndarray, threshold: float = 1e-9) -> bool:
    aug = np.column_stack([np.sum(pts ** 2, axis=1), pts, np.ones(len(pts))])
    for idx in combinations(range(len(pts)), 4):
        if abs(np.linalg.det(aug[list(idx)])) <= threshold:
            return False
    return True


def carnot_six_from_conic(rng, max_tries: int = 200):
    """(triangle, six side points in canonical slot order) cut from a conic."""
    from pointconic.geometry import line_conic_intersections
    for _ in range(max_tries):
        tri = rng.uniform(-1.5, 1.5, size=(3, 2))
        while abs(cross2(tri[1] - tri[0], tri[2] - tri[0])) / 2 < 0.3:
            tri = rng.uniform(-1.5, 1.5, size=(3, 2))
        tri = tuple(tri)
        conic = random_ellipse(rng, center_box=0.5)
        pts = []
        ok = True
        for (U, V) in ((tri[1], tri[2]), (tri[2], tri[0]),
                       (tri[0], tri[1])):
            hits = line_conic_intersections(conic, U, V)
            if len(hits) != 2 or any(
                    np.linalg.norm(h - w) < 1e-3 for h in hits for w in tri):
                ok = False
                break
            pts.extend(hits)
        if ok:
            return tri, pts, conic
    raise RuntimeError("could not sample a transversal (triangle, conic)")


# ---------------------------------------------------------------------------
# Set-based oracles for the indexed incidence core
# ---------------------------------------------------------------------------

def scan_points_of_block(C: IncidenceStructure, b: int) -> frozenset:
    return frozenset(p for (p, c) in C.flags if c == b)


def scan_blocks_of_point(C: IncidenceStructure, p: int) -> frozenset:
    return frozenset(c for (q, c) in C.flags if q == p)


def pairwise_block_meets(C: IncidenceStructure) -> dict:
    """Shared-point count of every block pair that shares a point, by
    pairwise set intersection, keyed (i, j) with i < j in sorted order."""
    sets = [scan_points_of_block(C, b) for b in range(C.num_blocks)]
    meets = {}
    for i, j in combinations(range(len(sets)), 2):
        shared = len(sets[i] & sets[j])
        if shared:
            meets[(i, j)] = shared
    return meets


def brute_force_biclique(C: IncidenceStructure, s: int, t: int) -> bool:
    """K_{s,t} search over every t-subset of blocks, with no dual swap."""
    sets = [scan_points_of_block(C, b) for b in range(C.num_blocks)]
    return any(len(frozenset.intersection(*blocks)) >= s
               for blocks in combinations(sets, t))


def index_signature(C: IncidenceStructure) -> tuple:
    """(p, q, n, k) of `incidence.signature`, from the degree sets."""
    pdeg = {len(scan_blocks_of_point(C, p)) for p in range(C.num_points)}
    bdeg = {len(scan_points_of_block(C, b)) for b in range(C.num_blocks)}
    q = pdeg.pop() if len(pdeg) == 1 else None
    k = bdeg.pop() if len(bdeg) == 1 else None
    return (C.num_points, q, C.num_blocks, k)


# ---------------------------------------------------------------------------
# Per-flag and pair-by-pair oracles for the array paths
# ---------------------------------------------------------------------------
# The audit flag check and product flags before they moved onto the sorted
# flag array; duplicate points and coincident conics by testing every pair.

def per_flag_check(G) -> tuple[float, list]:
    """(max flag residual, missing flags) of `analysis.audit`, one flag at a
    time over `sorted(G.flags)`."""
    max_res = 0.0
    missing = []
    for (p, b) in sorted(G.flags):
        h = np.array([*G.points[p], 1.0])
        h /= np.linalg.norm(h)
        r = float(abs(h @ G.conics[b].form @ h))
        max_res = max(max_res, r)
        if r > G.tol:
            missing.append((p, b))
    return max_res, missing


def nested_product_flags(C1, C2) -> set:
    """The flags of `constructions.product(C1, C2)`, by nested loops."""
    n1, n2 = C1.num_points, C2.num_points
    nb1, nb2 = C1.num_conics, C2.num_conics
    points_of_block_1 = C1.to_incidence_structure().block_point_sets
    points_of_block_2 = C2.to_incidence_structure().block_point_sets
    flags = set()
    for i1 in range(n1):
        for b2 in range(nb2):
            b = i1 * nb2 + b2
            for i2 in points_of_block_2[b2]:
                flags.add((i1 * n2 + i2, b))
    for i2 in range(n2):
        for b1 in range(nb1):
            b = n1 * nb2 + i2 * nb1 + b1
            for i1 in points_of_block_1[b1]:
                flags.add((i1 * n2 + i2, b))
    return flags


def brute_force_duplicate_pairs(points: np.ndarray, tol: float) -> list:
    """Every pair (i, j), i < j, of points closer than `tol`, sorted."""
    return [(i, j) for i, j in combinations(range(len(points)), 2)
            if np.linalg.norm(points[i] - points[j]) < tol]


def brute_force_coincident_pairs(forms: np.ndarray) -> list:
    """Every pair (i, j), i < j, of normalized forms (B, 3, 3) that
    `Conic.same_as` calls coincident, |F - G| or |F + G| below
    `TOL_COINCIDENT`, sorted."""
    F = np.asarray(forms, dtype=float).reshape(-1, 9)
    i, j = np.triu_indices(len(F), 1)
    near = ((np.linalg.norm(F[i] - F[j], axis=1) < TOL_COINCIDENT)
            | (np.linalg.norm(F[i] + F[j], axis=1) < TOL_COINCIDENT))
    return list(zip(i[near].tolist(), j[near].tolist()))


# ---------------------------------------------------------------------------
# networkx oracles for the Levi-graph invariants (the library's former
# girth and vertex connectivity, run on `LeviGraph.graph`)
# ---------------------------------------------------------------------------

def nx_girth(L: LeviGraph) -> float:
    """Girth of the Levi graph; acyclic graphs report infinity."""
    if L.graph.number_of_edges() == 0:
        return float("inf")
    return nx.girth(L.graph)


def nx_vertex_connectivity(L: LeviGraph) -> int:
    G = L.graph
    if G.number_of_nodes() == 0 or not nx.is_connected(G):
        return 0
    return nx.node_connectivity(G)


def nx_local_connectivities(L: LeviGraph) -> dict:
    """Internally disjoint path counts of every non-adjacent node pair,
    keyed by node numbers (point p is p, block b is num_points + b)."""
    G = L.graph
    H = build_auxiliary_node_connectivity(G)
    R = build_residual_network(H, "capacity")
    names = L.black + L.white
    return {(s, t): local_node_connectivity(G, names[s], names[t],
                                            auxiliary=H, residual=R)
            for s, t in combinations(range(len(names)), 2)
            if not G.has_edge(names[s], names[t])}


# ---------------------------------------------------------------------------
# Exact meets: the reference for geometry.pencil_intersections
# ---------------------------------------------------------------------------
# The common points of two conics whose float forms are taken as exact
# rationals, in integer arithmetic: the reference shares no code and no
# rounding with the kernel. After a shear x -> x + s y the points are the
# roots X of the resultant in y of the two quadratics, one point per
# distinct root once no two points share an X, with y from the first
# subresultant (Richter-Gebert, Perspectives on Projective Geometry, 2011,
# ch. 11). Sturm sequences count and isolate the real roots (Basu, Pollack
# and Roy, Algorithms in Real Algebraic Geometry, 2006, ch. 2). A polynomial
# in X is a list of ints, lowest degree first.

# Shears s = p / q, tried in turn. A pair rules out at most 10: the four
# directions at infinity of the two conics, and one per two common points.
_SHEARS = ((3, 7), (-5, 11), (2, 13), (7, 3), (-11, 5), (13, 2), (1, 17),
           (-17, 9), (19, 23), (-23, 29), (29, 31), (-31, 37))


def _lin(a: int, p: list, b: int, q: list) -> list:
    """a p + b q."""
    n = max(len(p), len(q))
    out = [a * u + b * v
           for u, v in zip(p + [0] * (n - len(p)), q + [0] * (n - len(q)))]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out or [0]


def _mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def _primitive(p: list) -> list:
    """p over the gcd of its coefficients: the same roots and signs."""
    g = math.gcd(*p)
    return [u // g for u in p] if g > 1 else p


def _derivative(p: list) -> list:
    return _primitive([i * u for i, u in enumerate(p)][1:] or [0])


def _pseudo_divide(p: list, q: list) -> tuple:
    """Quotient and remainder of c p by q, and the sign of c = lc(q)^k for
    the k steps taken."""
    quot, sign = [0] * max(1, len(p) - len(q) + 1), 1
    while len(p) >= len(q) and p != [0]:
        c, shift = p[-1], len(p) - len(q)
        quot = [q[-1] * u for u in quot]
        quot[shift] += c
        p = _lin(q[-1], p[:-1], -c, ([0] * shift + q)[:-1])
        sign = sign if q[-1] > 0 else -sign
    return quot, p, sign


def _at(p: list, m: int, d: int) -> int:
    """d^deg(p) p(m / d)."""
    h, t = p[-1], 1
    for c in reversed(p[:-1]):
        t *= d
        h = h * m + c * t
    return h


def _sign(p: list, m: int, k: int) -> int:
    """The sign of p at m / 2^k."""
    h = _at(p, m, 1 << k)
    return (h > 0) - (h < 0)


def _changes(sturm: list, m: int, k: int) -> int:
    """Sign changes of the Sturm sequence at m / 2^k, zeros dropped."""
    signs = [s for s in (_sign(p, m, k) for p in sturm) if s]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _real_roots(S: list) -> list:
    """The real roots of a square-free S, as Fractions within 2^-64
    relative of each; an exact one where bisection hits it. The Sturm
    sequence counts the roots in each (lo, hi], and bisection splits the
    intervals until each holds one."""
    sturm = [S, _derivative(S)]
    while len(sturm[-1]) > 1:
        _, r, sign = _pseudo_divide(sturm[-2], sturm[-1])
        if r == [0]:
            break
        sturm.append(_primitive([-sign * u for u in r]))
    # 2^e exceeds the Cauchy bound 1 + max |S_i / S_n| of every root.
    e = max(1, max(abs(u) for u in S).bit_length()
            - abs(S[-1]).bit_length() + 2)
    roots, todo = [], [(-1 << e, 1 << e, 0)]
    while todo:
        lo, hi, k = todo.pop()
        n = _changes(sturm, lo, k) - _changes(sturm, hi, k)
        if n > 1:
            todo += [(2 * lo, lo + hi, k + 1), (lo + hi, 2 * hi, k + 1)]
        elif n == 1:
            roots.append(_bisect(S, sturm, lo, hi, k))
    return roots


def _bisect(S: list, sturm: list, lo: int, hi: int, k: int) -> Fraction:
    """The one root of S in (lo / 2^k, hi / 2^k], to 64 bits."""
    s_lo = _sign(S, lo, k)
    if _sign(S, hi, k) == 0:
        return Fraction(hi, 1 << k)
    while (hi - lo) << 64 > max(abs(lo), abs(hi)):
        lo, hi, k, mid = 2 * lo, 2 * hi, k + 1, lo + hi
        s_mid = _sign(S, mid, k)
        if s_mid == 0:
            return Fraction(mid, 1 << k)
        if s_lo:
            left = s_mid != s_lo
        else:  # lo is the root of the interval on its left
            left = _changes(sturm, lo, k) - _changes(sturm, mid, k) == 1
        lo, hi, s_lo = (lo, mid, s_lo) if left else (mid, hi, s_mid)
    return Fraction(lo + hi, 1 << (k + 1))


def _form_coeffs(form) -> list:
    """Integers proportional to a, b, c, d, e, g of the form's
    a x^2 + b xy + c y^2 + d x + e y + g, exactly."""
    M = np.asarray(form, dtype=float).tolist()
    v = [M[i][j].as_integer_ratio()
         for i, j in ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2))]
    den = math.lcm(*(d for _, d in v))
    return [s * n * (den // d) for s, (n, d) in zip((1, 2, 1, 2, 2, 1), v)]


def _sheared(coeffs: list, p: int, q: int) -> tuple:
    """q^2 f(X - (p / q) y, y) as c2 y^2 + c1(X) y + c0(X)."""
    a, b, c, d, e, g = coeffs
    return (a * p * p - b * p * q + c * q * q,
            [e * q * q - d * p * q, b * q * q - 2 * a * p * q],
            [g * q * q, d * q * q, a * q * q])


def exact_meets(A, B) -> list:
    """The real affine common points of the conics with forms A and B
    (3, 3), the float entries taken exactly: float (x, y) tuples ascending,
    where a point within `TOL_MERGE` of a kept one is dropped, as in
    `geometry.pencil_intersections`. Raises ValueError on conics that share
    a component."""
    ca, cb = _form_coeffs(A), _form_coeffs(B)
    for p, q in _SHEARS:
        a2, a1, a0 = _sheared(ca, p, q)
        b2, b1, b0 = _sheared(cb, p, q)
        if not a2 or not b2:
            continue  # a direction at infinity of A or B became vertical
        # The resultant P^2 - L M, and the first subresultant L y + P.
        P, L = _lin(a2, b0, -b2, a0), _lin(a2, b1, -b2, a1)
        R = _lin(1, _mul(P, P), -1,
                 _mul(L, _lin(1, _mul(a1, b0), -1, _mul(a0, b1))))
        if R == [0]:
            raise ValueError("the conics share a component")
        if L == [0] and len(R) == 1:
            return []  # R = P^2 is a nonzero constant: no common X
        # Where L vanishes at a root, two common points share its X.
        if L != [0] and (len(L) == 1 or _at(R, -L[0], L[1])):
            break
    else:
        raise ValueError("no shear separates the common points")
    g, h = R, _derivative(R)
    while h != [0]:
        g, h = h, _primitive(_pseudo_divide(g, h)[1])
    square_free = _primitive(_pseudo_divide(R, g)[0])
    points = []
    for X in _real_roots(square_free) if len(square_free) > 1 else ():
        m, d = X.numerator, X.denominator
        y = Fraction(-_at(P, m, d) * d ** (len(L) - 1),
                     _at(L, m, d) * d ** (len(P) - 1))
        points.append((float(X - Fraction(p, q) * y), float(y)))
    kept = []
    for pt in sorted(points):
        if all(math.dist(pt, other) >= TOL_MERGE for other in kept):
            kept.append(pt)
    return kept


def exact_pencil_intersections(forms, pairs):
    """`(points, counts)` of the pairs `pairs` into the stack `forms`, laid
    out as `geometry.pencil_intersections` returns them (sorted by rounded
    (x, y), NaN-padded to (P, 4, 2)), from `exact_meets`."""
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    points = np.full((len(pairs), 4, 2), np.nan)
    counts = np.zeros(len(pairs), dtype=int)
    for k, (i, j) in enumerate(pairs):
        found = sorted(exact_meets(forms[i], forms[j]),
                       key=lambda pt: (round(pt[0], 9), round(pt[1], 9)))
        counts[k] = len(found)
        points[k, :len(found)] = np.reshape(found, (-1, 2))
    return points, counts


# ---------------------------------------------------------------------------
# Spurious-scan oracle for analysis.audit
# ---------------------------------------------------------------------------

def dense_sampson_scan(G) -> tuple[set, set]:
    """(spurious, borderline) unflagged pairs by Sampson distance relative
    to the point-set diameter, conic by conic over every point, with no
    prefilter: spurious within SPURIOUS_REL, borderline within 10 times it.

    Normalizes the scene as the audit does: centroid at the origin and the
    bounding-box diagonal D scaled to 1, each form carried through the same
    map and rescaled to unit norm.
    """
    spurious, borderline = set(), set()
    if G.num_points == 0 or G.num_conics == 0:
        return spurious, borderline
    P = G.points
    c = P.mean(axis=0)
    D = math.hypot(*(P.max(axis=0) - P.min(axis=0))) or 1.0
    T = np.array([[D, 0.0, c[0]], [0.0, D, c[1]], [0.0, 0.0, 1.0]])
    H = np.column_stack([(P - c) / D, np.ones(len(P))])
    for b, conic in enumerate(G.conics):
        M = T.T @ conic.form @ T
        M = M / np.linalg.norm(M)
        f = np.einsum("ni,ij,nj->n", H, M, H)
        grad = 2 * np.linalg.norm(H @ M[:, :2], axis=1)
        dist = np.abs(f) / np.maximum(grad, np.finfo(float).tiny)
        for p in np.flatnonzero(dist <= 10 * SPURIOUS_REL).tolist():
            if (p, b) not in G.flags:
                (spurious if dist[p] <= SPURIOUS_REL
                 else borderline).add((p, b))
    return spurious, borderline


# ---------------------------------------------------------------------------
# Per-conic renderer: the oracle for svg.render_svg
# ---------------------------------------------------------------------------
# The conic-by-conic renderer, verbatim but for one fix it shares with
# svg._scan: a conic without x^2 and y^2 terms (xy = 1) is drawn from the
# one root of its linear equation. svg.render_svg renders a scene in stacked
# passes and must reproduce its bytes.

_SVG_SAMPLES = 256


def _scalar_ellipse_bbox(conic: Conic):
    center, a, b, ang = scalar_ellipse_parameters(conic)
    dx = math.hypot(a * math.cos(ang), b * math.sin(ang))
    dy = math.hypot(a * math.sin(ang), b * math.cos(ang))
    return (center[0] - dx, center[1] - dy, center[0] + dx, center[1] + dy)


def _scalar_world_bbox(G):
    boxes = []
    if G.num_points:
        xs, ys = G.points[:, 0], G.points[:, 1]
        boxes.append((xs.min(), ys.min(), xs.max(), ys.max()))
    for conic in G.conics:
        if conic.kind == "ellipse":
            boxes.append(_scalar_ellipse_bbox(conic))
    if not boxes:
        return (0.0, 0.0, 1.0, 1.0)
    x0 = min(b[0] for b in boxes)
    y0 = min(b[1] for b in boxes)
    x1 = max(b[2] for b in boxes)
    y1 = max(b[3] for b in boxes)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    return (x0, y0, x1, y1)


class _ScalarMapper:
    """World-to-pixel map: uniform scale, y flipped, centered with margin."""

    def __init__(self, bbox, canvas, margin):
        x0, y0, x1, y1 = bbox
        W, H = canvas
        usable_w = W * (1 - 2 * margin)
        usable_h = H * (1 - 2 * margin)
        self.scale = min(usable_w / (x1 - x0), usable_h / (y1 - y0))
        self.cx, self.cy = (x0 + x1) / 2, (y0 + y1) / 2
        self.px, self.py = W / 2, H / 2
        self.bbox = bbox

    def __call__(self, x, y):
        return (self.px + (x - self.cx) * self.scale,
                self.py - (y - self.cy) * self.scale)


def _sampled_branches(conic: Conic, bbox):
    """Polyline branches of a non-ellipse conic inside the padded bbox.

    Scans vertical lines and solves the conic's quadratic in y (or the
    transpose when the y^2 coefficient vanishes), keeping the two roots in
    separate branches and breaking them where they leave the reals. When
    the x^2 coefficient vanishes too, the equation is linear in y and its
    one root goes to the first branch.
    """
    a, b, c, d, e, f = scalar_coeffs(conic)
    x0, y0, x1, y1 = bbox
    pad_x = 0.25 * (x1 - x0)
    pad_y = 0.25 * (y1 - y0)
    swap = abs(c) < 1e-12 * max(abs(a), abs(b), 1.0)
    if swap:
        a, c = c, a
        d, e = e, d
        x0, y0, x1, y1 = y0, x0, y1, x1
        pad_x, pad_y = pad_y, pad_x
    lo, hi = x0 - pad_x, x1 + pad_x
    branches = [[], []]
    out = []

    def flush():
        for br in branches:
            if len(br) > 1:
                out.append(list(br))
            br.clear()

    for k in range(_SVG_SAMPLES + 1):
        x = lo + (hi - lo) * k / _SVG_SAMPLES
        qa, qb, qc = c, b * x + e, a * x * x + d * x + f
        if abs(qa) < 1e-300:
            # Linear in y (both squares vanish, as xy = 1): one root.
            if qb == 0:
                flush()
                continue
            ys = [-qc / qb]
        else:
            disc = qb * qb - 4 * qa * qc
            if disc < 0:
                flush()
                continue
            r = math.sqrt(disc)
            ys = sorted(((-qb - r) / (2 * qa), (-qb + r) / (2 * qa)))
        for br, yv in zip(branches, ys):
            if y0 - pad_y <= yv <= y1 + pad_y:
                br.append((yv, x) if swap else (x, yv))
            elif br:
                out.append(list(br))
                br.clear()
    flush()
    return out


def scalar_render_svg(G, style=None) -> str:
    """The SVG text of `render_svg`, rendered conic by conic."""
    def fmt(v):
        return f"{v:.3f}"

    style = style or SceneStyle()
    W, H = style.canvas
    to_px = _ScalarMapper(_scalar_world_bbox(G), style.canvas, style.margin)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'  <rect width="{W}" height="{H}" fill="{style.background}"/>',
    ]
    for i, conic in enumerate(G.conics):
        color = style.palette[i % len(style.palette)]
        attrs = (f'fill="none" stroke="{color}" '
                 f'stroke-width="{fmt(style.stroke_width)}"')
        if conic.kind == "ellipse":
            center, a, b, ang = scalar_ellipse_parameters(conic)
            cx, cy = to_px(center[0], center[1])
            deg = -math.degrees(ang)
            lines.append(
                f'  <ellipse cx="{fmt(cx)}" cy="{fmt(cy)}" '
                f'rx="{fmt(a * to_px.scale)}" ry="{fmt(b * to_px.scale)}" '
                f'transform="rotate({fmt(deg)} {fmt(cx)} {fmt(cy)})" '
                f'{attrs}/>')
        else:
            for branch in _sampled_branches(conic, to_px.bbox):
                pts = " L ".join(
                    f"{fmt(px)} {fmt(py)}"
                    for px, py in (to_px(x, y) for x, y in branch))
                lines.append(f'  <path d="M {pts}" {attrs}/>')
    for x, y in G.points:
        px, py = to_px(x, y)
        lines.append(
            f'  <circle cx="{fmt(px)}" cy="{fmt(py)}" '
            f'r="{fmt(style.point_radius)}" fill="{style.point_color}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The element-by-element writer: the oracle for io._dump_value's rows
# ---------------------------------------------------------------------------

def recursive_dump_value(v) -> str:
    """Canonical JSON text of `v`, every list printed element by element."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if v != v or v in (float("inf"), float("-inf")):
            raise InterfaceError("non-finite real in document")
        return format(v, ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        items = (f"{json.dumps(str(k))}: {recursive_dump_value(val)}"
                 for k, val in v.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(v, (list, tuple)) or isinstance(v, np.ndarray):
        return "[" + ", ".join(recursive_dump_value(x) for x in v) + "]"
    if v is None:
        return "null"
    raise InterfaceError(f"unserializable value of type {type(v).__name__}")


# ---------------------------------------------------------------------------
# The full CLI parser: the oracle for cli.main's one-verb parser
# ---------------------------------------------------------------------------
# All six verbs' subparsers in one parser, as cli.main built it for every
# call. cli.main builds only the named verb's subparser and must give the
# same exit codes, messages and namespaces.

def full_make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointconic",
        description="Point-conic configuration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="run a geometric builder")
    p.add_argument("builder", choices=sorted(BUILDERS))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--elongation", type=float, default=0.15)
    p.add_argument("--minor", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("catalog", help="emit a catalogued structure")
    p.add_argument("name", choices=incidence.catalog_names())
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("realize", help="realize a combinatorial structure")
    p.add_argument("mode", choices=["circles", "conics"])
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("analyze", help="audit a geometric configuration")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--geometric", action="store_true",
                   help="also compute actual conic-conic meets")

    p = sub.add_parser("render", help="render a configuration to SVG")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--stroke-width", type=float, default=1.5)
    p.add_argument("--point-radius", type=float, default=3.0)
    p.add_argument("--canvas", default="800x800")
    p.add_argument("--margin", type=float, default=0.06)

    p = sub.add_parser("props", help="combinatorial property report")
    p.add_argument("-i", "--input", required=True)
    return parser


# ---------------------------------------------------------------------------
# Scalar five-point fit and grazing test: oracles for the stacked checks
# ---------------------------------------------------------------------------
# The pair-by-pair and triple-by-triple checks of geometry.conic_from_5_points
# and the per-point grazing loop of constructions._conic_through_padded,
# verbatim. The stacked checks must take the same decisions and give the
# same conics.

def scalar_collinear(a, b, c, rel: float = 1e-10) -> bool:
    a, b, c = (np.asarray(v, float) for v in (a, b, c))
    area = abs(cross2(b - a, c - a))
    scale = max(np.linalg.norm(b - a) * np.linalg.norm(c - a), 1e-300)
    return area <= rel * scale


def scalar_conic_from_5_points(pts) -> Conic:
    pts = [np.asarray(p, float) for p in pts]
    if len(pts) != 5:
        raise GeometryError("exactly five points required")
    for i in range(5):
        for j in range(i + 1, 5):
            if np.linalg.norm(pts[i] - pts[j]) < TOL_MERGE:
                raise GeometryError(f"duplicate points at indices {i},{j}")
    for i in range(5):
        for j in range(i + 1, 5):
            for k in range(j + 1, 5):
                if scalar_collinear(pts[i], pts[j], pts[k]):
                    raise GeometryError(
                        f"points {i},{j},{k} are collinear; conic not unique")
    rows = [[x * x, x * y, y * y, x, y, 1.0] for x, y in pts]
    D = np.array(rows)
    _, s, Vt = np.linalg.svd(D)
    if s[4] > 0 and s[0] / s[4] > COND_WARN:
        warnings.warn("ill-conditioned five-point conic fit", RuntimeWarning)
    a, b, c, d, e, f = Vt[-1]
    return Conic.from_coeffs(a, b, c, d, e, f)


def scalar_conic_through_padded(rng, pts, members) -> np.ndarray:
    """The padded fit through `scalar_conic_from_5_points` and the
    per-point grazing loop; the form of its conic, as the realizer takes."""
    others = [i for i in range(len(pts)) if i not in members]

    def attempt():
        aux = rng.uniform(-0.2, 1.2, size=(5 - len(members), 2))
        conic = scalar_conic_from_5_points([pts[i] for i in members]
                                           + list(aux))
        if conic.is_degenerate():
            raise GeometryError("degenerate padded conic")
        if any(scalar_residual(conic, pts[i]) <= 1e-7 for i in others):
            raise GeometryError("padded conic grazes a non-member point")
        return conic.form
    return _retry(attempt, 64, "padded conic fit")


def format_path_data(px, py) -> str:
    """Path data of pixel coordinates, one `str.format` per point."""
    return "M " + " L ".join(map("{:.3f} {:.3f}".format, px, py))


# ---------------------------------------------------------------------------
# One-conic kernels: oracles for the stacked ones
# ---------------------------------------------------------------------------
# The one-conic bodies of Conic construction, apply_affine, translate_conic,
# ellipse_parameters, conic_from_normalized_coeffs, Conic.residual and
# Conic.coeffs, verbatim. Each public one-conic call is now the B = 1 call
# of its stacked kernel and must give the same bytes, kinds and errors.

def scalar_normalize_form(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    M = 0.5 * (M + M.T)
    nrm = np.linalg.norm(M)
    if nrm == 0.0:
        raise GeometryError("zero conic form")
    M = M / nrm
    flat = M.reshape(-1)
    for v in flat:
        if abs(v) > 1e-14:
            if v < 0:
                M = -M
            break
    return M


def scalar_classify_form(M: np.ndarray) -> str:
    return _kind(np.linalg.det(M), M[0, 0] * M[1, 1] - M[0, 1] ** 2,
                 M[0, 0] + M[1, 1],
                 lambda: np.linalg.svd(M, compute_uv=False)[1])


def scalar_conic_of(M) -> Conic:
    """The `Conic` of a read-only form M with its kind cached from
    `scalar_classify_form`, not classified by `Conic.kind`."""
    conic = _conic_of(M)
    vars(conic)["kind"] = scalar_classify_form(M)
    return conic


def scalar_conic(M) -> Conic:
    """`Conic(M)` through the one-form normalization and classification."""
    M = scalar_normalize_form(M)
    M.setflags(write=False)
    return scalar_conic_of(M)


def scalar_conic_from_normalized_coeffs(coeffs) -> Conic:
    a, b, c, d, e, f = (float(v) for v in coeffs)
    M = np.array([[a, b / 2, d / 2],
                  [b / 2, c, e / 2],
                  [d / 2, e / 2, f]])
    if not abs(np.linalg.norm(M) - 1.0) <= 1e-9:
        raise GeometryError("conic coefficients are not normalized")
    M.setflags(write=False)
    return scalar_conic_of(M)


def scalar_apply_affine(M: AffineMap2, conic: Conic) -> Conic:
    Hinv = np.linalg.inv(M.homogeneous())
    return scalar_conic(Hinv.T @ conic.form @ Hinv)


def scalar_translate_conic(conic: Conic, v) -> Conic:
    return scalar_apply_affine(AffineMap2.translation_by(v), conic)


def scalar_ellipse_parameters(conic: Conic):
    if conic.kind != "ellipse":
        raise GeometryError(f"not an ellipse: {conic.kind}")
    M = conic.form
    Q = M[:2, :2]
    center = np.linalg.solve(Q, -M[:2, 2])
    evals, evecs = np.linalg.eigh(Q)
    k = -np.linalg.det(M) / np.linalg.det(Q)
    axes = np.sqrt(k / evals)
    order = np.argsort(-axes)
    a, b = axes[order]
    v = evecs[:, order[0]]
    return center, float(a), float(b), _axis_angle(float(v[0]), float(v[1]))


def scalar_residual(conic: Conic, p) -> float:
    v = np.array([p[0], p[1], 1.0])
    v /= np.linalg.norm(v)
    return float(abs(v @ conic.form @ v))


def scalar_coeffs(conic: Conic) -> tuple:
    M = conic.form
    return (M[0, 0], 2 * M[0, 1], M[1, 1], 2 * M[0, 2], 2 * M[1, 2],
            M[2, 2])


def scalar_central_conic_from_pairs(center, reps) -> Conic:
    """The one-hexagon central fit the stacked `central_conic_forms`
    replaced: its own `det`, `solve` and `Conic`."""
    center = np.asarray(center, float)
    reps = [np.asarray(r, float) for r in reps]
    if len(reps) != 3:
        raise GeometryError("exactly three representatives required")
    rows = []
    for r in reps:
        x, y = r - center
        rows.append([x * x, x * y, y * y])
    M = np.array(rows)
    if abs(np.linalg.det(M)) < 1e-14 * max(np.linalg.norm(M), 1.0) ** 3:
        raise GeometryError("degenerate hexagon: singular central system")
    a, b, c = np.linalg.solve(M, np.ones(3))
    M0 = np.array([[a, b / 2, 0.0], [b / 2, c, 0.0], [0.0, 0.0, -1.0]])
    cx, cy = center
    Hinv = np.array([[1.0, 0.0, -cx], [0.0, 1.0, -cy], [0.0, 0.0, 1.0]])
    return Conic(Hinv.T @ M0 @ Hinv)


def check_hexagon(mids4: np.ndarray):
    """Planarity of a 6-point cycle in E^4; returns its centroid."""
    c = mids4.mean(axis=0)
    rel = mids4 - c
    s = np.linalg.svd(rel, compute_uv=False)
    if s.size > 2 and s[2] > 1e-10:
        raise ConstructionError("hexagon is not planar")
    return c


def loop_hexagon_configuration(points4, hexagons, proj, tol: float,
                               provenance: dict):
    """The one-hexagon-at-a-time builder step that the stacked
    `constructions._hexagon_configuration` replaced: a check, a fit and a
    `Conic` per hexagon, raising at the first hexagon that fails."""
    pts2 = np.array([project(proj, p) for p in points4])
    conics = []
    flags = set()
    radii = []
    for hx in hexagons:
        mids4 = points4[list(hx)]
        c4 = check_hexagon(mids4)
        radii.append(np.linalg.norm(mids4 - c4, axis=1))
        c2 = project(proj, c4)
        conic = scalar_central_conic_from_pairs(c2, pts2[list(hx[:3])])
        if conic.kind != "ellipse":
            raise ConstructionError(
                f"non-generic projection: hexagon gave {conic.kind}")
        b = len(conics)
        conics.append(conic)
        flags |= {(p, b) for p in hx}
    provenance = dict(provenance)
    provenance["circumradii_4d"] = [float(r.min()) for r in radii], \
                                   [float(r.max()) for r in radii]
    G = GeometricConfiguration(pts2, tuple(conics), flags, tol=tol,
                               provenance=provenance)
    return _require_audit(G, provenance.get("builder", "hexagons"))


def symbolic_hexagons_in_prisms(m: int, n: int):
    """The inscribed hexagons of the prism product as symbolic midpoint
    ids, the scheme that `constructions._hexagons_in_prisms` turns into an
    index array.

    Midpoint ids: ("A", i, j) is the midpoint of edge (u_i u_{i+1}) x w_j,
    ("B", i, j) of u_i x (w_j w_{j+1}). Yields each hexagon as a 6-cycle of
    midpoint ids (planar and centrally symmetric by construction).
    """
    h = m // 2
    for j in range(n):            # m-gonal prisms, one per n-gon edge
        for k in range(h):
            for chirality in (1, -1):
                if chirality == 1:
                    yield (("B", k, j),
                           ("A", k, j + 1),
                           ("A", (k + h - 1) % m, j + 1),
                           ("B", (k + h) % m, j),
                           ("A", (k + h) % m, j),
                           ("A", (k - 1) % m, j))
                else:
                    yield (("B", k, j),
                           ("A", (k - 1) % m, j + 1),
                           ("A", (k + h) % m, j + 1),
                           ("B", (k + h) % m, j),
                           ("A", (k + h - 1) % m, j),
                           ("A", k, j))
    hn = n // 2
    for i in range(m):            # n-gonal prisms, one per m-gon edge
        for k in range(hn):
            for chirality in (1, -1):
                if chirality == 1:
                    yield (("A", i, k),
                           ("B", i + 1, k),
                           ("B", i + 1, (k + hn - 1) % n),
                           ("A", i, (k + hn) % n),
                           ("B", i, (k + hn) % n),
                           ("B", i, (k - 1) % n))
                else:
                    yield (("A", i, k),
                           ("B", i + 1, (k - 1) % n),
                           ("B", i + 1, (k + hn) % n),
                           ("A", i, (k + hn) % n),
                           ("B", i, (k + hn - 1) % n),
                           ("B", i, k))


def loop_pmn(m: int, n: int, proj=None):
    """`pmn` as it was: the whole builder, polytope included, runs again
    on every default projection tried."""
    if proj is None:
        return _with_default_projection(lambda p: loop_pmn(m, n, p))
    poly = prism_product(m, n)
    mid_id = {}
    mids4 = []
    for i in range(m):
        for j in range(n):
            mid_id[("A", i, j)] = len(mids4)
            mids4.append((poly.vertices[(i % m) * n + j]
                          + poly.vertices[((i + 1) % m) * n + j]) / 2)
            mid_id[("B", i, j)] = len(mids4)
            mids4.append((poly.vertices[i * n + (j % n)]
                          + poly.vertices[i * n + ((j + 1) % n)]) / 2)
    hexagons = [tuple(mid_id[(t, a % m, b % n)] for (t, a, b) in hx)
                for hx in symbolic_hexagons_in_prisms(m, n)]
    return loop_hexagon_configuration(
        np.array(mids4), hexagons, proj, tol=1e-8,
        provenance={"builder": "pmn", "params": {"m": m, "n": n}})


def loop_cell24(proj=None):
    """`cell24` as it was: an `np.allclose` per vertex pair in the axis
    search, and the whole builder run again on every default projection."""
    if proj is None:
        return _with_default_projection(lambda p: loop_cell24(p))
    poly = cell24_polytope()
    V = poly.vertices
    mids4 = poly.edge_midpoints()
    edge_index = {frozenset(e): k for k, e in enumerate(poly.edges)}
    hexagons = []
    for cell in poly.facets:
        verts = list(cell)
        centroid = V[verts].mean(axis=0)
        axes = []
        used = set()
        for a in verts:
            if a in used:
                continue
            for b in verts:
                if b != a and np.allclose(V[a] + V[b], 2 * centroid):
                    axes.append((a, b))
                    used |= {a, b}
                    break
        (a, abar), (b, bbar), (c, cbar) = axes
        for sb in (0, 1):
            for sc in (0, 1):
                vb, vbbar = (b, bbar) if sb == 0 else (bbar, b)
                vc, vcbar = (c, cbar) if sc == 0 else (cbar, c)
                cycle_vertices = [(a, vbbar), (vbbar, vc), (vc, abar),
                                  (abar, vb), (vb, vcbar), (vcbar, a)]
                hexagons.append(tuple(edge_index[frozenset(e)]
                                      for e in cycle_vertices))
    return loop_hexagon_configuration(
        mids4, hexagons, proj, tol=1e-8, provenance={"builder": "cell24"})


# ---------------------------------------------------------------------------
# One-conic builder steps: oracles for the stacked scene steps
# ---------------------------------------------------------------------------
# The builders and realizer fits as they were before every scene was made
# in one stacked step: one `Conic` at a time, through the one-conic fits
# above, handed to the public `GeometricConfiguration` constructor. The
# stacked steps must give the same documents and the same errors.

def scalar_ellipse_conic(center, a: float, b: float, angle: float) -> Conic:
    R = np.array([[math.cos(angle), -math.sin(angle)],
                  [math.sin(angle), math.cos(angle)]])
    M = AffineMap2(R @ np.diag([a, b]), np.asarray(center, float))
    return scalar_apply_affine(M, Conic.from_coeffs(1, 0, 1, 0, 0, -1))


def circle_through_3_points(p, q, r) -> Conic:
    """Circle x^2 + y^2 + dx + ey + f = 0 through three points."""
    A = np.array([[p[0], p[1], 1.0], [q[0], q[1], 1.0], [r[0], r[1], 1.0]])
    rhs = -np.array([p[0] ** 2 + p[1] ** 2, q[0] ** 2 + q[1] ** 2,
                     r[0] ** 2 + r[1] ** 2])
    if abs(np.linalg.det(A)) < 1e-12:
        raise GeometryError("collinear points have no circumscribed circle")
    d, e, f = np.linalg.solve(A, rhs)
    return Conic.from_coeffs(1, 0, 1, d, e, f)


def scalar_parallelogram_ellipse_pair(A, B, C, D, t: float = 0.5):
    A, B, C, D = (np.asarray(v, float) for v in (A, B, C, D))
    scale = max(np.linalg.norm(B - A), np.linalg.norm(D - A), 1e-300)
    if np.linalg.norm((A + C) - (B + D)) > 1e-10 * scale:
        raise GeometryError("ABCD is not a parallelogram")
    if not 0.0 < t < 1.0:
        raise GeometryError("side parameter t must lie strictly in (0, 1)")
    p_ab = A + t * (B - A)
    p_cd = C + t * (D - C)
    p_bc = B + t * (C - B)
    p_da = D + t * (A - D)
    side = [p_ab, p_bc, p_cd, p_da]
    e_ac = scalar_conic_from_5_points(side + [A])
    e_bd = scalar_conic_from_5_points(side + [B])
    for conic, extra in ((e_ac, C), (e_bd, D)):
        if scalar_residual(conic, extra) > 1e-8:
            raise GeometryError("central-symmetry closure failed for the "
                                "parallelogram ellipse pair")
    return e_ac, e_bd, side


def loop_qcube_48(proj=None) -> GeometricConfiguration:
    proj = proj or octagonal_projection()
    poly = hypercube()
    V2 = np.array([project(proj, v) for v in poly.vertices])
    mid4 = poly.edge_midpoints()
    M2 = np.array([project(proj, m) for m in mid4])
    points = np.vstack([V2, M2])
    edge_index = {frozenset(e): 16 + k for k, e in enumerate(poly.edges)}
    conics = []
    flags = set()
    for face in poly.faces2:
        a, b, c, d = face
        try:
            e_ac, e_bd, _ = scalar_parallelogram_ellipse_pair(
                V2[a], V2[b], V2[c], V2[d], t=0.5)
        except GeometryError as exc:
            raise ConstructionError(
                f"non-generic projection: face {face}: {exc}") from exc
        for conic in (e_ac, e_bd):
            if conic.kind != "ellipse":
                raise ConstructionError(
                    f"non-generic projection: face {face} gave {conic.kind}")
        mids = [edge_index[frozenset((face[k], face[(k + 1) % 4]))]
                for k in range(4)]
        i_ac = len(conics)
        conics.append(e_ac)
        flags |= {(p, i_ac) for p in mids} | {(a, i_ac), (c, i_ac)}
        i_bd = len(conics)
        conics.append(e_bd)
        flags |= {(p, i_bd) for p in mids} | {(b, i_bd), (d, i_bd)}
    G = GeometricConfiguration(points, tuple(conics), flags, tol=1e-8,
                               provenance={"builder": "qcube_48"})
    return _require_audit(G, "qcube_48")


def loop_polygon_ring(n: int, elongation: float = 0.15,
                      minor: float | None = None) -> GeometricConfiguration:
    if n < 3:
        raise ConstructionError("polygon ring needs n >= 3")
    if minor is None:
        minor = 0.5 * elongation
    R = 0.5 / math.sin(math.pi / n)
    verts = [R * np.array([math.cos(2 * math.pi * k / n),
                           math.sin(2 * math.pi * k / n)])
             for k in range(n)]
    conics = []
    for k in range(n):
        v0, v1 = verts[k], verts[(k + 1) % n]
        center = (v0 + v1) / 2
        ang = math.atan2(*(v1 - v0)[::-1])
        conics.append(scalar_ellipse_conic(center, 0.5 + elongation, minor,
                                           ang))
    points = []
    flags = set()
    for k in range(n):
        j = (k + 1) % n
        pts = conic_conic_intersections(conics[k], conics[j])
        if len(pts) != 4:
            raise ConstructionError(
                f"ellipses {k},{j} meet in {len(pts)} points, need 4; "
                f"adjust elongation/minor (got {elongation}, {minor})")
        for p in pts:
            idx = len(points)
            points.append(p)
            flags |= {(idx, k), (idx, j)}
    G = GeometricConfiguration(
        np.array(points), tuple(conics), flags, tol=1e-9,
        provenance={"builder": "polygon_ring",
                    "params": {"n": n, "elongation": elongation,
                               "minor": minor}})
    return _require_audit(G, f"polygon_ring({n})")


def _fit_face_conic(pts6, tol: float) -> Conic:
    conic = scalar_conic_from_5_points(pts6[:5])
    if scalar_residual(conic, pts6[5]) > tol:
        raise GeometryError("six points are not coconical at tolerance")
    if conic.is_degenerate():
        raise GeometryError("degenerate face conic")
    return conic


def loop_carnot_scene(edge_pts, faces, tol: float, provenance: dict,
                      context: str) -> GeometricConfiguration:
    """`constructions._carnot_scene` with a fit and a sixth-point test per
    face."""
    points = np.reshape(edge_pts, (-1, 2))
    slots = (2 * np.asarray(faces)[:, :, None] + [0, 1]).reshape(-1, 6)
    conics = tuple(_fit_face_conic(points[s], tol) for s in slots)
    flags = np.column_stack([slots.ravel(),
                             np.repeat(np.arange(len(slots)), 6)])
    G = GeometricConfiguration(points, conics, flags, tol=tol,
                               provenance=provenance)
    return _require_audit(G, context)


def list_geometric_meets(G) -> dict:
    """`analysis.geometric_meets` over a list of C(B, 2) index tuples, with
    the counts dict and the excess tuple built pair by pair."""
    config = intersection_type(G).per_pair
    pairs = list(combinations(range(G.num_conics), 2))
    _, n = pencil_intersections(G.forms, pairs)
    counts = dict(zip(pairs, n.tolist()))
    excess = tuple(p for p in pairs if counts[p] > config.get(p, 0))
    return {"counts": counts, "excess": excess}
