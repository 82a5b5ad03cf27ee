"""Shared test helpers: random generators and brute-force oracles."""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from pointconic.constructions import ellipse_conic
from pointconic.geometry import Conic, cross2, ellipse_parameters
from pointconic.incidence import IncidenceStructure, new_incidence_structure


def random_ellipse(rng, center_box: float = 1.0,
                   min_axis: float = 0.15, max_axis: float = 1.2) -> Conic:
    center = rng.uniform(-center_box, center_box, size=2)
    a = rng.uniform(min_axis, max_axis)
    b = rng.uniform(min_axis, a)
    ang = rng.uniform(0, math.pi)
    return ellipse_conic(center, a, b, ang)


def random_triangle(rng, min_area: float = 0.3) -> tuple:
    while True:
        tri = rng.uniform(-1.5, 1.5, size=(3, 2))
        if abs(cross2(tri[1] - tri[0], tri[2] - tri[0])) / 2 >= min_area:
            return tuple(tri)


def sweep_intersections(A: Conic, B: Conic, samples: int = 4096,
                        merge: float = 1e-9) -> list[np.ndarray]:
    """Brute-force intersection oracle: sample ellipse A parametrically,
    bisect the sign changes of B's form along it."""
    center, a, b, ang = ellipse_parameters(A)
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
        tri = random_triangle(rng)
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
