"""Builders for the point-conic configurations this library ships.

Every builder returns a GeometricConfiguration that has passed
`analysis.audit`; the audit is the gate, so builders do not pre-check what it
checks (duplicate points, missing or spurious incidences, coincident conics).
Builders that draw random data are pure functions of (parameters, seed). They
resample through one helper, `_retry`: a rejected draw raises GeometryError or
ConstructionError, and `_retry` draws again up to an explicit budget.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import analysis, geometry
from .configuration import GeometricConfiguration, Polytope4
from .geometry import (AffineMap2, Conic, GeometryError, Projection4to2,
                       TOL_MERGE, affine_images, apply_affine,
                       apply_affine_point,
                       carnot_product, carnot_solve_sixth,
                       central_conic_from_pairs, conic_conic_intersections,
                       conic_from_5_points, cross2,
                       line_conic_intersections)
from .incidence import IncidenceError, IncidenceStructure, has_biclique

RETRY_BUDGET = 1000


class ConstructionError(ValueError):
    """Raised when a builder cannot produce a valid configuration."""


def _retry(attempt, budget: int, what: str):
    """Return the first result of `attempt()` within `budget` calls.

    A GeometryError or ConstructionError rejects the draw and `attempt` is
    called again; any other exception propagates at once. Raises
    ConstructionError naming `what`, the budget and the last rejection when
    the budget runs out.
    """
    spent = 0
    last: Exception | None = None
    while spent < budget:
        spent += 1
        try:
            return attempt()
        except (GeometryError, ConstructionError) as exc:
            last = exc
    raise ConstructionError(
        f"{what}: retry budget of {budget} exhausted; last: {last}")


# ---------------------------------------------------------------------------
# Small planar helpers
# ---------------------------------------------------------------------------

def ellipse_conic(center, a: float, b: float, angle: float) -> Conic:
    """Ellipse with the given center, semi-axes and major-axis direction."""
    R = np.array([[math.cos(angle), -math.sin(angle)],
                  [math.sin(angle), math.cos(angle)]])
    M = AffineMap2(R @ np.diag([a, b]), np.asarray(center, float))
    return apply_affine(M, Conic.from_coeffs(1, 0, 1, 0, 0, -1))


def circle_through_3_points(p, q, r) -> Conic:
    """Circle x^2 + y^2 + dx + ey + f = 0 through three points."""
    A = np.array([[p[0], p[1], 1.0], [q[0], q[1], 1.0], [r[0], r[1], 1.0]])
    rhs = -np.array([p[0] ** 2 + p[1] ** 2, q[0] ** 2 + q[1] ** 2,
                     r[0] ** 2 + r[1] ** 2])
    if abs(np.linalg.det(A)) < 1e-12:
        raise GeometryError("collinear points have no circumscribed circle")
    d, e, f = np.linalg.solve(A, rhs)
    return Conic.from_coeffs(1, 0, 1, d, e, f)


def translate_conics(forms: np.ndarray, shifts: np.ndarray):
    """(forms, kinds) of the forms (n, 3, 3), or of one form (3, 3),
    translated by the shifts (n, 2), in one stacked pass
    (`geometry.affine_images`)."""
    H = np.tile(np.eye(3), (len(shifts), 1, 1))
    H[:, :2, 2] = shifts
    return affine_images(H, forms)


def _require_audit(G: GeometricConfiguration, context: str,
                   **kwargs) -> GeometricConfiguration:
    rep = analysis.audit(G, **kwargs)
    if not rep.passed:
        raise ConstructionError(
            f"{context}: audit failed "
            f"(max_res={rep.max_flag_residual:.2e}, "
            f"spurious={list(rep.spurious_incidences)[:4]}, "
            f"missing={list(rep.missing_incidences)[:4]}, "
            f"dupes={list(rep.duplicate_points)[:4]}, "
            f"coincident={list(rep.coincident_conics)[:4]})")
    return G


# ---------------------------------------------------------------------------
# Isometric examples
# ---------------------------------------------------------------------------

def crossed_ellipses() -> GeometricConfiguration:
    """Two congruent perpendicular ellipses meeting in four points: (4_2, 2_4)."""
    a, b = 0.6, 0.25
    e1 = ellipse_conic((0, 0), a, b, 0.0)
    e2 = ellipse_conic((0, 0), a, b, math.pi / 2)
    pts = conic_conic_intersections(e1, e2)
    if len(pts) != 4:
        raise ConstructionError("crossed ellipses failed to meet in 4 points")
    flags = {(i, 0) for i in range(4)} | {(i, 1) for i in range(4)}
    G = GeometricConfiguration(np.array(pts), (e1, e2), flags, tol=1e-9,
                               provenance={"builder": "crossed_ellipses"})
    return _require_audit(G, "crossed_ellipses")


def polygon_ring(n: int, elongation: float = 0.15,
                 minor: float | None = None) -> GeometricConfiguration:
    """Ring of n congruent ellipses along the elongated sides of a regular
    n-gon; consecutive ellipses meet transversally in 4 points: (4n_2, n_8).

    `elongation` and `minor` are fractions of the (unit) side length;
    `minor` defaults to half the elongation.
    """
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
        conics.append(ellipse_conic(center, 0.5 + elongation, minor, ang))
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


# ---------------------------------------------------------------------------
# Parallelogram ellipse pairs and the 4-cube (48_6)
# ---------------------------------------------------------------------------

def parallelogram_ellipse_pair(A, B, C, D, t: float = 0.5):
    """The two ellipses through four centrally symmetric side points of a
    parallelogram ABCD, one through A and C, the other through B and D.

    Side points sit at parameter `t` on AB and CD and at the centrally
    symmetric parameter on BC and DA. Returns (conic_AC, conic_BD,
    [P_AB, P_BC, P_CD, P_DA]).
    """
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
    e_ac = conic_from_5_points(side + [A])
    e_bd = conic_from_5_points(side + [B])
    for conic, extra in ((e_ac, C), (e_bd, D)):
        if conic.residual(extra) > 1e-8:
            raise GeometryError("central-symmetry closure failed for the "
                                "parallelogram ellipse pair")
    return e_ac, e_bd, side


def hypercube() -> Polytope4:
    """The 4-cube with unit edges centered at the origin."""
    verts = [np.array(bits, float) - 0.5
             for bits in np.ndindex(2, 2, 2, 2)]
    V = np.array(verts)
    edges = [(i, j) for i in range(16) for j in range(i + 1, 16)
             if np.sum(np.abs(V[i] - V[j])) == 1.0]
    faces = []
    for i in range(4):
        for j in range(i + 1, 4):
            others = [k for k in range(4) if k not in (i, j)]
            for a in (-0.5, 0.5):
                for b in (-0.5, 0.5):
                    cell = [v for v in range(16)
                            if V[v][others[0]] == a and V[v][others[1]] == b]
                    # order the 4 vertices into a cycle around the square
                    cell.sort(key=lambda v: math.atan2(V[v][j], V[v][i]))
                    faces.append(tuple(cell))
    return Polytope4(V, edges, faces)


def octagonal_projection() -> Projection4to2:
    """Symmetric view of the 4-cube: column k is the unit vector at angle
    pi/8 + k*pi/4."""
    angles = [math.pi / 8 + k * math.pi / 4 for k in range(4)]
    return Projection4to2(np.array([[math.cos(a) for a in angles],
                                    [math.sin(a) for a in angles]]))


def generic_projection(seed: int = 12345) -> Projection4to2:
    """Fixed pseudo-random rank-2 projection used as the default flattening."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(2, 4))
    q, _ = np.linalg.qr(M.T)
    return Projection4to2(q.T)


def _with_default_projection(build):
    """Run a projection-taking builder over a deterministic seed sequence.

    A fixed projection can happen to be near-parallel to one of a polytope's
    hexagon planes; walking the seed sequence keeps default builds both
    deterministic and generic."""
    seeds = itertools.count(12345)
    return _retry(lambda: build(generic_projection(next(seeds))), 32,
                  "generic default projection")


def qcube_48(proj: Projection4to2 | None = None) -> GeometricConfiguration:
    """The (48_6) configuration: project the 4-cube, put the ellipse pair of
    every projected square face through the edge midpoints.

    Its intersection type is {1,2,4}, not the {1,4} the paper states for its
    (48_6): the ellipses of two faces that share an edge and pass through the
    same vertex of it also share that edge's midpoint."""
    proj = proj or octagonal_projection()
    poly = hypercube()
    V2 = np.array([geometry.project(proj, v) for v in poly.vertices])
    mid4 = poly.edge_midpoints()
    M2 = np.array([geometry.project(proj, m) for m in mid4])
    points = np.vstack([V2, M2])
    edge_index = {frozenset(e): 16 + k for k, e in enumerate(poly.edges)}
    conics = []
    flags = set()
    for face in poly.faces2:
        a, b, c, d = face
        try:
            e_ac, e_bd, _ = parallelogram_ellipse_pair(
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


# ---------------------------------------------------------------------------
# Carnot configurations
# ---------------------------------------------------------------------------

def _sample_6_on_conic(conic: Conic, tri) -> list[np.ndarray]:
    """Intersect a conic with all three side lines of a triangle; canonical
    slot order (A1, A2, B1, B2, C1, C2). Raises GeometryError if a side
    misses the conic or a cut point sits on a vertex."""
    A, B, C = tri
    out = []
    for (U, V) in ((B, C), (C, A), (A, B)):
        pts = line_conic_intersections(conic, U, V)
        if len(pts) != 2:
            raise GeometryError("conic does not cut every side twice")
        for p in pts:
            for vert in tri:
                if np.linalg.norm(p - vert) < 1e-3:
                    raise GeometryError("conic cuts a side at a vertex")
        out.extend(pts)
    return out


def _random_ellipse(rng, center_box=0.4) -> Conic:
    center = rng.uniform(-center_box, center_box, size=2)
    a = rng.uniform(0.45, 0.95)
    b = rng.uniform(0.3, a)
    ang = rng.uniform(0, math.pi)
    return ellipse_conic(center, a, b, ang)


def _edge_point(rng, U, V, taken=None, margin=0.12):
    """Random point on the line UV, clear of the endpoints and of `taken`."""
    def draw():
        s = rng.uniform(margin, 1 - margin)
        p = U + s * (V - U)
        if taken is not None and np.linalg.norm(p - taken) <= 0.08 * \
                np.linalg.norm(V - U):
            raise ConstructionError("edge point too close to the taken one")
        return p
    return _retry(draw, 64, "generic edge point")


def _fit_face_conic(pts6, tol: float) -> Conic:
    conic = conic_from_5_points(pts6[:5])
    if conic.residual(pts6[5]) > tol:
        raise GeometryError("six points are not coconical at tolerance")
    if conic.is_degenerate():
        raise GeometryError("degenerate face conic")
    return conic


def richter_gebert(seed: int = 0) -> GeometricConfiguration:
    """Projected-tetrahedron cycle construction: three faces are made
    coconical by explicit completion, the fourth closes automatically.

    Counts are 12 points of degree 2 on 4 conics through 6 points each,
    a (12_2, 4_6); the type is sometimes quoted as (12_6, 4_3), which is
    inconsistent with the 24 flags and recorded as a note in provenance.
    """
    rng = np.random.default_rng(seed)
    return _retry(lambda: _richter_gebert_once(rng), 200, "richter_gebert")


def _richter_gebert_once(rng) -> GeometricConfiguration:
    # Planar projection of a tetrahedron: 4 generic base points.
    def draw_base():
        base = rng.uniform(-1, 1, size=(4, 2))
        areas = [abs(cross2(base[j] - base[i], base[k] - base[i]))
                 for i, j, k in
                 ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))]
        if min(areas) <= 0.35:
            raise GeometryError("tetrahedron drawing too flat")
        return base
    A, B, C, D = _retry(draw_base, 64, "generic tetrahedron drawing")
    edge_pts: dict[frozenset, list] = {}

    def edge(u, v):
        return frozenset((u, v))

    # Face ABC: six points cut from a random conic.
    pts6 = _retry(lambda: _sample_6_on_conic(_random_ellipse(rng), (A, B, C)),
                  64, "transversal conic for the first face")
    edge_pts[edge(1, 2)] = pts6[0:2]   # on BC
    edge_pts[edge(2, 0)] = pts6[2:4]   # on CA
    edge_pts[edge(0, 1)] = pts6[4:6]   # on AB

    # Face ABD (A, B, D): sides a=BD, b=DA, c=AB. AB known; place BD fully
    # and one DA point, solve the second DA point.
    bd = [_edge_point(rng, B, D), None]
    bd[1] = _edge_point(rng, B, D, taken=bd[0])
    da0 = _edge_point(rng, D, A)
    known = bd + [da0] + edge_pts[edge(0, 1)]
    da1 = carnot_solve_sixth((A, B, D), known, side="b")
    edge_pts[edge(1, 3)] = bd
    edge_pts[edge(3, 0)] = [da0, da1]

    # Face ACD (A, C, D): sides a=CD, b=DA, c=AC. DA and AC known; place one
    # CD point, solve the other.
    cd0 = _edge_point(rng, C, D)
    known = [cd0] + edge_pts[edge(3, 0)] + edge_pts[edge(2, 0)]
    cd1 = carnot_solve_sixth((A, C, D), known, side="a")
    edge_pts[edge(2, 3)] = [cd0, cd1]

    # Face BCD closes automatically; verify before fitting.
    tri_bcd = (B, C, D)
    pts_bcd = (edge_pts[edge(2, 3)]          # on CD (side a of BCD)
               + edge_pts[edge(1, 3)]        # on DB (side b)
               + edge_pts[edge(1, 2)])       # on BC (side c)
    closure = carnot_product(tri_bcd, pts_bcd)
    if abs(closure - 1.0) > 1e-7:
        raise GeometryError(f"closure product off by {closure - 1.0:.2e}")

    faces = [((A, B, C), [(1, 2), (2, 0), (0, 1)]),
             ((A, B, D), [(1, 3), (3, 0), (0, 1)]),
             ((A, C, D), [(2, 3), (3, 0), (2, 0)]),
             ((B, C, D), [(2, 3), (1, 3), (1, 2)])]
    point_index = {}
    points = []
    for e, pts in sorted(edge_pts.items(), key=lambda kv: sorted(kv[0])):
        for s, p in enumerate(pts):
            point_index[(e, s)] = len(points)
            points.append(p)
    conics = []
    flags = set()
    for tri, edges in faces:
        face_pts = []
        for (u, v) in edges:
            face_pts.extend(edge_pts[edge(u, v)])
        conic = _fit_face_conic(face_pts, tol=1e-7)
        b = len(conics)
        conics.append(conic)
        for (u, v) in edges:
            for s in range(2):
                flags.add((point_index[(edge(u, v), s)], b))
    G = GeometricConfiguration(
        np.array(points), tuple(conics), flags, tol=1e-7,
        provenance={"builder": "richter_gebert",
                    "closure_residual": abs(closure - 1.0),
                    "type": "(12_2,4_6)",
                    "type_note": "also quoted as (12_6,4_3); the 24 flags "
                                 "force (12_2,4_6)"})
    return _require_audit(G, "richter_gebert")


def dipyramid_carnot(n: int, seed: int = 0) -> GeometricConfiguration:
    """Carnot configuration on a planar-drawn n-gonal dipyramid:
    ((6n)_2, (2n)_6), two points per edge line, one conic per face."""
    if n < 3:
        raise ConstructionError("dipyramid needs n >= 3")
    rng = np.random.default_rng(seed)
    return _retry(lambda: _dipyramid_once(rng, n), 200,
                  f"dipyramid_carnot({n})")


def _dipyramid_once(rng, n: int) -> GeometricConfiguration:
    # Planar drawing: ring on a jittered circle, one apex inside, one out.
    ring = []
    for k in range(n):
        ang = 2 * math.pi * k / n + rng.uniform(-0.25, 0.25) / n
        r = 1.0 + rng.uniform(-0.08, 0.08)
        ring.append(r * np.array([math.cos(ang), math.sin(ang)]))
    north = rng.uniform(-0.15, 0.15, size=2)
    sa = rng.uniform(0, 2 * math.pi)
    south = (1.9 + rng.uniform(0, 0.3)) * np.array([math.cos(sa),
                                                    math.sin(sa)])
    for i in range(n):
        for apex in (north, south):
            area = abs(cross2(ring[(i + 1) % n] - ring[i],
                              apex - ring[i]))
            if area < 0.05:
                raise GeometryError("degenerate face in planar drawing")

    ring_pts = [None] * n    # points on ring edge (v_i, v_{i+1})
    up_pts = [None] * n      # points on spoke (north, v_i)
    lo_pts = [None] * n      # points on spoke (south, v_i)

    def two_free(U, V):
        p = _edge_point(rng, U, V)
        return [p, _edge_point(rng, U, V, taken=p)]

    closure_residuals = []
    # Upper faces U_i = (north, v_i, v_{i+1}); sides: a = ring edge i,
    # b = spoke i+1, c = spoke i.
    for i in range(n):
        j = (i + 1) % n
        tri = (north, ring[i], ring[j])
        if up_pts[i] is None:
            up_pts[i] = two_free(north, ring[i])
        if up_pts[j] is None:
            up_pts[j] = two_free(north, ring[j])
        r0 = _edge_point(rng, ring[i], ring[j])
        known = [r0] + up_pts[j] + up_pts[i]
        r1 = carnot_solve_sixth(tri, known, side="a")
        ring_pts[i] = [r0, r1]
    # Lower faces L_i = (south, v_i, v_{i+1}); ring points already fixed.
    for i in range(n):
        j = (i + 1) % n
        tri = (south, ring[i], ring[j])
        if lo_pts[i] is None:
            lo_pts[i] = two_free(south, ring[i])
        if lo_pts[j] is None:
            if i == n - 1:
                raise GeometryError("face ordering broke")
            p0 = _edge_point(rng, south, ring[j])
            known = ring_pts[i] + [p0] + lo_pts[i]
            p1 = carnot_solve_sixth(tri, known, side="b")
            lo_pts[j] = [p0, p1]
        else:
            # Fully determined face: the closure that must come for free.
            prod = carnot_product(tri, ring_pts[i] + lo_pts[j] + lo_pts[i])
            closure_residuals.append(abs(prod - 1.0))
            if closure_residuals[-1] > 1e-6:
                raise GeometryError(
                    f"closing face residual {closure_residuals[-1]:.2e}")

    all_pts = ring_pts + up_pts + lo_pts
    for pair in all_pts:
        for p in pair:
            if np.max(np.abs(p)) > 50:
                raise GeometryError("runaway solved point")
    points = []
    index = {}
    for e, pair in enumerate(all_pts):
        for s, p in enumerate(pair):
            index[(e, s)] = len(points)
            points.append(p)

    conics = []
    flags = set()
    face_triangles = []
    face_points = []
    for i in range(n):
        j = (i + 1) % n
        for apex, apex_pts, apex_off in ((north, up_pts, n),
                                         (south, lo_pts, 2 * n)):
            face_pts = ring_pts[i] + apex_pts[j] + apex_pts[i]
            conic = _fit_face_conic(face_pts, tol=1e-6)
            b = len(conics)
            conics.append(conic)
            slots = ([(i, 0), (i, 1)]
                     + [(apex_off + j, 0), (apex_off + j, 1)]
                     + [(apex_off + i, 0), (apex_off + i, 1)])
            for (e, s) in slots:
                flags.add((index[(e, s)], b))
            # Slot order matches the canonical Carnot sides (a, a, b, b, c, c)
            # of the face triangle (apex, v_i, v_j).
            face_triangles.append([apex, ring[i], ring[j]])
            face_points.append([index[es] for es in slots])
    G = GeometricConfiguration(
        np.array(points), tuple(conics), flags, tol=1e-6,
        provenance={"builder": "dipyramid_carnot",
                    "params": {"n": n},
                    "max_closure_residual": max(closure_residuals),
                    "face_triangles": face_triangles,
                    "face_points": face_points})
    return _require_audit(G, f"dipyramid_carnot({n})")


# ---------------------------------------------------------------------------
# Minkowski product
# ---------------------------------------------------------------------------

def product(C1: GeometricConfiguration, C2: GeometricConfiguration,
            genericize: bool = False,
            seed: int = 0) -> GeometricConfiguration:
    """Planar Cartesian product: points are all vector sums, blocks are all
    translates of each factor's conics by the other factor's points.

    Point degrees add; block sizes are inherited. Refuses on point or block
    collisions; `genericize` pre-rotates the second factor to escape them.
    """
    if genericize:
        rng = np.random.default_rng(seed)
        ang = rng.uniform(0.1, 1.0)
        R = np.array([[math.cos(ang), -math.sin(ang)],
                      [math.sin(ang), math.cos(ang)]])
        M = AffineMap2(R, np.zeros(2))
        C2 = GeometricConfiguration._of(
            np.array([apply_affine_point(M, p) for p in C2.points]),
            *affine_images(M.homogeneous(), C2.forms),
            C2.to_incidence_structure().flag_array, C2.tol,
            dict(C2.provenance))

    P1, P2 = C1.points, C2.points
    n1, n2 = len(P1), len(P2)
    pts = (P1[:, None, :] + P2[None, :, :]).reshape(-1, 2)
    if analysis._duplicate_pairs(pts, TOL_MERGE):
        raise ConstructionError(
            "Minkowski point collision; pre-transform a factor "
            "(genericize=True)")

    # Translates of C2's conics by C1's points, then of C1's by C2's, in one
    # stacked pass. Point (i1, i2) is i1 * n2 + i2; the translate of C2's
    # conic b2 by point i1 is block i1 * nb2 + b2, and that of C1's conic b1
    # by point i2 is block n1 * nb2 + i2 * nb1 + b1.
    nb1, nb2 = C1.num_conics, C2.num_conics
    forms, kinds = translate_conics(
        np.concatenate([np.tile(C2.forms, (n1, 1, 1)),
                        np.tile(C1.forms, (n2, 1, 1))]),
        np.concatenate([np.repeat(P1, nb2, axis=0),
                        np.repeat(P2, nb1, axis=0)]))
    F1 = C1.to_incidence_structure().flag_array
    F2 = C2.to_incidence_structure().flag_array
    i1, i2 = np.arange(n1)[:, None], np.arange(n2)[:, None]
    flags = np.concatenate([
        np.stack([i1 * n2 + F2[:, 0], i1 * nb2 + F2[:, 1]], -1).reshape(-1, 2),
        np.stack([F1[:, 0] * n2 + i2, n1 * nb2 + i2 * nb1 + F1[:, 1]],
                 -1).reshape(-1, 2)])
    if analysis._coincident_pairs(forms):
        raise ConstructionError(
            "translated conics coincide; pre-transform a factor "
            "(genericize=True)")
    return GeometricConfiguration._of(
        pts, forms, kinds, flags, tol=max(C1.tol, C2.tol),
        provenance={"builder": "product",
                    "factors": (C1.provenance.get("builder", "?"),
                                C2.provenance.get("builder", "?"))})


# ---------------------------------------------------------------------------
# Prism products P_{m,n} and the 24-cell
# ---------------------------------------------------------------------------

def _regular_polygon(m: int) -> list[np.ndarray]:
    R = 0.5 / math.sin(math.pi / m)
    return [R * np.array([math.cos(2 * math.pi * k / m),
                          math.sin(2 * math.pi * k / m)]) for k in range(m)]


def prism_product(m: int, n: int) -> Polytope4:
    """Cartesian product of regular m- and n-gons with unit edges."""
    pm, pn = _regular_polygon(m), _regular_polygon(n)
    verts = np.array([[*u, *w] for u in pm for w in pn])

    def vid(i, j):
        return (i % m) * n + (j % n)

    edges = []
    for i in range(m):
        for j in range(n):
            edges.append((vid(i, j), vid(i + 1, j)))   # type A
            edges.append((vid(i, j), vid(i, j + 1)))   # type B
    faces = [(vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1))
             for i in range(m) for j in range(n)]
    return Polytope4(verts, edges, faces)


def _hexagons_in_prisms(m: int, n: int):
    """Midpoint index scheme for the inscribed hexagons.

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


def _check_hexagon(mids4: np.ndarray):
    """Planarity and central symmetry of a 6-point cycle in E^4."""
    c = mids4.mean(axis=0)
    rel = mids4 - c
    if np.linalg.norm(rel[0] + rel[3]) > 1e-10 or \
            np.linalg.norm(rel[1] + rel[4]) > 1e-10 or \
            np.linalg.norm(rel[2] + rel[5]) > 1e-10:
        raise ConstructionError("hexagon is not centrally symmetric")
    s = np.linalg.svd(rel, compute_uv=False)
    if s.size > 2 and s[2] > 1e-10:
        raise ConstructionError("hexagon is not planar")
    return c


def _hexagon_configuration(points4: np.ndarray, hexagons: list,
                           proj: Projection4to2, tol: float,
                           provenance: dict) -> GeometricConfiguration:
    """Project hexagon vertex sets in E^4 and circumscribe planar conics.

    `hexagons` holds index-6-tuples into `points4`; every hexagon must be
    planar and centrally symmetric in E^4.
    """
    pts2 = np.array([geometry.project(proj, p) for p in points4])
    conics = []
    flags = set()
    radii = []
    for hx in hexagons:
        mids4 = points4[list(hx)]
        c4 = _check_hexagon(mids4)
        radii.append(np.linalg.norm(mids4 - c4, axis=1))
        c2 = geometry.project(proj, c4)
        conic = central_conic_from_pairs(c2, pts2[list(hx[:3])])
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


def pmn(m: int, n: int,
        proj: Projection4to2 | None = None) -> GeometricConfiguration:
    """The ((2mn)_6) configuration from the prism product of two even
    regular polygons: points are projected edge midpoints, conics are the
    circumscribed ellipses of the 2mn inscribed hexagons."""
    if m < 4 or n < 4 or m % 2 or n % 2:
        raise ConstructionError("pmn needs even m, n >= 4")
    if proj is None:
        return _with_default_projection(lambda p: pmn(m, n, p))
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
                for hx in _hexagons_in_prisms(m, n)]
    return _hexagon_configuration(
        np.array(mids4), hexagons, proj, tol=1e-8,
        provenance={"builder": "pmn", "params": {"m": m, "n": n}})


def cell24(proj: Projection4to2 | None = None) -> GeometricConfiguration:
    """The (96_6) configuration from the regular 24-cell: 96 projected edge
    midpoints on the projections of 96 inscribed regular hexagons (circles
    of radius sqrt(2)/2 before projection)."""
    if proj is None:
        return _with_default_projection(lambda p: cell24(p))
    poly = cell24_polytope()
    V = poly.vertices
    mids4 = poly.edge_midpoints()
    edge_index = {frozenset(e): k for k, e in enumerate(poly.edges)}
    hexagons = []
    for cell in poly.facets:
        verts = list(cell)
        centroid = V[verts].mean(axis=0)
        # Axes: antipodal vertex pairs within the octahedron.
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
        if len(axes) != 3:
            raise ConstructionError("octahedral cell axes not found")
        (a, abar), (b, bbar), (c, cbar) = axes
        # One hexagon per opposite-face pair: sign patterns up to flip.
        for sb in (0, 1):
            for sc in (0, 1):
                vb, vbbar = (b, bbar) if sb == 0 else (bbar, b)
                vc, vcbar = (c, cbar) if sc == 0 else (cbar, c)
                cycle_vertices = [(a, vbbar), (vbbar, vc), (vc, abar),
                                  (abar, vb), (vb, vcbar), (vcbar, a)]
                hexagons.append(tuple(edge_index[frozenset(e)]
                                      for e in cycle_vertices))
    return _hexagon_configuration(
        mids4, hexagons, proj, tol=1e-8,
        provenance={"builder": "cell24"})


def cell24_polytope() -> Polytope4:
    """24-cell with vertices at all permutations of (+-1, +-1, 0, 0);
    facets list the 6-vertex octahedral cells."""
    verts = []
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (1, -1):
                for sj in (1, -1):
                    v = np.zeros(4)
                    v[i], v[j] = si, sj
                    verts.append(v)
    V = np.array(verts)
    edges = [(i, j) for i in range(24) for j in range(i + 1, 24)
             if abs(np.sum((V[i] - V[j]) ** 2) - 2.0) < 1e-9]
    centers = []
    for k in range(4):
        for s in (1, -1):
            c = np.zeros(4)
            c[k] = s
            centers.append(c)
    for signs in np.ndindex(2, 2, 2, 2):
        centers.append(np.array([0.5 if s == 0 else -0.5 for s in signs]))
    facets = []
    for c in centers:
        dots = V @ c
        cell = tuple(int(i) for i in np.nonzero(dots > dots.max() - 1e-9)[0])
        if len(cell) != 6:
            raise ConstructionError("24-cell enumeration failed")
        facets.append(cell)
    return Polytope4(V, edges, facets=facets)


# ---------------------------------------------------------------------------
# Generic realizers
# ---------------------------------------------------------------------------

def realize_lineal_by_circles(C: IncidenceStructure,
                              seed: int = 0) -> GeometricConfiguration:
    """Realize a lineal 3-configuration by points in general position and
    the circles through its triples."""
    sizes = {C.block_size(b) for b in range(C.num_blocks)}
    if sizes - {3}:
        raise ConstructionError("all block sizes must be 3")
    if has_biclique(C, 2, 2):
        raise ConstructionError("structure is not lineal")
    rng = np.random.default_rng(seed)

    def attempt():
        pts = rng.uniform(0, 1, size=(C.num_points, 2))
        conics = tuple(circle_through_3_points(
            *[pts[p] for p in sorted(C.points_of_block(b))])
            for b in range(C.num_blocks))
        G = GeometricConfiguration(
            pts, conics, C.flag_array, tol=1e-8,
            provenance={"builder": "realize_lineal_by_circles",
                        "seed": seed})
        return _require_audit(G, "circle realization")
    return _retry(attempt, RETRY_BUDGET, "circle realization")


def realize_by_conics(C: IncidenceStructure,
                      seed: int = 0) -> GeometricConfiguration:
    """Realize any conical structure with block sizes <= 5 by generic points
    and fitted conics (blocks smaller than 5 are padded with auxiliary
    generic points that are not part of the configuration)."""
    if has_biclique(C, 5, 2):
        raise ConstructionError("structure has a K_{5,2}; not conical")
    if any(C.block_size(b) > 5 for b in range(C.num_blocks)):
        raise ConstructionError("block sizes must be at most 5")
    rng = np.random.default_rng(seed)

    def attempt():
        pts = rng.uniform(0, 1, size=(C.num_points, 2))
        conics = tuple(
            _conic_through_padded(rng, pts, sorted(C.points_of_block(b)))
            for b in range(C.num_blocks))
        G = GeometricConfiguration(
            pts, conics, C.flag_array, tol=1e-8,
            provenance={"builder": "realize_by_conics", "seed": seed})
        return _require_audit(G, "conic realization")
    return _retry(attempt, RETRY_BUDGET, "conic realization")


def _conic_through_padded(rng, pts, members) -> Conic:
    """Nondegenerate conic through the block's points, padded to five with
    fresh generic points; rejects conics grazing non-member points."""
    others = pts[[i for i in range(len(pts)) if i not in members]]

    def attempt():
        aux = rng.uniform(-0.2, 1.2, size=(5 - len(members), 2))
        conic = conic_from_5_points(np.vstack([pts[members], aux]))
        if conic.is_degenerate():
            raise GeometryError("degenerate padded conic")
        if (geometry._residuals(others, conic.form) <= 1e-7).any():
            raise GeometryError("padded conic grazes a non-member point")
        return conic
    return _retry(attempt, 64, "padded conic fit")
