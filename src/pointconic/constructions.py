"""Builders for the point-conic configurations this library ships.

Every builder but `product` returns a GeometricConfiguration that has
passed `analysis.audit`, its only gate for incidences: no builder re-tests
a flag, such as a Carnot closing face or a hexagon's symmetry. It checks
before the audit only what the audit cannot see: kinds (a degenerate conic
can hold every flag), failed fits (placeholder forms), a hexagon's
planarity in E^4 (lost in projection), draw quality (a poor draw can pass)
and `polygon_ring`'s meet count (its message names the fix).
Every builder and realizer makes its scene in one stacked step: it fits a
stack of forms, checks them in array passes and hands points, forms and
flags to `GeometricConfiguration._of`. Fits return forms only; a builder
classifies them only to name a kind, and the pencil kernel not at all.
Degeneracy, affine maps and 4-D projections are `geometry`'s. No `Conic`
is built on the way, apart from the transversal ellipse richter_gebert draws.
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
                       TOL_MERGE, _classify_forms, _conic_of, _degenerate,
                       _five_point_faults, _homogeneous, _norm,
                       _normalized_forms, _projected, _residuals,
                       affine_images, carnot_product, carnot_solve_sixth,
                       conic_forms_from_5_points, cross2,
                       line_conic_intersections, pencil_intersections)
from .incidence import IncidenceStructure, _rows, dual, has_biclique

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

_UNIT_CIRCLE = _normalized_forms(np.diag([1.0, 1.0, -1.0])[None])


def _ellipse_forms(centers, a: float, b: float, angles) -> np.ndarray:
    """The forms of the unit circle's images under x -> R(angle) diag(a, b)
    x + center for the centers (n, 2) and `angles` (n floats), maps built
    and checked by `geometry._homogeneous`, in one `affine_images` pass."""
    cos, sin = (np.array([f(t) for t in angles]) for f in (math.cos, math.sin))
    R = np.stack([cos, -sin, sin, cos], axis=1).reshape(-1, 2, 2)
    return affine_images(_homogeneous(np.matmul(R, np.diag([a, b])), centers),
                         _UNIT_CIRCLE)


def ellipse_conic(center, a: float, b: float, angle: float) -> Conic:
    """Ellipse with the given center, semi-axes and major-axis direction:
    the one-ellipse call of `_ellipse_forms`."""
    forms = _ellipse_forms(np.reshape(center, (1, 2)), a, b, [angle])
    return _conic_of(forms[0])


def _circle_forms(P: np.ndarray) -> np.ndarray:
    """Normalized forms of the circles x^2 + y^2 + dx + ey + f = 0 through
    the point triples P (B, 3, 2), by one stacked `det` and `solve`; squares
    of Python floats are libm ``pow``, as a numpy scalar's square is."""
    sq = np.array([x ** 2 + y ** 2 for x, y in P.reshape(-1, 2).tolist()])
    A = np.concatenate([P, np.ones((len(P), 3, 1))], axis=2)
    if (np.abs(np.linalg.det(A)) < 1e-12).any():
        raise GeometryError("collinear points have no circumscribed circle")
    M = np.tile(np.diag([1.0, 1.0, 0.0]), (len(P), 1, 1))
    M[:, 2] = M[:, :, 2] = (np.linalg.solve(A, -sq.reshape(-1, 3, 1))[..., 0]
                            * [0.5, 0.5, 1.0])
    return _normalized_forms(M)


def _flags_of(members: np.ndarray) -> np.ndarray:
    """Flags (point, block) of the point rows `members` (B, k) of B blocks."""
    return np.column_stack([members.ravel(),
                            np.arange(members.size) // members.shape[1]])


def translate_conics(forms: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The forms (n, 3, 3), or one form (3, 3), translated by the shifts
    (n, 2), in one stacked pass (`geometry.affine_images`)."""
    return affine_images(_homogeneous(np.eye(2), shifts), forms)


def _require_audit(G: GeometricConfiguration,
                   context: str) -> GeometricConfiguration:
    rep = analysis.audit(G)
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
    forms = _ellipse_forms(np.zeros((2, 2)), 0.6, 0.25, [0.0, math.pi / 2])
    pts, _ = pencil_intersections(forms, [(0, 1)])
    G = GeometricConfiguration._of(
        pts[0], forms, _flags_of(np.tile(np.arange(4), (2, 1))),
        tol=1e-9, provenance={"builder": "crossed_ellipses"})
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
    V = np.array(_regular_polygon(n))
    W = np.roll(V, -1, axis=0)
    forms = _ellipse_forms((V + W) / 2, 0.5 + elongation, minor, [
        math.atan2(y, x) for x, y in (W - V).tolist()])
    pairs = np.column_stack([np.arange(n), np.roll(np.arange(n), -1)])
    pts, counts = pencil_intersections(forms, pairs)
    if (counts != 4).any():
        k = int((counts != 4).argmax())
        raise ConstructionError(
            f"ellipses {k},{pairs[k, 1]} meet in {counts[k]} points, need 4; "
            f"adjust elongation/minor (got {elongation}, {minor})")
    G = GeometricConfiguration._of(
        pts.reshape(-1, 2), forms,
        _flags_of(np.repeat(pairs, 4, axis=0))[:, ::-1], tol=1e-9,
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
    forms, side, errors = _parallelogram_forms(
        np.array([A, B, C, D], float)[None], t)
    if errors[0]:
        raise GeometryError(errors[0])
    return _conic_of(forms[0]), _conic_of(forms[1]), list(side[0])


def _parallelogram_forms(Q: np.ndarray, t: float):
    """`parallelogram_ellipse_pair` of the parallelograms Q (F, 4, 2) in
    one pass: forms (2F, 3, 3) (AC, then BD, of each face), side points
    (F, 4, 2) and per face its first failed check's message or None (the
    parallelogram, then the two five-point sets). A bad `t` raises after
    the first face's parallelogram check. By central symmetry the AC
    ellipse passes through C and the BD one through D; no check is made
    here, and `qcube_48`'s audit tests both at 1e-8."""
    A, B, C, D = np.moveaxis(Q, 1, 0)
    scale = np.maximum(np.maximum(_norm(B - A), _norm(D - A)), 1e-300)
    skew = (_norm((A + C) - (B + D)) > 1e-10 * scale).tolist()
    if not 0.0 < t < 1.0:
        raise GeometryError("ABCD is not a parallelogram" if skew[0] else
                            "side parameter t must lie strictly in (0, 1)")
    side = Q + t * (np.roll(Q, -1, axis=1) - Q)
    sets = np.concatenate([np.repeat(side[:, None], 2, axis=1),
                           Q[:, :2, None]], axis=2).reshape(-1, 5, 2)
    fits = _five_point_faults(sets)
    # A failed set is fitted as a regular pentagon, a finite placeholder.
    sets[[bool(f) for f in fits]] = _regular_polygon(5)
    return conic_forms_from_5_points(sets), side, [
        "ABCD is not a parallelogram" if bad else ac or bd
        for bad, ac, bd in zip(skew, fits[::2], fits[1::2])]


def hypercube() -> Polytope4:
    """The 4-cube with unit edges centered at the origin."""
    V = np.array(list(np.ndindex(2, 2, 2, 2)), float) - 0.5
    edges = [(i, j) for i in range(16) for j in range(i + 1, 16)
             if np.sum(np.abs(V[i] - V[j])) == 1.0]
    faces = []
    for i, j in itertools.combinations(range(4), 2):
        k, m = (k for k in range(4) if k not in (i, j))
        for a, b in itertools.product((-0.5, 0.5), repeat=2):
            cell = [v for v in range(16) if V[v][k] == a and V[v][m] == b]
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
    """Run `build`, a function of a projection, over a deterministic seed
    sequence of `generic_projection`s, up to 32 of them.

    A fixed projection can happen to be near-parallel to one of a polytope's
    hexagon planes; walking the seed sequence keeps default builds both
    deterministic and generic. Builders pass only their projection step."""
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
    points = _projected(proj, np.vstack([poly.vertices,
                                         poly.edge_midpoints()]))
    faces = np.array(poly.faces2)
    forms, _, errors = _parallelogram_forms(points[faces], 0.5)
    kinds = _classify_forms(forms)
    for face, error, *pair in zip(poly.faces2, errors, kinds[::2],
                                  kinds[1::2]):
        gave = [kind for kind in pair if kind != "ellipse"]
        if error or gave:
            raise ConstructionError(f"non-generic projection: face {face}" + (
                f": {error}" if error else f" gave {gave[0]}"))
    # Point 16 + e is the midpoint of edge e; a face's conics pass through
    # its four edge midpoints and the vertices A, C or B, D.
    i, j = np.array(poly.edges).T
    edge = np.zeros((16, 16), np.int64)
    edge[i, j] = edge[j, i] = 16 + np.arange(len(i))
    mids = np.repeat(edge[faces, np.roll(faces, -1, axis=1)], 2, axis=0)
    G = GeometricConfiguration._of(
        points, forms, _flags_of(np.column_stack(
            [mids, faces[:, [0, 2, 1, 3]].reshape(-1, 2)])), tol=1e-8,
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


def _random_ellipse(rng) -> Conic:
    center = rng.uniform(-0.4, 0.4, size=2)
    a = rng.uniform(0.45, 0.95)
    b = rng.uniform(0.3, a)
    ang = rng.uniform(0, math.pi)
    return ellipse_conic(center, a, b, ang)


def _edge_point(rng, U, V, taken=None):
    """Random point on the line UV, clear of the endpoints and of `taken`."""
    def draw():
        s = rng.uniform(0.12, 0.88)
        p = U + s * (V - U)
        if taken is not None and np.linalg.norm(p - taken) <= 0.08 * \
                np.linalg.norm(V - U):
            raise ConstructionError("edge point too close to the taken one")
        return p
    return _retry(draw, 64, "generic edge point")


def _two_edge_points(rng, U, V) -> list[np.ndarray]:
    """Two free random points on the line UV, clear of each other."""
    p = _edge_point(rng, U, V)
    return [p, _edge_point(rng, U, V, taken=p)]


def _carnot_scene(edge_pts, faces, tol: float, provenance: dict,
                  context: str) -> GeometricConfiguration:
    """The audited scene of a Carnot construction. Edge e holds the point
    pair `edge_pts[e]`, which become points 2e and 2e + 1; face f's conic,
    fitted with all others in one call, passes through the first five
    points of its side edges `faces[f]` (Carnot order a, b, c) and is
    flagged on all six: the audit's flag check tests the sixth at `tol`."""
    points = np.reshape(edge_pts, (-1, 2))
    slots = (2 * np.asarray(faces)[:, :, None] + [0, 1]).reshape(-1, 6)
    forms = conic_forms_from_5_points(points[slots[:, :5]])
    if _degenerate(np.linalg.det(forms)).any():
        raise GeometryError("degenerate face conic")
    G = GeometricConfiguration._of(points, forms, _flags_of(slots), tol,
                                   provenance)
    return _require_audit(G, context)


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

    # Face ABC: six points cut from a random conic, on BC, CA and AB.
    pts6 = _retry(lambda: _sample_6_on_conic(_random_ellipse(rng), (A, B, C)),
                  64, "transversal conic for the first face")
    bc, ca, ab = pts6[0:2], pts6[2:4], pts6[4:6]

    # Face ABD (A, B, D): sides a=BD, b=DA, c=AB. AB known; place BD fully
    # and one DA point, solve the second DA point.
    bd = _two_edge_points(rng, B, D)
    da = [_edge_point(rng, D, A)]
    da.append(carnot_solve_sixth((A, B, D), bd + da + ab, side="b"))

    # Face ACD (A, C, D): sides a=CD, b=DA, c=AC. DA and AC known; place one
    # CD point, solve the other.
    cd = [_edge_point(rng, C, D)]
    cd.append(carnot_solve_sixth((A, C, D), cd + da + ca, side="a"))

    # Face BCD (B, C, D): sides a=CD, b=DB, c=BC. It closes automatically;
    # the audit tests its sixth point.
    closure = carnot_product((B, C, D), cd + bd + bc)

    # Edges AB, AC, AD, BC, BD, CD are 0-5; faces ABC, ABD, ACD, BCD.
    return _carnot_scene(
        [ab, ca, da, bc, bd, cd], [[3, 1, 0], [4, 2, 0], [5, 2, 1], [5, 4, 3]],
        1e-7, {"builder": "richter_gebert",
               "closure_residual": abs(closure - 1.0),
               "type": "(12_2,4_6)",
               "type_note": "also quoted as (12_6,4_3); the 24 flags "
                            "force (12_2,4_6)"},
        "richter_gebert")


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

    # Points on ring edge (v_i, v_{i+1}) and on the spokes (north, v_i) and
    # (south, v_i). Upper faces U_i = (north, v_i, v_{i+1}) have the sides
    # a = ring edge i, b = spoke i+1, c = spoke i.
    ring_pts, up_pts = [], [_two_edge_points(rng, north, ring[0])]
    for i in range(n):
        j = (i + 1) % n
        if j:
            up_pts.append(_two_edge_points(rng, north, ring[j]))
        r0 = _edge_point(rng, ring[i], ring[j])
        ring_pts.append([r0, carnot_solve_sixth(
            (north, ring[i], ring[j]), [r0] + up_pts[j] + up_pts[i], "a")])
    # Lower faces L_i = (south, v_i, v_{i+1}); ring points already fixed.
    lo_pts = [_two_edge_points(rng, south, ring[0])]
    for i in range(n - 1):
        p0 = _edge_point(rng, south, ring[i + 1])
        lo_pts.append([p0, carnot_solve_sixth(
            (south, ring[i], ring[i + 1]), ring_pts[i] + [p0] + lo_pts[i],
            "b")])
    # The last lower face is fully determined; the audit tests its closure.
    closure = abs(carnot_product((south, ring[-1], ring[0]),
                                 ring_pts[-1] + lo_pts[0] + lo_pts[-1]) - 1.0)

    all_pts = ring_pts + up_pts + lo_pts
    if np.max(np.abs(all_pts)) > 50:
        raise GeometryError("runaway solved point")
    # Edges: ring edge i is i, spoke (north, v_i) n + i, spoke (south, v_i)
    # 2n + i. Face (apex, v_i, v_j) has the sides (a, b, c) = (ring edge i,
    # spoke j, spoke i), so its slot order matches the canonical Carnot sides
    # (a, a, b, b, c, c) of the face triangle (apex, v_i, v_j).
    faces = [[i, off + (i + 1) % n, off + i]
             for i in range(n) for off in (n, 2 * n)]
    return _carnot_scene(
        all_pts, faces, 1e-6,
        {"builder": "dipyramid_carnot",
         "params": {"n": n},
         "max_closure_residual": closure,
         "face_triangles": [[apex, ring[i], ring[(i + 1) % n]]
                            for i in range(n) for apex in (north, south)],
         "face_points": [[2 * e + s for e in face for s in (0, 1)]
                         for face in faces]},
        f"dipyramid_carnot({n})")


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
        C2 = analysis._moved(C2, AffineMap2(R, np.zeros(2)),
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
    forms = translate_conics(
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
        pts, forms, flags, tol=max(C1.tol, C2.tol),
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
    # Vertex (i, j) has id i n + j; from it run a type A edge to (i+1, j)
    # and a type B edge to (i, j+1).
    ij = np.arange(m * n).reshape(m, n)
    a, b = np.roll(ij, -1, axis=0), np.roll(ij, -1, axis=1)
    edges = np.stack([ij, a, ij, b], axis=-1).reshape(-1, 2)
    faces = np.stack([ij, a, np.roll(a, -1, axis=1), b], axis=-1)
    return Polytope4(verts, edges.tolist(), faces.reshape(-1, 4).tolist())


def _hexagons_in_prisms(m: int, n: int) -> np.ndarray:
    """The 2mn inscribed hexagons, each a 6-cycle of midpoint ids (planar
    and centrally symmetric by construction), as a (2mn, 6) array.

    A midpoint's id is its edge's index in `prism_product(m, n)`: ("A", i,
    j), of edge (u_i u_{i+1}) x w_j, has id 2 (i n + j), and ("B", i, j),
    of u_i x (w_j w_{j+1}), the next id. First come the
    m-gonal prisms, one per n-gon edge j, with a hexagon pair per k < h =
    m/2: ("B", k, j), ("A", k, j+1), ("A", k+h-1, j+1), ("B", k+h, j),
    ("A", k+h, j), ("A", k-1, j), and its mirror image (k offsets 0, -1,
    h, h, h-1, 0); then the n-gonal prisms, one per m-gon edge i, with the
    roles of the two polygons, and of A and B, exchanged.
    """
    families = []
    # Per family, k runs around the p-gon of a prism and j over the q-gon.
    for p, q, swap in ((m, n, 0), (n, m, 1)):
        h = p // 2
        k = (np.arange(h)[:, None, None]
             + [[0, 0, h - 1, h, h, -1], [0, -1, h, h, h - 1, 0]]) % p
        j = (np.arange(q)[:, None, None, None] + [0, 1, 1, 0, 0, 0]) % q
        k, j = np.broadcast_arrays(k, j)
        rows, cols = (j, k) if swap else (k, j)
        families.append(2 * (rows * n + cols)
                        + (np.array([1, 0, 0, 1, 0, 0]) ^ swap))
    return np.concatenate(families, axis=None).reshape(-1, 6)


def _hexagon_configuration(points4: np.ndarray, hexagons: np.ndarray,
                           provenance: dict, proj: Projection4to2 | None
                           ) -> GeometricConfiguration:
    """Project hexagon vertex sets in E^4 and circumscribe planar conics,
    flagged at tol 1e-8.

    `hexagons` is an (H, 6) index array into `points4` (N, 4) of planar,
    centrally symmetric hexagons. Their centers, planarity, circumradii and
    flags are found once; a projection is then one array pass (project,
    `geometry.central_conic_forms`, normalize, classify, audit), the only
    step retried over the default projections when `proj` is None. A
    rejected projection raises the error of the first failing hexagon and
    its first failing check: planarity, singular central system, not an
    ellipse. The audit tests central symmetry: each conic passes through the
    first three vertices and their reflections in the hexagon's centroid.
    """
    rel = points4[hexagons]
    c4 = rel.mean(axis=1)
    rel -= c4[:, None]
    warped = np.linalg.svd(rel, compute_uv=False)[:, 2] > 1e-10
    radii = np.linalg.norm(rel, axis=2)
    provenance = {**provenance, "circumradii_4d": (
        radii.min(axis=1).tolist(), radii.max(axis=1).tolist())}
    flags = _flags_of(hexagons)

    def build(proj: Projection4to2) -> GeometricConfiguration:
        pts2 = _projected(proj, points4)
        forms, singular = geometry.central_conic_forms(
            _projected(proj, c4), pts2[hexagons[:, :3]])
        forms = _normalized_forms(forms)
        kinds = _classify_forms(forms)
        failed = np.array([warped, singular,
                           [k != "ellipse" for k in kinds]])
        if failed.any():
            h = int(failed.any(axis=0).argmax())
            raise [ConstructionError("hexagon is not planar"),
                   GeometryError("degenerate hexagon: singular central "
                                 "system"),
                   ConstructionError(f"non-generic projection: hexagon gave "
                                     f"{kinds[h]}")][failed[:, h].argmax()]
        G = GeometricConfiguration._of(pts2, forms, flags, 1e-8, provenance)
        return _require_audit(G, provenance.get("builder", "hexagons"))

    return _with_default_projection(build) if proj is None else build(proj)


def pmn(m: int, n: int,
        proj: Projection4to2 | None = None) -> GeometricConfiguration:
    """The ((2mn)_6) configuration from the prism product of two even
    regular polygons: points are projected edge midpoints, conics are the
    circumscribed ellipses of the 2mn inscribed hexagons.

    With `proj` None, only the projection step is retried; the prism
    product, its midpoints and the hexagons are built once."""
    if m < 4 or n < 4 or m % 2 or n % 2:
        raise ConstructionError("pmn needs even m, n >= 4")
    return _hexagon_configuration(
        prism_product(m, n).edge_midpoints(), _hexagons_in_prisms(m, n),
        {"builder": "pmn", "params": {"m": m, "n": n}}, proj)


def cell24(proj: Projection4to2 | None = None) -> GeometricConfiguration:
    """The (96_6) configuration from the regular 24-cell: 96 projected edge
    midpoints on the projections of 96 inscribed regular hexagons (circles
    of radius sqrt(2)/2 before projection).

    With `proj` None, only the projection step is retried; the 24-cell,
    its midpoints and the hexagons are built once."""
    poly = cell24_polytope()
    cells = np.array(poly.facets)
    W = poly.vertices[cells]
    # Axes: the antipodal vertex pairs of each octahedral cell, for all
    # cells in one comparison, each pair in the order of its first vertex.
    close = (np.isclose(W[:, :, None] + W[:, None, :],
                        2 * W.mean(axis=1)[:, None, None]).all(axis=3)
             & ~np.eye(6, dtype=bool))
    partner = close.argmax(axis=2)
    axes = np.stack([cells, np.take_along_axis(cells, partner, 1)], axis=-1)[
        partner > np.arange(6)].reshape(-1, 3, 2)
    # One hexagon per opposite-face pair: sign patterns (sb, sc) up to flip.
    sb, sc = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])
    cycles = np.stack(np.broadcast_arrays(
        axes[:, 0, :1], axes[:, 1, 1 - sb], axes[:, 2, sc],
        axes[:, 0, 1:], axes[:, 1, sb], axes[:, 2, 1 - sc]), axis=-1)
    i, j = np.array(poly.edges).T
    edge = np.zeros((len(poly.vertices),) * 2, np.int64)
    edge[i, j] = edge[j, i] = np.arange(len(i))
    hexagons = edge[cycles, np.roll(cycles, -1, axis=-1)].reshape(-1, 6)
    return _hexagon_configuration(poly.edge_midpoints(), hexagons,
                                  {"builder": "cell24"}, proj)


def cell24_polytope() -> Polytope4:
    """24-cell with vertices at all permutations of (+-1, +-1, 0, 0);
    facets list the 6-vertex octahedral cells."""
    V = np.zeros((24, 4))
    for k, ((i, j), (si, sj)) in enumerate(itertools.product(
            itertools.combinations(range(4), 2),
            itertools.product((1, -1), repeat=2))):
        V[k, i], V[k, j] = si, sj
    near = np.abs(((V[:, None] - V) ** 2).sum(axis=2) - 2.0) < 1e-9
    edges = np.argwhere(np.triu(near, 1))
    # Cell centers: +-e_k, then (+-1/2, +-1/2, +-1/2, +-1/2); each cell is
    # the six vertices furthest along its center.
    centers = np.vstack([np.kron(np.eye(4), [[1], [-1]]),
                         0.5 - np.array(list(np.ndindex(2, 2, 2, 2)))])
    dots = V @ centers.T
    cells = dots > dots.max(axis=0) - 1e-9
    facets = np.nonzero(cells.T)[1].reshape(-1, 6)
    return Polytope4(V, edges.tolist(), facets=facets.tolist())


# ---------------------------------------------------------------------------
# Generic realizers
# ---------------------------------------------------------------------------

def _realize(C: IncidenceStructure, seed: int, fit, builder: str,
             what: str) -> GeometricConfiguration:
    """Points drawn in the unit square and the normalized forms `fit(rng,
    pts)` of the blocks, audited; redrawn up to RETRY_BUDGET times."""
    rng = np.random.default_rng(seed)

    def attempt():
        pts = rng.uniform(0, 1, size=(C.num_points, 2))
        forms = fit(rng, pts)
        G = GeometricConfiguration._of(pts, forms, C.flag_array, 1e-8,
                                       {"builder": builder, "seed": seed})
        return _require_audit(G, what)
    return _retry(attempt, RETRY_BUDGET, what)


def realize_lineal_by_circles(C: IncidenceStructure,
                              seed: int = 0) -> GeometricConfiguration:
    """Realize a lineal 3-configuration by points in general position and
    the circles through its triples."""
    blocks = _rows(dual(C))
    if any(len(members) != 3 for members in blocks):
        raise ConstructionError("all block sizes must be 3")
    if has_biclique(C, 2, 2):
        raise ConstructionError("structure is not lineal")
    triples = np.array(blocks, dtype=np.int64).reshape(-1, 3)
    return _realize(C, seed, lambda rng, pts: _circle_forms(pts[triples]),
                    "realize_lineal_by_circles", "circle realization")


def realize_by_conics(C: IncidenceStructure,
                      seed: int = 0) -> GeometricConfiguration:
    """Realize any conical structure with block sizes <= 5 by generic points
    and fitted conics (blocks smaller than 5 are padded with auxiliary
    generic points that are not part of the configuration)."""
    if has_biclique(C, 5, 2):
        raise ConstructionError("structure has a K_{5,2}; not conical")
    blocks = _rows(dual(C))
    if any(len(members) > 5 for members in blocks):
        raise ConstructionError("block sizes must be at most 5")
    return _realize(C, seed, lambda rng, pts: np.reshape(
        [_conic_through_padded(rng, pts, m) for m in blocks], (-1, 3, 3)),
        "realize_by_conics", "conic realization")


def _conic_through_padded(rng, pts, members) -> np.ndarray:
    """Form of a nondegenerate conic through the block's points, padded to
    five with fresh generic points; rejects conics grazing non-member
    points."""
    others = np.delete(pts, members, axis=0)

    def attempt():
        aux = rng.uniform(-0.2, 1.2, size=(5 - len(members), 2))
        forms = conic_forms_from_5_points(np.vstack([pts[members], aux])[None])
        if _degenerate(np.linalg.det(forms)).any():
            raise GeometryError("degenerate padded conic")
        if (_residuals(others, forms[0]) <= 1e-7).any():
            raise GeometryError("padded conic grazes a non-member point")
        return forms[0]
    return _retry(attempt, 64, "padded conic fit")
