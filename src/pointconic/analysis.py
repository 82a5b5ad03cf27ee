"""Audits, intersection types and isometry checks for realized configurations."""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import geometry
from .configuration import GeometricConfiguration
from .geometry import (GeometryError, TOL_MERGE, affine_images,
                       apply_affine_point, dilation_to_circle,
                       ellipse_parameters_stack, pencil_intersections)
from .incidence import (IncidenceStructure, Signature, block_pair_counts,
                        signature)


@dataclass(frozen=True)
class AuditReport:
    """What `audit` found.

    `max_flag_residual` and `missing_incidences` judge the flagged pairs by
    the algebraic residual |h^T A h| of the unit-norm form A at the
    unit-norm homogenized point h, against the configuration's `tol`; `tol`
    bounds these flag residuals and nothing else. `spurious_incidences` and
    `borderline_incidences` are unflagged (point, conic) pairs judged by
    their Sampson distance relative to the diameter of the point set: at
    most `SPURIOUS_REL` makes a pair spurious, at most 10 * `SPURIOUS_REL`
    borderline. Only spurious pairs fail the audit.
    """

    signature: Signature
    max_flag_residual: float
    spurious_incidences: tuple
    missing_incidences: tuple
    duplicate_points: tuple
    coincident_conics: tuple
    passed: bool
    borderline_incidences: tuple = ()


@dataclass(frozen=True)
class IntersectionType:
    types: frozenset
    per_pair: dict = field(compare=False)


def _homogenized(points: np.ndarray) -> np.ndarray:
    H = np.column_stack([points, np.ones(len(points))])
    return H / np.linalg.norm(H, axis=1, keepdims=True)


SPURIOUS_REL = 1e-9   # relative Sampson distance of a spurious incidence
_SCAN_ELEMENTS = 1 << 20  # point-conic pairs per chunk of the spurious scan


def _normalized_scene(G: GeometricConfiguration):
    """Points and unit-norm forms in coordinates where |q| <= 1.

    The map normalizes as Hartley does (TPAMI 1997), by the centroid c and
    the bounding-box diagonal D: p = c + D q. Each form A becomes T^T A T for
    the same map T, renormalized.
    """
    P = G.points
    c = P.mean(axis=0)
    D = float(np.hypot(*np.ptp(P, axis=0))) or 1.0
    T = np.array([[D, 0.0, c[0]], [0.0, D, c[1]], [0.0, 0.0, 1.0]])
    A = T.T @ np.stack([cn.form for cn in G.conics]) @ T
    A /= np.linalg.norm(A, axis=(1, 2), keepdims=True)
    return (P - c) / D, A


def _spurious_scan(G: GeometricConfiguration) -> tuple[list, list]:
    """Unflagged pairs within 10 * SPURIOUS_REL of their conic, split into
    (spurious, borderline) by relative Sampson distance |f| / |grad f|.

    One GEMM per chunk gives f for every pair. On the normalized scene
    |grad f| / 2 = |A[:2] h| <= |A| |h| <= sqrt(2), so a pair within
    `band` has |f| <= 2 sqrt(2) band; the prefilter keeps |f| <= 3 band,
    which covers that bound and its rounding, and the gradient is formed
    only for the few pairs that pass.
    """
    if G.num_points == 0 or G.num_conics == 0:
        return [], []
    Q, A = _normalized_scene(G)
    x, y = Q[:, 0], Q[:, 1]
    monomials = np.stack([x * x, x * y, y * y, x, y, np.ones(len(Q))])
    coeffs = np.column_stack([A[:, 0, 0], 2 * A[:, 0, 1], A[:, 1, 1],
                              2 * A[:, 0, 2], 2 * A[:, 1, 2], A[:, 2, 2]])
    band = 10 * SPURIOUS_REL
    chunk = max(1, _SCAN_ELEMENTS // len(Q))
    hits = []
    for start in range(0, G.num_conics, chunk):
        f = (coeffs[start:start + chunk] @ monomials).ravel()
        k = np.flatnonzero(np.abs(f) <= 3 * band)
        hits.append((k + start * len(Q), f[k]))
    k, f = (np.concatenate(v) for v in zip(*hits))
    b, p = np.divmod(k, len(Q))
    h = np.column_stack([Q[p], np.ones(len(p))])
    grad = 2 * np.linalg.norm(np.einsum("nij,nj->ni", A[b, :2], h), axis=1)
    dist = np.abs(f) / np.maximum(grad, np.finfo(float).tiny)
    spurious, borderline = [], []
    for bb, pp, d in zip(b.tolist(), p.tolist(), dist.tolist()):
        if d <= band and (pp, bb) not in G.flags:
            (spurious if d <= SPURIOUS_REL else borderline).append((pp, bb))
    return spurious, borderline


def _duplicate_pairs(points: np.ndarray, tol: float) -> list:
    """Grid-hash pass; O(n) for generic data, exact within the tolerance."""
    cells = defaultdict(list)
    inv = 1.0 / max(tol, 1e-300)
    for i, (x, y) in enumerate(np.floor(points * inv).tolist()):
        cells[(int(x), int(y))].append(i)
    dupes = []
    for (cx, cy), members in cells.items():
        neigh = []
        for dx in (0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy < 0:
                    continue
                neigh.extend(cells.get((cx + dx, cy + dy), ()))
        for i in members:
            for j in neigh:
                if j > i and np.linalg.norm(points[i] - points[j]) < tol:
                    dupes.append((i, j))
    return sorted(set(dupes))


def _coincident_pairs(conics, tol: float = 1e-9) -> list:
    groups = defaultdict(list)
    forms = np.array([c.form for c in conics]).reshape(-1, 9)
    for i, key in enumerate(np.round(forms, 5).tolist()):
        groups[tuple(key)].append(i)
    out = []
    for members in groups.values():
        for i, j in combinations(members, 2):
            if conics[i].same_as(conics[j], tol):
                out.append((i, j))
    return sorted(out)


def audit(G: GeometricConfiguration, spurious_scan: bool = True,
          flag_sample: int | None = None, rng=None) -> AuditReport:
    """Check every claimed incidence and scan for everything unclaimed.

    Flagged pairs must have an algebraic residual of at most `G.tol` (see
    `AuditReport`). The spurious scan tests every unflagged pair by its
    Sampson distance relative to the diameter of the point set, so its
    verdict does not depend on the scene's position or size.
    `flag_sample` limits the flag-residual check to a random subset (for
    very large products); `spurious_scan=False` skips the exhaustive
    point-times-conic pass. Both defaults give the full audit.
    """
    tol = G.tol
    flags = sorted(G.flags)
    if flag_sample is not None and flag_sample < len(flags):
        rng = rng or np.random.default_rng(0)
        idx = rng.choice(len(flags), size=flag_sample, replace=False)
        checked = [flags[i] for i in idx]
    else:
        checked = flags
    H = _homogenized(G.points)
    max_res = 0.0
    missing = []
    for (p, b) in checked:
        r = float(abs(H[p] @ G.conics[b].form @ H[p]))
        max_res = max(max_res, r)
        if r > tol:
            missing.append((p, b))
    spurious, borderline = _spurious_scan(G) if spurious_scan else ([], [])
    duplicates = _duplicate_pairs(G.points, TOL_MERGE)
    coincident = _coincident_pairs(G.conics)
    sig = signature(G.to_incidence_structure())
    passed = (not spurious and not missing and not duplicates
              and not coincident and max_res <= tol)
    return AuditReport(sig, max_res, tuple(spurious), tuple(missing),
                       tuple(duplicates), tuple(coincident), passed,
                       tuple(sorted(borderline)))


def intersection_type(G: GeometricConfiguration) -> IntersectionType:
    return intersection_type_combinatorial(G.to_incidence_structure())


def intersection_type_combinatorial(C: IncidenceStructure) -> IntersectionType:
    per_pair = block_pair_counts(C)
    return IntersectionType(frozenset(per_pair.values()), per_pair)


def geometric_meets(G: GeometricConfiguration) -> dict:
    """Actual conic-conic intersection counts of every conic pair.

    Returns {"counts": {(i, j): n}, "excess": pairs}. "counts" holds all
    C(B, 2) pairs (i < j), disjoint ones with n = 0; "excess" is the sorted
    tuple of pairs that meet in more points than they share as
    configuration points. All pairs go through the batched pencil kernel
    `geometry.pencil_intersections`: it checks every pair for degenerate
    or coincident conics before solving any, solves them in fixed-size
    chunks, and raises when a pair gives more than four distinct points.
    """
    config = intersection_type(G).per_pair
    pairs = list(combinations(range(G.num_conics), 2))
    _, n = pencil_intersections(G.conics, pairs)
    counts = dict(zip(pairs, n.tolist()))
    excess = tuple(p for p in pairs if counts[p] > config.get(p, 0))
    return {"counts": counts, "excess": excess}


AXIS_TOL = 1e-8


def isometry_check(G: GeometricConfiguration) -> str:
    """One of "not_isometric", "isometric", "strongly_isometric"."""
    if G.num_conics == 0:
        return "strongly_isometric"
    for c in G.conics:
        if c.kind != "ellipse":
            raise GeometryError(f"isometry check requires ellipses, got {c.kind}")
    _, aa, bb, angles = ellipse_parameters_stack([c.form for c in G.conics])
    if np.ptp(aa) > AXIS_TOL or np.ptp(bb) > AXIS_TOL:
        return "not_isometric"
    if np.all(aa - bb <= AXIS_TOL):
        return "strongly_isometric"  # congruent circles: translations suffice
    angles = np.array(angles)
    rel = np.mod(angles - angles[0] + np.pi / 2, np.pi) - np.pi / 2
    if np.max(np.abs(rel)) <= AXIS_TOL:
        return "strongly_isometric"
    return "isometric"


def strongly_isometric_to_circles(
        G: GeometricConfiguration) -> GeometricConfiguration:
    """Map a strongly isometric family to congruent circles by one dilation."""
    verdict = isometry_check(G)
    if verdict != "strongly_isometric":
        raise GeometryError(
            f"requires a strongly isometric configuration, got {verdict}")
    M = dilation_to_circle(G.conics[0])
    pts = np.array([apply_affine_point(M, p) for p in G.points]) \
        if G.num_points else np.zeros((0, 2))
    conics = affine_images(M.homogeneous(), [c.form for c in G.conics])
    prov = dict(G.provenance)
    prov["transform"] = "dilation-to-circles"
    return GeometricConfiguration(pts, conics, G.flags, G.tol, prov)
