"""Audits, intersection types and isometry checks for realized configurations."""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import geometry
from .configuration import GeometricConfiguration
from .geometry import (AffineMap2, GeometryError, TOL_MERGE, apply_affine,
                       apply_affine_point, conic_conic_intersections,
                       dilation_to_circle, ellipse_parameters)
from .incidence import (IncidenceStructure, Signature, block_pair_counts,
                        signature)


@dataclass(frozen=True)
class AuditReport:
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


def _residual_matrix(G: GeometricConfiguration, conic_idx) -> np.ndarray:
    """|p^T A p| for every point against the selected conics."""
    H = _homogenized(G.points)
    out = np.empty((len(conic_idx), len(H)))
    for row, b in enumerate(conic_idx):
        M = G.conics[b].form
        out[row] = np.abs(np.einsum("ni,ij,nj->n", H, M, H))
    return out


def _duplicate_pairs(points: np.ndarray, tol: float) -> list:
    """Grid-hash pass; O(n) for generic data, exact within the tolerance."""
    cells = defaultdict(list)
    inv = 1.0 / max(tol, 1e-300)
    for i, (x, y) in enumerate(points):
        cells[(int(np.floor(x * inv)), int(np.floor(y * inv)))].append(i)
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
    for i, c in enumerate(conics):
        groups[tuple(np.round(c.form.reshape(-1), 5))].append(i)
    out = []
    for members in groups.values():
        for i, j in combinations(members, 2):
            if conics[i].same_as(conics[j], tol):
                out.append((i, j))
    return sorted(out)


def audit(G: GeometricConfiguration, spurious_scan: bool = True,
          flag_sample: int | None = None, rng=None) -> AuditReport:
    """Check every claimed incidence and scan for everything unclaimed.

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
    spurious = []
    borderline = []
    if spurious_scan:
        flag_set = G.flags
        chunk = max(1, int(2e6 // max(len(H), 1)))
        for start in range(0, G.num_conics, chunk):
            rows = range(start, min(start + chunk, G.num_conics))
            R = _residual_matrix(G, rows)
            close_b, close_p = np.nonzero(R <= tol)
            for rb, p in zip(close_b, close_p):
                b = start + rb
                if (p, b) in flag_set:
                    continue
                if R[rb, p] <= 0.1 * tol:
                    spurious.append((int(p), int(b)))
                else:
                    borderline.append((int(p), int(b)))
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
    configuration points.
    """
    config = intersection_type(G).per_pair
    counts = {}
    excess = []
    for i, j in combinations(range(G.num_conics), 2):
        pts = conic_conic_intersections(G.conics[i], G.conics[j])
        counts[(i, j)] = len(pts)
        if len(pts) > config.get((i, j), 0):
            excess.append((i, j))
    return {"counts": counts, "excess": tuple(excess)}


AXIS_TOL = 1e-8


def isometry_check(G: GeometricConfiguration) -> str:
    """One of "not_isometric", "isometric", "strongly_isometric"."""
    if G.num_conics == 0:
        return "strongly_isometric"
    params = []
    for c in G.conics:
        if c.kind != "ellipse":
            raise GeometryError(f"isometry check requires ellipses, got {c.kind}")
        _, a, b, ang = ellipse_parameters(c)
        params.append((a, b, ang))
    aa = np.array([p[0] for p in params])
    bb = np.array([p[1] for p in params])
    if np.ptp(aa) > AXIS_TOL or np.ptp(bb) > AXIS_TOL:
        return "not_isometric"
    if np.all(aa - bb <= AXIS_TOL):
        return "strongly_isometric"  # congruent circles: translations suffice
    angles = np.array([p[2] for p in params])
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
    conics = tuple(apply_affine(M, c) for c in G.conics)
    prov = dict(G.provenance)
    prov["transform"] = "dilation-to-circles"
    return GeometricConfiguration(pts, conics, G.flags, G.tol, prov)
