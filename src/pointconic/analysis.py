"""Audits, intersection types and isometry checks for realized configurations."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .configuration import GeometricConfiguration
from .geometry import (GeometryError, TOL_COINCIDENT, TOL_MERGE, _coincident,
                       _conic_of, _residuals, affine_images,
                       apply_affine_points, dilation_to_circle,
                       ellipse_parameters_stack, forms_coeffs,
                       pencil_intersections)
from .incidence import (IncidenceStructure, Signature, _block_pairs,
                        _near_pairs, _pair_dict, signature)


@dataclass(frozen=True)
class AuditReport:
    """What `audit` found.

    `max_flag_residual` and `missing_incidences` judge every flagged pair,
    none skipped, by the algebraic residual |h^T A h| of the unit-norm form
    A at the unit-norm homogenized point h, against the configuration's
    `tol`; `tol` bounds these flag residuals and nothing else.
    `spurious_incidences` and `borderline_incidences` are unflagged (point,
    conic) pairs judged by their Sampson distance relative to the diameter
    of the point set: at most `SPURIOUS_REL` makes a pair spurious, at most
    10 * `SPURIOUS_REL` borderline. Only spurious pairs fail the audit.
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
    """`types`, the set of shared-point counts of the block pairs that
    meet, and `per_pair`, {(i, j): count} for i < j, built on first read
    from the kept sorted keys i * num_blocks + j and counts."""

    types: frozenset
    keys: np.ndarray = field(compare=False, repr=False)
    counts: np.ndarray = field(compare=False, repr=False)
    num_blocks: int = field(compare=False, repr=False)

    @cached_property
    def per_pair(self) -> dict:
        return _pair_dict(self.keys, self.counts, self.num_blocks)


SPURIOUS_REL = 1e-9   # relative Sampson distance of a spurious incidence
# Point-conic pairs per chunk of the spurious scan: at 2^16 a chunk's f, |f|
# and mask stay in cache. The seed-0 Minkowski cube scans in 49-58 ms, against
# 95-99 ms at 2^20 and 69-82 ms at 2^14 (medians of 7, 2-core VM).
_SCAN_ELEMENTS = 1 << 16


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
    A = T.T @ G.forms @ T
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
    coeffs = forms_coeffs(A)
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
    # Flags are sorted by (point, conic), so their keys p * B + b are too.
    F = G.to_incidence_structure().flag_array
    keys, k = F[:, 0] * G.num_conics + F[:, 1], p * G.num_conics + b
    flagged = np.append(keys, -1)[np.searchsorted(keys, k)] == k
    near = (dist <= band) & ~flagged
    spurious = near & (dist <= SPURIOUS_REL)
    return tuple([*zip(p[m].tolist(), b[m].tolist())]
                 for m in (spurious, near & ~spurious))


# Fixed unit directions, away from the axes and from the symmetries of the
# builders' scenes, onto which points and flattened forms are projected.
_POINT_AXIS = np.array([np.cos(0.3), np.sin(0.3)])
_FORM_AXIS = np.sqrt(np.arange(2.0, 11.0))
_FORM_AXIS /= np.linalg.norm(_FORM_AXIS)


def _duplicate_pairs(points: np.ndarray, tol: float) -> list:
    """Sorted pairs (i, j), i < j, of points closer than `tol`.

    For a unit vector u, |u.(p - q)| <= |p - q|, so such a pair projects
    to within `tol` on u, up to the rounding of the projections, which the
    window covers. Neighbours in the sorted projection are the candidates;
    O(n log n) for generic data, exact within the tolerance."""
    if len(points) < 2:
        return []
    window = tol + 1e-14 * float(np.abs(points).max())
    a, b = _near_pairs(points @ _POINT_AXIS, window)
    close = np.linalg.norm(points[a] - points[b], axis=1) < tol
    a, b = a[close], b[close]
    return sorted(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


def _coincident_pairs(forms: np.ndarray) -> list:
    """Sorted pairs (i, j), i < j, of a stack of normalized forms (B, 3, 3)
    that `Conic.same_as` calls coincident.

    same_as compares the unit-norm forms F and G by |F - G| and |F + G|.
    For a unit vector u, |u.(F -+ G)| <= |F -+ G|, so the projections of
    every form and its negative place such a pair within `TOL_COINCIDENT`;
    the window of twice that covers their rounding. same_as's test,
    stacked, decides the candidates."""
    B = len(forms)
    if B < 2:
        return []
    s = forms.reshape(-1, 9) @ _FORM_AXIS
    a, b = _near_pairs(np.concatenate([s, -s]), 2 * TOL_COINCIDENT)
    a, b = a % B, b % B
    keys = np.sort(np.minimum(a, b) * B + np.maximum(a, b))
    i, j = np.divmod(keys[np.diff(keys, prepend=-1) > 0], B)
    keep = (i != j) & _coincident(forms[i], forms[j], TOL_COINCIDENT)
    return list(zip(i[keep].tolist(), j[keep].tolist()))


def audit(G: GeometricConfiguration) -> AuditReport:
    """Check every claimed incidence and scan for everything unclaimed.

    Every flagged pair must have an algebraic residual of at most `G.tol`
    (see `AuditReport`). Their residuals come from one stacked pass
    (`geometry._residuals`, as `Conic.residual` computes one) over the
    configuration's sorted flag array, and `missing_incidences` lists the
    failing flags in that order. The spurious scan tests every unflagged
    pair by its Sampson distance relative to the diameter of the point set,
    so its verdict does not depend on the scene's position or size.
    """
    tol = G.tol
    C = G.to_incidence_structure()
    F = C.flag_array
    res = _residuals(G.points[F[:, 0]], G.forms[F[:, 1]])
    max_res = float(res.max(initial=0.0))
    missing = list(map(tuple, F[res > tol].tolist()))
    spurious, borderline = _spurious_scan(G)
    duplicates = _duplicate_pairs(G.points, TOL_MERGE)
    coincident = _coincident_pairs(G.forms)
    sig = signature(C)
    passed = (not spurious and not missing and not duplicates
              and not coincident and max_res <= tol)
    return AuditReport(sig, max_res, tuple(spurious), tuple(missing),
                       tuple(duplicates), tuple(coincident), passed,
                       tuple(sorted(borderline)))


def intersection_type(G: GeometricConfiguration) -> IntersectionType:
    return intersection_type_combinatorial(G.to_incidence_structure())


def intersection_type_combinatorial(C: IncidenceStructure) -> IntersectionType:
    keys, counts = _block_pairs(C.flag_array, C.num_blocks)
    return IntersectionType(frozenset(counts.tolist()), keys, counts,
                            C.num_blocks)


def geometric_meets(G: GeometricConfiguration) -> dict:
    """Actual conic-conic intersection counts of every conic pair.

    Returns {"counts": {(i, j): n}, "excess": pairs}. "counts" holds all
    C(B, 2) pairs (i < j), disjoint ones with n = 0; "excess" is the sorted
    tuple of pairs that meet in more points than they share as
    configuration points. All pairs go through one call of the batched
    pencil kernel `geometry.pencil_intersections`, which raises on
    degenerate or coincident conics and on more than four distinct points.
    The excess pairs are one comparison with `intersection_type`'s counts.
    """
    B = G.num_conics
    i, j = np.triu_indices(B, 1)
    _, n = pencil_intersections(G.forms, np.column_stack([i, j]))
    # The keys i * B + j of the pairs ascend and hold every shared key.
    t = intersection_type(G)
    shared = np.zeros_like(n)
    shared[np.searchsorted(i * B + j, t.keys)] = t.counts
    excess = n > shared
    return {"counts": dict(zip(zip(i.tolist(), j.tolist()), n.tolist())),
            "excess": tuple(zip(i[excess].tolist(), j[excess].tolist()))}


AXIS_TOL = 1e-8


def isometry_check(G: GeometricConfiguration) -> str:
    """One of "not_isometric", "isometric", "strongly_isometric"."""
    if G.num_conics == 0:
        return "strongly_isometric"
    for kind in G.kinds:
        if kind != "ellipse":
            raise GeometryError(f"isometry check requires ellipses, got {kind}")
    _, aa, bb, angles = ellipse_parameters_stack(G.forms)
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
    """Map a strongly isometric family to congruent circles by one dilation;
    a scene with no conics comes back as it is."""
    verdict = isometry_check(G)
    if verdict != "strongly_isometric":
        raise GeometryError(
            f"requires a strongly isometric configuration, got {verdict}")
    points, forms = G.points, G.forms
    if G.num_conics:
        M = dilation_to_circle(_conic_of(G.forms[0]))
        points = apply_affine_points(M, points)
        forms = affine_images(M.homogeneous(), forms)
    return GeometricConfiguration._of(
        points, forms, G.to_incidence_structure().flag_array, G.tol,
        {**G.provenance, "transform": "dilation-to-circles"})
