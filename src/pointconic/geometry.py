"""Planar conic geometry kernel.

Conics are real symmetric 3x3 homogeneous forms, stored with unit Frobenius
norm and the sign fixed so the first nonzero entry (row-major) is positive.
All tolerances in this module are quoted against that normalization, with
configuration data living in roughly unit-scale scenes.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

# Default tolerances (see module docstring for the normalization they assume).
TOL_INCIDENCE = 1e-8    # default point-on-conic tolerance
TOL_MERGE = 1e-7        # distance below which two points are "the same"
TOL_COINCIDENT = 1e-9   # form distance below which two conics are "the same"
DEG_EPS = 1e-10         # determinant threshold for degeneracy decisions
COND_WARN = 1e12        # design-matrix condition number warning threshold
_NORM_MIN = math.sqrt(np.finfo(float).tiny)  # squares below it underflow


class GeometryError(ValueError):
    """Raised when a geometric precondition is violated."""


# ---------------------------------------------------------------------------
# Conics
# ---------------------------------------------------------------------------

KINDS = ("ellipse", "parabola", "hyperbola", "pair-of-lines", "double-line",
         "point", "empty")
DEGENERATE_KINDS = ("pair-of-lines", "double-line", "point")


@dataclass(frozen=True)
class Conic:
    """A conic as a normalized symmetric 3x3 form, which is all it stores.

    Construction is the one-form call of the stacked `_normalized_forms`;
    the form is a read-only view of that stack. `kind` is the one-form call
    of `_classify_forms`, made on first read."""

    form: np.ndarray

    def __post_init__(self):
        M = _normalized_forms(np.asarray(self.form, dtype=float)
                              .reshape(1, 3, 3))
        object.__setattr__(self, "form", M[0])

    @cached_property
    def kind(self) -> str:
        return _classify_forms(self.form[None])[0]

    @classmethod
    def from_coeffs(cls, a, b, c, d, e, f) -> "Conic":
        """Conic from a*x^2 + b*xy + c*y^2 + d*xz + e*yz + f*z^2."""
        return cls(np.array([[a, b / 2, d / 2],
                             [b / 2, c, e / 2],
                             [d / 2, e / 2, f]]))

    def coeffs(self) -> tuple[float, ...]:
        return tuple(forms_coeffs(self.form)[0])

    def residual(self, p) -> float:
        """|p^T A p| for the unit-norm homogenization of the affine point."""
        return float(_residuals(np.array([[p[0], p[1]]], dtype=float),
                                self.form)[0])

    def is_degenerate(self) -> bool:
        return self.kind in DEGENERATE_KINDS

    def same_as(self, other: "Conic", tol: float = TOL_COINCIDENT) -> bool:
        """Proportionality test on the normalized forms."""
        return bool(_coincident(self.form, other.form, tol)[0])

    def __eq__(self, other):
        return isinstance(other, Conic) and np.array_equal(self.form,
                                                           other.form)

    def __hash__(self):
        # Equal forms may differ in the signs of their zeros; adding 0.0
        # makes every -0.0 a +0.0, so equal conics hash alike.
        return hash((self.form + 0.0).tobytes())


# Row-major 3x3 form entries as (coefficient index, scale): a, b/2, d/2, ...
_FORM_FROM_COEFFS = np.array([0, 1, 3, 1, 2, 4, 3, 4, 5])
_FORM_SCALE = np.array([1, .5, .5, .5, 1, .5, .5, .5, 1])
# Coefficients as (row-major form entry, scale): a = A00, b = 2 A01, ...
_COEFFS_FROM_FORM = np.array([0, 1, 4, 2, 5, 8])
_COEFFS_SCALE = np.array([1., 2, 1, 2, 2, 1])


def forms_coeffs(forms) -> np.ndarray:
    """`Conic.coeffs` of a stack of forms (B, 3, 3), as a (B, 6) array."""
    M = np.asarray(forms, dtype=float).reshape(-1, 9)
    return M[:, _COEFFS_FROM_FORM] * _COEFFS_SCALE


def conics_from_normalized_coeffs(coeffs) -> np.ndarray:
    """The read-only (B, 3, 3) stack of forms of a (B, 6) array of
    coefficients of already-normalized forms.

    Skips renormalization so that serialized conics round-trip bit-exactly;
    rejects coefficient rows that are not unit-norm to 1e-9 (and NaN),
    naming the first. One stacked pass, and no `Conic` is built."""
    C = np.asarray(coeffs, dtype=float).reshape(-1, 6)
    M = (C[:, _FORM_FROM_COEFFS] * _FORM_SCALE).reshape(-1, 3, 3)
    off = ~(np.abs(np.sqrt(np.einsum("bij,bij->b", M, M)) - 1.0) <= 1e-9)
    if off.any():
        raise GeometryError(f"conic {int(off.argmax())}: coefficients are "
                            f"not normalized")
    M.setflags(write=False)
    return M


def _conic_of(M: np.ndarray) -> Conic:
    """The `Conic` of a normalized, read-only form M, with M itself as its
    form."""
    conic = object.__new__(Conic)
    object.__setattr__(conic, "form", M)
    return conic


def _normalized_forms(M: np.ndarray) -> np.ndarray:
    """Stacked forms (B, 3, 3) symmetrised, scaled to unit Frobenius norm
    (through `_norm`, which rounds like `np.linalg.norm`) and signed so that
    the first entry above 1e-14 in magnitude (row-major) is positive; a new
    read-only C-ordered stack, so every layout of M rounds alike, forms
    whose squares would leave the normal range first divided by their
    largest |entry|. Raises on non-finite or zero forms."""
    if not np.isfinite(M).all():
        raise GeometryError("non-finite conic form")
    M = np.ascontiguousarray(0.5 * (M + np.swapaxes(M, 1, 2)))
    flat = M.reshape(-1, 9)
    with np.errstate(over="ignore"):
        nrm = _norm(flat)
    off = ~((nrm >= _NORM_MIN) & (nrm < np.inf))
    if off.any():
        big = np.abs(flat[off]).max(axis=1)
        if not big.all():
            raise GeometryError("zero conic form")
        flat[off] /= big[:, None]
        nrm[off] = _norm(flat[off])
    flat /= nrm[:, None]
    big = np.abs(flat) > 1e-14
    first = flat[np.arange(len(flat)), big.argmax(axis=1)]
    flat[big.any(axis=1) & (first < 0)] *= -1.0
    M.setflags(write=False)
    return M


def _kind(det3, det2, trace2, second_singular_value) -> str:
    if abs(det3) < DEG_EPS:
        # Degenerate: rank decides between line pairs and a double line.
        if second_singular_value() < 1e-9:
            return "double-line"
        if det2 > DEG_EPS:
            return "point"
        return "pair-of-lines"
    if det2 > DEG_EPS:
        # Real ellipse iff det3 and the 2x2 trace have opposite signs.
        return "ellipse" if det3 * trace2 < 0 else "empty"
    if det2 < -DEG_EPS:
        return "hyperbola"
    return "parabola"


def _classify_forms(M: np.ndarray) -> list[str]:
    """The kinds of a stack of normalized forms (B, 3, 3). `det` runs over
    the stack; `svd` only on the forms with |det| below DEG_EPS, one at a
    time. The 2x2 minor is formed in Python floats: their ``** 2`` is libm
    ``pow``, which can differ from an array's square in the last bit and so
    move a kind at the DEG_EPS thresholds."""
    det3 = np.linalg.det(M).tolist()
    m00, m01, m11 = (M[:, i, j].tolist() for i, j in ((0, 0), (0, 1), (1, 1)))
    return [_kind(d3, a * c - b ** 2, a + c,
                  lambda i=i: np.linalg.svd(M[i], compute_uv=False)[1])
            for i, (d3, a, b, c) in enumerate(zip(det3, m00, m01, m11))]


def classify(conic: Conic) -> str:
    return conic.kind


def point_on_conic(p, conic: Conic, tol: float = TOL_INCIDENCE) -> bool:
    if tol <= 0:
        raise GeometryError("tolerance must be positive")
    return conic.residual(p) <= tol


# ---------------------------------------------------------------------------
# Collinearity and line helpers
# ---------------------------------------------------------------------------

def cross2(u, v) -> float:
    """z-component of the cross product of two planar vectors."""
    return float(u[0] * v[1] - u[1] * v[0])


def _collinear(a, b, c, rel: float = 1e-10):
    """Collinearity of stacked point triples (..., 2), one bool per triple:
    the parallelogram area against `rel` times the two sides' lengths."""
    a, b, c = (np.asarray(v, float) for v in (a, b, c))
    u, v = b - a, c - a
    area = np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
    return area <= rel * np.maximum(_norm(u) * _norm(v), 1e-300)


def line_conic_intersections(conic: Conic, p0, p1) -> list[np.ndarray]:
    """Real intersections of the line through p0, p1 with a conic.

    The line is parametrized as p0 + t*(p1 - p0); a discriminant below
    -1e-12 means no real intersection, values in [-1e-12, 0] are clamped
    (tangency, a square root below 1e-12, reported once).
    """
    A = conic.form
    h0 = np.array([p0[0], p0[1], 1.0])
    d = np.array([p1[0] - p0[0], p1[1] - p0[1], 0.0])
    a = d @ A @ d
    b = h0 @ A @ d
    c = h0 @ A @ h0
    if abs(a) < 1e-15 * max(abs(b), abs(c), 1.0):
        if abs(b) < 1e-300:
            return []
        ts = [-c / (2 * b)]
    else:
        disc = b * b - a * c
        if disc < -1e-12:
            return []
        disc = max(disc, 0.0)
        r = math.sqrt(disc)
        ts = [(-b + r) / a, (-b - r) / a]
        if r < 1e-12:
            ts = ts[:1]
    return [(h0 + t * d)[:2] for t in ts]


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

_PAIRS_5 = np.array(list(combinations(range(5), 2))).T
_TRIPLES_5 = np.array(list(combinations(range(5), 3))).T
_FIVE_POINT_FAULTS = ([f"duplicate points at indices {i},{j}"
                       for i, j in _PAIRS_5.T.tolist()]
                      + [f"points {i},{j},{k} are collinear; conic not unique"
                         for i, j, k in _TRIPLES_5.T.tolist()])


def _five_point_faults(P: np.ndarray) -> list:
    """Per set of the five-point sets P (B, 5, 2), the message of its first
    failed check (duplicates, then collinear triples, each in lexicographic
    order) or None; every check runs over all sets at once."""
    i, j = _PAIRS_5
    a, b, c = _TRIPLES_5
    fault = np.concatenate([_norm(P[:, i] - P[:, j]) < TOL_MERGE,
                            _collinear(P[:, a], P[:, b], P[:, c])], axis=1)
    return [_FIVE_POINT_FAULTS[k] if bad else None
            for k, bad in zip(fault.argmax(axis=1).tolist(),
                              fault.any(axis=1).tolist())]


def conic_forms_from_5_points(P) -> np.ndarray:
    """The forms of the unique conics through the five-point sets P
    (B, 5, 2), no three points of a set collinear: each the least-singular
    direction of its 5x6 design matrix in the monomial basis (x^2, xy, y^2,
    x, y, 1), from one stacked `svd`. Raises the first failed check of the
    first failing set before any fit."""
    P = np.asarray(P, dtype=float)
    if P.shape[1:] != (5, 2):
        raise GeometryError("exactly five points required")
    fault = next(filter(None, _five_point_faults(P)), None)
    if fault:
        raise GeometryError(fault)
    x, y = P[..., 0], P[..., 1]
    _, s, Vt = np.linalg.svd(np.stack([x * x, x * y, y * y, x, y,
                                       np.ones_like(x)], axis=-1))
    if (s[:, 0] / np.where(s[:, 4] > 0, s[:, 4], np.inf) > COND_WARN).any():
        warnings.warn("ill-conditioned five-point conic fit", RuntimeWarning)
    return _normalized_forms((Vt[:, -1][:, _FORM_FROM_COEFFS] * _FORM_SCALE)
                             .reshape(-1, 3, 3))


def conic_from_5_points(pts) -> Conic:
    """Unique conic through five points, no three collinear: the one-set
    call of `conic_forms_from_5_points`."""
    forms = conic_forms_from_5_points(np.array([list(pts)], float))
    return _conic_of(forms[0])


def central_conic_forms(centers, reps) -> tuple[np.ndarray, np.ndarray]:
    """Forms (B, 3, 3), not normalized, of the conics symmetric about
    `centers` (B, 2) through three representatives each, `reps` (B, 3, 2),
    and the mask (B,) of the singular central systems, whose rows hold a
    finite placeholder. A representative stands for an antipodal pair, so
    a conic passes through the six vertices of its centrally symmetric
    hexagon. One stacked `det` and `solve` fit the conics centered at the
    origin; one stacked H^-T M0 H^-1 moves them to their centers."""
    centers = np.asarray(centers, float).reshape(-1, 2)
    d = np.asarray(reps, float).reshape(-1, 3, 2) - centers[:, None]
    x, y = d[..., 0], d[..., 1]
    M = np.stack([x * x, x * y, y * y], axis=-1)
    singular = (np.abs(np.linalg.det(M))
                < 1e-14 * np.maximum(_norm(M.reshape(-1, 9)), 1.0) ** 3)
    M[singular] = np.eye(3)
    a, b, c = np.linalg.solve(M, np.ones((len(M), 3, 1)))[..., 0].T
    M0 = np.zeros((len(M), 3, 3))
    M0[:, 0, 0], M0[:, 1, 1], M0[:, 2, 2] = a, c, -1.0
    M0[:, 0, 1] = M0[:, 1, 0] = b / 2
    Hinv = np.tile(np.eye(3), (len(M), 1, 1))
    Hinv[:, :2, 2] = -centers
    return (np.matmul(np.matmul(np.swapaxes(Hinv, 1, 2), M0), Hinv),
            singular)


def central_conic_from_pairs(center, reps) -> Conic:
    """Conic symmetric about `center` through three representative points:
    the one-conic call of `central_conic_forms`."""
    reps = np.asarray(reps, float)
    if len(reps) != 3:
        raise GeometryError("exactly three representatives required")
    forms, singular = central_conic_forms(center, reps)
    if singular[0]:
        raise GeometryError("degenerate hexagon: singular central system")
    return Conic(forms[0])


# ---------------------------------------------------------------------------
# Conic-conic intersection via the pencil
# ---------------------------------------------------------------------------
# One kernel, on stacks of conic pairs; a pair gets the same bits in any
# batch. Stacked `np.matmul` rounds like `@` on one vector, but `einsum` or
# explicit sums do not, and the ill-conditioned line bases of symmetric
# scenes turn that into different counts. The tests check counts and points
# against exact common points (resultants and Sturm sequences).

_PENCIL_TS = np.array([0.0, 1.0, -1.0, 2.0])
_PENCIL_VANDER = np.vander(_PENCIL_TS, 4)
# Indices left after deleting k, and the cofactor signs (-1) ** (i + j).
_MINOR_KEEP = np.array([[1, 2], [0, 2], [0, 1]])
_COFACTOR_SIGN = (-1) ** np.add.outer(np.arange(3), np.arange(3))
# Pairs per kernel pass: the traced peak stays near 1.3 MB on cell24; twice
# as many raise the benchmark's peak RSS by 0.9 MB.
_PAIR_CHUNK = 256
_NEWTON_STEPS = 30
# Newton steps run inside each chunk: 6 % of the polytope scenes' candidates
# still move after them, 1 % after all 30; their pairs finish together.
_CHUNK_STEPS = 3


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of stacked real or complex vectors (last axis)."""
    def sq(u):
        return np.matmul(u[..., None, :], u[..., :, None])[..., 0, 0]
    return np.sqrt(sq(v.real) + sq(v.imag) if np.iscomplexobj(v) else sq(v))


def _quadratic_form(p: np.ndarray, A: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p^T A q for stacked vectors (..., 3) and broadcastable forms
    (..., 3, 3)."""
    return np.matmul(np.matmul(p[..., None, :], A), q[..., :, None])[..., 0, 0]


def _coincident(FA: np.ndarray, FB: np.ndarray, tol: float) -> np.ndarray:
    """Proportionality test on stacked normalized forms (N, 3, 3)."""
    FA, FB = FA.reshape(-1, 9), FB.reshape(-1, 9)
    return (_norm(FA - FB) < tol) | (_norm(FA + FB) < tol)


def _split_degenerate(C: np.ndarray) -> np.ndarray:
    """Split stacked (near-)rank-2 symmetric forms (R, 3, 3) into two lines
    each, (R, 2, 3) complex; callers filter for real results.

    The adjugate gives the singular point, which reduces the form to a
    rank-1 matrix whose rows/columns are the lines. A form of rank <= 1 is
    a double line, given twice.
    """
    C = C.astype(complex)
    rows = np.arange(len(C))
    # Minor (i, j) of C, (R, 3, 3, 2, 2); adj is the transposed cofactors.
    minors = C[:, _MINOR_KEEP[:, None, :, None], _MINOR_KEEP[None, :, None, :]]
    adj = (np.linalg.det(minors) * _COFACTOR_SIGN).transpose(0, 2, 1)
    i = np.argmax(np.abs(np.diagonal(adj, axis1=1, axis2=2)), axis=1)
    beta = np.sqrt(-adj[rows, i, i] + 0j)
    p = adj[rows, :, i] / beta[:, None]
    skew = np.zeros_like(C)
    skew[:, 0, 1], skew[:, 0, 2] = p[:, 2], -p[:, 1]
    skew[:, 1, 0], skew[:, 1, 2] = -p[:, 2], p[:, 0]
    skew[:, 2, 0], skew[:, 2, 1] = p[:, 1], -p[:, 0]
    M = C + skew
    r, c = np.divmod(np.argmax(np.abs(M).reshape(-1, 9), axis=1), 3)
    lines = np.stack([M[rows, r, :], M[rows, :, c]], axis=1)
    double = np.abs(adj[rows, i, i]) < 1e-14
    heaviest = C[rows, np.argmax(np.abs(C).sum(axis=2), axis=1)]
    lines[double] = heaviest[double, None, :]
    return lines


def _line_conic_complex(L: np.ndarray, A: np.ndarray):
    """Homogeneous complex intersections of stacked lines (..., 3) with
    broadcastable conics (..., 3, 3): points (..., 2, 3) and a mask (..., 2)
    of the slots that hold one.

    A line is parametrized by the first two of cross(line, e_k) that are not
    negligible; a line with fewer has no points.
    """
    a0, a1, a2 = L[..., 0], L[..., 1], L[..., 2]  # np.cross's bits, cheaper
    v = [np.stack([a1 * e2 - a2 * e1, a2 * e0 - a0 * e2, a0 * e1 - a1 * e0],
                  axis=-1) for e0, e1, e2 in np.eye(3, dtype=complex)]
    small = 1e-12 * (_norm(L) + 1)
    usable = [_norm(vk) > small for vk in v]
    p0 = np.where(usable[0][..., None], v[0], v[1])
    p1 = np.where((usable[0] & usable[1])[..., None], v[1], v[2])
    a = _quadratic_form(p1, A, p1)
    b = _quadratic_form(p0, A, p1)
    c = _quadratic_form(p0, A, p0)
    linear = np.abs(a) < 1e-16 * (np.abs(b) + np.abs(c) + 1)
    r = np.sqrt(b * b - a * c + 0j)
    first = np.where(linear[..., None], p0 - (c / (2 * b))[..., None] * p1,
                     p0 + ((-b + r) / a)[..., None] * p1)
    second = p0 + ((-b - r) / a)[..., None] * p1
    has_basis = sum(u.astype(int) for u in usable) >= 2
    valid = np.stack([has_basis & (~linear | (np.abs(b) > 1e-300)),
                      has_basis & ~linear], axis=-1)
    return np.stack([first, second], axis=-2), valid


def _value_and_gradient(x: np.ndarray, y: np.ndarray, c: np.ndarray):
    """f = v^T A v at v = (x, y, 1) and half its gradient, elementwise, from
    the entries c (6, K) A00, A01, A11, A02, A12, A22 (`_COEFFS_FROM_FORM`)."""
    gx = c[0] * x + c[1] * y + c[3]
    gy = c[1] * x + c[2] * y + c[4]
    return x * gx + y * gy + (c[3] * x + c[4] * y + c[5]), gx, gy


def _newton_polish(xy: np.ndarray, entries: np.ndarray, pairs: np.ndarray,
                   iters: int):
    """Refine common points (K, 2) of the conic pairs (K, 2) with `iters`
    Newton steps by Cramer's rule, clipped to length 0.1. A point stops once
    both residuals are below 1e-16 or its step is not finite (a singular
    Jacobian). Returns the points and the indices of those still moving:
    a point's steps depend only on its own state."""
    c, xy, live = entries.take(pairs.T, axis=1), xy.copy(), np.arange(len(xy))
    x, y = xy[:, 0], xy[:, 1]
    for _ in range(iters):
        if not len(live):
            break
        fa, ax, ay = _value_and_gradient(x, y, c[:, 0])
        fb, bx, by = _value_and_gradient(x, y, c[:, 1])
        det = 2 * (ax * by - ay * bx)
        dx, dy = (fb * ay - fa * by) / det, (fa * bx - fb * ax) / det
        step = np.hypot(dx, dy)
        go = (np.maximum(np.abs(fa), np.abs(fb)) >= 1e-16) & np.isfinite(step)
        scale = np.minimum(0.1 / step, 1.0)
        x, y = (x + dx * scale)[go], (y + dy * scale)[go]
        c, live = c[..., go], live[go]
        xy[live, 0], xy[live, 1] = x, y
    return xy, live


def _residuals(xy: np.ndarray, M: np.ndarray) -> np.ndarray:
    """|p^T A p| for the unit-norm homogenizations p of stacked points
    (K, 2), against forms (K, 3, 3) or one form (3, 3)."""
    v = np.column_stack([xy, np.ones(len(xy))])
    v /= _norm(v)[:, None]
    return np.abs(_quadratic_form(v, M, v))


def _pencil_candidates(MA: np.ndarray, MB: np.ndarray, det_a: np.ndarray):
    """Unpolished real affine candidates (K, 2) of stacked pairs of forms
    (P, 3, 3), with the pair of each, in the per-pair order root, line, slot.
    `det_a` (P,) holds det(MA), the cubic's value at t = 0."""
    P = len(MA)
    # det(MA + t*MB) is a cubic in t; recover it from four evaluations and
    # find its roots as the eigenvalues of the companion matrix (np.roots).
    vals = np.column_stack([det_a, np.linalg.det(
        MA[:, None] + _PENCIL_TS[1:, None, None] * MB[:, None])])
    coeffs = np.linalg.solve(np.broadcast_to(_PENCIL_VANDER, (P, 4, 4)),
                             vals[:, :, None])[:, :, 0]
    companion = np.zeros((P, 3, 3))
    companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    pair, k = np.nonzero(np.abs(roots.imag) <= 1e-8 * (1 + np.abs(roots.real)))
    lam = roots.real[pair, k]
    lines = _split_degenerate(MA[pair] + lam[:, None, None] * MB[pair])
    q, valid = _line_conic_complex(lines, MA[pair, None].astype(complex))
    q, valid, pair = q.reshape(-1, 3), valid.reshape(-1), np.repeat(pair, 4)
    nrm = _norm(q)
    valid &= ~((nrm == 0) | (np.abs(q[:, 2]) < 1e-10 * nrm))  # at infinity
    q = q / q[:, 2:]
    valid &= ~(np.maximum(np.abs(q[:, 0].imag), np.abs(q[:, 1].imag))
               > 1e-6 * (1 + np.abs(q[:, 0].real) + np.abs(q[:, 1].real)))
    return q[valid, :2].real, pair[valid]


def _settle(k: np.ndarray, xy: np.ndarray, entries: np.ndarray,
            pairs: np.ndarray):
    """The distinct points of the pairs `k` (K,), grouped and ascending, from
    their polished candidates `xy` (K, 2): the pairs present, their sorted
    points[p, :n[p]] in a NaN-padded (U, >= 4, 2) array, and their counts n."""
    c = entries.take(pairs[k].T, axis=1)
    first = np.diff(k, prepend=-1) != 0
    present, pair = k[first], np.cumsum(first) - 1
    P = len(present)
    x, y = xy[:, 0], xy[:, 1]
    # On both conics: |f| / |(x, y, 1)|^2 not above 10 * TOL_MERGE, or NaN.
    tol = 10 * TOL_MERGE * (x * x + y * y + 1)
    on_both = ~((np.abs(_value_and_gradient(x, y, c[:, 0])[0]) > tol)
                | (np.abs(_value_and_gradient(x, y, c[:, 1])[0]) > tol))
    xy, pair = xy[on_both], pair[on_both]
    # Drop what lies within TOL_MERGE of an earlier kept point of its pair.
    per_pair = np.bincount(pair, minlength=P)
    rank = np.arange(len(pair)) - (np.cumsum(per_pair) - per_pair)[pair]
    width = max(4, int(per_pair.max(initial=0)))
    cx, cy = np.full((2, width, P), np.nan)
    cx[rank, pair], cy[rank, pair] = xy[:, 0], xy[:, 1]
    kept = np.zeros((width, P), bool)
    kept[rank, pair] = True
    for j in range(1, width):
        dx, dy = cx[:j] - cx[j], cy[:j] - cy[j]
        kept[j] &= ~(kept[:j] & (dx * dx + dy * dy < TOL_MERGE ** 2)).any(0)
    # Kept points by pair, then rounded (x, y); equal keys keep their order.
    order = np.lexsort((np.round(xy[:, 1], 9), np.round(xy[:, 0], 9), pair))
    order = order[kept[rank, pair][order]]
    xy, pair = xy[order], pair[order]
    counts = np.bincount(pair, minlength=P)
    slot = np.arange(len(pair)) - (np.cumsum(counts) - counts)[pair]
    points = np.full((P, max(4, int(counts.max(initial=0))), 2), np.nan)
    points[pair, slot] = xy
    return present, points, counts


def _ellipses_apart(forms: np.ndarray, ellipse: np.ndarray,
                    pairs: np.ndarray) -> np.ndarray:
    """Mask of the pairs (P,) of ellipses that a line separates: their boxes
    or their projections on the line through their centres are disjoint.
    An ellipse reaches sqrt(u^T S u) from its centre along a unit vector u,
    S from the adjugate (tangents l: l^T adj(A) l = 0). Reaches are widened
    by 1e-6 of the ellipses' joint extent, so ellipses that touch are kept."""
    if not ellipse.any():
        return np.zeros(len(pairs), bool)
    centre = np.full((len(forms), 2), np.nan)
    S = np.full((len(forms), 3), np.nan)
    A00, A01, A11, A02, A12, A22 = (forms[ellipse].reshape(-1, 9)
                                    [:, _COEFFS_FROM_FORM].T)
    c00, c11 = A11 * A22 - A12 ** 2, A00 * A22 - A02 ** 2  # cofactors
    c22, c01 = A00 * A11 - A01 ** 2, A02 * A12 - A01 * A22
    c02, c12 = A01 * A12 - A02 * A11, A01 * A02 - A00 * A12
    centre[ellipse] = np.stack([c02, c12], axis=1) / c22[:, None]
    S[ellipse] = np.stack([c02 ** 2 - c00 * c22, c02 * c12 - c01 * c22,
                           c12 ** 2 - c11 * c22], axis=1) / (c22 ** 2)[:, None]
    lo, hi = centre - np.sqrt(S[:, ::2]), centre + np.sqrt(S[:, ::2])
    margin = 1e-6 * np.max(hi[ellipse].max(axis=0) - lo[ellipse].min(axis=0))
    i, j = pairs.T
    boxes = ((lo[i] > hi[j] + margin) | (lo[j] > hi[i] + margin)).any(axis=1)
    dist = np.hypot(*(centre[j] - centre[i]).T)
    u = (centre[j] - centre[i]) / dist[:, None]
    reach = [np.sqrt(S[k, 0] * u[:, 0] ** 2 + 2 * S[k, 1] * u[:, 0] * u[:, 1]
                     + S[k, 2] * u[:, 1] ** 2) for k in (i, j)]
    return boxes | (dist > reach[0] + reach[1] + margin)


def pencil_intersections(forms, pairs):
    """Real affine intersection points of the conic pairs `pairs`, index
    pairs (i, j) into the stack of normalized forms `forms` (B, 3, 3).

    Returns `(points, counts)`: pair k meets in `points[k, :counts[k]]`,
    sorted by rounded (x, y); the rest of the (P, 4, 2) array is NaN. Each
    degenerate member of the pencil A + lambda*B is split into two lines,
    which are intersected with A; candidates are Newton-polished and kept
    if they lie on both conics, points within TOL_MERGE of each other once.
    The stack is classified in one `_classify_forms` pass, and a
    degenerate form in a pair raises before any pair is solved (one in no
    pair is ignored). A broad phase gives count 0 to ellipse pairs that a
    line separates; the rest are solved in chunks, and coincident conics,
    which the broad phase never separates, raise in theirs. A point lies
    within 100 forward error bounds u |v|^T |A| |v| ||J|| / |det J| of the
    exact common point (J: the Newton Jacobian at v = (x, y, 1)), a tangent
    one within TOL_MERGE of the touching point.
    Known faults: a line through the origin loses its points, a tangency
    counts 0, 1 or 3, and the absolute Newton stop leaves points of tiny
    conics up to ~1,600 bounds off. More than 4 distinct points raise.
    """
    pairs = np.asarray(pairs, dtype=int).reshape(-1, 2)
    points = np.full((len(pairs), 4, 2), np.nan)
    counts = np.zeros(len(pairs), dtype=int)
    forms = np.asarray(forms, dtype=float).reshape(-1, 3, 3)
    kinds = _classify_forms(forms)
    if any(kinds[i] in DEGENERATE_KINDS for i in set(pairs.ravel().tolist())):
        raise GeometryError("degenerate conic input")
    ellipse = np.array([k == "ellipse" for k in kinds], dtype=bool)
    entries = forms.reshape(-1, 9)[:, _COEFFS_FROM_FORM].T
    det = np.linalg.det(forms)
    waiting = []  # (pair index, point, still moving) of the waiting pairs
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        todo = np.flatnonzero(~_ellipses_apart(forms, ellipse, pairs))
        for s in range(0, len(todo), _PAIR_CHUNK):
            idx = todo[s:s + _PAIR_CHUNK]
            i, j = pairs[idx].T
            if _coincident(forms[i], forms[j], TOL_COINCIDENT).any():
                raise GeometryError("coincident conics: five or more common "
                                    "points force equality")
            xy, pair = _pencil_candidates(forms[i], forms[j], det[i])
            k = idx[pair]
            xy, live = _newton_polish(xy, entries, pairs[k], _CHUNK_STEPS)
            moving = np.bincount(live, minlength=len(xy)) > 0
            wait = np.bincount(pair[live], minlength=len(idx))[pair] > 0
            waiting.append((k[wait], xy[wait], moving[wait]))
            done, pts, n = _settle(k[~wait], xy[~wait], entries, pairs)
            points[done], counts[done] = pts[:, :4], n
        if waiting:
            k, xy, moving = (np.concatenate(a) for a in zip(*waiting))
            xy[moving] = _newton_polish(xy[moving], entries, pairs[k[moving]],
                                        _NEWTON_STEPS - _CHUNK_STEPS)[0]
            done, pts, n = _settle(k, xy, entries, pairs)
            points[done], counts[done] = pts[:, :4], n
    over = np.flatnonzero(counts > 4)
    if len(over):
        (i, j), n = pairs[over[0]], counts[over[0]]
        raise GeometryError(
            f"conics {i} and {j} give {n} distinct intersection points; two "
            "distinct conics share at most 4")
    return points, counts


def conic_conic_intersections(A: Conic, B: Conic) -> list[np.ndarray]:
    """All real affine intersection points of two nondegenerate conics,
    sorted, tangential ones once: the one-pair call of `pencil_intersections`
    and its bits. Raises on degenerate or coincident inputs, or > 4 points."""
    points, counts = pencil_intersections(np.stack([A.form, B.form]),
                                          [(0, 1)])
    return list(points[0, :counts[0]])


# ---------------------------------------------------------------------------
# Signed ratios and Carnot's criterion
# ---------------------------------------------------------------------------

def signed_ratio(X, Z, Y) -> float:
    """Signed ratio XZ/ZY for collinear X, Z, Y: the t with Z-X = t*(Y-Z)."""
    X, Z, Y = (np.asarray(v, float) for v in (X, Z, Y))
    if not _collinear(X, Z, Y, rel=1e-8):
        raise GeometryError("signed_ratio requires collinear points")
    d = Y - Z
    dd = float(d @ d)
    if dd < 1e-24:
        raise GeometryError("signed_ratio undefined: Z = Y")
    return float((Z - X) @ d / dd)


# Slot layout for Carnot data: (A1, A2, B1, B2, C1, C2); side "a" points lie
# on line BC, "b" on CA, "c" on AB.
_CARNOT_SIDES = "aabbcc"
# The vertices (U, V) of each side of a triangle (A, B, C); a point P on it
# has the ratio UP / PV: BA_i / A_iC, CB_i / B_iA and AC_i / C_iB.
_SIDE_ENDS = {"a": (1, 2), "b": (2, 0), "c": (0, 1)}


def _check_carnot_point(tri, side: str, p):
    U, V = (tri[k] for k in _SIDE_ENDS[side])
    p = np.asarray(p, float)
    if not _collinear(U, V, p, rel=1e-7):
        raise GeometryError(f"point {p} not on side line '{side}'")
    for v in tri:
        if np.linalg.norm(p - v) < 1e-9:
            raise GeometryError("side point coincides with a triangle vertex")


def _carnot_ratios(tri, pts, sides) -> float:
    """Product of the signed ratios of the points `pts` on their `sides`,
    in order; each point is checked on its side line and off the vertices
    before its ratio is taken."""
    prod = 1.0
    for p, side in zip(pts, sides):
        _check_carnot_point(tri, side, p)
        U, V = (tri[k] for k in _SIDE_ENDS[side])
        prod *= signed_ratio(U, p, V)
    return prod


def carnot_product(tri, pts) -> float:
    """Product of the six signed ratios that is 1 iff the points are coconical.

    `pts` is ordered (A1, A2, B1, B2, C1, C2) with the A-points on line BC,
    B-points on CA and C-points on AB.
    """
    tri = [np.asarray(v, float) for v in tri]
    pts = [np.asarray(p, float) for p in pts]
    if len(pts) != 6:
        raise GeometryError("exactly six side points required")
    return _carnot_ratios(tri, pts, _CARNOT_SIDES)


def carnot_solve_sixth(tri, pts, side: str) -> np.ndarray:
    """Complete five Carnot side points to a coconical six-tuple.

    `pts` is the canonical six-slot order with the second slot of `side`
    omitted; the returned point is the unique one on that side line making
    the six-ratio product equal to 1.
    """
    if side not in ("a", "b", "c"):
        raise GeometryError(f"unknown side {side!r}")
    tri = [np.asarray(v, float) for v in tri]
    pts = [np.asarray(p, float) for p in pts]
    if len(pts) != 5:
        raise GeometryError("exactly five placed points required")
    prod = _carnot_ratios(tri, pts, _CARNOT_SIDES.replace(side, "", 1))
    if abs(prod) < 1e-300 or not math.isfinite(prod):
        raise GeometryError("required ratio is 0 or infinite")
    r = 1.0 / prod
    U, V = (tri[k] for k in _SIDE_ENDS[side])
    if abs(1.0 + r) < 1e-9:
        raise GeometryError("solved point lies at infinity")
    p = (U + r * V) / (1.0 + r)
    _check_carnot_point(tri, side, p)
    return p


# ---------------------------------------------------------------------------
# Affine maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AffineMap2:
    """Invertible planar affine map x -> linear @ x + translation. Maps
    compare and hash by identity."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.linear, float).reshape(2, 2).copy()
        t = np.asarray(self.translation, float).reshape(2).copy()
        if abs(np.linalg.det(L)) < 1e-12:
            raise GeometryError("affine map is singular")
        L.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "linear", L)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "AffineMap2":
        return cls(np.eye(2), np.zeros(2))

    @classmethod
    def translation_by(cls, v) -> "AffineMap2":
        return cls(np.eye(2), np.asarray(v, float))

    def homogeneous(self) -> np.ndarray:
        H = np.eye(3)
        H[:2, :2] = self.linear
        H[:2, 2] = self.translation
        return H


def apply_affine_point(M: AffineMap2, p) -> np.ndarray:
    return M.linear @ np.asarray(p, float) + M.translation


def apply_affine_points(M: AffineMap2, P) -> np.ndarray:
    """`apply_affine_point` of each row of P (N, 2), bit for bit."""
    P = np.asarray(P, float).reshape(-1, 2)
    return np.matmul(M.linear, P[:, :, None])[:, :, 0] + M.translation


def apply_affine(M: AffineMap2, conic: Conic) -> Conic:
    """The image of a conic under an affine map: the one-form call of
    `affine_images`."""
    return _conic_of(affine_images(M.homogeneous(), conic.form)[0])


def affine_images(H: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """The images of a stack of forms (n, 3, 3) under one homogeneous affine
    map H (3, 3) or one map per form (n, 3, 3): H^-T A H^-1, normalized as
    by `Conic`, as one read-only (n, 3, 3) stack.

    One stacked `inv` and two stacked products, then `_normalized_forms`.
    The maps are taken as given: `AffineMap2` is where an affine map is
    checked for invertibility."""
    forms = np.asarray(forms, dtype=float).reshape(-1, 3, 3)
    Hinv = np.linalg.inv(H)
    return _normalized_forms(np.matmul(np.matmul(np.swapaxes(Hinv, -1, -2),
                                                 forms), Hinv))


def _axis_angle(x: float, y: float) -> float:
    """Direction of the vector (x, y) as an axis angle in (-pi/2, pi/2]."""
    angle = math.atan2(y, x)
    if angle <= -math.pi / 2:
        angle += math.pi
    elif angle > math.pi / 2:
        angle -= math.pi
    return angle


def ellipse_parameters(conic: Conic):
    """(center, semi_major, semi_minor, angle) of an ellipse conic: the
    one-form call of `ellipse_parameters_stack`.

    `angle` is the direction of the major axis in (-pi/2, pi/2].
    """
    if conic.kind != "ellipse":
        raise GeometryError(f"not an ellipse: {conic.kind}")
    centers, a, b, angles = ellipse_parameters_stack(conic.form)
    return centers[0], float(a[0]), float(b[0]), angles[0]


def ellipse_parameters_stack(forms: np.ndarray):
    """(center, semi_major, semi_minor, angle) of a stack of ellipse forms
    (E, 3, 3): centers (E, 2), semi-major and semi-minor axes (E,) each,
    and the angles as a list of floats. The caller checks the kinds.

    One `solve`, one `eigh` and two `det` calls over the stack; the angle
    is `math.atan2` on Python floats."""
    M = np.asarray(forms, dtype=float).reshape(-1, 3, 3)
    if not len(M):
        return np.zeros((0, 2)), np.zeros(0), np.zeros(0), []
    Q = M[:, :2, :2]
    centers = np.linalg.solve(Q, -M[:, :2, 2:])[:, :, 0]
    evals, evecs = np.linalg.eigh(Q)
    k = -np.linalg.det(M) / np.linalg.det(Q)
    axes = np.sqrt(k[:, None] / evals)
    order = np.argsort(-axes, axis=1)
    rows = np.arange(len(M))
    major = evecs[rows, :, order[:, 0]]
    angles = [_axis_angle(x, y) for x, y in major.tolist()]
    return (centers, axes[rows, order[:, 0]], axes[rows, order[:, 1]],
            angles)


def dilation_to_circle(conic: Conic) -> AffineMap2:
    """Axis-aligned-in-eigenbasis scaling that maps an ellipse to a circle."""
    if conic.kind != "ellipse":
        raise GeometryError("dilation_to_circle requires an ellipse")
    Q = conic.form[:2, :2].copy()
    if Q[0, 0] + Q[1, 1] < 0:
        Q = -Q
    evals, evecs = np.linalg.eigh(Q)
    S = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    return AffineMap2(S, np.zeros(2))


# ---------------------------------------------------------------------------
# 4D -> 2D projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Projection4to2:
    """Rank-2 linear map from E^4 to the plane. Projections compare and
    hash by identity."""

    map: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.map, float).reshape(2, 4).copy()
        s = np.linalg.svd(P, compute_uv=False)
        if s[1] < 1e-10:
            raise GeometryError("projection is not of rank 2")
        P.setflags(write=False)
        object.__setattr__(self, "map", P)


def project(P: Projection4to2, q) -> np.ndarray:
    return P.map @ np.asarray(q, float)


def project_conic_plane(P: Projection4to2, center, u, v,
                        planar_conic: Conic) -> Conic:
    """Project a conic living in the 2-plane center + span(u, v) of E^4.

    The conic is given in (u, v) coordinates. The map (x, y) -> P(center +
    x u + y v) from the plane to the image is affine, so the image is the
    conic's `affine_images` under it.
    """
    H = np.vstack([np.column_stack([P.map @ np.asarray(a, float)
                                    for a in (u, v, center)]),
                   [0.0, 0.0, 1.0]])
    s = np.linalg.svd(H[:2, :2], compute_uv=False)
    if s[1] < 1e-10 * max(s[0], 1.0):
        raise GeometryError("plane projects degenerately")
    return _conic_of(affine_images(H, planar_conic.form)[0])
