"""Unit tests for the planar conic kernel."""
import functools
import math
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (carnot_six_from_conic, conics_of,
                      exact_pencil_intersections, random_ellipse,
                      scalar_apply_affine, scalar_central_conic_from_pairs,
                      scalar_coeffs, scalar_collinear,
                      scalar_conic,
                      scalar_conic_from_5_points,
                      scalar_conic_from_normalized_coeffs,
                      scalar_ellipse_parameters, scalar_normalize_form,
                      scalar_residual,
                      scalar_translate_conic, stack_of)
from pointconic import geometry
from pointconic.constructions import (cell24, crossed_ellipses,
                                      dipyramid_carnot, ellipse_conic, pmn,
                                      polygon_ring, product, qcube_48,
                                      richter_gebert, translate_conics)
from pointconic.geometry import (DEGENERATE_KINDS, TOL_MERGE, AffineMap2,
                                 Conic, GeometryError, Projection4to2,
                                 _classify_forms, _collinear, _ellipses_apart,
                                 _pencil_candidates, _residuals,
                                 affine_images, apply_affine,
                                 apply_affine_point, apply_affine_points,
                                 carnot_product,
                                 carnot_solve_sixth, central_conic_from_pairs,
                                 classify, conic_conic_intersections,
                                 _normalized_forms, conic_forms_from_5_points,
                                 conic_from_5_points,
                                 conics_from_normalized_coeffs,
                                 dilation_to_circle, ellipse_parameters,
                                 ellipse_parameters_stack, forms_coeffs,
                                 line_conic_intersections,
                                 pencil_intersections, point_on_conic,
                                 project, project_conic_plane, signed_ratio)

UNIT_CIRCLE = Conic.from_coeffs(1, 0, 1, 0, 0, -1)


class TestConicBasics:
    def test_normalization(self):
        c = Conic.from_coeffs(2, 0, 2, 0, 0, -2)
        assert abs(np.linalg.norm(c.form) - 1.0) < 1e-14
        assert c.same_as(UNIT_CIRCLE)

    def test_sign_convention(self):
        c1 = Conic.from_coeffs(1, 0, 1, 0, 0, -1)
        c2 = Conic.from_coeffs(-1, 0, -1, 0, 0, 1)
        assert np.array_equal(c1.form, c2.form)

    def test_classify(self):
        assert classify(UNIT_CIRCLE) == "ellipse"
        assert classify(Conic.from_coeffs(1, 0, -1, 0, 0, 0)) == \
            "pair-of-lines"
        assert classify(Conic.from_coeffs(1, 0, 1, 0, 0, 1)) == "empty"
        assert classify(Conic.from_coeffs(1, 0, 0, 0, -1, 0)) == "parabola"
        assert classify(Conic.from_coeffs(1, 0, -1, 0, 0, -1)) == "hyperbola"
        assert classify(Conic.from_coeffs(1, 0, 0, 0, 0, 0)) == "double-line"

    def test_point_on_conic(self):
        assert point_on_conic((1, 0), UNIT_CIRCLE, 1e-9)
        assert not point_on_conic((1.1, 0), UNIT_CIRCLE, 1e-9)
        with pytest.raises(GeometryError):
            point_on_conic((1, 0), UNIT_CIRCLE, tol=0)

    def test_roundtrip_coeffs(self):
        c = ellipse_conic((0.3, -0.2), 0.7, 0.4, 0.5)
        (c2,) = conics_of(conics_from_normalized_coeffs([c.coeffs()]))
        assert np.array_equal(c.form, c2.form)
        with pytest.raises(GeometryError):
            conics_from_normalized_coeffs([(5, 0, 5, 0, 0, -5)])

    @pytest.mark.parametrize("M", [np.full((3, 3), np.nan),
                                   np.diag([np.inf, 1, 1]),
                                   np.diag([1.0, 1, -np.inf])])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_forms_rejected(self, M):
        # Once a NaN "parabola" and an SVD LinAlgError.
        with pytest.raises(GeometryError, match="^non-finite conic form$"):
            Conic(M)
        with pytest.raises(GeometryError, match="^non-finite conic form$"):
            affine_images(np.eye(3), np.stack([UNIT_CIRCLE.form, M]))

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300, 1e-170])
    def test_extreme_scales_normalize(self, scale):
        # Squaring the entries once overflowed to an all-zero "double-line"
        # (1e160, 1e300) or underflowed to a "zero conic form" (1e-170).
        c = Conic(UNIT_CIRCLE.form * scale)
        assert c.kind == "ellipse"
        assert np.array_equal(c.form, UNIT_CIRCLE.form)
        assert c == Conic(UNIT_CIRCLE.form * -scale)

    @pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e150])
    def test_form_in_range_keeps_its_bits(self, scale):
        # Only forms whose sum of squares leaves the normal range are
        # rescaled first; every other form takes the unscaled path.
        M = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, -0.2],
                      [0.1, -0.2, -1.0]]) * -scale
        assert (Conic(M).form.tobytes()
                == scalar_normalize_form(M).tobytes())

    def test_zero_form_raises(self):
        with pytest.raises(GeometryError, match="^zero conic form$"):
            Conic(np.zeros((3, 3)))

    def test_hash_agrees_with_eq_on_signed_zeros(self):
        # The two forms differ only in the signs of their zero entries.
        c1 = Conic.from_coeffs(1, 0, 1, 0, 0, -1)
        c2 = Conic.from_coeffs(-1, 0, -1, 0, 0, 1)
        assert c1.form.tobytes() != c2.form.tobytes()
        assert c1 == c2 and hash(c1) == hash(c2)
        assert len({c1, c2}) == 1


def _assert_stacked_matches_one_conic(coeffs):
    stacked = conics_of(conics_from_normalized_coeffs(coeffs))
    assert len(stacked) == len(coeffs)
    for c, s in zip(coeffs, stacked):
        one = scalar_conic_from_normalized_coeffs(c)
        assert s.form.tobytes() == one.form.tobytes()
        assert s.kind == one.kind
        assert not s.form.flags.writeable
    return stacked


def _symmetric(entries):
    a, b, c, d, e, f = entries
    return np.array([[a, b, d], [b, c, e], [d, e, f]], float)


# Symmetric forms with exact degeneracies: a general form, line pairs
# l m^T + m l^T, double lines l l^T, and parabolas (a, h, b) = (t^2, ts, s^2)
# in the quadratic part, drawn from small integers as well as floats.
_entry = st.one_of(st.integers(-3, 3),
                   st.floats(-3, 3, allow_nan=False, allow_infinity=False))
_vec = st.lists(_entry, min_size=3, max_size=3).map(np.array)
_forms = st.one_of(
    st.lists(_entry, min_size=6, max_size=6).map(_symmetric),
    st.tuples(_vec, _vec).map(lambda lm: np.outer(*lm) + np.outer(*lm).T),
    _vec.map(lambda v: np.outer(v, v)),
    st.tuples(_entry, _entry, _entry, _entry, _entry).map(
        lambda t: _symmetric((t[0] ** 2, t[0] * t[1], t[1] ** 2,
                              t[2], t[3], t[4]))),
).filter(lambda M: np.abs(M).max() > 1e-6)


class TestStackedConics:
    """The stacked reader pass against the one-conic body, its oracle."""

    @pytest.mark.parametrize("build", [
        lambda: pmn(4, 4), qcube_48, cell24, crossed_ellipses,
        lambda: product(crossed_ellipses(), crossed_ellipses(),
                        genericize=True, seed=1)],
        ids=["pmn44", "qcube_48", "cell24", "crossed_ellipses", "product"])
    def test_builder_documents(self, build):
        G = build()
        stacked = _assert_stacked_matches_one_conic(
            [scalar_coeffs(c) for c in G.conics])
        assert stacked == G.conics

    # Tiny entries make LAPACK's LU of a singular form divide by zero in
    # both calls alike.
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @given(st.lists(_forms, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    @example([np.diag([1.0, 0, 0]), np.diag([1.0, -1, 0]),
              np.diag([1.0, 1, 0]), np.diag([1.0, 1, 1]),
              _symmetric((1, 0, 0, 0, -0.5, 0))])
    def test_drawn_forms(self, forms):
        _assert_stacked_matches_one_conic(
            [scalar_coeffs(scalar_conic(M)) for M in forms])

    def test_empty_stack(self):
        forms = conics_from_normalized_coeffs(np.zeros((0, 6)))
        assert forms.shape == (0, 3, 3)

    @pytest.mark.parametrize("bad", [(5, 0, 5, 0, 0, -5),
                                     (math.nan, 0, 1, 0, 0, 0)])
    def test_unnormalized_or_nan_rejected(self, bad):
        good = UNIT_CIRCLE.coeffs()
        with pytest.raises(GeometryError, match="not normalized"):
            scalar_conic_from_normalized_coeffs(bad)
        with pytest.raises(GeometryError, match="conic 1: .*not normalized"):
            conics_from_normalized_coeffs([good, bad])


def _same_conics(got, want):
    """Bit-identical forms (signs of zeros included) and equal kinds."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.kind == w.kind
        assert g.form.tobytes() == w.form.tobytes()


_scale = st.floats(-3, 3).map(lambda e: 10.0 ** e)
_linear = st.lists(st.floats(-3, 3), min_size=4, max_size=4).map(
    lambda v: np.reshape(v, (2, 2))).filter(
    lambda L: abs(L[0, 0] * L[1, 1] - L[0, 1] * L[1, 0]) > 1e-3)
_shift = st.tuples(st.floats(-1, 1), st.floats(-1, 1), _scale).map(
    lambda t: np.array(t[:2]) * t[2])


class TestStackedAffineKernels:
    """`affine_images` and `ellipse_parameters_stack` against the one-conic
    bodies of `apply_affine`, `translate_conic` and `ellipse_parameters`,
    and `apply_affine_points` against `apply_affine_point`."""

    @given(_linear, _shift, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_points(self, L, t, seed):
        # A stacked matmul of one vector each rounds like the one-point
        # call; P @ L.T does not.
        M = AffineMap2(L, t)
        rng = np.random.default_rng(seed)
        P = rng.uniform(-1, 1, (200, 2)) * 10.0 ** rng.uniform(-3, 3, (200, 1))
        want = np.array([apply_affine_point(M, p) for p in P])
        assert apply_affine_points(M, P).tobytes() == want.tobytes()
        assert apply_affine_points(M, P[:0]).shape == (0, 2)

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @given(st.lists(_forms, min_size=1, max_size=8), _linear, _shift)
    @settings(max_examples=200, deadline=None)
    def test_one_map(self, forms, L, t):
        conics = [scalar_conic(M) for M in forms]
        M = AffineMap2(L, t)
        _same_conics(conics_of(affine_images(M.homogeneous(),
                                             stack_of(conics))),
                     [scalar_apply_affine(M, c) for c in conics])

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @given(st.lists(st.tuples(_forms, _linear, _shift), min_size=1,
                    max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_one_map_per_form(self, drawn):
        conics = [scalar_conic(M) for M, _, _ in drawn]
        maps = [AffineMap2(L, t) for _, L, t in drawn]
        _same_conics(conics_of(affine_images(
                         np.array([M.homogeneous() for M in maps]),
                         stack_of(conics))),
                     [scalar_apply_affine(M, c) for M, c in zip(maps, conics)])

    @given(st.integers(0, 10 ** 9), _scale)
    @settings(max_examples=100, deadline=None)
    def test_translates(self, seed, scale):
        rng = np.random.default_rng(seed)
        conics = [random_ellipse(rng) for _ in range(6)]
        shifts = rng.normal(size=(6, 2)) * scale
        _same_conics(conics_of(translate_conics(stack_of(conics),
                                                shifts)),
                     [scalar_translate_conic(c, v)
                      for c, v in zip(conics, shifts)])

    def test_cube_translates(self):
        d = dipyramid_carnot(3, seed=0)
        sq = product(d, d, genericize=True, seed=1)
        forms = np.array([c.form for c in d.conics] * sq.num_points)
        shifts = np.repeat(sq.points, d.num_conics, axis=0)
        _same_conics(conics_of(translate_conics(forms, shifts)),
                     [scalar_translate_conic(c, v)
                      for v in sq.points for c in d.conics])

    def test_empty_stacks(self):
        forms = affine_images(np.eye(3), np.zeros((0, 3, 3)))
        assert forms.shape == (0, 3, 3)
        centers, a, b, angles = ellipse_parameters_stack(np.zeros((0, 3, 3)))
        assert centers.shape == (0, 2) and a.shape == b.shape == (0,)
        assert angles == []

    @given(st.integers(0, 10 ** 9), _scale)
    @settings(max_examples=100, deadline=None)
    def test_ellipse_parameters(self, seed, scale):
        rng = np.random.default_rng(seed)
        conics = [ellipse_conic(rng.normal(size=2) * scale,
                                scale * rng.uniform(0.5, 2),
                                scale * rng.uniform(0.01, 0.5),
                                rng.uniform(-math.pi, math.pi))
                  for _ in range(8)]
        # Far from unit scale the kind thresholds may call a thin ellipse
        # a point; only ellipses have parameters.
        self._check_parameters([c for c in conics if c.kind == "ellipse"]
                               + [UNIT_CIRCLE])

    @pytest.mark.parametrize("build", [qcube_48, cell24, crossed_ellipses],
                             ids=["qcube_48", "cell24", "crossed_ellipses"])
    def test_ellipse_parameters_of_builders(self, build):
        self._check_parameters(build().conics)

    @staticmethod
    def _check_parameters(conics):
        centers, a, b, angles = ellipse_parameters_stack(
            [c.form for c in conics])
        for k, c in enumerate(conics):
            center, ak, bk, angle = scalar_ellipse_parameters(c)
            assert centers[k].tobytes() == center.tobytes()
            assert (a[k], b[k], angles[k]) == (ak, bk, angle)

    def test_forms_coeffs(self):
        G = richter_gebert(seed=1)
        assert forms_coeffs([c.form for c in G.conics]).tolist() == \
            [[float(v) for v in scalar_coeffs(c)] for c in G.conics]


def _outcome(call, *args):
    """What a call gives, as comparable bytes and values, or its
    GeometryError text."""
    try:
        got = call(*args)
    except GeometryError as exc:
        return "error", str(exc)
    if isinstance(got, Conic):
        return got.form.tobytes(), got.kind, got.form.flags.writeable
    if isinstance(got, tuple) and len(got) == 4:  # ellipse parameters
        return (got[0].tobytes(),) + got[1:]
    return got, [type(v) for v in (got if isinstance(got, tuple) else [got])]


_point = st.tuples(st.floats(-3, 3), st.floats(-3, 3))


class TestOneConicCallsMatchOracles:
    """Each public one-conic call is the B = 1 call of its stacked kernel;
    the one-conic bodies in conftest are its oracles, errors included."""

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @given(_forms, _linear, _shift, _point)
    @settings(max_examples=300, deadline=None)
    @example(np.zeros((3, 3)), np.eye(2), np.zeros(2), (0.0, 0.0))
    @example(np.diag([1.0, 1, -1]), np.eye(2), np.zeros(2), (1.0, 0.0))
    @example(-np.diag([1.0, 1, 0]), np.eye(2), np.zeros(2), (0.0, 0.0))
    def test_calls(self, M, L, t, p):
        assert _outcome(Conic, M) == _outcome(scalar_conic, M)
        if not np.any(M):
            return
        c, A = Conic(M), AffineMap2(L, t)
        assert _outcome(apply_affine, A, c) == \
            _outcome(scalar_apply_affine, A, c)
        assert _outcome(ellipse_parameters, c) == \
            _outcome(scalar_ellipse_parameters, c)
        assert _outcome(c.residual, p) == _outcome(scalar_residual, c, p)
        assert _outcome(c.coeffs) == _outcome(scalar_coeffs, c)
        for tol in (1e-8, 0.0):
            assert _outcome(point_on_conic, p, c, tol) == (
                ("error", "tolerance must be positive") if tol <= 0
                else (scalar_residual(c, p) <= tol, [bool]))


class TestFitting:
    def test_unit_circle(self):
        s = math.sqrt(0.5)
        c = conic_from_5_points([(1, 0), (0, 1), (-1, 0), (0, -1), (s, s)])
        assert c.same_as(UNIT_CIRCLE, 1e-9)

    def test_collinear_rejected(self):
        with pytest.raises(GeometryError, match="collinear"):
            conic_from_5_points([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(GeometryError, match="duplicate"):
            conic_from_5_points([(0, 0), (0, 0), (2, 0), (0, 1), (1, 1)])

    def test_parabola_recovered(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-2, 2, size=5)
        pts = [(x, x * x) for x in xs]
        c = conic_from_5_points(pts)
        assert c.kind == "parabola"
        assert all(c.residual(p) < 1e-10 for p in pts)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            target = random_ellipse(rng)
            center, a, b, ang = ellipse_parameters(target)
            R = np.array([[math.cos(ang), -math.sin(ang)],
                          [math.sin(ang), math.cos(ang)]])
            ts = rng.uniform(0, 2 * math.pi, size=5)
            while np.min(np.abs(np.subtract.outer(ts, ts))
                         + np.eye(5)) < 0.1:
                ts = rng.uniform(0, 2 * math.pi, size=5)
            pts = [center + R @ np.array([a * math.cos(t), b * math.sin(t)])
                   for t in ts]
            fitted = conic_from_5_points(pts)
            dist = min(np.linalg.norm(fitted.form - target.form),
                       np.linalg.norm(fitted.form + target.form))
            assert dist < 1e-8

    def test_central_conic(self):
        s = math.sqrt(0.5)
        c = central_conic_from_pairs((0, 0), [(1, 0), (0, 1), (s, s)])
        assert c.same_as(UNIT_CIRCLE, 1e-9)
        hexagon = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3))
                   for k in range(6)]
        c = central_conic_from_pairs((0, 0), hexagon[:3])
        assert all(c.residual(p) < 1e-12 for p in hexagon)

    def test_central_conic_degenerate(self):
        with pytest.raises(GeometryError):
            central_conic_from_pairs((0, 0), [(1, 0), (2, 0), (3, 0)])
        with pytest.raises(GeometryError, match="exactly three"):
            central_conic_from_pairs((0, 0), [(1, 0), (0, 1)])

    # A hexagon: its center, two representatives and a third that is
    # either free or a multiple of the first about the center (a singular
    # central system).
    _hexagon = st.tuples(_point, _point, _point, st.one_of(
        _point, st.floats(-3, 3).map(lambda t: ("scaled", t))))

    @given(st.lists(_hexagon, min_size=1, max_size=6))
    @example([((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0))])
    def test_central_conic_is_its_stacked_row(self, hexagons):
        # The one-conic call is the B = 1 call of central_conic_forms; each
        # row of a stacked fit gives the same form, or the same error, as
        # the call on that hexagon alone and as the one-hexagon oracle.
        centers, reps = [], []
        for center, r1, r2, r3 in hexagons:
            if r3[0] == "scaled":
                r3 = tuple(c + r3[1] * (r - c) for c, r in zip(center, r1))
            centers.append(center)
            reps.append([r1, r2, r3])
        forms, singular = geometry.central_conic_forms(centers, reps)
        assert forms.shape == (len(hexagons), 3, 3)
        for k, (center, row) in enumerate(zip(centers, reps)):
            outcomes = []
            for fit in (central_conic_from_pairs,
                        scalar_central_conic_from_pairs):
                try:
                    outcomes.append(fit(center, row).form.tobytes())
                except GeometryError as exc:
                    outcomes.append(str(exc))
            if singular[k]:
                want = "degenerate hexagon: singular central system"
            elif np.isfinite(forms[k]).all():
                want = geometry._normalized_forms(forms[k:k + 1])[0].tobytes()
            else:
                want = "non-finite conic form"
            assert outcomes == [want, want]


def _fit_outcome(fit, pts):
    """Form bytes and warnings of a fit, or its GeometryError text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            form = fit(pts).form.tobytes()
        except GeometryError as exc:
            form = str(exc)
    return form, [str(w.message) for w in caught]


def _near_collinear(rng, rel):
    """Points a, b, c with |cross(b - a, c - a)| = rel |b - a| |c - a|."""
    a, c = rng.uniform(-1, 1, size=(2, 2)) * 10.0 ** rng.uniform(-2, 2)
    t = rng.uniform(-0.5, 1.5)
    L = np.linalg.norm(c - a)
    normal = np.array([a[1] - c[1], c[0] - a[0]]) / L
    h = rel * abs(t) * L / math.sqrt(1 - rel * rel)
    return a, a + t * (c - a) + h * normal, c


def _accepts(check, *args) -> bool:
    """Whether `check` returns without a GeometryError."""
    try:
        check(*args)
    except GeometryError:
        return False
    return True


class TestFivePointChecksMatchScalar:
    """conic_from_5_points' stacked duplicate and collinearity checks against
    the pair-by-pair and triple-by-triple fit `scalar_conic_from_5_points`:
    the same form bytes and warnings, or the same error text."""

    def _agree(self, pts):
        new = _fit_outcome(conic_from_5_points, pts)
        assert new == _fit_outcome(scalar_conic_from_5_points, pts)
        return isinstance(new[0], str)

    def test_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            scale = 10.0 ** rng.uniform(-4, 4)
            self._agree(rng.normal(size=(5, 2)) * scale)

    def test_on_conics_and_with_warnings(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            c, a, b = rng.normal(size=2), *rng.uniform(0.1, 2, size=2)
            ts = rng.uniform(0, 2 * math.pi, size=5)
            self._agree(c + np.column_stack([a * np.cos(ts),
                                             b * np.sin(ts)]))
        # Far from the origin the design matrix is ill-conditioned: the
        # fit warns, and both warn alike.
        pts = 1e4 + np.random.default_rng(0).normal(size=(5, 2))
        assert not self._agree(pts)
        assert _fit_outcome(conic_from_5_points, pts)[1]

    @pytest.mark.parametrize("i,j", list(combinations(range(5), 2)))
    def test_planted_duplicates(self, i, j):
        rng = np.random.default_rng(100 + 5 * i + j)
        raised = set()
        for factor in (1 - 1e-6, 1 + 1e-6) * 10:
            pts = rng.uniform(-1, 1, size=(5, 2))
            ang = rng.uniform(0, 2 * math.pi)
            pts[j] = pts[i] + TOL_MERGE * factor * np.array(
                [math.cos(ang), math.sin(ang)])
            raised.add(self._agree(pts))
        assert raised == {False, True}

    @pytest.mark.parametrize("i,j,k", list(combinations(range(5), 3)))
    def test_planted_near_collinear(self, i, j, k):
        rng = np.random.default_rng(200 + 25 * i + 5 * j + k)
        raised = set()
        for factor in (1 - 1e-6, 1 + 1e-6) * 10:
            pts = rng.uniform(-1, 1, size=(5, 2))
            pts[i], pts[j], pts[k] = _near_collinear(rng, 1e-10 * factor)
            raised.add(self._agree(pts))
        assert raised == {False, True}

    def test_first_offender_named(self):
        pts = [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)]
        with pytest.raises(GeometryError, match=r"^points 0,1,2 are"):
            conic_from_5_points(pts)
        pts = [(0, 0), (1, 0), (1, 0), (0, 1), (0, 1)]
        with pytest.raises(GeometryError, match=r"indices 1,2$"):
            conic_from_5_points(pts)

    @pytest.mark.parametrize("rel", [1e-10, 1e-8, 1e-7])
    def test_one_triple_callers(self, rel):
        # signed_ratio (rel 1e-8) and the Carnot side check (rel 1e-7) call
        # _collinear on one triple; it decides as the scalar predicate.
        rng = np.random.default_rng(int(-math.log10(rel)))
        seen = set()
        for factor in np.geomspace(0.5, 2, 41):
            a, b, c = _near_collinear(rng, rel * factor)
            got = _collinear(a, b, c, rel=rel)
            assert got == scalar_collinear(a, b, c, rel=rel)
            seen.add(bool(got))
            if rel == 1e-8:
                assert _accepts(signed_ratio, a, b, c) == got
            if rel == 1e-7:
                # Side "a" of the triangle runs through its vertices a, c.
                on_side = _accepts(geometry._check_carnot_point,
                                   ((5.0, 5.0), a, c), "a", b)
                assert on_side == scalar_collinear(a, c, b, rel=rel)
        assert seen == {False, True}

    def test_stacked_residuals_match_per_point(self):
        # The padded-conic grazing test reads _residuals over all
        # non-members; it rounds like the one-point residual body.
        rng = np.random.default_rng(13)
        for _ in range(20):
            conic = scalar_conic_from_5_points(rng.uniform(0, 1, (5, 2)))
            pts = rng.uniform(-0.5, 1.5, size=(40, 2))
            per_point = [scalar_residual(conic, p) for p in pts]
            assert _residuals(pts, conic.form).tolist() == per_point


class TestIntersections:
    def test_two_circles(self):
        other = Conic.from_coeffs(1, 0, 1, -2, 0, 0)
        pts = conic_conic_intersections(UNIT_CIRCLE, other)
        expect = {(0.5, math.sqrt(3) / 2), (0.5, -math.sqrt(3) / 2)}
        assert len(pts) == 2
        for p in pts:
            assert min(np.linalg.norm(p - np.array(e)) for e in expect) < 1e-12

    def test_two_ellipses_four_points(self):
        e1 = Conic.from_coeffs(0.25, 0, 1, 0, 0, -1)
        e2 = Conic.from_coeffs(1, 0, 0.25, 0, 0, -1)
        pts = conic_conic_intersections(e1, e2)
        assert len(pts) == 4
        v = 2 / math.sqrt(5)
        for p in pts:
            assert abs(abs(p[0]) - v) < 1e-12 and abs(abs(p[1]) - v) < 1e-12

    def test_coincident_rejected(self):
        rng = np.random.default_rng(11)
        base = random_ellipse(rng)
        center, a, b, ang = ellipse_parameters(base)
        R = np.array([[math.cos(ang), -math.sin(ang)],
                      [math.sin(ang), math.cos(ang)]])
        ts = np.linspace(0.3, 5.8, 5)
        pts = [center + R @ np.array([a * math.cos(t), b * math.sin(t)])
               for t in ts]
        c1 = conic_from_5_points(pts)
        c2 = conic_from_5_points(pts[::-1])
        with pytest.raises(GeometryError, match="coincident"):
            conic_conic_intersections(c1, c2)

    def test_degenerate_rejected(self):
        lines = Conic.from_coeffs(1, 0, -1, 0, 0, 0)
        with pytest.raises(GeometryError):
            conic_conic_intersections(lines, UNIT_CIRCLE)

    def test_shared_four_points(self):
        rng = np.random.default_rng(5)
        shared = rng.uniform(-1, 1, size=(4, 2))
        c1 = conic_from_5_points([*shared, rng.uniform(-1, 1, size=2)])
        c2 = conic_from_5_points([*shared, rng.uniform(1.2, 2, size=2)])
        pts = conic_conic_intersections(c1, c2)
        assert len(pts) == 4
        for q in shared:
            assert min(np.linalg.norm(p - q) for p in pts) < 1e-9

    def test_line_conic(self):
        pts = line_conic_intersections(UNIT_CIRCLE, (-2, 0), (2, 0))
        assert len(pts) == 2
        pts = line_conic_intersections(UNIT_CIRCLE, (-2, 1), (2, 1))
        assert len(pts) == 1  # tangent reported once
        assert not line_conic_intersections(UNIT_CIRCLE, (-2, 2), (2, 2))

    def test_line_conic_one_root(self):
        # A line parallel to the parabola's axis meets it once; the
        # hyperbola's asymptote meets it nowhere in the affine plane.
        parabola = Conic.from_coeffs(1, 0, 0, 0, -1, 0)
        pts = line_conic_intersections(parabola, (1, 0), (1, 1))
        assert len(pts) == 1 and np.allclose(pts[0], (1, 1), atol=1e-12)
        hyperbola = Conic.from_coeffs(0, 1, 0, 0, 0, -1)
        assert line_conic_intersections(hyperbola, (0, 0), (1, 0)) == []


class TestSignedRatioAndCarnot:
    def test_midpoint(self):
        assert signed_ratio((0, 0), (1, 0), (2, 0)) == pytest.approx(1.0)

    def test_external(self):
        assert signed_ratio((0, 0), (3, 0), (1, 0)) == pytest.approx(-1.5)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            M = AffineMap2(rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2),
                           rng.uniform(-1, 1, 2))
            X, Y = rng.uniform(-1, 1, (2, 2))
            s = rng.uniform(-2, 2)
            if abs(1 - s) < 0.1:
                continue
            Z = X + s * (Y - X)
            before = signed_ratio(X, Z, Y)
            after = signed_ratio(apply_affine_point(M, X),
                                 apply_affine_point(M, Z),
                                 apply_affine_point(M, Y))
            assert after == pytest.approx(before, abs=1e-9)

    def test_errors(self):
        with pytest.raises(GeometryError):
            signed_ratio((0, 0), (1, 1), (2, 0))
        with pytest.raises(GeometryError):
            signed_ratio((0, 0), (1, 0), (1, 0))

    def test_equilateral_circle(self):
        tri = [np.array([math.cos(a), math.sin(a)])
               for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3,
                         math.pi / 2 + 4 * math.pi / 3)]
        r = 0.75  # between inradius 0.5 and circumradius 1
        circle = Conic.from_coeffs(1, 0, 1, 0, 0, -r * r)
        pts = []
        for (U, V) in ((tri[1], tri[2]), (tri[2], tri[0]),
                       (tri[0], tri[1])):
            pts.extend(line_conic_intersections(circle, U, V))
        assert carnot_product(tri, pts) == pytest.approx(1.0, abs=1e-12)

    def test_random_conic_product(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            tri, pts, _ = carnot_six_from_conic(rng)
            assert carnot_product(tri, pts) == pytest.approx(1.0, abs=1e-9)

    def test_perturbation_detected(self):
        rng = np.random.default_rng(9)
        tri, pts, _ = carnot_six_from_conic(rng)
        d = tri[2] - tri[1]
        pts[0] = pts[0] + 1e-3 * d / np.linalg.norm(d)
        assert abs(carnot_product(tri, pts) - 1.0) > 1e-4

    def test_solve_sixth_recovers(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            tri, pts, _ = carnot_six_from_conic(rng)
            for side, slot in (("a", 1), ("b", 3), ("c", 5)):
                rest = pts[:slot] + pts[slot + 1:]
                solved = carnot_solve_sixth(tri, rest, side)
                assert np.linalg.norm(solved - pts[slot]) < 1e-9

    def test_completed_tuple_coconical(self):
        rng = np.random.default_rng(8)
        tri, pts, conic = carnot_six_from_conic(rng)
        solved = carnot_solve_sixth(tri, pts[:5], "c")
        fitted = conic_from_5_points(pts[:5])
        assert fitted.residual(solved) < 1e-9
        assert fitted.same_as(conic, 1e-6)

    def test_vertex_rejected(self):
        tri = (np.array([0.0, 0.0]), np.array([1.0, 0.0]),
               np.array([0.0, 1.0]))
        pts = [tri[1], np.array([0.5, 0.5]), np.array([0.0, 0.3]),
               np.array([0.0, 0.7]), np.array([0.2, 0.0]),
               np.array([0.8, 0.0])]
        with pytest.raises(GeometryError):
            carnot_product(tri, pts)


_TRI = (np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def _on_side(side: str, t: float) -> np.ndarray:
    """The point of signed ratio t on side a (BC), b (CA) or c (AB) of
    _TRI = (A, B, C)."""
    U, V = (_TRI[k] for k in {"a": (1, 2), "b": (2, 0), "c": (0, 1)}[side])
    return (U + t * V) / (1 + t)


_MID = {side: _on_side(side, 1.0) for side in "abc"}
_OFF = np.array([0.1, 0.5])     # on no side line
_SIX = [_MID["a"], _on_side("a", 3.0), _MID["b"], _on_side("b", 3.0),
        _MID["c"], _on_side("c", 3.0)]
_NOT_ON = "point {} not on side line '{}'"
_VERTEX = "side point coincides with a triangle vertex"


class TestCarnotErrors:
    """Every reachable error of carnot_product and carnot_solve_sixth, by
    its exact message: the count (and side) first, then the points in slot
    order, each checked on its side line, off the vertices, then by its
    ratio's own collinearity test."""

    @pytest.mark.parametrize("pts, message", [
        (_SIX[:5], "exactly six side points required"),
        (_SIX + [_MID["a"]], "exactly six side points required"),
        ([_OFF] * 5, "exactly six side points required"),
        (_SIX[:2] + [_OFF] + _SIX[3:], _NOT_ON.format(_OFF, "b")),
        (_SIX[:4] + [_TRI[0]] + _SIX[5:], _VERTEX),
        ([_MID["a"], _TRI[2], _OFF] + _SIX[3:], _VERTEX),
        ([_TRI[0]] + _SIX[1:], _NOT_ON.format(_TRI[0], "a")),
        (_SIX[:4] + [np.array([0.5, 3e-8])] + _SIX[5:],
         "signed_ratio requires collinear points"),
    ], ids=["five", "seven", "count-first", "off-line", "vertex",
            "slot-order", "line-before-vertex", "ratio-collinearity"])
    def test_product(self, pts, message):
        with pytest.raises(GeometryError) as exc:
            carnot_product(_TRI, pts)
        assert str(exc.value) == message

    @pytest.mark.parametrize("pts, side, message", [
        (_SIX[:5], "d", "unknown side 'd'"),
        (_SIX[:3], "d", "unknown side 'd'"),
        (_SIX[:4], "c", "exactly five placed points required"),
        (_SIX, "c", "exactly five placed points required"),
        # With side a's second slot omitted, pts[1] is the first b point.
        ([_MID["a"], _OFF] + _SIX[3:], "a", _NOT_ON.format(_OFF, "b")),
        (_SIX[:3] + [_TRI[0], _MID["c"]], "c", _VERTEX),
        (_SIX[:2] + [np.array([3e-8, 0.5])] + _SIX[3:5], "c",
         "signed_ratio requires collinear points"),
        # Ratios 1, 1, 1, -1/2, 2: the sixth must be -1, a point at infinity.
        (_SIX[:1] + [_MID["a"], _MID["b"], _on_side("b", -0.5),
                     _on_side("c", 2.0)], "c",
         "solved point lies at infinity"),
        # Ratios 1e6, 1e6, 1, 1, 1: the sixth, 1e-12, puts it on vertex A.
        ([_on_side("a", 1e6)] * 2 + [_MID["b"]] * 2 + [_MID["c"]], "c",
         _VERTEX),
    ], ids=["unknown-side", "side-first", "four", "six", "off-line",
            "vertex", "ratio-collinearity", "at-infinity", "solved-vertex"])
    def test_solve_sixth(self, pts, side, message):
        with pytest.raises(GeometryError) as exc:
            carnot_solve_sixth(_TRI, pts, side)
        assert str(exc.value) == message


class TestAffineMaps:
    def test_identity(self):
        c = random_ellipse(np.random.default_rng(0))
        assert apply_affine(AffineMap2.identity(), c).same_as(c, 1e-14)

    def test_scale_to_circle(self):
        quarter = Conic.from_coeffs(0.25, 0, 1, 0, 0, -1)
        M = AffineMap2(np.diag([0.5, 1.0]), np.zeros(2))
        assert apply_affine(M, quarter).same_as(UNIT_CIRCLE, 1e-12)

    def test_incidence_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            c = random_ellipse(rng)
            center, a, b, ang = ellipse_parameters(c)
            p = center + np.array([a * math.cos(0.7) * math.cos(ang)
                                   - b * math.sin(0.7) * math.sin(ang),
                                   a * math.cos(0.7) * math.sin(ang)
                                   + b * math.sin(0.7) * math.cos(ang)])
            M = AffineMap2(rng.uniform(-1, 1, (2, 2)) + 2 * np.eye(2),
                           rng.uniform(-1, 1, 2))
            assert point_on_conic(p, c, 1e-8)
            assert point_on_conic(apply_affine_point(M, p),
                                  apply_affine(M, c), 1e-8)

    def test_singular_rejected(self):
        with pytest.raises(GeometryError):
            AffineMap2(np.zeros((2, 2)), np.zeros(2))

    def test_maps_and_projections_compare_by_identity(self):
        M1, M2 = AffineMap2.identity(), AffineMap2.identity()
        P = Projection4to2(np.array([[1, 0, 0, 0], [0, 1, 0, 0]], float))
        assert M1 == M1 and M1 != M2 and P == P and P != M1
        assert hash(M1) == hash(M1) and hash(P) == hash(P)
        assert {M1: 1, M2: 2, P: 3}[M2] == 2

    def test_dilation_to_circle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            c = random_ellipse(rng)
            img = apply_affine(dilation_to_circle(c), c)
            Q = img.form[:2, :2]
            evals = np.linalg.eigvalsh(Q)
            assert abs(evals[1] / evals[0] - 1.0) < 1e-10

    def test_dilation_circle_input(self):
        M = dilation_to_circle(UNIT_CIRCLE)
        img = apply_affine(M, UNIT_CIRCLE)
        assert img.kind == "ellipse"
        _, a, b, _ = ellipse_parameters(img)
        assert a == pytest.approx(b, abs=1e-12)

    def test_dilation_requires_ellipse(self):
        with pytest.raises(GeometryError):
            dilation_to_circle(Conic.from_coeffs(1, 0, -1, 0, 0, -1))


class TestProjection:
    def test_coordinate_projection(self):
        P = Projection4to2(np.array([[1, 0, 0, 0], [0, 1, 0, 0]], float))
        assert np.allclose(project(P, [0.3, -0.7, 5, 9]), [0.3, -0.7])
        img = project_conic_plane(P, np.zeros(4),
                                  np.array([1, 0, 0, 0.0]),
                                  np.array([0, 1, 0, 0.0]), UNIT_CIRCLE)
        assert img.same_as(UNIT_CIRCLE, 1e-9)

    def test_rank2_required(self):
        with pytest.raises(GeometryError):
            Projection4to2(np.array([[1, 0, 0, 0], [2, 0, 0, 0]], float))

    def test_degenerate_plane_rejected(self):
        P = Projection4to2(np.array([[1, 0, 0, 0], [0, 1, 0, 0]], float))
        with pytest.raises(GeometryError):
            project_conic_plane(P, np.zeros(4),
                                np.array([0, 0, 1, 0.0]),
                                np.array([0, 0, 0, 1.0]), UNIT_CIRCLE)


class TestHypothesisProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @example(2)  # the two ellipses' boxes are disjoint: every pair skipped
    @settings(max_examples=60, deadline=None)
    def test_intersection_count_bounded(self, seed):
        rng = np.random.default_rng(seed)
        A, B = random_ellipse(rng), random_ellipse(rng)
        if A.same_as(B):
            return
        pts = conic_conic_intersections(A, B)
        assert len(pts) <= 4
        for p in pts:
            assert A.residual(p) < 1e-7 and B.residual(p) < 1e-7

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_normalization_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        c = random_ellipse(rng)
        scaled = Conic(c.form * rng.uniform(0.5, 2.0)
                       * rng.choice([-1.0, 1.0]))
        assert np.linalg.norm(scaled.form - c.form) < 1e-14


def _all_pairs(conics):
    return [(i, j) for i in range(len(conics))
            for j in range(i + 1, len(conics))]


def _tangent_family():
    """Circle and ellipse pairs centred on one axis, many of them tangent
    there: their Newton Jacobians can be exactly singular."""
    out = []
    for r1 in (0.3, 0.5, 0.7):
        for r2 in (0.2, 0.4, 0.6, 0.9):
            for c in (r1 + r2, abs(r1 - r2), 0.1, 0.5):
                out += [ellipse_conic((0, 0), r1, r1, 0),
                        ellipse_conic((c, 0), r2, r2, 0),
                        ellipse_conic((0, 0), r1, 0.5 * r1, 0),
                        ellipse_conic((0, c), r2, 0.7 * r2, math.pi / 2)]
    return out


def _error_bounds(forms, pairs, points):
    """A forward error bound for each point (P, n, 2) as a root of its
    pair's two equations, NaN where the point is NaN: the rounding of f,
    the unit roundoff times N = the larger |v|^T |A| |v| at v = (x, y, 1)
    (Higham 2002, section 3.1), times ||J||_F / |det J|, which bounds
    ||J^-1|| for the Newton Jacobian J (rows grad f_A, grad f_B). Returns
    the rounding and the bound."""
    v = np.concatenate([points, np.ones(points.shape[:-1] + (1,))], axis=-1)
    F = forms[pairs.T]  # (2, P, 3, 3)
    N = np.einsum("pni,kpij,pnj->kpn", np.abs(v), np.abs(F), np.abs(v))
    g = 2 * np.einsum("kpij,pnj->kpni", F[:, :, :2], v)
    det = g[0, ..., 0] * g[1, ..., 1] - g[0, ..., 1] * g[1, ..., 0]
    J = np.sqrt((g ** 2).sum(axis=(0, -1)))
    rounding = np.finfo(float).eps / 2 * N.max(axis=0)
    return rounding, rounding * J / np.abs(det)


def _assert_matches(forms, pairs, got, want, bounds=100, skip_stop=False):
    """The kernel's contract against the exact `(points, counts)` on the
    pairs whose counts agree: the same NaN padding, and each point within
    `bounds` forward error bounds of the exact point (`_error_bounds`; on
    every scene here the two differ by at most 6.5 bounds). At a tangency
    det J vanishes and Newton converges only linearly: it stops within
    TOL_MERGE of the touching point, so there the bound is 2 * TOL_MERGE.
    With `skip_stop`, a point is not checked where the rounding of f is
    below 1/100 of Newton's stop (STOP)."""
    (points, counts), (want_points, want_counts) = got, want
    agree = counts == want_counts
    pairs, points = np.asarray(pairs).reshape(-1, 2)[agree], points[agree]
    want_points = want_points[agree]
    assert np.array_equal(np.isnan(points), np.isnan(want_points))
    with np.errstate(divide="ignore", invalid="ignore"):
        rounding, bound = _error_bounds(forms, pairs, want_points)
        tol = np.minimum(bounds * bound, 2 * TOL_MERGE)
    err = np.linalg.norm(points - want_points, axis=-1)
    bad = err > tol
    if skip_stop:
        bad &= 100 * rounding >= _NEWTON_STOP
    assert not bad.any(), (pairs[bad.any(axis=1)][:3], err[bad][:3],
                           tol[bad][:3])


def _assert_exact(forms, pairs, got, want, under=0, over=0, **match):
    """The kernel's `(points, counts)` `got` of the pairs against the exact
    `want`: `under` pairs undercounted and `over` overcounted, every other
    pair's points within the contract's tolerance (`_assert_matches`, with
    `match`), and no pair that the broad phase skips with an exact point."""
    n, exact = got[1], want[1]
    assert (int((n < exact).sum()), int((n > exact).sum())) == (under, over)
    _assert_matches(forms, pairs, got, want, **match)
    assert not exact[_apart(forms, pairs)].any()


def _check_exact(forms, pairs, under=0, over=0, **match):
    """`_assert_exact` of the kernel on the pairs; returns both results."""
    got = pencil_intersections(forms, pairs)
    want = exact_pencil_intersections(forms, pairs)
    _assert_exact(forms, pairs, got, want, under, over, **match)
    return got, want


def _apart(forms, pairs):
    ellipse = np.array([k == "ellipse" for k in _classify_forms(forms)])
    with np.errstate(invalid="ignore"):  # as in the kernel: concentric pairs
        return _ellipses_apart(forms, ellipse,
                               np.asarray(pairs).reshape(-1, 2))


def _assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def _candidates(forms, pairs, chunk):
    """`_pencil_candidates` of the pairs, `chunk` pairs per call, with the
    index into `pairs` of each candidate's pair."""
    det = np.linalg.det(forms)
    xy, pair = [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(0, len(pairs), chunk):
            i, j = pairs[s:s + chunk].T
            c, p = _pencil_candidates(forms[i], forms[j], det[i])
            xy.append(c)
            pair.append(p + s)
    return np.concatenate(xy), np.concatenate(pair)


def _kernel_at_chunk(chunk, forms, pairs):
    with mock.patch.object(geometry, "_PAIR_CHUNK", chunk):
        return pencil_intersections(forms, pairs)


def _assert_one_pair_calls(forms, pairs, got, step=1):
    """`conic_conic_intersections` gives every `step`-th pair the bits of
    its row of the kernel's `(points, counts)` `got`."""
    conics = conics_of(forms)
    for k in range(0, len(pairs), step):
        points = conic_conic_intersections(*(conics[i] for i in pairs[k]))
        n = got[1][k]
        assert len(points) == n
        assert np.reshape(points, (-1, 2)).tobytes() == got[0][k, :n].tobytes()


def _assert_candidates_invariant(forms, pairs):
    """`_pencil_candidates` gives a pair the same bits, signed zeros
    included, in chunks of 1, 7 and 256 pairs as in one chunk of all pairs:
    the benchmark's excess pins move with the last bit of a candidate."""
    want = _candidates(forms, pairs, max(1, len(pairs)))
    for chunk in (1, 7, 256):
        _assert_same_bits(_candidates(forms, pairs, chunk), want)


def _assert_batch_invariant(forms, pairs):
    """A pair's candidates, count and points do not depend on its batch:
    the same bits at 1, 7 and 256 pairs per chunk as in one chunk of all
    pairs, and in the one-pair call."""
    _assert_candidates_invariant(forms, pairs)
    got = _kernel_at_chunk(max(1, len(pairs)), forms, pairs)
    for chunk in (1, 7, 256):
        _assert_same_bits(_kernel_at_chunk(chunk, forms, pairs), got)
    _assert_one_pair_calls(forms, pairs, got)


def _every_pair(G):
    return G.forms, np.column_stack(np.triu_indices(G.num_conics, 1))


def _sampled_pairs(G, size=500):
    """`size` pairs of G drawn with a fixed seed, and every pair the kernel
    counts odd."""
    forms, pairs = _every_pair(G)
    keep = pencil_intersections(forms, pairs)[1] % 2 == 1
    rng = np.random.default_rng(0)
    keep[rng.choice(len(pairs), size, replace=False)] = True
    return forms, pairs[keep]


def _conic_pairs(conics, pairs=None):
    pairs = _all_pairs(conics) if pairs is None else pairs
    return stack_of(conics), np.asarray(pairs, dtype=int).reshape(-1, 2)


def _tangent_pairs():
    conics = _tangent_family()
    return _conic_pairs(conics, [(k, k + 1) for k in range(0, len(conics), 2)])


# Every scene whose pairs are checked against the exact reference, with the
# numbers of pairs the kernel undercounts and overcounts there. Each of the
# kernel's two faults causes its own pins, and fixing it zeroes them:
# - LINE, the line-basis fault (ROADMAP item 1): `_line_conic_complex`
#   parametrizes a line through the origin by two dependent vectors and
#   loses its points. The polytope scenes are symmetric about the origin,
#   so their degenerate pencil members often pass through it.
# - TANGENT, the tangency count (ROADMAP item 4): rounded, a tangency is two
#   nearby points, which the reference merges into one, or none, while the
#   kernel's polish leaves 0, 1 or 3.
# A third fault moves points only, in scenes far smaller than these:
# - STOP, the absolute Newton stop (ROADMAP item 3): `_newton_polish` stops
#   once both |f| < 1e-16. Where the rounding of f is below 1e-18 that
#   leaves a point up to ~1,600 bounds off (`_STOP_SEEDS`).
_SCENES = {
    "pmn44": (lambda: _every_pair(pmn(4, 4)), 6, 0),                 # LINE
    "pmn46": (lambda: _every_pair(pmn(4, 6)), 6, 0),                 # LINE
    "pmn66": (lambda: _sampled_pairs(pmn(6, 6)), 6, 0),              # LINE
    "pmn88": (lambda: _sampled_pairs(pmn(8, 8)), 5, 0),              # LINE
    "qcube_48": (lambda: _every_pair(qcube_48()), 78, 10),  # LINE; TANGENT
    "cell24": (lambda: _every_pair(cell24()), 6, 0),                 # LINE
    **{f"dipyramid8-{s}": (lambda s=s: _every_pair(
        dipyramid_carnot(8, seed=s)), 0, 0) for s in range(3)},
    **{f"richter_gebert-{s}": (lambda s=s: _every_pair(
        richter_gebert(seed=s)), 0, 0) for s in range(3)},
    "crossed_ellipses": (lambda: _every_pair(crossed_ellipses()), 0, 0),
    **{f"polygon_ring-{n}": (lambda n=n: _every_pair(polygon_ring(n)), 0, 0)
       for n in range(3, 9)},
    "tangent_family": (_tangent_pairs, 5, 13),                     # TANGENT
}


@functools.cache
def _scene(name):
    """The scene's forms and pairs, with the kernel's `(points, counts)` of
    the pairs in one chunk and the exact ones."""
    forms, pairs = _SCENES[name][0]()
    return (forms, pairs, _kernel_at_chunk(max(1, len(pairs)), forms, pairs),
            exact_pencil_intersections(forms, pairs))


class TestKernelAgainstExactReference:
    """`pencil_intersections` against the exact reference `exact_meets`
    (conftest): the pinned miscounts, and within the contract's tolerance
    the points of every other pair. Random pairs keep their bits in any
    batch."""

    @pytest.mark.parametrize("name", list(_SCENES))
    def test_every_pair_of_scene(self, name):
        _assert_exact(*_scene(name), *_SCENES[name][1:])

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.xfail(
            strict=True, reason="pinned miscounts: line basis, tangency"))
        if any(pins) else name for name, (_, *pins) in _SCENES.items()])
    def test_counts_equal_exact(self, name):
        *_, got, want = _scene(name)
        assert np.array_equal(got[1], want[1])

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_random_ellipses_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        conics = [random_ellipse(rng) for _ in range(5)]
        pairs = [(i, j) for i, j in _all_pairs(conics)
                 if not conics[i].same_as(conics[j])]
        scene = _conic_pairs(conics, pairs)
        _check_exact(*scene)
        _assert_batch_invariant(*scene)

    def test_more_than_four_points_raise(self):
        # xy = 1 and xy + x = 2 meet at (1, 1) and, along their shared
        # asymptote x = 0, at infinity. Rounding puts pencil candidates at
        # |y| ~ 1e7, where both residuals are ~1e-16, so five distinct
        # points survive the merge. Keeping the first four in sorted order
        # would drop (1, 1).
        A = Conic.from_coeffs(0, 1, 0, 0, 0, -1)
        B = Conic.from_coeffs(0, 1, 0, 1, 0, -2)
        with pytest.raises(GeometryError, match="distinct intersection"):
            conic_conic_intersections(A, B)
        C = ellipse_conic((0, 0), 0.6, 0.3, 0.2)
        with pytest.raises(GeometryError, match="conics 1 and 2 give"):
            pencil_intersections(stack_of((C, A, B)), [(0, 1), (1, 2)])

    def test_degenerate_form_raises_only_in_a_pair(self):
        # The kernel classifies its whole stack; a degenerate form that no
        # pair names changes nothing.
        lines = Conic.from_coeffs(1, 0, -1, 0, 0, 0)  # x^2 = y^2
        A = ellipse_conic((0.1, 0.0), 1.5, 0.5, 0.2)
        assert lines.kind == "pair-of-lines"
        forms = stack_of((A, lines, UNIT_CIRCLE))
        for pairs in ([(0, 1)], [(0, 2), (2, 1)]):
            with pytest.raises(GeometryError,
                               match="^degenerate conic input$"):
                pencil_intersections(forms, pairs)
        got = pencil_intersections(forms, [(0, 2)])
        assert got[1].tolist() == [4]
        _assert_same_bits(got, pencil_intersections(
            stack_of((A, UNIT_CIRCLE)), [(0, 1)]))

    def test_no_pairs(self):
        points, counts = pencil_intersections(stack_of((UNIT_CIRCLE,)), [])
        assert points.shape == (0, 4, 2) and counts.shape == (0,)


class TestCandidatesBatchInvariant:
    """Every scene's candidates keep their bits in any batch
    (`_assert_candidates_invariant`)."""

    @pytest.mark.parametrize("name", list(_SCENES))
    def test_every_pair_of_scene(self, name):
        forms, pairs = _scene(name)[:2]
        _assert_candidates_invariant(forms, pairs)


class TestKernelBatchInvariant:
    """The broad phase, the two-phase polish and the closed-form Newton
    steps give a pair the same count and the same point bits in any batch:
    chunks of 1, 7 and 256 pairs, which put the pairs whose points still
    move after the chunk's Newton steps in many chunks, give the bits of
    one chunk of all pairs, and so does the one-pair call. Together with
    `TestCandidatesBatchInvariant` this is `_assert_batch_invariant` on every
    scene."""

    @pytest.mark.parametrize("chunk", [1, 7, 256])
    @pytest.mark.parametrize("name", list(_SCENES))
    def test_every_pair_of_scene(self, name, chunk):
        forms, pairs, got, _ = _scene(name)
        _assert_same_bits(_kernel_at_chunk(chunk, forms, pairs), got)

    def test_one_pair_call(self):
        for name in _SCENES:
            forms, pairs, got, _ = _scene(name)
            _assert_one_pair_calls(forms, pairs, got,
                                   step=max(1, len(pairs) // 100))


def _circle(c, r):
    return ellipse_conic(c, r, r, 0.0)


def _scaled_ellipses(rng, n):
    """n random ellipses scaled by 10^U(-3, 3) and shifted as far."""
    scale = 10 ** rng.uniform(-3, 3)
    shift = rng.uniform(-3, 3, size=2) * 10 ** rng.uniform(-3, 3)
    conics = []
    for _ in range(n):
        center, a, b, ang = ellipse_parameters(
            random_ellipse(rng, center_box=2.0))
        conics.append(ellipse_conic(np.asarray(center) * scale + shift,
                                    a * scale, b * scale, ang))
    return conics


def _scaled_scene(seed):
    """The pairs of six `_scaled_ellipses` that are not the same conic."""
    conics = _scaled_ellipses(np.random.default_rng(seed), 6)
    return _conic_pairs(conics, [(i, j) for i, j in _all_pairs(conics)
                                 if not conics[i].same_as(conics[j])])


# The seeds in 0-1599 whose `_scaled_scene` the kernel solves with a point
# more than 100 bounds off (STOP): 104 to 1,575 bounds, at scales 1.5e-3 to
# 9.1e-2. No point of a seed in 0-1599 whose rounding of f is at least
# 1e-18 lies more than 56 bounds off.
_STOP_SEEDS = (29, 346, 371, 413, 573, 817, 960, 986, 1026, 1027, 1091, 1177,
               1301, 1356, 1365, 1388, 1485)
_NEWTON_STOP = 1e-16  # the residual at which `_newton_polish` stops


class TestBroadPhase:
    """Pairs of ellipses that a line separates (their boxes, or their
    projections on the line through their centres, are disjoint) skip the
    kernel and get count 0. No pair with an exact common point is skipped:
    not at any scale, not when tangent, not when nested."""

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @example(346)  # points 147 and 225 bounds off, not checked (STOP)
    @settings(max_examples=60, deadline=None)
    def test_scaled_random_ellipses(self, seed):
        forms, pairs = _scaled_scene(seed)
        if any(k in DEGENERATE_KINDS for k in _classify_forms(forms)):
            # At small scales a thin ellipse far from the origin can take
            # a degenerate kind (the absolute DEG_EPS).
            with pytest.raises(GeometryError):
                pencil_intersections(forms, pairs)
            return
        _check_exact(forms, pairs, skip_stop=True)

    @pytest.mark.parametrize("seed", _STOP_SEEDS)
    def test_newton_stop_pinned(self, seed):
        # STOP: exact counts, and every point within 2,000 bounds.
        _check_exact(*_scaled_scene(seed), bounds=2000)

    @pytest.mark.xfail(strict=True, reason="absolute Newton stop (STOP)")
    @pytest.mark.parametrize("seed", _STOP_SEEDS)
    def test_newton_stop_within_bounds(self, seed):
        _check_exact(*_scaled_scene(seed))

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_externally_tangent_pairs_kept(self, seed):
        # The second ellipse touches the first from outside at the point
        # where the first's outward normal has a random angle.
        rng = np.random.default_rng(seed)
        scale = 10 ** rng.uniform(-3, 3)
        center = rng.uniform(-2, 2, size=2) * scale
        a, b = np.sort(rng.uniform(0.1, 1, size=2))[::-1] * scale
        ang, phi = rng.uniform(0, 2 * math.pi, size=2)
        A = ellipse_conic(center, a, b, ang)
        rot = np.array([[math.cos(ang), -math.sin(ang)],
                        [math.sin(ang), math.cos(ang)]])
        touch = center + rot @ (a * math.cos(phi), b * math.sin(phi))
        normal = rot @ (b * math.cos(phi), a * math.sin(phi))
        normal /= np.linalg.norm(normal)
        r = rng.uniform(0.05, 1) * scale
        B = ellipse_conic(touch + r * normal, r, r * rng.uniform(0.3, 1),
                          math.atan2(normal[1], normal[0]))
        assert not _apart(*_conic_pairs([A, B])).any()

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_nested_pairs_kept(self, seed):
        # An ellipse inside another meets it nowhere, but no line
        # separates them.
        rng = np.random.default_rng(seed)
        scale = 10 ** rng.uniform(-3, 3)
        center = rng.uniform(-2, 2, size=2) * scale
        outer = _circle(center, scale)
        inner = ellipse_conic(center + rng.uniform(-0.3, 0.3, size=2) * scale,
                              0.5 * scale, rng.uniform(0.1, 0.5) * scale,
                              rng.uniform(0, math.pi))
        assert not _apart(*_conic_pairs([outer, inner])).any()
        # At small scales a thin ellipse far from the origin can take
        # another kind (the absolute DEG_EPS); only ellipses are solved here.
        if outer.kind == inner.kind == "ellipse":
            (_, counts), _ = _check_exact(*_conic_pairs([outer, inner]))
            assert counts.tolist() == [0]

    def test_concentric_pairs_kept(self):
        # Circles about the origin differ only in their constant terms: the
        # first subresultant vanishes under every shear.
        scene = _conic_pairs([_circle((0, 0), 1.0), _circle((0, 0), 2.0),
                              ellipse_conic((0.3, -0.2), 0.6, 0.3, 0.4),
                              ellipse_conic((0.3, -0.2), 0.9, 0.45, 0.4)],
                             [(0, 1), (2, 3)])
        assert not _apart(*scene).any()
        (_, counts), _ = _check_exact(*scene)
        assert counts.tolist() == [0, 0]

    def test_centre_line_separates_what_boxes_do_not(self):
        # Along the diagonal the boxes overlap, but the projections on the
        # line through the centres do not.
        scene = _conic_pairs([_circle((0.0, 0.0), 1.0),
                              _circle((1.6, 1.6), 1.0),
                              _circle((1.4, 1.4), 1.0)], [(0, 1), (0, 2)])
        assert _apart(*scene).tolist() == [True, False]
        (_, counts), _ = _check_exact(*scene)
        assert counts.tolist() == [0, 2]

    # The pairs whose tangency the kernel overcounts at each scale (TANGENT).
    _BOX_EDGE_OVERCOUNTS = {1e-3: 2, 1.0: 1, 10.0: 2}

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0])
    def test_tangent_at_box_edges_kept(self, scale):
        def at(c):
            return np.asarray(c, float) * scale
        scene = _conic_pairs([
            _circle(at((0, 0)), 0.5 * scale),
            _circle(at((0.8, 0)), 0.3 * scale),
            _circle(at((0, -0.7)), 0.2 * scale),
            ellipse_conic(at((-0.9, 0)), 0.4 * scale, 0.1 * scale, 0.0),
            ellipse_conic(at((0, 0.75)), 0.6 * scale, 0.25 * scale, 0.0)],
            [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert not _apart(*scene).any()
        _check_exact(*scene, over=self._BOX_EDGE_OVERCOUNTS[scale])

    def test_qcube_48_pairs_tangent_at_box_edges(self):
        # Their boxes touch: a strict test without the margin would skip
        # these pairs, which the kernel counts one point each. Rounded, the
        # tangencies are no exact common point (TANGENT).
        G = qcube_48()
        scene = G.forms, np.array([(19, 29), (21, 27)])
        assert not _apart(*scene).any()
        (_, counts), _ = _check_exact(*scene, over=2)
        assert counts.tolist() == [1, 1]

    def test_hyperbolas_and_parabolas_never_skipped(self):
        far = _circle((8.0, 8.0), 0.5)
        conics = [Conic.from_coeffs(1, 0, -1, 0, 0, -1),        # hyperbola
                  Conic.from_coeffs(0, 1, 0, 0, 0, -1),         # xy = 1
                  Conic.from_coeffs(1, 0, 0, 0, -0.5, 0),       # parabola
                  Conic.from_coeffs(0, 0, 1, -0.5, 0, -3),      # parabola
                  far, _circle((-6.0, 0.0), 0.3)]
        assert [c.kind for c in conics[:4]] == ["hyperbola", "hyperbola",
                                               "parabola", "parabola"]
        scene = _conic_pairs(conics,
                             [(i, j) for i, j in _all_pairs(conics) if i < 4])
        assert not _apart(*scene).any()
        # x^2 - y^2 = 1 and xy = 1 meet in two points, but their pencil's
        # degenerate members are line pairs through the origin (LINE).
        _check_exact(*scene, under=1)

    def test_every_pair_skipped(self):
        scene = _conic_pairs([_circle((3.0 * k, 0.0), 1.0) for k in range(4)],
                             [(0, 2), (0, 3), (1, 3)])
        assert _apart(*scene).all()
        (points, counts), _ = _check_exact(*scene)
        assert points.shape == (3, 4, 2) and not counts.any()
        assert np.isnan(points).all()


class TestNormalizedFormsLayout:
    """`_normalized_forms` rounds the same in every memory layout of its
    stack: its norms come from a matmul, which rounds a non-C-contiguous
    stack differently, so the stack is made C-ordered first."""

    def test_layouts_match_one_form_calls(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(4000, 3, 3)) * 10.0 ** rng.uniform(
            -3, 3, size=(4000, 1, 1))
        want = b"".join(_normalized_forms(m[None]).tobytes() for m in M)
        flat = rng.normal(size=(4000, 6))
        gathered = flat[:, ::-1][:, [0, 1, 3, 1, 2, 4, 3, 4, 5]]
        layouts = {
            "C": M, "F": np.asfortranarray(M),
            "batch-fastest": np.moveaxis(np.moveaxis(M, 0, -1).copy(), -1, 0),
            "strided": np.repeat(M, 2, axis=0)[::2]}
        for name, stack in layouts.items():
            got = _normalized_forms(stack)
            assert got.flags.c_contiguous and not got.flags.writeable, name
            assert got.tobytes() == want, name
        # A gather from a strided view, as a fit's last singular vectors.
        G = gathered.reshape(-1, 3, 3)
        assert _normalized_forms(G).tobytes() == b"".join(
            _normalized_forms(g[None]).tobytes() for g in G)


class TestStackedFivePointFits:
    """`conic_forms_from_5_points` against its B = 1 call and against the
    pair-by-pair and triple-by-triple fit `scalar_conic_from_5_points`:
    the same form bytes and kinds, and the first failing set's message."""

    def test_stack_matches_one_set_fits(self):
        rng = np.random.default_rng(21)
        P = rng.normal(size=(300, 5, 2)) * 10.0 ** rng.uniform(
            -3, 3, size=(300, 1, 1))
        forms = conic_forms_from_5_points(P)
        kinds = _classify_forms(forms)
        assert not forms.flags.writeable
        one = [conic_from_5_points(p) for p in P]
        scalar = [scalar_conic_from_5_points(p) for p in P]
        for i in range(len(P)):
            assert forms[i].tobytes() == one[i].form.tobytes() == \
                scalar[i].form.tobytes()
            assert kinds[i] == one[i].kind == scalar[i].kind

    @pytest.mark.parametrize("seed", range(6))
    def test_first_failing_set_named(self, seed):
        rng = np.random.default_rng(30 + seed)
        P = rng.uniform(-1, 1, size=(12, 5, 2))
        bad = sorted(rng.choice(12, size=2, replace=False))
        for b in bad:
            i, j, k = rng.choice(5, size=3, replace=False)
            if rng.uniform() < 0.5:
                P[b, j] = P[b, i]
            else:
                P[b, k] = P[b, i] + 0.5 * (P[b, j] - P[b, i])
        with pytest.raises(GeometryError) as raised:
            conic_forms_from_5_points(P)
        assert str(raised.value) == _fit_outcome(
            scalar_conic_from_5_points, P[bad[0]])[0]

    @pytest.mark.parametrize("pts", [[], [(0, 0), (1, 0)], [(0, 0)] * 6])
    def test_five_points_required(self, pts):
        for fit in (conic_from_5_points, scalar_conic_from_5_points):
            with pytest.raises(GeometryError,
                               match="^exactly five points required$"):
                fit(pts)
