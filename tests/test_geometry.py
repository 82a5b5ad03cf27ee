"""Unit tests for the planar conic kernel."""
import math

import numpy as np
import pytest

from conftest import (carnot_six_from_conic, random_ellipse, random_triangle,
                      scalar_conic_conic_intersections, sweep_intersections)
from pointconic.constructions import (crossed_ellipses, dipyramid_carnot,
                                      ellipse_conic, pmn, polygon_ring,
                                      qcube_48, richter_gebert)
from pointconic.geometry import (AffineMap2, Conic, GeometryError,
                                 Projection4to2, apply_affine,
                                 apply_affine_point, carnot_product,
                                 carnot_solve_sixth, central_conic_from_pairs,
                                 classify, conic_conic_intersections,
                                 conic_from_5_points,
                                 conic_from_normalized_coeffs,
                                 dilation_to_circle, ellipse_parameters,
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
        c2 = conic_from_normalized_coeffs(c.coeffs())
        assert np.array_equal(c.form, c2.form)
        with pytest.raises(GeometryError):
            conic_from_normalized_coeffs((5, 0, 5, 0, 0, -5))


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


class TestSweepOracleAgreement:
    def test_counts_and_points(self):
        rng = np.random.default_rng(42)
        done = 0
        while done < 60:
            A = random_ellipse(rng)
            B = random_ellipse(rng)
            if A.same_as(B):
                continue
            got = conic_conic_intersections(A, B)
            want = sweep_intersections(A, B)
            assert len(got) <= 4
            assert len(got) == len(want)
            for p in want:
                assert min((np.linalg.norm(p - q) for q in got),
                           default=np.inf) < 1e-6
            done += 1


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


class TestBatchedKernelAgainstScalarOracle:
    """`pencil_intersections` runs the scalar kernel's algorithm on stacks of
    pairs; the scalar kernel in conftest is its oracle."""

    @staticmethod
    def _check(conics, pairs, tol):
        points, counts = pencil_intersections(conics, pairs)
        for k, (i, j) in enumerate(pairs):
            want = scalar_conic_conic_intersections(conics[i], conics[j])
            assert counts[k] == len(want), (i, j)
            got = points[k, :counts[k]]
            assert np.all(np.isnan(points[k, counts[k]:]))
            if tol == 0:
                assert np.array_equal(got, np.array(want).reshape(-1, 2))
            elif want:
                assert np.max(np.abs(got - np.array(want))) <= tol, (i, j)

    @pytest.mark.parametrize("build", [
        lambda: pmn(4, 4), qcube_48,
        *[lambda s=s: dipyramid_carnot(8, seed=s) for s in range(3)],
        *[lambda s=s: richter_gebert(seed=s) for s in range(3)],
    ], ids=["pmn44", "qcube_48", "dipyramid8-0", "dipyramid8-1",
            "dipyramid8-2", "richter_gebert-0", "richter_gebert-1",
            "richter_gebert-2"])
    def test_every_pair_of_scene(self, build):
        conics = build().conics
        self._check(conics, _all_pairs(conics), 1e-14)

    def test_bit_identical_on_builder_and_tangent_pairs(self):
        for G in (crossed_ellipses(), *(polygon_ring(n) for n in range(3, 9))):
            self._check(G.conics, _all_pairs(G.conics), 0)
        conics = _tangent_family()
        self._check(conics, [(k, k + 1) for k in range(0, len(conics), 2)], 0)

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=40, deadline=None)
    def test_random_ellipses_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        conics = [random_ellipse(rng) for _ in range(5)]
        pairs = [(i, j) for i, j in _all_pairs(conics)
                 if not conics[i].same_as(conics[j])]
        self._check(conics, pairs, 0)
        for i, j in pairs[:2]:
            got = conic_conic_intersections(conics[i], conics[j])
            want = scalar_conic_conic_intersections(conics[i], conics[j])
            assert np.array_equal(np.array(got), np.array(want))

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
            pencil_intersections((C, A, B), [(0, 1), (1, 2)])

    def test_no_pairs(self):
        points, counts = pencil_intersections((UNIT_CIRCLE,), [])
        assert points.shape == (0, 4, 2) and counts.shape == (0,)
