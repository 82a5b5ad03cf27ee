"""Unit tests for audits, intersection types and isometry."""
import warnings

import numpy as np
import pytest

from pointconic.analysis import (audit, geometric_meets, intersection_type,
                                 intersection_type_combinatorial,
                                 isometry_check, strongly_isometric_to_circles)
from pointconic.configuration import GeometricConfiguration
from pointconic.constructions import (cell24, crossed_ellipses, ellipse_conic,
                                      pmn, polygon_ring, qcube_48,
                                      translate_conic)
from pointconic.geometry import (AffineMap2, Conic, GeometryError,
                                 apply_affine, apply_affine_point,
                                 ellipse_parameters)
from pointconic.incidence import catalog, new_incidence_structure


def _translate_family(num=5, seed=0):
    """A strongly isometric fixture: translates of one ellipse, each flagged
    with one point lying on it."""
    rng = np.random.default_rng(seed)
    base = ellipse_conic((0, 0), 0.8, 0.4, 0.6)
    shifts = rng.uniform(-2, 2, size=(num, 2))
    conics = tuple(translate_conic(base, v) for v in shifts)
    center, a, b, ang = ellipse_parameters(base)
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    pts = np.array([shifts[i] + center
                    + R @ np.array([a * np.cos(0.5 + i), b * np.sin(0.5 + i)])
                    for i in range(num)])
    flags = frozenset((i, i) for i in range(num))
    return GeometricConfiguration(pts, conics, flags, tol=1e-8)


class TestAudit:
    def test_crossed_passes(self):
        G = crossed_ellipses()
        rep = audit(G)
        assert rep.passed
        assert str(rep.signature) == "(4_2,2_4)"
        assert rep.max_flag_residual <= G.tol

    def test_missing_flag_detected(self):
        G = crossed_ellipses()
        bad = GeometricConfiguration(
            G.points + np.array([[0.0, 0.0], [0, 0], [0, 0], [0.05, 0.05]]),
            G.conics, G.flags, G.tol)
        rep = audit(bad)
        assert not rep.passed
        assert rep.missing_incidences

    def test_spurious_detected(self):
        G = crossed_ellipses()
        dropped = frozenset(list(sorted(G.flags))[1:])
        rep = audit(GeometricConfiguration(G.points, G.conics, dropped,
                                           G.tol))
        assert not rep.passed
        assert sorted(G.flags)[0] in rep.spurious_incidences

    def test_duplicate_points(self):
        pts = np.array([[0.0, 0.0], [0.0, 1e-9], [1.0, 1.0]])
        rep = audit(GeometricConfiguration(pts, (), frozenset(), 1e-8))
        assert rep.duplicate_points == ((0, 1),)
        assert not rep.passed

    def test_coincident_conics(self):
        c = ellipse_conic((0, 0), 1, 0.5, 0.2)
        rep = audit(GeometricConfiguration(np.zeros((0, 2)), (c, c),
                                           frozenset(), 1e-8))
        assert rep.coincident_conics == ((0, 1),)

    def test_flag_sampling(self):
        G = polygon_ring(5)
        rep = audit(G, flag_sample=10)
        assert rep.passed


class TestIntersectionType:
    def test_crossed(self):
        assert intersection_type(crossed_ellipses()).types == {4}

    def test_combinatorial_examples(self):
        assert intersection_type_combinatorial(catalog("miquel")).types == {2}
        empty = new_incidence_structure(3, 2, [])
        t = intersection_type_combinatorial(empty)
        assert t.types == frozenset() and not t.per_pair

    def test_disjoint_pairs_excluded(self):
        C = new_incidence_structure(
            4, 2, [(0, 0), (1, 0), (2, 1), (3, 1)])
        assert intersection_type_combinatorial(C).types == frozenset()

    def test_per_pair(self):
        t = intersection_type_combinatorial(catalog("miquel"))
        # 6 cube faces: 12 adjacent pairs share an edge, 3 opposite pairs
        # are disjoint.
        assert len(t.per_pair) == 12
        assert set(t.per_pair.values()) == {2}

    def test_affine_invariance(self):
        G = polygon_ring(4)
        M = AffineMap2(np.array([[1.2, 0.3], [-0.1, 0.9]]),
                       np.array([0.4, -0.2]))
        G2 = GeometricConfiguration(
            np.array([apply_affine_point(M, p) for p in G.points]),
            tuple(apply_affine(M, c) for c in G.conics), G.flags, G.tol)
        assert audit(G2).passed
        assert intersection_type(G2).types == intersection_type(G).types


class TestGeometricMeets:
    def test_crossed(self):
        res = geometric_meets(crossed_ellipses())
        assert res["counts"] == {(0, 1): 4}
        assert res["excess"] == ()

    def test_ring_consecutive(self):
        G = polygon_ring(3)
        res = geometric_meets(G)
        assert all(v == 4 for v in res["counts"].values())
        assert res["excess"] == ()
        assert max(res["counts"].values()) <= 4

    # Regression pins: the count of pairs meeting outside their configured
    # points, the same values perfbench/workloads.py pins. A fix of the
    # lines-through-the-origin basis fault in the pencil kernel's line
    # parametrization moves them (qcube_48: 533 -> 568), and must update
    # them here and in perfbench/workloads.py together.
    @pytest.mark.parametrize("build, excess", [
        (lambda: pmn(4, 4), 407), (lambda: pmn(4, 6), 816),
        (qcube_48, 533), (cell24, 1999)], ids=["pmn44", "pmn46", "qcube_48",
                                               "cell24"])
    def test_excess_pins(self, build, excess):
        G = build()
        res = geometric_meets(G)
        n = G.num_conics
        assert len(res["counts"]) == n * (n - 1) // 2
        assert len(res["excess"]) == excess

    def test_no_runtime_warnings(self):
        for G in (qcube_48(), cell24()):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                geometric_meets(G)

    def test_degenerate_and_coincident_rejected_up_front(self):
        G = crossed_ellipses()
        lines = Conic.from_coeffs(1, 0, -1, 0, 0, 0)
        bad = GeometricConfiguration(G.points, (*G.conics, lines), G.flags,
                                     G.tol)
        with pytest.raises(GeometryError, match="degenerate conic input"):
            geometric_meets(bad)
        twice = GeometricConfiguration(G.points, (*G.conics, G.conics[0]),
                                       G.flags, G.tol)
        with pytest.raises(GeometryError, match="coincident conics"):
            geometric_meets(twice)


class TestIsometry:
    def test_ring_isometric_not_strong(self):
        for n in (3, 5):
            assert isometry_check(polygon_ring(n)) == "isometric"

    def test_translates_strong(self):
        assert isometry_check(_translate_family()) == "strongly_isometric"

    def test_not_isometric(self):
        conics = (ellipse_conic((0, 0), 1, 0.5, 0),
                  ellipse_conic((0, 0), 0.7, 0.5, 0))
        G = GeometricConfiguration(np.zeros((0, 2)), conics, frozenset())
        assert isometry_check(G) == "not_isometric"

    def test_non_ellipse_rejected(self):
        from pointconic.geometry import Conic
        hyp = Conic.from_coeffs(1, 0, -1, 0, 0, -1)
        G = GeometricConfiguration(np.zeros((0, 2)), (hyp,), frozenset())
        with pytest.raises(GeometryError):
            isometry_check(G)

    def test_to_circles(self):
        G = _translate_family()
        out = strongly_isometric_to_circles(G)
        radii = []
        for c in out.conics:
            _, a, b, _ = ellipse_parameters(c)
            assert abs(a - b) < 1e-8
            radii.append(a)
        assert np.ptp(radii) < 1e-8
        assert audit(out).passed

    def test_to_circles_precondition(self):
        with pytest.raises(GeometryError, match="strongly isometric"):
            strongly_isometric_to_circles(polygon_ring(3))
