"""Unit tests for audits, intersection types and isometry."""
import math
import warnings
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_force_coincident_pairs,
                      brute_force_duplicate_pairs, conics_of,
                      dense_sampson_scan, list_geometric_meets,
                      per_flag_check, random_ellipse, stack_of)
from pointconic import analysis, io
from pointconic.analysis import (SPURIOUS_REL, audit, geometric_meets,
                                 intersection_type,
                                 intersection_type_combinatorial,
                                 isometry_check, strongly_isometric_to_circles)
from pointconic.configuration import GeometricConfiguration
from pointconic.constructions import (cell24, crossed_ellipses,
                                      dipyramid_carnot, ellipse_conic, pmn,
                                      polygon_ring, product, qcube_48,
                                      realize_by_conics,
                                      realize_lineal_by_circles,
                                      richter_gebert, translate_conics)
from pointconic.geometry import (AffineMap2, Conic, GeometryError, _conic_of,
                                 apply_affine, apply_affine_point,
                                 dilation_to_circle, ellipse_parameters)
from pointconic.cli import main
from pointconic.incidence import (block_pair_counts, catalog,
                                  new_incidence_structure)


def _translate_family(num=5, seed=0):
    """A strongly isometric fixture: translates of one ellipse, each flagged
    with one point lying on it."""
    rng = np.random.default_rng(seed)
    base = ellipse_conic((0, 0), 0.8, 0.4, 0.6)
    shifts = rng.uniform(-2, 2, size=(num, 2))
    conics = conics_of(translate_conics(base.form, shifts))
    center, a, b, ang = ellipse_parameters(base)
    R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    pts = np.array([shifts[i] + center
                    + R @ np.array([a * np.cos(0.5 + i), b * np.sin(0.5 + i)])
                    for i in range(num)])
    flags = frozenset((i, i) for i in range(num))
    return GeometricConfiguration(pts, conics, flags, tol=1e-8)


def _mapped(G, M: AffineMap2) -> GeometricConfiguration:
    """G with its points and conics carried through the affine map M."""
    return GeometricConfiguration(
        np.array([apply_affine_point(M, p) for p in G.points]),
        tuple(apply_affine(M, c) for c in G.conics), G.flags, G.tol)


def _similarity(scale: float, angle: float, shift) -> AffineMap2:
    """x -> scale * (R(angle) x + shift)."""
    R = np.array([[math.cos(angle), -math.sin(angle)],
                  [math.sin(angle), math.cos(angle)]])
    return AffineMap2(scale * R, scale * np.asarray(shift, float))


def _minkowski_square():
    d = dipyramid_carnot(3, seed=0)
    return product(d, d, genericize=True, seed=1)


# One scene per builder and realizer, all at unit scale.
BUILDERS = {
    "crossed_ellipses": crossed_ellipses,
    "polygon_ring": lambda: polygon_ring(5),
    "qcube_48": qcube_48,
    "richter_gebert": lambda: richter_gebert(seed=1),
    "dipyramid_carnot": lambda: dipyramid_carnot(4, seed=3),
    "pmn": lambda: pmn(4, 6),
    "cell24": cell24,
    "product": _minkowski_square,
    "realize_lineal_by_circles":
        lambda: realize_lineal_by_circles(catalog("pappus"), seed=0),
    "realize_by_conics": lambda: realize_by_conics(catalog("miquel"), seed=0),
}


@cache
def _scene(name: str) -> GeometricConfiguration:
    return BUILDERS[name]()


def _verdict(rep):
    return (rep.passed, rep.spurious_incidences, rep.missing_incidences,
            rep.duplicate_points, rep.coincident_conics)


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

    def test_empty_scenes_scan_nothing(self):
        conics = (ellipse_conic((0, 0), 1, 0.5, 0.2),
                  ellipse_conic((1, 0), 1, 0.5, 0.2))
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        for pts, cs in ((np.zeros((0, 2)), conics), (points, ()),
                        (np.zeros((0, 2)), ())):
            rep = audit(GeometricConfiguration(pts, cs, frozenset(), 1e-8))
            assert rep.spurious_incidences == ()
            assert rep.borderline_incidences == ()
            assert rep.passed


def _offset(G, seed: int, share: float, scale: float):
    """G with a `share` of its points moved by about `scale` in random
    directions, so some of their flags fail at `G.tol`."""
    rng = np.random.default_rng(seed)
    moved = rng.random(G.num_points) < share
    step = rng.normal(size=(G.num_points, 2)) * scale * moved[:, None]
    return GeometricConfiguration(G.points + step, G.conics, G.flags, G.tol)


# The residual |h^T A h| of a unit-norm homogenized point h and a unit-norm
# form A is a sum of terms of size at most 1, so the stacked pass and the
# per-flag loop may differ by a few units of rounding at that scale.
_RESIDUAL_ULPS = 4 * np.finfo(float).eps


class TestStackedFlagCheck:
    """The audit's one stacked residual pass against the per-flag loop."""

    @pytest.mark.parametrize("name", BUILDERS)
    def test_builders_match_per_flag_loop(self, name):
        G = _scene(name)
        rep = audit(G)
        max_res, missing = per_flag_check(G)
        assert list(rep.missing_incidences) == missing == []
        assert abs(rep.max_flag_residual - max_res) <= _RESIDUAL_ULPS

    @pytest.mark.parametrize("name", ["polygon_ring", "richter_gebert",
                                      "pmn", "cell24", "product",
                                      "realize_by_conics"])
    @pytest.mark.parametrize("seed, scale", [(0, 1e-3), (1, 1e-7),
                                             (2, 1e-9)])
    def test_planted_offsets_match_per_flag_loop(self, name, seed, scale):
        G = _offset(_scene(name), seed, 0.3, scale)
        rep = audit(G)
        max_res, missing = per_flag_check(G)
        assert list(rep.missing_incidences) == missing
        assert abs(rep.max_flag_residual - max_res) <= _RESIDUAL_ULPS
        if scale == 1e-3:
            assert missing and not rep.passed


class TestDuplicatesAndCoincidences:
    """The projection searches for duplicate points and coincident conics
    against brute force over every pair."""

    @staticmethod
    def _check_points(points, tol):
        got = analysis._duplicate_pairs(points, tol)
        assert got == brute_force_duplicate_pairs(points, tol)
        return got

    @pytest.mark.parametrize("seed", range(6))
    def test_planted_near_pairs(self, seed):
        rng = np.random.default_rng(seed)
        tol = 1e-3
        base = rng.uniform(0, 1, size=(60, 2))
        near = base[:20] + rng.normal(size=(20, 2)) * tol * rng.uniform(
            0.1, 1.5, size=(20, 1))
        points = rng.permutation(np.concatenate([base, near, base[:3]]))
        assert self._check_points(points, tol)

    def test_cell_corners_exactly_tol_apart(self):
        tol = 2.0 ** -10
        i, j = np.meshgrid(np.arange(-3, 4), np.arange(-3, 4))
        lattice = np.column_stack([i.ravel(), j.ravel()]) * tol
        # Lattice neighbours lie exactly tol apart, which is no duplicate.
        assert self._check_points(lattice, tol) == []
        halves = lattice[::5] + [tol / 2, 0.0]
        rng = np.random.default_rng(0)
        points = rng.permutation(np.concatenate([lattice, halves]))
        got = self._check_points(points, tol)
        assert len(got) == 2 * len(halves) - sum(
            abs(x / tol) + 0.5 > 3 for x in halves[:, 0])

    def test_pair_across_a_cell_edge(self):
        # A grid hash with unit cells that pairs adjacent cells only when
        # the point in the lower cell has the lower index misses this pair.
        points = np.array([[0.5, 1.2], [0.5, 0.9]])
        assert self._check_points(points, 1.0) == [(0, 1)]

    def test_far_from_the_origin(self):
        points = np.array([[1e7, 3e6], [2e7, 3e6], [1e7, 3e6],
                           [-4e9, 1e9], [-4e9, 1e9 + 1e-6]])
        assert self._check_points(points, 1e-9) == [(0, 2)]

    @staticmethod
    def _straddling_pair():
        """Two conics whose forms differ by ~1e-11 while form[0, 0] rounds
        to different 5-decimal values."""
        def conic(c0):
            return Conic.from_coeffs(c0, 0.2, 2, 0.3, -0.4, -1)
        lo, hi = 0.5, 1.5
        target = 0.403405
        assert conic(lo).form[0, 0] < target < conic(hi).form[0, 0]
        while hi - lo > 2e-11:
            mid = 0.5 * (lo + hi)
            if conic(mid).form[0, 0] < target:
                lo = mid
            else:
                hi = mid
        return conic(lo), conic(hi)

    def test_coincident_pair_across_a_rounding_boundary(self):
        a, b = self._straddling_pair()
        assert np.linalg.norm(a.form - b.form) < 1e-10 and a.same_as(b)
        assert round(a.form[0, 0], 5) != round(b.form[0, 0], 5)
        c = ellipse_conic((0, 0), 1, 0.5, 0.2)
        assert analysis._coincident_pairs(stack_of([a, c, b])) == [(0, 2)]
        rep = audit(GeometricConfiguration(np.zeros((0, 2)), (a, c, b),
                                           frozenset(), 1e-8))
        assert rep.coincident_conics == ((0, 2),) and not rep.passed

    @pytest.mark.parametrize("name", BUILDERS)
    def test_builders_match_rounding(self, name):
        G = _scene(name)
        forms = np.concatenate([G.forms, G.forms[::3]])
        got = analysis._coincident_pairs(forms)
        assert got == brute_force_coincident_pairs(forms)
        B = G.num_conics
        assert set(got) >= {(i, B + k) for k, i in
                            enumerate(range(0, B, 3))}


class TestSpuriousScan:
    """The chunked GEMM scan against the dense per-conic Sampson scan."""

    @pytest.mark.parametrize("name", BUILDERS)
    def test_builders_match_oracles(self, name):
        G = _scene(name)
        rep = audit(G)
        spurious, borderline = dense_sampson_scan(G)
        assert set(rep.spurious_incidences) == spurious
        assert set(rep.borderline_incidences) == borderline
        assert not spurious  # no unflagged point lies on a conic

    def test_minkowski_cube_matches_oracle(self):
        d = dipyramid_carnot(3, seed=0)
        cube = product(_minkowski_square(), d, genericize=True, seed=2)
        rep = audit(cube)
        spurious, borderline = dense_sampson_scan(cube)
        assert set(rep.spurious_incidences) == spurious == set()
        assert set(rep.borderline_incidences) == borderline
        assert rep.passed

    # Relative distances that straddle SPURIOUS_REL and 10 * SPURIOUS_REL,
    # with the verdict each must get.
    PLANTED = {0.9 * SPURIOUS_REL: "spurious",
               1.1 * SPURIOUS_REL: "borderline",
               5 * SPURIOUS_REL: "borderline",
               9 * SPURIOUS_REL: "borderline",
               11 * SPURIOUS_REL: None, 20 * SPURIOUS_REL: None}

    @given(seed=st.integers(0, 2 ** 32 - 1),
           num_conics=st.integers(1, 6),
           per_conic=st.integers(1, 6),
           planted=st.lists(st.tuples(st.integers(0, 5),
                                      st.sampled_from(sorted(PLANTED)),
                                      st.sampled_from([-1.0, 1.0])),
                            max_size=8),
           log_scale=st.floats(-3, 3),
           shift=st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
           chunk=st.sampled_from([1, 5, 17, 64, 1 << 20]))
    @settings(max_examples=150, deadline=None)
    def test_planted_points_match_oracle(self, seed, num_conics, per_conic,
                                         planted, log_scale, shift, chunk):
        # Random ellipses alternate with random symmetric forms (mostly
        # hyperbolas); points on them are cut by random lines through the
        # unit box. Then the scene is scaled
        # and shifted (not rotated, which would change the bounding box),
        # and the planted points are moved off their conic along its normal
        # by the listed multiples of the scene's diameter.
        rng = np.random.default_rng(seed)
        conics = [Conic(rng.normal(size=(3, 3))) if k % 2 else
                  random_ellipse(rng) for k in range(num_conics)]

        def on_conic(b):
            A = conics[b].form
            for _ in range(100):
                h0 = np.append(rng.uniform(-1, 1, 2), 1.0)
                u = np.append(rng.normal(size=2), 0.0)
                a, bh, c = u @ A @ u, u @ A @ h0, h0 @ A @ h0
                if a * c < bh * bh and abs(a) > 1e-3:
                    t = (-bh + rng.choice([-1, 1]) * math.sqrt(bh * bh - a * c)
                         ) / a
                    if np.linalg.norm(h0 + t * u) <= 2:
                        return (h0 + t * u)[:2]
            return None

        flagged = [(p, b) for b in range(num_conics) for _ in range(per_conic)
                   if (p := on_conic(b)) is not None]
        planted = [(b, rel, sign, p) for j, rel, sign in planted
                   if (p := on_conic(b := j % num_conics)) is not None]
        M = _similarity(10.0 ** log_scale, 0.0, shift)
        conics = [apply_affine(M, c) for c in conics]
        pts = np.array([apply_affine_point(M, p) for p, _ in flagged]
                       + [apply_affine_point(M, p) for *_, p in planted]
                       ).reshape(-1, 2)
        D = math.hypot(*np.ptp(pts, axis=0)) if len(pts) else 0.0
        for k, (b, rel, sign, _) in enumerate(planted):
            grad = conics[b].form[:2] @ np.append(pts[len(flagged) + k], 1.0)
            pts[len(flagged) + k] += sign * rel * D * grad / np.linalg.norm(
                grad)
        flags = frozenset((k, b) for k, (_, b) in enumerate(flagged))
        G = GeometricConfiguration(pts, tuple(conics), flags)
        with mock.patch.object(analysis, "_SCAN_ELEMENTS", chunk):
            rep = audit(G)
        spurious, borderline = dense_sampson_scan(G)
        assert set(rep.spurious_incidences) == spurious
        assert set(rep.borderline_incidences) == borderline
        for k, (b, rel, *_) in enumerate(planted):
            pair = (len(flagged) + k, b)
            verdict = self.PLANTED[rel]
            assert (pair in spurious) == (verdict == "spurious")
            assert (pair in borderline) == (verdict == "borderline")


    @pytest.mark.parametrize("rel", sorted(PLANTED))
    def test_prefilter_keeps_the_steepest_pairs(self, rel):
        # In the normalized frame, where |q| <= 1, the line pair made of the
        # line through q and the centroid and the line x X + y Y + 1 = 0
        # meets q at slope |grad f| = sqrt(2) |(q, 1)|, the steepest any
        # unit form can be there. A cluster of points far from q puts the
        # centroid near a corner, so |q| ~ 0.98 and |grad f| ~ 1.98.
        rng = np.random.default_rng(8)
        pts = np.vstack([rng.uniform(0, 0.01, size=(49, 2)), [1.0, 1.0]])
        pts += (5.0, -3.0)
        c = pts.mean(axis=0)
        D = math.hypot(*np.ptp(pts, axis=0))
        q = (pts[-1] - c) / D
        u, v = np.array([-q[1], q[0], 0.0]), np.append(q, 1.0)
        Tinv = np.linalg.inv(np.array([[D, 0, c[0]], [0, D, c[1]],
                                       [0, 0, 1.0]]))
        lines = Conic(Tinv.T @ (np.outer(u, v) + np.outer(v, u)) @ Tinv)
        grad = lines.form[:2] @ np.append(pts[-1], 1.0)
        pts[-1] += rel * D * grad / np.linalg.norm(grad)
        G = GeometricConfiguration(pts, (lines,), frozenset())
        rep = audit(G)
        spurious, borderline = dense_sampson_scan(G)
        assert set(rep.spurious_incidences) == spurious
        assert set(rep.borderline_incidences) == borderline
        verdict = self.PLANTED[rel]
        assert ((49, 0) in spurious) == (verdict == "spurious")
        assert ((49, 0) in borderline) == (verdict == "borderline")


class TestScaleInvariance:
    """An audit's verdict does not depend on the scene's position or size."""

    @given(name=st.sampled_from(sorted(BUILDERS)),
           log_scale=st.floats(-3, 3),
           angle=st.floats(0, 2 * math.pi),
           shift=st.tuples(st.floats(-10, 10), st.floats(-10, 10)))
    @settings(max_examples=80, deadline=None)
    def test_verdict_invariant_under_similarity(self, name, log_scale, angle,
                                                shift):
        # The shift is drawn in units of the scale: a scene carried far from
        # the origin relative to its size loses digits no audit can restore.
        G = _scene(name)
        M = _similarity(10.0 ** log_scale, angle, shift)
        assert _verdict(audit(_mapped(G, M))) == _verdict(audit(G))

    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e3])
    def test_rotated_shifted_square_passes(self, s):
        # The former absolute-residual scan reported 12,622, 4 and 66,310
        # spurious incidences here at s = 1e-3, 1 and 1e3.
        G = _mapped(_scene("product"), _similarity(s, 0.7, (3.0, -2.0)))
        rep = audit(G)
        assert rep.passed
        assert rep.spurious_incidences == ()


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

    def test_analyze_builds_no_pair_dict(self, tmp_path, capsys):
        # analyze prints the type set only, which comes from the count
        # array; the 78,732-entry per-pair dict of the seed-0 cube is built
        # only when read.
        d = dipyramid_carnot(3, seed=0)
        cube = product(product(d, d, genericize=True, seed=1), d,
                       genericize=True, seed=2)
        path = tmp_path / "cube.json"
        io.write_configuration(cube, path)
        with mock.patch.object(analysis, "_pair_dict",
                               side_effect=AssertionError) as pair_dict:
            assert main(["analyze", "-i", str(path)]) == 0
            t = intersection_type(cube)
        assert pair_dict.call_count == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "signature (5832_6)", "intersection type {1,2}"]
        C = cube.to_incidence_structure()
        assert t.per_pair == block_pair_counts(C)
        assert len(t.per_pair) == 78732 and t.per_pair is t.per_pair
        assert t == intersection_type_combinatorial(C)

    def test_affine_invariance(self):
        G = polygon_ring(4)
        M = AffineMap2(np.array([[1.2, 0.3], [-0.1, 0.9]]),
                       np.array([0.4, -0.2]))
        G2 = _mapped(G, M)
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

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_matches_pair_list_oracle(self, name):
        # The counts dict (keys in combinations order, int values) and the
        # excess tuple, against the pair-list and per-pair-loop original.
        G = _scene(name)
        got, want = geometric_meets(G), list_geometric_meets(G)
        assert got == want
        assert list(got["counts"].items()) == list(want["counts"].items())
        assert all(type(n) is int for n in got["counts"].values())
        assert all(type(i) is int for p in got["excess"] for i in p)

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

    def test_to_circles_builds_one_conic(self):
        # The dilation comes from the first conic alone, and the points are
        # mapped in one stacked pass with the per-point call's bits.
        G = _translate_family(num=200)
        calls = []

        def counted(*args):
            calls.append(args)
            return _conic_of(*args)
        with mock.patch.object(analysis, "_conic_of", counted), \
                mock.patch("pointconic.configuration._conic_of", counted):
            out = strongly_isometric_to_circles(G)
        assert len(calls) == 1 and "conics" not in vars(G)
        M = dilation_to_circle(G.conics[0])
        want = np.array([apply_affine_point(M, p) for p in G.points])
        assert out.points.tobytes() == want.tobytes()

    def test_to_circles_without_conics(self):
        # A scene with no conics is strongly isometric; there is no conic to
        # take the dilation from, so it comes back as it is.
        for points in (np.zeros((0, 2)), np.array([[1.5, -0.0], [2.0, 3.0]])):
            G = GeometricConfiguration(points, (), frozenset(),
                                       provenance={"builder": "none"})
            out = strongly_isometric_to_circles(G)
            assert out.points.tobytes() == G.points.tobytes()
            assert out.forms.shape == (0, 3, 3) and out.num_conics == 0
            assert out.provenance == {"builder": "none",
                                      "transform": "dilation-to-circles"}
            assert audit(out).passed

    def test_to_circles_precondition(self):
        with pytest.raises(GeometryError, match="strongly isometric"):
            strongly_isometric_to_circles(polygon_ring(3))
