"""Acceptance suite: one printed pass/fail line per criterion.

Each criterion prints directly to the real stdout (bypassing capture) so a
plain `pytest` run still shows the 14 verdict lines.
"""
import math
import sys
import time
from collections import Counter

import numpy as np
import pytest

from conftest import (carnot_six_from_conic, no_3_collinear, no_4_concyclic,
                      random_conical_structure, random_ellipse,
                      sweep_intersections)
from pointconic.analysis import (audit, intersection_type, isometry_check,
                                 strongly_isometric_to_circles)
from pointconic.configuration import GeometricConfiguration
from pointconic.constructions import (cell24, crossed_ellipses,
                                      dipyramid_carnot, ellipse_conic,
                                      hypercube, pmn, polygon_ring, product,
                                      qcube_48,
                                      realize_by_conics,
                                      realize_lineal_by_circles,
                                      richter_gebert, translate_conic)
from pointconic.geometry import (apply_affine_point, carnot_product,
                                 conic_conic_intersections,
                                 conic_from_5_points, ellipse_parameters)
from pointconic.incidence import catalog, girth, levi_graph, property_report, \
    signature as inc_signature, vertex_connectivity


def criterion(num, title):
    """Run the wrapped check and print one verdict line for it.

    The line is emitted with capture disabled so it shows up on the real
    terminal even under pytest's default fd-level capture.
    """
    def deco(fn):
        def run(capfd):
            def emit(line):
                with capfd.disabled():
                    print(line, file=sys.__stdout__, flush=True)
            try:
                fn()
            except BaseException as exc:
                msg = (str(exc).splitlines()[0] if str(exc)
                       else type(exc).__name__)
                emit(f"criterion {num:2d} [{title}]: FAIL — {msg}")
                raise
            emit(f"criterion {num:2d} [{title}]: PASS")
        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run
    return deco


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


@criterion(1, "pmn(4,4)")
def test_criterion_01():
    (G, dt) = _timed(lambda: pmn(4, 4))
    rep = audit(G)
    assert rep.passed
    assert str(rep.signature) == "(32_6)"
    assert intersection_type(G).types == {1, 2}
    assert rep.max_flag_residual <= 1e-8
    assert dt < 1.0, f"build took {dt:.2f}s"


@criterion(2, "qcube_48")
def test_criterion_02():
    """The (48_6) from the 4-cube has intersection type {1,2,4}.

    The paper states {1,4} for its (48_6). This construction cannot give
    that: two faces sharing the edge ab each carry one ellipse through the
    diagonal at a, and both of those ellipses pass through a and through the
    midpoint of ab, and through no other common configuration point. So the
    pairs split into 24 that share 4 points (the two ellipses of one face,
    through its four edge midpoints), 192 that share a vertex and the
    midpoint of an edge at it (32 edges x 3 face pairs per edge x 2
    vertices), and 240 that share 1 point (192 a midpoint, 48 a vertex:
    16 vertices x the 3 face pairs that meet only there).
    """
    (G, dt) = _timed(qcube_48)
    rep = audit(G)
    assert rep.passed
    assert str(rep.signature) == "(48_6)"
    C = G.to_incidence_structure()
    assert all(C.point_degree(p) == 6 for p in range(48))
    assert dt < 1.0, f"build took {dt:.2f}s"
    it = intersection_type(G)
    got = set(it.types)
    assert got == {1, 2, 4}, (
        f"intersection type is {{{','.join(map(str, sorted(got)))}}}, "
        "not {1,2,4}")
    assert Counter(it.per_pair.values()) == {4: 24, 2: 192, 1: 240}
    # Builder numbering: vertices 0..15, edge k's midpoint 16 + k, and
    # face f's two ellipses are conics 2f and 2f + 1.
    poly = hypercube()
    shared = {pair: C.points_of_block(pair[0]) & C.points_of_block(pair[1])
              for pair in it.per_pair}
    for f, face in enumerate(poly.faces2):
        mids = {16 + poly.edges.index(tuple(sorted((face[k - 1], face[k]))))
                for k in range(4)}
        assert shared[(2 * f, 2 * f + 1)] == mids, face
    for pair, n in it.per_pair.items():
        if n == 2:
            v, m = sorted(shared[pair])
            assert v < 16 <= m and v in poly.edges[m - 16], (pair, v, m)
    ones = Counter(p < 16 for pair, n in it.per_pair.items() if n == 1
                   for p in shared[pair])
    assert ones == {False: 192, True: 48}


@criterion(3, "cell24")
def test_criterion_03():
    (G, dt) = _timed(cell24)
    rep = audit(G)
    assert rep.passed
    assert str(rep.signature) == "(96_6)"
    assert intersection_type(G).types == {1, 2}
    radii = np.asarray(G.provenance["circumradii_4d"], float)
    assert np.max(np.abs(radii - math.sqrt(2) / 2)) < 1e-10
    assert dt < 2.0, f"build took {dt:.2f}s"


@criterion(4, "pmn family")
def test_criterion_04():
    t0 = time.perf_counter()
    for (m, n) in ((4, 6), (6, 6), (6, 8), (8, 8)):
        G = pmn(m, n)
        rep = audit(G)
        assert rep.passed, (m, n)
        sig = rep.signature
        assert (sig.p, sig.q, sig.n, sig.k) == (2 * m * n, 6, 2 * m * n, 6)
    assert time.perf_counter() - t0 < 5.0


@criterion(5, "Carnot biconditional")
def test_criterion_05():
    rng = np.random.default_rng(20260823)
    for _ in range(1000):
        tri, pts, _ = carnot_six_from_conic(rng)
        assert abs(carnot_product(tri, pts) - 1.0) <= 1e-9
    for _ in range(1000):
        tri, pts, _ = carnot_six_from_conic(rng)
        slot = int(rng.integers(0, 6))
        side = (tri[1], tri[2], tri[0])[slot // 2], \
               (tri[2], tri[0], tri[1])[slot // 2]
        d = side[1] - side[0]
        shift = rng.uniform(1e-3, 1e-2) * rng.choice([-1, 1])
        pts[slot] = pts[slot] + shift * d / np.linalg.norm(d)
        try:
            prod = carnot_product(tri, pts)
        except Exception:
            continue  # perturbation landed on a vertex: still detected
        assert abs(prod - 1.0) > 1e-6


@criterion(6, "richter_gebert")
def test_criterion_06():
    for seed in range(100):
        G = richter_gebert(seed=seed)
        assert (G.num_points, G.num_conics, len(G.flags)) == (12, 4, 24)
        assert G.provenance["closure_residual"] <= 1e-7
        for (p, b) in G.flags:
            assert G.conics[b].residual(G.points[p]) <= 1e-7
        assert G.provenance["type"] == "(12_2,4_6)"
        assert "type_note" in G.provenance


@criterion(7, "dipyramid_carnot")
def test_criterion_07():
    t0 = time.perf_counter()
    for n in range(3, 9):
        G = dipyramid_carnot(n, seed=0)
        sig = audit(G).signature
        assert (sig.p, sig.q, sig.n, sig.k) == (6 * n, 2, 2 * n, 6)
        for tri, pts in zip(G.provenance["face_triangles"],
                            G.provenance["face_points"]):
            tri = [np.asarray(v, float) for v in tri]
            six = [G.points[i] for i in pts]
            assert abs(carnot_product(tri, six) - 1.0) <= 1e-6
    assert time.perf_counter() - t0 < 2.0


@criterion(8, "Minkowski cube of dipyramid(3)")
def test_criterion_08():
    t0 = time.perf_counter()
    d = dipyramid_carnot(3, seed=0)
    sq = product(d, d, genericize=True, seed=1)
    cube = product(sq, d, genericize=True, seed=2)
    assert cube.num_points == 5832
    assert cube.num_conics == 5832
    C = cube.to_incidence_structure()
    sig = inc_signature(C)
    assert (sig.p, sig.q, sig.n, sig.k) == (5832, 6, 5832, 6)
    rep = audit(cube, spurious_scan=False, flag_sample=500)
    assert rep.passed
    rep = audit(cube)
    assert rep.passed and not rep.spurious_incidences
    assert time.perf_counter() - t0 < 30.0


def test_minkowski_cube_properties():
    """`props` at criterion-8 scale: the cube's 11,664-node Levi graph."""
    d = dipyramid_carnot(3, seed=0)
    sq = product(d, d, genericize=True, seed=1)
    C = product(sq, d, genericize=True, seed=2).to_incidence_structure()
    (rep, dt) = _timed(lambda: property_report(C))
    assert rep.girth == 4 and rep.vertex_connectivity == 6
    assert rep.circular and rep.strongly_circular
    assert rep.conical and rep.strongly_conical and not rep.lineal
    assert dt < 15.0


@criterion(9, "polygon_ring family")
def test_criterion_09():
    for n in range(3, 11):
        G = polygon_ring(n)
        sig = audit(G).signature
        assert (sig.p, sig.q, sig.n, sig.k) == (4 * n, 2, n, 8)
        axes = np.array([ellipse_parameters(c)[1:3] for c in G.conics])
        assert np.ptp(axes, axis=0).max() < 1e-8
        assert isometry_check(G) == "isometric"


@criterion(10, "combinatorial catalog")
def test_criterion_10():
    small = catalog("anti-miquel-small")
    assert str(inc_signature(small)) == "(16_3,12_4)"
    assert property_report(small).strongly_circular
    assert vertex_connectivity(levi_graph(small)) == 2
    large = catalog("anti-miquel-large")
    assert str(inc_signature(large)) == "(32_3,24_4)"
    assert property_report(large).strongly_circular
    assert vertex_connectivity(levi_graph(large)) == 2
    fano = catalog("fano")
    assert property_report(fano).lineal
    assert girth(levi_graph(fano)) == 6


@criterion(11, "circle realizations")
def test_criterion_11():
    for name in ("fano", "pappus"):
        C = catalog(name)
        for seed in range(10):
            G = realize_lineal_by_circles(C, seed=seed)
            assert audit(G).passed
            assert no_3_collinear(G.points, 1e-9)
            assert no_4_concyclic(G.points, 1e-9)


@criterion(12, "conic realizations")
def test_criterion_12():
    rng = np.random.default_rng(12)
    for k in range(20):
        C = random_conical_structure(rng)
        G = realize_by_conics(C, seed=k)
        rep = audit(G)
        assert rep.passed and not rep.spurious_incidences


@criterion(13, "strongly isometric to circles")
def test_criterion_13():
    rng = np.random.default_rng(13)
    base = ellipse_conic((0, 0), 0.9, 0.35, 0.8)
    shifts = rng.uniform(-2, 2, size=(6, 2))
    conics = tuple(translate_conic(base, v) for v in shifts)
    center, a, b, ang = ellipse_parameters(base)
    R = np.array([[math.cos(ang), -math.sin(ang)],
                  [math.sin(ang), math.cos(ang)]])
    pts = np.array([shifts[i] + center
                    + R @ np.array([a * math.cos(0.4 * i),
                                    b * math.sin(0.4 * i)])
                    for i in range(6)])
    G = GeometricConfiguration(pts, conics,
                               frozenset((i, i) for i in range(6)), tol=1e-8)
    assert audit(G).passed
    out = strongly_isometric_to_circles(G)
    radii = []
    for c in out.conics:
        _, ra, rb, _ = ellipse_parameters(c)
        assert abs(ra - rb) < 1e-8
        radii.append(ra)
    assert np.ptp(radii) < 1e-8
    assert audit(out).passed


@criterion(14, "kernel property suite")
def test_criterion_14():
    rng = np.random.default_rng(14)
    # Fit round-trip on 100 random ellipses.
    for _ in range(100):
        target = random_ellipse(rng)
        center, a, b, ang = ellipse_parameters(target)
        R = np.array([[math.cos(ang), -math.sin(ang)],
                      [math.sin(ang), math.cos(ang)]])
        ts = rng.uniform(0, 2 * math.pi, size=5)
        if np.min(np.abs(np.subtract.outer(ts, ts)) + np.eye(5)) < 0.05:
            continue
        pts = [center + R @ np.array([a * math.cos(t), b * math.sin(t)])
               for t in ts]
        fitted = conic_from_5_points(pts)
        dist = min(np.linalg.norm(fitted.form - target.form),
                   np.linalg.norm(fitted.form + target.form))
        assert dist < 1e-8
    # Intersection vs sweep oracle on 500 pairs; never more than 4 points.
    done = 0
    while done < 500:
        A, B = random_ellipse(rng), random_ellipse(rng)
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
    # Coincident-conic detection from 5 shared points.
    for _ in range(20):
        base = random_ellipse(rng)
        center, a, b, ang = ellipse_parameters(base)
        R = np.array([[math.cos(ang), -math.sin(ang)],
                      [math.sin(ang), math.cos(ang)]])
        ts = np.sort(rng.uniform(0, 2 * math.pi, size=5))
        if np.min(np.diff(ts)) < 0.1:
            continue
        pts = [center + R @ np.array([a * math.cos(t), b * math.sin(t)])
               for t in ts]
        c1 = conic_from_5_points(pts)
        c2 = conic_from_5_points(list(reversed(pts)))
        with pytest.raises(Exception, match="coincident"):
            conic_conic_intersections(c1, c2)
