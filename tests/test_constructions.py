"""Unit tests for the geometric builders."""
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (circle_through_3_points, loop_carnot_scene,
                      loop_cell24, loop_hexagon_configuration, loop_pmn,
                      loop_polygon_ring, loop_qcube_48, nested_product_flags,
                      no_3_collinear, no_4_concyclic,
                      random_conical_structure, scalar_apply_affine,
                      scalar_conic_through_padded, scalar_ellipse_conic,
                      scalar_translate_conic, symbolic_hexagons_in_prisms)
from pointconic import constructions, io
from pointconic.analysis import audit, intersection_type, isometry_check
from pointconic.cli import main
from pointconic.configuration import GeometricConfiguration, Polytope4
from pointconic.constructions import (ConstructionError, cell24,
                                      cell24_polytope, crossed_ellipses,
                                      dipyramid_carnot, ellipse_conic,
                                      generic_projection, hypercube,
                                      octagonal_projection,
                                      parallelogram_ellipse_pair, pmn,
                                      polygon_ring, prism_product, product,
                                      qcube_48, realize_by_conics,
                                      realize_lineal_by_circles,
                                      richter_gebert)
from pointconic.geometry import (AffineMap2, Conic, GeometryError,
                                 Projection4to2, apply_affine_point,
                                 carnot_product, classify, ellipse_parameters)
from pointconic.incidence import (catalog, catalog_names,
                                  new_incidence_structure)


class TestCrossedEllipses:
    def test_counts_and_type(self):
        G = crossed_ellipses()
        assert (G.num_points, G.num_conics, len(G.flags)) == (4, 2, 8)
        assert audit(G).passed
        assert intersection_type(G).types == {4}
        assert isometry_check(G) == "isometric"


class TestPolygonRing:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_signature(self, n):
        G = polygon_ring(n)
        sig = audit(G).signature
        assert (sig.p, sig.q, sig.n, sig.k) == (4 * n, 2, n, 8)

    def test_congruent(self):
        G = polygon_ring(5)
        axes = [ellipse_parameters(c)[1:3] for c in G.conics]
        assert np.ptp([a for a, _ in axes]) < 1e-8
        assert np.ptp([b for _, b in axes]) < 1e-8

    def test_bad_params(self):
        with pytest.raises((ConstructionError, GeometryError, ValueError)):
            polygon_ring(2)


class TestParallelogramPair:
    def test_unit_square_midpoints(self):
        A, B, C, D = (0, 0), (1, 0), (1, 1), (0, 1)
        e_ac, e_bd, side = parallelogram_ellipse_pair(A, B, C, D, t=0.5)
        for conic in (e_ac, e_bd):
            assert classify(conic) == "ellipse"
            for p in side:
                assert conic.residual(p) < 1e-10
        assert e_ac.residual(np.array(A)) < 1e-10
        assert e_ac.residual(np.array(C)) < 1e-10
        assert e_bd.residual(np.array(B)) < 1e-10
        assert e_bd.residual(np.array(D)) < 1e-10

    def test_sheared_square(self):
        A, B = np.array([0, 0.0]), np.array([1, 0.0])
        D = np.array([0.3, 1.0])
        C = B + D - A
        e_ac, e_bd, _ = parallelogram_ellipse_pair(A, B, C, D, t=0.4)
        assert classify(e_ac) == "ellipse"
        assert classify(e_bd) == "ellipse"
        # Both ellipses are centred at the parallelogram's centre.
        centre = (A + C) / 2
        for conic in (e_ac, e_bd):
            got = ellipse_parameters(conic)[0]
            assert np.linalg.norm(got - centre) < 1e-9

    def test_not_parallelogram(self):
        with pytest.raises(GeometryError, match="parallelogram"):
            parallelogram_ellipse_pair((0, 0), (1, 0), (1, 1), (0.2, 1.1))

    def test_t_range(self):
        with pytest.raises(GeometryError):
            parallelogram_ellipse_pair((0, 0), (1, 0), (1, 1), (0, 1), t=0.0)


class TestHypercubeScaffolding:
    def test_counts(self):
        Q = hypercube()
        assert len(Q.vertices) == 16
        assert len(Q.edges) == 32
        assert len(Q.faces2) == 24

    def test_projections(self):
        P = octagonal_projection()
        assert P.map.shape == (2, 4)
        G = generic_projection(seed=1)
        s = np.linalg.svd(G.map, compute_uv=False)
        assert np.allclose(s, 1.0)


class TestQcube48:
    def test_signature_and_degrees(self):
        G = qcube_48()
        sig = audit(G).signature
        assert (sig.p, sig.q, sig.n, sig.k) == (48, 6, 48, 6)
        C = G.to_incidence_structure()
        assert all(C.point_degree(p) == 6 for p in range(48))
        assert all(C.block_size(b) == 6 for b in range(48))

    def test_projection_independent_type(self):
        t1 = intersection_type(qcube_48()).types
        t2 = intersection_type(qcube_48(generic_projection(seed=77))).types
        assert t1 == t2


class TestRichterGebert:
    def test_counts(self):
        G = richter_gebert(seed=0)
        assert (G.num_points, G.num_conics, len(G.flags)) == (12, 4, 24)
        assert audit(G).passed
        assert intersection_type(G).types == {2}

    def test_provenance_note(self):
        G = richter_gebert(seed=3)
        assert G.provenance["type"] == "(12_2,4_6)"
        assert "type_note" in G.provenance
        assert G.provenance["closure_residual"] <= 1e-7

    def test_determinism(self):
        a = io.dumps_canonical(io.to_document(richter_gebert(seed=5)))
        b = io.dumps_canonical(io.to_document(richter_gebert(seed=5)))
        assert a == b


class TestDipyramid:
    @pytest.mark.parametrize("n", (3, 5))
    def test_signature_and_carnot(self, n):
        G = dipyramid_carnot(n, seed=0)
        sig = audit(G).signature
        assert (sig.p, sig.q, sig.n, sig.k) == (6 * n, 2, 2 * n, 6)
        assert G.provenance["max_closure_residual"] <= 1e-6

    def test_faces_satisfy_carnot(self):
        G = dipyramid_carnot(3, seed=1)
        tris = G.provenance["face_triangles"]
        slots = G.provenance["face_points"]
        for tri, pts in zip(tris, slots):
            tri = [np.asarray(v, float) for v in tri]
            six = [np.asarray(G.points[i], float) for i in pts]
            assert abs(carnot_product(tri, six) - 1.0) < 1e-6

    def test_too_few_sides(self):
        with pytest.raises(ConstructionError, match="n >= 3"):
            dipyramid_carnot(2)


class TestProduct:
    def test_counts(self):
        d = dipyramid_carnot(3, seed=0)
        G = product(d, d, genericize=True, seed=4)
        assert G.num_points == 324
        assert G.num_conics == 216
        C = G.to_incidence_structure()
        assert all(C.point_degree(p) == 4 for p in range(10))
        assert all(C.block_size(b) == 6 for b in range(10))

    def test_single_point_identity(self):
        one = GeometricConfiguration(np.array([[0.0, 0.0]]), (), frozenset())
        G = crossed_ellipses()
        P = product(G, one)
        assert (P.num_points, P.num_conics) == (G.num_points, G.num_conics)
        assert audit(P).passed

    def test_collision_refused(self):
        G = crossed_ellipses()
        with pytest.raises(ConstructionError):
            product(G, G)
        assert audit(product(G, G, genericize=True, seed=1)).passed

    def test_coinciding_translates_refused(self):
        # One point and one conic: both translates of the conic are the
        # conic moved by that point, twice.
        one = GeometricConfiguration([[1.0, 0.0]],
                                     (Conic.from_coeffs(1, 0, 1, 0, 0, -1),),
                                     [(0, 0)])
        with pytest.raises(ConstructionError,
                           match="translated conics coincide"):
            product(one, one)

    def test_signature_arithmetic(self):
        rng = np.random.default_rng(0)
        factors = [crossed_ellipses(), polygon_ring(3),
                   dipyramid_carnot(3, seed=0)]
        for _ in range(5):
            i, j = rng.integers(0, len(factors), size=2)
            A, B = factors[i], factors[j]
            try:
                P = product(A, B, genericize=True, seed=int(rng.integers(99)))
            except ConstructionError:
                continue
            assert P.num_points == A.num_points * B.num_points
            assert P.num_conics == (A.num_points * B.num_conics
                                    + B.num_points * A.num_conics)


def _product_by_conic(C1, C2, genericize=False, seed=0):
    """Points, conics and flags of `product`, rebuilt one conic at a time
    with the one-conic bodies of `apply_affine` and `translate_conic`."""
    if genericize:
        ang = np.random.default_rng(seed).uniform(0.1, 1.0)
        M = AffineMap2(np.array([[math.cos(ang), -math.sin(ang)],
                                 [math.sin(ang), math.cos(ang)]]),
                       np.zeros(2))
        C2 = GeometricConfiguration(
            np.array([apply_affine_point(M, p) for p in C2.points]),
            tuple(scalar_apply_affine(M, c) for c in C2.conics), C2.flags,
            C2.tol)
    n2 = C2.num_points
    conics, flags = [], set()
    for i1, v1 in enumerate(C1.points):
        for b2, c in enumerate(C2.conics):
            flags |= {(i1 * n2 + i2, len(conics))
                      for i2 in C2.points_of_conic(b2)}
            conics.append(scalar_translate_conic(c, v1))
    for i2, v2 in enumerate(C2.points):
        for b1, c in enumerate(C1.conics):
            flags |= {(i1 * n2 + i2, len(conics))
                      for i1 in C1.points_of_conic(b1)}
            conics.append(scalar_translate_conic(c, v2))
    pts = (C1.points[:, None] + C2.points[None]).reshape(-1, 2)
    return pts, conics, flags


class TestProductMatchesPerConicRebuild:
    @pytest.mark.parametrize("factors, genericize, seed", [
        ((crossed_ellipses, lambda: polygon_ring(3)), False, 0),
        ((crossed_ellipses, crossed_ellipses), True, 1),
        ((lambda: dipyramid_carnot(3, seed=0),
          lambda: dipyramid_carnot(3, seed=0)), True, 1),
        ((lambda: richter_gebert(seed=1), crossed_ellipses), True, 5)],
        ids=["ring", "crossed", "square", "richter_gebert"])
    def test_same_points_conics_flags(self, factors, genericize, seed):
        A, B = (f() for f in factors)
        P = product(A, B, genericize=genericize, seed=seed)
        pts, conics, flags = _product_by_conic(A, B, genericize, seed)
        assert P.points.tobytes() == pts.tobytes()
        assert [c.kind for c in P.conics] == [c.kind for c in conics]
        assert all(p.form.tobytes() == c.form.tobytes()
                   for p, c in zip(P.conics, conics))
        assert P.flags == flags

    def test_cube_flags_match_nested_loops(self):
        # The flags come from the factors' flag arrays by broadcasting; the
        # nested loops over the factors' blocks give the same set.
        d = dipyramid_carnot(3, seed=0)
        sq = product(d, d, genericize=True, seed=1)
        assert sq.flags == nested_product_flags(d, d)
        cube = product(sq, d, genericize=True, seed=2)
        assert len(cube.flags) == 34992
        assert cube.flags == nested_product_flags(sq, d)


class TestPmnAndCell24:
    def test_prism_product_counts(self):
        Q = prism_product(4, 4)
        assert len(Q.vertices) == 16
        assert len(Q.edges) == 32

    @pytest.mark.parametrize("edges, faces, message", [
        ([(0, 1), (1, 4), (-1, 2)], [], "edge (1, 4) out of range"),
        ([(0, 1)], [(0, 1, 2), (0, -1, 2, 3), (4, 0, 1)],
         "face (0, -1, 2, 3) out of range"),
        ([(0, 1)], [(0, 1, 2, 3), (1, 2, 3, 0, 2 ** 70)],
         f"face (1, 2, 3, 0, {2 ** 70}) out of range"),
        ([(0, 1)], [(0, 1, 2, 3)], "facet (0, 5) out of range")],
        ids=["edge", "face", "ragged-face-beyond-int64", "facet"])
    def test_polytope_indices_out_of_range(self, edges, faces, message):
        # The first offender in order is named: edges, faces, then facets.
        with pytest.raises(IndexError) as exc:
            Polytope4(np.zeros((4, 4)), edges, faces,
                      facets=[(0, 1, 2, 3), (0, 5)])
        assert str(exc.value) == message
        Polytope4(np.zeros((4, 4)), [(0, 1), (3, 2)], [(0, 1, 2, 3), (1, 2)],
                  facets=[(0, 1, 2, 3)])

    def test_pmn44(self):
        G = pmn(4, 4)
        assert str(audit(G).signature) == "(32_6)"
        assert intersection_type(G).types == {1, 2}

    def test_pmn_flag_count(self):
        for (m, n) in ((4, 6), (6, 6)):
            G = pmn(m, n)
            assert len(G.flags) == 6 * 2 * m * n
            C = G.to_incidence_structure()
            assert all(C.point_degree(p) == 6 for p in range(G.num_points))

    def test_pmn_validation(self):
        with pytest.raises((ConstructionError, ValueError)):
            pmn(5, 4)

    def test_cell24(self):
        G = cell24()
        assert str(audit(G).signature) == "(96_6)"
        assert intersection_type(G).types == {1, 2}
        radii = np.asarray(G.provenance["circumradii_4d"], float)
        assert np.max(np.abs(radii - np.sqrt(2) / 2)) < 1e-10

    def test_cell24_polytope(self):
        P = cell24_polytope()
        assert len(P.vertices) == 24
        assert len(P.edges) == 96
        norms = np.linalg.norm(P.vertices, axis=1)
        assert np.allclose(norms, np.sqrt(2))


def _build_outcome(build):
    """The canonical JSON of a build, or the type and text of its error."""
    try:
        G = build()
    except (ConstructionError, GeometryError) as exc:
        return type(exc), str(exc)
    return io.dumps_canonical(io.to_document(G))


class TestStackedHexagonBuilders:
    """pmn and cell24 build their polytope once and fit every hexagon in one
    array pass per projection; the one-hexagon loop in conftest is the
    oracle, for the bytes and for the error of a rejected projection."""

    # pmn(4, 50) exhausts its default projections.
    PMN = ([(m, m) for m in range(4, 24, 2)]
           + [(4, n) for n in range(6, 68, 2) if n != 50])
    SEEDS = (None, 12345, 12346)

    def test_hexagon_ids_match_symbolic_scheme(self):
        for m, n in itertools.product(range(4, 26, 2), repeat=2):
            ids = {("A", i, j): 2 * (i * n + j) for i in range(m)
                   for j in range(n)}
            ids.update({("B", i, j): 2 * (i * n + j) + 1 for i in range(m)
                        for j in range(n)})
            assert constructions._hexagons_in_prisms(m, n).tolist() == [
                [ids[(t, a % m, b % n)] for (t, a, b) in hx]
                for hx in symbolic_hexagons_in_prisms(m, n)], (m, n)

    @pytest.mark.parametrize("m, n", PMN)
    def test_pmn_matches_loop(self, m, n):
        for seed in self.SEEDS:
            proj = None if seed is None else generic_projection(seed)
            assert _build_outcome(lambda: pmn(m, n, proj)) == \
                _build_outcome(lambda: loop_pmn(m, n, proj)), seed

    def test_cell24_matches_loop(self):
        for seed in self.SEEDS:
            proj = None if seed is None else generic_projection(seed)
            assert _build_outcome(lambda: cell24(proj)) == \
                _build_outcome(lambda: loop_cell24(proj)), seed

    def test_rejected_projection_error(self):
        for seed in (12345, 12346):
            proj = generic_projection(seed)
            with pytest.raises(ConstructionError,
                               match="non-generic projection: hexagon gave "
                                     "point"):
                cell24(proj)

    def test_first_failing_hexagon_and_check(self):
        # Hexagons with known defects, inserted among pmn(4, 4)'s in every
        # order: the error is that of the first failing hexagon, and of its
        # first failing check, as in the loop. The random and asymmetric
        # shapes are not planar: symmetry is left to the audit.
        u, v, w = np.eye(4)[:3]
        c = np.array([3.0, 1.0, 2.0, 0.5])
        rng = np.random.default_rng(5)
        shapes = {
            "asymmetric": rng.normal(size=(6, 4)),
            "warped": [u, v, w, -u, -v, -w],
            "asymmetric and warped": [u, v, w, -u, -v, 2 * w],
            "singular": [u, 2 * u, v, -u, -2 * u, -v],
        }
        good = constructions._hexagons_in_prisms(4, 4).tolist()
        points4 = np.vstack([prism_product(4, 4).edge_midpoints()]
                            + [c + np.asarray(p, float)
                               for p in shapes.values()])
        extra = [list(range(32 + 6 * k, 38 + 6 * k))
                 for k in range(len(shapes))]
        proj = generic_projection(12347)
        seen = set()
        for order in itertools.permutations(range(len(shapes))):
            hexagons = np.array(good[:3] + [extra[k] for k in order]
                                + good[3:])
            outcome = _build_outcome(
                lambda: constructions._hexagon_configuration(
                    points4, hexagons, {"builder": "pmn"}, proj))
            assert outcome == _build_outcome(
                lambda: loop_hexagon_configuration(
                    points4, hexagons, proj, 1e-8, {"builder": "pmn"}))
            seen.add(outcome)
        assert {text for _, text in seen} == {
            "hexagon is not planar",
            "degenerate hexagon: singular central system"}
        # A planar hexagon that is not centrally symmetric passes every
        # check before the audit. Its conic runs through its first three
        # vertices and their reflections in its centroid, so the audit finds
        # the last three vertices off it, in the builder and in the loop.
        angles = np.pi / 3 * np.arange(6)
        hexagon = np.cos(angles)[:, None] * u + np.sin(angles)[:, None] * v
        hexagon[3:] *= 1.25
        points4 = np.vstack([points4[:32], c + hexagon])
        for at in (0, 3, 32):
            hexagons = np.array(good[:at] + [extra[0]] + good[at:])
            outcome = _build_outcome(
                lambda: constructions._hexagon_configuration(
                    points4, hexagons, {"builder": "pmn"}, proj))
            assert outcome == _build_outcome(
                lambda: loop_hexagon_configuration(
                    points4, hexagons, proj, 1e-8, {"builder": "pmn"}))
            assert outcome[0] is ConstructionError
            assert outcome[1].startswith("pmn: audit failed (")
            assert f"missing=[(35, {at}), (36, {at}), (37, {at})]" \
                in outcome[1]

    def test_polytope_built_once_per_default_build(self):
        for builder, polytope, build, tried in (
                ("pmn", "prism_product", lambda: pmn(8, 8), 2),
                ("cell24", "cell24_polytope", cell24, 3)):
            with mock.patch.object(
                    constructions, polytope,
                    wraps=getattr(constructions, polytope)) as poly, \
                    mock.patch.object(
                        constructions, "generic_projection",
                        wraps=generic_projection) as projections:
                build()
            assert poly.call_count == 1, builder
            assert projections.call_count == tried, builder

    def test_no_conic_objects_built(self):
        for build in (lambda: pmn(10, 10), cell24):
            with mock.patch.object(Conic, "__post_init__", autospec=True,
                                   side_effect=Conic.__post_init__) as post:
                G = build()
            assert post.call_count == 0
            assert "conics" not in vars(G)


class TestRealizers:
    def test_circles_on_fano(self):
        G = realize_lineal_by_circles(catalog("fano"), seed=0)
        assert audit(G).passed
        assert no_3_collinear(G.points)
        assert no_4_concyclic(G.points)

    def test_circles_reject_nonlineal(self):
        C = new_incidence_structure(
            4, 2, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (3, 1)])
        with pytest.raises(ConstructionError, match="lineal"):
            realize_lineal_by_circles(C)
        with pytest.raises(ConstructionError, match="size"):
            realize_lineal_by_circles(catalog("miquel"))

    def test_circles_reject_bad_sizes(self):
        C = new_incidence_structure(4, 1, [(0, 0), (1, 0), (2, 0), (3, 0)])
        with pytest.raises(ConstructionError, match="size"):
            realize_lineal_by_circles(C)

    def test_conics_on_miquel(self):
        G = realize_by_conics(catalog("miquel"), seed=0)
        rep = audit(G)
        assert rep.passed and not rep.spurious_incidences

    @pytest.mark.parametrize("seed", range(5))
    def test_conics_on_anti_miquel_large(self, seed):
        G = realize_by_conics(catalog("anti-miquel-large"), seed=seed)
        rep = audit(G)
        assert rep.passed and not rep.spurious_incidences

    def test_conics_blocks_of_2(self):
        C = new_incidence_structure(
            4, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)])
        G = realize_by_conics(C, seed=0)
        assert audit(G).passed
        assert len(set(G.conics)) == 3

    def test_conics_reject_k52(self):
        flags = [(p, b) for p in range(5) for b in range(2)]
        C = new_incidence_structure(5, 2, flags)
        with pytest.raises(ConstructionError, match="K"):
            realize_by_conics(C)

    def test_conics_reject_big_blocks(self):
        C = new_incidence_structure(6, 1, [(p, 0) for p in range(6)])
        with pytest.raises(ConstructionError, match="at most 5"):
            realize_by_conics(C)


def _random_lineal(rng, num_points: int = 9, num_blocks: int = 7):
    """Random triples, any two sharing at most one point."""
    blocks = []
    while len(blocks) < num_blocks:
        blk = frozenset(rng.choice(num_points, size=3, replace=False).tolist())
        if all(len(blk & other) <= 1 for other in blocks):
            blocks.append(blk)
    return new_incidence_structure(
        num_points, num_blocks,
        [(p, b) for b, blk in enumerate(blocks) for p in sorted(blk)])


def _realized(realize, C, seed: int) -> str:
    """The realization's document, or the error it raised."""
    try:
        return io.dumps_canonical(io.to_document(realize(C, seed=seed)))
    except (ConstructionError, GeometryError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestRealizersMatchScalarFits:
    """Both realizers give the documents of the oracle path, whose padded
    conics come from the pair-by-pair and triple-by-triple five-point fit
    and the per-point grazing loop (`scalar_conic_through_padded`)."""

    STRUCTURES = ([catalog(name) for name in catalog_names()]
                  + [random_conical_structure(np.random.default_rng(s))
                     for s in range(10)]
                  + [_random_lineal(np.random.default_rng(s))
                     for s in range(10)])

    @pytest.mark.parametrize("seed", range(10))
    def test_same_documents(self, seed, monkeypatch):
        realizers = (realize_by_conics, realize_lineal_by_circles)
        new = [_realized(r, C, seed) for r in realizers
               for C in self.STRUCTURES]
        monkeypatch.setattr(constructions, "_conic_through_padded",
                            scalar_conic_through_padded)
        assert [_realized(r, C, seed) for r in realizers
                for C in self.STRUCTURES] == new
        assert sum(doc.startswith("{") for doc in new) >= 30


class TestDeterminism:
    @pytest.mark.parametrize("make", [
        lambda: qcube_48(),
        lambda: pmn(4, 4),
        lambda: dipyramid_carnot(4, seed=7),
        lambda: realize_lineal_by_circles(catalog("fano"), seed=2),
    ])
    def test_bit_identical(self, make):
        a = io.dumps_canonical(io.to_document(make()))
        b = io.dumps_canonical(io.to_document(make()))
        assert a == b


class TestRetry:
    @staticmethod
    def _failing(calls, succeed_on=None, errors=(GeometryError,
                                                 ConstructionError)):
        def attempt():
            calls.append(None)
            if len(calls) == succeed_on:
                return len(calls)
            raise errors[len(calls) % len(errors)](f"draw {len(calls)}")
        return attempt

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_success_on_attempt_k(self, k):
        calls = []
        assert constructions._retry(self._failing(calls, k), 7, "x") == k
        assert len(calls) == k

    def test_exhaustion_names_label_budget_and_last_error(self):
        calls = []
        with pytest.raises(ConstructionError,
                           match=r"^widget: retry budget of 5 exhausted; "
                                 r"last: draw 5$"):
            constructions._retry(self._failing(calls), 5, "widget")
        assert len(calls) == 5

    def test_other_errors_propagate_at_once(self):
        calls = []
        with pytest.raises(TypeError, match="draw 1"):
            constructions._retry(self._failing(calls, errors=(TypeError,)),
                                 5, "x")
        assert len(calls) == 1

    def test_exhausted_builder_exits_1(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(constructions, "_dipyramid_once",
                            lambda rng, n: self._failing(calls)())
        out = tmp_path / "d.json"
        assert main(["build", "dipyramid_carnot", "-o", str(out)]) == 1
        assert len(calls) == 200 and not out.exists()
        assert "dipyramid_carnot(4): retry budget of 200 exhausted" in \
            capsys.readouterr().err


def _bits(forms) -> bytes:
    return np.ascontiguousarray(forms, float).tobytes()


class TestStackedSceneSteps:
    """Every builder and realizer makes its scene in one stacked step; the
    one-conic-at-a-time builders and fits in conftest are the oracles, for
    the bytes and for the errors."""

    def test_ellipse_forms_match_one_ellipse_fit(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 50):
            centers = rng.normal(size=(n, 2)) * 10 ** rng.uniform(-2, 2)
            a, b = rng.uniform(0.05, 3, size=2)
            angles = rng.choice([0.0, math.pi / 2, math.pi, -1.3, 2.9],
                                size=n).tolist()
            forms = constructions._ellipse_forms(centers, a, b, angles)
            want = [scalar_ellipse_conic(c, a, b, t)
                    for c, t in zip(centers, angles)]
            assert _bits(forms) == _bits([c.form for c in want])
            one = [ellipse_conic(c, a, b, t) for c, t in zip(centers, angles)]
            assert _bits([c.form for c in one]) == _bits(forms)
            assert [c.kind for c in one] == [c.kind for c in want]
        with pytest.raises(GeometryError, match="^affine map is singular$"):
            ellipse_conic((0, 0), 0.0, 1.0, 0.3)

    def test_circle_forms_match_one_triple_fit(self):
        # An array's x ** 2 and a numpy scalar's can differ in the last bit;
        # the stacked fit squares as the one-triple fit does.
        P = np.random.default_rng(1).uniform(0, 1, size=(10000, 3, 2))
        want = [circle_through_3_points(*p) for p in P]
        forms = constructions._circle_forms(P)
        assert _bits(forms) == _bits([c.form for c in want])
        assert not forms.flags.writeable
        with pytest.raises(GeometryError, match="^collinear points have no "
                                                "circumscribed circle$"):
            constructions._circle_forms(np.array([P[0], [[0, 0], [1, 1],
                                                         [2, 2]]]))

    @pytest.mark.parametrize("proj", [
        None, "octagonal", 12345, 12346, 12347, 7,
        [[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 1, 0], [0, 1, 1e-6, 1]],
        [[1, 0, 0.3, 1e-5], [0, 1, 0.7, 0]]])
    def test_qcube_48_matches_one_face_loop(self, proj):
        if proj == "octagonal":
            proj = octagonal_projection()
        elif isinstance(proj, int):
            proj = generic_projection(proj)
        elif proj is not None:
            proj = Projection4to2(np.array(proj, float))
        assert _build_outcome(lambda: qcube_48(proj)) == \
            _build_outcome(lambda: loop_qcube_48(proj))

    # The default rings of 3 to 8 sides are pinned by
    # test_interface.py::TestCli::BUILD_DIGESTS.
    @pytest.mark.parametrize("args", [
        (12,), (5, 0.4), (6, 0.3, 0.2), (4, 0.02, 0.5), (5, 0.01, 0.05),
        (8, 0.05, 0.2), (5, 0.15, 0.0)])
    def test_polygon_ring_matches_one_pair_loop(self, args):
        assert _build_outcome(lambda: polygon_ring(*args)) == \
            _build_outcome(lambda: loop_polygon_ring(*args))

    def test_carnot_builders_match_one_face_fits(self, monkeypatch):
        # The per-face sixth-point test is gone: the audit checks the sixth
        # point's flag at the same tol, so the same draws pass.
        builds = ([lambda s=s: richter_gebert(s) for s in range(20)]
                  + [lambda n=n, s=s: dipyramid_carnot(n, seed=s)
                     for n in range(3, 8) for s in range(4)])
        new = [_build_outcome(build) for build in builds]
        monkeypatch.setattr(constructions, "_carnot_scene", loop_carnot_scene)
        assert [_build_outcome(build) for build in builds] == new
        assert all(isinstance(doc, str) for doc in new)


class TestStackedStepErrors:
    """The exact message of every reachable error of the stacked scene
    steps, the same as the one-conic builders gave."""

    @pytest.mark.parametrize("quad,t,message", [
        (((0, 0), (1, 0), (1, 1), (0.2, 1.1)), 0.5,
         "ABCD is not a parallelogram"),
        # The parallelogram check comes before the check of t.
        (((0, 0), (1, 0), (1, 1), (0.2, 1.1)), 0.0,
         "ABCD is not a parallelogram"),
        (((0, 0), (1, 0), (1, 1), (0, 1)), 0.0,
         "side parameter t must lie strictly in (0, 1)"),
        (((0, 0), (1, 0), (1, 1), (0, 1)), 1.0,
         "side parameter t must lie strictly in (0, 1)"),
        (((0, 0), (1, 0), (1, 1), (0, 1)), float("nan"),
         "side parameter t must lie strictly in (0, 1)"),
        (((0, 0), (0, 0), (1, 1), (1, 1)), 0.5,
         "duplicate points at indices 0,4"),
        (((0, 0), (2, 0), (2, 0), (0, 0)), 0.5,
         "duplicate points at indices 0,2"),
        (((0, 0), (1, 0), (2, 0), (1, 0)), 0.25,
         "points 0,1,2 are collinear; conic not unique"),
    ])
    def test_parallelogram_pair(self, quad, t, message):
        with pytest.raises(GeometryError, match=f"^{re.escape(message)}$"):
            parallelogram_ellipse_pair(*quad, t=t)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(st.tuples(st.floats(-9, 9), st.floats(-9, 9)),
           st.floats(-4, 0), st.floats(-4, 0), st.floats(-math.pi, math.pi),
           st.floats(-11, math.log10(math.pi)), st.floats(0.1, 0.9))
    @settings(max_examples=300, deadline=None)
    def test_parallelogram_pair_closes(self, offset, lu, lv, turn, gap, t):
        # No central-symmetry check is made: a parallelogram that passes
        # the skew and five-point checks puts C and D on their ellipses.
        A = np.sign(offset) * 10.0 ** np.abs(offset)
        u = 10.0 ** lu * np.array([math.cos(turn), math.sin(turn)])
        v = 10.0 ** lv * np.array([math.cos(turn + 10.0 ** gap),
                                   math.sin(turn + 10.0 ** gap)])
        B, D = A + u, A + v
        C = B + D - A
        try:
            e_ac, e_bd, _ = parallelogram_ellipse_pair(A, B, C, D, t=t)
        except GeometryError:
            assume(False)
        assert e_ac.residual(C) <= 1e-8
        assert e_bd.residual(D) <= 1e-8

    @pytest.mark.parametrize("proj,message", [
        ([[1, 0, 0, 0], [0, 1, 0, 0]],
         "face (0, 8, 10, 2): duplicate points at indices 0,2"),
        ([[1, 0, 0.3, 1e-5], [0, 1, 0.7, 0]],
         "face (0, 8, 9, 1): points 0,1,2 are collinear; conic not unique"),
        ([[-4.046253302752933e-11, -6.063618037243099e-11,
           0.10299372841831503, 0.9133640677489127],
          [4.357076378759239e-11, -8.65061238882869e-12,
           0.47280843541992373, 0.19030823340241707]],
         "face (0, 8, 12, 4): ABCD is not a parallelogram"),
        ([[0.6030426718220758, 0.23980165192999542, -1.2223425516465942,
           5.19622702830867e-05],
          [0.030602333879575103, -2.060745958940829, 1.0952735981631325,
           6.628818110024697e-05]],
         "face (0, 8, 9, 1) gave point"),
        # Face 4 gives double lines; faces 16-19 collapse to segments and
        # fail their fits. The first failing face names the error.
        ([[1, 0, 1, 0], [0, 1, 1e-6, 1]], "face (0, 8, 10, 2) gave double-line"),
    ])
    def test_qcube_48_degenerate_projection(self, proj, message):
        with pytest.raises(ConstructionError,
                           match=f"^non-generic projection: "
                                 f"{re.escape(message)}$"):
            qcube_48(Projection4to2(np.array(proj, float)))

    @pytest.mark.parametrize("args,pair,meets", [
        ((4, 0.02, 0.5), "0,1", 2),
        ((8, 0.05, 0.2), "0,1", 0),
        # Ring pairs are congruent; here only the closing pair counts a
        # tangency three times (the tangency count hangs on rounding).
        ((5, 0.01, 0.05), "4,0", 3),
    ])
    def test_polygon_ring_too_few_meets(self, args, pair, meets):
        message = (f"ellipses {pair} meet in {meets} points, need 4; adjust "
                   f"elongation/minor (got {args[1]}, {args[2]})")
        with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
            polygon_ring(*args)

    def test_polygon_ring_degenerate_ellipses(self):
        with pytest.raises(GeometryError, match="^affine map is singular$"):
            polygon_ring(5, 0.15, 0.0)
        with pytest.raises(GeometryError, match="^degenerate conic input$"):
            polygon_ring(5, 0.05, 0.001)
