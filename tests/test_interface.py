"""Unit tests for JSON I/O, SVG rendering and the CLI."""
import argparse
import copy
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointconic
from pointconic import cli, configuration, constructions, geometry, incidence
from pointconic.analysis import (audit, geometric_meets, intersection_type,
                                 strongly_isometric_to_circles)
from pointconic.cli import main
from pointconic import io
from pointconic.configuration import GeometricConfiguration
from conftest import (format_path_data, full_make_parser,
                      recursive_dump_value, scalar_classify_form,
                      scalar_render_svg, scalar_conic_from_normalized_coeffs)
from pointconic.constructions import (cell24, crossed_ellipses,
                                      dipyramid_carnot, ellipse_conic,
                                      parallelogram_ellipse_pair, pmn,
                                      polygon_ring, product, qcube_48,
                                      realize_by_conics,
                                      realize_lineal_by_circles,
                                      richter_gebert, translate_conics)
from pointconic.geometry import (Conic, GeometryError,
                                 ellipse_parameters_stack)
from pointconic.incidence import IncidenceError, catalog
from pointconic.io import (InterfaceError, _dump_value, dumps_canonical,
                           from_document, read_configuration, to_document,
                           write_configuration)
from pointconic.svg import (SceneStyle, _Mapper, _path_data, _scan,
                            _world_bbox, render_svg)


class TestRoundTrip:
    def test_combinatorial(self, tmp_path):
        C = catalog("anti-miquel-small")
        path = tmp_path / "c.json"
        write_configuration(C, path, name="anti-miquel-small")
        back = read_configuration(path)
        assert back.num_points == C.num_points
        assert back.num_blocks == C.num_blocks
        assert back.flags == C.flags

    def test_geometric_bit_exact(self, tmp_path):
        G = pmn(4, 4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_configuration(G, p1)
        back = read_configuration(p1)
        assert np.array_equal(back.points, G.points)
        assert all(np.array_equal(a.form, b.form)
                   for a, b in zip(back.conics, G.conics))
        assert back.flags == G.flags and back.tol == G.tol
        write_configuration(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_kind_discrimination(self, tmp_path):
        gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
        write_configuration(crossed_ellipses(), gpath)
        write_configuration(catalog("fano"), cpath)
        assert isinstance(read_configuration(gpath), GeometricConfiguration)
        assert not isinstance(read_configuration(cpath),
                              GeometricConfiguration)


    def test_written_documents_match_schema(self, tmp_path):
        G = crossed_ellipses()
        cases = [(G, None), (pmn(4, 4), None),
                 (product(G, G, genericize=True, seed=1), None),
                 (realize_lineal_by_circles(catalog("fano"), seed=0), None),
                 (catalog("pappus"), "pappus")]
        for k, (obj, name) in enumerate(cases):
            path = tmp_path / f"{k}.json"
            write_configuration(obj, path, name=name)
            doc = json.loads(path.read_text())
            jsonschema.validate(doc, io._SCHEMAS[doc["kind"]])
            assert doc.get("name") == name
            assert type(read_configuration(path)) is type(obj)

    def test_geometric_name_refused(self, tmp_path):
        # The geometric schema has no name, so the writer must not drop one.
        G, path = crossed_ellipses(), tmp_path / "g.json"
        with pytest.raises(InterfaceError, match="geometric document"):
            to_document(G, name="x")
        with pytest.raises(InterfaceError, match="geometric document"):
            write_configuration(G, path, name="x")
        assert not path.exists()

    @pytest.mark.parametrize("name", [3, b"fano", ["fano"]],
                             ids=["int", "bytes", "list"])
    def test_combinatorial_name_must_be_a_string(self, tmp_path, name):
        # The schema's name is a string; a writer that stored 3 made a
        # document its own reader refused.
        C, path = catalog("fano"), tmp_path / "c.json"
        with pytest.raises(InterfaceError, match="is not a string"):
            to_document(C, name=name)
        with pytest.raises(InterfaceError, match="is not a string"):
            write_configuration(C, path, name=name)
        assert not path.exists()


def _translates() -> GeometricConfiguration:
    """Translates of one ellipse, each through one flagged point: a
    strongly isometric scene."""
    shifts = np.array([[0.0, 0.0], [1.5, 0.2], [-0.4, 1.1]])
    forms = translate_conics(ellipse_conic((0, 0), 0.8, 0.3, 0.6).form,
                             shifts)
    points = shifts + [0.8 * math.cos(0.6), 0.8 * math.sin(0.6)]
    return GeometricConfiguration._of(points, forms, [(0, 0), (1, 1), (2, 2)],
                                      1e-8)


# Every builder, product and realizer, and the dilation to circles.
_SCENES = {
    "crossed_ellipses": crossed_ellipses,
    "polygon_ring": lambda: polygon_ring(5),
    "qcube_48": qcube_48,
    "richter_gebert": lambda: richter_gebert(seed=1),
    "dipyramid_carnot": lambda: dipyramid_carnot(4, seed=3),
    "pmn": lambda: pmn(4, 6),
    "cell24": cell24,
    "product": lambda: product(dipyramid_carnot(3, seed=0),
                               crossed_ellipses(), genericize=True, seed=1),
    "realize_lineal_by_circles":
        lambda: realize_lineal_by_circles(catalog("pappus"), seed=0),
    "realize_by_conics": lambda: realize_by_conics(catalog("miquel"), seed=0),
    "strongly_isometric_to_circles":
        lambda: strongly_isometric_to_circles(_translates()),
}


class TestStoredArrays:
    """A scene is stored as its point, form and flag arrays; the `Conic`s
    and the flag frozenset are built only when asked for."""

    def test_read_analyze_render_write_build_no_objects(self, tmp_path,
                                                        monkeypatch):
        d = dipyramid_carnot(3, seed=0)
        cube = product(product(d, d, genericize=True, seed=1), d,
                       genericize=True, seed=2)
        path, back = tmp_path / "cube.json", tmp_path / "back.json"
        write_configuration(cube, path)
        built = []
        original = geometry._conic_of

        def counted(M):
            built.append(M)
            return original(M)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("pointconic")
                    and getattr(mod, "_conic_of", None) is original):
                monkeypatch.setattr(mod, "_conic_of", counted)
        G = read_configuration(path)
        C = G.to_incidence_structure()
        assert intersection_type(G).types == {1, 2}
        assert audit(G).signature == audit(cube).signature
        render_svg(G, path=tmp_path / "cube.svg")
        write_configuration(G, back)
        assert back.read_bytes() == path.read_bytes()
        assert built == []
        assert "conics" not in vars(G) and "flags" not in vars(C)
        # The views, built on first access.
        coeffs = json.loads(path.read_text())["conics"]
        assert len(G.conics) == len(built) == G.num_conics == 5832
        for i, conic in enumerate(G.conics):
            assert not conic.form.flags.writeable
            assert np.shares_memory(conic.form, G.forms)
            assert np.array_equal(conic.form, G.forms[i])
            assert conic.kind == G.kinds[i] == \
                scalar_conic_from_normalized_coeffs(coeffs[i]).kind
        assert G.flags is C.flags and len(C.flags) == 34992
        assert G.flags == cube.flags
        # Every builder and realizer makes its scene without a `Conic`; the
        # one exception is the transversal ellipse richter_gebert draws.
        builds = {
            "crossed_ellipses": crossed_ellipses,
            "polygon_ring": lambda: polygon_ring(5),
            "qcube_48": qcube_48,
            "pmn": lambda: pmn(4, 6),
            "cell24": cell24,
            "richter_gebert": lambda: richter_gebert(seed=1),
            "dipyramid_carnot": lambda: dipyramid_carnot(5, seed=1),
            "product": lambda: product(d, d, genericize=True, seed=1),
            "realize_by_conics":
                lambda: realize_by_conics(catalog("miquel"), seed=0),
            "realize_lineal_by_circles":
                lambda: realize_lineal_by_circles(catalog("pappus"), seed=0),
        }
        for name, build in builds.items():
            built.clear()
            with mock.patch.object(Conic, "__post_init__", autospec=True,
                                   side_effect=Conic.__post_init__) as post, \
                    mock.patch.object(
                        constructions, "_random_ellipse",
                        wraps=constructions._random_ellipse) as drawn:
                G = build()
            assert post.call_count == 0, name
            assert len(built) == drawn.call_count, name
            assert (drawn.call_count > 0) == (name == "richter_gebert"), name
            assert "conics" not in vars(G), name

    def test_constructor_stacks_the_conics(self):
        G = crossed_ellipses()
        conics = G.conics
        H = GeometricConfiguration(G.points, list(conics), list(G.flags),
                                   G.tol)
        assert not H.forms.flags.writeable and H.forms.shape == (2, 3, 3)
        assert H.kinds == ("ellipse", "ellipse")
        assert H.conics == conics and "flags" not in vars(
            H.to_incidence_structure())
        assert H.to_incidence_structure() == G.to_incidence_structure()
        with pytest.raises(TypeError, match="Conic instances"):
            GeometricConfiguration(G.points, [G.forms[0]], [], G.tol)

    @pytest.mark.parametrize("name", sorted(_SCENES))
    def test_kinds_are_those_of_the_forms(self, name, tmp_path):
        # Nothing hands a scene or a `Conic` its kinds: they are derived
        # from the forms, in every scene and in its reader round trip. A
        # `Conic` stores its form only, whether its constructor made it or
        # it is a view of a scene's stack, and classifies it when first read.
        assert [f.name for f in dataclasses.fields(Conic)] == ["form"]
        G = _SCENES[name]()
        assert "kinds" not in vars(G)
        path = tmp_path / "g.json"
        write_configuration(G, path)
        for H in (G, read_configuration(path)):
            assert H.kinds == tuple(map(scalar_classify_form, H.forms))
            for conics in (H.conics, tuple(map(Conic, H.forms))):
                assert not any("kind" in vars(c) for c in conics)
                assert tuple(c.kind for c in conics) == H.kinds
                assert all("kind" in vars(c) for c in conics)

    def test_kinds_classified_on_first_use_only(self, tmp_path, monkeypatch):
        path = tmp_path / "g.json"
        write_configuration(pmn(4, 4), path)
        calls = []
        original = geometry._classify_forms

        def counted(M):
            calls.append(len(M))
            return original(M)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("pointconic")
                    and getattr(mod, "_classify_forms", None) is original):
                monkeypatch.setattr(mod, "_classify_forms", counted)
        G = read_configuration(path)
        assert audit(G).passed
        incidence.property_report(G.to_incidence_structure())
        P = product(G, G, genericize=True, seed=1)
        assert calls == []
        assert "kinds" not in vars(G) and "kinds" not in vars(P)
        # The pencil kernel classifies the stack it is given, once a call;
        # the scene classifies its own conics once, on first use.
        geometric_meets(G)
        assert calls == [G.num_conics] and "kinds" not in vars(G)
        render_svg(G)
        render_svg(G)
        assert calls == [G.num_conics] * 2
        geometric_meets(G)
        assert calls == [G.num_conics] * 3


class TestValidation:
    def test_missing_flags_named(self):
        doc = to_document(catalog("fano"))
        del doc["flags"]
        with pytest.raises(InterfaceError, match="flags"):
            from_document(doc)

    def test_unknown_kind(self):
        with pytest.raises(InterfaceError, match="kind"):
            from_document({"kind": "mystery"})
        with pytest.raises(InterfaceError, match="kind"):
            from_document({"points": 3})

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(InterfaceError, match="malformed"):
            read_configuration(path)

    def test_bad_conic_coeffs(self):
        doc = to_document(crossed_ellipses())
        doc["conics"][0] = [9.0, 0, 0, 0, 0, 0]
        with pytest.raises(InterfaceError):
            from_document(doc)

    def test_nonfinite_rejected(self):
        with pytest.raises(InterfaceError, match="non-finite"):
            dumps_canonical({"x": float("nan")})

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
    def test_bad_tol_rejected(self, tol):
        G = crossed_ellipses()
        with pytest.raises(GeometryError, match="tol must be positive"):
            GeometricConfiguration(G.points, G.conics, G.flags, tol=tol)
        assert issubclass(GeometryError, ValueError)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        # Refused at construction, before an audit could pass it or the SVG
        # writer print it; the reader names the JSON path instead.
        circle = Conic.from_coeffs(1, 0, 1, 0, 0, -1)
        with pytest.raises(GeometryError, match=r"^point 0 is not finite"):
            GeometricConfiguration([[bad, 0.0], [1.0, 0.0]], (circle,),
                                   [(1, 0)])
        with pytest.raises(GeometryError, match=r"^point 1 is not finite"):
            GeometricConfiguration._of([[1.0, 0.0], [0.0, bad]],
                                       circle.form[None], [(0, 0)])

    def test_unserializable_rejected(self):
        with pytest.raises(InterfaceError, match="unserializable value of "
                                                 "type object"):
            dumps_canonical({"x": object()})
        with pytest.raises(InterfaceError, match="cannot serialize a object"):
            to_document(object())

    def test_numpy_provenance_written_as_numbers(self):
        G = GeometricConfiguration(
            [[1.0, 0.0]], (Conic.from_coeffs(1, 0, 1, 0, 0, -1),), [(0, 0)],
            provenance={"n": np.int64(3), "r": np.float64(0.5)})
        prov = to_document(G)["provenance"]
        assert prov == {"n": 3, "r": 0.5}
        assert (type(prov["n"]), type(prov["r"])) == (int, float)
        assert dumps_canonical(to_document(G)).endswith(
            '"provenance": {"n": 3, "r": 0.5}}\n')

    def test_flag_out_of_range_rejected(self):
        with pytest.raises(GeometryError, match="out of range"):
            GeometricConfiguration(np.zeros((1, 2)), (), [(0, 3)])

    @pytest.mark.parametrize("flag", [(-1, 0), (0, -1), (2, 0), (0, 1),
                                      (2 ** 63, 0), (0, 2 ** 70)])
    def test_flag_out_of_range_named(self, flag):
        conic = crossed_ellipses().conics[0]
        for flags in ([(1, 0), flag], frozenset([(0, 0), flag])):
            with pytest.raises(GeometryError,
                               match=rf"^flag \({flag[0]}, {flag[1]}\) out "
                                     "of range$"):
                GeometricConfiguration(np.zeros((2, 2)), (conic,), flags)
        if max(flag) < 2 ** 63:
            with pytest.raises(GeometryError, match="out of range"):
                GeometricConfiguration(np.zeros((2, 2)), (conic,),
                                       np.array([(1, 0), flag]))

    def test_flag_range_checked_once(self):
        # The configuration checks its flags' range; its structure is built
        # from the checked array, while the public structure constructor
        # still checks and raises IncidenceError.
        G = crossed_ellipses()
        with mock.patch.object(configuration, "_flag_rows",
                               wraps=incidence._flag_rows) as in_config, \
                mock.patch.object(incidence, "_flag_rows",
                                  wraps=incidence._flag_rows) as in_structure:
            H = GeometricConfiguration(G.points, G.conics, list(G.flags))
            assert (in_config.call_count, in_structure.call_count) == (1, 0)
            with pytest.raises(IncidenceError, match="out of range"):
                incidence.IncidenceStructure(2, 2, [(0, 2)])
            assert in_structure.call_count == 1
        assert H.to_incidence_structure() == G.to_incidence_structure()

    @pytest.mark.parametrize("index", [7, 2 ** 63, 2 ** 64, 2 ** 70])
    def test_reader_flag_beyond_range(self, index):
        doc = to_document(crossed_ellipses())
        doc["flags"][1] = [0, index]
        with pytest.raises(GeometryError, match=f"flag \\(0, {index}\\) out "):
            from_document(doc)
        C = to_document(catalog("fano"))
        C["flags"][2] = [index, 0]
        with pytest.raises(IncidenceError, match=f"point index {index} "):
            from_document(C)

    def test_reader_array_and_fallback_agree(self):
        for obj in (crossed_ellipses(), pmn(4, 4), catalog("pappus")):
            doc = to_document(obj)
            fast = io._flags(doc)
            assert isinstance(fast, np.ndarray) and fast.dtype == np.int64
            doc["flags"] = [[float(p), b] for p, b in doc["flags"]]
            slow = io._flags(doc)
            assert isinstance(slow, list)
            assert [tuple(f) for f in fast.tolist()] == slow

    def test_canonical_reals_survive(self):
        G = crossed_ellipses()
        doc = json.loads(dumps_canonical(to_document(G)))
        assert doc["points"] == [[float(x), float(y)] for x, y in G.points]


_SPECIAL_REALS = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 2.0,
                  -3.0, 1e16, math.nan, math.inf, -math.inf]
_reals = st.one_of(st.floats(), st.sampled_from(_SPECIAL_REALS))
_scalars = st.one_of(_reals, st.integers(-10 ** 6, 10 ** 6), st.booleans(),
                     st.none(), st.text(max_size=4))


@st.composite
def _rows(draw):
    """Lists of equal-width rows: floats, ints or a mixture."""
    width = draw(st.integers(0, 6))
    cell = draw(st.sampled_from([_reals, st.integers(-10 ** 6, 10 ** 6),
                                 _scalars]))
    return draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                         max_size=6))


_values = st.recursive(
    st.one_of(_scalars, _rows()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=4)),
    max_leaves=20)


def _dumped(dump, doc):
    try:
        return dump(doc)
    except InterfaceError as exc:
        return f"InterfaceError: {exc}"


class TestCanonicalRowsPass:
    """The writer's one-format numeric rows against the element-by-element
    `recursive_dump_value`."""

    @given(st.dictionaries(st.text(max_size=6), _values, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_recursive_dump(self, doc):
        assert _dumped(dumps_canonical, doc) == \
            _dumped(lambda d: recursive_dump_value(d) + "\n", doc)

    @given(_values)
    @settings(max_examples=200, deadline=None)
    def test_nested_values_match_recursive_dump(self, value):
        assert _dumped(_dump_value, value) == \
            _dumped(recursive_dump_value, value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_row_rejected(self, bad):
        with pytest.raises(InterfaceError, match="non-finite real"):
            dumps_canonical({"points": [[0.0, 1.0], [bad, 2.0]]})

    def test_documents(self):
        for obj in (pmn(4, 4), richter_gebert(seed=1), catalog("fano"),
                    dipyramid_carnot(3, seed=0)):
            doc = to_document(obj)
            assert dumps_canonical(doc) == recursive_dump_value(doc) + "\n"


def _with_integral_float_indices(doc: dict) -> dict:
    doc = copy.deepcopy(doc)
    doc["flags"] = [[float(p), float(b)] for p, b in doc["flags"]]
    if doc["kind"] == "combinatorial":
        doc["points"], doc["blocks"] = (float(doc["points"]),
                                        float(doc["blocks"]))
    return doc


class TestIntegralFloatsAndNonFinite:
    def test_integral_float_indices_read_as_int(self):
        for obj in (pmn(4, 4), catalog("fano")):
            doc = to_document(obj)
            floats = _with_integral_float_indices(doc)
            back, twin = from_document(floats), from_document(doc)
            assert back.flags == twin.flags
            assert all(type(i) is int for f in back.flags for i in f)
            assert dumps_canonical(to_document(back)) == \
                dumps_canonical(to_document(twin))
        C = from_document(_with_integral_float_indices(
            to_document(catalog("fano"))))
        assert type(C.num_points) is int and type(C.num_blocks) is int

    def test_integral_float_indices_cli(self, tmp_path, capsys):
        g, c = tmp_path / "g.json", tmp_path / "c.json"
        g.write_text(json.dumps(_with_integral_float_indices(
            to_document(pmn(4, 4)))))
        c.write_text(json.dumps(_with_integral_float_indices(
            to_document(catalog("anti-miquel-small")))))
        assert main(["analyze", "-i", str(g)]) == 0
        assert "audit passed" in capsys.readouterr().out
        assert main(["props", "-i", str(c)]) == 0
        assert "2-connected" in capsys.readouterr().out

    NON_FINITE = {
        "point": ("points", 0, 0, math.inf),
        "point-neg": ("points", 1, 1, -math.inf),
        "point-nan": ("points", 0, 1, math.nan),
        "conic-nan": ("conics", 0, 0, math.nan),
        "conic-inf": ("conics", 1, 5, math.inf),
        "point-huge-int": ("points", 0, 0, 10 ** 400),
    }

    @staticmethod
    def _doc_with(where, i, j, value):
        doc = to_document(crossed_ellipses())
        doc[where][i][j] = value
        return doc

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_rejected(self, case):
        where, i, j, value = self.NON_FINITE[case]
        with pytest.raises(InterfaceError,
                           match=rf"non-finite .*\$\.{where}\[{i}\]\[{j}\]"):
            from_document(self._doc_with(where, i, j, value))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 10 ** 400])
    def test_non_finite_tol_rejected(self, tol):
        doc = to_document(crossed_ellipses())
        doc["tol"] = tol
        with pytest.raises(InterfaceError, match="non-finite"):
            from_document(doc)

    @pytest.mark.parametrize("case", ["point", "point-nan", "conic-nan",
                                      "conic-inf"])
    def test_non_finite_cli_exit_1(self, case, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(self._doc_with(*self.NON_FINITE[case])))
        for verb in (["analyze", "-i", str(bad)],
                     ["render", "-i", str(bad), "-o", str(tmp_path / "x.svg")]):
            assert main(verb) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "non-finite" in err


# A differential test of the reader against the published schemas. Valid
# documents are mutated at random; on documents whose reals are finite the
# reader must report a schema violation exactly when Draft 2020-12 finds
# the document invalid, and must leave the document as it was.
_VALIDATORS = {kind: jsonschema.Draft202012Validator(schema)
               for kind, schema in io._SCHEMAS.items()}
_BASES = [to_document(catalog("fano"), name="fano"),
          to_document(catalog("pappus")),
          to_document(crossed_ellipses()),
          {k: v for k, v in to_document(polygon_ring(3)).items()
           if k != "provenance"}]
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9),
    st.sampled_from([0.0, 1.0, 2.0, -1.0, -0.0, 0.5, 1e-9, 1e300]),
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    st.text(max_size=2),
    st.lists(st.one_of(st.integers(-1, 3), st.floats(-2, 2)), max_size=7),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))
# Cell values near the boundary: indices that are valid, integral floats,
# negatives and bools.
_cells = st.one_of(_junk, st.integers(0, 3),
                   st.sampled_from([0.0, 1.0, 2.0, -0.0, -1, True, False]))
_KEYS = ["kind", "points", "blocks", "conics", "flags", "tol", "provenance",
         "name", "extra"]


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["drop", "set", "row", "cell", "cell",
                                    "cell", "resize"]))
        if how == "drop":
            doc.pop(draw(st.sampled_from(_KEYS[1:])), None)
        elif how == "set":
            doc[draw(st.sampled_from(_KEYS[1:]))] = draw(_cells)
        else:
            rows = [k for k in ("points", "conics", "flags")
                    if isinstance(doc.get(k), list) and doc[k]]
            if not rows:
                continue
            arr = doc[draw(st.sampled_from(rows))]
            i = draw(st.integers(0, len(arr) - 1))
            if how == "row":
                arr[i] = draw(_junk)
            elif not isinstance(arr[i], list):
                continue
            elif how == "resize":
                n = draw(st.integers(0, len(arr[i]) + 2))
                arr[i] = (arr[i] + [draw(_junk), draw(_junk)])[:n]
            elif arr[i]:
                arr[i][draw(st.integers(0, len(arr[i]) - 1))] = draw(_cells)
    return doc


def _reader_verdict(doc):
    """True if the reader reports a schema violation; semantic rejections
    (unnormalized conics, indices out of range) are schema-valid."""
    try:
        from_document(doc)
    except InterfaceError as exc:
        return str(exc).startswith("schema violation")
    except (GeometryError, IncidenceError):
        pass
    return False


_DROP = object()
# (base document, path, new value or _DROP, valid under the schema)
_LISTED_MUTATIONS = {
    "negative flag": (2, ("flags", 0, 0), -1, False),
    "bool flag": (0, ("flags", 1, 1), True, False),
    "integral-float flag": (2, ("flags", 0, 1), 1.0, True),
    "fractional flag": (2, ("flags", 0, 1), 0.5, False),
    "short flag": (0, ("flags", 0), [0], False),
    "long flag": (0, ("flags", 0), [0, 0, 0], False),
    "short point": (2, ("points", 0), [0.5], False),
    "long point": (2, ("points", 0), [0.5, 0.5, 0.5], False),
    "tuple point": (2, ("points", 0), (0.5, 0.5), False),
    "short conic": (2, ("conics", 0), [1, 0, 0, 0, 0], False),
    "long conic": (2, ("conics", 0), [1, 0, 0, 0, 0, 0, 0], False),
    "bool coordinate": (2, ("points", 1, 0), False, False),
    "string coefficient": (2, ("conics", 1, 2), "0", False),
    "integral-float count": (0, ("points",), 7.0, True),
    "negative count": (1, ("blocks",), -1, False),
    "bool count": (1, ("points",), True, False),
    "zero tol": (2, ("tol",), 0, False),
    "negative tol": (2, ("tol",), -1e-9, False),
    "int tol": (2, ("tol",), 1, True),
    "list provenance": (2, ("provenance",), [], False),
    "no provenance": (2, ("provenance",), _DROP, True),
    "name on geometric": (2, ("name",), "x", False),
    "int name": (0, ("name",), 3, False),
    "extra key": (1, ("extra",), 0, False),
    "missing tol": (2, ("tol",), _DROP, False),
    "flags not an array": (1, ("flags",), {}, False),
}


class TestReaderMatchesSchema:
    @pytest.mark.parametrize("case", sorted(_LISTED_MUTATIONS))
    def test_listed_mutations(self, case):
        base, path, value, valid = _LISTED_MUTATIONS[case]
        doc = copy.deepcopy(_BASES[base])
        *parent, last = path
        target = doc
        for key in parent:
            target = target[key]
        if value is _DROP:
            del target[last]
        else:
            target[last] = value
        assert _VALIDATORS[doc["kind"]].is_valid(doc) == valid
        assert _reader_verdict(doc) == (not valid)

    def test_bases_are_valid(self):
        for doc in _BASES:
            assert _VALIDATORS[doc["kind"]].is_valid(doc)
            assert not _reader_verdict(doc)

    @given(mutated_documents())
    @settings(max_examples=600, deadline=None)
    def test_rejects_exactly_what_the_schema_rejects(self, doc):
        before = copy.deepcopy(doc)
        assert _reader_verdict(doc) == \
            (not _VALIDATORS[doc["kind"]].is_valid(doc))
        assert doc == before


class TestSvg:
    def test_pmn44_counts(self):
        svg = render_svg(pmn(4, 4))
        assert svg.count("<ellipse") == 32
        assert svg.count("<circle") == 32
        assert svg.startswith("<?xml")
        assert "</svg>" in svg

    def test_crossed_counts(self):
        svg = render_svg(crossed_ellipses())
        assert svg.count("<ellipse") == 2
        assert svg.count("<circle") == 4

    def test_empty_configuration(self):
        G = GeometricConfiguration(np.zeros((0, 2)), (), frozenset())
        svg = render_svg(G)
        assert "<svg" in svg and "</svg>" in svg

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        render_svg(polygon_ring(5), path=p1)
        render_svg(polygon_ring(5), path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_style_validation(self):
        with pytest.raises(ValueError):
            SceneStyle(stroke_width=-1)
        with pytest.raises(ValueError):
            SceneStyle(palette=())
        with pytest.raises(ValueError):
            SceneStyle(canvas=(0, 100))
        assert SceneStyle(margin=0.0).margin == 0.0

    @pytest.mark.parametrize("field, value", [
        ("margin", 0.5), ("margin", 0.7), ("margin", -0.1),
        ("margin", math.nan), ("stroke_width", math.nan),
        ("stroke_width", math.inf), ("point_radius", math.nan),
        ("point_radius", -math.inf), ("canvas", (math.nan, 800)),
        ("canvas", (800, math.inf))])
    def test_style_rejects_bad_sizes(self, field, value):
        # A margin of 0.5 drew every shape with zero size, one above 0.5
        # with negative radii; NaN sizes passed the positivity test, and a
        # NaN canvas wrote width="nan".
        with pytest.raises(ValueError, match="margin|finite"):
            SceneStyle(**{field: value})


def _pair_scene(e_ac, e_bd, side):
    return GeometricConfiguration(np.array(side), (e_ac, e_bd), frozenset(
        (p, b) for p in range(4) for b in range(2)))


# One scene per builder and realizer; the product is the Minkowski square.
SVG_SCENES = {
    "crossed_ellipses": crossed_ellipses,
    "polygon_ring": lambda: polygon_ring(5),
    "parallelogram_ellipse_pair": lambda: _pair_scene(
        *parallelogram_ellipse_pair((0, 0), (2, 0), (2.5, 1), (0.5, 1))),
    "qcube_48": qcube_48,
    "richter_gebert": lambda: richter_gebert(seed=1),
    "dipyramid_carnot": lambda: dipyramid_carnot(4, seed=3),
    "pmn": lambda: pmn(4, 6),
    "cell24": cell24,
    "product": lambda: product(dipyramid_carnot(3, seed=0),
                               dipyramid_carnot(3, seed=0),
                               genericize=True, seed=1),
    "realize_lineal_by_circles":
        lambda: realize_lineal_by_circles(catalog("pappus"), seed=0),
    "realize_by_conics": lambda: realize_by_conics(catalog("miquel"), seed=0),
    "realize_by_conics_anti_miquel":
        lambda: realize_by_conics(catalog("anti-miquel-small"), seed=1),
}

# Every Conic.kind, and the two scans the sampler treats apart: c = 0 (the
# transposed scan) and a = c = 0 (a quadratic without leading coefficient).
FUZZ_KINDS = ("ellipse", "hyperbola", "parabola", "pair-of-lines",
              "double-line", "point", "empty", "c=0", "a=c=0")


def _fuzz_conic(kind: str, rng, s: float, shift) -> Conic:
    """A conic of the named kind near `shift` at scale `s`."""
    if kind == "ellipse":
        return ellipse_conic(shift + rng.normal(size=2) * s,
                             s * rng.uniform(0.5, 2), s * rng.uniform(0.1, 0.5),
                             rng.uniform(0, math.pi))
    x0, y0 = shift + rng.normal(size=2) * s
    # Forms in coordinates centred at (x0, y0) and scaled by s.
    H = np.array([[1 / s, 0, -x0 / s], [0, 1 / s, -y0 / s], [0, 0, 1]])
    if kind == "hyperbola":
        A = np.diag([rng.uniform(0.2, 2), -rng.uniform(0.2, 2), 1.0])
    elif kind == "parabola":
        p, q = rng.normal(size=2)
        A = np.array([[p * p, p * q, 0.5], [p * q, q * q, 0.3], [0.5, 0.3, 0]])
    elif kind in ("pair-of-lines", "double-line"):
        u = rng.normal(size=3)
        v = rng.normal(size=3) if kind == "pair-of-lines" else u
        A = np.outer(u, v) + np.outer(v, u)
    elif kind == "point":
        A = np.diag([rng.uniform(0.5, 2), rng.uniform(0.5, 2), 0.0])
    elif kind == "empty":
        A = np.diag([1.0, rng.uniform(0.5, 2), 1.0])
    else:
        A = rng.normal(size=(3, 3))
        A = A + A.T
        A[1, 1] = 0.0
        if kind == "a=c=0":
            A[0, 0] = 0.0
    return Conic(H.T @ A @ H)


def _fuzz_scene(seed: int, kinds, scale: float, num_points: int):
    rng = np.random.default_rng(seed)
    shift = rng.normal(size=2) * scale * rng.uniform(0, 3)
    conics = []
    for kind in kinds:
        try:
            conics.append(_fuzz_conic(kind, rng, scale, shift))
        except GeometryError:
            pass
    pts = shift + rng.normal(size=(num_points, 2)) * scale
    return GeometricConfiguration(pts, tuple(conics), frozenset())


_styles = st.one_of(
    st.none(),
    st.builds(SceneStyle,
              stroke_width=st.floats(0.1, 5), point_radius=st.floats(0.1, 5),
              palette=st.sampled_from([("#000",), ("#123456", "#abcdef",
                                                   "red")]),
              canvas=st.tuples(st.integers(20, 1200), st.integers(20, 1200)),
              margin=st.floats(0, 0.3), point_color=st.just("#00ff00"),
              background=st.just("none")))


class TestSvgMatchesScalarRenderer:
    """render_svg's stacked passes against the conic-by-conic renderer
    `scalar_render_svg`, byte for byte."""

    @pytest.mark.parametrize("name", sorted(SVG_SCENES))
    def test_builders_and_realizers(self, name):
        G = SVG_SCENES[name]()
        assert render_svg(G) == scalar_render_svg(G)

    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_every_kind(self, kind):
        G = _fuzz_scene(7, [kind] * 3, 1.0, 4)
        if kind in pointconic.geometry.KINDS:
            assert kind in {c.kind for c in G.conics}
        assert render_svg(G) == scalar_render_svg(G)

    def test_one_point_runs_closed_out_of_range(self):
        # Steep lines through the origin: the scan's middle sample, x = 0,
        # is the only one in range, so each root slot gives a one-point run
        # that the next, out-of-range root closes.
        lines = Conic(np.diag([-1e6, 1.0, 0.0]))
        G = GeometricConfiguration(np.array([[-1.0, 0.0], [1.0, 1.0]]),
                                   (lines,), frozenset())
        svg = render_svg(G)
        paths = [ln for ln in svg.splitlines() if "<path" in ln]
        assert len(paths) == 2 and not any(" L " in ln for ln in paths)
        assert svg == scalar_render_svg(G)

    def test_empty_scene(self):
        G = GeometricConfiguration(np.zeros((0, 2)), (), frozenset())
        style = SceneStyle(canvas=(300, 200), margin=0.2)
        assert render_svg(G, style) == scalar_render_svg(G, style)

    @given(seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.sampled_from(FUZZ_KINDS), max_size=6),
           exponent=st.floats(-3, 3), num_points=st.integers(0, 5),
           style=_styles)
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_scenes(self, seed, kinds, exponent, num_points, style):
        G = _fuzz_scene(seed, kinds, 10.0 ** exponent, num_points)
        assert render_svg(G, style) == scalar_render_svg(G, style)


# Pixel values whose formatting is easy to get wrong: signed zeros, values
# that round to -0.000 or across a digit, and values near +-1e6.
_PIXELS = (0.0, -0.0, -0.0004, -0.0005, 0.0005, -1e-12, 0.0015, 2.0005,
           -2.5e-4, 999999.9995, -999999.9995, 1e6, -1e6, 123.4565)


class TestBranchPathFormat:
    """svg._path_data's one %-format against one str.format per point."""

    @pytest.mark.parametrize("n", [1, 2, 257])
    def test_edge_values(self, n):
        rng = np.random.default_rng(n)
        px = rng.choice(_PIXELS, size=n) * rng.choice([1, -1], size=n)
        py = rng.choice(_PIXELS, size=n)
        xy = np.stack([px, py], axis=1).ravel().tolist()
        assert _path_data(xy) == format_path_data(px.tolist(), py.tolist())

    @given(pixels=st.lists(st.tuples(
               st.floats(-2e6, 2e6) | st.sampled_from(_PIXELS),
               st.floats(-2e6, 2e6) | st.sampled_from(_PIXELS)),
               min_size=1, max_size=257))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_pixels(self, pixels):
        px, py = zip(*pixels)
        xy = [v for pair in pixels for v in pair]
        assert _path_data(xy) == format_path_data(px, py)


def _relative_residual(conic: Conic, x, y):
    """|q(x, y)| over the sum of its terms' magnitudes."""
    terms = (np.array([x * x, x * y, y * y, x, y, np.ones_like(x)]).T
             * np.array(conic.coeffs()))
    return np.abs(terms.sum(axis=1)) / np.abs(terms).sum(axis=1)


class TestLinearScan:
    """Conics without x^2 and y^2 terms (b xy + d x + e y + f = 0) are
    scanned by their one linear root per line."""

    XY1 = Conic.from_coeffs(0, 1, 0, 0, 0, -1)

    @staticmethod
    def _bbox(G):
        """The scene's bbox; its conics are no ellipses."""
        return _world_bbox(G.points, ellipse_parameters_stack(
            np.zeros((0, 3, 3))))

    def _scanned(self, G):
        """World points (X, Y) of each conic's in-range roots, and the
        in-range mask (2, SAMPLES + 1) of its two root slots."""
        forms = np.array([c.form for c in G.conics])
        swap, x, real, y, inside = _scan(forms, self._bbox(G))
        for c in range(len(forms)):
            # Both squares vanish, so the scan is the transposed one.
            assert swap[c]
            scan = np.broadcast_to(x[c], y[c].shape)
            yield y[c][inside[c]], scan[inside[c]], inside[c]

    @pytest.mark.parametrize("pts", [[[1, 1], [2, 0.5], [-1, -1]],
                                     [[-1, -1], [1, 1]]])
    def test_hyperbola_xy_1(self, pts):
        # The second scene's scan has a line at exactly y = 0, where the
        # equation has no root.
        G = GeometricConfiguration(np.array(pts, float), (self.XY1,),
                                   frozenset())
        svg = render_svg(G)
        assert svg == scalar_render_svg(G)
        for xs, ys, inside in self._scanned(G):
            assert not inside[1].any()
            assert (_relative_residual(self.XY1, xs, ys) <= 1e-9).all()
        # Both branches, each a path of its own.
        to_px = _Mapper(self._bbox(G), (800, 800), 0.06)
        ox, _ = to_px(0.0, 0.0)
        sides = []
        for line in svg.splitlines():
            if "<path" in line:
                pxs = [float(v) for v in line.split('"')[1].split()[1::3]]
                sides.append({px > ox for px in pxs})
        assert sorted(map(sorted, sides)) == [[False], [True]]

    def test_one_point_run_closed_by_rootless_line(self):
        # xy = h with h the scan step: the scan over y in [-1.5, 1.5] has
        # its only in-range root x = -1 at y = -h, and the next line, y = 0,
        # has no root. Like a line with a negative discriminant, it drops
        # the one-point run.
        h = 3 / 256
        conic = Conic.from_coeffs(0, 1, 0, 0, 0, -h)
        G = GeometricConfiguration(np.array([[-2.625, -1.0], [-1.125, 1.0]]),
                                   (conic,), frozenset())
        ((xs, ys, inside),) = self._scanned(G)
        assert xs.tolist() == [-1.0] and ys.tolist() == [-h]
        svg = render_svg(G)
        assert svg == scalar_render_svg(G) and "<path" not in svg

    def test_random_linear_conics(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            b, d, e, f = rng.normal(size=4)
            conic = Conic.from_coeffs(0, b, 0, d, e, f)
            xs = rng.normal(size=3)
            pts = np.column_stack([xs, -(d * xs + f) / (b * xs + e)])
            G = GeometricConfiguration(pts, (conic,), frozenset())
            svg = render_svg(G)
            assert svg == scalar_render_svg(G)
            assert "<path" in svg
            for xs, ys, _ in self._scanned(G):
                assert (_relative_residual(conic, xs, ys) <= 1e-9).all()


class TestCli:
    def test_build_analyze_props(self, tmp_path, capsys):
        out = tmp_path / "q4.json"
        assert main(["build", "pmn", "--m", "4", "--n", "4",
                     "-o", str(out)]) == 0
        assert main(["analyze", "-i", str(out)]) == 0
        text = capsys.readouterr().out
        assert "(32_6)" in text
        assert "intersection type {1,2}" in text
        assert "audit passed" in text
        assert main(["props", "-i", str(out)]) == 0
        assert "conical" in capsys.readouterr().out

    def test_catalog_props(self, tmp_path, capsys):
        out = tmp_path / "am.json"
        assert main(["catalog", "anti-miquel-small", "-o", str(out)]) == 0
        assert main(["props", "-i", str(out)]) == 0
        text = capsys.readouterr().out
        assert "strongly circular" in text
        assert "2-connected" in text

    def test_realize_circles(self, tmp_path, capsys):
        fano = tmp_path / "fano.json"
        circ = tmp_path / "fano_circ.json"
        assert main(["catalog", "fano", "-o", str(fano)]) == 0
        assert main(["realize", "circles", "-i", str(fano), "--seed", "1",
                     "-o", str(circ)]) == 0
        assert "audit passed" in capsys.readouterr().out
        assert main(["analyze", "-i", str(circ)]) == 0

    def test_render(self, tmp_path):
        g = tmp_path / "g.json"
        svg = tmp_path / "g.svg"
        assert main(["build", "crossed_ellipses", "-o", str(g)]) == 0
        assert main(["render", "-i", str(g), "-o", str(svg)]) == 0
        assert svg.read_text().count("<ellipse") == 2
        # The bytes of the default style.
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "e114e5ed961175357c2939cba5bb0f4834faf7a09e84cadb6878386c1e2d9f98")

    @pytest.mark.parametrize("option", [
        ("--margin", "0.7"), ("--margin", "0.5"), ("--stroke-width", "nan"),
        ("--point-radius", "inf"), ("--canvas", "800")])
    def test_render_bad_style_exit_1(self, option, tmp_path, capsys):
        g, svg = tmp_path / "g.json", tmp_path / "g.svg"
        assert main(["build", "crossed_ellipses", "-o", str(g)]) == 0
        capsys.readouterr()
        assert main(["render", "-i", str(g), "-o", str(svg), *option]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not svg.exists()

    def test_usage_errors(self, capsys):
        assert main(["frobnicate"]) == 2
        assert main([]) == 2
        assert main(["build", "no_such_builder", "-o", "x.json"]) == 2
        capsys.readouterr()

    def test_validation_failure_exit_1(self, tmp_path, capsys):
        miq = tmp_path / "miq.json"
        assert main(["catalog", "miquel", "-o", str(miq)]) == 0
        assert main(["realize", "circles", "-i", str(miq),
                     "-o", str(tmp_path / "x.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_kind_exit_1(self, tmp_path, capsys):
        fano = tmp_path / "fano.json"
        assert main(["catalog", "fano", "-o", str(fano)]) == 0
        assert main(["analyze", "-i", str(fano)]) == 1
        assert main(["render", "-i", str(fano),
                     "-o", str(tmp_path / "x.svg")]) == 1
        capsys.readouterr()
        g = tmp_path / "g.json"
        assert main(["build", "crossed_ellipses", "-o", str(g)]) == 0
        capsys.readouterr()
        assert main(["realize", "circles", "-i", str(g),
                     "-o", str(tmp_path / "x.json")]) == 1
        assert capsys.readouterr().err == (
            "error: realize expects a combinatorial input file\n")

    def test_analyze_geometric(self, tmp_path, capsys):
        # 496 is C(32, 2), every pair of conics, not the pairs that meet: a
        # known fault of this line, pinned until it is fixed.
        out = tmp_path / "q4.json"
        assert main(["build", "pmn", "--m", "4", "--n", "4",
                     "-o", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--geometric", "-i", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[3:] == [
            "geometric meets: 496 intersecting pairs, 407 with "
            "non-configuration intersections", "audit passed"]

    def test_analyze_prints_defects(self, tmp_path, capsys):
        # Point 1 is flagged on the unit circle but lies off it.
        circle = Conic.from_coeffs(1, 0, 1, 0, 0, -1)
        path = tmp_path / "off.json"
        write_configuration(GeometricConfiguration(
            [[1.0, 0.0], [0.0, 1.5]], (circle,), [(0, 0), (1, 0)]), path)
        assert main(["analyze", "-i", str(path)]) == 1
        assert capsys.readouterr().out.splitlines()[3:] == [
            "missing: [(1, 0)]", "audit FAILED"]

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["analyze", "-i", str(tmp_path / "absent.json")]) == 1
        capsys.readouterr()

    def test_flag_out_of_range_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "geometric", "points": [[0, 0]],
                                   "conics": [], "flags": [[0, 3]],
                                   "tol": 1e-8}))
        assert main(["analyze", "-i", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "out of range" in err

    @pytest.mark.parametrize("index", [7, 2 ** 70])
    def test_flag_beyond_one_conic_exit_1(self, tmp_path, capsys, index):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "kind": "geometric", "points": [[1.189207115002721, 0.0]],
            "conics": [[0.5, 0.0, 0.5, 0.0, 0.0, -0.7071067811865476]],
            "flags": [[0, index]], "tol": 1e-8}))
        assert main(["analyze", "-i", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: flag (0, {index}) out of range\n"

    def test_props_loads_neither_networkx_nor_scipy(self, tmp_path):
        doc = tmp_path / "pmn44.json"
        write_configuration(pmn(4, 4), doc)
        probe = (
            "import sys\n"
            "def heavy():\n"
            "    return sorted({m.split('.')[0] for m in sys.modules}\n"
            "                  & {'networkx', 'scipy'})\n"
            "from pointconic import cli\n"
            "assert not heavy(), heavy()\n"
            f"assert cli.main(['props', '-i', {str(doc)!r}]) == 0\n"
            "assert not heavy(), heavy()\n")
        src = str(Path(pointconic.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-2:] == ["girth 4", "6-connected"]

    def test_reading_does_not_load_jsonschema(self, tmp_path):
        doc = tmp_path / "pmn44.json"
        write_configuration(pmn(4, 4), doc)
        probe = (
            "import sys\n"
            "from pointconic import cli\n"
            "assert 'jsonschema' not in sys.modules\n"
            f"assert cli.main(['analyze', '-i', {str(doc)!r}]) == 0\n"
            f"assert cli.main(['render', '-i', {str(doc)!r}, '-o', "
            f"{str(tmp_path / 'pmn44.svg')!r}]) == 0\n"
            "assert 'jsonschema' not in sys.modules\n")
        src = str(Path(pointconic.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert "audit passed" in run.stdout
        assert (tmp_path / "pmn44.svg").read_text().count("<ellipse") == 32

    def test_cli_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["build", "dipyramid_carnot", "--n", "3",
                         "--seed", "9", "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    # SHA-256 of the only CLI outputs built from conic-conic kernel points;
    # no benchmark digest covers them. A fix of the lines-through-the-origin
    # basis fault in the kernel's line parametrization may move them;
    # update them together with the benchmark's pinned counts. The
    # polygon_ring digests moved when the Newton polish became closed-form
    # (Cramer's rule in place of LAPACK solves): their points moved by at
    # most 8.4e-15, their conics and flags not at all.
    BUILD_DIGESTS = {
        ("crossed_ellipses",):
            "eb6e2a4d566ca879d3d504713f35beb87f7106c0540310a5561bd240ad669181",
        ("polygon_ring", "--n", "3"):
            "3027ea1f472a9f7c84718c51f426cff8c1ae92d3e6a63e30c6f268e6482ba456",
        ("polygon_ring", "--n", "4"):
            "195d0468c4aad3965850b16c70f374c01b8bc14472984326a3e4a1ea336dd3bd",
        ("polygon_ring", "--n", "5"):
            "8d9d0c0fae56a9d0f7d5af0eb31a2bca25eac338b826ab0bba50369aef79753e",
        ("polygon_ring", "--n", "6"):
            "1ec94ce0f1703891f5d4afa71ee5be268ddebc9c072b6daf85b7d15d9db96975",
        ("polygon_ring", "--n", "7"):
            "b618acc719564e70447a702cda22e536ecabc4a04a52d41f930e5e26e65c0ed6",
        ("polygon_ring", "--n", "8"):
            "7e15e491fe6a9fa2a03d8dde745e85d7a4951fbf545f22e232c34157a2f57834",
    }

    def test_kernel_built_outputs_pinned(self, tmp_path, capsys):
        for args, digest in self.BUILD_DIGESTS.items():
            out = tmp_path / "out.json"
            assert main(["build", *args, "-o", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args
        capsys.readouterr()

    # SHA-256 of the seeded builders' and realizers' outputs, recorded before
    # their resampling loops were folded into `constructions._retry`. Every
    # retry budget and the order of every RNG draw were kept, so these bytes
    # must not move.
    SEEDED_BUILD_DIGESTS = {
        ("richter_gebert", "--seed", "0"):
            "c6e954d3f014cdbdec633c864636f8549dc88b848f87aefd694fe0f8244a5c71",
        ("richter_gebert", "--seed", "1"):
            "ed935fc3e84ce0c0408cc99e8d167672653c02f92dd13449c8eb75fcc948528e",
        ("richter_gebert", "--seed", "2"):
            "612e71806093203b7653c903c01756144cbd3789a7daadcd6bb6b979a5abd54f",
        ("richter_gebert", "--seed", "3"):
            "27324ba68ade8021926a531375163f0cd7421725fc97f220cd778bfce3a47ed0",
        ("richter_gebert", "--seed", "4"):
            "38c6edbc8fcc3032a2b1988770483091a931b4c8ea0f681637091e9cb7769985",
        ("dipyramid_carnot", "--n", "3", "--seed", "0"):
            "c7564f51c8de4222686c73c48210093beaddbe0bbc10444fecbf00b655514c61",
        ("dipyramid_carnot", "--n", "3", "--seed", "1"):
            "c998f85d9639855775c4a91e5e1fad26b4592768d2edc9a77a3b6d6053b9fc2b",
        ("dipyramid_carnot", "--n", "3", "--seed", "2"):
            "ccf7601e7e0dd7a335e8e414aae3f1e33d952290c3db0b044634cf2a02f3f573",
        ("dipyramid_carnot", "--n", "5", "--seed", "0"):
            "5756f7f3793e3e0ef6ba9d6c1a936ed797c53459d60b6ec594142fdbf572321f",
        ("dipyramid_carnot", "--n", "5", "--seed", "1"):
            "bc232b9699126b9b75123376217be690cbeb9f59d7305112a37b31984102f993",
        ("dipyramid_carnot", "--n", "5", "--seed", "2"):
            "12c8a553450848fe0dc6b758225550da78b84ad80fe3b386063f97bb50f5e608",
        ("dipyramid_carnot", "--n", "8", "--seed", "0"):
            "4335533eec2e80ed8170e76059d6ab7a20483d938ba8f141eff6f48bd620b8ec",
        ("dipyramid_carnot", "--n", "8", "--seed", "1"):
            "6e5d4110385a074130a343156414f159b7f7426ff603d04613e552da53a1ef81",
        ("dipyramid_carnot", "--n", "8", "--seed", "2"):
            "ac2f21eebb7bad51a2368ef8a8713828557e993c2036ae4b977cbdf0c91c1708",
    }
    REALIZE_DIGESTS = {
        ("circles", "fano", 0):
            "0473cd27c49b42e8bd1225e34edfd66ae3466fdd559d33b84c27f5540baaf8b6",
        ("circles", "fano", 1):
            "0d86ec3d871dd664b461cfd50bf33979b8dfdbdfbf4aebf55e9774f5aa569c69",
        ("circles", "fano", 2):
            "1ccb86edc1944ec150374cfff0c91cfa928c57ea84fcf700af5aa2dea192f768",
        ("circles", "fano", 3):
            "18f1d04cd99e14f9488f9a17a40cb7c5ab044a6d08d8ba52111d6fd7ff25abdd",
        ("circles", "fano", 4):
            "e43d41ab1acae91c53041d35b25ab3f4106546933fd2ffe3de6c52ba50afad69",
        ("circles", "pappus", 0):
            "7ab302e0ae714adfb2db7f5e44bf1407b2886df510d7273d163a793b65a35f43",
        ("circles", "pappus", 1):
            "d94219cf1a29434f9450e39b22ecbc56b8b6513019447ed27581576563f8cb3d",
        ("circles", "pappus", 2):
            "5b0a147d0871e1a1d76e3024e83b4002dd2861d11bf5e9a9199cccd7f909bb27",
        ("circles", "pappus", 3):
            "689b6121879175c91dec22dc6436cfb07e0f8cff7fe404add7855ca77021a688",
        ("circles", "pappus", 4):
            "046b00a5315e3ebb2d8a50843651ada83d2bf6fa7c4d0329d363a8119aa3c8f9",
        ("conics", "anti-miquel-large", 0):
            "8cde6b7859ed5dc3e3e98334ad0227b14cedacc49c250f924e0a249bfe08225a",
        ("conics", "anti-miquel-large", 1):
            "85c78f9613a3fcc73a8e8a6ffe281d7ae1f93409a4779f1593e694416eb5f451",
        ("conics", "anti-miquel-large", 2):
            "35c8112c63b32f280f1f65d7b48df5428fc36d85419808397cad7c309a99522b",
        ("conics", "anti-miquel-small", 0):
            "309d2c128a4ca69c0edadfa457f1ea2938cfa6e9de186d080b7cdb7cb10b6c92",
        ("conics", "anti-miquel-small", 1):
            "846fd9a78a7e68e0290cb429fd73a83abbc2dcd31f12e69bf15946fe912bfdaf",
        ("conics", "anti-miquel-small", 2):
            "4b636f11fd50beccd5d184de1ae0873eb410f408acd7b2ccf0e2d0f9f9fe3656",
        ("conics", "fano", 0):
            "551594308891783803b7965c96842b415602cd49cbc0c89c38ea00152cf80907",
        ("conics", "fano", 1):
            "2bf615f26eb4111500165995a11e83f1b96a509295983a01553b0e9c6fd91747",
        ("conics", "fano", 2):
            "eb23ee323c94310ae3b64037118431528175d09a7c769c919b92f2bee00f715f",
        ("conics", "miquel", 0):
            "262c69dbe1901303e6ea67cb1116edb574686846526e62041faac49b45782192",
        ("conics", "miquel", 1):
            "17574f163a0d7fd6c610174ab90fdbb7a854e0d1cc41ca07f677f4fd08be2ba0",
        ("conics", "miquel", 2):
            "70c4b2a28025e86fe1d3e59f3b316442718b66da8095df556fd38ad5445ca2ed",
        ("conics", "pappus", 0):
            "dae159e498158548c449884353cde4f1589a787edfb8224dd856d5d50cfef9be",
        ("conics", "pappus", 1):
            "e659813a43f941b43135fa6d3d4046495b78c0719698cdb0d1c4ef8434a8f91c",
        ("conics", "pappus", 2):
            "0699807a2e261311f1448768eeaa433d86e34ecff55c9fa2011adca4c704c4c8",
    }

    def test_seeded_outputs_pinned(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        for args, digest in self.SEEDED_BUILD_DIGESTS.items():
            assert main(["build", *args, "-o", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args
        for (mode, name, seed), digest in self.REALIZE_DIGESTS.items():
            src = tmp_path / f"{name}.json"
            if not src.exists():
                assert main(["catalog", name, "-o", str(src)]) == 0
            assert main(["realize", mode, "-i", str(src), "--seed", str(seed),
                         "-o", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, \
                (mode, name, seed)
        capsys.readouterr()


_VERBS = ("build", "catalog", "realize", "analyze", "render", "props")
_RENDER = ["render", "-i", "s.json", "-o", "s.svg"]

# Every verb with every option, help at both levels, and each kind of usage
# error: no verb, unknown verb, unknown option, missing required option,
# bad choice, bad int or float, stray argument.
CLI_CORPUS = [
    ["build", "pmn", "--n", "5", "--m", "3", "--elongation", "0.2",
     "--minor", "0.1", "--seed", "3", "-o", "x.json"],
    ["build", "crossed_ellipses", "--output", "x.json"],
    ["catalog", "fano", "-o", "f.json"],
    ["catalog", "anti-miquel-large", "--output", "f.json"],
    ["realize", "conics", "-i", "a.json", "-o", "b.json", "--seed", "7"],
    ["realize", "circles", "--input", "a.json", "--output", "b.json"],
    ["analyze", "-i", "a.json", "--geometric"],
    ["analyze", "--input", "a.json"],
    _RENDER + ["--stroke-width", "2", "--point-radius", "1",
               "--canvas", "300x200", "--margin", "0.1"],
    ["render", "--input", "a.json", "--output", "b.svg"],
    ["props", "-i", "a.json"],
    ["props", "--input", "a.json"],
    ["--help"], ["-h"], *([verb, "--help"] for verb in _VERBS),
    ["props", "-i", "a.json", "-h"],
    [], ["frobnicate"], ["frobnicate", "-i", "a.json"], ["--bogus"],
    ["-i", "a.json", "props"], ["Props", "-i", "a.json"],
    _RENDER + ["--bogus"], ["props", "--bogus"], ["analyze", "-i"],
    ["build", "pmn"], ["build", "-o", "x.json"], ["catalog", "fano"],
    ["realize", "conics", "-i", "a.json"], ["realize"], ["analyze"],
    ["render", "-i", "a.json"], ["props"], ["build"],
    ["build", "no_such_builder", "-o", "x.json"],
    ["catalog", "nope", "-o", "x.json"],
    ["realize", "lines", "-i", "a.json", "-o", "b.json"],
    ["build", "pmn", "--n", "x", "-o", "y.json"],
    ["build", "pmn", "--m", "2.5", "-o", "y.json"],
    ["build", "pmn", "--seed", "", "-o", "y.json"],
    ["build", "polygon_ring", "--elongation", "wide", "-o", "y.json"],
    ["build", "polygon_ring", "--minor", "1e", "-o", "y.json"],
    ["realize", "conics", "-i", "a.json", "-o", "b.json", "--seed", "z"],
    _RENDER + ["--stroke-width", "thick"],
    _RENDER + ["--point-radius", "r"],
    _RENDER + ["--margin", "--canvas"],
    ["props", "-i", "a.json", "extra"],
    ["build", "pmn", "-o", "x.json", "pmn"],
]


class TestCliMatchesFullParser:
    """cli.main builds only the named verb's parser; it must answer every
    argv as the parser of all six verbs (`full_make_parser`) did."""

    @pytest.mark.parametrize("argv", CLI_CORPUS, ids=" ".join)
    def test_same_answer(self, argv, capsys, monkeypatch):
        try:
            expected = full_make_parser().parse_args(argv)
            code = 0
        except SystemExit as exc:
            expected, code = None, int(exc.code or 0)
        out, err = capsys.readouterr()
        seen = []
        for verb, (help_, add_arguments, _) in cli._VERBS.items():
            monkeypatch.setitem(cli._VERBS, verb, (
                help_, add_arguments, lambda args: seen.append(args) or 0))
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)
        assert seen == ([] if expected is None else [expected])

    def test_each_call_builds_its_own_parsers(self, tmp_path, monkeypatch,
                                               capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        argv = ["catalog", "fano", "-o", str(tmp_path / "f.json")]
        for calls in (1, 2):
            assert main(argv) == 0
            # The top-level parser and the one verb's.
            assert len(built) == 2 * calls
        assert len({id(p) for p in built}) == 4
        assert main([]) == 2
        assert len(built) == 4 + 1 + len(_VERBS)
        capsys.readouterr()

    def test_import_builds_no_parser(self):
        probe = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting_init(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting_init\n"
            "import pointconic.cli\n"
            "assert not built, built\n")
        src = str(Path(pointconic.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
