"""Unit tests for JSON I/O, SVG rendering and the CLI."""
import hashlib
import json

import numpy as np
import pytest

from pointconic.cli import main
from pointconic.configuration import GeometricConfiguration
from pointconic.constructions import crossed_ellipses, pmn, polygon_ring
from pointconic.incidence import catalog
from pointconic.io import (InterfaceError, dumps_canonical, from_document,
                           read_configuration, to_document,
                           write_configuration)
from pointconic.svg import SceneStyle, render_svg


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

    def test_canonical_reals_survive(self):
        G = crossed_ellipses()
        doc = json.loads(dumps_canonical(to_document(G)))
        assert doc["points"] == [[float(x), float(y)] for x, y in G.points]


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

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["analyze", "-i", str(tmp_path / "absent.json")]) == 1
        capsys.readouterr()

    def test_cli_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["build", "dipyramid_carnot", "--n", "3",
                         "--seed", "9", "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    # SHA-256 of the only CLI outputs built from conic-conic kernel points;
    # no benchmark digest covers them. A fix of the lines-through-the-origin
    # basis fault in the kernel's line parametrization may move them;
    # update them together with the benchmark's pinned counts.
    BUILD_DIGESTS = {
        ("crossed_ellipses",):
            "eb6e2a4d566ca879d3d504713f35beb87f7106c0540310a5561bd240ad669181",
        ("polygon_ring", "--n", "3"):
            "81cb88152dd8c008c4f0222ab0063f00fc39a739bb7dd63fee56e8aa911ee628",
        ("polygon_ring", "--n", "4"):
            "407b87aa531d55985c69eeec1817345ee88b66dca785e3d61c9e7718d23110a5",
        ("polygon_ring", "--n", "5"):
            "e7f56522ce72e0d89cbed3836bcb1a687d0d0149fd4a363248aeb4eee4345757",
        ("polygon_ring", "--n", "6"):
            "a34890a450025d4954b3819d371e64b2dfb691df3dcc5b2966cbc1d2b9c95e51",
        ("polygon_ring", "--n", "7"):
            "017e253142dbe8b0adfc891f892d6e4a8772942593f80cba792c389d1699e239",
        ("polygon_ring", "--n", "8"):
            "e77f81ecc34fd0a6f110ddbe615fba99a5b1bfa13e920e013438f7932a40546f",
    }

    def test_kernel_built_outputs_pinned(self, tmp_path, capsys):
        for args, digest in self.BUILD_DIGESTS.items():
            out = tmp_path / "out.json"
            assert main(["build", *args, "-o", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args
        capsys.readouterr()
