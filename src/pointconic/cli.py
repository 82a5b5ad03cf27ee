"""Command-line driver: builders, catalog, realizers, analysis, rendering.

Exit status: 0 on success, 1 on validation failure (bad input data, failed
audit, violated precondition), 2 on usage errors.
"""
from __future__ import annotations

import argparse
import sys

from . import analysis, constructions, incidence
from .configuration import GeometricConfiguration
from .geometry import GeometryError
from .incidence import IncidenceError, IncidenceStructure
from .io import InterfaceError, read_configuration, write_configuration
from .svg import SceneStyle, render_svg


BUILDERS = {
    "crossed_ellipses": lambda args: constructions.crossed_ellipses(),
    "polygon_ring": lambda args: constructions.polygon_ring(
        args.n, args.elongation, args.minor),
    "qcube_48": lambda args: constructions.qcube_48(),
    "richter_gebert": lambda args: constructions.richter_gebert(
        seed=args.seed),
    "dipyramid_carnot": lambda args: constructions.dipyramid_carnot(
        args.n, seed=args.seed),
    "pmn": lambda args: constructions.pmn(args.m, args.n),
    "cell24": lambda args: constructions.cell24(),
}


def _build_args(p):
    p.add_argument("builder", choices=sorted(BUILDERS))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--elongation", type=float, default=0.15)
    p.add_argument("--minor", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)


def _catalog_args(p):
    p.add_argument("name", choices=incidence.catalog_names())
    p.add_argument("-o", "--output", required=True)


def _realize_args(p):
    p.add_argument("mode", choices=["circles", "conics"])
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)


def _analyze_args(p):
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--geometric", action="store_true",
                   help="also compute actual conic-conic meets")


def _render_args(p):
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--stroke-width", type=float, default=1.5)
    p.add_argument("--point-radius", type=float, default=3.0)
    p.add_argument("--canvas", default="800x800")
    p.add_argument("--margin", type=float, default=0.06)


def _props_args(p):
    p.add_argument("-i", "--input", required=True)


def _cmd_build(args) -> int:
    write_configuration(BUILDERS[args.builder](args), args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_catalog(args) -> int:
    write_configuration(incidence.catalog(args.name), args.output,
                        name=args.name)
    print(f"wrote {args.output}")
    return 0


def _cmd_realize(args) -> int:
    obj = read_configuration(args.input)
    if not isinstance(obj, IncidenceStructure):
        raise InterfaceError("realize expects a combinatorial input file")
    if args.mode == "circles":
        G = constructions.realize_lineal_by_circles(obj, seed=args.seed)
    else:
        G = constructions.realize_by_conics(obj, seed=args.seed)
    write_configuration(G, args.output)
    print(f"wrote {args.output} (audit passed)")
    return 0


def _cmd_analyze(args) -> int:
    obj = read_configuration(args.input)
    if not isinstance(obj, GeometricConfiguration):
        raise InterfaceError("analyze expects a geometric input file")
    report = analysis.audit(obj)
    print(f"signature {report.signature}")
    itype = analysis.intersection_type(obj)
    print("intersection type {" + ",".join(map(str, sorted(itype.types)))
          + "}")
    print(f"max flag residual {report.max_flag_residual:.3e}")
    for label, entries in (("spurious", report.spurious_incidences),
                           ("missing", report.missing_incidences),
                           ("duplicate points", report.duplicate_points),
                           ("coincident conics", report.coincident_conics)):
        if entries:
            print(f"{label}: {list(entries)[:8]}")
    if args.geometric:
        meets = analysis.geometric_meets(obj)
        excess = meets["excess"]
        print(f"geometric meets: {len(meets['counts'])} intersecting pairs, "
              f"{len(excess)} with non-configuration intersections")
    print("audit passed" if report.passed else "audit FAILED")
    return 0 if report.passed else 1


def _cmd_render(args) -> int:
    obj = read_configuration(args.input)
    if not isinstance(obj, GeometricConfiguration):
        raise InterfaceError("render expects a geometric input file")
    try:
        w, h = (int(v) for v in args.canvas.lower().split("x"))
    except ValueError:
        raise InterfaceError(f"bad canvas spec {args.canvas!r}; use WxH")
    style = SceneStyle(stroke_width=args.stroke_width,
                       point_radius=args.point_radius,
                       canvas=(w, h), margin=args.margin)
    render_svg(obj, style, args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_props(args) -> int:
    C = read_configuration(args.input)
    if isinstance(C, GeometricConfiguration):
        C = C.to_incidence_structure()
    rep = incidence.property_report(C)
    print(f"signature {incidence.signature(C)}")
    kinds = [name for name, flag in
             (("lineal", rep.lineal),
              ("circular", rep.circular),
              ("strongly circular", rep.strongly_circular),
              ("conical", rep.conical),
              ("strongly conical", rep.strongly_conical)) if flag]
    print(", ".join(kinds) if kinds else "no biclique-freeness properties")
    print(f"girth {rep.girth}")
    print(f"{rep.vertex_connectivity}-connected")
    return 0


# Each verb once: name -> (help, argument adder, handler).
_VERBS = {
    "build": ("run a geometric builder", _build_args, _cmd_build),
    "catalog": ("emit a catalogued structure", _catalog_args, _cmd_catalog),
    "realize": ("realize a combinatorial structure", _realize_args,
                _cmd_realize),
    "analyze": ("audit a geometric configuration", _analyze_args,
                _cmd_analyze),
    "render": ("render a configuration to SVG", _render_args, _cmd_render),
    "props": ("combinatorial property report", _props_args, _cmd_props),
}


def _make_parser(verbs=tuple(_VERBS), metavar=None):
    parser = argparse.ArgumentParser(
        prog="pointconic",
        description="Point-conic configuration toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in verbs:
        help_, add_arguments, _ = _VERBS[name]
        add_arguments(sub.add_parser(name, help=help_))
    return parser


def main(argv=None) -> int:
    # A call builds the subparser of its verb only, with the full parser's
    # usage line as metavar. --help, an empty argv and an unknown verb get
    # the full parser, without a metavar: it would rename the "command"
    # argument in their error messages.
    verb = (sys.argv[1:] if argv is None else argv)[:1]
    if verb and verb[0] in _VERBS:
        parser = _make_parser(verb, "{" + ",".join(_VERBS) + "}")
    else:
        parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _VERBS[args.command][2](args)
    except (InterfaceError, IncidenceError, GeometryError,
            constructions.ConstructionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
