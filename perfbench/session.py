"""Run one workload's CLI sessions in this process and report them as JSON.

Started by perfbench/run.py in a process of its own, with `src` on
PYTHONPATH and one BLAS thread, so that the peak resident memory it
reports belongs to the workload alone. The last line of its standard output
is one JSON object; run.py turns it into the benchmark's result.

Untraced, it runs whole sessions back to back until starting another would
end past `--seconds`, and always at least one. With `--trace 1` it runs one
untraced and one traced session on the same inputs, reports the per-layer
metrics of the traced one, the difference of the two session times as the
tracing overhead, and fails the run if tracing changed any output digest.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from pointconic import cli

from tracer import Tracer
from workloads import WORKLOADS


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_op(op) -> tuple:
    """Exit code and printed lines; an exception counts as exit None."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            if op.call is not None:
                return 0, op.call()
            rc = cli.main(list(op.argv))
    except Exception:
        return None, traceback.format_exc().splitlines()
    return rc, buf.getvalue().splitlines()


def run_session(workload: str, seed: int, root: Path, tracer=None) -> dict:
    d = Path(tempfile.mkdtemp(dir=root))
    try:
        ops = WORKLOADS[workload](d, seed)
        verbs = Counter()
        errors, nonzero = [], []
        for i, op in enumerate(ops):
            # Each CLI invocation normally starts in a fresh process; collect
            # the previous operation's garbage outside the timed region so
            # that it is not charged to this one.
            gc.collect()
            t0 = time.perf_counter()
            if tracer is None:
                rc, lines = _run_op(op)
            else:
                tracer.op = (i, op.verb)
                with tracer.span(f"op.{op.verb}"):
                    rc, lines = _run_op(op)
                tracer.op = None
            verbs[op.verb] += time.perf_counter() - t0
            if rc != 0:
                nonzero.append(op.label)
            problem = op.check(rc, lines)
            if problem is not None:
                errors.append(f"{op.label}: {problem}")
        outputs = [(p, op.fixed) for op in ops for p in op.outputs]
        digests = {p.name: _digest(p) for p, _ in outputs if p.is_file()}
        return {"session_s": sum(verbs.values()), "verbs": dict(verbs),
                "attempted": len(ops), "nonzero": nonzero, "errors": errors,
                "digests": digests,
                "fixed": sorted(p.name for p, fixed in outputs if fixed)}
    finally:
        shutil.rmtree(d)


def layer_metrics(tr: Tracer, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of a traced session, as name -> (value, unit)."""
    t, n, c, v = tr.total, tr.calls, tr.counts, traced["verbs"]

    def ratio(a, b):
        return a / b if b else 0.0

    realized = (c["constructions.realize_by_conics.successes"]
                + c["constructions.realize_lineal_by_circles.successes"])
    audits_in_realize = c["analysis.audit.in_realize"]
    return {
        "io.read_configuration_s": (t["io.read_configuration"], "s"),
        "io.write_configuration_s": (t["io.write_configuration"], "s"),
        "io.from_document_s": (t["io.from_document"], "s"),
        "io.bytes_read": (c["io.bytes_read"], "B"),
        "io.bytes_written": (c["io.bytes_written"], "B"),
        "configuration.points_of_conic.calls":
            (n["configuration.points_of_conic"], "count"),
        "configuration.points_of_conic_s":
            (t["configuration.points_of_conic"], "s"),
        "analysis.intersection_type_s": (t["analysis.intersection_type"], "s"),
        "analysis.intersection_type_self_s":
            (tr.self_time["analysis.intersection_type"], "s"),
        "analysis.audit_s": (t["analysis.audit"], "s"),
        "analysis.audit.calls": (n["analysis.audit"], "count"),
        "analysis.audit.pairs_scanned":
            (c["analysis.audit.pairs_scanned"], "count"),
        "analysis.audit.failed": (c["analysis.audit.failed"], "count"),
        "analysis.audit.spurious": (c["analysis.audit.spurious"], "count"),
        "geometry.conic_conic_intersections_s":
            (t["geometry.conic_conic_intersections"], "s"),
        "geometry.conic_conic_intersections.calls":
            (n["geometry.conic_conic_intersections"], "count"),
        "geometry.conic_conic_intersections.hit_ratio":
            (ratio(c["geometry.conic_conic_intersections.hits"],
                   n["geometry.conic_conic_intersections"]), "ratio"),
        "geometry.conic_from_5_points.calls":
            (n["geometry.conic_from_5_points"], "count"),
        "geometry.conic_from_5_points_s":
            (t["geometry.conic_from_5_points"], "s"),
        "constructions.realize_by_conics_s":
            (t["constructions.realize_by_conics"], "s"),
        "constructions.realize_lineal_by_circles_s":
            (t["constructions.realize_lineal_by_circles"], "s"),
        "constructions.realize.fits_per_success":
            (ratio(c["geometry.conic_from_5_points.in_realize"],
                   c["constructions.realize_by_conics.successes"]), "ratio"),
        "constructions.realize.audits_per_success":
            (ratio(audits_in_realize, realized), "ratio"),
        "incidence.property_report_s": (t["incidence.property_report"], "s"),
        "incidence.has_biclique_s": (t["incidence.has_biclique"], "s"),
        "incidence.vertex_connectivity_s":
            (t["incidence.vertex_connectivity"], "s"),
        "incidence.girth_s": (t["incidence.girth"], "s"),
        "incidence.points_of_block.calls":
            (n["incidence.points_of_block"], "count"),
        "svg.render_svg_s": (t["svg.render_svg"], "s"),
        "svg.bytes_written": (c["svg.bytes_written"], "B"),
        "constructions.product_s": (t["constructions.product"], "s"),
        "constructions.builders_s": (t["constructions.builders"], "s"),
        # Shares of a verb's traced time spent in the layer predicted to
        # dominate it; 0 where the workload does not run the verb.
        "share.meets_in_conic_conic":
            (ratio(tr.by_verb["meets", "geometry.conic_conic_intersections"],
                   v.get("meets", 0.0)), "ratio"),
        "share.analyze_in_intersection_type":
            (ratio(tr.by_verb["analyze", "analysis.intersection_type"],
                   v.get("analyze", 0.0)), "ratio"),
        "share.realize_in_five_point_fits":
            (ratio(tr.by_verb["realize", "geometry.conic_from_5_points"],
                   v.get("realize", 0.0)), "ratio"),
        "trace.session_s": (traced["session_s"], "s"),
        "trace.overhead_s": (traced["session_s"] - untraced["session_s"], "s"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True,
                    help="directory for session files and the span dump")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = {}
    if args.trace:
        untraced = run_session(args.workload, args.seed, out)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_session(args.workload, args.seed, out, tracer)
        finally:
            tracer.uninstall()
        sessions = [untraced, traced]
        if traced["digests"] != untraced["digests"]:
            traced["errors"].append("tracing changed the output digests")
        result["layers"] = layer_metrics(tracer, traced, untraced)
        spans = out / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.spans))
    else:
        sessions = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            sessions.append(run_session(args.workload, args.seed, out))
            last = time.perf_counter() - t0
            if time.perf_counter() - start + last > args.seconds:
                break
    result["sessions"] = sessions
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
