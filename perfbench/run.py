"""pointconic benchmark: replays desk-style CLI sessions and prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src`, so
nothing needs installing. Workloads, metrics and the predicted interaction
of layers and metrics are described in perfbench/README.md.

It times a fresh interpreter importing `pointconic.cli` (setup_s), then runs
the workload in a child process (perfbench/session.py) with one BLAS
thread. It prints one line per metric with
its unit and sample count, and as its last line one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced session with `--trace 1`.
Every operation's exit code and verdicts are checked, and the digests of
the written files are compared with perfbench/digests.json: at seed 0 all
of them, at other seeds those that do not depend on the seed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
DEADLINE_S = 170.0
# The workloads' linear algebra is on tiny matrices (5x6 fits, 3x3 forms).
# A second BLAS thread there only adds synchronisation jitter: ten repeats
# of one conic realization of anti-miquel-small took 2.31-2.36 s with one
# thread and 1.74-2.36 s with two on a 2-core Xeon VM.
BLAS_THREADS = 1

VERBS = ("build", "analyze", "meets", "props", "realize", "render")
# The end-to-end metrics of the JSON line. The per-verb times are printed
# but left out: on a shared 2-core VM their spread over ten seeds reached
# 0.20-0.33 of the median, wider than any bound the benchmark may set.
JSON_METRICS = ("session_s", "setup_s", "peak_rss_mb")

IMPORT_PROBE = ("import time; t = time.perf_counter(); import pointconic.cli; "
                "print(time.perf_counter() - t)")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_times(env: dict) -> list[float]:
    """Import time of `pointconic.cli` in fresh interpreters; the first,
    untimed import compiles the bytecode cache."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        if i:
            times.append(float(out.stdout.split()[-1]))
    return times


def machine_info() -> str:
    versions = " ".join(f"{pkg}={metadata.version(pkg)}"
                        for pkg in ("numpy", "networkx", "jsonschema"))
    return (f"{platform.machine()} linux={platform.release()} "
            f"cores={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} {versions}")


def check_digests(workload: str, seed: int, sessions: list) -> list[str]:
    expected = json.loads(DIGESTS.read_text()).get(workload, {})
    problems = []
    for s in sessions:
        names = s["digests"] if seed == DEFAULT_SEED else s["fixed"]
        for name in names:
            if s["digests"].get(name) != expected.get(name):
                problems.append(f"digest of {name} differs from digests.json")
        if seed == DEFAULT_SEED and set(s["digests"]) != set(expected):
            problems.append("written files differ from digests.json")
    return sorted(set(problems))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's digests in digests.json "
                         f"(seed {DEFAULT_SEED} only)")
    args = ap.parse_args()
    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "pointconic" / "cli.py").is_file():
        print("error: run from the root of a pointconic checkout "
              "(src/pointconic not found)", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        print(f"error: digests are recorded at seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 2

    env = child_env(root)
    setup = setup_times(env)
    cmd = [sys.executable, str(HERE / "session.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(root / ".perfbench_out")]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True,
            timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: workload exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.splitlines()[-1])
    sessions = res["sessions"]

    if args.record_digests:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        table[args.workload] = dict(sorted(sessions[0]["digests"].items()))
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    errors = [e for s in sessions for e in s["errors"]]
    problems = check_digests(args.workload, args.seed, sessions)
    attempted = sum(s["attempted"] for s in sessions)
    nonzero = sum(len(s["nonzero"]) for s in sessions)
    timed = sessions[:1] if args.trace else sessions
    n = len(timed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"sessions {len(sessions)}  (closed loop: one client, one process)")
    print(f"machine {machine_info()}")
    for e in errors + problems:
        print(f"FAILED CHECK {e}")
    for s in sessions[:1]:
        for label in s["nonzero"]:
            print(f"nonzero exit: {label}")
    print(f"failed_ops {nonzero}/{attempted} = {nonzero / attempted:.4f} "
          "(operations with a nonzero exit / attempted)")

    median = statistics.median
    e2e = {"session_s": (median([s["session_s"] for s in timed]), "s", n)}
    for verb in VERBS:
        vals = [s["verbs"].get(verb, 0.0) for s in timed]
        if any(vals):
            e2e[f"{verb}_s"] = (median(vals), "s", n)
    e2e["setup_s"] = (median(setup), "s", len(setup))
    e2e["peak_rss_mb"] = (res["peak_rss_mb"], "MB", 1)
    for name, (value, unit, count) in e2e.items():
        print(f"{name:<16} {value:>12.4f} {unit:<6} median of {count}")

    if args.trace:
        metrics = res["layers"]
        for name, (value, unit) in metrics.items():
            print(f"{name:<46} {value:>14.6g} {unit}")
    else:
        metrics = {k: e2e[k][:2] for k in JSON_METRICS}
    print(json.dumps({
        "correct": not errors and not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
