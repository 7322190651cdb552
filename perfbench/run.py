"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. One process drives the workload as a
closed loop with one client: it calls `favard.cli.main(argv)` in-process,
one op after another, and repeats passes over the workload's ops until
`--seconds` have gone by (at least one pass). Every op's output is checked.
`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
also runs one pass with every public function of the traced layers wrapped
(see tracer.py) and prints the per-layer metrics. The last line of standard
output is the result object; the lines before it are the environment stamp
and the sample counts. Spans and the run record are written under
`.perfbench_work/<workload>/`.
"""

from __future__ import annotations

import os

# One BLAS thread: the only parallelism is the CLI's own `workers`, at most
# the machine's CPU count. Set before numpy is imported.
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)
os.environ.pop("FAVARD_WORKERS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
CALIB_REPEATS = 3
CALIB_LOOP = 1_000_000

# A fresh interpreter that imports the CLI and writes a workload's inputs.
SETUP_CHILD = ("import sys; sys.path[:0] = sys.argv[1:3]; import favard.cli, workloads; "
               "workloads.prepare(sys.argv[3], int(sys.argv[4]), sys.argv[5])")


def time_setup(workload: str, seed: int, work: Path) -> float:
    """Wall time of one fresh interpreter from start to inputs written.

    No timeout: with one, the wait polls and rounds the time up to 50 ms steps.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), workload,
                    str(seed), str(work)], check=True)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median time of a fixed pure-Python loop, to show host speed drift."""
    times = []
    for _ in range(CALIB_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIB_LOOP):
            acc += i & 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_op(op, tracer=None) -> tuple[float, bool]:
    """Run one CLI op; return its wall time and whether its output is correct."""
    from favard.cli import main

    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(op.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - an op that raises counts as failed
        traceback.print_exc()
        code = None
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.remove()
    if code is None:
        return wall, False
    try:
        problem = op.check(code)
    except Exception:  # noqa: BLE001 - an unreadable report counts as failed
        problem = traceback.format_exc()
    if problem:
        print(f"{op.name}: {problem}", file=sys.stderr)
    return wall, not problem


def stamp(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "favard").glob("*.py")):
        src.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": BLAS_THREADS, "git_commit": commit,
            "src_sha256": src.hexdigest()}


def metrics_out(specs: list[dict], values: dict) -> dict:
    """Every metric of `specs` with its unit; a layer the workload never
    called reads 0."""
    return {s["name"]: {"value": float(values.get(s["name"], 0.0)), "unit": s["unit"]}
            for s in specs}


def measure(ops, seconds: float):
    """Untraced passes over `ops` until `seconds` have gone by (at least one).

    Returns the pass wall times, the wall times per command, and the ops
    attempted and failed.
    """
    passes: list[float] = []
    per_cmd: dict[str, list[float]] = {op.name: [] for op in ops}
    attempted = failed = 0
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        total = 0.0
        for op in ops:
            wall, ok = run_op(op)
            attempted += 1
            failed += not ok
            per_cmd[op.name].append(wall)
            total += wall
        passes.append(total)
    return passes, per_cmd, attempted, failed


def traced_pass(ops, spans_path: Path) -> tuple[dict, int]:
    """One pass with the tracer installed around each op.

    Returns the per-layer values, keyed `<layer>.<function>.<stat>`, and the
    number of ops that failed. The spans are written to `spans_path`.
    """
    import tracer as tracing

    tracer = tracing.Tracer()
    op_walls: dict[int, float] = {}
    values: dict = {}
    failed = 0
    for i, op in enumerate(ops):
        tracer.op = i
        op_walls[i], ok = run_op(op, tracer)
        failed += not ok
        if op.probe is not None:
            values.update(op.probe())
    tracer.dump(spans_path)
    summary = tracing.summary(tracer.spans, op_walls, threading.get_ident())
    for span, stats in summary.items():
        values.update({f"{span}.{key}": val for key, val in stats.items()})
    pf, mc = "projection.pushforward_density", "projection.favard_mc"
    if values.get(f"{pf}.calls"):
        values[f"{pf}.useful_frac"] = values[f"{pf}.distinct_theta"] / values[f"{pf}.calls"]
    if values.get(f"{mc}.busy_s"):
        values[f"{mc}.needles_per_s"] = values[f"{mc}.needles"] / values[f"{mc}.busy_s"]
    values["trace.wall_s"] = sum(op_walls.values())
    return values, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "favard" / "cli.py").is_file():
        print(f"error: no favard sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(HERE)]
    import favard.cli  # noqa: F401  (the CLI is imported before the first op)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    setup_s = statistics.median(time_setup(args.workload, args.seed, work / f"setup{k}")
                                for k in range(SETUP_REPEATS))
    ops = workloads.prepare(args.workload, args.seed, work / "run")
    calib_s = calibrate()

    passes, per_cmd, attempted, failed = measure(ops, args.seconds)
    wall_s = statistics.median(passes)
    values = {"wall_s": wall_s, "setup_s": setup_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "machine.calib_s": calib_s}
    values.update({f"cmd.{name}_s": statistics.median(w) for name, w in per_cmd.items()})
    if args.trace:
        layer_values, traced_failed = traced_pass(ops, work / "spans.jsonl")
        attempted += len(ops)
        failed += traced_failed
        values.update(layer_values)
        values["trace.overhead_frac"] = layer_values["trace.wall_s"] / wall_s - 1.0

    metrics = metrics_out(spec["per_layer"] if args.trace else spec["end_to_end"], values)
    record = {"stamp": stamp(args),
              "samples": {"passes": len(passes), **{f"cmd.{k}": len(v)
                                                    for k, v in per_cmd.items()}},
              "values": values, "passes": passes, "per_cmd": per_cmd}
    (work / "record.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"stamp": record["stamp"], "samples": record["samples"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
