"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are trusted. It runs the
pipeline, tree-check and extract-graph ops once at seed 0, computes the
workers=1 Favard length of the compute input, and overwrites
perfbench/reference.json.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from favard.cli import main  # noqa: E402
from favard.projection import favard  # noqa: E402
from favard.sets import four_corners  # noqa: E402

import workloads  # noqa: E402

CERT_KEYS = ("retained_idx", "lip", "cone_half_width")


def run(workload: str, seed: int, work: Path) -> None:
    for op in workloads.prepare(workload, seed, work / workload):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(op.argv)
        if code != 0:
            raise SystemExit(f"{op.name} exited with {code}")


def record() -> dict:
    seed = 0
    work = HERE.parent / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    run("pipeline", seed, work)
    pipe = json.loads((work / "pipeline" / "pipeline" / "pipeline_report.json")
                      .read_text())["certificate"]
    run("structures", seed, work)
    tree = json.loads((work / "structures" / "tree" / "tree_check_report.json")
                      .read_text())["results"]
    cert = json.loads((work / "structures" / "extract" / "certificate.json").read_text())
    union = four_corners(workloads.COMPUTE_GENERATION).skeleton()
    return {
        "compute_w1": favard(union, workloads.COMPUTE_ANGLES, 1),
        "pipeline": {str(seed): {k: pipe[k] for k in CERT_KEYS}},
        "tree_nodes": {name: rep["nodes"] for name, rep in tree.items()},
        "extract_graph": {k: cert[k] for k in CERT_KEYS},
    }


if __name__ == "__main__":
    ref = record()
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")
