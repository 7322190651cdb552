"""The benchmark's workloads: seeded input files, the CLI ops that read them,
and a correctness check for every op.

`prepare(workload, seed, work)` writes the workload's inputs under `work`
and returns its ops. An op is one `favard` command line; its check reads the
reports the command wrote and returns a failure message, or None when the
output is correct. The seed reaches the program only as the config's
`seed`, which drives the ahlfors_constant sampling of `pipeline`, the
`mc` needle stream and the `lattice-check` draws.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from favard.fixtures import cantor_horizontal_instance
from favard.graphs import verify_lipschitz
from favard.projection import favard
from favard.sets import Segment, SegmentUnion, four_corners, split_parallel
from favard.torus import AngleInterval, TriadicInterval, wrap

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_FILE = HERE / "reference.json"
REFERENCE = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
GOLDEN = ROOT / "tests" / "golden" / "cantor_favard.json"

# pipeline: horizontal skeleton of four_corners(1), 96 atoms. kappa 0.06
# keeps the triadic root level at 5 for every seed (at 0.05 the sampled
# Ahlfors constant moves it between 5 and 6 and the run time by ~30%).
PIPELINE_GENERATION = 1
PIPELINE_KAPPA = "0.06"
PIPELINE_CONFIG = {"n_angles": 1024, "atom_pitch": 1 / 128}
CANTOR_N_MAX = 5
COMPUTE_GENERATION, COMPUTE_ANGLES, COMPUTE_WORKERS = 6, 2048, 2
MC_GENERATION, MC_NEEDLES = 3, 200_000
LATTICE_INSTANCES = 200
EXTRACT_ARGS = ["--center", "0.25", "--half-width", "0.05", "--m0", "5"]
EXTRACT_PITCH = 0.7 / 96


@dataclass
class Op:
    name: str                                    # the CLI command
    argv: list[str]
    check: Callable[[int], Optional[str]]        # exit code -> failure or None
    probe: Optional[Callable[[], dict]] = None   # extra per-layer values, traced run only


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _write_config(path: Path, **values) -> str:
    path.write_text(json.dumps(values))
    return str(path)


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


def _same_certificate(cert: dict, ref: dict) -> Optional[str]:
    if cert["retained_idx"] != ref["retained_idx"]:
        return "retained_idx differs from the reference"
    for key in ("lip", "cone_half_width"):
        if not _close(cert[key], ref[key], 1e-9):
            return f"{key} {cert[key]!r} differs from the reference {ref[key]!r}"
    return None


def pipeline(seed: int, work: Path) -> list[Op]:
    horiz, _ = split_parallel(four_corners(PIPELINE_GENERATION).skeleton())
    csv = work / "horizontal.csv"
    horiz.to_csv(csv)
    cfg = _write_config(work / "pipeline.json", seed=seed, **PIPELINE_CONFIG)
    out = work / "pipeline"
    argv = ["--config", cfg, "--out", str(out), "pipeline", str(csv),
            "--kappa", PIPELINE_KAPPA]

    def check(code: int) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        rep = _read(out / "pipeline_report.json")
        if not rep["all_stage_invariants"]:
            return "all_stage_invariants is false"
        cert = rep["certificate"]
        # rebuild the normalized atoms and recheck the back-mapped certificate
        scale, lo = rep["normalization"]["scale"], rep["normalization"]["offset"]
        norm = SegmentUnion([Segment(((s.a[0] - lo[0]) * scale, (s.a[1] - lo[1]) * scale),
                                     ((s.b[0] - lo[0]) * scale, (s.b[1] - lo[1]) * scale))
                             for s in SegmentUnion.from_csv(csv).segments])
        pts = norm.atoms(PIPELINE_CONFIG["atom_pitch"]).points[cert["retained_idx"]]
        root = TriadicInterval(rep["root_iv"]["level"], rep["root_iv"]["index"])
        ok, lip = verify_lipschitz(pts, AngleInterval(wrap(root.center - 0.25),
                                                      cert["cone_half_width"]))
        if not ok or not _close(lip, cert["lip"], 1e-9):
            return "retained atoms fail the Lipschitz recheck"
        ref = REFERENCE["pipeline"].get(str(seed))
        return _same_certificate(cert, ref) if ref else None

    return [Op("pipeline", argv, check)]


def quadrature(seed: int, work: Path) -> list[Op]:
    golden = _read(GOLDEN)
    fc6, fc3 = work / "four_corners6.json", work / "four_corners3.json"
    four_corners(COMPUTE_GENERATION).to_json(fc6)
    four_corners(MC_GENERATION).to_json(fc3)
    out_c, out_q, out_m = work / "cantor", work / "compute", work / "mc"
    cantor_cfg = _write_config(work / "cantor.json", seed=seed, n_angles=golden["n_angles"])
    compute_cfg = _write_config(work / "compute.json", seed=seed, workers=COMPUTE_WORKERS)
    mc_cfg = _write_config(work / "mc.json", seed=seed)

    def check_cantor(code: int) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        vals = [row["favard"] for row in _read(out_c / "cantor_decay_report.json")["rows"]]
        for n, val in enumerate(vals):
            if abs(val - golden["values"][str(n)]) > 1e-9:
                return f"Fav(four_corners({n})) = {val!r} is off the golden value"
        if not all(a > b for a, b in zip(vals, vals[1:])):
            return "Favard lengths are not strictly decreasing"
        return None

    def check_compute(code: int) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        val, ref = _read(out_q / "compute_report.json")["favard"], REFERENCE["compute_w1"]
        return None if _close(val, ref, 1e-12) else f"favard {val!r} != workers=1 {ref!r}"

    def probe_compute() -> dict:
        """Workers 1 against workers 2 on the compute input (untraced)."""
        union = four_corners(COMPUTE_GENERATION).skeleton()
        t0 = time.perf_counter()
        v1 = favard(union, COMPUTE_ANGLES, 1)
        t1 = time.perf_counter()
        v2 = favard(union, COMPUTE_ANGLES, COMPUTE_WORKERS)
        t2 = time.perf_counter()
        return {"projection.favard.speedup_w2": (t1 - t0) / (t2 - t1),
                "projection.favard.w2_abs_diff": abs(v2 - v1)}

    def check_mc(code: int) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        rep = _read(out_m / "mc_report.json")
        exact = golden["values"][str(MC_GENERATION)]
        if abs(rep["favard"] - exact) > 3.0 * rep["stderr"]:
            return f"mc {rep['favard']!r} +- {rep['stderr']!r} is not within 3 sigma of {exact!r}"
        return None

    return [
        Op("cantor-decay", ["--config", cantor_cfg, "--out", str(out_c), "cantor-decay",
                            "--n-max", str(CANTOR_N_MAX)], check_cantor),
        Op("compute", ["--config", compute_cfg, "--out", str(out_q), "compute", str(fc6),
                       "--n-angles", str(COMPUTE_ANGLES)], check_compute, probe_compute),
        Op("mc", ["--config", mc_cfg, "--out", str(out_m), "mc", str(fc3),
                  "--needles", str(MC_NEEDLES)], check_mc),
    ]


def structures(seed: int, work: Path) -> list[Op]:
    union = cantor_horizontal_instance()[0]
    csv = work / "cantor_horizontal.csv"
    union.to_csv(csv)
    out_t, out_l, out_e = work / "tree", work / "lattice", work / "extract"
    tree_cfg = _write_config(work / "tree.json", seed=seed)
    lattice_cfg = _write_config(work / "lattice.json", seed=seed)
    extract_cfg = _write_config(work / "extract.json", seed=seed, atom_pitch=EXTRACT_PITCH)

    def check_tree(code: int) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        results = _read(out_t / "tree_check_report.json")["results"]
        nodes = {name: rep["nodes"] for name, rep in results.items()}
        if nodes != REFERENCE["tree_nodes"]:
            return f"tree node counts {nodes} differ from {REFERENCE['tree_nodes']}"
        failing = [name for name, rep in results.items() if not rep["all_pass"]]
        return f"tree properties fail on {failing}" if failing else None

    def check_lattice(code: int) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        rep = _read(out_l / "lattice_check_report.json")
        if rep["instances"] != LATTICE_INSTANCES or rep["failures"] != 0:
            return f"{rep['failures']} of {rep['instances']} lattice instances fail"
        return None

    def check_extract(code: int) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        return _same_certificate(_read(out_e / "certificate.json"), REFERENCE["extract_graph"])

    return [
        Op("tree-check", ["--config", tree_cfg, "--out", str(out_t), "tree-check"],
           check_tree),
        Op("lattice-check", ["--config", lattice_cfg, "--out", str(out_l), "lattice-check",
                             "--instances", str(LATTICE_INSTANCES)], check_lattice),
        Op("extract-graph", ["--config", extract_cfg, "--out", str(out_e), "extract-graph",
                             str(csv), *EXTRACT_ARGS], check_extract),
    ]


WORKLOADS = {"pipeline": pipeline, "quadrature": quadrature, "structures": structures}


def prepare(workload: str, seed: int, work) -> list[Op]:
    """Write the inputs of `workload` under `work` and return its ops."""
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, work)
