"""Command line driver.

Subcommands: compute, mc, cantor-decay, pipeline, content, lattice-check,
tree-check, extract-graph. Every command writes a JSON report whose header
(`_header`) names the command, its input file and that file's content hash
(for a command with an input) and the full configuration; the header leads
every report but the pipeline's, which puts it last. Numeric arguments are
range-checked as they are parsed. Exit codes: 0 all asserted invariants
passed, 1 I/O or usage error (including non-finite input or arguments), 2
invariant or postcondition failure, 3 hypothesis/precondition failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, content_hash, write_json
from .graphs import extract_graph, mass_benchmark
from .lattice import check_cube_invariants, descend_all
from .pipeline import run_pipeline
from .projection import MIN_NEEDLES, favard, favard_mc, midpoint_measures
from .sets import (DyadicSquareSet, SegmentUnion, cloud_content, cloud_of, four_corners,
                   pairwise_extremes, read_csv_rows, segment_distances)
from .torus import AngleInterval, TriadicInterval
from .tree import bad_chain_check, build_tree, packing_sums, verify_tree

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVARIANT = 2
EXIT_HYPOTHESIS = 3

LATTICE_BLOCK = 50          # lattice-check instances per descend_all call


class InputError(Exception):
    """Unreadable or malformed input file (exit code 1)."""


def _load_model(path: str):
    p = Path(path)
    if not p.exists():
        raise InputError(f"input file {path} not found")
    try:
        if p.suffix == ".json":
            return DyadicSquareSet.from_json(p)
        return SegmentUnion.from_csv(p)
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise InputError(str(exc)) from exc


def _load_union(path: str) -> SegmentUnion:
    """The segment union of an input file; a square set gives its whole skeleton."""
    model = _load_model(path)
    return model if isinstance(model, SegmentUnion) else model.skeleton()


def _header(args, cfg: ExperimentConfig) -> dict:
    """The report header: the command, its input and the input's content hash
    when it takes one, and the full configuration."""
    head = {"command": args.command}
    if "input" in args:
        head.update(input=args.input, input_hash=content_hash(args.input))
    return {**head, "config": cfg.to_dict()}


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(args, name: str, payload: dict) -> Path:
    path = _out_dir(args) / f"{name}.json"
    write_json(path, payload)
    return path


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_compute(args, cfg: ExperimentConfig) -> int:
    union = _load_union(args.input)
    n = args.n_angles or cfg.n_angles
    values = midpoint_measures(union, n, cfg.workers)
    exact = math.fsum(values.tolist()) / n      # favard(union, n, workers)
    payload = {**_header(args, cfg), "favard": exact, "n_angles": n, "method": "exact"}
    if args.per_angle:
        thetas = (np.arange(n) + 0.5) / n
        rows = [{"theta": t, "measure": m} for t, m in zip(thetas.tolist(), values.tolist())]
        _write_report(args, "projection_measures", rows)
    status = EXIT_OK
    if args.mc:
        est, se = favard_mc(union, args.mc, cfg.seed)
        payload["mc"] = {"estimate": est, "stderr": se, "needles": args.mc}
        payload["mc_within_3_sigma"] = bool(abs(est - exact) <= 3.0 * se)
        if not payload["mc_within_3_sigma"]:
            status = EXIT_INVARIANT
    path = _write_report(args, "compute_report", payload)
    print(f"favard = {exact!r} (n_angles={n}) -> {path}")
    if args.mc:
        print(f"mc     = {payload['mc']['estimate']!r} +- {payload['mc']['stderr']:.3e}"
              f" (|diff| <= 3 sigma: {payload['mc_within_3_sigma']})")
    return status


def cmd_mc(args, cfg: ExperimentConfig) -> int:
    est, se = favard_mc(_load_union(args.input), args.needles, cfg.seed)
    payload = {**_header(args, cfg),
               "favard": est, "stderr": se, "needles": args.needles, "method": "mc"}
    path = _write_report(args, "mc_report", payload)
    print(f"favard_mc = {est!r} +- {se:.3e} -> {path}")
    return EXIT_OK


def cmd_cantor_decay(args, cfg: ExperimentConfig) -> int:
    rows = []
    for n in range(args.n_max + 1):
        skel = four_corners(n).skeleton()
        val = favard(skel, cfg.n_angles, cfg.workers)
        rows.append({"n": n, "favard": val,
                     "n_times_favard": n * val,
                     "n_sixth_times_favard": (n ** (1.0 / 6.0)) * val if n else val})
    decreasing = all(rows[i]["favard"] > rows[i + 1]["favard"] for i in range(len(rows) - 1))
    payload = {**_header(args, cfg), "rows": rows, "strictly_decreasing": decreasing}
    path = _write_report(args, "cantor_decay_report", payload)
    _write_csv(_out_dir(args) / "cantor_decay.csv", list(rows[0]),
               [list(r.values()) for r in rows])
    for r in rows:
        print(f"n={r['n']}: Fav = {r['favard']!r}")
    print(f"strictly decreasing: {decreasing} -> {path}")
    return EXIT_OK if decreasing else EXIT_INVARIANT


def cmd_pipeline(args, cfg: ExperimentConfig) -> int:
    report = run_pipeline(_load_union(args.input), args.kappa, cfg)
    report.update(_header(args, cfg))           # the header goes last here
    path = _write_report(args, "pipeline_report", report)
    cert = report["certificate"]
    print(f"certificate: {cert['retained_atoms']} atoms, lip = {cert['lip']:.4g}, "
          f"mass fraction = {cert['retained_mass_fraction']:.4f} -> {path}")
    return EXIT_OK if report["all_stage_invariants"] else EXIT_INVARIANT


def _load_polyline(path: str) -> SegmentUnion:
    """The polyline through the x,y rows of a CSV, repeated vertices skipped."""
    try:
        pts, _ = read_csv_rows(path, 2)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if len(pts) < 2:
        raise InputError(f"{path}: a polyline needs at least two points")
    moves = (pts[1:] != pts[:-1]).any(axis=1)
    return SegmentUnion.from_endpoints(pts[:-1][moves], pts[1:][moves])


def cmd_content(args, cfg: ExperimentConfig) -> int:
    model = _load_model(args.input)
    curve = _load_polyline(args.curve)
    delta = args.delta
    e_pts, e_w, e_slack = cloud_of(model)

    d_curve = segment_distances(e_pts, curve)
    near_mask = d_curve <= 3.0 * delta
    lhs = cloud_content(e_pts[near_mask], e_w[near_mask], e_slack)

    gamma_atoms = curve.atoms(delta / 4.0)
    d_e = pairwise_extremes(gamma_atoms.points, e_pts)[0]
    g_mask = d_e <= delta + e_slack
    rhs = cloud_content(gamma_atoms.points[g_mask], gamma_atoms.weights[g_mask], delta / 8.0)

    if lhs == 0.0 and rhs == 0.0:
        ratio = "empty"
    else:
        ratio = lhs / rhs if rhs > 0.0 else math.inf
    payload = {**_header(args, cfg),
               "delta": delta,
               "content_E_near_curve": lhs, "content_Edelta_on_curve": rhs,
               "ratio": ratio,
               "note": "lower bound for ell(E, delta) from this candidate curve "
                       "only; the supremum over all rectifiable curves is not "
                       "searched"}
    path = _write_report(args, "content_report", payload)
    print(f"H_inf(E n Gamma(3d)) = {lhs}; H_inf(E(d) n Gamma) = {rhs}; "
          f"ratio = {ratio} -> {path}")
    return EXIT_OK


def cmd_lattice_check(args, cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    failures = 0
    reports = []
    # the instances are drawn in trial order and go to descend_all in blocks
    # of LATTICE_BLOCK, so one block of instances and cubes is alive at a time
    for lo in range(0, args.instances, LATTICE_BLOCK):
        block = []
        for trial in range(lo, min(lo + LATTICE_BLOCK, args.instances)):
            n = int(rng.integers(30, 120))
            pts = rng.random((n, 2))
            # alternate H(J) in {1/3, 1/27}
            h_choice = TriadicInterval(1, int(rng.integers(0, 3))) if trial % 2 == 0 \
                else TriadicInterval(3, int(rng.integers(0, 27)))
            l = int(rng.integers(0, 3))
            k = int(rng.integers(0, 3))
            block.append((pts, np.arange(n), h_choice, k + l))
        for trial, (job, cubes) in enumerate(zip(block, descend_all(block, cfg.rho)), lo):
            pts, carrier, h_choice, _ = job
            rep = check_cube_invariants(pts, carrier, cubes)
            ok = rep["partition"] and rep["sandwich_outer"] and rep["sandwich_inner"] \
                and rep["net_separation"]
            reports.append({"trial": trial, "H(J)": h_choice.length, **{
                key: rep[key] for key in ("partition", "sandwich_outer", "sandwich_inner",
                                          "net_separation", "cube_count")}})
            if not ok:
                failures += 1
    payload = {**_header(args, cfg),
               "instances": args.instances, "failures": failures, "reports": reports}
    path = _write_report(args, "lattice_check_report", payload)
    print(f"lattice invariants: {args.instances - failures}/{args.instances} pass -> {path}")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def cmd_tree_check(args, cfg: ExperimentConfig) -> int:
    from .fixtures import (cantor_horizontal_instance, single_line_instance,
                           stages_for, two_direction_instance)
    results = {}
    status = EXIT_OK
    fixtures = {
        "single_line": lambda: stages_for(*single_line_instance()[1:], params=cfg),
        "two_direction": lambda: stages_for(*two_direction_instance(), params=cfg),
        "cantor_horizontal": lambda: stages_for(*cantor_horizontal_instance()[1:],
                                                params=cfg),
    }
    out_dir = _out_dir(args)
    for name, make in fixtures.items():
        stages = make()
        tree = build_tree(stages)
        rep = verify_tree(tree)
        rep["packing"] = packing_sums(tree)
        rep["nodes"] = len(tree.nodes)
        rep["bad_chain"] = chain = bad_chain_check(tree)
        results[name] = rep
        tree.to_json(out_dir / f"tree_{name}.json")
        print(f"{name}: all_pass = {rep['all_pass']} ({rep['nodes']} nodes), "
              f"bad-chain constant = {chain['max_constant']:.6g} "
              f"({chain['zero_rhs_violations']} violations)")
        if not rep["all_pass"] or chain["zero_rhs_violations"] > 0:
            status = EXIT_INVARIANT
    payload = {**_header(args, cfg), "results": results}
    path = _write_report(args, "tree_check_report", payload)
    print(f"-> {path}")
    return status


def cmd_extract_graph(args, cfg: ExperimentConfig) -> int:
    atoms = _load_union(args.input).atoms(cfg.atom_pitch)
    interval = AngleInterval(args.center, args.half_width)
    try:
        cert = extract_graph(atoms.points, interval, args.m0, cfg.rho)
    except ValueError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    out = _out_dir(args)
    cert.to_json(out / "certificate.json")
    _write_csv(out / "retained_atoms.csv", ["atom_index"], ([i] for i in cert.retained_idx))
    payload = {**_header(args, cfg),
               "lip": cert.lip, "theta0": cert.theta0,
               "cone_half_width": cert.cone_half_width,
               "retained": len(cert.retained_idx), "total_atoms": len(atoms),
               "mass_benchmark": mass_benchmark(
                   atoms.mass(cert.retained_idx), interval.length, 2.0,
                   atoms.total_mass)}
    path = _write_report(args, "extract_graph_report", payload)
    print(f"certificate: {len(cert.retained_idx)}/{len(atoms)} atoms, "
          f"lip = {cert.lip:.4g} -> {path}")
    return EXIT_OK


def _ranged(kind: type, ok, text: str):
    """An argparse type: the argument as `kind` when `ok` holds for it, else a
    usage error saying that it must be `text`. NaN lies in no range."""
    def parse(value: str):
        with contextlib.suppress(ValueError):
            if ok(x := kind(value)):
                return x
        raise argparse.ArgumentTypeError(f"must be {text}, got {value!r}")
    return parse


def _at_least(least: int):
    return _ranged(int, lambda n: n >= least, f"an integer >= {least}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="favard",
        description="Favard length, conical energies, and Lipschitz graph extraction")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="exact Favard length of a set model")
    p.add_argument("input")
    p.add_argument("--n-angles", type=_at_least(2), default=None)
    p.add_argument("--mc", type=_at_least(MIN_NEEDLES), default=None,
                   help="cross-check with this many Monte Carlo needles")
    p.add_argument("--per-angle", action="store_true",
                   help="also emit per-angle projection measures as JSON rows")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("mc", help="Buffon-needle Monte Carlo Favard estimate")
    p.add_argument("input")
    p.add_argument("--needles", type=_at_least(MIN_NEEDLES), default=1_000_000)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("cantor-decay", help="Favard decay table of the 4-corners sets")
    p.add_argument("--n-max", default=5,    # resource guard: at most 6
                   type=_ranged(int, lambda n: 0 <= n <= 6, "an integer in [0, 6]"))
    p.set_defaults(func=cmd_cantor_decay)

    p = sub.add_parser("pipeline", help="end-to-end graph extraction pipeline")
    p.add_argument("input")
    p.add_argument("--kappa", type=_ranged(float, lambda x: 0.0 < x < 1.0, "in (0, 1)"),
                   required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("content", help="Hausdorff content comparison near a curve")
    p.add_argument("input")
    p.add_argument("--delta", type=_ranged(float, lambda x: 0.0 < x < math.inf,
                                           "finite and > 0"), required=True)
    p.add_argument("--curve", required=True, help="polyline CSV (x,y per line)")
    p.set_defaults(func=cmd_content)

    p = sub.add_parser("lattice-check", help="lattice invariants on random instances")
    p.add_argument("--instances", type=_at_least(1), default=100)
    p.set_defaults(func=cmd_lattice_check)

    p = sub.add_parser("tree-check", help="tree properties on the reference fixtures")
    p.set_defaults(func=cmd_tree_check)

    p = sub.add_parser("extract-graph", help="bad-scale reduction and certificate")
    p.add_argument("input")
    p.add_argument("--center", type=_ranged(float, math.isfinite, "finite"), required=True,
                   help="interval center angle")
    p.add_argument("--half-width", type=_ranged(float, lambda x: 0.0 < x <= 0.5,
                                                "in (0, 1/2]"), required=True)
    p.add_argument("--m0", type=_at_least(0), required=True)
    p.set_defaults(func=cmd_extract_graph)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # argparse exits 0 after --help, 2 on a usage error
        return EXIT_IO if exc.code else EXIT_OK
    try:
        cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    except (OSError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        return args.func(args, cfg)
    except (InputError, FileNotFoundError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"hypothesis/precondition failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (RuntimeError, AssertionError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
