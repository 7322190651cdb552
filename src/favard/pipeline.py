"""The end-to-end extraction pipeline: big projections to a Lipschitz graph."""

from __future__ import annotations

import math

import numpy as np

from .config import ExperimentConfig
from .conical import bad_scale_counts, scale_ceiling, select_good_directions
from .graphs import extract_graph, verify_lipschitz
from .projection import projection_measures
from .sets import DiscreteMeasure, SegmentUnion, ahlfors_constant
from .torus import AngleInterval, TriadicInterval, perp, wrap
from .tree import propagate_good_directions


def _rotate_quarter(pts: np.ndarray, shift=(0.0, 0.0)) -> np.ndarray:
    """Rotate by +90 degrees, (x, y) -> (-y, x), then subtract shift."""
    return np.column_stack([-pts[:, 1] - shift[0], pts[:, 0] - shift[1]])


def run_pipeline(union: SegmentUnion, kappa: float, cfg: ExperimentConfig) -> dict:
    """The end-to-end extraction pipeline on a parallel segment union.

    Stages: normalize to diameter 1; find the big-projection directions and a
    triadic root interval inside them; select per-atom good families;
    propagate the families in the quarter-rotated frame (where the
    perpendicular families stay triadic); bound the bad scales of the
    finished set; extract a Lipschitz graph and map it back. Raises
    ValueError with the stage name on hypothesis failure, AssertionError
    with the stage name when the back-mapped certificate fails.
    """
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
    report: dict = {"kappa": kappa}
    if not union.parallel_to(union.direction_angles[0], 1e-9):
        raise ValueError("stage normalize: input segments are not parallel")
    lo = union.endpoints().min(axis=0)
    scale = 1.0 / union.diameter()
    norm = union.mapped(lambda pts: (pts - lo) * scale)
    report["normalization"] = {"scale": scale, "offset": lo.tolist()}

    a_const = max(2.0, ahlfors_constant(norm, 400, cfg.seed))
    m_bound = cfg.c_m / kappa
    report["a_const"] = a_const
    report["m_bound"] = m_bound

    total = norm.total_length
    grid = (np.arange(cfg.n_angles) + 0.5) / cfg.n_angles
    measures = projection_measures(norm, grid)
    good = measures > kappa * total * 1.05
    if not good.any():
        raise ValueError(f"stage directions: no theta with H(pi_theta(E)) > kappa H(E);"
                         f" max ratio = {measures.max() / total}")

    level = max(1, math.ceil(math.log(a_const * m_bound / cfg.c_j) / math.log(3.0)))
    best, best_score = None, -1.0
    for idx in range(3**level):
        j = TriadicInterval(level, idx)
        inside = (grid >= j.low) & (grid < j.high)
        score = float(np.count_nonzero(good & inside)) / max(1, np.count_nonzero(inside))
        if score > best_score:
            best, best_score = j, score
    root_iv = best
    report["root_iv"] = {"level": root_iv.level, "index": root_iv.index, "coverage": best_score}
    if best_score < 1.0:
        raise ValueError("stage directions: no triadic root interval fully inside "
                         "the good direction set "
                         f"at level {level} (best coverage {best_score})")

    depth_abs = max(6, root_iv.level + 2)
    selection = select_good_directions(
        norm, root_iv.as_angle_interval(), kappa, m_bound,
        samples_per_length=6 * 3**depth_abs,
        triadic_depth=depth_abs, rho=cfg.rho, pitch=cfg.atom_pitch)
    report["selection"] = {
        "eprime_mass_fraction": selection.eprime_mass_fraction,
        "min_family_length": selection.min_family_length,
        "g_length": selection.g_length,
        "max_energy_ratio": max(selection.energy_ratios.values(), default=0.0),
        "max_fourier_ratio": max((v for v in selection.fourier_ratios.values()
                                  if math.isfinite(v)), default=0.0),
    }
    if selection.eprime_mass_fraction < kappa / 4.0 - 1e-9:
        raise ValueError("stage selection: selected mass below kappa/4 of the total")

    atoms = selection.atoms
    shift = _rotate_quarter(atoms.points).min(axis=0)     # rotated atoms start at 0
    rot_atoms = DiscreteMeasure(_rotate_quarter(atoms.points, shift), atoms.weights)
    rot_union = norm.mapped(lambda pts: _rotate_quarter(pts, shift))

    prop = propagate_good_directions(rot_atoms, selection.eprime, selection.families, root_iv,
                                     a_const, m_bound, cfg, segment_model=rot_union)
    report["propagation"] = {
        "rounds": prop.rounds,
        "trace": prop.trace,
        "finished_mass_fraction": float(
            math.fsum(atoms.weights[prop.finished_mask].tolist())
            / math.fsum(atoms.weights[selection.eprime].tolist())),
    }

    f_idx = np.nonzero(prop.finished_mask)[0]
    half_j0 = root_iv.dilate(0.5)
    high = scale_ceiling(rot_atoms.points[f_idx], cfg.rho)
    finished = rot_atoms.points[f_idx]
    m0 = int(bad_scale_counts(finished, finished, half_j0, cfg.rho, high).max(initial=0))
    report["bad_scale_bound"] = {"m0": m0, "scale_high": high}

    cert = extract_graph(rot_atoms.points[f_idx], half_j0, m0, cfg.rho)
    retained_global = [int(f_idx[i]) for i in cert.retained_idx]
    final_width = cert.cone_half_width
    orig_interval = AngleInterval(wrap(root_iv.center - 0.25), final_width)
    ok, lip = verify_lipschitz(atoms.points[retained_global], orig_interval)
    if not ok:
        raise AssertionError("stage extract: back-mapped certificate fails the cone test")
    report["certificate"] = {
        "theta0": perp(orig_interval.center),
        "lip": lip,
        "cone_half_width": final_width,
        "retained_atoms": len(retained_global),
        "retained_mass": math.fsum(atoms.weights[retained_global].tolist()),
        "retained_mass_fraction": math.fsum(atoms.weights[retained_global].tolist())
        / math.fsum(atoms.weights.tolist()),
        "retained_idx": retained_global,
    }
    report["all_stage_invariants"] = bool(
        selection.min_family_length > 0.0
        and all(t["containment_ok"] and t["growth_ok"] for t in prop.trace)
        and len(retained_global) > 0)
    return report
