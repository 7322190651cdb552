"""The end-to-end extraction pipeline: big projections to a Lipschitz graph."""

from __future__ import annotations

import math

import numpy as np

from .config import ExperimentConfig
from .conical import Family, bad_scale_counts, scale_ceiling, select_good_directions
from .graphs import extract_graph, verify_lipschitz
from .projection import Projector, projection_measures
from .sets import DiscreteMeasure, SegmentUnion, ahlfors_constant
from .torus import TOL, AngleInterval, TriadicInterval, perp, wrap
from .tree import propagate_good_directions

# Selection's samples at depth D = level + 2 sit 3^-D / 12 from a depth-D cell edge;
# angles in [0, 1) are floats up to 2^-53 apart and a sample with its triadic cover
# carries under 8 such roundings, so 3^-D / 12 > 8 * 2^-53 holds only for D <= 29.
MAX_ROOT_LEVEL = 27


def _rotate_quarter(pts: np.ndarray, shift=(0.0, 0.0)) -> np.ndarray:
    """Rotate by +90 degrees, (x, y) -> (-y, x), then subtract shift."""
    return np.column_stack([-pts[:, 1] - shift[0], pts[:, 0] - shift[1]])


def _root_interval(grid: np.ndarray, good: np.ndarray, level: int
                   ) -> tuple[TriadicInterval, float]:
    """The level-`level` triadic interval with the largest fraction of good
    grid angles (the lowest index among ties) and that fraction, from one
    pass over the angles in [0, 1): each goes into the interval whose
    half-open bounds [low, high) hold it, found from the guess int(t 3^level)
    by at most one step. An interval without angles scores 0, and some angle
    is good, so only the intervals holding angles compete."""
    n = 3**level
    counts: dict[int, list[int]] = {}
    for t, ok in zip(grid.tolist(), good.tolist()):
        iv = TriadicInterval(level, min(int(t * n), n - 1))
        if t < iv.low:
            iv = TriadicInterval(level, iv.index - 1)
        elif t >= iv.high:
            iv = TriadicInterval(level, iv.index + 1)
        tally = counts.setdefault(iv.index, [0, 0])
        tally[0] += ok
        tally[1] += 1
    score = {i: float(hits) / total for i, (hits, total) in counts.items()}
    best = min(score, key=lambda i: (-score[i], i))
    return TriadicInterval(level, best), score[best]


def _check_witnesses(union: SegmentUnion, atoms: DiscreteMeasure, eprime: np.ndarray,
                     families: dict[int, Family], m_bound: float) -> None:
    """Witness bound: every witness satisfies mu_theta_perp(x) <= M.

    Evaluated on the segment model (the atomized pushforward has no bounded
    maximal function), one density per distinct witness angle. The exact
    values are computed only for an angle where some witness fails, to name
    the first one. Atoms with the same witness angles are one group.
    """
    projector = Projector(union)
    by_witnesses: dict[tuple[float, ...], list[int]] = {}
    for i in np.flatnonzero(eprime).tolist():
        by_witnesses.setdefault(tuple(th for _, th in families.get(i, [])), []).append(i)
    by_angle: dict[float, list[int]] = {}
    for witnesses, group in by_witnesses.items():
        for th in witnesses:
            by_angle.setdefault(perp(th), []).extend(group)
    for t, idx in by_angle.items():
        idx.sort()
        if projector.bounded(t, atoms.points[idx], m_bound + TOL).all():
            continue
        vals = projector.mu_theta(t, atoms.points[idx])
        first = np.nonzero(vals > m_bound + TOL)[0][0]
        raise ValueError(
            f"witness bound fails: witness angle {wrap(t - 0.25)} at atom "
            f"{idx[first]} has mu_theta_perp = {vals[first]} > M = {m_bound}")


def run_pipeline(union: SegmentUnion, kappa: float, cfg: ExperimentConfig) -> dict:
    """The end-to-end extraction pipeline on a segment union.

    Stages: normalize to diameter 1; find the big-projection directions and a
    triadic root interval inside them; select per-atom good families;
    check each witness angle against M, then propagate the families, as
    lists of intervals, in the quarter-rotated frame (where the
    perpendicular families stay triadic); bound the bad scales of the
    finished set; extract a Lipschitz graph and map it back. Raises
    ValueError with the stage name on hypothesis failure, AssertionError
    with the stage name when a propagation stage check or the back-mapped
    certificate fails.
    """
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (0, 1), got {kappa}")
    report: dict = {"kappa": kappa}
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

    exponent = math.log(a_const * m_bound / cfg.c_j) / math.log(3.0)
    if not exponent <= MAX_ROOT_LEVEL:
        raise ValueError(f"stage directions: root level ceil(log3(A M / c_j)) = ceil("
                         f"{exponent:.6g}) passes {MAX_ROOT_LEVEL}: float angles cannot tell "
                         f"selection's samples apart (M = c_m / kappa = {m_bound})")
    level = max(1, math.ceil(exponent))
    root_iv, best_score = _root_interval(grid, good, level)
    report["root_iv"] = {"level": root_iv.level, "index": root_iv.index, "coverage": best_score}
    if best_score < 1.0:
        raise ValueError("stage directions: no triadic root interval fully inside "
                         "the good direction set "
                         f"at level {level} (best coverage {best_score})")

    selection = select_good_directions(
        norm, root_iv.as_angle_interval(), kappa, m_bound,
        triadic_depth=max(6, root_iv.level + 2), rho=cfg.rho, pitch=cfg.atom_pitch)
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

    _check_witnesses(rot_union, rot_atoms, selection.eprime, selection.families, m_bound)
    families = {i: [iv for iv, _ in fam] for i, fam in selection.families.items()}
    prop = propagate_good_directions(rot_atoms, selection.eprime, families, root_iv,
                                     a_const, m_bound, cfg)
    report["propagation"] = {
        "rounds": prop.rounds,
        "trace": prop.trace,
        "finished_mass_fraction": atoms.mass(prop.finished_mask) / atoms.mass(selection.eprime),
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
    retained_mass = atoms.mass(retained_global)
    report["certificate"] = {
        "theta0": perp(orig_interval.center),
        "lip": lip,
        "cone_half_width": final_width,
        "retained_atoms": len(retained_global),
        "retained_mass": retained_mass,
        "retained_mass_fraction": retained_mass / atoms.total_mass,
        "retained_idx": retained_global,
    }
    report["all_stage_invariants"] = bool(
        selection.min_family_length > 0.0
        and all(t["containment_ok"] and t["growth_ok"] for t in prop.trace)
        and len(retained_global) > 0)
    return report
