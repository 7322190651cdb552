"""Bad-scale reduction and Lipschitz-graph certificates.

A finite point set whose pairwise direction cones with interval J are empty
is the graph of a Lipschitz function over the line perpendicular to the
midpoint of J, with slope controlled by 1/sin(pi H(J)). The reduction loop
removes atoms greedily until every point has at most M - 1 bad scales for the
halved interval; iterating the halving M_0 times empties all bad scales and
yields a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .config import write_json
from .conical import annulus_scales, bad_scale_counts, scale_ceiling
from .sets import pairwise_extremes
from .torus import (TOL, DirectionInterval, _direction_mask, direction_vector, perp, row_blocks,
                    row_dot)


@dataclass
class GraphCertificate:
    """A certified Lipschitz graph through a point set.

    In the rotated frame (t, f) with t along `theta0`, the retained points are
    (t_i, f_i) with |f_i - f_j| <= lip |t_i - t_j| for every pair; the
    piecewise-linear interpolation (constant outside the hull) extends the
    graph with the same constant. ``cone_half_width`` records the certified
    empty-cone width.
    """

    theta0: float
    lip: float
    points: list[tuple[float, float]]
    retained_idx: list[int]
    cone_half_width: float

    def to_json(self, path) -> None:
        write_json(path, {"theta0": self.theta0, "lip": self.lip,
                          "cone_half_width": self.cone_half_width,
                          "points": self.points,
                          "retained_idx": self.retained_idx})


def verify_lipschitz(points: np.ndarray, interval: DirectionInterval) -> tuple[bool, float]:
    """Exhaustive pairwise cone-emptiness test and the realized slope.

    is_graph is true when no pair lies in the other's cone X(., interval) and
    the projection onto the perpendicular of the interval midpoint is
    injective; lip is the largest pairwise slope in that frame (0 for
    singletons, inf for a vertical pair).
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n <= 1:
        return True, 0.0
    e_t = direction_vector(perp(interval.center))
    e_f = direction_vector(interval.center)
    t_vals = row_dot(pts, e_t)
    f_vals = row_dot(pts, e_f)
    ok = True
    lip = 0.0
    for i in range(n):
        diff = pts[i + 1:] - pts[i]
        dist = np.hypot(diff[:, 0], diff[:, 1])
        inside = _direction_mask(diff, interval, dist)
        if inside.any():
            ok = False
        dt = np.abs(t_vals[i + 1:] - t_vals[i])
        df = np.abs(f_vals[i + 1:] - f_vals[i])
        vertical = dt <= 0.0
        if vertical.any():
            ok = False
            lip = math.inf
        finite = ~vertical
        if finite.any():
            lip = max(lip, float(np.max(df[finite] / dt[finite])))
    return ok, lip


def reduce_bad_scales(points: np.ndarray, idx: np.ndarray, interval: DirectionInterval,
                      m_cap: int, rho: float) -> np.ndarray:
    """Shrink the set until every point has at most m_cap - 1 bad scales for
    the halved interval.

    Precondition (checked): every point has at most m_cap bad scales for the
    full interval. The greedy step removes the atom participating in the most
    offending (apex, scale, witness) incidences; ties break lexicographically
    by coordinates, then index. The halved-cone annulus of every pair is
    found once; each deletion then updates the incidence counts instead of
    recounting them. The result is rechecked exactly.
    """
    pts_all = np.asarray(points, dtype=float)
    idx = np.array(sorted(idx), dtype=np.int64)
    high = scale_ceiling(pts_all[idx], rho)

    counts = bad_scale_counts(pts_all[idx], pts_all[idx], interval, rho, high)
    offenders = [(int(i), int(c)) for i, c in zip(idx, counts) if c > m_cap]
    if offenders:
        raise ValueError(
            f"precondition fails: {len(offenders)} points exceed {m_cap} bad scales: "
            f"{offenders[:5]}")

    half = interval.dilate(0.5)
    pts = pts_all[idx]
    n = len(idx)
    # scale[a, j]: the annulus (rho^{k+1}, rho^k], k <= high, of apex a that
    # holds j inside the halved cone, or -1, one row block at a time;
    # hits[a, k] counts its witnesses
    scale = np.empty((n, n), dtype=np.int16)
    for block in row_blocks(n, n):
        scale[block] = annulus_scales(pts, pts[block], half, rho, high)
    hits = np.zeros((n, high + 1), dtype=np.int64)
    rows, cols = np.nonzero(scale >= 0)
    np.add.at(hits, (rows, scale[rows, cols]), 1)

    alive = np.ones(n, dtype=bool)
    while True:
        n_bad = np.count_nonzero(hits, axis=1)
        offender = alive & (n_bad >= m_cap)
        if not offender.any() or np.count_nonzero(alive) == 1:
            break
        # incidences (apex, scale, witness) with an offending apex: the apex
        # counts each witness and each bad scale, every witness counts once
        counts = np.where(offender, hits.sum(axis=1) + n_bad, 0)
        counts = counts + np.count_nonzero(scale[offender] >= 0, axis=0)
        tied = np.nonzero(alive & (counts == counts[alive].max()))[0]
        drop = tied[np.lexsort((idx[tied], pts[tied, 1], pts[tied, 0]))[0]]
        seen_by = np.nonzero(scale[:, drop] >= 0)[0]
        hits[seen_by, scale[seen_by, drop]] -= 1
        hits[drop] = 0
        scale[drop, :] = -1
        scale[:, drop] = -1
        alive[drop] = False
    keep = idx[alive]

    if np.any(bad_scale_counts(pts_all[keep], pts_all[keep], half, rho, high) > m_cap - 1):
        raise AssertionError("reduction postcondition failed")
    return keep


C0_BENCHMARK = 1.0 / 16.0     # the constant c0 of the iteration benchmark


def mass_benchmark(retained_mass: float, interval_length: float, a_const: float,
                   tau: float) -> dict:
    """Retained mass against the iteration benchmark c0 alpha A^-2 tau^2.

    The greedy reduction is not guaranteed to attain the benchmark; the
    comparison is reported, never asserted.
    """
    benchmark = C0_BENCHMARK * interval_length * tau**2 / a_const**2
    return {"retained_mass": retained_mass, "benchmark": benchmark,
            "meets_benchmark": retained_mass >= benchmark}


def extract_graph(points: np.ndarray, interval: DirectionInterval, m0: int,
                  rho: float = 0.5) -> GraphCertificate:
    """Iterate the bad-scale reduction m0 times, halving the interval each
    round, and certify the final set as a Lipschitz graph.

    The points must have diameter <= 1 (bad scales live at radii <= 1) and at
    most m0 bad scales each for the starting interval; after round j the
    retained set has at most m0 - j bad scales for the 2^-j-dilated interval,
    so the final cones are empty. The certificate always passes
    verify_lipschitz with the final cone width.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise ValueError("empty input")
    d = float(np.max(pairwise_extremes(pts)[1], initial=0.0))
    if d > 1.0 + TOL:
        raise ValueError(f"diameter {d} > 1; rescale before extraction")

    keep = np.arange(len(pts), dtype=np.int64)
    current = interval
    for j in range(m0):
        keep = reduce_bad_scales(pts, keep, current, m0 - j, rho)
        current = current.dilate(0.5)

    ok, lip = verify_lipschitz(pts[keep], current)
    if not ok:
        raise AssertionError("extraction postcondition failed: cones not empty")
    kept = pts[keep]
    t_vals = row_dot(kept, direction_vector(perp(current.center)))
    f_vals = row_dot(kept, direction_vector(current.center))
    coords = sorted(zip(t_vals.tolist(), f_vals.tolist()))
    return GraphCertificate(perp(current.center), lip, coords,
                            [int(i) for i in keep], current.half_width)
