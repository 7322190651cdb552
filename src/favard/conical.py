"""Conical energies, bad scales, and good-direction selection.

Masses of truncated cones under a discrete measure drive everything here.
Annuli use the half-open radial convention (r, R] so that the dyadic annuli
(rho^{k+1}, rho^k] tile without double counting; per-scale masses accumulate
as integer numerators over one denominator so that energies are exactly
additive over disjoint direction sets, independent of grouping.

Scales run over [0, high]: sets are normalized to diameter 1, so the scales
rho^k <= 1 start at k = 0. ``scale_index`` is the (r, R] rule that turns
distances into scales, and both block kernels apply it to the (apexes x
atoms) blocks of ``torus.row_blocks``: ``annulus_scales`` for one arc
(bad-scale tables, the tree's bad cubes and the reduction's scale table),
``conical_energy`` for one direction set per apex (every energy of selection
and the tree, one call per site). ``scale_ceiling`` bounds the scales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .projection import Projector, projection_measures
from .sets import DiscreteMeasure, SegmentUnion, pairwise_extremes
from .torus import (TOL, AngleInterval, DirectionInterval, TriadicInterval, _direction_mask,
                    direction_vector, row_blocks, row_dot, triadic_cover, wrap)


def _interval_key(interval: DirectionInterval) -> tuple[float, float]:
    return (wrap(interval.center - interval.half_width), interval.half_width)


def scale_index(dist: np.ndarray, rho: float, high: int) -> np.ndarray:
    """Per distance d, the scale k in [0, high] with rho^{k+1} < d <= rho^k, or -1.

    The annulus radii are the Python floats rho**k, so every caller that
    compares against rho**k directly classifies each distance the same way.
    """
    radii = np.array([rho**k for k in range(high + 1, -1, -1)])   # ascending
    j = np.searchsorted(radii, dist, side="left")       # radii[j - 1] < d <= radii[j]
    return np.where((j > 0) & (j < len(radii)), high + 1 - j, -1)


@dataclass
class EnergyProfile:
    """Per-scale normalized annulus masses m_k = mu(X(x, G, rho^{k+1}, rho^k)) / rho^k
    = numerators[k] / denominator for k in [0, high], exactly: the denominator is
    the weights' common power-of-two denominator times p^high, for rho = p/q."""

    rho: float
    high: int
    numerators: list[int]
    denominator: int

    @property
    def total_float(self) -> float:
        return sum(self.numerators) / self.denominator    # int / int rounds correctly


def conical_energy(mu: DiscreteMeasure, apexes, direction_sets, rho: float,
                   high: int) -> list[EnergyProfile]:
    """Truncated conical energies sum_{k=0}^{high} mu(X(x, G, rho^{k+1}, rho^k)) / rho^k,
    one profile per row: row a is the apex apexes[a] over the direction set
    G = direction_sets[a], a sequence of intervals.

    Comparable (two-sidedly, with rho-dependent constants) to the integral
    form int mu(X(x, G, rho r, r)) / r dr/r over the matching range. Additive
    over disjoint direction sets exactly: every mass is an integer over one
    denominator. The apexes go in the row blocks of the (apexes x atoms)
    pairs; in each block every distinct arc masks only the rows that carry it
    (an atom on two touching closed arcs counts twice), and the hits are
    counted per (row, scale, weight), so each numerator adds n times the
    weight's term once per weight. An empty direction set has zero masses.
    """
    if not (0.0 < rho <= 0.5):
        raise ValueError("rho must lie in (0, 1/2]")
    apexes = np.asarray(apexes, dtype=float).reshape(-1, 2)
    if len(direction_sets) != len(apexes):
        raise ValueError("need one direction set per apex")
    weight_code: dict[float, int] = {}      # a dict, not np.unique: no numpy.ma import
    w_code = np.array([weight_code.setdefault(w, len(weight_code))
                       for w in mu.weights.tolist()], dtype=np.int64)
    ratios = [w.as_integer_ratio() for w in weight_code]    # denominators: powers of two
    unit = max((d for _, d in ratios), default=1)
    p, q = rho.as_integer_ratio()
    n_k, n_w = high + 1, len(ratios)
    # weight w / rho^k = term[k * n_w + w] / (unit p^high)
    term = [n * (unit // d) * q**k * p ** (high - k) for k in range(n_k) for n, d in ratios]
    sums = [[0] * n_k for _ in direction_sets]
    for block in row_blocks(len(apexes), len(mu)):
        apex = apexes[block].reshape(-1, 1, 2)
        diff = mu.points - apex
        dist = np.hypot(diff[..., 0], diff[..., 1])
        scale = scale_index(dist, rho, high)
        carriers: dict[DirectionInterval, list[int]] = {}
        for a, intervals in enumerate(direction_sets[block]):
            for interval in intervals:
                carriers.setdefault(interval, []).append(a)
        hits = [np.empty(0, dtype=np.int64)]
        for interval in sorted(carriers, key=_interval_key):
            rows = np.array(carriers[interval])
            row_scale = scale[rows]
            sel = _direction_mask(diff[rows], interval, dist[rows]) & (row_scale >= 0)
            a, j = np.nonzero(sel)
            hits.append((rows[a] * n_k + row_scale[a, j]) * n_w + w_code[j])
        # equal codes are one (row, scale, weight): count each run of the sorted codes
        code = np.sort(np.concatenate(hits))
        first = np.flatnonzero(np.diff(code, prepend=-1))
        counts = np.diff(first, append=len(code))
        for c, n in zip(code[first].tolist(), counts.tolist()):
            row, kw = divmod(c, n_k * n_w)
            sums[block.start + row][kw // n_w] += n * term[kw]
    return [EnergyProfile(rho, high, row, unit * p**high) for row in sums]


def annulus_scales(pts: np.ndarray, apexes: np.ndarray, direction: DirectionInterval,
                   rho: float, high: int) -> np.ndarray:
    """scale[a, j]: the k in [0, high] with pts[j] in X(apexes[a], direction,
    rho^{k+1}, rho^k), or -1: the one-arc block that every bad-scale test
    shares; conical_energy masks its own blocks per direction set."""
    apex = np.asarray(apexes, dtype=float).reshape(-1, 1, 2)
    diff = pts - apex
    dist = np.hypot(diff[..., 0], diff[..., 1])
    return np.where(_direction_mask(diff, direction, dist),
                    scale_index(dist, rho, high), -1)


def bad_scale_table(pts: np.ndarray, xs: np.ndarray, direction: DirectionInterval,
                    rho: float, high: int) -> np.ndarray:
    """hit[a, k]: whether k in [0, high] is a bad scale of xs[a], i.e.
    X(xs[a], direction, rho^{k+1}, rho^k) meets `pts`; one row block at a time."""
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    hit = np.zeros((len(xs), high + 1), dtype=bool)
    for block in row_blocks(len(xs), len(pts)):
        scale = annulus_scales(pts, xs[block], direction, rho, high)
        a, j = np.nonzero(scale >= 0)
        hit[block.start + a, scale[a, j]] = True
    return hit


def bad_scale_counts(pts: np.ndarray, xs: np.ndarray, direction: DirectionInterval,
                     rho: float, high: int) -> np.ndarray:
    """Number of bad scales of each row x of `xs`: the k in [0, high] with
    X(x, direction, rho^{k+1}, rho^k) meeting the atoms `pts`."""
    return bad_scale_table(pts, xs, direction, rho, high).sum(axis=1)


def scale_ceiling(pts: np.ndarray, rho: float) -> int:
    """Smallest high scale past which every annulus around every atom is
    empty: one more than the scale of the minimum atom gap. Coincident atoms
    have no gap, so they raise."""
    if len(pts) < 2:
        return 1
    gap = float(pairwise_extremes(pts)[0].min())
    if gap <= 0.0:
        raise ValueError("coincident points have no cone-free scale range")
    return max(1, math.ceil(math.log(gap) / math.log(rho))) + 1


Family = list[tuple[TriadicInterval, float]]     # (interval, witness angle)
SAMPLES_PER_INTERVAL = 6    # selection's direction samples per family-depth triadic interval


@dataclass
class SelectionResult:
    atoms: DiscreteMeasure
    eprime: np.ndarray                   # boolean mask over atoms
    families: dict[int, Family]          # per selected atom; each witness has mu_theta <= M
    g_length: float                      # H(G)
    eprime_mass_fraction: float          # selected mass over total mass
    min_family_length: float             # smallest per-atom family union length
    energy_ratios: dict[int, float]      # atom -> energy / (M * H(G))
    fourier_ratios: dict[int, float]     # atom -> energy / int_G pi_theta mu(pi_theta x)


def select_good_directions(union: SegmentUnion, arc: AngleInterval, kappa: float,
                           m_bound: float, *, triadic_depth: int, rho: float,
                           pitch: Optional[float]) -> SelectionResult:
    """Select the large-mass subset with per-point good triadic direction
    families (big projections to bounded projections to finite families).

    arc: the set G of directions with large projections, one arc, sampled at
    the midpoints of n = max(2, round(SAMPLES_PER_INTERVAL 3^N H(G))) equal
    cells, SAMPLES_PER_INTERVAL per triadic interval of the family depth N =
    `triadic_depth`. Every sample must satisfy H(pi_theta(E)) > kappa H(E);
    otherwise the offending theta is reported. The families are the depth-N
    triadic intervals containing at least one sample that is good for the
    atom; the witness is such a sample. Conical energies over the
    perpendicular families are recorded as ratios against M H(G).
    """
    if not (0.0 < kappa < 1.0):
        raise ValueError("kappa must lie in (0, 1)")
    total_len = arc.length
    mu = union.atoms(pitch)
    total_mass = mu.total_mass

    n = max(2, round(SAMPLES_PER_INTERVAL * 3**triadic_depth * total_len))
    thetas = [wrap(arc.low + (i + 0.5) * total_len / n) for i in range(n)]
    weight = total_len / n

    # one pushforward density per distinct theta, shared by the sampling and
    # the Fourier-ratio loops (quadrature nodes repeat across atoms)
    projector = Projector(union)

    # big-projection hypothesis, then bounded-projection subsets per sample
    for theta, measure in zip(thetas, projection_measures(union, thetas).tolist()):
        if measure <= kappa * total_mass + TOL:
            raise ValueError(
                f"big projection hypothesis fails at theta={theta}: "
                f"H(pi_theta(E)) = {measure} <= kappa H(E) = {kappa * total_mass}")
    good = np.array([projector.bounded(theta, mu.points, m_bound + TOL) for theta in thetas])

    good_len = good.sum(axis=0) * weight      # per-atom good-direction measure
    eprime = good_len >= (kappa / 4.0) * total_len - TOL
    eprime_mass = math.fsum(mu.weights[eprime].tolist())

    covers = [triadic_cover(theta, triadic_depth) for theta in thetas]
    families: dict[int, Family] = {}
    for i in np.nonzero(eprime)[0]:
        chosen: dict[TriadicInterval, float] = {}
        for j in np.nonzero(good[:, i])[0]:
            chosen.setdefault(covers[j], thetas[j])
        families[int(i)] = sorted(chosen.items())
    min_len = min((math.fsum(iv.length for iv, _ in fam) for fam in families.values()),
                  default=0.0)

    # pointwise pushforward values integrated over each family, the reference
    # quantity the energies are compared against: each (member, node) pair is
    # looked up once for all atoms that carry the member
    carriers: dict[TriadicInterval, list[int]] = {}
    for i, members in families.items():
        for iv, _ in members:
            carriers.setdefault(iv, []).append(i)
    pointwise: dict[int, list[float]] = {i: [] for i in families}
    n = 8
    for iv, atoms in carriers.items():
        for kq in range(n):
            th = wrap(iv.low + (kq + 0.5) * iv.length / n)
            ts = row_dot(mu.points[atoms], direction_vector(th))
            values = projector.density(th).value_at(ts) * iv.length / n
            for i, value in zip(atoms, values.tolist()):
                pointwise[i].append(value)

    profiles = conical_energy(mu, mu.points[list(families)],
                              [[iv.perp() for iv, _ in members] for members in families.values()],
                              rho, scale_ceiling(mu.points, rho))
    energy_ratios: dict[int, float] = {}
    fourier_ratios: dict[int, float] = {}
    for i, prof in zip(families, profiles):
        energy = prof.total_float
        energy_ratios[i] = energy / (m_bound * total_len)
        rhs = math.fsum(pointwise[i])
        fourier_ratios[i] = energy / rhs if rhs > 0.0 else math.inf

    return SelectionResult(mu, eprime, families, total_len,
                           eprime_mass / total_mass if total_mass else 0.0,
                           min_len, energy_ratios, fourier_ratios)

