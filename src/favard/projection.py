"""Exact projections of segment unions, Favard length, and maximal functions.

Projections of a segment union are exact interval unions; the Favard length
integrates their measure over the direction torus with a midpoint rule (the
integrand is piecewise smooth with kinks only at segment directions, which
midpoints avoid). A Buffon-style Monte Carlo estimator cross-checks the
quadrature. Both work on the connected pieces of the union's piece table
(`SegmentUnion.pieces`): a piece projects onto one interval, the lowest to
the highest of its projected vertices, and a union whose table would cost
more than its 2n endpoints falls back to one piece per segment. A needle
projects the vertices only of the pieces whose bounding disc its line meets.
Pushforwards of arclength are piecewise constant densities plus atoms for
(near-)perpendicular segments, and the Hardy-Littlewood maximal function of
such a density is evaluated exactly. The bounded-projection test
mu_theta(x) <= M (`Projector.bounded`) first applies two bounds that the
exact kernel implies: without atoms, no window average exceeds the largest
density value, so when that value (widened by the kernel's rounding) is at
most M every row holds; and the kernel's value is at least the two-sided
limit at t, so a row whose limit exceeds M fails. Only the rows left open
run the exact kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sets import SegmentUnion
from .torus import direction_vector, row_dot

PERP_CUTOFF = 1e-9     # segments with |cos| below this push forward to an atom


SWEEP_BLOCK = 65_536    # projected vertex slots per angle block of the sweep
MC_CHUNK = 100_000      # needles drawn from the generator at a time
MIN_NEEDLES = 100       # the fewest needles favard_mc accepts
NEEDLE_BLOCK = 65_536   # needle-slot pairs per block of the Monte Carlo hit test
# Widening of each piece's bounding disc in the needle test, in units of
# R + |c| (R the needle window's half-width, c the disc's center). The
# piece's vertices, and the t of every needle that hits it, lie within
# 1.5 (R + |c|) of the origin, so one float dot product x ex + y ey is off by
# at most 2^-52 * 1.5 (R + |c|) < 4e-16 (R + |c|). The slack is over 10^6 times
# that, and over 10^5 times the few such roundings that the disc and vertex
# tests chain, so every pair that the exact vertex test calls a hit meets the
# disc.
DISC_SLACK = 1e-9


def _sweep(xs: np.ndarray, ys: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Measure of pi_theta(E) for each angle, from the (K, C) piece table.

    Each piece projects onto the interval from the lowest to the highest of
    its K projected vertex slots. With the low ends L and the high ends H
    each sorted on its own, the measure is
        (H_last - L_first) - sum_i max(0, L_i - H_{i-1}),
    the floats of the sweep in low-end order, whose gaps are
    max(0, L_i - runmax_{i-1}), runmax the running maximum of the high ends:
    a gap opens before L_i exactly when the first i intervals end below L_i
    and the rest at or above it, so runmax_{i-1} = H_{i-1}; with no gap, at
    most i - 1 high ends lie below L_i, so H_{i-1} >= L_i and both add 0.
    No angle reads another's sort, so no block carries state to the next.
    """
    n_pieces = xs.shape[1]
    out = np.zeros(len(thetas))
    if n_pieces == 0:
        return out
    ang = 2.0 * math.pi * thetas
    ex, ey = np.cos(ang)[:, None], np.sin(ang)[:, None]
    xs, ys = xs[:, None, :], ys[:, None, :]
    block = max(1, SWEEP_BLOCK // xs.size)
    for c in range(0, len(thetas), block):
        proj = xs * ex[c:c + block]                             # (K, angles, C)
        proj += ys * ey[c:c + block]
        lows, highs = proj.min(axis=0), proj.max(axis=0)
        lows.sort(axis=1)
        highs.sort(axis=1)
        gaps = np.subtract(lows[:, 1:], highs[:, :-1])
        gaps = np.maximum(gaps, 0.0, out=gaps).sum(axis=1)
        out[c:c + block] = (highs[:, -1] - lows[:, 0]) - gaps
    return out


def projection_measures(union: SegmentUnion, thetas) -> np.ndarray:
    """Measure of pi_theta(E) for each angle of `thetas` (vectorized sweep).

    Memory stays bounded by blocks of about SWEEP_BLOCK projected vertex
    slots, and each value depends only on its own angle's sorted ends.
    """
    return _sweep(*union.pieces, np.asarray(thetas, dtype=float).reshape(-1))


def midpoint_measures(union: SegmentUnion, n_angles: int, workers: int) -> np.ndarray:
    """Measure of pi_theta(E) at each angle of the midpoint grid (i + 1/2)/n.

    Projecting onto -e mirrors the projection onto e, so the measure has
    period 1/2 in theta. For even n, theta -> theta + 1/2 maps the grid onto
    itself: only its first n/2 angles are swept and the values are tiled, so
    entries i and i + n/2 are equal. Odd n sweeps the full grid. The swept
    angles are split into `workers` contiguous shards run on threads; no
    angle's sweep reads another's, so every value is independent of the
    shard it lands in. The piece table is built before the threads start.
    """
    if n_angles < 2:
        raise ValueError("n_angles must be >= 2")
    m = n_angles // 2 if n_angles % 2 == 0 else n_angles
    thetas = (np.arange(m) + 0.5) / n_angles
    xs, ys = union.pieces
    shards = max(1, int(workers))
    bounds = np.linspace(0, m, shards + 1, dtype=int)
    spans = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if shards == 1 or len(spans) == 1:
        parts = [_sweep(xs, ys, thetas[a:b]) for a, b in spans]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=shards) as pool:
            parts = list(pool.map(lambda ab: _sweep(xs, ys, thetas[ab[0]:ab[1]]), spans))
    return np.tile(np.concatenate(parts), n_angles // m)


def favard(union: SegmentUnion, n_angles: int, workers: int) -> float:
    """Favard length by midpoint-rule quadrature over theta in [0, 1).

    Fav(E) = integral over the torus of the projection measure; the midpoint
    grid (i + 1/2)/n avoids the kink angles of the integrand. The values are
    those of midpoint_measures (the rows of `compute --per-angle`): since
    |pi_{theta + 1/2} E| = |pi_theta E|, an even n sweeps only the first half
    of the grid and rows i and i + n/2 are equal, while an odd n sweeps the
    full grid. All of them are summed by one exactly rounded fsum, so the
    result does not depend on the worker count, and for even n it is exactly
    the mean of the swept half.
    """
    return math.fsum(midpoint_measures(union, n_angles, workers).tolist()) / n_angles


def _piece_discs(xs: np.ndarray, ys: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The bounding disc of each piece of the (K, C) table, for needles in a
    window of half-width `radius`: a (C, 3) matrix `disc` with
    disc @ (ex, ey, t) = t - c . e, c the midpoint of the piece's vertex box,
    and the (C, 1) column `reach`, the farthest vertex from c widened by
    DISC_SLACK. A needle line can meet the piece only where
    |t - c . e| <= reach."""
    cx = (xs.min(axis=0) + xs.max(axis=0)) / 2.0
    cy = (ys.min(axis=0) + ys.max(axis=0)) / 2.0
    reach = np.hypot(xs - cx, ys - cy).max(axis=0) + DISC_SLACK * (radius + np.hypot(cx, cy))
    return np.stack((-cx, -cy, np.ones(len(cx))), axis=1), reach[:, None]


def favard_mc(union: SegmentUnion, needle_count: int, rng_seed: int) -> tuple[float, float]:
    """Unbiased Buffon-needle estimate of Fav(E) with its standard error.

    Samples (theta, t) with theta uniform on the torus and t uniform on a
    window of half-width R covering every projection; the indicator that the
    line pi_theta^{-1}(t) meets E, scaled by the window size 2R, has mean
    Fav(E). A needle meets E exactly when it meets the projection interval
    of one of its connected pieces. Needles are drawn MC_CHUNK at a time and
    go in blocks of NEEDLE_BLOCK // (K * C) needles, about NEEDLE_BLOCK
    needle-slot pairs of the (K, C) piece table. A block first keeps the
    (piece, needle) pairs whose line meets the piece's bounding disc, widened
    by DISC_SLACK; only those pairs project the piece's vertices, each
    piece's vertex columns repeated over its pairs, and take the exact
    interval test. The disc keeps every pair that the exact test would call a
    hit, so the count is that of testing every piece, and memory stays
    bounded whatever the needle count.
    """
    if needle_count < MIN_NEEDLES:
        raise ValueError(f"needle_count must be >= {MIN_NEEDLES}")
    if not len(union):
        return 0.0, 0.0
    center, radius = union.bounding_center_radius()
    xs, ys = union.pieces
    disc, reach = _piece_discs(xs, ys, radius)
    block = max(1, NEEDLE_BLOCK // xs.size)
    piece_rows = np.arange(xs.shape[1] + 1)
    rng = np.random.default_rng(rng_seed)
    hits = 0
    done = 0
    while done < needle_count:
        m = min(MC_CHUNK, needle_count - done)
        thetas = rng.random(m)
        offsets = (2.0 * rng.random(m) - 1.0) * radius
        ang = 2.0 * math.pi * thetas
        lines = np.empty((3, m))                                # rows ex, ey, t
        ex, ey = np.cos(ang, out=lines[0]), np.sin(ang, out=lines[1])
        lines[2] = center[0] * ex + center[1] * ey + offsets
        for c in range(0, m, block):
            ex_b, ey_b, t_b = needle_rows = lines[:, c:c + block]
            # the (piece, needle) pairs that meet the disc, in piece order
            gap = disc @ needle_rows                            # (C, needles)
            meets = np.abs(gap, out=gap) <= reach
            pair = np.flatnonzero(meets)
            row_start = needle_rows.shape[1] * piece_rows
            ends = np.searchsorted(pair, row_start)
            counts = ends[1:] - ends[:-1]                       # pairs per piece
            needle = pair - np.repeat(row_start[:-1], counts)
            # the exact test on those pairs: x ex + y ey per vertex slot, rounded as
            # a test of every pair rounds it; a pair's result replaces its mask entry
            px = np.repeat(xs, counts, axis=1)                  # (K, pairs)
            py = np.repeat(ys, counts, axis=1)
            px *= ex_b[needle]
            py *= ey_b[needle]
            proj = np.add(px, py, out=px)
            t_n = t_b[needle]
            meets.reshape(-1)[pair] = (t_n >= proj.min(axis=0)) & (t_n <= proj.max(axis=0))
            hits += np.count_nonzero(meets.any(axis=0))         # needles with a hit
        done += m
    window = 2.0 * radius
    p = hits / needle_count
    estimate = window * p
    stderr = window * math.sqrt(max(p * (1.0 - p), 0.0) / needle_count)
    return estimate, stderr


@dataclass
class PiecewiseConstDensity:
    """Density sum(v_i 1_{(t_{i-1}, t_i)}) plus finitely many atoms on R."""

    breakpoints: np.ndarray          # (m+1,) strictly increasing
    values: np.ndarray               # (m,) nonnegative
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.breakpoints) != len(self.values) + 1:
            raise ValueError("need one more breakpoint than values")
        if len(self.breakpoints) > 1 and np.any(np.diff(self.breakpoints) <= 0.0):
            raise ValueError("breakpoints must increase strictly")
        if np.any(self.values < 0.0):
            raise ValueError("density values must be >= 0")

    @property
    def total_mass(self) -> float:
        dense = math.fsum((self.values * np.diff(self.breakpoints)).tolist()) \
            if len(self.values) else 0.0
        return dense + math.fsum(m for _, m in self.atoms)

    def _adjacent_values(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """Density values just left and right of each t (0 outside the pieces)."""
        padded = np.concatenate(([0.0], self.values, [0.0]))
        return (padded[np.searchsorted(self.breakpoints, ts, side="left")],
                padded[np.searchsorted(self.breakpoints, ts, side="right")])

    def value_at(self, ts):
        """Pointwise density value at t or at each t of an array; at a
        breakpoint, the larger adjacent value."""
        return np.maximum(*self._adjacent_values(ts))

    def small_window_limit(self, ts):
        """lim_{r -> 0+} nu((t-r, t+r)) / 2r, the two-sided density average,
        at t or at each t of an array."""
        left, right = self._adjacent_values(ts)
        return (left + right) / 2.0


def pushforward_density(union: SegmentUnion, theta: float) -> PiecewiseConstDensity:
    """Pushforward of arclength on E under pi_theta.

    A segment of direction phi contributes density 1/|cos(2 pi (theta - phi))|
    on the projection of its endpoints; segments with |cos| < PERP_CUTOFF
    contribute an atom of mass = length at the projected point. Total mass
    equals the total length of E. Each piece's value is added to the cells
    whose midpoints lie strictly inside it, one piece after another in
    segment order, so the float sums do not depend on how they are batched.
    """
    e = direction_vector(theta)
    pa, pb = row_dot(union.coords[:2].T, e), row_dot(union.coords[2:].T, e)
    lo, hi = np.minimum(pa, pb), np.maximum(pa, pb)
    c = np.abs(np.cos(2.0 * math.pi * (theta - union.direction_angles)))
    point = (c < PERP_CUTOFF) | (hi - lo <= 0.0)
    atoms = tuple(zip(((lo + hi) / 2.0)[point].tolist(), union.lengths[point].tolist()))
    lo, hi, mass = lo[~point], hi[~point], union.lengths[~point]
    if not len(lo):
        return PiecewiseConstDensity(np.zeros(1), np.zeros(0), atoms)
    cuts = np.array(sorted({*lo.tolist(), *hi.tolist()}))   # np.unique imports numpy.ma
    mids = (cuts[:-1] + cuts[1:]) / 2.0
    first, stop = np.searchsorted(mids, lo, side="right"), np.searchsorted(mids, hi)
    counts = stop - first
    piece = np.repeat(np.arange(len(lo)), counts)
    cell = np.arange(len(piece)) - np.repeat(np.cumsum(counts) - counts, counts) + first[piece]
    values = np.bincount(cell, (mass / (hi - lo))[piece], len(cuts) - 1)
    return PiecewiseConstDensity(cuts, values, atoms)


def maximal_values_batch(density: PiecewiseConstDensity, ts: np.ndarray) -> np.ndarray:
    """Exact centered Hardy-Littlewood maximal value sup_r nu((t-r, t+r)) / 2r
    at each point of `ts`.

    The window mass g(r) is piecewise linear in r with breakpoints where
    t +- r meets a density breakpoint or an atom, so g(r)/2r is monotone
    between consecutive breakpoints; the supremum is attained at a breakpoint
    (from the left or the right) or in the r -> 0+ limit, and is inf when an
    atom sits exactly at t. For every point and candidate radius, the dense
    window mass is accumulated piece by piece from the overlap of each density
    piece with the centered window, and atoms are resolved by |p - t| against
    the radius. The scalar reference `maximal_value` in tests/reference.py
    evaluates the same formulas one point at a time.
    """
    ts = np.asarray(ts, dtype=float)
    if density.total_mass <= 0.0:
        raise ValueError("maximal function of the zero measure")
    b = density.breakpoints
    have_dense = len(density.values) > 0

    cand = list(b.tolist()) + [p for p, _ in density.atoms]
    cand = np.array(sorted(set(cand)))
    radii = np.abs(ts[:, None] - cand[None, :])          # (n, C)
    radii = np.where(radii > 0.0, radii, np.inf)
    g_open = np.zeros_like(radii)
    if have_dense:
        shifted = b[None, :] - ts[:, None]               # piece edges relative to t
        for p in range(len(density.values)):
            lo_p = shifted[:, p][:, None]
            hi_p = shifted[:, p + 1][:, None]
            overlap = np.minimum(hi_p, radii) - np.maximum(lo_p, -radii)
            g_open += density.values[p] * np.clip(overlap, 0.0, None)
    g_right = g_open.copy()
    for p, m in density.atoms:
        # atom membership via |p - t| vs r, never via the float endpoints t +- r
        adist = np.abs(p - ts[:, None])
        g_open += m * (adist < radii)
        g_right += m * (adist <= radii)
    with np.errstate(invalid="ignore"):
        ratios = np.maximum(g_open, g_right) / (2.0 * radii)
    ratios = np.where(np.isfinite(radii), ratios, -np.inf)
    best = ratios.max(axis=1) if ratios.shape[1] else np.full(len(ts), -np.inf)

    # r -> 0+ limit: two-sided average of the adjacent density values
    best = np.maximum(best, density.small_window_limit(ts))
    for p, _ in density.atoms:
        best = np.where(ts == p, np.inf, best)
    return best


def _moderate(x: np.ndarray, e: int) -> bool:
    """Whether every nonzero |x| lies in [2^-e, 2^e] (NaN does not)."""
    a = np.abs(x[x != 0.0])
    return bool(np.all((a >= 2.0**-e) & (a <= 2.0**e)))


class Projector:
    """mu_theta(x) = M(pi_theta mu)(pi_theta x) for mu = arclength on E.

    One pushforward density per angle, built on first use and kept under the
    exact float theta, so every later evaluation at that angle reuses it.
    `mu_theta` returns the exact maximal values; `bounded` returns only
    whether they are at most a bound, and runs the exact kernel only on the
    rows that the density's largest value and its two-sided limits leave
    open.
    """

    def __init__(self, union: SegmentUnion):
        self.union = union
        self._densities: dict[float, PiecewiseConstDensity] = {}

    def density(self, theta: float) -> PiecewiseConstDensity:
        density = self._densities.get(theta)
        if density is None:
            density = self._densities[theta] = pushforward_density(self.union, theta)
        return density

    def mu_theta(self, theta: float, points) -> np.ndarray:
        """mu_theta at each row of the (n, 2) `points`."""
        ts = row_dot(points, direction_vector(theta))
        return maximal_values_batch(self.density(theta), ts)

    def bounded(self, theta: float, points, bound: float) -> np.ndarray:
        """mu_theta(theta, points) <= bound, row by row, with the same booleans.

        Upper bound: a density without atoms has window averages of at most
        top = max(values), so every row holds when top (1 + (P + 4) 2^-52)
        <= bound, P the piece count. Lower bound: maximal_values_batch returns
        the maximum of its window ratios and small_window_limit(t), so a row
        whose limit exceeds `bound` fails. The remaining rows run the kernel,
        which treats each row on its own, so they read its values exactly.

        Why the kernel's value is at most that threshold, with u = 2^-53:
        for a radius r, piece p overlaps the window in (max(s_p, -r),
        min(s_{p+1}, r)), s the float edges b - t, which rounding keeps in
        order; these are disjoint pieces of [-r, r], so their lengths sum to
        at most 2r and the exact sum of v_p times them to at most 2r top. The
        kernel rounds each overlap, each product and each of its P additions
        once, and divides by the exact 2r once: at most P + 3 factors (1 + u),
        and (1 + u)^(P + 3) < 1 + (P + 4) u for P < 2^26. The limit term is
        at most top. The threshold is top (1 + 2 (P + 4) u) before its own two
        roundings, which take less than the spare (P + 4) u. Every nonzero |t| and |b| within [2^-500, 2^500] and
        value within [2^-400, 2^400] keep each nonzero overlap (a multiple of
        2^-604) and product a normal float, and a quotient that underflows is
        off by at most 2^-1075, far below top u; outside that range, or with
        atoms, every row the limit leaves open runs the kernel. A zero
        measure raises, with or without points.
        """
        density = self.density(theta)
        if density.total_mass <= 0.0:
            raise ValueError("maximal function of the zero measure")
        ts = row_dot(points, direction_vector(theta))
        values = density.values
        if (not density.atoms and len(values) < 2**26 and _moderate(ts, 500)
                and _moderate(density.breakpoints, 500) and _moderate(values, 400)
                and values.max() * (1.0 + (len(values) + 4) * 2.0**-52) <= bound):
            return np.ones(len(ts), dtype=bool)
        out = density.small_window_limit(ts) <= bound
        rows = np.flatnonzero(out)
        if len(rows):
            out[rows] = maximal_values_batch(density, ts[rows]) <= bound
        return out
