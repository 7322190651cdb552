"""Test-side reference implementations and paper constructions.

Nothing here runs in a command. Three kinds of definitions live here:

- slow references that the fast paths of the package are checked against
  (the one-segment-at-a-time forms of atoms, ball masses, skeletons,
  pushforward densities, the parallel split, the Favard sweep and the
  Monte Carlo needle test; the Ahlfors constant one ball at a time; the
  warm-started argsort sweep, the union-find piece table and the set-based
  skeleton; exact interval-union projections, the scalar maximal function,
  annulus masks, single apex cone masses, energies and bad scales,
  selection with one family per atom, the scalar d_J metric, base-cell grids, the
  per-carrier descend loop, one-step descents, the quadrature form of the
  conical energy, the Hausdorff content of a model, the constant-core stages
  of the no-shattering tree, the per-atom stages and the per-piece
  shattering cascade, the per-atom test of the tree's bad cubes, the
  one-node-at-a-time sandwich, budget and bad-chain checks, and the
  interval-by-interval search for the pipeline's root interval);
- small accessors that only the tests read: a segment's direction, a
  triadic interval's angle membership, a density's centered window mass,
  an energy profile's exact masses and total and its float masses, and a
  root's stop family;
- the bounded-projection step, checked against its weak-(1,1) bookkeeping;
- two constructions of the paper that feed no stage of the pipeline: the
  Whitney decomposition (acceptance criterion 7) and the gap interval with
  its synthetic instance (acceptance criterion 9);
- `tile_pairs`, which shrinks the pair blocks of the kernels and records the
  blocks they build, for the tiling tests.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from favard import torus
from favard.config import ExperimentConfig
from favard.conical import (SAMPLES_PER_INTERVAL, EnergyProfile, SelectionResult,
                            _interval_key, annulus_scales, bad_scale_counts, conical_energy,
                            scale_ceiling, scale_index)
from favard.fixtures import FIXTURE_A, FIXTURE_M
from favard.lattice import AnisoCube, cell_order, descend_all, side_exponent
from favard.projection import (MC_CHUNK, PERP_CUTOFF, PiecewiseConstDensity, Projector,
                               projection_measures)
from favard.sets import (DiscreteMeasure, DyadicSquareSet, Segment, SegmentUnion,
                         bounding_circle, cloud_content, cloud_of)
from favard.torus import (TOL, AngleInterval, DirectionInterval, TriadicInterval,
                          _direction_mask, _metric_coords, d_metric_many, direction_vector,
                          line_angle, perp, row_blocks, row_dot, triadic_cover, wrap)
from favard.tree import (C_BAD, DirectionTree, GoodStages, StoppedPiece, TreeNode, _clip_to,
                         _maximal_cover, _merge_angle_intervals, _owns_core_interval,
                         _sees_core_direction, _stage_constants, good_at_scale_all,
                         maximal_intervals)


# ---------------------------------------------------------------------------
# accessors only the tests read
# ---------------------------------------------------------------------------


def _as_intervals(directions) -> tuple[DirectionInterval, ...]:
    """A direction set of the oracles: one arc, or a sequence of arcs."""
    if isinstance(directions, (AngleInterval, TriadicInterval)):
        return (directions,)
    return tuple(directions)


def direction_angle(segment: Segment) -> float:
    """Direction of a segment's carrying line, in [0, 1/2)."""
    return line_angle((segment.b[0] - segment.a[0], segment.b[1] - segment.a[1]))


def contains_angle(interval: TriadicInterval, theta: float) -> bool:
    """Half-open membership theta in [low, high)."""
    t = wrap(theta)
    return interval.low <= t < interval.high


def dense_mass_centered(density: PiecewiseConstDensity, t: float, r: float) -> float:
    """Density mass of (t - r, t + r), computed in t-centered coordinates.

    Shifting the breakpoints by t before clipping avoids the cancellation
    of (t + r) - (t - r); a window strictly inside one piece contributes
    exactly value * 2r.
    """
    if r <= 0.0 or not len(density.values):
        return 0.0
    shifted = density.breakpoints - t
    lo = np.maximum(shifted[:-1], -r)
    hi = np.minimum(shifted[1:], r)
    overlap = np.clip(hi - lo, 0.0, None)
    return float(overlap @ density.values)


def profile_masses(profile: EnergyProfile) -> list[Fraction]:
    """An energy profile's exact per-scale masses."""
    return [Fraction(n, profile.denominator) for n in profile.numerators]


def profile_total(profile: EnergyProfile) -> Fraction:
    """An energy profile's exact total."""
    return Fraction(sum(profile.numerators), profile.denominator)


def masses_float(profile: EnergyProfile) -> list[float]:
    return [float(m) for m in profile_masses(profile)]


def stop_of(tree: DirectionTree, root_id: int) -> list[StoppedPiece]:
    """The stop family of a root: Sh/End pieces hanging off its subtree."""
    members = {nid for nid, node in tree.nodes.items() if node.root_id == root_id}
    return [s for s in tree.stopped if s.parent_node in members]

# ---------------------------------------------------------------------------
# torus: cones and the d_J metric
# ---------------------------------------------------------------------------


def tile_pairs(monkeypatch, tile: int, *modules) -> list[int]:
    """Set torus.PAIR_TILE to `tile` and have each of `modules` build its pair
    blocks through a recorder; returns the block count of every row_blocks
    call those modules make, in call order."""
    counts: list[int] = []

    def recorded(rows: int, width: int) -> list[slice]:
        blocks = row_blocks(rows, width)
        counts.append(len(blocks))
        return blocks

    monkeypatch.setattr(torus, "PAIR_TILE", tile)
    for module in modules:
        monkeypatch.setattr(module, "row_blocks", recorded)
    return counts


@dataclass(frozen=True)
class ConeSpec:
    """A (possibly truncated) two-sided cone X(x, I, r, R).

    `directions` is a single arc or a finite union of arcs; `inner`/`outer`
    are the truncation radii (outer may be inf). Membership of the apex
    follows the union-of-lines definition: it belongs to the untruncated cone
    and is excluded as soon as inner > 0.
    """

    apex: tuple[float, float]
    directions: tuple[DirectionInterval, ...]
    inner: float = 0.0
    outer: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "directions", _as_intervals(self.directions))
        if self.inner < 0.0 or self.outer <= self.inner:
            raise ValueError("need 0 <= inner < outer")

    def contains(self, y) -> bool:
        pts = np.asarray(y, dtype=float).reshape(1, 2)
        return bool(self.mask(pts)[0])

    def mask(self, pts: np.ndarray) -> np.ndarray:
        return cone_mask(np.asarray(self.apex, dtype=float), self.directions, pts,
                         self.inner, self.outer)


def cone_mask(apex: np.ndarray, directions, pts: np.ndarray,
              inner: float = 0.0, outer: float = math.inf) -> np.ndarray:
    """Vectorized membership of `pts` in X(apex, directions, inner, outer).

    Radial convention: |y - x| <= outer always; the inner truncation is the
    half-open |y - x| > inner when inner > 0 (annuli (rho^{k+1}, rho^k] tile),
    and no inner constraint when inner == 0 (the apex belongs to the cone).
    """
    pts = np.asarray(pts, dtype=float)
    diff = pts - apex
    dist = np.hypot(diff[:, 0], diff[:, 1])
    radial = dist <= outer + TOL if math.isfinite(outer) else np.ones(len(pts), dtype=bool)
    if inner > 0.0:
        radial &= dist > inner
    direction = np.zeros(len(pts), dtype=bool)
    for interval in _as_intervals(directions):
        direction |= _direction_mask(diff, interval, dist)
    return radial & direction


def in_cone(spec: ConeSpec, y) -> bool:
    """Membership test for a single-arc cone via the sine characterization.

    Rejects arcs of half-width > 1/4, where the characterization breaks. The
    closed radial convention inner <= |x-y| <= outer is used here (this is the
    pointwise predicate; the measure-side operations use half-open inner
    truncation so that annuli tile).
    """
    if len(spec.directions) != 1:
        raise ValueError("in_cone expects a single direction interval")
    interval = spec.directions[0]
    a = interval.half_width
    if a > 0.25 + TOL:
        raise ValueError(f"half-width {a} > 1/4: sine characterization unavailable")
    apex = np.asarray(spec.apex, dtype=float)
    d = float(np.hypot(y[0] - apex[0], y[1] - apex[1]))
    if d < spec.inner - TOL or d > spec.outer + TOL:
        return False
    e_perp = direction_vector(perp(interval.center))
    lhs = abs((y[0] - apex[0]) * e_perp[0] + (y[1] - apex[1]) * e_perp[1])
    return lhs <= math.sin(2.0 * math.pi * a) * d + TOL


def d_metric(interval: DirectionInterval, x, y) -> float:
    """The anisotropic metric d_I with perpendicular weight H(I)^-2.

    d_I(x, y) = (H(I)^-2 |pi_I_perp(x) - pi_I_perp(y)|^2
                 + |pi_I(x) - pi_I(y)|^2)^(1/2),
    where pi_I projects along the midpoint direction of I. Balls are tubes of
    dimensions H(I) r x r pointing along I. This is the one-row call of
    d_metric_many.
    """
    return float(d_metric_many(interval, x, np.reshape(y, (1, 2)))[0])


def to_metric_coords(interval: DirectionInterval, pts: np.ndarray) -> np.ndarray:
    """Coordinates in which d_I becomes the Euclidean distance.

    Maps p to (H(I)^-1 pi_I_perp(p), pi_I(p)); the inverse is the
    rotation-plus-scaling isometry (R^2, euclid) -> (R^2, d_I).
    """
    return np.column_stack(_metric_coords(direction_vector(interval.center), interval.length,
                                          np.asarray(pts, dtype=float)))


# ---------------------------------------------------------------------------
# projection: exact interval unions and the scalar maximal function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalUnion1D:
    """Sorted union of disjoint closed intervals on R.

    Adjacent intervals ([a,b], [b,c]) are merged; degenerate intervals [a,a]
    are kept (they carry no measure but witness point projections).
    """

    intervals: tuple[tuple[float, float], ...]

    @classmethod
    def from_pairs(cls, pairs) -> "IntervalUnion1D":
        pairs = [(float(l), float(r)) for l, r in pairs if r >= l]
        pairs.sort()
        merged: list[list[float]] = []
        for l, r in pairs:
            if merged and l <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], r)
            else:
                merged.append([l, r])
        return cls(tuple((l, r) for l, r in merged))

    @property
    def measure(self) -> float:
        return math.fsum(r - l for l, r in self.intervals)

    def contains(self, t: float) -> bool:
        lo = 0
        hi = len(self.intervals)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.intervals[mid][1] < t:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(self.intervals) and self.intervals[lo][0] <= t


def project(theta: float, p) -> float:
    """Orthogonal projection pi_theta(p) = p . e_theta."""
    return float(row_dot(p, direction_vector(theta)))


def pushforward_density_by_segment(union: SegmentUnion, theta: float) -> PiecewiseConstDensity:
    """pushforward_density, one segment and one piece at a time."""
    pieces = []
    atoms = []
    for s in union.segments:
        c = abs(math.cos(2.0 * math.pi * (theta - direction_angle(s))))
        pa, pb = project(theta, s.a), project(theta, s.b)
        lo, hi = min(pa, pb), max(pa, pb)
        if c < PERP_CUTOFF or hi - lo <= 0.0:
            atoms.append(((lo + hi) / 2.0, s.length))
        else:
            pieces.append((lo, hi, s.length / (hi - lo)))
    if not pieces:
        return PiecewiseConstDensity(np.zeros(1), np.zeros(0), tuple(atoms))
    cuts = np.array(sorted({p[0] for p in pieces} | {p[1] for p in pieces}))
    values = np.zeros(len(cuts) - 1)
    mids = (cuts[:-1] + cuts[1:]) / 2.0
    for lo, hi, v in pieces:
        values[(mids > lo) & (mids < hi)] += v
    return PiecewiseConstDensity(cuts, values, tuple(atoms))


def project_segments(union: SegmentUnion, theta: float) -> IntervalUnion1D:
    """Exact projection pi_theta(E) of a segment union, as an interval union."""
    e = direction_vector(theta)
    pairs = []
    for s in union.segments:
        pa = s.a[0] * e[0] + s.a[1] * e[1]
        pb = s.b[0] * e[0] + s.b[1] * e[1]
        pairs.append((min(pa, pb), max(pa, pb)))
    return IntervalUnion1D.from_pairs(pairs)


SEGMENT_SWEEP_BLOCK = 4096      # projected intervals per angle block of sweep_by_segment
SEGMENT_NEEDLE_BLOCK = 32_768   # needle-segment pairs per block of favard_mc_by_segment


def sweep_by_segment(coords: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The per-segment block sweep that the piece-table sweep replaced:
    measure of pi_theta(E) for each angle, from the (4, n) endpoint rows.

    With the projected intervals sorted by low end and runmax_i the running
    maximum of the high ends, the measure is
        (runmax_last - low_first) - sum_i max(0, low_{i+1} - runmax_i).
    A gap between tied lows is exactly 0, so each value depends only on the
    multiset of intervals, never on how ties are ordered. That lets each
    block start its stable (run-adaptive) sort from the previous angle's
    order: the sort stays exact and the values do not depend on block or
    shard boundaries.
    """
    n_seg = coords.shape[1]
    out = np.zeros(len(thetas))
    if n_seg == 0:
        return out
    ang = 2.0 * math.pi * thetas
    ex, ey = np.cos(ang)[:, None], np.sin(ang)[:, None]
    ax, ay, bx, by = coords
    block = max(1, SEGMENT_SWEEP_BLOCK // n_seg)
    order = np.arange(n_seg)
    for c in range(0, len(thetas), block):
        ex_b, ey_b = ex[c:c + block], ey[c:c + block]
        pa = ax * ex_b + ay * ey_b
        pb = bx * ex_b + by * ey_b
        lows = np.minimum(pa, pb)
        # sort each angle starting from the previous angle's order
        idx = np.argsort(np.take(lows, order, axis=1), axis=1, kind="stable")
        perm = order[idx]
        flat = perm + (n_seg * np.arange(len(perm)))[:, None]
        lows = np.take(lows, flat)
        run = np.maximum.accumulate(np.take(np.maximum(pa, pb), flat), axis=1)
        gaps = np.maximum(lows[:, 1:] - run[:, :-1], 0.0).sum(axis=1)
        out[c:c + block] = (run[:, -1] - lows[:, 0]) - gaps
        order = perm[-1]
    return out


ARGSORT_SWEEP_BLOCK = 32_768    # projected vertex slots per angle block of argsort_sweep


def argsort_sweep(xs: np.ndarray, ys: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The warm-started argsort sweep that the two-sort sweep replaced:
    measure of pi_theta(E) for each angle, from the (K, C) piece table.

    Each piece projects onto the interval from the lowest to the highest of
    its K projected vertex slots. With those intervals sorted by low end and
    runmax_i the running maximum of the high ends, the measure is
        (runmax_last - low_first) - sum_i max(0, low_{i+1} - runmax_i).
    A gap between tied lows is exactly 0, so each value depends only on the
    multiset of intervals, never on how ties are ordered. That lets each
    block start its stable (run-adaptive) sort from the previous angle's
    order: the sort stays exact and the values do not depend on block or
    shard boundaries.
    """
    n_pieces = xs.shape[1]
    out = np.zeros(len(thetas))
    if n_pieces == 0:
        return out
    ang = 2.0 * math.pi * thetas
    ex, ey = np.cos(ang)[:, None], np.sin(ang)[:, None]
    xs, ys = xs[:, None, :], ys[:, None, :]
    block = max(1, ARGSORT_SWEEP_BLOCK // xs.size)
    order = np.arange(n_pieces)
    for c in range(0, len(thetas), block):
        proj = xs * ex[c:c + block] + ys * ey[c:c + block]      # (K, angles, C)
        lows = proj.min(axis=0)
        # sort each angle starting from the previous angle's order
        idx = np.argsort(np.take(lows, order, axis=1), axis=1, kind="stable")
        perm = order[idx]
        flat = perm + (n_pieces * np.arange(len(perm)))[:, None]
        lows = np.take(lows, flat)
        run = np.maximum.accumulate(np.take(proj.max(axis=0), flat), axis=1)
        gaps = np.maximum(lows[:, 1:] - run[:, :-1], 0.0).sum(axis=1)
        out[c:c + block] = (run[:, -1] - lows[:, 0]) - gaps
        order = perm[-1]
    return out


def pieces_by_union_find(union: SegmentUnion) -> tuple[np.ndarray, np.ndarray]:
    """SegmentUnion.pieces with the Python union-find that the array
    labelling replaced: the (K, C) piece table xs, ys."""
    n = len(union)
    ends = union.endpoints()                      # a_0, b_0, a_1, b_1, ...
    # number the distinct points in order of their first endpoint; lexsort
    # is stable and, unlike np.unique, does not import numpy.ma
    by_point = np.lexsort((ends[:, 0], ends[:, 1]))
    starts = np.ones(2 * n, dtype=bool)
    starts[1:] = (ends[by_point[1:]] != ends[by_point[:-1]]).any(axis=1)
    first = np.zeros(2 * n, dtype=bool)
    first[by_point[starts]] = True
    number = np.cumsum(first) - 1
    vertex = np.empty(2 * n, dtype=np.int64)
    vertex[by_point] = number[by_point[starts]][np.cumsum(starts) - 1]

    # union-find that keeps the smaller number as the root, so each root
    # is its piece's first vertex
    parent = list(range(int(np.count_nonzero(first))))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for u, v in zip(vertex[0::2].tolist(), vertex[1::2].tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    root = np.array([find(v) for v in range(len(parent))], dtype=np.int64)
    sizes = np.bincount(root, minlength=len(parent))
    roots = np.flatnonzero(sizes)
    k, c = int(sizes.max(initial=0)), len(roots)
    if k * c > 2 * n:
        xs, ys = union.coords[0::2], union.coords[1::2]
    else:
        verts = ends[first]
        col = (np.cumsum(sizes > 0) - 1)[root]
        by_piece = np.argsort(col, kind="stable")
        col = col[by_piece]
        slot = np.arange(len(col)) - (np.cumsum(sizes[roots]) - sizes[roots])[col]
        xs, ys = np.empty((k, c)), np.empty((k, c))
        xs[:], ys[:] = verts[roots, 0], verts[roots, 1]
        xs[slot, col], ys[slot, col] = verts[by_piece, 0], verts[by_piece, 1]
    return xs, ys


def favard_mc_by_segment(union: SegmentUnion, needle_count: int,
                         rng_seed: int = 0) -> tuple[float, float]:
    """The per-segment needle test that the piece-table favard_mc replaced:
    needles drawn MC_CHUNK at a time and tested against every segment in
    blocks of about SEGMENT_NEEDLE_BLOCK needle-segment pairs."""
    if needle_count < 100:
        raise ValueError("needle_count must be >= 100")
    if not len(union):
        return 0.0, 0.0
    center, radius = bounding_circle(union.endpoints())
    ax, ay, bx, by = union.coords
    block = max(1, SEGMENT_NEEDLE_BLOCK // len(ax))
    rng = np.random.default_rng(rng_seed)
    hits = 0
    done = 0
    while done < needle_count:
        m = min(MC_CHUNK, needle_count - done)
        thetas = rng.random(m)
        offsets = (2.0 * rng.random(m) - 1.0) * radius
        ang = 2.0 * math.pi * thetas
        ex, ey = np.cos(ang)[:, None], np.sin(ang)[:, None]
        t = center[0] * ex + center[1] * ey + offsets[:, None]
        for c in range(0, m, block):
            ex_b, ey_b, t_b = ex[c:c + block], ey[c:c + block], t[c:c + block]
            pa = ax * ex_b + ay * ey_b
            pb = bx * ex_b + by * ey_b
            inside = (t_b >= np.minimum(pa, pb)) & (t_b <= np.maximum(pa, pb))
            hits += int(np.count_nonzero(inside.any(axis=1)))
        done += m
    window = 2.0 * radius
    p = hits / needle_count
    estimate = window * p
    stderr = window * math.sqrt(max(p * (1.0 - p), 0.0) / needle_count)
    return estimate, stderr


def maximal_value(density: PiecewiseConstDensity, t: float) -> float:
    """Exact centered Hardy-Littlewood maximal value sup_r nu((t-r, t+r)) / 2r.

    The window mass g(r) is piecewise linear in r with breakpoints where
    t +- r meets a density breakpoint or an atom, so g(r)/2r is monotone
    between consecutive breakpoints; the supremum is attained at a breakpoint
    (from the left or the right) or in the r -> 0+ limit. Returns inf when an
    atom sits exactly at t.
    """
    if density.total_mass <= 0.0:
        raise ValueError("maximal function of the zero measure")
    for p, m in density.atoms:
        if p == t:
            return math.inf

    candidates = set()
    for p in density.breakpoints.tolist():
        r = abs(p - t)
        if r > 0.0:
            candidates.add(r)
    for p, _ in density.atoms:
        candidates.add(abs(p - t))

    best = density.small_window_limit(t)
    for r in sorted(candidates):
        # atoms are resolved by |p - t| vs r, never via the float endpoints
        # t +- r (which may overshoot an atom position by an ulp)
        dense = dense_mass_centered(density, t, r)
        inner = math.fsum(m for p, m in density.atoms if abs(p - t) < r)
        boundary = math.fsum(m for p, m in density.atoms if abs(p - t) == r)
        best = max(best, (dense + inner) / (2.0 * r))
        if boundary > 0.0:
            best = max(best, (dense + inner + boundary) / (2.0 * r))
    return best


# ---------------------------------------------------------------------------
# sets: one segment at a time, and the Hausdorff content of a model
# ---------------------------------------------------------------------------


def atoms_by_segment(union: SegmentUnion, pitch: float) -> DiscreteMeasure:
    """SegmentUnion.atoms, one segment and one piece at a time."""
    pts, wts = [], []
    for s in union.segments:
        n = max(1, math.ceil(s.length / pitch))
        w = s.length / n
        for i in range(n):
            t = (i + 0.5) / n
            pts.append((s.a[0] + t * (s.b[0] - s.a[0]), s.a[1] + t * (s.b[1] - s.a[1])))
            wts.append(w)
    return DiscreteMeasure(np.array(pts).reshape(-1, 2), np.array(wts))


def ball_intersection_length(s: Segment, center, r: float) -> float:
    """Exact arclength of the segment inside the closed disk B(center, r)."""
    ax, ay = s.a
    vx, vy = s.b[0] - ax, s.b[1] - ay
    ln = s.length
    ux, uy = vx / ln, vy / ln
    # parameter (in arclength) of the foot of the perpendicular
    t0 = (center[0] - ax) * ux + (center[1] - ay) * uy
    dist2 = (center[0] - ax) ** 2 + (center[1] - ay) ** 2 - t0 * t0
    half2 = r * r - dist2
    if half2 <= 0.0:
        return 0.0
    half = math.sqrt(half2)
    lo, hi = max(0.0, t0 - half), min(ln, t0 + half)
    return max(0.0, hi - lo)


def ball_mass_by_segment(union: SegmentUnion, center, r: float) -> float:
    """One row of SegmentUnion.ball_masses, one segment at a time."""
    return math.fsum(ball_intersection_length(s, center, r) for s in union.segments)


def ahlfors_constant_by_ball(union: SegmentUnion, sample_count: int, seed: int) -> float:
    """ahlfors_constant with the same samples and one ball_mass_by_segment
    call per ball."""
    rng = np.random.default_rng(seed)
    u1, u2, u3 = rng.random((sample_count, 3)).T
    cum = np.cumsum(union.lengths) / union.lengths.sum()
    k = np.minimum(np.searchsorted(cum, u1, side="right"), len(union) - 1)
    x1, y1, x2, y2 = union.coords[:, k]
    centers = np.column_stack([x1 + u2 * (x2 - x1), y1 + u2 * (y2 - y1)])
    radii = np.maximum(1e-9, u3) * union.diameter()
    ratios = [1.0]
    for x, r in zip(centers, radii.tolist()):
        mass = ball_mass_by_segment(union, x, r)
        if mass > 0.0:
            ratios += [mass / r, r / mass]
    return max(ratios)


def skeleton_by_edge(squares: DyadicSquareSet) -> SegmentUnion:
    """DyadicSquareSet.skeleton, one cell and one edge at a time."""
    s = squares.side
    edges: set[tuple[int, int, int]] = set()
    for i, j in squares.cells:
        edges.add((i, j, 0))      # bottom horizontal
        edges.add((i, j + 1, 0))  # top horizontal
        edges.add((i, j, 1))      # left vertical
        edges.add((i + 1, j, 1))  # right vertical
    segs = []
    for i, j, kind in sorted(edges):
        if kind == 0:
            segs.append(Segment((i * s, j * s), ((i + 1) * s, j * s)))
        else:
            segs.append(Segment((i * s, j * s), (i * s, (j + 1) * s)))
    return SegmentUnion(segs)


def skeleton_by_edge_set(squares: DyadicSquareSet) -> SegmentUnion:
    """DyadicSquareSet.skeleton from a sorted Python set of edge tuples, the
    form that the array lexsort replaced."""
    # (i, j, kind): the edge from corner (i, j) rightwards (0) or upwards (1)
    edges = sorted({edge for i, j in squares.cells      # bottom, top, left, right
                    for edge in ((i, j, 0), (i, j + 1, 0), (i, j, 1), (i + 1, j, 1))})
    i, j, kind = np.array(edges).T
    s = squares.side
    return SegmentUnion.from_endpoints(np.column_stack([i * s, j * s]),
                                       np.column_stack([(i + 1 - kind) * s, (j + kind) * s]))


def split_parallel_by_segment(union: SegmentUnion) -> tuple[SegmentUnion, SegmentUnion]:
    """split_parallel, one segment at a time."""
    hor, ver = [], []
    for s in union.segments:
        if abs(s.a[1] - s.b[1]) <= TOL * max(1.0, s.length):
            hor.append(s)
        elif abs(s.a[0] - s.b[0]) <= TOL * max(1.0, s.length):
            ver.append(s)
        else:
            raise ValueError(f"oblique segment {s.a} -> {s.b} in split_parallel")
    return SegmentUnion(hor), SegmentUnion(ver)


def hausdorff_content(model, min_radius: float = 0.0) -> float:
    """Greedy upper estimate of the Hausdorff content H_inf (sum of ball radii).

    Covers a point-cloud surrogate of the set (cloud slack is added to the
    covering radii) with balls of radius >= min_radius chosen greedily by
    covered-mass per unit radius, from a geometric ladder of radii. The result
    is the cost of an actual cover, hence >= the true content, and is capped
    by the single enclosing ball, hence <= diam(set).
    """
    pts, wts, slack = cloud_of(model)
    return cloud_content(pts, wts, slack, min_radius)


# ---------------------------------------------------------------------------
# conical: cone masses, the energy integral and bad scales
# ---------------------------------------------------------------------------


def annulus_mask(mu: DiscreteMeasure, x, interval: DirectionInterval,
                 r: float, big_r: float) -> np.ndarray:
    """Atoms of mu in X(x, interval, r, R) with the half-open convention (r, R]."""
    apex = np.asarray(x, dtype=float)
    diff = mu.points - apex
    dist = np.hypot(diff[:, 0], diff[:, 1])
    if math.isfinite(big_r):
        radial = dist <= big_r
    else:
        radial = np.ones(len(dist), dtype=bool)
    if r > 0.0:
        radial &= dist > r
    return radial & _direction_mask(diff, interval, dist)


def cone_mass_exact(mu: DiscreteMeasure, x, directions, r: float, big_r: float) -> Fraction:
    """mu(X(x, G, r, R)) as an exact rational.

    G is a single arc or a disjoint union of arcs; the mass is computed per
    arc (in canonical arc order) and summed in rational arithmetic, so it is
    exactly additive over disjoint direction sets.
    """
    if r < 0.0 or big_r <= r:
        raise ValueError("need 0 <= r < R")
    total = Fraction(0)
    for interval in sorted(_as_intervals(directions), key=_interval_key):
        mask = annulus_mask(mu, x, interval, r, big_r)
        for w in mu.weights[mask].tolist():
            total += Fraction(w)
    return total


def cone_mass(mu: DiscreteMeasure, x, directions, r: float, big_r: float) -> float:
    """Float view of cone_mass_exact."""
    return float(cone_mass_exact(mu, x, directions, r, big_r))


@dataclass
class RationalProfile:
    """The oracle's energy profile: per-scale masses summed as Fractions."""

    rho: float
    high: int
    masses: list[Fraction]

    @property
    def total(self) -> Fraction:
        return sum(self.masses, Fraction(0))

    @property
    def total_float(self) -> float:
        return float(self.total)


def conical_energy_at(mu: DiscreteMeasure, x, directions, rho: float = 0.5,
                      high: int = 30) -> RationalProfile:
    """The conical energy of one apex from its own distance row, arc by arc in
    canonical order: the oracle of the blocked conical_energy."""
    if not (0.0 < rho <= 0.5):
        raise ValueError("rho must lie in (0, 1/2]")
    intervals = sorted(_as_intervals(directions), key=_interval_key)
    apex = np.asarray(x, dtype=float)
    diff = mu.points - apex
    dist = np.hypot(diff[:, 0], diff[:, 1])
    scale = scale_index(dist, rho, high)
    ks: list[int] = []
    ws: list[float] = []
    for interval in intervals:
        sel = _direction_mask(diff, interval, dist) & (scale >= 0)
        ks += scale[sel].tolist()
        ws += mu.weights[sel].tolist()
    # the sums are exact, so the n atoms of one scale and one weight, over all
    # arcs, add n * w at once
    masses = [Fraction(0) for _ in range(high + 1)]
    r = Fraction(rho)
    for (k, w), n in Counter(zip(ks, ws)).items():
        masses[k] += Fraction(w) * n / r**k
    return RationalProfile(rho, high, masses)


def conical_energy_by_row(mu: DiscreteMeasure, apexes, direction_sets, rho: float = 0.5,
                          high: int = 30) -> list[RationalProfile]:
    """conical_energy's signature with one conical_energy_at call per row."""
    return [conical_energy_at(mu, x, directions, rho, high)
            for x, directions in zip(np.asarray(apexes, dtype=float).reshape(-1, 2),
                                     direction_sets)]


def energy_integral_quadrature(mu: DiscreteMeasure, x, directions, rho: float,
                               r_min: float, r_max: float, n: int = 400) -> float:
    """Independent quadrature oracle for int_{r_min}^{r_max} mu(X(x,G,rho r,r))/r dr/r.

    Midpoint rule in log r with plain float annulus masses; used to check the
    two-sided comparison with the dyadic sums, never as the primary energy.
    """
    if not (0.0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    apex = np.asarray(x, dtype=float)
    diff = mu.points - apex
    dist = np.hypot(diff[:, 0], diff[:, 1])
    dmask = np.zeros(len(dist), dtype=bool)
    for interval in _as_intervals(directions):
        dmask |= _direction_mask(diff, interval, dist)
    d_in = dist[dmask]
    w_in = mu.weights[dmask]
    logs = np.linspace(math.log(r_min), math.log(r_max), n + 1)
    mids = (logs[:-1] + logs[1:]) / 2.0
    h = logs[1] - logs[0]
    vals = []
    for lr in mids:
        r = math.exp(lr)
        mass = float(w_in[(d_in > rho * r) & (d_in <= r)].sum())
        vals.append(mass / r)
    return math.fsum(vals) * h


@dataclass(frozen=True)
class BadScaleSet:
    """Scales k in [0, high] whose annulus cone meets the (restricted) set."""

    scales: frozenset[int]
    high: int

    def __len__(self) -> int:
        return len(self.scales)

    def __contains__(self, k: int) -> bool:
        return k in self.scales


def bad_scales(pts: np.ndarray, x, direction: DirectionInterval, rho: float = 0.5,
               high: int = 30, restrict: Optional[np.ndarray] = None) -> BadScaleSet:
    """Bad scales of x for the direction interval: k with X(x, J, rho^{k+1}, rho^k)
    meeting the atoms `pts` (or the subset selected by the boolean `restrict`).
    """
    if restrict is not None:
        pts = pts[restrict]
    scale = annulus_scales(pts, x, direction, rho, high)[0]
    return BadScaleSet(frozenset(np.unique(scale[scale >= 0]).tolist()), high)


# ---------------------------------------------------------------------------
# conical: selection one atom at a time
# ---------------------------------------------------------------------------


def selection_by_atom(union: SegmentUnion, arc: AngleInterval, kappa: float,
                      m_bound: float, *, triadic_depth: int, rho: float,
                      pitch: Optional[float]) -> SelectionResult:
    """select_good_directions with a family built for every atom and the
    Fourier sums gathered per (family member, node) across the atoms that
    carry the member: the oracle of the per-pattern path."""
    total_len = arc.length
    mu = union.atoms(pitch)
    total_mass = mu.total_mass
    n = max(2, round(SAMPLES_PER_INTERVAL * 3**triadic_depth * total_len))
    thetas = [wrap(arc.low + (i + 0.5) * total_len / n) for i in range(n)]
    weight = total_len / n
    projector = Projector(union)
    for theta, measure in zip(thetas, projection_measures(union, thetas).tolist()):
        if measure <= kappa * total_mass + TOL:
            raise ValueError(f"big projection hypothesis fails at theta={theta}")
    good = np.array([projector.bounded(theta, mu.points, m_bound + TOL) for theta in thetas])
    good_len = good.sum(axis=0) * weight
    eprime = good_len >= (kappa / 4.0) * total_len - TOL
    eprime_mass = math.fsum(mu.weights[eprime].tolist())

    covers = [triadic_cover(theta, triadic_depth) for theta in thetas]
    families: dict[int, list[tuple[TriadicInterval, float]]] = {}
    for i in np.nonzero(eprime)[0]:
        chosen: dict[TriadicInterval, float] = {}
        for j in np.nonzero(good[:, i])[0]:
            chosen.setdefault(covers[j], thetas[j])
        families[int(i)] = sorted(chosen.items())
    min_len = min((math.fsum(iv.length for iv, _ in fam) for fam in families.values()),
                  default=0.0)

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


# ---------------------------------------------------------------------------
# conical: the bounded-projection step
# ---------------------------------------------------------------------------


@dataclass
class BoundedProjectionReport:
    theta: float
    m_bound: float
    projection_measure: float
    total_mass: float
    selected_mass: float
    weak_type_hypothesis: bool      # M >= C_WEAK * H(E) / H(pi_theta(E))
    half_measure_conclusion: bool   # selected mass >= projection measure / 2


C_WEAK = 6.0    # weak-(1,1) threshold constant of the bounded-projection step


def select_bounded_projection_set(union: SegmentUnion, theta: float, m_bound: float,
                                  ) -> tuple[DiscreteMeasure, np.ndarray, BoundedProjectionReport]:
    """Atoms x of E with mu_theta(x) <= M, plus the weak-(1,1) bookkeeping.

    Raises when the projection has zero measure. When the weak-type threshold
    M >= C_WEAK * H(E)/H(pi_theta(E)) holds, the report records whether the
    selected mass reaches half the projection measure.
    """
    if m_bound <= 0.0:
        raise ValueError("M must be positive")
    measure = float(projection_measures(union, [theta])[0])
    if measure <= 0.0:
        raise ValueError(f"projection at theta={theta} has zero measure")
    mu = union.atoms()
    keep = Projector(union).mu_theta(theta, mu.points) <= m_bound + TOL
    total = mu.total_mass
    selected = math.fsum(mu.weights[keep].tolist())
    hyp = m_bound >= C_WEAK * total / measure
    rep = BoundedProjectionReport(theta, m_bound, measure, total, selected,
                                  hyp, selected >= measure / 2.0 - TOL)
    return DiscreteMeasure(mu.points[keep], mu.weights[keep]), keep, rep


# ---------------------------------------------------------------------------
# lattice: base-cell grids, the per-carrier descend loop and one-step descents
# ---------------------------------------------------------------------------


def base_cells(points: np.ndarray, interval: Optional[DirectionInterval], m: int,
               rho: float = 0.5) -> dict[tuple[int, int], np.ndarray]:
    """Partition point indices into half-open grid cells of side rho^m.

    With a reference interval the grid lives in the mapped coordinates of the
    d_I isometry (so cells are d_I-cubes); with interval=None it is the plain
    Euclidean grid. The grid origin is 0, so levels nest exactly for rho=1/2.
    """
    pts = np.asarray(points, dtype=float)
    coords = to_metric_coords(interval, pts) if interval is not None else pts
    side = rho**m
    keys = np.floor(coords / side).astype(np.int64)
    cells: dict[tuple[int, int], list[int]] = {}
    for idx, (i, j) in enumerate(map(tuple, keys)):
        cells.setdefault((int(i), int(j)), []).append(idx)
    return {k: np.array(v, dtype=np.int64) for k, v in sorted(cells.items())}


class BaseLattice:
    """Nested levels of half-open grid cells over a fixed atom cloud.

    Cells live in the mapped coordinates of the reference interval (or the
    plain plane when the interval is None); every level partitions the cloud
    and levels nest. Each nonempty cell designates the member atom nearest its
    geometric center.
    """

    def __init__(self, points: np.ndarray, interval: Optional[DirectionInterval],
                 levels: Sequence[int], rho: float = 0.5):
        self.points = np.asarray(points, dtype=float)
        self.interval = interval
        self.rho = rho
        self.levels = {int(m): base_cells(self.points, interval, int(m), rho)
                       for m in levels}
        self._coords = to_metric_coords(interval, self.points) \
            if interval is not None else self.points

    def cells(self, m: int) -> dict[tuple[int, int], np.ndarray]:
        return self.levels[m]

    def center_atom(self, m: int, key: tuple[int, int]) -> int:
        idx = self.levels[m][key]
        side = np.full(len(idx), self.rho**m)
        return int(idx[cell_order(idx, self._coords[idx], side, np.zeros_like(idx))[0][0]])

    def verify(self) -> dict:
        """Partition of the cloud at every level, and exact nesting."""
        n = len(self.points)
        partition = all(
            sorted(int(i) for idx in cells.values() for i in idx) == list(range(n))
            for cells in self.levels.values())
        nesting = True
        ms = sorted(self.levels)
        for coarse, fine in zip(ms, ms[1:]):
            owner = {}
            for key, idx in self.levels[coarse].items():
                for i in idx:
                    owner[int(i)] = key
            for key, idx in self.levels[fine].items():
                if len({owner[int(i)] for i in idx}) != 1:
                    nesting = False
        return {"partition": partition, "nesting": nesting}


def descend_one(points: np.ndarray, member_idx: np.ndarray, interval: DirectionInterval,
                gen: int, rho: float = 0.5) -> list[AnisoCube]:
    """The cubes of one carrier: `descend_all` of the single job."""
    return descend_all([(points, member_idx, interval, gen)], rho)[0]


def loop_descend(points: np.ndarray, member_idx: np.ndarray, interval: DirectionInterval,
                 gen: int, rho: float) -> list[AnisoCube]:
    """The cubes of one carrier with one d_J row per net point against all
    of its cell centers: the per-carrier loop the batched rounds of
    `descend_all` are checked against."""
    member_idx = np.asarray(member_idx, dtype=np.int64)
    if len(member_idx) == 0:
        raise ValueError("a descent job has an empty carrier")
    if gen < 0:
        raise ValueError("gen must be >= 0")
    m = side_exponent(interval.length, gen, rho)
    pts = np.asarray(points, dtype=float)
    n = len(member_idx)
    order, first = cell_order(member_idx, pts[member_idx], np.full(n, rho**m),
                              np.zeros(n, dtype=np.int64))
    atoms = member_idx[order]
    cell = np.cumsum(first) - 1
    centers = atoms[first]
    c = pts[centers]

    sep = 3.0 * rho**gen
    very_close = rho**gen
    free = np.ones(len(c), dtype=bool)
    close = np.full(len(c), -1)
    near = np.full(len(c), -1)
    net: list[int] = []
    for t in np.lexsort((c[:, 1], c[:, 0])):
        if not free[t]:
            continue
        d = d_metric_many(interval, c[t], c)
        free &= d > sep
        close[(close < 0) & (d <= very_close + TOL)] = len(net)
        near[(near < 0) & (d <= sep + TOL)] = len(net)
        net.append(int(centers[t]))
    owner = np.where(close >= 0, close, near)
    if np.any(owner < 0):
        raise AssertionError("net maximality violated: no pretty-close net point")

    atom_owner = owner[cell]
    grouped = atoms[np.lexsort((atoms, atom_owner))]
    sizes = np.bincount(atom_owner, minlength=len(net)).tolist()
    ends = np.cumsum(sizes).tolist()
    return [AnisoCube(grouped[end - size:end], net[i], gen, interval, rho)
            for i, (size, end) in enumerate(zip(sizes, ends)) if size]


def shatter(points: np.ndarray, cube: AnisoCube, j_child: DirectionInterval) -> list[AnisoCube]:
    """Re-partition a cube at its own generation, adapted to a narrower interval."""
    return descend_one(points, cube.atom_idx, j_child, cube.level, cube.rho)


def children(points: np.ndarray, cube: AnisoCube) -> list[AnisoCube]:
    """Descend one generation with the same direction interval."""
    return descend_one(points, cube.atom_idx, cube.interval, cube.level + 1, cube.rho)


# ---------------------------------------------------------------------------
# Whitney decompositions of open subsets of R
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicInterval1D:
    """[index 2^exp, (index+1) 2^exp) on R; exp may be negative."""

    exp: int
    index: int

    @property
    def low(self) -> float:
        return self.index * 2.0**self.exp

    @property
    def high(self) -> float:
        return (self.index + 1) * 2.0**self.exp

    @property
    def length(self) -> float:
        return 2.0**self.exp

    def parent(self) -> "DyadicInterval1D":
        return DyadicInterval1D(self.exp + 1, self.index // 2)

    def children(self) -> tuple["DyadicInterval1D", "DyadicInterval1D"]:
        return (DyadicInterval1D(self.exp - 1, 2 * self.index),
                DyadicInterval1D(self.exp - 1, 2 * self.index + 1))

    def triple(self) -> tuple[float, float]:
        """The concentric triple 3I as (low, high)."""
        L = self.length
        return (self.low - L, self.high + L)


@dataclass
class WhitneyDecomposition:
    """Maximal dyadic intervals I with 3I inside the open set U.

    A finite list cannot partition an open set exactly: Whitney intervals
    accumulate at the boundary (and grow without bound inside rays), so the
    list is truncated at `min_exp`/`max_exp`; `complete` records whether every
    boundary gap at the truncation scale is empty. The recorded intervals
    satisfy 3I subset U and 3(parent of I) not subset U exactly.
    """

    components: tuple[tuple[float, float], ...]
    intervals: list[DyadicInterval1D]
    min_exp: int
    max_exp: int
    complete: bool

    def covered_measure(self) -> float:
        return math.fsum(iv.length for iv in self.intervals)

    def total_measure(self) -> float:
        return math.fsum(b - a for a, b in self.components if math.isfinite(b - a))

    def locate(self, lo: float, hi: float) -> Optional[DyadicInterval1D]:
        """A Whitney interval containing the midpoint of [lo, hi], if recorded."""
        mid = (lo + hi) / 2.0
        for iv in self.intervals:
            if iv.low <= mid < iv.high:
                return iv
        return None


def whitney(open_set: Sequence[tuple[float, float]], min_exp: int = -40,
            max_exp: int = 40) -> WhitneyDecomposition:
    """Whitney decomposition of a finite union of open intervals U != R.

    Components may be unbounded rays (use +-inf); intervals of length outside
    [2^min_exp, 2^max_exp] are not enumerated.
    """
    comps = []
    for a, b in open_set:
        if not (a < b):
            raise ValueError(f"empty or inverted component ({a}, {b})")
        comps.append((float(a), float(b)))
    comps.sort()
    for (a1, b1), (a2, b2) in zip(comps, comps[1:]):
        if a2 < b1:
            raise ValueError("components must be disjoint")
    if comps and comps[0][0] == -math.inf and comps[-1][1] == math.inf and len(comps) == 1:
        raise ValueError("U = R has no Whitney decomposition")

    out: set[DyadicInterval1D] = set()
    complete = True

    def triple_fits(iv: DyadicInterval1D, a: float, b: float) -> bool:
        t_lo, t_hi = iv.triple()
        return a < t_lo and t_hi <= b

    for a, b in comps:
        if math.isfinite(a) and math.isfinite(b):
            top = min(max_exp, math.ceil(math.log2(b - a)) + 1)
        else:
            top = max_exp
            complete = False  # rays cannot be covered by finitely many intervals
        lo_anchor = a if math.isfinite(a) else b - 2.0**top * 4
        hi_anchor = b if math.isfinite(b) else a + 2.0**top * 4
        i0 = math.floor(lo_anchor / 2.0**top) - 1
        i1 = math.floor(hi_anchor / 2.0**top) + 1
        stack = [DyadicInterval1D(top, i) for i in range(i0, i1 + 1)]
        while stack:
            iv = stack.pop()
            if iv.high <= a or iv.low >= b:
                continue
            if triple_fits(iv, a, b):
                # ascend to the maximal dyadic ancestor whose triple fits
                guard = 0
                while triple_fits(iv.parent(), a, b) and guard < 80:
                    iv = iv.parent()
                    guard += 1
                out.add(iv)
                continue
            if iv.exp - 1 < min_exp:
                complete = False
                continue
            stack.extend(iv.children())

    ordered = sorted(out, key=lambda iv: (iv.low, iv.exp))
    return WhitneyDecomposition(tuple(comps), ordered, min_exp, max_exp, complete)


# ---------------------------------------------------------------------------
# tree: stages whose core is the whole root interval, per-node checks
# ---------------------------------------------------------------------------


def synthetic_stages_constant_core(atoms: DiscreteMeasure, root_iv: TriadicInterval,
                                   params: Optional[ExperimentConfig] = None) -> GoodStages:
    """Stages whose core family is the whole root interval for every atom:
    the no-shattering reference instance, at `params` (default config)."""
    params = params or ExperimentConfig()
    n = len(atoms)
    all_mask = np.ones(n, dtype=bool)
    eps, units = _stage_constants(root_iv, FIXTURE_A, FIXTURE_M, params)
    return GoodStages(
        atoms=atoms, root_iv=root_iv, m_bound=FIXTURE_M, eps=eps, params=params, units=units,
        eprime=all_mask.copy(), families={i: [root_iv] for i in range(n)},
        energy_threshold=1.0, controlled=all_mask,
        cover={i: [root_iv] for i in range(n)}, filtered={i: [root_iv] for i in range(n)},
        core={i: [root_iv] for i in range(n)},
        full_cover=all_mask.copy(),
        scale_budget=FIXTURE_A * FIXTURE_M, checks={"synthetic": True},
    )


def bad_cubes_by_atom(tree: DirectionTree) -> list[int]:
    """Ids of the nodes Q of generation g with a member whose annulus mask
    X(x, 15 J_Q, rho^{g+1}, rho^g) is not empty, one member at a time: the
    oracle of DirectionTree.bad_ids' grouped counts."""
    mu = tree.stages.atoms
    rho = tree.stages.params.rho
    bad = []
    for nid, node in tree.nodes.items():
        wide = node.interval.dilate(15.0)
        g = node.generation
        if any(annulus_mask(mu, mu.points[i], wide, rho ** (g + 1), rho**g).any()
               for i in node.cube.atom_idx):
            bad.append(nid)
    return bad


def sandwich_halves_by_node(tree: DirectionTree) -> dict:
    """verify_tree's sandwich check one node at a time: "inner" when every
    node Q of generation g holds each atom of the Euclidean ball of radius
    H(J_Q) rho^(g+3) about its center, "outer" when each member lies in the
    d_J ball of radius 4 rho^g about it. The oracle of its blocked check,
    whose flag is the conjunction of the two halves."""
    units = tree.stages.units
    pts = tree.stages.atoms.points
    rho = tree.stages.params.rho
    inner_ok = outer_ok = True
    for node in tree.nodes.values():
        center = pts[node.cube.center_idx]
        h_j = units.to_float(units.length(node.interval))
        r_in = h_j * rho ** (node.generation + 3)
        d_euc = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        members = set(node.cube.atom_idx.tolist())
        if not all(int(i) in members for i in np.nonzero(d_euc <= r_in - TOL)[0]):
            inner_ok = False
        d_out = d_metric_many(node.interval, center, pts[node.cube.atom_idx])
        if np.any(d_out > 4.0 * rho**node.generation + TOL):
            outer_ok = False
    return {"inner": inner_ok, "outer": outer_ok}


def bad_scale_budget_by_node(tree: DirectionTree) -> dict:
    """verify_tree's bad-scale budget check with one count per node: each
    member's bad scales in [0, g] for 0.8 J_Q against C_BAD * scale_budget.
    The oracle of its grouped counts."""
    stages = tree.stages
    pts = stages.atoms.points
    ok, worst = True, 0.0
    for node in tree.nodes.values():
        counts = bad_scale_counts(pts, pts[node.cube.atom_idx], node.interval.dilate(0.8),
                                  stages.params.rho, node.generation)
        for count in counts.tolist():
            worst = max(worst, count / stages.scale_budget)
            if count > C_BAD * stages.scale_budget + TOL:
                ok = False
    return {"bad_scale_budget": ok, "bad_scale_max_ratio": worst}


def bad_chain_by_node(tree: DirectionTree) -> dict:
    """bad_chain_check testing every bad cube of bad_cubes_by_atom for each
    controlled atom: the oracle of its atom-indexed lookup."""
    stages = tree.stages
    units = stages.units
    pts = stages.atoms.points
    bad_ids = bad_cubes_by_atom(tree)
    atom_sets = {nid: frozenset(tree.nodes[nid].cube.atom_idx.tolist()) for nid in bad_ids}
    worst = 0.0
    zero_violations = 0
    for i in np.nonzero(stages.controlled)[0].tolist():
        if not stages.core[i]:
            continue
        merged = _merge_angle_intervals([iv.dilate(15.0) for iv in stages.core[i]])
        lhs = conical_energy_at(stages.atoms, pts[i], merged, stages.params.rho,
                                len(tree.generations) - 1).total_float
        rhs = stages.m_bound * math.fsum(
            units.to_float(units.length(tree.nodes[nid].interval))
            for nid in bad_ids if i in atom_sets[nid])
        if rhs > 0.0:
            worst = max(worst, lhs / rhs)
        elif lhs > 1e-9:
            zero_violations += 1
    return {"max_constant": worst, "zero_rhs_violations": zero_violations}


# ---------------------------------------------------------------------------
# tree: the per-atom stages and the per-piece shattering cascade
# ---------------------------------------------------------------------------


def stages_by_atom(atoms: DiscreteMeasure, eprime: np.ndarray,
                      families: dict[int, list[TriadicInterval]], root_iv: TriadicInterval,
                      a_const: float, m_bound: float, params: ExperimentConfig) -> GoodStages:
    """build_good_stages one atom at a time: each atom validates and covers its
    own family, and every (atom, cover member) pair goes to the piece-energy
    call. The oracle of its once-per-family work.

    Prunes per-point families to the energy-controlled stage families.

    The controlled set keeps the points whose energy over the family union is
    at most twice the average (plus one); the cover family is the maximal
    triadic cover of the union at coverage 1 - eps; the filtered family drops
    cover members with oversized per-interval energy; the core family takes
    their middle children. Verified side conditions land in `checks`.
    """
    eps, units = _stage_constants(root_iv, a_const, m_bound, params)
    eprime = np.asarray(eprime, dtype=bool)
    emass = math.fsum(atoms.weights[eprime].tolist())
    if emass <= 0.0:
        raise ValueError("the selected set carries no mass")

    for i, ivs in families.items():
        for iv in ivs:
            if not root_iv.contains(iv):
                raise ValueError(f"family interval {iv} of atom {i} outside the root interval")
        if len(maximal_intervals(ivs)) != len(ivs):
            raise ValueError(f"family of atom {i} is not disjoint")

    high = scale_ceiling(atoms.points, params.rho)

    # an empty family has zero masses, so its energy is 0.0
    selected = np.nonzero(eprime)[0]
    energies = [prof.total_float for prof in conical_energy(
        atoms, atoms.points[selected],
        [families.get(int(i), []) for i in selected], params.rho, high)]

    weighted = math.fsum(e * w for e, w in zip(energies, atoms.weights[selected].tolist()))
    energy_threshold = weighted / emass + 1.0

    controlled = np.zeros(len(atoms), dtype=bool)
    controlled[selected] = np.array(energies) <= 2.0 * energy_threshold + TOL
    e0_mass = math.fsum(atoms.weights[controlled].tolist())
    chebyshev_ok = e0_mass >= emass / 2.0 - TOL

    members = {i: families[i] for i in np.nonzero(controlled)[0].tolist()}
    cover = {i: _maximal_cover(root_iv, ivs, units, eps) for i, ivs in members.items()}
    g0_len = {i: units.union_length(ivs) for i, ivs in cover.items()}
    g0_covers_ok = all(units.cover_length(root_iv, cover[i]) >= units.union_length(ivs)
                       for i, ivs in members.items())

    # the filtered family keeps the cover members whose energy over the
    # family pieces inside them is at most 4 (H(J) / H(G_0)) times the threshold
    pairs: list[tuple[int, TriadicInterval, list[TriadicInterval]]] = []
    for i, ivs in members.items():
        for iv in cover[i]:
            pieces = _clip_to(iv, ivs)
            if pieces:
                pairs.append((i, iv, pieces))
    piece_energies = conical_energy(atoms, atoms.points[[i for i, _, _ in pairs]],
                                    [pieces for _, _, pieces in pairs], params.rho, high)
    filtered: dict[int, list[TriadicInterval]] = {i: [] for i in members}
    for (i, iv, _), prof in zip(pairs, piece_energies):
        if prof.total_float <= 4.0 * (units.length(iv) / g0_len[i]) * energy_threshold + TOL:
            filtered[i].append(iv)

    core = {i: [iv.middle_child() for iv in kept] for i, kept in filtered.items()}
    g1_large_ok = all(sum(units.cover_length(iv, members[i]) for iv in kept)
                      >= units.union_length(members[i]) / 3.0 - 1e-9
                      for i, kept in filtered.items())
    interval_budget = max([m_bound] + [energy_threshold / units.to_float(g0_len[i])
                                       for i in members])

    full_cover = np.zeros(len(atoms), dtype=bool)
    for i in np.nonzero(controlled)[0]:
        full_cover[i] = cover[int(i)] == [root_iv]

    checks = {
        "chebyshev_e0": chebyshev_ok,
        "e0_mass_fraction": e0_mass / emass,
        "g1_large": g1_large_ok,
        "g0_covers": g0_covers_ok,
    }
    return GoodStages(atoms, root_iv, m_bound, eps, params, units, eprime, families,
                      energy_threshold, controlled, cover, filtered, core, full_cover,
                      a_const * interval_budget, checks)


def tree_by_piece(stages: GoodStages) -> DirectionTree:
    """build_tree placing each piece as it comes: a shattered piece's three
    child intervals descend in their own call and are placed recursively.
    The oracle of its depth-at-a-time cascade.

    Grows the direction tree of anisotropic cubes, with the stages' config.

    Generation 0 takes the cubes of the root-adapted partition that meet the
    controlled set. Each child piece is placed by one rule: a piece that sees
    no core direction ends; a child of a node joins the tree if it carries
    the near-full goodness integral, a shattered piece if it owns a core
    interval; any other piece shatters over the triadic children of its
    interval. Shattering deeper than the family depth indicates a
    construction bug and raises.
    """
    params = stages.params
    rho = params.rho
    pts = stages.atoms.points

    nodes: dict[int, TreeNode] = {}
    stopped: list[StoppedPiece] = []
    roots: list[int] = []
    generations: list[list[int]] = [[] for _ in range(params.k_max + 1)]

    def new_node(cube: AnisoCube, tag: str, parent: Optional[int]) -> None:
        nid = len(nodes)
        root_id = nid if tag in ("root0", "root") else nodes[parent].root_id
        nodes[nid] = TreeNode(cube, tag, parent, root_id)
        generations[cube.level].append(nid)
        if parent is not None:
            nodes[parent].children.append(nid)
        if tag in ("root0", "root"):
            roots.append(nid)

    for cube in descend_all([(pts, np.arange(len(pts)), stages.root_iv, 0)], rho)[0]:
        if np.any(stages.controlled[cube.atom_idx]):
            new_node(cube, "root0", None)

    depth_cap = params.triadic_depth + 2
    tree = DirectionTree(stages, nodes, generations, roots, stopped,
                         good_at_scale_all(stages, range(1, params.k_max + 1)))

    def place(piece: AnisoCube, parent: int, depth: int) -> None:
        interval = piece.interval
        if not _sees_core_direction(stages, piece.atom_idx, interval):
            stopped.append(StoppedPiece("end", piece, parent))
            return
        if depth == 0:
            lhs, rhs = tree.goodness_integral(piece.level, piece.atom_idx, interval)
            joins, tag = lhs >= rhs - 1e-12, "good"
        else:
            joins, tag = _owns_core_interval(stages, piece.atom_idx, interval), "root"
        if joins:
            new_node(piece, tag, parent)
            return
        if depth >= depth_cap:
            raise RuntimeError(
                f"shattering did not terminate by depth {depth} at generation "
                f"{piece.level}; interval {interval}, atoms {piece.atom_idx[:8]}")
        stopped.append(StoppedPiece("sh", piece, parent))
        # the shattered pieces keep the generation and take the child intervals
        jobs = [(pts, piece.atom_idx, j_child, piece.level) for j_child in interval.children()]
        for subs in descend_all(jobs, rho):
            for sub in subs:
                place(sub, parent, depth + 1)

    # each generation descends in one call; its pieces are placed node by
    # node, so node ids follow the generation order
    for k in range(params.k_max):
        jobs = [(pts, nodes[nid].cube.atom_idx, nodes[nid].interval, k + 1)
                for nid in generations[k]]
        for nid, pieces in zip(generations[k], descend_all(jobs, rho)):
            for piece in pieces:
                place(piece, nid, 0)
    del place      # the recursive closure refers to itself; free the tree by refcount
    return tree


# ---------------------------------------------------------------------------
# the gap interval construction
# ---------------------------------------------------------------------------


C_LAMBDA = 2.0**-8     # lambda = C_LAMBDA / (M A), the gap-to-tube width ratio
BIG_LAMBDA = 2.0**6    # the dilation Lambda of the measure ball and the empty cone
C_N = 8.0              # N_strips = ceil(C_N * A * M)
C_Y = 0.25             # relative width of the exit tube Y


@dataclass
class GapIntervalResult:
    interval: tuple[float, float]
    z_star_idx: int
    nice_strip: int
    trace: list[int]
    width_ratio: float            # H(I) / (lambda H(J) r)
    disjoint_ok: bool
    b0_inside_ok: bool
    checks: dict


def find_gap_interval(atoms: DiscreteMeasure, f_idx: np.ndarray,
                      interval: AngleInterval, z0, r: float, big_r: float,
                      x_idx: int, alpha: float, m_bound: float,
                      a_const: float) -> GapIntervalResult:
    """Find an interval in the perpendicular projection of B_0 missed by F.

    Implements the tube construction: around a witness y in the annular cone
    X(x, alpha J \\ J, rho r, r), a tube G of dimensions ~H(J) r x r splits
    into 2N+1 strips; the beats chain finds a nice strip whose lowest point
    z_* leaves an empty exit tube Y below it; the gap interval is the
    perpendicular projection of Y. Hypotheses (i)-(iv) are checked and the
    failed clause is named. The scale ratio and c_J are the config defaults.
    """
    rho = ExperimentConfig.rho
    lam = C_LAMBDA / (m_bound * a_const)
    big = BIG_LAMBDA
    pts = atoms.points
    f_idx = np.asarray(f_idx, dtype=np.int64)
    z0 = np.asarray(z0, dtype=float)
    x = pts[x_idx]
    h_j = interval.length
    checks: dict = {}

    # (i) the interval is narrow enough
    checks["i_interval_narrow"] = h_j <= ExperimentConfig.c_j / (m_bound * a_const) + TOL
    if not checks["i_interval_narrow"]:
        raise ValueError(f"hypothesis (i) fails: H(J) = {h_j} > c_J / (M A)")

    # (iii) F inside the tube around z0; measure bound; empty widened cone
    d_f = d_metric_many(interval, z0, pts[f_idx])
    checks["iii_f_in_ball"] = bool(np.all(d_f <= big_r + TOL))
    if not checks["iii_f_in_ball"]:
        raise ValueError("hypothesis (iii) fails: F not inside B_J(z0, R)")
    d_all = d_metric_many(interval, z0, pts)
    big_ball = d_all < big * r
    ball_mass = math.fsum(atoms.weights[big_ball].tolist())
    checks["iii_measure"] = ball_mass <= m_bound * h_j * r + TOL
    if not checks["iii_measure"]:
        raise ValueError(
            f"hypothesis (iii) fails: mu(Lambda B0) = {ball_mass} > M H(J) r")
    f_pts = pts[f_idx]
    for zi in np.nonzero(big_ball)[0]:
        diff = f_pts - pts[zi]
        dist = np.hypot(diff[:, 0], diff[:, 1])
        dmask = _direction_mask(diff, interval, dist)
        hit = dmask & (dist > lam * r) & (dist <= big * big_r)
        if hit.any():
            raise ValueError(
                f"hypothesis (iii) fails: cone at atom {zi} meets F")
    checks["iii_empty_cone"] = True

    # (iv) the exterior annular witness
    diff = pts - x
    dist = np.hypot(diff[:, 0], diff[:, 1])
    in_alpha = _direction_mask(diff, interval.dilate(alpha), dist)
    in_j = _direction_mask(diff, interval, dist)
    annulus = (dist > rho * r) & (dist <= r)
    witnesses = np.nonzero(in_alpha & ~in_j & annulus)[0]
    checks["iv_witness"] = len(witnesses) > 0
    if not checks["iv_witness"]:
        raise ValueError("hypothesis (iv) fails: no point in X(x, alpha J \\ J, rho r, r)")
    y = pts[witnesses[0]]

    e_par = direction_vector(interval.center)
    e_per = direction_vector(perp(interval.center))

    def p_par(p):
        return row_dot(p, e_par)

    def p_per(p):
        return row_dot(p, e_per)

    gap_perp = abs(p_per(x) - p_per(y))
    gap_par = abs(p_par(x) - p_par(y))
    t_g = (p_per(x) + p_per(y)) / 2.0

    n_strips = math.ceil(C_N * a_const * m_bound)
    per_all = p_per(pts)
    par_all = p_par(pts)
    in_tube = (np.abs(per_all - t_g) <= 2.0 * gap_perp + TOL)
    rel = par_all - p_par(y)
    # strip i covers rel in [(2i-1), (2i+1)] * gap_par / (2(2N+1))
    strip_of = np.floor(rel / gap_par * (2 * n_strips + 1) + 0.5).astype(int)
    in_tube &= np.abs(rel) <= gap_par / 2.0 + TOL

    # lowest |perp gap from x| point of each nonempty strip
    strip_z: dict[int, int] = {}
    for i in np.nonzero(in_tube)[0]:
        s = int(strip_of[i])
        if abs(s) > n_strips:
            continue
        cur = strip_z.get(s)
        val = abs(per_all[i] - p_per(x))
        if cur is None or val < abs(per_all[cur] - p_per(x)):
            strip_z[s] = int(i)

    def strip_val(s: int) -> float:
        zi = strip_z.get(s)
        return math.inf if zi is None else abs(per_all[zi] - p_per(x))

    # beats chain from strip 0 (the witness lives there)
    trace = [0]
    s = 0
    for _ in range(2 * n_strips + 2):
        left, mid, right = strip_val(s - 1), strip_val(s), strip_val(s + 1)
        if mid <= left and mid <= right:
            break
        s = s - 1 if left < right else s + 1
        trace.append(s)
        if abs(s) >= n_strips:
            raise ValueError(
                "beats chain exhausted the strips; contradicts the measure bound "
                f"(trace {trace})")
    nice = s
    z_star = strip_z[nice]
    zs_per = per_all[z_star]

    t_y = C_Y * lam * p_per(x) + (1.0 - C_Y * lam) * zs_per
    half = 0.5 * C_Y * lam * abs(zs_per - p_per(x))
    lo, hi = t_y - half, t_y + half

    f_per = per_all[f_idx]
    disjoint = bool(np.all((f_per < lo - TOL) | (f_per > hi + TOL)))
    width_ratio = (hi - lo) / (lam * h_j * r)
    b0_lo, b0_hi = p_per(z0) - h_j * r, p_per(z0) + h_j * r
    big_half = (hi - lo) / 2.0 * (big / lam)
    center = (lo + hi) / 2.0
    b0_inside = (center - big_half <= b0_lo + TOL) and (b0_hi <= center + big_half + TOL)

    checks["z_star_perp_gap_ratio"] = abs(zs_per - p_per(x)) / (h_j * r)
    return GapIntervalResult((lo, hi), int(z_star), nice, trace, width_ratio,
                             disjoint, b0_inside, checks)


def gap_instance(n_line=160, offset_sign=1.0, ladder=0, gap_m=128.0):
    """F = holey horizontal line plus the apex, J around the vertical, an
    exterior annulus witness above the hole; optional ladder atoms occupying
    strips 1..ladder with decreasing perpendicular gaps (drives the beats
    chain exactly `ladder` steps)."""
    h_j = 1 / 512
    j_iv = AngleInterval(0.25, h_j / 2)
    r = 0.25
    x_apex = np.array([0.0, 0.0])
    alpha = 8.0
    ang = 0.25 + offset_sign * 3.0 * h_j
    y = x_apex + 0.6 * r * direction_vector(ang)
    yx, yy = y
    xs = np.linspace(-0.5, 0.5, n_line)
    keep = xs[np.abs(xs - yx) > 0.01]  # hole below the witness
    base = np.column_stack([keep, np.zeros(len(keep))])
    f_pts = np.vstack([base, x_apex])
    extra = [y]
    n_strips = math.ceil(8.0 * 2.0 * gap_m)
    gap_par = abs(yy)
    for k in range(1, ladder + 1):
        perp_val = yx * (1 - 0.5 * k / (ladder + 1))
        extra.append(np.array([perp_val, yy + k * gap_par / (2 * n_strips + 1)]))
    pts = np.vstack([f_pts, np.array(extra)])
    w = np.full(len(pts), 0.5 / len(pts))
    mu = DiscreteMeasure(pts, w)
    return mu, np.arange(len(f_pts)), j_iv, x_apex, r, alpha, len(f_pts) - 1


# ---------------------------------------------------------------------------
# pipeline: the root interval, one triadic interval at a time
# ---------------------------------------------------------------------------


def root_interval_by_loop(grid: np.ndarray, good: np.ndarray, level: int
                          ) -> tuple[TriadicInterval, float]:
    """The level-`level` triadic interval with the largest fraction of good
    grid angles, the first in index order among ties, and that fraction,
    by a scan of all 3^level intervals: the oracle of the pipeline's
    one-pass search."""
    best, best_score = None, -1.0
    for idx in range(3**level):
        j = TriadicInterval(level, idx)
        inside = (grid >= j.low) & (grid < j.high)
        score = float(np.count_nonzero(good & inside)) / max(1, np.count_nonzero(inside))
        if score > best_score:
            best, best_score = j, score
    return best, best_score
