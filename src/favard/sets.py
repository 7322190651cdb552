"""Explicit finite models of planar sets and their length measure.

The two carriers are finite unions of segments (with mu = arclength) and sets
of dyadic squares. Segments discretize into weighted atoms; projections and
Favard length never use the discretization and stay exact.

File formats: a segment union is a CSV with one ``x1,y1,x2,y2`` row per
segment; a dyadic square set is JSON ``{"level": k, "cells": [[i, j], ...]}``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .torus import TOL, line_angle

DEFAULT_ATOMS_PER_SEGMENT = 64
PAIR_TILE = 512     # side of the largest distance tile pairwise_extremes builds


@dataclass(frozen=True)
class Segment:
    """Closed segment with distinct endpoints."""

    a: tuple[float, float]
    b: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "a", (float(self.a[0]), float(self.a[1])))
        object.__setattr__(self, "b", (float(self.b[0]), float(self.b[1])))
        if not all(map(math.isfinite, self.a + self.b)):
            raise ValueError(f"non-finite segment {self.a} -> {self.b}")
        if self.length <= 0.0:
            raise ValueError(f"degenerate segment {self.a} -> {self.b}")

    @property
    def length(self) -> float:
        return math.hypot(self.b[0] - self.a[0], self.b[1] - self.a[1])

    @property
    def direction_angle(self) -> float:
        """Direction of the carrying line, in [0, 1/2)."""
        return line_angle((self.b[0] - self.a[0], self.b[1] - self.a[1]))

    @property
    def horizontal(self) -> bool:
        return abs(self.a[1] - self.b[1]) <= TOL * max(1.0, self.length)

    @property
    def vertical(self) -> bool:
        return abs(self.a[0] - self.b[0]) <= TOL * max(1.0, self.length)

    def point_at(self, t: float) -> np.ndarray:
        return np.array([self.a[0] + t * (self.b[0] - self.a[0]),
                         self.a[1] + t * (self.b[1] - self.a[1])])

    def ball_intersection_length(self, center, r: float) -> float:
        """Exact arclength of the segment inside the closed disk B(center, r)."""
        ax, ay = self.a
        vx, vy = self.b[0] - ax, self.b[1] - ay
        ln = self.length
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


class SegmentUnion:
    """Finite union of segments; mu is arclength on the union.

    Overlaps are not merged: the total length is the sum of the segment
    lengths (inputs are expected to be essentially disjoint).
    """

    def __init__(self, segments: Iterable[Segment], parallel_hint: Optional[float] = None):
        self.segments: list[Segment] = list(segments)
        self.parallel_hint = parallel_hint
        if parallel_hint is not None:
            for s in self.segments:
                gap = abs(s.direction_angle - (parallel_hint % 0.5))
                if min(gap, 0.5 - gap) > 1e-12:
                    raise ValueError(
                        f"segment direction {s.direction_angle} != parallel hint {parallel_hint}")

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    @property
    def total_length(self) -> float:
        return math.fsum(s.length for s in self.segments)

    def endpoints(self) -> np.ndarray:
        """(2n, 2) array of all endpoints."""
        out = np.empty((2 * len(self.segments), 2))
        for i, s in enumerate(self.segments):
            out[2 * i] = s.a
            out[2 * i + 1] = s.b
        return out

    def diameter(self) -> float:
        return float(np.max(pairwise_extremes(self.endpoints())[1], initial=0.0))

    def bounding_center_radius(self) -> tuple[np.ndarray, float]:
        pts = self.endpoints()
        c = (pts.min(axis=0) + pts.max(axis=0)) / 2.0
        r = float(np.max(np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]))) if len(pts) else 0.0
        return c, r

    def default_pitch(self) -> float:
        if not self.segments:
            raise ValueError("empty union has no pitch")
        return min(s.length for s in self.segments) / DEFAULT_ATOMS_PER_SEGMENT

    def atoms(self, pitch: Optional[float] = None) -> "DiscreteMeasure":
        """Discretize into atoms of arclength ~pitch placed at piece midpoints.

        Each segment splits into ceil(length / pitch) equal pieces; the atom
        weight is the exact piece length, so total mass equals total length.
        """
        if pitch is not None and not 0.0 < pitch < math.inf:
            raise ValueError(f"atom pitch must be finite and > 0, got {pitch}")
        if not self.segments:
            return DiscreteMeasure(np.empty((0, 2)), np.empty(0))
        if pitch is None:
            pitch = self.default_pitch()
        pts, wts = [], []
        for s in self.segments:
            n = max(1, math.ceil(s.length / pitch))
            w = s.length / n
            for i in range(n):
                pts.append(s.point_at((i + 0.5) / n))
                wts.append(w)
        return DiscreteMeasure(np.array(pts).reshape(-1, 2), np.array(wts))

    def ball_mass(self, center, r: float) -> float:
        return math.fsum(s.ball_intersection_length(center, r) for s in self.segments)

    @classmethod
    def from_csv(cls, path) -> "SegmentUnion":
        segs = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != 4:
                    raise ValueError(f"{path}:{lineno}: expected x1,y1,x2,y2, got {line!r}")
                try:
                    x1, y1, x2, y2 = (float(p) for p in parts)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: non-numeric field in {line!r}") from exc
                if not all(map(math.isfinite, (x1, y1, x2, y2))):
                    raise ValueError(f"{path}:{lineno}: non-finite coordinate in {line!r}")
                segs.append(Segment((x1, y1), (x2, y2)))
        if not segs:
            raise ValueError(f"{path}: no segments")
        return cls(segs)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.segments:
                fh.write(f"{s.a[0]!r},{s.a[1]!r},{s.b[0]!r},{s.b[1]!r}\n")


@dataclass
class DiscreteMeasure:
    """Finitely many weighted atoms in the plane."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(self.points) != len(self.weights):
            raise ValueError("points/weights length mismatch")
        if len(self.weights) and np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def total_mass(self) -> float:
        return math.fsum(self.weights.tolist())

    def restrict(self, mask: np.ndarray) -> "DiscreteMeasure":
        return DiscreteMeasure(self.points[mask], self.weights[mask])


class DyadicSquareSet:
    """Union of closed dyadic squares [i 2^-k, (i+1) 2^-k] x [j 2^-k, (j+1) 2^-k]."""

    def __init__(self, level: int, cells: Iterable[tuple[int, int]]):
        if level < 0:
            raise ValueError("level must be >= 0")
        self.level = level
        self.cells = frozenset((int(i), int(j)) for i, j in cells)
        if not self.cells:
            raise ValueError("empty square set")
        n = 2**level
        for i, j in self.cells:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"cell ({i}, {j}) out of range at level {level}")

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    def __len__(self) -> int:
        return len(self.cells)

    def cell_centers(self) -> np.ndarray:
        s = self.side
        return np.array([[(i + 0.5) * s, (j + 0.5) * s] for i, j in sorted(self.cells)])

    def diameter(self) -> float:
        pts = self.cell_centers()
        lo, hi = pts.min(axis=0) - self.side / 2, pts.max(axis=0) + self.side / 2
        return float(np.hypot(*(hi - lo)))

    def ball_mass(self, center, r: float) -> float:
        """Cell-counting proxy for the 1-d mass of a ball: side per cell center hit."""
        pts = self.cell_centers()
        inside = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1]) <= r + TOL
        return float(np.count_nonzero(inside)) * self.side

    def skeleton(self) -> SegmentUnion:
        """Union of the 4 boundary edges of every cell, shared edges kept once.

        Projections never shrink: pi_theta of a square equals pi_theta of its
        boundary, so the skeleton has the same projections as the square union.
        """
        s = self.side
        edges: set[tuple[int, int, int]] = set()
        for i, j in self.cells:
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

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"level": self.level, "cells": sorted(self.cells)}, fh)

    @classmethod
    def from_json(cls, path) -> "DyadicSquareSet":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(data["level"], [tuple(c) for c in data["cells"]])


def four_corners(n: int) -> DyadicSquareSet:
    """Generation n of the 4-corners Cantor set C_{1/2} x C_{1/2}.

    Coordinates are sums of digits a_i in {0, 3} over powers 4^-i; the n-th
    generation consists of 4^n squares of side 4^-n, i.e. dyadic level 2n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 12:
        raise ValueError(f"four_corners({n}) would have {4**n} cells; limit is n <= 12")
    coords = [0]
    for i in range(n):
        coords = [4 * c + d for c in coords for d in (0, 3)]
    cells = [(i, j) for i in coords for j in coords]
    return DyadicSquareSet(2 * n, cells)


def split_parallel(union: SegmentUnion) -> tuple[SegmentUnion, SegmentUnion]:
    """Split an axis-parallel union into (horizontal, vertical) parts.

    Rejects oblique segments. Either part may be empty; empty parts are
    returned as unions with no segments (constructed without validation).
    """
    hor, ver = [], []
    for s in union.segments:
        if s.horizontal:
            hor.append(s)
        elif s.vertical:
            ver.append(s)
        else:
            raise ValueError(f"oblique segment {s.a} -> {s.b} in split_parallel")
    out_h = SegmentUnion(hor, parallel_hint=0.0) if hor else SegmentUnion([])
    out_v = SegmentUnion(ver, parallel_hint=0.25) if ver else SegmentUnion([])
    return out_h, out_v


def ahlfors_constant(model, sample_count: int, seed: int = 0) -> float:
    """Sampled estimate (from below) of the Ahlfors regularity constant.

    Draws (x, r) with x on the set and r uniform in (0, diam); returns the
    largest of mass/r and r/mass over the samples, at least 1. Ball masses are
    exact arclength for segment unions and cell-counting for square sets.
    Extending sample_count with the same seed only adds samples, so the
    estimate is nondecreasing in sample_count.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    draws = rng.random((sample_count, 3))
    if isinstance(model, SegmentUnion):
        segs = model.segments
        lengths = np.array([s.length for s in segs])
        cum = np.cumsum(lengths) / lengths.sum()
        diam = model.diameter()
        best = 1.0
        for u1, u2, u3 in draws:
            k = int(np.searchsorted(cum, u1, side="right"))
            k = min(k, len(segs) - 1)
            x = segs[k].point_at(u2)
            r = max(1e-9, u3) * diam
            mass = model.ball_mass(x, r)
            if mass > 0.0:
                best = max(best, mass / r, r / mass)
        return best
    if isinstance(model, DyadicSquareSet):
        centers = model.cell_centers()
        diam = model.diameter()
        best = 1.0
        for u1, u2, u3 in draws:
            x = centers[min(int(u1 * len(centers)), len(centers) - 1)]
            r = max(model.side, u3 * diam)
            mass = model.ball_mass(x, r)
            if mass > 0.0:
                best = max(best, mass / r, r / mass)
        return best
    raise TypeError(f"unsupported model {type(model)!r}")


def _cloud_of(model) -> tuple[np.ndarray, np.ndarray, float]:
    """(points, weights, slack): a cloud covering the model within `slack`."""
    if isinstance(model, SegmentUnion):
        if not model.segments:
            return np.empty((0, 2)), np.empty(0), 0.0
        atoms = model.atoms()
        pitch = max(s.length / max(1, math.ceil(s.length / model.default_pitch()))
                    for s in model.segments)
        return atoms.points, atoms.weights, pitch / 2.0
    if isinstance(model, DyadicSquareSet):
        pts = model.cell_centers()
        w = np.full(len(pts), model.side)
        return pts, w, model.side * math.sqrt(2.0) / 2.0
    if isinstance(model, DiscreteMeasure):
        return model.points, model.weights, 0.0
    raise TypeError(f"unsupported model {type(model)!r}")


def _cloud_content(pts: np.ndarray, wts: np.ndarray, slack: float,
                   min_radius: float = 0.0) -> float:
    if len(pts) == 0:
        return 0.0
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    center = (lo + hi) / 2.0
    enclosing = float(np.max(np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1]))) + slack
    enclosing = max(enclosing, min_radius)
    if len(pts) == 1:
        return max(min_radius, slack) if min_radius > 0.0 or slack > 0.0 else 0.0

    # candidate centers: subsample the cloud deterministically if large
    step = max(1, len(pts) // 400)
    centers = pts[::step]
    radii = []
    r = enclosing
    floor = max(min_radius, 4.0 * slack, enclosing * 2.0**-12)
    while r >= floor:
        radii.append(r)
        r /= 2.0
    if not radii:
        radii = [enclosing]

    dist = np.hypot(pts[None, :, 0] - centers[:, None, 0], pts[None, :, 1] - centers[:, None, 1])
    uncovered = np.ones(len(pts), dtype=bool)
    total = 0.0
    # greedy weighted set cover, score = newly covered mass / radius
    while uncovered.any():
        best_score, best_mask, best_r = -1.0, None, None
        for r in radii:
            inside = dist <= max(r - slack, 0.0) + TOL
            gains = (inside & uncovered) @ wts
            k = int(np.argmax(gains))
            score = gains[k] / r
            if score > best_score:
                best_score, best_mask, best_r = score, inside[k], r
        if best_mask is None or best_score <= 0.0:
            # isolated leftovers: cover each with a floor-radius ball
            total += float(np.count_nonzero(uncovered)) * radii[-1]
            break
        uncovered &= ~best_mask
        total += best_r
        if total >= enclosing:
            return enclosing
    return min(total, enclosing)


def pairwise_extremes(pts: np.ndarray,
                      cloud: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-point (nearest, farthest) Euclidean distance to the other points of
    `pts`, or to the points of `cloud` when one is given.

    The distance matrix is built in tiles of at most PAIR_TILE x PAIR_TILE, so
    memory stays bounded on large inputs. A point with nothing to compare
    against gets (inf, -inf).
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    other = pts if cloud is None else np.asarray(cloud, dtype=float).reshape(-1, 2)
    near = np.full(len(pts), math.inf)
    far = np.full(len(pts), -math.inf)
    for a in range(0, len(pts), PAIR_TILE):
        pa, rows = pts[a:a + PAIR_TILE], slice(a, a + PAIR_TILE)
        for b in range(0, len(other), PAIR_TILE):
            pb = other[b:b + PAIR_TILE]
            d = np.hypot(pa[:, None, 0] - pb[None, :, 0], pa[:, None, 1] - pb[None, :, 1])
            on_diagonal = cloud is None and a == b
            if on_diagonal:
                np.fill_diagonal(d, math.inf)      # a point is not its own neighbour
            np.minimum(near[rows], d.min(axis=1), out=near[rows])
            if on_diagonal:
                np.fill_diagonal(d, -math.inf)
            np.maximum(far[rows], d.max(axis=1), out=far[rows])
    return near, far


def segment_distances(pts: np.ndarray, segments: Iterable[Segment]) -> np.ndarray:
    """Euclidean distance from each point to the nearest of the segments."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    best = np.full(len(pts), math.inf)
    for s in segments:
        ax, ay = s.a
        vx, vy = s.b[0] - ax, s.b[1] - ay
        den = vx * vx + vy * vy
        t = ((pts[:, 0] - ax) * vx + (pts[:, 1] - ay) * vy) / den
        t = np.clip(t, 0.0, 1.0)
        d = np.hypot(pts[:, 0] - (ax + t * vx), pts[:, 1] - (ay + t * vy))
        np.minimum(best, d, out=best)
    return best
