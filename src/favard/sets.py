"""Explicit finite models of planar sets and their length measure.

The two carriers are finite unions of segments (with mu = arclength) and sets
of dyadic squares. Segments discretize into weighted atoms; projections and
Favard length never use the discretization and stay exact.

A segment union is one array: `SegmentUnion.coords` has shape (4, n) and rows
x1, y1, x2, y2, so column k holds the endpoints of segment k; `lengths` holds
their `math.hypot` lengths. Every union, whether read from a file, built from
`Segment` values or mapped from another union, passes the one validity rule
of `_checked_lengths`. This module is the only one that knows the format:
the others read `coords` and `lengths` or call the union's methods.

File formats: a segment union is a CSV with one ``x1,y1,x2,y2`` row per
segment; a dyadic square set is JSON ``{"level": k, "cells": [[i, j], ...]}``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

import numpy as np

from .torus import TOL, line_angle

DEFAULT_ATOMS_PER_SEGMENT = 64
DIST_TILE_SIDE = 512    # side of the largest distance tile pairwise_extremes builds


class BadSegment(ValueError):
    """A segment that breaks the validity rule; `index` is its column."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def _checked_lengths(coords: np.ndarray) -> np.ndarray:
    """The `math.hypot` length of each column x1, y1, x2, y2 of `coords`.

    This is the one validity rule of a segment: a non-finite coordinate or
    coincident endpoints raise BadSegment, a ValueError naming the first
    such column.
    """
    lengths = np.array([math.hypot(x2 - x1, y2 - y1)
                        for x1, y1, x2, y2 in zip(*coords.tolist())])
    finite = np.isfinite(coords).all(axis=0)
    bad = np.flatnonzero(~(finite & (lengths > 0.0)))
    if len(bad):
        x1, y1, x2, y2 = coords[:, bad[0]].tolist()
        kind = "degenerate" if finite[bad[0]] else "non-finite"
        raise BadSegment(f"{kind} segment {(x1, y1)} -> {(x2, y2)}", int(bad[0]))
    return lengths


@dataclass(frozen=True)
class Segment:
    """Closed segment with distinct endpoints."""

    a: tuple[float, float]
    b: tuple[float, float]
    length: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "a", (float(self.a[0]), float(self.a[1])))
        object.__setattr__(self, "b", (float(self.b[0]), float(self.b[1])))
        coords = np.array([self.a + self.b]).T
        object.__setattr__(self, "length", float(_checked_lengths(coords)[0]))


class SegmentUnion:
    """Finite union of segments; mu is arclength on the union.

    Overlaps are not merged: the total length is the sum of the segment
    lengths (inputs are expected to be essentially disjoint). The endpoint
    array `coords` is read-only.
    """

    def __init__(self, segments: Iterable[Segment]):
        segments = list(segments)
        self._store([s.a for s in segments], [s.b for s in segments])

    @classmethod
    def from_endpoints(cls, a, b) -> "SegmentUnion":
        """The union of the segments a[k] -> b[k] of two (n, 2) point arrays."""
        union = cls.__new__(cls)
        union._store(a, b)
        return union

    def _store(self, a, b) -> None:
        a = np.asarray(a, dtype=float).reshape(-1, 2)
        b = np.asarray(b, dtype=float).reshape(-1, 2)
        self.coords = np.stack([a[:, 0], a[:, 1], b[:, 0], b[:, 1]])
        self.coords.flags.writeable = False
        self.lengths = _checked_lengths(self.coords)

    def __len__(self) -> int:
        return self.coords.shape[1]

    @property
    def segments(self) -> list[Segment]:
        """The segments as `Segment` values, built on each access."""
        return [Segment((x1, y1), (x2, y2)) for x1, y1, x2, y2 in self.coords.T.tolist()]

    @cached_property
    def direction_angles(self) -> np.ndarray:
        """Direction of each segment's carrying line, in [0, 1/2)."""
        return np.array([line_angle((x2 - x1, y2 - y1))
                         for x1, y1, x2, y2 in zip(*self.coords.tolist())])

    @cached_property
    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """The piece table: (K, C) arrays xs, ys of the vertices of each
        connected piece of the union, read-only.

        Segments join where their endpoints have exactly equal coordinates.
        Column c holds the distinct vertices of piece c in order of first
        appearance, padded with the piece's first vertex; pieces are ordered by
        their first segment. A shared vertex projects to the same float in
        every segment through it, so a piece projects exactly onto the one
        interval [min, max] of its vertex projections. When the table would
        have more than 2n slots (K * C > 2n, e.g. a long polyline beside many
        loose segments), the pieces are the segments themselves: K = 2, rows
        a and b, which is also what a union without shared endpoints gives.
        """
        n = len(self)
        ends = self.endpoints()                       # a_0, b_0, a_1, b_1, ...
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

        # hook the larger root of each segment's ends onto the smaller, then
        # point every vertex at its root; roots only move to smaller numbers,
        # so each piece ends rooted at its smallest number, its first vertex
        a, b = vertex[0::2], vertex[1::2]
        root = np.arange(np.count_nonzero(first))
        while (split := root[a] != root[b]).any():
            ra, rb = root[a[split]], root[b[split]]
            np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
            while not np.array_equal(up := root[root], root):
                root = up
        sizes = np.bincount(root, minlength=len(root))
        roots = np.flatnonzero(sizes)
        k, c = int(sizes.max(initial=0)), len(roots)
        if k * c > 2 * n:
            xs, ys = self.coords[0::2], self.coords[1::2]
        else:
            verts = ends[first]
            col = (np.cumsum(sizes > 0) - 1)[root]
            by_piece = np.argsort(col, kind="stable")
            col = col[by_piece]
            slot = np.arange(len(col)) - (np.cumsum(sizes[roots]) - sizes[roots])[col]
            xs, ys = np.empty((k, c)), np.empty((k, c))
            xs[:], ys[:] = verts[roots, 0], verts[roots, 1]
            xs[slot, col], ys[slot, col] = verts[by_piece, 0], verts[by_piece, 1]
        xs.flags.writeable = ys.flags.writeable = False
        return xs, ys

    def parallel_to(self, angle: float, tol: float) -> bool:
        """Whether every segment direction is within tol of angle mod 1/2."""
        gap = np.abs(self.direction_angles - angle % 0.5)
        return bool(np.all(np.minimum(gap, 0.5 - gap) <= tol))

    def mapped(self, f: Callable[[np.ndarray], np.ndarray]) -> "SegmentUnion":
        """The union of the images of the segments under the point map f,
        which takes an (n, 2) array of points to an (n, 2) array."""
        return SegmentUnion.from_endpoints(f(self.coords[:2].T), f(self.coords[2:].T))

    @property
    def total_length(self) -> float:
        return math.fsum(self.lengths.tolist())

    def endpoints(self) -> np.ndarray:
        """(2n, 2) array of all endpoints: a and b of each segment in turn."""
        return self.coords.T.reshape(-1, 2)

    def diameter(self) -> float:
        return float(np.max(pairwise_extremes(self.endpoints())[1], initial=0.0))

    def bounding_center_radius(self) -> tuple[np.ndarray, float]:
        pts = self.endpoints()
        c = (pts.min(axis=0) + pts.max(axis=0)) / 2.0
        r = float(np.max(np.hypot(pts[:, 0] - c[0], pts[:, 1] - c[1]))) if len(pts) else 0.0
        return c, r

    def atoms(self, pitch: Optional[float] = None) -> "DiscreteMeasure":
        """Discretize into atoms of arclength ~pitch placed at piece midpoints.

        Each segment splits into ceil(length / pitch) equal pieces; the atom
        weight is the exact piece length, so total mass equals total length.
        The default pitch gives the shortest segment DEFAULT_ATOMS_PER_SEGMENT
        pieces.
        """
        if pitch is not None and not 0.0 < pitch < math.inf:
            raise ValueError(f"atom pitch must be finite and > 0, got {pitch}")
        if not len(self):
            return DiscreteMeasure(np.empty((0, 2)), np.empty(0))
        if pitch is None:
            pitch = float(self.lengths.min()) / DEFAULT_ATOMS_PER_SEGMENT
        counts = np.maximum(1, np.ceil(self.lengths / pitch)).astype(np.int64)
        seg = np.repeat(np.arange(len(self)), counts)
        piece = np.arange(len(seg)) - np.repeat(np.cumsum(counts) - counts, counts)
        t = (piece + 0.5) / counts[seg]
        x1, y1, x2, y2 = self.coords[:, seg]
        return DiscreteMeasure(np.column_stack([x1 + t * (x2 - x1), y1 + t * (y2 - y1)]),
                               np.repeat(self.lengths / counts, counts))

    def ball_mass(self, center, r: float) -> float:
        """Exact arclength of the union inside the closed disk B(center, r)."""
        x1, y1, x2, y2 = self.coords
        ux, uy = (x2 - x1) / self.lengths, (y2 - y1) / self.lengths
        dx, dy = center[0] - x1, center[1] - y1
        # arclength parameter of the foot of the perpendicular; float_power is
        # libm pow, as Python's ** is, where x * x can differ in the last bit
        t0 = dx * ux + dy * uy
        half2 = r * r - (np.float_power(dx, 2) + np.float_power(dy, 2) - t0 * t0)
        half = np.sqrt(np.maximum(half2, 0.0))
        inside = np.maximum(0.0, np.minimum(self.lengths, t0 + half) - np.maximum(0.0, t0 - half))
        return math.fsum(inside[half2 > 0.0].tolist())

    @classmethod
    def from_csv(cls, path) -> "SegmentUnion":
        rows, lines = read_csv_rows(path, 4)
        if not len(rows):
            raise ValueError(f"{path}: no segments")
        try:
            return cls.from_endpoints(rows[:, :2], rows[:, 2:])
        except BadSegment as exc:
            raise ValueError(f"{path}:{lines[exc.index]}: {exc}") from None

    def to_csv(self, path) -> None:
        # repr of Python floats (not np.float64) writes the shortest round trip
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{x1!r},{y1!r},{x2!r},{y2!r}\n"
                          for x1, y1, x2, y2 in self.coords.T.tolist())


def read_csv_rows(path, width: int) -> tuple[np.ndarray, list[int]]:
    """The (n, width) array of the rows of a comma-separated numeric file,
    and the line number of each row.

    Blank lines and lines starting with '#' are skipped; a row of another
    width, a non-numeric field or a non-finite value raises ValueError
    naming path:line.
    """
    rows, lines = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} comma-separated "
                                 f"values, got {line!r}")
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric field in {line!r}") from exc
            if not all(map(math.isfinite, row)):
                raise ValueError(f"{path}:{lineno}: non-finite coordinate in {line!r}")
            rows.append(row)
            lines.append(lineno)
    return np.array(rows, dtype=float).reshape(-1, width), lines


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


class DyadicSquareSet:
    """Union of closed dyadic squares [i 2^-k, (i+1) 2^-k] x [j 2^-k, (j+1) 2^-k]."""

    def __init__(self, level: int, cells: Iterable[tuple[int, int]]):
        cells = [tuple(c) for c in cells]
        bad = [v for v in (level, *(index for c in cells for index in c))
               if isinstance(v, bool) or not isinstance(v, (int, np.integer))]
        if bad:
            raise ValueError(f"level and cell indices must be integers, got {bad[0]!r}")
        if level < 0:
            raise ValueError("level must be >= 0")
        self.level, n = int(level), 2**level
        self.cells = frozenset((int(i), int(j)) for i, j in cells)
        if not self.cells:
            raise ValueError("empty square set")
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

    def skeleton(self) -> SegmentUnion:
        """Union of the 4 boundary edges of every cell, shared edges kept once.

        Projections never shrink: pi_theta of a square equals pi_theta of its
        boundary, so the skeleton has the same projections as the square union.
        """
        # (i, j, kind): the edge from corner (i, j) rightwards (0) or upwards (1);
        # each cell's bottom, top, left and right edge, sorted, duplicates dropped
        ci, cj = np.array(list(self.cells), dtype=np.int64).T
        edges = np.stack([np.r_[ci, ci, ci, ci + 1], np.r_[cj, cj + 1, cj, cj],
                          np.repeat([0, 0, 1, 1], len(ci))])
        edges = edges[:, np.lexsort(edges[::-1])]
        i, j, kind = edges[:, np.r_[True, (edges[:, 1:] != edges[:, :-1]).any(axis=0)]]
        s = self.side
        return SegmentUnion.from_endpoints(np.column_stack([i * s, j * s]),
                                           np.column_stack([(i + 1 - kind) * s, (j + kind) * s]))

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"level": self.level, "cells": sorted(self.cells)}, fh)

    @classmethod
    def from_json(cls, path) -> "DyadicSquareSet":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(data["level"], data["cells"])


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

    A segment is horizontal (vertical) when its endpoints' y (x) coordinates
    differ by at most TOL * max(1, length). Rejects oblique segments. Either
    part may be empty.
    """
    x1, y1, x2, y2 = union.coords
    slack = TOL * np.maximum(1.0, union.lengths)
    hor = np.abs(y1 - y2) <= slack
    ver = ~hor & (np.abs(x1 - x2) <= slack)
    oblique = np.flatnonzero(~(hor | ver))
    if len(oblique):
        x1, y1, x2, y2 = union.coords[:, oblique[0]].tolist()
        raise ValueError(f"oblique segment {(x1, y1)} -> {(x2, y2)} in split_parallel")
    a, b = union.coords[:2].T, union.coords[2:].T
    return (SegmentUnion.from_endpoints(a[hor], b[hor]),
            SegmentUnion.from_endpoints(a[ver], b[ver]))


def ahlfors_constant(union: SegmentUnion, sample_count: int, seed: int) -> float:
    """Sampled estimate (from below) of the Ahlfors regularity constant of a
    segment union.

    Draws (x, r) with x on the set and r uniform in (0, diam); returns the
    largest of mass/r and r/mass over the samples, at least 1. Ball masses are
    exact arclength. Extending sample_count with the same seed only adds
    samples, so the estimate is nondecreasing in sample_count.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    u1, u2, u3 = rng.random((sample_count, 3)).T
    # a segment drawn by length, then a uniform point on it
    cum = np.cumsum(union.lengths) / union.lengths.sum()
    k = np.minimum(np.searchsorted(cum, u1, side="right"), len(union) - 1)
    x1, y1, x2, y2 = union.coords[:, k]
    centers = np.column_stack([x1 + u2 * (x2 - x1), y1 + u2 * (y2 - y1)])
    radii = np.maximum(1e-9, u3) * union.diameter()
    masses = np.array([union.ball_mass(x, r) for x, r in zip(centers, radii)])
    hit = masses > 0.0
    ratios = np.concatenate([masses[hit] / radii[hit], radii[hit] / masses[hit]])
    return float(np.max(ratios, initial=1.0))


def cloud_of(model) -> tuple[np.ndarray, np.ndarray, float]:
    """(points, weights, slack): a cloud covering a segment union or square set within slack."""
    if isinstance(model, SegmentUnion):
        if not len(model):
            return np.empty((0, 2)), np.empty(0), 0.0
        atoms = model.atoms()
        # an atom's weight is its piece length, so the largest is the pitch
        return atoms.points, atoms.weights, float(atoms.weights.max()) / 2.0
    if isinstance(model, DyadicSquareSet):
        pts = model.cell_centers()
        w = np.full(len(pts), model.side)
        return pts, w, model.side * math.sqrt(2.0) / 2.0
    raise TypeError(f"unsupported model {type(model)!r}")


def cloud_content(pts: np.ndarray, wts: np.ndarray, slack: float,
                  min_radius: float = 0.0) -> float:
    """Greedy-cover upper estimate of the Hausdorff content of the cloud, 0.0 for no points."""
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

    The distance matrix is built in tiles of at most DIST_TILE_SIDE x
    DIST_TILE_SIDE, so memory stays bounded on large inputs. A point with nothing to compare
    against gets (inf, -inf).
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    other = pts if cloud is None else np.asarray(cloud, dtype=float).reshape(-1, 2)
    near = np.full(len(pts), math.inf)
    far = np.full(len(pts), -math.inf)
    for a in range(0, len(pts), DIST_TILE_SIDE):
        pa, rows = pts[a:a + DIST_TILE_SIDE], slice(a, a + DIST_TILE_SIDE)
        for b in range(0, len(other), DIST_TILE_SIDE):
            pb = other[b:b + DIST_TILE_SIDE]
            d = np.hypot(pa[:, None, 0] - pb[None, :, 0], pa[:, None, 1] - pb[None, :, 1])
            on_diagonal = cloud is None and a == b
            if on_diagonal:
                np.fill_diagonal(d, math.inf)      # a point is not its own neighbour
            np.minimum(near[rows], d.min(axis=1), out=near[rows])
            if on_diagonal:
                np.fill_diagonal(d, -math.inf)
            np.maximum(far[rows], d.max(axis=1), out=far[rows])
    return near, far


def segment_distances(pts: np.ndarray, union: SegmentUnion) -> np.ndarray:
    """Euclidean distance from each point to the nearest segment of the union."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    best = np.full(len(pts), math.inf)
    for ax, ay, bx, by in union.coords.T.tolist():
        vx, vy = bx - ax, by - ay
        den = vx * vx + vy * vy
        t = ((pts[:, 0] - ax) * vx + (pts[:, 1] - ay) * vy) / den
        t = np.clip(t, 0.0, 1.0)
        d = np.hypot(pts[:, 0] - (ax + t * vx), pts[:, 1] - (ay + t * vy))
        np.minimum(best, d, out=best)
    return best
