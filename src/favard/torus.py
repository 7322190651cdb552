"""Angles on the torus of directions, triadic intervals, cones, and tube metrics.

An angle theta in [0, 1) stands for the unit vector
e_theta = (cos 2*pi*theta, sin 2*pi*theta). Lines through a point are
unoriented, so theta and theta + 1/2 span the same line. Direction sets are
arcs on T = R/Z; the triadic grid on T is the family of half-open intervals
[k 3^-j, (k+1) 3^-j).

Conventions fixed here and used by every other module:

- geometric predicates evaluate the defining formula in float arithmetic and
  compare with absolute tolerance ``TOL`` = 1e-12;
- a cone X(x, I) with I = [theta - a, theta + a], a <= 1/4, is the set of y
  with |perp-projection gap| <= sin(2*pi*a) |x - y| (closed);
- angle-interval membership on T is closed, triadic-grid membership half-open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

TOL = 1e-12
PAIR_TILE = 1 << 14     # pairwise values per block where a pair matrix is built


def row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices of range(rows), max(1, PAIR_TILE // width) rows each:
    the blocks of a (rows x width) pair matrix in every pairwise kernel."""
    step = max(1, PAIR_TILE // max(1, width))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def wrap(theta: float) -> float:
    """Representative of theta in [0, 1)."""
    t = math.fmod(theta, 1.0)
    return t + 1.0 if t < 0.0 else t


def perp(theta: float) -> float:
    """The perpendicular direction theta + 1/4 (mod 1)."""
    return wrap(theta + 0.25)


def circ_dist(a: float, b: float) -> float:
    """Shortest arc distance between two angles on T."""
    d = abs(wrap(a) - wrap(b))
    return min(d, 1.0 - d)


def direction_vector(theta: float) -> np.ndarray:
    """Unit vector e_theta = (cos 2*pi*theta, sin 2*pi*theta)."""
    t = 2.0 * math.pi * theta
    return np.array([math.cos(t), math.sin(t)])


def row_dot(pts, v) -> np.ndarray:
    """p . v for each row p of `pts` (or for one point), by elementwise products.

    Unlike a BLAS product, each row's value does not depend on how many rows
    share the call; this is the one projection formula of the package.
    """
    pts = np.asarray(pts, dtype=float)
    return pts[..., 0] * v[0] + pts[..., 1] * v[1]


def line_angle(v) -> float:
    """Direction of the line spanned by a nonzero vector, as an angle in [0, 1/2)."""
    a = math.atan2(v[1], v[0]) / (2.0 * math.pi)
    a = math.fmod(a, 0.5)
    a = a + 0.5 if a < 0.0 else a
    return 0.0 if a == 0.5 else a    # a tiny negative angle rounds up to 1/2


@dataclass(frozen=True)
class AngleInterval:
    """Closed arc on T with a given center and half-width in (0, 1/2]."""

    center: float
    half_width: float

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if not (0.0 < self.half_width <= 0.5):
            raise ValueError(f"half_width must lie in (0, 1/2], got {self.half_width}")
        object.__setattr__(self, "center", wrap(self.center))

    @property
    def length(self) -> float:
        return 2.0 * self.half_width

    @property
    def low(self) -> float:
        """The left end center - half_width, not wrapped into [0, 1)."""
        return self.center - self.half_width

    def dilate(self, factor: float) -> "AngleInterval":
        """Concentric dilation C*I; the length is capped at 1 (the whole torus)."""
        if factor <= 0.0:
            raise ValueError("dilation factor must be positive")
        return AngleInterval(self.center, min(0.5, factor * self.half_width))

    def perp(self) -> "AngleInterval":
        return AngleInterval(perp(self.center), self.half_width)

    def contains(self, theta: float) -> bool:
        return circ_dist(theta, self.center) <= self.half_width + TOL

    def intersects(self, other: "AngleInterval") -> bool:
        return circ_dist(self.center, other.center) <= self.half_width + other.half_width + TOL


@dataclass(frozen=True, order=True)
class TriadicInterval:
    """Triadic interval [index 3^-level, (index+1) 3^-level) on T.

    Intervals compare, sort and hash as their (level, index) pairs.
    """

    level: int
    index: int

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be >= 0")
        if not (0 <= self.index < 3**self.level):
            raise ValueError(f"index {self.index} out of range at level {self.level}")

    @property
    def low(self) -> float:
        return self.index / 3**self.level

    @property
    def high(self) -> float:
        return (self.index + 1) / 3**self.level

    @property
    def length(self) -> float:
        return 3.0 ** (-self.level)

    @property
    def center(self) -> float:
        return (self.index + 0.5) / 3**self.level

    def parent(self) -> "TriadicInterval":
        if self.level == 0:
            raise ValueError("the root interval [0, 1) has no parent")
        return TriadicInterval(self.level - 1, self.index // 3)

    def children(self) -> tuple["TriadicInterval", "TriadicInterval", "TriadicInterval"]:
        lv, i = self.level + 1, 3 * self.index
        return (
            TriadicInterval(lv, i),
            TriadicInterval(lv, i + 1),
            TriadicInterval(lv, i + 2),
        )

    def middle_child(self) -> "TriadicInterval":
        """The child sharing the parent's center."""
        return TriadicInterval(self.level + 1, 3 * self.index + 1)

    def contains(self, other: "TriadicInterval") -> bool:
        """Containment of triadic intervals (integer arithmetic, exact)."""
        if other.level < self.level:
            return False
        shift = 3 ** (other.level - self.level)
        return other.index // shift == self.index

    def intersects(self, other: "TriadicInterval") -> bool:
        return self.contains(other) or other.contains(self)

    def dilate(self, factor: float) -> AngleInterval:
        """Concentric dilation C*J as an AngleInterval."""
        return AngleInterval(self.center, min(0.5, factor * self.length / 2.0))

    def as_angle_interval(self) -> AngleInterval:
        return AngleInterval(self.center, self.length / 2.0)

    def perp(self) -> AngleInterval:
        return AngleInterval(perp(self.center), self.length / 2.0)

    @property
    def half_width(self) -> float:
        return self.length / 2.0


def triadic_cover(theta: float, level: int) -> TriadicInterval:
    """The unique level-`level` triadic interval containing theta (half-open)."""
    t = wrap(theta)
    idx = min(int(t * 3**level), 3**level - 1)
    return TriadicInterval(level, idx)


DirectionInterval = Union[AngleInterval, TriadicInterval]


def _direction_mask(diff: np.ndarray, interval: DirectionInterval,
                    dist: np.ndarray) -> np.ndarray:
    """Directional part of cone membership for one arc (closed, with TOL), for
    each row of `diff` = pts - apex, whose lengths are `dist`.

    Uses the algebraic characterization |pi_perp gap| <= sin(2 pi a) |x - y|
    when the half-width a is <= 1/4; wider arcs fall back to the arc-distance
    test on the line direction (the sine characterization breaks past 1/4).
    """
    center = interval.center
    a = interval.half_width
    if a >= 0.5 - TOL:
        return np.ones(diff.shape[:-1], dtype=bool)
    if a <= 0.25:
        lhs = np.abs(row_dot(diff, direction_vector(perp(center))))
        return lhs <= math.sin(2.0 * math.pi * a) * dist + TOL
    ang = np.arctan2(diff[..., 1], diff[..., 0]) / (2.0 * math.pi)
    gap = np.abs(np.mod(ang - center + 0.25, 0.5) - 0.25)
    ok = gap <= a + TOL
    ok |= dist <= TOL  # the apex lies on every line through it
    return ok


def _metric_coords(e, length, diff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H(I)^-1 pi_I_perp, pi_I) of each row, by elementwise products, for the
    midpoint direction e = (e[0], e[1]) and length H(I) of I; e and the length
    may hold one value per row."""
    return row_dot(diff, (-e[1], e[0])) / length, row_dot(diff, e)


def d_metric_many(interval: DirectionInterval, x, pts: np.ndarray) -> np.ndarray:
    """d_I(x, p) for every row p of `pts`, for the anisotropic metric
    d_I(x, y) = (H(I)^-2 |pi_I_perp(x - y)|^2 + |pi_I(x - y)|^2)^(1/2),
    where pi_I projects along the midpoint direction of I: balls are tubes of
    dimensions H(I) r x r pointing along I.

    Each value depends only on its own row, and swapping x and p negates both
    coordinates, so d_I is exactly symmetric.
    """
    diff = np.asarray(pts, dtype=float) - np.asarray(x, dtype=float)
    return np.hypot(*_metric_coords(direction_vector(interval.center), interval.length, diff))
