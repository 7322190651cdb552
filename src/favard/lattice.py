"""Generalized anisotropic dyadic lattices.

The base lattice is one fixed half-open square grid (origin 0) on the plane;
its levels nest exactly. The cubes of generation g of a carrier adapted to a
direction interval J are built by grouping base cells around a greedily
chosen 3 rho^g-separated net of cell centers in the metric d_J: cells within
d_J-distance rho^g of a net point are "very close" (the unique such point
takes them), remaining cells go to the first net point within 3 rho^g. Every
output cube Q then satisfies the sandwich

    B_J(x_Q, 0.5 rho^g) n P  subset  Q  subset  B_J(x_Q, 4 rho^g) n P.

The base-cell side rho^m obeys H(J) rho^{g+2} < 5 rho^m <= H(J) rho^{g+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .torus import (TOL, DirectionInterval, _metric_coords, d_metric_many, direction_vector,
                    row_blocks)


def side_exponent(h_j: float, gen: int, rho: float) -> int:
    """The unique integer m with H(J) rho^{gen+2} < 5 rho^m <= H(J) rho^{gen+1}."""
    if not (0.0 < h_j <= 1.0):
        raise ValueError("interval length must lie in (0, 1]")
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must lie in (0, 1)")
    target = h_j * rho ** (gen + 1) / 5.0
    m = math.ceil(math.log(target) / math.log(rho) - 1e-9)
    while rho**m > target:
        m += 1
    while rho ** (m - 1) <= target:
        m -= 1
    if not (h_j * rho ** (gen + 2) < 5 * rho**m <= h_j * rho ** (gen + 1)):
        raise AssertionError("side rule violated; rho/H(J) out of supported range")
    return m


def cell_order(idx: np.ndarray, coords: np.ndarray, side: np.ndarray,
               carrier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The atoms `idx`, at `coords` (one row each), sorted by carrier, then by
    half-open grid cell of their own `side`, cells in key order, and within a
    cell by squared distance from the cell's geometric center, then by
    coordinates, then by index.

    Returns (order, first): positions into `idx`, and a mask of the sorted
    atoms that open a cell, which are the cells' center atoms.
    """
    keys = np.floor(coords / side[:, None]).astype(np.int64)
    mid = (keys + 0.5) * side[:, None]
    d2 = (coords[:, 0] - mid[:, 0]) ** 2 + (coords[:, 1] - mid[:, 1]) ** 2
    order = np.lexsort((idx, coords[:, 1], coords[:, 0], d2, keys[:, 1], keys[:, 0], carrier))
    keys, carrier = keys[order], carrier[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1) | (carrier[1:] != carrier[:-1])
    return order, first


@dataclass
class AnisoCube:
    """A cube of the generalized lattice: a set of atoms with a centered tube.

    `center_idx` is its net point x_Q; `level` is its generation g and
    `interval` its direction interval J_Q, which the tree reads from here.
    The ball B_Q is B_{J_Q}(x_Q, 4 rho^g).
    """

    atom_idx: np.ndarray
    center_idx: int
    level: int
    interval: DirectionInterval
    rho: float

    def __post_init__(self):
        self.atom_idx = np.asarray(self.atom_idx, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.atom_idx)

    def mass(self, weights: np.ndarray) -> float:
        return math.fsum(weights[self.atom_idx].tolist())


def descend_all(jobs: Sequence[tuple], rho: float) -> list[list[AnisoCube]]:
    """Dyadic descendants of many carriers, one cube list per job.

    A job is (points, member_idx, interval, gen): the carrier is the atom
    set `member_idx` of `points`, cut into the cubes of generation gen >= 0
    adapted to `interval`. A child generation of a cube is the job of its
    atoms at gen + 1; a shattered piece keeps its generation and takes a
    narrower interval. Each list partitions its carrier, and depends on its
    own job only. The base cells (side_exponent) group the atoms and are
    not kept.
    """
    if not jobs:
        return []
    sides, frames, arrays = [], [], {}
    for points, member_idx, interval, gen in jobs:
        if len(member_idx) == 0:
            raise ValueError("a descent job has an empty carrier")
        if gen < 0:
            raise ValueError("gen must be >= 0")
        sides.append(rho**side_exponent(interval.length, gen, rho))
        frames.append((*direction_vector(interval.center), interval.length,
                       rho**gen, 3.0 * rho**gen))
        arrays.setdefault(id(points), points)
    # the atoms of every carrier as rows of one stacked point array
    offset = dict(zip(arrays, np.cumsum([0] + [len(p) for p in arrays.values()]).tolist()))
    stacked = np.concatenate([np.asarray(p, dtype=float) for p in arrays.values()])
    idx = np.concatenate([np.asarray(job[1], dtype=np.int64) for job in jobs])
    sizes = [len(job[1]) for job in jobs]
    carrier = np.repeat(np.arange(len(jobs)), sizes)
    coords = stacked[idx + np.repeat([offset[id(job[0])] for job in jobs], sizes)]

    order, first = cell_order(idx, coords, np.repeat(sides, sizes), carrier)
    atoms, carrier = idx[order], carrier[order]
    cell = np.cumsum(first) - 1
    centers = atoms[first]

    # greedy maximal nets over the cell centers of every carrier, each swept
    # in lexicographic order of the center coordinates. A round takes the
    # first free center of every carrier that has one and adds one d_J value
    # per cell of those carriers that no net point is "very close" to yet:
    # centers within sep are no longer free, and every cell keeps the first
    # net point very close to it (close) and the first within sep (near).
    c = coords[order[first]]
    sweep = np.lexsort((c[:, 1], c[:, 0], carrier[first]))
    c, car = c[sweep], carrier[first][sweep]
    ex, ey, length, very_close, sep = (np.array(col) for col in zip(*frames))
    free = np.ones(len(c), dtype=bool)
    close = np.full(len(c), -1)
    near = np.full(len(c), -1)
    net: list[np.ndarray] = []
    pending = np.arange(len(c))
    count = 0
    while True:
        fr = pending[free[pending]]
        if not len(fr):
            break
        t = fr[np.r_[True, car[fr[1:]] != car[fr[:-1]]]]
        slot = np.full(len(jobs), -1)
        slot[car[t]] = np.arange(len(t))
        pending = pending[slot[car[pending]] >= 0]
        own = slot[car[pending]]
        j = car[pending]
        e = (ex[j], ey[j])
        d = np.hypot(*_metric_coords(e, length[j], c[pending] - c[t[own]]))
        free[pending] &= d > sep[j]
        hit = d <= very_close[j] + TOL
        close[pending[hit]] = count + own[hit]
        reach = (near[pending] < 0) & (d <= sep[j] + TOL)
        near[pending[reach]] = count + own[reach]
        net.append(t)
        count += len(t)
        pending = pending[~hit]
    owner = np.where(close >= 0, close, near)
    if np.any(owner < 0):
        raise AssertionError("net maximality violated: no pretty-close net point")

    # the atoms grouped by (carrier, net point), each group ascending; within
    # a carrier the net points keep their round order, which is sweep order
    net_pos = np.concatenate(net)
    by_carrier = np.argsort(car[net_pos], kind="stable")
    cell_owner = np.empty(len(c), dtype=np.int64)
    cell_owner[sweep] = owner
    atom_owner = cell_owner[cell]
    grouped = atoms[np.lexsort((atoms, atom_owner, carrier))]
    sizes = np.bincount(atom_owner, minlength=count)[by_carrier]
    bounds = np.r_[0, np.cumsum(sizes)].tolist()
    net_atoms = centers[sweep][net_pos[by_carrier]].tolist()
    per_job = np.bincount(car[net_pos], minlength=len(jobs)).tolist()
    out, q = [], 0
    for (_, _, interval, gen), n_net in zip(jobs, per_job):
        out.append([AnisoCube(grouped[bounds[i]:bounds[i + 1]], net_atoms[i], gen, interval, rho)
                    for i in range(q, q + n_net)])
        q += n_net
    return out


def check_cube_invariants(points: np.ndarray, carrier_idx: np.ndarray,
                          cubes: Sequence[AnisoCube]) -> dict:
    """Exact lattice invariants: partition, sandwich (0.5 / 4 radii at each
    cube's own scale rho^level), separation.

    Returns a report dict; every boolean is an exact (tolerance TOL) check.
    """
    pts = np.asarray(points, dtype=float)
    carrier = np.sort(np.asarray(carrier_idx, dtype=np.int64))
    all_atoms = np.sort(np.concatenate([c.atom_idx for c in cubes])) if cubes else np.array([])
    partition = bool(len(all_atoms) == len(carrier) and np.all(all_atoms == carrier))

    # per interval: one d_J call for every (cube, own atom) pair, and per block
    # of cubes one for every (cube, carrier atom) and (cube, cube center) pair
    sandwich_outer = True
    sandwich_inner = True
    separation = True
    max_rel_dist = 0.0
    min_sep = math.inf
    by_interval: dict[DirectionInterval, list[AnisoCube]] = {}
    for c in cubes:
        by_interval.setdefault(c.interval, []).append(c)
    for interval, group in by_interval.items():
        scale = np.array([c.rho**c.level for c in group])
        centers = pts[[c.center_idx for c in group]]
        owner = np.repeat(np.arange(len(group)), [len(c) for c in group])
        atoms = np.concatenate([c.atom_idx for c in group])
        d = d_metric_many(interval, centers[owner], pts[atoms])
        if len(d):
            max_rel_dist = max(max_rel_dist, float((d / scale[owner]).max()))
        if np.any(d > 4.0 * scale[owner] + TOL):
            sandwich_outer = False
        for block in row_blocks(len(group), len(pts) + len(group)):
            rows = np.arange(block.start, block.stop)
            s = scale[rows, None]
            dc = d_metric_many(interval, centers[rows, None], pts[carrier])
            member = np.zeros((len(rows), len(pts)), dtype=bool)
            own = (owner >= block.start) & (owner < block.stop)
            member[owner[own] - block.start, atoms[own]] = True
            if not np.all(member[:, carrier][dc < 0.5 * s]):
                sandwich_inner = False
            # separation from each cube to the later cubes of its interval
            later = np.arange(len(group)) > rows[:, None]
            if later.any():
                ds = d_metric_many(interval, centers[rows, None], centers)
                min_sep = min(min_sep, float((ds / s)[later].min()))
                if np.any((ds <= 3.0 * s)[later]):
                    separation = False

    return {
        "partition": partition,
        "sandwich_outer": sandwich_outer,
        "sandwich_inner": sandwich_inner,
        "net_separation": separation,
        "max_center_dist_over_scale": max_rel_dist,
        "min_net_separation_over_scale": None if math.isinf(min_sep) else min_sep,
        "cube_count": len(cubes),
    }
