"""The good-direction tree: stage families, shattering, packing, propagation.

Pipeline order: per-point families of good triadic direction intervals come in
(from selection or synthetic fixtures), each a list of triadic intervals;
``build_good_stages`` prunes them to the energy-controlled stages;
``build_tree`` grows the tree of anisotropic cubes adapted to the very good
directions, with the shattering procedure that narrows the direction interval
at a fixed generation, and each node reads its generation and interval from
its cube; ``verify_tree`` checks the structural properties exhaustively;
``packing_sums`` measures the packing quantities, and ``bad_chain_check``
bounds each point's energy by the bad cubes containing it;
``propagate_good_directions`` iterates the stage construction until the
finished set is large, and stops at a stage check that fails. The stages keep
the config they were built with, and every later step reads it from them. The
bad cubes are a cached property of the tree, so no check depends on which ran
first.

All interval-measure arithmetic runs in integer units of 3^-D for a common
depth D, so coverage tests and packing sums are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import ExperimentConfig, write_json
from .conical import bad_scale_table, conical_energy, scale_ceiling
from .lattice import AnisoCube, descend_all
from .sets import DiscreteMeasure
from .torus import TOL, AngleInterval, TriadicInterval, d_metric_many, row_blocks, wrap

MAX_ROUNDS = 64     # hard cap on propagation rounds
# the stage checks of build_good_stages that stop propagation when False
STAGE_CHECKS = ("chebyshev_e0", "g0_covers", "g1_large")


# ---------------------------------------------------------------------------
# exact triadic interval arithmetic (integer units)
# ---------------------------------------------------------------------------


class TriadicUnits:
    """Lengths and intersections of triadic intervals in units of 3^-depth."""

    def __init__(self, depth: int):
        self.depth = depth
        self.scale = 3**depth

    def length(self, iv: TriadicInterval) -> int:
        if iv.level > self.depth:
            raise ValueError(f"interval level {iv.level} below unit depth {self.depth}")
        return 3 ** (self.depth - iv.level)

    def bounds(self, iv: TriadicInterval) -> tuple[int, int]:
        u = self.length(iv)
        return iv.index * u, (iv.index + 1) * u

    def union_length(self, ivs: Iterable[TriadicInterval]) -> int:
        spans = sorted(self.bounds(iv) for iv in ivs)
        total, cur_hi = 0, None
        for lo, hi in spans:
            if cur_hi is None or lo >= cur_hi:
                total += hi - lo
                cur_hi = hi
            elif hi > cur_hi:
                total += hi - cur_hi
                cur_hi = hi
        return total

    def cover_length(self, target: TriadicInterval, ivs: Iterable[TriadicInterval]) -> int:
        return self.union_length(_clip_to(target, list(ivs)))

    def to_float(self, units: int) -> float:
        return units / self.scale


def maximal_intervals(ivs: Sequence[TriadicInterval]) -> list[TriadicInterval]:
    """Maximal members of a family of triadic intervals (containment order)."""
    out: list[TriadicInterval] = []
    for iv in sorted(set(ivs)):
        if not any(kept.contains(iv) for kept in out):
            out.append(iv)
    return out


# ---------------------------------------------------------------------------
# stage construction
# ---------------------------------------------------------------------------


@dataclass
class GoodStages:
    """Per-point direction families and the derived energy-controlled stages."""

    atoms: DiscreteMeasure
    root_iv: TriadicInterval
    m_bound: float
    eps: float
    params: ExperimentConfig                 # the config the stages were built with
    units: TriadicUnits
    eprime: np.ndarray                       # bool mask over atoms
    families: dict[int, list[TriadicInterval]]   # per-selected-atom direction families
    energy_threshold: float                  # twice-average energy cutoff
    controlled: np.ndarray                   # energy-controlled subset of selected
    cover: dict[int, list[TriadicInterval]]
    filtered: dict[int, list[TriadicInterval]]
    core: dict[int, list[TriadicInterval]]
    full_cover: np.ndarray                   # controlled points whose cover is the root
    scale_budget: float
    checks: dict

    def core_universe(self) -> list[TriadicInterval]:
        return sorted({iv for ivs in self.core.values() for iv in ivs})

    def core_carriers(self, interval: TriadicInterval) -> np.ndarray:
        return np.array(sorted(i for i, ivs in self.core.items() if interval in ivs),
                        dtype=np.int64)


def _maximal_cover(root_iv: TriadicInterval, members: Sequence[TriadicInterval],
                   units: TriadicUnits, eps: float) -> list[TriadicInterval]:
    """Maximal triadic descendants of the root covered by the members to
    fraction at least 1 - eps, in depth-first order."""
    out: list[TriadicInterval] = []
    todo = [root_iv]
    while todo:
        iv = todo.pop()
        cov = units.cover_length(iv, members)
        if cov == 0:
            continue
        need = (1.0 - eps) * units.length(iv)
        if cov >= need - 1e-9:
            out.append(iv)
        else:
            todo.extend(reversed(iv.children()))
    return out


def _clip_to(target: TriadicInterval, members: Sequence[TriadicInterval]
             ) -> list[TriadicInterval]:
    """target n union(members) as a list of triadic intervals (members nested)."""
    pieces = []
    for m in members:
        if target.contains(m):
            pieces.append(m)
        elif m.contains(target):
            return [target]
    return pieces


def _stage_constants(root_iv: TriadicInterval, a_const: float, m_bound: float,
                     params: ExperimentConfig) -> tuple[float, TriadicUnits]:
    """The stages' coverage slack eps = c_eps / (A M) and their exact units,
    3^-D with D the root's level plus the family depth plus three."""
    return (params.c_eps / (a_const * m_bound),
            TriadicUnits(root_iv.level + params.triadic_depth + 3))


def build_good_stages(atoms: DiscreteMeasure, eprime: np.ndarray,
                      families: dict[int, list[TriadicInterval]], root_iv: TriadicInterval,
                      a_const: float, m_bound: float, params: ExperimentConfig) -> GoodStages:
    """Prune per-point families to the energy-controlled stage families.

    The controlled set keeps the points whose energy over the family union is
    at most twice the average (plus one); the cover family is the maximal
    triadic cover of the union at coverage 1 - eps; the filtered family drops
    cover members with oversized per-interval energy; the core family takes
    their middle children. Verified side conditions land in `checks`.

    Atoms share few distinct families, so what a family alone decides (its
    validation, cover, lengths and coverage checks) is computed once per
    family; each atom keeps its own lists. A cover member that holds the
    whole family has the family's direction set, so its energy is the atom's
    stage energy; only the other (atom, member) pairs go to the piece call.
    """
    eps, units = _stage_constants(root_iv, a_const, m_bound, params)
    eprime = np.asarray(eprime, dtype=bool)
    emass = math.fsum(atoms.weights[eprime].tolist())
    if emass <= 0.0:
        raise ValueError("the selected set carries no mass")

    # atoms share few distinct families: number them in order of first
    # appearance, and validate each once, naming its first atom
    number: dict[tuple[TriadicInterval, ...], int] = {}
    fam_no = {i: number.setdefault(tuple(ivs), len(number)) for i, ivs in families.items()}
    distinct = list(number)
    first_atom: dict[int, int] = {}
    for i, k in fam_no.items():
        first_atom.setdefault(k, i)
    for k, i in first_atom.items():
        fam = distinct[k]
        for iv in fam:
            if not root_iv.contains(iv):
                raise ValueError(f"family interval {iv} of atom {i} outside the root interval")
        if len(maximal_intervals(fam)) != len(fam):
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

    # per family of a controlled atom: its cover and, per cover member, the
    # family pieces inside it, their length and the member's energy bound
    fam_of = {i: fam_no[i] for i in np.nonzero(controlled)[0].tolist()}
    cover_of = {k: _maximal_cover(root_iv, distinct[k], units, eps)
                for k in dict.fromkeys(fam_of.values())}
    pieces_of = {k: [_clip_to(iv, distinct[k]) for iv in cover] for k, cover in cover_of.items()}
    piece_len = {k: [units.union_length(p) for p in pieces] for k, pieces in pieces_of.items()}
    fam_len = {k: units.union_length(distinct[k]) for k in cover_of}
    g0_len = {k: units.union_length(cover) for k, cover in cover_of.items()}
    g0_covers_ok = all(units.cover_length(root_iv, cover) >= fam_len[k]
                       for k, cover in cover_of.items())

    # the filtered family keeps the cover members whose energy over the
    # family pieces inside them is at most 4 (H(J) / H(G_0)) times the threshold
    bound = {k: [4.0 * (units.length(iv) / g0_len[k]) * energy_threshold + TOL for iv in cover]
             for k, cover in cover_of.items()}
    # a member holding the whole family reads the atom's stage energy; the
    # other (atom, member) pairs go to one piece call
    stage_energy = dict(zip(selected.tolist(), energies))
    part = {k: [j for j, p in enumerate(pieces) if tuple(p) != distinct[k]]
            for k, pieces in pieces_of.items()}
    pairs = [(i, j) for i, k in fam_of.items() for j in part[k]]
    profiles = conical_energy(atoms, atoms.points[[i for i, _ in pairs]],
                              [pieces_of[fam_of[i]][j] for i, j in pairs], params.rho, high) \
        if pairs else []
    piece_energy = {pair: prof.total_float for pair, prof in zip(pairs, profiles)}
    kept = {i: [j for j, b in enumerate(bound[k])
                if piece_energy.get((i, j), stage_energy[i]) <= b] for i, k in fam_of.items()}

    cover = {i: list(cover_of[k]) for i, k in fam_of.items()}
    filtered = {i: [cover[i][j] for j in kept[i]] for i in fam_of}
    core = {i: [iv.middle_child() for iv in ivs] for i, ivs in filtered.items()}
    g1_large_ok = all(sum(piece_len[k][j] for j in kept[i]) >= fam_len[k] / 3.0 - 1e-9
                      for i, k in fam_of.items())
    interval_budget = max([m_bound] + [energy_threshold / units.to_float(g0_len[k])
                                       for k in cover_of])

    full_cover = np.zeros(len(atoms), dtype=bool)
    for i, k in fam_of.items():
        full_cover[i] = cover_of[k] == [root_iv]

    checks = {
        "chebyshev_e0": chebyshev_ok,
        "e0_mass_fraction": e0_mass / emass,
        "g1_large": g1_large_ok,
        "g0_covers": g0_covers_ok,
    }
    return GoodStages(atoms, root_iv, m_bound, eps, params, units, eprime, families,
                      energy_threshold, controlled, cover, filtered, core, full_cover,
                      a_const * interval_budget, checks)


@dataclass
class FamilyGrowth:
    families: dict[int, list[TriadicInterval]]
    finished_mask: np.ndarray
    containment_ok: bool
    growth_ok: bool
    min_growth_ratio: float      # smallest unfinished growth over eps * old length


def grow_families(stages: GoodStages) -> FamilyGrowth:
    """New families: maximal intervals among the old members and the parents
    of the filtered-stage members.

    Points outside the controlled set keep their family; points whose cover
    family is already the whole root interval jump straight to it. Verifies
    the two-sided containment and the measured unfinished growth against the
    rigorous (eps/3) bound.
    """
    units = stages.units
    out: dict[int, list[TriadicInterval]] = {}
    root_iv = stages.root_iv
    e_fin = np.zeros(len(stages.atoms), dtype=bool)
    containment_ok = True
    min_ratio = math.inf

    for i in np.nonzero(stages.eprime)[0]:
        i = int(i)
        old_ivs = stages.families[i]
        if not stages.controlled[i]:
            out[i] = list(old_ivs)
            continue
        if stages.full_cover[i]:
            out[i] = [root_iv]
            e_fin[i] = True
            continue
        parents = [iv.parent() for iv in stages.filtered[i]]
        merged = maximal_intervals(old_ivs + parents)
        out[i] = merged

        for iv in old_ivs:
            if not any(m.contains(iv) for m in merged):
                containment_ok = False
        for m in merged:
            if not any(m.contains(iv) for iv in old_ivs):
                containment_ok = False

        old_len = units.union_length(old_ivs)
        new_len = units.union_length(merged)
        if new_len >= units.length(root_iv):
            e_fin[i] = True
        if not e_fin[i] and old_len > 0:
            ratio = (new_len - old_len) / (stages.eps * old_len)
            min_ratio = min(min_ratio, ratio)

    growth_ok = min_ratio >= 1.0 / 3.0 - 1e-9 if math.isfinite(min_ratio) else True
    return FamilyGrowth(out, e_fin, containment_ok, growth_ok,
                       min_ratio if math.isfinite(min_ratio) else math.nan)


# ---------------------------------------------------------------------------
# good intervals at a scale
# ---------------------------------------------------------------------------


def good_at_scale_all(stages: GoodStages, scales: Iterable[int]
                      ) -> dict[int, dict[int, list[TriadicInterval]]]:
    """Per scale k of `scales`, the good intervals of every atom: the maximal
    intervals I carried by a controlled point within the d_I-ball of radius
    10 rho^k around the atom. Each core interval's least d_I from each atom to
    its carriers does not depend on k: one blocked scan, thresholded per k."""
    pts = stages.atoms.points
    minima = []
    for interval in stages.core_universe():
        carriers = stages.core_carriers(interval)
        dmin = np.full(len(pts), math.inf)
        for block in row_blocks(len(carriers), len(pts)):
            d = d_metric_many(interval, pts[carriers[block], None], pts)
            np.minimum(dmin, d.min(axis=0), out=dmin)
        minima.append((interval, dmin))
    out = {}
    for k in scales:
        radius = 10.0 * stages.params.rho**k
        raw: list[list[TriadicInterval]] = [[] for _ in range(len(pts))]
        for interval, dmin in minima:
            for i in np.flatnonzero(dmin < radius).tolist():
                raw[i].append(interval)
        out[k] = {i: maximal_intervals(ivs) for i, ivs in enumerate(raw)}
    return out


# ---------------------------------------------------------------------------
# the tree
# ---------------------------------------------------------------------------


@dataclass
class TreeNode:
    """A node of the tree: its cube, whose level and interval are the node's
    generation and direction interval, and its place in the forest."""

    cube: AnisoCube
    tag: str                       # "root0" | "good" | "root"
    parent: Optional[int]
    root_id: int
    children: list[int] = field(default_factory=list)

    @property
    def generation(self) -> int:
        return self.cube.level

    @property
    def interval(self) -> TriadicInterval:
        return self.cube.interval


@dataclass
class StoppedPiece:
    """A shattered or ended piece that did not join the tree."""

    kind: str                      # "end" | "sh"
    cube: AnisoCube
    parent_node: int


@dataclass
class DirectionTree:
    stages: GoodStages
    nodes: dict[int, TreeNode]
    generations: list[list[int]]
    roots: list[int]
    stopped: list[StoppedPiece]
    # good_at_scale_all(stages, range(1, k_max + 1)), as build_tree grew the tree
    good_by_scale: dict[int, dict[int, list[TriadicInterval]]]
    _cover: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def goodness_integral(self, k: int, atom_idx: np.ndarray,
                          interval: TriadicInterval) -> tuple[float, float]:
        """(integral over the piece of |interval n good(y, k)| dmu(y), (1 - eps) *
        interval length * piece mass), from one cover-length table per (k, interval),
        filled on demand from good_by_scale and shared by build_tree and verify_tree."""
        units = self.stages.units
        if (k, interval) not in self._cover:
            good_k = self.good_by_scale[k]
            # atoms share few distinct good families: one length per family
            length = cache(lambda ivs: units.to_float(units.cover_length(interval, ivs)))
            self._cover[k, interval] = np.array(
                [length(tuple(good_k[i])) for i in range(len(self.stages.atoms))])
        w = self.stages.atoms.weights[atom_idx]
        lhs = math.fsum((w * self._cover[k, interval][atom_idx]).tolist())
        return lhs, (1.0 - self.stages.eps) * units.to_float(units.length(interval)) * \
            math.fsum(w.tolist())

    def node_mass(self, node_id: int) -> float:
        return self.nodes[node_id].cube.mass(self.stages.atoms.weights)

    @cached_property
    def bad_ids(self) -> frozenset[int]:
        """Nodes Q of generation g with some member x whose annulus cone
        X(x, 15 J_Q, rho^{g+1}, rho^g) meets the atoms, i.e. g is a bad scale
        of x for 15 J_Q."""
        return frozenset(nid for nid, hit in _bad_scale_tables(self, 15.0).items()
                         if hit[:, -1].any())

    def to_json(self, path) -> None:
        """Forest dump with per-node {generation, interval, atom_ids, tag, bad}."""
        write_json(path, [{
            "id": nid, "generation": node.generation,
            "interval": {"level": node.interval.level, "index": node.interval.index},
            "atom_ids": node.cube.atom_idx.tolist(),
            "tag": node.tag, "parent": node.parent, "root": node.root_id,
            "bad": nid in self.bad_ids,
        } for nid, node in sorted(self.nodes.items())])


def _sees_core_direction(stages: GoodStages, atom_idx: np.ndarray, interval: TriadicInterval) -> bool:
    for i in atom_idx:
        if stages.controlled[i] and any(interval.intersects(iv) for iv in stages.core[int(i)]):
            return True
    return False


def _owns_core_interval(stages: GoodStages, atom_idx: np.ndarray, interval: TriadicInterval) -> bool:
    return any(stages.controlled[i] and interval in stages.core[int(i)] for i in atom_idx)


@dataclass
class _Piece:
    """A piece of the shattering cascade: its cube, the node it hangs from,
    its fate ("end", "sh", or the tag of the node it becomes) and, once
    shattered, the pieces of its three child intervals."""

    cube: AnisoCube
    parent: int
    fate: str = ""
    subs: list[_Piece] = field(default_factory=list)


def build_tree(stages: GoodStages) -> DirectionTree:
    """Grow the direction tree of anisotropic cubes, with the stages' config.

    Generation 0 takes the cubes of the root-adapted partition that meet the
    controlled set. Each child piece is placed by one rule: a piece that sees
    no core direction ends; a child of a node joins the tree if it carries
    the near-full goodness integral, a shattered piece if it owns a core
    interval; any other piece shatters over the triadic children of its
    interval. Shattering deeper than the family depth indicates a
    construction bug and raises.

    A piece's fate depends only on the piece, so each generation's pieces
    are decided one shattering depth at a time: the nodes of a generation
    descend in one call, and so do the three child intervals of every piece
    that shatters at one depth. The nodes and stopped pieces are then
    emitted depth-first, piece by piece, so node ids follow the order of
    placing each piece as it comes.
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

    def decide(piece: AnisoCube, depth: int) -> str:
        interval = piece.interval
        if not _sees_core_direction(stages, piece.atom_idx, interval):
            return "end"
        if depth == 0:
            lhs, rhs = tree.goodness_integral(piece.level, piece.atom_idx, interval)
            joins, tag = lhs >= rhs - 1e-12, "good"
        else:
            joins, tag = _owns_core_interval(stages, piece.atom_idx, interval), "root"
        if joins:
            return tag
        if depth >= depth_cap:
            raise RuntimeError(
                f"shattering did not terminate by depth {depth} at generation "
                f"{piece.level}; interval {interval}, atoms {piece.atom_idx[:8]}")
        return "sh"

    for k in range(params.k_max):
        jobs = [(pts, nodes[nid].cube.atom_idx, nodes[nid].interval, k + 1)
                for nid in generations[k]]
        placed = [_Piece(piece, nid) for nid, pieces in zip(generations[k], descend_all(jobs, rho))
                  for piece in pieces]
        level, depth = placed, 0
        while level:
            for p in level:
                p.fate = decide(p.cube, depth)
            shattered = [p for p in level if p.fate == "sh"]
            if not shattered:
                break
            # the shattered pieces keep the generation and take the child intervals
            out = descend_all([(pts, p.cube.atom_idx, j_child, p.cube.level)
                               for p in shattered for j_child in p.cube.interval.children()], rho)
            for n, p in enumerate(shattered):
                p.subs = [_Piece(sub, p.parent) for subs in out[3 * n:3 * n + 3] for sub in subs]
            level, depth = [sub for p in shattered for sub in p.subs], depth + 1
        todo = placed[::-1]
        while todo:
            p = todo.pop()
            if p.fate in ("end", "sh"):
                stopped.append(StoppedPiece(p.fate, p.cube, p.parent))
                todo.extend(reversed(p.subs))
            else:
                new_node(p.cube, p.fate, p.parent)
    return tree


def _bad_scale_tables(tree: DirectionTree, dilation: float) -> dict[int, np.ndarray]:
    """Per node Q of generation g, hit[a, k] for each member a and k in
    [0, g]: whether k is a bad scale of a for dilation * J_Q, from one table
    per interval over its nodes' members, up to its deepest generation."""
    pts, rho = tree.stages.atoms.points, tree.stages.params.rho
    groups: dict[TriadicInterval, list[tuple[int, TreeNode]]] = {}
    for nid, node in tree.nodes.items():
        groups.setdefault(node.interval, []).append((nid, node))
    out: dict[int, np.ndarray] = {}
    for interval, group in groups.items():
        held = np.zeros(len(pts), dtype=bool)
        held[np.concatenate([node.cube.atom_idx for _, node in group])] = True
        row = np.cumsum(held) - 1                 # atom -> its row of the table
        table = bad_scale_table(pts, pts[held], interval.dilate(dilation), rho,
                                max(node.generation for _, node in group))
        out.update((nid, table[row[node.cube.atom_idx], :node.generation + 1])
                   for nid, node in group)
    return out


def _atom_holders(tree: DirectionTree) -> list[dict[int, list[int]]]:
    """Per generation, atom -> ids of the nodes of that generation holding
    it, in generation-list order."""
    holders = []
    for gen in tree.generations:
        by_atom: dict[int, list[int]] = {}
        for nid in gen:
            for a in tree.nodes[nid].cube.atom_idx.tolist():
                by_atom.setdefault(a, []).append(nid)
        holders.append(by_atom)
    return holders


def _roots_packing(tree: DirectionTree) -> dict:
    """Roots packing sum against the eps^-1 * root-length * mass budget."""
    stages = tree.stages
    units = stages.units
    roots_sum = math.fsum(
        units.to_float(units.length(tree.nodes[r].interval)) * tree.node_mass(r)
        for r in tree.roots)
    budget = (1.0 / stages.eps) * units.to_float(units.length(stages.root_iv)) * \
        math.fsum(stages.atoms.weights.tolist())
    return {
        "roots_sum": roots_sum,
        "roots_budget": budget,
        "roots_within_budget": roots_sum <= budget + 1e-9,
    }


def packing_sums(tree: DirectionTree) -> dict:
    """Roots and bad packing sums: the roots against their budget, and the
    interval-length-times-mass sum of the bad cubes."""
    units = tree.stages.units
    bad_sum = math.fsum(
        units.to_float(units.length(tree.nodes[b].interval)) * tree.node_mass(b)
        for b in tree.bad_ids)
    return {**_roots_packing(tree), "bad_sum": bad_sum}


# ---------------------------------------------------------------------------
# the exhaustive property checker
# ---------------------------------------------------------------------------


C_BAD = 64.0     # bad scales per point allowed, in units of the stage scale budget

# the pass/fail flags of verify_tree, all of which all_pass requires
TREE_PROPERTIES = ("sandwich_balls", "goodness_integral", "unique_ancestor",
                   "product_disjointness", "roots_packing",
                   "subtree_interval_constant", "core_covering",
                   "bad_scale_budget", "children_products_nested_disjoint")


def _sandwich_balls(tree: DirectionTree) -> bool:
    """Each node Q of generation g holds the atoms of the Euclidean ball of radius
    H(J_Q) rho^(g+3) about its center and lies in the d_J ball of radius 4 rho^g:
    one block of each per (interval, generation), in row blocks of nodes."""
    units, pts, rho = tree.stages.units, tree.stages.atoms.points, tree.stages.params.rho
    groups: dict[tuple[TriadicInterval, int], list[TreeNode]] = {}
    for node in tree.nodes.values():
        groups.setdefault((node.interval, node.generation), []).append(node)
    for (interval, g), group in groups.items():
        r_in = units.to_float(units.length(interval)) * rho ** (g + 3)
        for block in (group[part] for part in row_blocks(len(group), len(pts))):
            centers = pts[[node.cube.center_idx for node in block]]
            rows = np.repeat(np.arange(len(block)), [len(node.cube) for node in block])
            atoms = np.concatenate([node.cube.atom_idx for node in block])
            outside = np.ones((len(block), len(pts)), dtype=bool)
            outside[rows, atoms] = False
            d_euc = np.hypot(pts[:, 0] - centers[:, 0, None], pts[:, 1] - centers[:, 1, None])
            if np.any((d_euc <= r_in - TOL) & outside) or np.any(
                    d_metric_many(interval, centers[rows], pts[atoms]) > 4.0 * rho**g + TOL):
                return False
    return True


def verify_tree(tree: DirectionTree) -> dict:
    """Exhaustive structural checks of the tree; returns named pass/fail flags
    plus the measured constants. Everything is exact on atoms (tolerance TOL).
    """
    stages = tree.stages
    report: dict = {}

    atom_sets = {nid: frozenset(node.cube.atom_idx.tolist())
                 for nid, node in tree.nodes.items()}

    report["sandwich_balls"] = _sandwich_balls(tree)

    # goodness integral for every node of generation >= 1, on the good
    # intervals build_tree computed for its scale
    report["goodness_integral"] = all(
        lhs >= rhs - 1e-9 for k in range(1, len(tree.generations)) for lhs, rhs in (
            tree.goodness_integral(k, tree.nodes[nid].cube.atom_idx, tree.nodes[nid].interval)
            for nid in tree.generations[k]))

    # unique ordering ancestor; same/lower generations nest or split. Only a
    # node sharing an atom with q can hold all of q's atoms or meet q's
    # product, so q is compared with the holders of its atoms alone.
    t3 = True
    t4 = True
    holders = _atom_holders(tree)
    for k, gen in enumerate(tree.generations):
        for l in range(k + 1):
            for q in gen:
                qn = tree.nodes[q]
                hits = 0
                near = {p for a in atom_sets[q] for p in holders[l].get(a, ())} \
                    if atom_sets[q] else tree.generations[l]
                for p in near:
                    pn = tree.nodes[p]
                    atoms_sub = atom_sets[q] <= atom_sets[p]
                    ivs_sub = pn.interval.contains(qn.interval)
                    if atoms_sub and ivs_sub:
                        hits += 1
                    else:
                        atoms_meet = bool(atom_sets[q] & atom_sets[p])
                        ivs_meet = qn.interval.intersects(pn.interval)
                        if atoms_meet and ivs_meet and not (k == l and p == q):
                            t4 = False
                if hits != 1:
                    t3 = False
    report["unique_ancestor"] = t3
    report["product_disjointness"] = t4

    # roots packing
    packing = _roots_packing(tree)
    report["roots_packing"] = packing["roots_within_budget"]
    report["roots_sum"] = packing["roots_sum"]
    report["roots_budget"] = packing["roots_budget"]

    # constant interval inside each subtree
    report["subtree_interval_constant"] = all(
        node.interval == tree.nodes[node.root_id].interval for node in tree.nodes.values())

    # unique covering node per controlled point, core interval, scale
    report["core_covering"] = all(
        sum(tree.nodes[nid].interval.contains(j) for nid in by_atom.get(i, ())) == 1
        for by_atom in holders
        for i in np.nonzero(stages.controlled)[0].tolist() for j in stages.core[i])

    # the most bad scales of any member against C * scale_budget
    top = max((int(hit.sum(axis=1).max(initial=0))
               for hit in _bad_scale_tables(tree, 0.8).values()), default=0)
    report["bad_scale_budget"] = top <= C_BAD * stages.scale_budget + TOL
    report["bad_scale_max_ratio"] = top / stages.scale_budget

    # children's products are pairwise disjoint inside the parent's
    chc = True
    for nid, node in tree.nodes.items():
        kids = node.children
        for a_i in range(len(kids)):
            a = tree.nodes[kids[a_i]]
            if not (atom_sets[kids[a_i]] <= atom_sets[nid]
                    and node.interval.contains(a.interval)):
                chc = False
            for b_i in range(a_i + 1, len(kids)):
                b = tree.nodes[kids[b_i]]
                if (atom_sets[kids[a_i]] & atom_sets[kids[b_i]]) \
                        and a.interval.intersects(b.interval):
                    chc = False
    report["children_products_nested_disjoint"] = chc

    report["all_pass"] = all(bool(report[key]) for key in TREE_PROPERTIES)
    return report


def bad_chain_check(tree: DirectionTree) -> dict:
    """Pointwise reduction of energies to the bad-cube sum: for controlled x,
    the energy over the union of the widened core intervals is at most
    C * M * (sum of interval lengths of the bad cubes containing x); records
    the worst C."""
    stages = tree.stages
    units = stages.units
    pts = stages.atoms.points
    worst = 0.0
    zero_violations = 0
    holders = _atom_holders(tree)
    cored = [i for i in np.nonzero(stages.controlled)[0].tolist() if stages.core[i]]
    profiles = conical_energy(
        stages.atoms, pts[cored],
        [_merge_angle_intervals([iv.dilate(15.0) for iv in stages.core[i]]) for i in cored],
        stages.params.rho, len(tree.generations) - 1)
    for i, prof in zip(cored, profiles):
        lhs = prof.total_float
        rhs = stages.m_bound * math.fsum(
            units.to_float(units.length(tree.nodes[nid].interval))
            for by_atom in holders for nid in by_atom.get(i, ()) if nid in tree.bad_ids)
        if rhs > 0.0:
            worst = max(worst, lhs / rhs)
        elif lhs > 1e-9:
            zero_violations += 1
    return {"max_constant": worst, "zero_rhs_violations": zero_violations}


def _merge_angle_intervals(ivs: list[AngleInterval]) -> list[AngleInterval]:
    """Merge overlapping arcs into disjoint arcs (input arcs not near-full)."""
    spans = sorted((wrap(iv.low), wrap(iv.low) + iv.length) for iv in ivs)
    merged: list[list[float]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1] + TOL:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    # wrap-around join: only the last arc can run past 1, over the first ones
    if len(merged) > 1 and merged[-1][1] >= 1.0 + merged[0][0] - TOL:
        lo, hi = merged.pop()
        lo, hi = lo - 1.0, hi - 1.0
        while merged and merged[0][0] <= hi + TOL:
            hi = max(hi, merged.pop(0)[1])
        merged.insert(0, [lo, hi])
    return [AngleInterval((lo + hi) / 2.0, min(0.5, (hi - lo) / 2.0)) for lo, hi in merged]


# ---------------------------------------------------------------------------
# propagation loop
# ---------------------------------------------------------------------------


@dataclass
class PropagationResult:
    finished_mask: np.ndarray
    rounds: int
    trace: list[dict]


def propagate_good_directions(atoms: DiscreteMeasure, eprime: np.ndarray,
                              families: dict[int, list[TriadicInterval]],
                              root_iv: TriadicInterval, a_const: float, m_bound: float,
                              params: ExperimentConfig) -> PropagationResult:
    """Iterate stage construction and family growth until the finished set
    (family union = the whole root interval) carries a quarter of the
    selected mass. A family is a list of triadic intervals. The result is
    the last round's finished mask, the round count and the per-round trace.

    The average family fraction grows by at least (eps/12) tau per
    unfinished round, so the loop ends within ceil(12 / (eps tau)) rounds;
    exceeding the cap (or MAX_ROUNDS) raises with the trace. A False stage
    check (STAGE_CHECKS) raises AssertionError naming the flag and round.
    """
    eprime = np.asarray(eprime, dtype=bool)
    emass = math.fsum(atoms.weights[eprime].tolist())
    eps, units = _stage_constants(root_iv, a_const, m_bound, params)
    # atoms share few distinct families: one length per family
    union_length = cache(lambda fam: units.union_length(fam))

    tau = math.inf
    for i in np.nonzero(eprime)[0]:
        fam = families.get(int(i), [])
        if not fam:
            raise ValueError(f"selected atom {i} has an empty family")
        ln = union_length(tuple(fam)) / units.length(root_iv)
        tau = min(tau, ln)
    if not (tau > 0.0):
        raise ValueError("family hypothesis fails: some family has zero length")

    cap = min(MAX_ROUNDS, math.ceil(12.0 / (eps * tau)) + 1)

    trace: list[dict] = []
    current = {i: list(f) for i, f in families.items()}
    prev_energy = None
    for round_no in range(1, cap + 1):
        stages = build_good_stages(atoms, eprime, current, root_iv, a_const, m_bound, params)
        failed = [flag for flag in STAGE_CHECKS if not stages.checks[flag]]
        if failed:
            raise AssertionError(f"stage propagation: round {round_no} fails the stage "
                                 f"check {', '.join(failed)}")
        gs = grow_families(stages)
        fin_mass = math.fsum(atoms.weights[gs.finished_mask].tolist())
        avg_len = math.fsum(
            atoms.weights[i] * union_length(tuple(current[int(i)]))
            / units.length(root_iv)
            for i in np.nonzero(eprime)[0]) / emass
        avg_energy = stages.energy_threshold - 1.0
        entry = {
            "round": round_no,
            "e_fin_mass_fraction": fin_mass / emass,
            "avg_family_fraction": avg_len,
            "avg_energy": avg_energy,
            "e0_mass_fraction": stages.checks["e0_mass_fraction"],
            "containment_ok": gs.containment_ok,
            "growth_ok": gs.growth_ok,
        }
        if prev_energy is not None:
            # assertion (3) measured: new average energy against the previous
            # round's energy plus the root-interval-length floor
            floor = units.to_float(units.length(root_iv))
            entry["energy_growth_constant"] = avg_energy / (prev_energy + floor)
        prev_energy = avg_energy
        trace.append(entry)
        if fin_mass >= emass / 4.0 - TOL:
            return PropagationResult(gs.finished_mask, round_no, trace)
        current = gs.families
    raise RuntimeError(
        f"propagation did not finish within {cap} rounds; trace: "
        + "; ".join(f"r{t['round']}: fin={t['e_fin_mass_fraction']:.3f}, "
                    f"avg={t['avg_family_fraction']:.4f}" for t in trace))

