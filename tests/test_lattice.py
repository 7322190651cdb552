import math
from collections import Counter

import numpy as np
import pytest

from favard.config import ExperimentConfig
from favard.fixtures import (cantor_horizontal_instance, single_line_instance,
                             stages_for, two_direction_instance)
from favard import lattice, torus
from favard.lattice import AnisoCube, cell_order, check_cube_invariants, descend_all, side_exponent
from favard.torus import TOL, AngleInterval, TriadicInterval, d_metric_many
from favard.tree import build_tree
from tests.reference import (BaseLattice, base_cells, children, d_metric, descend_one,
                             loop_descend, shatter, tile_pairs, whitney)


def reference_cell_center_atom(idx, key, side, coords):
    """The member atom nearest the cell's center, by one Python sort."""
    cx = (key[0] + 0.5) * side
    cy = (key[1] + 0.5) * side
    sub = coords[idx]
    d2 = (sub[:, 0] - cx) ** 2 + (sub[:, 1] - cy) ** 2
    order = sorted(range(len(idx)), key=lambda t: (d2[t], sub[t, 0], sub[t, 1], idx[t]))
    return int(idx[order[0]])


def reference_descend(points, member_idx, interval, gen, rho=0.5):
    """The cubes of one carrier with one scalar d_J per (cell, net point)
    pair: the oracle of the net sweep."""
    member_idx = np.asarray(member_idx, dtype=np.int64)
    m = side_exponent(interval.length, gen, rho)
    pts = np.asarray(points, dtype=float)
    cell_list = []
    for key, rel in base_cells(pts[member_idx], None, m, rho).items():
        idx = member_idx[rel]
        cell_list.append((key, idx, reference_cell_center_atom(idx, key, rho**m, pts)))

    sep = 3.0 * rho**gen
    order = sorted(range(len(cell_list)),
                   key=lambda t: (pts[cell_list[t][2]][0], pts[cell_list[t][2]][1]))
    net, net_pts = [], []
    for t in order:
        c = pts[cell_list[t][2]]
        if all(d_metric(interval, c, q) > sep for q in net_pts):
            net.append(cell_list[t][2])
            net_pts.append(c)

    groups = {i: [] for i in range(len(net))}
    very_close = rho**gen
    for key, idx, center in cell_list:
        dists = [d_metric(interval, pts[center], q) for q in net_pts]
        assigned = next((i for i, d in enumerate(dists) if d <= very_close + TOL), None)
        if assigned is None:
            assigned = next(i for i, d in enumerate(dists) if d <= sep + TOL)
        groups[assigned].append(idx)
    return [AnisoCube(np.sort(np.concatenate(parts)), net[i], gen, interval, rho)
            for i, parts in groups.items() if parts]


def reference_check_cube_invariants(points, carrier_idx, cubes):
    """check_cube_invariants cube by cube: the sandwich from one d_J row per
    cube and an `isin` of its inner atoms, the separation from one scalar d_J
    per pair of cube centers, each at the scale of the cube's own level.

    The partition entry comes from the library call.
    """
    report = check_cube_invariants(points, carrier_idx, cubes)
    carrier = np.sort(np.asarray(carrier_idx, dtype=np.int64))
    outer = inner = True
    max_rel = 0.0
    for c in cubes:
        scale = c.rho**c.level
        d = d_metric_many(c.interval, points[c.center_idx], points[c.atom_idx])
        if len(d):
            max_rel = max(max_rel, float(d.max()) / scale)
        if np.any(d > 4.0 * scale + TOL):
            outer = False
        dc = d_metric_many(c.interval, points[c.center_idx], points[carrier])
        if not np.all(np.isin(carrier[dc < 0.5 * scale], c.atom_idx)):
            inner = False
    separation = True
    min_sep = math.inf
    for i in range(len(cubes)):
        for j in range(i + 1, len(cubes)):
            if cubes[i].interval != cubes[j].interval:
                continue
            d = d_metric(cubes[i].interval, points[cubes[i].center_idx],
                         points[cubes[j].center_idx])
            scale = cubes[i].rho**cubes[i].level
            min_sep = min(min_sep, d / scale)
            if d <= 3.0 * scale:
                separation = False
    return {**report, "sandwich_outer": outer, "sandwich_inner": inner,
            "max_center_dist_over_scale": max_rel, "net_separation": separation,
            "min_net_separation_over_scale": None if math.isinf(min_sep) else min_sep}


def assert_same_cubes(got, want):
    assert [(c.atom_idx.tolist(), c.center_idx, c.level, c.interval, c.rho)
            for c in got] == \
        [(c.atom_idx.tolist(), c.center_idx, c.level, c.interval, c.rho)
         for c in want]


class TestSideRule:
    @pytest.mark.parametrize("h", [1.0, 1 / 3, 1 / 27, 0.123])
    @pytest.mark.parametrize("k,l", [(0, 0), (0, 1), (2, 0), (3, 2)])
    def test_unique_integer(self, h, k, l):
        rho = 0.5
        m = side_exponent(h, k + l, rho)
        assert h * rho ** (k + l + 2) < 5 * rho**m <= h * rho ** (k + l + 1)

    def test_shatter_grows_m(self):
        # re-shattering with a grandchild interval divides H(J) by 9 and the
        # side rule advances m accordingly
        rho = 0.5
        m0 = side_exponent(1 / 3, 2, rho)
        m2 = side_exponent(1 / 27, 2, rho)
        assert m2 > m0
        assert 1 / 27 * rho**4 < 5 * rho**m2 <= 1 / 27 * rho**3


class TestBaseCells:
    def test_far_atoms_distinct_cells(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        iv = AngleInterval(0.0, 0.5)  # length 1: mapped coords = rotated plane
        cells = base_cells(pts, iv, 0)
        assert len(cells) == 2

    def test_nesting_across_levels(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, size=(200, 2))
        iv = AngleInterval(0.3, 0.1)
        for m in (0, 1, 2, 3):
            coarse = base_cells(pts, iv, m)
            fine = base_cells(pts, iv, m + 1)
            owner = {}
            for key, idx in coarse.items():
                for i in idx:
                    owner[int(i)] = key
            for key, idx in fine.items():
                owners = {owner[int(i)] for i in idx}
                assert len(owners) == 1

    def test_metric_grid_scaling(self):
        # two atoms with perpendicular gap 0.3 under H(J) = 1/4: d_J = 1.2 < 2,
        # so they can share a side-2 cell; verified against d_metric directly
        iv = AngleInterval(0.0, 0.125)  # length 1/4
        pts = np.array([[0.0, 0.0], [0.0, 0.3]])
        assert d_metric(iv, pts[0], pts[1]) == pytest.approx(1.2)
        m = -1  # side rho^m = 2
        cells = base_cells(pts, iv, m)
        assert len(cells) == 1


class TestDescend:
    def test_single_cell_single_cube(self):
        pts = np.array([[0.5, 0.5]])
        j = TriadicInterval(1, 0)
        cubes = descend_one(pts, np.array([0]), j, 0)
        assert len(cubes) == 1
        assert list(cubes[0].atom_idx) == [0]

    def test_separated_line_one_cube_each(self):
        # atoms spaced 3.5 rho^gen apart in d_J: every center its own net point
        j = AngleInterval(0.25, 0.05)  # vertical tube metric; along y d_J = |dy|
        pts = np.column_stack([np.zeros(6), 3.5 * np.arange(6.0)])
        cubes = descend_one(pts, np.arange(6), j, 0)
        assert len(cubes) == 6

    def test_very_close_pair_merges(self):
        j = AngleInterval(0.25, 0.05)
        pts = np.array([[0.0, 0.0], [0.0, 0.8]])  # d_J = 0.8 < 1
        cubes = descend_one(pts, np.arange(2), j, 0)
        assert len(cubes) == 1

    def test_empty_carrier_rejected(self):
        with pytest.raises(ValueError):
            descend_one(np.zeros((1, 2)), np.array([], dtype=int), TriadicInterval(1, 0), 0)

    def test_partition_and_sandwich_random(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            n = int(rng.integers(20, 80))
            pts = rng.random((n, 2))
            h_iv = TriadicInterval(1, int(rng.integers(0, 3))) if trial % 2 == 0 \
                else TriadicInterval(3, int(rng.integers(0, 27)))
            k = int(rng.integers(0, 3))
            l = int(rng.integers(0, 2))
            cubes = descend_one(pts, np.arange(n), h_iv, k + l)
            rep = check_cube_invariants(pts, np.arange(n), cubes)
            assert rep["partition"]
            assert rep["sandwich_outer"]
            assert rep["sandwich_inner"]
            assert rep["net_separation"]
            assert rep["max_center_dist_over_scale"] <= 4.0

    def test_children_partition_parent(self):
        rng = np.random.default_rng(2)
        pts = rng.random((60, 2))
        j = TriadicInterval(2, 3)
        parents = descend_one(pts, np.arange(60), j, 0)
        for p in parents:
            kids = children(pts, p)
            rep = check_cube_invariants(pts, p.atom_idx, kids)
            assert rep["partition"] and rep["sandwich_outer"]

    def test_shatter_keeps_generation(self):
        rng = np.random.default_rng(3)
        pts = rng.random((60, 2))
        j = TriadicInterval(1, 1)
        parents = descend_one(pts, np.arange(60), j, 0)
        p = max(parents, key=len)
        pieces = shatter(pts, p, j.children()[1])
        assert all(q.level == p.level for q in pieces)
        rep = check_cube_invariants(pts, p.atom_idx, pieces)
        assert rep["partition"] and rep["net_separation"]

    def test_mass_lower_bound_recorded(self):
        # mu(Q) >= c A^-1 H(J) rho^k on an Ahlfors-ish carrier; c recorded
        rng = np.random.default_rng(4)
        xs = np.linspace(0, 1, 400)
        pts = np.column_stack([xs, np.zeros(400)])
        w = np.full(400, 1.0 / 400)
        j = TriadicInterval(3, 6)
        cubes = descend_one(pts, np.arange(400), j, 0)
        worst = min(c.mass(w) / (j.length * 1.0) for c in cubes)
        assert worst > 0.0  # positive lower bound; the constant is recorded
        print(f"mass lower bound constant c*A: {worst:.4f}")


def lattice_check_instances(count=200):
    """The seeded instances of the lattice-check command at the default seed."""
    rng = np.random.default_rng(ExperimentConfig.seed)
    for trial in range(count):
        n = int(rng.integers(30, 120))
        pts = rng.random((n, 2))
        h_choice = TriadicInterval(1, int(rng.integers(0, 3))) if trial % 2 == 0 \
            else TriadicInterval(3, int(rng.integers(0, 27)))
        l = int(rng.integers(0, 3))
        k = int(rng.integers(0, 3))
        yield pts, h_choice, k + l


def tie_carriers():
    """Grid and regular-line carriers, whose cell centers and d_J values tie."""
    g = np.arange(12) / 11.0
    grid = np.column_stack([np.repeat(g, 12), np.tile(g, 12)])
    line = np.column_stack([np.linspace(0.0, 1.0, 97), np.zeros(97)])
    tilted = np.column_stack([np.linspace(0.0, 1.0, 64), np.linspace(0.0, 0.5, 64)])
    doubled = np.vstack([line[:40], line[:40]])
    for pts in (grid, line, tilted, doubled, 0.5 * grid + 0.25):
        for iv in (TriadicInterval(1, 0), TriadicInterval(2, 4), TriadicInterval(3, 6),
                   AngleInterval(0.0, 0.05), AngleInterval(0.25, 0.01)):
            for gen in (0, 2, 3):
                yield pts, iv, gen


class TestNetSweepOracle:
    """descend_all and check_cube_invariants give the cubes and reports of
    their scalar references."""

    def check(self, pts, iv, gen):
        carrier = np.arange(len(pts))
        cubes = descend_one(pts, carrier, iv, gen)
        assert_same_cubes(cubes, reference_descend(pts, carrier, iv, gen))
        assert check_cube_invariants(pts, carrier, cubes) == \
            reference_check_cube_invariants(pts, carrier, cubes)

    def test_lattice_check_instances(self):
        for pts, iv, gen in lattice_check_instances():
            self.check(pts, iv, gen)

    def test_tie_carriers(self):
        for pts, iv, gen in tie_carriers():
            self.check(pts, iv, gen)

    def test_separation_boundary(self):
        # centers exactly 3 rho^gen apart along the interval are not separated
        iv = AngleInterval(0.0, 0.05)
        pts = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 3.5], [0.5, 0.0]])
        cubes = [AnisoCube([i], i, 0, iv, 0.5) for i in range(3)] + \
            [AnisoCube([3], 3, 0, TriadicInterval(1, 0), 0.5)]
        report = check_cube_invariants(pts, np.arange(4), cubes)
        assert report == reference_check_cube_invariants(pts, np.arange(4), cubes)
        assert not report["net_separation"]
        assert report["min_net_separation_over_scale"] == 3.0

    @staticmethod
    def _corrupted(pts, cubes):
        """Cube lists that break the sandwich, the partition or the separation:
        an atom moved to another cube, a cube centered on its farthest atom, a
        cube listed twice, two cubes merged, the first cube's rho halved and the
        last one's doubled."""
        a, b = cubes[0], cubes[-1]
        moved = [AnisoCube(a.atom_idx[1:], a.center_idx, a.level, a.interval, a.rho),
                 *cubes[1:-1],
                 AnisoCube(np.r_[b.atom_idx, a.atom_idx[:1]], b.center_idx, b.level,
                           b.interval, b.rho)]
        far = int(a.atom_idx[np.argmax(d_metric_many(a.interval, pts[a.center_idx],
                                                     pts[a.atom_idx]))])
        recentered = [AnisoCube(a.atom_idx, far, a.level, a.interval, a.rho),
                      *cubes[1:]]
        merged = [AnisoCube(np.r_[a.atom_idx, b.atom_idx], a.center_idx, a.level,
                            a.interval, a.rho), *cubes[1:-1]]
        rescaled = [AnisoCube(a.atom_idx, a.center_idx, a.level, a.interval, a.rho / 2),
                    *cubes[1:-1],
                    AnisoCube(b.atom_idx, b.center_idx, b.level, b.interval, b.rho * 2)]
        return moved, recentered, [*cubes, a], merged, rescaled

    @pytest.mark.parametrize("tile", [torus.PAIR_TILE, 1], ids=["one_block", "row_blocks"])
    def test_corrupted_cubes(self, tile, monkeypatch):
        one_block = tile == torus.PAIR_TILE
        blocks = tile_pairs(monkeypatch, tile, lattice)
        broken = {"partition": 0, "sandwich_outer": 0, "sandwich_inner": 0,
                  "net_separation": 0}
        for pts, iv, gen in lattice_check_instances(40):
            carrier = np.arange(len(pts))
            cubes = descend_one(pts, carrier, iv, gen)
            if len(cubes) < 3 or len(cubes[0]) < 2:
                continue
            for bad in self._corrupted(pts, cubes):
                report = check_cube_invariants(pts, carrier, bad)
                assert report == reference_check_cube_invariants(pts, carrier, bad)
                for key in broken:
                    broken[key] += not report[key]
        assert all(broken.values()), broken
        assert (max(blocks) > 1) != one_block

    def test_center_atom_ties(self):
        # equidistant from the cell center (0.5, 0.5): ties break by x, then y,
        # then index (atoms 0 and 3 coincide); atoms 5-8 pin the nearest atom
        # to the center of cell (0, 0) and of cell (1, 0)
        pts = np.array([[0.25, 0.5], [0.75, 0.5], [0.5, 0.25], [0.25, 0.5], [0.5, 0.75],
                        [0.1, 0.1], [0.6, 0.55], [1.2, 0.3], [1.45, 0.55]])
        for idx, key, want in (([4, 1, 3, 2, 0], (0, 0), 0), ([4, 2, 1], (0, 0), 2),
                               ([1, 4], (0, 0), 4), ([5, 6], (0, 0), 6), ([8, 7], (1, 0), 8)):
            idx = np.array(idx)
            order = cell_order(idx, pts[idx], np.ones(len(idx)), np.zeros_like(idx))[0]
            assert idx[order[0]] == \
                reference_cell_center_atom(idx, key, 1.0, pts) == want

    # (descend_all calls, jobs) of build_tree per unthinned fixture. The jobs
    # are 3 roots, 846 per-node descents and the 204 children of 68 shatters;
    # the calls are one per root (3), per generation (15) and per shattering
    # depth of a generation at which some piece shatters (4)
    TREE_CALLS = {"single_line": (7, 448), "two_direction": (8, 331),
                  "cantor_horizontal": (7, 274)}

    @pytest.mark.parametrize("thinned", [False, True], ids=["all_carriers", "thinned"])
    @pytest.mark.parametrize("name,make", [("single_line", lambda: single_line_instance()[1:]),
                                           ("two_direction", two_direction_instance),
                                           ("cantor_horizontal",
                                            lambda: cantor_horizontal_instance()[1:])],
                             ids=["single_line", "two_direction", "cantor_horizontal"])
    def test_tree_fixtures(self, name, make, thinned, monkeypatch):
        params = ExperimentConfig()
        stages = stages_for(*make(), params=params)
        if thinned:
            for i in list(stages.core)[::3]:
                stages.core[i] = []
        calls, jobs = [], []
        kernel = lattice.descend_all

        def checked(batch, rho):
            calls.append(len(batch))
            out = kernel(batch, rho)
            for (points, member_idx, interval, gen), cubes in zip(batch, out):
                assert_same_cubes(cubes, reference_descend(points, member_idx, interval, gen, rho))
                assert check_cube_invariants(points, member_idx, cubes) == \
                    reference_check_cube_invariants(points, member_idx, cubes)
                jobs.append(len(cubes))
            return out

        monkeypatch.setattr("favard.tree.descend_all", checked)
        tree = build_tree(stages)
        assert len(tree.nodes) > 0
        if not thinned:
            assert (len(calls), len(jobs)) == self.TREE_CALLS[name]

    def test_tree_calls_total(self):
        assert [sum(c) for c in zip(*self.TREE_CALLS.values())] == [22, 3 + 846 + 204]


def random_jobs(rng, count):
    """descend_all jobs over one shared point array and fresh ones: triadic
    and angle intervals, generations 0 to 4, carriers of one to 60 atoms in
    random order."""
    shared = rng.random((150, 2))
    jobs = []
    for _ in range(count):
        points = shared if rng.random() < 0.5 else rng.random((int(rng.integers(1, 80)), 2))
        size = 1 if rng.random() < 0.2 else int(rng.integers(1, min(60, len(points)) + 1))
        member_idx = rng.permutation(len(points))[:size]
        if rng.random() < 0.5:
            level = int(rng.integers(1, 4))
            interval = TriadicInterval(level, int(rng.integers(0, 3**level)))
        else:
            interval = AngleInterval(float(rng.random()), float(rng.uniform(0.005, 0.2)))
        jobs.append((points, member_idx, interval, int(rng.integers(0, 5))))
    return jobs


class TestDescendAll:
    """The batched kernel gives every job the cubes of the per-carrier sweep
    and of the scalar reference, whatever else shares its call."""

    @pytest.mark.parametrize("rho", [0.5, 0.3])
    def test_random_job_lists(self, rho):
        rng = np.random.default_rng(11)
        seen = []
        for _ in range(6):
            jobs = random_jobs(rng, 25)
            out = descend_all(jobs, rho)
            assert len(out) == len(jobs)
            for job, cubes in zip(jobs, out):
                assert_same_cubes(cubes, loop_descend(*job, rho))
                assert_same_cubes(cubes, reference_descend(*job, rho))
            seen += jobs
        # every kind of job the kernel must handle took part
        assert {type(job[2]) for job in seen} == {TriadicInterval, AngleInterval}
        assert {job[3] for job in seen} == set(range(5))
        assert any(len(job[1]) == 1 for job in seen)
        arrays = Counter(id(job[0]) for job in seen).most_common()
        assert len(arrays) > 1 and arrays[0][1] > 1       # separate and shared points

    def test_batch_independence(self):
        rng = np.random.default_rng(12)
        jobs = random_jobs(rng, 40)
        alone = [descend_all([job], 0.5)[0] for job in jobs]
        for got, want in zip(descend_all(jobs, 0.5), alone):
            assert_same_cubes(got, want)
        perm = rng.permutation(len(jobs))
        for i, got in zip(perm, descend_all([jobs[i] for i in perm], 0.5)):
            assert_same_cubes(got, alone[i])
        # the same carrier twice in one call
        for got in descend_all([jobs[0], jobs[0]], 0.5):
            assert_same_cubes(got, alone[0])

    def test_no_jobs(self):
        assert descend_all([], 0.5) == []

    @pytest.mark.parametrize("bad", [
        (np.zeros((1, 2)), np.array([], dtype=int), TriadicInterval(1, 0), 0),
        (np.zeros((1, 2)), np.array([0]), TriadicInterval(1, 0), -1),
    ], ids=["empty_carrier", "negative_gen"])
    def test_invalid_jobs_raise(self, bad):
        good = random_jobs(np.random.default_rng(13), 4)
        for jobs in ([bad], [*good[:2], bad, *good[2:]]):
            with pytest.raises(ValueError):
                descend_all(jobs, 0.5)
        with pytest.raises(ValueError):
            loop_descend(*bad, 0.5)


class TestWhitney:
    def test_unit_interval_contains_fixture_member(self):
        w = whitney([(0.0, 1.0)])
        members = {(iv.low, iv.high) for iv in w.intervals}
        assert (0.25, 0.375) in members

    def test_conditions_exact(self):
        w = whitney([(0.0, 1.0)], min_exp=-20)
        for iv in w.intervals:
            tl, th = iv.triple()
            assert 0.0 < tl and th <= 1.0
            pl, ph = iv.parent().triple()
            assert not (0.0 < pl and ph <= 1.0)

    def test_disjoint_and_coverage(self):
        w = whitney([(0.0, 1.0), (2.0, 2.5)], min_exp=-24)
        ivs = sorted(w.intervals, key=lambda i: i.low)
        for a, b in zip(ivs, ivs[1:]):
            assert a.high <= b.low + 1e-15
        for iv in ivs:
            assert any(a < iv.low and iv.high <= b for a, b in w.components)
        missing = w.total_measure() - w.covered_measure()
        assert missing <= 6 * 2.0**w.min_exp * (len(w.components) + 1)

    def test_whole_line_rejected(self):
        with pytest.raises(ValueError):
            whitney([(-math.inf, math.inf)])

    def test_punctured_line_scaling(self):
        w = whitney([(-math.inf, 0.0), (0.0, math.inf)], min_exp=-16, max_exp=3)
        near = [iv for iv in w.intervals if 0 < iv.low < 0.25]
        assert near
        for iv in near:
            dist = iv.low  # distance to the puncture
            assert 0.5 * iv.length <= dist <= 4 * iv.length

    def test_random_open_sets(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            cuts = np.sort(rng.uniform(0, 10, 2 * int(rng.integers(1, 4))))
            comps = [(cuts[2 * i], cuts[2 * i + 1]) for i in range(len(cuts) // 2)
                     if cuts[2 * i + 1] - cuts[2 * i] > 1e-3]
            if not comps:
                continue
            w = whitney(comps, min_exp=-22)
            for iv in w.intervals:
                tl, th = iv.triple()
                assert any(a < tl and th <= b for a, b in comps)
                pl, ph = iv.parent().triple()
                assert not any(a < pl and ph <= b for a, b in comps)
            ivs = sorted(w.intervals, key=lambda i: i.low)
            for a, b in zip(ivs, ivs[1:]):
                assert a.high <= b.low + 1e-12

    def test_usage_property(self):
        # an interval I' inside U with C I' escaping U sits inside C0 C J for
        # a comparable Whitney member J
        rng = np.random.default_rng(6)
        w = whitney([(0.0, 1.0)], min_exp=-26)
        for _ in range(200):
            c_factor = rng.uniform(3.0, 10.0)
            mid = rng.uniform(0.01, 0.99)
            room = min(mid, 1 - mid)
            half = rng.uniform(room / c_factor * 1.05, room * 0.999) \
                if room / c_factor * 1.05 < room * 0.999 else room * 0.5
            lo, hi = mid - half, mid + half
            if lo <= 0 or hi >= 1:
                continue
            if lo - (c_factor - 1) * half > 0 and hi + (c_factor - 1) * half <= 1:
                continue  # C I' still inside U
            j = w.locate(lo, hi)
            assert j is not None
            ratio = (hi - lo) / j.length
            assert 1.0 / (6 * c_factor) <= ratio <= 6 * c_factor
            c0 = 12.0
            big_lo = j.low + j.length / 2 - c0 * c_factor * j.length / 2
            big_hi = j.low + j.length / 2 + c0 * c_factor * j.length / 2
            assert big_lo <= lo and hi <= big_hi


class TestBaseLattice:
    def test_partition_and_nesting(self):
        import numpy as np
        rng = np.random.default_rng(9)
        pts = rng.uniform(-2, 2, size=(150, 2))
        lat = BaseLattice(pts, AngleInterval(0.2, 0.1), levels=range(0, 5))
        rep = lat.verify()
        assert rep["partition"] and rep["nesting"]

    def test_designated_centers_are_members(self):
        import numpy as np
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 1, size=(60, 2))
        lat = BaseLattice(pts, None, levels=[2])
        for key, idx in lat.cells(2).items():
            c = lat.center_atom(2, key)
            assert c in idx
