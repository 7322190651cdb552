import dataclasses
import gc
import json
import math

import numpy as np
import pytest

from favard import conical, pipeline, tree as tree_module
from favard.config import ExperimentConfig
from favard.fixtures import (FIXTURE_A, FIXTURE_M, TRANSVERSE_ROOT, cantor_horizontal_instance,
                             single_line_instance, stages_for, two_direction_instance)
from favard.lattice import AnisoCube
from favard.sets import DiscreteMeasure, four_corners, split_parallel
from favard.torus import TOL, AngleInterval, TriadicInterval, d_metric_many
from favard.tree import (C_BAD, TREE_PROPERTIES, TriadicUnits, _maximal_cover,
                         _merge_angle_intervals, bad_chain_check, grow_families,
                         build_good_stages, build_tree,
                         good_at_scale_all, maximal_intervals,
                         packing_sums, propagate_good_directions, verify_tree,
                         TreeNode)
from tests.reference import (bad_chain_by_node, bad_cubes_by_atom, bad_scale_budget_by_node,
                             conical_energy_at, conical_energy_by_row,
                             d_metric, find_gap_interval, gap_instance,
                             sandwich_halves_by_node, stages_by_atom, stop_of,
                             synthetic_stages_constant_core, tile_pairs, tree_by_piece)


def line_atoms(n=96, y=0.0):
    xs = np.linspace(0.0, 1.0, n)
    pts = np.column_stack([xs, np.full(n, y)])
    return DiscreteMeasure(pts, np.full(n, 1.0 / n))


ROOT = TriadicInterval(3, 6)


class TestTriadicUnits:
    def test_lengths(self):
        u = TriadicUnits(4)
        assert u.length(TriadicInterval(2, 3)) == 9
        assert u.length(TriadicInterval(4, 0)) == 1

    def test_union_and_cover(self):
        u = TriadicUnits(3)
        parts = [TriadicInterval(2, 0), TriadicInterval(2, 1), TriadicInterval(1, 0)]
        assert u.union_length(parts) == u.length(TriadicInterval(1, 0))
        assert u.cover_length(TriadicInterval(0, 0), parts) == 9

    def test_maximal_intervals(self):
        parts = [TriadicInterval(2, 0), TriadicInterval(1, 0), TriadicInterval(2, 5)]
        out = maximal_intervals(parts)
        assert TriadicInterval(1, 0) in out and TriadicInterval(2, 5) in out
        assert TriadicInterval(2, 0) not in out


def recursive_maximal_cover(root_iv, members, units, eps):
    """The recursive form of _maximal_cover: the oracle of its visiting order."""
    out = []

    def rec(iv):
        cov = units.cover_length(iv, members)
        if cov == 0:
            return
        if cov >= (1.0 - eps) * units.length(iv) - 1e-9:
            out.append(iv)
            return
        for ch in iv.children():
            rec(ch)

    rec(root_iv)
    return out


def random_members(rng, n):
    """n triadic descendants of ROOT, one to four levels below it."""
    out = []
    for _ in range(n):
        depth = int(rng.integers(1, 5))
        out.append(TriadicInterval(ROOT.level + depth,
                                   ROOT.index * 3**depth + int(rng.integers(0, 3**depth))))
    return out


class TestMaximalCover:
    def test_matches_the_recursive_order(self):
        units = TriadicUnits(ROOT.level + 6)
        deepest = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            members = random_members(rng, int(rng.integers(1, 40)))
            for eps in (0.05, 0.3, 0.7):
                got = _maximal_cover(ROOT, members, units, eps)
                assert got == recursive_maximal_cover(ROOT, members, units, eps), (seed, eps)
                deepest = max(deepest, len({iv.level for iv in got}))
        assert deepest >= 3      # covers mixing three levels take the stack's order

    def test_leaves_no_reference_cycle(self):
        units = TriadicUnits(ROOT.level + 6)
        members = random_members(np.random.default_rng(0), 30)
        gc.collect()
        gc.disable()
        try:
            assert _maximal_cover(ROOT, members, units, 0.3)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGoodStages:
    def test_root_family_forces_full_cover(self):
        atoms = line_atoms()
        fams = {i: [ROOT] for i in range(len(atoms))}
        stages = build_good_stages(atoms, np.ones(len(atoms), bool), fams, ROOT, 2.0, 8.0,
                                   ExperimentConfig())
        assert all(stages.cover[i] == [ROOT] for i in np.nonzero(stages.controlled)[0]
                   for i in [int(i)])
        assert stages.full_cover.sum() == stages.controlled.sum()

    def test_child_family_blocks_parent(self):
        # one child covers only 1/3 < 1 - eps of the root: the cover stops at the child
        atoms = line_atoms()
        child = ROOT.children()[0]
        fams = {i: [child] for i in range(len(atoms))}
        stages = build_good_stages(atoms, np.ones(len(atoms), bool), fams, ROOT, 2.0, 8.0,
                                   ExperimentConfig())
        i0 = int(np.nonzero(stages.controlled)[0][0])
        assert stages.cover[i0] == [child]
        assert stages.controlled[i0] and not stages.full_cover[i0]

    def test_zero_energy_keeps_filter_trivial(self):
        atoms = line_atoms()
        fams = {i: [ROOT] for i in range(len(atoms))}
        stages = build_good_stages(atoms, np.ones(len(atoms), bool), fams, ROOT, 2.0, 8.0,
                                   ExperimentConfig())
        for i in np.nonzero(stages.controlled)[0]:
            assert stages.filtered[int(i)] == stages.cover[int(i)]

    def test_chebyshev_and_filtered_large(self):
        _, atoms, eprime, fams, root_iv = cantor_horizontal_instance(pitch=1 / 48)
        stages = build_good_stages(atoms, eprime, fams, root_iv, 2.0, 8.0, ExperimentConfig())
        assert stages.checks["chebyshev_e0"]
        assert stages.checks["g1_large"]
        assert stages.checks["g0_covers"]

    def test_core_middle_children(self):
        atoms = line_atoms()
        fams = {i: [ROOT] for i in range(len(atoms))}
        stages = build_good_stages(atoms, np.ones(len(atoms), bool), fams, ROOT, 2.0, 8.0,
                                   ExperimentConfig())
        i0 = int(np.nonzero(stages.controlled)[0][0])
        assert stages.core[i0] == [ROOT.middle_child()]

    def test_synthetic_stages_share_the_stage_constants(self):
        params = ExperimentConfig(triadic_depth=3, c_eps=0.5)
        atoms = line_atoms(16)
        fams = {i: [ROOT] for i in range(16)}
        built = build_good_stages(atoms, np.ones(16, bool), fams, ROOT, FIXTURE_A, FIXTURE_M,
                                  params)
        synthetic = synthetic_stages_constant_core(atoms, ROOT, params)
        assert (built.eps, built.units.depth) == (synthetic.eps, synthetic.units.depth) \
            == (0.5 / (FIXTURE_A * FIXTURE_M), ROOT.level + 3 + 3)

    def test_family_outside_root_rejected(self):
        atoms = line_atoms(8)
        bad = TriadicInterval(3, 7)
        fams = {i: [bad] for i in range(8)}
        with pytest.raises(ValueError, match="outside the root"):
            build_good_stages(atoms, np.ones(8, bool), fams, ROOT, 2.0, 8.0, ExperimentConfig())

    def test_overlapping_family_rejected(self):
        atoms = line_atoms(8)
        fams = {i: [ROOT, ROOT.children()[0]] for i in range(8)}
        with pytest.raises(ValueError, match="disjoint"):
            build_good_stages(atoms, np.ones(8, bool), fams, ROOT, 2.0, 8.0, ExperimentConfig())


class TestGstar:
    def test_outside_controlled_keeps_family(self):
        atoms = line_atoms(32)
        child = ROOT.children()[0]
        fams = {i: [child] for i in range(32)}
        stages = build_good_stages(atoms, np.ones(32, bool), fams, ROOT, 2.0, 8.0,
                                   ExperimentConfig())
        # force one point out of E_0
        stages.controlled[0] = False
        gs = grow_families(stages)
        assert gs.families[0] == [child]

    def test_full_cover_jumps_to_root(self):
        atoms = line_atoms(32)
        fams = {i: [ROOT] for i in range(32)}
        stages = build_good_stages(atoms, np.ones(32, bool), fams, ROOT, 2.0, 8.0,
                                   ExperimentConfig())
        gs = grow_families(stages)
        for i in np.nonzero(stages.full_cover)[0]:
            assert gs.families[int(i)] == [ROOT]
            assert gs.finished_mask[int(i)]

    def test_parent_absorbs_child(self):
        atoms = line_atoms(32)
        child = ROOT.children()[0]
        fams = {i: [child] for i in range(32)}
        stages = build_good_stages(atoms, np.ones(32, bool), fams, ROOT, 2.0, 8.0,
                                   ExperimentConfig())
        gs = grow_families(stages)
        i0 = int(np.nonzero(stages.controlled)[0][0])
        assert gs.families[i0] == [ROOT]
        assert gs.containment_ok

    def test_growth_bound(self):
        # two-level family: G* strictly grows on E_0 \ E_Fin
        atoms = line_atoms(48)
        grandchild = ROOT.children()[0].children()[0]
        fams = {i: [grandchild] for i in range(48)}
        stages = build_good_stages(atoms, np.ones(48, bool), fams, ROOT, 2.0, 8.0,
                                   ExperimentConfig())
        gs = grow_families(stages)
        assert gs.containment_ok
        if not gs.finished_mask.all():
            assert gs.growth_ok
            assert gs.min_growth_ratio >= 1.0 / 3.0 - 1e-9


def good_at_scale(stages, x_idx, k):
    """Good intervals at scale k for one atom, one scalar d_I at a time: the
    oracle of the batch form good_at_scale_all."""
    pts = stages.atoms.points
    raw = []
    for interval in stages.core_universe():
        carriers = stages.core_carriers(interval)
        if len(carriers) == 0:
            continue
        d = min(d_metric(interval, pts[x_idx], pts[c]) for c in carriers)
        if d < 10.0 * stages.params.rho**k:
            raw.append(interval)
    return maximal_intervals(raw)


class TestGoodAtScale:
    def test_large_k_reduces_to_carriers(self):
        _, atoms, eprime, fams, root_iv = single_line_instance(pitch=1 / 32)
        stages = stages_for(atoms, eprime, fams, root_iv, ExperimentConfig())
        g_far = good_at_scale(stages, 0, 14)
        assert g_far == maximal_intervals(stages.core[0])

    def test_nearby_carrier_within_ball(self):
        _, atoms, eprime, fams, root_iv = single_line_instance(pitch=1 / 32)
        stages = stages_for(atoms, eprime, fams, root_iv, ExperimentConfig())
        # at k = 0 the ball radius 10 in d_I reaches every atom of the segment
        full = good_at_scale_all(stages, [0])[0]
        universe = stages.core_universe()
        for i in range(len(atoms)):
            assert full[i] == maximal_intervals(universe)

    @pytest.mark.parametrize("thinned", [False, True], ids=["all_carriers", "thinned"])
    @pytest.mark.parametrize("make", [lambda: single_line_instance()[1:],
                                      two_direction_instance,
                                      lambda: cantor_horizontal_instance()[1:]],
                             ids=["single_line", "two_direction", "cantor_horizontal"])
    def test_batch_matches_the_scalar_oracle(self, make, thinned):
        params = ExperimentConfig()
        stages = stages_for(*make(), params=params)
        k_top = params.k_max
        if thinned:
            # every third atom stops carrying its core intervals, so the
            # others see them only through the d_I balls, which shrink with k
            for i in list(stages.core)[::3]:
                stages.core[i] = []
            k_top += 3
        emptied = False
        tables = good_at_scale_all(stages, range(k_top + 1))
        assert sorted(tables) == list(range(k_top + 1))
        for k, batch in tables.items():
            assert batch == good_at_scale_all(stages, [k])[k]
            assert sorted(batch) == list(range(len(stages.atoms)))
            for i in range(len(stages.atoms)):
                assert batch[i] == good_at_scale(stages, i, k), (k, i)
            emptied |= any(not ivs for ivs in batch.values())
            assert len({id(ivs) for ivs in batch.values()}) == len(batch)   # own lists
        assert emptied == thinned

    def test_one_maximal_call_per_distinct_list(self, monkeypatch):
        params = ExperimentConfig()
        stages = stages_for(*cantor_horizontal_instance()[1:], params=params)
        calls = []
        maximal = tree_module.maximal_intervals

        def counted(ivs):
            calls.append(tuple(ivs))
            return maximal(ivs)

        monkeypatch.setattr(tree_module, "maximal_intervals", counted)
        for k in range(1, params.k_max + 1):
            calls.clear()
            good_at_scale_all(stages, [k])
            assert len(calls) == len(set(calls)) < len(stages.atoms)

    @pytest.mark.parametrize("thinned", [False, True], ids=["all_carriers", "thinned"])
    @pytest.mark.parametrize("make", [lambda: single_line_instance()[1:],
                                      two_direction_instance,
                                      lambda: cantor_horizontal_instance()[1:]],
                             ids=["single_line", "two_direction", "cantor_horizontal"])
    def test_verify_tree_reads_the_good_tables_of_build_tree(self, make, thinned):
        params = ExperimentConfig()
        stages = stages_for(*make(), params=params)
        if thinned:
            for i in list(stages.core)[::3]:
                stages.core[i] = []
        tree = build_tree(stages)
        fresh = {k: good_at_scale_all(stages, [k])[k] for k in range(1, params.k_max + 1)}
        assert tree.good_by_scale == fresh
        assert verify_tree(tree) == verify_tree(dataclasses.replace(tree, good_by_scale=fresh))

    def test_empty_controlled_gives_empty_families(self):
        atoms = line_atoms(16)
        stages = synthetic_stages_constant_core(atoms, ROOT)
        stages.controlled[:] = False
        stages.core = {i: [] for i in range(16)}
        assert good_at_scale(stages, 0, 2) == []


class TestBuildTree:
    def test_no_shattering_with_constant_core(self):
        _, atoms, _, _, root_iv = single_line_instance(pitch=1 / 128)
        params = ExperimentConfig(k_max=4, triadic_depth=4)
        stages = synthetic_stages_constant_core(atoms, root_iv, params)
        tree = build_tree(stages)
        assert all(s.kind != "sh" for s in tree.stopped)
        assert all(tree.nodes[nid].tag in ("root0", "good") for nid in tree.nodes)
        rep = verify_tree(tree)
        assert rep["all_pass"]

    def test_empty_controlled_empty_tree(self):
        atoms = line_atoms(16)
        stages = synthetic_stages_constant_core(atoms, ROOT)
        stages.controlled[:] = False
        tree = build_tree(stages)
        assert len(tree.nodes) == 0

    def test_two_direction_shatters(self):
        params = ExperimentConfig(k_max=4, triadic_depth=4)
        stages = stages_for(*two_direction_instance(), params=params)
        tree = build_tree(stages)
        sh = [s for s in tree.stopped if s.kind == "sh"]
        assert sh
        deep_roots = [r for r in tree.roots
                      if tree.nodes[r].interval.level > stages.root_iv.level]
        assert deep_roots
        for r in deep_roots:
            assert stages.root_iv.contains(tree.nodes[r].interval)
            assert tree.nodes[r].interval.level > stages.root_iv.level
        ps = packing_sums(tree)
        units = stages.units
        base = units.to_float(units.length(stages.root_iv)) * \
            math.fsum(stages.atoms.weights.tolist())
        assert base < ps["roots_sum"] <= ps["roots_budget"]

    def test_single_line_properties(self):
        params = ExperimentConfig(k_max=4, triadic_depth=4)
        stages = stages_for(*single_line_instance()[1:], params=params)
        tree = build_tree(stages)
        rep = verify_tree(tree)
        assert rep["all_pass"], rep

    NINE_PROPERTIES = TREE_PROPERTIES

    @pytest.mark.parametrize("make,nodes,shatters", [
        (lambda: single_line_instance()[1:], 392, 18),
        (two_direction_instance, 166, 44),
        (lambda: cantor_horizontal_instance()[1:], 349, 6),
    ], ids=["single_line", "two_direction", "cantor_horizontal"])
    def test_thinned_fixture_properties(self, make, nodes, shatters):
        # every third atom stops carrying its core intervals, so the goodness
        # integrals see them only through the d_I balls of good_at_scale_all
        params = ExperimentConfig()
        stages = stages_for(*make(), params=params)
        for i in list(stages.core)[::3]:
            stages.core[i] = []
        tree = build_tree(stages)
        rep = verify_tree(tree)
        assert len(self.NINE_PROPERTIES) == 9
        assert {key: rep[key] for key in self.NINE_PROPERTIES} == \
            dict.fromkeys(self.NINE_PROPERTIES, True)
        assert rep["all_pass"]
        assert len(tree.nodes) == nodes
        assert sum(s.kind == "sh" for s in tree.stopped) == shatters


def reference_ancestry(tree):
    """unique_ancestor and product_disjointness by comparing every node of
    generation k with every node of each generation l <= k: the oracle of
    verify_tree's atom-indexed comparison."""
    atom_sets = {nid: frozenset(node.cube.atom_idx.tolist())
                 for nid, node in tree.nodes.items()}
    t3 = True
    t4 = True
    for k, gen in enumerate(tree.generations):
        for l in range(k + 1):
            for q in gen:
                qn = tree.nodes[q]
                hits = 0
                for p in tree.generations[l]:
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
    return {"unique_ancestor": t3, "product_disjointness": t4}


def _ancestry(tree):
    rep = verify_tree(tree)
    return {key: rep[key] for key in ("unique_ancestor", "product_disjointness")}


class TestAncestryOracle:
    @pytest.mark.parametrize("thinned", [False, True], ids=["all_carriers", "thinned"])
    @pytest.mark.parametrize("make", [lambda: single_line_instance()[1:],
                                      two_direction_instance,
                                      lambda: cantor_horizontal_instance()[1:]],
                             ids=["single_line", "two_direction", "cantor_horizontal"])
    def test_fixtures(self, make, thinned):
        params = ExperimentConfig()
        stages = stages_for(*make(), params=params)
        if thinned:
            for i in list(stages.core)[::3]:
                stages.core[i] = []
        tree = build_tree(stages)
        assert _ancestry(tree) == reference_ancestry(tree) == \
            {"unique_ancestor": True, "product_disjointness": True}

    @staticmethod
    def _small_tree():
        params = ExperimentConfig(k_max=2, triadic_depth=2)
        stages = stages_for(*single_line_instance(pitch=1 / 64)[1:], params=params)
        return build_tree(stages)

    @staticmethod
    def _add_root0(tree, atom_idx, like, interval=None):
        """A generation-0 node over `atom_idx`, shaped like node `like`, with
        `like`'s interval unless another is given."""
        old = tree.nodes[like]
        nid = max(tree.nodes) + 1
        cube = AnisoCube(atom_idx, old.cube.center_idx, 0, interval or old.interval,
                         old.cube.rho)
        tree.nodes[nid] = TreeNode(cube, "root0", None, nid)
        tree.generations[0].append(nid)

    def test_half_copy_breaks_both(self):
        # a second generation-0 node holding half of a node's atoms over the
        # same interval: the half has two ancestors and meets the whole
        tree = self._small_tree()
        first = tree.generations[0][0]
        atoms = tree.nodes[first].cube.atom_idx
        assert len(atoms) >= 2
        self._add_root0(tree, atoms[: len(atoms) // 2], first)
        assert _ancestry(tree) == reference_ancestry(tree) == \
            {"unique_ancestor": False, "product_disjointness": False}

    def test_empty_node_is_its_own_ancestor(self):
        # an empty atom set lies inside every node but shares an atom with
        # none: over an interval no other node contains, its one ancestor is
        # itself, which only a comparison with all nodes of its generation finds
        tree = self._small_tree()
        first = tree.generations[0][0]
        iv = tree.nodes[first].interval
        other = TriadicInterval(iv.level, (iv.index + 1) % 3**iv.level)
        assert all(not tree.nodes[p].interval.intersects(other) for p in tree.generations[0])
        self._add_root0(tree, np.array([], dtype=np.int64), first, other)
        assert _ancestry(tree) == reference_ancestry(tree) == \
            {"unique_ancestor": True, "product_disjointness": True}


class TestBadCubes:
    def test_transverse_line_narrow_generations_clean(self):
        params = ExperimentConfig(k_max=3, triadic_depth=3)
        stages = stages_for(*single_line_instance()[1:], params=params)
        tree = build_tree(stages)
        bad = tree.bad_ids
        # the widened cone at generation >= 1 misses the horizontal direction
        for nid in bad:
            node = tree.nodes[nid]
            wide_hw = 15.0 * node.interval.length / 2.0
            gap = min(abs(node.interval.center - 0.0),
                      abs(node.interval.center - 0.5))
            assert gap <= wide_hw + 1e-9

    def test_isolated_pair_in_annulus(self):
        # a pair at distance barely above rho^k in a core direction makes the
        # containing generation-k cube bad
        atoms = line_atoms(48)
        extra = np.array([[0.31, 0.25 * 1.0001]])
        pts = np.vstack([atoms.points, extra])
        mu = DiscreteMeasure(pts, np.full(len(pts), 1.0 / len(pts)))
        params = ExperimentConfig(k_max=3, triadic_depth=3)
        stages = synthetic_stages_constant_core(mu, ROOT, params)
        tree = build_tree(stages)
        gens = {tree.nodes[b].generation for b in tree.bad_ids}
        assert 2 in gens  # 0.25 ~ rho^2

    @pytest.mark.parametrize("make,rho,n_bad", [
        (lambda: single_line_instance()[1:], 0.5, 9),
        (two_direction_instance, 0.5, 6),
        (lambda: cantor_horizontal_instance()[1:], 0.5, 249),
        (lambda: cantor_horizontal_instance()[1:], 0.3, 117),
    ], ids=["single_line", "two_direction", "cantor_horizontal", "cantor_horizontal_rho_0.3"])
    def test_grouped_counts_match_the_per_atom_masks(self, make, rho, n_bad, tmp_path):
        tree = build_tree(stages_for(*make(), params=ExperimentConfig(rho=rho)))
        bad = sorted(tree.bad_ids)
        assert bad == bad_cubes_by_atom(tree)
        assert len(bad) == n_bad
        tree.to_json(tmp_path / "tree.json")
        assert sum(row["bad"] for row in json.loads((tmp_path / "tree.json").read_text())) \
            == n_bad
        if rho != 0.5:
            # the tree reaches a generation g where rho * rho^g != rho^(g+1)
            assert any(rho * rho**g != rho ** (g + 1) for g in range(len(tree.generations)))

    def test_empty_tree_no_bad(self):
        atoms = line_atoms(8)
        stages = synthetic_stages_constant_core(atoms, ROOT)
        stages.controlled[:] = False
        tree = build_tree(stages)
        assert tree.bad_ids == frozenset()

    def test_bad_chain_constants(self):
        params = ExperimentConfig(k_max=3, triadic_depth=3)
        stages = stages_for(*single_line_instance(pitch=1 / 64)[1:], params=params)
        tree = build_tree(stages)
        rep = bad_chain_check(tree)
        assert rep["zero_rhs_violations"] == 0
        if tree.bad_ids:
            assert rep["max_constant"] < 64.0


class TestChecksWithoutCallOrder:
    def test_bad_cubes_do_not_depend_on_call_order(self, tmp_path):
        def bad_facts(tree, name):
            tree.to_json(tmp_path / name)
            flags = {row["id"]: row["bad"] for row in json.loads((tmp_path / name).read_text())}
            return packing_sums(tree)["bad_sum"], flags

        def make():
            return build_tree(stages_for(*two_direction_instance(), params=ExperimentConfig()))

        fresh = make()
        first = bad_facts(fresh, "fresh.json")
        checked = make()
        verify_tree(checked)
        bad_chain_check(checked)
        assert bad_facts(checked, "checked.json") == first
        assert first[0] == pytest.approx(1 / 27, rel=1e-12)
        assert [nid for nid, flag in first[1].items() if flag] == bad_cubes_by_atom(fresh)

    @pytest.mark.parametrize("rho", [0.5, 0.3])
    @pytest.mark.parametrize("thinned", [False, True], ids=["all_carriers", "thinned"])
    @pytest.mark.parametrize("make", [lambda: single_line_instance()[1:],
                                      two_direction_instance,
                                      lambda: cantor_horizontal_instance()[1:]],
                             ids=["single_line", "two_direction", "cantor_horizontal"])
    def test_grouped_checks_match_the_per_node_loops(self, make, thinned, rho):
        stages = stages_for(*make(), params=ExperimentConfig(rho=rho))
        if thinned:
            for i in list(stages.core)[::3]:
                stages.core[i] = []
        tree = build_tree(stages)
        rep = verify_tree(tree)
        assert {key: rep[key] for key in ("bad_scale_budget", "bad_scale_max_ratio")} == \
            bad_scale_budget_by_node(tree)
        assert bad_chain_check(tree) == bad_chain_by_node(tree)

    def test_shrunk_scale_budget_fails_the_budget_check(self):
        tree = build_tree(stages_for(*cantor_horizontal_instance()[1:],
                                     params=ExperimentConfig()))
        rep = verify_tree(tree)
        assert rep["all_pass"]
        assert rep["bad_scale_max_ratio"] == pytest.approx(0.0445, abs=1e-4)
        worst = round(rep["bad_scale_max_ratio"] * tree.stages.scale_budget)   # largest count

        def with_budget(budget):
            return dataclasses.replace(
                tree, stages=dataclasses.replace(tree.stages, scale_budget=budget))

        # at the bound the worst count passes; at half of it the check fails alone
        assert verify_tree(with_budget(worst / C_BAD)) == \
            {**rep, "bad_scale_max_ratio": C_BAD}
        over = with_budget(worst / (2 * C_BAD))
        assert verify_tree(over) == {**rep, "bad_scale_budget": False,
                                     "bad_scale_max_ratio": 2 * C_BAD, "all_pass": False}
        assert bad_scale_budget_by_node(over) == {"bad_scale_budget": False,
                                                  "bad_scale_max_ratio": 2 * C_BAD}

    @pytest.mark.parametrize("corrupt", ["drop", "duplicate"])
    def test_core_covering_needs_exactly_one_covering_node(self, corrupt):
        params = ExperimentConfig(k_max=2, triadic_depth=2)
        tree = build_tree(stages_for(*single_line_instance(pitch=1 / 64)[1:], params=params))
        stages = tree.stages
        assert verify_tree(tree)["core_covering"]
        i = next(i for i in np.nonzero(stages.controlled)[0].tolist() if stages.core[i])
        k = len(tree.generations) - 1
        cover = [nid for nid in tree.generations[k]
                 if i in tree.nodes[nid].cube.atom_idx
                 and tree.nodes[nid].interval.contains(stages.core[i][0])]
        assert len(cover) == 1
        generations = [list(gen) for gen in tree.generations]
        if corrupt == "drop":
            generations[k].remove(cover[0])
        else:
            generations[k].append(cover[0])
        rep = verify_tree(dataclasses.replace(tree, generations=generations))
        assert not rep["core_covering"]
        assert not rep["all_pass"]


def _with_node(tree, nid, **changes):
    """A copy of the tree with node `nid` replaced by a copy with `changes`."""
    nodes = dict(tree.nodes)
    nodes[nid] = dataclasses.replace(tree.nodes[nid], **changes)
    return dataclasses.replace(tree, nodes=nodes)


def _with_center(tree, nid, center_idx):
    node = tree.nodes[nid]
    return _with_node(tree, nid, cube=dataclasses.replace(node.cube, center_idx=center_idx))


class TestEachFlagCanFail:
    """A built tree corrupted so that exactly one of verify_tree's flags
    reads False, and all_pass with it."""

    @staticmethod
    def _tree(make=two_direction_instance):
        return build_tree(stages_for(*make(), params=ExperimentConfig()))

    @staticmethod
    def _fails_alone(tree, bad, flag, **measured):
        rep = verify_tree(tree)
        assert rep["all_pass"]
        assert verify_tree(bad) == {**rep, **measured, flag: False, "all_pass": False}

    def test_sandwich_inner_half(self):
        # a non-member atom made the center: the inner ball about it holds an
        # atom outside the node, while the members stay in the outer ball
        tree = self._tree()
        pts = tree.stages.atoms.points
        rho = tree.stages.params.rho
        bad = next(
            _with_center(tree, nid, a) for nid, node in tree.nodes.items()
            for a in range(len(pts)) if a not in node.cube.atom_idx
            and d_metric_many(node.interval, pts[a], pts[node.cube.atom_idx]).max()
            <= 4.0 * rho**node.generation - 1e-6)
        assert sandwich_halves_by_node(bad) == {"inner": False, "outer": True}
        self._fails_alone(tree, bad, "sandwich_balls")

    def test_sandwich_outer_half(self):
        # a member made the center: its inner ball holds members only, but
        # the far end of the node leaves the d_J ball about it (the cantor
        # fixture has nodes wide enough)
        tree = self._tree(lambda: cantor_horizontal_instance()[1:])
        pts = tree.stages.atoms.points
        rho = tree.stages.params.rho
        bad = next(
            _with_center(tree, nid, a) for nid, node in tree.nodes.items()
            for a in node.cube.atom_idx.tolist()
            if d_metric_many(node.interval, pts[a], pts[node.cube.atom_idx]).max()
            > 4.0 * rho**node.generation + 1e-6
            and sandwich_halves_by_node(_with_center(tree, nid, a))["inner"])
        assert sandwich_halves_by_node(bad) == {"inner": True, "outer": False}
        self._fails_alone(tree, bad, "sandwich_balls")

    def test_goodness_integral(self):
        # no good interval at scale 1: every generation-1 integral is zero
        tree = self._tree()
        assert tree.generations[1]
        good = {**tree.good_by_scale, 1: {i: [] for i in tree.good_by_scale[1]}}
        self._fails_alone(tree, dataclasses.replace(tree, good_by_scale=good),
                          "goodness_integral")

    def test_roots_packing(self):
        # eps past 1 puts the budget eps^-1 |root| mu(E) below the roots sum,
        # and the goodness bound (1 - eps) |J| mu(Q) below zero
        tree = self._tree()
        bad = dataclasses.replace(tree, stages=dataclasses.replace(tree.stages, eps=1e3))
        budget = packing_sums(bad)["roots_budget"]
        assert budget < packing_sums(tree)["roots_sum"]
        self._fails_alone(tree, bad, "roots_packing", roots_budget=budget)

    def test_subtree_interval_constant(self):
        # a node filed under a root whose interval differs from its own
        tree = self._tree()
        nid, other = next((nid, r) for nid, node in tree.nodes.items() for r in tree.roots
                          if tree.nodes[r].interval != node.interval)
        self._fails_alone(tree, _with_node(tree, nid, root_id=other),
                          "subtree_interval_constant")

    def test_children_products_nested_disjoint(self):
        # a child listed twice meets itself
        tree = self._tree()
        nid, node = next((nid, node) for nid, node in tree.nodes.items() if node.children)
        self._fails_alone(tree, _with_node(tree, nid, children=node.children + node.children[:1]),
                          "children_products_nested_disjoint")


class TestBlockedTreeKernels:
    """The good tables, the sandwich check and the bad-scale tables in tiles
    of one row each against the one-block run and the per-node loops."""

    @pytest.mark.parametrize("thinned", [False, True], ids=["all_carriers", "thinned"])
    @pytest.mark.parametrize("make", [lambda: single_line_instance()[1:],
                                      two_direction_instance,
                                      lambda: cantor_horizontal_instance()[1:]],
                             ids=["single_line", "two_direction", "cantor_horizontal"])
    def test_row_tiles_match_the_per_node_loops(self, make, thinned, monkeypatch):
        params = ExperimentConfig()
        stages = stages_for(*make(), params=params)
        if thinned:
            for i in list(stages.core)[::3]:
                stages.core[i] = []
        whole = build_tree(stages)
        rep = verify_tree(whole)
        assert max(len(stages.core_carriers(iv)) for iv in stages.core_universe()) > 1
        blocks = tile_pairs(monkeypatch, 1, tree_module, conical)
        tiled = build_tree(stages)
        assert tiled.good_by_scale == whole.good_by_scale
        assert [(n.cube.atom_idx.tolist(), n.interval, n.tag) for n in tiled.nodes.values()] \
            == [(n.cube.atom_idx.tolist(), n.interval, n.tag) for n in whole.nodes.values()]
        assert verify_tree(tiled) == rep
        assert rep["sandwich_balls"] and sandwich_halves_by_node(tiled) == \
            {"inner": True, "outer": True}
        assert sorted(tiled.bad_ids) == sorted(whole.bad_ids) == bad_cubes_by_atom(tiled)
        assert {key: rep[key] for key in ("bad_scale_budget", "bad_scale_max_ratio")} == \
            bad_scale_budget_by_node(tiled)
        assert max(blocks) > 1


def uneven_energy_instance():
    """A row of 40 atoms with a vertical partner 2^-9 above the sixth and one
    2^-6 above the 26th. Every family is five separated level-5 intervals of
    the transverse root, one of which holds the vertical, so only the two
    pairs have energy: at rho = 1/2 the close pair lies far above the
    threshold, and the other pair is controlled but over its share on the
    vertical member, which the filtered family drops."""
    xs = np.linspace(0.0, 1.0, 40)
    pts = np.vstack([np.column_stack([xs, np.zeros(40)]),
                     [[xs[5], 2.0**-9], [xs[25], 2.0**-6]]])
    atoms = DiscreteMeasure(pts, np.full(len(pts), 1.0 / len(pts)))
    members = [TriadicInterval(5, k) for k in (54, 56, 58, 60, 62)]
    families = {i: list(members) for i in range(len(pts))}
    return atoms, np.ones(len(pts), dtype=bool), families, TRANSVERSE_ROOT


def mixed_family_instance(seed):
    """60 seeded random atoms and vertical partners 2^-9 to 2^-6 above the
    first six, a quarter of them outside E', each carrying one of four seeded
    families of random descendants of the transverse root. Two families also
    hold the vertical direction (level-5 interval 60), so the partners give
    some atoms an energy above the threshold or a cover member over its
    share, and families of several intervals have cover members that hold
    only part of the family."""
    rng = np.random.default_rng(seed)
    pts = rng.random((60, 2))
    pts = np.vstack([pts, pts[:6] + [[0.0, 2.0**-j] for j in (9, 6, 9, 6, 7, 8)]])
    atoms = DiscreteMeasure(pts, np.full(len(pts), 1.0 / len(pts)))
    vertical = [TriadicInterval(5, 60)]
    shared = [maximal_intervals(random_members(rng, int(rng.integers(1, 6))) + vertical * (k % 2))
              for k in range(4)]
    families = {i: list(shared[int(rng.integers(0, 4))]) for i in range(len(pts))}
    return atoms, rng.random(len(pts)) >= 0.25, families, TRANSVERSE_ROOT


def stage_facts(stages):
    return (stages.energy_threshold, stages.controlled.tolist(), stages.full_cover.tolist(),
            stages.cover, stages.filtered, stages.core, stages.checks, stages.scale_budget)


class TestOncePerFamily:
    """build_good_stages computes what a family alone decides once per family
    and sends only the members that do not hold the whole family to the
    piece call; the per-atom oracle gives the same stages."""

    @pytest.mark.parametrize("rho", [0.5, 0.45, 0.3])
    @pytest.mark.parametrize("make", [lambda: single_line_instance()[1:],
                                      two_direction_instance,
                                      lambda: cantor_horizontal_instance()[1:],
                                      uneven_energy_instance,
                                      lambda: mixed_family_instance(0),
                                      lambda: mixed_family_instance(1),
                                      lambda: mixed_family_instance(4)],
                             ids=["single_line", "two_direction", "cantor_horizontal",
                                  "uneven_energy", "mixed_0", "mixed_1", "mixed_4"])
    def test_matches_the_per_atom_oracle(self, make, rho):
        params = ExperimentConfig(rho=rho)
        stages = stages_for(*make(), params=params)
        assert stage_facts(stages) == \
            stage_facts(stages_by_atom(*make(), FIXTURE_A, FIXTURE_M, params))
        # each atom keeps its own lists
        covers = list(stages.cover.values()) + list(stages.filtered.values())
        assert len({id(ivs) for ivs in covers}) == len(covers)

    def test_mixed_families_reach_the_piece_call_and_the_filters(self, monkeypatch):
        calls = TestOneEnergyCallPerSite.counted(monkeypatch, conical.conical_energy)
        uncontrolled, dropped = [], []
        for seed in (0, 1, 4):
            atoms, eprime, families, root_iv = mixed_family_instance(seed)
            stages = stages_for(atoms, eprime, families, root_iv,
                                params=ExperimentConfig(rho=0.45))
            assert len({tuple(families[i]) for i in stages.cover}) >= 3
            uncontrolled.append(int((eprime & ~stages.controlled).sum()))
            dropped.append(sum(len(stages.cover[i]) - len(stages.filtered[i])
                               for i in stages.cover))
        # every instance makes the piece call, on the members holding part of a family
        assert len(calls) == 6 and min(calls) > 0
        assert uncontrolled == [3, 1, 1] and dropped == [0, 1, 2]

    @pytest.mark.parametrize("bad,match", [
        ([TriadicInterval(3, 7)], r"family interval .* of atom 5 outside the root interval"),
        ([ROOT, ROOT.children()[0]], "family of atom 5 is not disjoint"),
    ], ids=["outside", "overlapping"])
    def test_bad_family_names_its_first_atom(self, bad, match):
        # atoms 5, 2 and 7 share the bad family; 5 comes first in the dict
        atoms = line_atoms(8)
        good = [ROOT.children()[0]]
        fams = {i: list(bad) if i in (5, 2, 7) else list(good) for i in (0, 1, 5, 2, 3, 7, 4, 6)}
        for build in (build_good_stages, stages_by_atom):
            with pytest.raises(ValueError, match=match):
                build(atoms, np.ones(8, bool), fams, ROOT, 2.0, 8.0, ExperimentConfig())


def tree_facts(tree):
    """Every node's id, parent, tag, root, children, cube atoms, center,
    generation and interval, and every stopped piece's kind, cube and parent."""
    def cube(c):
        return c.atom_idx.tolist(), c.center_idx, c.level, c.interval

    return ([(nid, n.parent, n.tag, n.root_id, n.children, *cube(n.cube))
             for nid, n in tree.nodes.items()],
            [(s.kind, *cube(s.cube), s.parent_node) for s in tree.stopped],
            tree.roots, tree.generations)


class TestDepthAtATimeCascade:
    """build_tree decides each shattering depth at once and emits depth-first:
    the same forest as placing each piece as it comes."""

    @pytest.mark.parametrize("rho", [0.5, 0.45, 0.3])
    @pytest.mark.parametrize("thinned", [False, True], ids=["all_carriers", "thinned"])
    @pytest.mark.parametrize("make", [lambda: single_line_instance()[1:],
                                      two_direction_instance,
                                      lambda: cantor_horizontal_instance()[1:]],
                             ids=["single_line", "two_direction", "cantor_horizontal"])
    def test_matches_the_per_piece_oracle(self, make, thinned, rho):
        stages = stages_for(*make(), params=ExperimentConfig(rho=rho))
        if thinned:
            for i in list(stages.core)[::3]:
                stages.core[i] = []
        tree = build_tree(stages)
        assert any(s.kind == "sh" for s in tree.stopped)
        assert tree_facts(tree) == tree_facts(tree_by_piece(stages))

    def test_leaves_no_reference_cycle(self):
        # no closure refers to itself, so the tree and its pieces go by refcount
        stages = stages_for(*two_direction_instance(), params=ExperimentConfig())
        gc.collect()
        gc.disable()
        try:
            tree = build_tree(stages)
            assert any(s.kind == "sh" for s in tree.stopped)
            del tree
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_shattering_depth_cap_raises(self, monkeypatch):
        # no shattered piece may join, so two_direction's shatters run to the cap
        monkeypatch.setattr(tree_module, "_owns_core_interval", lambda *args: False)
        monkeypatch.setattr("tests.reference._owns_core_interval", lambda *args: False)
        stages = stages_for(*two_direction_instance(), params=ExperimentConfig())
        cap = stages.params.triadic_depth + 2
        with pytest.raises(RuntimeError, match=f"shattering did not terminate by depth {cap} "
                                               "at generation 1") as fast:
            build_tree(stages)
        with pytest.raises(RuntimeError) as slow:
            tree_by_piece(stages)
        assert str(fast.value) == str(slow.value)


class TestOneEnergyCallPerSite:
    """Selection and the tree hand all apexes of a call site to one blocked
    conical_energy call; the per-apex oracle in its place changes nothing."""

    @staticmethod
    def counted(monkeypatch, energy):
        calls = []

        def wrapped(mu, apexes, direction_sets, *args):
            calls.append(len(direction_sets))
            return energy(mu, apexes, direction_sets, *args)

        monkeypatch.setattr(conical, "conical_energy", wrapped)
        monkeypatch.setattr(tree_module, "conical_energy", wrapped)
        return calls

    @pytest.mark.parametrize("rho", [0.5, 0.45, 0.3])
    @pytest.mark.parametrize("make", [lambda: single_line_instance()[1:],
                                      two_direction_instance,
                                      lambda: cantor_horizontal_instance()[1:],
                                      uneven_energy_instance],
                             ids=["single_line", "two_direction", "cantor_horizontal",
                                  "uneven_energy"])
    def test_stages_and_bad_chain_match_the_per_apex_oracle(self, make, rho, monkeypatch):
        def facts(energy):
            calls = self.counted(monkeypatch, energy)
            out = []
            for thinned in (False, True):
                stages = stages_for(*make(), params=ExperimentConfig(rho=rho))
                out.append((stages.energy_threshold, stages.controlled.tolist(),
                            stages.filtered, stages.core, stages.checks))
                if thinned:
                    for i in list(stages.core)[::3]:
                        stages.core[i] = []
                out.append(bad_chain_check(build_tree(stages)))
            return out, calls

        fast, calls = facts(conical.conical_energy)
        # two per build_good_stages, one per check; on the tree-check fixtures
        # every cover member holds its atom's whole family, so the piece call
        # is skipped
        assert len(calls) == (6 if make is uneven_energy_instance else 4)
        assert min(calls) > 1
        assert facts(conical_energy_by_row)[0] == fast

    def test_energy_filters_read_each_atoms_own_energy(self):
        # on the other fixtures every atom is controlled and keeps its whole
        # cover, so an energy handed to the wrong atom would change nothing
        atoms, eprime, families, root_iv = uneven_energy_instance()
        stages = stages_for(atoms, eprime, families, root_iv, params=ExperimentConfig())
        units, bound = stages.units, 2.0 * stages.energy_threshold + TOL
        high = conical.scale_ceiling(atoms.points, 0.5)

        def energy(i, ivs):
            return conical_energy_at(atoms, atoms.points[i], ivs, 0.5, high).total_float

        members = families[0]
        assert stages.controlled.tolist() == \
            [energy(i, members) <= bound for i in range(len(atoms))]
        for i, cover in stages.cover.items():
            assert cover == members
            assert stages.filtered[i] == [
                iv for iv in cover
                if energy(i, [iv]) <= 4.0 * (units.length(iv) / units.union_length(cover))
                * stages.energy_threshold + TOL]
        assert np.nonzero(~stages.controlled)[0].tolist() == [5, 40]
        assert sorted(i for i, kept in stages.filtered.items() if kept != members) == [25, 41]

    def test_selection_matches_the_per_apex_oracle(self, monkeypatch):
        horiz, _ = split_parallel(four_corners(1).skeleton())
        cfg = ExperimentConfig(n_angles=1024, atom_pitch=1 / 128)
        selections = []

        def recorded(*args, **kwargs):
            selections.append(conical.select_good_directions(*args, **kwargs))
            return selections[-1]

        monkeypatch.setattr(pipeline, "select_good_directions", recorded)

        def facts(energy):
            calls = self.counted(monkeypatch, energy)
            report = pipeline.run_pipeline(horiz, 0.06, cfg)
            sel = selections.pop()
            return (report, sel.energy_ratios, sel.fourier_ratios), calls

        fast, calls = facts(conical.conical_energy)
        # selection, then build_good_stages' stage energies in one propagation
        # round; every cover member holds the whole family, so no piece call
        assert calls == [len(fast[1])] * 2
        assert facts(conical_energy_by_row)[0] == fast
        assert any(v > 0.0 for v in fast[1].values())


class TestMergeAngleIntervals:
    """Seeded random arcs. Each set has an arc straddling theta = 0 and one
    starting just past 0 inside its reach, so the wrap-around join runs; the
    arcs total less than the torus, so only that join can unite the two."""

    @staticmethod
    def _covered(arcs, grid):
        """AngleInterval.contains at every grid angle, for the union of arcs."""
        out = np.zeros(len(grid), dtype=bool)
        for arc in arcs:
            d = np.abs(grid - arc.center)
            out |= np.minimum(d, 1.0 - d) <= arc.half_width + TOL
        return out

    def test_disjoint_outputs_with_the_same_union(self):
        rng = np.random.default_rng(17)
        grid = (np.arange(20_000) + 0.5) / 20_000
        for _ in range(200):
            hw0 = rng.uniform(0.01, 0.05)
            c0 = rng.uniform(-hw0 / 2, hw0 / 2)
            hw1 = rng.uniform(0.005, 0.03)
            low1 = rng.uniform(0.0, c0 + hw0)
            arcs = [AngleInterval(c0, hw0), AngleInterval(low1 + hw1, hw1)]
            arcs += [AngleInterval(rng.random(), rng.uniform(0.002, 0.04))
                     for _ in range(rng.integers(0, 7))]
            merged = _merge_angle_intervals(arcs)
            for i, a in enumerate(merged):
                assert not any(a.intersects(b) for b in merged[i + 1:])
            assert np.array_equal(self._covered(merged, grid), self._covered(arcs, grid))
            joined = [a for a in merged if a.contains(0.0)]
            assert len(joined) == 1 and joined[0].contains(arcs[1].center)


class TestPropagation:
    def test_root_families_finish_round_one(self):
        atoms = line_atoms(48)
        fams = {i: [ROOT] for i in range(48)}
        res = propagate_good_directions(atoms, np.ones(48, bool), fams, ROOT, 2.0, 8.0,
                                        ExperimentConfig())
        assert res.rounds == 1
        assert res.finished_mask.all()

    def test_single_child_grows_to_root(self):
        atoms = line_atoms(48)
        child = ROOT.children()[2]
        fams = {i: [child] for i in range(48)}
        res = propagate_good_directions(atoms, np.ones(48, bool), fams, ROOT, 2.0, 8.0,
                                        ExperimentConfig())
        assert res.rounds == 1
        assert math.fsum(atoms.weights[res.finished_mask].tolist()) >= 0.25 - 1e-12
        for t in res.trace:
            assert t["containment_ok"] and t["growth_ok"]

    @pytest.mark.parametrize("levels", [2, 3], ids=["level5", "level6"])
    def test_deep_family_grows_one_level_per_round(self, levels):
        # each round's parents lift the family one triadic level, and nothing
        # finishes before the family is the root. A line has zero conical
        # energy, so the growth constant of every later round reads 0.0
        atoms = line_atoms(48)
        iv = ROOT
        for _ in range(levels):
            iv = iv.children()[2]
        fams = {i: [iv] for i in range(48)}
        res = propagate_good_directions(atoms, np.ones(48, bool), fams, ROOT, 2.0, 8.0,
                                        ExperimentConfig())
        assert res.rounds == levels
        assert [t["e_fin_mass_fraction"] for t in res.trace] == [0.0] * (levels - 1) + [1.0]
        assert "energy_growth_constant" not in res.trace[0]
        assert [t["energy_growth_constant"] for t in res.trace[1:]] == [0.0] * (levels - 1)
        for t in res.trace:
            assert t["containment_ok"] and t["growth_ok"]

    @pytest.mark.parametrize("make", [
        lambda: mixed_family_instance(0), lambda: mixed_family_instance(1),
        lambda: mixed_family_instance(4),
        lambda: (line_atoms(48), np.ones(48, bool),
                 {i: [ROOT.children()[i % 3].children()[2 - i % 2]] for i in range(48)}, ROOT),
    ], ids=["mixed_0", "mixed_1", "mixed_4", "three_deep_families"])
    def test_family_fractions_read_each_atoms_family(self, make, monkeypatch):
        # the per-family length memo against each round's families, atom by atom
        atoms, eprime, families, root_iv = make()
        seen = []
        build = tree_module.build_good_stages

        def recorded(atoms, eprime, families, *args):
            seen.append(dict(families))
            return build(atoms, eprime, families, *args)

        monkeypatch.setattr(tree_module, "build_good_stages", recorded)
        params = ExperimentConfig()
        res = propagate_good_directions(atoms, eprime, families, root_iv, FIXTURE_A, FIXTURE_M,
                                        params)
        units = tree_module._stage_constants(root_iv, FIXTURE_A, FIXTURE_M, params)[1]
        emass = math.fsum(atoms.weights[eprime].tolist())
        assert [t["avg_family_fraction"] for t in res.trace] == [
            math.fsum(atoms.weights[i] * units.union_length(fams[int(i)])
                      / units.length(root_iv) for i in np.nonzero(eprime)[0]) / emass
            for fams in seen]
        assert len({tuple(f) for f in seen[-1].values()}) > 1

    def test_round_cap_raises_with_the_trace(self, monkeypatch):
        monkeypatch.setattr("favard.tree.MAX_ROUNDS", 1)
        atoms = line_atoms(48)
        iv = ROOT.children()[2].children()[2]
        fams = {i: [iv] for i in range(48)}
        with pytest.raises(RuntimeError, match="did not finish within 1 rounds; trace: r1: fin=0"):
            propagate_good_directions(atoms, np.ones(48, bool), fams, ROOT, 2.0, 8.0,
                                      ExperimentConfig())

    def test_empty_family_rejected(self):
        atoms = line_atoms(8)
        fams = {i: [] for i in range(8)}
        with pytest.raises(ValueError, match="empty family"):
            propagate_good_directions(atoms, np.ones(8, bool), fams, ROOT, 2.0, 8.0,
                                      ExperimentConfig())


class TestGapInterval:
    R_BIG = 300.0
    M_GAP = 128.0

    def test_constructed_instance(self):
        mu, f_idx, j_iv, x_apex, r, alpha, x_idx = gap_instance()
        res = find_gap_interval(mu, f_idx, j_iv, x_apex, r, self.R_BIG, x_idx,
                                alpha=alpha, m_bound=self.M_GAP, a_const=2.0)
        assert res.disjoint_ok
        assert res.b0_inside_ok
        assert res.width_ratio > 0.0
        assert res.trace[-1] == res.nice_strip

    def test_missing_witness_reported(self):
        mu, f_idx, j_iv, x_apex, r, alpha, x_idx = gap_instance()
        # drop the exterior witness: hypothesis (iv) fails
        short = DiscreteMeasure(mu.points[:-1], mu.weights[:-1])
        with pytest.raises(ValueError, match="hypothesis \\(iv\\)"):
            find_gap_interval(short, f_idx, j_iv, x_apex, r, self.R_BIG, x_idx,
                              alpha=alpha, m_bound=self.M_GAP, a_const=2.0)

    def test_wide_interval_rejected(self):
        mu, f_idx, _, x_apex, r, alpha, x_idx = gap_instance()
        wide = AngleInterval(0.25, 0.2)
        with pytest.raises(ValueError, match="hypothesis \\(i\\)"):
            find_gap_interval(mu, f_idx, wide, x_apex, r, self.R_BIG, x_idx,
                              alpha=alpha, m_bound=self.M_GAP, a_const=2.0)

    def test_beats_chain_trace_length(self):
        # atoms in strips 0..m only: the nice strip is found in m+1 steps
        for m in (2, 4):
            mu, f_idx, j_iv, x_apex, r, alpha, x_idx = gap_instance(ladder=m)
            res = find_gap_interval(mu, f_idx, j_iv, x_apex, r, self.R_BIG, x_idx,
                                    alpha=alpha, m_bound=self.M_GAP, a_const=2.0)
            assert res.trace == list(range(m + 1))
            assert res.nice_strip == m
            assert res.disjoint_ok

    def test_envelope_stability_across_variants(self):
        ratios = []
        for ladder in (0, 1, 3):
            for sign in (1.0, -1.0):
                mu, f_idx, j_iv, x_apex, r, alpha, x_idx = gap_instance(
                    ladder=ladder, offset_sign=sign)
                res = find_gap_interval(mu, f_idx, j_iv, x_apex, r, self.R_BIG,
                                        x_idx, alpha=alpha, m_bound=self.M_GAP,
                                        a_const=2.0)
                assert res.disjoint_ok and res.b0_inside_ok
                ratios.append(res.width_ratio)
        assert max(ratios) / min(ratios) < 16.0


class TestStopFamilies:
    @pytest.mark.parametrize("make", [lambda: single_line_instance()[1:],
                                      two_direction_instance,
                                      lambda: cantor_horizontal_instance()[1:]],
                             ids=["single_line", "two_direction", "cantor_horizontal"])
    def test_nodes_and_pieces_read_their_cubes(self, make):
        # a node's generation is its place in the generation lists; a stopped
        # piece hangs one generation below its parent node, and a shattered
        # one splits the interval it was given into its children's
        tree = build_tree(stages_for(*make(), params=ExperimentConfig()))
        assert {nid: node.generation for nid, node in tree.nodes.items()} == \
            {nid: k for k, gen in enumerate(tree.generations) for nid in gen}
        assert all(node.interval == node.cube.interval for node in tree.nodes.values())
        for piece in tree.stopped:
            parent = tree.nodes[piece.parent_node]
            assert piece.cube.level == parent.generation + 1
            assert parent.interval.contains(piece.cube.interval)
        assert {s.kind for s in tree.stopped} <= {"end", "sh"}

    def test_stop_pieces_attach_to_roots(self):
        params = ExperimentConfig(k_max=3, triadic_depth=3)
        stages = stages_for(*two_direction_instance(), params=params)
        tree = build_tree(stages)
        covered = []
        for r in tree.roots:
            covered.extend(id(s) for s in stop_of(tree, r))
        assert len(covered) == len(tree.stopped)
        assert len(set(covered)) == len(covered)
