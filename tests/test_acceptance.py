"""The acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from favard.config import ExperimentConfig
from favard.conical import conical_energy
from favard.fixtures import (cantor_horizontal_instance, single_line_instance,
                             stages_for, two_direction_instance)
from favard.graphs import extract_graph, verify_lipschitz
from favard.lattice import check_cube_invariants
from favard.projection import PiecewiseConstDensity, favard, favard_mc
from favard.sets import (DiscreteMeasure, DyadicSquareSet, Segment,
                         SegmentUnion, four_corners, split_parallel)
from favard.torus import AngleInterval, TriadicInterval, direction_vector
from favard.tree import build_tree, packing_sums, verify_tree
from tests.reference import (ConeSpec, bad_scales, d_metric, dense_mass_centered, descend_one,
                             energy_integral_quadrature, find_gap_interval, gap_instance,
                             in_cone, masses_float, maximal_value, profile_total,
                             to_metric_coords, whitney)

GOLDEN = Path(__file__).parent / "golden" / "cantor_favard.json"


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


class TestCriterion1FavardClosedForms:
    def test_closed_forms(self):
        t0 = time.time()
        seg = SegmentUnion([Segment((0, 0), (1, 0))])
        v_seg = favard(seg, 4096, 1)
        elapsed = time.time() - t0
        assert abs(v_seg - 2 / math.pi) <= 1e-3
        assert elapsed < 1.0

        square = DyadicSquareSet(0, [(0, 0)]).skeleton()
        v_sq = favard(square, 4096, 1)
        assert abs(v_sq - 4 / math.pi) <= 2e-3

        n = 64
        ang = 2 * math.pi * np.arange(n + 1) / n
        ring = np.column_stack([np.cos(ang), np.sin(ang)])
        poly = SegmentUnion([Segment(tuple(ring[i]), tuple(ring[i + 1]))
                             for i in range(n)])
        v_poly = favard(poly, 4096, 1)
        assert abs(v_poly - 2.0) <= 5e-3
        report(f"1: PASS favard closed forms (segment {v_seg:.6f}, square "
               f"{v_sq:.6f}, 64-gon {v_poly:.6f}; segment in {elapsed:.2f}s)")


class TestCriterion2ExactVsMC:
    def test_ten_random_unions(self):
        rng = np.random.default_rng(2024)
        t0 = time.time()
        for trial in range(10):
            count = int(rng.integers(3, 51))
            segs = [Segment(tuple(rng.random(2)),
                            tuple(rng.random(2) + rng.uniform(0.05, 0.3, 2)))
                    for _ in range(count)]
            union = SegmentUnion(segs)
            exact = favard(union, 2048, 1)
            est, se = favard_mc(union, 1_000_000, rng_seed=trial)
            assert abs(exact - est) <= 3.0 * se, (trial, exact, est, se)
        elapsed = time.time() - t0
        assert elapsed < 30.0
        report(f"2: PASS exact vs MC on 10 unions within 3 sigma ({elapsed:.1f}s)")


class TestCriterion3ConeMetricInclusions:
    N = 10_000

    def test_suite(self):
        t0 = time.time()
        rng = np.random.default_rng(3)

        # cone symmetry: y in X(x, I) iff x in X(y, I)
        for _ in range(self.N):
            x, y = rng.normal(size=2), rng.normal(size=2)
            iv = AngleInterval(rng.random(), 0.01 + 0.24 * rng.random())
            assert in_cone(ConeSpec(tuple(x), iv), y) == \
                in_cone(ConeSpec(tuple(y), iv), x)

        # coneinball with C = 8
        worst_cb = 0.0
        for _ in range(self.N):
            alpha = 1.0 + 3.0 * rng.random()
            hw = rng.uniform(0.005, 0.25 / alpha / 2)
            iv = AngleInterval(rng.random(), hw)
            x = rng.normal(size=2)
            r = 10.0 ** rng.uniform(-3, 1)
            theta = iv.center + (2 * rng.random() - 1) * alpha * hw
            y = x + rng.uniform(1e-6, r) * direction_vector(theta)
            ratio = d_metric(iv, x, y) / (alpha * r)
            worst_cb = max(worst_cb, ratio)
            assert ratio <= 8.0

        # cone-in-cone with C(alpha) = max(4, 8/(alpha-1))
        for _ in range(self.N):
            alpha = 1.0 + rng.uniform(0.05, 1.0)
            hw = rng.uniform(0.002, 0.25 / alpha / 2)
            iv = AngleInterval(rng.random(), hw)
            c_alpha = max(4.0, 8.0 / (alpha - 1.0))
            x = rng.normal(size=2)
            r = 10.0 ** rng.uniform(-2, 0)
            big_r = r * 10.0 ** rng.uniform(0.1, 1.0)
            y = x + rng.normal(size=2) * 1e-3
            d = d_metric(iv, x, y)
            if r <= c_alpha * d:
                y = x + (y - x) * (r / (c_alpha * d) * 0.5)
            theta = iv.center + (2 * rng.random() - 1) * hw
            z = x + rng.uniform(r * 1.0000001, big_r) * direction_vector(theta)
            assert in_cone(ConeSpec(tuple(y), iv.dilate(alpha),
                                    inner=r / 2, outer=2 * big_r), z)

        # ball-in-cone with c(alpha) = min(1/4, (alpha-1)/4)
        for _ in range(self.N):
            alpha = 1.0 + rng.uniform(0.05, 1.0)
            hw = rng.uniform(0.002, 0.25 / alpha / 2)
            iv = AngleInterval(rng.random(), hw)
            c = min(0.25, (alpha - 1.0) / 4.0)
            x = rng.normal(size=2)
            r = 10.0 ** rng.uniform(-3, 0)
            theta = iv.center + (2 * rng.random() - 1) * hw
            y = x + rng.uniform(r, 2 * r) * direction_vector(theta)
            u = rng.normal(size=2)
            z = y + u / np.linalg.norm(u) * rng.random() * c * iv.length * r
            assert in_cone(ConeSpec(tuple(x), iv.dilate(alpha),
                                    inner=r / 2, outer=4 * r), z)

        # metric comparability with factor 2C
        for _ in range(self.N):
            c_factor = rng.uniform(1.0, 2.5)
            hj = rng.uniform(0.01, 0.2)
            hi = rng.uniform(hj / c_factor, min(c_factor * hj, 0.25))
            max_shift = min(c_factor * hj - hi, c_factor * hi - hj) / 2.0
            if max_shift < 0:
                continue
            center_j = rng.random()
            i_iv = AngleInterval(center_j + rng.uniform(-max_shift, max_shift), hi / 2)
            j_iv = AngleInterval(center_j, hj / 2)
            x, y = rng.normal(size=2), rng.normal(size=2)
            di, dj = d_metric(i_iv, x, y), d_metric(j_iv, x, y)
            assert di <= 2.0 * c_factor * dj + 1e-12
            assert dj <= 2.0 * c_factor * di + 1e-12

        # d_I isometry (exact)
        for _ in range(self.N):
            iv = AngleInterval(rng.random(), 0.01 + 0.45 * rng.random())
            pts = rng.normal(size=(2, 2))
            mapped = to_metric_coords(iv, pts)
            assert d_metric(iv, pts[0], pts[1]) == pytest.approx(
                float(np.linalg.norm(mapped[0] - mapped[1])), abs=1e-12)

        elapsed = time.time() - t0
        assert elapsed < 10.0
        report(f"3: PASS cone/metric inclusion suite, 6 x {self.N} configurations, "
               f"0 violations (coneinball max ratio {worst_cb:.3f}, {elapsed:.1f}s)")


class TestCriterion4MaximalOracle:
    def test_grid_oracle(self):
        rng = np.random.default_rng(4)
        done = 0
        while done < 100:
            m = int(rng.integers(1, 8))
            b = np.sort(rng.uniform(-2, 2, m + 1))
            if np.any(np.diff(b) <= 0):
                continue
            v = rng.uniform(0, 3, m)
            atoms = tuple((float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 1)))
                          for _ in range(int(rng.integers(0, 3))))
            d = PiecewiseConstDensity(b, v, atoms)
            if d.total_mass <= 0:
                continue
            t = float(rng.uniform(-3, 3))
            if any(p == t for p, _ in d.atoms):
                continue
            exact = maximal_value(d, t)

            cands = {abs(float(x) - t) for x in d.breakpoints}
            cands |= {abs(p - t) for p, _ in d.atoms}
            cands.discard(0.0)
            rmax = max(cands) * 2 + 1.0
            grid = list(np.linspace(rmax / 10_000, rmax, 10_000)) + sorted(cands)
            best = d.small_window_limit(t)
            for r in grid:
                dense = dense_mass_centered(d, t, r)
                inner = sum(mm for p, mm in d.atoms if abs(p - t) < r)
                bdy = sum(mm for p, mm in d.atoms if abs(p - t) == r)
                best = max(best, (dense + inner) / (2 * r),
                           (dense + inner + bdy) / (2 * r))
            assert abs(exact - best) <= 1e-9, (exact, best)
            done += 1
        report("4: PASS maximal function matches the 1e4-point grid oracle "
               "within 1e-9 on 100 densities")


class TestCriterion5Energies:
    def test_exact_additivity_and_comparison(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            pts = rng.normal(size=(40, 2))
            mu = DiscreteMeasure(pts, rng.uniform(0.1, 1.0, 40))
            x = rng.normal(size=2)
            c = rng.random()
            arc_a = AngleInterval(c, 0.02 + 0.02 * rng.random())
            arc_b = AngleInterval(c + 0.25 * (1 + rng.random()), 0.03)
            p_union = conical_energy(mu, [x], [(arc_a, arc_b)], 0.5, 10)[0]
            p1 = conical_energy(mu, [x], [[arc_a]], 0.5, 10)[0]
            p2 = conical_energy(mu, [x], [[arc_b]], 0.5, 10)[0]
            assert profile_total(p_union) == profile_total(p1) + profile_total(p2)  # exact

        worst = 0.0
        for _ in range(30):
            pts = rng.uniform(-1, 1, size=(60, 2))
            mu = DiscreteMeasure(pts, rng.uniform(0.2, 1.0, 60))
            x = rng.uniform(-0.2, 0.2, 2)
            g = AngleInterval(rng.random(), 0.05 + 0.1 * rng.random())
            j = 7
            prof = conical_energy(mu, [x], [[g]], 0.5, j)[0]
            mid = energy_integral_quadrature(mu, x, g, 0.5, 0.5**j, 1.0, 300)
            inner = math.fsum(masses_float(prof)[1:-1])
            full = prof.total_float
            if mid > 0:
                worst = max(worst, inner / mid)
                assert inner <= 64.0 * mid + 1e-9
            if full > 0:
                worst = max(worst, mid / full)
                assert mid <= 64.0 * full + 1e-9
        report(f"5: PASS energy additivity exact on 100 instances; two-sided "
               f"comparison with C(1/2) = {worst:.2f} <= 64")


class TestCriterion6Lattice:
    def test_hundred_instances(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            n = int(rng.integers(20, 100))
            pts = rng.random((n, 2))
            h_iv = TriadicInterval(1, int(rng.integers(0, 3))) if trial % 2 == 0 \
                else TriadicInterval(3, int(rng.integers(0, 27)))
            k = int(rng.integers(0, 3))
            l = int(rng.integers(0, 3))
            cubes = descend_one(pts, np.arange(n), h_iv, k + l)
            rep = check_cube_invariants(pts, np.arange(n), cubes)
            assert rep["partition"], trial
            assert rep["sandwich_outer"], trial
            assert rep["sandwich_inner"], trial
            assert rep["net_separation"], trial
        report("6: PASS lattice invariants exact on 100 instances, "
               "H(J) in {1/3, 1/27} alternating")


class TestCriterion7Whitney:
    def test_hundred_open_sets(self):
        rng = np.random.default_rng(7)
        done = 0
        while done < 100:
            cuts = np.sort(rng.uniform(0, 10, 2 * int(rng.integers(1, 5))))
            comps = [(cuts[2 * i], cuts[2 * i + 1]) for i in range(len(cuts) // 2)
                     if cuts[2 * i + 1] - cuts[2 * i] > 1e-3]
            if not comps:
                continue
            w = whitney(comps, min_exp=-22)
            ivs = sorted(w.intervals, key=lambda i: i.low)
            for a, b in zip(ivs, ivs[1:]):
                assert a.high <= b.low + 1e-12
            for iv in w.intervals:
                tl, th = iv.triple()
                assert any(a < tl and th <= b for a, b in comps)
                pl, ph = iv.parent().triple()
                assert not any(a < pl and ph <= b for a, b in comps)
            done += 1
        members = {(iv.low, iv.high) for iv in whitney([(0.0, 1.0)]).intervals}
        assert (0.25, 0.375) in members
        report("7: PASS Whitney conditions exact on 100 open sets; "
               "[1/4, 3/8) in the (0,1) fixture")


class TestCriterion8Tree:
    def test_three_fixtures(self):
        params = ExperimentConfig(k_max=5, triadic_depth=5)
        fixtures = {
            "single_line": stages_for(*single_line_instance()[1:], params=params),
            "two_direction": stages_for(*two_direction_instance(), params=params),
            "cantor_horizontal": stages_for(*cantor_horizontal_instance()[1:],
                                            params=params),
        }
        lines = []
        for name, stages in fixtures.items():
            t0 = time.time()
            tree = build_tree(stages)
            rep = verify_tree(tree)
            packing = packing_sums(tree)
            elapsed = time.time() - t0
            assert rep["all_pass"], (name, rep)
            assert packing["roots_within_budget"], name
            assert elapsed < 60.0, (name, elapsed)
            lines.append(f"{name} ({len(tree.nodes)} nodes, {elapsed:.1f}s)")
        report("8: PASS the nine structural tree properties on " + ", ".join(lines))


class TestCriterion9GapInterval:
    def test_fifty_instances(self):
        ratios = []
        count = 0
        for ladder in range(5):
            for sign in (1.0, -1.0):
                for n_line in (120, 160, 200, 240, 280):
                    mu, f_idx, j_iv, x_apex, r, alpha, x_idx = gap_instance(
                        n_line=n_line, offset_sign=sign, ladder=ladder)
                    res = find_gap_interval(mu, f_idx, j_iv, x_apex, r, 300.0,
                                            x_idx, alpha=alpha, m_bound=128.0,
                                            a_const=2.0)
                    assert res.disjoint_ok
                    assert res.b0_inside_ok
                    ratios.append(res.width_ratio)
                    count += 1
        assert count == 50
        c1, c2 = min(ratios), max(ratios)
        assert 0.0 < c1 <= c2 < 2.0**8
        report(f"9: PASS gap interval disjoint on 50 instances; width ratio "
               f"envelope [{c1:.3f}, {c2:.3f}]")


class TestCriterion10Extraction:
    def test_extraction_and_pipeline(self):
        # extract_graph always passes verify_lipschitz
        rng = np.random.default_rng(10)
        for _ in range(5):
            pts = rng.random((20, 2)) * 0.6
            j = AngleInterval(0.25, 0.03)
            m0 = max(len(bad_scales(pts, pts[i], j, 0.5, 14))
                     for i in range(len(pts)))
            cert = extract_graph(pts, j, m0)
            ok, _ = verify_lipschitz(pts[cert.retained_idx],
                                     AngleInterval(0.25, 0.03 * 2.0**-m0))
            assert ok

        # the |t|-graph fixture certifies lip = 1
        ts = np.linspace(-0.3, 0.3, 25)
        cert = extract_graph(np.column_stack([ts, np.abs(ts)]),
                             AngleInterval(0.25, 0.1), 0)
        assert abs(cert.lip - 1.0) <= 1e-9

        # end-to-end pipeline command on the four_corners(2) horizontal skeleton
        import tempfile

        from favard.cli import main
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            horiz, _ = split_parallel(four_corners(2).skeleton())
            horiz.to_csv(tmp / "horiz.csv")
            (tmp / "cfg.json").write_text(json.dumps(
                {"n_angles": 1024, "atom_pitch": 1 / 24 / 16}))
            code = main(["--config", str(tmp / "cfg.json"), "--out", str(tmp),
                         "pipeline", str(tmp / "horiz.csv"), "--kappa", "0.05"])
            assert code == 0
            rep = json.loads((tmp / "pipeline_report.json").read_text())
        assert rep["all_stage_invariants"]
        assert rep["certificate"]["retained_atoms"] > 0
        report(f"10: PASS extraction recheck, |t| fixture lip = {cert.lip!r}, "
               f"pipeline certificate with "
               f"{rep['certificate']['retained_atoms']} atoms "
               f"(mass fraction {rep['certificate']['retained_mass_fraction']:.3f})")


class TestCriterion11CantorRegression:
    def test_golden_values(self):
        golden = json.loads(GOLDEN.read_text())
        values = []
        for n in range(6):
            skel = four_corners(n).skeleton()
            val = favard(skel, golden["n_angles"], 1)
            frozen = golden["values"][str(n)]
            assert abs(val - frozen) <= 1e-9, (n, val, frozen)
            values.append(val)
        assert all(a > b for a, b in zip(values, values[1:]))
        report("11: PASS cantor regression: golden values reproduced to 1e-9, "
               "strictly decreasing for n = 0..5")
