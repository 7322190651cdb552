import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from favard import conical, projection, torus
from favard.conical import (bad_scale_counts, bad_scale_table, conical_energy, scale_ceiling,
                            scale_index, select_good_directions)
from favard.projection import Projector, maximal_values_batch, pushforward_density
from favard.sets import DiscreteMeasure, Segment, SegmentUnion, four_corners, split_parallel
from favard.torus import (TOL, AngleInterval, TriadicInterval, _direction_mask,
                          direction_vector, perp, triadic_cover, wrap)
from tests.reference import (_as_intervals, bad_scales, cone_mass, cone_mass_exact,
                             conical_energy_at, energy_integral_quadrature, masses_float,
                             profile_masses, profile_total, project,
                             select_bounded_projection_set, tile_pairs)


def measure_at(points, weights=None):
    pts = np.asarray(points, dtype=float)
    w = np.ones(len(pts)) if weights is None else np.asarray(weights, dtype=float)
    return DiscreteMeasure(pts, w)


class TestConeMass:
    def test_single_atom_inside(self):
        mu = measure_at([[1.0, 0.0]])
        g = AngleInterval(0.0, 0.05)
        assert cone_mass(mu, (0, 0), g, 0.5, 2.0) == 1.0

    def test_perpendicular_direction_empty(self):
        mu = measure_at([[1.0, 0.0]])
        g = AngleInterval(0.25, 0.05)
        assert cone_mass(mu, (0, 0), g, 0.5, 2.0) == 0.0

    def test_axis_chain(self):
        mu = measure_at([[2.0**-k, 0.0] for k in range(1, 6)])
        g = AngleInterval(0.0, 0.1)
        assert cone_mass(mu, (0, 0), g, 0.0, 1.0) == 5.0

    def test_half_open_inner_boundary(self):
        mu = measure_at([[0.5, 0.0]])
        g = AngleInterval(0.0, 0.1)
        # atom exactly at the inner radius is excluded, at the outer included
        assert cone_mass(mu, (0, 0), g, 0.5, 1.0) == 0.0
        assert cone_mass(mu, (0, 0), g, 0.25, 0.5) == 1.0

    def test_bad_radii_rejected(self):
        mu = measure_at([[1.0, 0.0]])
        with pytest.raises(ValueError):
            cone_mass(mu, (0, 0), AngleInterval(0.0, 0.1), 1.0, 0.5)

    def test_exact_additivity_over_disjoint_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pts = rng.normal(size=(30, 2))
            mu = measure_at(pts, rng.uniform(0.1, 1.0, 30))
            c1 = rng.random()
            filtered_fam = AngleInterval(c1, 0.03)
            core_fam = AngleInterval(c1 + 0.2, 0.04)
            r, big = 0.1, 3.0
            total = cone_mass_exact(mu, (0, 0), (filtered_fam, core_fam), r, big)
            parts = cone_mass_exact(mu, (0, 0), filtered_fam, r, big) + \
                cone_mass_exact(mu, (0, 0), core_fam, r, big)
            assert total == parts  # exact rational equality


def reference_energy_masses(mu, x, directions, rho, high):
    """conical_energy's per-scale masses summed atom by atom in canonical arc
    order: the oracle of its grouped sums."""
    apex = np.asarray(x, dtype=float)
    diff = mu.points - apex
    dist = np.hypot(diff[:, 0], diff[:, 1])
    scale = scale_index(dist, rho, high)
    masses = [Fraction(0) for _ in range(high + 1)]
    for interval in sorted(_as_intervals(directions),
                           key=lambda iv: (wrap(iv.center - iv.half_width), iv.half_width)):
        sel = _direction_mask(diff, interval, dist) & (scale >= 0)
        for w, k in zip(mu.weights[sel].tolist(), scale[sel].tolist()):
            masses[k] += Fraction(w) / Fraction(rho) ** k
    return masses


class TestConicalEnergy:
    @pytest.mark.parametrize("rho", [0.5, 1.0 / 3.0])
    def test_matches_the_per_atom_sum(self, rho):
        # repeated weights (summed as n * w) and distinct ones, one arc and a
        # union of arcs
        rng = np.random.default_rng(6)
        pts = rng.normal(scale=0.5, size=(300, 2))
        filled = []
        for w in (np.full(300, 1 / 96), rng.choice([1 / 3, 0.1, 2.5], 300),
                  rng.uniform(0.1, 1.0, 300)):
            mu = measure_at(pts, w)
            for x in pts[:6]:
                for dirs in ([AngleInterval(rng.random(), 0.1)],
                             (AngleInterval(0.1, 0.03), TriadicInterval(2, 5),
                              AngleInterval(0.7, 0.3))):
                    prof = conical_energy(mu, [x], [dirs], rho, 9)[0]
                    assert profile_masses(prof) == reference_energy_masses(mu, x, dirs, rho, 9)
                    filled.append(sum(m != 0 for m in profile_masses(prof)))
        assert sum(filled) >= len(filled)

    def test_empty_annuli(self):
        mu = measure_at([[5.0, 5.0]])
        prof = conical_energy(mu, [(0, 0)], [[AngleInterval(0.25, 0.1)]], 0.5, 6)[0]
        assert profile_total(prof) == 0

    def test_single_atom_one_annulus(self):
        k0 = 3
        w = 0.7
        d = 0.5 ** (k0 + 0.5)
        mu = measure_at([[d, 0.0]], [w])
        prof = conical_energy(mu, [(0, 0)], [[AngleInterval(0.0, 0.05)]], 0.5, 8)[0]
        masses = masses_float(prof)
        assert masses[k0] == pytest.approx(w / 0.5**k0)
        assert sum(m != 0 for m in masses) == 1

    def test_boundary_atom_outer_annulus(self):
        # an atom at exactly rho^k belongs to annulus k, not k-1
        mu = measure_at([[0.25, 0.0]])
        prof = conical_energy(mu, [(0, 0)], [[AngleInterval(0.0, 0.05)]], 0.5, 6)[0]
        masses = masses_float(prof)
        assert masses[2] > 0 and masses[1] == 0

    def test_exact_additivity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pts = rng.normal(size=(40, 2))
            mu = measure_at(pts, rng.uniform(0.1, 1.0, 40))
            x = rng.normal(size=2)
            c = rng.random()
            filtered_fam = AngleInterval(c, 0.02 + 0.02 * rng.random())
            core_fam = AngleInterval(c + 0.25 * (1 + rng.random()), 0.03)
            p_union = conical_energy(mu, [x], [(filtered_fam, core_fam)], 0.5, 10)[0]
            p1 = conical_energy(mu, [x], [[filtered_fam]], 0.5, 10)[0]
            p2 = conical_energy(mu, [x], [[core_fam]], 0.5, 10)[0]
            assert profile_total(p_union) == profile_total(p1) + profile_total(p2)
            for a, b, c_ in zip(*map(profile_masses, (p_union, p1, p2))):
                assert a == b + c_

    def test_triadic_intervals_accepted(self):
        mu = measure_at([[0.3, 0.0]])
        prof = conical_energy(mu, [(0, 0)], [[TriadicInterval(2, 0)]], 0.5, 5)[0]
        assert prof.total_float >= 0.0

    def test_two_sided_integral_comparison(self):
        # dyadic sum over [1, j-1] <= C int <= C^2 * sum over [0, j]
        rng = np.random.default_rng(2)
        worst_lo, worst_hi = 0.0, 0.0
        for rho in (0.5, 1.0 / 3.0):
            for _ in range(20):
                pts = rng.uniform(-1, 1, size=(60, 2))
                mu = measure_at(pts, rng.uniform(0.2, 1.0, 60))
                x = rng.uniform(-0.2, 0.2, 2)
                g = AngleInterval(rng.random(), 0.05 + 0.1 * rng.random())
                j = 7
                prof = conical_energy(mu, [x], [[g]], rho, j)[0]
                mid = energy_integral_quadrature(mu, x, g, rho, rho**j, 1.0, 300)
                inner = math.fsum(masses_float(prof)[1:-1])
                full = prof.total_float
                if mid > 0:
                    worst_lo = max(worst_lo, inner / mid)
                if full > 0:
                    worst_hi = max(worst_hi, mid / full)
                assert inner <= 64.0 * mid + 1e-9
                assert mid <= 64.0 * full + 1e-9
        assert worst_lo <= 64.0 and worst_hi <= 64.0


class TestBlockedEnergy:
    @pytest.mark.parametrize("rho", [0.5, 0.3])
    @pytest.mark.parametrize("tile", ["default", "rows", "non_divisor"])
    def test_rows_match_the_per_apex_oracle(self, rho, tile, monkeypatch):
        # the arcs [1/9, 2/9] and [2/9, 3/9] touch at 2/9, and two atoms lie
        # on that line through the origin; an arc past 1/4 (angle test), the
        # full circle and an arc listed twice; apexes on atoms, the origin
        # twice, empty sets
        rng = np.random.default_rng(12)
        edge = direction_vector(2 / 9)
        pts = np.vstack([rng.normal(scale=0.4, size=(120, 2)), [0.3 * edge, -0.04 * edge]])
        apexes = np.vstack([np.zeros((2, 2)), pts[:30:2], rng.normal(scale=0.4, size=(20, 2))])
        touching = (TriadicInterval(2, 1), TriadicInterval(2, 2))
        shared = touching + (AngleInterval(0.6, 0.3),)
        per_row = [(), touching, (AngleInterval(0.3, 0.5),), (AngleInterval(0.9, 0.2),) * 2] + [
            [AngleInterval(rng.random(), w) for w in rng.choice([0.01, 0.05, 0.2, 0.3], 1 + a % 3)]
            for a in range(len(apexes) - 4)]
        step = {"default": torus.PAIR_TILE // len(pts), "rows": 1, "non_divisor": 7}[tile]
        blocks = tile_pairs(monkeypatch, step * len(pts), conical)
        assert (tile == "default") == (step >= len(apexes))
        assert tile != "non_divisor" or len(apexes) % step != 0
        filled = 0
        for w in (np.full(len(pts), 1 / 96), rng.choice([1 / 3, 0.1, 2.5], len(pts)),
                  rng.uniform(0.1, 1.0, len(pts))):
            mu = measure_at(pts, w)
            for sets in ([shared] * len(apexes), per_row):
                got = conical_energy(mu, apexes, sets, rho, 12)
                want = [conical_energy_at(mu, x, dirs, rho, 12) for x, dirs in zip(apexes, sets)]
                assert [profile_masses(p) for p in got] == [p.masses for p in want]
                assert {(p.rho, p.high) for p in got} == {(rho, 12)}
                filled += sum(m != 0 for p in got for m in profile_masses(p))
        assert profile_masses(got[0]) == [0] * 13            # per_row[0] is the empty set
        assert filled >= 6 * len(apexes)
        assert set(blocks) == {-(-len(apexes) // step)}

    def test_touching_arcs_count_the_shared_edge_twice(self):
        mu = measure_at([0.3 * direction_vector(2 / 9)], [0.7])
        left, right = TriadicInterval(2, 1), TriadicInterval(2, 2)
        both, one, other = conical_energy(mu, [(0, 0)] * 3, [(left, right), [left], [right]],
                                          0.5, 4)
        assert profile_masses(one) == profile_masses(other) == \
            [0, Fraction(0.7) / Fraction(0.5), 0, 0, 0]
        assert profile_masses(both) == [2 * m for m in profile_masses(one)]

    def test_no_rows(self):
        mu = measure_at([[1.0, 0.0]])
        assert conical_energy(mu, np.empty((0, 2)), [], 0.5, 4) == []
        with pytest.raises(ValueError):
            conical_energy(mu, [(0, 0)], [], 0.5, 4)

    def test_blocks_bound_the_memory(self):
        # one (apexes x atoms x 2) difference array for all rows would take
        # 4096 * 1000 * 16 bytes, about 65 MB
        rng = np.random.default_rng(13)
        mu = measure_at(rng.random((4096, 2)), rng.choice([1 / 3, 0.1, 2.5], 4096))
        dirs = (AngleInterval(0.1, 0.05), AngleInterval(0.6, 0.3))
        tracemalloc.start()
        try:
            profiles = conical_energy(mu, rng.random((1000, 2)), [dirs] * 1000, 0.5, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(profiles) == 1000 and all(profile_total(p) > 0 for p in profiles)
        assert peak < 8 * 2**20


class TestExactEnergySums:
    """The integer scale sums of conical_energy against the per-apex oracle,
    which adds Fractions."""

    @pytest.mark.parametrize("rho", [0.5, 0.45, 0.3])
    def test_masses_and_totals_match_the_fraction_oracle(self, rho):
        # binary exponents from 2^1 to 2^-70, so the common unit is far below
        # most weights' own denominators; every third row has no directions
        rng = np.random.default_rng(21)
        pts = rng.normal(scale=0.4, size=(80, 2))
        mu = measure_at(pts, rng.choice([0.5, 2.0**-70, 3 * 2.0**-40, 1 / 3, 0.1, 7.25],
                                        len(pts)))
        apexes = np.vstack([pts[:10], rng.normal(scale=0.4, size=(5, 2))])
        sets = [(), [AngleInterval(0.2, 0.05)],
                (TriadicInterval(1, 0), AngleInterval(0.7, 0.3))] * 5
        got = conical_energy(mu, apexes, sets, rho, 14)
        want = [conical_energy_at(mu, x, d, rho, 14) for x, d in zip(apexes, sets)]
        assert [profile_masses(p) for p in got] == [p.masses for p in want]
        assert [profile_total(p) for p in got] == [p.total for p in want]
        assert [p.total_float for p in got] == [p.total_float for p in want]
        assert all(profile_total(p) == sum(profile_masses(p)) for p in got)
        assert all(profile_total(p) == 0 and profile_masses(p) == [0] * 15 for p in got[::3])
        assert sum(profile_total(p) > 0 for p in got) >= 8


class TestScaleIndex:
    @staticmethod
    def per_k_loop(dist, rho, high):
        """The per-scale loop scale_index replaces."""
        out = np.full(len(dist), -1)
        for k in range(high + 1):
            out[(dist > rho ** (k + 1)) & (dist <= rho**k)] = k
        return out

    @pytest.mark.parametrize("rho", [0.5, 0.3])
    @pytest.mark.parametrize("high", [30, 7, 0])
    def test_matches_the_per_k_loop(self, rho, high):
        powers = np.array([rho**k for k in range(-1, high + 3)])
        dist = np.concatenate([
            np.random.default_rng(0).random(2000) ** 6 * 2.0,
            powers,
            np.nextafter(powers, 0.0),
            np.nextafter(powers, np.inf),
            [0.0, 1.5, 3.0],
        ])
        got = scale_index(dist, rho, high)
        assert np.array_equal(got, self.per_k_loop(dist, rho, high))
        assert (got == -1).any() and (got == 0).any() and (got == high).any()


def reference_bad_scales(pts, x, direction, rho, high):
    """The bad scales of one apex from its own distance row: the oracle of the
    (apexes x atoms) blocks behind bad_scales and bad_scale_counts."""
    apex = np.asarray(x, dtype=float)
    diff = pts - apex
    dist = np.hypot(diff[:, 0], diff[:, 1])
    scale = scale_index(dist[_direction_mask(diff, direction, dist)], rho, high)
    return frozenset(np.unique(scale[scale >= 0]).tolist())


class TestBadScales:
    @pytest.mark.parametrize("tile", [torus.PAIR_TILE, 1, 700],
                             ids=["one_block", "rows", "blocks"])
    def test_blocks_match_the_per_apex_rows(self, tile, monkeypatch):
        # narrow arcs (sine test), an arc past 1/4 (angle test) and the full
        # circle; coincident atoms and apexes on atoms
        one_block = tile == torus.PAIR_TILE
        blocks = tile_pairs(monkeypatch, tile, conical)
        rng = np.random.default_rng(8)
        pts = np.vstack([rng.normal(scale=0.4, size=(150, 2)), np.zeros((2, 2))])
        xs = np.vstack([pts[::3], rng.normal(scale=0.4, size=(20, 2))])
        mask = rng.random(len(pts)) < 0.5
        seen = set()
        for j in (AngleInterval(0.1, 0.02), TriadicInterval(2, 4), AngleInterval(0.6, 0.3),
                  AngleInterval(0.0, 0.5)):
            for rho, high in ((0.5, 12), (1 / 3, 7)):
                want = [reference_bad_scales(pts, x, j, rho, high) for x in xs]
                assert [bad_scales(pts, x, j, rho, high).scales for x in xs] == want
                assert bad_scale_counts(pts, xs, j, rho, high).tolist() == \
                    [len(w) for w in want]
                assert [frozenset(np.flatnonzero(row).tolist())
                        for row in bad_scale_table(pts, xs, j, rho, high)] == want
                assert [bad_scales(pts, x, j, rho, high, restrict=mask).scales
                        for x in xs[:10]] == \
                    [reference_bad_scales(pts[mask], x, j, rho, high) for x in xs[:10]]
                seen.update(len(w) for w in want)
        assert len(seen) >= 5
        assert (max(blocks) > 1) != one_block
        assert bad_scale_counts(pts, np.empty((0, 2)), j, 0.5, 30).tolist() == []

    def test_axis_perpendicular_empty(self):
        mu = measure_at([[x, 0.0] for x in np.linspace(0.1, 1, 10)])
        j = AngleInterval(0.25, 0.1)
        bs = bad_scales(mu.points, (0.5, 0.0), j, 0.5, 8)
        assert len(bs) == 0

    def test_dyadic_chain(self):
        pts = [[2.0**-k, 0.0] for k in range(1, 7)]
        mu = measure_at(pts + [[0.0, 0.0]])
        j = AngleInterval(0.0, 0.05)
        bs = bad_scales(mu.points, (0.0, 0.0), j, 0.5, 7)
        assert bs.scales == frozenset(range(1, 7))

    def test_empty_restriction(self):
        mu = measure_at([[0.5, 0.0]])
        j = AngleInterval(0.0, 0.05)
        bs = bad_scales(mu.points, (0.0, 0.0), j, 0.5, 7,
                        restrict=np.zeros(1, dtype=bool))
        assert len(bs) == 0

    def test_restricted_subset_of_full(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, size=(50, 2))
        mu = measure_at(pts)
        j = AngleInterval(0.1, 0.08)
        mask = rng.random(50) < 0.5
        full = bad_scales(mu.points, (0, 0), j, 0.5, 10)
        part = bad_scales(mu.points, (0, 0), j, 0.5, 10, restrict=mask)
        assert part.scales <= full.scales

    def test_bad_count_vs_energy(self):
        # #Bad <= C A H(J)^-1 * (energy over alpha J) + 4 with alpha = 1.5
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(25):
            xs = np.linspace(0, 1, 40)
            pts = np.column_stack([xs, 0.02 * rng.standard_normal(40)])
            mu = measure_at(pts, np.full(40, 1.0 / 40))
            x = pts[20]
            j = AngleInterval(rng.random(), 0.03 + 0.05 * rng.random())
            bs = bad_scales(mu.points, x, j, 0.5, 10)
            prof = conical_energy(mu, [x], [[j.dilate(1.5)]], 0.5, 10)[0]
            a_proxy = 40.0  # crude Ahlfors proxy for the perturbed line
            bound = a_proxy / j.length * prof.total_float + 4.0
            if len(bs):
                worst = max(worst, len(bs) / bound)
            assert len(bs) <= 8.0 * bound
        assert worst <= 8.0

    def test_energy_vs_bad_count(self):
        # truncated energy <= C M H(J) #Bad when a bounded witness exists
        segs = SegmentUnion([Segment((0, 0), (1, 0))])
        mu = segs.atoms(1 / 64)
        x = (0.5, 0.0)
        j = AngleInterval(0.0, 0.02)
        theta = j.center + 0.01
        m_val = Projector(segs).mu_theta(perp(theta), [x])[0]
        bs = bad_scales(mu.points, x, j, 0.5, 8)
        prof = conical_energy(mu, [x], [[j]], 0.5, 8)[0]
        assert len(bs) > 0
        c_meas = prof.total_float / (m_val * j.length * len(bs))
        assert c_meas <= 64.0


class TestUnionConeMassBounds:
    def test_witnessed_union_mass_bound(self):
        # mu(X(x, H, r)) <= C alpha^2 M H(H) r with per-interval witnesses
        segs = SegmentUnion([Segment((0, 0), (1, 0))])
        mu = segs.atoms(1 / 128)
        x = (0.5, 0.0)
        intervals = [AngleInterval(0.2, 0.01), AngleInterval(0.27, 0.015)]
        alpha = 2.0
        m_val = 0.0
        for iv in intervals:
            theta = iv.center  # theta in alpha I
            m_val = max(m_val, Projector(segs).mu_theta(perp(theta), [x])[0])
        h_len = sum(iv.length for iv in intervals)
        for r in (0.1, 0.3, 0.7):
            mass = cone_mass(mu, x, intervals, 0.0, r)
            assert mass <= 32.0 * alpha**2 * m_val * h_len * r + 1e-9

    def test_interior_annulus_domination(self):
        # mu(X(x, 0.9J, r, 2r)) <= C mu(X(x, J \ H, r/2, 4r)) on a line with
        # a tiny excluded direction set H
        segs = SegmentUnion([Segment((0, 0), (1, 0))])
        mu = segs.atoms(1 / 256)
        x = (0.5, 0.0)
        j = AngleInterval(0.0, 0.05)
        h_iv = AngleInterval(0.04, 0.001)  # small excluded chunk, off the axis
        worst = 0.0
        for r in (0.05, 0.1, 0.2):
            lhs = cone_mass(mu, x, j.dilate(0.9), r, 2 * r)
            # J \ H as two arcs
            lo1, hi1 = -0.05, 0.039
            lo2, hi2 = 0.041, 0.05
            rest = [AngleInterval((lo1 + hi1) / 2, (hi1 - lo1) / 2),
                    AngleInterval((lo2 + hi2) / 2, (hi2 - lo2) / 2)]
            rhs = cone_mass(mu, x, rest, r / 2, 4 * r)
            if rhs > 0:
                worst = max(worst, lhs / rhs)
            assert lhs <= 32.0 * rhs + 1e-9
        assert worst <= 32.0


class TestSelection:
    def test_bounded_projection_whole_segment(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        sub, mask, rep = select_bounded_projection_set(u, 0.0, 2.0)
        assert mask.all()
        assert rep.half_measure_conclusion

    def test_bounded_projection_stack_excluded(self):
        n = 4
        u = SegmentUnion([Segment((0, k * 0.01), (1, k * 0.01)) for k in range(n)])
        sub, mask, rep = select_bounded_projection_set(u, 0.0, n - 1.0)
        assert not mask.any()

    def test_zero_projection_rejected(self):
        u = SegmentUnion([Segment((0, 0), (0, 1))])
        with pytest.raises(ValueError):
            select_bounded_projection_set(u, 0.0, 2.0)

    def test_isolated_line_portions(self):
        # two collinear segments plus one offset parallel segment: with
        # M = 1.5 only the far-line portions with local average <= 1.5 stay
        u = SegmentUnion([Segment((0, 0), (1, 0)), Segment((2, 0), (3, 0)),
                          Segment((0.2, 0.001), (0.6, 0.001))])
        sub, mask, rep = select_bounded_projection_set(u, 0.0, 1.5)
        pts = u.atoms().points
        kept_x = pts[mask][:, 0]
        # the doubly covered stretch (0.2, 0.6) is excluded
        assert not np.any((kept_x > 0.25) & (kept_x < 0.55))
        assert np.any(kept_x > 2.0)

    def test_good_directions_single_segment(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        g = AngleInterval(0.0, 0.02)
        res = select_good_directions(u, g, kappa=0.5, m_bound=6.0 / 0.5, triadic_depth=4,
                                     rho=0.5, pitch=None)
        assert res.eprime.all()
        assert res.min_family_length >= (0.5 / 5) * res.g_length - 1e-12
        assert max(res.energy_ratios.values()) < 1.0

    def test_hypothesis_violation_named(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        g = AngleInterval(0.25, 0.01)  # perpendicular: zero projections
        with pytest.raises(ValueError, match="theta"):
            select_good_directions(u, g, kappa=0.5, m_bound=6.0 / 0.5, triadic_depth=6, rho=0.5,
                                   pitch=None)

    def test_cantor_horizontal_end_to_end(self):
        horiz, _ = split_parallel(four_corners(2).skeleton())
        g = AngleInterval(0.0, 0.02)
        res = select_good_directions(horiz, g, kappa=0.05, m_bound=6.0 / 0.05, triadic_depth=5,
                                     rho=0.5, pitch=1 / 16 / 16)
        assert res.eprime_mass_fraction >= 0.05 / 4
        assert res.min_family_length >= (0.05 / 5) * res.g_length - 1e-12
        for i, members in res.families.items():
            ivs = [iv for iv, _ in members]
            for a in range(len(ivs)):
                for b in range(a + 1, len(ivs)):
                    assert not ivs[a].intersects(ivs[b])
        assert res.energy_ratios
        assert all(math.isfinite(v) and v >= 0.0 for v in res.energy_ratios.values())

    def test_one_density_per_theta(self, monkeypatch):
        horiz, _ = split_parallel(four_corners(1).skeleton())
        g = AngleInterval(0.0, 0.02)
        kwargs = dict(kappa=0.05, triadic_depth=5, pitch=1 / 64)
        built = []

        def counting(union, theta):
            built.append(theta)
            return pushforward_density(union, theta)

        monkeypatch.setattr(projection, "pushforward_density", counting)
        res = select_good_directions(horiz, g, m_bound=6.0 / kwargs["kappa"], rho=0.5, **kwargs)
        monkeypatch.undo()
        assert len(built) == len(set(built))
        expected = reference_selection(horiz, g, **kwargs)
        assert np.array_equal(res.eprime, expected["eprime"])
        assert res.families == expected["families"]
        assert res.energy_ratios == expected["energy_ratios"]
        assert res.fourier_ratios == expected["fourier_ratios"]
        # nodes shared by several atoms' families: a density per node repeats
        assert expected["builds"] > len(built)


def reference_selection(union, g, kappa, triadic_depth, pitch, rho=0.5):
    """select_good_directions on one arc with a fresh pushforward density for
    every sample and every quadrature node (no per-theta reuse); six samples
    per depth-`triadic_depth` triadic interval."""
    m_bound = 6.0 / kappa
    mu = union.atoms(pitch)
    total_len = 2.0 * g.half_width
    n = max(2, int(round(6 * 3**triadic_depth * total_len)))
    thetas = [wrap(g.center - g.half_width + (i + 0.5) * total_len / n) for i in range(n)]
    builds = 0
    good = np.zeros((len(thetas), len(mu)), dtype=bool)
    for j, theta in enumerate(thetas):
        density = pushforward_density(union, theta)
        builds += 1
        e = np.array([math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta)])
        good[j] = maximal_values_batch(density, mu.points @ e) <= m_bound + TOL
    eprime = good.sum(axis=0) * (total_len / len(thetas)) >= (kappa / 4.0) * total_len - TOL
    families = {}
    for i in np.nonzero(eprime)[0]:
        chosen = {}
        for j, theta in enumerate(thetas):
            if good[j, i]:
                iv = triadic_cover(theta, triadic_depth)
                chosen.setdefault((iv.level, iv.index), theta)
        families[int(i)] = [(TriadicInterval(lv, ix), th)
                            for (lv, ix), th in sorted(chosen.items())]
    high = scale_ceiling(mu.points, rho)
    energy_ratios, fourier_ratios = {}, {}
    for i, members in families.items():
        energy = conical_energy_at(mu, mu.points[i], [iv.perp() for iv, _ in members],
                                   rho, high).total_float
        energy_ratios[i] = energy / (m_bound * total_len)
        pointwise = []
        for iv, _ in members:
            for kq in range(8):
                th = wrap(iv.low + (kq + 0.5) * iv.length / 8)
                density = pushforward_density(union, th)
                builds += 1
                pointwise.append(density.value_at(project(th, mu.points[i])) * iv.length / 8)
        rhs = math.fsum(pointwise)
        fourier_ratios[i] = energy / rhs if rhs > 0.0 else math.inf
    return {"eprime": eprime, "families": families, "energy_ratios": energy_ratios,
            "fourier_ratios": fourier_ratios, "builds": builds}
