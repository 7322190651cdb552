import math
import tracemalloc

import numpy as np
import pytest

from favard import projection
from favard.projection import (PiecewiseConstDensity, Projector, favard, favard_mc,
                               maximal_values_batch, midpoint_measures, projection_measures,
                               pushforward_density)
from favard.sets import DyadicSquareSet, Segment, SegmentUnion, four_corners
from favard.torus import direction_vector, perp
from tests.reference import (IntervalUnion1D, argsort_sweep, dense_mass_centered,
                             direction_angle, favard_mc_by_segment, maximal_value, project,
                             project_segments, pushforward_density_by_segment,
                             sweep_by_segment)
from tests.test_sets import mixed_union, oracle_unions, polyline, star


def random_density(rng, allow_atoms=True):
    m = int(rng.integers(1, 8))
    b = np.sort(rng.uniform(-2, 2, m + 1))
    while np.any(np.diff(b) <= 0):
        b = np.sort(rng.uniform(-2, 2, m + 1))
    v = rng.uniform(0, 3, m)
    atoms = ()
    if allow_atoms:
        atoms = tuple((float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 1)))
                      for _ in range(int(rng.integers(0, 3))))
    return PiecewiseConstDensity(b, v, atoms)


def oracle_maximal(density, t, n=10_000):
    """Brute-force grid over r (plus the breakpoint radii), independent of the
    exact evaluator's argmax reasoning."""
    cands = {abs(float(x) - t) for x in density.breakpoints}
    cands |= {abs(p - t) for p, _ in density.atoms}
    cands.discard(0.0)
    rmax = (max(cands) if cands else 1.0) * 2 + 1.0
    rs = list(np.linspace(rmax / n, rmax, n)) + sorted(cands)
    best = density.small_window_limit(t)
    for r in rs:
        if r <= 0:
            continue
        dense = dense_mass_centered(density, t, r)
        inner = sum(m for p, m in density.atoms if abs(p - t) < r)
        bdy = sum(m for p, m in density.atoms if abs(p - t) == r)
        best = max(best, (dense + inner) / (2 * r), (dense + inner + bdy) / (2 * r))
    return best


def reference_sweep(union, thetas):
    """The index-stable sweep that projection_measures replaced: all angles in
    one (angles x segments) array, each row sorted from the identity order,
    measure summed as clipped per-interval contributions."""
    if not union.segments:
        return np.zeros(len(thetas))
    ends = union.endpoints()
    ang = 2.0 * math.pi * np.asarray(thetas)
    ex, ey = np.cos(ang), np.sin(ang)
    proj = ends[:, 0][None, :] * ex[:, None] + ends[:, 1][None, :] * ey[:, None]
    lows = np.minimum(proj[:, 0::2], proj[:, 1::2])
    highs = np.maximum(proj[:, 0::2], proj[:, 1::2])
    order = np.argsort(lows, axis=1, kind="stable")
    lows = np.take_along_axis(lows, order, axis=1)
    highs = np.take_along_axis(highs, order, axis=1)
    run = np.maximum.accumulate(highs, axis=1)
    prev = np.empty_like(run)
    prev[:, 0] = -np.inf
    prev[:, 1:] = run[:, :-1]
    return np.clip(np.maximum(highs, prev) - np.maximum(lows, prev), 0.0, None).sum(axis=1)


def sweep_inputs():
    """Unions with shared endpoints, duplicate segments, segments
    perpendicular to the test angles, and 1-3 random segments."""
    rng = np.random.default_rng(11)
    unions = [four_corners(k).skeleton() for k in range(4)]
    unions.append(DyadicSquareSet(2, [(0, 0), (1, 0), (1, 1), (3, 2)]).skeleton())
    horizontal = [Segment((0, 0), (1, 0)), Segment((0.5, 2), (3, 2)), Segment((-1, 1), (0, 1))]
    unions.append(SegmentUnion(horizontal + horizontal[:2]))
    unions.append(SegmentUnion([Segment((0, 0), (0, 1)), Segment((0, 0), (0, 1)),
                                Segment((0, 0), (1, 0)), Segment((2, 0), (2, 1))]))
    for n in (1, 2, 3) * 20:
        unions.append(SegmentUnion([Segment(tuple(rng.random(2)), tuple(rng.random(2)))
                                    for _ in range(n)]))
    return unions


class TestIntervalUnion:
    def test_merge_and_measure(self):
        u = IntervalUnion1D.from_pairs([(0, 1), (1, 2), (3, 4), (3.5, 3.7)])
        assert u.intervals == ((0.0, 2.0), (3.0, 4.0))
        assert u.measure == pytest.approx(3.0)

    def test_contains(self):
        u = IntervalUnion1D.from_pairs([(0, 1), (2, 3)])
        assert u.contains(0.5) and u.contains(2.0) and u.contains(1.0)
        assert not u.contains(1.5)

    def test_degenerate_point_kept(self):
        u = IntervalUnion1D.from_pairs([(1.0, 1.0)])
        assert u.measure == 0.0
        assert u.contains(1.0)


class TestProjectSegments:
    def test_unit_segment_axis(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        p = project_segments(u, 0.0)
        assert p.intervals == ((0.0, 1.0),)
        assert p.measure == pytest.approx(1.0)

    def test_perpendicular_is_point(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        p = project_segments(u, 0.25)
        assert p.measure == pytest.approx(0.0, abs=1e-12)

    def test_four_corners_one_skeleton_at_zero(self):
        sk = four_corners(1).skeleton()
        p = project_segments(sk, 0.0)
        assert p.measure == pytest.approx(0.5)
        assert p.intervals == ((0.0, 0.25), (0.75, 1.0))

    def test_lipschitz_under_endpoint_perturbation(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            segs = [Segment(tuple(rng.random(2)), tuple(rng.random(2) + 1.0))
                    for _ in range(6)]
            u = SegmentUnion(segs)
            eps = 1e-4
            moved = [Segment((s.a[0] + rng.uniform(-eps, eps),
                              s.a[1] + rng.uniform(-eps, eps)),
                             (s.b[0] + rng.uniform(-eps, eps),
                              s.b[1] + rng.uniform(-eps, eps)))
                     for s in segs]
            theta = rng.random()
            m1 = project_segments(u, theta).measure
            m2 = project_segments(SegmentUnion(moved), theta).measure
            assert abs(m1 - m2) <= 2 * len(segs) * eps * math.sqrt(2) + 1e-12


class TestFavard:
    def test_unit_segment(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        assert favard(u, 4096, 1) == pytest.approx(2 / math.pi, abs=1e-3)

    def test_square_boundary(self):
        sk = DyadicSquareSet(0, [(0, 0)]).skeleton()
        assert favard(sk, 4096, 1) == pytest.approx(4 / math.pi, abs=2e-3)

    def test_constant_width_polygon(self):
        n = 64
        ang = 2 * math.pi * np.arange(n + 1) / n
        pts = np.column_stack([np.cos(ang), np.sin(ang)])
        u = SegmentUnion([Segment(tuple(pts[i]), tuple(pts[i + 1])) for i in range(n)])
        assert favard(u, 4096, 1) == pytest.approx(2.0, abs=5e-3)

    def test_monotone_under_inclusion(self):
        rng = np.random.default_rng(2)
        segs = [Segment(tuple(rng.random(2)), tuple(rng.random(2) + 0.5))
                for _ in range(8)]
        small = SegmentUnion(segs[:4])
        big = SegmentUnion(segs)
        for n in (16, 64, 256):
            assert favard(small, n, 1) <= favard(big, n, 1) + 1e-12

    def test_upper_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            segs = [Segment(tuple(rng.random(2)), tuple(rng.random(2) + 0.1))
                    for _ in range(5)]
            u = SegmentUnion(segs)
            f = favard(u, 512, 1)
            assert f <= min(u.total_length, u.diameter()) + 1e-9

    def test_deterministic_given_workers(self):
        u = four_corners(1).skeleton()
        assert favard(u, 512, workers=1) == favard(u, 512, workers=1)
        assert favard(u, 512, workers=4) == favard(u, 512, workers=4)

    def test_independent_of_worker_count(self):
        # per-shard sums rounded separately made workers=3 differ in the last ulp
        u = four_corners(4).skeleton()
        values = {w: favard(u, 2048, workers=w) for w in (1, 2, 3, 4, 7)}
        assert len(set(values.values())) == 1, values


class TestSweep:
    def test_matches_old_sweep_and_exact_projection(self):
        # the span formula subtracts gaps from the whole extent, so its
        # rounding scales with the diameter, which bounds every measure
        rng = np.random.default_rng(12)
        thetas = np.concatenate([[0.0, 0.125, 0.25, 0.5, 0.75], rng.random(40),
                                 (np.arange(64) + 0.5) / 64])
        for u in sweep_inputs():
            fast = projection_measures(u, thetas)
            tol = 1e-13 * u.diameter()
            assert np.all(np.abs(fast - reference_sweep(u, thetas)) <= tol)
            exact = np.array([project_segments(u, float(t)).measure for t in thetas])
            assert np.all(np.abs(fast - exact) <= tol)

    def test_value_depends_only_on_its_angle(self):
        rng = np.random.default_rng(13)
        duplicates = SegmentUnion([Segment((0, 0), (1, 0))] * 3 + [Segment((0.5, 2), (3, 2))])
        unions = [four_corners(1).skeleton(), four_corners(3).skeleton(),
                  four_corners(5).skeleton(), duplicates]
        for u in unions:
            thetas = np.concatenate([(np.arange(300) + 0.5) / 300, rng.random(100)])
            full = projection_measures(u, thetas)
            for _ in range(6):
                a, b = sorted(rng.integers(0, len(thetas) + 1, 2))
                assert np.array_equal(full[a:b], projection_measures(u, thetas[a:b]))

    def test_favard_is_the_mean_of_the_sweep(self):
        # the even grid is swept on its first half only: |pi_{theta+1/2}E| = |pi_theta E|
        u = four_corners(3).skeleton()
        thetas = (np.arange(512) + 0.5) / 512
        values = midpoint_measures(u, 512, workers=3)
        assert favard(u, 512, workers=3) == math.fsum(values.tolist()) / 512
        assert np.array_equal(values[:256], projection_measures(u, thetas[:256]))
        full = projection_measures(u, thetas)
        assert np.all(np.abs(full[256:] - full[:256]) <= 1e-13 * u.diameter())

    def test_midpoint_measures_sweep_half_of_an_even_grid(self):
        for u in sweep_inputs():
            for n in (64, 63):
                thetas = (np.arange(n) + 0.5) / n
                values = midpoint_measures(u, n, 1)
                for workers in (2, 3):
                    assert np.array_equal(midpoint_measures(u, n, workers), values)
                if n % 2:
                    assert np.array_equal(values, projection_measures(u, thetas))
                    continue
                half = n // 2
                assert np.array_equal(values[:half], projection_measures(u, thetas[:half]))
                assert np.array_equal(values[half:], values[:half])
                tol = 1e-13 * u.diameter()
                assert np.all(np.abs(projection_measures(u, thetas[half:]) - values[:half]) <= tol)

    def test_empty_union(self):
        assert projection_measures(SegmentUnion([]), np.array([0.1, 0.2])).tolist() == [0.0, 0.0]


def piece_inputs():
    """sweep_inputs() and unions whose piece tables differ from the segments:
    the four_corners(0..5) skeletons, a 200-vertex polyline, a 50-segment
    star, duplicate and reversed segments, and a polyline beside loose
    segments that takes the segment fallback."""
    rng = np.random.default_rng(16)
    duplicates = SegmentUnion([Segment((0, 0), (1, 0))] * 3
                              + [Segment((1, 0), (0, 0)), Segment((0.5, 2), (3, 2))])
    return (sweep_inputs() + [four_corners(k).skeleton() for k in range(6)]
            + [polyline(200, rng), star(50, rng), duplicates, mixed_union(rng)])


class TestPiecesMatchTheSegments:
    """The sweep and the needle test over the piece table against the
    per-segment forms they replaced."""

    def test_sweep_within_rounding_of_the_per_segment_sweep(self):
        rng = np.random.default_rng(17)
        thetas = np.concatenate([[0.0, 0.125, 0.25, 0.5, 0.75], rng.random(40),
                                 (np.arange(64) + 0.5) / 64])
        for u in piece_inputs():
            fast = projection_measures(u, thetas)
            assert np.all(np.abs(fast - sweep_by_segment(u.coords, thetas)) <= 1e-13 * u.diameter())

    def test_needle_estimate_equals_the_per_segment_test(self):
        # 100,500 needles cross the 100,000-needle draw chunk
        for u in piece_inputs():
            needles = 100_500 if len(u) <= 16 else 3_000
            for seed in (0, 1):
                assert favard_mc(u, needles, seed) == favard_mc_by_segment(u, needles, seed)


def tie_heavy_unions():
    """Unions whose projected ends tie at the grid angles: duplicate and
    reversed segments, stacks of equal parallel segments, the edges and
    diagonals of an integer grid, random segments between integer points,
    and a full dyadic grid's skeleton."""
    rng = np.random.default_rng(24)
    grid = [((i, j), (i + 1, j)) for i in range(5) for j in range(6)]
    grid += [((i, j), (i, j + 1)) for i in range(6) for j in range(5)]
    grid += [((i, j), (i + 1, j + 1)) for i in range(5) for j in range(5)]
    ends = rng.integers(0, 4, (60, 4))
    ends = ends[(ends[:, :2] != ends[:, 2:]).any(axis=1)]
    return [SegmentUnion([Segment((0, 0), (1, 0))] * 3 + [Segment((1, 0), (0, 0))]),
            SegmentUnion([Segment((0, i), (1, i)) for i in range(20)]
                         + [Segment((i, 0), (i, 1)) for i in range(20)]),
            SegmentUnion([Segment(a, b) for a, b in grid] * 2),
            SegmentUnion.from_endpoints(ends[:, :2], ends[:, 2:]),
            SegmentUnion.from_endpoints(ends[::2, :2], ends[::2, 2:] + 7),
            DyadicSquareSet(3, [(i, j) for i in range(8) for j in range(8)]).skeleton()]


class TestTwoSortSweepEqualsTheArgsortSweep:
    """The sweep that sorts low and high ends on their own gives exactly the
    floats of the warm-started argsort sweep it replaced."""

    def test_piece_inputs(self):
        rng = np.random.default_rng(25)
        thetas = np.concatenate([[0.0, 0.125, 0.25, 0.375, 0.5, 0.75], rng.random(40),
                                 (np.arange(64) + 0.5) / 64])
        for u in piece_inputs():
            assert np.array_equal(projection_measures(u, thetas), argsort_sweep(*u.pieces, thetas))

    def test_tie_heavy_unions(self):
        for u in tie_heavy_unions():
            thetas = np.array([0.0, 0.125, 0.25, 0.375])
            assert np.array_equal(projection_measures(u, thetas), argsort_sweep(*u.pieces, thetas))
            for n in (63, 64):
                m = n // 2 if n % 2 == 0 else n
                want = np.tile(argsort_sweep(*u.pieces, (np.arange(m) + 0.5) / n), n // m)
                for workers in (1, 2):
                    assert np.array_equal(midpoint_measures(u, n, workers), want)
                assert favard(u, n, 1) == math.fsum(want.tolist()) / n

    @pytest.mark.parametrize("sweep_block", [1, 1_000])
    def test_block_size_does_not_change_the_values(self, monkeypatch, sweep_block):
        # a block of one angle, and blocks that split the angles unevenly
        monkeypatch.setattr(projection, "SWEEP_BLOCK", sweep_block)
        thetas = (np.arange(101) + 0.5) / 101
        unions = tie_heavy_unions() + [four_corners(3).skeleton(),
                                       polyline(50, np.random.default_rng(26))]
        for u in unions:
            assert np.array_equal(projection_measures(u, thetas), argsort_sweep(*u.pieces, thetas))


def mapped(union, f):
    """The union with both endpoints of every segment mapped by f."""
    return SegmentUnion([Segment(f(*s.a), f(*s.b)) for s in union.segments])


def disc_inputs():
    """Unions for the needle disc pass: four_corners(2) translated by
    (1e6, -3e5) and scaled by 1e-6, a 200-segment polyline (one piece, whose
    disc is the whole window), a polyline beside loose segments (one piece
    per segment) and four_corners(3)."""
    rng = np.random.default_rng(18)
    sk = four_corners(2).skeleton()
    return [mapped(sk, lambda x, y: (x + 1e6, y - 3e5)), mapped(sk, lambda x, y: (x * 1e-6, y * 1e-6)),
            polyline(201, rng), mixed_union(rng), four_corners(3).skeleton()]


class TestNeedleDiscPass:
    """The bounding-disc pass keeps every hit, so favard_mc counts what the
    per-segment test counts, whatever the block size."""

    def test_estimate_equals_the_per_segment_test(self):
        for u in disc_inputs():
            for seed in (0, 1):
                assert favard_mc(u, 20_000, seed) == favard_mc_by_segment(u, 20_000, seed)

    @pytest.mark.parametrize("needle_block", [1, 1_000])
    def test_block_size_does_not_change_the_count(self, monkeypatch, needle_block):
        # a block of one needle, and blocks that do not divide the 3,001 needles
        monkeypatch.setattr(projection, "NEEDLE_BLOCK", needle_block)
        for u in disc_inputs():
            assert favard_mc(u, 3_001, 2) == favard_mc_by_segment(u, 3_001, 2)

    def test_every_exact_hit_meets_its_disc(self):
        u = four_corners(2).skeleton()
        center, radius = u.bounding_center_radius()
        xs, ys = u.pieces
        disc, reach = projection._piece_discs(xs, ys, radius)
        rng = np.random.default_rng(19)
        ang = 2.0 * math.pi * rng.random(10_000)
        ex, ey = np.cos(ang), np.sin(ang)
        t = center[0] * ex + center[1] * ey + (2.0 * rng.random(10_000) - 1.0) * radius
        proj = xs[:, :, None] * ex + ys[:, :, None] * ey                    # (K, C, needles)
        hit = (t >= proj.min(axis=0)) & (t <= proj.max(axis=0))
        near = np.abs(disc @ np.stack((ex, ey, t))) <= reach
        assert hit.sum() > 1_000
        assert not np.any(hit & ~near)


class TestSweepMetamorphic:
    THETAS = (np.arange(512) + 0.5) / 512

    def test_scaling_by_two_doubles_every_value(self):
        for u in sweep_inputs():
            doubled = projection_measures(mapped(u, lambda x, y: (2 * x, 2 * y)), self.THETAS)
            assert np.array_equal(doubled, 2 * projection_measures(u, self.THETAS))

    def test_translation_moves_values_by_rounding_only(self):
        rng = np.random.default_rng(14)
        for u in sweep_inputs():
            dx, dy = rng.uniform(-10, 10, 2)
            moved = projection_measures(mapped(u, lambda x, y: (x + dx, y + dy)), self.THETAS)
            tol = 1e-13 * (u.diameter() + math.hypot(dx, dy))
            assert np.all(np.abs(moved - projection_measures(u, self.THETAS)) <= tol)

    def test_quarter_turn_shifts_the_midpoint_grid(self):
        # measure of the rotated union at theta + 1/4 = measure at theta, and
        # theta + 1/4 is n/4 steps further along the midpoint grid
        for u in sweep_inputs():
            turned = projection_measures(mapped(u, lambda x, y: (-y, x)), self.THETAS)
            expected = np.roll(projection_measures(u, self.THETAS), len(self.THETAS) // 4)
            assert np.all(np.abs(turned - expected) <= 1e-12 * u.diameter())


def exact_favard(union):
    """Closed-form Favard length of a segment union, with its arc data.

    Between consecutive critical angles (theta perpendicular to p - q for two
    endpoints p, q) the order of the projected endpoints is fixed. So is the
    grouping of the projected segments into clusters, and |pi_theta E| = V . e
    where V sums (highest endpoint - lowest endpoint) over the clusters. An
    arc of width w centred at theta_c then contributes V . e(theta_c) *
    sin(pi w) / pi. Returns the integral, max |V| over the arcs and the sum of
    |V' - V| over consecutive arcs, the jumps at the integrand's kinks.
    """
    ends = np.unique(union.endpoints(), axis=0)
    i, j = np.triu_indices(len(ends), 1)
    d = ends[i] - ends[j]
    phi = np.arctan2(d[:, 1], d[:, 0]) / (2 * math.pi)
    crit = np.unique(np.mod(np.concatenate([phi + 0.25, phi + 0.75]), 1.0))
    edges = np.append(crit, crit[0] + 1.0)
    segs = union.endpoints().reshape(-1, 2, 2)
    terms, vs = [], []
    for t0, t1 in zip(edges[:-1], edges[1:]):
        mid = (t0 + t1) / 2
        e = np.array([math.cos(2 * math.pi * mid), math.sin(2 * math.pi * mid)])
        proj = segs @ e
        hi_end = np.argmax(proj, axis=1)
        lo_pts = segs[np.arange(len(segs)), 1 - hi_end]
        hi_pts = segs[np.arange(len(segs)), hi_end]
        v = np.zeros(2)
        start = reach = None
        for k in np.argsort(proj.min(axis=1), kind="stable"):
            if reach is None or lo_pts[k] @ e > reach @ e:
                if reach is not None:
                    v += reach - start
                start, reach = lo_pts[k], hi_pts[k]
            elif hi_pts[k] @ e > reach @ e:
                reach = hi_pts[k]
        v += reach - start
        vs.append(v)
        terms.append(float(v @ e) * math.sin(math.pi * (t1 - t0)) / math.pi)
    vs = np.array(vs)
    jumps = np.hypot(*(np.roll(vs, -1, axis=0) - vs).T)
    return math.fsum(terms), float(np.hypot(*vs.T).max()), math.fsum(jumps.tolist())


def polygon(n):
    ang = 2 * math.pi * np.arange(n + 1) / n
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    return SegmentUnion([Segment(tuple(pts[i]), tuple(pts[i + 1])) for i in range(n)])


class TestExactFavard:
    def test_closed_forms(self):
        segment = SegmentUnion([Segment((0, 0), (1, 0))])
        square = DyadicSquareSet(0, [(0, 0)]).skeleton()
        # a convex curve's Favard length is its perimeter over pi
        for u, value in ((segment, 2 / math.pi), (square, 4 / math.pi),
                         (polygon(64), 128 * math.sin(math.pi / 64) / math.pi)):
            assert abs(exact_favard(u)[0] - value) <= 1e-15 * u.total_length

    def test_midpoint_rule_error_within_its_bound(self):
        # midpoint error per cell: h^3/24 max|f''| with f'' = -4 pi^2 V.e on an
        # arc, plus |f' jump| h^2/8 = 2 pi |dV| h^2/8 per kink; the per-angle
        # rounding of the sweep is pinned at 1e-13 diam
        unions = [SegmentUnion([Segment((0, 0), (1, 0))]),
                  DyadicSquareSet(0, [(0, 0)]).skeleton(),
                  four_corners(1).skeleton(), four_corners(2).skeleton()]
        for u in unions:
            exact, v_max, jumps = exact_favard(u)
            for n in (512, 511, 64, 63):
                h = 1.0 / n
                bound = h * h * (4 * math.pi**2 * v_max / 24 + 2 * math.pi / 8 * jumps)
                assert abs(favard(u, n, 1) - exact) <= bound + 1e-13 * u.diameter()


class TestFavardMetamorphic:
    N = 512

    def test_translation_moves_favard_by_rounding_only(self):
        rng = np.random.default_rng(15)
        for u in sweep_inputs():
            dx, dy = rng.uniform(-10, 10, 2)
            moved = favard(mapped(u, lambda x, y: (x + dx, y + dy)), self.N, 1)
            assert abs(moved - favard(u, self.N, 1)) <= 1e-13 * (u.diameter() + math.hypot(dx, dy))

    def test_scaling_by_two_doubles_favard(self):
        for u in sweep_inputs():
            assert favard(mapped(u, lambda x, y: (2 * x, 2 * y)), self.N, 1) == \
                2 * favard(u, self.N, 1)

    def test_rotation_by_grid_steps(self):
        # the rotated union at theta_i is the union at theta_{i-j}; for j = n/4 + 1
        # part of the rotated half grid lands in the other half of the torus
        for j in (1, self.N // 4 + 1):
            c, s = math.cos(2 * math.pi * j / self.N), math.sin(2 * math.pi * j / self.N)
            for u in sweep_inputs():
                turned = favard(mapped(u, lambda x, y: (c * x - s * y, s * x + c * y)), self.N, 1)
                assert abs(turned - favard(u, self.N, 1)) <= 1e-12


class TestMemory:
    @staticmethod
    def peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_favard_mc_memory_bounded(self):
        u = four_corners(2).skeleton()
        assert self.peak_bytes(favard_mc, u, 100_000, 0) < 16 * 2**20

    def test_favard_memory_bounded(self):
        u = four_corners(5).skeleton()
        assert self.peak_bytes(favard, u, 256, 1) < 8 * 2**20


class TestFavardMC:
    def test_unit_segment_within_three_sigma(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        est, se = favard_mc(u, 1_000_000, rng_seed=0)
        assert abs(est - 2 / math.pi) <= 3 * se

    def test_empty_union(self):
        assert favard_mc(SegmentUnion([]), 1000, 0) == (0.0, 0.0)

    def test_cross_check_cantor(self):
        sk = four_corners(2).skeleton()
        exact = favard(sk, 4096, 1)
        est, se = favard_mc(sk, 1_000_000, rng_seed=1)
        assert abs(est - exact) <= 3 * se

    def test_bit_identical_to_dense_oracle(self):
        # 230,001 needles cross the 100,000-needle draw chunk twice
        rng = np.random.default_rng(14)
        unions = [SegmentUnion([Segment(tuple(rng.random(2)), tuple(rng.random(2) + 0.5))
                                for _ in range(5)]),
                  four_corners(1).skeleton()]
        for u in unions:
            for seed in (0, 1, 2):
                for needles in (100, 230_001):
                    assert favard_mc(u, needles, seed) == favard_mc_by_segment(u, needles, seed)

    def test_needle_count_guard(self):
        with pytest.raises(ValueError):
            favard_mc(SegmentUnion([Segment((0, 0), (1, 0))]), 10, 0)


class TestPushforward:
    def test_horizontal_density_one(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        d = pushforward_density(u, 0.0)
        assert np.allclose(d.breakpoints, [0, 1])
        assert np.allclose(d.values, [1.0])

    def test_diagonal_projection_density(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        d = pushforward_density(u, 0.125)
        assert np.allclose(d.values, [math.sqrt(2)])
        assert d.breakpoints[-1] == pytest.approx(math.sqrt(2) / 2)

    def test_stacked_additivity(self):
        u = SegmentUnion([Segment((0, 0), (1, 0)), Segment((0, 1), (1, 1))])
        d = pushforward_density(u, 0.0)
        assert np.allclose(d.values, [2.0])

    def test_perpendicular_atom(self):
        u = SegmentUnion([Segment((0, 0), (0, 1))])
        d = pushforward_density(u, 0.0)
        assert d.atoms == ((0.0, 1.0),)
        assert len(d.values) == 0

    def test_mass_conservation_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            segs = [Segment(tuple(rng.random(2)), tuple(rng.random(2) + 0.2))
                    for _ in range(int(rng.integers(1, 9)))]
            u = SegmentUnion(segs)
            theta = rng.random()
            d = pushforward_density(u, theta)
            assert d.total_mass == pytest.approx(u.total_length, abs=1e-9)

    def test_matches_the_segment_loop(self):
        rng = np.random.default_rng(21)
        for u in oracle_unions():
            # axis angles, random ones, and the perpendicular of a segment
            thetas = [0.0, 0.125, 0.25, 0.5, 0.75, *rng.random(6),
                      direction_angle(u.segments[0]) + 0.25]
            for theta in thetas:
                got = pushforward_density(u, theta)
                want = pushforward_density_by_segment(u, theta)
                assert np.array_equal(got.breakpoints, want.breakpoints)
                assert np.array_equal(got.values, want.values)
                assert got.atoms == want.atoms


class TestMaximal:
    def test_flat_density(self):
        nu = PiecewiseConstDensity(np.array([0.0, 1.0]), np.array([1.0]))
        assert maximal_value(nu, 0.5) == pytest.approx(1.0)

    def test_outside_point(self):
        nu = PiecewiseConstDensity(np.array([0.0, 1.0]), np.array([1.0]))
        assert maximal_value(nu, 2.0) == pytest.approx(0.25)

    def test_atom_far_field(self):
        nu = PiecewiseConstDensity(np.array([0.0]), np.array([]), ((0.0, 1.0),))
        assert maximal_value(nu, 1.0) == pytest.approx(0.5)

    def test_atom_at_point_is_inf(self):
        nu = PiecewiseConstDensity(np.array([0.0]), np.array([]), ((1.0, 2.0),))
        assert maximal_value(nu, 1.0) == math.inf

    def test_zero_measure_rejected(self):
        nu = PiecewiseConstDensity(np.array([0.0, 1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            maximal_value(nu, 0.5)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 100:
            d = random_density(rng)
            if d.total_mass <= 0:
                continue
            t = float(rng.uniform(-3, 3))
            if any(p == t for p, _ in d.atoms):
                continue
            exact = maximal_value(d, t)
            assert exact == pytest.approx(oracle_maximal(d, t), abs=1e-9)
            done += 1

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            d = random_density(rng)
            if d.total_mass <= 0:
                continue
            ts = rng.uniform(-3, 3, 25)
            batch = maximal_values_batch(d, ts)
            for t, b in zip(ts, batch):
                s = maximal_value(d, float(t))
                if math.isinf(s):
                    assert math.isinf(b)
                else:
                    assert b == pytest.approx(s, abs=1e-10, rel=1e-10)

    def test_weak_1_1_constant(self):
        # measured level sets satisfy |{M nu > M}| <= C' ||nu|| / M, C' <= 3
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(30):
            d = random_density(rng, allow_atoms=False)
            if d.total_mass <= 0:
                continue
            level = d.total_mass * rng.uniform(0.2, 2.0)
            lo = d.breakpoints[0] - 2 * (d.breakpoints[-1] - d.breakpoints[0]) - 1
            hi = d.breakpoints[-1] + 2 * (d.breakpoints[-1] - d.breakpoints[0]) + 1
            grid = np.linspace(lo, hi, 4001)
            vals = maximal_values_batch(d, grid)
            meas = float(np.count_nonzero(vals > level)) * (grid[1] - grid[0])
            worst = max(worst, meas * level / d.total_mass)
        assert worst <= 3.0 + 0.05

    def test_projector_matches_the_scalar_oracle(self):
        # random unions plus segments perpendicular to theta, which push
        # forward to atoms
        rng = np.random.default_rng(15)
        for _ in range(40):
            theta = float(rng.random())
            segs = [Segment(tuple(rng.random(2)), tuple(rng.random(2) + 0.2))
                    for _ in range(int(rng.integers(1, 6)))]
            for _ in range(int(rng.integers(1, 3))):
                a = rng.random(2)
                b = a + rng.uniform(0.1, 1.0) * direction_vector(perp(theta))
                segs.append(Segment(tuple(a), tuple(b)))
            u = SegmentUnion(segs)
            density = pushforward_density(u, theta)
            assert density.atoms
            pts = rng.uniform(-0.5, 2.5, (30, 2))
            for x, b in zip(pts, Projector(u).mu_theta(theta, pts)):
                s = maximal_value(density, project(theta, x))
                assert b == pytest.approx(s, abs=1e-10, rel=1e-10)

    def test_projector_on_an_atom_is_inf(self):
        # at theta = 0 a vertical segment is an atom at its x coordinate, and
        # every point above or below it projects onto the atom exactly
        rng = np.random.default_rng(16)
        for _ in range(20):
            xs = rng.random(3)
            u = SegmentUnion([Segment((0, 0), (1, 0))]
                             + [Segment((x, 0.5), (x, 1.5)) for x in xs])
            density = pushforward_density(u, 0.0)
            assert sorted(p for p, _ in density.atoms) == sorted(xs.tolist())
            pts = np.column_stack([xs, rng.uniform(-2, 2, 3)])
            assert Projector(u).mu_theta(0.0, pts).tolist() == [math.inf] * 3
            assert [maximal_value(density, project(0.0, x)) for x in pts] == [math.inf] * 3

    def test_projector_density_is_built_once(self):
        proj = Projector(four_corners(1).skeleton())
        first = proj.density(0.3)
        assert proj.density(0.3) is first
        assert proj.density(0.7) is not first

    def test_mu_theta_unit_segment(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        assert Projector(u).mu_theta(0.0, [(0.5, 0.0)])[0] == pytest.approx(1.0)

    def test_mu_theta_stacked(self):
        n = 5
        u = SegmentUnion([Segment((0, k), (1, k)) for k in range(n)])
        assert Projector(u).mu_theta(0.0, [(0.5, 0.0)])[0] == pytest.approx(n)

    def test_mu_theta_near_perpendicular_closed_form(self):
        # one unit segment, theta = 1/4 + kappa: maximal value ~ 1/|sin 2 pi k|
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        for kappa in (0.02, 0.05, 0.1):
            theta = 0.25 + kappa
            val = Projector(u).mu_theta(theta, [(0.5, 0.0)])[0]
            assert val == pytest.approx(1.0 / abs(math.sin(2 * math.pi * kappa)),
                                        rel=1e-9)


def _on_axis(density):
    """A projector whose angle-0 density is `density`: the angle-0 direction
    is (1, 0), so the point (t, 0) projects onto t exactly."""
    proj = Projector(SegmentUnion([]))
    proj._densities[0.0] = density
    return proj


def narrow_density(rng):
    """Pieces 1e-7 to 2e-7 wide just above t = 1000, where the shifted edges
    b - t round at about 1e-13 of a piece width."""
    m = int(rng.integers(1, 12))
    b = 1000.0 + np.cumsum(np.concatenate(([0.0], rng.uniform(1e-7, 2e-7, m))))
    return PiecewiseConstDensity(b, rng.uniform(0.5, 3.0, m))


def flat_density(rng):
    """Many pieces of one value, the shape on which the kernel's value lands
    on the largest value or one rounding off it."""
    m = int(rng.integers(2, 40))
    b = np.sort(rng.uniform(-1, 1, m + 1))
    v = np.full(m, float(rng.uniform(1.0, 3.0)))
    v[rng.random(m) < 0.3] *= rng.uniform(0.0, 1.0)
    return PiecewiseConstDensity(b, v)


class TestBounded:
    """Projector.bounded against mu_theta <= bound, the exact kernel's test."""

    def cases(self):
        rng = np.random.default_rng(26)
        kinds = [lambda: random_density(rng), lambda: random_density(rng, allow_atoms=False),
                 lambda: narrow_density(rng), lambda: flat_density(rng)]
        out = []
        while len(out) < 320:
            d = kinds[len(out) % 4]()
            if d.total_mass <= 0.0:
                continue
            b = d.breakpoints
            span = max(b[-1] - b[0], 1e-6)
            ts = [rng.uniform(b[0] - span, b[-1] + span, 12), b, (b[:-1] + b[1:]) / 2.0,
                  np.array([p for p, _ in d.atoms])]
            out.append((d, np.concatenate(ts)))
        return out

    @staticmethod
    def bounds(rng, density, ts, exact):
        """top (1 +- k 2^-52) around the largest value top, and four of the
        limits and four of the exact values with their float neighbours."""
        p = len(density.values)
        top = float(density.values.max()) if p else 1.0
        out = [top * (1.0 + s * k * 2.0**-52)
               for s in (1, -1) for k in (0, 1, 2, p + 2, p + 3, p + 4, p + 5, 2 * p + 8)]
        for vals in (density.small_window_limit(ts), exact[np.isfinite(exact)]):
            for v in rng.choice(vals, min(4, len(vals)), replace=False).tolist():
                out += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
        return out

    def test_equals_the_kernel_test(self, monkeypatch):
        calls = []
        maximal = projection.maximal_values_batch

        def counted_maximal(density, ts):
            calls.append(len(ts))
            return maximal(density, ts)

        rng = np.random.default_rng(28)
        seen = {"upper": 0, "lower": 0, "above_top": 0, "on_atom": 0}
        for density, ts in self.cases():
            proj = _on_axis(density)
            pts = np.column_stack([ts, np.zeros(len(ts))])
            exact = proj.mu_theta(0.0, pts)
            if len(density.values) and np.any(exact > density.values.max()):
                seen["above_top"] += 1
            seen["on_atom"] += int(np.isinf(exact).any())
            monkeypatch.setattr(projection, "maximal_values_batch", counted_maximal)
            for bound in self.bounds(rng, density, ts, exact):
                calls.clear()
                got = proj.bounded(0.0, pts, bound)
                assert got.dtype == bool
                assert np.array_equal(got, exact <= bound), (density, bound)
                seen["upper"] += not calls
                seen["lower"] += bool(calls) and calls[0] < len(ts)
            monkeypatch.setattr(projection, "maximal_values_batch", maximal)
        # both bounds decide rows, the kernel's value passes the largest
        # density value by rounding, and points sit on atoms
        assert min(seen.values()) > 0, seen

    def test_zero_measure_raises_with_and_without_points(self):
        proj = _on_axis(PiecewiseConstDensity(np.array([0.0, 1.0]), np.array([0.0])))
        for pts in (np.zeros((0, 2)), np.array([[0.5, 0.0]])):
            with pytest.raises(ValueError, match="zero measure"):
                proj.bounded(0.0, pts, 1.0)

    def test_upper_bound_needs_no_atoms(self):
        # an atom far from the point leaves the dense value 1 as the largest
        # density value, but the window reaching the atom averages 3 / 2
        d = PiecewiseConstDensity(np.array([0.0, 1.0]), np.array([1.0]), ((2.0, 2.0),))
        proj = _on_axis(d)
        pts = np.array([[1.0, 0.0]])
        assert proj.mu_theta(0.0, pts)[0] == pytest.approx(1.5)
        assert proj.bounded(0.0, pts, 1.2).tolist() == [False]

    def test_pushforwards(self):
        # real pushforwards at random angles, with M from a range of kappas
        rng = np.random.default_rng(27)
        u = four_corners(2).skeleton()
        mu = u.atoms(1 / 96)
        proj = Projector(u)
        for theta in rng.random(20).tolist():
            exact = proj.mu_theta(theta, mu.points)
            for m in (0.5, 1.5, 3.0, 6.0, 100.0):
                assert np.array_equal(proj.bounded(theta, mu.points, m), exact <= m)
