import math

import numpy as np
import pytest

from favard.projection import Projector
from favard.sets import four_corners
from favard.torus import (PAIR_TILE, AngleInterval, TriadicInterval, circ_dist, d_metric_many,
                          direction_vector, line_angle, perp, row_blocks, triadic_cover, wrap)
from tests.reference import ConeSpec, cone_mask, d_metric, in_cone, project, to_metric_coords

SQ2 = math.sqrt(2.0)


class TestAngles:
    def test_direction_vector_axes(self):
        assert np.allclose(direction_vector(0.0), [1.0, 0.0], atol=1e-12)
        assert np.allclose(direction_vector(0.25), [0.0, 1.0], atol=1e-12)

    def test_direction_vector_diagonal(self):
        assert np.allclose(direction_vector(0.125), [SQ2 / 2, SQ2 / 2], atol=1e-12)

    @pytest.mark.parametrize("theta", np.linspace(0, 1, 37))
    def test_unit_norm(self, theta):
        assert abs(np.linalg.norm(direction_vector(theta)) - 1.0) <= 1e-12

    def test_project(self):
        assert project(0.0, (3.0, 5.0)) == pytest.approx(3.0, abs=1e-12)
        assert project(0.25, (3.0, 5.0)) == pytest.approx(5.0, abs=1e-12)
        assert project(0.125, (1.0, 1.0)) == pytest.approx(SQ2, abs=1e-12)

    def test_project_lipschitz(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            theta = rng.random()
            p, q = rng.normal(size=2), rng.normal(size=2)
            assert abs(project(theta, p) - project(theta, q)) <= \
                np.linalg.norm(p - q) + 1e-12

    def test_perp_quarter_turn(self):
        assert perp(0.0) == 0.25
        assert perp(0.9) == pytest.approx(0.15)

    def test_wrap(self):
        assert wrap(1.25) == 0.25
        assert wrap(-0.25) == 0.75

    def test_line_angle_mod_half(self):
        assert line_angle((1.0, 0.0)) == 0.0
        assert line_angle((-1.0, 0.0)) == 0.0
        assert line_angle((0.0, -2.0)) == 0.25
        assert line_angle((1.0, -5.5e-17)) == 0.0     # rounds to 1/2 before wrapping


class TestIntervals:
    def test_angle_interval_dilate_caps(self):
        iv = AngleInterval(0.3, 0.2)
        assert iv.dilate(2.0).half_width == 0.4
        assert iv.dilate(10.0).half_width == 0.5
        assert iv.dilate(2.0).center == iv.center

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_non_finite_center_rejected(self, center):
        with pytest.raises(ValueError, match="center must be finite"):
            AngleInterval(center, 0.1)

    def test_perp_shifts_center(self):
        iv = AngleInterval(0.1, 0.05)
        assert iv.perp().center == pytest.approx(0.35)
        assert iv.perp().half_width == iv.half_width

    def test_triadic_parent_of_root_rejected(self):
        with pytest.raises(ValueError):
            TriadicInterval(0, 0).parent()

    def test_triadic_nav_examples(self):
        # [0, 1/3) -> parent [0, 1)
        assert TriadicInterval(1, 0).parent() == TriadicInterval(0, 0)
        # children of [1/3, 2/3)
        kids = TriadicInterval(1, 1).children()
        assert [(c.low, c.high) for c in kids] == [
            (1 / 3, 4 / 9), (4 / 9, 5 / 9), (5 / 9, 2 / 3)]
        # 3 * middle child recovers the parent as an arc
        j = TriadicInterval(2, 4)  # [4/9, 5/9)
        tripled = j.dilate(3.0)
        assert tripled.center == pytest.approx(0.5)
        assert 2 * tripled.half_width == pytest.approx(1 / 3)

    def test_children_partition(self):
        j = TriadicInterval(2, 5)
        kids = j.children()
        assert kids[0].low == j.low and kids[2].high == j.high
        for a, b in zip(kids, kids[1:]):
            assert a.high == b.low

    def test_middle_child_center(self):
        j = TriadicInterval(3, 11)
        assert j.middle_child().center == pytest.approx(j.center)

    def test_triadic_cover_half_open(self):
        assert triadic_cover(1 / 3, 1) == TriadicInterval(1, 1)
        assert triadic_cover(0.9999999, 1) == TriadicInterval(1, 2)

    def test_triadic_order_and_hash_are_those_of_level_index_pairs(self):
        # sets, dict keys and sorting of intervals stand in for (level, index)
        # keys; 40 intervals of levels 0-3, so equal pairs occur too
        rng = np.random.default_rng(18)

        def draw():
            level = int(rng.integers(0, 4))
            return TriadicInterval(level, int(rng.integers(0, 3**level)))

        pairs = [(draw(), draw()) for _ in range(2000)]
        assert any(a == b for a, b in pairs) and any(a.level == b.level != 0 and a != b
                                                     for a, b in pairs)
        for a, b in pairs:
            ka, kb = (a.level, a.index), (b.level, b.index)
            assert (a < b, a <= b, a == b, a > b) == (ka < kb, ka <= kb, ka == kb, ka > kb)
            assert hash(a) == hash(ka)
        ivs = [iv for pair in pairs for iv in pair]
        assert [(iv.level, iv.index) for iv in sorted(ivs)] == \
            sorted((iv.level, iv.index) for iv in ivs)
        assert len(set(ivs)) == len({(iv.level, iv.index) for iv in ivs})


class TestCones:
    def test_axis_point_inside(self):
        spec = ConeSpec((0.0, 0.0), AngleInterval(0.0, 0.125))
        assert in_cone(spec, (1.0, 0.0))
        assert not in_cone(spec, (0.0, 1.0))
        # boundary: |perp gap| = 1, sin(pi/4) * sqrt(2) = 1
        assert in_cone(spec, (1.0, 1.0))

    def test_apex_membership(self):
        spec = ConeSpec((0.5, 0.5), AngleInterval(0.3, 0.1))
        assert in_cone(spec, (0.5, 0.5))
        trunc = ConeSpec((0.5, 0.5), AngleInterval(0.3, 0.1), inner=0.1, outer=1.0)
        assert not in_cone(trunc, (0.5, 0.5))

    def test_wide_interval_rejected(self):
        spec = ConeSpec((0.0, 0.0), AngleInterval(0.0, 0.3))
        with pytest.raises(ValueError):
            in_cone(spec, (1.0, 0.0))

    def test_antipodal_symmetry(self):
        spec = ConeSpec((0.0, 0.0), AngleInterval(0.1, 0.05))
        rng = np.random.default_rng(1)
        for _ in range(100):
            y = rng.normal(size=2)
            assert in_cone(spec, y) == in_cone(spec, -y)

    def test_cone_mask_matches_in_cone(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            apex = rng.normal(size=2)
            iv = AngleInterval(rng.random(), 0.02 + 0.2 * rng.random())
            spec = ConeSpec(tuple(apex), iv)
            pts = rng.normal(size=(40, 2))
            mask = cone_mask(apex, iv, pts)
            for p, m in zip(pts, mask):
                dist = np.linalg.norm(p - apex)
                ang = line_angle(p - apex) if dist > 0 else iv.center
                member = min(circ_dist(ang, iv.center),
                             circ_dist(ang + 0.5, iv.center)) <= iv.half_width + 1e-9
                if abs(min(circ_dist(ang, iv.center), circ_dist(ang + 0.5, iv.center))
                       - iv.half_width) > 1e-9:
                    assert bool(m) == member

    def test_wide_arc_angular_membership(self):
        # arcs wider than a quarter turn go through the arc-distance test
        rng = np.random.default_rng(12)
        iv = AngleInterval(0.1, 0.35)
        apex = np.zeros(2)
        pts = rng.normal(size=(300, 2))
        mask = cone_mask(apex, iv, pts)
        for p, m in zip(pts, mask):
            ang = line_angle(p)
            gap = min(circ_dist(ang, iv.center), circ_dist(ang + 0.5, iv.center))
            if abs(gap - iv.half_width) > 1e-9:
                assert bool(m) == (gap <= iv.half_width)

    def test_full_circle_arc_contains_everything(self):
        iv = AngleInterval(0.7, 0.5)
        pts = np.random.default_rng(13).normal(size=(50, 2))
        assert cone_mask(np.zeros(2), iv, pts).all()

    def test_cone_symmetry_swap(self):
        # y in X(x, I) iff x in X(y, I) for untruncated cones
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            x = rng.normal(size=2)
            y = rng.normal(size=2)
            iv = AngleInterval(rng.random(), 0.01 + 0.24 * rng.random())
            a = in_cone(ConeSpec(tuple(x), iv), y)
            b = in_cone(ConeSpec(tuple(y), iv), x)
            assert a == b


class TestMetric:
    def test_unit_weight_is_euclidean(self):
        iv = AngleInterval(0.37, 0.5)  # length 1
        rng = np.random.default_rng(4)
        for _ in range(100):
            x, y = rng.normal(size=2), rng.normal(size=2)
            assert d_metric(iv, x, y) == pytest.approx(np.linalg.norm(x - y), abs=1e-12)

    def test_perp_gap_scaling(self):
        iv = AngleInterval(0.0, 0.25)  # length 1/2
        assert d_metric(iv, (0, 0), (0, 1)) == pytest.approx(2.0, abs=1e-12)

    def test_parallel_displacement(self):
        iv = AngleInterval(0.0, 0.05)
        assert d_metric(iv, (0, 0), (1, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            iv = AngleInterval(rng.random(), 0.01 + 0.45 * rng.random())
            x, y, z = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)
            assert d_metric(iv, x, y) == pytest.approx(d_metric(iv, y, x), abs=1e-12)
            assert d_metric(iv, x, z) <= d_metric(iv, x, y) + d_metric(iv, y, z) + 1e-12

    def test_isometry_to_euclidean(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            iv = AngleInterval(rng.random(), 0.01 + 0.45 * rng.random())
            pts = rng.normal(size=(2, 2))
            mapped = to_metric_coords(iv, pts)
            d1 = d_metric(iv, pts[0], pts[1])
            d2 = float(np.linalg.norm(mapped[0] - mapped[1]))
            assert d1 == pytest.approx(d2, abs=1e-12)


class TestBatchIndependence:
    """A row's value does not depend on how many rows share the call."""

    PTS = np.random.default_rng(21).normal(size=(1000, 2))

    def assert_rowwise(self, f):
        batch = f(self.PTS)
        for i in range(len(self.PTS)):
            assert np.array_equal(f(self.PTS[i:i + 1])[0], batch[i]), i

    def test_d_metric_many(self):
        iv = AngleInterval(0.137, 0.01)
        self.assert_rowwise(lambda p: d_metric_many(iv, (0.3, -0.7), p))

    def test_to_metric_coords(self):
        iv = TriadicInterval(3, 5)
        self.assert_rowwise(lambda p: to_metric_coords(iv, p))

    def test_cone_mask(self):
        iv = AngleInterval(0.21, 0.03)
        self.assert_rowwise(lambda p: cone_mask(np.array([0.1, 0.2]), iv, p))

    def test_projector_mu_theta(self):
        projector = Projector(four_corners(2).skeleton())
        self.assert_rowwise(lambda p: projector.mu_theta(0.0713, 0.4 * p + 0.5))

    def test_d_metric_is_the_one_row_call_and_exactly_symmetric(self):
        iv = AngleInterval(0.137, 0.01)
        x = np.array([0.3, -0.7])
        row = d_metric_many(iv, x, self.PTS)
        back = np.array([d_metric_many(iv, p, x[None])[0] for p in self.PTS])
        assert np.array_equal(row, back)
        assert [d_metric(iv, x, p) for p in self.PTS] == row.tolist()


class TestConeBallInclusions:
    """The cone/ball inclusion suite at full 1e4 sample counts lives in
    test_acceptance; these are the same checks at reduced counts."""

    N = 2000

    def test_cone_in_ball(self):
        # y in X(x, alpha I, r) implies d_I(x, y) <= 8 alpha r
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(self.N):
            alpha = 1.0 + 3.0 * rng.random()
            hw = rng.uniform(0.005, 0.25 / alpha / 2)
            iv = AngleInterval(rng.random(), hw)
            x = rng.normal(size=2)
            r = 10.0 ** rng.uniform(-3, 1)
            theta = iv.center + (2 * rng.random() - 1) * alpha * hw
            d = rng.uniform(1e-6, r)
            y = x + d * direction_vector(theta)
            assert in_cone(ConeSpec(tuple(x), iv.dilate(alpha), outer=r), y)
            ratio = d_metric(iv, x, y) / (alpha * r)
            worst = max(worst, ratio)
            assert ratio <= 8.0
        assert worst < 8.0

    def test_cone_in_cone(self):
        # z in X(x, I, r, R), r > C(alpha) d_I(x, y) => z in X(y, alpha I, r/2, 2R)
        rng = np.random.default_rng(8)
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
            dist = rng.uniform(r * 1.0000001, big_r)
            z = x + dist * direction_vector(theta)
            spec = ConeSpec(tuple(y), iv.dilate(alpha), inner=r / 2, outer=2 * big_r)
            assert in_cone(spec, z)

    def test_ball_in_cone(self):
        # y in X(x, I, r, 2r), z in B(y, c H(I) r) => z in X(x, alpha I, r/2, 4r)
        rng = np.random.default_rng(9)
        for _ in range(self.N):
            alpha = 1.0 + rng.uniform(0.05, 1.0)
            hw = rng.uniform(0.002, 0.25 / alpha / 2)
            iv = AngleInterval(rng.random(), hw)
            c = min(0.25, (alpha - 1.0) / 4.0)
            x = rng.normal(size=2)
            r = 10.0 ** rng.uniform(-3, 0)
            theta = iv.center + (2 * rng.random() - 1) * hw
            dist = rng.uniform(r, 2 * r)
            y = x + dist * direction_vector(theta)
            u = rng.normal(size=2)
            z = y + u / np.linalg.norm(u) * rng.random() * c * iv.length * r
            spec = ConeSpec(tuple(x), iv.dilate(alpha), inner=r / 2, outer=4 * r)
            assert in_cone(spec, z)

    def test_metric_comparability(self):
        # I subset CJ, J subset CI => d_I <= 2C d_J and d_J <= 2C d_I
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(self.N):
            c_factor = rng.uniform(1.0, 2.5)
            hj = rng.uniform(0.01, 0.2)
            hi = rng.uniform(hj / c_factor, min(c_factor * hj, 0.25))
            max_shift = min(c_factor * hj - hi, c_factor * hi - hj) / 2.0
            if max_shift < 0:
                continue
            center_j = rng.random()
            center_i = center_j + rng.uniform(-max_shift, max_shift)
            i_iv = AngleInterval(center_i, hi / 2)
            j_iv = AngleInterval(center_j, hj / 2)
            x, y = rng.normal(size=2), rng.normal(size=2)
            di, dj = d_metric(i_iv, x, y), d_metric(j_iv, x, y)
            worst = max(worst, di / (c_factor * dj), dj / (c_factor * di))
            assert di <= 2.0 * c_factor * dj + 1e-12
            assert dj <= 2.0 * c_factor * di + 1e-12
        assert worst <= 2.0


class TestRowBlocks:
    @staticmethod
    def covered(blocks, rows):
        return [i for block in blocks for i in range(rows)[block]]

    def test_no_rows(self):
        assert row_blocks(0, 10) == []
        assert row_blocks(0, 0) == []

    def test_blocks_tile_the_rows(self):
        # 3 * PAIR_TILE pairs in rows of 300: the last block is short
        rows, width = 3 * PAIR_TILE // 300 + 7, 300
        blocks = row_blocks(rows, width)
        assert self.covered(blocks, rows) == list(range(rows))
        assert {b.stop - b.start for b in blocks[:-1]} == {PAIR_TILE // width}
        assert 0 < blocks[-1].stop - blocks[-1].start < PAIR_TILE // width
        assert blocks[-1].stop == rows

    def test_width_zero_is_one_pair_per_row(self):
        # no pairs per row: as many rows per block as pairs in a tile
        blocks = row_blocks(PAIR_TILE + 5, 0)
        assert [(b.start, b.stop) for b in blocks] == \
            [(0, PAIR_TILE), (PAIR_TILE, PAIR_TILE + 5)]

    @pytest.mark.parametrize("width", [PAIR_TILE + 1, 5 * PAIR_TILE])
    def test_rows_wider_than_a_tile_go_one_at_a_time(self, width):
        blocks = row_blocks(4, width)
        assert [(b.start, b.stop) for b in blocks] == [(0, 1), (1, 2), (2, 3), (3, 4)]
