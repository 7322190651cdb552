import math

import numpy as np
import pytest

from favard.conical import scale_ceiling
from favard.sets import (DEFAULT_ATOMS_PER_SEGMENT, TOL, DyadicSquareSet, Segment,
                         SegmentUnion, cloud_content, cloud_of, ahlfors_constant,
                         four_corners, pairwise_extremes, segment_distances, split_parallel)
from tests.reference import (atoms_by_segment, ball_mass_by_segment, direction_angle,
                             hausdorff_content, pieces_by_union_find, project_segments,
                             skeleton_by_edge, skeleton_by_edge_set, split_parallel_by_segment)


def oracle_unions():
    """Seeded oblique unions and axis-parallel ones (skeletons, a stack, a
    union with a repeated segment) for the array-path oracles."""
    rng = np.random.default_rng(12)
    unions = [SegmentUnion([Segment(tuple(rng.uniform(-1, 2, 2)), tuple(rng.uniform(-1, 2, 2)))
                            for _ in range(int(rng.integers(1, 40)))]) for _ in range(8)]
    unions += [four_corners(n).skeleton() for n in (0, 1, 2)]
    unions.append(SegmentUnion([Segment((0, 0.0124 * i), (0.05, 0.0124 * i)) for i in range(60)]))
    unions.append(SegmentUnion([Segment((0, 0), (1, 0))] * 2 + [Segment((0.3, -1), (0.3, 2))]))
    return unions


def same_union(u: SegmentUnion, v: SegmentUnion) -> bool:
    return np.array_equal(u.coords, v.coords) and np.array_equal(u.lengths, v.lengths)


class TestArrayPathsMatchTheSegmentLoops:
    """Each array path of SegmentUnion gives exactly what the per-segment
    loop it replaced gives."""

    @pytest.mark.parametrize("pitch", [None, 1 / 7, 1 / 64, 0.013])
    def test_atoms(self, pitch):
        for u in oracle_unions():
            got = u.atoms(pitch)
            want = atoms_by_segment(u, pitch or min(u.lengths) / DEFAULT_ATOMS_PER_SEGMENT)
            assert np.array_equal(got.points, want.points)
            assert np.array_equal(got.weights, want.weights)

    def test_ball_mass(self):
        rng = np.random.default_rng(5)
        for u in oracle_unions():
            centers = np.concatenate([u.atoms(1 / 4).points[::3], rng.uniform(-1, 2, (10, 2))])
            for c in centers:
                for r in (1e-3, 0.07, 0.4, 3.0):
                    assert u.ball_mass(c, r) == ball_mass_by_segment(u, c, r)

    def test_skeleton(self):
        # the dense random sets share many edges between adjacent cells
        rng = np.random.default_rng(8)
        sets = [four_corners(n) for n in range(7)] + [DyadicSquareSet(1, [(0, 0), (1, 0)])]
        sets += [DyadicSquareSet(4, {tuple(c) for c in rng.integers(0, 16, (30, 2))})
                 for _ in range(5)]
        sets += [DyadicSquareSet(level, {tuple(c) for c in rng.integers(0, 2**level, (m, 2))})
                 for level, m in ((2, 10), (3, 40), (3, 64), (4, 200), (6, 3000))]
        for sq in sets:
            assert same_union(sq.skeleton(), skeleton_by_edge_set(sq))
            assert same_union(sq.skeleton(), skeleton_by_edge(sq))

    def test_split_parallel(self):
        parallel = [u for u in oracle_unions() if all(
            direction_angle(s) in (0.0, 0.25) for s in u.segments)]
        assert len(parallel) == 5
        # long segments, axis-parallel only within TOL * length
        parallel.append(SegmentUnion([Segment((0, 0), (10, 5e-12)), Segment((3, 1), (3, 11))]))
        for u in parallel + [split_parallel(u)[0] for u in parallel]:
            for got, want in zip(split_parallel(u), split_parallel_by_segment(u)):
                assert same_union(got, want)
        for u in oracle_unions()[:8]:
            with pytest.raises(ValueError, match="oblique") as got:
                split_parallel(u)
            with pytest.raises(ValueError, match="oblique") as want:
                split_parallel_by_segment(u)
            assert str(got.value) == str(want.value)


def polyline(n_vertices: int, rng) -> SegmentUnion:
    """A random-walk polyline: one connected piece of n_vertices vertices."""
    pts = np.cumsum(rng.uniform(-1, 1, (n_vertices, 2)), axis=0)
    return SegmentUnion.from_endpoints(pts[:-1], pts[1:])


def star(n_segments: int, rng) -> SegmentUnion:
    """n_segments segments from the origin: one piece of n_segments + 1 vertices."""
    return SegmentUnion.from_endpoints(np.zeros((n_segments, 2)),
                                       rng.uniform(-1, 1, (n_segments, 2)))


def mixed_union(rng) -> SegmentUnion:
    """A 30-vertex polyline beside 100 loose segments. Its pieces would take
    30 x 101 slots, more than its 2 x 129 endpoints, so its piece table is
    the segments themselves."""
    line, loose = polyline(30, rng), rng.uniform(5, 6, (100, 4))
    return SegmentUnion.from_endpoints(np.concatenate([line.coords[:2].T, loose[:, :2]]),
                                       np.concatenate([line.coords[2:].T, loose[:, 2:]]))


def shared_endpoint_unions():
    """Seeded unions whose segments join at forced shared endpoints: segments
    between points of a small pool, in random order among loose segments,
    plus a corner shared as 0.0 and -0.0, a polyline, a star, duplicate and
    reversed segments, and a union that takes the segment fallback."""
    rng = np.random.default_rng(21)
    unions = []
    for _ in range(60):
        pool = rng.uniform(-1, 1, (int(rng.integers(2, 10)), 2))
        m = int(rng.integers(1, 25))
        i = rng.integers(0, len(pool), m)
        j = (i + rng.integers(1, len(pool), m)) % len(pool)
        loose = rng.uniform(-1, 1, (int(rng.integers(0, 6)), 4))
        a, b = np.concatenate([pool[i], loose[:, :2]]), np.concatenate([pool[j], loose[:, 2:]])
        order = rng.permutation(len(a))
        unions.append(SegmentUnion.from_endpoints(a[order], b[order]))
    unions.append(SegmentUnion([Segment((2, 2), (3, 3)), Segment((0.0, 0.0), (1, 0)),
                                Segment((-0.0, 0.0), (0, 1))]))
    unions += [polyline(40, rng), star(12, rng), mixed_union(rng), four_corners(2).skeleton(),
               SegmentUnion([Segment((0, 0), (1, 0))] * 3 + [Segment((1, 0), (0, 0))])]
    return unions


def components_by_search(union: SegmentUnion) -> list[set]:
    """The vertex sets of the connected pieces, ordered by first segment, by
    a search over the segments; points join by ==, so 0.0 and -0.0 are one."""
    neighbours: dict = {}
    for x1, y1, x2, y2 in union.coords.T.tolist():
        neighbours.setdefault((x1, y1), set()).add((x2, y2))
        neighbours.setdefault((x2, y2), set()).add((x1, y1))
    seen, pieces = set(), []
    for p in neighbours:
        if p not in seen:
            seen.add(p)
            piece, todo = set(), [p]
            while todo:
                q = todo.pop()
                piece.add(q)
                todo += [r for r in neighbours[q] - seen]
                seen |= neighbours[q]
            pieces.append(piece)
    return pieces


class TestPieceTable:
    @staticmethod
    def columns(union):
        xs, ys = union.pieces
        return [list(zip(xs[:, j].tolist(), ys[:, j].tolist())) for j in range(xs.shape[1])]

    def test_properties(self):
        for u in shared_endpoint_unions():
            xs, _ = u.pieces
            assert xs.shape[0] * xs.shape[1] <= 2 * len(u)
            segments = [((x1, y1), (x2, y2)) for x1, y1, x2, y2 in u.coords.T.tolist()]
            cols = self.columns(u)
            for col in cols:
                verts = set(col)
                # padding only repeats the piece's first vertex
                distinct = len(verts)
                assert len(set(col[:distinct])) == distinct
                assert col[distinct:] == [col[0]] * (len(col) - distinct)
                # the piece is connected through the union's own segments
                inner = [s for s in segments if s[0] in verts and s[1] in verts]
                assert {p for s in inner for p in s} == verts
                reached, todo = {col[0]}, [col[0]]
                while todo:
                    q = todo.pop()
                    for a, b in inner:
                        for x, y in ((a, b), (b, a)):
                            if x == q and y not in reached:
                                reached.add(y)
                                todo.append(y)
                assert reached == verts
            for a, b in segments:
                assert any(a in col and b in col for col in cols)

    def test_pieces_are_the_components_unless_the_segments_are_smaller(self):
        for u in shared_endpoint_unions():
            pieces = components_by_search(u)
            xs, ys = u.pieces
            if max(map(len, pieces)) * len(pieces) > 2 * len(u):
                assert np.array_equal(xs, u.coords[0::2]) and np.array_equal(ys, u.coords[1::2])
            else:
                assert [set(col) for col in self.columns(u)] == pieces

    def test_equals_the_union_find_table(self):
        rng = np.random.default_rng(22)
        unions = shared_endpoint_unions() + [four_corners(k).skeleton() for k in range(6)]
        unions += [polyline(200, rng), star(50, rng), SegmentUnion([])]
        for u in unions:
            for got, want in zip(u.pieces, pieces_by_union_find(u)):
                assert np.array_equal(got, want)

    def test_shuffled_reversed_polyline_equals_the_union_find_table(self):
        # numbered in shuffled segment order, the vertices along the line
        # carry random numbers, so labels travel far before they settle
        rng = np.random.default_rng(23)
        pts = np.cumsum(rng.uniform(-1, 1, (20_001, 2)), axis=0)
        a, b = pts[:-1], pts[1:]
        flip = rng.random(20_000) < 0.5
        a, b = np.where(flip[:, None], b, a), np.where(flip[:, None], a, b)
        order = rng.permutation(20_000)
        u = SegmentUnion.from_endpoints(a[order], b[order])
        xs, ys = u.pieces
        assert xs.shape == (20_001, 1)
        want_xs, want_ys = pieces_by_union_find(u)
        assert np.array_equal(xs, want_xs) and np.array_equal(ys, want_ys)

    def test_signed_zero_corner_joins(self):
        u = SegmentUnion([Segment((0.0, 0.0), (1, 0)), Segment((-0.0, 0.0), (0, 1))])
        assert u.pieces[0].shape == (3, 1)

    def test_table_shapes(self):
        rng = np.random.default_rng(3)
        assert four_corners(2).skeleton().pieces[0].shape == (4, 16)
        assert polyline(200, rng).pieces[0].shape == (200, 1)
        assert star(50, rng).pieces[0].shape == (51, 1)
        assert mixed_union(rng).pieces[0].shape == (2, 129)
        assert SegmentUnion([]).pieces[0].shape[1] == 0

    def test_without_shared_endpoints_the_pieces_are_the_segments(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 7, 40):
            u = SegmentUnion.from_endpoints(rng.random((n, 2)), rng.random((n, 2)))
            xs, ys = u.pieces
            assert np.array_equal(xs, u.coords[0::2]) and np.array_equal(ys, u.coords[1::2])


class TestSegment:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Segment((0, 0), (0, 0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        for a, b in (((value, 0), (1, 1)), ((0, value), (1, 1)),
                     ((0, 0), (value, 1)), ((0, 0), (1, value))):
            with pytest.raises(ValueError, match="non-finite"):
                Segment(a, b)

    def test_direction_mod_half(self):
        assert direction_angle(Segment((0, 0), (1, 0))) == 0.0
        assert direction_angle(Segment((1, 0), (0, 0))) == 0.0
        assert direction_angle(Segment((0, 0), (0, 3))) == pytest.approx(0.25)

    def test_ball_intersection_exact(self):
        u = SegmentUnion([Segment((0, 0), (4, 0))])
        assert u.ball_mass((2, 0), 1.0) == pytest.approx(2.0)
        assert u.ball_mass((0, 0), 1.0) == pytest.approx(1.0)
        assert u.ball_mass((2, 2), 1.0) == 0.0
        # chord at height 0.6 with radius 1: half-length 0.8
        assert u.ball_mass((2, 0.6), 1.0) == pytest.approx(1.6)


class TestSegmentUnion:
    def test_atoms_mass_conservation(self):
        u = SegmentUnion([Segment((0, 0), (1, 0)), Segment((0, 1), (0.3, 1))])
        atoms = u.atoms(0.01)
        assert atoms.total_mass == pytest.approx(u.total_length, abs=1e-12)

    @pytest.mark.parametrize("pitch", [0.0, -0.1, math.inf, math.nan])
    def test_degenerate_atom_pitch_rejected(self, pitch):
        u = SegmentUnion([Segment((0, 0), (1, 0)), Segment((0, 1), (0.3, 1))])
        with pytest.raises(ValueError, match="pitch"):
            u.atoms(pitch)

    def test_csv_roundtrip(self, tmp_path):
        u = SegmentUnion([Segment((0, 0), (1, 0)), Segment((0.25, -1), (0.25, 2))])
        path = tmp_path / "segs.csv"
        u.to_csv(path)
        v = SegmentUnion.from_csv(path)
        assert len(v) == 2
        assert v.segments[0].a == (0.0, 0.0)

    def test_csv_errors_have_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,1,0\n1,2,3\n")
        with pytest.raises(ValueError, match="bad.csv:2"):
            SegmentUnion.from_csv(path)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            SegmentUnion.from_csv(path)


class TestFourCorners:
    def test_generation_zero(self):
        fc = four_corners(0)
        assert fc.level == 0 and len(fc) == 1

    def test_generation_one_corners(self):
        fc = four_corners(1)
        assert fc.level == 2 and len(fc) == 4
        assert fc.cells == {(0, 0), (0, 3), (3, 0), (3, 3)}

    def test_generation_two_digit_expansion(self):
        fc = four_corners(2)
        assert len(fc) == 16
        xs = sorted({i for i, _ in fc.cells})
        assert xs == [0, 3, 12, 15]  # {0, 3/16, 3/4, 15/16} * 16

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            four_corners(13)


class TestSquareSetInput:
    @pytest.mark.parametrize("level, cells", [
        (1, [(0.7, 1.9)]), (1, [(1.0, 0)]), (1.5, [(0, 0)]), (1.0, [(0, 0)]),
        (1, [(True, 0)]), (True, [(0, 0)]), (1, [(0, None)])])
    def test_non_integer_input_rejected(self, level, cells):
        with pytest.raises(ValueError, match="integer"):
            DyadicSquareSet(level, cells)

    @pytest.mark.parametrize("cell", [(0, 1, 1), (0,)])
    def test_cell_of_another_length_rejected(self, cell):
        with pytest.raises(ValueError):
            DyadicSquareSet(1, [cell])

    def test_numpy_integers_accepted(self):
        sq = DyadicSquareSet(np.int64(2), [tuple(c) for c in np.array([[0, 3], [3, 0]])])
        assert sq.level == 2 and sq.cells == {(0, 3), (3, 0)}
        assert all(type(v) is int for c in sq.cells for v in c)


class TestSkeleton:
    def test_unit_square(self):
        sk = DyadicSquareSet(0, [(0, 0)]).skeleton()
        assert len(sk) == 4
        assert sk.total_length == pytest.approx(4.0)

    def test_adjacent_cells_shared_edge(self):
        sk = DyadicSquareSet(1, [(0, 0), (1, 0)]).skeleton()
        assert len(sk) == 7

    def test_four_corners_one(self):
        sk = four_corners(1).skeleton()
        assert len(sk) == 16
        assert all(s.length == pytest.approx(0.25) for s in sk.segments)

    def test_projection_domination(self):
        # projections of the skeleton equal projections of the squares:
        # compare against the union of full-cell projections for 64 angles
        fc = four_corners(2)
        sk = fc.skeleton()
        side = fc.side
        cells_as_squares = []
        for i, j in fc.cells:
            cells_as_squares.append(Segment((i * side, j * side),
                                            ((i + 1) * side, j * side)))
            cells_as_squares.append(Segment((i * side, (j + 1) * side),
                                            ((i + 1) * side, (j + 1) * side)))
            cells_as_squares.append(Segment((i * side, j * side),
                                            (i * side, (j + 1) * side)))
            cells_as_squares.append(Segment(((i + 1) * side, j * side),
                                            ((i + 1) * side, (j + 1) * side)))
        rng = np.random.default_rng(0)
        for theta in rng.random(64):
            m_skel = project_segments(sk, theta).measure
            m_full = project_segments(SegmentUnion(cells_as_squares), theta).measure
            assert m_skel >= m_full - 1e-9


class TestSplitParallel:
    def test_unit_square_skeleton(self):
        h, v = split_parallel(DyadicSquareSet(0, [(0, 0)]).skeleton())
        assert len(h) == 2 and len(v) == 2

    def test_four_corners_symmetry(self):
        h, v = split_parallel(four_corners(1).skeleton())
        assert len(h) == 8 and len(v) == 8
        assert h.total_length + v.total_length == pytest.approx(4.0)

    def test_all_horizontal(self):
        u = SegmentUnion([Segment((0, 0), (1, 0)), Segment((0, 1), (1, 1))])
        h, v = split_parallel(u)
        assert len(h) == 2 and len(v) == 0

    def test_oblique_rejected(self):
        with pytest.raises(ValueError, match="oblique"):
            split_parallel(SegmentUnion([Segment((0, 0), (1, 1))]))


class TestAhlfors:
    def test_single_segment_range(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        a = ahlfors_constant(u, 400, seed=1)
        assert 1.0 <= a <= 2.0 + 1e-9

    def test_midpoint_ratio_two(self):
        u = SegmentUnion([Segment((0, 0), (10, 0))])
        # small r at the midpoint: mass 2r, ratio 2
        assert u.ball_mass((5, 0), 0.25) == pytest.approx(0.5)

    def test_monotone_in_sample_count(self):
        sk = four_corners(3).skeleton()
        a1 = ahlfors_constant(sk, 50, seed=7)
        a2 = ahlfors_constant(sk, 200, seed=7)
        a3 = ahlfors_constant(sk, 400, seed=7)
        assert a1 <= a2 <= a3


class TestHausdorffContent:
    def test_unit_segment(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        c = hausdorff_content(u)
        assert 0.5 - 1e-9 <= c <= 1.0 + 1e-9

    def test_empty_cloud(self):
        u = SegmentUnion([])
        assert hausdorff_content(u) == 0.0

    def test_unit_square_boundary(self):
        sk = DyadicSquareSet(0, [(0, 0)]).skeleton()
        c = hausdorff_content(sk)
        assert c <= math.sqrt(2.0) / 2.0 + 0.15
        assert c >= 0.5

    def test_upper_bound_diameter(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            segs = [Segment(tuple(rng.random(2)), tuple(rng.random(2) + 0.01))
                    for _ in range(5)]
            u = SegmentUnion(segs)
            assert hausdorff_content(u) <= u.diameter() + 1e-9

    def test_min_radius_respected(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        c = hausdorff_content(u, min_radius=0.3)
        assert c >= 0.3

    def test_content_comparison_family(self):
        # content(E n Gamma(3 delta)) >= c * content(E(delta) n Gamma) on
        # crossing instances; the family constant is recorded >= 1/8 here
        from favard.sets import cloud_content, cloud_of
        delta = 1 / 32
        fc = four_corners(2)
        # a horizontal line through the bottom cell row (the midline of the
        # square misses every cell of this Cantor set by 1/4)
        gamma = SegmentUnion([Segment((0.0, 1 / 32), (1.0, 1 / 32))])
        e_pts, e_w, e_slack = cloud_of(fc)
        d_curve = segment_distances(e_pts, gamma)
        lhs_mask = d_curve <= 3 * delta
        lhs = cloud_content(e_pts[lhs_mask], e_w[lhs_mask], e_slack)
        g_atoms = gamma.atoms(delta / 4)
        d_e = np.array([np.min(np.hypot(e_pts[:, 0] - p[0], e_pts[:, 1] - p[1]))
                        for p in g_atoms.points])
        rhs_mask = d_e <= delta + e_slack
        rhs = cloud_content(g_atoms.points[rhs_mask], g_atoms.weights[rhs_mask],
                            delta / 8)
        assert lhs > 0 and rhs > 0
        assert lhs >= rhs / 8.0


def reference_cloud_content(pts, wts, slack, min_radius=0.0):
    """cloud_content as it was before the centers x points distance matrix
    moved out of the greedy loop: the matrix is rebuilt on every step."""
    if len(pts) == 0:
        return 0.0
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    center = (lo + hi) / 2.0
    enclosing = float(np.max(np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1]))) + slack
    enclosing = max(enclosing, min_radius)
    if len(pts) == 1:
        return max(min_radius, slack) if min_radius > 0.0 or slack > 0.0 else 0.0
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
    uncovered = np.ones(len(pts), dtype=bool)
    total = 0.0
    while uncovered.any():
        best_score, best_mask, best_r = -1.0, None, None
        dx = pts[None, :, 0] - centers[:, None, 0]
        dy = pts[None, :, 1] - centers[:, None, 1]
        dist = np.hypot(dx, dy)
        for r in radii:
            inside = dist <= max(r - slack, 0.0) + TOL
            gains = (inside & uncovered) @ wts
            k = int(np.argmax(gains))
            score = gains[k] / r
            if score > best_score:
                best_score, best_mask, best_r = score, inside[k], r
        if best_mask is None or best_score <= 0.0:
            total += float(np.count_nonzero(uncovered)) * radii[-1]
            break
        uncovered &= ~best_mask
        total += best_r
        if total >= enclosing:
            return enclosing
    return min(total, enclosing)


class TestCloudContent:
    def test_matches_the_per_step_oracle(self):
        pts, wts, slack = cloud_of(four_corners(2).skeleton())
        cases = [(pts, wts, slack, 1 / 64)]
        rng = np.random.default_rng(15)
        for _ in range(30):
            n = int(rng.integers(1, 900))
            cloud = rng.random((n, 2)) * rng.uniform(0.1, 3.0)
            cases.append((cloud, rng.uniform(0.01, 1.0, n), float(rng.choice([0.0, 0.01])),
                          float(rng.choice([0.0, 1 / 64, 0.1]))))
        for args in cases:
            assert cloud_content(*args) == reference_cloud_content(*args)


class TestSegmentDistances:
    def test_basic(self):
        u = SegmentUnion([Segment((0, 0), (1, 0))])
        d = segment_distances(np.array([[0.5, 0.3], [2.0, 0.0]]), u)
        assert d[0] == pytest.approx(0.3)
        assert d[1] == pytest.approx(1.0)


# The hand-rolled loops that pairwise_extremes replaced, kept as oracles.

def row_loop_min_gap(pts):
    """The row loop of the old graphs._scale_range (now conical.scale_ceiling)."""
    best = math.inf
    for i in range(len(pts)):
        diff = pts[i + 1:] - pts[i]
        if len(diff):
            best = min(best, float(np.hypot(diff[:, 0], diff[:, 1]).min()))
    return best


def row_loop_diameter(pts):
    """The old SegmentUnion.diameter (and the diameter loop of extract_graph)."""
    if len(pts) == 0:
        return 0.0
    d = 0.0
    for i in range(len(pts)):
        diff = pts[i + 1:] - pts[i]
        if len(diff):
            d = max(d, float(np.max(np.hypot(diff[:, 0], diff[:, 1]))))
    return d


def blocked_min_gap(pts):
    """The old conical._min_gap."""
    best = math.inf
    n = len(pts)
    block = 512
    for a in range(0, n, block):
        pa = pts[a:a + block]
        for b in range(a, n, block):
            pb = pts[b:b + block]
            d = np.hypot(pa[:, None, 0] - pb[None, :, 0], pa[:, None, 1] - pb[None, :, 1])
            if a == b:
                np.fill_diagonal(d, math.inf)
            best = min(best, float(d.min()) if d.size else math.inf)
    return best


def blocked_cloud_dist(pts, cloud):
    """The old cli._cloud_dist."""
    out = np.full(len(pts), math.inf)
    block = 1024
    for a in range(0, len(cloud), block):
        sub = cloud[a:a + block]
        d = np.hypot(pts[:, None, 0] - sub[None, :, 0],
                     pts[:, None, 1] - sub[None, :, 1]).min(axis=1)
        np.minimum(out, d, out=out)
    return out


def clouds():
    rng = np.random.default_rng(3)
    coincident = np.array([[0.2, 0.3], [0.5, 0.1], [0.2, 0.3], [0.9, 0.9]])
    return {"n0": np.empty((0, 2)), "n1": rng.random((1, 2)), "n2": rng.random((2, 2)),
            "coincident": coincident, "n1300": rng.random((1300, 2))}


class TestPairwiseExtremes:
    @pytest.mark.parametrize("name", sorted(clouds()))
    def test_within_matches_the_old_loops(self, name):
        pts = clouds()[name]
        near, far = pairwise_extremes(pts)
        assert near.shape == far.shape == (len(pts),)
        gap = float(np.min(near, initial=math.inf))
        assert gap == row_loop_min_gap(pts) == blocked_min_gap(pts)
        assert float(np.max(far, initial=0.0)) == row_loop_diameter(pts)
        # per point, against the dense matrix with the diagonal excluded
        d = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
        np.fill_diagonal(d, math.inf)
        assert np.array_equal(near, d.min(axis=1, initial=math.inf))
        np.fill_diagonal(d, -math.inf)
        assert np.array_equal(far, d.max(axis=1, initial=-math.inf))

    @pytest.mark.parametrize("name", sorted(clouds()))
    def test_cloud_matches_the_old_loop(self, name):
        pts = clouds()[name]
        cloud = np.random.default_rng(4).random((1300, 2))
        assert np.array_equal(pairwise_extremes(pts, cloud)[0], blocked_cloud_dist(pts, cloud))
        assert np.array_equal(pairwise_extremes(cloud, pts)[0], blocked_cloud_dist(cloud, pts))

    def test_empty_cloud(self):
        pts = np.random.default_rng(5).random((7, 2))
        near, far = pairwise_extremes(pts, np.empty((0, 2)))
        assert np.array_equal(near, blocked_cloud_dist(pts, np.empty((0, 2))))
        assert np.all(near == math.inf) and np.all(far == -math.inf)

    def test_call_sites_match_the_old_loops(self):
        union = four_corners(3).skeleton()
        assert union.diameter() == row_loop_diameter(union.endpoints())
        pts = clouds()["n1300"]
        rho = 0.5
        expected = max(1, math.ceil(math.log(row_loop_min_gap(pts)) / math.log(rho))) + 1
        assert scale_ceiling(pts, rho) == expected
        with pytest.raises(ValueError, match="coincident"):
            scale_ceiling(clouds()["coincident"], rho)
