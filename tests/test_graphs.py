import numpy as np
import pytest

from favard import conical, graphs, torus
from favard.conical import scale_ceiling
from favard.graphs import extract_graph, reduce_bad_scales, verify_lipschitz
from favard.torus import AngleInterval, TriadicInterval, _direction_mask
from tests.reference import bad_scales, tile_pairs


def abs_graph_points(n=25, span=0.3):
    ts = np.linspace(-span, span, n)
    return np.column_stack([ts, np.abs(ts)])


def reference_reduce(points, idx, interval, m_cap, rho=0.5):
    """The greedy loop of reduce_bad_scales with every incidence recounted
    after each deletion: the oracle for the incremental counts."""
    pts_all = np.asarray(points, dtype=float)
    idx = np.array(sorted(idx), dtype=np.int64)
    high = scale_ceiling(pts_all[idx], rho)
    half = interval.dilate(0.5) if isinstance(interval, AngleInterval) else \
        interval.as_angle_interval().dilate(0.5)
    keep = idx.copy()
    while True:
        pts = pts_all[keep]
        counts = np.zeros(len(keep))
        worst = 0
        for a in range(len(keep)):
            diff = pts - pts[a]
            dist = np.hypot(diff[:, 0], diff[:, 1])
            dmask = _direction_mask(diff, half, dist)
            n_bad = 0
            incid = []
            for k in range(0, high + 1):
                rk, rk1 = rho**k, rho ** (k + 1)
                hits = np.nonzero(dmask & (dist > rk1) & (dist <= rk))[0]
                if len(hits):
                    n_bad += 1
                    incid.append((k, hits))
            if n_bad >= m_cap:
                worst = max(worst, n_bad)
                counts[a] += sum(len(h) for _, h in incid) + n_bad
                for k, hits in incid:
                    counts[hits] += 1.0
        if worst < m_cap or len(keep) == 1:
            break
        order = sorted(range(len(keep)),
                       key=lambda a: (-counts[a], pts[a, 0], pts[a, 1], keep[a]))
        keep = np.delete(keep, order[0])
    return keep


def precondition_subset(pts, interval, m_cap, rho):
    """Indices left after dropping, one at a time, the point with the most bad
    scales until none has more than m_cap for the full interval."""
    idx = list(range(len(pts)))
    high = scale_ceiling(pts, rho)
    while True:
        counts = [len(bad_scales(pts[idx], pts[i], interval, rho, high)) for i in idx]
        if max(counts) <= m_cap:
            return np.array(idx)
        del idx[int(np.argmax(counts))]


class TestVerifyLipschitz:
    def test_vertical_pair_fails(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.5]])
        ok, lip = verify_lipschitz(pts, AngleInterval(0.25, 0.1))
        assert not ok

    def test_collinear_transverse(self):
        slope = 0.3
        xs = np.linspace(0, 0.9, 12)
        pts = np.column_stack([xs, slope * xs])
        ok, lip = verify_lipschitz(pts, AngleInterval(0.25, 0.05))
        assert ok
        assert lip == pytest.approx(slope, abs=1e-12)

    def test_singleton(self):
        ok, lip = verify_lipschitz(np.array([[0.3, 0.7]]), AngleInterval(0.0, 0.1))
        assert ok and lip == 0.0

    def test_abs_graph_unit_slope(self):
        ok, lip = verify_lipschitz(abs_graph_points(), AngleInterval(0.25, 0.1))
        assert ok
        assert lip == pytest.approx(1.0, abs=1e-9)


class TestReduce:
    def test_nothing_to_remove(self):
        xs = np.linspace(0, 0.9, 15)
        pts = np.column_stack([xs, np.zeros(15)])
        j = AngleInterval(0.25, 0.05)
        keep = reduce_bad_scales(pts, np.arange(15), j, 1, 0.5)
        assert len(keep) == 15

    def test_two_stacked_atoms_drop_one(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.4]])
        j = AngleInterval(0.25, 0.05)
        # each sees the other in one annulus: Bad = 1 each; target cap 1 -> one goes
        keep = reduce_bad_scales(pts, np.arange(2), j, 1, 0.5)
        assert len(keep) == 1

    def test_collinear_transverse_untouched(self):
        xs = np.linspace(0, 0.9, 10)
        pts = np.column_stack([xs, np.zeros(10)])
        j = AngleInterval(0.25, 0.04)
        keep = reduce_bad_scales(pts, np.arange(10), j, 3, 0.5)
        assert len(keep) == 10

    def test_precondition_violation_lists_atoms(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.3], [0.0, 0.6], [0.0, 0.05]])
        j = AngleInterval(0.25, 0.05)
        with pytest.raises(ValueError, match="precondition"):
            reduce_bad_scales(pts, np.arange(4), j, 1, 0.5)

    def test_postcondition_rechecked(self):
        rng = np.random.default_rng(0)
        pts = rng.random((30, 2)) * 0.7
        j = AngleInterval(0.25, 0.03)
        high = 14
        m_cap = max(len(bad_scales(pts, pts[i], j, 0.5, high))
                    for i in range(30))
        keep = reduce_bad_scales(pts, np.arange(30), j, max(m_cap, 1), 0.5)
        half = j.dilate(0.5)
        for i in keep:
            bs = bad_scales(pts[keep], pts[i], half, 0.5, high)
            assert len(bs) <= max(m_cap, 1) - 1


    @pytest.mark.parametrize("tile", [torus.PAIR_TILE, 1, 700],
                             ids=["one_block", "rows", "blocks"])
    def test_incremental_counts_match_full_recount(self, tile, monkeypatch):
        # the scale table and the bad-scale counts are built in blocks of
        # about PAIR_TILE pairs; the block boundaries must not move `keep`
        one_block = tile == torus.PAIR_TILE
        blocks = tile_pairs(monkeypatch, tile, graphs, conical)
        deletions = {1: 0, 2: 0, 3: 0}
        for seed in range(24):
            rng = np.random.default_rng(seed)
            pts = rng.random((36, 2)) * 0.7
            if seed % 2 == 0:
                j = AngleInterval(float(rng.random()), float(0.02 + 0.06 * rng.random()))
            else:
                level = 2 + seed % 3
                j = TriadicInterval(level, int(rng.integers(0, 3**level)))
            rho = 0.5 if seed % 3 else 0.3
            for m_cap in (1, 2, 3):
                idx = rng.permutation(precondition_subset(pts, j, m_cap, rho))
                keep = reduce_bad_scales(pts, idx, j, m_cap, rho)
                expected = reference_reduce(pts, idx, j, m_cap, rho)
                assert keep.dtype == expected.dtype
                assert np.array_equal(keep, expected), (seed, m_cap)
                deletions[m_cap] += len(idx) - len(keep)
        # the comparison must cover real greedy deletions at every cap
        assert all(d > 0 for d in deletions.values()), deletions
        assert (max(blocks) > 1) != one_block


class TestExtract:
    def test_line_fixture_trivial(self):
        xs = np.linspace(0, 0.9, 12)
        pts = np.column_stack([xs, np.zeros(12)])
        cert = extract_graph(pts, AngleInterval(0.25, 0.05), 0)
        assert len(cert.retained_idx) == 12
        assert cert.lip == pytest.approx(0.0, abs=1e-12)

    def test_abs_graph_lip_one(self):
        cert = extract_graph(abs_graph_points(), AngleInterval(0.25, 0.1), 0)
        assert cert.lip == pytest.approx(1.0, abs=1e-9)
        assert len(cert.retained_idx) == 25

    def test_perturbed_line(self):
        rng = np.random.default_rng(1)
        xs = np.linspace(0, 0.9, 20)
        eps = 1e-3
        pts = np.column_stack([xs, eps * rng.standard_normal(20)])
        gap = xs[1] - xs[0]
        cert = extract_graph(pts, AngleInterval(0.25, 0.02), 0)
        assert cert.lip <= 4 * eps / gap

    def test_output_always_passes_verify(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pts = rng.random((20, 2)) * 0.6
            j = AngleInterval(0.25, 0.03)
            high = 14
            m0 = max(len(bad_scales(pts, pts[i], j, 0.5, high))
                     for i in range(len(pts)))
            cert = extract_graph(pts, j, m0)
            final = AngleInterval(0.25, 0.03 * 2.0**-m0)
            ok, lip = verify_lipschitz(pts[cert.retained_idx], final)
            assert ok
            assert lip == pytest.approx(cert.lip)
            assert len(cert.retained_idx) > 0

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        pts = rng.random((18, 2)) * 0.6
        j = AngleInterval(0.25, 0.03)
        m0 = max(len(bad_scales(pts, pts[i], j, 0.5, 14))
                 for i in range(len(pts)))
        cert = extract_graph(pts, j, m0)
        final = AngleInterval(0.25, j.half_width * 2.0**-m0)
        again = extract_graph(pts[cert.retained_idx], final, 0)
        assert len(again.retained_idx) == len(cert.retained_idx)

    def test_monotone_reduction(self):
        # each round's retained set never gains atoms
        rng = np.random.default_rng(4)
        pts = rng.random((24, 2)) * 0.6
        j = AngleInterval(0.25, 0.04)
        m0 = max(len(bad_scales(pts, pts[i], j, 0.5, 14))
                 for i in range(len(pts)))
        sizes = []
        keep = np.arange(len(pts))
        current = j
        for step in range(m0):
            keep = reduce_bad_scales(pts, keep, current, m0 - step, 0.5)
            sizes.append(len(keep))
            current = current.dilate(0.5)
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_diameter_guard(self):
        pts = np.array([[0.0, 0.0], [3.0, 0.0]])
        with pytest.raises(ValueError, match="diameter"):
            extract_graph(pts, AngleInterval(0.25, 0.05), 1)

    def test_json_export(self, tmp_path):
        cert = extract_graph(abs_graph_points(9), AngleInterval(0.25, 0.1), 0)
        path = tmp_path / "cert.json"
        cert.to_json(path)
        import json
        data = json.loads(path.read_text())
        assert data["lip"] == pytest.approx(1.0, abs=1e-9)
        assert len(data["points"]) == 9


class TestMassBenchmark:
    def test_reported_not_asserted(self):
        from favard.graphs import mass_benchmark
        rep = mass_benchmark(0.5, 0.1, 2.0, 1.0)
        assert rep["benchmark"] == pytest.approx(0.1 / 16 / 4)
        assert rep["meets_benchmark"]
        rep2 = mass_benchmark(1e-9, 0.1, 2.0, 1.0)
        assert not rep2["meets_benchmark"]
