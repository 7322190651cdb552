import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from favard import conical, graphs, pipeline, projection, tree
from favard.cli import main
from favard.config import ExperimentConfig, write_json
from favard.pipeline import run_pipeline
from favard.projection import favard
from favard.sets import Segment, SegmentUnion, four_corners, split_parallel
from favard.torus import AngleInterval, TriadicInterval, wrap
from tests.reference import root_interval_by_loop


@pytest.fixture
def unit_segment_csv(tmp_path):
    path = tmp_path / "unit.csv"
    SegmentUnion([Segment((0, 0), (1, 0))]).to_csv(path)
    return str(path)


@pytest.fixture
def cantor_json(tmp_path):
    path = tmp_path / "cantor2.json"
    four_corners(2).to_json(path)
    return str(path)


class TestConfig:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rho": 0.5, "bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            ExperimentConfig.from_file(path)

    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(n_angles=512, seed=7)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_file(path).n_angles == 512

    @pytest.mark.parametrize("value", [np.int64(3), np.bool_(True)], ids=["int64", "bool_"])
    def test_write_json_rejects_what_json_cannot_hold(self, tmp_path, value):
        # the value raises instead of turning into its str, and the previous
        # report at the path keeps its bytes
        path = tmp_path / "report.json"
        write_json(path, {"ok": True})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"ok": value})
        assert path.read_bytes() == before


class TestCompute:
    def test_unit_segment(self, unit_segment_csv, tmp_path):
        code = main(["--out", str(tmp_path), "compute", unit_segment_csv,
                     "--n-angles", "4096"])
        assert code == 0
        report = json.loads((tmp_path / "compute_report.json").read_text())
        assert report["favard"] == pytest.approx(2 / math.pi, abs=1e-3)
        assert "input_hash" in report and "config" in report

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "compute", "nope.csv"]) == 1

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["--out", str(tmp_path), "compute", str(path)]) == 1

    def test_malformed_row_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0,1\n")
        assert main(["--out", str(tmp_path), "compute", str(path)]) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_row_is_input_error(self, tmp_path, capsys, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"0,0,1,0\n{value},0,1,1\n")
        assert main(["--out", str(tmp_path), "compute", str(path)]) == 1
        assert f"{path}:2: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "compute_report.json").exists()

    def test_zero_length_row_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        path.write_text("0,0,1,0\n0.5,0.5,0.5,0.5\n")
        assert main(["--out", str(tmp_path), "compute", str(path)]) == 1
        assert f"{path}:2: degenerate segment (0.5, 0.5) -> (0.5, 0.5)" in capsys.readouterr().err
        assert not (tmp_path / "compute_report.json").exists()

    @pytest.mark.parametrize("payload", [
        {"level": 1, "cells": [[0.7, 1.9]]},
        {"level": 1.5, "cells": [[0, 0]]},
        {"level": 1, "cells": [[True, 0]]}], ids=["float-cell", "float-level", "bool-cell"])
    def test_non_integer_square_set_is_input_error(self, tmp_path, capsys, payload):
        path = tmp_path / "squares.json"
        path.write_text(json.dumps(payload))
        assert main(["--out", str(tmp_path), "compute", str(path)]) == 1
        assert "integer" in capsys.readouterr().err
        assert not (tmp_path / "compute_report.json").exists()

    @pytest.mark.parametrize("payload", [{"level": 1, "cells": [5]}, [1, [[0, 0]]]],
                             ids=["cell-not-a-pair", "not-an-object"])
    def test_malformed_square_set_is_input_error(self, tmp_path, capsys, payload):
        path = tmp_path / "squares.json"
        path.write_text(json.dumps(payload))
        assert main(["--out", str(tmp_path), "compute", str(path)]) == 1
        assert "I/O error" in capsys.readouterr().err
        assert not (tmp_path / "compute_report.json").exists()

    def test_per_angle_rows_are_the_summed_values(self, tmp_path):
        # on this input, re-projecting each angle one by one gives rows whose
        # mean misses the reported favard by an ulp
        path = tmp_path / "cantor4.json"
        four_corners(4).to_json(path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 1}))
        code = main(["--config", str(cfg), "--out", str(tmp_path), "compute", str(path),
                     "--n-angles", "1000", "--per-angle"])
        assert code == 0
        favard_value = json.loads((tmp_path / "compute_report.json").read_text())["favard"]
        rows = json.loads((tmp_path / "projection_measures.json").read_text())
        assert [r["theta"] for r in rows] == ((np.arange(1000) + 0.5) / 1000).tolist()
        assert math.fsum(r["measure"] for r in rows) / 1000 == favard_value

    @pytest.mark.parametrize("n", [1000, 999])
    def test_report_is_favard(self, cantor_json, tmp_path, n):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 2}))
        code = main(["--config", str(cfg), "--out", str(tmp_path), "compute", cantor_json,
                     "--n-angles", str(n), "--per-angle"])
        assert code == 0
        report = json.loads((tmp_path / "compute_report.json").read_text())
        assert report["favard"] == favard(four_corners(2).skeleton(), n, 2)
        measures = [r["measure"] for r in
                    json.loads((tmp_path / "projection_measures.json").read_text())]
        assert len(measures) == n
        if n % 2 == 0:
            assert measures[:n // 2] == measures[n // 2:]

    def test_mc_cross_check(self, cantor_json, tmp_path):
        code = main(["--out", str(tmp_path), "compute", cantor_json,
                     "--n-angles", "2048", "--mc", "300000"])
        assert code == 0
        report = json.loads((tmp_path / "compute_report.json").read_text())
        assert report["mc_within_3_sigma"] is True     # a JSON true, not the string "True"


class TestMC:
    def test_report(self, unit_segment_csv, tmp_path):
        code = main(["--out", str(tmp_path), "mc", unit_segment_csv,
                     "--needles", "100000"])
        assert code == 0
        report = json.loads((tmp_path / "mc_report.json").read_text())
        assert abs(report["favard"] - 2 / math.pi) <= 4 * report["stderr"]


class TestCantorDecay:
    def test_table_strictly_decreasing(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_angles": 1024}))
        code = main(["--config", str(cfg), "--out", str(tmp_path),
                     "cantor-decay", "--n-max", "3"])
        assert code == 0
        report = json.loads((tmp_path / "cantor_decay_report.json").read_text())
        vals = [row["favard"] for row in report["rows"]]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert report["rows"][0]["favard"] == pytest.approx(4 / math.pi, abs=2e-3)
        assert (tmp_path / "cantor_decay.csv").exists()

    def test_resource_guard(self, tmp_path):
        assert main(["--out", str(tmp_path), "cantor-decay", "--n-max", "9"]) == 1

    def test_negative_n_max_is_usage_error(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "cantor-decay", "--n-max", "-1"]) == 1
        assert "argument --n-max: must be an integer in [0, 6]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestContent:
    def test_bottom_row_line(self, cantor_json, tmp_path):
        curve = tmp_path / "curve.csv"
        curve.write_text("0.0,0.03125\n1.0,0.03125\n")
        code = main(["--out", str(tmp_path), "content", cantor_json,
                     "--delta", str(1 / 64), "--curve", str(curve)])
        assert code == 0
        report = json.loads((tmp_path / "content_report.json").read_text())
        assert report["content_E_near_curve"] > 0
        assert report["content_Edelta_on_curve"] > 0

    def test_disjoint_curve_empty_sentinel(self, cantor_json, tmp_path):
        curve = tmp_path / "far.csv"
        curve.write_text("0.0,0.5\n1.0,0.5\n")
        code = main(["--out", str(tmp_path), "content", cantor_json,
                     "--delta", str(1 / 64), "--curve", str(curve)])
        assert code == 0
        report = json.loads((tmp_path / "content_report.json").read_text())
        assert report["ratio"] == "empty"

    def test_non_finite_curve_vertex_is_input_error(self, cantor_json, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        curve.write_text("0.0,0.03125\nnan,0.03125\n1.0,0.03125\n")
        code = main(["--out", str(tmp_path), "content", cantor_json,
                     "--delta", str(1 / 64), "--curve", str(curve)])
        assert code == 1
        assert f"{curve}:2: non-finite" in capsys.readouterr().err
        assert not (tmp_path / "content_report.json").exists()


class TestChecks:
    def test_lattice_check(self, tmp_path):
        assert main(["--out", str(tmp_path), "lattice-check",
                     "--instances", "12"]) == 0

    def test_lattice_check_blocks_keep_the_draws(self, tmp_path):
        # 60 instances span two descend blocks; the first 12 reports are
        # those of a 12-instance run
        reports = []
        for count in ("12", "60"):
            out = tmp_path / count
            assert main(["--out", str(out), "lattice-check", "--instances", count]) == 0
            reports.append(json.loads((out / "lattice_check_report.json").read_text())["reports"])
        assert [r["trial"] for r in reports[1]] == list(range(60))
        assert reports[1][:12] == reports[0]

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_lattice_check_needs_an_instance(self, tmp_path, capsys, count):
        assert main(["--out", str(tmp_path), "lattice-check", "--instances", count]) == 1
        assert "argument --instances: must be an integer >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_extract_graph_cli(self, tmp_path):
        path = tmp_path / "line.csv"
        xs = np.linspace(0, 0.9, 10)
        SegmentUnion([Segment((x, 0.0), (x + 0.05, 0.0)) for x in xs]).to_csv(path)
        code = main(["--out", str(tmp_path), "extract-graph", str(path),
                     "--center", "0.25", "--half-width", "0.04", "--m0", "0"])
        assert code == 0
        cert = json.loads((tmp_path / "certificate.json").read_text())
        assert cert["lip"] == pytest.approx(0.0, abs=1e-9)
        assert (tmp_path / "retained_atoms.csv").exists()

    @staticmethod
    def _assert_config_error(tmp_path, capsys, key, value):
        path = tmp_path / "two.csv"
        SegmentUnion([Segment((0, 0), (1, 0)), Segment((0, 0.5), (1, 0.5))]).to_csv(path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = main(["--config", str(cfg), "--out", str(tmp_path), "extract-graph", str(path),
                     "--center", "0.25", "--half-width", "0.04", "--m0", "0"])
        assert code == 1
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "certificate.json").exists()

    @pytest.mark.parametrize("pitch", [0, -0.1, math.inf, math.nan])
    def test_degenerate_atom_pitch_is_config_error(self, tmp_path, capsys, pitch):
        self._assert_config_error(tmp_path, capsys, "atom_pitch", pitch)

    # c_n and c_y are no longer config keys: setting one is an unknown-key error
    @pytest.mark.parametrize("key, value", [
        ("c_j", 0), ("c_eps", 0), ("c_eps", -1), ("c_m", 0), ("c_m", math.nan),
        ("seed", 1.5), ("n_angles", 2.5), ("c_n", 0), ("c_y", math.nan)])
    def test_degenerate_config_value_is_config_error(self, tmp_path, capsys, key, value):
        self._assert_config_error(tmp_path, capsys, key, value)


class TestArgumentRanges:
    """An argument outside its range, or any other usage error, exits 1 with
    a message naming the argument, before any output is written. The inputs
    are valid, so without the range check each command would run."""

    @pytest.fixture
    def inputs(self, tmp_path):
        segs, curve, squares = tmp_path / "segs.csv", tmp_path / "curve.csv", tmp_path / "fc1.json"
        split_parallel(four_corners(1).skeleton())[0].to_csv(segs)
        curve.write_text("0.0,0.03125\n1.0,0.03125\n")
        four_corners(1).to_json(squares)
        return {"segs": str(segs), "curve": str(curve), "squares": str(squares)}

    BAD = [
        (["pipeline", "{segs}", "--kappa", "0"], "argument --kappa"),
        (["pipeline", "{segs}", "--kappa", "nan"], "argument --kappa"),
        (["pipeline", "{segs}", "--kappa", "-1"], "argument --kappa"),
        (["pipeline", "{segs}", "--kappa", "1"], "argument --kappa"),
        (["extract-graph", "{segs}", "--center", "nan", "--half-width", "0.04", "--m0", "0"],
         "argument --center"),
        (["extract-graph", "{segs}", "--center", "inf", "--half-width", "0.04", "--m0", "0"],
         "argument --center"),
        (["extract-graph", "{segs}", "--center", "0.25", "--half-width", "0", "--m0", "0"],
         "argument --half-width"),
        (["extract-graph", "{segs}", "--center", "0.25", "--half-width", "0.04", "--m0", "-1"],
         "argument --m0"),
        (["content", "{squares}", "--delta", "0", "--curve", "{curve}"], "argument --delta"),
        (["content", "{squares}", "--delta", "nan", "--curve", "{curve}"], "argument --delta"),
        (["content", "{squares}", "--delta", "-1", "--curve", "{curve}"], "argument --delta"),
        (["content", "{squares}", "--delta", "inf", "--curve", "{curve}"], "argument --delta"),
        (["compute", "{squares}", "--n-angles", "0"], "argument --n-angles"),
        (["compute", "{squares}", "--mc", "0"], "argument --mc"),
        (["compute", "{squares}", "--mc", "50"], "argument --mc"),
        (["mc", "{squares}", "--needles", "50"], "argument --needles"),
        (["compute", "{squares}", "--n-angles", "1.5"], "argument --n-angles"),
        (["compute", "{squares}", "--bogus"], "unrecognized arguments"),
    ]

    @pytest.mark.parametrize("argv, error", BAD,
                             ids=["_".join(argv[:1] + argv[2:]) for argv, _ in BAD])
    def test_exits_1_before_writing(self, tmp_path, capsys, inputs, argv, error):
        out = tmp_path / "out"
        assert main(["--out", str(out), *(a.format(**inputs) for a in argv)]) == 1
        assert error in capsys.readouterr().err
        assert not out.exists()


TREE_GOLDEN = Path(__file__).parent / "golden" / "tree_check_report.json"


def _assert_matches(value, frozen, where="results"):
    """Same keys in the same order, same booleans and integers, floats at
    rel 1e-12."""
    assert type(value) is type(frozen), where
    if isinstance(frozen, dict):
        assert list(value) == list(frozen), where
        for key in frozen:
            _assert_matches(value[key], frozen[key], f"{where}.{key}")
    elif isinstance(frozen, float):
        assert math.isclose(value, frozen, rel_tol=1e-12, abs_tol=0.0), (where, value, frozen)
    else:
        assert value == frozen, where


class TestTreeCheck:
    def test_report_matches_the_golden(self, tmp_path):
        assert main(["--out", str(tmp_path), "tree-check"]) == 0
        results = json.loads((tmp_path / "tree_check_report.json").read_text())["results"]
        _assert_matches(results, json.loads(TREE_GOLDEN.read_text())["results"])

    def test_bad_chain_constants(self, tmp_path):
        assert main(["--out", str(tmp_path), "tree-check"]) == 0
        results = json.loads((tmp_path / "tree_check_report.json").read_text())["results"]
        expected = {"single_line": 0.0, "two_direction": 0.0, "cantor_horizontal": 2.76328125}
        assert list(results) == list(expected)
        for name, constant in expected.items():
            chain = results[name]["bad_chain"]
            assert chain["zero_rhs_violations"] == 0
            assert chain["max_constant"] == pytest.approx(constant, abs=1e-9)

    def test_bad_chain_violation_exits_2(self, tmp_path, monkeypatch):
        import favard.cli

        monkeypatch.setattr(favard.cli, "bad_chain_check",
                            lambda tree: {"max_constant": 0.0, "zero_rhs_violations": 1})
        assert main(["--out", str(tmp_path), "tree-check"]) == 2
        results = json.loads((tmp_path / "tree_check_report.json").read_text())["results"]
        # the tree properties hold: the exit code comes from the bad chain alone
        assert all(rep["all_pass"] for rep in results.values())
        assert all(rep["bad_chain"]["zero_rhs_violations"] == 1 for rep in results.values())


HEADER = ["command", "input", "input_hash", "config"]


class TestReportHeader:
    """Every report carries the keys of cli._header, in order: first, and
    last in the pipeline's report; a command without an input file has no
    input keys."""

    @staticmethod
    def _inputs(tmp_path):
        line = tmp_path / "line.csv"
        SegmentUnion([Segment((x, 0.0), (x + 0.05, 0.0))
                      for x in np.linspace(0, 0.9, 10)]).to_csv(line)
        half = tmp_path / "half.csv"
        split_parallel(four_corners(1).skeleton())[0].to_csv(half)
        squares = tmp_path / "fc2.json"
        four_corners(2).to_json(squares)
        curve = tmp_path / "curve.csv"
        curve.write_text("0.0,0.03125\n1.0,0.03125\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_angles": 256}))
        return line, half, squares, curve, cfg

    def test_every_report_starts_with_its_header(self, tmp_path):
        line, half, squares, curve, cfg = self._inputs(tmp_path)
        runs = {
            "compute_report": (["compute", str(squares), "--n-angles", "64"], HEADER),
            "mc_report": (["mc", str(line), "--needles", "1000"], HEADER),
            "cantor_decay_report": (["cantor-decay", "--n-max", "1"], ["command", "config"]),
            "content_report": (["content", str(squares), "--delta", str(1 / 64),
                                "--curve", str(curve)], HEADER),
            "lattice_check_report": (["lattice-check", "--instances", "2"],
                                     ["command", "config"]),
            "tree_check_report": (["tree-check"], ["command", "config"]),
            "extract_graph_report": (["extract-graph", str(line), "--center", "0.25",
                                      "--half-width", "0.04", "--m0", "0"], HEADER),
        }
        for name, (argv, keys) in runs.items():
            out = tmp_path / name
            assert main(["--config", str(cfg), "--out", str(out), *argv]) == 0
            report = json.loads((out / f"{name}.json").read_text())
            assert list(report)[:len(keys)] == keys, name
            assert report["command"] == argv[0]
            assert report["config"] == ExperimentConfig(n_angles=256).to_dict()
            if "input" in keys:
                assert report["input"] == argv[1]
        out = tmp_path / "pipeline"
        assert main(["--config", str(cfg), "--out", str(out), "pipeline", str(half),
                     "--kappa", "0.05"]) == 0
        report = json.loads((out / "pipeline_report.json").read_text())
        assert list(report)[-len(HEADER):] == HEADER
        assert list(report)[0] != "command"


class TestRerun:
    """A rerun into the same --out writes the same bytes as a fresh run."""

    @staticmethod
    def _run_both(out, line_csv):
        assert main(["--out", str(out), "tree-check"]) == 0
        assert main(["--out", str(out), "extract-graph", str(line_csv),
                     "--center", "0.25", "--half-width", "0.04", "--m0", "0"]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_rerun_is_byte_identical(self, tmp_path):
        line_csv = tmp_path / "line.csv"
        SegmentUnion([Segment((x, 0.0), (x + 0.05, 0.0))
                      for x in np.linspace(0, 0.9, 10)]).to_csv(line_csv)
        fresh = self._run_both(tmp_path / "fresh", line_csv)
        assert {"tree_check_report.json", "certificate.json", "retained_atoms.csv",
                "extract_graph_report.json"} <= set(fresh)
        out = tmp_path / "out"
        first = self._run_both(out, line_csv)
        assert self._run_both(out, line_csv) == first == fresh


class TestPipelineCLI:
    def test_root_interval_matches_the_interval_scan(self):
        # random good masks over midpoint grids, random angles, and angles on
        # the triadic bounds and one ulp below them (where int(t 3^level) is
        # one too low or one too high), with ties between equally covered
        # intervals
        rng = np.random.default_rng(23)
        for level in range(1, 7):
            bounds = np.arange(1, 3**level + 1) / 3**level
            for grid in ((np.arange(256) + 0.5) / 256, (np.arange(97) + 0.5) / 97,
                         np.sort(rng.random(60)), bounds[:-1], np.nextafter(bounds, 0)):
                for p in (0.1, 0.5, 0.9, 1.0):
                    good = rng.random(len(grid)) < p
                    good[rng.integers(len(grid))] = True
                    assert pipeline._root_interval(grid, good, level) == \
                        root_interval_by_loop(grid, good, level), (level, len(grid), p)
            # each angle whose guess is off by one, as the only good angle
            n = 3**level
            grid = np.r_[bounds[:-1], np.nextafter(bounds, 0)]
            off = [a for a, t in enumerate(grid.tolist())
                   if not int(t * n) / n <= t < (int(t * n) + 1) / n]
            assert len(off) == {5: 4, 6: 135}.get(level, 0)
            for a in off:
                good = np.arange(len(grid)) == a
                assert pipeline._root_interval(grid, good, level) == \
                    root_interval_by_loop(grid, good, level)

    def test_small_kappa_finishes(self, tmp_path):
        # the root level at kappa 1e-8 is 20: 3^20 intervals, of which the
        # 256 grid angles fill at most 256
        path = tmp_path / "segs.csv"
        split_parallel(four_corners(1).skeleton())[0].to_csv(path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_angles": 256}))
        assert main(["--config", str(cfg), "--out", str(tmp_path),
                     "pipeline", str(path), "--kappa", "1e-8"]) == 0
        root = json.loads((tmp_path / "pipeline_report.json").read_text())["root_iv"]
        assert (root["level"], root["coverage"]) == (20, 1.0)

    def test_root_level_bound_is_the_last_level_selection_resolves(self):
        # at depth D = level + 2, selection's samples sit 3^-D / 12 from a cell
        # edge, which must exceed 8 float spacings of angles below 1
        def margin(level):
            return 3.0 ** -(level + 2) / 12 / (8 * 2.0**-53)

        assert margin(pipeline.MAX_ROOT_LEVEL) > 1.0 >= margin(pipeline.MAX_ROOT_LEVEL + 1)

    @pytest.mark.parametrize("kappa,level", [("1e-16", "35.7963"), ("1e-320", "inf")])
    def test_tiny_kappa_is_a_directions_failure(self, tmp_path, capsys, kappa, level):
        # 1e-16 puts the root at level 36, where float angles cannot tell the
        # selection samples apart; at 1e-320, M = c_m / kappa is infinite
        path = tmp_path / "segs.csv"
        split_parallel(four_corners(1).skeleton())[0].to_csv(path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_angles": 256}))
        assert main(["--config", str(cfg), "--out", str(tmp_path),
                     "pipeline", str(path), "--kappa", kappa]) == 3
        err = capsys.readouterr().err
        assert f"stage directions: root level ceil(log3(A M / c_j)) = ceil({level}) passes " \
            f"{pipeline.MAX_ROOT_LEVEL}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "pipeline_report.json").exists()

    @staticmethod
    def counted_energy(monkeypatch) -> list[int]:
        """Patch the conical_energy of selection and of the stages to record
        the apex count of each call."""
        calls = []
        energy = conical.conical_energy

        def counted(mu, apexes, *args):
            calls.append(len(apexes))
            return energy(mu, apexes, *args)

        monkeypatch.setattr(conical, "conical_energy", counted)
        monkeypatch.setattr(tree, "conical_energy", counted)
        return calls

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_input_work_counts(self, tmp_path, monkeypatch, seed):
        # the benchmark's pipeline input: 135 densities, 88 reduction
        # deletions, 1 propagation round; every density's largest value is
        # far below M, so Projector.bounded never runs the maximal kernel.
        # Two energy calls: selection and the stage energies; every cover
        # member holds its atom's whole family, so the piece call is skipped
        path = tmp_path / "segs.csv"
        split_parallel(four_corners(1).skeleton())[0].to_csv(path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_angles": 1024, "atom_pitch": 1 / 128, "seed": seed}))
        counts = {"densities": 0, "maximal": 0, "deletions": 0}
        density, maximal, reduce = (projection.pushforward_density,
                                    projection.maximal_values_batch, graphs.reduce_bad_scales)
        energy_calls = self.counted_energy(monkeypatch)

        def counted_density(*args):
            counts["densities"] += 1
            return density(*args)

        def counted_maximal(*args):
            counts["maximal"] += 1
            return maximal(*args)

        def counted_reduce(points, idx, *args):
            keep = reduce(points, idx, *args)
            counts["deletions"] += len(idx) - len(keep)
            return keep

        monkeypatch.setattr(projection, "pushforward_density", counted_density)
        monkeypatch.setattr(projection, "maximal_values_batch", counted_maximal)
        monkeypatch.setattr(graphs, "reduce_bad_scales", counted_reduce)
        assert main(["--config", str(cfg), "--out", str(tmp_path),
                     "pipeline", str(path), "--kappa", "0.06"]) == 0
        report = json.loads((tmp_path / "pipeline_report.json").read_text())
        assert counts == {"densities": 135, "maximal": 0, "deletions": 88}
        assert report["propagation"]["rounds"] == 1
        assert len(energy_calls) == 2

    def test_round_two_input_runs_the_exact_kernel(self, tmp_path, monkeypatch):
        # c_m 0.3 makes M = 1.5, below the densities' largest values, so the
        # bounds leave rows open; selection keeps a proper subset E' and
        # propagation needs a second round with positive energy growth
        path = tmp_path / "segs.csv"
        split_parallel(four_corners(1).skeleton())[0].to_csv(path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_angles": 512, "atom_pitch": 1 / 64, "c_m": 0.3}))
        calls = []
        maximal = projection.maximal_values_batch

        def counted_maximal(*args):
            calls.append(len(args[1]))
            return maximal(*args)

        monkeypatch.setattr(projection, "maximal_values_batch", counted_maximal)
        energy_calls = self.counted_energy(monkeypatch)
        assert main(["--config", str(cfg), "--out", str(tmp_path),
                     "pipeline", str(path), "--kappa", "0.2"]) == 0
        report = json.loads((tmp_path / "pipeline_report.json").read_text())
        assert calls and min(calls) > 0
        # selection, then per round the stage energies and the piece call of
        # the (atom, cover member) pairs whose member holds part of the family
        assert energy_calls == [68, 68, 440, 68, 108]
        assert report["m_bound"] == pytest.approx(1.5)
        assert report["propagation"]["rounds"] == 2
        assert report["selection"]["eprime_mass_fraction"] < 1.0
        growth = report["propagation"]["trace"][1]["energy_growth_constant"]
        assert math.isfinite(growth) and growth > 0.0

    def test_witness_bound_checked(self):
        # witnesses perpendicular to the segment: mu_theta_perp is huge
        segs = SegmentUnion([Segment((0.0, 0.0), (1.0, 0.0))])
        atoms = segs.atoms(1 / 48)
        n = len(atoms)
        fams = {i: [(TriadicInterval(3, 6), 0.0)] for i in range(n)}
        with pytest.raises(ValueError, match="witness bound"):
            pipeline._check_witnesses(segs, atoms, np.ones(n, bool), fams, 8.0)

    @staticmethod
    def _spike_union():
        # at projection angle 0 the density is 6 on [0, 0.01] and 1 on
        # [0.01, 1], with no atoms; a witness angle 0.75 projects onto it
        return SegmentUnion([Segment((0, 0), (1, 0))]
                            + [Segment((0, k), (0.01, k)) for k in range(1, 6)])

    def test_witness_bound_fails_without_atoms(self):
        segs = self._spike_union()
        density = projection.Projector(segs).density(0.0)
        assert not density.atoms and density.values.max() == pytest.approx(6.0)
        atoms = segs.atoms(1 / 48)
        n = len(atoms)
        fams = {i: [(TriadicInterval(3, 20), 0.75)] for i in range(n)}
        vals = projection.Projector(segs).mu_theta(0.0, atoms.points)
        first = int(np.argmax(vals > 4.0 + 1e-12))
        with pytest.raises(ValueError, match=(
                rf"witness bound fails: witness angle 0\.75 at atom {first} has "
                rf"mu_theta_perp = {re.escape(str(vals[first]))} > M = 4\.0")):
            pipeline._check_witnesses(segs, atoms, np.ones(n, bool), fams, 4.0)

    def test_witness_groups_name_the_lowest_failing_atom(self):
        # atoms 48-52 fail at witness 0.75; atoms 0, 49 and 51 have one
        # witness and the rest a second one, so the failing angle gathers
        # both groups, and the first failing atom in index order is named
        segs = self._spike_union()
        atoms = segs.atoms(1 / 48)
        vals = projection.Projector(segs).mu_theta(0.0, atoms.points)
        assert np.flatnonzero(vals > 4.0 + 1e-12).tolist() == [48, 49, 50, 51, 52]
        fams = {i: [(TriadicInterval(3, 20), 0.75)] + [(TriadicInterval(3, 21), 0.8)] * (
            i not in (0, 49, 51)) for i in range(len(atoms))}
        with pytest.raises(ValueError, match=(
                rf"witness bound fails: witness angle 0\.75 at atom 48 has "
                rf"mu_theta_perp = {re.escape(str(vals[48]))} > M = 4\.0")):
            pipeline._check_witnesses(segs, atoms, np.ones(len(atoms), bool), fams, 4.0)

    def test_witness_bound_holds_below_the_largest_value(self, monkeypatch):
        # the largest value 6 passes M = 4, yet no witness far from the spike
        # reaches it: the exact kernel decides, and nothing raises
        segs = self._spike_union()
        atoms = segs.atoms(1 / 48)
        far = atoms.points[:, 0] > 0.5
        assert far.any() and not far.all()
        vals = projection.Projector(segs).mu_theta(0.0, atoms.points[far])
        assert vals.max() <= 4.0
        calls = []
        maximal = projection.maximal_values_batch

        def counted_maximal(*args):
            calls.append(len(args[1]))
            return maximal(*args)

        monkeypatch.setattr(projection, "maximal_values_batch", counted_maximal)
        fams = {i: [(TriadicInterval(3, 20), 0.75)] for i in range(len(atoms))}
        pipeline._check_witnesses(segs, atoms, far, fams, 4.0)
        assert calls == [int(far.sum())]

    @pytest.mark.parametrize("flag", tree.STAGE_CHECKS)
    def test_failed_stage_check_exits_2_naming_the_flag(self, tmp_path, capsys, monkeypatch,
                                                        flag):
        path = tmp_path / "segs.csv"
        split_parallel(four_corners(1).skeleton())[0].to_csv(path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_angles": 1024, "atom_pitch": 1 / 128}))
        build = tree.build_good_stages

        def failing(*args):
            stages = build(*args)
            stages.checks[flag] = False
            return stages

        monkeypatch.setattr(tree, "build_good_stages", failing)
        code = main(["--config", str(cfg), "--out", str(tmp_path),
                     "pipeline", str(path), "--kappa", "0.06"])
        assert code == 2
        assert f"stage propagation: round 1 fails the stage check {flag}" in \
            capsys.readouterr().err
        assert not (tmp_path / "pipeline_report.json").exists()

    def test_kappa_too_large_is_hypothesis_failure(self, tmp_path):
        path = tmp_path / "segs.csv"
        horiz, _ = split_parallel(four_corners(1).skeleton())
        horiz.to_csv(path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_angles": 256, "atom_pitch": 0.02}))
        code = main(["--config", str(cfg), "--out", str(tmp_path),
                     "pipeline", str(path), "--kappa", "0.9"])
        assert code == 3

    @pytest.mark.parametrize("kappa", [0.0, -1.0, 1.0, math.nan])
    def test_kappa_outside_the_unit_interval_is_rejected_first(self, kappa):
        # kappa = 0 used to reach the division M = c_m / kappa
        horiz, _ = split_parallel(four_corners(1).skeleton())
        with pytest.raises(ValueError, match=r"kappa must lie in \(0, 1\)"):
            run_pipeline(horiz, kappa, ExperimentConfig(n_angles=256))

    def test_square_set_input_runs_its_whole_skeleton(self, tmp_path):
        # a square set reports as its full skeleton does, vertical edges
        # included; selection keeps a proper subset E' with positive energy
        squares, segs = tmp_path / "fc1.json", tmp_path / "fc1.csv"
        four_corners(1).to_json(squares)
        four_corners(1).skeleton().to_csv(segs)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_angles": 512, "atom_pitch": 1 / 128}))
        reports = []
        for path in (squares, segs):
            out = tmp_path / path.suffix[1:]
            assert main(["--config", str(cfg), "--out", str(out), "pipeline", str(path),
                         "--kappa", "0.05"]) == 0
            report = json.loads((out / "pipeline_report.json").read_text())
            assert report.pop("input") == str(path)
            assert report.pop("input_hash") != ""
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["selection"]["eprime_mass_fraction"] == 0.75
        assert reports[0]["propagation"]["trace"][0]["avg_energy"] > 0.0
        assert reports[0]["certificate"]["retained_atoms"] == 184

    def test_round_two_on_the_full_skeleton(self, tmp_path):
        path = tmp_path / "fc1.json"
        four_corners(1).to_json(path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_angles": 512, "atom_pitch": 1 / 64, "c_m": 0.4}))
        assert main(["--config", str(cfg), "--out", str(tmp_path),
                     "pipeline", str(path), "--kappa", "0.1"]) == 0
        report = json.loads((tmp_path / "pipeline_report.json").read_text())
        assert report["propagation"]["rounds"] == 2
        assert report["selection"]["eprime_mass_fraction"] < 1.0
        growth = report["propagation"]["trace"][1]["energy_growth_constant"]
        assert math.isfinite(growth) and growth > 0.0

    @staticmethod
    def _stages_of(tmp_path, monkeypatch, rows, kappa):
        """Run `pipeline` on the CSV rows and return the report and what each
        call of tree.build_good_stages returned."""
        path, cfg = tmp_path / "segs.csv", tmp_path / "cfg.json"
        path.write_text(rows)
        cfg.write_text(json.dumps({"n_angles": 512, "atom_pitch": 1 / 64}))
        stages = []
        build = tree.build_good_stages

        def recorded(*args):
            stages.append(build(*args))
            return stages[-1]

        monkeypatch.setattr(tree, "build_good_stages", recorded)
        assert main(["--config", str(cfg), "--out", str(tmp_path),
                     "pipeline", str(path), "--kappa", str(kappa)]) == 0
        return json.loads((tmp_path / "pipeline_report.json").read_text()), stages

    def test_uncontrolled_atoms_leave_the_stages(self, tmp_path, monkeypatch):
        # two selected atoms carry more energy than 2 (mean energy + 1)
        report, stages = self._stages_of(tmp_path, monkeypatch, (
            "0.03904459619114076,0.03516925704015672,0.32109503755100344,0.17106669019367654\n"
            "0.7982116833145708,0.31569120494904657,0.961078270395771,0.32369037133414275\n"
            "0.8471829682397611,0.25117310727947506,0.7417008886369547,0.549655199305985\n"
            "0.02806656084266912,0.0720588260361984,0.003205531844432806,0.11568737466262807\n"
            "0.1989589667856123,0.06080751139697749,-0.2321261929947644,0.07464413239777845\n"),
            0.1)
        first = stages[0]
        assert int(first.eprime.sum()) == 69
        assert int(first.controlled.sum()) == 67
        assert sorted(first.cover) == np.nonzero(first.controlled)[0].tolist()
        assert report["propagation"]["trace"][0]["e0_mass_fraction"] == \
            pytest.approx(0.9712, abs=1e-4)

    def test_a_cover_member_over_its_energy_bound_is_dropped(self, tmp_path, monkeypatch):
        # every selected atom is controlled, but atoms 53 and 66 each have a
        # cover member whose energy exceeds 4 (H(J) / H(G_0)) times the threshold
        _, stages = self._stages_of(tmp_path, monkeypatch, (
            "0.5981476276417128,0.798966007899965,0.7496596013996946,1.4262572348986984\n"
            "0.6372753407155609,0.159662916784584,0.1690708016267875,0.4243980274610798\n"
            "0.2596796975021789,0.2082434135774447,0.2724952816384664,0.6091749738435839\n"
            "0.12140883886540121,0.7289294462666878,0.23477940019428828,0.9817579678954237\n"),
            0.2)
        first = stages[0]
        assert int(first.eprime.sum()) == 93
        assert np.array_equal(first.controlled, first.eprime)
        dropped = {i: (len(first.filtered[i]), len(first.cover[i]))
                   for i in first.cover if first.filtered[i] != first.cover[i]}
        assert dropped == {53: (3, 4), 66: (3, 4)}

    @pytest.mark.parametrize("seed", range(30))
    def test_oblique_unions_end_in_a_certificate_or_a_hypothesis_failure(self, seed):
        # random directions; a report's certificate is rechecked on atoms
        # rebuilt from the input, as the benchmark's pipeline check does, and
        # at least one of the two runs gets that far
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 9)
        start = rng.random((n, 2))
        angle = rng.random(n) * math.pi
        length = 0.05 + 0.5 * rng.random(n)
        union = SegmentUnion.from_endpoints(
            start, start + length[:, None] * np.column_stack([np.cos(angle), np.sin(angle)]))
        cfg = ExperimentConfig(n_angles=256, atom_pitch=1 / 32)
        certified = 0
        for kappa in (0.05, 0.2):
            try:
                report = run_pipeline(union, kappa, cfg)
            except ValueError:
                continue
            certified += 1
            cert = report["certificate"]
            scale = report["normalization"]["scale"]
            lo = np.array(report["normalization"]["offset"])
            norm = union.mapped(lambda pts: (pts - lo) * scale)
            root = TriadicInterval(report["root_iv"]["level"], report["root_iv"]["index"])
            ok, lip = graphs.verify_lipschitz(
                norm.atoms(cfg.atom_pitch).points[cert["retained_idx"]],
                AngleInterval(wrap(root.center - 0.25), cert["cone_half_width"]))
            assert ok and lip == cert["lip"]
            assert report["all_stage_invariants"]
        assert certified > 0

    def test_failed_postcondition_exits_2_naming_the_stage(self, tmp_path, capsys,
                                                           monkeypatch):
        import favard.pipeline

        path = tmp_path / "segs.csv"
        horiz, _ = split_parallel(four_corners(1).skeleton())
        horiz.to_csv(path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_angles": 1024, "atom_pitch": 1 / 128}))
        monkeypatch.setattr(favard.pipeline, "verify_lipschitz", lambda pts, iv: (False, 1.0))
        code = main(["--config", str(cfg), "--out", str(tmp_path),
                     "pipeline", str(path), "--kappa", "0.06"])
        assert code == 2
        assert "stage extract" in capsys.readouterr().err
        assert not (tmp_path / "pipeline_report.json").exists()

    def test_coincident_atoms_fail_at_selection(self, tmp_path, capsys, monkeypatch):
        # a repeated segment gives coincident atoms; the scale ceiling of the
        # selection stage rejects them before propagation starts
        import favard.pipeline

        path = tmp_path / "repeated.csv"
        SegmentUnion.from_endpoints([(0, 0), (0, 0), (0, 0.5)],
                                    [(1, 0), (1, 0), (1, 0.5)]).to_csv(path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_angles": 256, "atom_pitch": 1 / 64}))

        def propagate(*args, **kwargs):
            raise AssertionError("propagation reached")

        monkeypatch.setattr(favard.pipeline, "propagate_good_directions", propagate)
        code = main(["--config", str(cfg), "--out", str(tmp_path),
                     "pipeline", str(path), "--kappa", "0.06"])
        assert code == 3
        assert "coincident points have no cone-free scale range" in capsys.readouterr().err
        assert not (tmp_path / "pipeline_report.json").exists()


    def test_segments_on_either_side_of_the_half_turn_seam_run(self, tmp_path):
        # the middle segment's direction is -1.1e-16 turns, which line_angle
        # used to round to 1/2; with its end raised to y = 0.51 it is oblique,
        # and both inputs end in a certificate
        path = tmp_path / "seam.csv"
        path.write_text("0,0,0.5,0\n0.6,0.5,1,0.49999999999999994\n0,0.2,0.3,0.2\n")
        assert main(["--out", str(tmp_path), "pipeline", str(path), "--kappa", "0.3"]) == 0
        assert json.loads((tmp_path / "pipeline_report.json").read_text())[
            "certificate"]["retained_atoms"] == 193
        path.write_text("0,0,0.5,0\n0.6,0.5,1,0.51\n0,0.2,0.3,0.2\n")
        assert main(["--out", str(tmp_path), "pipeline", str(path), "--kappa", "0.3"]) == 0
        cert = json.loads((tmp_path / "pipeline_report.json").read_text())["certificate"]
        assert cert["retained_atoms"] == 193
        assert cert["lip"] == pytest.approx(3.998, abs=1e-3)


class TestEntryPoint:
    def test_module_invocation(self, unit_segment_csv, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "favard.cli", "--out", str(tmp_path),
             "compute", unit_segment_csv, "--n-angles", "256"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "favard" in proc.stdout
