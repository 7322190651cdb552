import ast
import csv
import json
from pathlib import Path

import numpy as np

from favard.cli import main
from favard.conical import conical_energy, select_good_directions, write_energy_csv
from favard.fixtures import single_line_instance, stages_for
from favard.lattice import cubes_to_json, descend
from favard.sets import DiscreteMeasure, Segment, SegmentUnion
from favard.torus import AngleInterval, TriadicInterval
from favard.tree import TreeParams, build_tree


def test_energy_csv(tmp_path):
    mu = DiscreteMeasure(np.array([[0.3, 0.0], [0.1, 0.05]]), np.array([1.0, 0.5]))
    prof = conical_energy(mu, (0, 0), AngleInterval(0.0, 0.1), 0.5, 0, 4)
    path = tmp_path / "energy.csv"
    write_energy_csv(path, [((0.0, 0.0), prof)])
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert {r["k"] for r in rows} == {"0", "1", "2", "3", "4"}


def test_selection_json(tmp_path):
    u = SegmentUnion([Segment((0, 0), (1, 0))])
    res = select_good_directions(u, AngleInterval(0.0, 0.02), kappa=0.5,
                                 triadic_depth=4, samples_per_length=800)
    path = tmp_path / "selection.json"
    res.to_json(path)
    data = json.loads(path.read_text())
    assert data["kappa"] == 0.5
    first = next(iter(data["atoms"].values()))
    assert first["intervals"][0]["level"] == 4


def test_lattice_dump(tmp_path):
    pts = np.random.default_rng(0).random((40, 2))
    j = TriadicInterval(1, 0)
    cubes = descend(pts, np.arange(40), j, 0, j, 0)
    path = tmp_path / "cubes.json"
    cubes_to_json(path, cubes, pts)
    data = json.loads(path.read_text())
    assert len(data) == len(cubes)
    assert sum(len(c["atom_ids"]) for c in data) == 40
    assert data[0]["interval"]["kind"] == "triadic"


def test_tree_dump(tmp_path):
    params = TreeParams(k_max=2, triadic_depth=2)
    stages = stages_for(*single_line_instance(pitch=1 / 64)[1:], params=params)
    tree = build_tree(stages, params)
    path = tmp_path / "tree.json"
    tree.to_json(path)
    data = json.loads(path.read_text())
    assert len(data) == len(tree.nodes)
    tags = {row["tag"] for row in data}
    assert "root0" in tags


def test_compute_per_angle(tmp_path):
    path = tmp_path / "unit.csv"
    SegmentUnion([Segment((0, 0), (1, 0))]).to_csv(path)
    code = main(["--out", str(tmp_path), "compute", str(path),
                 "--n-angles", "64", "--per-angle"])
    assert code == 0
    rows = json.loads((tmp_path / "projection_measures.json").read_text())
    assert len(rows) == 64
    assert all(set(r) == {"theta", "measure"} for r in rows)


ROOT = Path(__file__).resolve().parents[1]


def _references(tree: ast.AST) -> set[str]:
    """Names a module uses: loads, attribute accesses and imported names."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _public_definitions(path: Path):
    """(label, name) of each public module-level function and class, and of
    each public method and property of those classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.name}: {node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.name}: {node.name}.{item.name}", item.name


def test_every_public_symbol_is_used():
    """Every public function, class, method and property of the package is
    used somewhere in the source, the tests or the benchmark, besides its own
    definition (a definition is not a reference in the AST)."""
    used: set[str] = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= _references(ast.parse(path.read_text(encoding="utf-8")))
    defined = [d for path in sorted((ROOT / "src" / "favard").glob("*.py"))
               for d in _public_definitions(path)]
    assert ("sets.py: DiscreteMeasure.restrict", "restrict") in defined
    unused = sorted(label for label, name in defined if name not in used)
    assert unused == []
