import ast
import json
from pathlib import Path

from favard.cli import main
from favard.config import ExperimentConfig
from favard.fixtures import single_line_instance, stages_for
from favard.sets import Segment, SegmentUnion
from favard.tree import build_tree


def test_tree_dump(tmp_path):
    params = ExperimentConfig(k_max=2, triadic_depth=2)
    stages = stages_for(*single_line_instance(pitch=1 / 64)[1:], params=params)
    tree = build_tree(stages)
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _bound_names(scope: ast.AST) -> set[str]:
    """The names a function or comprehension binds in its own scope: its
    parameters or loop targets and every name its body assigns, defines or
    imports, less those it declares global or nonlocal."""
    if isinstance(scope, _FUNCTIONS):
        args = scope.args
        bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        bound |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
        todo = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        bound, todo = set(), [g.target for g in scope.generators]
    declared: set[str] = set()
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue                                 # a nested scope binds its own names
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if not isinstance(node, _FUNCTIONS + _COMPREHENSIONS) or node is scope:
            todo.extend(ast.iter_child_nodes(node))
    return bound - declared


def _references(tree: ast.AST, attributes: bool = True) -> set[str]:
    """Names a module uses: loads, imported names and, with `attributes`,
    attribute accesses. A load of a name that an enclosing function or
    comprehension binds (a parameter, an assigned local, a loop target) is
    that local, not a use of a module-level definition."""
    out: set[str] = set()

    def visit(node: ast.AST, local: set[str]) -> None:
        if isinstance(node, _FUNCTIONS):
            # decorators, defaults and annotations belong to the enclosing scope
            for outer in (*getattr(node, "decorator_list", ()), node.args,
                          getattr(node, "returns", None)):
                if outer is not None:
                    visit(outer, local)
            inner = local | _bound_names(node)
            for child in node.body if isinstance(node.body, list) else [node.body]:
                visit(child, inner)
            return
        if isinstance(node, _COMPREHENSIONS):
            local = local | _bound_names(node)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                out.add(node.id)
        elif isinstance(node, ast.Attribute) and attributes:
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, set())
    return out


def _source_trees(folders=("src", "tests", "perfbench")):
    """The parsed modules of `folders`: the source, the tests and the benchmark."""
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"))


def _public_definitions():
    """(label, node, is_method) of each public module-level function and class
    of the package, and of each public method and property of those classes."""
    for path in sorted((ROOT / "src" / "favard").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.name}: {node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.name}: {node.name}.{item.name}", item, True


def test_every_public_symbol_is_used():
    """Every public function, class, method and property of the package is
    used somewhere in the source or the benchmark, besides its own
    definition (a definition is not a reference in the AST). Code only the
    tests use lives in tests/reference.py."""
    used = set().union(*(_references(tree) for tree in _source_trees(("src", "perfbench"))))
    defined = [(label, node.name) for label, node, _ in _public_definitions()]
    assert ("tree.py: DirectionTree.goodness_integral", "goodness_integral") in defined
    unused = sorted(label for label, name in defined if name not in used)
    assert unused == []


def _top_level_definitions():
    """(label, name, node) of each module-level function, class and assigned
    name of the package."""
    for path in sorted((ROOT / "src" / "favard").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                yield f"{path.name}: {name}", name, node


# definitions no command needs to reach: package metadata
UNREACHED_BY_DESIGN = ["__init__.py: __version__"]


def test_every_definition_is_reached_from_the_cli():
    """Every module-level definition of the package is reached from
    `cli.main` through the names the reached definitions load or import. A
    name reaches every definition that carries it, in any module; attribute
    names do not count, so a method or field named `f` does not keep a dead
    module-level `f` alive. Code only the tests need lives in
    tests/reference.py."""
    by_name: dict[str, list] = {}
    for label, name, node in _top_level_definitions():
        by_name.setdefault(name, []).append((label, node))
    assert [label for label, _ in by_name["main"]] == ["cli.py: main"]
    reached: set[str] = set()
    todo = ["main"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for _, node in by_name.get(name, ()):
                todo.extend(_references(node, attributes=False) - reached)
    unreached = sorted(label for name, defs in by_name.items() if name not in reached
                       for label, _ in defs)
    assert unreached == UNREACHED_BY_DESIGN


def _defaulted_parameters(func: ast.FunctionDef, is_method: bool):
    """(name, position) of each parameter with a default; the position is
    that of the call's positional arguments, so a method's self or cls does
    not count (None for keyword-only parameters)."""
    args = func.args
    positional = args.posonlyargs + args.args
    for pos in range(len(positional) - len(args.defaults), len(positional)):
        yield positional[pos].arg, pos - is_method
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _call_forms(folders) -> dict[str, list[tuple[int, set, bool]]]:
    """Per called name (a plain name or the attribute of a call), the form of
    each call in `folders`: its positional argument count, its keyword names
    (None for **kwargs), and whether it unpacks *args."""
    calls: dict[str, list[tuple[int, set, bool]]] = {}
    for tree in _source_trees(folders):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append(
                (len(node.args), {kw.arg for kw in node.keywords}, starred))
    return calls


def test_every_keyword_is_passed():
    """Every defaulted parameter of a public function or method is passed by
    some call in the source, the tests or the benchmark: by keyword, or
    positionally at or past its position. A call with *args passes all
    of them. A default nothing overrides is a constant, not a knob."""
    calls = _call_forms(("src", "tests", "perfbench"))
    never = []
    for label, func, is_method in _public_definitions():
        if not isinstance(func, ast.FunctionDef):
            continue
        for param, pos in _defaulted_parameters(func, is_method):
            if not any(starred or param in kws or (pos is not None and n_pos > pos)
                       for n_pos, kws, starred in calls.get(func.name, [])):
                never.append(f"{label}({param})")
    assert never == []


def test_only_sets_knows_the_segment_format():
    """No module of the package but sets.py names `Segment` or reads
    `.segments`: the others use the endpoint array of SegmentUnion."""
    leaks = []
    for path in sorted((ROOT / "src" / "favard").glob("*.py")):
        if path.name == "sets.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id == "Segment" \
                    or isinstance(node, ast.ImportFrom) and any(
                        alias.name == "Segment" for alias in node.names) \
                    or isinstance(node, ast.Attribute) and node.attr == "segments":
                leaks.append(f"{path.name}:{node.lineno}")
    assert leaks == []


def test_only_conical_names_the_scale_rule():
    """No module of the package but conical.py names `scale_index`: the
    others get their scales from conical's kernel, so a second annulus rule
    fails here."""
    leaks = []
    for path in sorted((ROOT / "src" / "favard").glob("*.py")):
        if path.name == "conical.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id == "scale_index" \
                    or isinstance(node, ast.Attribute) and node.attr == "scale_index" \
                    or isinstance(node, ast.ImportFrom) and any(
                        alias.name == "scale_index" for alias in node.names):
                leaks.append(f"{path.name}:{node.lineno}")
    assert leaks == []


def _calls_in_loops(tree: ast.AST, name: str) -> list[int]:
    """Lines of the calls of `name` that run once per iteration: in the body
    of a for loop, in the test or body of a while loop, and anywhere in a
    comprehension but the iterable of its first generator."""
    lines: list[int] = []

    def visit(node: ast.AST, looped: bool) -> None:
        if looped and isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            lines.append(node.lineno)
        once, repeated = list(ast.iter_child_nodes(node)), []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            once, repeated = [node.target, node.iter, *node.orelse], node.body
        elif isinstance(node, ast.While):
            once, repeated = node.orelse, [node.test, *node.body]
        elif isinstance(node, _COMPREHENSIONS):
            first = node.generators[0]
            once = [first.iter]
            repeated = [first.target, *first.ifs] + [
                child for child in ast.iter_child_nodes(node) if child is not first]
        for child in once:
            visit(child, looped)
        for child in repeated:
            visit(child, True)

    visit(tree, False)
    return lines


def test_no_energy_call_in_a_loop():
    """No module of the package calls conical_energy once per iteration of a
    loop or a comprehension: each call site hands the blocked kernel all of
    its apexes at once."""
    looped = []
    for path in sorted((ROOT / "src" / "favard").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        looped += [f"{path.name}:{line}"
                   for line in _calls_in_loops(tree, "conical_energy")]
    assert looped == []


def test_tree_and_lattice_import_nothing_from_projection():
    """tree.py and lattice.py work on cubes and interval families alone: no
    import of theirs reaches the projection layer, whose witness check of
    propagation runs in the pipeline."""
    leaks = []
    for name in ("tree.py", "lattice.py"):
        for node in ast.walk(ast.parse((ROOT / "src" / "favard" / name).read_text(
                encoding="utf-8"))):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                [node.module or "", *(a.name for a in node.names)] \
                if isinstance(node, ast.ImportFrom) else []
            if any(module.split(".")[-1] == "projection" for module in modules):
                leaks.append(f"{name}:{node.lineno}")
    assert leaks == []


# the console entry point: a default of its own, for a call from the shell
ENTRY_POINTS = ["cli.py: main"]


def test_every_default_is_used():
    """Every defaulted parameter of a function or method of the package is
    left out by some call in the source or the benchmark, resolved by name:
    a call that passes no *args or **kwargs, does not name it and passes
    fewer positional arguments than its position. A default that every
    caller overrides is a second home for a value the callers hold."""
    calls = _call_forms(("src", "perfbench"))
    unused = []
    for path in sorted((ROOT / "src" / "favard").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {item for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef) \
                    or f"{path.name}: {func.name}" in ENTRY_POINTS:
                continue
            for param, pos in _defaulted_parameters(func, func in methods):
                if not any(not starred and not {None, param} & kws
                           and (pos is None or n_pos <= pos)
                           for n_pos, kws, starred in calls.get(func.name, [])):
                    unused.append(f"{path.name}: {func.name}({param})")
    assert unused == []


INTERVAL_TYPES = {"AngleInterval", "TriadicInterval", "DirectionInterval"}


def test_no_isinstance_on_an_interval_type():
    """No module of the package switches on the interval type: both interval
    types carry the attributes every caller reads, and a list of intervals
    is the one form of a direction set."""
    switches = []
    for path in sorted((ROOT / "src" / "favard").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" \
                    and len(node.args) == 2 and any(
                        getattr(n, "id", getattr(n, "attr", None)) in INTERVAL_TYPES
                        for n in ast.walk(node.args[1])):
                switches.append(f"{path.name}:{node.lineno}")
    assert switches == []


def test_only_the_header_stamps_a_report():
    """In cli.py only `_header` calls content_hash or ExperimentConfig.to_dict:
    every report takes its command, input, input hash and config from it."""
    stamps = []
    for node in ast.parse((ROOT / "src" / "favard" / "cli.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name == "_header":
            continue
        stamps += [f"cli.py:{call.lineno}" for call in ast.walk(node)
                   if isinstance(call, ast.Call) and {"content_hash", "to_dict"} & {
                       getattr(call.func, "id", None), getattr(call.func, "attr", None)}]
    assert stamps == []


def test_only_torus_names_a_tile():
    """No module of the package but torus.py defines a module-level name
    containing TILE: torus.row_blocks is the one blocking rule of the pairwise
    kernels, and a second tile size fails here."""
    tiles = sorted(label for label, name, _ in _top_level_definitions()
                   if "TILE" in name and not label.startswith("torus.py:"))
    assert tiles == []


def _weights_list(node: ast.AST) -> bool:
    """Whether `node` is `<x>.weights.tolist()` or `<x>.weights[...].tolist()`."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "tolist"):
        return False
    owner = node.func.value
    if isinstance(owner, ast.Subscript):
        owner = owner.value
    return isinstance(owner, ast.Attribute) and owner.attr == "weights"


def test_only_the_measure_sums_its_weights():
    """No module of the package but DiscreteMeasure takes math.fsum over a
    list of its weights, whole or selected: a mass is DiscreteMeasure.mass.
    A weighted sum (weights times another factor) is not a mass."""
    sums = []
    for path in sorted((ROOT / "src" / "favard").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = {id(n) for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "DiscreteMeasure" for n in ast.walk(node)}
        sums += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                 if id(node) not in skip and isinstance(node, ast.Call)
                 and getattr(node.func, "attr", getattr(node.func, "id", None)) == "fsum"
                 and any(_weights_list(arg) for arg in node.args)]
    assert sums == []
