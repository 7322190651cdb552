"""Span tracer that wraps the library's public functions from outside.

`Tracer.install()` replaces every public function defined in the traced
layer modules with a wrapper that records one span per call: name, start,
end, parent span, op id and thread. Modules that bound the function at
import time (``from .projection import pushforward_density``) hold their
own reference, so every ``favard.*`` module attribute that *is* the
original function object gets the wrapper, not just the defining module's.
`Tracer.remove()` restores every binding it replaced. Spans stay in memory
until `dump()` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "favard"
LAYERS = ("projection", "conical", "tree", "lattice", "graphs")


# Work counts taken from a traced call's bound arguments and result, keyed
# by span name. Each returns a dict of numbers that `summary` sums per span
# name; a "theta" entry is collected as a set instead (distinct angles).
EXTRACTORS = {
    "projection.pushforward_density": lambda a, res: {"theta": float(a["theta"])},
    "projection.maximal_values_batch": lambda a, res: {"points": len(a["ts"])},
    "projection.favard_mc": lambda a, res: {"needles": int(a["needle_count"])},
    "tree.propagate_good_directions": lambda a, res: {"rounds": res.rounds},
    "tree.build_tree": lambda a, res: {
        "nodes": len(res.nodes), "shatters": sum(s.kind == "sh" for s in res.stopped)},
    "lattice.descend": lambda a, res: {"cubes": len(res)},
    "graphs.reduce_bad_scales": lambda a, res: {"deletions": len(a["idx"]) - len(res)},
}


def package_modules() -> list:
    """Import and return every module of the package, so that no module can
    bind a traced function after the wrappers are installed."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def traced_functions() -> dict:
    """Map each public function defined in a layer module to its span name."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out[obj] = f"{layer}.{attr}"
    return out


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []     # (id, name, start, end, parent, op, thread, info)
        self.op = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, fn, name: str):
        extract = EXTRACTORS.get(name)
        bind = inspect.signature(fn).bind
        spans, local, lock = self.spans, self._local, self._lock
        clock, thread_id = time.perf_counter, threading.get_ident

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                sid = len(spans)
                spans.append(None)
            parent = stack[-1] if stack else None
            op = self.op
            stack.append(sid)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (sid, name, start, clock(), parent, op, thread_id(), None)
                raise
            finally:
                stack.pop()
            end = clock()
            info = None if extract is None else extract(bind(*args, **kwargs).arguments, res)
            spans[sid] = (sid, name, start, end, parent, op, thread_id(), info)
            return res

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        wrappers = {fn: self._wrap(fn, name) for fn, name in traced_functions().items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def remove(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "name", "start", "end", "parent", "op", "thread", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def unwrapped_bindings(originals) -> list[str]:
    """`module.attribute` names in the package that are bound to one of
    `originals` (the identity scan behind the tracer self-checks)."""
    targets = set(originals)
    return [f"{mod.__name__}.{attr}" for mod in package_modules()
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in targets]


def summary(spans, op_walls: dict, thread: int) -> dict:
    """Per-name totals over the spans, and the op time no span covers.

    For each span name: calls, busy_s (time inside the outermost call of that
    name), self_s (duration minus the time child spans cover) and the summed
    work counts. `op_walls` maps op id to its wall time; `cli.self_s` is the
    part of that time that no root span on `thread`, the thread that ran the
    ops, covers.
    """
    child_s = defaultdict(float)
    for sid, name, start, end, parent, op, tid, info in spans:
        if parent is not None:
            child_s[parent] += end - start
    stats: dict = defaultdict(lambda: defaultdict(float))
    thetas: dict = defaultdict(set)
    root_s = defaultdict(float)
    for sid, name, start, end, parent, op, tid, info in spans:
        st = stats[name]
        dur = end - start
        st["calls"] += 1
        st["self_s"] += dur - child_s[sid]
        anc = parent
        while anc is not None and spans[anc][1] != name:
            anc = spans[anc][4]
        if anc is None:
            st["busy_s"] += dur
        for key, val in (info or {}).items():
            if key == "theta":
                thetas[name].add(val)
            else:
                st[key] += val
        if parent is None and tid == thread:
            root_s[op] += dur
    for name, seen in thetas.items():
        stats[name]["distinct_theta"] = len(seen)
    out = {name: dict(st) for name, st in stats.items()}
    out["cli"] = {"self_s": sum(wall - root_s[op] for op, wall in op_walls.items())}
    return out
