"""Self-checks of the benchmark's tracer.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's default test collection: the
count check runs every workload traced, twice.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# work counts that must repeat exactly between traced runs of one seed
COUNT_KEYS = ("calls", "distinct_theta", "deletions", "nodes", "shatters", "rounds",
              "cubes", "points", "needles")


def test_install_rebinds_every_reference_and_remove_restores_it():
    originals = tracing.traced_functions()
    before = {(m.__name__, attr): obj for m in tracing.package_modules()
              for attr, obj in vars(m).items() if inspect.isfunction(obj)}
    # names bound by `from .x import f` outside the defining module exist
    assert any(obj in originals and obj.__module__ != mod
               for (mod, _), obj in before.items())
    tracer = tracing.Tracer()
    with tracer:
        assert tracing.unwrapped_bindings(originals) == []
        wrapped = [(m.__name__, attr) for m in tracing.package_modules()
                   for attr, obj in vars(m).items()
                   if getattr(obj, "__wrapped__", None) in originals]
        assert sorted(wrapped) == sorted(k for k, obj in before.items() if obj in originals)
    after = {(m.__name__, attr): obj for m in tracing.package_modules()
             for attr, obj in vars(m).items() if inspect.isfunction(obj)}
    assert after == before
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_self_time_excludes_children():
    from favard.graphs import extract_graph
    from favard.torus import AngleInterval
    import numpy as np

    pts = np.column_stack([np.linspace(0, 0.6, 12), np.zeros(12)])
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer:
        import favard.graphs
        favard.graphs.extract_graph(pts, AngleInterval(0.25, 0.05), 1)
    assert favard.graphs.extract_graph is extract_graph
    names = [s[1] for s in tracer.spans]
    assert names.count("graphs.extract_graph") == 1
    root = next(s for s in tracer.spans if s[1] == "graphs.extract_graph")
    kids = [s for s in tracer.spans if s[4] == root[0]]
    assert {s[1] for s in kids} >= {"graphs.reduce_bad_scales", "graphs.verify_lipschitz"}
    stats = tracing.summary(tracer.spans, {0: root[3] - root[2]}, root[6])
    ex = stats["graphs.extract_graph"]
    assert 0.0 <= ex["self_s"] <= ex["busy_s"]
    assert ex["busy_s"] - ex["self_s"] == pytest.approx(sum(s[3] - s[2] for s in kids))
    assert stats["cli"]["self_s"] == pytest.approx(0.0, abs=1e-12)


def _counts(values: dict) -> dict:
    return {k: v for k, v in values.items() if k.rsplit(".", 1)[-1] in COUNT_KEYS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(workload, tmp_path):
    ops = workloads.prepare(workload, 0, tmp_path / "inputs")
    first, failed_first = run.traced_pass(ops, tmp_path / "first.jsonl")
    second, failed_second = run.traced_pass(ops, tmp_path / "second.jsonl")
    assert failed_first == failed_second == 0
    assert _counts(first) and _counts(first) == _counts(second)
