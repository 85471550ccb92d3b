"""The benchmark's traced run (``perfbench/run.py --trace 1``) swaps library
bindings by name; a renamed or moved function must fail here, not only there."""

import importlib
import os

from minisplit import bench
from minisplit.problems import ToyProblemConfig, gen_toy_problem

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_layer_trace_binds_and_records_one_execute(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spans = importlib.import_module("spans")
    trace = spans.LayerTrace()
    with spans.patched(trace.bindings()):
        problem = bench.gen_toy_problem(ToyProblemConfig(n=3, d=4, p=6, m=2, seed=0))
        desc = bench.method_for_problem("sfb+", problem)
        bench.execute(desc, problem, 3, rel_stop=0.0)
    assert bench.gen_toy_problem is gen_toy_problem  # bindings restored
    assert [(iters, calls) for _, iters, calls in trace.executes] == [(3, 5)]
    metrics = trace.metrics()
    assert metrics["engine.iterations"]["value"] == 3
    assert metrics["oracles.frugality"]["value"] == 1.0
    calls = {name: count for name, (count, _, _) in spans.layer_totals(trace.recorder).items()}
    assert calls["params.validate_params"] == 1
    assert calls["heuristics.optimize_routing"] == 1
