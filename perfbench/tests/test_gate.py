import numpy as np
import pytest

import gate
import run
import workloads
from minisplit import bench, problems
from minisplit.oracles import CallCounter, ForwardOracle, ProblemSpec
from minisplit.problems import ToyProblemConfig


def _nan_after(problem, calls):
    """Copy of ``problem`` whose first forward oracle returns NaN after ``calls`` calls."""
    first = problem.forwards[0]
    seen = []

    def evaluate(x):
        seen.append(1)
        out = first.evaluate(x)
        return out * np.nan if len(seen) > calls else out

    forwards = (ForwardOracle(evaluate, first.beta, first.descriptor),) + problem.forwards[1:]
    return ProblemSpec(problem.resolvents, forwards, problem.dimension,
                       problem.objective, problem.label)


def test_nan_forward_fails_the_gate_whatever_termination_says():
    problem = problems.gen_toy_problem(ToyProblemConfig(n=2, m=3, seed=3))
    method = bench.method_for_problem("sfb+", problem, design_seed=3)
    report, _, violations = gate.checked_execute(bench.execute, method, _nan_after(problem, 5), 50,
                                                 stop=0.0, rel_stop=0.0, record_objective=True)
    # the engine runs on to max_iters here; the gate must not take that as success
    assert any("not finite" in v for v in violations), report.termination


def test_nan_forward_counts_in_fail_rate(monkeypatch):
    workload = workloads.ToySfb(seed=5)
    workload.cases = workload.cases[:1]
    workload.prepare()
    generate = problems.gen_toy_problem
    monkeypatch.setattr(problems, "gen_toy_problem", lambda cfg: _nan_after(generate(cfg), 5))
    records = run.measure(workload, seconds=0)
    assert len(records) == 1
    assert records[0]["violations"]
    assert run.solver_metrics(records)["fail_rate"]["value"] == 1.0


def test_frugality_violations_name_the_oracle():
    counters = [CallCounter(lambda: None) for _ in range(3)]
    for _ in range(4):
        for c in counters:
            c()
    counters[1]()
    bad = gate.frugality_violations(counters, [0, 0, 0], 4)
    assert bad == ["oracle 1 ran 5 times in 4 iterations"]


def test_toy_reference_matches_a_long_library_run():
    cfg = ToyProblemConfig(n=5, m=5, seed=2)
    x_ref, f_ref = gate.toy_reference(cfg)
    problem = problems.gen_toy_problem(cfg)
    method = bench.method_for_problem("sfb+", problem, design_seed=2)
    long_run = bench.execute(method, problem, 5000, stop=0.0, rel_stop=1e-13, record_objective=False)
    assert problem.objective(long_run.consensus) == pytest.approx(f_ref, rel=1e-12)
    assert np.linalg.norm(long_run.consensus - x_ref) < 1e-7
