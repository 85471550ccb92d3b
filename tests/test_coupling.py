"""The paper's coupling heuristic on its own: with the routing, slack and
schedule of sfb+ held fixed, coupling through the complete graph reaches a
small objective gap in fewer iterations than coupling through the ring or the
path graph.

On toy (homogeneous) seeds 3-12 the complete graph hit 1e-8 first against
both in 10 of 10. Seeds, budget and bound were fixed before the held-out
seeds 13-18 were run; there it won 6 of 6 against each.
"""

from minisplit.bench import (
    iterations_to_threshold,
    method_for_problem,
    metric_series,
    reference_solution,
)
from minisplit.engine import run
from minisplit.graphs import graph_laplacian, path_graph, ring_graph
from minisplit.params import assemble, factor_laplacian
from minisplit.problems import ToyProblemConfig, gen_toy_problem

SEEDS = range(13, 19)
THRESHOLD = 1e-8


def _hit(params, problem, iters, f_ref, x_ref):
    report = run(params, problem, max_iters=iters, rel_stop=0.0)
    return iterations_to_threshold(metric_series(report, "objective", f_ref, x_ref), THRESHOLD)


def test_complete_coupling_beats_ring_and_path():
    wins = {"ring": 0, "path": 0}
    for seed in SEEDS:
        problem = gen_toy_problem(ToyProblemConfig(seed=seed))
        f_ref, x_ref = reference_solution(problem, design_seed=seed)
        params = method_for_problem("sfb+", problem, design_seed=seed).params
        k = _hit(params, problem, 1000, f_ref, x_ref)
        if k is None:
            continue
        for name, graph in (("ring", ring_graph), ("path", path_graph)):
            other = assemble(factor_laplacian(graph_laplacian(graph(problem.n))), None,
                             params.causal, params.beta, params.theta)
            # capped at the complete graph's hit, as in criteria 7 and 8: the
            # other coupling wins only by reaching the threshold no later
            wins[name] += _hit(other, problem, k, f_ref, x_ref) is None
    assert min(wins.values()) >= len(SEEDS) - 1, wins
