"""The paper's routing heuristic on its own: with the coupling, slack, schedule
and beta of sfb+ held fixed, the norm-minimizing routing pair reaches a small
objective gap no later than random causal routing pairs.

A probe on toy (homogeneous) seeds 3-12 saw the optimized pair beat three
random draws per seed in 30 of 30. The held-out seeds 19-24, the three draws
per seed and the bound (at least 17 of the 18 comparisons won) were fixed
before any of these seeds was run.
"""

from minisplit.bench import (
    iterations_to_threshold,
    method_for_problem,
    metric_series,
    reference_solution,
)
from minisplit.engine import run
from minisplit.params import assemble
from minisplit.problems import ToyProblemConfig, gen_toy_problem
from minisplit.schedule import random_causal_pair

SEEDS = range(19, 25)
DRAWS = 3
THRESHOLD = 1e-8


def _hit(params, problem, iters, f_ref, x_ref):
    report = run(params, problem, max_iters=iters, rel_stop=0.0)
    return iterations_to_threshold(metric_series(report, "objective", f_ref, x_ref), THRESHOLD)


def test_optimized_routing_beats_random_routing():
    wins = 0
    for seed in SEEDS:
        problem = gen_toy_problem(ToyProblemConfig(seed=seed))
        f_ref, x_ref = reference_solution(problem, design_seed=seed)
        params = method_for_problem("sfb+", problem, design_seed=seed).params
        k = _hit(params, problem, 1000, f_ref, x_ref)
        if k is None:
            continue
        for draw in range(DRAWS):
            pair = random_causal_pair(params.n, params.m, params.causal.F, seed=1000 * seed + draw)
            other = assemble(params.M, None, pair, params.beta, params.theta)
            # capped at the optimized pair's hit, as in criteria 7 and 8: the
            # random pair wins only by reaching the threshold no later
            wins += _hit(other, problem, k, f_ref, x_ref) is None
    assert wins >= len(SEEDS) * DRAWS - 1, wins
