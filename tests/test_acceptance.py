"""Acceptance gate: every numbered criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per
criterion. The trend criteria (7, 8) and the Monte Carlo contraction check
(3) are the slow ones; the whole module takes a few minutes.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from helpers import (
    params_for_problem,
    random_affine_problem,
    random_params,
    three_operator_trajectory,
)
from minisplit.bench import (
    execute,
    iterations_to_threshold,
    method_for_problem,
    metric_series,
    reference_solution,
)
from minisplit.engine import run, run_lifted, split_step
from minisplit.errors import StepSizeViolationError
from minisplit.heuristics import optimize_routing
from minisplit.oracles import counting_problem
from minisplit.params import from_components, validate_params
from minisplit.presets import davis_yin_params
from minisplit.problems import ToyProblemConfig, gen_toy_problem
from minisplit.schedule import CausalPair, random_causal_pair, random_schedule


def _verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_two_resolvent_equivalence():
    rng = np.random.default_rng(14)
    d, gamma, beta, theta_bar, theta = 10, 1.0, 2.0, 0.9, 0.9
    problem = random_affine_problem(rng, 2, 1, d, beta=np.array([beta]))
    desc = davis_yin_params(gamma, theta_bar, beta_total=beta, theta=theta)

    z = rng.standard_normal((1, d))
    lam = np.sqrt(theta_bar / gamma)
    t0 = time.perf_counter()
    xs, zs = three_operator_trajectory(problem, gamma, theta * theta_bar, gamma * lam * z[0], 200)
    dev = 0.0
    zc = z
    for k in range(200):
        zc, x, _ = split_step(desc.params, problem, zc)
        dev = max(dev, float(np.max(np.abs(x - xs[k]))))
        dev = max(dev, float(np.max(np.abs(gamma * lam * zc[0] - zs[k]))))
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        dev <= 1e-9 and elapsed < 1.0,
        f"two-resolvent trajectory deviation {dev:.2e} (<=1e-9) in {elapsed:.2f}s (<1s)",
    )


def test_criterion_2_matrix_inequality_boundary():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(2000 + trial)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(0, 7))
        params = random_params(2000 + trial, n=n, m=m)  # slack-free by default
        report = validate_params(params)
        assert report.passed
        worst = max(worst, abs(report.lmi_min_eigenvalue))
    boundary_ok = worst <= 1e-8

    # the maximal step size with any positive relaxation must fail
    beta, gamma, theta_bar = 1.0, 4.0, 1e-6
    lam = np.sqrt(theta_bar / gamma)
    pair = CausalPair(np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]), np.array([0, 1]))
    bad = from_components(
        lam * np.array([[1.0], [-1.0]]),
        (2.0 / gamma) * np.array([[1.0, -1.0], [-1.0, 1.0]]),
        pair,
        np.array([beta]),
        0.9,
    )
    bad_report = validate_params(bad)
    rejects = not bad_report.contraction_ok and bad_report.lmi_min_eigenvalue < 0
    try:
        davis_yin_params(gamma, theta_bar, beta)
        raises = False
    except StepSizeViolationError:
        raises = True
    _verdict(
        2,
        boundary_ok and rejects and raises,
        f"slack-free bundles sit on the inequality boundary (|min eig| <= {worst:.2e}); "
        f"oversized step rejected (min eig {bad_report.lmi_min_eigenvalue:.2e})",
    )


def test_criterion_3_monte_carlo_contraction():
    d = 4
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(3000 + trial)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(0, 7))
        params = random_params(3000 + trial, n=n, m=m,
                               slack_norm=0.5 if trial % 3 == 0 else 0.0)
        assert validate_params(params).passed
        problem = random_affine_problem(rng, n, m, d, beta=params.beta)
        for _ in range(1000):
            za = rng.standard_normal((n - 1, d))
            zb = rng.standard_normal((n - 1, d))
            ta, _, _ = split_step(params, problem, za)
            tb, _, _ = split_step(params, problem, zb)
            ratio = float(np.linalg.norm(ta - tb) / np.linalg.norm(za - zb))
            worst = max(worst, ratio)
    _verdict(3, worst <= 1.0 + 1e-9, f"max displacement ratio {worst:.12f} (<= 1 + 1e-9)")


def test_criterion_4_routing_products_exactly_causal():
    ok = True
    for trial in range(100):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, 7))
        f = random_schedule(n, m, 4000 + trial)
        pair = random_causal_pair(n, m, f, seed=4000 + trial)
        diag = np.diag(rng.uniform(0.0, 5.0, m))
        prod = pair.H @ diag @ pair.K
        ok = ok and bool(np.all(np.triu(prod) == 0.0))
    _verdict(4, ok, "H diag(c) K is strictly lower triangular with exact zeros (100 pairs)")


def test_criterion_5_toy_convergence_and_encoding():
    cfg = ToyProblemConfig(n=5, d=20, p=30, m=5, seed=42)
    problem = gen_toy_problem(cfg)
    f_ref, _ = reference_solution(problem, iters=100_000, design_seed=42)
    desc = method_for_problem("sfb+", problem, design_seed=42)

    t0 = time.perf_counter()
    report = execute(desc, problem, 5000)
    elapsed = time.perf_counter() - t0
    series = report.objective - f_ref
    hit = iterations_to_threshold(series, 1e-6)
    ok = (
        hit is not None
        and report.consensus_gap <= 1e-6
        and report.inclusion_residual <= 1e-6
        and elapsed < 10.0
    )
    _verdict(
        5,
        ok,
        f"objective residual <=1e-6 at iteration {hit} (<=5000); consensus gap "
        f"{report.consensus_gap:.2e}, operator-sum residual {report.inclusion_residual:.2e} "
        f"(both <=1e-6); runtime {elapsed:.2f}s (<10s)",
    )


def test_criterion_6_variance_rate_trend():
    early, late = [], []
    for seed in range(10):
        cfg = ToyProblemConfig(seed=600 + seed)
        problem = gen_toy_problem(cfg)
        desc = method_for_problem("sfb+", problem, design_seed=600 + seed)
        report = execute(desc, problem, 2000, rel_stop=0.0, record_objective=False)
        early.append(200 * report.variance[199])
        late.append(2000 * report.variance[1999])
    med_early, med_late = float(np.median(early)), float(np.median(late))
    _verdict(
        6,
        med_late < med_early,
        f"median scaled consensus variance k*Var: {med_late:.2e} at k=2000 "
        f"< {med_early:.2e} at k=200 (10 seeds)",
    )


def test_criterion_7_zero_slack_beats_random_slack():
    wins = 0
    for s in range(20):
        seed = 300 + s
        cfg = ToyProblemConfig(seed=seed)
        problem = gen_toy_problem(cfg)
        f_ref, x_ref = reference_solution(problem, iters=20_000, design_seed=seed)
        flat = method_for_problem("sfb+", problem, design_seed=seed)
        noisy = method_for_problem("sfb+randp", problem, design_seed=seed)
        k0 = iterations_to_threshold(
            metric_series(execute(flat, problem, 4000), "objective", f_ref, x_ref), 1e-5
        )
        if k0 is None:
            continue
        # a capped run is a prefix of the full one, so it hits at k1 <= k0
        # exactly when the full run does: the verdict is unchanged
        k1 = iterations_to_threshold(
            metric_series(execute(noisy, problem, k0), "objective", f_ref, x_ref), 1e-5
        )
        wins += k1 is None
    _verdict(7, wins >= 16, f"zero slack reaches 1e-5 first in {wins}/20 seeded instances (>=16)")


def _first_hit(params, problem, budget, f_ref, x_ref, threshold, chunk=250):
    """First iteration at which a plain run's objective gap reaches the
    threshold within ``budget`` sweeps, or None.

    The run goes in chunks, each continued from the last state of the one
    before, and stops after the first chunk that hits. A plain run continued
    from its exact state is a prefix of the full run, so this is the full
    run's first hit at the cost of its sweeps up to the hit's chunk.
    """
    done, z = 0, None
    while done < budget:
        report = run(params, problem, z0=z, max_iters=min(chunk, budget - done), rel_stop=0.0,
                     trace=True)
        k = iterations_to_threshold(metric_series(report, "objective", f_ref, x_ref), threshold)
        if k is not None:
            return done + k
        done += report.iterations
        z = report.state_trace[-1]
    return None


def _criterion_8_instance(seed):
    """Whether the per-block run of one criterion-8 instance reaches the
    threshold within budget and the uniform run does not reach it by then."""
    cfg = ToyProblemConfig(seed=seed, hetero=True)
    problem = gen_toy_problem(cfg)
    uniform = gen_toy_problem(
        cfg, beta_override=np.full(cfg.m, float(np.max(problem.beta)))
    )
    f_ref, x_ref = reference_solution(problem, iters=25_000, design_seed=seed)
    d_per = method_for_problem("sfb+", problem, design_seed=seed)
    d_uni = method_for_problem("sfb+", uniform, design_seed=seed)
    k_per = _first_hit(d_per.params, problem, 8000, f_ref, x_ref, 1e-5)
    if k_per is None:
        return False
    # capped at k_per, as in criterion 7
    k_uni = iterations_to_threshold(
        metric_series(execute(d_uni, uniform, k_per), "objective", f_ref, x_ref), 1e-5
    )
    return k_uni is None


def test_criterion_8_per_block_constants_beat_uniform():
    # the 20 instances are independent and deterministic, so two worker
    # processes, started fresh (spawn), give the serial loop's count
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        wins = sum(pool.map(_criterion_8_instance, range(500, 520)))
    _verdict(
        8, wins >= 16, f"per-block constants reach 1e-5 first in {wins}/20 scaled-row instances (>=16)"
    )


def test_criterion_9_routing_optimizer_reaches_grid_optimum():
    a = np.arange(0.0, 1.0 + 1e-4, 1e-4)
    grid_best = float(np.min(np.sqrt(1.0 + a**2 + (1.0 - a) ** 2)))
    res = optimize_routing(3, 1, [0, 1, 1], np.array([1.0]))
    close = abs(res.objective - grid_best) <= 1e-3

    forced = optimize_routing(2, 3, [0, 3], np.array([0.7, 1.1, 0.4]))
    exact = (
        np.array_equal(forced.H, np.vstack([np.zeros(3), np.ones(3)]))
        and np.array_equal(forced.K, np.column_stack([np.ones(3), np.zeros(3)]))
    )
    _verdict(
        9,
        close and exact,
        f"objective {res.objective:.6f} within 1e-3 of grid optimum {grid_best:.6f}; "
        "two-resolvent pair returned exactly",
    )


def test_criterion_10_lifted_matches_minimal():
    rng = np.random.default_rng(10)
    cfg = ToyProblemConfig(n=4, d=8, p=12, m=3, seed=77)
    problem = gen_toy_problem(cfg)
    params = params_for_problem(problem, 77)
    lap = params.M @ params.M.T
    z0 = rng.standard_normal((3, 8))
    r_min = run(params, problem, z0=z0, max_iters=200, rel_stop=0.0,
                record_objective=False, trace=True)
    r_lift = run_lifted(lap, params.causal, params.beta, params.theta, problem,
                        w0=params.M @ z0, max_iters=200, rel_stop=0.0,
                        record_objective=False, trace=True)
    dev = max(
        float(np.max(np.abs(a - b))) for a, b in zip(r_min.x_trace, r_lift.x_trace)
    )
    _verdict(10, dev <= 1e-9, f"lifted vs minimal x-trajectory deviation {dev:.2e} (<=1e-9) over 200 iterations")


def test_criterion_11_frugality_across_presets():
    cases = []
    toy = lambda m: gen_toy_problem(ToyProblemConfig(n=5, d=6, p=12, m=m, seed=9))
    toy2 = lambda m: gen_toy_problem(ToyProblemConfig(n=2, d=6, p=12, m=m, seed=9))
    cases.append(("dy", toy2(3)))
    cases.append(("drs", toy2(0)))
    cases.append(("graph-drs", toy(0)))
    cases.append(("gfb", toy(4)))
    cases.append(("rfb", toy(4)))
    cases.append(("sdy", toy(4)))
    cases.append(("agfb", toy(10)))
    cases.append(("sfb+", toy(5)))

    iters = 4
    ok = True
    details = []
    for name, problem in cases:
        desc = method_for_problem(name, problem, design_seed=9)
        counted, res_c, fwd_c = counting_problem(problem)
        execute(desc, counted, iters, rel_stop=0.0, record_objective=False)
        res_counts = sorted({c.count for c in res_c})
        fwd_counts = sorted({c.count for c in fwd_c}) if fwd_c else [iters]
        good = res_counts == [iters] and fwd_counts == [iters]
        ok = ok and good
        details.append(f"{name}:{'ok' if good else 'BAD'}")
    _verdict(11, ok, "each oracle invoked exactly once per iteration " + " ".join(details))
