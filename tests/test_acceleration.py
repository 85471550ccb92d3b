"""Anderson-accelerated runs: oracle frugality, the safeguard, the reported
point, and the reference solutions built on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import params_for_problem, random_affine_problem
from minisplit.bench import (
    METHOD_NAMES,
    execute,
    method_for_problem,
    reference_solution,
    required_forward_count,
)
from minisplit.engine import extract_solution, run, run_lifted
from minisplit.errors import DivergenceError
from minisplit.graphs import complete_graph, graph_laplacian
from minisplit.oracles import ForwardOracle, ProblemSpec, ResolventOracle, counting_problem
from minisplit.presets import davis_yin_params
from minisplit.problems import (
    PortfolioProblemConfig,
    ToyProblemConfig,
    gen_portfolio_problem,
    gen_toy_problem,
)

# Optimum objectives from plain (unaccelerated) sfb+ runs with the same
# design seed, each stopped by rel_stop=1e-13 after 12k-31k iterations.
PLAIN_CRITERION_8 = {
    500: 22.129227247967272,
    501: 24.66879698138213,
    502: 24.896059300968123,
    503: 22.94746144352301,
    504: 23.302905079806333,
}
# toy-hetero seed 2 split for gfb (m=4), sfb+ (m=5) and agfb (m=10)
PLAIN_COMPARE_SEED_2 = {4: 23.721900471794584, 5: 23.721900471794587, 10: 23.721900471794584}


def accepted_mask(fp_residual):
    """Replay the safeguard on a run's residuals: which evaluations it accepted.

    The first evaluation and the plain step after a rejection are accepted;
    any other is accepted when its residual is no larger than the last
    accepted one.
    """
    mask, good, after_reject = [], None, False
    for res in fp_residual:
        ok = good is None or after_reject or res <= good
        mask.append(ok)
        after_reject = not ok
        if ok:
            good = res
    return np.array(mask)


def affine_zero(problem):
    """The zero of sum_i A_i + sum_j C_j when every oracle is affine.

    Each operator is recovered by probing its oracle: a resolvent at step 1
    is (I + Q)^-1 (v - b), a forward operator is R x + c.
    """
    d = problem.dimension
    eye = np.eye(d)
    lin, off = np.zeros((d, d)), np.zeros(d)
    for oracle in problem.resolvents:
        j0 = oracle.evaluate(1.0, np.zeros(d))
        q = np.linalg.inv(np.column_stack([oracle.evaluate(1.0, e) - j0 for e in eye])) - eye
        lin += q
        off -= (eye + q) @ j0
    for oracle in problem.forwards:
        c = oracle.evaluate(np.zeros(d))
        lin += np.column_stack([oracle.evaluate(e) - c for e in eye])
        off += c
    return np.linalg.solve(lin, -off)


@pytest.fixture(scope="module")
def rejecting():
    """A portfolio instance on which the accelerated sfb+ run rejects often."""
    prob = gen_portfolio_problem(PortfolioProblemConfig(seed=3))
    return prob, method_for_problem("sfb+", prob, design_seed=3)


class TestAcceleratedLoop:
    def test_each_oracle_once_per_iteration_rejections_included(self, rejecting):
        prob, desc = rejecting
        counted, res_c, fwd_c = counting_problem(prob)
        report = execute(desc, counted, 600, rel_stop=0.0, record_objective=False, accelerate=True)
        assert report.iterations == 600
        assert np.count_nonzero(~accepted_mask(report.fp_residual)) >= 5
        assert [c.count for c in res_c + fwd_c] == [600] * (prob.n + prob.m)

    def test_minimal_form_frugal(self):
        prob = random_affine_problem(np.random.default_rng(4), 4, 3, 3)
        params = params_for_problem(prob, 4)
        counted, res_c, fwd_c = counting_problem(prob)
        report = run(params, counted, max_iters=300, rel_stop=0.0, accelerate=True)
        assert [c.count for c in res_c + fwd_c] == [report.iterations] * 7

    def test_cap_mid_rejection_reports_last_accepted_iterate(self, rejecting):
        prob, desc = rejecting
        long = execute(desc, prob, 600, rel_stop=0.0, trace=True, accelerate=True)
        mask = accepted_mask(long.fp_residual)
        cap = int(np.argmin(mask)) + 1  # the first rejection is the last evaluation
        report = execute(desc, prob, cap, rel_stop=0.0, trace=True, accelerate=True)
        assert report.termination == "max_iters" and report.iterations == cap
        np.testing.assert_array_equal(report.fp_residual, long.fp_residual[:cap])
        last_good = report.x_trace[cap - 2]
        assert not np.array_equal(report.x_trace[-1], last_good)
        np.testing.assert_array_equal(report.final_x, last_good)
        np.testing.assert_array_equal(report.consensus, extract_solution(last_good))
        assert report.consensus_gap == float(
            np.max(np.linalg.norm(last_good - last_good.mean(axis=0), axis=1)))

    def test_lifted_state_keeps_zero_sum(self, rejecting):
        prob, desc = rejecting
        report = run_lifted(graph_laplacian(complete_graph(prob.n)), desc.params.causal,
                            desc.params.beta, desc.params.theta, prob, max_iters=600, rel_stop=0.0,
                            record_objective=False, trace=True, accelerate=True)
        assert np.count_nonzero(~accepted_mask(report.fp_residual)) >= 5
        drift = max(float(np.linalg.norm(w.sum(axis=0))) for w in report.state_trace)
        scale = max(float(np.max(np.abs(w))) for w in report.state_trace)
        assert drift <= 1e-8 * max(scale, 1.0)

    def test_divergence_guard_still_trips(self):
        # a 40-Lipschitz forward operator declaring beta = 0.01: see
        # test_engine's plain-run version of this check
        rng = np.random.default_rng(8)
        res = tuple(ResolventOracle(lambda s, v: v.copy(), "zero-op") for _ in range(2))
        prob = ProblemSpec(res, (ForwardOracle(lambda x: 40.0 * x, 0.01, "liar"),), 3)
        desc = davis_yin_params(1.0 / 0.01, 0.9, beta=np.array([0.01]))
        with pytest.raises(DivergenceError):
            run(desc.params, prob, z0=rng.standard_normal((1, 3)), max_iters=2000,
                record_objective=False, accelerate=True)

    def test_stalls_at_rounding_level(self):
        # rounding keeps this instance's residual about 3 times above the
        # 1e-13-relative target, at a few ulps of the state
        seed = 741180574
        prob = random_affine_problem(np.random.default_rng(seed), 4, 2, 4)
        params = params_for_problem(prob, seed)
        report = run(params, prob, max_iters=20_000, rel_stop=1e-13, record_objective=False,
                     accelerate=True)
        assert report.termination == "stalled" and report.iterations < 2000
        x_star = affine_zero(prob)
        assert np.max(np.abs(report.final_x - x_star)) <= 1e-8 * max(1.0, np.linalg.norm(x_star))
        # without a relative target the run goes on to its cap
        capped = run(params, prob, max_iters=report.iterations + 100, rel_stop=0.0,
                     record_objective=False, accelerate=True)
        assert capped.termination == "max_iters"
        assert capped.iterations == report.iterations + 100

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 5), m=st.integers(0, 3),
           d=st.integers(1, 4))
    def test_same_fixed_point_as_plain_run(self, seed, n, m, d):
        # plain runs on these instances can need 10^5 iterations, so both are
        # checked against the exact zero: the accelerated run reaches it, and
        # the plain iteration started from its final state stays there
        prob = random_affine_problem(np.random.default_rng(seed), n, m, d)
        params = params_for_problem(prob, seed)
        x_star = affine_zero(prob)
        tol = 1e-8 * max(1.0, float(np.linalg.norm(x_star)))
        fast = run(params, prob, max_iters=20_000, rel_stop=1e-13, record_objective=False,
                   trace=True, accelerate=True)
        assert fast.termination != "max_iters"
        assert np.max(np.abs(fast.final_x - x_star)) <= tol
        plain = run(params, prob, z0=fast.state_trace[-2], max_iters=50, rel_stop=0.0,
                    record_objective=False, trace=True)
        assert plain.fp_residual[0] == fast.fp_residual[-1]
        assert max(np.max(np.abs(x - x_star)) for x in plain.x_trace) <= tol


class TestPlainPathUnchanged:
    def test_minimal_form(self, tmp_path):
        prob = gen_toy_problem(ToyProblemConfig(n=3, d=4, p=6, m=2, seed=0))
        params = params_for_problem(prob, 11)
        a = run(params, prob, max_iters=60, rel_stop=0.0, trace=True)
        b = run(params, prob, max_iters=60, rel_stop=0.0, trace=True, accelerate=False)
        self._assert_same(a, b, tmp_path)

    def test_every_preset_through_execute(self, tmp_path):
        # every preset runs the bundle it carries, in minimal form
        for name in METHOD_NAMES:
            n = 2 if name in ("dy", "drs") else 4
            m = required_forward_count(name, n)
            prob = gen_toy_problem(ToyProblemConfig(n=n, d=4, p=6, m=3 if m is None else m,
                                                    seed=1, hetero=True))
            desc = method_for_problem(name, prob, design_seed=1)
            a = execute(desc, prob, 80, trace=True)
            b = execute(desc, prob, 80, trace=True, accelerate=False)
            self._assert_same(a, b, tmp_path)
            c = run(desc.params, prob, max_iters=80, rel_stop=1e-14, trace=True)
            self._assert_same(a, c, tmp_path)

    @staticmethod
    def _assert_same(a, b, tmp_path):
        for name in ("fp_residual", "variance", "objective", "final_x", "consensus"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        for xa, xb in zip(a.x_trace + a.state_trace, b.x_trace + b.state_trace):
            np.testing.assert_array_equal(xa, xb)
        assert (a.consensus_gap, a.inclusion_residual, a.termination) == (
            b.consensus_gap, b.inclusion_residual, b.termination)
        a.write_csv(tmp_path / "a.csv", timing=False)
        b.write_csv(tmp_path / "b.csv", timing=False)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestReferenceSolution:
    @pytest.mark.parametrize("seed", sorted(PLAIN_CRITERION_8))
    def test_criterion_8_instances(self, seed):
        problem = gen_toy_problem(ToyProblemConfig(seed=seed, hetero=True))
        self._check(problem, seed, PLAIN_CRITERION_8[seed])

    @pytest.mark.parametrize("m", sorted(PLAIN_COMPARE_SEED_2))
    def test_compare_shapes(self, m):
        problem = gen_toy_problem(ToyProblemConfig(seed=2, hetero=True, m=m))
        self._check(problem, 2, PLAIN_COMPARE_SEED_2[m])

    def test_portfolio_seed_3_converges(self):
        # accelerated in minimal form this reference ends max_iters at 1.3e-5
        # of the first residual; the lifted run reaches the relative stop
        problem = gen_portfolio_problem(PortfolioProblemConfig(seed=3))
        report = self._lifted_run(problem, 3, 30_000)
        assert report.termination == "relative_stop"
        _, x_ref = reference_solution(problem, design_seed=3)
        np.testing.assert_array_equal(x_ref, report.consensus)

    @classmethod
    def _check(cls, problem, seed, f_plain, cap=25_000):
        report = cls._lifted_run(problem, seed, cap)
        assert report.termination == "relative_stop"
        assert report.iterations <= cap // 10
        f_ref, x_ref = reference_solution(problem, iters=cap, design_seed=seed)
        np.testing.assert_array_equal(x_ref, report.consensus)
        assert abs(f_ref - f_plain) <= 1e-9 * max(1.0, abs(f_plain))

    @staticmethod
    def _lifted_run(problem, seed, cap):
        params = method_for_problem("sfb+", problem, design_seed=seed).params
        return run_lifted(graph_laplacian(complete_graph(problem.n)), params.causal, params.beta,
                          params.theta, problem, max_iters=cap, rel_stop=1e-13,
                          record_objective=False, accelerate=True)
