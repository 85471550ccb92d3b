import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    params_for_problem,
    random_affine_problem,
    random_params,
    three_operator_trajectory,
)
from minisplit import engine
from minisplit.engine import extract_solution, run, run_lifted, split_step
from minisplit.errors import DivergenceError, ParameterError
from minisplit.oracles import ForwardOracle, ProblemSpec, ResolventOracle, counting_problem
from minisplit.params import factor_laplacian, forward_penalty, from_components
from minisplit.presets import davis_yin_params
from minisplit.problems import ToyProblemConfig, gen_toy_problem
from minisplit.schedule import CausalPair


def _zero_problem(n, d, m=0):
    res = tuple(ResolventOracle(lambda s, v: v.copy(), "zero-op") for _ in range(n))
    fwd = tuple(ForwardOracle(lambda x: np.zeros_like(x), 0.0, "zero") for _ in range(m))
    return ProblemSpec(res, fwd, d)


def _identity_operator_problem(n, d):
    # A_i = Id (monotone map x -> x): resolvent v / (1 + step)
    res = tuple(ResolventOracle(lambda s, v: v / (1.0 + s), "identity-op") for _ in range(n))
    return ProblemSpec(res, (), d)


def _reference_sweep(problem, params, drive):
    """The sweep written out row by row: the specification that
    ``engine._sweep`` must reproduce bit for bit."""
    s_mat, gamma = params.S, params.gamma
    h_mat, k_mat, f = params.causal.H, params.causal.K, params.causal.F
    n, m, d = s_mat.shape[0], k_mat.shape[0], drive.shape[1]
    x, u, a = np.zeros((n, d)), np.zeros((m, d)), np.zeros((n, d))
    j = 0
    for i in range(n):
        f_i = f[i]
        while j < f_i:
            u[j] = problem.forwards[j].evaluate(k_mat[j, :i] @ x[:i])
            j += 1
        v = drive[i].copy()
        if i:
            v -= s_mat[i, :i] @ x[:i]
        if f_i:
            v -= h_mat[i, :f_i] @ u[:f_i]
        g_i = gamma[i]
        x[i] = problem.resolvents[i].evaluate(g_i, g_i * v)
        a[i] = v - x[i] / g_i
    assert j == m
    return x, u, a


def _assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestSweep:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 6), m=st.integers(0, 4),
           d=st.integers(1, 4), lifted=st.booleans())
    @example(seed=1, n=4, m=0, d=3, lifted=False)
    @example(seed=2, n=4, m=0, d=3, lifted=True)
    @example(seed=3, n=5, m=3, d=2, lifted=False)
    @example(seed=4, n=5, m=3, d=2, lifted=True)
    def test_matches_reference_sweep_bitwise(self, seed, n, m, d, lifted):
        rng = np.random.default_rng(seed)
        params = random_params(seed, n=n, m=m)
        problem = random_affine_problem(rng, n, m, d, beta=params.beta)
        if lifted:
            # the bundle and the zero-sum drive of run_lifted
            lap = params.M @ params.M.T
            params = from_components(factor_laplacian(lap),
                                     lap + forward_penalty(params.causal, params.beta),
                                     params.causal, params.beta, params.theta)
            drive = rng.standard_normal((n, d))
            drive -= drive.mean(axis=0)
        else:
            drive = params.M @ rng.standard_normal((n - 1, d))
        got = engine._sweep(engine._sweep_plan(problem, params), drive)
        _assert_same_bits(got, _reference_sweep(problem, params, drive))


class TestSplitStep:
    def test_zero_problem_fixed_point_at_origin(self):
        params = random_params(0, n=3, m=0)
        prob = _zero_problem(3, 4)
        z = np.zeros((2, 4))
        z_next, x, u = split_step(params, prob, z)
        np.testing.assert_array_equal(z_next, z)
        np.testing.assert_array_equal(x, 0.0)
        assert u.shape == (0, 4)

    def test_identity_operators_keep_origin_fixed(self):
        params = random_params(1, n=4, m=0)
        prob = _identity_operator_problem(4, 3)
        z_next, x, _ = split_step(params, prob, np.zeros((3, 3)))
        np.testing.assert_array_equal(x, 0.0)
        np.testing.assert_array_equal(z_next, 0.0)

    def test_matches_two_resolvent_recursion(self):
        rng = np.random.default_rng(5)
        d = 6
        gamma, theta_bar, theta = 0.8, 0.7, 0.9
        prob = random_affine_problem(rng, 2, 2, d, beta=np.array([1.0, 0.5]))
        desc = davis_yin_params(gamma, theta_bar, beta=prob.beta, theta=theta)
        z = rng.standard_normal((1, d))
        lam = np.sqrt(theta_bar / gamma)
        xs, zs = three_operator_trajectory(prob, gamma, theta * theta_bar, gamma * lam * z[0], 60)
        zc = z
        for k in range(60):
            zc, x, _ = split_step(desc.params, prob, zc)
            assert np.max(np.abs(x - xs[k])) < 1e-10
            assert np.max(np.abs(gamma * lam * zc[0] - zs[k])) < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 8), m=st.integers(0, 6),
           slack_norm=st.sampled_from([0.0, 0.5]))
    def test_nonexpansive_on_every_admissible_bundle(self, seed, n, m, slack_norm):
        # criterion 3 checks this on 20 fixed seeds
        params = random_params(seed, n=n, m=m, slack_norm=slack_norm)
        rng = np.random.default_rng(seed)
        prob = random_affine_problem(rng, n, m, 4, beta=params.beta)
        for _ in range(5):
            za, zb = rng.standard_normal((2, n - 1, 4))
            ta, _, _ = split_step(params, prob, za)
            tb, _, _ = split_step(params, prob, zb)
            assert np.linalg.norm(ta - tb) <= (1.0 + 1e-9) * np.linalg.norm(za - zb)

    def test_each_oracle_called_exactly_once(self):
        for seed in range(5):
            params = random_params(seed, n=4, m=3)
            prob = random_affine_problem(np.random.default_rng(seed), 4, 3, 2,
                                         beta=params.beta)
            counted, res_c, fwd_c = counting_problem(prob)
            split_step(params, counted, np.zeros((3, 2)))
            assert [c.count for c in res_c] == [1] * 4
            assert [c.count for c in fwd_c] == [1] * 3


class TestRun:
    def test_zero_start_terminates_immediately(self):
        params = random_params(2, n=3, m=0)
        report = run(params, _zero_problem(3, 4), max_iters=10)
        assert report.iterations == 1
        assert report.fp_residual[0] == 0.0
        assert report.termination == "stop_threshold"

    def test_residual_monotone_under_relaxed_iteration(self):
        rng = np.random.default_rng(3)
        params = random_params(3, n=4, m=2)
        prob = random_affine_problem(rng, 4, 2, 5, beta=params.beta)
        report = run(params, prob, z0=rng.standard_normal((3, 5)),
                     max_iters=300, rel_stop=0.0, record_objective=False)
        res = report.fp_residual
        slack = 1e-9 * res[0]
        assert np.all(res[1:] <= res[:-1] + slack)

    def test_rejects_invalid_parameters(self):
        beta = 1.0
        m_mat = np.sqrt(0.1 / 5.0) * np.array([[1.0], [-1.0]])
        s_mat = (2 / 5.0) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        pair = CausalPair(np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]), np.array([0, 1]))
        bad = from_components(m_mat, s_mat, pair, np.array([beta]), 0.9)
        prob = random_affine_problem(np.random.default_rng(0), 2, 1, 3, beta=np.array([beta]))
        with pytest.raises(ParameterError):
            run(bad, prob, max_iters=5)

    def test_count_mismatch_rejected(self):
        params = random_params(4, n=3, m=1)
        with pytest.raises(ParameterError):
            run(params, _zero_problem(4, 2), max_iters=2)

    @pytest.mark.parametrize(
        "case",
        ["forward-wrong-length", "forward-scalar", "resolvent-wrong-length"],
    )
    def test_malformed_oracle_output_named(self, case):
        rng = np.random.default_rng(12)
        d = 20
        params = random_params(12, n=3, m=2)
        prob = random_affine_problem(rng, 3, 2, d, beta=params.beta)
        if case == "forward-wrong-length":
            bad = ForwardOracle(lambda x: np.zeros(3), prob.forwards[1].beta, "short-forward")
            prob = dataclasses.replace(prob, forwards=(prob.forwards[0], bad))
        elif case == "forward-scalar":
            bad = ForwardOracle(lambda x: 0.0, prob.forwards[1].beta, "scalar-forward")
            prob = dataclasses.replace(prob, forwards=(prob.forwards[0], bad))
        else:
            bad = ResolventOracle(lambda s, v: v[:3], "short-resolvent")
            prob = dataclasses.replace(prob, resolvents=prob.resolvents[:2] + (bad,))
        with pytest.raises(ParameterError, match=f"'{bad.descriptor}'.*shape"):
            run(params, prob, max_iters=5)

    @staticmethod
    def _assert_distinct(entries):
        assert not any(np.shares_memory(a, b) for i, a in enumerate(entries) for b in entries[i + 1:])

    def test_trace_entries_are_distinct_and_kept(self):
        rng = np.random.default_rng(13)
        params = random_params(13, n=4, m=2)
        prob = random_affine_problem(rng, 4, 2, 3, beta=params.beta)
        report = run(params, prob, z0=rng.standard_normal((3, 3)), max_iters=30,
                     rel_stop=0.0, record_objective=False, trace=True)
        self._assert_distinct(report.x_trace)
        self._assert_distinct(report.state_trace)
        # each entry still holds what the run produced at its iteration
        for k, x_k in enumerate(report.x_trace):
            z_next, x, _ = split_step(params, prob, report.state_trace[k])
            _assert_same_bits((x, z_next), (x_k, report.state_trace[k + 1]))

    def test_rejected_accelerated_step_gets_its_own_trace_entry(self):
        # the lying constants make the second residual rise, so the safeguard
        # rejects it and returns the state it accepted first
        rng = np.random.default_rng(8)
        res = tuple(ResolventOracle(lambda s, v: v.copy(), "zero-op") for _ in range(2))
        prob = ProblemSpec(res, (ForwardOracle(lambda x: 40.0 * x, 0.01, "liar"),), 3)
        desc = davis_yin_params(1.0 / 0.01, 0.9, beta=np.array([0.01]))
        report = run(desc.params, prob, z0=rng.standard_normal((1, 3)), max_iters=3,
                     record_objective=False, trace=True, accelerate=True)
        assert report.fp_residual[1] > report.fp_residual[0]
        _assert_same_bits((report.state_trace[2],), (report.state_trace[1],))
        self._assert_distinct(report.state_trace)

    def test_divergence_guard_trips_on_lying_constants(self):
        # forward operator is 40-Lipschitz but declares beta = 0.01, so the
        # derived steps are far too long and the affine iteration blows up
        rng = np.random.default_rng(8)
        d = 3
        res = tuple(ResolventOracle(lambda s, v: v.copy(), "zero-op") for _ in range(2))
        fwd = (ForwardOracle(lambda x: 40.0 * x, 0.01, "liar"),)
        prob = ProblemSpec(res, fwd, d)
        desc = davis_yin_params(1.0 / 0.01, 0.9, beta=np.array([0.01]))
        with pytest.raises(DivergenceError):
            run(desc.params, prob, z0=rng.standard_normal((1, d)), max_iters=2000,
                record_objective=False)

    def test_report_csv_and_final_record(self, tmp_path):
        cfg = ToyProblemConfig(n=3, d=4, p=6, m=2, seed=0)
        prob = gen_toy_problem(cfg)
        params = params_for_problem(prob, 11)
        report = run(params, prob, max_iters=40, rel_stop=0.0)
        out = tmp_path / "r.csv"
        report.write_csv(out, timing=False)
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,fp_residual,variance,objective,elapsed_ms"
        assert len(lines) == report.iterations + 1
        rec = report.final_record()
        assert rec["iterations"] == report.iterations
        assert rec["objective"] is not None


class TestRunLifted:
    @pytest.mark.parametrize(
        "case, message",
        [
            pytest.param("asymmetric-laplacian", "symmetric", id="asymmetric-laplacian"),
            pytest.param("ones-not-annihilated", "all-ones", id="ones-not-annihilated"),
            pytest.param("disconnected-laplacian", "rank n-1", id="disconnected-laplacian"),
            pytest.param("theta-above-one", "theta", id="theta-above-one"),
            pytest.param("w0-wrong-shape", "shape", id="w0-wrong-shape"),
            pytest.param("w0-nonzero-sum", "zero block sum", id="w0-nonzero-sum"),
            pytest.param("extra-resolvent", "do not match", id="extra-resolvent"),
            pytest.param("beta-short", "beta of shape", id="beta-short"),
            pytest.param("laplacian-too-large", "laplacian of shape", id="laplacian-too-large"),
        ],
    )
    def test_invalid_initialization_rejected(self, case, message):
        m = 3 if case == "beta-short" else 0
        params = random_params(5, n=3, m=m)
        lap = params.M @ params.M.T
        beta = params.beta
        theta, w0, prob = 0.9, None, _zero_problem(3, 2, m)
        if case == "asymmetric-laplacian":
            # zero row sums, but not symmetric
            lap = lap + np.array([[0.0, 1.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        elif case == "ones-not-annihilated":
            lap = lap + np.eye(3)
        elif case == "disconnected-laplacian":
            lap = np.zeros((3, 3))
        elif case == "theta-above-one":
            theta = 1.2
        elif case == "w0-wrong-shape":
            w0 = np.zeros((2, 2))
        elif case == "w0-nonzero-sum":
            w0 = np.ones((3, 2))
        elif case == "beta-short":
            beta = beta[:-1]
        elif case == "laplacian-too-large":
            lap = 4.0 * np.eye(4) - 1.0
        else:
            prob = _zero_problem(4, 2)
        with pytest.raises(ParameterError, match=message):
            run_lifted(lap, params.causal, beta, theta, prob, w0=w0)

    def test_zero_sum_conserved_over_long_runs(self):
        rng = np.random.default_rng(6)
        params = random_params(6, n=3, m=1)
        lap = params.M @ params.M.T
        prob = random_affine_problem(rng, 3, 1, 2, beta=params.beta)
        z0 = rng.standard_normal((2, 2))
        report = run_lifted(lap, params.causal, params.beta, params.theta, prob,
                            w0=params.M @ z0, max_iters=10_000, rel_stop=0.0,
                            record_objective=False, trace=True)
        drift = max(float(np.linalg.norm(w.sum(axis=0))) for w in report.state_trace)
        scale = max(float(np.max(np.abs(w))) for w in report.state_trace)
        assert drift <= 1e-8 * max(scale, 1.0)

    def test_matches_minimal_form(self):
        rng = np.random.default_rng(7)
        params = random_params(7, n=4, m=2)
        lap = params.M @ params.M.T
        prob = random_affine_problem(rng, 4, 2, 3, beta=params.beta)
        z0 = rng.standard_normal((3, 3))
        r_min = run(params, prob, z0=z0, max_iters=100, rel_stop=0.0,
                    record_objective=False, trace=True)
        r_lift = run_lifted(lap, params.causal, params.beta, params.theta, prob,
                            w0=params.M @ z0, max_iters=100, rel_stop=0.0,
                            record_objective=False, trace=True)
        dev = max(np.max(np.abs(a - b)) for a, b in zip(r_min.x_trace, r_lift.x_trace))
        assert dev <= 1e-9


class TestDiagnostics:
    def test_extract_solution(self):
        block = np.array([1.5, -2.0])
        np.testing.assert_array_equal(extract_solution(np.stack([block] * 3)), block)
        assert extract_solution(np.array([[0.0], [2.0]]))[0] == 1.0

    def test_fixed_point_encoding_at_convergence(self):
        cfg = ToyProblemConfig(n=4, d=6, p=10, m=3, seed=2)
        prob = gen_toy_problem(cfg)
        params = params_for_problem(prob, 9)
        report = run(params, prob, max_iters=20_000, rel_stop=1e-13)
        assert report.consensus_gap <= 1e-6
        assert report.inclusion_residual <= 1e-6

    def test_scaled_variance_shrinks_along_the_run(self):
        cfg = ToyProblemConfig(seed=4)
        prob = gen_toy_problem(cfg)
        params = params_for_problem(prob, 10)
        report = run(params, prob, max_iters=2000, rel_stop=0.0, record_objective=False)
        early = 100 * report.variance[99]
        late = 2000 * report.variance[1999]
        assert late < early
