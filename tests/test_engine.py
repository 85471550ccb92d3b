import numpy as np
import pytest

from helpers import (
    params_for_problem,
    random_affine_problem,
    random_params,
    three_operator_trajectory,
)
from minisplit.engine import extract_solution, run, run_lifted, split_step
from minisplit.errors import DivergenceError, ParameterError
from minisplit.oracles import ForwardOracle, ProblemSpec, ResolventOracle, counting_problem
from minisplit.params import from_components
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
        ],
    )
    def test_invalid_initialization_rejected(self, case, message):
        params = random_params(5, n=3, m=0)
        lap = params.M @ params.M.T
        theta, w0, prob = 0.9, None, _zero_problem(3, 2)
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
        else:
            prob = _zero_problem(4, 2)
        with pytest.raises(ParameterError, match=message):
            run_lifted(lap, params.causal, params.beta, theta, prob, w0=w0)

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
