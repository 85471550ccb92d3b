import dataclasses
import re

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
from minisplit import bench, engine, linalg
from minisplit.engine import extract_solution, run, run_lifted, split_step
from minisplit.errors import DivergenceError, ParameterError
from minisplit.graphs import complete_graph, path_graph
from minisplit.oracles import ForwardOracle, ProblemSpec, ResolventOracle, counting_problem
from minisplit.params import factor_laplacian, forward_penalty, from_components, validate_params
from minisplit.presets import agfb_edge_order, agfb_params, davis_yin_params, gfb_params
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
    ``engine._sweep`` must reproduce bit for bit. Returns (x, u, v, a) with
    v_i the input of resolvent i over gamma_i and a_i = v_i - x_i / gamma_i."""
    s_mat, gamma = params.S, params.gamma
    h_mat, k_mat, f = params.causal.H, params.causal.K, params.causal.F
    n, m, d = s_mat.shape[0], k_mat.shape[0], drive.shape[1]
    x, u = np.zeros((n, d)), np.zeros((m, d))
    inputs, a = np.zeros((n, d)), np.zeros((n, d))
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
        inputs[i] = v
        a[i] = v - x[i] / g_i
    assert j == m
    return x, u, inputs, a


def _assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def _edge_routed_params(preset, n, seed):
    """gfb (path-graph forwards) or agfb bundle on the complete graph, whose
    routing rows are all or mostly unit vectors."""
    beta = np.random.default_rng(seed).uniform(0.1, 4.0, n * (n - 1) // 2)
    g = complete_graph(n)
    if preset == "gfb":
        return gfb_params(g, path_graph(n), beta[:n - 1]).params
    return agfb_params(g, dict(zip(agfb_edge_order(g), beta))).params


class TestSweep:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 6), m=st.integers(0, 4),
           d=st.integers(1, 4), lifted=st.booleans(), preset=st.sampled_from([None, "gfb", "agfb"]))
    @example(seed=1, n=4, m=0, d=3, lifted=False, preset=None)
    @example(seed=2, n=4, m=0, d=3, lifted=True, preset=None)
    @example(seed=3, n=5, m=3, d=2, lifted=False, preset=None)
    @example(seed=4, n=5, m=3, d=2, lifted=True, preset=None)
    @example(seed=5, n=5, m=0, d=3, lifted=False, preset="gfb")
    @example(seed=6, n=4, m=0, d=2, lifted=True, preset="gfb")
    @example(seed=7, n=5, m=0, d=3, lifted=False, preset="agfb")
    @example(seed=8, n=4, m=0, d=2, lifted=True, preset="agfb")
    def test_matches_reference_sweep_bitwise(self, seed, n, m, d, lifted, preset):
        # a preset's routing fixes m itself; its rows take the unit-row path
        rng = np.random.default_rng(seed)
        if preset is None:
            params = random_params(seed, n=n, m=m)
        else:
            params = _edge_routed_params(preset, n, seed)
        problem = random_affine_problem(rng, n, params.m, d, beta=params.beta)
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
        x, u, inputs = engine._sweep(engine._sweep_plan(problem, params), drive)
        # the expression the run loop forms its operator values with
        a = inputs - x / params.gamma[:, None]
        _assert_same_bits((x, u, inputs, a), _reference_sweep(problem, params, drive))

    @pytest.mark.parametrize("preset", ["gfb", "agfb"])
    def test_plan_marks_the_unit_rows_of_edge_routings(self, preset):
        n = 5
        params = _edge_routed_params(preset, n, 0)
        rows, _ = engine._sweep_plan(_zero_problem(n, 2, params.m), params)
        # every forward reads the output of its edge's source alone
        sources = [src for due, *_ in rows for _, _, _, src in due]
        edges = path_graph(n).edges if preset == "gfb" else agfb_edge_order(complete_graph(n))
        assert sources == [h - 1 for h, _ in edges]
        # a resolvent input subtracts a single forward output exactly when one
        # edge enters its node: every row of gfb, only node 2 of agfb
        hsrc = [row[3] for row in rows[1:]]
        assert hsrc == (list(range(n - 1)) if preset == "gfb" else [0] + [None] * (n - 2))

    def test_forward_that_writes_into_its_argument_leaves_x_intact(self):
        rng = np.random.default_rng(21)
        n, d = 4, 3
        params = _edge_routed_params("gfb", n, 21)
        base = random_affine_problem(rng, n, n - 1, d, beta=params.beta)

        def with_forwards(wrap):
            return dataclasses.replace(base, forwards=tuple(
                ForwardOracle(wrap(f.evaluate), f.beta, f.descriptor) for f in base.forwards))

        def scribble(evaluate):
            def call(x):
                out = evaluate(x)
                x *= -7.0
                return out
            return call

        def on_copy(evaluate):
            scribbling = scribble(evaluate)
            return lambda x: scribbling(x.copy())

        z0 = rng.standard_normal((n - 1, d))
        runs = [run(params, with_forwards(wrap), z0=z0, max_iters=20, rel_stop=0.0, trace=True)
                for wrap in (scribble, on_copy)]
        _assert_same_bits(runs[0].x_trace, runs[1].x_trace)


def _reference_loop(problem, params, state, to_drive, advance, iters):
    """A plain run written out with ``@`` around :func:`_reference_sweep`:
    the specification ``run`` and ``run_lifted`` must reproduce bit for bit,
    up to ``iters`` sweeps or a zero residual (their ``stop`` of 0).
    Returns the x-trajectory, the records and the last x."""
    xs, res, variances, objectives = [], [], [], []
    for _ in range(iters):
        x = _reference_sweep(problem, params, to_drive(state))[0]
        new_state = advance(state, x)
        step = (new_state - state).ravel()
        res.append(np.sqrt(step @ step) / params.theta)
        mean = extract_solution(x)
        variances.append(linalg.consensus_variance(x, mean=mean))
        objectives.append(problem.objective(mean))
        xs.append(x)
        state = new_state
        if res[-1] == 0.0:
            break
    return xs, np.array(res), np.array(variances), np.array(objectives), x


class TestLoop:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 8), m=st.integers(0, 4),
           d=st.integers(1, 4), lifted=st.booleans())
    @example(seed=1, n=2, m=2, d=1, lifted=False)
    @example(seed=2, n=8, m=4, d=4, lifted=True)
    @example(seed=209, n=2, m=0, d=1, lifted=False)  # reaches an exact fixed point
    def test_run_matches_reference_loop_bitwise(self, seed, n, m, d, lifted):
        # the sweep alone is TestSweep's; this covers the drive, the update,
        # the residual and the records around it
        rng = np.random.default_rng(seed)
        params = random_params(seed, n=n, m=m)
        problem = dataclasses.replace(random_affine_problem(rng, n, m, d, beta=params.beta),
                                      objective=lambda x: float(x @ x))
        theta, iters = params.theta, 30
        if lifted:
            lap = params.M @ params.M.T
            w0 = rng.standard_normal((n, d))
            w0 -= w0.mean(axis=0)
            report = run_lifted(lap, params.causal, params.beta, theta, problem, w0=w0,
                                max_iters=iters, rel_stop=0.0, trace=True)
            params = from_components(factor_laplacian(lap),
                                     lap + forward_penalty(params.causal, params.beta),
                                     params.causal, params.beta, theta)
            want = _reference_loop(problem, params, w0, lambda w: w,
                                   lambda w, x: w - theta * (lap @ x), iters)
        else:
            m_mat = params.M
            z0 = rng.standard_normal((n - 1, d))
            report = run(params, problem, z0=z0, max_iters=iters, rel_stop=0.0, trace=True)
            want = _reference_loop(problem, params, z0, lambda z: m_mat @ z,
                                   lambda z, x: z - theta * (m_mat.T @ x), iters)
        _assert_same_bits(report.x_trace, want[0])
        _assert_same_bits((report.fp_residual, report.variance, report.objective, report.final_x),
                          want[1:])


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


class TestEntryContract:
    """``split_step``, ``run`` and ``run_lifted`` share one entry check: it
    names the state's argument and runs before any oracle."""

    @staticmethod
    def _enter(entry, params, prob, state):
        if entry == "split_step":
            return split_step(params, prob, state)
        if entry == "run":
            return run(params, prob, z0=state, max_iters=5)
        return run_lifted(params.M @ params.M.T, params.causal, params.beta, params.theta, prob,
                          w0=state, max_iters=5)

    @pytest.mark.parametrize("case", ["nan", "inf", "complex", "one-dimensional", "extra-row",
                                      "extra-column", "strings"])
    @pytest.mark.parametrize("entry, name", [("split_step", "z"), ("run", "z0"),
                                             ("run_lifted", "w0")])
    def test_bad_state_named_before_any_oracle(self, entry, name, case):
        prob, res_c, fwd_c = counting_problem(gen_toy_problem(ToyProblemConfig(n=3, d=4, p=6, m=2)))
        params = params_for_problem(prob, 11)
        rows = 3 if entry == "run_lifted" else 2
        state = np.zeros((rows, 4))
        if case == "nan":
            state[0, 1] = np.nan
        elif case == "inf":
            state[1, 2] = np.inf
        elif case == "complex":
            state = state + 1j
        elif case == "one-dimensional":
            state = state[0]
        elif case == "extra-row":
            state = np.zeros((rows + 1, 4))
        elif case == "extra-column":
            state = np.zeros((rows, 5))
        else:
            state = np.full((rows, 4), "0")
        with pytest.raises(ParameterError,
                           match=re.escape(f"{name} must be a finite real array of shape ({rows}, 4)")):
            self._enter(entry, params, prob, state)
        assert [c.count for c in res_c + fwd_c] == [0] * 5

    @pytest.mark.parametrize("entry, name", [("split_step", "z"), ("run", "z0"),
                                             ("run_lifted", "w0")])
    def test_ragged_state_named_before_any_oracle(self, entry, name):
        prob, res_c, fwd_c = counting_problem(gen_toy_problem(ToyProblemConfig(n=3, d=2, p=6, m=2)))
        params = params_for_problem(prob, 11)
        rows = 3 if entry == "run_lifted" else 2
        state = [[0.0, 0.0]] * (rows - 1) + [[0.0]]  # numpy cannot make an array of it
        with pytest.raises(ParameterError,
                           match=re.escape(f"{name} must be a finite real array of shape ({rows}, 2)")):
            self._enter(entry, params, prob, state)
        assert [c.count for c in res_c + fwd_c] == [0] * 5

    @pytest.mark.parametrize("entry", ["split_step", "run", "run_lifted"])
    def test_count_mismatch_named_before_any_oracle(self, entry):
        params = params_for_problem(gen_toy_problem(ToyProblemConfig(n=3, d=4, p=6, m=2)), 11)
        # one more resolvent and one more forward than the bundle calls
        prob, res_c, fwd_c = counting_problem(gen_toy_problem(ToyProblemConfig(n=4, d=4, p=6, m=3)))
        with pytest.raises(ParameterError,
                           match=re.escape("(n=3, m=2) do not match problem counts (n=4, m=3)")):
            self._enter(entry, params, prob, None)
        assert [c.count for c in res_c + fwd_c] == [0] * 7

    @pytest.mark.parametrize("entry", ["split_step", "run", "run_lifted"])
    def test_a_list_start_runs_as_its_array(self, entry):
        prob = gen_toy_problem(ToyProblemConfig(n=3, d=4, p=6, m=2))
        params = params_for_problem(prob, 11)
        start = np.arange(12.0).reshape(3, 4) - 5.5
        start = start - start.mean(axis=0) if entry == "run_lifted" else start[:2]
        got, want = (self._enter(entry, params, prob, s) for s in (start.tolist(), start))
        if entry != "split_step":
            got, want = ((r.fp_residual, r.final_x) for r in (got, want))
        _assert_same_bits(got, want)

    def test_split_step_steps_a_bundle_that_fails_validation(self):
        m_mat = np.sqrt(0.1 / 5.0) * np.array([[1.0], [-1.0]])
        s_mat = (2 / 5.0) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        pair = CausalPair(np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]), np.array([0, 1]))
        bad = from_components(m_mat, s_mat, pair, np.array([1.0]), 0.9)
        assert not validate_params(bad).passed
        prob = random_affine_problem(np.random.default_rng(0), 2, 1, 3, beta=np.array([1.0]))
        z_next, x, u = split_step(bad, prob, np.ones((1, 3)))
        assert z_next.shape == (1, 3) and x.shape == (2, 3) and u.shape == (1, 3)


class TestRun:
    def test_zero_start_terminates_immediately(self):
        params = random_params(2, n=3, m=0)
        report = run(params, _zero_problem(3, 4), max_iters=10)
        assert report.iterations == 1
        assert report.fp_residual[0] == 0.0
        assert report.termination == "stop_threshold"

    @pytest.mark.parametrize("accelerate", [False, True])
    def test_absolute_stop_wins_when_both_stops_hold(self, accelerate):
        prob = gen_toy_problem(ToyProblemConfig(n=3, d=4, p=6, m=2, seed=0))
        params = params_for_problem(prob, 11)
        report = run(params, prob, max_iters=50, stop=np.inf, rel_stop=1.0, accelerate=accelerate)
        assert report.iterations == 1
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

    def test_report_carries_the_validation_of_its_bundle(self):
        rng = np.random.default_rng(8)
        params = random_params(8, n=4, m=2)
        prob = random_affine_problem(rng, 4, 2, 3, beta=params.beta)
        assert run(params, prob, max_iters=3).validation == validate_params(params)

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

    @pytest.mark.parametrize("max_iters", [0, -5])
    @pytest.mark.parametrize("entry", ["run", "run_lifted", "execute"])
    def test_a_run_is_at_least_one_sweep(self, entry, max_iters):
        prob, res_c, fwd_c = counting_problem(gen_toy_problem(ToyProblemConfig(n=3, d=4, p=6, m=2)))
        params = params_for_problem(prob, 11)
        with pytest.raises(ParameterError, match=f"max_iters must be at least 1, got {max_iters}"):
            if entry == "run":
                run(params, prob, max_iters=max_iters)
            elif entry == "run_lifted":
                run_lifted(params.M @ params.M.T, params.causal, params.beta, params.theta, prob,
                           max_iters=max_iters)
            else:
                bench.execute(bench.method_for_problem("sfb+", prob), prob, max_iters)
        assert [c.count for c in res_c + fwd_c] == [0] * 5

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

    @pytest.mark.parametrize("entry", ["run", "split_step"])
    @pytest.mark.parametrize("oracle", ["forward", "resolvent"])
    def test_complex_oracle_output_named(self, oracle, entry):
        # stored in the float sweep, a complex output would lose its imaginary part
        rng = np.random.default_rng(12)
        d = 4
        params = random_params(12, n=3, m=2)
        prob = random_affine_problem(rng, 3, 2, d, beta=params.beta)
        if oracle == "forward":
            good = prob.forwards[1].evaluate
            bad = ForwardOracle(lambda x: good(x) * (1.0 + 0.5j), prob.forwards[1].beta,
                                "complex-forward")
            prob = dataclasses.replace(prob, forwards=(prob.forwards[0], bad))
        else:
            good = prob.resolvents[2].evaluate
            bad = ResolventOracle(lambda s, v: good(s, v) * (1.0 + 0.5j), "complex-resolvent")
            prob = dataclasses.replace(prob, resolvents=prob.resolvents[:2] + (bad,))
        with pytest.raises(ParameterError, match=f"'{bad.descriptor}'.*dtype complex128"):
            if entry == "run":
                run(params, prob, max_iters=5)
            else:
                split_step(params, prob, rng.standard_normal((2, d)))

    @pytest.mark.parametrize("stop, rel_stop", [(np.nan, 0.0), (-1e-9, 0.0), (0.0, np.nan),
                                                (0.0, -1e-14)])
    @pytest.mark.parametrize("entry", ["run", "run_lifted"])
    def test_stopping_inputs_must_be_nonnegative(self, entry, stop, rel_stop):
        prob, res_c, fwd_c = counting_problem(gen_toy_problem(ToyProblemConfig(n=3, d=4, p=6, m=2)))
        params = params_for_problem(prob, 11)
        with pytest.raises(ParameterError, match="stop and rel_stop must be nonnegative"):
            if entry == "run":
                run(params, prob, stop=stop, rel_stop=rel_stop)
            else:
                run_lifted(params.M @ params.M.T, params.causal, params.beta, params.theta, prob,
                           stop=stop, rel_stop=rel_stop)
        assert [c.count for c in res_c + fwd_c] == [0] * 5

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

    def test_report_carries_the_validation_of_the_rebuilt_bundle(self):
        rng = np.random.default_rng(8)
        params = random_params(8, n=4, m=2)
        lap = params.M @ params.M.T
        prob = random_affine_problem(rng, 4, 2, 3, beta=params.beta)
        report = run_lifted(lap, params.causal, params.beta, params.theta, prob, max_iters=3)
        # the lifted run validates the bundle it builds from the laplacian
        ran = from_components(factor_laplacian(lap), lap + forward_penalty(params.causal, params.beta),
                              params.causal, params.beta, params.theta)
        assert report.validation == validate_params(ran)

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

    @pytest.mark.parametrize("lifted, accelerate", [(False, False), (False, True), (True, False)])
    def test_recorded_diagnostics_equal_their_definitions_bitwise(self, lifted, accelerate):
        prob = gen_toy_problem(ToyProblemConfig(n=4, d=6, p=10, m=3, seed=5, hetero=True))
        params = params_for_problem(prob, 12)
        options = dict(max_iters=300, rel_stop=1e-13, trace=True, accelerate=accelerate)
        if lifted:
            report = run_lifted(params.M @ params.M.T, params.causal, params.beta, params.theta,
                                prob, **options)
        else:
            report = run(params, prob, **options)
        assert report.iterations == len(report.x_trace) > 100
        variance = [linalg.consensus_variance(x) for x in report.x_trace]
        objective = [prob.objective(extract_solution(x)) for x in report.x_trace]
        assert np.array(variance).tobytes() == report.variance.tobytes()
        assert np.array(objective).tobytes() == report.objective.tobytes()

    def test_scaled_variance_shrinks_along_the_run(self):
        cfg = ToyProblemConfig(seed=4)
        prob = gen_toy_problem(cfg)
        params = params_for_problem(prob, 10)
        report = run(params, prob, max_iters=2000, rel_stop=0.0, record_objective=False)
        early = 100 * report.variance[99]
        late = 2000 * report.variance[1999]
        assert late < early


@pytest.mark.parametrize("n, beta, d, message", [
    (2, -1.0, 3, "forward 'bad' has beta -1.0"),
    (2, np.nan, 3, "forward 'bad' has beta nan"),
    (2, np.inf, 3, "forward 'bad' has beta inf"),
    (1, 1.0, 3, "at least two resolvent"),
    (2, 1.0, 0, "dimension must be positive"),
    (2, 1.0, 3.0, "dimension must be an integer, got 3.0"),
    (2, 1.0, True, "dimension must be an integer, got True"),
], ids=["negative-beta", "nan-beta", "inf-beta", "one-resolvent", "no-dimension", "float-dimension",
        "bool-dimension"])
def test_problem_spec_rejects_what_no_run_can_use(n, beta, d, message):
    res = tuple(ResolventOracle(lambda s, v: v.copy()) for _ in range(n))
    with pytest.raises(ParameterError, match=message):
        ProblemSpec(res, (ForwardOracle(lambda x: x, beta, "bad"),), d)


def test_problem_spec_takes_a_numpy_integer_dimension():
    res = tuple(ResolventOracle(lambda s, v: v.copy()) for _ in range(2))
    assert ProblemSpec(res, (), np.int64(3)).dimension == 3
