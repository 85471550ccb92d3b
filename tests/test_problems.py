import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minisplit import problems
from minisplit.bench import reference_solution
from minisplit.errors import IngestionError, ParameterError
from minisplit.problems import (
    PortfolioProblemConfig,
    ToyProblemConfig,
    gen_portfolio_problem,
    gen_toy_problem,
    load_returns_csv,
    synthetic_returns,
    toy_data,
)
from minisplit.prox import (
    huber_grad,
    huber_value,
    project_halfspace,
    project_simplex,
    prox_norm_offset,
    soft_threshold_offset,
)


def check_firmly_nonexpansive(oracle, d, rng, pairs=1000, step_range=(0.1, 3.0)):
    worst = 0.0
    for _ in range(pairs):
        step = rng.uniform(*step_range)
        v, w = rng.standard_normal(d), rng.standard_normal(d)
        jv = oracle.evaluate(step, v)
        jw = oracle.evaluate(step, w)
        diff = jv - jw
        gap = float(diff @ diff - diff @ (v - w))
        worst = max(worst, gap - 1e-9 * float((v - w) @ (v - w)))
    return worst


def check_cocoercive(oracle, d, rng, pairs=1000):
    worst = 0.0
    for _ in range(pairs):
        x, y = rng.standard_normal(d) * 2, rng.standard_normal(d) * 2
        cx, cy = oracle.evaluate(x), oracle.evaluate(y)
        dc = cx - cy
        gap = float(dc @ dc - oracle.beta * (dc @ (x - y)))
        worst = max(worst, gap - 1e-9 * float((x - y) @ (x - y)))
    return worst


class TestToyProblem:
    def test_counts_and_shapes(self):
        cfg = ToyProblemConfig(n=4, d=7, p=9, m=3, seed=0)
        prob = gen_toy_problem(cfg)
        assert prob.n == 4 and prob.m == 3 and prob.dimension == 7

    def test_single_row_blocks_have_row_norm_constants(self):
        cfg = ToyProblemConfig(n=3, d=5, p=4, m=4, seed=1)
        psi, _, _ = toy_data(cfg)
        prob = gen_toy_problem(cfg)
        for j, fwd in enumerate(prob.forwards):
            assert abs(fwd.beta - float(psi[j] @ psi[j])) < 1e-9

    def test_degenerate_knees_make_forwards_constant(self):
        cfg = ToyProblemConfig(n=3, d=4, p=6, m=2, delta1=1.0, delta2=1.0, seed=2)
        prob = gen_toy_problem(cfg)
        rng = np.random.default_rng(0)
        for fwd in prob.forwards:
            for _ in range(20):
                np.testing.assert_array_equal(fwd.evaluate(rng.standard_normal(4)), 0.0)

    def test_heterogeneity_increases_constant_spread(self):
        base = ToyProblemConfig(seed=3)
        spread = lambda p: float(np.max(p.beta) / np.min(p.beta))
        assert spread(gen_toy_problem(ToyProblemConfig(seed=3, hetero=True))) > spread(
            gen_toy_problem(base)
        )

    def test_data_is_independent_of_split(self):
        a = toy_data(ToyProblemConfig(seed=4, m=1))
        b = toy_data(ToyProblemConfig(seed=4, m=6))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), hetero=st.booleans(),
           m1=st.integers(1, 30), m2=st.integers(1, 30))
    def test_objective_and_summed_forwards_are_split_invariant(self, seed, hetero, m1, m2):
        # the forward blocks partition the Huber rows, so every split with
        # m >= 1 poses the same problem; bench.compare shares one reference
        a = gen_toy_problem(ToyProblemConfig(seed=seed, hetero=hetero, m=m1))
        b = gen_toy_problem(ToyProblemConfig(seed=seed, hetero=hetero, m=m2))
        x = np.random.default_rng(seed).standard_normal(a.dimension)
        assert a.objective(x) == b.objective(x)
        sum_a = sum(fwd.evaluate(x) for fwd in a.forwards)
        sum_b = sum(fwd.evaluate(x) for fwd in b.forwards)
        scale = max(1.0, float(np.linalg.norm(sum_a)))
        assert np.linalg.norm(sum_a - sum_b) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reference_optimum_is_split_invariant(self, seed):
        values = [reference_solution(gen_toy_problem(ToyProblemConfig(seed=seed, hetero=True, m=m)),
                                     design_seed=seed)[0]
                  for m in (4, 5, 10)]
        scale = max(1.0, abs(values[0]))
        assert max(values) - min(values) <= 1e-9 * scale, values

    def test_resolvents_firmly_nonexpansive(self):
        prob = gen_toy_problem(ToyProblemConfig(n=3, d=5, p=8, m=2, seed=5))
        rng = np.random.default_rng(1)
        for oracle in prob.resolvents:
            assert check_firmly_nonexpansive(oracle, 5, rng, pairs=1000) <= 0.0

    def test_forwards_cocoercive_with_declared_constants(self):
        prob = gen_toy_problem(ToyProblemConfig(n=3, d=5, p=8, m=4, seed=6))
        rng = np.random.default_rng(2)
        for oracle in prob.forwards:
            assert check_cocoercive(oracle, 5, rng, pairs=1000) <= 0.0

    def test_objective_matches_parts(self):
        cfg = ToyProblemConfig(n=3, d=4, p=5, m=2, seed=7)
        psi, y, xi = toy_data(cfg)
        prob = gen_toy_problem(cfg)
        from minisplit.prox import huber_value

        x = np.random.default_rng(3).standard_normal(4)
        vals = huber_value(cfg.delta1, cfg.delta2, psi @ x - y)
        direct = sum(np.linalg.norm(x - xi[i]) for i in range(3)) + vals.sum()
        assert abs(prob.objective(x) - direct) < 1e-12

    def test_objective_without_forwards_is_the_distance_sum(self):
        # with m = 0 the operators drop the data term, and so does the objective
        cfg = ToyProblemConfig(n=3, d=4, p=5, m=0, seed=7)
        _, _, xi = toy_data(cfg)
        prob = gen_toy_problem(cfg)
        for x in [*xi, *np.random.default_rng(3).standard_normal((5, 4))]:
            want = float(np.sum(np.linalg.norm(x - xi, axis=1)))
            assert np.float64(prob.objective(x)).tobytes() == np.float64(want).tobytes()

    def test_oversplit_rejected(self):
        with pytest.raises(ParameterError):
            ToyProblemConfig(p=4, m=5)

    @pytest.mark.parametrize("override", [np.ones(4), np.ones(9), 1.0],
                             ids=["too-short", "too-long", "scalar"])
    def test_beta_override_of_the_wrong_shape_rejected(self, override):
        # the short vector raised an IndexError, the scalar a TypeError and
        # the long one was cut to its first m entries
        with pytest.raises(ParameterError, match="beta_override"):
            gen_toy_problem(ToyProblemConfig(m=5), beta_override=override)

    def test_beta_override_sets_each_constant(self):
        prob = gen_toy_problem(ToyProblemConfig(m=5), beta_override=[1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_array_equal(prob.beta, [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_bad_knees_rejected(self):
        with pytest.raises(ParameterError):
            ToyProblemConfig(delta1=2.0, delta2=1.0)

    @pytest.mark.parametrize("hetero", [False, True])
    def test_declared_constants_dominate_true_ones(self, hetero):
        # the true constant of block I is lambda_max(Psi_I Psi_I^T); the
        # declared one rounds it up, by no more than 1e-14 relative
        for seed in range(200):
            cfg = ToyProblemConfig(n=5, m=5, seed=seed, hetero=hetero)
            psi, _, _ = toy_data(cfg)
            blocks = np.array_split(np.arange(cfg.p), cfg.m)
            for idx, fwd in zip(blocks, gen_toy_problem(cfg).forwards):
                true = np.linalg.eigvalsh(psi[idx] @ psi[idx].T)[-1]
                assert true <= fwd.beta <= true * (1.0 + 1e-14)


class TestToyOraclesMatchPublicFunctions:
    """The toy oracles and objective call the unchecked prox kernels with
    constants computed once; they must give the bits of the public functions
    composed as documented, at random points and at the knees."""

    D1, D2 = 0.1, 1.9  # knees whose squares round, so a reordered offset shows

    @pytest.fixture(params=[(hetero, m) for hetero in (False, True) for m in (1, 3, 5)],
                    ids=lambda c: f"hetero={c[0]}-m={c[1]}")
    def toy(self, request, monkeypatch):
        """Returns (psi, y, xi, problem, points). At x = 0 the residuals
        psi @ x - y run through -y, which holds the knees +-delta1, +-delta2,
        +-0.0 and their neighbours."""
        hetero, m = request.param
        cfg = ToyProblemConfig(n=3, d=6, p=24, m=m, delta1=self.D1, delta2=self.D2, seed=11,
                               hetero=hetero)
        psi, y, xi = toy_data(cfg)
        knees = np.array([self.D1, -self.D1, self.D2, -self.D2, 0.0, -0.0])
        y[:18] = np.concatenate([knees, np.nextafter(knees, np.inf), np.nextafter(knees, -np.inf)])
        monkeypatch.setattr(problems, "toy_data", lambda _: (psi, y, xi))
        rng = np.random.default_rng(12)
        points = [np.zeros(6), -np.zeros(6), *xi, *(rng.standard_normal((20, 6)) * 3)]
        return psi, y, xi, problems.gen_toy_problem(cfg), points

    def test_forwards(self, toy):
        psi, y, _, problem, points = toy
        blocks = np.array_split(np.arange(psi.shape[0]), problem.m)
        for oracle, idx in zip(problem.forwards, blocks, strict=True):
            psi_blk, y_blk = psi[idx], y[idx]
            for x in points:
                want = psi_blk.T @ huber_grad(self.D1, self.D2, psi_blk @ x - y_blk)
                assert oracle.evaluate(x).tobytes() == want.tobytes()

    def test_resolvents(self, toy):
        _, _, xi, problem, points = toy
        for oracle, anchor in zip(problem.resolvents, xi, strict=True):
            for v in points:
                diff = v - anchor
                dist = math.sqrt(diff @ diff)
                # dist itself is the knee between the two branches
                taus = [0.3, 2.5] + ([dist, np.nextafter(dist, 0.0), np.nextafter(dist, np.inf)]
                                     if dist else [])
                for tau in taus:
                    got = oracle.evaluate(tau, v)
                    assert got.tobytes() == prox_norm_offset(anchor, tau, v).tobytes()

    def test_objective(self, toy):
        psi, y, xi, problem, points = toy
        for x in points:
            want = float(np.sum(np.linalg.norm(x - xi, axis=1))
                         + np.sum(huber_value(self.D1, self.D2, psi @ x - y)))
            assert np.float64(problem.objective(x)).tobytes() == np.float64(want).tobytes()

    def test_objective_and_forwards_take_lists(self, toy):
        *_, problem, points = toy
        for x in points:
            assert problem.objective(list(x)) == problem.objective(x)
            for oracle in problem.forwards:
                assert oracle.evaluate(list(x)).tobytes() == oracle.evaluate(x).tobytes()


class TestPortfolioProblem:
    def test_counts(self):
        prob = gen_portfolio_problem(PortfolioProblemConfig(seed=0))
        assert prob.n == 5
        assert prob.m == 4

    def test_config_knows_the_resolvent_count(self):
        cfg = PortfolioProblemConfig(seed=1, chunks=3)
        assert cfg.n == gen_portfolio_problem(cfg).n
        # a property, so configurations serialize as before
        assert "n" not in dataclasses.asdict(cfg)

    def test_initial_portfolio_feasible_without_tightening(self):
        cfg = PortfolioProblemConfig(seed=1, zeta=(0.0, 0.0, 0.0))
        prob = gen_portfolio_problem(cfg)
        x0 = np.full(cfg.d, 1.0 / cfg.d)
        # every resolvent leaves the current portfolio where it is
        for oracle in prob.resolvents[1:]:
            np.testing.assert_allclose(oracle.evaluate(0.7, x0), x0, atol=1e-12)

    def test_chunk_gradients_match_finite_differences(self):
        cfg = PortfolioProblemConfig(seed=2)
        prob = gen_portfolio_problem(cfg)
        returns = synthetic_returns(cfg.p, cfg.d, cfg.seed)
        r_hat = returns.mean(axis=0)
        blocks = np.array_split(np.arange(cfg.p), cfg.chunks)
        rng = np.random.default_rng(4)
        h = 1e-6
        for idx, fwd in zip(blocks, prob.forwards):
            sig = np.cov(returns[idx], rowvar=False) / cfg.chunks

            def smooth(pt):
                return float(pt @ (sig @ pt) - (r_hat @ pt) / cfg.chunks)

            for _ in range(5):
                x = rng.standard_normal(cfg.d)
                g = fwd.evaluate(x)
                fd = np.array(
                    [
                        (smooth(x + h * e) - smooth(x - h * e)) / (2 * h)
                        for e in np.eye(cfg.d)
                    ]
                )
                np.testing.assert_allclose(g, fd, atol=1e-5)

    def test_forwards_cocoercive(self):
        prob = gen_portfolio_problem(PortfolioProblemConfig(seed=3))
        rng = np.random.default_rng(5)
        for oracle in prob.forwards:
            assert check_cocoercive(oracle, 6, rng, pairs=1000) <= 0.0

    def test_declared_constants_dominate_true_ones(self):
        for seed in range(200):
            cfg = PortfolioProblemConfig(seed=seed)
            returns = synthetic_returns(cfg.p, cfg.d, cfg.seed)
            blocks = np.array_split(np.arange(cfg.p), cfg.chunks)
            for idx, fwd in zip(blocks, gen_portfolio_problem(cfg).forwards):
                sig = np.cov(returns[idx], rowvar=False) / cfg.chunks
                true = 2.0 * np.linalg.eigvalsh(sig)[-1]
                assert true <= fwd.beta <= true * (1.0 + 1e-14)

    def test_resolvents_firmly_nonexpansive(self):
        prob = gen_portfolio_problem(PortfolioProblemConfig(seed=4))
        rng = np.random.default_rng(6)
        for oracle in prob.resolvents:
            assert check_firmly_nonexpansive(oracle, 6, rng, pairs=1000) <= 0.0

    def test_synthetic_returns_have_regime_block(self):
        r = synthetic_returns(120, 5, seed=7)
        crisis = r[30:60]
        calm = np.vstack([r[:30], r[60:]])
        assert crisis.std() > 2.0 * calm.std()

    def test_csv_roundtrip(self, tmp_path):
        r = synthetic_returns(24, 3, seed=8)
        path = tmp_path / "returns.csv"
        np.savetxt(path, r, delimiter=",")
        loaded = load_returns_csv(path)
        assert loaded.shape == (24, 3)
        np.testing.assert_allclose(loaded, r, atol=1e-12)
        cfg = PortfolioProblemConfig(d=3, p=24, chunks=3, seed=9, data=str(path))
        prob = gen_portfolio_problem(cfg)
        assert prob.m == 3 and prob.dimension == 3

    def test_csv_bad_cell_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.2\n0.3,oops\n")
        with pytest.raises(IngestionError, match=r"row 2, column 2"):
            load_returns_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_csv_non_finite_cell_located(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"0.1,0.2\n0.3,{cell}\n")
        with pytest.raises(IngestionError, match=r"row 2, column 2: not a finite number"):
            load_returns_csv(path)

    def test_csv_needs_two_asset_columns(self, tmp_path):
        path = tmp_path / "one.csv"
        np.savetxt(path, synthetic_returns(24, 1, seed=8), delimiter=",")
        cfg = PortfolioProblemConfig(chunks=3, seed=9, data=str(path))
        with pytest.raises(IngestionError, match="at least two asset columns, found 1"):
            gen_portfolio_problem(cfg)

    def test_csv_overflowing_covariance_rejected(self, tmp_path):
        path = tmp_path / "big.csv"
        np.savetxt(path, np.random.default_rng(0).uniform(0.5, 1.5, (8, 2)) * 1e200, delimiter=",")
        cfg = PortfolioProblemConfig(chunks=4, seed=9, data=str(path))
        with pytest.raises(IngestionError, match="covariance of chunk 1 is not finite"):
            gen_portfolio_problem(cfg)

    def test_csv_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.1,0.2\n0.3\n")
        with pytest.raises(IngestionError, match=r"row 2"):
            load_returns_csv(path)

    def test_zeta_range_enforced(self):
        with pytest.raises(ParameterError):
            PortfolioProblemConfig(zeta=(0.1, 1.2, 0.0))

    @pytest.mark.parametrize("weight", [0.0, -0.0, -1.0, math.nan, math.inf])
    def test_turnover_weight_must_be_finite_and_positive(self, weight):
        # the turnover resolvent calls the unchecked shrinkage kernel
        with pytest.raises(ParameterError, match="turnover_weight must be finite and positive"):
            PortfolioProblemConfig(turnover_weight=weight)


def _nudge(c, v, target):
    """``v`` moved along its coordinate of largest ``|c|`` by ulp steps until
    ``float(c @ v) == target``; each step moves ``c @ v`` by less than an ulp
    of ``target``, so every float on the way is met."""
    k = int(np.argmax(np.abs(c)))
    v = v.copy()
    for _ in range(100_000):
        dot = float(c @ v)
        if dot == target:
            return v
        v[k] = np.nextafter(v[k], np.inf if (dot < target) == (c[k] > 0) else -np.inf)
    raise AssertionError("could not reach the target dot product")


class TestPortfolioOraclesMatchPublicFunctions:
    """The portfolio oracles call the unchecked prox kernels with constants
    computed once; they must give the bits of the public functions composed
    as documented, at random points and at the branch edges of each
    resolvent: simplex ties, halfspace slacks of 0 and +-1 ulp, shrinkage
    knees and signed zeros."""

    @pytest.fixture(params=[(4, 1.0), (3, 0.3)], ids=lambda c: f"chunks={c[0]}-weight={c[1]}")
    def portfolio(self, request):
        """Returns (data, problem, points); data holds the generator's
        covariance chunks, mean returns, current portfolio and emission
        halfspaces, rebuilt as its docstring describes."""
        chunks, weight = request.param
        cfg = PortfolioProblemConfig(seed=13, chunks=chunks, turnover_weight=weight)
        returns = synthetic_returns(cfg.p, cfg.d, cfg.seed)
        rng = np.random.default_rng(cfg.seed + 1)
        carbon = [rng.uniform(0.5, 2.0, size=cfg.d) * s for s in (1.0, 0.6, 0.3)]
        x0 = np.full(cfg.d, 1.0 / cfg.d)
        data = {
            "sigmas": [np.cov(returns[idx], rowvar=False) / chunks
                       for idx in np.array_split(np.arange(cfg.p), chunks)],
            "r_hat": returns.mean(axis=0),
            "x0": x0,
            "halfspaces": [(c, (1.0 - z) * float(c @ x0)) for c, z in zip(carbon, cfg.zeta)],
            "weight": weight,
        }
        points = [np.zeros(cfg.d), -np.zeros(cfg.d), x0, -x0,
                  *(np.random.default_rng(14).standard_normal((20, cfg.d)) * 0.5)]
        return data, gen_portfolio_problem(cfg), points

    @staticmethod
    def _same(got, want, v=None):
        assert got.tobytes() == want.tobytes()
        # the engine may write into its inputs, so results are fresh arrays
        assert v is None or not np.shares_memory(got, v)

    def test_forwards(self, portfolio):
        data, problem, points = portfolio
        m = problem.m
        for oracle, sig in zip(problem.forwards, data["sigmas"], strict=True):
            for x in points:
                self._same(oracle.evaluate(x), 2.0 * (sig @ x) - data["r_hat"] / m)

    def test_turnover_resolvent(self, portfolio):
        data, problem, points = portfolio
        x0, w = data["x0"], data["weight"]
        oracle = problem.resolvents[0]
        for v in points:
            # each |v_i - x0_i| is a knee of the shrinkage, met when step * w equals it
            knees = np.abs(v - x0)
            steps = [0.05, 0.7] + [s for k in knees if k for s in
                                   (k / w, np.nextafter(k / w, 0.0), np.nextafter(k / w, np.inf))]
            for step in steps:
                self._same(oracle.evaluate(step, v), soft_threshold_offset(x0, step * w, v), v)

    def test_simplex_resolvent(self, portfolio):
        data, problem, points = portfolio
        d = data["x0"].size
        tied = np.full(d, 0.3)
        tied[: d // 2] = 0.7
        dyadic = 0.5 ** np.arange(1, d + 1)
        dyadic[-1] *= 2.0  # sums to exactly 1
        edges = [tied, np.full(d, 0.3), np.ones(d), dyadic, dyadic[::-1].copy(),
                 np.where(np.arange(d) < 2, 0.5, -0.0), np.nextafter(dyadic, np.inf),
                 np.nextafter(dyadic, -np.inf)]
        oracle = problem.resolvents[1]
        for v in [*points, *edges]:
            assert np.isclose(project_simplex(v).sum(), 1.0)
            for step in (0.05, 0.7):
                self._same(oracle.evaluate(step, v), project_simplex(v), v)

    def test_halfspace_resolvents(self, portfolio):
        data, problem, points = portfolio
        for oracle, (c, b) in zip(problem.resolvents[2:], data["halfspaces"], strict=True):
            on_plane = _nudge(c, b * c / float(c @ c), b)
            edges = [on_plane, _nudge(c, on_plane, np.nextafter(b, np.inf)),
                     _nudge(c, on_plane, np.nextafter(b, -np.inf))]
            assert [float(c @ v) - b for v in edges] == [
                0.0, np.nextafter(b, np.inf) - b, np.nextafter(b, -np.inf) - b]
            for v in [*points, *edges]:
                self._same(oracle.evaluate(0.7, v), project_halfspace(c, b, v), v)

    def test_objective(self, portfolio):
        data, problem, points = portfolio
        sigma_total = np.sum(data["sigmas"], axis=0)
        x0, r_hat, w = data["x0"], data["r_hat"], data["weight"]
        for x in points:
            want = float(x @ (sigma_total @ x) - r_hat @ x + w * np.sum(np.abs(x - x0)))
            assert np.float64(problem.objective(x)).tobytes() == np.float64(want).tobytes()

    def test_objective_and_forwards_take_lists(self, portfolio):
        _, problem, points = portfolio
        for x in points:
            assert problem.objective(list(x)) == problem.objective(x)
            for oracle in problem.forwards:
                self._same(oracle.evaluate(list(x)), oracle.evaluate(x))
