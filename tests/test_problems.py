import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_oversplit_rejected(self):
        with pytest.raises(ParameterError):
            ToyProblemConfig(p=4, m=5)

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


class TestPortfolioProblem:
    def test_counts(self):
        prob = gen_portfolio_problem(PortfolioProblemConfig(seed=0))
        assert prob.n == 5
        assert prob.m == 4

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
        loaded = load_returns_csv(path, expected_assets=3)
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

    def test_csv_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.1,0.2\n0.3\n")
        with pytest.raises(IngestionError, match=r"row 2"):
            load_returns_csv(path)

    def test_zeta_range_enforced(self):
        with pytest.raises(ParameterError):
            PortfolioProblemConfig(zeta=(0.1, 1.2, 0.0))
