import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minisplit.errors import ParameterError
from minisplit.graphs import complete_graph, graph_laplacian
from minisplit.heuristics import ROUTING_TOL, optimize_routing, sfb_plus_params
from minisplit.linalg import spectral_norm
from minisplit.params import validate_params
from minisplit.schedule import is_causal_pair, random_causal_pair, random_schedule, support_masks


def grid_oracle_single_forward(beta):
    """Exhaustive search for the 3-resolvent, 1-forward instance.

    With schedule (0, 1, 1) the routing is K = (1, 0, 0) and H = (0, a, 1-a);
    the objective is sqrt(beta * (1 + a^2 + (1-a)^2)). Grid step 1e-4.
    """
    a = np.arange(0.0, 1.0 + 1e-4, 1e-4)
    vals = np.sqrt(beta * (1.0 + a**2 + (1.0 - a) ** 2))
    return float(np.min(vals))


def routing_instance(seed):
    """Seeded routing instance: n in 3..8, m in 1..6, beta uniform on [0.1, 3]."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    m = int(rng.integers(1, 7))
    beta = rng.uniform(0.1, 3.0, m)
    return n, m, random_schedule(n, m, seed), beta


#: Objectives of the power-iteration optimizer (default budget) on
#: ``routing_instance(seed)`` for seeds 0..23; later optimizers must not lose.
PINNED_OBJECTIVES = [
    1.296299833221597,  # n=8, m=4, f=[0, 0, 1, 1, 2, 3, 4, 4]
    2.0538409198364347,  # n=5, m=4, f=[0, 2, 2, 3, 4]
    1.1539302297706748,  # n=8, m=2, f=[0, 0, 0, 0, 1, 2, 2, 2]
    0.7421087038905301,  # n=7, m=1, f=[0, 0, 0, 0, 0, 1, 1]
    2.378991558384336,  # n=7, m=6, f=[0, 3, 5, 6, 6, 6, 6]
    1.6924209758951778,  # n=7, m=5, f=[0, 0, 2, 4, 4, 4, 5]
    2.277595228561254,  # n=5, m=4, f=[0, 2, 2, 2, 4]
    2.40557586519824,  # n=8, m=4, f=[0, 2, 3, 3, 3, 4, 4, 4]
    1.5251106501118716,  # n=7, m=2, f=[0, 0, 0, 0, 2, 2, 2]
    2.871338682237922,  # n=5, m=6, f=[0, 2, 6, 6, 6]
    1.727976442179609,  # n=7, m=6, f=[0, 1, 1, 5, 5, 6, 6]
    1.5237646477112203,  # n=3, m=1, f=[0, 0, 1]
    1.4715824596955251,  # n=6, m=2, f=[0, 0, 1, 2, 2, 2]
    2.4575331728056025,  # n=8, m=6, f=[0, 0, 5, 5, 5, 6, 6, 6]
    3.780695928227523,  # n=3, m=5, f=[0, 0, 5]
    1.6826242078160134,  # n=8, m=5, f=[0, 1, 2, 4, 4, 4, 5, 5]
    1.513027902609795,  # n=6, m=4, f=[0, 2, 2, 2, 4, 4]
    1.3400663584761674,  # n=7, m=6, f=[0, 0, 1, 3, 5, 5, 6]
    1.2081544915957656,  # n=8, m=3, f=[0, 0, 1, 1, 2, 3, 3, 3]
    1.8299760405458814,  # n=6, m=3, f=[0, 1, 1, 2, 3, 3]
    0.8570018173578671,  # n=8, m=2, f=[0, 0, 0, 0, 1, 2, 2, 2]
    2.1651493879799095,  # n=4, m=5, f=[0, 1, 4, 5]
    1.0925745896656651,  # n=7, m=3, f=[0, 0, 1, 2, 3, 3, 3]
    3.3390368496659644,  # n=3, m=5, f=[0, 0, 5]
]


class TestHeuristicLaplacian:
    def test_matches_complete_graph(self):
        np.testing.assert_array_equal(
            graph_laplacian(complete_graph(3)),
            [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]],
        )

    def test_connectivity_and_norm(self):
        for n in range(2, 9):
            vals = np.sort(np.linalg.eigvalsh(graph_laplacian(complete_graph(n))))
            assert abs(vals[1] - n) < 1e-12  # algebraic connectivity
            assert abs(vals[-1] - n) < 1e-12  # spectral norm


class TestOptimizeRouting:
    def test_three_resolvent_single_forward_optimum(self):
        res = optimize_routing(3, 1, [0, 1, 1], np.array([1.0]))
        target = grid_oracle_single_forward(1.0)
        assert abs(res.objective - target) <= 1e-3 * target
        np.testing.assert_allclose(res.H.ravel(), [0.0, 0.5, 0.5], atol=1e-3)
        np.testing.assert_array_equal(res.K.ravel(), [1.0, 0.0, 0.0])

    def test_scales_with_beta(self):
        beta = 2.7
        res = optimize_routing(3, 1, [0, 1, 1], np.array([beta]))
        assert abs(res.objective - np.sqrt(1.5 * beta)) <= 1e-3 * np.sqrt(1.5 * beta)

    def test_two_resolvents_forced_pair(self):
        for m in range(1, 7):
            beta = np.random.default_rng(m).uniform(0.1, 3.0, m)
            res = optimize_routing(2, m, [0, m], beta)
            np.testing.assert_array_equal(res.H, np.vstack([np.zeros(m), np.ones(m)]))
            np.testing.assert_array_equal(res.K, np.column_stack([np.ones(m), np.zeros(m)]))
            assert res.iterations_used == 0
            assert res.converged
            # the forced pair has penalty matrix (sum beta) * rank-one laplacian
            assert abs(res.objective**2 - 2 * beta.sum()) < 1e-12 * beta.sum()

    @pytest.mark.parametrize("f", [[0, 0, 3], [0, 3, 3]])
    def test_three_resolvents_never_forced(self, f):
        # for n >= 3 node 0 is in every K row and node n-1 in every H column,
        # so at most one side has singleton supports and the pair stays free;
        # here the free entries are interchangeable, so the uniform start is
        # optimal and the optimizer must run and keep it
        h_mask, k_mask = support_masks(np.array(f), 3)
        assert np.all(h_mask.sum(axis=0) == 1) != np.all(k_mask.sum(axis=1) == 1)
        beta = np.array([2.0, 0.5, 1.0])
        res = optimize_routing(3, 3, f, beta)
        h0 = np.where(h_mask, 1.0 / h_mask.sum(axis=0)[None, :], 0.0)
        k0 = np.where(k_mask, 1.0 / k_mask.sum(axis=1)[:, None], 0.0)
        start = spectral_norm(np.sqrt(beta)[:, None] * (k0 - h0.T))
        assert res.iterations_used > 0
        assert abs(res.objective - start) <= 1e-12 * start
        np.testing.assert_allclose(res.H, h0, atol=1e-12)
        np.testing.assert_allclose(res.K, k0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(len(PINNED_OBJECTIVES)))
    def test_no_worse_than_pinned_objectives(self, seed):
        res = optimize_routing(*routing_instance(seed))
        assert res.objective <= PINNED_OBJECTIVES[seed] * (1.0 + 1e-6)

    def test_no_forwards(self):
        res = optimize_routing(4, 0, [0, 0, 0, 0], np.zeros(0))
        assert res.objective == 0.0
        assert res.converged

    def test_constraints_hold_exactly(self):
        for seed in range(10):
            n = 3 + seed % 4
            m = 1 + seed % 5
            f = random_schedule(n, m, seed)
            beta = np.random.default_rng(seed).uniform(0.1, 3.0, m)
            res = optimize_routing(n, m, f, beta, budget=120)
            np.testing.assert_allclose(res.H.sum(axis=0), 1.0, atol=1e-12)
            np.testing.assert_allclose(res.K.sum(axis=1), 1.0, atol=1e-12)
            assert is_causal_pair(res.H, res.K, f)

    def test_objective_consistent_with_spectral_norm(self):
        f = random_schedule(5, 4, 1)
        beta = np.array([1.0, 0.4, 2.2, 0.9])
        res = optimize_routing(5, 4, f, beta, budget=200)
        direct = spectral_norm(np.sqrt(beta)[:, None] * (res.K - res.H.T))
        assert abs(res.objective - direct) <= 1e-9

    def test_improves_on_uniform_start(self):
        f = np.array([0, 1, 2, 4])
        beta = np.array([3.0, 1.0, 0.5, 2.0])
        res = optimize_routing(4, 4, f, beta)
        # uniform start objective, computed independently
        h_mask, k_mask = support_masks(f, 4)
        h0 = np.where(h_mask, 1.0 / h_mask.sum(axis=0)[None, :], 0.0)
        k0 = np.where(k_mask, 1.0 / k_mask.sum(axis=1)[:, None], 0.0)
        start = spectral_norm(np.sqrt(beta)[:, None] * (k0 - h0.T))
        assert res.objective <= start + 1e-12

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ParameterError):
            optimize_routing(3, 2, [0, 2, 1], np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_beta_rejected(self, bad):
        with pytest.raises(ParameterError, match="beta"):
            optimize_routing(4, 2, [0, 1, 1, 2], np.array([1.0, bad]))


class TestRoutingCertificate:
    @pytest.mark.parametrize("seed", range(len(PINNED_OBJECTIVES)))
    def test_pinned_instances_converge_to_a_certified_gap(self, seed):
        res = optimize_routing(*routing_instance(seed))
        assert res.converged
        assert res.lower_bound <= res.objective * (1.0 + 1e-12)
        assert res.objective - res.lower_bound <= ROUTING_TOL * res.objective
        assert 0 < res.iterations_used <= 100

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 8), m=st.integers(1, 6))
    def test_every_feasible_pair_is_above_the_bound(self, seed, n, m):
        rng = np.random.default_rng(seed)
        f = random_schedule(n, m, seed)
        beta = rng.uniform(0.1, 3.0, m)
        res = optimize_routing(n, m, f, beta)
        root_beta = np.sqrt(beta)[:, None]
        for k in range(5):
            pair = random_causal_pair(n, m, f, seed=seed + k)
            value = spectral_norm(root_beta * (pair.K - pair.H.T))
            assert value >= res.lower_bound * (1.0 - 1e-12)

    def test_bound_holds_when_the_budget_runs_out(self):
        # the certificate is a projection, valid at any iterate
        n, m, f, beta = routing_instance(0)
        full = optimize_routing(n, m, f, beta)
        for budget in (0, 3, 10):
            res = optimize_routing(n, m, f, beta, budget=budget)
            assert res.iterations_used <= budget
            assert res.lower_bound <= full.objective * (1.0 + 1e-12)
            assert res.objective >= full.objective * (1.0 - 1e-12)
        assert not optimize_routing(n, m, f, beta, budget=3).converged

    def test_zero_beta_rows_stay_at_the_start(self):
        # a row of X with beta = 0 is identically zero, whatever H and K hold there
        f = np.array([0, 1, 2, 3, 3])
        beta = np.array([1.5, 0.0, 0.7])
        res = optimize_routing(5, 3, f, beta)
        h_mask, k_mask = support_masks(f, 3)
        np.testing.assert_array_equal(res.H[:, 1], np.where(h_mask[:, 1], 1.0 / h_mask[:, 1].sum(), 0.0))
        np.testing.assert_array_equal(res.K[1], np.where(k_mask[1], 1.0 / k_mask[1].sum(), 0.0))
        assert res.converged
        assert is_causal_pair(res.H, res.K, f)

    def test_forced_pair_is_its_own_certificate(self):
        beta = np.array([0.7, 1.1, 0.4])
        res = optimize_routing(2, 3, [0, 3], beta)
        assert res.lower_bound == res.objective

    def test_all_zero_beta_returns_the_start(self):
        res = optimize_routing(4, 2, [0, 1, 1, 2], np.zeros(2))
        assert res.objective == res.lower_bound == 0.0
        assert res.iterations_used == 0 and res.converged


class TestSfbPlus:
    def test_two_resolvent_reduction(self):
        beta = 1.8
        params = sfb_plus_params(2, 1, [0, 1], np.array([beta]))
        expect_s = (1.0 + beta / 2.0) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(params.S, expect_s, atol=1e-12)
        np.testing.assert_allclose(params.gamma, 2.0 / (1.0 + beta / 2.0), atol=1e-12)

    def test_resolvent_only(self):
        params = sfb_plus_params(3, 0, [0, 0, 0], np.zeros(0))
        np.testing.assert_allclose(params.S, graph_laplacian(complete_graph(3)), atol=1e-12)
        np.testing.assert_allclose(params.gamma, 1.0, atol=1e-12)

    def test_validates_across_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(0, 6))
            f = random_schedule(n, m, trial)
            beta = rng.uniform(0.0, 4.0, m)
            params = sfb_plus_params(n, m, f, beta, budget=80)
            assert validate_params(params).passed

    def test_slack_is_empty(self):
        params = sfb_plus_params(4, 2, [0, 1, 2, 2], np.array([1.0, 2.0]))
        assert params.P.shape[1] == 0
