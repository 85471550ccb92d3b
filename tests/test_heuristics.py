import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minisplit import heuristics
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


#: (seed, n, m) draws of the routing property whose scaled Newton system is
#: numerically singular (for example rank 31 of 37 at condition number 3e17).
SINGULAR_NEWTON_DRAWS = [
    (105798471, 8, 6),
    (1257791212, 4, 6),
    (1718211077, 8, 6),
    (304131479, 4, 5),
    (107934570, 4, 4),
]


#: (seed, n, m) draws of the routing property whose central-path gap meets
#: its stop rule while the certified gap is still above ROUTING_TOL (2.0e-9
#: after 48 steps and 1.0e-9 after 37); in the second, the next stage meets a
#: singular Newton system at once.
CERTIFICATE_LAG_DRAWS = [
    (1607623512, 8, 6),
    (1157368855, 6, 6),
]


def _reference_log_det_barrier(f_mat):
    try:
        chol = np.linalg.cholesky(f_mat)
    except np.linalg.LinAlgError:
        return None
    return -2.0 * float(np.sum(np.log(np.diag(chol))))


def reference_barrier_routing(x0, sigma0, moves, budget, certify):
    """The barrier path as first written, forming the Newton system anew at
    every step and F^-1 anew for every certificate: the reference that
    ``heuristics._barrier_routing`` must match byte for byte."""
    m, n = x0.shape
    size, p = m + n, moves.shape[0]
    stack = np.zeros((p + 1, size, size))
    stack[0] = np.eye(size)
    stack[1:, :m, m:] = moves
    stack[1:, m:, :m] = moves.transpose(0, 2, 1)
    flat = stack.reshape(p + 1, -1)
    f_base = np.zeros((size, size))
    f_base[:m, m:] = x0
    f_base[m:, :m] = x0.T

    def f_at(v):
        return f_base + (v @ flat).reshape(size, size)

    v = np.zeros(p + 1)
    v[0] = 2.0 * sigma0
    weight = size / sigma0
    barrier = _reference_log_det_barrier(f_at(v))
    steps, certified_at = 0, None
    while True:
        while steps < budget:
            prod = np.linalg.inv(f_at(v)) @ stack
            grad = -np.trace(prod, axis1=1, axis2=2)
            grad[0] += weight
            hess = prod.reshape(p + 1, -1) @ prod.transpose(0, 2, 1).reshape(p + 1, -1).T
            scale = 1.0 / np.sqrt(np.diag(hess))
            scaled = hess * scale[:, None] * scale[None, :]
            try:
                step = -scale * np.linalg.solve(scaled, grad * scale)
            except np.linalg.LinAlgError:
                if certified_at is None:
                    break
                step = -scale * np.linalg.lstsq(scaled, grad * scale)[0]
            decrement = -float(grad @ step)
            if decrement <= 2.0 * heuristics._CENTERING_TOL:
                break
            steps += 1
            value = weight * v[0] + barrier
            alpha = 1.0
            while alpha > 1e-12:
                trial = v + alpha * step
                trial_barrier = _reference_log_det_barrier(f_at(trial))
                if (trial_barrier is not None
                        and weight * trial[0] + trial_barrier <= value - 0.25 * alpha * decrement):
                    break
                alpha *= 0.5
            else:
                break
            v, barrier = trial, trial_barrier
        if steps >= budget or size / weight <= 0.1 * ROUTING_TOL * v[0]:
            result = certify(v[1:], np.linalg.inv(f_at(v)), steps)
            if result.converged or steps >= budget or steps == certified_at:
                return result
            certified_at = steps
        weight *= heuristics._BARRIER_GROWTH


def routing_bytes(res):
    """Every field of a RoutingResult, as bytes."""
    return (res.H.tobytes(), res.K.tobytes(), float(res.objective).hex(),
            float(res.lower_bound).hex(), res.iterations_used, res.converged)


def property_instance(seed, n, m):
    """The routing property's instance: schedule and beta uniform on [0.1, 3]
    drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return random_schedule(n, m, seed), rng.uniform(0.1, 3.0, m)


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
    @example(*SINGULAR_NEWTON_DRAWS[0])
    @example(*SINGULAR_NEWTON_DRAWS[1])
    @example(*SINGULAR_NEWTON_DRAWS[2])
    @example(*SINGULAR_NEWTON_DRAWS[3])
    @example(*SINGULAR_NEWTON_DRAWS[4])
    @example(*CERTIFICATE_LAG_DRAWS[0])
    @example(*CERTIFICATE_LAG_DRAWS[1])
    def test_every_feasible_pair_is_above_the_bound(self, seed, n, m):
        f, beta = property_instance(seed, n, m)
        res = optimize_routing(n, m, f, beta)
        root_beta = np.sqrt(beta)[:, None]
        for k in range(5):
            pair = random_causal_pair(n, m, f, seed=seed + k)
            value = spectral_norm(root_beta * (pair.K - pair.H.T))
            assert value >= res.lower_bound * (1.0 - 1e-12)

    @pytest.mark.parametrize("seed, n, m", SINGULAR_NEWTON_DRAWS)
    def test_singular_newton_system_ends_its_stage(self, seed, n, m):
        # a numerically singular Newton system ends the centering stage, and
        # the later stages still close the certified gap
        f, beta = property_instance(seed, n, m)
        res = optimize_routing(n, m, f, beta)
        assert res.converged
        assert res.objective - res.lower_bound <= ROUTING_TOL * res.objective
        assert validate_params(sfb_plus_params(n, m, f, beta)).passed

    @pytest.mark.parametrize("seed, n, m", CERTIFICATE_LAG_DRAWS)
    def test_stages_go_on_until_the_certificate_closes(self, seed, n, m):
        f, beta = property_instance(seed, n, m)
        res = optimize_routing(n, m, f, beta)
        assert res.converged
        assert res.objective - res.lower_bound <= ROUTING_TOL * res.objective
        assert res.iterations_used <= 100
        assert validate_params(sfb_plus_params(n, m, f, beta)).passed

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


class TestBarrierReference:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(3, 8), m=st.integers(1, 8),
           zero_bits=st.integers(0, 255), budget=st.one_of(st.integers(1, 60), st.just(500)))
    @example(*SINGULAR_NEWTON_DRAWS[0], 0, 500)
    @example(*SINGULAR_NEWTON_DRAWS[3], 0, 500)
    @example(*CERTIFICATE_LAG_DRAWS[0], 0, 500)
    @example(*CERTIFICATE_LAG_DRAWS[1], 0, 500)
    def test_matches_the_reference_loop_byte_for_byte(self, seed, n, m, zero_bits, budget):
        # beta[j] is zero where bit j of zero_bits is set
        f, beta = property_instance(seed, n, m)
        beta[[(zero_bits >> j) & 1 == 1 for j in range(m)]] = 0.0
        shipped = optimize_routing(n, m, f, beta, budget=budget)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heuristics, "_barrier_routing", reference_barrier_routing)
            reference = optimize_routing(n, m, f, beta, budget=budget)
        assert routing_bytes(shipped) == routing_bytes(reference)


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
            params = sfb_plus_params(n, m, f, beta)
            assert validate_params(params).passed

    def test_slack_is_empty(self):
        params = sfb_plus_params(4, 2, [0, 1, 2, 2], np.array([1.0, 2.0]))
        assert params.P.shape[1] == 0
