import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_params
from minisplit.errors import NotRepresentableError, ParameterError
from minisplit.graphs import complete_graph, graph_laplacian
from minisplit.params import (
    SplittingParams,
    assemble,
    factor_laplacian,
    forward_penalty,
    from_components,
    params_from_dict,
    params_to_dict,
    random_coupling,
    random_slack,
    validate_params,
)
from minisplit.schedule import CausalPair, random_causal_pair, random_schedule


def _dy_pair(m=1):
    h = np.vstack([np.zeros(m), np.ones(m)])
    k = np.column_stack([np.ones(m), np.zeros(m)])
    return CausalPair(h, k, np.array([0, m]))


class TestCompleteLaplacian:
    def test_small_values(self):
        np.testing.assert_array_equal(
            graph_laplacian(complete_graph(3)), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        )
        np.testing.assert_array_equal(graph_laplacian(complete_graph(2)), [[1, -1], [-1, 1]])

    def test_spectrum(self):
        for n in range(2, 9):
            vals = np.sort(np.linalg.eigvalsh(graph_laplacian(complete_graph(n))))
            np.testing.assert_allclose(vals[0], 0.0, atol=1e-12)
            np.testing.assert_allclose(vals[1:], n, atol=1e-12)


class TestRandomCoupling:
    def test_column_sums_vanish(self):
        for seed in range(20):
            m_mat = random_coupling(4, seed=seed)
            assert np.max(np.abs(m_mat.sum(axis=0))) <= 1e-12 * max(1.0, np.max(np.abs(m_mat)))

    def test_two_rows_proportional_to_difference(self):
        m_mat = random_coupling(2, seed=1)
        np.testing.assert_allclose(m_mat[0, 0], -m_mat[1, 0], atol=1e-15)

    def test_deterministic(self):
        np.testing.assert_array_equal(random_coupling(5, seed=7), random_coupling(5, seed=7))

    def test_full_rank(self):
        for seed in range(20):
            sv = np.linalg.svd(random_coupling(6, seed=seed), compute_uv=False)
            assert sv[-1] > 1e-10 * sv[0]


class TestFactorLaplacian:
    def test_reconstruction(self):
        for n in range(2, 9):
            lap = graph_laplacian(complete_graph(n))
            m_mat = factor_laplacian(lap)
            assert m_mat.shape == (n, n - 1)
            np.testing.assert_allclose(m_mat @ m_mat.T, lap, atol=1e-10 * n)
            assert np.max(np.abs(m_mat.T @ np.ones(n))) < 1e-10 * n

    def test_roundtrip_through_coupling(self):
        for seed in range(10):
            m_mat = random_coupling(5, seed=seed)
            lap = m_mat @ m_mat.T
            again = factor_laplacian(lap)
            np.testing.assert_allclose(again @ again.T, lap, atol=1e-9 * max(1, np.max(np.abs(lap))))

    def test_rejects_nonzero_row_sums(self):
        with pytest.raises(ParameterError):
            factor_laplacian(np.eye(3))

    def test_rejects_rank_deficiency(self):
        # disconnected graph: two isolated pairs
        lap = np.zeros((4, 4))
        lap[:2, :2] = [[1, -1], [-1, 1]]
        lap[2:, 2:] = [[1, -1], [-1, 1]]
        with pytest.raises(ParameterError):
            factor_laplacian(lap)


class TestAssemble:
    def test_two_resolvent_one_forward(self):
        params = assemble(
            np.array([[1.0], [-1.0]]), None, _dy_pair(), np.array([2.0]), 0.9
        )
        np.testing.assert_array_equal(params.S, [[2.0, -2.0], [-2.0, 2.0]])
        np.testing.assert_array_equal(params.gamma, [1.0, 1.0])
        np.testing.assert_array_equal(params.L, [[0.0, 0.0], [2.0, 0.0]])

    def test_resolvent_only_complete_coupling(self):
        m_mat = factor_laplacian(graph_laplacian(complete_graph(3)))
        params = assemble(m_mat, None, None, np.zeros(0), 0.9)
        np.testing.assert_allclose(params.S, graph_laplacian(complete_graph(3)), atol=1e-12)
        np.testing.assert_allclose(params.gamma, 1.0, atol=1e-12)

    def test_rank_deficient_coupling_rejected(self):
        bad = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ParameterError):
            assemble(bad, None, None, np.zeros(0), 0.9)

    def test_uncentered_coupling_rejected(self):
        with pytest.raises(ParameterError):
            assemble(np.array([[1.0], [1.0]]), None, None, np.zeros(0), 0.9)

    def test_theta_range_enforced(self):
        m_mat = np.array([[1.0], [-1.0]])
        with pytest.raises(ParameterError):
            assemble(m_mat, None, None, np.zeros(0), 1.0)

    @pytest.mark.parametrize("field, m_scale, p_mat, beta", [
        ("coupling factor M", np.nan, None, [1.0]),
        ("slack factor P", 1.0, np.array([[np.nan], [np.nan]]), [1.0]),
        ("beta", 1.0, None, [np.nan]),
        ("beta", 1.0, None, [np.inf]),
    ])
    def test_non_finite_input_is_named(self, field, m_scale, p_mat, beta):
        m_mat = m_scale * np.array([[1.0], [-1.0]])
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            assemble(m_mat, p_mat, _dy_pair(), np.array(beta), 0.9)

    def test_single_resolvent_rejected(self):
        with pytest.raises(ParameterError, match="at least two resolvents, got n=1"):
            assemble(np.zeros((1, 0)), None, None, np.zeros(0), 0.9)

    def test_degenerate_step_matrix_rejected(self):
        m_mat = factor_laplacian(graph_laplacian(complete_graph(3)))
        s_bad = np.diag([0.0, 1.0, 1.0])
        with pytest.raises(ParameterError):
            from_components(m_mat, s_bad, None, np.zeros(0), 0.9)

    def test_slack_and_step_matrix_together_rejected(self):
        # a saved bundle keeps P and reloads with the S that P derives, not the S it was given
        m_mat, p_mat = np.array([[1.0], [-1.0]]), np.array([[0.5], [-0.5]])
        s_mat = 3.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ParameterError, match="slack factor P or a step matrix S, not both"):
            SplittingParams(m_mat, p_mat, CausalPair.empty(2), np.zeros(0), 0.9, s_mat)


class TestFromComponents:
    def test_stores_the_step_matrix_it_was_given(self):
        m_mat = factor_laplacian(graph_laplacian(complete_graph(3)))
        s_mat = 2.0 * graph_laplacian(complete_graph(3))
        params = from_components(m_mat, s_mat, None, np.zeros(0), 0.9)
        assert params.P is None
        np.testing.assert_array_equal(params.S, s_mat)

    def test_non_finite_step_matrix_is_named(self):
        s_mat = np.full((2, 2), np.nan)
        with pytest.raises(ParameterError, match="step matrix S must be finite"):
            from_components(np.array([[1.0], [-1.0]]), s_mat, None, np.zeros(0), 0.9)

    def test_single_resolvent_rejected(self):
        with pytest.raises(ParameterError, match="at least two resolvents, got n=1"):
            from_components(np.zeros((1, 0)), np.ones((1, 1)), None, np.zeros(0), 0.9)


def _door_inputs(case):
    """(M, pair, beta, S) of a valid n = 3 bundle with two forwards, or
    the same with the one defect named by ``case``."""
    m_mat = factor_laplacian(graph_laplacian(complete_graph(3)))
    pair = random_causal_pair(3, 2, [0, 1, 2], seed=4)
    beta = np.array([1.0, 2.0])
    s_mat = m_mat @ m_mat.T + forward_penalty(pair, beta)
    if case == "nan-M":
        m_mat = np.where(np.eye(3, 2) > 0, np.nan, m_mat)
    elif case == "uncentered-M":
        m_mat = m_mat + 0.5
    elif case == "small-uncentered-M":
        # column sums of 9e-10 each, so ||M^T 1|| = 1.3e-9 exceeds 1e-9 max(1, sigma_max)
        m_mat = 1e-3 * m_mat + 3e-10
    elif case == "zero-M":
        m_mat = np.zeros((3, 2))
    elif case == "wide-M":
        m_mat = np.column_stack([m_mat, m_mat[:, 0]])
    elif case == "negative-beta":
        beta = np.array([1.0, -2.0])
    elif case == "short-beta":
        beta = np.array([1.0])
    elif case == "pair-for-four":
        pair = random_causal_pair(4, 2, [0, 1, 1, 2], seed=4)
    elif case == "nan-H":
        pair = CausalPair(np.where(pair.H > 0, np.nan, pair.H), pair.K, pair.F)
    elif case == "nan-S":
        s_mat = np.full((3, 3), np.nan)
    elif case == "nan-off-diagonal-S":
        s_mat = np.where(np.eye(3) > 0, s_mat, np.nan)
    elif case == "misshaped-S":
        s_mat = np.pad(s_mat, ((0, 1), (0, 1)))
    return m_mat, pair, beta, s_mat


class TestEveryDoor:
    """Direct construction, ``assemble`` and ``from_components`` refuse the
    same bundles with the same messages: the constructor checks them all.
    ``assemble`` derives its S, so the S cases leave it out."""

    DOORS = {
        "direct": lambda m_mat, pair, beta, s_mat: SplittingParams(m_mat, None, pair, beta, 0.9, s_mat),
        "assemble": lambda m_mat, pair, beta, s_mat: assemble(m_mat, None, pair, beta, 0.9),
        "from_components": lambda m_mat, pair, beta, s_mat: from_components(m_mat, s_mat, pair, beta,
                                                                            0.9),
    }

    MESSAGES = {
        "nan-M": "coupling factor M must be finite",
        "uncentered-M": "coupling factor M must have zero column sums",
        "small-uncentered-M": "coupling factor M must have zero column sums",
        "zero-M": "coupling factor M must have full column rank n-1",
        "wide-M": "coupling factor M must have n-1 columns",
        "negative-beta": "cocoercivity parameters beta must be finite and nonnegative",
        "short-beta": "beta length must equal the number of forward operators",
        "pair-for-four": "routing pair does not match the number of resolvents",
        "nan-H": "routing matrix H must be finite",
        "nan-S": "step matrix S must be finite",
        "nan-off-diagonal-S": "step matrix S must be finite",
        "misshaped-S": "step matrix S must be n x n",
    }

    def test_the_valid_inputs_pass_every_door(self):
        for door in self.DOORS.values():
            assert validate_params(door(*_door_inputs(None))).passed

    @pytest.mark.parametrize("case", MESSAGES)
    def test_every_door_refuses_the_same_input(self, case):
        for name, door in self.DOORS.items():
            if case.endswith("-S") and name == "assemble":
                continue
            with pytest.raises(ParameterError, match=self.MESSAGES[case]):
                door(*_door_inputs(case))
                pytest.fail(f"{name} accepted {case}")


class TestValidation:
    def test_assembled_bundles_pass(self):
        for seed in range(40):
            report = validate_params(random_params(seed))
            assert report.passed, report.to_dict()
            assert abs(report.lmi_min_eigenvalue) <= 1e-8

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), slack_norm=st.sampled_from([0.0, 0.4]))
    def test_every_assembled_bundle_passes(self, seed, slack_norm):
        report = validate_params(random_params(seed, slack_norm=slack_norm))
        assert report.passed, report.to_dict()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 6), m=st.integers(0, 5),
           door=st.sampled_from(["assemble", "assemble-slack", "from_components"]),
           defect=st.sampled_from([None, "uncenter", "nudge", "drop-rank", "widen", "narrow"]),
           scale=st.sampled_from([1.0, 1e-1, 1e-2, 1e-3]))
    @example(seed=1, n=6, m=0, door="assemble", defect="nudge", scale=1e-3)
    def test_every_accepted_bundle_has_the_structure(self, seed, n, m, door, defect, scale):
        # what construction lets through, validate_params certifies structurally;
        # a bundle that derives its S passes outright, so run never refuses it
        rng = np.random.default_rng(seed)
        m_mat = scale * random_coupling(n, seed=seed)
        if defect == "uncenter":
            m_mat = m_mat + rng.uniform(1e-3, 1.0) * rng.uniform(0.5, 1.5, size=m_mat.shape)
        elif defect == "nudge":
            m_mat = m_mat + 1.5e-10
        elif defect == "drop-rank":
            m_mat[:, -1] = m_mat[:, 0]
        elif defect == "widen":
            m_mat = np.column_stack([m_mat, m_mat[:, :1] - m_mat[:, -1:]])
        elif defect == "narrow":
            m_mat = m_mat[:, 1:]
        pair = random_causal_pair(n, m, random_schedule(n, m, seed), seed=seed)
        beta = rng.uniform(0.0, 5.0, m) * (rng.uniform(size=m) < 0.8)
        try:
            if door == "from_components":
                s_mat = m_mat @ m_mat.T + forward_penalty(pair, beta)
                params = from_components(m_mat, rng.uniform(0.5, 2.0) * s_mat, pair, beta, 0.9)
            else:
                slack = random_slack(n, 0.5, seed=seed) if door == "assemble-slack" else None
                params = assemble(m_mat, slack, pair, beta, 0.9)
        except ParameterError:
            return
        report = validate_params(params)
        assert report.null_space_ok and report.structure_ok and report.routing_ok, report.to_dict()
        assert report.passed or door == "from_components", report.to_dict()

    def test_slack_bundles_pass_with_positive_margin(self):
        report = validate_params(random_params(3, n=4, m=2, slack_norm=0.7))
        assert report.passed

    def test_boundary_lmi_is_zero(self):
        # two-resolvent bundle with the relaxation bound active
        gamma, beta = 1.0, 1.0
        theta_bar = (4 - beta * gamma) / 2
        lam = np.sqrt(theta_bar / gamma)
        m_mat = lam * np.array([[1.0], [-1.0]])
        s_mat = (2 / gamma) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        params = from_components(m_mat, s_mat, _dy_pair(), np.array([beta]), 0.9)
        report = validate_params(params)
        assert report.passed
        assert abs(report.lmi_min_eigenvalue) <= 1e-8

    def test_oversized_step_fails_contraction(self):
        # step size at 5/beta lies beyond the admissible region
        beta = 1.0
        gamma = 5.0 / beta
        lam = np.sqrt(0.1 / gamma)
        m_mat = lam * np.array([[1.0], [-1.0]])
        s_mat = (2 / gamma) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        params = from_components(m_mat, s_mat, _dy_pair(), np.array([beta]), 0.9)
        report = validate_params(params)
        assert not report.contraction_ok
        assert report.lmi_min_eigenvalue < 0
        assert params.P is None

    def test_report_serializes(self):
        rep = validate_params(random_params(2))
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["passed"] is True


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        for seed in (0, 1, 2):
            params = random_params(seed, slack_norm=0.4 if seed else 0.0)
            doc = json.loads(json.dumps(params_to_dict(params)))
            again = params_from_dict(doc)
            assert np.array_equal(again.M, params.M)
            assert np.array_equal(again.P, params.P)
            assert np.array_equal(again.causal.H, params.causal.H)
            assert np.array_equal(again.causal.K, params.causal.K)
            assert np.array_equal(again.causal.F, params.causal.F)
            assert np.array_equal(again.beta, params.beta)
            assert again.theta == params.theta
            assert np.array_equal(again.S, params.S)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), slack_norm=st.sampled_from([0.0, 0.4]))
    def test_json_roundtrip_bit_exact_property(self, seed, slack_norm):
        params = random_params(seed, slack_norm=slack_norm)
        again = params_from_dict(json.loads(json.dumps(params_to_dict(params))))
        for name in ("M", "S", "gamma", "beta"):
            assert np.array_equal(getattr(again, name), getattr(params, name)), name
        for name in ("H", "K", "F"):
            assert np.array_equal(getattr(again.causal, name), getattr(params.causal, name)), name
        assert again.theta == params.theta

    def test_resolvent_only_roundtrip(self):
        params = random_params(4, n=3, m=0)
        doc = params_to_dict(params)
        assert doc["m"] == 0 and doc["H"] == [] and doc["F"] == [0, 0, 0]
        again = params_from_dict(doc)
        assert np.array_equal(again.S, params.S)

    def test_missing_key_is_named(self):
        with pytest.raises(ParameterError, match="lacks m, F, M, P, H, K, theta, beta"):
            params_from_dict({"n": 3})

    @pytest.mark.parametrize("key, value, shape", [
        ("M", [1.0, -1.0], "3 x 2"),
        ("H", [0.0, 1.0], "3 x 2"),
        ("P", [0.1, 0.2], "3 x k"),
        ("beta", [1.0], "2"),
        ("F", [0, 2], "3"),
        ("theta", "high", "one"),
    ])
    def test_wrongly_sized_field_is_named(self, key, value, shape):
        doc = params_to_dict(random_params(5, n=3, m=2))
        doc[key] = value
        with pytest.raises(ParameterError, match=f"field {key} must hold {shape} numbers? for n=3, m=2"):
            params_from_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("n", 3.7), ("n", 3.0), ("n", True), ("n", "3"), ("m", 2.5), ("m", False),
        ("F", [0, 0.6, 2]), ("F", [0, 1, True]), ("F", [0, 10**400, 2]),
    ])
    def test_non_integer_size_is_named(self, key, value):
        doc = params_to_dict(random_params(5, n=3, m=2))
        doc[key] = value
        with pytest.raises(ParameterError, match=f"field {key} must "):
            params_from_dict(doc)

    @pytest.mark.parametrize("key, value", [
        ("beta", [True, 1.0]), ("beta", ["1.0", 1.0]), ("theta", "0.5"), ("theta", True),
        ("M", "0.1"), ("P", [None]), ("H", [[0.5, 0.5], [0.5, False], [0.0, 0.5]]),
        ("K", [1, 0, 0, "0", 1, 0]), ("M", [np.nan] * 6), ("P", [0.0] * 5 + [np.inf]),
        ("beta", [1.0, -np.inf]), ("H", [np.nan] * 6), ("K", [np.inf] * 6), ("theta", np.nan),
        ("M", [10**400] * 6),
    ])
    def test_non_numeric_float_field_is_named(self, key, value):
        doc = params_to_dict(random_params(5, n=3, m=2))
        doc[key] = value
        with pytest.raises(ParameterError, match=f"field {key} must hold"):
            params_from_dict(doc)

    def test_unrepresentable_bundle_refuses_serialization(self):
        beta = 1.0
        m_mat = np.sqrt(0.1 / 5.0) * np.array([[1.0], [-1.0]])
        s_mat = (2 / 5.0) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        params = from_components(m_mat, s_mat, _dy_pair(), np.array([beta]), 0.9)
        with pytest.raises(NotRepresentableError):
            params_to_dict(params)


def test_forward_penalty_matches_definition():
    rng = np.random.default_rng(6)
    params = random_params(9, n=5, m=4)
    h, k, beta = params.causal.H, params.causal.K, params.beta
    w_direct = 0.5 * (h - k.T) @ np.diag(beta) @ (h.T - k)
    np.testing.assert_allclose(params.W, w_direct, atol=1e-12)
    assert np.max(np.abs(params.W @ np.ones(5))) < 1e-12
