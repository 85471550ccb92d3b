import numpy as np
import pytest

from helpers import random_affine_problem
from minisplit.engine import run_lifted
from minisplit.errors import ParameterError, StepSizeViolationError
from minisplit.bench import method_for_problem
from minisplit.graphs import (
    GraphSpec,
    complete_graph,
    graph_laplacian,
    path_graph,
    ring_graph,
)
from minisplit.params import factor_laplacian, validate_params
from minisplit.problems import ToyProblemConfig, gen_toy_problem
from minisplit.presets import (
    agfb_edge_order,
    agfb_params,
    davis_yin_params,
    gfb_params,
    graph_drs_params,
)


class TestGraphs:
    def test_builders(self):
        assert path_graph(3).edges == ((1, 2), (2, 3))
        assert ring_graph(4).edges == ((1, 2), (2, 3), (3, 4), (1, 4))
        assert ring_graph(2).edges == ((1, 2),)
        assert complete_graph(3).edges == ((1, 2), (1, 3), (2, 3))

    def test_orientation_enforced(self):
        with pytest.raises(ParameterError):
            GraphSpec(3, ((2, 1),))

    def test_connectivity(self):
        # the coupling factorization is the one connectivity check
        assert factor_laplacian(graph_laplacian(path_graph(5))).shape == (5, 4)
        with pytest.raises(ParameterError, match="connected coupling"):
            factor_laplacian(graph_laplacian(GraphSpec(4, ((1, 2), (3, 4)))))

    def test_laplacian_annihilates_consensus(self):
        for g in (path_graph(4), ring_graph(5), complete_graph(6)):
            lap = graph_laplacian(g)
            np.testing.assert_allclose(lap @ np.ones(g.n), 0.0, atol=1e-14)
            consensus = np.outer(np.ones(g.n), np.array([1.0, -2.0]))
            np.testing.assert_allclose(lap @ consensus, 0.0, atol=1e-14)


class TestDavisYin:
    def test_boundary_admissible(self):
        desc = davis_yin_params(1.0, 1.0, 2.0)  # bound (4 - 2)/2 = 1, active
        report = validate_params(desc.params)
        assert report.passed
        assert abs(report.lmi_min_eigenvalue) <= 1e-8

    def test_maximal_step_size_excluded(self):
        with pytest.raises(StepSizeViolationError):
            davis_yin_params(4.0, 1e-6, 1.0)  # gamma = 4/beta leaves no room

    def test_no_forward_reduces_to_reflection_scheme(self):
        desc = davis_yin_params(1.0, 1.0, 0.0)
        assert desc.name == "DRS"
        assert desc.params.m == 0
        assert validate_params(desc.params).passed

    def test_equal_steps_forced(self):
        desc = davis_yin_params(0.7, 0.5, 1.2)
        np.testing.assert_allclose(desc.params.gamma, 0.7, atol=1e-14)

    def test_multi_forward_routing(self):
        desc = davis_yin_params(0.5, 0.9, beta=np.array([1.0, 0.5, 0.2]))
        assert desc.params.m == 3
        np.testing.assert_array_equal(desc.params.causal.H[0], 0.0)
        np.testing.assert_array_equal(desc.params.causal.K[:, 0], 1.0)
        assert validate_params(desc.params).passed

    @pytest.mark.parametrize("m", range(4))
    def test_explicit_routing(self, m):
        causal = davis_yin_params(0.5, 0.9, beta=np.full(m, 0.3)).params.causal
        # every forward runs on resolvent 1's output and feeds resolvent 2
        np.testing.assert_array_equal(causal.H, np.vstack([np.zeros(m), np.ones(m)]))
        np.testing.assert_array_equal(causal.K, np.column_stack([np.ones(m), np.zeros(m)]))
        assert causal.F.tolist() == [0, m]

    def test_reflection_scheme_matches_direct_recursion(self):
        from helpers import random_affine_problem, three_operator_trajectory
        from minisplit.engine import split_step

        rng = np.random.default_rng(12)
        d, gamma, theta_bar, theta = 5, 1.3, 0.8, 0.9
        prob = random_affine_problem(rng, 2, 0, d)
        desc = davis_yin_params(gamma, theta_bar, 0.0, theta=theta)
        z = rng.standard_normal((1, d))
        lam = np.sqrt(theta_bar / gamma)
        xs, zs = three_operator_trajectory(prob, gamma, theta * theta_bar,
                                           gamma * lam * z[0], 50)
        zc = z
        for k in range(50):
            zc, x, _ = split_step(desc.params, prob, zc)
            assert np.max(np.abs(x - xs[k])) < 1e-10
            assert np.max(np.abs(gamma * lam * zc[0] - zs[k])) < 1e-10


class TestGraphDrs:
    def test_complete_pair_has_no_slack(self):
        g = complete_graph(3)
        desc = graph_drs_params(g, g)
        np.testing.assert_allclose(desc.params.S, graph_laplacian(g), atol=1e-12)
        assert desc.params.P.shape[1] == 0
        assert validate_params(desc.params).passed

    def test_path_steps(self):
        g = path_graph(3)
        desc = graph_drs_params(g, g)
        np.testing.assert_allclose(desc.params.gamma, [2.0, 1.0, 2.0], atol=1e-12)

    def test_chord_edges_become_slack(self):
        g, g_prime = path_graph(3), complete_graph(3)
        desc = graph_drs_params(g, g_prime)
        chord = graph_laplacian(GraphSpec(3, ((1, 3),)))
        np.testing.assert_allclose(desc.params.P @ desc.params.P.T, chord, atol=1e-10)

    def test_edge_subset_required(self):
        with pytest.raises(ParameterError):
            graph_drs_params(complete_graph(3), path_graph(3))

    def test_connected_required(self):
        g = GraphSpec(4, ((1, 2), (3, 4)))
        with pytest.raises(ParameterError):
            graph_drs_params(g, complete_graph(4))


class TestGfb:
    def test_forward_output_pattern(self):
        desc = gfb_params(complete_graph(3), path_graph(3), 1.0)
        np.testing.assert_array_equal(
            desc.params.causal.H, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        )

    def test_forward_penalty_is_scaled_forward_laplacian(self):
        beta = 2.4
        g_f = path_graph(4)
        desc = gfb_params(complete_graph(4), g_f, beta)
        np.testing.assert_allclose(
            desc.params.W, (beta / 2.0) * graph_laplacian(g_f), atol=1e-12
        )

    def test_slack_from_graph_difference(self):
        beta = 1.2
        g, g_f = complete_graph(4), path_graph(4)
        desc = gfb_params(g, g_f, beta)
        expected = (beta / 2.0) * (graph_laplacian(g) - graph_laplacian(g_f))
        np.testing.assert_allclose(desc.params.P @ desc.params.P.T, expected, atol=1e-10)

    def test_matching_forward_graph_leaves_no_slack(self):
        g = path_graph(4)
        desc = gfb_params(g, g, 0.8)
        assert desc.params.P.shape[1] == 0

    def test_double_in_edge_rejected(self):
        g_f = GraphSpec(3, ((1, 3), (2, 3)))
        with pytest.raises(ParameterError):
            gfb_params(complete_graph(3), g_f, 1.0)

    def test_missing_in_edge_rejected(self):
        g_f = GraphSpec(3, ((1, 2),))
        with pytest.raises(ParameterError):
            gfb_params(complete_graph(3), g_f, 1.0)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("coupling", [complete_graph, ring_graph, path_graph])
    @pytest.mark.parametrize("forward, source", [
        (path_graph, lambda i: i - 1),
        (lambda n: GraphSpec(n, tuple((1, i) for i in range(2, n + 1))), lambda i: 1),
    ], ids=["path", "star"])
    def test_explicit_routing(self, n, coupling, forward, source):
        g, g_f = coupling(n), forward(n)
        if set(g_f.edges) - set(g.edges):
            with pytest.raises(ParameterError, match="coupling edges"):
                gfb_params(g, g_f, 1.0)
            return
        causal = gfb_params(g, g_f, 1.0).params.causal
        # forward j feeds node j + 2 from that node's source in g_f
        h_mat, k_mat = np.zeros((n, n - 1)), np.zeros((n - 1, n))
        for j in range(n - 1):
            h_mat[j + 1, j] = 1.0
            k_mat[j, source(j + 2) - 1] = 1.0
        np.testing.assert_array_equal(causal.H, h_mat)
        np.testing.assert_array_equal(causal.K, k_mat)
        assert causal.F.tolist() == list(range(n))

    def test_two_node_ring_is_gfb(self):
        prob = gen_toy_problem(ToyProblemConfig(n=2, d=4, p=6, m=1, seed=3, hetero=True))
        rfb = method_for_problem("rfb", prob).params
        gfb = method_for_problem("gfb", prob).params
        for a, b in ((rfb.M, gfb.M), (rfb.P, gfb.P), (rfb.S, gfb.S), (rfb.beta, gfb.beta),
                     (rfb.causal.H, gfb.causal.H), (rfb.causal.K, gfb.causal.K),
                     (rfb.causal.F, gfb.causal.F)):
            assert a.tobytes() == b.tobytes()
        assert rfb.theta == gfb.theta

    def test_heterogeneous_constants_collapse_to_max(self):
        desc = gfb_params(complete_graph(3), path_graph(3), np.array([0.3, 2.0]))
        np.testing.assert_array_equal(desc.params.beta, [2.0, 2.0])


class TestAgfb:
    def test_single_edge_values(self):
        desc = agfb_params(complete_graph(2), {(1, 2): 2.0})
        # degree 1 plus half the edge constant on both endpoints
        np.testing.assert_allclose(desc.params.gamma, [1.0, 1.0], atol=1e-14)
        # S rows must sum to zero, which pins the coupling at 1 + beta/2
        assert abs(desc.params.S[1, 0] - (-2.0)) < 1e-12
        np.testing.assert_allclose(desc.params.S @ np.ones(2), 0.0, atol=1e-12)

    def test_zero_constants_reduce_to_pure_graph_coupling(self):
        g = complete_graph(4)
        desc = agfb_params(g, {e: 0.0 for e in g.edges})
        np.testing.assert_allclose(desc.params.S, graph_laplacian(g), atol=1e-12)

    def test_consensus_is_stationary_for_state_update(self):
        g = complete_graph(4)
        lap = graph_laplacian(g)
        consensus = np.outer(np.ones(4), np.array([0.3, -1.1, 2.0]))
        np.testing.assert_allclose(lap @ consensus, 0.0, atol=1e-13)

    def test_matches_direct_recursion(self):
        rng = np.random.default_rng(3)
        n, d = 4, 3
        g = complete_graph(n)
        order = agfb_edge_order(g)
        beta_edges = {e: float(b) for e, b in zip(order, rng.uniform(0.2, 1.5, len(order)))}
        desc = agfb_params(g, beta_edges, theta=0.9)
        prob = random_affine_problem(rng, n, len(order), d, beta=desc.params.beta)
        report = run_lifted(
            graph_laplacian(g), desc.params.causal, desc.params.beta, 0.9, prob,
            max_iters=80, rel_stop=0.0, record_objective=False, trace=True,
        )

        deg = g.degrees()
        ghat = np.zeros(n)
        for i in range(1, n + 1):
            ghat[i - 1] = deg[i - 1] + 0.5 * (
                sum(b for (h, t), b in beta_edges.items() if t == i)
                + sum(b for (h, t), b in beta_edges.items() if h == i)
            )
        fwd = {e: prob.forwards[j].evaluate for j, e in enumerate(order)}
        adj = {i: [] for i in range(1, n + 1)}
        for h, t in g.edges:
            adj[h].append(t)
            adj[t].append(h)
        w = np.zeros((n, d))
        dev = 0.0
        for k in range(80):
            x = np.zeros((n, d))
            for i in range(1, n + 1):
                acc = w[i - 1].copy()
                for (h, t), b in beta_edges.items():
                    if t == i:
                        acc += (1.0 + b / 2.0) * x[h - 1] - fwd[(h, t)](x[h - 1])
                x[i - 1] = prob.resolvents[i - 1].evaluate(
                    2.0 / ghat[i - 1], (2.0 / ghat[i - 1]) * acc
                )
            for i in range(1, n + 1):
                w[i - 1] = w[i - 1] + deg[i - 1] * 0.9 * (
                    np.mean([x[j - 1] for j in adj[i]], axis=0) - x[i - 1]
                )
            dev = max(dev, float(np.max(np.abs(report.x_trace[k] - x))))
        assert dev <= 1e-9

    @pytest.mark.parametrize("n", range(2, 6))
    def test_explicit_routing(self, n):
        g = complete_graph(n)
        causal = agfb_params(g, {e: 0.5 for e in g.edges}).params.causal
        # edges by target, then source: forward j runs on its source's output
        # and feeds its target only
        m = n * (n - 1) // 2
        h_mat, k_mat = np.zeros((n, m)), np.zeros((m, n))
        j = 0
        for target in range(2, n + 1):
            for src in range(1, target):
                h_mat[target - 1, j] = 1.0
                k_mat[j, src - 1] = 1.0
                j += 1
        np.testing.assert_array_equal(causal.H, h_mat)
        np.testing.assert_array_equal(causal.K, k_mat)
        assert causal.F.tolist() == [i * (i - 1) // 2 for i in range(1, n + 1)]

    def test_disconnected_rejected(self):
        g = GraphSpec(4, ((1, 2), (3, 4)))
        with pytest.raises(ParameterError):
            agfb_params(g, {})

    def test_unknown_edge_beta_rejected(self):
        with pytest.raises(ParameterError):
            agfb_params(path_graph(3), {(1, 3): 1.0})


class TestAllPresetsValidate:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_across_sizes(self, n):
        rng = np.random.default_rng(n)
        descs = [
            davis_yin_params(0.8, 0.9, 1.5),
            davis_yin_params(1.0, 0.9, 0.0),
        ]
        if n > 2:
            g = complete_graph(n)
            descs.append(graph_drs_params(g, g))
            descs.append(gfb_params(g, path_graph(n), 1.3))
            descs.append(gfb_params(ring_graph(n), path_graph(n), 1.3))
            descs.append(gfb_params(path_graph(n), path_graph(n), 1.3))
            beta_edges = {e: float(b) for e, b in zip(g.edges, rng.uniform(0, 2, len(g.edges)))}
            descs.append(agfb_params(g, beta_edges))
        for desc in descs:
            report = validate_params(desc.params)
            assert report.passed, (desc.name, n, report.to_dict())
