"""Closed-form operator tests, each checked against an independent oracle."""

import numpy as np
import pytest

from minisplit.errors import ParameterError
from minisplit.prox import (
    huber_grad,
    huber_value,
    project_halfspace,
    project_simplex,
    prox_norm_offset,
    soft_threshold_offset,
)


def brute_prox_norm(xi, tau, v, grid=200_001):
    """1-D search along the ray xi -> v for the distance-prox."""
    xi, v = np.asarray(xi, float), np.asarray(v, float)
    dist = np.linalg.norm(v - xi)
    if dist == 0:
        return xi
    rs = np.linspace(0.0, dist, grid)
    vals = tau * rs + 0.5 * (rs - dist) ** 2
    r_best = rs[np.argmin(vals)]
    return xi + r_best * (v - xi) / dist


class TestProxNormOffset:
    def test_shrinks_along_ray(self):
        p = prox_norm_offset(np.zeros(2), 1.0, np.array([3.0, 4.0]))
        np.testing.assert_allclose(p, [2.4, 3.2], atol=1e-12)
        oracle = brute_prox_norm(np.zeros(2), 1.0, np.array([3.0, 4.0]))
        np.testing.assert_allclose(p, oracle, atol=1e-4)

    def test_identity_at_kink(self):
        xi = np.array([1.0, -2.0])
        np.testing.assert_array_equal(prox_norm_offset(xi, 0.5, xi), xi)

    def test_collapses_inside_ball(self):
        p = prox_norm_offset(np.zeros(2), 2.0, np.array([1.0, 0.0]))
        np.testing.assert_array_equal(p, np.zeros(2))

    def test_matches_brute_force_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            xi = rng.standard_normal(3)
            v = rng.standard_normal(3)
            tau = rng.uniform(0.1, 2.0)
            np.testing.assert_allclose(
                prox_norm_offset(xi, tau, v), brute_prox_norm(xi, tau, v), atol=1e-4
            )

    def test_subgradient_optimality(self):
        # away from the kink, (v - p)/tau must be the unit vector towards v
        rng = np.random.default_rng(1)
        for _ in range(100):
            xi = rng.standard_normal(4)
            v = xi + rng.standard_normal(4) * 3.0
            tau = rng.uniform(0.05, 1.0)
            p = prox_norm_offset(xi, tau, v)
            if np.linalg.norm(p - xi) < 1e-9:
                continue
            g = (v - p) / tau
            np.testing.assert_allclose(np.linalg.norm(g), 1.0, atol=1e-10)
            cos = g @ (p - xi) / np.linalg.norm(p - xi)
            np.testing.assert_allclose(cos, 1.0, atol=1e-10)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ParameterError):
            prox_norm_offset(np.zeros(2), 0.0, np.ones(2))


class TestHuber:
    def test_branch_values(self):
        assert (huber_value(1, 3, 0.5), huber_grad(1, 3, 0.5)) == (0.0, 0.0)
        assert (huber_value(1, 3, 2.0), huber_grad(1, 3, 2.0)) == (0.5, 1.0)
        # linear branch: (3-1)*5 - (9-1)/2 = 6, slope 2
        assert (huber_value(1, 3, 5.0), huber_grad(1, 3, 5.0)) == (6.0, 2.0)

    def test_continuity_at_knees(self):
        for z in (1.0, 3.0):
            below = huber_value(1, 3, z - 1e-9)
            above = huber_value(1, 3, z + 1e-9)
            assert abs(below - above) < 1e-8

    def test_even_in_z(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal(100) * 4
        v_pos, g_pos = huber_value(0.5, 2.0, z), huber_grad(0.5, 2.0, z)
        v_neg, g_neg = huber_value(0.5, 2.0, -z), huber_grad(0.5, 2.0, -z)
        np.testing.assert_array_equal(v_pos, v_neg)
        np.testing.assert_array_equal(g_pos, -g_neg)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(-6, 6, 1000)
        step = 1e-6
        g = huber_grad(1.0, 3.0, z)
        fd = (huber_value(1.0, 3.0, z + step) - huber_value(1.0, 3.0, z - step)) / (2 * step)
        np.testing.assert_allclose(g, fd, atol=1e-5)

    def test_degenerate_knees_give_zero_function(self):
        z = np.array([-5.0, 0.3, 7.0])
        v, g = huber_value(1.0, 1.0, z), huber_grad(1.0, 1.0, z)
        np.testing.assert_array_equal(v, 0.0)
        np.testing.assert_array_equal(g, 0.0)

    def test_rejects_bad_knees(self):
        for fn in (huber_grad, huber_value):
            with pytest.raises(ParameterError):
                fn(2.0, 1.0, 0.0)
            with pytest.raises(ParameterError):
                fn(-0.5, 1.0, 0.0)

    @pytest.mark.parametrize("d1, d2", [(0.5, 2.0), (0.0, 1.0), (1.0, 1.0), (0.0, 0.0)])
    def test_split_functions_match_the_joint_formula_bitwise(self, d1, d2):
        # the value and gradient written as one expression with np.clip, as
        # the toy problem computed them before they were split
        def joint(z):
            az = np.abs(z)
            shifted = np.clip(az - d1, 0.0, None)
            lin = (d2 - d1) * az - 0.5 * (d2 * d2 - d1 * d1)
            return np.where(az <= d2, 0.5 * shifted * shifted, lin), np.sign(z) * np.minimum(shifted, d2 - d1)

        rng = np.random.default_rng(4)
        edges = np.array([d1, -d1, d2, -d2, 0.0, -0.0])
        for z in (rng.standard_normal(500) * 3, rng.uniform(-d2 - 1, d2 + 1, 500), edges,
                  np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)):
            value, grad = joint(z)
            for got, want in ((huber_grad(d1, d2, z), grad), (huber_value(d1, d2, z), value)):
                assert got.tobytes() == want.tobytes()
        for z in edges:
            assert huber_grad(d1, d2, z) == float(joint(z)[1])
            assert np.signbit(huber_grad(d1, d2, z)) == np.signbit(joint(z)[1])


class TestSimplexProjection:
    def test_feasible_input_unchanged(self):
        np.testing.assert_array_equal(project_simplex(np.array([0.5, 0.5])), [0.5, 0.5])

    def test_threshold_cases(self):
        np.testing.assert_allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(project_simplex(np.array([0.3, 0.3])), [0.5, 0.5], atol=1e-15)

    def test_feasibility_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = project_simplex(rng.standard_normal(rng.integers(1, 12)) * 3)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p >= 0.0)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = project_simplex(rng.standard_normal(6))
            np.testing.assert_allclose(project_simplex(p), p, atol=1e-12)

    def test_is_nearest_point(self):
        # compare against a dense grid over the 2-simplex
        rng = np.random.default_rng(6)
        t = np.linspace(0.0, 1.0, 20001)
        grid = np.stack([t, 1.0 - t], axis=1)
        for _ in range(20):
            v = rng.standard_normal(2) * 2
            p = project_simplex(v)
            best = grid[np.argmin(np.sum((grid - v) ** 2, axis=1))]
            assert np.linalg.norm(p - v) <= np.linalg.norm(best - v) + 1e-9


class TestHalfspaceProjection:
    def test_feasible_input_unchanged(self):
        v = np.array([-1.0, 5.0])
        np.testing.assert_array_equal(project_halfspace(np.array([1.0, 0.0]), 0.0, v), v)

    def test_orthogonal_projection(self):
        np.testing.assert_allclose(
            project_halfspace(np.array([1.0, 0.0]), 0.0, np.array([2.0, 3.0])), [0.0, 3.0]
        )
        np.testing.assert_allclose(
            project_halfspace(np.array([1.0, 1.0]), 1.0, np.array([1.0, 1.0])), [0.5, 0.5]
        )

    def test_nearest_feasible_point(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = rng.standard_normal(4)
            b = rng.standard_normal()
            v = rng.standard_normal(4) * 2
            p = project_halfspace(c, b, v)
            assert c @ p <= b + 1e-10
            # any random feasible point is no closer
            q = rng.standard_normal(4)
            q = project_halfspace(c, b, q)
            assert np.linalg.norm(p - v) <= np.linalg.norm(q - v) + 1e-10

    def test_rejects_zero_normal(self):
        with pytest.raises(ParameterError):
            project_halfspace(np.zeros(3), 1.0, np.ones(3))


class TestSoftThresholdOffset:
    def test_componentwise_shrinkage(self):
        np.testing.assert_array_equal(
            soft_threshold_offset(np.zeros(2), 1.0, np.array([2.0, -0.5])), [1.0, 0.0]
        )

    def test_identity_at_center(self):
        x0 = np.array([1.0, -1.0])
        np.testing.assert_array_equal(soft_threshold_offset(x0, 0.3, x0), x0)

    def test_shift_invariance(self):
        np.testing.assert_allclose(
            soft_threshold_offset(np.array([1.0]), 0.5, np.array([3.0])), [2.5]
        )
        rng = np.random.default_rng(8)
        for _ in range(50):
            x0 = rng.standard_normal(5)
            v = rng.standard_normal(5)
            tau = rng.uniform(0.05, 2.0)
            shifted = soft_threshold_offset(x0, tau, v)
            base = soft_threshold_offset(np.zeros(5), tau, v - x0)
            np.testing.assert_allclose(shifted, base + x0, atol=1e-14)

    def test_subgradient_optimality(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            x0 = rng.standard_normal(6)
            v = rng.standard_normal(6) * 2
            tau = rng.uniform(0.05, 1.5)
            p = soft_threshold_offset(x0, tau, v)
            g = (v - p) / tau
            assert np.all(np.abs(g) <= 1.0 + 1e-12)
            moved = np.abs(p - x0) > 1e-12
            np.testing.assert_allclose(g[moved], np.sign(p - x0)[moved], atol=1e-10)
