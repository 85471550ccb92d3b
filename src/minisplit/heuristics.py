"""Design heuristics for picking the parameterizing matrices.

Three choices that work well in practice: couple through the complete-graph
laplacian, keep the slack factor at zero, and pick the forward routing pair
(H, K) that minimizes the spectral norm of the forward penalty W.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .linalg import spectral_norm, top_singular_triple
from .params import assemble, complete_laplacian, factor_laplacian
from .schedule import CausalPair, is_valid_schedule, support_masks


def heuristic_laplacian(n):
    """Coupling laplacian of choice: the complete graph, n I - 1 1^T."""
    return complete_laplacian(n)


@dataclass(frozen=True)
class RoutingResult:
    """Outcome of the routing optimization.

    ``objective`` is ||sqrt(diag(beta)) (K - H^T)||_2 at the returned pair.
    """

    H: np.ndarray
    K: np.ndarray
    objective: float
    iterations_used: int
    converged: bool


def _project_routing(h_mat, k_mat, h_mask, k_mask):
    # Euclidean projection onto {support pattern, column sums of H = 1,
    # row sums of K = 1}: zero the complement, then shift each allowed
    # group by its mean constraint violation.
    h_mat = np.where(h_mask, h_mat, 0.0)
    k_mat = np.where(k_mask, k_mat, 0.0)
    h_count = h_mask.sum(axis=0)
    k_count = k_mask.sum(axis=1)
    h_shift = (h_mat.sum(axis=0) - 1.0) / h_count
    k_shift = (k_mat.sum(axis=1) - 1.0) / k_count
    h_mat = np.where(h_mask, h_mat - h_shift[None, :], 0.0)
    k_mat = np.where(k_mask, k_mat - k_shift[:, None], 0.0)
    return h_mat, k_mat


def optimize_routing(n, m, f, beta, budget=500):
    """Minimize ||sqrt(diag(beta)) (K - H^T)||_2 over causal routing pairs.

    Projected subgradient method with a Polyak-style step built from the best
    value seen so far; the subgradient comes from the dominant singular pair
    of an exact SVD and the projection is the closed-form per-column/per-row
    mean shift. Deterministic: starts from the uniform feasible pair. When
    every H column and every K row has a single allowed entry (every n = 2
    schedule) that pair is the only feasible one and is returned at once,
    with ``iterations_used = 0``.
    """
    f = np.asarray(f, dtype=int)
    if not is_valid_schedule(f, n, m):
        raise ParameterError(f"invalid schedule {f.tolist()} for n={n}, m={m}")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (m,) or np.any(beta < 0):
        raise ParameterError("beta must be a nonnegative vector of length m")
    if m == 0:
        return RoutingResult(np.zeros((n, 0)), np.zeros((0, n)), 0.0, 0, True)

    h_mask, k_mask = support_masks(f, m)
    h_count, k_count = h_mask.sum(axis=0), k_mask.sum(axis=1)
    if np.any(h_count == 0) or np.any(k_count == 0):
        raise ParameterError("schedule leaves an H column or K row with empty support")

    h_mat = np.where(h_mask, 1.0 / h_count[None, :], 0.0)
    k_mat = np.where(k_mask, 1.0 / k_count[:, None], 0.0)
    root_beta = np.sqrt(beta)
    best_val = spectral_norm(root_beta[:, None] * (k_mat - h_mat.T))
    if np.all(h_count == 1) and np.all(k_count == 1):
        return RoutingResult(h_mat, k_mat, float(best_val), 0, True)

    best_h, best_k = h_mat.copy(), k_mat.copy()
    init_val = max(best_val, 1e-12)
    stalled = 0
    used = 0
    gnorm2 = np.inf
    for t in range(budget):
        used = t + 1
        diff = root_beta[:, None] * (k_mat - h_mat.T)
        sigma, u, v = top_singular_triple(diff)
        if sigma < best_val - 1e-12 * init_val:
            best_val, best_h, best_k = sigma, h_mat.copy(), k_mat.copy()
            stalled = 0
        else:
            stalled += 1
        du = root_beta * u
        g_k = np.where(k_mask, du[:, None] * v[None, :], 0.0)
        g_h = np.where(h_mask, -(v[:, None] * du[None, :]), 0.0)
        gnorm2 = float(np.sum(g_k * g_k) + np.sum(g_h * g_h))
        if gnorm2 <= 1e-30:
            break
        # Polyak step towards a target slightly below the best value seen
        slack = init_val * 0.2 / (1.0 + 0.1 * t)
        step = (sigma - max(best_val - slack, 0.0)) / gnorm2
        h_mat = h_mat - step * g_h
        k_mat = k_mat - step * g_k
        h_mat, k_mat = _project_routing(h_mat, k_mat, h_mask, k_mask)

    # best_val is the exact norm at the best pair: the loop uses the same kernel
    converged = gnorm2 <= 1e-30 or stalled >= 50 or used < budget
    return RoutingResult(best_h, best_k, float(best_val), used, bool(converged))


def sfb_plus_params(n, m, f, beta, theta=0.9, budget=500):
    """All three heuristics combined: complete-graph coupling, zero slack,
    norm-minimizing routing. The returned bundle is meant to be run in the
    lifted form with the complete-graph laplacian."""
    routing = optimize_routing(n, m, f, beta, budget=budget)
    causal = CausalPair(routing.H, routing.K, np.asarray(f, dtype=int)) if m else CausalPair.empty(n)
    m_mat = factor_laplacian(complete_laplacian(n))
    return assemble(m_mat, None, causal, np.asarray(beta, dtype=float), theta)
