"""Design heuristics for picking the parameterizing matrices.

Three choices that work well in practice: couple through the complete-graph
laplacian, keep the slack factor at zero, and pick the forward routing pair
(H, K) that minimizes the spectral norm of the forward penalty W.

The routing pair is the solution of a small semidefinite program: with
X = sqrt(diag(beta)) (K - H^T), minimize t subject to
[[t I, X], [X^T, t I]] >= 0 over causal pairs. ``optimize_routing`` solves it
by a log-barrier Newton method (Boyd & Vandenberghe, *Convex Optimization*,
section 11). Entry (j, i) of X belongs to exactly one of K[j, i] and H[i, j],
so each row of X splits into an H group and a K group whose sums are fixed
by the column sums of H and the row sums of K; the feasible moves are the
zero-sum vectors of each group (an orthonormal Helmert basis), except in
rows with beta = 0, where no move changes X. Each stage centers
s t - log det F by damped Newton steps (the Hessian entries
tr(F^-1 B_a F^-1 B_b) come from one batched product and are scaled to a unit
diagonal before the solve; the line search tests feasibility by Cholesky).
The Newton system, F^-1 included, is formed once per accepted iterate and
reused by a later stage at the same iterate, where only the weight on t
changes, and by the certificate below. The weight s then grows by
``_BARRIER_GROWTH`` until the central-path gap (m + n) / s falls below
``ROUTING_TOL / 10`` of t and, from there on, until the certified gap below
is within ``ROUTING_TOL``. ``budget`` caps the total number of Newton
steps.

The certificate is weak duality: for every W orthogonal to the feasible
moves of X, ||X||_2 >= |<W, X>| / ||W||_* and <W, X> is the same for every
feasible X. W is the off-diagonal block of F^-1 at the last iterate, with
each group replaced by its mean (the orthogonal projection), so
``lower_bound`` is a lower bound on the optimum, up to rounding, whatever
the iterate and however early ``budget`` stopped the path.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .linalg import top_singular_triple
from .graphs import complete_graph, graph_laplacian
from .params import DEFAULT_THETA, assemble, factor_laplacian
from .schedule import CausalPair, is_valid_schedule, support_masks

#: Relative gap of a converged routing design:
#: objective - lower_bound <= ROUTING_TOL * objective.
ROUTING_TOL = 1e-9
#: Factor by which the barrier weight grows per stage.
_BARRIER_GROWTH = 30.0
#: Half the squared Newton decrement at which a stage counts as centered.
_CENTERING_TOL = 1e-6


@dataclass(frozen=True)
class RoutingResult:
    """Outcome of the routing optimization.

    ``objective`` is ||sqrt(diag(beta)) (K - H^T)||_2 at the returned pair and
    ``lower_bound`` a certified lower bound on its minimum over all causal
    pairs; ``converged`` means the gap between them is at most
    ``ROUTING_TOL * objective``. ``iterations_used`` counts Newton steps.
    """

    H: np.ndarray
    K: np.ndarray
    objective: float
    lower_bound: float
    iterations_used: int
    converged: bool


def _helmert(c):
    """Orthonormal basis (c x (c - 1)) of the zero-sum vectors of length c."""
    basis = np.zeros((c, c - 1))
    for k in range(1, c):
        basis[:k, k - 1] = 1.0
        basis[k, k - 1] = -float(k)
        basis[:, k - 1] /= np.sqrt(k * (k + 1.0))
    return basis


def _move_groups(k_mask, h_mask):
    """Boolean (2m, m, n) masks of the groups of X entries with a fixed sum:
    for row j of X, group 2j holds the K[j, :] entries and 2j + 1 the H[:, j]
    entries."""
    m, n = k_mask.shape
    rows = np.arange(m)
    groups = np.zeros((m, 2, m, n), dtype=bool)
    groups[rows, 0, rows] = k_mask
    groups[rows, 1, rows] = h_mask.T
    return groups.reshape(2 * m, m, n)


def _routing_directions(groups):
    """Orthonormal (p, m, n) stack of the moves of X within ``groups``: per
    group, its zero-sum vectors."""
    stack = []
    for group in groups:
        count = int(group.sum())
        if count > 1:
            for vec in _helmert(count).T:
                move = np.zeros(group.shape)
                move[group] = vec
                stack.append(move)
    return np.array(stack).reshape(-1, *groups.shape[1:])


def _certified_bound(f_inv, groups, x0):
    """|<W, X0>| / ||W||_* for W the group-mean projection of F^-1's
    off-diagonal block."""
    m = x0.shape[0]
    w = f_inv[:m, m:]
    means = np.einsum("gjn,jn->g", groups, w) / groups.sum(axis=(1, 2))
    w = np.einsum("g,gjn->jn", means, groups)
    return abs(float(np.sum(w * x0))) / float(np.sum(np.linalg.svd(w, compute_uv=False)))


def _log_det_barrier(f_mat):
    """-log det f_mat, or None when f_mat is not positive definite."""
    # f_mat[0, 0] is t, the first pivot: a nonpositive one fails the
    # factorization, and a NaN one would give a NaN value
    if not f_mat[0, 0] > 0.0:
        return None
    try:
        chol = np.linalg.cholesky(f_mat)
    except np.linalg.LinAlgError:
        return None
    return -2.0 * float(np.log(chol.diagonal()).sum())


def _barrier_routing(x0, sigma0, moves, budget, certify):
    """Barrier path for min t s.t. [[t I, X], [X^T, t I]] >= 0 with
    X = X0 + sum_a y_a moves[a], started at y = 0, t = 2 ||X0||_2 = 2 sigma0.

    Wherever the path would stop (the budget is spent, or the central-path
    gap is below ``ROUTING_TOL / 10`` of t), ``certify(y, F^-1, steps)``
    returns a :class:`RoutingResult` for the iterate after ``steps`` Newton
    steps. The path ends with it when it has converged, the budget is spent
    or no Newton step was taken since the last call (F^-1, and so the
    certificate, would be the same); otherwise further stages run, since
    the certificate can lag the central-path gap. A numerically singular
    Newton system ends a stage, except in those further stages, where the
    least-squares Newton step is taken.

    The Newton system is formed once per accepted iterate: a new stage at
    the same iterate changes only the weight on t, and ``certify`` reads
    the same F^-1.

    Returns the last such result.
    """
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

    def newton_system(f_mat):
        """F^-1, the barrier gradient -tr(F^-1 B_a), the Jacobi scaling of
        the Hessian tr(F^-1 B_a F^-1 B_b) and the scaled Hessian."""
        f_inv = np.linalg.inv(f_mat)
        prod = f_inv @ stack
        hess = prod.reshape(p + 1, -1) @ prod.transpose(0, 2, 1).reshape(p + 1, -1).T
        # Jacobi scaling: near the optimum the t entry outgrows the moves
        # that leave the top singular pair alone by the inverse squared gap
        scale = 1.0 / np.sqrt(hess.diagonal())
        return f_inv, -prod.trace(axis1=1, axis2=2), scale, hess * scale[:, None] * scale[None, :]

    v = np.zeros(p + 1)
    v[0] = 2.0 * sigma0
    weight = size / sigma0
    f_mat = f_at(v)
    barrier = _log_det_barrier(f_mat)
    system = None  # the Newton system at v, once formed
    steps, certified_at = 0, None
    while True:
        while steps < budget:
            if system is None:
                system = newton_system(f_mat)
            _, barrier_grad, scale, scaled = system
            grad = barrier_grad.copy()
            grad[0] += weight
            try:
                step = -scale * np.linalg.solve(scaled, grad * scale)
            except np.linalg.LinAlgError:
                if certified_at is None:
                    break  # numerically singular Newton system: as centered as it gets
                # past a failed certificate only a step can close the gap: the
                # least-squares one
                step = -scale * np.linalg.lstsq(scaled, grad * scale)[0]
            decrement = -float(grad @ step)
            if decrement <= 2.0 * _CENTERING_TOL:
                break
            steps += 1
            value = weight * v[0] + barrier
            alpha = 1.0
            while alpha > 1e-12:
                trial = v + alpha * step
                trial_f = f_at(trial)
                trial_barrier = _log_det_barrier(trial_f)
                if (trial_barrier is not None
                        and weight * trial[0] + trial_barrier <= value - 0.25 * alpha * decrement):
                    break
                alpha *= 0.5
            else:
                break  # no descent left at rounding level: as centered as it gets
            v, f_mat, barrier, system = trial, trial_f, trial_barrier, None
        if steps >= budget or size / weight <= 0.1 * ROUTING_TOL * v[0]:
            f_inv = np.linalg.inv(f_mat) if system is None else system[0]
            result = certify(v[1:], f_inv, steps)
            if result.converged or steps >= budget or steps == certified_at:
                return result
            certified_at = steps
        weight *= _BARRIER_GROWTH


def optimize_routing(n, m, f, beta, budget=500):
    """Minimize ||sqrt(diag(beta)) (K - H^T)||_2 over causal routing pairs.

    Log-barrier Newton method on the semidefinite form of the problem (see
    the module docstring); ``budget`` caps the number of Newton steps, which
    ``iterations_used`` reports. Deterministic: starts from the uniform
    feasible pair and returns whichever of that start and the barrier pair
    has the lower exact objective. When no move changes X (every H column
    and every K row has a single allowed entry, as in every n = 2 schedule,
    or beta vanishes where they do not) the start is optimal and is
    returned at once, with ``iterations_used = 0``.
    """
    f = np.asarray(f, dtype=int)
    if not is_valid_schedule(f, n, m):
        raise ParameterError(f"invalid schedule {f.tolist()} for n={n}, m={m}")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (m,) or not np.all(np.isfinite(beta) & (beta >= 0.0)):
        raise ParameterError("beta must be a finite nonnegative vector of length m")
    if m == 0:
        return RoutingResult(np.zeros((n, 0)), np.zeros((0, n)), 0.0, 0.0, 0, True)

    h_mask, k_mask = support_masks(f, m)
    # no count is zero: a valid schedule has f[-1] = m and f[0] = 0
    h_count, k_count = h_mask.sum(axis=0), k_mask.sum(axis=1)

    h_mat = np.where(h_mask, 1.0 / h_count[None, :], 0.0)
    k_mat = np.where(k_mask, 1.0 / k_count[:, None], 0.0)
    root_beta = np.sqrt(beta)
    x0 = root_beta[:, None] * (k_mat - h_mat.T)
    best_val = top_singular_triple(x0)[0]
    if np.all(((h_count == 1) & (k_count == 1)) | (beta == 0.0)):
        return RoutingResult(h_mat, k_mat, best_val, best_val, 0, True)
    groups = _move_groups(k_mask, h_mask)
    moves = _routing_directions(groups[np.repeat(beta > 0.0, 2)])

    def certify(y, f_inv, steps):
        # the better of the start and the barrier pair, and its certified gap
        lower = _certified_bound(f_inv, groups, x0)
        shift = np.tensordot(y, moves, 1) / np.where(root_beta > 0.0, root_beta, 1.0)[:, None]
        h_new = np.where(h_mask, h_mat - shift.T, 0.0)
        k_new = np.where(k_mask, k_mat + shift, 0.0)
        new_val = top_singular_triple(root_beta[:, None] * (k_new - h_new.T))[0]
        h, k, val = (h_new, k_new, new_val) if new_val < best_val else (h_mat, k_mat, best_val)
        return RoutingResult(h, k, val, lower, steps, bool(val - lower <= ROUTING_TOL * val))

    return _barrier_routing(x0, best_val, moves, budget, certify)


def sfb_plus_params(n, m, f, beta, theta=DEFAULT_THETA):
    """All three heuristics combined: complete-graph coupling, zero slack,
    norm-minimizing routing."""
    routing = optimize_routing(n, m, f, beta)
    causal = CausalPair(routing.H, routing.K, np.asarray(f, dtype=int))
    m_mat = factor_laplacian(graph_laplacian(complete_graph(n)))
    return assemble(m_mat, None, causal, np.asarray(beta, dtype=float), theta)
