"""Named special cases of the method family.

Every constructor returns a :class:`MethodDescriptor` whose parameter bundle
passes validation. Each bundle is built by ``assemble`` from its coupling
factor and a closed-form slack factor, a scaled incidence matrix, so a
serialized bundle loads back to the same bytes. The CLI's method
identifiers are ``bench.METHOD_NAMES``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, StepSizeViolationError
from .graphs import graph_laplacian, incidence
from .params import DEFAULT_THETA, SplittingParams, assemble, factor_laplacian
# unused here: perfbench/spans.py wraps presets.from_components when tracing
from .params import from_components  # noqa: F401
from .schedule import CausalPair


@dataclass(frozen=True)
class MethodDescriptor:
    """A named, validated method instance; it runs its bundle in minimal form.

    Per-edge forward methods order their forward oracles by
    :func:`agfb_edge_order`.
    """

    name: str
    params: SplittingParams
    notes: str = ""

    @property
    def laplacian(self):
        """The bundle's coupling laplacian M M^T. Kept only for the benchmark's
        residual-form test, which reads it; nothing in the library does."""
        return self.params.M @ self.params.M.T


def _edge_routing(n, edges):
    """Routing pair of forwards on directed edges, listed by nondecreasing
    target: forward j runs on the output of resolvent source_j and feeds
    resolvent target_j only, so F[i] counts the targets <= i + 1."""
    b = incidence(n, edges)
    h_mat = b < 0
    return CausalPair(h_mat, b.T > 0, np.cumsum(h_mat.sum(axis=1)))


def davis_yin_params(gamma, theta_bar, beta_total=None, *, beta=None, theta=DEFAULT_THETA):
    """Three-operator splitting on two resolvents plus forward terms.

    ``theta_bar`` scales the coupling (lambda^2 = theta_bar / gamma); the
    admissible region is (4 - beta*gamma)/2 >= theta_bar > 0, which allows
    step sizes up to gamma < 4/beta. ``beta`` may give per-operator constants;
    by default a single forward operator with constant ``beta_total`` is
    assumed (none at all when it is zero, which recovers the two-operator
    reflection scheme).
    """
    if not (gamma > 0 and theta_bar > 0):
        raise ParameterError("gamma and theta_bar must be positive")
    if beta is None:
        if beta_total is None:
            raise ParameterError("give beta_total or a beta vector")
        beta = np.array([float(beta_total)]) if beta_total != 0 else np.zeros(0)
    else:
        beta = np.asarray(beta, dtype=float)
        if beta_total is not None and abs(float(np.sum(beta)) - beta_total) > 1e-12 * max(
            1.0, abs(beta_total)
        ):
            raise ParameterError("beta_total must equal the sum of beta")
    total = float(np.sum(beta))

    bound = (4.0 - total * gamma) / 2.0
    if bound < theta_bar:
        raise StepSizeViolationError(
            f"step size gamma={gamma} with relaxation bound theta_bar={theta_bar} "
            f"violates (4 - beta*gamma)/2 >= theta_bar (bound = {bound:.6g})"
        )

    # S = (2 / gamma) e e^T: the coupling takes theta_bar / gamma of it, the
    # forwards total / 2 and the slack the rest, which the bound keeps >= 0
    e = incidence(2, [(1, 2)])
    m = beta.size
    params = assemble(np.sqrt(theta_bar / gamma) * e, np.sqrt((bound - theta_bar) / gamma) * e,
                      _edge_routing(2, [(1, 2)] * m), beta, theta)
    name = "DRS" if total == 0 and m == 0 else "DY"
    return MethodDescriptor(
        name=name,
        params=params,
        notes=f"two-resolvent splitting, gamma={gamma}, theta_bar={theta_bar}",
    )


def graph_drs_params(g, g_prime, theta=DEFAULT_THETA):
    """Resolvent-only splitting devised by a pair of nested graphs.

    The coupling factors the laplacian of ``g`` and the slack is the
    incidence matrix of the edges of ``g_prime`` outside ``g``, so the step
    matrix is the laplacian of ``g_prime``.
    """
    if set(g.edges) - set(g_prime.edges):
        raise ParameterError("every coupling edge must also be a step-matrix edge")
    if g.n != g_prime.n:
        raise ParameterError("graphs must share the node set")
    slack = incidence(g.n, [e for e in g_prime.edges if e not in g.edges])
    params = assemble(factor_laplacian(graph_laplacian(g)), slack, None, np.zeros(0), theta)
    return MethodDescriptor(
        name="GraphDRS",
        params=params,
        notes=f"coupling edges {g.edges}, step edges {g_prime.edges}",
    )


def gfb_params(g, g_f, beta, theta=DEFAULT_THETA):
    """Forward-backward splitting devised by graphs: m = n-1 uniform forwards.

    ``g`` fixes both the coupling and the step matrix S = (1 + beta/2) L(g);
    ``g_f`` (a subset of ``g``'s edges that gives each node 2..n exactly one
    in-edge) routes forward evaluations: the operator feeding node i is
    evaluated at the output of its unique source. The forwards add
    (beta/2) L(g_f) and the slack, sqrt(beta/2) times the incidence matrix
    of the edges of ``g`` outside ``g_f``, the rest. Heterogeneous ``beta``
    vectors are collapsed to their maximum.
    """
    n = g.n
    if g_f.n != n:
        raise ParameterError("graphs must share the node set")
    if set(g_f.edges) - set(g.edges):
        raise ParameterError("forward-evaluation edges must be coupling edges")
    beta_arr = np.atleast_1d(np.asarray(beta, dtype=float))
    if not np.all(np.isfinite(beta_arr) & (beta_arr >= 0)):
        raise ParameterError("beta must be finite and nonnegative")
    beta_val = float(np.max(beta_arr)) if beta_arr.size else 0.0

    order = agfb_edge_order(g_f)
    if [i for _, i in order] != list(range(2, n + 1)):
        raise ParameterError("the forward-evaluation graph must give each node 2..n "
                             "exactly one in-edge")
    slack = np.sqrt(beta_val / 2.0) * incidence(n, [e for e in g.edges if e not in g_f.edges])
    params = assemble(factor_laplacian(graph_laplacian(g)), slack, _edge_routing(n, order),
                      np.full(n - 1, beta_val), theta)
    return MethodDescriptor(
        name="GFB",
        params=params,
        notes=f"beta={beta_val}, forward edges {g_f.edges}",
    )


def agfb_edge_order(g):
    """Forward-oracle order for per-edge methods: sorted by (target, source)."""
    return tuple(sorted(g.edges, key=lambda e: (e[1], e[0])))


def agfb_params(g, beta_edges, theta=DEFAULT_THETA):
    """Adapted graph forward-backward: one forward operator per edge.

    The operator on edge (h, i) is evaluated at the output of resolvent h
    just before resolvent i runs; its output feeds resolvent i only. The
    resulting per-resolvent step is 2 / (d_i + (sum of incident betas)/2) and
    coupling coefficients are 1 + beta on each edge.
    """
    order = agfb_edge_order(g)
    beta_vec = np.array([float(beta_edges.get(e, 0.0)) for e in order])
    if not np.all(beta_vec >= 0):
        raise ParameterError("edge betas must be nonnegative")
    unknown = set(beta_edges) - set(order)
    if unknown:
        raise ParameterError(f"betas given for non-edges: {sorted(unknown)}")

    params = assemble(factor_laplacian(graph_laplacian(g)), None, _edge_routing(g.n, order),
                      beta_vec, theta)
    return MethodDescriptor(
        name="aGFB",
        params=params,
        notes=f"per-edge forwards on {g.edges}",
    )
