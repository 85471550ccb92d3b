"""Matrix parameterization of the splitting-method family.

A parameter bundle holds the coupling factor M (n x (n-1), column sums zero,
full column rank), an optional slack factor P (column sums zero), a causal
forward-routing pair (H, K, F), the cocoercivity vector beta and the
relaxation theta. The derived step matrix is

    S = M M^T + P P^T + W,   W = (1/2) (H - K^T) diag(beta) (H^T - K),

with per-resolvent step sizes gamma = 2 / diag(S) and the strictly lower
coupling L = -slt(S). Bundles built this way are averaged nonexpansive by
construction; ``validate_params`` certifies the four structural conditions
(coupling null space, triangular structure, causal routing, and the linear
matrix inequality) for bundles of any provenance.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import NotRepresentableError, ParameterError
from .linalg import psd_factor
from .schedule import CausalPair, is_causal_pair

_RANK_RTOL = 1e-10
#: Tolerances of ``validate_params``: the coupling null space (relative to
#: ||M||_2), the trace identity and routing sums, and the matrix inequality
#: (relative to its largest entry).
_NULL_TOL = 1e-9
_SUM_TOL = 1e-9
_PSD_TOL = 1e-8
#: Relaxation of every preset and CLI run that does not pin one; any theta in
#: (0, 1) is admissible, and ``SplittingParams`` rejects the rest.
DEFAULT_THETA = 0.9


def _freeze(arr):
    arr = np.ascontiguousarray(np.asarray(arr, dtype=float))
    arr.flags.writeable = False
    return arr


def forward_penalty(causal, beta):
    """W = (1/2) (H - K^T) diag(beta) (H^T - K), computed exactly symmetric."""
    beta = np.asarray(beta, dtype=float)
    n = causal.n
    if causal.m == 0:
        return np.zeros((n, n))
    g = (causal.H - causal.K.T) * np.sqrt(beta)[None, :]
    return 0.5 * (g @ g.T)


@dataclass(frozen=True)
class SplittingParams:
    """One point of the method family; S is stored, W and gamma are derived.

    ``P`` is None when the bundle was rebuilt from explicit (M, S, H, K)
    components whose slack residual is indefinite; such bundles exist only to
    be failed by ``validate_params`` and cannot be serialized. Every bundle
    has a positive diagonal of S, theta in (0, 1) and a step matrix that
    satisfies the trace identity; construction raises otherwise.
    """

    M: np.ndarray
    P: np.ndarray  # may be (n, 0); None when no PSD slack factor exists
    causal: CausalPair
    beta: np.ndarray
    theta: float
    S: np.ndarray

    def __post_init__(self):
        for name in ("M", "beta", "S"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        if self.P is not None:
            object.__setattr__(self, "P", _freeze(self.P))
        diag = np.diag(self.S)
        if np.any(diag <= 1e-12):
            bad = int(np.argmin(diag)) + 1
            raise ParameterError(
                f"degenerate step matrix: resolvent {bad} receives no coupling"
            )
        if not 0.0 < self.theta < 1.0:
            raise ParameterError("relaxation theta must lie in (0, 1)")
        # consistency of the trace identity, guaranteed by construction
        ones = np.ones(self.n)
        gamma = self.gamma
        resid = abs(ones @ (np.diag(1.0 / gamma) + np.tril(self.S, -1)) @ ones)
        if resid > 1e-10 * max(1.0, float(np.sum(1.0 / gamma))):
            raise ParameterError("step matrix is inconsistent with the trace identity")

    @property
    def n(self):
        return self.M.shape[0]

    @property
    def m(self):
        return self.beta.size

    @property
    def gamma(self):
        """Per-resolvent step sizes 2 / diag(S)."""
        return 2.0 / np.diag(self.S)

    @property
    def W(self):
        """Forward penalty of the routing pair and beta."""
        return forward_penalty(self.causal, self.beta)

    @property
    def L(self):
        """Strictly lower coupling -slt(S), with -0.0 entries normalized."""
        return -np.tril(self.S, -1) + 0.0


def _check_centering(mat, n, what):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != n:
        raise ParameterError(f"{what} must have {n} rows")
    scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 0.0)
    if mat.size and np.max(np.abs(mat.sum(axis=0))) > 1e-9 * scale:
        raise ParameterError(f"{what} must have zero column sums")
    return mat


def _as_causal(causal, n, beta):
    beta = np.asarray(beta, dtype=float)
    if causal is None:
        if beta.size:
            raise ParameterError("forward operators present but no routing pair given")
        causal = CausalPair.empty(n)
    if causal.n != n:
        raise ParameterError("routing pair does not match the number of resolvents")
    if causal.m != beta.size:
        raise ParameterError("beta length must equal the number of forward operators")
    if np.any(beta < 0):
        raise ParameterError("cocoercivity parameters must be nonnegative")
    return causal, beta


def assemble(m_mat, p_mat, causal, beta, theta):
    """Build a parameter bundle from its defining matrices.

    Requires M^T 1 = 0 with full column rank, P^T 1 = 0, a causal routing pair
    matching ``beta``, and theta in (0, 1). The derived S and gamma satisfy
    the structural conditions by construction.
    """
    m_mat = _check_centering(m_mat, np.asarray(m_mat).shape[0], "coupling factor M")
    n = m_mat.shape[0]
    if m_mat.shape[1] != n - 1:
        raise ParameterError("coupling factor M must have n-1 columns")
    sv = np.linalg.svd(m_mat, compute_uv=False)
    if sv[-1] <= _RANK_RTOL * sv[0]:
        raise ParameterError("coupling factor M must have full column rank n-1")
    if p_mat is None:
        p_mat = np.zeros((n, 0))
    p_mat = _check_centering(p_mat, n, "slack factor P")
    causal, beta = _as_causal(causal, n, beta)

    s_mat = m_mat @ m_mat.T + p_mat @ p_mat.T + forward_penalty(causal, beta)
    return SplittingParams(m_mat, p_mat, causal, beta, float(theta), s_mat)


def from_components(m_mat, s_mat, causal, beta, theta):
    """Build a bundle from an explicit step matrix S instead of a slack factor.

    Used by presets whose special structure pins S in closed form, and to
    construct bundles that intentionally violate the matrix inequality (the
    slack factor is then recorded as None and validation reports the failure).
    """
    m_mat = np.asarray(m_mat, dtype=float)
    n = m_mat.shape[0]
    s_mat = np.asarray(s_mat, dtype=float)
    if s_mat.shape != (n, n):
        raise ParameterError("step matrix S must be n x n")
    s_mat = (s_mat + s_mat.T) / 2.0
    causal, beta = _as_causal(causal, n, beta)
    w_mat = forward_penalty(causal, beta)
    try:
        p_mat = psd_factor(
            s_mat - m_mat @ m_mat.T - w_mat,
            ref=float(np.max(np.abs(s_mat))),
            label="slack residual",
        )
    except NotRepresentableError:
        p_mat = None
    return SplittingParams(m_mat, p_mat, causal, beta, float(theta), s_mat)


def factor_slack(s_target, m_mat, w_mat):
    """Slack factor P with P P^T = S_target - M M^T - W and P^T 1 = 0.

    The residual must be symmetric with zero row sums; an indefinite residual
    raises :class:`NotRepresentableError`.
    """
    s_target = np.asarray(s_target, dtype=float)
    m_mat = np.asarray(m_mat, dtype=float)
    w_mat = np.asarray(w_mat, dtype=float)
    resid = s_target - m_mat @ m_mat.T - w_mat
    scale = max(1.0, float(np.max(np.abs(resid))) if resid.size else 0.0)
    if np.max(np.abs(resid - resid.T)) > 1e-9 * scale:
        raise ParameterError("slack residual must be symmetric")
    if np.max(np.abs(resid.sum(axis=1))) > 1e-8 * scale:
        raise ParameterError("slack residual must have zero row sums")
    return psd_factor(resid, ref=float(np.max(np.abs(s_target))), label="slack residual")


def factor_laplacian(lap):
    """Full-rank factor M (n x (n-1)) of a connected-graph laplacian.

    ``lap`` must be symmetric PSD with zero row sums and rank n-1; returns M
    with M M^T = lap and M^T 1 = 0 (spectral factorization).
    """
    lap = np.asarray(lap, dtype=float)
    n = lap.shape[0]
    scale = max(1.0, float(np.max(np.abs(lap))))
    if lap.shape != (n, n) or np.max(np.abs(lap - lap.T)) > 1e-9 * scale:
        raise ParameterError("laplacian must be square and symmetric")
    if np.max(np.abs(lap @ np.ones(n))) > 1e-9 * scale:
        raise ParameterError("laplacian must annihilate the all-ones vector")
    vals, vecs = np.linalg.eigh(lap)
    if vals[0] < -1e-8 * scale:
        raise ParameterError("laplacian must be positive semidefinite")
    if n < 2 or vals[1] <= 1e-10 * scale:
        raise ParameterError("laplacian must have rank n-1 (connected coupling)")
    return vecs[:, 1:] * np.sqrt(np.maximum(vals[1:], 0.0))


def random_coupling(n, seed=0):
    """Random M with exact zero column sums: centered uniform(-1, 1) draws.

    Full column rank holds with probability one; rank-deficient draws are
    rejected and resampled from the same stream.
    """
    if n < 2:
        raise ParameterError("need n >= 2")
    rng = np.random.default_rng(seed)
    center = np.eye(n) - np.ones((n, n)) / n
    for _ in range(100):
        m_mat = center @ rng.uniform(-1.0, 1.0, size=(n, n - 1))
        sv = np.linalg.svd(m_mat, compute_uv=False)
        if sv[-1] > _RANK_RTOL * max(sv[0], 1e-300):
            return m_mat
    raise ParameterError("failed to sample a full-rank coupling factor")


def random_slack(n, target_norm, seed=0):
    """Random n x (n-1) P with zero column sums, rescaled so
    ||P P^T||_2 = target_norm (no columns when target_norm is zero)."""
    if target_norm < 0:
        raise ParameterError("target norm must be nonnegative")
    if target_norm == 0.0 or n < 2:
        return np.zeros((n, 0))
    rng = np.random.default_rng(seed)
    center = np.eye(n) - np.ones((n, n)) / n
    p_mat = center @ rng.uniform(-1.0, 1.0, size=(n, n - 1))
    top = np.linalg.svd(p_mat, compute_uv=False)[0]
    if top == 0.0:
        raise ParameterError("degenerate slack sample")
    return p_mat * np.sqrt(target_norm) / top


@dataclass(frozen=True)
class ValidationReport:
    """Certification of the four structural conditions of the family.

    ``lmi_min_eigenvalue`` is the smallest eigenvalue of
    2 Gamma^{-1} - L - L^T - M M^T - W; nonnegative (up to tolerance) means
    the iteration map is averaged nonexpansive for every admissible problem.
    """

    null_space_ok: bool
    structure_ok: bool
    routing_ok: bool
    contraction_ok: bool
    lmi_min_eigenvalue: float
    null_space_residuals: tuple  # (||M^T 1||, sigma_min / sigma_max)
    trace_residual: float
    row_sum_residuals: tuple  # (max |H^T 1 - 1|, max |K 1 - 1|)

    @property
    def passed(self):
        return (
            self.null_space_ok
            and self.structure_ok
            and self.routing_ok
            and self.contraction_ok
        )

    def to_dict(self):
        return {
            "passed": self.passed,
            "null_space_ok": self.null_space_ok,
            "structure_ok": self.structure_ok,
            "routing_ok": self.routing_ok,
            "contraction_ok": self.contraction_ok,
            "lmi_min_eigenvalue": self.lmi_min_eigenvalue,
            "null_space_residuals": list(self.null_space_residuals),
            "trace_residual": self.trace_residual,
            "row_sum_residuals": list(self.row_sum_residuals),
        }


def validate_params(params):
    """Report, never raise: check all four structural conditions."""
    n = params.n
    ones = np.ones(n)

    sv = np.linalg.svd(params.M, compute_uv=False)
    null_resid = float(np.linalg.norm(params.M.T @ ones))
    sv_ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    m_scale = max(1.0, float(sv[0]))
    null_ok = (
        params.M.shape[1] == n - 1
        and sv_ratio > _RANK_RTOL
        and null_resid <= _NULL_TOL * m_scale
    )

    l_mat = params.L
    strict_lower = bool(np.all(np.triu(l_mat) == 0.0))
    gamma_inv = np.diag(1.0 / params.gamma)
    trace_resid = float(ones @ (gamma_inv - l_mat) @ ones)
    structure_ok = strict_lower and abs(trace_resid) <= _SUM_TOL * max(
        1.0, float(np.sum(1.0 / params.gamma))
    )

    causal = params.causal
    causal_supports = is_causal_pair(causal.H, causal.K, causal.F)
    if params.m:
        h_resid = float(np.max(np.abs(causal.H.sum(axis=0) - 1.0)))
        k_resid = float(np.max(np.abs(causal.K.sum(axis=1) - 1.0)))
    else:
        h_resid = k_resid = 0.0
    routing_ok = causal_supports and h_resid <= _SUM_TOL and k_resid <= _SUM_TOL

    target = 2.0 * gamma_inv - l_mat - l_mat.T
    resid = target - params.M @ params.M.T - params.W
    lmi_min = float(np.linalg.eigvalsh((resid + resid.T) / 2.0)[0])
    contraction_ok = lmi_min >= -_PSD_TOL * max(1.0, float(np.max(np.abs(target))))

    return ValidationReport(
        null_space_ok=null_ok,
        structure_ok=structure_ok,
        routing_ok=routing_ok,
        contraction_ok=contraction_ok,
        lmi_min_eigenvalue=lmi_min,
        null_space_residuals=(null_resid, sv_ratio),
        trace_residual=trace_resid,
        row_sum_residuals=(h_resid, k_resid),
    )


def params_to_dict(params):
    """JSON-ready dict: n, m, F, M, P, H, K (row-major), theta, beta."""
    if params.P is None:
        raise NotRepresentableError(
            "bundle has no PSD slack factor and cannot be serialized"
        )
    causal = params.causal
    return {
        "n": params.n,
        "m": params.m,
        "F": causal.F.tolist(),
        "M": params.M.ravel().tolist(),
        "P": params.P.ravel().tolist(),
        "H": causal.H.ravel().tolist(),
        "K": causal.K.ravel().tolist(),
        "theta": params.theta,
        "beta": params.beta.tolist(),
    }


def _is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _holds_only_numbers(value):
    """True for a number or a (nested) list of numbers; booleans, strings and
    nulls are not numbers."""
    if isinstance(value, list):
        return all(_holds_only_numbers(entry) for entry in value)
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def params_from_dict(doc):
    """Rebuild a bundle from its serialized form (exact on all stored fields).

    A missing key, a field that does not hold the numbers (n, m) call for
    (``true`` and ``"0.5"`` are not numbers), or an ``n``, ``m`` or ``F``
    entry that is not an integer (``3.0`` is not) raises
    :class:`ParameterError` naming it.
    """
    if not isinstance(doc, dict):
        raise ParameterError("params document must be a JSON object")
    missing = [key for key in ("n", "m", "F", "M", "P", "H", "K", "theta", "beta") if key not in doc]
    if missing:
        raise ParameterError(f"params document lacks {', '.join(missing)}")
    for key in ("n", "m"):
        if not _is_integer(doc[key]):
            raise ParameterError(f"params field {key} must be an integer, got {doc[key]!r}")
    n, m = doc["n"], doc["m"]
    if isinstance(doc["F"], list) and not all(_is_integer(f) for f in doc["F"]):
        raise ParameterError(f"params field F must hold integers, got {doc['F']!r}")

    def field(key, shape, dtype=float):
        try:
            if not _holds_only_numbers(doc[key]):
                raise TypeError(key)
            return np.asarray(doc[key], dtype=dtype).reshape(shape)
        except (TypeError, ValueError):
            dims = " x ".join("k" if size == -1 else str(size) for size in shape)
            what = f"{dims} numbers" if dims else "one number"
            raise ParameterError(f"params field {key} must hold {what} for n={n}, m={m}") from None

    causal = CausalPair(field("H", (n, m)), field("K", (m, n)), field("F", (n,), int))
    return assemble(field("M", (n, n - 1)), field("P", (n, -1)), causal,
                    field("beta", (m,)), float(field("theta", ())))


def save_params(params, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_dict(params), fh, indent=1)


def load_params(path):
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_dict(json.load(fh))
