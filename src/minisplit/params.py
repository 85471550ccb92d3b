"""Matrix parameterization of the splitting-method family.

A parameter bundle holds the coupling factor M (n x (n-1), column sums zero,
full column rank), an optional slack factor P (column sums zero), a causal
forward-routing pair (H, K, F), the cocoercivity vector beta and the
relaxation theta. The derived step matrix is

    S = M M^T + P P^T + W,   W = (1/2) (H - K^T) diag(beta) (H^T - K),

with per-resolvent step sizes gamma = 2 / diag(S) and the strictly lower
coupling L = -slt(S). Each structural condition has one check, which
construction raises on and ``validate_params`` reports; the report adds
the linear matrix inequality, which only a bundle given its S can fail.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NotRepresentableError, ParameterError
from .schedule import CausalPair, routing_sums

#: One tolerance per condition, relative to the scale its check names:
#: column sums, rank, trace identity and matrix inequality.
_NULL_TOL = 1e-9
_RANK_RTOL = 1e-10
_TRACE_TOL = 1e-10
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
    g = (causal.H - causal.K.T) * np.sqrt(beta)[None, :]
    return 0.5 * (g @ g.T)


@dataclass(frozen=True)
class SplittingParams:
    """One point of the method family; S is stored, W and gamma are derived.

    Construction is the one place that checks a bundle's structure, however
    it is built, and raises :class:`ParameterError` naming the field: M
    finite, n >= 2, n x (n-1), with zero column sums and full column rank;
    a :class:`CausalPair` for n resolvents (None only without forwards) and
    a finite nonnegative beta, one entry per forward; P (n rows, zero column
    sums; None is an empty slack), from which S = M M^T + P P^T + W, or else
    a finite n x n S, stored symmetrized with P = None (not serializable);
    then a positive diagonal of S, theta in (0, 1) and the trace identity.
    """

    M: np.ndarray
    P: np.ndarray  # may be (n, 0); None for a bundle built from an explicit S
    causal: CausalPair
    beta: np.ndarray
    theta: float
    S: np.ndarray = None

    def __post_init__(self):
        m_mat = _check_finite(self.M, "coupling factor M")
        n = m_mat.shape[0] if m_mat.ndim else 0
        _check_resolvents(n)
        if m_mat.shape != (n, n - 1):
            raise ParameterError("coupling factor M must have n-1 columns")
        _, centered, full_rank = _coupling_conditions(m_mat)
        if not centered:
            raise ParameterError("coupling factor M must have zero column sums")
        if not full_rank:
            raise ParameterError("coupling factor M must have full column rank n-1")
        causal, beta = self.causal, np.asarray(self.beta, dtype=float)
        if causal is None:
            if beta.size:
                raise ParameterError("forward operators present but no routing pair given")
            causal = CausalPair.empty(n)
        if not isinstance(causal, CausalPair) or causal.n != n:
            raise ParameterError("routing pair does not match the number of resolvents")
        if beta.shape != (causal.m,):
            raise ParameterError("beta length must equal the number of forward operators")
        if not np.all(np.isfinite(beta) & (beta >= 0)):
            raise ParameterError("cocoercivity parameters beta must be finite and nonnegative")
        p_mat, s_mat = self.P, self.S
        if s_mat is None:
            p_mat = _check_finite(np.zeros((n, 0)) if p_mat is None else p_mat, "slack factor P")
            if p_mat.ndim != 2 or p_mat.shape[0] != n:
                raise ParameterError(f"slack factor P must have {n} rows")
            if not _centering(p_mat, np.linalg.norm(p_mat))[1]:  # ||P||_F bounds sigma_max
                raise ParameterError("slack factor P must have zero column sums")
            s_mat = m_mat @ m_mat.T + p_mat @ p_mat.T + forward_penalty(causal, beta)
        elif p_mat is not None:
            raise ParameterError("a bundle takes a slack factor P or a step matrix S, not both")
        else:
            s_mat = _check_finite(s_mat, "step matrix S")
            if s_mat.shape != (n, n):
                raise ParameterError("step matrix S must be n x n")
            s_mat = (s_mat + s_mat.T) / 2.0
        for name, value in (("M", m_mat), ("P", p_mat), ("beta", beta), ("S", s_mat)):
            object.__setattr__(self, name, None if value is None else _freeze(value))
        object.__setattr__(self, "causal", causal)
        object.__setattr__(self, "theta", float(self.theta))
        diag = np.diag(self.S)
        if not np.all(diag > 1e-12):  # NaN fails too
            bad = int(np.argmin(diag)) + 1
            raise ParameterError(f"degenerate step matrix: resolvent {bad} receives no coupling")
        if not 0.0 < self.theta < 1.0:
            raise ParameterError("relaxation theta must lie in (0, 1)")
        if not _trace_identity(np.diag(1.0 / self.gamma), self.L)[1]:
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


def _check_finite(mat, what):
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ParameterError(f"{what} must be finite")
    return mat


def _check_resolvents(n):
    if n < 2:
        raise ParameterError(f"a bundle needs at least two resolvents, got n={n}")


def _centering(mat, scale):
    """||mat^T 1||_2, and whether it is at most _NULL_TOL max(1, scale)."""
    resid = float(np.linalg.norm(mat.T @ np.ones(mat.shape[0])))
    return resid, resid <= _NULL_TOL * max(1.0, float(scale))


def _coupling_conditions(m_mat):
    """(||M^T 1||_2, sigma_min / sigma_max), whether M is centered, whether it has full column rank."""
    sv = np.linalg.svd(m_mat, compute_uv=False)
    null_resid, centered = _centering(m_mat, sv[0])
    sv_ratio = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    return (null_resid, sv_ratio), centered, bool(sv[-1] > _RANK_RTOL * sv[0])


def _trace_identity(gamma_inv, l_mat):
    """1^T (Gamma^{-1} - L) 1, and whether it is at most _TRACE_TOL max(1, trace Gamma^{-1})."""
    ones = np.ones(len(l_mat))
    resid = float(ones @ (gamma_inv - l_mat) @ ones)
    return resid, abs(resid) <= _TRACE_TOL * max(1.0, float(np.trace(gamma_inv)))


def assemble(m_mat, p_mat, causal, beta, theta):
    """Build a bundle from its defining matrices, deriving
    S = M M^T + P P^T + W; ``p_mat = None`` means no slack.

    The checks and their errors are those of :class:`SplittingParams`.
    Every preset and every loaded bundle is built here, so a saved bundle
    replays byte for byte.
    """
    return SplittingParams(m_mat, p_mat, causal, beta, theta)


def from_components(m_mat, s_mat, causal, beta, theta):
    """Build a bundle from an explicit step matrix S instead of a slack factor.

    The checks and their errors are those of :class:`SplittingParams`.
    ``engine.run_lifted`` builds its bundle here from S = L + W; tests use
    it for bundles that fail the matrix inequality.
    """
    return SplittingParams(m_mat, None, causal, beta, theta, s_mat)


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
        if _coupling_conditions(m_mat)[2]:
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

    The first three flags are construction's own verdicts, true for every
    bundle; ``lmi_min_eigenvalue`` is the smallest eigenvalue of
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
        return self.null_space_ok and self.structure_ok and self.routing_ok and self.contraction_ok

    def to_dict(self):
        """``passed``, then every field in order, tuples as lists."""
        doc = {"passed": self.passed, **asdict(self)}
        return {key: list(value) if isinstance(value, tuple) else value for key, value in doc.items()}


def validate_params(params):
    """Report, never raise: the four structural conditions with their
    residuals. Only the matrix inequality can fail, and only for a bundle
    given its S: a derived S leaves the residual P P^T >= 0."""
    gamma_inv, l_mat = np.diag(1.0 / params.gamma), params.L
    null_space_residuals, centered, full_rank = _coupling_conditions(params.M)
    trace_resid, structure_ok = _trace_identity(gamma_inv, l_mat)
    row_sum_residuals, routing_ok = routing_sums(params.causal.H, params.causal.K)

    target = 2.0 * gamma_inv - l_mat - l_mat.T
    resid = target - params.M @ params.M.T - params.W
    lmi_min = float(np.linalg.eigvalsh((resid + resid.T) / 2.0)[0])
    contraction_ok = lmi_min >= -_PSD_TOL * max(1.0, float(np.max(np.abs(target))))

    return ValidationReport(
        null_space_ok=centered and full_rank,
        structure_ok=structure_ok,
        routing_ok=routing_ok,
        contraction_ok=contraction_ok,
        lmi_min_eigenvalue=lmi_min,
        null_space_residuals=null_space_residuals,
        trace_residual=trace_resid,
        row_sum_residuals=row_sum_residuals,
    )


def params_to_dict(params):
    """JSON-ready dict: n, m, F, M, P, H, K (row-major), theta, beta."""
    if params.P is None:
        raise NotRepresentableError("bundle built from an explicit step matrix S has no P to save")
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
    """True for a finite number or a (nested) list of them; booleans,
    strings, nulls, NaN and infinities are not numbers."""
    if isinstance(value, list):
        return all(_holds_only_numbers(entry) for entry in value)
    if isinstance(value, (float, np.floating)):
        return bool(np.isfinite(value))
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def params_from_dict(doc):
    """Rebuild a bundle from its serialized form (exact on all stored fields).

    A missing key, a field that does not hold the numbers (n, m) call for
    (``true``, ``"0.5"``, NaN and infinities are not), or an ``n``, ``m`` or ``F``
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
    _check_resolvents(n)
    if isinstance(doc["F"], list) and not all(_is_integer(f) for f in doc["F"]):
        raise ParameterError(f"params field F must hold integers, got {doc['F']!r}")

    def field(key, shape, dtype=float):
        try:
            if not _holds_only_numbers(doc[key]):
                raise TypeError(key)
            return np.asarray(doc[key], dtype=dtype).reshape(shape)
        except (TypeError, ValueError, OverflowError):
            dims = " x ".join("k" if size == -1 else str(size) for size in shape)
            what = f"{dims} numbers" if dims else "one number"
            raise ParameterError(f"params field {key} must hold {what} for n={n}, m={m}") from None

    causal = CausalPair(field("H", (n, m)), field("K", (m, n)), field("F", (n,), int))
    return assemble(field("M", (n, n - 1)), field("P", (n, -1)), causal,
                    field("beta", (m,)), float(field("theta", ())))


def save_params(params, path):
    """Write :func:`params_to_dict` as JSON; raises before opening ``path``."""
    doc = params_to_dict(params)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def load_params(path):
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_dict(json.load(fh))
