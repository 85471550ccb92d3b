"""Desk-scale experiment problems.

Two generators: a toy composite of norm distances plus a flat-bottomed Huber
data term split into forward blocks, and a constrained portfolio selection
problem with a chunked quadratic risk term. Data sampling is independent of
the block split, so regenerating with a different number of forward blocks
keeps the underlying problem data identical.
"""

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IngestionError, ParameterError
from .linalg import spectral_norm
from .oracles import ForwardOracle, ProblemSpec, ResolventOracle
from .prox import (
    _huber_grad,
    _huber_value,
    _project_halfspace,
    _project_simplex,
    _prox_norm_offset,
    _soft_threshold_offset,
)

#: Relative margin on computed cocoercivity constants (7.1e-15): the spectral
#: norm of a symmetric PSD matrix is exact only to a few ulps either way, and
#: a declared constant must dominate the true one.
_BETA_MARGIN = 1.0 + 32.0 * np.finfo(float).eps


@dataclass(frozen=True)
class ToyProblemConfig:
    """Norm-distance terms plus a blockwise Huber data-fit forward term."""

    n: int = 5
    d: int = 20
    p: int = 30
    m: int = 5
    delta1: float = 0.5
    delta2: float = 2.0
    seed: int = 0
    hetero: bool = False  # scale 2 random rows of the sensing matrix by 5

    def __post_init__(self):
        if self.m > self.p:
            raise ParameterError("cannot split the data term into more blocks than rows")
        if not 0 <= self.delta1 <= self.delta2:
            raise ParameterError("need 0 <= delta1 <= delta2")
        if self.n < 2 or self.d < 1 or self.p < 1 or self.m < 0:
            raise ParameterError("invalid toy problem sizes")


def toy_data(cfg):
    """Sample (sensing matrix, offsets y, anchor points xi); split-independent."""
    rng = np.random.default_rng(cfg.seed)
    psi = rng.uniform(-1.0, 1.0, size=(cfg.p, cfg.d))
    y = rng.standard_normal(cfg.p)
    xi = rng.standard_normal((cfg.n, cfg.d))
    if cfg.hetero:
        rows = rng.choice(cfg.p, size=2, replace=False)
        psi[rows] *= 5.0
    return psi, y, xi


def gen_toy_problem(cfg, *, beta_override=None):
    """Build the toy inclusion problem.

    Resolvents are the proxes of the distance terms ||x - xi_i||; forward
    block i is the gradient of the Huber data fit restricted to its rows,
    with cocoercivity constant ||Psi_I Psi_I^T||_2, rounded up by a few ulps
    (or ``beta_override``, e.g. a uniform worst-case vector for comparison
    runs; the declared constants must dominate the true ones). The blocks
    partition the rows, so the optimum is the same for every m >= 1; with
    m = 0 the problem, and its objective, is the distance terms alone.
    A ``beta_override`` whose shape is not (m,) raises :class:`ParameterError`.
    """
    if beta_override is not None and np.shape(beta_override) != (cfg.m,):
        raise ParameterError(f"beta_override of shape {np.shape(beta_override)} does not match "
                             f"the m={cfg.m} forward blocks")
    psi, y, xi = toy_data(cfg)
    # the configuration has checked the knees, so the oracles and the
    # objective call the unchecked kernels
    d1, d2 = cfg.delta1, cfg.delta2
    width, offset = d2 - d1, 0.5 * (d2 * d2 - d1 * d1)

    resolvents = tuple(
        ResolventOracle(
            (lambda anchor: lambda step, v: _prox_norm_offset(anchor, step, v))(x),
            descriptor=f"distance-prox-{i + 1}",
        )
        for i, x in enumerate(xi)
    )

    forwards = []
    if cfg.m:
        # m contiguous row blocks, the remainder to the front
        for i, idx in enumerate(np.array_split(np.arange(cfg.p), cfg.m)):
            psi_blk = psi[idx]
            y_blk = y[idx]

            def grad(x, psi_blk=psi_blk, psi_blk_t=psi_blk.T, y_blk=y_blk):
                return psi_blk_t.dot(_huber_grad(d1, width, psi_blk.dot(x) - y_blk))

            beta = float(spectral_norm(psi_blk @ psi_blk.T)) * _BETA_MARGIN
            if beta_override is not None:
                beta = float(beta_override[i])
            forwards.append(ForwardOracle(grad, beta, descriptor=f"huber-block-{i + 1}"))

    def objective(x):
        # the ufuncs np.linalg.norm(x - xi, axis=1) runs, without its wrapper
        diff = x - xi
        dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
        if not cfg.m:
            return float(dist.sum())
        return float(dist.sum() + _huber_value(d1, d2, width, offset, psi.dot(x) - y).sum())

    return ProblemSpec(
        resolvents=resolvents,
        forwards=tuple(forwards),
        dimension=cfg.d,
        objective=objective,
        label=f"toy(n={cfg.n},d={cfg.d},p={cfg.p},m={cfg.m},hetero={cfg.hetero})",
    )


@dataclass(frozen=True)
class PortfolioProblemConfig:
    """Risk-return selection with turnover and emission-budget constraints."""

    d: int = 6        # assets
    p: int = 123      # trading days
    chunks: int = 4   # forward blocks of the quadratic risk term
    zeta: tuple = (0.07, 0.07, 0.07)  # per-scope intensity decrease
    turnover_weight: float = 1.0
    seed: int = 0
    data: Optional[str] = None  # CSV of returns (p rows x d columns)

    def __post_init__(self):
        if self.chunks < 1:
            raise ParameterError("need at least one chunk")
        if self.p < 2 * self.chunks:
            raise ParameterError("each chunk needs at least two trading days")
        if len(self.zeta) != 3 or any(not 0.0 <= z <= 1.0 for z in self.zeta):
            raise ParameterError("zeta must be three fractions in [0, 1]")
        if self.d < 2:
            raise ParameterError("need at least two assets")
        if not (math.isfinite(self.turnover_weight) and self.turnover_weight > 0):
            raise ParameterError(
                f"turnover_weight must be finite and positive, got {self.turnover_weight!r}"
            )

    @property
    def n(self):
        """Resolvents: turnover prox, simplex and one halfspace per emission scope."""
        return 2 + len(self.zeta)


def synthetic_returns(p, d, seed):
    """Gaussian daily returns with a high-volatility regime-shift block."""
    rng = np.random.default_rng(seed)
    r = rng.normal(5e-4, 0.01, size=(p, d))
    crisis = slice(p // 4, p // 2)
    r[crisis] = rng.normal(-3e-3, 0.04, size=r[crisis].shape)
    return r


def load_returns_csv(path):
    """Parse a returns CSV (one row per day); malformed and non-finite cells
    are located by row and column."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for r_idx, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            parsed = []
            for c_idx, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise IngestionError(
                        f"{path}: row {r_idx}, column {c_idx}: not a number: {cell!r}"
                    )
                if not math.isfinite(value):
                    raise IngestionError(
                        f"{path}: row {r_idx}, column {c_idx}: not a finite number: {cell!r}"
                    )
                parsed.append(value)
            if rows and len(parsed) != len(rows[0]):
                raise IngestionError(
                    f"{path}: row {r_idx}: expected {len(rows[0])} columns, got {len(parsed)}"
                )
            rows.append(parsed)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def gen_portfolio_problem(cfg):
    """Build the portfolio inclusion problem: ``cfg.n`` resolvents, m = chunks.

    The nonsmooth terms are the turnover penalty, the simplex constraint
    and one emission halfspace per scope, its budget set by the current
    portfolio. The quadratic risk-return term is split into per-chunk
    covariance gradients scaled so their sum approximates the full-sample
    quadratic; each declares twice the spectral norm of its covariance,
    rounded up by a few ulps so it dominates the true constant. Returns read
    from ``cfg.data`` need at least two asset columns, two rows per chunk
    (as the synthetic configuration does) and finite chunk covariances;
    otherwise :class:`IngestionError`.
    """
    if cfg.data is not None:
        returns = load_returns_csv(cfg.data)
        if returns.shape[1] < 2:
            raise IngestionError(
                f"{cfg.data}: need at least two asset columns, found {returns.shape[1]}"
            )
        if returns.shape[0] < 2 * cfg.chunks:
            raise IngestionError("not enough rows for the requested chunk count")
        d = returns.shape[1]
    else:
        returns = synthetic_returns(cfg.p, cfg.d, cfg.seed)
        d = cfg.d
    p = returns.shape[0]

    rng = np.random.default_rng(cfg.seed + 1)
    # synthetic per-scope emission intensities (direct, indirect, other)
    carbon = tuple(rng.uniform(0.5, 2.0, size=d) * s for s in (1.0, 0.6, 0.3))

    r_hat = returns.mean(axis=0)
    x0 = np.full(d, 1.0 / d)
    m = cfg.chunks

    sigmas = []
    for i, idx in enumerate(np.array_split(np.arange(p), m)):
        with np.errstate(over="ignore", invalid="ignore"):
            sig = np.cov(returns[idx], rowvar=False) / m
        if not np.all(np.isfinite(sig)):
            raise IngestionError(
                f"{cfg.data}: covariance of chunk {i + 1} is not finite; the returns are too large"
            )
        sigmas.append(sig)

    # (2 sig) x scales every product and partial sum of sig x by a power of
    # two, so short of subnormal products it has the bits of 2.0 * sig x,
    # with one ufunc fewer
    r_hat_share = r_hat / m
    forwards = []
    for i, sig in enumerate(sigmas):
        def grad(x, sig2=2.0 * sig):
            return sig2.dot(x) - r_hat_share

        beta = 2.0 * float(spectral_norm(sig)) * _BETA_MARGIN
        forwards.append(ForwardOracle(grad, beta, descriptor=f"risk-chunk-{i + 1}"))

    # the configuration has checked the weight, and the constants below are
    # computed once, so the resolvents call the unchecked kernels
    w_to = cfg.turnover_weight
    idx = np.arange(1, d + 1)
    resolvents = [
        ResolventOracle(
            lambda step, v: _soft_threshold_offset(x0, step * w_to, v),
            descriptor="turnover-prox",
        ),
        ResolventOracle(lambda step, v: _project_simplex(v, idx), descriptor="simplex"),
    ]
    for j, (c_vec, z) in enumerate(zip(carbon, cfg.zeta)):
        b = (1.0 - z) * float(c_vec @ x0)
        nrm2 = float(c_vec @ c_vec)
        resolvents.append(
            ResolventOracle(
                (lambda c_vec=c_vec, nrm2=nrm2, b=b:
                 lambda step, v: _project_halfspace(c_vec, nrm2, b, v))(),
                descriptor=f"emission-scope-{j + 1}",
            )
        )

    sigma_total = np.sum(sigmas, axis=0)

    def objective(x):
        return float(sigma_total.dot(x).dot(x) - r_hat.dot(x) + w_to * np.abs(x - x0).sum())

    return ProblemSpec(
        resolvents=tuple(resolvents),
        forwards=tuple(forwards),
        dimension=d,
        objective=objective,
        label=f"portfolio(d={d},p={p},chunks={m})",
    )
