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
    huber_grad,
    huber_value,
    project_halfspace,
    project_simplex,
    prox_norm_offset,
    soft_threshold_offset,
)

#: Relative margin on computed cocoercivity constants (7.1e-15): the spectral
#: norm of a symmetric PSD matrix is exact only to a few ulps either way, and
#: a declared constant must dominate the true one.
_BETA_MARGIN = 1.0 + 32.0 * np.finfo(float).eps


def _even_blocks(p, m):
    """Partition range(p) into m contiguous blocks, remainder to the front."""
    base, extra = divmod(p, m)
    blocks, start = [], 0
    for i in range(m):
        size = base + (1 if i < extra else 0)
        blocks.append(np.arange(start, start + size))
        start += size
    return blocks


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
    m = 0 the operators drop the data term that the objective still counts.
    """
    psi, y, xi = toy_data(cfg)
    d1, d2 = cfg.delta1, cfg.delta2

    resolvents = tuple(
        ResolventOracle(
            (lambda anchor: lambda step, v: prox_norm_offset(anchor, step, v))(x),
            descriptor=f"distance-prox-{i + 1}",
        )
        for i, x in enumerate(xi)
    )

    forwards = []
    if cfg.m:
        blocks = _even_blocks(cfg.p, cfg.m)
        for i, idx in enumerate(blocks):
            psi_blk = psi[idx]
            y_blk = y[idx]

            def grad(x, psi_blk=psi_blk, y_blk=y_blk):
                return psi_blk.T @ huber_grad(d1, d2, psi_blk @ x - y_blk)

            beta = float(spectral_norm(psi_blk @ psi_blk.T)) * _BETA_MARGIN
            if beta_override is not None:
                beta = float(beta_override[i])
            forwards.append(ForwardOracle(grad, beta, descriptor=f"huber-block-{i + 1}"))

    def objective(x):
        vals = huber_value(d1, d2, psi @ x - y)
        return float(np.sum(np.linalg.norm(x - xi, axis=1)) + np.sum(vals))

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


def synthetic_returns(p, d, seed):
    """Gaussian daily returns with a high-volatility regime-shift block."""
    rng = np.random.default_rng(seed)
    r = rng.normal(5e-4, 0.01, size=(p, d))
    crisis = slice(p // 4, p // 2)
    r[crisis] = rng.normal(-3e-3, 0.04, size=r[crisis].shape)
    return r


def load_returns_csv(path, *, expected_days=None, expected_assets=None):
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
    data = np.asarray(rows, dtype=float)
    if expected_assets is not None and data.shape[1] != expected_assets:
        raise IngestionError(
            f"{path}: expected {expected_assets} asset columns, found {data.shape[1]}"
        )
    if expected_days is not None and data.shape[0] != expected_days:
        raise IngestionError(
            f"{path}: expected {expected_days} day rows, found {data.shape[0]}"
        )
    return data


def gen_portfolio_problem(cfg):
    """Build the portfolio inclusion problem: n = 5 resolvents, m = chunks.

    The five nonsmooth terms are the turnover penalty, the simplex constraint
    and three emission halfspaces whose budgets come from the current
    portfolio. The quadratic risk-return term is split into per-chunk
    covariance gradients scaled so their sum approximates the full-sample
    quadratic; each declares twice the spectral norm of its covariance,
    rounded up by a few ulps so it dominates the true constant. Returns read
    from ``cfg.data`` need at least two asset columns and two rows per chunk,
    as the synthetic configuration does; otherwise :class:`IngestionError`.
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
    for idx in _even_blocks(p, m):
        sigmas.append(np.cov(returns[idx], rowvar=False) / m)

    r_hat_share = r_hat / m
    forwards = []
    for i, sig in enumerate(sigmas):
        def grad(x, sig=sig):
            return 2.0 * (sig @ x) - r_hat_share

        beta = 2.0 * float(spectral_norm(sig)) * _BETA_MARGIN
        forwards.append(ForwardOracle(grad, beta, descriptor=f"risk-chunk-{i + 1}"))

    w_to = cfg.turnover_weight
    resolvents = [
        ResolventOracle(
            lambda step, v: soft_threshold_offset(x0, step * w_to, v),
            descriptor="turnover-prox",
        ),
        ResolventOracle(lambda step, v: project_simplex(v), descriptor="simplex"),
    ]
    for j, (c_vec, z) in enumerate(zip(carbon, cfg.zeta)):
        b = (1.0 - z) * float(c_vec @ x0)
        resolvents.append(
            ResolventOracle(
                (lambda c_vec=c_vec, b=b: lambda step, v: project_halfspace(c_vec, b, v))(),
                descriptor=f"emission-scope-{j + 1}",
            )
        )

    sigma_total = np.sum(sigmas, axis=0)

    def objective(x):
        return float(x @ (sigma_total @ x) - r_hat @ x + w_to * np.sum(np.abs(x - x0)))

    return ProblemSpec(
        resolvents=tuple(resolvents),
        forwards=tuple(forwards),
        dimension=d,
        objective=objective,
        label=f"portfolio(d={d},p={p},chunks={m})",
    )
