"""Correctness gate applied to every benchmark run.

The gate never trusts ``termination`` or ``fp_residual``. It checks that
public outputs are finite, that every oracle ran exactly once per iteration
(counted with wrappers built like ``minisplit.oracles.counting_problem``),
and that the run meets its accuracy target against a reference the benchmark
computes outside the timed region.
"""

import time

import numpy as np

from minisplit.oracles import counting_problem
from minisplit.problems import toy_data

#: Gradient norm, relative to the data scale, at which the toy reference
#: counts as a certified minimizer.
REFERENCE_GRAD_RTOL = 1e-7


def _huber(delta1, delta2, z):
    az = np.abs(z)
    shifted = np.clip(az - delta1, 0.0, None)
    value = np.where(
        az <= delta2, 0.5 * shifted * shifted,
        (delta2 - delta1) * az - 0.5 * (delta2 * delta2 - delta1 * delta1),
    )
    return value, np.sign(z) * np.minimum(shifted, delta2 - delta1)


def toy_reference(cfg, max_steps=500):
    """Minimizer and minimum of the toy objective, independent of the library.

    BFGS with Armijo backtracking on ``sum_i ||x - xi_i|| + huber(Psi x - y)``,
    rebuilt from the sampled data, so the reference shares no code with the
    splitting engine. Raises ``RuntimeError`` unless the final gradient is
    small relative to the data scale.
    """
    psi, y, xi = toy_data(cfg)
    d1, d2 = cfg.delta1, cfg.delta2

    def value_grad(x):
        diff = x - xi
        dist = np.linalg.norm(diff, axis=1)
        vals, g = _huber(d1, d2, psi @ x - y)
        return float(dist.sum() + vals.sum()), (diff / dist[:, None]).sum(axis=0) + psi.T @ g

    scale = xi.shape[0] + float(np.linalg.norm(psi, 2)) * (d2 - d1) * np.sqrt(psi.shape[0])
    eye = np.eye(psi.shape[1])
    x = xi.mean(axis=0)
    f, g = value_grad(x)
    h_inv = eye.copy()
    for _ in range(max_steps):
        if np.linalg.norm(g) <= 1e-12 * scale:
            break
        step = -h_inv @ g
        slope = float(g @ step)
        if slope >= 0.0:
            h_inv, step, slope = eye.copy(), -g, -float(g @ g)
        t = 1.0
        while True:
            x_new = x + t * step
            f_new, g_new = value_grad(x_new)
            if f_new <= f + 1e-4 * t * slope or t < 1e-12:
                break
            t *= 0.5
        s, yv = x_new - x, g_new - g
        sy = float(s @ yv)
        if sy > 0.0:
            rho = 1.0 / sy
            left = eye - rho * np.outer(s, yv)
            h_inv = left @ h_inv @ left.T + rho * np.outer(s, s)
        if f_new >= f:
            break
        x, f, g = x_new, f_new, g_new
    if np.linalg.norm(g) > REFERENCE_GRAD_RTOL * scale:
        raise RuntimeError(
            f"toy reference not certified: gradient norm {np.linalg.norm(g):.3e} at seed {cfg.seed}"
        )
    return x, f


def first_at_or_below(series, tol):
    """First 1-based index with ``series <= tol``; None if never."""
    hits = np.nonzero(np.asarray(series) <= tol)[0]
    return int(hits[0]) + 1 if hits.size else None


def counted(problem):
    """``(instrumented problem, counters)``: one counter per oracle."""
    instrumented, res, fwd = counting_problem(problem)
    return instrumented, res + fwd


def frugality_violations(counters, before, iterations):
    """Oracles whose call count over a run differs from its iterations."""
    return [
        f"oracle {k} ran {c.count - b} times in {iterations} iterations"
        for k, (c, b) in enumerate(zip(counters, before))
        if c.count - b != iterations
    ]


def finiteness_violations(report):
    """Public outputs of a run that are not finite.

    The objective is NaN by design where it was not recorded, so only a
    recorded series is checked.
    """
    bad = []
    for name in ("final_x", "consensus", "variance"):
        if not np.all(np.isfinite(getattr(report, name))):
            bad.append(f"{name} is not finite")
    if report.iterations and not np.all(np.isnan(report.objective)):
        if not np.all(np.isfinite(report.objective)):
            bad.append("objective is not finite")
    for name in ("consensus_gap", "inclusion_residual"):
        if not np.isfinite(getattr(report, name)):
            bad.append(f"{name} is not finite")
    return bad


def checked_execute(execute, method, problem, budget, **kwargs):
    """Run ``execute`` on an instrumented copy of ``problem``.

    Returns ``(report, seconds, violations)``: the wall time of the
    ``execute`` call alone, and the frugality and finiteness violations of
    the run. An exception from the library propagates.
    """
    instrumented, counters = counted(problem)
    t0 = time.perf_counter()
    report = execute(method, instrumented, budget, **kwargs)
    seconds = time.perf_counter() - t0
    if report.iterations < 1:
        return report, seconds, ["run made no iteration"]
    bad = frugality_violations(counters, [0] * len(counters), report.iterations)
    return report, seconds, bad + finiteness_violations(report)


def certificate_violations(report, scale, rtol):
    """Fixed-point certificates above ``rtol * scale``.

    At a fixed point all blocks agree (``consensus_gap``) and the recovered
    operator values sum to zero (``inclusion_residual``).
    """
    return [
        f"{name} {getattr(report, name):.3e} above {rtol * scale:.3e}"
        for name in ("consensus_gap", "inclusion_residual")
        if not getattr(report, name) <= rtol * scale
    ]
