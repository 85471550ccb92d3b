"""Closed-form proximal, projection and smooth building blocks.

All operators act on 1-D numpy arrays (points of R^d) and are total unless
stated otherwise.
"""

import math

import numpy as np

from .errors import ParameterError


def prox_norm_offset(xi, tau, v):
    """Prox of ``tau * ||x - xi||`` at ``v`` (block soft thresholding).

    Returns ``xi`` when ``||v - xi|| <= tau``, otherwise shrinks ``v`` towards
    ``xi`` by ``tau`` along the ray.
    """
    if tau <= 0:
        raise ParameterError("tau must be positive")
    xi = np.asarray(xi, dtype=float)
    v = np.asarray(v, dtype=float)
    diff = v - xi
    dist = math.sqrt(diff @ diff)
    if dist <= tau:
        return xi.copy()
    return v - (tau / dist) * diff


def soft_threshold_offset(x0, tau, v):
    """Prox of ``tau * ||x - x0||_1`` at ``v`` (componentwise shrinkage)."""
    if tau <= 0:
        raise ParameterError("tau must be positive")
    x0 = np.asarray(x0, dtype=float)
    v = np.asarray(v, dtype=float)
    diff = v - x0
    return x0 + np.sign(diff) * np.maximum(np.abs(diff) - tau, 0.0)


def project_simplex(v):
    """Euclidean projection onto the standard unit simplex.

    Sort-then-threshold algorithm, O(d log d).
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    cond = u + (1.0 - css) / idx > 0
    rho = int(idx[cond][-1])
    lam = (1.0 - css[rho - 1]) / rho
    return np.maximum(v + lam, 0.0)


def project_halfspace(c, b, v):
    """Euclidean projection onto ``{x : c.x <= b}``."""
    c = np.asarray(c, dtype=float)
    v = np.asarray(v, dtype=float)
    nrm2 = float(c @ c)
    if nrm2 == 0.0:
        raise ParameterError("halfspace normal must be nonzero")
    slack = float(c @ v) - b
    if slack <= 0.0:
        return v.copy()
    return v - (slack / nrm2) * c


def huber_value(delta1, delta2, z):
    """Value of the flat-bottomed Huber penalty at ``z``.

    Zero inside ``|z| <= delta1``, quadratic ``(|z| - delta1)^2 / 2`` in the
    middle band, linear with slope ``delta2 - delta1`` outside. Accepts
    scalars (returns a float) or arrays.
    """
    if delta1 < 0 or delta1 > delta2:
        raise ParameterError("need 0 <= delta1 <= delta2")
    z = np.asarray(z, dtype=float)
    az = np.abs(z)
    shifted = np.maximum(az - delta1, 0.0)
    quad = 0.5 * shifted * shifted
    lin = (delta2 - delta1) * az - 0.5 * (delta2 * delta2 - delta1 * delta1)
    value = np.where(az <= delta2, quad, lin)
    return float(value) if value.ndim == 0 else value


def huber_grad(delta1, delta2, z):
    """Gradient of the flat-bottomed Huber penalty at ``z``:
    ``sign(z) * clip(|z| - delta1, 0, delta2 - delta1)``, continuous in ``z``.
    Accepts scalars (returns a float) or arrays.
    """
    if delta1 < 0 or delta1 > delta2:
        raise ParameterError("need 0 <= delta1 <= delta2")
    z = np.asarray(z, dtype=float)
    grad = np.sign(z) * np.minimum(np.maximum(np.abs(z) - delta1, 0.0), delta2 - delta1)
    return float(grad) if grad.ndim == 0 else grad

