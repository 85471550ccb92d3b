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
    if not tau > 0:
        raise ParameterError("tau must be positive")
    return _prox_norm_offset(np.asarray(xi, dtype=float), tau, np.asarray(v, dtype=float))


def _prox_norm_offset(xi, tau, v):
    """:func:`prox_norm_offset` for float arrays and ``tau > 0``, unchecked."""
    diff = v - xi
    dist = math.sqrt(diff.dot(diff))
    if dist <= tau:
        return xi.copy()
    return v - (tau / dist) * diff


def soft_threshold_offset(x0, tau, v):
    """Prox of ``tau * ||x - x0||_1`` at ``v`` (componentwise shrinkage)."""
    if not tau > 0:
        raise ParameterError("tau must be positive")
    return _soft_threshold_offset(np.asarray(x0, dtype=float), tau, np.asarray(v, dtype=float))


def _soft_threshold_offset(x0, tau, v):
    """:func:`soft_threshold_offset` for float arrays and ``tau > 0``, unchecked."""
    diff = v - x0
    return x0 + np.sign(diff) * np.maximum(np.abs(diff) - tau, 0.0)


def project_simplex(v):
    """Euclidean projection onto the standard unit simplex.

    Sort-then-threshold algorithm, O(d log d). An empty or non-finite ``v``
    raises :class:`ParameterError`.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0 or not np.all(np.isfinite(v)):
        raise ParameterError("simplex projection needs a nonempty finite vector")
    return _project_simplex(v, np.arange(1, v.size + 1))


def _project_simplex(v, idx):
    """:func:`project_simplex` for a nonempty finite float array ``v``,
    unchecked; ``idx`` is ``arange(1, v.size + 1)``."""
    # np.sort and np.cumsum as methods: the same sort and sum, no wrappers
    u = v.copy()
    u.sort()
    u = u[::-1]
    css = u.cumsum()
    cond = u + (1.0 - css) / idx > 0
    try:
        rho = int(cond.nonzero()[0][-1]) + 1
    except IndexError:
        # only rounding fails every index (the top entry's partial sum swallows
        # the 1); the projection is the same after subtracting max(v) = u[0]
        return _project_simplex(v - u[0], idx)
    lam = (1.0 - float(css[rho - 1])) / rho
    return np.maximum(v + lam, 0.0)


def project_halfspace(c, b, v):
    """Euclidean projection onto ``{x : c.x <= b}``."""
    c = np.asarray(c, dtype=float)
    nrm2 = float(c @ c)
    if nrm2 == 0.0:
        raise ParameterError("halfspace normal must be nonzero")
    return _project_halfspace(c, nrm2, b, np.asarray(v, dtype=float))


def _project_halfspace(c, nrm2, b, v):
    """:func:`project_halfspace` for float arrays, unchecked; ``nrm2`` is
    ``c @ c`` as a nonzero float."""
    slack = float(c.dot(v)) - b
    if slack <= 0.0:
        return v.copy()
    return v - (slack / nrm2) * c


def huber_value(delta1, delta2, z):
    """Value of the flat-bottomed Huber penalty at ``z``.

    Zero inside ``|z| <= delta1``, quadratic ``(|z| - delta1)^2 / 2`` in the
    middle band, linear with slope ``delta2 - delta1`` outside. Accepts
    scalars (returns a float) or arrays.
    """
    if not 0 <= delta1 <= delta2:
        raise ParameterError("need 0 <= delta1 <= delta2")
    value = _huber_value(delta1, delta2, delta2 - delta1,
                         0.5 * (delta2 * delta2 - delta1 * delta1), np.asarray(z, dtype=float))
    return float(value) if value.ndim == 0 else value


def _huber_value(delta1, delta2, width, offset, z):
    """:func:`huber_value` for a float array ``z``, unchecked; ``width`` is
    ``delta2 - delta1`` and ``offset`` is ``(delta2**2 - delta1**2) / 2``."""
    az = np.abs(z)
    shifted = np.maximum(az - delta1, 0.0)
    quad = 0.5 * shifted * shifted
    lin = width * az - offset
    return np.where(az <= delta2, quad, lin)


def huber_grad(delta1, delta2, z):
    """Gradient of the flat-bottomed Huber penalty at ``z``:
    ``sign(z) * clip(|z| - delta1, 0, delta2 - delta1)``, continuous in ``z``.
    Accepts scalars (returns a float) or arrays.
    """
    if not 0 <= delta1 <= delta2:
        raise ParameterError("need 0 <= delta1 <= delta2")
    grad = _huber_grad(delta1, delta2 - delta1, np.asarray(z, dtype=float))
    return float(grad) if grad.ndim == 0 else grad


def _huber_grad(delta1, width, z):
    """:func:`huber_grad` for a float array ``z``, unchecked; ``width`` is
    ``delta2 - delta1``."""
    return np.sign(z) * np.minimum(np.maximum(np.abs(z) - delta1, 0.0), width)
