"""Small deterministic linear-algebra kernels used throughout the package.

The spectral norm and its dominant singular pair come from one exact SVD
kernel (LAPACK's thin SVD); the matrices involved are small.
"""

import numpy as np


def top_singular_triple(a):
    """Dominant singular triple (sigma, u, v) of a 2-D array.

    The first triple of LAPACK's thin SVD, so ``sigma`` is exact to working
    accuracy even when the top singular values coalesce. Returns
    ``sigma >= 0`` and unit vectors with ``a @ v = sigma * u``; a zero matrix
    gives ``sigma = 0`` and a zero ``v``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("expected a nonempty matrix")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0:
        return 0.0, u[:, 0], np.zeros(a.shape[1])
    return float(s[0]), u[:, 0], vt[0]


def spectral_norm(a):
    """Largest singular value of ``a``."""
    sigma, _, _ = top_singular_triple(a)
    return sigma


def consensus_variance(x, mean=None):
    """Mean squared deviation of the blocks of ``x`` from their average.

    ``x`` is an (n, d) array of n points; returns (1/n) sum_i ||x_i - mean||^2.
    Zero exactly when all blocks agree. A caller that already holds the
    block average ``x.sum(axis=0) / n`` may pass it as ``mean``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        x = np.atleast_2d(x)
    n = x.shape[0]
    diff = x - (x.sum(axis=0) / n if mean is None else mean)
    return float((diff * diff).sum() / n)
