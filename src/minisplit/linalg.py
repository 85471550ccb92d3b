"""Small deterministic linear-algebra kernels used throughout the package.

The spectral norm and its dominant singular pair come from one exact SVD
kernel (LAPACK's thin SVD); the matrices involved are small.
"""

import numpy as np

from .errors import NotRepresentableError

#: Relative tolerance of :func:`psd_factor` for negative and dropped eigenvalues.
_PSD_TOL = 1e-8


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


def consensus_variance(x):
    """Mean squared deviation of the blocks of ``x`` from their average.

    ``x`` is an (n, d) array of n points; returns (1/n) sum_i ||x_i - mean||^2.
    Zero exactly when all blocks agree.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    diff = x - x.sum(axis=0) / n
    return float(np.sum(diff * diff) / n)


def psd_factor(a, *, ref=None, label="matrix"):
    """Factor a symmetric PSD matrix as ``B @ B.T`` with B of full column rank.

    Tolerances scale with ``max(||a||, ref)``; pass ``ref`` when ``a`` is a
    residual of larger matrices so floating-point noise around zero is still
    accepted. Eigenvalues below -1e-8 times that scale raise
    :class:`NotRepresentableError`; those up to 1e-8 times it are clamped to
    zero and their columns dropped, so ``B`` has one column per strictly positive
    eigenvalue.
    """
    a = np.asarray(a, dtype=float)
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    scale = max(scale, float(ref) if ref is not None else 0.0)
    if scale == 0.0:
        return np.zeros((a.shape[0], 0))
    if not np.allclose(a, a.T, atol=1e-12 * max(scale, 1.0)):
        raise NotRepresentableError(f"{label} is not symmetric")
    vals, vecs = np.linalg.eigh((a + a.T) / 2.0)
    if vals[0] < -_PSD_TOL * scale:
        raise NotRepresentableError(
            f"{label} has negative eigenvalue {vals[0]:.3e}; no PSD factorization"
        )
    keep = vals > _PSD_TOL * scale
    return vecs[:, keep] * np.sqrt(vals[keep])
