"""Evaluation schedules and causal forward-routing pairs.

A schedule is an integer vector f of length n with f[0] = 0, f[-1] = m and
nondecreasing entries; f[i] is the number of forward operators evaluated
before the (i+1)-th resolvent. A routing pair (H, K) is causal for f when H
has the staircase support (row i of H may be nonzero only in the first f[i]
columns) and K^T the complementary one (row j of K may be nonzero only in
columns h with f[h] <= j). Entries outside the support are exact zeros, which
makes H @ diag(c) @ K strictly lower triangular for every diagonal c.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotCausalError, ParameterError


def is_valid_schedule(f, n, m):
    """True iff ``f`` is a valid length-n schedule for m forward operators."""
    f = np.asarray(f)
    if f.shape != (n,):
        return False
    if f[0] != 0 or f[-1] != m:
        return False
    if np.any(f[1:] < f[:-1]):
        return False
    return bool(np.all(f >= 0) and np.all(f <= m))


def random_schedule(n, m, seed):
    """Uniformly sampled schedule: sorted interior draws from {0, ..., m}."""
    rng = np.random.default_rng(seed)
    inner = np.sort(rng.integers(0, m + 1, size=n - 2)) if n > 2 else np.array([], int)
    return np.concatenate(([0], inner, [m])).astype(int)


def support_masks(f, m):
    """Boolean allowed-support masks for H (n x m) and K (m x n)."""
    f = np.asarray(f, dtype=int)
    n = f.size
    cols = np.arange(m)
    h_mask = cols[None, :] < f[:, None]          # H[i, j] allowed iff j < f[i]
    k_mask = (cols[:, None] >= f[None, :])        # K[j, h] allowed iff j >= f[h]
    return h_mask, k_mask


def is_causal_pair(h_mat, k_mat, f):
    """True iff the supports of (H, K) respect the schedule ``f``.

    Zero-forward pairs (m = 0) are vacuously causal. Raises on shape mismatch.
    """
    h_mat = np.asarray(h_mat, dtype=float)
    k_mat = np.asarray(k_mat, dtype=float)
    f = np.asarray(f, dtype=int)
    n = f.size
    m = h_mat.shape[1] if h_mat.ndim == 2 else 0
    if h_mat.shape != (n, m) or k_mat.shape != (m, n):
        raise ParameterError(
            f"shape mismatch: H {h_mat.shape}, K {k_mat.shape}, schedule length {n}"
        )
    if m == 0:
        return True
    if not is_valid_schedule(f, n, m):
        return False
    h_mask, k_mask = support_masks(f, m)
    return bool(np.all(h_mat[~h_mask] == 0.0) and np.all(k_mat[~k_mask] == 0.0))


def infer_schedule(h_mat, k_mat):
    """Minimal schedule consistent with the supports of (H, K).

    Lower bounds come from H (row i needs f[i] >= last nonzero column + 1),
    upper bounds from K (column h needs f[h] <= first nonzero row), both made
    monotone before feasibility is checked. Raises :class:`NotCausalError`
    when the bounds cross or force f[0] > 0 or f[-1] < m.
    """
    h_mat = np.asarray(h_mat, dtype=float)
    k_mat = np.asarray(k_mat, dtype=float)
    n, m = h_mat.shape
    if k_mat.shape != (m, n):
        raise ParameterError("K must be the transpose shape of H")
    if m == 0:
        return np.zeros(n, dtype=int)

    lower = np.zeros(n, dtype=int)
    upper = np.full(n, m, dtype=int)
    for i in range(n):
        nz = np.nonzero(h_mat[i])[0]
        if nz.size:
            lower[i] = nz[-1] + 1
        nz = np.nonzero(k_mat[:, i])[0]
        if nz.size:
            upper[i] = nz[0]
    lower = np.maximum.accumulate(lower)
    upper = np.minimum.accumulate(upper[::-1])[::-1]

    lower[-1] = max(lower[-1], m)
    if lower[0] > 0:
        raise NotCausalError("H forces a forward evaluation before the first resolvent")
    if upper[-1] < m:
        raise NotCausalError("K forces a forward evaluation after the last resolvent")
    if np.any(lower > upper):
        raise NotCausalError("support bounds from H and K are incompatible")
    return lower


@dataclass(frozen=True)
class CausalPair:
    """Validated forward-routing pair: H (n x m), K (m x n), schedule F.

    Columns of H and rows of K sum to one; entries outside the staircase
    supports are exact zeros.
    """

    H: np.ndarray
    K: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        h = np.ascontiguousarray(np.asarray(self.H, dtype=float))
        k = np.ascontiguousarray(np.asarray(self.K, dtype=float))
        f = np.asarray(self.F, dtype=int)
        n, m = h.shape
        if not is_valid_schedule(f, n, m):
            raise NotCausalError(f"invalid schedule {f.tolist()} for n={n}, m={m}")
        if not is_causal_pair(h, k, f):
            raise NotCausalError("supports of H/K do not respect the schedule")
        if m > 0:
            col = h.sum(axis=0)
            row = k.sum(axis=1)
            if np.max(np.abs(col - 1.0)) > 1e-9 or np.max(np.abs(row - 1.0)) > 1e-9:
                raise NotCausalError("H columns and K rows must sum to one")
        for arr in (h, k, f):
            arr.flags.writeable = False
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "F", f)

    @property
    def n(self):
        return self.H.shape[0]

    @property
    def m(self):
        return self.H.shape[1]

    @staticmethod
    def empty(n):
        """Pair for a pure resolvent problem (m = 0)."""
        return CausalPair(np.zeros((n, 0)), np.zeros((0, n)), np.zeros(n, dtype=int))


def random_causal_pair(n, m, f, seed=0):
    """Random causal pair: sample, zero the complements, normalize the sums.

    H and K entries are drawn uniformly from [0.5, 1.5), bounded away from
    zero so normalization is well defined. Deterministic per seed.
    """
    f = np.asarray(f, dtype=int)
    if not is_valid_schedule(f, n, m):
        raise NotCausalError(f"invalid schedule {f.tolist()} for n={n}, m={m}")
    if m == 0:
        return CausalPair.empty(n)

    rng = np.random.default_rng(seed)
    h = rng.uniform(0.5, 1.5, size=(n, m))
    k = rng.uniform(0.5, 1.5, size=(m, n))
    h_mask, k_mask = support_masks(f, m)
    h[~h_mask] = 0.0
    k[~k_mask] = 0.0
    col = h.sum(axis=0)
    row = k.sum(axis=1)
    # every column of H and row of K has allowed support for a valid schedule
    # (the last resolvent sees all forwards, the first none)
    if np.any(col == 0.0) or np.any(row == 0.0):
        raise NotCausalError("schedule leaves an H column or K row with empty support")
    h /= col[None, :]
    k /= row[:, None]
    return CausalPair(h, k, f)
