import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
from hypothesis import assume, given, settings

from minisplit.linalg import consensus_variance, spectral_norm, top_singular_triple

entries = st.floats(-1e3, 1e3, allow_subnormal=False)
shapes = st.tuples(st.integers(1, 9), st.integers(1, 9))


@st.composite
def matrices(draw):
    """Dense, zero and rank-one matrices with 1 to 9 rows and columns; the
    nonzero entries of a rank-one matrix are normal numbers."""
    rows, cols = draw(shapes)
    kind = draw(st.sampled_from(["dense", "zero", "rank-one"]))
    if kind == "zero":
        return np.zeros((rows, cols))
    if kind == "rank-one":
        x = draw(hnp.arrays(float, rows, elements=entries))
        y = draw(hnp.arrays(float, cols, elements=entries))
        a = np.outer(x, y)
        # a subnormal product keeps almost none of its relative precision
        assume(np.all((a == 0.0) | (np.abs(a) >= np.finfo(float).tiny)))
        return a
    return draw(hnp.arrays(float, (rows, cols), elements=entries))


class TestSpectralNorm:
    def test_identity(self):
        assert abs(spectral_norm(np.eye(2)) - 1.0) < 1e-12

    def test_single_row(self):
        assert abs(spectral_norm(np.array([[3.0, 4.0]])) - 5.0) < 1e-12

    def test_rank_one_symmetric(self):
        # eigenvalues {0, 2} by the characteristic polynomial
        assert abs(spectral_norm(np.array([[1.0, -1.0], [-1.0, 1.0]])) - 2.0) < 1e-12

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_against_lapack_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9)))
            ref = np.linalg.svd(a, compute_uv=False)[0]
            assert abs(spectral_norm(a) - ref) <= 1e-10 * max(ref, 1.0)

    def test_deterministic(self):
        a = np.random.default_rng(1).standard_normal((6, 4))
        assert spectral_norm(a) == spectral_norm(a.copy())

    def test_triple_consistency(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 7))
        sigma, u, v = top_singular_triple(a)
        np.testing.assert_allclose(a @ v, sigma * u, atol=1e-10)
        np.testing.assert_allclose(a.T @ u, sigma * v, atol=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_matches_two_norm(self, a):
        sigma, u, v = top_singular_triple(a)
        ref = np.linalg.norm(a, 2)
        assert abs(sigma - ref) <= 1e-12 * ref
        if ref > 0.0:
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            np.testing.assert_allclose(a @ v, sigma * u, atol=1e-10 * ref)
        else:
            np.testing.assert_array_equal(v, 0.0)


class TestConsensusVariance:
    def test_consensus_is_zero(self):
        c = np.array([2.0, -1.0])
        assert consensus_variance(np.stack([c, c, c])) == 0.0

    def test_two_scalars(self):
        assert consensus_variance(np.array([[1.0], [-1.0]])) == 1.0

    def test_three_scalars(self):
        assert abs(consensus_variance(np.array([[0.0], [1.0], [2.0]])) - 2.0 / 3.0) < 1e-15

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 7))
        xbar = x.mean(axis=0)
        direct = np.mean([np.linalg.norm(xi - xbar) ** 2 for xi in x])
        assert abs(consensus_variance(x) - direct) < 1e-12
