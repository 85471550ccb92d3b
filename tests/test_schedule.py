import numpy as np
import pytest

from minisplit.errors import NotCausalError, ParameterError
from minisplit.schedule import (
    CausalPair,
    is_causal_pair,
    is_valid_schedule,
    random_causal_pair,
    random_schedule,
)

# the displayed supports for the schedule (0, 2, 2, 5) on 4 resolvents and
# 5 forwards: row i of H may touch the first F_i columns, row j of K the
# resolvents scheduled strictly before forward j
_F_DEMO = np.array([0, 2, 2, 5])


def _demo_pair(fill=1.0):
    h = np.zeros((4, 5))
    h[1, :2] = fill
    h[2, :2] = fill
    h[3, :] = fill
    k = np.zeros((5, 4))
    k[:, 0] = fill
    k[2:, 1] = fill
    k[2:, 2] = fill
    return h, k


class TestScheduleValidity:
    def test_demo_schedule(self):
        assert is_valid_schedule(_F_DEMO, 4, 5)

    def test_must_start_at_zero(self):
        assert not is_valid_schedule([1, 2], 2, 2)

    def test_must_be_nondecreasing(self):
        assert not is_valid_schedule([0, 3, 2, 5], 4, 5)

    def test_must_end_at_m(self):
        assert not is_valid_schedule([0, 1, 2], 3, 5)

    def test_empty_schedule_is_invalid(self):
        assert not is_valid_schedule(np.zeros(0, dtype=int), 0, 0)

    def test_random_schedule_valid(self):
        for seed in range(30):
            n = 2 + seed % 6
            m = seed % 5
            assert is_valid_schedule(random_schedule(n, m, seed), n, m)

    def test_random_schedule_deterministic(self):
        np.testing.assert_array_equal(random_schedule(6, 4, 9), random_schedule(6, 4, 9))


class TestCausalPairs:
    def test_demo_supports_are_causal(self):
        h, k = _demo_pair()
        assert is_causal_pair(h, k, _F_DEMO)

    def test_entry_above_staircase_breaks_causality(self):
        h, k = _demo_pair()
        h[0, 0] = 1.0  # first resolvent cannot consume any forward output
        assert not is_causal_pair(h, k, _F_DEMO)

    def test_empty_pair_is_causal(self):
        assert is_causal_pair(np.zeros((3, 0)), np.zeros((0, 3)), np.zeros(3, int))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ParameterError):
            is_causal_pair(np.zeros((3, 2)), np.zeros((2, 4)), np.array([0, 1, 2]))

    def test_routed_products_strictly_lower_triangular(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 7))
            f = random_schedule(n, m, 1000 + trial)
            pair = random_causal_pair(n, m, f, seed=trial)
            diag = np.diag(rng.uniform(0.0, 3.0, m))
            prod = pair.H @ diag @ pair.K
            assert np.all(np.triu(prod) == 0.0)


class TestRandomCausalPair:
    def test_normalization_exact(self):
        pair = random_causal_pair(5, 4, random_schedule(5, 4, 3), seed=3)
        np.testing.assert_allclose(pair.H.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(pair.K.sum(axis=1), 1.0, atol=1e-12)

    def test_support_zeros_exact(self):
        f = np.array([0, 1, 3])
        pair = random_causal_pair(3, 3, f, seed=11)
        assert pair.H[0, :].sum() == 0.0
        assert np.all(pair.H[1, 1:] == 0.0)
        assert np.all(pair.K[0, 1:] == 0.0)

    def test_deterministic_per_seed(self):
        f = random_schedule(4, 5, 2)
        a = random_causal_pair(4, 5, f, seed=7)
        b = random_causal_pair(4, 5, f, seed=7)
        np.testing.assert_array_equal(a.H, b.H)
        np.testing.assert_array_equal(a.K, b.K)

    def test_two_resolvent_pattern_forced(self):
        pair = random_causal_pair(2, 3, [0, 3], seed=5)
        np.testing.assert_array_equal(pair.H[0], 0.0)
        np.testing.assert_array_equal(pair.H[1], 1.0)
        np.testing.assert_array_equal(pair.K[:, 0], 1.0)
        np.testing.assert_array_equal(pair.K[:, 1], 0.0)

    def test_invalid_schedule_rejected(self):
        with pytest.raises(NotCausalError):
            random_causal_pair(3, 2, [0, 2, 1], seed=0)

    def test_pair_type_validates(self):
        with pytest.raises(NotCausalError):
            CausalPair(np.ones((2, 1)), np.ones((1, 2)), np.array([0, 1]))

    def test_pair_without_resolvents_rejected(self):
        with pytest.raises(NotCausalError, match="invalid schedule"):
            CausalPair.empty(0)
