"""The vectorized normal draws against the scalar loop they replace."""

import numpy as np
import pytest

from ginv import RandomStream

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ScalarStream:
    """The stream drawn one value at a time, as it was first written: the
    reference that the vectorized draws must match bit for bit."""

    def __init__(self, seed):
        self._state = seed & _MASK64
        self._spare_normal = None

    def random(self):
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
        return ((z ^ (z >> 31)) >> 11) * (2.0 ** -53)

    def normal(self):
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = 1.0 - self.random()
        u2 = self.random()
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        self._spare_normal = float(r * np.sin(theta))
        return float(r * np.cos(theta))

    def normal_matrix(self, rows, cols):
        out = np.zeros((rows, cols), dtype=complex)
        for i in range(rows):
            for j in range(cols):
                out[i, j] = complex(self.normal(), self.normal())
        return out


def _same_state(fast, ref):
    assert fast._state == ref._state
    assert fast._spare_normal == ref._spare_normal


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1, 123456789])
def test_normal_matrix_matches_the_scalar_loop(seed):
    fast, ref = RandomStream(seed), ScalarStream(seed)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (6, 6), (1, 7), (5, 1), (4, 9)]
    for k, (rows, cols) in enumerate(shapes * 3):
        if k % 2:  # an odd number of scalar draws leaves a spare behind
            assert fast.normal() == ref.normal()
            _same_state(fast, ref)
        got, want = fast.normal_matrix(rows, cols), ref.normal_matrix(rows, cols)
        assert got.shape == want.shape == (rows, cols)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        _same_state(fast, ref)


def test_uniforms_follow_the_same_state():
    fast, ref = RandomStream(5), ScalarStream(5)
    fast.normal_matrix(3, 3)
    ref.normal_matrix(3, 3)
    assert fast.random() == ref.random()
    fast.normal()
    ref.normal()
    np.testing.assert_array_equal(fast.normal_matrix(2, 2), ref.normal_matrix(2, 2))
    _same_state(fast, ref)


def test_wide_draws_match_bit_for_bit():
    fast, ref = RandomStream(44), ScalarStream(44)
    fast.normal()
    ref.normal()
    got, want = fast.normal_matrix(3, 2001), ref.normal_matrix(3, 2001)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    _same_state(fast, ref)
