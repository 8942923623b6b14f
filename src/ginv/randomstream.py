"""Seedable random stream with a documented, portable construction.

The integer stream is SplitMix64: state advances by the golden-ratio constant
0x9E3779B97F4A7C15 and each output is finalized with two xor-shift-multiply
rounds. Uniform doubles take the top 53 bits of one output. Standard normals
use the Box-Muller transform on two uniforms (the second value of each pair
is cached). The integer stream is bit-exact on every platform; the float
transforms go through libm, so the last bits of normals may differ across C
libraries, which is far below every tolerance used in this package.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class RandomStream:
    """Deterministic stream of uniforms, normals, and complex Gaussian matrices."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._state = self._seed
        self._spare_normal = None

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        """Integer uniform on the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        return lo + int(self.random() * span)

    def normal(self) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # Box-Muller; u1 is kept away from 0 so the log is finite.
        u1 = 1.0 - self.random()
        u2 = self.random()
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        self._spare_normal = float(r * np.sin(theta))
        return float(r * np.cos(theta))

    def complex_normal(self) -> complex:
        return complex(self.normal(), self.normal())

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Matrix with independent complex Gaussian entries (real and imag N(0,1))."""
        out = np.zeros((rows, cols), dtype=complex)
        for i in range(rows):
            for j in range(cols):
                out[i, j] = self.complex_normal()
        return out

    def spawn(self, index: int) -> "RandomStream":
        """Independent child stream determined by (seed, index), not by draws so far."""
        return RandomStream(_mix((self._seed ^ _mix((index + 1) * _GOLDEN & _MASK64)) & _MASK64))
