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
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """_mix on a uint64 array; uint64 products wrap modulo 2^64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


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

    def _randoms(self, count: int) -> np.ndarray:
        """The next count values of random(), as one array."""
        steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = _mix_array(np.uint64(self._state) + steps)
        self._state = (self._state + count * _GOLDEN) & _MASK64
        return (z >> np.uint64(11)).astype(float) * (2.0 ** -53)

    def _normals(self, count: int) -> np.ndarray:
        """The next count values of the normal stream.

        A pending spare comes first; each further pair of uniforms gives a
        Box-Muller pair (cosine value, then sine value), and the sine value
        of a pair that is only half used becomes the new spare.
        """
        out = np.empty(count)
        head = 0
        if count and self._spare_normal is not None:
            out[0] = self._spare_normal
            self._spare_normal = None
            head = 1
        pairs = (count - head + 1) // 2
        if pairs:
            u = self._randoms(2 * pairs)
            # Box-Muller; u1 is kept away from 0 so the log is finite.
            r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
            theta = 2.0 * np.pi * u[1::2]
            z = np.empty(2 * pairs)
            z[0::2] = r * np.cos(theta)
            z[1::2] = r * np.sin(theta)
            out[head:] = z[: count - head]
            if (count - head) % 2:
                self._spare_normal = float(z[-1])
        return out

    def normal(self) -> float:
        return float(self._normals(1)[0])

    def complex_normal(self) -> complex:
        re, im = self._normals(2)
        return complex(re, im)

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Matrix with independent complex Gaussian entries (real and imag N(0,1)).

        Entries are filled in row-major order, the real part of each before
        its imaginary part.
        """
        return self._normals(2 * rows * cols).view(complex).reshape(rows, cols)

    def spawn(self, index: int) -> "RandomStream":
        """Independent child stream determined by (seed, index), not by draws so far."""
        return RandomStream(_mix((self._seed ^ _mix((index + 1) * _GOLDEN & _MASK64)) & _MASK64))
