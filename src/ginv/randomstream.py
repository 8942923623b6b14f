"""Seedable random stream with a documented, portable construction.

The integer stream is SplitMix64: state advances by the golden-ratio constant
0x9E3779B97F4A7C15 and each output is finalized with two xor-shift-multiply
rounds. Uniform doubles take the top 53 bits of one output. Standard normals
use the Box-Muller transform on two uniforms (the second value of each pair
is cached). The integer stream is bit-exact on every platform; the float
transforms run in numpy's elementwise kernels (SIMD code picked for the CPU
at run time), so the last bits of normals may differ across numpy builds and
CPUs, which is far below every tolerance used in this package.

A normal depends only on its position in the stream, (state, pending spare),
not on how many values one call asks for: each kernel works elementwise. So
normal draws are served from a block made ahead from the current position,
which gives the same values as drawing them one call at a time.
"""

from __future__ import annotations

import numpy as np

from .linalg import _integer

__all__ = ["RandomStream"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Normals made ahead per block; a longer draw is made on its own and not kept.
_BLOCK = 256


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
        self._seed = _integer(seed, "seed") & _MASK64
        self._state = self._seed
        self._spare_normal = None
        # Normals made ahead: _block[_block_at:] continue the stream from the
        # position _block_end, a (state, spare) pair; None before the first.
        self._block = None
        self._block_at = 0
        self._block_end = None

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

    def _ahead(self, count: int) -> np.ndarray:
        """At least count values of the normal stream from the current
        position, without moving it.

        A pending spare comes first; each further pair of uniforms gives a
        Box-Muller pair (cosine value, then sine value).
        """
        head = self._spare_normal is not None
        pairs = (count - head + 1) // 2
        steps = np.arange(1, 2 * pairs + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        u = (_mix_array(np.uint64(self._state) + steps) >> np.uint64(11)).astype(float) * (2.0 ** -53)
        # Box-Muller; u1 is kept away from 0 so the log is finite.
        r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        theta = 2.0 * np.pi * u[1::2]
        z = np.empty(head + 2 * pairs)
        if head:
            z[0] = self._spare_normal
        z[head::2] = r * np.cos(theta)
        z[head + 1 :: 2] = r * np.sin(theta)
        return z

    def _normals(self, count: int) -> np.ndarray:
        """The next count values of the normal stream.

        They come from the block while the stream sits where the block
        continues and the block holds them; otherwise from a fresh block
        made at the current position, or, past _BLOCK values, from a draw of
        their own. The state moves past the uniforms of every pair begun,
        and the sine value of a pair that is only half used becomes the new
        spare.
        """
        block, at = self._block, self._block_at
        if (self._state, self._spare_normal) != self._block_end or at + count > len(block):
            block, at = self._ahead(max(count, _BLOCK)), 0
            if count <= _BLOCK:
                self._block = block
        rest = count - (self._spare_normal is not None)
        self._state = (self._state + (rest + 1) // 2 * 2 * _GOLDEN) & _MASK64
        self._spare_normal = float(block[at + count]) if rest % 2 else None
        self._block_at = at + count
        self._block_end = (self._state, self._spare_normal) if block is self._block else None
        return block[at : at + count].copy()

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
