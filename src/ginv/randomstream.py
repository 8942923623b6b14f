"""Seedable random stream with a documented, portable construction.

The integer stream is SplitMix64: state advances by the golden-ratio constant
0x9E3779B97F4A7C15 and each output is finalized with two xor-shift-multiply
rounds. Uniform doubles take the top 53 bits of one output. Standard normals
use the Box-Muller transform on two uniforms and come in whole pairs (the
real and imaginary part of one complex entry), so the stream's position is
the one integer state. The integer stream is bit-exact on every platform; the
float transforms run in numpy's elementwise kernels (SIMD code picked for the
CPU at run time), so the last bits of normals may differ across numpy builds
and CPUs, which is far below every tolerance used in this package.

A normal depends only on its position in the stream, not on how many pairs
one call asks for: each kernel works elementwise. So normal draws are served
from a block made ahead from the current position, which gives the same
values as drawing them one call at a time. For the same reason a block serves
every stream at its position, not only the one that made it: a stream put at
another's position (`_position`, `_restore`) takes over its block too.
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
        # Normals made ahead: _block[_block_at:] continue the stream from the
        # state _block_end; None before the first.
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
        """count values of the normal stream from the current position
        (count is even), without moving it: each pair of uniforms gives a
        Box-Muller pair (cosine value, then sine value)."""
        steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        u = (_mix_array(np.uint64(self._state) + steps) >> np.uint64(11)).astype(float) * (2.0 ** -53)
        # Box-Muller; u1 is kept away from 0 so the log is finite.
        r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        theta = 2.0 * np.pi * u[1::2]
        z = np.empty(count)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z

    def _normals(self, count: int) -> np.ndarray:
        """The next count values of the normal stream (count is even).

        They come from the block while the stream sits where the block
        continues and the block holds them; otherwise from a fresh block
        made at the current position, or, past _BLOCK values, from a draw of
        their own. The state moves past the count uniforms.
        """
        block, at = self._block, self._block_at
        if self._state != self._block_end or at + count > len(block):
            block, at = self._ahead(max(count, _BLOCK)), 0
            if count <= _BLOCK:
                self._block = block
        self._state = (self._state + count * _GOLDEN) & _MASK64
        self._block_at = at + count
        self._block_end = self._state if block is self._block else None
        return block[at : at + count].copy()

    def _position(self) -> tuple:
        """The stream's whole position: its state and the block it serves."""
        return self._state, self._block, self._block_at, self._block_end

    def _restore(self, position: tuple) -> None:
        """Put the stream at a position that _position gave, of this stream or
        another; blocks are never written to, so two streams can share one."""
        self._state, self._block, self._block_at, self._block_end = position

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Matrix with independent complex Gaussian entries (real and imag N(0,1)).

        Entries are filled in row-major order, the real part of each before
        its imaginary part.
        """
        return self._normals(2 * rows * cols).view(complex).reshape(rows, cols)

    def spawn(self, index: int) -> "RandomStream":
        """Independent child stream determined by (seed, index), not by draws so far."""
        return RandomStream(_mix((self._seed ^ _mix((index + 1) * _GOLDEN & _MASK64)) & _MASK64))
