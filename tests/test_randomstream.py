"""The vectorized normal draws, served from blocks made ahead, against the
scalar loop they replace; the whole Box-Muller pairs every draw asks for; and
the one rule for seeds."""

import random

import numpy as np
import pytest

import ginv.randomstream as randomstream
from ginv import RandomStream, compute_outer_pql, perturb_idempotent, random_idempotent
from ginv.errors import InputError
from ginv.harness import CHECKS, EnsembleConfig, run_campaign

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class ScalarStream:
    """The stream drawn one value at a time, as it was first written, with
    the sine value of each pair kept as a spare for the next value: the
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

    def randint(self, lo, hi):
        return lo + int(self.random() * (hi - lo + 1))

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
    assert ref._spare_normal is None  # a matrix takes whole pairs


@pytest.mark.parametrize("seed", [0, 1, 7, 2**64 - 1, 123456789])
def test_normal_matrix_matches_the_scalar_loop(seed):
    fast, ref = RandomStream(seed), ScalarStream(seed)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (6, 6), (1, 7), (5, 1), (4, 9)]
    for rows, cols in shapes * 3:
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
    np.testing.assert_array_equal(fast.normal_matrix(2, 2), ref.normal_matrix(2, 2))
    _same_state(fast, ref)


def test_wide_draws_match_bit_for_bit():
    fast, ref = RandomStream(44), ScalarStream(44)
    assert fast.random() == ref.random()
    got, want = fast.normal_matrix(3, 2001), ref.normal_matrix(3, 2001)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    _same_state(fast, ref)


def test_block_serving_matches_the_scalar_loop(monkeypatch):
    made = []
    ahead = RandomStream._ahead
    monkeypatch.setattr(RandomStream, "_ahead", lambda self, count: made.append(count) or ahead(self, count))
    fast, ref = RandomStream(1761), ScalarStream(1761)
    plan = random.Random(4)
    saved = [ref._state]
    wide = (1, randomstream._BLOCK)  # twice a block's values: made on its own
    draws = 0
    for step in range(600):
        op = plan.choice(["matrix"] * 4 + ["random", "randint", "save", "restore", "wide"])
        if op in ("matrix", "wide"):
            rows, cols = wide if op == "wide" else (plan.randint(0, 12), plan.randint(1, 6))
            got, want = fast.normal_matrix(rows, cols), ref.normal_matrix(rows, cols)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            draws += 1
            if op == "wide":
                assert fast._block is None or fast._block.size == randomstream._BLOCK
                assert fast._block_end is None
        elif op == "random":
            assert fast.random() == ref.random()
        elif op == "randint":
            assert fast.randint(2, 6) == ref.randint(2, 6)
        elif op == "save":
            saved.append(ref._state)
        else:  # back or ahead to a saved state alone; the block serves only where it continues
            fast._state = ref._state = plan.choice(saved)
        _same_state(fast, ref)
    assert 2 * randomstream._BLOCK in made
    assert len(made) < 0.6 * draws  # the rest were served from a block made for an earlier draw


def test_every_normal_draw_of_a_campaign_is_whole_pairs(monkeypatch):
    # the stream's position is its state alone only while no draw ends half
    # way through a Box-Muller pair
    counts = []
    normals = RandomStream._normals
    monkeypatch.setattr(RandomStream, "_normals", lambda self, count: counts.append(count) or normals(self, count))
    ids = tuple(sorted(CHECKS))
    assert len(ids) == 16
    for seed in (1, 7):
        config = EnsembleConfig(n_range=(2, 6), count=12, seed=seed, theorems=ids, perturbation_magnitudes=(0.5, 1e-3))
        run_campaign(config)
    assert counts and all(count % 2 == 0 for count in counts)


@pytest.mark.parametrize("seed", [2.5, 2.9, "2", True, np.bool_(False), [2], 1j])
def test_every_seed_takes_the_integer_rule(seed):
    p = random_idempotent(3, 1, 0.3, seed=1)
    a = RandomStream(2).normal_matrix(3, 3)
    for draw in (
        lambda: RandomStream(seed),
        lambda: random_idempotent(3, 1, 0.3, seed=seed),
        lambda: perturb_idempotent(p, 0.1, seed=seed),
        lambda: compute_outer_pql(a, p, p.complement(), basis_seed=seed),
    ):
        with pytest.raises(InputError, match="seed must be an integer"):
            draw()


def test_an_integral_float_seed_is_its_integer():
    p = random_idempotent(3, 1, 0.3, seed=1)
    a = RandomStream(2).normal_matrix(3, 3)
    assert RandomStream(2.0).normal_matrix(2, 2).tobytes() == RandomStream(2).normal_matrix(2, 2).tobytes()
    assert random_idempotent(4, 2, 0.3, seed=7.0).m.tobytes() == random_idempotent(4, 2, 0.3, seed=7).m.tobytes()
    assert perturb_idempotent(p, 0.1, seed=3.0).m.tobytes() == perturb_idempotent(p, 0.1, seed=3).m.tobytes()
    got = compute_outer_pql(a, p, p.complement(), basis_seed=2.0).b
    assert got.tobytes() == compute_outer_pql(a, p, p.complement(), basis_seed=2).b.tobytes()
