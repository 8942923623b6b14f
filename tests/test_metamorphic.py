"""Metamorphic relations: a transformed instance must give the answer that
the algebra predicts for it, with no oracle.

Scaling: the outer inverse of (c a, p, q) is b / c, so it exists exactly when
that of (a, p, q) does. For c = 2^k the scaling is exact in floating point,
and so are the SVD and the inverse that the solver takes of the scaled core,
so the verdict must be equal and b scaled bit for bit. The flags of b and the
subspace fields of a failing report rest on rank cutoffs that are not yet
homogeneous in c, so this relation does not assert them.
"""

import numpy as np
import pytest

from conftest import rational_instance
from ginv import RandomStream, compute_outer_pql, exists_outer_pql, random_idempotent

POWERS = (-40, -14, -1, 1, 14, 40)


def _seeded(seed):
    """(a, p, q) at n = 2 + seed % 5: a of a random rank with singular values
    spread over six decades, so that the verdict is sometimes False."""
    stream = RandomStream(900 + seed)
    n = 2 + seed % 5
    r = stream.randint(1, n - 1)
    ra = stream.randint(1, n)
    u = np.linalg.qr(stream.normal_matrix(n, n))[0][:, :ra]
    v = np.linalg.qr(stream.normal_matrix(n, n))[0][:, :ra]
    sv = 10.0 ** -np.linspace(0.0, 6.0 * stream.random(), ra)
    a = (u * sv) @ v.conj().T
    return a, random_idempotent(n, r, 0.3, stream), random_idempotent(n, n - r, 0.3, stream)


def _replays():
    """The rational instance beside the rank cutoff (conftest), and
    a = 1e-12 I with p = diag(1, 0), q = diag(0, 1), whose b is diag(1e12, 0)."""
    exact = tuple(m.to_complex() for m in rational_instance())
    tiny = (1e-12 * np.eye(2), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    return {"rational": exact, "tiny": tiny}


INSTANCES = {f"seed-{seed}": _seeded(seed) for seed in range(59)} | _replays()


def test_the_replays_exist():
    for a, p, q in _replays().values():
        assert exists_outer_pql(a, p, q).exists


def test_the_seeded_instances_read_both_verdicts():
    assert {exists_outer_pql(*INSTANCES[f"seed-{seed}"]).exists for seed in range(59)} == {True, False}


@pytest.mark.parametrize("name", list(INSTANCES))
def test_scaling_by_a_power_of_two_keeps_the_verdict_and_scales_b(name):
    a, p, q = INSTANCES[name]
    exists = exists_outer_pql(a, p, q).exists
    b = compute_outer_pql(a, p, q).b if exists else None
    for k in POWERS:
        scaled = 2.0**k * a
        assert exists_outer_pql(scaled, p, q).exists == exists, k
        if exists:
            np.testing.assert_array_equal(compute_outer_pql(scaled, p, q).b, 2.0**-k * b)
