"""Shared fixtures and instance generators for the test suite."""

from fractions import Fraction

import numpy as np
import pytest

from ginv import RandomStream, exists_outer_pql, idempotent_from_matrix, random_idempotent
from ginv.exact import ExactMatrix


@pytest.fixture
def svd_counter(monkeypatch):
    """count(fn): the numpy.linalg.svd calls that fn() makes."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)

    def count(fn):
        calls.clear()
        fn()
        return len(calls)

    return count


@pytest.fixture
def diag_instance():
    """Instance small enough to work by hand.

    a = diag(1, 2, 0), p projects onto the first two coordinates, q onto the
    third. The prescribed inverse is diag(1, 1/2, 0) and it is strict.
    """
    a = np.diag([1.0, 2.0, 0.0]).astype(complex)
    p = idempotent_from_matrix(np.diag([1.0, 1.0, 0.0]))
    q = idempotent_from_matrix(np.diag([0.0, 0.0, 1.0]))
    return a, p, q


def draw_solvable(seed, n_lo=2, n_hi=8, skew=0.3, full_rank=False, max_tries=64):
    """A random (a, p, q) triple for which the prescribed inverse exists.

    Mixes full-rank and rank-deficient a; the idempotents are drawn with the
    given skew so they are generally not hermitian.
    """
    root = RandomStream(seed)
    for attempt in range(max_tries):
        stream = root.spawn(attempt)
        n = stream.randint(n_lo, n_hi)
        r = stream.randint(1, n - 1) if n > 1 else 1
        if full_rank or stream.randint(0, 1):
            a = stream.normal_matrix(n, n)
        else:
            ra = stream.randint(r, n)
            a = stream.normal_matrix(n, ra) @ stream.normal_matrix(ra, n)
        p = random_idempotent(n, r, skew=skew, seed=stream.spawn(1))
        q = random_idempotent(n, n - r, skew=skew, seed=stream.spawn(2))
        if exists_outer_pql(a, p, q).exists:
            return a, p, q
    raise AssertionError(f"no solvable draw for seed {seed}")


# The rational instance beside the rank cutoff: a = Z diag(1, 1e-9, 2, 3) X^-1,
# p = X diag(1, 1, 0, 0) X^-1 and q = Y diag(0, 0, 1, 1) Y^-1. The exact outer
# inverse exists, with norm 3.3e9.
_X = [[-1, 1, -3, 3], [-1, -2, 0, 3], [3, 3, -1, -3], [2, 1, 2, -3]]
_Y = [[-3, 0, -1, 0], [3, -2, 0, -1], [-1, 2, -2, -1], [-3, -2, -2, 1]]
_Z = [[1, 0, -2, 2], [2, -2, -3, -1], [-2, 2, 0, 0], [-1, 0, 3, -2]]


def rational_instance():
    """(a, p, q) of the instance above, as ExactMatrix."""
    x, y, z = ExactMatrix(_X), ExactMatrix(_Y), ExactMatrix(_Z)

    def diag(*d):
        return ExactMatrix([[d[i] if i == j else 0 for j in range(4)] for i in range(4)])

    return z @ diag(1, Fraction(1, 10**9), 2, 3) @ x.inverse(), x @ diag(1, 1, 0, 0) @ x.inverse(), y @ diag(0, 0, 1, 1) @ y.inverse()
