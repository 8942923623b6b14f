"""Shared fixtures and instance generators for the test suite."""

import numpy as np
import pytest

from ginv import RandomStream, exists_outer_pql, idempotent_from_matrix, random_idempotent


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
