"""Metamorphic relations: a transformed instance must give the answer that
the algebra predicts for it, with no oracle.

Scaling: the outer inverse of (c a, p, q) is b / c, so it exists exactly when
that of (a, p, q) does. For c = 2^k the scaling is exact in floating point,
and so are the SVD and the inverse that the solver takes of the scaled core,
so the verdict must be equal and b scaled bit for bit. The flags of b and the
subspace fields of a failing report rest on rank cutoffs that are not yet
homogeneous in c, so this relation does not assert them. For the same reason
the scaled campaign relation covers the bound ids only: the Section 2 ids
and classify_strict decide residuals against scales of another degree in c.

Adjoint duality: the outer inverse of (a^H, 1 - q^H, 1 - p^H) is b^H.

Unitary and permutation similarity x -> U x U^H and complex conjugation,
applied to every matrix of a scenario, map each statement of the paper to
itself. They are exact in exact arithmetic only, so a transformed report
may round differently: a report that is a near call (closest_call within
one decade) in either form is counted apart, and every other verdict must
be equal.
"""

import numpy as np
import pytest

from conftest import rational_instance
from ginv import EnsembleConfig, RandomStream, compute_outer_pql, exists_outer_pql, gen_scenario, random_idempotent, run_check, spectral_norm
from ginv.gen_inverse import _checked, _Evaluation
from ginv.harness import CHECKS
from ginv.linalg import DEFAULT_TOL
from ginv.perturbation import _MOVES, Scenario

POWERS = (-40, -14, -1, 1, 14, 40)


def _seeded(seed, decades=6.0):
    """(a, p, q) at n = 2 + seed % 5: a of a random rank with singular values
    spread over up to `decades` decades, so that the verdict is sometimes
    False."""
    stream = RandomStream(900 + seed)
    n = 2 + seed % 5
    r = stream.randint(1, n - 1)
    ra = stream.randint(1, n)
    u = np.linalg.qr(stream.normal_matrix(n, n))[0][:, :ra]
    v = np.linalg.qr(stream.normal_matrix(n, n))[0][:, :ra]
    sv = 10.0 ** -np.linspace(0.0, decades * stream.random(), ra)
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


def _existence(a, p, q):
    """The outer test of (a, p, q) as its decision."""
    return _Evaluation(*_checked(a, p, q, DEFAULT_TOL), DEFAULT_TOL)._outer_test


def test_the_adjoint_instance_has_the_adjoint_inverse():
    """On 300 seeded instances, singular values of a spread over up to twelve
    decades, the verdict is equal and b' = b^H up to 1e-13 kappa ||b||,
    kappa = ||a|| ||b||: the largest deviation seen is 5.6e-15 kappa ||b||."""
    near = 0
    for seed in range(300):
        a, p, q = _seeded(seed, 12.0)
        eye = np.eye(a.shape[0])
        dual = a.conj().T, eye - q.m.conj().T, eye - p.m.conj().T
        test, dual_test = _existence(a, p, q), _existence(*dual)
        if min(test.distance, dual_test.distance) <= 1:
            near += 1
            continue
        assert dual_test.truth == test.truth, seed
        if test.truth:
            b = compute_outer_pql(a, p, q).b
            nb = spectral_norm(b)
            assert spectral_norm(compute_outer_pql(*dual).b - b.conj().T) <= 1e-13 * spectral_norm(a) * nb * nb, seed
    assert near < 30


# The Section 2 and bound ids, in the order of harness.CHECKS.
IDS = tuple(t for t in CHECKS if not t.startswith("selftest"))


@pytest.fixture(scope="module")
def campaign():
    """(id, scenario, report) of the 15 ids at seeds 21-24, count 10, drawn
    as run_campaign draws them."""
    found = []
    for seed in (21, 22, 23, 24):
        config = EnsembleConfig(count=10, seed=seed, theorems=IDS)
        for index in range(config.count):
            memo = {}
            for theorem in IDS:
                s = gen_scenario(config, index, theorem, _memo=memo)
                found.append((theorem, s, run_check(theorem, s)[1]))
    return found


def _verdict(report):
    if report.kind == "bound":
        return report.hypothesis_satisfied, report.holds
    if report.kind == "equiv":
        return tuple(report.booleans()), report.identities
    return tuple((item.hypothesis, item.conclusion) for item in report.items)


def _mapped(s: Scenario, f) -> Scenario:
    """The scenario with f applied to a, delta_a, p, q, p' and q'."""
    moved = {name: f(e.m) for name in ("p_prime", "q_prime") if (e := getattr(s, name)) is not None}
    return Scenario(f(s.a), f(s.delta_a), f(s.p.m), f(s.q.m), **moved)


def _unitary(i, n):
    u = np.linalg.qr(RandomStream(5000 + i).normal_matrix(n, n))[0]
    return lambda x: u @ x @ u.conj().T


def _permutation(i, n):
    perm = np.roll(np.arange(n), 1 + i % (n - 1))
    return lambda x: x[np.ix_(perm, perm)]


# Each relation: the map of the i-th scenario, of size n.
SIMILARITIES = {"unitary": _unitary, "permutation": _permutation, "conjugation": lambda i, n: np.conj}


@pytest.mark.parametrize("name", list(SIMILARITIES))
def test_a_similarity_or_conjugation_keeps_every_verdict_that_is_not_a_near_call(campaign, name):
    """Measured: no verdict moves, near calls included, and the bound ids'
    lhs and rhs move by at most 6.6e-12 relative; 288 of the 600 reports are
    near calls, 248 of them bound reports, whose lhs sits within a decade of
    its rhs."""
    near, kinds = 0, set()
    for i, (theorem, s, report) in enumerate(campaign):
        moved = run_check(theorem, _mapped(s, SIMILARITIES[name](i, s.n)))[1]
        if report.kind == "bound" and report.hypothesis_satisfied:
            np.testing.assert_allclose([moved.lhs, moved.rhs], [report.lhs, report.rhs], rtol=1e-9, err_msg=f"{theorem} {i}")
        if min(report.closest_call, moved.closest_call) <= 1:
            near += 1
            continue
        kinds.add(report.kind)
        assert _verdict(moved) == _verdict(report), (theorem, i)
    assert kinds == {"bound", "equiv", "impl"} and near < 400


@pytest.mark.parametrize("k", (-14, -7, 7, 14, 27))
def test_scaling_a_and_its_shift_by_a_power_of_two_keeps_every_bound_report(campaign, k):
    """The bound ids only (see the module docstring). Their verdicts are
    equal, and lhs and rhs are bit-identical, or for a bound on the absolute
    change of the inverse (one that moves a, thm3.9) scaled by 2^-k exactly;
    the relation is exact, so near calls are compared too."""
    c = 2.0**k
    for theorem, s, report in campaign:
        if report.kind != "bound":
            continue
        scaled = run_check(theorem, Scenario(c * s.a, c * s.delta_a, s.p, s.q, s.p_prime, s.q_prime))[1]
        unit = 1.0 / c if _MOVES[theorem][2] else 1.0
        assert _verdict(scaled) == _verdict(report), theorem
        np.testing.assert_array_equal([scaled.lhs, scaled.rhs], [unit * report.lhs, unit * report.rhs], err_msg=theorem)
