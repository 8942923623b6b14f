"""The Decision invariant as a property: every helper that decides a rule
returns a decision whose truth is its value compared with its cutoff by its
op, NaN and infinities included, so a NaN value fails the rule. A decision
with no cutoff is a count (linalg._counted), decided exactly."""

import math
import operator

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ginv import RandomStream, direct_sum_is_all, idempotent_from_matrix, intersection_trivial, oblique, orth_basis, orthocomplement, rank  # noqa: E402
from ginv.gen_inverse import _Evaluation, _res_scale  # noqa: E402
from ginv.idempotents import _idempotency, _keeps_rank  # noqa: E402
from ginv.linalg import Decision, Tolerances, _counted, _cut, _decide, _decide_scaled, _inverse, _norm_within, _rank_cutoff  # noqa: E402
from ginv.perturbation import _bound_holds, _small  # noqa: E402
from ginv.subspaces import Subspace, _meet, _norm_range_kernel, _orthonormal, _reads_zero, _stacked_rank  # noqa: E402

# Derandomized and without an example database, so every run tries the same
# inputs and leaves no files behind.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None, suppress_health_check=list(HealthCheck))

OPS = {"<=": operator.le, "<": operator.lt, ">": operator.gt, ">=": operator.ge}

# every float, with the edges drawn often
VALUES = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 1e300, 1.0])
NONNEGATIVE = st.floats(min_value=0.0) | st.sampled_from([math.nan, math.inf, 0.0, 1e-300, 1e300])
TOLERANCES = st.builds(Tolerances, st.floats(1e-16, 0.5), st.floats(1e-16, 1.0), st.floats(1e-16, 1.0))


def assert_as_compared(d: Decision):
    """truth is value op cutoff, or d is a count."""
    assert type(d.truth) is bool
    if d.cutoff is None:
        return
    assert d.truth == OPS[d.op](d.value, d.cutoff), d


def test_a_count_keeps_its_exact_form():
    for truth in (True, False):
        d = _counted(truth)
        assert d.truth is truth and math.isnan(d.value) and d.cutoff is None and d.op == "=" and d.distance == math.inf


@PROPERTY
@given(VALUES, VALUES, st.sampled_from(sorted(OPS)))
def test_decide(value, cutoff, op):
    d = _decide(value, cutoff, op)
    assert (d.value, d.op) == (value, op) and d.cutoff is cutoff
    assert_as_compared(d)


@PROPERTY
@given(st.integers(0, 3), st.lists(st.sampled_from([0.0, 1.0, -2.5, 1e-14, 1e300, math.inf, math.nan]), min_size=9, max_size=9), TOLERANCES)
def test_inverse(n, entries, tol):
    m = np.array(entries[: n * n], dtype=complex).reshape(n, n)
    finite = np.isfinite(m).all()
    with np.errstate(all="ignore"):
        try:
            d, inv = _inverse(m, tol)
        except np.linalg.LinAlgError:  # an SVD that does not converge decides nothing
            assert finite  # a non-finite m never reaches LAPACK
            return
    assert_as_compared(d)
    assert (inv is not None) == d.truth
    if not finite:
        assert not d.truth and math.isnan(d.value)
    if n == 0:
        assert d.truth and d.cutoff is None
    elif not m.any():
        assert not d.truth  # a zero m is singular


@PROPERTY
@given(st.lists(NONNEGATIVE, min_size=1, max_size=5), st.integers(0, 5), VALUES)
def test_cut(values, r, cutoff):
    s = np.array(values)
    r = min(r, s.size)
    d = _cut(s, r, cutoff)
    assert d.op == ">"
    assert_as_compared(d)


@PROPERTY
@given(VALUES, VALUES, TOLERANCES)
def test_small(value, threshold, tol):
    d = _small(value, threshold, tol)
    assert d.op == "<" and (d.cutoff == threshold - tol.tol_eq or math.isnan(threshold))
    assert_as_compared(d)


@PROPERTY
@given(VALUES, TOLERANCES)
def test_reads_zero(gap, tol):
    d = _reads_zero(gap, tol)
    assert d.op == "<=" and d.cutoff == 10 * tol.tol_eq
    assert_as_compared(d)


def finite_product(tol, factors):
    """tol f_1 f_2 ... taken left to right, or None past double range."""
    cutoff = tol
    for f in factors:
        cutoff *= f
    return None if cutoff == math.inf else cutoff


def assert_scaled(d: Decision, value, tol, factors):
    """d is _decide_scaled's decision: value against the product while that
    is finite, else value over the factors against tol; never an infinite
    cutoff."""
    cutoff = finite_product(tol, factors)
    assert d.op == "<=" and d.cutoff != math.inf
    if cutoff is not None:
        assert d.value is value and (d.cutoff == cutoff or math.isnan(cutoff))
    else:
        for f in factors:
            value /= f
        assert d.cutoff == tol and (d.value == value or math.isnan(value))
    assert_as_compared(d)


FACTORS = st.lists(st.floats(min_value=1.0) | st.sampled_from([1.0, 1e154, 1e300, math.inf, math.nan]), max_size=3)


@PROPERTY
@given(VALUES, st.floats(1e-16, 1e10), FACTORS)
def test_decide_scaled(value, tol, factors):
    assert_scaled(_decide_scaled(value, tol, factors), value, tol, factors)


@PROPERTY
@given(VALUES, NONNEGATIVE, TOLERANCES)
def test_idempotency(residual, nm, tol):
    # 1 + nm^2, or nm nm where nm^2 overflows
    factors = (1.0 + nm * nm,) if nm * nm != math.inf else (nm, nm)
    assert_scaled(_idempotency(residual, nm, tol), residual, tol.tol_eq, factors)


def test_an_idempotency_cutoff_past_double_range_does_not_pass_every_residual():
    # tol_eq (1 + ||m||^2) read inf for ||m|| = 1e155 and passed any residual;
    # as tol_eq ||m|| ||m|| it is 1e301, and the residual 1e305 fails it
    d = _idempotency(1e305, 1e155, Tolerances())
    assert not d.truth and d.cutoff == 1e-9 * 1e155 * 1e155
    # for ||m|| = 1e200 that product overflows too: residual / ||m||^2 against tol_eq
    d = _idempotency(1e305, 1e200, Tolerances())
    assert d.truth and d.cutoff == 1e-9 and d.value == 1e305 / 1e200 / 1e200
    assert not _idempotency(math.inf, 1e200, Tolerances()).truth


@PROPERTY
@given(st.floats(min_value=0.0) | st.sampled_from([math.nan, math.inf, 0.0, 1e10]), st.integers(1, 8), TOLERANCES)
def test_keeps_rank(norm, n, tol):
    d = _keeps_rank(norm, n, tol)
    assert d.op == "<" and d.cutoff == 1.0
    assert d.value == norm * n * tol.tol_rank or math.isnan(norm)
    assert_as_compared(d)
    assert d.truth == (norm * n * tol.tol_rank < 1)  # a NaN norm fails


@PROPERTY
@given(VALUES, NONNEGATIVE, NONNEGATIVE, TOLERANCES)
def test_agreement(deviation, na, nb, tol):
    square = ((1.0 + nb) ** 2,) if nb < 1e154 else (1.0 + nb, 1.0 + nb)
    assert_scaled(_res_scale(na, nb, tol)(deviation), deviation, tol.tol_eq, (1.0 + na, *square))


def test_the_agreement_of_a_huge_norm_is_decided_in_double_range():
    # (1 + 1e200) ** 2 raises OverflowError and the scale is past double
    # range: the deviation over the factors is compared with tol_eq
    agree = _res_scale(1.0, 1e200, Tolerances())
    assert agree(1e100).truth and agree(1e100).cutoff == Tolerances().tol_eq
    assert not agree(math.inf).truth and not agree(math.nan).truth
    # a NaN norm gives a NaN scale, at which no deviation agrees
    assert not _res_scale(1.0, math.nan, Tolerances())(0.0).truth


def test_an_infinite_threshold_settles_nothing_by_the_frobenius_norm():
    # the exact test decides; it would read True if the Frobenius test settled
    assert _norm_within(np.ones((2, 2)), math.inf, lambda: False) is False
    assert _norm_within(np.ones((2, 2)), 10.0, lambda: False) is True


def _subspace(stream: RandomStream, n: int, k: int, near: Subspace = None, tilt: float = 0.0) -> Subspace:
    """A random k-dimensional subspace of C^n; with near, its first column
    lies at angle about tilt from near's first one, so the pair nearly meets."""
    cols = stream.normal_matrix(n, k)
    if near is not None and near.dim and k:
        cols[:, 0] = near.basis[:, 0] + tilt * cols[:, 0]
    return _orthonormal(n, orth_basis(cols)) if k else _orthonormal(n, np.zeros((n, 0), dtype=complex))


PAIRS = st.tuples(st.integers(1, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-14, 1e-9, 1.0]))


@PROPERTY
@given(PAIRS, TOLERANCES)
def test_stacked_rank(pair, tol):
    n, k1, k2, seed, tilt = pair
    k1, k2 = min(k1, n), min(k2, n)
    stream = RandomStream(seed)
    m = _subspace(stream, n, k1)
    o = _subspace(stream, n, k2, m, tilt)
    shared, d = _stacked_rank(m, o, tol)
    assert_as_compared(d)
    if m.dim == 0 or o.dim == 0:
        assert (shared, d.truth, d.cutoff) == (0, True, None)
        return
    stacked = np.hstack([m.basis, o.basis])
    sv = np.linalg.svd(stacked, compute_uv=False)
    assert d.op == ">" and d.value == sv[-1] and d.cutoff == _rank_cutoff(sv, stacked.shape, tol)
    assert shared == m.dim + o.dim - rank(stacked, tol)
    # intersection_trivial reads it where the dimensions fit, and counts above
    assert _meet(m, o, tol) == (d if m.dim + o.dim <= n else _counted(False))


@PROPERTY
@given(PAIRS, TOLERANCES)
def test_the_evaluation_meets_col_a_and_col_q_as_the_subspace_tests_do(pair, tol):
    """_trivial_q is intersection_trivial(col a, col q) and _direct_sum_l is
    direct_sum_is_all(col a, col q): random pairs, pairs whose dimensions
    add up to more than n, and pairs with a {0} side."""
    n, ra, rq, seed, tilt = pair
    ra, rq = min(ra, n), min(rq, n)
    stream = RandomStream(seed)
    a = stream.normal_matrix(n, ra) @ stream.normal_matrix(ra, n) if ra else np.zeros((n, n), dtype=complex)
    col_a = _norm_range_kernel(a, tol)[1]
    t = _subspace(stream, n, rq, col_a, tilt)
    q = oblique(t, orthocomplement(t))
    p = idempotent_from_matrix(np.eye(n) - q.m, tol)
    e = _Evaluation(a, p, q, tol)
    assert e.col_a.dim == col_a.dim
    assert e._trivial_q.truth == intersection_trivial(e.col_a, q.range, tol)
    assert e._direct_sum_l.truth == direct_sum_is_all(e.col_a, q.range, tol)


@PROPERTY
@given(VALUES, VALUES, VALUES, VALUES, TOLERANCES)
def test_bound_holds(lhs, rhs, norm_lhs, norm_rhs, tol):
    d = _bound_holds(lhs, rhs, norm_lhs, norm_rhs, tol)
    assert_as_compared(d)
    assert d.truth == (lhs <= rhs + tol.tol_eq and norm_lhs <= norm_rhs + tol.tol_eq)
    # a failed first inequality decides; else the verdict is one of the two
    assert d.value is lhs if not lhs <= rhs + tol.tol_eq else d.value in (lhs, norm_lhs)
