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

from ginv.gen_inverse import _res_scale  # noqa: E402
from ginv.idempotents import _idempotency  # noqa: E402
from ginv.linalg import Decision, Tolerances, _counted, _cut, _decide, _inverse  # noqa: E402
from ginv.perturbation import _bound_holds, _small  # noqa: E402
from ginv.subspaces import _reads_zero  # noqa: E402

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
    with np.errstate(all="ignore"):
        try:
            d, inv = _inverse(m, tol)
        except np.linalg.LinAlgError:  # an SVD that does not converge decides nothing
            return
    assert_as_compared(d)
    assert (inv is not None) == d.truth
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


@PROPERTY
@given(VALUES, NONNEGATIVE, TOLERANCES)
def test_idempotency(residual, nm, tol):
    d = _idempotency(residual, nm, tol)
    assert d.op == "<=" and d.value is residual
    assert_as_compared(d)


@PROPERTY
@given(VALUES, NONNEGATIVE, NONNEGATIVE, TOLERANCES)
def test_agreement(deviation, na, nb, tol):
    d = _decide(deviation, _res_scale(na, nb, tol))
    assert_as_compared(d)


def test_the_agreement_scale_of_a_huge_norm_is_inf():
    # (1 + 1e200) ** 2 raises OverflowError; the scale reads inf instead
    assert _res_scale(1.0, 1e200, Tolerances()) == math.inf
    assert not _decide(math.nan, _res_scale(1.0, 1e200, Tolerances())).truth
    # a NaN norm gives a NaN scale, at which no deviation agrees
    assert not _decide(0.0, _res_scale(1.0, math.nan, Tolerances())).truth


@PROPERTY
@given(VALUES, VALUES, VALUES, VALUES, TOLERANCES)
def test_bound_holds(lhs, rhs, norm_lhs, norm_rhs, tol):
    d = _bound_holds(lhs, rhs, norm_lhs, norm_rhs, tol)
    assert_as_compared(d)
    assert d.truth == (lhs <= rhs + tol.tol_eq and norm_lhs <= norm_rhs + tol.tol_eq)
    # a failed first inequality decides; else the verdict is one of the two
    assert d.value is lhs if not lhs <= rhs + tol.tol_eq else d.value in (lhs, norm_lhs)
