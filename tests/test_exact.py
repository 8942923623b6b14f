"""Exact rational-complex arithmetic and the exact inverse path."""

from fractions import Fraction

import numpy as np
import pytest

from ginv import compute_outer_pql, idempotent_from_matrix, spectral_norm
from ginv.errors import ExactSingular, NotExists
from ginv.exact import ExactMatrix, ExactScalar, parse_rational
from ginv.gen_inverse import compute_outer_pql_exact


def diag_exact(entries):
    n = len(entries)
    rows = [[str(entries[i]) if i == j else "0" for j in range(n)] for i in range(n)]
    return ExactMatrix.from_strings(rows)


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("0") == Fraction(0)


def test_scalar_arithmetic():
    x = ExactScalar(1, 2)
    y = ExactScalar(3, -1)
    assert x * y == ExactScalar(5, 5)
    assert x + y == ExactScalar(4, 1)
    assert (x / y) * y == x
    assert x.conjugate() == ExactScalar(1, -2)
    assert x.to_complex() == 1 + 2j
    assert not x.is_zero()
    assert ExactScalar(0, 0).is_zero()


def test_scalar_string_round_trip():
    x = ExactScalar(Fraction(5, 3), Fraction(-1, 7))
    re, im = x.as_strings()
    assert parse_rational(re) == Fraction(5, 3)
    assert parse_rational(im) == Fraction(-1, 7)


def test_identity_multiplication():
    m = ExactMatrix.from_strings([["1/3", "2"], ["-1", "5/7"]])
    assert ExactMatrix.identity(2) @ m == m
    assert m @ ExactMatrix.identity(2) == m


def test_exact_inverse_of_unitriangular():
    m = ExactMatrix.from_strings([["1", "1"], ["0", "1"]])
    expected = ExactMatrix.from_strings([["1", "-1"], ["0", "1"]])
    assert m.inverse() == expected


def test_exact_inverse_round_trip():
    m = ExactMatrix.from_strings([["2", "1/2", "0"], ["1", "1", "3"], ["0", "-1/3", "1"]])
    assert m @ m.inverse() == ExactMatrix.identity(3)


def test_singular_raises():
    m = ExactMatrix.from_strings([["1", "2"], ["2", "4"]])
    with pytest.raises(ExactSingular):
        m.inverse()


def test_rank_and_column_basis():
    m = ExactMatrix.from_strings([["1", "2"], ["2", "4"]])
    assert m.rank() == 1
    cb = m.column_basis()
    assert cb.cols == 1


def test_null_basis_is_exactly_annihilated():
    m = ExactMatrix.from_strings([["1", "2", "3"]])
    nb = m.null_basis()
    assert nb.cols == 2
    assert (m @ nb).is_zero()


def test_exact_prescribed_inverse_diagonal():
    a = diag_exact([1, 2, 0])
    p = diag_exact([1, 1, 0])
    q = diag_exact([0, 0, 1])
    b = compute_outer_pql_exact(a, p, q)
    assert b == diag_exact(["1", "1/2", "0"])
    assert (b @ a @ b - b).is_zero()
    assert (a @ b @ a - a).is_zero()


def test_exact_inverse_no_solution():
    a = diag_exact([1, 2, 0])
    p = diag_exact([0, 0, 1])
    q = diag_exact([0, 0, 1])
    with pytest.raises(NotExists):
        compute_outer_pql_exact(a, p, q)


def test_exact_inputs_must_be_idempotent():
    # the float path's rule, held exactly: p = diag(2, 0) squares to diag(4, 0)
    a, q = diag_exact([1, 2]), diag_exact([0, 1])
    with pytest.raises(ValueError, match="p is not idempotent"):
        compute_outer_pql_exact(a, diag_exact([2, 0]), q)
    with pytest.raises(ValueError, match="q is not idempotent"):
        compute_outer_pql_exact(a, diag_exact([1, 0]), diag_exact([0, 3]))
    # an oblique idempotent with rational entries passes
    p = ExactMatrix.from_strings([["1", "-1"], ["0", "0"]])
    assert compute_outer_pql_exact(a, p, q) == diag_exact([1, 0])


def test_exact_matches_float_computation():
    # Conjugated instance with small rational entries; the float path must
    # land within 1e-12 of the exact value.
    t = ExactMatrix.from_strings([["1", "1", "0"], ["0", "1", "1"], ["1", "0", "1"]])
    tinv = t.inverse()
    a = t @ diag_exact([1, 2, 0]) @ tinv
    p = t @ diag_exact([1, 1, 0]) @ tinv
    q = t @ diag_exact([0, 0, 1]) @ tinv
    b_exact = compute_outer_pql_exact(a, p, q)
    res = compute_outer_pql(
        a.to_complex(), idempotent_from_matrix(p.to_complex()), idempotent_from_matrix(q.to_complex())
    )
    assert spectral_norm(res.b - b_exact.to_complex()) <= 1e-12
    assert (b_exact @ a @ b_exact - b_exact).is_zero()


def test_complex_rational_entries():
    m = ExactMatrix([[ExactScalar(0, 1), ExactScalar(1, 0)], [ExactScalar(-1, 0), ExactScalar(0, -1)]])
    sq = m @ m
    assert sq.entry(0, 0) == ExactScalar(-2, 0)
    conj = m.conj_transpose()
    assert conj.entry(0, 0) == ExactScalar(0, -1)
    assert conj.entry(1, 0) == ExactScalar(1, 0)


def test_hstack_and_columns():
    x = ExactMatrix.from_strings([["1"], ["0"]])
    y = ExactMatrix.from_strings([["0"], ["1"]])
    both = x.hstack(y)
    assert both.cols == 2
    assert both.columns([1]) == y
