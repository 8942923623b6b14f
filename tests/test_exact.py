"""Exact rational-complex arithmetic and the exact inverse path."""

from fractions import Fraction

import numpy as np
import pytest

from ginv import RandomStream, compute_outer_pql, idempotent_from_matrix, spectral_norm
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


def test_empty_shapes_hold_exact_zeros():
    # numpy sums an empty inner dimension to int 0; the product is built of ExactScalar zeros
    prod = ExactMatrix.zeros(2, 0) @ ExactMatrix.zeros(0, 3)
    assert (prod.rows, prod.cols) == (2, 3)
    assert prod == ExactMatrix.zeros(2, 3) and prod.is_zero()
    assert all(isinstance(prod.entry(i, j), ExactScalar) for i in range(2) for j in range(3))
    z = ExactMatrix.zeros(3, 0)
    assert (z.rows, z.cols) == (3, 0) and z.to_complex().shape == (3, 0)
    assert isinstance(ExactMatrix.zeros(1, 1).entry(0, 0), ExactScalar)
    e = ExactMatrix([])
    assert (e.rows, e.cols) == (0, 0) and e == ExactMatrix.identity(0) and e.inverse() == e


def test_null_basis_of_full_column_rank_is_empty():
    m = ExactMatrix.from_strings([["1", "2"], ["0", "1"], ["3", "1/2"]])
    nb = m.null_basis()
    assert (nb.rows, nb.cols) == (2, 0)
    assert (m @ nb).rows == 3 and (m @ nb).cols == 0


def test_equal_matrices_by_different_routes_compare_and_hash_equal():
    m = ExactMatrix.from_strings([["1/2", ("0", "1")], ["-3", "2/3"]])
    routes = [
        m.conj_transpose().conj_transpose(),
        (m + m).scale("1/2"),
        m @ ExactMatrix.identity(2),
        -(-m),
        ExactMatrix([[m.entry(i, j) for j in range(2)] for i in range(2)]),
        ExactMatrix.zeros(2, 1).hstack(m).columns([1, 2]),
        m.inverse().inverse(),
    ]
    for other in routes:
        assert other == m and hash(other) == hash(m)
    assert m != m.conj_transpose() and m != m.columns([0])


def test_entry_array_is_read_only():
    m = ExactMatrix.from_strings([["1", "2"], ["3", "4"]])
    singular = ExactMatrix.from_strings([["1", "2"], ["2", "4"]])
    for made in (m, m @ m, m.conj_transpose(), m.rref()[0], singular.null_basis(), ExactMatrix.identity(2)):
        with pytest.raises(ValueError, match="read-only"):
            made.data[0, 0] = ExactScalar(5)
    assert m.entry(0, 0) == ExactScalar(1)


def test_to_complex_is_bit_identical_per_entry():
    m = ExactMatrix.from_strings([["1/3", ("-2/7", "5/11")], [("0", "1/10"), "123456789/1000"]])
    c = m.to_complex()
    assert c.dtype == complex and c.shape == (2, 2)
    for i in range(2):
        for j in range(2):
            x = m.entry(i, j)
            expected = complex(float(x.re), float(x.im))
            assert c[i, j].real.hex() == expected.real.hex() and c[i, j].imag.hex() == expected.imag.hex()


def _loop_rref(rows):
    """The element-by-element RREF over lists, the reference for ExactMatrix.rref."""
    m = [list(row) for row in rows]
    pivots = []
    for pc in range(len(m[0]) if m else 0):
        pr = len(pivots)
        if pr == len(m):
            break
        pivot_row = next((i for i in range(pr, len(m)) if not m[i][pc].is_zero()), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        inv = ExactScalar(1) / m[pr][pc]
        m[pr] = [inv * x for x in m[pr]]
        for i in range(len(m)):
            if i != pr and not m[i][pc].is_zero():
                m[i] = [x - m[i][pc] * y for x, y in zip(m[i], m[pr])]
        pivots.append(pc)
    return m, tuple(pivots)


@pytest.mark.parametrize("seed", range(12))
def test_array_operations_match_element_loops(seed):
    # rational entries with many zeros, so pivots are skipped and rows swapped
    stream = RandomStream(seed)
    values = ["0", "0", "0", "1", "-2", "1/3", "5/2"]
    r, c, k = (stream.randint(1, 4) for _ in range(3))

    def draw(rows, cols):
        return [[ExactScalar(Fraction(values[stream.randint(0, 6)]), Fraction(values[stream.randint(0, 6)])) for _ in range(cols)] for _ in range(rows)]

    x, y, z = draw(r, c), draw(r, c), draw(c, k)
    mx, my, mz = ExactMatrix(x), ExactMatrix(y), ExactMatrix(z)
    entries = lambda m: [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]
    assert entries(mx + my) == [[a + b for a, b in zip(u, v)] for u, v in zip(x, y)]
    assert entries(mx - my) == [[a - b for a, b in zip(u, v)] for u, v in zip(x, y)]
    assert entries(mx @ mz) == [[sum((x[i][t] * z[t][j] for t in range(c)), ExactScalar(0)) for j in range(k)] for i in range(r)]
    assert entries(mx.conj_transpose()) == [[x[i][j].conjugate() for i in range(r)] for j in range(c)]
    assert mx.to_complex().tolist() == [[e.to_complex() for e in row] for row in x]
    for m, rows in ((mx, x), (mx.hstack(my), [u + v for u, v in zip(x, y)])):
        red, pivots = m.rref()
        ref, ref_pivots = _loop_rref(rows)
        assert (entries(red), pivots) == (ref, ref_pivots)
        nb = m.null_basis()
        assert nb.cols == m.cols - len(pivots) and (m @ nb).is_zero()
