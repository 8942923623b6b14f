"""Exact Gaussian-rational matrix arithmetic.

Entries are complex numbers whose real and imaginary parts are exact
fractions. The point of this backend is to act as an identity oracle:
algebraic identities that hold in exact arithmetic are checked here with no
rounding at all, then compared against the floating-point path. Only ring
operations, RREF, rank, kernel bases, and inversion are provided. Norms and
singular values are deliberately absent since they are irrational.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import ExactSingular

__all__ = [
    "ExactScalar",
    "ExactMatrix",
    "parse_rational",
]


def parse_rational(text: str) -> Fraction:
    """Parse a rational written as 'p/q' or a plain integer string."""
    return Fraction(text.strip())


class ExactScalar:
    """A complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        other = _coerce(other)
        return ExactScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _coerce(other)
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return ExactScalar(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        return ExactScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        other = _coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("exact division by zero")
        return ExactScalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def conjugate(self):
        return ExactScalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if not isinstance(other, (ExactScalar, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"ExactScalar({self.re})"
        return f"ExactScalar({self.re}, {self.im})"

    def as_strings(self) -> tuple:
        """The (re, im) pair as plain rational strings, e.g. ("1/2", "0")."""
        return str(self.re), str(self.im)


def _coerce(x) -> ExactScalar:
    if isinstance(x, ExactScalar):
        return x
    return ExactScalar(x)


class ExactMatrix:
    """Immutable dense matrix over the Gaussian rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        rows = [list(map(_coerce, row)) for row in data]
        if rows and any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged rows")
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        self.data = tuple(tuple(row) for row in rows)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def from_strings(cls, rows) -> "ExactMatrix":
        """Build from rows of entries, each "p/q" or a (re, im) string pair."""

        def scal(entry):
            if isinstance(entry, str):
                return ExactScalar(parse_rational(entry), Fraction(0))
            re, im = entry
            return ExactScalar(parse_rational(re), parse_rational(im))

        return cls([[scal(entry) for entry in row] for row in rows])

    def entry(self, i: int, j: int) -> ExactScalar:
        return self.data[i][j]

    def __add__(self, other):
        self._check_same_shape(other)
        return ExactMatrix(
            [[self.data[i][j] + other.data[i][j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return ExactMatrix(
            [[self.data[i][j] - other.data[i][j] for j in range(self.cols)] for i in range(self.rows)]
        )

    def __neg__(self):
        return ExactMatrix([[-x for x in row] for row in self.data])

    def scale(self, c) -> "ExactMatrix":
        c = _coerce(c)
        return ExactMatrix([[c * x for x in row] for row in self.data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = ExactScalar(0)
                for k in range(self.cols):
                    acc = acc + self.data[i][k] * other.data[k][j]
                row.append(acc)
            out.append(row)
        return ExactMatrix(out)

    def conj_transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self.data[i][j].conjugate() for i in range(self.rows)] for j in range(self.cols)]
        )

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                self.data[i][j] == other.data[i][j]
                for i in range(self.rows)
                for j in range(self.cols)
            )
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.data for x in row)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return ExactMatrix(
            [list(self.data[i]) + list(other.data[i]) for i in range(self.rows)]
        )

    def columns(self, idx) -> "ExactMatrix":
        return ExactMatrix([[self.data[i][j] for j in idx] for i in range(self.rows)])

    def rref(self):
        """Reduced row echelon form. Returns (rref_matrix, pivot_columns)."""
        m = [list(row) for row in self.data]
        pivots = []
        pr = 0
        for pc in range(self.cols):
            pivot_row = None
            for i in range(pr, self.rows):
                if not m[i][pc].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            inv = ExactScalar(1) / m[pr][pc]
            m[pr] = [inv * x for x in m[pr]]
            for i in range(self.rows):
                if i != pr and not m[i][pc].is_zero():
                    factor = m[i][pc]
                    m[i] = [m[i][j] - factor * m[pr][j] for j in range(self.cols)]
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        return ExactMatrix(m), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "ExactMatrix":
        """Exact inverse via Gauss-Jordan. Raises ExactSingular if rank-deficient."""
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        if n == 0:
            return ExactMatrix([])
        aug = self.hstack(ExactMatrix.identity(n))
        red, pivots = aug.rref()
        if len(pivots) < n or any(p >= n for p in pivots):
            raise ExactSingular("matrix is singular in exact arithmetic")
        return red.columns(range(n, 2 * n))

    def null_basis(self) -> "ExactMatrix":
        """Columns form an exact basis of the null space (cols x (cols - rank))."""
        red, pivots = self.rref()
        free = [j for j in range(self.cols) if j not in pivots]
        basis_cols = []
        for fc in free:
            v = [ExactScalar(0)] * self.cols
            v[fc] = ExactScalar(1)
            for row_idx, pc in enumerate(pivots):
                v[pc] = -red.data[row_idx][fc]
            basis_cols.append(v)
        if not basis_cols:
            return ExactMatrix.zeros(self.cols, 0)
        return ExactMatrix([[basis_cols[k][i] for k in range(len(basis_cols))] for i in range(self.cols)])

    def column_basis(self) -> "ExactMatrix":
        """The pivot columns of the matrix: an exact basis of the column space."""
        _, pivots = self.rref()
        return self.columns(pivots)

    def to_complex(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=complex)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self.data[i][j].to_complex()
        return out

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"
