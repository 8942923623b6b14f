"""Exact Gaussian-rational matrix arithmetic.

Entries are complex numbers whose real and imaginary parts are exact
fractions, held in a numpy object array, so numpy's loops apply their exact
operators. The point of this backend is to act as an identity oracle:
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
        return _scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _coerce(other)
        return _scalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return _scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        return _scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        other = _coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("exact division by zero")
        return _scalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def conjugate(self):
        return _scalar(self.re, -self.im)

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


def _scalar(re: Fraction, im: Fraction) -> ExactScalar:
    """An ExactScalar of parts that are Fractions already, kept as they are:
    the operators' results, which ExactScalar() would copy again."""
    x = object.__new__(ExactScalar)
    x.re = re
    x.im = im
    return x


def _coerce(x) -> ExactScalar:
    if isinstance(x, ExactScalar):
        return x
    return ExactScalar(x)


class ExactMatrix:
    """Immutable dense matrix over the Gaussian rationals, its entries
    ExactScalars in `data`, a read-only 2-D numpy object array."""

    __slots__ = ("data",)

    def __init__(self, data):
        rows = [list(map(_coerce, row)) for row in data]
        if rows and any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged rows")
        entries = np.empty((len(rows), len(rows[0]) if rows else 0), dtype=object)
        entries[...] = rows
        entries.flags.writeable = False
        self.data = entries

    rows = property(lambda self: self.data.shape[0])
    cols = property(lambda self: self.data.shape[1])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return _wrap(np.full((rows, cols), ExactScalar(0), dtype=object))

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
        return self.data[i, j]

    def __add__(self, other):
        self._check_same_shape(other)
        return _wrap(self.data + other.data)

    def __sub__(self, other):
        self._check_same_shape(other)
        return _wrap(self.data - other.data)

    def __neg__(self):
        return _wrap(-self.data)

    def scale(self, c) -> "ExactMatrix":
        # the array stays on the left: ExactScalar * ndarray raises in _coerce
        return _wrap(self.data * _coerce(c))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if not self.cols:  # numpy sums an empty inner dimension to int 0
            return ExactMatrix.zeros(self.rows, other.cols)
        return _wrap(self.data @ other.data)

    def conj_transpose(self) -> "ExactMatrix":
        return _wrap(self.data.conj().T)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return np.array_equal(self.data, other.data)

    def __hash__(self):
        return hash((self.data.shape, tuple(self.data.flat)))

    def is_zero(self) -> bool:
        return bool((self.data == 0).all())

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return _wrap(np.hstack((self.data, other.data)))

    def columns(self, idx) -> "ExactMatrix":
        return _wrap(self.data[:, list(idx)])

    def rref(self):
        """Reduced row echelon form. Returns (rref_matrix, pivot_columns).
        A column's pivot is its first nonzero entry below the pivoted rows;
        its row is scaled to a leading 1 and cleared from all other rows."""
        m = self.data.copy()
        pivots = []
        for pc in range(self.cols):
            pr = len(pivots)
            if pr == self.rows:
                break
            pivot_row = next((i for i in range(pr, self.rows) if not m[i, pc].is_zero()), None)
            if pivot_row is None:
                continue
            m[[pr, pivot_row]] = m[[pivot_row, pr]]
            m[pr] = m[pr] * (ExactScalar(1) / m[pr, pc])
            rows = [i for i in range(self.rows) if i != pr and not m[i, pc].is_zero()]
            m[rows] -= m[rows, pc][:, None] * m[pr]
            pivots.append(pc)
        return _wrap(m), tuple(pivots)

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
        """Columns form an exact basis of the null space (cols x (cols - rank)):
        per free column, 1 there and minus its RREF column at the pivots."""
        red, pivots = self.rref()
        free = [j for j in range(self.cols) if j not in pivots]
        basis = np.full((self.cols, len(free)), ExactScalar(0), dtype=object)
        basis[free, range(len(free))] = ExactScalar(1)
        basis[list(pivots)] = -red.data[: len(pivots), free]
        return _wrap(basis)

    def column_basis(self) -> "ExactMatrix":
        """The pivot columns of the matrix: an exact basis of the column space."""
        _, pivots = self.rref()
        return self.columns(pivots)

    def to_complex(self) -> np.ndarray:
        return np.vectorize(ExactScalar.to_complex, otypes=[complex])(self.data)

    def _check_same_shape(self, other):
        if self.data.shape != other.data.shape:
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def _wrap(entries: np.ndarray) -> ExactMatrix:
    """The ExactMatrix on an object array of ExactScalars, made read-only."""
    m = object.__new__(ExactMatrix)
    entries.flags.writeable = False
    m.data = entries
    return m
