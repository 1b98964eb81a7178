"""Polynomial discriminants computed two independent ways.

The resultant route: Delta_f = (-1)^(n(n-1)/2) * Res(f, f') / a_n, with the
resultant taken as the determinant of the (2n-1) x (2n-1) Sylvester matrix,
so the value comes straight from the coefficients without ever touching the
roots.

The power-sum route: for monic f the same quantity equals the determinant of
the n x n Hankel matrix whose (i, j) entry is S_(i+j), where the power sums
S_k of the roots are produced by Newton's identities from the coefficients
alone.  The sign factor (-1)^(n(n-1)/2) relating the product over ordered
pairs of root differences to the squared product over unordered pairs
appears twice between the two derivations and therefore cancels: for monic
input the two routes agree exactly, and a non-monic leading coefficient only
contributes the factor a_n^(2n-2).

Everything is exact over the rationals.  Determinants, and the linear
solves and null spaces of `forms`, share one elimination: each row is
cleared of denominators and the matrix is eliminated over the integers by
fraction-free (Bareiss) steps, whose divisions are all exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .exact import Polynomial, RationalLike, _as_fraction, _clear_denominators

__all__ = [
    "SquareMatrix",
    "determinant",
    "sylvester_matrix",
    "resultant",
    "power_sums",
    "discriminant_resultant",
    "discriminant_hankel",
    "has_repeated_roots",
]


class SquareMatrix:
    """Immutable n x n matrix of exact rationals."""

    __slots__ = ("n", "rows")

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        mat = tuple(tuple(_as_fraction(v) for v in row) for row in rows)
        n = len(mat)
        if n == 0 or any(len(row) != n for row in mat):
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", mat)

    def __setattr__(self, name, value):
        raise AttributeError("SquareMatrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix(zip(*self.rows))

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        ot = other.transpose().rows
        return SquareMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.rows]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.rows)
        return f"SquareMatrix[{body}]"

    def is_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i] for i in range(self.n) for j in range(i)
        )


def _eliminate(
    rows: Sequence[Sequence[Fraction]], jordan: bool
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) elimination of rational rows over Z.

    Each row is first scaled to integers by its least common denominator.
    Every entry produced afterwards is a minor of that integer matrix, so
    each division by the previous pivot is exact.  Columns without a pivot
    are skipped.  With ``jordan`` the entries above each pivot are cleared
    too (fraction-free Gauss-Jordan), so every pivot row is zero in every
    other pivot column.

    Returns the eliminated rows, the pivot column of each leading row, and
    the factor by which the row scalings and swaps multiplied the
    determinant.
    """
    a = []
    scale = 1
    for row in rows:
        d, ints = _clear_denominators(row)
        a.append(ints)
        scale *= d
    pivots: list[int] = []
    prev = 1
    for col in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        pivot_row = next((i for i in range(r, len(a)) if a[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            scale = -scale
        top = a[r]
        p = top[col]
        for i in range(len(a)) if jordan else range(r + 1, len(a)):
            if i == r:
                continue
            row = a[i]
            f = row[col]
            lo = col if i > r else 0  # rows below are already zero left of col
            a[i] = row[:lo] + [(p * x - f * y) // prev for x, y in zip(row[lo:], top[lo:])]
        pivots.append(col)
        prev = p
    return a, pivots, scale


def determinant(m: SquareMatrix | Sequence[Sequence[RationalLike]]) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if not isinstance(m, SquareMatrix):
        m = SquareMatrix(m)
    a, pivots, scale = _eliminate(m.rows, jordan=False)
    if len(pivots) < m.n:
        return Fraction(0)
    return Fraction(a[-1][-1], scale)


def sylvester_matrix(f: Polynomial, g: Polynomial) -> SquareMatrix:
    """The (deg f + deg g) square Sylvester matrix of f and g."""
    n, m = f.degree, g.degree
    if f.is_zero or g.is_zero:
        raise ValueError("Sylvester matrix requires nonzero polynomials")
    if n + m == 0:
        raise ValueError("Sylvester matrix requires deg f + deg g >= 1")
    size = n + m
    fs = list(reversed(f.coeffs))
    gs = list(reversed(g.coeffs))
    rows = []
    for i in range(m):
        rows.append([0] * i + fs + [0] * (m - 1 - i))
    for i in range(n):
        rows.append([0] * i + gs + [0] * (n - 1 - i))
    assert all(len(r) == size for r in rows)
    return SquareMatrix(rows)


def resultant(f: Polynomial, g: Polynomial) -> Fraction:
    return determinant(sylvester_matrix(f, g))


def power_sums(f: Polynomial, m: int) -> tuple[Fraction, ...]:
    """S_0 ... S_m from Newton's identities, never from the roots.

    With f made monic, the elementary symmetric function of order v is
    sigma_v = (-1)^v a_(n-v); the identities then give every S_k by the
    recurrence S_k = sigma_1 S_(k-1) - sigma_2 S_(k-2) + ...  (with the extra
    k*sigma_k term while k <= n).
    """
    if f.is_zero:
        raise ValueError("power sums of the zero polynomial are undefined")
    if m < 0:
        raise ValueError("m must be >= 0")
    g = f.monic()
    n = g.degree
    sigma = [Fraction(0)] * (n + 1)
    for v in range(1, n + 1):
        sigma[v] = (-1) ** v * g[n - v]
    s = [Fraction(n)]
    for k in range(1, m + 1):
        acc = Fraction(0)
        for v in range(1, min(k, n) + 1):
            term = sigma[v] * (v if v == k else s[k - v])
            acc += term if v % 2 == 1 else -term
        s.append(acc)
    return tuple(s)


def discriminant_resultant(f: Polynomial) -> Fraction:
    """Discriminant via the Sylvester resultant of f and f'."""
    n = f.degree
    if f.is_zero or n < 2:
        raise ValueError("discriminant requires degree >= 2")
    res = resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res / f.leading_coefficient


def discriminant_hankel(f: Polynomial) -> Fraction:
    """Discriminant via the Hankel determinant of Newton power sums.

    det [S_(i+j)] for the monic form of f equals the squared product of root
    differences over unordered pairs, which is exactly the discriminant of
    the monic polynomial; the leading coefficient re-enters as a_n^(2n-2).
    """
    n = f.degree
    if f.is_zero or n < 2:
        raise ValueError("discriminant requires degree >= 2")
    s = power_sums(f, 2 * n - 2)
    hankel = [[s[i + j] for j in range(n)] for i in range(n)]
    scale = f.leading_coefficient ** (2 * n - 2)
    return scale * determinant(hankel)


def has_repeated_roots(f: Polynomial) -> bool:
    """True iff f has a repeated root, i.e. iff its discriminant vanishes."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no repeated-root predicate")
    n = f.degree
    if n < 1:
        raise ValueError("repeated-root test requires degree >= 1")
    return n > 1 and discriminant_resultant(f) == 0
