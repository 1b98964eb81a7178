"""Polynomial discriminants computed two independent ways.

The resultant route: Delta_f = (-1)^(n(n-1)/2) * Res(f, f') / a_n.  The
resultant is the determinant of the (2n-1) x (2n-1) Sylvester matrix, but it
is computed as the last term of Collins' subresultant remainder sequence over
Z: each subresultant is itself the determinant of a Sylvester submatrix, so
every division in the sequence is exact, the coefficients grow only linearly,
and the value still comes straight from the coefficients without ever
touching the roots.  Denominators are cleared once, before the sequence.

The power-sum route: for monic f the same quantity equals the determinant of
the n x n Hankel matrix whose (i, j) entry is S_(i+j), where the power sums
S_k of the roots are produced by Newton's identities from the coefficients
alone.  The identities run over Z on a^k * S_k, for a the leading coefficient
of f with its denominators cleared, and the Hankel matrix of those integers
goes straight to a symmetric Bareiss elimination that keeps only its upper
triangle.  Its k x k minors carry the factor a^((k-1)(k-2)), so every
elimination step after the first divides by a^2 as well as by the previous
pivot, and the last pivot is the discriminant itself, times the
denominators.  The sign factor (-1)^(n(n-1)/2) relating the product over
ordered pairs of root differences to the squared product over unordered pairs
appears twice between the two derivations and therefore cancels, so the two
routes agree exactly.

Everything is exact over the rationals, and every elimination is by
fraction-free (Bareiss) steps over the integers, whose divisions are all
exact.  There are two kernels.  The general one, `_eliminate`, is a forward
pass with row swaps: `determinant` reads its last pivot, and `_null_vector`
back-substitutes the null vectors of `solve_linear_system` and `forms`.  The
symmetric one serves the Hankel route and `forms._inertia`, the integer core
that `forms.inertia` and both form classifiers share: it updates only the
upper triangle, and it finds pivots by congruences, which keep the symmetry,
determinant and inertia.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from . import _EXPORTS
from .exact import Polynomial, RationalLike, _as_fraction, _clear_denominators, _resultant_z

__all__ = list(_EXPORTS["disc"])


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

    def __reduce__(self):
        return type(self), (self.rows,)

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


def _eliminate(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], list[int], int]:
    """Forward fraction-free (Bareiss) elimination of rational rows over Z.

    This is the general kernel; the Hankel route's symmetric matrices go to
    `_symmetric_pivots` instead.  Each row is first scaled to integers
    by its least common denominator.  Every entry produced afterwards is a
    minor of that integer matrix, so each division by the previous pivot is
    exact.  Only the rows below each pivot are cleared, and a column without
    a pivot is skipped, so the result is a row echelon form whose rows past
    the last pivot are zero; `_null_vector` reads null vectors from it.

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
        for i in range(r + 1, len(a)):
            row = a[i]
            f = row[col]
            a[i] = row[:col] + [(p * x - f * y) // prev for x, y in zip(row[col:], top[col:])]
        pivots.append(col)
        prev = p
    return a, pivots, scale


def _null_vector(a: list[list[int]], pivots: list[int], free: int) -> list[Fraction]:
    """Null vector of `_eliminate`'s rows that is 1 in column ``free`` and 0 in
    the other columns without a pivot, as a reduced echelon form gives it.  It
    is y / D over Z for D the last pivot, the minor on the pivot rows and
    columns, so by Cramer's rule each division is exact."""
    d = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    y = [0] * len(a[0])
    y[free] = d
    for row, pcol in zip(reversed(a[: len(pivots)]), reversed(pivots)):
        y[pcol] = -sum(x * v for x, v in zip(row[pcol + 1 :], y[pcol + 1 :])) // row[pcol]
    return [Fraction(v, d) for v in y]


def determinant(m: SquareMatrix | Sequence[Sequence[RationalLike]]) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if not isinstance(m, SquareMatrix):
        m = SquareMatrix(m)
    a, pivots, scale = _eliminate(m.rows)
    if len(pivots) < m.n:
        return Fraction(0)
    return Fraction(a[-1][-1], scale)


def solve_linear_system(
    rows: Sequence[Sequence[RationalLike]], rhs: Sequence[RationalLike]
) -> list[Fraction]:
    """Solve A x = b exactly over Q, as the null vector of [A | -b] that is 1
    in the last column; raises ValueError if A is singular."""
    n = len(rows)
    if not n or len(rhs) != n or any(len(row) != n for row in rows):
        shape = f"{n} rows of lengths {[len(row) for row in rows]}, {len(rhs)} right-hand sides"
        raise ValueError(f"system must be square and non-empty: {shape}")
    a = [[_as_fraction(v) for v in row] + [-_as_fraction(r)] for row, r in zip(rows, rhs)]
    a, pivots, _ = _eliminate(a)
    if pivots != list(range(n)):
        raise ValueError("singular linear system")
    return _null_vector(a, pivots, n)[:n]


def _symmetric_pivots(rows: Sequence[Sequence[int]], extra: int) -> list[int]:
    """Fraction-free (Bareiss) elimination of a symmetric integer matrix.

    Every matrix the steps produce is symmetric too, since its (i, j) entry
    is a bordered minor symmetric in i and j, so only the upper triangle is
    kept: row i holds columns i..n-1.  With pivot p = a[r][r] a step sets
    a[i][j] = (p * a[i][j] - a[r][i] * a[r][j]) // prev for r < i <= j.
    A zero pivot is replaced by a congruence (`_repivot`), which keeps the
    symmetry, determinant and inertia; a zero row is dropped.  Each step after
    the first also divides by ``extra``, which the caller must know to be exact
    for the minors on any k distinct rows and columns: the k-th pivot is the
    k-th leading minor of the congruent kept rows over extra**((k-1)(k-2)/2).
    """
    u = [list(row[i:]) for i, row in enumerate(rows)]
    pivots: list[int] = []
    while (r := len(pivots)) < len(u):
        if not u[r][0] and not _repivot(u, r):
            del u[r]
            continue
        top = u[r]
        p = top[0]
        prev = pivots[-1] * extra if pivots else 1
        for i in range(r + 1, len(u)):
            f = top[i - r]
            u[i] = [(p * x - f * y) // prev for x, y in zip(u[i], top[i - r :])]
        pivots.append(p)
    return pivots


def _repivot(u: list[list[int]], r: int) -> bool:
    """Give the upper-triangle matrix ``u`` a nonzero pivot at (r, r) by a
    congruence on indices r..n-1, or return False if row r is zero.

    If a later diagonal entry a[s][s] is nonzero, indices r and s are swapped
    in both rows and columns.  Otherwise every diagonal entry from r on is 0,
    and row and column s, for the first s with a[r][s] != 0, are added to row
    and column r, which makes the pivot 2 * a[r][s].
    """
    n = len(u)

    def at(i: int, j: int) -> int:
        return u[i][j - i] if i <= j else u[j][i - j]

    s = next((s for s in range(r + 1, n) if u[s][0]), None)
    if s is not None:
        order = list(range(r, n))
        order[0], order[s - r] = s, r
        u[r:] = [[at(order[i], order[j]) for j in range(i, n - r)] for i in range(n - r)]
        return True
    top = u[r]
    s = next((s for s in range(r + 1, n) if top[s - r]), None)
    if s is None:
        return False
    u[r] = [2 * top[s - r]] + [x + at(s, j) for j, x in enumerate(top[1:], r + 1)]
    return True


def resultant(f: Polynomial, g: Polynomial) -> Fraction:
    """Res(f, g), the determinant of the (deg f + deg g) square Sylvester
    matrix of f and g, by the subresultant remainder sequence of F = d_f * f
    and G = d_g * g over Z: Res(f, g) = Res(F, G) / (d_f**deg g * d_g**deg f)."""
    if f.is_zero or g.is_zero:
        raise ValueError("Sylvester matrix requires nonzero polynomials")
    n, m = f.degree, g.degree
    if n + m == 0:
        raise ValueError("Sylvester matrix requires deg f + deg g >= 1")
    d_f, big_f = _clear_denominators(f.coeffs)
    d_g, big_g = _clear_denominators(g.coeffs)
    return Fraction(_resultant_z(big_f, big_g), d_f**m * d_g**n)


def _power_sums_z(f: list[int], m: int) -> list[int]:
    """T_0 ... T_m with T_k = a**k * S_k, for f over Z with leading coefficient a.

    Newton's identities for the monic f / a, times a**k, stay over Z:
    T_k = -sum_(v=1..min(k, n)) f[n-v] * a**(v-1) * (k if v == k else T_(k-v)).
    """
    n, a = len(f) - 1, f[-1]
    c = [0] + [f[n - v] * a ** (v - 1) for v in range(1, n + 1)]
    t = [n]
    for k in range(1, m + 1):
        acc = k * c[k] if k <= n else 0
        for v in range(1, min(k, n + 1)):
            acc += c[v] * t[k - v]
        t.append(-acc)
    return t


def power_sums(f: Polynomial, m: int) -> tuple[Fraction, ...]:
    """S_0 ... S_m from Newton's identities, never from the roots.

    With f made monic, the elementary symmetric function of order v is
    sigma_v = (-1)^v a_(n-v); the identities then give every S_k by the
    recurrence S_k = sigma_1 S_(k-1) - sigma_2 S_(k-2) + ...  (with the extra
    k*sigma_k term while k <= n).  They run over Z on a**k * S_k.
    """
    if f.is_zero:
        raise ValueError("power sums of the zero polynomial are undefined")
    if m < 0:
        raise ValueError("m must be >= 0")
    ints = _clear_denominators(f.coeffs)[1]
    a = ints[-1]
    return tuple(Fraction(t, a**k) for k, t in enumerate(_power_sums_z(ints, m)))


def discriminant_resultant(f: Polynomial) -> Fraction:
    """Discriminant via the Sylvester resultant of f and f'.

    It runs over Z on F = d * f, whose derivative d * f' is [k * F_k].
    Res(f, f') = Res(F, F') / d**(2n - 1) and a_n = F_n / d, so
    (-1)**(n(n-1)/2) * Res(f, f') / a_n is that sign times
    Res(F, F') / (d**(2n - 2) * F_n).
    """
    n = f.degree
    if f.is_zero or n < 2:
        raise ValueError("discriminant requires degree >= 2")
    d, ints = _clear_denominators(f.coeffs)
    res = _resultant_z(ints, [k * c for k, c in enumerate(ints)][1:])
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return Fraction(sign * res, d ** (2 * n - 2) * ints[-1])


def discriminant_hankel(f: Polynomial) -> Fraction:
    """Discriminant via the Hankel determinant of Newton power sums.

    det [S_(i+j)] for the monic form of f equals the squared product of root
    differences over unordered pairs, which is exactly the discriminant of
    the monic polynomial; the leading coefficient re-enters as a_n^(2n-2).
    Over Z, with F = d * f and a its leading coefficient, the entries are
    T_(i+j) = a**(i+j) * S_(i+j), so det [S_(i+j)] = det [T_(i+j)] / a**(n(n-1))
    and the discriminant is det [T_(i+j)] / (a**((n-1)(n-2)) * d**(2n-2)).

    That power of a leaves during the elimination.  A minor of [T] on rows R
    and columns C is a**(sum R + sum C) times the same minor of [S], by
    Cauchy-Binet a symmetric integer polynomial in the roots of degree at most
    max R + max C in each, which a**(max R + max C) makes integral.  So a
    k-rowed minor of [T] is divisible by a**((k-1)(k-2)) whatever the rows,
    and every Bareiss step after the first may divide by a**2 as well.  The
    congruences that replace a zero pivot turn each minor into a sum of minors
    on distinct rows and columns, so the division stays exact after them.

    `_symmetric_pivots` eliminates [T]; a row it drops makes [T] singular.
    """
    n = f.degree
    if f.is_zero or n < 2:
        raise ValueError("discriminant requires degree >= 2")
    d, ints = _clear_denominators(f.coeffs)
    t = _power_sums_z(ints, 2 * n - 2)
    pivots = _symmetric_pivots([t[i : i + n] for i in range(n)], ints[-1] ** 2)
    return Fraction(pivots[-1] if len(pivots) == n else 0, d ** (2 * n - 2))


def has_repeated_roots(f: Polynomial) -> bool:
    """True iff f has a repeated root, i.e. iff its discriminant vanishes."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no repeated-root predicate")
    n = f.degree
    if n < 1:
        raise ValueError("repeated-root test requires degree >= 1")
    return n > 1 and discriminant_resultant(f) == 0
