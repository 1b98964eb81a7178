"""The fraction-free elimination behind `determinant`, `solve_linear_system`
and `rational_nullspace`, checked against sympy as an independent exact
oracle.  Null-space bases are compared as exact vectors: both sides take the
reduced-echelon basis with one free variable set to 1 per vector.
"""

from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from klasika.disc import determinant, solve_linear_system, sylvester_matrix
from klasika.exact import Polynomial
from klasika.forms import rational_nullspace

from conftest import rand_coeffs, rand_fraction


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])


def to_fraction(v) -> Fraction:
    v = sympy.Rational(v)
    return Fraction(int(v.p), int(v.q))


def assert_matches_sympy(rows, rhs=None):
    rows = [[Fraction(v) for v in row] for row in rows]
    m = to_sympy(rows)
    expected = [[to_fraction(x) for x in vec] for vec in m.nullspace()]
    assert rational_nullspace(rows) == expected
    if m.rows != m.cols:
        return
    det = to_fraction(m.det())
    assert determinant(rows) == det
    rhs = [Fraction(v) for v in rhs or range(1, len(rows) + 1)]
    if det == 0:
        with pytest.raises(ValueError, match="singular"):
            solve_linear_system(rows, rhs)
    else:
        solution = m.LUsolve(to_sympy([[v] for v in rhs]))
        assert solve_linear_system(rows, rhs) == [to_fraction(x) for x in solution]


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3], [4, 5, 6]],  # wide
        [[1, 2], [3, 4], [5, 6]],  # tall
        [[1, 2, 3], [2, 4, 6], [1, 1, 1]],  # rank 2
        [[1, 2, 3, 4], [2, 4, 6, 8], [3, 6, 9, 12]],  # rank 1, wide
        [[0, 0, 0], [1, 2, 3], [4, 5, 6]],  # zero row
        [[0, 1, 2], [0, 3, 4], [0, 5, 7]],  # zero column
        [[1, 0, 2], [3, 0, 4], [5, 0, 7]],  # zero middle column
        [[0, 1, 2], [3, 4, 5], [6, 7, 9]],  # zero first pivot: row swap
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],  # two swaps
        [[0, 0, 0], [0, 0, 0]],  # zero matrix
        [[7]],
        [["1/2", "2/3", "3/4"], ["5/6", "7/8", "1/9"], ["1/10", 1, "11/12"]],  # mixed denominators
        [["1/2", "1/3"], ["3/2", 1]],  # mixed denominators, singular
    ],
)
def test_elimination_cases_match_sympy(rows):
    assert_matches_sympy(rows)


def rand_low_rank(rng, nrows, ncols, rank):
    left = [[rand_fraction(rng) for _ in range(rank)] for _ in range(nrows)]
    right = [[rand_fraction(rng) for _ in range(ncols)] for _ in range(rank)]
    return [[sum((l[k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(ncols)] for l in left]


def test_random_elimination_matches_sympy(rng):
    for trial in range(240):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 3 == 0:
            ncols = nrows
        if trial % 2:
            rows = rand_low_rank(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))
        else:
            rows = [[rand_fraction(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(ncols)] for _ in range(nrows)]
        rhs = [rand_fraction(rng) for _ in range(nrows)]
        assert_matches_sympy(rows, rhs)


@pytest.mark.parametrize("degree", [2, 5, 8, 16, 24, 32])
def test_sylvester_determinants_match_sympy(rng, degree):
    f = Polynomial(rand_coeffs(rng, degree))
    m = sylvester_matrix(f, f.derivative())
    dm = DomainMatrix.from_Matrix(to_sympy(m.rows)).convert_to(sympy.QQ)
    assert determinant(m) == to_fraction(sympy.QQ.to_sympy(dm.det()))


def test_singular_sylvester_nullspace_matches_sympy(rng):
    # a planted double root makes Res(f, f') vanish
    f = Polynomial(rand_coeffs(rng, 4)) * Polynomial(rand_coeffs(rng, 1)) ** 2
    m = sylvester_matrix(f, f.derivative())
    assert m.n == 11
    assert determinant(m) == 0
    assert_matches_sympy(m.rows)
    assert len(rational_nullspace(m.rows)) == 1
