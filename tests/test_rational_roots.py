"""`rational_roots` against two independent oracles.

* `divisor_enumeration_roots` is the classical rational-root test: every
  p/q with p | a0 and q | an, verified by exact evaluation.  It uses plain
  lists and trial-division divisors, so it serves on small inputs only
  (|a0|, |an| <= 10**4 once denominators and content are cleared).
* sympy's `Poly(...).ground_roots()` serves on every input, including
  100-bit coefficients.
* sympy's `sqf_list` and `roots` give each squarefree factor's rational
  roots and what is left of it, which `factor_real` must report as linear
  and quadratic factors, or refuse.

The inputs aim at the squarefree split and the isolation kernel: planted
roots of multiplicity up to 4, one irreducible quadratic of multiplicity up
to 3, dyadic roots that land on bisection midpoints, zero roots, sparse
terms, Mignotte-type root clusters, and wide coefficients, at degrees up to 24.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from klasika.exact import Polynomial, _rational_split, rational_roots
from klasika.ratfun import RealFactorization, UnsupportedFactorizationError, factor_real

from conftest import convolve, expand_roots, rand_coeffs

SMALL = 10**4


def cleared(coeffs: list[Fraction]) -> list[int]:
    """Integer coefficients, content removed, zero roots kept."""
    d = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * d) for c in coeffs]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def divisor_enumeration_roots(coeffs: list[Fraction]) -> list[Fraction]:
    ints = cleared(coeffs)
    while ints[-1] == 0:
        ints.pop()
    zeros = 0
    while ints[zeros] == 0:
        zeros += 1
    ints = ints[zeros:]
    assert abs(ints[0]) <= SMALL and abs(ints[-1]) <= SMALL

    def value(x):
        acc = Fraction(0)
        for c in reversed(work):
            acc = acc * x + c
        return acc

    work = [Fraction(c) for c in ints]
    found = [Fraction(0)] * zeros
    for p in divisors(abs(ints[0])):
        for q in divisors(abs(ints[-1])):
            if math.gcd(p, q) != 1:
                continue
            for r in (Fraction(p, q), Fraction(-p, q)):
                while len(work) > 1 and value(r) == 0:
                    found.append(r)
                    # synthetic division by (x - r)
                    out = [Fraction(0)] * (len(work) - 1)
                    carry = Fraction(0)
                    for k in range(len(work) - 1, 0, -1):
                        carry = work[k] + r * carry
                        out[k - 1] = carry
                    work = out
    return sorted(found)


def sympy_roots(coeffs: list[Fraction]) -> list[Fraction]:
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x, domain="QQ")
    out = []
    for r, m in poly.ground_roots().items():
        r = sympy.Rational(r)
        out += [Fraction(int(r.p), int(r.q))] * m
    return sorted(out)


def sympy_split(coeffs: list[Fraction]) -> dict[int, tuple[list[Fraction], Polynomial]]:
    """{i: (rational roots, the rest made monic)} for the squarefree factor of
    multiplicity i, by sympy's `sqf_list` and `roots`."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x, domain="QQ")
    split = {}
    for factor, i in poly.sqf_list()[1]:
        roots = sorted(sympy.roots(factor, filter="Q"))
        for r in roots:
            factor = factor.quo(sympy.Poly(x - r, x, domain="QQ"))
        rest = [Fraction(int(c.p), int(c.q)) for c in reversed(factor.monic().all_coeffs())]
        split[i] = ([Fraction(int(r.p), int(r.q)) for r in roots], Polynomial(rest))
    return split


def expected_factorization(coeffs: list[Fraction], split) -> RealFactorization | Polynomial:
    """What `factor_real` must return, or the residual it must refuse first."""
    linear, quadratics = [], []
    for i in sorted(split):
        roots, rest = split[i]
        linear += [(r, i) for r in roots]
        if rest.degree == 2 and rest[1] ** 2 - 4 * rest[0] < 0:
            quadratics.append((rest[1], rest[0], i))
        elif rest.degree >= 2:
            return rest
    return RealFactorization(Polynomial(coeffs).leading_coefficient, tuple(sorted(linear)), tuple(sorted(quadratics)))


def check(coeffs: list[Fraction], expected=None):
    found = rational_roots(Polynomial(coeffs))
    assert found == sympy_roots(coeffs)
    split = sympy_split(coeffs)
    assert found == sorted(r for i, (roots, _) in split.items() for r in roots for _ in range(i))
    factorization = expected_factorization(coeffs, split)
    if isinstance(factorization, Polynomial):
        with pytest.raises(UnsupportedFactorizationError) as err:
            factor_real(Polynomial(coeffs))
        assert err.value.residual == factorization
    else:
        assert factor_real(Polynomial(coeffs)) == factorization
    ints = [c for c in cleared(coeffs) if c != 0]
    if abs(ints[0]) <= SMALL and abs(ints[-1]) <= SMALL:
        assert found == divisor_enumeration_roots(coeffs)
    if expected is not None:
        assert found == sorted(expected)
    return found


def irreducible_quadratic(rng) -> list[Fraction]:
    p = rng.randint(-3, 3)
    return [Fraction(p * p + rng.randint(1, 9)), Fraction(p), Fraction(1)]


def planted(rng, roots, extra_degree, lead=None):
    """lead * prod (x - r), times an irreducible quadratic and random noise of
    extra_degree in all (0 for none)."""
    if lead is None:
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 3))
    coeffs = expand_roots(roots, lead)
    if extra_degree:
        coeffs = convolve(coeffs, convolve(irreducible_quadratic(rng), rand_coeffs(rng, extra_degree - 2, max_den=1)))
    return coeffs


def test_planted_roots_with_multiplicity_up_to_4(rng):
    for _ in range(60):
        roots, target = [], rng.randint(2, 20)
        while len(roots) < target:
            roots += [Fraction(rng.randint(-12, 12), rng.randint(1, 6))] * min(rng.randint(1, 4), target - len(roots))
        found = check(planted(rng, roots, rng.choice((0, 0, 2, 3, 4))))
        for r in set(roots):  # the noise factor may add roots, never remove planted ones
            assert found.count(r) >= roots.count(r)
        quadratic = irreducible_quadratic(rng)
        power = rng.randint(1, 3)  # one irreducible quadratic, which factor_real accepts
        coeffs = expand_roots(roots[: 24 - 2 * power], Fraction(rng.randint(1, 6), rng.choice((-1, 2, 3))))
        for _ in range(power):
            coeffs = convolve(coeffs, quadratic)
        assert check(coeffs) == sorted(roots[: 24 - 2 * power])


def test_dyadic_roots_on_bisection_midpoints(rng):
    check(expand_roots([Fraction(1, 2)]), [Fraction(1, 2)])
    check(expand_roots([Fraction(3, 4)] * 3 + [Fraction(1, 2)] * 2), [Fraction(1, 2)] * 2 + [Fraction(3, 4)] * 3)
    powers = [Fraction(s * 2**k) for k in range(-4, 6) for s in (1, -1)]
    check(expand_roots(powers), powers)
    for _ in range(40):
        roots = [Fraction(rng.choice([-1, 1]) * rng.randrange(1, 64, 2), 2 ** rng.randint(0, 5)) for _ in range(rng.randint(1, 8))]
        roots = [r for r in roots for _ in range(rng.randint(1, 3))]
        check(expand_roots(roots), roots)


def test_zero_roots(rng):
    assert check([Fraction(0), Fraction(0), Fraction(3)]) == [0, 0]
    assert check([Fraction(0), Fraction(2), Fraction(-1)]) == [0, 2]
    for _ in range(30):
        zeros = rng.randint(1, 5)
        coeffs = [Fraction(0)] * zeros + planted(rng, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))], rng.choice((0, 2)))
        assert check(coeffs).count(0) >= zeros
    for _ in range(30):  # sparse terms: x^z * (c_k x^k + ... ) with most coefficients zero
        sparse = [Fraction(rng.randint(-9, 9)) if rng.random() < 0.25 else Fraction(0) for _ in range(rng.randint(2, 20))]
        sparse[0] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        sparse.append(Fraction(rng.randint(1, 9)))
        check([Fraction(0)] * rng.randint(0, 4) + sparse)


def test_mignotte_clusters():
    # x^n - 2(ax - 1)^2 has two real roots within about a**-(n/2+1) of 1/a
    for n in (4, 7, 12, 24):
        for a in (3, 10, 100):
            mignotte = [Fraction(0)] * (n + 1)
            mignotte[n] += 1
            mignotte[0] -= 2
            mignotte[1] += 4 * a
            mignotte[2] -= 2 * a * a
            check(mignotte, [])
            if n <= 22:
                check(convolve(mignotte, [Fraction(-1), Fraction(a)]), [Fraction(1, a)])
                check(convolve(mignotte, expand_roots([Fraction(1, a + 1)] * 2)), [Fraction(1, a + 1)] * 2)


def test_100_bit_coefficients(rng):
    for _ in range(12):
        roots = [Fraction(rng.getrandbits(100) * rng.choice([-1, 1]) + 1, rng.getrandbits(30) + 1) for _ in range(rng.randint(1, 3))]
        roots += [Fraction(rng.randint(-9, 9), rng.randint(1, 9))] * rng.randint(1, 3)
        lead = Fraction(rng.getrandbits(100) + 1)
        check(planted(rng, roots, rng.choice((0, 2, 4)), lead))
    big = 2**100 + 277  # a 101-bit prime
    check([Fraction(big), Fraction(big), Fraction(1), Fraction(1)], [Fraction(-1)])
    check(expand_roots([Fraction(big, 3), Fraction(-1, big)] * 2), [Fraction(-1, big)] * 2 + [Fraction(big, 3)] * 2)


def test_grid_neighbours_and_wide_grids(rng):
    # Farey neighbours p1/q1 < p2/q2 (p2*q1 - p1*q2 = 1) are adjacent points of Z/an for an = q1*q2
    for _ in range(30):
        q1, q2 = rng.randint(1, 10**6), rng.randint(1, 10**6)
        if math.gcd(q1, q2) != 1:
            continue
        p2 = pow(q1, -1, q2) + rng.randint(-3, 3) * q2
        p1 = (p2 * q1 - 1) // q2
        roots = [Fraction(p1, q1), Fraction(p2, q2)]
        assert set(roots) <= set(check(planted(rng, roots, rng.choice((0, 2, 3)), Fraction(1))))
    # |p| <= 3 over 40-digit q: Z/an is dense near the roots, a0/Z is sparse there
    for _ in range(12):
        roots = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(10**39, 10**40)) for _ in range(rng.randint(1, 3))]
        assert set(roots) <= set(check(planted(rng, roots, rng.choice((0, 2, 4)), Fraction(1))))
    # beside irreducible or irrational-root quadratics with 80-digit coefficients
    for _ in range(12):
        a, b, c = (rng.choice([-1, 1]) * rng.randrange(10**79, 10**80) for _ in range(3))
        roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 3))]
        coeffs = convolve(expand_roots(roots), [Fraction(c), Fraction(b), Fraction(a)])
        check(coeffs, roots if math.isqrt(max(b * b - 4 * a * c, 0)) ** 2 != b * b - 4 * a * c else None)


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8, 13, 24])
def test_random_dense_polynomials(degree):
    rng = random.Random(degree)
    for _ in range(20):
        check(rand_coeffs(rng, degree, -20, 20, 3))


def test_every_small_quadratic_and_cubic_against_the_rational_root_theorem():
    """Degrees 2 and 3 take closed forms: a nonzero discriminant makes f its own
    squarefree piece, and a piece of degree <= 2 is solved by an integer square
    root.  Every integer quadratic and cubic with coefficients in [-5, 5] is
    checked against divisor enumeration, multiplicities included, and the
    split must rebuild f up to a constant factor.  Among them are square,
    non-square, negative and zero discriminants (x^2 - 4, x^2 - 2, x^2 + 1,
    x^2 - 2x + 1) and a triple root (x^3 - 3x^2 + 3x - 1)."""
    for degree in (2, 3):
        for lower in itertools.product(range(-5, 6), repeat=degree):
            for lead in (*range(-5, 0), *range(1, 6)):
                ints = [*lower, lead]
                f = Polynomial(ints)
                assert rational_roots(f) == divisor_enumeration_roots([Fraction(c) for c in ints]), ints
                rebuilt = [1]
                for i, (roots, rest) in enumerate(_rational_split(f), 1):
                    for r in roots:
                        rest = convolve(rest, [-r.numerator, r.denominator])
                    for _ in range(i):
                        rebuilt = convolve(rebuilt, rest)
                assert [c * rebuilt[-1] for c in ints] == [c * lead for c in rebuilt], ints


# -- the squarefree split itself, by planted roots -----------------------------------

planted_roots = st.lists(
    st.tuples(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8)), st.integers(1, 4)),
    max_size=8,
    unique_by=lambda t: t[0],
)
# x^2 + p*x + q with p^2 - 4q not a square: complex or irrational real roots
quadratic_factors = st.tuples(st.integers(-6, 6), st.integers(-20, 20), st.integers(1, 3)).filter(
    lambda t: t[0] ** 2 - 4 * t[1] < 0 or math.isqrt(t[0] ** 2 - 4 * t[1]) ** 2 != t[0] ** 2 - 4 * t[1]
)


@settings(deadline=None)
@given(roots=planted_roots, quadratic=st.none() | quadratic_factors, lead=st.integers(-30, 30).filter(bool))
def test_split_puts_each_planted_root_in_its_multiplicity_piece(roots, quadratic, lead):
    power = quadratic[2] if quadratic else 0
    assume(sum(m for _, m in roots) + 2 * power <= 24)
    coeffs = expand_roots([r for r, m in roots for _ in range(m)], Fraction(lead, 7))
    for _ in range(power):
        coeffs = convolve(coeffs, [Fraction(quadratic[1]), Fraction(quadratic[0]), Fraction(1)])
    split = _rational_split(Polynomial(coeffs))
    assert len(split) == max([m for _, m in roots] + [power])
    for i, (found, rest) in enumerate(split, 1):
        assert found == sorted(r for r, m in roots if m == i)
        expected_rest = [quadratic[1], quadratic[0], 1] if i == power else [1]
        assert Polynomial(rest).monic() == Polynomial(expected_rest)
