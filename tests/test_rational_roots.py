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

The inputs aim at the squarefree split and the p-adic search: planted
roots of multiplicity up to 4, one irreducible quadratic of multiplicity up
to 3, dyadic roots, zero roots, sparse terms, Mignotte-type root clusters,
and wide coefficients, at degrees up to 24; leading coefficients that the
first odd primes divide, and pieces that are not squarefree mod any prime
below 10**4, so the prime walk must pass over them; and a degree-64 input
at the argv caps built so that the walk rejects 1020 more primes.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from klasika import exact
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


def test_split_leaves_what_is_not_squarefree_mod_32749_to_the_gcds():
    """A piece of degree >= 4 squarefree mod 32749 is its own only piece, but
    only when 32749 does not divide its leading coefficient.  (32749x - 1)^2
    (x - 2) is x - 2 mod 32749, and (x - 1)(x - 32750), squarefree over Q, is
    (x - 1)^2 mod 32749; beside x^2 + 1 both reach that test in the split."""
    for roots in ([Fraction(1, 32749), Fraction(1, 32749), Fraction(2)], [Fraction(1), Fraction(32750)]):
        for extra in ([Fraction(1)], [Fraction(1), Fraction(0), Fraction(1)]):
            check(convolve(expand_roots(roots), extra), roots)


# -- the p-adic search: the primes it must pass over -----------------------------------


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


PRIMES = primes_below(20000)
N = math.prod(p for p in PRIMES if p < 10**4)  # 4298 digits, under the 4300-digit input cap


@settings(deadline=None, max_examples=150)
@given(
    roots=st.lists(st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 3, 5, 7, 11, 15, 33, 35, 77, 1155])),
                   min_size=1, max_size=6, unique=True),
    noise=st.lists(st.integers(-9, 9), min_size=2, max_size=4),
    k=st.integers(1, 4),
)
def test_planted_roots_under_a_leading_coefficient_that_3_5_7_and_11_divide(roots, noise, k):
    """The first odd primes divide an, so a root u/s with one of them in s has
    no image mod that prime; the walk must pass over all four, whether or not
    the piece stays squarefree mod them."""
    coeffs = convolve(expand_roots(roots, Fraction(1155 * k)), [Fraction(c) for c in noise] + [Fraction(1)])
    found = check(coeffs)
    for r in roots:
        assert found.count(r) >= 1


@settings(deadline=None, max_examples=25)
@given(u=st.integers(-50, 50).filter(bool), s=st.integers(1, 50), k=st.integers(2, 5), c=st.integers(1, 30))
def test_pieces_that_are_not_squarefree_mod_any_prime_below_10_4(u, s, k, c):
    """(s*x - u) * (x^k - c*N), the shape of `partfrac 1 / N,-N,-1,1`: mod each
    prime below 10**4 the second factor is x^k, a square.  9973 divides c*N
    once, so c*N is no k-th power and u/s is the only rational root."""
    coeffs = convolve([Fraction(-u), Fraction(s)], [Fraction(-c * N)] + [Fraction(0)] * (k - 1) + [Fraction(1)])
    assert rational_roots(Polynomial(coeffs)) == [Fraction(u, s)]


def test_many_roots_mod_a_large_prime(monkeypatch):
    """prod (s_i*x - u_i) over 12 roots, times x^2 + 1, where the s_i share out
    the odd primes below 200: the walk passes over every one of them, and
    mod the first prime it can use, 223, the piece has 12 roots.  223 is
    above 15 times its bit length, so they are read off gcd(a, x^p - x),
    not found by trial on a."""
    small = [p for p in PRIMES if 2 < p < 200]
    roots = [Fraction(u, math.prod(small[i::12])) for i, u in enumerate([-7, -5, -3, -1, 1, 2, 4, 8, 9, 16, 25, 10**6 + 3])]
    coeffs = convolve(expand_roots(roots), [Fraction(1), Fraction(0), Fraction(1)])
    used, x_power_p = [], exact._x_power_p
    monkeypatch.setattr(exact, "_x_power_p", lambda e, g, p: used.append(p) or x_power_p(e, g, p))
    assert rational_roots(Polynomial(coeffs)) == sorted(roots)
    assert used == [223]


def test_prime_walk_at_the_caps_is_fast(monkeypatch):
    """N*x^64 + b*x + c0 with b = -64*N*2^63 and c0 = 63*N*2^64 mod M, M the
    product of the 1020 primes above 10**4 that fit 4250 digits (Chinese
    remainders): x = 2 is a double root mod each of them, and each prime
    below 10**4 divides an.  So the walk passes over every prime below
    19891, each at a gcd mod p for the large ones, before the first that
    it can use."""
    big, m = [], 1
    for p in PRIMES:
        if p > 10**4:
            if m * p >= 10**4250:
                break
            big.append(p)
            m *= p
    assert len(big) == 1020
    b, c0 = -64 * N * 2**63 % m, 63 * N * 2**64 % m
    coeffs = [c0, b] + [0] * 62 + [N]
    for p in big:
        assert (N * 2**64 + 2 * b + c0) % p == 0 and (64 * N * 2**63 + b) % p == 0
    used, x_power_p = [], exact._x_power_p
    monkeypatch.setattr(exact, "_x_power_p", lambda e, g, p: used.append(p) or x_power_p(e, g, p))
    t0 = time.perf_counter()
    split = _rational_split(Polynomial(coeffs))
    elapsed = time.perf_counter() - t0
    assert used == [19891] and big[-1] == 19889
    assert [roots for roots, _ in split] == [[]]
    assert Polynomial(split[0][1]).monic() == Polynomial(coeffs).monic()
    assert elapsed < 2.5


def test_twelve_roots_whose_denominators_share_out_the_primes_below_10_4_are_fast():
    """(x^2 + 1) * prod (s_i*x - u_i) over 12 roots, where the s_i share out
    the primes below 10**4: coefficients up to 4298 digits, a 36 KB argv.  It
    is squarefree mod 32749, so the squarefree split needs none of Musser's
    gcds over Z, which take 8 s on it."""
    small = [p for p in PRIMES if p < 10**4]
    roots = [Fraction(u, math.prod(small[i::12])) for i, u in enumerate([-7, -5, -3, -1, 1, 2, 4, 8, 9, 16, 25, 10**6 + 3])]
    coeffs = [1, 0, 1]
    for r in roots:
        coeffs = convolve(coeffs, [-r.numerator, r.denominator])
    f = Polynomial(coeffs)
    assert max(len(str(c)) for c in coeffs) == 4298 and 35000 < len(f.to_text()) < 37000
    t0 = time.perf_counter()
    found = rational_roots(f)
    elapsed = time.perf_counter() - t0
    assert found == sorted(roots)
    assert elapsed < 2.0
