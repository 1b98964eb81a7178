import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from klasika.exact import Polynomial, _fraction_from_text, poly_gcd, rational_roots

from conftest import convolve, expand_roots, rand_coeffs, rand_fraction


X = Polynomial([0, 1])


def test_difference_of_squares():
    assert Polynomial([1, 1]) * Polynomial([-1, 1]) == Polynomial([-1, 0, 1])


def test_additive_identity():
    f = Polynomial([3, Fraction(1, 2), 7])
    assert f + Polynomial() == f
    assert Polynomial() + f == f


@pytest.mark.parametrize("poly, other", [
    (Polynomial([3]), 3),  # a constant hashes as the number it equals
    (Polynomial(), 0),
    (Polynomial([Fraction(1, 2)]), Fraction(1, 2)),
    (Polynomial([3, Fraction(1, 2), 7]), Polynomial(["6/2", "1/2", 7, 0])),
])
def test_equal_values_hash_alike(poly, other):
    assert poly == other and hash(poly) == hash(other)
    assert other in {poly} and poly in {other}
    assert {poly: 1}.get(other) == 1


def test_iteration_yields_the_coefficients_and_stops():
    p = Polynomial([1, 2])
    # These two checks end even when iteration falls back to __getitem__,
    # which reads 0 past the degree and so never raises IndexError.
    a, b = p
    assert (a, b) == (1, 2)
    assert list(itertools.islice(iter(p), len(p) + 1)) == list(p.coeffs)
    assert Polynomial(p) == p
    assert 2 in p and 5 not in p
    assert list(Polynomial()) == []


def test_big_product_matches_convolution_oracle():
    # (x-2)^4 (x-3)^5, degree 9
    f = Polynomial([-2, 1]) ** 4 * Polynomial([-3, 1]) ** 5
    expected = expand_roots([Fraction(2)] * 4 + [Fraction(3)] * 5)
    assert list(f.coeffs) == expected
    assert f.degree == 9


def test_degree_of_product_adds(rng):
    for _ in range(100):
        f = Polynomial(rand_coeffs(rng, rng.randint(0, 5)))
        g = Polynomial(rand_coeffs(rng, rng.randint(0, 5)))
        assert (f * g).degree == f.degree + g.degree


def test_derivative_basics():
    assert Polynomial([0, 4, 0, 1]).derivative() == Polynomial([4, 0, 3])
    assert Polynomial([17]).derivative() == Polynomial()


def test_derivative_of_repeated_root_product_shares_factor():
    f = Polynomial([-2, 1]) ** 4 * Polynomial([-3, 1]) ** 5
    shared = Polynomial(expand_roots([Fraction(2)] * 3 + [Fraction(3)] * 4))
    assert f.derivative() % shared == Polynomial()
    assert poly_gcd(f, f.derivative()) == shared


def test_gcd_basics():
    assert poly_gcd(Polynomial([-1, 0, 1]), Polynomial([-1, 1])) == Polynomial([-1, 1])
    f = Polynomial([2, 4])
    assert poly_gcd(f, Polynomial()) == f.monic()
    with pytest.raises(ValueError):
        poly_gcd(Polynomial(), Polynomial())


def sympy_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """sympy's gcd over Q, made monic."""
    import sympy

    x = sympy.Symbol("x")

    def as_poly(p: Polynomial):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0], x, domain="QQ")

    d = sympy.gcd(as_poly(f), as_poly(g)).monic()
    return Polynomial([Fraction(int(c.p), int(c.q)) for c in reversed(d.all_coeffs())])


def test_gcd_divides_both_exactly(rng):
    pairs = []
    for _ in range(60):  # mostly coprime pairs
        pairs.append((rand_coeffs(rng, rng.randint(1, 5)), rand_coeffs(rng, rng.randint(1, 5))))
    for _ in range(60):  # a planted common factor up to degree 24, degree gaps up to 12
        common = rand_coeffs(rng, rng.randint(1, 12))
        f, g = rand_coeffs(rng, rng.randint(0, 12)), rand_coeffs(rng, rng.randint(0, 2))
        pairs.append((convolve(common, f), convolve(common, g)))
    for _ in range(20):  # negative, non-unit and fractional leading coefficients, repeated factors
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 5))
        f = [c * lead for c in expand_roots([rand_fraction(rng)] * rng.randint(1, 4) + [rand_fraction(rng)])]
        pairs.append((f, Polynomial(f).derivative().coeffs))
    pairs += [  # constants and one zero operand
        ([Fraction(3)], [Fraction(5)]),
        ([Fraction(-2, 3)], [Fraction(1), Fraction(1)]),
        ([], [Fraction(-4), Fraction(2)]),
        ([Fraction(0), Fraction(0), Fraction(-3, 2)], []),
    ]
    for fs, gs in pairs:
        f, g = Polynomial(fs), Polynomial(gs)
        d = poly_gcd(f, g)
        assert d == sympy_gcd(f, g) == poly_gcd(g, f)
        assert f % d == Polynomial()
        assert g % d == Polynomial()


def test_ring_distributivity_500_triples(rng):
    for _ in range(500):
        f = Polynomial(rand_coeffs(rng, rng.randint(0, 6)))
        g = Polynomial(rand_coeffs(rng, rng.randint(0, 6)))
        h = Polynomial(rand_coeffs(rng, rng.randint(0, 6)))
        assert (f + g) * h == f * h + g * h


def test_divmod_roundtrip(rng):
    for _ in range(80):
        f = Polynomial(rand_coeffs(rng, rng.randint(0, 7)))
        g = Polynomial(rand_coeffs(rng, rng.randint(0, 4)))
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree


def test_taylor_shift_matches_composition_oracle(rng):
    cases = [(rand_coeffs(rng, rng.randint(0, 8)), rand_fraction(rng)) for _ in range(100)]
    cases += [(rand_coeffs(rng, rng.randint(0, 8)), rng.randint(-9, 9)) for _ in range(40)]  # integer h, 0 included
    cases += [([], Fraction(3, 2)), ([], 0), ([Fraction(-7, 3)], Fraction(5, 4)), ([Fraction(4)], -3),
              (rand_coeffs(rng, 5), Fraction(0))]
    for coeffs, h in cases:
        expected = [Fraction(0)]
        for c in reversed(coeffs):  # Horner on plain lists: acc * (x + h) + c
            expected = convolve(expected, [h, Fraction(1)])
            expected[0] += c
        shifted = Polynomial(coeffs).taylor_shift(h)
        assert shifted == Polynomial(expected)
        assert all(type(c) is Fraction for c in shifted.coeffs)


# Texts at the edge of _fraction_from_text's plain-integer and p/q fast path.
EDGE_TEXTS = ["+3", "--3", " 4 ", "1_0", "\u0663", "\u00b2", "007/003", "3/-2", "1/0", "-0", "/2", "3/", "-", "",
              "1e3", "0.5", "-12/18", "-/4", "3/4/5", "-0/7", "0/0", "\u22123", "1" * 4301, "2/" + "3" * 4301]


def same_as_fraction_parser(text):
    """_fraction_from_text(text) equals Fraction(text), the parser that every
    text off the fast path reaches, or raises the same exception type."""
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            _fraction_from_text(text)
    else:
        got = _fraction_from_text(text)
        assert type(got) is Fraction and got == expected, text


def test_text_fast_path_equals_fraction_on_the_edge():
    for text in EDGE_TEXTS:
        same_as_fraction_parser(text)


@given(st.text(alphabet="0123456789-+/ _.\u0663\u00b2", max_size=8))
def test_text_fast_path_equals_fraction(text):
    same_as_fraction_parser(text)


def test_rational_roots_paper_cases():
    assert rational_roots(Polynomial([-1, -6, 0, 8])) == []  # 8x^3 - 6x - 1
    assert rational_roots(Polynomial([-4, 0, 1])) == [-2, 2]
    assert rational_roots(Polynomial([-2, 0, 0, 1])) == []  # x^3 - 2


def test_rational_roots_multiplicity_and_exactness(rng):
    for _ in range(40):
        roots = [rand_fraction(rng, -5, 5, 3) for _ in range(rng.randint(1, 4))]
        lead = rand_fraction(rng, 1, 5, 3)
        f = Polynomial(expand_roots(roots, lead))
        found = rational_roots(f)
        assert found == sorted(roots)
        for r in found:
            assert f(r) == 0


def test_rational_roots_of_zero_polynomial_errors():
    with pytest.raises(ValueError):
        rational_roots(Polynomial())


def test_fraction_canonicalization(rng):
    import math

    for _ in range(200):
        p = rng.randint(-10**6, 10**6)
        q = rng.randint(1, 10**6)
        f = Fraction(p, q)
        assert f.denominator > 0
        assert math.gcd(abs(f.numerator), f.denominator) == 1


def test_text_roundtrip():
    f = Polynomial.from_text("-1,0,-6,8")
    assert f == Polynomial([-1, 0, -6, 8])
    assert f.to_text() == "-1,0,-6,8"
    g = Polynomial.from_text("1/2, -3/4, 1")
    assert g[0] == Fraction(1, 2) and g[1] == Fraction(-3, 4)
    with pytest.raises(ValueError):
        Polynomial.from_text("1,foo,2")


@pytest.mark.parametrize("text", ["1e4300", "-2.5E-4300", " 7e-0004300 "])
def test_decimal_exponent_up_to_4300_is_read(text):
    assert Polynomial.from_text(text)[0] == Fraction(text)


@pytest.mark.parametrize("text", ["1e4301", "1E-4301", "1e+0_4301", "3e10000000", "1e-" + "9" * 5000])
def test_decimal_exponent_beyond_4300_is_refused_before_expansion(text):
    with pytest.raises(ValueError):
        Polynomial.from_text(text)
    with pytest.raises(ValueError):
        Polynomial([text])


def test_str_parses_back_to_the_polynomial(rng):
    import sympy

    x = sympy.Symbol("x")
    units = [Fraction(0), Fraction(0), Fraction(1), Fraction(-1)]
    for _ in range(400):
        coeffs = [
            rng.choice(units) if rng.random() < 0.5 else rand_fraction(rng, -30, 30, 12)
            for _ in range(rng.randint(0, 8))
        ]
        f = Polynomial(coeffs)
        text = str(f)
        assert "+ -" not in text and "- -" not in text
        parsed = sympy.sympify(text.replace("^", "**"), locals={"x": x})
        expected = sum(
            (sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(f.coeffs)),
            sympy.Integer(0),
        )
        assert sympy.expand(parsed - expected) == 0, text


def test_zero_polynomial_degree_sentinel():
    assert Polynomial().degree == float("-inf")
    assert Polynomial([0, 0]).degree == float("-inf")


def test_exact_evaluation():
    f = Polynomial([Fraction(1, 3), Fraction(-2, 7), 1])
    x = Fraction(5, 11)
    assert f(x) == Fraction(1, 3) + Fraction(-2, 7) * x + x * x
