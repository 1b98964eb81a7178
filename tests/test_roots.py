import cmath
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from klasika.disc import discriminant_resultant
from klasika.exact import Polynomial
from klasika.roots import (
    _newton,
    depress,
    residual_tolerance,
    roots_of_unity,
    solve_cubic_cardano,
    solve_quadratic,
)

from conftest import convolve, expand_roots, power, rand_coeffs, rand_fraction

EPS_CUBE = complex(-0.5, math.sqrt(3) / 2)


def test_depress_perfect_cube():
    dep = depress(Polynomial([1, 3, 3, 1]))  # (x+1)^3
    assert dep.poly == Polynomial([0, 0, 0, 1])
    assert dep.shift == 1


def test_depress_quadratic_completes_the_square(rng):
    for _ in range(50):
        b, c = rand_fraction(rng), rand_fraction(rng)
        dep = depress(Polynomial([c, b, 1]))
        assert dep.shift == b / 2
        assert dep.poly == Polynomial([c - b * b / 4, 0, 1])


def test_depress_factored_cubic():
    dep = depress(Polynomial([-6, 11, -6, 1]))  # (x-1)(x-2)(x-3)
    assert dep.poly == Polynomial([0, -1, 0, 1])  # y^3 - y
    assert dep.shift == -2
    # roots of y^3 - y are -1, 0, 1; shifting back gives 1, 2, 3
    assert sorted(y - dep.shift for y in (-1, 0, 1)) == [1, 2, 3]


def test_depress_requires_degree_2():
    with pytest.raises(ValueError):
        depress(Polynomial([1, 2]))


def test_depression_roundtrip_exact(rng):
    for trial in range(512):
        # the last 12 draws reach the CLI's degree cap of 64
        degree = rng.choice((3, 4)) if trial < 500 else (2, 8, 16, 64)[trial % 4]
        f = Polynomial(rand_coeffs(rng, degree))
        dep = depress(f)
        assert dep.poly.taylor_shift(dep.shift) == f.monic()
        assert dep.poly[degree - 1] == 0


def test_solve_quadratic_examples():
    r = solve_quadratic(Polynomial([-4, 0, 1]))
    assert r == (complex(-2), complex(2))
    r = solve_quadratic(Polynomial([1, 0, 1]))
    assert r[0].imag == -r[1].imag and r[0].real == r[1].real == 0
    assert abs(r[1] - 1j) < 1e-14
    r = solve_quadratic(Polynomial([2, -3, 1]))
    assert abs(r[0] - 1) < 1e-12 and abs(r[1] - 2) < 1e-12


def test_solve_quadratic_rejects_other_degrees():
    with pytest.raises(ValueError):
        solve_quadratic(Polynomial([1, 1]))
    with pytest.raises(ValueError):
        solve_quadratic(Polynomial([1, 0, 0, 1]))


def test_cardano_cube_roots_of_unity():
    out = solve_cubic_cardano(Polynomial([-1, 0, 0, 1]))  # x^3 = 1
    expected = [1, EPS_CUBE, EPS_CUBE**2]
    for want in expected:
        assert min(abs(z - want) for z in out.roots) < 1e-12
    assert max(out.residuals) < 1e-12


def test_cardano_scaled_roots_of_unity():
    out = solve_cubic_cardano(Polynomial([-8, 0, 0, 1]))  # y^3 - 8
    for want in (2, 2 * EPS_CUBE, 2 * EPS_CUBE**2):
        assert min(abs(z - want) for z in out.roots) < 1e-12


def test_cardano_distinct_integer_roots():
    out = solve_cubic_cardano(Polynomial([-6, 11, -6, 1]))
    got = sorted(z.real for z in out.roots)
    assert max(abs(z.imag) for z in out.roots) == 0.0
    assert max(abs(g - w) for g, w in zip(got, (1, 2, 3))) < 1e-12


def test_cardano_residuals_on_random_cubics(rng):
    for _ in range(300):
        f = Polynomial(rand_coeffs(rng, 3, lo=-20, hi=20, max_den=5))
        out = solve_cubic_cardano(f)
        assert max(out.residuals) < residual_tolerance(f)


def test_cardano_residuals_are_bitwise_abs_f_of_root(rng):
    cubics = []
    for _ in range(80):
        r1, r2, r3 = (rand_fraction(rng, -20, 20, 5) for _ in range(3))
        lead = rand_fraction(rng, 1, 9, 4) * rng.choice((1, -1))
        p, q = rand_fraction(rng), rand_fraction(rng)
        q += p * p / 4 + abs(rand_fraction(rng, 1, 9, 4))  # x^2 + p*x + q has no real root
        cubics += [
            Polynomial([-r1, 1]) * Polynomial([-r2, 1]) * Polynomial([-r3, lead]),  # three real roots
            power(Polynomial([-r1, 1]), 2) * Polynomial([-r2, lead]),  # a double root
            power(Polynomial([-r1, 1]), 3) * lead,  # a triple root
            Polynomial([q, p, 1]) * Polynomial([-r1, lead]),  # a complex pair
        ]
    for f in cubics:
        out = solve_cubic_cardano(f)
        assert [abs(f(r)).hex() for r in out.roots] == [x.hex() for x in out.residuals]


def test_cardano_vieta(rng):
    for _ in range(300):
        f = Polynomial(rand_coeffs(rng, 3, lo=-20, hi=20, max_den=5))
        out = solve_cubic_cardano(f)
        total = sum(out.roots)
        prod = out.roots[0] * out.roots[1] * out.roots[2]
        want_sum = complex(-f[2] / f[3])
        want_prod = complex(-f[0] / f[3])
        scale = 1.0 + abs(want_sum) + abs(want_prod)
        assert abs(total - want_sum) < 1e-8 * scale
        assert abs(prod - want_prod) < 1e-8 * scale


def test_cardano_discriminant_sign_is_minus_radicand_sign(rng):
    """Cardano reads the sign of the depressed discriminant from its radicand:
    for y^3 + a*y + b the resultant discriminant is -108 * (b^2/4 + a^3/27)."""
    cubics = [Polynomial(rand_coeffs(rng, 3, lo=-20, hi=20, max_den=5)) for _ in range(300)]
    for _ in range(100):  # three real roots, and double or triple ones
        r1, r2 = rand_fraction(rng), rand_fraction(rng)
        r3 = rng.choice((r1, r2, rand_fraction(rng)))
        cubics.append(Polynomial([-r1, 1]) * Polynomial([-r2, 1]) * Polynomial([-r3, 1]))
    signs = set()
    for f in cubics:
        dep = depress(f)
        a, b = dep.poly[1], dep.poly[0]
        radicand = b * b / 4 + a * a * a / 27
        delta = discriminant_resultant(dep.poly)
        assert delta == -108 * radicand
        sign = (delta > 0) - (delta < 0)
        assert sign == -((radicand > 0) - (radicand < 0))
        signs.add(sign)
    assert signs == {-1, 0, 1}


small_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@settings(deadline=None, max_examples=300)
@given(
    lead=st.integers(-9, 9).filter(bool),
    shape=st.sampled_from(["distinct", "double", "triple", "quadratic"]),
    r=st.tuples(small_fractions, small_fractions, small_fractions),
)
def test_cardano_root_shape_follows_the_exact_discriminant(lead, shape, r):
    """Planted cubics: three real roots, a double or triple one, or a rational
    root times x^2 + p*x + q (a complex pair, an irrational pair, or a double
    root when p^2 = 4q).  A root is real when its imaginary part is exactly 0:
    all three are when the depressed discriminant is >= 0, one when it is < 0.
    At 0 each repeated root appears as often as its multiplicity, bit for
    bit.  sympy's exact roots check the values."""
    if shape == "quadratic":
        coeffs = convolve(expand_roots(r[:1], Fraction(lead)), [r[2], r[1], Fraction(1)])
    else:
        coeffs = expand_roots({"distinct": r, "double": r[:2] + r[:1], "triple": r[:1] * 3}[shape], Fraction(lead))
    f = Polynomial(coeffs)
    dep = depress(f)
    a, b = dep.poly[1], dep.poly[0]
    delta = -(4 * a**3 + 27 * b**2)
    found = solve_cubic_cardano(f).roots
    assert sum(z.imag == 0 for z in found) == (3 if delta >= 0 else 1)
    x = sympy.Symbol("x")
    exact = sympy.roots(sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x))
    if delta == 0:
        bits = [(z.real.hex(), z.imag.hex()) for z in found]
        assert sorted(bits.count(z) for z in set(bits)) == sorted(exact.values())
    unmatched = list(found)
    for root, mult in exact.items():
        want = complex(sympy.N(root, 30))
        for _ in range(mult):
            z = min(unmatched, key=lambda z: abs(z - want))
            assert abs(z - want) <= 1e-9 * (1 + abs(want))
            unmatched.remove(z)


def test_cardano_repeated_roots():
    out = solve_cubic_cardano(Polynomial([-1, 3, -3, 1]))  # (x-1)^3
    for z in out.roots:
        assert abs(z - 1) < 1e-6
    out = solve_cubic_cardano(Polynomial([0, 0, 0, 5]))  # 5x^3
    for z in out.roots:
        assert abs(z) < 1e-12


class CountingDerivative:
    """A polynomial that counts how often its derivative is taken."""

    def __init__(self, f):
        self.f, self.derivatives = f, 0

    @property
    def coeffs(self):
        return self.f.coeffs

    def derivative(self):
        self.derivatives += 1
        return self.f.derivative()


def test_newton_steps_stops_and_derivative_count():
    f = Polynomial([-2, 0, 1])  # x^2 - 2
    iterates, x = [], 1.0
    for _ in range(3):
        x = x - (x * x - 2) / (2 * x)
        iterates.append(x)
    assert _newton(f, [1.0], 3) == ([iterates[2]], [-2.0, 0.0, 1.0])
    assert _newton(f, [1.0], 1)[0] == [iterates[0]]
    # the residual test comes before each step: |f| at the second iterate is 1/144
    assert _newton(f, [1.0], 3, tol=0.01)[0] == [iterates[1]]
    assert _newton(f, [0.0, 0.0j], 3)[0] == [0.0, 0.0j]  # zero slope: no step
    z = _newton(Polynomial([1, 0, 1]), [complex(0.1, 1.1)], 3)[0][0]
    assert abs(z - 1j) < 1e-6

    g = CountingDerivative(f)
    assert _newton(g, [math.sqrt(2), -math.sqrt(2)], 3, tol=1e-12)[0] == [math.sqrt(2), -math.sqrt(2)]
    assert g.derivatives == 0  # points that meet tol need no derivative
    _newton(g, [1.0, -1.0, 3.0], 3)
    assert g.derivatives == 1  # once per call, shared by the points


def horner_per_call(f, x):
    """f at float or complex x, converting every coefficient on each call."""
    acc = 0.0 if not isinstance(x, complex) else complex(0.0)
    for c in reversed(f.coeffs):
        acc = acc * x + float(c)
    return acc


def newton_per_call(f, xs, steps, tol=None):
    """The Newton loop with a fresh float conversion at every evaluation."""
    df, out = f.derivative(), []
    for x in xs:
        for _ in range(steps):
            fx = horner_per_call(f, x)
            if tol is not None and abs(fx) <= tol:
                break
            slope = horner_per_call(df, x)
            if slope == 0:
                break
            x = x - fx / slope
        out.append(x)
    return out


def test_newton_is_bit_identical_to_per_call_conversion(rng):
    for k in range(300):
        f = Polynomial(rand_coeffs(rng, rng.randint(1, 6), -99, 99, 7))
        xs = [rng.uniform(-3, 3), complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), 0.0, complex(0.0)]
        tol = None if k % 2 else 1e-9 * (1 + f.norm_1())
        got, fs = _newton(f, xs, 3, tol)
        assert [x.hex() for x in fs] == [float(c).hex() for c in f.coeffs]
        want = newton_per_call(f, xs, 3, tol)
        assert [repr(z) for z in got] == [repr(z) for z in want]
        assert [repr(f(x)) for x in xs] == [repr(horner_per_call(f, x)) for x in xs]
        assert [type(z) for z in got] == [type(x) for x in xs]


def test_cardano_rejects_other_degrees():
    with pytest.raises(ValueError):
        solve_cubic_cardano(Polynomial([1, 0, 1]))


def test_roots_of_unity_small():
    assert roots_of_unity(1) == [1 + 0j]
    four = roots_of_unity(4)
    for got, want in zip(four, (1, 1j, -1, -1j)):
        assert abs(got - want) < 1e-12
    assert four[0] == 1 + 0j  # exactly


def test_roots_of_unity_are_cos_and_sin_of_the_angles():
    """de Moivre: the k-th root is cos(2*pi*k/n) + i*sin(2*pi*k/n), bit for bit
    and signed zeros included, so the first is exactly 1 + 0i."""
    for n in range(1, 200):
        thetas = [2.0 * math.pi * k / n for k in range(n)]
        want = [(math.cos(t).hex(), math.sin(t).hex()) for t in thetas]
        assert [(z.real.hex(), z.imag.hex()) for z in roots_of_unity(n)] == want


def test_roots_of_unity_matches_cubic_solver():
    by_solver = solve_cubic_cardano(Polynomial([-1, 0, 0, 1])).roots
    for z in roots_of_unity(3):
        assert min(abs(z - w) for w in by_solver) < 1e-12


def test_roots_of_unity_group_structure():
    for n in range(1, 13):
        zs = roots_of_unity(n)
        assert len(zs) == n
        for z in zs:
            assert abs(z**n - 1) < 1e-12
        # closure under multiplication
        for a in zs:
            for b in zs:
                assert min(abs(a * b - c) for c in zs) < 1e-9


def test_roots_of_unity_rejects_zero():
    with pytest.raises(ValueError):
        roots_of_unity(0)
