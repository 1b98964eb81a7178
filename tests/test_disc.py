from fractions import Fraction

import pytest

from klasika.disc import (
    SquareMatrix,
    determinant,
    discriminant_hankel,
    discriminant_resultant,
    has_repeated_roots,
    power_sums,
    resultant,
)
from klasika.exact import Polynomial, poly_gcd

from conftest import expand_roots, rand_coeffs, rand_fraction


def brute_force_pair_product(roots):
    """prod_(i>j) (r_i - r_j), straight from the definition."""
    out = Fraction(1)
    for i in range(len(roots)):
        for j in range(i):
            out *= roots[i] - roots[j]
    return out


def eq10_discriminant(roots, lead):
    """(-1)^(n(n-1)/2) * a_n^(2n-2) * prod_(i != j) (r_i - r_j)."""
    n = len(roots)
    prod = Fraction(1)
    for i in range(n):
        for j in range(n):
            if i != j:
                prod *= roots[i] - roots[j]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * lead ** (2 * n - 2) * prod


def test_determinant_identity():
    for n in (1, 2, 3, 5):
        assert determinant(SquareMatrix.identity(n)) == 1


def test_determinant_form_matrix(rng):
    for _ in range(50):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        m = SquareMatrix([[a, b / 2], [b / 2, c]])
        assert determinant(m) == a * c - b * b / 4


def test_determinant_vandermonde_nodes_1234():
    nodes = [Fraction(k) for k in (1, 2, 3, 4)]
    x = SquareMatrix([[node**i for node in nodes] for i in range(4)])
    expected = brute_force_pair_product(nodes)
    assert expected == 12
    assert determinant(x) == 12


def test_determinant_singular_and_pivoting():
    assert determinant([[0, 1], [0, 2]]) == 0
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 2, 1], [3, 0, 0], [0, 4, 2]]) == 0


def test_power_sums_root_oracle():
    f = Polynomial([2, -3, 1])  # roots 1, 2
    s = power_sums(f, 3)
    assert list(s) == [2, 3, 5, 9]


def test_power_sums_random_planted_roots(rng):
    for _ in range(40):
        roots = [rand_fraction(rng, -4, 4, 3) for _ in range(rng.randint(2, 5))]
        f = Polynomial(expand_roots(roots))
        s = power_sums(f, 7)
        for mu in range(8):
            assert s[mu] == sum(r**mu for r in roots)


def test_power_sums_vieta_shortcuts(rng):
    for _ in range(30):
        n = rng.randint(2, 6)
        f = Polynomial(rand_coeffs(rng, n - 1) + [Fraction(1)])
        s = power_sums(f, 1)
        assert s[0] == n
        assert s[1] == -f[n - 1]


def test_power_sums_errors():
    with pytest.raises(ValueError):
        power_sums(Polynomial(), 3)


def test_quadratic_discriminant_formula(rng):
    for _ in range(300):
        a = rand_fraction(rng, -9, 9, 4)
        while a == 0:
            a = rand_fraction(rng, -9, 9, 4)
        b, c = rand_fraction(rng), rand_fraction(rng)
        f = Polynomial([c, b, a])
        assert discriminant_resultant(f) == b * b - 4 * a * c


def test_cubic_discriminant_formula(rng):
    for _ in range(300):
        a = rand_fraction(rng, -9, 9, 4)
        while a == 0:
            a = rand_fraction(rng, -9, 9, 4)
        b, c, d = (rand_fraction(rng) for _ in range(3))
        f = Polynomial([d, c, b, a])
        expected = (
            b * b * c * c
            - 4 * a * c**3
            - 4 * b**3 * d
            - 27 * a * a * d * d
            + 18 * a * b * c * d
        )
        assert discriminant_resultant(f) == expected


def test_depressed_cubic_discriminant(rng):
    for _ in range(100):
        a, b = rand_fraction(rng), rand_fraction(rng)
        f = Polynomial([b, a, 0, 1])
        assert discriminant_resultant(f) == -4 * a**3 - 27 * b * b


def test_hankel_examples():
    assert discriminant_hankel(Polynomial([2, -3, 1])) == 1  # roots 1,2: (1-2)^2 = 1
    assert discriminant_hankel(Polynomial([1, 0, 1])) == -4  # matches b^2 - 4ac


def test_hankel_agrees_with_resultant(rng):
    for _ in range(200):
        n = rng.randint(2, 6)
        f = Polynomial([Fraction(rng.randint(-9, 9)) for _ in range(n)] + [Fraction(1)])
        assert discriminant_hankel(f) == discriminant_resultant(f)


def test_hankel_rescales_for_non_monic(rng):
    for _ in range(50):
        f = Polynomial(rand_coeffs(rng, rng.randint(2, 4)))
        assert discriminant_hankel(f) == discriminant_resultant(f)


def test_root_product_oracle(rng):
    for _ in range(60):
        n = rng.randint(2, 3)
        roots = [rand_fraction(rng, -4, 4, 2) for _ in range(n)]
        lead = rand_fraction(rng, 1, 4, 2)
        f = Polynomial(expand_roots(roots, lead))
        assert discriminant_resultant(f) == eq10_discriminant(roots, lead)


def test_resultant_detects_common_roots():
    assert resultant(Polynomial([-1, 0, 1]), Polynomial([1, 1])) == 0  # share root -1
    assert resultant(Polynomial([1, 0, 1]), Polynomial([1, 1])) != 0  # coprime


def test_has_repeated_roots_examples():
    f = Polynomial([-2, 1]) ** 4 * Polynomial([-3, 1]) ** 5
    assert has_repeated_roots(f) is True
    assert has_repeated_roots(Polynomial([-1, 0, 1])) is False
    assert has_repeated_roots(Polynomial([1, 2, 1])) is True
    assert has_repeated_roots(Polynomial([5, 1])) is False
    with pytest.raises(ValueError):
        has_repeated_roots(Polynomial())


def test_repeated_roots_matches_gcd_criterion(rng):
    for k in range(1000):
        f = Polynomial(rand_coeffs(rng, rng.randint(2, 5)))
        if k % 3 == 0:  # plant a square factor
            f = f * Polynomial(rand_coeffs(rng, 1)) ** 2
        by_disc = discriminant_resultant(f) == 0
        by_gcd = poly_gcd(f, f.derivative()).degree >= 1
        assert by_disc == by_gcd
        assert has_repeated_roots(f) == by_disc
    # high degrees, where the Sylvester matrices reach order 47
    for k, degree in enumerate((8, 11, 14, 17, 20, 24)):
        if k % 2:  # plant a square factor
            f = Polynomial(rand_coeffs(rng, degree - 4)) * Polynomial(rand_coeffs(rng, 2)) ** 2
        else:
            f = Polynomial(rand_coeffs(rng, degree))
        assert f.degree == degree
        by_gcd = poly_gcd(f, f.derivative()).degree >= 1
        assert by_gcd == bool(k % 2)
        assert has_repeated_roots(f) == by_gcd


def test_translation_invariance(rng):
    for _ in range(60):
        n = rng.randint(2, 5)
        f = Polynomial(rand_coeffs(rng, n - 1) + [Fraction(1)])
        c = rand_fraction(rng)
        assert discriminant_resultant(f.taylor_shift(c)) == discriminant_resultant(f)


def test_vandermonde_identity_on_rational_nodes(rng):
    for _ in range(30):
        nodes = []
        while len(nodes) < 4:
            v = rand_fraction(rng, -6, 6, 3)
            if v not in nodes:
                nodes.append(v)
        x = SquareMatrix([[node**i for node in nodes] for i in range(4)])
        det_x = determinant(x)
        f = Polynomial(expand_roots(nodes))
        s = power_sums(f, 6)
        hankel = [[s[i + j] for j in range(4)] for i in range(4)]
        assert det_x * det_x == determinant(hankel)
