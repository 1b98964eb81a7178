import math
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.polys.subresultants_qq_zz import sylvester

from klasika import disc
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

from conftest import (
    convolve,
    expand_roots,
    identity,
    one_step_symmetric_pivots,
    power,
    rand_coeffs,
    rand_fraction,
)


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
        assert determinant(SquareMatrix(identity(n))) == 1


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


@pytest.fixture
def repivots(monkeypatch):
    """Counts of the symmetric swaps and congruence steps `disc._repivot` takes."""
    counts = Counter()
    repivot = disc._repivot

    def counted(u, r):
        if any(u[s][0] for s in range(r + 1, len(u))):
            counts["swap"] += 1
        elif any(u[r]):
            counts["congruence"] += 1
        done = repivot(u, r)
        assert u[r][0] if done else not any(u[r])
        return done

    monkeypatch.setattr(disc, "_repivot", counted)
    return counts


def block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row
        at += len(b)
    return out


def symmetric_matrices():
    """(rank, matrix): symmetric integer matrices of order 1-10 and every rank,
    each also with a zeroed diagonal and with a zeroed leading entry."""
    hyperbolic = [[0, 1], [1, 0]]
    for k in range(1, 6):
        yield 2 * k, block_sum(*[hyperbolic] * k)
    yield 3, block_sum(hyperbolic, [[0]], [[2]])
    yield 3, block_sum([[0]], hyperbolic, [[5]])
    for v in (0, 1, -7):
        yield int(v != 0), [[v]]
    rng = random.Random(1414)
    for n in range(1, 11):
        for rank in range(n + 1):
            for variant in ("plain", "zero diagonal", "zero leading entry"):
                b = [[rng.choice([0, 0, 1, -1, 2, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(rank)]
                signs = [rng.choice([-1, 1]) for _ in range(rank)]
                a = [[sum(b[t][i] * signs[t] * b[t][j] for t in range(rank)) for j in range(n)] for i in range(n)]
                if variant == "zero diagonal":
                    for i in range(n):
                        a[i][i] = 0
                elif variant == "zero leading entry":
                    a[0][0] = 0
                yield sympy.Matrix(a).rank(), a


def leading_minors(rows) -> list[int]:
    """The leading principal minors of an integer matrix, by sympy."""
    return [
        DomainMatrix([[sympy.ZZ(v) for v in row[:k]] for row in rows[:k]], (k, k), sympy.ZZ).det()
        for k in range(1, len(rows) + 1)
    ]


def assert_pivots_are_leading_minors(pivots, minors, a) -> int:
    """Until the first zero leading minor no pivot is replaced, so with
    extra = a**2 pivot k is minor k over a**((k-1)(k-2)); returns how many
    pivots that checks."""
    m = next((k for k, v in enumerate(minors) if not v), len(minors))
    assert [p * a ** (k * (k - 1)) for k, p in enumerate(pivots[:m])] == minors[:m]
    return m


def test_symmetric_pivots_match_determinant_and_rank(repivots):
    singular_ranks = {n: set() for n in range(1, 11)}
    checked = []
    for rank, a in symmetric_matrices():
        pivots = disc._symmetric_pivots(a, 1)
        assert len(pivots) == rank and all(pivots)
        assert (pivots[-1] if rank == len(a) else 0) == determinant(a)
        assert pivots == one_step_symmetric_pivots(a, 1)
        checked.append(assert_pivots_are_leading_minors(pivots, leading_minors(a), 1))
        if rank < len(a):
            singular_ranks[len(a)].add(rank)
    assert all(ranks == set(range(n)) for n, ranks in singular_ranks.items())
    assert sum(k >= 4 for k in checked) >= 20  # two full two-row steps checked by the minors
    assert repivots["swap"] >= 10
    assert repivots["congruence"] >= 10


# the bordered matrix of `classify-conic 1,2,1,1,0,1`: its first pivot is 2 but
# its leading 2x2 minor is 0
ZERO_LEADING_2X2_MINOR = [[2, 2, 1], [2, 2, 0], [1, 0, -2]]


@pytest.mark.parametrize(
    "a, one_row_steps",
    [
        (ZERO_LEADING_2X2_MINOR, [0]),
        (block_sum([[1, 1], [1, 3]], ZERO_LEADING_2X2_MINOR), [2]),
        (block_sum(ZERO_LEADING_2X2_MINOR, ZERO_LEADING_2X2_MINOR), [0, 3]),
    ],
)
def test_a_zero_leading_2x2_minor_takes_one_row_and_then_a_swap(a, one_row_steps, monkeypatch):
    # the step from r to r + 2 needs the next pivot nonzero; here it is 0 at
    # each r of one_row_steps, so one row is eliminated and row r + 1 repivoted
    repivoted_at = []
    repivot = disc._repivot

    def spy(u, r):
        repivoted_at.append(r)
        return repivot(u, r)

    monkeypatch.setattr(disc, "_repivot", spy)
    pivots = disc._symmetric_pivots(a, 1)
    assert repivoted_at == [r + 1 for r in one_row_steps]
    assert pivots == one_step_symmetric_pivots(a, 1)
    assert len(pivots) == len(a) and pivots[-1] == determinant(a)


@settings(deadline=None)
@given(
    coeffs=st.integers(2, 40).flatmap(
        lambda n: st.lists(
            st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(1 << 20), 1 << 20)), min_size=n, max_size=n
        )
    ),
    lead=st.integers(2, 1 << 20),
    sign=st.sampled_from([-1, 1]),
)
def test_hankel_pivots_equal_the_one_step_reference_and_the_leading_minors(coeffs, lead, sign):
    # [T_(i+j)] of a non-monic f of degree 2-40, eliminated with extra = a**2;
    # sympy's minors check the first 12 pivots
    a, n = sign * lead, len(coeffs)
    t = disc._power_sums_z(coeffs + [a], 2 * n - 2)
    rows = [t[i : i + n] for i in range(n)]
    pivots = disc._symmetric_pivots(rows, a * a)
    assert pivots == one_step_symmetric_pivots(rows, a * a)
    assert_pivots_are_leading_minors(pivots, leading_minors([row[:12] for row in rows[:12]]), a)


def newton_power_sums_over_q(f: Polynomial, m: int) -> list[Fraction]:
    """S_0 ... S_m by Newton's identities on the monic form of f, over Q."""
    g = f.monic()
    n = g.degree
    sigma = [Fraction(0)] + [(-1) ** v * g[n - v] for v in range(1, n + 1)]
    s = [Fraction(n)]
    for k in range(1, m + 1):
        acc = Fraction(0)
        for v in range(1, min(k, n) + 1):
            term = sigma[v] * (v if v == k else s[k - v])
            acc += term if v % 2 == 1 else -term
        s.append(acc)
    return s


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


def test_power_sums_match_newton_over_q():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(1, 24)
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(2, 1 << 20), rng.randint(1, 9))
        if seed % 3 == 0:  # integer coefficients
            f = Polynomial([rng.randint(-(1 << 20), 1 << 20) for _ in range(n)] + [lead.numerator])
        else:
            f = Polynomial(rand_coeffs(rng, n - 1, -999, 999, 64) + [lead])
        m = rng.randint(0, 2 * n)
        assert list(power_sums(f, m)) == newton_power_sums_over_q(f, m)


def test_power_sums_errors():
    with pytest.raises(ValueError):
        power_sums(Polynomial(), 3)
    with pytest.raises(ValueError, match="m must be >= 0"):
        power_sums(Polynomial([2, -3, 1]), -1)


@pytest.mark.parametrize("f", [Polynomial(), Polynomial([7]), Polynomial([1, 2])])
def test_both_discriminant_routes_refuse_degree_below_2(f):
    for route in (discriminant_resultant, discriminant_hankel):
        with pytest.raises(ValueError, match="discriminant requires degree >= 2"):
            route(f)


@pytest.mark.parametrize("rows", [[], [[]], [[1, 2], [3]], [[1, 2]], [[1], [2]]])
def test_square_matrix_refuses_a_ragged_or_empty_matrix(rows):
    with pytest.raises(ValueError, match="matrix must be square and non-empty"):
        SquareMatrix(rows)


def test_equal_square_matrices_hash_alike():
    m = SquareMatrix([[1, "1/2"], [Fraction(1, 2), 3]])
    same = SquareMatrix([[Fraction(2, 2), Fraction(1, 2)], [Fraction(1, 2), 3]])
    assert m == same and hash(m) == hash(same) and len({m, same}) == 1
    assert m != SquareMatrix([[1, 0], [0, 3]]) and m != m.rows


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
    # non-monic, 40-bit coefficients
    for seed in range(24):
        rng = random.Random(seed)
        n = rng.randint(2, 12)
        coeffs = [rng.randint(-(1 << 40), 1 << 40) for _ in range(n)]
        lead = rng.choice([-1, 1]) * rng.randint(2, 1 << 40)
        f = Polynomial(coeffs + [lead])
        assert discriminant_hankel(f) == discriminant_resultant(f)
        g = Polynomial([Fraction(c, rng.randint(1, 999)) for c in coeffs] + [lead])
        assert discriminant_hankel(g) == discriminant_resultant(g)


def hankel_after_determinant(f: Polynomial) -> Fraction:
    """det [T_(i+j)] / (a**((n-1)(n-2)) * d**(2n-2)), with the whole power of a
    divided out after the determinant: T_k = a**k * S_k for F = d * f over Z
    and a its leading coefficient, the power sums S_k taken over Q."""
    n = f.degree
    d = math.lcm(*(c.denominator for c in f.coeffs))
    a = d * f.leading_coefficient
    t = [a**k * s for k, s in enumerate(newton_power_sums_over_q(f, 2 * n - 2))]
    assert all(v.denominator == 1 for v in t)
    return determinant([t[i : i + n] for i in range(n)]) / (a ** ((n - 1) * (n - 2)) * d ** (2 * n - 2))


def hankel_inputs():
    """(kind, f) at degrees 2-16, with leading coefficients of up to 40 bits
    over denominators up to 999: dense, sparse (at least half the
    coefficients zero) and with a planted repeated root."""
    for seed in range(120):
        rng = random.Random(4000 + seed)
        n = rng.randint(2, 16)
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 1 << rng.choice([1, 8, 20, 40])), rng.choice([1, 3, 999]))
        kind = ("dense", "sparse", "sparse", "repeated")[seed % 4]
        if kind == "dense":
            coeffs = [Fraction(rng.randint(-(1 << 20), 1 << 20), rng.randint(1, 99)) for _ in range(n)]
            f = Polynomial(coeffs + [lead])
        elif kind == "sparse":
            coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(n)]
            for i in rng.sample(range(n), (n + 2) // 2):  # at least half of all n + 1
                coeffs[i] = 0
            f = Polynomial(coeffs + [lead])
            assert sum(c == 0 for c in f.coeffs) >= (n + 1) / 2
        else:
            square = power(Polynomial([rng.randint(-9, 9), rng.randint(1, 9)]), 2)
            rest = Polynomial([Fraction(rng.randint(-999, 999), rng.randint(1, 9)) for _ in range(n - 2)] + [lead])
            f = square * rest
        assert f.degree == n
        yield kind, f
    # a * (x^m - c) * (x^k + e): roots on two circles about 0, in complex-conjugate
    # pairs, and in sign-alternating pairs +-r where m or k is even
    for seed in range(40):
        rng = random.Random(6000 + seed)
        m, k = rng.randint(2, 10), rng.randint(1, 6)
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(2, 1 << rng.choice([8, 20, 40])), rng.choice([1, 3, 999]))
        c, e = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 9)) for _ in range(2))
        yield "circle", Polynomial([-c] + [0] * (m - 1) + [lead]) * Polynomial([e] + [0] * (k - 1) + [1])


def test_hankel_matches_sympy_and_the_determinant_formula(repivots):
    swapped = 0
    for kind, f in hankel_inputs():
        expected = as_fraction(sympy.discriminant(sympy_poly(f)))
        assert discriminant_hankel(f) == expected
        assert hankel_after_determinant(f) == expected
        assert discriminant_resultant(f) == expected
        if kind == "repeated":
            assert expected == 0
        # a zero leading principal minor of the Hankel matrix forces a repivot
        s = newton_power_sums_over_q(f, 2 * f.degree - 2)
        minors = [determinant([s[i : i + k] for i in range(k)]) for k in range(1, f.degree)]
        swapped += expected != 0 and 0 in minors
    assert swapped >= 10
    assert repivots["swap"] >= 10
    assert repivots["congruence"] >= 10


repeated_roots = st.lists(
    st.tuples(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)), st.integers(1, 3)),
    max_size=7,
    unique_by=lambda t: t[0],
)
# x^2 + p*x + q with p^2 - 4q not a square: complex or irrational real roots
irreducible_quadratics = st.tuples(st.integers(-9, 9), st.integers(-40, 40)).filter(
    lambda t: t[0] ** 2 - 4 * t[1] < 0 or math.isqrt(t[0] ** 2 - 4 * t[1]) ** 2 != t[0] ** 2 - 4 * t[1]
)


@settings(deadline=None)
@given(
    roots=repeated_roots,
    quadratic=irreducible_quadratics,
    lead=st.builds(Fraction, st.integers(-(1 << 40), 1 << 40).filter(bool), st.integers(1, 999)),
)
def test_both_routes_match_sympy_on_planted_roots(roots, quadratic, lead):
    planted = expand_roots([r for r, m in roots for _ in range(m)], lead)
    f = Polynomial(convolve(planted, [Fraction(quadratic[1]), Fraction(quadratic[0]), Fraction(1)]))
    assert 2 <= f.degree <= 24
    expected = as_fraction(sympy.discriminant(sympy_poly(f)))
    assert discriminant_hankel(f) == expected
    assert discriminant_resultant(f) == expected
    assert (expected == 0) == any(m > 1 for _, m in roots)


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


def sympy_poly(p: Polynomial) -> sympy.Poly:
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x, domain="QQ")


def as_fraction(r) -> Fraction:
    r = sympy.Rational(r)
    return Fraction(int(r.p), int(r.q))


def sympy_resultant(f: Polynomial, g: Polynomial) -> Fraction:
    """sympy's resultant, for deg f >= deg g only: when deg f < deg g and both
    are odd, sympy 1.14 returns -Res(f, g) (x - 3 and x^3 + x + 5 give -35,
    where its own `sylvester(f, g, x).det()` gives 35)."""
    assert f.degree >= g.degree
    return as_fraction(sympy.resultant(sympy_poly(f), sympy_poly(g)))


def sympy_sylvester(f: Polynomial, g: Polynomial) -> list[list[Fraction]]:
    """The Sylvester matrix of f and g, built by sympy.  Its determinant has
    the sign of Res(f, g) for constants and odd degrees too: x - 3 and
    x^3 + x + 5 give 35, and the swapped pair -35."""
    x = sympy.Symbol("x")
    m = sylvester(sympy_poly(f).as_expr(), sympy_poly(g).as_expr(), x)
    return [[as_fraction(v) for v in row] for row in m.tolist()]


def remainder_degrees(f: Polynomial, g: Polynomial) -> list[int]:
    """Degrees of the Euclidean remainder sequence f, g, f mod g, ... over Q."""
    if f.degree < g.degree:
        f, g = g, f
    out = [f.degree]
    while not g.is_zero:
        out.append(g.degree)
        f, g = g, f % g
    return out


def check_resultant(f: Polynomial, g: Polynomial) -> Fraction:
    """Res(f, g) against the determinant of sympy's Sylvester matrix, sympy's
    resultant and the swap sign."""
    res, swapped = resultant(f, g), resultant(g, f)
    assert res == determinant(sympy_sylvester(f, g))
    assert swapped == determinant(sympy_sylvester(g, f))
    assert swapped == (-1) ** (f.degree * g.degree) * res
    if f.degree >= g.degree:
        assert res == sympy_resultant(f, g)
    else:
        assert swapped == sympy_resultant(g, f)
    return res


def random_poly(rng: random.Random, degree: int, sparse: float = 0.0, bits: int = 8) -> Polynomial:
    """Random coefficients, a share `sparse` of them zero below the top, and
    a leading coefficient that is negative, non-unit or fractional in turn."""
    coeffs = [
        Fraction(rng.randint(-(1 << bits), 1 << bits), rng.choice([1, 1, 2, 3])) if rng.random() >= sparse else 0
        for _ in range(degree)
    ]
    lead = [Fraction(-1), Fraction(-rng.randint(2, 99)), Fraction(rng.randint(2, 99)), Fraction(rng.randint(1, 99), rng.randint(2, 9))]
    return Polynomial(coeffs + [lead[degree % 4]])


def test_resultant_defective_prs_gaps():
    gaps = 0
    for seed in range(80):
        rng = random.Random(seed)
        f = random_poly(rng, rng.randint(2, 24), sparse=0.85)
        g = random_poly(rng, rng.randint(1, f.degree), sparse=0.85)
        degrees = remainder_degrees(f, g)
        gaps += any(a - b >= 2 for a, b in zip(degrees[1:], degrees[2:]))
        check_resultant(f, g)
    assert gaps >= 20  # the sparse inputs reach remainder sequences with degree gaps >= 2


def test_resultant_dense_up_to_degree_24():
    for seed in range(40):
        rng = random.Random(1000 + seed)
        f = random_poly(rng, rng.randint(1, 24), bits=20)
        g = random_poly(rng, rng.randint(1, 24), bits=20)
        assert check_resultant(f, g) != 0  # random pairs are coprime
    # equal degrees, where the first pseudo-division has no gap
    f, g = Polynomial([3, -1, 4, -2]), Polynomial([Fraction(1, 2), 5, 0, -7])
    check_resultant(f, g)


def test_resultant_planted_common_factor_is_zero():
    for seed in range(40):
        rng = random.Random(2000 + seed)
        common = random_poly(rng, rng.randint(1, 6))
        f = common * random_poly(rng, rng.randint(0, 12), sparse=0.5)
        g = common * random_poly(rng, rng.randint(0, 12), sparse=0.5)
        assert check_resultant(f, g) == 0


def test_resultant_of_a_constant():
    rng = random.Random(3000)
    for c in (Fraction(1), Fraction(-1), Fraction(7), Fraction(-3, 4), Fraction(10**30, 7)):
        for degree in (1, 2, 5, 13, 24):
            g = random_poly(rng, degree, sparse=0.3)
            assert check_resultant(Polynomial([c]), g) == c**degree
            assert resultant(g, Polynomial([c])) == c**degree


def test_discriminant_resultant_matches_res_f_fprime_and_sympy():
    """The route takes Res(F, F') over Z for F = d * f; it must equal
    (-1)**(n(n-1)/2) * Res(f, f') / a_n over Q, and sympy's discriminant,
    for non-monic inputs with denominators and with repeated roots."""
    for seed in range(60):
        rng = random.Random(4000 + seed)
        f = random_poly(rng, rng.randint(2, 16), sparse=rng.choice([0.0, 0.6]), bits=rng.choice([4, 30]))
        if seed % 5 == 0:  # a planted square factor: the discriminant is 0
            g = random_poly(rng, rng.randint(1, 3))
            f = f * g * g
        n = f.degree
        over_q = (-1) ** (n * (n - 1) // 2) * resultant(f, f.derivative()) / f.leading_coefficient
        expected = as_fraction(sympy.discriminant(sympy_poly(f)))
        assert discriminant_resultant(f) == over_q == expected
        assert expected == 0 or seed % 5


def test_resultant_sign_at_odd_degrees():
    f, g = Polynomial([-3, 1]), Polynomial([5, 1, 0, 1])  # x - 3 and x^3 + x + 5
    assert check_resultant(f, g) == 35 == g(3)
    assert resultant(g, f) == -35


def test_resultant_errors():
    with pytest.raises(ValueError, match="requires nonzero polynomials"):
        resultant(Polynomial(), Polynomial([1, 1]))
    with pytest.raises(ValueError, match="requires nonzero polynomials"):
        resultant(Polynomial([1, 1]), Polynomial())
    with pytest.raises(ValueError, match=r"requires deg f \+ deg g >= 1"):
        resultant(Polynomial([2]), Polynomial([3]))


def test_has_repeated_roots_examples():
    f = power(Polynomial([-2, 1]), 4) * power(Polynomial([-3, 1]), 5)
    assert has_repeated_roots(f) is True
    assert has_repeated_roots(Polynomial([-1, 0, 1])) is False
    assert has_repeated_roots(Polynomial([1, 2, 1])) is True
    assert has_repeated_roots(Polynomial([5, 1])) is False
    with pytest.raises(ValueError):
        has_repeated_roots(Polynomial())
    with pytest.raises(ValueError, match="requires degree >= 1"):
        has_repeated_roots(Polynomial([5]))


def test_repeated_roots_matches_gcd_criterion(rng, monkeypatch):
    for k in range(1000):
        f = Polynomial(rand_coeffs(rng, rng.randint(2, 5)))
        if k % 3 == 0:  # plant a square factor
            f = f * power(Polynomial(rand_coeffs(rng, 1)), 2)
        by_disc = discriminant_resultant(f) == 0
        by_gcd = poly_gcd(f, f.derivative()).degree >= 1
        assert by_disc == by_gcd
        assert has_repeated_roots(f) == by_disc
    # high degrees, where the Sylvester matrices reach order 47
    for k, degree in enumerate((8, 11, 14, 17, 20, 24)):
        if k % 2:  # plant a square factor
            f = Polynomial(rand_coeffs(rng, degree - 4)) * power(Polynomial(rand_coeffs(rng, 2)), 2)
        else:
            f = Polynomial(rand_coeffs(rng, degree))
        assert f.degree == degree
        by_gcd = poly_gcd(f, f.derivative()).degree >= 1
        assert by_gcd == bool(k % 2)
        assert has_repeated_roots(f) == by_gcd
    # squarefree mod 32749 proves "no repeated root" only when 32749 does not
    # divide the leading coefficient: (32749x - 1)^2 (x - 2) is x - 2 mod 32749,
    # and (x - 1)(x - 32750), squarefree over Q, is (x - 1)^2 mod 32749.  Both
    # are answered by gcd(f, f') over Z, alone or beside x^2 + 1; x^2 - 2 is not.
    calls, gcd_route = [], disc._gcd_z
    monkeypatch.setattr(disc, "_gcd_z", lambda f, g: calls.append((f, g)) or gcd_route(f, g))
    cases = [
        (power(Polynomial([-1, 32749]), 2) * Polynomial([-2, 1]), True, True),
        (Polynomial([-1, 1]) * Polynomial([-32750, 1]), False, True),
        (Polynomial([-2, 0, 1]), False, False),
    ]
    for f, repeated, by_gcd in cases:
        for g in (f, f * Polynomial([1, 0, 1])):
            calls.clear()
            assert (poly_gcd(g, g.derivative()).degree >= 1) is repeated
            assert (discriminant_resultant(g) == 0) is repeated
            assert has_repeated_roots(g) is repeated
            ints = [int(c) for c in g]
            assert calls == ([(ints, [k * c for k, c in enumerate(ints)][1:])] if by_gcd else [])


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
