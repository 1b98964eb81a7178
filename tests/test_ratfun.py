import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from klasika.exact import Polynomial, rational_roots
from klasika.ratfun import (
    ArctanTerm,
    ConicParam,
    LogAbs,
    LogQuadratic,
    PartialFractions,
    PowerTerm,
    SymbolicAntiderivative,
    UnsupportedFactorizationError,
    adaptive_simpson,
    ellipse_area,
    ellipse_perimeter,
    factor_real,
    integrate_rational,
    partial_fractions,
)

from conftest import expand_factors, power, rand_fraction, recombine, same_ratio


def recombines_to(pf: PartialFractions, p: Polynomial, q: Polynomial) -> bool:
    """pf's terms, multiplied out on plain coefficient lists, equal p/q."""
    return same_ratio(*recombine(pf.polynomial_part.coeffs, pf.linear_terms, pf.quadratic_terms), p.coeffs, q.coeffs)


def rand_supported_denominator(rng, max_deg=5):
    """Random q that factors over Q into linears and one optional quadratic."""
    q = Polynomial([rand_fraction(rng, 1, 5, 2)])
    roots = []
    while q.degree < max_deg - 2 and rng.random() < 0.75:
        r = rand_fraction(rng, -4, 4, 2)
        if roots.count(r) < 3:
            roots.append(r)
            q = q * Polynomial([-r, 1])
    if q.degree + 2 <= max_deg and rng.random() < 0.6:
        p = rand_fraction(rng, -3, 3, 2)
        q0 = p * p / 4 + abs(rand_fraction(rng, 1, 4, 2))  # forces p^2 - 4q < 0
        q = q * Polynomial([q0, p, 1])
    if q.degree == 0:
        q = q * Polynomial([-rand_fraction(rng, -4, 4, 2), 1])
    return q


# -- factor_real -------------------------------------------------------------------


def test_factor_real_worked_example():
    fr = factor_real(Polynomial([0, 4, 0, 1]))  # x^3 + 4x = x (x^2 + 4)
    assert fr.constant == 1
    assert fr.linear_factors == ((Fraction(0), 1),)
    assert fr.quadratic_factors == ((Fraction(0), Fraction(4), 1),)


def test_factor_real_two_linear():
    fr = factor_real(Polynomial([-1, 0, 1]))
    assert fr.linear_factors == ((Fraction(-1), 1), (Fraction(1), 1))
    assert fr.quadratic_factors == ()


def test_factor_real_unsupported_quartic():
    with pytest.raises(UnsupportedFactorizationError) as err:
        factor_real(Polynomial([1, 0, 0, 0, 1]))  # x^4 + 1
    assert err.value.residual is not None


def test_factor_real_irrational_quadratic_unsupported():
    with pytest.raises(UnsupportedFactorizationError):
        factor_real(Polynomial([-2, 0, 1]))  # x^2 - 2


def test_factor_real_refuses_zero():
    with pytest.raises(ValueError, match="cannot factor the zero polynomial"):
        factor_real(Polynomial())


def test_factor_real_repeated_quadratic_detected():
    q = power(Polynomial([1, 0, 1]), 2)
    fr = factor_real(q)
    assert fr.quadratic_factors == ((Fraction(0), Fraction(1), 2),)


def test_factor_real_roundtrip(rng):
    for _ in range(60):
        q = rand_supported_denominator(rng)
        fr = factor_real(q)
        assert expand_factors(fr.constant, fr.linear_factors, fr.quadratic_factors) == list(q.coeffs)


# -- partial fractions --------------------------------------------------------------


def test_partial_fractions_worked_example():
    pf = partial_fractions(Polynomial([4, -1, 2]), Polynomial([0, 4, 0, 1]))
    assert pf.polynomial_part.is_zero
    assert pf.linear_terms == ((Fraction(1), Fraction(0), 1),)  # A = 1 over x
    assert pf.quadratic_terms == ((Fraction(1), Fraction(-1), Fraction(0), Fraction(4)),)  # B=1, C=-1


def test_partial_fractions_polynomial_part():
    pf = partial_fractions(Polynomial([1, 0, 1]), Polynomial([0, 1]))  # (x^2+1)/x
    assert pf.polynomial_part == Polynomial([0, 1])
    assert pf.linear_terms == ((Fraction(1), Fraction(0), 1),)


def test_partial_fractions_repeated_linear():
    q = power(Polynomial([-1, 1]), 2) * Polynomial([2, 1])
    pf = partial_fractions(Polynomial([1]), q)
    terms = {(r, k): a for a, r, k in pf.linear_terms}
    # solved by hand: 1/((x-1)^2 (x+2)) = -1/9/(x-1) + 1/3/(x-1)^2 + 1/9/(x+2)
    assert terms[(Fraction(1), 1)] == Fraction(-1, 9)
    assert terms[(Fraction(1), 2)] == Fraction(1, 3)
    assert terms[(Fraction(-2), 1)] == Fraction(1, 9)


def test_partial_fractions_rejects_repeated_quadratic():
    q = power(Polynomial([1, 0, 1]), 2)
    with pytest.raises(UnsupportedFactorizationError):
        partial_fractions(Polynomial([1]), q)


def test_partial_fractions_recombination_identity(rng):
    for _ in range(60):
        q = rand_supported_denominator(rng)
        p = Polynomial([rand_fraction(rng) for _ in range(rng.randint(1, q.degree + 3))])
        if p.is_zero:
            p = Polynomial([1])
        pf = partial_fractions(p, q)
        assert recombines_to(pf, p, q)


# -- partial fractions: differential oracles ---------------------------------------------


def gauss_jordan(rows, rhs):
    """The solution of a nonsingular square system, by Gauss-Jordan over
    Fractions: the oracle shares no elimination code with klasika."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if a[i][col])
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        top = a[col] = [v / p for v in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], top)]
    return [row[n] for row in a]


def coefficient_matching(p, q):
    """The classical decomposition, kept as an oracle: one unknown per term,
    its column the cofactor q/(x-r)^k, x*q/Q or q/Q, and one dense solve."""
    fact = factor_real(q)
    poly_part, rem = divmod(p, q)
    if rem.is_zero:
        return PartialFractions(poly_part, (), ())
    rem = rem * (1 / fact.constant)
    monic_q = q.monic()
    cols, labels = [], []
    for root, mult in fact.linear_factors:
        for k in range(1, mult + 1):
            cols.append(monic_q // power(Polynomial([-root, 1]), k))
            labels.append((root, k))
    for pp, qq, _ in fact.quadratic_factors:
        cofactor = monic_q // Polynomial([qq, pp, 1])
        cols += [cofactor * Polynomial([0, 1]), cofactor]
    n = monic_q.degree
    solution = gauss_jordan([[col[i] for col in cols] for i in range(n)], [rem[i] for i in range(n)])
    linear = tuple((a, root, k) for a, (root, k) in zip(solution, labels) if a != 0)
    rest = solution[len(labels):]
    quadratic = tuple(
        (rest[2 * i], rest[2 * i + 1], pp, qq) for i, (pp, qq, _) in enumerate(fact.quadratic_factors)
    )
    return PartialFractions(poly_part, linear, quadratic)


def rand_root(rng):
    if rng.random() < 0.25:  # large denominators, e.g. 7/64
        return Fraction(rng.randint(-40, 40), rng.choice((7, 64, 81, 125, 1024)))
    return rand_fraction(rng, -12, 12, 6)


def rand_decomposable(rng, max_deg=24, max_quads=1):
    """(lead, {root: multiplicity <= 4}, [(p, q)] with x^2+p*x+q irreducible):
    up to max_quads distinct quadratics, total degree at most max_deg."""
    lead = rand_fraction(rng, 1, 9, 4) * rng.choice((1, -1))
    quads = set()
    for _ in range(rng.choice(range(max_quads + 1))):
        pp = rand_fraction(rng, -6, 6, 3)
        quads.add((pp, pp * pp / 4 + rand_fraction(rng, 1, 9, 5)))
    target = rng.randint(max(1, 2 * len(quads)), max_deg)
    roots: dict[Fraction, int] = {}
    while sum(roots.values()) + 2 * len(quads) < target:
        left = target - sum(roots.values()) - 2 * len(quads)
        roots.setdefault(rand_root(rng), min(rng.randint(1, 4), left))
    return lead, roots, sorted(quads)


def build(lead, roots, quads, drop_root=None, drop_quad=None):
    """lead * prod (x-r)^m * prod Q, by multiplication only, leaving out
    (x-r)^k for drop_root = (r, k) and Q for drop_quad = (p, q)."""
    out = Polynomial([lead])
    for r, m in roots.items():
        out = out * power(Polynomial([-r, 1]), m - drop_root[1] if drop_root and drop_root[0] == r else m)
    for pq in quads:
        if pq != drop_quad:
            out = out * Polynomial([pq[1], pq[0], 1])
    return out


def rand_numerator(rng, q):
    p = Polynomial([rand_fraction(rng) for _ in range(rng.randint(1, q.degree + 5))])
    return p if not p.is_zero else Polynomial([1])


def outcome(decompose, p, q):
    try:
        return decompose(p, q)
    except UnsupportedFactorizationError as err:
        return str(err), err.residual


def test_partial_fractions_matches_coefficient_matching(rng):
    refused = 0
    for _ in range(150):
        lead, roots, quads = rand_decomposable(rng, max_quads=2)
        q = build(lead, roots, quads)
        p = rand_numerator(rng, q)
        got = outcome(partial_fractions, p, q)
        assert got == outcome(coefficient_matching, p, q), (p, q)
        # two simple quadratics reach the squarefree split as one quartic piece
        if len(quads) == 2:
            assert got[1] == build(1, {}, quads)
            refused += 1
    assert refused > 0


def test_partial_fractions_recovers_planted_terms(rng):
    """p is built from chosen terms, many of them zero; by uniqueness the
    decomposition returns exactly the nonzero linear terms, and every
    quadratic term, zero or not."""
    for _ in range(60):
        lead, roots, quads = rand_decomposable(rng)
        q = build(lead, roots, quads)
        poly_part = Polynomial([rand_fraction(rng) for _ in range(rng.randint(0, 3))])
        p = poly_part * q
        linear, quadratic = [], []
        for r in sorted(roots):
            for k in range(1, roots[r] + 1):
                a = rand_fraction(rng) if rng.random() < 0.6 else Fraction(0)
                p = p + a * build(lead, roots, quads, drop_root=(r, k))
                if a != 0:
                    linear.append((a, r, k))
        for pq in quads:
            b, c = [rand_fraction(rng) if rng.random() < 0.7 else Fraction(0) for _ in range(2)]
            p = p + Polynomial([c, b]) * build(lead, roots, quads, drop_quad=pq)
            quadratic.append((b, c) + pq)
        if p.is_zero:
            continue
        if not linear and all(t[:2] == (0, 0) for t in quadratic):
            quadratic = []  # q divides p: no fractional part at all
        pf = partial_fractions(p, q)
        assert pf == PartialFractions(poly_part, tuple(linear), tuple(quadratic)), (p, q)


def to_fraction(v) -> Fraction:
    v = sympy.Rational(v)
    return Fraction(int(v.p), int(v.q))


def apart_terms(p, q):
    """sympy's `apart` of p/q as (polynomial part, linear terms, quadratic terms),
    each factor made monic so the terms compare with ours."""
    x = sympy.Symbol("x")

    def as_expr(f):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(f.coeffs))

    poly_part, linear, quadratic = sympy.Integer(0), [], []
    for term in sympy.Add.make_args(sympy.apart(as_expr(p) / as_expr(q), x)):
        num, den = sympy.fraction(sympy.together(term))
        if not den.has(x):
            poly_part += term
            continue
        const, [(base, k)] = sympy.factor_list(den, x)
        num = sympy.Poly(num, x) * (1 / (const * sympy.Poly(base, x).LC() ** k))
        base = sympy.Poly(base, x).monic().all_coeffs()[::-1]
        coeffs = [to_fraction(c) for c in num.all_coeffs()[::-1]] + [Fraction(0)]
        if len(base) == 2:
            linear.append((coeffs[0], -to_fraction(base[0]), k))
        else:
            quadratic.append((coeffs[1], coeffs[0], to_fraction(base[1]), to_fraction(base[0])))
    poly_coeffs = sympy.Poly(poly_part, x).all_coeffs()[::-1]
    return Polynomial([to_fraction(c) for c in poly_coeffs]), sorted(linear, key=lambda t: t[1:]), sorted(quadratic, key=lambda t: t[2:])


def test_partial_fractions_against_sympy_apart(rng):
    for _ in range(25):
        lead, roots, quads = rand_decomposable(rng, max_deg=12)
        q = build(lead, roots, quads)
        p = rand_numerator(rng, q)
        pf = partial_fractions(p, q)
        poly_part, linear, quadratic = apart_terms(p, q)
        assert pf.polynomial_part == poly_part
        assert sorted(pf.linear_terms, key=lambda t: t[1:]) == linear
        assert [t for t in pf.quadratic_terms if t[:2] != (0, 0)] == quadratic


def test_partial_fractions_large_denominator_roots():
    r, s = Fraction(7, 64), Fraction(-5, 1024)
    q = power(Polynomial([-r, 1]), 3) * Polynomial([-64 * s, 64]) * Polynomial([3, 1, 1]) * Fraction(1, 3)
    p = Polynomial([1, -2, 0, 5, 0, 0, 0, 0, 7])  # degree 8 > deg q = 6
    pf = partial_fractions(p, q)
    assert pf == coefficient_matching(p, q)
    assert [t[1:] for t in pf.linear_terms] == [(s, 1), (r, 1), (r, 2), (r, 3)]
    assert pf.polynomial_part.degree == 2
    assert recombines_to(pf, p, q)


@pytest.mark.parametrize("p, q, powers", [
    # 2m = 8 > deg q + 1: q's Taylor coefficients at 1/3 run past its degree
    (Polynomial([5, -1, 0, 2]), power(Polynomial([-1, 3]), 4), [1, 2, 3, 4]),
    # fractional leading coefficient, root and numerator; the quadratic needs y = 6x
    (
        Polynomial([Fraction(1, 2), Fraction(-3, 7), 0, Fraction(5, 3), 1, Fraction(2, 9)]),
        Fraction(3, 4) * power(Polynomial([Fraction(-2, 5), 1]), 2) * Polynomial([Fraction(1, 3), Fraction(1, 2), 1]),
        [1, 2],
    ),
    # the root 0 of multiplicity 3 beside x^2 + 4
    (Polynomial([1, -2, 3, 0, 1]), Polynomial([0, 0, 0, 1]) * Polynomial([4, 0, 1]), [1, 2, 3]),
])
def test_partial_fractions_integer_residue_corner_cases(p, q, powers):
    pf = partial_fractions(p, q)
    assert pf == coefficient_matching(p, q)
    assert [k for _, _, k in pf.linear_terms] == powers
    assert all(isinstance(v, Fraction) for term in pf.linear_terms + pf.quadratic_terms for v in term[:2])
    assert recombines_to(pf, p, q)


# -- symbolic integration --------------------------------------------------------------


def test_integrate_worked_example_renders_canonically():
    anti = integrate_rational(Polynomial([4, -1, 2]), Polynomial([0, 4, 0, 1]))
    assert anti.render() == "ln|x| + 1/2*ln(x^2+4) - 1/2*arctan(x/2) + K"


def test_integrate_log_only():
    assert integrate_rational(Polynomial([1]), Polynomial([0, 1])).render() == "ln|x| + K"
    assert SymbolicAntiderivative(()).render() == "K"
    zero, one = Fraction(0), Fraction(1)
    zero_terms = (
        LogAbs(zero, one),
        PowerTerm(zero, zero, -1),
        LogQuadratic(zero, zero, one),
        ArctanTerm(zero, zero, one),
        ArctanTerm(zero, zero, Fraction(3)),  # sqrt scale
    )
    for term in zero_terms:
        assert SymbolicAntiderivative((term,)).render() == "K"
        assert SymbolicAntiderivative((LogAbs(one, zero), term)).render() == "ln|x| + K"


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_render_does_not_depend_on_term_order(rng):
    lead, roots, quads = rand_decomposable(rng, max_deg=10)
    q = build(lead, roots, quads)
    anti = integrate_rational(rand_numerator(rng, q), q)
    terms = list(anti.terms)
    rng.shuffle(terms)
    assert SymbolicAntiderivative(tuple(terms)).render() == anti.render()


def test_integrate_power_term_rendering():
    anti = integrate_rational(Polynomial([1]), power(Polynomial([-1, 1]), 2))
    assert anti.render() == "-1/(x-1) + K"


def derivative_by_richardson(fn, x, h=1e-5):
    d1 = (fn(x + h) - fn(x - h)) / (2 * h)
    d2 = (fn(x + h / 2) - fn(x - h / 2)) / h
    return (4 * d2 - d1) / 3


def poles_of(q):
    return [float(r) for r in rational_roots(q)]


def eval_antiderivative_complex(anti, z):
    """Test-local complex evaluator for the antiderivative's terms.

    ln|x-r| is evaluated as log((x-r)^2)/2 so the complex-step probe never
    crosses the logarithm's branch cut for x < r.
    """
    import cmath

    from klasika.ratfun import ArctanTerm, LogAbs, LogQuadratic, PolyTerm, PowerTerm

    total = 0j
    for term in anti.terms:
        if isinstance(term, PolyTerm):
            acc = 0j
            for c in reversed(term.poly.coeffs):
                acc = acc * z + float(c)
            total += acc
        elif isinstance(term, LogAbs):
            total += float(term.coeff) * 0.5 * cmath.log((z - float(term.root)) ** 2)
        elif isinstance(term, PowerTerm):
            total += float(term.coeff) * (z - float(term.root)) ** term.exponent
        elif isinstance(term, LogQuadratic):
            total += float(term.coeff) * cmath.log(z * z + float(term.p) * z + float(term.q))
        elif isinstance(term, ArctanTerm):
            s = math.sqrt(float(term.scale_squared))
            total += float(term.coeff) / s * cmath.atan((z + float(term.shift)) / s)
        else:  # pragma: no cover
            raise AssertionError(term)
    return total


def derivative_by_complex_step(anti, x, h=1e-20):
    return eval_antiderivative_complex(anti, complex(x, h)).imag / h


def test_differentiation_oracle(rng):
    checked = 0
    while checked < 60:
        q = rand_supported_denominator(rng)
        p = Polynomial([rand_fraction(rng) for _ in range(rng.randint(1, q.degree + 2))])
        if p.is_zero:
            continue
        anti = integrate_rational(p, q)
        pole_xs = poles_of(q)
        tested = 0
        attempts = 0
        while tested < 40 and attempts < 400:
            attempts += 1
            x = rng.uniform(-8, 8)
            if any(abs(x - pole) < 0.3 for pole in pole_xs):
                continue
            expected = p(x) / q(x)
            if abs(expected) > 1e6:
                continue
            got = derivative_by_complex_step(anti, x)
            assert abs(got - expected) < 1e-8 * (1.0 + abs(expected)), (p, q, x)
            # the complex evaluator agrees with the production float one
            assert eval_antiderivative_complex(anti, complex(x, 0.0)).real == pytest.approx(
                anti.eval(x), rel=1e-12, abs=1e-12
            )
            tested += 1
        assert tested == 40
        checked += 1


def test_differentiation_real_finite_difference_on_worked_example():
    p, q = Polynomial([4, -1, 2]), Polynomial([0, 4, 0, 1])
    anti = integrate_rational(p, q)
    for x in (0.5, 1.0, 2.5, -3.0, 7.0):
        expected = p(x) / q(x)
        got = derivative_by_richardson(anti.eval, x)
        assert abs(got - expected) < 1e-8 * (1.0 + abs(expected))


# -- conic parametrization ---------------------------------------------------------------


def test_parametrize_ellipse_at_zero():
    conic = ConicParam("ellipse", 3.0, 2.0)
    assert conic.point(0.0) == (3.0, 0.0)


def test_parametrize_parabola_identity(rng):
    conic = ConicParam("parabola", 2.5, 2.5)
    for _ in range(100):
        t = rng.uniform(-50, 50)
        x, y = conic.point(t)
        assert y * y == pytest.approx(4 * 2.5 * x, rel=1e-12, abs=1e-12)


def test_parametrize_circle_matches_half_angle(rng):
    conic = ConicParam("circle", 1.0, 1.0)
    for _ in range(200):
        t = rng.uniform(-20, 20)
        x, y = conic.point(t)
        assert x * x + y * y == pytest.approx(1.0, abs=1e-12)
        theta = 2 * math.atan(t)
        assert x == pytest.approx(math.cos(theta), abs=1e-12)
        assert y == pytest.approx(math.sin(theta), abs=1e-12)


@pytest.mark.parametrize("kind,a,b", [("ellipse", 3.0, 2.0), ("hyperbola", 1.5, 2.5), ("parabola", 2.0, 2.0), ("circle", 2.0, 2.0)])
def test_parametrization_residuals(kind, a, b, rng):
    conic = ConicParam(kind, a, b)
    count = 0
    while count < 1000:
        t = rng.uniform(-30, 30)
        if kind == "hyperbola" and abs(abs(t) - 1.0) < 1e-6:
            continue
        x, y = conic.point(t)
        assert conic.implicit_residual(x, y) < 1e-10
        count += 1


def test_parametrize_hyperbola_pole():
    conic = ConicParam("hyperbola", 1.0, 1.0)
    with pytest.raises(ValueError, match="pole"):
        conic.point(1.0)


def test_conic_param_validation():
    with pytest.raises(ValueError):
        ConicParam("spiral", 1.0, 1.0)
    with pytest.raises(ValueError):
        ConicParam("ellipse", -1.0, 1.0)
    with pytest.raises(ValueError):
        ConicParam("circle", 1.0, 2.0)


# -- ellipse area and perimeter -------------------------------------------------------------


def test_area_formula():
    assert ellipse_area(2.0, 2.0) == pytest.approx(math.pi * 4, abs=1e-12)
    assert ellipse_area(2.0, 1.0) == pytest.approx(2 * math.pi, abs=1e-12)
    with pytest.raises(ValueError):
        ellipse_area(0.0, 1.0)


def test_area_against_quadrature(rng):
    for _ in range(10):
        a = rng.uniform(0.5, 5.0)
        b = rng.uniform(0.5, 5.0)
        integral, err = quad(lambda x: (b / a) * math.sqrt(max(a * a - x * x, 0.0)), 0.0, a)
        assert abs(4 * integral - ellipse_area(a, b)) < 1e-9 * ellipse_area(a, b)


def gauss_legendre_perimeter(a, b, n=240):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    half = math.pi / 4
    ts = half * (nodes + 1.0)
    e2 = (a * a - b * b) / (a * a)
    vals = np.sqrt(1.0 - e2 * np.sin(ts) ** 2)
    return 4 * a * half * float(np.dot(weights, vals))


def test_perimeter_circle_case():
    for r in (0.5, 1.0, 3.25):
        assert abs(ellipse_perimeter(r, r) - 2 * math.pi * r) < 1e-10


def test_perimeter_against_gauss_legendre():
    assert abs(ellipse_perimeter(2.0, 1.0) - gauss_legendre_perimeter(2.0, 1.0)) < 1e-9


def test_perimeter_flattened_limit():
    a = 1.0
    assert abs(ellipse_perimeter(a, 1e-7) - 4 * a) < 1e-5
    assert ellipse_perimeter(a, 1e-7) > 4 * a  # flattening only ever shortens toward 4a


def test_perimeter_domain():
    with pytest.raises(ValueError):
        ellipse_perimeter(1.0, 2.0)
    with pytest.raises(ValueError):
        ellipse_perimeter(1.0, 0.0)


def test_perimeter_brackets_and_monotonicity(rng):
    prev = None
    for a in (1.0, 1.25, 1.5, 2.0, 3.0, 5.0):
        p = ellipse_perimeter(a, 1.0)
        assert math.pi * (a + 1.0) <= p + 1e-9
        assert p <= math.pi * math.sqrt(2 * (a * a + 1.0)) + 1e-9
        if prev is not None:
            assert p > prev
        prev = p
    for _ in range(20):
        b = rng.uniform(0.1, 2.0)
        a = b + rng.uniform(0.0, 3.0)
        p = ellipse_perimeter(a, b)
        assert math.pi * (a + b) - 1e-9 <= p <= math.pi * math.sqrt(2 * (a * a + b * b)) + 1e-9


def carlson_perimeter(a, b):
    """8*R_G(0, a^2, b^2) at 30 digits: Carlson's symmetric form, independent of the AGM."""
    with mpmath.workdps(30):
        return 8 * mpmath.elliprg(0, mpmath.mpf(a) ** 2, mpmath.mpf(b) ** 2)


def relative_error(a, b):
    want = carlson_perimeter(a, b)
    return float(abs((mpmath.mpf(ellipse_perimeter(a, b)) - want) / want))


@pytest.mark.parametrize("decades, bound", [(3, 1e-14), (300, 1e-12)])
def test_perimeter_against_carlson(rng, decades, bound):
    # a spans 1e-300..1e300, and b/a spans 10^-decades..1
    for _ in range(200):
        a = 10.0 ** rng.uniform(-300, 300)
        b = a * 10.0 ** rng.uniform(-decades, 0)
        if 0 < b <= a:
            assert relative_error(a, b) <= bound, (a, b)
    for a, b in ((1.0, 1e-300), (1e300, 1.0), (1e-8, 1e-308), (1e300, 1e297), (1e-300, 1e-303)):
        assert relative_error(a, b) <= (1e-12 if b < 1e-3 * a else 1e-14), (a, b)


def test_perimeter_circle_is_two_pi_r():
    for r in (1e-300, 1e-5, 0.5, 1.0, 3.25, 7e12, 1e300):
        assert abs(ellipse_perimeter(r, r) - 2 * math.pi * r) <= 1e-15 * 2 * math.pi * r


def test_adaptive_simpson_on_known_integral():
    assert adaptive_simpson(math.sin, 0.0, math.pi, 1e-12) == pytest.approx(2.0, abs=1e-10)
