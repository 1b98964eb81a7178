"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime and asserting the stated budget and tolerances."""

import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from klasika.cli import run
from klasika.construct import ngon_constructible, trisectable
from klasika.disc import (
    discriminant_hankel,
    discriminant_resultant,
)
from klasika.exact import Polynomial
from klasika.forms import (
    BinaryForm,
    ConicKind,
    QuadricKind,
    SymMatrix,
    TernaryForm,
    char_poly,
    classify_conic,
    classify_quadric,
    determinant,
    diagonal_substitution,
    form_discriminant,
    form_to_matrix,
    inertia,
    orthogonal_diagonalize,
)
from klasika.ratfun import ellipse_area, ellipse_perimeter, integrate_rational
from klasika.roots import residual_tolerance, solve_cubic_cardano

from conftest import rand_fraction
from test_cli import GOLDEN_HUMAN, _random_argv
from test_forms import congruent, rand_invertible, rand_sym_matrix, transform_conic
from test_ratfun import derivative_by_complex_step, poles_of, rand_supported_denominator


def report(number, label, elapsed, budget):
    print(f"criterion {number:2d} PASS  {label}  ({elapsed:.2f}s, budget {budget:g}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_01_quadratic_discriminant_identity():
    rng = random.Random(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        a = rand_fraction(rng, -9, 9, 5)
        while a == 0:
            a = rand_fraction(rng, -9, 9, 5)
        b, c = rand_fraction(rng, -9, 9, 5), rand_fraction(rng, -9, 9, 5)
        assert discriminant_resultant(Polynomial([c, b, a])) == b * b - 4 * a * c
    report(1, "quadratic discriminant = b^2 - 4ac on 1000 random triples", time.perf_counter() - t0, 1.0)


def test_criterion_02_cubic_discriminant_formula():
    rng = random.Random(102)
    t0 = time.perf_counter()
    for _ in range(1000):
        a = rand_fraction(rng, -9, 9, 4)
        while a == 0:
            a = rand_fraction(rng, -9, 9, 4)
        b, c, d = (rand_fraction(rng, -9, 9, 4) for _ in range(3))
        expected = (
            b * b * c * c
            - 4 * a * c**3
            - 4 * b**3 * d
            - 27 * a * a * d * d
            + 18 * a * b * c * d
        )
        assert discriminant_resultant(Polynomial([d, c, b, a])) == expected
    for _ in range(200):
        a, b = rand_fraction(rng, -9, 9, 4), rand_fraction(rng, -9, 9, 4)
        assert discriminant_resultant(Polynomial([b, a, 0, 1])) == -4 * a**3 - 27 * b * b
    report(2, "cubic discriminant formula, general and depressed", time.perf_counter() - t0, 2.0)


def test_criterion_03_hankel_newton_path_agrees():
    rng = random.Random(103)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = rng.randint(2, 6)
        f = Polynomial([Fraction(rng.randint(-9, 9)) for _ in range(n)] + [Fraction(1)])
        # the ordered-pair sign factor cancels between the two routes, so the
        # agreement is exact equality with no extra conversion for monic input
        assert discriminant_hankel(f) == discriminant_resultant(f)
    report(3, "power-sum Hankel route equals resultant route on 1000 monic polys", time.perf_counter() - t0, 10.0)


def test_criterion_04_cardano_residuals_and_unity():
    rng = random.Random(104)
    t0 = time.perf_counter()
    for _ in range(1000):
        cs = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(4)]
        while cs[-1] == 0:
            cs[-1] = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
        f = Polynomial(cs)
        out = solve_cubic_cardano(f)
        assert max(out.residuals) < residual_tolerance(f)
    out = solve_cubic_cardano(Polynomial([-1, 0, 0, 1]))
    eps = complex(-0.5, math.sqrt(3) / 2)
    for want in (1, eps, eps * eps):
        assert min(abs(z - want) for z in out.roots) < 1e-12
    report(4, "Cardano residuals under 1e-8*(1+||f||_1); cube roots of unity to 1e-12", time.perf_counter() - t0, 1.0)


def test_criterion_05_form_discriminant_is_minus_4_det():
    rng = random.Random(105)
    t0 = time.perf_counter()
    for _ in range(1000):
        f = BinaryForm(rand_fraction(rng), rand_fraction(rng), rand_fraction(rng))
        assert form_discriminant(f) == -4 * determinant(form_to_matrix(f))
    report(5, "binary form discriminant = -4 det(M_f) on 1000 random forms", time.perf_counter() - t0, 1.0)


def test_criterion_06_conic_classification_and_invariance():
    rng = random.Random(106)
    t0 = time.perf_counter()
    # canonical families
    for _ in range(20):
        l1 = Fraction(rng.randint(1, 9))
        l2 = l1 + rng.randint(1, 9)
        assert classify_conic(1 / l1**2, 0, 1 / l2**2, 0, 0, 1) == ConicKind.ELLIPSE
        assert classify_conic(1 / l1**2, 0, -1 / l2**2, 0, 0, 1) == ConicKind.HYPERBOLA
        assert classify_conic(0, 0, 1, -4 * l1, 0, 0) == ConicKind.PARABOLA
    # invariance of kind under 100 random invertible congruences plus translations
    for _ in range(100):
        l1 = abs(rand_fraction(rng, 1, 6, 2)) + 1
        l2 = l1 + abs(rand_fraction(rng, 1, 6, 2)) + 1
        if rng.random() < 0.5:
            coeffs = (l1, Fraction(0), l2, Fraction(0), Fraction(0), Fraction(1))
            expected = ConicKind.ELLIPSE
        else:
            coeffs = (l1, Fraction(0), -l2, Fraction(0), Fraction(0), Fraction(1))
            expected = ConicKind.HYPERBOLA
        assert classify_conic(*coeffs) == expected
        c = rand_invertible(rng, 2)
        t = [rand_fraction(rng, -3, 3, 2), rand_fraction(rng, -3, 3, 2)]
        moved = transform_conic(coeffs, c, t)
        assert classify_conic(*moved) == expected
        # exact inertia of the quadratic part is congruence-invariant
        q_before = SymMatrix([[coeffs[0], coeffs[1] / 2], [coeffs[1] / 2, coeffs[2]]])
        q_after = SymMatrix([[moved[0], moved[1] / 2], [moved[1] / 2, moved[2]]])
        assert inertia(q_before).as_tuple() == inertia(q_after).as_tuple()
    report(6, "canonical conics classified; kind invariant under 100 random congruences", time.perf_counter() - t0, 5.0)


def test_criterion_07_quadric_classification():
    t0 = time.perf_counter()
    canonical = [
        (TernaryForm(1, 1, 1, 0, 0, 0), (3, 0, 0), QuadricKind.ELLIPSOID),
        (TernaryForm(1, 1, 0, 0, 0, 0), (2, 0, 1), QuadricKind.ELLIPTIC_PARABOLOID),
        (TernaryForm(1, 1, -1, 0, 0, 0), (2, 1, 0), QuadricKind.HYPERBOLOID_ONE_SHEET),
        (TernaryForm(1, -1, -1, 0, 0, 0), (1, 2, 0), QuadricKind.HYPERBOLOID_TWO_SHEETS),
        (TernaryForm(1, -1, 0, 0, 0, 0), (1, 1, 1), QuadricKind.HYPERBOLIC_PARABOLOID),
        (TernaryForm(1, 0, 0, 0, 0, 0), (1, 0, 2), QuadricKind.PARABOLIC_CYLINDER),
    ]
    for form, sig, kind in canonical:
        assert inertia(form_to_matrix(form)).as_tuple() == sig
        assert classify_quadric(form) == kind

    # the all-ones cross-term form: diagonal coefficients (3,0,0) up to order,
    # with the eigenvector for 3 parallel to (1,1,1)
    all_ones = TernaryForm.from_equation_coefficients(1, 1, 1, 2, 2, 2)
    sub, diag = diagonal_substitution(all_ones)
    assert sorted(diag) == [0.0, 0.0, 3.0]
    direction = sub[list(diag).index(3.0)]
    unit = 1 / math.sqrt(3)
    assert abs(abs(sum(x * unit for x in direction)) - 1.0) < 1e-12

    # mixed cross-term form: classification consistent with a brute-force
    # characteristic-polynomial oracle (numpy roots, float sign counts)
    mixed = TernaryForm.from_equation_coefficients(1, 1, -1, 3, -5, 4)
    p = char_poly(form_to_matrix(mixed))
    eigs = np.roots([float(c) for c in reversed(p.coeffs)])
    assert max(abs(e.imag) for e in eigs) < 1e-9
    counts = (
        int(sum(e.real > 1e-9 for e in eigs)),
        int(sum(e.real < -1e-9 for e in eigs)),
        int(sum(abs(e.real) <= 1e-9 for e in eigs)),
    )
    table = {
        (3, 0, 0): QuadricKind.ELLIPSOID,
        (2, 0, 1): QuadricKind.ELLIPTIC_PARABOLOID,
        (2, 1, 0): QuadricKind.HYPERBOLOID_ONE_SHEET,
        (1, 2, 0): QuadricKind.HYPERBOLOID_TWO_SHEETS,
        (1, 1, 1): QuadricKind.HYPERBOLIC_PARABOLOID,
        (1, 0, 2): QuadricKind.PARABOLIC_CYLINDER,
    }
    assert inertia(form_to_matrix(mixed)).as_tuple() == counts
    assert classify_quadric(mixed) == table[counts]
    report(7, "six canonical quadrics plus the two worked cross-term forms", time.perf_counter() - t0, 1.0)


def test_criterion_08_orthogonal_diagonalization():
    rng = random.Random(108)
    t0 = time.perf_counter()
    for _ in range(500):
        m = rand_sym_matrix(rng, 3)
        dg = orthogonal_diagonalize(m)
        norm = max(abs(float(v)) for row in m.rows for v in row)
        ortho = max(
            abs(sum(dg.S[k][i] * dg.S[k][j] for k in range(3)) - (1.0 if i == j else 0.0))
            for i in range(3)
            for j in range(3)
        )
        assert ortho < 1e-8
        assert dg.residual < 1e-6 * (1.0 + norm)
        sig = inertia(m)
        tol = 1e-9 * (1.0 + norm)
        counts = (
            sum(1 for x in dg.D if x > tol),
            sum(1 for x in dg.D if x < -tol),
            sum(1 for x in dg.D if abs(x) <= tol),
        )
        assert counts == sig.as_tuple()
    report(8, "500 random symmetric 3x3: orthonormal to 1e-8, reconstruct to 1e-6, signs exact", time.perf_counter() - t0, 5.0)


def test_criterion_09_constructibility_table():
    t0 = time.perf_counter()
    assert ngon_constructible(9).constructible is False
    assert ngon_constructible(20).constructible is True
    for n in (3, 4, 5, 6, 8, 10, 12, 15, 16, 17, 20, 24):
        assert ngon_constructible(n).constructible is True, n
    for p in (3, 5, 17, 257, 65537):
        assert ngon_constructible(p).constructible is True, p
    assert trisectable(Fraction(1, 2)).constructible is False
    assert trisectable(Fraction(1, 2)).details["witness_cubic"] == "-1,-6,0,8"  # 8x^3-6x-1
    assert trisectable(Fraction(1, 3)).constructible is False
    assert trisectable(Fraction(-1, 2)).constructible is False
    assert trisectable(Fraction(0)).constructible is True
    report(9, "n-gon verdicts and trisection verdicts match the worked cases", time.perf_counter() - t0, 1.0)


def test_criterion_10_integration():
    rng = random.Random(110)
    t0 = time.perf_counter()
    anti = integrate_rational(Polynomial([4, -1, 2]), Polynomial([0, 4, 0, 1]))
    assert anti.render() == "ln|x| + 1/2*ln(x^2+4) - 1/2*arctan(x/2) + K"
    checked = 0
    while checked < 200:
        q = rand_supported_denominator(rng)
        p = Polynomial([rand_fraction(rng) for _ in range(rng.randint(1, q.degree + 2))])
        if p.is_zero:
            continue
        anti = integrate_rational(p, q)
        pole_xs = poles_of(q)
        tested = 0
        attempts = 0
        while tested < 100 and attempts < 1000:
            attempts += 1
            x = rng.uniform(-8, 8)
            if any(abs(x - pole) < 0.3 for pole in pole_xs):
                continue
            expected = p(x) / q(x)
            if abs(expected) > 1e6:
                continue
            got = derivative_by_complex_step(anti, x)
            assert abs(got - expected) < 1e-8 * (1.0 + abs(expected))
            tested += 1
        assert tested == 100
        checked += 1
    report(10, "worked antiderivative renders exactly; derivative oracle on 200 inputs", time.perf_counter() - t0, 10.0)


def test_criterion_11_ellipse_area_and_perimeter():
    rng = random.Random(111)
    t0 = time.perf_counter()
    for _ in range(50):
        a = rng.uniform(0.5, 5.0)
        b = rng.uniform(0.5, 5.0)
        area = ellipse_area(a, b)
        integral, _ = quad(lambda x: (b / a) * math.sqrt(max(a * a - x * x, 0.0)), 0.0, a)
        assert abs(4 * integral - area) < 1e-9 * area
    for r in (0.5, 1.0, 2.0, 3.75):
        assert abs(ellipse_perimeter(r, r) - 2 * math.pi * r) < 1e-10
    for _ in range(50):
        b = rng.uniform(0.1, 3.0)
        a = b + rng.uniform(0.0, 4.0)
        p = ellipse_perimeter(a, b)
        assert math.pi * (a + b) - 1e-9 <= p <= math.pi * math.sqrt(2 * (a * a + b * b)) + 1e-9
    report(11, "area matches quadrature to 1e-9; perimeter circle case and brackets hold", time.perf_counter() - t0, 5.0)


def test_criterion_12_cli_goldens_and_fuzz():
    rng = random.Random(112)
    t0 = time.perf_counter()
    for argv, want in GOLDEN_HUMAN.items():
        result = run(list(argv))
        assert result.exit_code == 0
        assert result.human_text == want
    # the three worked command lines
    assert run(["disc", "2,-3,1"]).payload["discriminant_resultant"] == "1"
    assert run(["disc", "2,-3,1"]).payload["agree"] is True
    ngon17 = run(["ngon", "17", "--json"])
    assert '"constructible": true' in ngon17.to_json() and '"n": 17' in ngon17.to_json()
    integ = run(["integrate", "4,-1,2", "/", "0,4,0,1"])
    assert integ.payload["antiderivative"] == "ln|x| + 1/2*ln(x^2+4) - 1/2*arctan(x/2) + K"
    # fuzz: 100000 random argv, no crashes, structured errors only
    for _ in range(100000):
        argv = _random_argv(rng)
        result = run(argv)
        assert result.exit_code in (0, 1, 2)
        assert result.status in ("ok", "error")
        assert result.payload.get("kind") != "internal"
    report(12, "golden outputs for every subcommand; 100000-run fuzz with zero crashes", time.perf_counter() - t0, 30.0)
