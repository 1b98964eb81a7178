import json
import random
import string
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from klasika import cli, forms
from klasika.cli import main, run
from klasika.disc import discriminant_resultant
from klasika.exact import Polynomial, poly_gcd, rational_roots
from klasika.ratfun import factor_real, partial_fractions
from klasika.roots import residual_tolerance, solve_cubic_cardano

from conftest import convolve, expand_roots, power, recombine, same_ratio
from test_forms import classify_conic_by_schur, numpy_inertia, transform_conic
from test_rational_roots import N
from test_ratfun import apart_terms, recombines_to


def out(argv):
    result = run(argv)
    return result


GOLDEN_HUMAN = {
    # one golden per subcommand; values independently pinned by the module tests
    ("disc", "2,-3,1"): (
        "discriminant of x^2 - 3*x + 2\n"
        "  resultant route: 1\n"
        "  power-sum route: 1\n"
        "  agreement: yes"
    ),
    ("repeated", "4,0,-4,0,1"): "x^4 - 4*x^2 + 4: has a repeated root",
    ("depress", "-6,11,-6,1"): "x^3 - 6*x^2 + 11*x - 6  ->  x^3 - x   (x = y - (-2))",
    ("classify-conic", "1/4,0,1/9,0,0,1"): "1/4*x^2 + 1/9*y^2 = 1:  Ellipse",
    ("classify-conic", "0,1,0,0,0,1"): "x*y = 1:  Hyperbola",
    ("classify-conic", "0,0,1,-4,0,0"): "y^2 - 4*x = 0:  Parabola",
    ("classify-quadric", "1,1,-1,3,-5,4"): "inertia (2, 1, 0):  HyperboloidOneSheet",
    ("ngon", "9"): (
        "regular 9-gon constructible: no\n  Fermat prime factor 3 appears 2 times"
    ),
    ("ngon", "20"): (
        "regular 20-gon constructible: yes\n"
        "  n = 2^2 * 5: every odd prime factor is a distinct Fermat prime"
    ),
    ("trisect", "1/2"): (
        "angle with cos(3a) = 1/2 trisectable: no\n"
        "  8*x^3 - 6*x - 1 has no rational root, hence is irreducible; "
        "degree 3 is not a power of 2"
    ),
    ("double-cube",): (
        "doubling the cube: no\n"
        "  x^3 - 2 has no rational root, hence is irreducible; degree 3 is not a power of 2"
    ),
    ("square-circle",): (
        "squaring the circle: no\n"
        "  pi is transcendental (Lindemann, 1882), so sqrt(pi) is not algebraic over Q "
        "and lies in no finite tower of quadratic extensions; accepted as a documented "
        "fact, not computed here"
    ),
    ("construct-eval", "sqrt(2+sqrt(2))"): (
        "sqrt(2+sqrt(2)) = 1.8477590650225735   (tower degree bound 4)"
    ),
    # the text shows the value the JSON carries: a product with a negative
    # factor evaluates to -0.0 in floats, and both outputs print 0.0
    ("construct-eval", "0*(0-1)"): "0*(0-1) = 0.0   (tower degree bound 1)",
    ("integrate", "4,-1,2", "/", "0,4,0,1"): (
        "integral of (2*x^2 - x + 4) / (x^3 + 4*x) dx = "
        "ln|x| + 1/2*ln(x^2+4) - 1/2*arctan(x/2) + K"
    ),
    ("partfrac", "4,-1,2", "/", "0,4,0,1"): (
        "(2*x^2 - x + 4) / (x^3 + 4*x) = (1)/x + (x - 1)/(x^2 + 4)"
    ),
    # term-rendering edge cases: shifted and sqrt-scaled arctan, a power term
    # at a negative fractional root, a polynomial part beside ln|x| and 1/(x),
    # a root 0 of power 2, unit and negative middle coefficients
    ("integrate", "1", "/", "5,2,1"): (
        "integral of (1) / (x^2 + 2*x + 5) dx = 1/2*arctan((x+1)/2) + K"
    ),
    ("integrate", "1", "/", "3,0,1"): (
        "integral of (1) / (x^2 + 3) dx = 1/sqrt(3)*arctan((x)/sqrt(3)) + K"
    ),
    ("integrate", "1", "/", "1,4,4"): (
        "integral of (1) / (4*x^2 + 4*x + 1) dx = -1/4/(x+1/2) + K"
    ),
    ("integrate", "1,0,0,1", "/", "0,0,1,2"): (
        "integral of (x^3 + 1) / (2*x^3 + x^2) dx = "
        "1/2*x + 7/4*ln|x+1/2| - 2*ln|x| - 1/(x) + K"
    ),
    # all five term kinds, each in its place in the canonical order
    ("integrate", "1,2,0,3,0,0,1,1", "/", "0,2,-4,3,-2,1"): (
        "integral of (x^7 + x^6 + 3*x^3 + 2*x + 1) / (x^5 - 2*x^4 + 3*x^3 - 4*x^2 + 2*x) dx = "
        "1/3*x^3 + 3/2*x^2 + 3*x + 1/2*ln|x| + 32/9*ln|x-1| - 8/3/(x-1) - 55/36*ln(x^2+2) "
        "- 2/9/sqrt(2)*arctan((x)/sqrt(2)) + K"
    ),
    ("partfrac", "1", "/", "0,0,1,2"): (
        "(1) / (2*x^3 + x^2) = (2)/(x+1/2) + (-2)/x + (1)/x^2"
    ),
    ("classify-conic", "-1,1,-1,0,1,1"): "-x^2 + x*y - y^2 + y = 1:  Empty",
    ("depress", "1,1,1,1"): "x^3 + x^2 + x + 1  ->  x^3 + 2/3*x + 20/27   (x = y - (1/3))",
    ("ellipse", "area", "2", "1"): "ellipse area (a=2, b=1): 6.28318530718",
    ("param", "parabola", "1", "1", "2"): "parabola(t=2) = (4, 4)   residual 0",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_HUMAN), ids=lambda a: " ".join(a))
def test_golden_human_output(argv):
    result = out(list(argv))
    assert result.exit_code == 0
    assert result.human_text == GOLDEN_HUMAN[argv]


def test_golden_solve_structure():
    result = out(["solve", "-6,11,-6,1"])
    assert result.exit_code == 0
    got = sorted(tuple(z) for z in result.payload["roots"])
    assert got == [(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    assert result.payload["within_tolerance"] is True
    assert result.payload["tolerance"] == residual_tolerance(Polynomial([-6, 11, -6, 1]))
    assert solve_cubic_cardano(Polynomial([-6, 11, -6, 1])).tolerance == result.payload["tolerance"]
    assert out(["--tol", "0.5", "solve", "-6,11,-6,1"]).payload["tolerance"] == 0.5


def test_golden_diagonalize_structure():
    result = out(["diagonalize", "1,1,1,2,2,2"])
    assert result.exit_code == 0
    assert sorted(result.payload["diagonal_form"]) == [0.0, 0.0, 3.0]
    assert result.payload["within_tolerance"] is True
    row = result.payload["substitution"][result.payload["diagonal_form"].index(3.0)]
    assert max(row) - min(row) < 1e-12  # the lambda=3 direction is (1,1,1)/sqrt(3)


def test_golden_ellipse_perimeter():
    result = out(["ellipse", "perimeter", "2", "1"])
    assert result.exit_code == 0
    assert result.payload["value"] == pytest.approx(9.688448220547675, abs=1e-9)


def test_negative_scale_circle_is_a_circle():
    result = run(["classify-conic", "-1,0,-1,0,0,-1"])
    assert result.human_text == "-x^2 - y^2 = -1:  Circle"
    assert result.payload["kind"] == "Circle"


def test_integrate_divisor_rich_denominator_is_fast():
    # 963761198400 has 6720 divisors, so a divisor-pair search tries ~45 million pairs
    t0 = time.perf_counter()
    result = run(["integrate", "1", "/", "963761198400,1,1,963761198400"])
    assert result.status == "ok"
    assert time.perf_counter() - t0 < 2.0


def test_integrate_semiprime_denominator_is_answered():
    n = 10000019 * 10000079  # (x + 1)(x^2 + n), with n a product of two 8-digit primes
    result = run(["integrate", "1", "/", f"{n},{n},1,1"])
    assert result.status == "ok"
    assert "ln|x+1|" in result.payload["antiderivative"]


def _cap_denominator() -> str:
    """The benchmark's degree-64 cap input: 24 distinct rational roots of
    multiplicity 2 or 4."""
    roots = [Fraction(k % 8 + 1, 1 + k // 32) * (1 if k % 16 < 8 else -1) for k in range(64)]
    return ",".join(str(c) for c in expand_roots(roots))


@pytest.mark.parametrize("command", ["partfrac", "integrate"])
def test_degree_64_decomposition_is_fast(command):
    argv = [command, "1", "/", _cap_denominator()]
    t0 = time.perf_counter()
    result = run(argv)
    assert time.perf_counter() - t0 < 1.0
    assert result.status == "ok"


def test_degree_64_decomposition_recombines_exactly():
    q = Polynomial.from_text(_cap_denominator())
    assert sorted(m for _, m in factor_real(q).linear_factors) == [2] * 16 + [4] * 8
    pf = partial_fractions(Polynomial([1]), q)
    assert recombines_to(pf, Polynomial([1]), q)


def test_degree_64_refusal_is_fast():
    # 64 one-digit coefficients and a leading 3: no rational root, squarefree,
    # so the whole denominator is the residual that is refused
    rng = random.Random(64)
    coeffs = ",".join(str(rng.randint(0, 9)) for _ in range(64)) + ",3"
    t0 = time.perf_counter()
    result = run(["partfrac", "1", "/", coeffs])
    assert time.perf_counter() - t0 < 0.5
    assert result.exit_code == 1
    q = Polynomial.from_text(coeffs).monic()
    assert result.human_text == (
        f"error: residual factor {q} of degree 64 has no rational root and is not an irreducible quadratic"
    )


def test_repeated_irrational_cluster_roots_are_fast():
    m = 10**30 + 57
    f = power(Polynomial([-2, 0, 1]), 31) * Polynomial([-1, m])  # (x^2 - 2)^31 * (m*x - 1)
    t0 = time.perf_counter()
    assert rational_roots(f) == [Fraction(1, m)]
    assert time.perf_counter() - t0 < 0.2


@pytest.mark.parametrize("value", ["1e-800", "-1e-800"])
def test_tiny_trisection_cosine_is_fast(value):
    # 4x^3 - 3x - 10^-800 has a root near -10^-800/3; the p-adic lift stops
    # once its modulus passes 2*|a0*an|, whatever the size of the root
    t0 = time.perf_counter()
    result = run(["trisect", value])
    assert time.perf_counter() - t0 < 0.5
    assert result.payload["constructible"] is False


def test_non_monic_cubic_with_huge_coefficients_is_refused_fast():
    # (2x - 1)(10^1000 x^2 - 3): only the roots mod a small prime are lifted, not the irrational real roots
    t0 = time.perf_counter()
    result = run(["partfrac", "1", "/", "3,-6,-1e1000,2e1000"])
    assert time.perf_counter() - t0 < 1.5
    assert result.exit_code == 1
    assert result.human_text == f"error: residual quadratic x^2 - 3/{10**1000} has irrational real roots"


def test_quadratic_with_a_huge_constant_is_refused_fast():
    # x^2 - 10^4299: a quadratic piece is solved by an integer square root of its
    # discriminant, with no search
    t0 = time.perf_counter()
    result = run(["partfrac", "1", "/", "-1e4299,0,1"])
    assert time.perf_counter() - t0 < 0.5
    assert result.exit_code == 1
    assert result.human_text == f"error: residual quadratic x^2 - {10**4299} has irrational real roots"


def test_root_with_huge_an_and_small_a0_is_fast():
    # (3x - 1)(10^4000 x^2 + 1): a 4000-digit an beside a0 = -1
    t0 = time.perf_counter()
    result = run(["partfrac", "1", "/", "-1,3,-1e4000,3e4000"])
    assert time.perf_counter() - t0 < 0.5
    assert result.exit_code == 0
    assert [r for _, r, _ in result.payload["linear_terms"]] == ["1/3"]


def test_diagonalize_with_a_tiny_entry_is_fast():
    # the entry -7e-3040 clears to a characteristic polynomial with 9000-digit
    # coefficients, whose rational-root search followed their bit lengths (100 s)
    t0 = time.perf_counter()
    result = run(["diagonalize", "-4,-1,-6/2,1,-5,-7e-3040"])
    assert time.perf_counter() - t0 < 2.0
    assert result.status == "ok" and result.payload["within_tolerance"] is True


def test_partfrac_not_squarefree_mod_any_prime_below_10_4_is_fast():
    # (x - 1)(x^2 - N), N the product of the primes below 10^4: the prime walk
    # passes over all 1228 odd ones before it can lift a root
    t0 = time.perf_counter()
    result = run(["partfrac", "1", "/", f"{N},{-N},-1,1"])
    assert time.perf_counter() - t0 < 1.5
    assert result.exit_code == 1
    assert result.human_text == f"error: residual quadratic x^2 - {N} has irrational real roots"


def test_partfrac_with_4000_digit_coefficients_is_fast():
    # (2x - 1)(10^4000 x^2 - 3)
    t0 = time.perf_counter()
    result = run(["partfrac", "1", "/", "3,-6,-1e4000,2e4000"])
    assert time.perf_counter() - t0 < 0.5
    assert result.exit_code == 1
    assert result.human_text == f"error: residual quadratic x^2 - 3/{10**4000} has irrational real roots"


def test_partfrac_with_mixed_huge_and_tiny_coefficients_is_fast():
    # the answer cannot be printed in 4300 digits, but the search before it is fast
    t0 = time.perf_counter()
    result = run(["partfrac", "8/5", "/", "-4e-280,-2e-2981,0/6,-9e3160"])
    assert time.perf_counter() - t0 < 1.5
    assert result.exit_code == 1


def test_degree_64_gcd_is_fast():
    rng = random.Random(64)
    f = Polynomial([rng.randint(-100, 100) for _ in range(64)] + [97])
    t0 = time.perf_counter()
    assert poly_gcd(f, f.derivative()) == Polynomial([1])
    assert time.perf_counter() - t0 < 0.5


def _cap_polynomial() -> Polynomial:
    """Degree 64, every coefficient 20 bits wide."""
    rng = random.Random(64)
    return Polynomial([rng.randint(-(1 << 20), 1 << 20) for _ in range(64)] + [rng.randint(1 << 19, 1 << 20)])


def test_degree_64_repeated_is_fast():
    f = _cap_polynomial()
    t0 = time.perf_counter()
    result = run(["repeated", f.to_text()])
    assert time.perf_counter() - t0 < 0.25
    assert result.status == "ok"
    assert result.payload["has_repeated_roots"] is False


def test_degree_64_repeated_with_4300_digit_coefficients_is_fast():
    # k*10^j coefficients up to j = 4299 in a 437-byte argv: f is squarefree mod
    # 32749, which proves the answer; its resultant runs for over two minutes
    argv = ",".join(f"{i % 9 + 1}e{4299 - 67 * i}" for i in range(65))
    t0 = time.perf_counter()
    result = run(["repeated", argv])
    assert time.perf_counter() - t0 < 1.0
    assert result.payload["has_repeated_roots"] is False
    coeffs = [int(c) for c in Polynomial.from_text(argv)]
    reduced = sympy.Poly(coeffs[::-1], sympy.Symbol("x"), modulus=32749)
    assert reduced.degree() == 64 and reduced.is_sqf


def test_degree_64_discriminant_resultant_is_fast():
    f = _cap_polynomial()
    t0 = time.perf_counter()
    d = discriminant_resultant(f)
    assert time.perf_counter() - t0 < 0.25
    assert d != 0


def test_degree_64_non_monic_disc_is_fast():
    f = _cap_polynomial()  # a 20-bit leading coefficient
    t0 = time.perf_counter()
    result = run(["disc", f.to_text()])
    assert time.perf_counter() - t0 < 1.5
    assert result.status == "ok"
    assert result.payload["agree"] is True


def test_ngon_17_json_golden():
    result = out(["ngon", "17", "--json"])
    assert result.exit_code == 0
    assert result.to_json() == (
        '{"command": "ngon", "constructible": true, "constructible_text": "yes", '
        '"factorization": {"17": 1}, "n": 17, '
        '"reason": "n = 2^0 * 17: every odd prime factor is a distinct Fermat prime", '
        '"schema": 1, "status": "ok", "violations": []}'
    )


HELP_TEXT = """usage: klasika [--json] [--tol X] <command> ...

commands:
  disc <coeffs>                      discriminant, both routes (coeffs ascending: a0,a1,...)
  repeated <coeffs>                  repeated-root test
  solve <coeffs>                     roots of a degree-2/3 polynomial with residuals
  depress <coeffs>                   remove the second-highest term
  classify-conic a,b,c,d,e,lambda    kind of ax^2+bxy+cy^2+dx+ey = lambda
  classify-quadric a,b,c,d,e,f       kind of ax^2+by^2+cz^2+dxy+exz+fyz = h
  diagonalize a,b,c,d,e,f            orthogonal substitution and diagonal form
  ngon <n>                           regular n-gon constructibility
  trisect <p/q>                      trisectability of an angle with cos(3a) = p/q
  double-cube                        the classical cube-doubling verdict
  square-circle                      the classical circle-squaring verdict
  construct-eval "<expr>"            evaluate a +,-,*,/,sqrt expression with degree bound
  integrate <p> / <q>                antiderivative of a rational function
  partfrac <p> / <q>                 partial-fraction decomposition
  ellipse area|perimeter <a> <b>     ellipse area / perimeter
  param <kind> <a> <b> <t>           rational parametrization point of a conic
"""


def test_help_text():
    for argv in (["--help"], ["-h"], ["disc", "--help"]):
        result = run(argv)
        assert (result.status, result.exit_code, result.human_text) == ("ok", 0, HELP_TEXT)
        assert result.payload == {"command": "help", "usage": HELP_TEXT}
    assert run([]).human_text == "error: no command given\n" + HELP_TEXT


# The usage line of each subcommand; trisect, integrate, partfrac and param
# name their arguments more fully here than in the help text.
USAGE_ERRORS = {
    "disc": "disc <coeffs>",
    "repeated": "repeated <coeffs>",
    "solve": "solve <coeffs>",
    "depress": "depress <coeffs>",
    "classify-conic": "classify-conic a,b,c,d,e,lambda",
    "classify-quadric": "classify-quadric a,b,c,d,e,f",
    "diagonalize": "diagonalize a,b,c,d,e,f",
    "ngon": "ngon <n>",
    "trisect": "trisect <cos3a as p/q>",
    "double-cube": "double-cube",
    "square-circle": "square-circle",
    "construct-eval": 'construct-eval "<expr>"',
    "integrate": "integrate <p-coeffs> / <q-coeffs>",
    "partfrac": "partfrac <p-coeffs> / <q-coeffs>",
    "ellipse": "ellipse area|perimeter <a> <b>",
    "param": "param circle|ellipse|hyperbola|parabola <a> <b> <t>",
}


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_wrong_argument_count_prints_the_usage_line(command):
    result = run([command, "1", "1"])  # a wrong count for every subcommand
    assert (result.status, result.exit_code) == ("error", 2)
    assert result.human_text == f"error: usage: {USAGE_ERRORS[command]}"
    assert result.to_json() == json.dumps(
        {"error": f"usage: {USAGE_ERRORS[command]}", "kind": "usage", "schema": 1, "status": "error"}
    )


GOLDEN_JSON = {
    # one exact --json object per subcommand, plus a second diagonalize, a usage
    # and a domain error
    ("disc", "2,-3,1"): (
        '{"agree": true, "command": "disc", "discriminant_hankel": "1", "discriminant_resultant": "1", '
        '"polynomial": "2,-3,1", "schema": 1, "status": "ok", "zero": false}'
    ),
    ("repeated", "4,0,-4,0,1"): (
        '{"command": "repeated", "has_repeated_roots": true, "polynomial": "4,0,-4,0,1", '
        '"schema": 1, "status": "ok"}'
    ),
    ("solve", "2,-3,1"): (
        '{"command": "solve", "polynomial": "2,-3,1", "residuals": [0.0, 0.0], '
        '"roots": [[1.0, 0.0], [2.0, 0.0]], "schema": 1, "status": "ok", '
        '"tolerance": 7.000000000000001e-10, "within_tolerance": true}'
    ),
    ("depress", "-6,11,-6,1"): (
        '{"command": "depress", "depressed": "0,-1,0,1", "polynomial": "-6,11,-6,1", '
        '"schema": 1, "shift": "-2", "status": "ok"}'
    ),
    ("classify-conic", "1/4,0,1/9,0,0,1"): (
        '{"coefficients": ["1/4", "0", "1/9", "0", "0", "1"], "command": "classify-conic", '
        '"kind": "Ellipse", "quadratic_inertia": [2, 0, 0], "schema": 1, "status": "ok"}'
    ),
    ("classify-quadric", "1,1,0,0,0,0"): (
        '{"command": "classify-quadric", "inertia": [2, 0, 1], "kind": "EllipticParaboloid", '
        '"note": "rank 2 < 3: the homogeneous classification is by the inertia table, but level '
        'sets of a degenerate form may flatten (e.g. into parallel planes)", "schema": 1, "status": "ok"}'
    ),
    ("diagonalize", "2,2,0,2,0,0"): (
        '{"command": "diagonalize", "diagonal_form": [0.0, 1.0, 3.0], "residual": 4.440892098500626e-16, '
        '"schema": 1, "status": "ok", "substitution": [[0.0, 0.0, 1.0], '
        '[0.7071067811865476, -0.7071067811865476, 0.0], [0.7071067811865476, 0.7071067811865476, 0.0]], '
        '"within_tolerance": true}'
    ),
    # eigenvalues 1, 1 and 7: exact null spaces of a rank-1 and a rank-2 shifted matrix
    ("diagonalize", "2,2,5,2,4,4"): (
        '{"command": "diagonalize", "diagonal_form": [1.0, 1.0, 7.0], "residual": 8.881784197001252e-16, '
        '"schema": 1, "status": "ok", "substitution": [[0.7071067811865476, -0.7071067811865476, 0.0], '
        '[0.5773502691896258, 0.5773502691896257, -0.5773502691896258], '
        '[0.4082482904638631, 0.4082482904638631, 0.8164965809277261]], "within_tolerance": true}'
    ),
    ("ngon", "9"): (
        '{"command": "ngon", "constructible": false, "constructible_text": "no", '
        '"factorization": {"3": 2}, "n": 9, "reason": "Fermat prime factor 3 appears 2 times", '
        '"schema": 1, "status": "ok", "violations": ["Fermat prime factor 3 appears 2 times"]}'
    ),
    ("trisect", "1/2"): (
        '{"command": "trisect", "constructible": false, "constructible_text": "no", "cos_3a": "1/2", '
        '"reason": "8*x^3 - 6*x - 1 has no rational root, hence is irreducible; degree 3 is not a '
        'power of 2", "schema": 1, "status": "ok", "witness_cubic": "-1,-6,0,8"}'
    ),
    ("double-cube",): (
        '{"command": "double-cube", "constructible": false, "constructible_text": "no", '
        '"reason": "x^3 - 2 has no rational root, hence is irreducible; degree 3 is not a power of 2", '
        '"schema": 1, "status": "ok", "volume_factor": "2", "witness_cubic": "-2,0,0,1"}'
    ),
    ("square-circle",): (
        '{"axiom": "transcendence of pi", "command": "square-circle", "constructible": false, '
        '"constructible_text": "no", "reason": "pi is transcendental (Lindemann, 1882), so sqrt(pi) '
        'is not algebraic over Q and lies in no finite tower of quadratic extensions; accepted as a '
        'documented fact, not computed here", "schema": 1, "status": "ok"}'
    ),
    ("construct-eval", "sqrt(2+sqrt(2))"): (
        '{"command": "construct-eval", "degree_bound": 4, "expression": "sqrt(2+sqrt(2))", '
        '"schema": 1, "status": "ok", "value": 1.8477590650225735}'
    ),
    ("integrate", "4,-1,2", "/", "0,4,0,1"): (
        '{"antiderivative": "ln|x| + 1/2*ln(x^2+4) - 1/2*arctan(x/2) + K", "command": "integrate", '
        '"denominator": "0,4,0,1", "numerator": "4,-1,2", "schema": 1, "status": "ok"}'
    ),
    ("integrate", "1,2,0,3,0,0,1,1", "/", "0,2,-4,3,-2,1"): (
        '{"antiderivative": "1/3*x^3 + 3/2*x^2 + 3*x + 1/2*ln|x| + 32/9*ln|x-1| - 8/3/(x-1) '
        '- 55/36*ln(x^2+2) - 2/9/sqrt(2)*arctan((x)/sqrt(2)) + K", "command": "integrate", '
        '"denominator": "0,2,-4,3,-2,1", "numerator": "1,2,0,3,0,0,1,1", "schema": 1, "status": "ok"}'
    ),
    ("partfrac", "4,-1,2", "/", "0,4,0,1"): (
        '{"command": "partfrac", "denominator": "0,4,0,1", "linear_terms": [["1", "0", 1]], '
        '"numerator": "4,-1,2", "polynomial_part": "0", "quadratic_terms": [["1", "-1", "0", "4"]], '
        '"schema": 1, "status": "ok"}'
    ),
    ("ellipse", "area", "2", "1"): (
        '{"a": 2.0, "b": 1.0, "command": "ellipse", "mode": "area", "schema": 1, "status": "ok", '
        '"value": 6.283185307179586}'
    ),
    ("param", "parabola", "1", "1", "2"): (
        '{"a": 1.0, "b": 1.0, "command": "param", "kind": "parabola", "residual": 0.0, "schema": 1, '
        '"status": "ok", "t": 2.0, "within_tolerance": true, "x": 4.0, "y": 4.0}'
    ),
    ("disc",): '{"error": "usage: disc <coeffs>", "kind": "usage", "schema": 1, "status": "error"}',
    ("trisect", "3/2"): (
        '{"error": "|cos 3a| must be <= 1, got 3/2", "kind": "domain", "schema": 1, "status": "error"}'
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_JSON), ids=lambda a: " ".join(a))
def test_golden_json_output(argv):
    assert run(["--json", *argv]).to_json() == GOLDEN_JSON[argv]


def test_json_builds_no_text(monkeypatch):
    def refuse(*args):
        raise AssertionError("the human text was built under --json")

    def textless(handler):
        return lambda args, opts: (handler(args, opts)[0], refuse)

    # the CLI's text-only helpers; Polynomial.__str__ and ratfun's renderers
    # also serve payloads, so they stay
    for name in ("_fmt", "_fmt_complex", "_join_terms"):
        monkeypatch.setattr(cli, name, refuse)
    commands = {name: (textless(handler), *rest) for name, (handler, *rest) in cli._COMMANDS.items()}
    monkeypatch.setattr(cli, "_COMMANDS", commands)
    assert {argv[0] for argv in GOLDEN_JSON} == set(commands)  # every subcommand
    for argv in sorted(GOLDEN_JSON):
        result = run(["--json", *argv])
        assert result.to_json() == GOLDEN_JSON[argv]
        assert result.human_text is None


MAIN_OUTPUTS = [
    # --tol takes "--json" as its value, and the argv still asks for JSON
    (["--tol", "--json", "disc", "2,-3,1"],
     '{"error": "malformed --tol value: \'--json\'", "kind": "usage", "schema": 1, "status": "error"}', 2),
    (["--tol", "disc", "2,-3,1"], "error: malformed --tol value: 'disc'", 2),
    (["disc", "--json", "2,-3,1"], GOLDEN_JSON[("disc", "2,-3,1")], 0),
    (["disc", "2,-3,1"], GOLDEN_HUMAN[("disc", "2,-3,1")], 0),
    (["disc", "2,-3,1", "--tol", "1e-3", "--json"], GOLDEN_JSON[("disc", "2,-3,1")], 0),
    (["disc", "2,-3,1", "--tol", "1e-3"], GOLDEN_HUMAN[("disc", "2,-3,1")], 0),
    (["--help", "--json"], json.dumps({"command": "help", "schema": 1, "status": "ok", "usage": HELP_TEXT}), 0),
    (["--help"], HELP_TEXT, 0),
    (["--json"], json.dumps(
        {"error": "no command given\n" + HELP_TEXT, "kind": "usage", "schema": 1, "status": "error"}), 2),
    ([], "error: no command given\n" + HELP_TEXT, 2),
]


@pytest.mark.parametrize("argv, stdout, exit_code", MAIN_OUTPUTS, ids=[" ".join(a) or "(empty)" for a, *_ in MAIN_OUTPUTS])
def test_main_prints_the_output_argv_asks_for(capsys, argv, stdout, exit_code):
    assert main(argv) == exit_code
    assert capsys.readouterr().out == stdout + "\n"


def test_classification_builds_no_characteristic_polynomial(monkeypatch):
    def refuse(m):
        raise AssertionError("inertia reads pivot signs, not char_poly")

    monkeypatch.setattr(forms, "char_poly", refuse)
    human = [argv for argv in sorted(GOLDEN_HUMAN) if argv[0].startswith("classify-")]
    machine = [argv for argv in sorted(GOLDEN_JSON) if argv[0].startswith("classify-")]
    assert {argv[0] for argv in human} == {argv[0] for argv in machine} == {"classify-conic", "classify-quadric"}
    for argv in human:
        assert run(list(argv)).human_text == GOLDEN_HUMAN[argv]
    for argv in machine:
        assert run(["--json", *argv]).to_json() == GOLDEN_JSON[argv]


def test_json_is_wellformed_and_versioned():
    for argv in sorted(GOLDEN_HUMAN):
        result = out(list(argv) + ["--json"])
        obj = json.loads(result.to_json())
        assert obj["schema"] == 1
        assert obj["status"] == "ok"


def test_byte_identical_reruns():
    for argv in sorted(GOLDEN_HUMAN):
        a = out(list(argv))
        b = out(list(argv))
        assert a.human_text == b.human_text
        assert a.to_json() == b.to_json()


def test_exit_codes():
    assert out([]).exit_code == 2
    assert out(["frobnicate"]).exit_code == 2
    assert out(["disc"]).exit_code == 2
    assert out(["disc", "1,1"]).exit_code == 1  # degree too low: domain error
    assert out(["disc", "2,-3,1"]).exit_code == 0
    assert out(["trisect", "3/2"]).exit_code == 1
    assert out(["ellipse", "perimeter", "1", "2"]).exit_code == 1
    assert out(["param", "hyperbola", "1", "1", "1"]).exit_code == 1
    assert out(["construct-eval", "sqrt(2"]).exit_code == 2
    assert out(["construct-eval", "sqrt(0-2)"]).exit_code == 1
    assert out(["--tol", "x", "disc", "2,-3,1"]).exit_code == 2
    assert out(["--help"]).exit_code == 0


@pytest.mark.parametrize("t", ["1", "-1"])
def test_hyperbola_poles_are_refused(t):
    result = run(["param", "hyperbola", "2", "1", t])
    assert result.exit_code == 1
    assert result.human_text == f"error: t = {float(t)} is a pole of the parametrization (t^2 = 1)"


def test_ellipse_has_no_pole_at_t_1():
    # x = a(1 - s*t^2)/(1 + s*t^2) with s = 1: t = 1 is the end of the minor axis, not a pole
    assert run(["param", "ellipse", "2", "1", "1"]).human_text == "ellipse(t=1) = (0, 1)   residual 0"
    payload = run(["--json", "param", "ellipse", "2", "1", "1"]).payload
    assert (payload["x"], payload["y"], payload["residual"]) == (0.0, 1.0, 0.0)


def test_perimeter_of_an_ellipse_thinner_than_the_double_range():
    # b/a = 1e-600 underflows, so the ellipse is a segment of length 2a, run twice
    result = run(["ellipse", "perimeter", "1e300", "1e-300"])
    assert result.human_text == "ellipse perimeter (a=1e+300, b=1e-300): 4e+300"
    assert run(["--json", "ellipse", "perimeter", "1e300", "1e-300"]).payload["value"] == 4e300


def test_error_messages_name_the_offender():
    result = out(["disc", "2,zebra,1"])
    assert result.exit_code != 0
    assert "zebra" in result.payload["error"] or "zebra" in result.human_text
    result = out(["mystery-command"])
    assert "mystery-command" in result.payload["error"]


def test_degree_cap_is_a_usage_error():
    huge = ",".join(["1"] * 80)
    assert out(["disc", huge]).exit_code == 2


def test_perimeter_ignores_the_environment(monkeypatch):
    # the AGM reaches double precision for every input, so no tolerance is read
    monkeypatch.delenv("KLASIKA_PRECISION", raising=False)
    want = out(["ellipse", "perimeter", "2", "1"]).to_json()
    for value in ("1e-14", "banana"):
        monkeypatch.setenv("KLASIKA_PRECISION", value)
        assert out(["ellipse", "perimeter", "2", "1"]).to_json() == want


@pytest.mark.parametrize("argv", [
    ["ellipse", "area", "1e200", "1e200"],
    ["param", "parabola", "1", "2", "1e200"],
    ["construct-eval", "*".join(["10"] * 401)],
    ["solve", "1e308,1e308,1e308,1e308"],
])
def test_non_finite_result_is_a_domain_error(argv):
    for mode in ([], ["--json"]):
        result = run(mode + argv)
        assert result.exit_code == 1
        assert result.payload["kind"] == "domain"
        assert "not a finite number" in result.payload["error"]


@pytest.mark.parametrize("a, b", [(1e200, 1.0), (1e-300, 1e-310)])
def test_ellipse_perimeter_at_extreme_scales(a, b):
    # b/a is below 1e-10, so the ellipse is a flat segment of perimeter 4a
    t0 = time.perf_counter()
    result = run(["ellipse", "perimeter", repr(a), repr(b)])
    assert time.perf_counter() - t0 < 0.5
    assert result.exit_code == 0
    assert result.payload["value"] == pytest.approx(4 * a, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["disc", "1e10000000,0,1"],
    ["trisect", "1e-1000000"],
    ["partfrac", "1", "/", "1e-1000000,1"],
    ["ellipse", "area", "1e-1000000", "1"],
])
def test_huge_decimal_exponent_is_refused_fast(argv):
    t0 = time.perf_counter()
    result = run(argv)
    assert time.perf_counter() - t0 < 0.25
    assert result.exit_code == 1
    assert "1e" in result.payload["error"]


def test_diagonalize_out_of_range_entries_are_refused_fast():
    # six 4000-digit entries: some eigenvalue is at least as large, so no float
    # answer exists, and the refusal comes before the exact eigenvalue isolation
    rng = random.Random(4000)
    entries = ",".join(str(rng.randrange(10**3999, 10**4000)) for _ in range(6))
    t0 = time.perf_counter()
    result = run(["diagonalize", entries])
    assert time.perf_counter() - t0 < 0.5
    assert result.exit_code == 1
    assert result.payload["error"] == "coefficient magnitude exceeds the double-precision range"


@pytest.mark.parametrize("argv", [
    ["diagonalize", "1e308,1e308,0,2e308,0,0"],  # in-range entries, the eigenvalue 2e308
    ["solve", "1,0,1e-400"],  # the leading coefficient underflows to 0.0
    ["solve", "1,0,0,1e-400"],
    ["construct-eval", "9" * 400],  # an integer literal beyond the double range
])
def test_float_range_is_named(argv):
    for mode in ([], ["--json"]):
        result = run(mode + argv)
        assert result.exit_code == 1
        assert result.payload == {
            "error": "coefficient magnitude exceeds the double-precision range", "kind": "domain",
        }


@pytest.mark.parametrize("argv", [["ellipse", "area", "1e400", "1"], ["param", "circle", "1e400", "1e400", "0"]])
def test_out_of_range_parameter_is_named(argv):
    # a well-formed number beyond the double range is not "malformed"
    for mode in ([], ["--json"]):
        result = run(mode + argv)
        assert result.exit_code == 1
        assert result.payload == {
            "error": "magnitude of a exceeds the double-precision range: '1e400'", "kind": "domain",
        }


def test_diagonalize_tolerance_is_relative_to_the_norm():
    # residual 3e-16 relative to |M| = 2e300: inside README's 1e-6*(1 + |M|)
    entries = ",".join(["1e300"] * 6)
    assert run(["diagonalize", entries]).payload["within_tolerance"] is True
    assert run(["--tol", "1e-6", "diagonalize", entries]).payload["within_tolerance"] is False


def test_decimal_exponent_within_the_limit_is_answered():
    result = run(["disc", "1e4290,0,1"])
    assert result.exit_code == 0
    assert result.payload["discriminant_resultant"] == str(-4 * 10**4290)


@pytest.mark.parametrize("argv, text, fields", [
    (["partfrac", "0", "/", "1,1"], "(0) / (x + 1) = 0",
     {"polynomial_part": "0", "linear_terms": [], "quadratic_terms": []}),
    (["integrate", "0", "/", "1,1"], "integral of (0) / (x + 1) dx = K", {"antiderivative": "K"}),
    # 0 = 0/((x^2+1)(x^2+4)) needs no factor of the quartic, which factor_real refuses
    (["partfrac", "0/4,0,5,0,1"], "(0) / (x^4 + 5*x^2 + 4) = 0",
     {"polynomial_part": "0", "linear_terms": [], "quadratic_terms": []}),
    (["integrate", "8,0,10,0,2", "/", "4,0,5,0,1"], "integral of (2*x^4 + 10*x^2 + 8) / (x^4 + 5*x^2 + 4) dx = 2*x + K",
     {"antiderivative": "2*x + K"}),
], ids=["partfrac-zero", "integrate-zero", "partfrac-zero-quartic", "integrate-divisible-quartic"])
def test_zero_remainder_is_answered(argv, text, fields):
    assert run(argv).human_text == text
    result = run(["--json", *argv])
    assert result.exit_code == 0
    assert {key: result.payload[key] for key in fields} == fields


@pytest.mark.parametrize("argv", [
    ["partfrac", "1", "/", "0"], ["integrate", "0", "/", "0,0"], ["partfrac", "1,2/0"],
])
def test_zero_denominator_is_named(argv):
    for mode in ([], ["--json"]):
        result = run(mode + argv)
        assert result.exit_code == 1
        assert result.payload == {"error": "denominator is the zero polynomial", "kind": "domain"}


@st.composite
def planted_rational_functions(draw):
    """(p, q) as CLI coefficient lists: q = lead * prod (x - r)^m over distinct
    rational roots, times at most one irreducible quadratic, of degree <= 16."""
    fractions = st.fractions(-12, 12, max_denominator=8)
    quadratic = draw(st.none() | st.tuples(fractions, st.fractions(1, 9, max_denominator=5).filter(bool)))
    roots = draw(st.dictionaries(fractions, st.integers(1, 4), min_size=quadratic is None, max_size=6))
    budget = 16 - 2 * (quadratic is not None)
    planted = []
    for r, m in roots.items():
        planted += [r] * min(m, budget - len(planted))
    q = expand_roots(planted, draw(fractions.filter(bool)))
    if quadratic is not None:  # x^2 + b*x + b^2/4 + d, d > 0, has no real root
        b, d = quadratic
        q = convolve(q, [b * b / 4 + d, b, Fraction(1)])
    p = draw(st.lists(fractions, max_size=len(q) + 1)) + [draw(fractions.filter(bool))]
    return ",".join(map(str, p)), ",".join(map(str, q))


@settings(deadline=None, max_examples=60)
@given(planted_rational_functions())
def test_partfrac_and_integrate_on_planted_denominators(pq):
    p, q = pq
    result = run(["--json", "partfrac", p, "/", q])
    assert result.status == "ok", result.payload
    poly_part, linear, quadratic = apart_terms(Polynomial.from_text(p), Polynomial.from_text(q))
    payload = result.payload
    assert payload["polynomial_part"] == poly_part.to_text()
    # a numerator sharing a factor with q leaves that term's coefficients at 0
    linear_terms = [(Fraction(a), Fraction(r), k) for a, r, k in payload["linear_terms"] if a != "0"]
    assert sorted(linear_terms, key=lambda t: t[1:]) == linear
    assert [
        tuple(map(Fraction, t)) for t in payload["quadratic_terms"] if t[:2] != ["0", "0"]
    ] == quadratic
    integral = run(["--json", "integrate", p, "/", q])
    assert integral.status == "ok", integral.payload


@st.composite
def planted_high_degree_rational_functions(draw):
    """(p, q) as coefficient lists, deg q in 17..64: q = lead * prod (x - r)^m
    over distinct rational roots, times at most one irreducible quadratic.
    The drawn multiplicities repeat in turn until the degree is filled."""
    fractions = st.fractions(-12, 12, max_denominator=8)
    quadratic = draw(st.none() | st.tuples(fractions, st.fractions(1, 9, max_denominator=5).filter(bool)))
    budget = draw(st.integers(17, 64)) - 2 * (quadratic is not None)
    roots = draw(st.lists(fractions, min_size=1, max_size=24, unique=True))
    mults = draw(st.lists(st.integers(1, 6), min_size=len(roots), max_size=len(roots)))
    planted = []
    while len(planted) < budget:
        for r, m in zip(roots, mults):
            planted += [r] * min(m, budget - len(planted))
    q = expand_roots(planted, draw(fractions.filter(bool)))
    if quadratic is not None:  # x^2 + b*x + b^2/4 + d, d > 0, has no real root
        b, d = quadratic
        q = convolve(q, [b * b / 4 + d, b, Fraction(1)])
    p = draw(st.lists(fractions, max_size=len(q) + 1)) + [draw(fractions.filter(bool))]
    return p, q


@settings(deadline=None, max_examples=25)
@given(planted_high_degree_rational_functions())
def test_high_degree_partfrac_json_recombines_to_p_over_q(pq):
    """Up to the degree cap, partfrac's --json strings, read back with
    Fraction and multiplied out on plain coefficient lists, give p/q exactly."""
    p, q = pq
    t0 = time.perf_counter()
    result = run(["--json", "partfrac", ",".join(map(str, p)), "/", ",".join(map(str, q))])
    assert time.perf_counter() - t0 < 1.0  # the ceiling of test_degree_64_decomposition_is_fast
    assert result.payload.get("kind") != "internal", result.payload
    assert result.status == "ok", result.payload
    payload = json.loads(result.to_json())
    num, den = recombine(
        [Fraction(c) for c in payload["polynomial_part"].split(",")],
        [(Fraction(a), Fraction(r), k) for a, r, k in payload["linear_terms"]],
        [tuple(map(Fraction, t)) for t in payload["quadratic_terms"]],
    )
    assert same_ratio(num, den, p, q)


# For each `_CONIC_TABLE` row, the signs of c, e and lambda in the canonical
# equation p*x^2 + c*y^2 + e*y = lambda (p, |c|, |e|, |lambda| > 0) whose Q and
# bordered B have that row's inertias.
_CANONICAL_CONICS = {
    ((2, 0, 0), (2, 1, 0)): (1, 0, 1),  # x^2 + y^2 = 1
    ((2, 0, 0), (2, 0, 1)): (1, 0, 0),  # x^2 + y^2 = 0
    ((2, 0, 0), (3, 0, 0)): (1, 0, -1),  # x^2 + y^2 = -1
    ((1, 1, 0), (2, 1, 0)): (-1, 0, -1),  # x^2 - y^2 = -1
    ((1, 1, 0), (1, 2, 0)): (-1, 0, 1),  # x^2 - y^2 = 1
    ((1, 1, 0), (1, 1, 1)): (-1, 0, 0),  # x^2 - y^2 = 0
    ((1, 0, 1), (2, 1, 0)): (0, 1, 1),  # x^2 + y = 1
    ((1, 0, 1), (1, 1, 1)): (0, 0, 1),  # x^2 = 1
    ((1, 0, 1), (1, 0, 2)): (0, 0, 0),  # x^2 = 0
    ((1, 0, 1), (2, 0, 1)): (0, 0, -1),  # x^2 = -1
}


def test_the_canonical_conics_cover_every_table_row():
    assert set(_CANONICAL_CONICS) == set(forms._CONIC_TABLE)
    for row, (c, e, lam) in _CANONICAL_CONICS.items():
        q, b = forms.SymMatrix([[1, 0], [0, c]]), forms.SymMatrix([[1, 0, 0], [0, c, e], [0, e, -lam]])
        assert (forms.inertia(q), forms.inertia(b)) == row


@st.composite
def planted_conics(draw):
    """(row, coefficients): a canonical conic with the inertias of one
    `_CONIC_TABLE` row, moved by an invertible rational affine map and scaled
    by a nonzero rational."""
    row = draw(st.sampled_from(sorted(_CANONICAL_CONICS)))
    c_sign, e_sign, lam_sign = _CANONICAL_CONICS[row]
    p, c, e, lam = draw(st.lists(st.fractions(1, 9, max_denominator=6), min_size=4, max_size=4))
    canonical = (p, Fraction(0), c_sign * c, Fraction(0), e_sign * e, lam_sign * lam)
    entries = st.fractions(-4, 4, max_denominator=2)
    pair = st.lists(entries, min_size=2, max_size=2)
    matrix = draw(st.lists(pair, min_size=2, max_size=2).filter(lambda m: m[0][0] * m[1][1] != m[0][1] * m[1][0]))
    scale = draw(entries.filter(bool))
    return row, [scale * v for v in transform_conic(canonical, matrix, draw(pair))]


@settings(deadline=None, max_examples=200)
@given(planted_conics())
def test_classify_conic_through_the_cli_on_every_table_row(planted):
    row, coeffs = planted
    result = run(["--json", "classify-conic", ",".join(map(str, coeffs))])
    assert result.status == "ok", result.payload  # so no error, "internal" or other
    kind = forms.ConicKind(result.payload["kind"])
    assert kind == classify_conic_by_schur(*coeffs)
    assert forms._CONIC_TABLE[row] == (forms.ConicKind.ELLIPSE if kind is forms.ConicKind.CIRCLE else kind)
    a, b, c = coeffs[:3]
    assert tuple(result.payload["quadratic_inertia"]) == numpy_inertia(forms.SymMatrix([[a, b / 2], [b / 2, c]]))


def _random_argv(rng: random.Random) -> list[str]:
    commands = [
        "disc", "repeated", "solve", "depress", "classify-conic", "classify-quadric",
        "diagonalize", "ngon", "trisect", "double-cube", "square-circle",
        "construct-eval", "integrate", "partfrac", "ellipse", "param",
    ]
    mode = rng.random()
    if mode < 0.5:
        # pure garbage tokens
        n = rng.randint(0, 6)
        alphabet = string.printable.strip()
        return ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30))) for _ in range(n)]
    tokens = [rng.choice(commands)]
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if kind < 0.4:
            tokens.append(",".join(str(rng.randint(-99, 99)) for _ in range(rng.randint(1, 7))))
        elif kind < 0.6:
            tokens.append(str(rng.randint(-10**6, 10**6)))
        elif kind < 0.7:
            tokens.append(rng.choice(["--json", "--tol", "0.5", "/", "area", "perimeter", "ellipse"]))
        else:
            alphabet = string.printable.strip()
            tokens.append("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 20))))
    return tokens


def _refuse_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def test_fuzz_never_crashes_smoke():
    rng = random.Random(1234)
    for _ in range(3000):
        argv = _random_argv(rng)
        assert sum(len(a) for a in argv) <= 1024
        result = run(argv)
        assert result.exit_code in (0, 1, 2)
        assert result.status in ("ok", "error")
        assert result.payload.get("kind") != "internal"
        json.loads(result.to_json(), parse_constant=_refuse_constant)


def test_json_and_plain_runs_agree():
    rng = random.Random(1234)  # the argv of test_fuzz_never_crashes_smoke
    for _ in range(3000):
        argv = _random_argv(rng)
        plain, machine = run(argv), run(["--json", *argv])
        assert (plain.status, plain.exit_code, plain.payload) == (machine.status, machine.exit_code, machine.payload)
        assert (plain.human_text is None) == ("--json" in argv)
        assert machine.human_text is None
