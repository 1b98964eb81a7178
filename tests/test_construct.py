import math
from fractions import Fraction

import pytest

from klasika.construct import (
    Add,
    Div,
    Mul,
    Num,
    Sqrt,
    Sub,
    circle_squaring,
    cube_doubling,
    cube_scaling,
    eval_constructible,
    is_fermat_prime,
    ngon_constructible,
    parse_constructible,
    trisectable,
)
from klasika.exact import Polynomial, rational_roots


def test_eval_examples():
    value, bound = eval_constructible(Sqrt(Num(2)))
    assert value == pytest.approx(math.sqrt(2), abs=1e-15)
    assert value**2 == pytest.approx(2.0) and bound == 2

    value, bound = eval_constructible(Div(Add(Num(1), Sqrt(Num(5))), Num(4)))
    assert value == pytest.approx((1 + math.sqrt(5)) / 4, abs=1e-15)
    assert value == pytest.approx(0.8090169943749475, abs=1e-12)
    assert bound == 2

    value, bound = eval_constructible(Sqrt(Add(Num(2), Sqrt(Num(2)))))
    assert value == pytest.approx(1.8477590650225735, abs=1e-12)
    assert bound == 4


def test_eval_errors():
    with pytest.raises(ValueError):
        eval_constructible(Sqrt(Num(-1)))
    with pytest.raises(ValueError):
        eval_constructible(Div(Num(1), Sub(Num(2), Num(2))))
    with pytest.raises(ValueError, match="exceeds the double-precision range"):
        eval_constructible(Num(10**400))


def test_parse_roundtrip():
    expr = parse_constructible("sqrt(2+sqrt(2))/4")
    value, bound = eval_constructible(expr)
    assert value == pytest.approx(math.sqrt(2 + math.sqrt(2)) / 4)
    assert bound == 4
    assert parse_constructible("-3") == Sub(Num(0), Num(3))
    assert parse_constructible("1/2") == Div(Num(1), Num(2))
    assert parse_constructible("2*(3+4)") == Mul(Num(2), Add(Num(3), Num(4)))


@pytest.mark.parametrize(
    "bad", ["", "sqrt", "sqrt 2", "1+", "(1", "1)", "2**3", "x+1", "1.5", "sqr(2)"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_constructible(bad)


def test_field_closure_random(rng):
    pool = [
        parse_constructible(s)
        for s in ("sqrt(2)", "1+sqrt(3)", "sqrt(2+sqrt(2))", "7/3", "sqrt(5)-2")
    ]
    for _ in range(200):
        e1, e2 = rng.choice(pool), rng.choice(pool)
        v1, b1 = eval_constructible(e1)
        v2, b2 = eval_constructible(e2)
        for node, op in ((Add, lambda a, b: a + b), (Sub, lambda a, b: a - b), (Mul, lambda a, b: a * b)):
            val, bound = eval_constructible(node(e1, e2))
            assert val == pytest.approx(op(v1, v2), rel=1e-12, abs=1e-12)
            assert bound <= b1 * b2
        if v2 != 0:
            val, bound = eval_constructible(Div(e1, e2))
            assert val == pytest.approx(v1 / v2, rel=1e-12)
            assert bound <= b1 * b2


def test_fermat_primes():
    assert [p for p in range(2, 70000) if is_fermat_prime(p)] == [3, 5, 17, 257, 65537]
    assert is_fermat_prime(7) is False
    assert is_fermat_prime(4294967297) is False  # 641 * 6700417
    assert is_fermat_prime(1) is False
    with pytest.raises(ValueError):
        is_fermat_prime(2**64 + 10)


def test_ngon_9_and_20():
    assert ngon_constructible(9).constructible is False
    assert ngon_constructible(20).constructible is True


def test_ngon_known_constructible_list():
    for n in (3, 4, 5, 6, 8, 10, 12, 15, 16, 17, 20, 24):
        verdict = ngon_constructible(n)
        assert verdict.constructible is True, n
        assert verdict.reason


def test_ngon_known_impossible():
    for n in (7, 11, 13, 14, 18, 25):
        verdict = ngon_constructible(n)
        assert verdict.constructible is False, n
        assert verdict.details["violations"]


def test_ngon_doubling_is_free():
    for n in range(3, 60):
        assert ngon_constructible(2 * n).constructible == ngon_constructible(n).constructible


def test_ngon_large_cofactor():
    verdict = ngon_constructible(2 * 1000003)  # 1000003 is prime, > 65537
    assert verdict.constructible is False
    assert ngon_constructible(65537 * 65537).constructible is False
    with pytest.raises(ValueError):
        ngon_constructible(2)


def test_trisect_paper_values():
    for value in (Fraction(1, 2), Fraction(1, 3), Fraction(-1, 2)):
        verdict = trisectable(value)
        assert verdict.constructible is False, value
        witness = Polynomial.from_text(verdict.details["witness_cubic"])
        assert rational_roots(witness) == []  # the witness is re-checkable
        assert witness.degree == 3
    assert trisectable(Fraction(1, 2)).details["witness_cubic"] == "-1,-6,0,8"


def test_trisect_right_angle():
    verdict = trisectable(0)
    assert verdict.constructible is True
    witness = Polynomial.from_text(verdict.details["witness_cubic"])
    root = Fraction(verdict.details["rational_root"])
    cofactor = Polynomial.from_text(verdict.details["quadratic_cofactor"])
    assert cofactor * Polynomial([-root, 1]) == witness  # factorization reproduces the cubic
    # cos(30 degrees) = sqrt(3)/2 really is a root of the quadratic cofactor
    assert abs(cofactor(math.sqrt(3) / 2)) < 1e-12


def test_trisect_domain():
    with pytest.raises(ValueError):
        trisectable(Fraction(3, 2))
    assert trisectable(1).constructible is True  # 4x^3-3x-1 = (x-1)(2x+1)^2


def test_cube_doubling_and_scaling():
    verdict = cube_doubling()
    assert verdict.constructible is False
    assert "x^3 - 2" in verdict.reason.replace("*", " ").replace("x^3", "x^3") or "2" in verdict.details["witness_cubic"]
    witness = Polynomial.from_text(verdict.details["witness_cubic"])
    assert witness == Polynomial([-2, 0, 0, 1])
    assert rational_roots(witness) == []
    assert cube_scaling(8).constructible is True
    assert cube_scaling(4).constructible is False
    assert cube_scaling(Fraction(27, 8)).constructible is True
    with pytest.raises(ValueError):
        cube_scaling(0)


def test_circle_squaring():
    verdict = circle_squaring()
    assert verdict.constructible is False
    assert "transcendental" in verdict.reason


def test_false_verdicts_carry_checkable_witnesses():
    for verdict in (trisectable(Fraction(1, 3)), cube_scaling(4)):
        witness = Polynomial.from_text(verdict.details["witness_cubic"])
        assert witness.degree == 3
        assert rational_roots(witness) == []
    ngon = ngon_constructible(7)
    assert "7" in "".join(ngon.details["violations"])


def test_verdict_truthiness_is_blocked():
    with pytest.raises(TypeError):
        bool(cube_doubling())
