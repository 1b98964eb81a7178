import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from klasika.cli import run
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
    # a number is a run of decimal digits, the characters Fraction reads as digits;
    # a superscript is refused by the tokenizer, not by Fraction
    with pytest.raises(ValueError, match="unexpected character '²'"):
        parse_constructible("3²")
    for mode in ([], ["--json"]):
        result = run(mode + ["construct-eval", "3²"])
        assert result.exit_code == 2
        assert result.payload == {"error": "cannot parse expression: unexpected character '²'", "kind": "usage"}


def test_parse_roundtrip():
    expr = parse_constructible("sqrt(2+sqrt(2))/4")
    value, bound = eval_constructible(expr)
    assert value == pytest.approx(math.sqrt(2 + math.sqrt(2)) / 4)
    assert bound == 4
    assert parse_constructible("-3") == Sub(Num(0), Num(3))
    assert parse_constructible("1/2") == Div(Num(1), Num(2))
    assert parse_constructible("2*(3+4)") == Mul(Num(2), Add(Num(3), Num(4)))
    # an Arabic-Indic digit is a decimal digit, here as in `disc 1,٣,1`
    assert parse_constructible("٣") == Num(3)
    assert run(["--json", "construct-eval", "٣"]).payload["value"] == 3.0
    assert run(["--json", "disc", "1,٣,1"]).payload["discriminant_resultant"] == "5"


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


def test_eval_refuses_a_non_node():
    with pytest.raises(TypeError, match="not a constructible expression node"):
        eval_constructible("1")


def test_number_literal_digit_limit():
    # int() converts at most 4300 digits by default; past that the tokenizer refuses
    # the literal in its own words, as it refuses an overlong expression
    too_long = "cannot parse expression: a number has more than 4300 digits"
    for mode in ([], ["--json"]):
        for text in ("9" * 4301, "1+" + "0" * 4300 + "1"):
            result = run(mode + ["construct-eval", text])
            assert result.exit_code == 2
            assert result.payload == {"error": too_long, "kind": "usage"}
        # up to the limit a literal parses, and one past the double range is a domain error
        for digits in (310, 4300):
            result = run(mode + ["construct-eval", "9" * digits])
            assert result.exit_code == 1
            assert result.payload == {"error": "coefficient magnitude exceeds the double-precision range", "kind": "domain"}
    assert parse_constructible("0" * 4299 + "7") == Num(7)


def test_long_sign_chains_answer_the_same_in_process_and_cold():
    # the parser reads a run of unary signs in a loop and the evaluator walks the
    # tree with an explicit stack, so up to the 2000-token cap the answer depends
    # on the text only, not on how deep the interpreter's stack already is
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cases = {"-" * 1999 + "1": -1.0, "+" * 1999 + "1": 1.0, "1" + "-1" * 999: -998.0, "-(" * 50 + "1" + ")" * 50: 1.0}
    for text, value in cases.items():
        for mode in (["--json"], []):
            argv = [*mode, "construct-eval", text]
            result = run(argv)
            assert result.exit_code == 0 and result.payload["value"] == value
            cold = subprocess.run(
                [sys.executable, "-m", "klasika.cli", *argv], capture_output=True, text=True, env=env, timeout=60
            )
            assert (cold.returncode, cold.stdout) == (0, (result.human_text or result.to_json()) + "\n")
    assert parse_constructible("--+-7") == Sub(Num(0), Sub(Num(0), Sub(Num(0), Num(7))))
    # each sign still counts one level toward the nesting limit of a parenthesis after it
    for text, error in (("-" * 2000 + "1", "expression too long"), ("-" * 100 + "(1)", "expression is nested too deeply")):
        assert run(["--json", "construct-eval", text]).payload == {"error": f"cannot parse expression: {error}", "kind": "usage"}


# -- generated expressions ---------------------------------------------------------

_SYMBOL = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_LEVEL = {Add: 0, Sub: 0, Mul: 1, Div: 1}  # 2 is an atom: a number, sqrt(...), (...) or a signed atom

_trees = st.recursive(
    st.sampled_from([*range(30), 10**20, 10**200, 10**400]).map(Num),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(list(_SYMBOL)), children, children).map(lambda t: t[0](t[1], t[2])),
        children.map(Sqrt),
        children.map(lambda e: Sub(Num(0), e)),  # unary minus
    ),
    max_leaves=12,
)


def _tokens(expr, rnd, level=0):
    """Tokens of a text that parses to `expr` where an operand of binding at
    least `level` is expected, with redundant parentheses, unary pluses and
    leading zeros thrown in."""
    if isinstance(expr, Num):
        out, own = ["0" * rnd.choice((0, 0, 0, 1, 2)) + str(expr.value)], 2
    elif isinstance(expr, Sqrt):
        out, own = ["sqrt", "(", *_tokens(expr.operand, rnd), ")"], 2
    elif isinstance(expr, Sub) and expr.left == Num(0) and rnd.random() < 0.6:
        out, own = ["-", *_tokens(expr.right, rnd, 2)], 2
    else:
        own = _LEVEL[type(expr)]
        out = [*_tokens(expr.left, rnd, own), _SYMBOL[type(expr)], *_tokens(expr.right, rnd, own + 1)]
    if own < level or rnd.random() < 0.1:
        out = ["(", *out, ")"]
    return ["+", *out] if rnd.random() < 0.05 else out


def _join(tokens, rnd):
    return "".join(rnd.choice(("", "", " ", "\t")) + tok for tok in tokens) + rnd.choice(("", " "))


_PARSER_ERRORS = re.compile(
    "cannot parse expression: (unexpected end of expression|missing closing parenthesis( after sqrt operand)?"
    "|sqrt must be followed by a parenthesized operand|unexpected (token|character) '.+')"
)


@settings(deadline=None, max_examples=300)
@given(_trees, st.randoms(use_true_random=False))
def test_generated_expressions_round_trip_and_evaluate(expr, rnd):
    text = _join(_tokens(expr, rnd), rnd)
    assert parse_constructible(text) == expr
    result = run(["--json", "construct-eval", text])
    try:
        value, bound = eval_constructible(expr)
        if not math.isfinite(value):
            raise ValueError(f"the result {value} is not a finite number")
    except ValueError as exc:
        assert (result.exit_code, result.payload) == (1, {"error": str(exc), "kind": "domain"})
    else:
        assert result.exit_code == 0
        assert (result.payload["value"], result.payload["degree_bound"]) == (value, bound)


@settings(deadline=None, max_examples=300)
@given(_trees, st.randoms(use_true_random=False), st.sampled_from(["paren", "last", "stray"]))
def test_mutated_expressions_are_refused_by_the_parser(expr, rnd, mutation):
    # a well-formed text has balanced parentheses and ends in a number or ")", and no
    # stray character belongs to the language: each mutation below is malformed
    tokens = _tokens(expr, rnd)
    if mutation == "stray":
        text = _join(tokens, rnd)
        at = rnd.randint(0, len(text))
        text = text[:at] + rnd.choice("x.^,=[²") + text[at:]
    else:
        parens = [i for i, tok in enumerate(tokens) if tok in ("(", ")")]
        del tokens[rnd.choice(parens) if mutation == "paren" and parens else -1]
        text = _join(tokens, rnd)
    result = run(["--json", "construct-eval", text])
    assert result.exit_code == 2 and result.payload["kind"] == "usage"
    assert _PARSER_ERRORS.fullmatch(result.payload["error"]), result.payload["error"]


def test_fermat_primes():
    assert [p for p in range(2, 70000) if is_fermat_prime(p)] == [3, 5, 17, 257, 65537]
    assert is_fermat_prime(7) is False
    assert is_fermat_prime(4294967297) is False  # 641 * 6700417
    assert is_fermat_prime(1) is False
    with pytest.raises(ValueError):
        is_fermat_prime(2**64 + 10)


def _smallest_factor(n: int) -> int:
    """The least divisor d >= 2 of n >= 2, by trial division."""
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)


def test_fermat_primes_match_a_trial_division_oracle():
    """Every integer in [-10, 2^20], F5 and the 2^64 cap against the
    definition: a Fermat number 2^(2^r) + 1 that trial division finds prime."""
    fermat_numbers = {2 ** (2**r) + 1 for r in range(6)}
    for n in [*range(-10, 2**20 + 1), 2**32 + 1, 2**64]:
        assert is_fermat_prime(n) is (n in fermat_numbers and _smallest_factor(n) == n), n
    assert _smallest_factor(2**32 + 1) == 641  # Euler's factor of F5
    with pytest.raises(ValueError, match="up to 2\\^64 only"):
        is_fermat_prime(2**64 + 1)  # F6, just above the cap


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


def test_trisect_cofactor_reproduces_the_cubic():
    # cos(3a) = 4r^3 - 3r for a rational r in [-1, 1]: the root found need not be r
    for r in (Fraction(p, q) for q in range(1, 8) for p in range(-q, q + 1)):
        verdict = trisectable(4 * r**3 - 3 * r)
        witness = Polynomial.from_text(verdict.details["witness_cubic"])
        root = Fraction(verdict.details["rational_root"])
        cofactor = Polynomial.from_text(verdict.details["quadratic_cofactor"])
        assert cofactor * Polynomial([-root, 1]) == witness, r


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
