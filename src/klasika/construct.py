"""Compass-and-straightedge constructibility verdicts.

A constructible number lives in a tower of quadratic extensions of Q, so its
degree over Q is a power of two.  The checks implemented here are the ones
that are exact and total at this scale:

* cubics are irreducible over Q exactly when they have no rational root, so
  angle trisection and cube scaling get definitive verdicts with a checkable
  witness (an irreducible integer cubic, or an explicit factorization);
* regular n-gons reduce to the factorization of n: every odd prime factor
  must be a Fermat prime (2^2^r + 1) and appear exactly once;
* squaring the circle is settled by the transcendence of pi, which is taken
  as a documented fact rather than something this code could compute.

Expression trees over Q closed under +, -, *, / and square roots carry an
upper bound 2^(number of sqrt nodes) for the degree of their value over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _EXPORTS, _Record
from .exact import Polynomial, RationalLike, _as_fraction, _clear_denominators, _coeff_float, _divide, rational_roots

__all__ = list(_EXPORTS["construct"])


# -- expression trees ------------------------------------------------------------


class Num(_Record):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", _as_fraction(self.value))


class Add(_Record):
    left: "ConstructibleExpr"
    right: "ConstructibleExpr"


class Sub(_Record):
    left: "ConstructibleExpr"
    right: "ConstructibleExpr"


class Mul(_Record):
    left: "ConstructibleExpr"
    right: "ConstructibleExpr"


class Div(_Record):
    left: "ConstructibleExpr"
    right: "ConstructibleExpr"


class Sqrt(_Record):
    operand: "ConstructibleExpr"


ConstructibleExpr = Num | Add | Sub | Mul | Div | Sqrt


def eval_constructible(expr: ConstructibleExpr) -> tuple[float, int]:
    """Numeric value plus the tower bound 2^(number of sqrt nodes).

    Every square root adds at most one quadratic extension, so the product
    of the operand bounds (equivalently, two to the total sqrt count) bounds
    the degree of the value over Q.
    """
    if isinstance(expr, Num):
        return _coeff_float(expr.value), 1
    if isinstance(expr, Sqrt):
        val, bound = eval_constructible(expr.operand)
        if val < 0:
            raise ValueError(f"square root of a negative value: {val!r}")
        return math.sqrt(val), 2 * bound
    lv, lb = eval_constructible(expr.left)
    rv, rb = eval_constructible(expr.right)
    bound = lb * rb
    if isinstance(expr, Add):
        return lv + rv, bound
    if isinstance(expr, Sub):
        return lv - rv, bound
    if isinstance(expr, Mul):
        return lv * rv, bound
    if isinstance(expr, Div):
        if rv == 0.0:
            raise ValueError("division by zero in constructible expression")
        return lv / rv, bound
    raise TypeError(f"not a constructible expression node: {expr!r}")


_MAX_PARSE_DEPTH = 100


def parse_constructible(text: str) -> ConstructibleExpr:
    """Parse infix syntax with +, -, *, /, parentheses and sqrt(...)."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_expr(depth):
        if depth > _MAX_PARSE_DEPTH:
            raise ValueError("expression is nested too deeply")
        node = parse_term(depth)
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term(depth)
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(depth):
        node = parse_unary(depth)
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_unary(depth)
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_unary(depth):
        if peek() == "-":
            take()
            return Sub(Num(0), parse_unary(depth + 1))
        if peek() == "+":
            take()
            return parse_unary(depth + 1)
        return parse_atom(depth)

    def parse_atom(depth):
        tok = take()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if tok == "(":
            node = parse_expr(depth + 1)
            if take() != ")":
                raise ValueError("missing closing parenthesis")
            return node
        if tok == "sqrt":
            if take() != "(":
                raise ValueError("sqrt must be followed by a parenthesized operand")
            node = parse_expr(depth + 1)
            if take() != ")":
                raise ValueError("missing closing parenthesis after sqrt operand")
            return Sqrt(node)
        if tok.isdecimal():
            return Num(Fraction(tok))
        raise ValueError(f"unexpected token {tok!r}")

    node = parse_expr(0)
    if pos != len(tokens):
        raise ValueError(f"unexpected token {tokens[pos]!r}")
    return node


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/()":
            tokens.append(ch)
            i += 1
        elif ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word != "sqrt":
                raise ValueError(f"unexpected token {word!r}")
            tokens.append(word)
            i = j
        else:
            raise ValueError(f"unexpected character {ch!r}")
    if len(tokens) > 2000:
        raise ValueError("expression too long")
    return tokens


# -- verdicts ---------------------------------------------------------------------


class ConstructibilityVerdict(_Record):
    """constructible is True, False, or None for `unknown`; the reason always
    carries the degree/factorization evidence behind the call."""

    constructible: bool | None
    reason: str
    details: dict

    def __init__(self, constructible: bool | None, reason: str, details: dict | None = None):
        super().__init__(constructible, reason, {} if details is None else details)

    def __bool__(self):
        raise TypeError("verdict truthiness is ambiguous; use .constructible")


# -- Fermat primes and regular n-gons ---------------------------------------------

_INPUT_CAP = 2**64


def is_fermat_prime(p: int) -> bool:
    """True iff p is prime and of the form 2^(2^r) + 1.

    The shape of p - 1 is checked first, which leaves only finitely many
    candidates below the 2^64 input cap; those are settled by deterministic
    trial division up to sqrt(p).
    """
    if p < 2:
        return False
    if p > _INPUT_CAP:
        raise ValueError("is_fermat_prime accepts inputs up to 2^64 only")
    m = p - 1
    if m & (m - 1) != 0:
        return False
    k = m.bit_length() - 1  # p = 2^k + 1
    if k == 0 or k & (k - 1) != 0:
        return False  # k must itself be a power of two
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _strip(n: int, p: int) -> tuple[int, int]:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return n, k


def ngon_constructible(n: int) -> ConstructibilityVerdict:
    """Whether the regular n-gon is compass-and-straightedge constructible.

    Constructible exactly when n = 2^k * p1 * ... * ps with distinct Fermat
    primes p_i.  Factors are pulled out by trial division up to 65537; any
    surviving cofactor has only prime factors above that, and no Fermat
    prime exists there for any input this function could be handed (the
    Fermat numbers F5 through F32 are all known composite), so a nontrivial
    cofactor settles the verdict as negative.
    """
    if n < 3:
        raise ValueError("a polygon needs n >= 3 vertices")
    m, twos = _strip(n, 2)
    odd: dict[int, int] = {}  # ascending: the odd primes up to 65537, then any cofactor
    d = 3
    while d * d <= m and d <= 65537:
        if m % d == 0:
            m, odd[d] = _strip(m, d)
        d += 2
    if m > 1:
        odd[m] = 1  # a prime if m <= 65537, else a product of primes above 65537
    violations = []
    for p, k in odd.items():
        if p > 65537:
            violations.append(
                f"odd cofactor {p} has no prime factor <= 65537 and therefore no Fermat prime factor"
            )
        elif not is_fermat_prime(p):
            violations.append(f"odd prime factor {p} is not a Fermat prime")
        elif k > 1:
            violations.append(f"Fermat prime factor {p} appears {k} times")
    details = {
        "n": n,
        "factorization": {str(p): k for p, k in {2: twos, **odd}.items() if k},
        "violations": violations,
    }
    if violations:
        return ConstructibilityVerdict(False, "; ".join(violations), details)
    reason = f"n = 2^{twos}" + "".join(f" * {p}" for p in odd)
    reason += ": every odd prime factor is a distinct Fermat prime"
    return ConstructibilityVerdict(True, reason, details)


# -- trisection, cube scaling, circle squaring ------------------------------------


def trisectable(cos3a: RationalLike) -> ConstructibilityVerdict:
    """Can an angle with rational cos(3a) be trisected?

    cos(a) is a root of 4x^3 - 3x - cos(3a).  If that cubic has a rational
    root it splits off a quadratic cofactor, so cos(a) has degree at most 2
    and the trisection is constructible; with no rational root the cubic is
    irreducible and the degree 3 is not a power of two.
    """
    cos3a = _as_fraction(cos3a)
    if abs(cos3a) > 1:
        raise ValueError(f"|cos 3a| must be <= 1, got {cos3a}")
    details = {"cos_3a": str(cos3a)}

    def split(cubic: Polynomial, r: Fraction) -> str:
        # cubic = (s*x - u) * q over Z for r = u/s, so cubic // (x - r) is s * q
        q = _divide([c.numerator for c in cubic.coeffs], [-r.numerator, r.denominator])
        details["quadratic_cofactor"] = Polynomial([r.denominator * c for c in q]).to_text()
        return f"{cubic} has rational root {r}; cos(a) has degree <= 2 over Q"

    return _cubic_verdict([-cos3a, -3, 0, 4], details, split)


def cube_scaling(factor: RationalLike) -> ConstructibilityVerdict:
    """Can the edge of a cube scaled in volume by `factor` be constructed?"""
    factor = _as_fraction(factor)
    if factor <= 0:
        raise ValueError("volume factor must be positive")
    return _cubic_verdict(
        [-factor, 0, 0, 1], {"volume_factor": str(factor)},
        lambda cubic, r: f"the cube root of {factor} is the rational number {r}",
    )


def _cubic_verdict(coeffs: list, details: dict, root_reason) -> ConstructibilityVerdict:
    """The verdict on a witness cubic (ascending rational coefficients): yes if
    it has a rational root, for the reason `root_reason(cubic, root)` gives;
    otherwise no, since it is then irreducible of degree 3."""
    cubic = Polynomial(_clear_denominators(coeffs)[1])
    details["witness_cubic"] = cubic.to_text()
    roots = rational_roots(cubic)
    if roots:
        details["rational_root"] = str(roots[0])
        return ConstructibilityVerdict(True, root_reason(cubic, roots[0]), details)
    return ConstructibilityVerdict(
        False,
        f"{cubic} has no rational root, hence is irreducible; degree 3 is not a power of 2",
        details,
    )


def cube_doubling() -> ConstructibilityVerdict:
    """The classical impossibility: x^3 - 2 is irreducible of degree 3."""
    verdict = cube_scaling(2)
    assert verdict.constructible is False
    return verdict


def circle_squaring() -> ConstructibilityVerdict:
    """Constant verdict; rests on the transcendence of pi, not computation."""
    return ConstructibilityVerdict(
        False,
        "pi is transcendental (Lindemann, 1882), so sqrt(pi) is not algebraic over Q "
        "and lies in no finite tower of quadratic extensions; accepted as a documented "
        "fact, not computed here",
        {"axiom": "transcendence of pi"},
    )

