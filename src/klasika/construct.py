"""Compass-and-straightedge constructibility verdicts.

A constructible number lives in a tower of quadratic extensions of Q, so its
degree over Q is a power of two.  The checks implemented here are the ones
that are exact and total at this scale:

* cubics are irreducible over Q exactly when they have no rational root, so
  angle trisection and cube scaling get definitive verdicts with a checkable
  witness (an irreducible integer cubic, or an explicit factorization);
* regular n-gons reduce to the factorization of n: every odd prime factor
  must be a Fermat prime (2^2^r + 1) and appear exactly once.  Below the
  2^64 input cap those are F0..F4 = 3, 5, 17, 257, 65537, since Euler showed
  F5 = 2^32 + 1 = 641 * 6700417;
* squaring the circle is settled by the transcendence of pi, which is taken
  as a documented fact rather than something this code could compute.

Expression trees over Q closed under +, -, *, / and square roots carry an
upper bound 2^(number of sqrt nodes) for the degree of their value over Q.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import groupby

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

# The binary operators by precedence level, loosest first, each with its tree
# node and float operation; the tokenizer, parser and evaluator read them here.
_BINARY = (
    {"+": (Add, operator.add), "-": (Sub, operator.sub)},
    {"*": (Mul, operator.mul), "/": (Div, operator.truediv)},
)
_FLOAT_OPS = {node: apply for level in _BINARY for node, apply in level.values()}
_SYMBOLS = "()" + "".join(op for level in _BINARY for op in level)


def eval_constructible(expr: ConstructibleExpr) -> tuple[float, int]:
    """Numeric value plus the tower bound 2^(number of sqrt nodes).

    Every square root adds at most one quadratic extension, so the product
    of the operand bounds (equivalently, two to the total sqrt count) bounds
    the degree of the value over Q.  The tree is walked depth first, left
    to right, with an explicit stack, so its depth is bounded by the parser's
    limits and not by the interpreter's recursion limit.
    """
    todo, done = [(expr, False)], []  # (node, children done); (value, bound) per finished subtree
    while todo:
        node, ready = todo.pop()
        if isinstance(node, Num):
            done.append((_coeff_float(node.value), 1))
        elif not ready:
            if isinstance(node, Sqrt):
                todo += [(node, True), (node.operand, False)]
            elif type(node) in _FLOAT_OPS:
                todo += [(node, True), (node.right, False), (node.left, False)]
            else:
                raise TypeError(f"not a constructible expression node: {node!r}")
        elif isinstance(node, Sqrt):
            val, bound = done.pop()
            if val < 0:
                raise ValueError(f"square root of a negative value: {val!r}")
            done.append((math.sqrt(val), 2 * bound))
        else:
            rv, rb = done.pop()
            lv, lb = done.pop()
            if rv == 0.0 and isinstance(node, Div):
                raise ValueError("division by zero in constructible expression")
            done.append((_FLOAT_OPS[type(node)](lv, rv), lb * rb))
    return done[0]


_MAX_PARSE_DEPTH = 100


def parse_constructible(text: str) -> ConstructibleExpr:
    """Parse infix syntax with +, -, *, /, parentheses and sqrt(...)."""
    tokens = _tokenize(text)
    pos = 0

    def take(expected=None, error=None):
        """The next token, consumed if it is in `expected` (any token if that
        is None); otherwise ValueError(error), or None if no error is given."""
        nonlocal pos
        tok = tokens[pos] if pos < len(tokens) else None
        if tok is not None and (expected is None or tok in expected):
            pos += 1
            return tok
        if error:
            raise ValueError(error)

    def parse_binary(depth, level=0):
        """A left-associative chain of the operators at `level` of _BINARY
        over operands of the next level; past the last level, an atom."""
        if level == len(_BINARY):
            return parse_atom(depth)
        if depth > _MAX_PARSE_DEPTH:
            raise ValueError("expression is nested too deeply")
        node = parse_binary(depth, level + 1)
        while op := take(_BINARY[level]):
            node = _BINARY[level][op][0](node, parse_binary(depth, level + 1))
        return node

    def parse_atom(depth):
        """An atom after a run of unary signs, each "-" taken as 0 - (what
        follows); every sign counts one level of nesting."""
        signs = []
        while (tok := take(None, "unexpected end of expression")) in ("-", "+"):
            signs.append(tok)
        depth += len(signs)
        if tok == "(":
            node = parse_binary(depth + 1)
            take(")", "missing closing parenthesis")
        elif tok == "sqrt":
            take("(", "sqrt must be followed by a parenthesized operand")
            node = Sqrt(parse_binary(depth + 1))
            take(")", "missing closing parenthesis after sqrt operand")
        elif tok.isdecimal():
            node = Num(Fraction(int(tok)))
        else:
            raise ValueError(f"unexpected token {tok!r}")
        for _ in range(signs.count("-")):
            node = Sub(Num(0), node)
        return node

    node = parse_binary(0)
    if pos != len(tokens):
        raise ValueError(f"unexpected token {tokens[pos]!r}")
    return node


def _tokenize(text: str) -> list[str]:
    """Runs of digits, runs of letters and single symbols; space separates."""
    tokens = []
    for key, run in groupby(text, lambda ch: "digits" if ch.isdecimal() else "letters" if ch.isalpha() else ch):
        if key == "digits" or key == "letters":
            word = "".join(run)
            if key == "letters" and word != "sqrt":
                raise ValueError(f"unexpected token {word!r}")
            if len(word) > 4300:  # the longest digit string int() converts by default
                raise ValueError("a number has more than 4300 digits")
            tokens.append(word)
        elif key in _SYMBOLS:
            tokens.extend(run)
        elif not key.isspace():
            raise ValueError(f"unexpected character {key!r}")
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
    """True iff p is prime and of the form 2^(2^r) + 1: up to the 2^64 input
    cap, one of F0..F4, as Euler's F5 = 641 * 6700417 is composite and
    F6 = 2^64 + 1 lies above the cap."""
    if p > _INPUT_CAP:
        raise ValueError("is_fermat_prime accepts inputs up to 2^64 only")
    return p in (3, 5, 17, 257, 65537)


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
    return cube_scaling(2)


def circle_squaring() -> ConstructibilityVerdict:
    """Constant verdict; rests on the transcendence of pi, not computation."""
    return ConstructibilityVerdict(
        False,
        "pi is transcendental (Lindemann, 1882), so sqrt(pi) is not algebraic over Q "
        "and lies in no finite tower of quadratic extensions; accepted as a documented "
        "fact, not computed here",
        {"axiom": "transcendence of pi"},
    )

