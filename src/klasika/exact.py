"""Exact rational numbers and dense univariate polynomial arithmetic.

``Rational`` is an alias for :class:`fractions.Fraction`: arbitrary-precision
integers top and bottom, always stored reduced with a positive denominator,
so every arithmetic result is exact.

A :class:`Polynomial` stores its coefficients in a tuple, ascending by degree
(index i holds the coefficient of x**i).  Trailing zero coefficients are
stripped on construction; the zero polynomial is the empty tuple and reports
degree ``-inf``.  All values are immutable, all operations are pure
functions, so everything here is safe to share between threads.

Text format (shared with the command line): coefficients ascending, comma
separated, each entry an integer or ``p/q`` fraction.  ``-1,0,-6,8`` is the
polynomial 8x^3 - 6x - 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int, str]

__all__ = [
    "Rational",
    "Polynomial",
    "poly_gcd",
    "rational_roots",
]


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int, or 'p/q' string")
    return Fraction(value)


def _coeff_float(c: Fraction) -> float:
    try:
        return float(c)
    except OverflowError:
        raise ValueError("coefficient magnitude exceeds the double-precision range") from None


class Polynomial:
    """Dense univariate polynomial over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Polynomial":
        """Parse the ascending comma-separated coefficient format."""
        parts = text.split(",")
        try:
            return cls(Fraction(part.strip()) for part in parts)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed coefficient list: {text!r}") from None

    @classmethod
    def x_power(cls, k: int, coeff: RationalLike = 1) -> "Polynomial":
        """The monomial coeff * x**k."""
        return cls([0] * k + [coeff])

    def to_text(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self):
        """Degree of the polynomial; -inf for the zero polynomial."""
        if not self.coeffs:
            return float("-inf")
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial([other])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(str(c) for c in self.coeffs)}])"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                body = xpart if mag == 1 else f"{mag}*{xpart}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    # -- ring arithmetic -------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return -(self - other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return Polynomial([c * a for a in self.coeffs])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Polynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(other.coeffs) - 1
        dlead = other.coeffs[-1]
        if len(rem) - 1 < dn:
            return Polynomial(), self
        quot = [Fraction(0)] * (len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / dlead
            quot[i - dn] = q
            for j in range(dn + 1):
                rem[i - dn + j] -= q * other.coeffs[j]
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial([other])
        return NotImplemented

    # -- calculus and evaluation ----------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation: exact for int/Fraction x, numeric for float/complex."""
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0.0 if not isinstance(x, complex) else complex(0.0)
        for c in reversed(self.coeffs):
            acc = acc * x + _coeff_float(c)
        return acc

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic form")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Polynomial([c / lead for c in self.coeffs])

    def taylor_shift(self, h: RationalLike) -> "Polynomial":
        """Return f(x + h), exactly."""
        h = _as_fraction(h)
        if h == 0:
            return self
        shift = Polynomial([h, 1])
        acc = Polynomial()
        for c in reversed(self.coeffs):
            acc = acc * shift + Polynomial([c])
        return acc

    def norm_1(self) -> float:
        """Float 1-norm of the coefficients (inf if out of double range)."""
        total = sum(abs(c) for c in self.coeffs)
        try:
            return float(total)
        except OverflowError:
            return math.inf


def _clear_denominators(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(d, [d * v for v in values]) for d the least common denominator."""
    values = list(values)
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor via the Euclidean algorithm over Q."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


# -- integer factoring support for the rational-root test ----------------------

_TRIAL_LIMIT = 1_000_000

# Witnesses certifying deterministic Miller-Rabin below 3.3*10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime_certified(n: int) -> bool:
    if n >= _MR_DETERMINISTIC_BOUND:
        raise ValueError(f"cannot certify primality of {n}: beyond the deterministic bound")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor_positive(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division, certified completion."""
    fac: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    d = 5
    step = 2
    while d * d <= n and d <= _TRIAL_LIMIT:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += step
        step = 6 - step
    if n > 1:
        if n <= _TRIAL_LIMIT * _TRIAL_LIMIT or _is_prime_certified(n):
            # survived trial division to min(sqrt(n), limit): prime
            fac[n] = fac.get(n, 0) + 1
        else:
            raise ValueError(f"cannot factor {n} within configured bounds")
    return fac


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, k in _factor_positive(n).items():
        divs = [d * p**e for d in divs for e in range(k + 1)]
    return sorted(divs)


def rational_roots(f: Polynomial) -> list[Fraction]:
    """All rational roots of f, with multiplicity, sorted ascending.

    Denominators are cleared first; candidates p/q range over divisors of the
    trailing and leading integer coefficients, each verified by exact
    evaluation, then divided out to count multiplicity.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has every number as a root")
    _, ints = _clear_denominators(f.coeffs)
    content = 0
    for c in ints:
        content = math.gcd(content, abs(c))
    ints = [c // content for c in ints]

    # roots at zero
    v = 0
    while ints[v] == 0:
        v += 1
    roots = [Fraction(0)] * v
    ints = ints[v:]
    if len(ints) == 1:
        return roots

    a0, an = abs(ints[0]), abs(ints[-1])
    work = Polynomial(ints)
    f_at_1 = sum(ints)
    f_at_m1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(ints))
    seen = set()
    found = []
    for p in _divisors(a0):
        for q in _divisors(an):
            if math.gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in seen:
                    continue
                seen.add(cand)
                # a root p/q forces (p - q) | f(1) and (p + q) | f(-1)
                num, den = cand.numerator, cand.denominator
                if f_at_1 != 0 and num != den and f_at_1 % (num - den) != 0:
                    continue
                if f_at_m1 != 0 and num != -den and f_at_m1 % (num + den) != 0:
                    continue
                while work.degree >= 1 and work(cand) == 0:
                    found.append(cand)
                    work = work // Polynomial([-cand, 1])
    return sorted(roots + found)
