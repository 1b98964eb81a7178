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

The gcd, the resultant, the squarefree split and the rational-root search
run over Z.  A gcd is first read off one integer gcd of the values at an
evaluation point, and checked by exact division, which also gives both
cofactors; the root search reduces each squarefree piece mod a prime p
and lifts its roots there p-adically.  The squarefree split, and
`disc.has_repeated_roots`, first reduce f mod one fixed prime: f squarefree
there is squarefree over Q, so the common answer needs no gcd over Z, and
every other answer still comes from the exact route.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from . import _EXPORTS

Rational = Fraction

RationalLike = Fraction | int | str

__all__ = list(_EXPORTS["exact"])


# The interpreter's default limit on the digits of an int read from or written to text.
_MAX_EXPONENT = 4300


def _fraction_from_text(text: str) -> Fraction:
    """``Fraction(text)``, refusing a decimal exponent whose magnitude exceeds
    4300 before Fraction expands ``1e<k>`` to 10**k, which takes seconds.

    ASCII ``-?digits`` and ``-?digits/digits`` skip Fraction's regex; every
    other text takes the general route, with the same values and errors."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
        return Fraction(int(num), int(den or 1))
    _, e, exponent = text.lower().rpartition("e")
    if e:
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if digits.isdecimal() and (len(digits) > 4 or int(digits) > _MAX_EXPONENT):
            raise ValueError(f"exponent exceeds {_MAX_EXPONENT} in {text!r}")
    return Fraction(text)


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int, or 'p/q' string")
    return _fraction_from_text(value) if isinstance(value, str) else Fraction(value)


def _coeff_float(c: Fraction) -> float:
    try:
        return float(c)
    except OverflowError:
        raise ValueError("coefficient magnitude exceeds the double-precision range") from None


def _horner_float(coeffs: Sequence[float], x):
    """The polynomial with these float coefficients (ascending) at float or
    complex x, by Horner's rule from a zero of x's type."""
    acc = 0.0 if not isinstance(x, complex) else complex(0.0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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

    def __reduce__(self):
        return type(self), (self.coeffs,)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Polynomial":
        """Parse the ascending comma-separated coefficient format."""
        parts = text.split(",")
        try:
            return cls(_fraction_from_text(part.strip()) for part in parts)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"malformed coefficient list: {text!r}") from None

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

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial([other])
        return NotImplemented

    def __hash__(self):  # a constant hashes as the number it equals
        return hash(self.coeffs) if len(self.coeffs) > 1 else hash(self[0])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(str(c) for c in self.coeffs)}])"

    def __str__(self) -> str:
        return _join_terms(_poly_terms(self.coeffs))

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
        return _horner_float([_coeff_float(c) for c in self.coeffs], x)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic form")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return Polynomial([c / lead for c in self.coeffs])

    def taylor_shift(self, h: RationalLike) -> "Polynomial":
        """Return f(x + h), exactly: the integer kernel `_taylor_coeffs` runs
        over Z on d * f, d the least common denominator of f's coefficients."""
        h = _as_fraction(h)
        if h == 0 or not self.coeffs:
            return self
        d, ints = _clear_denominators(self.coeffs)
        n, s = len(ints) - 1, h.denominator
        return Polynomial([Fraction(t, d * s ** (n - i)) for i, t in enumerate(_taylor_coeffs(ints, h, n, n + 1))])

    def norm_1(self) -> float:
        """Float 1-norm of the coefficients (inf if out of double range)."""
        total = sum(abs(c) for c in self.coeffs)
        try:
            return float(total)
        except OverflowError:
            return math.inf


def _terms(pairs: Iterable[tuple[Fraction | int, str]]) -> list[tuple[bool, str]]:
    """(c > 0, body) for each nonzero coefficient c of a symbol, in order.

    The body is c's magnitude times the symbol, with a unit magnitude left
    out unless the symbol is "" (the constant term): 2*x, x, 1.
    """
    out = []
    for c, symbol in pairs:
        if c:
            positive = c > 0
            mag = c if positive else -c
            body = str(mag) if not symbol else symbol if mag == 1 else f"{mag}*{symbol}"
            out.append((positive, body))
    return out


def _poly_terms(coeffs: Sequence[Fraction]) -> list[tuple[bool, str]]:
    """The signed terms of the polynomial with these coefficients, highest power first."""
    return _terms(
        (coeffs[i], f"x^{i}" if i > 1 else "x" if i else "") for i in range(len(coeffs) - 1, -1, -1)
    )


def _join_terms(terms: Sequence[tuple[bool, str]]) -> str:
    """Signed terms as one sum: a bare "-" on a negative first term, " + " or
    " - " before each later one, and "0" for no terms at all."""
    if not terms:
        return "0"
    (positive, body), rest = terms[0], terms[1:]
    tail = "".join(f" + {b}" if p else f" - {b}" for p, b in rest)
    return (body if positive else f"-{body}") + tail


def _clear_denominators(values: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(d, [d * v for v in values]) for d the least common denominator."""
    values = list(values)
    d = math.lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor, by the heuristic gcd over Z (`_gcd_z`)."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    ints = [_clear_denominators(p.coeffs)[1] for p in (f, g)]
    return Polynomial(_gcd_z(*ints)[0]).monic()


# -- gcd, squarefree split and rational roots over Z (integer lists, ascending) --


def _primitive(f: list[int]) -> list[int]:
    """f over its content; the sign is kept."""
    content = math.gcd(*f)
    return [c // content for c in f]


def _divide(f: list[int], g: list[int]) -> list[int] | None:
    """f / g when g divides f over Z (g nonzero, no trailing zeros), else None."""
    rem, n, quot = list(f), len(g) - 1, []
    for i in range(len(f) - 1 - n, -1, -1):  # long division, top down
        c, r = divmod(rem[i + n], g[n])
        if r:
            return None
        quot.append(c)
        for j in range(n):
            rem[i + j] -= c * g[j]
    return None if any(rem[:n]) else quot[::-1]


def _prem(f: list[int], g: list[int]) -> list[int]:
    """The pseudo-remainder of f by g (g nonzero, no trailing zeros), trimmed:
    g[-1]**(deg f - deg g + 1) * f mod g, or f itself when deg f < deg g."""
    r, n = list(f), len(g) - 1
    while len(r) > n:  # r <- g[n] * r - r[-1] * x**k * g: one pseudo-division step
        c, k = r.pop(), len(r) - n
        r = [g[n] * x for x in r]
        for j in range(n):
            r[k + j] -= c * g[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def _gcd_z(f: list[int], g: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(G, f/G, g/G) for G a primitive gcd of f and g over Z, not both zero,
    by the heuristic gcd GCDHEU (Char, Geddes and Gonnet, J. Symbolic
    Comput. 7, 1989; proof corrected by Liao and Fateman, 1995).

    For nonconstant f and g it evaluates both at an integer xi at least
    2*min(|f|, |g|) + 29 (max norms), reads gcd(f(xi), g(xi)) back as a
    polynomial H in symmetric xi-adic digits, and accepts h, the primitive
    part of H, when h divides f and g over Z.  Then h is the gcd.  For h
    divides the primitive gcd G, say G = h*K, and G(xi) divides both
    values, so h(xi)*K(xi) divides H(xi) = c*h(xi), c the content of H.
    A nonconstant K divides the input of smaller norm, say f, so its roots,
    like all of f's, lie inside Cauchy's bound rho = 1 + |f|/|lc f|, which
    is below xi/2 - 13: h(xi) != 0, and |K(xi)| >= (xi - rho)**deg K > xi/2.
    Yet |K(xi)| <= |c| <= xi/2, since c divides the nonzero digits of H.
    So K is a primitive constant, +-1.

    A candidate fails only when extra common factors of the two values, or
    coefficients of G past xi/2, garble the digits; xi then grows, and after
    six points, or for a zero or constant argument, Brown's primitive
    remainder sequence `_gcd_prs` gives G.
    """
    if len(f) > 1 and len(g) > 1:
        xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
        for _ in range(6):
            h = _primitive(_symmetric_digits(math.gcd(_horner_int(f, xi), _horner_int(g, xi)), xi))
            if (f_h := _divide(f, h)) is not None and (g_h := _divide(g, h)) is not None:
                return h, f_h, g_h
            xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011  # CGG's growth, about 2.7 * xi**1.25
    h = _gcd_prs(f, g)
    return h, _divide(f, h), _divide(g, h)


def _symmetric_digits(n: int, xi: int) -> list[int]:
    """H with H(xi) = n and every coefficient in (-xi/2, xi/2], ascending."""
    digits = []
    while n:
        d = n % xi
        d -= xi if 2 * d > xi else 0
        digits.append(d)
        n = (n - d) // xi
    return digits


def _gcd_prs(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd of f and g, not both zero: Brown's primitive remainder
    sequence, whose every step keeps the primitive part of a pseudo-remainder."""
    while g:
        f, g = g, _primitive(_prem(f, g))
    return _primitive(f)


def _resultant_z(f: list[int], g: list[int]) -> int:
    """Res(f, g) of nonzero f and g with deg f + deg g >= 1, by Collins'
    subresultant remainder sequence (Cohen, Alg. 3.3.7).

    Each pseudo-remainder divided by lead * h**delta is exactly the next
    subresultant, a minor of the Sylvester matrix, so every division is exact
    and the coefficients grow only linearly.  A zero remainder means a common
    factor, and the resultant is 0.
    """
    t = math.gcd(*f) ** (len(g) - 1) * math.gcd(*g) ** (len(f) - 1)  # the contents, taken out first
    f, g = _primitive(f), _primitive(g)
    sign = 1
    if len(f) < len(g):  # Res(g, f) = (-1)**(deg f * deg g) * Res(f, g)
        f, g = g, f
        sign = -1 if (len(f) - 1) & (len(g) - 1) & 1 else 1
    lead = h = 1
    while len(g) > 1:
        delta = len(f) - len(g)
        if (len(f) - 1) & (len(g) - 1) & 1:
            sign = -sign
        r = _prem(f, g)
        if not r:
            return 0
        divisor = lead * h**delta
        f, g = g, [c // divisor for c in r]
        lead = f[-1]
        if delta:  # h <- lead**delta / h**(delta - 1); the first step may have delta = 0
            h = lead**delta // h ** (delta - 1)
    n = len(f) - 1
    return sign * t * g[-1] ** n // h ** (n - 1)


def _squarefree(f: list[int]) -> list[list[int]]:
    """Squarefree A_1, A_2, ..., A_m (some of them constant) with
    f = c * prod A_i**i.  A line, or a quadratic or cubic whose discriminant
    is nonzero, is its own only piece, and so is f of degree >= 4 that is
    squarefree mod the prime `_CERTIFYING_PRIME`; any other f takes Musser's
    repeated-gcd form of the split, whose quotients are the cofactors that
    each `_gcd_z` returns."""
    if len(f) == 2 or 3 <= len(f) <= 4 and _discriminant_small(f):
        return [f]
    if len(f) > 4 and _squarefree_mod(f, _CERTIFYING_PRIME):
        return [f]
    g, w, _ = _gcd_z(f, [i * c for i, c in enumerate(f)][1:])  # prod A_i**(i-1) and prod A_i
    pieces = []
    while len(w) > 1:  # w = prod A_j over j >= i
        w, piece, g = _gcd_z(w, g)
        pieces.append(piece)
    return pieces


def _discriminant_small(f: list[int]) -> int:
    """The discriminant of the quadratic or cubic f over Z."""
    if len(f) == 3:
        c, b, a = f
        return b * b - 4 * a * c
    d, c, b, a = f
    return b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d


def _small_split(piece: list[int]) -> tuple[list[Fraction], list[int]]:
    """(roots, rest) for a squarefree piece of degree <= 2 over Z: its
    rational roots, -c0/c1 or (-b +- s)/2a when b^2 - 4ac is a square s^2,
    and the piece with each divided out once (by q*x - p for a root p/q)."""
    if len(piece) == 2:
        r = Fraction(-piece[0], piece[1])
        return [r], [piece[1] // r.denominator]
    if len(piece) == 3:
        c, b, a = piece
        disc = _discriminant_small(piece)
        if disc > 0 and (s := math.isqrt(disc)) ** 2 == disc:
            lo, hi = sorted((Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a)))
            return [lo, hi], [a // (lo.denominator * hi.denominator)]
    return [], piece


def _taylor_coeffs(g: list[int], r: Fraction, n: int, k: int) -> list[int]:
    """s**(n-i) * T_i for i < k, T_i the i-th Taylor coefficient at r = p/s of
    g of degree <= n: k rounds of synthetic division of s**n * g(y/s) by y - p
    over Z leave the first k final.  T_i = 0 past the degree of g."""
    p, s = r.numerator, r.denominator
    a = [c * s ** (n - i) for i, c in enumerate(g)]
    for i in range(min(k, len(a) - 1)):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += p * a[j + 1]
    return (a + [0] * k)[:k]


def _rational_split(f: Polynomial) -> list[tuple[list[Fraction], list[int]]]:
    """(roots_i, rest_i) for each squarefree piece A_i of f (f nonzero): the
    rational roots of A_i, each of multiplicity i in f, and A_i with each of
    them divided out once.  A piece of degree <= 2 is solved in closed form
    (`_small_split`), any other by p-adic expansion (`_padic_split`)."""
    split = []
    for piece in _squarefree(_clear_denominators(f.coeffs)[1]):
        roots = []
        if piece[0] == 0:  # x divides at most one squarefree piece, once
            roots, piece = [Fraction(0)], piece[1:]
        found, rest = (_small_split if len(piece) <= 3 else _padic_split)(piece)
        split.append((sorted(roots + found), rest))
    return split


def _padic_split(a: list[int]) -> tuple[list[Fraction], list[int]]:
    """(roots, rest) for a squarefree piece a over Z with a[0] != 0: its
    rational roots (R. Loos, SIAM J. Comput. 12, 1983), and a with each of
    them divided out once.

    A root u/s in lowest terms has u | a0 and s | an.  The walk takes the
    first odd prime p not dividing an at which every root of a mod p is
    simple (a large p must leave a squarefree), and u/s is one of them.
    Newton's step m <- m**2 lifts each to the root mod m > 2*|a0*an| above
    it, where u/s is the only fraction with |u| <= |a0| and 0 < s <= |an|;
    the half-extended Euclid on (m, r) finds it and one exact division over
    Z checks it.  No root mod p, no rational root.
    """
    a0, an = abs(a[0]), a[-1]
    bound, p = 2 * a0 * abs(an), 1
    while True:  # the odd primes in turn; each one passed over divides an * disc(a), which bounds the walk
        p += 2
        if an % p and all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            ap = [c % p for c in a]
            if p <= len(a) * p.bit_length():  # trial costs about p*n steps, x**p mod a about n*n*log p
                found = [r for r in range(p) if not _horner_int(ap, r) % p]
                dp = [i * c for i, c in enumerate(ap)][1:]
                if all(_horner_int(dp, r) % p for r in found):
                    break
            elif _squarefree_mod(ap, p):  # g = gcd(a, x**p - x) holds the k roots of a mod p
                g = _gcd_p([c - (i == 1) for i, c in enumerate(_x_power_p(p, ap, p) + [0, 0])], ap, p)
                found = list(itertools.islice((r for r in range(p) if not _horner_int(g, r) % p), len(g) - 1))
                break
    top = p ** (int(math.log(bound, p)) + 1)  # the least power of p above bound, from a float guess
    top *= p if top <= bound else 1
    roots, rest = [], a
    for r in found:
        m = p
        while m < top:  # r is a root mod m
            v = d = 0
            mm = min(m * m, top)
            for c in reversed(a):  # v = a(r) mod mm and d = a'(r) mod m
                d, v = (d * r + v) % m, (v * r + c) % mm
            w = pow(d, -1, m) if m == p else w * (2 - d * w) % m  # 1/a'(r) mod m, by Newton's step too
            m, r = mm, (r - v * w) % mm
        r0, r1, t0, t1 = m, r, 0, 1
        while r1 > a0:  # the remainders r_j = t_j * r mod m, down to the first <= |a0|
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        r = Fraction(r1, t1)
        if (quotient := _divide(rest, [-r.numerator, r.denominator])) is not None:
            roots.append(r)
            rest = quotient
    return roots, rest


def _horner_int(f: list[int], x: int) -> int:
    """f at x over Z, by Horner's rule: `_horner_float` for integers."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _rem_p(f: list[int], g: list[int], p: int) -> list[int]:
    """f mod g over F_p, for lists of coefficients ascending and g with no
    trailing zero; the remainder has none either."""
    r, n, inv = [c % p for c in f], len(g) - 1, pow(g[-1], -1, p)
    while len(r) > n:
        c = r.pop() * inv % p
        r[len(r) - n :] = [(x - c * y) % p for x, y in zip(r[len(r) - n :], g)]
    while r and not r[-1]:
        r.pop()
    return r


# The largest prime below 2**15: residues and their products stay single-digit (30-bit) ints.
_CERTIFYING_PRIME = 32749


def _squarefree_mod(f: list[int], p: int) -> bool:
    """Whether f over Z is squarefree mod the prime p, with p not dividing
    its leading coefficient.  Then f is squarefree over Q too: a primitive
    common factor of f and f' over Z divides f, so its leading coefficient
    divides f's (Gauss's lemma), and mod p it stays a common factor of the
    same degree (Brown 1971; Musser 1971)."""
    fp = [c % p for c in f]
    return fp[-1] != 0 and len(_gcd_p([i * c for i, c in enumerate(fp)][1:], fp, p)) == 1


def _gcd_p(f: list[int], g: list[int], p: int) -> list[int]:
    """A greatest common divisor of f and g over F_p."""
    while g:
        f, g = g, _rem_p(f, g, p)
    return f


def _x_power_p(e: int, g: list[int], p: int) -> list[int]:
    """x**e mod g over F_p, by squaring, and shifting for each 1 bit of e."""
    out = [1]
    for bit in map(int, bin(e)[2:]):
        square = [0] * (2 * len(out) - 1 + bit)
        for i, c in enumerate(out):
            for j, d in enumerate(out):
                square[i + j + bit] += c * d
        out = _rem_p(square, g, p)
    return out


def rational_roots(f: Polynomial) -> list[Fraction]:
    """All rational roots of f, with multiplicity, sorted ascending.

    f is split over Z into squarefree pieces; a root of the i-th has
    multiplicity i.  A piece of degree <= 2 is solved by an integer square
    root of its discriminant, any other by lifting its roots mod a prime p
    to a p-adic precision set by its leading and constant coefficients.
    No integer is factored.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has every number as a root")
    return sorted(r for i, (roots, _) in enumerate(_rational_split(f), 1) for r in roots * i)
