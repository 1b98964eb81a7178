"""Partial fractions over Q, symbolic integration of rational functions,
rational parametrization of conics, and the ellipse's area and perimeter.

The factorization step only uses what is exact here: one pass over Z splits
q into squarefree pieces, the i-th holding the roots of multiplicity i, and
divides each piece's rational roots out once; what is left of a piece is
accepted only if constant or a quadratic with negative discriminant.
Anything else (an irreducible-over-these-methods residual of degree >= 3,
such as two simple quadratics, a quadratic with irrational real roots, or a
repeated quadratic factor at the decomposition stage) fails cleanly with an
error naming the offender, never with a silently wrong answer.

The decomposition solves no linear system: each coefficient is local to its
factor (a Taylor coefficient at a rational root, a residue modulo a simple
quadratic), so it costs O(n * sum m) for deg q = n and multiplicities m.
Both run over Z: the Taylor coefficients at a root u/s are scaled by s^(n-i),
and a quadratic's residue is taken after y = t*x makes it monic over Z.  Each
output coefficient is built as one Fraction.

Antiderivatives come out term by term:

    A/(x-r)        ->  A*ln|x-r|
    A/(x-r)^k      ->  -A/((k-1)*(x-r)^(k-1))          (k >= 2)
    (Bx+C)/(x^2+px+q)
                   ->  (B/2)*ln(x^2+px+q)
                       + ((C-Bp/2)/s)*arctan((x+p/2)/s),  s = sqrt(q-p^2/4)

and the canonical text rendering orders terms deterministically: polynomial
part, then logs of linear factors by root, then negative powers, then logs
of quadratics, then arctangents, with a trailing "+ K".
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _EXPORTS, _Record
from .exact import Polynomial, _clear_denominators, _join_terms, _poly_terms, _rational_split
from .exact import _taylor_coeffs, _terms
# Not called here; perfbench's layer tracer wraps these bindings by name.
from .disc import solve_linear_system  # noqa: F401
from .exact import rational_roots  # noqa: F401

__all__ = list(_EXPORTS["ratfun"])


class UnsupportedFactorizationError(ValueError):
    """The denominator does not factor into rational linear and irreducible
    quadratic pieces by the methods used here."""

    def __init__(self, message: str, residual: Polynomial | None = None):
        super().__init__(message)
        self.residual = residual


# -- real factorization ------------------------------------------------------------


class RealFactorization(_Record):
    """constant * prod (x - root)^k * prod (x^2 + p*x + q)^k, all exact."""

    constant: Fraction
    linear_factors: tuple[tuple[Fraction, int], ...]
    quadratic_factors: tuple[tuple[Fraction, Fraction, int], ...]


def factor_real(q: Polynomial) -> RealFactorization:
    """Factor q over Q into linear and irreducible quadratic pieces.

    Raises UnsupportedFactorizationError when a residual of degree >= 3
    survives, or when a quadratic piece has irrational real roots.
    """
    if q.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    linear: list[tuple[Fraction, int]] = []
    quadratics: list[tuple[Fraction, Fraction, int]] = []
    for mult, (roots, rest) in enumerate(_rational_split(q), 1):
        linear += [(root, mult) for root in roots]
        piece = Polynomial(rest).monic()
        if piece.degree == 2 and piece[1] ** 2 - 4 * piece[0] < 0:
            quadratics.append((piece[1], piece[0], mult))
        elif piece.degree == 2:
            raise UnsupportedFactorizationError(
                f"residual quadratic {piece} has irrational real roots", piece
            )
        elif piece.degree > 2:
            raise UnsupportedFactorizationError(
                f"residual factor {piece} of degree {piece.degree} has no rational root "
                "and is not an irreducible quadratic",
                piece,
            )
    return RealFactorization(q.leading_coefficient, tuple(sorted(linear)), tuple(sorted(quadratics)))


# -- partial fractions ---------------------------------------------------------------


class PartialFractions(_Record):
    """polynomial_part + sum A/(x-r)^k + sum (B*x+C)/(x^2+p*x+q)."""

    polynomial_part: Polynomial
    linear_terms: tuple[tuple[Fraction, Fraction, int], ...]  # (A, root, power)
    quadratic_terms: tuple[tuple[Fraction, Fraction, Fraction, Fraction], ...]  # (B, C, p, q)


def partial_fractions(p: Polynomial, q: Polynomial) -> PartialFractions:
    """Exact decomposition of p/q by local expansion at each factor of q.

    With r = p mod q and q = (x-a)^m * h, A_(m-j) is the j-th Taylor
    coefficient of r/h at a: the series quotient of r's Taylor coefficients
    0..m-1 at a = u/s by q's m..2m-1, on integers scaled by s^(n-i), n = deg q.
    For a simple quadratic factor Q, h = q/Q is q'/Q' mod Q, so B*x + C =
    r*Q'/q' mod Q, reduced over Z after y = t*x makes Q monic over Z.  Each
    output coefficient is one Fraction.
    """
    if q.is_zero:
        raise ZeroDivisionError("denominator is the zero polynomial")
    poly_part, rem = divmod(p, q)
    if rem.is_zero:  # q divides p: no factor of q is needed
        return PartialFractions(poly_part, (), ())
    fact = factor_real(q)
    for _, _, mult in fact.quadratic_factors:
        if mult >= 2:
            raise UnsupportedFactorizationError(
                "repeated quadratic factors are not supported by this decomposition"
            )
    d_rem, rem_ints = _clear_denominators(rem.coeffs)
    d_q, q_ints = _clear_denominators(q.coeffs)
    n = q.degree
    linear_terms = []
    for root, m in fact.linear_factors:
        rho = _taylor_coeffs(rem_ints, root, n, m)
        kappa = _taylor_coeffs(q_ints, root, n, 2 * m)[m:]
        lead = [kappa[0] ** i for i in range(m + 1)]
        sigma: list[int] = []
        for j in range(m):
            acc = sum(kappa[i] * lead[i - 1] * sigma[j - i] for i in range(1, j + 1))
            sigma.append(rho[j] * lead[j] - acc)
        s = root.denominator
        linear_terms += [
            (Fraction(d_q * sigma[j] * s**j, d_rem * s**m * lead[j + 1]), root, m - j)
            for j in reversed(range(m)) if sigma[j]
        ]

    quadratic_terms = []
    for pp, qq, _ in fact.quadratic_factors:
        t = math.lcm(pp.denominator, qq.denominator)
        tp, tq = int(pp * t), int(qq * t * t)  # t^2 * Q(y/t) = y^2 + tp*y + tq
        reduced = []  # t^n * r(y/t) and t^(n-1) * q'(y/t), each as u*y + v mod Q
        for coeffs in ([c * t ** (n - i) for i, c in enumerate(rem_ints)],
                       [i * c * t ** (n - i) for i, c in enumerate(q_ints) if i]):
            u = v = 0
            for c in reversed(coeffs):
                u, v = v - tp * u, c - tq * u
            reduced.append((u, v))
        (ru, rv), (du, dv) = reduced
        nu, nv = 2 * rv - tp * ru, tp * rv - 2 * tq * ru  # r * (2y + tp), Q' = (2y + tp)/t
        cu, cv = -du, dv - tp * du  # q' * (cu*y + cv) = norm mod Q
        norm = dv * dv - tp * du * dv + tq * du * du
        b, c = nu * cv + nv * cu - tp * nu * cu, nv * cv - tq * nu * cu
        den = d_rem * t * norm
        quadratic_terms.append((Fraction(d_q * b, den), Fraction(d_q * c, den * t), pp, qq))
    return PartialFractions(poly_part, tuple(linear_terms), tuple(quadratic_terms))


# -- symbolic antiderivatives ----------------------------------------------------------


class PolyTerm(_Record):
    poly: Polynomial

    def eval(self, x: float) -> float:
        return self.poly(x)

    def _render(self) -> tuple[tuple, list[tuple[bool, str]]]:
        """(sort key, signed pieces); render orders the terms by the key."""
        return (0,), _poly_terms(self.poly.coeffs)


class LogAbs(_Record):
    coeff: Fraction
    root: Fraction

    def eval(self, x: float) -> float:
        return float(self.coeff) * math.log(abs(x - float(self.root)))

    def _render(self) -> tuple[tuple, list[tuple[bool, str]]]:
        return (1, self.root), _terms([(self.coeff, f"ln|{_fmt_linear(self.root)}|")])


class PowerTerm(_Record):
    coeff: Fraction
    root: Fraction
    exponent: int  # always <= -1

    def eval(self, x: float) -> float:
        return float(self.coeff) * (x - float(self.root)) ** self.exponent

    def _render(self) -> tuple[tuple, list[tuple[bool, str]]]:
        k = -self.exponent
        if not self.coeff:
            return (2, self.root, k), []
        denom = f"({_fmt_linear(self.root)})" + (f"^{k}" if k > 1 else "")
        return (2, self.root, k), [(self.coeff > 0, f"{abs(self.coeff)}/{denom}")]


class LogQuadratic(_Record):
    coeff: Fraction
    p: Fraction
    q: Fraction

    def eval(self, x: float) -> float:
        return float(self.coeff) * math.log(x * x + float(self.p) * x + float(self.q))

    def _render(self) -> tuple[tuple, list[tuple[bool, str]]]:
        return (3, self.p, self.q), _terms([(self.coeff, f"ln({_fmt_quadratic(self.p, self.q)})")])


class ArctanTerm(_Record):
    """(coeff/s) * arctan((x + p/2)/s) with s = sqrt(q - p^2/4) > 0."""

    coeff: Fraction
    p: Fraction
    q: Fraction

    @property
    def scale_squared(self) -> Fraction:
        return self.q - self.p * self.p / 4

    @property
    def shift(self) -> Fraction:
        return self.p / 2

    def eval(self, x: float) -> float:
        s = math.sqrt(float(self.scale_squared))
        return float(self.coeff) / s * math.atan((x + float(self.shift)) / s)

    def _render(self) -> tuple[tuple, list[tuple[bool, str]]]:
        key, s2 = (4, self.p, self.q), self.scale_squared
        inner = _fmt_linear(-self.shift)  # renders x + shift
        s = _is_square(s2)
        if s is not None:
            arg = inner if self.shift == 0 else f"({inner})"
            return key, _terms([(self.coeff / s, f"arctan({arg})" if s == 1 else f"arctan({arg}/{s})")])
        if not self.coeff:
            return key, []
        return key, [(self.coeff > 0, f"{abs(self.coeff)}/sqrt({s2})*arctan(({inner})/sqrt({s2}))")]


Term = PolyTerm | LogAbs | PowerTerm | LogQuadratic | ArctanTerm


def _fmt_linear(root: Fraction) -> str:
    """x - root without spaces: x, x-1/2, x+3."""
    return _join_terms(_terms([(1, "x"), (-root, "")])).replace(" ", "")


def _fmt_quadratic(p: Fraction, q: Fraction) -> str:
    """x^2 + p*x + q without spaces: x^2+4, x^2-x+1."""
    return _join_terms(_terms([(1, "x^2"), (p, "x"), (q, "")])).replace(" ", "")


def _is_square(fr: Fraction) -> Fraction | None:
    if fr < 0:
        return None
    ns, ds = math.isqrt(fr.numerator), math.isqrt(fr.denominator)
    if ns * ns == fr.numerator and ds * ds == fr.denominator:
        return Fraction(ns, ds)
    return None


class SymbolicAntiderivative(_Record):
    terms: tuple[Term, ...]

    def eval(self, x: float) -> float:
        return sum(term.eval(x) for term in self.terms)

    def render(self) -> str:
        """Canonical text, e.g. ``ln|x| + 1/2*ln(x^2+4) - 1/2*arctan(x/2) + K``."""
        ordered = sorted((term._render() for term in self.terms), key=lambda rendered: rendered[0])
        return _join_terms([piece for _, pieces in ordered for piece in pieces] + [(True, "K")])


def integrate_rational(p: Polynomial, q: Polynomial) -> SymbolicAntiderivative:
    """Antiderivative of p/q, term by term from the partial fractions."""
    pf = partial_fractions(p, q)
    terms: list[Term] = []
    if not pf.polynomial_part.is_zero:
        integrated = Polynomial(
            [Fraction(0)] + [c / (i + 1) for i, c in enumerate(pf.polynomial_part.coeffs)]
        )
        terms.append(PolyTerm(integrated))
    for a, root, power in pf.linear_terms:
        if power == 1:
            terms.append(LogAbs(a, root))
        else:
            terms.append(PowerTerm(-a / (power - 1), root, -(power - 1)))
    for b, c, pp, qq in pf.quadratic_terms:
        if b != 0:
            terms.append(LogQuadratic(b / 2, pp, qq))
        resid = c - b * pp / 2
        if resid != 0:
            terms.append(ArctanTerm(resid, pp, qq))
    return SymbolicAntiderivative(tuple(terms))


# -- conic parametrization ---------------------------------------------------------


_CONIC_KINDS = ("circle", "ellipse", "hyperbola", "parabola")


class ConicParam(_Record):
    """Rational parametrization data for one conic in standard position.

    circle/ellipse:  x = a(1-t^2)/(1+t^2),  y = 2bt/(1+t^2)
    hyperbola:       x = a(1+t^2)/(1-t^2),  y = 2bt/(1-t^2)   (poles t = +-1)
    parabola:        x = a t^2,             y = 2 a t          (y^2 = 4ax)
    The first two are x = a(1-s*t^2)/(1+s*t^2), y = 2bt/(1+s*t^2) with s = +-1.
    """

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in _CONIC_KINDS:
            raise ValueError(f"unknown conic kind {self.kind!r}")
        if not (self.a > 0 and self.b > 0):
            raise ValueError("semi-axes must be positive")
        if self.kind == "circle" and self.a != self.b:
            raise ValueError("a circle needs equal semi-axes")

    def point(self, t: float) -> tuple[float, float]:
        if self.kind == "parabola":
            return self.a * t * t, 2.0 * self.a * t
        st2 = (-1.0 if self.kind == "hyperbola" else 1.0) * t * t
        den = 1.0 + st2
        if den == 0.0:  # only the hyperbola has poles
            raise ValueError(f"t = {t} is a pole of the parametrization (t^2 = 1)")
        return self.a * (1.0 - st2) / den, 2.0 * self.b * t / den

    def implicit_residual(self, x: float, y: float) -> float:
        """Relative residual of the conic's implicit equation at (x, y)."""
        if self.kind == "parabola":
            t1, t2 = y * y, 4.0 * self.a * x
            return abs(t1 - t2) / (1.0 + abs(t1) + abs(t2))
        t1, t2 = (x / self.a) ** 2, (y / self.b) ** 2
        s = -1.0 if self.kind == "hyperbola" else 1.0
        return abs(t1 + s * t2 - 1.0) / (1.0 + t1 + t2)


# -- ellipse area and perimeter ------------------------------------------------------


def ellipse_area(a: float, b: float) -> float:
    """pi*a*b, the area enclosed by x^2/a^2 + y^2/b^2 = 1."""
    if not (a > 0 and b > 0):
        raise ValueError("semi-axes must be positive")
    return math.pi * a * b


def adaptive_simpson(fn, lo: float, hi: float, tol: float, max_depth: int = 60) -> float:
    """Classic adaptive Simpson with the 1/15 error estimate (public; klasika calls it nowhere)."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, fm, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        flm, frm = fn(lm), fn(rm)
        left = simpson(x0, xm, f0, flm, fm)
        right = simpson(xm, x2, fm, frm, f2)
        delta = left + right - whole
        if depth >= max_depth or abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return recurse(x0, xm, f0, flm, fm, left, eps / 2.0, depth + 1) + recurse(
            xm, x2, fm, frm, f2, right, eps / 2.0, depth + 1
        )

    mid = 0.5 * (lo + hi)
    f_lo, f_mid, f_hi = fn(lo), fn(mid), fn(hi)
    whole = simpson(lo, hi, f_lo, f_mid, f_hi)
    return recurse(lo, hi, f_lo, f_mid, f_hi, whole, tol, 0)


def ellipse_perimeter(a: float, b: float) -> float:
    """4a * E(e) by Gauss's arithmetic-geometric mean and the Gauss-Kummer sum: with
    c_0^2 = a^2 - b^2 and c_(n+1) = (x_n - y_n)/2, 2*pi*(a^2 - sum 2^(n-1) c_n^2) / AGM(a, b).
    Convergence is quadratic; the loop stops once x - y <= 1e-15 * x, above float rounding."""
    if not (a >= b > 0):
        raise ValueError("require a >= b > 0 (swap the axes first if needed)")
    shift = 1 - math.frexp(a)[1]  # exact; x in [1, 2), and 2^-shift is a double for every a
    x, y = math.ldexp(a, shift), math.ldexp(b, shift)
    if y == 0.0:  # b/a is below the double range: a segment of length 2a, run twice
        return 4.0 * a
    a2 = x * x
    total, weight = 0.5 * (a2 - y * y), 1.0
    for _ in range(64):
        if x - y <= 1e-15 * x:
            break
        c = 0.5 * (x - y)
        x, y = 0.5 * (x + y), math.sqrt(x * y)
        total += weight * c * c
        weight *= 2.0
    return 4.0 * math.pi * (a2 - total) / (x + y) * math.ldexp(1.0, -shift)
