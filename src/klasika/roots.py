"""Polynomial depression and closed-form quadratic/cubic solution.

Depression is exact: substituting x = y - a_(n-1)/n into the monic form of
the input kills the second-highest term, and both the shift and the new
coefficients stay rational.  Root extraction after that is numeric
(double-precision complex), with the branch bookkeeping below.

Cubic branch pairing: with the depressed cubic y^3 + a*y + b, the two cube
radicands are the roots of Z^2 + b*Z - a^3/27.  We take u as the principal
cube root of the larger-magnitude radicand evaluated cancellation-free, then
force v = -a/(3u) rather than taking an independent cube root, so the
constraint u*v = -a/3 holds to machine precision and u + v is genuinely a
root; when a = 0 the degenerate pairing u = 0, v = cbrt(-b) is used instead.
Different admissible cube-root pairings would only permute the root labels.

When the exact discriminant of the depressed cubic is positive all three
roots are real, so imaginary parts below 1e-9 are dropped and each root gets
one Newton step on the real axis to recover full accuracy.  Every root is
then shifted back and polished on the input itself by at most three complex
Newton steps, taken only while its residual exceeds `residual_tolerance`.
Both passes, and the eigenvalue polish in `forms`, run the one Newton loop
`_newton`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from . import _EXPORTS, _Record
# Not called here; perfbench's layer tracer wraps this binding by name.
from .disc import discriminant_resultant  # noqa: F401
from .exact import Polynomial, _coeff_float, _horner_float

__all__ = list(_EXPORTS["roots"])

_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # primitive cube root of unity
_OMEGA2 = complex(-0.5, -math.sqrt(3.0) / 2.0)


class DepressedPolynomial(_Record):
    """Monic polynomial with zero second-highest coefficient, plus the shift.

    `poly(x + shift)` recovers the monic form of the original input, so a
    root y of `poly` maps back to the root y - shift of the original.
    """

    poly: Polynomial
    shift: Fraction


class CubicRoots(_Record):
    roots: tuple[complex, complex, complex]
    residuals: tuple[float, float, float]
    tolerance: float  # residual_tolerance(f), the bound the polishing aimed at


def residual_tolerance(f: Polynomial) -> float:
    """Scale-aware residual bound used by the cubic solver: 1e-8*(1+||f||_1)."""
    return 1e-8 * (1.0 + f.norm_1())


def depress(f: Polynomial) -> DepressedPolynomial:
    """Shift out the second-highest term: exact over Q."""
    n = f.degree
    if f.is_zero or n < 2:
        raise ValueError("depression requires degree >= 2")
    g = f.monic()
    shift = g[n - 1] / n
    return DepressedPolynomial(g.taylor_shift(-shift), shift)


def _real_cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _principal_cbrt(z: complex) -> complex:
    r, phi = cmath.polar(z)
    return cmath.rect(r ** (1.0 / 3.0), phi / 3.0)


def _sort_key(z: complex):
    return (z.real, z.imag)


def solve_quadratic(f: Polynomial) -> tuple[complex, complex]:
    """Both roots of a degree-2 polynomial, conjugate pair when Delta < 0."""
    if f.degree != 2:
        raise ValueError("solve_quadratic requires degree exactly 2")
    a2, a1, a0 = f[2], f[1], f[0]
    delta = a1 * a1 - 4 * a2 * a0  # exact
    af, bf, cf = _coeff_float(a2), _coeff_float(a1), _coeff_float(a0)
    if af == 0.0:  # a2 != 0 underflows, and both root formulas divide by it
        raise ValueError("coefficient magnitude exceeds the double-precision range")
    if delta >= 0:
        sq = math.sqrt(_coeff_float(delta))
        if bf >= 0:
            qv = -(bf + sq) / 2.0
        else:
            qv = -(bf - sq) / 2.0
        r1 = qv / af
        r2 = cf / qv if qv != 0.0 else -bf / (2.0 * af)
        roots = sorted((complex(r1, 0.0), complex(r2, 0.0)), key=_sort_key)
    else:
        re = -bf / (2.0 * af)
        im = math.sqrt(_coeff_float(-delta)) / (2.0 * af)
        im = abs(im)
        roots = [complex(re, -im), complex(re, im)]
    return roots[0], roots[1]


def solve_cubic_cardano(f: Polynomial) -> CubicRoots:
    """All three roots of a degree-3 polynomial by depression plus radicals."""
    if f.degree != 3:
        raise ValueError("solve_cubic_cardano requires degree exactly 3")
    dep = depress(f)
    a, b = dep.poly[1], dep.poly[0]  # y^3 + a*y + b
    radicand = b * b / 4 + a * a * a / 27  # exact; the depressed discriminant is -108 times this

    af, bf = _coeff_float(a), _coeff_float(b)
    if a == 0:
        u, v = 0j, complex(_real_cbrt(-bf), 0.0)
    else:
        if radicand < 0:
            u = _principal_cbrt(complex(-bf / 2.0, math.sqrt(_coeff_float(-radicand))))
        else:
            sq = math.sqrt(_coeff_float(radicand))
            # -b/2 + sq would cancel if b > 0 < sq; rationalize through the exact product of the radicands
            u3 = af**3 / 27.0 / (bf / 2.0 + sq) if bf > 0 and radicand else -bf / 2.0 + sq
            u = complex(_real_cbrt(u3), 0.0)
        v = -af / (3.0 * u)

    ys = [u + v, _OMEGA * u + _OMEGA2 * v, _OMEGA2 * u + _OMEGA * v]

    if radicand < 0:  # the discriminant -108 * radicand is positive
        # all roots real: each with imaginary noise below 1e-9 drops it and
        # takes one Newton step on the real axis
        real = [i for i, y in enumerate(ys) if abs(y.imag) < 1e-9]
        for i, x in zip(real, _newton(dep.poly, [ys[i].real for i in real], 1)[0]):
            ys[i] = complex(x, 0.0)

    shift = _coeff_float(dep.shift)
    tol = residual_tolerance(f)
    roots, fs = _newton(f, [y - shift for y in ys], 3, tol)  # fs gives abs(f(r)) bit for bit
    residuals = tuple(abs(_horner_float(fs, r)) for r in roots)
    return CubicRoots(tuple(roots), residuals, tol)


def _newton(f: Polynomial, xs: list, steps: int, tol: float | None = None) -> tuple[list, list]:
    """Each x of xs after up to `steps` Newton steps on f, real or complex as x is,
    and the float coefficients of f, so a caller evaluates f without converting it again.

    A point stops early at a zero slope and, given `tol`, once |f(x)| <= tol;
    that test comes before each step, so a point that already meets `tol`
    costs one evaluation of f.  The coefficients of f are converted to floats
    once per call, and those of the derivative once, when a slope is first
    needed; evaluation is `Polynomial.__call__`'s Horner rule, so every value
    is the same float.
    """
    fs, dfs = [_coeff_float(c) for c in f.coeffs], None
    out = []
    for x in xs:
        for _ in range(steps):
            fx = _horner_float(fs, x)
            if tol is not None and abs(fx) <= tol:
                break
            if dfs is None:
                dfs = [_coeff_float(c) for c in f.derivative().coeffs]
            slope = _horner_float(dfs, x)
            if slope == 0:
                break
            x = x - fx / slope
        out.append(x)
    return out, fs


def roots_of_unity(n: int) -> list[complex]:
    """The n distinct points (cos 2*pi*k/n, sin 2*pi*k/n); the first is exactly 1."""
    if n < 1:
        raise ValueError("roots_of_unity requires n >= 1")
    return [cmath.rect(1.0, 2.0 * math.pi * k / n) for k in range(n)]
