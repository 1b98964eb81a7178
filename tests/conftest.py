"""Shared test helpers.

The polynomial helpers here are deliberately independent of the package
under test: `convolve`/`expand_roots` multiply plain coefficient lists so
they can serve as oracles for the library's own arithmetic, and
`expand_factors`/`recombine` build on them to multiply out a real
factorization and a partial-fraction decomposition, and `difference` takes
a - b.  Likewise `identity`/`transpose`/`matmul` work on plain lists of
rows, and `form_value` evaluates a quadratic form from its stored
coefficients.  `power` builds f^n from repeated products.
"""

import math
import random
from fractions import Fraction

import pytest

try:
    from hypothesis import settings
except ImportError:  # the `test` extra installs it; without it the modules that need it fail alone
    pass
else:
    # the same examples on every run, and no example database on disk
    settings.register_profile("derandomized", derandomize=True, database=None)
    settings.load_profile("derandomized")


def rand_fraction(rng: random.Random, lo=-9, hi=9, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_coeffs(rng: random.Random, degree: int, lo=-9, hi=9, max_den=4) -> list[Fraction]:
    """Random exact coefficients, ascending, with a nonzero leading term."""
    out = [rand_fraction(rng, lo, hi, max_den) for _ in range(degree + 1)]
    while out[-1] == 0:
        out[-1] = rand_fraction(rng, lo, hi, max_den)
    return out


def convolve(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Plain-list polynomial product; an oracle independent of the library."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def expand_roots(roots: list[Fraction], lead: Fraction = Fraction(1)) -> list[Fraction]:
    """Coefficients of lead * prod (x - r), by repeated convolution."""
    out = [lead]
    for r in roots:
        out = convolve(out, [-r, Fraction(1)])
    return out


def expand_factors(lead, linear, quadratic) -> list[Fraction]:
    """Coefficients of lead * prod (x - r)^k * prod (x^2 + p*x + q)^k, for
    (r, k) in linear and (p, q, k) in quadratic, by repeated convolution."""
    out = expand_roots([r for r, k in linear for _ in range(k)], Fraction(lead))
    for p, q, k in quadratic:
        for _ in range(k):
            out = convolve(out, [q, p, Fraction(1)])
    return out


def _add(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def _trim(a: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def recombine(polynomial_part, linear_terms, quadratic_terms) -> tuple[list[Fraction], list[Fraction]]:
    """Coefficient lists (num, den) of polynomial_part + sum A/(x-r)^k +
    sum (B*x+C)/(x^2+p*x+q), for (A, r, k) in linear_terms and (B, C, p, q)
    in quadratic_terms, over den = prod (x-r)^m * prod (x^2+p*x+q), m the
    largest k at r.  The terms at one root share one cofactor of den:
    sum A_k/(x-r)^k = (sum A_k (x-r)^(m-k)) / (x-r)^m, whose numerator is
    taken by Horner's rule in (x - r)."""
    powers, coeffs = {}, {}
    for a, r, k in linear_terms:
        powers[r] = max(powers.get(r, 0), k)
        coeffs[r, k] = coeffs.get((r, k), 0) + a
    quadratics = [(p, q, 1) for _, _, p, q in quadratic_terms]
    den = expand_factors(1, powers.items(), quadratics)
    num = convolve(list(polynomial_part), den)
    for r, m in powers.items():
        local = []
        for k in range(1, m + 1):
            local = _add(convolve(local, [-r, Fraction(1)]), [coeffs.get((r, k), Fraction(0))])
        num = _add(num, convolve(local, expand_factors(1, [(s, j) for s, j in powers.items() if s != r], quadratics)))
    for i, (b, c, _, _) in enumerate(quadratic_terms):
        num = _add(num, convolve([c, b], expand_factors(1, powers.items(), quadratics[:i] + quadratics[i + 1:])))
    return _trim(num), den


def difference(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """a - b on plain coefficient lists, trailing zeros trimmed."""
    return _trim(_add(a, [-y for y in b]))


def power(f, n: int):
    """f^n as the product of n factors f, so a test builds its inputs without
    Polynomial.__pow__; n = 0 gives the integer 1."""
    return math.prod([f] * n)


def same_ratio(num, den, p, q) -> bool:
    """num/den == p/q, cross-multiplied on coefficient lists."""
    return _trim(convolve(list(num), list(q))) == _trim(convolve(list(p), list(den)))


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(rows) -> list[list]:
    return [list(col) for col in zip(*rows)]


def matmul(a, b) -> list[list]:
    """Plain-list matrix product of the rows a and b."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def form_value(form, *point):
    """A BinaryForm's a*x^2 + b*x*y + c*y^2, or a TernaryForm's x^t M x from
    its stored coefficients (d, e, f the halved cross terms), at the point."""
    if len(point) == 2:
        x, y = point
        return form.a * x * x + form.b * x * y + form.c * y * y
    rows = [[form.a, form.d, form.e], [form.d, form.b, form.f], [form.e, form.f, form.c]]
    return sum(rows[i][j] * point[i] * point[j] for i in range(3) for j in range(3))


@pytest.fixture
def rng():
    return random.Random(20260809)
