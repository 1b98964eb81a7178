"""Seeded request generators for the three workloads, plus the input census.

Every generator returns a list of requests.  A request is a dict with the
argv handed to ``klasika.cli.run`` (always with ``--json``), the command name,
an ``expect`` record the oracles in ``oracles.py`` check the output against,
the polynomial the input census describes, and how many times per pass the
request is timed.  Nothing here imports klasika: the expected answers come from how
the inputs were built (known roots, known factors, known inertia) or from
sympy, never from the program under test.

The same seed always gives the same requests in the same order.  The shape
of each workload (degrees, bit-length classes, command mix) is fixed; the
seed only draws the values, so runs with different seeds do comparable work.

Why each workload exists (these sentences are cited by later changes):

* ``highdeg-disc`` -- on the seed, ``disc.determinant`` (Bareiss on
  Fractions) takes about 97% of this time, with 0.16 s per request at
  degree 16 and 1.5 s at degree 32.  This workload shows any change to the
  elimination kernel or to gcd.
* ``ratfun-partfrac`` -- on the seed, ``exact.rational_roots`` takes about
  50% of the time and ``forms.solve_linear_system`` about 32%.  This
  workload uses ``exact`` through root search and Gauss-Jordan rather than
  through determinants.
* ``forms-small`` -- thousands of sub-10 ms requests, where ``cli`` parsing
  and rendering, Polynomial construction, ``forms``, Cardano and Simpson
  dominate; ``diagonalize`` is about 43% and ``classify-quadric`` about 16%.
  Determinant and gcd do almost nothing here.  It exercises the compute-once
  changes and is the bypass workload for kernel changes, where the
  prediction is no change.  Its cubics mostly have no rational root, so every
  candidate tried in ``rational_roots`` is wasted work.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

WHY = {
    "highdeg-disc": "disc and repeated at degree 8-32: Bareiss determinant on Fractions is ~97% of the time, so it shows any change to the elimination kernel or gcd",
    "ratfun-partfrac": "partfrac and integrate with degree 4-16 denominators: rational-root search ~50% and Gauss-Jordan ~32%, exact arithmetic without determinants",
    "forms-small": "thousands of sub-10 ms requests across 11 commands: cli, small Polynomials, forms, Cardano and Simpson; the bypass workload for kernel changes",
}


# -- plain-list polynomial arithmetic (ascending coefficients) ------------------


def convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def expand(lead, roots, extra=()):
    """Coefficients of lead * prod (x - r) * prod(extra factors)."""
    out = [Fraction(lead)]
    for r in roots:
        out = convolve(out, [-r, Fraction(1)])
    for factor in extra:
        out = convolve(out, factor)
    return out


def peval(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_text(coeffs):
    return ",".join(str(Fraction(c)) for c in coeffs)


def parse_poly(text):
    return [Fraction(t) for t in text.split(",")]


def trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def disc_from_roots(lead, roots):
    """lead^(2n-2) * prod_{i<j} (r_i - r_j)^2."""
    n = len(roots)
    acc = Fraction(lead) ** (2 * n - 2)
    for a, b in combinations(roots, 2):
        acc *= (a - b) ** 2
    return acc


def _sympy_discriminants(polys):
    """Discriminants of the given coefficient lists, computed by sympy."""
    import sympy

    x = sympy.Symbol("x")
    out = []
    for cs in polys:
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(cs)], x, domain="QQ")
        d = sympy.Rational(sympy.discriminant(poly))
        out.append(Fraction(int(d.p), int(d.q)))
    return out


def _nonzero(rng, draw):
    while True:
        v = draw()
        if v != 0:
            return v


def _sign(rng):
    return 1 if rng.random() < 0.5 else -1


def _magnitudes(shape, count, num_max, den_max):
    """`count` distinct positive reduced fractions num/den, num <= num_max, den <= den_max."""
    seen = set()
    while len(seen) < count:
        seen.add(Fraction(shape.randint(1, num_max), shape.randint(1, den_max)))
    out = sorted(seen)
    shape.shuffle(out)
    return out


def _request(cmd, args, expect, census, repeat=1):
    """`repeat` is how many times per pass the request is timed."""
    return {"argv": ["--json", cmd, *args], "cmd": cmd, "expect": expect, "census": census, "repeat": repeat}


# Each workload has a fixed shape: a seed-independent RNG keyed by the slot
# picks degrees, multiplicities, denominators and magnitudes, and the seed
# draws signs and the remaining values.  Different seeds therefore give
# different inputs that cost about the same, so the spread between runs
# measures the machine and the program, not the luck of the draw.  (Cost here
# follows the bit lengths and, for the rational-root search, the divisor
# counts of a0 and an; both are fixed by the shape.)


# -- highdeg-disc ------------------------------------------------------------------

# (degree, construction, coefficient width).  "roots" is built from distinct
# known rational roots, "roots-rep" repeats one of them, "random" draws the
# coefficients directly.  Width: small |num| <= 9, den <= 4; mid 16-bit
# numerators, den <= 16; wide 40-bit numerators, den <= 4.  Wide and mid
# inputs stay at low degree: at degree 20 a wide input alone takes seconds.
_HIGHDEG_SCHEDULE = [
    (8, "random", "wide"), (8, "roots", "small"), (8, "random", "small"),
    (9, "random", "wide"), (9, "roots", "mid"),
    (10, "roots-rep", "small"), (10, "random", "wide"), (10, "random", "small"),
    (11, "roots", "mid"), (11, "random", "mid"),
    (12, "random", "mid"), (12, "roots-rep", "small"), (12, "random", "small"),
    (13, "random", "mid"), (13, "roots", "small"),
    (14, "roots", "small"), (14, "random", "small"), (14, "random", "mid"),
    (15, "roots-rep", "small"), (15, "random", "small"),
    (16, "random", "small"), (16, "roots", "small"), (16, "random", "small"),
    (18, "random", "small"), (18, "roots", "small"),
    (20, "roots-rep", "small"), (20, "random", "small"),
    (22, "random", "small"), (24, "random", "small"), (32, "random", "small"),
]

_WIDTHS = {"small": (4, 4), "mid": (16, 16), "wide": (40, 4)}


def _random_coeff(shape, rng, bits, max_den):
    """A coefficient whose magnitude class (bit length, denominator) is fixed
    by the shape; the seed draws the sign and, above 4 bits, the numerator."""
    den = shape.randint(1, max_den)
    if bits <= 4:
        num = shape.randint(1, 9)
        while math.gcd(num, den) != 1:
            num = shape.randint(1, 9)
    else:
        num = rng.randint(2 ** (bits - 1), 2**bits - 1)
        while math.gcd(num, den) != 1:
            num = rng.randint(2 ** (bits - 1), 2**bits - 1)
    return Fraction(_sign(rng) * num, den)


def highdeg_disc(seed):
    rng = random.Random(f"highdeg-disc:{seed}")
    polys = []
    for slot, (degree, kind, width) in enumerate(_HIGHDEG_SCHEDULE):
        shape = random.Random(f"highdeg-disc-shape:{slot}")
        if kind == "random":
            bits, max_den = _WIDTHS[width]
            cs = [_random_coeff(shape, rng, bits, max_den) for _ in range(degree + 1)]
            polys.append({"coeffs": cs, "disc": None, "repeated": None})
            continue
        num_max, den_max = (9, 4) if width == "small" else (99, 16)
        lead = _sign(rng) * Fraction(shape.randint(1, 9), shape.randint(1, 4))
        mult = 1 if kind == "roots" else shape.randint(2, 3)
        roots = [_sign(rng) * m for m in _magnitudes(shape, degree - mult + 1, num_max, den_max)]
        roots += [roots[0]] * (mult - 1)
        polys.append({
            "coeffs": expand(lead, roots),
            "disc": disc_from_roots(lead, roots),
            "repeated": mult > 1,
        })
    missing = [p for p in polys if p["disc"] is None]
    for p, d in zip(missing, _sympy_discriminants([p["coeffs"] for p in missing])):
        p["disc"] = d
        p["repeated"] = d == 0
    requests = []
    for p in polys:
        text = poly_text(p["coeffs"])
        census = {"coeffs": text, "repeated": p["repeated"]}
        # Requests up to degree 16 take 15-150 ms and set the median and the
        # p75; timing them twice per pass gives their median twice as many
        # samples.
        repeat = 2 if len(p["coeffs"]) <= 17 else 1
        requests.append(_request("disc", [text], {"disc": str(p["disc"])}, census, repeat))
        requests.append(_request("repeated", [text], {"repeated": p["repeated"]}, census, repeat))
    rng.shuffle(requests)
    return requests


# -- ratfun-partfrac ---------------------------------------------------------------

# Denominator degrees, cycled; 60 denominators, each sent as partfrac and as
# integrate.  Multiplicities are at most 3 and at most one irreducible
# quadratic factor is present, so every request has an answer.  Root
# numerators <= 12 and denominators <= 6 keep d(a0)*d(an) in the tens to
# hundreds, below the divisor cliff.
_RATFUN_DEGREES = [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]
_RATFUN_COUNT = 60


def _ratfun_pair(shape, rng, degree):
    with_quad = degree >= 5 and shape.random() < 0.5
    linear_degree = degree - 2 if with_quad else degree
    squarefree = shape.random() < 0.3
    mults = []
    while sum(mults) < linear_degree:
        mults.append(1 if squarefree else min(shape.choice((1, 1, 1, 2, 2, 3)), linear_degree - sum(mults)))
    roots = [_sign(rng) * m for m in _magnitudes(shape, len(mults), 12, 6)]
    quad = None
    if with_quad:
        p, q = shape.randint(0, 6), shape.randint(1, 30)
        while p * p - 4 * q >= 0:
            p, q = shape.randint(0, 6), shape.randint(1, 30)
        quad = (Fraction(_sign(rng) * p), Fraction(q))
    lead = _sign(rng) * Fraction(shape.randint(1, 6), shape.randint(1, 3))
    factors = list(zip(roots, mults))
    den = expand(lead, [r for r, m in factors for _ in range(m)], [[quad[1], quad[0], Fraction(1)]] if quad else [])
    num_degree = degree + 1 if shape.random() < 0.2 else shape.randint(0, degree - 1)
    num = [Fraction(rng.randint(-9, 9)) for _ in range(num_degree)]
    num.append(_nonzero(rng, lambda: Fraction(rng.randint(-9, 9))))
    return num, den, lead, factors, quad


def ratfun_partfrac(seed):
    rng = random.Random(f"ratfun-partfrac:{seed}")
    requests = []
    for slot in range(_RATFUN_COUNT):
        shape = random.Random(f"ratfun-partfrac-shape:{slot}")
        degree = _RATFUN_DEGREES[slot % len(_RATFUN_DEGREES)]
        num, den, lead, factors, quad = _ratfun_pair(shape, rng, degree)
        args = [poly_text(num), "/", poly_text(den)]
        expect = {
            "num": poly_text(num),
            "lead": str(lead),
            "linear": [[str(r), m] for r, m in factors],
            "quad": None if quad is None else [str(quad[0]), str(quad[1])],
        }
        census = {"coeffs": poly_text(den), "repeated": any(m > 1 for _, m in factors)}
        requests.append(_request("partfrac", args, expect, census))
        requests.append(_request("integrate", args, expect, census))
    rng.shuffle(requests)
    return requests


# -- forms-small -------------------------------------------------------------------

FORMS_MIX = {
    "classify-conic": 250, "classify-quadric": 200, "diagonalize": 200,
    "solve": 250, "depress": 150, "disc": 150, "ngon": 150, "trisect": 150,
    "construct-eval": 150, "ellipse": 150, "param": 200,
}

# Rational rotations (cos, sin) from Pythagorean triples.
_ROTATIONS = [(Fraction(1), Fraction(0)), (Fraction(3, 5), Fraction(4, 5)),
              (Fraction(5, 13), Fraction(12, 13)), (Fraction(8, 17), Fraction(-15, 17)),
              (Fraction(0), Fraction(1)), (Fraction(-7, 25), Fraction(24, 25))]


def _small(rng, lo=1, hi=9, max_den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _conic(rng, k):
    """A canonical conic with known kind, rotated, translated and rescaled.

    Canonical: A X^2 + B Y^2 + D X + F = 0.  The substitution
    X = c(x-x0) + s(y-y0), Y = -s(x-x0) + c(y-y0) is a rigid motion, and
    multiplying the equation by k != 0 leaves the curve unchanged.
    """
    kind = ("Ellipse", "Circle", "Hyperbola", "Parabola", "Empty", "Point", "LinePair")[k % 7]
    p, q = _small(rng), _small(rng)
    if kind == "Circle":
        canon = (p, p, 0, -q)
    elif kind == "Ellipse":
        while q == p:
            q = _small(rng)
        canon = (p, q, 0, -1)
    elif kind == "Hyperbola":
        canon = (p, -q, 0, -1)
    elif kind == "Parabola":
        canon = (0, p, -q, 0)
    elif kind == "Empty":
        canon = (p, q, 0, 1)
    elif kind == "Point":
        canon = (p, q, 0, 0)
    else:
        canon = (p, -q, 0, 0)
    A, B, D, F = (Fraction(v) for v in canon)
    c, s = rng.choice(_ROTATIONS)
    if kind == "Circle":
        c, s = Fraction(1), Fraction(0)  # keeps a == c and b == 0 exactly
    x0, y0 = Fraction(rng.randint(-4, 4), rng.randint(1, 2)), Fraction(rng.randint(-4, 4), rng.randint(1, 2))
    k = _nonzero(rng, lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    if kind == "Circle":
        # klasika names a circle only when its x^2 coefficient is positive
        # (-x^2 - y^2 = -1 is reported as an Ellipse), so circles keep k > 0.
        k = abs(k)
    # X = c x + s y - (c x0 + s y0),  Y = -s x + c y - (-s x0 + c y0)
    ux, uy, u0 = c, s, -(c * x0 + s * y0)
    vx, vy, v0 = -s, c, -(-s * x0 + c * y0)
    a = k * (A * ux * ux + B * vx * vx)
    b = k * (2 * A * ux * uy + 2 * B * vx * vy)
    cc = k * (A * uy * uy + B * vy * vy)
    d = k * (2 * A * ux * u0 + 2 * B * vx * v0 + D * ux)
    e = k * (2 * A * uy * u0 + 2 * B * vy * v0 + D * uy)
    f = k * (A * u0 * u0 + B * v0 * v0 + D * u0 + F)
    expected = {"Point": "Degenerate", "LinePair": "Degenerate"}.get(kind, kind)
    signs = [k * A, k * B]
    inertia = [sum(v > 0 for v in signs), sum(v < 0 for v in signs), sum(v == 0 for v in signs)]
    coeffs = [a, b, cc, d, e, -f]
    return _request("classify-conic", [poly_text(coeffs)], {"kind": expected, "inertia": inertia}, None)


_QUADRIC_TABLE = {
    (3, 0, 0): "Ellipsoid", (2, 0, 1): "EllipticParaboloid",
    (2, 1, 0): "HyperboloidOneSheet", (1, 2, 0): "HyperboloidTwoSheets",
    (1, 1, 1): "HyperbolicParaboloid", (1, 0, 2): "ParabolicCylinder",
}


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def _quadric(rng, k):
    """P^t diag(d) P with P invertible: the inertia is the signs of d (Sylvester)."""
    signature = [(3, 0, 0), (2, 0, 1), (2, 1, 0), (1, 2, 0), (1, 1, 1), (1, 0, 2), (0, 3, 0), (0, 1, 2)][k % 8]
    signs = [1] * signature[0] + [-1] * signature[1] + [0] * signature[2]
    rng.shuffle(signs)
    diag = [[Fraction(0)] * 3 for _ in range(3)]
    for i, sg in enumerate(signs):
        diag[i][i] = sg * _small(rng, 1, 5, 2)
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        det = (p[0][0] * (p[1][1] * p[2][2] - p[1][2] * p[2][1])
               - p[0][1] * (p[1][0] * p[2][2] - p[1][2] * p[2][0])
               + p[0][2] * (p[1][0] * p[2][1] - p[1][1] * p[2][0]))
        if det != 0:
            break
    m = _matmul(_matmul(_transpose(p), diag), p)
    args = [m[0][0], m[1][1], m[2][2], 2 * m[0][1], 2 * m[0][2], 2 * m[1][2]]
    expect = {"inertia": list(signature), "kind": _QUADRIC_TABLE.get(signature, "Other"),
              "note": signature[2] > 0}
    return _request("classify-quadric", [poly_text(args)], expect, None)


def _rotation_from_quaternion(w, x, y, z):
    n = Fraction(w * w + x * x + y * y + z * z)
    return [
        [(w * w + x * x - y * y - z * z) / n, 2 * (x * y - w * z) / n, 2 * (x * z + w * y) / n],
        [2 * (x * y + w * z) / n, (w * w - x * x + y * y - z * z) / n, 2 * (y * z - w * x) / n],
        [2 * (x * z - w * y) / n, 2 * (y * z + w * x) / n, (w * w - x * x - y * y + z * z) / n],
    ]


def _diagonalize(rng, k):
    """Half Q diag(d) Q^t with rational rotation Q (eigenvalues known exactly),
    half small random integer forms (irrational eigenvalues; residual check only)."""
    if k % 2:
        d = [Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(3)]
        q = _rotation_from_quaternion(*(_nonzero(rng, lambda: rng.randint(-3, 3)) for _ in range(4)))
        diag = [[d[i] if i == j else Fraction(0) for j in range(3)] for i in range(3)]
        m = _matmul(_matmul(q, diag), _transpose(q))
        eig = sorted(float(v) for v in d)
    else:
        while True:
            vals = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
            if any(vals):
                break
        m = [[vals[0], vals[3], vals[4]], [vals[3], vals[1], vals[5]], [vals[4], vals[5], vals[2]]]
        eig = None
    args = [m[0][0], m[1][1], m[2][2], 2 * m[0][1], 2 * m[0][2], 2 * m[1][2]]
    matrix = [[str(v) for v in row] for row in m]
    return _request("diagonalize", [poly_text(args)], {"matrix": matrix, "eigenvalues": eig}, None)


def _solve(rng, k):
    degree = 2 if k % 5 < 2 else 3
    if k % 5 == 2:
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
        cs = expand(_small(rng, 1, 4, 1), roots)
    else:
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(degree)]
        cs.append(_nonzero(rng, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 3))))
    text = poly_text(cs)
    return _request("solve", [text], {"coeffs": text}, {"coeffs": text, "repeated": None})


def _depress(rng, k):
    degree = 2 + k % 5
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
    cs.append(_nonzero(rng, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
    text = poly_text(cs)
    return _request("depress", [text], {"coeffs": text}, {"coeffs": text, "repeated": None})


def _small_disc(rng, k, pending):
    degree = 2 + k % 4
    if k % 2:
        lead = _nonzero(rng, lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        roots = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(degree)]
        cs = expand(lead, roots)
        expect = {"disc": str(disc_from_roots(lead, roots))}
    else:
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)]
        cs.append(_nonzero(rng, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
        expect = {"disc": None}
        pending.append((expect, cs))
    text = poly_text(cs)
    return _request("disc", [text], expect, {"coeffs": text, "repeated": None})


FERMAT_PRIMES = (3, 5, 17, 257, 65537)


def _ngon_expected(n):
    """2^k times distinct Fermat primes; n below the 2^64 input cap."""
    while n % 2 == 0:
        n //= 2
    for p in FERMAT_PRIMES:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
    return n == 1


def _ngon(rng, k):
    if k % 2:
        n = 2 ** rng.randint(0, 12) * math.prod(p for p in FERMAT_PRIMES[:4] if rng.random() < 0.5)
        if n < 3:
            n *= 4
    else:
        n = rng.randint(3, 10**7)
    return _request("ngon", [str(n)], {"constructible": _ngon_expected(n)}, None)


def _has_rational_root(coeffs):
    """Brute-force rational-root test for small integer coefficients."""
    a0, an = coeffs[0], coeffs[-1]
    if a0 == 0:
        return True
    for p in range(1, abs(a0) + 1):
        if a0 % p:
            continue
        for q in range(1, abs(an) + 1):
            if an % q:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if peval(coeffs, cand) == 0:
                    return True
    return False


def _trisect(rng, k):
    if k % 2:
        r = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        while abs(r) > 1:
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        c = 4 * r**3 - 3 * r
    else:
        den = rng.randint(1, 12)
        c = Fraction(rng.randint(-den, den), den)
    cubic = [-c * c.denominator, Fraction(-3 * c.denominator), Fraction(0), Fraction(4 * c.denominator)]
    expected = _has_rational_root([int(v) for v in cubic])
    return _request("trisect", [str(c)], {"constructible": expected, "cos3a": str(c)}, None)


def _expr(rng, depth):
    """Random +,-,*,/,sqrt expression: (text, value, number of sqrt nodes)."""
    if depth == 0 or rng.random() < 0.3:
        v = rng.randint(1, 20)
        return str(v), float(v), 0
    op = rng.choice("+-*/s")
    if op == "s":
        text, val, k = _expr(rng, depth - 1)
        if val < 0:
            text, val = f"(0-{text})", -val
        return f"sqrt({text})", math.sqrt(val), k + 1
    lt, lv, lk = _expr(rng, depth - 1)
    rt, rv, rk = _expr(rng, depth - 1)
    if op == "/" and abs(rv) < 1e-3:
        op = "+"
    val = {"+": lv + rv, "-": lv - rv, "*": lv * rv, "/": lv / rv if op == "/" else 0.0}[op]
    return f"({lt}{op}{rt})", val, lk + rk


def _construct_eval(rng, k):
    text, value, sqrts = _expr(rng, 1 + k % 4)
    return _request("construct-eval", [text], {"value": value, "degree_bound": 2**sqrts}, None)


def _ellipse(rng, k):
    a = Fraction(rng.randint(1, 40), rng.randint(1, 4))
    b = a * Fraction(1 + k % 20, 20)
    return _request("ellipse", ["perimeter", str(a), str(b)], {"a": float(a), "b": float(b)}, None)


def _param(rng, k):
    kind = ("circle", "ellipse", "hyperbola", "parabola")[k % 4]
    a = Fraction(rng.randint(1, 20), rng.randint(1, 4))
    b = a if kind == "circle" else Fraction(rng.randint(1, 20), rng.randint(1, 4))
    t = Fraction(rng.randint(-40, 40), rng.randint(1, 10))
    if kind == "hyperbola" and abs(t) == 1:
        t = Fraction(1, 2)
    return _request("param", [kind, str(a), str(b), str(t)], {"kind": kind, "a": float(a), "b": float(b), "t": float(t)}, None)


def forms_small(seed):
    rng = random.Random(f"forms-small:{seed}")
    pending = []
    makers = {
        "classify-conic": _conic, "classify-quadric": _quadric, "diagonalize": _diagonalize,
        "solve": _solve, "depress": _depress, "disc": lambda r, k: _small_disc(r, k, pending),
        "ngon": _ngon, "trisect": _trisect, "construct-eval": _construct_eval,
        "ellipse": _ellipse, "param": _param,
    }
    # the k-th request of a command takes branch k mod (number of branches),
    # so the mix of cases is the same for every seed
    requests = [makers[cmd](rng, k) for cmd, count in FORMS_MIX.items() for k in range(count)]
    for (expect, _), d in zip(pending, _sympy_discriminants([cs for _, cs in pending])):
        expect["disc"] = str(d)
    rng.shuffle(requests)
    return requests


GENERATORS = {
    "highdeg-disc": highdeg_disc,
    "ratfun-partfrac": ratfun_partfrac,
    "forms-small": forms_small,
}


# -- input census -------------------------------------------------------------------


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _pollard_brent(n, budget=20000):
    for c in range(1, 6):
        y, g, q, steps = 2, 1, 1, 0
        x = y
        while g == 1 and steps < budget:
            x = y
            for _ in range(64):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            steps += 64
            g = math.gcd(q, n)
        if 1 < g < n:
            return g
    return None


def divisor_count(n):
    """Number of divisors of n >= 1, or None if n could not be factored
    within a small budget (reported as unfactored in the census)."""
    exps = Counter()
    for p in range(2, 2000):
        while n % p == 0:
            exps[p] += 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_probable_prime(m):
            exps[m] += 1
            continue
        f = _pollard_brent(m)
        if f is None:
            return None
        stack += [f, m // f]
    return math.prod(k + 1 for k in exps.values())


def _a0_an(coeffs):
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    ints = [c // g for c in trim(ints)]
    while ints[0] == 0:
        ints.pop(0)
    return abs(ints[0]), abs(ints[-1])


def census(requests):
    """Shares of the input properties that later "helps inputs with X" claims cite."""
    mix = Counter(r["cmd"] for r in requests)
    polys = {}
    for r in requests:
        if r["census"] is not None:
            polys[r["census"]["coeffs"]] = r["census"]["repeated"]
    degrees = Counter()
    bits = 0
    divisors = []
    unfactored = 0
    for text in polys:
        cs = parse_poly(text)
        degrees[len(cs) - 1] += 1
        bits = max(bits, max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in cs))
        a0, an = _a0_an(cs)
        d = divisor_count(a0 * an)
        if d is None:
            unfactored += 1
        else:
            divisors.append(d)
    divisors.sort()
    known = [v for v in polys.values() if v is not None]
    return {
        "requests": len(requests),
        "command_mix": dict(sorted(mix.items())),
        "polynomial_inputs": len(polys),
        "degree_histogram": {str(k): v for k, v in sorted(degrees.items())},
        "max_coeff_bits": bits,
        "divisors_a0_an": {
            "min": divisors[0] if divisors else None,
            "median": divisors[len(divisors) // 2] if divisors else None,
            "max": divisors[-1] if divisors else None,
            "unfactored": unfactored,
        },
        "repeated_root_share": (sum(known) / len(known)) if known else None,
    }
