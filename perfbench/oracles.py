"""Output checks that do not depend on klasika.

``check(request, text)`` returns None when the ``--json`` output ``text`` of a
request is right and a one-line reason when it is not.  A request fails when
its status is not ok (this includes ``kind: "internal"``) or its answer is
wrong.  Exact answers are compared exactly; every float answer is checked by
recomputing its residual or flag from the inputs.

``exact_digest`` hashes the exact (non-float) fields of an output; the digests
in ``golden.json`` were recorded on the seed commit and enforce the
determinism contract byte for byte.  ``corrupt`` damages one answer per
command so the self-test can show that the checks catch it.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction

from workloads import convolve, expand, parse_poly, peval, trim


def _close(x, y, rel, abs_tol=0.0):
    return abs(x - y) <= max(rel * max(abs(x), abs(y)), abs_tol)


def _norm1(cs):
    return float(sum(abs(c) for c in cs))


def _check_disc(out, ex, argv):
    want = ex["disc"]
    if out["discriminant_resultant"] != want or out["discriminant_hankel"] != want:
        return "discriminant differs from the oracle"
    if out["agree"] is not True or out["zero"] != (Fraction(want) == 0):
        return "agree/zero flags wrong"
    if out["polynomial"] != argv[2]:
        return "polynomial echo differs from the input"
    return None


def _check_repeated(out, ex, argv):
    if out["has_repeated_roots"] is not ex["repeated"]:
        return "repeated-root verdict differs from the known multiplicities"
    return None


def _denominator_cofactor(ex, drop_root=None, power=0, drop_quad=False):
    """q / ((x - drop_root)^power or the quadratic), from the known factors."""
    roots = []
    for r, m in ex["linear"]:
        r = Fraction(r)
        k = m - power if r == drop_root else m
        if k < 0:
            return None
        roots += [r] * k
    extra = []
    if ex["quad"] is not None and not drop_quad:
        p, q = (Fraction(v) for v in ex["quad"])
        extra.append([q, p, Fraction(1)])
    return expand(Fraction(ex["lead"]), roots, extra)


def _add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _check_partfrac(out, ex, argv):
    """Recombine the terms over the known denominator and compare to p."""
    q = _denominator_cofactor(ex)
    total = convolve(parse_poly(out["polynomial_part"]), q)
    known = {Fraction(r): m for r, m in ex["linear"]}
    for a, r, k in out["linear_terms"]:
        r = Fraction(r)
        if r not in known or not 1 <= k <= known[r]:
            return f"linear term over (x-{r})^{k} is not a factor of q"
        total = _add(total, [Fraction(a) * c for c in _denominator_cofactor(ex, r, k)])
    for b, c, p, qq in out["quadratic_terms"]:
        if ex["quad"] is None or [p, qq] != ex["quad"]:
            return f"quadratic term over x^2+{p}x+{qq} is not a factor of q"
        total = _add(total, convolve([Fraction(c), Fraction(b)], _denominator_cofactor(ex, drop_quad=True)))
    if trim(total) != trim(parse_poly(ex["num"])):
        return "recombined partial fractions differ from p/q"
    return None


_R = r"\d+(?:/\d+)?"
_LIN = rf"x(?:[+-]{_R})?"
# One term of the rendered antiderivative, without its sign.  The grammar is
# the one ``integrate`` renders: a polynomial part, ln|x-r|, c/(x-r)^k,
# ln(x^2+px+q) and arctan, the last with a rational or a sqrt(d) scale.
_TERMS = [
    ("const", re.compile(rf"({_R})")),
    ("power", re.compile(rf"(?:({_R})\*)?x(?:\^(\d+))?")),
    ("ln_abs", re.compile(rf"(?:({_R})\*)?ln\|({_LIN})\|")),
    ("pole", re.compile(rf"({_R})/\(({_LIN})\)(?:\^(\d+))?")),
    ("ln_quad", re.compile(rf"(?:({_R})\*)?ln\(x\^2(?:([+-])(?:({_R})\*)?x)?(?:([+-]{_R}))?\)")),
    ("atan", re.compile(rf"(?:({_R})\*)?arctan\((?:x|\(({_LIN})\))(?:/({_R}))?\)")),
    ("atan_sqrt", re.compile(rf"({_R})/sqrt\(({_R})\)\*arctan\(\(({_LIN})\)/sqrt\(({_R})\)\)")),
]


def _frac(text, default=1):
    return Fraction(text) if text else Fraction(default)


def _shift(lin):
    """a in x + a, from the rendered x, x+a or x-a."""
    return Fraction(lin[1:]) if len(lin) > 1 else Fraction(0)


def _term_derivative(kind, g, x):
    if kind == "const":
        return Fraction(0)
    if kind == "power":
        k = int(g[1] or 1)
        return _frac(g[0]) * k * x ** (k - 1)
    if kind == "ln_abs":
        return _frac(g[0]) / (x + _shift(g[1]))
    if kind == "pole":
        k = int(g[2] or 1)
        return -k * _frac(g[0]) / (x + _shift(g[1])) ** (k + 1)
    if kind == "ln_quad":
        p = (-1 if g[1] == "-" else 1) * _frac(g[2]) if g[1] else Fraction(0)
        q = _frac(g[3], 0)
        return _frac(g[0]) * (2 * x + p) / (x * x + p * x + q)
    if kind == "atan":  # c*arctan((x+a)/s)
        s, u = _frac(g[2]), x + (_shift(g[1]) if g[1] else 0)
        return _frac(g[0]) * s / (s * s + u * u)
    # c/sqrt(d)*arctan((x+a)/sqrt(d)) has derivative c/((x+a)^2 + d)
    if g[1] != g[3]:
        raise ValueError("arctan scale differs from its coefficient's sqrt")
    u = x + _shift(g[2])
    return Fraction(g[0]) / (u * u + Fraction(g[1]))


def antiderivative_derivative(text, x):
    """The exact derivative at the rational x of a rendered antiderivative.

    Every term the renderer emits has a rational derivative at a rational
    point, so no float and no tolerance is involved.
    """
    if text != "K" and not text.endswith(" + K"):
        raise ValueError("antiderivative lacks the trailing + K")
    body = text[: -len(" + K")] if text != "K" else ""
    parts = re.split(r" ([-+]) ", body) if body else []
    signs = ["+"] + parts[1::2]
    pieces = parts[0::2]
    if pieces and pieces[0].startswith("-"):
        signs[0], pieces[0] = "-", pieces[0][1:]
    total = Fraction(0)
    for sign, piece in zip(signs, pieces):
        sign = -1 if sign == "-" else 1
        for kind, pattern in _TERMS:
            m = pattern.fullmatch(piece)
            if m:
                total += sign * _term_derivative(kind, m.groups(), x)
                break
        else:
            raise ValueError(f"unexpected term {piece!r}")
    return total


def _sample_points(ex):
    """Rational points away from every real pole: left, right and between roots."""
    roots = sorted(Fraction(r) for r, _ in ex["linear"])
    if not roots:
        return [Fraction(-3, 2), Fraction(1, 4), Fraction(2)]
    pts = [roots[0] - Fraction(5, 4), roots[-1] + Fraction(5, 4), roots[-1] + Fraction(7, 3)]
    gaps = [(b - a, a, b) for a, b in zip(roots, roots[1:])]
    if gaps:
        _, a, b = max(gaps)
        pts.append(a + (b - a) * Fraction(2, 5))
    return pts


def _check_integrate(out, ex, argv):
    """Differentiate the rendered antiderivative exactly and compare to p/q."""
    num, den = parse_poly(ex["num"]), _denominator_cofactor(ex)
    for x in _sample_points(ex):
        try:
            deriv = antiderivative_derivative(out["antiderivative"], x)
        except (ValueError, ZeroDivisionError) as exc:
            return f"antiderivative does not differentiate at {x}: {exc}"
        if deriv != peval(num, x) / peval(den, x):
            return f"d/dx antiderivative != p/q at x = {x}"
    return None


def _check_solve(out, ex, argv):
    cs = parse_poly(ex["coeffs"])
    degree = len(cs) - 1
    zs = [complex(re_, im) for re_, im in out["roots"]]
    if len(zs) != degree:
        return "wrong number of roots"
    fc = [float(c) for c in cs]
    tol = (1e-10 if degree == 2 else 1e-8) * (1.0 + _norm1(cs))
    for z in zs:
        res = abs(peval(fc, z))
        if not res < tol:
            return f"residual {res} at root {z} exceeds {tol}"
    if out["within_tolerance"] is not True:
        return "within_tolerance flag is false"
    # Vieta: the sum of the roots is -a_{n-1}/a_n, which rules out repeats of one root
    want = -fc[-2] / fc[-1]
    if abs(sum(zs) - want) > 1e-6 * (1.0 + sum(abs(z) for z in zs)):
        return "roots do not sum to -a_{n-1}/a_n"
    return None


def _check_depress(out, ex, argv):
    """dep(y + shift) must equal the monic input, exactly."""
    cs = parse_poly(ex["coeffs"])
    monic = [c / cs[-1] for c in cs]
    dep = parse_poly(out["depressed"])
    shift = Fraction(out["shift"])
    if len(dep) != len(cs) or dep[-1] != 1 or dep[-2] != 0:
        return "depressed polynomial is not monic with zero second coefficient"
    back = [Fraction(0)]
    for c in reversed(dep):  # Horner in the polynomial ring: back * (x + shift) + c
        back = _add(convolve(back, [shift, Fraction(1)]), [c])
    if trim(back) != monic:
        return "depressed polynomial does not shift back to the monic input"
    return None


def _check_conic(out, ex, argv):
    if out["kind"] != ex["kind"]:
        return f"kind {out['kind']} != {ex['kind']}"
    if out["quadratic_inertia"] != ex["inertia"]:
        return "quadratic inertia differs from the construction"
    return None


def _check_quadric(out, ex, argv):
    if out["inertia"] != ex["inertia"] or out["kind"] != ex["kind"]:
        return f"inertia/kind {out['inertia']} {out['kind']} != {ex['inertia']} {ex['kind']}"
    if ("note" in out) != ex["note"]:
        return "degeneracy note presence differs from the rank"
    return None


def _check_diagonalize(out, ex, argv):
    """Rows orthonormal and sum_k D_k r_k r_k^t = M, recomputed from the output."""
    rows = out["substitution"]
    d = out["diagonal_form"]
    m = [[float(Fraction(v)) for v in row] for row in ex["matrix"]]
    scale = 1.0 + max(abs(v) for row in m for v in row)
    for i in range(3):
        for j in range(3):
            dot = sum(rows[i][k] * rows[j][k] for k in range(3))
            if abs(dot - (1.0 if i == j else 0.0)) > 1e-9:
                return "substitution rows are not orthonormal"
            recon = sum(d[k] * rows[k][i] * rows[k][j] for k in range(3))
            if abs(recon - m[i][j]) > 1e-9 * scale:
                return "diagonal form does not reconstruct the matrix"
    if d != sorted(d):
        return "diagonal coefficients are not in ascending order"
    if ex["eigenvalues"] is not None and any(abs(a - b) > 1e-9 * scale for a, b in zip(d, ex["eigenvalues"])):
        return "eigenvalues differ from the construction"
    if out["within_tolerance"] is not True or not out["residual"] < 1e-6:
        return "reported residual or flag is wrong"
    return None


def _check_ngon(out, ex, argv):
    if out["constructible"] is not ex["constructible"]:
        return "n-gon verdict differs from the Fermat-prime criterion"
    return None


def _check_trisect(out, ex, argv):
    if out["constructible"] is not ex["constructible"]:
        return "trisection verdict differs from the rational-root search"
    if ex["constructible"]:
        r = Fraction(out["rational_root"])
        if 4 * r**3 - 3 * r != Fraction(ex["cos3a"]):
            return "rational_root is not cos(a) for the given cos(3a)"
    return None


def _check_construct(out, ex, argv):
    if out["degree_bound"] != ex["degree_bound"]:
        return "tower degree bound is not 2^(number of square roots)"
    if not _close(out["value"], ex["value"], 1e-12, 1e-12):
        return "value differs from a direct float evaluation"
    return None


def agm_perimeter(a, b):
    """Ellipse perimeter by the Gauss-Kummer AGM series for E(k)."""
    x, y = a, b
    total = 0.5 * (a * a - b * b)  # sum of 2^(n-1) c_n^2, c_0^2 = a^2 - b^2
    weight = 1.0
    for _ in range(40):  # quadratic convergence: a handful of steps suffice
        if x - y <= 1e-15 * x:
            break
        c = 0.5 * (x - y)
        x, y = 0.5 * (x + y), math.sqrt(x * y)
        total += weight * c * c
        weight *= 2.0
    return 4.0 * math.pi * (a * a - total) / (x + y)  # (x + y) / 2 is AGM(a, b)


def _check_ellipse(out, ex, argv):
    want = agm_perimeter(ex["a"], ex["b"])
    if not _close(out["value"], want, 1e-9):
        return f"perimeter {out['value']} != AGM value {want}"
    return None


def _check_param(out, ex, argv):
    a, b, t, kind = ex["a"], ex["b"], ex["t"], ex["kind"]
    x, y = out["x"], out["y"]
    if kind in ("circle", "ellipse"):
        want = (a * (1 - t * t) / (1 + t * t), 2 * b * t / (1 + t * t))
        t1, t2 = (x / a) ** 2, (y / b) ** 2
        res = abs(t1 + t2 - 1.0) / (1.0 + t1 + t2)
    elif kind == "hyperbola":
        want = (a * (1 + t * t) / (1 - t * t), 2 * b * t / (1 - t * t))
        t1, t2 = (x / a) ** 2, (y / b) ** 2
        res = abs(t1 - t2 - 1.0) / (1.0 + t1 + t2)
    else:
        want = (a * t * t, 2 * a * t)
        res = abs(y * y - 4 * a * x) / (1.0 + y * y + abs(4 * a * x))
    if not (_close(x, want[0], 1e-12, 1e-12) and _close(y, want[1], 1e-12, 1e-12)):
        return "point differs from the parametrization formula"
    if not res < 1e-10 or out["within_tolerance"] is not True:
        return f"implicit residual {res} or its flag is wrong"
    return None


CHECKS = {
    "disc": _check_disc, "repeated": _check_repeated, "partfrac": _check_partfrac,
    "integrate": _check_integrate, "solve": _check_solve, "depress": _check_depress,
    "classify-conic": _check_conic, "classify-quadric": _check_quadric,
    "diagonalize": _check_diagonalize, "ngon": _check_ngon, "trisect": _check_trisect,
    "construct-eval": _check_construct, "ellipse": _check_ellipse, "param": _check_param,
}


def check(request, text):
    try:
        out = json.loads(text)
    except ValueError:
        return "output is not JSON"
    if out.get("status") != "ok":
        return f"status {out.get('status')} ({out.get('kind')}): {out.get('error')}"
    if out.get("command") != request["cmd"]:
        return "output names another command"
    try:
        return CHECKS[request["cmd"]](out, request["expect"], request["argv"])
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError, OverflowError) as exc:
        return f"malformed output: {exc!r}"


# -- determinism digests -------------------------------------------------------------


def _has_float(v):
    if isinstance(v, float):
        return True
    if isinstance(v, (list, tuple)):
        return any(_has_float(x) for x in v)
    if isinstance(v, dict):
        return any(_has_float(x) for x in v.values())
    return False


def exact_digest(text):
    """sha256 over the output's exact fields (floats may differ across libm)."""
    out = json.loads(text)
    exact = {k: v for k, v in out.items() if not _has_float(v)}
    return hashlib.sha256(json.dumps(exact, sort_keys=True).encode()).hexdigest()


# -- self-test -----------------------------------------------------------------------


def _bump(s):
    """Change the last digit of a rational or text field."""
    for i in range(len(s) - 1, -1, -1):
        if s[i].isdigit():
            return s[:i] + str((int(s[i]) + 1) % 10) + s[i + 1 :]
    return s + "1"


def corrupt(cmd, text):
    """The same output with its answer damaged, as a wrong program would print."""
    out = json.loads(text)
    if cmd == "disc":
        out["discriminant_resultant"] = _bump(out["discriminant_resultant"])
    elif cmd == "repeated":
        out["has_repeated_roots"] = not out["has_repeated_roots"]
    elif cmd == "partfrac":
        if out["linear_terms"]:
            out["linear_terms"][0][0] = _bump(out["linear_terms"][0][0])
        else:
            out["polynomial_part"] = _bump(out["polynomial_part"])
    elif cmd == "integrate":
        out["antiderivative"] = _bump(out["antiderivative"])
    elif cmd == "solve":
        out["roots"][0][0] += 0.5
    elif cmd == "depress":
        out["shift"] = _bump(out["shift"])
    elif cmd == "classify-conic":
        out["kind"] = "Hyperbola" if out["kind"] != "Hyperbola" else "Ellipse"
    elif cmd == "classify-quadric":
        out["inertia"] = out["inertia"][::-1] if out["inertia"] != out["inertia"][::-1] else [3, 0, 0]
    elif cmd == "diagonalize":
        out["diagonal_form"][0] += 0.01
    elif cmd in ("ngon", "trisect"):
        out["constructible"] = not out["constructible"]
    elif cmd == "construct-eval":
        out["value"] += 1e-3 * (1.0 + abs(out["value"]))
    elif cmd == "ellipse":
        out["value"] *= 1.0001
    elif cmd == "param":
        out["x"] += 0.01 * (1.0 + abs(out["x"]))
    return json.dumps(out, sort_keys=True)
