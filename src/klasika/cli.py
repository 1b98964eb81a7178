"""Command-line front end.

Dispatch is hand-rolled rather than argparse-based because coefficient lists
like ``-1,0,-6,8`` start with a dash and standard option parsing would eat
them.  Every subcommand produces a CommandResult; `--json` prints one
well-formed object (sorted keys, schema version 1), plain mode prints the
human text.  Exit codes: 0 ok, 1 domain error, 2 usage error.  Each handler
imports the one layer it calls, so a subcommand loads only that layer and
what it imports.

Coefficient lists are ASCENDING (constant term first): ``disc 2,-3,1`` is
the polynomial x^2 - 3x + 2.  Quadric cross coefficients are passed as
written in the equation (the full xy/xz/yz coefficients) and halved
internally.  ``KLASIKA_PRECISION`` optionally overrides the quadrature
tolerance used by ``ellipse perimeter``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import Polynomial, _fraction_from_text, _join_terms, _terms

__all__ = ["CommandResult", "run", "main"]

SCHEMA_VERSION = 1

_MAX_DEGREE = 64  # keeps exact dense arithmetic bounded on hostile input


class UsageError(ValueError):
    pass


@dataclass
class CommandResult:
    status: str  # "ok" | "error"
    payload: dict = field(default_factory=dict)
    human_text: str = ""
    exit_code: int = 0

    def to_json(self) -> str:
        obj = {"schema": SCHEMA_VERSION, "status": self.status}
        obj.update(self.payload)
        return json.dumps(obj, sort_keys=True)


def _fnum(x: float) -> float:
    """Normalize -0.0 so rendered output is stable; refuse inf and nan,
    which JSON cannot carry, as a domain error."""
    if not math.isfinite(x):
        raise ValueError(f"the result {x} is not a finite number")
    return 0.0 if x == 0 else float(x)


def _fmt(x: float) -> str:
    return f"{_fnum(x):.12g}"


def _fmt_complex(z: complex) -> str:
    re, im = _fnum(z.real), _fnum(z.imag)
    if im == 0:
        return _fmt(re)
    sign = "+" if im >= 0 else "-"
    return f"{_fmt(re)}{sign}{_fmt(abs(im))}i"


def _parse_poly(text: str, min_degree: int = 0) -> Polynomial:
    f = Polynomial.from_text(text)
    if f.degree != float("-inf") and f.degree > _MAX_DEGREE:
        raise UsageError(f"polynomial degree {f.degree} exceeds the supported cap {_MAX_DEGREE}")
    if f.is_zero or f.degree < min_degree:
        raise ValueError(f"need a polynomial of degree >= {min_degree}, got {text!r}")
    return f


def _parse_fraction(text: str) -> Fraction:
    try:
        return _fraction_from_text(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed rational number: {text!r}") from None


def _parse_fraction_list(text: str, count: int, what: str) -> list[Fraction]:
    parts = text.split(",")
    if len(parts) != count:
        raise UsageError(f"{what} needs {count} comma-separated rationals, got {len(parts)}")
    return [_parse_fraction(p) for p in parts]


def _parse_float(text: str, what: str) -> float:
    try:
        value = float(_fraction_from_text(text.strip()))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"malformed number for {what}: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {text!r}")
    return value


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"malformed integer for {what}: {text!r}") from None


def _need_args(args: list[str], count: int, usage: str) -> None:
    if len(args) != count:
        raise UsageError(f"usage: {usage}")


def _verdict_payload(v) -> dict:
    word = {True: "yes", False: "no", None: "unknown"}[v.constructible]
    return {
        "constructible": v.constructible,
        "constructible_text": word,
        "reason": v.reason,
        **v.details,
    }


# -- subcommand handlers ------------------------------------------------------------


def _cmd_disc(args, opts):
    from . import disc
    _need_args(args, 1, "disc <coeffs>")
    f = _parse_poly(args[0], min_degree=2)
    d_res = disc.discriminant_resultant(f)
    d_han = disc.discriminant_hankel(f)
    payload = {
        "command": "disc",
        "polynomial": f.to_text(),
        "discriminant_resultant": str(d_res),
        "discriminant_hankel": str(d_han),
        "agree": d_res == d_han,
        "zero": d_res == 0,
    }
    human = (
        f"discriminant of {f}\n"
        f"  resultant route: {d_res}\n"
        f"  power-sum route: {d_han}\n"
        f"  agreement: {'yes' if payload['agree'] else 'NO'}"
    )
    return payload, human


def _cmd_repeated(args, opts):
    from . import disc
    _need_args(args, 1, "repeated <coeffs>")
    f = _parse_poly(args[0], min_degree=1)
    result = disc.has_repeated_roots(f)
    payload = {"command": "repeated", "polynomial": f.to_text(), "has_repeated_roots": result}
    human = f"{f}: {'has a repeated root' if result else 'all roots are simple'}"
    return payload, human


def _cmd_solve(args, opts):
    from . import roots
    _need_args(args, 1, "solve <coeffs>")
    f = _parse_poly(args[0], min_degree=2)
    if f.degree not in (2, 3):
        raise ValueError(f"solve supports degree 2 or 3, got degree {f.degree}")
    tol = opts.get("tol")
    if f.degree == 2:
        pair = roots.solve_quadratic(f)
        res = tuple(abs(f(z)) for z in pair)
        tol = tol if tol is not None else 1e-10 * (1.0 + f.norm_1())
        zs, rs = list(pair), list(res)
    else:
        out = roots.solve_cubic_cardano(f)
        tol = tol if tol is not None else out.tolerance
        zs, rs = list(out.roots), list(out.residuals)
    payload = {
        "command": "solve",
        "polynomial": f.to_text(),
        "roots": [[_fnum(z.real), _fnum(z.imag)] for z in zs],
        "residuals": [_fnum(r) for r in rs],
        "tolerance": _fnum(tol),
        "within_tolerance": all(r < tol for r in rs),
    }
    lines = [f"roots of {f}"]
    for z, r in zip(zs, rs):
        lines.append(f"  {_fmt_complex(z)}   (residual {_fmt(r)})")
    return payload, "\n".join(lines)


def _cmd_depress(args, opts):
    from . import roots
    _need_args(args, 1, "depress <coeffs>")
    f = _parse_poly(args[0], min_degree=2)
    dep = roots.depress(f)
    payload = {
        "command": "depress",
        "polynomial": f.to_text(),
        "depressed": dep.poly.to_text(),
        "shift": str(dep.shift),
    }
    human = f"{f}  ->  {dep.poly}   (x = y - ({dep.shift}))"
    return payload, human


def _cmd_classify_conic(args, opts):
    from . import forms
    _need_args(args, 1, "classify-conic a,b,c,d,e,lambda")
    a, b, c, d, e, lam = _parse_fraction_list(args[0], 6, "classify-conic")
    kind, sig = forms._classify_conic(a, b, c, d, e, lam)
    payload = {
        "command": "classify-conic",
        "coefficients": [str(v) for v in (a, b, c, d, e, lam)],
        "kind": kind.value,
        "quadratic_inertia": list(sig.as_tuple()),
    }
    lhs = _join_terms(_terms([(a, "x^2"), (b, "x*y"), (c, "y^2"), (d, "x"), (e, "y")]))
    human = f"{lhs} = {lam}:  {kind.value}"
    return payload, human


def _ternary_from_arg(text: str):
    from . import forms
    a, b, c, dd, ee, ff = _parse_fraction_list(text, 6, "quadric")
    return forms.TernaryForm.from_equation_coefficients(a, b, c, dd, ee, ff)


def _cmd_classify_quadric(args, opts):
    from . import forms
    _need_args(args, 1, "classify-quadric a,b,c,d,e,f")
    form = _ternary_from_arg(args[0])
    kind, sig = forms._classify_quadric(form)
    note = forms._degeneracy_note(sig)
    payload = {
        "command": "classify-quadric",
        "inertia": list(sig.as_tuple()),
        "kind": kind.value,
    }
    if note:
        payload["note"] = note
    human = f"inertia {sig.as_tuple()}:  {kind.value}" + (f"\n  note: {note}" if note else "")
    return payload, human


def _cmd_diagonalize(args, opts):
    from . import forms
    _need_args(args, 1, "diagonalize a,b,c,d,e,f")
    form = _ternary_from_arg(args[0])
    dg = forms.orthogonal_diagonalize(forms.form_to_matrix(form))
    substitution, diag_coeffs = tuple(zip(*dg.S)), dg.D  # as forms.diagonal_substitution
    tol = opts.get("tol", 1e-6)
    payload = {
        "command": "diagonalize",
        "substitution": [[_fnum(v) for v in row] for row in substitution],
        "diagonal_form": [_fnum(v) for v in diag_coeffs],
        "residual": _fnum(dg.residual),
        "within_tolerance": dg.residual < tol,
    }
    lines = ["diagonal form coefficients: " + ", ".join(_fmt(v) for v in diag_coeffs)]
    for i, row in enumerate(substitution):
        var = ("x'", "y'", "z'")[i]
        combo = " ".join(
            f"{'+' if v >= 0 else '-'} {_fmt(abs(v))}*{name}"
            for v, name in zip(row, ("x", "y", "z"))
        )
        lines.append(f"  {var} = {combo.lstrip('+ ')}")
    lines.append(f"  reconstruction residual {_fmt(dg.residual)}")
    return payload, "\n".join(lines)


def _cmd_ngon(args, opts):
    from . import construct
    _need_args(args, 1, "ngon <n>")
    n = _parse_int(args[0], "n")
    verdict = construct.ngon_constructible(n)
    payload = {"command": "ngon", "n": n, **_verdict_payload(verdict)}
    human = f"regular {n}-gon constructible: {payload['constructible_text']}\n  {verdict.reason}"
    return payload, human


def _cmd_trisect(args, opts):
    from . import construct
    _need_args(args, 1, "trisect <cos3a as p/q>")
    value = _parse_fraction(args[0])
    verdict = construct.trisectable(value)
    payload = {"command": "trisect", **_verdict_payload(verdict)}
    human = f"angle with cos(3a) = {value} trisectable: {payload['constructible_text']}\n  {verdict.reason}"
    return payload, human


def _cmd_double_cube(args, opts):
    from . import construct
    _need_args(args, 0, "double-cube")
    verdict = construct.cube_doubling()
    payload = {"command": "double-cube", **_verdict_payload(verdict)}
    human = f"doubling the cube: {payload['constructible_text']}\n  {verdict.reason}"
    return payload, human


def _cmd_square_circle(args, opts):
    from . import construct
    _need_args(args, 0, "square-circle")
    verdict = construct.circle_squaring()
    payload = {"command": "square-circle", **_verdict_payload(verdict)}
    human = f"squaring the circle: {payload['constructible_text']}\n  {verdict.reason}"
    return payload, human


def _cmd_construct_eval(args, opts):
    from . import construct
    _need_args(args, 1, 'construct-eval "<expr>"')
    try:
        expr = construct.parse_constructible(args[0])
    except ValueError as exc:
        raise UsageError(f"cannot parse expression: {exc}") from None
    value, bound = construct.eval_constructible(expr)
    payload = {
        "command": "construct-eval",
        "expression": args[0],
        "value": _fnum(value),
        "degree_bound": bound,
    }
    human = f"{args[0]} = {value!r}   (tower degree bound {bound})"
    return payload, human


def _split_ratfun_args(args, usage):
    if len(args) == 3 and args[1] == "/":
        return args[0], args[2]
    if len(args) == 1 and args[0].count("/") == 1 and "," in args[0]:
        top, bottom = args[0].split("/")
        return top, bottom
    raise UsageError(f"usage: {usage}")


def _cmd_integrate(args, opts):
    from . import ratfun
    top, bottom = _split_ratfun_args(args, "integrate <p-coeffs> / <q-coeffs>")
    p = _parse_poly(top)
    q = _parse_poly(bottom)
    anti = ratfun.integrate_rational(p, q)
    rendered = anti.render()
    payload = {
        "command": "integrate",
        "numerator": p.to_text(),
        "denominator": q.to_text(),
        "antiderivative": rendered,
    }
    human = f"integral of ({p}) / ({q}) dx = {rendered}"
    return payload, human


def _cmd_partfrac(args, opts):
    from . import ratfun
    top, bottom = _split_ratfun_args(args, "partfrac <p-coeffs> / <q-coeffs>")
    p = _parse_poly(top)
    q = _parse_poly(bottom)
    pf = ratfun.partial_fractions(p, q)
    pieces = []
    if not pf.polynomial_part.is_zero:
        pieces.append(str(pf.polynomial_part))
    for a, root, power in pf.linear_terms:
        base = "x" if root == 0 else f"({ratfun._fmt_linear(root)})"
        denom = base if power == 1 else f"{base}^{power}"
        pieces.append(f"({a})/{denom}")
    for b, c, pp, qq in pf.quadratic_terms:
        num = str(Polynomial([c, b]))
        den = str(Polynomial([qq, pp, 1]))
        pieces.append(f"({num})/({den})")
    payload = {
        "command": "partfrac",
        "numerator": p.to_text(),
        "denominator": q.to_text(),
        "polynomial_part": pf.polynomial_part.to_text(),
        "linear_terms": [[str(a), str(r), k] for a, r, k in pf.linear_terms],
        "quadratic_terms": [[str(b), str(c), str(pp), str(qq)] for b, c, pp, qq in pf.quadratic_terms],
    }
    human = f"({p}) / ({q}) = " + " + ".join(pieces)
    return payload, human


def _cmd_ellipse(args, opts):
    from . import ratfun
    if len(args) != 3 or args[0] not in ("area", "perimeter"):
        raise UsageError("usage: ellipse area|perimeter <a> <b>")
    a = _parse_float(args[1], "a")
    b = _parse_float(args[2], "b")
    if args[0] == "area":
        value = ratfun.ellipse_area(a, b)
        payload = {"command": "ellipse", "mode": "area", "a": a, "b": b, "value": _fnum(value)}
        human = f"ellipse area (a={_fmt(a)}, b={_fmt(b)}): {_fmt(value)}"
    else:
        tol = 1e-12
        env = os.environ.get("KLASIKA_PRECISION")
        if env is not None:
            tol = float(_fraction_from_text(env))  # malformed value -> domain error
            if not (0 < tol < 1):
                raise ValueError(f"KLASIKA_PRECISION must be in (0, 1), got {env!r}")
        value = ratfun.ellipse_perimeter(a, b, tol=tol)
        payload = {"command": "ellipse", "mode": "perimeter", "a": a, "b": b, "value": _fnum(value)}
        human = f"ellipse perimeter (a={_fmt(a)}, b={_fmt(b)}): {_fmt(value)}"
    return payload, human


def _cmd_param(args, opts):
    from . import ratfun
    _need_args(args, 4, "param circle|ellipse|hyperbola|parabola <a> <b> <t>")
    kind = args[0]
    a = _parse_float(args[1], "a")
    b = _parse_float(args[2], "b")
    t = _parse_float(args[3], "t")
    conic = ratfun.ConicParam(kind, a, b)
    x, y = conic.point(t)
    residual = conic.implicit_residual(x, y)
    tol = opts.get("tol", 1e-10)
    payload = {
        "command": "param",
        "kind": kind,
        "a": a,
        "b": b,
        "t": t,
        "x": _fnum(x),
        "y": _fnum(y),
        "residual": _fnum(residual),
        "within_tolerance": residual < tol,
    }
    human = f"{kind}(t={_fmt(t)}) = ({_fmt(x)}, {_fmt(y)})   residual {_fmt(residual)}"
    return payload, human


_HANDLERS = {
    "disc": _cmd_disc,
    "repeated": _cmd_repeated,
    "solve": _cmd_solve,
    "depress": _cmd_depress,
    "classify-conic": _cmd_classify_conic,
    "classify-quadric": _cmd_classify_quadric,
    "diagonalize": _cmd_diagonalize,
    "ngon": _cmd_ngon,
    "trisect": _cmd_trisect,
    "double-cube": _cmd_double_cube,
    "square-circle": _cmd_square_circle,
    "construct-eval": _cmd_construct_eval,
    "integrate": _cmd_integrate,
    "partfrac": _cmd_partfrac,
    "ellipse": _cmd_ellipse,
    "param": _cmd_param,
}

_USAGE = """usage: klasika [--json] [--tol X] <command> ...

commands:
  disc <coeffs>                      discriminant, both routes (coeffs ascending: a0,a1,...)
  repeated <coeffs>                  repeated-root test
  solve <coeffs>                     roots of a degree-2/3 polynomial with residuals
  depress <coeffs>                   remove the second-highest term
  classify-conic a,b,c,d,e,lambda    kind of ax^2+bxy+cy^2+dx+ey = lambda
  classify-quadric a,b,c,d,e,f       kind of ax^2+by^2+cz^2+dxy+exz+fyz = h
  diagonalize a,b,c,d,e,f            orthogonal substitution and diagonal form
  ngon <n>                           regular n-gon constructibility
  trisect <p/q>                      trisectability of an angle with cos(3a) = p/q
  double-cube                        the classical cube-doubling verdict
  square-circle                      the classical circle-squaring verdict
  construct-eval "<expr>"            evaluate a +,-,*,/,sqrt expression with degree bound
  integrate <p> / <q>                antiderivative of a rational function
  partfrac <p> / <q>                 partial-fraction decomposition
  ellipse area|perimeter <a> <b>     ellipse area / perimeter
  param <kind> <a> <b> <t>           rational parametrization point of a conic
"""


def run(argv: list[str]) -> CommandResult:
    """Execute one command line; never raises."""
    opts: dict = {}
    positional: list[str] = []
    try:
        i = 0
        while i < len(argv):
            arg = argv[i]
            if arg == "--tol":
                if i + 1 >= len(argv):
                    raise UsageError("--tol needs a value")
                i += 1
                try:
                    opts["tol"] = float(argv[i])
                except ValueError:
                    raise UsageError(f"malformed --tol value: {argv[i]!r}") from None
                if not (opts["tol"] > 0 and math.isfinite(opts["tol"])):
                    raise UsageError("--tol must be a positive finite number")
            elif arg == "--help" or arg == "-h":
                return CommandResult("ok", {"command": "help", "usage": _USAGE}, _USAGE, 0)
            elif arg != "--json":  # `main` reads --json from argv itself
                positional.append(arg)
            i += 1
        if not positional:
            raise UsageError("no command given\n" + _USAGE)
        command, rest = positional[0], positional[1:]
        handler = _HANDLERS.get(command)
        if handler is None:
            raise UsageError(f"unknown command {command!r}")
        payload, human = handler(rest, opts)
        return CommandResult("ok", payload, human, 0)
    except UsageError as exc:
        return CommandResult("error", {"error": str(exc), "kind": "usage"}, f"error: {exc}", 2)
    except (ValueError, ZeroDivisionError, OverflowError, ArithmeticError) as exc:
        return CommandResult("error", {"error": str(exc), "kind": "domain"}, f"error: {exc}", 1)
    except RecursionError:
        return CommandResult(
            "error", {"error": "input too deeply nested", "kind": "domain"},
            "error: input too deeply nested", 1,
        )
    except Exception as exc:  # pragma: no cover - fuzz safety net
        return CommandResult(
            "error", {"error": f"internal error: {exc}", "kind": "internal"},
            f"internal error: {exc}", 1,
        )


def main(argv: list[str] | None = None) -> int:
    result = run(list(sys.argv[1:]) if argv is None else list(argv))
    wants_json = "--json" in (sys.argv[1:] if argv is None else argv)
    print(result.to_json() if wants_json else result.human_text)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
