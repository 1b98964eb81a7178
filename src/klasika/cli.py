"""Command-line front end.

Dispatch is hand-rolled rather than argparse-based because coefficient lists
like ``-1,0,-6,8`` start with a dash and standard option parsing would eat
them.  Every subcommand produces a CommandResult; `--json` prints one
well-formed object (sorted keys, schema version 1), plain mode prints the
human text.  Exit codes: 0 ok, 1 domain error, 2 usage error.

`_COMMANDS` names each subcommand once, with its handler, help syntax and
help text; the help screen is built from it.  A handler returns its payload
and a zero-argument function that builds the human text, and `run` adds the
command name.  `run` calls that function only when argv does not ask for
`--json`, so the text is built only when it is printed.  A number that the
text prints as the payload does is taken from the payload's string, so it
is converted to decimal once, and the text cannot fail where the payload
did not.  Each handler imports the one layer it calls, so a subcommand
loads only that layer and what it imports.

Coefficient lists are ASCENDING (constant term first): ``disc 2,-3,1`` is
the polynomial x^2 - 3x + 2.  Quadric cross coefficients are passed as
written in the equation (the full xy/xz/yz coefficients) and halved
internally.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from . import _Record
from .exact import Polynomial, _fraction_from_text, _join_terms, _terms

__all__ = ["CommandResult", "run", "main"]

SCHEMA_VERSION = 1

_MAX_DEGREE = 64  # keeps exact dense arithmetic bounded on hostile input


class UsageError(ValueError):
    pass


class CommandResult(_Record):
    status: str  # "ok" | "error"
    payload: dict
    human_text: str | None  # None under --json: the text is built only when printed
    exit_code: int

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


def _parse_poly(text: str, min_degree: float = 0) -> Polynomial:
    f = Polynomial.from_text(text)
    if f.degree > _MAX_DEGREE:
        raise UsageError(f"polynomial degree {f.degree} exceeds the supported cap {_MAX_DEGREE}")
    if f.degree < min_degree:
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
        value = _fraction_from_text(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed number for {what}: {text!r}") from None
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"magnitude of {what} exceeds the double-precision range: {text!r}") from None


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"malformed integer for {what}: {text!r}") from None


def _need_args(args: list[str], count: int, usage: str = "") -> None:
    """Refuse a wrong argument count.  An empty usage text stands for the
    command's help syntax, which `run` fills in."""
    if len(args) != count:
        raise UsageError(usage and f"usage: {usage}")


def _verdict(title: str, v):
    """Payload and text of a constructibility verdict headed by `title`,
    which is formatted with the payload's fields."""
    word = {True: "yes", False: "no", None: "unknown"}[v.constructible]
    payload = {"constructible": v.constructible, "constructible_text": word, "reason": v.reason, **v.details}
    return payload, lambda: f"{title.format_map(payload)}: {word}\n  {v.reason}"


# -- subcommand handlers ------------------------------------------------------------


def _one_poly(args, min_degree: int) -> Polynomial:
    _need_args(args, 1)
    return _parse_poly(args[0], min_degree)


def _cmd_disc(args, opts):
    from . import disc
    f = _one_poly(args, 2)
    d_res = disc.discriminant_resultant(f)
    d_han = disc.discriminant_hankel(f)
    payload = {
        "polynomial": f.to_text(),
        "discriminant_resultant": str(d_res),
        "discriminant_hankel": str(d_han),
        "agree": d_res == d_han,
        "zero": d_res == 0,
    }
    return payload, lambda: (
        f"discriminant of {f}\n"
        f"  resultant route: {payload['discriminant_resultant']}\n"
        f"  power-sum route: {payload['discriminant_hankel']}\n"
        f"  agreement: {'yes' if payload['agree'] else 'NO'}"
    )


def _cmd_repeated(args, opts):
    from . import disc
    f = _one_poly(args, 1)
    result = disc.has_repeated_roots(f)
    payload = {"polynomial": f.to_text(), "has_repeated_roots": result}
    return payload, lambda: f"{f}: {'has a repeated root' if result else 'all roots are simple'}"


def _cmd_solve(args, opts):
    from . import roots
    f = _one_poly(args, 2)
    if f.degree not in (2, 3):
        raise ValueError(f"solve supports degree 2 or 3, got degree {f.degree}")
    if f.degree == 2:
        zs = list(roots.solve_quadratic(f))
        rs, bound = [abs(f(z)) for z in zs], 1e-10 * (1.0 + f.norm_1())
    else:
        out = roots.solve_cubic_cardano(f)
        zs, rs, bound = list(out.roots), list(out.residuals), out.tolerance
    tol = opts.get("tol", bound)
    payload = {
        "polynomial": f.to_text(),
        "roots": [[_fnum(z.real), _fnum(z.imag)] for z in zs],
        "residuals": [_fnum(r) for r in rs],
        "tolerance": _fnum(tol),
        "within_tolerance": all(r < tol for r in rs),
    }
    return payload, lambda: "\n".join(
        [f"roots of {f}", *(f"  {_fmt_complex(z)}   (residual {_fmt(r)})" for z, r in zip(zs, rs))]
    )


def _cmd_depress(args, opts):
    from . import roots
    f = _one_poly(args, 2)
    dep = roots.depress(f)
    payload = {"polynomial": f.to_text(), "depressed": dep.poly.to_text(), "shift": str(dep.shift)}
    return payload, lambda: f"{f}  ->  {dep.poly}   (x = y - ({payload['shift']}))"


def _cmd_classify_conic(args, opts):
    from . import forms
    _need_args(args, 1)
    a, b, c, d, e, lam = _parse_fraction_list(args[0], 6, "classify-conic")
    kind, sig = forms._classify_conic(a, b, c, d, e, lam)
    payload = {
        "coefficients": [str(v) for v in (a, b, c, d, e, lam)],
        "kind": kind.value,
        "quadratic_inertia": list(sig),
    }
    terms = [(a, "x^2"), (b, "x*y"), (c, "y^2"), (d, "x"), (e, "y")]
    return payload, lambda: f"{_join_terms(_terms(terms))} = {payload['coefficients'][5]}:  {kind.value}"


def _ternary_form(args):
    from . import forms
    _need_args(args, 1)
    a, b, c, dd, ee, ff = _parse_fraction_list(args[0], 6, "quadric")
    return forms.TernaryForm.from_equation_coefficients(a, b, c, dd, ee, ff)


def _cmd_classify_quadric(args, opts):
    from . import forms
    kind, sig = forms._classify_quadric(_ternary_form(args))
    note = forms._degeneracy_note(sig)
    payload = {"inertia": list(sig), "kind": kind.value}
    if note:
        payload["note"] = note
    return payload, lambda: f"inertia {sig}:  {kind.value}" + (f"\n  note: {note}" if note else "")


def _cmd_diagonalize(args, opts):
    from . import forms
    dg = forms.orthogonal_diagonalize(forms.form_to_matrix(_ternary_form(args)))
    substitution, diag_coeffs = tuple(zip(*dg.S)), dg.D  # as forms.diagonal_substitution
    # README's bound 1e-6*(1 + |M|), |M| the spectral norm max |D|; an explicit --tol is absolute
    tol = opts.get("tol", 1e-6 * (1 + max(abs(v) for v in diag_coeffs)))
    payload = {
        "substitution": [[_fnum(v) for v in row] for row in substitution],
        "diagonal_form": [_fnum(v) for v in diag_coeffs],
        "residual": _fnum(dg.residual),
        "within_tolerance": dg.residual < tol,
    }

    def text():
        lines = ["diagonal form coefficients: " + ", ".join(_fmt(v) for v in diag_coeffs)]
        for var, row in zip(("x'", "y'", "z'"), substitution):
            combo = " ".join(
                f"{'+' if v >= 0 else '-'} {_fmt(abs(v))}*{name}"
                for v, name in zip(row, ("x", "y", "z"))
            )
            lines.append(f"  {var} = {combo.lstrip('+ ')}")
        lines.append(f"  reconstruction residual {_fmt(dg.residual)}")
        return "\n".join(lines)

    return payload, text


def _cmd_ngon(args, opts):
    from . import construct
    _need_args(args, 1)
    return _verdict("regular {n}-gon constructible", construct.ngon_constructible(_parse_int(args[0], "n")))


def _cmd_trisect(args, opts):
    from . import construct
    _need_args(args, 1, "trisect <cos3a as p/q>")
    return _verdict("angle with cos(3a) = {cos_3a} trisectable", construct.trisectable(_parse_fraction(args[0])))


def _cmd_double_cube(args, opts):
    from . import construct
    _need_args(args, 0)
    return _verdict("doubling the cube", construct.cube_doubling())


def _cmd_square_circle(args, opts):
    from . import construct
    _need_args(args, 0)
    return _verdict("squaring the circle", construct.circle_squaring())


def _cmd_construct_eval(args, opts):
    from . import construct
    _need_args(args, 1)
    try:
        expr = construct.parse_constructible(args[0])
    except ValueError as exc:
        raise UsageError(f"cannot parse expression: {exc}") from None
    value, bound = construct.eval_constructible(expr)
    payload = {"expression": args[0], "value": _fnum(value), "degree_bound": bound}
    return payload, lambda: f"{args[0]} = {payload['value']!r}   (tower degree bound {bound})"


def _ratfun_args(args, usage: str) -> tuple[Polynomial, Polynomial]:
    """p and q from ``<p> / <q>`` or from one ``<p>/<q>`` argument."""
    if len(args) == 3 and args[1] == "/":
        top, bottom = args[0], args[2]
    elif len(args) == 1 and args[0].count("/") == 1 and "," in args[0]:
        top, bottom = args[0].split("/")
    else:
        raise UsageError(f"usage: {usage}")
    # a zero numerator is answered; a zero denominator gets partial_fractions' refusal
    return _parse_poly(top, -math.inf), _parse_poly(bottom, -math.inf)


def _cmd_integrate(args, opts):
    from . import ratfun
    p, q = _ratfun_args(args, "integrate <p-coeffs> / <q-coeffs>")
    rendered = ratfun.integrate_rational(p, q).render()
    payload = {"numerator": p.to_text(), "denominator": q.to_text(), "antiderivative": rendered}
    return payload, lambda: f"integral of ({p}) / ({q}) dx = {rendered}"


def _cmd_partfrac(args, opts):
    from . import ratfun
    p, q = _ratfun_args(args, "partfrac <p-coeffs> / <q-coeffs>")
    pf = ratfun.partial_fractions(p, q)
    payload = {
        "numerator": p.to_text(),
        "denominator": q.to_text(),
        "polynomial_part": pf.polynomial_part.to_text(),
        "linear_terms": [[str(a), str(r), k] for a, r, k in pf.linear_terms],
        "quadratic_terms": [[str(b), str(c), str(pp), str(qq)] for b, c, pp, qq in pf.quadratic_terms],
    }

    def text():
        pieces = [] if pf.polynomial_part.is_zero else [str(pf.polynomial_part)]
        for (_, root, power), (a, _, _) in zip(pf.linear_terms, payload["linear_terms"]):
            base = "x" if root == 0 else f"({ratfun._fmt_linear(root)})"
            pieces.append(f"({a})/{base}" + (f"^{power}" if power > 1 else ""))
        for b, c, pp, qq in pf.quadratic_terms:
            pieces.append(f"({Polynomial([c, b])})/({Polynomial([qq, pp, 1])})")
        return f"({p}) / ({q}) = " + (" + ".join(pieces) or "0")

    return payload, text


def _cmd_ellipse(args, opts):
    from . import ratfun
    if len(args) != 3 or args[0] not in ("area", "perimeter"):
        raise UsageError()
    mode = args[0]
    a = _parse_float(args[1], "a")
    b = _parse_float(args[2], "b")
    value = (ratfun.ellipse_area if mode == "area" else ratfun.ellipse_perimeter)(a, b)
    payload = {"mode": mode, "a": a, "b": b, "value": _fnum(value)}
    return payload, lambda: f"ellipse {mode} (a={_fmt(a)}, b={_fmt(b)}): {_fmt(value)}"


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
        "kind": kind,
        "a": a,
        "b": b,
        "t": t,
        "x": _fnum(x),
        "y": _fnum(y),
        "residual": _fnum(residual),
        "within_tolerance": residual < tol,
    }
    return payload, lambda: f"{kind}(t={_fmt(t)}) = ({_fmt(x)}, {_fmt(y)})   residual {_fmt(residual)}"


# Each subcommand once: its handler, its help syntax and its help text.  The
# syntax's first word is the subcommand's name, and the syntax is also its
# usage-error text unless the handler names its own.
_COMMANDS = {
    syntax.split()[0]: (handler, syntax, text)
    for handler, syntax, text in [
        (_cmd_disc, "disc <coeffs>", "discriminant, both routes (coeffs ascending: a0,a1,...)"),
        (_cmd_repeated, "repeated <coeffs>", "repeated-root test"),
        (_cmd_solve, "solve <coeffs>", "roots of a degree-2/3 polynomial with residuals"),
        (_cmd_depress, "depress <coeffs>", "remove the second-highest term"),
        (_cmd_classify_conic, "classify-conic a,b,c,d,e,lambda", "kind of ax^2+bxy+cy^2+dx+ey = lambda"),
        (_cmd_classify_quadric, "classify-quadric a,b,c,d,e,f", "kind of ax^2+by^2+cz^2+dxy+exz+fyz = h"),
        (_cmd_diagonalize, "diagonalize a,b,c,d,e,f", "orthogonal substitution and diagonal form"),
        (_cmd_ngon, "ngon <n>", "regular n-gon constructibility"),
        (_cmd_trisect, "trisect <p/q>", "trisectability of an angle with cos(3a) = p/q"),
        (_cmd_double_cube, "double-cube", "the classical cube-doubling verdict"),
        (_cmd_square_circle, "square-circle", "the classical circle-squaring verdict"),
        (_cmd_construct_eval, 'construct-eval "<expr>"', "evaluate a +,-,*,/,sqrt expression with degree bound"),
        (_cmd_integrate, "integrate <p> / <q>", "antiderivative of a rational function"),
        (_cmd_partfrac, "partfrac <p> / <q>", "partial-fraction decomposition"),
        (_cmd_ellipse, "ellipse area|perimeter <a> <b>", "ellipse area / perimeter"),
        (_cmd_param, "param <kind> <a> <b> <t>", "rational parametrization point of a conic"),
    ]
}

_USAGE = "usage: klasika [--json] [--tol X] <command> ...\n\ncommands:\n" + "".join(
    f"  {syntax:<35}{text}\n" for _, syntax, text in _COMMANDS.values()
)


def run(argv: list[str]) -> CommandResult:
    """Execute one command line; never raises.  The human text is built only
    when argv does not contain --json; under --json it is None."""
    wants_json = "--json" in argv
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
                return CommandResult("ok", {"command": "help", "usage": _USAGE}, None if wants_json else _USAGE, 0)
            elif arg != "--json":
                positional.append(arg)
            i += 1
        if not positional:
            raise UsageError("no command given\n" + _USAGE)
        command, rest = positional[0], positional[1:]
        if command not in _COMMANDS:
            raise UsageError(f"unknown command {command!r}")
        handler, syntax, _ = _COMMANDS[command]
        try:
            payload, text = handler(rest, opts)
        except UsageError as exc:
            raise UsageError(str(exc) or f"usage: {syntax}") from None
        return CommandResult("ok", {"command": command, **payload}, None if wants_json else text(), 0)
    except UsageError as exc:
        error, kind, code = str(exc), "usage", 2
    except (ValueError, ArithmeticError) as exc:
        error, kind, code = str(exc), "domain", 1
    except RecursionError:
        error, kind, code = "input too deeply nested", "domain", 1
    except Exception as exc:  # pragma: no cover - fuzz safety net
        error, kind, code = f"internal error: {exc}", "internal", 1
    human = error if kind == "internal" else f"error: {error}"
    return CommandResult("error", {"error": error, "kind": kind}, None if wants_json else human, code)


def main(argv: list[str] | None = None) -> int:
    result = run(list(sys.argv[1:]) if argv is None else list(argv))
    print(result.to_json() if result.human_text is None else result.human_text)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
