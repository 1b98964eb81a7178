"""klasika: exact-arithmetic classical algebra.

Discriminants by resultant and by Newton power sums, closed-form quadratic
and cubic solution, quadratic-form classification of conics and quadric
surfaces, compass-and-straightedge constructibility verdicts, and symbolic
integration of rational functions.  All symbolic work runs over exact
rationals; floating point appears only where roots or eigenvectors are
genuinely irrational.

Importing the package loads no layer.  Each public name, and each layer
module by name (``klasika.forms``), is imported on first access (PEP 562),
so ``from klasika import solve_cubic_cardano`` loads ``klasika.roots`` and
the layers it imports, and no other.
"""

import importlib

__version__ = "0.1.0"

# The one list of public names: each layer module and the names it defines.
# A layer's `__all__` is its row here, read when the layer is imported (the
# package is initialised by then), so a name is declared public only here.
_EXPORTS = {
    "exact": ("Polynomial", "Rational", "poly_gcd", "rational_roots"),
    "disc": (
        "SquareMatrix", "determinant", "solve_linear_system", "sylvester_matrix", "resultant",
        "power_sums", "discriminant_resultant", "discriminant_hankel", "has_repeated_roots",
    ),
    "roots": (
        "DepressedPolynomial", "CubicRoots", "depress", "solve_quadratic",
        "solve_cubic_cardano", "roots_of_unity", "residual_tolerance",
    ),
    "forms": (
        "BinaryForm", "TernaryForm", "SymMatrix", "ConicKind", "QuadricKind",
        "Diagonalization", "form_to_matrix", "matrix_to_form", "form_discriminant",
        "char_poly", "inertia", "classify_conic", "classify_quadric", "orthogonal_diagonalize",
        "diagonal_substitution", "rational_nullspace",
    ),
    "construct": (
        "Num", "Add", "Sub", "Mul", "Div", "Sqrt", "ConstructibleExpr", "ConstructibilityVerdict",
        "parse_constructible", "eval_constructible", "is_fermat_prime", "ngon_constructible",
        "trisectable", "cube_scaling", "cube_doubling", "circle_squaring",
    ),
    "ratfun": (
        "UnsupportedFactorizationError", "RealFactorization", "PartialFractions", "PolyTerm",
        "LogAbs", "PowerTerm", "LogQuadratic", "ArctanTerm", "SymbolicAntiderivative",
        "ConicParam", "factor_real", "partial_fractions", "integrate_rational", "ellipse_area",
        "ellipse_perimeter", "adaptive_simpson",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


_setattr = object.__setattr__


class _Record:
    """Base of the frozen result records.  A subclass's annotations, in order,
    are its fields, given positionally or by keyword.  Equality needs the same
    type and equal fields, the hash is that of the field tuple, the repr is
    ``Name(field=value, ...)``, and setting or deleting an attribute raises
    AttributeError.  A ``__post_init__`` runs after the fields are set; it
    normalises them with ``object.__setattr__``.

    That is what ``@dataclass(frozen=True)`` gave these classes, but not at
    its cost on a cold start.  ``import dataclasses`` loads ``inspect``,
    ``ast``, ``dis`` and ``tokenize``: 9.6 ms, the median of 15 fresh
    interpreters (Python 3.11.7, 2-vCPU x86_64).  Each frozen dataclass then
    execs its generated methods: 1.1 ms for three fields, against 0.03 ms for
    a subclass here.  The price is one shared ``__init__`` instead of a
    generated one: 0.2-0.3 us more per record built.  Generating only
    ``__init__`` would cost 0.2-1.2 ms more per layer imported, and a cold
    command builds only a few records.
    """

    _fields = ()
    _post_init = False

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)
        cls._post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        i = 0  # an index is cheaper here than zip or enumerate
        for field in fields:
            _setattr(self, field, args[i])
            i += 1
        if self._post_init:
            self.__post_init__()

    def _bind(self, args, kwargs):
        """The field values in order, from positional and keyword arguments."""
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        given = len(args) + len(kwargs)  # more than len(values) if a field is given twice
        if len(args) > len(fields) or len(values) != given or values.keys() != set(fields):
            raise TypeError(f"{type(self).__qualname__}() takes {', '.join(fields)}, each once")
        return [values[f] for f in fields]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here as well
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
