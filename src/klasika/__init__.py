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
        "SquareMatrix", "determinant", "sylvester_matrix", "resultant", "power_sums",
        "discriminant_resultant", "discriminant_hankel", "has_repeated_roots",
    ),
    "roots": (
        "DepressedPolynomial", "CubicRoots", "depress", "solve_quadratic",
        "solve_cubic_cardano", "roots_of_unity", "residual_tolerance",
    ),
    "forms": (
        "BinaryForm", "TernaryForm", "SymMatrix", "Inertia", "ConicKind", "QuadricKind",
        "Diagonalization", "form_to_matrix", "matrix_to_form", "form_discriminant",
        "is_positive_definite", "transform_form", "char_poly", "inertia", "classify_conic",
        "classify_quadric", "quadric_degeneracy_note", "orthogonal_diagonalize",
        "diagonal_substitution", "solve_linear_system", "rational_nullspace",
    ),
    "construct": (
        "Num", "Add", "Sub", "Mul", "Div", "Sqrt", "ConstructibleExpr", "ConstructibilityVerdict",
        "parse_constructible", "eval_constructible", "is_fermat_prime", "ngon_constructible",
        "trisectable", "cube_scaling", "cube_doubling", "circle_squaring",
        "degree_power_of_two_check",
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
