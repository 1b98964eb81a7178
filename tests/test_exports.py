"""The package's export table: names, objects, and which layers load when."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import klasika

SRC = str(Path(__file__).resolve().parent.parent / "src")

PUBLIC_NAMES = [
    "Polynomial", "Rational", "poly_gcd", "rational_roots",
    "SquareMatrix", "determinant", "solve_linear_system", "sylvester_matrix", "resultant",
    "power_sums", "discriminant_resultant", "discriminant_hankel", "has_repeated_roots",
    "DepressedPolynomial", "CubicRoots", "depress", "solve_quadratic", "solve_cubic_cardano",
    "roots_of_unity", "residual_tolerance",
    "BinaryForm", "TernaryForm", "SymMatrix", "ConicKind", "QuadricKind",
    "Diagonalization", "form_to_matrix", "matrix_to_form", "form_discriminant",
    "char_poly", "inertia", "classify_conic", "classify_quadric", "orthogonal_diagonalize",
    "diagonal_substitution", "rational_nullspace",
    "Num", "Add", "Sub", "Mul", "Div", "Sqrt", "ConstructibleExpr", "ConstructibilityVerdict",
    "parse_constructible", "eval_constructible", "is_fermat_prime", "ngon_constructible",
    "trisectable", "cube_scaling", "cube_doubling", "circle_squaring",
    "UnsupportedFactorizationError", "RealFactorization", "PartialFractions", "PolyTerm",
    "LogAbs", "PowerTerm", "LogQuadratic", "ArctanTerm", "SymbolicAntiderivative",
    "ConicParam", "factor_real", "partial_fractions", "integrate_rational", "ellipse_area",
    "ellipse_perimeter", "adaptive_simpson",
]

# Names whose objects report another module: Rational is Fraction, and
# ConstructibleExpr is a PEP 604 union (types.UnionType).
_HOMES = {"Rational": "klasika.exact", "ConstructibleExpr": "klasika.construct"}


def test_all_is_the_public_name_list_in_order():
    assert klasika.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 68


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_defining_module_attribute(name):
    obj = getattr(klasika, name)
    home = _HOMES.get(name, obj.__module__)
    assert getattr(sys.modules[home], name) is obj


@pytest.mark.parametrize("layer", klasika._EXPORTS)
def test_each_layer_all_is_its_export_row(layer):
    assert getattr(klasika, layer).__all__ == list(klasika._EXPORTS[layer])


def test_star_import_binds_every_name():
    namespace = {}
    exec("from klasika import *", namespace)
    assert {name: namespace[name] for name in PUBLIC_NAMES} == {
        name: getattr(klasika, name) for name in PUBLIC_NAMES
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        klasika.no_such_name
    with pytest.raises(ImportError):
        exec("from klasika import no_such_name", {})


@pytest.mark.parametrize("layer, name", [
    ("forms", "is_positive_definite"),  # inertia(form_to_matrix(f)) == (2, 0, 0)
    ("forms", "transform_form"),  # matrix_to_form of C^t M C
    ("forms", "Inertia"),  # inertia returns the plain tuple (n_plus, n_minus, n_zero)
    ("construct", "degree_power_of_two_check"),
])
def test_deleted_names_are_gone(layer, name):
    with pytest.raises(AttributeError, match=name):
        getattr(klasika, name)
    assert not hasattr(getattr(klasika, layer), name)


def _fresh(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports klasika from src/."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


_LOADED = "import json, sys; print(json.dumps(sorted(m[8:] for m in sys.modules if m.startswith('klasika.'))))"

# The records derive from `klasika._Record`, so nothing loads `dataclasses` or
# the `inspect` it imports; a cold start would pay about 10 ms for them.
_HEAVY = "import sys; print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"


def test_layer_names_resolve_in_a_fresh_interpreter():
    out = _fresh("import klasika, types; m = getattr(klasika, 'forms'); "
                 "print(isinstance(m, types.ModuleType) and m.__name__)")
    assert out.strip() == "klasika.forms"


def test_importing_the_cli_loads_only_exact():
    loaded, heavy = _fresh(f"import klasika.cli; {_LOADED}; {_HEAVY}").splitlines()
    assert json.loads(loaded) == ["cli", "exact"]
    assert heavy == "[]"


def test_star_import_loads_neither_dataclasses_nor_inspect():
    assert _fresh(f"from klasika import *; {_HEAVY}").strip() == "[]"


# Which layers each subcommand loads.  `roots` and `ratfun` each bind a
# `disc` function that they do not call, for the benchmark's tracer.
_CONSTRUCT = {"exact", "construct"}
_DISC = {"exact", "disc"}
_ROOTS = _DISC | {"roots"}
_FORMS = _ROOTS | {"forms"}
_RATFUN = _DISC | {"ratfun"}

SUBCOMMAND_LAYERS = [
    (["disc", "2,-3,1"], _DISC),
    (["repeated", "4,0,-4,0,1"], _DISC),
    (["solve", "-6,11,-6,1"], _ROOTS),
    (["depress", "-6,11,-6,1"], _ROOTS),
    (["classify-conic", "1,0,1,0,0,1"], _FORMS),
    (["classify-quadric", "1,1,-1,3,-5,4"], _FORMS),
    (["diagonalize", "1,1,1,0,0,0"], _FORMS),
    (["ngon", "17"], _CONSTRUCT),
    (["trisect", "1/2"], _CONSTRUCT),
    (["double-cube"], _CONSTRUCT),
    (["square-circle"], _CONSTRUCT),
    (["construct-eval", "sqrt(2)"], _CONSTRUCT),
    (["integrate", "1", "/", "-1,0,1"], _RATFUN),
    (["partfrac", "1", "/", "-1,0,1"], _RATFUN),
    (["ellipse", "area", "2", "1"], _RATFUN),
    (["param", "circle", "1", "1", "1/2"], _RATFUN),
]


# Run under -I -S, as on a clean install: no site hook preloads a module, so
# `typing` (about 4 ms there) is loaded only if klasika imports it.
@pytest.mark.parametrize("argv, layers", SUBCOMMAND_LAYERS, ids=[argv[0] for argv, _ in SUBCOMMAND_LAYERS])
def test_each_subcommand_loads_exactly_its_layers(argv, layers):
    code = (f"import sys; sys.path.insert(0, {SRC!r}); from klasika.cli import run; "
            f"print(run({argv!r}).status); {_LOADED}; "
            "print([m for m in ('typing', 'dataclasses', 'inspect') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    status, loaded, heavy = done.stdout.splitlines()
    assert status == "ok"
    assert set(json.loads(loaded)) == layers | {"cli"}
    assert heavy == "[]"

