"""Every demo script, and the README's quick start, runs against the library
in `src/`."""

import ast
import os
import pathlib
import subprocess
import sys
from enum import Enum

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs():
    """Each expression line of the README's Python block gives what its
    comment says: the comment starts with the value's repr (an enum member's str)."""
    readme = (ROOT / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    namespace, claims = {}, {}
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            claims[lines[stmt.lineno - 1].split("#", 1)[1].strip()] = value
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    roots = claims.pop("cube roots of 1")
    assert len(set(roots)) == 3 and all(abs(r**3 - 1) < 1e-12 for r in roots)
    assert sorted(claims) == [
        "'ln|x| + 1/2*ln(x^2+4) - 1/2*arctan(x/2) + K'",
        "(2, 0, 0): positive definite",
        "ConicKind.ELLIPSE",
        "Fraction(1, 1)",
        "Fraction(1, 1), independent route",
        "True (heptadecagon)",
    ]
    for comment, value in claims.items():
        assert comment.startswith(str(value) if isinstance(value, Enum) else repr(value)), comment
