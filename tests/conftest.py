"""Shared test helpers.

The polynomial helpers here are deliberately independent of the package
under test: `convolve`/`expand_roots` multiply plain coefficient lists so
they can serve as oracles for the library's own arithmetic.
"""

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


@pytest.fixture
def rng():
    return random.Random(20260809)
