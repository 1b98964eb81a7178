"""Binary and ternary quadratic forms and their symmetric-matrix side.

Conventions worth pinning down once:

* A binary form a*x^2 + b*x*y + c*y^2 corresponds to the symmetric matrix
  [[a, b/2], [b/2, c]]; its discriminant b^2 - 4ac equals -4 times that
  matrix's determinant, exactly.
* A ternary form is stored with HALVED cross coefficients: the fields
  (a, b, c, d, e, f) mean a*x^2 + b*y^2 + c*z^2 + 2d*xy + 2e*xz + 2f*yz,
  matching the matrix [[a, d, e], [d, b, f], [e, f, c]].  Parsers that accept
  the cross coefficients as written in an equation must divide them by 2.
* A linear change of variables x -> C x acts on the matrix by congruence
  M -> C^t M C.  (Congruence, not similarity: the two coincide only for
  orthogonal C, even though older texts blur the names.)
* Inertia (counts of positive/negative/zero eigenvalues) is computed EXACTLY
  from the pivot signs of the Hankel discriminant route's symmetric
  elimination by congruences (Sylvester's law of inertia).  `_inertia`, on
  integer rows, is the one signature routine; `inertia` clears a matrix's
  denominators into it, and both classifiers feed it their coefficients
  cleared over Z: a quadric's kind is read from the inertia of its matrix, a
  conic's from the inertias of its quadratic part Q and its bordered 3x3
  matrix B, so no classification ever hinges on a floating-point sign.
* `orthogonal_diagonalize` returns eigenvector COLUMNS in S with
  A = S diag(D) S^t; texts that write A = S^t D S are using the transposed
  convention, which for orthogonal S is the same factorization read backwards.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction

from . import _EXPORTS, _Record
from .disc import SquareMatrix, _eliminate, _null_vector, _symmetric_pivots
from .exact import Polynomial, RationalLike, _as_fraction, _clear_denominators, _coeff_float
from .exact import _rational_split
from .roots import _newton, solve_cubic_cardano, solve_quadratic
# Not called here.  perfbench's layer tracer wraps these bindings by name, and
# tests/test_acceptance.py imports determinant from this module.
from .disc import determinant, solve_linear_system  # noqa: F401

__all__ = list(_EXPORTS["forms"])


class _Form(_Record):
    """Base of the two form records: fields are coefficients over Q."""

    def __post_init__(self):
        for name in self._fields:
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))


class BinaryForm(_Form):
    """a*x^2 + b*x*y + c*y^2 over Q."""

    a: Fraction
    b: Fraction
    c: Fraction


class TernaryForm(_Form):
    """a*x^2 + b*y^2 + c*z^2 + 2d*xy + 2e*xz + 2f*yz over Q.

    Note the stored cross coefficients are the halved ones (the matrix
    entries), not the full coefficients written in front of xy, xz, yz.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction

    @classmethod
    def from_equation_coefficients(cls, a, b, c, dd, ee, ff) -> "TernaryForm":
        """Build from coefficients as written in an equation (full cross terms)."""
        return cls(a, b, c, _as_fraction(dd) / 2, _as_fraction(ee) / 2, _as_fraction(ff) / 2)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in (self.a, self.b, self.c, self.d, self.e, self.f))


class SymMatrix(SquareMatrix):
    """SquareMatrix that insists on exact symmetry."""

    def __init__(self, rows):
        super().__init__(rows)
        if not self.is_symmetric():
            raise ValueError("matrix is not symmetric")


class ConicKind(str, Enum):
    ELLIPSE = "Ellipse"
    HYPERBOLA = "Hyperbola"
    PARABOLA = "Parabola"
    CIRCLE = "Circle"
    DEGENERATE = "Degenerate"
    EMPTY = "Empty"


class QuadricKind(str, Enum):
    ELLIPSOID = "Ellipsoid"
    ELLIPTIC_PARABOLOID = "EllipticParaboloid"
    HYPERBOLOID_ONE_SHEET = "HyperboloidOneSheet"
    HYPERBOLOID_TWO_SHEETS = "HyperboloidTwoSheets"
    HYPERBOLIC_PARABOLOID = "HyperbolicParaboloid"
    PARABOLIC_CYLINDER = "ParabolicCylinder"
    OTHER = "Other"


class Diagonalization(_Record):
    """S has orthonormal eigenvector columns, D the matching eigenvalues.

    residual is the max-norm of S diag(D) S^t minus the input.
    """

    S: tuple[tuple[float, ...], ...]
    D: tuple[float, ...]
    residual: float


# -- form <-> matrix -----------------------------------------------------------


def form_to_matrix(form: BinaryForm | TernaryForm) -> SymMatrix:
    if isinstance(form, BinaryForm):
        half = form.b / 2
        return SymMatrix([[form.a, half], [half, form.c]])
    if isinstance(form, TernaryForm):
        return SymMatrix(
            [
                [form.a, form.d, form.e],
                [form.d, form.b, form.f],
                [form.e, form.f, form.c],
            ]
        )
    raise TypeError(f"not a quadratic form: {form!r}")


def form_discriminant(form: BinaryForm) -> Fraction:
    return form.b * form.b - 4 * form.a * form.c


# -- characteristic polynomial and exact inertia --------------------------------


def char_poly(m: SquareMatrix) -> Polynomial:
    """det(lambda*I - M), exactly, by the Faddeev-LeVerrier trace recursion.

    The recursion runs over Z on A = d*M, d the least common denominator of
    M's entries: each c_k = -tr(A*M_k)/k is an exact integer quotient, and
    the coefficient of lambda^(n-k) in M's polynomial is c_k / d^k.
    """
    n = m.n
    d, flat = _clear_denominators(v for row in m.rows for v in row)
    a = [flat[i * n : (i + 1) * n] for i in range(n)]
    coeffs_desc = [Fraction(1)]
    ak = a  # A*M_k, with M_1 = I
    for k in range(1, n + 1):
        ck = -sum(ak[i][i] for i in range(n)) // k
        coeffs_desc.append(Fraction(ck, d**k))
        if k < n:
            shifted = [[v + ck * (i == j) for j, v in enumerate(row)] for i, row in enumerate(ak)]
            ak = [[sum(x * y for x, y in zip(row, col)) for col in zip(*shifted)] for row in a]
    return Polynomial(list(reversed(coeffs_desc)))


def inertia(m: SquareMatrix) -> tuple[int, int, int]:
    """Exact eigenvalue sign counts as the tuple (n_plus, n_minus, n_zero).

    By Sylvester's law of inertia they are the signs of the pivots of any
    elimination by congruences: D_k / D_(k-1) for the Bareiss pivots, the
    leading minors D_k, and 0 for each row the elimination drops.
    """
    if not m.is_symmetric():
        raise ValueError("inertia requires a symmetric matrix")
    n = m.n
    flat = _clear_denominators(v for row in m.rows for v in row)[1]
    return _inertia([flat[i * n : (i + 1) * n] for i in range(n)])


def _inertia(rows: list[list[int]]) -> tuple[int, int, int]:
    """`inertia` of the symmetric integer matrix with these rows."""
    pivots = _symmetric_pivots(rows, 1)
    n_minus = sum(p * q < 0 for p, q in zip([1, *pivots], pivots))
    return (len(pivots) - n_minus, n_minus, len(rows) - len(pivots))


# -- conic classification --------------------------------------------------------


# (inertia of Q, inertia of B), signs flipped so that Q has n_plus >= n_minus;
# these are the 10 pairs Cauchy interlacing allows for a nonzero 2x2 Q
# bordered into a 3x3 B.
_CONIC_TABLE = {
    ((2, 0, 0), (2, 1, 0)): ConicKind.ELLIPSE,
    ((2, 0, 0), (2, 0, 1)): ConicKind.DEGENERATE,  # a single point
    ((2, 0, 0), (3, 0, 0)): ConicKind.EMPTY,
    ((1, 1, 0), (2, 1, 0)): ConicKind.HYPERBOLA,
    ((1, 1, 0), (1, 2, 0)): ConicKind.HYPERBOLA,
    ((1, 1, 0), (1, 1, 1)): ConicKind.DEGENERATE,  # crossing line pair
    ((1, 0, 1), (2, 1, 0)): ConicKind.PARABOLA,
    ((1, 0, 1), (1, 1, 1)): ConicKind.DEGENERATE,  # parallel line pair
    ((1, 0, 1), (1, 0, 2)): ConicKind.DEGENERATE,  # double line
    ((1, 0, 1), (2, 0, 1)): ConicKind.EMPTY,  # imaginary parallel pair
}


def classify_conic(
    a: RationalLike,
    b: RationalLike,
    c: RationalLike,
    d: RationalLike,
    e: RationalLike,
    lam: RationalLike,
) -> ConicKind:
    """Kind of the plane curve a*x^2 + b*xy + c*y^2 + d*x + e*y = lam.

    Everything is decided exactly over Q.  With Q the matrix of the
    quadratic part and B the bordered 3x3 matrix of a*x^2 + ... + e*y - lam,
    the kind is fixed by the pair of their inertias (Sylvester's law of
    inertia), read from `_CONIC_TABLE`; a circle is an ellipse with a == c
    and b == 0.
    """
    return _classify_conic(a, b, c, d, e, lam)[0]


def _classify_conic(a, b, c, d, e, lam) -> tuple[ConicKind, tuple[int, int, int]]:
    """The conic kind together with the inertia of Q it was read from."""
    a, b, c, d, e, lam = (_as_fraction(v) for v in (a, b, c, d, e, lam))
    if a == 0 and b == 0 and c == 0:
        raise ValueError("not a conic: the quadratic part is zero")
    # 2kQ and 2kB over Z, for k > 0 the least common denominator, have Q's and B's inertias
    ka, kb, kc, kd, ke, kl = _clear_denominators((a, b, c, d, e, lam))[1]
    sig_q = _inertia([[2 * ka, kb], [kb, 2 * kc]])
    sig_b = _inertia([[2 * ka, kb, kd], [kb, 2 * kc, ke], [kd, ke, -2 * kl]])
    key = (sig_q, sig_b)
    if sig_q[0] < sig_q[1]:  # negating the equation swaps both sign counts
        key = tuple((p, m, z) for m, p, z in key)
    kind = _CONIC_TABLE[key]
    if kind is ConicKind.ELLIPSE and a == c and b == 0:
        kind = ConicKind.CIRCLE
    return kind, sig_q


# -- quadric classification -------------------------------------------------------

_QUADRIC_TABLE = {
    (3, 0, 0): QuadricKind.ELLIPSOID,
    (2, 0, 1): QuadricKind.ELLIPTIC_PARABOLOID,
    (2, 1, 0): QuadricKind.HYPERBOLOID_ONE_SHEET,
    (1, 2, 0): QuadricKind.HYPERBOLOID_TWO_SHEETS,
    (1, 1, 1): QuadricKind.HYPERBOLIC_PARABOLOID,
    (1, 0, 2): QuadricKind.PARABOLIC_CYLINDER,
}


def classify_quadric(form: TernaryForm) -> QuadricKind:
    """Surface kind from the exact inertia of the form's matrix."""
    return _classify_quadric(form)[0]


def _classify_quadric(form: TernaryForm) -> tuple[QuadricKind, tuple[int, int, int]]:
    """The surface kind together with the inertia it was read from."""
    if form.is_zero:
        raise ValueError("cannot classify the zero form")
    a, b, c, d, e, f = _clear_denominators(form._values())[1]
    sig = _inertia([[a, d, e], [d, b, f], [e, f, c]])
    return _QUADRIC_TABLE.get(sig, QuadricKind.OTHER), sig


def _degeneracy_note(sig: tuple[int, int, int]) -> str | None:
    """A caveat for rank-deficient forms, where level sets can degenerate.

    The inertia table is applied as stated even when the matrix is singular,
    but e.g. the all-ones form has (x+y+z)^2 = h as its level sets, a pair of
    parallel planes rather than a curved cylinder; the note flags that.
    """
    rank = 3 - sig[2]
    if rank == 3:
        return None
    return (
        f"rank {rank} < 3: the homogeneous classification is by the "
        "inertia table, but level sets of a degenerate form may flatten "
        "(e.g. into parallel planes)"
    )


# -- exact and float null spaces ---------------------------------------------------
# rational_nullspace runs disc's general kernel.  No code here calls it: it is
# the tests' reference for `_eigenbasis`, and it stays in this module because
# perfbench names a span after the defining module and reads forms.rational_nullspace.


def rational_nullspace(rows: Sequence[Sequence[RationalLike]]) -> list[list[Fraction]]:
    """Basis of the exact null space of a (possibly rectangular) matrix, one
    vector per column without a pivot (see `disc._null_vector`)."""
    if not rows:
        return []
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"rows must have equal lengths, not {[len(row) for row in rows]}")
    a, pivots, _ = _eliminate([[_as_fraction(v) for v in row] for row in rows])
    return [_null_vector(a, pivots, free) for free in range(len(a[0])) if free not in pivots]


def _cross_rows(a: list[list]) -> list[list]:
    """For a 2x2 or 3x3 matrix (ints or floats), the candidate null vectors
    of rank n - 1: each row turned by a right angle, or the cross product of
    each pair of rows, in row order."""
    if len(a) == 2:
        return [[-row[1], row[0]] for row in a]
    return [
        [r[1] * s[2] - r[2] * s[1], r[2] * s[0] - r[0] * s[2], r[0] * s[1] - r[1] * s[0]]
        for r, s in ((a[0], a[1]), (a[0], a[2]), (a[1], a[2]))
    ]


def _eigenbasis(a: list[list[int]], mult: int) -> list[list[Fraction]]:
    """The basis `rational_nullspace` gives for the symmetric 2x2 or 3x3
    integer matrix a of rank n - mult (the reduced-echelon one), in closed form.

    Rank n - 1: the first nonzero candidate of `_cross_rows` over its last
    nonzero entry, whose column is the one without a pivot.  Rank 1 (n = 3):
    with r the first nonzero row and p its first nonzero column,
    e_f - (r_f / r_p) e_p for each f != p.  Rank 0: the identity.
    """
    n = len(a)
    if mult == n:
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if mult == 1:
        v = next(c for c in _cross_rows(a) if any(c))
        last = next(x for x in reversed(v) if x)
        return [[Fraction(x, last) for x in v]]
    r = next(row for row in a if any(row))
    p = next(j for j, x in enumerate(r) if x)
    return [[Fraction(-r[f], r[p]) if j == p else Fraction(int(j == f)) for j in range(n)] for f in range(n) if f != p]


def _norm(v: Sequence[float]) -> float:
    return math.sqrt(sum(x * x for x in v))


def _orthonormalize(vectors: list[list[float]]) -> list[list[float]]:
    """Modified Gram-Schmidt; assumes the input is linearly independent."""
    out: list[list[float]] = []
    for vec in vectors:
        w = list(vec)
        for u in out:
            proj = sum(a * b for a, b in zip(w, u))
            w = [a - proj * b for a, b in zip(w, u)]
        nrm = _norm(w)
        if nrm == 0.0:
            raise ArithmeticError("Gram-Schmidt hit a dependent vector")
        out.append([x / nrm for x in w])
    return out


def _canonical_sign(v: list[float]) -> list[float]:
    idx = max(range(len(v)), key=lambda i: abs(v[i]))
    return [-x for x in v] if v[idx] < 0 else v


def _float_null_vector(a: list[list[float]]) -> list[float]:
    """Unit null vector of a numerically rank-deficient 2x2 or 3x3 matrix."""
    best = max(_cross_rows(a), key=_norm)
    nrm = _norm(best)
    if nrm == 0.0:
        raise ArithmeticError("could not isolate a one-dimensional null space")
    return [x / nrm for x in best]


def orthogonal_diagonalize(m: SquareMatrix) -> Diagonalization:
    """Eigenvalues from the exact characteristic polynomial, eigenvectors
    from null spaces of M - lambda*I, orthonormalized per eigenspace.

    Rational eigenvalues (these include every repeated eigenvalue of a
    rational symmetric matrix) get exact null-space bases in closed form
    (`_eigenbasis`, on the integer rows of M - lambda*I scaled over Z; the
    eigenvalue's multiplicity is its eigenspace's dimension); irrational ones
    are necessarily simple, are polished by Newton on the characteristic
    polynomial, and take the largest cross product of two rows of
    M - lambda*I as eigenvector (`_float_null_vector`).  Both read their
    candidates from `_cross_rows`.
    Columns are ordered by ascending eigenvalue.  Some eigenvalue has
    |lambda| >= max |m_ij|, so an entry beyond the double range is refused
    before any exact work: no float answer could hold that eigenvalue.
    A matrix that is not symmetric is refused first; a SymMatrix already is.
    """
    if m.n not in (2, 3):
        raise ValueError("orthogonal diagonalization supports 2x2 and 3x3 only")
    if not isinstance(m, SymMatrix) and not m.is_symmetric():
        raise ValueError("orthogonal diagonalization requires a symmetric matrix")
    n = m.n
    mf = [[_coeff_float(v) for v in row] for row in m.rows]
    p = char_poly(m)
    split = _rational_split(p)
    pairs: list[tuple[float, list[float]]] = []  # (eigenvalue, unit eigenvector)

    d, flat = _clear_denominators(v for row in m.rows for v in row)
    rational = sorted((lam, mult) for mult, (rats, _) in enumerate(split, 1) for lam in rats)
    for lam, mult in rational:
        u, s = lam.numerator * d, lam.denominator  # s * d * (M - lam*I) has the same null space
        shifted = [[s * flat[i * n + j] - (u if i == j else 0) for j in range(n)] for i in range(n)]
        floats = _orthonormalize([[_coeff_float(x) for x in vec] for vec in _eigenbasis(shifted, mult)])
        pairs.extend((_coeff_float(lam), vec) for vec in floats)

    # The irrational eigenvalues are simple, and a rational linear factor's
    # root was split off above, so what remains has degree 0, 2 or 3.
    remaining = Polynomial(split[0][1]).monic()
    if remaining.degree >= 2:
        if remaining.degree == 2:
            irr = [z.real for z in solve_quadratic(remaining)]
        else:
            irr = [z.real for z in solve_cubic_cardano(remaining).roots]
        for lam_f in _newton(remaining, irr, 3)[0]:
            shifted = [
                [mf[i][j] - (lam_f if i == j else 0.0) for j in range(n)]
                for i in range(n)
            ]
            pairs.append((lam_f, _float_null_vector(shifted)))

    pairs.sort(key=lambda t: t[0])
    columns = _orthonormalize([vec for _, vec in pairs])  # scrub residual cross-eigenspace skew
    columns = [_canonical_sign(v) for v in columns]
    eigenvalues = tuple(lam for lam, _ in pairs)

    s_rows = tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))
    recon_residual = _reconstruction_residual(mf, s_rows, eigenvalues)
    return Diagonalization(s_rows, eigenvalues, recon_residual)


def _reconstruction_residual(
    mf: list[list[float]], s_rows: tuple[tuple[float, ...], ...], d: tuple[float, ...]
) -> float:
    n = len(mf)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                acc += s_rows[i][k] * d[k] * s_rows[j][k]
            worst = max(worst, abs(acc - mf[i][j]))
    return worst


def diagonal_substitution(
    form: TernaryForm,
) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
    """Orthogonal substitution rows (x', y', z' as combinations of x, y, z)
    under which the form becomes lam1*x'^2 + lam2*y'^2 + lam3*z'^2.

    The substitution rows are the rows of S^t, i.e. the eigenvector columns
    of the form's matrix read as linear functionals.
    """
    diag = orthogonal_diagonalize(form_to_matrix(form))
    return tuple(zip(*diag.S)), diag.D
