import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from klasika.disc import SquareMatrix, determinant, solve_linear_system
from klasika.exact import Polynomial
from klasika import forms
from klasika.forms import (
    BinaryForm,
    ConicKind,
    QuadricKind,
    SymMatrix,
    TernaryForm,
    char_poly,
    classify_conic,
    classify_quadric,
    diagonal_substitution,
    form_discriminant,
    form_to_matrix,
    inertia,
    orthogonal_diagonalize,
    rational_nullspace,
)

from conftest import form_value, identity, matmul, rand_fraction, transpose


def rand_binary_form(rng):
    return BinaryForm(rand_fraction(rng), rand_fraction(rng), rand_fraction(rng))


def rand_sym_matrix(rng, n, lo=-9, hi=9, max_den=4):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rand_fraction(rng, lo, hi, max_den)
            rows[i][j] = v
            rows[j][i] = v
    return SymMatrix(rows)


def rand_invertible(rng, n):
    while True:
        rows = [[rand_fraction(rng, -4, 4, 2) for _ in range(n)] for _ in range(n)]
        if determinant(rows) != 0:
            return rows


def congruent(m, c):
    return SymMatrix(matmul(matmul(transpose(c), m.rows), c))


def numpy_inertia(m, tol=1e-9):
    eigs = np.linalg.eigvalsh(np.array([[float(v) for v in row] for row in m.rows]))
    scale = 1.0 + max(abs(e) for e in eigs)
    return (
        int(sum(e > tol * scale for e in eigs)),
        int(sum(e < -tol * scale for e in eigs)),
        int(sum(abs(e) <= tol * scale for e in eigs)),
    )


# -- form <-> matrix ---------------------------------------------------------------


def test_form_to_matrix_examples():
    assert form_to_matrix(BinaryForm(1, 0, 1)) == SquareMatrix(identity(2))
    m = form_to_matrix(BinaryForm(3, 5, 7))
    assert m.rows == ((Fraction(3), Fraction(5, 2)), (Fraction(5, 2), Fraction(7)))
    ones = form_to_matrix(TernaryForm.from_equation_coefficients(1, 1, 1, 2, 2, 2))
    assert ones.rows == tuple(tuple(Fraction(1) for _ in range(3)) for _ in range(3))


def test_form_discriminant_examples():
    assert form_discriminant(BinaryForm(1, 0, 1)) == -4
    assert form_discriminant(BinaryForm(1, 0, -1)) == 4
    assert form_discriminant(BinaryForm(2, 2, 3)) == -20


def test_discriminant_is_minus_4_det(rng):
    for _ in range(300):
        f = rand_binary_form(rng)
        assert form_discriminant(f) == -4 * determinant(form_to_matrix(f))


def positive_definite(f):
    return inertia(form_to_matrix(f)) == (2, 0, 0)


def test_positive_definite():
    assert positive_definite(BinaryForm(1, 0, 1)) is True
    assert positive_definite(BinaryForm(1, 0, -1)) is False
    f = BinaryForm(2, 2, 3)
    assert positive_definite(f) is True
    # sampling oracle: f(x, 1) > 0 on a grid
    assert all(form_value(f, Fraction(k, 10), 1) > 0 for k in range(-500, 501))


def test_positive_definite_implies_grid_positive(rng):
    for _ in range(40):
        f = rand_binary_form(rng)
        if positive_definite(f):
            assert all(form_value(f, Fraction(k, 7), 1) > 0 for k in range(-140, 141))


def test_transform_scales_discriminant_by_det_squared(rng):
    for _ in range(60):
        f = rand_binary_form(rng)
        c = [[rand_fraction(rng, -4, 4, 2) for _ in range(2)] for _ in range(2)]
        det_c = determinant(c)
        # the form of C^t M C has discriminant -4 * det(C^t M C)
        assert -4 * determinant(congruent(form_to_matrix(f), c)) == det_c**2 * form_discriminant(f)


# -- char poly and inertia ------------------------------------------------------------


def test_char_poly_examples():
    assert char_poly(SquareMatrix(identity(2))) == Polynomial([1, -2, 1])
    ones = SymMatrix([[1, 1, 1]] * 3)
    assert char_poly(ones) == Polynomial([0, 0, -3, 1])
    assert char_poly(SymMatrix([[0, Fraction(1, 2)], [Fraction(1, 2), 0]])) == Polynomial(
        [Fraction(-1, 4), 0, 1]
    )


def test_char_poly_evaluates_to_char_det(rng):
    for _ in range(30):
        m = rand_sym_matrix(rng, 3)
        p = char_poly(m)
        lam = rand_fraction(rng)
        shifted = [
            [(lam if i == j else 0) - m.rows[i][j] for j in range(3)] for i in range(3)
        ]
        assert p(lam) == determinant(shifted)


def rand_rational_matrix(rng, n):
    """A general (non-symmetric) matrix with mixed denominators."""
    return SquareMatrix(
        [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 12))) for _ in range(n)] for _ in range(n)]
    )


def sympy_char_poly(m):
    lam = sympy.Symbol("lam")
    coeffs = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in m.rows])
    desc = coeffs.charpoly(lam).all_coeffs()
    return Polynomial([Fraction(int(c.p), int(c.q)) for c in reversed(desc)])


def test_char_poly_matches_sympy(rng):
    cases = [SquareMatrix([[0] * n for _ in range(n)]) for n in range(1, 7)]
    cases += [SquareMatrix([[Fraction(-7, 3)]]), SquareMatrix([[Fraction(1, 2), 3], [Fraction(-5, 7), 0]])]
    for n in range(1, 7):
        cases += [rand_rational_matrix(rng, n) for _ in range(12)]
        cases += [rand_sym_matrix(rng, n) for _ in range(4)]
    for m in cases:
        assert char_poly(m) == sympy_char_poly(m)


def test_inertia_examples():
    assert inertia(SymMatrix(identity(3))) == (3, 0, 0)
    assert inertia(SymMatrix([[1, 1, 1]] * 3)) == (1, 0, 2)
    assert inertia(SymMatrix([[1, 0, 0], [0, -2, 0], [0, 0, 0]])) == (1, 1, 1)


def test_inertia_rejects_asymmetric():
    with pytest.raises(ValueError):
        inertia(SquareMatrix([[1, 2], [3, 4]]))


def test_inertia_matches_numpy(rng):
    for _ in range(120):
        m = rand_sym_matrix(rng, rng.choice((2, 3)))
        assert inertia(m) == numpy_inertia(m)


def descartes_inertia(m):
    """The inertia by Descartes' rule of signs on the characteristic
    polynomial, exact because a symmetric matrix has only real eigenvalues."""

    def variations(coeffs):
        signs = [c > 0 for c in coeffs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    p = char_poly(m).coeffs
    n_zero = next(i for i, c in enumerate(p) if c)
    n_plus = variations(p)
    n_minus = variations([c if i % 2 == 0 else -c for i, c in enumerate(p)])
    assert n_plus + n_minus + n_zero == m.n
    return n_plus, n_minus, n_zero


entries = st.sampled_from([0, 0, 1, -1]) | st.fractions(-9, 9, max_denominator=4)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices of order 1-8: random, with a zero diagonal,
    or B^t D B of rank below the order."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "zero diagonal", "rank deficient"]))
    if kind == "rank deficient":
        rank = draw(st.integers(0, n - 1))
        b = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(rank)]
        d = [draw(st.sampled_from([-2, -1, Fraction(1, 3), 1])) for _ in range(rank)]
        rows = [[sum(b[t][i] * d[t] * b[t][j] for t in range(rank)) for j in range(n)] for i in range(n)]
    else:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = 0 if kind == "zero diagonal" and i == j else draw(entries)
    return SymMatrix(rows)


@settings(deadline=None, max_examples=300)
@given(m=symmetric_matrices())
def test_inertia_matches_descartes_and_numpy(m):
    sig = inertia(m)
    assert sig == descartes_inertia(m)
    if sig[2] == 0:
        assert sig == numpy_inertia(m)


def test_sylvester_law_congruence_invariance(rng):
    for _ in range(500):
        n = rng.choice((2, 3))
        m = rand_sym_matrix(rng, n)
        c = rand_invertible(rng, n)
        assert inertia(congruent(m, c)) == inertia(m)


# -- conic classification --------------------------------------------------------------


def test_classify_conic_canonical_families():
    assert classify_conic(Fraction(1, 4), 0, Fraction(1, 9), 0, 0, 1) == ConicKind.ELLIPSE
    assert classify_conic(1, 0, -1, 0, 0, 1) == ConicKind.HYPERBOLA
    assert classify_conic(0, 1, 0, 0, 0, 1) == ConicKind.HYPERBOLA  # xy = 1
    assert classify_conic(0, 0, 1, -4, 0, 0) == ConicKind.PARABOLA  # y^2 = 4x
    assert classify_conic(1, 0, 1, 0, 0, 1) == ConicKind.CIRCLE
    assert classify_conic(-1, 0, -1, 0, 0, -1) == ConicKind.CIRCLE  # -x^2 - y^2 = -1
    assert classify_conic(1, 0, 1, 0, 0, 0) == ConicKind.DEGENERATE  # single point
    assert classify_conic(1, 0, 1, 0, 0, -1) == ConicKind.EMPTY
    assert classify_conic(1, 0, -1, 0, 0, 0) == ConicKind.DEGENERATE  # crossing lines
    assert classify_conic(1, 0, 0, 0, 0, 1) == ConicKind.DEGENERATE  # parallel lines
    assert classify_conic(1, 0, 0, 0, 0, 0) == ConicKind.DEGENERATE  # double line
    assert classify_conic(1, 0, 0, 0, 0, -1) == ConicKind.EMPTY
    assert classify_conic(1, 0, 0, 0, 3, 1) == ConicKind.PARABOLA  # x^2 + 3y = 1
    with pytest.raises(ValueError):
        classify_conic(0, 0, 0, 1, 1, 1)


def classify_conic_by_schur(a, b, c, d, e, lam):
    """The case analysis `classify_conic` used before its inertia table: det Q,
    the trace, the Schur complement -det B / det Q, and for singular Q the
    reduction along the exact kernel direction."""
    a, b, c, d, e, lam = (Fraction(v) for v in (a, b, c, d, e, lam))
    det_q = determinant([[a, b / 2], [b / 2, c]])
    if det_q != 0:
        const = -determinant([[a, b / 2, d / 2], [b / 2, c, e / 2], [d / 2, e / 2, -lam]]) / det_q
        if det_q > 0:
            if const == 0:
                return ConicKind.DEGENERATE  # a single point
            if (const > 0) == (a + c > 0):
                return ConicKind.CIRCLE if a == c and b == 0 else ConicKind.ELLIPSE
            return ConicKind.EMPTY
        return ConicKind.DEGENERATE if const == 0 else ConicKind.HYPERBOLA
    kernel = (-b / 2, a) if a != 0 or b != 0 else (Fraction(1), Fraction(0))
    if d * kernel[0] + e * kernel[1] != 0:
        return ConicKind.PARABOLA
    u = (kernel[1], -kernel[0])
    wu = d * u[0] + e * u[1]
    disc_s = wu * wu / (u[0] * u[0] + u[1] * u[1]) + 4 * (a + c) * lam
    return ConicKind.EMPTY if disc_s < 0 else ConicKind.DEGENERATE


def linear_form_product(p, q):
    """Coefficients (a, b, c, d, e, lam) of the conic p(x, y) * q(x, y) = 0 for
    linear forms p = (p1, p2, p0) meaning p1*x + p2*y + p0."""
    (p1, p2, p0), (q1, q2, q0) = p, q
    return (p1 * q1, p1 * q2 + p2 * q1, p2 * q2, p1 * q0 + p0 * q1, p2 * q0 + p0 * q2, -p0 * q0)


def planted_degenerate_conics(rng):
    """Products of two rational linear forms, real and conjugate-imaginary."""
    def rand_linear():
        while True:
            form = tuple(rand_fraction(rng, -5, 5, 3) for _ in range(3))
            if form[0] != 0 or form[1] != 0:
                return form

    def add(*coeff_lists):
        return tuple(sum(cs) for cs in zip(*coeff_lists))

    out = []
    for _ in range(60):
        p, q = rand_linear(), rand_linear()
        k = rand_fraction(rng, 1, 5, 3) * rng.choice((1, -1))
        s = rand_fraction(rng, 1, 5, 3)
        parallel = (k * p[0], k * p[1], p[2] + s)
        out += [
            linear_form_product(p, q),  # crossing (or parallel) real pair
            linear_form_product(p, parallel),  # parallel real pair
            linear_form_product(p, p),  # coincident: a double line
            linear_form_product((k * p[0], k * p[1], k * p[2]), p),  # coincident, rescaled
            # p^2 + s^2 = 0: an imaginary parallel pair
            add(linear_form_product(p, p), (0, 0, 0, 0, 0, -s * s)),
            # p^2 + q^2 = 0: an imaginary crossing pair, whose one real point is p = q = 0
            add(linear_form_product(p, p), linear_form_product(q, q)),
        ]
    return out + [tuple(-v for v in coeffs) for coeffs in out]


class RecordingTable(dict):
    def __init__(self, table):
        super().__init__(table)
        self.hits = set()

    def __getitem__(self, key):
        self.hits.add(key)
        return super().__getitem__(key)


def test_conic_table_matches_schur_oracle(rng, monkeypatch):
    table = RecordingTable(forms._CONIC_TABLE)
    monkeypatch.setattr(forms, "_CONIC_TABLE", table)
    grid = [
        coeffs
        for coeffs in itertools.product((-1, 0, 1, 2), repeat=6)
        if any(coeffs[:3])
    ]
    assert len(grid) == 4032
    planted = planted_degenerate_conics(rng)
    for coeffs in grid + planted:
        assert classify_conic(*coeffs) == classify_conic_by_schur(*coeffs), coeffs
    assert all(classify_conic(*coeffs) in (ConicKind.DEGENERATE, ConicKind.EMPTY) for coeffs in planted)
    assert len(table) == 10
    assert table.hits == set(table)


def transform_conic(coeffs, c, t):
    """Exact coefficient transport under (x, y) -> C (x', y') + t."""
    a, b, cc, d, e, lam = coeffs
    q = [[a, b / 2], [b / 2, cc]]
    w = [d, e]
    qt = [sum(q[i][j] * t[j] for j in range(2)) for i in range(2)]
    new_q = congruent(SymMatrix(q), c).rows
    new_w = [
        sum(c[i][k] * (2 * qt[i] + w[i]) for i in range(2))
        for k in range(2)
    ]
    tq_t = sum(t[i] * qt[i] for i in range(2))
    w_t = sum(w[i] * t[i] for i in range(2))
    new_lam = lam - tq_t - w_t
    return (
        new_q[0][0],
        2 * new_q[0][1],
        new_q[1][1],
        new_w[0],
        new_w[1],
        new_lam,
    )


def test_classify_conic_invariance_under_affine_maps(rng):
    for _ in range(60):
        lam1 = abs(rand_fraction(rng, 1, 6, 2)) + 1
        lam2 = lam1 + abs(rand_fraction(rng, 1, 6, 2)) + 1  # distinct: never a circle
        kind_tag = rng.choice(("ellipse", "hyperbola"))
        if kind_tag == "ellipse":
            coeffs = (lam1, Fraction(0), lam2, Fraction(0), Fraction(0), Fraction(1))
        else:
            coeffs = (lam1, Fraction(0), -lam2, Fraction(0), Fraction(0), Fraction(1))
        before = classify_conic(*coeffs)
        assert before == (ConicKind.ELLIPSE if kind_tag == "ellipse" else ConicKind.HYPERBOLA)
        c = rand_invertible(rng, 2)
        t = [rand_fraction(rng, -3, 3, 2), rand_fraction(rng, -3, 3, 2)]
        after = classify_conic(*transform_conic(coeffs, c, t))
        assert after == before


def grid_oracle(coeffs, box):
    """Sample the conic on a 201 x 201 grid: (has points?, bounded?)."""
    a, b, c, d, e, lam = (float(v) for v in coeffs)
    xs = np.linspace(-box, box, 201)
    x, y = np.meshgrid(xs, xs)
    g = a * x * x + b * x * y + c * y * y + d * x + e * y - lam
    sign = np.sign(g)
    changes = (sign[:-1, :] * sign[1:, :] <= 0) | (np.abs(g[:-1, :]) < 1e-12)
    changes_h = (sign[:, :-1] * sign[:, 1:] <= 0) | (np.abs(g[:, :-1]) < 1e-12)
    any_cross = changes.any() or changes_h.any()
    border = np.zeros_like(changes, dtype=bool)
    border[:5, :] = border[-5:, :] = True
    border[:, :5] = border[:, -5:] = True
    border_h = np.zeros_like(changes_h, dtype=bool)
    border_h[:5, :] = border_h[-5:, :] = True
    border_h[:, :5] = border_h[:, -5:] = True
    unbounded = (changes & border).any() or (changes_h & border_h).any()
    return any_cross, unbounded


def rand_unimodular(rng):
    """A product of two integer shears: det +-1, singular values in [0.38, 2.62]."""
    k, m = rng.randint(-1, 1), rng.randint(-1, 1)
    shear1 = [[1, k], [0, 1]]
    shear2 = [[1, 0], [m, 1]]
    return matmul(shear1, shear2)


def test_classify_conic_against_grid_oracle(rng):
    for _ in range(100):
        # nondegenerate conics with well-separated eigenvalues and loci
        # guaranteed to be resolvable on the sampling grid
        lam1 = Fraction(rng.randint(1, 2))
        lam2 = lam1 + rng.randint(1, 2)
        kind_tag = rng.choice(("ellipse", "hyperbola", "parabola"))
        lam = Fraction(rng.randint(9, 16))
        if kind_tag == "ellipse":
            coeffs = (lam1, Fraction(0), lam2, Fraction(0), Fraction(0), lam)
        elif kind_tag == "hyperbola":
            coeffs = (lam1, Fraction(0), -lam2, Fraction(0), Fraction(0), lam)
        else:
            coeffs = (lam1, Fraction(0), Fraction(0), Fraction(0), Fraction(rng.randint(1, 5)), lam)
        c = rand_unimodular(rng)
        t = [Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))]
        moved = transform_conic(coeffs, c, t)
        got = classify_conic(*moved)
        nonempty, unbounded = grid_oracle(moved, box=30.0)
        assert nonempty
        if got in (ConicKind.ELLIPSE, ConicKind.CIRCLE):
            assert not unbounded
        else:
            assert got in (ConicKind.HYPERBOLA, ConicKind.PARABOLA)
            assert unbounded


# -- quadric classification ------------------------------------------------------------


CANONICAL_QUADRICS = [
    (TernaryForm(1, 1, 1, 0, 0, 0), (3, 0, 0), QuadricKind.ELLIPSOID),
    (TernaryForm(1, 1, 0, 0, 0, 0), (2, 0, 1), QuadricKind.ELLIPTIC_PARABOLOID),
    (TernaryForm(1, 1, -1, 0, 0, 0), (2, 1, 0), QuadricKind.HYPERBOLOID_ONE_SHEET),
    (TernaryForm(1, -1, -1, 0, 0, 0), (1, 2, 0), QuadricKind.HYPERBOLOID_TWO_SHEETS),
    (TernaryForm(1, -1, 0, 0, 0, 0), (1, 1, 1), QuadricKind.HYPERBOLIC_PARABOLOID),
    (TernaryForm(1, 0, 0, 0, 0, 0), (1, 0, 2), QuadricKind.PARABOLIC_CYLINDER),
]


@pytest.mark.parametrize("form,sig,kind", CANONICAL_QUADRICS)
def test_classify_quadric_canonical(form, sig, kind):
    assert inertia(form_to_matrix(form)) == sig
    assert classify_quadric(form) == kind


def test_classify_quadric_other_and_errors():
    assert classify_quadric(TernaryForm(-1, -1, -1, 0, 0, 0)) == QuadricKind.OTHER
    with pytest.raises(ValueError):
        classify_quadric(TernaryForm(0, 0, 0, 0, 0, 0))


def test_classify_quadric_cross_terms_against_numpy():
    form = TernaryForm.from_equation_coefficients(1, 1, -1, 3, -5, 4)
    m = form_to_matrix(form)
    assert inertia(m) == numpy_inertia(m)
    assert classify_quadric(form) == QuadricKind.HYPERBOLOID_ONE_SHEET


def rand_rank_deficient(rng, n):
    """Symmetric n x n Fractions sum k1 * u u^t + k2 * v v^t (rank <= 2), with
    a zero row when u and v share a zero entry."""
    vecs = [[rand_fraction(rng, -6, 6, 12) if rng.random() < 0.8 else Fraction(0) for _ in range(n)] for _ in range(2)]
    ks = [rand_fraction(rng, -6, 6, 12) for _ in range(2)]
    return [[sum(k * v[i] * v[j] for k, v in zip(ks, vecs)) for j in range(n)] for i in range(n)]


def test_classifiers_match_inertia_of_the_halved_matrices(rng):
    # the classifiers run their own integer route; the public inertia of the
    # matrices with halved cross terms is the oracle
    conics = []
    for _ in range(150):
        coeffs = [rand_fraction(rng, -9, 9, 12) if rng.random() < 0.75 else Fraction(0) for _ in range(6)]
        if rng.random() < 0.3:  # a zero row and column of B
            coeffs[0] = coeffs[1] = coeffs[3] = Fraction(0)
        conics.append(coeffs)
    for _ in range(60):  # B of rank <= 2
        (a, h, dd), (_, c, ee), (_, _, f) = rand_rank_deficient(rng, 3)
        conics.append([a, 2 * h, c, 2 * dd, 2 * ee, -f])
    for a, b, c, d, e, lam in conics:
        if a == b == c == 0:
            continue
        sig_q = inertia(SymMatrix([[a, b / 2], [b / 2, c]]))
        sig_b = inertia(SymMatrix([[a, b / 2, d / 2], [b / 2, c, e / 2], [d / 2, e / 2, -lam]]))
        key = (sig_q, sig_b) if sig_q[0] >= sig_q[1] else tuple((m, p, z) for p, m, z in (sig_q, sig_b))
        kind = forms._CONIC_TABLE[key]
        if kind is ConicKind.ELLIPSE and a == c and b == 0:
            kind = ConicKind.CIRCLE
        assert forms._classify_conic(a, b, c, d, e, lam) == (kind, sig_q), (a, b, c, d, e, lam)

    quadrics = [[rand_fraction(rng, -9, 9, 12) if rng.random() < 0.75 else Fraction(0) for _ in range(6)]
                for _ in range(150)]
    for m in (rand_rank_deficient(rng, 3) for _ in range(60)):
        quadrics.append([m[0][0], m[1][1], m[2][2], m[0][1], m[0][2], m[1][2]])
    for fields in quadrics:
        form = TernaryForm(*fields)
        if form.is_zero:
            continue
        sig = inertia(form_to_matrix(form))
        assert forms._classify_quadric(form) == (forms._QUADRIC_TABLE.get(sig, QuadricKind.OTHER), sig), fields


def test_quadric_degeneracy_note():
    assert forms._degeneracy_note(inertia(form_to_matrix(TernaryForm(1, 1, 1, 0, 0, 0)))) is None
    degenerate = TernaryForm.from_equation_coefficients(1, 1, 1, 2, 2, 2)
    note = forms._degeneracy_note(inertia(form_to_matrix(degenerate)))
    assert note is not None and "rank" in note


# -- elimination core --------------------------------------------------------------------


def test_solve_linear_system_exact():
    sol = solve_linear_system([[2, 1], [1, 3]], [5, 10])
    assert sol == [Fraction(1), Fraction(3)]
    with pytest.raises(ValueError):
        solve_linear_system([[1, 2], [2, 4]], [1, 1])


@pytest.mark.parametrize("rows, rhs", [
    ([[1, 0], [0, 1]], [1, 2, 3]),  # an extra right-hand side
    ([[1, 0], [0, 1]], [1]),  # a missing right-hand side
    ([[1, 0], [0]], [1, 2]),  # a short row
    ([[1, 0, 2], [0, 1, 3]], [1, 2]),  # wide
    ([], []),  # empty
])
def test_solve_linear_system_names_a_malformed_shape(rows, rhs):
    shape = rf"{len(rows)} rows of lengths \{[len(row) for row in rows]}, {len(rhs)} right-hand sides"
    with pytest.raises(ValueError, match=shape):
        solve_linear_system(rows, rhs)


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[0, 1], [1, 1, 5]]])
def test_rational_nullspace_names_ragged_rows(rows):
    with pytest.raises(ValueError, match=rf"rows must have equal lengths, not \{[len(row) for row in rows]}"):
        rational_nullspace(rows)


def test_rational_nullspace():
    basis = rational_nullspace([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0
    assert rational_nullspace([[1, 0], [0, 1]]) == []


def test_closed_form_eigenbasis_equals_rational_nullspace():
    """`orthogonal_diagonalize` reads each rational eigenvalue's basis from
    closed forms on the integer rows of M - lambda*I; they must give exactly
    the reduced-echelon basis of `rational_nullspace`.  Every singular
    symmetric 2x2 and 3x3 integer matrix with entries in [-2, 2] is checked."""
    seen = set()
    for n in (2, 3):
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        for values in itertools.product(range(-2, 3), repeat=len(upper)):
            rows = [[0] * n for _ in range(n)]
            for (i, j), v in zip(upper, values):
                rows[i][j] = rows[j][i] = v
            expected = rational_nullspace(rows)
            if expected:
                assert forms._eigenbasis(rows, len(expected)) == expected, rows
                seen.add((n, len(expected)))
    assert seen == {(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)}


# -- orthogonal diagonalization ------------------------------------------------------------


def ortho_error(s):
    n = len(s)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            dot = sum(s[k][i] * s[k][j] for k in range(n))
            worst = max(worst, abs(dot - (1.0 if i == j else 0.0)))
    return worst


def test_diagonalize_diagonal_matrix():
    dg = orthogonal_diagonalize(SymMatrix([[2, 0], [0, 5]]))
    assert dg.D == (2.0, 5.0)
    for j in range(2):
        col = [abs(dg.S[i][j]) for i in range(2)]
        assert max(col) == pytest.approx(1.0)
        assert min(col) == pytest.approx(0.0, abs=1e-15)


def test_diagonalize_all_ones():
    dg = orthogonal_diagonalize(SymMatrix([[1, 1, 1]] * 3))
    assert sorted(dg.D) == [0.0, 0.0, 3.0]
    j = dg.D.index(3.0)
    v = [dg.S[i][j] for i in range(3)]
    unit = 1 / math.sqrt(3)
    assert abs(abs(sum(x * unit for x in v)) - 1.0) < 1e-12


@pytest.mark.parametrize("rows", [[[1, 2], [3, 4]], [[0, 1], [-1, 0]], [[1, 2, 0], [0, 1, 0], [0, 0, 1]]])
def test_diagonalize_refuses_a_non_symmetric_matrix(rows):
    with pytest.raises(ValueError, match="requires a symmetric matrix"):
        orthogonal_diagonalize(SquareMatrix(rows))


def test_diagonalize_random_invariants(rng):
    for _ in range(200):
        m = rand_sym_matrix(rng, 3)
        dg = orthogonal_diagonalize(m)
        norm = max(abs(float(v)) for row in m.rows for v in row)
        assert ortho_error(dg.S) < 1e-8
        assert dg.residual < 1e-6 * (1.0 + norm)
        # eigenvalue multiset against numpy
        mine = sorted(dg.D)
        theirs = sorted(np.linalg.eigvalsh(np.array([[float(v) for v in row] for row in m.rows])))
        assert max(abs(a - b) for a, b in zip(mine, theirs)) < 1e-6 * (1.0 + norm)
        # sign counts against exact inertia
        sig = inertia(m)
        tol = 1e-9 * (1.0 + norm)
        counts = (
            sum(1 for x in dg.D if x > tol),
            sum(1 for x in dg.D if x < -tol),
            sum(1 for x in dg.D if abs(x) <= tol),
        )
        assert counts == sig


def quaternion_rotation(q):
    """The rational rotation of the nonzero integer quaternion q = (a, b, c, d)."""
    a, b, c, d = q
    n = a * a + b * b + c * c + d * d
    rows = [
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ]
    return [[Fraction(v, n) for v in row] for row in rows]


def test_diagonalize_planted_rational_spectra(rng):
    """M = R diag(lam) R^t with R rational and orthogonal: every eigenvalue is
    rational, so each eigenspace, of dimension 1, 2 or 3, comes from the exact
    null space of M - lam*I."""
    for trial in range(600):
        q = (0, 0, 0, 0)
        while q == (0, 0, 0, 0):
            q = tuple(rng.randint(-3, 3) for _ in range(4))
        r = quaternion_rotation(q)
        assert matmul(r, transpose(r)) == identity(3)
        lams = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)]
        if trial % 5 == 0:
            lams = [lams[0]] * 3
        elif trial % 5 < 3:
            lams[trial % 5] = lams[0]
        diag = [[lam if i == j else 0 for j, lam in enumerate(lams)] for i in range(3)]
        m = matmul(matmul(r, diag), transpose(r))
        dg = orthogonal_diagonalize(SymMatrix(m))
        assert dg.D == tuple(sorted(float(lam) for lam in lams)), (q, lams)
        assert ortho_error(dg.S) < 1e-12, (q, lams)
        mf = [[float(v) for v in row] for row in m]
        eig_error = max(
            abs(sum(mf[i][k] * dg.S[k][j] for k in range(3)) - dg.S[i][j] * dg.D[j])
            for i in range(3)
            for j in range(3)
        )
        assert eig_error < 1e-12, (q, lams)


def test_diagonal_substitution_identity_for_diagonal_form():
    sub, diag = diagonal_substitution(TernaryForm(1, 2, 3, 0, 0, 0))
    assert diag == (1.0, 2.0, 3.0)
    for i in range(3):
        for j in range(3):
            assert sub[i][j] == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)


def test_diagonal_substitution_all_ones_form():
    form = TernaryForm.from_equation_coefficients(1, 1, 1, 2, 2, 2)
    sub, diag = diagonal_substitution(form)
    assert sorted(diag) == [0.0, 0.0, 3.0]
    j = list(diag).index(3.0)
    direction = sub[j]
    unit = 1 / math.sqrt(3)
    assert abs(abs(sum(x * unit for x in direction)) - 1.0) < 1e-12


def test_diagonal_substitution_matches_substitute_and_expand(rng):
    forms_to_try = [
        TernaryForm.from_equation_coefficients(1, 1, -1, 3, -5, 4),
        TernaryForm.from_equation_coefficients(1, 1, 1, 2, 2, 2),
    ]
    for _ in range(20):
        vals = [rand_fraction(rng, -4, 4, 2) for _ in range(6)]
        forms_to_try.append(TernaryForm(*vals))
    for form in forms_to_try:
        sub, diag = diagonal_substitution(form)
        for _ in range(10):
            v = [rng.uniform(-2, 2) for _ in range(3)]
            # x = S v, so F(x) should equal the diagonal form at v
            x = [sum(sub[j][i] * v[j] for j in range(3)) for i in range(3)]
            lhs = float(form_value(form, *x))
            rhs = sum(d * vi * vi for d, vi in zip(diag, v))
            assert abs(lhs - rhs) < 1e-6 * (1.0 + abs(lhs) + abs(rhs))


def test_diagonal_substitution_cross_form_eigenvalues_match_char_poly():
    form = TernaryForm.from_equation_coefficients(1, 1, -1, 3, -5, 4)
    _, diag = diagonal_substitution(form)
    p = char_poly(form_to_matrix(form))
    roots = sorted(np.roots([float(c) for c in reversed(p.coeffs)]).real)
    assert max(abs(a - b) for a, b in zip(sorted(diag), roots)) < 1e-8
