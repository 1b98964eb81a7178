"""Classifying conics and quadric surfaces without drawing anything.

A quadratic equation in 2 or 3 variables is governed by the symmetric
matrix of its quadratic part.  The counts of positive/negative/zero
eigenvalues (the inertia) never change under an invertible change of
coordinates, and they pin down the shape.  Here the counts are computed
exactly, from the pivot signs of a symmetric elimination by congruences
over Z (Sylvester's law of inertia), so no classification ever flips on
floating-point noise.
"""

from fractions import Fraction

from klasika import (
    SymMatrix,
    TernaryForm,
    char_poly,
    classify_conic,
    classify_quadric,
    diagonal_substitution,
    form_to_matrix,
    inertia,
    orthogonal_diagonalize,
)

# Conics: ax^2 + bxy + cy^2 + dx + ey = lambda.
examples = [
    ((Fraction(1, 4), 0, Fraction(1, 9), 0, 0, 1), "x^2/4 + y^2/9 = 1"),
    ((1, 0, -1, 0, 0, 1), "x^2 - y^2 = 1"),
    ((0, 1, 0, 0, 0, 1), "xy = 1"),
    ((0, 0, 1, -4, 0, 0), "y^2 = 4x"),
    ((1, 0, 1, 0, 0, 1), "x^2 + y^2 = 1"),
    ((1, 0, 1, 0, 0, -1), "x^2 + y^2 = -1"),
    ((1, -2, 1, 0, 0, 0), "(x - y)^2 = 0"),
]
print("conic classification:")
for coeffs, label in examples:
    print(f"  {label:22s} ->", classify_conic(*coeffs).value)

# Quadric surfaces: the inertia of the 3x3 matrix decides the kind.
mixed = TernaryForm.from_equation_coefficients(1, 1, -1, 3, -5, 4)
m = form_to_matrix(mixed)
print("\nx^2 + y^2 - z^2 + 3xy - 5xz + 4yz = 1:")
print("  matrix rows:", [list(map(str, row)) for row in m.rows])
print("  characteristic polynomial (ascending):", char_poly(m).to_text())
print("  inertia:", inertia(m))
print("  kind:", classify_quadric(mixed).value)

# Orthogonal diagonalization makes the classification concrete: an explicit
# rotation of coordinates under which the cross terms vanish.
all_ones = TernaryForm.from_equation_coefficients(1, 1, 1, 2, 2, 2)
substitution, diagonal = diagonal_substitution(all_ones)
print("\nx^2 + y^2 + z^2 + 2xy + 2xz + 2yz, diagonalized:")
for var, row in zip(("x'", "y'", "z'"), substitution):
    combo = " + ".join(f"({v:+.6f})*{n}" for v, n in zip(row, "xyz"))
    print(f"  {var} = {combo}")
print("  diagonal coefficients:", [round(d, 12) for d in diagonal])
print("  (the form is (x+y+z)^2: eigenvalue 3 along (1,1,1), rank 1)")

dg = orthogonal_diagonalize(SymMatrix([[2, 1], [1, 2]]))
print("\n[[2,1],[1,2]] has eigenvalues", dg.D, "and residual", f"{dg.residual:.1e}")
