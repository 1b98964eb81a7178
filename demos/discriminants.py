"""Discriminants two ways, and what a vanishing discriminant tells you.

The discriminant of a polynomial is (up to sign and leading-coefficient
normalization) the product of squared differences of its roots, so it is
zero exactly when a root repeats.  The point of this demo: you can compute
it from the coefficients alone, by two completely different routes, and
they agree exactly.
"""

import math
from fractions import Fraction

from klasika import (
    Polynomial,
    discriminant_hankel,
    discriminant_resultant,
    has_repeated_roots,
    power_sums,
)

# The familiar quadratic case: ax^2 + bx + c has discriminant b^2 - 4ac.
# Coefficients are ascending: [c, b, a].
quadratic = Polynomial([2, -3, 1])  # x^2 - 3x + 2 = (x-1)(x-2)
print("x^2 - 3x + 2:")
print("  via Sylvester resultant:", discriminant_resultant(quadratic))
print("  via Newton power sums:  ", discriminant_hankel(quadratic))
print("  b^2 - 4ac =", Fraction(9) - 4 * 2)

# The same machinery answers the question nobody answers in school: what is
# the discriminant of a cubic?  No roots are ever computed.
cubic = Polynomial([7, -5, 3, 2])  # 2x^3 + 3x^2 - 5x + 7
print("\n2x^3 + 3x^2 - 5x + 7:")
print("  discriminant:", discriminant_resultant(cubic))

# The power sums S_k = sum of k-th powers of the roots come straight from
# the coefficients by Newton's identities:
print("\npower sums of x^2 - 3x + 2 (roots 1 and 2):")
print("  S_0..S_4 =", list(power_sums(quadratic, 4)))

# A degree-9 polynomial with repeated roots is *easier*, and the
# discriminant sees that instantly:
nasty = math.prod([Polynomial([-2, 1])] * 4 + [Polynomial([-3, 1])] * 5)  # (x-2)^4 (x-3)^5
print("\n(x-2)^4 (x-3)^5, degree", nasty.degree)
print("  has repeated roots?", has_repeated_roots(nasty))
print("  discriminant:", discriminant_resultant(nasty))
