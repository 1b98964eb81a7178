"""Integrating rational functions symbolically, and the ellipse.

Every real polynomial factors into linear and quadratic pieces, so every
rational function splits into partial fractions whose antiderivatives are
logarithms, arctangents, and negative powers.  The ellipse supplies the
contrast: its area is elementary (pi*a*b), but its perimeter is a complete
elliptic integral, evaluated here by Gauss's arithmetic-geometric mean.
"""

import math

from klasika import (
    ConicParam,
    Polynomial,
    ellipse_area,
    ellipse_perimeter,
    factor_real,
    integrate_rational,
    partial_fractions,
)

p = Polynomial([4, -1, 2])   # 2x^2 - x + 4
q = Polynomial([0, 4, 0, 1])  # x^3 + 4x

fact = factor_real(q)
print("x^3 + 4x factors as x * (x^2 + 4):")
print("  linear:", fact.linear_factors, " quadratic:", fact.quadratic_factors)

pf = partial_fractions(p, q)
print("\npartial fractions of (2x^2 - x + 4)/(x^3 + 4x):")
print("  over x:     ", pf.linear_terms)
print("  over x^2+4: ", pf.quadratic_terms)

anti = integrate_rational(p, q)
print("\nantiderivative:", anti.render())

# sanity: differentiate numerically at one point
x = 1.7
h = 1e-6
fd = (anti.eval(x + h) - anti.eval(x - h)) / (2 * h)
print(f"slope at x={x}: finite difference {fd:.10f} vs integrand {p(x)/q(x):.10f}")

# the ellipse
a, b = 2.0, 1.0
print(f"\nellipse with semi-axes a={a}, b={b}:")
print("  area     =", ellipse_area(a, b), "(exactly 2*pi =", 2 * math.pi, ")")
perimeter = ellipse_perimeter(a, b)
print("  perimeter =", perimeter)
print("  bracketed by pi(a+b) =", math.pi * (a + b), "and pi*sqrt(2(a^2+b^2)) =", math.pi * math.sqrt(2 * (a * a + b * b)))

# rational points: conics admit rational parametrizations
conic = ConicParam("ellipse", a, b)
print("\nrational parametrization samples (t, x(t), y(t)):")
for t in (0.0, 0.5, 1.0, 3.0):
    x, y = conic.point(t)
    print(f"  t={t:4.1f}  ({x:+.12f}, {y:+.12f})   on-curve residual {conic.implicit_residual(x, y):.1e}")
