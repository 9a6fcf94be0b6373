"""Weighted lattice-point counts are polynomials in the dilation.

With the weight 1 on the whole polytope and integrand 1, the value at
y = 0 is the classical interior count; richer weights and homogeneous
integrands keep the polynomiality, with coefficients in Q[y, 1/y].
"""

from fractions import Fraction

from wehrhart import (
    HomogPoly,
    VARIANT_E,
    VARIANT_ETILDE,
    build,
    delta_weight,
    ehrhart_polynomial,
    g_weight_function,
    weighted_ehrhart_value,
)

cube = build("cube")
f = delta_weight(cube, cube.top_id)
one = HomogPoly.one(3)
zp = ehrhart_polynomial(f, one, VARIANT_ETILDE)
print("cube, weight 1 on the solid cube, integrand 1:")
for k, c in enumerate(zp.coeffs):
    print(f"  z^{k}: {c}")
y0 = Fraction(0)
print("  at y=0:", [int(zp(ell).subs(y0)) for ell in range(1, 6)],
      "= interior counts (ell-1)^3")
print("  at z=-ell, y=0:", [int(zp(-ell).subs(y0)) for ell in range(1, 6)],
      "= (-1)^3 (ell+1)^3")

print()
square = build("square")
phi = HomogPoly(2, [((1, 0), Fraction(1))])  # integrand m_1
gw = g_weight_function(square, square.top_id)
zp2 = ehrhart_polynomial(gw, phi, VARIANT_E)
print("square, g-weights, integrand m_1 (E variant):")
print(f"  degree {zp2.degree} (bound {square.polytope.n + phi.degree})")
for ell in (1, 2, 3):
    direct = weighted_ehrhart_value(gw, phi, ell, VARIANT_E)
    print(f"  ell={ell}: {direct}  (polynomial agrees: {zp2(ell) == direct})")
