"""Reciprocity: the interpolated polynomial knows about negative dilations.

Evaluating at -ell recovers the closed-face enumeration with sign twists;
with the g-weights of a face the two directions differ only by a
monomial factor (purity).
"""

from fractions import Fraction

from wehrhart import (
    HomogPoly,
    VARIANT_ETILDE,
    build,
    g_weight_function,
    verify_duality_reciprocity,
    verify_purity,
    verify_reciprocity,
)
from wehrhart.weights import all_ones

pyr = build("pyramid")
ones = all_ones(pyr)
phi = HomogPoly(3, [((0, 0, 1), Fraction(1))])  # integrand m_3

print("pyramid, all-ones weights, integrand m_3, variant Etilde:")
# each verifier takes the whole run of dilations and returns one check per ell
ells = (1, 2, 3)
recip = verify_reciprocity(ones, phi, ells, VARIANT_ETILDE)
dual = verify_duality_reciprocity(ones, phi, ells, VARIANT_ETILDE)
for ell, r, d in zip(ells, recip, dual):
    print(f"  ell={ell}: reciprocity {'ok' if r.passed else 'FAIL'}, "
          f"dual form {'ok' if d.passed else 'FAIL'}, "
          f"E(-ell) = {r.lhs}")

print()
print("purity along each face of the pyramid (ell = 2):")
one = HomogPoly.one(3)
for qp in pyr.nonempty_ids:
    (res,) = verify_purity(g_weight_function(pyr, qp), qp, one, [2])
    face = pyr.faces[qp]
    print(f"  face {qp} (dim {face.dim}): {'ok' if res.passed else 'FAIL'}")
