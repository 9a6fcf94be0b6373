"""Character sums refine the counts: one Laurent coefficient per point.

The weighted sum over lattice points of ell*P keeps each point as a
formal character chi^m.  Dualizing the weights matches inverting y and
negating the characters at -ell, and at ell = 0 the h-polynomial of the
face lattice appears.
"""

from wehrhart import (
    VARIANT_ETILDE,
    HomogPoly,
    apply_phi,
    build,
    g_weight_function,
    h_polynomial,
    hodge_character_sum,
    negate_characters,
    substitute_inverse,
    verify_hodge_duality,
)
from wehrhart.algebra import substitute_negative
from wehrhart.weights import all_ones, dualize

seg = build("segment")
ones = all_ones(seg)
for ell in (1, 0, -1):
    s = hodge_character_sum(seg, ones, ell)
    terms = ", ".join(f"chi^{list(m)} * ({p})" for m, p in s.terms.items())
    print(f"segment, ell={ell}: {terms}")

print()
lhs = hodge_character_sum(seg, dualize(ones), 1)
rhs = negate_characters(
    hodge_character_sum(seg, ones, -1).map_values(substitute_inverse)
)
print("duality formula at ell=1:", lhs == rhs)
for name in ("square", "pyramid", "random3"):
    lattice = build(name)
    ok = all(
        verify_hodge_duality(lattice, all_ones(lattice), ell).passed
        for ell in (1, 2, 3)
    )
    print(f"  {name}: ell=1..3 {'ok' if ok else 'FAIL'}")

print()
print("h-polynomial from the zero-dilation character sum:")
for name in ("square", "cube", "pyramid"):
    lattice = build(name)
    g = g_weight_function(lattice, lattice.top_id)
    s = hodge_character_sum(lattice, g, 0)
    value = apply_phi(s, HomogPoly.one(lattice.polytope.n), VARIANT_ETILDE)
    h = h_polynomial(lattice)
    print(f"  {name}: {substitute_negative(value)} vs h = {h:t}")
