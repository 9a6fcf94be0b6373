"""Character sums refine the counts: one Laurent coefficient per torus orbit.

The weighted sum over lattice points of ell*P keeps each point as a
formal character chi^m, and every point in the relative interior of one
face carries that face's coefficient.  Dualizing the weights matches
inverting y and negating the characters at -ell, and at ell = 0 the
h-polynomial of the face lattice appears.
"""

from wehrhart import (
    all_ones,
    build,
    dualize,
    g_weight_function,
    h_polynomial,
    hodge_character_sum,
    substitute_inverse,
    substitute_negative,
    verify_hodge_duality,
)

seg = build("segment")
ones = all_ones(seg)
for ell in (1, 0, -1):
    s = hodge_character_sum(ones, ell)
    terms = ", ".join(f"chi^{list(m)} * ({p})" for m, p in s.terms())
    print(f"segment, ell={ell}: {terms}")

print()
lhs = hodge_character_sum(dualize(ones), 1).terms()
rhs = sorted(
    (tuple(-x for x in m), substitute_inverse(p))
    for m, p in hodge_character_sum(ones, -1).terms()
)
print("duality formula at ell=1:", lhs == rhs)
for name in ("square", "pyramid", "random3"):
    lattice = build(name)
    ok = all(
        verify_hodge_duality(all_ones(lattice), ell).passed
        for ell in (1, 2, 3)
    )
    print(f"  {name}: ell=1..3 {'ok' if ok else 'FAIL'}")

print()
print("h-polynomial from the zero-dilation character sum, y -> -t:")
for name in ("square", "cube", "pyramid"):
    lattice = build(name)
    g = g_weight_function(lattice, lattice.top_id)
    ((origin, value),) = hodge_character_sum(g, 0).terms()
    h = h_polynomial(lattice)
    if substitute_negative(value) != h:  # not an assert: python -O keeps it
        raise SystemExit("the zero-dilation sum must give h")
    print(f"  {name}: chi^{list(origin)} * ({value}) gives h = {h:t}")
