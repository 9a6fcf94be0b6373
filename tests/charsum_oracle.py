"""Character sums one lattice point at a time, the oracle for the per-face rule.

The library gives each face one coefficient and spreads it over the points
of that face's relative interior; for ell < 0 the coefficient already sums
the faces above.  This helper follows the defining sum instead: every face
Q hands its term to every point of |ell| Q (closed, read off the subfaces
of Q) or of Relint(ell Q), and the terms of a point are added up there.
Character-sum duality is then compared point by point.
"""

from wehrhart.algebra import CharacterSum, one_plus_y_power, poly_sum, substitute_inverse
from wehrhart.ehrhart import CheckResult
from wehrhart.polytope import points_by_face


def pointwise_character_sum(lattice, f, ell):
    """ell > 0:  sum_Q f_Q(y) (1+y)^dim Q  sum over Relint(ell Q) of chi^(-m)
    ell < 0:  sum_Q f_Q(y) (-1-y)^dim Q sum over |ell| Q closed of chi^(+m)
    ell = 0:  (sum_Q f_Q(y) (-1-y)^dim Q) * chi^0
    """
    n = lattice.polytope.n
    if ell == 0:
        total = poly_sum(
            fq * one_plus_y_power(lattice.faces[q].dim, negate=True)
            for q, fq in f.values.items()
        )
        return CharacterSum(n, {(0,) * n: total})
    terms = {}
    if ell > 0:
        relint = points_by_face(lattice, ell)
        for q, fq in f.values.items():
            coeff = fq * one_plus_y_power(lattice.faces[q].dim)
            for m in relint[q]:
                terms.setdefault(tuple(-x for x in m), []).append(coeff)
    else:
        relint = points_by_face(lattice, -ell)
        for q, fq in f.values.items():
            coeff = fq * one_plus_y_power(lattice.faces[q].dim, negate=True)
            for e in lattice.subfaces(q):
                for m in relint[e]:
                    terms.setdefault(m, []).append(coeff)
    return CharacterSum(n, {m: poly_sum(ps) for m, ps in terms.items()})


def pointwise_hodge_duality(lattice, f, ell, dual):
    """verify_hodge_duality on per-point sums: D(f) at ell vs f at -ell, y -> 1/y, m -> -m."""
    lhs = pointwise_character_sum(lattice, dual, ell)
    minus = pointwise_character_sum(lattice, f, -ell)
    rhs = CharacterSum(lattice.polytope.n, {
        tuple(-x for x in m): substitute_inverse(p) for m, p in minus.terms.items()
    })
    return CheckResult("hodge_duality", {"ell": ell}, lhs == rhs, lhs, rhs)
