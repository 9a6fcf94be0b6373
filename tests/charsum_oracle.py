"""Character sums one lattice point at a time, the oracle for the per-face rule.

The library gives each face one coefficient and spreads it over the points
of that face's relative interior; for ell < 0 the coefficient already sums
the faces above.  This helper follows the defining sum instead: every face
Q hands its term to every point of |ell| Q (closed, read off the subfaces
of Q) or of Relint(ell Q), and the terms of a point are added up there.
A point-keyed sum is a plain dict {m: LaurentPoly}, sorted by m, with no
zero values.  Character-sum duality is then compared point by point, and
a failure is located at the first face, in id order, that holds a
differing point.  The sum pushed through an integrand (apply_phi) gives
the closed form of the weighted count at dilation 0 (constant_term).
"""

from wehrhart.algebra import L_ZERO, one_plus_y_power, phi_eval, poly_sum, substitute_inverse
from wehrhart.ehrhart import VARIANT_E, CheckResult, _check_variant
from wehrhart.polytope import points_by_face


def _point_keyed(terms):
    """{m: sum of the polynomials listed at m}, sorted by m, zeros dropped."""
    sums = ((m, poly_sum(ps)) for m, ps in sorted(terms.items()))
    return {m: p for m, p in sums if p}


def pointwise_character_sum(lattice, f, ell):
    """ell > 0:  sum_Q f_Q(y) (1+y)^dim Q  sum over Relint(ell Q) of chi^(-m)
    ell < 0:  sum_Q f_Q(y) (-1-y)^dim Q sum over |ell| Q closed of chi^(+m)
    ell = 0:  (sum_Q f_Q(y) (-1-y)^dim Q) * chi^0
    """
    n = lattice.polytope.n
    terms = {}
    if ell == 0:
        terms[(0,) * n] = [
            fq * one_plus_y_power(lattice.faces[q].dim, negate=True) for q, fq in f.values.items()
        ]
    elif ell > 0:
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
    return _point_keyed(terms)


def negate_characters(s):
    """The involution m -> -m on the keys of a point-keyed sum."""
    return _point_keyed({tuple(-x for x in m): [p] for m, p in s.items()})


def apply_phi(s, phi, variant):
    """Push a point-keyed sum to a Laurent polynomial through the integrand.

    Etilde sends chi^m to phi(-m); E sends chi^m to phi(-(1+y)m), which by
    homogeneity is (1+y)^deg phi * phi(-m).
    """
    _check_variant(variant)
    acc = poly_sum(p * phi_eval(phi, tuple(-x for x in m)) for m, p in s.items())
    return acc * one_plus_y_power(phi.degree) if variant == VARIANT_E else acc


def constant_term(lattice, f, phi, variant):
    """Closed form for the value at dilation 0: phi pushed through the ell = 0 sum.

    sum_Q f_Q(y) (-1-y)^dim Q * phi(0), times (1+y)^deg phi for E.
    Nonzero only for deg phi = 0, where the two variants agree.
    """
    return apply_phi(pointwise_character_sum(lattice, f, 0), phi, variant)


def render_terms(s):
    """A point-keyed sum as the verify report renders a character sum."""
    inner = "; ".join(f"chi^{list(m)}: {p}" for m, p in s.items())
    return f"{{{inner}}}"


def pointwise_hodge_duality(lattice, f, ell, dual):
    """verify_hodge_duality on per-point sums: D(f) at ell vs f at -ell, y -> 1/y, m -> -m.

    The sides of the returned CheckResult are the rendered sums.
    """
    lhs = pointwise_character_sum(lattice, dual, ell)
    rhs = negate_characters(
        {m: substitute_inverse(p) for m, p in pointwise_character_sum(lattice, f, -ell).items()}
    )
    sides = render_terms(lhs), render_terms(rhs)
    if lhs == rhs:
        return CheckResult("hodge_duality", {"ell": ell}, True, *sides)
    relint = points_by_face(lattice, ell)
    a, b, face = next(
        (lhs.get(key, L_ZERO), rhs.get(key, L_ZERO), e)
        for e in sorted(relint)
        for key in (tuple(-x for x in m) for m in relint[e])
        if lhs.get(key, L_ZERO) != rhs.get(key, L_ZERO)
    )
    k = min(k for k in a.terms.keys() | b.terms.keys() if a.coeff(k) != b.coeff(k))
    difference = {"face": face, "exponent": k, "lhs": a.coeff(k), "rhs": b.coeff(k)}
    return CheckResult("hodge_duality", {"ell": ell}, False, *sides, difference)
