"""The weighted polynomial one weight at a time, the oracle for the per-face interpolants.

The library interpolates the phi-sum of every face once per integrand, in
int, and combines those per-face polynomials for each weight.  This helper
follows the per-weight route instead: it samples the weighted count at
dilations 1 .. n + deg phi + 1, interpolates the Laurent values by
Lagrange, then checks two extra dilations and the closed-form constant
term (the ell = 0 character sum pushed through phi).
"""

from charsum_oracle import constant_term
from wehrhart.algebra import lagrange_interpolate
from wehrhart.ehrhart import PolynomialityError, weighted_ehrhart_value


def per_weight_polynomial(lattice, f, phi, variant):
    bound = lattice.polytope.n + phi.degree
    samples = [
        (ell, weighted_ehrhart_value(lattice, f, phi, ell, variant))
        for ell in range(1, bound + 2)
    ]
    zp = lagrange_interpolate(samples, bound)
    for ell in (bound + 2, bound + 3):
        direct = weighted_ehrhart_value(lattice, f, phi, ell, variant)
        if zp(ell) != direct:
            raise PolynomialityError(
                f"overdetermination failed at dilation {ell}: "
                f"interpolated {zp(ell)}, direct {direct}"
            )
    expected0 = constant_term(lattice, f, phi, variant)
    if zp(0) != expected0:
        raise PolynomialityError(
            f"constant term mismatch: interpolated {zp(0)}, closed form {expected0}"
        )
    return zp
