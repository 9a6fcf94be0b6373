"""The weighted polynomial by slower routes, the oracles for the per-face interpolants.

The library interpolates the phi-sum of every face once per integrand, in
int, from the walk at ell = 1 .. K and per-face reciprocity at -K .. -1,
and combines those per-face polynomials for each weight.

per_weight_polynomial follows the per-weight route instead: it samples the
weighted count at dilations 1 .. n + deg phi + 1, interpolates the Laurent
values by Lagrange, then checks two extra dilations and the closed-form
constant term (the ell = 0 character sum pushed through phi).

per_face_polynomials takes each face's phi-sums at dilations
1 .. n + deg phi + 3 from a brute-force enumerator, interpolates them by
Lagrange in Fraction and checks every sample past the fit; it uses no
reciprocity, so comparing the two tests the library's reciprocity samples.
face_identity_failures states the facts the library checks each face's
interpolant against, read off vertex sets and phi_eval alone.

forward_differences and lagrange_fit are the two routes the library's
fit matrix folds into one: the samples differenced list by list, and
Lagrange through the first deg + 1 of them.  per_face_weighted_polynomial
combines the interpolants face by face, one orbit coefficient each,
where the library sums them per (weight value, dimension) first.
"""

from fractions import Fraction

import wehrhart.ehrhart as eh
from charsum_oracle import constant_term
from wehrhart.algebra import ZPoly, lagrange_interpolate, linear_combination, phi_eval
from wehrhart.ehrhart import PolynomialityError, weighted_ehrhart_value


def per_weight_polynomial(lattice, f, phi, variant):
    bound = lattice.polytope.n + phi.degree
    samples = [
        (ell, weighted_ehrhart_value(f, phi, ell, variant))
        for ell in range(1, bound + 2)
    ]
    zp = lagrange_interpolate(samples, bound)
    for ell in (bound + 2, bound + 3):
        direct = weighted_ehrhart_value(f, phi, ell, variant)
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


def _interpolate(values):
    """Coefficients c_0 .. c_d of the polynomial through (1, values[0]) .. (d+1, values[d])."""
    nodes = range(1, len(values) + 1)
    coeffs = [Fraction(0)] * len(values)
    for xi, v in zip(nodes, values):
        basis, denom = [1], 1
        for xj in nodes:
            if xj != xi:
                # times (z - xj)
                basis = [a - xj * b for a, b in zip([0] + basis, basis + [0])]
                denom *= xi - xj
        for k, b in enumerate(basis):
            coeffs[k] += Fraction(v * b, denom)
    return coeffs


def per_face_polynomials(lattice, phi, face_sums):
    """{Q: [c_0, .., c_deg]}, S_Q(z) = sum_k c_k z^k with deg = dim Q + deg phi.

    face_sums(lattice, phi, ell) gives S_Q(ell) for every nonempty Q; it is
    read at ell = 1 .. n + deg phi + 3, each face's first deg + 1 samples
    fix its polynomial and every later one must agree with it.
    """
    last = lattice.polytope.n + phi.degree + 3
    samples = [face_sums(lattice, phi, ell) for ell in range(1, last + 1)]
    out = {}
    for q in lattice.nonempty_ids:
        deg = lattice.faces[q].dim + phi.degree
        coeffs = _interpolate([s[q] for s in samples[: deg + 1]])
        for ell in range(deg + 2, last + 1):
            value = sum(c * ell**k for k, c in enumerate(coeffs))
            if value != samples[ell - 1][q]:
                raise PolynomialityError(
                    f"face {q}: interpolated {value} at dilation {ell}, "
                    f"sampled {samples[ell - 1][q]}"
                )
        out[q] = coeffs
    return out


def face_identity_failures(lattice, phi, polys):
    """The faces whose polynomial in polys breaks its face identity.

    A vertex v: S_v(z) = phi(v) z^deg phi.  A face Q of dim >= 1, with
    deg = dim Q + deg phi and G over the faces of dimension dim Q - 1 whose
    vertex sets lie in Q's (Euler-Maclaurin boundary term in Q's own
    lattice): 2 [z^(deg-1)] S_Q = -sum_G [z^(deg-1)] S_G.
    """
    faces = [(q, f) for q, f in enumerate(lattice.faces) if f.dim >= 0]
    failures = []
    for q, face in faces:
        c = polys[q]
        if face.dim == 0:
            v = lattice.polytope.vertices[face.vertex_mask.bit_length() - 1]
            expected = [0] * phi.degree + [phi_eval(phi, v)]
            ok = c == expected
        else:
            k = face.dim + phi.degree - 1
            ridges = [
                g
                for g, ridge in faces
                if ridge.dim == face.dim - 1 and ridge.vertex_mask & ~face.vertex_mask == 0
            ]
            ok = 2 * c[k] == -sum(polys[g][k] for g in ridges)
        if not ok:
            failures.append(q)
    return failures


def forward_differences(samples):
    """Delta^j s_0 for j = 0 .. len(samples) - 1, each list differenced in turn."""
    lead = []
    while samples:
        lead.append(samples[0])
        samples = [b - a for a, b in zip(samples, samples[1:])]
    return lead


def lagrange_fit(samples, first, deg):
    """[a_0, .., a_deg] of the polynomial through (first + i, samples[i]), i = 0 .. deg."""
    zp = lagrange_interpolate(enumerate(samples[: deg + 1], first), deg)
    return [c.coeff(0) for c in zp.coeffs] + [0] * (deg + 1 - len(zp.coeffs))


def per_face_weighted_polynomial(lattice, f, phi, variant):
    """One linear combination per z-coefficient over every face of the
    weight's support, with its orbit coefficient f_Q(y) (1+y)^dim Q,
    times the variant's factor over D."""
    factor = eh._variant_factor(phi, variant)
    denom, table = eh._face_polynomials(lattice, phi)
    plus = eh._orbit_coefficients(f, eh._PLUS)
    return ZPoly(
        linear_combination((c, table[q][k]) for q, c in plus.items() if k < len(table[q]))
        * (factor * Fraction(1, denom))
        for k in range(lattice.polytope.n + phi.degree + 1)
    )
