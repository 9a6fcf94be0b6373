"""The g-weights as the Kazhdan-Lusztig-Stanley basis of the duality
involution, the oracle for stanley.g_weight_function.

It shares no code with stanley.  Fix a nonempty face Q' of dimension d'.
The g-weights of Q' are the unique weight function w with
  - support on the faces Q <= Q', and w_Q' = 1;
  - w_Q a polynomial in y of degree < (d' - dim Q) / 2 for Q < Q';
  - D(w) = (-y)^(-d') w, D the duality involution's defining sum
    D(f)_Q = sum over E >= Q of (1+y)^(dim E - dim Q) (-y)^(-dim E) f_E(1/y).
They are solved for from the top down.  With r = d' - dim Q and R the part
of D(w)_Q from the faces strictly above Q, the relation at Q reads
w_Q(y) - (-y)^r w_Q(1/y) = (-y)^d' R.  The two terms on the left live in
degrees < r/2 and > r/2, so w_Q is the part of the right side below r/2
(Stanley, "Subdivisions and local h-vectors", 1992; Brenti, "P-kernels,
IC bases and Kazhdan-Lusztig polynomials", 2003).
"""

from wehrhart.algebra import L_ONE, LaurentPoly, neg_y_power, one_plus_y_power, poly_sum, substitute_inverse
from wehrhart.weights import WeightFunction


def kls_weights(lattice, qp):
    """The unique w above for the face qp; raises AssertionError where the
    relation at a face has no solution of the required degrees."""
    faces = lattice.faces
    top = faces[qp].dim
    below = [q for q in lattice.nonempty_ids if lattice.leq(q, qp)]
    w = {}
    for q in sorted(below, key=lambda q: -faces[q].dim):
        r = top - faces[q].dim
        if r == 0:
            w[q] = L_ONE
            continue
        above = poly_sum(
            one_plus_y_power(faces[e].dim - faces[q].dim) * neg_y_power(-faces[e].dim) * substitute_inverse(we)
            for e, we in w.items()
            if lattice.leq(q, e)
        )
        right = neg_y_power(top) * above
        low = LaurentPoly({k: c for k, c in right.terms.items() if 2 * k < r})
        if min(low.terms, default=0) < 0 or right - low != -(neg_y_power(r) * substitute_inverse(low)):
            raise AssertionError(f"no g-weight of degree < {r}/2 at face {q} below {qp}")
        w[q] = low
    return WeightFunction(lattice, w)
