"""The duality involution term by term, the oracle for dualize.

The library takes each D(f)_Q by Horner's rule in (1+y) over dim E;
this helper multiplies every comparable pair Q <= E on its own, straight
from the defining sum.
"""

from wehrhart.algebra import ONE_PLUS_Y, LaurentPoly, neg_y_power, substitute_inverse
from wehrhart.weights import WeightFunction


def pairwise_dualize(f):
    """D(f)_Q = sum over E >= Q of (1+y)^(dim E - dim Q) (-y)^(-dim E) f_E(1/y)."""
    L = f.lattice
    out = {}
    for q in L.nonempty_ids:
        dim_q = L.faces[q].dim
        acc = LaurentPoly()
        for e, fe in f.values.items():
            if not L.leq(q, e):
                continue
            dim_e = L.faces[e].dim
            term = substitute_inverse(fe) * ONE_PLUS_Y ** (dim_e - dim_q)
            acc = acc + term * neg_y_power(-dim_e)
        if acc:
            out[q] = acc
    return WeightFunction(L, out)
