"""Poset polynomials on the face lattice.

The f/g recursion on Eulerian posets, g-polynomials of polar faces read
off reversed intervals [Q, Q'], the induced weight functions (t -> -y),
and the h-polynomial of the fully reversed lattice.  Polynomials in t are
LaurentPoly values with nonnegative exponents, rendered with f"{p:t}".
"""

from __future__ import annotations

from .algebra import L_ONE, L_ZERO, LaurentPoly, substitute_negative
from .polytope import FaceLattice
from .weights import WeightFunction


class NonEulerianPoset(ValueError):
    pass


class ReversedInterval:
    """The interval [Q, Q'] of a face lattice with the order reversed.

    Minimum is Q', maximum is Q, and rank(E) = dim(Q') - dim(E).  This is
    the face poset of the polar face of Q inside the polar of Q', whose
    dimension is dim(Q') - 1 - dim(Q).  Q may be the empty face; that case
    only arises for the h-polynomial and inside the recursion.
    """

    def __init__(self, lattice: FaceLattice, q_id: int, qp_id: int):
        if not lattice.leq(q_id, qp_id):
            raise ValueError("lower face is not contained in upper face")
        if not lattice.ensure_eulerian():
            raise NonEulerianPoset("face lattice is not Eulerian")
        self.lattice = lattice
        self.q_id = q_id
        self.qp_id = qp_id
        self.elements = lattice.interval(q_id, qp_id)
        self._qp_dim = lattice.faces[qp_id].dim

    def leq(self, a: int, b: int) -> bool:
        return self.lattice.leq(b, a)

    def rank(self, e: int) -> int:
        return self._qp_dim - self.lattice.faces[e].dim

    @property
    def top_rank(self) -> int:
        return self.rank(self.q_id)

    def __len__(self):
        return len(self.elements)


def _g_cached(lattice: FaceLattice, q_id: int, qp_id: int) -> LaurentPoly:
    key = (q_id, qp_id)
    if key not in lattice._g_memo:
        lattice._g_memo[key] = stanley_fg(ReversedInterval(lattice, q_id, qp_id))[1]
    return lattice._g_memo[key]


def stanley_fg(poset: ReversedInterval):
    """The f and g polynomials of an Eulerian poset.

    A single element gives f = g = 1.  Otherwise, with r + 1 the rank of
    the maximum, f(t) = sum over x strictly below the maximum of
    g([min, x]) * (t-1)**(r - rank(x)), and g truncates the difference
    sequence of f's coefficients at degree floor(r/2).
    """
    if len(poset) == 1:
        return L_ONE, L_ONE
    r = poset.top_rank - 1
    # sum the g([min, x]) of each rank, so (t-1)^k is raised once per rank
    by_power = {}
    for x in poset.elements:
        if x == poset.q_id:
            continue
        # [min, x] in the reversed order is the reversed interval [x, Q']
        gx = _g_cached(poset.lattice, x, poset.qp_id)
        k = r - poset.rank(x)
        by_power[k] = by_power.get(k, L_ZERO) + gx
    t_minus_1 = LaurentPoly({0: -1, 1: 1})
    f = sum((gk * t_minus_1**k for k, gk in by_power.items()), L_ZERO)
    g_terms = {}
    prev = 0
    for i in range(r // 2 + 1):
        ki = f.coeff(i)
        g_terms[i] = ki - prev
        prev = ki
    return f, LaurentPoly(g_terms)


def polar_g(lattice: FaceLattice, q_id: int, qp_id: int) -> LaurentPoly:
    """g of the reversed interval [Q, Q'], i.e. of the polar face of Q.

    Both faces must be nonempty and nested; results are memoized on the
    lattice, keyed by the pair of face ids.
    """
    if lattice.faces[q_id].dim < 0 or lattice.faces[qp_id].dim < 0:
        raise ValueError("polar g is defined for nonempty faces")
    if not lattice.leq(q_id, qp_id):
        raise ValueError("faces are not nested")
    return _g_cached(lattice, q_id, qp_id)


def g_weight_function(lattice: FaceLattice, qp_id: int) -> WeightFunction:
    """Weights g(reversed [Q, Q']) at t = -y on faces Q below Q', else 0."""
    if lattice.faces[qp_id].dim < 0:
        raise ValueError("weights are indexed by nonempty faces")
    values = {}
    for q in lattice.subfaces(qp_id):
        values[q] = substitute_negative(polar_g(lattice, q, qp_id))
    return WeightFunction(lattice, values)


def h_polynomial(lattice: FaceLattice) -> LaurentPoly:
    """f-polynomial of the fully reversed lattice [empty, P].

    This is the h-polynomial of the polar polytope's boundary; it must
    agree with the ell = 0 weighted count at y = -t computed downstream.
    """
    f, _ = stanley_fg(ReversedInterval(lattice, lattice.empty_id, lattice.top_id))
    return f
