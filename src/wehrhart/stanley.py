"""Poset polynomials on the face lattice.

The f/g recursion on reversed intervals [Q, Q'] of the face lattice, read
off its bitmask order; g-polynomials of polar faces, the induced weight
functions (t -> -y), and the h-polynomial of the fully reversed lattice.
Polynomials in t are LaurentPoly values with nonnegative exponents,
rendered with f"{p:t}".
"""

from __future__ import annotations

from .algebra import L_ONE, LaurentPoly, grouped_sum, one_plus_y_power, substitute_negative
from .polytope import FaceLattice
from .weights import WeightFunction


class NonEulerianPoset(ValueError):
    pass


def _check_interval(lattice: FaceLattice, q_id: int, qp_id: int):
    if not lattice.leq(q_id, qp_id):
        raise ValueError("faces are not nested")
    if not lattice.ensure_eulerian():
        raise NonEulerianPoset("face lattice is not Eulerian")


def _t_minus_1_power(k: int) -> LaurentPoly:
    """(t-1)**k, from the memoized binomial row of (-1-y)**k."""
    return substitute_negative(one_plus_y_power(k, negate=True))


def _g_cached(lattice: FaceLattice, q_id: int, qp_id: int) -> LaurentPoly:
    key = (q_id, qp_id)
    if key not in lattice._g_memo:
        lattice._g_memo[key] = stanley_fg(lattice, q_id, qp_id)[1]
    return lattice._g_memo[key]


def stanley_fg(lattice: FaceLattice, q_id: int, qp_id: int):
    """The f and g polynomials of the reversed interval [Q, Q'].

    With the order reversed, Q' is the minimum and Q the maximum: this is
    the face poset of the polar face of Q inside the polar of Q', of rank
    r + 1 = dim Q' - dim Q.  Q may be the empty face; that case only
    arises for the h-polynomial and inside the recursion.  Q = Q' gives
    f = g = 1.  Otherwise f(t) is the sum, over the faces x != Q of the
    interval, of g([x, Q']) * (t-1)**(dim x - dim Q - 1), and g truncates
    the difference sequence of f's coefficients at degree floor(r/2).
    """
    _check_interval(lattice, q_id, qp_id)
    if q_id == qp_id:
        return L_ONE, L_ONE
    dim_q = lattice.faces[q_id].dim
    f = grouped_sum(
        (
            (lattice.faces[x].dim - dim_q - 1, _g_cached(lattice, x, qp_id))
            for x in lattice.interval(q_id, qp_id)
            if x != q_id
        ),
        _t_minus_1_power,
    )
    r = lattice.faces[qp_id].dim - dim_q - 1
    return f, LaurentPoly._make({i: f.coeff(i) - f.coeff(i - 1) for i in range(r // 2 + 1)})


def polar_g(lattice: FaceLattice, q_id: int, qp_id: int) -> LaurentPoly:
    """g of the reversed interval [Q, Q'], i.e. of the polar face of Q.

    Both faces must be nonempty and nested; results are memoized on the
    lattice, keyed by the pair of face ids.
    """
    if lattice.faces[q_id].dim < 0 or lattice.faces[qp_id].dim < 0:
        raise ValueError("polar g is defined for nonempty faces")
    _check_interval(lattice, q_id, qp_id)
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
    return stanley_fg(lattice, lattice.empty_id, lattice.top_id)[0]
