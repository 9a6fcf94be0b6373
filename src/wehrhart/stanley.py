"""Poset polynomials on the face lattice.

Stanley's f/g polynomials of reversed intervals [Q, Q'] of the face
lattice, g-polynomials of polar faces, the induced weight functions
(t -> -y), and the h-polynomial of the fully reversed lattice.  One
sweep down the faces below Q', one dimension of FaceLattice.by_dim at a
time, gives f of every [Q, Q'] as a tuple of int coefficients in t,
constant term first.  Each public call runs its own sweep and keeps none:
every command reads each Q' once.  They return LaurentPoly values with
nonnegative exponents, rendered with f"{p:t}".
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .algebra import L_ONE, LaurentPoly
from .polytope import FaceLattice, check_face, check_nonempty_face, mask_ids
from .weights import WeightFunction


class NonEulerianPoset(ValueError):
    pass


class NegativeGCoefficient(ArithmeticError):
    """A g row with a negative coefficient, which the g-theorem rules out
    (Stanley 1987; Karu 2004): broken arithmetic, not bad input."""


def _check_interval(lattice: FaceLattice, q_id: int, qp_id: int):
    if not lattice.leq(q_id, qp_id):
        raise ValueError("faces are not nested")
    if not lattice.ensure_eulerian():
        raise NonEulerianPoset("face lattice is not Eulerian")


@lru_cache(maxsize=32)
def _t_minus_1_row(k: int):
    """Coefficients of (t-1)**k, constant term first; k = dim x - dim Q - 1 <= n < 32."""
    return tuple(comb(k, i) * (-1) ** (k - i) for i in range(k + 1))


def _g_row(f):
    """g from f: the difference sequence of f's coefficients up to degree floor(deg f / 2)."""
    return tuple(f[i] - f[i - 1] if i else f[0] for i in range((len(f) - 1) // 2 + 1))


def _f_rows(lattice: FaceLattice, qp_id: int):
    """(f, g) of [Q, Q'] as int tuples, f of length dim Q' - dim Q (1 for Q = Q')
    and g its _g_row, for every face Q below Q', the empty face included,
    from one sweep per call.  Faces with equal f rows share one pair.

    The faces below Q' are taken top down by dimension, layer d being
    down[Q'] & by_dim[d + 1].  Once a dimension d is done, masks[i, v]
    holds its faces whose g has coefficient v at t**i, so its faces above
    a lower Q add v * popcount(up[Q] & mask) * t**i * (t-1)**(d - dim Q - 1)
    to f([Q, Q']).  Each g row is scanned for a negative coefficient as it is
    built, which raises NegativeGCoefficient naming the interval.
    """
    up, by_dim, below = lattice.up, lattice.by_dim, lattice.down[qp_id]
    top = lattice.faces[qp_id].dim
    rows = {qp_id: ((1,), (1,))}
    pairs = {}  # f -> (f, g): the faces of one f row share one pair, and its g is built once
    done = [(top, [(0, 1, 1 << qp_id)])]  # (d, [(i, v, mask)]) per finished dimension
    for d in range(top - 1, -2, -1):
        masks = {}
        for q in mask_ids(below & by_dim[d + 1]):
            f = [0] * (top - d)
            for dx, dim_masks in done:
                kernel = _t_minus_1_row(dx - d - 1)
                for i, v, m in dim_masks:
                    c = (up[q] & m).bit_count() * v
                    if c:
                        for j, b in enumerate(kernel, i):
                            f[j] += c * b
            f = tuple(f)
            if f not in pairs:
                pairs[f] = f, _g_row(f)
            rows[q] = f, g = pairs[f]
            for i, v in enumerate(g):
                if v < 0:
                    raise NegativeGCoefficient(f"g([{q}, {qp_id}]) has coefficient {v} at t^{i}")
                if v:
                    masks[i, v] = masks.get((i, v), 0) | 1 << q
        done.append((d, [(i, v, m) for (i, v), m in masks.items()]))
    return rows


def _t_poly(row) -> LaurentPoly:
    return LaurentPoly._make(dict(enumerate(row)))


def stanley_fg(lattice: FaceLattice, q_id: int, qp_id: int):
    """The f and g polynomials of the reversed interval [Q, Q'].

    With the order reversed, Q' is the minimum and Q the maximum: this is
    the face poset of the polar face of Q inside the polar of Q', of rank
    r + 1 = dim Q' - dim Q.  Q may be the empty face; that case only
    arises for the h-polynomial.  Q = Q' gives f = g = 1.  Otherwise f(t)
    is the sum, over the faces x != Q of the interval, of
    g([x, Q']) * (t-1)**(dim x - dim Q - 1), and g truncates the
    difference sequence of f's coefficients at degree floor(r/2).

    Each call runs one sweep over every face below Q' and keeps none of
    its rows, so reading many intervals under one Q' costs one sweep each.
    """
    q_id, qp_id = check_face(lattice, q_id), check_face(lattice, qp_id)
    _check_interval(lattice, q_id, qp_id)
    f, g = _f_rows(lattice, qp_id)[q_id]
    return _t_poly(f), _t_poly(g)


def polar_g(lattice: FaceLattice, q_id: int, qp_id: int) -> LaurentPoly:
    """g of the reversed interval [Q, Q'], i.e. of the polar face of Q.

    Both faces must be nonempty and nested.  Like stanley_fg, each call
    runs one sweep over every face below Q' and keeps none of its rows.
    """
    q_id, qp_id = check_nonempty_face(lattice, q_id), check_nonempty_face(lattice, qp_id)
    _check_interval(lattice, q_id, qp_id)
    return _t_poly(_f_rows(lattice, qp_id)[q_id][1])


def g_weight_function(lattice: FaceLattice, qp_id: int) -> WeightFunction:
    """Weights g(reversed [Q, Q']) at t = -y on faces Q below Q', else 0; each has constant
    term 1 (the interval is Eulerian) and subfaces ascends, as WeightFunction._make needs.
    Most rows are the constant 1, held as the one shared L_ONE."""
    qp_id = check_nonempty_face(lattice, qp_id)
    _check_interval(lattice, qp_id, qp_id)
    rows = _f_rows(lattice, qp_id)
    values = {}
    for q in lattice.subfaces(qp_id):
        g = rows[q][1]
        if g == (1,):
            values[q] = L_ONE
        else:
            values[q] = LaurentPoly._make({i: -c if i % 2 else c for i, c in enumerate(g)})
    return WeightFunction._make(lattice, values)


def h_polynomial(lattice: FaceLattice) -> LaurentPoly:
    """f-polynomial of the fully reversed lattice [empty, P].

    This is the h-polynomial of the polar polytope's boundary; it must
    agree with the ell = 0 weighted count at y = -t computed downstream.
    """
    _check_interval(lattice, lattice.empty_id, lattice.top_id)
    return _t_poly(_f_rows(lattice, lattice.top_id)[lattice.empty_id][0])
