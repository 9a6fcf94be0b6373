"""Lattice equivalence: every result is invariant under P -> U P + t.

U in GL_n(Z) and t in Z^n change every coordinate the fibre walk sees
(its rows, envelopes, facet order and projection facets) and nothing the
theory sees, so this checks the walk and the hull at any scale with no
oracle:
- the face lattices of P and U P + t are isomorphic, matched by vertex
  sets;
- E_f(ell) of (P, phi) equals E_f'(ell) of (U P, phi o U^-1), f' the
  weight f carried over by vertex sets, for both variants;
- a character sum's stored character x (-m at ell > 0, m at ell < 0, for
  m in Relint(|ell| E)) maps to U x - ell t: U for the linear part, and
  the translation moves |ell| P by |ell| t;
- at deg phi = 0 the polynomials do not see t, so E of the g-weights,
  which are carried over by vertex sets too, stays the same.
phi is homogeneous about the origin, so at deg phi > 0 only U is applied.
U is the product of 6 elementary row operations (adds with multiplier
+-1 or +-2, swaps and negations) drawn by hypothesis, and t is drawn
from [-3, 3]^n.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from box_oracle import cross, cube
from test_ehrhart import mixed_phi
from wehrhart.algebra import HomogPoly
from wehrhart.corpus import CORPUS, build
from wehrhart.ehrhart import VARIANT_E, VARIANT_ETILDE, ehrhart_polynomial, hodge_character_sum
from wehrhart.polytope import build_face_lattice, facet_presentation, mask_ids
from wehrhart.stanley import g_weight_function
from wehrhart.weights import WeightFunction, all_ones, random_weight_functions

SHAPES = {**CORPUS, "cube4": cube(4), "cross4": cross(4)}


@lru_cache(maxsize=None)
def lattice(name):
    return build(name) if name in CORPUS else build_face_lattice(facet_presentation(SHAPES[name]))


def apply(ops, rows):
    """The rows of M after the elementary row operations ops, in order, act on M."""
    rows = [list(row) for row in rows]
    for op in ops:
        if op[0] == "swap":
            _, i, j = op
            rows[i], rows[j] = rows[j], rows[i]
        elif op[0] == "neg":
            rows[op[1]] = [-x for x in rows[op[1]]]
        else:
            _, i, j, k = op
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    return rows


def inverse_ops(ops):
    """The operations that undo ops, in the order that undoes them."""
    return [op if op[0] != "add" else (*op[:3], -op[3]) for op in reversed(ops)]


def elementary_ops(n):
    """6 elementary row operations on Z^n: adds with multiplier +-1 or +-2
    and swaps of two distinct rows, and negations of one row."""
    neg = st.tuples(st.just("neg"), st.integers(0, n - 1))
    if n == 1:
        return st.lists(neg, min_size=6, max_size=6)
    pair = st.permutations(range(n)).map(lambda p: tuple(p[:2]))
    add = st.tuples(pair, st.sampled_from((-2, -1, 1, 2))).map(lambda a: ("add", *a[0], a[1]))
    swap = pair.map(lambda p: ("swap", *p))
    return st.lists(st.one_of(add, swap, neg), min_size=6, max_size=6)


def matvec(U, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in U)


def pulled_back(phi, Uinv):
    """phi o U^-1 as a HomogPoly: each x_i replaced by row i of U^-1 and expanded."""
    out = []
    for exps, c in phi.monomials:
        terms = {(0,) * phi.n: c}
        for i, e in enumerate(exps):
            for _ in range(e):
                step = {}
                for m, a in terms.items():
                    for j, b in enumerate(Uinv[i]):
                        key = m[:j] + (m[j] + 1,) + m[j + 1 :]
                        step[key] = step.get(key, 0) + a * b
                terms = step
        out += terms.items()
    return HomogPoly(phi.n, out)


def image(lat, U, t):
    """The lattice of U P + t, and its face id of each face id of P, matched by vertex sets."""
    P = lat.polytope
    moved = [tuple(x + s for x, s in zip(matvec(U, v), t)) for v in P.vertices]
    image_lat = build_face_lattice(facet_presentation(moved))
    index = {v: i for i, v in enumerate(image_lat.polytope.vertices)}
    vertex = [index[v] for v in moved]
    by_ids = {f.vertex_ids: q for q, f in enumerate(image_lat.faces)}
    perm = [by_ids[tuple(sorted(vertex[i] for i in f.vertex_ids))] for f in lat.faces]
    return image_lat, perm


def carried(f, image_lat, perm):
    return WeightFunction(image_lat, {perm[q]: p for q, p in f.values.items()})


def order_pairs(lat, perm):
    """The pairs a <= b of lat's face order, each id renamed by perm."""
    return {(perm[a], perm[b]) for a, up in enumerate(lat.up) for b in mask_ids(up)}


def moved_terms(s, U, t):
    """The terms of the character sum s of P, each character x moved to U x - ell t."""
    return {tuple(x - s.ell * c for x, c in zip(matvec(U, m), t)): coeff for m, coeff in s.terms()}


@pytest.mark.parametrize("name", list(SHAPES))
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_results_invariant_under_lattice_equivalence(name, data):
    lat = lattice(name)
    n = lat.polytope.n
    ops = data.draw(elementary_ops(n), label="ops")
    t = data.draw(st.tuples(*[st.integers(-3, 3)] * n), label="t")
    seed = data.draw(st.integers(0, 2**16), label="weight seed")
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    U, Uinv = apply(ops, identity), apply(inverse_ops(ops), identity)
    assert [matvec(U, col) for col in zip(*Uinv)] == [tuple(row) for row in identity]

    linear, perm = image(lat, U, (0,) * n)
    assert [linear.faces[perm[q]].dim for q in range(len(lat.faces))] == [f.dim for f in lat.faces]
    assert order_pairs(lat, perm) == order_pairs(linear, range(len(linear.faces)))
    (f,) = random_weight_functions(lat, seed, 1)
    for weight in (all_ones(lat), f):
        moved = carried(weight, linear, perm)
        for degree in (0, 1, 2):
            phi = mixed_phi(n, degree)
            phi_moved = pulled_back(phi, Uinv)
            for variant in (VARIANT_E, VARIANT_ETILDE):
                assert ehrhart_polynomial(weight, phi, variant) == ehrhart_polynomial(moved, phi_moved, variant)

    affine, perm = image(lat, U, t)
    for weight in (all_ones(lat), f):
        moved = carried(weight, affine, perm)
        for ell in (-2, 1, 2):
            assert moved_terms(hodge_character_sum(weight, ell), U, t) == dict(
                hodge_character_sum(moved, ell).terms()
            ), ell
    g = g_weight_function(lat, lat.top_id)
    g_moved = g_weight_function(affine, affine.top_id)
    assert g_moved == carried(g, affine, perm)
    one = HomogPoly.one(n)
    assert ehrhart_polynomial(g, one, VARIANT_E) == ehrhart_polynomial(g_moved, one, VARIANT_E)


# a fixed 6-step map of Z^6 with every kind of operation
DESK_OPS = [("add", 0, 5, 2), ("swap", 1, 4), ("add", 3, 0, -1), ("neg", 2), ("add", 5, 2, -2), ("add", 4, 3, 1)]


def test_desk_scale_polynomials_invariant():
    """cube6 under a 6-step map and a translation: the all-ones and
    g-weight polynomials, E at deg phi = 0, stay the same."""
    lat = build_face_lattice(facet_presentation(cube(6)))
    U = apply(DESK_OPS, [[int(i == j) for j in range(6)] for i in range(6)])
    moved, perm = image(lat, U, (1, -2, 3, 0, -1, 2))
    one = HomogPoly.one(6)
    for weight, image_weight in (
        (all_ones(lat), all_ones(moved)),
        (g_weight_function(lat, lat.top_id), g_weight_function(moved, moved.top_id)),
    ):
        assert image_weight == carried(weight, moved, perm)
        assert ehrhart_polynomial(weight, one, VARIANT_E) == ehrhart_polynomial(image_weight, one, VARIANT_E)
