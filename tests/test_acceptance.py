"""Acceptance gate.

One test per headline property, each checked with exact arithmetic and,
where a number is involved, an oracle computed independently of the code
under test (brute-force box scans, closed-form counts, frozen classical
polynomials).  No tolerances anywhere.
"""

import itertools
import math
import random
from fractions import Fraction

from box_oracle import is_simple
from charsum_oracle import constant_term
from wehrhart import corpus
from wehrhart.algebra import (
    HomogPoly,
    LaurentPoly as L,
    ZPoly,
    neg_y_power,
    substitute_inverse,
)
from wehrhart.ehrhart import (
    VARIANT_E,
    VARIANT_ETILDE,
    ehrhart_polynomial,
    verify_duality_reciprocity,
    verify_hodge_duality,
    verify_purity,
    verify_reciprocity,
    weighted_ehrhart_value,
)
from wehrhart.polytope import (
    build_face_lattice,
    facet_presentation,
    points_by_face,
    validate_eulerian,
)
from wehrhart.stanley import g_weight_function, h_polynomial, polar_g
from wehrhart.weights import (
    all_ones,
    delta_weight,
    dualize,
    random_laurent,
    random_weight_functions,
    scale,
)

ACCEPT_SEED = 113
Y0 = Fraction(0)


# ---------------------------------------------------------------- oracles

def box_scan(P, ell):
    """Integer points of ell*P straight from the inequalities."""
    lo = [min(v[i] for v in P.vertices) * ell for i in range(P.n)]
    hi = [max(v[i] for v in P.vertices) * ell for i in range(P.n)]
    closed = interior = 0
    for m in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        slacks = [sum(x * y for x, y in zip(m, u)) + ell * a for u, a in P.facets]
        if all(s >= 0 for s in slacks):
            closed += 1
            if all(s > 0 for s in slacks):
                interior += 1
    return closed, interior


def classical_counts(name, n, ell):
    """Textbook closed forms for boxes and standard simplices."""
    if name in ("square", "cube"):
        return (ell + 1) ** n, (ell - 1) ** n
    return math.comb(ell + n, n), math.comb(ell - 1, n)


def _binom(z, k):
    """C(z, k) for any integer z, as the falling factorial over k!."""
    return math.prod(z - i for i in range(k)) // math.factorial(k)


def cross_polytope_count(n, z):
    """L(z) = sum_k 2^k C(n, k) C(z, k), the Ehrhart polynomial of conv(+-e_i)."""
    return sum(2**k * math.comb(n, k) * _binom(z, k) for k in range(n + 1))


# ------------------------------------------------- shared evaluation grid

def grid_phis(n):
    one = HomogPoly.one(n)
    e = lambda i: tuple(1 if j == i else 0 for j in range(n))
    linear = HomogPoly(n, [(e(0), Fraction(1))])
    if n == 1:
        quad = HomogPoly(1, [((2,), Fraction(1))])
    else:
        quad = HomogPoly(
            n,
            [
                (tuple(2 * x for x in e(0)), Fraction(1)),
                (tuple(a + b for a, b in zip(e(0), e(1))), Fraction(1, 2)),
            ],
        )
    return [("1", one), ("linear", linear), ("quadratic", quad)]


_WEIGHTS = {}


def grid_weights(name):
    if name not in _WEIGHTS:
        lattice = corpus.build(name)
        named = [
            ("all-ones", all_ones(lattice)),
            ("g-weights", g_weight_function(lattice, lattice.top_id)),
        ]
        randoms = random_weight_functions(lattice, ACCEPT_SEED, 5)
        named += [(f"random{i}", w) for i, w in enumerate(randoms)]
        _WEIGHTS[name] = named
    return _WEIGHTS[name]


_ZPS = {}


def zp_for(name, wlabel, f, philabel, phi, variant) -> ZPoly:
    key = (name, wlabel, philabel, variant)
    if key not in _ZPS:
        _ZPS[key] = ehrhart_polynomial(corpus.build(name), f, phi, variant)
    return _ZPS[key]


def full_grid():
    for name in corpus.names():
        lattice = corpus.build(name)
        for wlabel, f in grid_weights(name):
            for philabel, phi in grid_phis(lattice.polytope.n):
                yield name, lattice, wlabel, f, philabel, phi


# ------------------------------------------------------------- criteria

def test_criterion_1_classical_ehrhart_specialization():
    for name in ("square", "cube", "simplex1", "simplex2", "simplex3", "simplex4"):
        lattice = corpus.build(name)
        P = lattice.polytope
        n = P.n
        f = delta_weight(lattice, lattice.top_id)
        one = HomogPoly.one(n)
        zp = zp_for(name, "delta", f, "1", one, VARIANT_ETILDE)
        for ell in range(1, 6):
            closed, interior = box_scan(P, ell)
            assert (closed, interior) == classical_counts(name, n, ell)
            assert zp(ell).subs(Y0) == interior
            assert zp(-ell).subs(Y0) == (-1) ** n * closed


def test_criterion_1_classical_specialization_in_dimensions_5_and_6():
    for n in (5, 6):
        cross = [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
        lattice = build_face_lattice(facet_presentation(cross))
        f = delta_weight(lattice, lattice.top_id)
        zp = ehrhart_polynomial(lattice, f, HomogPoly.one(n), VARIANT_ETILDE)
        for ell in range(1, 5):
            closed = cross_polytope_count(n, ell)
            interior = (-1) ** n * cross_polytope_count(n, -ell)
            if ell <= 2:  # the closed form itself, against the inequalities
                assert box_scan(lattice.polytope, ell) == (closed, interior)
            assert zp(ell).subs(Y0) == interior, (n, ell)
            assert zp(-ell).subs(Y0) == (-1) ** n * closed, (n, ell)


def test_criterion_2_polynomiality_and_constant_term():
    for name, lattice, wlabel, f, philabel, phi in full_grid():
        n = lattice.polytope.n
        for variant in (VARIANT_ETILDE, VARIANT_E):
            # interpolation itself re-verifies two extra nodes and ell=0
            zp = zp_for(name, wlabel, f, philabel, phi, variant)
            bound = n + phi.degree
            assert zp.degree <= bound
            assert zp(0) == constant_term(lattice, f, phi, variant)
            probe = bound + 2
            assert zp(probe) == weighted_ehrhart_value(lattice, f, phi, probe, variant)


def test_criterion_3_reciprocity():
    for name, lattice, wlabel, f, philabel, phi in full_grid():
        for variant in (VARIANT_ETILDE, VARIANT_E):
            zp = zp_for(name, wlabel, f, philabel, phi, variant)
            for ell in (1, 2, 3):
                res = verify_reciprocity(lattice, f, phi, ell, variant)
                assert res.passed, (name, wlabel, philabel, variant, ell)
                assert zp(-ell) == res.lhs


def test_criterion_4_reciprocity_for_duality():
    for name, lattice, wlabel, f, philabel, phi in full_grid():
        for variant in (VARIANT_ETILDE, VARIANT_E):
            zp = zp_for(name, wlabel, f, philabel, phi, variant)
            for ell in (1, 2, 3):
                dual = verify_duality_reciprocity(lattice, f, phi, ell, variant)
                assert dual.passed, (name, wlabel, philabel, variant, ell)
                assert zp(-ell) == dual.lhs
                # both formulations evaluate the same left side
                classic = verify_reciprocity(lattice, f, phi, ell, variant)
                assert classic.passed == dual.passed
                assert classic.lhs == dual.lhs


def test_criterion_5_duality_algebra():
    for name in corpus.names():
        lattice = corpus.build(name)
        rng = random.Random(ACCEPT_SEED)
        for f in random_weight_functions(lattice, ACCEPT_SEED, 100):
            assert dualize(dualize(f)) == f
            p = random_laurent(rng)
            assert dualize(scale(p, f)) == scale(substitute_inverse(p), dualize(f))
        for qp in lattice.nonempty_ids:
            g = g_weight_function(lattice, qp)
            eigen = scale(neg_y_power(-lattice.faces[qp].dim), g)
            assert dualize(g) == eigen, (name, qp)


def test_criterion_6_purity():
    pyramid = corpus.build("pyramid")
    apex = pyramid.vertex_face_id(pyramid.polytope.vertices.index((0, 0, 1)))
    assert g_weight_function(pyramid, pyramid.top_id)[apex] == L({0: 1, 1: -1})
    for name in ("pyramid", "cube"):
        lattice = corpus.build(name)
        n = lattice.polytope.n
        for _, phi in grid_phis(n)[:2]:  # 1 and the linear form
            for qp in lattice.nonempty_ids:
                zp = ehrhart_polynomial(
                    lattice, g_weight_function(lattice, qp), phi, VARIANT_E
                )
                for ell in (1, 2, 3):
                    res = verify_purity(lattice, qp, phi, ell)
                    assert res.passed, (name, qp, phi, ell)
                    assert zp(-ell) == res.lhs


def test_criterion_7_character_sum_duality():
    for name in corpus.names():
        lattice = corpus.build(name)
        for wlabel, f in grid_weights(name):
            for ell in (1, 2, 3):
                res = verify_hodge_duality(lattice, f, ell)
                assert res.passed, (name, wlabel, ell)


def test_criterion_8_stanley_layer():
    t = L({1: 1})
    one = L.const(1)
    assert h_polynomial(corpus.build("square")) == one + t * 2 + t * t
    assert h_polynomial(corpus.build("cube")) == one + t * 3 + (t * t) * 3 + t * t * t
    pyramid = corpus.build("pyramid")
    apex = pyramid.vertex_face_id(pyramid.polytope.vertices.index((0, 0, 1)))
    assert polar_g(pyramid, apex, pyramid.top_id) == one + t
    for name in corpus.names():
        lattice = corpus.build(name)
        n = lattice.polytope.n
        h = h_polynomial(lattice)
        # master duality: h(t) = t^n h(1/t)
        assert h == substitute_inverse(h) * L({n: 1}), name
        if is_simple(lattice.polytope):
            assert h == substitute_inverse(h) * L({n: 1})  # Dehn-Sommerville
            gw = g_weight_function(lattice, lattice.top_id)
            assert gw == all_ones(lattice), name
            for q in lattice.nonempty_ids:
                assert polar_g(lattice, q, lattice.top_id) == one


def test_criterion_9_structural():
    for name in corpus.names():
        lattice = corpus.build(name)
        n = lattice.polytope.n
        fv = lattice.f_vector
        euler = sum((-1) ** (d - 1) * fv[d] for d in range(n + 2))
        assert euler == 0, name
        assert validate_eulerian(lattice), name
        for ell in (1, 2, 3):
            parts = points_by_face(lattice, ell)
            union = sorted(m for pts in parts.values() for m in pts)
            assert len(union) == len(set(union)), name
            closed, _ = box_scan(lattice.polytope, ell)
            assert len(union) == closed, (name, ell)
