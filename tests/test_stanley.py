"""Poset polynomial tests.

All expected f/g/h values were expanded by hand from the recursion
(polygon boundaries for v = 3, 4, 5, the pyramid apex interval, and the
octahedron h-vector for the cube) and frozen before implementation.
"""

import itertools
from functools import lru_cache
from itertools import zip_longest
from math import comb

import pytest

import wehrhart.stanley as stanley
from box_oracle import random_lattice
from kls_oracle import kls_weights
from stanley_oracle import grouped_sum, oracle_fg, oracle_g, oracle_h
from wehrhart.corpus import CORPUS, build
from wehrhart.polytope import FaceLattice, build_face_lattice, facet_presentation, mask_ids
from wehrhart.stanley import (
    NonEulerianPoset,
    _f_rows,
    _g_row,
    g_weight_function,
    h_polynomial,
    polar_g,
    stanley_fg,
)
from wehrhart.algebra import LaurentPoly, neg_y_power, substitute_inverse, substitute_negative
from wehrhart.weights import all_ones, delta_weight, dualize, scale

PENTAGON = ((0, 0), (2, 0), (3, 1), (2, 3), (0, 2))


def T(d):
    return LaurentPoly(d)


def crippled_square():
    """The square's face poset with one vertex dropped: not Eulerian."""
    L = build("square")
    dropped = L.vertex_face_id(0)
    return FaceLattice(L.polytope, [f for q, f in enumerate(L.faces) if q != dropped])


class TestPolyT:
    def test_render(self):
        assert f"{T({0: 1, 1: 1}):t}" == "1 + 1*t"
        assert f"{T({0: 1, 2: 3}):t}" == "1 + 3*t^2"
        assert f"{T({}):t}" == "0"

    def test_arith(self):
        assert T({0: -1, 1: 1}) ** 2 == T({0: 1, 1: -2, 2: 1})
        assert T({0: 1}) + T({0: -1}) == T({})

    def test_at_neg_y(self):
        assert substitute_negative(T({0: 1, 1: 1})) == LaurentPoly({0: 1, 1: -1})
        assert substitute_negative(T({2: 3})) == LaurentPoly({2: 3})


class TestStanleyFG:
    def test_single_element(self):
        L = build("segment")
        f, g = stanley_fg(L, L.top_id, L.top_id)
        assert f == T({0: 1})
        assert g == T({0: 1})

    @pytest.mark.parametrize(
        "verts,v",
        [(CORPUS["simplex2"], 3), (CORPUS["square"], 4), (PENTAGON, 5)],
    )
    def test_polygon_boundary(self, verts, v):
        P = facet_presentation(verts)
        assert len(P.vertices) == v
        L = build_face_lattice(P)
        f, g = stanley_fg(L, L.empty_id, L.top_id)
        assert f == T({0: 1, 1: v - 2, 2: 1})
        assert g == T({0: 1, 1: v - 3})

    def test_not_nested_rejected(self):
        L = build("square")
        with pytest.raises(ValueError):
            stanley_fg(L, L.vertex_face_id(0), L.vertex_face_id(1))
        with pytest.raises(ValueError):
            stanley_fg(L, L.top_id, L.empty_id)

    def test_non_eulerian_rejected(self):
        crippled = crippled_square()
        edge = next(q for q, f in enumerate(crippled.faces) if f.dim == 1)
        with pytest.raises(NonEulerianPoset):
            stanley_fg(crippled, edge, crippled.top_id)
        with pytest.raises(NonEulerianPoset):
            h_polynomial(crippled)

    def test_simplex_faces_all_g_one(self):
        for name in ("simplex1", "simplex2", "simplex3", "simplex4"):
            L = build(name)
            one = T({0: 1})
            for q in L.nonempty_ids:
                for qp in L.nonempty_ids:
                    if L.leq(q, qp):
                        assert polar_g(L, q, qp) == one

    def test_g_shape_invariants(self):
        for name in CORPUS:
            L = build(name)
            for q in L.nonempty_ids:
                for qp in L.nonempty_ids:
                    if not L.leq(q, qp):
                        continue
                    g = polar_g(L, q, qp)
                    rank = L.faces[qp].dim - L.faces[q].dim
                    assert g.coeff(0) == 1
                    assert max(g.terms) <= max(0, (rank - 1)) // 2 if rank else max(g.terms) == 0
                    assert all(c.denominator == 1 for c in g.terms.values())


class TestPolarG:
    def test_equal_faces(self):
        L = build("pyramid")
        for q in L.nonempty_ids:
            assert polar_g(L, q, q) == T({0: 1})

    def test_pyramid_apex(self):
        L = build("pyramid")
        apex_vertex = L.polytope.vertices.index((0, 0, 1))
        apex = L.vertex_face_id(apex_vertex)
        assert polar_g(L, apex, L.top_id) == T({0: 1, 1: 1})

    def test_pyramid_base_vertices(self):
        L = build("pyramid")
        base_vertex = L.polytope.vertices.index((0, 0, 0))
        vid = L.vertex_face_id(base_vertex)
        assert polar_g(L, vid, L.top_id) == T({0: 1})

    def test_cube_vertices(self):
        L = build("cube")
        for i in range(len(L.polytope.vertices)):
            assert polar_g(L, L.vertex_face_id(i), L.top_id) == T({0: 1})

    def test_not_nested_rejected(self):
        L = build("square")
        v0 = L.vertex_face_id(0)
        v1 = L.vertex_face_id(1)
        with pytest.raises(ValueError):
            polar_g(L, v0, v1)

    def test_empty_face_rejected(self):
        L = build("square")
        with pytest.raises(ValueError):
            polar_g(L, L.empty_id, L.top_id)

    def test_non_eulerian_rejected(self):
        crippled = crippled_square()
        with pytest.raises(NonEulerianPoset):
            stanley_fg(crippled, crippled.empty_id, crippled.top_id)
        with pytest.raises(NonEulerianPoset):
            polar_g(crippled, crippled.nonempty_ids[0], crippled.top_id)


class TestGWeightFunction:
    def test_vertex_gives_delta(self):
        L = build("square")
        vid = L.vertex_face_id(2)
        assert g_weight_function(L, vid) == delta_weight(L, vid)

    def test_cube_top_gives_all_ones(self):
        L = build("cube")
        assert g_weight_function(L, L.top_id) == all_ones(L)

    def test_pyramid_top(self):
        L = build("pyramid")
        f = g_weight_function(L, L.top_id)
        apex = L.vertex_face_id(L.polytope.vertices.index((0, 0, 1)))
        one = LaurentPoly({0: 1})
        for q in L.nonempty_ids:
            if q == apex:
                assert f[q] == LaurentPoly({0: 1, 1: -1})
            else:
                assert f[q] == one

    def test_support_below_qprime(self):
        L = build("pyramid")
        some_edge = next(q for q, f in enumerate(L.faces) if f.dim == 1)
        f = g_weight_function(L, some_edge)
        for q in f.values:
            assert L.leq(q, some_edge)


class TestHPolynomial:
    def test_segment(self):
        assert h_polynomial(build("segment")) == T({0: 1, 1: 1})

    def test_square(self):
        assert h_polynomial(build("square")) == T({0: 1, 1: 2, 2: 1})

    def test_cube(self):
        # h of the octahedron: transform of its f-vector (1, 6, 12, 8)
        assert h_polynomial(build("cube")) == T({0: 1, 1: 3, 2: 3, 3: 1})

    def test_master_duality(self):
        for name in CORPUS:
            L = build(name)
            h = h_polynomial(L)
            assert h == substitute_inverse(h) * LaurentPoly({L.polytope.n: 1}), name


class TestGroupedSum:
    """The oracle's grouped sum, which its recursion sums (t-1)^k kernels with."""

    def test_matches_term_by_term_sum(self):
        pairs = [(2, T({0: 1})), (0, T({1: 3})), (2, T({-1: 2})), (1, T({}))]
        kernel = lambda k: T({0: 1, 1: 1}) ** k
        expected = T({})
        for k, p in pairs:
            expected = expected + p * kernel(k)
        assert grouped_sum(pairs, kernel) == expected

    def test_one_kernel_call_per_key(self):
        calls = []

        def kernel(k):
            calls.append(k)
            return T({0: 1})

        assert grouped_sum([(1, T({0: 1})), (1, T({0: 2})), (0, T({0: 1}))], kernel) == T({0: 4})
        assert sorted(calls) == [0, 1]

    def test_empty_is_zero(self):
        assert grouped_sum([], lambda k: T({0: 1})) == T({})


@lru_cache(maxsize=None)
def deep_lattice(kind, n):
    """Face lattice of the n-cube {0,1}^n or the n-cross-polytope conv(+-e_i)."""
    if kind == "cube":
        verts = itertools.product((0, 1), repeat=n)
    else:
        verts = [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    return build_face_lattice(facet_presentation(verts))


class TestDeepLattices:
    """Closed forms and dualities on lattices of dimension 4 and 5."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cube_h_is_binomial(self, n):
        # the polar of the n-cube is the n-cross-polytope, a simplicial
        # polytope with h-vector C(n, i)
        assert h_polynomial(deep_lattice("cube", n)) == T({i: comb(n, i) for i in range(n + 1)})

    @pytest.mark.parametrize("n", [4, 5])
    def test_cube_top_gives_all_ones(self, n):
        L = deep_lattice("cube", n)
        assert g_weight_function(L, L.top_id) == all_ones(L)

    @pytest.mark.parametrize("kind,n", [("cube", 4), ("cross", 4), ("cross", 5)])
    def test_g_weights_self_dual_and_h_palindromic(self, kind, n):
        L = deep_lattice(kind, n)
        for qp in L.nonempty_ids:
            f = g_weight_function(L, qp)
            assert dualize(f) == scale(neg_y_power(-L.faces[qp].dim), f), qp
        h = h_polynomial(L)
        assert h == substitute_inverse(h) * T({n: 1})


ORACLE_LATTICES = [
    *((name, lambda name=name: build(name)) for name in CORPUS),
    ("cube5", lambda: deep_lattice("cube", 5)),
    ("cross5", lambda: deep_lattice("cross", 5)),
    *((f"random6-{seed}", lambda seed=seed: random_lattice(6, seed, 1, 10)) for seed in (1, 2)),
]


class TestSweepAgainstPairwiseRecursion:
    """The sweep against tests/stanley_oracle.py, coefficient by coefficient."""

    @pytest.mark.parametrize("name,make", ORACLE_LATTICES, ids=[n for n, _ in ORACLE_LATTICES])
    def test_every_nested_pair_and_h(self, name, make):
        # each public reader sweeps every face below Q', so every row of
        # one Q' comes from one _f_rows sweep, and each reader is called once
        L = make()
        memo = {}
        for qp in L.nonempty_ids:
            rows = _f_rows(L, qp)
            below = mask_ids(L.down[qp])
            for q in below:
                got = LaurentPoly(dict(enumerate(rows[q][1])))
                assert got.terms == oracle_g(L, q, qp, memo).terms, (q, qp)
            q = next(q for q in below if q != L.empty_id)
            assert polar_g(L, q, qp).terms == oracle_g(L, q, qp, memo).terms, (q, qp)
            assert stanley_fg(L, L.empty_id, qp)[1].terms == oracle_g(L, L.empty_id, qp, memo).terms, qp
        assert h_polynomial(L).terms == oracle_h(L, memo).terms

    @pytest.mark.parametrize("name", ["cube", "pyramid", "random3"])
    def test_every_f(self, name):
        L = build(name)
        memo = {}
        for qp in L.nonempty_ids:
            for q in mask_ids(L.down[qp]):
                assert stanley_fg(L, q, qp) == oracle_fg(L, q, qp, memo), (q, qp)


G_THEOREM_LATTICES = [
    *((name, lambda name=name: build(name)) for name in CORPUS),
    *((f"{kind}{n}", lambda kind=kind, n=n: deep_lattice(kind, n))
      for kind, n in [("cross", 3), ("cube", 4), ("cross", 4), ("cube", 5), ("cross", 5)]),
]


class TestGTheorem:
    """The g of a reversed interval [Q, Q'] is the toric g of a polytope R:
    its coefficients are nonnegative (Stanley 1987; Karu 2004), and it is
    monotone, g(R) >= g(G) g(R/G) coefficientwise for every face G of R
    (Braden and MacPherson 1999), which for x in [Q, Q'] reads
    g([Q, Q']) >= g([Q, x]) g([x, Q']).  Neither reruns the recursion."""

    @pytest.mark.parametrize("name,make", G_THEOREM_LATTICES, ids=[n for n, _ in G_THEOREM_LATTICES])
    def test_nonnegative_and_monotone(self, name, make):
        L = make()
        g = {(q, qp): g for qp in L.nonempty_ids for q, (_, g) in _f_rows(L, qp).items()}
        g[L.empty_id, L.empty_id] = (1,)
        for (q, qp), row in g.items():
            assert min(row) >= 0, (q, qp)
            for x in mask_ids(L.up[q] & L.down[qp]):
                low, high = g[q, x], g[x, qp]
                product = [0] * (len(low) + len(high) - 1)
                for i, a in enumerate(low):
                    for j, b in enumerate(high):
                        product[i + j] += a * b
                assert all(a >= b for a, b in zip_longest(row, product, fillvalue=0)), (q, x, qp)


class TestKazhdanLusztigStanleyBasis:
    """g_weight_function against tests/kls_oracle.py, which solves the
    eigen relation D(w) = (-y)^(-dim Q') w from dualize's defining sum
    and never reruns the f/g recursion."""

    @pytest.mark.parametrize("name,make", G_THEOREM_LATTICES, ids=[n for n, _ in G_THEOREM_LATTICES])
    def test_every_nonempty_face(self, name, make):
        L = make()
        for qp in L.nonempty_ids:
            assert g_weight_function(L, qp).values == kls_weights(L, qp).values, qp


def test_each_g_row_is_built_once_beside_its_f_row(monkeypatch):
    # one sweep keeps each face's g row with its f row, one pair per distinct f row
    built = []
    monkeypatch.setattr(stanley, "_g_row", lambda f: built.append(f) or _g_row(f))
    L = build_face_lattice(facet_presentation(list(itertools.product((0, 1), repeat=3))))
    for qp in L.nonempty_ids:
        built.clear()
        rows = _f_rows(L, qp)
        distinct = {f for q, (f, _) in rows.items() if q != qp}
        assert len(built) == len(distinct) and set(built) == distinct
        assert all(g == _g_row(f) for f, g in rows.values())
