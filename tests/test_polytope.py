"""Polytope layer tests.

Facet lists and lattice sizes below were worked out by hand (the spec-scale
shapes are small enough to enumerate on paper) and frozen before the
implementation ran.
"""

import pytest
from hypothesis import given, settings, strategies as st

from box_oracle import box_points_by_face, random_lattice
from wehrhart.corpus import CORPUS, build, simplex
from wehrhart.polytope import (
    InvalidPolytope,
    LatticePolytope,
    _nullspace,
    _rank,
    build_face_lattice,
    eulerian_check,
    facet_presentation,
    fibres,
    is_simple,
    points_by_face,
    validate_eulerian,
)

SEGMENT = CORPUS["segment"]
SQUARE = CORPUS["square"]
PYRAMID = CORPUS["pyramid"]


class TestFacetPresentation:
    def test_segment(self):
        P = facet_presentation(SEGMENT)
        assert set(P.facets) == {((1,), 0), ((-1,), 1)}
        assert P.vertices == ((0,), (1,))

    def test_square(self):
        P = facet_presentation(SQUARE)
        assert set(P.facets) == {
            ((1, 0), 0),
            ((0, 1), 0),
            ((-1, 0), 1),
            ((0, -1), 1),
        }

    def test_square_pyramid(self):
        P = facet_presentation(PYRAMID)
        assert set(P.facets) == {
            ((0, 0, 1), 0),
            ((1, 0, 0), 0),
            ((0, 1, 0), 0),
            ((-1, 0, -1), 1),
            ((0, -1, -1), 1),
        }

    def test_facet_order_deterministic(self):
        P = facet_presentation(SQUARE)
        assert list(P.facets) == sorted(P.facets)

    def test_normals_primitive(self):
        from math import gcd

        for name in CORPUS:
            P = build(name).polytope
            for u, _ in P.facets:
                g = 0
                for x in u:
                    g = gcd(g, x)
                assert g == 1

    def test_non_vertex_points_dropped(self):
        pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)]
        P = facet_presentation(pts)
        assert P.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))

    def test_not_full_dimensional(self):
        with pytest.raises(InvalidPolytope):
            facet_presentation([(0, 0), (1, 0), (2, 0)])

    def test_too_few_after_dedup(self):
        with pytest.raises(InvalidPolytope):
            facet_presentation([(0, 0), (1, 1), (0, 0)])

    def test_vertices_satisfy_all_inequalities(self):
        for name in CORPUS:
            P = build(name).polytope
            for v in P.vertices:
                assert P.contains(v)


class TestFaceLattice:
    def test_segment_counts(self):
        L = build("segment")
        assert len(L.faces) == 4
        assert L.f_vector == (1, 2, 1)

    def test_square_counts(self):
        L = build("square")
        assert len(L.faces) == 10
        assert L.f_vector == (1, 4, 4, 1)

    def test_pyramid_counts(self):
        L = build("pyramid")
        assert len(L.faces) == 20
        assert L.f_vector == (1, 5, 8, 5, 1)

    def test_cube_counts(self):
        L = build("cube")
        assert L.f_vector == (1, 8, 12, 6, 1)

    def test_empty_face_convention(self):
        L = build("square")
        empty = L.faces[L.empty_id]
        assert empty.dim == -1
        assert empty.vertex_set == frozenset()
        assert empty.tight_facets == frozenset(range(len(L.polytope.facets)))

    def test_top_face_convention(self):
        L = build("square")
        top = L.faces[L.top_id]
        assert top.dim == 2
        assert top.tight_facets == frozenset()

    def test_tight_set_monotonicity(self):
        L = build("pyramid")
        for a in L.faces:
            for b in L.faces:
                if a.dim < 0 or b.dim < 0 or a.id == b.id:
                    continue
                nested = a.vertex_set <= b.vertex_set
                assert nested == (a.tight_facets >= b.tight_facets)

    def test_euler_relation(self):
        for name in CORPUS:
            L = build(name)
            total = sum((-1) ** f.dim for f in L.faces if f.dim >= 0)
            assert total == 1, name

    def test_apex_on_four_facets(self):
        L = build("pyramid")
        apex_vertex = L.polytope.vertices.index((0, 0, 1))
        apex = L.faces[L.vertex_face_id(apex_vertex)]
        assert len(apex.tight_facets) == 4


class TestPointsByFace:
    def test_square_l1(self):
        L = build("square")
        pts = points_by_face(L, 1)
        by_dim = {}
        for f in L.faces:
            if f.dim >= 0:
                by_dim.setdefault(f.dim, 0)
                by_dim[f.dim] += len(pts[f.id])
        assert by_dim == {0: 4, 1: 0, 2: 0}

    def test_square_l2(self):
        L = build("square")
        pts = points_by_face(L, 2)
        counts = {f.dim: 0 for f in L.faces if f.dim >= 0}
        for f in L.faces:
            if f.dim >= 0:
                counts[f.dim] += len(pts[f.id])
        assert counts == {0: 4, 1: 4, 2: 1}
        assert sum(counts.values()) == 9

    def test_segment_l3(self):
        L = build("segment")
        pts = points_by_face(L, 3)
        v0 = L.vertex_face_id(L.polytope.vertices.index((0,)))
        v1 = L.vertex_face_id(L.polytope.vertices.index((1,)))
        assert pts[v0] == [(0,)]
        assert pts[v1] == [(3,)]
        assert pts[L.top_id] == [(1,), (2,)]

    def test_vertex_faces_get_scaled_vertex(self):
        for name in ("square", "pyramid", "simplex3"):
            L = build(name)
            for ell in (1, 2, 3):
                pts = points_by_face(L, ell)
                for i, v in enumerate(L.polytope.vertices):
                    scaled = tuple(ell * x for x in v)
                    assert pts[L.vertex_face_id(i)] == [scaled]

    def test_partition_identity(self):
        for name in CORPUS:
            L = build(name)
            for ell in (1, 2, 3):
                pts = points_by_face(L, ell)
                union = [m for lst in pts.values() for m in lst]
                assert len(union) == len(set(union))
                P = L.polytope
                assert all(P.contains(m, ell) for m in union)

    def test_rejects_nonpositive_dilation(self):
        L = build("segment")
        with pytest.raises(ValueError):
            points_by_face(L, 0)
        with pytest.raises(ValueError):
            points_by_face(L, -2)


class _StubPoset:
    """Face lattice minus chosen elements, for Eulerian failure cases."""

    def __init__(self, lattice, dropped):
        self.members = [f for f in lattice.faces if f.id not in dropped]
        self.sets = {f.id: f.vertex_set for f in self.members}
        self.dims = {f.id: f.dim for f in self.members}

    def ids(self):
        return [f.id for f in self.members]

    def leq(self, a, b):
        return self.sets[a] <= self.sets[b]

    def rank(self, e):
        return self.dims[e] + 1


def triple_eulerian_check(elements, leq, rank):
    """The oracle: count the ranks of every interval one element at a time."""
    elements = list(elements)
    for a in elements:
        for b in elements:
            if a == b or not leq(a, b):
                continue
            ranks = [rank(e) % 2 for e in elements if leq(a, e) and leq(e, b)]
            if ranks.count(0) != ranks.count(1):
                return False
    return True


class TestEulerian:
    def test_square_is_eulerian(self):
        assert validate_eulerian(build("square"))

    def test_pyramid_is_eulerian(self):
        assert validate_eulerian(build("pyramid"))

    def test_all_corpus_eulerian(self):
        for name in CORPUS:
            assert validate_eulerian(build(name)), name

    def test_square_minus_vertex_fails(self):
        L = build("square")
        some_vertex = L.vertex_face_id(0)
        stub = _StubPoset(L, {some_vertex})
        assert not eulerian_check(stub.ids(), stub.leq, stub.rank)

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_bitmask_check_matches_triple_loop_on_corpus(self, name):
        L = build(name)
        stub = _StubPoset(L, set())
        assert eulerian_check(stub.ids(), stub.leq, stub.rank)
        assert triple_eulerian_check(stub.ids(), stub.leq, stub.rank)

    @pytest.mark.parametrize("name", ["square", "pyramid", "cube", "simplex3"])
    def test_bitmask_check_matches_triple_loop_on_stubs(self, name):
        L = build(name)
        # dropping a proper face F breaks the diamonds [G, H] with G < F < H
        for dim in range(L.polytope.n):
            dropped = {next(f.id for f in L.faces if f.dim == dim)}
            stub = _StubPoset(L, dropped)
            expected = triple_eulerian_check(stub.ids(), stub.leq, stub.rank)
            assert not expected
            assert eulerian_check(stub.ids(), stub.leq, stub.rank) == expected


class TestIsSimple:
    def test_cube(self):
        assert is_simple(build("cube").polytope)

    def test_pyramid_not_simple(self):
        assert not is_simple(build("pyramid").polytope)

    def test_simplices(self):
        for n in (1, 2, 3, 4):
            assert is_simple(facet_presentation(simplex(n)))


# (dimension, seed, radius, draws) of the seeded random polytopes below
RANDOM_SHAPES = [
    (2, 1, 3, 7), (2, 2, 2, 5), (3, 1, 2, 8), (3, 2, 1, 7),
    (4, 1, 1, 8), (4, 2, 1, 7), (5, 1, 1, 8),
]


class TestFibreWalkAgainstBoxScan:
    """The fibre walk against the box scan, face by face and in list order."""

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus(self, name):
        lattice = build_face_lattice(facet_presentation(CORPUS[name]))
        for ell in (1, 2, 3, 4):
            assert points_by_face(lattice, ell) == box_points_by_face(lattice, ell), ell

    @pytest.mark.parametrize("n,seed,radius,draws", RANDOM_SHAPES)
    def test_random(self, n, seed, radius, draws):
        lattice = random_lattice(n, seed, radius, draws)
        for ell in (1, 2, 3, 4):
            assert points_by_face(lattice, ell) == box_points_by_face(lattice, ell), ell

    def test_fibres_split_at_their_ends(self):
        lattice = build("pyramid")
        parts = points_by_face(lattice, 3)
        face_of = {m: q for q, pts in parts.items() for m in pts}
        for prefix, lo, hi, face_lo, face_mid, face_hi in fibres(lattice, 3):
            assert face_of[prefix + (lo,)] == face_lo
            assert face_of[prefix + (hi,)] == face_hi
            for t in range(lo + 1, hi):
                assert face_of[prefix + (t,)] == face_mid
            assert (face_mid is None) == (lo == hi)


class TestClosureCheck:
    def test_dropped_facet_is_refused(self):
        P = facet_presentation(SQUARE)
        broken = LatticePolytope(P.n, P.vertices, P.facets[1:])
        with pytest.raises(InvalidPolytope, match="closure"):
            build_face_lattice(broken)

    def test_facet_off_the_vertices_is_refused(self):
        P = facet_presentation(SQUARE)
        (u, a), rest = P.facets[0], P.facets[1:]
        broken = LatticePolytope(P.n, P.vertices, [(u, a + 1)] + list(rest))
        with pytest.raises(InvalidPolytope, match="closure"):
            build_face_lattice(broken)


@st.composite
def int_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-3, max_value=3)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


class TestElimination:
    @settings(max_examples=200, deadline=None)
    @given(int_matrices())
    def test_rank_nullity_and_transpose(self, matrix):
        rows, ncols = matrix
        basis = _nullspace(rows, ncols)
        assert _rank(rows) + len(basis) == ncols
        for vec in basis:
            assert any(vec)
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        assert _rank(rows) == _rank([list(col) for col in zip(*rows)])
