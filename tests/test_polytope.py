"""Polytope layer tests.

Facet lists and lattice sizes below were worked out by hand (the spec-scale
shapes are small enough to enumerate on paper) and frozen before the
implementation ran.
"""

import copy
import inspect
import io
import itertools
import json
import random
import re
from fractions import Fraction
from math import comb, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from box_oracle import (
    RANDOM_6,
    RANDOM_SHAPES,
    box_fibres,
    box_points_by_face,
    contains,
    cross,
    cube,
    is_simple,
    random_lattice,
    row_fibres,
)
from face_oracle import oracle_faces, oracle_order
import hull_oracle
from hull_oracle import (
    _affine_rank,
    checked_polytope,
    fraction_echelon,
    fraction_nullspace,
    fraction_rank,
    subset_facet_presentation,
)
from wehrhart import polytope
from wehrhart.algebra import HomogPoly, LaurentPoly
from wehrhart.corpus import CORPUS, build, simplex
from wehrhart.ehrhart import verify_purity
from wehrhart.polytope import (
    MEMO_MAX,
    BoundedCache,
    InvalidPolytope,
    _floor_min,
    _primitive,
    _start_simplex,
    build_face_lattice,
    eulerian_check,
    facet_presentation,
    fibre_rows,
    mask_ids,
    points_by_face,
    validate_eulerian,
)
from wehrhart.stanley import g_weight_function, polar_g, stanley_fg
from wehrhart.weights import WeightFunction, delta_weight

SEGMENT = CORPUS["segment"]
SQUARE = CORPUS["square"]
PYRAMID = CORPUS["pyramid"]
FIXTURE_POLYTOPES = sorted(
    p for p in (Path(__file__).resolve().parent.parent / "fixtures").glob("*.json")
    if "vertices" in json.loads(p.read_text())
)


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

    def test_points_without_coordinates(self):
        with pytest.raises(InvalidPolytope, match="no coordinates"):
            facet_presentation([()])

    def test_too_few_after_dedup(self):
        with pytest.raises(InvalidPolytope):
            facet_presentation([(0, 0), (1, 1), (0, 0)])

    def test_vertices_satisfy_all_inequalities(self):
        for name in CORPUS:
            P = build(name).polytope
            for v in P.vertices:
                assert contains(P, v)

    @pytest.mark.parametrize(
        "points",
        [
            [(0.5, 0), (1.9, 0), (0, 1)],  # used to truncate to (0, 0), (1, 0), (0, 1)
            [(0, 0), (1, 0), (0, 1.0)],
            [(False, False), (True, False), (False, True)],
        ],
    )
    def test_coordinates_must_be_ints(self, points):
        with pytest.raises(TypeError, match="is not an exact integer"):
            facet_presentation(points)

    @pytest.mark.parametrize(
        "vertices,facets",
        [
            ([(0, 0), (1, 0)], [((1, 0), 0.7)]),  # used to store offset 0
            ([(0, 0), (1, 0)], [((1, 0), True)]),
            ([(0, 0), (1, 0)], [((1.0, 0), 0)]),
            ([(0, 0.5), (1, 0)], [((1, 0), 0)]),
            ([(0, False), (1, 0)], [((1, 0), 0)]),
        ],
    )
    def test_presentation_entries_must_be_ints(self, vertices, facets):
        with pytest.raises(TypeError, match="is not an exact integer"):
            checked_polytope(2, vertices, facets)


# every entry point that takes a face id, with fid in each position it can take
FACE_ID_ENTRY_POINTS = {
    "g_weight_function": lambda lat, fid: g_weight_function(lat, fid),
    "polar_g lower": lambda lat, fid: polar_g(lat, fid, lat.top_id),
    "polar_g upper": lambda lat, fid: polar_g(lat, lat.vertex_face_id(0), fid),
    "stanley_fg lower": lambda lat, fid: stanley_fg(lat, fid, lat.top_id),
    "stanley_fg upper": lambda lat, fid: stanley_fg(lat, lat.vertex_face_id(0), fid),
    "verify_purity": lambda lat, fid: verify_purity(
        g_weight_function(lat, lat.top_id), fid, HomogPoly.one(2), [1]
    ),
    "delta_weight": lambda lat, fid: delta_weight(lat, fid),
    "WeightFunction": lambda lat, fid: WeightFunction(lat, {fid: LaurentPoly.const(1)}),
}


class TestCheckFace:
    @pytest.mark.parametrize("entry", FACE_ID_ENTRY_POINTS)
    @pytest.mark.parametrize("where", ["-1", "-2", "len(faces)"])
    def test_out_of_range_ids_refused(self, entry, where):
        lat = build("square")
        fid = len(lat.faces) if where == "len(faces)" else int(where)
        with pytest.raises(ValueError, match=rf"^no face with id {fid}$"):
            FACE_ID_ENTRY_POINTS[entry](lat, fid)


class TestFaceLattice:
    def test_segment_counts(self):
        L = build("segment")
        assert len(L.faces) == 4
        assert L.f_vector == (1, 2, 1)

    def test_square_counts(self):
        L = build("square")
        assert len(L.faces) == 10
        assert L.f_vector == (1, 4, 4, 1)

    @pytest.mark.parametrize("index,error", [(4, ValueError), (9, ValueError), (-1, ValueError),
                                             (True, TypeError), (1.0, TypeError), ("1", TypeError)])
    def test_vertex_index_outside_the_vertices_refused(self, index, error):
        with pytest.raises(error, match=rf"^no vertex with index {index}$" if error is ValueError else None):
            build("square").vertex_face_id(index)

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
        assert empty.vertex_mask == 0
        assert empty.tight_mask == (1 << len(L.polytope.facets)) - 1

    def test_top_face_convention(self):
        L = build("square")
        top = L.faces[L.top_id]
        assert top.dim == 2
        assert top.tight_mask == 0

    def test_tight_set_monotonicity(self):
        L = build("pyramid")
        for a in L.faces:
            for b in L.faces:
                if a.dim < 0 or b.dim < 0 or a is b:
                    continue
                nested = a.vertex_mask & ~b.vertex_mask == 0
                assert nested == (b.tight_mask & ~a.tight_mask == 0)

    def test_euler_relation(self):
        for name in CORPUS:
            L = build(name)
            total = sum((-1) ** f.dim for f in L.faces if f.dim >= 0)
            assert total == 1, name

    def test_apex_on_four_facets(self):
        L = build("pyramid")
        apex_vertex = L.polytope.vertices.index((0, 0, 1))
        apex = L.faces[L.vertex_face_id(apex_vertex)]
        assert apex.tight_mask.bit_count() == 4


class TestPointsByFace:
    def test_square_l1(self):
        L = build("square")
        pts = points_by_face(L, 1)
        by_dim = {}
        for q, f in enumerate(L.faces):
            if f.dim >= 0:
                by_dim.setdefault(f.dim, 0)
                by_dim[f.dim] += len(pts[q])
        assert by_dim == {0: 4, 1: 0, 2: 0}

    def test_square_l2(self):
        L = build("square")
        pts = points_by_face(L, 2)
        counts = {f.dim: 0 for f in L.faces if f.dim >= 0}
        for q, f in enumerate(L.faces):
            if f.dim >= 0:
                counts[f.dim] += len(pts[q])
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
                assert all(contains(P, m, ell) for m in union)

    def test_rejects_nonpositive_dilation(self):
        L = build("segment")
        with pytest.raises(ValueError):
            points_by_face(L, 0)
        with pytest.raises(ValueError):
            points_by_face(L, -2)


class _StubPoset:
    """Face lattice minus chosen elements, for Eulerian failure cases."""

    def __init__(self, lattice, dropped):
        kept = [q for q in range(len(lattice.faces)) if q not in dropped]
        self.sets = {q: lattice.faces[q].vertex_mask for q in kept}
        self.dims = {q: lattice.faces[q].dim for q in kept}

    def ids(self):
        return list(self.sets)

    def leq(self, a, b):
        return self.sets[a] & ~self.sets[b] == 0

    def rank(self, e):
        return self.dims[e] + 1

    def masks(self):
        """(up, down, even) over the positions of the kept elements, built from leq and rank."""
        ids = self.ids()
        size = range(len(ids))
        up = [sum(1 << j for j in size if self.leq(a, ids[j])) for a in ids]
        down = [sum(1 << j for j in size if self.leq(ids[j], b)) for b in ids]
        even = sum(1 << j for j in size if self.rank(ids[j]) % 2 == 0)
        return up, down, even


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
        assert not eulerian_check(*stub.masks())

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_bitmask_check_matches_triple_loop_on_corpus(self, name):
        L = build(name)
        stub = _StubPoset(L, set())
        assert eulerian_check(*stub.masks())
        assert triple_eulerian_check(stub.ids(), stub.leq, stub.rank)

    @pytest.mark.parametrize("name", ["square", "pyramid", "cube", "simplex3"])
    def test_bitmask_check_matches_triple_loop_on_stubs(self, name):
        L = build(name)
        # dropping a proper face F breaks the diamonds [G, H] with G < F < H
        for dim in range(L.polytope.n):
            dropped = {next(q for q, f in enumerate(L.faces) if f.dim == dim)}
            stub = _StubPoset(L, dropped)
            expected = triple_eulerian_check(stub.ids(), stub.leq, stub.rank)
            assert not expected
            assert eulerian_check(*stub.masks()) == expected

    @pytest.mark.parametrize("name", ["square", "pyramid", "cube"])
    def test_any_flipped_down_bit_fails(self, name):
        # clearing a bit of down or setting an extra one leaves it no transpose of up
        L = build(name)
        size = len(L.faces)
        for j in range(size):
            for i in range(size):
                mutant = copy.copy(L)
                mutant.down = list(L.down)
                mutant.down[j] ^= 1 << i
                assert not validate_eulerian(mutant), (j, i)

    @pytest.mark.parametrize("name", ["square", "pyramid"])
    def test_moved_down_bit_fails(self, name):
        # moving a bit keeps the popcount total; the pairwise transpose check catches it
        L = build(name)
        size = len(L.faces)
        for j in range(size):
            for i in mask_ids(L.down[j]):
                for k in range(size):
                    if not L.down[j] >> k & 1:
                        mutant = copy.copy(L)
                        mutant.down = list(L.down)
                        mutant.down[j] ^= 1 << i | 1 << k
                        assert not validate_eulerian(mutant), (j, i, k)


class TestIsSimple:
    """The test helper is_simple, which other tests rely on."""

    def test_cube(self):
        assert is_simple(build("cube").polytope)

    def test_pyramid_not_simple(self):
        assert not is_simple(build("pyramid").polytope)

    def test_simplices(self):
        for n in (1, 2, 3, 4):
            assert is_simple(facet_presentation(simplex(n)))


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

    def test_dimension_6(self):
        for lattice in (build_face_lattice(facet_presentation(cross(6))), random_lattice(*RANDOM_6[0])):
            for ell in (1, 2):
                assert points_by_face(lattice, ell) == box_points_by_face(lattice, ell), ell

    def test_fibres_split_at_their_ends(self):
        lattice = build("pyramid")
        parts = points_by_face(lattice, 3)
        face_of = {m: q for q, pts in parts.items() for m in pts}
        for outer, row in fibre_rows(lattice, 3):
            for x, lo, hi, face_lo, face_mid, face_hi in row:
                prefix = outer + (x,)
                assert face_of[prefix + (lo,)] == face_lo
                assert face_of[prefix + (hi,)] == face_hi
                for t in range(lo + 1, hi):
                    assert face_of[prefix + (t,)] == face_mid
                assert (face_mid is None) == (lo == hi)


class TestFibresAgainstBoxFibres:
    """Projection-bounded lifting against every prefix of the box, fibre for
    fibre and in order, each row of the walk checked for its shape."""

    @staticmethod
    def _agree(lattice, ells):
        for ell in ells:
            assert list(row_fibres(lattice, ell)) == list(box_fibres(lattice, ell)), ell

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus(self, name):
        self._agree(build_face_lattice(facet_presentation(CORPUS[name])), range(1, 6))

    @pytest.mark.parametrize("n,seed,radius,draws", RANDOM_SHAPES)
    def test_random(self, n, seed, radius, draws):
        self._agree(random_lattice(n, seed, radius, draws), range(1, n + 4))

    @pytest.mark.parametrize("n,seed,radius,draws", RANDOM_6)
    def test_random_dimension_6(self, n, seed, radius, draws):
        self._agree(random_lattice(n, seed, radius, draws), (1, 2, 3))

    @pytest.mark.parametrize("pts", [cube(6), cross(6)], ids=["cube6", "cross6"])
    def test_cube6_and_cross6(self, pts):
        self._agree(build_face_lattice(facet_presentation(pts)), (1, 2, 3))

    def test_few_dozen_vertices(self):
        # the hull of 40 points of random.Random(1) in [-3, 3]^5, drawn point by
        # point: the box scan tries 7**4 prefixes against 406 facets
        rng = random.Random(1)
        pts = [tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(40)]
        lattice = build_face_lattice(facet_presentation(pts))
        assert (len(lattice.polytope.vertices), len(lattice.polytope.facets)) == (38, 406)
        self._agree(lattice, (1,))

    def test_segment_has_one_fibre_over_the_empty_prefix(self):
        lattice = build("segment")
        v0, v1 = (lattice.vertex_face_id(i) for i in (0, 1))
        assert list(fibre_rows(lattice, 3)) == [((), [(0, 0, 3, v0, lattice.top_id, v1)])]

    def test_fibres_is_a_generator(self):
        assert inspect.isgenerator(fibre_rows(build("cube"), 2))

    def test_projection_table_is_lazy_and_has_n_minus_1_entries(self):
        lattice = build_face_lattice(facet_presentation(cross(5)))
        assert lattice._projections is None
        list(fibre_rows(lattice, 1))
        table = lattice.projections()
        assert [len(facets) for facets in table] == [2, 4, 8, 16]
        assert table[0] == (((-1,), 1), ((1,), 1))
        list(fibre_rows(lattice, 4))
        assert lattice.projections() is table


def _desk_cloud(count, radius, n):
    """count points of random.Random(1) in [-radius, radius]^n, drawn point by point."""
    rng = random.Random(1)
    return [tuple(rng.randint(-radius, radius) for _ in range(n)) for _ in range(count)]


@st.composite
def hull_clouds(draw):
    """Clouds in dimensions 2 to 6: doubled draws, midpoints of pairs (inside
    the hull, often interior) and repeated points."""
    n = draw(st.integers(min_value=2, max_value=6))
    point = st.tuples(*[st.integers(min_value=-2, max_value=2)] * n)
    pts = [tuple(2 * x for x in p) for p in draw(st.lists(point, min_size=n + 2, max_size=n + 8))]
    pairs = draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=4))
    repeats = draw(st.lists(st.sampled_from(pts), max_size=3))
    return pts + [tuple((a + b) // 2 for a, b in zip(p, q)) for p, q in pairs] + repeats


class TestProjectionsAgainstProjectedHulls:
    """FaceLattice.projections, cut from P's facets, against the hull of the
    vertices cut to their first k coordinates, for every k."""

    @staticmethod
    def oracle(P):
        return tuple(facet_presentation([v[:k] for v in P.vertices]).facets for k in range(1, P.n))

    def _agree(self, pts):
        P = facet_presentation(pts)
        assert build_face_lattice(P).projections() == self.oracle(P)
        return P

    @pytest.mark.parametrize(
        "pts",
        [*CORPUS.values(), *(json.loads(p.read_text())["vertices"] for p in FIXTURE_POLYTOPES)],
        ids=[*CORPUS, *(p.stem for p in FIXTURE_POLYTOPES)],
    )
    def test_corpus_and_fixtures(self, pts):
        self._agree(pts)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("shape", [cube, cross])
    def test_cubes_and_cross_polytopes(self, shape, n):
        self._agree(shape(n))

    @pytest.mark.parametrize(
        "count,radius,n,size",
        [(12, 2, 5, 12), (12, 1, 6, 12), (40, 3, 5, 38)],
        ids=["12-vertex-5-polytope", "12-vertex-6-polytope", "38-vertex-5-polytope"],
    )
    def test_desk_polytopes(self, count, radius, n, size):
        assert len(self._agree(_desk_cloud(count, radius, n)).vertices) == size

    @settings(max_examples=60, deadline=None)
    @given(hull_clouds())
    def test_random_clouds(self, pts):
        try:
            lattice = build_face_lattice(facet_presentation(pts))
        except InvalidPolytope:
            assume(False)
        assert lattice.projections() == self.oracle(lattice.polytope)

    def test_no_hull_is_rerun(self, monkeypatch):
        lattice = build_face_lattice(facet_presentation(cross(5)))
        calls = []
        hull = polytope.facet_presentation
        monkeypatch.setattr(polytope, "facet_presentation", lambda pts: calls.append(pts) or hull(pts))
        table = lattice.projections()
        assert calls == []
        monkeypatch.undo()
        assert table == self.oracle(lattice.polytope)


def _lines_by_slope(lines, rng):
    """Lines (s, v, c, bits) sorted by decreasing slope v/c, equal slopes in a random order."""
    rng.shuffle(lines)
    return sorted(lines, key=lambda line: -Fraction(line[1], line[2]))


def _random_line_family(rng):
    """A seeded family of lines s + v*x over c, with ties planted among them.

    Plants parallel lines, identical lines (also with (s, v, c) scaled),
    and lines concurrent at a point whose x is an integer and whose value
    is an integer or not.
    """
    lines = [
        (rng.randint(-12, 12), rng.randint(-4, 4), rng.randint(1, 4))
        for _ in range(rng.randint(1, 4))
    ]
    for _ in range(rng.randint(0, 3)):
        s, v, c = rng.choice(lines)
        kind = rng.choice(("parallel", "identical", "scaled", "concurrent"))
        if kind == "parallel":
            lines.append((s + rng.choice((-3, -1, 1, 2)) * c, v, c))
        elif kind == "identical":
            lines.append((s, v, c))
        elif kind == "scaled":
            k = rng.randint(2, 3)
            lines.append((k * s, k * v, k * c))
        else:  # two more lines through the value of (s, v, c) at an integer x0
            x0 = rng.randint(-5, 5)
            for v2, c2 in rng.sample([(w, d) for w in range(-4, 5) for d in (1, 2, 3)], 2):
                # (s2 + v2*x0)/c2 = (s + v*x0)/c needs c | c2*(s + v*x0)
                if c2 * (s + v * x0) % c == 0:
                    lines.append((c2 * (s + v * x0) // c - v2 * x0, v2, c2))
    return [(s, v, c, 1 << i) for i, (s, v, c) in enumerate(lines)]


class TestFloorMinAgainstBruteForce:
    """The per-row envelope against a min over every line, floored, and the
    bits of every line that reaches that floor."""

    @staticmethod
    def brute(lines, xs):
        floors = [min((s + v * x) // c for s, v, c, _ in lines) for x in xs]
        tight = [
            sum(b for s, v, c, b in lines if s + v * x == c * q) for x, q in zip(xs, floors)
        ]
        return floors, tight

    def test_seeded_families(self):
        rng = random.Random("floor-min")
        for _ in range(600):
            lines = _lines_by_slope(_random_line_family(rng), rng)
            start = rng.randint(-8, 2)
            xs = range(start, start + rng.randint(0, 14))
            assert _floor_min(lines, xs) == self.brute(lines, xs), (lines, xs)

    def test_three_concurrent_lines_all_tight_at_their_point(self):
        # slopes 1, 0, -1 through (2, 3); the middle line is never strictly lowest
        lines = [(1, 1, 1, 1), (3, 0, 1, 2), (5, -1, 1, 4)]
        assert _floor_min(lines, range(0, 5)) == ([1, 2, 3, 2, 1], [1, 1, 7, 4, 4])

    def test_parallel_and_identical_lines(self):
        # (x + 1)/2 three times, once scaled, and above it the parallel x/2 + 1
        lines = [(1, 1, 2, 1), (2, 1, 2, 2), (2, 2, 4, 4), (1, 1, 2, 8)]
        assert _floor_min(lines, range(-1, 3)) == ([0, 0, 1, 1], [13, 0, 13, 0])

    def test_single_line_and_empty_range(self):
        assert _floor_min([(7, -2, 3, 1)], range(0, 4)) == ([2, 1, 1, 0], [0, 0, 1, 0])
        assert _floor_min([(1, 1, 1, 1), (5, -1, 1, 2)], range(4, 4)) == ([], [])


def _shear(points, rows):
    return [tuple(sum(a * b for a, b in zip(row, p)) for row in rows) for p in points]


def _dilate(points, k):
    return [tuple(k * x for x in p) for p in points]


# polytopes whose facets meet the walk's rows in many parallel, identical
# and concurrent lines, and whose envelopes break at lattice points
TIE_HEAVY = {
    "2cube3": _dilate(cube(3), 2),
    "3cube2": _dilate(cube(2), 3),
    "2cube4": _dilate(cube(4), 2),
    "2cross3": _dilate(cross(3), 2),
    "cross4": cross(4),
    "3simplex2": _dilate(simplex(2), 3),
    "2simplex4": _dilate(simplex(4), 2),
    "sheared-cube3": _shear(cube(3), [(1, 0, 0), (1, 1, 0), (2, 1, 1)]),
    "sheared-cube4": _shear(cube(4), [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0), (1, -2, 3, 1)]),
    "pyramid-apex-over-point": [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)],
    "pyramid4-apex-over-point": [p + (0,) for p in _dilate(cube(3), 2)] + [(1, 1, 1, 3)],
}


class TestRowsOnTieHeavyPolytopes:
    @pytest.mark.parametrize("name", list(TIE_HEAVY))
    def test_fibres_match_box_fibres(self, name):
        lattice = build_face_lattice(facet_presentation(TIE_HEAVY[name]))
        for ell in (1, 2, 3):
            assert list(row_fibres(lattice, ell)) == list(box_fibres(lattice, ell)), ell


class TestGrading:
    """The top-down grading of the closure against elimination, face by face,
    and FaceLattice.by_dim and the ids read off it against the Face list."""

    @staticmethod
    def _agree(P, f_vector=None):
        lattice = build_face_lattice(P)
        faces, by_dim = lattice.faces, lattice.by_dim
        for q, face in enumerate(faces):
            assert face.dim == _affine_rank([P.vertices[i] for i in mask_ids(face.vertex_mask)]), face
            bits = [by_dim[d + 1] >> q & 1 for d in range(-1, P.n + 1)]
            assert bits == [int(face.dim == d) for d in range(-1, P.n + 1)], face
        assert len(by_dim) == P.n + 2 and sum(by_dim) < 1 << len(faces)
        assert [q for q, f in enumerate(faces) if f.dim < 0] == [lattice.empty_id]
        assert [q for q, f in enumerate(faces) if f.dim == P.n] == [lattice.top_id]
        assert [q for q, f in enumerate(faces) if f.dim >= 0] == lattice.nonempty_ids
        if f_vector is not None:
            assert tuple(m.bit_count() for m in by_dim) == f_vector

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus(self, name):
        self._agree(facet_presentation(CORPUS[name]))

    @pytest.mark.parametrize("n,seed,radius,draws", RANDOM_SHAPES)
    def test_random(self, n, seed, radius, draws):
        self._agree(random_lattice(n, seed, radius, draws).polytope)

    # f_k = C(6, k) 2^(6-k) for the cube, 2^(k+1) C(6, k+1) for the cross-polytope
    @pytest.mark.parametrize(
        "pts,f_vector",
        [
            (cube(6), (1, *(comb(6, k) * 2 ** (6 - k) for k in range(6)), 1)),
            (cross(6), (1, *(2 ** (k + 1) * comb(6, k + 1) for k in range(6)), 1)),
        ],
        ids=["cube6", "cross6"],
    )
    def test_cube6_and_cross6(self, pts, f_vector):
        self._agree(facet_presentation(pts), f_vector)


class TestClosureCheck:
    def test_dropped_facet_is_refused(self):
        P = facet_presentation(SQUARE)
        broken = checked_polytope(P.n, P.vertices, P.facets[1:])
        with pytest.raises(InvalidPolytope, match="closure"):
            build_face_lattice(broken)

    def test_facets_through_one_vertex_are_refused(self):
        # two edges of a triangle meet in a vertex on every facet given, so
        # no set of facets cuts out the empty face
        P = facet_presentation(simplex(2))
        broken = checked_polytope(P.n, P.vertices, P.facets[1:])
        with pytest.raises(InvalidPolytope, match="^face lattice closure broken: a vertex lies on every facet$"):
            build_face_lattice(broken)

    def test_facet_off_the_vertices_is_refused(self):
        # the checked polytope ranks its facets when it is built: this one holds no vertex
        P = facet_presentation(SQUARE)
        (u, a), rest = P.facets[0], P.facets[1:]
        shifted = re.escape(str((u, a + 1)))
        with pytest.raises(InvalidPolytope, match=rf"facet {shifted} spans a -1-face, not an 1-face"):
            checked_polytope(P.n, P.vertices, [(u, a + 1)] + list(rest))

    def test_supporting_line_at_a_vertex_is_refused(self):
        # x + y >= 0 touches the square only at the origin: every vertex is
        # still cut out by its facets, and only the facet's rank is wrong
        P = facet_presentation(SQUARE)
        with pytest.raises(InvalidPolytope, match=r"facet \(\(1, 1\), 0\) spans a 0-face"):
            checked_polytope(P.n, P.vertices, [*P.facets, ((1, 1), 0)])

    def test_vertex_outside_a_facet_is_refused(self):
        # x + y >= 1 passes through two vertices of the unit square, so it
        # spans a 1-face, but the origin lies outside it: unchecked, the
        # lattice closes to the f-vector (1, 4, 5, 1)
        P = facet_presentation(SQUARE)
        with pytest.raises(InvalidPolytope, match=r"^vertex \(0, 0\) violates facet \(\(1, 1\), -1\)$"):
            checked_polytope(P.n, P.vertices, [*P.facets, ((1, 1), -1)])

    @pytest.mark.parametrize(
        "pts",
        [*CORPUS.values(), *(json.loads(p.read_text())["vertices"] for p in FIXTURE_POLYTOPES)],
        ids=[*CORPUS, *(p.stem for p in FIXTURE_POLYTOPES)],
    )
    def test_every_corpus_and_fixture_polytope_builds(self, pts):
        # each vertex is on the inner side of each facet
        P = facet_presentation(pts)
        assert checked_polytope(P.n, P.vertices, P.facets) == P

    @pytest.mark.parametrize("pts", [SQUARE, PYRAMID, cube(4), cross(4), CORPUS["random3"]])
    def test_each_facet_is_ranked_once(self, pts, monkeypatch):
        # the hull proves its facets' ranks, so the library has no rank to
        # take, and only the checked hand-built polytope ranks them, once each
        calls = []

        def counting(points):
            calls.append(len(points))
            return _affine_rank(points)

        monkeypatch.setattr(hull_oracle, "_affine_rank", counting)
        P = facet_presentation(pts)
        build_face_lattice(P)
        assert calls == []
        assert not hasattr(polytope, "_affine_rank") and not hasattr(polytope, "_rank")
        checked_polytope(P.n, P.vertices, P.facets)
        assert len(calls) == len(P.facets)

    @pytest.mark.parametrize(
        "pts",
        [
            *CORPUS.values(),
            *(json.loads(p.read_text())["vertices"] for p in FIXTURE_POLYTOPES),
            cube(5),
            cross(5),
        ],
        ids=[*CORPUS, *(p.stem for p in FIXTURE_POLYTOPES), "cube5", "cross5"],
    )
    def test_checking_constructor_accepts_the_hull(self, pts):
        self.assert_hull_passes_the_checks(pts)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_checking_constructor_accepts_random_hulls(self, data):
        # doubled draws, with the sums of some pairs: midpoints that often
        # lie on a facet without being vertices, and some points repeated
        n = data.draw(st.integers(1, 5), label="n")
        coords = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        base = [[2 * x for x in p] for p in data.draw(st.lists(coords, min_size=n + 1, max_size=n + 8))]
        pair = st.tuples(st.sampled_from(base), st.sampled_from(base))
        mids = [list(map(sum, zip(p, q))) for p, q in data.draw(st.lists(pair, max_size=6))]
        repeats = data.draw(st.lists(st.sampled_from(base), max_size=3))
        try:
            facet_presentation(base)
        except InvalidPolytope:
            return  # no full-dimensional hull to check
        self.assert_hull_passes_the_checks(base + mids + repeats)

    @staticmethod
    def assert_hull_passes_the_checks(pts):
        P = facet_presentation(pts)
        checked = checked_polytope(P.n, P.vertices, P.facets)
        assert checked == P
        assert checked.facet_vertices == P.facet_vertices

    def test_facet_vertices_are_the_tight_vertices(self):
        for name in CORPUS:
            P = build(name).polytope
            assert P.facet_vertices == tuple(
                sum(1 << i for i, v in enumerate(P.vertices) if sum(map(mul, v, u)) == -a)
                for u, a in P.facets
            ), name


class TestFaceBudget:
    def test_budget_covers_the_largest_lattice_in_use(self):
        # the hull of 40 points of random.Random(1) in [-3, 3]^6, drawn point
        # by point: the largest face lattice the desk-scale table builds
        rng = random.Random(1)
        pts = [tuple(rng.randint(-3, 3) for _ in range(6)) for _ in range(40)]
        lattice = build_face_lattice(facet_presentation(pts))
        assert len(lattice.faces) == 10_712 <= polytope.MAX_FACES
        assert sum(map(int.bit_count, lattice.up)) == 266_979 <= polytope.MAX_PAIRS
        # and the 14-simplex, 2**15 faces, is past it, as the 13-simplex's
        # 3**14 comparable pairs are past the Eulerian check's
        assert polytope.MAX_FACES < 2**15 and polytope.MAX_PAIRS < 3**14

    def test_closure_stops_at_the_budget_before_the_order_masks(self, monkeypatch):
        P = facet_presentation(CORPUS["cube"])  # 28 faces, the empty face and P included
        monkeypatch.setattr(polytope, "MAX_FACES", 28)
        assert len(build_face_lattice(P).faces) == 28

        def no_lattice(*args):
            raise AssertionError("the order masks were built")

        monkeypatch.setattr(polytope, "MAX_FACES", 27)
        monkeypatch.setattr(polytope, "FaceLattice", no_lattice)
        with pytest.raises(InvalidPolytope, match="8 vertices and 6 facets give more than 27 faces"):
            build_face_lattice(P)

    def test_closure_stops_at_the_budget_on_the_facet_side(self, monkeypatch):
        # the octahedron has fewer vertices than facets, so it closes facet
        # sets, and the refusal still counts vertices first
        P = facet_presentation(cross(3))  # 28 faces, the empty face and P included
        widths, close = [], polytope._close

        def recorded(rows, width, top, refusal):
            widths.append(width)
            return close(rows, width, top, refusal)

        monkeypatch.setattr(polytope, "_close", recorded)
        monkeypatch.setattr(polytope, "MAX_FACES", 28)
        assert len(build_face_lattice(P).faces) == 28
        assert widths == [8]

        def no_lattice(*args):
            raise AssertionError("the order masks were built")

        monkeypatch.setattr(polytope, "MAX_FACES", 27)
        monkeypatch.setattr(polytope, "FaceLattice", no_lattice)
        with pytest.raises(InvalidPolytope, match="6 vertices and 8 facets give more than 27 faces"):
            build_face_lattice(P)


class TestEulerianBudget:
    def test_check_stops_at_the_budget_before_any_pair(self, monkeypatch):
        lattice = build("cube")
        # 5**3 nested pairs of nonempty faces, and the empty face under all 28
        assert sum(map(int.bit_count, lattice.up)) == 153
        monkeypatch.setattr(polytope, "MAX_PAIRS", 153)
        assert validate_eulerian(lattice)

        def no_pairs(*args):
            raise AssertionError("a pair was visited")

        monkeypatch.setattr(polytope, "MAX_PAIRS", 152)
        monkeypatch.setattr(polytope, "eulerian_check", no_pairs)
        with pytest.raises(InvalidPolytope, match="28 faces give 153 comparable pairs, more than 152"):
            validate_eulerian(lattice)


@st.composite
def int_matrices(draw):
    nrows = draw(st.integers(min_value=1, max_value=5))
    ncols = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-3, max_value=3)
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols


@st.composite
def dependent_matrices(draw):
    """Integer combinations of a few base rows, some columns then zeroed."""
    ncols = draw(st.integers(min_value=1, max_value=7))
    row = st.lists(st.integers(min_value=-9, max_value=9), min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, min_size=1, max_size=4))
    coeffs = st.lists(st.integers(min_value=-4, max_value=4), min_size=len(base), max_size=len(base))
    zeros = draw(st.sets(st.integers(min_value=0, max_value=ncols - 1), max_size=3))
    return [
        [0 if j in zeros else sum(c * b[j] for c, b in zip(cs, base)) for j in range(ncols)]
        for cs in draw(st.lists(coeffs, min_size=1, max_size=8))
    ]


class TestElimination:
    """_start_simplex, one fraction-free Gauss-Jordan pass, against Fraction elimination."""

    @settings(max_examples=300, deadline=None)
    @given(dependent_matrices())
    def test_fraction_free_rank_matches_fraction_oracle(self, rows):
        # every division of the Gauss-Jordan pass is exact: no ArithmeticError
        assert len(_start_simplex(rows)) == fraction_rank(rows)

    @settings(max_examples=200, deadline=None)
    @given(int_matrices())
    def test_rank_nullity_and_transpose(self, matrix):
        rows, ncols = matrix
        chosen = _start_simplex(rows)
        # the vectors are rows of an invertible matrix: as many independent as rows chosen
        assert fraction_rank([vec for _, vec in chosen]) == len(chosen)
        assert len(chosen) == len(_start_simplex([list(col) for col in zip(*rows)]))

    @settings(max_examples=200, deadline=None)
    @given(int_matrices())
    def test_int_elimination_matches_fraction_oracle(self, matrix):
        rows, ncols = matrix
        chosen = _start_simplex(rows)
        assert len(chosen) == fraction_rank(rows)
        # the chosen rows are the pivot columns of the transpose (the hull's
        # start simplex), and the transpose's chosen rows those of the matrix
        cols = [list(col) for col in zip(*rows)]
        assert [i for i, _ in chosen] == fraction_echelon(cols, len(rows))[1]
        assert [i for i, _ in _start_simplex(cols)] == fraction_echelon(rows, ncols)[1]
        ids = [i for i, _ in chosen]
        for i, vec in chosen:
            vec = _primitive(vec)
            assert all(type(x) is int for x in vec)
            assert sum(map(mul, rows[i], vec)) > 0
            others = [rows[j] for j in ids if j != i]
            assert all(sum(map(mul, row, vec)) == 0 for row in others)
            if len(chosen) == ncols:
                # the other chosen rows have a one-dimensional kernel: vec spans it
                (kernel,) = fraction_nullspace(others, ncols)
                d = lcm(*(x.denominator for x in kernel))
                expected = _primitive([int(x * d) for x in kernel])
                if sum(map(mul, rows[i], expected)) < 0:
                    expected = tuple(-x for x in expected)
                assert vec == expected


def _cloud(n, seed, draws, radius):
    """Seeded draws in {-radius..radius}^n, two of them repeated, and the origin."""
    rng = random.Random(f"hull-oracle:{n}:{seed}")
    pts = [tuple(rng.randint(-radius, radius) for _ in range(n)) for _ in range(draws)]
    return pts + rng.sample(pts, 2) + [(0,) * n]


def _cube_faces(n, centres):
    """{0,2}^n, the centres of the first `centres` facets, and the centre of the cube."""
    pts = list(itertools.product((0, 2), repeat=n))
    pts += [tuple(c if j == i else 1 for j in range(n)) for i in range(n) for c in (0, 2)][:centres]
    return pts + [(1,) * n]


def _cross_faces(n):
    """The cross-polytope of radius 2, the midpoints of the edges at 2e_1, and 0."""
    pts = [tuple(s * 2 * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    pts += [tuple((i == 0) + s * (i == j) for i in range(n)) for j in range(1, n) for s in (1, -1)]
    return pts + [(0,) * n]


HULL_CLOUDS = {
    **{
        f"cloud{n}-{seed}": _cloud(n, seed, draws, radius)
        for n, draws, radius in [(2, 12, 3), (3, 12, 2), (4, 11, 2), (5, 10, 1), (6, 10, 1)]
        for seed in (1, 2)
    },
    **{f"cube{n}-faces": _cube_faces(n, centres) for n, centres in [(2, 4), (3, 6), (4, 2)]},
    **{f"cross{n}-faces": _cross_faces(n) for n in (2, 3, 4)},
}


class TestHullAgainstSubsetFitting:
    """Double description against fitting every n-subset, exactly."""

    @staticmethod
    def assert_same_hull(points):
        got, expected = facet_presentation(points), subset_facet_presentation(points)
        assert got.facets == expected.facets
        assert got.vertices == expected.vertices
        assert build_face_lattice(got).f_vector == build_face_lattice(expected).f_vector
        assert all(type(x) is int for u, a in got.facets for x in (*u, a))

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus(self, name):
        self.assert_same_hull(CORPUS[name])

    @pytest.mark.parametrize("name", list(HULL_CLOUDS))
    def test_clouds(self, name):
        self.assert_same_hull(HULL_CLOUDS[name])

    @pytest.mark.parametrize(
        "points",
        [
            [],
            [(0, 0), (1, 1, 1), (0, 1)],
            [(0, 0), (1, 1), (0, 0)],
            [(0, 0), (1, 1), (2, 2), (3, 3)],
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 3, 0)],
        ],
    )
    def test_same_refusal(self, points):
        with pytest.raises(InvalidPolytope) as expected:
            subset_facet_presentation(points)
        with pytest.raises(InvalidPolytope) as got:
            facet_presentation(points)
        assert str(got.value) == str(expected.value)


class TestFaceLatticeAgainstOracle:
    """The one-pass closure and grading against brute-force intersection and Fraction ranks."""

    @staticmethod
    def assert_same_lattice(P):
        lattice = build_face_lattice(P)
        expected = oracle_faces(P)
        assert len(lattice.faces) == len(expected)
        # face by face, so that a failure reports one face, not two long lists
        for fid, (f, (dim, vertices, tight)) in enumerate(zip(lattice.faces, expected)):
            want = dim, sum(1 << i for i in vertices), sum(1 << F for F in tight)
            assert (f.dim, f.vertex_mask, f.tight_mask) == want, fid
        for fid, masks in enumerate(zip(*oracle_order(expected))):
            assert (lattice.up[fid], lattice.down[fid]) == masks, fid

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus(self, name):
        self.assert_same_lattice(facet_presentation(CORPUS[name]))

    @pytest.mark.parametrize("name", list(HULL_CLOUDS))
    def test_clouds(self, name):
        self.assert_same_lattice(facet_presentation(HULL_CLOUDS[name]))

    @pytest.mark.parametrize("pts", [cube(5), cross(5)], ids=["cube5", "cross5"])
    def test_cube5_and_cross5(self, pts):
        self.assert_same_lattice(facet_presentation(pts))

    # drawn once here, not by random_lattice, which draws again while the build refuses
    @pytest.mark.parametrize("shape", [(5, 3, 12, 2), (6, 3, 12, 1)], ids=["random5", "random6"])
    def test_random(self, shape):
        self.assert_same_lattice(facet_presentation(_cloud(*shape)))


class TestBothSidesOfTheIncidence:
    """The closure on the vertex side and on the facet side (the polar
    polytope's lattice) give the same faces, and build_face_lattice gives
    them on whichever side it takes."""

    @staticmethod
    def side(P, polar):
        """{(vertex mask, tight mask, dim)} closed by _close on one side, the
        facet side's rows (each vertex's facet mask) read off the inequalities."""
        if not polar:
            grade, tight = polytope._close(P.facet_vertices, len(P.vertices), P.n, "past the budget")
            return {(s, tight[s], grade[s]) for s in grade}
        rows = [
            sum(1 << F for F, (u, a) in enumerate(P.facets) if sum(map(mul, v, u)) == -a)
            for v in P.vertices
        ]
        grade, vertices = polytope._close(rows, len(P.facets), P.n, "past the budget")
        return {(vertices[t], t, P.n - 1 - grade[t]) for t in grade}

    @staticmethod
    def outcome(P, faces):
        """build_face_lattice's refusal for faces closed on either side, or the faces."""
        dims = {s: d for s, _, d in faces}
        if 0 not in dims:
            return "face lattice closure broken: a vertex lies on every facet"
        for i, v in enumerate(P.vertices):
            if dims.get(1 << i) != 0:
                return f"face lattice closure broken: vertex {v} is not cut out by its facets"
        return faces

    @pytest.mark.parametrize(
        "pts",
        [
            *CORPUS.values(),
            *HULL_CLOUDS.values(),
            cube(5),
            cross(5),
            _cloud(5, 3, 12, 2),
            _cloud(6, 3, 12, 1),
            _desk_cloud(40, 3, 5),
        ],
        ids=[*CORPUS, *HULL_CLOUDS, "cube5", "cross5", "random5", "random6", "38-vertex-5-polytope"],
    )
    def test_same_faces(self, pts):
        P = facet_presentation(pts)
        faces = build_face_lattice(P).faces
        closed = {(f.vertex_mask, f.tight_mask, f.dim) for f in faces}
        assert len(closed) == len(faces)
        assert self.side(P, polar=False) == closed
        assert self.side(P, polar=True) == closed

    @settings(max_examples=300, deadline=None)
    @given(hull_clouds(), st.data())
    def test_clouds_with_a_facet_dropped(self, pts, data):
        # both sides refuse with the same message, or build the same faces
        try:
            P = facet_presentation(pts)
        except InvalidPolytope:
            assume(False)
        k = data.draw(st.integers(0, len(P.facets) - 1), label="dropped facet")
        broken = checked_polytope(P.n, P.vertices, P.facets[:k] + P.facets[k + 1 :])
        primal, polar = (self.outcome(broken, self.side(broken, side)) for side in (False, True))
        assert primal == polar
        try:
            lattice = build_face_lattice(broken)
        except InvalidPolytope as exc:
            assert str(exc) == primal
        else:
            assert {(f.vertex_mask, f.tight_mask, f.dim) for f in lattice.faces} == primal


class TestHullClosedForms:
    """Shapes the subset loop could not finish: C(64, 6) subsets for cube6."""

    @pytest.mark.parametrize("n", [5, 6])
    def test_cube(self, n):
        P = facet_presentation(cube(n))
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        assert P.facets == tuple(sorted([(e, 0) for e in unit] + [(tuple(-x for x in e), 1) for e in unit]))
        assert P.vertices == tuple(cube(n))
        # f_k = C(n, k) 2^(n-k)
        f = build_face_lattice(P).f_vector
        assert f == (1, *(comb(n, k) * 2 ** (n - k) for k in range(n)), 1)

    @pytest.mark.parametrize("n", [5, 6])
    def test_cross(self, n):
        P = facet_presentation(cross(n))
        signs = itertools.product((1, -1), repeat=n)
        assert P.facets == tuple(sorted((s, 1) for s in signs))
        assert P.vertices == tuple(sorted(cross(n)))
        # f_k = 2^(k+1) C(n, k+1)
        f = build_face_lattice(P).f_vector
        assert f == (1, *(2 ** (k + 1) * comb(n, k + 1) for k in range(n)), 1)
        assert all(type(x) is int for u, a in P.facets for x in (*u, a))


class TestBitmaskOrder:
    """leq, the intervals up[a] & down[b] and subfaces against inclusion of vertex sets."""

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus(self, name):
        self.assert_inclusion_order(build_face_lattice(facet_presentation(CORPUS[name])))

    @pytest.mark.parametrize("n,seed,radius,draws", RANDOM_SHAPES)
    def test_random(self, n, seed, radius, draws):
        self.assert_inclusion_order(random_lattice(n, seed, radius, draws))

    @staticmethod
    def assert_inclusion_order(lattice):
        sets = [f.vertex_mask for f in lattice.faces]
        ids = range(len(sets))
        for a in ids:
            assert lattice.subfaces(a) == [
                e for e in ids if lattice.faces[e].dim >= 0 and sets[e] & ~sets[a] == 0
            ]
            for b in ids:
                assert lattice.leq(a, b) == (sets[a] & ~sets[b] == 0)
                assert mask_ids(lattice.up[a] & lattice.down[b]) == [
                    e for e in ids if sets[a] & ~sets[e] == 0 and sets[e] & ~sets[b] == 0
                ]


class TestCacheBounds:
    def test_bounded_cache_drops_its_oldest(self):
        cache = BoundedCache(3)
        for k in range(5):
            cache[k] = k
        cache[3] = "again"  # overwriting a kept key evicts nothing
        assert cache == {2: 2, 3: "again", 4: 4}
        assert cache.evictions == 2

    def test_points_cache_past_its_bound(self):
        lattice = build_face_lattice(facet_presentation(SEGMENT))
        for ell in range(1, MEMO_MAX + 3):
            points_by_face(lattice, ell)
        assert len(lattice._memo) == MEMO_MAX
        assert min(lattice._memo) == 3
        assert points_by_face(lattice, 1) == box_points_by_face(lattice, 1)

    def test_weight_memo_past_its_bound(self):
        # each integrand adds Etilde(-1) under (phi, -1) to the weight's memo
        from wehrhart.ehrhart import verify_reciprocity
        from wehrhart.weights import all_ones

        f = all_ones(build("square"))
        for c in range(1, MEMO_MAX + 4):
            (check,) = verify_reciprocity(f, HomogPoly(2, [((0, 0), c)]), [1])
            assert check.passed
        assert len(f._memo) == MEMO_MAX
        assert f._memo.evictions > 0

    def test_phi_sums_past_its_bound(self):
        from wehrhart.ehrhart import _phi_face_sums

        lattice = build_face_lattice(facet_presentation(SEGMENT))
        phi = HomogPoly.one(1)
        for ell in range(1, MEMO_MAX + 3):
            _phi_face_sums(lattice, phi, ell)
        assert len(lattice._memo) == MEMO_MAX
        assert (phi, 1) not in lattice._memo
        # the relative interior of ell*[0, 1] has ell - 1 points
        assert _phi_face_sums(lattice, phi, 1)[lattice.top_id] == 0
        assert _phi_face_sums(lattice, phi, 9)[lattice.top_id] == 8

    def test_both_signs_share_phi_sums_and_its_bound(self):
        from wehrhart.ehrhart import _phi_face_sums

        lattice = build_face_lattice(facet_presentation(SEGMENT))
        memo, phi = lattice._memo, HomogPoly.one(1)
        top = lattice.top_id
        # S(z) = z - 1 on the open segment: walked at +ell, interpolated at -ell
        last = MEMO_MAX // 2 + 1
        for ell in range(1, last + 1):
            assert _phi_face_sums(lattice, phi, ell)[top] == ell - 1
            assert _phi_face_sums(lattice, phi, -ell)[top] == -ell - 1
        # the interpolant walks only ell = 1 (K = 1 on the segment), already
        # kept when -1 was read, and went in after it: the two signs
        # alternate after the table, which the two evictions took
        assert len(memo) == MEMO_MAX
        assert memo.evictions == 2 * last + 1 - MEMO_MAX == 2
        assert (phi, 1) not in memo and phi not in memo and (phi, -1) in memo
        assert (phi, 2) in memo and (phi, -2) in memo
        # rebuilt after the eviction: from a fresh walk, and off a new table
        assert _phi_face_sums(lattice, phi, 1)[top] == 0
        assert _phi_face_sums(lattice, phi, -last - 1)[top] == -last - 2
        assert phi in memo and memo.evictions == 5

    def test_face_polynomials_past_their_bound(self):
        from wehrhart.ehrhart import _face_polynomials

        lattice = build_face_lattice(facet_presentation(SEGMENT))
        # each table takes two entries, its walk at ell = 1 and itself
        phis = [HomogPoly(1, [((0,), c)]) for c in range(1, MEMO_MAX // 2 + 3)]
        for phi in phis:
            _face_polynomials(lattice, phi)
        assert list(lattice._memo)[:2] == [phis[1], (phis[2], 1)]
        assert lattice._memo.evictions == 3
        # S(z) = c (z - 1) on the open segment, over D = 1!
        assert _face_polynomials(lattice, phis[2])[1][lattice.top_id] == (-3, 3)

    def test_values_at_negative_outlive_their_face_polys_entry(self):
        from wehrhart.ehrhart import _face_polynomials, _phi_face_sums

        lattice = build_face_lattice(facet_presentation(SEGMENT))
        memo, top, phi = lattice._memo, lattice.top_id, HomogPoly(1, [((0,), 1)])
        # S(-ell) = -ell - 1 on the open segment, after the walk at 1 and the table
        kept = _phi_face_sums(lattice, phi, -2)
        assert kept[top] == -3
        for ell in range(1, MEMO_MAX):
            points_by_face(lattice, ell)
        assert phi not in memo and memo.evictions == 2
        # the values stay, and reading them rebuilds nothing
        assert _phi_face_sums(lattice, phi, -2) is kept and kept[top] == -3
        assert phi not in memo
        # a new dilation misses and rebuilds the interpolant
        assert _phi_face_sums(lattice, phi, -3)[top] == -4
        assert phi in memo and memo.evictions == 5
        assert _face_polynomials(lattice, phi)[1][top] == (-1, 1)

    def test_memo_drops_its_oldest_entry_of_any_kind(self):
        from wehrhart.ehrhart import _face_polynomials, _phi_face_sums

        lattice = build_face_lattice(facet_presentation(SQUARE))
        memo, phi = lattice._memo, HomogPoly.one(2)
        # the table walks ell = 1, 2 (K = 2 on the square), then the
        # partition at 1 and the sums at -1, read off the table
        table = _face_polynomials(lattice, phi)
        walked = _phi_face_sums(lattice, phi, 1)
        points = points_by_face(lattice, 1)
        minus = _phi_face_sums(lattice, phi, -1)
        assert list(memo) == [(phi, 1), (phi, 2), phi, 1, (phi, -1)]
        for ell in range(2, MEMO_MAX - 3):
            points_by_face(lattice, ell)
        assert len(memo) == MEMO_MAX and memo.evictions == 0
        # each new entry drops the oldest, whatever its kind
        points_by_face(lattice, MEMO_MAX - 3)
        points_by_face(lattice, MEMO_MAX - 2)
        assert list(memo)[:3] == [phi, 1, (phi, -1)] and memo.evictions == 2
        points_by_face(lattice, MEMO_MAX - 1)
        assert phi not in memo and memo.evictions == 3
        # the sums at -1 outlive their table, and reading them rebuilds nothing
        assert _phi_face_sums(lattice, phi, -1) is minus and phi not in memo
        # rebuilt after the eviction, each equal to its value before it; the
        # table walks ell = 2 again, and each of the five entries drops one
        assert _phi_face_sums(lattice, phi, 1) == walked
        assert _face_polynomials(lattice, phi) == table
        assert points_by_face(lattice, 1) == points == box_points_by_face(lattice, 1)
        assert _phi_face_sums(lattice, phi, -1) == minus
        assert len(memo) == MEMO_MAX and memo.evictions == 8

    def test_verify_at_the_largest_lmax_evicts_nothing(self, tmp_path, monkeypatch):
        from wehrhart import cli, jsonio

        built = []

        def keep(P):
            built.append(build_face_lattice(P))
            return built[-1]

        monkeypatch.setattr(jsonio, "build_face_lattice", keep)
        path = tmp_path / "cube.json"
        path.write_text(json.dumps({"vertices": [list(v) for v in CORPUS["cube"]]}))
        argv = ["verify", str(path), "--suite", "all", "--lmax", str(cli.MAX_LMAX)]
        assert cli.run(cli.parse_args(argv), stdout=io.StringIO()) == 0
        (lattice,) = built
        memo = lattice._memo
        kinds = [sum(isinstance(key, kind) for key in memo) for kind in (int, tuple, HomogPoly)]
        assert kinds == [cli.MAX_LMAX, 2 * cli.MAX_LMAX, 1]
        assert len(memo) == MEMO_MAX == 37 and memo.evictions == 0
