"""Weighted counting and verifier tests.

Expected values were derived by hand before implementation: segment and
square interpolation systems, the three segment character sums, and the
character-sum duality case for the delta weight on the segment's edge
(both sides expand to -(1+y)y^-1 * (chi^0 + chi^(-1))).
"""

import itertools
import random
from fractions import Fraction
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import wehrhart.ehrhart as eh
from box_oracle import (
    RANDOM_6,
    RANDOM_SHAPES,
    box_phi_face_sums,
    cross,
    cube,
    fibre_phi_face_sums,
    random_lattice,
)
from charsum_oracle import (
    apply_phi,
    constant_term,
    negate_characters,
    pointwise_character_sum,
    pointwise_hodge_duality,
)
from interp_oracle import (
    face_identity_failures,
    forward_differences,
    lagrange_fit,
    per_face_polynomials,
    per_face_weighted_polynomial,
    per_weight_polynomial,
)
from test_jsonio import plain_check_json, plain_side, rendered_check
from wehrhart.algebra import (
    HomogPoly,
    LaurentPoly,
    ZPoly,
    lagrange_interpolate,
    neg_y_power,
    substitute_inverse,
    substitute_negative,
)
from wehrhart.corpus import CORPUS, build, names
from wehrhart.ehrhart import (
    CheckResult,
    OrbitSum,
    PolynomialityError,
    e_form,
    ehrhart_polynomial,
    hodge_character_sum,
    verify_duality_reciprocity,
    verify_hodge_duality,
    verify_purity,
    verify_reciprocity,
    weighted_ehrhart_value,
)
from wehrhart.polytope import (
    FaceLattice,
    build_face_lattice,
    facet_presentation,
    points_by_face,
)
from wehrhart.stanley import g_weight_function, h_polynomial
from wehrhart.weights import (
    WeightFunction,
    all_ones,
    delta_weight,
    dualize,
    random_laurent,
    random_weight_functions,
    scale,
)


def L(d):
    return LaurentPoly(d)


def phi_one(n):
    return HomogPoly.one(n)


def phi_coord(n, i=0):
    exps = tuple(1 if j == i else 0 for j in range(n))
    return HomogPoly(n, [(exps, 1)])


class TestHodgeCharacterSum:
    def test_segment_positive(self):
        lat = build("segment")
        s = hodge_character_sum(all_ones(lat), 1)
        assert dict(s.terms()) == {(-1,): L({0: 1}), (0,): L({0: 1})}

    def test_segment_zero(self):
        lat = build("segment")
        s = hodge_character_sum(all_ones(lat), 0)
        assert dict(s.terms()) == {(0,): L({0: 1, 1: -1})}

    def test_segment_negative(self):
        lat = build("segment")
        s = hodge_character_sum(all_ones(lat), -1)
        assert dict(s.terms()) == {(0,): L({1: -1}), (1,): L({1: -1})}

    def test_one_type_at_every_sign(self):
        lat = build("square")
        for ell in (-2, 0, 2):
            assert type(hodge_character_sum(all_ones(lat), ell)) is OrbitSum

    def test_zero_is_one_orbit_at_the_origin(self):
        lat = build("square")
        s = hodge_character_sum(all_ones(lat), 0)
        # 4 vertices + 4 edges (-1-y) + (-1-y)^2 = 1 - 2y + y^2
        assert s.terms() == [((0, 0), L({0: 1, 1: -2, 2: 1}))]
        assert list(s.coeffs) == [lat.empty_id]



def oracle_weight_set(lat, seed):
    """All-ones, the g-weights of P and three seeded random weight functions."""
    return [all_ones(lat), g_weight_function(lat, lat.top_id)] + random_weight_functions(
        lat, seed, 3
    )


class TestCharacterSumAgainstPointwiseOracle:
    """The per-face coefficients against the sum built one lattice point at a time."""

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus(self, name):
        lat = build(name)
        for f in oracle_weight_set(lat, 17):
            for ell in range(-3, 4):
                s = hodge_character_sum(f, ell)
                assert dict(s.terms()) == pointwise_character_sum(lat, f, ell)

    @pytest.mark.parametrize("n,seed", [(n, seed) for n in (2, 3, 4, 5) for seed in (5, 6)])
    def test_random(self, n, seed):
        lat = random_lattice(n, seed, 1, n + 4)
        for f in oracle_weight_set(lat, seed):
            for ell in range(-3, 4):
                s = hodge_character_sum(f, ell)
                assert dict(s.terms()) == pointwise_character_sum(lat, f, ell)


class TestNegateCharacters:
    """The oracle's m -> -m on point-keyed sums."""

    def test_origin_fixed(self):
        s = {(0, 0): L({0: 3})}
        assert negate_characters(s) == s

    def test_key_negation(self):
        assert negate_characters({(1, 2): L({0: 1})}) == {(-1, -2): L({0: 1})}

    def test_involution(self):
        s = {(0, -3): L({-1: 2}), (1, 2): L({1: 1})}
        assert negate_characters(negate_characters(s)) == s


class TestApplyPhi:
    """The oracle's push of a point-keyed sum through an integrand."""

    def test_degree_zero_variants_agree(self):
        s = {(-2,): L({1: 3}), (0,): L({0: 1})}
        one = phi_one(1)
        assert apply_phi(s, one, "E") == apply_phi(s, one, "Etilde") == L({0: 1, 1: 3})

    def test_segment_linear(self):
        s = {(-1,): L({0: 1}), (0,): L({0: 1})}
        phi = phi_coord(1)
        assert apply_phi(s, phi, "Etilde") == L({0: 1})
        assert apply_phi(s, phi, "E") == L({0: 1, 1: 1})

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_phi({(0,): L({0: 1})}, phi_one(2), "E")

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            apply_phi({}, phi_one(1), "X")


class TestWeightedValue:
    def test_segment_l2(self):
        lat = build("segment")
        v = weighted_ehrhart_value(all_ones(lat), phi_one(1), 2, "Etilde")
        assert v == L({0: 3, 1: 1})

    def test_square_l3_y0(self):
        lat = build("square")
        v = weighted_ehrhart_value(all_ones(lat), phi_one(2), 3, "Etilde")
        assert v.subs(0) == 16

    def test_segment_linear_l2(self):
        lat = build("segment")
        v = weighted_ehrhart_value(all_ones(lat), phi_coord(1), 2, "Etilde")
        assert v == L({0: 3, 1: 1})

    def test_matches_character_route(self):
        # the direct face-sum formula must agree with the sum pushed through phi
        for name in ("segment", "square", "pyramid"):
            lat = build(name)
            n = lat.polytope.n
            weights = [all_ones(lat)] + random_weight_functions(lat, seed=31, count=2)
            phis = [phi_one(n), phi_coord(n), HomogPoly(n, [((2,) + (0,) * (n - 1), 1)])]
            for f in weights:
                for phi in phis:
                    for ell in (1, 2, 3):
                        direct = weighted_ehrhart_value(f, phi, ell, "E")
                        s = hodge_character_sum(f, ell)
                        via_sum = apply_phi(dict(s.terms()), phi, "E")
                        assert direct == via_sum

    def test_rejects_nonpositive(self):
        lat = build("segment")
        with pytest.raises(ValueError):
            weighted_ehrhart_value(all_ones(lat), phi_one(1), 0, "E")


# every public entry point that takes a dilation, on (lattice, weight, phi, ell)
DILATION_CALLS = {
    "weighted_ehrhart_value": lambda lat, f, phi, ell: weighted_ehrhart_value(f, phi, ell, "E"),
    "verify_reciprocity": lambda lat, f, phi, ell: verify_reciprocity(f, phi, [ell]),
    "verify_duality_reciprocity": lambda lat, f, phi, ell: verify_duality_reciprocity(f, phi, [ell]),
    "verify_hodge_duality": lambda lat, f, phi, ell: verify_hodge_duality(f, [ell]),
    "verify_purity": lambda lat, f, phi, ell: verify_purity(
        g_weight_function(lat, lat.top_id), lat.top_id, phi, [ell]
    ),
    "hodge_character_sum": lambda lat, f, phi, ell: hodge_character_sum(f, ell),
    "points_by_face": lambda lat, f, phi, ell: points_by_face(lat, ell),
}


@pytest.mark.parametrize("ell", [True, 2.0, -2.0], ids=repr)
@pytest.mark.parametrize("name", sorted(DILATION_CALLS))
def test_dilation_must_be_an_int(name, ell):
    # True used to count as 1 (a report read "ell": "True"), and 2.0 either
    # failed inside range() in the walk or, once 2 was cached, counted as 2
    lat = build("square")
    weighted_ehrhart_value(all_ones(lat), phi_one(2), 2, "E")  # fill the caches at 2
    with pytest.raises(TypeError, match="is not an exact integer"):
        DILATION_CALLS[name](lat, all_ones(lat), phi_one(2), ell)


@pytest.mark.parametrize(
    "name,ell",
    [
        (name, ell)
        for name in sorted(DILATION_CALLS)
        for ell in (0, -1, True, 2.0, -2.0)
        # a character sum is defined at every integer dilation
        if not (name == "hodge_character_sum" and type(ell) is int)
    ],
    ids=str,
)
def test_bad_dilation_is_refused_before_any_sum(name, ell):
    lat = build_face_lattice(facet_presentation(CORPUS["square"]))
    with pytest.raises((TypeError, ValueError)):
        DILATION_CALLS[name](lat, all_ones(lat), phi_one(2), ell)
    assert not lat._memo


class TestEhrhartPolynomial:
    def test_segment_all_ones(self):
        lat = build("segment")
        zp = ehrhart_polynomial(all_ones(lat), phi_one(1), "Etilde")
        assert zp == ZPoly([L({0: 1, 1: -1}), L({0: 1, 1: 1})])

    def test_square_all_ones(self):
        lat = build("square")
        zp = ehrhart_polynomial(all_ones(lat), phi_one(2), "Etilde")
        assert zp == ZPoly(
            [L({0: 1, 1: -2, 2: 1}), L({0: 2, 2: -2}), L({0: 1, 1: 2, 2: 1})]
        )
        assert zp(4).subs(0) == 25

    def test_segment_linear_integrand(self):
        lat = build("segment")
        zp = ehrhart_polynomial(all_ones(lat), phi_coord(1), "Etilde")
        half = Fraction(1, 2)
        assert zp == ZPoly(
            [L({}), L({0: half, 1: -half}), L({0: half, 1: half})]
        )

    def test_constant_term_closed_form(self):
        lat = build("square")
        f = all_ones(lat)
        zp = ehrhart_polynomial(f, phi_one(2), "Etilde")
        assert zp(0) == constant_term(lat, f, phi_one(2), "Etilde")
        # 4 vertices + 4 edges (-1-y) + (-1-y)^2 = 1 - 2y + y^2
        assert zp(0) == L({0: 1, 1: -2, 2: 1})

    def test_positive_degree_vanishes_at_zero(self):
        lat = build("square")
        zp = ehrhart_polynomial(all_ones(lat), phi_coord(2), "E")
        assert not zp(0)

    def test_overdetermination_guard_fires_on_non_polynomial(self, monkeypatch):
        # a fresh lattice: the corpus one may already hold the per-face table.
        # The square walks ell = 1..2, so a step at ell = 2 reaches the samples
        lat = build_face_lattice(facet_presentation(CORPUS["square"]))
        real = eh._phi_face_sums
        vertex = lat.vertex_face_id(0)

        def warped(lattice, phi, ell):
            sums = dict(real(lattice, phi, ell))
            if ell >= 2:
                sums[vertex] += 1
            return sums

        monkeypatch.setattr(eh, "_phi_face_sums", warped)
        message = (
            rf"^face {vertex}: its samples at z = -2\.\.2 \(walked at 1\.\.2, by reciprocity "
            rf"at -2\.\.-1\) have a nonzero difference of order 1, above their degree 0$"
        )
        with pytest.raises(PolynomialityError, match=message):
            eh.ehrhart_polynomial(all_ones(lat), phi_one(2), "Etilde")

    def test_constant_term_guard_fires_on_offset_face(self, monkeypatch):
        # one face off by a constant at every walked dilation, and by
        # reciprocity at their negatives, still misses the closed form at
        # ell = 0: the samples 6, 6, 1, 6, 6 at -2..2 have a second difference
        lat = build_face_lattice(facet_presentation(CORPUS["square"]))
        vertex = lat.vertex_face_id(0)
        real = eh._phi_face_sums

        def offset(lattice, phi, ell):
            sums = dict(real(lattice, phi, ell))
            sums[vertex] += 5
            return sums

        monkeypatch.setattr(eh, "_phi_face_sums", offset)
        message = rf"^face {vertex}: .* order 2, above their degree 0$"
        with pytest.raises(PolynomialityError, match=message):
            eh.ehrhart_polynomial(all_ones(lat), phi_one(2), "E")

    @pytest.mark.parametrize("name", ["segment", "square", "cube", "random3"])
    @pytest.mark.parametrize("degree", [0, 1])
    @pytest.mark.parametrize("drop", [0, 1])
    def test_facet_identities_fire_on_warped_top_face(self, monkeypatch, name, degree, drop):
        # ell^j with j = deg - drop, deg = n + deg phi, reaches P's samples at
        # -ell as (-1)^deg ell^j.  For drop 0 that is z^deg, which passes the
        # differences; for drop 1 it is sign(z) z^j, odd for odd deg, which a
        # polynomial of P's degree fits on -K..K with odd powers only, and
        # even for even deg, which needs z^(deg + 2).  A fit moves z^deg, and
        # the divergence identity fires; no fit leaves a difference of order
        # deg + 1
        lat = build_face_lattice(facet_presentation(CORPUS[name]))
        deg = lat.polytope.n + degree
        top, j = lat.top_id, deg - drop
        real = eh._phi_face_sums

        def warped(lattice, phi, ell):
            sums = dict(real(lattice, phi, ell))
            sums[top] += ell**j
            return sums

        monkeypatch.setattr(eh, "_phi_face_sums", warped)
        if drop == 0 or deg % 2:
            message = rf"^face {top}: coefficient of z\^{deg} .*, facet identity .*$"
        else:
            message = rf"^face {top}: .* order {deg + 1}, above their degree {deg}$"
        with pytest.raises(PolynomialityError, match=message):
            eh.ehrhart_polynomial(all_ones(lat), mixed_phi(lat.polytope.n, degree), "E")

    @pytest.mark.parametrize("name", ["segment", "square", "cube", "random3"])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_interpolant_walks_up_to_n_plus_degree_plus_1(self, name, degree):
        # exactly ell = 1..K, K = ceil((n + deg phi + 1) / 2): reciprocity gives
        # the samples at -K..-1
        lat = build_face_lattice(facet_presentation(CORPUS[name]))
        phi = mixed_phi(lat.polytope.n, degree)
        eh.ehrhart_polynomial(all_ones(lat), phi, "E")
        last = (lat.polytope.n + degree + 2) // 2
        sums = {key for key in lat._memo if isinstance(key, tuple)}
        assert sums == {(phi, ell) for ell in range(1, last + 1)}

    @pytest.mark.parametrize("name", ["square", "cube"])
    def test_walked_set_ignores_cached_dilations(self, monkeypatch, name):
        # sums cached past K, as a verify --lmax run leaves them, are not read,
        # and the table equals the one from a cold lattice
        lat = build_face_lattice(facet_presentation(CORPUS[name]))
        phi = mixed_phi(lat.polytope.n, 1)
        for ell in range(1, 9):
            weighted_ehrhart_value(all_ones(lat), phi, ell, "E")
        cold = build_face_lattice(facet_presentation(CORPUS[name]))
        real, read = eh._phi_face_sums, []

        def spy(lattice, phi, ell):
            read.append(ell)
            return real(lattice, phi, ell)

        monkeypatch.setattr(eh, "_phi_face_sums", spy)
        assert eh._face_polynomials(lat, phi) == eh._face_polynomials(cold, phi)
        last = (lat.polytope.n + 1 + 2) // 2
        assert read == 2 * list(range(1, last + 1))

    @staticmethod
    def raises_on_warped_face(monkeypatch, lat, face, power, phi, message):
        """ell^power added to one face's sums must raise PolynomialityError matching message."""
        real = eh._phi_face_sums

        def warped(lattice, phi, ell):
            sums = dict(real(lattice, phi, ell))
            sums[face] += ell**power
            return sums

        monkeypatch.setattr(eh, "_phi_face_sums", warped)
        with pytest.raises(PolynomialityError, match=message):
            eh.ehrhart_polynomial(all_ones(lat), phi, "E")

    @pytest.mark.parametrize("name", ["cube", "random3"])
    @pytest.mark.parametrize("degree", [0, 1])
    def test_facet_identity_fires_on_warped_facet(self, monkeypatch, name, degree):
        # ell^(deg - 1) with deg = dim F + deg phi reaches F's samples at -ell
        # as -(-ell)^(deg - 1), so F's own differences fail: on a face with
        # deg <= K + 1 the Euler-Maclaurin identity is the z^(deg - 1)
        # coefficient of reciprocity, which the samples already impose
        lat = build_face_lattice(facet_presentation(CORPUS[name]))
        facet = next(q for q, f in enumerate(lat.faces) if f.dim == lat.polytope.n - 1)
        deg = lat.polytope.n - 1 + degree
        j = deg - 1
        message = rf"^face {facet}: .* order {deg + 1}, above their degree {deg}$"
        self.raises_on_warped_face(
            monkeypatch, lat, facet, j, mixed_phi(lat.polytope.n, degree), message
        )

    @pytest.mark.parametrize("name", ["cube", "random3"])
    @pytest.mark.parametrize("degree", [0, 1])
    def test_facet_identity_fires_above_warped_edge(self, monkeypatch, name, degree):
        # ell^(1 + deg phi) moves only the edge's leading coefficient, which
        # passes the edge's own checks; every 2-face above it reads the edge
        # in its samples at -ell, where no polynomial of its degree then
        # fits, and the first of them in id order fails
        lat = build_face_lattice(facet_presentation(CORPUS[name]))
        edge = next(q for q, f in enumerate(lat.faces) if f.dim == 1)
        above = min(q for q, f in enumerate(lat.faces) if f.dim == 2 and lat.leq(edge, q))
        deg = 2 + degree
        message = rf"^face {above}: .* order {deg + 1}, above their degree {deg}$"
        self.raises_on_warped_face(monkeypatch, lat, edge, 1 + degree, mixed_phi(3, degree), message)

    @pytest.mark.parametrize("name", ["segment", "square", "cube", "random3"])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_closed_form_fires_on_warped_vertex(self, monkeypatch, name, degree):
        lat = build_face_lattice(facet_presentation(CORPUS[name]))
        vertex = lat.vertex_face_id(0)
        message = rf"^face {vertex}: coefficient of z\^{degree} .*, closed form .*$"
        self.raises_on_warped_face(
            monkeypatch, lat, vertex, degree, mixed_phi(lat.polytope.n, degree), message
        )

    @pytest.mark.parametrize("name", ["cube", "random3"])
    def test_middle_coefficient_of_a_2_face_is_caught_above_it(self, monkeypatch, name):
        # ell^1 on a facet with a linear phi (deg 3) is z^1, which the
        # facet's own samples and identity accept; P reads it at -ell, where
        # no polynomial of degree 4 through its samples then fits
        lat = build_face_lattice(facet_presentation(CORPUS[name]))
        face = next(q for q, f in enumerate(lat.faces) if f.dim == 2)
        message = rf"^face {lat.top_id}: .* order 5, above their degree 4$"
        self.raises_on_warped_face(monkeypatch, lat, face, 1, mixed_phi(3, 1), message)

    @pytest.mark.parametrize(
        "name,dim",
        [(name, dim) for name, n in (("square", 2), ("cube", 3), ("random3", 3)) for dim in range(n)],
    )
    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("power", range(5))
    def test_every_warp_below_the_top_face_is_caught(self, monkeypatch, name, dim, degree, power):
        # ell^power on the first face of a dimension below n: what its own
        # checks accept, the samples at -ell of a face above it do not
        lat = build_face_lattice(facet_presentation(CORPUS[name]))
        face = next(q for q, f in enumerate(lat.faces) if f.dim == dim)
        phi = mixed_phi(lat.polytope.n, degree)
        self.raises_on_warped_face(monkeypatch, lat, face, power, phi, r"^face \d+: ")


class TestFacePolynomialsAgainstOracle:
    """The per-face table against per_face_polynomials, read past the walk.

    The table walks ell = 1 .. K and takes its samples at -K .. -1 from
    per-face reciprocity; the oracle fits ell = 1 .. n + deg phi + 3 alone,
    so it checks that reciprocity independently.  Dimension <= 4: the sums
    come from the box oracle.  Dimension 5: the box oracle's prefixes alone
    take 10 to 30 s to ell = 10 on cross5 and the random 5-polytope, so the
    oracle reads the walked sums (compared with the box at small ell in
    TestPhiFaceSumsAgainstPointSums).
    """

    def check(self, lat, face_sums=fibre_phi_face_sums):
        n = lat.polytope.n
        for degree in (0, 1, 2):
            phi = mixed_phi(n, degree)
            expected = per_face_polynomials(lat, phi, face_sums)
            assert face_identity_failures(lat, phi, expected) == []
            denom, table = eh._face_polynomials(lat, phi)
            assert {q: [Fraction(a, denom) for a in c] for q, c in table.items()} == expected

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus(self, name):
        self.check(build_face_lattice(facet_presentation(CORPUS[name])))

    @pytest.mark.parametrize("n,seed,radius,draws", RANDOM_SHAPES)
    def test_random(self, n, seed, radius, draws):
        lat = random_lattice(n, seed, radius, draws)
        self.check(lat, fibre_phi_face_sums if n <= 4 else eh._phi_face_sums)

    @pytest.mark.parametrize("shape", [cube, cross], ids=["cube5", "cross5"])
    def test_dimension_5(self, shape):
        self.check(build_face_lattice(facet_presentation(shape(5))), eh._phi_face_sums)


def delta_per_dimension(lat):
    """The delta weight of the first face of each dimension 0 .. n."""
    return [
        delta_weight(lat, next(q for q, f in enumerate(lat.faces) if f.dim == d))
        for d in range(lat.polytope.n + 1)
    ]


class TestPolynomialAgainstPerWeightOracle:
    """Per-face interpolants, combined per weight, against Lagrange through the weighted counts."""

    @staticmethod
    def check(lat, degrees, seed):
        n = lat.polytope.n
        weights = oracle_weight_set(lat, seed) + delta_per_dimension(lat)
        for phi in (mixed_phi(n, degree) for degree in degrees):
            for f in weights:
                for variant in ("E", "Etilde"):
                    expected = per_weight_polynomial(lat, f, phi, variant)
                    assert ehrhart_polynomial(f, phi, variant) == expected

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus(self, name):
        self.check(build(name), (0, 1, 2), 59)

    @pytest.mark.parametrize("n,seed,radius,draws", RANDOM_SHAPES)
    def test_random(self, n, seed, radius, draws):
        self.check(random_lattice(n, seed, radius, draws), (0, 1, 2), seed)

    @pytest.mark.parametrize("shape", ["cube5", "cross5", "random6"])
    def test_dimensions_5_and_6(self, shape):
        if shape == "random6":
            lat = random_lattice(*RANDOM_6[0])
        else:
            lat = build_face_lattice(facet_presentation({"cube5": cube, "cross5": cross}[shape](5)))
        n = lat.polytope.n
        for f in oracle_weight_set(lat, 61) + delta_per_dimension(lat):
            for variant in ("E", "Etilde"):
                expected = per_weight_polynomial(lat, f, phi_one(n), variant)
                assert ehrhart_polynomial(f, phi_one(n), variant) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fit_matrix_against_lagrange(data):
    # a polynomial of degree <= deg sampled at -K .. K: the fit rows give
    # bound! a_k and every check row vanishes; a +-1 warp of one sample
    # makes the first nonzero check row the first nonzero difference
    # above deg, differenced list by list
    bound = data.draw(st.integers(min_value=0, max_value=8), label="bound")
    deg = data.draw(st.integers(min_value=0, max_value=bound), label="deg")
    K = (bound + 2) // 2
    coeffs = data.draw(st.lists(st.integers(-50, 50), min_size=deg + 1, max_size=deg + 1))
    samples = [sum(c * z**k for k, c in enumerate(coeffs)) for z in range(-K, K + 1)]
    fit, checks = eh._fit_matrix(bound, deg)
    assert len(checks) == 2 * K - deg
    assert [sum(map(mul, r, samples)) for r in fit] == [factorial(bound) * c for c in coeffs]
    assert lagrange_fit(samples, -K, deg) == coeffs
    assert not any(sum(map(mul, r, samples)) for r in checks)

    i = data.draw(st.integers(min_value=0, max_value=2 * K), label="warped sample")
    samples[i] += data.draw(st.sampled_from((1, -1)), label="warp")
    fitted = [sum(map(mul, r, samples)) for r in fit]
    assert fitted == [factorial(bound) * c for c in lagrange_fit(samples, -K, deg)]
    lead = forward_differences(samples)
    first = next(j for j in range(deg + 1, 2 * K + 1) if lead[j])
    rows = [j for j, r in enumerate(checks, deg + 1) if sum(map(mul, r, samples))]
    assert rows[0] == first == max(i, deg + 1)


def _weights_with_repeats(lat, rng):
    """Each nonempty face drawn from a palette of two values, or left out."""
    palette = [random_laurent(rng) or L({0: 1}) for _ in range(2)]
    return WeightFunction(lat, {q: rng.choice(palette) for q in lat.nonempty_ids if rng.randrange(3)})


class TestGroupedSumAgainstPerFaceOracle:
    """ehrhart_polynomial sums the interpolants per (weight value, dimension),
    against one orbit coefficient per face (per_face_weighted_polynomial)."""

    @pytest.mark.parametrize("name", ["cube", "pyramid", "random3", "cross4"])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_weights_with_repeated_and_distinct_values(self, name, degree):
        lat = build_face_lattice(facet_presentation(cross(4) if name == "cross4" else CORPUS[name]))
        phi = mixed_phi(lat.polytope.n, degree)
        rng = random.Random(f"grouped:{name}:{degree}")
        weights = [all_ones(lat), g_weight_function(lat, lat.top_id)]
        weights += [_weights_with_repeats(lat, rng) for _ in range(2)]
        weights += random_weight_functions(lat, rng.randrange(1 << 30), 2)
        for f in weights:
            for variant in ("E", "Etilde"):
                expected = per_face_weighted_polynomial(lat, f, phi, variant)
                assert ehrhart_polynomial(f, phi, variant) == expected

    @pytest.mark.parametrize("degree", [0, 1])
    def test_one_laurent_product_per_group_and_coefficient(self, monkeypatch, degree):
        lat = build_face_lattice(facet_presentation(cube(5)))
        f, phi = all_ones(lat), mixed_phi(5, degree)
        eh._face_polynomials(lat, phi)  # no Laurent product; held on the lattice
        groups = {(fq, lat.faces[q].dim) for q, fq in f.values.items()}
        real, products = LaurentPoly.__mul__, []

        def counted(self, other):
            if isinstance(other, LaurentPoly):
                products.append(other)
            return real(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counted)
        for variant in ("E", "Etilde"):
            products.clear()
            ehrhart_polynomial(f, phi, variant)
            assert 0 < len(products) <= len(groups) + 5 + degree + 1


class TestVerifyReciprocity:
    def test_segment_linear_frozen_form(self):
        # Etilde(-l, y) = -l + (1+y) l(l+1)/2, checked for l = 1..3
        lat = build("segment")
        f = all_ones(lat)
        phi = phi_coord(1)
        zp = ehrhart_polynomial(f, phi, "Etilde")
        for ell, check in zip((1, 2, 3), verify_reciprocity(f, phi, (1, 2, 3), "Etilde"), strict=True):
            expected = L({0: -ell}) + L({0: 1, 1: 1}) * Fraction(ell * (ell + 1), 2)
            assert zp(-ell) == expected
            assert check.passed
            assert zp(-ell) == check.lhs

    def test_delta_top_is_classical(self):
        # |Relint(l P)| vs (-1)^n |l P| at y = 0
        lat = build("square")
        f = delta_weight(lat, lat.top_id)
        zp = ehrhart_polynomial(f, phi_one(2), "Etilde")
        checks = verify_reciprocity(f, phi_one(2), (1, 2, 3), "Etilde")
        for ell, check in zip((1, 2, 3), checks, strict=True):
            assert check.passed
            assert zp(-ell) == check.lhs
            assert zp(-ell).subs(0) == (ell + 1) ** 2  # (-1)^2 |lP|
            assert zp(ell).subs(0) == (ell - 1) ** 2

    def test_random_weights_pass(self):
        for name in ("square", "pyramid"):
            lat = build(name)
            n = lat.polytope.n
            for f in random_weight_functions(lat, seed=41, count=3):
                for variant in ("E", "Etilde"):
                    zp = ehrhart_polynomial(f, phi_coord(n), variant)
                    checks = verify_reciprocity(f, phi_coord(n), (1, 2), variant)
                    for ell, check in zip((1, 2), checks, strict=True):
                        assert check.passed
                        assert zp(-ell) == check.lhs


class TestVerifyDualityReciprocity:
    def test_pyramid_random(self):
        lat = build("pyramid")
        phi = HomogPoly(3, [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)])
        for f in random_weight_functions(lat, seed=43, count=2):
            zp = ehrhart_polynomial(f, phi, "E")
            for ell, check in zip((1, 2), verify_duality_reciprocity(f, phi, (1, 2), "E"), strict=True):
                assert check.passed
                assert zp(-ell) == check.lhs

    def test_agrees_with_reciprocity(self):
        lat = build("square")
        f = random_weight_functions(lat, seed=47, count=1)[0]
        phi = phi_coord(2)
        for variant in ("E", "Etilde"):
            zp = ehrhart_polynomial(f, phi, variant)
            recip = verify_reciprocity(f, phi, (1, 2, 3), variant)
            dual = verify_duality_reciprocity(f, phi, (1, 2, 3), variant)
            for ell, a, b in zip((1, 2, 3), recip, dual, strict=True):
                assert a.passed and b.passed
                assert a.lhs == b.lhs
                assert zp(-ell) == a.lhs

    def test_delta_weights_pass(self):
        lat = build("segment")
        for fid in lat.nonempty_ids:
            f = delta_weight(lat, fid)
            assert verify_duality_reciprocity(f, phi_one(1), [1], "E")[0].passed


class TestVerifyHodgeDuality:
    def test_segment_delta_edge_frozen(self):
        lat = build("segment")
        f = delta_weight(lat, lat.top_id)
        (check,) = verify_hodge_duality(f, [1])
        assert check.passed
        minus = L({-1: -1, 0: -1})  # -(1+y)/y
        assert dict(check.lhs.terms()) == {(-1,): minus, (0,): minus}

    def test_square_all_ones(self):
        lat = build("square")
        assert [check.passed for check in verify_hodge_duality(all_ones(lat), (1, 2))] == [True, True]

    def test_pyramid_g_weights_eigen_form(self):
        lat = build("pyramid")
        f = g_weight_function(lat, lat.top_id)
        (check,) = verify_hodge_duality(f, [1])
        assert check.passed
        expected = [(m, p * neg_y_power(-3)) for m, p in hodge_character_sum(f, 1).terms()]
        assert check.lhs.terms() == expected

    def test_random_weights(self):
        lat = build("square")
        for f in random_weight_functions(lat, seed=53, count=3):
            assert [check.passed for check in verify_hodge_duality(f, (1, 2))] == [True, True]


def plant_dual(monkeypatch, f, dual):
    """Have the verifiers read `dual` as the dual of f: they take it from ehrhart.dualize."""
    real = eh.dualize
    monkeypatch.setattr(eh, "dualize", lambda g: dual if g is f else real(g))


class TestFailedCheckNamesFirstDifference:
    """A wrong dual weight, planted as f's dual in ehrhart.dualize, on the segment.

    all-ones has E~(z, y) of degree <= 1 in y, and y^3 on the open edge adds
    y^3 (1+y) S_edge(2) = y^3 + y^4 to the dual's count at ell = 2.
    """

    @staticmethod
    def wrong_dual():
        lat = build("segment")
        f = all_ones(lat)
        dual = dualize(f)
        planted = {**dual.values, lat.top_id: dual[lat.top_id] + L({3: 1})}
        return lat, f, WeightFunction(lat, planted)

    def test_duality_reciprocity_names_the_exponent(self, monkeypatch):
        lat, f, wrong = self.wrong_dual()
        plant_dual(monkeypatch, f, wrong)
        (check,) = verify_duality_reciprocity(f, phi_one(1), [2], "Etilde")
        assert not check.passed
        # y -> 1/y sends y^3 + y^4 to y^-3 + y^-4; the lowest is -4
        assert check.difference == {"exponent": -4, "lhs": 0, "rhs": 1}
        rendered = rendered_check(lat, check)
        assert rendered["first_difference"] == {"exponent": "-4", "lhs": "0", "rhs": "1"}
        # a failed check renders each side from its own value
        assert rendered["rhs"] == str(check.rhs) != rendered["lhs"]

    def test_hodge_duality_names_the_face_and_exponent(self, monkeypatch):
        lat, f, wrong = self.wrong_dual()
        plant_dual(monkeypatch, f, wrong)
        (check,) = verify_hodge_duality(f, [2])
        assert not check.passed
        # the vertices agree; the edge's coefficient gains y^3 (1+y)
        assert check.difference == {"face": lat.top_id, "exponent": 3, "lhs": 1, "rhs": 0}
        rendered = rendered_check(lat, check)
        expected = {"face": str(lat.top_id), "exponent": "3", "lhs": "1", "rhs": "0"}
        assert rendered["first_difference"] == expected
        assert rendered["rhs"] == plain_side(check.rhs) != rendered["lhs"]

    def test_passed_checks_render_no_difference(self):
        lat = build("segment")
        f = all_ones(lat)
        checks = [
            *verify_duality_reciprocity(f, phi_one(1), [2], "Etilde"),
            *verify_hodge_duality(f, [2]),
            *verify_reciprocity(f, phi_one(1), [2], "E"),
        ]
        for check in checks:
            assert check.passed and check.difference is None
            rendered = rendered_check(lat, check)
            assert "first_difference" not in rendered
            # the passed check renders its value once; the rhs renders alike
            assert rendered["rhs"] == plain_side(check.rhs)

    def test_verifiers_take_no_polynomial(self):
        lat = build("segment")
        zp = ehrhart_polynomial(all_ones(lat), phi_one(1), "E")
        for checker in (verify_reciprocity, verify_duality_reciprocity):
            with pytest.raises(TypeError):
                checker(all_ones(lat), phi_one(1), [1], "E", zpoly=zp)
        with pytest.raises(TypeError):
            verify_purity(g_weight_function(lat, lat.top_id), lat.top_id, phi_one(1), [1], zpoly=zp)

    def test_verifiers_take_no_dual(self):
        # the weight function keeps its own dual (dualize); no caller passes one in
        lat = build("segment")
        f = all_ones(lat)
        with pytest.raises(TypeError):
            verify_duality_reciprocity(f, phi_one(1), [1], "E", dual=dualize(f))
        with pytest.raises(TypeError):
            verify_hodge_duality(f, [1], dual=dualize(f))


class TestEFormOfTheEtildeCheck:
    """verify derives each E report from the Etilde check by e_form, which
    must give the E check of the same arguments, as a CheckResult."""

    @pytest.mark.parametrize("name", list(CORPUS))
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_equals_the_e_check(self, name, degree):
        lat = build(name)
        phi = mixed_phi(lat.polytope.n, degree)
        weights = [all_ones(lat), g_weight_function(lat, lat.top_id)]
        weights += random_weight_functions(lat, seed=59, count=2)
        for checker in (verify_reciprocity, verify_duality_reciprocity):
            for f in weights:
                etilde, e = checker(f, phi, (1, 2, 3), "Etilde"), checker(f, phi, (1, 2, 3), "E")
                assert [e_form(check, phi) for check in etilde] == e

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_planted_failure(self, monkeypatch, degree):
        lat, f, wrong = TestFailedCheckNamesFirstDifference.wrong_dual()
        plant_dual(monkeypatch, f, wrong)
        phi = mixed_phi(1, degree)
        # the open edge has no lattice point at ell = 1, so only 2 and 3 fail
        etildes = verify_duality_reciprocity(f, phi, (1, 2, 3), "Etilde")
        es = verify_duality_reciprocity(f, phi, (1, 2, 3), "E")
        for ell, etilde, e_check in zip((1, 2, 3), etildes, es, strict=True):
            e = e_form(etilde, phi)
            assert e.passed is etilde.passed is (ell == 1)
            assert e == e_check

    def test_first_difference_is_found_afresh(self):
        # (1+y) * 1 = 1 + y against (1+y)(1 - y) = 1 - y^2: still apart at y^1, as 1 against 0
        phi = mixed_phi(2, 1)
        etilde = CheckResult(
            "reciprocity", {"ell": 1, "variant": "Etilde"}, False,
            L({0: 1}), L({0: 1, 1: -1}), {"exponent": 1, "lhs": 0, "rhs": -1},
        )
        e = e_form(etilde, phi)
        assert e.params == {"ell": 1, "variant": "E"}
        assert (e.lhs, e.rhs) == (L({0: 1, 1: 1}), L({0: 1, 2: -1}))
        assert e.difference == {"exponent": 1, "lhs": 1, "rhs": 0}


class TestHodgeDualityAgainstPointwiseOracle:
    """Face-by-face duality against the point-by-point comparison: verdict and rendered sides."""

    @staticmethod
    def check(monkeypatch, lat, f, dual, expect):
        plant_dual(monkeypatch, f, dual)
        for ell, faces in zip((1, 2, 3), verify_hodge_duality(f, (1, 2, 3)), strict=True):
            points = pointwise_hodge_duality(lat, f, ell, dual)
            assert faces.passed is points.passed is expect
            assert rendered_check(lat, faces) == plain_check_json(points)

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus(self, name, monkeypatch):
        lat = build(name)
        for f in oracle_weight_set(lat, 67):
            self.check(monkeypatch, lat, f, dualize(f), True)

    @pytest.mark.parametrize("n,seed,radius,draws", RANDOM_SHAPES)
    def test_random(self, n, seed, radius, draws, monkeypatch):
        lat = random_lattice(n, seed, radius, draws)
        for f in oracle_weight_set(lat, seed):
            self.check(monkeypatch, lat, f, dualize(f), True)

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_planted_wrong_dual_weight(self, name, monkeypatch):
        # a vertex has a point at every dilation, so both routes must see it
        lat = build(name)
        f = random_weight_functions(lat, seed=71, count=1)[0]
        dual = dualize(f)
        vertex = lat.vertex_face_id(0)
        wrong = WeightFunction(lat, {**dual.values, vertex: dual[vertex] + L({1: 1})})
        self.check(monkeypatch, lat, f, wrong, False)


class TestVerifyPurity:
    def test_pyramid_top(self):
        lat = build("pyramid")
        checks = verify_purity(g_weight_function(lat, lat.top_id), lat.top_id, phi_one(3), (1, 2, 3))
        assert [check.passed for check in checks] == [True, True, True]

    def test_cube_facet_quadratic(self):
        lat = build("cube")
        facet = next(q for q, f in enumerate(lat.faces) if f.dim == 2)
        phi = HomogPoly(3, [((2, 0, 0), 1)])
        g = g_weight_function(lat, facet)
        zp = ehrhart_polynomial(g, phi, "E")
        for ell, check in zip((1, 2), verify_purity(g, facet, phi, (1, 2)), strict=True):
            assert check.passed
            assert zp(-ell) == check.lhs

    def test_empty_face_rejected(self):
        lat = build("cube")
        with pytest.raises(ValueError):
            verify_purity(g_weight_function(lat, lat.top_id), lat.empty_id, phi_one(3), [1])


def relabelled(lat, seed):
    """lat with its face ids permuted by a seeded shuffle under which the
    dimensions do not rise with the id, and the permutation, old id -> new."""
    rng = random.Random(f"relabel:{seed}")
    perm = list(range(len(lat.faces)))
    dims = [0]
    while dims == sorted(dims):
        rng.shuffle(perm)
        old = sorted(range(len(perm)), key=perm.__getitem__)  # new id -> old id
        dims = [lat.faces[q].dim for q in old]
    return FaceLattice(lat.polytope, [lat.faces[q] for q in old]), perm


class TestRelabelledFaces:
    """Face ids set only the order faces are listed in: every result on a
    lattice whose ids interleave the dimensions matches the original's
    through the permutation."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", list(CORPUS))
    def test_results_follow_the_permutation(self, name, seed):
        lat = build_face_lattice(facet_presentation(CORPUS[name]))
        new, perm = relabelled(lat, seed)
        n = lat.polytope.n
        assert h_polynomial(new) == h_polynomial(lat)
        for q in lat.nonempty_ids:
            expected = {perm[e]: v for e, v in g_weight_function(lat, q).values.items()}
            assert g_weight_function(new, perm[q]).values == expected, q
        (f,) = random_weight_functions(lat, seed, 1)
        g = WeightFunction(new, {perm[q]: v for q, v in f.values.items()})
        for variant in ("E", "Etilde"):
            assert ehrhart_polynomial(g, phi_one(n), variant) == ehrhart_polynomial(f, phi_one(n), variant)
        for ell in (-2, 0, 1, 2):
            got, want = hodge_character_sum(g, ell), hodge_character_sum(f, ell)
            assert got.terms() == want.terms(), ell
        checks = [
            *verify_reciprocity(g, phi_one(n), (1, 2)),
            *verify_duality_reciprocity(g, phi_one(n), (1, 2)),
            *verify_hodge_duality(g, (1, 2)),
            *verify_purity(g_weight_function(new, new.top_id), new.top_id, phi_one(n), (1, 2)),
        ]
        assert [check.passed for check in checks] == [True] * 8


class TestHLink:
    def test_h_equals_zero_dilation_count(self):
        # combinatorial h vs the weighted count at dilation 0 under y -> -y
        for name in ("segment", "square", "cube", "pyramid", "simplex3"):
            lat = build(name)
            n = lat.polytope.n
            f = g_weight_function(lat, lat.top_id)
            value = apply_phi(dict(hodge_character_sum(f, 0).terms()), phi_one(n), "Etilde")
            h = h_polynomial(lat)
            assert substitute_negative(value) == L(dict(h.terms)), name


# coefficients cycled through the monomials of the test integrands
MIXED_COEFFS = (Fraction(3, 2), -2, Fraction(-5, 3), 1, Fraction(7, 4))


def mixed_phi(n, degree):
    """Every monomial of the degree, with fractional and negative coefficients."""
    exps = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) == degree]
    return HomogPoly(n, zip(exps, itertools.cycle(MIXED_COEFFS)))


class TestPhiFaceSumsAgainstPointSums:
    """Closed-form fibre sums against phi_eval added up one point at a time."""

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus(self, name):
        lat = build(name)
        n = lat.polytope.n
        for degree in (0, 1, 2, 3):
            phi = mixed_phi(n, degree)
            for ell in (1, 2, 3):
                assert eh._phi_face_sums(lat, phi, ell) == box_phi_face_sums(lat, phi, ell)

    @pytest.mark.parametrize("n,seed", [(2, 3), (3, 3), (4, 3)])
    def test_random(self, n, seed):
        lat = random_lattice(n, seed, 1, n + 4)
        for degree in (0, 1, 2, 3):
            phi = mixed_phi(n, degree)
            for ell in (1, 2):
                assert eh._phi_face_sums(lat, phi, ell) == box_phi_face_sums(lat, phi, ell)

    def test_zero_integrand(self):
        lat = build("square")
        assert set(eh._phi_face_sums(lat, HomogPoly(2, []), 2).values()) == {0}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eh._phi_face_sums(build("square"), phi_one(3), 1)


def assert_exact(value):
    """Every number reachable from value is an int or a Fraction, never a float.

    Every LaurentPoly coefficient is, moreover, an int exactly when it is
    integral: a Fraction there always has a denominator above 1.
    """
    if isinstance(value, LaurentPoly):
        assert_exact(value.terms)
        for c in value.terms.values():
            assert type(c) is int or c.denominator != 1, f"{c!r} is not canonical"
    elif isinstance(value, ZPoly):
        assert_exact(value.coeffs)
    elif isinstance(value, WeightFunction):
        assert_exact(value.values)
    elif isinstance(value, OrbitSum):
        assert_exact(value.terms())
    elif isinstance(value, dict):
        for k, v in value.items():
            assert_exact(k)
            assert_exact(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            assert_exact(v)
    else:
        assert type(value) in (int, Fraction), f"{value!r} is a {type(value).__name__}"


@st.composite
def integrands(draw, n):
    degree = draw(st.integers(min_value=0, max_value=3))
    exps = [e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) == degree]
    chosen = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=3, unique=True))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return HomogPoly(n, [(e, draw(coeffs)) for e in chosen])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["segment", "square", "simplex2", "pyramid"]), st.data())
def test_phi_sums_and_polynomial_are_float_free(name, data):
    lat = build(name)
    phi = data.draw(integrands(lat.polytope.n))
    for ell in (1, 2, 3):
        assert_exact(eh._phi_face_sums(lat, phi, ell))
    variant = data.draw(st.sampled_from(["E", "Etilde"]))
    assert_exact(ehrhart_polynomial(all_ones(lat), phi, variant))


# rationals as a caller may pass them: ints, integral and proper Fractions
rationals = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)
nonzero_rationals = rationals.filter(bool)
laurents = st.dictionaries(
    st.integers(min_value=-3, max_value=3), rationals, max_size=4
).map(LaurentPoly)


def test_equal_integrands_share_one_memo_entry():
    """HomogPoly hashes once, when built; equal integrands, their monomials
    given in another order or as Fraction(2, 4) for 1/2, hash alike and
    read one (phi, ell) entry of the lattice's memo."""
    lat = build_face_lattice(facet_presentation(CORPUS["square"]))
    a = HomogPoly(2, [((1, 0), Fraction(2, 4)), ((0, 1), -3)])
    b = HomogPoly(2, [((0, 1), -3), ((1, 0), Fraction(1, 2))])
    assert a == b and hash(a) == hash(b)
    first = eh._phi_face_sums(lat, a, 2)
    entries = len(lat._memo)
    assert eh._phi_face_sums(lat, b, 2) is first
    assert len(lat._memo) == entries


def test_integral_fraction_is_stored_as_int():
    p = LaurentPoly({0: Fraction(4, 2), 1: Fraction(1, 2)})
    assert p == LaurentPoly({0: 2, 1: Fraction(1, 2)})
    assert hash(p) == hash(LaurentPoly({0: 2, 1: Fraction(1, 2)}))
    assert type(p.coeff(0)) is int and type(p.coeff(1)) is Fraction
    assert_exact(p)


@settings(max_examples=60, deadline=None)
@given(laurents, laurents, rationals, st.integers(-3, 3), nonzero_rationals, st.integers(0, 3))
def test_laurent_results_are_float_free_and_canonical(p, q, c, k, mono_c, power):
    monomial = LaurentPoly({k: mono_c})
    results = [p + q, p - q, -p, p * q, p * c, c * p, p**power, monomial ** -power,
               monomial ** -1 * monomial, substitute_inverse(p), substitute_negative(p)]
    assert_exact(results)
    assert_exact([p.coeff(e) for e in range(-3, 4)])
    assert_exact([p.subs(v) for v in (1, -2, Fraction(1, 3), mono_c)])
    if min(p.terms, default=0) >= 0:
        assert_exact(p.subs(0))
    zp = ZPoly([p, q, monomial])
    assert_exact([zp(z) for z in (0, 2, -1, c)])


@settings(max_examples=40, deadline=None)
@given(st.lists(laurents, min_size=1, max_size=4), st.booleans())
def test_interpolation_is_float_free_and_canonical(values, fractional_nodes):
    step = Fraction(1, 2) if fractional_nodes else 1
    samples = [(step * i, v) for i, v in enumerate(values)]
    zp = lagrange_interpolate(samples, len(values) - 1)
    assert_exact(zp)
    for node, value in samples:
        assert zp(node) == value


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["segment", "square", "simplex2", "pyramid"]), st.data())
def test_lattice_results_are_float_free_and_canonical(name, data):
    lat = build(name)
    n = lat.polytope.n
    scalar = LaurentPoly({data.draw(st.integers(-1, 1)): data.draw(nonzero_rationals)})
    seed = data.draw(st.integers(0, 1000))
    f = scale(scalar, random_weight_functions(lat, seed=seed, count=1)[0])
    phi = data.draw(integrands(n))
    qp = data.draw(st.sampled_from(lat.nonempty_ids))
    variant = data.draw(st.sampled_from(["E", "Etilde"]))
    assert_exact(dualize(f))
    assert_exact([hodge_character_sum(f, ell) for ell in (-2, -1, 0, 1, 2)])
    assert_exact([weighted_ehrhart_value(f, phi, ell, variant) for ell in (1, 2)])
    assert_exact(ehrhart_polynomial(f, phi, variant))
    assert_exact(g_weight_function(lat, qp))
    assert_exact(h_polynomial(lat))


# normalized volume n! vol(P) where it has a closed form
NORMALIZED_VOLUME = {
    "segment": 1, "square": 2, "cube": 6, "pyramid": 2,
    "simplex1": 1, "simplex2": 1, "simplex3": 1, "simplex4": 1,
}


class TestStanleyHStar:
    """All-ones weights, phi = 1, variant E at y = 0 give L_P(ell) = #(ell P).

    h*_j = sum_i (-1)^i C(n+1, i) L_P(j-i), with L_P = 0 below 0, must be
    a nonnegative integer (Stanley's nonnegativity theorem) with h*_0 = 1,
    vanish above n, and sum to the normalized volume.
    """

    @pytest.mark.parametrize("name", names())
    def test_h_star(self, name):
        lat = build(name)
        n = lat.polytope.n
        zp = ehrhart_polynomial(all_ones(lat), phi_one(n), "E")
        at_y0 = [c.subs(0) for c in zp.coeffs]

        def count(ell):
            return sum(c * ell**k for k, c in enumerate(at_y0)) if ell >= 0 else 0

        h_star = [
            sum((-1) ** i * comb(n + 1, i) * count(j - i) for i in range(n + 2))
            for j in range(2 * n + 2)
        ]
        assert h_star[0] == 1
        assert all(Fraction(h).denominator == 1 and h >= 0 for h in h_star), h_star
        assert not any(h_star[n + 1:]), h_star
        if name in NORMALIZED_VOLUME:
            assert sum(h_star) == NORMALIZED_VOLUME[name]
