"""Weighted counting and verifier tests.

Expected values were derived by hand before implementation: segment and
square interpolation systems, the three segment character sums, and the
character-sum duality case for the delta weight on the segment's edge
(both sides expand to -(1+y)y^-1 * (chi^0 + chi^(-1))).
"""

import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import wehrhart.ehrhart as eh
from box_oracle import RANDOM_6, RANDOM_SHAPES, box_phi_face_sums, cross, cube, random_lattice
from charsum_oracle import (
    apply_phi,
    constant_term,
    negate_characters,
    pointwise_character_sum,
    pointwise_hodge_duality,
)
from interp_oracle import per_weight_polynomial
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
    OrbitSum,
    PolynomialityError,
    ehrhart_polynomial,
    hodge_character_sum,
    render_value,
    verify_duality_reciprocity,
    verify_hodge_duality,
    verify_purity,
    verify_reciprocity,
    weighted_ehrhart_value,
)
from wehrhart.polytope import build_face_lattice, facet_presentation, points_by_face
from wehrhart.stanley import g_weight_function, h_polynomial
from wehrhart.weights import (
    WeightFunction,
    all_ones,
    delta_weight,
    dualize,
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
        s = hodge_character_sum(lat, all_ones(lat), 1)
        assert dict(s.terms()) == {(-1,): L({0: 1}), (0,): L({0: 1})}

    def test_segment_zero(self):
        lat = build("segment")
        s = hodge_character_sum(lat, all_ones(lat), 0)
        assert dict(s.terms()) == {(0,): L({0: 1, 1: -1})}

    def test_segment_negative(self):
        lat = build("segment")
        s = hodge_character_sum(lat, all_ones(lat), -1)
        assert dict(s.terms()) == {(0,): L({1: -1}), (1,): L({1: -1})}

    def test_one_type_at_every_sign(self):
        lat = build("square")
        for ell in (-2, 0, 2):
            assert type(hodge_character_sum(lat, all_ones(lat), ell)) is OrbitSum

    def test_zero_is_one_orbit_at_the_origin(self):
        lat = build("square")
        s = hodge_character_sum(lat, all_ones(lat), 0)
        # 4 vertices + 4 edges (-1-y) + (-1-y)^2 = 1 - 2y + y^2
        assert s.terms() == [((0, 0), L({0: 1, 1: -2, 2: 1}))]
        assert list(s.relint) == list(s.coeffs) == [lat.empty_id]

    def test_lattice_mismatch(self):
        with pytest.raises(ValueError):
            hodge_character_sum(build("segment"), all_ones(build("square")), 1)


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
                s = hodge_character_sum(lat, f, ell)
                assert dict(s.terms()) == pointwise_character_sum(lat, f, ell)

    @pytest.mark.parametrize("n,seed", [(n, seed) for n in (2, 3, 4, 5) for seed in (5, 6)])
    def test_random(self, n, seed):
        lat = random_lattice(n, seed, 1, n + 4)
        for f in oracle_weight_set(lat, seed):
            for ell in range(-3, 4):
                s = hodge_character_sum(lat, f, ell)
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
        v = weighted_ehrhart_value(lat, all_ones(lat), phi_one(1), 2, "Etilde")
        assert v == L({0: 3, 1: 1})

    def test_square_l3_y0(self):
        lat = build("square")
        v = weighted_ehrhart_value(lat, all_ones(lat), phi_one(2), 3, "Etilde")
        assert v.subs(0) == 16

    def test_segment_linear_l2(self):
        lat = build("segment")
        v = weighted_ehrhart_value(lat, all_ones(lat), phi_coord(1), 2, "Etilde")
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
                        direct = weighted_ehrhart_value(lat, f, phi, ell, "E")
                        s = hodge_character_sum(lat, f, ell)
                        via_sum = apply_phi(dict(s.terms()), phi, "E")
                        assert direct == via_sum

    def test_rejects_nonpositive(self):
        lat = build("segment")
        with pytest.raises(ValueError):
            weighted_ehrhart_value(lat, all_ones(lat), phi_one(1), 0, "E")


# every public entry point that takes a dilation, on (lattice, weight, phi, ell)
DILATION_CALLS = {
    "weighted_ehrhart_value": lambda lat, f, phi, ell: weighted_ehrhart_value(
        lat, f, phi, ell, "E"
    ),
    "verify_reciprocity": lambda lat, f, phi, ell: verify_reciprocity(lat, f, phi, ell),
    "verify_duality_reciprocity": lambda lat, f, phi, ell: verify_duality_reciprocity(
        lat, f, phi, ell
    ),
    "verify_hodge_duality": lambda lat, f, phi, ell: verify_hodge_duality(lat, f, ell),
    "verify_purity": lambda lat, f, phi, ell: verify_purity(lat, lat.top_id, phi, ell),
    "hodge_character_sum": lambda lat, f, phi, ell: hodge_character_sum(lat, f, ell),
    "points_by_face": lambda lat, f, phi, ell: points_by_face(lat, ell),
}


@pytest.mark.parametrize("ell", [True, 2.0, -2.0], ids=repr)
@pytest.mark.parametrize("name", sorted(DILATION_CALLS))
def test_dilation_must_be_an_int(name, ell):
    # True used to count as 1 (a report read "ell": "True"), and 2.0 either
    # failed inside range() in the walk or, once 2 was cached, counted as 2
    lat = build("square")
    weighted_ehrhart_value(lat, all_ones(lat), phi_one(2), 2, "E")  # fill the caches at 2
    with pytest.raises(TypeError, match="is not an exact integer"):
        DILATION_CALLS[name](lat, all_ones(lat), phi_one(2), ell)


class TestEhrhartPolynomial:
    def test_segment_all_ones(self):
        lat = build("segment")
        zp = ehrhart_polynomial(lat, all_ones(lat), phi_one(1), "Etilde")
        assert zp == ZPoly([L({0: 1, 1: -1}), L({0: 1, 1: 1})])

    def test_square_all_ones(self):
        lat = build("square")
        zp = ehrhart_polynomial(lat, all_ones(lat), phi_one(2), "Etilde")
        assert zp == ZPoly(
            [L({0: 1, 1: -2, 2: 1}), L({0: 2, 2: -2}), L({0: 1, 1: 2, 2: 1})]
        )
        assert zp(4).subs(0) == 25

    def test_segment_linear_integrand(self):
        lat = build("segment")
        zp = ehrhart_polynomial(lat, all_ones(lat), phi_coord(1), "Etilde")
        half = Fraction(1, 2)
        assert zp == ZPoly(
            [L({}), L({0: half, 1: -half}), L({0: half, 1: half})]
        )

    def test_constant_term_closed_form(self):
        lat = build("square")
        f = all_ones(lat)
        zp = ehrhart_polynomial(lat, f, phi_one(2), "Etilde")
        assert zp(0) == constant_term(lat, f, phi_one(2), "Etilde")
        # 4 vertices + 4 edges (-1-y) + (-1-y)^2 = 1 - 2y + y^2
        assert zp(0) == L({0: 1, 1: -2, 2: 1})

    def test_positive_degree_vanishes_at_zero(self):
        lat = build("square")
        zp = ehrhart_polynomial(lat, all_ones(lat), phi_coord(2), "E")
        assert not zp(0)

    def test_overdetermination_guard_fires_on_non_polynomial(self, monkeypatch):
        # a fresh lattice: the corpus one may already hold the per-face table
        lat = build_face_lattice(facet_presentation(CORPUS["segment"]))
        real = eh._phi_face_sums

        def warped(lattice, phi, ell):
            sums = dict(real(lattice, phi, ell))
            if ell >= 4:
                sums[lat.top_id] += 1
            return sums

        monkeypatch.setattr(eh, "_phi_face_sums", warped)
        message = rf"^face {lat.top_id}: .* order 3, above their degree 1$"
        with pytest.raises(PolynomialityError, match=message):
            eh.ehrhart_polynomial(lat, all_ones(lat), phi_one(1), "Etilde")

    def test_constant_term_guard_fires_on_offset_face(self, monkeypatch):
        # one face off by a constant at every dilation is still a polynomial
        lat = build_face_lattice(facet_presentation(CORPUS["square"]))
        vertex = lat.vertex_face_id(0)
        real = eh._phi_face_sums

        def offset(lattice, phi, ell):
            sums = dict(real(lattice, phi, ell))
            sums[vertex] += 5
            return sums

        monkeypatch.setattr(eh, "_phi_face_sums", offset)
        message = rf"^face {vertex}: constant term 6, closed form 1$"
        with pytest.raises(PolynomialityError, match=message):
            eh.ehrhart_polynomial(lat, all_ones(lat), phi_one(2), "E")


def delta_per_dimension(lat):
    """The delta weight of the first face of each dimension 0 .. n."""
    return [
        delta_weight(lat, next(f.id for f in lat.faces if f.dim == d))
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
                    assert ehrhart_polynomial(lat, f, phi, variant) == expected

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
                assert ehrhart_polynomial(lat, f, phi_one(n), variant) == expected


class TestVerifyReciprocity:
    def test_segment_linear_frozen_form(self):
        # Etilde(-l, y) = -l + (1+y) l(l+1)/2, checked for l = 1..3
        lat = build("segment")
        f = all_ones(lat)
        phi = phi_coord(1)
        zp = ehrhart_polynomial(lat, f, phi, "Etilde")
        for ell in (1, 2, 3):
            expected = L({0: -ell}) + L({0: 1, 1: 1}) * Fraction(ell * (ell + 1), 2)
            assert zp(-ell) == expected
            check = verify_reciprocity(lat, f, phi, ell, "Etilde")
            assert check.passed
            assert zp(-ell) == check.lhs

    def test_delta_top_is_classical(self):
        # |Relint(l P)| vs (-1)^n |l P| at y = 0
        lat = build("square")
        f = delta_weight(lat, lat.top_id)
        zp = ehrhart_polynomial(lat, f, phi_one(2), "Etilde")
        for ell in (1, 2, 3):
            check = verify_reciprocity(lat, f, phi_one(2), ell, "Etilde")
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
                    zp = ehrhart_polynomial(lat, f, phi_coord(n), variant)
                    for ell in (1, 2):
                        check = verify_reciprocity(lat, f, phi_coord(n), ell, variant)
                        assert check.passed
                        assert zp(-ell) == check.lhs


class TestVerifyDualityReciprocity:
    def test_pyramid_random(self):
        lat = build("pyramid")
        phi = HomogPoly(3, [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)])
        for f in random_weight_functions(lat, seed=43, count=2):
            zp = ehrhart_polynomial(lat, f, phi, "E")
            for ell in (1, 2):
                check = verify_duality_reciprocity(lat, f, phi, ell, "E")
                assert check.passed
                assert zp(-ell) == check.lhs

    def test_agrees_with_reciprocity(self):
        lat = build("square")
        f = random_weight_functions(lat, seed=47, count=1)[0]
        phi = phi_coord(2)
        for variant in ("E", "Etilde"):
            zp = ehrhart_polynomial(lat, f, phi, variant)
            for ell in (1, 2, 3):
                a = verify_reciprocity(lat, f, phi, ell, variant)
                b = verify_duality_reciprocity(lat, f, phi, ell, variant)
                assert a.passed and b.passed
                assert a.lhs == b.lhs
                assert zp(-ell) == a.lhs

    def test_delta_weights_pass(self):
        lat = build("segment")
        for fid in lat.nonempty_ids:
            f = delta_weight(lat, fid)
            assert verify_duality_reciprocity(lat, f, phi_one(1), 1, "E").passed


class TestVerifyHodgeDuality:
    def test_segment_delta_edge_frozen(self):
        lat = build("segment")
        f = delta_weight(lat, lat.top_id)
        check = verify_hodge_duality(lat, f, 1)
        assert check.passed
        minus = L({-1: -1, 0: -1})  # -(1+y)/y
        assert dict(check.lhs.terms()) == {(-1,): minus, (0,): minus}

    def test_square_all_ones(self):
        lat = build("square")
        for ell in (1, 2):
            assert verify_hodge_duality(lat, all_ones(lat), ell).passed

    def test_pyramid_g_weights_eigen_form(self):
        lat = build("pyramid")
        f = g_weight_function(lat, lat.top_id)
        check = verify_hodge_duality(lat, f, 1)
        assert check.passed
        expected = [(m, p * neg_y_power(-3)) for m, p in hodge_character_sum(lat, f, 1).terms()]
        assert check.lhs.terms() == expected

    def test_random_weights(self):
        lat = build("square")
        for f in random_weight_functions(lat, seed=53, count=3):
            for ell in (1, 2):
                assert verify_hodge_duality(lat, f, ell).passed


class TestFailedCheckNamesFirstDifference:
    """A wrong dual weight, planted through the library API, on the segment.

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

    def test_duality_reciprocity_names_the_exponent(self):
        lat, f, wrong = self.wrong_dual()
        check = verify_duality_reciprocity(lat, f, phi_one(1), 2, "Etilde", dual=wrong)
        assert not check.passed
        # y -> 1/y sends y^3 + y^4 to y^-3 + y^-4; the lowest is -4
        assert check.difference == {"exponent": -4, "lhs": 0, "rhs": 1}
        rendered = check.render()
        assert rendered["first_difference"] == {"exponent": "-4", "lhs": "0", "rhs": "1"}
        # a failed check renders each side from its own value
        assert rendered["rhs"] == str(check.rhs) != rendered["lhs"]

    def test_hodge_duality_names_the_face_and_exponent(self):
        lat, f, wrong = self.wrong_dual()
        check = verify_hodge_duality(lat, f, 2, dual=wrong)
        assert not check.passed
        # the vertices agree; the edge's coefficient gains y^3 (1+y)
        assert check.difference == {"face": lat.top_id, "exponent": 3, "lhs": 1, "rhs": 0}
        rendered = check.render()
        expected = {"face": str(lat.top_id), "exponent": "3", "lhs": "1", "rhs": "0"}
        assert rendered["first_difference"] == expected
        assert rendered["rhs"] == render_value(check.rhs) != rendered["lhs"]

    def test_passed_checks_render_no_difference(self):
        lat = build("segment")
        f = all_ones(lat)
        checks = [
            verify_duality_reciprocity(lat, f, phi_one(1), 2, "Etilde"),
            verify_hodge_duality(lat, f, 2),
            verify_reciprocity(lat, f, phi_one(1), 2, "E"),
        ]
        for check in checks:
            assert check.passed and check.difference is None
            rendered = check.render()
            assert "first_difference" not in rendered
            # the passed check renders its value once; the rhs renders alike
            assert rendered["rhs"] == render_value(check.rhs)

    def test_verifiers_take_no_polynomial(self):
        lat = build("segment")
        zp = ehrhart_polynomial(lat, all_ones(lat), phi_one(1), "E")
        for checker in (verify_reciprocity, verify_duality_reciprocity):
            with pytest.raises(TypeError):
                checker(lat, all_ones(lat), phi_one(1), 1, "E", zpoly=zp)
        with pytest.raises(TypeError):
            verify_purity(lat, lat.top_id, phi_one(1), 1, zpoly=zp)


class TestHodgeDualityAgainstPointwiseOracle:
    """Face-by-face duality against the point-by-point comparison: verdict and rendered sides."""

    @staticmethod
    def check(lat, f, dual, expect):
        for ell in (1, 2, 3):
            faces = verify_hodge_duality(lat, f, ell, dual=dual)
            points = pointwise_hodge_duality(lat, f, ell, dual)
            assert faces.passed is points.passed is expect
            assert faces.render() == points.render()

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus(self, name):
        lat = build(name)
        for f in oracle_weight_set(lat, 67):
            self.check(lat, f, dualize(f), True)

    @pytest.mark.parametrize("n,seed,radius,draws", RANDOM_SHAPES)
    def test_random(self, n, seed, radius, draws):
        lat = random_lattice(n, seed, radius, draws)
        for f in oracle_weight_set(lat, seed):
            self.check(lat, f, dualize(f), True)

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_planted_wrong_dual_weight(self, name):
        # a vertex has a point at every dilation, so both routes must see it
        lat = build(name)
        f = random_weight_functions(lat, seed=71, count=1)[0]
        dual = dualize(f)
        vertex = lat.vertex_face_id(0)
        wrong = WeightFunction(lat, {**dual.values, vertex: dual[vertex] + L({1: 1})})
        self.check(lat, f, wrong, False)


class TestVerifyPurity:
    def test_pyramid_top(self):
        lat = build("pyramid")
        for ell in (1, 2, 3):
            assert verify_purity(lat, lat.top_id, phi_one(3), ell).passed

    def test_cube_facet_quadratic(self):
        lat = build("cube")
        facet = next(f.id for f in lat.faces if f.dim == 2)
        phi = HomogPoly(3, [((2, 0, 0), 1)])
        zp = ehrhart_polynomial(lat, g_weight_function(lat, facet), phi, "E")
        for ell in (1, 2):
            check = verify_purity(lat, facet, phi, ell)
            assert check.passed
            assert zp(-ell) == check.lhs

    def test_empty_face_rejected(self):
        lat = build("cube")
        with pytest.raises(ValueError):
            verify_purity(lat, lat.empty_id, phi_one(3), 1)


class TestHLink:
    def test_h_equals_zero_dilation_count(self):
        # combinatorial h vs the weighted count at dilation 0 under y -> -y
        for name in ("segment", "square", "cube", "pyramid", "simplex3"):
            lat = build(name)
            n = lat.polytope.n
            f = g_weight_function(lat, lat.top_id)
            value = apply_phi(dict(hodge_character_sum(lat, f, 0).terms()), phi_one(n), "Etilde")
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
    assert_exact(ehrhart_polynomial(lat, all_ones(lat), phi, variant))


# rationals as a caller may pass them: ints, integral and proper Fractions
rationals = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)
nonzero_rationals = rationals.filter(bool)
laurents = st.dictionaries(
    st.integers(min_value=-3, max_value=3), rationals, max_size=4
).map(LaurentPoly)


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
    assert_exact([hodge_character_sum(lat, f, ell) for ell in (-2, -1, 0, 1, 2)])
    assert_exact([weighted_ehrhart_value(lat, f, phi, ell, variant) for ell in (1, 2)])
    assert_exact(ehrhart_polynomial(lat, f, phi, variant))
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
        zp = ehrhart_polynomial(lat, all_ones(lat), phi_one(n), "E")
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
