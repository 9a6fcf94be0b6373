"""Arithmetic kernel tests.

Expected values for the interpolation cases were frozen from independent
hand solves of the corresponding linear systems (2x2 and 3x3 over Q[y]),
not from the implementation.
"""

from fractions import Fraction

import pytest

from wehrhart.algebra import (
    HomogPoly,
    LaurentPoly,
    ZPoly,
    as_rat,
    grouped_sum,
    lagrange_interpolate,
    linear_combination,
    neg_y_power,
    phi_eval,
    poly_sum,
    power_sum,
    substitute_inverse,
    substitute_negative,
)


def L(d):
    return LaurentPoly(d)


class TestLaurentPoly:
    def test_canonical_form_strips_zeros(self):
        assert L({0: 0, 2: 0}) == L({})
        assert not L([(1, 1), (1, -1)])

    def test_accumulates_duplicate_exponents(self):
        assert L([(1, 1), (1, 2)]) == L({1: 3})

    def test_arithmetic(self):
        p = L({0: 1, 1: 1})
        q = L({0: 1, 1: -1})
        assert p * q == L({0: 1, 2: -1})
        assert p + q == L({0: 2})
        assert p - p == L({})
        assert p * 0 == L({})
        assert 2 * p == L({0: 2, 1: 2})

    def test_pow(self):
        p = L({0: 1, 1: 1})
        assert p**0 == L({0: 1})
        assert p**2 == L({0: 1, 1: 2, 2: 1})
        assert L({1: 1}) ** -2 == L({-2: 1})
        with pytest.raises(ValueError):
            p**-1

    def test_neg_y_power(self):
        assert neg_y_power(0) == L({0: 1})
        assert neg_y_power(1) == L({1: -1})
        assert neg_y_power(-1) == L({-1: -1})
        assert neg_y_power(-2) == L({-2: 1})
        assert neg_y_power(2) * neg_y_power(-2) == L({0: 1})

    def test_subs(self):
        p = L({0: 1, 2: 3})
        assert p.subs(0) == 1
        assert p.subs(Fraction(1, 2)) == Fraction(7, 4)
        with pytest.raises(ZeroDivisionError):
            L({-1: 1}).subs(0)

    def test_render_matches_canonical_text(self):
        assert str(L({-1: -1, 0: 2, 2: 3})) == "-1*y^-1 + 2 + 3*y^2"
        assert str(L({1: 1})) == "1*y"
        assert str(L({})) == "0"
        assert str(L({0: Fraction(1, 2)})) == "1/2"

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            L({0: 0.5})
        with pytest.raises(TypeError):
            as_rat(0.5)

    @pytest.mark.parametrize("k", [1.5, 1.0, True, Fraction(3, 2), "1"])
    def test_inexact_exponents_refused(self, k):
        with pytest.raises(TypeError):
            L({k: 1})


class TestSubstituteInverse:
    def test_one_plus_y(self):
        assert substitute_inverse(L({0: 1, 1: 1})) == L({0: 1, -1: 1})

    def test_constant_fixed(self):
        assert substitute_inverse(L({0: 5})) == L({0: 5})

    def test_termwise_negation(self):
        assert substitute_inverse(L({-2: -1, 1: 3})) == L({2: -1, -1: 3})

    def test_involution(self):
        p = L({-3: 2, 0: -1, 5: Fraction(7, 3)})
        assert substitute_inverse(substitute_inverse(p)) == p

    def test_substitute_negative(self):
        assert substitute_negative(L({0: 1, 1: 1, 2: 1})) == L({0: 1, 1: -1, 2: 1})
        p = L({-1: 2, 3: 5})
        assert substitute_negative(substitute_negative(p)) == p


class TestHomogPoly:
    @pytest.mark.parametrize("e", [1.9, 1.0, True, Fraction(3, 2)])
    def test_inexact_exponents_refused(self, e):
        with pytest.raises(TypeError):
            HomogPoly(1, [((e,), 1)])

    def test_linear_monomial(self):
        phi = HomogPoly(1, [((1,), 1)])
        assert phi_eval(phi, (3,)) == 3

    def test_sum_of_squares(self):
        phi = HomogPoly(2, [((2, 0), 1), ((0, 2), 1)])
        assert phi_eval(phi, (1, 2)) == 5

    def test_sign_law(self):
        phi = HomogPoly(2, [((1, 1), 1)])
        assert phi_eval(phi, (-1, 4)) == -4
        assert phi_eval(phi, (1, -4)) == -4
        assert phi_eval(phi, (1, -4)) == (-1) ** phi.degree * phi_eval(phi, (-1, 4))

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            HomogPoly(1, [((1,), 1), ((0,), 1)])

    def test_cancellation_to_zero(self):
        phi = HomogPoly(1, [((2,), 1), ((2,), -1)])
        assert not phi
        assert phi.degree == 0
        assert phi_eval(phi, (9,)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            phi_eval(HomogPoly(2, [((1, 0), 1)]), (1,))

    def test_one(self):
        phi = HomogPoly.one(3)
        assert phi.degree == 0
        assert phi_eval(phi, (4, 5, 6)) == 1


class TestGroupedSum:
    def test_matches_term_by_term_sum(self):
        pairs = [(2, L({0: 1})), (0, L({1: 3})), (2, L({-1: 2})), (1, L({}))]
        kernel = lambda k: L({0: 1, 1: 1}) ** k
        expected = L({})
        for k, p in pairs:
            expected = expected + p * kernel(k)
        assert grouped_sum(pairs, kernel) == expected

    def test_one_kernel_call_per_key(self):
        calls = []

        def kernel(k):
            calls.append(k)
            return L({0: 1})

        assert grouped_sum([(1, L({0: 1})), (1, L({0: 2})), (0, L({0: 1}))], kernel) == L({0: 4})
        assert sorted(calls) == [0, 1]

    def test_empty_is_zero(self):
        assert grouped_sum([], lambda k: L({0: 1})) == L({})


class TestLinearCombination:
    def test_matches_sum_of_scaled_polynomials(self):
        pairs = [
            (L({0: 1, 2: Fraction(1, 3)}), Fraction(3, 4)),
            (L({-1: 2, 0: -1}), 5),
            (L({2: -1}), Fraction(1, 4)),
            (L({0: 7, 1: 1}), 0),
            (L({}), 3),
        ]
        expected = poly_sum(p * s for p, s in pairs)
        assert linear_combination(pairs) == expected
        assert linear_combination(iter(pairs)) == expected

    def test_canonical_coefficients(self):
        # 1/2 + 1/2 and 3/4 - 3/4 leave an int and no stored zero
        halves = [(L({0: 1, 1: 3}), Fraction(1, 2)), (L({0: 1, 1: -3}), Fraction(1, 2))]
        got = linear_combination(halves)
        assert got.terms == {0: 1}
        assert type(got.terms[0]) is int

    def test_zero_scalars_add_nothing(self):
        assert linear_combination([(L({0: 1, 3: 2}), 0), (L({1: 1}), Fraction(0))]) == L({})

    def test_empty_is_zero(self):
        assert linear_combination([]) == L({})


class TestZPoly:
    def test_trailing_zeros_trim(self):
        zp = ZPoly([L({0: 1}), L({})])
        assert zp.degree == 0

    def test_evaluate_horner(self):
        zp = ZPoly([L({0: 1}), L({0: 0, 1: 1}), L({0: 2})])
        # 1 + y*z + 2*z^2 at z = 3 -> 19 + 3y
        assert zp(3) == L({0: 19, 1: 3})
        assert zp(0) == L({0: 1})
        assert zp(Fraction(1, 2)) == L({0: Fraction(3, 2), 1: Fraction(1, 2)})


class TestLagrangeInterpolate:
    def test_constant_data(self):
        c = L({0: 7})
        zp = lagrange_interpolate([(1, c), (2, c)], 1)
        assert zp.degree == 0
        assert zp(5) == c

    def test_segment_system(self):
        # frozen from the 2x2 solve: c1 = 1+y, c0 = 1-y
        zp = lagrange_interpolate([(1, L({0: 2})), (2, L({0: 3, 1: 1}))], 1)
        assert zp == ZPoly([L({0: 1, 1: -1}), L({0: 1, 1: 1})])

    def test_square_system(self):
        # frozen from the 3x3 solve over face-partition counts of the square
        samples = [
            (1, L({0: 4})),
            (2, L({0: 9, 1: 6, 2: 1})),
            (3, L({0: 16, 1: 16, 2: 4})),
        ]
        zp = lagrange_interpolate(samples, 2)
        assert zp == ZPoly(
            [
                L({0: 1, 1: -2, 2: 1}),
                L({0: 2, 2: -2}),
                L({0: 1, 1: 2, 2: 1}),
            ]
        )

    def test_reproduces_samples_exactly(self):
        samples = [
            (1, L({-1: 1, 0: 2})),
            (2, L({0: Fraction(3, 7)})),
            (5, L({2: -4})),
        ]
        zp = lagrange_interpolate(samples, 2)
        for node, value in samples:
            assert zp(node) == value

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            lagrange_interpolate([(1, L({})), (1, L({}))], 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lagrange_interpolate([], 0)

    def test_sample_count_must_match_bound(self):
        with pytest.raises(ValueError):
            lagrange_interpolate([(1, L({0: 1}))], 1)


class TestPowerSum:
    def test_matches_term_by_term_sum(self):
        for k in range(7):
            for a in range(-6, 7):
                for b in range(a - 1, 8):
                    assert power_sum(k, a, b) == sum(t**k for t in range(a, b + 1)), (k, a, b)

    def test_empty_range_is_zero(self):
        assert power_sum(3, 5, 4) == 0
        assert power_sum(2, 5, -5) == 0

    def test_closed_forms(self):
        assert power_sum(0, -3, 3) == 7
        assert power_sum(1, 1, 100) == 5050
        assert power_sum(3, 1, 10) == 55**2

    def test_result_is_an_int(self):
        for k in range(6):
            assert type(power_sum(k, -4, 9)) is int
