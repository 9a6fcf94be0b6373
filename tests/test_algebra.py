"""Arithmetic kernel tests.

Expected values for the interpolation cases were frozen from independent
hand solves of the corresponding linear systems (2x2 and 3x3 over Q[y]),
not from the implementation.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from wehrhart.algebra import (
    HomogPoly,
    LaurentPoly,
    ZPoly,
    as_rat,
    lagrange_interpolate,
    linear_combination,
    neg_y_power,
    phi_eval,
    poly_sum,
    power_sum,
    substitute_inverse,
    substitute_negative,
)
from wehrhart.corpus import CORPUS, build
from wehrhart.ehrhart import CheckResult, OrbitSum
from wehrhart.polytope import Face, build_face_lattice, facet_presentation


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

    def test_product_by_one_shares_the_other_operand(self):
        p = L({-1: Fraction(1, 2), 3: -2})
        one = L({0: Fraction(2, 2)})
        assert p * one is p and one * p is p
        assert L({}) * one == L({}) and one * one == one

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

    def test_bools_refused(self):
        with pytest.raises(TypeError):
            L({0: True})
        with pytest.raises(TypeError):
            as_rat(True)

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

    def test_bool_coefficient_refused(self):
        with pytest.raises(TypeError):
            HomogPoly(1, [((1,), True)])

    def test_bool_dimension_refused(self):
        with pytest.raises(TypeError, match="is not an exact integer"):
            HomogPoly(True, [((1,), 1)])

    def test_float_dimension_of_one_refused(self):
        with pytest.raises(TypeError, match="is not an exact integer"):
            HomogPoly.one(2.0)

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


class TestRecords:
    """Face, CheckResult and OrbitSum are typing.NamedTuple records: built
    by position or keyword with the defaults they had, equal by fields,
    hashed when every field is, shown by fields, changed only through
    _replace, and refusing assignment and deletion, under python -OO too."""

    def face(self, **changes):
        fields = {"vertex_mask": 0b101, "tight_mask": 0b10, "dim": 1, "vertex_ids": (0, 2), "tight_ids": (1,)}
        return Face(**{**fields, **changes})

    def check(self, **changes):
        fields = {"name": "c", "params": {"ell": 1}, "passed": False, "lhs": L({0: 1}), "rhs": L({})}
        return CheckResult(**{**fields, **changes})

    def test_face_equality_hash_and_repr(self):
        f = self.face()
        assert f == Face(0b101, 0b10, 1, (0, 2), (1,))
        assert hash(f) == hash(self.face()) and len({f, self.face()}) == 1
        assert f != self.face(dim=2) and f != self.face(tight_ids=(0, 1))
        assert repr(f) == "Face(vertex_mask=5, tight_mask=2, dim=1, vertex_ids=(0, 2), tight_ids=(1,))"

    def test_a_record_is_the_tuple_of_its_fields(self):
        f = self.face()
        assert f == (0b101, 0b10, 1, (0, 2), (1,)) and hash(f) == hash(tuple(f))
        assert f != (0b101, 0b10, 2, (0, 2), (1,))
        assert f[2] == f.dim == 1 and list(f) == [0b101, 0b10, 1, (0, 2), (1,)]

    def test_check_result_defaults_and_equality(self):
        check = self.check()
        assert check.difference is None
        assert check == CheckResult("c", {"ell": 1}, False, L({0: 1}), L({}), None)
        assert check != self.check(difference={"exponent": 0})
        assert check != self.check(params={"ell": 2})
        assert repr(check).startswith("CheckResult(name='c', params={'ell': 1}, passed=False, lhs=")

    def test_records_with_a_dict_field_are_unhashable(self):
        square = build("square")
        for record in (self.check(), OrbitSum({square.empty_id: L({0: 1})}, square, 0)):
            with pytest.raises(TypeError):
                hash(record)

    def test_orbit_sum_equality(self):
        square = build("square")
        s = OrbitSum({square.top_id: L({0: 1})}, square, 2)
        assert s == OrbitSum({square.top_id: L({0: 1})}, square, 2)
        assert s != s._replace(ell=3) and s != s._replace(coeffs={square.top_id: L({1: 1})})
        # an equal lattice built afresh is another object
        assert s != s._replace(lattice=build_face_lattice(facet_presentation(CORPUS["square"])))

    def test_replace_builds_a_new_record(self):
        f, check = self.face(), self.check()
        assert f._replace(dim=2) == self.face(dim=2) and f.dim == 1
        moved = check._replace(params={"ell": 2})
        assert moved == self.check(params={"ell": 2}) and moved.lhs is check.lhs
        assert check.params == {"ell": 1}

    def test_frozen_records_refuse_assignment(self):
        check = self.check()
        for record, field in ((self.face(), "dim"), (self.face(), "extra"), (check, "passed"), (check, "extra")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
            with pytest.raises(AttributeError):
                delattr(record, field)

    def test_records_copy_and_pickle(self):
        for record in (self.face(), self.check()):
            assert copy.copy(record) == record and copy.deepcopy(record) == record
            assert pickle.loads(pickle.dumps(record)) == record
            assert type(pickle.loads(pickle.dumps(record))) is type(record)
