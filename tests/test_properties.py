"""Randomized algebraic laws, checked with hypothesis."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from charsum_oracle import apply_phi
from wehrhart import corpus
from wehrhart.algebra import (
    HomogPoly,
    LaurentPoly as L,
    ONE_PLUS_Y,
    ZPoly,
    lagrange_interpolate,
    phi_eval,
    substitute_inverse,
    substitute_negative,
)
from wehrhart.ehrhart import VARIANT_E, VARIANT_ETILDE, hodge_character_sum, weighted_ehrhart_value
from wehrhart.weights import WeightFunction, add, dualize, scale

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)

laurents = st.dictionaries(
    st.integers(min_value=-4, max_value=4), rationals, max_size=5
).map(L)

@st.composite
def weight_functions(draw, name="square"):
    lattice = corpus.build(name)
    values = {}
    for fid in lattice.nonempty_ids:
        if draw(st.booleans()):
            values[fid] = draw(laurents)
    return WeightFunction(lattice, values)


@given(laurents)
def test_substitute_inverse_is_involution(p):
    assert substitute_inverse(substitute_inverse(p)) == p


@given(laurents)
def test_substitute_negative_is_involution(p):
    assert substitute_negative(substitute_negative(p)) == p


@given(laurents, laurents)
def test_substitutions_are_ring_maps(p, q):
    for sub in (substitute_inverse, substitute_negative):
        assert sub(p + q) == sub(p) + sub(q)
        assert sub(p * q) == sub(p) * sub(q)


@given(laurents, laurents, laurents)
def test_laurent_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + L() == p
    assert p * L.const(1) == p
    assert p + (-p) == L()


@given(laurents, st.integers(min_value=1, max_value=9))
def test_evaluation_commutes_with_product(p, k):
    v = Fraction(k)
    assert (p * p).subs(v) == p.subs(v) * p.subs(v)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3), rationals)))
def test_homog_evaluation_is_multiplicative_in_scalars(monos):
    # phi(2m) = 2^deg phi(m) for homogeneous phi
    by_deg = {}
    for e, c in monos:
        by_deg.setdefault(e, []).append(((e,), c))
    for deg, ms in by_deg.items():
        phi = HomogPoly(1, ms)
        for m in ((1,), (2,), (-3,)):
            doubled = tuple(2 * x for x in m)
            assert phi_eval(phi, doubled) == Fraction(2) ** deg * phi_eval(phi, m)


@given(st.lists(laurents, min_size=1, max_size=5))
def test_interpolation_recovers_zpoly(coeffs):
    zp = ZPoly(coeffs)
    bound = max(zp.degree, 0)
    nodes = range(1, bound + 2)
    recovered = lagrange_interpolate([(k, zp(k)) for k in nodes], bound)
    assert recovered == zp
    for k in (-2, 0, 7):
        assert recovered(k) == zp(k)


@settings(max_examples=40, deadline=None)
@given(weight_functions())
def test_dualize_is_involution(f):
    assert dualize(dualize(f)) == f


@settings(max_examples=40, deadline=None)
@given(weight_functions(), laurents)
def test_dualize_module_property(f, p):
    # D(p(y) f) = p(1/y) D(f)
    lhs = dualize(scale(p, f))
    rhs = scale(substitute_inverse(p), dualize(f))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(weight_functions(), weight_functions())
def test_dualize_is_additive(f, g):
    assert dualize(add(f, g)) == add(dualize(f), dualize(g))


@settings(max_examples=25, deadline=None)
@given(weight_functions("segment"), st.integers(min_value=1, max_value=4))
def test_character_route_agrees_with_direct_value(f, ell):
    lattice = corpus.build("segment")
    phi = HomogPoly(1, [((2,), Fraction(1))])
    for variant in (VARIANT_E, VARIANT_ETILDE):
        via_charsum = apply_phi(dict(hodge_character_sum(lattice, f, ell).terms()), phi, variant)
        direct = weighted_ehrhart_value(lattice, f, phi, ell, variant)
        assert via_charsum == direct


@settings(max_examples=25, deadline=None)
@given(weight_functions(), st.integers(min_value=1, max_value=3))
def test_variants_differ_by_unit_factor(f, ell):
    lattice = corpus.build("square")
    phi = HomogPoly(2, [((1, 1), Fraction(1))])
    e = weighted_ehrhart_value(lattice, f, phi, ell, VARIANT_E)
    etilde = weighted_ehrhart_value(lattice, f, phi, ell, VARIANT_ETILDE)
    assert e == ONE_PLUS_Y ** phi.degree * etilde
