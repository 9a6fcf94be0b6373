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
    linear_combination,
    phi_eval,
    poly_sum,
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


def phi_eval_per_coordinate(phi, m):
    """phi at m with each coordinate raised in Fraction, one at a time: the oracle for phi_eval."""
    total = Fraction(0)
    for exps, c in phi.monomials:
        v = c
        for mi, e in zip(m, exps):
            if e:
                v *= Fraction(mi) ** e
        total += v
    return total


@st.composite
def phis_and_points(draw):
    """A homogeneous phi on Z^n, zero exponents included, and a point, negative coordinates allowed."""
    n = draw(st.integers(min_value=1, max_value=4))
    degree = draw(st.integers(min_value=0, max_value=5))
    cuts = st.lists(st.integers(min_value=0, max_value=degree), min_size=n - 1, max_size=n - 1)
    exps = cuts.map(lambda c: tuple(b - a for a, b in zip([0, *sorted(c)], [*sorted(c), degree])))
    phi = HomogPoly(n, draw(st.lists(st.tuples(exps, rationals), max_size=5)))
    return phi, tuple(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))


@given(phis_and_points())
def test_phi_eval_matches_the_per_coordinate_loop(case):
    phi, m = case
    value = phi_eval(phi, m)
    assert type(value) is Fraction and value == phi_eval_per_coordinate(phi, m)


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
        via_charsum = apply_phi(dict(hodge_character_sum(f, ell).terms()), phi, variant)
        direct = weighted_ehrhart_value(f, phi, ell, variant)
        assert via_charsum == direct


@settings(max_examples=25, deadline=None)
@given(weight_functions(), st.integers(min_value=1, max_value=3))
def test_variants_differ_by_unit_factor(f, ell):
    lattice = corpus.build("square")
    phi = HomogPoly(2, [((1, 1), Fraction(1))])
    e = weighted_ehrhart_value(f, phi, ell, VARIANT_E)
    etilde = weighted_ehrhart_value(f, phi, ell, VARIANT_ETILDE)
    assert e == ONE_PLUS_Y ** phi.degree * etilde


# The Laurent kernel builds every result once, already in ascending order:
# through _make, which sorts, or through _ascending, which trusts its caller
# to keep the order.  Exponents and coefficients run up to 10^300 in size,
# and small ones are mixed in so that terms collide and cancel.
BIG = 10**300
exponents = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
ints = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
# Fraction(6, 3) is an integral Fraction, which every result must hold as an int
fractions = st.builds(Fraction, ints, st.one_of(st.integers(1, 4), st.integers(1, BIG)))
coefficients = st.one_of(ints, fractions)
nonzero = coefficients.filter(bool)
wide_laurents = st.dictionaries(exponents, coefficients, max_size=6).map(L)
monomials = st.builds(lambda k, c: L({k: c}), exponents, nonzero)


def assert_canonical(p):
    """Ascending exponents, no zero coefficient, an int wherever the value
    is integral, and the same terms, in the same order, as the checked
    constructor makes of them."""
    keys = list(p.terms)
    assert keys == sorted(keys)
    for c in p.terms.values():
        assert type(c) is int or type(c) is Fraction and c.denominator > 1, c
        assert c
    rebuilt = L(dict(p.terms))
    assert p == rebuilt and list(rebuilt.terms.items()) == list(p.terms.items())


def from_pairs(pairs):
    """The checked constructor on (exponent, coefficient) pairs, repeats summed: the oracle."""
    return L(list(pairs))


@given(st.dictionaries(exponents, st.one_of(coefficients, st.just(0), st.just(Fraction(6, 3)))))
def test_make_is_canonical(acc):
    p = L._make(acc)
    assert_canonical(p)
    assert p == from_pairs(acc.items())


@given(wide_laurents)
def test_negation_is_canonical(p):
    assert_canonical(-p)
    assert -p == from_pairs((k, -c) for k, c in p.terms.items())


@given(wide_laurents, st.one_of(ints, fractions))
def test_scalar_products_are_canonical(p, s):
    oracle = from_pairs((k, c * s) for k, c in p.terms.items())
    for product in (p * s, s * p):
        assert_canonical(product)
        assert product == oracle


@given(st.dictionaries(exponents, ints, max_size=6).map(L))
def test_a_scalar_that_clears_every_denominator_gives_ints(p):
    thirds = p * Fraction(2, 3)
    assert_canonical(thirds)
    whole = thirds * Fraction(3, 2)
    assert_canonical(whole)
    assert whole == p and all(type(c) is int for c in whole.terms.values())


@given(wide_laurents)
def test_substitutions_are_canonical(p):
    inverse, negative = substitute_inverse(p), substitute_negative(p)
    assert_canonical(inverse)
    assert_canonical(negative)
    assert inverse == from_pairs((-k, c) for k, c in p.terms.items())
    assert negative == from_pairs((k, -c if k % 2 else c) for k, c in p.terms.items())


@given(monomials, wide_laurents)
def test_monomial_products_are_canonical(m, p):
    ((e, a),) = m.terms.items()
    oracle = from_pairs((k + e, c * a) for k, c in p.terms.items())
    for product in (m * p, p * m):
        assert_canonical(product)
        assert product == oracle


@given(wide_laurents, wide_laurents)
def test_general_product_is_canonical(p, q):
    product = p * q
    assert_canonical(product)
    pairs = ((k1 + k2, c1 * c2) for k1, c1 in p.terms.items() for k2, c2 in q.terms.items())
    assert product == from_pairs(pairs)


@given(st.lists(wide_laurents, max_size=4))
def test_poly_sum_is_canonical(ps):
    total = poly_sum(ps)
    assert_canonical(total)
    assert total == from_pairs(t for p in ps for t in p.terms.items())
    assert poly_sum([*ps, *(-p for p in ps)]) == L()


@given(st.lists(st.tuples(wide_laurents, st.one_of(st.just(0), ints, fractions)), max_size=4))
def test_linear_combination_is_canonical(pairs):
    combined = linear_combination(pairs)
    assert_canonical(combined)
    assert combined == from_pairs((k, c * s) for p, s in pairs for k, c in p.terms.items())
    # each pair again with its scalar negated: everything cancels
    assert linear_combination([*pairs, *((p, -s) for p, s in pairs)]) == L()
