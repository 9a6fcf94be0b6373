"""Weight module tests.

The segment dualize example was expanded by hand from the involution's
defining sum and frozen; the eigen-relation cases use the g-weight
construction as their independent second route, and the Horner form of
dualize is checked against the pairwise sum of tests/dualize_oracle.py.
"""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from box_oracle import cross
from dualize_oracle import pairwise_dualize
from wehrhart.algebra import LaurentPoly, neg_y_power, substitute_inverse
from wehrhart.corpus import CORPUS, build
from wehrhart.polytope import build_face_lattice, facet_presentation
from wehrhart.stanley import g_weight_function
from wehrhart.weights import (
    LatticeMismatch,
    WeightFunction,
    add,
    all_ones,
    delta_weight,
    dualize,
    random_weight_functions,
    scale,
)


def L(d):
    return LaurentPoly(d)


class TestConstruction:
    def test_zero_values_dropped(self):
        lat = build("segment")
        f = WeightFunction(lat, {lat.top_id: L({})})
        assert not f

    def test_empty_face_rejected(self):
        lat = build("segment")
        with pytest.raises(ValueError):
            WeightFunction(lat, {lat.empty_id: L({0: 1})})

    def test_unknown_face_rejected(self):
        lat = build("segment")
        with pytest.raises(ValueError):
            WeightFunction(lat, {99: L({0: 1})})

    @pytest.mark.parametrize("value", [2.5, 5, Fraction(1, 2), None])
    def test_values_other_than_laurent_polynomials_refused(self, value):
        lat = build("segment")
        with pytest.raises(TypeError, match=rf"^the weight of face {lat.top_id} is a "):
            WeightFunction(lat, {lat.top_id: value})

    @pytest.mark.parametrize("fid", [1.7, 1.0, True, "1"])
    def test_inexact_face_ids_refused(self, fid):
        with pytest.raises(TypeError):
            WeightFunction(build("segment"), {fid: L({0: 1})})

    def test_missing_is_zero(self):
        lat = build("segment")
        f = delta_weight(lat, lat.top_id)
        v0 = lat.vertex_face_id(0)
        assert f[v0] == L({})


class TestDeltaAndModuleOps:
    def test_delta_on_top(self):
        lat = build("segment")
        f = delta_weight(lat, lat.top_id)
        assert f.values == {lat.top_id: L({0: 1})}

    def test_delta_on_vertex(self):
        lat = build("segment")
        v0 = lat.vertex_face_id(lat.polytope.vertices.index((0,)))
        f = delta_weight(lat, v0)
        assert f.values == {v0: L({0: 1})}

    def test_delta_rejects_empty(self):
        lat = build("segment")
        with pytest.raises(ValueError):
            delta_weight(lat, lat.empty_id)

    def test_delta_basis_spans(self):
        lat = build("square")
        f = random_weight_functions(lat, seed=5, count=1)[0]
        rebuilt = WeightFunction(lat, {})
        for fid, p in f.values.items():
            rebuilt = add(rebuilt, scale(p, delta_weight(lat, fid)))
        assert rebuilt == f

    def test_scale_zero(self):
        lat = build("square")
        f = all_ones(lat)
        assert not scale(L({}), f)

    def test_add_inverse(self):
        lat = build("square")
        f = random_weight_functions(lat, seed=9, count=1)[0]
        assert not add(f, scale(L({0: -1}), f))

    def test_scale_y_on_delta(self):
        lat = build("square")
        f = scale(L({1: 1}), delta_weight(lat, lat.top_id))
        assert f[lat.top_id] == L({1: 1})

    def test_lattice_mismatch(self):
        with pytest.raises(LatticeMismatch):
            add(all_ones(build("square")), all_ones(build("segment")))


class TestDualize:
    def test_segment_delta_edge_frozen(self):
        lat = build("segment")
        f = delta_weight(lat, lat.top_id)
        d = dualize(f)
        v0 = lat.vertex_face_id(lat.polytope.vertices.index((0,)))
        v1 = lat.vertex_face_id(lat.polytope.vertices.index((1,)))
        # hand expansion: edge -> -y^-1, both vertices -> -(1+y)y^-1
        assert d[lat.top_id] == L({-1: -1})
        assert d[v0] == L({-1: -1, 0: -1})
        assert d[v1] == L({-1: -1, 0: -1})
        assert set(d.values) == {lat.top_id, v0, v1}

    def test_delta_general_formula(self):
        lat = build("pyramid")
        some_edge = next(q for q, f in enumerate(lat.faces) if f.dim == 1)
        d = dualize(delta_weight(lat, some_edge))
        dim_qp = lat.faces[some_edge].dim
        one_plus_y = L({0: 1, 1: 1})
        for q in lat.nonempty_ids:
            expected = L({})
            if lat.leq(q, some_edge):
                expected = one_plus_y ** (dim_qp - lat.faces[q].dim) * neg_y_power(
                    -dim_qp
                )
            assert d[q] == expected

    def test_involution_on_seeded_weights(self):
        for name in ("segment", "square", "pyramid"):
            lat = build(name)
            for f in random_weight_functions(lat, seed=11, count=10):
                assert dualize(dualize(f)) == f

    def test_dual_is_kept_on_the_weight_function(self):
        lat = build("pyramid")
        for f in random_weight_functions(lat, seed=19, count=4):
            assert dualize(f) is dualize(f)
            # the dual has no link back to f: the involution is computed twice
            assert dualize(dualize(f)) == f
            assert dualize(dualize(f)) is not f

    def test_module_property(self):
        lat = build("square")
        rng = random.Random(13)
        from wehrhart.weights import random_laurent, random_weight_function

        for _ in range(10):
            p = random_laurent(rng)
            f = random_weight_function(lat, rng)
            assert dualize(scale(p, f)) == scale(substitute_inverse(p), dualize(f))

    def test_g_eigen_relation(self):
        # dual of the g-weights of Q' is (-y)^(-dim Q') times itself
        for name in ("segment", "square", "pyramid", "cube"):
            lat = build(name)
            for qp in lat.nonempty_ids:
                f = g_weight_function(lat, qp)
                expected = scale(neg_y_power(-lat.faces[qp].dim), f)
                assert dualize(f) == expected, (name, qp)


class TestDualizeAgainstPairwiseSum:
    """dualize against the defining sum taken pair by pair."""

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_corpus(self, name):
        lat = build(name)
        weights = [all_ones(lat)]
        weights += [g_weight_function(lat, qp) for qp in lat.nonempty_ids]
        weights += random_weight_functions(lat, seed=17, count=4)
        weights.append(scale(L({-1: "1/2", 2: "-3/4"}), weights[-1]))
        for f in weights:
            assert dualize(f) == pairwise_dualize(f)


@cache
def dual_lattice(name):
    return build_face_lattice(facet_presentation(cross(4))) if name == "cross4" else build(name)


wide_laurents = st.dictionaries(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    min_size=1,
    max_size=4,
).map(LaurentPoly)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([*CORPUS, "cross4"]), st.data())
def test_dualize_against_pairwise_sum_with_a_cancelled_face(name, data):
    """f = D(h) for an h that is zero on one face Q below the top: D(f)_Q sums
    f's nonzero terms above Q, the top's among them, to zero, and must be absent."""
    lat = dual_lattice(name)
    below_top = [q for q in lat.nonempty_ids if q != lat.top_id]
    gone = data.draw(st.sampled_from(below_top))
    h = {q: data.draw(wide_laurents) for q in below_top if q != gone and data.draw(st.booleans())}
    h[lat.top_id] = data.draw(wide_laurents.filter(bool))
    f = pairwise_dualize(WeightFunction(lat, h))
    assert f[lat.top_id]
    dual = dualize(f)
    assert dual == pairwise_dualize(f) == WeightFunction(lat, h)
    assert gone not in dual.values


class TestTrustedConstruction:
    """all_ones, random weights, g-weights and dualize build through the trusted
    WeightFunction._make: each holds what the checked constructor makes of its
    values, in the same key order."""

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_values_and_order_match_the_checked_constructor(self, name):
        lat = build(name)
        made = [all_ones(lat)]
        made += [g_weight_function(lat, qp) for qp in lat.nonempty_ids]
        made += random_weight_functions(lat, seed=23, count=4)
        made += [dualize(f) for f in made]
        for f in made:
            assert list(f.values.items()) == list(WeightFunction(lat, f.values).values.items())


class TestRandomWeights:
    def test_reproducible(self):
        lat = build("square")
        a = random_weight_functions(lat, seed=21, count=5)
        b = random_weight_functions(lat, seed=21, count=5)
        assert a == b

    def test_seed_changes_stream(self):
        lat = build("square")
        a = random_weight_functions(lat, seed=21, count=5)
        b = random_weight_functions(lat, seed=22, count=5)
        assert a != b

    def test_coefficient_and_exponent_ranges(self):
        lat = build("cube")
        for f in random_weight_functions(lat, seed=3, count=20):
            for p in f.values.values():
                assert all(-2 <= k <= 2 for k in p.terms)
                assert all(-3 <= c <= 3 for c in p.terms.values())

    @pytest.mark.parametrize("name", ["square", "cube", "pyramid", "random3"])
    def test_same_stream_as_a_float_coin(self, name):
        """The integer coin draws exactly what rng.random() < 1/2 drew."""
        lat = build(name)
        for seed in range(40):
            rng = random.Random(seed)
            expected = []
            for _ in range(3):
                vals = {}
                for fid in lat.nonempty_ids:
                    if rng.random() < 0.5:
                        p = LaurentPoly({k: rng.randint(-3, 3) for k in range(-2, 3)})
                        if p:
                            vals[fid] = p
                expected.append(WeightFunction(lat, vals))
            assert random_weight_functions(lat, seed, 3) == expected
