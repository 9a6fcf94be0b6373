"""The JSON writers against json.dumps(..., indent=2), their oracle.

dumps renders indent-2 JSON itself; json.dumps with indent takes the
pure-Python encoder and is the slow, obvious route it must agree with
byte for byte.  dumps refuses floats, so no float crosses the output
boundary.  The exporters of the documents that grow with the input
(face lattices, weight functions, character sums and the verify report)
write their text themselves, each shared value rendered once, so the
CLI's stdout is checked against json.dumps of the plain dicts the
exporters built before, kept here as oracles.
"""

import io
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from box_oracle import cube, cross, random_lattice
from wehrhart import cli, ehrhart, jsonio, polytope
from wehrhart.algebra import HomogPoly, LaurentPoly as L
from wehrhart.corpus import CORPUS, build
from wehrhart.ehrhart import CheckResult, OrbitSum
from wehrhart.jsonio import (
    dumps,
    laurent_to_json,
    load_polytope,
    load_weight,
    verify_to_json,
    weight_to_json,
)
from wehrhart.polytope import build_face_lattice, facet_presentation, mask_ids, points_by_face, polytope_hash
from wehrhart.stanley import g_weight_function
from wehrhart.weights import WeightFunction, all_ones, dualize, random_weight_functions

# strings made of the pieces the repr route splits on, quotes, escapes and non-ASCII
TRICKY = st.text(alphabet=st.sampled_from([",", " ", "[", "]", '"', "\\", "\n", "a", "é", "日", "\U0001f600"]))
STRINGS = st.one_of(st.text(), TRICKY, st.sampled_from([", ", "], [", "[1, 2]", ""]))
INTS = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
)
SCALARS = st.one_of(INTS, STRINGS, st.booleans(), st.none())
INT_LISTS = st.lists(st.one_of(INTS, st.booleans(), st.none()))
# ragged int matrices; rows may be empty
MATRICES = st.lists(st.lists(INTS, max_size=4), max_size=5)
JSON_VALUES = st.recursive(
    st.one_of(SCALARS, INT_LISTS, MATRICES),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(STRINGS, children, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
@example([])
@example({})
@example([[]])
@example([[1, 2], []])
@example([[1, 2], [3]])
@example([[-1], [2**70, 0]])
@example([True, 1])
@example([1, None])
@example([1, "a"])
@example([[1], ["a"]])
@example([[1], [True]])
@example({"k": [[1, 2], [3, 4]], "s": "], [", "t": ", "})
def test_matches_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        float("nan"),
        [1, 2.0],
        [[1, 2], [3, 4.0]],
        {"a": [0.5]},
        {1: "a"},
        {"a": {2: []}},
    ],
    ids=["float", "nan", "float-in-int-list", "float-in-matrix", "nested-float", "int-key", "nested-int-key"],
)
def test_refuses_floats_and_non_str_keys(value):
    with pytest.raises(TypeError):
        dumps(value)


def test_refuses_int_subclasses_and_tuples():
    class Count(int):
        pass

    for value in (Count(3), [Count(3)], (1, 2), [[1], (2,)]):
        with pytest.raises(TypeError):
            dumps(value)


def test_refuses_str_subclasses():
    class Name(str):
        pass

    for value in (Name("a"), [Name("a")], {"k": Name("a")}):
        with pytest.raises(TypeError):
            dumps(value)


@st.composite
def shared_trees(draw):
    """A tree whose leaves are drawn, as the same objects, from a small pool."""
    pool = draw(st.lists(JSON_VALUES, min_size=1, max_size=4))
    return draw(
        st.recursive(
            st.sampled_from(pool),
            lambda children: st.one_of(
                st.lists(children, max_size=4), st.dictionaries(STRINGS, children, max_size=4)
            ),
            max_leaves=12,
        )
    )


COEFF = [{"exp": 0, "coeff": "1"}, {"exp": 2, "coeff": "-3/2"}]
ROW = {"m": [1, 2], "coeff": COEFF, "more": [COEFF, [COEFF]]}


@settings(max_examples=100, deadline=None)
@given(shared_trees())
@example({"x": COEFF, "rows": [ROW, ROW, {"c": ROW}], "deep": [[[COEFF]], COEFF]})
@example([COEFF, [COEFF, [COEFF, [COEFF]]], {"a": COEFF, "b": [COEFF]}])
@example([[ROW], ROW, [ROW], {"r": [ROW, ROW]}])
def test_shared_values_match_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2) + "\n"


def test_repeated_value_with_a_float_is_refused():
    bad = [1, {"a": 0.5}]
    for value in ([bad, bad], {"a": bad, "b": [bad]}):
        with pytest.raises(TypeError):
            dumps(value)


# The exports as plain dicts, the route the exporters took before they
# wrote their text themselves.
def plain_lattice_json(lattice):
    P = lattice.polytope
    return {
        "n": P.n,
        "polytope_hash": polytope_hash(P),
        "facets": [{"u": list(u), "a": a} for u, a in P.facets],
        "f_vector": list(lattice.f_vector),
        "faces": [
            {
                "id": q,
                "dim": f.dim,
                "vertices": mask_ids(f.vertex_mask),
                "tight_facets": mask_ids(f.tight_mask),
            }
            for q, f in enumerate(lattice.faces)
        ],
        "order": [[a, b] for a, up in enumerate(lattice.up) for b in mask_ids(up & ~(1 << a))],
    }


def plain_weight_json(f):
    return {
        "polytope_hash": polytope_hash(f.lattice.polytope),
        "values": {str(fid): laurent_to_json(p) for fid, p in f.values.items()},
    }


def plain_side(v):
    """A check's side as text: an OrbitSum as "{chi^[m]: coefficient; ...}",
    its points sorted by character, each taken from points_by_face."""
    if not isinstance(v, OrbitSum):
        return str(v)
    if v.ell:
        relint, sign = points_by_face(v.lattice, abs(v.ell)), -1 if v.ell > 0 else 1
        terms = sorted(
            (tuple(sign * x for x in m), str(c)) for e, c in v.coeffs.items() if c for m in relint[e]
        )
    else:
        terms = [((0,) * v.lattice.polytope.n, str(c)) for c in v.coeffs.values() if c]
    return "{" + "; ".join(f"chi^{list(m)}: {p}" for m, p in terms) + "}"


def plain_check_json(check):
    lhs = plain_side(check.lhs)
    out = {
        "name": check.name,
        "params": {k: str(v) for k, v in check.params.items()},
        "passed": check.passed,
        "lhs": lhs,
        "rhs": lhs if check.passed else plain_side(check.rhs),
    }
    if check.difference is not None:
        out["first_difference"] = {k: str(v) for k, v in check.difference.items()}
    return out


def plain_verify_json(lattice, reports):
    phash = polytope_hash(lattice.polytope)
    entries = [
        {
            "polytope": phash,
            "weight": weight,
            "phi": phi,
            "passed": all(c.passed for c in checks),
            "checks": [plain_check_json(c) for c in checks],
            "suite": suite,
        }
        for suite, weight, phi, checks in reports
    ]
    failed = sum(not c.passed for *_, checks in reports for c in checks)
    total = sum(len(checks) for *_, checks in reports)
    return {"reports": entries, "checks": total, "failed": failed, "passed": not failed}


def rendered_check(lattice, check):
    """One check as verify_to_json writes it, read back."""
    text, _ = verify_to_json(lattice, [("suite", "weight", "phi", [check])])
    return json.loads(text)["reports"][0]["checks"][0]


def test_weight_export_renders_each_distinct_polynomial_once(monkeypatch):
    lattice = build("random3")
    g = g_weight_function(lattice, lattice.top_id)
    rendered = []

    def counted(p):
        rendered.append(p)
        return real(p)

    real = jsonio.laurent_to_json
    monkeypatch.setattr(jsonio, "laurent_to_json", counted)
    assert weight_to_json(g) == _plain(plain_weight_json(g))
    assert len(rendered) == len(set(g.values.values())) < len(g.values)


BIG = 10**300
# exact ints and rationals far beyond what random and g-weights hold
COEFFS = st.one_of(st.integers(-BIG, BIG), st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
LAURENTS = st.dictionaries(st.integers(-BIG, BIG), COEFFS, max_size=4).map(L)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_weight_export_matches_json_dumps(data):
    lattice = build("pyramid")
    # values drawn from a small pool, so that faces share polynomials
    pool = data.draw(st.lists(LAURENTS, min_size=1, max_size=4))
    values = data.draw(st.dictionaries(st.sampled_from(lattice.nonempty_ids), st.sampled_from(pool)))
    f = WeightFunction(lattice, values)
    assert weight_to_json(f) == _plain(plain_weight_json(f))


def _plain(value):
    return json.dumps(value, indent=2) + "\n"


def _stdout(argv):
    out = io.StringIO()
    assert cli.run(cli.parse_args(argv), stdout=out) == 0
    return out.getvalue()


EXPORT_POLYTOPES = {
    **CORPUS,
    "cube5": cube(5),
    "cube6": cube(6),
    "cross5": cross(5),
    "cross6": cross(6),
    # 27 vertices, 317 facets and 4,362 faces
    "random6": random_lattice(6, 1, 1, 30).polytope.vertices,
}


@pytest.mark.parametrize("name", list(EXPORT_POLYTOPES))
def test_exports_match_the_plain_dict_route(name, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"vertices": [list(v) for v in EXPORT_POLYTOPES[name]]}))
    lattice = build_face_lattice(load_polytope(path))
    assert _stdout(["faces", str(path)]) == _plain(plain_lattice_json(lattice))
    g = g_weight_function(lattice, lattice.top_id)
    assert _stdout(["gweights", str(path), "--face", "P"]) == _plain(plain_weight_json(g))
    # g-weights repeat a few values over many faces; random weights rarely repeat
    for f in (g, *random_weight_functions(lattice, 3, 1)):
        weights = tmp_path / "w.json"
        weights.write_text(_plain(plain_weight_json(f)))
        dual = dualize(load_weight(weights, lattice))
        assert _stdout(["dualize", str(path), "--weights", str(weights)]) == _plain(plain_weight_json(dual))


@pytest.mark.parametrize(
    "pts", [CORPUS["square"], cube(4), cross(4), CORPUS["random3"]], ids=["square", "cube4", "cross4", "random3"]
)
def test_each_face_mask_is_decoded_once(pts, monkeypatch):
    """Between them, build_face_lattice and lattice_to_json decode each
    face's vertex mask and tight mask once."""
    P = facet_presentation(pts)
    calls, real = Counter(), polytope.mask_ids

    def counting(mask):
        calls[mask] += 1
        return real(mask)

    monkeypatch.setattr(polytope, "mask_ids", counting)
    monkeypatch.setattr(jsonio, "mask_ids", counting)
    lattice = build_face_lattice(P)
    jsonio.lattice_to_json(lattice)
    masks = Counter(m for f in lattice.faces for m in (f.vertex_mask, f.tight_mask))
    # 0 is the empty face's vertex mask and P's tight mask, and also the
    # order row of P, which lies below no other face
    del masks[0]
    assert {m: calls[m] for m in masks} == masks


def _verify_run(monkeypatch, argv):
    """(exit code, stdout, the plain dict route's report) of one verify run."""
    seen = []
    real = cli.verify_to_json

    def recorded(lattice, reports):
        seen.append((lattice, reports))
        return real(lattice, reports)

    monkeypatch.setattr(cli, "verify_to_json", recorded)
    out = io.StringIO()
    code = cli.run(cli.parse_args(argv), stdout=out)
    ((lattice, reports),) = seen
    return code, out.getvalue(), plain_verify_json(lattice, reports)


def cli_fixture(name):
    return Path(__file__).resolve().parent.parent / "fixtures" / f"{name}.json"


def _phi_file(tmp_path, n):
    """A fixture integrand of dimension n, or a written one where none is bundled."""
    bundled = {2: "phi_quadratic_2d", 3: "phi_linear_3d"}
    if n in bundled:
        return str(cli_fixture(bundled[n]))
    path = tmp_path / "phi.json"
    monomials = [{"exps": [int(i == j) for j in range(n)], "coeff": f"{i + 1}/2"} for i in range(n)]
    path.write_text(json.dumps({"n": n, "monomials": monomials}))
    return str(path)


VERIFY_POLYTOPES = {**CORPUS, "cube5": cube(5), "cross5": cross(5)}


@pytest.mark.parametrize("with_phi", [False, True], ids=["phi=1", "phi"])
@pytest.mark.parametrize("name", list(VERIFY_POLYTOPES))
def test_verify_report_matches_the_plain_dict_route(name, with_phi, monkeypatch, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"vertices": [list(v) for v in VERIFY_POLYTOPES[name]]}))
    argv = ["verify", str(path), "--suite", "all", "--lmax", "2"]
    argv += ["--random-weights", "--seed", "5", "--count", "2"]
    if with_phi:
        argv += ["--phi", _phi_file(tmp_path, len(VERIFY_POLYTOPES[name][0]))]
    code, out, plain = _verify_run(monkeypatch, argv)
    assert code == 0 and plain["passed"]
    assert out == _plain(plain)


def test_planted_failing_reciprocity_check_matches_the_plain_dict_route(monkeypatch):
    real = cli.verify_reciprocity

    def second_fails(f, phi, ells, variant):
        checks = real(f, phi, ells, variant)
        check = checks[1]  # at ell = 2
        wrong = check.rhs + L({-1: 3})
        difference = {"exponent": -1, "lhs": check.lhs.coeff(-1), "rhs": wrong.coeff(-1)}
        checks[1] = CheckResult(check.name, check.params, False, check.lhs, wrong, difference)
        return checks

    monkeypatch.setattr(cli, "verify_reciprocity", second_fails)
    argv = ["verify", str(cli_fixture("pyramid")), "--suite", "reciprocity", "--lmax", "3"]
    code, out, plain = _verify_run(monkeypatch, argv)
    assert code == 1 and out == _plain(plain)
    # two weights, each with an Etilde and an E report, fail at ell = 2
    data = json.loads(out)
    assert (data["checks"], data["failed"], data["passed"]) == (12, 4, False)
    for report in data["reports"]:
        first, second, third = report["checks"]
        assert first["passed"] and third["passed"] and not second["passed"]
        assert "first_difference" not in first and second["first_difference"]["exponent"] == "-1"
        assert second["lhs"] != second["rhs"]


def test_planted_wrong_dual_fails_its_hodge_check(monkeypatch):
    """y^3 on the segment's open edge of every dual: the edge holds a point
    from ell = 2 on, so the hodge check fails there and names the edge."""
    lattice = build("segment")
    real = ehrhart.dualize

    def wrong(f):
        dual = real(f)
        top = f.lattice.top_id
        return WeightFunction(f.lattice, {**dual.values, top: dual[top] + L({3: 1})})

    monkeypatch.setattr(ehrhart, "dualize", wrong)
    argv = ["verify", str(cli_fixture("segment")), "--suite", "hodge", "--lmax", "2"]
    code, out, plain = _verify_run(monkeypatch, argv)
    assert code == 1 and out == _plain(plain)
    for report in json.loads(out)["reports"]:
        one, two = report["checks"]
        assert one["passed"] and one["lhs"] == one["rhs"]
        assert not two["passed"] and two["lhs"] != two["rhs"]
        assert two["first_difference"]["face"] == str(lattice.top_id)
    # the rhs is rendered from its own value, the inverted sum of all-ones at -2
    inverted = ehrhart._orbit_coefficients(all_ones(lattice), ehrhart._MINUS_INVERTED)
    rhs = OrbitSum(inverted, lattice, 2)
    assert json.loads(out)["reports"][0]["checks"][1]["rhs"] == plain_side(rhs)



def test_shared_sides_and_params_render_as_the_plain_dict_route():
    """verify_to_json renders each side object and each distinct params dict
    once per report.  Checks that share sides, repeat params in new dicts or
    hold distinct sides of equal params must still read as each check alone."""
    lattice = build("square")
    phi = HomogPoly.one(2)
    f = all_ones(lattice)
    (etilde,) = ehrhart.verify_reciprocity(f, phi, [1], ehrhart.VARIANT_ETILDE)
    e = ehrhart.e_form(etilde, phi)
    assert e.lhs is etilde.lhs and e.rhs is etilde.rhs  # the factor is 1 at deg phi = 0
    lhs, rhs = L({0: 1, 1: 2}), L({0: 1, 1: 3})
    difference = {"exponent": 1, "lhs": 2, "rhs": 3}
    planted = CheckResult("planted", {"ell": 1, "variant": "E"}, False, lhs, rhs, difference)
    # one check's lhs is another's rhs, under params equal to the planted check's
    swapped = CheckResult("swapped", {"ell": 1, "variant": "E"}, False, rhs, L({1: 2}), difference)
    # equal values held by distinct objects, and the sum of every orbit at ell = 2
    copies = CheckResult("copies", dict(etilde.params), True, L(dict(lhs.terms)), L(dict(lhs.terms)))
    (hodge,) = ehrhart.verify_hodge_duality(f, [2])
    reports = [
        ("reciprocity", "all-ones", "1", [etilde, planted, swapped]),
        ("reciprocity", "all-ones", "1", [e, copies, planted]),
        ("hodge", "all-ones", "-", [hodge, *ehrhart.verify_hodge_duality(f, [2])]),
    ]
    plain = plain_verify_json(lattice, reports)
    assert verify_to_json(lattice, reports) == (_plain(plain), plain["failed"])


def test_sides_freed_while_the_report_renders_are_not_confused():
    """A side memo keyed by id alone would read a freed side's text for a new
    side at the same address; reports from a generator free each check's
    sides once its entry is rendered."""
    lattice = build("segment")

    def checks():
        for i in range(200):
            value = L({0: i, 1: -i})
            yield "suite", f"w{i}", "1", [CheckResult("c", {"ell": i}, True, value, value)]

    expected = _plain(plain_verify_json(lattice, list(checks())))
    assert verify_to_json(lattice, checks()) == (expected, 0)
