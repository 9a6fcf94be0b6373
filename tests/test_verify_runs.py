"""The verifiers over a run of dilations.

Each of the four verifiers checks one (suite, weight) over a run of
dilations and returns one CheckResult per dilation, in order, equal to
the check it returns on that dilation alone.  Every argument of the run
is checked before any face table is built, a weight builds its value at
-ell once for every check that reads it, and verify holds one face's
g-weights at a time.
"""

import io
import weakref
from pathlib import Path

import pytest

import wehrhart.ehrhart as eh
from box_oracle import cube
from wehrhart import cli
from wehrhart.algebra import HomogPoly, LaurentPoly
from wehrhart.corpus import CORPUS, build
from wehrhart.ehrhart import (
    hodge_character_sum,
    verify_duality_reciprocity,
    verify_hodge_duality,
    verify_purity,
    verify_reciprocity,
)
from wehrhart.jsonio import load_phi
from wehrhart.polytope import build_face_lattice, facet_presentation
from wehrhart.stanley import g_weight_function
from wehrhart.weights import all_ones, random_weight_functions, scale

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# out of order, with repeats, and empty
RUNS = [(3, 1, 2, 1), (2, 2), ()]


def lattice(name):
    if name == "cube4":
        return build_face_lattice(facet_presentation(cube(4)))
    return build(name)


def integrands(n):
    """phi = 1 and the fixtures' integrands of dimension n: degrees 0, 1 and 2."""
    return [HomogPoly.one(n)] + [load_phi(str(p), n) for p in sorted(FIXTURES.glob(f"phi_*_{n}d.json"))]


def assert_runs_match(verify):
    """verify(ells) against verify([ell])[0] for each ell, on every run."""
    for ells in RUNS:
        checks = verify(ells)
        assert len(checks) == len(ells)
        assert checks == [verify([ell])[0] for ell in ells], ells


@pytest.mark.parametrize("name", [*CORPUS, "cube4"])
def test_run_form_matches_the_one_dilation_form(name):
    lat = lattice(name)
    n = lat.polytope.n
    weights = [all_ones(lat), g_weight_function(lat, lat.top_id), *random_weight_functions(lat, 73, 2)]
    facet = next(q for q in lat.nonempty_ids if lat.faces[q].dim == n - 1)
    for phi in integrands(n):
        for f in weights:
            for variant in ("E", "Etilde"):
                assert_runs_match(lambda ells: verify_reciprocity(f, phi, ells, variant))
                assert_runs_match(lambda ells: verify_duality_reciprocity(f, phi, ells, variant))
            # the g-weights of P pass at P; every other weight fails there, with a difference
            assert_runs_match(lambda ells: verify_purity(f, lat.top_id, phi, ells))
        for qp in (lat.vertex_face_id(0), facet):
            g = g_weight_function(lat, qp)
            assert_runs_match(lambda ells: verify_purity(g, qp, phi, ells))
    for f in weights:
        assert_runs_match(lambda ells: verify_hodge_duality(f, ells))


@pytest.mark.parametrize("name", CORPUS)
def test_character_sums_and_hodge_checks_compare_by_value(name):
    """Two calls build distinct OrbitSums that compare equal: the same
    coefficients on the same lattice object at the same ell."""
    lat = build(name)
    f = all_ones(lat)
    assert verify_hodge_duality(f, [1, 2]) == verify_hodge_duality(f, [1, 2])
    for ell in (-2, 0, 2):
        s = hodge_character_sum(f, ell)
        assert s is not hodge_character_sum(f, ell) and s == hodge_character_sum(f, ell), ell
    doubled = scale(LaurentPoly({0: 2}), f)
    assert hodge_character_sum(f, 2) != hodge_character_sum(f, -2)
    assert hodge_character_sum(f, 2) != hodge_character_sum(doubled, 2)
    assert hodge_character_sum(f, -2) != hodge_character_sum(doubled, -2)
    # an equal lattice built afresh is another object, so its sums differ
    fresh = build_face_lattice(facet_presentation(CORPUS[name]))
    assert hodge_character_sum(f, 2) != hodge_character_sum(all_ones(fresh), 2)


# every verifier on the square, its run handed in as ells
VERIFIERS = {
    "verify_reciprocity": lambda lat, ells: verify_reciprocity(all_ones(lat), HomogPoly.one(2), ells),
    "verify_duality_reciprocity": lambda lat, ells: verify_duality_reciprocity(
        all_ones(lat), HomogPoly.one(2), ells
    ),
    "verify_hodge_duality": lambda lat, ells: verify_hodge_duality(all_ones(lat), ells),
    "verify_purity": lambda lat, ells: verify_purity(
        g_weight_function(lat, lat.top_id), lat.top_id, HomogPoly.one(2), ells
    ),
}


@pytest.fixture
def no_face_tables(monkeypatch):
    """Fail the test if a verifier reaches a per-face table or a point partition."""

    def reached(*args):
        raise AssertionError(f"a face table was built for {args[1:]}")

    monkeypatch.setattr(eh, "_phi_face_sums", reached)
    monkeypatch.setattr(eh, "points_by_face", reached)


BAD_DILATIONS = [(0, ValueError), (-2, ValueError), (True, TypeError), (2.0, TypeError)]


@pytest.mark.parametrize("bad,error", BAD_DILATIONS, ids=repr)
@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_bad_dilation_anywhere_in_the_run_is_refused_first(no_face_tables, name, where, bad, error):
    lat = build_face_lattice(facet_presentation(CORPUS["square"]))  # fresh caches
    ells = [1, 2]
    ells.insert(where, bad)
    with pytest.raises(error):
        VERIFIERS[name](lat, ells)
    assert not lat._memo


@pytest.mark.parametrize("face", ["empty", "-1", "len(faces)"])
def test_purity_refuses_a_bad_face_first(no_face_tables, face):
    lat = build_face_lattice(facet_presentation(CORPUS["square"]))  # fresh caches
    fid = {"empty": lat.empty_id, "-1": -1, "len(faces)": len(lat.faces)}[face]
    with pytest.raises(ValueError):
        verify_purity(g_weight_function(lat, lat.top_id), fid, HomogPoly.one(2), [1, 2])
    assert not lat._memo


def test_a_weight_builds_its_value_at_minus_ell_once():
    # reciprocity, duality and purity at P read one Etilde(-ell) off the g-weights of P
    lat = build("pyramid")
    f, phi = g_weight_function(lat, lat.top_id), HomogPoly.one(3)
    runs = (
        verify_reciprocity(f, phi, (1, 2), "Etilde"),
        verify_duality_reciprocity(f, phi, (1, 2), "Etilde"),
        verify_purity(f, lat.top_id, phi, (1, 2)),  # E, whose factor is 1 at deg phi = 0
    )
    for ell, (a, b, c) in zip((1, 2), zip(*runs), strict=True):
        assert a.passed and b.passed and c.passed
        assert a.lhs is b.lhs is c.lhs is f._memo[phi, -ell]


def _captured_lattice(monkeypatch):
    """The lattices cli.run loads, recorded as it loads them."""
    captured = []
    real = cli._load_lattice
    monkeypatch.setattr(cli, "_load_lattice", lambda spec: captured.append(real(spec)) or captured[-1])
    return captured


def test_verify_leaves_only_dilation_and_integrand_keys_in_the_lattice_memo(monkeypatch):
    lattices = _captured_lattice(monkeypatch)
    argv = ["verify", str(FIXTURES / "pyramid.json"), "--suite", "all", "--lmax", "3"]
    argv += ["--phi", str(FIXTURES / "phi_linear_3d.json"), "--random-weights", "--seed", "5", "--count", "2"]
    assert cli.run(cli.parse_args(argv), stdout=io.StringIO()) == 0
    (lat,) = lattices
    phi = load_phi(str(FIXTURES / "phi_linear_3d.json"), 3)
    for key in lat._memo:
        if isinstance(key, tuple):
            assert key[0] == phi and type(key[1]) is int and key[1], key
        else:
            assert key == phi or type(key) is int and key >= 1, key


def test_purity_holds_one_faces_g_weights_at_a_time(monkeypatch):
    lattices = _captured_lattice(monkeypatch)
    refs = []  # (weakref to the g-weights purity checked, face id), in order
    real_purity, real_g = cli.verify_purity, cli.g_weight_function

    def earlier_faces_freed():
        # g-weights(P) stays in the weight set for the hodge suite
        return all(ref() is None for ref, fid in refs if fid != lattices[0].top_id)

    def purity(f, fid, phi, ells):
        assert earlier_faces_freed(), fid
        refs.append((weakref.ref(f), fid))
        return real_purity(f, fid, phi, ells)

    def g_weights(lattice, fid):
        assert earlier_faces_freed(), fid
        return real_g(lattice, fid)

    monkeypatch.setattr(cli, "verify_purity", purity)
    monkeypatch.setattr(cli, "g_weight_function", g_weights)
    argv = ["verify", str(FIXTURES / "cube.json"), "--suite", "all", "--lmax", "2"]
    assert cli.run(cli.parse_args(argv), stdout=io.StringIO()) == 0
    assert [fid for _, fid in refs] == lattices[0].nonempty_ids
    assert earlier_faces_freed()
