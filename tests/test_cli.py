"""End-to-end command tests against the bundled fixture files."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from wehrhart import cli, corpus, ehrhart, polytope
from wehrhart.algebra import LaurentPoly as L
from wehrhart.ehrhart import CheckResult, EhrhartReport
from wehrhart.jsonio import (
    ContentError,
    FormatError,
    charsum_to_json,
    dumps,
    load_polytope,
    weight_from_json,
    weight_to_json,
)
from wehrhart.stanley import g_weight_function
from wehrhart.weights import all_ones as all_ones_weight, random_weight_function
import random

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fx(name):
    return str(FIXTURES / f"{name}.json")


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_faces_segment_f_vector(capsys):
    code, out, err = run_cli(["faces", fx("segment")], capsys)
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["f_vector"] == [1, 2, 1]
    assert data["n"] == 1
    assert len(data["facets"]) == 2


def test_faces_export_is_consistent_with_library(capsys):
    code, out, _ = run_cli(["faces", fx("pyramid")], capsys)
    assert code == 0
    data = json.loads(out)
    lattice = corpus.build("pyramid")
    assert data["f_vector"] == list(lattice.f_vector)
    by_id = {f["id"]: f for f in data["faces"]}
    for f in lattice.faces:
        assert by_id[f.id]["dim"] == f.dim
        assert by_id[f.id]["vertices"] == sorted(f.vertex_set)
    pairs = {tuple(p) for p in data["order"]}
    for a in range(len(lattice.faces)):
        for b in range(len(lattice.faces)):
            if a != b:
                assert ((a, b) in pairs) == lattice.leq(a, b)


def test_hpoly_square_text(capsys):
    code, out, _ = run_cli(["hpoly", fx("square")], capsys)
    assert code == 0
    assert out == "1 + 2*t + 1*t^2\n"


def test_gweights_vertex_is_delta(capsys):
    lattice = corpus.build("pyramid")
    apex = lattice.vertex_face_id(lattice.polytope.vertices.index((0, 0, 1)))
    code, out, _ = run_cli(["gweights", fx("pyramid"), "--face", str(apex)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["values"] == {str(apex): [{"exp": 0, "coeff": "1"}]}


def test_gweights_whole_polytope_marks_apex(capsys):
    lattice = corpus.build("pyramid")
    apex = lattice.vertex_face_id(lattice.polytope.vertices.index((0, 0, 1)))
    code, out, _ = run_cli(["gweights", fx("pyramid"), "--face", "P"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["values"][str(apex)] == [
        {"exp": 0, "coeff": "1"},
        {"exp": 1, "coeff": "-1"},
    ]
    others = [v for k, v in data["values"].items() if k != str(apex)]
    assert all(v == [{"exp": 0, "coeff": "1"}] for v in others)


def test_charsum_segment_golden(capsys):
    code, out, _ = run_cli(["charsum", fx("segment"), "--l", "1"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"m": [-1], "coeff": [{"exp": 0, "coeff": "1"}]},
            {"m": [0], "coeff": [{"exp": 0, "coeff": "1"}]},
        ]
    }


def test_charsum_negative_dilation(capsys):
    code, out, _ = run_cli(["charsum", fx("segment"), "--l", "-1"], capsys)
    assert code == 0
    assert json.loads(out) == {
        "terms": [
            {"m": [0], "coeff": [{"exp": 1, "coeff": "-1"}]},
            {"m": [1], "coeff": [{"exp": 1, "coeff": "-1"}]},
        ]
    }


def test_ehrhart_square_matches_interpolation_oracle(capsys):
    code, out, _ = run_cli(["ehrhart", fx("square"), "--variant", "Etilde"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 2 and data["degree_bound"] == 2
    assert data["constant_term_check"] is True
    expected = [
        [{"exp": 0, "coeff": "1"}, {"exp": 1, "coeff": "-2"}, {"exp": 2, "coeff": "1"}],
        [{"exp": 0, "coeff": "2"}, {"exp": 2, "coeff": "-2"}],
        [{"exp": 0, "coeff": "1"}, {"exp": 1, "coeff": "2"}, {"exp": 2, "coeff": "1"}],
    ]
    assert data["coeffs"] == expected
    assert data["constant_term"] == expected[0]


def test_ehrhart_with_phi_file(capsys):
    code, out, _ = run_cli(
        ["ehrhart", fx("square"), "--variant", "E", "--phi", fx("phi_linear_2d")],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["degree_bound"] == 3
    # phi vanishes at the origin, so the closed form gives zero
    assert data["constant_term"] == []


def test_failed_face_check_exits_1(capsys, monkeypatch):
    # the CLI builds a fresh lattice, so the warped sums reach its face table
    real = ehrhart._phi_face_sums

    def warped(lattice, phi, ell):
        sums = dict(real(lattice, phi, ell))
        sums[lattice.top_id] += ell**4
        return sums

    monkeypatch.setattr(ehrhart, "_phi_face_sums", warped)
    code, out, err = run_cli(["ehrhart", fx("square"), "--variant", "E"], capsys)
    assert (code, out) == (1, "")
    top = corpus.build("square").top_id
    assert err.startswith(f"error: check: face {top}: ") and "order 3, above their degree 2" in err


def test_verify_pyramid_all_suites_pass(capsys):
    code, out, _ = run_cli(
        ["verify", fx("pyramid"), "--suite", "all", "--lmax", "3"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["failed"] == 0
    suites = {r["suite"] for r in data["reports"]}
    assert suites == {"reciprocity", "duality", "purity", "hodge"}


def test_verify_random_weights_pass(capsys):
    code, out, _ = run_cli(
        [
            "verify",
            fx("random3"),
            "--suite",
            "hodge",
            "--lmax",
            "2",
            "--random-weights",
            "--seed",
            "11",
            "--count",
            "3",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert any("random[seed=11]" in r["weight"] for r in data["reports"])


def test_verify_single_suite_with_phi(capsys):
    code, out, _ = run_cli(
        [
            "verify",
            fx("pyramid"),
            "--suite",
            "reciprocity",
            "--lmax",
            "2",
            "--phi",
            fx("phi_linear_3d"),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(r["suite"] == "reciprocity" for r in data["reports"])


def test_exit_code_1_on_failed_check():
    bad = CheckResult("demo", {}, False, 0, 1)
    rep = EhrhartReport("hash", "w", "1", [bad])
    assert cli.exit_code_for_reports([("demo", rep)]) == 1
    rendered = cli.render_verify_reports([("demo", rep)])
    assert rendered["passed"] is False and rendered["failed"] == 1


def test_parse_error_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run_cli(["faces", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: parse: ")


def test_parse_error_unknown_flag(capsys):
    code, _, err = run_cli(["faces", fx("segment"), "--bogus"], capsys)
    assert code == 2
    assert err.startswith("error: parse: ")


def test_parse_error_random_without_seed(capsys):
    code, _, err = run_cli(
        ["verify", fx("square"), "--suite", "all", "--lmax", "3", "--random-weights"],
        capsys,
    )
    assert code == 2
    assert "--seed" in err


def test_validation_error_degenerate_polytope(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text('{"vertices": [[0, 0], [1, 1], [2, 2]]}')
    code, _, err = run_cli(["faces", str(path)], capsys)
    assert code == 3
    assert err.startswith("error: validation: ")


@pytest.mark.parametrize(
    "command,options",
    [
        ("faces", []),
        ("hpoly", []),
        ("gweights", ["--face", "P"]),
        ("ehrhart", ["--variant", "E"]),
        ("verify", ["--suite", "all", "--lmax", "2"]),
    ],
)
def test_validation_error_vertices_without_coordinates(command, options, tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": [[]]}')
    code, out, err = run_cli([command, str(path), *options], capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: validation: ") and err.count("\n") == 1


def test_validation_error_inhomogeneous_phi(tmp_path, capsys):
    path = tmp_path / "phi.json"
    path.write_text(
        '{"n": 2, "monomials": [{"exps": [1, 0], "coeff": "1"},'
        ' {"exps": [2, 0], "coeff": "1"}]}'
    )
    code, _, err = run_cli(
        ["ehrhart", fx("square"), "--variant", "E", "--phi", str(path)], capsys
    )
    assert code == 3
    assert "homogeneous" in err


def test_validation_error_phi_dimension_mismatch(capsys):
    code, _, err = run_cli(
        ["ehrhart", fx("cube"), "--variant", "E", "--phi", fx("phi_linear_2d")],
        capsys,
    )
    assert code == 3
    assert "dimension" in err


def test_validation_error_weight_hash_mismatch(tmp_path, capsys):
    out_path = tmp_path / "gw.json"
    code, _, _ = run_cli(
        ["gweights", fx("pyramid"), "--face", "P", "-o", str(out_path)], capsys
    )
    assert code == 0
    code, _, err = run_cli(
        ["dualize", fx("cube"), "--weights", str(out_path)], capsys
    )
    assert code == 3
    assert "different polytope" in err


def test_validation_error_bad_face_id(capsys):
    code, _, err = run_cli(["gweights", fx("square"), "--face", "99"], capsys)
    assert code == 3


@pytest.mark.parametrize("face", ["1_0", "01", " 2", "+1", "-0", "x"])
def test_parse_error_noncanonical_face_id(face, capsys):
    code, _, err = run_cli(["gweights", fx("square"), "--face", face], capsys)
    assert code == 2
    assert err == f"error: parse: --face must be an integer id or P, got {face!r}\n"


@pytest.mark.parametrize("key", ["01", " 2", "2 ", "1_0", "+1", "-0", "\u0662"])
def test_weight_file_noncanonical_face_id_refused(key, tmp_path, capsys):
    lattice = corpus.build("square")
    data = weight_to_json(g_weight_function(lattice, lattice.top_id))
    with pytest.raises(FormatError):
        weight_from_json({**data, "values": {key: [{"exp": 0, "coeff": "1"}]}}, lattice)
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**data, "values": {key: [{"exp": 0, "coeff": "1"}]}}))
    code, out, err = run_cli(["dualize", fx("square"), "--weights", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: parse: face id")


def test_weight_file_two_spellings_of_one_face_refused(tmp_path, capsys):
    lattice = corpus.build("square")
    one = [{"exp": 0, "coeff": "1"}]
    data = {**weight_to_json(all_ones_weight(lattice)), "values": {"1": one, "01": one}}
    with pytest.raises(FormatError):
        weight_from_json(data, lattice)
    # the canonical spelling alone still loads, and a negative id is a content error
    assert weight_from_json({**data, "values": {"1": one}}, lattice).values == {1: L({0: 1})}
    with pytest.raises(ContentError):
        weight_from_json({**data, "values": {"-1": one}}, lattice)


def test_dualize_twice_is_identity(tmp_path, capsys):
    first = tmp_path / "dual.json"
    second = tmp_path / "dual2.json"
    code, _, _ = run_cli(
        ["gweights", fx("pyramid"), "--face", "P", "-o", str(tmp_path / "gw.json")],
        capsys,
    )
    assert code == 0
    run_cli(
        ["dualize", fx("pyramid"), "--weights", str(tmp_path / "gw.json"), "-o", str(first)],
        capsys,
    )
    run_cli(
        ["dualize", fx("pyramid"), "--weights", str(first), "-o", str(second)],
        capsys,
    )
    assert second.read_bytes() == (tmp_path / "gw.json").read_bytes()


def test_byte_identical_reruns(tmp_path, capsys):
    for args in (
        ["faces", fx("random3")],
        ["ehrhart", fx("cube"), "--variant", "Etilde"],
        [
            "verify",
            fx("square"),
            "--suite",
            "duality",
            "--lmax",
            "2",
            "--random-weights",
            "--seed",
            "5",
            "--count",
            "2",
        ],
    ):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["-o", str(a)]) == 0
        assert cli.main(args + ["-o", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


def test_fixture_corpus_matches_builtin_corpus():
    for name in corpus.names():
        P = load_polytope(fx(name))
        assert P.vertices == corpus.build(name).polytope.vertices
        assert P.facets == corpus.build(name).polytope.facets


def test_weight_export_reingests_equal():
    lattice = corpus.build("pyramid")
    f = random_weight_function(lattice, random.Random(3))
    assert weight_from_json(weight_to_json(f), lattice) == f


def test_charsum_export_reingests_equal():
    """No command reads a character sum back; the export is compared, byte for
    byte, with the pointwise oracle's terms rendered by json.dumps."""
    from charsum_oracle import pointwise_character_sum
    from wehrhart.ehrhart import hodge_character_sum
    from wehrhart.jsonio import laurent_to_json
    from wehrhart.weights import all_ones

    lattice = corpus.build("square")
    f = all_ones(lattice)
    for ell in (-2, 0, 2):
        s = hodge_character_sum(lattice, f, ell)
        terms = pointwise_character_sum(lattice, f, ell).items()
        expected = {"terms": [{"m": list(m), "coeff": laurent_to_json(p)} for m, p in terms]}
        assert dumps(charsum_to_json(s)) == json.dumps(expected, indent=2) + "\n"


def test_phi_export_reingests_equal(tmp_path):
    from wehrhart.algebra import HomogPoly
    from wehrhart.jsonio import load_phi

    path = tmp_path / "phi.json"
    path.write_text(
        '{"n": 2, "monomials": [{"exps": [2, 0], "coeff": "3/2"}, {"exps": [1, 1], "coeff": "-1"}]}'
    )
    assert load_phi(str(path)) == HomogPoly(2, [((2, 0), Fraction(3, 2)), ((1, 1), -1)])


def test_jobspec_defaults():
    assert vars(cli.parse_args(["charsum", "poly.json", "--l", "4"])) == {
        "command": "charsum",
        "polytope": "poly.json",
        "ell": 4,
        "weights": None,
        "out": None,
    }


def test_parser_reuse_gives_independent_namespaces():
    first = cli.parse_args(["charsum", "a.json", "--l", "4", "--weights", "w.json"])
    second = cli.parse_args(["charsum", "b.json", "--l", "-2"])
    assert first is not second
    assert (first.polytope, first.ell, first.weights) == ("a.json", 4, "w.json")
    assert (second.polytope, second.ell, second.weights) == ("b.json", -2, None)
    second.ell = 9
    assert first.ell == 4


def test_bad_flag_after_good_parse_raises_parse_error():
    cli.parse_args(["faces", "a.json"])
    with pytest.raises(cli.CliError) as info:
        cli.parse_args(["faces", "a.json", "--bogus"])
    assert info.value.kind == "parse"
    assert cli.parse_args(["hpoly", "a.json"]).command == "hpoly"


def test_lmax_must_be_positive(capsys):
    code, _, err = run_cli(
        ["verify", fx("segment"), "--suite", "all", "--lmax", "0"], capsys
    )
    assert code == 2
    assert "--lmax" in err


def test_parse_error_boolean_vertex(tmp_path, capsys):
    path = tmp_path / "bools.json"
    path.write_text('{"vertices": [[true, false], [0, 1], [1, 0], [1, 1]]}')
    code, out, err = run_cli(["faces", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: parse: ")


@pytest.mark.parametrize(
    "phi",
    [
        '{"n": true, "monomials": [{"exps": [1], "coeff": "1"}]}',
        '{"n": 1, "monomials": [{"exps": [true], "coeff": "1"}]}',
    ],
)
def test_parse_error_boolean_phi_field(tmp_path, capsys, phi):
    path = tmp_path / "phi.json"
    path.write_text(phi)
    code, _, err = run_cli(
        ["ehrhart", fx("segment"), "--variant", "E", "--phi", str(path)], capsys
    )
    assert code == 2
    assert err.startswith("error: parse: ")


def test_boolean_exponent_refused():
    from wehrhart.jsonio import FormatError, laurent_from_json

    with pytest.raises(FormatError):
        laurent_from_json([{"exp": True, "coeff": "1"}])


@pytest.mark.parametrize(
    "args",
    [
        ["charsum", "--l", str(cli.MAX_ELL + 1)],
        ["charsum", "--l", str(-cli.MAX_ELL - 1)],
        ["verify", "--suite", "all", "--lmax", str(cli.MAX_LMAX + 1)],
        ["verify", "--suite", "hodge", "--lmax", "1", "--random-weights", "--seed", "1",
         "--count", str(cli.MAX_COUNT + 1)],
    ],
)
def test_size_flags_over_budget_are_refused_before_loading(args, capsys):
    # the polytope file does not exist: the budget is checked before reading it
    argv = [args[0], "no-such-polytope.json", *args[1:]]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: validation: ")
    assert args[-2] in err


def test_size_flags_at_budget_parse():
    assert cli.parse_args(["charsum", "p.json", "--l", str(-cli.MAX_ELL)]).ell == -cli.MAX_ELL
    spec = cli.parse_args(["verify", "p.json", "--suite", "all", "--lmax", str(cli.MAX_LMAX),
                           "--random-weights", "--seed", "1", "--count", str(cli.MAX_COUNT)])
    assert (spec.lmax, spec.count) == (cli.MAX_LMAX, cli.MAX_COUNT)


@pytest.mark.parametrize(
    "vertices",
    [
        [[0, 0], [1, 1], [2, 2], [3, 3]],  # collinear points in the plane
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 3, 0]],  # a planar cloud in R^3
    ],
    ids=["flat", "planar-cloud"],
)
def test_hull_checks_survive_python_O(tmp_path, vertices):
    # -O strips assert statements; the hull's refusals are raised exceptions
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"vertices": vertices}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "wehrhart.cli", "faces", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("error: validation: ")


def test_cache_bounds_cover_the_size_budgets():
    # one run asks for at most this many dilations, so nothing is evicted
    assert polytope.POINTS_CACHE_MAX >= max(cli.MAX_ELL, cli.MAX_LMAX)
    assert polytope.PHI_SUMS_MAX >= cli.MAX_LMAX
    # the interpolant of a degree-MAX_DEGREE integrand in dimension 6
    assert polytope.PHI_SUMS_MAX >= 6 + cli.MAX_DEGREE + 3


def _phi_file(tmp_path, exponent):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"n": 2, "monomials": [{"exps": [exponent, 0], "coeff": "1"}]}))
    return str(path)


def test_integrand_degree_at_budget_runs(tmp_path, capsys):
    phi = _phi_file(tmp_path, cli.MAX_DEGREE)
    code, out, err = run_cli(["ehrhart", fx("simplex2"), "--variant", "E", "--phi", phi], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["degree_bound"] == 2 + cli.MAX_DEGREE


@pytest.mark.parametrize("exponent", [cli.MAX_DEGREE + 1, 10**9])
@pytest.mark.parametrize(
    "args",
    [["ehrhart", "--variant", "E"], ["verify", "--suite", "all", "--lmax", "2"]],
    ids=["ehrhart", "verify"],
)
def test_integrand_degree_over_budget_is_refused_at_once(tmp_path, capsys, args, exponent):
    # the degree is checked before any sum is taken: 10**9 would never finish
    argv = [args[0], fx("simplex2"), *args[1:], "--phi", _phi_file(tmp_path, exponent)]
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith("error: validation: ") and err.count("\n") == 1
    assert str(cli.MAX_DEGREE) in err


def test_verify_builds_dual_and_g_weights_once(monkeypatch, capsys):
    calls = {"cli.dualize": 0, "ehrhart.dualize": 0, "ehrhart.g_weight_function": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module, attr in [(cli, "dualize"), (ehrhart, "dualize"), (ehrhart, "g_weight_function")]:
        name = f"{module.__name__.split('.')[-1]}.{attr}"
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    code, _, _ = run_cli(["verify", fx("square"), "--suite", "all", "--lmax", "3"], capsys)
    assert code == 0
    # all-ones and g-weights(P), each dualized once for both suites that need it
    assert calls == {"cli.dualize": 2, "ehrhart.dualize": 0, "ehrhart.g_weight_function": 0}
