"""End-to-end command tests against the bundled fixture files."""

import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from wehrhart import cli, corpus, ehrhart, jsonio, polytope, stanley, weights
from wehrhart.algebra import HomogPoly, LaurentPoly as L
from wehrhart.ehrhart import CheckResult
from wehrhart.jsonio import (
    ContentError,
    FormatError,
    charsum_to_json,
    laurent_from_json,
    load_polytope,
    verify_to_json,
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
    for q, f in enumerate(lattice.faces):
        assert by_id[q]["dim"] == f.dim
        assert by_id[q]["vertices"] == [i for i in range(f.vertex_mask.bit_length()) if f.vertex_mask >> i & 1]
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
        sums[lattice.vertex_face_id(0)] += ell**2
        return sums

    monkeypatch.setattr(ehrhart, "_phi_face_sums", warped)
    code, out, err = run_cli(["ehrhart", fx("square"), "--variant", "E"], capsys)
    assert (code, out) == (1, "")
    vertex = corpus.build("square").vertex_face_id(0)
    assert err.startswith(f"error: check: face {vertex}: ") and "order 1, above their degree 0" in err


STANLEY_COMMANDS = {
    "hpoly": ["hpoly"],
    "gweights": ["gweights", "--face", "P"],
    "verify": ["verify", "--suite", "purity", "--lmax", "1"],
}


def _assert_check_failed(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: check: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", STANLEY_COMMANDS)
def test_non_eulerian_lattice_exits_1(capsys, monkeypatch, command):
    # a lattice built from a polytope is always Eulerian, so a refusal is the library's own bug
    monkeypatch.setattr(polytope, "eulerian_check", lambda up, down, even: False)
    argv = STANLEY_COMMANDS[command]
    code, out, err = run_cli([argv[0], fx("cube"), *argv[1:]], capsys)
    _assert_check_failed(code, out, err)
    assert err == "error: check: face lattice is not Eulerian\n"


def _late_g_row(f):
    """stanley._g_row truncated one coefficient late: past the middle, h falls, so g can go negative."""
    return tuple(f[i] - f[i - 1] if i else f[0] for i in range(min(len(f), (len(f) - 1) // 2 + 2)))


@pytest.mark.parametrize(
    "name,argv",
    [
        # the sweep below the pyramid's top face builds two negative rows
        ("pyramid", STANLEY_COMMANDS["hpoly"]),
        ("pyramid", STANLEY_COMMANDS["gweights"]),
        # the cube's sweep below its top face builds none, but the sweep
        # below each square facet (ids 21 to 26) builds one
        ("cube", ["gweights", "--face", "21"]),
        ("cube", ["verify", "--suite", "purity", "--lmax", "1"]),
        ("cube", ["verify", "--suite", "all", "--lmax", "1"]),
    ],
    ids=lambda v: v if isinstance(v, str) else "-".join(v),
)
def test_negative_g_coefficient_exits_1(capsys, monkeypatch, name, argv):
    monkeypatch.setattr(stanley, "_g_row", _late_g_row)
    code, out, err = run_cli([argv[0], fx(name), *argv[1:]], capsys)
    _assert_check_failed(code, out, err)
    assert re.fullmatch(r"error: check: g\(\[\d+, \d+\]\) has coefficient -\d+ at t\^\d+\n", err), err


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
    # verify exits 1 exactly when the rendered failed count is nonzero
    bad = CheckResult("demo", {}, False, 0, 1)
    text, failed = verify_to_json(corpus.build("segment"), [("demo", "w", "1", [bad])])
    rendered = json.loads(text)
    assert failed == 1 and rendered["passed"] is False and rendered["failed"] == 1


def test_failed_check_exits_1_and_prints_its_first_difference(monkeypatch, capsys):
    real = cli.verify_reciprocity
    calls = []

    def first_fails(*args, **kwargs):
        calls.append(args)
        checks = real(*args, **kwargs)
        if len(calls) > 1:
            return checks
        difference = {"exponent": 0, "lhs": 1, "rhs": 2}
        return [CheckResult("reciprocity", {"ell": 1}, False, L({0: 1}), L({0: 2}), difference), *checks[1:]]

    monkeypatch.setattr(cli, "verify_reciprocity", first_fails)
    spec = cli.parse_args(["verify", fx("segment"), "--suite", "reciprocity", "--lmax", "2"])
    assert cli.run(spec) == 1
    out = capsys.readouterr().out
    # one Etilde run per weight; the E copy of its first check fails with it
    assert len(calls) == 2
    assert '\n  "failed": 2,\n  "passed": false\n}\n' in out
    assert out.count('"first_difference"') == 2
    reports = json.loads(out)["reports"]
    for first in (reports[0]["checks"][0], reports[1]["checks"][0]):
        assert first["passed"] is False
        assert first["first_difference"] == {"exponent": "0", "lhs": "1", "rhs": "2"}


def test_each_checker_runs_once_per_weight_and_dilation(monkeypatch):
    """verify checks each (weight, ell) once, for Etilde, in one run per weight over the
    dilations, and derives the E report from it."""
    calls, runs = {}, {}
    for name in ("verify_reciprocity", "verify_duality_reciprocity"):
        real = getattr(cli, name)

        def counted(f, phi, ells, variant, real=real, name=name):
            runs.setdefault(name, []).append(id(f))
            calls.setdefault(name, []).extend((id(f), ell, variant) for ell in ells)
            return real(f, phi, ells, variant)

        monkeypatch.setattr(cli, name, counted)
    argv = ["verify", fx("square"), "--suite", "all", "--lmax", "3", "--random-weights", "--seed", "5", "--count", "2"]
    assert cli.run(cli.parse_args(argv), stdout=io.StringIO()) == 0
    assert set(calls) == {"verify_reciprocity", "verify_duality_reciprocity"}
    for made in calls.values():
        assert len(made) == len(set(made)) == 4 * 3  # all-ones, g-weights(P) and two random weights
        assert {variant for _, _, variant in made} == {"Etilde"}
    for made in runs.values():
        assert len(made) == len(set(made)) == 4


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


@pytest.mark.parametrize(
    "flags", [["--seed", "1"], ["--count", "2"], ["--seed", "1", "--count", "2"]]
)
def test_parse_error_seed_or_count_without_random_weights(flags, capsys):
    code, out, err = run_cli(
        ["verify", fx("square"), "--suite", "all", "--lmax", "1", *flags], capsys
    )
    assert (code, out) == (2, "")
    assert err == "error: parse: --seed and --count need --random-weights\n"


def test_count_defaults_to_five_only_with_random_weights():
    argv = ["verify", "p.json", "--suite", "all", "--lmax", "1"]
    assert cli.parse_args(argv).count is None
    assert cli.parse_args([*argv, "--random-weights", "--seed", "1"]).count == 5


def test_parse_error_unwritable_out(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["faces", fx("square"), "--out", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: parse: cannot write {path}: ") and err.count("\n") == 1


def test_failed_run_leaves_out_file_as_it_was(tmp_path, capsys):
    path = tmp_path / "kept.json"
    path.write_text("kept\n")
    code, _, _ = run_cli(["gweights", fx("square"), "--face", "99", "--out", str(path)], capsys)
    assert code == 3
    assert path.read_text() == "kept\n"


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


def test_face_ids_out_of_range_refused(capsys):
    n_faces = len(corpus.build("square").faces)
    for fid in (-1, n_faces):
        code, out, err = run_cli(["gweights", fx("square"), "--face", str(fid)], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: validation: no face with id {fid}\n"


def test_empty_face_refused(capsys):
    empty = corpus.build("square").empty_id
    code, out, err = run_cli(["gweights", fx("square"), "--face", str(empty)], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: validation: face {empty} is the empty face; a nonempty face is needed\n"


@pytest.mark.parametrize("face", ["1_0", "01", " 2", "+1", "-0", "x"])
def test_parse_error_noncanonical_face_id(face, capsys):
    code, _, err = run_cli(["gweights", fx("square"), "--face", face], capsys)
    assert code == 2
    assert err == f"error: parse: --face must be an integer id or P, got {face!r}\n"


@pytest.mark.parametrize("key", ["01", " 2", "2 ", "1_0", "+1", "-0", "\u0662"])
def test_weight_file_noncanonical_face_id_refused(key, tmp_path, capsys):
    lattice = corpus.build("square")
    data = json.loads(weight_to_json(g_weight_function(lattice, lattice.top_id)))
    with pytest.raises(FormatError):
        weight_from_json({**data, "values": {key: [{"exp": 0, "coeff": "1"}]}}, lattice)
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**data, "values": {key: [{"exp": 0, "coeff": "1"}]}}))
    code, out, err = run_cli(["dualize", fx("square"), "--weights", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: parse: {path}: face id")


def test_weight_file_two_spellings_of_one_face_refused(tmp_path, capsys):
    lattice = corpus.build("square")
    one = [{"exp": 0, "coeff": "1"}]
    data = {**json.loads(weight_to_json(all_ones_weight(lattice))), "values": {"1": one, "01": one}}
    with pytest.raises(FormatError):
        weight_from_json(data, lattice)
    # the canonical spelling alone still loads, and a negative id is a content error
    assert weight_from_json({**data, "values": {"1": one}}, lattice).values == {1: L({0: 1})}
    with pytest.raises(ContentError):
        weight_from_json({**data, "values": {"-1": one}}, lattice)


# json keeps the last value of a repeated key; each reader refuses it instead
REPEATED_KEYS = {
    # two values for face 1, the second of which would drop the first weight
    "weights": '{"polytope_hash": "%s", "values": {"1": [{"exp": 0, "coeff": "1"}], "1": []}}',
    "phi": '{"n": 2, "monomials": [{"exps": [1, 0], "coeff": "1", "coeff": "2"}]}',
    "polytope": '{"vertices": [[0, 0], [1, 0], [0, 1]], "vertices": [[0, 0], [2, 0], [0, 2]]}',
}


@pytest.mark.parametrize("kind", sorted(REPEATED_KEYS))
def test_repeated_key_exits_2(kind, tmp_path, capsys):
    text = REPEATED_KEYS[kind]
    argv = {
        "weights": ["dualize", fx("square"), "--weights"],
        "phi": ["ehrhart", fx("square"), "--variant", "E", "--phi"],
        "polytope": ["faces"],
    }[kind]
    if kind == "weights":
        text %= polytope.polytope_hash(corpus.build("square").polytope)
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    code, out, err = run_cli(argv + [str(path)], capsys)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: parse: ") and "repeated key" in err


def test_polytope_file_with_another_key_exits_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text('{"vertices": [[0, 0], [1, 0], [0, 1]], "n": 2}')
    code, out, err = run_cli(["faces", str(path)], capsys)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: parse: ") and "'vertices'" in err


# one parse and one validation refusal of each input file: (command line
# before the file, file content, exit code, a piece of the detail)
FILE_REFUSALS = {
    "polytope-parse": (["faces"], {"vertices": [[True, 0], [1, 0], [0, 1]]}, 2, "vertex [True, 0] is not"),
    "polytope-hull": (["faces"], {"vertices": [[0, 0], [1, 1], [2, 2]]}, 3, "do not affinely span"),
    "phi-parse": (
        ["ehrhart", fx("square"), "--variant", "E", "--phi"],
        {"n": 2, "monomials": [{"exps": [1, 0], "coeff": "0.5"}]}, 2, "rational must be",
    ),
    "phi-degree": (
        ["ehrhart", fx("square"), "--variant", "E", "--phi"],
        {"n": 2, "monomials": [{"exps": [jsonio.MAX_DEGREE + 1, 0], "coeff": "1"}]}, 3, "degree",
    ),
    "weights-parse": (
        ["ehrhart", fx("square"), "--variant", "E", "--weights"],
        {
            "polytope_hash": polytope.polytope_hash(corpus.build("square").polytope),
            "values": {"1": [{"exp": True, "coeff": "1"}]},
        },
        2,
        "exponent must be an integer",
    ),
    "weights-hash": (
        ["ehrhart", fx("square"), "--variant", "E", "--weights"],
        {"polytope_hash": "0" * 64, "values": {}}, 3, "different polytope",
    ),
}


@pytest.mark.parametrize("case", sorted(FILE_REFUSALS))
def test_each_file_refusal_names_the_file(case, tmp_path, capsys):
    argv, content, exit_code, detail = FILE_REFUSALS[case]
    path = _write_json(tmp_path, "in.json", content)
    code, out, err = run_cli([*argv, path], capsys)
    kind = "parse" if exit_code == 2 else "validation"
    assert (code, out) == (exit_code, "")
    assert err.startswith(f"error: {kind}: {path}: ") and err.count("\n") == 1
    assert detail in err


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


def _cli_stdout(argv, *flags, **env):
    """stdout of the wehrhart command in a fresh interpreter, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "wehrhart.cli", *argv],
        env=env, capture_output=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout


def test_byte_identical_reruns_across_hash_seeds(tmp_path):
    # the weight export looks its values up in a hash-keyed cache; the
    # bytes of every command must not depend on the hash seed
    weights = tmp_path / "w.json"
    weights.write_bytes(_cli_stdout(["gweights", fx("pyramid"), "--face", "P"]))
    for argv in (
        ["faces"],
        ["gweights", "--face", "P"],
        ["hpoly"],
        ["dualize", "--weights", str(weights)],
        ["charsum", "--l", "2", "--weights", str(weights)],
        ["ehrhart", "--variant", "E"],
        ["verify", "--suite", "all", "--lmax", "2", "--random-weights", "--seed", "5", "--count", "1"],
    ):
        argv = [argv[0], fx("pyramid"), *argv[1:]]
        outs = {_cli_stdout(argv, PYTHONHASHSEED=seed) for seed in ("1", "2")}
        assert len(outs) == 1, argv


def test_fixture_corpus_matches_builtin_corpus():
    for name in corpus.names():
        P = load_polytope(fx(name))
        assert P.vertices == corpus.build(name).polytope.vertices
        assert P.facets == corpus.build(name).polytope.facets


def test_weight_export_reingests_equal():
    lattice = corpus.build("pyramid")
    f = random_weight_function(lattice, random.Random(3))
    assert weight_from_json(json.loads(weight_to_json(f)), lattice) == f


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
        s = hodge_character_sum(f, ell)
        terms = pointwise_character_sum(lattice, f, ell).items()
        expected = {"terms": [{"m": list(m), "coeff": laurent_to_json(p)} for m, p in terms]}
        assert charsum_to_json(s) == json.dumps(expected, indent=2) + "\n"


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
    with pytest.raises(FormatError):
        cli.parse_args(["faces", "a.json", "--bogus"])
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


@pytest.mark.parametrize("coeff", ["1e-30000000", "1e-5000"])
@pytest.mark.parametrize("where", ["phi", "weights"])
def test_rational_with_an_exponent_is_refused_at_once(where, coeff, tmp_path, capsys):
    # Fraction reads "1e-30000000" for over a minute, and "1e-5000" has a
    # denominator too long to print: both must stop at the parse
    path = tmp_path / "in.json"
    if where == "phi":
        path.write_text(json.dumps({"n": 2, "monomials": [{"exps": [1, 0], "coeff": coeff}]}))
        argv = ["ehrhart", fx("square"), "--variant", "E", "--phi", str(path)]
    else:
        data = json.loads(weight_to_json(all_ones_weight(corpus.build("square"))))
        values = dict.fromkeys(data["values"], [{"exp": 0, "coeff": coeff}])
        path.write_text(json.dumps({**data, "values": values}))
        argv = ["dualize", fx("square"), "--weights", str(path)]
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: parse: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "coeff",
    ["1e3", "1E3", "0.5", ".5", "1.", " 1", "1 ", "1\n", "+1", "1_0", "1/2_0", "1/-2", "\u0661", "", "/2", "1/"],
)
def test_noncanonical_rational_refused(coeff):
    with pytest.raises(FormatError):
        laurent_from_json([{"exp": 0, "coeff": coeff}])


@pytest.mark.parametrize("coeff", ["0", "3", "-3", "3/4", "-3/4", "007", "-0"])
def test_canonical_rational_read(coeff):
    assert laurent_from_json([{"exp": 0, "coeff": coeff}]) == L({0: Fraction(coeff)})


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


@pytest.mark.parametrize(
    "args",
    [
        ["--suite", "purity", "--random-weights", "--seed", "3", "--count", "2"],
        ["--suite", "purity", "--random-weights", "--seed", "3"],
        ["--suite", "purity", "--seed", "3"],
        ["--suite", "purity", "--count", "2"],
        ["--suite", "hodge", "--phi", fx("phi_linear_2d")],
        ["--suite", "hodge", "--phi", fx("phi_linear_2d"), "--random-weights", "--seed", "3"],
    ],
)
def test_verify_refuses_flags_its_suite_never_reads(args, capsys):
    # purity builds no weight set, and hodge's character sums do not read phi;
    # the polytope file does not exist: the flags are refused before reading it
    code, out, err = run_cli(["verify", "no-such-polytope.json", "--lmax", "1", *args], capsys)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: parse: --suite {args[1]} ")
    flag = "--phi" if args[1] == "hodge" else "--random-weights"
    assert flag in err


def test_verify_purity_with_random_weights_exits_2(capsys):
    argv = ["verify", fx("square"), "--suite", "purity", "--lmax", "1"]
    code, out, err = run_cli([*argv, "--random-weights", "--seed", "3", "--count", "2"], capsys)
    assert code == 2 and out == ""
    assert run_cli(argv, capsys)[0] == 0


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


def test_commands_survive_python_OO():
    # -OO strips docstrings too; no command may read one
    argv = ["hpoly", fx("cube")]
    assert _cli_stdout(argv, "-OO") == _cli_stdout(argv)


def test_cache_bounds_cover_the_size_budgets():
    # the largest run, verify, keeps lmax point partitions, sums at the larger
    # of lmax and the dilations 1..K that the interpolant of a
    # degree-MAX_DEGREE integrand in dimension 6 walks,
    # K = ceil((6 + MAX_DEGREE + 1) / 2), sums at -1 .. -lmax, and one table;
    # charsum keeps one partition, ehrhart K sums and one table
    walked = (6 + jsonio.MAX_DEGREE + 2) // 2
    assert polytope.MEMO_MAX >= cli.MAX_LMAX + max(cli.MAX_LMAX, walked) + cli.MAX_LMAX + 1
    # a weight keeps its three orbit kinds, its dual and Etilde at -1 .. -lmax
    assert polytope.MEMO_MAX >= 3 + 1 + cli.MAX_LMAX


def _phi_file(tmp_path, exponent):
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"n": 2, "monomials": [{"exps": [exponent, 0], "coeff": "1"}]}))
    return str(path)


def test_integrand_degree_at_budget_runs(tmp_path, capsys):
    phi = _phi_file(tmp_path, jsonio.MAX_DEGREE)
    code, out, err = run_cli(["ehrhart", fx("simplex2"), "--variant", "E", "--phi", phi], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["degree_bound"] == 2 + jsonio.MAX_DEGREE


@pytest.mark.parametrize("exponent", [jsonio.MAX_DEGREE + 1, 10**9])
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
    assert str(jsonio.MAX_DEGREE) in err


def _capture_weight_set(monkeypatch):
    """The weight functions a verify run checks, recorded as cli builds them."""
    captured = []
    real = cli._verify_weight_set

    def recording(spec, lattice):
        named = real(spec, lattice)
        captured.extend(f for _, f in named)
        return named

    monkeypatch.setattr(cli, "_verify_weight_set", recording)
    return captured


def test_verify_builds_dual_and_g_weights_once(monkeypatch, capsys):
    # counted below dualize's memo: each weight's dual is computed exactly once
    built, made = [], []
    involution, g_weights = weights._involution, cli.g_weight_function
    monkeypatch.setattr(weights, "_involution", lambda f: built.append(id(f)) or involution(f))
    monkeypatch.setattr(cli, "g_weight_function", lambda *a: made.append(a) or g_weights(*a))
    weight_set = _capture_weight_set(monkeypatch)
    code, _, _ = run_cli(["verify", fx("square"), "--suite", "all", "--lmax", "3"], capsys)
    assert code == 0
    # all-ones and g-weights(P), each dualized once for both suites that need it
    assert len(weight_set) == 2
    assert sorted(built) == sorted(map(id, weight_set))
    # the CLI builds each face's g-weights at most once: g-weights(P) serves the weight set and purity,
    # and purity alone builds no weight set
    for suite in cli.SUITES:
        made.clear()
        weight_set.clear()
        code, _, _ = run_cli(["verify", fx("square"), "--suite", suite, "--lmax", "2"], capsys)
        assert code == 0
        lattice = made[0][0]
        wanted = lattice.nonempty_ids if suite in ("all", "purity") else [lattice.top_id]
        assert sorted(fid for _, fid in made) == sorted(wanted), suite
        assert len(weight_set) == (0 if suite == "purity" else 2), suite


def test_verify_leaves_the_orbit_kinds_and_the_dual_in_each_memo(monkeypatch, capsys):
    weight_set = _capture_weight_set(monkeypatch)
    argv = ["verify", fx("pyramid"), "--suite", "all", "--lmax", "2"]
    argv += ["--random-weights", "--seed", "5", "--count", "2"]
    assert cli.run(cli.parse_args(argv)) == 0
    capsys.readouterr()
    assert len(weight_set) == 4
    orbit_kinds = {ehrhart._PLUS, ehrhart._MINUS}
    # and Etilde(-ell) under (phi, -ell), for every ell of the run
    minus_ell = {(HomogPoly.one(3), -ell) for ell in (1, 2)}
    for f in weight_set:
        assert set(f._memo) == orbit_kinds | {weights._DUAL} | minus_ell
        # the dual keeps its own orbit coefficients, and no link back to f
        assert set(weights.dualize(f)._memo) <= orbit_kinds


@pytest.mark.parametrize("d", [14, 16])
@pytest.mark.parametrize("command", ["faces", "hpoly"])
def test_face_lattice_past_the_budget_exits_3_at_once(tmp_path, capsys, command, d):
    # the d-simplex has 2**(d+1) faces: the closure stops past MAX_FACES,
    # before the order masks (two F x F bit matrices) are built, and the
    # refusal names the file
    path = tmp_path / f"simplex{d}.json"
    path.write_text(json.dumps({"vertices": corpus.simplex(d)}))
    start = time.perf_counter()
    code, out, err = run_cli([command, str(path)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.startswith(f"error: validation: {path}: ") and err.count("\n") == 1
    assert f"{d + 1} vertices and {d + 1} facets give more than {polytope.MAX_FACES} faces" in err


@pytest.mark.parametrize("d", [12, 13])
@pytest.mark.parametrize(
    "argv",
    [["hpoly"], ["gweights", "--face", "1"], ["verify", "--suite", "all", "--lmax", "1"]],
    ids=["hpoly", "gweights", "verify"],
)
def test_eulerian_check_past_its_budget_exits_3_at_once(tmp_path, capsys, argv, d):
    # the d-simplex has 3**(d + 1) comparable face pairs, so the 12- and
    # 13-simplex pass MAX_FACES but not MAX_PAIRS; no pair is visited
    path = tmp_path / f"simplex{d}.json"
    path.write_text(json.dumps({"vertices": corpus.simplex(d)}))
    start = time.perf_counter()
    code, out, err = run_cli([argv[0], str(path), *argv[1:]], capsys)
    assert time.perf_counter() - start < 2
    _assert_refused(code, out, err, 3)
    assert err.startswith(f"error: validation: {path}: ")
    assert f"{2 ** (d + 1)} faces give {3 ** (d + 1)} comparable pairs, more than" in err


def test_faces_export_past_the_pair_budget_exits_3_at_once(tmp_path, capsys, monkeypatch):
    # the 12-simplex passes MAX_FACES, but its order export would list
    # 3**13 comparable pairs (58 MB of JSON); it is refused before any is written
    def no_export(lattice):
        raise AssertionError("the lattice was exported")

    monkeypatch.setattr(cli, "lattice_to_json", no_export)
    path = tmp_path / "simplex12.json"
    path.write_text(json.dumps({"vertices": corpus.simplex(12)}))
    start = time.perf_counter()
    code, out, err = run_cli(["faces", str(path)], capsys)
    assert time.perf_counter() - start < 2
    _assert_refused(code, out, err, 3)
    assert err.startswith(
        f"error: validation: {path}: 8192 faces give {3**13} comparable pairs, "
        f"more than {polytope.MAX_PAIRS}, "
    )
    assert err.endswith("the faces export's budget\n")


def test_point_budget_covers_the_largest_input_in_use():
    # charsum --l 6 on cube6, the largest character sum the digests render
    assert cli.MAX_POINTS >= 7**6


def test_charsum_far_over_the_point_budget_exits_3_at_once(tmp_path, capsys, monkeypatch):
    # cube6 at ell = 16 has 17**6 = 24.1 million points; the count stops past
    # the budget, and no point list is ever made
    def no_points(lattice, ell):
        raise AssertionError(f"points of {ell}P were made")

    monkeypatch.setattr(ehrhart, "points_by_face", no_points)
    path = tmp_path / "cube6.json"
    path.write_text(json.dumps({"vertices": [list(v) for v in itertools.product((0, 1), repeat=6)]}))
    start = time.perf_counter()
    code, out, err = run_cli(["charsum", str(path), "--l", "16"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == f"error: validation: the character sum at --l 16 has more than {cli.MAX_POINTS} lattice points\n"


@pytest.mark.parametrize(
    "name,ell,points",
    # the cube fills its bounding box; the simplex at ell = 2 has 10 of its 27
    [("cube", 2, 27), ("cube", -2, 27), ("simplex3", 2, 10)],
)
def test_charsum_one_point_over_the_budget_is_refused(name, ell, points, monkeypatch, capsys):
    argv = ["charsum", fx(name), "--l", str(ell)]
    monkeypatch.setattr(cli, "MAX_POINTS", points)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and len(json.loads(out)["terms"]) == points
    monkeypatch.setattr(cli, "MAX_POINTS", points - 1)
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err == f"error: validation: the character sum at --l {ell} has more than {points - 1} lattice points\n"


@pytest.mark.parametrize("suite", ["hodge", "all"])
def test_hodge_suite_counts_the_points_of_every_dilation(suite, monkeypatch, capsys):
    # the cube has 8 + 27 = 35 points at ell = 1 and 2, rendered once for
    # each of the 2 default weight functions
    argv = ["verify", fx("cube"), "--suite", suite, "--lmax", "2"]
    monkeypatch.setattr(cli, "MAX_POINTS", 70)
    assert run_cli(argv, capsys)[0] == 0
    monkeypatch.setattr(cli, "MAX_POINTS", 69)
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    expected = "the hodge suite up to --lmax 2 over 2 weight functions has more than 69 lattice points"
    assert err == f"error: validation: {expected}\n"


@pytest.mark.parametrize("count", [1, 3])
def test_hodge_suite_counts_the_points_of_every_weight_function(count, monkeypatch, capsys):
    # 35 points for each of all-ones, g-weights(P) and count random weight functions
    argv = ["verify", fx("cube"), "--suite", "hodge", "--lmax", "2",
            "--random-weights", "--seed", "1", "--count", str(count)]
    points = 35 * (2 + count)
    monkeypatch.setattr(cli, "MAX_POINTS", points)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and len(json.loads(out)["reports"]) == 2 + count
    monkeypatch.setattr(cli, "MAX_POINTS", points - 1)
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    expected = f"over {2 + count} weight functions has more than {points - 1} lattice points\n"
    assert err.startswith("error: validation: the hodge suite") and err.endswith(expected)


def test_suites_without_character_sums_have_no_point_budget(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_POINTS", 0)
    for suite in ("reciprocity", "duality", "purity"):
        assert run_cli(["verify", fx("cube"), "--suite", suite, "--lmax", "2"], capsys)[0] == 0


# Over-long numbers.  Python refuses int <-> str conversions past 4,300
# digits, so the readers bound the digits of what they read (jsonio
# MAX_DIGITS and the rules built on it) and refuse more with one error line.


def _write_json(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    return str(path)


def _assert_refused(code, out, err, exit_code):
    kind = "parse" if exit_code == 2 else "validation"
    assert code == exit_code and out == ""
    assert err.startswith(f"error: {kind}: ") and err.count("\n") == 1


def _weights(tmp_path, lattice, values):
    """A weight file for lattice: {face id: [(exp, coeff string)]}."""
    data = {
        "polytope_hash": polytope.polytope_hash(lattice.polytope),
        "values": {str(q): [{"exp": e, "coeff": c} for e, c in terms] for q, terms in values.items()},
    }
    return _write_json(tmp_path, "weights.json", data)


def test_integer_literal_past_the_parser_limit_exits_2(tmp_path, capsys):
    # int() refuses a 5,001-digit literal; the reader refuses it first
    path = _write_json(tmp_path, "p.json", '{"vertices": [[0, 0], [1%s, 0], [0, 1]]}' % ("0" * 5000))
    _assert_refused(*run_cli(["faces", path], capsys), 2)


def test_input_file_that_is_not_text_exits_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_bytes(b'{"vertices": [[0], [1]], "x": "\xff"}')
    _assert_refused(*run_cli(["faces", str(path)], capsys), 2)


def test_face_id_key_past_the_parser_limit_exits_2(tmp_path, capsys):
    weights = _weights(tmp_path, corpus.build("square"), {"1" * 5000: [(0, "1")]})
    _assert_refused(*run_cli(["dualize", fx("square"), "--weights", weights], capsys), 2)


@pytest.mark.parametrize(
    "args",
    [["ehrhart", "--variant", "E"], ["verify", "--suite", "all", "--lmax", "2"]],
    ids=["ehrhart", "verify"],
)
def test_integrand_coefficients_too_long_to_print_are_refused(tmp_path, capsys, args):
    # each parses, but their sums over the square's points passed 4,300 digits at output
    phi = _write_json(tmp_path, "phi.json", {"n": 2, "monomials": [
        {"exps": [1, 0], "coeff": "7" * 3000},
        {"exps": [0, 1], "coeff": "1/" + "3" * 3000},
    ]})
    _assert_refused(*run_cli([args[0], fx("square"), *args[1:], "--phi", phi], capsys), 2)


def test_triangle_too_long_to_print_is_refused(tmp_path, capsys):
    # its slanted facet has the offset A*B, of 5,000 digits
    a, b = 10**2500 + 1, 10**2499 + 3
    path = _write_json(tmp_path, "p.json", '{"vertices": [[0, 0], [%d, 0], [0, %d]]}' % (a, b))
    _assert_refused(*run_cli(["faces", path], capsys), 2)


def test_coordinates_past_the_dimension_budget_exit_3(tmp_path, capsys):
    # the 6-simplex conv(0, a_i e_i) has the facet offset a_1 * .. * a_6
    # (over a gcd below 10^6), of about 4,800 digits for 800-digit a_i;
    # 111 digits is the most read in dimension 6, as (6 + 12) * 111 <= 2,000
    def simplex(digits):
        a = [10**digits - 1 - 2 * i for i in range(6)]
        return {"vertices": [[0] * 6] + [[a[i] * (i == j) for j in range(6)] for i in range(6)]}

    code, out, err = run_cli(["faces", _write_json(tmp_path, "ok.json", simplex(111))], capsys)
    assert code == 0 and err == "" and json.loads(out)["f_vector"] == [1, 7, 21, 35, 35, 21, 7, 1]
    _assert_refused(*run_cli(["faces", _write_json(tmp_path, "p.json", simplex(112))], capsys), 3)
    _assert_refused(*run_cli(["faces", _write_json(tmp_path, "p.json", simplex(800))], capsys), 3)


def test_integrand_common_denominator_past_the_budget_exits_3(tmp_path, capsys):
    # eight 600-digit denominators, pairwise coprime up to factors below 8:
    # each is read, but their common denominator has about 4,800 digits
    monomials = [
        {"exps": [7 - k, k], "coeff": f"1/{10**599 + k}"} for k in range(8)
    ]
    phi = _write_json(tmp_path, "phi.json", {"n": 2, "monomials": monomials})
    _assert_refused(*run_cli(["ehrhart", fx("square"), "--variant", "E", "--phi", phi], capsys), 3)
    one = _write_json(tmp_path, "one.json", {"n": 2, "monomials": monomials[:1]})
    assert run_cli(["ehrhart", fx("square"), "--variant", "E", "--phi", one], capsys)[0] == 0


def test_weight_common_denominator_past_the_budget_exits_3(tmp_path, capsys):
    # dualize sums f_E over the 8 nonempty faces E above a vertex of the cube
    lattice = corpus.build("cube")
    values = {q: [(0, f"1/{10**599 + q}")] for q in lattice.nonempty_ids}
    weights = _weights(tmp_path, lattice, values)
    _assert_refused(*run_cli(["dualize", fx("cube"), "--weights", weights], capsys), 3)


def test_largest_accepted_numbers_print_on_every_command(tmp_path, capsys):
    # a unimodular triangle with 141-digit coordinates (the most read in
    # dimension 2), a degree-12 integrand and weights whose numbers take the
    # whole budget: every command prints
    big = 10**141 - 1
    path = _write_json(tmp_path, "p.json", {"vertices": [[0, 0], [1, big], [1, big - 1]]})
    phi = _write_json(tmp_path, "phi.json", {"n": 2, "monomials": [
        {"exps": [0, 12], "coeff": "9" * 1000 + "/" + "7" * 999 + "1"},
    ]})
    lattice = polytope.build_face_lattice(load_polytope(path))
    values = {q: [(10**999 - q, "8" * 1000)] for q in lattice.nonempty_ids}
    weights = _weights(tmp_path, lattice, values)
    for argv in (
        ["faces", path],
        ["ehrhart", path, "--variant", "E", "--phi", phi, "--weights", weights],
        ["verify", path, "--suite", "all", "--lmax", "2", "--phi", phi],
        ["dualize", path, "--weights", weights],
        ["charsum", path, "--l", "-3", "--weights", weights],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == "", argv[0]
