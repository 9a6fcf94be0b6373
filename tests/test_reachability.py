"""Every function in src/ is reached by a command or a demo, or is named here.

A fresh interpreter installs a sys.setprofile hook before it first
imports wehrhart, runs every command of the CLI on the polytope fixtures
and a few refused invocations (for the error paths), then every demo,
and prints the functions of src/wehrhart whose code never ran.  Calls
made while the package is imported count as reached like any other,
since the hook is installed before the import: so the corpus helpers
that build its tuples at import are reached, though no command calls
them.  A function is named by its module and the names of the classes
and functions around it, read off the module's syntax tree, and matched
to a running frame by its file and first line.  UNREACHED is the set
that must come out, each entry with its reason; a new function that no
command or demo reaches fails here until it is recorded below or moved
out of src/.  Run under python -O or -OO, the interpreter it starts
takes the same flag.  Run as a script, this file is that interpreter.
"""

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wehrhart"
FIXTURES = ROOT / "fixtures"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

_VALUE = "value dunder, for library users and tests: the commands compare and print through jsonio"
_FAILED = "runs only when a check fails, which no fixture makes happen"
_TRACED = "bench/tracing.py wraps it by name, until the tracer is retargeted (ROADMAP item 1a)"
UNREACHED = {
    "algebra.HomogPoly.__bool__": _VALUE,
    "algebra.HomogPoly.__eq__": _VALUE,
    "algebra.LaurentPoly.__repr__": _VALUE,
    "algebra.ZPoly.__eq__": _VALUE,
    "algebra.ZPoly.__repr__": _VALUE,
    "polytope.FaceLattice.__repr__": _VALUE,
    "polytope.LatticePolytope.__eq__": _VALUE,
    "polytope.LatticePolytope.__repr__": _VALUE,
    "polytope.LatticePolytope.__new__": "refuses every public construction; the commands build "
    "polytopes through facet_presentation, which calls the trusted _make",
    "weights.WeightFunction.__bool__": _VALUE,
    "weights.WeightFunction.__repr__": _VALUE,
    "weights.WeightFunction.__getitem__": "a face's weight with zero for an absent face, for library users; "
    "the commands iterate .values",
    "ehrhart._first_difference": _FAILED,
    "algebra.LaurentPoly.coeff": "read only by ehrhart._first_difference: " + _FAILED,
    "algebra.lagrange_interpolate": _TRACED,
    "algebra.LaurentPoly.__pow__": _TRACED,
    "algebra.LaurentPoly.__rmul__": _TRACED,
    "algebra.LaurentPoly.__sub__": _TRACED,
    "stanley.stanley_fg": _TRACED + "; also the paper's f/g of one interval, for library users",
    "jsonio.load_polytope": _TRACED + "; also a polytope file read without its face lattice, for "
    "library users: the commands read through load_lattice",
    "weights.add": "a module operation of the paper on weight functions, beside scale (ROADMAP item 12)",
}


def functions():
    """(resolved file, first line) -> "module.Outer.name" for every def under src/wehrhart.

    The first line is that of the first decorator, as in a code object."""
    out = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[path, first] = ".".join((Path(path).stem, *scope, child.name))
                visit(child, path, (*scope, child.name))
            elif isinstance(child, ast.ClassDef):
                visit(child, path, (*scope, child.name))
            else:
                visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), os.path.realpath(path), ())
    return out


def invocations(tmp):
    """(argv, exit code) of every command on every polytope fixture, then refused invocations."""
    polytopes, phis = [], []
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text())
        if "vertices" in data:
            polytopes.append((str(path), len(data["vertices"][0])))
        else:
            phis.append((str(path), data["n"]))
    runs = []
    for poly, n in polytopes:
        weight = os.path.join(tmp, Path(poly).stem + ".weights.json")
        runs += [
            (["faces", poly], 0),
            (["hpoly", poly], 0),
            (["gweights", poly, "--face", "P", "--out", weight], 0),
            (["gweights", poly, "--face", "1"], 0),
            *((["charsum", poly, "--l", ell], 0) for ell in ("-2", "0", "2")),
            (["charsum", poly, "--l", "1", "--weights", weight], 0),
            (["dualize", poly, "--weights", weight], 0),
            *((["ehrhart", poly, "--variant", v], 0) for v in ("E", "Etilde")),
            (["ehrhart", poly, "--variant", "E", "--weights", weight], 0),
            (["verify", poly, "--suite", "all", "--lmax", "2"], 0),
            (["verify", poly, "--suite", "all", "--lmax", "2", "--random-weights", "--seed", "1", "--count", "1"], 0),
        ]
        for phi in (phi for phi, dim in phis if dim == n):
            runs += [
                (["ehrhart", poly, "--variant", "E", "--phi", phi], 0),
                (["ehrhart", poly, "--variant", "Etilde", "--phi", phi, "--weights", weight], 0),
                (["verify", poly, "--suite", "all", "--lmax", "2", "--phi", phi], 0),
            ]
    square, cube = str(FIXTURES / "square.json"), str(FIXTURES / "cube.json")
    flat = os.path.join(tmp, "flat.json")
    with open(flat, "w") as fh:
        json.dump({"vertices": [[0, 0], [1, 1], [2, 2]]}, fh)
    broken = os.path.join(tmp, "broken.json")
    with open(broken, "w") as fh:
        fh.write("{")
    return runs + [
        (["frobnicate", square], 2),
        (["faces", os.path.join(tmp, "missing.json")], 2),
        (["faces", broken], 2),
        (["faces", flat], 3),
        (["gweights", square, "--face", "x"], 2),
        (["gweights", square, "--face", "0"], 3),
        (["charsum", square, "--l", "99"], 3),
        (["dualize", square, "--weights", os.path.join(tmp, "cube.weights.json")], 3),
        (["ehrhart", square, "--variant", "E", "--phi", str(FIXTURES / "phi_linear_3d.json")], 3),
        (["verify", square, "--suite", "purity", "--lmax", "2", "--random-weights", "--seed", "1"], 2),
        (["verify", cube, "--suite", "hodge", "--lmax", "0"], 2),
    ]


def unreached():
    """Run the commands and the demos under the hook; the names of the functions that never ran."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from wehrhart import cli

        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                for argv, expected in invocations(tmp):
                    code = cli.main(argv)
                    if code != expected:
                        raise SystemExit(f"{argv} exited {code}, not {expected}")
            for demo in DEMOS:
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}
    return sorted(name for key, name in functions().items() if key not in reached)


def test_unreached_functions_are_the_recorded_ones():
    flags = [f"-{'O' * sys.flags.optimize}"] if sys.flags.optimize else []
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, *flags, __file__], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    found = set(json.loads(proc.stdout))
    assert found == set(UNREACHED), (sorted(found - set(UNREACHED)), sorted(set(UNREACHED) - found))
    assert all(reason.strip() for reason in UNREACHED.values())


if __name__ == "__main__":
    print(json.dumps(unreached()))
