"""Invariants of the library source, checked on its syntax trees.

The library is standard-library only, holds no float anywhere, and never
relies on an assert statement for a check (python -O strips them).  A
float can also be made at run time, by float(...) or by a true division
of two ints, so every / must divide by a Fraction(...) call.  Each
rule is read off the ast of every module under src/wehrhart.  The hull
and the fibre walk eliminate fraction-free over int, so polytope.py
neither imports nor names Fraction.  Every
memo table on a FaceLattice has a known bound: its __init__ builds exactly
one BoundedCache, the memo every table derived at a dilation or per
integrand shares, and assigns no field but it and those named in
LATTICE_FIELDS.  No call passes
indent= to json.dump or json.dumps, which would bring back the
pure-Python encoder that jsonio.dumps avoids.  E and Etilde differ
only by (1+y)^deg phi, so no function but ehrhart._variant_factor
compares a value with VARIANT_E.  FaceLattice.by_dim holds the grading,
so no module but polytope.py filters a face list by .dim in a
comprehension or a loop.  A face holds its vertex and facet sets as
bitmasks and as id tuples, so no module names frozenset, the face format
it replaced.  The verify report's layout lives in jsonio.py, so no
other module writes its keys "first_difference" or "suite" as string
constants.  The hull proves its facets' ranks, so no module calls
_affine_rank or _rank, and LatticePolytope._make, the one constructor
of a polytope, is named only in polytope.py, by the hull;
LatticePolytope(...) itself raises TypeError.
WeightFunction._make, the
constructor that skips the face-id checks, is named only in weights.py
and stanley.py, which build weights from the lattice's own ids; so every
weight read from input goes through the checks.  Likewise
LaurentPoly._ascending, which holds terms it trusts to be ascending and
canonical, is named only in algebra.py, by the operations that keep term
order.  A weight function
carries its lattice (f.lattice), so no function takes both a lattice and
an f parameter, which would name it twice.  The benchmark's tracer
looks library functions up by name, so one more test installs and
removes it on the imported library, and another traces one verify run,
which must read a point partition twice at one dilation for the
benchmark's cache-hit count.
Records are typing.NamedTuple classes, not dataclasses: importing
dataclasses pulls inspect, ast, dis and tokenize into every start-up, so
no module imports it and a fresh interpreter's import of wehrhart.cli
is checked not to load them.  A record is frozen by the tuple it is, so
no module sets a field through object.__setattr__; a trusted constructor
starts from object.__new__ and sets its slots as any __init__ does.
"""

import ast
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wehrhart"
TRACING = SRC.parent.parent / "bench" / "tracing.py"
MODULES = sorted(SRC.glob("*.py"))
# FaceLattice's structural fields, and its slots bounded by construction:
# by_dim (n + 2 masks), nonempty_ids (one id per face), _g_memo (one entry
# per face), _projections (n - 1 facet lists) and _eulerian (one flag);
# everything else it derives lives in its one BoundedCache
LATTICE_FIELDS = {
    "polytope", "faces", "by_dim", "_by_mask", "up", "down", "nonempty_ids",
    "_g_memo", "_projections", "_eulerian",
}


def tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_roots(module):
    """Top-level names of every absolute import in a module."""
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"algebra.py", "ehrhart.py", "polytope.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_standard_library_imports_only(path):
    foreign = {
        name
        for name in imported_roots(tree(path))
        if name not in sys.stdlib_module_names and name != "__future__"
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(tree(path)) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_literals(path):
    lines = [
        node.lineno
        for node in ast.walk(tree(path))
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    ]
    assert not lines, f"{path.name} has float literals on lines {lines}"


def _is_call(node, name):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_conversions(path):
    lines = []
    for node in ast.walk(tree(path)):
        if _is_call(node, "float"):
            lines.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            divisor = node.right if isinstance(node, ast.BinOp) else node.value
            if not _is_call(divisor, "Fraction"):
                lines.append(node.lineno)
    assert not lines, f"{path.name} may make a float on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_indented_json_encoding(path):
    """json.dump(s) with indent= always takes the pure-Python encoder; jsonio.dumps writes indent 2 itself."""
    lines = [
        node.lineno
        for node in ast.walk(tree(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert not lines, f"{path.name} passes indent= to json on lines {lines}"


def test_no_fraction_in_polytope(path=SRC / "polytope.py"):
    """The hull and the walk eliminate over int: polytope.py neither imports nor names Fraction."""
    module = tree(path)
    lines = [
        node.lineno
        for node in ast.walk(module)
        if isinstance(node, ast.Name) and node.id == "Fraction"
        or isinstance(node, ast.Attribute) and node.attr == "Fraction"
        or isinstance(node, ast.alias) and node.name == "Fraction"
    ]
    assert "fractions" not in set(imported_roots(module)), f"{path.name} imports fractions"
    assert not lines, f"{path.name} names Fraction on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert "dataclasses" not in set(imported_roots(tree(path))), f"{path.name} imports dataclasses"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_object_setattr(path):
    lines = [
        node.lineno
        for node in ast.walk(tree(path))
        if isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    ]
    assert not lines, f"{path.name} names object.__setattr__ on lines {lines}; make the record a NamedTuple"


def test_cli_import_loads_no_introspection_modules():
    probe = "import sys, wehrhart.cli; print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _names_variant_e(node):
    return any(
        isinstance(x, ast.Name) and x.id == "VARIANT_E"
        or isinstance(x, ast.Attribute) and x.attr == "VARIANT_E"
        for x in ast.walk(node)
    )


def _variant_e_comparisons(node, owner):
    """Line numbers of the comparisons naming VARIANT_E outside _variant_factor."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _variant_e_comparisons(child, child.name)
            continue
        if isinstance(child, ast.Compare) and owner != "_variant_factor" and _names_variant_e(child):
            yield child.lineno
        yield from _variant_e_comparisons(child, owner)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_variants_told_apart_in_one_function(path):
    lines = list(_variant_e_comparisons(tree(path), None))
    assert not lines, f"{path.name} compares with VARIANT_E outside _variant_factor on lines {lines}"


def test_face_lattice_memo_tables_are_bounded(path=SRC / "polytope.py"):
    inits = [
        node
        for cls in ast.walk(tree(path))
        if isinstance(cls, ast.ClassDef) and cls.name == "FaceLattice"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    assert len(inits) == 1, f"{path.name} should define FaceLattice.__init__ once"
    unbounded = []
    for node in ast.walk(inits[0]):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bounded = _is_call(node.value, "BoundedCache")
            unbounded += [
                attr.attr
                for target in targets
                for attr in ast.walk(target)
                if isinstance(attr, ast.Attribute)
                and isinstance(attr.value, ast.Name)
                and attr.value.id == "self"
                and not (bounded or attr.attr in LATTICE_FIELDS)
            ]
    assert not unbounded, f"FaceLattice.__init__ assigns unbounded fields {unbounded}"
    memos = sum(_is_call(node, "BoundedCache") for node in ast.walk(inits[0]))
    assert memos == 1, f"FaceLattice.__init__ builds {memos} BoundedCaches, not one memo"


def _is_face_list(node):
    return isinstance(node, ast.Attribute) and node.attr == "faces" or (
        isinstance(node, ast.Name) and node.id == "faces"
    )


def _reads_dim(node):
    return any(isinstance(x, ast.Attribute) and x.attr == "dim" for x in ast.walk(node))


def _dim_filters(module):
    """Line numbers of the comprehensions and for loops over a face list that test .dim."""
    for node in ast.walk(module):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            gens = node.generators
            if any(_is_face_list(g.iter) for g in gens) and any(
                _reads_dim(test) for g in gens for test in g.ifs
            ):
                yield node.lineno
        elif isinstance(node, ast.For) and _is_face_list(node.iter):
            tests = (x.test for x in ast.walk(node) if isinstance(x, (ast.If, ast.IfExp)))
            if any(map(_reads_dim, tests)):
                yield node.lineno


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "polytope.py"], ids=lambda p: p.name
)
def test_faces_filtered_by_dimension_only_in_polytope(path):
    lines = list(_dim_filters(tree(path)))
    assert not lines, f"{path.name} filters faces by .dim on lines {lines}; read FaceLattice.by_dim"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_frozenset(path):
    """A face is two bitmasks; no second format, a set of vertex or facet ids, comes back."""
    lines = [
        node.lineno
        for node in ast.walk(tree(path))
        if isinstance(node, ast.Name) and node.id == "frozenset"
        or isinstance(node, ast.Attribute) and node.attr == "frozenset"
    ]
    assert not lines, f"{path.name} names frozenset on lines {lines}; hold a face as its masks"


# keys of the verify report that only its writer, jsonio.verify_to_json, may name
REPORT_KEYS = ("first_difference", "suite")


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "jsonio.py"], ids=lambda p: p.name
)
def test_report_keys_written_only_in_jsonio(path):
    lines = [
        node.lineno
        for node in ast.walk(tree(path))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in REPORT_KEYS
    ]
    assert not lines, f"{path.name} writes a verify report key on lines {lines}; render it in jsonio"


def _calls_by_scope(node, name, scope=()):
    """(enclosing class and function names, line) of each call to name, bare or as an attribute."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = (*scope, child.name)
        elif isinstance(child, ast.Call) and (
            isinstance(child.func, ast.Name) and child.func.id == name
            or isinstance(child.func, ast.Attribute) and child.func.attr == name
        ):
            yield ".".join(scope), child.lineno
        yield from _calls_by_scope(child, name, inner)


def test_facets_never_ranked_in_src(path=SRC):
    """No module calls _affine_rank or _rank: every reader of a facet's
    vertices takes P.facet_vertices, which the hull proved."""
    paths = sorted(path.glob("*.py")) if path.is_dir() else [path]
    sites = [
        (p.name, name, *site)
        for p in paths
        for name in ("_affine_rank", "_rank")
        for site in _calls_by_scope(tree(p), name)
    ]
    assert not sites, f"a facet is ranked at {sites}"


def test_polytope_has_no_public_constructor():
    """Polytopes come from facet_presentation: every call LatticePolytope(...) is refused,
    with arguments or without (an instance with no slots set)."""
    from wehrhart.polytope import LatticePolytope

    with pytest.raises(TypeError):
        LatticePolytope(2, [(0, 0), (1, 0), (0, 1)], [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)])
    with pytest.raises(TypeError):
        LatticePolytope()


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "polytope.py"], ids=lambda p: p.name)
def test_trusted_polytopes_built_only_in_polytope(path):
    lines = [
        node.lineno
        for node in ast.walk(tree(path))
        if isinstance(node, ast.Attribute)
        and node.attr == "_make"
        and isinstance(node.value, ast.Name)
        and node.value.id == "LatticePolytope"
    ]
    assert not lines, f"{path.name} names LatticePolytope._make on lines {lines}; use facet_presentation"


# the modules that may build a WeightFunction by its trusted constructor
TRUSTED_WEIGHT_MODULES = ("weights.py", "stanley.py")


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in TRUSTED_WEIGHT_MODULES], ids=lambda p: p.name
)
def test_trusted_weights_built_only_in_weights_and_stanley(path):
    lines = [
        node.lineno
        for node in ast.walk(tree(path))
        if isinstance(node, ast.Attribute)
        and node.attr == "_make"
        and isinstance(node.value, ast.Name)
        and node.value.id == "WeightFunction"
    ]
    assert not lines, f"{path.name} names WeightFunction._make on lines {lines}; use WeightFunction(...)"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "algebra.py"], ids=lambda p: p.name
)
def test_ascending_laurent_terms_trusted_only_in_algebra(path):
    lines = [
        node.lineno
        for node in ast.walk(tree(path))
        if isinstance(node, ast.Attribute) and node.attr == "_ascending"
    ]
    assert not lines, f"{path.name} names LaurentPoly._ascending on lines {lines}; use LaurentPoly._make"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_takes_a_lattice_and_a_weight(path):
    lines = []
    for node in ast.walk(tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
            if "lattice" in args and args & {"f", "weights"}:
                lines.append(node.lineno)
    assert not lines, f"{path.name} takes both a lattice and a weight on lines {lines}; read f.lattice"


def _imported_names(node):
    """Every dotted part of the modules and names an import statement names."""
    if isinstance(node, ast.ImportFrom):
        names = [node.module or "", *(alias.name for alias in node.names)]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        return set()
    return {part for name in names for part in name.split(".")}


def test_counting_layer_imports_nothing_from_stanley(path=SRC / "ehrhart.py"):
    # the weights a count or a check reads are passed in; ehrhart builds none itself
    lines = [node.lineno for node in ast.walk(tree(path)) if "stanley" in _imported_names(node)]
    assert not lines, f"{path.name} imports from stanley on lines {lines}"


LATTICE_INIT = """
class FaceLattice:
    def __init__(self, polytope, faces):
        self.polytope = polytope
        self._memo = BoundedCache(37)
"""


@pytest.mark.parametrize(
    "source,rule",
    [
        ("import numpy\n", test_standard_library_imports_only),
        ("from sympy.core import S\n", test_standard_library_imports_only),
        ("assert x\n", test_no_assert_statements),
        ("x = 0.5\n", test_no_float_literals),
        ("x = 1e3\n", test_no_float_literals),
        ("x = float(1)\n", test_no_float_conversions),
        ("x = 1 / 2\n", test_no_float_conversions),
        ("x = 1 / int(2)\n", test_no_float_conversions),
        ("x = Fraction(1) / 2\n", test_no_float_conversions),
        ("x = 1\nx /= 2\n", test_no_float_conversions),
        ("from dataclasses import dataclass\n", test_no_dataclasses),
        ("import dataclasses as dc\n", test_no_dataclasses),
        ('object.__setattr__(self, "dim", 1)\n', test_no_object_setattr),
        ("init = object.__setattr__\n", test_no_object_setattr),
        ("from fractions import Fraction\n", test_no_fraction_in_polytope),
        ("import fractions\n", test_no_fraction_in_polytope),
        ("x = fractions.Fraction(1, 2)\n", test_no_fraction_in_polytope),
        ("from .algebra import Fraction as F\n", test_no_fraction_in_polytope),
        ("x = Fraction(1, 2)\n", test_no_fraction_in_polytope),
        ("x = frozenset(mask_ids(m))\n", test_no_frozenset),
        ("def f(s: frozenset) -> int:\n    return len(s)\n", test_no_frozenset),
        ("x = builtins.frozenset()\n", test_no_frozenset),
        ('out["first_difference"] = {}\n', test_report_keys_written_only_in_jsonio),
        ('entry = {"suite": name, **rest}\n', test_report_keys_written_only_in_jsonio),
        ("x = json.dumps(y, indent=2)\n", test_no_indented_json_encoding),
        ("json.dump(y, fh, indent=4)\n", test_no_indented_json_encoding),
        ("def f(v):\n    return v == VARIANT_E\n", test_variants_told_apart_in_one_function),
        ("x = 1 if ehrhart.VARIANT_E != v else 2\n", test_variants_told_apart_in_one_function),
        (
            "def _variant_factor(v):\n    def g():\n        return v in (VARIANT_E,)\n",
            test_variants_told_apart_in_one_function,
        ),
        (LATTICE_INIT + "        self._memo = {}\n", test_face_lattice_memo_tables_are_bounded),
        (LATTICE_INIT + "        self.a, self.up = {}, []\n", test_face_lattice_memo_tables_are_bounded),
        (LATTICE_INIT + "        self._memo: dict = {}\n", test_face_lattice_memo_tables_are_bounded),
        ("class FaceLattice:\n    pass\n", test_face_lattice_memo_tables_are_bounded),
        (LATTICE_INIT + "        self._sums = BoundedCache(64)\n", test_face_lattice_memo_tables_are_bounded),
        ("x = _affine_rank(pts)\n", test_facets_never_ranked_in_src),
        (
            "class LatticePolytope:\n    def __init__(self, pts):\n        self.r = 0\n"
            "def build_face_lattice(P):\n    return polytope._affine_rank(P.vertices)\n",
            test_facets_never_ranked_in_src,
        ),
        (
            "class LatticePolytope:\n    def __init__(self, pts):\n"
            "        self.r = _affine_rank(pts) + _affine_rank(pts)\n",
            test_facets_never_ranked_in_src,
        ),
        ("x = _rank(rows)\n", test_facets_never_ranked_in_src),
        ("r = polytope._rank(rows)\n", test_facets_never_ranked_in_src),
        (
            "x = [f.id for f in lattice.faces if f.dim == 0]\n",
            test_faces_filtered_by_dimension_only_in_polytope,
        ),
        (
            "for f in faces:\n    if f.dim < 0:\n        x = f.id\n",
            test_faces_filtered_by_dimension_only_in_polytope,
        ),
        ("P = LatticePolytope._make(2, vs, fs, masks)\n", test_trusted_polytopes_built_only_in_polytope),
        ("f = WeightFunction._make(lattice, values)\n", test_trusted_weights_built_only_in_weights_and_stanley),
        ("make = WeightFunction._make\n", test_trusted_weights_built_only_in_weights_and_stanley),
        ("p = LaurentPoly._ascending({0: 1})\n", test_ascending_laurent_terms_trusted_only_in_algebra),
        ("make = algebra.LaurentPoly._ascending\n", test_ascending_laurent_terms_trusted_only_in_algebra),
        ("def count(lattice, f, ell):\n    return ell\n", test_no_function_takes_a_lattice_and_a_weight),
        (
            "def check(lattice, q, ell, weights=None):\n    return ell\n",
            test_no_function_takes_a_lattice_and_a_weight,
        ),
        ("from .stanley import g_weight_function\n", test_counting_layer_imports_nothing_from_stanley),
        ("from . import polytope, stanley\n", test_counting_layer_imports_nothing_from_stanley),
        ("import wehrhart.stanley as st\n", test_counting_layer_imports_nothing_from_stanley),
        ("from wehrhart import stanley\n", test_counting_layer_imports_nothing_from_stanley),
    ],
)
def test_each_rule_catches_a_violation(source, rule, tmp_path):
    path = tmp_path / "bad.py"
    path.write_text("from __future__ import annotations\nimport json\nfrom . import algebra\n" + source)
    with pytest.raises(AssertionError):
        rule(path)


def _load_tracing():
    """bench/tracing.py as a module, read and never written, with every module it traces imported."""
    spec = importlib.util.spec_from_file_location("wehrhart_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in {module for module, _, _ in tracing.TRACED}:
        importlib.import_module(f"wehrhart.{name}")
    return tracing


def test_tracer_finds_every_traced_name():
    """bench/tracing.py wraps each name it traces and puts the originals back."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
    finally:
        tracer.remove()
    assert {attr for _, attr, _ in patched} >= {path.split(".")[-1] for _, path, _ in tracing.TRACED}
    for holder, attr, original in patched:
        assert getattr(holder, attr) is original, (holder, attr)


def test_traced_verify_reads_points_at_a_dilation_already_seen(tmp_path):
    """The benchmark's points_by_face.cache_hits counts calls at a dilation
    the lattice has already served; verify --suite all makes some."""
    from wehrhart import cli
    from wehrhart.corpus import CORPUS

    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"vertices": [list(v) for v in CORPUS["cube"]]}))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        argv = ["verify", str(path), "--suite", "all", "--lmax", "2"]
        assert cli.run(cli.parse_args(argv), stdout=io.StringIO()) == 0
    finally:
        tracer.remove()
    hits = [s[7]["hit"] for s in tracer.spans if s[1] == "points_by_face"]
    assert 0 in hits and 1 in hits
