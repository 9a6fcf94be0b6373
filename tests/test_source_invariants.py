"""Invariants of the library source, checked on its syntax trees.

The library is standard-library only, holds no float anywhere, and never
relies on an assert statement for a check (python -O strips them).  Each
rule is read off the ast of every module under src/wehrhart.  The
benchmark's tracer looks library functions up by name, so one more test
installs and removes it on the imported library.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wehrhart"
TRACING = SRC.parent.parent / "bench" / "tracing.py"
MODULES = sorted(SRC.glob("*.py"))


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


@pytest.mark.parametrize(
    "source,rule",
    [
        ("import numpy\n", test_standard_library_imports_only),
        ("from sympy.core import S\n", test_standard_library_imports_only),
        ("assert x\n", test_no_assert_statements),
        ("x = 0.5\n", test_no_float_literals),
        ("x = 1e3\n", test_no_float_literals),
    ],
)
def test_each_rule_catches_a_violation(source, rule, tmp_path):
    path = tmp_path / "bad.py"
    path.write_text("from __future__ import annotations\nimport json\nfrom . import algebra\n" + source)
    with pytest.raises(AssertionError):
        rule(path)


def test_tracer_finds_every_traced_name():
    """bench/tracing.py wraps each name it traces and puts the originals back."""
    spec = importlib.util.spec_from_file_location("wehrhart_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in {module for module, _, _ in tracing.TRACED}:
        importlib.import_module(f"wehrhart.{name}")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
    finally:
        tracer.remove()
    assert {attr for _, attr, _ in patched} >= {path.split(".")[-1] for _, path, _ in tracing.TRACED}
    for holder, attr, original in patched:
        assert getattr(holder, attr) is original, (holder, attr)
