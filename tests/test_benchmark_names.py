"""The benchmark under perfbench/ looks countstrat's functions up by name:
tracing.py wraps each (module, name) pair of SPANNED and AGGREGATED with
getattr, and checks.py imports names from countstrat. perfbench's own tests
are not part of this suite, so these checks keep a rename or deletion in
countstrat from breaking the benchmark unnoticed. The files are parsed, not
imported."""

import ast
import importlib
from pathlib import Path

import pytest

import countstrat

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def module_ast(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def traced_pairs() -> list[tuple[str, str]]:
    pairs = []
    for node in module_ast("tracing.py").body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in ("SPANNED", "AGGREGATED") for t in node.targets):
            pairs.extend(ast.literal_eval(node.value))
    return pairs


def checked_names() -> list[str]:
    return [
        alias.name
        for node in ast.walk(module_ast("checks.py"))
        if isinstance(node, ast.ImportFrom) and node.module == "countstrat"
        for alias in node.names
    ]


def test_benchmark_names_found():
    # an empty list would make the resolution tests below pass vacuously
    assert traced_pairs() and checked_names()


@pytest.mark.parametrize("mod, name", traced_pairs())
def test_traced_function_resolves(mod, name):
    assert callable(getattr(importlib.import_module(f"countstrat.{mod}"), name, None))


@pytest.mark.parametrize("name", checked_names())
def test_checked_name_resolves(name):
    assert callable(getattr(countstrat, name, None))
