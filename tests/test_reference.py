"""Test modules share their references through ``reference.py`` alone: no
``tests/test_*.py`` imports another test module, so each one can be read,
run and changed on its own."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _test_imports(source: str) -> list:
    """The test modules that a source imports, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [name for name in names if name.split(".")[0].startswith("test_")]
    return found


def test_no_test_module_imports_another():
    paths = sorted(TESTS.glob("test_*.py"))
    assert len(paths) > 20
    for path in paths:
        assert _test_imports(path.read_text()) == [], path.name


def test_the_import_lint_flags_a_planted_import():
    assert _test_imports("from test_edge_table import fiber_action\n") == ["test_edge_table"]
    assert _test_imports("def f():\n    import test_exact_linalg as t\n") == ["test_exact_linalg"]
    assert _test_imports("from reference import fiber_action\nimport slmod.sl_maps\n") == []
