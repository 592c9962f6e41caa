"""Every function, class and method of the package is used somewhere.

A definition counts as used when its name appears in code (a name, an
attribute, an import, or a non-docstring string such as a tracer entry point)
anywhere in ``src``, ``tests`` or ``perfbench`` other than in its own
definition.  Comments and docstrings do not count.  Dunder methods are
called by Python itself and are left out.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slmod"
SCANNED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
WORD = re.compile(r"[A-Za-z_]\w*")


def _docstrings(tree) -> set:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _uses(tree) -> Counter:
    docs = _docstrings(tree)
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names[node.asname] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            names.update(WORD.findall(node.value))
    return names


def _definitions(tree) -> list:
    """Module-level functions and classes, and the methods of those classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [
                m.name
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (m.name.startswith("__") and m.name.endswith("__"))
            ]
    return out


def test_every_package_definition_is_named_elsewhere():
    uses: Counter = Counter()
    for top in SCANNED:
        for path in top.rglob("*.py"):
            uses += _uses(ast.parse(path.read_text(), str(path)))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _definitions(ast.parse(path.read_text(), str(path))):
            if not uses[name]:
                dead.append(f"{path.name}: {name}")
    assert not dead, "defined but never named: " + ", ".join(dead)
