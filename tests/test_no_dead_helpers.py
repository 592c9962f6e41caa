"""Every function, class, method and import of the package is used by the program.

A function or class counts as used when its name appears in code (a name,
an attribute, an import, or a word of a non-docstring string such as a tracer
entry point) anywhere in ``src`` or ``perfbench``.  A method or property
counts as used only when code names it as an attribute, or in a dotted
``Class.method`` string (the tracer's form): a word of a record string such
as "every basis vector" is no use of ``Subspace.basis``.  Names that only
tests use do not count: code that no check, command or benchmark reaches is
deleted, and its tests with it.  Comments and docstrings do not count.
Dunder methods are called by Python itself and are left out.

A module-level import counts as used when its module names what it binds.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slmod"
SCANNED = [ROOT / "src", ROOT / "perfbench"]
WORD = re.compile(r"[A-Za-z_]\w*")
DOTTED = re.compile(r"[A-Za-z_]\w*\.[A-Za-z_]\w*")

# The one definition kept for the tests alone: ``fiber_action`` builds each
# fiber map as an exact Fraction matrix, independently of the integer
# ``EdgeTable``, and the closure, probe and edge-table tests compare against it.
TEST_REFERENCES = {"fiber_action"}


def _docstrings(tree) -> set:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _uses(tree) -> tuple:
    """(names, members): every name the code uses, and the attribute names
    and dotted ``Class.member`` strings alone."""
    docs = _docstrings(tree)
    names: Counter = Counter()
    members: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
            members[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names[node.asname] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            names.update(WORD.findall(node.value))
            members.update(DOTTED.findall(node.value))
    return names, members


def _definitions(tree) -> list:
    """Module-level functions and classes, as (name, None), and the methods
    of those classes, as (name, class name)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, None))
        if isinstance(node, ast.ClassDef):
            out += [
                (m.name, node.name)
                for m in node.body
                if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (m.name.startswith("__") and m.name.endswith("__"))
            ]
    return out


def _imported_names(tree) -> list:
    """The names that the module-level imports bind, ``__future__`` left out."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return out


def test_every_package_definition_is_named_elsewhere():
    names: Counter = Counter()
    members: Counter = Counter()
    for top in SCANNED:
        for path in top.rglob("*.py"):
            used, as_member = _uses(ast.parse(path.read_text(), str(path)))
            names += used
            members += as_member
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, owner in _definitions(ast.parse(path.read_text(), str(path))):
            if owner is None:
                used = names[name] or name in TEST_REFERENCES
            else:
                used = members[name] or members[f"{owner}.{name}"]
            if not used:
                dead.append(f"{path.name}: {name if owner is None else f'{owner}.{name}'}")
    assert not dead, "defined but never named by src or perfbench: " + ", ".join(dead)


def test_a_method_named_only_by_a_word_of_a_string_is_dead():
    names, members = _uses(ast.parse(
        'label = "every basis vector"\nENTRY = ("slmod.theorem_registry", "ProbeEngine.run")\n'))
    assert names["basis"] and not members["basis"]
    assert members["ProbeEngine.run"] and not members["run"]


def test_every_package_import_is_named_by_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in named]
    assert not unused, "imported but never named: " + ", ".join(unused)
