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


def _dead_definitions(package: Path, scanned: list) -> list:
    """``module: name`` of every definition in ``package`` that no code
    under the ``scanned`` directories names."""
    names: Counter = Counter()
    members: Counter = Counter()
    for top in scanned:
        for path in top.rglob("*.py"):
            used, as_member = _uses(ast.parse(path.read_text(), str(path)))
            names += used
            members += as_member
    dead = []
    for path in sorted(package.glob("*.py")):
        for name, owner in _definitions(ast.parse(path.read_text(), str(path))):
            if owner is None:
                used = names[name]
            else:
                used = members[name] or members[f"{owner}.{name}"]
            if not used:
                dead.append(f"{path.name}: {name if owner is None else f'{owner}.{name}'}")
    return dead


def test_every_package_definition_is_named_elsewhere():
    dead = _dead_definitions(PACKAGE, SCANNED)
    assert not dead, "defined but never named by src or perfbench: " + ", ".join(dead)


def test_a_function_only_a_test_names_is_dead(tmp_path):
    """A package function that a ``tests/`` file calls, and no code under
    ``src`` or ``perfbench``, is reported: the tests are not scanned."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tests").mkdir()
    (package / "mod.py").write_text(
        "def used():\n    return reference()\n\n"
        "def reference():\n    return 1\n\n"
        "def only_tested():\n    return 2\n")
    (tmp_path / "perfbench" / "run.py").write_text("from pkg.mod import used\nused()\n")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import only_tested\n\n"
        "def test_only_tested():\n    assert only_tested() == 2\n")
    dead = _dead_definitions(package, [tmp_path / "src", tmp_path / "perfbench"])
    assert dead == ["mod.py: only_tested"]


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


# ---------------------------------------------------------------------------
# dead knobs: a default that every caller keeps is a constant, not a parameter

# ``main(argv=None)`` reads sys.argv when the console script calls it bare.
KNOB_EXEMPT = {"main(argv)"}


def _defaulted_parameters(tree) -> list:
    """(qualified name, name it is called by, parameter, position) for every
    parameter with a default of every function, method and nested function.
    Positions count the arguments a call passes, so ``self`` and ``cls`` are
    left out, and keyword-only parameters have position None.  ``__init__``
    is called by its class name."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                decorators = {d.id for d in child.decorator_list if isinstance(d, ast.Name)}
                positional = args.posonlyargs + args.args
                if in_class and "staticmethod" not in decorators:
                    positional = positional[1:]
                called_as = child.name
                if child.name == "__init__":
                    called_as = prefix.rstrip(".").rsplit(".", 1)[-1]
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    out.append((f"{prefix}{child.name}", called_as, arg.arg, i))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((f"{prefix}{child.name}", called_as, arg.arg, None))
                visit(child, f"{prefix}{child.name}.", False)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return out


def _call_shapes(tree) -> dict:
    """Called name -> list of (positional count, keyword names) of its calls;
    a ``*args`` call passes every position and a ``**kwargs`` call every
    keyword (the name ``**``)."""
    out: dict = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        npos = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
        keywords = {k.arg or "**" for k in node.keywords}
        out.setdefault(name, []).append((npos, keywords))
    return out


def _unset_defaults(definitions: list, calls: dict) -> list:
    unset = []
    for qualname, called_as, param, position in definitions:
        shapes = calls.get(called_as, [])
        if not any(param in kws or "**" in kws or (position is not None and npos > position)
                   for npos, kws in shapes):
            unset.append(f"{qualname}({param})")
    return unset


def test_a_default_no_call_sets_is_a_dead_knob():
    source = (
        "class A:\n"
        "    def __init__(self, x, y=0):\n        pass\n"
        "    def m(self, a, b=1, *, c=2):\n        pass\n"
        "def f(u, v=3, w=4):\n    def inner(z=5):\n        pass\n    inner()\n"
        "A(1)\nA(1).m(0, 2)\nf(0, w=1)\nf(*args)\n"
    )
    tree = ast.parse(source)
    unset = _unset_defaults(_defaulted_parameters(tree), _call_shapes(tree))
    assert sorted(unset) == ["A.__init__(y)", "A.m(c)", "f.inner(z)"]


def test_every_defaulted_parameter_is_set_by_some_caller():
    calls: dict = {}
    for top in SCANNED:
        for path in top.rglob("*.py"):
            for name, shapes in _call_shapes(ast.parse(path.read_text(), str(path))).items():
                calls.setdefault(name, []).extend(shapes)
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        definitions = _defaulted_parameters(ast.parse(path.read_text(), str(path)))
        dead += [f"{path.name}: {knob}" for knob in _unset_defaults(definitions, calls)
                 if knob not in KNOB_EXEMPT]
    assert not dead, "a default that no call in src or perfbench sets: " + ", ".join(dead)


# ---------------------------------------------------------------------------
# caches: every cache has a size bound or a clear owner

# Small combinatorial tables keyed by small ints, fiber types or algebra
# kinds: a run reaches a handful of keys, so their size is bounded by the
# grids the checks sweep.
UNBOUNDED_ALLOWED = {
    "ext_basis", "ext_position", "theta_matrix", "fundamental_subspace", "sym_basis",
    "sym_position", "fiber_space", "default_generators", "_window_degrees",
}
# Caches keyed by a run's spec and window, each entry an edge table, a probe
# engine or a family: these alone may grow with the run, so each has a size
# bound, and no other cache may join them.
BOUNDED_ALLOWED = {"edge_table", "probe_engine", "_build_family_cached"}


def _cache_name(decorator):
    """``cache`` or ``lru_cache`` when the decorator is one of them."""
    name = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = name.id if isinstance(name, ast.Name) else getattr(name, "attr", None)
    return name if name in ("cache", "lru_cache") else None


def _unbounded(decorator) -> bool:
    """``functools.cache``, or ``lru_cache`` with a maxsize of None."""
    name = _cache_name(decorator)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(decorator, ast.Call):
        return False
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def _caches(tree) -> list:
    """``(name, unbounded)`` for every function and method decorated with a
    cache."""
    return [(node.name, any(map(_unbounded, node.decorator_list))) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(_cache_name, node.decorator_list))]


def _unbounded_caches(tree) -> list:
    """Names of the functions and methods decorated with an unbounded cache."""
    return [name for name, unbounded in _caches(tree) if unbounded]


def _unlisted_caches(tree) -> list:
    """The caches on neither list: unbounded ones that are no combinatorial
    table, and bounded ones that are not keyed by a run."""
    return [name for name, unbounded in _caches(tree)
            if name not in (UNBOUNDED_ALLOWED if unbounded else BOUNDED_ALLOWED)]


def test_an_unbounded_cache_keyed_by_a_run_is_flagged():
    source = (
        "import functools\nfrom functools import lru_cache\n"
        "@lru_cache(maxsize=None)\ndef f(spec, window):\n    pass\n"
        "@lru_cache(None)\ndef g(spec):\n    pass\n"
        "@functools.cache\ndef h(window):\n    pass\n"
        "@lru_cache(maxsize=16)\ndef bounded(spec):\n    pass\n"
        "@lru_cache\ndef default_bound(spec):\n    pass\n"
    )
    assert _unbounded_caches(ast.parse(source)) == ["f", "g", "h"]


def test_a_bounded_cache_keyed_by_a_run_is_flagged_unless_listed():
    source = (
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=16)\ndef edge_table(spec, window, gens):\n    pass\n"
        "@lru_cache(maxsize=16)\ndef engine_for(spec, window):\n    pass\n"
        "@lru_cache\ndef closure_of(spec, seeds):\n    pass\n"
        "@lru_cache(maxsize=None)\ndef probe_engine(spec, window):\n    pass\n"
        "@lru_cache(maxsize=None)\ndef fiber_space(n, fiber):\n    pass\n"
        "@lru_cache(maxsize=8)\ndef fiber_space_bounded(n, fiber):\n    pass\n"
    )
    assert _unlisted_caches(ast.parse(source)) == [
        "engine_for", "closure_of", "probe_engine", "fiber_space_bounded"]


def _package_trees() -> list:
    return [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]


def test_every_unbounded_cache_is_a_small_combinatorial_table():
    found = {name for tree in _package_trees() for name in _unbounded_caches(tree)}
    assert not found - UNBOUNDED_ALLOWED, f"unbounded caches: {sorted(found - UNBOUNDED_ALLOWED)}"
    assert not UNBOUNDED_ALLOWED - found, f"stale allow-list: {sorted(UNBOUNDED_ALLOWED - found)}"


def test_every_bounded_cache_is_keyed_by_a_run():
    trees = _package_trees()
    unlisted = [name for tree in trees for name in _unlisted_caches(tree)]
    assert not unlisted, f"caches on neither list: {unlisted}"
    bounded = {name for tree in trees for name, unbounded in _caches(tree) if not unbounded}
    assert bounded == BOUNDED_ALLOWED, f"stale list: {sorted(BOUNDED_ALLOWED - bounded)}"
