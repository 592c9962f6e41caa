"""The exact core stays in plain ints.

Family fibers, structural maps and fiber actions are built from integer
matrices; a ``Fraction`` entry anywhere in them means a round trip through
rational arithmetic that the integer elimination then has to undo.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import numpy as np

from slmod.exterior_algebra import theta_matrix
from slmod.graded_modules import ActionSpec, Fund, Lambda, ScalarFiber, Sym2, Window, fiber_space
from slmod.sl_maps import FamilyKind, T, build_family, f, map_stack, pi, theta_tilde


def _ints(rows) -> bool:
    return all(type(x) is int for row in rows for x in row)


def _int_array(a) -> bool:
    """int64, or Python ints on dtype object."""
    return a.dtype == np.int64 or a.dtype == object and all(type(x) is int for x in a.flat)


def test_every_core_matrix_entry_is_an_int():
    for n in (2, 4, 6):
        for p in range(2, n + 1):
            assert _ints(theta_matrix(n, p)), ("theta", n, p)
    n = 4
    maps = ([pi(p) for p in range(n)] + [T(p) for p in range(1, n + 1)]
            + [theta_tilde(p) for p in range(2, n + 1)] + [f(p) for p in range(n)])
    for kqs in ([(3, -1, 0, 2)], [(3 * 2**40, -1, 0, 2)]):
        for map_id in maps:
            assert _int_array(map_stack(map_id, n, np.array(kqs, dtype=object))), (map_id, kqs)
    x, y = (1, -2, 0, 3), (2, 0, -1, 1)
    for fiber in (Lambda(2), Fund(2), Sym2(), ScalarFiber()):
        space = fiber_space(n, fiber)
        # x y^T leaves sp, so Fund fibers take only x bar(x)^T
        forms = [(x,)] if fiber.kind == "fund" else [(x,), (x, y)]
        for args in forms:
            stack = space.rank_one_stack(*(np.array([v], dtype=object) for v in args))
            assert _int_array(stack) and type(space.scale) is int, (fiber, args)
    for fiber in (Lambda(2), Fund(2)):
        spec = ActionSpec.make("H", n, fiber, (F(1, 2), 0, 0, 0))
        for kind in FamilyKind:
            family = build_family(kind, 2, spec, Window(n, 1))
            assert family.fibers and all(_ints(s.rows) for s in family.fibers.values()), (fiber, kind)


# ---------------------------------------------------------------------------
# exactness lint: no float array enters the exact sweeps

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "slmod"
# numpy constructors, and the position of their dtype argument
CONSTRUCTORS = {"array": 1, "asarray": 1, "zeros": 1, "empty": 1, "ones": 1, "full": 2,
                "eye": 3, "identity": 1}


def _exact_dtype(node, assigned: dict, depth: int = 0) -> bool:
    """np.int64, np.intp or object, directly, through a conditional, or
    through a local name every assignment of which is one of these."""
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "np" \
            and node.attr in ("int64", "intp")
    if isinstance(node, ast.IfExp):
        return all(_exact_dtype(branch, assigned, depth) for branch in (node.body, node.orelse))
    if isinstance(node, ast.Name):
        if node.id == "object":
            return True
        values = assigned.get(node.id, [])
        return bool(values) and depth < 4 and all(
            _exact_dtype(v, assigned, depth + 1) for v in values)
    return False


def _dtype_arg(call: ast.Call):
    """The dtype argument of a numpy constructor or ``astype`` call, or None
    when the call is neither; ``False`` when the dtype is missing."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "astype":
        position = 0
    elif isinstance(func.value, ast.Name) and func.value.id == "np" and func.attr in CONSTRUCTORS:
        position = CONSTRUCTORS[func.attr]
    else:
        return None
    for kw in call.keywords:
        if kw.arg == "dtype":
            return kw.value
    return call.args[position] if len(call.args) > position else False


def _array_calls(tree):
    """(call, dtype argument, local assignments) for every array-making call,
    the assignments being those of the enclosing function."""
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    seen = set()
    for scope in reversed(scopes):  # innermost functions first
        assigned: dict = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(node.value)
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and id(node) not in seen:
                dtype = _dtype_arg(node)
                if dtype is not None:
                    seen.add(id(node))
                    yield node, dtype, assigned


def _lint(source: str) -> list:
    return [f"line {call.lineno}: {ast.unparse(call)}"
            for call, dtype, assigned in _array_calls(ast.parse(source))
            if dtype is False or not _exact_dtype(dtype, assigned)]


def test_every_array_in_the_package_has_an_exact_dtype():
    found = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        assert _lint(source) == [], path.name
        found += sum(1 for _ in _array_calls(ast.parse(source)))
    assert found >= 10


def test_the_exactness_lint_flags_float_and_missing_dtypes():
    bad = """
import numpy as np
def f(rows, big):
    a = np.array(rows)
    b = np.zeros((2, 2), dtype=float)
    c = a.astype(np.float64)
    dtype = np.int64 if big else np.float64
    d = np.empty(3, dtype)
    e = b.astype(dtype, copy=False)
    f = np.eye(3)
    g = np.identity(2, float)
"""
    assert len(_lint(bad)) == 7
    good = """
import numpy as np
def f(rows, big):
    dtype = np.int64 if big else object
    a = np.array(rows, dtype=np.intp)
    b = np.zeros((2, 2), dtype=dtype)
    c = a.astype(object)
    d = np.eye(3, dtype=np.int64)
    e = np.identity(2, object)
"""
    assert _lint(good) == []


# numpy calls that always compute in floating point, whatever the dtype in
FLOAT_CALLS = ("divide", "true_divide")


def _float_math(source: str) -> list:
    """Every use of ``np.linalg`` (and so of any ``np.linalg.*``), ``np.divide``
    and ``np.true_divide``."""
    return [f"line {node.lineno}: np.{node.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "np" and (node.attr == "linalg" or node.attr in FLOAT_CALLS)]


def test_no_floating_point_numpy_math_in_the_package():
    for path in sorted(PACKAGE.glob("*.py")):
        assert _float_math(path.read_text()) == [], path.name


def test_the_float_math_lint_flags_linalg_and_true_division():
    bad = """
import numpy as np
def f(a, b):
    r = np.linalg.matrix_rank(a)
    x = np.linalg.solve(a, b)
    q = np.divide(a, b)
    t = np.true_divide(a, 2)
    return r, x, q, t
"""
    assert len(_float_math(bad)) == 4
    assert _float_math("import numpy as np\nq = np.floor_divide(a, b) + np.gcd(a, b)\n") == []


# ---------------------------------------------------------------------------
# boundary lint: rationals are cleared only where a Fraction can enter

# (module, top-level function) pairs that may call ``_int_matrix``: the
# rational row spaces of ``rref``, seed vectors handed to ``closure``,
# ExtVector coordinates in the oracle, the Fraction frames of the small
# algebras, and the vectors ``j_membership`` hands to numpy (whose int64 cast
# would truncate a Fraction silently)
BOUNDARY = {
    ("exact_linalg", "rref"),
    ("graded_modules", "closure"),
    ("theorem_registry", "oracle_fiber_dims"),
    ("invariant_ops", "small_algebra"),
    ("invariant_ops", "lie_closure_holds"),
    ("torus_lie", "j_membership"),
}


def _uses(name: str, module: str, source: str) -> list:
    """(module, top-level function or class, or None) of every use of
    ``name`` other than its definition and imports."""
    found = []

    def visit(node, top):
        for child in ast.iter_child_nodes(node):
            inner = top
            if top is None and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name
            if isinstance(child, ast.Name) and child.id == name \
                    or isinstance(child, ast.Attribute) and child.attr == name:
                found.append((module, top))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def _int_matrix_uses(module: str, source: str) -> list:
    return _uses("_int_matrix", module, source)


def _boundary_lint(module: str, source: str) -> list:
    return [use for use in _int_matrix_uses(module, source) if use not in BOUNDARY]


def test_int_matrix_is_called_only_at_the_boundary():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        assert _boundary_lint(path.stem, source) == [], path.name
        callers.update(_int_matrix_uses(path.stem, source))
    assert callers == BOUNDARY  # every listed boundary still clears rationals


def test_the_boundary_lint_flags_a_call_in_kernel():
    source = (PACKAGE / "exact_linalg.py").read_text()
    original = '    m = matrix(m)\n    if not m:\n        raise ValueError("kernel'
    assert source.count(original) == 1
    planted = source.replace(original, original.replace("matrix(m)", "matrix(_int_matrix(m)[0])"))
    assert _boundary_lint("exact_linalg", planted) == [("exact_linalg", "kernel")]


# ---------------------------------------------------------------------------
# trusted-wrap lint: rows skip the elimination only where echelon_stack or
# kernel_stack made them canonical

TRUSTED = {("exact_linalg", "subspaces")}


def _trusted_lint(module: str, source: str) -> list:
    return [use for use in _uses("_trusted", module, source) if use not in TRUSTED]


def test_the_trusted_wrap_is_called_only_by_subspaces():
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        assert _trusted_lint(path.stem, source) == [], path.name
        callers.update(_uses("_trusted", path.stem, source))
    assert callers == TRUSTED


def test_the_trusted_wrap_lint_flags_a_planted_call():
    source = (PACKAGE / "exact_linalg.py").read_text()
    original = "    return Subspace(a.ambient_dim, list(a.rows) + list(b.rows))\n"
    assert source.count(original) == 1
    planted = source.replace(original, original.replace(
        "Subspace(a.ambient_dim, list(a.rows) + list(b.rows))",
        "Subspace._trusted(a.ambient_dim, a.rows + b.rows, a.pivots + b.pivots)"))
    assert _trusted_lint("exact_linalg", planted) == [("exact_linalg", "subspace_sum")]
    assert _trusted_lint("graded_modules", "def closure():\n    return _trusted(3, [], [])\n") \
        == [("graded_modules", "closure")]


# ---------------------------------------------------------------------------
# one int64 rule: every choice between int64 and Python ints is made inside
# exact_linalg, by int_matmul, int_affine, int_blocks and the stacked elimination


def _fits_lint(module: str, source: str) -> list:
    """Every use and import of ``fits_int64`` outside exact_linalg."""
    if module == "exact_linalg":
        return []
    imports = [(module, "import") for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.alias) and node.name == "fits_int64"]
    return imports + _uses("fits_int64", module, source)


def test_fits_int64_is_named_only_in_exact_linalg():
    for path in sorted(PACKAGE.glob("*.py")):
        assert _fits_lint(path.stem, path.read_text()) == [], path.name
    assert _uses("fits_int64", "exact_linalg", (PACKAGE / "exact_linalg.py").read_text())


def test_the_int64_rule_lint_flags_a_planted_call():
    source = (PACKAGE / "graded_modules.py").read_text()
    original = "    images = int_affine(cs, rows"
    assert source.count(original) == 1
    planted = source.replace(original, "    assert fits_int64(0)\n" + original)
    assert _fits_lint("graded_modules", planted) == [("graded_modules", "fiber_escapes")]
    assert _fits_lint("torus_lie", "from .exact_linalg import fits_int64\n") == [("torus_lie", "import")]
