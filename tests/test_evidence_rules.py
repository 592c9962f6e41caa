"""The check layer writes its evidence through four rules, and reads the
edges into a degree through one gather.

``theorem_registry._probe`` runs every closure sweep and records its failing
seeds and its summary; ``Recorder.verdict`` records a sub-report;
``Recorder.tally`` records a failure count; ``theorem_registry._recorder``
echoes a check's report params.  ``EdgeTable.edges_into`` gathers the maps
into a degree index, the only place that subtracts an ``offset``.
``graded_modules.directions`` numbers the primitive directions of the
scaled shifts, the only place that divides them by their gcd.  A sweep
calls ``fiber_escapes`` once per slice of ``STACK_ITEMS`` items, never once
per generator, degree or direction, with no exception.  The unit
tables of ``exterior_algebra`` are the only code that reads the monomial
numbering, so every other fiber matrix is a product of them.  These lints
keep the hand-written forms from coming back, and each is shown to flag a
planted copy of one.
"""

import ast
import inspect
from pathlib import Path

from reference import gl_action_matrix

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "slmod"
REGISTRY = (PACKAGE / "theorem_registry.py").read_text()


def _callers(source: str, match, kind=ast.Call) -> list:
    """The top-level function or class around every node of ``kind`` (a
    call unless given) that ``match`` accepts (None at module level)."""
    found = []

    def visit(node, top):
        for child in ast.iter_child_nodes(node):
            inner = top
            if top is None and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name
            if isinstance(child, kind) and match(child):
                found.append(inner)
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def _runs_a_probe(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Attribute) and call.func.attr == "run"


def _builds_a_recorder(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Name) and call.func.id == "Recorder"


def _records_a_pass_verdict(call: ast.Call) -> bool:
    """A ``record`` call with ``expected=PASS``: a sub-report written by hand."""
    return isinstance(call.func, ast.Attribute) and call.func.attr == "record" and any(
        kw.arg == "expected" and isinstance(kw.value, ast.Name) and kw.value.id == "PASS"
        for kw in call.keywords)


def _is_offset(node) -> bool:
    """``x.offset`` or a subscript of it."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "offset"


SUBTRACTIONS = (ast.BinOp, ast.AugAssign, ast.UnaryOp)


def _subtracts_an_offset(node) -> bool:
    """``j - table.offset``, ``j -= table.offset[g]`` or ``-table.offset``:
    the source of an edge into j, gathered by hand.  Adding an offset, the
    target of an edge out of i, stays allowed."""
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.USub) and _is_offset(node.operand)
    return isinstance(node.op, ast.Sub) and _is_offset(
        node.right if isinstance(node, ast.BinOp) else node.value)


def _plant(original: str, replacement: str, source: str = REGISTRY) -> str:
    assert source.count(original) == 1, original
    return source.replace(original, replacement)


def test_only_probe_runs_the_probe_engine():
    assert _callers(REGISTRY, _runs_a_probe) == ["_probe"]


def test_the_probe_lint_flags_a_hand_written_sweep():
    planted = _plant(
        '    _probe(rec, engine, seeds, "exact", engine.full_target(),\n'
        '           f"{len(seeds)} seeds generate everything")\n',
        '    bad = sum(not engine.run(k, v, "exact", engine.full_target()) for k, v in seeds)\n'
        '    rec.tally(bad, f"{len(seeds)} seeds generate everything", "failed")\n')
    assert _callers(planted, _runs_a_probe) == ["_probe", "_sym2_closure_check"]


def test_only_recorder_builds_a_recorder_in_the_check_layer():
    assert _callers(REGISTRY, _builds_a_recorder) == ["_recorder"]


def test_the_recorder_lint_flags_a_hand_built_params_dict():
    planted = _plant('    rec = _recorder("homology", params, "N", "beta", "d")\n',
                     '    rec = Recorder("homology", {"N": n, "beta": format_vector(beta), "d": 2})\n')
    assert _callers(planted, _builds_a_recorder) == ["_recorder", "_check_homology"]


def test_no_sub_report_is_recorded_by_hand():
    for path in sorted(PACKAGE.glob("*.py")):
        expected = ["Recorder"] if path.stem == "reports" else []  # Recorder.verdict itself
        assert _callers(path.read_text(), _records_a_pass_verdict) == expected, path.name


def test_the_verdict_lint_flags_a_hand_written_sub_report_record():
    planted = _plant(
        '        rec.verdict(is_invariant(spec, family), "complement family is invariant")\n',
        '        inv = is_invariant(spec, family)\n'
        '        rec.record(inv.status == PASS, expected=PASS, actual=inv.status,\n'
        '                   note="complement family is invariant")\n')
    assert _callers(planted, _records_a_pass_verdict) == ["_check_cor_p0"]


def test_only_edge_table_gathers_in_edges():
    for path in sorted(PACKAGE.glob("*.py")):
        expected = ["EdgeTable"] if path.stem == "graded_modules" else []  # edges_into itself
        assert _callers(path.read_text(), _subtracts_an_offset, SUBTRACTIONS) == expected, path.name


def test_the_in_edge_lint_flags_a_hand_written_gather():
    planted = _plant(
        '    gis, srcs = table.edges_into(i0)\n',
        '    into = [(gi, i) for gi, i in enumerate((i0 - table.offset).tolist())\n'
        '            if 0 <= i < len(table.degs) and table.inbox[i, gi]]\n'
        '    gis, srcs = [gi for gi, _ in into], [i for _, i in into]\n')
    assert _callers(planted, _subtracts_an_offset, SUBTRACTIONS) == ["_glue_freedom"]


# by the package's naming, a parameter that holds rows of scaled shifts
SHIFT_PARAMS = {"kq", "kqs"}


def _is_gcd_reduce(node) -> bool:
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "reduce"
            and isinstance(func.value, ast.Attribute) and func.value.attr == "gcd")


def _normalises_shifts(source: str) -> list:
    """The top-level function or class around every ``np.gcd.reduce`` of
    scaled shifts: of a ``scaled_shifts`` call, of a parameter named as
    shifts, or of a local name assigned from either, directly or through
    other such names."""
    found = []
    for top in ast.parse(source).body:
        tainted = {arg.arg for node in ast.walk(top) if isinstance(node, ast.arguments)
                   for arg in node.args + node.kwonlyargs} & SHIFT_PARAMS

        def derived(node):
            return any(isinstance(sub, ast.Name) and sub.id in tainted
                       or isinstance(sub, ast.Attribute) and sub.attr == "scaled_shifts"
                       for sub in ast.walk(node))

        assigns = [node for node in ast.walk(top) if isinstance(node, ast.Assign)]
        grew = True
        while grew:  # until every name derived from a shift is found
            names = {sub.id for node in assigns if derived(node.value)
                     for target in node.targets for sub in ast.walk(target)
                     if isinstance(sub, ast.Name)}
            grew = not names <= tainted
            tainted |= names
        found += [getattr(top, "name", None) for node in ast.walk(top)
                  if isinstance(node, ast.Call) and _is_gcd_reduce(node) and node.args
                  and derived(node.args[0])]
    return found


def test_only_directions_normalises_the_shifts():
    for path in sorted(PACKAGE.glob("*.py")):
        expected = ["directions"] if path.stem == "graded_modules" else []
        assert _normalises_shifts(path.read_text()) == expected, path.name


def test_the_shift_lint_flags_a_hand_written_normaliser():
    planted = _plant(
        '    live, place, stack = directions(spec0.scaled_shifts(window))\n',
        '    kqs = spec0.scaled_shifts(window)\n'
        '    gcds = np.gcd.reduce(kqs, axis=1)\n'
        '    live = np.flatnonzero(gcds)\n'
        '    stack, place = np.unique(kqs[live] // gcds[live, None], axis=0, return_inverse=True)\n')
    assert _normalises_shifts(planted) == ["_check_fiber_equalities"]


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _over_stack_slices(loop) -> bool:
    """``for start in range(..., ..., STACK_ITEMS)``."""
    it = getattr(loop, "iter", None)
    return (isinstance(loop, ast.For) and isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name) and it.func.id == "range" and len(it.args) == 3
            and isinstance(it.args[2], ast.Name) and it.args[2].id == "STACK_ITEMS")


def _loops_over_fiber_escapes(loop) -> bool:
    """A loop around a ``fiber_escapes`` call that is not a loop over stack
    slices: one call per generator, degree or direction."""
    return not _over_stack_slices(loop) and any(
        isinstance(node, ast.Call) and "fiber_escapes" in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None))
        for node in ast.walk(loop))


def test_fiber_escapes_runs_once_per_stack_slice():
    for path in sorted(PACKAGE.glob("*.py")):
        assert _callers(path.read_text(), _loops_over_fiber_escapes, LOOPS) == [], path.name


def test_the_batch_lint_flags_per_generator_and_per_degree_calls():
    graded = (PACKAGE / "graded_modules.py").read_text()
    planted = _plant(
        '    for start in range(0, len(flat), STACK_ITEMS):\n'
        '        gis, i = np.divmod(flat[start : start + STACK_ITEMS], len(src))\n',
        '    for gi in range(len(gens)):\n'
        '        i = np.flatnonzero(table.inbox[src, gi])\n'
        '        gis = np.full(len(i), gi, dtype=np.intp)\n', graded)
    assert _callers(planted, _loops_over_fiber_escapes, LOOPS) == ["is_invariant"]
    invariant = (PACKAGE / "invariant_ops.py").read_text()
    planted = _plant(
        '    for start in range(0, len(pairs) * count, STACK_ITEMS):\n'
        '        u, o = np.divmod(np.arange(start, min(start + STACK_ITEMS, len(pairs) * count)), count)\n',
        '    for i, pair in key.items():  # one call per degree\n'
        '        u, o = np.full(count, pair, dtype=np.intp), np.arange(count, dtype=np.intp)\n',
        invariant)
    assert _callers(planted, _loops_over_fiber_escapes, LOOPS) == ["invariance_report"]
    planted = _plant('len(pairs) * count, STACK_ITEMS)', 'len(pairs) * count, 1)', invariant)
    assert _callers(planted, _loops_over_fiber_escapes, LOOPS) == ["invariance_report"]


# the monomial numbering and the sign of e_a ^ on a monomial
MONOMIAL_HELPERS = {"ext_position", "sym_position", "insert_index"}


def _reads_monomials(node) -> bool:
    return (node.id if isinstance(node, ast.Name) else node.attr) in MONOMIAL_HELPERS


def test_only_the_unit_tables_read_monomials():
    for path in sorted(PACKAGE.glob("*.py")):
        expected = {"unit_wedges", "unit_contractions", "unit_products"} \
            if path.stem == "exterior_algebra" else set()
        found = _callers(path.read_text(), _reads_monomials, (ast.Name, ast.Attribute))
        assert set(found) == expected, path.name


def test_the_monomial_lint_flags_a_per_matrix_loop():
    graded = (PACKAGE / "graded_modules.py").read_text()
    planted = graded + "\n\n" + inspect.getsource(gl_action_matrix)
    assert set(_callers(planted, _reads_monomials, (ast.Name, ast.Attribute))) == {"gl_action_matrix"}
