import ast
import random
from fractions import Fraction as F
from math import comb
from pathlib import Path

import numpy as np
import pytest

import slmod.complexes as complexes
import slmod.theorem_registry as theorem_registry
from slmod.complexes import (
    DERHAM,
    FSQ,
    FSQ_FUND,
    TCHAIN,
    _in_out_maps,
    compare_with_prediction,
    complex_homology,
    predicted_homology,
)
from slmod.exact_linalg import Subspace, image, intersect, kernel
from slmod.exterior_algebra import fundamental_subspace
from slmod.graded_modules import ActionSpec, Lambda, Window, directions
from slmod.sl_maps import FamilyKind, T, build_family, f, map_stack, pi
from slmod.theorem_registry import run_check
from reference import _merged_directions, mat_mul, mat_vec, subspace_contains

HALF = (F(1, 2), 0, 0, 0)
ZERO = (0, 0, 0, 0)
WIN = Window(4, 1)


def _stack(map_id, spec) -> list:
    """The map at every degree of the window, as tuples of row tuples."""
    return [tuple(map(tuple, m)) for m in map_stack(map_id, 4, spec.scaled_shifts(WIN)).tolist()]


def _zero(m) -> bool:
    return not any(map(any, m))


def test_complex_property_and_square_zero():
    spec = ActionSpec.make("H", 4, Lambda(0), HALF)
    for p in range(1, 4):
        assert all(_zero(mat_mul(a, b)) for a, b in zip(_stack(pi(p), spec), _stack(pi(p - 1), spec)))
        assert all(_zero(mat_mul(a, b)) for a, b in zip(_stack(T(p), spec), _stack(T(p + 1), spec)))
    for p in (1, 2):
        assert all(_zero(mat_mul(sq, sq)) for sq in _stack(f(p), spec))


def test_contraction_kernel_is_the_intermediate_family():
    spec = ActionSpec.make("H", 4, Lambda(2), HALF)
    fam = build_family(FamilyKind.INT, 2, spec, WIN)
    for k, mat in zip(WIN.degrees(), _stack(T(2), spec)):
        assert kernel(mat) == fam.fiber(k)


def test_exactness_away_from_the_degenerate_degree():
    spec = ActionSpec.make("H", 4, Lambda(0), HALF)
    for pos in range(0, 5):
        table = complex_homology(DERHAM, 4, HALF, WIN, p=pos)
        assert set(table.values()) == {0}
        table = complex_homology(TCHAIN, 4, HALF, WIN, p=pos)
        assert set(table.values()) == {0}


def test_degenerate_degree_carries_the_whole_fiber():
    for pos in range(0, 5):
        for cid in (DERHAM, TCHAIN):
            table = complex_homology(cid, 4, ZERO, WIN, p=pos)
            assert table[(0, 0, 0, 0)] == comb(4, pos)
            assert all(v == 0 for k, v in table.items() if k != (0, 0, 0, 0))


def test_square_zero_homology_values():
    table = complex_homology(FSQ(2), 4, HALF, WIN)
    assert set(table.values()) == {2}
    table = complex_homology(FSQ_FUND(2), 4, HALF, WIN)
    assert set(table.values()) == {1}
    table = complex_homology(FSQ_FUND(1), 4, HALF, WIN)
    assert set(table.values()) == {2}
    # the single vanishing case: one pair of variables, first power
    table = complex_homology(FSQ(1), 2, (F(1, 2), 0), Window(2, 2))
    assert set(table.values()) == {0}


@pytest.mark.parametrize("beta", [ZERO, HALF])
def test_predictions_match(beta):
    for pos in (0, 1, 2, 3, 4):
        assert compare_with_prediction(DERHAM, 4, beta, WIN, p=pos).status == "PASS"
        assert compare_with_prediction(TCHAIN, 4, beta, WIN, p=pos).status == "PASS"
    for p in (1, 2):
        assert compare_with_prediction(FSQ(p), 4, beta, WIN).status == "PASS"
        assert compare_with_prediction(FSQ_FUND(p), 4, beta, WIN).status == "PASS"


def test_position_validation():
    with pytest.raises(ValueError):
        complex_homology(FSQ(3), 4, HALF, WIN)
    with pytest.raises(ValueError):
        complex_homology(DERHAM, 4, HALF, WIN, p=5)
    with pytest.raises(ValueError):
        complex_homology(DERHAM, 4, HALF, WIN)


def _per_degree_homology(cid, pos, n, beta, win) -> dict:
    """The homology table from the scalar ``kernel`` and ``image`` of each
    map at every degree's own K, with no grouping by direction; on FSQ_FUND
    the kernel is intersected with Fund and the image is that of Fund's
    basis vectors."""
    spec = ActionSpec.make("H", n, Lambda(pos), beta)
    inc, out = _in_out_maps(cid, pos, n)
    fund = fundamental_subspace(n, pos) if cid.kind == "fsq_fund" else None
    kqs = spec.scaled_shifts(win)
    outs = map_stack(out, n, kqs).tolist() if out is not None else None
    incs = map_stack(inc, n, kqs).tolist() if inc is not None else None
    table = {}
    for i, k in enumerate(win.degrees()):
        ker = kernel(outs[i]) if outs is not None else Subspace.full(comb(n, pos))
        ker = intersect(ker, fund) if fund is not None else ker
        if incs is None:
            im = Subspace.zero(comb(n, pos))
        elif fund is None:
            im = image(incs[i])
        else:
            im = Subspace(comb(n, pos), [mat_vec(incs[i], row) for row in fund.rows])
        assert subspace_contains(ker, im), (cid, pos, k)
        table[k] = ker.dim - im.dim
    return table


@pytest.mark.parametrize("n,d", [(4, 2), (2, 2)])
@pytest.mark.parametrize("half", [False, True])
def test_homology_by_direction_matches_the_per_degree_reference(n, d, half):
    win = Window(n, d)
    beta = (F(1, 2) if half else 0,) + (0,) * (n - 1)
    cases = [(cid, pos) for cid in (DERHAM, TCHAIN) for pos in range(n + 1)]
    cases += [(kind(p), p) for kind in (FSQ, FSQ_FUND) for p in range(1, n // 2 + 1)]
    for cid, pos in cases:
        assert complex_homology(cid, n, beta, win, p=pos) == _per_degree_homology(cid, pos, n, beta, win), \
            (cid, pos)
    # the restricted prediction below the middle: the wedge image of MAX's
    # part in Fund(p), per degree
    for p in range(1, n // 2):
        spec = ActionSpec.make("H", n, Lambda(p), beta)
        maxf = build_family(FamilyKind.MAX, p, spec, win)
        fund = fundamental_subspace(n, p)
        k0 = spec.special_degree()
        wedges = map_stack(pi(p), n, spec.scaled_shifts(win)).tolist()
        expected = {k: fund.dim if k == k0 else
                    Subspace(comb(n, p + 1), [mat_vec(wedge, row) for row in intersect(maxf.fiber(k), fund).rows]).dim
                    for k, wedge in zip(win.degrees(), wedges)}
        assert predicted_homology(FSQ_FUND(p), n, beta, win) == expected


def _break_one_direction(monkeypatch, spec, win, map_id, spoil):
    """Make ``complexes.map_stack`` spoil item j of ``map_id``'s stack
    through ``spoil(stack, j, n, kqs)``, j a direction in the middle of the
    window's numbering.  Returns that direction's first degree in window
    order, which is not the window's first degree."""
    live, place, dirs = directions(spec.scaled_shifts(win))
    j = len(dirs) // 2
    first = win.degrees()[live[place.index(j)]]
    assert first != win.degrees()[0]

    def injection(mid, n, kqs):
        stack = np.array(map_stack(mid, n, kqs))
        if mid == map_id:
            spoil(stack, j, n, kqs)
        return stack

    monkeypatch.setattr(complexes, "map_stack", injection)
    return first


def test_a_broken_in_map_names_its_direction_first_degree(monkeypatch):
    """DERHAM at p = 1: the incoming map along one direction is replaced by
    one that sends a unit vector outside the outgoing map's kernel, and the
    error names that direction's first degree in window order."""
    win = Window(4, 2)

    def spoil(stack, j, n, kqs):
        c = int(np.flatnonzero(map_stack(pi(1), n, kqs)[j].any(axis=0))[0])  # a column out(j) does not kill
        stack[j] = 0
        stack[j, c, 0] = 1

    k = _break_one_direction(monkeypatch, ActionSpec.make("H", 4, Lambda(1), HALF), win, pi(0), spoil)
    with pytest.raises(RuntimeError) as err:
        complex_homology(DERHAM, 4, HALF, win, p=1)
    assert str(err.value) == f"complex property violated at degree {k}"


def test_a_broken_square_names_its_direction_first_degree(monkeypatch):
    """FSQ(1): f(1) along one direction is replaced by the identity, whose
    square is not zero, and the error names that direction's first degree
    in window order."""
    win = Window(4, 2)

    def spoil(stack, j, n, kqs):
        stack[j] = np.eye(stack.shape[1], dtype=stack.dtype)

    k = _break_one_direction(monkeypatch, ActionSpec.make("H", 4, Lambda(1), HALF), win, f(1), spoil)
    with pytest.raises(RuntimeError) as err:
        complex_homology(FSQ(1), 4, HALF, win)
    assert str(err.value) == f"square-zero violated at degree {k}"


@pytest.mark.parametrize("seed", range(4))
def test_directions_number_each_primitive_direction_once(seed):
    """Stack rows are pairwise distinct, and every nonzero row is a nonzero
    integer multiple of its direction's row; zero rows are not live."""
    rng = random.Random(seed)
    big = 2**70 if seed == 3 else 1  # Python-int rows past int64
    rows = [[rng.choice((0, 0, 1)) * rng.randint(-3, 3) * big for _ in range(4)] for _ in range(200)]
    rows += [[0] * 4, [2 * x for x in rows[0]], [-x for x in rows[1]]]
    kq = np.array(rows, dtype=object if big > 1 else np.int64)
    live, place, stack = directions(kq)
    assert live.tolist() == [i for i, row in enumerate(rows) if any(row)]
    assert len(place) == len(live) and sorted(set(place)) == list(range(len(stack)))
    assert len({tuple(row) for row in stack.tolist()}) == len(stack)
    for i, j in zip(live.tolist(), place):
        direction = stack[j].tolist()
        lead = next(x for x in direction if x)
        factor = next(x for x in rows[i] if x) // lead
        assert factor != 0 and [factor * x for x in direction] == rows[i], (rows[i], direction)


def test_a_directions_mutant_that_merges_two_directions_is_caught(monkeypatch):
    monkeypatch.setattr(theorem_registry, "directions", _merged_directions)
    monkeypatch.setattr(complexes, "directions", _merged_directions)
    assert run_check("fiber-equalities", N=4, beta=ZERO, d=2).status == "FAIL"
    assert run_check("homology", N=4, beta=HALF, d=1).status in ("FAIL", "ERROR")


SCALAR = {"Subspace", "kernel", "image", "rank", "rref", "intersect", "subspace_sum"}


def test_homology_stays_off_the_scalar_path():
    """``complexes`` neither imports nor reaches as an attribute any of the
    scalar ``Subspace`` operations: homology reads its tables off stacked
    ranks alone."""
    tree = ast.parse(Path(complexes.__file__).read_text())
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not names & SCALAR, sorted(names & SCALAR)


# the row-by-row span store of the probes' old FIFO turns, the turns and their hook
ROW_BY_ROW = {"IntSpan", "saturate", "_holds"}


def _row_by_row_names(sources: dict) -> dict:
    """Module name -> the names of ``ROW_BY_ROW`` that its code binds,
    defines, imports or reaches as an attribute, for the modules that name
    any."""
    found = {}
    for module, source in sources.items():
        names = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
        if names & ROW_BY_ROW:
            found[module] = sorted(names & ROW_BY_ROW)
    return found


def test_the_package_names_no_row_by_row_span():
    """No module of ``slmod`` names ``IntSpan``, ``saturate`` or ``_holds``:
    the probes' FIFO turns grow stacked canonical spans, and the row-by-row
    ones live in ``tests/reference.py`` alone."""
    package = Path(complexes.__file__).parent
    assert _row_by_row_names({path.name: path.read_text() for path in package.glob("*.py")}) == {}


def test_a_planted_int_span_is_flagged():
    """The lint reads code, not text: an ``IntSpan(`` call planted in
    ``theorem_registry`` is flagged, and the same word in a docstring is not."""
    path = Path(theorem_registry.__file__)
    planted = '\n\ndef _planted(dim):\n    """An IntSpan in words."""\n    return IntSpan(dim)\n'
    assert _row_by_row_names({path.name: path.read_text() + planted}) == {path.name: ["IntSpan"]}
    assert _row_by_row_names({path.name: path.read_text() + planted.replace("IntSpan(dim)", "dim")}) == {}
