import random
from fractions import Fraction as F
from math import comb

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
from reference import _merged_directions, mat_mul

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


def _per_degree_homology(cid, pos, beta, win) -> dict:
    """The homology table from the scalar ``kernel`` and ``image`` of each
    map at every degree's own K, with no grouping by direction."""
    spec = ActionSpec.make("H", 4, Lambda(pos), beta)
    inc, out = _in_out_maps(cid, pos, 4)
    fund = fundamental_subspace(4, pos) if cid.kind == "fsq_fund" else None
    kqs = spec.scaled_shifts(win)
    outs = map_stack(out, 4, kqs).tolist() if out is not None else None
    incs = map_stack(inc, 4, kqs).tolist() if inc is not None else None
    table = {}
    for i, k in enumerate(win.degrees()):
        ker = kernel(outs[i]) if outs is not None else Subspace.full(comb(4, pos))
        ker = intersect(ker, fund) if fund is not None else ker
        im = image(incs[i], fund) if incs is not None else Subspace.zero(comb(4, pos))
        assert ker.contains(im), (cid, pos, k)
        table[k] = ker.dim - im.dim
    return table


@pytest.mark.parametrize("beta", [ZERO, HALF])
def test_homology_by_direction_matches_the_per_degree_reference(beta):
    win = Window(4, 2)
    cases = [(cid, pos) for cid in (DERHAM, TCHAIN) for pos in range(5)]
    cases += [(kind(p), p) for kind in (FSQ, FSQ_FUND) for p in (1, 2)]
    for cid, pos in cases:
        assert complex_homology(cid, 4, beta, win, p=pos) == _per_degree_homology(cid, pos, beta, win), \
            (cid, pos)
    # the restricted prediction below the middle: the wedge image of MAX's
    # part in Fund(1), per degree
    spec = ActionSpec.make("H", 4, Lambda(1), beta)
    maxf = build_family(FamilyKind.MAX, 1, spec, win)
    fund = fundamental_subspace(4, 1)
    k0 = spec.special_degree()
    expected = {k: fund.dim if k == k0 else image(wedge, intersect(maxf.fiber(k), fund)).dim
                for k, wedge in zip(win.degrees(), map_stack(pi(1), 4, spec.scaled_shifts(win)).tolist())}
    assert predicted_homology(FSQ_FUND(1), 4, beta, win) == expected


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
