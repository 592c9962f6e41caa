from fractions import Fraction as F
from math import comb

import pytest

from slmod.complexes import (
    DERHAM,
    FSQ,
    FSQ_FUND,
    TCHAIN,
    compare_with_prediction,
    complex_homology,
)
from slmod.exact_linalg import kernel
from slmod.graded_modules import ActionSpec, Lambda, Window
from slmod.sl_maps import FamilyKind, T, build_family, f, map_stack, pi
from test_exact_linalg import mat_mul

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
