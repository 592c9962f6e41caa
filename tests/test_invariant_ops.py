from fractions import Fraction as F

import pytest

from slmod.exact_linalg import IntSpan, Subspace, _int_row, dot, from_triplets, mat_vec, zero_matrix
from slmod.graded_modules import ActionSpec, Fund, Lambda, Window
from slmod.invariant_ops import (
    _t_span_ops,
    invariance_report,
    invariant_vec,
    lie_closure_holds,
    omega_op,
    orthogonal_extend,
    small_algebra,
    weight_decompose,
)
from slmod.sl_maps import FamilyKind, build_family, symplectic_extend
from slmod.torus_lie import degree_box, rank_one, rank_one_sym, sympl_form

K1 = (1, 0, 0, 0)
ZERO = (0, 0, 0, 0)


def test_invariant_vec_examples():
    assert invariant_vec("H", K1, ZERO, ((0, 0, 1, 0), (0, 1, 0, 0))) == (0, -1, 0, 0)
    assert invariant_vec("H", K1, ZERO, ((1, 0, 0, 0), (0, 1, 0, 0))) == (0, 0, 0, 0)
    assert invariant_vec("W", K1, ZERO, ((1, 0, 0, 0), (0, 1, 0, 0))) == (0, 1, 0, 0)


def test_invariant_vec_pairs_to_zero():
    for r in degree_box(4, 1)[:20]:
        for s in degree_box(4, 1)[:20]:
            t = invariant_vec("H", K1, ZERO, (r, s))
            assert sympl_form((1, 0, 0, 0), t) == 0


def test_omega_op_examples():
    assert omega_op("H", K1, ZERO, ((0, 0, 1, 0), (0, 1, 0, 0))) == from_triplets(
        4, 4, [(1, 3, -1)]
    )
    assert omega_op("H", K1, ZERO, ((1, 0, 0, 0), (0, 1, 0, 0))) == zero_matrix(4, 4)
    zero_pair = ((ZERO, ZERO), (ZERO, ZERO))
    assert omega_op("W", K1, ZERO, zero_pair) == zero_matrix(4, 4)


def test_small_symplectic_algebra():
    frame = symplectic_extend((1, 0, 0, 0))
    alg = small_algebra("H", frame)
    assert alg.span_dim == 3
    for g in alg.generators:
        assert mat_vec(g, (1, 0, 0, 0)) == (0, 0, 0, 0)
        assert mat_vec(g, (0, 0, -1, 0)) == (0, 0, 0, 0)
    assert lie_closure_holds(alg)
    assert alg.cartans[0] == from_triplets(4, 4, [(1, 1, -1), (3, 3, 1)])


def test_small_matrix_algebra():
    basis = orthogonal_extend((1, 1, 0))
    assert all(dot(basis[0], v) == 0 for v in basis[1:])
    alg = small_algebra("W", basis)
    assert alg.span_dim == 4


def test_weight_decompose_examples():
    frame = symplectic_extend((1, 0, 0, 0))
    alg = small_algebra("H", frame)
    spec = ActionSpec.make("H", 4, Lambda(1), ZERO)
    decomposition = weight_decompose(alg, spec, Subspace.full(4))
    got = {weights[0]: sub for weights, sub in decomposition}
    assert got[0] == Subspace(4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    assert got[-1] == Subspace(4, [(0, 1, 0, 0)])
    assert got[1] == Subspace(4, [(0, 0, 0, 1)])
    single = weight_decompose(alg, spec, Subspace(4, [(0, 1, 0, 0)]))
    assert len(single) == 1 and single[0][0] == (-1,)
    assert weight_decompose(alg, spec, Subspace.zero(4)) == []


def test_weight_decompose_rejects_non_invariant():
    frame = symplectic_extend((1, 0, 0, 0))
    alg = small_algebra("H", frame)
    spec = ActionSpec.make("H", 4, Lambda(1), ZERO)
    with pytest.raises(ValueError):
        weight_decompose(alg, spec, Subspace(4, [(0, 1, 0, 1)]))


HALF = (F(1, 2), 0, 0, 0)


def test_invariance_report_families():
    win = Window(4, 1)
    spec = ActionSpec.make("H", 4, Fund(2), HALF)
    for kind in (FamilyKind.MIN, FamilyKind.INT):
        fam = build_family(kind, 2, spec, win)
        assert invariance_report(fam).status == "PASS"


def test_invariance_report_mutation_fails():
    win = Window(4, 1)
    spec = ActionSpec.make("H", 4, Fund(2), HALF)
    fam = build_family(FamilyKind.MIN, 2, spec, win)
    bad = fam.copy_with((0, 0, 0, 0), Subspace(5, [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]))
    assert invariance_report(bad).status == "FAIL"


@pytest.mark.parametrize("kind,beta", [("H", ZERO), ("H", (F(1, 2), F(1, 2), 0, 0)),
                                       ("W", (F(1, 3), F(1, 2), 0, 0))])
def test_t_span_ops_use_the_fraction_t_vectors(kind, beta):
    """The integer T-vectors over gcd(q, content) are the Fraction T-vectors
    with their denominators cleared, so the operators are unchanged."""
    spec = ActionSpec.make(kind, 4, Lambda(1), beta)
    box = degree_box(4)
    for k in [(0, 0, 0, 0), (1, -1, 0, 1), (-2, 1, 1, 0)]:
        span, basis = IntSpan(4), []
        for r in box:
            for s in box:
                t = _int_row(invariant_vec(kind, k, beta, (r, s)))
                if any(t) and span.add(t):
                    basis.append(t)
                if span.dim == 3:
                    break
            if span.dim == 3:
                break
        if kind == "H":
            expected = []
            for i, x in enumerate(basis):
                expected.append(rank_one_sym(x))
                expected += [rank_one_sym([a + b for a, b in zip(x, y)]) for y in basis[i + 1:]]
        else:
            expected = [rank_one(x, y) for x in basis for y in basis]
        assert _t_span_ops(spec, k) == expected
