import random

import pytest

from slmod.exact_linalg import from_triplets, matrix
from slmod.exterior_algebra import ExtVector, SymVector, ext_basis
from slmod.torus_lie import (
    bar,
    default_j_samples,
    degree_box,
    j_membership,
    rank_one_sym,
    rank_one_span_dim,
    sp_dim,
    sympl_form,
)


def test_bar_examples():
    assert bar((1, 0, 0, 0)) == (0, 0, -1, 0)
    assert bar((1, 2, 3, 4)) == (3, 4, -1, -2)
    assert bar(bar((0, 1, 0, 0))) == (0, -1, 0, 0)


def test_bar_odd_length_rejected():
    with pytest.raises(ValueError):
        bar((1, 2, 3))


def test_sympl_form_examples():
    assert sympl_form((1, 0, 0, 0), (0, 0, 1, 0)) == -1
    assert sympl_form((0, 0, 1, 0), (1, 0, 0, 0)) == 1
    for u in [(1, 2, 3, 4), (0, 1, 0, -1)]:
        assert sympl_form(u, u) == 0


def test_bracket_cocycle_identity():
    """[h_r, h_s] = (bar r|s) h_{r+s} satisfies the Jacobi identity."""
    rng = random.Random(2)
    for _ in range(30):
        r, s, t = (tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(3))
        total = 0
        for a, b, c in ((r, s, t), (s, t, r), (t, r, s)):
            ab = tuple(x + y for x, y in zip(a, b))
            total += sympl_form(a, b) * sympl_form(ab, c)
        assert total == 0


def test_rank_one_sym_examples():
    assert rank_one_sym((1, 0, 0, 0)) == from_triplets(4, 4, [(0, 2, -1)])
    assert rank_one_sym((0, 0, 1, 0)) == from_triplets(4, 4, [(2, 0, 1)])
    assert rank_one_sym((0, 0, 0, 0)) == tuple((0,) * 4 for _ in range(4))


@pytest.mark.parametrize("n,expected", [(2, 3), (4, 10), (6, 21)])
def test_rank_one_span_is_the_whole_algebra(n, expected):
    assert sp_dim(n) == expected
    assert rank_one_span_dim(n) == expected


def test_symmetrized_product_kills_exterior_vectors():
    rng = random.Random(9)
    n = 4
    for _ in range(6):
        u = tuple(rng.randint(-2, 2) for _ in range(n))
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        a = rank_one_sym(v)
        mixed = matrix(
            [[u[i] * bar(v)[j] + v[i] * bar(u)[j] for j in range(n)] for i in range(n)]
        )
        for p in (1, 2, 3):
            for key in ext_basis(n, p):
                x = ExtVector.monomial(n, key)
                lhs = x.apply(mixed).apply(a) + x.apply(a).apply(mixed)
                assert lhs.is_zero()


def test_j_membership_examples():
    assert j_membership("H", ExtVector.monomial(4, (1, 3)), default_j_samples("H", 4))
    assert not j_membership("H", SymVector.monomial(2, (2, 2)), [((1, 0), None)])
    assert j_membership("W", ExtVector.monomial(4, (1,)), [((1, 0, 0, 0), (1, 0, 0, 0))])


def test_j_membership_rejects_divergent_samples():
    with pytest.raises(ValueError):
        j_membership("S", ExtVector.monomial(2, (1,)), [((1, 0), (1, 0))])


def test_degree_box_counts():
    assert len(degree_box(2, 1)) == 8
    assert len(degree_box(4, 1)) == 80
    assert len(degree_box(2, 2)) == 24
