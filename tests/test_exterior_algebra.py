import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmod.exact_linalg import Subspace, identity, mat_vec, rank
from slmod.exterior_algebra import (
    ExtVector,
    ext_basis,
    fundamental_dim,
    fundamental_subspace,
    interior_product,
    theta_matrix,
    wedge,
)
from slmod.torus_lie import degree_box, rank_one_sym
from reference import check_unit_tables, from_triplets, gl_action_matrix, interior_matrix, mat_mul, mat_sub, sym_action_matrix, wedge_matrix


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_unit_tables_are_the_monomial_maps(n):
    check_unit_tables(n)


def mono(n, *idx):
    return ExtVector.monomial(n, tuple(idx))


def test_wedge_examples():
    assert wedge(mono(4, 1), mono(4, 2)) == mono(4, 1, 2)
    assert wedge(mono(4, 2), mono(4, 1)) == ExtVector(4, 2, {(1, 2): -1})
    assert wedge(ExtVector.from_vector(4, (1, 1, 0, 0)), mono(4, 2)) == mono(4, 1, 2)


def test_wedge_degree_overflow():
    with pytest.raises(ValueError):
        wedge(mono(2, 1, 2), mono(2, 1))


def test_gl_action_matrix_columns():
    # Lambda^2 Q^4 in the order 12, 13, 14, 23, 24, 34
    e12 = from_triplets(4, 4, [(0, 1, 1)])  # e2 -> e1
    assert gl_action_matrix(4, 2, e12) == from_triplets(6, 6, [(1, 3, 1), (2, 4, 1)])
    e31 = from_triplets(4, 4, [(2, 0, 1)])  # e1 -> e3: e1^e2 -> e3^e2 = -e2^e3
    assert gl_action_matrix(4, 2, e31) == from_triplets(6, 6, [(3, 0, -1), (5, 2, 1)])
    # Lambda^3 Q^4 in the order 123, 124, 134, 234: e1^e2^e4 -> -e2^e3^e4
    assert gl_action_matrix(4, 3, e31) == from_triplets(4, 4, [(3, 1, -1)])


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_identity_acts_by_degree(p):
    dim = len(ext_basis(4, p))
    assert gl_action_matrix(4, p, identity(4)) == tuple(
        tuple(p if i == j else 0 for j in range(dim)) for i in range(dim))


def test_theta_matrix_columns():
    # e1^e3 -> -1, e2^e4 -> -1, e1^e2 -> 0
    assert theta_matrix(4, 2) == ((0, -1, 0, 0, -1, 0),)
    # e1^e2^e3 -> e2, e1^e2^e4 -> -e1, e1^e3^e4 -> e4, e2^e3^e4 -> -e3
    assert theta_matrix(4, 3) == ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, 0))


def test_theta_needs_degree_two():
    with pytest.raises(ValueError):
        theta_matrix(4, 1)


def test_fundamental_subspace_examples():
    assert fundamental_subspace(4, 1) == Subspace.full(4)
    f2 = fundamental_subspace(4, 2)
    assert f2.dim == 5
    expected = Subspace(
        6,
        [
            (1, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 0, 1),
            (0, 1, 0, 0, -1, 0),
        ],
    )
    assert f2 == expected


@pytest.mark.parametrize("n", [2, 4, 6])
def test_fundamental_dimension_formula(n):
    for p in range(1, n // 2 + 1):
        assert fundamental_dim(n, p) == comb(n, p) - (comb(n, p - 2) if p >= 2 else 0)


def test_contraction_above_middle_has_full_rank():
    assert rank(theta_matrix(4, 3)) == 4


def test_theta_is_equivariant_for_the_symplectic_generators():
    # the r bar(r)^T over the degree box span sp_4 (the L3-span check)
    for g in map(rank_one_sym, degree_box(4)):
        for p in (2, 3):
            lhs = mat_mul(theta_matrix(4, p), gl_action_matrix(4, p, g))
            rhs = mat_mul(gl_action_matrix(4, p - 2, g), theta_matrix(4, p))
            assert lhs == rhs


def test_gl_act_respects_brackets():
    rng = random.Random(11)
    for p in (1, 2, 3):
        a = tuple(tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(4))
        b = tuple(tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(4))
        comm = mat_sub(mat_mul(a, b), mat_mul(b, a))
        lhs = gl_action_matrix(4, p, comm)
        rhs = mat_sub(
            mat_mul(gl_action_matrix(4, p, a), gl_action_matrix(4, p, b)),
            mat_mul(gl_action_matrix(4, p, b), gl_action_matrix(4, p, a)),
        )
        assert lhs == rhs


coeffs = st.lists(st.integers(-3, 3), min_size=4, max_size=4)


@settings(max_examples=40, deadline=None)
@given(coeffs, coeffs, coeffs)
def test_wedge_bilinear_and_alternating(a, b, c):
    def w(u, v):
        return wedge(ExtVector.from_vector(4, u), ExtVector.from_vector(4, v)).to_coords()

    ab = [x + y for x, y in zip(a, b)]
    assert w(ab, c) == tuple(x + y for x, y in zip(w(a, c), w(b, c)))
    assert w(a, b) == tuple(-x for x in w(b, a))
    assert not any(w(a, a))


def test_matrix_builders_match_vector_operations():
    rng = random.Random(5)
    n = 4
    v = tuple(rng.randint(-2, 2) for _ in range(n))
    for p in (1, 2):
        wm = wedge_matrix(n, p, v)
        im = interior_matrix(n, p, v)
        for key in ext_basis(n, p):
            x = ExtVector.monomial(n, key)
            assert tuple(mat_vec(wm, x.to_coords())) == wedge(
                ExtVector.from_vector(n, v), x
            ).to_coords()
            assert tuple(mat_vec(im, x.to_coords())) == interior_product(v, x).to_coords()


def test_sym_action_matrix_columns():
    # Sym^2 Q^2 in the order e1.e1, e1.e2, e2.e2
    e12 = from_triplets(2, 2, [(0, 1, 1)])  # e2 -> e1: e2.e2 -> 2 e1.e2
    assert sym_action_matrix(2, e12) == ((0, 1, 0), (0, 0, 2), (0, 0, 0))
    e21 = from_triplets(2, 2, [(1, 0, 1)])  # e1 -> e2: e1.e1 -> 2 e1.e2
    assert sym_action_matrix(2, e21) == ((0, 0, 0), (2, 0, 0), (0, 1, 0))
    assert sym_action_matrix(2, identity(2)) == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    # e1 -> -e1 only: e1.e2 -> -e1.e2 on Sym^2 Q^3 (order 11 12 13 22 23 33)
    neg = from_triplets(3, 3, [(0, 0, -1)])
    assert sym_action_matrix(3, neg) == from_triplets(6, 6, [(0, 0, -2), (1, 1, -1), (2, 2, -1)])


def test_sym_action_matrix_respects_brackets():
    rng = random.Random(7)
    for n in (2, 3):
        for _ in range(4):
            a = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
            b = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
            comm = mat_sub(mat_mul(a, b), mat_mul(b, a))
            sa, sb = sym_action_matrix(n, a), sym_action_matrix(n, b)
            assert sym_action_matrix(n, comm) == mat_sub(mat_mul(sa, sb), mat_mul(sb, sa))
