import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmod.exact_linalg import Subspace, from_triplets, identity, mat_mul, mat_sub, mat_vec, rank
from slmod.exterior_algebra import (
    ExtVector,
    SymVector,
    ext_basis,
    fundamental_dim,
    fundamental_subspace,
    gl_act,
    gl_action_matrix,
    interior_matrix,
    interior_product,
    sym2_act,
    sym_action_matrix,
    theta,
    theta_matrix,
    wedge,
    wedge_matrix,
)
from slmod.torus_lie import degree_box, rank_one_sym


def mono(n, *idx):
    return ExtVector.monomial(n, tuple(idx))


def test_wedge_examples():
    assert wedge(mono(4, 1), mono(4, 2)) == mono(4, 1, 2)
    assert wedge(mono(4, 2), mono(4, 1)) == ExtVector.monomial(4, (1, 2), -1)
    assert wedge(mono(4, 1) + mono(4, 2), mono(4, 2)) == mono(4, 1, 2)


def test_wedge_degree_overflow():
    with pytest.raises(ValueError):
        wedge(mono(2, 1, 2), mono(2, 1))


def test_gl_act_examples():
    e12 = from_triplets(4, 4, [(0, 1, 1)])
    assert gl_act(e12, mono(4, 2, 3)) == mono(4, 1, 3)
    e11 = from_triplets(4, 4, [(0, 0, 1)])
    assert gl_act(e11, mono(4, 1, 2)) == mono(4, 1, 2)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
def test_identity_acts_by_degree(p):
    x = ExtVector(4, p, {key: F(i + 1) for i, key in enumerate(ext_basis(4, p))})
    assert gl_act(identity(4), x) == x.scale(p)


def test_theta_examples():
    assert theta(mono(4, 1, 2)).is_zero()
    assert theta(mono(4, 1, 3)) == ExtVector(4, 0, {(): -1})
    assert theta(mono(4, 1, 2, 3)) == mono(4, 2)


def test_theta_needs_degree_two():
    with pytest.raises(ValueError):
        theta(mono(4, 1))


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
    x = ExtVector.from_vector(4, a)
    y = ExtVector.from_vector(4, b)
    z = ExtVector.from_vector(4, c)
    assert wedge(x + y, z) == wedge(x, z) + wedge(y, z)
    assert wedge(x, y) == wedge(y, x).scale(-1)
    assert wedge(x, x).is_zero()


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


def test_sym2_examples():
    e12 = from_triplets(2, 2, [(0, 1, 1)])
    s = SymVector.monomial(2, (2, 2))
    assert sym2_act(e12, s) == SymVector.monomial(2, (1, 2), 2)
    assert sym2_act(identity(2), s) == s.scale(2)
    twice = sym2_act(e12, sym2_act(e12, s))
    assert twice == SymVector.monomial(2, (1, 1), 2)


def test_sym_action_matrix_matches_vector_action():
    rng = random.Random(7)
    for n in (2, 3):
        a = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
        m = sym_action_matrix(n, a)
        from slmod.exterior_algebra import sym_basis

        for key in sym_basis(n):
            v = SymVector.monomial(n, key)
            assert tuple(mat_vec(m, v.to_coords())) == sym2_act(a, v).to_coords()
