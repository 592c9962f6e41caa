import random

import pytest

from slmod.exact_linalg import dot, from_triplets, identity, mat_mul, mat_vec, matrix
from slmod.exterior_algebra import gl_action_matrix
from slmod.graded_modules import Lambda, Sym2, fiber_space
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
            act_m, act_a = gl_action_matrix(n, p, mixed), gl_action_matrix(n, p, a)
            lhs = [[x + y for x, y in zip(r1, r2)]
                   for r1, r2 in zip(mat_mul(act_a, act_m), mat_mul(act_m, act_a))]
            assert not any(map(any, lhs))


def test_j_membership_examples():
    lam = fiber_space(4, Lambda(2))
    e13 = [1 if key == 1 else 0 for key in range(lam.dim)]  # e1^e3
    assert j_membership("H", lam, [e13], default_j_samples("H", 4))
    # e2.e2 on Sym^2 Q^2: (e1 bar(e1)^T)^2 sends it to 2 e1.e1
    assert not j_membership("H", fiber_space(2, Sym2()), [(0, 0, 1)], [((1, 0), None)])
    lam1 = fiber_space(4, Lambda(1))
    assert j_membership("W", lam1, identity(4), [((1, 0, 0, 0), (1, 0, 0, 0))])
    # (e1 e2^T)^2 sends e2.e2 to 2 e1.e1, while (u|r) = 0
    assert not j_membership("W", fiber_space(2, Sym2()), [(0, 0, 1)], [((1, 0), (0, 1))])


def reference_j_membership(kind, space, vectors, samples) -> bool:
    """The vector-by-vector loop: A(Av) against c scale Av for each sample."""
    for r, u in samples:
        c = 0 if kind == "H" else dot(u, r)
        rows, scale = space.rank_one_action(r, None if kind == "H" else u)
        for v in vectors:
            av = mat_vec(rows, v)
            if mat_vec(rows, av) != tuple(c * scale * x for x in av):
                return False
    return True


@pytest.mark.parametrize("n", [2, 4])
def test_j_membership_matches_the_reference_loop(n):
    rng = random.Random(f"j-membership-{n}")
    for p in range(n + 1):
        space = fiber_space(n, Lambda(p))
        mixed = [[rng.randint(-2, 2) for _ in range(space.dim)] for _ in range(3)]
        # entries past 2^62: the products run on Python ints
        huge = [[x * 2**70 for x in v] for v in mixed]
        for kind in "HWS":
            samples = default_j_samples(kind, n)
            for vectors in [[v] for v in identity(space.dim)] + [identity(space.dim), mixed, huge]:
                assert j_membership(kind, space, vectors, samples) == \
                    reference_j_membership(kind, space, vectors, samples), (p, kind, vectors)


def test_j_membership_matches_the_reference_on_the_sym2_witnesses():
    sym2 = fiber_space(2, Sym2())
    for kind in "HWS":
        samples = default_j_samples(kind, 2)
        assert not j_membership(kind, sym2, [(0, 0, 1)], samples)
        assert not reference_j_membership(kind, sym2, [(0, 0, 1)], samples)
    # every Lambda^p answer above is "holds"; Sym^2 monomials answer both ways
    answers = set()
    for n in (2, 4):
        space = fiber_space(n, Sym2())
        for kind in "HWS":
            samples = default_j_samples(kind, n)
            for v in identity(space.dim):
                for vectors in ([v], [[x * 2**70 for x in v]]):
                    got = j_membership(kind, space, vectors, samples)
                    assert got == reference_j_membership(kind, space, vectors, samples), (kind, v)
                    answers.add(got)
    assert answers == {True, False}


def test_j_membership_rejects_divergent_samples():
    with pytest.raises(ValueError):
        j_membership("S", fiber_space(2, Lambda(1)), identity(2), [((1, 0), (1, 0))])


def test_degree_box_counts():
    assert len(degree_box(2, 1)) == 8
    assert len(degree_box(4, 1)) == 80
    assert len(degree_box(2, 2)) == 24
