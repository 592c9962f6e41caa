import random

import numpy as np
import pytest

import slmod.exact_linalg as exact_linalg
from slmod.exact_linalg import (
    _int_matrix, dot, fits_int64, identity, kernel, mat_vec, matrix,
)
from slmod.graded_modules import Lambda, Sym2, fiber_space
from slmod.theorem_registry import _j_samples
from slmod.torus_lie import (
    AlgebraKind,
    bar,
    degree_box,
    j_membership,
    rank_one,
    rank_one_sym,
    rank_one_span_dim,
    sp_dim,
    sympl_form,
)
from reference import action_matrix_int, from_triplets, gl_action_matrix, mat_mul


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


def default_j_samples(kind, n: int) -> tuple:
    """The box sweep the samples were once built by, kept as the reference:
    r over the unit degree box, u over the unit vectors for W and over the
    canonical basis of { u : (u|r) = 0 } for S."""
    kind = AlgebraKind(kind)
    units = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    samples = []
    for r in degree_box(n):
        if kind is AlgebraKind.H:
            samples.append((r, None))
        elif kind is AlgebraKind.W:
            samples.extend((r, u) for u in units)
        else:
            samples.extend((r, u) for u in kernel((r,)).rows)
    return tuple(samples)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_j_samples_are_the_box_sweep(n):
    """The j-membership check reads its samples off the cached generator set:
    the same pairs in the same order as the box sweep, for every kind."""
    for kind in "HWS":
        assert tuple(_j_samples(kind, n)) == default_j_samples(kind, n), kind


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


def _dense_action(space, kind, r, u) -> tuple:
    """``(rows, scale)`` of the sample's rank-one matrix, from the dense
    ``action_matrix_int``: independent of the rank-one table."""
    a = rank_one_sym(r) if kind in ("H", AlgebraKind.H) else rank_one(r, u)
    return action_matrix_int(space, a), space.scale


def reference_j_membership(kind, space, vectors, samples) -> bool:
    """The per-sample loop that ``j_membership`` replaces: one dense action
    per sample, and (A - c scale I)(A V) = 0 tested with that sample's own
    int64 bound."""
    kind = AlgebraKind(kind)
    cols = _int_matrix(vectors)[0]
    max_v = max((abs(x) for v in cols for x in v), default=0)
    for r, u in samples:
        if kind is AlgebraKind.H:
            c = 0
        elif u is None:
            raise ValueError(f"kind {kind} samples need (r, u) pairs")
        else:
            c = dot(u, r)
            if kind is AlgebraKind.S and c != 0:
                raise ValueError("divergence-free samples require (u|r) = 0")
        rows, scale = _dense_action(space, kind, r, u)
        cs = c * scale
        max_a = max((abs(x) for row in rows for x in row), default=0)
        bound = space.dim**2 * (max_a + abs(cs)) * max_a * max_v
        dtype = np.int64 if fits_int64(max(bound, max_a + abs(cs), max_v)) else object
        a = np.array(rows, dtype=dtype)
        av = a @ np.array(cols, dtype=dtype).reshape(len(cols), space.dim).T
        if np.any(a @ av - cs * av):
            return False
    return True


def vector_loop_j_membership(kind, space, vectors, samples) -> bool:
    """The vector-by-vector loop in Python ints: A(Av) against c scale Av."""
    for r, u in samples:
        c = 0 if kind == "H" else dot(u, r)
        rows, scale = _dense_action(space, kind, r, u)
        for v in vectors:
            av = mat_vec(rows, v)
            if mat_vec(rows, av) != tuple(c * scale * x for x in av):
                return False
    return True


@pytest.mark.parametrize("n", [2, 4, 6])
def test_j_membership_matches_the_reference_on_every_exterior_power(n):
    for p in range(n + 1):
        space = fiber_space(n, Lambda(p))
        for kind in "HWS":
            samples = default_j_samples(kind, n)
            got = j_membership(kind, space, identity(space.dim), samples)
            assert got == reference_j_membership(kind, space, identity(space.dim), samples), (p, kind)
            assert got  # every exterior power lies in J


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
                got = j_membership(kind, space, vectors, samples)
                assert got == reference_j_membership(kind, space, vectors, samples), (p, kind, vectors)
                assert got == vector_loop_j_membership(kind, space, vectors, samples), (p, kind, vectors)


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
                    assert got == vector_loop_j_membership(kind, space, vectors, samples), (kind, v)
                    answers.add(got)
    assert answers == {True, False}


def test_j_membership_rejects_divergent_samples():
    with pytest.raises(ValueError):
        j_membership("S", fiber_space(2, Lambda(1)), identity(2), [((1, 0), (1, 0))])


def test_j_membership_finds_one_planted_vector_that_breaks_the_identity():
    """Among the Sym^2 monomials that satisfy the identity (six for W, none
    for H and S) and the zero vector, one planted vector that breaks it turns
    the verdict, in int64 and past it."""
    space = fiber_space(4, Sym2())
    for kind, count in zip("HWS", (0, 6, 0)):
        samples = default_j_samples(kind, 4)
        holding = [v for v in identity(space.dim) if reference_j_membership(kind, space, [v], samples)]
        assert len(holding) == count
        holding.append((0,) * space.dim)
        assert j_membership(kind, space, holding, samples)
        for factor in (1, 2**70):
            planted = [[x * factor for x in v] for v in holding + [(1,) * space.dim]]
            assert not reference_j_membership(kind, space, planted, samples), kind
            assert not j_membership(kind, space, planted, samples), kind


def test_j_membership_past_int64_runs_on_python_ints(monkeypatch):
    """Vectors near 2^62 leave no room for the products in int64: the one
    rule says so for some product of every call, and the verdicts on Python
    ints are the reference's."""
    picks = []

    def spy(bound):
        picks.append(fits_int64(bound))
        return picks[-1]

    def on_python_ints(*args) -> bool:
        picks.clear()
        got = j_membership(*args)
        assert False in picks, args[0]
        return got

    monkeypatch.setattr(exact_linalg, "fits_int64", spy)
    space = fiber_space(4, Lambda(2))
    huge = [[x * (2**62 - 1) for x in v] for v in identity(space.dim)]
    sym2 = fiber_space(2, Sym2())
    for kind in "HWS":
        samples = default_j_samples(kind, 4)
        got = on_python_ints(kind, space, huge, samples)
        assert got == reference_j_membership(kind, space, huge, samples)
        assert on_python_ints(kind, space, huge, samples)
        witness = [(0, 0, 2**62 - 1)]
        samples = default_j_samples(kind, 2)
        assert not on_python_ints(kind, sym2, witness, samples)
        assert not reference_j_membership(kind, sym2, witness, samples)


def test_j_membership_and_its_reference_reject_malformed_samples():
    lam = fiber_space(2, Lambda(1))
    for check in (j_membership, reference_j_membership):
        with pytest.raises(ValueError):  # a Witt sample needs its u
            check("W", lam, identity(2), [((1, 0), None)])
        with pytest.raises(ValueError):  # a divergence-free sample needs (u|r) = 0
            check("S", lam, identity(2), [((1, 0), (1, 0))])


def test_degree_box_counts():
    assert len(degree_box(2, 1)) == 8
    assert len(degree_box(4, 1)) == 80
    assert len(degree_box(2, 2)) == 24
