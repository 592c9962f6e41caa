from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slmod.exact_linalg import (
    Subspace,
    _echelon,
    _int_matrix,
    _lead,
    echelon_stack,
    fits_int64,
    from_triplets,
    identity,
    image,
    int_matmul,
    intersect,
    kernel,
    kernel_stack,
    mat_mul,
    matrix,
    rank,
    rref,
    subspace_sum,
    zero_matrix,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
integers = st.integers(min_value=-6, max_value=6)


def small_matrices(max_rows=4, max_cols=4, entries=rationals):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def _pivot_one(s):
    """The canonical rows rescaled so that every pivot is 1, in Fractions."""
    return tuple(tuple(F(x, row[p]) for x in row) for row, p in zip(s.rows, s.pivots))


def test_rref_examples():
    assert _pivot_one(rref([[2, 4], [1, 2]])) == ((F(1), F(2)),)
    assert _pivot_one(rref([[0, 1], [1, 0]])) == ((F(1), F(0)), (F(0), F(1)))
    assert _pivot_one(rref([[1, 2], [3, 4]])) == ((F(1), F(0)), (F(0), F(1)))


def test_kernel_examples():
    assert _pivot_one(kernel([[1, 2]])) == ((F(1), F(-1, 2)),)
    assert kernel(identity(3)).dim == 0
    assert kernel(zero_matrix(2, 3)) == Subspace.full(3)


def test_image_examples():
    assert _pivot_one(image(from_triplets(2, 2, [(0, 1, 1)]), Subspace.full(2))) == ((F(1), F(0)),)
    assert image(zero_matrix(2, 2), Subspace.full(2)).dim == 0
    assert _pivot_one(image([[1, 1], [1, 1]], Subspace.full(2))) == ((F(1), F(1)),)


def test_image_dimension_mismatch():
    with pytest.raises(ValueError):
        image([[1, 2]], Subspace.full(3))


def test_intersect_sum_member_examples():
    e = identity(3)
    a = Subspace(3, [e[0], e[1]])
    b = Subspace(3, [e[1], e[2]])
    assert _pivot_one(intersect(a, b)) == ((F(0), F(1), F(0)),)
    assert subspace_sum(Subspace(2, [(1, 0)]), Subspace(2, [(0, 1)])) == Subspace.full(2)
    assert Subspace(2, [(1, 1), (0, 1)]).contains_vector((1, 0))
    assert not Subspace(3, [(1, 0, 0)]).contains_vector((0, 1, 0))


def test_subspace_canonical_contract():
    s = Subspace(3, [(2, 4, 6), (1, 2, 3), (0, 0, 5)])
    # pivots strictly increasing, pivot entries 1, zeros above pivots
    basis = _pivot_one(s)
    pivots = s.pivots
    assert list(pivots) == sorted(pivots)
    for i, (row, p) in enumerate(zip(basis, pivots)):
        assert row[p] == 1
        for j, other in enumerate(basis):
            if j != i:
                assert other[p] == 0
    # same span, different presentation -> identical object
    t = Subspace(3, [(1, 2, 3), (0, 0, 1)])
    assert s == t and hash(s) == hash(t)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rref_idempotent(rows):
    s = rref(rows)
    assert rref(_pivot_one(s) if s.dim else [[0] * s.ambient_dim]) == s or s.dim == 0


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_nullity(rows):
    m = matrix(_int_matrix(rows)[0])
    assert rank(m) + kernel(m).dim == len(m[0])


@settings(max_examples=40, deadline=None)
@given(small_matrices(3, 4), small_matrices(3, 4))
def test_sum_intersect_dimension_formula(rows_a, rows_b):
    cols = max(len(rows_a[0]), len(rows_b[0]))
    a = Subspace(cols, _int_matrix([list(r) + [0] * (cols - len(r)) for r in rows_a])[0])
    b = Subspace(cols, _int_matrix([list(r) + [0] * (cols - len(r)) for r in rows_b])[0])
    assert subspace_sum(a, b).dim + intersect(a, b).dim == a.dim + b.dim


@settings(max_examples=40, deadline=None)
@given(small_matrices(3, 4))
def test_membership_matches_span(rows):
    s = rref(rows)
    for row in _int_matrix(rows)[0]:
        assert s.contains_vector(row)


def test_the_integer_core_refuses_fractions():
    # a Fraction never reaches the elimination silently: math.gcd refuses it
    half = [[F(1, 2), 1], [0, F(3)]]
    for call in (lambda: Subspace(2, half), lambda: kernel(half), lambda: image(half),
                 lambda: rank(half)):
        with pytest.raises(TypeError):
            call()
    # the boundary clears one common denominator, and rref goes through it
    assert _int_matrix(half) == ([[1, 2], [0, 6]], 2)
    assert rref(half) == Subspace.full(2)


def test_from_triplets_accumulates():
    m = from_triplets(2, 2, [(0, 0, 1), (0, 0, 2), (1, 1, -1)])
    assert m == ((3, 0), (0, -1))


# ---------------------------------------------------------------------------
# the stacked elimination: every item is the scalar one, entry for entry


def _assert_stack_is_echelon(stack):
    """``echelon_stack`` gives each item ``_echelon``'s rows, then zero rows,
    and ``kernel_stack`` each item's ``kernel``; the reduced stack is returned."""
    red = echelon_stack(stack)
    n = stack.shape[2]
    assert red.shape == (len(stack), max((len(_echelon(m)[0]) for m in stack.tolist()), default=0), n)
    for item, out, null in zip(stack.tolist(), red.tolist(), kernel_stack(stack).tolist()):
        rows, pivots = _echelon(item)
        assert [tuple(r) for r in out[: len(rows)]] == rows
        assert [_lead(r) for r in out[: len(rows)]] == pivots
        assert not any(map(any, out[len(rows):]))
        expected = kernel(item) if item else Subspace.full(n)
        assert [tuple(r) for r in null if any(r)] == list(expected.rows)
    return red


def integer_stacks(max_items=4, max_rows=6, max_cols=6):
    """Stacks of small integer matrices, many of them rank-deficient; some
    items repeat a row or its multiple."""
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 5])

    def build(shape):
        nitems, m, n = shape
        matrices = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)
        return st.lists(matrices, min_size=nitems, max_size=nitems).flatmap(
            lambda items: st.lists(st.integers(-2, 2), min_size=nitems, max_size=nitems).map(
                lambda factors: np.array(
                    [rows[:-1] + [[f * x for x in rows[0]]] if m > 1 else rows
                     for rows, f in zip(items, factors)], dtype=np.int64).reshape(nitems, m, n)))

    return st.tuples(st.integers(0, max_items), st.integers(1, max_rows),
                     st.integers(1, max_cols)).flatmap(build)


@settings(max_examples=120, deadline=None)
@given(integer_stacks())
def test_echelon_stack_is_the_scalar_echelon(stack):
    _assert_stack_is_echelon(stack)
    assert _assert_stack_is_echelon(stack.astype(object)).dtype == object


@pytest.mark.parametrize("shape", [(3, 4, 5), (1, 1, 1), (0, 3, 4), (2, 0, 3), (2, 3, 0)])
def test_echelon_stack_of_zero_and_empty_stacks(shape):
    zero = np.zeros(shape, dtype=np.int64)
    assert _assert_stack_is_echelon(zero).shape == (shape[0], 0, shape[2])
    assert all((null == np.eye(shape[2], dtype=np.int64)).all() for null in kernel_stack(zero))


def test_echelon_stack_shapes_duplicates_and_one_item():
    rng = np.random.default_rng(7)
    tall = rng.integers(-4, 5, size=(5, 7, 2))
    wide = rng.integers(-4, 5, size=(5, 2, 7))
    # rows that repeat, are multiples of, or add up other rows: rank 2 of 4
    base = rng.integers(-3, 4, size=(6, 2, 5))
    deficient = np.concatenate([base, 3 * base[:, :1], base[:, :1] - 2 * base[:, 1:]], axis=1)
    for stack in (tall, wide, deficient, tall[:1], wide[:1]):
        _assert_stack_is_echelon(stack.astype(np.int64))
    assert all(len(_echelon(item)[0]) == 2 for item in deficient.tolist())


def test_echelon_stack_leaves_int64_before_it_overflows():
    """Entries near 2^20 fit the first step in int64; cross-multiplying
    squares them, so a later step passes 2^62 and must run on Python ints.
    The two free columns keep ratios of 7 x 7 minors, far past 2^62."""
    rng = np.random.default_rng(11)
    stack = rng.integers(-2**20, 2**20, size=(3, 7, 9))
    assert stack.dtype == np.int64 and fits_int64(2 * int(np.abs(stack).max()) ** 2)
    red = _assert_stack_is_echelon(stack)
    assert red.dtype == object
    assert max(abs(x) for x in red.ravel()) >= 2**62


def test_int_matmul_picks_int64_or_python_ints():
    a = np.array([[2**30, 1], [0, -3]], dtype=np.int64)
    small = int_matmul(a, a)
    assert small.dtype == np.int64 and small.tolist() == [list(r) for r in mat_mul(a.tolist(), a.tolist())]
    big = int_matmul(a, a * 2**20)
    assert big.dtype == object
    assert big.tolist() == [list(r) for r in mat_mul(a.tolist(), (a * 2**20).tolist())]


# ---------------------------------------------------------------------------
# an independent implementation: sympy (optional, never a dependency)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _from_sympy(vectors) -> list:
    return [[F(int(x.p), int(x.q)) for x in v] for v in vectors]


def _span(ambient, vectors) -> Subspace:
    return rref(_from_sympy(vectors)) if vectors else Subspace.zero(ambient)


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_matrices(5, 5, integers), small_matrices(5, 5)))
def test_exact_core_agrees_with_sympy(sympy, rows):
    m = matrix(rows)
    nrows, ncols = len(m), len(m[0])
    sm = sympy.Matrix(m)
    # the integer core sees the rationals through the boundary helper: one
    # common denominator changes no row space, null space or column span
    ints, _ = _int_matrix(m)
    assert rank(ints) == sm.rank()
    reduced = sm.rref()[0]
    nonzero = [reduced.row(i) for i in range(nrows) if any(reduced.row(i))]
    assert _pivot_one(rref(m)) == tuple(tuple(r) for r in _from_sympy(nonzero))
    assert kernel(ints) == _span(ncols, sm.nullspace())
    columns = _span(nrows, sm.columnspace())
    assert image(ints) == columns
    assert image(ints, Subspace.full(ncols)) == columns


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_matrices(5, 5, integers), small_matrices(5, 5)))
def test_annihilator_agrees_with_sympy(sympy, rows):
    s = rref(rows)
    ann = s.annihilator()
    assert all(type(x) is int for row in ann for x in row)
    assert len(ann) == s.ambient_dim - s.dim
    stored = sympy.Matrix(list(s.rows) or [[0] * s.ambient_dim])
    assert Subspace(s.ambient_dim, ann) == _span(s.ambient_dim, stored.nullspace())


def test_annihilator_of_the_zero_and_the_full_space():
    assert Subspace.zero(3).annihilator() == identity(3)
    assert Subspace.full(3).annihilator() == ()
    s = Subspace(3, [(2, 0, 1)])
    assert s.annihilator() == ((0, 1, 0), (-1, 0, 2))
    assert s.annihilator() is s.annihilator()  # computed once, kept on the subspace


@settings(max_examples=40, deadline=None)
@given(integer_stacks(max_items=3, max_rows=5, max_cols=5))
def test_echelon_stack_agrees_with_sympy(sympy, stack):
    for item, out, null in zip(stack.tolist(), echelon_stack(stack).tolist(), kernel_stack(stack).tolist()):
        reduced = sympy.Matrix(item).rref()[0]
        expected = [reduced.row(i) for i in range(len(item)) if any(reduced.row(i))]
        got = Subspace(len(item[0]), out)
        assert _pivot_one(got) == tuple(tuple(r) for r in _from_sympy(expected))
        assert Subspace(len(item[0]), null) == _span(len(item[0]), sympy.Matrix(item).nullspace())
