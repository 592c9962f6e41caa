from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slmod.exact_linalg as exact_linalg
from slmod.exact_linalg import (
    Subspace,
    _echelon,
    _int_matrix,
    _primitive,
    annihilator_stack,
    echelon_stack,
    fits_int64,
    identity,
    image,
    int_affine,
    int_matmul,
    intersect,
    kernel,
    kernel_stack,
    matrix,
    packed,
    rank,
    rref,
    subspace_sum,
    subspaces,
)
from reference import IntSpan, _lead, from_triplets, mat_mul, subspace_contains

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
    assert kernel(((0, 0, 0), (0, 0, 0))) == Subspace.full(3)


def test_image_examples():
    assert _pivot_one(image(from_triplets(2, 2, [(0, 1, 1)]))) == ((F(1), F(0)),)
    assert image(((0, 0), (0, 0))).dim == 0
    assert _pivot_one(image([[1, 1], [1, 1]])) == ((F(1), F(1)),)


def test_image_dimension_mismatch():
    # ragged rows, and no rows at all, give the image no ambient dimension
    with pytest.raises(ValueError):
        image([[1, 2], [3]])
    with pytest.raises(ValueError):
        image([])


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


def subspace_pairs(max_cols=5):
    """Pairs of subspaces of one Q^n, each the zero space, the full space or
    the span of a few small integer rows."""

    def one(n):
        rows = st.lists(st.lists(integers, min_size=n, max_size=n), min_size=1, max_size=n)
        return st.one_of(st.just(Subspace.zero(n)), st.just(Subspace.full(n)),
                         rows.map(lambda r: Subspace(n, r)))

    return st.integers(1, max_cols).flatmap(lambda n: st.tuples(one(n), one(n)))


@settings(max_examples=80, deadline=None)
@given(subspace_pairs())
def test_intersect_lies_in_both_with_the_right_dimension(pair):
    """Lying in a and in b with dim a + dim b - dim(a + b) makes it the
    intersection; the dimension alone passes rows that are wrong.  It takes
    one elimination and the checking pass over the rows read off it."""
    a, b = pair
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_linalg, "_echelon", lambda rows: calls.append(1) or _echelon(rows))
        both = intersect(a, b)
    assert len(calls) <= 2
    assert subspace_contains(a, both) and subspace_contains(b, both)
    assert both.dim == a.dim + b.dim - subspace_sum(a, b).dim


@settings(max_examples=80, deadline=None)
@given(small_matrices(5, 5, integers))
def test_kernel_reads_canonical_rows_off_one_elimination(rows):
    """``kernel`` eliminates m once, with its columns reversed; the rows it
    reads off and turns back are already the canonical null space up to
    ``_primitive``, so the checking constructor only scales them."""
    seen = []

    def spy(given_rows):
        seen.append([tuple(r) for r in given_rows])
        return _echelon(seen[-1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact_linalg, "_echelon", spy)
        null = kernel(rows)
    flipped, read_off = seen
    assert flipped == [tuple(r[::-1]) for r in rows]
    assert [_primitive(r) for r in read_off] == list(null.rows)
    assert null.dim + rank(rows) == len(rows[0])
    assert all(not any(sum(x * y for x, y in zip(r, v)) for r in rows) for v in null.rows)


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


def test_int_span_add_neither_changes_nor_keeps_the_callers_list():
    """A vector that needs no reduction and is already primitive is still
    stored as a new list, and a reduced or divided one leaves the caller's
    list as it was."""
    span = IntSpan(3)
    first = [0, 1, 2]
    assert span.add(first) == [0, 1, 2] and first == [0, 1, 2]
    assert span.rows[0] is not first
    first[1] = 7
    assert span.rows == [[0, 1, 2]]
    second = [-4, 2, 4]  # reduced to [-4, 0, 0], stored primitive with a positive lead
    assert span.add(second) == [1, 0, 0] and second == [-4, 2, 4]
    assert all(row is not second for row in span.rows)
    third = [0, 2, 4]
    assert span.add(third) is None and third == [0, 2, 4]
    assert span.rows == [[1, 0, 0], [0, 1, 2]] and span.pivots == [0, 1]
    fourth = (0, 0, -3)  # reduced by nothing, ahead of no pivot
    assert span.add(fourth) == [0, 0, 1] and span.pivots == [0, 1, 2]


def test_from_triplets_accumulates():
    m = from_triplets(2, 2, [(0, 0, 1), (0, 0, 2), (1, 1, -1)])
    assert m == ((3, 0), (0, -1))


# ---------------------------------------------------------------------------
# the stacked elimination: every item is the scalar one, entry for entry


def _assert_wraps_are_the_checked_subspaces(stack):
    """``subspaces`` wraps each item of a reduced stack, with no elimination,
    as exactly the ``Subspace`` that the checking constructor makes of it."""
    n = stack.shape[2]
    wrapped = subspaces(stack)
    assert len(wrapped) == len(stack)
    for sub, item in zip(wrapped, stack.tolist()):
        checked = Subspace(n, item)
        assert sub.ambient_dim == n
        assert sub.rows == checked.rows and sub.pivots == checked.pivots and sub == checked
        assert all(type(x) is int for row in sub.rows for x in row)


def _assert_stack_is_echelon(stack):
    """``echelon_stack`` gives each item ``_echelon``'s rows, then zero rows,
    and ``kernel_stack`` each item's ``kernel``; the reduced stack is returned.
    ``subspaces`` wraps both outputs as the checking constructor would."""
    red = echelon_stack(stack)
    _assert_wraps_are_the_checked_subspaces(red)
    _assert_wraps_are_the_checked_subspaces(kernel_stack(stack))
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


def test_trusted_wraps_of_mixed_zero_and_rank_deficient_items():
    """Items of one stack that are all zero, rank-deficient or of full rank,
    in int64 and on Python ints, tall and wide; kernel rows come interleaved
    with zero rows.  The null rows of the stack times 2^70 are those of the
    stack, small enough for int64 on either input."""
    rng = np.random.default_rng(5)
    for shape in ((4, 6, 3), (4, 3, 6)):
        stack = rng.integers(-3, 4, size=shape)
        stack[0] = 0
        stack[1, 1:] = 2 * stack[1, :1]  # rank one
        for typed in (stack, stack.astype(object) * 2**70):
            red, null = echelon_stack(typed), kernel_stack(typed)
            assert red.dtype == typed.dtype and null.dtype == np.int64
            assert (null == kernel_stack(stack)).all()
            for reduced in (red, null):
                _assert_wraps_are_the_checked_subspaces(reduced)
    assert subspaces(np.zeros((0, 2, 3), dtype=np.int64)) == []
    assert subspaces(np.zeros((2, 0, 3), dtype=np.int64)) == [Subspace.zero(3)] * 2


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


def test_kernel_stack_runs_one_elimination_of_the_input_shape(monkeypatch):
    """One ``echelon_stack`` call, on the stack itself with its columns
    reversed: n columns, not the m + n of an augmented matrix."""
    shapes = []

    def spy(stack):
        shapes.append(stack.shape)
        return echelon_stack(stack)

    monkeypatch.setattr(exact_linalg, "echelon_stack", spy)
    stack = np.random.default_rng(3).integers(-3, 4, size=(5, 3, 7))
    stack[1, 2] = stack[1, 0] - stack[1, 1]
    null = kernel_stack(stack)
    assert shapes == [stack.shape]
    for item, rows in zip(stack.tolist(), null.tolist()):
        assert [tuple(r) for r in rows if any(r)] == list(kernel(item).rows)


@pytest.mark.parametrize("top", [2**31, 2**20])
def test_kernel_stack_read_off_leaves_int64_for_a_large_lcm(top):
    """Three coprime pivots near ``top``: their lcm L is near top^3, which
    int64 wraps at 2^31, and L max|row| passes 2^62 at 2^20 too, where the
    elimination itself stays in int64.  Every item is the scalar kernel, in
    int64 only at 2^20, where the null row's largest entry L is below 2^62."""
    pivots = (top - 1, top - 3, top - 5)
    flipped = np.array([[[pivots[0], 0, 0, 1], [0, pivots[1], 0, 1], [0, 0, pivots[2], 1]],
                        [[1, 2, 0, 0], [0, 0, 0, 0], [0, 0, 3, 1]]], dtype=np.int64)
    stack = flipped[:, :, ::-1]
    assert (echelon_stack(flipped)[0] == flipped[0]).all()
    assert (echelon_stack(flipped).dtype == np.int64) == (top == 2**20)
    null = kernel_stack(stack)
    assert (null.dtype == np.int64) == (top == 2**20)
    for item, rows in zip(stack.tolist(), null.tolist()):
        assert [tuple(r) for r in rows if any(r)] == list(kernel(item).rows)
    _assert_wraps_are_the_checked_subspaces(null)


def test_kernel_stack_returns_int64_when_the_null_rows_fit():
    """Rows (a, b, -a-b) and (c, d, -c-d) with a, b, c, d primes near 2^31:
    the elimination squares them past 2^62 and runs on Python ints, yet the
    null row is (1, 1, 1), so the result comes back in int64."""
    a, b, c, d = 2147483647, 2147483629, 2147483587, 2147483579
    rows = [[a, b, -a - b], [c, d, -c - d]]
    stack = np.array([rows], dtype=np.int64)
    assert echelon_stack(stack).dtype == object
    null = kernel_stack(stack)
    assert null.dtype == np.int64
    assert [tuple(r) for r in null[0].tolist() if any(r)] == list(kernel(rows).rows) == [(1, 1, 1)]


def test_int_matmul_picks_int64_or_python_ints():
    a = np.array([[2**30, 1], [0, -3]], dtype=np.int64)
    small = int_matmul(a, a)
    assert small.dtype == np.int64 and small.tolist() == [list(r) for r in mat_mul(a.tolist(), a.tolist())]
    big = int_matmul(a, a * 2**20)
    assert big.dtype == object
    assert big.tolist() == [list(r) for r in mat_mul(a.tolist(), (a * 2**20).tolist())]


@pytest.mark.parametrize("rows", [1, 0])
def test_int_matmul_with_a_zero_or_empty_operand_keeps_the_other_exact(rows):
    """A zero product bound does not make a huge operand fit int64: an
    all-zero or empty left factor against an entry of 2^70, and the same
    with the factors swapped."""
    zero = np.zeros((rows, 2), dtype=np.int64)
    huge = np.array([[2**70], [1]], dtype=object)
    out = int_matmul(zero, huge)
    assert out.shape == (rows, 1) and out.dtype == object and not out.any()
    out = int_matmul(huge.T, zero.T)
    assert out.shape == (1, rows) and out.dtype == object and not out.any()


def test_int_affine_is_the_scaled_rows_plus_the_product():
    a = np.array([[[1, -2]], [[3, 0]]], dtype=np.int64)
    b = np.array([[0, 1], [1, 0]], dtype=np.int64)
    got = int_affine(np.array([5, -7], dtype=np.int64), a, b)
    assert got.dtype == np.int64 and got.tolist() == [[[3, -9]], [[-21, 3]]]
    # one block shared by every item, and a scalar past int64
    shared = int_affine(np.array([2**70, 0], dtype=object), a[0], b)
    assert shared.dtype == object and shared.tolist() == [[[2**70 - 2, -(2**71) + 1]], [[-2, 1]]]
    assert int_affine(np.zeros(0, dtype=np.int64), a[0], b).shape == (0, 1, 2)


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


@settings(max_examples=40, deadline=None)
@given(integer_stacks(max_items=3, max_rows=5, max_cols=5))
def test_echelon_stack_agrees_with_sympy(sympy, stack):
    for item, out, null in zip(stack.tolist(), echelon_stack(stack).tolist(), kernel_stack(stack).tolist()):
        reduced = sympy.Matrix(item).rref()[0]
        expected = [reduced.row(i) for i in range(len(item)) if any(reduced.row(i))]
        got = Subspace(len(item[0]), out)
        assert _pivot_one(got) == tuple(tuple(r) for r in _from_sympy(expected))
        assert Subspace(len(item[0]), null) == _span(len(item[0]), sympy.Matrix(item).nullspace())



def _with_zero_and_full(stack):
    """The stack with a zero item and an item of full column rank appended."""
    b, m, n = stack.shape
    out = np.zeros((b + 2, max(m, n), n), dtype=np.int64)
    out[:b, :m] = stack
    out[b + 1, :n] = 2 * np.eye(n, dtype=np.int64) + np.triu(np.ones((n, n), dtype=np.int64), 1)
    return out


@settings(max_examples=120, deadline=None)
@given(integer_stacks(), st.sampled_from([1, 2**70]))
def test_annihilator_stack_is_the_scalar_read_off(stack, scale):
    """Zero, full-rank and rank-deficient items, eliminated in int64 or on
    Python ints (the stack times 2^70).  Row f of an item's stacked read-off
    is the scalar ``Subspace.annihilator`` row of free column f divided by
    its gcd, and zero at a pivot column; packed, the stack is as tall as the
    largest scalar annihilator.  ``kernel_stack``, which reads its null
    spaces off the same helper, still gives each item's ``kernel`` entry for
    entry, row i leading at column i."""
    items = _with_zero_and_full(stack)
    red = echelon_stack(items.astype(object) * scale if scale > 1 else items)
    assert red.dtype == (object if scale > 1 else np.int64)
    n = items.shape[2]
    anns = annihilator_stack(red)
    assert anns.dtype == np.int64 and anns.shape == (len(red), n, n)
    scalar = [Subspace(n, item) for item in red.tolist()]
    for rows, sub in zip(anns.tolist(), scalar):
        assert [i for i, row in enumerate(rows) if any(row)] == \
            [c for c in range(n) if c not in sub.pivots]
        assert [row for row in rows if any(row)] == \
            [[x // gcd(*row) for x in row] for row in sub.annihilator()]
    assert packed(anns).shape == (len(red), max(len(sub.annihilator()) for sub in scalar), n)
    for item, rows in zip(items.tolist(), kernel_stack(items).tolist()):
        assert [tuple(row) for row in rows if any(row)] == list(kernel(item).rows)
        assert all(_lead(row) == i for i, row in enumerate(rows) if any(row))


def test_annihilator_stack_divides_a_scalar_row_by_its_gcd():
    """At free column 2 the scalar read-off of the rows (2, 0, 2, 1) and
    (0, 1, 0, 0) is (-2, 0, 2, 0); the stacked one is its primitive form."""
    rows = [[2, 0, 2, 1], [0, 1, 0, 0]]
    assert Subspace(4, rows).annihilator() == ((-2, 0, 2, 0), (-1, 0, 0, 2))
    assert annihilator_stack(np.array([rows], dtype=np.int64)).tolist() == \
        [[[0] * 4, [0] * 4, [-1, 0, 1, 0], [-1, 0, 0, 2]]]
