"""Exact linear algebra over Q with canonical row-echelon subspaces.

A ``Subspace`` of Q^n is stored in a canonical form, so two subspaces are
equal exactly when their stored bases are identical entry for entry.

The core takes Python-int rows only: ``Subspace``, ``kernel``, ``image``,
``rank`` and ``contains_vector`` never scan for rationals, and a ``Fraction``
handed to them raises ``TypeError`` from ``math.gcd`` in the elimination
rather than giving a wrong answer.  Every row is kept as a primitive integer
vector (coprime entries, positive leading entry) and elimination is
fraction-free: each row update is a cross-multiplication followed by a gcd
reduction.  Rationals have their denominators cleared by ``_int_matrix``,
called only where a ``Fraction`` can enter (``rref`` and a few callers
outside this module).

``echelon_stack`` runs the same elimination on a numpy stack of matrices
at once; canonical form is unique, so each item's rows are ``_echelon``'s.

Every null space is read off one elimination by the rule of
``Subspace.annihilator``, stacked in ``annihilator_stack``: ``kernel`` and
``kernel_stack`` eliminate the matrix with its columns reversed and turn the
read-off rows back, and ``intersect`` is the kernel of both annihilators' rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

import numpy as np

Rational = Fraction | int


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def format_vector(v) -> str:
    """Rationals as comma-separated "p/q" literals, as every report prints them."""
    return ",".join(str(frac(x)) for x in v)


# ---------------------------------------------------------------------------
# vectors


def vec(entries: Iterable[Rational]) -> tuple:
    return tuple(frac(x) for x in entries)


def fits_int64(bound: int) -> bool:
    """Whether int64 arithmetic is exact for a product whose every entry and
    partial sum is at most ``bound`` in absolute value: the one rule by which
    every product and elimination picks int64 or Python ints (dtype object)."""
    return bound < 2**62


def max_abs(a: np.ndarray) -> int:
    if not a.size:
        return 0
    top = abs(a)  # on int64 it wraps -2^63 to itself, which reads right as uint64
    return int((top.view(np.uint64) if top.dtype == np.int64 else top).max())


def int_matmul(a: np.ndarray, b: np.ndarray, tops: tuple | None = None) -> np.ndarray:
    """``a @ b`` for integer arrays: int64 when ``fits_int64`` bounds every
    entry and partial sum of the product and every entry of each operand,
    Python ints (dtype object) past it, so an int64 output is below 2^62.
    ``tops`` is (max|a|, max|b|), or bounds on them, when the caller already
    has them; otherwise both are read here."""
    top_a, top_b = tops or (max_abs(a), max_abs(b))
    dtype = np.int64 if fits_int64(max(a.shape[-1] * top_a * top_b, top_a, top_b)) else object
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)


def int_affine(cs: np.ndarray, a: np.ndarray, b: np.ndarray, tops: tuple | None = None) -> np.ndarray:
    """``cs[e] * a_e + a_e @ b_e`` for an integer array cs and integer stacks
    a and b, either of them possibly one block that every e shares: the
    images of the rows of a_e under c_e * Id + b_e^T.  The rule of
    ``int_matmul`` with the scaled term in the bound: int64 when
    max|c| max|a| + n max|a| max|b| and every entry fit, Python ints past it.
    ``tops`` is (max|c|, max|a|, max|b|), or bounds on them, as in
    ``int_matmul``."""
    top_c, top_a, top_b = tops or (max_abs(cs), max_abs(a), max_abs(b))
    bound = max(top_c * top_a + a.shape[-1] * top_a * top_b, top_c, top_a, top_b)
    dtype = np.int64 if fits_int64(bound) else object
    a = a.astype(dtype, copy=False)
    return cs.astype(dtype, copy=False).reshape(len(cs), 1, 1) * a + a @ b.astype(dtype, copy=False)


def int_blocks(row_sets: list, dim: int) -> np.ndarray:
    """Integer row sets (lists of rows or 2-D arrays) stacked into one array,
    each padded with zero rows; in int64 when every entry is one, else in
    Python ints.  Every product reads its operands' magnitudes itself, so
    none is bounded here."""
    out = np.zeros((len(row_sets), max(map(len, row_sets), default=0), dim), dtype=np.int64)
    for b, rows in enumerate(row_sets):
        if len(rows):
            out = put_ints(out, (b, slice(None, len(rows))), rows)
    return out


def put_ints(array: np.ndarray, at, values) -> np.ndarray:
    """``array[at] = values`` for an integer array, in a copy on Python ints
    when a value is past int64; returns the array written."""
    try:
        array[at] = values
    except OverflowError:  # an entry past int64
        array = array.astype(object)
        array[at] = values
    return array


def dot(u: Sequence[Rational], v: Sequence[Rational]):
    if len(u) != len(v):
        raise ValueError(f"dot: length mismatch {len(u)} != {len(v)}")
    return sum(a * b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# matrices (tuple of row tuples; rational entries)


def matrix(rows: Iterable[Iterable[Rational]]) -> tuple:
    out = tuple(tuple(r) for r in rows)
    if out:
        width = len(out[0])
        if any(len(r) != width for r in out):
            raise ValueError("matrix rows must have equal length")
    return out


def identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m) -> tuple:
    if not m:
        return ()
    return tuple(zip(*m))


# ---------------------------------------------------------------------------
# primitive integer row helpers


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    """Divide by the gcd and make the leading nonzero entry positive."""
    g = gcd(*row)
    if g == 0:
        return tuple(row)
    if next(filter(None, row)) < 0:
        g = -g
    return tuple(row) if g == 1 else tuple(x // g for x in row)


def _int_matrix(m) -> tuple[list[list[int]], int]:
    """Integer rows equal to ``denom`` times a rational matrix, and ``denom``,
    the lcm of its denominators (one scalar for the whole matrix)."""
    denom = 1
    for row in m:
        for x in row:
            if isinstance(x, Fraction):
                denom = lcm(denom, x.denominator)
    if denom == 1:
        return [[int(x) for x in row] for row in m], 1
    return [[int(x * denom) for x in row] for row in m], denom


def _reduce_row(vec_: list[int], rows, pivots) -> list[int]:
    """Eliminate ``vec_`` against echelon ``rows`` (sorted by pivot column)."""
    for row, p in zip(rows, pivots):
        b = vec_[p]
        if b:
            a = row[p]
            g = gcd(a, b)
            ma = a // g
            mb = b // g
            vec_ = [ma * x - mb * y for x, y in zip(vec_, row)]
    return vec_


def _echelon(rows: Iterable[Sequence[int]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Full Gauss-Jordan over Z; returns primitive canonical rows and pivots.

    A row is made primitive (positive lead) when it is chosen as pivot row
    and after every update, so the result needs no final normalization."""
    work = [r for r in rows if any(r)]
    pivots: list[int] = []
    if not work:
        return [], []
    ncols = len(work[0])
    nrows = len(work)
    r = 0
    for col in range(ncols):
        sel = None
        for i in range(r, nrows):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        prow = work[r] = _primitive(work[r])
        a = prow[col]
        for i in range(nrows):
            if i != r and work[i][col]:
                b = work[i][col]
                g = gcd(a, b)
                ma = a // g
                mb = b // g
                work[i] = _primitive([ma * x - mb * y for x, y in zip(work[i], prow)])
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return work[:r], pivots


def echelon_stack(stack: np.ndarray) -> np.ndarray:
    """``_echelon`` of every matrix of a (B, m, n) integer stack at once.

    Item b's rows are ``_echelon(stack[b])[0]``, then zero rows up to the
    largest rank in the stack.  Per column, each item pivots on its first
    nonzero row at or below its rank, made primitive with a positive lead,
    and cross-multiplies against it its other rows that are nonzero in the
    column, each then divided by its gcd; a row zero there would come out
    as it went in, up to that gcd, which its own pivot step or a later
    update divides out.  A step makes no entry past 2 M^2, M the largest
    entry of the rows it reads: it runs in int64 while ``fits_int64`` holds
    for that, on Python ints after.
    """
    work = stack.copy()
    rank = np.zeros(len(work), dtype=np.intp)
    below = np.arange(work.shape[1])
    for col in range(work.shape[2]):
        cand = (work[:, :, col] != 0) & (below >= rank[:, None])
        items = np.flatnonzero(cand.any(axis=1))
        if not items.size:
            continue
        top = rank[items]
        sel = cand[items].argmax(axis=1)
        pivot = work[items, sel]
        work[items, sel] = work[items, top]
        work[items, top] = 0
        it, row = np.nonzero(work[items, :, col])  # the other rows the column reaches
        at, rows = items[it], work[items[it], row]
        if work.dtype != object and not fits_int64(2 * max(max_abs(pivot), max_abs(rows)) ** 2):
            work, pivot, rows = work.astype(object), pivot.astype(object), rows.astype(object)
        pivot //= (np.gcd.reduce(pivot, axis=1, initial=0) * np.sign(pivot[:, col]))[:, None]
        if it.size:
            a, b = pivot[it, col], rows[:, col]
            g = np.gcd(a, b)
            rows = rows * (a // g)[:, None] - (b // g)[:, None] * pivot[it]
            norm = np.gcd.reduce(rows, axis=1, initial=0)
            norm[norm == 0] = 1
            work[at, row] = rows // norm[:, None]
        work[items, top] = pivot
        rank[items] += 1
    return work[:, : rank.max(initial=0)]


def annihilator_stack(red: np.ndarray) -> np.ndarray:
    """The annihilators of a (B, h, n) stack of canonical rows (an
    ``echelon_stack`` output, zero rows anywhere) as one (B, n, n) stack:
    ``Subspace.annihilator``'s read-off for every item at once, row f the
    one at free column f divided by its gcd, zero at a pivot column.

    E holds each item's rows scaled to L, the lcm of its pivots, at their
    pivot indices; the free columns of L I - E, divided by their gcd, are the
    annihilator rows.  L is taken on Python ints (int64 would wrap it), and
    the read-off runs in int64 while ``fits_int64`` bounds L max|row|.  The
    rows come back in int64 whenever they fit, however large the read-off ran.
    """
    n = red.shape[2]
    lead = leads(red)
    items, rows = np.nonzero(lead < n)
    cols = lead[items, rows]
    pivots = np.ones(red.shape[:2], dtype=object)
    pivots[items, rows] = red[items, rows, cols]
    scale = np.lcm.reduce(pivots, axis=1, initial=1)
    small = red.dtype != object and fits_int64(max(scale, default=1) * max_abs(red))
    dtype = np.int64 if small else object
    out = np.zeros((len(red), n, n), dtype=dtype)
    out[:, np.arange(n), np.arange(n)] = scale.astype(dtype)[:, None]
    factor = (scale[items] // pivots[items, rows]).astype(dtype)
    out[items, cols] -= red[items, rows].astype(dtype) * factor[:, None]
    anns = out.transpose(0, 2, 1)
    norm = np.gcd.reduce(anns, axis=2, initial=0)
    norm[norm == 0] = 1
    anns //= norm[:, :, None]
    return anns.astype(np.int64) if dtype is object and fits_int64(max_abs(anns)) else anns


def kernel_stack(stack: np.ndarray) -> np.ndarray:
    """The null spaces { v : M v = 0 } of a (B, m, n) integer stack as one
    (B, n, n) stack of canonical rows, row i the one leading at column i or
    zero: the ``annihilator_stack`` of the stack eliminated once with its
    columns reversed, turned back, as ``kernel`` does for one matrix."""
    return annihilator_stack(echelon_stack(stack[:, :, ::-1]))[:, ::-1, ::-1]


def packed(stack: np.ndarray) -> np.ndarray:
    """Each item's nonzero rows first, in their order, then its zero rows,
    cut to the largest number of nonzero rows in the stack."""
    live = (stack != 0).any(axis=2)
    order = np.argsort(~live, axis=1, kind="stable")[:, : live.sum(axis=1).max(initial=0)]
    return stack[np.arange(len(stack))[:, None], order]


def ranks(stack: np.ndarray) -> np.ndarray:
    """The number of nonzero rows of every item of a (B, h, n) stack: each
    item's rank when the stack is canonical, an ``echelon_stack`` output."""
    return (stack != 0).any(axis=2).sum(axis=1)


def leads(stack: np.ndarray) -> np.ndarray:
    """The leading column of every row of a (B, h, n) stack, n on a zero row."""
    return (np.cumsum(stack != 0, axis=2) == 0).sum(axis=2)


def subspaces(stack: np.ndarray) -> list:
    """One ``Subspace`` per item of an ``echelon_stack`` or ``kernel_stack``
    output, its canonical rows wrapped as they are, with no second elimination."""
    return [Subspace._trusted(stack.shape[2], item, lead)
            for item, lead in zip(stack.tolist(), leads(stack).tolist())]


class Subspace:
    """A subspace of Q^n in canonical reduced-row-echelon form, spanned by
    the given Python-int rows.

    The stored rows are primitive integer vectors, proportional to the unique
    pivot-1 reduced echelon basis.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, rows: Iterable[Sequence[int]] = ()):
        canon, piv = _echelon(rows)
        for r in canon:
            if len(r) != ambient_dim:
                raise ValueError("subspace row length differs from ambient dimension")
        self.ambient_dim = ambient_dim
        self.rows = tuple(canon)
        self.pivots = tuple(piv)

    @classmethod
    def _trusted(cls, ambient_dim: int, rows: list, leads: list) -> "Subspace":
        """Canonical rows as they are, zero rows (lead ``ambient_dim``) dropped."""
        self = cls.__new__(cls)
        self.ambient_dim = ambient_dim
        self.rows = tuple(tuple(row) for row, lead in zip(rows, leads) if lead < ambient_dim)
        self.pivots = tuple(lead for lead in leads if lead < ambient_dim)
        return self

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, identity(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def annihilator(self) -> tuple:
        """Integer rows spanning { v : row . v = 0 for every stored row }.

        One row per free column, read off the canonical rows: v[free] = L and
        v[p] = -row[free] * L / row[p] at each pivot p, L the lcm of the
        pivots of the rows that meet column ``free``.  The zero space gives
        the identity and the full space no rows.  ``annihilator_stack`` reads
        off a whole stack of row sets by the same rule.
        """
        pivot_set = set(self.pivots)
        out = []
        for free in range(self.ambient_dim):
            if free in pivot_set:
                continue
            hits = [(row, p) for row, p in zip(self.rows, self.pivots) if row[free]]
            big = lcm(*(row[p] for row, p in hits))
            v = [0] * self.ambient_dim
            v[free] = big
            for row, p in hits:
                v[p] = -row[free] * (big // row[p])
            out.append(tuple(v))
        return tuple(out)

    def contains_vector(self, vector: Sequence[int]) -> bool:
        if len(vector) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        return not any(_reduce_row(vector, self.rows, self.pivots))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, rows={self.rows})"


# ---------------------------------------------------------------------------
# operations


def rref(m) -> Subspace:
    """Canonical row space of a rational matrix."""
    m = matrix(m)
    if not m:
        raise ValueError("rref of an empty matrix has no ambient dimension")
    return Subspace(len(m[0]), _int_matrix(m)[0])


def rank(m) -> int:
    """The number of canonical rows of m's row space, as ``Subspace(...).dim``."""
    return len(_echelon(matrix(m))[0])


def kernel(m) -> Subspace:
    """Canonical null space { v : m v = 0 }, from one elimination: the
    annihilator of m's row space with its columns reversed, turned back.
    Each turned-back row leads at its own free column and is zero at the
    others, so the checking constructor only makes each row primitive."""
    m = matrix(m)
    if not m:
        raise ValueError("kernel of an empty matrix has no ambient dimension")
    ncols = len(m[0])
    flipped = Subspace(ncols, [row[::-1] for row in m]).annihilator()
    return Subspace(ncols, [row[::-1] for row in reversed(flipped)])


def image(m) -> Subspace:
    """Canonical column space { m v : v in Q^ncols }."""
    m = matrix(m)
    if not m:
        raise ValueError("image of an empty matrix has no ambient dimension")
    return Subspace(len(m), transpose(m))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace(a.ambient_dim, list(a.rows) + list(b.rows))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """The vectors annihilated by the rows of both annihilators: one kernel,
    or the full space when both are full."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    rows = a.annihilator() + b.annihilator()
    return kernel(rows) if rows else Subspace.full(a.ambient_dim)


def contained(rows: np.ndarray, anns: np.ndarray) -> np.ndarray:
    """Whether the row space of ``rows[t]`` lies in the space that ``anns[t]``
    annihilates, for every t at once: X is in Y exactly when
    ann(Y) rows(X)^T = 0, one ``int_matmul`` over the stacked blocks."""
    return ~int_matmul(anns, rows.transpose(0, 2, 1)).any(axis=(1, 2))


def same_spans(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether items t of two stacks of canonical rows, zero rows last, span
    one space: canonical form is unique, so the rows agree entry for entry."""
    h = min(a.shape[1], b.shape[1])
    return ((a[:, :h] == b[:, :h]).all(axis=(1, 2)) & ~(a[:, h:] != 0).any(axis=(1, 2))
            & ~(b[:, h:] != 0).any(axis=(1, 2)))
