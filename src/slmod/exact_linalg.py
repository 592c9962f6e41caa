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
    every sweep picks int64 or Python ints (dtype object)."""
    return bound < 2**62


def _max_abs(a: np.ndarray) -> int:
    return int(max(a.max(initial=0), -a.min(initial=0)))


def int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for integer arrays: int64 when ``fits_int64`` bounds every
    entry and partial sum of the product, Python ints (dtype object) past it."""
    dtype = np.int64 if fits_int64(a.shape[-1] * _max_abs(a) * _max_abs(b)) else object
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)


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


def zero_matrix(nrows: int, ncols: int) -> tuple:
    row = (0,) * ncols
    return tuple(row for _ in range(nrows))


def from_triplets(nrows: int, ncols: int, triplets: Iterable[tuple]) -> tuple:
    """Dense matrix from sparse (row, col, value) entries; duplicates add."""
    rows = [[0] * ncols for _ in range(nrows)]
    for i, j, v in triplets:
        rows[i][j] += v
    return matrix(rows)


def transpose(m) -> tuple:
    if not m:
        return ()
    return tuple(zip(*m))


def mat_vec(m, v) -> tuple:
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b) -> tuple:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"mat_mul: inner dimensions {len(a[0])} != {len(b)}")
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_sub(a, b) -> tuple:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


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


def _lead(row: Sequence[int]) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    return -1


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
    and cross-multiplies its other rows against it, each then divided by its
    gcd.  A step makes no entry past 2 M^2, M the largest entry it reads: it
    runs in int64 while ``fits_int64`` holds for that, on Python ints after.
    """
    work = stack.copy()
    rank = np.zeros(len(work), dtype=np.intp)
    below = np.arange(work.shape[1])
    for col in range(work.shape[2]):
        cand = (work[:, :, col] != 0) & (below >= rank[:, None])
        items = np.flatnonzero(cand.any(axis=1))
        if not items.size:
            continue
        rows = work[items]
        if rows.dtype != object and not fits_int64(2 * _max_abs(rows) ** 2):
            work, rows = work.astype(object), rows.astype(object)
        at, top = np.arange(items.size), rank[items]
        sel = cand[items].argmax(axis=1)
        pivot = rows[at, sel]
        rows[at, sel] = rows[at, top]
        rows[at, top] = 0
        pivot //= (np.gcd.reduce(pivot, axis=1) * np.sign(pivot[:, col]))[:, None]
        a = pivot[:, col, None]
        g = np.gcd(a, rows[:, :, col])
        b = rows[:, :, col] // g
        rows *= (a // g)[:, :, None]
        rows -= b[:, :, None] * pivot[:, None, :]
        rows[at, top] = pivot
        norm = np.gcd.reduce(rows, axis=2)
        norm[norm == 0] = 1
        rows //= norm[:, :, None]
        work[items] = rows
        rank[items] += 1
    return work[:, : rank.max(initial=0)]


def kernel_stack(stack: np.ndarray) -> np.ndarray:
    """The null spaces { v : M v = 0 } of a (B, m, n) integer stack as one
    (B, n, n) stack of canonical rows: the right parts of the rows of the
    reduced [M^T | I] whose left part vanishes, other rows zeroed."""
    nitems, m, n = stack.shape
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), (nitems, n, n))
    red = echelon_stack(np.concatenate([stack.transpose(0, 2, 1), eye], axis=2))
    return np.where((red[:, :, :m] != 0).any(axis=2, keepdims=True), 0, red[:, :, m:])


def subspaces(stack: np.ndarray) -> list:
    """One ``Subspace`` per item of a (B, m, n) integer stack, spanned by its rows."""
    return [Subspace(stack.shape[2], item) for item in stack.tolist()]


class IntSpan:
    """Incrementally grown span of integer vectors (forward echelon only).

    Rows stay primitive and sorted by leading column; suitable for closure
    loops where many membership tests and single-vector inserts happen.
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residual(self, vector: Sequence[int]) -> list[int]:
        return _reduce_row(list(vector), self.rows, self.pivots)

    def contains(self, vector: Sequence[int]) -> bool:
        return not any(self.residual(vector))

    def add(self, vector: Sequence[int]) -> list[int] | None:
        """Insert a vector; returns the reduced row stored, or None when the
        span did not grow."""
        res = self.residual(vector)
        lead = _lead(res)
        if lead < 0:
            return None
        res = list(_primitive(res))
        pos = 0
        while pos < len(self.pivots) and self.pivots[pos] < lead:
            pos += 1
        self.rows.insert(pos, res)
        self.pivots.insert(pos, lead)
        return res

    def to_subspace(self) -> "Subspace":
        return Subspace(self.ambient, self.rows)


class Subspace:
    """A subspace of Q^n in canonical reduced-row-echelon form, spanned by
    the given Python-int rows.

    The stored rows are primitive integer vectors, proportional to the unique
    pivot-1 reduced echelon basis.
    """

    __slots__ = ("ambient_dim", "rows", "pivots", "_annihilator")

    def __init__(self, ambient_dim: int, rows: Iterable[Sequence[int]] = ()):
        canon, piv = _echelon(rows)
        for r in canon:
            if len(r) != ambient_dim:
                raise ValueError("subspace row length differs from ambient dimension")
        self.ambient_dim = ambient_dim
        self.rows = tuple(canon)
        self.pivots = tuple(piv)
        self._annihilator = None

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
        the identity and the full space no rows.  Computed on the first call
        and kept: a subspace never changes.
        """
        if self._annihilator is not None:
            return self._annihilator
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
        self._annihilator = tuple(out)
        return self._annihilator

    def contains_vector(self, vector: Sequence[int]) -> bool:
        if len(vector) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        return not any(_reduce_row(vector, self.rows, self.pivots))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return not any(any(_reduce_row(r, self.rows, self.pivots)) for r in other.rows)

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
    m = matrix(m)
    if not m:
        return 0
    return len(_echelon(m)[0])


def kernel(m) -> Subspace:
    """Canonical null space { v : m v = 0 }: the annihilator of m's row space."""
    m = matrix(m)
    if not m:
        raise ValueError("kernel of an empty matrix has no ambient dimension")
    ncols = len(m[0])
    return Subspace(ncols, Subspace(ncols, m).annihilator())


def image(m, s: Subspace | None = None) -> Subspace:
    """Canonical span of { m b : b basis vector of s } (s defaults to full)."""
    m = matrix(m)
    if not m:
        raise ValueError("image of an empty matrix has no ambient dimension")
    ncols = len(m[0])
    if s is not None and s.ambient_dim != ncols:
        raise ValueError(f"image: subspace ambient {s.ambient_dim} != matrix cols {ncols}")
    if s is None:
        return Subspace(len(m), transpose(m))
    return Subspace(len(m), [mat_vec(m, row) for row in s.rows])


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace(a.ambient_dim, list(a.rows) + list(b.rows))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of the stacked-basis coefficient system."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    # Solve A^T u = B^T v: kernel of [A^T | -B^T], then map u back through A.
    stacked = []
    for i in range(a.ambient_dim):
        row = [r[i] for r in a.rows] + [-r[i] for r in b.rows]
        stacked.append(row)
    ker = kernel(stacked)
    gens = []
    for row in ker.rows:
        coeffs = row[: a.dim]
        v = [0] * a.ambient_dim
        for c, arow in zip(coeffs, a.rows):
            for j, x in enumerate(arow):
                v[j] += c * x
        gens.append(v)
    return Subspace(a.ambient_dim, gens)
