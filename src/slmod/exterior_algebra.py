"""Exterior powers of Q^N, the symmetric square, and the symplectic contraction.

Monomials e_{i_1} ^ ... ^ e_{i_p} are keyed by strictly increasing index
tuples with entries in 1..N; the lexicographic order of these tuples fixes the
ambient basis order used by every subspace of the fiber.  Lambda^0 is the
one-dimensional space keyed by the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Sequence

from .exact_linalg import Subspace, frac, identity, kernel, matrix
from .torus_lie import bar, require_even

ExtIndex = tuple  # strictly increasing tuple of indices in 1..N


@lru_cache(maxsize=None)
def ext_basis(n: int, p: int) -> tuple:
    """Index tuples of the monomial basis of Lambda^p Q^n, in lex order."""
    if not 0 <= p <= n:
        raise ValueError(f"degree p={p} out of range 0..{n}")
    return tuple(combinations(range(1, n + 1), p))


@lru_cache(maxsize=None)
def ext_position(n: int, p: int) -> dict:
    return {key: i for i, key in enumerate(ext_basis(n, p))}


def ext_dim(n: int, p: int) -> int:
    return comb(n, p) if 0 <= p <= n else 0


def merge_indices(a: ExtIndex, b: ExtIndex):
    """Sort the concatenation of two increasing tuples; None when repeated."""
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a) - i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def insert_index(idx: int, key: ExtIndex):
    """Sign and tuple for e_idx ^ (monomial key); None when idx repeats."""
    return merge_indices((idx,), key)


class ExtVector:
    """Sparse element of Lambda^p Q^n keyed by increasing index tuples."""

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n: int, degree: int, coeffs: dict | None = None):
        if not 0 <= degree <= n:
            raise ValueError(f"degree {degree} out of range 0..{n}")
        self.n = n
        self.degree = degree
        clean = {}
        for key, val in (coeffs or {}).items():
            if len(key) != degree:
                raise ValueError(f"key {key} has wrong length for degree {degree}")
            val = frac(val)
            if val:
                clean[tuple(key)] = val
        self.coeffs = clean

    @classmethod
    def monomial(cls, n: int, key: Sequence[int]) -> "ExtVector":
        key = tuple(key)
        if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
            raise ValueError(f"monomial key {key} must be strictly increasing")
        if key and not (1 <= key[0] and key[-1] <= n):
            raise ValueError(f"monomial key {key} out of range 1..{n}")
        return cls(n, len(key), {key: 1})

    @classmethod
    def from_vector(cls, n: int, vector: Sequence) -> "ExtVector":
        """Degree-1 element from a coordinate vector of Q^n."""
        return cls(n, 1, {(i + 1,): v for i, v in enumerate(vector)})

    def to_coords(self) -> tuple:
        return tuple(self.coeffs.get(key, Fraction(0)) for key in ext_basis(self.n, self.degree))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtVector)
            and (self.n, self.degree) == (other.n, other.degree)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, self.degree, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if not self.coeffs:
            return f"ExtVector({self.n}, {self.degree}, 0)"
        terms = " + ".join(f"{v}*e{list(k)}" for k, v in sorted(self.coeffs.items()))
        return f"ExtVector({terms})"


def wedge(x: ExtVector, y: ExtVector) -> ExtVector:
    """Bilinear alternating product Lambda^p x Lambda^q -> Lambda^{p+q}."""
    if x.n != y.n:
        raise ValueError("wedge operands live in different ambient spaces")
    if x.degree + y.degree > x.n:
        raise ValueError(f"wedge degree {x.degree}+{y.degree} exceeds ambient {x.n}")
    out: dict = {}
    for ka, va in x.coeffs.items():
        for kb, vb in y.coeffs.items():
            sign, key = merge_indices(ka, kb)
            if key is None:
                continue
            out[key] = out.get(key, Fraction(0)) + sign * va * vb
    return ExtVector(x.n, x.degree + y.degree, out)


def interior_product(w, x: ExtVector) -> ExtVector:
    """Contraction v_1 ^ ... ^ v_p -> sum_i (-1)^i (w|v_i) v_1 ^ ..omit i.. ^ v_p."""
    if x.degree < 1:
        raise ValueError("contraction needs degree at least 1")
    out: dict = {}
    for key, val in x.coeffs.items():
        for slot, idx in enumerate(key):
            c = frac(w[idx - 1])
            if not c:
                continue
            sign = -1 if slot % 2 == 0 else 1  # (-1)^{slot+1}
            rest = key[:slot] + key[slot + 1 :]
            out[rest] = out.get(rest, Fraction(0)) + sign * c * val
    return ExtVector(x.n, x.degree - 1, out)


# ---------------------------------------------------------------------------
# matrices of the standard maps (columns indexed by source monomials)


def gl_action_matrix(n: int, p: int, a) -> tuple:
    """Matrix of the derivation action of ``a`` on Lambda^p coordinates."""
    a = matrix(a)
    src = ext_basis(n, p)
    pos = ext_position(n, p)
    dim = len(src)
    cols = []
    for key in src:
        col = [0] * dim
        for slot, idx in enumerate(key):
            rest = key[:slot] + key[slot + 1 :]
            slot_sign = -1 if slot % 2 else 1
            for row in range(n):
                c = a[row][idx - 1]
                if not c:
                    continue
                sign, new_key = insert_index(row + 1, rest)
                if new_key is None:
                    continue
                col[pos[new_key]] += slot_sign * sign * c
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))


@lru_cache(maxsize=None)
def theta_matrix(n: int, p: int) -> tuple:
    """Integer matrix of the contraction Lambda^p -> Lambda^{p-2}.

    On v_1 ^ ... ^ v_p it sums (-1)^{i+j-1} (bar v_i | v_j) over i < j with the
    two paired factors removed.
    """
    require_even(n)
    src = ext_basis(n, p)
    tgt_pos = ext_position(n, p - 2)
    bars = [bar(u) for u in identity(n)]
    rows = [[0] * len(src) for _ in range(len(tgt_pos))]
    for col, key in enumerate(src):
        for i in range(len(key)):
            bi = bars[key[i] - 1]
            for j in range(i + 1, len(key)):
                pairing = bi[key[j] - 1]
                if not pairing:
                    continue
                sign = 1 if (i + j) % 2 else -1  # (-1)^{(i+1)+(j+1)-1}
                rest = key[:i] + key[i + 1 : j] + key[j + 1 :]
                rows[tgt_pos[rest]][col] += sign * pairing
    return matrix(rows)


def wedge_matrix(n: int, p: int, v: Sequence) -> tuple:
    """Matrix of x -> v ^ x as a map Lambda^p -> Lambda^{p+1}."""
    src = ext_basis(n, p)
    tgt_pos = ext_position(n, p + 1)
    rows = [[0] * len(src) for _ in range(len(tgt_pos))]
    for col, key in enumerate(src):
        for idx, c in enumerate(v, start=1):
            if not c:
                continue
            sign, new_key = insert_index(idx, key)
            if new_key is None:
                continue
            rows[tgt_pos[new_key]][col] += sign * c
    return matrix(rows)


def interior_matrix(n: int, p: int, w: Sequence) -> tuple:
    """Matrix of v_1^...^v_p -> sum_i (-1)^i (w|v_i) v_1^..omit i..^v_p."""
    src = ext_basis(n, p)
    tgt_pos = ext_position(n, p - 1)
    rows = [[0] * len(src) for _ in range(len(tgt_pos))]
    for col, key in enumerate(src):
        for slot, idx in enumerate(key):
            c = w[idx - 1]
            if not c:
                continue
            sign = -1 if (slot + 1) % 2 else 1  # (-1)^{slot+1}
            rest = key[:slot] + key[slot + 1 :]
            rows[tgt_pos[rest]][col] += sign * c
    return matrix(rows)


@lru_cache(maxsize=None)
def fundamental_subspace(n: int, p: int) -> Subspace:
    """Kernel of the contraction inside Lambda^p (the full space for p <= 1)."""
    require_even(n)
    if not 0 <= p <= n:
        raise ValueError(f"degree p={p} out of range 0..{n}")
    if p <= 1:
        return Subspace.full(ext_dim(n, p))
    return kernel(theta_matrix(n, p))


def fundamental_dim(n: int, p: int) -> int:
    return fundamental_subspace(n, p).dim


# ---------------------------------------------------------------------------
# symmetric square


@lru_cache(maxsize=None)
def sym_basis(n: int) -> tuple:
    return tuple((i, j) for i in range(1, n + 1) for j in range(i, n + 1))


@lru_cache(maxsize=None)
def sym_position(n: int) -> dict:
    return {key: i for i, key in enumerate(sym_basis(n))}


def sym_dim(n: int) -> int:
    return n * (n + 1) // 2


def sym_action_matrix(n: int, a) -> tuple:
    """Matrix of the derivation action of ``a`` on Sym^2 coordinates.

    Entries stay integers when ``a`` has integer entries.
    """
    a = matrix(a)
    keys = sym_basis(n)
    pos = sym_position(n)
    dim = len(keys)
    rows = [[0] * dim for _ in range(dim)]
    for col, (i, j) in enumerate(keys):
        for row in range(1, n + 1):
            ci = a[row - 1][i - 1]
            if ci:
                key = (row, j) if row <= j else (j, row)
                rows[pos[key]][col] += ci
            cj = a[row - 1][j - 1]
            if cj:
                key = (i, row) if i <= row else (row, i)
                rows[pos[key]][col] += cj
    return matrix(rows)
