"""Exterior powers of Q^N, the symmetric square, and the symplectic contraction.

Monomials e_{i_1} ^ ... ^ e_{i_p} are keyed by strictly increasing index
tuples with entries in 1..N; the lexicographic order of these tuples fixes the
ambient basis order used by every subspace of the fiber.  Lambda^0 is the
one-dimensional space keyed by the empty tuple.

The matrices of the maps between them are sums of products of three unit
tables, each one stack over a = 1..N: e_a ^ (``unit_wedges``), the contraction
against e_a (``unit_contractions``) and, on Sym^2, e_a . and d/de_a
(``unit_products``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Sequence

import numpy as np

from .exact_linalg import Subspace, frac, kernel
from .torus_lie import require_even

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
# unit tables: every map on Lambda^p and Sym^2 is a sum of their products


def unit_wedges(n: int, p: int) -> np.ndarray:
    """x -> e_a ^ x from Lambda^p to Lambda^{p+1} for every a, as one int64
    (n, dim Lambda^{p+1}, dim Lambda^p) stack."""
    tgt_pos = ext_position(n, p + 1)
    out = np.zeros((n, len(tgt_pos), ext_dim(n, p)), dtype=np.int64)
    for col, key in enumerate(ext_basis(n, p)):
        for a in range(1, n + 1):
            sign, new_key = insert_index(a, key)
            if new_key is not None:
                out[a - 1, tgt_pos[new_key], col] = sign
    return out


def unit_contractions(n: int, p: int) -> np.ndarray:
    """v_1^...^v_p -> sum_i (-1)^i (e_a|v_i) v_1^..omit i..^v_p from Lambda^p
    to Lambda^{p-1} for every a, as one int64 (n, dim Lambda^{p-1},
    dim Lambda^p) stack; the contraction against w is sum_a w_a C_a."""
    tgt_pos = ext_position(n, p - 1)
    out = np.zeros((n, len(tgt_pos), ext_dim(n, p)), dtype=np.int64)
    for col, key in enumerate(ext_basis(n, p)):
        for slot, idx in enumerate(key):
            # (-1)^i at the 1-based position i = slot + 1
            out[idx - 1, tgt_pos[key[:slot] + key[slot + 1 :]], col] = 1 if slot % 2 else -1
    return out


@lru_cache(maxsize=None)
def theta_matrix(n: int, p: int) -> tuple:
    """Integer matrix of the contraction Lambda^p -> Lambda^{p-2}.

    On v_1 ^ ... ^ v_p it sums (-1)^{i+j-1} (bar v_i | v_j) over i < j with the
    two paired factors removed: the sum over a < N/2 of C^{p-1}_a C^p_{a+N/2},
    C^q the unit contractions out of Lambda^q.
    """
    require_even(n)
    half = n // 2
    outer, inner = unit_contractions(n, p - 1), unit_contractions(n, p)
    return tuple(map(tuple, (outer[:half] @ inner[half:]).sum(axis=0).tolist()))


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


def unit_products(n: int) -> tuple:
    """(products, derivatives): x -> e_a . x from Q^n to Sym^2 and d/de_a from
    Sym^2 to Q^n for every a, as int64 (n, dim Sym^2, n) and
    (n, n, dim Sym^2) stacks.  e_a e_b^T acts on Sym^2 by
    products[a] @ derivatives[b]."""
    pos = sym_position(n)
    products = np.zeros((n, len(pos), n), dtype=np.int64)
    derivatives = np.zeros((n, n, len(pos)), dtype=np.int64)
    for (i, j), col in pos.items():
        products[i - 1, col, j - 1] = products[j - 1, col, i - 1] = 1
        derivatives[i - 1, j - 1, col] += 1
        derivatives[j - 1, i - 1, col] += 1
    return products, derivatives
