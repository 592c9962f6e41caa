"""Structure of the Witt, divergence-free and Hamiltonian torus Lie algebras.

Vector fields on the N-torus are handled through their degree bookkeeping and
fiber-level matrices only: D(u, r) is the field sum_i u_i t^r d_i, and for even
N = 2n the Hamiltonian generator h_r = sum_i (r_{n+i} t^r d_i - r_i t^r d_{n+i})
satisfies [h_r, h_s] = (bar r | s) h_{r+s}.
"""

from __future__ import annotations

import enum
from itertools import product
from typing import Sequence

import numpy as np

from .exact_linalg import _int_matrix, dot, int_affine, int_blocks, int_matmul, kernel, max_abs, rank

Degree = tuple  # tuple[int, ...]


class AlgebraKind(enum.Enum):
    W = "W"
    S = "S"
    H = "H"

    def __str__(self):
        return self.value


def require_even(n: int):
    if n % 2:
        raise ValueError(f"the Hamiltonian algebra needs an even number of variables, got {n}")


def bar(w: Sequence) -> tuple:
    """(w_1, ..., w_2n) -> (w_{n+1}, ..., w_{2n}, -w_1, ..., -w_n)."""
    require_even(len(w))
    n = len(w) // 2
    return tuple(w[n:]) + tuple(-x for x in w[:n])


def sympl_form(u: Sequence, v: Sequence):
    """The symplectic pairing (bar u | v); antisymmetric and nondegenerate."""
    return dot(bar(u), v)


def rank_one(r: Sequence, u: Sequence) -> tuple:
    """The matrix r u^T."""
    return tuple(tuple(ri * uj for uj in u) for ri in r)


def rank_one_sym(u: Sequence) -> tuple:
    """The symplectic rank-one matrix u bar(u)^T."""
    return rank_one(u, bar(u))


def sp_dim(n: int) -> int:
    half = n // 2
    return half * (2 * half + 1)


def degree_box(n: int, bound: int = 1) -> tuple:
    """All nonzero r in Z^n with max |r_i| <= bound."""
    return tuple(r for r in product(range(-bound, bound + 1), repeat=n) if any(r))


def rank_one_span_dim(n: int) -> int:
    """Dimension of span{ r bar(r)^T : r in the unit degree box }."""
    return rank([[x for row in rank_one_sym(r) for x in row] for r in degree_box(n)])


# ---------------------------------------------------------------------------
# the J-subspace membership predicates


def j_membership(kind: AlgebraKind, space, vectors, samples) -> bool:
    """Whether the defining square identity of the kind holds for every vector.

    ``vectors`` are coordinate vectors of the fiber space ``space``, whose
    ``rank_one_stack`` gives A, ``scale`` times the action of the rank-one
    matrix.  Samples are (r, u) pairs; for kind H only r is used, and S
    samples must satisfy (u|r) = 0.  Each identity reads A(Av) = c scale Av:

    H: (r bar(r)^T)^2 v = 0, so c = 0.
    W: (r u^T)^2 v = (u|r) (r u^T) v, so c = (u|r).
    S: (r u^T)^2 v = 0, for (u|r) = 0.

    The actions A of all samples are one ``rank_one_stack``, their pairings
    (u|r) one batched product, and (A - c scale I)(A V) = 0 one
    ``int_affine`` for every vector under every sample, V the vectors as
    integer columns.
    """
    kind = AlgebraKind(kind)
    if kind is not AlgebraKind.H and any(u is None for _, u in samples):
        raise ValueError(f"kind {kind} samples need (r, u) pairs")
    rs = int_blocks([[r for r, _ in samples]], space.n)[0]
    ys = None if kind is AlgebraKind.H else int_blocks([[u for _, u in samples]], space.n)[0]
    # -c scale per sample, the pairings' bound taken times scale so that
    # their product with it is exact in their dtype
    cs = np.zeros(len(samples), dtype=np.int64) if ys is None else -space.scale * int_matmul(
        ys[:, None, :], rs[:, :, None], (max_abs(ys) * space.scale, max_abs(rs))).ravel()
    if kind is AlgebraKind.S and cs.any():
        raise ValueError("divergence-free samples require (u|r) = 0")
    acts = space.rank_one_stack(rs, ys)
    av = int_matmul(acts, int_blocks([_int_matrix(vectors)[0]], space.dim)[0].T)
    # the rows of (A - c scale I)(A V), transposed
    return not np.any(int_affine(cs, av.transpose(0, 2, 1), acts.transpose(0, 2, 1)))


def _perp_basis(r: Sequence[int]) -> list:
    """Integer basis of { u : (u|r) = 0 }."""
    ker = kernel((tuple(r),))
    return [tuple(row) for row in ker.rows]
