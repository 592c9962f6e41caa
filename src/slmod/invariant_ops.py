"""Rank-one invariant operators and the small algebras acting on single fibers.

For the Hamiltonian action the vector
T^H_{k,r,s} = (bar(k+beta)|r) s - (bar(k+beta)|s) r pairs to zero against
bar(k+beta), and the operator T bar(T)^T preserves every fiber of every
submodule; for the Witt action the analogue uses the plain dot pairing and
two vectors per side.  These vectors span the whole hyperplane that
bar(k+beta) (resp. k+beta) annihilates, so checking the polarized rank-one
operators over an integer basis of that hyperplane certifies invariance under
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .exact_linalg import (
    Subspace,
    _int_matrix,
    dot,
    format_vector,
    int_blocks,
    int_matmul,
    rank,
    vec,
)
from .graded_modules import ActionSpec, GradedFamily, fiber_escapes
from .reports import CheckResult, Recorder
from .torus_lie import AlgebraKind, bar, rank_one, rank_one_sym
from .sl_maps import SymplecticFrame


def _pairing_row(spec: ActionSpec, k) -> tuple:
    """bar(q(k + beta)) for the H action and q(k + beta) for the W action:
    every T-vector at k pairs to zero against this row."""
    kq = spec.scaled_shift(k)
    if spec.kind is AlgebraKind.H:
        return bar(kq)
    if spec.kind is AlgebraKind.W:
        return kq
    raise ValueError("invariant vectors are defined for the H and W actions")


def t_vectors(spec: ActionSpec, k, params):
    """q T for the invariant-operator vector T at degree k, for each (r, s)
    of ``params``, in integers from kq = ``spec.scaled_shift(k)`` = q(k + beta).

    H: T = (bar(k+beta)|r) s - (bar(k+beta)|s) r.
    W: T = (k+beta|r) s - (k+beta|s) r.
    """
    pair = _pairing_row(spec, k)
    for r, s in params:
        cr = sum(map(mul, pair, r))
        cs = sum(map(mul, pair, s))
        yield [cr * b - cs * a for a, b in zip(r, s)]


# ---------------------------------------------------------------------------
# orthogonal frames (Witt case)


def orthogonal_extend(v) -> tuple:
    """Deterministic orthogonal basis (v, v_1, ..., v_{N-1}) for the dot product."""
    v = vec(v)
    if all(x == 0 for x in v):
        raise ValueError("cannot extend the zero vector to an orthogonal basis")
    n = len(v)
    basis = [v]
    for i in range(n):
        u = [Fraction(1 if j == i else 0) for j in range(n)]
        for w in basis:
            coeff = Fraction(dot(w, u), dot(w, w))
            u = [a - coeff * b for a, b in zip(u, w)]
        if any(u):
            basis.append(tuple(u))
    if len(basis) != n:
        raise ValueError("orthogonal extension failed to reach a basis")
    return tuple(basis)


# ---------------------------------------------------------------------------
# small algebras fixing k + beta


@dataclass(frozen=True)
class SmallAlgebra:
    """Rank-one generated subalgebra acting trivially on the frame head.

    H case: span{ x bar(x)^T : x in {w_i} u {w_i + w_j} } over the frame tail
    w_2..w_{N-1}, a symplectic algebra of rank n-1.  W case: span{ v_i v_j^T }
    over the orthogonal complement of k + beta, a full matrix algebra of size
    N-1.
    """

    kind: AlgebraKind
    frame: tuple  # frame vectors, head first
    generators: tuple
    span_dim: int


def small_algebra(kind, frame) -> SmallAlgebra:
    kind = AlgebraKind(kind)
    if kind is AlgebraKind.H:
        if not isinstance(frame, SymplecticFrame):
            raise ValueError("the H-case small algebra needs a symplectic frame")
        tail = frame.w[1:]
        gens = [rank_one_sym(x) for x in tail]
        for i in range(len(tail)):
            for j in range(i + 1, len(tail)):
                gens.append(rank_one_sym(tuple(a + b for a, b in zip(tail[i], tail[j]))))
        vectors = (frame.v0,) + frame.w
    elif kind is AlgebraKind.W:
        vectors = tuple(frame)
        tail = vectors[1:]
        gens = [rank_one(x, y) for x in tail for y in tail]
    else:
        raise ValueError("small algebras are defined for the H and W actions")
    span_dim = rank(_int_matrix([[x for row in g for x in row] for g in gens])[0])
    return SmallAlgebra(kind, vectors, tuple(gens), span_dim)


def lie_closure_holds(alg: SmallAlgebra) -> bool:
    """Whether the generator span is closed under the commutator.

    Each generator's denominators are cleared once, A_i = d_i a_i, so
    A_i A_j - A_j A_i = d_i d_j [a_i, a_j] lies in the span exactly when the
    commutator does; every product A_i A_j is one ``int_matmul``."""
    n = len(alg.frame[0])
    ints = [_int_matrix(g)[0] for g in alg.generators]
    span = Subspace(n * n, [[x for row in m for x in row] for m in ints])
    stack = int_blocks(ints, n).reshape(len(ints), n, n)
    prods = int_matmul(stack[:, None], stack[None, :])
    i, j = np.triu_indices(len(ints), 1)
    comms = (prods[i, j] - prods[j, i]).reshape(len(i), n * n)
    return all(map(span.contains_vector, comms.tolist()))


# ---------------------------------------------------------------------------
# fiberwise invariance under the operators


def _t_span_factors(spec: ActionSpec, k) -> list:
    """Factor pairs (x, y) of the rank-one operators that certify invariance
    under all parameter choices.

    The T-vectors over the degree box span the whole hyperplane that the
    pairing row annihilates, so x and y run over its integer basis,
    ``annihilator()`` of that one row.  For the H action the pairs are
    (x, None) and (x + y, None), giving the operators x bar(x)^T; for the W
    action every (x, y), giving x y^T.  Every operator with integer
    parameters is a rational combination of these; at k + beta = 0 there
    is none.
    """
    pair = _pairing_row(spec, k)
    if not any(pair):
        return []
    basis = Subspace(spec.n, [pair]).annihilator()
    if spec.kind is AlgebraKind.W:
        return [(x, y) for x in basis for y in basis]
    return [(x, None) for x in basis] + [([a + b for a, b in zip(x, y)], None)
                                         for i, x in enumerate(basis) for y in basis[i + 1 :]]


def invariance_report(family: GradedFamily) -> CheckResult:
    """PASS when every fiber is preserved by all rank-one invariant operators.

    At each degree one ``fiber_escapes`` call tests the fiber's rows under
    the integer actions of all T-span factors, one ``rank_one_stack``,
    against the fiber's annihilator.  For the H action, x bar(x)^T for every
    vector x pairing to zero against k + beta (those of a symplectic frame,
    say) lies in the span of the checked operators, so it is covered too.
    """
    spec = family.spec
    rec = Recorder(
        "invariant-operators",
        {"kind": str(spec.kind), "N": spec.n, "fiber": str(spec.fiber),
         "beta": format_vector(spec.beta)},
    )
    space = spec.space()
    for k in family.window.degrees():
        sub = family.fiber(k)
        if not sub.dim:
            continue
        factors = _t_span_factors(spec, k)
        xs = int_blocks([[x for x, _ in factors]], spec.n)[0]
        ys = None if spec.kind is AlgebraKind.H else int_blocks([[y for _, y in factors]], spec.n)[0]
        ok = not factors or not fiber_escapes(
            int_blocks([sub.rows], space.dim)[0], int_blocks([sub.annihilator()], space.dim)[0],
            [0] * len(factors), space.rank_one_stack(xs, ys)).any()
        rec.record(ok, degree=k, expected="fiber preserved", actual="preserved" if ok else "escapes")
    return rec.result()
