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
    max_abs,
    rank,
    vec,
)
from .graded_modules import STACK_ITEMS, ActionSpec, GradedFamily, directions, fiber_escapes
from .reports import CheckResult, Recorder
from .torus_lie import AlgebraKind, bar, rank_one, rank_one_sym
from .sl_maps import SymplecticFrame


def _pairing_row(spec: ActionSpec, kq) -> tuple:
    """bar(kq) for the H action and kq for the W action, kq = q(k + beta):
    every T-vector at k pairs to zero against this row."""
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
    pair = _pairing_row(spec, spec.scaled_shift(k))
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


def _t_span_factors(spec: ActionSpec, kq) -> list:
    """Factor pairs (x, y) of the rank-one operators that certify invariance
    under all parameter choices at the scaled shift kq = q(k + beta).

    The T-vectors over the degree box span the whole hyperplane that the
    pairing row annihilates, so x and y run over its integer basis,
    ``annihilator()`` of that one row: canonical, so one list serves every
    shift along a direction.  For the H action the pairs are (x, None) and
    (x + y, None), giving the operators x bar(x)^T; for the W action every
    (x, y), giving x y^T.  Every operator with integer parameters is a
    rational combination of these; at k + beta = 0 there is none.
    """
    pair = _pairing_row(spec, kq)
    if not any(pair):
        return []
    basis = Subspace(spec.n, [pair]).annihilator()
    if spec.kind is AlgebraKind.W:
        return [(x, y) for x in basis for y in basis]
    return [(x, None) for x in basis] + [([a + b for a, b in zip(x, y)], None)
                                         for i, x in enumerate(basis) for y in basis[i + 1 :]]


def invariance_report(family: GradedFamily) -> CheckResult:
    """PASS when every fiber is preserved by all rank-one invariant operators.

    The operators depend on k only through the direction of k + beta, so the
    T-span factors and their integer actions, one ``rank_one_stack``, are
    built once per direction (``directions``).  A ``fiber_escapes`` item is
    a distinct (direction, block) pair with one of its direction's
    operators: c = 0 and the block's rows and annihilator, ``STACK_ITEMS``
    items to a call.  At k + beta = 0 there is no operator.  For the H
    action, x bar(x)^T for every vector x pairing to zero against k + beta
    (those of a symplectic frame, say) lies in the span of the checked
    operators, so it is covered too.
    """
    spec = family.spec
    rec = Recorder(
        "invariant-operators",
        {"kind": str(spec.kind), "N": spec.n, "fiber": str(spec.fiber),
         "beta": format_vector(spec.beta)},
    )
    n, degs = spec.n, family.window.degrees()
    live, dirs, stack = directions(spec.scaled_shifts(family.window))
    factors = [_t_span_factors(spec, kq) for kq in stack.tolist()]
    xs = int_blocks([[x for x, _ in f] for f in factors], n)
    ys = None if spec.kind is AlgebraKind.H else int_blocks([[y for _, y in f] for f in factors], n)
    ops = spec.space().rank_one_stack(xs.reshape(-1, n), None if ys is None else ys.reshape(-1, n))
    place, dims, r_blocks, a_blocks = family.place, family.dims, family.rows, family.anns
    pairs: dict = {}  # (direction, block) -> its number
    key = {i: pairs.setdefault((d, place[i]), len(pairs)) for i, d in zip(live.tolist(), dirs) if dims[i]}
    pair_dir, pair_fiber = np.array(list(pairs), dtype=np.intp).reshape(-1, 2).T
    tops = (max_abs(r_blocks), max_abs(ops), max_abs(a_blocks))
    count, bad = xs.shape[1], set()  # operators per direction; pairs with an escaping row
    for start in range(0, len(pairs) * count, STACK_ITEMS):
        u, o = np.divmod(np.arange(start, min(start + STACK_ITEMS, len(pairs) * count)), count)
        flags = fiber_escapes(r_blocks[pair_fiber[u]], a_blocks[pair_fiber[u]],
                              np.zeros(len(u), dtype=np.int64), ops[pair_dir[u] * count + o], tops)[0]
        bad.update(u[flags.any(-1)].tolist())
    for i in np.flatnonzero(dims).tolist():
        ok = key.get(i) not in bad
        rec.record(ok, degree=degs[i], expected="fiber preserved", actual="preserved" if ok else "escapes")
    return rec.result()
