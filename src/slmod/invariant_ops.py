"""Rank-one invariant operators and the small algebras acting on single fibers.

For the Hamiltonian action the vector
T^H_{k,r,s} = (bar(k+beta)|r) s - (bar(k+beta)|s) r pairs to zero against
bar(k+beta), and the operator T bar(T)^T preserves every fiber of every
submodule; for the Witt action the analogue uses the plain dot pairing and
two vectors per side.  Spanning these vectors over a degree box recovers the
full annihilator hyperplane of k + beta, so checking the polarized rank-one
operators over a basis of that span certifies invariance under all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

from .exact_linalg import (
    IntSpan,
    _int_row,
    dot,
    format_vector,
    mat_sub,
    mat_mul,
    vec,
)
from .graded_modules import ActionSpec, GradedFamily
from .reports import CheckResult, Recorder
from .torus_lie import AlgebraKind, bar, degree_box, rank_one, rank_one_sym
from .sl_maps import SymplecticFrame


def t_vectors(spec: ActionSpec, k, params):
    """q T for the invariant-operator vector T at degree k, for each (r, s)
    of ``params``, in integers from kq = ``spec.scaled_shift(k)`` = q(k + beta).

    H: T = (bar(k+beta)|r) s - (bar(k+beta)|s) r.
    W: T = (k+beta|r) s - (k+beta|s) r.
    """
    kq = spec.scaled_shift(k)
    if spec.kind is AlgebraKind.H:
        pair = bar(kq)
    elif spec.kind is AlgebraKind.W:
        pair = kq
    else:
        raise ValueError("invariant vectors are defined for the H and W actions")
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
    span = IntSpan(len(vectors[0]) ** 2)
    for g in gens:
        span.add(_int_row([x for row in g for x in row]))
    return SmallAlgebra(kind, vectors, tuple(gens), span.dim)


def lie_closure_holds(alg: SmallAlgebra) -> bool:
    """Whether the generator span is closed under the commutator."""
    span = IntSpan(len(alg.frame[0]) ** 2)
    for g in alg.generators:
        span.add(_int_row([x for row in g for x in row]))
    for i, a in enumerate(alg.generators):
        for b in alg.generators[i + 1 :]:
            comm = mat_sub(mat_mul(a, b), mat_mul(b, a))
            if not span.contains(_int_row([x for row in comm for x in row])):
                return False
    return True


# ---------------------------------------------------------------------------
# fiberwise invariance under the operators


def _t_span_factors(spec: ActionSpec, k) -> list:
    """Factor pairs (x, y) of the rank-one operators that certify invariance
    under all parameter choices.

    x and y run over a basis of span{ T-vectors over the degree box }: for
    the H action the pairs are (x, x) and (x + y, x + y), giving the
    operators x bar(x)^T; for the W action every (x, y), giving x y^T.  Every
    operator with integer parameters is a rational combination of these.
    """
    n = spec.n
    box = degree_box(n)
    span = IntSpan(n)
    basis = []
    for t in t_vectors(spec, k, product(box, box)):
        # q T over gcd(q, content) is T with its denominators cleared, as _int_row does
        g = gcd(spec.q, *t)
        ti = [x // g for x in t]
        if any(ti) and span.add(ti):
            basis.append(ti)
        if span.dim == n - 1:
            break
    if spec.kind is AlgebraKind.W:
        return [(x, y) for x in basis for y in basis]
    factors = []
    for i, x in enumerate(basis):
        factors.append((x, x))
        for y in basis[i + 1 :]:
            xy = [a + b for a, b in zip(x, y)]
            factors.append((xy, xy))
    return factors


def invariance_report(family: GradedFamily) -> CheckResult:
    """PASS when every fiber is preserved by all rank-one invariant operators.

    Each operator is an integer combination of elementary rank-one matrices,
    x bar(x)^T = sum_{a<=b} x_a x_b P_ab (H) and x y^T = sum x_a y_b E_ab (W),
    whose actions the fiber space builds once.  At each degree every fiber row
    is sent through those once and paired with each row of the fiber's
    annihilator; an operator's image leaves the fiber exactly when the
    matching combination of those pairings is nonzero.  For the H action,
    x bar(x)^T for every vector x pairing to zero against k + beta (those of a
    symplectic frame, say) lies in the span of the checked operators, so it
    is covered too.
    """
    spec = family.spec
    rec = Recorder(
        "invariant-operators",
        {"kind": str(spec.kind), "N": spec.n, "fiber": str(spec.fiber),
         "beta": format_vector(spec.beta)},
    )
    pairs, actions = spec.space().rank_one_actions(spec.kind is AlgebraKind.H)
    for k in family.window.degrees():
        sub = family.fiber(k)
        if not sub.dim:
            continue
        coeffs = [[x[a] * y[b] for a, b in pairs] for x, y in _t_span_factors(spec, k)]
        ann = sub.annihilator()
        ok = True
        for row in sub.rows:
            # the e-th elementary action applied to row
            images = [[sum([v * row[j] for j, v in ar]) for ar in act] for act in actions]
            # pairings[a][e]: annihilator row a against the e-th image
            pairings = [[sum(map(mul, a, img)) for img in images] for a in ann]
            if any(sum(map(mul, c, pa)) for c in coeffs for pa in pairings):
                ok = False
                break
        rec.record(ok, degree=k, expected="fiber preserved", actual="preserved" if ok else "escapes")
    return rec.result()
