"""Symplectic frames, the fiber-level structural maps, and family builders.

The four graded families cut out of Lambda^p (x) Q[t^{+-1}] are built fiber by
fiber from the shifted degree K = k + beta:

    MIN    image of the derivation action of K bar(K)^T
    FULLW  K ^ Lambda^{p-1}
    INT    image of the degree-lowering contraction from Lambda^{p+1}
    MAX    kernel of the derivation action of K bar(K)^T

On a Fund(p) fiber each family is its part inside the contraction kernel,
in Fund coordinates.  K bar(K)^T lies in sp, so it commutes with the
contraction theta and preserves the Lefschetz splitting
Lambda^p = ker theta + omega ^ Lambda^{p-2}: MIN and MAX there are the image
and kernel of the restricted action, while FULLW and INT are cut out of their
Lambda^p fibers by ``FiberSpace.from_lambda``.

Every family fiber depends on K only up to a nonzero scalar: K bar(K)^T
scales by lambda^2, K ^ and the contraction against bar(K) by lambda.  A
build therefore makes one fiber per primitive direction of q(k + beta), up to
sign, and degrees along one direction share it.  The maps are linear in K,
so one integer contraction gives the matrices of all directions as a stack,
and ``exact_linalg.echelon_stack`` eliminates the whole stack at once, per
stage: the image or kernel, then on Fund(p) the theta cut for FULLW and INT.

At the single degree with K = 0 (present only for integral beta) every
defining operator vanishes; a policy flag picks the zero fiber or the full
fiber there, which is exactly the difference between each family and its hat
variant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact_linalg import (
    Subspace,
    _primitive,
    dot,
    echelon_stack,
    fits_int64,
    format_vector,
    identity,
    int_matmul,
    kernel_stack,
    rref,
    subspaces,
    vec,
)
from .exterior_algebra import (
    interior_matrix,
    theta_matrix,
    wedge_matrix,
)
from .graded_modules import (
    ActionSpec,
    FiberSpace,
    Fund,
    GradedFamily,
    Lambda,
    Window,
    default_generators,
    edge_table,
    fiber_space,
)
from .reports import CheckResult, Recorder
from .torus_lie import AlgebraKind, bar, require_even, sympl_form


# ---------------------------------------------------------------------------
# symplectic frames


@dataclass(frozen=True)
class SymplecticFrame:
    """A basis (v0, w_1, ..., w_{N-1}) with (bar v0|w_1) = 1,
    (bar w_{2i}|w_{2i+1}) = 1 and every other pairing zero."""

    v0: tuple
    w: tuple

    def vectors(self) -> tuple:
        return (self.v0,) + self.w

    def validate(self):
        vecs = self.vectors()
        n = len(vecs)
        pairs = {(0, 1)} | {(2 * i, 2 * i + 1) for i in range(1, n // 2)}
        for i in range(n):
            for j in range(i + 1, n):
                expected = 1 if (i, j) in pairs else 0
                got = sympl_form(vecs[i], vecs[j])
                if got != expected:
                    raise ValueError(f"pairing ({i},{j}) is {got}, expected {expected}")
        if rref(vecs).dim != n:
            raise ValueError("frame vectors do not form a basis")


def symplectic_extend(v) -> SymplecticFrame:
    """Deterministic symplectic frame through v.

    w_1 = e_j / (bar v)_j for the smallest j with (bar v)_j nonzero; remaining
    standard basis vectors are projected off the pair via
    u -> u - (bar v|u) w_1 + (bar w_1|u) v and the construction recurses on the
    projected complement, pairing smallest-index-first with pairings
    normalized to 1.
    """
    v = vec(v)
    n = len(v)
    require_even(n)
    if all(x == 0 for x in v):
        raise ValueError("cannot extend the zero vector to a symplectic frame")

    def extend(v0, candidates):
        bv = bar(v0)
        pivot = None
        for u in candidates:
            pairing = dot(bv, u)
            if pairing:
                pivot = (u, pairing)
                break
        if pivot is None:
            raise ValueError("degenerate pairing while extending the frame")
        u1, pairing = pivot
        w1 = tuple(x / pairing for x in u1)
        bw1 = bar(w1)
        projected = []
        for u in candidates:
            coeff_v = dot(bv, u)
            coeff_w = dot(bw1, u)
            proj = tuple(x - coeff_v * y + coeff_w * z for x, y, z in zip(u, w1, v0))
            if any(proj):
                projected.append(proj)
        return w1, projected

    units = [tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)]
    w1, rest = extend(v, units)
    ws = [w1]
    while rest:
        v_next = rest[0]
        w_next, rest = extend(v_next, rest[1:])
        ws.append(v_next)
        ws.append(w_next)
    frame = SymplecticFrame(v, tuple(ws))
    frame.validate()
    return frame


# ---------------------------------------------------------------------------
# fiber-level map matrices


@dataclass(frozen=True)
class MapId:
    """One of the structural maps: pi(p), T(p), theta_tilde(p), f(p)."""

    name: str  # "pi" | "T" | "theta" | "f"
    p: int

    def __str__(self):
        return f"{self.name}({self.p})"


def pi(p: int) -> MapId:
    return MapId("pi", p)


def T(p: int) -> MapId:
    return MapId("T", p)


def theta_tilde(p: int) -> MapId:
    return MapId("theta", p)


def f(p: int) -> MapId:
    return MapId("f", p)


def map_degrees(map_id: MapId, n: int) -> tuple:
    """(source degree, target degree) of the map on exterior powers."""
    p = map_id.p
    if map_id.name == "pi":
        if not 0 <= p <= n - 1:
            raise ValueError(f"pi({p}) needs 0 <= p <= {n - 1}")
        return p, p + 1
    if map_id.name == "T":
        if not 1 <= p <= n:
            raise ValueError(f"T({p}) needs 1 <= p <= {n}")
        return p, p - 1
    if map_id.name == "theta":
        if not 2 <= p <= n:
            raise ValueError(f"theta_tilde({p}) needs 2 <= p <= {n}")
        return p, p - 2
    if map_id.name == "f":
        if not 0 <= p <= n - 1:
            raise ValueError(f"f({p}) needs 0 <= p <= {n - 1}")
        return p, p
    raise ValueError(f"unknown map {map_id.name!r}")


def _map_matrix_scaled(map_id: MapId, n: int, kq: tuple) -> tuple:
    """Integer matrix of the map evaluated at the scaled shift q(k + beta).

    Equals q^h times the exact matrix, h the degree of its entries in
    k + beta: 1 for pi and T, 0 for theta_tilde, 2 for f.
    """
    p = map_id.p
    if map_id.name == "pi":
        return wedge_matrix(n, p, kq)
    if map_id.name == "T":
        return interior_matrix(n, p, bar(kq))
    if map_id.name == "theta":
        return theta_matrix(n, p)
    # f(p) = T(p+1) o pi(p) = derivation action of K bar(K)^T
    return fiber_space(n, Lambda(p)).rank_one_action(kq)[0]


# ---------------------------------------------------------------------------
# module-map verification


def verify_module_map(
    map_id: MapId,
    spec: ActionSpec,
    window: Window,
) -> CheckResult:
    """PASS when the map intertwines every in-window fiber action.

    Checks map(k+r) o act(k -> k+r) = act'(k -> k+r) o map(k) for all degrees
    k in the window and all generators with k + r still inside; pairs whose
    target leaves the window are skipped.

    The sweep is exact: matrices are scaled to integers by the beta
    denominator and compared entrywise, in int64 where an a-priori bound
    shows that nothing overflows and in Python ints (dtype object) elsewhere.
    """
    if spec.kind is not AlgebraKind.H:
        raise ValueError("module-map verification is defined for the Hamiltonian action")
    n = spec.n
    src_p, tgt_p = map_degrees(map_id, n)
    gens = default_generators(spec.kind, n)
    rec = Recorder(
        "module-map",
        {"map": str(map_id), "N": n, "beta": format_vector(spec.beta), "d": window.d},
    )
    src_table = edge_table(spec.with_fiber(Lambda(src_p)), window, gens)
    tgt_table = edge_table(spec.with_fiber(Lambda(tgt_p)), window, gens)
    if any(scale != 1 for scale in src_table.scale + tgt_table.scale):
        raise RuntimeError("exterior-power derivations are not integral")
    degs = src_table.degs
    mats = [_map_matrix_scaled(map_id, n, spec.scaled_shift(k)) for k in degs]
    max_phi = max((abs(x) for m in mats for row in m for x in row), default=0)
    phi = np.array(mats, dtype=np.int64 if fits_int64(max_phi) else object)
    inner = max(src_table.dim, tgt_table.dim)
    for gi, (g, qd_src, qd_tgt) in enumerate(zip(gens, src_table.qd, tgt_table.qd)):
        srcs = np.flatnonzero(src_table.inbox[:, gi])
        rec.counts["skipped"] += len(degs) - len(srcs)
        if not len(srcs):
            continue
        cs = src_table.cq[srcs, gi].tolist()
        # a-priori bound on the entries of the integer identity below
        max_c = max(map(abs, cs))
        max_qd = max(int(np.abs(qd_src).max(initial=0)), int(np.abs(qd_tgt).max(initial=0)))
        bound = max(max_qd, max_c * 2 * max_phi + inner * max_phi * max_qd)
        dtype = np.int64 if fits_int64(bound) else object
        a = phi[srcs + src_table.offset[gi]].astype(dtype, copy=False)
        b = phi[srcs].astype(dtype, copy=False)
        c = np.array(cs, dtype=dtype)[:, None, None]
        qd_src = qd_src.astype(dtype, copy=False)
        qd_tgt = qd_tgt.astype(dtype, copy=False)
        # q^{h+1} * (commutation defect) expressed with integer matrices
        lhs = c * (a - b) + (a @ qd_src - qd_tgt @ b)
        if np.any(lhs):
            bad = np.argwhere(np.any(lhs, axis=(1, 2)))[:, 0]
            for idx in bad[:8]:
                k = degs[srcs[int(idx)]]
                rec.record(
                    False,
                    degree=k,
                    expected="intertwines",
                    actual="defect",
                    note=f"generator {g.label()}",
                )
            rec.counts["fail"] += max(0, len(bad) - 8)
            rec.counts["pass"] += len(srcs) - len(bad)
        else:
            rec.counts["pass"] += len(srcs)
    if not rec.failed:
        rec.record(
            True,
            expected="intertwines everywhere",
            actual="intertwines everywhere",
            note=f"{len(gens)} generators over {len(degs)} degrees",
        )
    return rec.result()


# ---------------------------------------------------------------------------
# family builders


class FamilyKind(enum.Enum):
    MIN = "MIN"
    FULLW = "FULLW"
    INT = "INT"
    MAX = "MAX"

    def __str__(self):
        return self.value


class SpecialFiberPolicy(enum.Enum):
    """What to place at the single degree with k + beta = 0."""

    OMIT = "OMIT"
    FULL = "FULL"

    def __str__(self):
        return self.value


def _family_fibers(kind: FamilyKind, p: int, space: FiberSpace, directions: list) -> list:
    """The family's fibers at nonzero shifts q(k + beta), in the space's
    coordinates.  Each defining map is a sum of fixed integer matrices with
    coefficients in K, so one product builds the matrices of every shift and
    one stacked elimination per stage takes their images or kernels."""
    n = space.n
    ks = np.array(directions, dtype=object).reshape(len(directions), n)
    if kind in (FamilyKind.MIN, FamilyKind.MAX):
        # K bar(K)^T = sum over pairs (a, b) of K_a K_b P_ab
        pairs, _, tensor = space.rank_one_actions(True)
        a, b = np.array(pairs, dtype=np.intp).T
        coeffs = ks[:, a] * ks[:, b]
    elif kind is FamilyKind.FULLW and p >= 1:
        coeffs, tensor = ks, np.array([wedge_matrix(n, p - 1, e) for e in identity(n)], dtype=np.int64)
    elif kind is FamilyKind.INT and p <= n - 1:
        # the contraction against bar(K) = sum_a K_a bar(e_a)
        coeffs, tensor = ks, np.array([interior_matrix(n, p + 1, bar(e)) for e in identity(n)],
                                      dtype=np.int64)
    else:
        raise ValueError(f"no {kind} family at p = {p} for N = {n}")
    mats = int_matmul(coeffs, tensor.reshape(len(tensor), -1)).reshape(len(ks), *tensor.shape[1:])
    if kind is FamilyKind.MAX:
        return subspaces(kernel_stack(mats))
    images = echelon_stack(mats.transpose(0, 2, 1))
    return subspaces(images) if kind is FamilyKind.MIN else space.from_lambda(images)


# directions eliminated in one stack: bounds the stacks' transient memory,
# about 13 kB per direction at N = 6, at no cost in speed
STACK_ITEMS = 1024


@lru_cache(maxsize=256)
def _build_family_cached(
    kind: FamilyKind,
    p: int,
    spec: ActionSpec,
    window: Window,
    policy: SpecialFiberPolicy,
) -> GradedFamily:
    """The family's fibers, built once per primitive direction of
    q(k + beta): the fiber depends on K only up to a nonzero scalar, and its
    canonical ``Subspace`` is shared by every degree along that direction."""
    if spec.fiber not in (Lambda(p), Fund(p)):
        raise ValueError(f"a degree-{p} family lives on Lambda({p}) or Fund({p}), not {spec.fiber}")
    space = spec.space()
    directions = {}  # primitive direction, up to sign -> its place in the stack
    places = {}  # degree -> the place of its direction, None where K = 0
    for k in window.degrees():
        kq = spec.scaled_shift(k)
        places[k] = directions.setdefault(_primitive(kq), len(directions)) if any(kq) else None
    stack = list(directions)
    built = [fiber for start in range(0, len(stack), STACK_ITEMS)
             for fiber in _family_fibers(kind, p, space, stack[start : start + STACK_ITEMS])]
    fibers = {}
    for k, place in places.items():
        if place is not None:
            fibers[k] = built[place]
        elif policy is SpecialFiberPolicy.FULL:
            # the hat variants carry the whole representation fiber here
            fibers[k] = Subspace.full(space.dim)
    return GradedFamily(spec, window, fibers)


def build_family(
    kind: FamilyKind,
    p: int,
    spec: ActionSpec,
    window: Window,
    policy: SpecialFiberPolicy = SpecialFiberPolicy.OMIT,
) -> GradedFamily:
    """The graded family of the given kind on the spec's fiber type.

    With a Lambda(p) fiber the result lives on exterior-power coordinates;
    with a Fund(p) fiber it is the restricted family, on the pivot-1
    coordinates of the contraction kernel.  The policy decides the single
    degenerate fiber: OMIT is the plain family, FULL the hat variant.
    """
    if spec.fiber.kind == "lambda" and spec.fiber.p != p:
        spec = spec.with_fiber(Lambda(p))
    return _build_family_cached(FamilyKind(kind), p, spec, window, SpecialFiberPolicy(policy))


def quotient_dims(outer: GradedFamily, inner: GradedFamily) -> dict:
    """Per-degree dim(outer) - dim(inner); containment is checked first."""
    if outer.window != inner.window:
        raise ValueError("families live on different windows")
    out = {}
    for k in outer.window.degrees():
        o = outer.fiber(k)
        i = inner.fiber(k)
        if not o.contains(i):
            raise RuntimeError(f"containment violated at degree {k}")
        out[k] = o.dim - i.dim
    return out
