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
sign, and degrees along one direction share it.  ``map_stack``, the one
builder of the structural maps, gives the matrices of all directions as one
integer product (MIN and MAX read f(p) off the fiber space's own
``rank_one_stack``), and ``exact_linalg.echelon_stack`` eliminates the whole
stack at once, per stage: the image or kernel, then on Fund(p) the theta cut
for FULLW and INT.

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
    contained,
    dot,
    echelon_stack,
    format_vector,
    identity,
    int_affine,
    int_matmul,
    kernel_stack,
    max_abs,
    packed,
    rref,
    vec,
)
from .exterior_algebra import (
    theta_matrix,
    unit_contractions,
    unit_wedges,
)
from .graded_modules import (
    ActionSpec,
    STACK_ITEMS,
    FiberSpace,
    Fund,
    GradedFamily,
    Lambda,
    Window,
    default_generators,
    directions,
    edge_table,
    fiber_space,
    place_tuples,
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


def map_stack(map_id: MapId, n: int, kqs: np.ndarray) -> np.ndarray:
    """The map's integer matrix at every scaled shift K = q(k + beta) in the
    rows of ``kqs``, as one (B, rows, cols) stack.

    Each matrix is q^h times the exact one, h the degree of its entries in
    k + beta: 1 for pi and T, 0 for theta_tilde, 2 for f.  pi and T are
    linear in K, so they are one product of the shifts with the map at the
    unit vectors; theta_tilde is constant; f(p) = T(p+1) o pi(p) is the
    derivation action of K bar(K)^T, one ``rank_one_stack``.
    """
    src, _ = map_degrees(map_id, n)
    if map_id.name == "theta":
        theta = np.array(theta_matrix(n, src), dtype=np.int64)
        return np.broadcast_to(theta, (len(kqs), *theta.shape))
    if map_id.name == "f":
        return fiber_space(n, Lambda(src)).rank_one_stack(kqs)
    if map_id.name == "pi":
        units = unit_wedges(n, src)
    else:  # the contraction against bar(K) = sum_a K_a bar(e_a)
        bars = np.array([bar(e) for e in identity(n)], dtype=np.int64)
        units = np.tensordot(bars, unit_contractions(n, src), 1)
    return int_matmul(kqs, units.reshape(n, -1)).reshape(len(kqs), *units.shape[1:])


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
    target leaves the window are skipped, and a window where every pair
    leaves is refused.

    The sweep is exact: the map comes from ``map_stack`` and the actions
    from the edge tables, all scaled to integers by the beta denominator,
    and the two sides are ``int_affine`` products compared entrywise, for
    up to ``STACK_ITEMS`` (degree, generator) pairs at once.
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
    if src_table.scale != 1 or tgt_table.scale != 1:
        raise RuntimeError("exterior-power derivations are not integral")
    degs = src_table.degs
    phi = map_stack(map_id, n, spec.scaled_shifts(window))
    # the in-window (degree, generator) pairs, generator-major
    gis, srcs = np.nonzero(src_table.inbox.T)
    if not len(gis):
        raise ValueError(f"window d={window.d} has no in-window map: the check would compare nothing")
    failing: dict = {}  # generator index -> the degrees where its square fails
    # the magnitudes of the whole sweep, read once
    top_c, top_phi = max_abs(src_table.cq), max_abs(phi)
    src_tops = (top_c, top_phi, max_abs(src_table.qd))
    tgt_tops = (top_c, top_phi, max_abs(tgt_table.qd))
    for start in range(0, len(gis), STACK_ITEMS):
        g, i = gis[start : start + STACK_ITEMS], srcs[start : start + STACK_ITEMS]
        cs = src_table.cq[i, g]
        # q^{h+1} times each side of the intertwining identity
        lhs = int_affine(cs, phi[i + src_table.offset[g]], src_table.qd[g], src_tops)
        rhs = int_affine(cs, phi[i].transpose(0, 2, 1), tgt_table.qd[g].transpose(0, 2, 1), tgt_tops)
        bad = (lhs != rhs.transpose(0, 2, 1)).any(axis=(1, 2))
        for gi, k in zip(g[bad].tolist(), i[bad].tolist()):
            failing.setdefault(gi, []).append(degs[k])
    rec.counts["skipped"] += len(degs) * len(gens) - len(gis)
    for gi, (g, count) in enumerate(zip(gens, src_table.inbox.sum(axis=0).tolist(), strict=True)):
        bad = failing.get(gi, [])
        for k in bad[:8]:
            rec.record(False, degree=k, expected="intertwines", actual="defect",
                       note=f"generator {g.label()}")
        rec.counts["fail"] += max(0, len(bad) - 8)
        rec.counts["pass"] += count - len(bad)
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


def _family_fibers(kind: FamilyKind, p: int, space: FiberSpace, directions: np.ndarray) -> np.ndarray:
    """The canonical rows of the family's fibers at the shifts
    q(k + beta) != 0 in the rows of ``directions``, in the space's
    coordinates: one stack of its defining map's matrices, f(p) on the space
    itself for MIN and MAX, pi(p-1) for FULLW and T(p+1) for INT, then one
    stacked elimination per stage."""
    if kind in (FamilyKind.MIN, FamilyKind.MAX):
        mats = space.rank_one_stack(directions)
    else:
        mats = map_stack(pi(p - 1) if kind is FamilyKind.FULLW else T(p + 1), space.n, directions)
    if kind is FamilyKind.MAX:
        return packed(kernel_stack(mats))
    images = echelon_stack(mats.transpose(0, 2, 1))
    return images if kind is FamilyKind.MIN else space.from_lambda(images)


@lru_cache(maxsize=256)
def _build_family_cached(
    kind: FamilyKind,
    p: int,
    spec: ActionSpec,
    window: Window,
    policy: SpecialFiberPolicy,
) -> GradedFamily:
    """The family's fibers, built once per primitive direction of
    q(k + beta): the fiber depends on K only up to a nonzero scalar, so each
    direction is one block, which every degree along it reads."""
    if spec.fiber not in (Lambda(p), Fund(p)):
        raise ValueError(f"a degree-{p} family lives on Lambda({p}) or Fund({p}), not {spec.fiber}")
    space = spec.space()
    live, place, stack = directions(spec.scaled_shifts(window))
    blocks = [block for start in range(0, len(stack), STACK_ITEMS)
              for block in _family_fibers(kind, p, space, stack[start : start + STACK_ITEMS])]
    at = np.full(len(window.degrees()), -1, dtype=np.intp)
    at[live] = place
    if policy is SpecialFiberPolicy.FULL and (at < 0).any():
        # the hat variants carry the whole representation fiber where K = 0
        at[at < 0] = len(blocks)
        blocks.append(identity(space.dim))
    return GradedFamily.from_blocks(spec, window, at, blocks)


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
    """Per-degree dim(outer) - dim(inner); containment is checked first,
    once per distinct pair of blocks."""
    if outer.window != inner.window:
        raise ValueError("families live on different windows")
    degs = outer.window.degrees()
    pairs, which = place_tuples((outer, inner), slice(None))
    bad = np.flatnonzero(~contained(inner.rows[pairs[:, 1]], outer.anns[pairs[:, 0]])[which])
    if bad.size:
        raise RuntimeError(f"containment violated at degree {degs[bad[0]]}")
    return dict(zip(degs, (outer.dims - inner.dims).tolist()))
