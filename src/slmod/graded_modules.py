"""Graded Shen-Larsson module engine: fiber operators, windows, closure.

A module V (x) Q[t_1^{+-1}, ..., t_N^{+-1}] is handled one degree k at a time.
Every generator of the acting algebra moves the fiber at k to the fiber at
k + r through a matrix c * Id + D, where c is a pairing against k + beta and D
is the derivation action of a rank-one matrix on the fiber representation:

    h_r     : c = (bar r | k + beta),  D = action of r bar(r)^T   (Hamiltonian)
    D(u, r) : c = (u | k + beta),      D = action of r u^T        (Witt / div-free)

Degree derivations act on each fiber by a scalar and never move fibers, so a
grade shift alpha changes no family, closure or verdict and is not modelled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import Iterable

import numpy as np

from .exact_linalg import (
    IntSpan,
    Subspace,
    _int_matrix,
    dot,
    echelon_stack,
    fits_int64,
    format_vector,
    frac,
    from_triplets,
    int_matmul,
    kernel_stack,
    mat_vec,
    subspaces,
)
from .exterior_algebra import (
    ext_dim,
    fundamental_subspace,
    gl_action_matrix,
    sym_action_matrix,
    sym_dim,
    theta_matrix,
)
from .reports import CheckResult, Recorder
from .torus_lie import AlgebraKind, bar, degree_box, rank_one, rank_one_sym, require_even

Degree = tuple


# ---------------------------------------------------------------------------
# fiber types and their coordinate spaces


@dataclass(frozen=True)
class FiberType:
    kind: str  # "lambda" | "fund" | "sym2" | "scalar"
    p: int = 0

    def __str__(self):
        if self.kind == "lambda":
            return f"Lambda({self.p})"
        if self.kind == "fund":
            return f"Fund({self.p})"
        return self.kind.capitalize()


def Lambda(p: int) -> FiberType:
    return FiberType("lambda", p)


def Fund(p: int) -> FiberType:
    return FiberType("fund", p)


def Sym2() -> FiberType:
    return FiberType("sym2")


def ScalarFiber() -> FiberType:
    return FiberType("scalar")


class FiberSpace:
    """Coordinate space of one fiber type, with the derivation action on it.

    Fundamental fibers use the pivot-1 basis of the contraction kernel, so a
    coordinate vector is read off the pivot entries of its ambient image
    (``from_lambda``).  The integer action matrices returned by
    ``action_matrix_int`` and ``rank_one_action`` are ``scale`` times the
    exact ones, ``scale`` being the lcm of the pivot entries of the primitive
    kernel rows (1 off Fund); the multiple cancels everywhere an image or
    kernel is taken.
    """

    def __init__(self, n: int, fiber: FiberType):
        self.n = n
        self.fiber = fiber
        self._rank_one: dict = {}
        self.scale = 1
        if fiber.kind == "scalar":
            self.dim = 1
        elif fiber.kind == "lambda":
            self.dim = ext_dim(n, fiber.p)
        elif fiber.kind == "sym2":
            self.dim = sym_dim(n)
        elif fiber.kind == "fund":
            require_even(n)
            self._fund = fundamental_subspace(n, fiber.p)
            self.dim = self._fund.dim
            self.scale = lcm(*(row[pc] for row, pc in zip(self._fund.rows, self._fund.pivots)))
            # the contraction Lambda^p -> Lambda^{p-2}, with no rows below p = 2
            theta = theta_matrix(n, fiber.p) if fiber.p >= 2 else ()
            self._theta = np.array(theta, dtype=np.int64).reshape(len(theta), ext_dim(n, fiber.p))
        else:
            raise ValueError(f"unknown fiber kind {fiber.kind!r}")

    # -- actions ----------------------------------------------------------

    def action_matrix_int(self, a) -> tuple:
        """Integer matrix equal to ``scale`` times the exact action."""
        kind = self.fiber.kind
        if kind == "scalar":
            return ((0,),), 1
        if kind == "lambda":
            return gl_action_matrix(self.n, self.fiber.p, a), 1
        if kind == "sym2":
            return sym_action_matrix(self.n, a), 1
        return self._restricted_action(a)

    def rank_one_actions(self, symplectic: bool) -> tuple:
        """Integer actions of the elementary rank-one matrices, built once per
        fiber space and kept on it.

        Returns ``(pairs, actions, dense)``.  Symplectic: for (a, b) in
        ``pairs`` (a <= b) the action of P_aa = e_a bar(e_a)^T, resp. of
        P_ab = e_a bar(e_b)^T + e_b bar(e_a)^T, so that
        x bar(x)^T = sum over pairs of x_a x_b P_ab.  Otherwise every (a, b)
        with the action of E_ab = e_a e_b^T, so that x y^T = sum x_a y_b E_ab.
        ``actions[e][i]`` lists the nonzero ``(j, v)`` of row i of the e-th
        action, times ``scale`` as in ``action_matrix_int``, and ``dense`` is
        the int64 (pairs, dim, dim) array of the same actions.  Every
        P_ab lies in sp, so on Fund(p) the kernel guard runs once per entry.
        """
        table = self._rank_one.get(symplectic)
        if table is None:
            n = self.n
            units = _unit_vectors(n)
            if symplectic:
                pairs = tuple((a, b) for a in range(n) for b in range(a, n))
            else:
                pairs = tuple((a, b) for a in range(n) for b in range(n))
            dense = []
            for a, b in pairs:
                if symplectic:
                    # e_x bar(e_y)^T over {(a, b), (b, a)}: one term when a == b
                    m = from_triplets(n, n, [(x, j, v) for x, y in {(a, b), (b, a)}
                                             for j, v in enumerate(bar(units[y])) if v])
                else:
                    m = rank_one(units[a], units[b])
                dense.append(self.action_matrix_int(m)[0])
            actions = tuple(tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in rows)
                            for rows in dense)
            dense = np.array(dense, dtype=np.int64).reshape(len(pairs), self.dim, self.dim)
            table = self._rank_one[symplectic] = (pairs, actions, dense)
        return table

    def rank_one_action(self, x, y=None) -> tuple:
        """``(rows, scale)``: the integer action of x bar(x)^T when ``y`` is
        None and of x y^T otherwise, summed over ``rank_one_actions``."""
        pairs, actions, _ = self.rank_one_actions(y is None)
        if y is None:
            y = x
        m = [[0] * self.dim for _ in range(self.dim)]
        for (a, b), act in zip(pairs, actions):
            c = x[a] * y[b]
            if c:
                for mrow, arow in zip(m, act):
                    for j, v in arow:
                        mrow[j] += c * v
        return tuple(map(tuple, m)), self.scale

    def _restricted_action(self, a) -> tuple:
        p = self.fiber.p
        full = gl_action_matrix(self.n, p, a)
        basis = self._fund.rows
        pivots = self._fund.pivots
        cols = []
        for brow, bpiv in zip(basis, pivots):
            img = mat_vec(full, brow)  # = b_piv * (action of pivot-1 basis vector)
            if not self._fund.contains_vector(img):
                raise ValueError("matrix action does not preserve the contraction kernel")
            # coords of img/b_piv are its pivot entries / b_piv; scale to ints
            cols.append([img[pc] * (self.scale // brow[bpiv]) for pc in pivots])
        dim = self.dim
        return tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim)), self.scale

    # -- exterior-power subspaces in this space's coordinates ---------------

    def from_lambda(self, stack: np.ndarray) -> list:
        """The parts of a (B, r, dim Lambda^p) stack of row spaces inside this
        space: one canonical ``Subspace`` per item, in this space's coordinates.

        Off Fund that is each item's row space.  On Fund(p) it is the row
        space intersected with the contraction kernel: the vectors
        sum_i u_i a_i over the item's rows a_i with theta A^T u = 0, one kernel
        taken for the whole stack, mapped back through the rows at the kernel
        basis' pivot columns only, which are the Fund coordinates.
        """
        if self.fiber.kind != "fund":
            return subspaces(stack)
        us = kernel_stack(int_matmul(self._theta, stack.transpose(0, 2, 1)))
        return subspaces(echelon_stack(int_matmul(us, stack[:, :, list(self._fund.pivots)])))


@lru_cache(maxsize=None)
def fiber_space(n: int, fiber: FiberType) -> FiberSpace:
    return FiberSpace(n, fiber)


# ---------------------------------------------------------------------------
# the action specification


@dataclass(frozen=True)
class ActionSpec:
    """Which algebra acts, on which fiber type, with which beta."""

    kind: AlgebraKind
    n: int
    fiber: FiberType
    beta: tuple
    # q, the beta denominator, and q * beta as plain ints
    q: int = field(init=False, repr=False, compare=False)
    qbeta: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = lcm(*(frac(b).denominator for b in self.beta)) if self.beta else 1
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "qbeta", tuple(int(q * b) for b in self.beta))

    @staticmethod
    def make(kind, n: int, fiber: FiberType, beta=None) -> "ActionSpec":
        kind = AlgebraKind(kind)
        beta = tuple(frac(b) for b in (beta if beta is not None else [0] * n))
        if len(beta) != n:
            raise ValueError("beta must have length N")
        if kind is AlgebraKind.H:
            require_even(n)
        if fiber.kind == "fund":
            # only the Hamiltonian action preserves the contraction kernel
            if kind is not AlgebraKind.H:
                raise ValueError(f"Fund(p) fibers need the Hamiltonian algebra, not {kind.value}")
            if not 1 <= fiber.p <= n // 2:
                raise ValueError(f"Fund(p) needs 1 <= p <= {n // 2}")
        if fiber.kind == "lambda" and not 0 <= fiber.p <= n:
            raise ValueError(f"Lambda(p) needs 0 <= p <= {n}")
        return ActionSpec(kind, n, fiber, beta)

    def with_fiber(self, fiber: FiberType) -> "ActionSpec":
        return ActionSpec.make(self.kind, self.n, fiber, self.beta)

    def scaled_shift(self, k: Degree) -> tuple:
        """q * (k + beta) as an integer vector, q the beta denominator."""
        return tuple(self.q * ki + bi for ki, bi in zip(k, self.qbeta))

    def space(self) -> FiberSpace:
        return fiber_space(self.n, self.fiber)

    def is_special(self, k: Degree) -> bool:
        """Whether k + beta = 0 (the one fiber every formula degenerates at)."""
        return all(ki + bi == 0 for ki, bi in zip(k, self.beta))

    def special_degree(self) -> Degree | None:
        """The degree k with k + beta = 0 as an int tuple when beta is
        integral, else None (no degree is special)."""
        if self.q != 1:
            return None
        return tuple(-b for b in self.qbeta)


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class Generator:
    """h(r) for the Hamiltonian algebra, D(u, r) for Witt/divergence-free."""

    r: tuple
    u: tuple | None = None

    def label(self) -> str:
        if self.u is None:
            return f"h{list(self.r)}"
        return f"D({list(self.u)},{list(self.r)})"


def gen_h(r) -> Generator:
    return Generator(tuple(int(x) for x in r))


def gen_d(u, r) -> Generator:
    return Generator(tuple(int(x) for x in r), tuple(int(x) for x in u))


def _check_generator(spec: ActionSpec, gen: Generator):
    if spec.kind is AlgebraKind.H:
        if gen.u is not None:
            raise ValueError("the Hamiltonian algebra acts through h(r) generators")
    else:
        if gen.u is None:
            raise ValueError(f"kind {spec.kind} acts through D(u, r) generators")
        if spec.kind is AlgebraKind.S and dot(gen.u, gen.r) != 0:
            raise ValueError("divergence-free generators require (u|r) = 0")


@lru_cache(maxsize=None)
def _unit_vectors(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@lru_cache(maxsize=None)
def default_generators(kind: AlgebraKind, n: int, bound: int = 1) -> tuple:
    """The generator sample set built from the degree box max|r_i| <= bound."""
    gens = []
    if kind is AlgebraKind.H:
        for r in degree_box(n, bound):
            gens.append(gen_h(r))
    elif kind is AlgebraKind.W:
        for r in degree_box(n, bound):
            for u in _unit_vectors(n):
                gens.append(gen_d(u, r))
    else:
        from .torus_lie import _perp_basis

        for r in degree_box(n, bound):
            for u in _perp_basis(r):
                gens.append(gen_d(u, r))
    return tuple(gens)


def edge_scalar(spec: ActionSpec, gen: Generator, k: Degree) -> Fraction:
    """The pairing coefficient c of the fiber map at degree k."""
    shift = tuple(frac(ki) + bi for ki, bi in zip(k, spec.beta))
    if spec.kind is AlgebraKind.H:
        return frac(dot(bar(gen.r), shift))
    return frac(dot(gen.u, shift))


def fiber_action(spec: ActionSpec, gen: Generator, k: Degree):
    """Exact matrix of the fiber map fiber(k) -> fiber(k + r), from the dense
    ``action_matrix_int`` of the rank-one matrix rather than the action table."""
    _check_generator(spec, gen)
    c = edge_scalar(spec, gen, k)
    a = rank_one_sym(gen.r) if gen.u is None else rank_one(gen.r, gen.u)
    rows, scale = spec.space().action_matrix_int(a)
    dim = spec.space().dim
    return tuple(
        tuple((c if i == j else 0) + Fraction(rows[i][j], scale) for j in range(dim))
        for i in range(dim)
    )


# ---------------------------------------------------------------------------
# windows and graded families


@dataclass(frozen=True)
class Window:
    n: int
    d: int

    def degrees(self) -> tuple:
        return _window_degrees(self.n, self.d)

    def __contains__(self, k: Degree) -> bool:
        return len(k) == self.n and all(abs(x) <= self.d for x in k)

    def is_interior(self, k: Degree) -> bool:
        return all(abs(x) <= self.d - 1 for x in k)

    def interior_degrees(self) -> tuple:
        return tuple(k for k in self.degrees() if self.is_interior(k))


@lru_cache(maxsize=None)
def _window_degrees(n: int, d: int) -> tuple:
    return tuple(product(range(-d, d + 1), repeat=n))


class GradedFamily:
    """A finite window of fibers: degree -> canonical subspace of the fiber."""

    def __init__(self, spec: ActionSpec, window: Window, fibers: dict | None = None):
        self.spec = spec
        self.window = window
        self.fibers: dict = {}
        dim = spec.space().dim
        self._zero = Subspace.zero(dim)
        for k, sub in (fibers or {}).items():
            if tuple(k) not in window:
                raise ValueError(f"degree {k} outside the window")
            if sub.ambient_dim != dim:
                raise ValueError("fiber ambient dimension differs from the fiber type")
            if sub.dim:
                self.fibers[tuple(k)] = sub

    def fiber(self, k: Degree) -> Subspace:
        return self.fibers.get(tuple(k), self._zero)

    def dims(self) -> dict:
        return {k: self.fiber(k).dim for k in self.window.degrees()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedFamily)
            and self.spec == other.spec
            and self.window == other.window
            and all(self.fiber(k) == other.fiber(k) for k in self.window.degrees())
        )

    def __repr__(self):
        nonzero = sum(1 for s in self.fibers.values() if s.dim)
        return f"GradedFamily({self.spec.kind}, {self.spec.fiber}, nonzero fibers={nonzero})"


# ---------------------------------------------------------------------------
# closure and invariance


class EdgeTable:
    """Every in-window fiber map of one spec, window and generator tuple, in
    integer arrays over the mixed-radix numbering of ``window.degrees()``.

    Generator g moves degree index i to i + ``offset[g]``, offset[g] =
    sum_a r_a (2d+1)^(N-1-a), when the box mask ``inbox[i, g]`` holds: every
    coordinate of degs[i] + r lies in [-d, d].  Its map there is c * Id + D;
    the table keeps ``q * scale * (c * Id + D)``, a positive multiple with
    the same images, with ``cq[i, g]`` = q * c from one product of the
    shifts q(k + beta) with the pairing vectors (bar(r) for H, u otherwise).
    ``edges(i)`` gathers the maps leaving degree i, in generator order;
    ``skipped[i]`` counts the maps that leave the window.  The derivation
    rows ``scale * D`` are kept times q, sparse in ``qdrows`` for ``apply``
    and as one dense block per generator in ``qd`` for ``fiber_escapes``.
    """

    def __init__(self, spec: ActionSpec, window: Window, gens: tuple):
        for g in gens:
            _check_generator(spec, g)
        self.gens = gens
        self.q = q = spec.q
        self.degs = window.degrees()
        self.index = {k: i for i, k in enumerate(self.degs)}
        n, d = spec.n, window.d
        ks = np.array(self.degs, dtype=np.int64)
        r = np.array([g.r for g in gens], dtype=np.int64).reshape(len(gens), n)
        self.offset = r @ (2 * d + 1) ** np.arange(n - 1, -1, -1)
        # fits[v + d, a, g]: coordinate a of value v stays in [-d, d] under
        # gens[g]; gathered one coordinate at a time, since a (degrees, gens,
        # N) temporary would not fit at N = 6
        fits = np.abs(np.arange(-d, d + 1)[:, None, None] + r.T) <= d
        self.inbox = fits[ks[:, 0] + d, 0]
        for a in range(1, n):
            self.inbox &= fits[ks[:, a] + d, a]
        self.skipped = (len(gens) - self.inbox.sum(1)).tolist()
        pairing = [bar(g.r) if spec.kind is AlgebraKind.H else g.u for g in gens]
        dtype = np.int64 if fits_int64(q * d + max(map(abs, spec.qbeta))) else object
        self.cq = int_matmul(q * ks.astype(dtype) + np.array(spec.qbeta, dtype=dtype),
                             np.array(pairing, dtype=np.int64).reshape(len(gens), n).T)
        space = spec.space()
        self.dim = space.dim
        self.scale = []
        self.qdrows = []
        dense = []
        for g in gens:
            drows, scale = space.rank_one_action(g.r, g.u)
            self.scale.append(scale)
            self.qdrows.append(
                tuple(tuple((j, q * v) for j, v in enumerate(row) if v) for row in drows)
            )
            dense.append([[q * v for v in row] for row in drows])
        self.qd = int_blocks(dense, self.dim)

    def edges(self, i: int) -> tuple:
        """``(gis, js, cqs)``: the generator, target index and cq of every
        map leaving degree index i for the window, in generator order."""
        gis = self.inbox[i].nonzero()[0]  # a few numpy calls: this runs on every closure visit
        return gis.tolist(), (self.offset[gis] + i).tolist(), self.cq[i][gis].tolist()

    def apply(self, gi: int, cq: int, rows) -> list:
        """Nonzero images of integer rows under q * scale * (c * Id + D)."""
        a = cq * self.scale[gi]
        qdrows = self.qdrows[gi]
        out = []
        for row in rows:
            img = [a * x + sum([v * row[j] for j, v in dr]) for x, dr in zip(row, qdrows)]
            if any(img):
                out.append(img)
        return out


@lru_cache(maxsize=16)
def edge_table(spec: ActionSpec, window: Window, gens: tuple) -> EdgeTable:
    return EdgeTable(spec, window, gens)


def saturate(table: EdgeTable, seeds: dict, stop=None) -> dict | None:
    """Grow spans from integer seed rows to the fixpoint of the table's maps.

    ``seeds`` maps degree indices to integer rows.  The worklist is FIFO and
    semi-naive: a visit gathers its degree's edges from the box mask, offsets
    and cq (``EdgeTable.edges``) and sends along each only the rows its span
    stored since the last visit.  ``stop(i, spans)`` is asked once for each
    seed degree and again whenever the span at i grows; a true answer ends
    the run with None.  Otherwise returns degree index -> ``IntSpan``.

    A target is settled once images from a later visit than the one that
    last grew it stored nothing there.  A visit tests its rows on every edge
    into a settled target in one ``fiber_escapes`` call against the target's
    annihilator, and only the rows that escape go on to ``apply`` and
    ``IntSpan.add``.  Spans only grow, so a row the annihilator of an older
    span kills is one ``add`` would refuse: the stored rows, ``grow``
    results and ``stop`` calls are those of the run that applies every edge.
    A target that grows drops its annihilator and is unsettled.
    """
    dim = table.dim
    spans: dict = {}
    fresh: dict = {}  # degree index -> stored rows not yet sent along its edges
    queue: deque = deque()
    grown: dict = {}  # degree index -> the visit that last stored a row there
    settled: set = set()
    anns: dict = {}  # settled degree index -> annihilator block, padded to dim rows
    visit = 0

    def grow(i: int, rows) -> bool:
        span = spans.get(i)
        if span is None:
            span = spans[i] = IntSpan(dim)
        new = [row for row in map(span.add, rows) if row is not None]
        if not new:
            return False
        grown[i] = visit
        settled.discard(i)
        anns.pop(i, None)
        if i in fresh:
            fresh[i] += new
        else:
            fresh[i] = new
            queue.append(i)
        return True

    for i, rows in seeds.items():
        grow(i, rows)
        if stop is not None and stop(i, spans):
            return None
    while queue:
        visit += 1
        i = queue.popleft()
        rows = fresh.pop(i)
        gis, js, cqs = table.edges(i)
        escaping = {}  # edge position -> the rows that escape its settled target
        tested = [e for e, j in enumerate(js) if j in settled]
        if tested:
            for j in {js[e] for e in tested} - anns.keys():
                span = spans[j]  # dim - span.dim annihilator rows, padded to dim
                anns[j] = int_blocks(
                    [span.to_subspace().annihilator() + ((0,) * dim,) * span.dim], dim)[0]
            flags = fiber_escapes(int_blocks([rows], dim)[0], np.stack([anns[js[e]] for e in tested]),
                                  [cqs[e] * table.scale[gis[e]] for e in tested],
                                  table.qd[[gis[e] for e in tested]])
            for e, flag in zip(tested, flags.tolist()):
                escaping[e] = [row for row, out in zip(rows, flag) if out]
        for e, (gi, j, cq) in enumerate(zip(gis, js, cqs)):
            span = spans.get(j)
            if span is not None and span.dim == dim:
                continue
            sent = escaping.get(e, rows)
            images = table.apply(gi, cq, sent) if sent else None
            if not images:
                continue
            if grow(j, images):
                if stop is not None and stop(j, spans):
                    return None
            elif grown[j] < visit:
                settled.add(j)
    return spans


def closure(
    spec: ActionSpec,
    seeds: dict,
    window: Window,
    generators: Iterable[Generator] | None = None,
) -> GradedFamily:
    """Smallest window-truncated family containing the seeds and stable under
    every in-window fiber map: ``saturate`` with no stop hook.

    ``seeds`` maps degrees to lists of fiber coordinate vectors.  Action
    targets outside the window are discarded.
    """
    gens = tuple(generators) if generators is not None else default_generators(spec.kind, spec.n)
    table = edge_table(spec, window, gens)
    rows: dict = {}
    for k, vectors in seeds.items():
        k = tuple(k)
        if k not in window:
            raise ValueError(f"seed degree {k} outside the window")
        rows.setdefault(table.index[k], []).extend(_int_matrix(vectors)[0])
    spans = saturate(table, rows)
    fibers = {table.degs[i]: span.to_subspace() for i, span in spans.items() if span.rows}
    return GradedFamily(spec, window, fibers)


def is_invariant(spec: ActionSpec, family: GradedFamily) -> CheckResult:
    """PASS when every in-window fiber map sends each fiber into its target.

    Every in-window edge of one generator into a fiber that is not full is
    one item of ``fiber_escapes``: the source fiber's rows, the target
    fiber's annihilator, cq * scale and the generator's q * D.

    Maps whose target degree leaves the window are reported as skipped, never
    as failures, at every degree whatever its verdict; a failing degree names
    its first escaping generator.
    """
    gens = default_generators(spec.kind, spec.n)
    table = edge_table(spec, family.window, gens)
    rec = Recorder(
        "is-invariant",
        {"kind": str(spec.kind), "N": spec.n, "fiber": str(spec.fiber),
         "beta": format_vector(spec.beta)},
    )
    degs = table.degs
    src = np.array([i for i, k in enumerate(degs) if family.fiber(k).dim], dtype=np.intp)
    # the nonzero fibers' rows and the annihilators of the fibers that are not
    # full, each padded with zero rows to one block shape
    # slot: degree index -> its annihilator block, or -1 at a full fiber
    anns, slot = [], np.full(len(degs), -1, dtype=np.intp)
    for j, k in enumerate(degs):
        ann = family.fiber(k).annihilator()
        if ann:
            slot[j] = len(anns)
            anns.append(ann)
    r_blocks = int_blocks([family.fiber(degs[i]).rows for i in src], table.dim)
    a_blocks = int_blocks(anns, table.dim)
    first = {}  # source block -> its first escaping generator
    for gi in range(len(gens)):
        # the edges of one generator, read off its column of the table, into
        # fibers that are not full: source block and annihilator block
        r = np.flatnonzero(table.inbox[src, gi])
        a = slot[src[r] + table.offset[gi]]
        r, a = r[a >= 0], a[a >= 0]
        if not len(r):
            continue
        cs = [c * table.scale[gi] for c in table.cq[src[r], gi].tolist()]
        bad = fiber_escapes(r_blocks[r], a_blocks[a], cs, table.qd[gi]).any(-1)
        for e in r[bad].tolist():
            first.setdefault(e, gi)
    for s, i in enumerate(src.tolist()):
        k = degs[i]
        rec.counts["skipped"] += table.skipped[i]
        gi = first.get(s)
        if gi is None:
            rec.record(True, degree=k, expected="invariant", actual="invariant")
            continue
        target = [a + b for a, b in zip(k, gens[gi].r)]
        rec.record(False, degree=k, expected="image inside fiber", actual="escapes",
                   note=f"generator {gens[gi].label()} -> degree {target}")
    return rec.result()


def fiber_escapes(rows, anns, cs: list, maps) -> np.ndarray:
    """Which rows of which items leave a fixed fiber: the one fiber
    membership test of every sweep, one flag per (item, row).

    Item e maps the row block R_e through c_e * Id + M_e; an image lies in
    the target fiber exactly when the fiber's annihilator block A_e kills it,
    so row t of item e escapes when column t of A_e (c_e R_e + R_e M_e^T)^T
    is nonzero.  ``rows``,
    ``anns`` and ``maps`` are integer arrays, each either one block that
    every item shares (h x D, a x D, D x D) or one block per item stacked
    along a first axis of length ``len(cs)``; zero rows pad a block freely.
    The products run in int64 when the a-priori bound
    D * max|A| * max|R| * (max|c| + D * max|M|) on every entry and partial
    sum, and every input entry, stay below 2^62, and on dtype=object arrays
    of Python ints otherwise, so no wrapped integer decides a result.
    """
    dim = rows.shape[-1]
    max_r, max_a, max_m = (int(np.abs(x).max(initial=0)) for x in (rows, anns, maps))
    max_c = max(map(abs, cs), default=0)
    bound = dim * max_a * max_r * (max_c + dim * max_m)
    dtype = np.int64 if fits_int64(max(bound, max_r, max_a, max_m, max_c)) else object
    r = rows.astype(dtype, copy=False)
    c = np.array(cs, dtype=dtype)[:, None, None]
    images = c * r + r @ np.swapaxes(maps.astype(dtype, copy=False), -1, -2)
    products = anns.astype(dtype, copy=False) @ np.swapaxes(images, -1, -2)
    return np.any(products, axis=-2)


def int_blocks(row_sets: list, dim: int) -> np.ndarray:
    """Integer row sets stacked into one array, each padded with zero rows;
    in int64 when every entry fits, else in Python ints."""
    top = max((abs(x) for rows in row_sets for row in rows for x in row), default=0)
    height = max(map(len, row_sets), default=0)
    out = np.zeros((len(row_sets), height, dim), dtype=np.int64 if fits_int64(top) else object)
    for block, rows in zip(out, row_sets):
        if rows:
            block[: len(rows)] = rows
    return out
