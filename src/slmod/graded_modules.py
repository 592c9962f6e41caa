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

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import lcm
from types import MappingProxyType
from typing import Iterable, NamedTuple

import numpy as np

from .exact_linalg import (
    Subspace,
    _int_matrix,
    annihilator_stack,
    dot,
    echelon_stack,
    format_vector,
    frac,
    identity,
    int_affine,
    int_blocks,
    int_matmul,
    kernel_stack,
    leads,
    max_abs,
    packed,
    put_ints,
    ranks,
    same_spans,
    subspaces,
)
from .exterior_algebra import (
    ext_dim,
    fundamental_subspace,
    sym_dim,
    theta_matrix,
    unit_contractions,
    unit_products,
    unit_wedges,
)
from .reports import CheckResult, Recorder
from .torus_lie import AlgebraKind, bar, degree_box, require_even

Degree = tuple

# items of one stacked call: directions eliminated at once by ``build_family``,
# (degree, generator) pairs of one module-map product, items of one
# ``fiber_escapes`` call of the invariance sweeps and of a ``closure`` round,
# and the escaping rows a closure merges at once;
# bounds the transient memory, about 13 kB per direction at N = 6, at no
# cost in speed
STACK_ITEMS = 1024

# out-edges a ``closure`` round sends at once: the degrees that grew go in
# groups with at most this many edges, which bounds the round's index
# arrays, tens of bytes an edge, where a round has millions (4.8 M in one
# N = 6, d = 2 round)
ROUND_EDGES = 2**16


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

    Every rank-one action is read off the tables of ``rank_one_actions``.
    Fundamental fibers use the pivot-1 basis of the contraction kernel, so a
    coordinate vector is read off the pivot entries of its ambient image
    (``from_lambda``).  ``embed`` maps Fund(p) coordinates into Lambda^p:
    the Fund(p) rank-one table and every Lambda^p map applied to a Fund(p)
    fiber go through it.  ``embed`` and the integer actions returned by
    ``rank_one_actions`` and ``rank_one_stack`` are ``scale`` times the
    exact ones, ``scale`` being the lcm of the pivot entries of
    the primitive kernel rows (1 off Fund); the multiple cancels everywhere
    an image or kernel is taken.
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
            # Fund(p) coordinates to Lambda^p: column i is scale times the
            # pivot-1 kernel basis vector i
            self.embed = np.array([[row[i] * (self.scale // row[pc])
                                    for row, pc in zip(self._fund.rows, self._fund.pivots)]
                                   for i in range(self._fund.ambient_dim)], dtype=np.int64)
            # the contraction Lambda^p -> Lambda^{p-2}, with no rows below p = 2
            theta = theta_matrix(n, fiber.p) if fiber.p >= 2 else ()
            self._theta = np.array(theta, dtype=np.int64).reshape(len(theta), ext_dim(n, fiber.p))
        else:
            raise ValueError(f"unknown fiber kind {fiber.kind!r}")

    # -- actions ----------------------------------------------------------

    def rank_one_actions(self, symplectic: bool) -> tuple:
        """Integer actions of the elementary rank-one matrices, built once per
        fiber space and kept on it.

        Returns ``(pairs, dense)``.  Symplectic: for (a, b) in ``pairs``
        (a <= b) the action of P_aa = e_a bar(e_a)^T, resp. of
        P_ab = e_a bar(e_b)^T + e_b bar(e_a)^T, so that
        x bar(x)^T = sum over pairs of x_a x_b P_ab.  Otherwise every (a, b)
        with the action of E_ab = e_a e_b^T, so that x y^T = sum x_a y_b E_ab.
        ``pairs`` is a (P, 2) index array and ``dense`` the int64
        (P, dim, dim) array of the actions, ``scale`` times the exact ones.
        E_ab is -(e_a ^)(contraction against e_b) on Lambda^p and
        (e_a .)(d/de_b) on Sym^2, one product of unit tables, and the P_ab
        are signed sums of the E_ab.  On Fund(p) the table is the Lambda^p
        one on the columns of ``embed``, read at the pivot rows; every P_ab
        lies in sp, so one contraction-kernel guard covers the whole table.
        """
        table = self._rank_one.get(symplectic)
        if table is None:
            n, kind, p = self.n, self.fiber.kind, self.fiber.p
            if kind == "fund":
                # scale times the images of the pivot-1 basis, whose Fund
                # coordinates are their pivot entries
                pairs, dense = fiber_space(n, Lambda(p)).rank_one_actions(symplectic)
                images = int_matmul(dense, self.embed)
                if int_matmul(self._theta, images).any():
                    raise ValueError("matrix action does not preserve the contraction kernel")
                table = pairs, np.take(images, self._fund.pivots, axis=1)
            else:
                if kind == "sym2":
                    products, derivatives = unit_products(n)
                    units = products[:, None] @ derivatives[None, :]
                elif kind == "lambda" and p:
                    units = -unit_wedges(n, p - 1)[:, None] @ unit_contractions(n, p)[None, :]
                else:  # Lambda^0 and the scalar fiber
                    units = np.zeros((n, n, 1, 1), dtype=np.int64)
                units = units.reshape(n, n, self.dim**2)  # E_ab at [a, b]
                if symplectic:
                    a, b = np.triu_indices(n)
                    bars = np.array([bar(e) for e in identity(n)], dtype=np.int64)
                    sym = bars @ units  # e_x bar(e_y)^T at [x, y]
                    dense = sym[a, b] + (a != b)[:, None] * sym[b, a]
                else:
                    a, b = np.indices((n, n)).reshape(2, -1)
                    dense = units[a, b]
                table = np.stack([a, b], axis=1), dense.reshape(len(a), self.dim, self.dim)
            self._rank_one[symplectic] = table
        return table

    def rank_one_stack(self, xs: np.ndarray, ys: np.ndarray | None = None) -> np.ndarray:
        """``scale`` times the action of x bar(x)^T (``ys`` None) or of x y^T
        for every row x of ``xs`` (and y of ``ys``), as one (B, dim, dim)
        stack: the coefficients x_a y_b are one batched outer product, and
        the actions one product of them with ``rank_one_actions``."""
        pairs, dense = self.rank_one_actions(ys is None)
        outer = int_matmul(xs[:, :, None], (xs if ys is None else ys)[:, None, :])
        coeffs = outer[:, pairs[:, 0], pairs[:, 1]]
        return int_matmul(coeffs, dense.reshape(len(pairs), -1)).reshape(len(xs), self.dim, self.dim)

    # -- exterior-power subspaces in this space's coordinates ---------------

    def from_lambda(self, stack: np.ndarray) -> np.ndarray:
        """The parts of a (B, r, dim Lambda^p) stack of row spaces inside this
        space: each item's canonical rows, in this space's coordinates.

        Off Fund that is each item's row space.  On Fund(p) it is the row
        space intersected with the contraction kernel: the vectors
        sum_i u_i a_i over the item's rows a_i with theta A^T u = 0, one kernel
        taken for the whole stack, mapped back through the rows at the kernel
        basis' pivot columns only, which are the Fund coordinates.
        """
        if self.fiber.kind != "fund":
            return stack
        us = kernel_stack(int_matmul(self._theta, stack.transpose(0, 2, 1)))
        return echelon_stack(int_matmul(us, stack[:, :, list(self._fund.pivots)]))


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

    def scaled_shifts(self, window: "Window") -> np.ndarray:
        """``scaled_shift`` of every window degree as rows: one product
        [k | 1] (q I ; q beta)."""
        ks = np.array(window.degrees(), dtype=np.int64).reshape(-1, self.n)
        lifted = np.concatenate([ks, np.ones((len(ks), 1), dtype=np.int64)], axis=1)
        shift = np.array([[self.q * (i == j) for j in range(self.n)] for i in range(self.n)]
                         + [self.qbeta], dtype=object)
        return int_matmul(lifted, shift)

    def space(self) -> FiberSpace:
        return fiber_space(self.n, self.fiber)

    def special_degree(self) -> Degree | None:
        """The degree k with k + beta = 0 (the one fiber every formula
        degenerates at) as an int tuple when beta is integral, else None (no
        degree is special)."""
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
def default_generators(kind: AlgebraKind, n: int, bound: int = 1) -> tuple:
    """The generator sample set built from the degree box max|r_i| <= bound."""
    gens = []
    if kind is AlgebraKind.H:
        for r in degree_box(n, bound):
            gens.append(gen_h(r))
    elif kind is AlgebraKind.W:
        for r in degree_box(n, bound):
            for u in identity(n):
                gens.append(gen_d(u, r))
    else:
        from .torus_lie import _perp_basis

        for r in degree_box(n, bound):
            for u in _perp_basis(r):
                gens.append(gen_d(u, r))
    return tuple(gens)


# ---------------------------------------------------------------------------
# windows and graded families


@dataclass(frozen=True)
class Window:
    n: int
    d: int

    def degrees(self) -> tuple:
        return _window_degrees(self.n, self.d).degrees

    def __contains__(self, k: Degree) -> bool:
        return len(k) == self.n and all(abs(x) <= self.d for x in k)

    def is_interior(self, k: Degree) -> bool:
        return all(abs(x) <= self.d - 1 for x in k)

    def interior_degrees(self) -> tuple:
        return _window_degrees(self.n, self.d).interior

    def index(self, k: Degree) -> int:
        """The position of degree k in ``degrees()``."""
        return _window_degrees(self.n, self.d).index[tuple(k)]


class _WindowDegrees(NamedTuple):
    degrees: tuple  # every degree, in the mixed-radix order of base 2d + 1
    index: dict  # degree -> its position in ``degrees``
    interior: tuple  # the degrees with every |k_a| <= d - 1, in that order


@lru_cache(maxsize=None)
def _window_degrees(n: int, d: int) -> _WindowDegrees:
    degrees = tuple(product(range(-d, d + 1), repeat=n))
    return _WindowDegrees(degrees, {k: i for i, k in enumerate(degrees)},
                        tuple(k for k in degrees if all(abs(x) < d for x in k)))


class GradedFamily:
    """A finite window of fibers, stored as blocks of canonical rows.

    ``place[i]`` numbers the block of the fiber at ``window.degrees()[i]``,
    -1 where it is zero; ``rows`` is the blocks' canonical rows, zero rows
    last, as one (B, h, D) array, and ``anns`` their ``annihilator_stack``
    as one (B, a, D) array, read on first use and kept while ``rows`` is
    the same array.  Where some fiber is zero the last block is the zero
    fiber, so ``rows[place]`` and ``anns[place]`` read every degree.
    ``fiber(k)`` and ``fibers`` wrap blocks as ``Subspace``s on demand.
    """

    def __init__(self, spec: ActionSpec, window: Window, fibers: dict | None = None):
        """Fibers from a degree -> ``Subspace`` dict, one block per distinct one."""
        first: dict = {}
        place = np.full(len(window.degrees()), -1, dtype=np.intp)
        for k, sub in (fibers or {}).items():
            if tuple(k) not in window:
                raise ValueError(f"degree {k} outside the window")
            if sub.ambient_dim != spec.space().dim:
                raise ValueError("fiber ambient dimension differs from the fiber type")
            place[window.index(k)] = first.setdefault(sub, len(first))
        self._store(spec, window, place, [sub.rows for sub in first])

    @classmethod
    def from_blocks(cls, spec: ActionSpec, window: Window, place: np.ndarray,
                    blocks: list) -> "GradedFamily":
        """The family whose fiber at degree index i is spanned by the canonical
        rows ``blocks[place[i]]``, zero rows last, or zero where it is -1."""
        family = cls.__new__(cls)
        family._store(spec, window, place, blocks)
        return family

    def _store(self, spec: ActionSpec, window: Window, place: np.ndarray, blocks: list):
        rows = int_blocks([*blocks, ()], spec.space().dim)  # the zero fiber last
        self.spec, self.window, self._anns = spec, window, (None, None)
        self.place = np.where((rows != 0).any(axis=2).any(axis=1)[place], place, -1)
        self.rows = rows if (self.place < 0).any() else rows[:-1]

    @property
    def anns(self) -> np.ndarray:
        if self._anns[0] is not self.rows:
            self._anns = self.rows, packed(annihilator_stack(self.rows))
        return self._anns[1]

    @property
    def dims(self) -> np.ndarray:
        """The fiber dimension at every degree, in ``window.degrees()`` order."""
        return ranks(self.rows)[self.place]

    def fiber(self, k: Degree) -> Subspace:
        b = self.place[self.window.index(k)] if tuple(k) in self.window else -1
        return subspaces(self.rows[b : b + 1])[0] if b >= 0 else Subspace.zero(self.rows.shape[2])

    @property
    def fibers(self) -> MappingProxyType:
        subs = subspaces(self.rows)
        return MappingProxyType({k: subs[b] for k, b in zip(self.window.degrees(), self.place.tolist())
                                 if b >= 0})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedFamily)
            and self.spec == other.spec
            and self.window == other.window
            and bool(same_spans(self.rows[self.place], other.rows[other.place]).all())
        )

    def __repr__(self):
        nonzero = int((self.place >= 0).sum())
        return f"GradedFamily({self.spec.kind}, {self.spec.fiber}, nonzero fibers={nonzero})"


def place_tuples(families, at) -> tuple:
    """(tuples, which): the distinct tuples of the families' ``place``
    entries at the degree indices ``at``, and each degree's tuple number: a
    comparison of fibers runs once per tuple, on the blocks."""
    return np.unique(np.stack([f.place[at] for f in families], axis=1), axis=0, return_inverse=True)


def directions(kq: np.ndarray) -> tuple:
    """(live, place, stack): the indices of the nonzero rows of ``kq``, the
    number of each one's primitive direction up to sign (its row over its
    gcd and the sign of its leading entry), and those directions as rows,
    numbered in order of first sight.  Every map homogeneous in K = q(k + beta)
    has one kernel and one image along a direction."""
    gcds = np.gcd.reduce(kq, axis=1)  # 0 at K = 0
    live = np.flatnonzero(gcds)
    kq = kq[live]
    dirs = kq // (gcds[live] * np.sign(kq[np.arange(len(live)), (kq != 0).argmax(axis=1)]))[:, None]
    # numbered as first seen: a dict beats np.unique(axis=0), which takes no object rows
    first: dict = {}
    place = [first.setdefault(row, len(first)) for row in map(tuple, dirs.tolist())]
    return live, place, dirs[np.unique(place, return_index=True)[1]]  # each direction's first row


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
    ``fits[v + d, a, g]``, from which the mask is gathered, holds when
    coordinate a of value v stays in [-d, d] under gens[g].  ``edges(i)``
    gathers the maps leaving degree i from the mask, ``edges_into(j)``
    those entering degree j from ``fits`` read at -degs[j], both in
    generator order, and ``edges_between`` those joining stacked (source,
    target) pairs; ``skipped[i]`` counts the maps that leave the window.
    ``cq`` takes its dtype from a bound times ``scale``, so the
    coefficients ``cq * scale`` of the sweeps are exact in it.  The
    derivation rows ``scale * D`` of all generators are one
    ``rank_one_stack``, kept times q as one dense block per generator in
    ``qd``, the one array from which ``fiber_escapes`` and ``images`` read
    every fiber map.
    """

    def __init__(self, spec: ActionSpec, window: Window, gens: tuple):
        for g in gens:
            _check_generator(spec, g)
        self.gens = gens
        self.q = q = spec.q
        self.degs = window.degrees()
        self.index = _window_degrees(window.n, window.d).index
        n, d = spec.n, window.d
        ks = np.array(self.degs, dtype=np.int64)
        r = np.array([g.r for g in gens], dtype=np.int64).reshape(len(gens), n)
        self.offset = r @ (2 * d + 1) ** np.arange(n - 1, -1, -1)
        # the mask is gathered one coordinate at a time, since a (degrees,
        # gens, N) temporary would not fit at N = 6
        self.fits = np.abs(np.arange(-d, d + 1)[:, None, None] + r.T) <= d
        self.inbox = self.fits[ks[:, 0] + d, 0]
        for a in range(1, n):
            self.inbox &= self.fits[ks[:, a] + d, a]
        self.skipped = (len(gens) - self.inbox.sum(1)).tolist()
        space = spec.space()
        self.dim, self.scale = space.dim, space.scale
        pairing = [bar(g.r) if spec.kind is AlgebraKind.H else g.u for g in gens]
        shifts = spec.scaled_shifts(window)
        pairing = np.array(pairing, dtype=np.int64).reshape(len(gens), n).T
        # the shifts' bound taken times scale: cq * scale is exact in cq's dtype
        self.cq = int_matmul(shifts, pairing, (max_abs(shifts) * self.scale, max_abs(pairing)))
        us = None if spec.kind is AlgebraKind.H else np.array([g.u for g in gens], dtype=np.int64)
        # q times each generator's derivation block: q * D + D * 0
        self.qd = int_affine(np.full(len(gens), q, dtype=object), space.rank_one_stack(r, us),
                             np.zeros((self.dim, self.dim), dtype=np.int64))
        # the generators sorted by offset, generator order kept within one offset
        self._by_offset = np.argsort(self.offset, kind="stable")

    def edges(self, i: int) -> tuple:
        """``(gis, js)``: the generator and target index of every map
        leaving degree index i for the window, in generator order."""
        gis = self.inbox[i].nonzero()[0]
        return gis.tolist(), (self.offset[gis] + i).tolist()

    def edges_into(self, j: int) -> tuple:
        """``(gis, srcs)``: the generator and source index of every map from
        the window into degree index j, in generator order."""
        k = np.array(self.degs[j], dtype=np.int64)
        # |-k + r| <= d: k - r lies in the box, read at d - k
        gis = self.fits[len(self.fits) // 2 - k, np.arange(len(k))].all(axis=0).nonzero()[0]
        return gis.tolist(), (j - self.offset[gis]).tolist()

    def edges_between(self, srcs: np.ndarray, tgts: np.ndarray) -> tuple:
        """``(pair, gis)``: every in-window map from degree index ``srcs[e]``
        to ``tgts[e]``, as the pair number e and the generator, pair-major and
        in generator order within a pair.  A generator moves i to j when its
        offset is j - i and the box mask holds at i: at d = 1 an offset can
        match a step that leaves the box, since in base 3 a difference of two
        steps has no unique digits."""
        sorted_offset = self.offset[self._by_offset]
        lo, hi = (np.searchsorted(sorted_offset, tgts - srcs, side) for side in ("left", "right"))
        count = hi - lo
        pair = np.repeat(np.arange(len(srcs)), count)
        # the positions lo[e] .. hi[e] - 1 of every pair, in one index array
        at = np.arange(len(pair)) + np.repeat(lo - np.cumsum(count) + count, count)
        gis = self._by_offset[at]
        keep = self.inbox[srcs[pair], gis]
        return pair[keep], gis[keep]

    def images(self, srcs: np.ndarray, gis: np.ndarray, rows: np.ndarray,
               pick: np.ndarray | None = None) -> np.ndarray:
        """The images of the row blocks at degree index ``srcs[e]`` under
        q * scale * (c * Id + D) of generator ``gis[e]``, as one stack: the
        block of item e is ``rows[pick[e]]``, or ``rows[e]`` without
        ``pick``.  ``int_affine`` products of ``STACK_ITEMS`` items each,
        each gathering its own blocks."""
        out = []
        for s in range(0, len(gis), STACK_ITEMS):
            at = slice(s, s + STACK_ITEMS)
            out.append(int_affine(self.cq[srcs[at], gis[at]] * self.scale,
                                  rows[at] if pick is None else rows[pick[at]],
                                  self.qd[gis[at]].swapaxes(1, 2)))
        return np.concatenate(out) if out else rows[:0]


@lru_cache(maxsize=16)
def edge_table(spec: ActionSpec, window: Window, gens: tuple) -> EdgeTable:
    return EdgeTable(spec, window, gens)


class _Spans:
    """The spans of a closure run as canonical blocks, one per degree index.

    ``rows[i]`` holds the canonical rows of the span at degree index i,
    zero rows last, padded to ``dim`` rows; ``lead[i]`` their pivot
    columns (``dim`` on a zero row) and ``dims[i]`` their number.
    ``anns[i]`` is the annihilator of the span while it is not full (the
    identity while it is zero), its ``dim - dims[i]`` nonzero rows first,
    so ``anns[js, : dim - min dims]`` holds every one of them; ``top_a``
    bounds their entries.  Both blocks turn to Python ints when a row or
    annihilator needs them.  A span only grows, so its new canonical rows
    are never fewer than its old ones and its pivot columns only gain:
    ``sent[i, c]`` marks the pivot columns whose rows ``gained`` has handed
    out (and the column ``dim`` of zero rows), ``dims_sent[i]`` their
    number.
    """

    def __init__(self, degrees: int, dim: int):
        self.dim = dim
        self.rows = np.zeros((degrees, dim, dim), dtype=np.int64)
        self.lead = np.full((degrees, dim), dim, dtype=np.intp)
        self.dims = np.zeros(degrees, dtype=np.intp)
        self.anns = np.eye(dim, dtype=np.int64)[None].repeat(degrees, axis=0)
        self.top_a = 1
        self.sent = (np.arange(dim + 1) == dim)[None].repeat(degrees, axis=0)
        self.dims_sent = np.zeros(degrees, dtype=np.intp)

    def merge(self, js: np.ndarray, rows: np.ndarray):
        """Grow the span at each degree index ``js[t]`` by ``rows[t]``.

        A pass stacks each target's rows with at most ``dim - dims`` of the
        rows sent to it, in one ``echelon_stack`` over all the targets, and
        refreshes their annihilators; the rows left over are tested again
        against those, and the ones that still escape make the next pass.
        """
        dim = self.dim
        while len(js):
            order = np.argsort(js, kind="stable")
            js, rows = js[order], rows[order]
            starts = np.concatenate([[True], js[1:] != js[:-1]])
            first = np.flatnonzero(starts)  # each target's first row
            owner = np.cumsum(starts) - 1
            slot = self.dims[js] + np.arange(len(js)) - first[owner]
            take = slot < dim
            targets = js[first]
            work = put_ints(self.rows[targets], (owner[take], slot[take]), rows[take])
            self.store(targets, echelon_stack(work))
            js, rows = js[~take], rows[~take]
            if len(js):
                into = self.dims[js] < dim
                js, rows = js[into], rows[into]
                anns = self.anns[js, : dim - self.dims[js].min(initial=dim)]
                kills = int_matmul(anns, rows[:, :, None], (self.top_a, max_abs(rows)))
                out = kills.any(axis=(1, 2))
                js, rows = js[out], rows[out]

    def store(self, targets: np.ndarray, red: np.ndarray):
        """Keep the canonical rows ``red[t]``, which span a space holding
        the span at ``targets[t]``, as that span."""
        h = red.shape[1]
        self.rows = put_ints(self.rows, (targets, slice(None, h)), red)
        self.lead[targets, :h] = lead = leads(red)
        self.dims[targets] = dims = (lead < self.dim).sum(axis=1)
        part = dims < self.dim  # a full span's annihilator is never read
        if part.any():
            anns, at = packed(annihilator_stack(red[part])), targets[part]
            self.anns[at, anns.shape[1] :] = 0  # rows of a smaller span's annihilator
            self.anns = put_ints(self.anns, (at, slice(None, anns.shape[1])), anns)
            self.top_a = max(self.top_a, max_abs(anns))

    def gained(self) -> tuple:
        """(grown, count, fresh): the degree indices whose spans have pivots
        whose rows were not handed out yet, fewest such rows first, their
        numbers, and a stack of each one's canonical rows at those pivots,
        zero rows last, now marked as handed out.  With the rows handed out
        before they span the span now."""
        grown = np.flatnonzero(self.dims != self.dims_sent)
        if not grown.size:
            return grown, None, None
        at, lead = grown[:, None], self.lead[grown]
        new = ~self.sent[at, lead]
        self.sent[at, lead] = True
        self.dims_sent[grown] = self.dims[grown]
        count = new.sum(axis=1)
        by = np.argsort(count, kind="stable")
        grown, new, count = grown[by], new[by], count[by]
        order = np.argsort(~new, axis=1, kind="stable")[:, : count[-1]]  # the new rows first
        fresh = self.rows[grown[:, None], order] * (np.arange(count[-1]) < count[:, None])[:, :, None]
        return grown, count, fresh


def _send(table: EdgeTable, spans: _Spans, grown: np.ndarray, fresh: np.ndarray):
    """A group of a ``closure`` round: the images of ``fresh[b]``, the rows
    that degree index ``grown[b]`` gained, along all of its in-window edges
    into targets that are not full, source-major.  The edges go ``STACK_ITEMS``
    to a ``fiber_escapes`` call, with the magnitudes of the rows and maps
    read once for the group, and each call hands back its images.  The
    escaping ones are merged into their targets once ``STACK_ITEMS`` of
    them are held, and at the end of the group; the calls after a merge
    test against the grown spans and drop the edges into targets that
    filled."""
    pos, gis = np.nonzero(table.inbox[grown])
    js = grown[pos] + table.offset[gis]
    live = spans.dims[js] < table.dim  # a full target holds every image
    pos, gis, js = pos[live], gis[live], js[live]
    cs = table.cq[grown[pos], gis] * table.scale
    tops = max_abs(fresh), max_abs(table.qd)
    held_js, held_rows = [], []  # escaping images not merged yet
    merged = False
    for start in range(0, len(js), STACK_ITEMS):
        p, g, j, c = (a[start : start + STACK_ITEMS] for a in (pos, gis, js, cs))
        if merged:  # a merge may have filled targets
            into = spans.dims[j] < table.dim
            p, g, j, c = p[into], g[into], j[into], c[into]
        anns = spans.anns[j, : table.dim - spans.dims[j].min(initial=table.dim)]
        flags, images = fiber_escapes(fresh[p], anns, c, table.qd[g], (*tops, spans.top_a))
        item, row = np.nonzero(flags)
        held_js.append(j[item])
        held_rows.append(images[item, row])
        held = sum(map(len, held_js))
        if held >= STACK_ITEMS or held and start + STACK_ITEMS >= len(js):
            spans.merge(np.concatenate(held_js), np.concatenate(held_rows))
            held_js, held_rows, merged = [], [], True


def closure(
    spec: ActionSpec,
    seeds: dict,
    window: Window,
    generators: Iterable[Generator] | None = None,
) -> GradedFamily:
    """Smallest window-truncated family containing the seeds and stable under
    every in-window fiber map.

    ``seeds`` maps degrees to lists of fiber coordinate vectors.  Action
    targets outside the window are discarded.

    The fixpoint runs in semi-naive rounds over canonical blocks
    (``_Spans``): the seed rows of each degree are made canonical first, as
    a ``Subspace``, and in each round every degree whose span grew in the
    last one sends its new canonical rows, those at pivot columns it did
    not have before, along all of its edges (``_send``, in groups of at
    most ``ROUND_EDGES`` edges).  Together with the span it had, whose
    images went out in earlier rounds, they span its span, so a round that
    grows nothing ends the run.  The family is built from the blocks as
    they stand, with no second elimination.
    """
    gens = tuple(generators) if generators is not None else default_generators(spec.kind, spec.n)
    table = edge_table(spec, window, gens)
    rows: dict = {}
    for k, vectors in seeds.items():
        k = tuple(k)
        if k not in window:
            raise ValueError(f"seed degree {k} outside the window")
        rows.setdefault(table.index[k], []).extend(_int_matrix(vectors)[0])
    spans = _Spans(len(table.degs), table.dim)
    spans.store(np.array(list(rows), dtype=np.intp),
                int_blocks([Subspace(table.dim, vectors).rows for vectors in rows.values()], table.dim))
    grown, count, fresh = spans.gained()
    step = max(1, ROUND_EDGES // len(gens))  # degrees of a group: each has at most len(gens) edges
    while grown.size:
        for start in range(0, grown.size, step):
            group = slice(start, min(start + step, grown.size))
            # the group's degrees gained at most count[group.stop - 1] rows each
            _send(table, spans, grown[group], fresh[group, : count[group.stop - 1]])
        grown, count, fresh = spans.gained()
    live = np.flatnonzero(spans.dims)
    place = np.full(len(table.degs), -1, dtype=np.intp)
    place[live] = np.arange(len(live))
    return GradedFamily.from_blocks(spec, window, place, spans.rows[live, : spans.dims.max(initial=0)])


def is_invariant(spec: ActionSpec, family: GradedFamily) -> CheckResult:
    """PASS when every in-window fiber map sends each fiber into its target.

    Every in-window edge out of a nonzero fiber into one that is not full is
    one item of ``fiber_escapes``: the source fiber's rows, the target
    fiber's annihilator, cq * scale and the generator's q * D.  The edges of
    all generators go generator-major, ``STACK_ITEMS`` to a call, gathered
    from the family's blocks, with every magnitude read once per sweep.

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
    place, dims, r_blocks, a_blocks = family.place, family.dims, family.rows, family.anns
    src = np.flatnonzero(dims)
    tops = (max_abs(r_blocks), max_abs(table.qd), max_abs(a_blocks))
    # the in-window edges out of nonzero fibers, generator-major, each as
    # gi * len(src) + the position of its source in src
    flat = np.flatnonzero(table.inbox[src].T)
    first = {}  # source degree index -> its first escaping generator
    for start in range(0, len(flat), STACK_ITEMS):
        gis, i = np.divmod(flat[start : start + STACK_ITEMS], len(src))
        i = src[i]
        j = i + table.offset[gis]
        into = dims[j] < table.dim  # a full target holds every image
        gis, i, j = gis[into], i[into], j[into]
        cs = table.cq[i, gis] * table.scale
        bad = fiber_escapes(r_blocks[place[i]], a_blocks[place[j]], cs, table.qd[gis], tops)[0].any(-1)
        for e, gi in zip(i[bad].tolist(), gis[bad].tolist()):
            first.setdefault(e, gi)
    for i in src.tolist():
        k = degs[i]
        rec.counts["skipped"] += table.skipped[i]
        gi = first.get(i)
        if gi is None:
            rec.record(True, degree=k, expected="invariant", actual="invariant")
            continue
        target = [a + b for a, b in zip(k, gens[gi].r)]
        rec.record(False, degree=k, expected="image inside fiber", actual="escapes",
                   note=f"generator {gens[gi].label()} -> degree {target}")
    return rec.result()


def fiber_escapes(rows, anns, cs: np.ndarray, maps, tops: tuple | None = None) -> tuple:
    """Which rows of which items leave a fixed fiber: the one fiber
    membership test of every sweep, as ``(flags, images)``, one flag per
    (item, row) and the images it tested.

    Item e maps the row block R_e through c_e * Id + M_e; an image lies in
    the target fiber exactly when the fiber's annihilator block A_e kills it,
    so row t of item e escapes when column t of A_e (c_e R_e + R_e M_e^T)^T
    is nonzero.  ``rows``, ``anns`` and ``maps`` are integer arrays, each
    either one block that every item shares (h x D, a x D, D x D) or one
    block per item stacked along a first axis of length ``len(cs)``, and
    ``cs`` an integer array of the c_e; zero
    rows pad a block freely.  The images are one ``int_affine`` and their
    test one ``int_matmul``, the images bounded a priori by
    max|c| max|R| + D max|R| max|M|.  ``tops`` is (max|R|, max|M|, max|A|),
    or bounds on them, as in ``int_matmul``: a sweep split over several
    calls reads them once; without it each call reads them.
    """
    top_r, top_m, top_a = tops or (max_abs(rows), max_abs(maps), max_abs(anns))
    top_c = max_abs(cs)
    images = int_affine(cs, rows, maps.swapaxes(-1, -2), (top_c, top_r, top_m))
    top_i = top_c * top_r + rows.shape[-1] * top_r * top_m
    return int_matmul(anns, images.swapaxes(-1, -2), (top_a, top_i)).any(axis=-2), images
