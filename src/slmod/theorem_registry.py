"""Named check procedures binding the structural results to executable sweeps.

Irreducibility, uniqueness and classification statements are probed through
window-truncated closures: the submodule generated by a seed vector is grown
to a fixpoint and compared against the predicted family.  Closure probes are
supporting evidence at desk scale; they verify necessary consequences of the
statements on a finite degree window, not the statements themselves.

A reachability certificate keeps thousands of single-seed closures cheap: an
in-window fiber map c * Id + D has determinant prod_j (c + j t)^{m_j} with D
the derivation of a rank-one matrix (t its trace), so edge invertibility is a
couple of dot products.  Invertible edges transfer a full predicted fiber
onto the next one, hence a closure that fills one predicted fiber at a degree
from which invertible edges reach the whole window interior already covers
the predicted family there.  The seed's images along the edges and
two-edge paths into one certified neighbour usually fill that neighbour's
fiber at once, where a plain fixpoint run would take several whole visits.
A sweep's seeds take those paths together, in stacked products and one
stacked elimination; the seeds whose certificate has not fired take a
few FIFO turns together, on stacked spans, and the seed's closure backs up
every probe whose certificate has not fired by then.

A probe against the full fiber needs two more steps.  At integral beta its
certificate would also have to find the degenerate fiber full.  Each engine
tests once whether the images of the full fibers at the interior degrees
next to that fiber span it; where they do, the certificate's full interior
fibers fill it too, and it is not tested again.  And the short-path pass
goes on in rounds: where round 0, the seed's paths, leaves the neighbour
partial, each later round sends the neighbour's span along the two-edge
loops through it, until no span grows.
"""

from __future__ import annotations

import random
import traceback
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb

import numpy as np

from .exact_linalg import (
    Subspace,
    _int_matrix,
    annihilator_stack,
    contained,
    dot,
    echelon_stack,
    format_vector,
    frac,
    identity,
    int_blocks,
    int_matmul,
    kernel,
    kernel_stack,
    packed,
    put_ints,
    rank,
    ranks,
    same_spans,
    vec,
)
from .exterior_algebra import (
    ExtVector,
    ext_basis,
    ext_dim,
    fundamental_dim,
    interior_product,
    theta_matrix,
    wedge,
)
from .graded_modules import (
    ROUND_EDGES,
    STACK_ITEMS,
    ActionSpec,
    Fund,
    GradedFamily,
    Lambda,
    ScalarFiber,
    Sym2,
    Window,
    closure,
    default_generators,
    directions,
    edge_table,
    fiber_escapes,
    fiber_space,
    is_invariant,
    place_tuples,
)
from .invariant_ops import (
    invariance_report,
    lie_closure_holds,
    orthogonal_extend,
    small_algebra,
    t_vectors,
)
from .reports import ERROR, CheckResult, Detail, Recorder
from .sl_maps import (
    FamilyKind,
    SpecialFiberPolicy,
    T,
    build_family,
    f,
    map_degrees,
    map_stack,
    pi,
    quotient_dims,
    symplectic_extend,
    theta_tilde,
    verify_module_map,
)
from .torus_lie import (
    AlgebraKind,
    bar,
    j_membership,
    rank_one_span_dim,
    sp_dim,
    sympl_form,
)
from .complexes import DERHAM, FSQ, FSQ_FUND, TCHAIN, compare_with_prediction

DEFAULT_SEED = 20240801

# turns of a probe's hooked FIFO start: the hooks that fire in check-all and
# main-classification N=6 d=2 fire within three, those of the edges workload
# at 120 seeds within four; ``closure`` finishes the others
HOOK_TURNS = 4


# ---------------------------------------------------------------------------
# closure probe engine


class ProbeTarget:
    """Per-degree target data for a probe: dims, (optionally) basis rows,
    whether the dominator certificate applies to it, and the degenerate
    degrees its certificate hook must still test directly."""

    def __init__(self, dims_by_index, rows_by_index, certified: bool, special: list):
        self.dims = dims_by_index
        self.rows = rows_by_index
        self.certified = certified
        self.special = special


class ProbeEngine:
    """Closure probe sweeps over one action spec and window."""

    def __init__(self, spec: ActionSpec, window: Window):
        self.spec = spec
        self.window = window
        self.gens = default_generators(spec.kind, spec.n)
        self.table = edge_table(spec, window, self.gens)
        index = self.table.index
        k0 = spec.special_degree()  # the degenerate degree, when beta is integral
        self.special = [index[k0]] if k0 is not None and k0 in window else []
        self.interior = [index[k] for k in window.interior_degrees()]
        self.special_interior = [i for i in self.special if window.is_interior(k0)]
        self.dominators = self._dominators(self._invertible_edges())
        self.open_special = [s for s in self.special_interior if not self._filled_from_interior(s)]

    # -- static structure ---------------------------------------------------

    def _trace_factors(self) -> tuple:
        """Exponent set {j} with (c + j t) a determinant factor: h(r) acts by
        a traceless rank-one matrix, (0,); D(u, r) by one of trace t, which
        for t != 0 is conjugate to t E_00, whose action the space's monomial
        basis diagonalises, so the j are the diagonal entries of that action."""
        if self.spec.kind is AlgebraKind.H:
            return (0,)
        e00 = self.spec.space().rank_one_actions(False)[1][0]
        return tuple(sorted(set(np.diagonal(e00).tolist())))

    def _invertible_edges(self) -> np.ndarray:
        """The invertible in-window edges off the degenerate degree (see the
        module notes), as a (degrees, generators) mask."""
        table = self.table
        traces = np.array([[0 if g.u is None else dot(g.u, g.r) for g in self.gens]], dtype=np.int64)
        # cq + jj q t = 0 when cq = -jj q t: one row per factor jj
        shifts = int_matmul(np.array([[-jj * table.q] for jj in self._trace_factors()], dtype=object),
                            traces)
        invertible = table.inbox.copy()
        for shift in shifts:
            invertible &= table.cq != shift
        for s in self.special:  # no edge leaves or enters the degenerate degree
            gis, srcs = table.edges_into(s)
            invertible[srcs, gis] = False
            invertible[s] = False
        return invertible

    def _reach(self, start: int, src, tgt) -> np.ndarray:
        """Mask of the degrees reached from ``start`` along the src -> tgt
        edges, one frontier sweep over every edge per step."""
        seen = frontier = np.arange(len(self.table.degs)) == start
        while frontier.any():
            frontier = (np.bincount(tgt[frontier[src]], minlength=len(seen)) > 0) & ~seen
            seen = seen | frontier
        return seen

    def _dominators(self, invertible: np.ndarray) -> set:
        """G = degrees certified to regenerate the window interior."""
        src, gis = np.nonzero(invertible)
        tgt = self.table.offset[gis] + src
        needed = [i for i in self.interior if i not in self.special]
        for z in needed:
            if self._reach(z, src, tgt)[needed].all():
                return set(np.flatnonzero(self._reach(z, tgt, src)).tolist())
        return set()

    def _filled_from_interior(self, s: int) -> bool:
        """Whether the images of full fibers at the interior degrees with an
        in-window edge into the degenerate degree s span the fiber at s: the
        maps' images of the unit vectors in one ``EdgeTable.images`` call,
        eliminated in one ``echelon_stack``."""
        table = self.table
        sources = set(self.interior) - set(self.special)
        gis, srcs = (np.array(e, dtype=np.intp) for e in table.edges_into(s))
        keep = np.isin(srcs, list(sources))
        units = np.eye(table.dim, dtype=np.int64)[None]
        images = table.images(srcs[keep], gis[keep], units, np.zeros(keep.sum(), dtype=np.intp))
        return ranks(echelon_stack(images.reshape(1, -1, table.dim)))[0] == table.dim

    def _dominator_mask(self) -> np.ndarray:
        """The dominators as a mask over degree indices, its last entry
        standing for the degrees off the window."""
        return np.bincount(np.array(sorted(self.dominators), dtype=np.intp),
                           minlength=len(self.table.degs) + 1) > 0

    # -- probe runs ----------------------------------------------------------

    def min_target(self, family: GradedFamily) -> ProbeTarget:
        blocks, dims = family.rows.tolist(), family.dims.tolist()
        rows = {i: blocks[b][: dims[i]] for i, b in enumerate(family.place.tolist()) if b >= 0}
        return self._target({i: len(r) for i, r in rows.items()}, rows, self.special_interior)

    def full_target(self) -> ProbeTarget:
        return self._target(dict.fromkeys(range(len(self.table.degs)), self.table.dim), None,
                            self.open_special)

    def _target(self, dims, rows, special: list) -> ProbeTarget:
        # certificates transfer full target fibers along invertible edges and
        # therefore need one common nonzero dimension off the degenerate degree
        generic = {dims.get(i, 0) for i in range(len(self.table.degs)) if i not in self.special}
        return ProbeTarget(dims, rows, len(generic) == 1 and generic != {0}, special)

    def run(self, seeds, mode: str, target: ProbeTarget) -> list:
        """One answer per (degree, vector) seed of a sweep.  mode "exact":
        seed and closure stay inside an invariant target and must reach its
        dims on the interior (with ``full_target`` the whole fiber).  mode
        "contains": the closure must contain the target rows on the interior.

        A certified target runs the seeds through ``_path_pass`` in groups
        with at most ``ROUND_EDGES`` out-edges, and the group's seeds whose
        hook has not fired there through the hooked FIFO turns of
        ``_turns``, from the seed and its span at z.  A seed whose hook has
        not fired by then goes on to the ``closure`` of those rows, which is
        the seed's closure, since every row at z lies in it.  Every seed of
        an uncertified target reads its answer off its ``closure``."""
        if not self.interior:
            raise ValueError(
                f"window d={self.window.d} has an empty interior: a probe would check nothing")
        if mode == "contains" and target.rows is None:
            raise ValueError("mode contains needs target rows")
        at = [self.table.index[tuple(k)] for k, _ in seeds]
        vectors = [v for _, v in seeds]
        if not all(map(any, vectors)):
            raise ValueError("probe seed is zero")
        answers = []
        step = max(1, ROUND_EDGES // len(self.gens))  # seeds of a group: each has at most len(gens) edges
        for first in range(0, len(at), step):
            group = slice(first, first + step)
            if target.certified:
                starts = self._path_pass(at[group], vectors[group], mode, target)
                left = [e for e, start in enumerate(starts) if start is not None]
                for e, fired in zip(left, self._turns([starts[e] for e in left], mode, target).tolist()):
                    if fired:
                        starts[e] = None
            else:
                starts = [{i: [v]} for i, v in zip(at[group], vectors[group])]
            answers += [start is None or self._answer(start, mode, target) for start in starts]
        return answers

    def _answer(self, start: dict, mode: str, target: ProbeTarget) -> bool:
        """The answer of one seed whose hook has not fired, from the closure
        of ``start``, its degree index -> rows map."""
        degs = self.table.degs
        family = closure(self.spec, {degs[i]: rows for i, rows in start.items() if rows}, self.window,
                         self.gens)
        at = self.interior
        if mode == "exact":
            return family.dims[at].tolist() == [target.dims.get(i, 0) for i in at]
        rows = int_blocks([target.rows.get(i, ()) for i in at], self.table.dim)
        return bool(contained(rows, family.anns[family.place[at]]).all())

    def _path_pass(self, at: list, vectors: list, mode: str, target: ProbeTarget) -> list:
        """The short-path certificate of a group of seeds, degree indices
        ``at`` and integer ``vectors``, stacked: for each seed None once its
        hook fires, else the start of its FIFO turns, the seed and its span
        at z.

        z is the seed's first out-neighbour among the dominators, in
        generator order.  ``EdgeTable.images`` products over the group send
        the seeds along their edges, and then along the second steps of the
        in-window paths seed -> t -> z gathered by ``edges_between``; the
        images that land at z make the spans in ``echelon_stack``s, first
        those of the direct edges and of each seed's first dim paths, then,
        for the seeds whose hook (``_hook``) has not fired and whose span is
        not full, those of the other paths.  For a full target
        ``_loop_rounds`` then grows the spans along the loops z -> u -> z.
        Images of closure rows stay in the closure, so each span lies in the
        seed's closure at z.  A span only grows and the hook only gets truer
        as it grows, so it fires here exactly when it fires at some row of
        the sequential pass, and the span a seed hands on is the span of all
        its round-0 images, whatever their order.
        """
        table, dim = self.table, self.table.dim
        src = np.array(at, dtype=np.intp)
        vecs = int_blocks([[v] for v in vectors], dim)
        dominator = self._dominator_mask()
        out = table.inbox[src]
        tgts = np.where(out, src[:, None] + table.offset, -1)
        hit = dominator[tgts]
        z = np.where(hit.any(axis=1), tgts[np.arange(len(src)), hit.argmax(axis=1)], -1)
        # the edges out of every seed that has a z, seed-major, and the
        # second steps from their targets t into z: none where t is z
        b, g = np.nonzero(out & (z >= 0)[:, None])
        t = tgts[b, g]
        pair, g2 = table.edges_between(t, z[b])
        direct = t == z[b]
        sent = direct.copy()
        sent[pair] = True  # the first steps that land at z or lead on to it
        b, g, t, direct = b[sent], g[sent], t[sent], direct[sent]
        pair = (np.cumsum(sent) - 1)[pair]
        hops = table.images(src[b], g, vecs, b)
        # round 0 in two stages: the direct edges and each seed's first dim
        # paths, which can fill z, then the other paths of the seeds whose
        # hook has not fired and whose span is not full
        via = b[pair]  # the seed of each second step, ascending
        early = np.arange(len(pair)) - np.searchsorted(via, via) < dim
        ends = table.images(t[pair[early]], g2[early], hops, pair[early])
        spans = _merge(np.zeros((len(src), dim, dim), dtype=np.int64),
                       np.concatenate([b[direct], via[early]]), np.concatenate([hops[direct], ends])[:, 0])
        # the pass stores no row at a degenerate degree: the target's must be empty there
        holds = not any(target.dims.get(s, 0) if mode == "exact" else target.rows.get(s)
                        for s in target.special)
        test = self._hook(z, mode, target)

        def hook(spans):
            return holds & (z >= 0) & test(spans)

        late = ~early & ~(hook(spans) | (ranks(spans) == dim))[via]
        spans = _merge(spans, via[late], table.images(t[pair[late]], g2[late], hops, pair[late])[:, 0])
        # targets with rows keep round 0 alone: for the contains-mode
        # probes later rounds stored nothing and cost time
        if target.rows is None:
            spans = self._loop_rounds(z, spans)
        fired = hook(spans)
        starts: list = [None] * len(src)
        for e, zi, span in zip(np.flatnonzero(~fired).tolist(), z[~fired].tolist(), spans[~fired].tolist()):
            starts[e] = {at[e]: [vectors[e]]}
            if zi >= 0:
                starts[e][zi] = [row for row in span if any(row)]
        return starts

    def _hook(self, at: np.ndarray, mode: str, target: ProbeTarget):
        """The certificate hook's fiber test at degree indices ``at``, as a
        test of a (B, D, D) stack of canonical spans, item b at ``at[b]``:
        the span reaches the target dims there ("exact"; a span inside an
        invariant target reaches them when its dims are at least the
        target's) or holds the target rows ("contains", against the span's
        annihilator, which is zero on a full span).  A degree with no target
        entry, such as -1, asks for nothing."""
        if mode == "exact":
            need = np.array([target.dims.get(i, 0) for i in at.tolist()], dtype=np.intp)
            return lambda spans: ranks(spans) >= need
        rows = int_blocks([target.rows.get(i, ()) for i in at.tolist()], self.table.dim)
        return lambda spans: contained(rows, annihilator_stack(spans))

    def _loop_rounds(self, z: np.ndarray, spans: np.ndarray) -> np.ndarray:
        """Grow each seed's span at z by its images along the two-edge loops
        z -> u -> z, in rounds over the seeds whose span is neither zero nor
        full and grew in the round before, until none grows: the smallest
        space closed under the loops that holds the span.  A round sends
        each span as it stood at the round's start, ``STACK_ITEMS`` loops at
        a time, and merges each slice's images at once."""
        table, dim = self.table, self.table.dim
        dims = ranks(spans)
        grow = np.flatnonzero((z >= 0) & (dims > 0) & (dims < dim))
        while grow.size:
            before = dims[grow]
            send = spans[grow, : before.max()]
            e, g = np.nonzero(table.inbox[z[grow]])
            u = z[grow][e] + table.offset[g]
            pair, g2 = table.edges_between(u, z[grow][e])
            for first in range(0, len(pair), STACK_ITEMS):
                p, gb = pair[first : first + STACK_ITEMS], g2[first : first + STACK_ITEMS]
                ends = table.images(u[p], gb, table.images(z[grow][e[p]], g[p], send, e[p]))
                spans = _merge(spans, grow[e[p]].repeat(send.shape[1]), ends.reshape(-1, dim))
            dims = ranks(spans)
            grow = grow[(dims[grow] > before) & (dims[grow] < dim)]
        return spans

    def _turns(self, starts: list, mode: str, target: ProbeTarget) -> np.ndarray:
        """Whether the hook fires in the FIFO turns of each seed, from
        ``starts[b]``, its degree index -> rows map: the seed and its span
        at z.

        Each seed queues the degrees whose span grew since their last turn,
        in the order they grew, the start's first, and takes at most
        ``HOOK_TURNS`` turns; the seeds take theirs together.  The spans are
        canonical (seed, degree) items of one store, found through a dense
        (seeds, degrees) slot index whose 0 is the zero span.  A turn sends
        the span at each live seed's next queued degree along its in-window
        edges into targets that are not full, in slices of ``STACK_ITEMS``
        // (live seeds) edges of each seed: a slice's images come from one
        ``EdgeTable.images`` call and go into the spans in one ``_merge``.
        The targets that grew join their seed's queue in edge order, and the
        hook (``_hook``) is tested at each of them that is a dominator,
        together with the seed's items at the target's degenerate degrees,
        as it is at the start items.  A span's images along an edge hold
        those of the rows it had at an earlier turn, so after each slice a
        seed's spans are those of a row-by-row run of the same turns after
        the same edges; a span only grows and the hook only gets truer as it
        grows, so the hook fires by the slice's end where that run fires
        within the slice.
        """
        table, dim = self.table, self.table.dim
        count = len(starts)
        fired = np.zeros(count, dtype=np.intp) != 0
        if not count:
            return fired
        dominator = self._dominator_mask()
        special = np.array(target.special, dtype=np.intp)
        slot = np.zeros((count, len(table.degs)), dtype=np.intp)
        queued = np.zeros(slot.shape, dtype=np.intp)  # 1 where the degree waits in the seed's queue
        spans = np.zeros((1 + sum(map(len, starts)), dim, dim), dtype=np.int64)
        used = 1

        def place(bs, js):
            """Give each (seed, degree) pair with no item a new zero one."""
            nonlocal spans, used
            new = slot[bs, js] == 0
            bs, js = bs[new], js[new]
            slot[bs, js] = np.arange(len(bs))
            taken = np.bincount(slot[bs, js], minlength=len(bs)) > 0  # one entry per pair
            slot[bs, js] = used + (np.cumsum(taken) - 1)[slot[bs, js]]
            used += int(taken.sum())
            if used > len(spans):
                spans = np.concatenate([spans, np.zeros((max(used, 2 * len(spans)) - len(spans), dim, dim),
                                                        dtype=np.int64)])

        def hook(bs, js):
            """Mark fired the seeds bs[t] whose hook holds at a dominator
            js[t] and at the target's degenerate degrees."""
            on = dominator[js]
            if not on.any():
                return
            bs, js = bs[on], js[on]
            held = np.flatnonzero(np.bincount(bs[self._hook(js, mode, target)(spans[slot[bs, js]])],
                                              minlength=count))
            if len(special) and len(held):
                ss, sb = np.tile(special, len(held)), held.repeat(len(special))
                holds = self._hook(ss, mode, target)(spans[slot[sb, ss]]).reshape(len(held), len(special))
                held = held[holds.all(axis=1)]
            fired[held] = True

        queues = [deque(i for i, rows in start.items() if rows) for start in starts]
        bs = np.array([b for b, start in enumerate(starts) for rows in start.values() for _ in rows],
                      dtype=np.intp)
        js = np.array([i for start in starts for i, rows in start.items() for _ in rows], dtype=np.intp)
        rows = [row for start in starts for block in start.values() for row in block]
        place(bs, js)
        queued[bs, js] = 1
        spans = _merge(spans, slot[bs, js], put_ints(np.zeros((len(rows), dim), dtype=np.int64),
                                                     slice(None), rows))
        hook(bs, js)
        for _ in range(HOOK_TURNS):
            live = np.array([b for b, queue in enumerate(queues) if queue and not fired[b]], dtype=np.intp)
            if not live.size:
                break
            src = np.array([queues[b].popleft() for b in live.tolist()], dtype=np.intp)
            queued[live, src] = 0
            send = spans[slot[live, src]]
            send = send[:, : ranks(send).max()]
            e, g = np.nonzero(table.inbox[src])  # each live seed's edges, in generator order
            tb, tj = live[e], src[e] + table.offset[g]
            pos = np.arange(len(e)) - np.searchsorted(e, e)  # each edge's place among its seed's
            width = max(1, STACK_ITEMS // len(live))
            for first in range(0, len(table.gens), width):
                p = np.flatnonzero((pos >= first) & (pos < first + width) & ~fired[tb])
                p = p[ranks(spans[slot[tb[p], tj[p]]]) < dim]  # a full target holds every image
                images = table.images(src[e[p]], g[p], send, e[p])
                item, row = np.nonzero(images.any(axis=2))
                bs, js = tb[p[item]], tj[p[item]]
                place(bs, js)
                owner = slot[bs, js]
                # each target once, at its first nonzero image, in edge order
                order = np.argsort(owner, kind="stable")
                firsts = np.sort(order[np.diff(owner[order], prepend=-1) != 0])
                before = ranks(spans[owner[firsts]])
                spans = _merge(spans, owner, images[item, row])
                grew = firsts[ranks(spans[owner[firsts]]) > before]
                for b, j in zip(bs[grew].tolist(), js[grew].tolist()):
                    if not queued[b, j]:
                        queued[b, j] = 1
                        queues[b].append(j)
                hook(bs[grew], js[grew])
        return fired


@lru_cache(maxsize=16)
def probe_engine(spec: ActionSpec, window: Window) -> ProbeEngine:
    return ProbeEngine(spec, window)


def _merge(spans: np.ndarray, owner: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (B, D, D) stack of canonical spans, zero rows last, with each
    ``rows[r]`` added to the span ``owner[r]``: the rows of each owner
    stacked under the nonzero rows of its span, in one ``echelon_stack``."""
    if not len(owner):
        return spans
    order = np.argsort(owner, kind="stable")
    owner = owner[order]
    slot = np.arange(len(owner)) - np.searchsorted(owner, owner)  # each row's place among its owner's
    first = slot == 0
    targets = owner[first]
    old = spans[targets]
    h = int(ranks(old).max())
    work = np.zeros((len(targets), h + int(slot.max()) + 1, spans.shape[2]), dtype=np.int64)
    work = put_ints(work, (np.cumsum(first) - 1, h + slot), rows[order])
    red = echelon_stack(put_ints(work, (slice(None), slice(None, h)), old[:, :h]))
    return put_ints(spans, (targets, slice(None, red.shape[1])), red)


# ---------------------------------------------------------------------------
# the brute-force fiber-dimension oracle


def oracle_fiber_dims(n: int, p: int, kplusbeta) -> dict:
    """Dimensions of the four families at one fiber, assembled from raw
    exterior-vector arithmetic (wedges and contractions on monomials) with
    plain rank/kernel calls; no family builders involved."""
    k = vec(kplusbeta)
    if all(x == 0 for x in k):
        raise ValueError("oracle needs a nonzero shifted degree")
    kv = ExtVector.from_vector(n, k)
    bk = bar(k)

    def span_dim(vectors) -> int:
        return rank(_int_matrix(vectors)[0])

    out: dict = {}
    # minimal: contraction of K ^ m against bar(K), over monomials m
    min_vecs = []
    f_cols = []
    for key in ext_basis(n, p):
        m = ExtVector.monomial(n, key)
        img = interior_product(bk, wedge(kv, m))
        coords = img.to_coords()
        min_vecs.append(coords)
        f_cols.append(coords)
    out["min"] = span_dim(min_vecs)
    # full Witt fiber: K ^ Lambda^{p-1}
    if p >= 1:
        out["fullw"] = span_dim(
            [wedge(kv, ExtVector.monomial(n, key)).to_coords() for key in ext_basis(n, p - 1)]
        )
    else:
        out["fullw"] = 0
    # intermediate: contractions of Lambda^{p+1} against bar(K)
    if p + 1 <= n:
        out["int"] = span_dim(
            [
                interior_product(bk, ExtVector.monomial(n, key)).to_coords()
                for key in ext_basis(n, p + 1)
            ]
        )
    else:
        out["int"] = 0
    # maximal: kernel of the assembled square map
    dim = ext_dim(n, p)
    rows = tuple(tuple(f_cols[j][i] for j in range(dim)) for i in range(dim))
    out["max"] = kernel(_int_matrix(rows)[0]).dim
    return out


# ---------------------------------------------------------------------------
# shared helpers for the checks


def beta_zero(n: int) -> tuple:
    return (Fraction(0),) * n


def beta_half(n: int) -> tuple:
    return (Fraction(1, 2),) + (Fraction(0),) * (n - 1)


def _window(params) -> Window:
    return Window(params["N"], params["d"])


def _probe_window(params) -> Window:
    """The window of a closure-probe check, refused up front when it has no
    interior degree: every probe there would check nothing."""
    window = _window(params)
    if not window.interior_degrees():
        raise ValueError(f"window d={window.d} has an empty interior: a probe would check nothing")
    return window


def _generic_degrees(spec: ActionSpec, window: Window) -> list:
    """The window degrees with k + beta != 0, refused when there are none:
    a check that compares families there would compare nothing."""
    k0 = spec.special_degree()
    degs = [k for k in window.degrees() if k != k0]
    if not degs:
        raise ValueError(
            f"window d={window.d} has no generic degree: the check would compare nothing")
    return degs


def _rng(params, salt: str) -> random.Random:
    return random.Random(f"{params.get('seed', DEFAULT_SEED)}|{salt}")


def _draw(rng: random.Random, degs):
    return degs[rng.randrange(len(degs))]


def _random_vector(rng: random.Random, dim: int) -> list:
    while True:
        v = [rng.randint(-3, 3) for _ in range(dim)]
        if any(v):
            return v


def _outside_seeds(rng: random.Random, degs, family: GradedFamily, count: int) -> list:
    """``count`` (degree, vector) seeds, each vector outside the family's fiber."""
    dim = family.spec.space().dim
    seeds = []
    for _ in range(count):
        k = _draw(rng, degs)
        v = _random_vector(rng, dim)
        while family.fiber(k).contains_vector(v):
            v = _random_vector(rng, dim)
        seeds.append((k, v))
    return seeds


def _recorder(check_id: str, params, *keys, **extra) -> Recorder:
    """The recorder of one check, whose report params echo the ``keys`` of
    ``params`` (beta through ``format_vector``) and then ``extra``."""
    echoed = {key: format_vector(params[key]) if key == "beta" else params[key] for key in keys}
    return Recorder(check_id, {**echoed, **extra})


def _probe(rec: Recorder, engine: ProbeEngine, seeds, mode: str, target: ProbeTarget,
           summary: str, claim: str = "", noun: str = "failed", note: str = ""):
    """One closure probe per (degree, vector) seed, then one record of the
    sweep: ``summary`` expected, ``f"{bad} {noun}"`` actual.  Each of the
    first 8 failing seeds is recorded as a "partial" closure against a full
    target, else against ``claim`` as "missing" in mode "contains" and as a
    "mismatch" in mode "exact"."""
    if target.rows is None:  # only the full target carries no rows
        claim, miss = "closure reaches full fibers", "partial"
    else:
        miss = "missing" if mode == "contains" else "mismatch"
    bad = 0
    for (k, _), ok in zip(seeds, engine.run(seeds, mode, target), strict=True):
        if not ok:
            bad += 1
            if bad <= 8:
                rec.record(False, degree=k, expected=claim, actual=miss)
    rec.tally(bad, summary, noun, note)


def _half_grid(n: int) -> list:
    return [beta_zero(n), beta_half(n)]


# ---------------------------------------------------------------------------
# check implementations


def _check_fundamental_dims(params) -> CheckResult:
    rec = _recorder("fundamental-dims", params, Ns="2,4,6")
    for n in (2, 4, 6):
        for p in range(1, n // 2 + 1):
            expected = comb(n, p) - (comb(n, p - 2) if p >= 2 else 0)
            rec.expect(expected, fundamental_dim(n, p), note=f"N={n} p={p}")
    return rec.result()


def _check_contraction_iso(params) -> CheckResult:
    n = params["N"]
    rec = _recorder("contraction-iso", params, "N")
    half = n // 2
    rec.expect(comb(n, half - 1), rank(theta_matrix(n, half + 1)), note="rank of the contraction")
    return rec.result()


def _check_l3_span(params) -> CheckResult:
    n = params["N"]
    rec = _recorder("L3-span", params, "N")
    rec.expect(sp_dim(n), rank_one_span_dim(n), note="rank-one span dimension")
    # the symmetrized-product vanishing used throughout the submodule proofs
    rng = _rng(params, f"l3-{n}")
    for _ in range(4):
        u = tuple(rng.randint(-2, 2) for _ in range(n))
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        for p in range(1, min(n, 3) + 1):
            # A = v bar(v)^T and M = u bar(v)^T + v bar(u)^T, the sum of two x y^T
            space = fiber_space(n, Lambda(p))
            act_a = space.rank_one_stack(np.array([v], dtype=np.int64))[0]
            act_m = space.rank_one_stack(np.array([u, v], dtype=np.int64),
                                         np.array([bar(v), bar(u)], dtype=np.int64)).sum(axis=0)
            # x = e_1 ^ ... ^ e_p, the first monomial: its images are column 0
            zero = not (act_a @ act_m[:, 0] + act_m @ act_a[:, 0]).any()
            rec.record(zero, expected="zero", actual="zero" if zero else "nonzero",
                       note=f"symmetrized vanishing p={p}")
    return rec.result()


def _j_samples(kind, n: int) -> list:
    """The (r, u) pairs of the cached generator sample set: r over the unit
    degree box, u over the unit vectors for W and over an integer basis of
    { u : (u|r) = 0 } for S."""
    return [(g.r, g.u) for g in default_generators(AlgebraKind(kind), n)]


def _check_j_membership(params) -> CheckResult:
    n = params["N"]
    rec = _recorder("j-membership", params, "N")
    for p in range(0, n + 1):
        space = fiber_space(n, Lambda(p))
        monomials = identity(space.dim)
        for kind in "HWS" if p <= n - 1 else "HW":
            ok = j_membership(kind, space, monomials, _j_samples(kind, n))
            rec.record(ok, expected="holds", actual="holds" if ok else "fails",
                       note=f"{kind} on Lambda^{p}")
    # the symmetric square is the smallest non-exceptional module: witnesses
    # e_2 . e_2, the last monomial of Sym^2 Q^2
    sym2 = fiber_space(2, Sym2())
    witness = [(0, 0, 1)]
    for kind in "HWS":
        rec.record(
            not j_membership(kind, sym2, witness, _j_samples(kind, 2)),
            expected="fails",
            actual="checked",
            note=f"{kind} witness on Sym^2 Q^2",
        )
    return rec.result()


def _check_module_maps(params) -> CheckResult:
    n = params["N"]
    window = _window(params)
    rec = _recorder("module-maps", params, "N", "beta", "d")
    spec = ActionSpec.make("H", n, Lambda(0), params["beta"])
    map_ids = (
        [pi(p) for p in range(0, n)]
        + [T(p) for p in range(1, n + 1)]
        + [theta_tilde(p) for p in range(2, n + 1)]
        + [f(p) for p in range(0, n)]
    )
    for mid in map_ids:
        src, _ = map_degrees(mid, n)
        rep = verify_module_map(mid, spec.with_fiber(Lambda(src)), window)
        rec.verdict(rep, f"map {mid}")
        rec.counts["skipped"] += rep.counts.get("skipped", 0)
    return rec.result()


def _check_inclusion_chain(params) -> CheckResult:
    n = params["N"]
    beta = params["beta"]
    window = _window(params)
    rec = _recorder("inclusion-chain", params, "N", "beta", "d")
    oracle_samples = 4
    rng = _rng(params, f"oracle-{n}")
    for p in range(1, n):
        spec = ActionSpec.make("H", n, Lambda(p), beta)
        # keyed by the oracle's names: min, fullw, int, max
        fam = {kind.value.lower(): build_family(kind, p, spec, window) for kind in FamilyKind}
        expected = {
            "min": comb(n - 2, p - 1),
            "fullw": comb(n - 1, p - 1),
            "int": comb(n - 2, p - 1) + comb(n - 2, p),
            "max": comb(n, p) - comb(n - 2, p - 1),
        }
        degs = _generic_degrees(spec, window)
        at = [window.index(k) for k in degs]
        # the distinct tuples of blocks, each inclusion tested over all of
        # them in one product
        tuples, which = place_tuples(fam.values(), at)
        (mn, fw, it, mx), (b_mn, b_fw, b_it, b_mx) = fam.values(), tuples.T
        held = contained(mn.rows[b_mn], fw.anns[b_fw]) & contained(fw.rows[b_fw], mx.anns[b_mx]) \
            & contained(mn.rows[b_mn], it.anns[b_it]) & contained(it.rows[b_it], mx.anns[b_mx])
        dims = np.zeros(tuples.shape, dtype=np.intp)
        dims[which] = np.stack([family.dims[at] for family in fam.values()], axis=1)
        verdicts = []
        for ok, row in zip(held.tolist(), dims.tolist()):
            dims_here = dict(zip(fam, row))
            verdicts.append(("chain inclusions", "violated") if not ok else
                            (str(expected), str(dims_here)) if dims_here != expected else None)
        fails = [(k, verdicts[t]) for k, t in zip(degs, which.tolist()) if verdicts[t]]
        for k, (want, got) in fails:
            rec.record(False, degree=k, expected=want, actual=got)
        rec.tally(len(fails), "all fibers", note=f"p={p} dims {tuple(expected.values())}")
        # oracle cross-validation on sampled degrees
        for _ in range(oracle_samples):
            k = _draw(rng, degs)
            got = oracle_fiber_dims(n, p, tuple(frac(a) + b for a, b in zip(k, beta)))
            rec.expect(got, {name: int(family.dims[window.index(k)]) for name, family in fam.items()},
                       degree=k, note=f"oracle cross-check p={p}")
    return rec.result()


def _check_fiber_equalities(params) -> CheckResult:
    n = params["N"]
    window = _window(params)
    rec = _recorder("fiber-equalities", params, "N", "beta", "d")
    half = n // 2
    spec0 = ActionSpec.make("H", n, Lambda(0), params["beta"])

    def fam(kind, p):
        return build_family(kind, p, spec0.with_fiber(Fund(p)), window)

    equalities = [(FamilyKind.MIN, FamilyKind.FULLW, p, "restricted minimal = restricted Witt",
                   f"p={p}") for p in range(1, half + 1)]
    equalities += [
        (FamilyKind.MAX, FamilyKind.INT, 1, "restricted maximal = intermediate at p=1", ""),
        (FamilyKind.INT, FamilyKind.MIN, half, "restricted intermediate = minimal at p=n", ""),
    ]
    at = [window.index(k) for k in _generic_degrees(spec0, window)]
    for kind_a, kind_b, p, expected, note in equalities:
        a = fam(kind_a, p)
        b = fam(kind_b, p)
        pairs, which = place_tuples((a, b), at)
        rec.tally(int((~same_spans(a.rows[pairs[:, 0]], b.rows[pairs[:, 1]]))[which].sum()),
                  expected, note=note)
    # intermediate = kernel of the composed contraction-after-wedge map on the
    # contraction kernel, entered through the Fund(p) space's embedding
    live, place, stack = directions(spec0.scaled_shifts(window))
    for p in range(2, half + 1):
        it = fam(FamilyKind.INT, p)
        # theta_tilde(p + 1) pi(p) embed along every direction of k + beta, one
        # product and one kernel_stack over the directions, INT read at every degree
        composite = int_matmul(map_stack(theta_tilde(p + 1), n, stack),
                               int_matmul(map_stack(pi(p), n, stack), fiber_space(n, Fund(p)).embed))
        kernels = packed(kernel_stack(composite))
        bad = int((~same_spans(kernels[place], it.rows[it.place[live]])).sum())
        rec.tally(bad, "intermediate = contraction-wedge kernel", note=f"p={p}")
    return rec.result()


def _check_jh_quotient(params) -> CheckResult:
    n = params["N"]
    window = _window(params)
    rec = _recorder("JH-quotient", params, "N", "beta", "d")
    spec0 = ActionSpec.make("H", n, Lambda(0), params["beta"])
    generic = _generic_degrees(spec0, window)
    at = [window.index(k) for k in generic]
    k0 = spec0.special_degree()
    integral = k0 is not None
    policy = SpecialFiberPolicy.FULL if integral else SpecialFiberPolicy.OMIT

    def minimal(q, pol=SpecialFiberPolicy.OMIT):
        return build_family(FamilyKind.MIN, q, spec0.with_fiber(Lambda(q)), window, policy=pol)

    def quotient_is(outer, inner, family, expected) -> dict:
        """outer/inner against the family's dims over the generic degrees."""
        qd, dims = quotient_dims(outer, inner), family.dims.tolist()
        rec.tally(sum(1 for k, i in zip(generic, at) if qd[k] != dims[i]), expected, note=f"p={p}")
        return qd

    for p in range(1, n):
        spec = spec0.with_fiber(Lambda(p))
        full = GradedFamily(spec, window, dict.fromkeys(window.degrees(), Subspace.full(ext_dim(n, p))))
        mn = minimal(p)
        hat_mn = minimal(p, policy)
        fw = build_family(FamilyKind.FULLW, p, spec, window, policy=policy)
        it = build_family(FamilyKind.INT, p, spec, window, policy=policy)
        mx = build_family(FamilyKind.MAX, p, spec, window, policy=policy)
        lower = minimal(p - 1) if p >= 2 else None
        upper = minimal(p + 1)
        qd = quotient_is(full, mx, mn, "full/maximal = minimal")
        if integral:
            rec.tally(int(qd.get(k0, 0) != 0), "hat quotient vanishes at the degenerate degree",
                      note=f"p={p}")
        # the Witt and intermediate quotients drop or raise the degree by one
        for outer, inner, family, expected in (
            (fw, hat_mn, lower, "Witt/minimal drops one degree"),
            (mx, fw, upper, "maximal/Witt raises one degree"),
            (it, hat_mn, upper, "intermediate/minimal raises one degree"),
            (mx, it, lower, "maximal/intermediate drops one degree"),
        ):
            if family is not None:
                quotient_is(outer, inner, family, expected)
        # lattice identities, once per distinct tuple of blocks: the sum of
        # Witt and intermediate is one elimination of their rows, the meet the
        # kernel of their annihilators
        tuples, which = place_tuples((fw, it, mx, mn), at)
        b_fw, b_it, b_mx, b_mn = tuples.T
        joined = echelon_stack(np.concatenate([fw.rows[b_fw], it.rows[b_it]], axis=1))
        meet = packed(kernel_stack(np.concatenate([fw.anns[b_fw], it.anns[b_it]], axis=1)))
        bad = ((~same_spans(joined, mx.rows[b_mx]))[which].sum()
               + (~same_spans(meet, mn.rows[b_mn]))[which].sum())
        rec.tally(int(bad), "Witt + intermediate = maximal; meet = minimal", note=f"p={p}")
    return rec.result()


def _check_composition(params) -> CheckResult:
    n = params["N"]
    p = params["p"]
    window = _window(params)
    rec = _recorder("composition", params, "N", "p", "beta", "d")
    half = n // 2
    if not 1 <= p <= half:
        raise ValueError(f"composition needs 1 <= p <= {half}")
    spec0 = ActionSpec.make("H", n, Lambda(0), params["beta"])
    generic = _generic_degrees(spec0, window)
    k0 = spec0.special_degree()
    policy = SpecialFiberPolicy.FULL if k0 is not None else SpecialFiberPolicy.OMIT

    def fam(kind, q, pol=SpecialFiberPolicy.OMIT):
        return build_family(kind, q, spec0.with_fiber(Fund(q)), window, policy=pol)

    mn = fam(FamilyKind.MIN, p)
    it = fam(FamilyKind.INT, p, policy)
    mx = fam(FamilyKind.MAX, p, policy)
    below = fam(FamilyKind.MIN, p - 1) if p >= 2 else None
    above = fam(FamilyKind.MIN, p + 1) if p + 1 <= half else None
    fdim = fundamental_dim(n, p)
    chain_example = None
    bad = 0
    zero = [0] * len(window.degrees())
    mns, its, mxs, belows, aboves = (family.dims.tolist() if family else zero
                                     for family in (mn, it, mx, below, above))
    for k in generic:
        i = window.index(k)
        m_p, m_below, m_above = mns[i], belows[i], aboves[i]
        dims_chain = (m_p, its[i], mxs[i], fdim)
        expected_chain = (m_p, m_p + m_above, m_p + m_above + m_below, fdim)
        if dims_chain != expected_chain:
            bad += 1
            rec.record(False, degree=k, expected=str(expected_chain), actual=str(dims_chain))
            continue
        if m_below + 2 * m_p + m_above != fdim:
            bad += 1
            rec.record(False, degree=k, expected=f"bookkeeping {fdim}",
                       actual=m_below + 2 * m_p + m_above)
        chain_example = dims_chain
    rec.tally(bad, "chain dims and bookkeeping", note=f"generic chain {chain_example}")
    if k0 is not None:
        # hat chain at the degenerate degree: the extra factor is the whole fiber
        hat_min = fam(FamilyKind.MIN, p, SpecialFiberPolicy.FULL)
        if k0 in window:
            rec.expect(fdim, int(hat_min.dims[window.index(k0)] - mns[window.index(k0)]),
                       degree=k0, note="hat minimal adds the full degenerate fiber")
    return rec.result()


def _check_irreducible_min(params) -> CheckResult:
    p = params["p"]
    window = _probe_window(params)
    rec = _recorder("irreducible-min", params, "N", "p", "beta", "d", "seed")
    spec = ActionSpec.make("H", params["N"], Fund(p), params["beta"])
    family = build_family(FamilyKind.MIN, p, spec, window)
    if not rec.verdict(is_invariant(spec, family), "minimal family invariant"):
        return rec.result()
    engine = probe_engine(spec, window)
    target = engine.min_target(family)
    degs = window.degrees()
    seeds = [(degs[i], row) for i, rows in target.rows.items() for row in rows]
    _probe(rec, engine, seeds, "exact", target,
           f"{len(seeds)} seed closures match", "closure = minimal on interior", "mismatched",
           "every basis vector of every fiber")
    return rec.result()


def _contains_check(check_id: str, spec: ActionSpec, kind: FamilyKind, salt: str,
                    missing: str, family_name: str, params) -> CheckResult:
    """Random-seed closures must contain the family: nothing smaller is a
    submodule.  ``missing`` and ``family_name`` word the failure and the
    summary records."""
    window = _probe_window(params)
    count = params.get("samples", 100)
    rec = _recorder(check_id, params, "N", "p", "beta", "d", "seed", samples=count)
    family = build_family(kind, params["p"], spec, window)
    engine = probe_engine(spec, window)
    rng = _rng(params, salt)
    degs = window.degrees()
    seeds = [(_draw(rng, degs), _random_vector(rng, spec.space().dim)) for _ in range(count)]
    _probe(rec, engine, seeds, "contains", engine.min_target(family),
           f"{count} random closures contain {family_name}", missing, "missing")
    return rec.result()


def _check_uniqueness(params) -> CheckResult:
    n, p, beta = params["N"], params["p"], params["beta"]
    return _contains_check("uniqueness", ActionSpec.make("H", n, Fund(p), beta), FamilyKind.MIN,
                           f"uniq-{n}-{p}-{format_vector(beta)}", "closure contains minimal family",
                           "the minimal family", params)


def _check_unique_w(params) -> CheckResult:
    n, p, beta = params["N"], params["p"], params["beta"]
    return _contains_check("unique-W", ActionSpec.make("W", n, Lambda(p), beta), FamilyKind.FULLW,
                           f"uw-{n}-{p}", "closure contains the Witt family",
                           "the Witt family", params)


def _check_main_classification(params) -> CheckResult:
    n = params["N"]
    p = params["p"]
    beta = params["beta"]
    window = _probe_window(params)
    count = params.get("samples", 12)
    rec = _recorder("main-classification", params, "N", "p", "beta", "d", "seed", samples=count)
    spec = ActionSpec.make("H", n, Fund(p), beta)
    mn, it, mx = (build_family(kind, p, spec, window)
                  for kind in (FamilyKind.MIN, FamilyKind.INT, FamilyKind.MAX))
    engine = probe_engine(spec, window)
    rng = _rng(params, f"cls-{n}-{p}-{format_vector(beta)}")
    degs = _generic_degrees(spec, window)
    dim = spec.space().dim
    # vectors outside the maximal family generate everything
    seeds = _outside_seeds(rng, degs, mx, count)
    _probe(rec, engine, seeds, "exact", engine.full_target(),
           "outside-maximal seeds generate everything", note=f"{count} seeds")
    # strata: a vector in one family but not the previous generates that family
    strata = [(mx, it, "maximal"), (it, mn, "intermediate")]
    for outer, inner, label in strata:
        gaps = dict(zip(window.degrees(), (outer.dims - inner.dims).tolist()))
        sample_k = [k for k in degs if gaps[k] > 0]
        if not sample_k:
            continue  # the two families coincide at this p
        rec.verdict(is_invariant(spec, outer), f"{label} family invariant")
        seeds = []
        for _ in range(count):
            k = _draw(rng, sample_k)
            ok_sub = outer.fiber(k)
            for _ in range(64):
                cand = [rng.randint(-3, 3) for _ in range(ok_sub.dim)]
                w = [sum(c * row[i] for c, row in zip(cand, ok_sub.rows)) for i in range(dim)]
                if any(w) and not inner.fiber(k).contains_vector(w):
                    seeds.append((k, w))
                    break
        _probe(rec, engine, seeds, "exact", engine.min_target(outer),
               f"{label}-stratum seeds generate the {label} family", f"closure = {label} family")
    if spec.special_degree() is not None:
        _glue_freedom(rec, spec, (mn, it, mx), window)
    return rec.result()


def _glue_freedom(rec: Recorder, spec: ActionSpec, families, window: Window):
    """At integral beta the degenerate fiber can carry any subspace: images
    into it from each family vanish and images out of the full fiber stay in
    the minimal family.  Each direction is one ``fiber_escapes`` call with one
    item per edge (and family) and counts the escaping items."""
    k0 = spec.special_degree()
    if k0 not in window:
        rec.skip()  # the degenerate degree lies outside the window
        return
    table = edge_table(spec, window, default_generators(spec.kind, spec.n))
    eye = np.eye(table.dim, dtype=np.int64)
    # every edge into k0, once per family; every family is zero at k0, so
    # the annihilator there is the identity
    i0 = table.index[k0]
    gis, srcs = table.edges_into(i0)
    rows = int_blocks([row for family in families for row in family.rows[family.place[srcs]]], table.dim)
    cs = np.tile(table.cq[srcs, gis] * table.scale, len(families))
    bad_in = int(fiber_escapes(rows, eye, cs, table.qd[gis * len(families)])[0].any(-1).sum())
    rec.tally(bad_in, "no image lands in the degenerate fiber", "nonzero images",
              "glue freedom, incoming")
    # out of the full fiber at k0 into the minimal family's blocks
    gis, js = table.edges(i0)
    mn = families[0]
    cs = table.cq[i0, gis] * table.scale
    bad_out = int(fiber_escapes(eye, mn.anns[mn.place[js]], cs, table.qd[gis])[0].any(-1).sum())
    rec.tally(bad_out, "degenerate fiber maps into the minimal family", "escapes",
              "glue freedom, outgoing")


def _check_cor_p0(params) -> CheckResult:
    n = params["N"]
    window = _probe_window(params)
    rec = _recorder("cor-p0", params, "N", "beta", "d")
    spec = ActionSpec.make("H", n, ScalarFiber(), params["beta"])
    engine = probe_engine(spec, window)
    degs = window.degrees()
    one = Subspace.full(1)
    k0 = spec.special_degree()
    # at integral beta the degenerate line splits off; seeds off it regenerate the rest
    family = GradedFamily(spec, window, {k: one for k in degs if k != k0})
    if k0 is not None:
        rec.verdict(is_invariant(spec, GradedFamily(spec, window, {k0: one})),
                    "degenerate line is a family")
        rec.verdict(is_invariant(spec, family), "complement family is invariant")
    rng = _rng(params, f"p0-{n}")
    seeds = [(k, [1]) for k in [_draw(rng, degs) for _ in range(8)] if k != k0]
    _probe(rec, engine, seeds, "exact", engine.min_target(family),
           "any seed generates every fiber" if k0 is None else "complement seeds regenerate it",
           "closure = the predicted family")
    return rec.result()


def _sym2_closure_check(check_id: str, kind: str, params) -> CheckResult:
    n = params["N"]
    window = _probe_window(params)
    rec = _recorder(check_id, params, "N", "beta", "d", kind=kind)
    spec = ActionSpec.make(kind, n, Sym2(), params["beta"])
    engine = probe_engine(spec, window)
    dim = spec.space().dim
    rng = _rng(params, f"sym2-{kind}-{n}")
    degs = window.degrees()
    seeds = [(_draw(rng, degs), [1 if j == i else 0 for j in range(dim)]) for i in range(dim)]
    seeds += [(_draw(rng, degs), _random_vector(rng, dim))
              for _ in range(params.get("samples", 12))]
    k0 = spec.special_degree()
    if k0 is not None and k0 in window:
        seeds.append((k0, _random_vector(rng, dim)))
    _probe(rec, engine, seeds, "exact", engine.full_target(),
           f"{len(seeds)} seeds generate everything")
    return rec.result()


def _check_criterion_sym2(params) -> CheckResult:
    return _sym2_closure_check("criterion-sym2", "H", params)


def _check_tw(params) -> CheckResult:
    return _sym2_closure_check("TW", "W", params)


def _check_ts(params) -> CheckResult:
    return _sym2_closure_check("TS", "S", params)


def _check_homology(params) -> CheckResult:
    n = params["N"]
    beta = params["beta"]
    window = _window(params)
    rec = _recorder("homology", params, "N", "beta", "d")
    for pos in range(0, n + 1):
        rec.verdict(compare_with_prediction(DERHAM, n, beta, window, p=pos),
                    f"wedge complex at {pos}")
        rec.verdict(compare_with_prediction(TCHAIN, n, beta, window, p=pos),
                    f"contraction complex at {pos}")
    for p in range(1, n // 2 + 1):
        rec.verdict(compare_with_prediction(FSQ(p), n, beta, window), f"square-zero at {p}")
        rec.verdict(compare_with_prediction(FSQ_FUND(p), n, beta, window),
                    f"restricted square-zero at {p}")
    return rec.result()


def _check_invariant_ops(params) -> CheckResult:
    n = params["N"]
    beta = params["beta"]
    window = _window(params)
    rec = _recorder("invariant-ops", params, "N", "beta", "d")
    half = n // 2
    spec0 = ActionSpec.make("H", n, Lambda(0), beta)
    # spanning and annihilation of the invariant vectors at sampled degrees
    rng = _rng(params, f"iops-{n}")
    degs = _generic_degrees(spec0, window)
    units = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    for _ in range(4):
        k = _draw(rng, degs)
        kq = spec0.scaled_shift(k)
        ts = list(t_vectors(spec0, k, permutations(units, 2)))
        # q T pairs to zero against q (k + beta) exactly when T does
        ok_pair = all(sympl_form(kq, t) == 0 for t in ts)
        rec.expect(n - 1, rank(ts), degree=k, note="invariant vectors span the annihilator")
        rec.record(ok_pair, degree=k, expected="pair to zero", actual="ok" if ok_pair else "bad")
        frame = symplectic_extend(tuple(frac(a) + b for a, b in zip(k, beta)))
        alg = small_algebra("H", frame)
        rec.expect((half - 1) * (2 * half - 1), alg.span_dim, degree=k,
                   note="small symplectic algebra dimension")
        closed = lie_closure_holds(alg)
        rec.record(closed, degree=k, expected="bracket closed",
                   actual="closed" if closed else "open")
    # fiber invariance of the families under the rank-one operators
    for p in range(1, half + 1):
        small_window = Window(n, 1)
        spec = ActionSpec.make("H", n, Fund(p), beta)
        for kind in (FamilyKind.MIN, FamilyKind.INT):
            rec.verdict(invariance_report(build_family(kind, p, spec, small_window)),
                        f"{kind} family preserved, p={p}")
    # the operators commute with the structural maps, fiber by fiber: the
    # operator is T bar(T)^T, here for q T, and each side is one product
    # over the three sampled degrees
    draws = []
    for _ in range(3):
        k = _draw(rng, degs)
        r = tuple(rng.randint(-1, 1) for _ in range(n))
        s = tuple(rng.randint(-1, 1) for _ in range(n))
        draws.append((k, next(t_vectors(spec0, k, [(r, s)]))))
    kqs = np.array([spec0.scaled_shift(k) for k, _ in draws], dtype=object)
    ts = np.array([t for _, t in draws], dtype=object)
    defect = False
    for mid in (pi(1), T(2), theta_tilde(2), f(1)):
        src, tgt = (fiber_space(n, Lambda(deg)) for deg in map_degrees(mid, n))
        if src.scale != 1 or tgt.scale != 1:
            raise RuntimeError("exterior-power action of an invariant operator is not integral")
        phi = map_stack(mid, n, kqs)
        sides = int_matmul(phi, src.rank_one_stack(ts)), int_matmul(tgt.rank_one_stack(ts), phi)
        defect = defect | (sides[0] != sides[1]).any(axis=(1, 2))
    for (k, _), bad in zip(draws, defect.tolist()):
        rec.record(not bad, degree=k, expected="operators commute with the maps",
                   actual="defect" if bad else "commute")
    return rec.result()


def _check_classify_w(params) -> CheckResult:
    n = params["N"]
    beta = params["beta"]
    window = _probe_window(params)
    count = params.get("samples", 10)
    rec = _recorder("classify-W", params, "N", "beta", "d", "seed")
    rng = _rng(params, f"clw-{n}")
    probe_ps = sorted({1, n - 1})
    for p in range(1, n):
        spec = ActionSpec.make("W", n, Lambda(p), beta)
        k0 = spec.special_degree()
        fam = build_family(FamilyKind.FULLW, p, spec, window)
        bad = sum(1 for k, dim in zip(window.degrees(), fam.dims.tolist())
                  if k != k0 and dim != comb(n - 1, p - 1))
        rec.tally(bad, f"fiber dim {comb(n - 1, p - 1)}", note=f"p={p}")
        small = Window(n, 1)
        inner = fam.place[[window.index(k) for k in small.degrees()]]
        rec.verdict(invariance_report(GradedFamily.from_blocks(spec, small, inner, fam.rows)),
                    f"rank-one operators preserve the fibers, p={p}")
        if p not in probe_ps:
            continue
        rec.verdict(is_invariant(spec, fam), f"Witt family invariant, p={p}")
        engine = probe_engine(spec, window)
        degs = _generic_degrees(spec, window)
        # seeds inside the family regenerate it; seeds outside reach everything
        seeds = []
        for _ in range(count):
            k = _draw(rng, degs)
            sub = fam.fiber(k)
            seeds.append((k, list(sub.rows[rng.randrange(sub.dim)])))
        _probe(rec, engine, seeds, "exact", engine.min_target(fam),
               "inside seeds regenerate the Witt family", "closure = Witt family", note=f"p={p}")
        _probe(rec, engine, _outside_seeds(rng, degs, fam, count), "exact", engine.full_target(),
               "outside seeds generate everything", note=f"p={p}")
        if k0 is not None:
            _glue_freedom(rec, spec, (fam,), window)
    # the small matrix algebra over the orthogonal complement
    shift_deg = next(k for k in window.degrees() if any(a + b for a, b in zip(k, beta)))
    shift = tuple(frac(a) + b for a, b in zip(shift_deg, beta))
    alg = small_algebra("W", orthogonal_extend(shift))
    rec.expect((n - 1) ** 2, alg.span_dim, note="small matrix algebra dimension")
    return rec.result()


# ---------------------------------------------------------------------------
# catalogue


@dataclass(frozen=True)
class CheckSpec:
    description: str
    runner: object
    grid: tuple  # default parameter dictionaries for check-all
    odd_n: bool = False  # runs at odd N too (Witt and divergence-free actions only)
    reads: tuple = ()  # which of "seed" and "samples" the check reads

    @property
    def takes_p(self) -> bool:
        """Whether the check reads p: some grid point carries it."""
        return any("p" in grid for grid in self.grid)


def _grid_h(n_list=(4,), p=False):
    out = []
    for n in n_list:
        for beta in _half_grid(n):
            if p:
                for q in range(1, n // 2 + 1):
                    out.append({"N": n, "p": q, "beta": beta, "d": 2})
            else:
                out.append({"N": n, "beta": beta, "d": 2})
    return tuple(out)


CATALOGUE: dict = {
    "fundamental-dims": CheckSpec(
        "contraction-kernel dimensions match the binomial formula", _check_fundamental_dims,
        ({},),
    ),
    "contraction-iso": CheckSpec(
        "the contraction one step above the middle degree has full rank",
        _check_contraction_iso, ({"N": 4},),
    ),
    "L3-span": CheckSpec(
        "rank-one symplectic matrices over the degree box span the symplectic algebra",
        _check_l3_span, ({"N": 2}, {"N": 4}, {"N": 6}), reads=("seed",),
    ),
    "j-membership": CheckSpec(
        "square identities hold on exterior powers and fail on the symmetric square",
        _check_j_membership, ({"N": 4},),
    ),
    "module-maps": CheckSpec(
        "the wedge, contraction and square maps intertwine the fiber actions",
        _check_module_maps, _grid_h((4,)) + _grid_h((2,)),
    ),
    "inclusion-chain": CheckSpec(
        "family inclusions and generic fiber dimensions, cross-checked by the oracle",
        _check_inclusion_chain, _grid_h((4,)) + (({"N": 6, "beta": beta_half(6), "d": 1}),),
        reads=("seed",),
    ),
    "fiber-equalities": CheckSpec(
        "restricted families coincide fiberwise where predicted",
        _check_fiber_equalities, _grid_h((4,)) + ({"N": 6, "beta": beta_half(6), "d": 1},),
    ),
    "JH-quotient": CheckSpec(
        "successive quotients between the families drop to minimal families",
        _check_jh_quotient, _grid_h((4,)) + _grid_h((2,)),
    ),
    "composition": CheckSpec(
        "composition chain dimensions and their bookkeeping per generic fiber",
        _check_composition, _grid_h((4,), p=True) + _grid_h((2,), p=True),
    ),
    "irreducible-min": CheckSpec(
        "closures from every minimal-family basis vector reproduce the family",
        _check_irreducible_min, _grid_h((4,), p=True) + _grid_h((2,), p=True),
    ),
    "uniqueness": CheckSpec(
        "random-seed closures always contain the minimal family",
        _check_uniqueness, _grid_h((4,), p=True) + _grid_h((2,), p=True),
        reads=("seed", "samples"),
    ),
    "main-classification": CheckSpec(
        "closures land on the predicted family lattice; degenerate fiber glue is free",
        _check_main_classification, _grid_h((4,), p=True) + _grid_h((2,), p=True),
        reads=("seed", "samples"),
    ),
    "cor-p0": CheckSpec(
        "the scalar-fiber module splits exactly at integral beta",
        _check_cor_p0, _grid_h((4,)) + _grid_h((2,)), reads=("seed",),
    ),
    "criterion-sym2": CheckSpec(
        "symmetric-square closures over the Hamiltonian action reach full fibers",
        _check_criterion_sym2, tuple({"N": 2, "beta": b, "d": 3} for b in _half_grid(2)),
        reads=("seed", "samples"),
    ),
    "TW": CheckSpec(
        "symmetric-square closures over the Witt action reach full fibers",
        _check_tw, tuple({"N": 2, "beta": b, "d": 3} for b in _half_grid(2)), odd_n=True,
        reads=("seed", "samples"),
    ),
    "TS": CheckSpec(
        "symmetric-square closures over the divergence-free action reach full fibers",
        _check_ts, tuple({"N": 2, "beta": b, "d": 3} for b in _half_grid(2)), odd_n=True,
        reads=("seed", "samples"),
    ),
    "homology": CheckSpec(
        "per-fiber homology of all complexes matches the family predictions",
        _check_homology, _grid_h((4,)) + _grid_h((2,)),
    ),
    "invariant-ops": CheckSpec(
        "invariant operators span, preserve fibers, and commute with the maps",
        _check_invariant_ops, _grid_h((4,)) + _grid_h((2,)), reads=("seed",),
    ),
    "classify-W": CheckSpec(
        "Witt-module families have the predicted dimensions and exhaust the closures",
        _check_classify_w,
        tuple({"N": n, "beta": b, "d": 2} for n in (3, 4) for b in _half_grid(n)),
        odd_n=True, reads=("seed", "samples"),
    ),
    "unique-W": CheckSpec(
        "random-seed closures over the Witt action contain the Witt family",
        _check_unique_w,
        tuple({"N": n, "p": p, "beta": b, "d": 2}
              for n in (3, 4) for p in (1, n - 1) for b in _half_grid(n)),
        odd_n=True, reads=("seed", "samples"),
    ),
}

_DEFAULTS = {"N": 4, "d": 2, "seed": DEFAULT_SEED}


def run_check(check_id: str, **params) -> CheckResult:
    """Run one catalogue check with the given parameters."""
    if check_id not in CATALOGUE:
        raise KeyError(f"unknown check id {check_id!r}")
    spec = CATALOGUE[check_id]
    merged = dict(_DEFAULTS)
    merged.update(params)
    if merged.get("beta") is None:
        merged["beta"] = beta_zero(merged["N"])
    merged["beta"] = tuple(frac(b) for b in merged["beta"])
    if merged.get("p") is None:
        # a check that takes p runs at p = 1 without it
        merged["p"] = 1 if spec.takes_p else None
    return spec.runner(merged)


def default_grid(check_id: str) -> tuple:
    return CATALOGUE[check_id].grid


def run_all() -> list:
    """Run the whole catalogue on its default parameter grid, in order.

    A check that raises becomes an ERROR result whose one detail carries the
    exception's type and message, its traceback goes to stderr, and the run
    goes on with the next grid point."""
    results = []
    for check_id in CATALOGUE:
        for grid_params in default_grid(check_id):
            try:
                results.append(run_check(check_id, **grid_params))
            except Exception as exc:  # one broken check must not lose the others' results
                traceback.print_exc()
                params = _recorder(check_id, grid_params, *grid_params).params
                results.append(CheckResult(check_id, params, ERROR, [
                    Detail(None, "no exception", f"{type(exc).__name__}: {exc}", ERROR)]))
    return results
