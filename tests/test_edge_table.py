"""The integer EdgeTable against an independent reference built from exact
``fiber_action`` matrices, which live here for the tests alone.

``closure``, ``is_invariant`` and the probe engine all read their edges and
images from one EdgeTable, so comparing them with each other proves little.
The reference here shares none of that code: it multiplies exact Fraction
matrices and grows ``Subspace`` sums to the fixpoint.  Closures are also
compared with ``reference_saturate``, the FIFO loop of the probes run to
its fixpoint, which reads the same table but grows its spans row by row:
that checks the rounds of ``closure`` where the Fraction reference is too
slow to run.
"""

import random
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest

from slmod import graded_modules
from slmod.exact_linalg import IntSpan, Subspace, echelon_stack, int_blocks, mat_vec, subspace_sum
from slmod.graded_modules import (
    ActionSpec,
    EdgeTable,
    Fund,
    GradedFamily,
    Lambda,
    ScalarFiber,
    Sym2,
    Window,
    closure,
    default_generators,
    edge_table,
)
from slmod.sl_maps import FamilyKind, build_family
from slmod.theorem_registry import ProbeEngine, probe_engine
from slmod.torus_lie import rank_one, rank_one_sym
from reference import action_matrix_int, fiber_action, reference_edges, reference_saturate


def full_rank(mats: list, dim: int) -> list:
    """Whether each integer dim x dim matrix has rank dim, by the number of
    nonzero rows of one stacked exact elimination."""
    if not mats:
        return []
    red = echelon_stack(int_blocks(mats, dim))
    return ((red != 0).any(axis=2).sum(axis=1) == dim).tolist()


def reference_dominators(engine) -> set:
    """The engine's dominator set by breadth-first search over sets of the
    reference edges off the degenerate degree whose map q * scale * (c Id + D),
    D from the dense ``action_matrix_int``, has full rank."""
    spec, window, gens = engine.spec, engine.window, engine.gens
    index, out_edges = reference_edges(spec, window, gens)
    k0 = spec.special_degree()
    special = {i for i, k in enumerate(window.degrees()) if k == k0}
    space = spec.space()
    edges = [(i, j, gi, cq) for i, es in enumerate(out_edges) for gi, j, cq in es
             if i not in special and j not in special]
    keys = sorted({(gi, cq) for _, _, gi, cq in edges})
    dense = {gi: action_matrix_int(space, rank_one_sym(gens[gi].r) if gens[gi].u is None
                                         else rank_one(gens[gi].r, gens[gi].u))
             for gi in {gi for gi, _ in keys}}
    mats = [[[cq * space.scale * (a == b) + spec.q * x for b, x in enumerate(row)]
             for a, row in enumerate(dense[gi])] for gi, cq in keys]
    invertible = dict(zip(keys, full_rank(mats, space.dim)))
    inv_out = [set() for _ in out_edges]
    inv_in = [set() for _ in out_edges]
    for i, j, gi, cq in edges:
        if invertible[gi, cq]:
            inv_out[i].add(j)
            inv_in[j].add(i)

    def reach(start, adjacency):
        seen, work = {start}, [start]
        while work:
            for j in adjacency[work.pop()] - seen:
                seen.add(j)
                work.append(j)
        return seen

    interior = [index[k] for k in window.interior_degrees()]
    needed = set(interior) - special
    for z in interior:
        if z in needed and needed <= reach(z, inv_out):
            return reach(z, inv_in)
    return set()


def _edge_cases():
    """H, W and S at N = 2, 3, 4 (H at even N only), d = 1 and 2, beta 0
    and e1/2, with the default generators and with those of ``--rbound 2``;
    the last at d = 2 for N <= 3 only, where it still runs in well under a
    second."""
    for kind in ("H", "W", "S"):
        for n in (2, 3, 4):
            if kind == "H" and n % 2:
                continue
            for d in (1, 2):
                for rbound in (1, 2):
                    if rbound == 2 and d == 2 and n == 4:
                        continue
                    for beta in ((0,) * n, (F(1, 2),) + (0,) * (n - 1)):
                        yield pytest.param(kind, n, d, rbound, beta,
                                           id=f"{kind}-N{n}-d{d}-r{rbound}-b{beta[0]}")


def _assert_edges_match(spec, window, gens):
    table = edge_table(spec, window, gens)
    index, out_edges = reference_edges(spec, window, gens)
    assert table.index == index
    for i, edges in enumerate(out_edges):
        assert list(zip(*table.edges(i))) == edges, table.degs[i]
        assert table.skipped[i] == len(gens) - len(edges)
    # edges_between on every (degree, degree + offset) pair inside the
    # numbering, the pairs whose step leaves the box among them
    srcs = np.repeat(np.arange(len(table.degs)), len(gens))
    tgts = srcs + np.tile(table.offset, len(table.degs))
    inside = (tgts >= 0) & (tgts < len(table.degs))
    srcs, tgts = np.unique(np.stack([srcs[inside], tgts[inside]], axis=1), axis=0).T
    got, want = {}, {}
    for p, gi in zip(*table.edges_between(srcs, tgts)):
        got.setdefault((int(srcs[p]), int(tgts[p])), []).append(int(gi))
    for i, edges in enumerate(out_edges):
        for gi, j, _ in edges:
            want.setdefault((i, j), []).append(gi)
    assert got == want


@pytest.mark.parametrize("kind,n,d,rbound,beta", list(_edge_cases()))
def test_gathered_edges_equal_the_reference(kind, n, d, rbound, beta):
    spec = ActionSpec.make(kind, n, ScalarFiber(), beta)
    _assert_edges_match(spec, Window(n, d), default_generators(spec.kind, n, rbound))


@pytest.mark.parametrize("kind,n,d,rbound,beta", list(_edge_cases()))
def test_gathered_in_edges_equal_the_reference(kind, n, d, rbound, beta):
    """``edges_into(j)`` at every degree index j: the pairs (g, i), in
    generator order, with degs[i] + r_g = degs[j].  The box mask needs no
    test of its own here, since degs[j] lies in the window."""
    spec = ActionSpec.make(kind, n, ScalarFiber(), beta)
    gens = default_generators(spec.kind, n, rbound)
    table = edge_table(spec, Window(n, d), gens)
    index = {k: i for i, k in enumerate(table.degs)}
    into = [[] for _ in table.degs]
    for g, gen in enumerate(gens):
        for i, k in enumerate(table.degs):
            j = index.get(tuple(a + b for a, b in zip(k, gen.r)))
            if j is not None:
                into[j].append((g, i))
    for j, edges in enumerate(into):
        assert list(zip(*table.edges_into(j))) == edges, table.degs[j]


def test_gathered_edges_equal_the_reference_past_int64():
    """A beta denominator above 2^62: at d = 2 the shifts q(k + beta) pass
    2^63, so they and cq are Python ints."""
    for kind, n in (("H", 2), ("W", 3)):
        spec = ActionSpec.make(kind, n, ScalarFiber(), (F(1, 2**62 + 1),) + (0,) * (n - 1))
        _assert_edges_match(spec, Window(n, 2), default_generators(spec.kind, n))
        assert edge_table(spec, Window(n, 2), default_generators(spec.kind, n)).cq.dtype == object


@pytest.mark.parametrize("scale,dtype", [(1, np.int64), (2**40, object)])
def test_edge_coefficients_times_scale_stay_exact(monkeypatch, scale, dtype):
    """A beta denominator of 2^21 + 1 puts the shifts q(k + beta) near 2^22
    at d = 2.  With the space's scale at 2^40, cq * scale passes 2^62, so
    cq is built on Python ints and the coefficients ``cq * scale`` the
    sweeps form are exact; with scale 1 cq stays int64."""
    spec = ActionSpec.make("H", 2, ScalarFiber(), (F(1, 2**21 + 1), 0))
    monkeypatch.setattr(spec.space(), "scale", scale)
    table = EdgeTable(spec, Window(2, 2), default_generators(spec.kind, 2))
    assert table.cq.dtype == dtype
    assert (table.cq * table.scale).tolist() == [[c * scale for c in row] for row in table.cq.tolist()]


def test_gathered_edges_equal_the_reference_at_n6():
    spec = ActionSpec.make("H", 6, Fund(2), (F(1, 2),) + (0,) * 5)
    _assert_edges_match(spec, Window(6, 1), default_generators(spec.kind, 6))


@pytest.mark.parametrize("kind,n,d,fiber,beta", [
    (kind, n, d, fiber, beta)
    for kind, n, fibers in (("H", 2, (Lambda(1), Fund(1), ScalarFiber())),
                            ("H", 4, (Fund(2), Lambda(2), Sym2())),
                            ("W", 3, (Lambda(1), Lambda(3), Sym2())),
                            ("S", 3, (Lambda(0), Lambda(2))))
    for d in (1, 2)
    for fiber in fibers
    for beta in ((0,) * n, (F(1, 2),) + (0,) * (n - 1), (-1,) + (0,) * (n - 1),
                 (F(1, 2**62 + 1),) + (0,) * (n - 1))
])
def test_dominators_equal_the_set_search(kind, n, d, fiber, beta):
    spec = ActionSpec.make(kind, n, fiber, beta)
    window = Window(n, d)
    engine = probe_engine(spec, window)
    assert engine.dominators == reference_dominators(engine)


def test_dominators_equal_the_set_search_at_n6():
    spec = ActionSpec.make("H", 6, Fund(2), (F(1, 2),) + (0,) * 5)
    window = Window(6, 1)
    engine = probe_engine(spec, window)
    assert engine.dominators == reference_dominators(engine)


def certificate_mismatches(engine) -> list:
    """The edges on which ``_invertible_edges`` and the exact rank of the
    table's own map cq scale I + qd[g] disagree, one edge (degree and
    generator) at a time: off the degenerate degree an edge must be in the
    mask exactly when that map has full rank, at it never."""
    table = engine.table
    mask = engine._invertible_edges()
    assert not (mask & ~table.inbox).any()
    src, gis = np.nonzero(table.inbox)
    tgt = src + table.offset[gis]
    cqs = table.cq[src, gis].tolist()
    live = ~np.isin(src, engine.special) & ~np.isin(tgt, engine.special)
    keys = sorted({(g, cq) for g, cq, on in zip(gis.tolist(), cqs, live.tolist()) if on})
    qd = table.qd.tolist()
    mats = [[[cq * table.scale * (a == b) + x for b, x in enumerate(row)] for a, row in enumerate(qd[g])]
            for g, cq in keys]
    invertible = dict(zip(keys, full_rank(mats, table.dim)))
    return [(table.degs[i], table.gens[g].label(), cq)
            for i, g, cq, on in zip(src.tolist(), gis.tolist(), cqs, live.tolist())
            if mask[i, g] != (on and invertible[g, cq])]


def _certificate_cases():
    """H, W and S on every Lambda(p), Fund(p), Sym2 and the scalar fiber at
    N = 2 and 3 with d = 2 and N = 4 with d = 1 (H and Fund at even N),
    beta 0, e1/2 and (1/3, 2/5, 0, ...)."""
    for n, d in ((2, 2), (3, 2), (4, 1)):
        for kind in ("H", "W", "S"):
            if kind == "H" and n % 2:
                continue
            fibers = [Lambda(p) for p in range(n + 1)] + [Sym2(), ScalarFiber()]
            fibers += [Fund(p) for p in range(1, n // 2 + 1)] if kind == "H" else []
            for fiber in fibers:
                for beta in ((0,) * n, (F(1, 2),) + (0,) * (n - 1), (F(1, 3), F(2, 5)) + (0,) * (n - 2)):
                    yield pytest.param(kind, n, d, fiber, beta,
                                       id=f"{kind}-N{n}-d{d}-{fiber}-b{beta[0]}")


@pytest.mark.parametrize("kind,n,d,fiber,beta", list(_certificate_cases()))
def test_invertible_edges_are_the_full_rank_maps(kind, n, d, fiber, beta):
    engine = probe_engine(ActionSpec.make(kind, n, fiber, beta), Window(n, d))
    assert certificate_mismatches(engine) == []


def test_a_planted_factor_table_fails_the_rank_test(monkeypatch):
    """Dropping the factor (c + t) of W on Lambda(1) keeps edges whose map
    is singular: the rank test sees them."""
    monkeypatch.setattr(ProbeEngine, "_trace_factors", lambda self: (0,))
    engine = ProbeEngine(ActionSpec.make("W", 2, Lambda(1), (0, 0)), Window(2, 2))
    assert certificate_mismatches(engine)


def reference_closure(spec, seeds, window) -> dict:
    """Degree -> nonzero fiber of the window-truncated closure of the seeds."""
    gens = default_generators(spec.kind, spec.n)
    dim = spec.space().dim
    fibers = {k: Subspace(dim, vectors) for k, vectors in seeds.items()}
    work = list(fibers)
    while work:
        k = work.pop()
        rows = fibers[k].rows
        for g in gens:
            target = tuple(a + b for a, b in zip(k, g.r))
            if target not in window:
                continue
            # the exact matrix times its common denominator spans the same images
            m = fiber_action(spec, g, k)
            denom = lcm(*(x.denominator for row in m for x in row))
            m = [[int(x * denom) for x in row] for row in m]
            old = fibers.get(target, Subspace.zero(dim))
            new = subspace_sum(old, Subspace(dim, [mat_vec(m, row) for row in rows]))
            if new != old:
                fibers[target] = new
                if target not in work:
                    work.append(target)
    return {k: s for k, s in fibers.items() if s.dim}


def _cases(heavy: bool):
    """H/W/S x Lambda/Fund/Sym2/Scalar at N=2 (d=2) and N=4 (d=1), beta 0 and
    e1/2.  Without ``heavy``, W and S at N=4 keep the fibers of dimension at
    most 4: the reference's exact W/S closures on Lambda(2) and Sym2 take
    10-50 s each there."""
    betas = {2: ((0, 0), (F(1, 2), 0)), 4: ((0, 0, 0, 0), (F(1, 2), 0, 0, 0))}
    fibers = {
        2: (Lambda(0), Lambda(1), Lambda(2), Sym2(), ScalarFiber()),
        4: (Lambda(1), Lambda(2), Sym2(), ScalarFiber()),
    }
    for n, d in ((2, 2), (4, 1)):
        for kind in ("H", "W", "S"):
            # Fund(p) is the kernel of the symplectic contraction: H only
            extra = (Fund(n // 2),) if kind == "H" else ()
            for fiber in fibers[n] + extra:
                if n == 4 and kind != "H" and not heavy and fiber in (Lambda(2), Sym2()):
                    continue
                for beta in betas[n]:
                    yield pytest.param(kind, n, d, fiber, beta, id=f"{kind}-N{n}-{fiber}-b{beta[0]}")


def _seeds(spec, window) -> list:
    """A random vector at the centre degree, and for H on Lambda(p) / Fund(p)
    also a vector of the minimal family there, whose closure is a proper
    subfamily."""
    dim = spec.space().dim
    rng = random.Random(f"{spec.kind}{spec.n}{spec.fiber}{spec.beta}")
    seed = [rng.randint(-2, 2) for _ in range(dim)]
    seed[rng.randrange(dim)] = 1
    seeds = [seed]
    centre = (0,) * spec.n
    if spec.kind.value == "H" and spec.fiber.kind in ("lambda", "fund") and spec.fiber.p:
        minimal = build_family(FamilyKind.MIN, spec.fiber.p, spec, window).fiber(centre)
        seeds += [list(row) for row in minimal.rows[:1]]
    return seeds


@pytest.mark.parametrize("kind,n,d,fiber,beta", list(_cases(heavy=False)))
def test_closure_and_probes_match_the_fiber_action_reference(kind, n, d, fiber, beta):
    spec = ActionSpec.make(kind, n, fiber, beta)
    window = Window(n, d)
    dim = spec.space().dim
    centre = (0,) * n
    engine = probe_engine(spec, window)
    for seed in _seeds(spec, window):
        ref = reference_closure(spec, {centre: [seed]}, window)
        fam = closure(spec, {centre: [seed]}, window)
        for k in window.degrees():
            assert fam.fiber(k) == ref.get(k, Subspace.zero(dim)), k

        # the closure is its own exact and contained target; the full target
        # is reached exactly when the reference fills the interior
        ref_family = GradedFamily(spec, window, ref)
        assert engine.run([(centre, seed)], "exact", engine.min_target(ref_family)) == [True]
        assert engine.run([(centre, seed)], "contains", engine.min_target(ref_family)) == [True]
        fills = all(ref.get(k, Subspace.zero(dim)).dim == dim for k in window.interior_degrees())
        assert engine.run([(centre, seed)], "exact", engine.full_target()) == [fills]


@pytest.mark.parametrize("kind,n,d,fiber,beta", list(_cases(heavy=True)) + [
    pytest.param("H", 6, 1, Fund(2), (F(1, 2),) + (0,) * 5, id="H-N6-Fund(2)-b1/2")])
def test_edge_table_apply_matches_fiber_action(kind, n, d, fiber, beta):
    """apply is q * scale * (c Id + D) on every edge of three degrees (at
    N = 6, where the dense product is widest, of the centre alone), on unit
    rows and on unit rows times 2^70, whose products pass int64."""
    spec = ActionSpec.make(kind, n, fiber, beta)
    window = Window(n, d)
    dim = spec.space().dim
    table = edge_table(spec, window, default_generators(spec.kind, n))
    units = [[int(i == j) for j in range(dim)] for i in range(dim)]
    centre = table.index[(0,) * n]
    for i in (centre,) if n == 6 else (0, centre, len(table.degs) - 1):
        k = table.degs[i]
        for gi, j, cq in zip(*table.edges(i)):
            g = table.gens[gi]
            assert table.degs[j] == tuple(a + b for a, b in zip(k, g.r))
            factor = spec.q * table.scale
            # the image of the c-th unit vector is column c of the exact matrix
            columns = zip(*fiber_action(spec, g, k))
            for unit, column in zip(units, columns):
                exact = [factor * x for x in column]
                assert all(x.denominator == 1 for x in exact)
                for big in (1, 2**70):
                    want = [[big * int(x) for x in exact]] if any(exact) else []
                    assert table.apply(gi, cq, [[big * x for x in unit]]) == want
        assert len(table.edges(i)[0]) + table.skipped[i] == len(table.gens)


@pytest.mark.parametrize("n,d,fiber,beta,first", [
    # here neither seed degree alone generates the closure of both
    (4, 1, Lambda(2), (F(1, 2), 0, 0, 0), (FamilyKind.INT, -1)),
    (4, 1, Fund(1), (0, 0, 0, 0), (FamilyKind.MIN, 0)),
    (2, 2, Lambda(1), (0, 0), (FamilyKind.MIN, 0)),
])
def test_multi_seed_closure_matches_the_reference(n, d, fiber, beta, first):
    """Seeds at two degrees, with a dependent and a zero vector among them:
    a family vector at one degree and a maximal-family vector at the other,
    so the closure is a proper subfamily."""
    spec = ActionSpec.make("H", n, fiber, beta)
    window = Window(n, d)
    dim = spec.space().dim
    k1, k2 = (1,) + (0,) * (n - 1), (0,) * (n - 1) + (-1,)
    kind, row = first
    u = list(build_family(kind, fiber.p, spec, window).fiber(k1).rows[row])
    v = list(build_family(FamilyKind.MAX, fiber.p, spec, window).fiber(k2).rows[0])
    seeds = {k1: [u, [2 * x for x in u], [0] * dim], k2: [v, [3 * x for x in v]]}
    ref = reference_closure(spec, seeds, window)
    fam = closure(spec, seeds, window)
    assert any(s.dim < dim for s in ref.values())
    for k in window.degrees():
        assert fam.fiber(k) == ref.get(k, Subspace.zero(dim)), k


def test_closure_with_seed_entries_past_int64_matches_the_reference(monkeypatch):
    """A centre seed inside INT but outside MIN with entries past 2^62: the
    round tests of ``closure`` then run on Python ints, and the closure
    still equals the Fraction reference."""
    spec = ActionSpec.make("H", 4, Fund(1), (F(1, 2), 0, 0, 0))
    window = Window(4, 1)
    seeds = {(0, 0, 0, 0): [[2**63 + 1, 2**62 + 3, 0, 5]]}
    tops = []
    fiber_escapes = graded_modules.fiber_escapes

    def logged(rows, anns, cs, maps, tops_=None):
        tops.append(max(abs(x) for x in rows.flat))
        return fiber_escapes(rows, anns, cs, maps, tops_)

    monkeypatch.setattr(graded_modules, "fiber_escapes", logged)
    fam = closure(spec, seeds, window)
    assert tops and max(tops) >= 2**62
    ref = reference_closure(spec, seeds, window)
    for k in window.degrees():
        assert fam.fiber(k) == ref.get(k, Subspace.zero(4)), k


def _fifo_family(spec, window, seeds) -> dict:
    """Degree -> the canonical span of a ``reference_saturate`` run, the
    row-by-row loop of the probes to its fixpoint, from the same seeds."""
    table = edge_table(spec, window, default_generators(spec.kind, spec.n))
    spans = reference_saturate(table, {table.index[k]: list(map(list, rows)) for k, rows in seeds.items()})
    return {table.degs[i]: Subspace(table.dim, span.rows) for i, span in spans.items()}


def _assert_fifo_family(spec, window, seeds):
    fam = closure(spec, seeds, window)
    fifo = _fifo_family(spec, window, seeds)
    zero = Subspace.zero(spec.space().dim)
    for k in window.degrees():
        assert fam.fiber(k) == fifo.get(k, zero), k
    return fam


@pytest.mark.parametrize("kind,n,d,fiber,beta", list(_cases(heavy=True)))
def test_closure_equals_the_fifo_saturate_spans(kind, n, d, fiber, beta):
    """The rounds of ``closure`` end on the spans of the FIFO loop, on every
    spec the Fraction reference covers and on the W/S N=4 Lambda(2) and Sym2
    ones it skips."""
    spec = ActionSpec.make(kind, n, fiber, beta)
    window = Window(n, d)
    for seed in _seeds(spec, window):
        _assert_fifo_family(spec, window, {(0,) * n: [seed]})


def test_closure_equals_the_fifo_saturate_spans_past_int64():
    """Seeds with entries past 2^62 at two degrees, on Python ints in both
    loops; and seeds that are all zero vectors give the zero family."""
    spec = ActionSpec.make("S", 4, Lambda(1), (F(1, 2), 0, 0, 0))
    window = Window(4, 1)
    fam = _assert_fifo_family(spec, window, {(0, 0, 0, 0): [[2**62 + 1, -3, 2**63, 7]],
                                             (1, 0, 0, 0): [[0, 2**64, 0, 0]]})
    assert fam.fibers
    zero = _assert_fifo_family(spec, window, {(0, 0, 0, 0): [[0] * 4, [0] * 4], (0, 1, 0, 0): [[0] * 4]})
    assert not zero.fibers and (zero.place < 0).all()
    assert zero == GradedFamily(spec, window)


@pytest.mark.parametrize("kind,fiber", [("H", Fund(1)), ("W", Lambda(2)), ("S", Sym2())])
def test_closure_in_small_groups_equals_the_fifo_saturate_spans(monkeypatch, kind, fiber):
    """With ``ROUND_EDGES`` = 100 a round's degrees go in many groups, and
    with ``STACK_ITEMS`` = 7 every group makes many calls and merges, some
    of them holding more rows than a target has room for: the spans are
    still the FIFO loop's."""
    monkeypatch.setattr(graded_modules, "ROUND_EDGES", 100)
    monkeypatch.setattr(graded_modules, "STACK_ITEMS", 7)
    groups = []
    send = graded_modules._send

    def counted(table, spans, grown, fresh):
        groups.append(len(grown))
        return send(table, spans, grown, fresh)

    monkeypatch.setattr(graded_modules, "_send", counted)
    spec = ActionSpec.make(kind, 4, fiber, (F(1, 2), 0, 0, 0))
    window = Window(4, 1)
    for seed in _seeds(spec, window):
        _assert_fifo_family(spec, window, {(0, 0, 0, 0): [seed]})
    assert len(groups) > 10 and min(groups) >= 1


def _edges_int_closure():
    """The INT closure of the benchmark's edges workload: H Fund(1), N=4,
    d=2, beta = e1/2, from the centre vector (2, -1, 0, 3)."""
    spec = ActionSpec.make("H", 4, Fund(1), (F(1, 2), 0, 0, 0))
    return spec, Window(4, 2), {(0, 0, 0, 0): [[2, -1, 0, 3]]}


def test_closure_stores_no_row_through_the_fifo_path(monkeypatch):
    """The rounds grow canonical blocks by stacked products and eliminations:
    the edges INT closure calls neither ``IntSpan.add`` nor
    ``EdgeTable.apply``, and still ends on the FIFO loop's spans."""
    spec, window, seeds = _edges_int_closure()
    fifo = _fifo_family(spec, window, seeds)
    calls = []

    def refused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"closure called {name}")
        return call

    monkeypatch.setattr(IntSpan, "add", refused("IntSpan.add"))
    monkeypatch.setattr(EdgeTable, "apply", refused("EdgeTable.apply"))
    fam = closure(spec, seeds, window)
    assert calls == []
    for k in window.degrees():
        assert fam.fiber(k) == fifo.get(k, Subspace.zero(4)), k
    assert any(sub.dim < 4 for sub in fam.fibers.values())  # a proper subfamily


@pytest.mark.parametrize("d,seed,dtype", [
    (2, [2, -1, 0, 3], "int64"),
    # the seed of the past-int64 test above
    (1, [2**63 + 1, 2**62 + 3, 0, 5], "object"),
])
def test_closure_rounds_stay_in_int64_until_a_row_needs_python_ints(monkeypatch, d, seed, dtype):
    """Every image and elimination of the rounds runs in int64 from the
    int64 seed, and the past-int64 seed takes them to Python ints; each
    fiber equals the FIFO loop's span, and the family is a proper one."""
    spec, window, _ = _edges_int_closure()
    window = Window(4, d)
    seeds = {(0, 0, 0, 0): [seed]}
    fifo = _fifo_family(spec, window, seeds)
    images, stacks = [], []
    fiber_escapes, echelon_stack = graded_modules.fiber_escapes, graded_modules.echelon_stack

    def imaged(*args, **kwargs):
        out = fiber_escapes(*args, **kwargs)
        images.append(out[1].dtype)
        return out

    def logged(stack):
        stacks.append(stack.dtype)
        return echelon_stack(stack)

    monkeypatch.setattr(graded_modules, "fiber_escapes", imaged)
    monkeypatch.setattr(graded_modules, "echelon_stack", logged)
    fam = closure(spec, seeds, window)
    for k in window.degrees():
        assert fam.fiber(k) == fifo.get(k, Subspace.zero(4)), k
    assert images and stacks
    if dtype == "int64":
        assert set(images) == set(stacks) == {np.dtype(np.int64)}
    else:
        assert object in images and object in stacks
    assert any(sub.dim < 4 for sub in fam.fibers.values())  # a proper subfamily


@pytest.mark.parametrize("round_edges", [graded_modules.ROUND_EDGES, 100])
def test_closure_hands_out_every_pivot_row_once(monkeypatch, round_edges):
    """Every degree sends each canonical row it gains exactly once: over the
    rounds, the nonzero rows handed to ``_send`` for a degree are
    independent, as many as its final dimension, and span its fiber, in one
    group a round or in groups of one degree.  A round that sent only some
    of the rows a degree gained could still reach the same fixpoint through
    other edges, so the rows are checked directly."""
    monkeypatch.setattr(graded_modules, "ROUND_EDGES", round_edges)
    spec, window, seeds = _edges_int_closure()
    sent = {}
    send = graded_modules._send

    def logged(table, spans, grown, fresh):
        for i, rows in zip(grown.tolist(), fresh.tolist()):
            sent.setdefault(i, []).extend(row for row in rows if any(row))
        return send(table, spans, grown, fresh)

    monkeypatch.setattr(graded_modules, "_send", logged)
    fam = closure(spec, seeds, window)
    dims = fam.dims.tolist()
    assert sorted(sent) == [i for i, dim in enumerate(dims) if dim]
    for i, rows in sent.items():
        assert Subspace(4, rows).dim == len(rows) == dims[i]
        assert Subspace(4, rows) == fam.fiber(window.degrees()[i])


def test_a_merge_tests_its_leftover_rows_against_every_annihilator_row():
    """Five rows sent to an empty 4-dimensional span: the first four are
    multiples of e1 and fill its four slots, so e4, left over, is tested
    against the annihilator of span(e1), whose rows are e2, e3 and e4; only
    the last one sees e4, which must still join the span."""
    spans = graded_modules._Spans(3, 4)
    e1, e4 = [1, 0, 0, 0], [0, 0, 0, 1]
    rows = np.array([e1, [2, 0, 0, 0], e1, [-3, 0, 0, 0], e4], dtype=np.int64)
    spans.merge(np.full(5, 1, dtype=np.intp), rows)
    assert spans.dims.tolist() == [0, 2, 0]
    assert spans.rows[1].tolist() == [e1, e4, [0] * 4, [0] * 4]
