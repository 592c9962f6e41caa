"""The integer EdgeTable against an independent reference built from exact
``fiber_action`` matrices.

``closure``, ``is_invariant`` and the probe engine all read their edges and
images from one EdgeTable, so comparing them with each other proves little.
The reference here shares none of that code: it multiplies exact Fraction
matrices and grows ``Subspace`` sums to the fixpoint.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest

from slmod import graded_modules
from slmod.exact_linalg import Subspace, mat_vec, subspace_sum
from slmod.graded_modules import (
    ActionSpec,
    Fund,
    GradedFamily,
    Lambda,
    ScalarFiber,
    Sym2,
    Window,
    closure,
    default_generators,
    edge_table,
    fiber_action,
)
from slmod.sl_maps import FamilyKind, build_family
from slmod.theorem_registry import probe_engine
from slmod.torus_lie import AlgebraKind, bar


def reference_edges(spec, window, gens) -> tuple:
    """``(index, out_edges)``: the degree index of ``window.degrees()`` and,
    per degree, the ``(gi, j, cq)`` of every map into the window, in
    generator order, found one degree and one generator at a time."""
    degs = window.degrees()
    index = {k: i for i, k in enumerate(degs)}
    pairing = [bar(g.r) if spec.kind is AlgebraKind.H else g.u for g in gens]
    out_edges = []
    for k in degs:
        kq = spec.scaled_shift(k)
        edges = []
        for gi, (g, pv) in enumerate(zip(gens, pairing)):
            j = index.get(tuple(a + b for a, b in zip(k, g.r)))
            if j is not None:
                edges.append((gi, j, sum(a * b for a, b in zip(pv, kq))))
        out_edges.append(edges)
    return index, out_edges


def reference_dominators(engine) -> set:
    """The engine's dominator set by breadth-first search over sets of the
    invertible reference edges off the degenerate degree."""
    spec, window, gens = engine.spec, engine.window, engine.gens
    index, out_edges = reference_edges(spec, window, gens)
    factors = engine._trace_factors()
    special = {i for i, k in enumerate(window.degrees()) if spec.is_special(k)}
    inv_out = [set() for _ in out_edges]
    inv_in = [set() for _ in out_edges]
    for i, edges in enumerate(out_edges):
        for gi, j, cq in edges:
            trace = 0 if gens[gi].u is None else sum(a * b for a, b in zip(gens[gi].u, gens[gi].r))
            if i not in special and j not in special and all(
                    cq + jj * spec.q * trace != 0 for jj in factors):
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


@pytest.mark.parametrize("kind,n,d,rbound,beta", list(_edge_cases()))
def test_gathered_edges_equal_the_reference(kind, n, d, rbound, beta):
    spec = ActionSpec.make(kind, n, ScalarFiber(), beta)
    _assert_edges_match(spec, Window(n, d), default_generators(spec.kind, n, rbound))


def test_gathered_edges_equal_the_reference_past_int64():
    """A beta denominator above 2^62: at d = 2 the shifts q(k + beta) pass
    2^63, so they and cq are Python ints."""
    for kind, n in (("H", 2), ("W", 3)):
        spec = ActionSpec.make(kind, n, ScalarFiber(), (F(1, 2**62 + 1),) + (0,) * (n - 1))
        _assert_edges_match(spec, Window(n, 2), default_generators(spec.kind, n))
        assert edge_table(spec, Window(n, 2), default_generators(spec.kind, n)).cq.dtype == object


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
        assert engine.run(centre, seed, "exact", engine.min_target(ref_family))
        assert engine.run(centre, seed, "contains", engine.min_target(ref_family))
        fills = all(ref.get(k, Subspace.zero(dim)).dim == dim for k in window.interior_degrees())
        assert engine.run(centre, seed, "exact", engine.full_target()) == fills


@pytest.mark.parametrize("kind,n,d,fiber,beta", list(_cases(heavy=True)))
def test_edge_table_apply_matches_fiber_action(kind, n, d, fiber, beta):
    """apply is q * scale * (c Id + D) on every edge of three degrees."""
    spec = ActionSpec.make(kind, n, fiber, beta)
    window = Window(n, d)
    dim = spec.space().dim
    table = edge_table(spec, window, default_generators(spec.kind, n))
    units = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for i in (0, table.index[(0,) * n], len(table.degs) - 1):
        k = table.degs[i]
        for gi, j, cq in zip(*table.edges(i)):
            g = table.gens[gi]
            assert table.degs[j] == tuple(a + b for a, b in zip(k, g.r))
            factor = spec.q * table.scale[gi]
            # the image of the c-th unit vector is column c of the exact matrix
            columns = zip(*fiber_action(spec, g, k))
            for unit, column in zip(units, columns):
                exact = [factor * x for x in column]
                assert all(x.denominator == 1 for x in exact)
                assert table.apply(gi, cq, [unit]) == ([[int(x) for x in exact]] if any(exact) else [])
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
    settled-target test of ``saturate`` then runs on Python ints, and the
    closure still equals the Fraction reference."""
    spec = ActionSpec.make("H", 4, Fund(1), (F(1, 2), 0, 0, 0))
    window = Window(4, 1)
    seeds = {(0, 0, 0, 0): [[2**63 + 1, 2**62 + 3, 0, 5]]}
    tops = []
    fiber_escapes = graded_modules.fiber_escapes

    def logged(rows, anns, cs, maps):
        tops.append(max(abs(x) for x in rows.flat))
        return fiber_escapes(rows, anns, cs, maps)

    monkeypatch.setattr(graded_modules, "fiber_escapes", logged)
    fam = closure(spec, seeds, window)
    assert tops and max(tops) >= 2**62
    ref = reference_closure(spec, seeds, window)
    for k in window.degrees():
        assert fam.fiber(k) == ref.get(k, Subspace.zero(4)), k
