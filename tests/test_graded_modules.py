import os
import random
import subprocess
import sys
from fractions import Fraction as F
from functools import lru_cache
from math import lcm
from pathlib import Path

import numpy as np
import pytest

from slmod import graded_modules, theorem_registry
from slmod.exact_linalg import Subspace, identity, int_blocks, subspaces
from slmod.graded_modules import (
    ActionSpec,
    FiberSpace,
    Fund,
    GradedFamily,
    Lambda,
    ScalarFiber,
    Sym2,
    Window,
    closure,
    default_generators,
    edge_table,
    fiber_escapes,
    fiber_space,
    gen_d,
    gen_h,
    is_invariant,
)
from slmod.sl_maps import FamilyKind, build_family
from slmod.theorem_registry import ProbeTarget
from slmod.torus_lie import AlgebraKind, bar, rank_one, rank_one_sym, sympl_form
from reference import (
    action_matrix_int, fiber_action, from_triplets, mat_mul, mat_sub, reference_turns_fire, subspace_contains,
)

HALF = (F(1, 2), 0, 0, 0)


def test_fiber_action_examples():
    spec = ActionSpec.make("H", 4, Lambda(1), (0, 0, 0, 0))
    # r = e1 at k = e1: the scalar part vanishes, e3 -> -e1 remains
    m = fiber_action(spec, gen_h((1, 0, 0, 0)), (1, 0, 0, 0))
    assert m == ((0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    # r = 0 gives the zero map
    z = fiber_action(spec, gen_h((0, 0, 0, 0)), (1, 0, 0, 0))
    assert z == ((0,) * 4,) * 4
    # scalar fiber: multiplication by the pairing
    spec0 = ActionSpec.make("H", 4, ScalarFiber(), (0, 0, 0, 0))
    m = fiber_action(spec0, gen_h((0, 0, 1, 0)), (1, 0, 0, 0))
    assert m == ((F(1),),)


def test_fiber_action_generator_validation():
    spec = ActionSpec.make("H", 4, Lambda(1), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        fiber_action(spec, gen_d((1, 0, 0, 0), (1, 0, 0, 0)), (0, 0, 0, 0))
    spec_s = ActionSpec.make("S", 4, Lambda(1), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        fiber_action(spec_s, gen_d((1, 0, 0, 0), (1, 0, 0, 0)), (0, 0, 0, 0))


def test_action_bracket_compatibility():
    """(bar r|s) * act(h_{r+s}) = act(h_r at k+s) act(h_s at k) - (r <-> s)."""
    spec = ActionSpec.make("H", 4, Lambda(2), HALF)
    k = (1, 0, -1, 0)
    samples = [((1, 0, 0, 0), (0, 0, 1, 0)), ((1, 1, 0, 0), (0, -1, 1, 0)),
               ((0, 1, 0, 1), (1, 0, 1, 0))]
    for r, s in samples:
        coeff, rs = sympl_form(r, s), tuple(a + b for a, b in zip(r, s))
        lhs = tuple(tuple(coeff * x for x in row) for row in fiber_action(spec, gen_h(rs), k))
        ks = tuple(a + b for a, b in zip(k, s))
        kr = tuple(a + b for a, b in zip(k, r))
        rhs = mat_sub(
            mat_mul(fiber_action(spec, gen_h(r), ks), fiber_action(spec, gen_h(s), k)),
            mat_mul(fiber_action(spec, gen_h(s), kr), fiber_action(spec, gen_h(r), k)),
        )
        assert lhs == rhs


def test_closure_empty_seeds():
    spec = ActionSpec.make("H", 4, Lambda(1), HALF)
    win = Window(4, 1)
    fam = closure(spec, {}, win)
    assert all(fam.fiber(k).dim == 0 for k in win.degrees())


def test_closure_from_minimal_seed_matches_family():
    spec = ActionSpec.make("H", 4, Fund(2), HALF)
    win = Window(4, 2)
    fam_min = build_family(FamilyKind.MIN, 2, spec, win)
    seed = fam_min.fiber((0, 0, 0, 0)).rows[0]
    fam = closure(spec, {(0, 0, 0, 0): [seed]}, win)
    for k in win.interior_degrees():
        assert fam.fiber(k) == fam_min.fiber(k)


def test_closure_from_outside_maximal_reaches_full():
    spec = ActionSpec.make("H", 4, Fund(2), HALF)
    win = Window(4, 2)
    fam_max = build_family(FamilyKind.MAX, 2, spec, win)
    sub = fam_max.fiber((0, 0, 0, 0))
    vec = None
    for i in range(5):
        cand = [1 if j == i else 0 for j in range(5)]
        if not sub.contains_vector(cand):
            vec = cand
            break
    assert vec is not None
    fam = closure(spec, {(0, 0, 0, 0): [vec]}, win)
    assert {fam.fiber(k).dim for k in win.interior_degrees()} == {5}


def test_closure_monotone_in_generators():
    spec = ActionSpec.make("H", 2, Sym2(), HALF[:2])
    win = Window(2, 2)
    seed = {(0, 0): [[1, 0, 0]]}
    small = closure(spec, seed, win, default_generators(spec.kind, 2, 1))
    large = closure(spec, seed, win, default_generators(spec.kind, 2, 2))
    for k in win.degrees():
        assert subspace_contains(large.fiber(k), small.fiber(k))


def test_closure_stable_under_larger_generator_box():
    spec = ActionSpec.make("H", 2, Sym2(), HALF[:2])
    win = Window(2, 2)
    seed = {(0, 0): [[1, 0, 0]]}
    small = closure(spec, seed, win, default_generators(spec.kind, 2, 1))
    large = closure(spec, seed, win, default_generators(spec.kind, 2, 2))
    assert (small.dims == large.dims).all()


def test_closure_output_is_invariant():
    spec = ActionSpec.make("H", 2, Sym2(), HALF[:2])
    win = Window(2, 2)
    fam = closure(spec, {(0, 0): [[1, 0, 0]]}, win)
    assert is_invariant(spec, fam).status == "PASS"


def test_is_invariant_families():
    spec = ActionSpec.make("H", 4, Lambda(2), HALF)
    win = Window(4, 1)
    assert is_invariant(spec, build_family(FamilyKind.MIN, 2, spec, win)).status == "PASS"
    assert is_invariant(spec, build_family(FamilyKind.MAX, 2, spec, win)).status == "PASS"


def _mutated_min_family(k=(0, 0, 0, 0)):
    spec = ActionSpec.make("H", 4, Fund(2), HALF)
    win = Window(4, 1)
    fam = build_family(FamilyKind.MIN, 2, spec, win)
    line = Subspace(5, [(1, 0, 0, 0, 0)])
    return spec, GradedFamily(spec, win, {**fam.fibers, k: line})


def test_is_invariant_mutation_fails():
    spec, bad = _mutated_min_family()
    report = is_invariant(spec, bad)
    assert report.status == "FAIL"
    # every degree counts all of its maps that leave the window, pass or fail
    assert report.counts == {"pass": 9, "fail": 72, "skipped": 4160}
    fails = [d.to_dict() for d in report.details if d.status == "FAIL"]
    assert len(fails) == 64
    assert fails[0] == {
        "degree": [-1, -1, -1, -1],
        "expected": "image inside fiber",
        "actual": "escapes",
        "status": "FAIL",
        "note": "generator h[1, 1, 1, 1] -> degree [0, 0, 0, 0]",
    }
    assert fails[-1]["note"] == "generator h[-1, 0, -1, -1] -> degree [0, 0, 0, 0]"


def test_is_invariant_counts_do_not_depend_on_generator_order(monkeypatch):
    # swapped off the centre, so that reversing the generators (r -> -r) is
    # no symmetry of the family
    spec, bad = _mutated_min_family((1, 0, 0, 0))
    counts = is_invariant(spec, bad).counts
    forward = graded_modules.default_generators
    monkeypatch.setattr(graded_modules, "default_generators",
                        lambda kind, n: tuple(reversed(forward(kind, n))))
    report = is_invariant(spec, bad)
    assert report.status == "FAIL"
    assert report.counts == counts


def test_window_and_family_plumbing():
    win = Window(4, 2)
    assert len(win.degrees()) == 5**4
    assert len(win.interior_degrees()) == 3**4
    assert (2, 2, 2, 2) in win and (3, 0, 0, 0) not in win
    spec = ActionSpec.make("H", 4, Lambda(2), HALF)
    fam = GradedFamily(spec, win, {(0, 0, 0, 0): Subspace.full(6)})
    dims = fam.dims
    assert dims[win.index((0, 0, 0, 0))] == 6 and dims.sum() == 6
    assert [win.index(k) for k in win.degrees()] == list(range(len(dims)))
    with pytest.raises(ValueError):
        GradedFamily(spec, win, {(9, 0, 0, 0): Subspace.full(6)})
    with pytest.raises(ValueError):
        GradedFamily(spec, win, {(0, 0, 0, 0): Subspace.full(4)})


def _restrict(space, *subs):
    """``space.from_lambda`` on the stack of the subspaces' rows, zero-padded,
    its items wrapped as ``Subspace``s."""
    height = max(s.dim for s in subs)
    stack = np.zeros((len(subs), height, subs[0].ambient_dim), dtype=object)
    for item, s in zip(stack, subs):
        for i, row in enumerate(s.rows):
            item[i] = row
    return subspaces(space.from_lambda(stack))


def test_fund_fiber_space_restricts_the_whole_kernel():
    space = fiber_space(4, Fund(2))
    full, zero = Subspace.full(space.dim), Subspace.zero(space.dim)
    # the orthogonal complement of the kernel meets it in zero
    complement = Subspace(6, space._fund.annihilator())
    assert _restrict(space, space._fund, Subspace.full(6), complement) == [full, full, zero]
    assert _restrict(space, Subspace.zero(6)) == [zero]
    lam = fiber_space(4, Lambda(2))
    assert _restrict(lam, space._fund, complement) == [space._fund, complement]


def test_fund_restriction_reads_pivot_one_coordinates():
    # independent form: integer combinations of the pivot-1 kernel basis
    # times the lcm of the pivots.
    # The contraction kernels have unit pivots; a stand-in kernel with
    # pivots 2 and 3, cut out by its own one-row contraction, checks that
    # coordinates are read off the pivots.
    skewed = FiberSpace(4, Fund(2))
    skewed._fund = Subspace(6, [(2, 0, 1, 0, 0, 0), (0, 3, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                                (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)])
    skewed._theta = np.array(skewed._fund.annihilator(), dtype=np.int64)
    for space in (fiber_space(4, Fund(2)), skewed):
        fund = space._fund
        big = lcm(*(row[pc] for row, pc in zip(fund.rows, fund.pivots)))
        basis = [[x * (big // row[pc]) for x in row] for row, pc in zip(fund.rows, fund.pivots)]
        # a vector off the kernel: the part of its span with the kernel rows is theirs
        off = list(fund.annihilator()[0])
        for coords in ([[1, 0, 0, 0, 0]], [[0, 2, 0, -1, 0], [0, 0, 3, 0, 1]], [[1, 1, 1, 1, 1]]):
            sub = Subspace(space.dim, coords)
            ref = [[sum(c * b[j] for c, b in zip(row, basis)) for j in range(6)] for row in sub.rows]
            assert _restrict(space, Subspace(6, ref), Subspace(6, ref + [off])) == [sub, sub]


def test_fund_fibers_need_the_hamiltonian_action():
    # only the Hamiltonian action preserves the contraction kernel
    for kind in ("W", "S"):
        with pytest.raises(ValueError, match="Hamiltonian"):
            ActionSpec.make(kind, 4, Fund(2), (0, 0, 0, 0))
    assert ActionSpec.make("H", 4, Fund(2), (0, 0, 0, 0)).space().dim == 5


def test_spec_validation():
    with pytest.raises(ValueError):
        ActionSpec.make("H", 3, Lambda(1), (0, 0, 0))
    with pytest.raises(ValueError):
        ActionSpec.make("H", 4, Fund(3), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        ActionSpec.make("H", 4, Lambda(1), (0, 0))


RANK_ONE_CASES = (
    [(n, Lambda(p)) for n in (2, 4, 6) for p in range(n + 1)]
    + [(n, Fund(p)) for n in (2, 4, 6) for p in range(1, n // 2 + 1)]
    + [(n, fiber) for n in (2, 4) for fiber in (Sym2(), ScalarFiber())]
)


@pytest.mark.parametrize("form", ["x-bar-x", "x-y"])
@pytest.mark.parametrize("n,fiber", RANK_ONE_CASES, ids=[f"N{n}-{f}" for n, f in RANK_ONE_CASES])
def test_rank_one_action_is_the_dense_action(n, fiber, form):
    """Each item of ``rank_one_stack`` equals ``action_matrix_int`` of the
    same rank-one matrix, times the space's scale: x bar(x)^T, and x y^T off
    Fund(p >= 2); on small entries, a zero row, entries near 2^40 (where the
    coefficients pass int64 and the product runs on Python ints) and no row."""
    space = fiber_space(n, fiber)
    rng = random.Random(f"rank-one-{n}-{fiber}-{form}")
    small = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(8)] + [(0,) * n]
    huge = [tuple(rng.randint(-(2**40), 2**40) for _ in range(n)) for _ in range(3)]
    for rows in (small, huge, []):
        xs = np.array(rows, dtype=object).reshape(len(rows), n)
        ys = xs[::-1].copy()
        if form == "x-bar-x":
            stack = space.rank_one_stack(xs)
            want = [action_matrix_int(space, rank_one_sym(x)) for x in rows]
        elif fiber.kind == "fund" and fiber.p >= 2:
            # E_ab leaves sp, and with it the contraction kernel
            with pytest.raises(ValueError):
                space.rank_one_stack(xs, ys)
            continue
        else:
            stack = space.rank_one_stack(xs, ys)
            want = [action_matrix_int(space, rank_one(x, y)) for x, y in zip(rows, ys.tolist())]
        assert stack.shape == (len(rows), space.dim, space.dim)
        for got, mat in zip(stack.tolist(), want):
            assert tuple(map(tuple, got)) == mat


TABLE_CASES = RANK_ONE_CASES + [(3, fiber) for fiber in (*map(Lambda, range(4)), Sym2(), ScalarFiber())]


@pytest.mark.parametrize("n,fiber", TABLE_CASES, ids=[f"N{n}-{f}" for n, f in TABLE_CASES])
def test_rank_one_tables_are_the_monomial_actions(n, fiber):
    """Every item of ``rank_one_actions`` is ``action_matrix_int`` of its
    elementary matrix, in the pair order ``rank_one_stack`` reads: E_ab off
    Fund(p >= 2), where it leaves the contraction kernel, and P_ab at even
    N; the tables are C-contiguous int64."""
    space = fiber_space(n, fiber)
    units = identity(n)
    for symplectic in (False, True) if n % 2 == 0 else (False,):
        if symplectic:
            want = [((a, b), from_triplets(n, n, [(x, j, v) for x, y in {(a, b), (b, a)}
                                                  for j, v in enumerate(bar(units[y])) if v]))
                    for a in range(n) for b in range(a, n)]
        elif fiber.kind == "fund" and fiber.p >= 2:
            with pytest.raises(ValueError):  # E_ab leaves the contraction kernel
                space.rank_one_actions(False)
            continue
        else:
            want = [((a, b), from_triplets(n, n, [(a, b, 1)])) for a in range(n) for b in range(n)]
        pairs, dense = space.rank_one_actions(symplectic)
        assert dense.dtype == np.int64 and dense.flags.c_contiguous
        assert [tuple(pair) for pair in pairs.tolist()] == [pair for pair, _ in want]
        assert [tuple(map(tuple, m)) for m in dense.tolist()] == [action_matrix_int(space, m)
                                                                  for _, m in want]


# ---------------------------------------------------------------------------
# the probes' FIFO turns against the worklist that applies every edge


def _int_closure():
    """H Fund(1), N=4, d=2, beta = e1/2: the probe engine and the start of a
    centre seed inside INT but outside MIN, whose closure is INT."""
    spec = ActionSpec.make("H", 4, Fund(1), HALF)
    engine = theorem_registry.probe_engine(spec, Window(4, 2))
    return engine, {engine.table.index[(0, 0, 0, 0)]: [[2, -1, 0, 3]]}


def _never(engine) -> ProbeTarget:
    """A certified target whose hook never fires: in mode "exact" no span
    reaches dims above the fiber's."""
    return ProbeTarget(dict.fromkeys(range(len(engine.table.degs)), engine.table.dim + 1), None, True, [])


@lru_cache(maxsize=None)
def _turn_cases() -> list:
    """(engine, starts, mode, target, ends): the INT closure's centre seed
    and six random seeds each of H Fund(1) and H Fund(2) at N=4 d=2 and of
    W Lambda(1) at N=3 d=2, against the full target in mode "exact" and,
    for H, MIN, INT and MAX in mode "contains"; ``ends[s][t]`` says whether
    the row-by-row reference from ``starts[s]`` fires within t turns."""
    engine, start = _int_closure()
    cases = [(engine, [start])]
    for kind, fiber, beta in [("H", Fund(1), HALF), ("H", Fund(2), HALF), ("W", Lambda(1), (F(1, 2), 0, 0))]:
        spec = ActionSpec.make(kind, len(beta), fiber, beta)
        window = Window(len(beta), 2)
        engine = theorem_registry.probe_engine(spec, window)
        rng = random.Random(1)
        degs = window.degrees()
        starts = []
        for _ in range(6):
            vector = [rng.randint(-3, 3) for _ in range(spec.space().dim)]
            vector[rng.randrange(len(vector))] = 1
            starts.append({engine.table.index[degs[rng.randrange(len(degs))]]: [vector]})
        cases.append((engine, starts))
    out = []
    for engine, starts in cases:
        spec = engine.spec
        targets = [("exact", engine.full_target())]
        if spec.kind is AlgebraKind.H:
            targets += [("contains", engine.min_target(build_family(kind, spec.fiber.p, spec, engine.window)))
                        for kind in (FamilyKind.MIN, FamilyKind.INT, FamilyKind.MAX)]
        for mode, target in targets:
            ends = [[reference_turns_fire(engine, start, mode, target, t) for t in range(6)] for start in starts]
            out.append((engine, starts, mode, target, ends))
    return out


@pytest.mark.parametrize("turns", range(6))
def test_turns_fire_where_the_cut_reference_fires(monkeypatch, turns):
    """With ``HOOK_TURNS`` set to 0..5, the stacked turns of each seed, all
    of a case's seeds in one call, fire exactly when the row-by-row
    reference cut at that many turns fires.  Among the cases the reference
    first fires in each of turns 2 to 5 (turn 0 is the start), so every
    budget splits them."""
    monkeypatch.setattr(theorem_registry, "HOOK_TURNS", turns)
    firsts = set()
    for engine, starts, mode, target, ends in _turn_cases():
        assert engine._turns(starts, mode, target).tolist() == [end[turns] for end in ends], (engine.spec, mode)
        firsts |= {end.index(True) if True in end else None for end in ends}
    assert {2, 3, 4, 5} <= firsts


def test_a_target_that_fills_mid_turn_skips_its_later_edges(monkeypatch):
    """From (1, 2, 1) on W Lambda(1) N=3 d=2 the generators of one degree
    step fill a shared target partway through a turn.  With ``STACK_ITEMS``
    at 1 every slice is one edge, so the turn skips the target's later
    edges as the row-by-row reference does, and fires with it at every
    budget of 0..5 turns against the full target."""
    spec = ActionSpec.make("W", 3, Lambda(1), (F(1, 2), 0, 0))
    engine = theorem_registry.probe_engine(spec, Window(3, 2))
    start = {engine.table.index[(1, 2, 1)]: [[3, 3, 1]]}
    target = engine.full_target()
    monkeypatch.setattr(theorem_registry, "STACK_ITEMS", 1)
    ends = [reference_turns_fire(engine, start, "exact", target, t) for t in range(6)]
    assert True in ends[1:] and not ends[0]
    for turns in range(6):
        monkeypatch.setattr(theorem_registry, "HOOK_TURNS", turns)
        assert engine._turns([start], "exact", target).tolist() == [ends[turns]]


def test_exact_turns_build_no_annihilator(monkeypatch):
    """The turns of an "exact" probe grow their spans from
    ``EdgeTable.images`` and ``_merge`` alone: with ``fiber_escapes``,
    ``kernel_stack``, ``int_blocks``, ``annihilator_stack`` and ``closure``
    made to fail, a hook that never fires takes all ``HOOK_TURNS`` turns,
    one ``images`` call each, on the INT closure and on a W Lambda(1) N=3
    d=2 seed."""
    def banned(*args, **kwargs):
        raise AssertionError("the turns built an annihilator")

    spec = ActionSpec.make("W", 3, Lambda(1), (F(1, 2), 0, 0))
    engine = theorem_registry.probe_engine(spec, Window(3, 2))
    cases = [_int_closure(), (engine, {engine.table.index[(1, 2, 1)]: [[3, 3, 1]]})]
    calls = []
    images = graded_modules.EdgeTable.images

    def counted(table, *args):
        calls.append(len(args[1]))
        return images(table, *args)

    for name in ("fiber_escapes", "kernel_stack", "int_blocks", "annihilator_stack", "closure"):
        monkeypatch.setattr(theorem_registry, name, banned)
    monkeypatch.setattr(graded_modules.EdgeTable, "images", counted)
    for engine, start in cases:
        calls.clear()
        assert engine._turns([start], "exact", _never(engine)).tolist() == [False]
        assert len(calls) == theorem_registry.HOOK_TURNS


def test_turns_require_a_hook():
    """There is no hookless mode: the fixpoint of a seed is ``closure``'s."""
    engine, start = _int_closure()
    with pytest.raises(TypeError):
        engine._turns([start])


PROBE_CASES = [
    ("W", Lambda(1), (F(1, 2), 0, 0), "exact"),
    ("H", Fund(2), HALF, "contains"),
]


@pytest.mark.parametrize("kind,fiber,beta,mode", PROBE_CASES)
def test_probes_fire_where_the_reference_fires(monkeypatch, kind, fiber, beta, mode):
    """Probes with the certificate's hook: W N=3 d=2 probes against the
    full target, and H Fund(2) N=4 d=2 probes that must contain MIN, the
    short-path pass bypassed so that each reaches the FIFO turns.  Each
    seed's turns fire exactly when the reference's hook fires within
    ``HOOK_TURNS`` turns."""
    n = len(beta)
    spec = ActionSpec.make(kind, n, fiber, beta)
    window = Window(n, 2)
    engine = theorem_registry.probe_engine(spec, window)
    fired, ref = [], []
    turns = theorem_registry.ProbeEngine._turns

    def twin(engine_, starts, mode_, target_):
        fired.extend(turns(engine_, starts, mode_, target_).tolist())
        ref.extend(reference_turns_fire(engine_, start, mode_, target_) for start in starts)
        return np.array(fired[len(fired) - len(starts):], dtype=bool)

    monkeypatch.setattr(theorem_registry.ProbeEngine, "_turns", twin)
    monkeypatch.setattr(theorem_registry.ProbeEngine, "_path_pass",
                        lambda engine, at, vectors, mode, target: [{i: [v]} for i, v in zip(at, vectors)])
    if mode == "exact":
        target = engine.full_target()
    else:
        target = engine.min_target(build_family(FamilyKind.MIN, fiber.p, spec, window))
    rng = random.Random(f"saturate-{kind}-{fiber}")
    degs = window.degrees()
    seeds = []
    for _ in range(6):
        vector = [rng.randint(-3, 3) for _ in range(spec.space().dim)]
        vector[rng.randrange(len(vector))] = 1
        seeds.append((degs[rng.randrange(len(degs))], vector))
    engine.run(seeds, mode, target)
    assert len(fired) == 6 and fired == ref


def test_turns_leave_numpy_ma_unimported():
    """Neither the FIFO turns of the probes nor the rounds of ``closure``
    call ``np.unique``, which imports ``numpy.ma`` on first use: a fresh
    interpreter that runs the hooked turns and the closure from outside INT
    to the whole N=4 d=2 window has not loaded it."""
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from slmod.graded_modules import ActionSpec, Fund, Window, closure\n"
        "from slmod.theorem_registry import probe_engine\n"
        "spec = ActionSpec.make('H', 4, Fund(1), (Fraction(1, 2), 0, 0, 0))\n"
        "engine = probe_engine(spec, Window(4, 2))\n"
        "start = {engine.table.index[(0, 0, 0, 0)]: [[1, 0, 1, 0]]}\n"
        "fired = engine._turns([start], 'exact', engine.full_target())\n"
        "family = closure(spec, {(0, 0, 0, 0): [[1, 0, 1, 0]]}, Window(4, 2))\n"
        "print(fired.tolist(), len(family.fibers), 'numpy.ma' in sys.modules)\n")
    src = Path(graded_modules.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert run.stdout.split() == ["[False]", "625", "False"]


def test_fiber_escapes_leaves_int64_before_a_product_wraps():
    """A row and an annihilator row with 2^32 in one entry: the product is
    exactly 2^64, which int64 would wrap to 0."""
    row = int_blocks([[[2**32, 0, 0, 0]]], 4)[0]
    assert row.dtype == np.int64
    assert (row[:, :1] * row[:, :1]).tolist() == [[0]]  # the wrapped product
    maps = np.zeros((1, 4, 4), dtype=np.int64)
    assert fiber_escapes(row, row, np.ones(1, dtype=np.int64), maps)[0].tolist() == [[True]]
