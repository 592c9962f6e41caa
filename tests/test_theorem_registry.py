import ast
import importlib
import inspect
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import slmod.graded_modules as graded_modules
import slmod.invariant_ops as invariant_ops
import slmod.sl_maps as sl_maps
import slmod.theorem_registry as theorem_registry
from slmod.cli import main
from slmod.exact_linalg import Subspace, int_blocks
from slmod.graded_modules import (
    ActionSpec, Fund, GradedFamily, Lambda, ScalarFiber, Sym2, Window, closure, default_generators,
    edge_table,
)
from slmod.sl_maps import FamilyKind, SpecialFiberPolicy, _build_family_cached, build_family
from slmod.theorem_registry import (
    CATALOGUE,
    ProbeEngine,
    ProbeTarget,
    default_grid,
    oracle_fiber_dims,
    probe_engine,
    run_check,
)
from reference import (
    IntSpan, fiber_action, reference_contained, reference_holds, reference_probe, reference_turns_fire,
    subspace_contains,
)

HALF = (F(1, 2), 0, 0, 0)


def test_oracle_examples():
    assert oracle_fiber_dims(4, 2, (1, 0, 0, 0)) == {"min": 2, "fullw": 3, "int": 3, "max": 4}
    got = oracle_fiber_dims(4, 1, (1, 0, 0, 0))
    assert (got["min"], got["fullw"], got["max"]) == (1, 1, 3)
    assert oracle_fiber_dims(6, 3, (1, 0, 0, 0, 0, 0))["min"] == 6


def test_oracle_rejects_zero_shift():
    with pytest.raises(ValueError):
        oracle_fiber_dims(4, 2, (0, 0, 0, 0))


def test_oracle_agrees_with_builders_on_samples():
    rng = random.Random(123)
    win = Window(4, 1)
    for p in (1, 2, 3):
        spec = ActionSpec.make("H", 4, Lambda(p), HALF)
        families = {
            "min": build_family(FamilyKind.MIN, p, spec, win),
            "fullw": build_family(FamilyKind.FULLW, p, spec, win),
            "int": build_family(FamilyKind.INT, p, spec, win),
            "max": build_family(FamilyKind.MAX, p, spec, win),
        }
        degs = win.degrees()
        for _ in range(4):
            k = degs[rng.randrange(len(degs))]
            shift = tuple(F(a) + b for a, b in zip(k, HALF))
            got = oracle_fiber_dims(4, p, shift)
            for name, fam in families.items():
                assert got[name] == fam.fiber(k).dim, (p, k, name)


def test_probe_engine_agrees_with_reference_closure():
    spec = ActionSpec.make("H", 4, Fund(2), HALF)
    win = Window(4, 1)
    fam = build_family(FamilyKind.MIN, 2, spec, win)
    engine = probe_engine(spec, win)
    target = engine.min_target(fam)
    for k in [(1, 1, 1, 1), (0, 0, 0, 0), (-1, 1, 0, -1)]:
        for row in fam.fiber(k).rows:
            reference = closure(spec, {k: [list(row)]}, win)
            expected = all(reference.fiber(kk) == fam.fiber(kk) for kk in win.interior_degrees())
            assert engine.run([(k, list(row))], "exact", target) == [expected]


def test_a_span_holds_full_target_rows_exactly_when_it_is_full(monkeypatch):
    """A "contains" probe against full target fibers at N=4 d=2 (H Fund(1),
    beta = e1/2) from a centre seed outside INT: the closure fills the
    window, and the hook's test passes at a span exactly when it is full:
    in the short-path pass, which fires, and, with that pass bypassed, in
    the FIFO turns, whose hook fires in the fifth turn with no hand-off to
    ``closure``."""
    spec = ActionSpec.make("H", 4, Fund(1), HALF)
    window = Window(4, 2)
    engine = probe_engine(spec, window)
    full = GradedFamily(spec, window, {k: Subspace.full(4) for k in window.degrees()})
    tests = []
    hook = ProbeEngine._hook

    def logged(engine_, at, mode, target):
        test = hook(engine_, at, mode, target)

        def logged_test(spans):
            tests.append((theorem_registry.ranks(spans).tolist(), test(spans).tolist()))
            return np.array(tests[-1][1], dtype=bool)

        return logged_test

    monkeypatch.setattr(ProbeEngine, "_hook", logged)
    log = _hand_offs(monkeypatch)
    probe, target = [((0, 0, 0, 0), [1, 0, 1, 0])], engine.min_target(full)
    assert engine.run(probe, "contains", target) == [True]
    assert log == {"turns": [], "closure": 0} and tests
    monkeypatch.setattr(ProbeEngine, "_path_pass", _no_short_paths)
    monkeypatch.setattr(theorem_registry, "HOOK_TURNS", 5)
    assert engine.run(probe, "contains", target) == [True]
    assert log == {"turns": [True], "closure": 0}
    assert any(True in held for _, held in tests)
    for dims, held in tests:
        assert held == [d == 4 for d in dims]


def test_probe_engine_rejects_wrong_targets():
    spec = ActionSpec.make("H", 4, Fund(2), HALF)
    win = Window(4, 2)
    mn = build_family(FamilyKind.MIN, 2, spec, win)
    mx = build_family(FamilyKind.MAX, 2, spec, win)
    engine = probe_engine(spec, win)
    k0 = (0, 0, 0, 0)
    seed = list(mn.fiber(k0).rows[0])
    assert engine.run([(k0, seed)], "exact", engine.min_target(mx)) == [False]
    assert engine.run([(k0, seed)], "contains", engine.min_target(mx)) == [False]
    assert engine.run([(k0, list(mx.fiber(k0).rows[0]))], "exact", engine.full_target()) == [False]
    # the full target has no rows to contain: no vacuous pass
    with pytest.raises(ValueError, match="target rows"):
        engine.run([(k0, seed)], "contains", engine.full_target())
    with pytest.raises(ValueError, match="seed is zero"):
        engine.run([(k0, seed), (k0, [0] * len(seed))], "exact", engine.min_target(mn))


def test_probe_on_an_empty_interior_is_an_error(capsys):
    # a d=0 window has no interior degree: a probe there would check nothing
    spec = ActionSpec.make("H", 4, Fund(1), HALF)
    win = Window(4, 0)
    engine = probe_engine(spec, win)
    mn = build_family(FamilyKind.MIN, 1, spec, win)
    seed = list(mn.fiber((0, 0, 0, 0)).rows[0])
    for mode, target in (("exact", engine.full_target()), ("contains", engine.min_target(mn))):
        with pytest.raises(ValueError, match="empty interior"):
            engine.run([((0, 0, 0, 0), seed)], mode, target)
    assert main(["check", "--id", "uniqueness", "--N", "4", "--p", "1", "--window", "0"]) == 2
    assert "empty interior" in capsys.readouterr().err


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("beta", [(0, 0, 0, 0), HALF], ids=["b0", "bhalf"])
def test_probe_answers_do_not_depend_on_the_certificate(p, beta):
    """Every probe gives the same answer with reachability certificates off
    (no dominators: each run ends on the seed's closure) as with them on."""
    spec = ActionSpec.make("H", 4, Fund(p), beta)
    win = Window(4, 2)
    with_cert = probe_engine(spec, win)
    without = ProbeEngine(spec, win)
    without.dominators = set()
    assert with_cert.dominators, "the certificate never fires on this window"
    rng = random.Random(f"cert-{p}-{beta}")
    dim = spec.space().dim
    # the hat family differs from MIN only at the degenerate degree (centre
    # of the window at beta = 0), which the certificate checks directly
    families = [build_family(FamilyKind.MIN, p, spec, win),
                build_family(FamilyKind.MIN, p, spec, win, SpecialFiberPolicy.FULL),
                build_family(FamilyKind.MAX, p, spec, win)]
    answers = set()
    for k in [(0, 0, 0, 0), (1, -1, 0, 2), (2, 2, -2, -2)]:
        free = [rng.randint(-2, 2) for _ in range(dim)]
        free[rng.randrange(dim)] = 1
        runs = [(free, "exact", None)]
        for fam in families:
            # exact mode needs a seed inside its invariant target
            runs += [(list(row), "exact", fam) for row in fam.fiber(k).rows[:1]]
            runs.append((free, "contains", fam))
        for v, mode, fam in runs:
            got = [engine.run([(k, v)], mode,
                              engine.full_target() if fam is None else engine.min_target(fam))[0]
                   for engine in (with_cert, without)]
            assert got[0] == got[1], (k, v, mode, fam)
            answers.add(got[0])
    assert answers == {True, False}


# beta = 0, so the degenerate degree k0 = 0 is interior: whether the images
# of the full fibers at its interior neighbours span the fiber at k0
IN_FLOW_POINTS = [
    ("H", ScalarFiber(), 2, 2, False), ("W", Lambda(3), 3, 2, False),
    ("S", Lambda(0), 3, 2, False),
    ("H", Fund(1), 4, 2, True), ("H", Fund(2), 4, 2, True), ("H", Sym2(), 2, 3, True),
    ("W", Lambda(0), 3, 2, True), ("W", Lambda(1), 3, 2, True),
]


def reference_in_flow_dim(spec, window) -> int:
    """dim of the span of the images into k0 = 0 of the full fibers at its
    interior neighbours, one ``Fraction`` fiber map at a time."""
    space = spec.space()
    images = []
    for gen in default_generators(spec.kind, spec.n):
        t = tuple(-a for a in gen.r)
        if window.is_interior(t):
            m = fiber_action(spec, gen, t)  # images are its columns, integral at beta = 0
            images += [[int(m[a][b] * space.scale) for a in range(space.dim)]
                       for b in range(space.dim)]
    return Subspace(space.dim, images).dim


@pytest.mark.parametrize("kind,fiber,n,d,fills", IN_FLOW_POINTS)
def test_full_targets_test_the_degenerate_fiber_the_in_flow_leaves_open(kind, fiber, n, d, fills):
    """A full target's hook stops testing k0 exactly where the in-flow fills
    it; a family target's hook always tests it."""
    spec = ActionSpec.make(kind, n, fiber)
    window = Window(n, d)
    engine = ProbeEngine(spec, window)
    i0 = engine.table.index[(0,) * n]
    assert (reference_in_flow_dim(spec, window) == spec.space().dim) == fills
    assert engine.special_interior == [i0]
    assert engine.full_target().special == ([] if fills else [i0])
    assert engine.min_target(GradedFamily(spec, window)).special == [i0]


def test_an_engine_that_counts_the_degenerate_fiber_filled_passes_a_split_probe(monkeypatch):
    """The H scalar fiber at beta = 0 splits off its degenerate fiber: no
    edge carries anything into k0, so a full-target probe from (1, 0) fails.
    An engine whose in-flow test always says "filled" certifies it."""
    spec = ActionSpec.make("H", 2, ScalarFiber())
    window = Window(2, 2)
    engine = ProbeEngine(spec, window)
    assert engine.run([((1, 0), [1])], "exact", engine.full_target()) == [False]
    monkeypatch.setattr(ProbeEngine, "_filled_from_interior", lambda engine, s: True)
    mutant = ProbeEngine(spec, window)
    assert mutant.run([((1, 0), [1])], "exact", mutant.full_target()) == [True]


SYM2_POINTS = [(kind, Sym2(), beta, 3) for kind in "HWS" for beta in ((0, 0), (F(1, 2), 0))]


@pytest.mark.parametrize("kind,fiber,beta,d", [
    ("H", ScalarFiber(), (0, 0), 2), ("W", Lambda(3), (0, 0, 0), 2),
    ("S", Lambda(0), (0, 0, 0), 2), *SYM2_POINTS,
])
def test_full_target_answers_do_not_depend_on_the_certificate(kind, fiber, beta, d):
    """Full-target probes where k0 stays open, and at the Sym2 points where
    the loop pass runs, give the same answer with no dominators (each run
    ends on the seed's closure) as with the certificate."""
    n = len(beta)
    spec = ActionSpec.make(kind, n, fiber, beta)
    window = Window(n, d)
    with_cert = probe_engine(spec, window)
    without = ProbeEngine(spec, window)
    without.dominators = set()
    assert with_cert.dominators
    rng = random.Random(f"cert-full-{kind}-{fiber}-{beta}")
    dim = spec.space().dim
    degs = window.degrees()
    for k in [(0,) * n, (1,) + (0,) * (n - 1)] + [degs[rng.randrange(len(degs))] for _ in range(6)]:
        v = [rng.randint(-2, 2) for _ in range(dim)]
        v[rng.randrange(dim)] = 1
        got = [engine.run([(k, v)], "exact", engine.full_target())[0] for engine in (with_cert, without)]
        assert got[0] == got[1], (k, v)


def _no_short_paths(engine, at, vectors, mode, target):
    """``ProbeEngine._path_pass`` bypassed: the FIFO turns get each seed alone."""
    return [{i: [v]} for i, v in zip(at, vectors)]


def _unfired(engine: ProbeEngine, target: ProbeTarget) -> ProbeTarget:
    """``target`` as the path pass reads it, with a hook that never fires:
    in mode "exact" no span reaches dims above the fiber's.  Rows or none
    keep the pass's loop rounds off or on."""
    dims = dict.fromkeys(range(len(engine.table.degs)), engine.table.dim + 1)
    return ProbeTarget(dims, target.rows, True, [])


def _misplaced_short_path_rows(kind, fiber, beta, d):
    """(seed degree, seed, z, row) for each row the short-path pass, its
    loop rounds on, stores at its dominator z outside the closure's fiber
    at z, the hook never firing.  20 seeds in one stacked pass: ten inside
    the family a probe of this spec compares against (MIN for H, the Witt
    family for W; none for Sym2, whose probes all target the full fiber),
    whose closures are proper at z, and random vectors."""
    n = len(beta)
    spec = ActionSpec.make(kind, n, fiber, beta)
    window = Window(n, d)
    engine = probe_engine(spec, window)
    rng = random.Random(f"short-paths-{kind}-{fiber}-{beta}-{d}")
    dim = spec.space().dim
    seeds = []
    if fiber.kind != "sym2":
        family = build_family(FamilyKind.MIN if kind == "H" else FamilyKind.FULLW, fiber.p, spec,
                              window)
        inside = [k for k in window.degrees() if family.fiber(k).dim]
        for _ in range(10):
            k = inside[rng.randrange(len(inside))]
            rows = family.fiber(k).rows
            cs = [rng.randint(-2, 2) for _ in rows]
            cs[rng.randrange(len(cs))] = 3  # canonical rows are independent: the seed is nonzero
            seeds.append((k, [sum(c * row[a] for c, row in zip(cs, rows)) for a in range(dim)]))
    degs = window.degrees()
    while len(seeds) < 20:
        v = [rng.randint(-3, 3) for _ in range(dim)]
        v[rng.randrange(dim)] = 1
        seeds.append((degs[rng.randrange(len(degs))], v))
    at = [engine.table.index[k] for k, _ in seeds]
    starts = engine._path_pass(at, [v for _, v in seeds], "exact", _unfired(engine, engine.full_target()))
    for (k, v), i, start in zip(seeds, at, starts, strict=True):
        (z, rows), = [(j, rows) for j, rows in start.items() if j != i]
        assert z in engine.dominators and z in engine.table.edges(i)[1]
        assert rows, (k, v)
        fiber_z = closure(spec, {k: [v]}, window).fiber(engine.table.degs[z])
        for row in rows:
            if not fiber_z.contains_vector(row):
                yield k, v, z, row


SHORT_PATH_POINTS = [
    ("H", Fund(1), (0, 0, 0, 0), 2), ("H", Fund(1), HALF, 2),
    ("H", Fund(2), (0, 0, 0, 0), 2), ("H", Fund(2), HALF, 2),
    ("W", Lambda(1), (0, 0, 0), 2), ("W", Lambda(1), (F(1, 2), 0, 0), 2),
    # at d=1 a second step's offset can match a step that leaves the box
    # (in base 2d+1 = 3 the difference of two steps has no unique digits),
    # so only there does the pass need its box mask
    ("H", Fund(2), HALF, 1),
]


@pytest.mark.parametrize("kind,fiber,beta,d", SHORT_PATH_POINTS + SYM2_POINTS)
def test_short_paths_store_only_closure_rows(kind, fiber, beta, d):
    """Every row the short-path and loop passes store at z lies in the
    seed's closure there, so the hook sees spans inside the closure.  The
    checks' full-target probes run the loop pass at the Sym2 points, where
    closures are full; the family seeds elsewhere have proper closures,
    where a misfiled row shows."""
    assert list(_misplaced_short_path_rows(kind, fiber, beta, d)) == []


def test_a_path_pass_without_the_box_mask_is_caught(monkeypatch):
    """A mutant in-edge gather that takes every generator whose offset
    matches, in the box or not, sends images along maps that leave the
    window at d=1: the pass stores rows outside the closure."""
    def unmasked(table, srcs, tgts):
        return np.nonzero(table.offset == (tgts - srcs)[:, None])

    monkeypatch.setattr(graded_modules.EdgeTable, "edges_between", unmasked)
    assert next(_misplaced_short_path_rows("H", Fund(2), HALF, 1), None)


def test_short_paths_leave_every_probe_answer_unchanged(monkeypatch):
    """Every probe of every sweep at each probe check's first default grid
    point gives the same answer with the short-path pass bypassed."""
    sweeps, ended = [], []
    run, path_pass = ProbeEngine.run, ProbeEngine._path_pass

    def recorded(engine, seeds, mode, target):
        got = run(engine, seeds, mode, target)
        sweeps.append((check_id, engine, seeds, mode, target, got))
        return got

    def counted(engine, *args):
        starts = path_pass(engine, *args)
        ended.extend(start is None for start in starts)
        return starts

    monkeypatch.setattr(ProbeEngine, "run", recorded)
    monkeypatch.setattr(ProbeEngine, "_path_pass", counted)
    for check_id in CATALOGUE:
        run_check(check_id, **default_grid(check_id)[0])
    assert {r[0] for r in sweeps} == {
        "irreducible-min", "uniqueness", "main-classification", "cor-p0", "criterion-sym2",
        "TW", "TS", "classify-W", "unique-W"}
    assert 0 < sum(ended) < sum(len(r[2]) for r in sweeps)
    monkeypatch.setattr(ProbeEngine, "run", run)
    monkeypatch.setattr(ProbeEngine, "_path_pass", _no_short_paths)
    for check_id, engine, seeds, mode, target, got in sweeps:
        assert engine.run(seeds, mode, target) == got, (check_id, mode)


@pytest.mark.parametrize("check_id,least,probes", [
    ("uniqueness", 85, 100),
    ("irreducible-min", 1200, 1250),
])
def test_short_paths_end_most_probes(monkeypatch, check_id, least, probes):
    """At N=4 p=2 beta = e1/2 d=2 and the default seed the short-path pass
    certifies nearly every probe (90 of 100 and 1 247 of 1 250 when this
    test was written): a change that loses the pass's speedup fails here."""
    ended = []
    path_pass = ProbeEngine._path_pass

    def counted(engine, *args):
        starts = path_pass(engine, *args)
        ended.extend(start is None for start in starts)
        return starts

    monkeypatch.setattr(ProbeEngine, "_path_pass", counted)
    assert run_check(check_id, N=4, p=2, beta=HALF, d=2).status == "PASS"
    assert len(ended) == probes
    assert sum(ended) >= least, sum(ended)


@pytest.mark.parametrize("check_id,params", [
    ("classify-W", {"N": 3, "beta": (0, 0, 0), "d": 2}),
    *[(check_id, {"N": 2, "beta": beta, "d": 3})
      for check_id in ("criterion-sym2", "TW", "TS") for beta in ((0, 0), (F(1, 2), 0))],
    ("main-classification", {"N": 2, "p": 1, "beta": (0, 0), "d": 2}),
])
def test_full_targets_end_in_the_short_path_and_loop_passes(monkeypatch, check_id, params):
    """At these points and the default seed no probe reaches the FIFO
    turns: the in-flow fills k0 and the loop pass fills z.  Without either,
    full-target probes here fall back, so a change that loses one fails."""
    runs, fixpoints = [], []
    run, turns = ProbeEngine.run, ProbeEngine._turns

    def counted_run(engine, seeds, mode, target):
        runs.append(target.rows is None)
        return run(engine, seeds, mode, target)

    def counted_turns(engine, starts, mode, target):
        fixpoints.extend(starts)
        return turns(engine, starts, mode, target)

    monkeypatch.setattr(ProbeEngine, "run", counted_run)
    monkeypatch.setattr(ProbeEngine, "_turns", counted_turns)
    assert run_check(check_id, **params).status == "PASS"
    assert any(runs) and fixpoints == []


def _hand_offs(monkeypatch) -> dict:
    """Log, per seed, whether the hook fired in the FIFO turns of the
    probes, and count their ``closure`` calls, the hand-offs."""
    log = {"turns": [], "closure": 0}
    turns, closure_ = ProbeEngine._turns, theorem_registry.closure

    def counted_turns(engine, starts, mode, target):
        fired = turns(engine, starts, mode, target)
        log["turns"] += fired.tolist()
        return fired

    def counted_closure(*args):
        log["closure"] += 1
        return closure_(*args)

    monkeypatch.setattr(ProbeEngine, "_turns", counted_turns)
    monkeypatch.setattr(theorem_registry, "closure", counted_closure)
    return log


def test_a_failing_contains_probe_answers_through_one_closure(monkeypatch):
    """A seed in MIN generates MIN, which does not contain MAX (H Fund(2),
    N=4 d=2, beta = e1/2): against the MAX target the hook never fires, the
    FIFO turns give up, and the seed's one closure answers False."""
    spec = ActionSpec.make("H", 4, Fund(2), HALF)
    window = Window(4, 2)
    engine = probe_engine(spec, window)
    target = engine.min_target(build_family(FamilyKind.MAX, 2, spec, window))
    assert target.certified
    seed = list(build_family(FamilyKind.MIN, 2, spec, window).fiber((0, 0, 0, 0)).rows[0])
    log = _hand_offs(monkeypatch)
    assert engine.run([((0, 0, 0, 0), seed)], "contains", target) == [False]
    assert log == {"turns": [False], "closure": 1}


def test_a_failing_exact_probe_answers_through_one_closure(monkeypatch):
    """The same seed in MIN against the full target (H Fund(2), N=4 d=2,
    beta = e1/2): its span never reaches the full dims, so the hook never
    fires, and the seed's one closure, MIN, answers False."""
    spec = ActionSpec.make("H", 4, Fund(2), HALF)
    window = Window(4, 2)
    engine = probe_engine(spec, window)
    target = engine.full_target()
    assert target.certified
    seed = list(build_family(FamilyKind.MIN, 2, spec, window).fiber((0, 0, 0, 0)).rows[0])
    log = _hand_offs(monkeypatch)
    assert engine.run([((0, 0, 0, 0), seed)], "exact", target) == [False]
    assert log == {"turns": [False], "closure": 1}


@pytest.mark.parametrize("target_kind", ["full", "min", "max"])
def test_forced_hand_offs_give_the_hooked_answers(monkeypatch, target_kind):
    """H Fund(2), N=4 d=2, beta = e1/2, probes from random vectors and from
    MIN rows: exact against the full target, contains against MIN and
    against MAX.  With the short-path pass bypassed and the FIFO turns never
    firing, every probe hands off to ``closure``, and each answers as it
    does when its hook fires: a hook proves what the closure shows.  The
    same holds with the pass's spans at z and a hook that never fires
    there: the hand-off then starts from the seed and its span at z, and
    that closure is the seed's own, since every row of the span lies in
    it."""
    spec = ActionSpec.make("H", 4, Fund(2), HALF)
    window = Window(4, 2)
    engine = probe_engine(spec, window)
    if target_kind == "full":
        mode, target = "exact", engine.full_target()
    else:
        kind = FamilyKind.MIN if target_kind == "min" else FamilyKind.MAX
        mode, target = "contains", engine.min_target(build_family(kind, 2, spec, window))
    mn = build_family(FamilyKind.MIN, 2, spec, window)
    rng = random.Random(f"hand-off-{target_kind}")
    degs = window.degrees()
    probes = []
    for _ in range(5):
        vector = [rng.randint(-3, 3) for _ in range(spec.space().dim)]
        vector[rng.randrange(len(vector))] = 1
        probes.append((degs[rng.randrange(len(degs))], vector))
    probes += [(k, list(mn.fiber(k).rows[0])) for k in degs[:: len(degs) // 4] if mn.fiber(k).rows]
    answers = engine.run(probes, mode, target)
    assert target_kind == "min" or set(answers) == {True, False}
    log = _hand_offs(monkeypatch)
    monkeypatch.setattr(ProbeEngine, "_turns",
                        lambda engine, starts, mode, target: np.zeros(len(starts), dtype=bool))
    path_pass = ProbeEngine._path_pass
    monkeypatch.setattr(ProbeEngine, "_path_pass", _no_short_paths)
    assert engine.run(probes, mode, target) == answers
    assert log["closure"] == len(probes)
    # the pass's spans, with a hook that never fires
    monkeypatch.setattr(ProbeEngine, "_path_pass", lambda engine, at, vectors, mode, target: path_pass(
        engine, at, vectors, "exact", _unfired(engine, target)))
    started, counted = [], theorem_registry.closure

    def logged(spec_, seeds, window_, gens):
        started.append(seeds)
        return counted(spec_, seeds, window_, gens)

    monkeypatch.setattr(theorem_registry, "closure", logged)
    assert engine.run(probes, mode, target) == answers
    assert log["closure"] == 2 * len(probes) == 2 * len(started)
    assert any(len(seeds) == 2 for seeds in started)
    for (k, v), seeds in zip(probes, started):
        assert seeds[k] == [v]
        assert closure(spec, seeds, window) == closure(spec, {k: [v]}, window), (k, v)


def test_an_uncertified_target_goes_straight_to_the_closure(monkeypatch):
    """A target with no certificate has no hook: each probe skips the
    short-path pass and the FIFO turns, and the seed's closure gives the
    certified target's answer, True or False, in both modes and against
    the full target."""
    spec = ActionSpec.make("H", 4, Fund(1), HALF)
    window = Window(4, 2)
    engine = probe_engine(spec, window)
    mn, mx = (build_family(kind, 1, spec, window) for kind in (FamilyKind.MIN, FamilyKind.MAX))
    k = (0, 0, 0, 0)
    seed = list(mn.fiber(k).rows[0])
    runs = [(seed, mode, engine.min_target(family)) for mode in ("exact", "contains") for family in (mn, mx)]
    runs += [(seed, "exact", engine.full_target()), ([1, 0, 1, 0], "exact", engine.full_target())]
    answers = [engine.run([(k, v)], mode, target)[0] for v, mode, target in runs]
    assert set(answers) == {True, False} and all(target.certified for _, _, target in runs)
    log = _hand_offs(monkeypatch)
    bare = [engine.run([(k, v)], mode, ProbeTarget(target.dims, target.rows, False, target.special))[0]
            for v, mode, target in runs]
    assert bare == answers
    assert log == {"turns": [], "closure": len(runs)}


# every check that runs probes
PROBE_CHECKS = ["irreducible-min", "uniqueness", "main-classification", "cor-p0", "criterion-sym2",
                "TW", "TS", "classify-W", "unique-W"]


def test_probes_at_the_first_default_points_make_no_hand_off(monkeypatch):
    """At the first default grid point of every check that runs probes,
    every probe ends in the short-path pass or in the FIFO turns of
    ``ProbeEngine._turns``, none in ``closure``: the probes of the benchmark stay on
    the hooked start.  The checks that run no probe make none here."""
    runs = []
    run = ProbeEngine.run

    def counted_run(engine, *args):
        runs.append(args)
        return run(engine, *args)

    monkeypatch.setattr(ProbeEngine, "run", counted_run)
    log = _hand_offs(monkeypatch)
    for check_id, spec in CATALOGUE.items():
        runs.clear()
        assert run_check(check_id, **spec.grid[0]).status == "PASS", check_id
        assert bool(runs) == (check_id in PROBE_CHECKS), check_id
    assert log["turns"] and all(log["turns"])
    assert log["closure"] == 0


def _sweeps(monkeypatch, runs) -> list:
    """Every probe sweep of the checks ``runs``, (check id, params) pairs, as
    (engine, seeds, mode, target, answers, starts, fired): ``starts`` holds
    the FIFO start of each seed whose hook the path pass left unfired, and
    ``fired`` whether the hook fired in its turns."""
    sweeps = []
    run, turns = ProbeEngine.run, ProbeEngine._turns

    def recorded(engine, seeds, mode, target):
        starts, fired = [], []

        def started(engine_, group, mode_, target_):
            starts.extend(group)
            fired.extend(turns(engine_, group, mode_, target_).tolist())
            return np.array(fired[len(fired) - len(group):], dtype=bool)

        with monkeypatch.context() as patch:
            patch.setattr(ProbeEngine, "_turns", started)
            got = run(engine, seeds, mode, target)
        sweeps.append((engine, seeds, mode, target, got, starts, fired))
        return got

    with monkeypatch.context() as patch:
        patch.setattr(ProbeEngine, "run", recorded)
        for check_id, params in runs:
            run_check(check_id, **params)
    return sweeps


def _assert_sequential(sweeps):
    """Each sweep's answers are the sequential reference's, and so are its
    FIFO starts, as spaces at each degree, and, per seed, whether the hook
    fired in the turns from them."""
    for engine, seeds, mode, target, answers, starts, fired in sweeps:
        ref = [reference_probe(engine, tuple(k), v, mode, target) for k, v in seeds]
        assert answers == [answer for answer, _, _ in ref]
        ref = [(start, ref_fired) for _, start, ref_fired in ref if start is not None]
        assert len(starts) == len(ref)
        assert fired == [ref_fired for _, ref_fired in ref]
        dim = engine.table.dim
        for got, (want, _) in zip(starts, ref):
            assert {i: Subspace(dim, rows) for i, rows in got.items()} \
                == {i: Subspace(dim, rows) for i, rows in want.items()}


@pytest.mark.parametrize("check_id", PROBE_CHECKS)
def test_the_path_pass_matches_the_sequential_reference(monkeypatch, check_id):
    """Every probe at every default grid point: the stacked passes give the
    answers, the FIFO starts and the per-seed fires of the FIFO turns of
    one probe at a time."""
    sweeps = _sweeps(monkeypatch, [(check_id, params) for params in default_grid(check_id)])
    assert sweeps
    _assert_sequential(sweeps)


# the checks of the edges benchmark
EDGES_CHECKS = [
    ("main-classification", {"N": 4, "p": 2, "beta": HALF, "d": 2}),
    ("module-maps", {"N": 4, "beta": HALF, "d": 1}),
    ("invariant-ops", {"N": 4, "beta": (0, 0, 0, 0), "d": 2}),
    ("uniqueness", {"N": 4, "p": 2, "beta": HALF, "d": 2}),
]


def test_the_path_pass_matches_the_sequential_reference_in_the_edges_checks(monkeypatch):
    """The four checks of the edges benchmark at seeds 1 to 20; two of them
    run probes, and some of their seeds fire in the FIFO turns."""
    sweeps = _sweeps(monkeypatch, [(check_id, dict(params, seed=seed))
                                   for seed in range(1, 21) for check_id, params in EDGES_CHECKS])
    assert any(fired for *_, fired in sweeps)
    _assert_sequential(sweeps)


def test_turns_in_small_slices_match_the_sequential_reference(monkeypatch):
    """With ``STACK_ITEMS`` at 16 each turn of the edges checks' probes goes
    in many slices, a few edges of each seed at a time: the answers and the
    per-seed fires are still the sequential reference's, and the reports
    the same."""
    points = [(check_id, dict(params, seed=seed)) for seed in (3, 7) for check_id, params in EDGES_CHECKS
              if check_id in ("main-classification", "uniqueness")]
    want = [run_check(check_id, **params).to_dict() for check_id, params in points]
    calls = []
    images, turns = graded_modules.EdgeTable.images, ProbeEngine._turns
    inside = []

    def counted(table, srcs, gis, *args):
        if inside:
            calls.append(len(gis))
        return images(table, srcs, gis, *args)

    def flagged(engine, *args):
        inside.append(True)
        try:
            return turns(engine, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(graded_modules.EdgeTable, "images", counted)
    monkeypatch.setattr(ProbeEngine, "_turns", flagged)
    monkeypatch.setattr(theorem_registry, "STACK_ITEMS", 16)
    sweeps = _sweeps(monkeypatch, points)
    assert [run_check(check_id, **params).to_dict() for check_id, params in points] == want
    assert any(fired for *_, fired in sweeps)
    assert len(calls) > 10 * sum(len(fired) for *_, fired in sweeps) and max(calls) <= 16
    _assert_sequential(sweeps)


@pytest.mark.parametrize("check_id,params", [
    ("uniqueness", {"N": 4, "p": 2, "beta": HALF, "d": 2}),
    ("criterion-sym2", {"N": 2, "beta": (0, 0), "d": 3}),
])
def test_the_path_pass_sends_at_most_stack_items_a_product(monkeypatch, check_id, params):
    """With ``STACK_ITEMS`` at 7, every product of the path pass and of its
    loop rounds (at the Sym2 point) has at most 7 items, and the report
    stays the same."""
    want = run_check(check_id, **params).to_dict()
    sizes, inside = [], []
    int_affine, path_pass = graded_modules.int_affine, ProbeEngine._path_pass

    def counted(cs, *args):
        if inside:
            sizes.append(len(cs))
        return int_affine(cs, *args)

    def flagged(engine, *args):
        inside.append(True)
        try:
            return path_pass(engine, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(graded_modules, "int_affine", counted)
    monkeypatch.setattr(ProbeEngine, "_path_pass", flagged)
    monkeypatch.setattr(graded_modules, "STACK_ITEMS", 7)
    monkeypatch.setattr(theorem_registry, "STACK_ITEMS", 7)
    assert run_check(check_id, **params).to_dict() == want
    assert sizes and max(sizes) == 7


def test_a_contained_target_row_is_tested_once(monkeypatch):
    """A span only grows: the reference hook test ``reference_holds``
    remembers how many leading target rows it found contained in the span
    and tests only the rest."""
    spec = ActionSpec.make("H", 4, Fund(2), HALF)
    window = Window(4, 2)
    engine = probe_engine(spec, window)
    target = engine.min_target(build_family(FamilyKind.MIN, 2, spec, window))
    i = engine.table.index[(1, 0, -1, 0)]
    first, second = target.rows[i]
    tested = []
    contains = IntSpan.contains

    def logged(span, vector):
        tested.append(vector)
        return contains(span, vector)

    monkeypatch.setattr(IntSpan, "contains", logged)
    span, shown = IntSpan(engine.table.dim), {}
    for row in (first, [1, 2, 3, 4, 5]):  # the second row leaves ``second`` outside
        span.add(row)
    assert not reference_holds((i,), "contains", target, {i: span}, shown)
    assert tested == [first, second] and shown == {span: 1}
    tested.clear()
    span.add(second)
    assert reference_holds((i,), "contains", target, {i: span}, shown)
    assert reference_holds((i,), "contains", target, {i: span}, shown)
    assert tested == [second] and shown == {span: 2}


def test_non_integral_operator_action_is_an_internal_error(monkeypatch):
    class ScaledSpace:
        scale = 2

        def __init__(self, space):
            self.space = space

        def rank_one_stack(self, xs, ys=None):
            return self.space.rank_one_stack(xs, ys)

    original = theorem_registry.fiber_space
    monkeypatch.setattr(theorem_registry, "fiber_space",
                        lambda n, fiber: ScaledSpace(original(n, fiber)))
    with pytest.raises(RuntimeError):
        run_check("invariant-ops", N=2, beta=(0, 0), d=1)


def test_probe_engines_are_bounded_like_their_edge_tables():
    # each engine keeps its EdgeTable alive: an unbounded engine cache would
    # leave the table cache unbounded in effect
    assert probe_engine.cache_info().maxsize == edge_table.cache_info().maxsize == 16
    # families are bounded too: 256 holds the 153 distinct families of a
    # check-all, so a warm pass rebuilds none
    assert _build_family_cached.cache_info().maxsize == 256


@pytest.mark.parametrize("check_id,n,beta", [
    ("irreducible-min", 2, (F(1, 2), 0)),
    ("uniqueness", 2, (F(1, 2), 0)),
    ("main-classification", 2, (0, 0)),
    ("cor-p0", 2, (0, 0)),
    ("criterion-sym2", 2, (0, 0)),
    ("classify-W", 3, (F(1, 2), 0, 0)),
    ("unique-W", 3, (0, 0, 0)),
])
def test_failed_probes_fail_the_check_with_at_most_eight_details_a_sweep(
        check_id, n, beta, monkeypatch):
    monkeypatch.setattr(ProbeEngine, "run", lambda self, seeds, mode, target: [False] * len(seeds))
    result = run_check(check_id, N=n, beta=beta, d=2, samples=12)
    assert result.status == "FAIL"
    per_seed = [d for d in result.details if d.status == "FAIL" and d.degree is not None]
    sweeps = [d for d in result.details if d.status == "FAIL" and d.degree is None]
    assert per_seed and len(per_seed) <= 8 * len(sweeps)
    assert result.counts["fail"] == len(per_seed) + len(sweeps)


def test_run_check_unknown_id():
    with pytest.raises(KeyError):
        run_check("no-such-check")


def test_catalogue_grids_are_well_formed():
    for check_id in CATALOGUE:
        grid = default_grid(check_id)
        assert grid, check_id
        for params in grid:
            assert isinstance(params, dict), (check_id, params)


def test_check_results_are_deterministic():
    a = run_check("uniqueness", N=4, p=1, beta=HALF, d=2, samples=20)
    b = run_check("uniqueness", N=4, p=1, beta=HALF, d=2, samples=20)
    assert a.to_dict() == b.to_dict()


def test_composition_reports_the_expected_chain():
    result = run_check("composition", N=4, p=2, beta=HALF, d=2)
    assert result.status == "PASS"
    notes = " ".join(d.note for d in result.details)
    assert "(2, 2, 3, 5)" in notes


def test_quick_checks_pass():
    assert run_check("fundamental-dims").status == "PASS"
    assert run_check("contraction-iso", N=4).status == "PASS"
    assert run_check("L3-span", N=4).status == "PASS"
    assert run_check("cor-p0", N=2, beta=(0, 0), d=2).status == "PASS"
    assert run_check("criterion-sym2", N=2, beta=(F(1, 2), 0), d=3).status == "PASS"


def _reachable_functions(name: str, functions: dict) -> list:
    """The module-level function ``name`` and every one it names, transitively."""
    seen, todo = [], [name]
    while todo:
        node = functions[todo.pop()]
        seen.append(node)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in functions \
                    and functions[sub.id] not in seen and sub.id not in todo:
                todo.append(sub.id)
    return seen


def test_checks_declare_the_seed_and_samples_they_read():
    """A check reads the seed when it draws from ``_rng`` and the sample count
    when it looks up "samples"; ``CheckSpec.reads`` says exactly that, so the
    CLI refuses the flags of the others."""
    tree = ast.parse(inspect.getsource(theorem_registry))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for check_id, spec in CATALOGUE.items():
        nodes = [sub for fn in _reachable_functions(spec.runner.__name__, functions)
                 for sub in ast.walk(fn)]
        reads = set()
        if any(isinstance(n, ast.Name) and n.id == "_rng" for n in nodes):
            reads.add("seed")
        if any(isinstance(n, ast.Constant) and n.value == "samples" for n in nodes):
            reads.add("samples")
        assert set(spec.reads) == reads, check_id


def test_reports_echo_what_they_read():
    """A report that leaves out the seed or sample count its check read
    cannot be reproduced from what it prints.  These checks do so today, and
    irreducible-min echoes a seed it never reads; mending them changes their
    reports, so the set may only shrink."""
    mismatched = set()
    for check_id, spec in CATALOGUE.items():
        point = min(spec.grid, key=lambda grid: grid.get("N", 0))
        echoed = {"seed", "samples"} & set(run_check(check_id, **point).params)
        if echoed != set(spec.reads):
            mismatched.add(check_id)
    assert mismatched == {"L3-span", "inclusion-chain", "cor-p0", "invariant-ops",
                          "criterion-sym2", "TW", "TS", "classify-W", "irreducible-min"}


def reference_per_degree(families, at):
    """The per-degree loop that ``place_tuples`` replaces: every degree is a
    tuple of its own, so each comparison runs on that degree's fibers."""
    tuples = np.stack([family.place[at] for family in families], axis=1)
    return tuples, np.arange(len(tuples))


def test_per_pair_comparisons_keep_every_failing_record(monkeypatch):
    """INT's fiber along one direction of k + beta is replaced by MIN's: its
    degrees are pointed at a block holding MIN's rows there.  The comparisons
    made once per tuple of blocks, and the containments tested over all
    tuples in one product, FAIL at every degree of that direction, with the
    records and counts of the per-degree loop."""
    _build_family_cached.cache_clear()
    try:
        spec, win = ActionSpec.make("H", 4, Lambda(2), HALF), Window(4, 2)
        it = build_family(FamilyKind.INT, 2, spec, win)
        mn = build_family(FamilyKind.MIN, 2, spec, win)
        # q(k + beta) = (2 k_1 + 1, 0, 0, 0): five degrees along e_1 share one block
        shared, b_mn = it.place[win.index((1, 0, 0, 0))], mn.place[win.index((1, 0, 0, 0))]
        moved = [k for k, b in zip(win.degrees(), it.place.tolist()) if b == shared]
        assert moved == [(k1, 0, 0, 0) for k1 in range(-2, 3)]
        it.rows = int_blocks([*it.rows, mn.rows[b_mn]], it.rows.shape[2])
        it.place[[win.index(k) for k in moved]] = len(it.rows) - 1
        assert all(it.fiber(k) == mn.fiber(k) for k in moved)
        checks = ("inclusion-chain", "JH-quotient")
        got = {cid: run_check(cid, N=4, beta=HALF, d=2).to_dict() for cid in checks}
        for module in (theorem_registry, sl_maps):
            monkeypatch.setattr(module, "place_tuples", reference_per_degree)
            monkeypatch.setattr(module, "contained", reference_contained)
        assert got == {cid: run_check(cid, N=4, beta=HALF, d=2).to_dict() for cid in checks}
        assert {cid: got[cid]["status"] for cid in checks} == dict.fromkeys(checks, "FAIL")
        failed = [d["degree"] for d in got["inclusion-chain"]["details"] if d["status"] == "FAIL"
                  and d["degree"] is not None]
        assert failed == [list(k) for k in moved]
        assert [d["actual"] for d in got["JH-quotient"]["details"] if d["status"] == "FAIL"] \
            == ["5 bad"] * 3
    finally:
        _build_family_cached.cache_clear()


def test_inclusion_chain_fails_at_the_one_faulty_degree():
    """INT's fiber at one degree, not a whole direction, is taken from another
    direction: its ``place`` entry points at that direction's block, of the
    same dimension, but MIN no longer lies in it there.  The tuples are keyed
    by every family's block at each degree, so ``inclusion-chain`` FAILs at
    exactly that degree, as the per-pair reference does."""
    _build_family_cached.cache_clear()
    try:
        spec, win = ActionSpec.make("H", 4, Lambda(2), HALF), Window(4, 2)
        it = build_family(FamilyKind.INT, 2, spec, win)
        mn = build_family(FamilyKind.MIN, 2, spec, win)
        k = (1, 0, 0, 0)  # one of five degrees along e_1
        it.place[win.index(k)] = it.place[win.index((0, 1, 0, 0))]
        assert it.fiber(k).dim == it.fiber((2, 0, 0, 0)).dim
        assert not subspace_contains(it.fiber(k), mn.fiber(k))
        got = run_check("inclusion-chain", N=4, beta=HALF, d=2).to_dict()
        assert got["status"] == "FAIL"
        failed = [(d["degree"], d["actual"]) for d in got["details"]
                  if d["status"] == "FAIL" and d["degree"] is not None]
        assert failed == [(list(k), "violated")]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(theorem_registry, "contained", reference_contained)
            assert run_check("inclusion-chain", N=4, beta=HALF, d=2).to_dict() == got
    finally:
        _build_family_cached.cache_clear()


def test_a_warm_catalogue_pass_makes_few_fiber_escapes_calls(monkeypatch):
    """The invariance sweeps stack their items ``STACK_ITEMS`` to a call: a
    warm pass over the checks of the benchmark's ``catalogue`` workload
    makes at most 60 ``fiber_escapes`` calls, where one call per generator
    (``is_invariant``) and per degree (``invariance_report``) made 490."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    ops = [op for op in workloads.build("catalogue", 7) if op.kind == "check"]
    for op in ops:  # the cold pass fills the family and engine caches
        theorem_registry.run_check(op.check_id, **op.params)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fiber_escapes(*args, **kwargs)

    fiber_escapes = graded_modules.fiber_escapes
    for module in (graded_modules, invariant_ops, theorem_registry):
        monkeypatch.setattr(module, "fiber_escapes", counted)
    for op in ops:
        theorem_registry.run_check(op.check_id, **op.params)
    assert 0 < len(calls) <= 60
