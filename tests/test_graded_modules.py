import random
from collections import deque
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest

from slmod import graded_modules, theorem_registry
from slmod.exact_linalg import IntSpan, Subspace, mat_mul, mat_sub, zero_matrix
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
    fiber_action,
    fiber_escapes,
    fiber_space,
    gen_d,
    gen_h,
    int_blocks,
    is_invariant,
    saturate,
)
from slmod.sl_maps import FamilyKind, build_family
from slmod.torus_lie import rank_one, rank_one_sym, sympl_form

HALF = (F(1, 2), 0, 0, 0)


def test_fiber_action_examples():
    spec = ActionSpec.make("H", 4, Lambda(1), (0, 0, 0, 0))
    # r = e1 at k = e1: the scalar part vanishes, e3 -> -e1 remains
    m = fiber_action(spec, gen_h((1, 0, 0, 0)), (1, 0, 0, 0))
    assert m == ((0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    # r = 0 gives the zero map
    z = fiber_action(spec, gen_h((0, 0, 0, 0)), (1, 0, 0, 0))
    assert z == zero_matrix(4, 4)
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
        assert large.fiber(k).contains(small.fiber(k))


def test_closure_stable_under_larger_generator_box():
    spec = ActionSpec.make("H", 2, Sym2(), HALF[:2])
    win = Window(2, 2)
    seed = {(0, 0): [[1, 0, 0]]}
    small = closure(spec, seed, win, default_generators(spec.kind, 2, 1))
    large = closure(spec, seed, win, default_generators(spec.kind, 2, 2))
    assert small.dims() == large.dims()


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
    table = fam.dims()
    assert table[(0, 0, 0, 0)] == 6
    assert table[(1, 1, 1, 1)] == 0
    with pytest.raises(ValueError):
        GradedFamily(spec, win, {(9, 0, 0, 0): Subspace.full(6)})
    with pytest.raises(ValueError):
        GradedFamily(spec, win, {(0, 0, 0, 0): Subspace.full(4)})


def _restrict(space, *subs):
    """``space.from_lambda`` on the stack of the subspaces' rows, zero-padded."""
    height = max(s.dim for s in subs)
    stack = np.zeros((len(subs), height, subs[0].ambient_dim), dtype=object)
    for item, s in zip(stack, subs):
        for i, row in enumerate(s.rows):
            item[i] = row
    return space.from_lambda(stack)


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
    """The rank-one table sum equals ``action_matrix_int`` of the same
    rank-one matrix, rows and scale: x bar(x)^T, and x y^T off Fund(p >= 2)."""
    space = fiber_space(n, fiber)
    rng = random.Random(f"rank-one-{n}-{fiber}-{form}")
    for _ in range(4):
        x = tuple(rng.randint(-3, 3) for _ in range(n))
        y = tuple(rng.randint(-3, 3) for _ in range(n))
        if form == "x-bar-x":
            assert space.rank_one_action(x) == space.action_matrix_int(rank_one_sym(x)), x
        elif fiber.kind == "fund" and fiber.p >= 2:
            # E_ab leaves sp, and with it the contraction kernel
            with pytest.raises(ValueError):
                space.rank_one_action(x, y)
        else:
            assert space.rank_one_action(x, y) == space.action_matrix_int(rank_one(x, y)), (x, y)


# ---------------------------------------------------------------------------
# saturate against the worklist that applies every edge


def reference_saturate(table, seeds: dict, stop=None):
    """``saturate`` without its settled-target filter: every visit applies
    every edge into a target that is not full and adds each image."""
    dim = table.dim
    spans: dict = {}
    fresh: dict = {}
    queue: deque = deque()

    def grow(i: int, rows) -> bool:
        span = spans.get(i)
        if span is None:
            span = spans[i] = IntSpan(dim)
        new = [row for row in map(span.add, rows) if row is not None]
        if not new:
            return False
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
        i = queue.popleft()
        rows = fresh.pop(i)
        for gi, j, cq in zip(*table.edges(i)):
            span = spans.get(j)
            if span is not None and span.dim == dim:
                continue
            images = table.apply(gi, cq, rows)
            if images and grow(j, images) and stop is not None and stop(j, spans):
                return None
    return spans


def _recording(stop, calls: list):
    """A stop hook that logs (degree index, dims of every span) and then
    defers to ``stop`` (never stopping when it is None)."""
    def hook(i, spans):
        calls.append((i, sorted((j, span.dim) for j, span in spans.items())))
        return stop is not None and stop(i, spans)
    return hook


def _same_run(table, seeds, stop=None):
    """Run ``saturate`` and the reference; both must make the same stop
    calls and return equal spans.  Returns saturate's spans."""
    calls, ref_calls = [], []
    ref = reference_saturate(table, seeds, _recording(stop, ref_calls))
    out = saturate(table, seeds, _recording(stop, calls))
    assert calls == ref_calls
    assert (out is None) == (ref is None)
    if out is not None:
        assert {i: s.rows for i, s in out.items()} == {i: s.rows for i, s in ref.items()}
    return out


def test_saturate_matches_the_reference_on_the_int_closure(monkeypatch):
    """H Fund(1), N=4, d=2, beta = e1/2, from a centre vector inside INT but
    outside MIN: the closure is INT, and most images land in fibers that
    already hold them, so fewer than a quarter of the reference's image rows
    may reach ``IntSpan.add``."""
    spec = ActionSpec.make("H", 4, Fund(1), HALF)
    table = edge_table(spec, Window(4, 2), default_generators(spec.kind, 4))
    seeds = {table.index[(0, 0, 0, 0)]: [[2, -1, 0, 3]]}
    adds = {"n": 0}
    add = IntSpan.add

    def counted(span, vector):
        adds["n"] += 1
        return add(span, vector)

    monkeypatch.setattr(IntSpan, "add", counted)
    reference_saturate(table, seeds)
    ref_adds, adds["n"] = adds["n"], 0
    saturate(table, seeds)
    assert adds["n"] < ref_adds / 4, (adds["n"], ref_adds)
    spans = _same_run(table, seeds)
    assert 0 < sum(s.dim for s in spans.values()) < 4 * len(table.degs)


@pytest.mark.parametrize("kind,fiber,beta,mode", [
    ("W", Lambda(1), (F(1, 2), 0, 0), "exact"),
    ("H", Fund(2), HALF, "contains"),
])
def test_probes_make_the_reference_stop_calls(monkeypatch, kind, fiber, beta, mode):
    """Probes with the certificate's stop hook: W N=3 d=2 probes against the
    full target, and H Fund(2) N=4 d=2 probes that must contain MIN.  The
    W hook fires before any target settles, so the last W seed also runs
    without a hook, with N generators per degree step into each target."""
    n = len(beta)
    spec = ActionSpec.make(kind, n, fiber, beta)
    window = Window(n, 2)
    engine = theorem_registry.probe_engine(spec, window)
    hooks = []

    def twin(table, seeds, stop=None):
        hooks.append(stop is not None)
        return _same_run(table, seeds, stop)

    monkeypatch.setattr(theorem_registry, "saturate", twin)
    if mode == "exact":
        target = engine.full_target()
    else:
        target = engine.min_target(build_family(FamilyKind.MIN, fiber.p, spec, window))
    rng = random.Random(f"saturate-{kind}-{fiber}")
    degs = window.degrees()
    for _ in range(6):
        vector = [rng.randint(-3, 3) for _ in range(spec.space().dim)]
        vector[rng.randrange(len(vector))] = 1
        k = degs[rng.randrange(len(degs))]
        engine.run(k, vector, mode, target)
    assert any(hooks)
    _same_run(engine.table, {engine.table.index[k]: [vector]})


def test_fiber_escapes_leaves_int64_before_a_product_wraps():
    """A row and an annihilator row with 2^32 in one entry: the product is
    exactly 2^64, which int64 would wrap to 0."""
    row = int_blocks([[[2**32, 0, 0, 0]]], 4)[0]
    assert row.dtype == np.int64
    assert (row[:, :1] * row[:, :1]).tolist() == [[0]]  # the wrapped product
    maps = np.zeros((1, 4, 4), dtype=np.int64)
    assert fiber_escapes(row, row, [1], maps).tolist() == [[True]]
