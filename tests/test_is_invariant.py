"""``is_invariant`` against the row-reduction reference.

The program tests fiber membership with integer annihilators, one generator
at a time in int64 (or in Python ints past the overflow bound).  The
reference below walks the per-degree reference edge lists, sends every fiber
row through ``EdgeTable.apply`` and reduces each image against the target's
echelon rows, one edge at a time.
Both must produce the same report, byte for byte, on invariant families and
on families with one fiber swapped so that they fail, also when the program
splits its edges into batches of a few items.
"""

import sys
from fractions import Fraction as F

import pytest

from slmod import graded_modules
from slmod.exact_linalg import Subspace, _reduce_row, format_vector
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
    is_invariant,
)
from slmod.reports import Recorder
from slmod.sl_maps import FamilyKind, build_family
from reference import reference_apply, reference_edges


def reference_is_invariant(spec, family):
    """Every in-window edge in turn: apply it to the fiber rows and reduce
    each image against the target fiber's echelon rows."""
    gens = default_generators(spec.kind, spec.n)
    table = edge_table(spec, family.window, gens)
    _, out_edges = reference_edges(spec, family.window, gens)
    rec = Recorder(
        "is-invariant",
        {"kind": str(spec.kind), "N": spec.n, "fiber": str(spec.fiber),
         "beta": format_vector(spec.beta)},
    )
    for i, k in enumerate(table.degs):
        sub = family.fiber(k)
        if not sub.dim:
            continue
        rec.counts["skipped"] += len(gens) - len(out_edges[i])
        for gi, j, cq in out_edges[i]:
            tgt = family.fiber(table.degs[j])
            images = reference_apply(table, gi, cq, sub.rows)
            if any(any(_reduce_row(img, tgt.rows, tgt.pivots)) for img in images):
                rec.record(
                    False,
                    degree=k,
                    expected="image inside fiber",
                    actual="escapes",
                    note=f"generator {gens[gi].label()} -> degree {list(table.degs[j])}",
                )
                break
        else:
            rec.record(True, degree=k, expected="invariant", actual="invariant")
    return rec.result()


def _families(spec, window):
    """Every family kind on Lambda and Fund fibers; on Sym2 and scalar
    fibers the closure of one basis vector and the full family."""
    if spec.fiber.kind in ("lambda", "fund"):
        if spec.n % 2:  # MIN, INT and MAX are built from symplectic data
            return [build_family(FamilyKind.FULLW, spec.fiber.p, spec, window)]
        return [build_family(kind, spec.fiber.p, spec, window) for kind in FamilyKind]
    dim = spec.space().dim
    seed = [1] + [0] * (dim - 1)
    full = Subspace.full(dim)
    return [closure(spec, {(0,) * spec.n: [seed]}, window),
            GradedFamily(spec, window, {k: full for k in window.degrees()})]


def _swapped(family):
    """The family with its fiber at (1, 0, ..., 0) swapped: for the line
    through (1, 2, ..., dim), or on a one-dimensional fiber emptied or filled."""
    spec, window = family.spec, family.window
    dim = spec.space().dim
    k = (1,) + (0,) * (spec.n - 1)
    line = Subspace(dim, [list(range(1, dim + 1))])
    if dim == 1 or family.fiber(k) == line:
        line = Subspace.zero(dim) if family.fiber(k).dim else Subspace.full(dim)
    return GradedFamily(spec, window, {**family.fibers, k: line})


CASES = (
    [("H", n, d, fiber) for n, d in ((2, 2), (4, 1))
     for fiber in [Lambda(p) for p in range(1, n)] + [Fund(p) for p in range(1, n // 2 + 1)]
     + [Sym2(), ScalarFiber()]]
    + [(alg, n, d, Lambda(p)) for alg in "WS" for n, d in ((2, 2), (3, 1), (4, 1))
       for p in range(1, n)]
)


@pytest.mark.parametrize("b", [0, F(1, 2)])
@pytest.mark.parametrize("alg,n,d,fiber", CASES, ids=[f"{a}-N{n}-d{d}-{f}" for a, n, d, f in CASES])
def test_is_invariant_matches_the_reference(alg, n, d, fiber, b):
    spec = ActionSpec.make(alg, n, fiber, (b,) + (0,) * (n - 1))
    window = Window(n, d)
    for family in _families(spec, window):
        assert is_invariant(spec, family).to_dict() == reference_is_invariant(spec, family).to_dict()
        bad = _swapped(family)
        report = is_invariant(spec, bad)
        assert report.status == "FAIL"
        assert report.to_dict() == reference_is_invariant(spec, bad).to_dict()


@pytest.mark.parametrize("alg,n,fiber", [("H", 2, Fund(1)), ("H", 4, Fund(2)), ("S", 4, Lambda(2))])
def test_is_invariant_past_the_int64_bound(alg, n, fiber):
    """A beta denominator of 10^10 + 19 puts the products past 2^62, and at
    N = 4 the fiber rows themselves past int64, so the test runs in Python
    ints and still matches the reference."""
    spec = ActionSpec.make(alg, n, fiber, (F(1, 10**10 + 19),) + (0,) * (n - 1))
    window = Window(n, 1)
    families = _families(spec, window)
    if n == 4:
        assert max(abs(x) for fam in families for s in fam.fibers.values()
                   for row in s.rows for x in row) >= 2**63
    for family in families:
        assert is_invariant(spec, family).to_dict() == reference_is_invariant(spec, family).to_dict()
        bad = _swapped(family)
        assert is_invariant(spec, bad).to_dict() == reference_is_invariant(spec, bad).to_dict()


@pytest.fixture
def batches_of_seven(monkeypatch):
    """``STACK_ITEMS`` = 7, and the item count of every ``fiber_escapes``
    call ``is_invariant`` makes (closures building a family call it too)."""
    monkeypatch.setattr(graded_modules, "STACK_ITEMS", 7)
    sizes = []

    def counted(rows, anns, cs, maps, tops=None):
        if sys._getframe(1).f_code.co_name == "is_invariant":
            sizes.append(len(cs))
        return graded_modules_fiber_escapes(rows, anns, cs, maps, tops)

    graded_modules_fiber_escapes = graded_modules.fiber_escapes
    monkeypatch.setattr(graded_modules, "fiber_escapes", counted)
    return sizes


@pytest.mark.parametrize("b", [0, F(1, 2)])
@pytest.mark.parametrize("alg,n,d,fiber", CASES, ids=[f"{a}-N{n}-d{d}-{f}" for a, n, d, f in CASES])
def test_is_invariant_in_batches_of_seven_matches_the_reference(alg, n, d, fiber, b,
                                                                 batches_of_seven):
    test_is_invariant_matches_the_reference(alg, n, d, fiber, b)
    assert len(batches_of_seven) > 1 and max(batches_of_seven) <= 7


def _escaping_generators(spec, family, k):
    """The generators whose in-window map at k sends a row of the fiber at k
    out of its target fiber, in the reference's arithmetic."""
    gens = default_generators(spec.kind, spec.n)
    table = edge_table(spec, family.window, gens)
    _, out_edges = reference_edges(spec, family.window, gens)
    rows = family.fiber(k).rows
    escaping = []
    for gi, j, cq in out_edges[table.index[k]]:
        tgt = family.fiber(table.degs[j])
        if any(any(_reduce_row(img, tgt.rows, tgt.pivots)) for img in reference_apply(table, gi, cq, rows)):
            escaping.append(gi)
    return escaping


def test_a_failing_degree_split_over_batches_names_its_smallest_generator(batches_of_seven):
    """The swapped degree's escaping edges fall into several batches of seven
    (edges go generator-major, one per source degree and generator); the
    report names the smallest escaping generator, as the reference does."""
    spec = ActionSpec.make("H", 4, Lambda(1), (F(1, 2), 0, 0, 0))
    window = Window(4, 1)
    bad = _swapped(build_family(FamilyKind.MIN, 1, spec, window))
    k = (1, 0, 0, 0)
    escaping = _escaping_generators(spec, bad, k)
    src = [key for key in window.degrees() if bad.fiber(key).dim]
    batches = {(gi * len(src) + src.index(k)) // 7 for gi in escaping}
    assert len(batches) > 1
    report = is_invariant(spec, bad)
    assert report.to_dict() == reference_is_invariant(spec, bad).to_dict()
    gens = default_generators(spec.kind, spec.n)
    [record] = [r for r in report.to_dict()["details"]
                if r["degree"] == list(k) and r["status"] == "FAIL"]
    assert record["note"].startswith(f"generator {gens[min(escaping)].label()} ->")
