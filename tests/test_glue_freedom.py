"""``_glue_freedom`` against the edge-by-edge reference.

The program tests both directions at the degenerate degree k0 = -beta with
``fiber_escapes``, one item per edge.  The reference below walks the
per-degree reference edge lists for the maps into k0 and applies each with
``EdgeTable.apply``, then sends the full fiber at k0 through each of its
out-edges and pairs the images with the minimal family's annihilator.  Both
must produce the same records and counts, on the families the checks glue
and on two mutations that must FAIL.
"""

from operator import mul

import pytest

from slmod.exact_linalg import Subspace
from slmod.graded_modules import (
    ActionSpec,
    Fund,
    GradedFamily,
    Lambda,
    Window,
    default_generators,
    edge_table,
)
from slmod.reports import Recorder
from slmod.sl_maps import FamilyKind, build_family
from slmod.theorem_registry import _glue_freedom
from reference import reference_edges


def reference_glue_freedom(rec, spec, families, window):
    k0 = tuple(int(-b) for b in spec.beta)
    if k0 not in window:
        rec.skip()
        return
    gens = default_generators(spec.kind, spec.n)
    table = edge_table(spec, window, gens)
    index, out_edges = reference_edges(spec, window, gens)
    i0 = index[k0]
    bad_in = 0
    for i, edges in enumerate(out_edges):
        for gi, j, cq in edges:
            if j != i0:
                continue
            for family in families:
                if table.apply(gi, cq, family.fiber(table.degs[i]).rows):
                    bad_in += 1
    rec.record(bad_in == 0, expected="no image lands in the degenerate fiber",
               actual=f"{bad_in} nonzero images", note="glue freedom, incoming")
    dim = table.dim
    full_rows = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    bad_out = 0
    for gi, j, cq in out_edges[i0]:
        ann = families[0].fiber(table.degs[j]).annihilator()
        images = table.apply(gi, cq, full_rows)
        if any(sum(map(mul, a, img)) for a in ann for img in images):
            bad_out += 1
    rec.record(bad_out == 0, expected="degenerate fiber maps into the minimal family",
               actual=f"{bad_out} escapes", note="glue freedom, outgoing")


def _reports(spec, families, window):
    out = []
    for glue in (_glue_freedom, reference_glue_freedom):
        rec = Recorder("glue", {})
        glue(rec, spec, families, window)
        out.append(rec.result().to_dict())
    return out


def _glued_families(alg, n, p, beta, window):
    """The families a check glues: MIN, INT and MAX on Fund(p) (the
    classification), or the Witt family on Lambda(p)."""
    if alg == "H":
        spec = ActionSpec.make("H", n, Fund(p), beta)
        kinds = (FamilyKind.MIN, FamilyKind.INT, FamilyKind.MAX)
    else:
        spec = ActionSpec.make("W", n, Lambda(p), beta)
        kinds = (FamilyKind.FULLW,)
    return spec, tuple(build_family(kind, p, spec, window) for kind in kinds)


GLUE_CASES = [("H", 4, 1, 1), ("H", 4, 2, 1), ("H", 4, 2, 2), ("H", 2, 1, 2),
              ("W", 3, 1, 2), ("W", 3, 2, 1), ("W", 4, 2, 1)]


@pytest.mark.parametrize("alg,n,p,d", GLUE_CASES,
                         ids=[f"{a}-N{n}-p{p}-d{d}" for a, n, p, d in GLUE_CASES])
def test_glue_freedom_matches_the_reference(alg, n, p, d):
    beta = (-1,) + (0,) * (n - 1)  # k0 = e_1 lies off the window's centre
    window = Window(n, d)
    spec, families = _glued_families(alg, n, p, beta, window)
    mine, ref = _reports(spec, families, window)
    assert mine == ref
    assert mine["status"] == "PASS" and mine["counts"]["pass"] == 2
    near = (1, 1) + (0,) * (n - 2)  # a neighbour of k0 in the window
    dim = spec.space().dim
    full = Subspace.full(dim)
    # incoming: a family with a full fiber next to k0 feeds it nonzero images
    feeding = GradedFamily(spec, window, {**families[-1].fibers, near: full})
    mine, ref = _reports(spec, families[:-1] + (feeding,), window)
    assert mine == ref
    assert mine["status"] == "FAIL" and mine["counts"]["fail"] == 1
    assert mine["details"][0]["note"] == "glue freedom, incoming"
    # outgoing: a first family with a zero fiber next to k0 cannot hold the
    # images of the full fiber there
    fibers = dict(families[0].fibers)
    fibers.pop(near, None)
    hollow = GradedFamily(spec, window, fibers)
    mine, ref = _reports(spec, (hollow,) + families[1:], window)
    assert mine == ref
    assert mine["status"] == "FAIL" and mine["counts"]["fail"] == 1
    assert [d["note"] for d in mine["details"] if d["status"] == "FAIL"] == [
        "glue freedom, outgoing"]


def test_glue_freedom_skips_a_degenerate_degree_outside_the_window():
    window = Window(4, 1)
    spec, families = _glued_families("H", 4, 1, (-2, 0, 0, 0), window)
    mine, ref = _reports(spec, families, window)
    assert mine == ref
    assert mine["status"] == "SKIPPED"

