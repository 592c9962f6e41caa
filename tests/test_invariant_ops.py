from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest

from slmod import invariant_ops
from slmod.exact_linalg import (
    IntSpan,
    Subspace,
    _int_matrix,
    dot,
    format_vector,
    mat_vec,
)
from slmod.exterior_algebra import sym_position
from slmod.graded_modules import ActionSpec, Fund, GradedFamily, Lambda, Sym2, Window
from slmod.invariant_ops import (
    _t_span_factors,
    invariance_report,
    lie_closure_holds,
    orthogonal_extend,
    small_algebra,
    t_vectors,
)
from slmod.reports import Recorder
from slmod.sl_maps import FamilyKind, build_family, symplectic_extend
from slmod.torus_lie import degree_box, rank_one, rank_one_sym, sympl_form
from reference import _merged_directions, action_matrix_int

K1 = (1, 0, 0, 0)
ZERO = (0, 0, 0, 0)


def _fraction_t(kind, k, beta, r, s):
    """T = (bar(k+beta)|r) s - (bar(k+beta)|s) r (H), resp. with the dot
    pairing (W), in Fractions."""
    shift = tuple(F(a) + b for a, b in zip(k, beta))
    pair = (lambda x: sympl_form(shift, x)) if kind == "H" else (lambda x: dot(shift, x))
    cr, cs = pair(r), pair(s)
    return tuple(cr * b - cs * a for a, b in zip(r, s))


def test_t_vectors_examples():
    h = ActionSpec.make("H", 4, Lambda(1), ZERO)
    w = ActionSpec.make("W", 4, Lambda(1), ZERO)
    assert list(t_vectors(h, K1, [((0, 0, 1, 0), (0, 1, 0, 0)), ((1, 0, 0, 0), (0, 1, 0, 0))])) \
        == [[0, -1, 0, 0], [0, 0, 0, 0]]
    assert list(t_vectors(w, K1, [((1, 0, 0, 0), (0, 1, 0, 0))])) == [[0, 1, 0, 0]]
    with pytest.raises(ValueError):
        next(t_vectors(ActionSpec.make("S", 4, Lambda(1), ZERO), K1, [(K1, K1)]))


@pytest.mark.parametrize("kind,beta", [("H", ZERO), ("H", (F(1, 2), F(1, 3), 0, 0)),
                                       ("W", (F(1, 3), F(1, 2), 0, 0))])
def test_t_vectors_are_q_times_the_fraction_t_vectors(kind, beta):
    spec = ActionSpec.make(kind, 4, Lambda(1), beta)
    box = degree_box(4, 1)[:20]
    params = [(r, s) for r in box for s in box]
    for k in [K1, (1, -1, 0, 1), (-2, 1, 1, 0)]:
        kq = spec.scaled_shift(k)
        for (r, s), t in zip(params, t_vectors(spec, k, params), strict=True):
            assert all(type(x) is int for x in t)
            assert t == [spec.q * x for x in _fraction_t(kind, k, beta, r, s)]
            if kind == "H":
                assert sympl_form(kq, t) == 0


def test_small_symplectic_algebra():
    frame = symplectic_extend((1, 0, 0, 0))
    alg = small_algebra("H", frame)
    assert alg.span_dim == 3
    for g in alg.generators:
        assert mat_vec(g, (1, 0, 0, 0)) == (0, 0, 0, 0)
        assert mat_vec(g, (0, 0, -1, 0)) == (0, 0, 0, 0)
    assert lie_closure_holds(alg)


def test_small_matrix_algebra():
    basis = orthogonal_extend((1, 1, 0))
    assert all(dot(basis[0], v) == 0 for v in basis[1:])
    alg = small_algebra("W", basis)
    assert alg.span_dim == 4


HALF = (F(1, 2), 0, 0, 0)


def _t_span_ops(spec, k):
    """The certifying operators as matrices: x bar(x)^T (H) resp. x y^T (W)."""
    if spec.kind.value == "H":
        return [rank_one_sym(x) for x, _ in _t_span_factors(spec, spec.scaled_shift(k))]
    return [rank_one(x, y) for x, y in _t_span_factors(spec, spec.scaled_shift(k))]


def test_invariance_report_families():
    win = Window(4, 1)
    spec = ActionSpec.make("H", 4, Fund(2), HALF)
    for kind in (FamilyKind.MIN, FamilyKind.INT):
        fam = build_family(kind, 2, spec, win)
        assert invariance_report(fam).status == "PASS"


def test_invariance_report_mutation_fails():
    win = Window(4, 1)
    spec = ActionSpec.make("H", 4, Fund(2), HALF)
    fam = build_family(FamilyKind.MIN, 2, spec, win)
    bad = GradedFamily(spec, win, {**fam.fibers,
                                   (0, 0, 0, 0): Subspace(5, [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])})
    assert invariance_report(bad).status == "FAIL"


def _fraction_t_directions(kind, k, beta):
    """The distinct directions of the Fraction T-vectors over the whole
    degree box, as primitive integer rows: the pairings (bar(k+beta)|r) (H)
    resp. (k+beta|r) (W) are taken in Fractions, cleared by their common
    denominator, and T(r, s) = c_r s - c_s r is formed for every pair."""
    n = len(k)
    box = np.array(degree_box(n), dtype=np.int64)
    shift = tuple(F(a) + b for a, b in zip(k, beta))
    pairings = [sympl_form(shift, r) if kind == "H" else dot(shift, r) for r in degree_box(n)]
    denom = lcm(*(F(c).denominator for c in pairings))
    c = np.array([int(x * denom) for x in pairings], dtype=np.int64)
    t = (c[:, None, None] * box[None, :, :] - c[None, :, None] * box[:, None, :]).reshape(-1, n)
    t = t[np.any(t, axis=1)]
    t //= np.gcd.reduce(t, axis=1)[:, None]
    lead = t[np.arange(len(t)), np.argmax(t != 0, axis=1)]
    return np.unique(t * np.sign(lead)[:, None], axis=0)


def _op_rows(ops):
    return [[x for row in op for x in row] for op in ops]


CASES_T_SPAN = (
    [(kind, beta, [ZERO, (1, -1, 0, 1), (-2, 1, 1, 0)])
     for kind, beta in [("H", ZERO), ("H", (F(1, 2), F(1, 2), 0, 0)),
                        ("W", (F(1, 3), F(1, 2), 0, 0))]]
    + [("H", (0,) * 6, [(0,) * 6, (1, 0, 0, 0, 0, 0), (1, -1, 0, 1, 0, 1), (-1, 1, 1, 0, -1, 0)])]
)


@pytest.mark.parametrize("kind,beta,degrees", CASES_T_SPAN,
                         ids=[f"{c[0]}-N{len(c[1])}-beta{i}" for i, c in enumerate(CASES_T_SPAN)])
def test_t_span_ops_span_the_fraction_t_vector_operators(kind, beta, degrees):
    """The operators of ``_t_span_factors`` span exactly the operators of the
    Fraction T-vectors over the whole degree box: T bar(T)^T (H), T T'^T
    (W).  Every T-vector operator is killed by the annihilator of the checked
    span, and they reach its dimension.  At k + beta = 0 there is none."""
    n = len(beta)
    spec = ActionSpec.make(kind, n, Lambda(1), beta)
    for k in degrees:
        checked = IntSpan(n * n)
        for row in _op_rows(_t_span_ops(spec, k)):
            checked.add(row)
        t = _fraction_t_directions(kind, k, beta)
        if kind == "H":
            half = n // 2
            tbar = np.concatenate([t[:, half:], -t[:, :half]], axis=1)
            ops = np.einsum("ei,ej->eij", t, tbar).reshape(-1, n * n)
        else:
            ops = np.einsum("ai,bj->abij", t, t).reshape(-1, n * n)
        if k == spec.special_degree():
            assert _t_span_factors(spec, spec.scaled_shift(k)) == [] and len(ops) == 0
            continue
        ann = Subspace(checked.ambient, checked.rows).annihilator()
        assert max(map(abs, (x for row in ann for x in row))) * int(np.abs(ops).max()) * n * n < 2**62
        assert not np.any(np.array(ann, dtype=np.int64) @ ops.T), k
        reached = IntSpan(n * n)
        for row in ops.tolist():
            reached.add(row)
            if reached.dim == checked.dim:
                break
        assert reached.dim == checked.dim, k


# ---------------------------------------------------------------------------
# invariance_report against the per-operator reference path


def _reference_invariance_report(family):
    """Every operator of ``_t_span_ops`` and, for the H action away from the
    special degree, x bar(x)^T for each symplectic-frame vector x pairing to
    zero against k + beta; each as a dense ``action_matrix_int`` matrix."""
    spec = family.spec
    rec = Recorder(
        "invariant-operators",
        {"kind": str(spec.kind), "N": spec.n, "fiber": str(spec.fiber),
         "beta": format_vector(spec.beta)},
    )
    space = spec.space()
    for k in family.window.degrees():
        sub = family.fiber(k)
        if not sub.dim:
            continue
        ops = _t_span_ops(spec, k)
        if spec.kind.value == "H" and k != spec.special_degree():
            shift = tuple(F(a) + b for a, b in zip(k, spec.beta))
            ops += [rank_one_sym(x) for x in symplectic_extend(shift).vectors()
                    if sympl_form(shift, x) == 0]
        ok = True
        for op in ops:
            rows = action_matrix_int(space, _int_matrix(op)[0])
            for row in sub.rows:
                if not sub.contains_vector(mat_vec(rows, row)):
                    ok = False
        rec.record(ok, degree=k, expected="fiber preserved", actual="preserved" if ok else "escapes")
    return rec.result()


def _sym2_k_times_v(spec, window):
    """The Sym2 family K . V: each x bar(x)^T with (bar K|x) = 0 kills K, so it
    maps K . v to K . (x bar(x)^T v)."""
    n, dim = spec.n, spec.space().dim
    pos = sym_position(n)
    fibers = {}
    for k in window.degrees():
        kq = spec.scaled_shift(k)
        if not any(kq):
            continue
        rows = []
        for j in range(n):
            row = [0] * dim
            for i, c in enumerate(kq):
                row[pos[min(i, j) + 1, max(i, j) + 1]] += c
            rows.append(row)
        fibers[k] = Subspace(dim, rows)
    return GradedFamily(spec, window, fibers)


FAMILY_KINDS = (FamilyKind.MIN, FamilyKind.FULLW, FamilyKind.INT, FamilyKind.MAX)
REFERENCE_CASES = (
    [("H", fiber, p, kind, b) for b in (0, F(1, 2))
     for fiber, p in ((Fund(1), 1), (Fund(2), 2), (Lambda(2), 2)) for kind in FAMILY_KINDS]
    + [("H", Sym2(), None, None, b) for b in (0, F(1, 2))]
    + [("W", Lambda(p), p, FamilyKind.FULLW, b) for b in (0, F(1, 2)) for p in (1, 2)]
)


@pytest.mark.parametrize("alg,fiber,p,kind,b", REFERENCE_CASES,
                         ids=[f"{c[0]}-{c[1]}-{c[3]}-b{c[4]}" for c in REFERENCE_CASES])
def test_invariance_report_matches_the_per_operator_reference(alg, fiber, p, kind, b):
    n = 4 if alg == "H" else 3
    spec = ActionSpec.make(alg, n, fiber, (b,) + (0,) * (n - 1))
    window = Window(n, 1)
    family = (_sym2_k_times_v(spec, window) if kind is None
              else build_family(kind, p, spec, window))
    report = invariance_report(family)
    assert report.status == "PASS"
    assert report.to_dict() == _reference_invariance_report(family).to_dict()
    # one fiber swapped for the line through (1, 2, ..., dim): FAIL there
    dim = spec.space().dim
    k = (1,) + (0,) * (n - 1)
    bad = GradedFamily(spec, window, {**family.fibers, k: Subspace(dim, [list(range(1, dim + 1))])})
    report = invariance_report(bad)
    assert report.status == "FAIL"
    assert report.to_dict() == _reference_invariance_report(bad).to_dict()


@pytest.mark.parametrize("alg,fiber,p,kind,b", REFERENCE_CASES,
                         ids=[f"{c[0]}-{c[1]}-{c[3]}-b{c[4]}" for c in REFERENCE_CASES])
def test_invariance_report_in_batches_of_seven_matches_the_reference(alg, fiber, p, kind, b,
                                                                     monkeypatch):
    """The same reports when the (pair, operator) items go seven to a call."""
    monkeypatch.setattr(invariant_ops, "STACK_ITEMS", 7)
    sizes = []

    def counted(rows, anns, cs, maps, tops=None):
        sizes.append(len(cs))
        return fiber_escapes(rows, anns, cs, maps, tops)

    fiber_escapes = invariant_ops.fiber_escapes
    monkeypatch.setattr(invariant_ops, "fiber_escapes", counted)
    test_invariance_report_matches_the_per_operator_reference(alg, fiber, p, kind, b)
    assert len(sizes) > 2 and max(sizes) <= 7


@pytest.mark.parametrize("p,kind", [(1, FamilyKind.MIN), (2, FamilyKind.MIN), (2, FamilyKind.INT)])
@pytest.mark.parametrize("beta", [ZERO, HALF])
def test_a_directions_mutant_in_invariance_report_is_caught(p, kind, beta, monkeypatch):
    """``invariance_report`` with the second direction filed under the first
    tests those degrees' fibers under the first direction's operators: on
    the ``invariant-ops`` families at N=4 the report fails where the
    per-operator reference passes."""
    family = build_family(kind, p, ActionSpec.make("H", 4, Fund(p), beta), Window(4, 1))
    assert _reference_invariance_report(family).status == "PASS"
    monkeypatch.setattr(invariant_ops, "directions", _merged_directions)
    assert invariance_report(family).status == "FAIL"


# ---------------------------------------------------------------------------
# the frame operators lie in the checked span


@pytest.mark.parametrize("n,d", [(4, 2), (6, 1)])
@pytest.mark.parametrize("b", [0, F(1, 2)])
def test_frame_operators_lie_in_the_t_span(n, d, b):
    spec = ActionSpec.make("H", n, Lambda(1), (b,) + (0,) * (n - 1))
    checked = 0
    for k in Window(n, d).degrees():
        if k == spec.special_degree():
            continue
        span = IntSpan(n * n)
        for op in _t_span_ops(spec, k):
            span.add([x for row in op for x in row])
        shift = tuple(F(a) + c for a, c in zip(k, spec.beta))
        for x in symplectic_extend(shift).vectors():
            if sympl_form(shift, x) == 0:
                op = rank_one_sym(_int_matrix([x])[0][0])
                assert span.contains([v for row in op for v in row]), (k, x)
                checked += 1
    assert checked >= (n - 2) * (len(Window(n, d).degrees()) - 1)
