from fractions import Fraction as F

import pytest

from slmod.exact_linalg import (
    IntSpan,
    Subspace,
    _int_matrix,
    _int_row,
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
        return [rank_one_sym(x) for x, _ in _t_span_factors(spec, k)]
    return [rank_one(x, y) for x, y in _t_span_factors(spec, k)]


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


@pytest.mark.parametrize("kind,beta", [("H", ZERO), ("H", (F(1, 2), F(1, 2), 0, 0)),
                                       ("W", (F(1, 3), F(1, 2), 0, 0))])
def test_t_span_ops_use_the_fraction_t_vectors(kind, beta):
    """The integer T-vectors over gcd(q, content) are the Fraction T-vectors
    with their denominators cleared, so the operators are unchanged."""
    spec = ActionSpec.make(kind, 4, Lambda(1), beta)
    box = degree_box(4)
    for k in [(0, 0, 0, 0), (1, -1, 0, 1), (-2, 1, 1, 0)]:
        span, basis = IntSpan(4), []
        for r in box:
            for s in box:
                t = _int_row(_fraction_t(kind, k, beta, r, s))
                if any(t) and span.add(t):
                    basis.append(t)
                if span.dim == 3:
                    break
            if span.dim == 3:
                break
        if kind == "H":
            expected = []
            for i, x in enumerate(basis):
                expected.append(rank_one_sym(x))
                expected += [rank_one_sym([a + b for a, b in zip(x, y)]) for y in basis[i + 1:]]
        else:
            expected = [rank_one(x, y) for x in basis for y in basis]
        assert _t_span_ops(spec, k) == expected


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
        if spec.kind.value == "H" and not spec.is_special(k):
            shift = tuple(F(a) + b for a, b in zip(k, spec.beta))
            ops += [rank_one_sym(x) for x in symplectic_extend(shift).vectors()
                    if sympl_form(shift, x) == 0]
        ok = True
        for op in ops:
            rows, _ = space.action_matrix_int(_int_matrix(op)[0])
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


# ---------------------------------------------------------------------------
# the frame operators lie in the checked span


@pytest.mark.parametrize("n,d", [(4, 2), (6, 1)])
@pytest.mark.parametrize("b", [0, F(1, 2)])
def test_frame_operators_lie_in_the_t_span(n, d, b):
    spec = ActionSpec.make("H", n, Lambda(1), (b,) + (0,) * (n - 1))
    checked = 0
    for k in Window(n, d).degrees():
        if spec.is_special(k):
            continue
        span = IntSpan(n * n)
        for op in _t_span_ops(spec, k):
            span.add([x for row in op for x in row])
        shift = tuple(F(a) + c for a, c in zip(k, spec.beta))
        for x in symplectic_extend(shift).vectors():
            if sympl_form(shift, x) == 0:
                op = rank_one_sym(_int_row(x))
                assert span.contains([v for row in op for v in row]), (k, x)
                checked += 1
    assert checked >= (n - 2) * (len(Window(n, d).degrees()) - 1)
