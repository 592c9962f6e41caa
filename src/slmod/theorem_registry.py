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
the predicted family there; a plain fixpoint run backs up every probe whose
certificate never fires.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb

import numpy as np

from .exact_linalg import (
    IntSpan,
    Subspace,
    _int_matrix,
    dot,
    fits_int64,
    format_vector,
    frac,
    identity,
    int_matmul,
    intersect,
    kernel,
    mat_mul,
    mat_sub,
    mat_vec,
    matrix,
    rank,
    subspace_sum,
    vec,
    zero_matrix,
)
from .exterior_algebra import (
    ExtVector,
    ext_basis,
    ext_dim,
    fundamental_dim,
    fundamental_subspace,
    gl_action_matrix,
    interior_product,
    theta_matrix,
    wedge,
)
from .graded_modules import (
    ActionSpec,
    Fund,
    GradedFamily,
    Lambda,
    ScalarFiber,
    Sym2,
    Window,
    default_generators,
    edge_table,
    fiber_escapes,
    fiber_space,
    int_blocks,
    is_invariant,
    saturate,
)
from .invariant_ops import (
    invariance_report,
    lie_closure_holds,
    orthogonal_extend,
    small_algebra,
    t_vectors,
)
from .reports import ERROR, PASS, CheckResult, Detail, Recorder
from .sl_maps import (
    FamilyKind,
    SpecialFiberPolicy,
    T,
    _map_matrix_scaled,
    build_family,
    f,
    map_degrees,
    pi,
    quotient_dims,
    symplectic_extend,
    theta_tilde,
    verify_module_map,
)
from .torus_lie import (
    bar,
    default_j_samples,
    j_membership,
    rank_one_span_dim,
    rank_one_sym,
    sp_dim,
    sympl_form,
)
from .complexes import DERHAM, FSQ, FSQ_FUND, TCHAIN, compare_with_prediction

DEFAULT_SEED = 20240801


# ---------------------------------------------------------------------------
# closure probe engine


class ProbeTarget:
    """Per-degree target data for a probe: dims, (optionally) basis rows,
    and whether the dominator certificate applies to it."""

    def __init__(self, dims_by_index, rows_by_index, certified: bool):
        self.dims = dims_by_index
        self.rows = rows_by_index
        self.certified = certified


class ProbeEngine:
    """Single-seed closure probes over one action spec and window."""

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
        self.dominators = self._dominators(*self._invertible_edges())

    # -- static structure ---------------------------------------------------

    def _trace_factors(self) -> tuple:
        """Exponent set {j} with (c + j t) a determinant factor, by fiber."""
        fiber = self.spec.fiber
        n = self.spec.n
        if fiber.kind == "lambda":
            if fiber.p == 0:
                return (0,)
            if fiber.p == n:
                return (1,)
            return (0, 1)
        if fiber.kind == "fund":
            return (0,)  # Hamiltonian only; the trace term vanishes
        if fiber.kind == "sym2":
            return (0, 1, 2)
        return (0,)

    def _invertible_edges(self) -> tuple:
        """The invertible in-window edges off the degenerate degree (see the
        module notes) as flat (source, target) index arrays."""
        table = self.table
        traces = [0 if g.u is None else dot(g.u, g.r) for g in self.gens]
        invertible = table.inbox.copy()
        for jj in self._trace_factors():
            shift = [-jj * table.q * t for t in traces]  # cq + jj q t = 0 when cq = shift
            invertible &= table.cq != np.array(
                shift, dtype=np.int64 if fits_int64(max(map(abs, shift))) else object)
        for s in self.special:  # no edge leaves or enters the degenerate degree
            into = s - table.offset  # the source of each generator's edge into s
            ok = (into >= 0) & (into < len(table.degs))
            invertible[into[ok], ok.nonzero()[0]] = False
            invertible[s] = False
        src, gis = np.nonzero(invertible)
        tgt = table.offset[gis]
        tgt += src
        return src, tgt

    def _reach(self, start: int, src, tgt) -> np.ndarray:
        """Mask of the degrees reached from ``start`` along the src -> tgt
        edges, one frontier sweep over every edge per step."""
        seen = frontier = np.arange(len(self.table.degs)) == start
        while frontier.any():
            frontier = (np.bincount(tgt[frontier[src]], minlength=len(seen)) > 0) & ~seen
            seen = seen | frontier
        return seen

    def _dominators(self, src, tgt) -> set:
        """G = degrees certified to regenerate the window interior."""
        needed = [i for i in self.interior if i not in self.special]
        for z in needed:
            if self._reach(z, src, tgt)[needed].all():
                return set(np.flatnonzero(self._reach(z, tgt, src)).tolist())
        return set()

    # -- probe runs ----------------------------------------------------------

    def min_target(self, family: GradedFamily) -> ProbeTarget:
        dims = {}
        rows = {}
        for k, sub in family.fibers.items():
            i = self.table.index[k]
            dims[i] = sub.dim
            rows[i] = [list(r) for r in sub.rows]
        return self._target(dims, rows)

    def full_target(self) -> ProbeTarget:
        return self._target(dict.fromkeys(range(len(self.table.degs)), self.table.dim), None)

    def _target(self, dims, rows) -> ProbeTarget:
        # certificates transfer full target fibers along invertible edges and
        # therefore need one common nonzero dimension off the degenerate degree
        generic = {dims.get(i, 0) for i in range(len(self.table.degs)) if i not in self.special}
        return ProbeTarget(dims, rows, len(generic) == 1 and generic != {0})

    def run(self, seed_k, seed_vec, mode: str, target: ProbeTarget) -> bool:
        """mode "exact": seed and closure stay inside an invariant target and
        must reach its dims on the interior (with ``full_target`` the whole
        fiber).  mode "contains": the closure must contain the target rows on
        the interior."""
        if not self.interior:
            raise ValueError(
                f"window d={self.window.d} has an empty interior: a probe would check nothing")
        seed_i = self.table.index[tuple(seed_k)]
        if not any(seed_vec):
            raise ValueError("probe seed is zero")
        if mode == "contains" and target.rows is None:
            raise ValueError("mode contains needs target rows")
        stop = None
        if target.certified:
            # interior degenerate degrees are outside every certificate's
            # reach and are checked directly
            def stop(i, spans):
                return (i in self.dominators and self._holds((i,), mode, target, spans)
                        and self._holds(self.special_interior, mode, target, spans))
        spans = saturate(self.table, {seed_i: [seed_vec]}, stop)
        return spans is None or self._holds(self.interior, mode, target, spans)

    def _holds(self, degrees, mode: str, target: ProbeTarget, spans) -> bool:
        """The fiber test at each degree: "exact" compares dims, "contains"
        asks for every target row."""
        for i in degrees:
            span = spans.get(i)
            if mode == "exact":
                if (span.dim if span is not None else 0) != target.dims.get(i, 0):
                    return False
            else:
                rows = target.rows.get(i, ())
                # canonical target rows are independent: a smaller span misses one
                if rows and (span is None or span.dim < len(rows)
                             or not all(map(span.contains, rows))):
                    return False
        return True


@lru_cache(maxsize=16)
def probe_engine(spec: ActionSpec, window: Window) -> ProbeEngine:
    return ProbeEngine(spec, window)


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
        span = IntSpan(len(vectors[0]) if vectors else 0)
        for v in _int_matrix(vectors)[0]:
            span.add(v)
        return span.dim

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
    degs = [k for k in window.degrees() if not spec.is_special(k)]
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


def _probe(rec: Recorder, engine: ProbeEngine, seeds, mode: str, target: ProbeTarget,
           expected: str, actual: str) -> int:
    """One closure probe per (degree, vector) seed; the first 8 failures are
    recorded with ``expected`` and ``actual``.  Returns the failure count."""
    bad = 0
    for k, v in seeds:
        if not engine.run(k, v, mode, target):
            bad += 1
            if bad <= 8:
                rec.record(False, degree=k, expected=expected, actual=actual)
    return bad


def _half_grid(n: int) -> list:
    return [beta_zero(n), beta_half(n)]


# ---------------------------------------------------------------------------
# check implementations


def _check_fundamental_dims(params) -> CheckResult:
    rec = Recorder("fundamental-dims", {"Ns": "2,4,6"})
    for n in (2, 4, 6):
        for p in range(1, n // 2 + 1):
            expected = comb(n, p) - (comb(n, p - 2) if p >= 2 else 0)
            rec.expect(expected, fundamental_dim(n, p), note=f"N={n} p={p}")
    return rec.result()


def _check_contraction_iso(params) -> CheckResult:
    n = params["N"]
    rec = Recorder("contraction-iso", {"N": n})
    half = n // 2
    rec.expect(comb(n, half - 1), rank(theta_matrix(n, half + 1)), note="rank of the contraction")
    return rec.result()


def _check_l3_span(params) -> CheckResult:
    n = params["N"]
    rec = Recorder("L3-span", {"N": n})
    rec.expect(sp_dim(n), rank_one_span_dim(n), note="rank-one span dimension")
    # the symmetrized-product vanishing used throughout the submodule proofs
    rng = _rng(params, f"l3-{n}")
    for _ in range(4):
        u = tuple(rng.randint(-2, 2) for _ in range(n))
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        a = rank_one_sym(v)
        mixed = matrix(
            [
                [u[i] * bar(v)[j] + v[i] * bar(u)[j] for j in range(n)]
                for i in range(n)
            ]
        )
        for p in range(1, min(n, 3) + 1):
            # x = e_1 ^ ... ^ e_p, the first monomial: its images are column 0
            act_m = gl_action_matrix(n, p, mixed)
            act_a = gl_action_matrix(n, p, a)
            lhs = [x + y for x, y in zip(mat_vec(act_a, [row[0] for row in act_m]),
                                         mat_vec(act_m, [row[0] for row in act_a]))]
            zero = not any(lhs)
            rec.record(zero, expected="zero", actual="zero" if zero else "nonzero",
                       note=f"symmetrized vanishing p={p}")
    return rec.result()


def _check_j_membership(params) -> CheckResult:
    n = params["N"]
    rec = Recorder("j-membership", {"N": n})
    samples = {kind: default_j_samples(kind, n) for kind in "HWS"}
    for p in range(0, n + 1):
        space = fiber_space(n, Lambda(p))
        monomials = identity(space.dim)
        for kind in "HWS" if p <= n - 1 else "HW":
            ok = j_membership(kind, space, monomials, samples[kind])
            rec.record(ok, expected="holds", actual="holds" if ok else "fails",
                       note=f"{kind} on Lambda^{p}")
    # the symmetric square is the smallest non-exceptional module: witnesses
    # e_2 . e_2, the last monomial of Sym^2 Q^2
    sym2 = fiber_space(2, Sym2())
    witness = [(0, 0, 1)]
    for kind in "HWS":
        rec.record(
            not j_membership(kind, sym2, witness, default_j_samples(kind, 2)),
            expected="fails",
            actual="checked",
            note=f"{kind} witness on Sym^2 Q^2",
        )
    return rec.result()


def _check_module_maps(params) -> CheckResult:
    n = params["N"]
    beta = params["beta"]
    window = _window(params)
    rec = Recorder("module-maps", {"N": n, "beta": format_vector(beta), "d": window.d})
    spec = ActionSpec.make("H", n, Lambda(0), beta)
    map_ids = (
        [pi(p) for p in range(0, n)]
        + [T(p) for p in range(1, n + 1)]
        + [theta_tilde(p) for p in range(2, n + 1)]
        + [f(p) for p in range(0, n)]
    )
    for mid in map_ids:
        src, _ = map_degrees(mid, n)
        rep = verify_module_map(mid, spec.with_fiber(Lambda(src)), window)
        rec.record(
            rep.status == PASS,
            expected=PASS,
            actual=rep.status,
            note=f"map {mid}",
        )
        rec.counts["skipped"] += rep.counts.get("skipped", 0)
    return rec.result()


def _check_inclusion_chain(params) -> CheckResult:
    n = params["N"]
    beta = params["beta"]
    window = _window(params)
    rec = Recorder("inclusion-chain", {"N": n, "beta": format_vector(beta), "d": window.d})
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
        bad = 0
        for k in degs:
            fibers = {name: family.fiber(k) for name, family in fam.items()}
            mn, fw, it, mx = fibers.values()
            if not (fw.contains(mn) and mx.contains(fw) and it.contains(mn) and mx.contains(it)):
                bad += 1
                rec.record(False, degree=k, expected="chain inclusions", actual="violated")
                continue
            dims_here = {name: sub.dim for name, sub in fibers.items()}
            if dims_here != expected:
                bad += 1
                rec.record(False, degree=k, expected=str(expected), actual=str(dims_here))
        rec.record(bad == 0, expected="all fibers", actual=f"{bad} bad", note=f"p={p} dims {tuple(expected.values())}")
        # oracle cross-validation on sampled degrees
        for _ in range(oracle_samples):
            k = _draw(rng, degs)
            got = oracle_fiber_dims(n, p, tuple(frac(a) + b for a, b in zip(k, beta)))
            rec.expect(got, {name: family.fiber(k).dim for name, family in fam.items()},
                       degree=k, note=f"oracle cross-check p={p}")
    return rec.result()


def _check_fiber_equalities(params) -> CheckResult:
    n = params["N"]
    beta = params["beta"]
    window = _window(params)
    rec = Recorder("fiber-equalities", {"N": n, "beta": format_vector(beta), "d": window.d})
    half = n // 2
    spec0 = ActionSpec.make("H", n, Lambda(0), beta)

    def fam(kind, p):
        return build_family(kind, p, spec0.with_fiber(Fund(p)), window)

    equalities = [(FamilyKind.MIN, FamilyKind.FULLW, p, "restricted minimal = restricted Witt",
                   f"p={p}") for p in range(1, half + 1)]
    equalities += [
        (FamilyKind.MAX, FamilyKind.INT, 1, "restricted maximal = intermediate at p=1", ""),
        (FamilyKind.INT, FamilyKind.MIN, half, "restricted intermediate = minimal at p=n", ""),
    ]
    for kind_a, kind_b, p, expected, note in equalities:
        a = fam(kind_a, p)
        b = fam(kind_b, p)
        bad = sum(1 for k in window.degrees() if a.fiber(k) != b.fiber(k))
        rec.record(bad == 0, expected=expected, actual=f"{bad} bad", note=note)
    # intermediate = kernel of the composed contraction-after-wedge map on the
    # contraction kernel, entered through the integer embedding of its pivot-1
    # basis (Fund(p) coordinates to Lambda^p)
    for p in range(2, half + 1):
        it = fam(FamilyKind.INT, p)
        fund = fundamental_subspace(n, p)
        scale = fiber_space(n, Fund(p)).scale
        embed = np.array([[row[i] * (scale // row[pc]) for row, pc in zip(fund.rows, fund.pivots)]
                          for i in range(fund.ambient_dim)], dtype=object)
        theta = np.array(theta_matrix(n, p + 1), dtype=object)  # theta_tilde(p + 1): free of K
        bad = 0
        for k in window.degrees():
            kq = spec0.scaled_shift(k)
            if not any(kq):
                continue
            wedge_k = np.array(_map_matrix_scaled(pi(p), n, kq), dtype=object)
            if kernel(int_matmul(theta, int_matmul(wedge_k, embed)).tolist()) != it.fiber(k):
                bad += 1
        rec.record(bad == 0, expected="intermediate = contraction-wedge kernel", actual=f"{bad} bad",
                   note=f"p={p}")
    return rec.result()


def _check_jh_quotient(params) -> CheckResult:
    n = params["N"]
    beta = params["beta"]
    window = _window(params)
    rec = Recorder("JH-quotient", {"N": n, "beta": format_vector(beta), "d": window.d})
    spec0 = ActionSpec.make("H", n, Lambda(0), beta)
    generic = _generic_degrees(spec0, window)
    integral = spec0.special_degree() is not None
    policy = SpecialFiberPolicy.FULL if integral else SpecialFiberPolicy.OMIT

    def minimal(q, pol=SpecialFiberPolicy.OMIT):
        return build_family(FamilyKind.MIN, q, spec0.with_fiber(Lambda(q)), window, policy=pol)

    def quotient_is(outer, inner, family, expected) -> dict:
        """outer/inner against the family's dims over the generic degrees."""
        qd = quotient_dims(outer, inner)
        bad = sum(1 for k in generic if qd[k] != family.fiber(k).dim)
        rec.record(bad == 0, expected=expected, actual=f"{bad} bad", note=f"p={p}")
        return qd

    for p in range(1, n):
        spec = spec0.with_fiber(Lambda(p))
        full = GradedFamily(spec, window, {k: Subspace.full(ext_dim(n, p)) for k in window.degrees()})
        mn = minimal(p)
        hat_mn = minimal(p, policy)
        fw = build_family(FamilyKind.FULLW, p, spec, window, policy=policy)
        it = build_family(FamilyKind.INT, p, spec, window, policy=policy)
        mx = build_family(FamilyKind.MAX, p, spec, window, policy=policy)
        lower = minimal(p - 1) if p >= 2 else None
        upper = minimal(p + 1)
        qd = quotient_is(full, mx, mn, "full/maximal = minimal")
        if integral:
            bad = sum(1 for k in window.degrees() if spec.is_special(k) and qd[k] != 0)
            rec.record(bad == 0, expected="hat quotient vanishes at the degenerate degree",
                       actual=f"{bad} bad", note=f"p={p}")
        # the Witt and intermediate quotients drop or raise the degree by one
        for outer, inner, family, expected in (
            (fw, hat_mn, lower, "Witt/minimal drops one degree"),
            (mx, fw, upper, "maximal/Witt raises one degree"),
            (it, hat_mn, upper, "intermediate/minimal raises one degree"),
            (mx, it, lower, "maximal/intermediate drops one degree"),
        ):
            if family is not None:
                quotient_is(outer, inner, family, expected)
        # lattice identities: sum and intersection of Witt and intermediate
        bad = 0
        for k in generic:
            w_k = fw.fiber(k)
            i_k = it.fiber(k)
            if subspace_sum(w_k, i_k) != mx.fiber(k):
                bad += 1
            if intersect(w_k, i_k) != mn.fiber(k):
                bad += 1
        rec.record(bad == 0, expected="Witt + intermediate = maximal; meet = minimal",
                   actual=f"{bad} bad", note=f"p={p}")
    return rec.result()


def _check_composition(params) -> CheckResult:
    n = params["N"]
    p = params["p"]
    beta = params["beta"]
    window = _window(params)
    rec = Recorder("composition", {"N": n, "p": p, "beta": format_vector(beta), "d": window.d})
    half = n // 2
    if not 1 <= p <= half:
        raise ValueError(f"composition needs 1 <= p <= {half}")
    spec0 = ActionSpec.make("H", n, Lambda(0), beta)
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
    for k in generic:
        m_p = mn.fiber(k).dim
        m_below = below.fiber(k).dim if below else 0
        m_above = above.fiber(k).dim if above else 0
        dims_chain = (m_p, it.fiber(k).dim, mx.fiber(k).dim, fdim)
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
    rec.record(bad == 0, expected="chain dims and bookkeeping", actual=f"{bad} bad",
               note=f"generic chain {chain_example}")
    if k0 is not None:
        # hat chain at the degenerate degree: the extra factor is the whole fiber
        hat_min = fam(FamilyKind.MIN, p, SpecialFiberPolicy.FULL)
        if k0 in window:
            rec.expect(fdim, hat_min.fiber(k0).dim - mn.fiber(k0).dim,
                       degree=k0, note="hat minimal adds the full degenerate fiber")
    return rec.result()


def _check_irreducible_min(params) -> CheckResult:
    n = params["N"]
    p = params["p"]
    beta = params["beta"]
    window = _probe_window(params)
    rec = Recorder(
        "irreducible-min",
        {"N": n, "p": p, "beta": format_vector(beta), "d": window.d,
         "seed": params.get("seed", DEFAULT_SEED)},
    )
    spec = ActionSpec.make("H", n, Fund(p), beta)
    family = build_family(FamilyKind.MIN, p, spec, window)
    inv = is_invariant(spec, family)
    rec.record(inv.status == PASS, expected=PASS, actual=inv.status, note="minimal family invariant")
    if inv.status != PASS:
        return rec.result()
    engine = probe_engine(spec, window)
    seeds = [(k, row) for k in window.degrees() for row in family.fiber(k).rows]
    bad = _probe(rec, engine, seeds, "exact", engine.min_target(family),
                 "closure = minimal on interior", "mismatch")
    rec.record(bad == 0, expected=f"{len(seeds)} seed closures match", actual=f"{bad} mismatched",
               note="every basis vector of every fiber")
    return rec.result()


def _contains_check(check_id: str, spec: ActionSpec, kind: FamilyKind, salt: str,
                    missing: str, family_name: str, params) -> CheckResult:
    """Random-seed closures must contain the family: nothing smaller is a
    submodule.  ``missing`` and ``family_name`` word the failure and the
    summary records."""
    window = _probe_window(params)
    count = params.get("samples", 100)
    rec = Recorder(
        check_id,
        {"N": spec.n, "p": params["p"], "beta": format_vector(spec.beta), "d": window.d,
         "seed": params.get("seed", DEFAULT_SEED), "samples": count},
    )
    family = build_family(kind, params["p"], spec, window)
    engine = probe_engine(spec, window)
    rng = _rng(params, salt)
    degs = window.degrees()
    seeds = [(_draw(rng, degs), _random_vector(rng, spec.space().dim)) for _ in range(count)]
    bad = _probe(rec, engine, seeds, "contains", engine.min_target(family), missing, "missing")
    rec.record(bad == 0, expected=f"{count} random closures contain {family_name}",
               actual=f"{bad} missing")
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
    rec = Recorder(
        "main-classification",
        {"N": n, "p": p, "beta": format_vector(beta), "d": window.d,
         "seed": params.get("seed", DEFAULT_SEED), "samples": count},
    )
    spec = ActionSpec.make("H", n, Fund(p), beta)
    mn, it, mx = (build_family(kind, p, spec, window)
                  for kind in (FamilyKind.MIN, FamilyKind.INT, FamilyKind.MAX))
    engine = probe_engine(spec, window)
    rng = _rng(params, f"cls-{n}-{p}-{format_vector(beta)}")
    degs = _generic_degrees(spec, window)
    dim = spec.space().dim
    # vectors outside the maximal family generate everything
    seeds = _outside_seeds(rng, degs, mx, count)
    bad = _probe(rec, engine, seeds, "exact", engine.full_target(),
                 "closure reaches full fibers", "partial")
    rec.record(bad == 0, expected="outside-maximal seeds generate everything",
               actual=f"{bad} failed", note=f"{count} seeds")
    # strata: a vector in one family but not the previous generates that family
    strata = [(mx, it, "maximal"), (it, mn, "intermediate")]
    for outer, inner, label in strata:
        sample_k = [k for k in degs if outer.fiber(k).dim > inner.fiber(k).dim]
        if not sample_k:
            continue  # the two families coincide at this p
        inv = is_invariant(spec, outer)
        rec.record(inv.status == PASS, expected=PASS, actual=inv.status,
                   note=f"{label} family invariant")
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
        bad = _probe(rec, engine, seeds, "exact", engine.min_target(outer),
                     f"closure = {label} family", "mismatch")
        rec.record(bad == 0, expected=f"{label}-stratum seeds generate the {label} family",
                   actual=f"{bad} failed")
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
    dim = table.dim
    eye = int_blocks([identity(dim)], dim)[0]
    # into k0 the edge of each generator g from k0 - offset[g], once per
    # family; every family is zero at k0, so the annihilator there is the identity
    i0 = table.index[k0]
    into = [(gi, i) for gi, i in enumerate((i0 - table.offset).tolist())
            if 0 <= i < len(table.degs) and table.inbox[i, gi]]
    rows = [family.fiber(table.degs[i]).rows for _, i in into for family in families]
    cs = [int(table.cq[i, gi]) * table.scale[gi] for gi, i in into for _ in families]
    gis = [gi for gi, _ in into for _ in families]
    bad_in = int(fiber_escapes(int_blocks(rows, dim), eye, cs, table.qd[gis]).any(-1).sum())
    rec.record(bad_in == 0, expected="no image lands in the degenerate fiber",
               actual=f"{bad_in} nonzero images", note="glue freedom, incoming")
    # out of the full fiber at k0 into the minimal family
    gis, js, cqs = table.edges(i0)
    anns = int_blocks([families[0].fiber(table.degs[j]).annihilator() for j in js], dim)
    cs = [cq * table.scale[gi] for gi, cq in zip(gis, cqs)]
    bad_out = int(fiber_escapes(eye, anns, cs, table.qd[gis]).any(-1).sum())
    rec.record(bad_out == 0, expected="degenerate fiber maps into the minimal family",
               actual=f"{bad_out} escapes", note="glue freedom, outgoing")


def _check_cor_p0(params) -> CheckResult:
    n = params["N"]
    beta = params["beta"]
    window = _probe_window(params)
    rec = Recorder("cor-p0", {"N": n, "beta": format_vector(beta), "d": window.d})
    spec = ActionSpec.make("H", n, ScalarFiber(), beta)
    engine = probe_engine(spec, window)
    degs = window.degrees()
    one = Subspace.full(1)
    k0 = spec.special_degree()
    # at integral beta the degenerate line splits off; seeds off it regenerate the rest
    family = GradedFamily(spec, window, {k: one for k in degs if k != k0})
    if k0 is not None:
        inv1 = is_invariant(spec, GradedFamily(spec, window, {k0: one}))
        inv2 = is_invariant(spec, family)
        rec.record(inv1.status == PASS, expected=PASS, actual=inv1.status,
                   note="degenerate line is a family")
        rec.record(inv2.status == PASS, expected=PASS, actual=inv2.status,
                   note="complement family is invariant")
    rng = _rng(params, f"p0-{n}")
    seeds = [(k, [1]) for k in [_draw(rng, degs) for _ in range(8)] if k != k0]
    bad = _probe(rec, engine, seeds, "exact", engine.min_target(family),
                 "closure = the predicted family", "mismatch")
    rec.record(bad == 0,
               expected="any seed generates every fiber" if k0 is None
               else "complement seeds regenerate it",
               actual=f"{bad} failed")
    return rec.result()


def _sym2_closure_check(check_id: str, kind: str, params) -> CheckResult:
    n = params["N"]
    beta = params["beta"]
    window = _probe_window(params)
    rec = Recorder(check_id, {"N": n, "kind": kind, "beta": format_vector(beta), "d": window.d})
    spec = ActionSpec.make(kind, n, Sym2(), beta)
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
    bad = _probe(rec, engine, seeds, "exact", engine.full_target(),
                 "closure reaches full fibers", "partial")
    rec.record(bad == 0, expected=f"{len(seeds)} seeds generate everything", actual=f"{bad} failed")
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
    rec = Recorder("homology", {"N": n, "beta": format_vector(beta), "d": window.d})
    for pos in range(0, n + 1):
        rep = compare_with_prediction(DERHAM, n, beta, window, p=pos)
        rec.record(rep.status == PASS, expected=PASS, actual=rep.status, note=f"wedge complex at {pos}")
        rep = compare_with_prediction(TCHAIN, n, beta, window, p=pos)
        rec.record(rep.status == PASS, expected=PASS, actual=rep.status,
                   note=f"contraction complex at {pos}")
    for p in range(1, n // 2 + 1):
        rep = compare_with_prediction(FSQ(p), n, beta, window)
        rec.record(rep.status == PASS, expected=PASS, actual=rep.status, note=f"square-zero at {p}")
        rep = compare_with_prediction(FSQ_FUND(p), n, beta, window)
        rec.record(rep.status == PASS, expected=PASS, actual=rep.status,
                   note=f"restricted square-zero at {p}")
    return rec.result()


def _check_invariant_ops(params) -> CheckResult:
    n = params["N"]
    beta = params["beta"]
    window = _window(params)
    rec = Recorder("invariant-ops", {"N": n, "beta": format_vector(beta), "d": window.d})
    half = n // 2
    spec0 = ActionSpec.make("H", n, Lambda(0), beta)
    # spanning and annihilation of the invariant vectors at sampled degrees
    rng = _rng(params, f"iops-{n}")
    degs = _generic_degrees(spec0, window)
    units = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    for _ in range(4):
        k = _draw(rng, degs)
        kq = spec0.scaled_shift(k)
        span = IntSpan(n)
        ok_pair = True
        for t in t_vectors(spec0, k, permutations(units, 2)):
            # q T pairs to zero against q (k + beta) exactly when T does
            if sympl_form(kq, t) != 0:
                ok_pair = False
            if any(t):
                span.add(t)
        rec.expect(n - 1, span.dim, degree=k, note="invariant vectors span the annihilator")
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
            fam = build_family(kind, p, spec, small_window)
            rep = invariance_report(fam)
            rec.record(rep.status == PASS, expected=PASS, actual=rep.status,
                       note=f"{kind} family preserved, p={p}")
    # the operators commute with the structural maps, fiber by fiber
    for _ in range(3):
        k = _draw(rng, degs)
        kq = spec0.scaled_shift(k)
        r = tuple(rng.randint(-1, 1) for _ in range(n))
        s = tuple(rng.randint(-1, 1) for _ in range(n))
        # the operator is T bar(T)^T, here for q T
        t = next(t_vectors(spec0, k, [(r, s)]))
        ok = True
        for mid in (pi(1), T(2), theta_tilde(2), f(1)):
            src_p, tgt_p = map_degrees(mid, n)
            phi = _map_matrix_scaled(mid, n, kq)
            om_src, sc1 = fiber_space(n, Lambda(src_p)).rank_one_action(t)
            om_tgt, sc2 = fiber_space(n, Lambda(tgt_p)).rank_one_action(t)
            if sc1 != 1 or sc2 != 1:
                raise RuntimeError("exterior-power action of an invariant operator is not integral")
            if mat_sub(mat_mul(phi, om_src), mat_mul(om_tgt, phi)) != zero_matrix(
                ext_dim(n, tgt_p), ext_dim(n, src_p)
            ):
                ok = False
        rec.record(ok, degree=k, expected="operators commute with the maps",
                   actual="commute" if ok else "defect")
    return rec.result()


def _check_classify_w(params) -> CheckResult:
    n = params["N"]
    beta = params["beta"]
    window = _probe_window(params)
    count = params.get("samples", 10)
    rec = Recorder(
        "classify-W",
        {"N": n, "beta": format_vector(beta), "d": window.d,
         "seed": params.get("seed", DEFAULT_SEED)},
    )
    rng = _rng(params, f"clw-{n}")
    probe_ps = sorted({1, n - 1})
    for p in range(1, n):
        spec = ActionSpec.make("W", n, Lambda(p), beta)
        fam = build_family(FamilyKind.FULLW, p, spec, window)
        bad = sum(
            1
            for k in window.degrees()
            if not spec.is_special(k) and fam.fiber(k).dim != comb(n - 1, p - 1)
        )
        rec.record(bad == 0, expected=f"fiber dim {comb(n - 1, p - 1)}", actual=f"{bad} bad",
                   note=f"p={p}")
        rep = invariance_report(GradedFamily(spec, Window(n, 1),
                                             {k: fam.fiber(k) for k in Window(n, 1).degrees()
                                              if fam.fiber(k).dim}))
        rec.record(rep.status == PASS, expected=PASS, actual=rep.status,
                   note=f"rank-one operators preserve the fibers, p={p}")
        if p not in probe_ps:
            continue
        inv = is_invariant(spec, fam)
        rec.record(inv.status == PASS, expected=PASS, actual=inv.status,
                   note=f"Witt family invariant, p={p}")
        engine = probe_engine(spec, window)
        degs = _generic_degrees(spec, window)
        # seeds inside the family regenerate it; seeds outside reach everything
        seeds = []
        for _ in range(count):
            k = _draw(rng, degs)
            sub = fam.fiber(k)
            seeds.append((k, list(sub.rows[rng.randrange(sub.dim)])))
        bad = _probe(rec, engine, seeds, "exact", engine.min_target(fam),
                     "closure = Witt family", "mismatch")
        rec.record(bad == 0, expected="inside seeds regenerate the Witt family",
                   actual=f"{bad} failed", note=f"p={p}")
        bad = _probe(rec, engine, _outside_seeds(rng, degs, fam, count), "exact",
                     engine.full_target(), "closure reaches full fibers", "partial")
        rec.record(bad == 0, expected="outside seeds generate everything",
                   actual=f"{bad} failed", note=f"p={p}")
        if spec.special_degree() is not None:
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
                params = {k: format_vector(v) if k == "beta" else v for k, v in grid_params.items()}
                results.append(CheckResult(check_id, params, ERROR, [
                    Detail(None, "no exception", f"{type(exc).__name__}: {exc}", ERROR)]))
    return results
