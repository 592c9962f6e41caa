import copy
import random
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest

import slmod.sl_maps as sl_maps
from slmod.cli import main
from slmod.exact_linalg import Subspace, image, intersect, kernel, mat_vec
from slmod.exterior_algebra import fundamental_subspace
from slmod.graded_modules import ActionSpec, Fund, Lambda, ScalarFiber, Sym2, Window, fiber_space
from slmod.sl_maps import (
    FamilyKind,
    SpecialFiberPolicy,
    T,
    build_family,
    f,
    map_degrees,
    map_stack,
    pi,
    quotient_dims,
    symplectic_extend,
    theta_tilde,
    verify_module_map,
)
from slmod.torus_lie import bar, rank_one_sym
from reference import action_matrix_int, interior_matrix, mat_mul, monomial_theta_matrix, wedge_matrix

HALF = (F(1, 2), 0, 0, 0)
ZERO = (0, 0, 0, 0)


def test_symplectic_extend_examples():
    fr = symplectic_extend((1, 0, 0, 0))
    assert fr.vectors() == (
        (F(1), F(0), F(0), F(0)),
        (F(0), F(0), F(-1), F(0)),
        (F(0), F(1), F(0), F(0)),
        (F(0), F(0), F(0), F(-1)),
    )
    fr3 = symplectic_extend((0, 0, 1, 0))
    assert fr3.vectors()[1] == (F(1), F(0), F(0), F(0))
    with pytest.raises(ValueError):
        symplectic_extend((0, 0, 0, 0))


def test_symplectic_extend_validates_for_denser_vectors():
    for v in [(1, 2, 3, 4), (F(1, 2), 0, 0, 0), (0, -1, 1, F(2, 3)), (1, 1, 1, 1)]:
        symplectic_extend(v).validate()


def _one(map_id, n, kq) -> tuple:
    """The map at one scaled shift, as a tuple of row tuples."""
    return tuple(map(tuple, map_stack(map_id, n, np.array([kq], dtype=object))[0].tolist()))


def test_map_matrix_examples():
    kq = (1, 0, 0, 0)  # q(k + beta) at k = e1, beta = 0
    assert _one(pi(0), 4, kq) == ((1,), (0,), (0,), (0,))
    assert _one(T(1), 4, kq) == ((0, 0, 1, 0),)
    mf = _one(f(1), 4, kq)
    assert mat_vec(mf, (0, 0, 1, 0)) == (-1, 0, 0, 0)


def test_square_map_factors_through_wedge_and_contraction():
    # k = (1, -1, 0, 2), beta = 1/2 e1: q = 2; f is quadratic in k + beta,
    # pi and T linear, so the q-scaled matrices factor exactly
    kq = (3, -2, 0, 4)
    for p in range(0, 4):
        assert _one(f(p), 4, kq) == mat_mul(_one(T(p + 1), 4, kq), _one(pi(p), 4, kq))


def reference_map(map_id, n, kq) -> tuple:
    """The map at one shift from the exterior-algebra builders, one matrix at
    a time, with f from the dense ``action_matrix_int``."""
    p = map_id.p
    if map_id.name == "pi":
        return wedge_matrix(n, p, kq)
    if map_id.name == "T":
        return interior_matrix(n, p, bar(kq))
    if map_id.name == "theta":
        return monomial_theta_matrix(n, p)
    return action_matrix_int(fiber_space(n, Lambda(p)), rank_one_sym(kq))


def _every_map(n) -> list:
    return ([pi(p) for p in range(n)] + [T(p) for p in range(1, n + 1)]
            + [theta_tilde(p) for p in range(2, n + 1)] + [f(p) for p in range(n)])


@pytest.mark.parametrize("n", [2, 4, 6])
def test_map_stack_is_the_reference_at_every_shift(n):
    """Every map at every valid p, at random shifts with a zero row among
    them, and on entries near 2^40, where f's entries pass int64 and the
    product runs on Python ints."""
    rng = random.Random(f"map-stack-{n}")
    small = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(4)] + [(0,) * n]
    huge = [tuple(rng.randint(-(2**40), 2**40) for _ in range(n)) for _ in range(3)]
    for map_id in _every_map(n):
        for kqs in (small, huge):
            stack = map_stack(map_id, n, np.array(kqs, dtype=object))
            assert stack.shape[0] == len(kqs)
            for kq, mat in zip(kqs, stack.tolist()):
                assert tuple(map(tuple, mat)) == reference_map(map_id, n, kq), (map_id, kq)
    assert map_stack(f(1), n, np.array(huge, dtype=object)).dtype == object


@pytest.mark.parametrize("n", [2, 4])
def test_map_stack_of_no_shift_is_empty(n):
    for map_id in _every_map(n):
        src, tgt = map_degrees(map_id, n)
        for dtype in (np.int64, object):
            stack = map_stack(map_id, n, np.zeros((0, n), dtype=dtype))
            assert stack.shape == (0, comb(n, tgt), comb(n, src)), map_id


def test_map_degree_validation():
    with pytest.raises(ValueError):
        map_degrees(pi(4), 4)
    with pytest.raises(ValueError):
        map_degrees(theta_tilde(1), 4)


@pytest.mark.parametrize("beta", [ZERO, HALF])
def test_verify_module_map_passes(beta):
    win = Window(4, 1)
    spec = ActionSpec.make("H", 4, Lambda(2), beta)
    assert verify_module_map(T(2), spec, win).status == "PASS"
    assert verify_module_map(pi(1), spec.with_fiber(Lambda(1)), win).status == "PASS"


def _half_flipped(name, p=None):
    """``map_stack`` with the sign of the named map flipped at the shifts
    with a positive first entry."""
    original = sl_maps.map_stack

    def flipped(map_id, n, kqs):
        stack = original(map_id, n, kqs)
        if map_id.name == name and p in (None, map_id.p):
            stack = np.where((kqs[:, 0] > 0)[:, None, None], -stack, stack)
        return stack

    return flipped


def test_verify_module_map_detects_sign_flip(monkeypatch):
    # a global sign flip still intertwines; flipping the sign on half of the
    # degrees breaks the squares between flipped and unflipped fibers
    win = Window(4, 1)
    spec = ActionSpec.make("H", 4, Lambda(2), HALF)
    monkeypatch.setattr(sl_maps, "map_stack", _half_flipped("T", 2))
    assert verify_module_map(T(2), spec, win).status == "FAIL"


# beta = (1/q, 0): at q = 10^9 + 7 the identity's products pass int64 but
# f's entries, about q^2, fit in it; at q = 10^10 + 19 they do not either
@pytest.mark.parametrize("q", [1000000007, 10000000019])
def test_module_maps_past_the_int64_bound_run_on_python_ints(q, monkeypatch, capsys):
    win = Window(2, 1)
    spec = ActionSpec.make("H", 2, Lambda(1), (F(1, q), 0))
    assert verify_module_map(f(1), spec, win).status == "PASS"
    assert main(["check", "--id", "module-maps", "--N", "2", "--beta", f"1/{q},0",
                 "--window", "1"]) == 0
    assert "[PASS] module-maps" in capsys.readouterr().out
    # the Python-int path finds a defect as the int64 path does
    monkeypatch.setattr(sl_maps, "map_stack", _half_flipped("f"))
    assert verify_module_map(f(1), spec, win).status == "FAIL"


def test_non_integral_derivation_is_an_internal_error(monkeypatch):
    # exterior-power derivations are integral; another scale is a broken
    # invariant: RuntimeError (not a usage error), and kept under python -O
    original = sl_maps.edge_table

    def doubled(spec, window, gens):
        table = copy.copy(original(spec, window, gens))
        table.scale = 2 * table.scale
        return table

    monkeypatch.setattr(sl_maps, "edge_table", doubled)
    spec = ActionSpec.make("H", 4, Lambda(2), HALF)
    with pytest.raises(RuntimeError):
        verify_module_map(T(2), spec, Window(4, 1))
    assert main(["check", "--id", "module-maps", "--N", "2"]) == 3


def test_build_family_examples():
    spec = ActionSpec.make("H", 4, Lambda(2), ZERO)
    win = Window(4, 2)
    k = (1, 0, 0, 0)
    fam_min = build_family(FamilyKind.MIN, 2, spec, win)
    assert fam_min.fiber(k) == Subspace(6, [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
    assert build_family(FamilyKind.MAX, 2, spec, win).fiber(k).dim == 4
    assert build_family(FamilyKind.MAX, 2, spec.with_fiber(Fund(2)), win).fiber(k).dim == 3
    assert build_family(FamilyKind.INT, 2, spec, win).fiber(k).dim == 3


def test_special_fiber_policies():
    spec = ActionSpec.make("H", 4, Lambda(2), ZERO)
    win = Window(4, 1)
    k0 = (0, 0, 0, 0)
    omit = build_family(FamilyKind.MIN, 2, spec, win, policy=SpecialFiberPolicy.OMIT)
    full = build_family(FamilyKind.MIN, 2, spec, win, policy=SpecialFiberPolicy.FULL)
    assert omit.fiber(k0).dim == 0
    assert full.fiber(k0) == Subspace.full(6)
    # under the fundamental restriction the hat fiber is the restricted space
    fullf = build_family(
        FamilyKind.MIN, 2, spec.with_fiber(Fund(2)), win, policy=SpecialFiberPolicy.FULL
    )
    assert fullf.fiber(k0).dim == 5
    # maximal with OMIT drops the degenerate fiber entirely
    max_omit = build_family(FamilyKind.MAX, 2, spec, win, policy=SpecialFiberPolicy.OMIT)
    assert max_omit.fiber(k0).dim == 0


@pytest.mark.parametrize("n", [4, 6])
def test_generic_fiber_dimension_formulas(n):
    beta = (F(1, 2),) + (F(0),) * (n - 1)
    win = Window(n, 1)
    for p in range(1, n):
        spec = ActionSpec.make("H", n, Lambda(p), beta)
        expected = {
            FamilyKind.MIN: comb(n - 2, p - 1),
            FamilyKind.FULLW: comb(n - 1, p - 1),
            FamilyKind.INT: comb(n - 2, p - 1) + comb(n - 2, p),
            FamilyKind.MAX: comb(n, p) - comb(n - 2, p - 1),
        }
        for kind, dim in expected.items():
            fam = build_family(kind, p, spec, win)
            assert fam.fiber((0,) * n).dim == dim, (n, p, kind)


def test_quotient_dims_examples():
    spec = ActionSpec.make("H", 4, Lambda(2), ZERO)
    win = Window(4, 1)
    k = (1, 0, 0, 0)
    full = sl_maps.GradedFamily(spec, win, {kk: Subspace.full(6) for kk in win.degrees()})
    mx = build_family(FamilyKind.MAX, 2, spec, win, policy=SpecialFiberPolicy.FULL)
    assert quotient_dims(full, mx)[k] == 2
    fund = spec.with_fiber(Fund(2))
    mxf = build_family(FamilyKind.MAX, 2, fund, win, policy=SpecialFiberPolicy.FULL)
    intf = build_family(FamilyKind.INT, 2, fund, win, policy=SpecialFiberPolicy.FULL)
    assert quotient_dims(mxf, intf)[k] == 1
    it = build_family(FamilyKind.INT, 2, spec, win, policy=SpecialFiberPolicy.FULL)
    mn = build_family(FamilyKind.MIN, 2, spec, win, policy=SpecialFiberPolicy.FULL)
    assert quotient_dims(it, mn)[k] == 1


def test_quotient_dims_containment_error():
    spec = ActionSpec.make("H", 4, Lambda(2), HALF)
    win = Window(4, 1)
    mn = build_family(FamilyKind.MIN, 2, spec, win)
    mx = build_family(FamilyKind.MAX, 2, spec, win)
    with pytest.raises(RuntimeError, match="containment violated"):
        quotient_dims(mn, mx)


def test_int_family_invalid_at_top_degree():
    spec = ActionSpec.make("H", 4, Lambda(4), HALF)
    win = Window(4, 1)
    with pytest.raises(ValueError):
        build_family(FamilyKind.INT, 4, spec, win)


def test_families_need_a_lambda_or_fund_fiber_of_their_degree():
    win = Window(4, 1)
    for fiber in (Fund(1), Sym2(), ScalarFiber()):
        with pytest.raises(ValueError, match="lives on Lambda"):
            build_family(FamilyKind.MIN, 2, ActionSpec.make("H", 4, fiber, HALF), win)


THIRDS = (F(1, 3), F(2, 5))


# N=6 d=1 runs at the least special beta alone: all three take about 45 s
@pytest.mark.parametrize("n,d,beta", [(4, 1, "zero"), (4, 1, "half"), (4, 1, "thirds"),
                                      (4, 2, "zero"), (4, 2, "half"), (4, 2, "thirds"),
                                      (6, 1, "thirds")])
def test_fund_families_are_the_restricted_lambda_families(n, d, beta):
    """Every Fund(p) family, MIN and MAX from the restricted action and FULLW
    and INT through the theta cut, is its Lambda(p) family intersected with
    the contraction kernel and read off the kernel basis' pivot entries."""
    beta = {"zero": (0,) * n, "half": (F(1, 2),) + (0,) * (n - 1),
            "thirds": THIRDS + (0,) * (n - 2)}[beta]
    win = Window(n, d)
    for p in range(1, n // 2 + 1):
        fund = fundamental_subspace(n, p)
        lam = ActionSpec.make("H", n, Lambda(p), beta)
        reads: dict = {}  # Lambda fiber -> its restricted Fund(p) coordinates

        def restricted(sub):
            if sub not in reads:
                cut = intersect(sub, fund)
                reads[sub] = Subspace(fund.dim, [[row[pc] for pc in fund.pivots] for row in cut.rows])
            return reads[sub]

        for kind in FamilyKind:
            # the policies differ at k + beta = 0 alone, inside the window only at beta = 0
            for policy in SpecialFiberPolicy if not any(beta) else [SpecialFiberPolicy.OMIT]:
                big = build_family(kind, p, lam, win, policy=policy)
                small = build_family(kind, p, lam.with_fiber(Fund(p)), win, policy=policy)
                for k in win.degrees():
                    assert small.fiber(k) == restricted(big.fiber(k)), (p, kind, policy, k)


def reference_fiber(kind, p, space, kq) -> Subspace:
    """One family fiber from its own matrix at one shift q(k + beta), with the
    scalar elimination; a Fund(p) fiber is the Lambda^p fiber intersected with
    the contraction kernel, read off the kernel basis' pivot columns.  The
    per-direction reference for the stacked ``build_family``."""
    n = space.n
    if kind is FamilyKind.MIN:
        return image(action_matrix_int(space, rank_one_sym(kq)))
    if kind is FamilyKind.MAX:
        return kernel(action_matrix_int(space, rank_one_sym(kq)))
    if kind is FamilyKind.FULLW:
        fiber = image(wedge_matrix(n, p - 1, kq))
    else:
        fiber = image(interior_matrix(n, p + 1, bar(kq)))
    if space.fiber.kind != "fund":
        return fiber
    fund = space._fund
    cut = intersect(fiber, fund)
    return Subspace(fund.dim, [[row[pc] for pc in fund.pivots] for row in cut.rows])


def _assert_families_are_the_reference(n, d, beta, policies):
    win = Window(n, d)
    for p in range(1, n // 2 + 1):
        for fiber in (Lambda(p), Fund(p)):
            spec = ActionSpec.make("H", n, fiber, beta)
            space = spec.space()
            for kind in FamilyKind:
                built = {policy: build_family(kind, p, spec, win, policy=policy) for policy in policies}
                for k in win.degrees():
                    kq = spec.scaled_shift(k)
                    if not any(kq):
                        continue
                    own = reference_fiber(kind, p, space, kq)
                    for policy, family in built.items():
                        assert family.fiber(k) == own, (p, fiber, kind, policy, k)


@pytest.mark.parametrize("beta", ["zero", "half", "thirds"])
def test_fibers_shared_by_direction_are_the_fibers_of_the_unnormalised_shift(beta):
    """A family fiber depends on K = q(k + beta) only up to a nonzero scalar,
    so ``build_family`` builds one per primitive direction; at every degree
    that fiber is the one built from the unnormalised shift itself."""
    beta = {"zero": ZERO, "half": HALF, "thirds": THIRDS + (0, 0)}[beta]
    _assert_families_are_the_reference(4, 2, beta, list(SpecialFiberPolicy))


def test_families_past_int64_are_the_reference():
    """At beta_1 = 1/(10^10 + 19) the shifts are near 10^10, so K bar(K)^T
    leaves int64 and the stacked build runs on Python ints; every kind, on
    Lambda(p) and Fund(p), still equals the per-shift reference."""
    beta = (F(1, 10**10 + 19), 0, 0, 0)
    _assert_families_are_the_reference(4, 1, beta, [SpecialFiberPolicy.OMIT])
    spec = ActionSpec.make("H", 4, Fund(2), beta)
    assert max(abs(x) for x in spec.scaled_shift((1, 1, 1, 1))) ** 2 >= 2**63


def test_directions_past_int64_are_found_on_python_ints(monkeypatch):
    """At beta_1 = 1/(2^62 + 1) the scaled shifts themselves pass int64, so
    the direction pass runs on Python ints, where ``np.unique`` sorts no
    rows; every kind, on Lambda(p) and Fund(p), still equals the reference."""
    stacked = []
    build_stack = sl_maps._family_fibers

    def recorded(kind, p, space, directions):
        stacked.append(directions.dtype)
        return build_stack(kind, p, space, directions)

    monkeypatch.setattr(sl_maps, "_family_fibers", recorded)
    sl_maps._build_family_cached.cache_clear()
    beta = (F(1, 2**62 + 1), 0, 0, 0)
    _assert_families_are_the_reference(4, 1, beta, [SpecialFiberPolicy.OMIT])
    assert stacked and set(stacked) == {np.dtype(object)}
    sl_maps._build_family_cached.cache_clear()


def test_families_built_in_several_stacks_are_the_same(monkeypatch):
    """Directions are eliminated ``STACK_ITEMS`` at a time; a bound below the
    direction count splits every stage and changes no fiber."""
    for kind in FamilyKind:
        spec = ActionSpec.make("H", 4, Fund(2), HALF)
        whole = build_family(kind, 2, spec, Window(4, 2))
        sl_maps._build_family_cached.cache_clear()
        monkeypatch.setattr(sl_maps, "STACK_ITEMS", 50)
        assert build_family(kind, 2, spec, Window(4, 2)) == whole
        monkeypatch.undo()
        sl_maps._build_family_cached.cache_clear()


@pytest.mark.parametrize("beta,directions", [(ZERO, 272), (HALF, 373)])
def test_build_family_eliminates_once_per_direction(beta, directions, monkeypatch):
    calls = []
    build_stack = sl_maps._family_fibers

    def counted(kind, p, space, stacked):
        calls.extend(map(tuple, stacked.tolist()))
        return build_stack(kind, p, space, stacked)

    monkeypatch.setattr(sl_maps, "_family_fibers", counted)
    sl_maps._build_family_cached.cache_clear()
    spec = ActionSpec.make("H", 4, Fund(2), beta)
    family = build_family(FamilyKind.MIN, 2, spec, Window(4, 2))
    assert len(calls) == len(set(calls)) == directions
    # q(k + beta) is (1, 0, 0, 0) and (-1, 0, 0, 0) at beta = 0, (3, 0, 0, 0)
    # and (-1, 0, 0, 0) at beta = e_1 / 2: one direction, one block
    window = family.window
    assert family.place[window.index((1, 0, 0, 0))] == family.place[window.index((-1, 0, 0, 0))]
    assert len(family.rows) == directions + (beta == ZERO)  # the zero fiber at k0, last


def test_build_family_creates_no_subspace(monkeypatch):
    """N=4 d=2 builds of all four kinds under both policies, on Lambda(2)
    and Fund(2), at integral beta (where the hat block enters) and at
    beta = e_1 / 2, construct no ``Subspace``: neither the checking
    constructor nor the trusted wrap of ``subspaces`` runs.  Afterwards
    ``fiber(k)`` at every degree is the checking constructor's ``Subspace``
    of its block's rows."""
    window = Window(4, 2)
    specs = [ActionSpec.make("H", 4, fiber, beta) for fiber in (Lambda(2), Fund(2)) for beta in (ZERO, HALF)]
    for spec in specs:
        spec.space()  # the fiber spaces, Fund(2)'s kernel among them, exist before the count
    made = []
    init, trusted = Subspace.__init__, Subspace._trusted.__func__
    monkeypatch.setattr(Subspace, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    monkeypatch.setattr(Subspace, "_trusted",
                        classmethod(lambda cls, *args: made.append(args) or trusted(cls, *args)))
    sl_maps._build_family_cached.cache_clear()
    families = [build_family(kind, 2, spec, window, policy)
                for spec in specs for kind in FamilyKind for policy in SpecialFiberPolicy]
    assert made == []
    monkeypatch.undo()
    sl_maps._build_family_cached.cache_clear()
    for family in families:
        dim = family.spec.space().dim
        for i, k in enumerate(window.degrees()):
            b = family.place[i]
            checked = Subspace(dim, [row for row in family.rows[b].tolist() if any(row)] if b >= 0 else [])
            fiber = family.fiber(k)
            assert fiber.rows == checked.rows and fiber.pivots == checked.pivots
            assert fiber.dim == family.dims[i]
