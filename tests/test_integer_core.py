"""The exact core stays in plain ints.

Family fibers, structural maps and fiber actions are built from integer
matrices; a ``Fraction`` entry anywhere in them means a round trip through
rational arithmetic that the integer elimination then has to undo.
"""

from fractions import Fraction as F

from slmod.exterior_algebra import theta_matrix
from slmod.graded_modules import ActionSpec, Fund, Lambda, ScalarFiber, Sym2, Window, fiber_space
from slmod.sl_maps import FamilyKind, T, _map_matrix_scaled, build_family, f, pi, theta_tilde


def _ints(rows) -> bool:
    return all(type(x) is int for row in rows for x in row)


def test_every_core_matrix_entry_is_an_int():
    for n in (2, 4, 6):
        for p in range(2, n + 1):
            assert _ints(theta_matrix(n, p)), ("theta", n, p)
    n, kq = 4, (3, -1, 0, 2)
    maps = ([pi(p) for p in range(n)] + [T(p) for p in range(1, n + 1)]
            + [theta_tilde(p) for p in range(2, n + 1)] + [f(p) for p in range(n)])
    for map_id in maps:
        assert _ints(_map_matrix_scaled(map_id, n, kq)), map_id
    x, y = (1, -2, 0, 3), (2, 0, -1, 1)
    for fiber in (Lambda(2), Fund(2), Sym2(), ScalarFiber()):
        space = fiber_space(n, fiber)
        # x y^T leaves sp, so Fund fibers take only x bar(x)^T
        forms = [(x,)] if fiber.kind == "fund" else [(x,), (x, y)]
        for args in forms:
            rows, scale = space.rank_one_action(*args)
            assert _ints(rows) and type(scale) is int, (fiber, args)
    for fiber, restrict in ((Lambda(2), False), (Lambda(2), True), (Fund(2), False)):
        spec = ActionSpec.make("H", n, fiber, (F(1, 2), 0, 0, 0))
        for kind in FamilyKind:
            family = build_family(kind, 2, spec, Window(n, 1), restrict_to_fundamental=restrict)
            assert family.fibers and all(_ints(s.rows) for s in family.fibers.values()), (fiber, kind)
