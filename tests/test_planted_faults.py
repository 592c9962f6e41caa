"""Planted faults: a check that examines an object must FAIL, or stop with
an ERROR, when a fault sits in that object; it must never PASS.

A check on a true theorem PASSes whether it is strong or weak, so the
reports alone cannot show that a check would notice a wrong object.  Each
fault here is planted in an object the checks read, never in the checking
code.  The caches that hold objects built from it are emptied before the run
and again after it, and ``CATCHES`` records which check ids catch the fault.

- ``contraction-sign``: one entry of ``unit_contractions(4, 2)``, the
  contraction Lambda^2 -> Lambda^1 at N = 4, changes sign.  theta, the
  Lambda^2 rank-one tables, T(2) and every map built from them inherit it.
  contraction-iso and fundamental-dims miss it: they read ranks of theta,
  and a rank does not see a sign.
- ``wrong-rows``: every built MIN family reads the degrees of its first
  direction of k + beta off another block of the same dimension, so every
  fiber has the right dimension and some have the wrong rows.  The checks
  that read MIN's dimensions alone miss it, and so does uniqueness, whose
  random closures fill the whole fiber.
- ``directions-merge``: ``directions`` numbers the second direction it sees
  like the first, in every module, so the degrees along it get the first
  one's fibers.  Every family and every map takes the same wrong fibers
  there, so the checks that compare them degree by degree see them agree;
  only the checks that send a family along the in-window edges
  (``is_invariant``) catch it.

Each check runs at its first default grid point (the contraction sign at
points of its own).
"""

import sys
from fractions import Fraction as F

import numpy as np
import pytest

from slmod import exterior_algebra, graded_modules, sl_maps, theorem_registry
from slmod.graded_modules import GradedFamily
from slmod.reports import PASS
from slmod.sl_maps import FamilyKind
from slmod.theorem_registry import default_grid, run_check
from reference import _merged_directions, check_unit_tables

ZERO, HALF = (0, 0, 0, 0), (F(1, 2), 0, 0, 0)


def _first(check_id: str, caught: bool) -> tuple:
    return check_id, dict(default_grid(check_id)[0]), caught


# fault -> (check id, params, whether the check catches the fault)
CATCHES = {
    "contraction-sign": [
        ("L3-span", {"N": 4}, True),
        ("j-membership", {"N": 4}, True),
        ("module-maps", {"N": 4, "beta": HALF, "d": 1}, True),
        ("inclusion-chain", {"N": 4, "beta": ZERO, "d": 2}, True),
        ("contraction-iso", {"N": 4}, False),
        ("fundamental-dims", {}, False),
    ],
    "wrong-rows": [
        _first("inclusion-chain", True),
        _first("fiber-equalities", True),
        _first("JH-quotient", True),
        _first("irreducible-min", True),
        _first("main-classification", True),
        _first("invariant-ops", True),
        _first("composition", False),
        _first("uniqueness", False),
        _first("homology", False),
    ],
    "directions-merge": [
        _first("irreducible-min", True),
        _first("main-classification", True),
        _first("classify-W", True),
        _first("inclusion-chain", False),
        _first("fiber-equalities", False),
        _first("JH-quotient", False),
        _first("composition", False),
        _first("uniqueness", False),
        _first("homology", False),
        _first("invariant-ops", False),
        _first("unique-W", False),
    ],
}

# every cache that can hold an object built from a unit table or a family
BUILD = sl_maps._build_family_cached  # the real, cached builder
CACHES = (exterior_algebra.theta_matrix, exterior_algebra.fundamental_subspace,
          graded_modules.fiber_space, graded_modules.edge_table, BUILD, theorem_registry.probe_engine)


def _clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def _flip_one_sign(real):
    def planted(n, p):
        units = real(n, p)
        if (n, p) == (4, 2):
            units.flat[np.flatnonzero(units)[0]] *= -1
        return units
    return planted


def _plant_everywhere(monkeypatch, real, planted):
    """``planted`` in place of ``real`` in every slmod module that bound it."""
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("slmod.") and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, planted)


@pytest.fixture
def contraction_sign(monkeypatch):
    """The ``contraction-sign`` fault in every slmod module that bound
    ``unit_contractions``, on emptied caches."""
    real = exterior_algebra.unit_contractions
    _plant_everywhere(monkeypatch, real, _flip_one_sign(real))
    _clear_caches()
    yield
    monkeypatch.undo()
    _clear_caches()


def _one_direction_repointed(family: GradedFamily) -> GradedFamily:
    """The family with the degrees of its first nonzero direction pointed at
    the block of another direction, of the same dimension and other rows."""
    degs, place, dims = family.window.degrees(), family.place, family.dims
    live = np.flatnonzero(dims)
    for i in live.tolist():
        if dims[i] == dims[live[0]] and family.fiber(degs[i]) != family.fiber(degs[live[0]]):
            moved = np.where(place == place[live[0]], place[i], place)
            return GradedFamily.from_blocks(family.spec, family.window, moved, family.rows)
    return family


@pytest.fixture
def wrong_rows(monkeypatch):
    """The ``wrong-rows`` fault on every MIN family ``build_family`` returns,
    on emptied caches."""
    def planted(kind, p, spec, window, policy):
        family = BUILD(kind, p, spec, window, policy)
        return _one_direction_repointed(family) if kind is FamilyKind.MIN else family

    monkeypatch.setattr(sl_maps, "_build_family_cached", planted)
    _clear_caches()
    yield
    monkeypatch.undo()
    _clear_caches()


@pytest.fixture
def directions_merge(monkeypatch):
    """The ``directions-merge`` fault in every slmod module that bound
    ``directions``, on emptied caches."""
    _plant_everywhere(monkeypatch, graded_modules.directions, _merged_directions)
    _clear_caches()
    yield
    monkeypatch.undo()
    _clear_caches()


def _assert_catches(fault: str):
    """Each check of the fault's ``CATCHES`` rows FAILs or stops with an
    ERROR (a ``ValueError`` or ``RuntimeError`` of the check) exactly where
    the row says it catches the fault; at least one does."""
    assert any(caught for _, _, caught in CATCHES[fault])
    for check_id, params, caught in CATCHES[fault]:
        try:
            status = run_check(check_id, **params).status
        except (ValueError, RuntimeError):  # an ERROR in a report
            status = "ERROR"
        assert (status != PASS) == caught, (fault, check_id, status)


def test_a_flipped_contraction_sign_is_caught(contraction_sign):
    with pytest.raises(AssertionError):
        check_unit_tables(4)
    _assert_catches("contraction-sign")


def test_min_rows_of_the_right_dimension_from_the_wrong_direction_are_caught(wrong_rows):
    spec = graded_modules.ActionSpec.make("H", 4, graded_modules.Fund(2), ZERO)
    window = graded_modules.Window(4, 2)
    planted = sl_maps.build_family(FamilyKind.MIN, 2, spec, window)
    real = BUILD(FamilyKind.MIN, 2, spec, window, sl_maps.SpecialFiberPolicy.OMIT)
    assert (planted.dims == real.dims).all() and planted != real
    _assert_catches("wrong-rows")


def test_two_merged_directions_are_caught(directions_merge):
    _assert_catches("directions-merge")
