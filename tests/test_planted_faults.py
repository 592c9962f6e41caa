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
"""

import sys
from fractions import Fraction as F

import numpy as np
import pytest

from slmod import exterior_algebra, graded_modules, sl_maps, theorem_registry
from slmod.reports import PASS
from slmod.theorem_registry import run_check
from test_exterior_algebra import check_unit_tables

ZERO, HALF = (0, 0, 0, 0), (F(1, 2), 0, 0, 0)

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
}

# every cache that can hold an object built from a unit table
CACHES = (exterior_algebra.theta_matrix, exterior_algebra.fundamental_subspace,
          graded_modules.fiber_space, graded_modules.edge_table,
          sl_maps._build_family_cached, theorem_registry.probe_engine)


def _flip_one_sign(real):
    def planted(n, p):
        units = real(n, p)
        if (n, p) == (4, 2):
            units.flat[np.flatnonzero(units)[0]] *= -1
        return units
    return planted


@pytest.fixture
def contraction_sign(monkeypatch):
    """The ``contraction-sign`` fault in every slmod module that bound
    ``unit_contractions``, on emptied caches."""
    real = exterior_algebra.unit_contractions
    planted = _flip_one_sign(real)
    for name, module in list(sys.modules.items()):
        if name.startswith("slmod.") and getattr(module, "unit_contractions", None) is real:
            monkeypatch.setattr(module, "unit_contractions", planted)
    for cache in CACHES:
        cache.cache_clear()
    yield
    monkeypatch.undo()
    for cache in CACHES:
        cache.cache_clear()


def test_a_flipped_contraction_sign_is_caught(contraction_sign):
    with pytest.raises(AssertionError):
        check_unit_tables(4)
    for check_id, params, caught in CATCHES["contraction-sign"]:
        try:
            status = run_check(check_id, **params).status
        except (ValueError, RuntimeError):  # an ERROR in a report
            status = "ERROR"
        assert (status != PASS) == caught, (check_id, status)
