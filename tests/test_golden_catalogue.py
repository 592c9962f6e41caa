"""Golden guard: every check of the benchmark's ``catalogue`` workload must
reproduce the report digest recorded in ``perfbench/reference.json`` (read
only, never written here).

The catalogue takes each check id on its default points with N <= 3, or on
its first point when it has none; it is the only workload that runs the
Witt-action ``invariance_report`` (classify-W at N=3).  The digest is sha256
of ``json.dumps(result.to_dict(), sort_keys=True)`` at the benchmark's
reference seed, and the label is the benchmark's operation label.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from slmod.theorem_registry import CATALOGUE, run_check

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
SEED = 20240801


def _label(check_id, grid):
    point = " ".join(
        f"{k}={','.join(map(str, v)) if k == 'beta' else v}" for k, v in sorted(grid.items())
    )
    return f"{check_id} {point}".strip()


def _points():
    out = []
    for check_id, spec in CATALOGUE.items():
        small = [g for g in spec.grid if g.get("N") is not None and g["N"] <= 3]
        for grid in small or spec.grid[:1]:
            grid = dict(grid)
            if "beta" in grid:
                grid["beta"] = tuple(Fraction(b) for b in grid["beta"])
            out.append((_label(check_id, grid), check_id, grid))
    return out


POINTS = _points()


def test_catalogue_points_are_the_recorded_ones():
    ops = json.loads(REFERENCE.read_text())["ops"]
    labels = [label for label, _, _ in POINTS]
    assert len(labels) == len(set(labels)) == 36
    assert set(labels) <= set(ops)


@pytest.mark.parametrize("label,check_id,params", POINTS, ids=[p[0] for p in POINTS])
def test_catalogue_checks_match_the_reference_digest(label, check_id, params):
    expected = json.loads(REFERENCE.read_text())["ops"][label]["digest"]
    result = run_check(check_id, seed=SEED, **params)
    digest = hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True).encode()).hexdigest()
    assert result.status == "PASS"
    assert digest == expected
