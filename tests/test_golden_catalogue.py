"""Golden guard: every check of the benchmark's ``catalogue`` workload must
reproduce the report digest recorded in ``perfbench/reference.json`` (read
only, never written here).

The catalogue (``reference.POINTS``) takes each check id on its default
points with N <= 3, or on its first point when it has none; it is the only
workload that runs the Witt-action ``invariance_report`` (classify-W at N=3).  The digest is sha256
of ``json.dumps(result.to_dict(), sort_keys=True)`` at the benchmark's
reference seed, and the label is the benchmark's operation label.
"""

import hashlib
import json
from pathlib import Path

import pytest

from slmod.theorem_registry import run_check
from reference import POINTS, SEED

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


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
