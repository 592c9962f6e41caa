"""Golden guard: the four fiber-map sweep checks of the benchmark's ``edges``
workload must reproduce the report digests recorded in
``perfbench/reference.json`` (read only, never written here).

The digest is sha256 of ``json.dumps(result.to_dict(), sort_keys=True)``, as
the benchmark computes it, at the benchmark's reference seed.
"""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from slmod.theorem_registry import run_check

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
SEED = 20240801
HALF = (F(1, 2), 0, 0, 0)
ZERO = (0, 0, 0, 0)

POINTS = [
    ("main-classification N=4 beta=1/2,0,0,0 d=2 p=2",
     "main-classification", dict(N=4, p=2, beta=HALF, d=2)),
    ("module-maps N=4 beta=1/2,0,0,0 d=1", "module-maps", dict(N=4, beta=HALF, d=1)),
    ("invariant-ops N=4 beta=0,0,0,0 d=2", "invariant-ops", dict(N=4, beta=ZERO, d=2)),
    ("uniqueness N=4 beta=1/2,0,0,0 d=2 p=2", "uniqueness", dict(N=4, p=2, beta=HALF, d=2)),
]


@pytest.mark.parametrize("label,check_id,params", POINTS, ids=[p[1] for p in POINTS])
def test_edges_checks_match_the_reference_digest(label, check_id, params):
    expected = json.loads(REFERENCE.read_text())["ops"][label]["digest"]
    result = run_check(check_id, seed=SEED, **params)
    digest = hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True).encode()).hexdigest()
    assert result.status == "PASS"
    assert digest == expected
