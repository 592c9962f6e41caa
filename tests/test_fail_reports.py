"""Golden guard for FAIL reports: every point of the benchmark's ``catalogue``
workload, run under each of three planted faults, must reproduce the report
digest recorded in ``golden_fail_reports.json``.

``golden_check_all.json`` and ``perfbench/reference.json`` pin PASS reports
only; these digests pin the wording, counts and caps of the failure records
as well.  Each fault is planted in an object a check reads, never in the
checking code:

- ``probes``: every closure probe fails (``ProbeEngine.run`` returns False);
- ``is_invariant``: the family invariance test reports FAIL;
- ``sub_reports``: ``invariance_report``, ``verify_module_map`` and
  ``compare_with_prediction`` report FAIL, their records and counts kept.

The digest is sha256 of ``json.dumps(result.to_dict(), sort_keys=True)`` at
the benchmark's reference seed.  A change meant to alter reports records the
golden anew with ``PYTHONPATH=src python tests/test_fail_reports.py``.
"""

import dataclasses
import hashlib
import json
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest

from slmod import theorem_registry
from slmod.reports import FAIL
from slmod.theorem_registry import ProbeEngine, run_check
from reference import POINTS, SEED

GOLDEN = Path(__file__).resolve().parent / "golden_fail_reports.json"


def _failing(real):
    """``real`` with its report's status turned to FAIL."""
    def planted(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), status=FAIL)
    return planted


# fault name -> (object, attribute, replacement) triples
FAULTS = {
    "probes": [(ProbeEngine, "run", lambda self, seeds, mode, target: [False] * len(seeds))],
    "is_invariant": [(theorem_registry, "is_invariant", _failing(theorem_registry.is_invariant))],
    "sub_reports": [(theorem_registry, name, _failing(getattr(theorem_registry, name)))
                    for name in ("invariance_report", "verify_module_map",
                                 "compare_with_prediction")],
}


def digests(fault: str) -> dict:
    """Report digest of every catalogue point with ``fault`` planted."""
    out = {}
    with ExitStack() as stack:
        for owner, attribute, replacement in FAULTS[fault]:
            stack.enter_context(mock.patch.object(owner, attribute, replacement))
        for label, check_id, params in POINTS:
            result = run_check(check_id, seed=SEED, **params)
            out[label] = (result.status, hashlib.sha256(
                json.dumps(result.to_dict(), sort_keys=True).encode()).hexdigest())
    return out


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fail_reports_match_the_golden(fault):
    got = digests(fault)
    want = json.loads(GOLDEN.read_text())["faults"][fault]
    assert any(status == FAIL for status, _ in got.values()), f"{fault} fails no point"
    assert sorted(got) == sorted(want)
    changed = [label for label in got if got[label][1] != want[label]]
    assert changed == []


if __name__ == "__main__":
    recorded = {fault: {label: digest for label, (_, digest) in digests(fault).items()}
                for fault in sorted(FAULTS)}
    GOLDEN.write_text(json.dumps({"seed": SEED, "faults": recorded}, indent=1, sort_keys=True) + "\n")
