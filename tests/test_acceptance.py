"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The full default catalogue is executed once per session and shared; the
determinism criterion executes it a second time and compares the serialized
reports byte for byte (the timestamp lives outside the results).  The same
results are compared with ``golden_check_all.json``, the sha256 of
``json.dumps(result.to_dict(), sort_keys=True)`` for every check-all point,
recorded once from a cold process and only ever read here.
"""

import hashlib
import json
from math import comb
from pathlib import Path

import pytest

from slmod.cli import ReportDocument, emit
from slmod.exact_linalg import rank
from slmod.exterior_algebra import fundamental_dim, theta_matrix
from slmod.graded_modules import ActionSpec, Fund, Window
from slmod.invariant_ops import orthogonal_extend, small_algebra
from slmod.reports import PASS
from slmod.sl_maps import FamilyKind, build_family
from slmod.theorem_registry import CATALOGUE, beta_half, beta_zero, run_all

HALF4 = beta_half(4)
ZERO4 = beta_zero(4)
GOLDEN = Path(__file__).resolve().parent / "golden_check_all.json"


@pytest.fixture(scope="module")
def catalogue_results():
    return run_all()


def _select(results, check_id, **param_filter):
    out = []
    for result in results:
        if result.check_id != check_id:
            continue
        params = result.params
        if all(str(params.get(key)) == str(value) for key, value in param_filter.items()):
            out.append(result)
    return out


def _report(name: str, ok: bool):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {name} failed"


def test_criterion_01_fundamental_dimension_formula():
    ok = True
    for n in (2, 4, 6):
        for p in range(1, n // 2 + 1):
            expected = comb(n, p) - (comb(n, p - 2) if p >= 2 else 0)
            ok &= fundamental_dim(n, p) == expected
    _report("1 (fundamental dimension formula)", ok)


def test_criterion_02_contraction_iso_rank():
    _report("2 (contraction rank above middle degree)", rank(theta_matrix(4, 3)) == comb(4, 1))


def test_criterion_03_module_map_suite(catalogue_results):
    runs = _select(catalogue_results, "module-maps", N=4)
    ok = len(runs) == 2 and all(r.status == PASS and r.counts["fail"] == 0 for r in runs)
    _report("3 (module-map suite)", ok)


def test_criterion_04_inclusion_and_dimension_suite(catalogue_results):
    runs = _select(catalogue_results, "inclusion-chain")
    ns = {str(r.params.get("N")) for r in runs}
    ok = {"4", "6"} <= ns and all(r.status == PASS for r in runs)
    _report("4 (inclusion chain and fiber dims, oracle-checked)", ok)


def test_criterion_05_fiberwise_equalities(catalogue_results):
    runs = _select(catalogue_results, "fiber-equalities")
    ns = {str(r.params.get("N")) for r in runs}
    ok = {"4", "6"} <= ns and all(r.status == PASS for r in runs)
    _report("5 (fiberwise family equalities)", ok)


def test_criterion_06_composition_bookkeeping(catalogue_results):
    runs = _select(catalogue_results, "composition", N=4)
    ok = len(runs) == 4 and all(r.status == PASS for r in runs)
    # solved fundamental-minimal dims at N = 4 and their bookkeeping
    win = Window(4, 2)
    m = {}
    for p in (1, 2):
        spec = ActionSpec.make("H", 4, Fund(p), HALF4)
        fam = build_family(FamilyKind.MIN, p, spec, win)
        m[p] = fam.fiber((0, 0, 0, 0)).dim
    ok &= m[1] == 1 and m[2] == 2
    ok &= 2 * m[1] + m[2] == fundamental_dim(4, 1) == 4
    ok &= m[1] + 2 * m[2] == fundamental_dim(4, 2) == 5
    _report("6 (composition bookkeeping, m1=1 m2=2)", ok)


def test_criterion_07_irreducibility_and_uniqueness_probes(catalogue_results):
    ok = True
    for check_id in ("irreducible-min", "uniqueness", "main-classification"):
        runs = _select(catalogue_results, check_id, N=4)
        ok &= len(runs) == 4 and all(r.status == PASS and r.counts["fail"] == 0 for r in runs)
    _report("7 (irreducibility, uniqueness and classification probes)", ok)


def test_criterion_08_homology_suite(catalogue_results):
    runs = _select(catalogue_results, "homology", N=4)
    ok = len(runs) == 2 and all(r.status == PASS for r in runs)
    _report("8 (homology suite)", ok)


def test_criterion_09_square_identity_suite(catalogue_results):
    runs = _select(catalogue_results, "j-membership", N=4)
    ok = len(runs) == 1 and runs[0].status == PASS
    _report("9 (square-identity characterization)", ok)


def test_criterion_10_symmetric_square_probes(catalogue_results):
    ok = True
    for check_id in ("criterion-sym2", "TW", "TS"):
        runs = _select(catalogue_results, check_id, N=2)
        ok &= len(runs) == 2 and all(r.status == PASS and r.counts["fail"] == 0 for r in runs)
    _report("10 (symmetric-square irreducibility probes)", ok)


def test_criterion_11_witt_classification_suite(catalogue_results):
    ok = True
    for n in (3, 4):
        runs = _select(catalogue_results, "classify-W", N=n)
        ok &= len(runs) == 2 and all(r.status == PASS for r in runs)
        runs = _select(catalogue_results, "unique-W", N=n)
        ok &= len(runs) == 4 and all(r.status == PASS for r in runs)
        alg = small_algebra("W", orthogonal_extend((1,) + (0,) * (n - 1)))
        ok &= alg.span_dim == (n - 1) ** 2
    _report("11 (Witt classification suite)", ok)


def test_criterion_12_determinism(catalogue_results):
    second = run_all()

    def serialize(results):
        doc = ReportDocument("test", {"command": "check-all"}, list(results), "fixed")
        return emit(doc.finalize(), "json")

    first_bytes = serialize(catalogue_results)
    second_bytes = serialize(second)
    ok = first_bytes == second_bytes
    if ok:
        payload = json.loads(first_bytes)
        ok = len(payload["results"]) > 0 and all(
            r["status"] == "PASS" for r in payload["results"]
        )
    _report("12 (byte-identical repeated runs)", ok)


def _label(check_id, grid):
    point = " ".join(
        f"{k}={','.join(map(str, v)) if k == 'beta' else v}" for k, v in sorted(grid.items())
    )
    return f"{check_id} {point}".strip()


def test_criterion_13_every_check_all_point_matches_its_golden_digest(catalogue_results):
    golden = json.loads(GOLDEN.read_text())
    labels = [_label(check_id, grid) for check_id, spec in CATALOGUE.items() for grid in spec.grid]
    assert len(labels) == len(set(labels)) == len(catalogue_results) == len(golden) == 74
    changed = [
        label
        for label, result in zip(labels, catalogue_results)
        if hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True).encode()).hexdigest()
        != golden[label]
    ]
    if changed:
        print("changed digests:", "; ".join(changed))
    _report("13 (every check-all point matches its golden digest)", not changed)
