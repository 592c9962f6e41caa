"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench          # about two minutes: one test runs check-all
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _fake_child(outcomes_for):
    """A stand-in for run.run_child that returns a record built from the
    workload's real operation labels and the reference digests."""
    reference = run.load_reference("smoke")

    def fake(workload, seed, *, trace=0, cycles=1, setup_only=False, timeout=0):
        ops = workloads.build(workload, seed)
        times = [[[0.1] * len(ops)] * 2] * cycles
        record = {"setup_s": 0.1, "setup_raw_s": 0.1, "speed": 1.0, "op_s": times,
                  "raw_s": times, "peak_rss_mb": 40.0, "layers": {}}
        record["outcomes"] = [
            [[outcomes_for(op.label, reference[op.label], p) for op in ops] for p in (0, 1)]
        ] * cycles
        return record

    return fake


CYCLES = 3


def _measure(monkeypatch, outcomes_for) -> dict:
    monkeypatch.setattr(run, "run_child", _fake_child(outcomes_for))
    seconds = CYCLES * workloads.CYCLE_S["smoke"]
    return run.measure("smoke", run.DEFAULT_SEED, seconds, 0, run.load_reference("smoke"))


def test_reference_outcomes_score_clean(monkeypatch):
    out = _measure(monkeypatch, lambda label, ref, p: {"label": label, "status": "PASS", **ref})
    assert out["failed"] == 0
    assert out["attempted"] == 2 * CYCLES * len(workloads.build("smoke", run.DEFAULT_SEED))
    assert out["metrics"]["ok_ratio"] == 1.0
    assert out["metrics"]["wall_s"] == pytest.approx(0.1 * len(out["samples"]["op_s"][0][0]))


@pytest.mark.parametrize("fault", ["FAIL", "ERROR", "digest", "shape", "warm-digest"])
def test_injected_fault_lowers_ok_ratio(monkeypatch, fault):
    victim = workloads.build("smoke", run.DEFAULT_SEED)[3].label

    def outcomes_for(label, ref, p):
        out = {"label": label, "status": "PASS", **ref}
        if label == victim and (fault != "warm-digest" or p == 1):
            if fault in ("FAIL", "ERROR"):
                out["status"] = fault
            elif fault == "shape":
                out["shape"] = "0" * 64
            else:
                out["digest"] = "0" * 64
        return out

    out = _measure(monkeypatch, outcomes_for)
    assert out["failed"] == (1 if fault == "warm-digest" else 2) * CYCLES
    assert out["metrics"]["ok_ratio"] < 1.0
    assert not run.result_line(out, run.units())["correct"]


def test_missing_child_record_fails_every_op():
    n_ops = len(workloads.build("smoke", 1))
    assert run.score(None, n_ops, 3, 1, run.load_reference("smoke")) == (6 * n_ops, 6 * n_ops)


def test_sampler_scales_to_reference_speed():
    """A span on a host at half speed reads half its wall time, less the
    samples taken in it; a span with no samples takes its neighbours' speed."""
    sampler = child.SpeedSampler()
    sampler.at = [0.1, 0.5, 2.0]
    sampler.took = [2 * child.REF_SAMPLE_S] * 3
    busy = 2 * 2 * child.REF_SAMPLE_S
    assert sampler.span(0.0, 1.0) == pytest.approx((1.0 - busy) / 2)
    assert sampler.span(1.0, 1.2) == pytest.approx(0.1)


def test_sampler_samples_while_python_runs():
    sampler = child.SpeedSampler()
    sampler.start(0.005)
    start = time.perf_counter()
    while time.perf_counter() - start < 0.2:
        child.calibration_loop(100)
    sampler.stop()
    assert len(sampler.took) >= 10 and 0 < sampler.mean_speed() < 10


def test_cycles_depend_on_run_length_only():
    assert workloads.cycles("edges", 0) == 1
    assert [workloads.cycles(w, 45) for w in run.WORKLOADS] == [
        int(45 / workloads.CYCLE_S[w]) for w in run.WORKLOADS]


def test_smoke_prints_every_declared_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name, unit in run.units().items():
        line = next(ln for ln in proc.stdout.splitlines() if ln.split()[:1] == [name])
        assert line.split()[1] == unit and "MISSING" not in line


def test_catalogue_reference_equals_check_all():
    """At the default seed the catalogue's check results are those of
    ``slmod check-all --format json``."""
    from slmod.theorem_registry import CATALOGUE

    env = {k: v for k, v in os.environ.items() if k != "SLMOD_MAX_WORKERS"}
    env["PYTHONPATH"] = str(HERE.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "slmod.cli", "check-all", "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=900)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    points = [(cid, g) for cid, spec in CATALOGUE.items() for g in spec.grid]
    assert len(points) == len(results)
    by_label = {
        workloads.check_op(cid, run.DEFAULT_SEED, **g).label:
            hashlib.sha256(json.dumps(r, sort_keys=True).encode()).hexdigest()
        for (cid, g), r in zip(points, results)
    }
    reference = run.load_reference("catalogue")
    labels = [op.label for op in workloads.build("catalogue", run.DEFAULT_SEED) if op.kind == "check"]
    assert labels and all(reference[lb]["digest"] == by_label[lb] for lb in labels)
