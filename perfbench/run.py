"""slmod benchmark harness.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke              # N=2 grid, prints every metric and unit
    python3 perfbench/run.py --write-reference    # re-record reference.json

The workload runs in fresh child interpreters (child.py), one child at a
time; a child is a single-threaded closed loop over the workload's
operations.  Children run with SLMOD_MAX_WORKERS removed, a fixed
PYTHONHASHSEED and one BLAS/OpenMP thread.  A run times one child that makes
a fixed number of cycles (a cold pass on emptied caches, then a warm pass;
see ``workloads.cycles``), with set-up-only children before and after it for
``setup_s``.  With ``--trace 1`` a traced child and an untraced child make
one cycle each; the traced one gives the per-layer metrics, and its time over
the untraced one's is the tracing overhead.

Times are reported at the reference speed of the host: each child samples
the host's speed while it runs and scales its wall times by it (see
child.SpeedSampler).  The wall times are kept beside them.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it records the host (CPU model, nproc, versions, a
calibration loop at the start and end of the run, the mean speed the child
sampled) and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import calibration_loop  # noqa: E402

REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 20240801
SETUP_PROBES = 15
HOST_CAL_ITERATIONS = 40_000  # about 10 ms at reference speed
# Every child of a run must end this many seconds after the run starts, which
# keeps the whole run under three minutes.
RUN_LIMIT_S = 170
WORKLOADS = ("catalogue", "edges")


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("SLMOD_MAX_WORKERS", "PYTHONPATH", "PYTHONSTARTUP"):
        env.pop(name, None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(workload: str, seed: int, *, trace: int = 0, cycles: int = 1,
              setup_only: bool = False, timeout: float = RUN_LIMIT_S):
    """Start one child and wait for it; its JSON record, or None if it failed."""
    launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--launch", repr(launch), "--trace", str(trace), "--cycles", str(cycles)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        print(f"child timed out: {workload} seed={seed}", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"child failed ({proc.returncode}): {workload} seed={seed}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference(workload: str) -> dict:
    """Operation label -> {digest, shape} at DEFAULT_SEED.  Labels are shared
    by all workloads; only the rendered report ("emit") is per workload."""
    with open(REFERENCE) as handle:
        reference = json.load(handle)
    ops = dict(reference["ops"])
    if workload in reference["emit"]:
        ops["emit"] = reference["emit"][workload]
    return ops


def score(record, n_ops: int, cycles: int, seed: int, reference: dict) -> tuple:
    """(attempted, failed) for one child's record of ``cycles`` cycles.

    An operation fails when it reports FAIL, raises, has a shape other than the
    reference shape, has a digest other than the reference digest (at the
    reference seed), or gives a digest other than in the first cold pass.  A
    child that produced no record fails every operation it should have run.
    """
    if record is None:
        return 2 * n_ops * cycles, 2 * n_ops * cycles
    check_digest = seed == DEFAULT_SEED
    first = record["outcomes"][0][0]
    attempted = failed = 0
    for cycle in record["outcomes"]:
        for passed in cycle:
            for head, out in zip(first, passed):
                ref = reference.get(out["label"])
                attempted += 1
                failed += (
                    out["status"] in ("FAIL", "ERROR")
                    or ref is None
                    or out["shape"] != ref["shape"]
                    or (check_digest and out["digest"] != ref["digest"])
                    or out["digest"] != head["digest"]
                )
    return attempted, failed


def pass_s(record, pass_index: int) -> float:
    """A pass's time at reference speed: each operation at its median over
    the cycles."""
    per_cycle = [times[pass_index] for times in record["op_s"]]
    return sum(statistics.median(samples) for samples in zip(*per_cycle))


def cycle_s(record) -> float:
    """A record's cycle time at reference speed, cold and warm pass."""
    return pass_s(record, 0) + pass_s(record, 1)


def calibrate(reps: int = 5) -> float:
    """Median time of the calibration loop: the host's speed now."""
    return statistics.median(calibration_loop(HOST_CAL_ITERATIONS) for _ in range(reps))


def host_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {"cpu": cpu, "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__}


def measure(workload: str, seed: int, seconds: float, trace: int, reference: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    deadline = time.monotonic() + RUN_LIMIT_S
    n_ops = len(workloads.build(workload, seed))
    cycles = 1 if trace else workloads.cycles(workload, seconds)
    host = host_facts()
    calibration = [calibrate()]

    def setup_probes(count: int) -> list:
        return [run_child(workload, seed, setup_only=True, timeout=deadline - time.monotonic())
                for _ in range(0 if trace else count)]

    # half the set-up probes before the timed child and half after it, so
    # that they sample the host at two times
    probes = setup_probes(SETUP_PROBES // 2)
    traced = None
    if trace:
        traced = run_child(workload, seed, trace=1, timeout=deadline - time.monotonic())
    rec = run_child(workload, seed, cycles=cycles, timeout=deadline - time.monotonic())
    probes = [p for p in probes + setup_probes(SETUP_PROBES - SETUP_PROBES // 2) if p]
    calibration.append(calibrate())
    attempted, failed = score(rec, n_ops, cycles, seed, reference)
    if trace:
        a, f = score(traced, n_ops, 1, seed, reference)
        attempted, failed = attempted + a, failed + f

    metrics = {}
    if rec and not trace and probes:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "wall_s": pass_s(rec, 0),
            "warm_s": pass_s(rec, 1),
            "peak_rss_mb": rec["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
        }
    elif rec and traced:
        metrics = dict(traced["layers"], **{"trace.overhead_ratio": cycle_s(traced) / cycle_s(rec)})
    samples = {"calibration_s": calibration, "speed": rec and rec["speed"],
               "setup_s": [p["setup_s"] for p in probes],
               "setup_raw_s": [p["setup_raw_s"] for p in probes],
               "setup_speed": [p["speed"] for p in probes],
               "op_s": rec and rec["op_s"], "raw_s": rec and rec["raw_s"]}
    return {"host": host, "samples": samples, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def units() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def result_line(out: dict, declared: dict) -> dict:
    metrics = {name: {"value": value, "unit": declared[name]}
               for name, value in out["metrics"].items()}
    correct = out["failed"] == 0 and bool(metrics)
    return {"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
            "metrics": metrics}


def smoke() -> int:
    """Run the N=2 grid untraced and traced; print every declared metric."""
    declared = units()
    reference = load_reference("smoke")
    seen = {}
    ok = True
    for trace in (0, 1):
        out = measure("smoke", DEFAULT_SEED, 0, trace, reference)
        ok &= out["failed"] == 0
        seen.update(out["metrics"])
    for name, unit in declared.items():
        value = seen.get(name)
        print(f"{name:52s} {unit:6s} {'MISSING' if value is None else f'{value:.6g}'}")
    missing = sorted(set(declared) - set(seen))
    extra = sorted(set(seen) - set(declared))
    if missing or extra or not ok:
        print(f"smoke FAILED: missing={missing} undeclared={extra} ops_ok={ok}")
        return 1
    print("smoke ok")
    return 0


def write_reference() -> int:
    """Record every operation's digest and shape at the default seed."""
    ops, emit = {}, {}
    for workload in WORKLOADS + ("smoke",):
        rec = run_child(workload, DEFAULT_SEED)
        if rec is None:
            return 1
        for out in rec["outcomes"][0][0]:
            entry = {"digest": out["digest"], "shape": out["shape"]}
            if out["status"] in ("FAIL", "ERROR"):
                print(f"{workload}: {out['label']} is {out['status']}", file=sys.stderr)
                return 1
            if out["label"] == "emit":
                emit[workload] = entry
            elif ops.setdefault(out["label"], entry) != entry:
                print(f"{workload}: {out['label']} differs between workloads", file=sys.stderr)
                return 1
    with open(REFERENCE, "w") as handle:
        json.dump({"ops": ops, "emit": emit}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "slmod" / "__init__.py").is_file():
        print(f"error: no slmod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    declared = units()
    out = measure(args.workload, args.seed, args.seconds, args.trace, load_reference(args.workload))
    print(json.dumps({"host": out["host"], "samples": out["samples"]}))
    print(json.dumps(result_line(out, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
