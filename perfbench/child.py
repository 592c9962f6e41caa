"""One benchmark child: import slmod, run a workload's passes, report as JSON.

The harness (run.py) starts this script in a fresh interpreter.  It runs
``--cycles`` cycles of a cold pass (every slmod lru_cache emptied first) and a
warm pass, and prints one JSON object on stdout:

  setup_s      launch (the harness's CLOCK_MONOTONIC stamp) to the first timed
               call, at reference speed (see SpeedSampler)
  op_s         per cycle, per pass, each operation's time at reference speed
  raw_s        the same as wall times, unscaled
  speed        mean host speed over the run, as a share of the reference speed
  peak_rss_mb  peak resident memory after the first cycle
  outcomes     per cycle, pass and operation: status, result digest, and a shape
               that every seed shares
  layers       per-layer metrics of the first cycle (traced children only)

Nothing is checked here; run.py scores the outcomes against reference.json.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_ITERATIONS = 1_000
# SAMPLE_ITERATIONS of calibration_loop on the reference host at full speed
# (an x86-64 vCPU of a shared cloud VM, Python 3.11)
REF_SAMPLE_S = 0.0002
SETUP_PERIOD_S = 0.005  # sampling period while the child sets up
PASS_PERIOD_S = 0.025  # and while it runs the passes: about 1 % of the time


def calibration_loop(iterations: int) -> float:
    """Seconds taken by a fixed pure-Python big-int loop: the host's speed now.

    It shares no code with slmod, so a change to slmod does not move it."""
    start = time.perf_counter()
    x = 1
    for i in range(iterations):
        x = (x * 3 + i) % (1 << 521)
    return time.perf_counter() - start


class SpeedSampler:
    """The host's speed through the run, to scale wall times to reference speed.

    Other tenants of a shared host slow a vCPU by up to 2x, in spells of a
    fraction of a second to minutes, with no steal time to show for it; each
    vCPU on its own.  So the speed is sampled in this process, while slmod
    runs: a SIGALRM handler times calibration_loop every ``period`` seconds
    of wall time.  A change to slmod moves the spans and not the samples; a
    slower host moves both.
    """

    def __init__(self):
        self.at: list = []
        self.took: list = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.took.append(calibration_loop(SAMPLE_ITERATIONS))
        self.at.append(start)

    def start(self, period: float):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, seconds: float, lo: int, hi: int) -> float:
        """``seconds`` of wall time in which samples ``lo:hi`` were taken, at
        reference speed: less the samples' own time, times their mean speed
        (that of the samples on either side when there are none)."""
        took = self.took[lo:hi]
        busy = sum(took)
        if not took:
            took = self.took[max(0, lo - 1):lo + 1]
        return (seconds - busy) * statistics.fmean(REF_SAMPLE_S / t for t in took)

    def span(self, start: float, end: float) -> float:
        """A perf_counter span [start, end) at reference speed."""
        return self.scaled(end - start, bisect.bisect_left(self.at, start),
                           bisect.bisect_left(self.at, end))

    def mean_speed(self) -> float:
        return statistics.fmean(REF_SAMPLE_S / t for t in self.took)


def _sha(obj) -> str:
    data = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _import_slmod():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import slmod
    import slmod.cli  # noqa: F401  (the emit op and the tracer need every module loaded)

    if Path(slmod.__file__).resolve().parent != src / "slmod":
        raise ImportError(f"slmod imported from {slmod.__file__}, not from {src}")


def _closure_spec(params):
    from slmod.graded_modules import ActionSpec, Fund, Window

    spec = ActionSpec.make("H", params["N"], Fund(params["p"]), params["beta"])
    return spec, Window(params["N"], params["d"])


def _execute(op, pass_checks: list):
    """Make the op's slmod call.  Entry points are looked up at call time so
    that the tracer's wrappers are the ones called."""
    from slmod import __version__, cli, graded_modules, theorem_registry

    if op.kind == "check":
        result = theorem_registry.run_check(op.check_id, **op.params)
        pass_checks.append(result)
        return result
    if op.kind == "closure":
        spec, window = _closure_spec(op.params)
        gens = graded_modules.default_generators(spec.kind, spec.n)
        return graded_modules.closure(spec, {op.params["degree"]: [op.params["vector"]]}, window, gens)
    if op.kind == "emit":
        doc = cli.ReportDocument(
            version=__version__,
            config=cli.RunConfig(command="check-all", fmt="json").echo(),
            results=list(pass_checks),
        ).finalize()
        return cli.emit(doc, "json")
    raise ValueError(op.kind)


def _outcome(op, result, pass_checks: list) -> dict:
    """Status, digest of the full result, and a shape that every seed shares."""
    from slmod.reports import FAIL, PASS

    if op.kind == "check":
        return {"status": result.status, "digest": _sha(result.to_dict()),
                "shape": _sha({"status": result.status, "counts": result.counts})}
    if op.kind == "closure":
        # The closure of one vector is the smallest family of the inclusion
        # chain MIN <= FULLW <= INT <= MAX <= everything whose fiber at the
        # start degree holds the vector; checked exactly at every seed.
        from slmod.exact_linalg import Subspace
        from slmod.graded_modules import GradedFamily
        from slmod.sl_maps import FamilyKind, build_family

        spec, window = _closure_spec(op.params)
        chain = [(kind.value, build_family(kind, op.params["p"], spec, window))
                 for kind in (FamilyKind.MIN, FamilyKind.FULLW, FamilyKind.INT, FamilyKind.MAX)]
        full = Subspace.full(spec.space().dim)
        chain.append(("ALL", GradedFamily(spec, window, dict.fromkeys(window.degrees(), full))))
        name, expected = next((name, family) for name, family in chain
                              if family.fiber(op.params["degree"]).contains_vector(op.params["vector"]))
        status = PASS if result == expected else FAIL
        rows = sorted((list(k), [list(r) for r in sub.rows]) for k, sub in result.fibers.items())
        return {"status": status, "digest": _sha(rows), "shape": _sha({"status": status, "family": name})}
    doc = json.loads(result)
    ok = doc["results"] == [r.to_dict() for r in pass_checks] and doc["summary"]["fail"] == 0
    status = PASS if ok else FAIL
    return {"status": status, "digest": _sha(result),
            "shape": _sha({"status": status, "summary": doc["summary"]})}


def _lru_caches() -> list:
    """Every lru_cache in slmod; emptying them all makes the next pass cold."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "slmod" or name.startswith("slmod."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    found[id(value)] = value
    return list(found.values())


def _run_pass(ops, sampler: SpeedSampler) -> tuple:
    """(per-op seconds at reference speed, per-op wall seconds,
    [(result, traceback or None)], check results)."""
    clock = time.perf_counter
    pass_checks, results, spans = [], [], []
    for op in ops:
        start = clock()
        try:
            results.append((_execute(op, pass_checks), None))
        except Exception:  # a raising op is scored as failed, the pass goes on
            results.append((None, traceback.format_exc()))
        spans.append((start, clock()))
    return ([sampler.span(*span) for span in spans], [end - start for start, end in spans],
            results, pass_checks)


def _outcomes(ops, results, pass_checks) -> list:
    row = []
    for op, (result, error) in zip(ops, results):
        if error is not None:
            print(error, file=sys.stderr)
            row.append({"label": op.label, "status": "ERROR", "digest": "", "shape": ""})
        else:
            row.append({"label": op.label, **_outcome(op, result, pass_checks)})
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--cycles", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sampler = SpeedSampler()
    sampler.start(SETUP_PERIOD_S)

    _import_slmod()
    import workloads

    ops = workloads.build(args.workload, args.seed)
    caches = _lru_caches()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    setup_raw = time.clock_gettime(time.CLOCK_MONOTONIC) - args.launch
    setup_s = sampler.scaled(setup_raw, 0, len(sampler.took))
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw,
                          "speed": sampler.mean_speed()}))
        return 0

    sampler.start(PASS_PERIOD_S)
    op_s, raw_s, outcomes = [], [], []
    peak_rss_mb = layers = None
    for _ in range(args.cycles):
        # one cycle: a cold pass on emptied caches, then a warm pass
        for cache in caches:
            cache.cache_clear()
        cold, warm = _run_pass(ops, sampler), _run_pass(ops, sampler)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer and layers is None:
            layers = tracer.metrics(sum(cold[1]) + sum(warm[1]))
        op_s.append([cold[0], warm[0]])
        raw_s.append([cold[1], warm[1]])
        # checking results calls slmod again: outside the timed passes and the trace
        outcomes.append([_outcomes(ops, *cold[2:]), _outcomes(ops, *warm[2:])])
    sampler.stop()
    print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw, "op_s": op_s,
                      "raw_s": raw_s, "speed": sampler.mean_speed(),
                      "peak_rss_mb": peak_rss_mb, "outcomes": outcomes, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
