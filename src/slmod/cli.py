"""Command-line front end: named checks, family dimensions, closures,
homology tables and symplectic frames, with JSON/CSV/text reports.

All numeric output is exact; rationals are printed as "p/q" strings.  Exit
status is 0 when nothing failed, 1 when some check failed, 2 on usage errors
and 3 on an internal error: a broken invariant of the library itself, or a
check that raised, which ``check-all`` reports as ERROR after the others.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .complexes import DERHAM, FSQ, FSQ_FUND, TCHAIN, compare_with_prediction, complex_homology
from .exact_linalg import format_vector
from .graded_modules import (
    ActionSpec,
    Fund,
    Lambda,
    Window,
    closure,
    default_generators,
)
from .reports import ERROR, FAIL, PASS, SKIPPED, CheckResult, Detail
from .sl_maps import FamilyKind, SpecialFiberPolicy, build_family, symplectic_extend
from .theorem_registry import CATALOGUE, run_all, run_check

DEFAULT_N = 4  # the --N of every command that takes one


class UsageError(Exception):
    pass


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse rational {text!r}: {exc}") from None


def parse_rational_vector(text: str) -> tuple:
    if not text:
        return ()
    return tuple(parse_rational(part) for part in text.split(","))


@dataclass
class RunConfig:
    command: str
    n: int = DEFAULT_N
    p: int | None = None
    beta: tuple = ()
    alpha: tuple = ()
    d: int = 2
    rbound: int = 1
    seed: int | None = None
    samples: int | None = None
    check_id: str | None = None
    kind: str = "H"
    fund: bool = False
    family: str | None = None
    policy: str = "omit"
    complex_id: str | None = None
    seed_fiber: tuple = ()
    seed_index: int = 0
    vector: tuple = ()
    fmt: str = "text"
    output: str | None = None

    def echo(self) -> dict:
        out = {
            "command": self.command,
            "N": self.n,
            "beta": format_vector(self.beta),
            "alpha": format_vector(self.alpha),
            "window": self.d,
            "rbound": self.rbound,
            "format": self.fmt,
        }
        if self.p is not None:
            out["p"] = self.p
        if self.check_id:
            out["id"] = self.check_id
        if self.seed is not None:
            out["seed"] = self.seed
        if self.samples is not None:
            out["samples"] = self.samples
        if self.command == "dims":
            out.update({"family": self.family, "fund": self.fund, "policy": self.policy})
        if self.command == "closure":
            out.update(
                {
                    "kind": self.kind,
                    "fund": self.fund,
                    "seed-fiber": format_vector(self.seed_fiber),
                    "seed-index": self.seed_index,
                }
            )
        if self.command == "homology":
            out["complex"] = self.complex_id
        if self.command == "frame":
            out["vector"] = format_vector(self.vector)
        return out


@dataclass
class ReportDocument:
    version: str
    config: dict
    results: list
    generated_at: str = ""
    summary: dict = field(default_factory=dict)

    def finalize(self):
        counts = Counter(r.status for r in self.results)
        self.summary = {"pass": counts[PASS], "fail": counts[FAIL], "skipped": counts[SKIPPED]}
        if counts[ERROR]:  # a run in which nothing raised keeps its three counts alone
            self.summary["error"] = counts[ERROR]
        return self

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "generated_at": self.generated_at,
            "config": self.config,
            "results": [r.to_dict() for r in self.results],
            "summary": dict(self.summary),
        }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slmod",
        description="exact verification of graded modules over torus Lie algebras",
    )
    parser.add_argument("--version", action="version", version=f"slmod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--N", type=int, default=DEFAULT_N, help="number of torus variables")
        sp.add_argument("--p", type=int, default=None, help="exterior-power degree")
        sp.add_argument("--beta", default=None, help="comma-separated rationals, e.g. 1/2,0,0,0")
        sp.add_argument("--alpha", default=None, help="grade shift, comma-separated rationals")
        sp.add_argument("--window", type=int, default=2, dest="d", help="degree window bound")
        sp.add_argument("--rbound", type=int, default=1, help="generator degree-box bound")
        sp.add_argument("--format", choices=("json", "csv", "text"), default="text", dest="fmt")
        sp.add_argument("--output", default=None, help="write the report to this path")

    sp = sub.add_parser("check", help="run one named check")
    sp.add_argument("--id", required=True, dest="check_id", choices=sorted(CATALOGUE))
    sp.add_argument("--seed", type=int, default=None, help="probe random seed")
    sp.add_argument("--samples", type=int, default=None, help="random probe count")
    common(sp)

    sp = sub.add_parser("check-all", help="run the whole catalogue on its default grid")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text", dest="fmt")
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("dims", help="per-degree dimensions of one graded family")
    sp.add_argument("--family", required=True, choices=("min", "fullw", "int", "max"))
    sp.add_argument("--fund", action="store_true", help="intersect with the contraction kernel")
    sp.add_argument("--policy", choices=("omit", "full"), default="omit")
    common(sp)

    sp = sub.add_parser("closure", help="closure of one seed vector inside the window")
    sp.add_argument("--kind", choices=("W", "S", "H"), default="H")
    sp.add_argument("--fund", action="store_true")
    sp.add_argument("--seed-fiber", required=True, dest="seed_fiber",
                    help="degree of the seed, comma-separated integers")
    sp.add_argument("--seed-index", type=int, default=0, dest="seed_index",
                    help="standard basis index of the seed inside its fiber")
    common(sp)

    sp = sub.add_parser("homology", help="per-degree homology of one complex")
    sp.add_argument("--complex", required=True, dest="complex_id",
                    choices=("derham", "tchain", "fsq", "fsq-fund"))
    common(sp)

    sp = sub.add_parser("frame", help="symplectic frame through a vector")
    sp.add_argument("--vector", required=True, help="comma-separated rationals")
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text", dest="fmt")
    sp.add_argument("--output", default=None)
    return parser


def parse_config(argv) -> RunConfig:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    cfg = RunConfig(command=ns.command)
    cfg.fmt = getattr(ns, "fmt", "text")
    cfg.output = getattr(ns, "output", None)
    if ns.command == "frame":
        cfg.vector = parse_rational_vector(ns.vector)
        cfg.n = ns.N if ns.N is not None else len(cfg.vector)
        if len(cfg.vector) != cfg.n:
            raise UsageError(f"vector has length {len(cfg.vector)}, expected N={cfg.n}")
        if cfg.n % 2:
            raise UsageError("symplectic frames need an even number of variables")
        cfg.beta = (Fraction(0),) * cfg.n
        cfg.alpha = cfg.beta
        return cfg
    if ns.command == "check-all":
        return cfg
    cfg.n = ns.N
    cfg.p = getattr(ns, "p", None)
    cfg.d = ns.d
    cfg.rbound = ns.rbound
    beta = parse_rational_vector(ns.beta) if ns.beta is not None else (Fraction(0),) * cfg.n
    alpha = parse_rational_vector(ns.alpha) if ns.alpha is not None else (Fraction(0),) * cfg.n
    if len(beta) != cfg.n:
        raise UsageError(f"beta has length {len(beta)}, expected N={cfg.n}")
    if len(alpha) != cfg.n:
        raise UsageError(f"alpha has length {len(alpha)}, expected N={cfg.n}")
    cfg.beta = beta
    cfg.alpha = alpha
    # alpha moves no fiber and only closure reads rbound: a command refuses a
    # flag that it would echo and then ignore
    if any(alpha):
        raise UsageError(f"{ns.command} does not take --alpha: it runs with alpha = 0")
    if cfg.rbound != 1 and ns.command != "closure":
        raise UsageError(f"{ns.command} does not take --rbound: only closure reads it")
    hamiltonian = (
        ns.command in ("dims", "homology")
        or (ns.command == "closure" and getattr(ns, "kind", "H") == "H")
        or (ns.command == "check" and not CATALOGUE[ns.check_id].odd_n)
    )
    if hamiltonian and cfg.n % 2:
        raise UsageError("this command acts through the Hamiltonian algebra; N must be even")
    if ns.command == "check":
        if ns.check_id == "fundamental-dims" and cfg.n != DEFAULT_N:
            raise UsageError("fundamental-dims does not take --N: the check always sweeps N = 2, 4, 6")
        if cfg.p is not None and not CATALOGUE[ns.check_id].takes_p:
            raise UsageError(f"{ns.check_id} does not take --p: no point of its grid carries p")
        for flag in ("seed", "samples"):
            if getattr(ns, flag) is not None and flag not in CATALOGUE[ns.check_id].reads:
                raise UsageError(f"{ns.check_id} does not take --{flag}: the check never reads it")
        cfg.check_id = ns.check_id
        cfg.seed = ns.seed
        cfg.samples = ns.samples
    elif ns.command == "dims":
        cfg.family = ns.family
        cfg.fund = ns.fund
        cfg.policy = ns.policy
        if cfg.p is None:
            raise UsageError("dims needs --p")
    elif ns.command == "closure":
        cfg.kind = ns.kind
        cfg.fund = ns.fund
        cfg.seed_index = ns.seed_index
        seed_fiber = tuple(int(x) for x in parse_rational_vector(ns.seed_fiber))
        if len(seed_fiber) != cfg.n:
            raise UsageError(f"seed fiber has length {len(seed_fiber)}, expected N={cfg.n}")
        cfg.seed_fiber = seed_fiber
        if cfg.p is None:
            raise UsageError("closure needs --p")
    elif ns.command == "homology":
        cfg.complex_id = ns.complex_id
        if cfg.complex_id in ("fsq", "fsq-fund") and cfg.p is None:
            raise UsageError(f"{cfg.complex_id} needs --p")
        if cfg.p is None:
            raise UsageError("homology needs --p (the complex position)")
    return cfg


# ---------------------------------------------------------------------------
# command implementations


def _pass_table(check_id: str, params: dict, details: list) -> CheckResult:
    """A PASS report of table rows that each pass: dims, closure and frame."""
    return CheckResult(check_id, params, PASS, details, {"pass": len(details), "fail": 0, "skipped": 0})


def _dims_result(cfg: RunConfig) -> CheckResult:
    fiber = Fund(cfg.p) if cfg.fund else Lambda(cfg.p)
    spec = ActionSpec.make("H", cfg.n, fiber, cfg.beta)
    window = Window(cfg.n, cfg.d)
    family = build_family(
        FamilyKind(cfg.family.upper()),
        cfg.p,
        spec,
        window,
        policy=SpecialFiberPolicy(cfg.policy.upper()),
    )
    return _pass_table("dims", {"family": cfg.family, "N": cfg.n, "p": cfg.p,
                                "beta": format_vector(cfg.beta), "fund": cfg.fund,
                                "policy": cfg.policy, "d": cfg.d},
                       [Detail(k, "dim", d, PASS) for k, d in zip(window.degrees(), family.dims.tolist())])


def _closure_result(cfg: RunConfig) -> CheckResult:
    fiber = Fund(cfg.p) if cfg.fund else Lambda(cfg.p)
    spec = ActionSpec.make(cfg.kind, cfg.n, fiber, cfg.beta)
    window = Window(cfg.n, cfg.d)
    dim = spec.space().dim
    if not 0 <= cfg.seed_index < dim:
        raise UsageError(f"seed index {cfg.seed_index} out of range 0..{dim - 1}")
    seed = [1 if i == cfg.seed_index else 0 for i in range(dim)]
    fam = closure(spec, {cfg.seed_fiber: [seed]}, window,
                  default_generators(spec.kind, cfg.n, cfg.rbound))
    return _pass_table("closure", {"kind": cfg.kind, "N": cfg.n, "p": cfg.p,
                                   "beta": format_vector(cfg.beta), "fund": cfg.fund,
                                   "seed-fiber": format_vector(cfg.seed_fiber),
                                   "seed-index": cfg.seed_index, "d": cfg.d,
                                   "rbound": cfg.rbound},
                       [Detail(k, "dim", d, PASS) for k, d in zip(window.degrees(), fam.dims.tolist())])


def _homology_result(cfg: RunConfig) -> CheckResult:
    window = Window(cfg.n, cfg.d)
    cid = {
        "derham": DERHAM,
        "tchain": TCHAIN,
        "fsq": FSQ(cfg.p),
        "fsq-fund": FSQ_FUND(cfg.p),
    }[cfg.complex_id]
    table = complex_homology(cid, cfg.n, cfg.beta, window, p=cfg.p)
    rep = compare_with_prediction(cid, cfg.n, cfg.beta, window, p=cfg.p)
    rep.details = [Detail(k, "dim", table[k], PASS) for k in window.degrees()]
    rep.params["table"] = "per-degree homology dimensions"
    return rep


def _frame_result(cfg: RunConfig) -> CheckResult:
    frame = symplectic_extend(cfg.vector)
    return _pass_table("frame", {"vector": format_vector(cfg.vector), "N": cfg.n},
                       [Detail(None, f"w{i}", format_vector(v), PASS)
                        for i, v in enumerate(frame.vectors())])


def run_config(cfg: RunConfig) -> ReportDocument:
    if cfg.command == "check":
        params = {"N": cfg.n, "beta": cfg.beta, "d": cfg.d}
        if cfg.p is not None:
            params["p"] = cfg.p
        if cfg.seed is not None:
            params["seed"] = cfg.seed
        if cfg.samples is not None:
            params["samples"] = cfg.samples
        results = [run_check(cfg.check_id, **params)]
    elif cfg.command == "check-all":
        results = run_all()
    elif cfg.command == "dims":
        results = [_dims_result(cfg)]
    elif cfg.command == "closure":
        results = [_closure_result(cfg)]
    elif cfg.command == "homology":
        results = [_homology_result(cfg)]
    elif cfg.command == "frame":
        results = [_frame_result(cfg)]
    else:
        raise UsageError(f"unknown command {cfg.command!r}")
    doc = ReportDocument(
        version=__version__,
        config=cfg.echo(),
        results=results,
        generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
    )
    return doc.finalize()


# ---------------------------------------------------------------------------
# emission


def emit(doc: ReportDocument, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(doc.to_dict(), indent=2, sort_keys=True) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["check_id", "degree", "expected", "actual", "status"])
        for result in doc.results:
            for detail in result.details:
                degree = " ".join(str(x) for x in detail.degree) if detail.degree else ""
                writer.writerow(
                    [result.check_id, degree, detail.expected, detail.actual, detail.status]
                )
        return buf.getvalue().encode()
    if fmt == "text":
        lines = [f"slmod {doc.version}"]
        for result in doc.results:
            params = " ".join(f"{k}={v}" for k, v in sorted(result.params.items()))
            lines.append(f"[{result.status}] {result.check_id} {params}")
            for detail in result.details:
                if detail.status in (FAIL, ERROR):
                    lines.append(
                        f"    {detail.status} at degree {detail.degree}: expected {detail.expected}, "
                        f"got {detail.actual} {detail.note}"
                    )
            if result.check_id in ("dims", "closure", "homology", "frame"):
                for detail in result.details[:64]:
                    label = detail.degree if detail.degree is not None else detail.expected
                    lines.append(f"    {label}: {detail.actual}")
                if len(result.details) > 64:
                    lines.append(f"    ... {len(result.details) - 64} more degrees")
        lines.append("summary: " + " ".join(f"{k}={v}" for k, v in doc.summary.items()))
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unknown format {fmt!r}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_config(argv)
        doc = run_config(cfg)
    except (UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    payload = emit(doc, cfg.fmt)
    if cfg.output:
        with open(cfg.output, "wb") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload.decode())
    return 3 if doc.summary.get("error") else 1 if doc.summary["fail"] else 0


if __name__ == "__main__":
    sys.exit(main())
