"""Spans around slmod's layer entry points, installed from outside the package.

Each wrapped call is a span; a span's self time is its duration minus the
durations of the wrapped calls made inside it.  The tracer's own bookkeeping
(argument keys, bit lengths) runs after the span's clock stops and is charged
to neither the span nor its parent, so it shows up as lost coverage, not as
layer time.  Aggregates stay in memory and are read once at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute) of every wrapped entry point.  ``exterior_algebra``,
# ``torus_lie`` and ``reports`` are leaf helpers called millions of times;
# they stay unwrapped and their cost lands in their callers' self time.
ENTRY_POINTS = (
    ("slmod.exact_linalg", "kernel"),
    ("slmod.exact_linalg", "image"),
    ("slmod.exact_linalg", "intersect"),
    ("slmod.exact_linalg", "subspace_sum"),
    ("slmod.sl_maps", "build_family"),
    ("slmod.sl_maps", "verify_module_map"),
    ("slmod.sl_maps", "quotient_dims"),
    ("slmod.graded_modules", "is_invariant"),
    ("slmod.graded_modules", "closure"),
    ("slmod.theorem_registry", "ProbeEngine.run"),
    ("slmod.theorem_registry", "probe_engine"),
    ("slmod.theorem_registry", "oracle_fiber_dims"),
    ("slmod.theorem_registry", "run_check"),
    ("slmod.complexes", "complex_homology"),
    ("slmod.complexes", "predicted_homology"),
    ("slmod.invariant_ops", "invariance_report"),
    ("slmod.cli", "emit"),
)


# Counts kept beside calls and self time, per span; ``Tracer._after`` may
# only add to the keys declared here.
EXTRA_COUNTS = {
    "exact_linalg.kernel": ("cells",),
    "sl_maps.build_family": ("repeat_s",),
    "sl_maps.verify_module_map": ("pairs",),
    "graded_modules.is_invariant": ("degrees",),
    "cli.emit": ("bytes",),
}


def span_name(module: str, attr: str) -> str:
    return f"{module.removeprefix('slmod.')}.{attr}"


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self, extra_keys=()):
        self.calls = 0
        self.self_s = 0.0
        self.extra = dict.fromkeys(extra_keys, 0)


def _max_bits(subspace) -> int:
    return max((abs(x).bit_length() for row in subspace.rows for x in row), default=0)


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self.latencies: list = []  # ProbeEngine.run durations
        self.check_s: dict = defaultdict(float)
        self.max_bits = 0
        self.seen_family_args: set = set()
        self._stack = [0.0]

    def _after(self, name: str, stat: Stat, args, kwargs, result, elapsed: float):
        """Layer-specific counts, taken outside every span's clock."""
        if name.startswith("exact_linalg."):
            self.max_bits = max(self.max_bits, _max_bits(result))
            if name == "exact_linalg.kernel" and isinstance(args[0], (list, tuple)) and args[0]:
                stat.extra["cells"] += len(args[0]) * len(args[0][0])
        elif name == "sl_maps.build_family":
            key = (args, tuple(sorted(kwargs.items())))
            if key in self.seen_family_args:
                stat.extra["repeat_s"] += elapsed
            else:
                self.seen_family_args.add(key)
        elif name == "sl_maps.verify_module_map":
            stat.extra["pairs"] += result.counts["pass"] + result.counts["fail"]
        elif name == "graded_modules.is_invariant":
            family = args[1] if len(args) > 1 else kwargs["family"]
            stat.extra["degrees"] += len(family.window.degrees())
        elif name == "theorem_registry.ProbeEngine.run":
            self.latencies.append(elapsed)
        elif name == "theorem_registry.run_check":
            self.check_s[args[0]] += elapsed
        elif name == "cli.emit":
            stat.extra["bytes"] += len(result)

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat(EXTRA_COUNTS.get(name, ())))
        stack = self._stack
        clock = time.perf_counter
        after = self._after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
            after(name, stat, args, kwargs, result, elapsed)
            stack[-1] += clock() - start
            return result

        return traced

    def install(self):
        """Replace every entry point, in every slmod module that bound it."""
        modules = [m for n, m in sys.modules.items() if n == "slmod" or n.startswith("slmod.")]
        for module_name, attr in ENTRY_POINTS:
            owner = sys.modules[module_name]
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, traced)

    def metrics(self, traced_wall: float) -> dict:
        """Per-layer metrics over everything traced so far; ``traced_wall`` is
        the wall time of the traced passes."""
        from slmod.theorem_registry import CATALOGUE

        out = {}
        for module_name, attr in ENTRY_POINTS:
            name = span_name(module_name, attr)
            stat = self.stats[name]
            if name != "cli.emit":
                out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            for key, value in stat.extra.items():
                out[f"{name}.{key}"] = value
        out["exact_linalg.max_bits"] = self.max_bits
        out["sl_maps.build_family.distinct"] = len(self.seen_family_args)
        runs = sorted(self.latencies)
        for q in (50, 99):
            value = runs[min(len(runs) - 1, len(runs) * q // 100)] * 1e6 if runs else 0.0
            out[f"theorem_registry.ProbeEngine.run.p{q}_us"] = value
        for check_id in CATALOGUE:
            out[f"check.{check_id}.s"] = self.check_s[check_id]
        out["trace.coverage"] = sum(s.self_s for s in self.stats.values()) / traced_wall
        return out
