"""The benchmark workloads: which slmod calls each one makes, in which order.

A workload is a fixed list of operations.  The grids (N, p, beta, d) are
fixed, so the amount of work is fixed; the seed only reaches the program as
the ``seed`` parameter of every check and as the random seed vectors of the
reference closures.  A child repeats cycles of the list: a cold pass on
emptied caches, then a warm pass that reads the family, probe-engine and
derivation caches the cold pass filled.  The number of cycles follows from
``--seconds`` alone (see ``cycles``), so every commit is sampled alike.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

HALF4 = (Fraction(1, 2), 0, 0, 0)
ZERO4 = (0, 0, 0, 0)

# Check ids with no default point below N=4 (fundamental-dims has no N at
# all); the catalogue workload takes their first point.
_FIRST_POINT_ONLY = (
    "fundamental-dims", "contraction-iso", "j-membership", "inclusion-chain", "fiber-equalities",
)


# Wall seconds one cycle (cold and warm pass, and checking its results) takes
# on the reference host, which runs at 0.5 to 0.7 of full speed most of the
# time: 5 catalogue cycles or 2 edges cycles in a 45 s run.
CYCLE_S = {"catalogue": 8.0, "edges": 22.0, "smoke": 1.0}


def cycles(workload: str, seconds: float) -> int:
    """Cycles in a run of ``seconds``: fixed by the workload and the run length,
    never by how fast the host or the program happens to be."""
    return max(1, int(seconds / CYCLE_S[workload]))


@dataclass(frozen=True)
class Op:
    """One timed call: a catalogue check, a reference closure, or the JSON
    rendering of the pass's check results."""

    label: str
    kind: str  # "check", "closure" or "emit"
    check_id: str = ""
    params: dict = field(default_factory=dict)


def check_op(check_id: str, seed: int, **grid) -> Op:
    if "beta" in grid:
        grid["beta"] = tuple(Fraction(b) for b in grid["beta"])
    point = " ".join(
        f"{k}={','.join(map(str, v)) if k == 'beta' else v}" for k, v in sorted(grid.items())
    )
    return Op(f"{check_id} {point}".strip(), "check", check_id, dict(grid, seed=seed))


def _catalogue_points(keep) -> list:
    from slmod.theorem_registry import CATALOGUE

    return [(check_id, g) for check_id, spec in CATALOGUE.items()
            for i, g in enumerate(spec.grid) if keep(check_id, i, g.get("N"))]


def _closures(seed: int) -> list:
    """Two reference closures on H, Fund(1), beta = 1/2 at N=4, d=2, each from
    one random vector at the window's centre degree.  (From other interior
    degrees the cost varies threefold between vectors.)

    At the centre degree MIN's fiber is spanned by e0 and INT's (= MAX's) is
    the vectors with coordinate 2 zero.  closure[0] starts outside INT and
    generates the whole window, closure[1] starts in INT but outside MIN and
    generates INT, so every seed does the same two kinds of work.  The child
    checks each result against the family chain, not against these facts."""
    rng = random.Random(f"{seed}|perfbench-closure")

    def draw(accept):
        while True:
            vector = [rng.randint(-3, 3) for _ in range(4)]
            if accept(vector):
                return vector

    vectors = (draw(lambda v: v[2] != 0),
               draw(lambda v: v[2] == 0 and (v[1] or v[3])))
    return [Op(f"closure[{i}]", "closure", "",
               {"N": 4, "p": 1, "beta": HALF4, "d": 2, "degree": (0, 0, 0, 0), "vector": v})
            for i, v in enumerate(vectors)]


def build(workload: str, seed: int) -> list:
    """The operation list of one workload pass for a seed."""
    if workload == "catalogue":
        # every check id: its default points with N <= 3, or its first point
        points = _catalogue_points(
            lambda cid, i, n: i == 0 if cid in _FIRST_POINT_ONLY else n <= 3)
    elif workload == "smoke":
        points = _catalogue_points(lambda cid, i, n: n == 2)
    if workload in ("catalogue", "smoke"):
        return [check_op(cid, seed, **g) for cid, g in points] + [Op("emit", "emit")]
    if workload == "edges":
        # one check per hand-written edge loop: is_invariant, probes and glue
        # (main-classification), verify_module_map (module-maps, at d=1:
        # at d=2 it alone takes as long as the rest), invariance_report
        # (invariant-ops), "contains" probes (uniqueness), then closures
        return [
            check_op("main-classification", seed, N=4, p=2, beta=HALF4, d=2),
            check_op("module-maps", seed, N=4, beta=HALF4, d=1),
            check_op("invariant-ops", seed, N=4, beta=ZERO4, d=2),
            check_op("uniqueness", seed, N=4, p=2, beta=HALF4, d=2),
        ] + _closures(seed)
    raise ValueError(f"unknown workload {workload!r}")

