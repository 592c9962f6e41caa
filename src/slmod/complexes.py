"""Per-fiber homology of the wedge complex, the contraction complex, and the
square-zero endomorphism of each exterior-power module.

At any degree with k + beta != 0 the wedge maps and contraction maps form
exact sequences, so all homology is concentrated at the single degenerate
degree (present only for integral beta), where every map vanishes and the
homology is the whole fiber.  The square-zero endomorphism f(p) has kernel
the maximal family and image the minimal one, so its per-fiber homology
equals the neighbouring minimal-family dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact_linalg import echelon_stack, format_vector, image, int_matmul, kernel
from .exterior_algebra import ext_dim, fundamental_subspace
from .graded_modules import ActionSpec, Fund, Lambda, Window, directions, fiber_space
from .reports import CheckResult, Recorder
from .sl_maps import (
    FamilyKind,
    build_family,
    f,
    map_stack,
    pi,
    T,
)
from .torus_lie import require_even


@dataclass(frozen=True)
class ComplexId:
    """DERHAM / TCHAIN positions, or the square-zero endomorphism FSQ(p)
    (FSQ_FUND(p) restricts it to the contraction kernel)."""

    kind: str  # "derham" | "tchain" | "fsq" | "fsq_fund"
    p: int | None = None

    def __str__(self):
        if self.p is None:
            return self.kind.upper()
        return f"{self.kind.upper()}({self.p})"


DERHAM = ComplexId("derham")
TCHAIN = ComplexId("tchain")


def FSQ(p: int) -> ComplexId:
    return ComplexId("fsq", p)


def FSQ_FUND(p: int) -> ComplexId:
    return ComplexId("fsq_fund", p)


def _position(cid: ComplexId, p: int | None) -> int:
    if cid.p is not None:
        if p is not None and p != cid.p:
            raise ValueError("conflicting positions given")
        return cid.p
    if p is None:
        raise ValueError(f"{cid} needs a position")
    return p


def _in_out_maps(cid: ComplexId, p: int, n: int) -> tuple:
    """(incoming map id or None, outgoing map id or None) at position p."""
    if cid.kind == "derham":
        if not 0 <= p <= n:
            raise ValueError(f"position {p} out of range 0..{n}")
        inc = pi(p - 1) if p >= 1 else None
        out = pi(p) if p <= n - 1 else None
        return inc, out
    if cid.kind == "tchain":
        if not 0 <= p <= n:
            raise ValueError(f"position {p} out of range 0..{n}")
        inc = T(p + 1) if p <= n - 1 else None
        out = T(p) if p >= 1 else None
        return inc, out
    if cid.kind in ("fsq", "fsq_fund"):
        if not 1 <= p <= n // 2:
            raise ValueError(f"position {p} out of range 1..{n // 2}")
        return f(p), f(p)
    raise ValueError(f"unknown complex kind {cid.kind!r}")


def complex_homology(
    cid: ComplexId,
    n: int,
    beta,
    window: Window,
    p: int | None = None,
) -> dict:
    """Per-degree homology dimension dim ker(outgoing) - dim im(incoming).

    For FSQ the square-zero identity f o f = 0 is verified first and a
    structural failure raises; for FSQ_FUND kernel and image are both
    intersected with the contraction kernel.
    """
    require_even(n)
    pos = _position(cid, p)
    spec = ActionSpec.make("H", n, Lambda(min(pos, n)), beta)
    inc, out = _in_out_maps(cid, pos, n)
    fund = fundamental_subspace(n, pos) if cid.kind == "fsq_fund" else None
    # every map is homogeneous in K: kernel and image once per direction, and
    # once at K = 0, where every map vanishes, as the class after them
    kqs = spec.scaled_shifts(window)
    live, place, stack = directions(kqs)
    classes = np.full(len(kqs), len(stack), dtype=np.intp)
    classes[live] = place
    stack = np.concatenate([stack, np.delete(kqs, live, axis=0)[:1]])  # K = 0, if in the window
    outs = map_stack(out, n, stack) if out is not None else None
    incs = map_stack(inc, n, stack) if inc is not None else None
    squares = int_matmul(outs, outs).any(axis=(1, 2)) if cid.kind == "fsq" else None
    # on FSQ_FUND one kernel of f(p) stacked over the rows that cut out Fund
    kers = [kernel(mat + list(fund.annihilator()) if fund is not None else mat)
            for mat in outs.tolist()] if out is not None else None
    ims = [image(mat, fund) for mat in incs.tolist()] if inc is not None else None
    table: dict = {}
    for k, j in zip(window.degrees(), classes.tolist()):
        if squares is not None and squares[j]:
            raise RuntimeError(f"square-zero violated at degree {k}")
        if kers is not None and ims is not None and not kers[j].contains(ims[j]):
            raise RuntimeError(f"complex property violated at degree {k}")
        ker_dim = kers[j].dim if kers is not None else ext_dim(n, pos)
        table[k] = ker_dim - (ims[j].dim if ims is not None else 0)
    return table


def predicted_homology(
    cid: ComplexId,
    n: int,
    beta,
    window: Window,
    p: int | None = None,
) -> dict:
    """Closed-form prediction, evaluated from independently built families.

    DERHAM / TCHAIN: zero away from the degenerate degree, the full fiber
    there.  FSQ(p): the minimal-family dimensions one step above plus one
    step below.  FSQ_FUND(p): the image of the wedge map on the restricted
    maximal family (p < N/2), or the restricted minimal family one step
    below (p = N/2); the full restricted fiber at the degenerate degree.
    """
    require_even(n)
    pos = _position(cid, p)
    half = n // 2
    _in_out_maps(cid, pos, n)  # validates the position
    spec = ActionSpec.make("H", n, Lambda(min(pos, n)), beta)
    k0 = spec.special_degree()
    table: dict = {}
    if cid.kind in ("derham", "tchain"):
        for k in window.degrees():
            table[k] = ext_dim(n, pos) if k == k0 else 0
        return table
    if cid.kind == "fsq":
        above = build_family(FamilyKind.MIN, pos + 1, spec.with_fiber(Lambda(pos + 1)), window)
        below = (
            build_family(FamilyKind.MIN, pos - 1, spec.with_fiber(Lambda(pos - 1)), window)
            if pos >= 1
            else None
        )
        dims = above.dims + (below.dims if below else 0)
        for k, dim in zip(window.degrees(), dims.tolist()):
            table[k] = ext_dim(n, pos) if k == k0 else dim
        return table
    # fsq_fund
    space = fiber_space(n, Fund(pos))
    if pos == half:
        # Lambda^0 is its own contraction kernel
        below = Fund(pos - 1) if pos >= 2 else Lambda(0)
        lower = build_family(FamilyKind.MIN, pos - 1, spec.with_fiber(below), window)
        for k, dim in zip(window.degrees(), lower.dims.tolist()):
            table[k] = space.dim if k == k0 else dim
        return table
    maxf = build_family(FamilyKind.MAX, pos, spec.with_fiber(Fund(pos)), window)
    degs = window.degrees()
    live, place, stack = directions(spec.scaled_shifts(window))
    # pi(pos) on Fund(pos) coordinates along every direction, one product, and
    # MAX's rows at every degree through its direction's map, one elimination
    wedges = int_matmul(map_stack(pi(pos), n, stack), space.embed)
    images = echelon_stack(int_matmul(maxf.rows[maxf.place[live]], wedges[place].transpose(0, 2, 1)))
    table = dict.fromkeys(degs, space.dim)  # kept at the degenerate degree, K = 0
    table.update(zip([degs[i] for i in live.tolist()], (images != 0).any(axis=2).sum(axis=1).tolist()))
    return table


def compare_with_prediction(
    cid: ComplexId,
    n: int,
    beta,
    window: Window,
    p: int | None = None,
) -> CheckResult:
    """PASS when the computed homology table matches the prediction fiberwise."""
    pos = _position(cid, p)
    spec = ActionSpec.make("H", n, Lambda(0), beta)
    rec = Recorder(
        "homology",
        {"complex": str(cid), "position": pos, "N": n, "beta": format_vector(spec.beta),
         "d": window.d},
    )
    computed = complex_homology(cid, n, beta, window, p=pos)
    predicted = predicted_homology(cid, n, beta, window, p=pos)
    k0 = spec.special_degree()
    for k in window.degrees():
        note = "degenerate degree" if k == k0 else ""
        rec.expect(predicted[k], computed[k], degree=k, note=note)
    return rec.result()
