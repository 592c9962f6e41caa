"""The references the test modules share: dense matrices in plain Python
arithmetic, the per-matrix monomial loops, the exact fiber action and edge
list, the FIFO worklist of the probes and closures, the sequential
short-path certificate of one probe, the per-pair containment
test, one planted ``directions`` mutant, and the golden catalogue points.

None of it reads the unit tables, the rank-one tables or the edge tables
that it checks, save ``reference_saturate``, which checks how ``closure``
and the FIFO turns of the probes walk an edge table, and the sequential
short paths of a probe (``reference_probe``), which check the stacked
passes of ``ProbeEngine.run``; each walks the same table one row at a
time, through ``reference_apply`` on the table's blocks, into the
row-by-row ``IntSpan``, with its own hook test ``reference_holds``.  A
test module takes what it shares from here, never from another test
module.
"""

from bisect import bisect_left
from collections import deque
from fractions import Fraction as F
from math import gcd

import numpy as np

from slmod import exterior_algebra
from slmod.exact_linalg import Subspace, contained, dot, identity, int_blocks, kernel, matrix, transpose
from slmod.exterior_algebra import ext_basis, ext_position, insert_index, sym_basis, sym_position
from slmod.graded_modules import _check_generator, closure, directions
from slmod.theorem_registry import CATALOGUE, HOOK_TURNS
from slmod.torus_lie import AlgebraKind, bar, rank_one, rank_one_sym

# ---------------------------------------------------------------------------
# dense matrices in plain Python arithmetic


def mat_mul(a, b) -> tuple:
    """Dense product of matrices given as row tuples, in plain Python
    arithmetic: the reference the integer products are checked against."""
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"mat_mul: inner dimensions {len(a[0])} != {len(b)}")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(m, v) -> tuple:
    return tuple(dot(row, v) for row in m)


def subspace_contains(outer, inner) -> bool:
    """Whether the ``Subspace`` inner lies in outer: every row of inner is
    a member of outer."""
    return all(map(outer.contains_vector, inner.rows))


def _lead(row) -> int:
    """The column of a row's first nonzero entry, -1 on a zero row."""
    for j, x in enumerate(row):
        if x:
            return j
    return -1


class IntSpan:
    """A span of integer vectors grown one vector at a time, in forward
    echelon form: its rows stay primitive, with a positive lead, and sorted
    by leading column.  The row-by-row spans of the sequential references."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residual(self, vector) -> list[int]:
        """``vector`` reduced against the rows, cross-multiplied at each pivot."""
        res = list(vector)
        for row, p in zip(self.rows, self.pivots):
            if res[p]:
                g = gcd(row[p], res[p])
                ma, mb = row[p] // g, res[p] // g
                res = [ma * x - mb * y for x, y in zip(res, row)]
        return res

    def contains(self, vector) -> bool:
        return not any(self.residual(vector))

    def add(self, vector) -> list[int] | None:
        """Insert a vector; returns the reduced row stored, or None when the
        span did not grow.  The stored row is always a new list: ``vector``
        is neither changed nor kept."""
        res = self.residual(vector)
        lead = _lead(res)
        if lead < 0:
            return None
        g = gcd(*res)
        res = [x // (g if res[lead] > 0 else -g) for x in res]
        pos = bisect_left(self.pivots, lead)
        self.rows.insert(pos, res)
        self.pivots.insert(pos, lead)
        return res


def mat_sub(a, b) -> tuple:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def from_triplets(nrows: int, ncols: int, triplets) -> tuple:
    """Dense matrix from sparse (row, col, value) entries; duplicates add."""
    rows = [[0] * ncols for _ in range(nrows)]
    for i, j, v in triplets:
        rows[i][j] += v
    return matrix(rows)


# ---------------------------------------------------------------------------
# the per-matrix monomial loops: the reference the unit tables, theta and
# every rank-one table are checked against (columns indexed by source
# monomials)


def gl_action_matrix(n: int, p: int, a) -> tuple:
    """Matrix of the derivation action of ``a`` on Lambda^p coordinates."""
    a = matrix(a)
    src = ext_basis(n, p)
    pos = ext_position(n, p)
    dim = len(src)
    cols = []
    for key in src:
        col = [0] * dim
        for slot, idx in enumerate(key):
            rest = key[:slot] + key[slot + 1 :]
            slot_sign = -1 if slot % 2 else 1
            for row in range(n):
                c = a[row][idx - 1]
                if not c:
                    continue
                sign, new_key = insert_index(row + 1, rest)
                if new_key is None:
                    continue
                col[pos[new_key]] += slot_sign * sign * c
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))


def monomial_theta_matrix(n: int, p: int) -> tuple:
    """The contraction Lambda^p -> Lambda^{p-2}: on v_1 ^ ... ^ v_p the sum
    of (-1)^{i+j-1} (bar v_i | v_j) over i < j with the two paired factors
    removed."""
    src = ext_basis(n, p)
    tgt_pos = ext_position(n, p - 2)
    bars = [bar(u) for u in identity(n)]
    rows = [[0] * len(src) for _ in range(len(tgt_pos))]
    for col, key in enumerate(src):
        for i in range(len(key)):
            bi = bars[key[i] - 1]
            for j in range(i + 1, len(key)):
                pairing = bi[key[j] - 1]
                if not pairing:
                    continue
                sign = 1 if (i + j) % 2 else -1  # (-1)^{(i+1)+(j+1)-1}
                rest = key[:i] + key[i + 1 : j] + key[j + 1 :]
                rows[tgt_pos[rest]][col] += sign * pairing
    return matrix(rows)


def wedge_matrix(n: int, p: int, v) -> tuple:
    """Matrix of x -> v ^ x as a map Lambda^p -> Lambda^{p+1}."""
    src = ext_basis(n, p)
    tgt_pos = ext_position(n, p + 1)
    rows = [[0] * len(src) for _ in range(len(tgt_pos))]
    for col, key in enumerate(src):
        for idx, c in enumerate(v, start=1):
            if not c:
                continue
            sign, new_key = insert_index(idx, key)
            if new_key is None:
                continue
            rows[tgt_pos[new_key]][col] += sign * c
    return matrix(rows)


def interior_matrix(n: int, p: int, w) -> tuple:
    """Matrix of v_1^...^v_p -> sum_i (-1)^i (w|v_i) v_1^..omit i..^v_p."""
    src = ext_basis(n, p)
    tgt_pos = ext_position(n, p - 1)
    rows = [[0] * len(src) for _ in range(len(tgt_pos))]
    for col, key in enumerate(src):
        for slot, idx in enumerate(key):
            c = w[idx - 1]
            if not c:
                continue
            sign = -1 if (slot + 1) % 2 else 1  # (-1)^{slot+1}
            rest = key[:slot] + key[slot + 1 :]
            rows[tgt_pos[rest]][col] += sign * c
    return matrix(rows)


def sym_action_matrix(n: int, a) -> tuple:
    """Matrix of the derivation action of ``a`` on Sym^2 coordinates."""
    a = matrix(a)
    keys = sym_basis(n)
    pos = sym_position(n)
    dim = len(keys)
    rows = [[0] * dim for _ in range(dim)]
    for col, (i, j) in enumerate(keys):
        for row in range(1, n + 1):
            ci = a[row - 1][i - 1]
            if ci:
                key = (row, j) if row <= j else (j, row)
                rows[pos[key]][col] += ci
            cj = a[row - 1][j - 1]
            if cj:
                key = (i, row) if i <= row else (row, i)
                rows[pos[key]][col] += cj
    return matrix(rows)


def check_unit_tables(n: int):
    """Each unit table against the monomial loop at every unit vector: e_a ^
    and the contraction against e_a at every degree, e_a e_b^T on Sym^2 as
    products[a] @ derivatives[b], and theta at even n.  Read through the
    module, so that a fault planted there shows."""
    units = identity(n)
    for p in range(n):
        got = exterior_algebra.unit_wedges(n, p)
        assert [tuple(map(tuple, m)) for m in got.tolist()] == [wedge_matrix(n, p, e) for e in units]
    for p in range(1, n + 1):
        got = exterior_algebra.unit_contractions(n, p)
        assert [tuple(map(tuple, m)) for m in got.tolist()] == [interior_matrix(n, p, e) for e in units]
    products, derivatives = exterior_algebra.unit_products(n)
    for a in range(n):
        for b in range(n):
            e_ab = from_triplets(n, n, [(a, b, 1)])
            assert tuple(map(tuple, (products[a] @ derivatives[b]).tolist())) == sym_action_matrix(n, e_ab)
    if n % 2 == 0:
        for p in range(2, n + 1):
            assert exterior_algebra.theta_matrix(n, p) == monomial_theta_matrix(n, p), p


# ---------------------------------------------------------------------------
# the exact fiber action and the edge list, one matrix and one degree at a time


def action_matrix_int(space, a) -> tuple:
    """``scale`` times the exact action of the matrix ``a`` on the space, one
    matrix at a time from the monomial loops: the reference the unit and
    rank-one tables are checked against.  On Fund(p) it is the Lambda^p
    action on the columns of ``embed``, read at the pivot rows, and raises
    when ``a`` leaves the contraction kernel."""
    n, kind, p = space.n, space.fiber.kind, space.fiber.p
    if kind == "scalar":
        return ((0,),)
    if kind == "sym2":
        return sym_action_matrix(n, a)
    if kind == "lambda":
        return gl_action_matrix(n, p, a)
    images = np.array(gl_action_matrix(n, p, a), dtype=object) @ space.embed.astype(object)
    if p >= 2 and (np.array(monomial_theta_matrix(n, p), dtype=object) @ images).any():
        raise ValueError("matrix action does not preserve the contraction kernel")
    return tuple(map(tuple, images[list(space._fund.pivots)].tolist()))


def edge_scalar(spec, gen, k) -> F:
    """The pairing coefficient c of the fiber map at degree k."""
    shift = tuple(F(ki) + bi for ki, bi in zip(k, spec.beta))
    return F(dot(bar(gen.r) if spec.kind is AlgebraKind.H else gen.u, shift))


def fiber_action(spec, gen, k) -> tuple:
    """Exact matrix c * Id + D of the fiber map fiber(k) -> fiber(k + r), in
    ``Fraction``: D from the dense ``action_matrix_int`` of the rank-one
    matrix divided by the space's scale, not from the rank-one table."""
    _check_generator(spec, gen)
    c = edge_scalar(spec, gen, k)
    space = spec.space()
    rows = action_matrix_int(space, rank_one_sym(gen.r) if gen.u is None else rank_one(gen.r, gen.u))
    return tuple(
        tuple((c if i == j else 0) + F(rows[i][j], space.scale) for j in range(space.dim))
        for i in range(space.dim)
    )


def reference_edges(spec, window, gens) -> tuple:
    """``(index, out_edges)``: the degree index of ``window.degrees()`` and,
    per degree, the ``(gi, j, cq)`` of every map into the window, in
    generator order, found one degree and one generator at a time."""
    degs = window.degrees()
    index = {k: i for i, k in enumerate(degs)}
    pairing = [bar(g.r) if spec.kind is AlgebraKind.H else g.u for g in gens]
    out_edges = []
    for k in degs:
        kq = spec.scaled_shift(k)
        edges = []
        for gi, (g, pv) in enumerate(zip(gens, pairing)):
            j = index.get(tuple(a + b for a, b in zip(k, g.r)))
            if j is not None:
                edges.append((gi, j, sum(a * b for a, b in zip(pv, kq))))
        out_edges.append(edges)
    return index, out_edges


# ---------------------------------------------------------------------------
# planted faults and per-pair references


# ---------------------------------------------------------------------------
# the FIFO worklist that applies every edge


def reference_apply(table, gi: int, cq: int, rows) -> list:
    """The nonzero images of integer rows under q * scale * (c * Id + D) of
    generator gi, cq = q * c, one row at a time in Python ints, from the
    table's block ``qd[gi]`` = q * scale * D."""
    a = cq * table.scale
    block = table.qd[gi].tolist()
    images = ([a * x + dot(qrow, row) for x, qrow in zip(row, block)] for row in rows)
    return [img for img in images if any(img)]


def reference_saturate(table, seeds: dict, stop=None, turns=None):
    """The probes' FIFO loop with no filter and no budget unless given: at
    its turn a degree sends the rows its span stored since its last turn
    along every out-edge into a target that is not full, and each image goes
    through ``IntSpan.add``.  ``stop(i, spans)`` is asked for each seed
    degree and whenever the span at i grows; a true answer returns None.
    Otherwise returns degree index -> ``IntSpan`` after the fixpoint, or
    after ``turns`` turns when given."""
    dim = table.dim
    spans: dict = {}
    fresh: dict = {}
    queue: deque = deque()

    def grow(i: int, rows) -> bool:
        span = spans.get(i)
        if span is None:
            span = spans[i] = IntSpan(dim)
        new = [row for row in map(span.add, rows) if row is not None]
        if not new:
            return False
        if i in fresh:
            fresh[i] += new
        else:
            fresh[i] = new
            queue.append(i)
        return True

    for i, rows in seeds.items():
        grow(i, rows)
        if stop is not None and stop(i, spans):
            return None
    taken = 0
    while queue and (turns is None or taken < turns):
        taken += 1
        i = queue.popleft()
        rows = fresh.pop(i)
        for gi, j in zip(*table.edges(i)):
            span = spans.get(j)
            if span is not None and span.dim == dim:
                continue
            images = reference_apply(table, gi, int(table.cq[i, gi]), rows)
            if images and grow(j, images) and stop is not None and stop(j, spans):
                return None
    return spans


def reference_holds(degrees, mode: str, target, spans: dict, shown: dict) -> bool:
    """The certificate hook's fiber test at each degree, on the ``IntSpan``s
    of a row-by-row run: "exact" compares dims, "contains" asks for every
    target row, which a full span holds.  A span only grows, so the
    ``shown[span]`` leading target rows found contained in it stay
    contained and are not tested again."""
    for i in degrees:
        span = spans.get(i)
        if mode == "exact":
            if (span.dim if span is not None else 0) != target.dims.get(i, 0):
                return False
        else:
            rows = target.rows.get(i, ())
            if not rows:
                continue
            # canonical target rows are independent: a smaller span misses one
            if span is None or span.dim < len(rows):
                return False
            if span.dim < span.ambient:
                done = shown.get(span, 0)
                while done < len(rows) and span.contains(rows[done]):
                    done += 1
                shown[span] = done
                if done < len(rows):
                    return False
    return True


def reference_stop(engine, mode: str, target):
    """The hook of a row-by-row run: at a dominator i, ``reference_holds``
    at i and at the target's degenerate degrees."""
    shown: dict = {}  # span -> its leading target rows shown contained

    def stop(i, spans):
        return (i in engine.dominators and reference_holds((i,), mode, target, spans, shown)
                and reference_holds(target.special, mode, target, spans, shown))

    return stop


def reference_turns_fire(engine, start: dict, mode: str, target, turns: int = HOOK_TURNS) -> bool:
    """Whether the hook fires in the row-by-row FIFO turns of a probe from
    ``start``, cut at ``turns`` turns."""
    return reference_saturate(engine.table, start, reference_stop(engine, mode, target), turns) is None


# ---------------------------------------------------------------------------
# the short-path certificate of one probe, one row at a time


def reference_images_at(table, into: dict, i: int, vec, gis, js):
    """The images at z of a row at degree index i, one list per path: the
    edges ``into[i]`` straight to z, then each two-edge path i -> t -> z
    through i's edges (gis, js) and ``into[t]``, in generator order on both
    steps.  ``into`` maps each source of an edge into z to its generators;
    z has no edge into itself, so from z these are the loops z -> t -> z
    alone."""
    for gj in into.get(i, ()):
        yield reference_apply(table, gj, int(table.cq[i, gj]), [vec])
    for gi, t in zip(gis, js):
        if t in into:
            first = reference_apply(table, gi, int(table.cq[i, gi]), [vec])
            for gj in into[t]:
                yield reference_apply(table, gj, int(table.cq[t, gj]), first)


def reference_short_paths(engine, seed_i: int, seed_vec, stop, rounds: bool) -> dict | None:
    """Fill one dominator z, the seed's first out-neighbour among them in
    generator order, through ``IntSpan.add`` one image at a time, asking
    ``stop(z, spans)`` after each stored row.  Round 0 sends the seed along
    the edges seed -> z and the in-window paths seed -> t -> z; with
    ``rounds``, each later round sends the rows the one before stored along
    the two-edge loops z -> u -> z, until a round stores nothing.  None once
    the hook fires, else the start of the FIFO turns: the seed and the rows
    stored at z."""
    table = engine.table
    edges = table.edges(seed_i)
    z = next((j for j in edges[1] if j in engine.dominators), None)
    if z is None:
        return {seed_i: [seed_vec]}
    into: dict = {}
    for gj, t in zip(*table.edges_into(z)):
        into[t] = into.get(t, ()) + (gj,)
    span = IntSpan(table.dim)
    spans = {z: span}
    seeds = {seed_i: [seed_vec], z: span.rows}
    i, new = seed_i, [seed_vec]
    while new:
        stored = []
        for row in new:
            for images in reference_images_at(table, into, i, row, *edges):
                for image in images:
                    image = span.add(image)
                    if image is None:
                        continue
                    if stop(z, spans):
                        return None
                    if span.dim == table.dim:
                        return seeds
                    stored.append(image)
        if not rounds:
            break
        if i == seed_i:  # later rounds leave z along its own edges
            i, edges = z, table.edges(z)
        new = stored
    return seeds


def reference_probe(engine, k, vector, mode: str, target) -> tuple:
    """(answer, start, fired): one probe as a sequential run makes it, the
    short paths of ``reference_short_paths``, with loop rounds for a full
    target, then the row-by-row FIFO turns of ``reference_saturate`` from
    ``start``, cut at ``HOOK_TURNS``, and, if their hook has not fired
    (``fired`` False), the seed's ``closure``.  ``start`` and ``fired`` are
    None where the short paths fire the hook or the target is
    uncertified."""
    start = fired = None
    if target.certified:
        start = reference_short_paths(engine, engine.table.index[k], vector, reference_stop(engine, mode, target),
                                      target.rows is None)
        if start is None:
            return True, None, None
        fired = reference_turns_fire(engine, start, mode, target)
        if fired:
            return True, start, fired
    family = closure(engine.spec, {k: [vector]}, engine.window, engine.gens)
    at = engine.interior
    if mode == "exact":
        return family.dims[at].tolist() == [target.dims.get(i, 0) for i in at], start, fired
    rows = int_blocks([target.rows.get(i, ()) for i in at], engine.table.dim)
    return bool(contained(rows, family.anns[family.place[at]]).all()), start, fired


def _merged_directions(kq):
    """A mutant of ``directions`` that files the second direction under the first."""
    live, place, stack = directions(kq)
    return live, [0 if j == 1 else j for j in place], stack


def reference_contained(rows, anns):
    """The per-pair test that ``contained`` stacks: per pair, every inner
    row in the outer space, the scalar kernel of its annihilator rows."""
    dim = rows.shape[2]
    return np.array([all(map((kernel(ann) if ann else Subspace.full(dim)).contains_vector, inner))
                     for inner, ann in zip(rows.tolist(), anns.tolist())], dtype=bool)


# ---------------------------------------------------------------------------
# the golden catalogue points: each check id on its default points with
# N <= 3, or on its first point when it has none

SEED = 20240801


def _label(check_id, grid):
    point = " ".join(
        f"{k}={','.join(map(str, v)) if k == 'beta' else v}" for k, v in sorted(grid.items())
    )
    return f"{check_id} {point}".strip()


def _points():
    out = []
    for check_id, spec in CATALOGUE.items():
        small = [g for g in spec.grid if g.get("N") is not None and g["N"] <= 3]
        for grid in small or spec.grid[:1]:
            grid = dict(grid)
            if "beta" in grid:
                grid["beta"] = tuple(F(b) for b in grid["beta"])
            out.append((_label(check_id, grid), check_id, grid))
    return out


POINTS = _points()
