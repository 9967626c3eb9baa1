"""Geodesics, single-crossing edge sets, relator neighborhoods, the
local-to-global density principle, and the linear separation harness.

All ratios are exact rationals; verdicts never touch floating point.
"""

from __future__ import annotations

import json
import random
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .complexes import Complex, check_cprime, geodesic
from .errors import BadParams, HypothesisViolated, NotSmallCancellation, UnsettledWall
from .walls import WallSystem, odd_crossings

# -- geodesics --------------------------------------------------------------


def path_vertices(c: Complex, p: int, edge_path: Sequence[int]) -> list[int]:
    verts = [p]
    cur = p
    for eid in edge_path:
        u, v = c.edges[eid]
        cur = v if cur == u else u
        verts.append(cur)
    return verts


# -- geodesic context and single-crossing edges ------------------------------


@dataclass
class GeodesicContext:
    complex: Complex
    walls: WallSystem
    p: int
    q: int
    edge_seq: list[int]
    vertex_seq: list[int]
    wall_seq: list[int]
    crossings: Counter
    single_crossing: frozenset[int] = field(init=False)  # edge ids

    def __post_init__(self):
        self.single_crossing = frozenset(
            eid for eid, wid in zip(self.edge_seq, self.wall_seq) if self.crossings[wid] == 1
        )


def geodesic_context(c: Complex, ws: WallSystem, p: int, q: int,
                     dist_to_q: list[int] | None = None) -> GeodesicContext:
    edges = geodesic(c, p, q, dist_to_q)
    verts = path_vertices(c, p, edges)
    walls = [ws.wall_of_edge[eid] for eid in edges]
    return GeodesicContext(c, ws, p, q, edges, verts, walls, Counter(walls))


# -- relator neighborhoods ---------------------------------------------------


@dataclass
class RelatorNeighborhood:
    edge: int
    wall: int
    cell: int | None              # None for single-crossing edges
    span: tuple[int, int]         # vertex positions [i, j] of the subpath on the geodesic
    near_end: int                 # vertex id closer to the geodesic start
    far_end: int
    partner_edge: int | None      # the opposite edge of `edge` in `cell`
    second_cell: int | None       # next cell on the hypergraph path
    mate: int | None              # nearest other geodesic edge in the same wall

    @property
    def size(self) -> int:
        return self.span[1] - self.span[0]


def _hypergraph_path(ws: WallSystem, wid: int, e_from: int, e_to: int) -> list[tuple[int, int, int]]:
    """Hyperedges along the unique tree path between two wall edges."""
    adj: dict[int, list[tuple[int, tuple[int, int, int]]]] = {}
    for he in ws.hyperedges[wid]:
        cid, e1, e2 = he
        adj.setdefault(e1, []).append((e2, he))
        adj.setdefault(e2, []).append((e1, he))
    prev: dict[int, tuple[int, tuple[int, int, int]] | None] = {e_from: None}
    queue = deque([e_from])
    while queue:
        x = queue.popleft()
        if x == e_to:
            break
        for y, he in sorted(adj.get(x, []), key=lambda t: (t[1][0], t[0])):
            if y not in prev:
                prev[y] = (x, he)
                queue.append(y)
    if e_to not in prev:
        raise BadParams(f"wall {wid} hypergraph does not connect edges {e_from}, {e_to}")
    out = []
    cur = e_to
    while prev[cur] is not None:
        x, he = prev[cur]
        out.append(he)
        cur = x
    out.reverse()
    return out


def relator_neighborhood(eid: int, ctx: GeodesicContext, *, require_settled: bool = True) -> RelatorNeighborhood:
    """Maximal geodesic subpath inside a cell chosen along the wall's
    hypergraph tree path toward the nearest wall mate on the geodesic.

    The choice is not unique in general; ties break by least cell id then
    least edge id, making reports deterministic.
    """
    ws = ctx.walls
    c = ctx.complex
    if eid not in ctx.edge_seq:
        raise BadParams(f"edge {eid} is not on the geodesic")
    wid = ctx.wall_seq[ctx.edge_seq.index(eid)]
    if require_settled and not ws.settled[wid]:
        raise UnsettledWall(f"wall {wid} may be a truncation artifact")
    pos = ctx.edge_seq.index(eid)
    if eid in ctx.single_crossing:
        return RelatorNeighborhood(
            eid, wid, None, (pos, pos + 1), ctx.vertex_seq[pos], ctx.vertex_seq[pos + 1],
            None, None, None,
        )
    # nearest other geodesic edge in the same wall (tie: earlier position)
    mates = [
        (abs(i - pos), i)
        for i, w in enumerate(ctx.wall_seq)
        if w == wid and i != pos
    ]
    mates.sort()
    mate_pos = mates[0][1]
    mate = ctx.edge_seq[mate_pos]
    path = _hypergraph_path(ws, wid, eid, mate)
    first = path[0]
    cell = first[0]
    partner = first[2] if first[1] == eid else first[1]
    second_cell = path[1][0] if len(path) > 1 else None
    # maximal run of geodesic edges lying on the chosen cell boundary
    cell_edges = c.cell_edge_set(cell)
    i = pos
    while i > 0 and ctx.edge_seq[i - 1] in cell_edges:
        i -= 1
    j = pos + 1
    while j < len(ctx.edge_seq) and ctx.edge_seq[j] in cell_edges:
        j += 1
    return RelatorNeighborhood(
        eid, wid, cell, (i, j), ctx.vertex_seq[i], ctx.vertex_seq[j],
        partner, second_cell, mate,
    )


def density_threshold(lam: Fraction) -> Fraction:
    """Lower bound on the single-crossing density inside a neighborhood."""
    lam = Fraction(lam)
    return (1 - 6 * lam + 4 * lam * lam) / (1 - 2 * lam)


@dataclass
class DensityCheck:
    edge: int
    neighborhood_size: int
    single_crossing_inside: int
    threshold: Fraction
    ratio: Fraction
    holds: bool


def local_density_check(ne: RelatorNeighborhood, ctx: GeodesicContext, lam: Fraction) -> DensityCheck:
    """Count single-crossing edges inside the neighborhood against the
    exact rational threshold."""
    i, j = ne.span
    inside = [ctx.edge_seq[k] for k in range(i, j)]
    hits = sum(1 for e in inside if e in ctx.single_crossing)
    thr = density_threshold(lam)
    size = len(inside)
    ratio = Fraction(hits, size) if size else Fraction(0)
    return DensityCheck(ne.edge, size, hits, thr, ratio, Fraction(hits) >= thr * size)


@dataclass
class NeighborhoodProbe:
    edge: int
    cell_length: int
    subpath_length: int      # d(p', q') along the geodesic
    edge_to_far: int         # edges between `edge` and the far endpoint
    edge_to_near: int
    far_bound: Fraction      # (1/2 - lam) * |r|
    near_bound: Fraction     # 2*lam*d(p',q') - 1
    far_ok: bool             # subpath_length > edge_to_far > far_bound
    near_ok: bool            # edge_to_near < near_bound
    applicable: bool


def neighborhood_probe(ne: RelatorNeighborhood, ctx: GeodesicContext, lam: Fraction) -> NeighborhoodProbe:
    """Exact checks of the two distance displays for a constructed
    neighborhood, oriented so the far end lies toward the wall mate."""
    if ne.cell is None:
        raise BadParams("probe applies to edges whose wall crosses the geodesic again")
    lam = Fraction(lam)
    i, j = ne.span
    pos = ctx.edge_seq.index(ne.edge)
    mate_pos = ctx.edge_seq.index(ne.mate)
    # orient: the far endpoint is the one on the mate's side
    if mate_pos > pos:
        edge_to_far = j - pos - 1
        edge_to_near = pos - i
        applicable = mate_pos >= j
    else:
        edge_to_far = pos - i
        edge_to_near = j - pos - 1
        applicable = mate_pos < i
    L = len(ctx.complex.cells[ne.cell])
    dpq = j - i
    far_bound = (Fraction(1, 2) - lam) * L
    near_bound = 2 * lam * dpq - 1
    far_ok = dpq > edge_to_far and Fraction(edge_to_far) > far_bound
    near_ok = Fraction(edge_to_near) < near_bound
    return NeighborhoodProbe(
        ne.edge, L, dpq, edge_to_far, edge_to_near, far_bound, near_bound, far_ok, near_ok, applicable
    )


# -- local-to-global density principle ---------------------------------------

Interval = tuple[int, int]  # [start, end) over edge indices of a path


def cover_split(intervals: Sequence[Interval]) -> tuple[list[Interval], list[Interval], list[Interval]]:
    """Minimal subcover of the union, split into two families of pairwise
    disjoint intervals whose union is the subcover.

    Greedy sweep per connected span; in a minimal cover only neighbors
    overlap, so alternating assignment keeps each family disjoint.
    """
    if not intervals:
        raise BadParams("interval family must be nonempty")
    ivs = sorted(set((int(a), int(b)) for a, b in intervals))
    if any(a >= b for a, b in ivs):
        raise BadParams("intervals must be nontrivial (start < end)")
    cover: list[Interval] = []
    pos = 0
    while pos < len(ivs):
        span_start = ivs[pos][0]
        covered = span_start
        while True:
            best: Interval | None = None
            while pos < len(ivs) and ivs[pos][0] <= covered:
                if best is None or ivs[pos][1] > best[1]:
                    best = ivs[pos]
                pos += 1
            if best is None or best[1] <= covered:
                # gap: next connected span starts at ivs[pos]
                break
            cover.append(best)
            covered = best[1]
            if pos >= len(ivs):
                break
    u1 = cover[0::2]
    u2 = cover[1::2]
    return u1, u2, cover


def _union_size(intervals: Iterable[Interval]) -> int:
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a >= end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


@dataclass
class DensityBoundReport:
    density: Fraction
    edge_count: int
    union_size: int
    bound: Fraction
    holds: bool
    split_bound: Fraction
    split_holds: bool


def local_to_global_bound(marked: set[int], intervals: Sequence[Interval], density: Fraction) -> DensityBoundReport:
    """From per-interval density >= C conclude |marked| >= (C/2)|union|.

    Re-verifies the premise, then checks the conclusion directly and once
    more through the cover-split route (disjoint family of at least half
    the union, summing per-interval counts).
    """
    density = Fraction(density)
    for a, b in intervals:
        inside = sum(1 for x in marked if a <= x < b)
        if Fraction(inside) < density * (b - a):
            raise HypothesisViolated(
                f"interval [{a},{b}) has density {Fraction(inside, b - a)} < {density}"
            )
    union = _union_size(intervals)
    total = len(marked & {x for a, b in intervals for x in range(a, b)})
    bound = density / 2 * union
    u1, u2, cover = cover_split(intervals)
    family = u1 if _union_size(u1) >= _union_size(u2) else u2
    fam_count = 0
    for a, b in family:
        fam_count += sum(1 for x in marked if a <= x < b)
    split_bound = density * _union_size(family)
    return DensityBoundReport(
        density,
        total,
        union,
        bound,
        Fraction(total) >= bound,
        split_bound,
        Fraction(fam_count) >= split_bound and Fraction(total) >= split_bound,
    )


# -- linear separation harness -----------------------------------------------


def separation_constant(lam: Fraction) -> Fraction:
    lam = Fraction(lam)
    return (1 - 6 * lam + 4 * lam * lam) / (2 - 4 * lam)


@dataclass
class PairRow:
    p: int
    q: int
    d: int
    dw: int
    ratio: Fraction
    settled: bool
    in_a_count: int
    unsettled_dw: int
    unsettled_touching: int


@dataclass
class SeparationReport:
    lam: Fraction
    constant: Fraction
    rows: list[PairRow]
    min_ratio: Fraction | None
    mean_ratio: Fraction | None
    pair_count: int
    violations: list[PairRow]
    inconclusive: list[PairRow]
    passed: bool
    observe: bool


def default_region(c: Complex, ws: WallSystem) -> list[int]:
    """Interior vertices: inside the ball by the largest cell length, with
    every incident wall settled.  Possibly empty on small balls; the caller
    then chooses an explicit region."""
    margin = max((len(cell) for cell in c.cells), default=0)
    if c.dist is None or c.radius is None:
        candidates = range(c.nv)
    else:
        cutoff = c.radius - margin
        candidates = [v for v in range(c.nv) if c.dist[v] <= cutoff]
    adj = c.adjacency()
    out = []
    for v in candidates:
        if all(ws.settled[ws.wall_of_edge[eid]] for _, eid in adj[v]):
            out.append(v)
    return sorted(out)


def sweep_pairs(c: Complex, ws: WallSystem, pairs: Sequence[tuple[int, int]]) -> list[PairRow]:
    """Per-pair geodesic/wall statistics.  Consecutive pairs with the same
    q share one BFS map, so pass pairs grouped by q."""
    rows: list[PairRow] = []
    dq_of = None
    for p, q in pairs:
        if dq_of != q:
            dq, dq_of = c.bfs_distances(q), q
        d = dq[p]
        crossings = Counter(ws.wall_of_edge[eid] for eid in geodesic(c, p, q, dq))
        dw = odd_crossings(ws, crossings)
        touching = sum(1 for w in crossings if not ws.settled[w])
        # A geodesic repeats no edge, so each wall crossed once marks one
        # single-crossing edge.
        single = sum(1 for k in crossings.values() if k == 1)
        rows.append(
            PairRow(
                p, q, d, dw.settled_count, Fraction(dw.settled_count, d), touching == 0,
                single, dw.unsettled_count, touching,
            )
        )
    return rows


def verify_linear_separation(
    c: Complex,
    ws: WallSystem,
    lam: Fraction,
    region: Iterable[int] | None = None,
    *,
    observe: bool = False,
    max_pairs: int | None = None,
    seed: int = 0,
) -> SeparationReport:
    """Compare the wall pseudo-metric against the path metric over all
    vertex pairs in the region.

    Pass requires every settled pair to satisfy dw <= d and dw/d at least
    the constant; unsettled-pair violations are reported inconclusive, never
    silently passed.  Observe mode records ratios with no verdict.
    """
    lam = Fraction(lam)
    if max_pairs is not None and max_pairs < 1:
        raise BadParams(f"max_pairs must be >= 1, got {max_pairs}")
    if not observe and not check_cprime(c, lam):
        raise NotSmallCancellation(f"complex fails the strict {lam} piece condition")
    const = separation_constant(lam)
    verts = sorted(set(region)) if region is not None else default_region(c, ws)
    pairs = [(p, q) for i, p in enumerate(verts) for q in verts[i + 1:]]
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = random.Random(seed)
        pairs = sorted(rng.sample(pairs, max_pairs))
    # group by q so each BFS map serves all pairs ending at q
    pairs.sort(key=lambda pq: (pq[1], pq[0]))
    rows = sweep_pairs(c, ws, pairs)
    rows.sort(key=lambda r: (r.p, r.q))
    min_ratio = min((r.ratio for r in rows), default=None)
    mean_ratio = (sum(r.ratio for r in rows) / len(rows)) if rows else None
    violations = [r for r in rows if r.settled and (r.ratio < const or r.dw > r.d)]
    inconclusive = [r for r in rows if not r.settled and (r.ratio < const or r.dw > r.d)]
    passed = True if observe else (not violations and all(r.dw <= r.d for r in rows))
    return SeparationReport(
        lam, const, rows, min_ratio, mean_ratio, len(rows), violations, inconclusive, passed, observe
    )


def report_to_csv(report: SeparationReport) -> str:
    lines = ["p,q,d,dw,ratio_num,ratio_den,settled,in_A_count"]
    for r in sorted(report.rows, key=lambda r: (r.p, r.q)):
        lines.append(
            f"{r.p},{r.q},{r.d},{r.dw},{r.ratio.numerator},{r.ratio.denominator},"
            f"{int(r.settled)},{r.in_a_count}"
        )
    return "\n".join(lines) + "\n"


def _frac(x: Fraction | None) -> str | None:
    return None if x is None else f"{x.numerator}/{x.denominator}"


def report_to_json(report: SeparationReport) -> str:
    payload = {
        "lambda": _frac(report.lam),
        "constant": _frac(report.constant),
        "min_ratio": _frac(report.min_ratio),
        "mean_ratio": _frac(report.mean_ratio),
        "pairs": report.pair_count,
        "violations": [[r.p, r.q, _frac(r.ratio)] for r in report.violations],
        "inconclusive": [[r.p, r.q, _frac(r.ratio)] for r in report.inconclusive],
        "passed": report.passed,
        "observe": report.observe,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
