"""Wall systems: opposite-edge classes, two-sided separation, hypergraphs,
hypercarriers, and the wall pseudo-metric.

Two edges are related when they occupy opposite positions (i and i + L/2) in
some cell boundary of even length L; walls are the classes of the transitive
closure.  On a complete complex every wall two-sides the 1-skeleton; on a
truncated ball a wall may be an artifact of truncation, which the settled
flag tracks.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable, Literal

from .complexes import Complex, geodesic
from .errors import BadParams, OddCell

SettledPolicy = Literal["margin", "all"]


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass
class WallSystem:
    complex: Complex
    wall_of_edge: list[int]                      # eid -> wall id (min edge id in class)
    walls: dict[int, tuple[int, ...]]            # wall id -> sorted edge ids
    hyperedges: dict[int, tuple[tuple[int, int, int], ...]]  # wid -> (cell, e1, e2)
    settled: dict[int, bool]
    settled_margin: int | None
    _sides_cache: dict[int, list[int] | None] = field(default_factory=dict, repr=False)
    _bridges: set[int] | None = field(default=None, repr=False)

    def wall_ids(self) -> list[int]:
        return sorted(self.walls)

    def settled_wall_ids(self) -> list[int]:
        return [w for w in self.wall_ids() if self.settled[w]]


def build_walls(
    c: Complex,
    *,
    settled_policy: SettledPolicy = "margin",
    settled_margin: int | None = None,
) -> WallSystem:
    """Union opposite edge pairs over every cell and assemble per-wall data.

    settled policy "margin": on a ball of radius R, a wall is settled iff
    every vertex of its hypercarrier lies within R - margin (margin defaults
    to the longest cell boundary present).  Non-ball complexes are complete,
    so all their walls are settled.  Policy "all" marks every wall settled;
    use it when the complex has been verified valid in its own right.
    """
    for cell in c.cells:
        if len(cell) % 2:
            raise OddCell(f"cell of odd length {len(cell)}; subdivide first")
    uf = UnionFind(len(c.edges))
    pair_realizations: list[tuple[int, int, int]] = []
    for cid, cell in enumerate(c.cells):
        half = len(cell) // 2
        for i in range(half):
            e1 = cell[i][0]
            e2 = cell[i + half][0]
            uf.union(e1, e2)
            pair_realizations.append((cid, e1, e2))
    members: dict[int, list[int]] = {}
    for eid in range(len(c.edges)):
        members.setdefault(uf.find(eid), []).append(eid)
    wall_of_edge = [uf.find(eid) for eid in range(len(c.edges))]
    walls = {wid: tuple(sorted(m)) for wid, m in members.items()}
    hyper: dict[int, list[tuple[int, int, int]]] = {wid: [] for wid in walls}
    for cid, e1, e2 in pair_realizations:
        hyper[wall_of_edge[e1]].append((cid, e1, e2))

    settled: dict[int, bool] = {}
    if settled_policy == "all":
        settled = {wid: True for wid in walls}
        margin = None
    elif c.dist is None or c.radius is None:
        settled = {wid: True for wid in walls}
        margin = None
    else:
        margin = settled_margin
        if margin is None:
            margin = max((len(cell) for cell in c.cells), default=0)
        cutoff = c.radius - margin
        for wid, edge_ids in walls.items():
            verts: set[int] = set()
            for cid, _, _ in hyper[wid]:
                verts.update(c.cell_vertices(cid))
            if not hyper[wid]:
                for eid in edge_ids:
                    verts.update(c.edges[eid])
            settled[wid] = all(c.dist[v] <= cutoff for v in verts)
    return WallSystem(
        c,
        wall_of_edge,
        walls,
        {wid: tuple(h) for wid, h in hyper.items()},
        settled,
        margin if settled_policy == "margin" else None,
    )


# ---------------------------------------------------------------------------
# Two-sidedness


@dataclass
class ComponentSplit:
    wall: int
    component_count: int
    sides: tuple[frozenset[int], frozenset[int]] | None

    @property
    def two_sided(self) -> bool:
        return self.component_count == 2


def _component_labels(c: Complex, removed: frozenset[int]) -> tuple[list[int], int]:
    label = [-1] * c.nv
    adj = c.adjacency()
    count = 0
    for start in range(c.nv):
        if label[start] >= 0:
            continue
        label[start] = count
        q = deque([start])
        while q:
            u = q.popleft()
            for v, eid in adj[u]:
                if eid in removed or label[v] >= 0:
                    continue
                label[v] = count
                q.append(v)
        count += 1
    return label, count


def wall_components(ws: WallSystem, wid: int) -> ComponentSplit:
    """Components of the 1-skeleton after deleting the wall's open edges."""
    if wid not in ws.walls:
        raise BadParams(f"no wall {wid}")
    label, count = _component_labels(ws.complex, frozenset(ws.walls[wid]))
    sides = None
    if count == 2:
        a = frozenset(v for v in range(ws.complex.nv) if label[v] == 0)
        b = frozenset(v for v in range(ws.complex.nv) if label[v] == 1)
        sides = (a, b)
    return ComponentSplit(wid, count, sides)


def _side_labels(ws: WallSystem, wid: int) -> list[int] | None:
    """Cached side labeling (0/1 per vertex) or None when not two-sided."""
    if wid not in ws._sides_cache:
        label, count = _component_labels(ws.complex, frozenset(ws.walls[wid]))
        ws._sides_cache[wid] = label if count == 2 else None
    return ws._sides_cache[wid]


def bridges(c: Complex) -> set[int]:
    """Edge ids whose removal disconnects the 1-skeleton (iterative Tarjan)."""
    adj = c.adjacency()
    disc = [-1] * c.nv
    low = [0] * c.nv
    out: set[int] = set()
    timer = 0
    for root in range(c.nv):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            u, pe, it = stack[-1]
            child = None
            for v, eid in it:
                if eid == pe:
                    continue
                if disc[v] >= 0:
                    if disc[v] < low[u]:
                        low[u] = disc[v]
                else:
                    child = (v, eid)
                    break
            if child is None:
                stack.pop()
                if pe >= 0:
                    pu = stack[-1][0]
                    if low[u] < low[pu]:
                        low[pu] = low[u]
                    if low[u] > disc[pu]:
                        out.add(pe)
            else:
                v, eid = child
                disc[v] = low[v] = timer
                timer += 1
                stack.append((v, eid, iter(adj[v])))
    return out


def two_sidedness_report(ws: WallSystem, wall_ids: Iterable[int] | None = None) -> dict[int, ComponentSplit]:
    """Batch two-sidedness; singleton walls short-circuit through the bridge
    set, multi-edge walls get an explicit component count."""
    c = ws.complex
    if ws._bridges is None:
        ws._bridges = bridges(c)
    out: dict[int, ComponentSplit] = {}
    for wid in (ws.wall_ids() if wall_ids is None else wall_ids):
        edge_ids = ws.walls[wid]
        if len(edge_ids) == 1:
            eid = edge_ids[0]
            if eid in ws._bridges:
                out[wid] = ComponentSplit(wid, 2, None)
            else:
                out[wid] = ComponentSplit(wid, 1, None)
        else:
            label, count = _component_labels(c, frozenset(edge_ids))
            sides = None
            out[wid] = ComponentSplit(wid, count, sides)
    return out


# ---------------------------------------------------------------------------
# Hypergraphs and hypercarriers


@dataclass
class Hypergraph:
    wall: int
    vertices: tuple[int, ...]                 # edge ids of the wall
    edges: tuple[tuple[int, int, int], ...]   # (cell, e1, e2) realizations
    is_tree: bool


def hypergraph_of(ws: WallSystem, wid: int) -> Hypergraph:
    if wid not in ws.walls:
        raise BadParams(f"no wall {wid}")
    verts = ws.walls[wid]
    realizations = ws.hyperedges[wid]
    # connected by construction; tree iff |E| = |V| - 1 and no loops
    loops = any(e1 == e2 for _, e1, e2 in realizations)
    is_tree = (len(realizations) == len(verts) - 1) and not loops
    return Hypergraph(wid, verts, realizations, is_tree)


def hypercarrier(ws: WallSystem, wid: int) -> tuple[frozenset[int], frozenset[int]]:
    """(vertex set, edge set) of the union of closed cells containing the
    wall's edges, or the edge itself for a cell-free wall."""
    c = ws.complex
    vs: set[int] = set()
    es: set[int] = set()
    cells = {cid for cid, _, _ in ws.hyperedges[wid]}
    if not cells:
        for eid in ws.walls[wid]:
            u, v = c.edges[eid]
            vs.update((u, v))
            es.add(eid)
    else:
        for cid in cells:
            vs.update(c.cell_vertices(cid))
            es.update(eid for eid, _ in c.cells[cid])
    return frozenset(vs), frozenset(es)


@dataclass
class ConvexityReport:
    wall: int
    strict: bool
    passed: bool
    witness: tuple[int, int, int] | None  # (u, v, offending edge) in strict mode


def hypercarrier_check(
    ws: WallSystem,
    wid: int,
    *,
    strict: bool = True,
) -> ConvexityReport:
    """Geodesic convexity of the hypercarrier in the ambient 1-skeleton.

    Strict mode demands every ambient geodesic between carrier vertices stay
    inside the carrier; non-strict only that some geodesic does.
    """
    c = ws.complex
    carrier_vs, carrier_es = hypercarrier(ws, wid)
    vs = sorted(carrier_vs)
    dist_maps = {v: c.bfs_distances(v) for v in vs}
    adj = c.adjacency()
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
    for u, v in pairs:
        du, dv = dist_maps[u], dist_maps[v]
        D = du[v]
        if strict:
            # walk the geodesic cone from u toward v
            frontier = {u}
            for k in range(D):
                nxt: set[int] = set()
                for x in frontier:
                    for y, eid in adj[x]:
                        if du[x] + 1 == du[y] and du[y] + dv[y] == D:
                            if eid not in carrier_es:
                                return ConvexityReport(wid, strict, False, (u, v, eid))
                            nxt.add(y)
                frontier = nxt
        else:
            # BFS restricted to the carrier
            seen = {u: 0}
            q = deque([u])
            while q:
                x = q.popleft()
                for y, eid in adj[x]:
                    if eid in carrier_es and y not in seen:
                        seen[y] = seen[x] + 1
                        q.append(y)
            if seen.get(v) != D:
                return ConvexityReport(wid, strict, False, (u, v, -1))
    return ConvexityReport(wid, strict, True, None)


# ---------------------------------------------------------------------------
# Wall pseudo-metric


@dataclass
class WallDistance:
    settled_count: int
    unsettled_count: int

    @property
    def total(self) -> int:
        return self.settled_count + self.unsettled_count


def odd_crossings(ws: WallSystem, crossings: Counter) -> WallDistance:
    """Walls crossed an odd number of times by a path, given its crossing
    count per wall, split into settled and unsettled walls."""
    settled = unsettled = 0
    for wid, k in crossings.items():
        if k % 2:
            if ws.settled[wid]:
                settled += 1
            else:
                unsettled += 1
    return WallDistance(settled, unsettled)


def wall_distance(
    ws: WallSystem,
    p: int,
    q: int,
    via: Literal["parity", "components"] = "parity",
) -> WallDistance:
    """Number of settled walls separating p from q, with unsettled walls
    counted separately.  Parity mode counts odd crossings of the geodesic
    (valid on two-sided walls); components mode checks sides.
    """
    if p == q:
        return WallDistance(0, 0)
    if via == "parity":
        path = geodesic(ws.complex, p, q)
        return odd_crossings(ws, Counter(ws.wall_of_edge[eid] for eid in path))
    if via == "components":
        settled = unsettled = 0
        for wid in ws.wall_ids():
            label = _side_labels(ws, wid)
            if label is None:
                continue
            if label[p] != label[q]:
                if ws.settled[wid]:
                    settled += 1
                else:
                    unsettled += 1
        return WallDistance(settled, unsettled)
    raise BadParams(f"unknown mode {via!r}")


def separates(ws: WallSystem, wid: int, p: int, q: int) -> bool | None:
    """Side comparison for one wall; None when the wall is not two-sided."""
    label = _side_labels(ws, wid)
    if label is None:
        return None
    return label[p] != label[q]


# ---------------------------------------------------------------------------
# Dump formats


def dump_walls(ws: WallSystem, wall_ids: Iterable[int] | None = None) -> str:
    lines = []
    for wid in (ws.wall_ids() if wall_ids is None else sorted(wall_ids)):
        edge_list = ",".join(str(e) for e in ws.walls[wid])
        lines.append(f"wall {wid} settled={int(ws.settled[wid])} edges={edge_list}")
        for cid, e1, e2 in ws.hyperedges[wid]:
            lines.append(f"  hyper {cid} {e1} {e2}")
    return "\n".join(lines) + "\n"


def walls_to_dot(ws: WallSystem, wall_ids: Iterable[int] | None = None) -> str:
    """Hypergraphs as a DOT graph: nodes are wall edges, links are cells."""
    ids = ws.wall_ids() if wall_ids is None else sorted(wall_ids)
    out = ["graph walls {"]
    for wid in ids:
        out.append(f"  subgraph cluster_w{wid} {{")
        out.append(f'    label="wall {wid}";')
        for eid in ws.walls[wid]:
            u, v = ws.complex.edges[eid]
            out.append(f'    e{eid} [label="e{eid} ({u}-{v})"];')
        for cid, e1, e2 in ws.hyperedges[wid]:
            out.append(f'    e{e1} -- e{e2} [label="c{cid}"];')
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"
