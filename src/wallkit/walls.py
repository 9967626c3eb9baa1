"""Wall systems: opposite-edge classes, two-sided separation, hypergraphs,
hypercarriers, and the wall pseudo-metric.

Two edges are related when they occupy opposite positions (i and i + L/2) in
some cell boundary of even length L; walls are the classes of the transitive
closure.  On a complete complex every wall two-sides the 1-skeleton; on a
truncated ball a wall may be an artifact of truncation, which the settled
flag tracks.
"""

from __future__ import annotations

from array import array
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
    _forest: SpanningForest | None = field(default=None, repr=False)

    def wall_ids(self) -> list[int]:
        return sorted(self.walls)

    def settled_wall_ids(self) -> list[int]:
        return [w for w in self.wall_ids() if self.settled[w]]


def _wall_edges(ws: WallSystem, wid: int) -> tuple[int, ...]:
    edge_ids = ws.walls.get(wid)
    if edge_ids is None:
        raise BadParams(f"no wall {wid}")
    return edge_ids


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
    label, count = _component_labels(ws.complex, frozenset(_wall_edges(ws, wid)))
    sides = None
    if count == 2:
        a = frozenset(v for v in range(ws.complex.nv) if label[v] == 0)
        b = frozenset(v for v in range(ws.complex.nv) if label[v] == 1)
        sides = (a, b)
    return ComponentSplit(wid, count, sides)


def _side_labels(ws: WallSystem, wid: int) -> list[int] | None:
    """Cached side labeling (0/1 per vertex) or None when not two-sided."""
    if wid not in ws._sides_cache:
        label, count = _component_labels(ws.complex, frozenset(_wall_edges(ws, wid)))
        ws._sides_cache[wid] = label if count == 2 else None
    return ws._sides_cache[wid]


@dataclass
class SpanningForest:
    """A BFS spanning forest of the 1-skeleton.

    Vertex x lies in the subtree of y iff ``tin[y] <= tin[x] < tout[y]``.
    Deleting k tree edges cuts the forest into ``roots + k`` pieces, and the
    non-tree edges are the only other links between them.  Per-vertex data
    is kept in arrays: on a Cayley ball a list would hold one int object
    per entry.
    """

    edges: list[tuple[int, int]]
    parent_edge: array                         # vertex -> tree edge to its parent, -1 at a root
    tin: array
    tout: array
    roots: int
    nontree: list[tuple[int, int, int, int]]  # (eid, u, v, root of their tree)
    covered: set[int]                          # tree edges on some non-tree edge's cycle

    def tree_child(self, eid: int) -> int:
        """The lower end of tree edge eid, or -1 for a non-tree edge."""
        u, v = self.edges[eid]
        if self.parent_edge[v] == eid:
            return v
        if self.parent_edge[u] == eid:
            return u
        return -1

    def is_bridge(self, eid: int) -> bool:
        return eid not in self.covered and self.tree_child(eid) >= 0


def spanning_forest(c: Complex) -> SpanningForest:
    adj = c.adjacency()
    parent = array("l", [-1]) * c.nv
    parent_edge = array("l", [-1]) * c.nv
    seen = bytearray(c.nv)
    order: list[int] = []
    roots = 0
    for r in range(c.nv):
        if seen[r]:
            continue
        roots += 1
        seen[r] = 1
        head = len(order)
        order.append(r)
        while head < len(order):
            u = order[head]
            head += 1
            for v, eid in adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    parent[v] = u
                    parent_edge[v] = eid
                    order.append(v)
    size = array("l", [1]) * c.nv
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    # preorder numbering: parents come first in BFS order, and each child
    # takes the next free slot of its parent's interval; once every child
    # is placed, a vertex's next free slot is the end of its interval
    tin = array("l", [0]) * c.nv
    tout = array("l", [0]) * c.nv
    t = 0
    for v in order:
        p = parent[v]
        if p < 0:
            tin[v] = t
            t += size[v]
        else:
            tin[v] = tout[p]
            tout[p] += size[v]
        tout[v] = tin[v] + 1
    f = SpanningForest(c.edges, parent_edge, tin, tout, roots, [], set())
    for eid, (u, v) in enumerate(c.edges):
        if f.tree_child(eid) >= 0:
            continue
        # mark the tree path u .. lca .. v of the edge's fundamental cycle
        a, b = u, v
        while not tin[a] <= tin[b] < tout[a]:
            f.covered.add(parent_edge[a])
            a = parent[a]
        while b != a:
            f.covered.add(parent_edge[b])
            b = parent[b]
        while parent[a] >= 0:
            a = parent[a]
        f.nontree.append((eid, u, v, a))
    return f


def _forest(ws: WallSystem) -> SpanningForest:
    if ws._forest is None:
        ws._forest = spanning_forest(ws.complex)
    return ws._forest


def _component_count(f: SpanningForest, edge_ids: tuple[int, ...]) -> int:
    """Components of the 1-skeleton minus edge_ids, from the forest pieces."""
    removed = set(edge_ids)
    # top vertex of each piece cut off by a removed tree edge
    cuts = [x for x in map(f.tree_child, edge_ids) if x >= 0]
    tin, tout = f.tin, f.tout

    def piece(x: int, root: int) -> int:
        top = root
        for y in cuts:
            if tin[top] < tin[y] <= tin[x] < tout[y]:
                top = y
        return top

    link: dict[int, int] = {}

    def find(x: int) -> int:
        while x in link:
            x = link[x]
        return x

    merged = 0
    for eid, u, v, root in f.nontree:
        if eid in removed:
            continue
        a, b = find(piece(u, root)), find(piece(v, root))
        if a != b:
            link[a] = b
            merged += 1
    return f.roots + len(cuts) - merged


def two_sidedness_report(ws: WallSystem, wall_ids: Iterable[int] | None = None) -> dict[int, ComponentSplit]:
    """Batch two-sidedness from one spanning forest per wall system: a
    singleton wall separates iff its edge is a bridge, and a larger wall's
    component count joins the forest pieces its tree edges cut off along the
    non-tree edges it keeps."""
    f = _forest(ws)
    out: dict[int, ComponentSplit] = {}
    for wid in (ws.wall_ids() if wall_ids is None else wall_ids):
        edge_ids = _wall_edges(ws, wid)
        if len(edge_ids) == 1:
            count = 2 if f.is_bridge(edge_ids[0]) else 1
        else:
            count = _component_count(f, edge_ids)
        out[wid] = ComponentSplit(wid, count, None)
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
    verts = _wall_edges(ws, wid)
    realizations = ws.hyperedges[wid]
    # connected by construction; tree iff |E| = |V| - 1 and no loops
    loops = any(e1 == e2 for _, e1, e2 in realizations)
    is_tree = (len(realizations) == len(verts) - 1) and not loops
    return Hypergraph(wid, verts, realizations, is_tree)


def hypercarrier(ws: WallSystem, wid: int) -> tuple[frozenset[int], frozenset[int]]:
    """(vertex set, edge set) of the union of closed cells containing the
    wall's edges, or the edge itself for a cell-free wall."""
    c = ws.complex
    edge_ids = _wall_edges(ws, wid)
    vs: set[int] = set()
    es: set[int] = set()
    cells = {cid for cid, _, _ in ws.hyperedges[wid]}
    if not cells:
        for eid in edge_ids:
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


def _geodesic_taint(
    adj: list[list[tuple[int, int]]] | dict[int, list[tuple[int, int]]],
    u: int,
    targets: set[int],
    carrier_es: frozenset[int],
) -> tuple[dict[int, int], set[int]]:
    """BFS from u, level by level, until every target is reached.

    Returns the distances found and the tainted vertices: those some
    geodesic from u reaches through an edge outside carrier_es.
    """
    dist = {u: 0}
    tainted: set[int] = set()
    frontier = [u]
    left = len(targets)
    d = 0
    while frontier and left:
        d += 1
        nxt = []
        for x in frontier:
            x_tainted = x in tainted
            for y, eid in adj[x]:
                dy = dist.get(y)
                if dy is None:
                    dist[y] = d
                    nxt.append(y)
                    if y in targets:
                        left -= 1
                elif dy != d:
                    continue
                if x_tainted or eid not in carrier_es:
                    tainted.add(y)
        frontier = nxt
    return dist, tainted


def _cone_exit(c: Complex, carrier_es: frozenset[int], u: int, v: int) -> int:
    """First edge outside the carrier met by walking the geodesic cone from u
    toward v; the caller knows one exists."""
    du, dv = c.bfs_distances(u), c.bfs_distances(v)
    D = du[v]
    adj = c.adjacency()
    frontier = {u}
    for _ in range(D):
        nxt: set[int] = set()
        for x in frontier:
            for y, eid in adj[x]:
                if du[x] + 1 == du[y] and du[y] + dv[y] == D:
                    if eid not in carrier_es:
                        return eid
                    nxt.add(y)
        frontier = nxt
    raise AssertionError(f"no geodesic from {u} to {v} leaves the carrier")


def hypercarrier_check(
    ws: WallSystem,
    wid: int,
    *,
    strict: bool = True,
) -> ConvexityReport:
    """Geodesic convexity of the hypercarrier in the ambient 1-skeleton.

    Strict mode demands every ambient geodesic between carrier vertices stay
    inside the carrier; non-strict only that some geodesic does.  Carrier
    vertices are taken in sorted order, each with one BFS that stops once
    every later carrier vertex is reached; the witness is the first failing
    pair (u, v), u < v, in that order.
    """
    c = ws.complex
    carrier_vs, carrier_es = hypercarrier(ws, wid)
    vs = sorted(carrier_vs)
    adj = c.adjacency()
    if not strict:
        inner_adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vs}
        for eid in carrier_es:
            a, b = c.edges[eid]
            inner_adj[a].append((b, eid))
            inner_adj[b].append((a, eid))
    for i, u in enumerate(vs[:-1]):
        later = vs[i + 1:]
        dist, tainted = _geodesic_taint(adj, u, set(later), carrier_es)
        if strict:
            bad = next((v for v in later if v in tainted), None)
            if bad is not None:
                return ConvexityReport(wid, strict, False, (u, bad, _cone_exit(c, carrier_es, u, bad)))
        else:
            inner, _ = _geodesic_taint(inner_adj, u, set(later), carrier_es)
            bad = next((v for v in later if inner.get(v) != dist.get(v, -1)), None)
            if bad is not None:
                return ConvexityReport(wid, strict, False, (u, bad, -1))
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
