"""Wall systems: opposite-edge classes, two-sided separation, hypergraphs,
hypercarriers, and the wall pseudo-metric.

Two edges are related when they occupy opposite positions (i and i + L/2) in
some cell boundary of even length L; walls are the classes of the transitive
closure.  On a complex that passes ``validity_summary`` every wall
two-sides the 1-skeleton, and the separation harness checks only such
complexes.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, compress, groupby, islice
from operator import ne
from typing import Iterable, Iterator, Literal

from .complexes import Adjacency, Complex, adjacency_of, bfs, check_geodesic_ends, geodesic_tree
from .errors import BadParams, OddCell


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


class WallPartition(Mapping):
    """Wall id -> its sorted edge ids, kept in arrays: ``order`` is the edge
    ids sorted by wall, and wall w's edges are ``order[offsets[w]:offsets[w
    + 1]]``.  A wall's id is its least edge id, so ``offsets`` and the
    ``is_wall`` flags are indexed by edge id; BadParams unless every wall
    is named so.  ``[w]`` makes the tuple; ``size`` reads a wall's size off
    the offsets.
    """

    def __init__(self, wall_of_edge: array):
        counts = array("l", [0]) * (len(wall_of_edge) + 1)
        for w in wall_of_edge:
            counts[w + 1] += 1
        self.wall_of_edge = wall_of_edge
        self.order = array("l", sorted(range(len(wall_of_edge)), key=wall_of_edge.__getitem__))
        self.offsets = array("l", accumulate(counts))
        self.is_wall = bytearray(map(bool, counts[1:]))
        self._len = self.is_wall.count(1)
        # the first edge of a wall in the stable sort is its least
        if any(map(ne, map(self.order.__getitem__, compress(self.offsets, self.is_wall)), self)):
            raise BadParams("each wall must be named by its least edge id")

    def size(self, wid: int) -> int:
        """The number of edges of wall wid, 0 for an edge id that is no wall id."""
        return self.offsets[wid + 1] - self.offsets[wid]

    def __contains__(self, wid: object) -> bool:
        return isinstance(wid, int) and 0 <= wid < len(self.is_wall) and self.is_wall[wid] == 1

    def __getitem__(self, wid: int) -> tuple[int, ...]:
        if wid not in self:
            raise KeyError(wid)
        return tuple(self.order[self.offsets[wid]:self.offsets[wid + 1]])

    def __iter__(self) -> Iterator[int]:
        return compress(range(len(self.is_wall)), self.is_wall)

    def __len__(self) -> int:
        return self._len


class WallView(Mapping):
    """Wall id -> ``value(wid)`` over the wall ids of ``ids``, in its order.
    A value is made when it is read, so the view holds no object per
    wall; an id outside ``ids`` raises KeyError."""

    def __init__(self, ids: Mapping[int, object], value: Callable[[int], object]):
        self.ids, self.value = ids, value

    def __getitem__(self, wid: int):
        if wid not in self.ids:
            raise KeyError(wid)
        return self.value(wid)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


class WallSystem:
    """The walls of a complex, from the wall of each edge (a wall's id is
    its least edge id) and the (cell, e1, e2) pairs realizing the walls.

    ``walls`` is the partition, ``hyperedges`` the pairs of each wall in
    the order given (``()`` for a wall no pair realizes), and ``tree`` the
    spanning tree that every connectivity question reads, built here, so a
    disconnected 1-skeleton raises BadParams.
    """

    def __init__(self, complex: Complex, wall_of_edge: Iterable[int], pairs: Iterable[tuple[int, int, int]] = ()):
        if not isinstance(wall_of_edge, array):
            wall_of_edge = array("l", wall_of_edge)
        n = len(complex.edges)
        if len(wall_of_edge) != n or n and not 0 <= min(wall_of_edge) <= max(wall_of_edge) < n:
            raise BadParams(f"wall_of_edge must give each of the {n} edges a wall id in 0..{n - 1}")
        self.complex = complex
        self.walls = WallPartition(wall_of_edge)
        self.wall_of_edge = wall_of_edge

        def pair_wall(pair: tuple[int, int, int]) -> int:
            return wall_of_edge[pair[1]]

        grouped = {wid: tuple(g) for wid, g in groupby(sorted(pairs, key=pair_wall), key=pair_wall)}
        self.hyperedges = WallView(self.walls, lambda wid: grouped.get(wid, ()))
        # built once the partition's temporaries are gone, to keep the peak down
        self.tree = spanning_tree(complex)
        self._splits: dict[int, WallSplit] = {}
        # (carrier edge set, strict) -> (passed, witness) of hypercarrier_check
        self._convexity: dict[tuple[frozenset[int], bool], tuple[bool, tuple[int, int, int] | None]] = {}

    @cached_property
    def forest(self) -> HangingForest:
        return hanging_forest(self)

    def wall_ids(self) -> list[int]:
        return list(self.walls)


def _wall_size(ws: WallSystem, wid: int) -> int:
    if wid not in ws.walls:
        raise BadParams(f"no wall {wid}")
    return ws.walls.size(wid)


def _wall_edges(ws: WallSystem, wid: int) -> tuple[int, ...]:
    _wall_size(ws, wid)
    return ws.walls[wid]


def _tin(ws: WallSystem, v: int) -> int:
    """Preorder position of vertex v in the spanning tree; BadParams
    outside 0..nv-1."""
    if not 0 <= v < ws.complex.nv:
        raise BadParams(f"no vertex {v}: ids run 0..{ws.complex.nv - 1}")
    return ws.tree.tin[v]


def _opposite_classes(c: Complex) -> tuple[array, list[tuple[int, int, int]]]:
    """Union opposite edge pairs over every cell: the wall of each edge
    (the least edge id of its class), and the (cell, e1, e2) pairs
    realizing the walls, in cell order."""
    uf = UnionFind(len(c.edges))
    pairs: list[tuple[int, int, int]] = []
    for cid, cell in enumerate(c.cells):
        half = len(cell) // 2
        for i in range(half):
            e1 = cell[i][0]
            e2 = cell[i + half][0]
            uf.union(e1, e2)
            pairs.append((cid, e1, e2))
    return array("l", map(uf.find, range(len(c.edges)))), pairs


def build_walls(c: Complex, *, settled_policy: str = "all") -> WallSystem:
    """Assemble the walls (the classes of opposite edges) and their data.
    The wall system builds its spanning tree, so a disconnected 1-skeleton
    raises BadParams.
    """
    # perfbench/workloads.py still passes settled_policy="all"
    if settled_policy != "all":
        raise BadParams(f"settled_policy {settled_policy!r}: only 'all' is accepted")
    for cell in c.cells:
        if len(cell) % 2:
            raise OddCell(f"cell of odd length {len(cell)}; subdivide first")
    return WallSystem(c, *_opposite_classes(c))


# ---------------------------------------------------------------------------
# Two-sidedness


@dataclass
class SpanningTree:
    """A BFS spanning tree of the 1-skeleton, rooted at vertex 0.

    Vertex x lies in the subtree of y iff ``tin[y] <= tin[x] < tout[y]``.
    Deleting k tree edges cuts the tree into k + 1 pieces, and the non-tree
    edges are the only other links between them.  Per-vertex data is kept
    in arrays: on a Cayley ball a list would hold one int object per entry.
    """

    edges: list[tuple[int, int]]
    parent_edge: array             # vertex -> tree edge to its parent, -1 at the root
    tin: array
    tout: array
    pre: array                     # tin -> vertex
    nontree: list[tuple[int, int, int]]  # (eid, u, v)
    covered: bytearray             # eid -> 1 if on some non-tree edge's cycle

    def tree_child(self, eid: int) -> int:
        """The lower end of tree edge eid, or -1 for a non-tree edge."""
        u, v = self.edges[eid]
        if self.parent_edge[v] == eid:
            return v
        if self.parent_edge[u] == eid:
            return u
        return -1

    def bridge_child(self, eid: int) -> int:
        """The lower end of edge eid if it is a bridge, a tree edge on no
        non-tree edge's cycle, or -1."""
        return -1 if self.covered[eid] else self.tree_child(eid)


def spanning_tree(c: Complex) -> SpanningTree:
    """The tree of lex-least geodesics to vertex 0: ``bfs`` from vertex 0,
    then each vertex's parent edge is its least edge id into the level
    nearer vertex 0, the descent rule of ``geodesic_tree``.  BadParams if
    the 1-skeleton is disconnected."""
    adj = c.adjacency()
    nbrs, eids, start = adj.nbrs, adj.eids, adj.start
    dist, order = bfs(nbrs, 0) if c.nv else ([], [])
    if len(order) < c.nv:
        raise BadParams(f"1-skeleton is disconnected: vertex {dist.index(-1)} is not reached from vertex 0")
    parent = array("l", [-1]) * c.nv
    parent_edge = array("l", [-1]) * c.nv
    for v in islice(order, 1, None):
        below, nb, i = dist[v] - 1, nbrs[v], 0
        while dist[nb[i]] != below:  # in increasing edge id
            i += 1
        parent[v] = nb[i]
        parent_edge[v] = eids[start[v] + i]
    del dist  # not read again: the arrays below need not share the peak with it
    size = array("l", [1]) * c.nv
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    # preorder numbering: parents come first in BFS order, and each child
    # takes the next free slot of its parent's interval; once every child
    # is placed, a vertex's next free slot is the end of its interval
    tin = array("l", [0]) * c.nv
    tout = array("l", [0]) * c.nv
    pre = array("l", [0]) * c.nv
    for v in order:
        p = parent[v]
        if p >= 0:
            tin[v] = tout[p]
            tout[p] += size[v]
        tout[v] = tin[v] + 1
        pre[tin[v]] = v
    t = SpanningTree(c.edges, parent_edge, tin, tout, pre, [], bytearray(len(c.edges)))
    for eid, (u, v) in enumerate(c.edges):
        if t.tree_child(eid) >= 0:
            continue
        # mark the tree path u .. lca .. v of the edge's fundamental cycle
        a, b = u, v
        while not tin[a] <= tin[b] < tout[a]:
            t.covered[parent_edge[a]] = 1
            a = parent[a]
        while b != a:
            t.covered[parent_edge[b]] = 1
            b = parent[b]
        t.nontree.append((eid, u, v))
    return t


@dataclass(frozen=True, slots=True)
class WallSplit:
    """The 1-skeleton minus a wall's edges, read off the spanning tree.

    The wall's tree edges cut the tree into pieces: the root's piece and,
    for each such edge, the subtree below it minus the pieces nested in it.
    On a two-sided wall, spans holds the (tin, tout, side) of each cut-off
    subtree in one flat tuple, outermost first; the root's piece, with
    vertex 0, is side 0.
    """

    component_count: int
    spans: tuple[int, ...] = ()

    @property
    def two_sided(self) -> bool:
        return self.component_count == 2

    def side(self, pos: int) -> int:
        """Side of the vertex with tin pos: the label of the innermost span
        holding pos, 0 outside every span."""
        s = 0
        spans = self.spans
        for i in range(0, len(spans), 3):
            if spans[i] <= pos < spans[i + 1]:
                s = spans[i + 2]  # later spans holding pos are nested deeper
        return s


def _split(ws: WallSystem, wid: int) -> WallSplit:
    """The split of wall wid, which the caller has checked, cached for
    multi-edge walls.  A one-edge wall separates iff its edge is a bridge,
    an O(1) test that is not worth a cache entry on a ball with tens of
    thousands of such walls."""
    split = ws._splits.get(wid)
    if split is not None:
        return split
    t = ws.tree
    if ws.walls.size(wid) == 1:
        x = t.bridge_child(wid)  # a one-edge wall's id is its edge
        return WallSplit(2, (t.tin[x], t.tout[x], 1)) if x >= 0 else WallSplit(1)
    edge_ids = ws.walls[wid]
    spans = sorted((t.tin[x], t.tout[x]) for x in map(t.tree_child, edge_ids) if x >= 0)
    # number the pieces, 0 for the root's and i for the one below the i-th
    # span, and join them along the non-tree edges the wall keeps
    pieces = WallSplit(len(spans) + 1, tuple(chain.from_iterable((lo, hi, i) for i, (lo, hi) in enumerate(spans, 1))))
    uf = UnionFind(len(spans) + 1)
    removed = set(edge_ids)
    for eid, u, v in t.nontree:
        if eid not in removed:
            uf.union(pieces.side(t.tin[u]), pieces.side(t.tin[v]))
    label: dict[int, int] = {}
    comp = [label.setdefault(uf.find(i), len(label)) for i in range(len(spans) + 1)]
    if len(label) == 2:
        split = WallSplit(2, tuple(chain.from_iterable((lo, hi, s) for (lo, hi), s in zip(spans, comp[1:]))))
    else:
        split = WallSplit(len(label))
    ws._splits[wid] = split
    return split


def wall_sides(ws: WallSystem, wid: int) -> tuple[frozenset[int], frozenset[int]] | None:
    """The two components of the 1-skeleton after deleting the wall's open
    edges, the one holding vertex 0 first; None when the wall is not
    two-sided."""
    t = ws.tree
    _wall_size(ws, wid)
    split = _split(ws, wid)
    if not split.two_sided:
        return None
    # paint each span with its side, outer spans first so that the spans
    # nested inside them overwrite them
    side = bytearray(len(t.pre))
    it = iter(split.spans)
    for lo, hi, s in zip(it, it, it):
        side[lo:hi] = bytes([s]) * (hi - lo)
    far = frozenset(compress(t.pre, side))
    return frozenset(t.pre) - far, far


def two_sidedness_report(ws: WallSystem, wall_ids: Iterable[int] | None = None) -> WallView:
    """Batch two-sidedness from the wall system's spanning tree: a one-edge
    wall separates iff its edge is a bridge, and a larger wall's component
    count joins the tree pieces its tree edges cut off along the non-tree
    edges it keeps.  Every requested id is checked here, and the view maps
    each one, once and in wall-id order, to its ``WallSplit``, made as the
    view is read (a multi-edge wall's split is cached in the wall system).
    """
    if wall_ids is None:
        ids: Mapping[int, object] = ws.walls
    else:
        ids = dict.fromkeys(sorted(set(wall_ids)))
        for wid in ids:
            _wall_size(ws, wid)
    return WallView(ids, partial(_split, ws))


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


def _cone_exit(c: Complex, carrier_es: frozenset[int], du: list[int], u: int, v: int) -> int:
    """First edge outside the carrier met by walking the geodesic cone from u
    toward v; ``du`` holds u's distances at least up to v's level, and the
    caller knows such an edge exists."""
    adj = c.adjacency()
    nbrs, eids, start = adj.nbrs, adj.eids, adj.start
    dv, _ = bfs(nbrs, v, (u,))
    D = du[v]
    frontier = {u}
    for _ in range(D):
        nxt: set[int] = set()
        for x in frontier:
            for i, y in enumerate(nbrs[x]):
                if du[x] + 1 == du[y] and du[y] + dv[y] == D:
                    eid = eids[start[x] + i]
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
    pair (u, v), u < v, in that order.  The carrier's vertices are the ends
    of its edges, so the verdict and the witness depend on its edge set
    alone: walls that share a carrier share one check.
    """
    carrier_vs, carrier_es = hypercarrier(ws, wid)
    key = (carrier_es, strict)
    if key not in ws._convexity:
        ws._convexity[key] = _convexity(ws.complex, carrier_vs, carrier_es, strict)
    return ConvexityReport(wid, strict, *ws._convexity[key])


def _convexity(
    c: Complex, carrier_vs: frozenset[int], carrier_es: frozenset[int], strict: bool
) -> tuple[bool, tuple[int, int, int] | None]:
    """(passed, witness) of ``hypercarrier_check`` for one carrier."""
    vs = sorted(carrier_vs)
    adj = c.adjacency()
    nbrs, eids, start = adj.nbrs, adj.eids, adj.start
    if not strict:
        inner: list = [()] * c.nv  # the carrier's edges alone
        for v in vs:
            inner[v] = []
        for eid in carrier_es:
            a, b = c.edges[eid]
            inner[a].append(b)
            inner[b].append(a)
    for i, u in enumerate(vs[:-1]):
        later = vs[i + 1:]
        dist, order = bfs(nbrs, u, later)
        if strict:
            # a vertex is tainted when some geodesic from u reaches it
            # through an edge outside the carrier
            tainted: set[int] = set()
            for y in islice(order, 1, None):
                below, j = dist[y] - 1, start[y]
                for x in nbrs[y]:
                    if dist[x] == below and (x in tainted or eids[j] not in carrier_es):
                        tainted.add(y)
                        break
                    j += 1
            bad = next((v for v in later if v in tainted), None)
            if bad is not None:
                return False, (u, bad, _cone_exit(c, carrier_es, dist, u, bad))
        else:
            inner_dist, _ = bfs(inner, u, later)
            bad = next((v for v in later if inner_dist[v] != dist[v]), None)
            if bad is not None:
                return False, (u, bad, -1)
    return True, None


# ---------------------------------------------------------------------------
# Wall pseudo-metric


@dataclass(frozen=True, slots=True)
class HangingForest:
    """The vertices that hang off the 2-core by one-edge walls.

    A vertex is peeled while its degree is 1 and its one edge is the only
    edge of its wall; what is left is the core.  A peeled vertex's
    ``parent`` is the other end of that edge, and its ``root`` is the core
    vertex its tree hangs from (a component that is all tree keeps its last
    vertex as its root); ``depth`` counts the edges up to the root.  A core
    vertex is its own root at depth 0, with parent -1.  ``core`` is the
    Adjacency of the core's edges, with no neighbours at peeled vertices;
    when nothing is peeled it is the complex's own adjacency.
    """

    parent: array
    depth: array
    root: array
    core: Adjacency


def hanging_forest(ws: WallSystem) -> HangingForest:
    """Peel the hanging trees off the 1-skeleton.  The wall check matters:
    a pendant edge whose wall has other edges may be crossed again by a
    geodesic, so its vertex stays in the core."""
    c = ws.complex
    adj = c.adjacency()
    nbrs, eids, start = adj.nbrs, adj.eids, adj.start
    size, wall_of_edge = ws.walls.size, ws.wall_of_edge
    deg = array("l", map(len, nbrs))
    parent = array("l", [-1]) * c.nv
    core_edge = bytearray(b"\1") * len(c.edges)
    order = array("l")
    stack = [v for v in range(c.nv) if deg[v] == 1]
    while stack:
        v = stack.pop()
        if deg[v] != 1:  # its last neighbour was peeled before it
            continue
        i = s = start[v]
        while not core_edge[eids[i]]:
            i += 1
        eid = eids[i]
        if size(wall_of_edge[eid]) > 1:
            continue
        w = nbrs[v][i - s]
        core_edge[eid] = 0
        deg[v] = 0
        deg[w] -= 1
        parent[v] = w
        order.append(v)
        if deg[w] == 1:
            stack.append(w)
    root = array("l", range(c.nv))
    depth = array("l", [0]) * c.nv
    for v in reversed(order):  # a parent is peeled after its children
        p = parent[v]
        root[v] = root[p]
        depth[v] = depth[p] + 1
    if not order:
        return HangingForest(parent, depth, root, adj)
    core = adjacency_of(c.nv, c.edges, array("l", compress(range(len(c.edges)), core_edge)))
    return HangingForest(parent, depth, root, core)


@dataclass
class WallDistance:
    total: int


def geodesic_crossings(c: Complex, ws: WallSystem, q: int, targets: Iterable[int]) -> dict[int, tuple[int, int, int]]:
    """Crossing statistics of ``geodesic(c, p, q)`` for every target p.

    Each target maps to ``(d, dw, in_a)``: the path length, the walls
    crossed an odd number of times, and the walls crossed once, each of
    which marks one single-crossing edge (geodesics repeat no edge).

    The wall system's hanging forest (``ws.forest``, built once by
    ``hanging_forest``) reduces the work to the core, which is connected,
    as the 1-skeleton of any wall system is, so every root is reached.
    Every hanging edge is its own wall and a geodesic crosses it at most
    once, so each of its edges adds 1 to d, dw and in_a alike.  When p and
    q hang in one tree, the geodesic is the tree path through their lowest
    common ancestor.  Otherwise it climbs from p to its root, crosses the
    core to q's root and descends to q, and the lex-least one is the chain
    of ``geodesic_tree(core, root(q), ...)`` between the roots: inside a
    hanging tree the step toward a vertex outside it is forced, and a core
    vertex's hanging neighbours are never one level nearer a target
    outside their tree, so the core vertex descends by the edge it takes
    in the whole complex.  One walk of the core tree from root(q) gives the
    core's statistics for every root.
    """
    want = set(targets)
    check_geodesic_ends(c.nv, q, want)
    f = ws.forest
    parent, depth, root = f.parent, f.depth, f.root
    rq = root[q]
    tops = {root[p] for p in want}
    tops.discard(rq)
    core = _core_crossings(ws, f.core, rq, tops) if tops else {}
    out: dict[int, tuple[int, int, int]] = {}
    hq = depth[q]
    for p in want:
        rp = root[p]
        if rp != rq:
            d, dw, in_a = core[rp]
            h = depth[p] + hq
            out[p] = (d + h, dw + h, in_a + h)
        else:
            a, b = p, q
            while depth[a] > depth[b]:
                a = parent[a]
            while depth[b] > depth[a]:
                b = parent[b]
            while a != b:
                a, b = parent[a], parent[b]
            h = depth[p] + hq - 2 * depth[a]
            out[p] = (h, h, h)
    return out


def _core_crossings(ws: WallSystem, core: Adjacency, q: int, targets: set[int]) -> dict[int, tuple[int, int, int]]:
    """``(d, dw, in_a)`` of the lex-least core geodesic from each target to
    q, from one walk of their geodesic tree with running per-wall crossing
    counts."""
    children = geodesic_tree(core, q, targets)
    wall_of_edge = ws.wall_of_edge
    count = [0] * len(wall_of_edge)  # per wall id, the least edge id of the wall
    out: dict[int, tuple[int, int, int]] = {}
    d = dw = in_a = 0
    stack = list(children.get(q, ()))  # (child, edge id) to enter, (-1, wall) to leave
    while stack:
        v, wid = stack.pop()
        # entering adds the wall's crossing number k + 1, leaving takes it
        # away: the wall is crossed once at k = 0 and no longer at k = 1,
        # and each crossing flips the parity
        if v >= 0:
            wid = wall_of_edge[wid]
            k = count[wid]
            count[wid] = k + 1
            d += 1
            if k == 0:
                in_a += 1
                dw += 1
            elif k == 1:
                in_a -= 1
                dw -= 1
            else:
                dw += -1 if k & 1 else 1
            if v in targets:
                out[v] = (d, dw, in_a)
            stack.append((-1, wid))
            kids = children.get(v)
            if kids:
                stack.extend(kids)
        else:
            k = count[wid] - 1
            count[wid] = k
            d -= 1
            if k == 0:
                in_a -= 1
                dw -= 1
            elif k == 1:
                in_a += 1
                dw += 1
            else:
                dw += 1 if k & 1 else -1
    return out


def wall_distance(
    ws: WallSystem,
    p: int,
    q: int,
    via: Literal["parity", "components"] = "parity",
) -> WallDistance:
    """Number of walls separating p from q.  Parity mode counts odd
    crossings of the geodesic (valid on two-sided walls); components mode
    compares the sides of each two-sided wall in the spanning tree.
    """
    if via not in ("parity", "components"):
        raise BadParams(f"unknown mode {via!r}")
    tp, tq = _tin(ws, p), _tin(ws, q)
    if p == q:
        return WallDistance(0)
    if via == "parity":
        return WallDistance(geodesic_crossings(ws.complex, ws, q, (p,))[p][1])
    bridge_child, tin, tout = ws.tree.bridge_child, ws.tree.tin, ws.tree.tout
    size, splits = ws.walls.size, ws._splits
    total = 0
    for wid in ws.walls:
        split = splits.get(wid)
        if split is None:
            if size(wid) == 1:  # the bridge test, with no WallSplit made
                x = bridge_child(wid)
                total += x >= 0 and (tin[x] <= tp < tout[x]) != (tin[x] <= tq < tout[x])
                continue
            split = _split(ws, wid)
        total += split.two_sided and split.side(tp) != split.side(tq)
    return WallDistance(total)


def separates(ws: WallSystem, wid: int, p: int, q: int) -> bool | None:
    """Side comparison for one wall; None when the wall is not two-sided."""
    _wall_size(ws, wid)
    tp, tq = _tin(ws, p), _tin(ws, q)
    split = _split(ws, wid)
    if not split.two_sided:
        return None
    return split.side(tp) != split.side(tq)


# ---------------------------------------------------------------------------
# Dump formats


def dump_walls(ws: WallSystem, wall_ids: Iterable[int] | None = None) -> str:
    lines = []
    for wid in (ws.wall_ids() if wall_ids is None else sorted(set(wall_ids))):
        edge_list = ",".join(str(e) for e in _wall_edges(ws, wid))
        lines.append(f"wall {wid} edges={edge_list}")
        for cid, e1, e2 in ws.hyperedges[wid]:
            lines.append(f"  hyper {cid} {e1} {e2}")
    return "\n".join(lines) + "\n"


def walls_to_dot(ws: WallSystem, wall_ids: Iterable[int] | None = None) -> str:
    """Hypergraphs as a DOT graph: nodes are wall edges, links are cells."""
    ids = ws.wall_ids() if wall_ids is None else sorted(set(wall_ids))
    out = ["graph walls {"]
    for wid in ids:
        out.append(f"  subgraph cluster_w{wid} {{")
        out.append(f'    label="wall {wid}";')
        for eid in _wall_edges(ws, wid):
            u, v = ws.complex.edges[eid]
            out.append(f'    e{eid} [label="e{eid} ({u}-{v})"];')
        for cid, e1, e2 in ws.hyperedges[wid]:
            out.append(f'    e{e1} -- e{e2} [label="c{cid}"];')
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"
