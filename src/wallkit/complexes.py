"""Combinatorial 2-complexes: Cayley balls, subdivision, counterexample
builders, cell-level pieces, and the B(6) check.

A complex is vertices + undirected edges + 2-cells given as closed boundary
cycles of (edge id, direction).  Cells are deduplicated by boundary edge
set: two cells attached along the same boundary are the same cell.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .dehn import DehnMachine, dehn_reduce, is_trivial, letter_rank
from .errors import BadParams, BudgetExceeded, ParseError
from .presentation import Presentation, piece_index
from .words import Word, render

Token = tuple[int, int]  # (edge id, direction: +1 traverses stored u->v)


@dataclass(frozen=True, slots=True)
class Adjacency:
    """A graph's edges at each vertex, in increasing edge id: ``nbrs[v]``
    is the tuple of v's neighbours, and the id of the edge to
    ``nbrs[v][i]`` is ``eids[start[v] + i]``.  A loop is listed twice at its
    vertex.  Searches read the neighbour tuples alone, and an edge id by
    its position: there is no (neighbour, edge id) tuple per edge end.
    """

    nbrs: list[tuple[int, ...]]
    eids: array
    start: array  # nv + 1 offsets into eids


def adjacency_of(nv: int, edges: Sequence[tuple[int, int]], subset: Sequence[int] | None = None) -> Adjacency:
    """The Adjacency on vertices 0..nv-1 of the edges ``edges[e]`` for e in
    ``subset``, which must increase (default: every edge).  The neighbour
    tuples share their ints with ``edges``."""
    ids = range(len(edges)) if subset is None else subset
    lists: list[list[int]] = [[] for _ in range(nv)]
    for e in ids:
        u, v = edges[e]
        lists[u].append(v)
        lists[v].append(u)
    nbrs = list(map(tuple, lists))
    del lists
    start = array("l", accumulate(map(len, nbrs), initial=0))
    fill = array("l", start)
    out = array("l", [0]) * start[nv]
    for e in ids:
        u, v = edges[e]
        out[fill[u]] = e
        fill[u] += 1
        out[fill[v]] = e
        fill[v] += 1
    return Adjacency(nbrs, out, start)


@dataclass(eq=False)
class Complex:
    """Immutable-after-build combinatorial 2-complex."""

    edges: list[tuple[int, int]]
    cells: list[tuple[Token, ...]]
    nv: int
    vertex_labels: Mapping[int, str] = field(default_factory=dict)
    edge_gens: array | None = None  # eid -> generator index (u * gen = v), -1 for none; None: all -1
    origin: str = "file"
    radius: int | None = None
    base: int | None = None
    dist: list[int] | None = None
    subdivided: bool = False
    generator_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.edge_gens is None:
            self.edge_gens = array("b", [-1]) * len(self.edges)
        self._adj: Adjacency | None = None

    # -- structure --------------------------------------------------------

    def adjacency(self) -> Adjacency:
        if self._adj is None:
            self._adj = adjacency_of(self.nv, self.edges)
        return self._adj

    def edge_ends(self, token: Token) -> tuple[int, int]:
        eid, d = token
        u, v = self.edges[eid]
        return (u, v) if d > 0 else (v, u)

    def cell_vertices(self, cid: int) -> list[int]:
        return [self.edge_ends(tok)[0] for tok in self.cells[cid]]

    def cell_edge_set(self, cid: int) -> frozenset[int]:
        return frozenset(eid for eid, _ in self.cells[cid])

    def labeled(self, label: str) -> int:
        for vid, lab in self.vertex_labels.items():
            if lab == label:
                return vid
        raise KeyError(label)

    def bfs_distances(self, src: int) -> list[int]:
        return bfs(self.adjacency().nbrs, src)[0]

    def validate(self) -> list[int]:
        """Check the structure; return the distances from ``base`` (or from
        vertex 0 when no base is recorded), the BFS that shows connectivity."""
        if self.nv < 0:
            raise ParseError(f"vertex count {self.nv} is negative")
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.nv and 0 <= v < self.nv):
                raise ParseError(f"edge {eid} endpoint out of range")
        if len(self.edge_gens) != len(self.edges):
            raise ParseError(f"{len(self.edge_gens)} edge generators for {len(self.edges)} edges")
        seen_sets: dict[frozenset[int], int] = {}
        for cid, cell in enumerate(self.cells):
            if not cell:
                raise ParseError(f"cell {cid} is empty")
            if any(not 0 <= eid < len(self.edges) for eid, _ in cell):
                raise ParseError(f"cell {cid} names an edge outside 0..{len(self.edges) - 1}")
            for i, tok in enumerate(cell):
                nxt = cell[(i + 1) % len(cell)]
                if nxt == (tok[0], -tok[1]):
                    raise ParseError(f"cell {cid} boundary backtracks along edge {tok[0]}")
                _, head = self.edge_ends(tok)
                tail_next, _ = self.edge_ends(nxt)
                if head != tail_next:
                    raise ParseError(f"cell {cid} boundary is not a closed edge path")
            key = self.cell_edge_set(cid)
            if key in seen_sets:
                raise ParseError(f"cells {seen_sets[key]} and {cid} share the same boundary edge set")
            seen_sets[key] = cid
        if self.base is not None and not 0 <= self.base < self.nv:
            raise ParseError(f"base vertex {self.base} outside 0..{self.nv - 1}")
        dist = self.bfs_distances(self.base or 0) if self.nv else []
        if any(d < 0 for d in dist):
            raise ParseError("1-skeleton is not connected")
        return dist

    def has_odd_cell(self) -> bool:
        return any(len(cell) % 2 for cell in self.cells)


def check_geodesic_ends(nv: int, q: int, targets: set[int]) -> None:
    """BadParams unless q and the targets are ids in 0..nv-1 and q is not
    a target."""
    for v in (q, *targets):
        if not 0 <= v < nv:
            raise BadParams(f"no vertex {v}: ids run 0..{nv - 1}")
    if q in targets:
        raise BadParams("geodesic endpoints must differ")


def bfs(nbrs: Sequence[Sequence[int]], src: int, targets: Iterable[int] = ()) -> tuple[list[int], list[int]]:
    """The breadth-first search from src over ``nbrs``, each vertex's
    neighbours (``Adjacency.nbrs``): the distance list (-1 where a vertex
    is unreached) and the vertices in the order they are reached, level by
    level.  With targets, the search stops once it has reached all of
    them, so every level nearer src is complete.  BadParams for a src
    outside the graph.
    """
    if not 0 <= src < len(nbrs):
        raise BadParams(f"no vertex {src}: ids run 0..{len(nbrs) - 1}")
    want = set(targets)
    dist = [-1] * len(nbrs)
    dist[src] = 0
    order = [src]
    if not want:  # search it all, with no per-vertex target test
        for u in order:  # a list iterator sees the appends
            du = dist[u] + 1
            for v in nbrs[u]:
                if dist[v] < 0:
                    dist[v] = du
                    order.append(v)
        return dist, order
    left = len(want) - (src in want)
    for u in order:
        if not left:
            break
        du = dist[u] + 1
        for v in nbrs[u]:
            if dist[v] < 0:
                dist[v] = du
                order.append(v)
                if v in want:
                    left -= 1
    return dist, order


def geodesic_tree(adj: Adjacency, q: int, targets: Iterable[int]) -> dict[int, list[tuple[int, int]]]:
    """The lex-least geodesics from the targets to q, as one tree rooted at
    q: ``{vertex: [(child, edge id), ...]}``.  Any edge into the level one
    nearer q keeps a geodesic open and the first edge that differs decides
    the order, so each vertex descends by its least edge id into that
    level: its first such neighbour, as ``adj`` lists edges in increasing
    id.  ``bfs`` from q stops once it has reached every target, and by
    then each level nearer q is complete.  BadParams for equal ends, an id
    outside the graph or an unreached target.
    """
    nbrs, eids, start = adj.nbrs, adj.eids, adj.start
    want = set(targets)
    check_geodesic_ends(len(nbrs), q, want)
    if not want:
        return {}
    dist, _ = bfs(nbrs, q, want)
    if -1 in map(dist.__getitem__, want):
        raise BadParams(f"vertex {min(v for v in want if dist[v] < 0)} is not reached from {q}")

    children: dict[int, list[tuple[int, int]]] = {}
    in_tree = {q}
    for v in want:
        while v not in in_tree:
            in_tree.add(v)
            below, nb, i = dist[v] - 1, nbrs[v], 0
            while dist[nb[i]] != below:
                i += 1
            w = nb[i]
            children.setdefault(w, []).append((v, eids[start[v] + i]))
            v = w
    return children


def geodesic(c: Complex, p: int, q: int) -> list[int]:
    """Edge ids of the lexicographically least shortest p->q path: the
    chain from p in ``geodesic_tree(c.adjacency(), q, (p,))``."""
    tree = geodesic_tree(c.adjacency(), q, (p,))
    path: list[int] = []
    while q != p:
        ((q, eid),) = tree[q]
        path.append(eid)
    return path[::-1]


class _Builder:
    def __init__(self, origin: str):
        self.origin = origin
        self.nv = 0
        self.edges: list[tuple[int, int]] = []
        self.cells: list[tuple[Token, ...]] = []
        self.vertex_labels: dict[int, str] = {}
        self.edge_gens = array("b")

    def vertex(self, label: str | None = None) -> int:
        vid = self.nv
        self.nv += 1
        if label is not None:
            self.vertex_labels[vid] = label
        return vid

    def edge(self, u: int, v: int, gen: int | None = None) -> int:
        eid = len(self.edges)
        self.edges.append((u, v))
        self.edge_gens.append(-1 if gen is None else gen)
        return eid

    def chain(self, u: int, v: int, length: int) -> list[Token]:
        """Path of unit edges from u to v; returns forward tokens."""
        if length < 1:
            raise BadParams("segment length must be >= 1")
        toks: list[Token] = []
        cur = u
        for i in range(length):
            nxt = v if i == length - 1 else self.vertex()
            toks.append((self.edge(cur, nxt), 1))
            cur = nxt
        return toks

    def cell(self, tokens: Sequence[Token]) -> int:
        self.cells.append(tuple(tokens))
        return len(self.cells) - 1

    def done(self, **metadata) -> Complex:
        c = Complex(self.edges, self.cells, self.nv, self.vertex_labels, self.edge_gens, origin=self.origin, **metadata)
        dist = c.validate()
        if c.base is not None:
            c.dist = dist
        return c


def reverse_tokens(tokens: Sequence[Token]) -> list[Token]:
    return [(eid, -d) for eid, d in reversed(tokens)]


# ---------------------------------------------------------------------------
# Counterexample builders


def build_example1(n_list: Iterable[int]) -> Complex:
    """Chain of theta graphs, two cells each, with the fixed segment lengths
    d(b,c)=d(c,d)=3, d(c,f)=2n, d(a,b)=d(d,e)=n, d(a,f)=d(f,e)=n+3."""
    ns = sorted(set(int(n) for n in n_list))
    if not ns or ns[0] < 1:
        raise BadParams("n_list must be nonempty with entries >= 1")
    b = _Builder("example1")
    prev_end: int | None = None
    for n in ns:
        a = b.vertex(f"a{n}")
        bb = b.vertex(f"b{n}")
        cc = b.vertex(f"c{n}")
        dd = b.vertex(f"d{n}")
        ee = b.vertex(f"e{n}")
        ff = b.vertex(f"f{n}")
        ab = b.chain(a, bb, n)
        bc = b.chain(bb, cc, 3)
        cd = b.chain(cc, dd, 3)
        de = b.chain(dd, ee, n)
        cf = b.chain(cc, ff, 2 * n)
        af = b.chain(a, ff, n + 3)
        fe = b.chain(ff, ee, n + 3)
        b.cell(ab + bc + cf + reverse_tokens(af))        # through a,b,c,f
        b.cell(cd + de + reverse_tokens(fe) + reverse_tokens(cf))  # through c,d,e,f
        if prev_end is not None:
            b.edge(prev_end, a)
        prev_end = ee
    return b.done()


def build_example2(x: int, half_r: int) -> Complex:
    """Two cells of length 2*half_r meeting along a segment of length x."""
    x, half_r = int(x), int(half_r)
    if x < 2 or x % 2:
        raise BadParams("x must be even and >= 2")
    if half_r <= x:
        raise BadParams("need half_r > x so all segment lengths are positive")
    b = _Builder("example2")
    a = b.vertex("a")
    q1 = b.vertex("q'")
    a1 = b.vertex("a'")
    a2 = b.vertex("a''")
    p1 = b.vertex("p'")
    p2 = b.vertex("p''")
    aq = b.chain(a, q1, x)
    qa1 = b.chain(q1, a1, half_r - x)
    qa2 = b.chain(q1, a2, half_r - x)
    a1p1 = b.chain(a1, p1, x // 2)
    a2p2 = b.chain(a2, p2, x // 2)
    p1a = b.chain(p1, a, half_r - x // 2)
    p2a = b.chain(p2, a, half_r - x // 2)
    b.cell(aq + qa1 + a1p1 + p1a)
    b.cell(aq + qa2 + a2p2 + p2a)
    return b.done()


# ---------------------------------------------------------------------------
# Subdivision


def subdivide(c: Complex) -> Complex:
    """Replace every edge by two edges through a fresh midpoint; doubles all
    path distances and cell lengths exactly.  Generator labels are dropped."""
    b = _Builder(c.origin)
    b.nv = c.nv
    b.vertex_labels = dict(c.vertex_labels)
    halves: list[tuple[int, int]] = []
    for u, v in c.edges:
        mid = b.vertex()
        e1 = b.edge(u, mid)
        e2 = b.edge(mid, v)
        halves.append((e1, e2))
    for cell in c.cells:
        toks: list[Token] = []
        for eid, d in cell:
            e1, e2 = halves[eid]
            toks.extend([(e1, 1), (e2, 1)] if d > 0 else [(e2, -1), (e1, -1)])
        b.cell(toks)
    return b.done(
        radius=None if c.radius is None else 2 * c.radius,
        base=c.base,
        subdivided=True,
        generator_names=c.generator_names,
    )


# ---------------------------------------------------------------------------
# Cayley balls


def _hnf_rows(vectors: list[tuple[int, ...]], g: int) -> list[tuple[int, tuple[int, ...]]]:
    """Row echelon basis (positive pivots) for the lattice spanned by vectors,
    each row with its pivot column."""
    rows = [list(v) for v in vectors if any(v)]
    basis: list[tuple[int, tuple[int, ...]]] = []
    for col in range(g):
        # Euclid down the column: the other rows' entries shrink below the pivot's
        while len(pool := [r for r in rows if r[col]]) > 1:
            piv = min(pool, key=lambda r: abs(r[col]))
            for r in pool:
                if r is not piv:
                    q = r[col] // piv[col]
                    r[:] = [a - q * b for a, b in zip(r, piv)]
        if pool:
            rows.remove(pool[0])
            basis.append((col, tuple(x if pool[0][col] > 0 else -x for x in pool[0])))
    return basis


def _ab_residue(vec: Sequence[int], basis: list[tuple[int, tuple[int, ...]]]) -> tuple[int, ...]:
    for col, row in basis:
        q = vec[col] // row[col]
        if q:
            vec = [a - q * b for a, b in zip(vec, row)]
    return tuple(vec)


def _act(perms: dict[int, tuple[int, ...]], w: Sequence[int], points: tuple[int, ...]) -> tuple[int, ...]:
    """The images of ``points`` under the letters of w, applied in turn."""
    for x in w:
        points = tuple(map(perms[x].__getitem__, points))
    return points


QUOTIENTS_WANTED = 3
QUOTIENT_TRIES = 4000


def _find_finite_quotients(p: Presentation, seed: int) -> dict[int, tuple[int, ...]]:
    """Each letter's permutation of the disjoint union of the points of up to
    ``QUOTIENTS_WANTED`` random permutation representations killing every
    relator.

    Used only to bucket candidate vertices during ball construction: merges
    are always re-verified exactly, so these affect speed, not correctness.
    A quotient has 6 to 9 points, or e for each exponent e > 9 of a
    relator u^e, so that u can act as an e-cycle: with (ab)^13 = 1, ab is
    trivial on 9 points or fewer.  e is capped so that the union of the
    quotients fits the 256 points of ElementTable's bytes image.
    """
    g = len(p.generators)
    union: dict[int, list[int]] = {s * (gi + 1): [] for gi in range(g) for s in (1, -1)}
    if not p.relators:
        return {x: () for x in union}
    total_len = sum(len(r) for r in p.relators)
    tries = max(200, min(QUOTIENT_TRIES, 4_000_000 // max(1, total_len)))
    powers = {len(r) // r.primitive_period() for r in p.relators}
    degrees = (6, 7, 8, 9) + tuple(sorted(e for e in powers if 9 < e <= 256 // QUOTIENTS_WANTED))
    rng = random.Random(seed)
    seen = set()
    for _ in range(tries):
        m = rng.choice(degrees)
        perms = []
        for _ in range(g):
            perm = list(range(m))
            rng.shuffle(perm)
            perms.append(tuple(perm))
        table = {gi + 1: perm for gi, perm in enumerate(perms)}
        table.update({-x: tuple(sorted(range(m), key=perm.__getitem__)) for x, perm in table.items()})  # inverses
        points = tuple(range(m))
        if all(_act(table, r, points) == points for r in p.relators) and any(x != points for x in perms):
            key = tuple(perms)
            if key not in seen:
                seen.add(key)
                for x, perm in table.items():
                    offset = len(union[x])
                    union[x].extend(offset + s for s in perm)
                if len(seen) >= QUOTIENTS_WANTED:
                    break
    return {x: tuple(perm) for x, perm in union.items()}


def _code(w: Sequence[int]) -> bytes:
    """A word as bytes, one signed byte per letter."""
    return array("b", w).tobytes()


def _word(code: bytes) -> Word:
    """The Word of ``_code``'s bytes."""
    return Word._trusted(memoryview(code).cast("b"))


class ElementTable:
    """The elements of a 1/6 presentation's group, numbered in shortlex
    order of their least words: sphere k is ids ``spheres[k]`` up to
    ``spheres[k + 1]``.

    Element v keeps its least word as bytes, ``words[v]``, one signed byte
    per letter (``vid_of`` maps the bytes back, and ``word(v)`` is the
    Word), the move that made it, ``parent[v] * letter[v]`` (the shortlex tree,
    which is all a Cayley ball keeps of the table), its automaton state,
    and its bucket key: its image in a few finite
    quotients that the seed picks, and its abelianization class.
    ``step(u, x)`` is the table's one move, and ``walk``, ``index`` and
    ``key`` go through its parts: u*x lands on the element of its Dehn
    reduction, or else on one that shares its key and that Dehn's
    algorithm proves equal to it, so the seed changes how many candidates
    are probed, never the table.  Step runs Dehn's algorithm only when one
    automaton step from u's state hits, on the premise that ``word(u)`` is
    Dehn-reduced (here because stored words are geodesic): then a >half
    relator subword of the freely reduced word(u)*x can only be a suffix.

    The quotient image is a ``bytes`` of the points' images, stepped by x
    with one ``translate`` through x's 256-byte table; the abelian residue
    is stepped through a per-letter memo, so elements share residue tuples.

    The ids that share a key form a ring in ``chain``: ``buckets`` maps the
    key to its last id, and ``chain[v]`` is the next id after v, the first
    after the last.  A new id joins at the end in O(1), and ``bucket``
    reads the ring in ascending order, so probes go oldest first.
    """

    def __init__(self, p: Presentation, m: DehnMachine, *, vertex_budget: int, seed: int = 0):
        m._require_ok()
        g = len(p.generators)
        if g > 127:
            raise ValueError(f"{g} generators; a signed byte holds the letters of at most 127")
        self.p, self.m, self.vertex_budget = p, m, vertex_budget
        self.letters = sorted((s * (gi + 1) for gi in range(g) for s in (1, -1)), key=letter_rank)
        self.letter_bytes = {x: _code((x,)) for x in self.letters}
        self.perms = _find_finite_quotients(p, seed)
        points = len(next(iter(self.perms.values()), ()))
        if points > 256:
            raise ValueError(f"quotient union has {points} points; a bytes image holds at most 256")
        self.tabs = {x: bytes(perm) + bytes(range(points, 256)) for x, perm in self.perms.items()}
        self.ab_basis = _hnf_rows([_ab_vector(r, g) for r in p.relators], g)
        self.ab_step: dict[int, dict[tuple, tuple]] = {x: {} for x in self.letters}
        self.delta, self.hit = m.automaton()
        self.words: list[bytes] = [b""]
        self.vid_of: dict[bytes, int] = {b"": 0}
        self.parent = array("l", [-1])
        self.letter = array("b", [0])
        self.state = array("l", [0])
        # bucket key: (image of the quotients' points, abelian residue)
        self.keys: list[tuple[bytes, tuple]] = [(bytes(range(points)), (0,) * g)]
        self.buckets: dict[tuple[bytes, tuple], int] = {self.keys[0]: 0}
        self.chain = array("l", [0])
        self.spheres = [0, 1]

    def _key_step(self, key: tuple[bytes, tuple], x: int) -> tuple[bytes, tuple]:
        """The bucket key of an element keyed ``key``, times x: the image
        through x's translate table, the residue through x's memo."""
        image, residue = key
        memo = self.ab_step[x]
        nxt = memo.get(residue)
        if nxt is None:
            ab = list(residue)
            ab[abs(x) - 1] += 1 if x > 0 else -1
            nxt = memo[residue] = _ab_residue(ab, self.ab_basis)
        return image.translate(self.tabs[x]), nxt

    def bucket(self, key: tuple[bytes, tuple]) -> Iterator[int]:
        """The ids whose key is ``key``, in ascending order."""
        last = self.buckets.get(key)
        if last is None:
            return
        v, chain = last, self.chain
        while True:
            v = chain[v]
            yield v
            if v == last:
                return

    def word(self, v: int) -> Word:
        """The least word of element v."""
        return _word(self.words[v])

    def _find(self, code: bytes, key: tuple[bytes, tuple]) -> int | None:
        """The id of the element of the Dehn-reduced word of bytes ``code``,
        keyed ``key``, or None: an exact lookup, then Dehn's algorithm
        against the word's bucket."""
        if key not in self.buckets:
            return None  # every element's key is in ``buckets``
        v = self.vid_of.get(code)
        if v is None and self.p.relators:
            w = _word(code)
            v = next((b for b in self.bucket(key) if is_trivial(w + self.word(b).inverse(), self.m)), None)
        return v

    def step(self, u: int, x: int, make: bool = True) -> int | None:
        """The id of the element of u*x.  With ``make`` an element not in
        the table is made, the last id, with u*x as its word (else None);
        past the vertex budget BudgetExceeded comes before any store."""
        if x == -self.letter[u]:
            return self.parent[u]  # back along u's last letter
        words = self.words
        s = self.delta[self.state[u]][x]
        cand = words[u] + self.letter_bytes[x]
        key = self._key_step(self.keys[u], x)
        v = self._find(_code(dehn_reduce(_word(cand), self.m)) if self.hit[s] else cand, key)
        if v is None and make:
            if len(words) >= self.vertex_budget:
                raise BudgetExceeded(f"element budget {self.vertex_budget} exhausted at radius {len(self.spheres) - 1}")
            v = len(words)
            words.append(cand)
            self.vid_of[cand] = v
            self.parent.append(u)
            self.letter.append(x)
            self.state.append(s)
            self.keys.append(key)
            chain, last = self.chain, self.buckets.get(key, v)
            chain.append(v)
            chain[v], chain[last] = chain[last], v  # v joins the ring after its last id
            self.buckets[key] = v
        return v

    def walk(self, make: bool = True) -> Iterator[tuple[int, int, int | None]]:
        """Yield ``(u, x, step(u, x, make))`` for each move out of the
        outermost whole sphere in shortlex order, but the one back along
        u's last letter.  With ``make`` the walk then closes the next sphere."""
        letters, letter, step = self.letters, self.letter, self.step
        for u in range(self.spheres[-2], self.spheres[-1]):
            back = -letter[u]
            for x in letters:
                if x != back:
                    yield u, x, step(u, x, make)
        if make:
            self.spheres.append(len(self.words))

    def key(self, w: Sequence[int]) -> tuple[bytes, tuple]:
        """The bucket key of w's element: step's key step folded over w."""
        return reduce(self._key_step, w, self.keys[0])

    def index(self, w: Word) -> int:
        """The id of the element of the Dehn-reduced word w.  If the table
        does not hold it, the table grows in shortlex order up to the first
        element made that equals w, and that element's word is w's
        shortlex-least word.  After a BudgetExceeded the next growth walks
        the unfinished sphere again and finds what it made by lookup."""
        key = self.key(w)
        v = self._find(_code(w), key)
        if v is not None:
            return v
        made = len(self.words)
        while True:
            for _ in self.walk():
                if len(self.words) > made:
                    made += 1
                    if self.keys[made - 1] == key and is_trivial(w + self.word(made - 1).inverse(), self.m):
                        return made - 1


class WordLabels(Mapping):
    """Vertex labels of a Cayley ball: each vertex's word in the shortlex
    tree (vertex v > 0 is ``parent[v] * letter[v]``), rendered with the
    generator names.  The first read spells the words out, parents first,
    and renders every label; the build reads none, and keeps no word."""

    def __init__(self, parent: Sequence[int], letter: Sequence[int], names: Sequence[str]):
        self._tree, self._names = (parent, letter), names
        self._labels: dict[int, str] | None = None

    def _rendered(self) -> dict[int, str]:
        if self._labels is None:
            parent, letter = self._tree
            words = [Word()]
            for u, x in zip(parent[1:], letter[1:]):
                words.append(Word._trusted(words[u] + (x,)))
            self._labels = {vid: render(w, self._names) for vid, w in enumerate(words)}
            self._tree = ((), ())
        return self._labels

    def __getitem__(self, vid: int) -> str:
        return self._rendered()[vid]

    def __iter__(self) -> Iterator[int]:
        return iter(self._rendered())

    def __len__(self) -> int:
        return len(self._rendered())


def _grow_ball(p: Presentation, m: DehnMachine, radius: int, *, vertex_budget: int, seed: int) -> tuple:
    """The generator moves between the elements of an ElementTable grown
    ``radius`` times: ``(edges, edge_gens, moves, parent, letter,
    spheres)``, with ``moves[x][u]`` the id of the edge of u*x (-1 for
    none) and the table's shortlex tree and spheres.  The table dies on
    return."""
    table = ElementTable(p, m, vertex_budget=vertex_budget, seed=seed)
    edges: list[tuple[int, int]] = []
    edge_gens = array("b")
    moves = {x: array("l", [-1]) for x in table.letters}  # one slot per element
    maps = tuple(moves.values())
    # The last pass (level == radius) makes no element: it only closes edges
    # among the boundary vertices, and a move that meets no element leaves
    # the ball.
    for level in range(radius + 1):
        for u, x, v in table.walk(make=level < radius):
            # u * letter(x) = v, stored in the positive letter direction;
            # the move v * letter(-x) = u is recorded with it
            if v is None:
                continue
            if v == len(maps[0]):  # v was just made
                for a in maps:
                    a.append(-1)
            elif moves[x][u] >= 0:
                continue
            eid = len(edges)
            edges.append((u, v) if x > 0 else (v, u))
            edge_gens.append(abs(x) - 1)
            moves[x][u] = eid
            moves[-x][v] = eid
    return edges, edge_gens, moves, table.parent, table.letter, table.spheres


def trace_cells(
    relators: Iterable[Word],
    moves: Mapping[int, Sequence[int]],
    edges: Sequence[tuple[int, int]],
    starts: Sequence[int],
) -> list[tuple[Token, ...]]:
    """The relator cycles from each vertex of ``starts`` whose every move
    has an edge (``moves[x][u]``: the id of the edge of u*x, stored u->v
    for x > 0 and v->u for x < 0, or -1), one cell per boundary edge set."""
    cells: list[tuple[Token, ...]] = []
    seen: set[frozenset[int]] = set()
    for r in relators:
        steps = [(moves[x], x < 0) for x in r]
        for v0 in starts:
            cur = v0
            toks: list[Token] = []
            for step, back in steps:
                eid = step[cur]
                if eid < 0:
                    break
                u, v = edges[eid]
                toks.append((eid, 1 if u == cur else -1))
                cur = u if back else v
            else:
                if cur == v0:
                    key = frozenset(eid for eid, _ in toks)
                    if key not in seen:
                        seen.add(key)
                        cells.append(tuple(toks))
    return cells


def build_cayley_ball(
    p: Presentation,
    m: DehnMachine,
    radius: int,
    *,
    vertex_budget: int = 500_000,
    seed: int = 0,
) -> Complex:
    """Ball of the Cayley complex: vertices are the elements of an
    ElementTable grown ``radius`` times, edges are generator moves between
    them, cells are relator cycles lying entirely inside the ball.  The
    seed picks the table's quotients, so it never changes the ball.

    Of the table the ball keeps its shortlex tree, for the labels, and its
    spheres, for the distances; the table and the move maps are gone
    before the complex is checked.  Auto-subdivides if any attached cell
    has odd length.
    """
    if radius < 1:
        raise BadParams("radius must be >= 1")
    edges, edge_gens, moves, parent, letter, spheres = _grow_ball(
        p, m, radius, vertex_budget=vertex_budget, seed=seed
    )
    nv = len(parent)
    cells = trace_cells(p.relators, moves, edges, range(nv))
    del moves  # the largest structure left: free it before the adjacency is built
    c = Complex(
        edges,
        cells,
        nv,
        vertex_labels=WordLabels(parent, letter, p.generators),
        edge_gens=edge_gens,
        origin="cayley-ball",
        radius=radius,
        base=0,
        dist=[k for k in range(len(spheres) - 1) for _ in range(spheres[k], spheres[k + 1])],
        generator_names=p.generators,
    )
    c.validate()
    if c.has_odd_cell():
        return subdivide(c)
    return c


def _ab_vector(w: Word, g: int) -> tuple[int, ...]:
    return tuple(w.count(gi + 1) - w.count(-gi - 1) for gi in range(g))


def boundary_word(c: Complex, cid: int) -> Word:
    """Read the generator labels along a cell boundary (Cayley balls only)."""
    letters = []
    for eid, d in c.cells[cid]:
        gen = c.edge_gens[eid]
        if gen < 0:
            raise BadParams(f"edge {eid} has no generator")
        letters.append((gen + 1) * (1 if d > 0 else -1))
    return Word(letters)


# ---------------------------------------------------------------------------
# Cell-level pieces


@dataclass(frozen=True)
class CellOccurrence:
    cell: int
    start: int      # leftmost boundary slot of the occurrence
    length: int
    forward: bool   # True: path reads slots start..start+length-1 in order


@dataclass(frozen=True)
class CellPiece:
    path: tuple[Token, ...]
    occ1: CellOccurrence
    occ2: CellOccurrence

    @property
    def length(self) -> int:
        return len(self.path)


def compute_cell_pieces(c: Complex) -> list[CellPiece]:
    """Maximal common boundary subpaths over pairs of cells (including a cell
    with itself at offsets not related by a rotation of its boundary).

    A cell boundary read as a cyclic word over the edge letters
    ``(eid+1)*d`` is a relator over the edges, and a common boundary path of
    two cells is exactly a piece of those words (Lyndon-Schupp, Ch. V), so
    the presentation piece engine finds them.  Its witnesses hold starts
    modulo the boundary's period; each is expanded over the rotations.
    """
    words = [Word((eid + 1) * d for eid, d in cell) for cell in c.cells]
    out: list[CellPiece] = []
    for pc in piece_index(words).pieces:
        n = pc.length
        fwd, other = pc.witnesses if pc.witnesses[0][1] > 0 else pc.witnesses[::-1]
        starts = []
        for cid, o, s in (fwd, other):
            L = len(words[cid])
            rotations = range(s, L, words[cid].primitive_period())
            # An inverse-orientation start counts slots from the far end.
            starts.append(list(rotations) if o > 0 else [(L - t - n) % L for t in rotations])
        cell1 = c.cells[fwd[0]]
        for s1 in starts[0]:
            path = tuple(cell1[(s1 + k) % len(cell1)] for k in range(n))
            occ1 = CellOccurrence(fwd[0], s1, n, True)
            for s2 in starts[1]:
                out.append(CellPiece(path, occ1, CellOccurrence(other[0], s2, n, other[1] > 0)))
    out.sort(key=lambda pc: (-pc.length, pc.occ1.cell, pc.occ1.start, pc.occ2.cell, pc.occ2.start, pc.occ2.forward))
    return out


# ---------------------------------------------------------------------------
# B(6) and the complex-level metric condition


@dataclass
class CellVerdict:
    cid: int
    boundary_length: int
    max_piece: int
    max_three_piece_span: int
    b6_ok: bool
    cprime_ok: bool


@dataclass
class B6Report:
    lam: Fraction
    cells: list[CellVerdict]
    b6_passed: bool
    cprime_passed: bool
    implication_ok: bool
    witness: tuple[int, int, int] | None  # (cell, start slot, span)
    pieces: list[CellPiece] = field(repr=False)


def check_B6(c: Complex, lam: Fraction | None = None) -> B6Report:
    """Every boundary path made of at most 3 pieces must have length at most
    half the cell boundary; also runs the strict complex-level piece bound
    and cross-checks that the 1/6 bound forces the 3-piece bound."""
    lam = Fraction(lam) if lam is not None else Fraction(1, 6)
    pieces = compute_cell_pieces(c)
    intervals: dict[int, list[tuple[int, int]]] = {cid: [] for cid in range(len(c.cells))}
    for pc in pieces:
        for occ in (pc.occ1, pc.occ2):
            intervals[occ.cell].append((occ.start, occ.length))
    verdicts = []
    witness = None
    for cid, cell in enumerate(c.cells):
        L = len(cell)
        reach1 = list(range(2 * L + 1))
        for f, length in intervals[cid]:
            for rep in (f - L, f, f + L):
                for s in range(max(rep, 0), min(rep + length, 2 * L + 1)):
                    reach1[s] = max(reach1[s], min(rep + length, s + L))
        reach_prev = reach1
        for _ in range(2):  # lift to <=2 then <=3 pieces
            # every reach array is nondecreasing in s, so the best next piece
            # starts where the first one reaches
            reach_prev = [min(reach_prev[min(reach1[s], 2 * L)], s + L) for s in range(2 * L + 1)]
        span = max(reach_prev[s] - s for s in range(L))
        smax = max(range(L), key=lambda s: reach_prev[s] - s)
        max_piece = max((length for _, length in intervals[cid]), default=0)
        b6_ok = 2 * span <= L
        cp_ok = Fraction(max_piece) < lam * L
        verdicts.append(CellVerdict(cid, L, max_piece, span, b6_ok, cp_ok))
        if not b6_ok and witness is None:
            witness = (cid, smax, span)
    b6 = all(v.b6_ok for v in verdicts)
    cp = all(v.cprime_ok for v in verdicts)
    return B6Report(lam, verdicts, b6, cp, (not cp) or b6, witness, pieces)


# ---------------------------------------------------------------------------
# Validity summary (is this finite complex a sound object in its own right?)


@dataclass
class ValiditySummary:
    connected: bool
    even_cells: bool
    cycle_rank: int
    cell_rank: int
    h1_trivial: bool
    distances_consistent: bool
    cprime_ok: bool

    def failing(self) -> list[str]:
        """The names of the checks that fail, in field order."""
        checks = ("connected", "even_cells", "h1_trivial", "distances_consistent", "cprime_ok")
        return [name for name in checks if not getattr(self, name)]

    @property
    def ok(self) -> bool:
        return not self.failing()


def _cell_rank(cells: Iterable[Sequence[Token]]) -> int:
    """The GF(2) rank of the cells' edge masks, by an XOR basis keyed by
    top bit: a new mask is cleared until its top bit is new or it is 0."""
    basis: dict[int, int] = {}
    for cell in cells:
        mask = 0
        for eid, _ in cell:
            mask ^= 1 << eid
        while mask.bit_length() in basis:
            mask ^= basis[mask.bit_length()]
        if mask:
            basis[mask.bit_length()] = mask
    return len(basis)


def validity_summary(c: Complex, lam: Fraction = Fraction(1, 6)) -> ValiditySummary:
    # one BFS, from the recorded base if any, serves both connectivity and
    # the recorded distances; the piece check is the strict C'(lam) bound
    dist = c.bfs_distances(0 if c.base is None else c.base) if c.nv else []
    connected = all(d >= 0 for d in dist)
    even_cells = not c.has_odd_cell()
    cycle_rank = len(c.edges) - c.nv + 1
    rank = _cell_rank(c.cells)
    dist_ok = c.dist is None or c.base is None or dist == list(c.dist)
    return ValiditySummary(
        connected, even_cells, cycle_rank, rank, cycle_rank == rank, dist_ok, check_B6(c, lam).cprime_passed
    )


# ---------------------------------------------------------------------------
# File format


def save_complex(c: Complex) -> str:
    lines = ["wallkit-complex 1", f"meta origin {c.origin}"]
    if c.radius is not None:
        lines.append(f"meta radius {c.radius}")
    if c.base is not None:
        lines.append(f"meta base {c.base}")
    if c.subdivided:
        lines.append("meta subdivided 1")
    if c.generator_names:
        lines.append("meta gens " + " ".join(c.generator_names))
    lines.append(f"counts {c.nv} {len(c.edges)} {len(c.cells)}")
    for vid in range(c.nv):
        lab = c.vertex_labels.get(vid)
        # a label is the rest of its line: one line, no whitespace at the ends
        if lab is not None and (lab.splitlines() != [lab] or lab != lab.strip()):
            raise ParseError(f"vertex label {lab!r} not serializable")
        lines.append(f"v {vid}" + (f" {lab}" if lab is not None else ""))
    for eid, (u, v) in enumerate(c.edges):
        gen = c.edge_gens[eid]
        lines.append(f"e {eid} {u} {v}" + (f" {c.generator_names[gen]}" if gen >= 0 else ""))
    for cid, cell in enumerate(c.cells):
        toks = " ".join(str((eid + 1) * d) for eid, d in cell)
        lines.append(f"c {cid} {toks}")
    return "\n".join(lines) + "\n"


def _ints(line: str, fields: Sequence[str], count: int) -> list[int]:
    """The first ``count`` fields of a file line, as integers."""
    if len(fields) < count:
        raise ParseError(f"line {line!r} is missing fields")
    try:
        return [int(t) for t in fields[:count]]
    except ValueError:
        raise ParseError(f"line {line!r} has a non-integer field") from None


def load_complex(text: str) -> Complex:
    lines = [ln.rstrip("\n") for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("wallkit-complex"):
        raise ParseError("missing wallkit-complex header")
    meta: dict[str, str] = {}
    idx = 1
    while idx < len(lines) and lines[idx].startswith("meta "):
        parts = lines[idx].split(" ", 2)
        meta[parts[1]] = parts[2] if len(parts) > 2 else ""
        idx += 1
    if idx >= len(lines) or not lines[idx].startswith("counts "):
        raise ParseError("missing counts line")
    nv, ne, nc = _ints(lines[idx], lines[idx].split()[1:], 3)
    idx += 1
    gens = tuple(meta.get("gens", "").split()) if meta.get("gens") else ()
    if len(gens) > 128:
        raise ParseError(f"{len(gens)} generators; an edge's generator index is one signed byte")
    gen_index = {name: i for i, name in enumerate(gens)}
    labels: dict[int, str | None] = {}  # None: a vertex line with no label
    edges: list[tuple[int, int]] = []
    edge_gens = array("b")
    cells: list[tuple[Token, ...]] = []
    for ln in lines[idx:]:
        parts = ln.split()
        if parts[0] == "v":
            vid = _ints(ln, parts[1:], 1)[0]
            if not 0 <= vid < nv:
                raise ParseError(f"line {ln!r} names a vertex outside 0..{nv - 1}")
            if vid in labels:
                raise ParseError(f"vertex {vid} is listed twice")
            labels[vid] = ln.split(None, 2)[2].strip() if len(parts) > 2 else None
        elif parts[0] == "e":
            eid, u, v = _ints(ln, parts[1:], 3)
            if eid != len(edges):
                raise ParseError("edge ids must be consecutive")
            edges.append((u, v))
            if len(parts) > 4 and parts[4] not in gen_index:
                raise ParseError(f"line {ln!r} names an unknown generator")
            edge_gens.append(gen_index[parts[4]] if len(parts) > 4 else -1)
        elif parts[0] == "c":
            vals = _ints(ln, parts[1:], max(1, len(parts) - 1))
            if vals[0] != len(cells):
                raise ParseError("cell ids must be consecutive")
            cells.append(tuple((abs(val) - 1, 1 if val > 0 else -1) for val in vals[1:]))
        else:
            raise ParseError(f"bad line {ln!r}")
    if len(edges) != ne or len(cells) != nc:
        raise ParseError("counts do not match body")
    c = Complex(
        edges,
        cells,
        nv,
        {vid: lab for vid, lab in labels.items() if lab is not None},
        edge_gens,
        origin=meta.get("origin", "file"),
        radius=_ints("meta radius", [meta["radius"]], 1)[0] if "radius" in meta else None,
        base=_ints("meta base", [meta["base"]], 1)[0] if "base" in meta else None,
        subdivided=meta.get("subdivided") == "1",
        generator_names=gens,
    )
    dist = c.validate()
    if c.base is not None:
        c.dist = dist
    return c
