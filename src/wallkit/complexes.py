"""Combinatorial 2-complexes: Cayley balls, subdivision, counterexample
builders, cell-level pieces, and the B(6) check.

A complex is vertices + undirected edges + 2-cells given as closed boundary
cycles of (edge id, direction).  Cells are deduplicated by boundary edge
set: two cells attached along the same boundary are the same cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .dehn import DehnMachine, dehn_reduce, is_trivial
from .errors import BadParams, BudgetExceeded, NotSmallCancellation, ParseError
from .presentation import Presentation, piece_index
from .words import Word, free_reduce

Token = tuple[int, int]  # (edge id, direction: +1 traverses stored u->v)


@dataclass(eq=False)
class Complex:
    """Immutable-after-build combinatorial 2-complex."""

    edges: list[tuple[int, int]]
    cells: list[tuple[Token, ...]]
    nv: int
    vertex_labels: dict[int, str] = field(default_factory=dict)
    edge_gens: dict[int, int] = field(default_factory=dict)  # eid -> generator index (u * gen = v)
    origin: str = "file"
    radius: int | None = None
    base: int | None = None
    dist: list[int] | None = None
    subdivided: bool = False
    generator_names: tuple[str, ...] = ()

    def __post_init__(self):
        self._adj: list[list[tuple[int, int]]] | None = None

    # -- structure --------------------------------------------------------

    def adjacency(self) -> list[list[tuple[int, int]]]:
        if self._adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.nv)]
            for eid, (u, v) in enumerate(self.edges):
                adj[u].append((v, eid))
                adj[v].append((u, eid))
            self._adj = adj
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
        dist = [-1] * self.nv
        dist[src] = 0
        adj = self.adjacency()
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v, _ in adj[u]:
                    if dist[v] < 0:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
        return dist

    def validate(self) -> None:
        if self.nv < 0:
            raise ParseError(f"vertex count {self.nv} is negative")
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.nv and 0 <= v < self.nv):
                raise ParseError(f"edge {eid} endpoint out of range")
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
        if self.nv and any(d < 0 for d in self.bfs_distances(0)):
            raise ParseError("1-skeleton is not connected")

    def has_odd_cell(self) -> bool:
        return any(len(cell) % 2 for cell in self.cells)


def geodesic(c: Complex, p: int, q: int, dist_to_q: list[int] | None = None) -> list[int]:
    """Edge ids of the lexicographically least shortest p->q path.

    Among shortest paths the edge-id sequence is minimized by greedily
    taking the least progressing edge at each step.
    """
    if p == q:
        raise BadParams("geodesic endpoints must differ")
    dq = dist_to_q if dist_to_q is not None else c.bfs_distances(q)
    adj = c.adjacency()
    path: list[int] = []
    cur = p
    while cur != q:
        best: tuple[int, int] | None = None
        for v, eid in adj[cur]:
            if dq[v] == dq[cur] - 1 and (best is None or eid < best[0]):
                best = (eid, v)
        path.append(best[0])
        cur = best[1]
    return path


class _Builder:
    def __init__(self, origin: str):
        self.origin = origin
        self.nv = 0
        self.edges: list[tuple[int, int]] = []
        self.cells: list[tuple[Token, ...]] = []
        self.vertex_labels: dict[int, str] = {}
        self.edge_gens: dict[int, int] = {}

    def vertex(self, label: str | None = None) -> int:
        vid = self.nv
        self.nv += 1
        if label is not None:
            self.vertex_labels[vid] = label
        return vid

    def edge(self, u: int, v: int, gen: int | None = None) -> int:
        eid = len(self.edges)
        self.edges.append((u, v))
        if gen is not None:
            self.edge_gens[eid] = gen
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
        c.validate()
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
    out = b.done(
        radius=None if c.radius is None else 2 * c.radius,
        base=c.base,
        subdivided=True,
        generator_names=c.generator_names,
    )
    if c.base is not None:
        out.dist = out.bfs_distances(c.base)
    return out


# ---------------------------------------------------------------------------
# Cayley balls


def _hnf_rows(vectors: list[tuple[int, ...]], g: int) -> list[tuple[int, ...]]:
    """Row echelon basis (positive pivots) for the lattice spanned by vectors."""
    rows = [list(v) for v in vectors if any(v)]
    basis: list[list[int]] = []
    for col in range(g):
        pool = [r for r in rows if r[col] != 0]
        if not pool:
            continue
        while True:
            pool.sort(key=lambda r: abs(r[col]))
            piv = pool[0]
            rest = pool[1:]
            done = True
            for r in rest:
                q = r[col] // piv[col]
                for j in range(g):
                    r[j] -= q * piv[j]
                if r[col] != 0:
                    done = False
            pool = [piv] + [r for r in rest if r[col] != 0]
            if done:
                break
        if piv[col] < 0:
            piv = [-x for x in piv]
        basis.append(list(piv))
        rows = [r for r in rows if r[col] == 0] + [r for r in pool[1:]]
    return [tuple(r) for r in basis]


def _ab_residue(vec: tuple[int, ...], basis: list[tuple[int, ...]]) -> tuple[int, ...]:
    v = list(vec)
    for row in basis:
        col = next(j for j, x in enumerate(row) if x)
        q = v[col] // row[col]
        for j in range(len(v)):
            v[j] -= q * row[j]
    return tuple(v)


def _find_finite_quotients(p: Presentation, seed: int, want: int = 3, tries: int = 4000) -> list[dict[int, tuple[int, ...]]]:
    """Random permutation representations killing every relator.

    Used only to bucket candidate vertices during ball construction: merges
    are always re-verified exactly, so these affect speed, not correctness.
    """
    if not p.relators:
        return []
    total_len = sum(len(r) for r in p.relators)
    tries = max(200, min(tries, 4_000_000 // max(1, total_len)))
    rng = random.Random(seed)
    g = len(p.generators)
    homs: list[dict[int, tuple[int, ...]]] = []
    seen = set()
    for _ in range(tries):
        m = rng.choice((6, 7, 8, 9))
        perms = []
        for _ in range(g):
            perm = list(range(m))
            rng.shuffle(perm)
            perms.append(tuple(perm))
        table: dict[int, tuple[int, ...]] = {}
        for gi, perm in enumerate(perms):
            inv = [0] * m
            for i, x in enumerate(perm):
                inv[x] = i
            table[gi + 1] = perm
            table[-(gi + 1)] = tuple(inv)
        ok = True
        for r in p.relators:
            state = tuple(range(m))
            for letter in r:
                perm = table[letter]
                state = tuple(perm[s] for s in state)
            if state != tuple(range(m)):
                ok = False
                break
        if ok and any(table[gi + 1] != tuple(range(m)) for gi in range(g)):
            key = tuple(table[gi + 1] for gi in range(g))
            if key not in seen:
                seen.add(key)
                homs.append(table)
                if len(homs) >= want:
                    break
    return homs


def build_cayley_ball(
    p: Presentation,
    m: DehnMachine,
    radius: int,
    *,
    vertex_budget: int = 500_000,
    seed: int = 0,
    force_subdivide: bool = False,
) -> Complex:
    """Ball of the Cayley complex: vertices are shortlex normal forms at
    distance <= radius, edges are generator moves between them, cells are
    relator cycles lying entirely inside the ball.

    Auto-subdivides if any attached cell has odd length; force_subdivide
    subdivides unconditionally.
    """
    if radius < 1:
        raise BadParams("radius must be >= 1")
    if not m.small_cancellation_ok:
        raise NotSmallCancellation("ball construction requires the 1/6 piece condition")
    g = len(p.generators)
    letters = [s * (gi + 1) for gi in range(g) for s in (1, -1)]
    # shortlex letter order: a < a^-1 < b < b^-1 < ...
    letters.sort(key=lambda x: 2 * (abs(x) - 1) + (0 if x > 0 else 1))

    homs = _find_finite_quotients(p, seed)
    ab_basis = _hnf_rows([_ab_vector(r, g) for r in p.relators], g)
    is_free = not p.relators

    def hom_step(states: tuple, letter: int) -> tuple:
        return tuple(
            tuple(table[letter][s] for s in state) for state, table in zip(states, homs)
        )

    def key_of(states: tuple, ab: tuple[int, ...]) -> tuple:
        return (states, _ab_residue(ab, ab_basis))

    start = Word()
    verts: list[Word] = [start]
    vid_of: dict[Word, int] = {start: 0}
    hom_states: list[tuple] = [tuple(tuple(range(len(h[1]))) for h in homs)]
    ab_vecs: list[tuple[int, ...]] = [(0,) * g]
    dist = [0]
    buckets: dict[tuple, list[int]] = {}
    if not is_free:
        buckets.setdefault(key_of(hom_states[0], ab_vecs[0]), []).append(0)

    edge_ids: dict[tuple[int, int, int], int] = {}
    edges: list[tuple[int, int]] = []
    edge_gens: dict[int, int] = {}

    def add_edge(u: int, x: int, v: int):
        # u * letter(x) = v ; store with the positive letter direction
        if x > 0:
            a, bb, gen = u, v, x - 1
        else:
            a, bb, gen = v, u, -x - 1
        key = (a, bb, gen)
        if key not in edge_ids:
            edge_ids[key] = len(edges)
            edges.append((a, bb))
            edge_gens[len(edges) - 1] = gen

    def identify(word: Word, states: tuple, ab: tuple[int, ...]) -> int | None:
        hit = vid_of.get(word)
        if hit is not None:
            return hit
        if is_free:
            return None
        for v in buckets.get(key_of(states, ab), ()):
            if is_trivial(free_reduce(Word(tuple(word) + tuple(verts[v].inverse()))), m):
                return v
        return None

    # The last pass (level == radius) adds no vertex: it only closes edges
    # among the boundary vertices, and a move that meets no vertex leaves
    # the ball.
    frontier = [0]
    for level in range(radius + 1):
        nxt: list[int] = []
        for u in frontier:
            wu = verts[u]
            for x in letters:
                if wu and wu[-1] == -x:
                    # backtrack along the tree: edge to the prefix vertex
                    parent = vid_of[Word(wu[:-1])]
                    add_edge(u, x, parent)
                    continue
                cand = Word(tuple(wu) + (x,))
                states = hom_step(hom_states[u], x)
                ab = list(ab_vecs[u])
                ab[abs(x) - 1] += 1 if x > 0 else -1
                ab = tuple(ab)
                reduced = dehn_reduce(cand, m) if not is_free else cand
                v = identify(reduced, states, ab)
                if v is None:
                    if level == radius:
                        continue
                    if len(verts) >= vertex_budget:
                        raise BudgetExceeded(f"vertex budget {vertex_budget} exhausted at radius {level + 1}")
                    v = len(verts)
                    verts.append(cand)
                    vid_of[cand] = v
                    hom_states.append(states)
                    ab_vecs.append(ab)
                    dist.append(level + 1)
                    if not is_free:
                        buckets.setdefault(key_of(states, ab), []).append(v)
                    nxt.append(v)
                add_edge(u, x, v)
        frontier = nxt

    # attach relator cells whose whole boundary lies in the ball
    out_map: dict[tuple[int, int], tuple[int, int]] = {}
    for eid, (u, v) in enumerate(edges):
        gen = edge_gens[eid]
        out_map[(u, gen + 1)] = (v, eid)
        out_map[(v, -(gen + 1))] = (u, eid)
    cells: list[tuple[Token, ...]] = []
    seen_cells: set[frozenset[int]] = set()
    for rid, r in enumerate(p.relators):
        for v0 in range(len(verts)):
            cur = v0
            toks: list[Token] = []
            ok = True
            for letter in r:
                step = out_map.get((cur, letter))
                if step is None:
                    ok = False
                    break
                nbr, eid = step
                toks.append((eid, 1 if edges[eid][0] == cur else -1))
                cur = nbr
            if ok and cur == v0:
                key = frozenset(eid for eid, _ in toks)
                if key not in seen_cells:
                    seen_cells.add(key)
                    cells.append(tuple(toks))

    c = Complex(
        edges,
        cells,
        len(verts),
        vertex_labels={vid: _label(w, p.generators) for vid, w in enumerate(verts)},
        edge_gens=edge_gens,
        origin="cayley-ball",
        radius=radius,
        base=0,
        dist=dist,
        generator_names=p.generators,
    )
    c.validate()
    if force_subdivide or c.has_odd_cell():
        return subdivide(c)
    return c


def _ab_vector(w: Word, g: int) -> tuple[int, ...]:
    v = [0] * g
    for x in w:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(v)


def _label(w: Word, names: tuple[str, ...]) -> str:
    from .words import render

    return render(w, names)


def boundary_word(c: Complex, cid: int) -> Word:
    """Read the generator labels along a cell boundary (Cayley balls only)."""
    letters = []
    for eid, d in c.cells[cid]:
        gen = c.edge_gens[eid]
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
            nxt = list(reach_prev)
            for s in range(2 * L + 1):
                for t in range(s + 1, min(reach1[s], 2 * L) + 1):
                    if reach_prev[t] > nxt[s]:
                        nxt[s] = min(reach_prev[t], s + L)
            reach_prev = nxt
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


def check_cprime(c: Complex, lam: Fraction) -> bool:
    """Strict complex-level piece condition at the given ratio."""
    report = check_B6(c, lam)
    return report.cprime_passed


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

    @property
    def ok(self) -> bool:
        return (
            self.connected
            and self.even_cells
            and self.h1_trivial
            and self.distances_consistent
            and self.cprime_ok
        )


def validity_summary(c: Complex, lam: Fraction = Fraction(1, 6)) -> ValiditySummary:
    dist0 = c.bfs_distances(0) if c.nv else []
    connected = all(d >= 0 for d in dist0)
    even_cells = not c.has_odd_cell()
    cycle_rank = len(c.edges) - c.nv + 1
    masks = []
    for cid in range(len(c.cells)):
        mask = 0
        for eid, _ in c.cells[cid]:
            mask ^= 1 << eid
        masks.append(mask)
    rank = 0
    basis: list[int] = []
    for mask in masks:
        for b in basis:
            mask = min(mask, mask ^ b)
        if mask:
            basis.append(mask)
            basis.sort(reverse=True)
            rank += 1
    dist_ok = True
    if c.dist is not None and c.base is not None:
        dist_ok = c.bfs_distances(c.base) == list(c.dist)
    return ValiditySummary(
        connected,
        even_cells,
        cycle_rank,
        rank,
        cycle_rank == rank,
        dist_ok,
        check_cprime(c, lam),
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
        if lab is not None and (" " in lab or not lab):
            raise ParseError(f"vertex label {lab!r} not serializable")
        lines.append(f"v {vid}" + (f" {lab}" if lab is not None else ""))
    for eid, (u, v) in enumerate(c.edges):
        gen = c.edge_gens.get(eid)
        lines.append(f"e {eid} {u} {v}" + (f" {c.generator_names[gen]}" if gen is not None else ""))
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
    gen_index = {name: i for i, name in enumerate(gens)}
    labels: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    edge_gens: dict[int, int] = {}
    cells: list[tuple[Token, ...]] = []
    for ln in lines[idx:]:
        parts = ln.split()
        if parts[0] == "v":
            if len(parts) > 2:
                labels[_ints(ln, parts[1:], 1)[0]] = parts[2]
        elif parts[0] == "e":
            eid, u, v = _ints(ln, parts[1:], 3)
            if eid != len(edges):
                raise ParseError("edge ids must be consecutive")
            edges.append((u, v))
            if len(parts) > 4:
                if parts[4] not in gen_index:
                    raise ParseError(f"line {ln!r} names an unknown generator")
                edge_gens[eid] = gen_index[parts[4]]
        elif parts[0] == "c":
            vals = _ints(ln, parts[1:], max(1, len(parts) - 1))
            cells.append(tuple((abs(val) - 1, 1 if val > 0 else -1) for val in vals[1:]))
        else:
            raise ParseError(f"bad line {ln!r}")
    if len(edges) != ne or len(cells) != nc:
        raise ParseError("counts do not match body")
    c = Complex(
        edges,
        cells,
        nv,
        labels,
        edge_gens,
        origin=meta.get("origin", "file"),
        radius=_ints("meta radius", [meta["radius"]], 1)[0] if "radius" in meta else None,
        base=_ints("meta base", [meta["base"]], 1)[0] if "base" in meta else None,
        subdivided=meta.get("subdivided") == "1",
        generator_names=gens,
    )
    c.validate()
    if c.base is not None:
        c.dist = c.bfs_distances(c.base)
    return c
