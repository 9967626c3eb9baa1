"""Independent brute-force oracles the production code is tested against.

Everything here is written naively on purpose: no shared code paths with the
library's piece/wall machinery beyond its result containers.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter, deque
from fractions import Fraction

from wallkit.complexes import _ab_residue, _ab_vector
from wallkit.dehn import DehnMachine, dehn_reduce, is_trivial, iter_reduced_words
from wallkit.errors import BudgetExceeded
from wallkit.presentation import Piece, PieceIndex, Presentation
from wallkit.separation import PairRow
from wallkit.walls import ConvexityReport, WallDistance
from wallkit.words import Word, free_reduce


# -- cyclic word keys ------------------------------------------------------------


def rotation_min_key(w: Word) -> Word:
    """Least of all rotations of w and of its inverse, found by trying each one."""
    best = min(w.cyclic_shifts(), default=w)
    inv = w.inverse()
    best_inv = min(inv.cyclic_shifts(), default=inv)
    return min(best, best_inv)


# -- word-level pieces ---------------------------------------------------------


def _streams(p: Presentation):
    out = []
    for rid, r in enumerate(p.relators):
        per = r.primitive_period()
        out.append((rid, 1, tuple(r), per))
        out.append((rid, -1, tuple(r.inverse()), per))
    return out


def _cyc(v: tuple, s: int, length: int) -> tuple:
    n = len(v)
    return tuple(v[(s + k) % n] for k in range(length))


def brute_force_pieces(p: Presentation) -> tuple[set[tuple], dict[int, int]]:
    """(set of piece words canonicalized up to inversion, per-relator maxima).

    Enumerates every subword occurrence pair across the symmetrized relator
    streams, quotients by relator rotations (shifts by the primitive
    period), and keeps pairwise-maximal runs capped at the shorter relator.
    """
    streams = _streams(p)
    words: set[tuple] = set()
    max_by: dict[int, int] = {rid: 0 for rid in range(len(p.relators))}
    for i1, (rid1, o1, v1, per1) in enumerate(streams):
        for i2, (rid2, o2, v2, per2) in enumerate(streams):
            if i2 < i1:
                continue
            n1, n2 = len(v1), len(v2)
            cap = min(n1, n2)
            for s1 in range(n1):
                for s2 in range(n2):
                    same_class = (
                        rid1 == rid2 and o1 == o2 and (s1 - s2) % per1 == 0
                    )
                    if same_class:
                        continue
                    length = 0
                    while length < cap and v1[(s1 + length) % n1] == v2[(s2 + length) % n2]:
                        length += 1
                    if length == 0:
                        continue
                    left_blocked = (
                        length == cap
                        or v1[(s1 - 1) % n1] != v2[(s2 - 1) % n2]
                    )
                    if not left_blocked:
                        continue  # not maximal: the run is found from its left end
                    w = _cyc(v1, s1, length)
                    inv = tuple(-x for x in reversed(w))
                    words.add(min(w, inv))
                    for rid in (rid1, rid2):
                        max_by[rid] = max(max_by[rid], length)
    return words, max_by


def _diagonal_runs(v1: Word, v2: Word, d: int, cap: int) -> list[tuple[int, int]]:
    """Maximal cyclic runs of agreement between v1[t] and v2[t+d].

    Returns (start t, length) pairs with length capped at cap: a run longer
    than cap gives each of its windows of length cap, and a full-cycle
    agreement gives the window at every start.
    """
    n1, n2 = len(v1), len(v2)
    L = math.lcm(n1, n2)
    match = [v1[t % n1] == v2[(t + d) % n2] for t in range(L)]
    if all(match):
        return [(t, cap) for t in range(L)]
    if not any(match):
        return []
    shift = match.index(False)
    rot = match[shift + 1:] + match[: shift + 1]  # starts right after a False
    runs: list[tuple[int, int]] = []
    i = 0
    while i < L:
        if rot[i]:
            j = i
            while j < L and rot[j]:
                j += 1
            for w in range(i, max(i + 1, j - cap + 1)):
                runs.append(((shift + 1 + w) % L, min(j - i, cap)))
            i = j
        else:
            i += 1
    return runs


def diagonal_scan_pieces(p: Presentation) -> PieceIndex:
    """The full PieceIndex, agreement runs read letter by letter per diagonal.

    Scans every diagonal, both halves of a relator against itself included,
    and compares letters in a Python loop: an exact oracle for the byte-coded
    scan in ``compute_pieces``.
    """
    found: dict[tuple, Piece] = {}

    def record(word: Word, occ1, occ2):
        pair = tuple(sorted((occ1, occ2)))
        key = (word, pair)
        if key not in found:
            found[key] = Piece(word, pair)

    def scan(rid1, v1, per1, o1, rid2, v2, per2, o2):
        same_stream = rid1 == rid2 and o1 == o2
        cap = min(len(v1), len(v2))
        n_diag = per1 if same_stream or rid1 == rid2 else math.gcd(per1, per2)
        for d in range(n_diag):
            if same_stream and d == 0:
                continue
            for t, length in _diagonal_runs(v1, v2, d, cap):
                word = Word(v1[(t + k) % len(v1)] for k in range(length))
                record(word, (rid1, o1, t % per1), (rid2, o2, (t + d) % per2))

    rels = [(rid, r, r.primitive_period()) for rid, r in enumerate(p.relators)]
    for i, (rid1, r1, per1) in enumerate(rels):
        scan(rid1, r1, per1, 1, rid1, r1, per1, 1)
        scan(rid1, r1, per1, 1, rid1, r1.inverse(), per1, -1)
        for rid2, r2, per2 in rels[i + 1:]:
            scan(rid1, r1, per1, 1, rid2, r2, per2, 1)
            scan(rid1, r1, per1, 1, rid2, r2.inverse(), per2, -1)

    pieces = tuple(sorted(found.values(), key=lambda pc: (-pc.length, pc.word, pc.witnesses)))
    max_by = {rid: 0 for rid in range(len(p.relators))}
    worst: dict = {rid: None for rid in range(len(p.relators))}
    for pc in pieces:
        for rid, _, _ in pc.witnesses:
            if pc.length > max_by[rid]:
                max_by[rid] = pc.length
                worst[rid] = pc
    ratio = {rid: Fraction(max_by[rid], len(p.relators[rid])) for rid in max_by}
    return PieceIndex(pieces, max_by, ratio, worst)


def brute_force_cprime(p: Presentation, lam: Fraction) -> bool:
    _, max_by = brute_force_pieces(p)
    return all(Fraction(max_by[rid]) < lam * len(r) for rid, r in enumerate(p.relators))


# -- >half relator suffixes ----------------------------------------------------


def half_relator_prefixes(relators) -> set[tuple]:
    """Every prefix longer than half of a cyclic shift of a relator or of its
    inverse, by listing each shift."""
    out: set[tuple] = set()
    for r in relators:
        for v in (tuple(r), tuple(-x for x in reversed(r))):
            for k in range(len(v)):
                rot = v[k:] + v[:k]
                out.update(rot[:n] for n in range(len(rot) // 2 + 1, len(rot) + 1))
    return out


def completes_half_relator(w, prefixes: set[tuple]) -> bool:
    """Whether some suffix of w is one of ``half_relator_prefixes``."""
    w = tuple(w)
    return any(w[i:] in prefixes for i in range(len(w)))


def longest_rewrite_naive(symmetrized, w, pos: int) -> tuple[int, Word] | None:
    """(matched length, replacement) for the longest >half relator prefix
    starting at w[pos], the shortest and then least relator on a tie, by
    matching every symmetrized relator there."""
    best = None
    for r in symmetrized:
        n = 0
        while pos + n < len(w) and n < len(r) and w[pos + n] == r[n]:
            n += 1
        if 2 * n > len(r) and (best is None or (-n, len(r), r) < (-best[0], len(best[1]), best[1])):
            best = (n, r)
    if best is None:
        return None
    n, r = best
    return n, Word(r[n:]).inverse()


# -- Dehn reduction by restarting from the left ---------------------------------


def dehn_reduce_restart(w: Word, m: DehnMachine) -> Word:
    """Leftmost-longest Dehn reduction that tries every position from the
    left with the trie, and after each rewrite freely reduces the whole
    word and starts again at position 0."""
    m._require_ok()
    cur = free_reduce(w)
    pos = 0
    while pos < len(cur):
        found = m.longest_rewrite_at(cur, pos)
        if found is None:
            pos += 1
        else:
            length, repl = found
            cur = free_reduce(cur[:pos] + repl + cur[pos + length:])
            pos = 0
    return cur


# -- shortlex normal forms by enumeration ---------------------------------------


def shortlex_search(w: Word, m: DehnMachine) -> Word:
    """Shortlex-least word equal to w, by breadth-first search with the
    triviality oracle.  Raises BudgetExceeded past the node budget."""
    m._require_ok()
    reduced = dehn_reduce(w, m)
    if not reduced or not m.presentation.relators:
        return reduced
    target_inv = reduced.inverse()
    words = iter_reduced_words(len(m.presentation.generators), len(reduced))
    for count, cand in enumerate(words, start=1):
        if count > m.node_budget:
            raise BudgetExceeded(f"shortlex search frontier exceeded {m.node_budget} words")
        if is_trivial(cand + target_inv, m):
            return cand
    return reduced


# -- element-table bucket keys ---------------------------------------------------


def bucket_key(perms: dict[int, tuple[int, ...]], ab_basis, w) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The bucket key of w: the quotients' points stepped through w one
    letter at a time as tuples, and the abelian residue of w's exponent sums
    computed at once."""
    image = tuple(range(len(next(iter(perms.values()), ()))))
    for x in w:
        image = tuple(map(perms[x].__getitem__, image))
    return image, _ab_residue(_ab_vector(w, len(perms) // 2), ab_basis)


# -- free-product normal form for one-relator powers ---------------------------


def free_product_nf(w: Word, k: int) -> tuple:
    """Normal form of a word over <a,b> in <a,t | t^k> with t = a*b.

    Under the basis change b = a^-1 t the group of the single relator
    (a b)^k is the free product of the integers with a cyclic group of
    order k; the alternating syllable form is canonical.
    """
    syll: list[list] = []  # [symbol, exponent]

    def push(sym: str, exp: int):
        if syll and syll[-1][0] == sym:
            syll[-1][1] += exp
        else:
            syll.append([sym, exp])
        while syll:
            s, e = syll[-1]
            if s == "t":
                e %= k
                syll[-1][1] = e
            if e == 0:
                syll.pop()
                if len(syll) >= 2 and syll[-1][0] == syll[-2][0]:
                    s2, e2 = syll.pop()
                    syll[-1][1] += e2
                    continue
            break

    for x in w:
        if x == 1:
            push("a", 1)
        elif x == -1:
            push("a", -1)
        elif x == 2:
            push("a", -1)
            push("t", 1)
        elif x == -2:
            push("t", -1)
            push("a", 1)
        else:
            raise ValueError(f"letter {x} outside <a,b>")
    return tuple((s, e) for s, e in syll)


def free_product_trivial(w: Word, k: int) -> bool:
    return free_product_nf(w, k) == ()


# -- cell-level pieces ----------------------------------------------------------


def _cell_tok(cell, i):
    return cell[i % len(cell)]


def _cell_sym_equiv(cell, s1, o1, s2, o2, length) -> bool:
    """Any rotation/reflection of the attaching cycle maps one interval
    occurrence to the other (written independently of the library)."""
    L = len(cell)
    if o1 == o2:
        for d in range(L):
            if all(cell[(i + d) % L] == cell[i] for i in range(L)) and (s1 + d) % L == s2 % L:
                return True
        return False
    for c in range(L):
        if all(cell[(c - i) % L] == (cell[i][0], -cell[i][1]) for i in range(L)):
            if (c - s1 - length + 1) % L == s2 % L:
                return True
    return False


def brute_force_cell_pieces(c) -> set[tuple]:
    """Set of (sorted occurrence pair, length) for all maximal common
    boundary subpaths over cell pairs."""
    out: set[tuple] = set()
    cells = c.cells
    for cid1 in range(len(cells)):
        for cid2 in range(cid1, len(cells)):
            L1, L2 = len(cells[cid1]), len(cells[cid2])
            cap = min(L1, L2)
            for s1 in range(L1):
                for s2 in range(L2):
                    for fwd in (True, False):
                        # path read forward in cid1 from s1; in cid2 it is read
                        # forward from s2 (fwd) or backward ending at s2 (not fwd)
                        length = 0
                        while length < cap:
                            t1 = _cell_tok(cells[cid1], s1 + length)
                            if fwd:
                                t2 = _cell_tok(cells[cid2], s2 + length)
                                if t1 != t2:
                                    break
                            else:
                                e2, d2 = _cell_tok(cells[cid2], s2 - length)
                                if t1 != (e2, -d2):
                                    break
                            length += 1
                        if length == 0:
                            continue
                        # maximality: blocked on the left as well
                        t1 = _cell_tok(cells[cid1], s1 - 1)
                        if fwd:
                            t2 = _cell_tok(cells[cid2], s2 - 1)
                            blocked = t1 != t2
                        else:
                            e2, d2 = _cell_tok(cells[cid2], s2 + 1)
                            blocked = t1 != (e2, -d2)
                        if length < cap and not blocked:
                            continue
                        f1 = s1 % L1
                        f2 = s2 % L2 if fwd else (s2 - length + 1) % L2
                        if cid1 == cid2 and _cell_sym_equiv(cells[cid1], f1, True, f2, fwd, length):
                            continue
                        if cid1 == cid2 and f1 == f2 and fwd:
                            continue
                        occ1 = (cid1, f1, True)
                        occ2 = (cid2, f2, fwd)
                        out.add((tuple(sorted((occ1, occ2))), length))
    return out


def brute_force_b6(c, intervals_by_cell) -> bool:
    """Direct enumeration: is every <=3-piece boundary path at most half the
    cell length?  intervals_by_cell: cid -> list of (start, length)."""
    for cid, cell in enumerate(c.cells):
        L = len(cell)
        piece_spans = set()
        for f, length in intervals_by_cell.get(cid, []):
            for a in range(length):
                for b in range(a + 1, length + 1):
                    piece_spans.add(((f + a) % L, b - a))
        # covers[s] = set of reachable span lengths from s with <= k pieces
        def reach(s, k):
            spans = {0}
            frontier = {0}
            for _ in range(k):
                new = set()
                for t in frontier:
                    for (f, ln) in piece_spans:
                        if f == (s + t) % L:
                            if t + ln <= L:
                                new.add(t + ln)
                new -= spans
                spans |= new
                frontier = new
            return max(spans)

        for s in range(L):
            if 2 * reach(s, 3) > L:
                return False
    return True


# -- GF(2) rank of cell masks ---------------------------------------------------


def gf2_rank_sorted(masks) -> int:
    """Rank over GF(2) of bit masks: each mask is reduced against a basis kept
    sorted in decreasing order, and a nonzero remainder joins the basis."""
    basis: list[int] = []
    for mask in masks:
        for b in basis:
            mask = min(mask, mask ^ b)
        if mask:
            basis.append(mask)
            basis.sort(reverse=True)
    return len(basis)


# -- walls -----------------------------------------------------------------------


def group_walls(c) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[tuple[int, int, int], ...]]]:
    """The walls of c by plain grouping: link the opposite edges of every
    cell, take the classes by BFS from each unplaced edge in id order (so a
    class is named by its least edge), and list each wall's (cell, e1, e2)
    pairs in cell order, () for a wall with none.  Both dicts are in wall-id
    order."""
    links: list[list[int]] = [[] for _ in c.edges]
    pairs = []
    for cid, cell in enumerate(c.cells):
        half = len(cell) // 2
        for i in range(half):
            e1, e2 = cell[i][0], cell[i + half][0]
            links[e1].append(e2)
            links[e2].append(e1)
            pairs.append((cid, e1, e2))
    wall_of = [-1] * len(c.edges)
    walls: dict[int, list[int]] = {}
    for start in range(len(c.edges)):
        if wall_of[start] >= 0:
            continue
        wall_of[start] = start
        members = [start]
        q = deque([start])
        while q:
            for f in links[q.popleft()]:
                if wall_of[f] < 0:
                    wall_of[f] = start
                    members.append(f)
                    q.append(f)
        walls[start] = members
    hyper: dict[int, list] = {wid: [] for wid in walls}
    for pair in pairs:
        hyper[wall_of[pair[1]]].append(pair)
    return {w: tuple(sorted(es)) for w, es in walls.items()}, {w: tuple(ps) for w, ps in hyper.items()}


def component_labels(c, removed: frozenset[int]) -> tuple[list[int], int]:
    """Component label of each vertex of the 1-skeleton minus the edges in
    removed, numbered by least vertex, and the number of components (one
    BFS from each unlabelled vertex)."""
    label = [-1] * c.nv
    adj = pair_adjacency(c)
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


def bridges(c) -> set[int]:
    """Edge ids whose removal disconnects the 1-skeleton (iterative Tarjan)."""
    adj = pair_adjacency(c)
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


def pairwise_hypercarrier_check(ws, wid: int, *, strict: bool = True) -> ConvexityReport:
    """Hypercarrier convexity pair by pair: a full BFS from every carrier
    vertex, then for each pair u < v a walk of the geodesic cone from u
    toward v (strict) or a BFS restricted to the carrier (non-strict)."""
    c = ws.complex
    cells = {cid for cid, _, _ in ws.hyperedges[wid]}
    carrier_es = {eid for cid in cells for eid, _ in c.cells[cid]} or set(ws.walls[wid])
    vs = sorted({x for eid in carrier_es for x in c.edges[eid]})
    dist_maps = {v: c.bfs_distances(v) for v in vs}
    adj = pair_adjacency(c)
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
    for u, v in pairs:
        du, dv = dist_maps[u], dist_maps[v]
        D = du[v]
        if strict:
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


# -- wall metric along geodesics -----------------------------------------------


def odd_crossings(ws, crossings: Counter) -> WallDistance:
    """Walls crossed an odd number of times by a path, given its crossing
    count per wall."""
    return WallDistance(sum(k % 2 for k in crossings.values()))


def greedy_geodesic(c, p, q, dq) -> list[int]:
    """Edge ids of the lexicographically least shortest p->q path, walked
    greedily from p over the full distances dq to q: at each step the least
    edge id into the next level."""
    adj = pair_adjacency(c)
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


def per_pair_sweep(c, ws, pairs) -> list[PairRow]:
    """Sweep rows pair by pair: one full BFS per run of pairs with the same
    q, then a fresh geodesic walk and crossing count per pair."""
    rows: list[PairRow] = []
    dq_of = None
    for p, q in pairs:
        if dq_of != q:
            dq, dq_of = c.bfs_distances(q), q
        d = dq[p]
        crossings = Counter(ws.wall_of_edge[eid] for eid in greedy_geodesic(c, p, q, dq))
        dw = odd_crossings(ws, crossings).total
        single = sum(1 for k in crossings.values() if k == 1)
        rows.append(PairRow(p, q, d, dw, Fraction(dw, d), single))
    return rows


# -- graph search --------------------------------------------------------------


_PAIRS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def pair_adjacency(c) -> list[list[tuple[int, int]]]:
    """Each vertex's ``(neighbour, edge id)`` pairs in increasing edge id,
    read from ``c.edges`` alone (a loop is listed twice); built once per
    complex."""
    adj = _PAIRS.get(c)
    if adj is None:
        adj = _PAIRS[c] = [[] for _ in range(c.nv)]
        for eid, (u, v) in enumerate(c.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
    return adj


def deque_bfs_distances(adj, src: int) -> list[int]:
    """Distances from src by a deque BFS over the whole graph ``adj`` of
    ``(neighbour, edge id)`` lists, -1 where a vertex is unreached."""
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v, _ in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist
