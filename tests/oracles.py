"""Independent brute-force oracles the production code is tested against.

Everything here is written naively on purpose: no shared code paths with the
library's piece/wall machinery beyond the Word container.
"""

from __future__ import annotations

import math
from fractions import Fraction

from wallkit.presentation import Piece, PieceIndex, Presentation
from wallkit.words import Word


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
