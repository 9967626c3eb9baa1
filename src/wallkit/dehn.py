"""Word problem for metric small-cancellation presentations.

Dehn's procedure: repeatedly freely reduce and replace any subword that
covers strictly more than half of a symmetrized relator by the inverse of
the remainder.  For presentations passing the 1/6 condition this decides
triviality; the replacement strategy is leftmost-longest so results are
deterministic.

``dehn_reduce`` scans with the Aho-Corasick automaton of the rewrite
trie, looks for the leftmost match in the Lmax // 2 + 1 starts up to its
first hit (Lmax: the longest relator), splices the match in place, and
resumes the scan Lmax // 2 letters before the first changed one.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import BadParams, BudgetExceeded, NotSmallCancellation
from .presentation import Presentation, check_small_cancellation
from .words import Word, free_reduce, symmetrize

DEFAULT_NODE_BUDGET = 10**6


def env_budget(default: int) -> int:
    """WALLKIT_BUDGET if it is a positive decimal integer, else default."""
    raw = os.environ.get("WALLKIT_BUDGET", "")
    return int(raw) if raw.isdecimal() and int(raw) > 0 else default


class DehnMachine:
    """Rewrite engine for one presentation.

    The rewrite trie is a list of rows of 2g+1 entries, one per node, the
    root 0: ``row[x]`` is the child on letter x (a negative x indexes from
    the end), or 0, and ``row[0]``, never a letter, is 1 + the index in
    ``symmetrized`` of the relator whose >half prefix ends there, or 0.
    ``automaton()`` fills its transitions into the same rows.
    """

    def __init__(self, presentation: Presentation, *, node_budget: int | None = None):
        self.presentation = presentation
        self.node_budget = node_budget if node_budget is not None else env_budget(DEFAULT_NODE_BUDGET)
        index_size = sum(2 * r.primitive_period() * len(r) for r in presentation.relators)
        if index_size > max(self.node_budget, DEFAULT_NODE_BUDGET):
            raise BudgetExceeded(
                f"symmetrized index needs ~{index_size} nodes; raise the node budget to allow it"
            )
        self.symmetrized = sym = tuple(sorted(symmetrize(presentation.relators)))
        self.small_cancellation_ok = check_small_cancellation(presentation, Fraction(1, 6)).passed
        self.max_relator_len = max(map(len, sym), default=0)
        # Relators go in by (length, word), and a node keeps the first
        # relator it gets, so the canonically least relator wins ties.
        width = 2 * len(presentation.generators) + 1
        self._rows = rows = [[0] * width]
        self._depth = depth = [0]
        for k in sorted(range(len(sym)), key=lambda k: (len(sym[k]), sym[k])):
            r, s = sym[k], 0
            for d, x in enumerate(r, start=1):
                if not rows[s][x]:
                    rows[s][x] = len(rows)
                    rows.append([0] * width)
                    depth.append(d)
                s = rows[s][x]
                if 2 * d > len(r) and not rows[s][0]:
                    rows[s][0] = k + 1
        self._automaton: tuple[list[list[int]], list[bool]] | None = None
        self._elements = None

    def automaton(self) -> tuple[list[list[int]], list[bool]]:
        """``(delta, hit)``: the Aho-Corasick automaton (Aho-Corasick 1975)
        of the trie, filled into its rows on first use.  After a text is
        read, the state is the node of the longest suffix of the text that
        spells a trie path, and ``delta[s][x]`` is the state after letter x
        in state s.  ``hit[s]`` holds when some suffix of the text covers
        more than half of a symmetrized relator: the node, or a node on its
        failure chain, names a relator.
        """
        if self._automaton is None:
            rows, g = self._rows, len(self.presentation.generators)
            letters = [x for x in range(-g, g + 1) if x]
            fail = [0] * len(rows)
            hit = [False] * len(rows)
            # Breadth first, so a node's failure target, being shallower, has
            # its row complete when the node is visited.  Where x leads from
            # there is the node's missing entry on x, or its child's target.
            order = [0]
            for s in order:
                row, frow = rows[s], rows[fail[s]]
                for x in letters:
                    t = frow[x] if s else 0
                    child = row[x]
                    if child:
                        fail[child] = t
                        hit[child] = rows[child][0] > 0 or hit[t]
                        order.append(child)
                    else:
                        row[x] = t
            self._automaton = (rows, hit)
        return self._automaton

    def elements(self):
        """The presentation's ElementTable (seed 0, vertex budget
        ``node_budget``), built on first use; normal forms grow it."""
        if self._elements is None:
            from .complexes import ElementTable  # complexes imports this module
            self._elements = ElementTable(self.presentation, self, vertex_budget=self.node_budget)
        return self._elements

    def _require_ok(self):
        if not self.small_cancellation_ok:
            raise NotSmallCancellation(
                "presentation did not pass the strict 1/6 piece condition"
            )

    def longest_rewrite_at(self, w: Sequence[int], pos: int) -> tuple[int, Word] | None:
        """(matched length, replacement) for the longest >half match at pos.

        Every letter of w must be one of the machine's: a letter beyond
        the g generators reads another letter's entry of the rows.
        ``dehn_reduce`` checks this for the words it is given.
        """
        rows, depth = self._rows, self._depth
        s = best = length = 0
        for i in range(pos, len(w)):
            s = rows[s][w[i]]
            if depth[s] != i + 1 - pos:
                break  # no child on w[i]: a failure transition or none
            if rows[s][0]:
                best, length = rows[s][0], i + 1 - pos
        if not best:
            return None
        return length, Word._trusted([-x for x in reversed(self.symmetrized[best - 1][length:])])


def dehn_reduce(w: Word, m: DehnMachine) -> Word:
    """Leftmost-longest Dehn reduction; the result has no >half relator subword.
    A letter outside the presentation's generators raises BadParams.

    The freely reduced word is scanned by ``m.automaton()`` from a resume
    point, in state 0; without a hit it is reduced.  A match starting at p
    has one of at most h = Lmax // 2 + 1 letters there, the shortest >half
    prefix of its relator (Lmax = ``m.max_relator_len``).  A hit at index i
    ends the first match to end, so the leftmost match starts in
    ``[max(resume, i - h + 1), i]``, where ``longest_rewrite_at`` finds it.
    It is replaced in a list made at the first hit.  A letter cancelling
    the replacement's first (last) letter would make a match start one
    earlier (end one later), so free pairs meet only where an empty
    replacement was.

    The next scan resumes at ``max(0, c - h + 1)``, c being the first
    changed index.  A match starting earlier has a short one ending before
    c, in the unchanged prefix, so that was a match before this rewrite and
    started left of the one just taken, which was the leftmost: none exists.
    """
    m._require_ok()
    cur = free_reduce(w)
    g = len(m.presentation.generators)
    if cur and (max(cur) > g or min(cur) < -g):
        raise BadParams(f"word has a letter outside the {g} generators of the presentation")
    delta, hit = m.automaton()
    back = m.max_relator_len // 2
    resume = 0
    while True:
        s = 0
        for i in range(resume, len(cur)):
            s = delta[s][cur[i]]
            if hit[s]:
                break
        else:
            return cur if type(cur) is Word else Word._trusted(cur)
        for pos in range(max(resume, i - back), i + 1):
            found = m.longest_rewrite_at(cur, pos)
            if found is not None:
                break
        length, repl = found
        if type(cur) is Word:
            cur = list(cur)
        cur[pos:pos + length] = repl
        lo = hi = pos
        while lo > 0 and hi < len(cur) and cur[lo - 1] == -cur[hi]:
            lo -= 1
            hi += 1
        del cur[lo:hi]
        resume = max(0, lo - back)


def is_trivial(w: Word, m: DehnMachine) -> bool:
    return len(dehn_reduce(w, m)) == 0


def is_equal(w1: Word, w2: Word, m: DehnMachine) -> bool:
    return is_trivial(w1 + w2.inverse(), m)


def letter_rank(x: int) -> int:
    """Order a < a^-1 < b < b^-1 < ..."""
    return 2 * (abs(x) - 1) + (0 if x > 0 else 1)


def shortlex_key(w: Word) -> tuple:
    return (len(w), tuple(letter_rank(x) for x in w))


def iter_reduced_words(num_gens: int, max_len: int) -> Iterator[Word]:
    """Freely reduced words in shortlex order (the tests and the benchmark use it)."""
    letters = sorted((s * (g + 1) for g in range(num_gens) for s in (1, -1)), key=letter_rank)
    level: list[tuple[int, ...]] = [()]
    yield Word()
    for _ in range(max_len):
        nxt: list[tuple[int, ...]] = []
        for w in level:
            for x in letters:
                if w and w[-1] == -x:
                    continue
                nw = w + (x,)
                nxt.append(nw)
                yield Word(nw)
        level = nxt


def shortlex_normal_form(w: Word, m: DehnMachine) -> Word:
    """Shortlex-least word equal to w: the word of its element in
    ``m.elements()``.  Raises BudgetExceeded past the node budget."""
    m._require_ok()
    reduced = dehn_reduce(w, m)
    if not reduced or not m.presentation.relators:
        return reduced
    table = m.elements()
    return table.word(table.index(reduced))
