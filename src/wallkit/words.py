"""Letters, words, free and cyclic reduction, and symmetrized relator sets.

A letter is a nonzero int: ``+(g+1)`` is generator ``g``, ``-(g+1)`` its
formal inverse.  Generator names are a parse-time concern and never appear
here.  Words are immutable tuples of letters, so they hash and compare fast.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import EmptyRelator


class Word(tuple):
    """An immutable sequence of letters (signed ints)."""

    __slots__ = ()

    def __new__(cls, letters: Iterable[int] = ()) -> "Word":
        w = super().__new__(cls, letters)
        for x in w:
            if not isinstance(x, int) or x == 0:
                raise ValueError(f"bad letter {x!r}: letters are nonzero ints")
        return w

    @staticmethod
    def _trusted(letters: Iterable[int]) -> "Word":
        """A Word of letters already known to be valid, taken from other
        Words: no check.  Parse, load and public callers use ``Word()``."""
        return tuple.__new__(Word, letters)

    def inverse(self) -> "Word":
        return Word._trusted(-x for x in reversed(self))

    def is_freely_reduced(self) -> bool:
        return all(self[i] != -self[i + 1] for i in range(len(self) - 1))

    def is_cyclically_reduced(self) -> bool:
        if not self.is_freely_reduced():
            return False
        return len(self) < 2 or self[0] != -self[-1]

    def cyclic_shift(self, k: int) -> "Word":
        if not self:
            return self
        k %= len(self)
        return Word._trusted(self[k:] + self[:k])

    def cyclic_shifts(self) -> Iterator["Word"]:
        for k in range(len(self)):
            yield self.cyclic_shift(k)

    def primitive_period(self) -> int:
        """Smallest p dividing len(self) with self equal to its shift by p."""
        n = len(self)
        for p in range(1, n + 1):
            if n % p == 0 and self.cyclic_shift(p) == self:
                return p
        return n

    def max_generator(self) -> int:
        return max((abs(x) - 1 for x in self), default=-1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Word({tuple(self)!r})"


def concat(*ws: Word) -> Word:
    out: list[int] = []
    for w in ws:
        out.extend(w)
    return Word._trusted(out)


def free_reduce(w: Word) -> Word:
    """The unique freely reduced word equal to w in the free group."""
    stack: list[int] = []
    for x in w:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return Word._trusted(stack)


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w as conjugator * core * conjugator^-1 with core cyclically reduced.

    The core is empty iff w freely reduces to the empty word.
    """
    reduced = free_reduce(w)
    n = len(reduced)
    depth = 0
    while n - 2 * depth >= 2 and reduced[depth] == -reduced[n - 1 - depth]:
        depth += 1
    return Word(reduced[depth:n - depth]), Word(reduced[:depth])


def symmetrize(relators: Iterable[Word]) -> frozenset[Word]:
    """All distinct cyclic shifts of the relators and of their inverses.

    Set semantics: shifts of a proper power coincide and collapse, so a
    relator u^k contributes 2*|u| words, not 2*|u^k|.
    """
    out: set[Word] = set()
    for r in relators:
        if len(r) == 0:
            raise EmptyRelator("empty relator in symmetrized set")
        for v in (r, r.inverse()):
            out.update(v.cyclic_shifts())
    return frozenset(out)


def _least_rotation(w: Word) -> int:
    """Start of the lexicographically least rotation of w (Booth 1980), in O(|w|)."""
    s = w + w
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        sj = s[j]
        i = fail[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != s[k + i + 1]:  # here i == -1
            if sj < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def cyclic_word_key(w: Word) -> Word:
    """Canonical representative of w's class under shift and inversion."""
    inv = w.inverse()
    return min(w.cyclic_shift(_least_rotation(w)), inv.cyclic_shift(_least_rotation(inv)))


def render(w: Word, names: list[str] | tuple[str, ...]) -> str:
    """Human-readable form of w over the given generator names."""
    if not w:
        return "1"
    parts: list[str] = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        name = names[abs(w[i]) - 1]
        exp = (j - i) * (1 if w[i] > 0 else -1)
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    # Spaces keep multi-character names unambiguous on re-parse.
    sep = "" if all(len(n) == 1 for n in names) else " "
    return sep.join(parts)
