"""Presentation data model, piece computation, and metric-condition checks.

Pieces are computed on cyclic words: a piece is a common subword of two
symmetrized relator occurrences that are not identified by a rotation of a
relator onto itself (which only happens for proper powers).  Occurrences in
the inverse cycle are searched as well.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import BadParams, EmptyRelator, ParseError, UnknownGenerator
from .words import Word, cyclic_reduce, cyclic_word_key, free_reduce, render

DEFAULT_LAMBDA = Fraction(1, 6)


@dataclass(frozen=True)
class Presentation:
    """Generators plus cyclically reduced, deduplicated relators."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    lam_target: Fraction = DEFAULT_LAMBDA
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not (0 < self.lam_target <= Fraction(1, 6)):
            raise BadParams(f"lambda target {self.lam_target} outside (0, 1/6]")
        seen: dict[Word, int] = {}
        kept: list[Word] = []
        for r in self.relators:
            if len(r) == 0:
                raise EmptyRelator("relators must be nonempty")
            if not r.is_cyclically_reduced():
                raise BadParams(f"relator {tuple(r)} is not cyclically reduced")
            if r.max_generator() >= len(self.generators):
                raise UnknownGenerator(f"relator {tuple(r)} uses an unknown generator")
            key = cyclic_word_key(r)
            if key not in seen:
                seen[key] = len(kept)
                kept.append(r)
        object.__setattr__(self, "relators", tuple(kept))

    def word(self, text: str) -> Word:
        return parse_word(text, self.generators)

    def show(self, w: Word) -> str:
        return render(w, self.generators)


# ---------------------------------------------------------------------------
# Parsing


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_SUP_INV = "⁻¹"  # superscript "-1"


def _segment_names(run: str, names: Sequence[str], pos: int) -> list[str]:
    """Split a juxtaposed name run into generator names (with backtracking)."""
    by_len = sorted(set(names), key=len, reverse=True)
    memo: dict[int, list[str] | None] = {}

    def go(i: int) -> list[str] | None:
        if i == len(run):
            return []
        if i in memo:
            return memo[i]
        for name in by_len:
            if run.startswith(name, i):
                rest = go(i + len(name))
                if rest is not None:
                    memo[i] = [name] + rest
                    return memo[i]
        memo[i] = None
        return None

    out = go(0)
    if out is None:
        raise UnknownGenerator(f"cannot read {run!r} at column {pos} over generators {list(names)}")
    return out


def parse_word(text: str, names: Sequence[str]) -> Word:
    """Parse juxtaposed generator names with ^n powers and (...)^n groups."""
    index = {n: i for i, n in enumerate(names)}
    src = text.replace(_SUP_INV, "^-1")
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(src) and src[pos].isspace():
            pos += 1

    def parse_power() -> int:
        nonlocal pos
        skip_ws()
        if pos < len(src) and src[pos] == "^":
            pos += 1
            skip_ws()
            m = re.match(r"-?\d+", src[pos:])
            if not m:
                raise ParseError(f"expected integer exponent at column {pos} in {text!r}")
            pos += m.end()
            return int(m.group())
        return 1

    def parse_seq(depth: int) -> list[int]:
        nonlocal pos
        out: list[int] = []
        while True:
            skip_ws()
            if pos >= len(src):
                if depth:
                    raise ParseError(f"unbalanced '(' in {text!r}")
                return out
            ch = src[pos]
            if ch == ")":
                if not depth:
                    raise ParseError(f"unbalanced ')' in {text!r}")
                return out
            if ch == "(":
                pos += 1
                inner = parse_seq(depth + 1)
                if pos >= len(src) or src[pos] != ")":
                    raise ParseError(f"unbalanced '(' in {text!r}")
                pos += 1
                out.extend(_power(inner, parse_power()))
                continue
            m = _NAME_RE.match(src, pos)
            if not m:
                raise ParseError(f"unexpected character {ch!r} at column {pos} in {text!r}")
            run = m.group()
            pos = m.end()
            exp = parse_power()
            parts = _segment_names(run, names, pos)
            letters = [index[p] + 1 for p in parts]
            if exp != 1 and len(parts) > 1:
                # power applies to the whole run, e.g. "ab^7" reads as (ab)^7
                # only when parenthesised; here it binds to the last name.
                head, last = letters[:-1], letters[-1:]
                out.extend(head)
                out.extend(_power(last, exp))
            else:
                out.extend(_power(letters, exp))
        return out

    def _power(seq: list[int], exp: int) -> list[int]:
        if exp >= 0:
            return seq * exp
        return [-x for x in reversed(seq)] * (-exp)

    letters = parse_seq(0)
    return Word(letters)


def parse_presentation(text: str) -> Presentation:
    """Read the line-oriented presentation format.

    Lines: ``gens: a b``, then ``rel: <word>`` lines, optional
    ``lambda: p/q``; ``#`` starts a comment.
    """
    gens: tuple[str, ...] | None = None
    relators: list[Word] = []
    lam = DEFAULT_LAMBDA
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "gens":
            if gens is not None:
                raise ParseError(f"line {lineno}: duplicate gens line")
            gens = tuple(value.split())
            if not gens:
                raise ParseError(f"line {lineno}: empty generator list")
            for g in gens:
                if not _NAME_RE.fullmatch(g):
                    raise ParseError(f"line {lineno}: bad generator name {g!r}")
        elif key == "rel":
            if gens is None:
                raise ParseError(f"line {lineno}: rel before gens")
            w = parse_word(value, gens)
            core, _ = cyclic_reduce(w)
            if len(core) == 0:
                raise EmptyRelator(f"line {lineno}: relator {value!r} reduces to the empty word")
            relators.append(core)
        elif key == "lambda":
            try:
                lam = Fraction(value)
            except (ValueError, ZeroDivisionError) as e:
                raise ParseError(f"line {lineno}: bad lambda {value!r}") from e
        else:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
    if gens is None:
        raise ParseError("missing gens line")
    return Presentation(gens, tuple(relators), lam)


def render_presentation(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.generators)]
    if p.lam_target != DEFAULT_LAMBDA:
        lines.append(f"lambda: {p.lam_target}")
    for r in p.relators:
        lines.append("rel: " + p.show(r))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Pieces

Occurrence = tuple[int, int, int]  # (relator id, orientation +1/-1, start mod period)


@dataclass(frozen=True)
class Piece:
    word: Word
    witnesses: tuple[Occurrence, Occurrence]

    @property
    def length(self) -> int:
        return len(self.word)


@dataclass
class PieceIndex:
    pieces: tuple[Piece, ...]
    max_by_relator: dict[int, int]
    ratio_by_relator: dict[int, Fraction]
    worst_by_relator: dict[int, Piece | None]


_AGREEMENT = re.compile(rb"\x00+")


def _byte_planes(v: Word, code: dict[int, int], n_planes: int) -> list[bytes]:
    """v over the dense letter code, one byte string per 8 bits of the code."""
    return [bytes((code[x] >> (8 * k)) & 0xFF for x in v) for k in range(n_planes)]


def compute_pieces(p: Presentation) -> PieceIndex:
    """All maximal pieces of the relators; see ``piece_index``."""
    return piece_index(p.relators)


def piece_index(words: Sequence[Word]) -> PieceIndex:
    """All maximal pieces with witnesses, excluding isomorphic occurrence pairs.

    ``words`` are cyclic words: relators, or cell boundaries read as words
    over edge letters.  Occurrence pairs within one word and orientation are
    distinct only modulo the word's rotational symmetry (shift by its
    primitive period).  Pieces are reported in one orientation (their
    inverses occur in the mirrored witnesses); lengths are capped at the
    shorter witness word, and a longer common run yields every capped window.

    Each diagonal d pairs v1[t] with v2[t+d] for t over lcm(|v1|, |v2|)
    positions.  Both streams are coded as bytes; the XOR of the two as big
    ints is zero exactly where they agree, so a regex over its bytes reads
    off the maximal agreement runs.  Two streams are scanned only if some
    letter, up to sign, occurs in both at distinct positions: no piece can
    lie anywhere else.
    """
    alphabet = sorted({s * x for r in words for x in r for s in (1, -1)})
    code = {x: c for c, x in enumerate(alphabet)}
    n_planes = max(1, ((len(alphabet) - 1).bit_length() + 7) >> 3)
    # (witness pair, length) -> (-length, word, witness pair): the values
    # sort into the reported piece order.
    found: dict[tuple, tuple] = {}

    def scan(rid1: int, v1: Word, per1: int, o1: int, rid2: int, v2: Word, per2: int, o2: int):
        same_stream = rid1 == rid2 and o1 == o2
        n1, n2 = len(v1), len(v2)
        cap = min(n1, n2)
        L = math.lcm(n1, n2)
        if same_stream:
            # Diagonal per1 - d is diagonal d shifted by d: the same runs with
            # their witnesses swapped.  Diagonal 0 is the word's rotation
            # onto itself.
            diagonals = range(1, per1 // 2 + 1)
        else:
            diagonals = range(per1 if rid1 == rid2 else math.gcd(per1, per2))
        doubled1 = v1 + v1
        ints1 = [int.from_bytes(b * (L // n1), "big") for b in _byte_planes(v1, code, n_planes)]
        doubled2 = [b + b for b in _byte_planes(v2, code, n_planes)]
        for d in diagonals:
            diff = 0
            for a, b in zip(ints1, doubled2):
                diff |= a ^ int.from_bytes(b[d:d + n2] * (L // n2), "big")
            if diff == 0:
                # The streams agree all the way round: every start is a window.
                runs = [(0, L + cap - 1)]
            else:
                # Rotate to start at the first disagreement, so a run
                # wrapping round the end of the cycle is read as one.
                cut = L - ((diff.bit_length() + 7) >> 3)
                mism = diff.to_bytes(L, "big")
                runs = [
                    ((cut + m.start()) % L, m.end() - m.start())
                    for m in _AGREEMENT.finditer(mism[cut:] + mism[:cut])
                ]
            for start, run in runs:
                length = min(run, cap)
                for t in range(start, start + run - length + 1):
                    occ1 = (rid1, o1, t % per1)
                    occ2 = (rid2, o2, (t + d) % per2)
                    pair = (occ1, occ2) if occ1 <= occ2 else (occ2, occ1)
                    # The pair and the length fix the word: it starts at pair[0].
                    if (pair, length) not in found:
                        s = t % n1
                        # A slice of a Word holds valid letters: skip re-validation.
                        word = tuple.__new__(Word, doubled1[s:s + length])
                        found[pair, length] = (-length, word, pair)

    periods = [r.primitive_period() for r in words]
    letters = [{abs(x) for x in r} for r in words]
    users: dict[int, list[int]] = {}
    for rid, used in enumerate(letters):
        for x in used:
            users.setdefault(x, []).append(rid)
    for rid1, r1 in enumerate(words):
        per1 = periods[rid1]
        if len(letters[rid1]) < len(r1):  # some letter repeats, up to sign
            scan(rid1, r1, per1, 1, rid1, r1, per1, 1)
            scan(rid1, r1, per1, 1, rid1, r1.inverse(), per1, -1)
        for rid2 in {rid2 for x in letters[rid1] for rid2 in users[x] if rid2 > rid1}:
            r2, per2 = words[rid2], periods[rid2]
            scan(rid1, r1, per1, 1, rid2, r2, per2, 1)
            scan(rid1, r1, per1, 1, rid2, r2.inverse(), per2, -1)

    rows = sorted(found.values())
    found.clear()  # drop the keys before the Piece objects are built
    pieces = tuple(Piece(word, pair) for _, word, pair in rows)
    max_by: dict[int, int] = {rid: 0 for rid in range(len(words))}
    worst: dict[int, Piece | None] = {rid: None for rid in range(len(words))}
    for pc in pieces:
        for rid, _, _ in pc.witnesses:
            if pc.length > max_by[rid]:
                max_by[rid] = pc.length
                worst[rid] = pc
    ratio = {
        rid: Fraction(max_by[rid], len(words[rid])) for rid in max_by
    }
    return PieceIndex(pieces, max_by, ratio, worst)


# ---------------------------------------------------------------------------
# Metric condition


@dataclass
class RelatorVerdict:
    rid: int
    relator_length: int
    max_piece: int
    ratio: Fraction
    passed: bool
    worst: Piece | None


@dataclass
class MetricReport:
    lam: Fraction
    entries: list[RelatorVerdict]
    passed: bool
    index: PieceIndex = field(repr=False)


def check_small_cancellation(p: Presentation, lam: Fraction | None = None) -> MetricReport:
    """Strict metric condition: every piece through r has length < lam*|r|."""
    lam = Fraction(lam) if lam is not None else p.lam_target
    if not (0 < lam < 1):
        raise BadParams(f"lambda {lam} outside (0, 1)")
    index = compute_pieces(p)
    entries = []
    for rid, r in enumerate(p.relators):
        ok = Fraction(index.max_by_relator[rid]) < lam * len(r)
        entries.append(
            RelatorVerdict(rid, len(r), index.max_by_relator[rid], index.ratio_by_relator[rid], ok, index.worst_by_relator[rid])
        )
    return MetricReport(lam, entries, all(e.passed for e in entries), index)


# ---------------------------------------------------------------------------
# Example families


def _tv_relator(n: int, k: int) -> Word:
    block = [1] * n + [2] * n
    return Word(block * k)


def gen_example(family: str, **params) -> Presentation:
    """Built-in presentation families: tv, pride, rips, free."""
    family = family.lower()
    if family in ("free", "none"):
        gens = tuple(params.get("generators", ("a", "b")))
        return Presentation(gens, ())
    if family == "tv":
        I = sorted(set(params["I"]))
        k = int(params["k"])
        if not I or min(I) < 1:
            raise BadParams("tv: I must be nonempty positive integers")
        if k < 1:
            raise BadParams("tv: k must be >= 1")
        notes = ()
        if k < 7:
            msg = f"tv family with k={k} < 7 is not expected to satisfy the 1/6 metric condition"
            warnings.warn(msg)
            notes = (msg,)
        return Presentation(("a", "b"), tuple(_tv_relator(n, k) for n in I), notes=notes)
    if family == "pride":
        n_max = int(params["n_max"])
        if n_max < 1:
            raise BadParams("pride: n_max must be >= 1")
        rels: list[Word] = []
        for n in range(1, n_max + 1):
            u = Word(([1] * n + [2] * n) * 10)
            v = Word(([1] * n + [2] * (2 * n)) * 10)
            rels.append(Word((1,) + tuple(u)))  # a * u_n
            rels.append(Word((2,) + tuple(v)))  # b * v_n
        return Presentation(("a", "b"), tuple(rels))
    if family == "rips":
        q_gens = tuple(params.get("q_generators", ("a1",)))
        q_rels: tuple = tuple(params.get("q_relators", ()))
        j_max = int(params["j_max"])
        scale = int(params.get("scale", 80))
        if j_max < 1 or scale < 1:
            raise BadParams("rips: j_max and scale must be >= 1")
        gens = q_gens + ("x", "y")
        m = len(q_gens)
        x, y = m + 1, m + 2  # letter encodings

        def conj(i: int, mid: int, s: int) -> Word:
            return Word((s * (i + 1), mid, -s * (i + 1)))

        base_words: list[Word] = []
        for i in range(m):
            base_words.append(conj(i, x, 1))
            base_words.append(conj(i, x, -1))
        for i in range(m):
            base_words.append(conj(i, y, 1))
            base_words.append(conj(i, y, -1))
        for r in q_rels:
            w = r if isinstance(r, Word) else parse_word(str(r), q_gens)
            base_words.append(w)
        if j_max > len(base_words):
            raise BadParams(
                f"rips: j_max={j_max} exceeds the {len(base_words)} available base words"
            )
        rels = []
        for j in range(1, j_max + 1):
            pad: list[int] = []
            for i in range(scale * j + 1, scale * (j + 1) + 1):
                pad.extend([x, y] * i)
                pad.extend([x, y, y])
            w = free_reduce(Word(tuple(base_words[j - 1]) + tuple(pad)))
            core, _ = cyclic_reduce(w)
            if len(core) == 0:
                raise EmptyRelator("rips relator collapsed")
            rels.append(core)
        return Presentation(gens, tuple(rels))
    raise BadParams(f"unknown family {family!r}")
