import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_pieces, diagonal_scan_pieces
from wallkit.errors import BadParams, EmptyRelator, ParseError, UnknownGenerator
from wallkit.presentation import (
    Presentation,
    check_small_cancellation,
    compute_pieces,
    gen_example,
    parse_presentation,
    parse_word,
    render_presentation,
)
from wallkit.words import Word, cyclic_reduce


def tv(I, k=7):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return gen_example("tv", I=I, k=k)


# -- parsing -------------------------------------------------------------------


def test_parse_basic():
    p = parse_presentation("gens: a b\nrel: (a b)^7\n")
    assert p.generators == ("a", "b")
    assert len(p.relators) == 1 and len(p.relators[0]) == 14


def test_parse_superscript_inverse_and_powers():
    p = parse_presentation("gens: a b\nrel: ab⁻¹ab\n")
    assert p.relators[0] == Word((1, -2, 1, 2))
    assert parse_word("(ab)^-2", ("a", "b")) == Word((-2, -1, -2, -1))
    assert parse_word("a^3", ("a", "b")) == Word((1, 1, 1))


def test_parse_multichar_names():
    w = parse_word("a1xa1^-1", ("a1", "x", "y"))
    assert w == Word((1, 2, -1))


def test_parse_errors():
    with pytest.raises(EmptyRelator):
        parse_presentation("gens: a\nrel: a a^-1\n")
    with pytest.raises(ParseError):
        parse_presentation("gens a\n")
    with pytest.raises(UnknownGenerator):
        parse_presentation("gens: a\nrel: ab\n")
    with pytest.raises(ParseError):
        parse_presentation("gens: a\nrel: (a\n")
    with pytest.raises(ParseError):
        parse_presentation("rel: a\n")


def test_relator_dedupe_shift_and_inverse():
    p = parse_presentation("gens: a b\nrel: (ab)^7\nrel: (ba)^-7\n")
    assert len(p.relators) == 1
    p2 = parse_presentation("gens: a b\nrel: abab\nrel: baba\n")
    assert len(p2.relators) == 1


def test_comments_and_lambda():
    p = parse_presentation("# header\ngens: a b # trailing\nlambda: 1/8\nrel: (ab)^7\n")
    assert p.lam_target == Fraction(1, 8)
    with pytest.raises(BadParams):
        parse_presentation("gens: a\nlambda: 1/2\nrel: a^9\n")


def test_render_roundtrip():
    p = tv({1, 2}, 7)
    text = render_presentation(p)
    q = parse_presentation(text)
    assert q.relators == p.relators and q.generators == p.generators


# -- pieces ---------------------------------------------------------------------


def test_single_power_relator_has_no_pieces():
    idx = compute_pieces(tv({1}, 7))
    assert idx.max_by_relator == {0: 0}
    assert idx.pieces == ()


def test_tv_pair_max_piece():
    idx = compute_pieces(tv({1, 2}, 7))
    assert idx.max_by_relator == {0: 2, 1: 2}
    words = {pc.word for pc in idx.pieces}
    assert Word((1, 2)) in words or Word((-2, -1)) in words


def test_tv_family_piece_structure():
    I = [1, 2, 3, 4, 5]
    idx = compute_pieces(tv(set(I), 7))
    for rid, n in enumerate(I):
        expect = max(max(2 * min(n, m) for m in I if m != n), n - 1)
        assert idx.max_by_relator[rid] == expect


def test_piece_witnesses_are_symmetric():
    idx = compute_pieces(tv({2, 3}, 7))
    for pc in idx.pieces:
        rids = {w[0] for w in pc.witnesses}
        for rid in rids:
            assert pc.length <= idx.max_by_relator[rid]


def _canon_words(pieces):
    out = set()
    for pc in pieces:
        w = tuple(pc.word)
        inv = tuple(-x for x in reversed(w))
        out.add(min(w, inv))
    return out


@pytest.mark.parametrize(
    "p",
    [
        tv({1}, 7),
        tv({1, 2}, 7),
        tv({1, 3}, 7),
        tv({1, 2}, 6),
        gen_example("pride", n_max=1),
        parse_presentation("gens: a b\nrel: aabab^-1\nrel: b^2a^2b^-1a\n"),
        # Pieces as long as the shorter relator: every capped window counts.
        parse_presentation("gens: a b\nrel: (ab)^2\nrel: (ab)^3\n"),
        parse_presentation("gens: a b c\nrel: ab\nrel: ababac\n"),
    ],
)
def test_pieces_match_brute_force(p):
    idx = compute_pieces(p)
    oracle_words, oracle_max = brute_force_pieces(p)
    assert idx.max_by_relator == oracle_max
    assert _canon_words(idx.pieces) == oracle_words


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_pieces_match_brute_force_random(seed):
    rng = random.Random(seed)
    rels = []
    for _ in range(rng.randint(1, 3)):
        while True:
            w = Word(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(2, 12)))
            core, _ = cyclic_reduce(w)
            if len(core) >= 2:
                rels.append(core)
                break
    try:
        p = Presentation(("a", "b"), tuple(rels))
    except Exception:
        return
    idx = compute_pieces(p)
    oracle_words, oracle_max = brute_force_pieces(p)
    assert idx.max_by_relator == oracle_max
    assert _canon_words(idx.pieces) == oracle_words


DEMO_01 = """
    # two relators sharing short alternating blocks
    gens: a b
    rel: (ab)^7
    rel: (aabb)^7
"""


def _many_letter_presentation() -> Presentation:
    """130 generators (260 letters, so a two-byte letter code) with shared blocks."""
    rng = random.Random(130)
    letters = [x for g in range(1, 131) for x in (g, -g)]
    rng.shuffle(letters)
    shared = [Word(rng.choice(letters) for _ in range(rng.randint(2, 9))) for _ in range(12)]
    gens = [rng.choice((g, -g)) for g in range(1, 131)]
    rng.shuffle(gens)
    rels = []
    for i in range(3):
        # Together the relators use every generator once outside the blocks.
        parts = [rng.choice(shared) for _ in range(6)] + [Word(gens[i::3])]
        rng.shuffle(parts)
        core, _ = cyclic_reduce(Word(x for part in parts for x in part))
        rels.append(core)
    return Presentation(tuple(f"g{i}" for i in range(130)), tuple(rels))


def test_many_letter_presentation_needs_two_code_bytes():
    p = _many_letter_presentation()
    assert len({s * x for r in p.relators for x in r for s in (1, -1)}) > 255
    assert len(compute_pieces(p).pieces) > 0


@pytest.mark.parametrize(
    "p",
    [
        tv({1}, 7),
        tv({1, 2}, 7),
        tv({1, 2, 3}, 7),
        tv({1, 2}, 6),
        gen_example("pride", n_max=1),
        gen_example("pride", n_max=2),
        gen_example("pride", n_max=3),
        gen_example("rips", j_max=1, scale=16),
        parse_presentation(DEMO_01),
        parse_presentation("gens: a b\nrel: (ab)^2\nrel: (ab)^3\n"),
        _many_letter_presentation(),
    ],
    ids=["tv1", "tv12", "tv123", "tv12k6", "pride1", "pride2", "pride3", "rips16", "demo01",
         "ab2ab3", "130gens"],
)
def test_pieces_equal_diagonal_scan_oracle(p):
    assert compute_pieces(p) == diagonal_scan_pieces(p)


_powered_relators = st.lists(
    st.tuples(
        st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), min_size=1, max_size=7),
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(_powered_relators)
def test_pieces_equal_diagonal_scan_oracle_random(relators):
    rels = [core for core, _ in (cyclic_reduce(Word(base * k)) for base, k in relators) if core]
    if not rels:
        return
    p = Presentation(("a", "b", "c"), tuple(rels))
    assert compute_pieces(p) == diagonal_scan_pieces(p)


# -- metric condition -----------------------------------------------------------


def test_check_small_cancellation_tv7_passes():
    rep = check_small_cancellation(tv({1, 2}, 7), Fraction(1, 6))
    assert rep.passed
    assert all(e.ratio <= Fraction(1, 7) for e in rep.entries)


def test_check_small_cancellation_strict_boundary():
    rep = check_small_cancellation(tv({1, 2}, 6), Fraction(1, 6))
    assert not rep.passed
    # the length-12 relator has a piece of length exactly 12/6
    e0 = rep.entries[0]
    assert e0.relator_length == 12 and e0.max_piece == 2 and not e0.passed


def test_check_vacuous_single_relator():
    rep = check_small_cancellation(tv({1}, 7), Fraction(1, 100))
    assert rep.passed


def test_tv_sweep_desk_scale():
    # every I of size <= 5 inside {1..6}, at powers 7 and 8
    import itertools

    for size in range(1, 6):
        for I in itertools.combinations(range(1, 7), size):
            assert check_small_cancellation(tv(set(I), 7), Fraction(1, 6)).passed, I
    for I in ({1, 2}, {1, 2, 3}, {2, 5}, {1, 2, 3, 4, 6}):
        assert check_small_cancellation(tv(I, 8), Fraction(1, 6)).passed, I


def test_bad_lambda():
    with pytest.raises(BadParams):
        check_small_cancellation(tv({1}, 7), Fraction(3, 2))


# -- families --------------------------------------------------------------------


def test_tv_generation():
    p = tv({1, 2}, 7)
    assert p.generators == ("a", "b")
    assert [len(r) for r in p.relators] == [14, 28]
    assert p.relators[0] == Word((1, 2) * 7)


def test_tv_low_k_flagged():
    with pytest.warns(UserWarning):
        p = gen_example("tv", I={1}, k=6)
    assert p.notes


def test_pride_generation_matches_printed_form():
    p = gen_example("pride", n_max=2)
    assert [len(r) for r in p.relators] == [21, 31, 41, 61]
    # a * (a^n b^n)^10 and b * (a^n b^2n)^10
    assert p.relators[0] == Word((1,) + (1, 2) * 10)
    assert p.relators[1] == Word((2,) + (1, 2, 2) * 10)


def test_pride_printed_instance_fails_metric_condition():
    # the self-overlap at shift 2n gives pieces of length about 18n, so the
    # printed truncation is not strictly small-cancellation; documented and
    # therefore excluded from positive separation runs.
    rep = check_small_cancellation(gen_example("pride", n_max=1), Fraction(1, 6))
    assert not rep.passed
    assert rep.index.max_by_relator[0] == 19


def test_rips_generation_structure():
    p = gen_example("rips", q_generators=("a1",), q_relators=(), j_max=1, scale=80)
    assert p.generators == ("a1", "x", "y")
    assert len(p.relators) == 1
    assert len(p.relators[0]) == 3 + sum(2 * i + 3 for i in range(81, 161))
    # leading conjugation block survives cyclic reduction
    assert p.relators[0][:3] == (1, 2, -1)


def test_rips_reduced_scale_passes_metric_condition():
    # max piece grows linearly in the scale (observed 8*scale: one padding
    # block aligned against the next) while the relator grows quadratically,
    # so the condition holds from scale 16 up; at the printed scale 80 the
    # same ratio is ~640/19523, far below 1/6.
    p = gen_example("rips", q_generators=("a1",), q_relators=(), j_max=1, scale=16)
    rep = check_small_cancellation(p, Fraction(1, 6))
    assert rep.passed
    assert rep.index.max_by_relator[0] == 8 * 16


def test_rips_j_max_bound():
    with pytest.raises(BadParams):
        gen_example("rips", q_generators=("a1",), q_relators=(), j_max=7, scale=10)


def test_free_family():
    p = gen_example("free")
    assert p.relators == ()


def test_bad_family_params():
    with pytest.raises(BadParams):
        gen_example("tv", I=set(), k=7)
    with pytest.raises(BadParams):
        gen_example("pride", n_max=0)
    with pytest.raises(BadParams):
        gen_example("nope")
