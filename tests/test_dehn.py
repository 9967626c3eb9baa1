import hashlib
import random
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    bucket_key,
    completes_half_relator,
    dehn_reduce_restart,
    free_product_trivial,
    half_relator_prefixes,
    longest_rewrite_naive,
    shortlex_search,
)
from wallkit import complexes
from wallkit.dehn import (
    DehnMachine,
    dehn_reduce,
    is_equal,
    is_trivial,
    iter_reduced_words,
    letter_rank,
    shortlex_key,
    shortlex_normal_form,
)
from wallkit.errors import BadParams, BudgetExceeded, NotSmallCancellation
from wallkit.presentation import Presentation, check_small_cancellation, gen_example, parse_presentation
from wallkit.words import Word, cyclic_reduce, free_reduce


@pytest.fixture(scope="module")
def one():
    return gen_example("tv", I={1}, k=7)


@pytest.fixture(scope="module")
def machine(one):
    return DehnMachine(one)


def test_reduce_examples(one, machine):
    ab4 = one.word("(ab)^4")
    assert dehn_reduce(ab4, machine) == one.word("(b^-1a^-1)^3")
    assert dehn_reduce(one.word("(ab)^7"), machine) == Word()
    free = gen_example("free")
    mf = DehnMachine(free)
    w = free.word("ab^-1a")
    assert dehn_reduce(w, mf) == w


def test_is_trivial_examples(one, machine):
    assert is_trivial(one.word("(ab)^7"), machine)
    assert not is_trivial(one.word("a"), machine)
    assert is_trivial(one.word("b^-1 (ab)^7 b"), machine)


def test_not_small_cancellation_guard():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bad = gen_example("tv", I={1, 2}, k=6)
    m = DehnMachine(bad)
    assert not m.small_cancellation_ok
    with pytest.raises(NotSmallCancellation):
        dehn_reduce(bad.word("ab"), m)


# These relators fail C'(1/6): the prefix a^3 covers more than half of each.
TIES = "gens: a b c\nrel: a^3 b\nrel: a^3 b^-1\nrel: a^3 c^-1 b\n"


def test_trie_matches_naive_search(machine):
    # The trie must pick the shortest, then least, of the tied relators.
    ties = DehnMachine(parse_presentation(TIES))
    rng = random.Random(5)
    for m in (machine, ties):
        sym = m.symmetrized
        for _ in range(200):
            w = free_reduce(Word(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 20))))
            for pos in range(len(w)):
                naive = None
                for r in sym:
                    n = 0
                    while pos + n < len(w) and n < len(r) and w[pos + n] == r[n]:
                        n += 1
                    if 2 * n > len(r):
                        repl = Word(r[n:]).inverse()
                        cand = (n, (len(r), tuple(r)), repl)
                        if naive is None or (-cand[0], cand[1]) < (-naive[0], naive[1]):
                            naive = cand
                got = m.longest_rewrite_at(w, pos)
                if naive is None:
                    assert got is None
                else:
                    assert got is not None and got[0] == naive[0] and got[1] == naive[2]


def _automaton_states(w, delta):
    """The automaton's state after each prefix of w, the empty one first."""
    states = [0]
    for x in w:
        states.append(delta[states[-1]][x])
    return states


# Not C'(1/6) either: after "ba^2" the state is that trie node, which holds
# no replacement, and only its failure target a^2 covers > half of a^3.
# Under C'(1/6) such a hit would need a piece longer than half a relator.
OVERLAP = "gens: a b\nrel: a^3\nrel: b a^2 b^5\n"


@pytest.mark.parametrize(
    "make, max_len",
    [
        (lambda: gen_example("tv", I={1, 2}, k=7), 8),
        (lambda: gen_example("tv", I={1, 2, 3}, k=7), 8),
        (lambda: parse_presentation(TIES), 6),
        (lambda: parse_presentation(OVERLAP), 8),
    ],
    ids=["tv12", "tv123", "ties", "overlap"],
)
def test_automaton_hit_matches_suffix_oracle(make, max_len):
    p = make()
    delta, hit = DehnMachine(p).automaton()
    prefixes = half_relator_prefixes(p.relators)
    hits = 0
    for w in iter_reduced_words(len(p.generators), max_len):
        want = completes_half_relator(w, prefixes)
        assert hit[_automaton_states(w, delta)[-1]] == want, w
        hits += want
    assert hits
    # Long relator products also cross the long relators' failure links;
    # no suffix longer than the longest relator can match.
    longest = max(len(r) for r in p.relators)
    for w in _relator_products(p, 7, count=5):
        for j, s in enumerate(_automaton_states(w, delta)):
            assert hit[s] == completes_half_relator(w[max(0, j - longest):j], prefixes), (w, j)


def test_automaton_is_built_once_and_only_on_demand():
    p = gen_example("tv", I={1, 2}, k=7)
    m = DehnMachine(p)
    assert m._automaton is None and m._elements is None
    # The first reduction builds the automaton it scans with; later
    # reductions reuse it.
    dehn_reduce(Word((1, 2) * 8), m)
    a = m._automaton
    assert a is not None and m._elements is None
    is_trivial(Word((1, 2) * 7), m)
    assert m.automaton() is a
    check_small_cancellation(p, Fraction(1, 6))
    assert m._automaton is a and m._elements is None
    t = m.elements()
    assert m.elements() is t and m.automaton() is a
    free = DehnMachine(gen_example("free"))
    delta, hit = free.automaton()
    assert delta == [[0] * 5] and hit == [False]


def _relator_products(p, seed, count=20, letters=300):
    """Seeded words of about `letters` letters: conjugated relator shifts,
    each followed by one free letter, so most do not reduce to 1."""
    rng = random.Random(seed)
    rels = list(p.relators) + [r.inverse() for r in p.relators]
    out = []
    for _ in range(count):
        w = []
        while len(w) < letters:
            r = rng.choice(rels)
            k = rng.randrange(len(r))
            conj = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 4))]
            w += conj + list(r[k:] + r[:k]) + [-x for x in reversed(conj)]
            w.append(rng.choice((1, -1, 2, -2)))
        out.append(Word(w))
    return out


# sha256 of the dehn_reduce outputs, recorded before the rewrite trie became
# nested dicts.  It pins which reduced word the leftmost-longest rule picks,
# not only whether the word is trivial.
DEHN_DIGEST = "9b7795daf8750d3d230a2d2172365d757a55c12a476d2a043173e68c54a1c414"


def test_dehn_reduce_matches_recorded_digest():
    h = hashlib.sha256()
    short = list(iter_reduced_words(2, 8))
    assert len(short) == 13121
    for I in ({1, 2}, {1, 2, 3}):
        p = gen_example("tv", I=I, k=7)
        m = DehnMachine(p)
        for w in short + _relator_products(p, len(I)):
            h.update(repr(tuple(dehn_reduce(w, m))).encode() + b"\n")
    assert h.hexdigest() == DEHN_DIGEST


DIFF_CASES = [(I, k) for k in (7, 10) for I in ({1}, {1, 2}, {1, 2, 3}, {2, 3})]
DIFF_IDS = [f"tv{''.join(map(str, sorted(I)))}-k{k}" for I, k in DIFF_CASES]


@pytest.fixture(scope="module", params=DIFF_CASES, ids=DIFF_IDS)
def diff_machine(request):
    I, k = request.param
    return DehnMachine(gen_example("tv", I=I, k=k))


def _assert_same_as_restart(w, m):
    r = dehn_reduce(w, m)
    assert r == dehn_reduce_restart(w, m), w
    assert type(r) is Word and dehn_reduce(r, m) == r, w
    return r


@st.composite
def _fragment_words(draw, sym):
    """Relator fragments and whole relators, each between a conjugator and
    its inverse and followed by free letters: a whole relator is deleted,
    and its conjugators then cancel on through it.  Optionally a >half
    relator prefix comes first or last."""
    letters = st.lists(st.sampled_from((1, -1, 2, -2)), max_size=3)

    def half():
        r = draw(st.sampled_from(sym))
        return list(r[: draw(st.integers(len(r) // 2 + 1, len(r)))])

    w = half() if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 6))):
        r = draw(st.sampled_from(sym))
        a = draw(st.integers(0, len(r) - 1))
        frag = r if draw(st.booleans()) else r[a:draw(st.integers(a + 1, len(r)))]
        conj = draw(letters)
        w += conj + list(frag) + [-x for x in reversed(conj)] + draw(letters)
    if draw(st.booleans()):
        w += half()
    return Word(w)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dehn_reduce_matches_restart_oracle(diff_machine, data):
    _assert_same_as_restart(data.draw(_fragment_words(sorted(diff_machine.symmetrized))), diff_machine)


def test_dehn_reduce_matches_restart_oracle_at_edges(diff_machine):
    # A shortest >half relator prefix h as the whole word, at the very
    # start, and at the very end, after a free letter that does not cancel
    # it.  Then h with a whole relator z before its last letter: deleting z
    # makes a match that starts as far left of the change as one can.
    sym = sorted(diff_machine.symmetrized)
    for r in sym:
        h = list(r[: len(r) // 2 + 1])
        x = next(y for y in (1, -1, 2, -2) if y != -h[0] and y != -h[-1])
        z = next(list(s) for s in sym if s[0] not in (h[-1], -h[-2]) and s[-1] != -h[-1])
        for w in (h, h + [x], [x] + h, h + [x] + h, h[:-1] + z + h[-1:]):
            assert _assert_same_as_restart(Word(w), diff_machine) != free_reduce(Word(w))


def _random_presentation(seed, g, count, length=100):
    """`count` seeded relators of about `length` random letters over g
    generators, each kept only if the presentation still passes C'(1/6).
    Their tries branch at every depth, unlike the periodic tv relators'."""
    rng = random.Random(seed)
    gens = tuple("abc"[:g])
    rels = []
    while len(rels) < count:
        r = cyclic_reduce(Word(_random_reduced(rng, length, g)))[0]
        p = Presentation(gens, tuple(rels + [r]))
        if check_small_cancellation(p, Fraction(1, 6)).passed:
            rels.append(r)
    return p


@pytest.fixture(scope="module", params=[(2, 3), (3, 4)], ids=["g2", "g3"])
def branchy(request):
    g, count = request.param
    return DehnMachine(_random_presentation(10 * g + count, g, count))


def _conjugated_relators(rng, m, count, free_letters):
    """A product of `count` cyclic shifts of relators or their inverses,
    each between a random conjugator and its inverse; with `free_letters`
    a random letter follows each, so the product need not be trivial."""
    g = len(m.presentation.generators)
    w = []
    for _ in range(count):
        r = rng.choice(m.symmetrized)
        conj = _random_reduced(rng, rng.randint(0, 4), g)
        w += conj + list(r) + [-x for x in reversed(conj)]
        if free_letters:
            w += _random_reduced(rng, 1, g)
    return Word(w)


def test_branchy_products_of_conjugated_relators_reduce_to_one(branchy):
    rng = random.Random(29)
    for count in (1, 2, 3, 5):
        for _ in range(4):
            assert dehn_reduce(_conjugated_relators(rng, branchy, count, False), branchy) == Word()


def test_branchy_dehn_reduce_matches_restart_oracle(branchy):
    # Conjugated relators with a free letter after each, then a >half
    # relator prefix: the prefix is rewritten, and its replacement may
    # cancel into the letters before it.
    rng = random.Random(31)
    changed = 0
    for _ in range(12):
        w = list(_conjugated_relators(rng, branchy, rng.randint(1, 3), True))
        r = rng.choice(branchy.symmetrized)
        w += r[: rng.randint(len(r) // 2 + 1, len(r))]
        changed += _assert_same_as_restart(Word(w), branchy) != free_reduce(Word(w))
    assert changed == 12


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_branchy_dehn_reduce_matches_restart_oracle_on_fragments(branchy, data):
    _assert_same_as_restart(data.draw(_fragment_words(sorted(branchy.symmetrized))), branchy)


def test_branchy_longest_rewrite_matches_naive_search(branchy):
    # On a fresh machine the rows hold trie edges only; after automaton()
    # they also hold the failure transitions, which the walk must not take.
    m = DehnMachine(branchy.presentation)
    rng = random.Random(37)
    words = [free_reduce(_conjugated_relators(rng, m, 2, True)) for _ in range(3)]
    matched = 0
    for build in (False, True):
        if build:
            m.automaton()
        assert (m._automaton is not None) == build
        for w in words:
            for pos in range(len(w)):
                want = longest_rewrite_naive(m.symmetrized, w, pos)
                assert m.longest_rewrite_at(w, pos) == want, (w, pos)
                matched += want is not None
    assert matched


def test_rewrite_trie_memory_is_bounded():
    # Three relators of about 100 letters over two generators: the trie
    # and its automaton share one set of rows and store no replacement
    # words, about 9.1 MiB under tracemalloc.  A dict trie beside the
    # automaton's rows, with a replacement word per node, held 27.4 MiB.
    p = _random_presentation(1, 2, 3)
    tracemalloc.start()
    try:
        m = DehnMachine(p)
        m.automaton()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 15 * 2**20, held


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from((1, -1, 2, -2)), max_size=24))
def test_reduce_properties_against_oracle(letters):
    one_local = gen_example("tv", I={1}, k=7)
    m = DehnMachine(one_local)
    w = Word(letters)
    r = dehn_reduce(w, m)
    assert len(r) <= len(free_reduce(w))
    # group element preserved: w * r^-1 is trivial (checked by the
    # independent free-product normal form)
    assert free_product_trivial(Word(tuple(w) + tuple(r.inverse())), 7)
    assert is_trivial(w, m) == free_product_trivial(w, 7)


@pytest.mark.parametrize("letters", [(1, -3) * 4, (3,), (-4, 1, 2), (2, 1, 5)])
def test_letters_outside_the_generators_are_bad_params(one, letters):
    # tv{1} has g = 2; a letter of absolute value 3 or more would read
    # another letter's entry of the rows: (1, -3) * 4 once reduced to
    # (-2, -1, -2, -1, -2, -1)
    m = DehnMachine(one)
    w = Word(letters)
    for call in (
        lambda: dehn_reduce(w, m),
        lambda: is_trivial(w, m),
        lambda: is_equal(w, Word((1,)), m),
        lambda: is_equal(Word((1,)), w, m),
        lambda: shortlex_normal_form(w, m),
    ):
        with pytest.raises(BadParams, match="outside the 2 generators"):
            call()
    assert m._elements is None  # the check comes before the element table


def test_letter_check_follows_free_reduction(one):
    # a foreign letter that cancels freely is never read
    m = DehnMachine(one)
    assert dehn_reduce(Word((3, 1, -1, -3)), m) == Word()
    assert dehn_reduce(Word((2, 3, -3)), m) == Word((2,))
    assert is_trivial(Word((-3, 3)), m)


def test_is_equal(one, machine):
    assert is_equal(one.word("(ab)^4"), one.word("(b^-1a^-1)^3"), machine)
    assert not is_equal(one.word("a"), one.word("b"), machine)


def test_letter_order_and_iteration():
    assert [letter_rank(x) for x in (1, -1, 2, -2)] == [0, 1, 2, 3]
    ws = list(iter_reduced_words(2, 2))
    assert ws[0] == Word()
    assert ws[1:5] == [Word((1,)), Word((-1,)), Word((2,)), Word((-2,))]
    assert all(w.is_freely_reduced() for w in ws)
    keys = [shortlex_key(w) for w in ws]
    assert keys == sorted(keys)
    assert len(ws) == 1 + 4 + 12


def test_shortlex_normal_form(one, machine):
    assert shortlex_normal_form(Word(), machine) == Word()
    nf = shortlex_normal_form(one.word("(ab)^4"), machine)
    assert len(nf) == 6
    assert is_equal(nf, one.word("(ab)^4"), machine)
    # BFS oracle: nothing shorter or lex-smaller is equal
    for cand in iter_reduced_words(2, 6):
        if shortlex_key(cand) >= shortlex_key(nf):
            break
        assert not is_equal(cand, nf, machine)
    # free group: normal form is the free reduction
    free = gen_example("free")
    mf = DehnMachine(free)
    w = free.word("a b b^-1 a")
    assert shortlex_normal_form(w, mf) == free.word("a^2")


def test_shortlex_constant_on_classes(one, machine):
    rng = random.Random(11)
    for _ in range(20):
        w = free_reduce(Word(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 8))))
        conj = Word(rng.choice((1, -1, 2, -2)) for _ in range(2))
        w2 = free_reduce(Word(tuple(conj) + tuple(one.word("(ab)^7")) + tuple(conj.inverse()) + tuple(w)))
        nf1 = shortlex_normal_form(w, machine)
        nf2 = shortlex_normal_form(w2, machine)
        assert nf1 == nf2
        assert shortlex_normal_form(nf1, machine) == nf1


def test_budget(one, monkeypatch):
    m = DehnMachine(one, node_budget=5)
    with pytest.raises(BudgetExceeded):
        shortlex_normal_form(one.word("(ab)^4"), m)
    # an explicit budget wins over the environment
    monkeypatch.setenv("WALLKIT_BUDGET", "1000000")
    m = DehnMachine(one, node_budget=5)
    assert m.node_budget == 5
    with pytest.raises(BudgetExceeded):
        shortlex_normal_form(one.word("(ab)^4"), m)
    assert DehnMachine(one).node_budget == 1000000


def test_budget_leaves_the_element_table_exact():
    # tv{1} has 53 elements within radius 3, so a budget of 60 stops the
    # table inside sphere 4, and (ab)^4 a reduces to 5 letters.
    one = gen_example("tv", I={1}, k=7)
    m = DehnMachine(one, node_budget=60)
    with pytest.raises(BudgetExceeded):
        shortlex_normal_form(one.word("(ab)^4 a"), m)
    assert shortlex_normal_form(one.word("a b"), m) == one.word("ab")
    with pytest.raises(BudgetExceeded):
        shortlex_normal_form(one.word("(ab)^4 a"), m)
    table = m.elements()
    words = [table.word(v) for v in range(len(table.words))]
    assert len(words) == 60 and len(set(words)) == 60
    assert [len(w) for w in words] == sorted(len(w) for w in words)


def _random_reduced(rng, n, g=2):
    letters = [s * x for x in range(1, g + 1) for s in (1, -1)]
    out = []
    while len(out) < n:
        x = rng.choice(letters)
        if not out or out[-1] != -x:
            out.append(x)
    return out


# Twenty seeded reduced words of 5 to 7 letters, the same on every machine.
_RNG = random.Random(7)
RANDOM_WORDS = [Word(_random_reduced(_RNG, _RNG.randint(5, 7))) for _ in range(20)]


@pytest.mark.parametrize("I", [{1}, {1, 2}, {1, 2, 3}], ids=["tv1", "tv12", "tv123"])
def test_shortlex_normal_form_matches_search_oracle(I):
    m = DehnMachine(gen_example("tv", I=I, k=7))
    # The first half of a symmetrized relator and the inverse of its other
    # half are two geodesics that tie; the normal form is the lesser one.
    halves = sorted({Word(r[: len(r) // 2]) for r in m.symmetrized if len(r) <= 18})
    # A relator between filler letters, followed by a half relator: Dehn's
    # algorithm leaves the half in place, at most 9 letters in all.
    rng = random.Random(len(I))
    rels = sorted(m.symmetrized)
    products = []
    while len(products) < 2:
        r, h = rng.choice(rels), rng.choice(rels)
        w = Word(_random_reduced(rng, rng.randint(0, 1)) + list(r) + list(h[: len(h) // 2])
                 + _random_reduced(rng, rng.randint(0, 1)))
        if 0 < len(dehn_reduce(w, m)) <= 9:
            products.append(w)
    changed = 0
    for w in halves + products + RANDOM_WORDS:
        nf = shortlex_normal_form(w, m)
        assert nf == shortlex_search(w, m), w
        changed += nf != dehn_reduce(w, m)
    assert changed >= 2


def test_normal_form_is_exact_when_bucket_keys_collide(monkeypatch):
    # With no quotient points a key is the abelian class alone, so "ab" and
    # "ba" share one and only Dehn's algorithm tells such elements apart.
    # Each word gets a fresh table, which grows past its key-mates first.
    monkeypatch.setattr(complexes, "_find_finite_quotients", lambda p, seed: {x: () for x in (1, -1, 2, -2)})
    p = gen_example("tv", I={1, 2}, k=7)
    for w in iter_reduced_words(2, 3):
        m = DehnMachine(p)
        assert shortlex_normal_form(w, m) == shortlex_search(w, m) == w
    assert len(m.elements().buckets) < len(m.elements().words) // 2


def _grown_table(m, radius, seed):
    table = complexes.ElementTable(m.presentation, m, vertex_budget=100_000, seed=seed)
    for _ in range(radius):
        for _ in table.walk():
            pass
    return table


def _assert_keys_match_oracle(table):
    assert len(table.keys) == len(table.words)
    for v in range(len(table.words)):
        w = table.word(v)
        image, residue = table.keys[v]
        assert (tuple(image), residue) == bucket_key(table.perms, table.ab_basis, w), w


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("I, radius", [({1}, 7), ({1, 2}, 7), ({1, 2, 3}, 6)], ids=["tv1", "tv12", "tv123"])
def test_bucket_keys_match_tuple_oracle(I, radius, seed):
    # Each move steps its key from its parent's: a bytes image through one
    # translate table and the residue through the per-letter memo.
    table = _grown_table(DehnMachine(gen_example("tv", I=I, k=7)), radius, seed)
    assert len(table.keys[0][0]) > 0 and table.ab_basis
    _assert_keys_match_oracle(table)


def test_bucket_keys_match_tuple_oracle_on_three_generators():
    # TIES fails C'(1/6), so Dehn's algorithm need not solve its word
    # problem and the table need not be exact; its keys are still functions
    # of the stored words, now over six letters and a rank-3 lattice.
    m = DehnMachine(parse_presentation(TIES))
    m.small_cancellation_ok = True
    table = _grown_table(m, 3, 0)
    assert len(table.words) > 50 and len(table.ab_basis) == 3
    _assert_keys_match_oracle(table)


def test_bucket_keys_of_normal_form_queries_match_tuple_oracle():
    # The keys index() computes for the queried words, read first: a wrong
    # one would make index() grow the table up to the node budget.  Then the
    # elements made while index() grew the table.
    m = DehnMachine(gen_example("tv", I={1, 2}, k=7))
    table = m.elements()
    for w in RANDOM_WORDS:
        image, residue = table.key(w)
        assert (tuple(image), residue) == bucket_key(table.perms, table.ab_basis, w), w
    for w in RANDOM_WORDS:
        shortlex_normal_form(w, m)
    assert len(table.words) > 1000
    _assert_keys_match_oracle(table)


def test_huge_relator_index_guarded():
    # the printed-scale padding relator is primitive and ~20k letters long;
    # its symmetrized index would need ~7.6e8 trie nodes, so construction
    # must refuse instead of exhausting memory
    big = gen_example("rips", q_generators=("a1",), q_relators=(), j_max=1, scale=80)
    with pytest.raises(BudgetExceeded):
        DehnMachine(big)
