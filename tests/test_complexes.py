import gc
import hashlib
import random
import tracemalloc
import warnings
import weakref
from array import array
from collections import Counter
from fractions import Fraction

import pytest

from oracles import brute_force_b6, brute_force_cell_pieces, free_product_nf, gf2_rank_sorted, shortlex_search
from wallkit import complexes
from wallkit.complexes import (
    Complex,
    bfs,
    boundary_word,
    build_cayley_ball,
    build_example1,
    build_example2,
    check_B6,
    compute_cell_pieces,
    load_complex,
    save_complex,
    subdivide,
    validity_summary,
)
from wallkit.dehn import DehnMachine, dehn_reduce, is_trivial, iter_reduced_words, shortlex_key, shortlex_normal_form
from wallkit.errors import BadParams, BudgetExceeded, NotSmallCancellation, ParseError
from wallkit.presentation import Presentation, gen_example, parse_presentation
from wallkit.words import Word, render, symmetrize


@pytest.fixture(scope="module")
def one():
    return gen_example("tv", I={1}, k=7)


@pytest.fixture(scope="module")
def ball7(one):
    return build_cayley_ball(one, DehnMachine(one), 7)


# -- Cayley balls ---------------------------------------------------------------


def test_free_ball_counts():
    free = gen_example("free")
    c = build_cayley_ball(free, DehnMachine(free), 2)
    assert (c.nv, len(c.edges), len(c.cells)) == (17, 16, 0)
    assert sorted(c.dist) == [0] + [1] * 4 + [2] * 12


def test_small_radius_has_no_cells(one):
    c = build_cayley_ball(one, DehnMachine(one), 3)
    assert len(c.cells) == 0


def test_ball_r7_has_cell_through_identity(one, ball7):
    through_base = [cid for cid in range(len(ball7.cells)) if 0 in ball7.cell_vertices(cid)]
    assert len(through_base) == 2
    assert all(len(cell) == 14 for cell in ball7.cells)


def test_ball_vertex_count_against_independent_oracle(one, ball7):
    # enumerate normal forms via the free-product syllable form
    classes = {free_product_nf(w, 7) for w in iter_reduced_words(2, 7)}
    assert ball7.nv == len(classes)


def test_ball_distances_match_bfs(ball7):
    assert ball7.bfs_distances(0) == ball7.dist


def test_bfs_rejects_a_source_outside_the_vertices():
    # -1 used to read vertex nv - 1, and nv raised a bare IndexError
    c = build_example1([1])
    for src in (-1, c.nv, c.nv + 5):
        with pytest.raises(BadParams, match=f"no vertex {src}: ids run 0..{c.nv - 1}"):
            c.bfs_distances(src)
        with pytest.raises(BadParams, match=f"no vertex {src}"):
            bfs(c.adjacency().nbrs, src, (0,))


def test_ball_boundary_words_are_relator_cycles(one, ball7):
    sym = symmetrize(one.relators)
    for cid in range(len(ball7.cells)):
        assert boundary_word(ball7, cid) in sym


def test_ball_requires_condition():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bad = gen_example("tv", I={1, 2}, k=6)
    with pytest.raises(NotSmallCancellation):
        build_cayley_ball(bad, DehnMachine(bad), 2)
    free = gen_example("free")
    with pytest.raises(BadParams):
        build_cayley_ball(free, DehnMachine(free), 0)


def test_ball_vertex_budget(one):
    from wallkit.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        build_cayley_ball(one, DehnMachine(one), 5, vertex_budget=10)


def test_ball_seed_independence(one):
    a = build_cayley_ball(one, DehnMachine(one), 5, seed=0)
    b = build_cayley_ball(one, DehnMachine(one), 5, seed=99)
    assert a.nv == b.nv and a.edges == b.edges and a.cells == b.cells
    assert a.vertex_labels == b.vertex_labels


# sha256 of save_complex(c) + repr(c.dist), and the number of is_trivial
# calls (Dehn probes of bucket mates) made while building, recorded before
# each vertex's quotient image and abelian residue were folded into one
# bucket key.  The probe count depends on the seed; the ball does not.
BALL_DIGESTS = {
    "tv12-r8-seed0": ("f0e011f1fcedac45fef6b7a77516edb7027ebed7ab8ec8c3497db8d2e7f1b8a4", 954),
    "tv12-r8-seed3": ("f0e011f1fcedac45fef6b7a77516edb7027ebed7ab8ec8c3497db8d2e7f1b8a4", 6),
    "tv1-r7": ("bde674fa17aa6f8a286e2b9518188c4197fae4f4b1df7b33c69d336a01dc26ce", 2),
    "tv123-r7": ("bde674fa17aa6f8a286e2b9518188c4197fae4f4b1df7b33c69d336a01dc26ce", 2),
    "free-r4": ("416e249df70340f7aa9a964acef16773ec20eb931575b2f54492399298e2638b", 0),
    "a9-r5": ("f9d45e715aa2ce4037803b482dc040e1d7aa25f0ba2adaa98ac69d9a8fa5f412", 0),
    "a-inverse-r2": ("eea4b6daaf5e64a8e69bde4ca69e48fd0eecd5bb96faf84d327f40c7b0f77920", 0),
}
BALL_CONFIGS = {
    "tv12-r8-seed0": (lambda: gen_example("tv", I={1, 2}, k=7), 8, 0),
    "tv12-r8-seed3": (lambda: gen_example("tv", I={1, 2}, k=7), 8, 3),
    "tv1-r7": (lambda: gen_example("tv", I={1}, k=7), 7, 0),
    "tv123-r7": (lambda: gen_example("tv", I={1, 2, 3}, k=7), 7, 0),
    "free-r4": (lambda: gen_example("free"), 4, 0),
    # odd relator: the ball is subdivided
    "a9-r5": (lambda: Presentation(("a", "b"), (Word((1,) * 9),)), 5, 0),
    # one-letter relator: every a-edge is a loop
    "a-inverse-r2": (lambda: parse_presentation("gens: a b\nrel: a^-1\n"), 2, 0),
}


@pytest.mark.parametrize("name", sorted(BALL_CONFIGS))
def test_ball_matches_recorded_digest(name, monkeypatch):
    make, radius, seed = BALL_CONFIGS[name]
    p = make()
    m = DehnMachine(p)
    calls = []
    monkeypatch.setattr(complexes, "is_trivial", lambda w, m: calls.append(w) or is_trivial(w, m))
    c = build_cayley_ball(p, m, radius, seed=seed)
    digest = hashlib.sha256((save_complex(c) + repr(c.dist)).encode()).hexdigest()
    assert (digest, len(calls)) == BALL_DIGESTS[name]


# Direct dehn_reduce calls while building the tv{1,2} k=7 ball: one per
# move whose automaton step hits a >half relator suffix.  Every other move
# w*x is already reduced.  The count does not depend on the seed.
@pytest.mark.parametrize("radius, calls", [(8, 6), (9, 18)])
def test_ball_runs_dehn_only_on_automaton_hits(radius, calls, monkeypatch):
    p = gen_example("tv", I={1, 2}, k=7)
    m = DehnMachine(p)
    seen = []
    monkeypatch.setattr(complexes, "dehn_reduce", lambda w, m: seen.append(w) or dehn_reduce(w, m))
    build_cayley_ball(p, m, radius)
    assert len(seen) == calls
    assert all(len(dehn_reduce(w, m)) < len(w) for w in seen)


def test_automaton_hit_iff_move_reduces():
    # Every vertex word is geodesic, so a move w*x reduces exactly when the
    # automaton, stepped from w's state by x, hits.
    p = gen_example("tv", I={1, 2}, k=7)
    m = DehnMachine(p)
    delta, hit = m.automaton()
    c = build_cayley_ball(p, m, 7)
    moves = hits = 0
    for v, label in c.vertex_labels.items():
        w = Word() if label == "1" else p.word(label)
        assert len(w) == c.dist[v]
        s = 0
        for x in w:
            s = delta[s][x]
        for x in (1, -1, 2, -2):
            if w and w[-1] == -x:
                continue
            cand = Word(w + (x,))
            h = hit[delta[s][x]]
            assert h == (dehn_reduce(cand, m) != cand), cand
            moves += 1
            hits += h
    assert (moves, hits) == (3 * c.nv + 1, 2)


@pytest.mark.parametrize(
    "make, radius",
    [(lambda: gen_example("tv", I={1, 2}, k=7), 7), (lambda: gen_example("free"), 4)],
    ids=["tv12-r7", "free-r4"],
)
def test_ball_edges_cover_every_inner_move_once(make, radius):
    p = make()
    c = build_cayley_ball(p, DehnMachine(p), radius)
    moves = Counter()
    for eid, (u, v) in enumerate(c.edges):
        gen = c.edge_gens[eid] + 1
        moves[(u, gen)] += 1
        moves[(v, -gen)] += 1
    letters = {s * (gi + 1) for gi in range(len(p.generators)) for s in (1, -1)}
    for v in range(c.nv):
        if c.dist[v] < radius:
            assert all(moves[(v, x)] == 1 for x in letters), v
    assert max(moves.values()) == 1
    assert max(Counter((u, v, c.edge_gens[eid]) for eid, (u, v) in enumerate(c.edges)).values()) == 1


def test_element_table_refuses_more_quotient_points_than_a_byte_holds(monkeypatch):
    p = gen_example("tv", I={1, 2}, k=7)
    wide = {x: tuple(range(257)) for x in (1, -1, 2, -2)}
    monkeypatch.setattr(complexes, "_find_finite_quotients", lambda p, seed: wide)
    with pytest.raises(ValueError, match="257 points"):
        build_cayley_ball(p, DehnMachine(p), 2)


def test_words_and_edge_generators_refuse_more_generators_than_a_byte_holds():
    # a table word has one signed byte per letter, and edge_gens one per edge
    names = tuple(f"g{i}" for i in range(129))
    p = gen_example("free", generators=names[:128])
    with pytest.raises(ValueError, match="128 generators"):
        complexes.ElementTable(p, DehnMachine(p), vertex_budget=10)
    text = "wallkit-complex 1\nmeta gens {}\ncounts 2 1 0\ne 0 0 1 g127\n"
    with pytest.raises(ParseError, match="129 generators"):
        load_complex(text.format(" ".join(names)))
    assert load_complex(text.format(" ".join(names[:128]))).edge_gens.tolist() == [127]


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_example("tv", I={1}, k=7),
        lambda: gen_example("tv", I={1, 2}, k=7),
        lambda: gen_example("tv", I={1, 2, 3}, k=7),
        lambda: gen_example("pride", n_max=1),
        lambda: gen_example("rips", q_generators=("a1",), j_max=1, scale=1),
        lambda: gen_example("free"),
    ],
    ids=["tv1", "tv12", "tv123", "pride", "rips", "free"],
)
def test_quotient_union_fits_a_byte_image(make):
    # Up to three quotients of at most 9 points each.
    p = make()
    for seed in range(10):
        perms = complexes._find_finite_quotients(p, seed)
        points = len(perms[1])
        assert points <= 27
        assert all(sorted(perm) == list(range(points)) for perm in perms.values())


@pytest.mark.parametrize("seed", range(5))
def test_quotients_at_k13_move_ab(seed):
    # (ab)^13 = 1: on 9 points or fewer ab acts trivially, so only the
    # 13-point quotients split ab from the identity
    p = gen_example("tv", I={1, 2}, k=13)
    perms = complexes._find_finite_quotients(p, seed)
    points = tuple(range(len(perms[1])))
    assert len(points) <= 256
    assert complexes._act(perms, Word((1, 2)), points) != points


def test_k13_ball_buckets_split_its_vertices(monkeypatch):
    # with quotients of 9 points at most, every vertex of this ball shared
    # its bucket key with its ab-translates: 2,850,332 probes and about 15 s
    p = gen_example("tv", I={1, 2}, k=13)
    calls = []
    monkeypatch.setattr(complexes, "is_trivial", lambda w, m: calls.append(w) or is_trivial(w, m))
    c = build_cayley_ball(p, DehnMachine(p), 8)
    assert c.nv == 13121 and len(calls) < 100


def _no_quotients(p, seed):
    return {s * (gi + 1): () for gi in range(len(p.generators)) for s in (1, -1)}


def test_bucket_chains_under_forced_collisions(monkeypatch):
    # With no quotient points a key is the abelian class alone, so each
    # bucket chains many ids.  The ball keeps its bytes, each chain reads
    # its ids in ascending order, and an index() cut by the vertex budget
    # finds its element when the next growth walks the sphere again.
    p = gen_example("tv", I={1}, k=7)
    want = save_complex(build_cayley_ball(p, DehnMachine(p), 7))
    calls = []
    monkeypatch.setattr(complexes, "_find_finite_quotients", _no_quotients)
    monkeypatch.setattr(complexes, "is_trivial", lambda w, m: calls.append(w) or is_trivial(w, m))
    assert save_complex(build_cayley_ball(p, DehnMachine(p), 7)) == want
    assert len(calls) > 1000

    m = DehnMachine(p)
    table = complexes.ElementTable(p, m, vertex_budget=60, seed=0)
    # two geodesics of one element: (ab)^3 a = (b^-1 a^-1)^3 b^-1 by (ab)^7 = 1
    w, w2 = Word((-2, -1) * 3 + (-2,)), Word((1, 2) * 3 + (1,))
    with pytest.raises(BudgetExceeded):
        table.index(w)
    assert len(table.words) == 60
    table.vertex_budget = 100_000
    v = table.index(w)
    del calls[:]
    assert table.index(w) == table.index(w2) == v and calls  # w by a bucket probe
    assert table.word(v) == shortlex_search(w, DehnMachine(p)) == min(w, w2, key=shortlex_key)
    assert len(set(table.words)) == len(table.words)
    by_key: dict = {}
    for u, key in enumerate(table.keys):
        by_key.setdefault(key, []).append(u)
    assert max(map(len, by_key.values())) > 10
    assert {key: list(table.bucket(key)) for key in table.buckets} == by_key


def _table_arrays(table):
    return (table.words, table.keys, table.chain, table.parent, table.letter, table.state, table.vid_of, table.buckets)


@pytest.mark.parametrize("quotients", [True, False], ids=["quotients", "forced-collisions"])
def test_step_returns_what_walk_yielded(monkeypatch, quotients):
    # step(u, x, make=False) is walk()'s move without growth: at any vertex
    # and in any order it returns the id walk() yielded, None for a move
    # out of the table, and u's parent for the move back; it stores nothing.
    if not quotients:
        monkeypatch.setattr(complexes, "_find_finite_quotients", _no_quotients)
    p = gen_example("tv", I={1, 2}, k=7)
    table = complexes.ElementTable(p, DehnMachine(p), vertex_budget=100_000, seed=0)
    moves = []
    for _ in range(5):
        moves += table.walk()
    leaving = list(table.walk(make=False))
    sizes = [len(a) for a in _table_arrays(table)]
    assert len(table.spheres) == 7 and any(v is None for _, _, v in leaving)
    for u, x, v in reversed(moves + leaving):
        assert table.step(u, x, make=False) == v
    for u in range(1, len(table.words)):
        assert table.step(u, -table.letter[u], make=False) == table.parent[u]
    assert [len(a) for a in _table_arrays(table)] == sizes


def test_step_lands_by_dehn_reduction_and_by_bucket_probe(monkeypatch):
    # (ab)^3 a and (b^-1 a^-1)^3 b^-1 are one element by (ab)^7 = 1, and a
    # radius-7 table stores the shortlex-less one.  The move onto the other
    # finds it by a bucket probe; (ab)^3 a * b Dehn-reduces to a stored word.
    p = gen_example("tv", I={1, 2}, k=7)
    table = complexes.ElementTable(p, DehnMachine(p), vertex_budget=100_000, seed=0)
    for _ in range(7):
        for _ in table.walk():
            pass
    stored, other = sorted([Word((1, 2) * 3 + (1,)), Word((-2, -1) * 3 + (-2,))], key=shortlex_key)
    vid = {table.word(v): v for v in range(len(table.words))}
    assert other not in vid
    calls = []
    monkeypatch.setattr(complexes, "is_trivial", lambda w, m: calls.append(w) or is_trivial(w, m))
    assert table.step(vid[other[:-1]], other[-1], make=False) == vid[stored] and calls
    del calls[:]
    ab4 = Word((1, 2) * 4)
    assert table.step(vid[ab4[:-1]], 2, make=False) == vid[dehn_reduce(ab4, table.m)]
    assert not calls


def test_table_word_is_the_shortlex_tree_spelling():
    # each element's bytes decode to the word its parent and letter spell;
    # a stored word is its own normal form, and a geodesic that ties with
    # one has that one as its normal form, as the search oracle finds
    p = gen_example("tv", I={1, 2}, k=7)
    m = DehnMachine(p)
    table = complexes.ElementTable(p, m, vertex_budget=100_000, seed=0)
    for _ in range(7):
        for _ in table.walk():
            pass
    spelled = [Word()]
    for v in range(1, len(table.words)):
        spelled.append(Word(spelled[table.parent[v]] + (table.letter[v],)))
    assert len(spelled) == 4371
    for v, w in enumerate(spelled):
        assert type(table.word(v)) is Word and table.word(v) == w, v
        assert len(table.words[v]) == len(w) and table.vid_of[table.words[v]] == v
    rng = random.Random(7)
    for v in rng.sample(range(table.spheres[5], len(spelled)), 6):
        w = table.word(v)
        assert shortlex_normal_form(w, m) == shortlex_search(w, m) == w
    other = Word((-2, -1) * 3 + (-2,))
    assert shortlex_normal_form(other, m) == shortlex_search(other, m) == table.word(table.index(other)) != other


def test_step_past_the_budget_stores_nothing():
    p = gen_example("tv", I={1, 2}, k=7)
    table = complexes.ElementTable(p, DehnMachine(p), vertex_budget=5, seed=0)
    assert [v for _, _, v in table.walk()] == [1, 2, 3, 4]
    sizes = [len(a) for a in _table_arrays(table)]
    with pytest.raises(BudgetExceeded, match="element budget 5 exhausted at radius 2"):
        table.step(1, 1)
    assert [len(a) for a in _table_arrays(table)] == sizes
    assert table.step(1, 1, make=False) is None
    table.vertex_budget = 6
    assert table.step(1, 1) == 5 and table.word(5) == table.word(1) + (1,)


def test_ball_build_memory_is_bounded():
    # radius-8 tv{1,2} k=7 (13,107 vertices) under tracemalloc: the build
    # peaks at about 9.0 MiB and the complex holds about 5.4 MiB.  When the
    # element table and the move maps (a tuple per move) lived until the
    # adjacency was built and the labels kept every word, these were 13.3
    # and 6.7 MiB.
    p = gen_example("tv", I={1, 2}, k=7)
    m = DehnMachine(p)
    m.automaton()
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        c = build_cayley_ball(p, m, 8)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.nv == 13107
    assert peak - base < 11 * 2**20, peak - base
    assert held - base < 6 * 2**20, held - base


def test_adjacency_memory_per_edge_end_is_bounded():
    # radius-7 tv{1,2} k=7 (4,371 vertices, 4,372 edges) under tracemalloc:
    # a neighbour tuple per vertex and the edge ids in one array hold about
    # 45 B per edge end; a (neighbour, edge id) tuple per edge end held
    # about 117 B.
    p = gen_example("tv", I={1, 2}, k=7)
    ball = build_cayley_ball(p, DehnMachine(p), 7)
    c = Complex(ball.edges, ball.cells, ball.nv)
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        adj = c.adjacency()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(adj.eids) == 2 * len(c.edges) == 8744
    assert held - base <= 56 * len(adj.eids), (held - base) / len(adj.eids)


def test_element_table_dies_before_the_complex_is_checked(monkeypatch):
    tables = []

    class Table(complexes.ElementTable):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(weakref.ref(self))

    alive_at_validate = []
    validate = Complex.validate

    def checked(self):
        alive_at_validate.append(tables[0]() is not None)
        return validate(self)

    monkeypatch.setattr(complexes, "ElementTable", Table)
    monkeypatch.setattr(Complex, "validate", checked)
    p = gen_example("tv", I={1, 2}, k=7)
    m = DehnMachine(p)
    gc.disable()  # reference counting alone must free the table
    try:
        c = build_cayley_ball(p, m, 4)
    finally:
        gc.enable()
    assert alive_at_validate == [False]
    assert c.vertex_labels[c.nv - 1] and c.dist[-1] == 4


def test_tv12_ball_validity():
    tv = gen_example("tv", I={1, 2}, k=7)
    c = build_cayley_ball(tv, DehnMachine(tv), 6)
    vs = validity_summary(c)
    assert vs.ok
    assert vs.cycle_rank == len(c.cells)


def _cell_masks(c):
    masks = []
    for cell in c.cells:
        mask = 0
        for eid, _ in cell:
            mask ^= 1 << eid
        masks.append(mask)
    return masks


def test_cell_rank_matches_sorted_basis_oracle(ball7):
    # Random sparse masks, some of them XORs of two earlier ones, so that
    # dependent masks and repeats occur.
    rng = random.Random(19)
    for _ in range(300):
        bits = rng.randint(1, 48)
        masks = []
        for _ in range(rng.randint(0, 40)):
            if masks and rng.random() < 0.3:
                masks.append(rng.choice(masks) ^ rng.choice(masks))
            else:
                masks.append(sum(1 << b for b in rng.sample(range(bits), rng.randint(0, min(bits, 6)))))
        cells = [[(e, 1) for e in range(mask.bit_length()) if mask >> e & 1] for mask in masks]
        assert complexes._cell_rank(cells) == gf2_rank_sorted(masks), masks
    twice = Complex([(0, 1), (1, 2), (2, 0)], [((0, 1), (1, 1), (2, 1))] * 2, 3)
    for c in (ball7, subdivide(ball7), build_example1([1, 2, 3]), build_example2(2, 14), twice):
        assert validity_summary(c).cell_rank == gf2_rank_sorted(_cell_masks(c))
    assert validity_summary(twice).cell_rank == 1


def test_validity_summary_runs_one_bfs(monkeypatch):
    # connectivity and the recorded distances share the BFS from the base
    tv = gen_example("tv", I={1, 2}, k=7)
    c = build_cayley_ball(tv, DehnMachine(tv), 7)
    calls = []
    bfs = Complex.bfs_distances
    monkeypatch.setattr(Complex, "bfs_distances", lambda self, src: calls.append(src) or bfs(self, src))
    assert validity_summary(c).ok
    assert calls == [c.base]


def test_loading_a_ball_runs_one_bfs(ball7, monkeypatch):
    # the connectivity check's BFS from the base is the loaded distance list;
    # subdividing reuses it the same way
    text = save_complex(ball7)
    calls = []
    bfs = Complex.bfs_distances
    monkeypatch.setattr(Complex, "bfs_distances", lambda self, src: calls.append(src) or bfs(self, src))
    c = load_complex(text)
    assert calls == [ball7.base] and c.dist == ball7.dist
    calls.clear()
    s = subdivide(c)
    assert calls == [c.base] and s.dist[:c.nv] == [2 * d for d in c.dist]


# -- subdivision ------------------------------------------------------------------


def test_subdivide_single_edge():
    c = Complex([(0, 1)], [], 2)
    s = subdivide(c)
    assert s.nv == 3 and len(s.edges) == 2


def test_subdivide_triangle_cell_becomes_hexagon():
    c = Complex([(0, 1), (1, 2), (2, 0)], [((0, 1), (1, 1), (2, 1))], 3)
    s = subdivide(c)
    assert len(s.cells[0]) == 6
    assert not s.has_odd_cell()


def test_subdivide_doubles_distances(ball7):
    s = subdivide(ball7)
    d0 = ball7.bfs_distances(0)
    d1 = s.bfs_distances(0)
    for v in range(ball7.nv):
        assert d1[v] == 2 * d0[v]
    assert s.radius == 2 * ball7.radius
    assert s.subdivided


def test_subdivided_cayley_ball(one, ball7):
    c = subdivide(ball7)
    assert c.subdivided and c.radius == 14 and c.base == 0
    assert all(len(cell) == 28 for cell in c.cells)
    assert c.dist == [2 * d for d in ball7.dist] + [2 * min(ball7.dist[u], ball7.dist[v]) + 1 for u, v in ball7.edges]


def test_odd_relator_ball_auto_subdivides():
    # single odd relator, still piece-free: a^9
    p = gen_example("free", generators=("a", "b"))
    from wallkit.presentation import Presentation

    p9 = Presentation(("a", "b"), (Word((1,) * 9),))
    m = DehnMachine(p9)
    c = build_cayley_ball(p9, m, 5)
    assert c.subdivided
    assert not c.has_odd_cell()
    assert all(len(cell) == 18 for cell in c.cells)


# -- counterexample builders -------------------------------------------------------


def test_example1_segment_table():
    for n in (1, 2, 5):
        c = build_example1([n])
        a, b, cc, d, e, f = (c.labeled(x + str(n)) for x in "abcdef")
        dist_a = c.bfs_distances(a)
        dist_b = c.bfs_distances(b)
        dist_c = c.bfs_distances(cc)
        dist_d = c.bfs_distances(d)
        dist_f = c.bfs_distances(f)
        assert dist_b[cc] == 3 and dist_c[d] == 3
        assert dist_c[f] == 2 * n
        assert dist_a[b] == n and dist_d[e] == n
        assert dist_a[f] == n + 3 and dist_f[e] == n + 3
        assert dist_a[e] == 2 * n + 6
        assert all(len(cell) == 4 * n + 6 for cell in c.cells)


def test_example1_chain_and_errors():
    c = build_example1([1, 2])
    assert c.bfs_distances(c.labeled("e1"))[c.labeled("a2")] == 1
    with pytest.raises(BadParams):
        build_example1([])
    with pytest.raises(BadParams):
        build_example1([0])


def test_example2_shape():
    c = build_example2(4, 13)
    assert all(len(cell) == 26 for cell in c.cells)
    for lab in ("a", "q'", "a'", "a''", "p'", "p''"):
        c.labeled(lab)
    d = c.bfs_distances(c.labeled("a"))
    assert d[c.labeled("q'")] == 4
    assert c.bfs_distances(c.labeled("a'"))[c.labeled("p'")] == 2
    assert c.bfs_distances(c.labeled("q'"))[c.labeled("a'")] == 13 - 4


def test_example2_bad_params():
    with pytest.raises(BadParams):
        build_example2(2, 2)
    with pytest.raises(BadParams):
        build_example2(3, 10)
    with pytest.raises(BadParams):
        build_example2(0, 10)


# -- cell pieces and B(6) -----------------------------------------------------------


def _two_cycles(arc: int) -> Complex:
    """Two cycles of length 5 + arc sharing a path of length 5."""
    from wallkit.complexes import _Builder

    b = _Builder("fixture")
    u = b.vertex("u")
    v = b.vertex("v")
    shared = b.chain(u, v, 5)
    b.cell(shared + b.chain(v, u, arc))
    b.cell(shared + b.chain(v, u, arc))
    return b.done()


def _cell_with_neighbours(segments: list[int], arc: int = 9) -> Complex:
    """A 12-cycle (cell 0) whose consecutive boundary segments, of the given
    lengths from vertex 0 on, are each shared with one more cell."""
    from wallkit.complexes import _Builder

    b = _Builder("fixture")
    ring = [b.vertex() for _ in range(12)]
    toks = [(b.edge(ring[i], ring[(i + 1) % 12]), 1) for i in range(12)]
    b.cell(toks)
    start = 0
    for n in segments:
        b.cell(toks[start:start + n] + b.chain(ring[start + n], ring[start], arc))
        start += n
    return b.done()


def _periodic_cell() -> Complex:
    """A 6-token cell twice round a triangle, and a triangle sharing one edge."""
    c = Complex([(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)], [((0, 1), (1, 1), (2, 1)) * 2, ((0, 1), (3, 1), (4, 1))], 4)
    c.validate()
    return c


def _cell_round_a_cell() -> Complex:
    """A triangle, and a cell that goes round it and on along its first edge:
    their common run (length 4) is longer than the triangle."""
    tri = ((0, 1), (1, 1), (2, 1))
    c = Complex([(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)], [tri, tri + ((0, 1), (3, 1), (4, 1))], 4)
    c.validate()
    return c


def _edge_both_ways() -> Complex:
    """One cell crossing edge 0 once in each direction."""
    c = Complex([(0, 1), (1, 2), (2, 1), (0, 3), (3, 0)], [((0, 1), (1, 1), (2, 1), (0, -1), (3, 1), (4, 1))], 4)
    c.validate()
    return c


def _tv12_ball8() -> Complex:
    p = gen_example("tv", I={1, 2}, k=7)
    return build_cayley_ball(p, DehnMachine(p), 8)


def _canon_occ_set(c, entries):
    """Orientation-insensitive canonical form: (cell, slot set) pairs."""
    out = set()
    for pair, length in entries:
        canon = []
        for cid, start, _fwd in pair:
            L = len(c.cells[cid])
            canon.append((cid, frozenset((start + k) % L for k in range(length))))
        # frozensets order by inclusion only: sort by the slots themselves
        out.add((tuple(sorted(canon, key=lambda e: (e[0], sorted(e[1])))), length))
    return out


def _production_entries(pieces):
    return [
        (
            ((pc.occ1.cell, pc.occ1.start, pc.occ1.forward), (pc.occ2.cell, pc.occ2.start, pc.occ2.forward)),
            pc.length,
        )
        for pc in pieces
    ]


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_example1([1]),
        lambda: build_example1([2]),
        lambda: build_example2(2, 8),
        lambda: build_example2(4, 9),
        _periodic_cell,
        lambda: build_example1(range(1, 13)),
        lambda: _two_cycles(7),
        lambda: _two_cycles(3),
        _tv12_ball8,
        _cell_round_a_cell,
        _edge_both_ways,
    ],
)
def test_cell_pieces_match_boundary_overlap_oracle(make):
    c = make()
    entries = _production_entries(compute_cell_pieces(c))
    want = brute_force_cell_pieces(c)
    assert _canon_occ_set(c, entries) == _canon_occ_set(c, want)
    assert len(entries) == len(want)
    assert {(tuple(sorted(pair)), length) for pair, length in entries} == want


def test_cell_pieces_on_ball_match_oracle(ball7):
    got = _canon_occ_set(ball7, _production_entries(compute_cell_pieces(ball7)))
    want = _canon_occ_set(ball7, brute_force_cell_pieces(ball7))
    assert got == want


def test_example2_sole_piece_is_shared_segment():
    c = build_example2(2, 14)
    pcs = compute_cell_pieces(c)
    assert len(pcs) == 1 and pcs[0].length == 2
    assert {pcs[0].occ1.cell, pcs[0].occ2.cell} == {0, 1}


def test_single_cell_ball_has_no_pieces(ball7):
    assert compute_cell_pieces(ball7) == []


def test_example1_pieces_are_the_cf_segment():
    for n in (1, 2, 3):
        c = build_example1([n])
        pcs = compute_cell_pieces(c)
        assert len(pcs) == 1 and pcs[0].length == 2 * n


def test_b6_example1_passes_cprime_fails():
    c = build_example1([1, 2, 3])
    rep = check_B6(c, Fraction(1, 6))
    assert rep.b6_passed and not rep.cprime_passed and rep.implication_ok


def test_b6_example2_cprime_implies_b6():
    c = build_example2(2, 14)
    rep = check_B6(c, Fraction(1, 6))
    assert rep.cprime_passed and rep.b6_passed and rep.implication_ok


def test_b6_hand_built_five_piece_overlap():
    # two 12-cycles sharing a path of length 5: single pieces pass the
    # half-length bound, the strict 1/6 piece bound fails
    c = _two_cycles(7)
    rep = check_B6(c, Fraction(1, 6))
    assert not rep.cprime_passed
    assert rep.b6_passed
    assert rep.cells[0].max_piece == 5
    assert rep.cells[0].max_three_piece_span == 5
    intervals = {}
    for pc in rep.pieces:
        for occ in (pc.occ1, pc.occ2):
            intervals.setdefault(occ.cell, []).append((occ.start, occ.length))
    assert brute_force_b6(c, intervals)


def test_b6_failure_witness():
    # two 8-cycles sharing a path of length 5: a single piece exceeds half
    c = _two_cycles(3)
    rep = check_B6(c)
    assert not rep.b6_passed and rep.witness is not None
    intervals = {}
    for pc in rep.pieces:
        for occ in (pc.occ1, pc.occ2):
            intervals.setdefault(occ.cell, []).append((occ.start, occ.length))
    assert not brute_force_b6(c, intervals)


@pytest.mark.parametrize("segments, span", [([2, 2, 3], 7), ([2, 2, 2], 6), ([3, 3], 6)])
def test_b6_spans_three_consecutive_pieces(segments, span):
    # on the 12-cycle any two of the pieces 2, 2, 3 span at most 5, but all
    # three span 7 > 12 / 2
    c = _cell_with_neighbours(segments)
    rep = check_B6(c)
    assert rep.cells[0].max_three_piece_span == span
    assert rep.b6_passed == (2 * span <= 12)
    assert rep.witness == (None if rep.b6_passed else (0, 0, span))
    intervals = {}
    for pc in rep.pieces:
        for occ in (pc.occ1, pc.occ2):
            intervals.setdefault(occ.cell, []).append((occ.start, occ.length))
    assert brute_force_b6(c, intervals) == rep.b6_passed


# check_B6 fields recorded before cell pieces came from the presentation
# engine: per-cell verdicts, the three flags, the witness, and the piece
# occurrences as (cell, start, length, forward) pairs.
B6_GOLDEN = {
    "example1_1to8": (
        [(0, 10, 2, 2, True, False), (1, 10, 2, 2, True, False), (2, 14, 4, 4, True, False),
         (3, 14, 4, 4, True, False), (4, 18, 6, 6, True, False), (5, 18, 6, 6, True, False),
         (6, 22, 8, 8, True, False), (7, 22, 8, 8, True, False), (8, 26, 10, 10, True, False),
         (9, 26, 10, 10, True, False), (10, 30, 12, 12, True, False), (11, 30, 12, 12, True, False),
         (12, 34, 14, 14, True, False), (13, 34, 14, 14, True, False), (14, 38, 16, 16, True, False),
         (15, 38, 16, 16, True, False)],
        True, False, True, None,
        [((0, 4, 2, True), (1, 8, 2, False)), ((2, 5, 4, True), (3, 10, 4, False)),
         ((4, 6, 6, True), (5, 12, 6, False)), ((6, 7, 8, True), (7, 14, 8, False)),
         ((8, 8, 10, True), (9, 16, 10, False)), ((10, 9, 12, True), (11, 18, 12, False)),
         ((12, 10, 14, True), (13, 20, 14, False)), ((14, 11, 16, True), (15, 22, 16, False))],
    ),
    "example2_2_14": (
        [(0, 28, 2, 2, True, True), (1, 28, 2, 2, True, True)],
        True, True, True, None,
        [((0, 0, 2, True), (1, 0, 2, True))],
    ),
    "example2_4_9": (
        [(0, 18, 4, 4, True, False), (1, 18, 4, 4, True, False)],
        True, False, True, None,
        [((0, 0, 4, True), (1, 0, 4, True))],
    ),
    "twelve_cycles": (
        [(0, 12, 5, 5, True, False), (1, 12, 5, 5, True, False)],
        True, False, True, None,
        [((0, 0, 5, True), (1, 0, 5, True))],
    ),
    "eight_cycles": (
        [(0, 8, 5, 5, False, False), (1, 8, 5, 5, False, False)],
        False, False, True, (0, 0, 5),
        [((0, 0, 5, True), (1, 0, 5, True))],
    ),
}

B6_FIXTURES = {
    "example1_1to8": lambda: build_example1(range(1, 9)),
    "example2_2_14": lambda: build_example2(2, 14),
    "example2_4_9": lambda: build_example2(4, 9),
    "twelve_cycles": lambda: _two_cycles(7),
    "eight_cycles": lambda: _two_cycles(3),
}


@pytest.mark.parametrize("name", sorted(B6_GOLDEN))
def test_check_b6_matches_recorded_report(name):
    from dataclasses import astuple

    c = B6_FIXTURES[name]()
    rep = check_B6(c, Fraction(1, 6))
    cells, b6, cprime, implication, witness, pieces = B6_GOLDEN[name]
    assert [astuple(v) for v in rep.cells] == cells
    assert (rep.b6_passed, rep.cprime_passed, rep.implication_ok, rep.witness) == (b6, cprime, implication, witness)
    assert {(astuple(pc.occ1), astuple(pc.occ2)) for pc in rep.pieces} == set(pieces)
    assert len(rep.pieces) == len(pieces)
    for pc in rep.pieces:
        cell = c.cells[pc.occ1.cell]
        assert pc.path == tuple(cell[(pc.occ1.start + k) % len(cell)] for k in range(pc.length))


@pytest.mark.parametrize("relator", [Word((1, 2) * 7), Word((1,) * 9)], ids=["tv", "odd-subdivided"])
def test_ball_labels_render_on_first_read(relator, monkeypatch):
    p = Presentation(("a", "b"), (relator,))
    rendered = []
    monkeypatch.setattr(complexes, "render", lambda w, names: rendered.append(w) or render(w, names))
    c = build_cayley_ball(p, DehnMachine(p), 4)
    if c.subdivided:
        # the subdivided copy holds the labels of the ball's vertices
        assert len(rendered) == len(c.vertex_labels) < c.nv
    else:
        assert rendered == []
        words = [Word(p.word(c.vertex_labels[v]) if v else ()) for v in range(c.nv)]
        assert [len(w) for w in words] == c.dist
        assert len(rendered) == c.nv
    labels = dict(c.vertex_labels)
    assert c.vertex_labels.get(0) == "1" and c.vertex_labels.get(c.nv) is None
    assert c.labeled(labels[len(labels) - 1]) == len(labels) - 1
    assert len(rendered) == len(labels)  # rendered once


# -- file round trip -----------------------------------------------------------------


def test_edge_gens_is_one_signed_byte_array_from_every_constructor():
    two = gen_example("tv", I={1, 2}, k=7)
    ball = build_cayley_ball(two, DehnMachine(two), 7)
    theta = build_example1([1, 2])  # through _Builder
    built = {
        "ball": ball,
        "subdivided": subdivide(ball),
        "builder": theta,
        "loaded ball": load_complex(save_complex(ball)),
        "loaded builder": load_complex(save_complex(theta)),
        "direct": Complex([(0, 1)], [], 2),
    }
    for name, c in built.items():
        assert type(c.edge_gens) is array and c.edge_gens.typecode == "b", name
        assert len(c.edge_gens) == len(c.edges), name
    assert set(ball.edge_gens) == {0, 1}
    assert set(built["subdivided"].edge_gens) == set(theta.edge_gens) == set(built["direct"].edge_gens) == {-1}
    assert built["loaded ball"].edge_gens == ball.edge_gens
    assert built["loaded builder"].edge_gens == theta.edge_gens
    sym = symmetrize(two.relators)  # every rotation of a relator and of its inverse
    assert all(boundary_word(ball, cid) in sym for cid in range(len(ball.cells)))
    with pytest.raises(BadParams, match="edge 0 has no generator"):
        boundary_word(theta, 0)
    with pytest.raises(ParseError, match="0 edge generators for 1 edges"):
        Complex([(0, 1)], [], 2, edge_gens=array("b")).validate()


def test_roundtrip_ball(ball7):
    # multi-letter generator names give vertex labels with spaces
    xy = parse_presentation("gens: x1 y1\nrel: (x1 y1)^7\n")
    for ball in (ball7, build_cayley_ball(xy, DehnMachine(xy), 3)):
        text = save_complex(ball)
        c2 = load_complex(text)
        assert c2.nv == ball.nv
        assert c2.edges == ball.edges
        assert c2.cells == ball.cells
        assert c2.vertex_labels == ball.vertex_labels
        assert c2.edge_gens == ball.edge_gens
        assert c2.dist == ball.dist
        assert c2.radius == ball.radius and c2.base == ball.base
        assert save_complex(c2) == text
    assert "\nv 6 x1 y1\n" in text


@pytest.mark.parametrize("label", ["", " a", "a ", "a\nb", "a\rb", "a\x0bb"])
def test_save_rejects_label_that_is_not_one_trimmed_line(label):
    with pytest.raises(ParseError, match="not serializable"):
        save_complex(Complex([(0, 1)], [], 2, {1: label}))


def test_roundtrip_example():
    c = build_example1([1, 2])
    c2 = load_complex(save_complex(c))
    assert c2.edges == c.edges and c2.cells == c.cells and c2.vertex_labels == c.vertex_labels


def test_load_rejects_garbage():
    with pytest.raises(ParseError):
        load_complex("nope\n")
    with pytest.raises(ParseError):
        load_complex("wallkit-complex 1\ncounts 2 1 0\nv 0\nv 1\ne 0 0 5\n")


@pytest.mark.parametrize("line", ["v 7 ghost", "v -1 ghost", "v 2"])
def test_load_rejects_vertex_past_end(line):
    # a label on a vertex the file does not have would not survive a save
    with pytest.raises(ParseError, match="outside 0..1"):
        load_complex(f"wallkit-complex 1\ncounts 2 1 0\nv 0\nv 1\n{line}\ne 0 0 1\n")


@pytest.mark.parametrize("base", ["99", "2", "-1"])
def test_load_rejects_base_outside_the_vertices(base):
    # -1 would otherwise index from the end and measure from vertex nv - 1
    with pytest.raises(ParseError, match=f"base vertex {base} outside 0..1"):
        load_complex(f"wallkit-complex 1\nmeta base {base}\ncounts 2 1 0\nv 0\nv 1\ne 0 0 1\n")
    assert load_complex("wallkit-complex 1\nmeta base 1\ncounts 2 1 0\nv 0\nv 1\ne 0 0 1\n").dist == [1, 0]


def test_load_rejects_a_repeated_vertex_line():
    # "v 0 q'" written where "v 1 q'" stood would leave vertex 1 unlabelled
    with pytest.raises(ParseError, match="vertex 0 is listed twice"):
        load_complex("wallkit-complex 1\ncounts 2 1 0\nv 0\nv 0 q'\ne 0 0 1\n")


def _two_triangles(a: int, b: int) -> str:
    """Two triangles on a square with diagonal 0-2, as cells a and b."""
    return (
        "wallkit-complex 1\ncounts 4 5 2\nv 0\nv 1\nv 2\nv 3\n"
        "e 0 0 1\ne 1 1 2\ne 2 2 3\ne 3 3 0\ne 4 0 2\n"
        f"c {a} 1 2 -5\nc {b} 5 3 4\n"
    )


@pytest.mark.parametrize("ids", [(7, 3), (1, 0), (0, 0)])
def test_load_rejects_cell_ids_out_of_order(ids):
    # cells load by position, so other ids than 0, 1 would be renumbered
    with pytest.raises(ParseError, match="cell ids must be consecutive"):
        load_complex(_two_triangles(*ids))
    assert load_complex(_two_triangles(0, 1)).cells == [((0, 1), (1, 1), (4, -1)), ((4, 1), (2, 1), (3, 1))]


def test_load_rejects_backtracking_cell():
    # edge 0 out and straight back: not an immersed cycle
    with pytest.raises(ParseError):
        load_complex("wallkit-complex 1\ncounts 2 1 1\nv 0\nv 1\ne 0 0 1\nc 0 1 -1\n")


def test_validate_rejects_duplicate_cells():
    c = Complex([(0, 1), (1, 0)], [((0, 1), (1, 1)), ((0, 1), (1, 1))], 2)
    with pytest.raises(ParseError):
        c.validate()
