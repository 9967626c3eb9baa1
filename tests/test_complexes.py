import warnings
from fractions import Fraction

import pytest

from oracles import brute_force_b6, brute_force_cell_pieces, free_product_nf
from wallkit.complexes import (
    Complex,
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
from wallkit.dehn import DehnMachine, iter_reduced_words
from wallkit.errors import BadParams, NotSmallCancellation, ParseError
from wallkit.presentation import gen_example
from wallkit.words import Word, symmetrize


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


def test_tv12_ball_validity():
    tv = gen_example("tv", I={1, 2}, k=7)
    c = build_cayley_ball(tv, DehnMachine(tv), 6)
    vs = validity_summary(c)
    assert vs.ok
    assert vs.cycle_rank == len(c.cells)


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


def test_force_subdivide_flag(one):
    c = build_cayley_ball(one, DehnMachine(one), 7, force_subdivide=True)
    assert c.subdivided and c.radius == 14
    assert all(len(cell) == 28 for cell in c.cells)


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


# -- file round trip -----------------------------------------------------------------


def test_roundtrip_ball(ball7):
    text = save_complex(ball7)
    c2 = load_complex(text)
    assert c2.nv == ball7.nv
    assert c2.edges == ball7.edges
    assert c2.cells == ball7.cells
    assert c2.vertex_labels == ball7.vertex_labels
    assert c2.edge_gens == ball7.edge_gens
    assert c2.dist == ball7.dist
    assert c2.radius == ball7.radius and c2.base == ball7.base
    assert save_complex(c2) == text


def test_roundtrip_example():
    c = build_example1([1, 2])
    c2 = load_complex(save_complex(c))
    assert c2.edges == c.edges and c2.cells == c.cells and c2.vertex_labels == c.vertex_labels


def test_load_rejects_garbage():
    with pytest.raises(ParseError):
        load_complex("nope\n")
    with pytest.raises(ParseError):
        load_complex("wallkit-complex 1\ncounts 2 1 0\nv 0\nv 1\ne 0 0 5\n")


def test_load_rejects_backtracking_cell():
    # edge 0 out and straight back: not an immersed cycle
    with pytest.raises(ParseError):
        load_complex("wallkit-complex 1\ncounts 2 1 1\nv 0\nv 1\ne 0 0 1\nc 0 1 -1\n")


def test_validate_rejects_duplicate_cells():
    c = Complex([(0, 1), (1, 0)], [((0, 1), (1, 1)), ((0, 1), (1, 1))], 2)
    with pytest.raises(ParseError):
        c.validate()
