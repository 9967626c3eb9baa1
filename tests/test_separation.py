import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import greedy_geodesic, odd_crossings, per_pair_sweep
from wallkit.complexes import Complex, build_cayley_ball, build_example1, build_example2
from wallkit.dehn import DehnMachine
from wallkit.errors import BadParams, HypothesisViolated, NotSmallCancellation
from wallkit.presentation import gen_example
from wallkit.separation import (
    cover_split,
    density_threshold,
    geodesic,
    geodesic_context,
    local_density_check,
    local_to_global_bound,
    neighborhood_probe,
    pair_at,
    path_vertices,
    relator_neighborhood,
    report_to_csv,
    report_to_json,
    separation_constant,
    sweep_pairs,
    verify_linear_separation,
)
from wallkit.walls import WallSystem, build_walls, hanging_forest, wall_distance


@pytest.fixture(scope="module")
def tree():
    free = gen_example("free")
    return build_cayley_ball(free, DehnMachine(free), 3)


@pytest.fixture(scope="module")
def ball7():
    one = gen_example("tv", I={1}, k=7)
    return build_cayley_ball(one, DehnMachine(one), 7)


@pytest.fixture(scope="module")
def ex2():
    c = build_example2(2, 14)
    return c, build_walls(c)


# -- geodesics --------------------------------------------------------------------


def test_geodesic_adjacent(tree):
    u, v = tree.edges[0]
    assert geodesic(tree, u, v) == [0]
    with pytest.raises(BadParams):
        geodesic(tree, u, u)


def test_geodesic_tree_unique_path(tree):
    rng = random.Random(1)
    for _ in range(20):
        p, q = rng.sample(range(tree.nv), 2)
        path = geodesic(tree, p, q)
        assert len(path) == tree.bfs_distances(p)[q]
        verts = path_vertices(tree, p, path)
        assert verts[0] == p and verts[-1] == q


def test_geodesic_deterministic_lex_least():
    c = build_example1([1])
    a, e = c.labeled("a1"), c.labeled("e1")
    p1 = geodesic(c, a, e)
    p2 = geodesic(c, a, e)
    assert p1 == p2 and len(p1) == 8
    # lexicographically least among the shortest edge sequences: the first
    # edge is the least progressing edge id out of a1
    dq = c.bfs_distances(e)
    adj = c.adjacency()
    firsts = [adj.eids[adj.start[a] + i] for i, v in enumerate(adj.nbrs[a]) if dq[v] == dq[a] - 1]
    assert p1[0] == min(firsts)


def test_example1_geodesic_length():
    c = build_example1([1])
    assert len(geodesic(c, c.labeled("a1"), c.labeled("e1"))) == 8


def test_geodesic_matches_greedy_oracle(tree, ball7):
    cases = [
        (c, [(p, q) for q in range(c.nv) for p in range(c.nv) if p != q])
        for c in (tree, build_example1([1, 2, 3]), build_example2(2, 14), _square()[0])
    ]
    rng = random.Random(13)
    cases.append((ball7, [tuple(rng.sample(range(ball7.nv), 2)) for _ in range(200)]))
    for c, pairs in cases:
        dq: dict[int, list[int]] = {}
        for p, q in pairs:
            if q not in dq:
                dq[q] = c.bfs_distances(q)
            assert geodesic(c, p, q) == greedy_geodesic(c, p, q, dq[q]), (p, q)


def _two_components():
    return Complex([(0, 1), (2, 3)], [], 4)


def _example1():
    return build_example1([1])


@pytest.mark.parametrize(
    "build, p, q, message",
    [
        (_example1, -2, 0, r"no vertex -2: ids run 0\.\.16"),
        (_example1, 0, -1, r"no vertex -1: ids run 0\.\.16"),
        (_example1, 0, 17, r"no vertex 17: ids run 0\.\.16"),
        (_two_components, 0, 2, "vertex 0 is not reached from 2"),
        (_two_components, 3, 1, "vertex 3 is not reached from 1"),
    ],
    ids=["p=-2", "q=-1", "q=nv", "unreachable", "unreachable-reversed"],
)
@pytest.mark.parametrize("via", ["geodesic", "geodesic_context", "sweep"])
def test_geodesic_rejects_ends_outside_the_graph(build, p, q, message, via):
    c = build()
    if via == "geodesic":
        call = geodesic
    elif build is _two_components:
        # no wall system exists on a disconnected 1-skeleton to ask
        with pytest.raises(BadParams, match="disconnected"):
            WallSystem(c, [0, 1])
        return
    else:
        ws = build_walls(c)
        call = {"geodesic_context": lambda c, p, q: geodesic_context(c, ws, p, q),
                "sweep": lambda c, p, q: sweep_pairs(c, ws, [(p, q)])}[via]
    with pytest.raises(BadParams, match=message):
        call(c, p, q)


# -- single-crossing edges -----------------------------------------------------------


def test_tree_all_edges_single_crossing(tree):
    ws = build_walls(tree)
    ctx = geodesic_context(tree, ws, 1, tree.nv - 1)
    assert ctx.single_crossing == frozenset(ctx.edge_seq)
    assert len(ctx.single_crossing) <= wall_distance(ws, 1, tree.nv - 1).total


def test_example1_single_crossing_count():
    c = build_example1([1, 2, 3])
    ws = build_walls(c)
    for n in (1, 2, 3):
        ctx = geodesic_context(c, ws, c.labeled(f"a{n}"), c.labeled(f"e{n}"))
        A = ctx.single_crossing
        assert len(A) == 6
        assert len(A) <= wall_distance(ws, ctx.p, ctx.q).total


def test_example2_double_crossing_not_single(ex2):
    c, ws = ex2
    ctx = geodesic_context(c, ws, c.labeled("p'"), c.labeled("p''"))
    non_a = [e for e in ctx.edge_seq if e not in ctx.single_crossing]
    assert len(non_a) == 2
    for eid in non_a:
        wid = ws.wall_of_edge[eid]
        assert ctx.crossings[wid] == 2


# -- relator neighborhoods ------------------------------------------------------------


def test_single_crossing_edge_gets_trivial_neighborhood(ex2):
    c, ws = ex2
    ctx = geodesic_context(c, ws, c.labeled("p'"), c.labeled("p''"))
    eid = next(iter(ctx.single_crossing))
    ne = relator_neighborhood(eid, ctx)
    assert ne.size == 1 and ne.cell is None and ne.partner_edge is None


def test_example2_neighborhood_construction(ex2):
    c, ws = ex2
    ctx = geodesic_context(c, ws, c.labeled("p'"), c.labeled("p''"))
    non_a = sorted(e for e in ctx.edge_seq if e not in ctx.single_crossing)
    for eid in non_a:
        ne = relator_neighborhood(eid, ctx)
        assert ne.cell is not None and ne.second_cell is not None
        assert ne.size == 13  # half the cell boundary minus the shared piece
        assert ne.mate in non_a and ne.mate != eid
        # neighborhood is the maximal run of geodesic edges on the cell
        cell_edges = c.cell_edge_set(ne.cell)
        i, j = ne.span
        assert all(ctx.edge_seq[k] in cell_edges for k in range(i, j))
        if i > 0:
            assert ctx.edge_seq[i - 1] not in cell_edges
        if j < len(ctx.edge_seq):
            assert ctx.edge_seq[j] not in cell_edges


def test_neighborhood_probe_values(ex2):
    c, ws = ex2
    ctx = geodesic_context(c, ws, c.labeled("p'"), c.labeled("p''"))
    lam = Fraction(1, 6)
    for eid in (e for e in ctx.edge_seq if e not in ctx.single_crossing):
        ne = relator_neighborhood(eid, ctx)
        pr = neighborhood_probe(ne, ctx, lam)
        assert pr.applicable
        assert pr.far_ok and pr.near_ok
        assert pr.subpath_length == 13 and pr.edge_to_far == 12
        assert pr.far_bound == Fraction(28, 3)
        assert pr.near_bound == 2 * lam * 13 - 1


def test_local_density_values(ex2):
    c, ws = ex2
    assert density_threshold(Fraction(1, 6)) == Fraction(1, 6)
    assert density_threshold(Fraction(1, 8)) == Fraction(5, 12)
    ctx = geodesic_context(c, ws, c.labeled("p'"), c.labeled("p''"))
    for eid in ctx.edge_seq:
        ne = relator_neighborhood(eid, ctx)
        dc = local_density_check(ne, ctx, Fraction(1, 6))
        assert dc.holds
        if ne.cell is None:
            assert dc.ratio == 1


# -- cover split and the density principle ---------------------------------------------


def _disjoint(family):
    family = sorted(family)
    return all(family[i][1] <= family[i + 1][0] for i in range(len(family) - 1))


def _union_set(intervals):
    out = set()
    for a, b in intervals:
        out.update(range(a, b))
    return out


def test_cover_split_examples():
    u1, u2, cover = cover_split([(0, 2), (4, 6), (8, 9)])
    assert set(u1) | set(u2) == set(cover) == {(0, 2), (4, 6), (8, 9)}
    assert u2 == [(4, 6)]
    u1, u2, cover = cover_split([(0, 5), (1, 2)])
    assert cover == [(0, 5)] and u1 == [(0, 5)] and u2 == []
    u1, u2, cover = cover_split([(0, 2), (1, 3), (2, 4)])
    assert _union_set(cover) == _union_set([(0, 2), (1, 3), (2, 4)])
    assert _disjoint(u1) and _disjoint(u2)


intervals_strategy = st.lists(
    st.tuples(st.integers(0, 50), st.integers(1, 12)).map(lambda t: (t[0], t[0] + t[1])),
    min_size=1,
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(intervals_strategy)
def test_cover_split_postconditions(intervals):
    u1, u2, cover = cover_split(intervals)
    assert _union_set(cover) == _union_set(intervals)
    assert set(u1) | set(u2) == set(cover)
    assert _disjoint(u1) and _disjoint(u2)
    # minimality: dropping any member loses coverage
    for i in range(len(cover)):
        rest = cover[:i] + cover[i + 1:]
        assert _union_set(rest) != _union_set(cover)


@settings(max_examples=200, deadline=None)
@given(intervals_strategy, st.sampled_from([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]),
       st.integers(0, 10**6))
def test_density_principle_randomized(intervals, C, seed):
    rng = random.Random(seed)
    marked = set()
    for a, b in intervals:
        need = -(-(C.numerator * (b - a)) // C.denominator)
        marked.update(rng.sample(range(a, b), need))
    rep = local_to_global_bound(marked, intervals, C)
    assert rep.holds and rep.split_holds


def test_density_principle_hypothesis_guard():
    with pytest.raises(HypothesisViolated):
        local_to_global_bound(set(), [(0, 6)], Fraction(1, 2))


def test_density_principle_adversarial_overlap():
    # heavy overlap: many intervals stacked on one another at density 1/6
    intervals = [(0, 12)] * 5 + [(6, 18), (10, 22), (11, 23)]
    marked = {0, 1, 6, 7, 10, 11, 12, 13}
    rep = local_to_global_bound(marked, intervals, Fraction(1, 6))
    assert rep.holds and rep.split_holds


# -- harness ------------------------------------------------------------------------


def test_constant_value():
    assert separation_constant(Fraction(1, 6)) == Fraction(1, 12)
    # half the local density threshold, here 5/12 at 1/8
    assert separation_constant(Fraction(1, 8)) == Fraction(5, 24)


def test_free_ball_min_ratio_one(tree):
    ws = build_walls(tree)
    rep = verify_linear_separation(tree, ws, Fraction(1, 6), region=range(tree.nv))
    assert rep.passed and rep.min_ratio == 1 and rep.mean_ratio == 1
    assert not rep.violations


def test_example2_positive(ex2):
    c, ws = ex2
    rep = verify_linear_separation(c, ws, Fraction(1, 6), region=range(c.nv))
    assert rep.passed
    assert rep.min_ratio >= Fraction(1, 12)
    assert all(r.dw <= r.d for r in rep.rows)


def test_example1_observe_ratios():
    c = build_example1(list(range(1, 6)))
    ws = build_walls(c)
    anchors = [c.labeled(f"a{n}") for n in range(1, 6)] + [c.labeled(f"e{n}") for n in range(1, 6)]
    rep = verify_linear_separation(c, ws, Fraction(1, 6), region=anchors, observe=True)
    assert rep.passed and rep.observe
    for n in range(1, 6):
        a, e = c.labeled(f"a{n}"), c.labeled(f"e{n}")
        row = next(r for r in rep.rows if {r.p, r.q} == {a, e})
        assert row.d == 2 * n + 6 and row.dw == 6
        assert row.ratio == Fraction(6, 2 * n + 6)


@pytest.mark.parametrize(
    "build, max_pairs",
    [(lambda: build_example1(range(1, 6)), 3000), (lambda: build_example2(2, 14), None)],
    ids=["example1", "example2"],
)
def test_sweep_dw_matches_both_wall_distance_modes(build, max_pairs):
    # the sweep and wall_distance count crossings of the same geodesic, and
    # the side comparison agrees with both on these two-sided walls
    c = build()
    ws = build_walls(c)
    rep = verify_linear_separation(c, ws, Fraction(1, 6), observe=True, max_pairs=max_pairs)
    assert rep.pair_count == (max_pairs or c.nv * (c.nv - 1) // 2)
    for r in rep.rows:
        parity = wall_distance(ws, r.p, r.q).total
        components = wall_distance(ws, r.p, r.q, via="components").total
        assert r.dw == parity == components, (r.p, r.q)


def test_harness_requires_condition_outside_observe():
    c = build_example1([1])
    ws = build_walls(c)
    with pytest.raises(NotSmallCancellation):
        verify_linear_separation(c, ws, Fraction(1, 6), region=range(6))


def _four_cycle():
    """A bare 4-cycle: no cell fills it, so its first homology is Z/2."""
    return Complex([(0, 1), (1, 2), (2, 3), (3, 0)], [], 4)


def test_invalid_complex_is_refused():
    c = _four_cycle()
    ws = build_walls(c)
    with pytest.raises(HypothesisViolated, match="h1_trivial"):
        verify_linear_separation(c, ws, Fraction(1, 6))
    # observe mode measures without the gate
    assert verify_linear_separation(c, ws, Fraction(1, 6), observe=True).pair_count == 6


def test_complex_with_a_missing_cell_is_refused(ex2):
    # dropping one cell leaves its boundary cycle unfilled
    c, _ = ex2
    holed = Complex(c.edges, c.cells[1:], c.nv)
    with pytest.raises(HypothesisViolated, match="h1_trivial"):
        verify_linear_separation(holed, build_walls(holed), Fraction(1, 6))


def test_default_region_policies():
    # no region means every vertex; an empty region checks nothing and fails
    one = gen_example("tv", I={1}, k=7)
    c = build_cayley_ball(one, DehnMachine(one), 7)
    ws = build_walls(c)
    sample = sorted(random.Random(1).sample(range(c.nv), 30))
    whole = verify_linear_separation(c, ws, Fraction(1, 6), max_pairs=200, seed=2)
    assert whole.rows == verify_linear_separation(c, ws, Fraction(1, 6), range(c.nv), max_pairs=200, seed=2).rows
    assert whole.passed and whole.pair_count == 200
    assert verify_linear_separation(c, ws, Fraction(1, 6), region=sample).pair_count == 30 * 29 // 2
    rep = verify_linear_separation(c, ws, Fraction(1, 6), region=[])
    assert rep.pair_count == 0 and not rep.passed and rep.ratio_histogram == []
    assert verify_linear_separation(c, ws, Fraction(1, 6), region=[], observe=True).passed


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(1, 2)])
def test_lambda_outside_theorem_range_rejected(ex2, lam):
    c, ws = ex2
    with pytest.raises(BadParams, match=r"outside \(0, 1/6\]"):
        verify_linear_separation(c, ws, lam, region=range(4))
    with pytest.raises(BadParams):
        verify_linear_separation(c, ws, lam, region=range(4), observe=True)


def test_report_formats(ex2):
    c, ws = ex2
    rep = verify_linear_separation(c, ws, Fraction(1, 6), region=range(10), max_pairs=20, seed=3)
    csv = report_to_csv(rep)
    header, *rows = csv.strip().splitlines()
    assert header == "p,q,d,dw,ratio_num,ratio_den,in_A_count"
    assert len(rows) == rep.pair_count
    for line in rows:
        parts = line.split(",")
        assert len(parts) == 7
        p, q, d, dw = map(int, parts[:4])
        assert dw <= d
    js = report_to_json(rep)
    assert '"constant": "1/12"' in js


def test_ratio_histogram_is_exact(ex2):
    c, ws = ex2
    rep = verify_linear_separation(c, ws, Fraction(1, 6))
    hist = rep.ratio_histogram
    # equal ratios of different (dw, d) classes share one entry
    assert dict(hist) == Counter(r.ratio for r in rep.rows)
    assert [r for r, _ in hist] == sorted(set(r.ratio for r in rep.rows))
    assert hist[0][0] == rep.min_ratio < 1
    assert sum(k for _, k in hist) == rep.pair_count
    js = json.loads(report_to_json(rep))
    assert js["ratio_histogram"] == [[f"{r.numerator}/{r.denominator}", k] for r, k in hist]
    assert js["ratio_histogram"][0][0] == js["min_ratio"]


# -- the per-source sweep engine ------------------------------------------------------


def _grouped_pairs(verts):
    verts = sorted(verts)
    return sorted(((p, q) for i, p in enumerate(verts) for q in verts[i + 1:]), key=lambda pq: (pq[1], pq[0]))


def _margin_ball():
    # the radius-6 tv{1,2} ball: no cell closes inside it, so every wall is
    # one edge, and the sample reaches the boundary sphere
    two = gen_example("tv", I={1, 2}, k=7)
    c = build_cayley_ball(two, DehnMachine(two), 6)
    return c, build_walls(c), sorted(random.Random(6).sample(range(c.nv), 120))


def _theta_chain():
    c = build_example1(range(1, 6))
    return c, build_walls(c), range(c.nv)


def _example2():
    c = build_example2(2, 14)
    return c, build_walls(c), range(c.nv)


def _hanging_ball():
    # the radius-7 tv{1,2} ball: two 14-cells at the base make a 27-vertex
    # core, and every other vertex hangs off it by one-edge walls.  The
    # region holds the deepest hanging vertex with its ancestors, vertices
    # of its depth in the same tree, the core vertices off that tree and a
    # seeded sample.
    two = gen_example("tv", I={1, 2}, k=7)
    c = build_cayley_ball(two, DehnMachine(two), 7)
    ws = build_walls(c)
    f = hanging_forest(ws)
    deep = max(range(c.nv), key=lambda v: (f.depth[v], -v))
    chain = [deep]
    while f.parent[chain[-1]] >= 0:
        chain.append(f.parent[chain[-1]])
    root = chain[-1]
    level = [v for v in range(c.nv) if f.root[v] == root and f.depth[v] == f.depth[deep]][:6]
    core = [v for v in range(c.nv) if f.root[v] == v and v != root]
    region = {*chain, *level, *core, *random.Random(7).sample(range(c.nv), 40)}
    return c, ws, sorted(region)


@pytest.mark.parametrize(
    "build", [_margin_ball, _theta_chain, _example2, _hanging_ball], ids=["margin-ball", "theta", "example2", "hanging"]
)
def test_sweep_matches_per_pair_oracle(build):
    c, ws, region = build()
    pairs = _grouped_pairs(region)
    rows = sweep_pairs(c, ws, pairs)
    assert rows == per_pair_sweep(c, ws, pairs)
    if build is _margin_ball:
        assert any(c.dist[r.p] == c.radius or c.dist[r.q] == c.radius for r in rows)


def _ancestors(f, v):
    out = []
    while v >= 0:
        out.append(v)
        v = f.parent[v]
    return out


def test_hanging_ball_region_covers_every_case():
    c, ws, region = _hanging_ball()
    f = hanging_forest(ws)
    assert sum(f.root[v] == v for v in range(c.nv)) == 27 and max(f.depth) == 6
    same_tree = [(p, q) for p, q in itertools.combinations(region, 2) if f.root[p] == f.root[q]]
    # ancestor-descendant pairs, pairs meeting below their root and at it
    assert any(p in _ancestors(f, q) or q in _ancestors(f, p) for p, q in same_tree)
    meets = {next(a for a in _ancestors(f, p) if a in _ancestors(f, q)) for p, q in same_tree}
    assert any(f.root[a] != a for a in meets) and any(f.root[a] == a for a in meets)
    # a root that other region vertices hang from, and a core vertex that
    # nothing hangs from
    assert any(f.root[u] in region and f.root[u] != u for u in region)
    hung = set(f.parent)
    assert any(f.root[v] == v and v not in hung for v in region)


def test_parity_wall_distance_matches_components_on_hanging_ball():
    c, ws, _ = _hanging_ball()
    rng = random.Random(22)
    for _ in range(200):
        p, q = rng.sample(range(c.nv), 2)
        assert wall_distance(ws, p, q) == wall_distance(ws, p, q, via="components"), (p, q)


def test_margin_ball_forest_has_one_root():
    # a ball with no cell is all tree, so everything hangs off one vertex
    c, ws, _ = _margin_ball()
    f = hanging_forest(ws)
    (root,) = {f.root[v] for v in range(c.nv)}
    assert f.depth[root] == 0 and f.parent[root] == -1
    assert f.core.nbrs[root] == () and not any(f.core.nbrs) and not f.core.eids


def _pendant_cell():
    """An 8-cycle cell 0..7 with a pendant tree at vertex 0 (the path 10,
    9, 8 and the leaf 13 on 10) and a pendant path at vertex 4 (12, 11),
    opposite it; a child's id is below its parent's.  The core
    geodesics between 0 and 4 tie: from 0 the least edge goes through 1,
    where wall 0 takes edges (0,1), (1,2) and (2,3); from 4 it goes through
    5, where every edge is its own wall."""
    edges = [
        (0, 1), (4, 12), (5, 4), (1, 2), (0, 10), (6, 5), (2, 3),
        (7, 6), (12, 11), (3, 4), (10, 9), (0, 7), (9, 8), (10, 13),
    ]
    eid = {frozenset(e): i for i, e in enumerate(edges)}
    ring = list(range(8))
    cell = tuple(
        (eid[frozenset((u, v))], 1 if edges[eid[frozenset((u, v))]] == (u, v) else -1)
        for u, v in zip(ring, ring[1:] + ring[:1])
    )
    c = Complex(edges, [cell], 14)
    wall_of_edge = [0 if i in (0, 3, 6) else i for i in range(len(edges))]
    return c, WallSystem(c, wall_of_edge)


def test_sweep_on_a_cell_with_pendant_trees():
    c, ws = _pendant_cell()
    f = hanging_forest(ws)
    assert [f.root[v] for v in (8, 9, 10, 13, 11, 12)] == [0, 0, 0, 0, 4, 4]
    assert [f.depth[v] for v in (8, 9, 10, 13, 11, 12)] == [3, 2, 1, 2, 2, 1]
    assert all(f.root[v] == v for v in range(8))
    pairs = _grouped_pairs(range(c.nv))
    rows = sweep_pairs(c, ws, pairs)
    assert rows == per_pair_sweep(c, ws, pairs)
    by_pair = {(r.p, r.q): (r.d, r.dw, r.in_a_count) for r in rows}
    # 8 -> 9 -> 10 -> 0 -> 1 -> 2 -> 3 -> 4 -> 12 -> 11 crosses wall 0 three times
    assert by_pair[8, 11] == (9, 7, 6)
    # 11 -> 12 -> 4 -> 5 -> 6 -> 7 -> 0 -> 10 -> 13 crosses eight walls once
    assert by_pair[11, 13] == (8, 8, 8)
    # inside one tree: the tree path through the lowest common ancestor,
    # which is q itself in (8, 9) and (9, 10)
    assert by_pair[8, 13] == (3, 3, 3)
    assert by_pair[8, 9] == by_pair[9, 10] == (1, 1, 1) and by_pair[8, 10] == (2, 2, 2)


def _crossing_path():
    """Two legs of 8 edges out of vertex 0, with walls assigned by hand so
    that geodesics cross one wall up to 5 times: wall 0 is edges 0, 2, 4 of
    leg 0..8, wall 1 its odd edges and the first edge of leg 9..16, wall 6
    edge 6 and three edges of the second leg, wall 11 the rest."""
    edges = [(i, i + 1) for i in range(8)] + [(0, 9)] + [(i, i + 1) for i in range(9, 16)]
    walls = {0: (0, 2, 4), 1: (1, 3, 5, 7, 9), 6: (6, 8, 10, 12), 11: (11, 13, 14, 15)}
    wall_of_edge = [wid for eid in range(len(edges)) for wid, es in walls.items() if eid in es]
    c = Complex(edges, [], 17)
    return c, WallSystem(c, wall_of_edge)


def test_sweep_counts_walls_crossed_three_and_four_times():
    c, ws = _crossing_path()
    # the path is a tree, but its end edges lie in walls with other edges,
    # so a geodesic may cross their walls again and nothing is peeled
    f = hanging_forest(ws)
    assert list(f.root) == list(range(c.nv)) and not any(f.depth)
    assert f.core is c.adjacency()
    pairs = _grouped_pairs(range(c.nv))
    rows = sweep_pairs(c, ws, pairs)
    assert rows == per_pair_sweep(c, ws, pairs)
    by_pair = {(r.p, r.q): (r.d, r.dw, r.in_a_count) for r in rows}
    # 0..5: wall 0 three times, wall 1 twice
    assert by_pair[0, 5] == (5, 1, 0)
    # 0..8: wall 0 three times, wall 1 four times, wall 6 once
    assert by_pair[0, 8] == (8, 2, 1)
    # 8..16: walls 0, 1, 6, 11 crossed 3, 5, 4, 4 times
    assert by_pair[8, 16] == (16, 2, 0)
    assert any(r.in_a_count != r.dw for r in rows)


def _square():
    """Two geodesics join 2 to 0 on a square; the lex-least one, through
    edges 1 and 0, crosses wall 0 twice, the other crosses walls 2 and 3."""
    c = Complex([(0, 1), (1, 2), (2, 3), (3, 0)], [], 4)
    return c, WallSystem(c, [0, 0, 2, 3])


def test_sweep_follows_the_lex_least_geodesic():
    c, ws = _square()
    assert geodesic(c, 2, 0) == [1, 0]
    row = sweep_pairs(c, ws, [(2, 0)])[0]
    assert (row.d, row.dw, row.in_a_count) == (2, 0, 0)
    assert wall_distance(ws, 2, 0).total == 0


@pytest.mark.parametrize("build", [_margin_ball, _theta_chain, _crossing_path], ids=["margin-ball", "theta", "crossings"])
def test_parity_wall_distance_matches_odd_crossings(build):
    c, ws = build()[:2]
    rng = random.Random(4)
    for _ in range(60):
        p, q = rng.sample(range(c.nv), 2)
        want = odd_crossings(ws, Counter(ws.wall_of_edge[eid] for eid in geodesic(c, p, q)))
        assert wall_distance(ws, p, q) == want, (p, q)


def test_sweep_rejects_equal_endpoints(ex2):
    c, ws = ex2
    with pytest.raises(BadParams, match="must differ"):
        sweep_pairs(c, ws, [(1, 3), (3, 3)])


@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_pair_at_follows_the_enumeration(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert [pair_at(n, k) for k in range(len(pairs))] == pairs
    for bad in (-1, len(pairs)):
        with pytest.raises(BadParams):
            pair_at(n, bad)


@pytest.mark.parametrize("size", [5, 12, 53])
@pytest.mark.parametrize("seed", [0, 3])
def test_sampled_pairs_match_sampling_the_pair_list(ex2, size, seed):
    c, ws = ex2
    verts = sorted(random.Random(size).sample(range(c.nv), size))
    pairs = [(p, q) for i, p in enumerate(verts) for q in verts[i + 1:]]
    for k in (1, 7, len(pairs) - 1):
        want = sorted(random.Random(seed).sample(pairs, k))
        rep = verify_linear_separation(c, ws, Fraction(1, 6), region=verts, observe=True, max_pairs=k, seed=seed)
        assert [(r.p, r.q) for r in rep.rows] == want
