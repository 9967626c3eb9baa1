import gc
import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bridges,
    component_labels,
    deque_bfs_distances,
    group_walls,
    pair_adjacency,
    pairwise_hypercarrier_check,
)
from wallkit.complexes import (
    Complex,
    bfs,
    build_cayley_ball,
    build_example1,
    build_example2,
    geodesic,
    subdivide,
)
from wallkit.dehn import DehnMachine
from wallkit.errors import BadParams, OddCell
from wallkit.presentation import gen_example
from wallkit.walls import (
    WallDistance,
    WallSystem,
    _split,
    build_walls,
    dump_walls,
    hypercarrier,
    hypercarrier_check,
    hypergraph_of,
    separates,
    spanning_tree,
    two_sidedness_report,
    wall_distance,
    wall_sides,
    walls_to_dot,
)


@pytest.fixture(scope="module")
def tree():
    free = gen_example("free")
    return build_cayley_ball(free, DehnMachine(free), 2)


def _tv1_ball7():
    one = gen_example("tv", I={1}, k=7)
    return build_cayley_ball(one, DehnMachine(one), 7)


@pytest.fixture(scope="module")
def ball7():
    return _tv1_ball7()


@pytest.fixture(scope="module")
def ex1():
    return build_example1([1])


def _tv12_ball(radius):
    two = gen_example("tv", I={1, 2}, k=7)
    return build_cayley_ball(two, DehnMachine(two), radius)


def _open_14_path():
    return Complex([(i, i + 1) for i in range(13)], [], 14)


def _closed_14_cycle():
    return Complex([(i, (i + 1) % 14) for i in range(14)], [], 14)


# -- construction ---------------------------------------------------------------


def test_tree_walls_are_singletons(tree):
    ws = build_walls(tree)
    assert len(ws.walls) == len(tree.edges)
    assert all(len(e) == 1 for e in ws.walls.values())


def test_single_cycle_cell_pairs_opposites():
    # one 14-cycle: 7 walls of 2 edges each
    edges = [(i, (i + 1) % 14) for i in range(14)]
    c = Complex(edges, [tuple((i, 1) for i in range(14))], 14)
    ws = build_walls(c)
    assert len(ws.walls) == 7
    for wid, eids in ws.walls.items():
        assert len(eids) == 2
        assert (eids[1] - eids[0]) == 7


def test_odd_cell_rejected():
    c = Complex([(0, 1), (1, 2), (2, 0)], [((0, 1), (1, 1), (2, 1))], 3)
    with pytest.raises(OddCell):
        build_walls(c)
    ws = build_walls(subdivide(c))
    assert len(ws.walls) == 3


def test_wall_ids_are_min_edge_ids(ex1):
    ws = build_walls(ex1)
    for wid, eids in ws.walls.items():
        assert wid == min(eids)


@pytest.mark.parametrize(
    "build",
    [lambda: build_example1(range(1, 6)), lambda: build_example2(2, 14), lambda: _tv12_ball(6)],
    ids=["theta", "example2", "ball6"],
)
def test_walls_and_hyperedges_match_grouping_oracle(build):
    c = build()
    ws = build_walls(c)
    walls, hyper = group_walls(c)
    assert len(ws.walls) == len(ws.hyperedges) == len(walls)
    assert list(ws.walls) == list(ws.hyperedges) == ws.wall_ids() == list(walls)
    assert dict(ws.walls.items()) == walls
    assert dict(ws.hyperedges.items()) == hyper
    assert list(ws.wall_of_edge) == [next(w for w, es in walls.items() if e in es) for e in range(len(c.edges))]
    bare = [w for w in walls if not hyper[w]]
    assert all(ws.hyperedges[w] == () for w in bare)
    # an id that names no wall: an edge in a larger wall, out of range, not an int
    for key in [e for e in range(len(c.edges)) if e not in walls] + [-1, len(c.edges), 10**6, "0"]:
        assert key not in ws.walls and key not in ws.hyperedges
        for mapping in (ws.walls, ws.hyperedges):
            with pytest.raises(KeyError):
                mapping[key]


def test_hand_built_walls_must_match_wall_of_edge():
    c = Complex([(0, 1), (1, 2), (2, 3)], [], 4)
    ws = WallSystem(c, [0, 0, 2])
    assert dict(ws.walls) == {0: (0, 1), 2: (2,)} and list(ws.wall_of_edge) == [0, 0, 2]
    for wall_of_edge in ([1, 1, 2], [0, 2, 2]):
        with pytest.raises(BadParams, match="least edge id"):
            WallSystem(c, wall_of_edge)


def test_wall_system_needs_a_wall_id_in_range_for_each_edge():
    c = Complex([(0, 1), (1, 2), (2, 3)], [], 4)
    for wall_of_edge in ([0, 0], [0, 0, 2, 3], [0, 0, -1], [0, 0, 3]):
        with pytest.raises(BadParams, match="each of the 3 edges a wall id in 0..2"):
            WallSystem(c, wall_of_edge)


def test_example1_wall_structure(ex1):
    # derived by hand on the two 10-gons: six 2-edge walls pairing the two
    # length-3 segments with the long outer arcs, and two 3-edge walls that
    # chain through the shared 2-edge segment across both cells.
    ws = build_walls(ex1)
    assert Counter(len(e) for e in ws.walls.values()) == Counter({2: 6, 3: 2})
    for wid, eids in ws.walls.items():
        cells = {cid for cid, _, _ in ws.hyperedges[wid]}
        assert cells == ({0, 1} if len(eids) == 3 else cells)
        if len(eids) == 3:
            assert cells == {0, 1}
        else:
            assert len(cells) == 1


# -- two-sidedness ---------------------------------------------------------------


def test_tree_edge_two_sides(tree):
    ws = build_walls(tree)
    wid = ws.wall_ids()[0]
    assert two_sidedness_report(ws)[wid].two_sided
    a, b = wall_sides(ws, wid)
    assert len(a) + len(b) == tree.nv and not (a & b)


def test_two_sidedness_report_is_a_mapping_view():
    c = _tv12_ball(7)
    ws = build_walls(c)
    rep = two_sidedness_report(ws)
    wids = ws.wall_ids()
    assert len(rep) == len(wids) and list(rep) == wids == sorted(wids)
    assert list(rep.values()) == [_split(ws, w) for w in wids]
    assert all(rep[w] == _split(ws, w) for w in wids)
    multi = [w for w in wids if len(ws.walls[w]) > 1]
    assert multi and all(rep[w] is ws._splits[w] for w in multi)
    for key in (-1, 1 + max(wids), ws.walls[multi[0]][1]):
        assert key not in rep
        with pytest.raises(KeyError):
            rep[key]
    # requested ids come back once each, in wall-id order, and only they
    sub = two_sidedness_report(ws, [wids[5], wids[2], wids[5]])
    assert list(sub) == [wids[2], wids[5]] and len(sub) == 2
    assert dict(sub.items()) == {w: rep[w] for w in (wids[2], wids[5])}
    with pytest.raises(KeyError):
        sub[wids[3]]
    # an unknown id fails at the call, before anything is read
    with pytest.raises(BadParams, match="no wall 1000000"):
        two_sidedness_report(ws, iter([wids[0], 10**6]))


def test_wall_system_holds_no_object_per_wall():
    # radius-7 tv{1,2} ball (4,371 edges, 4,358 walls) under tracemalloc:
    # build_walls plus the two-sidedness report hold about 0.25 MiB, nearly
    # all of it the spanning tree's arrays.  With a tuple per wall in a dict
    # and a WallSplit per wall in the report they held 1.77 MiB.
    c = _tv12_ball(7)
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        ws = build_walls(c)
        rep = two_sidedness_report(ws)
        assert sum(s.two_sided for s in rep.values()) == len(ws.walls) == 4358
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - base < 0.5 * 2**20, held - base


def test_all_walls_two_sided_on_fixtures(ball7, ex1):
    for c in (ball7, ex1, build_example2(2, 14)):
        ws = build_walls(c)
        rep = two_sidedness_report(ws)
        assert all(s.two_sided for s in rep.values())


def test_two_sidedness_batch_matches_explicit(ex1):
    ws = build_walls(ex1)
    rep = two_sidedness_report(ws)
    for wid in ws.wall_ids():
        assert rep[wid].component_count == two_sidedness_report(ws, [wid])[wid].component_count
        sides = wall_sides(ws, wid)
        assert (sides is not None) == rep[wid].two_sided
        if sides is not None:
            assert len(sides[0]) + len(sides[1]) == ex1.nv and not sides[0] & sides[1]


def test_bridges_match_naive(ex1):
    adj_edges = list(range(len(ex1.edges)))
    got = bridges(ex1)
    for eid in adj_edges:
        _, count = component_labels(ex1, frozenset([eid]))
        assert (eid in got) == (count == 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_example1(range(1, 13)),
        lambda: build_example2(2, 14),
        lambda: _tv12_ball(7),
        lambda: _tv12_ball(8),
        _open_14_path,
        _closed_14_cycle,
    ],
    ids=["example1-1..12", "example2-2-14", "tv12-radius7", "tv12-radius8", "open-14-path", "closed-14-cycle"],
)
def test_two_sidedness_counts_match_component_labels(build):
    c = build()
    ws = build_walls(c)
    rep = two_sidedness_report(ws)
    assert sorted(rep) == ws.wall_ids()
    tarjan = bridges(c)
    singles = [wid for wid in ws.wall_ids() if len(ws.walls[wid]) == 1]
    for wid in singles:
        assert rep[wid].two_sided == (ws.walls[wid][0] in tarjan)
    # a component BFS per wall costs ~5 ms on the 13,107-vertex ball: there
    # it runs on every multi-edge wall and a sample of the singletons, which
    # the bridge oracle above covers in full
    every = c.nv < 5000
    checked = [wid for wid in ws.wall_ids() if len(ws.walls[wid]) > 1]
    checked += singles if every else random.Random(5).sample(singles, 300)
    rng = random.Random(6)
    pairs = [tuple(rng.sample(range(c.nv), 2)) for _ in range(40)]
    want_dw = [0] * len(pairs)  # walls that separate each pair
    for wid in checked:
        label, count = component_labels(c, frozenset(ws.walls[wid]))
        assert rep[wid].component_count == count, wid
        assert rep[wid].two_sided == (count == 2), wid
        if count == 2:
            far = frozenset(itertools.compress(range(c.nv), label))
            assert wall_sides(ws, wid) == (frozenset(range(c.nv)) - far, far), wid
        else:
            assert wall_sides(ws, wid) is None, wid
        for i, (p, q) in enumerate(pairs):
            assert separates(ws, wid, p, q) == (label[p] != label[q] if count == 2 else None), (wid, p, q)
            if count == 2 and label[p] != label[q]:
                want_dw[i] += 1
    if every:
        for (p, q), dw in zip(pairs, want_dw):
            assert wall_distance(ws, p, q, via="components") == WallDistance(dw), (p, q)


@st.composite
def _graph_with_walls(draw):
    nv = draw(st.integers(1, 12))
    # a spanning tree, or a forest when a vertex draws no parent (-1)
    lowest = draw(st.sampled_from([0, -1]))
    parents = [draw(st.integers(lowest, v - 1)) for v in range(1, nv)]
    edges = [(p, v) for v, p in enumerate(parents, 1) if p >= 0]
    extra = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
    edges += draw(st.lists(extra, max_size=10))  # may repeat edges or add loops
    order = draw(st.permutations(edges))
    labels = draw(st.lists(st.integers(0, 5), min_size=len(order), max_size=len(order)))
    return Complex(list(order), [], nv), labels


@settings(max_examples=200, deadline=None)
@given(_graph_with_walls())
@example((Complex([(0, 1), (2, 3), (2, 3)], [], 4), [0, 1, 1]))
def test_two_sidedness_counts_match_component_labels_random(graph):
    # the wall system is built by hand: random edge subsets stand in for walls
    c, labels = graph
    groups: dict[int, list[int]] = {}
    for eid, lab in enumerate(labels):
        groups.setdefault(lab, []).append(eid)
    walls = {g[0]: tuple(g) for g in groups.values()}
    wall_of_edge = [groups[lab][0] for lab in labels]
    if component_labels(c, frozenset())[1] > 1:
        # a wall system builds its spanning tree, which needs a connected 1-skeleton
        for build in (lambda: build_walls(c), lambda: WallSystem(c, wall_of_edge)):
            with pytest.raises(BadParams, match="disconnected"):
                build()
        return
    ws = WallSystem(c, wall_of_edge)
    rep = two_sidedness_report(ws)
    for wid, edge_ids in walls.items():
        label, count = component_labels(c, frozenset(edge_ids))
        assert rep[wid].component_count == count
        assert rep[wid].two_sided == (count == 2)
        if count == 2:
            far = frozenset(itertools.compress(range(c.nv), label))
            assert wall_sides(ws, wid) == (frozenset(range(c.nv)) - far, far)
        else:
            assert wall_sides(ws, wid) is None


# -- breadth-first search and the spanning tree -------------------------------------


def _assert_adjacency_matches_pairs(c):
    # the neighbour tuples and the edge ids at their offsets, zipped, are
    # the (neighbour, edge id) pairs read from the edge list
    adj, pairs = c.adjacency(), pair_adjacency(c)
    assert len(adj.nbrs) == c.nv and len(adj.start) == c.nv + 1
    assert adj.start[0] == 0 and adj.start[c.nv] == len(adj.eids) == 2 * len(c.edges)
    for v in range(c.nv):
        s, nb = adj.start[v], adj.nbrs[v]
        assert type(nb) is tuple and adj.start[v + 1] == s + len(nb)
        assert list(zip(nb, adj.eids[s:s + len(nb)])) == pairs[v], v


@settings(max_examples=200, deadline=None)
@given(_graph_with_walls())
@example((Complex([(1, 1), (0, 1), (1, 1)], [], 3), [0, 1, 2]))  # loops, and a vertex with no edge
def test_adjacency_matches_pairs_oracle_random(graph):
    _assert_adjacency_matches_pairs(graph[0])


@pytest.mark.parametrize(
    "build", [lambda: _tv12_ball(6), lambda: _tv12_ball(7), _open_14_path], ids=["tv12-r6", "tv12-r7", "open-14-path"]
)
def test_adjacency_matches_pairs_oracle_on_balls(build):
    _assert_adjacency_matches_pairs(build())


@settings(max_examples=200, deadline=None)
@given(_graph_with_walls(), st.data())
def test_bfs_matches_deque_oracle(graph, data):
    c, _ = graph
    pairs, nbrs = pair_adjacency(c), c.adjacency().nbrs
    for src in range(c.nv):
        want = deque_bfs_distances(pairs, src)
        dist, order = bfs(nbrs, src)
        assert dist == want
        # the reached vertices, level by level
        assert sorted(order) == [v for v in range(c.nv) if want[v] >= 0]
        assert [dist[v] for v in order] == sorted(want[v] for v in order)
    src = data.draw(st.integers(0, c.nv - 1), label="src")
    want = deque_bfs_distances(pairs, src)
    reached = [v for v in range(c.nv) if want[v] >= 0]
    targets = data.draw(st.sets(st.sampled_from(reached), min_size=1), label="targets")
    dist, order = bfs(nbrs, src, targets)
    far = max(want[t] for t in targets)
    for v in range(c.nv):
        if v in targets or want[v] < far:
            assert dist[v] == want[v], v
        else:  # the farthest level may be cut short
            assert dist[v] in (-1, want[v]), v
    assert [dist[v] for v in order] == sorted(dist[v] for v in order)


def test_bfs_stops_at_a_near_target():
    c = _tv12_ball(6)
    nbrs = c.adjacency().nbrs
    near = nbrs[0][0]
    dist, order = bfs(nbrs, 0, (near,))
    assert dist[near] == 1 and len(order) < c.nv
    assert bfs(nbrs, 0)[0] == deque_bfs_distances(pair_adjacency(c), 0) == c.dist


def _tree_path(t, v):
    """Edge ids of the spanning tree's path from v up to vertex 0."""
    path = []
    while v:
        eid = t.parent_edge[v]
        path.append(eid)
        a, b = t.edges[eid]
        v = a if b == v else b
    return path


def _assert_lex_least_geodesic_tree(c):
    t = spanning_tree(c)
    for v in range(1, c.nv):
        assert _tree_path(t, v) == geodesic(c, v, 0), v


@pytest.mark.parametrize(
    "build",
    [
        *(lambda n=n: build_example1(range(1, n + 1)) for n in range(1, 6)),
        lambda: build_example2(2, 14),
        lambda: _tv12_ball(6),
    ],
    ids=[*(f"theta-1..{n}" for n in range(1, 6)), "example2", "tv12-r6"],
)
def test_spanning_tree_is_the_lex_least_geodesic_tree(build):
    _assert_lex_least_geodesic_tree(build())


@settings(max_examples=200, deadline=None)
@given(_graph_with_walls())
# BFS from 0 meets vertex 3 first from vertex 1, by edge 3; the least edge
# id into level 1 is edge 0, from vertex 2
@example((Complex([(2, 3), (0, 1), (0, 2), (1, 3)], [], 4), [0, 1, 2, 3]))
def test_spanning_tree_is_the_lex_least_geodesic_tree_random(graph):
    c, _ = graph  # the strategy shuffles the edge ids
    if min(deque_bfs_distances(pair_adjacency(c), 0)) < 0:
        return  # disconnected: no spanning tree
    _assert_lex_least_geodesic_tree(c)


def test_truncation_can_break_two_sidedness():
    # a cell cycle with one of its opposite-pair edges outside the complex:
    # removing a 2-edge wall of an open 14-cycle leaves one component
    edges = [(i, i + 1) for i in range(13)]  # open path, no cell
    c = Complex(edges, [], 14)
    ws = build_walls(c)
    rep = two_sidedness_report(ws)
    assert all(s.two_sided for s in rep.values())  # every path edge is a bridge
    # now close it into a cycle with no cell: the lone cycle edge-walls stop separating
    c2 = Complex(edges + [(13, 0)], [], 14)
    ws2 = build_walls(c2)
    rep2 = two_sidedness_report(ws2)
    assert all(s.component_count == 1 for s in rep2.values())


# -- hypergraphs -----------------------------------------------------------------


def test_hypergraphs_are_trees(ball7, ex1):
    for c in (ball7, ex1):
        ws = build_walls(c)
        for wid in ws.wall_ids():
            hg = hypergraph_of(ws, wid)
            assert hg.is_tree
            assert len(hg.edges) == len(hg.vertices) - 1


def test_hypergraph_shapes(ex1):
    ws = build_walls(ex1)
    for wid in ws.wall_ids():
        hg = hypergraph_of(ws, wid)
        if len(hg.vertices) == 1:
            assert hg.edges == ()
        if len(hg.vertices) == 3:
            # path through the shared segment edge
            mid = set(hg.edges[0][1:]) & set(hg.edges[1][1:])
            assert len(mid) == 1


# -- hypercarriers ----------------------------------------------------------------


def test_singleton_hypercarrier_is_the_edge(tree):
    ws = build_walls(tree)
    wid = ws.wall_ids()[0]
    vs, es = hypercarrier(ws, wid)
    assert es == frozenset({wid})
    assert len(vs) == 2
    assert hypercarrier_check(ws, wid, strict=True).passed


def test_cell_wall_hypercarriers_convex_strict(ball7):
    ws = build_walls(ball7)
    for wid in ws.wall_ids():
        if len(ws.walls[wid]) == 2:
            rep = hypercarrier_check(ws, wid, strict=True)
            assert rep.passed, (wid, rep.witness)


def test_example1_carrier_convexity():
    c = build_example1([2])
    ws = build_walls(c)
    for wid in ws.wall_ids():
        rep = hypercarrier_check(ws, wid, strict=True)
        assert rep.passed, (wid, rep.witness)


def _chord_square():
    # square cell plus a shortcut chord between opposite corners
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    return Complex(edges, [((0, 1), (1, 1), (2, 1), (3, 1))], 4)


def test_strict_convexity_failure_detected():
    # the ambient geodesic through the chord leaves the carrier
    ws = build_walls(_chord_square())
    wid = ws.wall_of_edge[0]
    rep = hypercarrier_check(ws, wid, strict=True)
    assert not rep.passed
    rep2 = hypercarrier_check(ws, wid, strict=False)
    assert not rep2.passed  # chord is the unique geodesic 0-2


def _ball7_walls():
    ws = build_walls(_tv1_ball7())
    singles = [wid for wid in ws.wall_ids() if not ws.hyperedges[wid]]
    # two full BFS runs per singleton wall in the oracle: sample them
    keep = set(random.Random(7).sample(singles, 100))
    return ws, [wid for wid in ws.wall_ids() if ws.hyperedges[wid] or wid in keep]


def _every_wall(c):
    ws = build_walls(c)
    return ws, ws.wall_ids()


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
@pytest.mark.parametrize(
    "walls",
    [
        lambda: _every_wall(build_example1(range(1, 13))),
        lambda: _every_wall(build_example2(2, 14)),
        lambda: _every_wall(build_example2(4, 9)),
        _ball7_walls,
        lambda: _every_wall(_chord_square()),
    ],
    ids=["example1-1..12", "example2-2-14", "example2-4-9", "tv1-radius7", "chord-square"],
)
def test_hypercarrier_check_matches_pairwise_oracle(walls, strict):
    ws, wall_ids = walls()
    for wid in wall_ids:
        assert hypercarrier_check(ws, wid, strict=strict) == pairwise_hypercarrier_check(ws, wid, strict=strict)


def test_hypercarrier_witness_is_first_failing_pair():
    # an octagon cell with two chords: many carrier pairs have a geodesic
    # through a chord (strict failures), fewer have only such geodesics
    # (non-strict failures); each mode reports its least failing pair
    c = _octagon_with_chords()
    edges = c.edges
    ws = build_walls(c)
    wid = ws.wall_of_edge[0]
    some, only = [], []
    for u, v in itertools.combinations(range(8), 2):
        du, dv = c.bfs_distances(u), c.bfs_distances(v)
        if any(du[a] + 1 + dv[b] == du[v] for a, b in edges[8:] + [e[::-1] for e in edges[8:]]):
            some.append((u, v))
        if min(v - u, 8 - v + u) != du[v]:
            only.append((u, v))
    assert len(some) > len(only) >= 3
    strict = hypercarrier_check(ws, wid, strict=True)
    loose = hypercarrier_check(ws, wid, strict=False)
    assert strict == pairwise_hypercarrier_check(ws, wid, strict=True)
    assert loose == pairwise_hypercarrier_check(ws, wid, strict=False)
    assert strict.witness[:2] == some[0] and loose.witness == only[0] + (-1,)
    assert (strict.witness, loose.witness) == ((0, 3, 8), (0, 4, -1))


def _octagon_with_chords():
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(1, 4), (5, 7)]
    return Complex(edges, [tuple((i, 1) for i in range(8))], 8)


@pytest.mark.parametrize(
    "make, carriers",
    [
        (lambda: build_example1(range(1, 13)), 36),
        (lambda: build_example2(2, 14), 3),
        (lambda: build_example2(4, 9), 3),
        (_octagon_with_chords, 1),
    ],
    ids=["theta-1..12", "example2-2-14", "example2-4-9", "octagon-chords"],
)
def test_convexity_is_checked_once_per_carrier(make, carriers):
    # walls that share a carrier share one check; each report equals the
    # one a fresh wall system gives for that wall alone
    c = make()
    ws = build_walls(c)
    cell_walls = [wid for wid in ws.wall_ids() if ws.hyperedges[wid]]
    for strict in (True, False):
        for wid in cell_walls:
            assert hypercarrier_check(ws, wid, strict=strict) == hypercarrier_check(build_walls(c), wid, strict=strict)
    assert len(ws._convexity) == 2 * carriers
    if make is _octagon_with_chords:
        # four walls, one carrier: the strict failure and its witness repeat
        reps = [hypercarrier_check(ws, wid, strict=True) for wid in cell_walls]
        assert [(r.wall, r.passed, r.witness) for r in reps] == [(w, False, (0, 3, 8)) for w in cell_walls]
        assert len(cell_walls) == 4


def test_unknown_wall_id_is_bad_params(ex1):
    ws = build_walls(ex1)
    for call, message in (
        (lambda: hypercarrier(ws, 10**6), "no wall"),
        (lambda: hypercarrier_check(ws, 10**6), "no wall"),
        (lambda: two_sidedness_report(ws, wall_ids=[10**6]), "no wall"),
        (lambda: separates(ws, 10**6, 0, 1), "no wall"),
        (lambda: wall_sides(ws, 10**6), "no wall"),
        (lambda: dump_walls(ws, [10**6]), "no wall"),
        (lambda: walls_to_dot(ws, [10**6]), "no wall"),
        (lambda: wall_distance(ws, 0, 0, via="bogus"), "unknown mode"),
        (lambda: separates(ws, 0, -1, 0), "no vertex -1"),
        (lambda: separates(ws, 0, 0, ex1.nv), f"no vertex {ex1.nv}"),
        (lambda: wall_distance(ws, -1, 0), "no vertex -1"),
        (lambda: wall_distance(ws, -1, 0, via="components"), "no vertex -1"),
        (lambda: wall_distance(ws, 0, ex1.nv), f"no vertex {ex1.nv}"),
        (lambda: wall_distance(ws, ex1.nv, ex1.nv, via="components"), f"no vertex {ex1.nv}"),
    ):
        with pytest.raises(BadParams, match=message):
            call()


@pytest.mark.parametrize(
    "build",
    [lambda: build_example1(range(1, 6)), lambda: build_example2(2, 14), lambda: _tv12_ball(6)],
    ids=["theta", "example2", "ball6"],
)
def test_split_side_matches_wall_sides(build):
    c = build()
    ws = build_walls(c)
    tin = ws.tree.tin
    splits = two_sidedness_report(ws)
    for wid in ws.wall_ids():
        near, far = wall_sides(ws, wid)
        side = splits[wid].side
        assert [side(tin[v]) for v in range(c.nv)] == [v in far for v in range(c.nv)], wid
        assert near | far == frozenset(range(c.nv))
        # the oracle BFS labels vertex 0's component 0, as the split does
        assert component_labels(c, frozenset(ws.walls[wid])) == ([side(tin[v]) for v in range(c.nv)], 2), wid


# -- wall pseudo-metric ------------------------------------------------------------


def test_tree_wall_distance_equals_path(tree):
    ws = build_walls(tree)
    dist0 = tree.bfs_distances(0)
    for v in range(1, tree.nv):
        assert wall_distance(ws, 0, v).total == dist0[v]


def test_example1_separating_walls(ex1):
    ws = build_walls(ex1)
    a, e = ex1.labeled("a1"), ex1.labeled("e1")
    assert wall_distance(ws, a, e, via="parity").total == 6
    assert wall_distance(ws, a, e, via="components").total == 6
    assert wall_distance(ws, a, a).total == 0


def test_parity_matches_components_everywhere(ex1):
    ws = build_walls(ex1)
    rng = random.Random(3)
    verts = rng.sample(range(ex1.nv), 12)
    for p, q in itertools.combinations(verts, 2):
        assert wall_distance(ws, p, q, "parity").total == wall_distance(ws, p, q, "components").total


def test_adjacent_vertices(ex1):
    ws = build_walls(ex1)
    u, v = ex1.edges[0]
    wd = wall_distance(ws, u, v)
    assert wd.total in (0, 1)
    assert (wd.total == 1) == bool(separates(ws, ws.wall_of_edge[0], u, v))


def test_pseudo_metric_axioms(ex1):
    ws = build_walls(ex1)
    rng = random.Random(9)
    verts = rng.sample(range(ex1.nv), 8)
    for p, q, r in itertools.combinations(verts, 3):
        dpq = wall_distance(ws, p, q).total
        dqr = wall_distance(ws, q, r).total
        dpr = wall_distance(ws, p, r).total
        assert dpq == wall_distance(ws, q, p).total
        assert dpr <= dpq + dqr


def test_wall_distance_bounded_by_path_metric(ex1):
    ws = build_walls(ex1)
    rng = random.Random(4)
    for _ in range(40):
        p, q = rng.sample(range(ex1.nv), 2)
        assert wall_distance(ws, p, q).total <= ex1.bfs_distances(p)[q]


def test_separating_walls_meet_every_path(ex1):
    # finiteness mechanism: a separating wall cannot be disjoint from a path
    ws = build_walls(ex1)
    rng = random.Random(8)
    for _ in range(20):
        p, q = rng.sample(range(ex1.nv), 2)
        path_walls = {ws.wall_of_edge[eid] for eid in geodesic(ex1, p, q)}
        for wid in ws.wall_ids():
            if separates(ws, wid, p, q):
                assert wid in path_walls


# -- the settled_policy keyword ----------------------------------------------------


def test_settled_policies(ball7):
    # "all" is the only policy left, and it changes nothing
    ws = build_walls(ball7, settled_policy="all")
    assert ws.walls == build_walls(ball7).walls
    for policy in ("margin", "none"):
        with pytest.raises(BadParams, match="only 'all'"):
            build_walls(ball7, settled_policy=policy)


def test_wall_distance_counts_every_wall(ball7):
    # the ball's geodesics from the base cross every wall at most once, so
    # all walls count, those near the boundary included
    ws = build_walls(ball7)
    far = max(range(ball7.nv), key=lambda v: ball7.dist[v])
    assert wall_distance(ws, 0, far).total == ball7.dist[far] == ball7.radius
    assert wall_distance(ws, 0, far, via="components") == wall_distance(ws, 0, far)


# -- dumps -------------------------------------------------------------------------


def test_dump_and_dot(ex1):
    ws = build_walls(ex1)
    text = dump_walls(ws)
    assert text.count("wall ") == len(ws.walls)
    assert text.startswith(f"wall {ws.wall_ids()[0]} edges=")
    dot = walls_to_dot(ws, ws.wall_ids()[:2])
    assert dot.startswith("graph walls {") and "--" in dot


def test_dumps_print_a_repeated_wall_once(ex1):
    ws = build_walls(ex1)
    w, v = ws.wall_ids()[:2]
    assert dump_walls(ws, [v, w, v, w]) == dump_walls(ws, [w, v])
    assert walls_to_dot(ws, [v, w, v, w]) == walls_to_dot(ws, [w, v])
    assert dump_walls(ws, [w, w]).count(f"wall {w} ") == 1
    assert walls_to_dot(ws, [w, w]).count(f"cluster_w{w} ") == 1
