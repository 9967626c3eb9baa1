import itertools
import random
from collections import Counter

import pytest

from wallkit.complexes import (
    Complex,
    build_cayley_ball,
    build_example1,
    build_example2,
    geodesic,
    subdivide,
)
from wallkit.dehn import DehnMachine
from wallkit.errors import OddCell
from wallkit.presentation import gen_example
from wallkit.walls import (
    bridges,
    build_walls,
    dump_walls,
    hypercarrier,
    hypercarrier_check,
    hypergraph_of,
    separates,
    two_sidedness_report,
    wall_components,
    wall_distance,
    walls_to_dot,
)


@pytest.fixture(scope="module")
def tree():
    free = gen_example("free")
    return build_cayley_ball(free, DehnMachine(free), 2)


@pytest.fixture(scope="module")
def ball7():
    one = gen_example("tv", I={1}, k=7)
    return build_cayley_ball(one, DehnMachine(one), 7)


@pytest.fixture(scope="module")
def ex1():
    return build_example1([1])


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
    split = wall_components(ws, ws.wall_ids()[0])
    assert split.two_sided
    a, b = split.sides
    assert len(a) + len(b) == tree.nv and not (a & b)


def test_all_walls_two_sided_on_fixtures(ball7, ex1):
    for c in (ball7, ex1, build_example2(2, 14)):
        ws = build_walls(c)
        rep = two_sidedness_report(ws)
        assert all(s.two_sided for s in rep.values())


def test_two_sidedness_batch_matches_explicit(ex1):
    ws = build_walls(ex1)
    rep = two_sidedness_report(ws)
    for wid in ws.wall_ids():
        assert rep[wid].component_count == wall_components(ws, wid).component_count


def test_bridges_match_naive(ex1):
    adj_edges = list(range(len(ex1.edges)))
    got = bridges(ex1)
    for eid in adj_edges:
        _, count = __import__("wallkit.walls", fromlist=["_component_labels"])._component_labels(
            ex1, frozenset([eid])
        )
        assert (eid in got) == (count == 2)


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


def test_strict_convexity_failure_detected():
    # square cell plus a shortcut chord between opposite corners: the
    # ambient geodesic through the chord leaves the carrier
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    c = Complex(edges, [((0, 1), (1, 1), (2, 1), (3, 1))], 4)
    ws = build_walls(c)
    wid = ws.wall_of_edge[0]
    rep = hypercarrier_check(ws, wid, strict=True)
    assert not rep.passed
    rep2 = hypercarrier_check(ws, wid, strict=False)
    assert not rep2.passed  # chord is the unique geodesic 0-2


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


# -- settled policy -----------------------------------------------------------------


def test_settled_policies(ball7):
    ws_default = build_walls(ball7)  # margin = max cell length = 14 > R: nothing settled
    assert not any(ws_default.settled.values())
    ws_all = build_walls(ball7, settled_policy="all")
    assert all(ws_all.settled.values())
    ws_m1 = build_walls(ball7, settled_margin=1)
    settled = ws_m1.settled_wall_ids()
    assert settled
    # settled walls with margin 1 live within radius 6
    for wid in settled:
        for eid in ws_m1.walls[wid]:
            u, v = ball7.edges[eid]
            assert max(ball7.dist[u], ball7.dist[v]) <= 6


def test_non_ball_complexes_fully_settled(ex1):
    ws = build_walls(ex1)
    assert all(ws.settled.values())


def test_wall_distance_reports_unsettled(ball7):
    ws = build_walls(ball7, settled_margin=1)
    # a pair near the boundary crosses unsettled walls
    far = max(range(ball7.nv), key=lambda v: ball7.dist[v])
    wd = wall_distance(ws, 0, far)
    assert wd.unsettled_count > 0
    assert wd.total == ball7.dist[far]


# -- dumps -------------------------------------------------------------------------


def test_dump_and_dot(ex1):
    ws = build_walls(ex1)
    text = dump_walls(ws)
    assert text.count("wall ") == len(ws.walls)
    assert "settled=1" in text
    dot = walls_to_dot(ws, ws.wall_ids()[:2])
    assert dot.startswith("graph walls {") and "--" in dot
