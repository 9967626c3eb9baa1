"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdicts.  The radius-8 ball used by criteria 2, 3 and 8 is verified to be
an intrinsically valid complex (connected, trivial first homology over
GF(2), even cells, strict 1/6 piece condition among its cells) before its
walls are trusted, and the checks then run over every wall and a
deterministic region.  The separation harness applies the same gate
itself: criterion 3 also shows that a ball failing it is refused.
"""

import random
import time
from fractions import Fraction

import pytest

from oracles import brute_force_pieces, free_product_trivial
from wallkit.complexes import (
    Complex,
    build_cayley_ball,
    build_example1,
    build_example2,
    check_B6,
    validity_summary,
)
from wallkit.dehn import DehnMachine, is_trivial, iter_reduced_words
from wallkit.errors import HypothesisViolated
from wallkit.presentation import check_small_cancellation, gen_example
from wallkit.separation import (
    cover_split,
    geodesic_context,
    local_density_check,
    local_to_global_bound,
    neighborhood_probe,
    relator_neighborhood,
    verify_linear_separation,
)
from wallkit.walls import (
    build_walls,
    hypercarrier_check,
    hypergraph_of,
    two_sidedness_report,
    wall_distance,
    wall_sides,
)

LAMBDA = Fraction(1, 6)
CONSTANT = Fraction(1, 12)


def _verdict(n, elapsed, limit, detail):
    print(f"criterion {n}: PASS ({elapsed:.1f}s < {limit}s) {detail}")


@pytest.fixture(scope="module")
def ball8():
    tv = gen_example("tv", I={1, 2}, k=7)
    m = DehnMachine(tv)
    c = build_cayley_ball(tv, m, 8, seed=1)
    vs = validity_summary(c, LAMBDA)
    assert vs.ok, vs  # precondition for trusting the ball's walls as-is
    return c


@pytest.fixture(scope="module")
def ball8_walls(ball8):
    return build_walls(ball8)


def test_criterion_1_metric_condition_verification():
    t0 = time.monotonic()
    p7 = gen_example("tv", I={1, 2, 3}, k=7)
    rep7 = check_small_cancellation(p7, LAMBDA)
    assert rep7.passed
    assert all(e.ratio <= Fraction(1, 7) for e in rep7.entries)
    # independent oracle agreement
    _, oracle_max = brute_force_pieces(p7)
    assert oracle_max == rep7.index.max_by_relator
    assert all(Fraction(oracle_max[rid], len(r)) <= Fraction(1, 7) for rid, r in enumerate(p7.relators))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p6 = gen_example("tv", I={1, 2, 3}, k=6)
    rep6 = check_small_cancellation(p6, LAMBDA)
    assert not rep6.passed
    _, oracle_max6 = brute_force_pieces(p6)
    assert oracle_max6 == rep6.index.max_by_relator
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    _verdict(1, elapsed, 5, f"k=7 passes (max ratio {max(e.ratio for e in rep7.entries)}), k=6 fails; oracle agrees")


def test_criterion_2_wall_structure(ball8, ball8_walls):
    t0 = time.monotonic()
    ws = ball8_walls
    wall_ids = ws.wall_ids()
    assert wall_ids
    # hypergraphs are trees
    for wid in wall_ids:
        assert hypergraph_of(ws, wid).is_tree
    # exactly two sides
    sides = two_sidedness_report(ws)
    assert all(s.two_sided for s in sides.values())
    multi = [w for w in wall_ids if len(ws.walls[w]) > 1]
    for wid in multi:  # spot-check the explicit side decomposition
        assert sides[wid].two_sided and wall_sides(ws, wid) is not None
    # strict hypercarrier convexity over all carrier pairs
    for wid in multi:
        rep = hypercarrier_check(ws, wid, strict=True)
        assert rep.passed, (wid, rep.witness)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _verdict(2, elapsed, 120, f"{len(wall_ids)} walls: trees, two sides, strict convexity ({len(multi)} cell walls)")


def _acceptance_region(c, ws, seed=0):
    """Deterministic region: radius-3 core, all cell-wall carrier vertices,
    plus a seeded sample of deeper vertices."""
    region = {v for v in range(c.nv) if c.dist[v] <= 3}
    for wid in ws.wall_ids():
        if len(ws.walls[wid]) > 1:
            for cid, _, _ in ws.hyperedges[wid]:
                region.update(c.cell_vertices(cid))
    rng = random.Random(seed)
    rest = [v for v in range(c.nv) if v not in region]
    region.update(rng.sample(rest, 150))
    return sorted(region)


def test_criterion_3_linear_separation_positive(ball8, ball8_walls):
    t0 = time.monotonic()
    region = _acceptance_region(ball8, ball8_walls)
    rep = verify_linear_separation(ball8, ball8_walls, LAMBDA, region=region)
    assert rep.passed
    assert rep.constant == CONSTANT
    assert rep.pair_count > 10_000
    for row in rep.rows:
        assert row.dw <= row.d
        assert row.ratio >= CONSTANT
    assert rep.min_ratio >= CONSTANT
    assert sum(k for _, k in rep.ratio_histogram) == rep.pair_count
    # an invalid ball is refused, never passed: without one of its cells
    # the ball has a cycle that nothing fills, and a ball whose recorded
    # distances disagree with its 1-skeleton is not the ball it claims
    holed = Complex(ball8.edges, ball8.cells[1:], ball8.nv, radius=ball8.radius, base=ball8.base, dist=ball8.dist)
    moved = Complex(ball8.edges, ball8.cells, ball8.nv, radius=ball8.radius, base=ball8.base, dist=[0] * ball8.nv)
    for bad, field in ((holed, "h1_trivial"), (moved, "distances_consistent")):
        with pytest.raises(HypothesisViolated, match=field):
            verify_linear_separation(bad, build_walls(bad), LAMBDA, region=region[:40])
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _verdict(3, elapsed, 300, f"{rep.pair_count} pairs, min ratio {rep.min_ratio} >= 1/12; invalid balls refused")


def test_criterion_4_negative_control():
    t0 = time.monotonic()
    ns = list(range(1, 9))
    c = build_example1(ns)
    ws = build_walls(c)
    for n in ns:
        a, e = c.labeled(f"a{n}"), c.labeled(f"e{n}")
        d = c.bfs_distances(a)[e]
        dw = wall_distance(ws, a, e).total
        assert d == 2 * n + 6
        assert dw == 6
        assert wall_distance(ws, a, e, via="components").total == 6
        ratio = Fraction(dw, d)
        assert (ratio < CONSTANT) == (n >= 34)
    rep = check_B6(c, LAMBDA)
    assert rep.b6_passed
    # the decay crosses the constant exactly at n = 34, checked as rationals
    for n in range(1, 60):
        assert (Fraction(6, 2 * n + 6) < CONSTANT) == (n >= 34)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _verdict(4, elapsed, 30, "d=2n+6, dw=6 for n=1..8; B(6) holds; ratio < 1/12 iff n >= 34")


def test_criterion_5_double_crossing_control():
    t0 = time.monotonic()
    c = build_example2(2, 14)
    ws = build_walls(c)
    p1, p2 = c.labeled("p'"), c.labeled("p''")
    ctx = geodesic_context(c, ws, p1, p2)
    from wallkit.separation import geodesic

    for seg in (("a'", "p'"), ("a''", "p''")):
        seg_edges = geodesic(c, c.labeled(seg[0]), c.labeled(seg[1]))
        for eid in seg_edges:
            wid = ws.wall_of_edge[eid]
            crossings = sum(1 for e in ctx.edge_seq if ws.wall_of_edge[e] == wid)
            assert crossings % 2 == 0
            from wallkit.walls import separates

            assert separates(ws, wid, p1, p2) is False
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    _verdict(5, elapsed, 5, "walls through p'a' cross the geodesic evenly and do not separate")


def test_criterion_6_density_principle_suite():
    t0 = time.monotonic()
    rng = random.Random(2024)
    densities = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]
    for trial in range(500):
        C = densities[trial % 3]
        intervals = []
        marked = set()
        for _ in range(rng.randint(1, 14)):
            a = rng.randint(0, 80)
            b = a + rng.randint(1, 18)
            intervals.append((a, b))
            need = -(-(C.numerator * (b - a)) // C.denominator)
            marked.update(rng.sample(range(a, b), need))
        rep = local_to_global_bound(marked, intervals, C)
        assert rep.holds and rep.split_holds, (trial, rep)
        u1, u2, cover = cover_split(intervals)
        union = {x for a, b in intervals for x in range(a, b)}
        cover_union = {x for a, b in cover for x in range(a, b)}
        assert cover_union == union
        assert set(u1) | set(u2) == set(cover)
        for fam in (u1, u2):
            fam = sorted(fam)
            assert all(fam[i][1] <= fam[i + 1][0] for i in range(len(fam) - 1))
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    _verdict(6, elapsed, 10, "500 planted-density instances: bound and split postconditions hold")


def test_criterion_7_word_problem_oracle_equivalence():
    t0 = time.monotonic()
    one = gen_example("tv", I={1}, k=7)
    m = DehnMachine(one)
    count = 0
    for w in iter_reduced_words(2, 8):
        assert is_trivial(w, m) == free_product_trivial(w, 7), tuple(w)
        count += 1
    assert count == 13121
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _verdict(7, elapsed, 120, f"{count} words of length <= 8 agree with the free-product oracle")


def _probe_edges(c, ws, pairs):
    """All (context, non-single-crossing edge) probes over the given pairs."""
    out = []
    for p, q in pairs:
        ctx = geodesic_context(c, ws, p, q)
        for eid in ctx.edge_seq:
            if eid not in ctx.single_crossing:
                out.append((ctx, eid))
    return out


def test_criterion_8_neighborhood_probes(ball8, ball8_walls):
    t0 = time.monotonic()
    # Part 1: the criterion-3 ball.  Only length-14 cells fit inside radius
    # 8 and opposite edges of one cell never share a geodesic, so the
    # non-single-crossing population here is provably empty; every edge
    # found (none) is probed, and the count is reported.
    region = _acceptance_region(ball8, ball8_walls, seed=8)[:120]
    pairs = [(p, q) for i, p in enumerate(region) for q in region[i + 1:]]
    ball_probes = _probe_edges(ball8, ball8_walls, pairs[:4000])
    for ctx, eid in ball_probes:
        ne = relator_neighborhood(eid, ctx)
        pr = neighborhood_probe(ne, ctx, LAMBDA)
        assert pr.far_ok and pr.near_ok
        dc = local_density_check(ne, ctx, LAMBDA)
        assert dc.holds
    # Part 2: conforming two-cell complexes with genuinely double-crossing
    # walls supply the required sample size.
    probes = 0
    for x in (2, 4, 6, 8, 10):
        for bump in (1, 3, 8, 15):
            half_r = 3 * x + bump
            c = build_example2(x, half_r)
            assert check_B6(c, LAMBDA).cprime_passed
            ws = build_walls(c)
            p1, p2 = c.labeled("p'"), c.labeled("p''")
            for ctx, eid in _probe_edges(c, ws, [(p1, p2)]):
                ne = relator_neighborhood(eid, ctx)
                assert ne.cell is not None and ne.second_cell is not None
                pr = neighborhood_probe(ne, ctx, LAMBDA)
                assert pr.applicable
                assert pr.subpath_length > pr.edge_to_far
                assert Fraction(pr.edge_to_far) > pr.far_bound
                assert Fraction(pr.edge_to_near) < pr.near_bound
                dc = local_density_check(ne, ctx, LAMBDA)
                assert dc.threshold == Fraction(1, 6)
                assert dc.holds
                probes += 1
    assert probes >= 100
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _verdict(
        8,
        elapsed,
        120,
        f"ball non-single-crossing edges: {len(ball_probes)} (all probed); "
        f"{probes} probes on conforming two-cell complexes hold exactly",
    )
