"""Cayley balls and their wall systems.

The ball builder enumerates shortlex normal forms out to a radius, attaches
every relator cycle that fits, and the wall system pairs opposite edges of
each cell and chains the pairs across cells.
"""

from collections import Counter

from wallkit import (
    DehnMachine,
    build_cayley_ball,
    build_walls,
    dump_walls,
    gen_example,
    hypergraph_of,
    two_sidedness_report,
    validity_summary,
    wall_sides,
)

p = gen_example("tv", I={1}, k=7)
m = DehnMachine(p)
ball = build_cayley_ball(p, m, 7)
print(f"radius-7 ball: {ball.nv} vertices, {len(ball.edges)} edges, {len(ball.cells)} cells")
print("validity:", validity_summary(ball))

ws = build_walls(ball)
print("wall sizes:", dict(Counter(len(e) for e in ws.walls.values())))

# Every wall two-sides the ball and every hypergraph is a tree.
sides = two_sidedness_report(ws)
print("two-sided walls:", sum(s.two_sided for s in sides.values()), "of", len(sides))
print("tree hypergraphs:", sum(hypergraph_of(ws, w).is_tree for w in ws.wall_ids()), "of", len(ws.walls))

# Look at one opposite-pair wall in detail.
wid = next(w for w in ws.wall_ids() if len(ws.walls[w]) == 2)
print(f"\nwall {wid}: edges {ws.walls[wid]}, sides of sizes",
      sorted(len(s) for s in wall_sides(ws, wid)))
print(dump_walls(ws, [wid]))
