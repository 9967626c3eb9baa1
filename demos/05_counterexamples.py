"""Two counterexample complexes showing where linear separation breaks.

The theta-graph chain satisfies the 3-piece B(6) bound but its wall metric
stalls at 6 while path distances grow, so no linear lower bound exists.
The two-cell complex shows walls double-crossing a geodesic: edges whose
walls fail to separate the endpoints can sit far from any separating edge.
"""

from fractions import Fraction

from wallkit import (
    build_example1,
    build_example2,
    build_walls,
    check_B6,
    geodesic_context,
    separates,
    wall_distance,
)

ns = list(range(1, 9))
c = build_example1(ns)
ws = build_walls(c)
rep = check_B6(c, Fraction(1, 6))
print(f"theta chain: B(6) {rep.b6_passed}, strict 1/6 piece bound {rep.cprime_passed}")
print("n  d(a_n,e_n)  dw(a_n,e_n)  ratio")
for n in ns:
    a, e = c.labeled(f"a{n}"), c.labeled(f"e{n}")
    d = c.bfs_distances(a)[e]
    dw = wall_distance(ws, a, e).total
    print(f"{n}  {d:10} {dw:12}  {Fraction(dw, d)}")
print("ratio drops below 1/12 once 6/(2n+6) < 1/12, i.e. from n = 34 on")

print("\ntwo-cell complex, shared segment of length 2:")
c2 = build_example2(2, 14)
ws2 = build_walls(c2)
p1, p2 = c2.labeled("p'"), c2.labeled("p''")
ctx = geodesic_context(c2, ws2, p1, p2)
print(f"geodesic p'-p'' has {len(ctx.edge_seq)} edges,"
      f" {len(ctx.single_crossing)} with separating walls")
for eid in ctx.edge_seq:
    wid = ws2.wall_of_edge[eid]
    if ctx.crossings[wid] > 1:
        print(f"edge {eid}: wall {wid} crosses the geodesic {ctx.crossings[wid]} times;"
              f" separates p' from p''? {separates(ws2, wid, p1, p2)}")
