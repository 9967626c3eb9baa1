"""The linear separation harness: wall metric vs path metric.

On complexes satisfying the strict 1/6 piece condition the number of walls
separating two vertices is at least (1-6L+4L^2)/(2-4L) times their path
distance (L the piece ratio bound); the harness measures both metrics over
a region and reports exact rational ratios.
"""

from fractions import Fraction

from wallkit import (
    DehnMachine,
    build_cayley_ball,
    build_example2,
    build_walls,
    gen_example,
    report_to_csv,
    separation_constant,
    verify_linear_separation,
)

print("separation constant at 1/6:", separation_constant(Fraction(1, 6)))

# A ball of the two-relator power family: every wall here is an opposite
# pair inside one 14-cycle, geodesics never cross a wall twice, and the two
# metrics agree on the nose.
p = gen_example("tv", I={1, 2}, k=7)
ball = build_cayley_ball(p, DehnMachine(p), 6)
ws = build_walls(ball)
rep = verify_linear_separation(ball, ws, Fraction(1, 6), region=range(0, ball.nv, 23))
print(f"ball sweep: {rep.pair_count} pairs, min ratio {rep.min_ratio}, passed {rep.passed}")

# A two-cell complex with a short shared segment: double-crossing walls
# push some ratios below 1 but never below the constant.
c = build_example2(2, 14)
wsc = build_walls(c)
rep2 = verify_linear_separation(c, wsc, Fraction(1, 6), region=range(c.nv))
print(f"two-cell complex: {rep2.pair_count} pairs, min ratio {rep2.min_ratio}, passed {rep2.passed}")

print("\nfirst CSV rows:")
for line in report_to_csv(rep2).splitlines()[:6]:
    print(" ", line)
