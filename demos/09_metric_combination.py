"""Combining two metrics on identified point sets by taking the pointwise
maximum, with every axiom checked in exact rational arithmetic.

Run: python3 demos/09_metric_combination.py
"""

import random
import sys
from fractions import Fraction

from regopen import FiniteMetric, combine_metric, dominates

dx = FiniteMetric([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
dy = FiniteMetric(
    [
        [0, Fraction(3, 2), 1],
        [Fraction(3, 2), 0, 1],
        [1, 1, 0],
    ]
)

dz = combine_metric(dx, dy, [0, 1, 2])
print("pointwise max of the uniform metric and a stretched one:")
for i in range(3):
    print("  ", [str(dz(i, j)) for j in range(3)])
print("dominates the first factor entrywise:", dominates(dz, dx))

print("\nunder a relabeling tau the second factor is pulled back first:")
dz2 = combine_metric(dx, dy, {0: 1, 1: 2, 2: 0})
print("  d(0,1) = max(dx(0,1), dy(1,2)) =", dz2(0, 1))

print("\nexact rationals, no tolerances:")
tiny = FiniteMetric([[0, Fraction(1, 3)], [Fraction(1, 3), 0]])
print("  combining 1/3 with itself stays exactly 1/3:", combine_metric(tiny, tiny, [0, 1])(0, 1))

print("\n1000 random combinations, axioms re-scanned each time by the constructor:")
rnd = random.Random(1)


def random_metric() -> FiniteMetric:
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            rows[i][j] = rows[j][i] = 1 + Fraction(rnd.randint(0, 16), 16)
    return FiniteMetric(rows)


for _ in range(1000):
    tau = list(range(4))
    rnd.shuffle(tau)
    mx, my = random_metric(), random_metric()
    combined = combine_metric(mx, my, tau)
    for i in range(4):
        for j in range(4):
            want = max(mx(i, j), my(tau[i], tau[j]))
            if combined(i, j) != want:
                sys.exit(f"d({i},{j}) = {combined(i, j)} should be max(dx, dy . tau) = {want}")
print("all passed")
