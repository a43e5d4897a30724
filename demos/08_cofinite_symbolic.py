"""The cofinite topology on an infinite set, computed symbolically: every
nonempty open is dense, so the regular opens collapse to {empty, everything}.

The ground set is never materialized -- sets are a finite support plus a
finite/cofinite flag -- so the identical engine covers the cocountable
topology on an uncountable set (read the support as the countable
exceptional set).

Run: python3 demos/08_cofinite_symbolic.py
"""

import sys

from regopen import indiscrete, regular_open_lattice
from regopen.cofinite import (
    FULL,
    cofinite,
    complement,
    finite,
    intersect,
    is_dense,
    regular_opens,
    union,
)

print("== symbolic set algebra ==")
a, b = cofinite({1, 2}), cofinite({2, 3})
print(f"{a!r} & {b!r} = {intersect(a, b)!r}")
c = finite({1})
print(f"{c!r} | {complement(c)!r} = {union(c, complement(c))!r}")

print("\n== every nonempty open is dense ==")
for s in (FULL, cofinite({0}), cofinite(range(4))):
    print(f"  {s!r}: dense = {is_dense(s)}")

print("\n== hence only two regular opens ==")
family, traces = regular_opens()
for tr in traces:
    verdict = "regular" if tr.regular else "regularizes to the full set"
    print(f"  {tr.queried!r}: {verdict}")
print(f"family: {family[0]!r}, {family[1]!r}")

print("\nthe same two-element lattice as a 2-point indiscrete space,")
print("though the spaces could hardly be more different:")
print("  R(indiscrete pair) =", [sorted(u) for u in regular_open_lattice(indiscrete(2)).elements()])

print("\n== union and intersection, checked against their definitions ==")
# Each pair gives different results under union and intersection, so the
# check fails if either operation is wrong, or if the two are swapped.
f, g = finite({1, 2}), finite({2, 3})
p, q = cofinite({1, 2}), cofinite({2, 3})
cases = [
    ("|", union, f, g, finite({1, 2, 3})),
    ("&", intersect, f, g, finite({2})),
    ("|", union, f, q, cofinite({3})),
    ("&", intersect, f, q, finite({1})),
    ("|", union, p, q, cofinite({2})),
    ("&", intersect, p, q, cofinite({1, 2, 3})),
]
for symbol, op, x, y, want in cases:
    got = op(x, y)
    print(f"  {x!r} {symbol} {y!r} = {got!r}")
    if got != want:
        sys.exit(f"{x!r} {symbol} {y!r} should be {want!r}")
print(f"all {len(cases)} results as defined")
