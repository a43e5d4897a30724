"""The regular-open lattice does not determine the space: the gallery of all
non-homeomorphic pairs on up to 3 points with order-isomorphic lattices.

For some pairs even the induced well-inside relations differ under every
lattice isomorphism, so no extra order-theoretic data on the bare lattice
could tell the spaces apart -- the relation must be supplied explicitly.

Run: python3 demos/06_counterexample_gallery.py
"""

from regopen import counterexample_search, regular_open_lattice
from regopen.lattice import relation_pairs

pairs = counterexample_search(3)
print(f"{len(pairs)} pairs of R-isomorphic, non-homeomorphic spaces (n <= 3)\n")

by_size = {}
for p in pairs:
    by_size.setdefault(regular_open_lattice(p.t1).m, []).append(p)
for size, group in sorted(by_size.items()):
    print(f"lattice size {size}: {len(group)} pairs")

print("\nthe smallest example: a single point versus the Sierpinski space,")
print("both with the two-element lattice {empty, everything}.\n")

print("pairs whose induced well-inside relations differ under the reported iso:")
for p in pairs:
    if not p.same_under_reported_iso:
        every = "under every iso" if not p.same_under_some_iso else "but some iso matches them"
        print(f"  {p.t1!r}")
        print(f"  {p.t2!r}")
        n1, n2 = len(relation_pairs(p.rel1)), len(relation_pairs(p.rel2))
        print(f"    relations have {n1} vs {n2} pairs, differ {every}\n")
