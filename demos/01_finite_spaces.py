"""Tour of finite spaces: opens, interiors, closures, regular opens.

Run: python3 demos/01_finite_spaces.py
"""

from regopen import Topology, canonical_open_masks, discrete, homeomorphic, indiscrete, sierpinski, x3

print("== The four standard fixtures ==")
for name, t in [
    ("discrete D3", discrete(3)),
    ("indiscrete I3", indiscrete(3)),
    ("Sierpinski S", sierpinski()),
    ("X3 (two open points + a shared boundary point)", x3()),
]:
    print(f"{name}: {t!r}")

t = x3()
print("\n== Operators on X3 ==")
for a in [{0}, {1}, {2}, {0, 2}, {0, 1}]:
    print(
        f"A={sorted(a)}: int={sorted(t.interior(a))} "
        f"cl={sorted(t.closure(a))} int(cl)={sorted(t.regularize(a))} "
        f"regular-open={t.is_regular_open(a)}"
    )

print("\nregular opens of X3:", [sorted(u) for u in t.regular_opens()])
print("({0,1} is open but not regular: its closure is everything)")

print("\n== Minimal neighborhoods (finite spaces are Alexandrov) ==")
for x in range(3):
    print(f"point {x}: least open around it = {sorted(t.minimal_neighborhood(x))}")

print("\n== Dense subsets and subspaces ==")
print("is {0,1} dense in X3?", t.is_dense({0, 1}))
sub, index_map = t.subspace({0, 1})
print(f"subspace on {{0,1}}: {sub!r} via re-indexing {index_map}")
print("that subspace is the discrete pair:", sub == discrete(2))

print("\n== Homeomorphism as a decision procedure ==")
flipped = Topology(2, [0b00, 0b10, 0b11])
print("S vs S-with-points-renamed:", homeomorphic(sierpinski(), flipped))
print("S vs discrete pair:", homeomorphic(sierpinski(), discrete(2)))
print("canonical open family of both S and its renaming:", canonical_open_masks(flipped))
