"""A dense subspace has the same regular-open lattice as its ambient space:
restriction U -> U & Y is an order isomorphism with inverse V -> int(cl(V)).

Run: python3 demos/03_dense_subspace_transfer.py
"""

from regopen import (
    DenseEmbedding,
    EnumerationSpec,
    discrete,
    enumerate_dense_subsets,
    enumerate_topologies,
    restriction_isomorphism,
    separating_witness,
    x3,
)

t = x3()
emb = DenseEmbedding(t, {0, 1})
print("ambient: X3;  dense subset {0,1};  subspace = discrete pair")

witness = restriction_isomorphism(emb)
up, down = witness.source, witness.target

print("\nrestriction and extension, element by element:")
for i, u in enumerate(up.elements()):
    back = up.element(witness.backward[witness.forward[i]])
    print(f"  {sorted(u)} -> {sorted(witness.apply(u))} -> back to {sorted(back)}")

print("\nverified: the two maps are mutually inverse order isomorphisms")
print(f"R(X3) has {up.m} elements, R(subspace) has {down.m}")

print("\nseparating witnesses (U not inside V yields regular W <= U disjoint from V):")
d3 = discrete(3)
w = separating_witness(d3, {0, 1}, {1, 2})
print(f"  discrete: U={{0,1}}, V={{1,2}} -> W={sorted(w)}")
w = separating_witness(t, {0}, {1})
print(f"  X3:       U={{0}},  V={{1}}  -> W={sorted(w)} (cl({{1}}) = {{1,2}})")

print("\nexhaustive check over every space on up to 3 points and every dense subset:")
checked = 0
for n in (1, 2, 3):
    for space in enumerate_topologies(EnumerationSpec(n)):
        for y in enumerate_dense_subsets(space):
            restriction_isomorphism(DenseEmbedding(space, y))  # raises on failure
            checked += 1
print(f"  {checked} dense embeddings verified, no exceptions")
