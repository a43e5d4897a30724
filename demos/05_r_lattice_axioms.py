"""R-lattices: a distributive lattice plus an EXPLICIT extra relation.

The same lattice can carry different admissible relations, so the relation
must be part of the data. The topological instantiation pairs (f, g) when
the open of f contains the closure of the open of g ("well inside").
check_r_lattice reads a relation as bitmask rows (bit g of rows[f] set when
(f, g) is in it); relation_rows and relation_pairs convert to and from pairs.

Run: python3 demos/05_r_lattice_axioms.py
"""

from regopen import (
    FiniteLattice,
    check_r_lattice,
    discrete,
    find_order_isomorphisms,
    ge_relation,
    regular_open_lattice,
    transport_relation,
    well_inside,
    x3,
)
from regopen.lattice import relation_pairs, relation_rows

p3 = regular_open_lattice(discrete(3))
print("powerset of 3 points with the relation taken as >=:")
report = check_r_lattice(p3, ge_relation(p3))
for ax in report.axioms:
    print(f"  {ax.name:20s} {'pass' if ax.passed else 'FAIL ' + str(ax.witness)}")

chain = FiniteLattice.from_leq(2, [(0, 1)])
print("\ntwo-element chain with the EMPTY relation:")
report = check_r_lattice(chain, relation_rows(chain, frozenset()))
for ax in report.axioms:
    print(f"  {ax.name:20s} {'pass' if ax.passed else 'FAIL, witness ' + str(ax.witness)}")
print("(only the existence axiom needs the relation to be inhabited)")

lx3, ld2 = regular_open_lattice(x3()), regular_open_lattice(discrete(2))
r_x3, r_d2 = well_inside(lx3), well_inside(ld2)
print("\nwell-inside relations on the two isomorphic 4-element algebras:")
print(f"  from X3:            {len(r_x3)} pairs {sorted(r_x3)}")
print(f"  from discrete pair: {len(r_d2)} pairs {sorted(r_d2)}")
phi = find_order_isomorphisms(lx3, ld2)[0]
moved = relation_pairs(transport_relation(relation_rows(lx3, r_x3), phi))
print(
    "transporting the X3 relation through the lattice isomorphism gives"
    f" {len(moved)} pairs != {len(r_d2)}:"
    " same lattice, different relation."
)
print("\nthe discrete relation (= the order) satisfies all six axioms:",
      check_r_lattice(ld2, relation_rows(ld2, r_d2)).passed)
x3_report = check_r_lattice(lx3, relation_rows(lx3, r_x3))
failed = [ax.name for ax in x3_report.axioms if not ax.passed]
print("the X3 relation fails", failed, "at element",
      x3_report['existence'].witness, "= the atom {0}:")
print("no nonzero regular open has its closure inside {0}, because")
print("cl({0}) = {0,2} already escapes. The axioms single out the relations")
print("that arise from opens with well-behaved (compact-like) closures.")
