"""Regular-open algebras, lattice law checks, the explicit extra relation,
and the six R-lattice axioms."""

import itertools
import random
from collections import Counter

import pytest

from regopen import (
    EnumerationSpec,
    FiniteLattice,
    check_boolean_algebra,
    check_distributive,
    check_lattice_tables,
    check_r_lattice,
    discrete,
    enumerate_topologies,
    find_order_isomorphisms,
    ge_relation,
    indiscrete,
    regular_open_lattice,
    sierpinski,
    stone_space,
    transport_relation,
    wallman_disjunction,
    well_inside,
    x3,
)
from regopen import lattice as lattice_module
from regopen.enumeration import canonical_classes
from regopen.errors import NotALattice, NotBoolean, VerificationError
from regopen.lattice import AXIOM_NAMES, relation_rows, well_inside_rows
from regopen.topology import Topology

from oracles import (
    boolean_algebra_oracle,
    check_r_lattice_oracle,
    closure_oracle,
    interior_oracle,
    meet_compatible_oracle,
    opens_as_sets,
    wallman_disjunction_oracle,
    well_inside_oracle,
)

LS = regular_open_lattice(sierpinski())
LX3 = regular_open_lattice(x3())
LD2 = regular_open_lattice(discrete(2))


def diamond_m3() -> FiniteLattice:
    # bottom 0, incomparable middles 1,2,3, top 4: the classical
    # non-distributive (even non-modular-complement) five-element lattice
    return FiniteLattice.from_leq(
        5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]
    )


def pentagon_n5() -> FiniteLattice:
    # bottom 0 < 1 < 2 < top 4, and 3 beside the chain 1 < 2: the
    # non-modular five-element lattice
    return FiniteLattice.from_leq(
        5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)]
    )


def two_chain() -> FiniteLattice:
    return FiniteLattice.from_leq(2, [(0, 1)])


# -- construction ----------------------------------------------------------------


def test_regular_open_lattice_of_fixtures():
    assert LS.elements() == (frozenset(), frozenset({0, 1}))
    assert set(LX3.elements()) == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1, 2}),
    }
    assert LD2.m == 4


def test_join_is_regularized_union():
    i0 = LX3.index_of_mask[0b001]
    i1 = LX3.index_of_mask[0b010]
    assert LX3.element(LX3.join[i0][i1]) == frozenset({0, 1, 2})


def test_complement_is_interior_of_settheoretic_complement():
    i0 = LX3.index_of_mask[0b001]
    assert LX3.element(LX3.complement[i0]) == frozenset({1})


def test_atoms():
    assert {LX3.element(a) for a in LX3.atoms()} == {frozenset({0}), frozenset({1})}
    assert len(regular_open_lattice(discrete(3)).atoms()) == 3


def test_from_leq_rejects_non_lattices():
    with pytest.raises(NotALattice):
        # two maximal elements, no join
        FiniteLattice.from_leq(3, [(0, 1), (0, 2)])
    with pytest.raises(NotALattice):
        FiniteLattice.from_leq(2, [(0, 1), (1, 0)])


# -- structure checks --------------------------------------------------------------


def test_distributivity():
    assert check_distributive(LX3) == (True, None)
    assert check_distributive(two_chain()) == (True, None)
    ok, witness = check_distributive(diamond_m3())
    assert not ok and witness is not None
    a, b, c = witness
    l = diamond_m3()
    assert l.meet[a][l.join[b][c]] != l.join[l.meet[a][b]][l.meet[a][c]]


def test_boolean_checks_pass_on_fixtures():
    for lat in (LS, LX3, regular_open_lattice(discrete(3))):
        assert check_boolean_algebra(lat) == (True, None)
        assert check_lattice_tables(lat) == (True, None)


def test_boolean_check_reports_doctored_complement():
    lat = regular_open_lattice(discrete(2))
    lat.complement = tuple(lat.complement[0] for _ in range(lat.m))
    ok, witness = check_boolean_algebra(lat)
    assert not ok and witness is not None


def test_boolean_check_reports_meet_that_is_not_the_inf():
    lat = regular_open_lattice(discrete(2))
    rows = [list(row) for row in lat.meet]
    rows[1][1] = lat.bottom  # {0} & {0} is {0}, not the empty set
    lat.meet = tuple(map(tuple, rows))
    assert check_boolean_algebra(lat) == (False, ("meet-not-inf", 1, 1))


def test_boolean_checks_pass_on_every_lattice_up_to_four_points():
    for n in (1, 2, 3, 4):
        for t in enumerate_topologies(EnumerationSpec(n)):
            lat = regular_open_lattice(t)
            assert check_boolean_algebra(lat) == (True, None)
            assert boolean_algebra_oracle(lat) == (True, None)
            assert check_distributive(lat) == (True, None)
            assert check_lattice_tables(lat) == (True, None)


def _doctored(lat, rng: random.Random) -> str:
    """Change the top, one complement entry, one symmetric pair of join
    entries, or one bit of the order (with ``down`` recomputed); return which."""
    kind = rng.choice(("top", "complement", "join", "order"))
    i, j = rng.randrange(lat.m), rng.randrange(lat.m)
    if kind == "top":
        lat.top = rng.choice([k for k in range(lat.m) if k != lat.top])
    elif kind == "complement":
        comp = list(lat.complement)
        comp[i] = rng.choice([k for k in range(lat.m) if k != comp[i]])
        lat.complement = tuple(comp)
    elif kind == "join":
        rows = [list(row) for row in lat.join]
        rows[i][j] = rows[j][i] = rng.choice([k for k in range(lat.m) if k != rows[i][j]])
        lat.join = tuple(map(tuple, rows))
    else:
        lat.up = tuple(row ^ (1 << j if k == i else 0) for k, row in enumerate(lat.up))
        lat.down = tuple(
            sum(1 << k for k in range(lat.m) if lat.up[k] >> col & 1) for col in range(lat.m)
        )
    return kind


def test_boolean_check_rejects_whatever_the_law_scans_reject():
    # the atom-map test is never weaker than the pairwise oracle, the
    # distributivity scan or the table laws, and it rejects every doctoring
    rng = random.Random(14)
    spaces = [t for n in (1, 2, 3) for t in enumerate_topologies(EnumerationSpec(n))]
    seen, only_new = set(), set()
    for _ in range(10000):
        lat = regular_open_lattice(rng.choice(spaces))
        kind = _doctored(lat, rng)
        others = (boolean_algebra_oracle(lat), check_distributive(lat), check_lattice_tables(lat))
        ok, witness = check_boolean_algebra(lat)
        assert not ok and witness is not None, kind
        seen.add(kind)
        if all(other == (True, None) for other in others):
            only_new.add(kind)
    assert seen == {"top", "complement", "join", "order"}
    assert only_new == {"order"}


class _OrthoLattice(FiniteLattice):
    __slots__ = ("complement", "top")


def test_mo2_passes_the_pairwise_laws_but_is_not_boolean():
    # bottom 0, atoms a = 1, a' = 2, b = 3, b' = 4, top 5, with a' the
    # complement of a and b' that of b: an ortholattice that is not distributive
    mo2 = _OrthoLattice.from_leq(6, [(0, i) for i in range(1, 6)] + [(i, 5) for i in range(1, 5)])
    mo2.complement, mo2.top = (5, 2, 1, 4, 3, 0), 5
    assert boolean_algebra_oracle(mo2) == (True, None)
    assert check_lattice_tables(mo2) == (True, None)
    assert check_distributive(mo2)[0] is False
    assert check_boolean_algebra(mo2) == (False, ("atom-map-not-bijective", 6, 4))
    with pytest.raises(NotBoolean, match="atom-map-not-bijective"):
        stone_space(mo2)


def test_construction_refuses_an_operation_outside_the_regular_opens(monkeypatch):
    # the reg table the construction reads drops point two
    tables = Topology.operator_tables

    def drops_point_two(t):
        cl, interior, reg = tables(t)
        return cl, interior, [r & ~0b100 if r != t.full_mask else r for r in reg]

    monkeypatch.setattr(Topology, "operator_tables", drops_point_two)
    refused = 0
    for t in enumerate_topologies(EnumerationSpec(3)):
        try:
            regular_open_lattice(t)
        except VerificationError:
            refused += 1
    assert refused > 0


def test_wallman_disjunction():
    assert wallman_disjunction(regular_open_lattice(discrete(3))) == (True, None)
    assert wallman_disjunction(LX3) == (True, None)
    assert wallman_disjunction(two_chain()) == (True, None)


# -- the explicit relation -----------------------------------------------------------


def test_well_inside_on_discrete_equals_ge():
    assert well_inside(LD2) == ge_relation(LD2)


def test_well_inside_on_x3_frozen():
    # X is above every closure; every element is above cl(empty); nothing
    # else, because cl({0}) = {0,2} and cl({1}) = {1,2} stick out
    b = LX3.index_of_mask[0b000]
    a0 = LX3.index_of_mask[0b001]
    a1 = LX3.index_of_mask[0b010]
    top = LX3.index_of_mask[0b111]
    assert well_inside(LX3) == frozenset(
        {(b, b), (a0, b), (a1, b), (top, b), (top, a0), (top, a1), (top, top)}
    )
    assert (top, a0) in well_inside(LX3)
    assert (a1, a0) not in well_inside(LX3)


def test_top_bottom_always_well_inside():
    for n in (1, 2, 3):
        for t in enumerate_topologies(EnumerationSpec(n)):
            lat = regular_open_lattice(t)
            assert (lat.top, lat.bottom) in well_inside(lat)


def test_well_inside_matches_literal_closure_containment():
    for t in enumerate_topologies(EnumerationSpec(3)):
        lat = regular_open_lattice(t)
        rel = well_inside(lat)
        elems = lat.elements()
        for f in range(lat.m):
            for g in range(lat.m):
                literal = closure_oracle(t, elems[g]) <= elems[f]
                assert ((f, g) in rel) == literal


def _well_inside_oracle_spaces() -> list:
    # every space with n <= 4, a seeded sample of the 5-point ones, and the
    # two extremes on 6 points, with 64 elements and with 2
    five = list(enumerate_topologies(EnumerationSpec(5, allow_n5=True)))
    return [
        *(t for n in (1, 2, 3, 4) for t in enumerate_topologies(EnumerationSpec(n))),
        *random.Random(5).sample(five, 300),
        discrete(6),
        indiscrete(6),
    ]


def test_well_inside_rows_match_the_pairwise_scan():
    # the rows rlattice reads from a space's cl table, and the pairs of
    # well_inside, against the literal containment cl(U_g) <= U_f
    for t in _well_inside_oracle_spaces():
        lat = regular_open_lattice(t)
        expected = well_inside_oracle(t, lat)
        cl = t.closure_table()
        assert well_inside_rows(lat, [cl[u] for u in lat.payload_masks]) == relation_rows(lat, expected)[0]
        assert well_inside(lat) == expected


# -- R-lattice axioms ------------------------------------------------------------------


def test_powerset_with_ge_is_r_lattice():
    lat = regular_open_lattice(discrete(3))
    assert check_r_lattice(lat, ge_relation(lat)).passed


def test_discrete_well_inside_is_r_lattice():
    assert check_r_lattice(LD2, well_inside(LD2)).passed


def test_empty_relation_fails_existence_only():
    report = check_r_lattice(two_chain(), frozenset())
    failed = [a.name for a in report.axioms if not a.passed]
    assert failed == ["existence"]
    assert report["existence"].witness == (1,)


def test_axiom_witnesses_are_reported():
    # ge on a chain of three: 1 is not well inside itself once interpolation
    # needs a strictly intermediate element? ge satisfies all axioms here,
    # so doctor the relation to break upward monotonicity instead.
    lat = regular_open_lattice(discrete(2))
    rel = frozenset({(lat.bottom, lat.bottom), (lat.top, lat.bottom)}) | frozenset(
        {(a, lat.bottom) for a in lat.atoms()}
    )
    # remove the top pair to break axiom 2: atom <= top but (top, bottom)
    broken = frozenset(p for p in rel if p != (lat.top, lat.bottom))
    report = check_r_lattice(lat, broken)
    assert not report["upward_monotone"].passed


def test_relation_validation():
    with pytest.raises(ValueError):
        check_r_lattice(two_chain(), {(0, 5)})


# -- the bit-row axiom checks against the pair-of-pairs oracle ------------------------


def _up_closure(lat: FiniteLattice, rel: frozenset) -> frozenset:
    """The pairs (h, g) with (f, g) in rel and h >= f: axiom 2 holds."""
    return frozenset((h, g) for f, g in rel for h in range(lat.m) if lat.leq(f, h))


def _relations(lat: FiniteLattice, rng: random.Random) -> list[frozenset]:
    """ge, the empty relation, well-inside where the lattice has payloads, and
    seeded variants with their up-closures: each base minus one pair, random
    sub-relations of each base, and random sub-relations of all pairs."""
    bases = [ge_relation(lat), frozenset()]
    if lat.payload_masks is not None:
        bases.append(well_inside(lat))
    variants = []
    for base in bases:
        pairs = sorted(base)
        if pairs:
            dropped = rng.choice(pairs)
            variants.append(frozenset(p for p in pairs if p != dropped))
        for keep in (0.95, 0.7):
            variants.append(frozenset(p for p in pairs if rng.random() < keep))
    every_pair = [(f, g) for f in range(lat.m) for g in range(lat.m)]
    for keep in (0.9, 0.5):
        variants.append(frozenset(p for p in every_pair if rng.random() < keep))
    return bases + variants + [_up_closure(lat, rel) for rel in variants]


def _assert_matches_oracle(
    lat: FiniteLattice, rng: random.Random, outcomes: Counter | None = None
) -> set[str]:
    """Compare every relation's report, witnesses included; return the
    names of the axioms some relation failed, and count each relation's
    (upward_monotone, meet_compatible) verdicts in ``outcomes``."""
    assert wallman_disjunction(lat) == wallman_disjunction_oracle(lat)
    failed = set()
    for rel in _relations(lat, rng):
        report = check_r_lattice(lat, rel)
        assert report == check_r_lattice_oracle(lat, rel), (lat.m, sorted(rel))
        failed |= {a.name for a in report.axioms if not a.passed}
        if outcomes is not None:
            outcomes[report["upward_monotone"].passed, report["meet_compatible"].passed] += 1
    return failed


def _upset_space(n: int, rng: random.Random) -> Topology:
    # a random preorder on n points, closed transitively; its up-sets are the opens
    up = [1 << i for i in range(n)]
    for _ in range(rng.randint(0, 12)):
        i, j = rng.sample(range(n), 2)
        up[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    opens = [u for u in range(1 << n) if all(up[i] & ~u == 0 for i in range(n) if u >> i & 1)]
    return Topology(n, opens)


def test_r_lattice_matches_oracle_on_every_lattice_up_to_four_points():
    rng = random.Random(4)
    failed = set()
    outcomes = Counter()
    for n in (1, 2, 3, 4):
        for t in enumerate_topologies(EnumerationSpec(n)):
            failed |= _assert_matches_oracle(regular_open_lattice(t), rng, outcomes)
    assert failed == set(AXIOM_NAMES) - {"wallman_disjunction"}  # every lattice is Boolean
    # the minima decide where axiom 2 passed; where it failed, the scan
    # gives both verdicts of axiom 3, so every combination must be compared
    assert set(outcomes) == {(True, True), (True, False), (False, True), (False, False)}, outcomes


def test_r_lattice_matches_oracle_on_chains_and_open_set_lattices():
    # chains, and the lattices of all opens of the spaces on up to 3 points,
    # which are distributive but mostly not Boolean
    rng = random.Random(5)
    lattices = [
        FiniteLattice.from_leq(m, [(i, j) for i in range(m) for j in range(i + 1, m)])
        for m in range(1, 9)
    ]
    for n in (1, 2, 3):
        for t in enumerate_topologies(EnumerationSpec(n)):
            opens = t.open_masks
            inclusions = [
                (i, j) for i, a in enumerate(opens) for j, b in enumerate(opens) if a & ~b == 0
            ]
            lattices.append(FiniteLattice.from_leq(len(opens), inclusions))
    failed = set()
    for lat in lattices:
        failed |= _assert_matches_oracle(lat, rng)
    assert failed == set(AXIOM_NAMES)


def test_r_lattice_matches_oracle_on_seven_point_spaces():
    # spaces of the benchmark's lattices-n7 kind, one per (lattice size, open
    # count); lattices above 32 elements would take the oracle seconds
    rng = random.Random(7)
    sizes = set()
    failed = set()
    while len(sizes) < 12:
        lat = regular_open_lattice(_upset_space(7, rng))
        if lat.m <= 32 and (lat.m, len(lat.topology.open_masks)) not in sizes:
            failed |= _assert_matches_oracle(lat, rng)
            sizes.add((lat.m, len(lat.topology.open_masks)))
    assert {m for m, _ in sizes} == {2, 4, 8, 16, 32}
    assert failed == set(AXIOM_NAMES) - {"wallman_disjunction"}


def test_meet_compatibility_matches_oracle_on_64_element_lattices():
    # lattices-n7 spaces with 64 regular opens, too large for the six-axiom
    # oracle: axiom 3 alone, on ge, well-inside and each one's drop-one,
    # up-closed drop-one and keep-95% variants, witnesses included
    rng = random.Random(64)
    open_counts = set()
    verdicts = []
    while len(open_counts) < 2:
        lat = regular_open_lattice(_upset_space(7, rng))
        if lat.m != 64 or len(lat.topology.open_masks) in open_counts:
            continue
        open_counts.add(len(lat.topology.open_masks))
        for base in (ge_relation(lat), well_inside(lat)):
            pairs = sorted(base)
            cols = relation_rows(lat, base)[1]
            dropped = rng.choice(pairs)
            kept = frozenset(p for p in pairs if rng.random() < 0.95)
            # the up-closure restores a dropped pair unless it is the least of its column
            least = rng.choice([(f, g) for f, g in pairs if lat.down[f] & cols[g] == 1 << f])
            for rel in (base, base - {dropped}, _up_closure(lat, base - {least}), kept):
                axiom = check_r_lattice(lat, rel)["meet_compatible"]
                assert (axiom.passed, axiom.witness) == meet_compatible_oracle(lat, rel), sorted(rel)
                verdicts.append(axiom.passed)
    assert verdicts.count(True) >= 4 and verdicts.count(False) >= 4


def test_meet_row_scan_runs_only_where_the_minima_cannot_decide(monkeypatch):
    # ge on the 128-element algebra of discrete(7) passes axiom 2, so its
    # column minima settle axiom 3; a relation that is not up-closed fails
    # axiom 2 and needs the scan of the rows
    calls = []
    scan = lattice_module._meet_witness
    monkeypatch.setattr(lattice_module, "_meet_witness", lambda *args: calls.append(args) or scan(*args))
    lat = regular_open_lattice(discrete(7))
    assert check_r_lattice(lat, ge_relation(lat)).passed
    assert calls == []
    broken = ge_relation(LD2) - {(LD2.top, LD2.bottom)}
    report = check_r_lattice(LD2, broken)
    assert not report["upward_monotone"].passed and len(calls) == 1
    assert report == check_r_lattice_oracle(LD2, broken)


def test_r_lattice_matches_oracle_on_non_distributive_lattices():
    # M3 and N5: every sub-relation of ge that drops one or two pairs, and
    # the seeded variants, so meet compatibility fails at many witnesses
    # on lattices with no distributive law to lean on
    rng = random.Random(3)
    failed = set()
    for lat in (diamond_m3(), pentagon_n5()):
        failed |= _assert_matches_oracle(lat, rng)
        pairs = sorted(ge_relation(lat))
        witnesses = set()
        for i, j in itertools.combinations_with_replacement(range(len(pairs)), 2):
            rel = frozenset(pairs) - {pairs[i], pairs[j]}
            report = check_r_lattice(lat, rel)
            assert report == check_r_lattice_oracle(lat, rel), (lat.m, sorted(rel))
            witnesses.add(report["meet_compatible"].witness)
        assert len(witnesses) > 5
    assert "meet_compatible" in failed


# -- order isomorphism search -------------------------------------------------------------


def test_isomorphisms_between_four_element_algebras():
    isos = find_order_isomorphisms(LX3, LD2)
    assert len(isos) == 2  # identity on {bottom, top} with the atom swap
    for phi in isos:
        for i in range(LX3.m):
            for j in range(LX3.m):
                assert LX3.leq(i, j) == LD2.leq(phi[i], phi[j])


def test_no_isomorphism_across_sizes():
    assert find_order_isomorphisms(LS, LD2) == []


def test_self_isomorphisms_contain_identity_and_close_under_inverse():
    for lat in (LS, LX3, regular_open_lattice(discrete(3))):
        autos = find_order_isomorphisms(lat, lat)
        assert tuple(range(lat.m)) in autos
        for phi in autos:
            inverse = tuple(phi.index(i) for i in range(lat.m))
            assert inverse in autos


def _assert_isomorphisms_match_networkx(lattices) -> int:
    """Compare ``find_order_isomorphisms`` with networkx's matcher on the
    strict-order digraphs, over every same-size pair; return the pair count."""
    nx = pytest.importorskip("networkx")
    graphs = []
    for l in lattices:
        g = nx.DiGraph()
        g.add_nodes_from(range(l.m))
        g.add_edges_from((i, j) for i in range(l.m) for j in range(l.m) if i != j and l.leq(i, j))
        graphs.append(g)
    pairs = 0
    for l1, g1 in zip(lattices, graphs):
        for l2, g2 in zip(lattices, graphs):
            if l1.m != l2.m:
                continue
            pairs += 1
            matcher = nx.algorithms.isomorphism.DiGraphMatcher(g1, g2)
            expected = sorted(tuple(p[i] for i in range(l1.m)) for p in matcher.isomorphisms_iter())
            assert find_order_isomorphisms(l1, l2) == expected
    return pairs


def test_order_isomorphisms_match_networkx_on_class_lattices_up_to_four_points():
    lattices = [regular_open_lattice(t) for t in canonical_classes(4)]
    assert _assert_isomorphisms_match_networkx(lattices) == 834


def test_order_isomorphisms_match_networkx_on_non_boolean_lattices():
    chains = [
        FiniteLattice.from_leq(k, [(i, j) for i in range(k) for j in range(i, k)])
        for k in range(1, 6)
    ]
    open_set_lattices = []
    for t in enumerate_topologies(EnumerationSpec(3)):
        opens = list(enumerate(t.open_masks))
        inclusions = [(i, j) for i, a in opens for j, b in opens if a & ~b == 0]
        open_set_lattices.append(FiniteLattice.from_leq(len(opens), inclusions))
    lattices = chains + [diamond_m3(), pentagon_n5()] + open_set_lattices
    assert _assert_isomorphisms_match_networkx(lattices) > len(lattices)


def test_transport_relation():
    phi = find_order_isomorphisms(LX3, LD2)[0]
    moved = transport_relation(well_inside(LX3), phi)
    assert len(moved) == len(well_inside(LX3))
    assert moved != well_inside(LD2)  # the gallery's diagnosis, in miniature


# -- every enumerated R(X) is a distributive Boolean algebra -------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_all_regular_open_lattices_boolean(n):
    for t in enumerate_topologies(EnumerationSpec(n)):
        lat = regular_open_lattice(t)
        assert check_boolean_algebra(lat) == (True, None)
        assert check_distributive(lat) == (True, None)
        assert check_lattice_tables(lat) == (True, None)
        # elements really are the regular opens, independently recomputed
        regs = {
            a
            for a in opens_as_sets(t)
            if interior_oracle(t, closure_oracle(t, a)) == a
        }
        assert set(lat.elements()) == regs
