"""Finite lattices, the regular-open Boolean algebra of a space, and the
R-lattice axioms with an explicit extra relation.

The extra relation (written ``>>`` in the literature and called
``well_inside`` here, after its topological reading "U contains the closure
of V") is always explicit data: a frozenset of ordered element-index pairs.
It is never inferred from the lattice order, because the whole point of the
axioms is that the same order can carry different admissible relations.

Every axiom verdict is exact, and a failure reports the lexicographically
first witness. The checks run over bitmask rows. Two of them, meet
compatibility and the relative complement, are decided by lattice lemmas
(see ``check_r_lattice``); their rows are scanned only to name a witness or
where a lemma's hypothesis fails. For meet compatibility that scan is a
plain walk over every two pairs of the relation, O(|rel|^2) steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import IndexOutOfRange, NotALattice, VerificationError
from .topology import OperatorTables, PointSet, Topology, iter_bits, set_of

PairRelation = frozenset[tuple[int, int]]


def _transpose(up: Sequence[int]) -> list[int]:
    """The square bit matrix ``up`` transposed: bit i of row j is bit j of
    ``up[i]``. It visits each set bit once, not every (i, j)."""
    down = [0] * len(up)
    for i, row in enumerate(up):
        for j in iter_bits(row):
            down[j] |= 1 << i
    return down


class FiniteLattice:
    """Indexed finite lattice: order matrix plus meet/join tables.

    ``up[i]`` and ``down[i]`` are bitmasks over element indices (bit j of
    ``up[i]`` set iff i <= j). Meet and join are the order-theoretic inf and
    sup, computed and cross-checked against the order at construction.
    Elements may carry point-set payloads (used when the lattice arises from
    a topology); payload-free lattices support every order-theoretic check.
    """

    __slots__ = ("m", "up", "down", "meet", "join", "bottom", "payload_masks")

    def __init__(
        self,
        up: Sequence[int],
        meet: Sequence[Sequence[int]],
        join: Sequence[Sequence[int]],
        bottom: int,
        payload_masks: tuple[int, ...] | None = None,
    ):
        self.m = len(up)
        self.up = tuple(up)
        self.down = tuple(_transpose(up))
        self.meet = tuple(tuple(row) for row in meet)
        self.join = tuple(tuple(row) for row in join)
        self.bottom = bottom
        self.payload_masks = payload_masks

    @classmethod
    def from_leq(
        cls,
        m: int,
        leq_pairs: Iterable[tuple[int, int]],
        payload_masks: Sequence[int] | None = None,
    ) -> "FiniteLattice":
        """Build from an explicit order relation, validating lattice-hood.

        ``leq_pairs`` lists the ordered pairs (i, j) with i <= j; reflexive
        pairs may be omitted. Raises NotALattice if the relation is not a
        partial order or some pair lacks an inf or sup.
        """
        up = [1 << i for i in range(m)]
        for i, j in leq_pairs:
            if not (0 <= i < m and 0 <= j < m):
                raise NotALattice(f"element index out of range in pair ({i}, {j})")
            up[i] |= 1 << j
        # partial order: antisymmetry and transitivity
        for i in range(m):
            for j in range(m):
                if i != j and up[i] >> j & 1 and up[j] >> i & 1:
                    raise NotALattice(f"antisymmetry fails on ({i}, {j})")
        for i in range(m):
            for j in range(m):
                if up[i] >> j & 1 and up[j] & ~up[i]:
                    raise NotALattice(f"transitivity fails above ({i}, {j})")
        down = _transpose(up)

        def inf(i: int, j: int) -> int:
            common = down[i] & down[j]
            for k in range(m):
                if common >> k & 1 and down[k] == common:
                    return k
            raise NotALattice(f"pair ({i}, {j}) has no greatest lower bound")

        def sup(i: int, j: int) -> int:
            common = up[i] & up[j]
            for k in range(m):
                if common >> k & 1 and up[k] == common:
                    return k
            raise NotALattice(f"pair ({i}, {j}) has no least upper bound")

        meet = [[inf(i, j) for j in range(m)] for i in range(m)]
        join = [[sup(i, j) for j in range(m)] for i in range(m)]
        bottoms = [i for i in range(m) if up[i].bit_count() == m]
        if len(bottoms) != 1:
            raise NotALattice("lattice must have a unique least element")
        return cls(
            up,
            meet,
            join,
            bottoms[0],
            tuple(payload_masks) if payload_masks is not None else None,
        )

    # -- basic queries -------------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def atoms(self) -> tuple[int, ...]:
        """Minimal nonzero elements."""
        bot = self.bottom
        out = []
        for e in range(self.m):
            if e == bot:
                continue
            below = self.down[e] & ~(1 << e) & ~(1 << bot)
            if below == 0:
                out.append(e)
        return tuple(out)

    def covers(self) -> list[tuple[int, int]]:
        """Covering pairs (i, j): i < j with nothing strictly between."""
        out = []
        for i in range(self.m):
            for j in range(self.m):
                if i != j and self.leq(i, j):
                    between = self.up[i] & self.down[j] & ~(1 << i) & ~(1 << j)
                    if between == 0:
                        out.append((i, j))
        return out

    def __repr__(self):
        return f"{type(self).__name__}(m={self.m})"


def check_lattice_tables(l: FiniteLattice) -> tuple[bool, tuple | None]:
    """Exhaustively confirm meet/join are the inf/sup of the stored order and
    satisfy commutativity, associativity and absorption. Witness on failure."""
    ok, witness = check_inf_sup(l)
    if not ok:
        return ok, witness
    for i in range(l.m):
        for j in range(l.m):
            if l.meet[i][j] != l.meet[j][i]:
                return False, ("meet-commutativity", i, j)
            if l.join[i][j] != l.join[j][i]:
                return False, ("join-commutativity", i, j)
            if l.join[i][l.meet[i][j]] != i:
                return False, ("absorption", i, j)
            if l.meet[i][l.join[i][j]] != i:
                return False, ("absorption-dual", i, j)
    for i in range(l.m):
        for j in range(l.m):
            for k in range(l.m):
                if l.meet[l.meet[i][j]][k] != l.meet[i][l.meet[j][k]]:
                    return False, ("meet-associativity", i, j, k)
                if l.join[l.join[i][j]][k] != l.join[i][l.join[j][k]]:
                    return False, ("join-associativity", i, j, k)
    return True, None


def check_inf_sup(l: FiniteLattice) -> tuple[bool, tuple | None]:
    """Meet is the inf and join the sup of the stored order, on every pair."""
    down, up, meet, join = l.down, l.up, l.meet, l.join
    for i in range(l.m):
        for j in range(l.m):
            if down[meet[i][j]] != down[i] & down[j]:
                return False, ("meet-not-inf", i, j)
            if up[join[i][j]] != up[i] & up[j]:
                return False, ("join-not-sup", i, j)
    return True, None


def _atom_sets(l: FiniteLattice) -> tuple[list[int], tuple | None]:
    """Each element's atoms as a bitmask, bit p for ``l.atoms()[p]``, and
    None if that map is a bijection onto the 2^k masks carrying each
    ``l.up[u]`` onto the supersets of u's mask, else a witness."""
    atoms = l.atoms()
    masks = [sum(1 << p for p, a in enumerate(atoms) if l.down[u] >> a & 1) for u in range(l.m)]
    index = {mask: u for u, mask in enumerate(masks)}
    if len(index) != l.m or l.m != 1 << len(atoms):
        return masks, ("atom-map-not-bijective", l.m, len(atoms))
    for u, mask in enumerate(masks):
        # walk the supersets of u's mask: 3^k steps over all u, not m^2
        rest = l.m - 1 ^ mask
        sub, above = rest, 1 << u
        while sub:
            above |= 1 << index[mask | sub]
            sub = sub - 1 & rest
        if above != l.up[u]:
            return masks, ("atom-map-not-monotone", u, _lowest(above ^ l.up[u]))
    return masks, None


class RegularOpenLattice(FiniteLattice):
    """The Boolean algebra of regular opens of a finite space.

    Elements are exactly the regular opens, ordered by inclusion. Meet is
    intersection; join of U and V is interior(closure(U | V)); the complement
    of U is interior(full - U). Construction enumerates the regular opens of
    the source topology from its operator tables and verifies all Boolean
    laws. A verify run builds one lattice per regular-open family this way;
    the later spaces of the family share its tables (``_shared``, see
    ``suites.SpaceContext``).
    """

    __slots__ = ("topology", "complement", "top", "index_of_mask")

    def __init__(self, topology: Topology):
        cl, interior, reg = topology.operator_tables()
        masks = tuple([m for m in topology.open_masks if reg[m] == m])
        index = {mask: i for i, mask in enumerate(masks)}
        up = [
            sum(1 << j for j, b in enumerate(masks) if a & b == a)
            for a in masks
        ]
        # cl(A | B) = cl(A) | cl(B), so each join is one interior of two
        # closures taken once per regular open.
        closures = [cl[a] for a in masks]
        try:
            meet = [[index[a & b] for b in masks] for a in masks]
            join = [[index[interior[ca | cb]] for cb in closures] for ca in closures]
            comp = tuple([index[interior[topology.full_mask ^ a]] for a in masks])
        except KeyError as exc:
            raise VerificationError(
                "a meet, join or complement is not a regular open", sorted(set_of(exc.args[0]))
            ) from None
        super().__init__(up, meet, join, index[0], tuple(masks))
        self.topology = topology
        self.complement = comp
        self.top = index[topology.full_mask]
        self.index_of_mask = index
        ok, witness = check_boolean_algebra(self)
        if not ok:
            raise VerificationError("Boolean law fails", witness)

    def _shared(self, topology: Topology | None) -> "RegularOpenLattice":
        """A lattice of ``topology`` sharing every table of this one, for a
        space with the same regular opens whose operator tables give the
        same join and complement (``_same_operations``); with None, the
        record of a family, which holds no space."""
        lat = RegularOpenLattice.__new__(RegularOpenLattice)
        lat.m, lat.payload_masks, lat.index_of_mask = self.m, self.payload_masks, self.index_of_mask
        lat.up, lat.down, lat.meet, lat.join = self.up, self.down, self.meet, self.join
        lat.complement, lat.top, lat.bottom = self.complement, self.top, self.bottom
        lat.topology = topology
        return lat

    def element(self, i: int) -> PointSet:
        return set_of(self.payload_masks[i])

    def elements(self) -> tuple[PointSet, ...]:
        return tuple(set_of(mask) for mask in self.payload_masks)


def regular_open_lattice(t: Topology) -> RegularOpenLattice:
    """The regular-open lattice of ``t``: ``RegularOpenLattice(t)``."""
    return RegularOpenLattice(t)


def _same_operations(record: RegularOpenLattice, full: int, tables: OperatorTables) -> bool:
    """Whether ``tables`` give the regular opens of ``record`` its
    complement and join: int(full - U) and int(cl U | cl V), as indices,
    None for a mask outside the family."""
    cl, interior, _ = tables
    masks, index = record.payload_masks, record.index_of_mask.get
    if record.complement != tuple([index(interior[full ^ a]) for a in masks]):
        return False
    closures = [cl[a] for a in masks]
    return all(
        row == tuple([index(interior[ca | cb]) for cb in closures])
        for ca, row in zip(closures, record.join)
    )


# -- structure checks ---------------------------------------------------------


def check_distributive(l: FiniteLattice) -> tuple[bool, tuple | None]:
    """Full triple scan of a & (b | c) == (a & b) | (a & c)."""
    for a in range(l.m):
        for b in range(l.m):
            for c in range(l.m):
                if l.meet[a][l.join[b][c]] != l.join[l.meet[a][b]][l.meet[a][c]]:
                    return False, (a, b, c)
    return True, None


def check_boolean_algebra(l: RegularOpenLattice) -> tuple[bool, tuple | None]:
    """Meet and join are the inf and sup of the order, and ``l`` is Boolean:
    the map from each element to the atoms below it is an order isomorphism
    onto the powerset of the atoms (Stone, Trans. AMS 40, 1936) that sends
    ``l.top`` to every atom and ``l.complement[i]`` to the atoms not below
    i. The operations are then those of the powerset, so distributivity,
    involution, the complement laws and De Morgan need no scan of their own."""
    ok, witness = check_inf_sup(l)
    if not ok:
        return ok, witness
    masks, witness = _atom_sets(l)
    if witness is not None:
        return False, witness
    full = l.m - 1
    if masks[l.top] != full:
        return False, ("top", l.top)
    for i, c in enumerate(l.complement):
        if masks[c] != masks[i] ^ full:
            return False, ("complement", i)
    return True, None


def _disjoint_rows(l: FiniteLattice) -> list[int]:
    """Row g is the bitmask of the h with g & h = bottom."""
    bot = l.bottom
    return [sum(1 << h for h, k in enumerate(row) if k == bot) for row in l.meet]


def wallman_disjunction(l: FiniteLattice) -> tuple[bool, tuple | None]:
    """For every a != b, some h meets exactly one of them at bottom.

    Read as exclusive-witness existence: there is h with a & h = 0 and
    b & h != 0, or the other way round. No such h exists exactly when a and
    b have the same row of disjoint elements, so the lexicographically first
    witness is the first two indices of some shared row.
    """
    return _wallman_on_rows(_disjoint_rows(l))


def _wallman_on_rows(disjoint: list[int]) -> tuple[bool, tuple | None]:
    """``wallman_disjunction`` on the rows of ``_disjoint_rows``."""
    sharing: dict[int, list[int]] = {}
    for a, row in enumerate(disjoint):
        sharing.setdefault(row, []).append(a)
    clashes = [tuple(ixs[:2]) for ixs in sharing.values() if len(ixs) > 1]
    if clashes:
        return False, min(clashes)
    return True, None


# -- the explicit extra relation ----------------------------------------------


def ge_relation(l: FiniteLattice) -> PairRelation:
    """The relation 'f >= g', the default choice on Boolean lattices."""
    return frozenset((f, g) for f, row in enumerate(l.down) for g in iter_bits(row))


def well_inside(l: RegularOpenLattice) -> PairRelation:
    """Pairs (f, g) whose opens satisfy: U_f contains the closure of U_g.

    This is the relation the source space induces on its regular-open
    lattice; distinct spaces with isomorphic lattices can induce different
    relations, which is exactly what the counterexample gallery exhibits.
    """
    closure = l.topology.closure_mask
    closures = [closure(mask) for mask in l.payload_masks]
    return frozenset(
        [(f, g) for f, u in enumerate(l.payload_masks) for g, c in enumerate(closures) if c | u == u]
    )


def well_inside_rows(l: RegularOpenLattice, closures: Sequence[int]) -> list[int]:
    """``well_inside`` as bitmask rows: ``rows[f]`` holds the g whose
    closure, ``closures[g]``, lies inside U_f.

    It tests each of the m^2 pairs with one union and one compare, which
    for the lattices of up to 32 elements that a run at n <= 5 meets is
    cheaper than a route through the n points.
    """
    rows = []
    for u in l.payload_masks:
        row, bit = 0, 1
        for c in closures:
            if c | u == u:
                row |= bit
            bit <<= 1
        rows.append(row)
    return rows


def relation_rows(
    l: FiniteLattice, rel: Iterable[tuple[int, int]]
) -> tuple[list[int], list[int]]:
    """Bitmask rows of a pair relation: ``rows[f]`` holds the g with
    (f, g) in rel and ``cols[g]`` the f with (f, g) in rel. IndexOutOfRange
    names a pair outside the lattice."""
    rows = [0] * l.m
    cols = [0] * l.m
    for f, g in frozenset(rel):
        if not (0 <= f < l.m and 0 <= g < l.m):
            raise IndexOutOfRange(f"relation pair ({f}, {g}) out of range for m={l.m}")
        rows[f] |= 1 << g
        cols[g] |= 1 << f
    return rows, cols


def upward_kept(l: FiniteLattice, rows: Sequence[int], f: int) -> int:
    """The g in rows[f] with (h, g) in rel for every h >= f."""
    kept = rows[f]
    for h in iter_bits(l.up[f]):
        kept &= rows[h]
    return kept


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _meets_on_minima(l: FiniteLattice, cols: Sequence[int]) -> bool:
    """Axiom 3 on the minimal members of the columns: for every two live
    columns g1 and g2, each minimal a1 of cols[g1] and a2 of cols[g2] have
    a1 & a2 in cols[g1 & g2]. When every column is an up-set and meet is
    the inf, this holds iff axiom 3 does (see ``check_r_lattice``). The
    inf commutes, so each unordered pair of minima is tested once."""
    down, meet = l.down, l.meet
    minima = [(g, a) for g, col in enumerate(cols) for a in iter_bits(col) if down[a] & col == 1 << a]
    for i, (g1, a1) in enumerate(minima):
        to_g, to_a = meet[g1], meet[a1]
        if not all(cols[to_g[g2]] >> to_a[a2] & 1 for g2, a2 in minima[i:]):
            return False
    return True


def _meet_witness(
    l: FiniteLattice, rows: Sequence[int], live: Sequence[int]
) -> tuple[int, int, int, int] | None:
    """The lexicographically first witness (f1, g1, f2, g2) of axiom 3, None
    if the axiom holds: a scan of every two pairs of the relation in index
    order, O(|rel|^2) steps."""
    meet = l.meet
    for f1 in live:
        for g1 in iter_bits(rows[f1]):
            for f2 in live:
                row = rows[meet[f1][f2]]
                for g2 in iter_bits(rows[f2]):
                    if not row >> meet[g1][g2] & 1:
                        return f1, g1, f2, g2
    return None


# -- the six R-lattice axioms ---------------------------------------------------

AXIOM_NAMES = (
    "wallman_disjunction",
    "upward_monotone",
    "meet_compatible",
    "interpolation",
    "existence",
    "relative_complement",
)


@dataclass(frozen=True)
class AxiomResult:
    name: str
    passed: bool
    witness: tuple | None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witness": list(self.witness) if self.witness is not None else None,
        }


@dataclass(frozen=True)
class RLatticeReport:
    axioms: tuple[AxiomResult, ...]

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.axioms)

    def __getitem__(self, name: str) -> AxiomResult:
        for a in self.axioms:
            if a.name == name:
                return a
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "axioms": [a.to_dict() for a in self.axioms]}


def check_r_lattice(l: FiniteLattice, rel: Iterable[tuple[int, int]]) -> RLatticeReport:
    """Evaluate the six axioms of a distributive-lattice-with-relation triple.

    1. Wallman disjunction (order only).
    2. h >= f and (f, g) in rel imply (h, g) in rel.
    3. (f1, g1), (f2, g2) in rel imply (f1 & f2, g1 & g2) in rel.
    4. (f, g) in rel implies some h with (f, h) and (h, g) in rel.
    5. every f != 0 has some g1 with (g1, f) in rel and some g2 != 0 with
       (f, g2) in rel.
    6. (g1, f), (f, g2) in rel imply some h with h | f = g1 and h & g2 = 0.

    Each axiom is a test on bitmask rows of the relation, of the order and
    of the disjointness relation; only axiom 3, where its lemma does not
    decide, falls back to a scan over pairs of pairs (below). Every
    verdict is exact, and the reported witness is the lexicographically
    first one, as a scan of the sorted pairs in index order would find it.

    Two axioms are decided by lattice lemmas. Both need the meet table to be
    the inf of the order, which holds for every lattice the package builds:
    ``FiniteLattice.from_leq`` computes the infs, and ``RegularOpenLattice``
    checks them with ``check_inf_sup``.

    - Axiom 3. If axiom 2 holds, every column cols[g] = {f : (f, g) in rel}
      is an up-set, and f1 >= a1, f2 >= a2 give f1 & f2 >= a1 & a2. So the
      axiom holds iff, for every two live columns g1 and g2, each minimal
      a1 of cols[g1] and a2 of cols[g2] have a1 & a2 in cols[g1 & g2]
      (``_meets_on_minima``). Only where it does not decide, when it fails
      or when axiom 2 failed, does ``_meet_witness`` scan every two pairs
      of the relation, O(|rel|^2) steps, for the witness and the verdict.
    - Axiom 6. An h disjoint from g2 is disjoint from every g2' <= g2, so
      for each (g1, f) the g2 that pass form a down-set of rows[f], and all
      of them pass iff its maximal members do. rows[f] is scanned in index
      order only when a maximal member fails.

    For ge and well-inside every column has one minimum and every row one
    maximum. For ge on a Boolean lattice with k atoms (m = 2^k), axiom 3
    then takes m(m + 1)/2 lookups and axiom 6 one AND per pair (g1, f) with
    f <= g1 (3^k in all), besides m steps per f to group the h by h | f:
    every axiom is O(4^k) steps of Python, where a scan of every pair
    against every element takes 6^k and a scan of pairs of pairs 9^k.
    Besides the rows, the relation is held once more as index lists, and
    every test holds at most O(m) further ints at a time.
    """
    rows, cols = relation_rows(l, rel)
    m, bot, join = l.m, l.bottom, l.join
    targets = [list(iter_bits(row)) for row in rows]
    live = [f for f in range(m) if rows[f]]
    disjoint = _disjoint_rows(l)
    results = [AxiomResult(AXIOM_NAMES[0], *_wallman_on_rows(disjoint))]

    witness = None
    for f in live:
        lost = rows[f] & ~upward_kept(l, rows, f)
        if lost:
            g = _lowest(lost)
            h = next(h for h in iter_bits(l.up[f]) if not rows[h] >> g & 1)
            witness = (h, f, g)
            break
    results.append(AxiomResult(AXIOM_NAMES[1], witness is None, witness))

    # Axiom 2 makes every column an up-set, and then the minima decide.
    if results[1].passed and _meets_on_minima(l, cols):
        witness = None
    else:
        witness = _meet_witness(l, rows, live)
    results.append(AxiomResult(AXIOM_NAMES[2], witness is None, witness))

    witness = None
    for f in live:
        g = next((g for g in targets[f] if not rows[f] & cols[g]), None)
        if g is not None:
            witness = (f, g)
            break
    results.append(AxiomResult(AXIOM_NAMES[3], witness is None, witness))

    witness = None
    not_bot = ~(1 << bot)
    for f in range(m):
        if f != bot and not (cols[f] and rows[f] & not_bot):
            witness = (f,)
            break
    results.append(AxiomResult(AXIOM_NAMES[4], witness is None, witness))

    # For each f, joins_to[g1] holds the h with h | f = g1; (g1, f, g2)
    # fails iff none of them is disjoint from g2. The g2 that pass are a
    # down-set of rows[f], so targets[f] is scanned for the first failing
    # g2 only when a maximal member of rows[f] fails. f ascends, so a later
    # f can only win with a lower g1.
    witness = None
    for f in live:
        g1s = cols[f] if witness is None else cols[f] & ((1 << witness[0]) - 1)
        if not g1s:
            continue
        joins_to = [0] * m
        for h in range(m):
            joins_to[join[h][f]] |= 1 << h
        tops = [disjoint[g] for g in targets[f] if l.up[g] & rows[f] == 1 << g]
        for g1 in iter_bits(g1s):
            hs = joins_to[g1]
            if not all(map(hs.__and__, tops)):
                witness = (g1, f, next(g2 for g2 in targets[f] if not hs & disjoint[g2]))
                break
    results.append(AxiomResult(AXIOM_NAMES[5], witness is None, witness))

    return RLatticeReport(tuple(results))


# -- order isomorphism search ---------------------------------------------------


def _order_signature(l: FiniteLattice, i: int) -> tuple[int, int]:
    return (l.down[i].bit_count(), l.up[i].bit_count())


def find_order_isomorphisms(l1: FiniteLattice, l2: FiniteLattice) -> list[tuple[int, ...]]:
    """All bijections phi with i <= j iff phi(i) <= phi(j), lexicographic.

    Backtracking over element images, pruned by (down-set size, up-set size)
    signatures and partial order consistency.
    """
    if l1.m != l2.m:
        return []
    m = l1.m
    sig1 = [_order_signature(l1, i) for i in range(m)]
    sig2 = [_order_signature(l2, i) for i in range(m)]
    if sorted(sig1) != sorted(sig2):
        return []
    out: list[tuple[int, ...]] = []
    image: list[int] = [-1] * m
    used = [False] * m

    def backtrack(i: int):
        if i == m:
            out.append(tuple(image))
            return
        for y in range(m):
            if used[y] or sig1[i] != sig2[y]:
                continue
            if any(
                l1.leq(a, i) != l2.leq(image[a], y) or l1.leq(i, a) != l2.leq(y, image[a])
                for a in range(i)
            ):
                continue
            image[i] = y
            used[y] = True
            backtrack(i + 1)
            used[y] = False
            image[i] = -1

    backtrack(0)
    return out


def transport_relation(rel: PairRelation, phi: Sequence[int]) -> PairRelation:
    """Push a pair relation through an element bijection."""
    return frozenset((phi[f], phi[g]) for f, g in rel)
