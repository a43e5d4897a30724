"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive and shares no code with the package:
pointwise scans and literal set arithmetic over frozensets. The
exceptions are the symbolic-set ones, built on the package's own
operations: ``intersect_oracle``, the older De Morgan spelling of symbolic
intersection, and ``symbolic_identities_oracle``, the Boolean-algebra and
interior/closure identities.
"""

import functools
import itertools
import random
from fractions import Fraction
from itertools import combinations

from regopen import Topology
from regopen.cofinite import SymbolicSet, closure, complement, interior, intersect, is_subset, union
from regopen.errors import CompositionNotIso, SizeGuardExceeded
from regopen.lattice import AXIOM_NAMES, AxiomResult, RLatticeReport


@functools.lru_cache(maxsize=1)
def opens_as_sets(t: Topology) -> tuple[frozenset[int], ...]:
    # kept for the last space asked: the oracles ask for one space many times
    return tuple(frozenset(i for i in range(t.n) if m >> i & 1) for m in t.open_masks)


def interior_oracle(t: Topology, a: frozenset[int]) -> frozenset[int]:
    # x is interior iff some open around x fits inside a
    return frozenset(
        x for x in range(t.n) if any(x in u and u <= a for u in opens_as_sets(t))
    )


def closure_oracle(t: Topology, a: frozenset[int]) -> frozenset[int]:
    # smallest closed superset, scanning all closed sets
    ground = frozenset(range(t.n))
    closed = [ground - u for u in opens_as_sets(t)]
    out = ground
    for c in closed:
        if a <= c:
            out &= c
    return out


def regular_open_oracle(t: Topology, a: frozenset[int]) -> bool:
    return frozenset(a) in set(opens_as_sets(t)) and interior_oracle(
        t, closure_oracle(t, a)
    ) == frozenset(a)


def dense_oracle(t: Topology, y: frozenset[int]) -> bool:
    # dense iff it meets every nonempty open
    return all(u & y for u in opens_as_sets(t) if u)


def all_subsets(n: int) -> list[frozenset[int]]:
    pts = range(n)
    return [
        frozenset(c) for r in range(n + 1) for c in combinations(pts, r)
    ]


def brute_force_topologies(n: int) -> list[Topology]:
    """Oracle: filter all 2**(2**n - 2) families containing {} and the full set.

    Independent of the incremental generator; guarded at n <= 4 where the
    candidate space is still only 16384 families.
    """
    if n < 1:
        raise ValueError("ground set must have at least one point")
    if n > 4:
        raise SizeGuardExceeded("brute-force enumeration is guarded at n <= 4")
    full = (1 << n) - 1
    middle = [s for s in range(1, full)]
    out = []
    for picks in range(1 << len(middle)):
        fam = [0, full] + [s for i, s in enumerate(middle) if picks >> i & 1]
        fam_set = set(fam)
        ok = True
        for a, b in itertools.combinations(fam, 2):
            if a | b not in fam_set or a & b not in fam_set:
                ok = False
                break
        if ok:
            out.append(Topology(n, fam))
    return sorted(out, key=lambda t: (len(t.open_masks), t.open_masks))


def preorder_topologies(n: int) -> list[Topology]:
    """Second independent route: up-set families of all preorders on n points."""
    if n < 1:
        raise ValueError("ground set must have at least one point")
    if n > 4:
        raise SizeGuardExceeded("preorder enumeration is guarded at n <= 4")
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    families = set()
    for picks in range(1 << len(off_diag)):
        succ = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(off_diag):
            if picks >> k & 1:
                succ[i] |= 1 << j
        if any(
            succ[i] >> j & 1 and succ[j] & ~succ[i] for i in range(n) for j in range(n)
        ):
            continue  # not transitive
        opens = tuple(
            sorted(
                u
                for u in range(1 << n)
                if all(succ[i] & ~u == 0 for i in range(n) if u >> i & 1)
            )
        )
        families.add(opens)
    return sorted(
        (Topology(n, f) for f in families),
        key=lambda t: (len(t.open_masks), t.open_masks),
    )


@functools.lru_cache(maxsize=None)
def _relabel_tables(n: int) -> tuple[list[int], ...]:
    """For each relabeling of n points, in lexicographic order, the image of
    every mask, indexed by the mask."""
    return tuple(
        [sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in range(1 << n)]
        for perm in itertools.permutations(range(n))
    )


def canonical_open_masks_oracle(t: Topology) -> tuple[int, ...]:
    """The n! scan: the least sorted image of the open family of ``t`` over
    every relabeling of its points."""
    return min(tuple(sorted([image[m] for m in t.open_masks])) for image in _relabel_tables(t.n))


def find_homeomorphism_oracle(t1: Topology, t2: Topology) -> dict[int, int] | None:
    """The first relabeling, in lexicographic order, whose image of the
    sorted open family of ``t1`` is that of ``t2``."""
    if t1.n != t2.n or len(t1.open_masks) != len(t2.open_masks):
        return None
    for perm in itertools.permutations(range(t1.n)):
        image = (sum(1 << perm[i] for i in range(t1.n) if m >> i & 1) for m in t1.open_masks)
        if tuple(sorted(image)) == t2.open_masks:
            return dict(enumerate(perm))
    return None


def wallman_disjunction_oracle(l) -> tuple[bool, tuple | None]:
    """Triple scan: every a < b has some h meeting exactly one of them at bottom."""
    bot = l.bottom
    for a in range(l.m):
        for b in range(a + 1, l.m):
            ok = False
            for h in range(l.m):
                if (l.meet[a][h] == bot) != (l.meet[b][h] == bot):
                    ok = True
                    break
            if not ok:
                return False, (a, b)
    return True, None


def boolean_algebra_oracle(l) -> tuple[bool, tuple | None]:
    """The pairwise Boolean-law scan: meet and join are the inf and sup of
    the stored order, and involution, the complement laws and De Morgan
    hold, each over every element or pair. It accepts MO2, so it is a
    reference for those laws, not a Boolean test."""
    down, up, meet, join, comp = l.down, l.up, l.meet, l.join, l.complement
    for i in range(l.m):
        for j in range(l.m):
            if down[meet[i][j]] != down[i] & down[j]:
                return False, ("meet-not-inf", i, j)
            if up[join[i][j]] != up[i] & up[j]:
                return False, ("join-not-sup", i, j)
    for i in range(l.m):
        if comp[comp[i]] != i:
            return False, ("involution", i)
        if meet[i][comp[i]] != l.bottom:
            return False, ("meet-complement", i)
        if join[i][comp[i]] != l.top:
            return False, ("join-complement", i)
        for j in range(l.m):
            if comp[meet[i][j]] != join[comp[i]][comp[j]]:
                return False, ("de-morgan-meet", i, j)
            if comp[join[i][j]] != meet[comp[i]][comp[j]]:
                return False, ("de-morgan-join", i, j)
    return True, None


def meet_compatible_oracle(l, rel) -> tuple[bool, tuple | None]:
    """Axiom 3 alone, scanned over sorted pairs of pairs: (f1, g1) and
    (f2, g2) in rel imply (f1 & f2, g1 & g2) in rel. Witness (f1, g1, f2, g2)."""
    rel = frozenset(rel)
    pairs = sorted(rel)
    meet = l.meet
    for f1, g1 in pairs:
        for f2, g2 in pairs:
            if (meet[f1][f2], meet[g1][g2]) not in rel:
                return False, (f1, g1, f2, g2)
    return True, None


def check_r_lattice_oracle(l, rel) -> RLatticeReport:
    """The six R-lattice axioms scanned over sorted pairs and pairs of pairs,
    in index order, so each witness is the lexicographically first."""
    rel = frozenset(rel)
    for f, g in rel:
        if not (0 <= f < l.m and 0 <= g < l.m):
            raise ValueError(f"relation pair ({f}, {g}) out of range for m={l.m}")
    pairs = sorted(rel)
    bot = l.bottom
    results = []

    ok, w = wallman_disjunction_oracle(l)
    results.append(AxiomResult(AXIOM_NAMES[0], ok, w))

    witness = None
    for f, g in pairs:
        for h in range(l.m):
            if l.leq(f, h) and (h, g) not in rel:
                witness = (h, f, g)
                break
        if witness:
            break
    results.append(AxiomResult(AXIOM_NAMES[1], witness is None, witness))

    results.append(AxiomResult(AXIOM_NAMES[2], *meet_compatible_oracle(l, rel)))

    witness = None
    for f, g in pairs:
        if not any((f, h) in rel and (h, g) in rel for h in range(l.m)):
            witness = (f, g)
            break
    results.append(AxiomResult(AXIOM_NAMES[3], witness is None, witness))

    witness = None
    for f in range(l.m):
        if f == bot:
            continue
        has_g1 = any((g1, f) in rel for g1 in range(l.m))
        has_g2 = any(g2 != bot and (f, g2) in rel for g2 in range(l.m))
        if not (has_g1 and has_g2):
            witness = (f,)
            break
    results.append(AxiomResult(AXIOM_NAMES[4], witness is None, witness))

    witness = None
    for g1, f in pairs:
        for ff, g2 in pairs:
            if ff != f:
                continue
            if not any(
                l.join[h][f] == g1 and l.meet[h][g2] == bot for h in range(l.m)
            ):
                witness = (g1, f, g2)
                break
        if witness:
            break
    results.append(AxiomResult(AXIOM_NAMES[5], witness is None, witness))

    return RLatticeReport(tuple(results))


def order_preserved_oracle(source, target, forward) -> None:
    """Pairwise scan: i <= j iff forward[i] <= forward[j], else
    CompositionNotIso naming the first pair (i, j) by its point sets."""
    for i in range(source.m):
        for j in range(source.m):
            if source.leq(i, j) != target.leq(forward[i], forward[j]):
                raise CompositionNotIso(
                    "order not preserved",
                    (sorted(source.element(i)), sorted(source.element(j))),
                )


def well_inside_oracle(t: Topology, l) -> frozenset[tuple[int, int]]:
    """The pairs (f, g) of elements of ``l``, the lattice of ``t``, whose
    U_g has its closure inside U_f, each closure from the scan of the
    closed sets and each pair tested on point sets."""
    elems = l.elements()
    closures = [closure_oracle(t, e) for e in elems]
    return frozenset((f, g) for f, u in enumerate(elems) for g, c in enumerate(closures) if c <= u)


def well_inside_monotone_oracle(l, rel) -> str | None:
    """Scan each pair of ``rel``, in lexicographic order, against every h:
    the rlattice suite's message for the first pair not upward or downward
    monotone, else None."""
    for f, g in sorted(rel):
        for h in range(l.m):
            if l.leq(f, h) and (h, g) not in rel:
                return f"well-inside not upward monotone at ({h},{f},{g})"
            if l.leq(h, g) and (f, h) not in rel:
                return f"well-inside not downward monotone at ({f},{g},{h})"
    return None


def subspace_homeomorphism_oracle(tx: Topology, ty: Topology, tau: dict[int, int]) -> bool:
    """Whether ``tau`` carries the opens of the subspace on its domain onto
    those of the subspace on its image, building both subspaces."""
    if not tau:
        return True
    sub_x, _ = tx.subspace(set(tau))
    sub_y, index_y = ty.subspace(set(tau.values()))
    images = [index_y[tau[x]] for x in sorted(tau)]  # subspace indices follow point order
    relabeled = {sum(1 << images[i] for i in range(sub_x.n) if m >> i & 1) for m in sub_x.open_masks}
    return relabeled == set(sub_y.open_masks)


def transfer_oracle(ex, ey, core_map: dict[int, int]) -> dict[frozenset[int], frozenset[int]]:
    """The common-core transfer one regular open at a time, on point sets:
    U -> U & X0, re-indexed onto the core, relabeled by ``core_map``, placed
    in Y by ``ey`` and sent to int(cl(.)) there. Reference for
    ``transfer_isomorphism``, which composes two verified restrictions."""
    out = {}
    for u in opens_as_sets(ex.ambient):
        if regular_open_oracle(ex.ambient, u):
            core = frozenset(core_map[i] for i, p in enumerate(ex.points) if p in u)
            upstairs = frozenset(ey.points[j] for j in core)
            out[u] = interior_oracle(ey.ambient, closure_oracle(ey.ambient, upstairs))
    return out


def basis_oracle(t: Topology, family) -> bool:
    """Whether every open of ``t`` is the union of the members of ``family``
    inside it."""
    members = [frozenset(b) for b in family]
    return all(
        frozenset().union(*(b for b in members if b <= u)) == u for u in opens_as_sets(t)
    )


def recovery_oracle(n: int, iso: dict, target_n: int) -> dict[int, frozenset[int]]:
    """For each of the ``n`` points x, the intersection of iso(U) over the
    basis members U (the keys of ``iso``, as point sets) containing x,
    starting from the ``target_n`` points of the other side. Reference for
    ``point_recovery``'s recovery sets."""
    out = {}
    for x in range(n):
        acc = frozenset(range(target_n))
        for u, image in iso.items():
            if x in u:
                acc &= image
        out[x] = acc
    return out


def sample_oracle(groups, sample: int, seed: int) -> list:
    """The list-based draw over a suite's groups: list every group, number
    their instances in order, and keep the (group, item) pairs at the
    indices of ``random.Random(seed).sample(range(count), sample)``, in
    order, or all of them when there are no more than ``sample``. Reference
    for ``run_suite``'s two-pass sampling."""
    groups = list(groups)
    count = sum(len(group.items) for group in groups)
    keep = set(random.Random(seed).sample(range(count), sample)) if sample < count else range(count)
    instances = ((group, item) for group in groups for item in group.items)
    return [instance for i, instance in enumerate(instances) if i in keep]


def trace_keeps_closure_oracle(t: Topology, y: int, u: int) -> bool:
    """The per-instance density check: cl(U & Y) == cl(U) for the masks Y
    and U, each closure a scan of the closed sets. Reference for the density
    kernel, which reads both closures from one table per space."""
    ys, us = (frozenset(i for i in range(t.n) if m >> i & 1) for m in (y, u))
    return closure_oracle(t, us & ys) == closure_oracle(t, us)


def dense_masks_oracle(t: Topology) -> list[int]:
    """The dense masks of ``t``, ascending, without a closure: a set is
    dense iff it meets every minimal nonempty open, and those are the least
    neighbourhoods that hold no other one, pairwise disjoint. So a dense set
    is a nonempty part of each of them plus any part of the points outside
    them. Reference for ``dense_masks``, which reads a closure table."""

    def parts(mask: int) -> list[int]:
        out = [0]
        for p in range(t.n):
            if mask >> p & 1:
                out += [s | 1 << p for s in out]
        return out

    nbhds = set(t.min_nbhd_masks)
    dense, rest = [0], t.full_mask
    for u in nbhds:
        if not any(v != u and v & u == v for v in nbhds):
            rest &= ~u
            dense = [y | s for y in dense for s in parts(u)[1:]]
    return sorted(y | s for y in dense for s in parts(rest))


def regularity_scan_oracle(t: Topology, cl, reg, a: int) -> str | None:
    """The regularity suite's verdict on the subset ``a`` by a scan of the
    opens per subset: for an open A, the fixpoint route reg(A) == A, read
    from the table ``reg``, against 'every open inside cl(A) sits inside
    A', with cl(A) read from ``cl``. Reference for the kernel, which scans
    the opens once per closure."""
    if a not in t.open_masks:
        return None
    direct = reg[a] == a
    via_opens = all(v & ~a == 0 for v in t.open_masks if v & ~cl[a] == 0)
    if direct != via_opens:
        return f"fixpoint route says {direct}, open-scan route says {via_opens}"
    return None


def intersect_oracle(a: SymbolicSet, b: SymbolicSet) -> SymbolicSet:
    # the complement of the union of the complements
    return complement(union(complement(a), complement(b)))


def symbolic_identities_oracle(a: SymbolicSet, b: SymbolicSet, c: SymbolicSet) -> str | None:
    """The name of the first identity that fails on (a, b, c), or None."""
    if union(a, b) != union(b, a):
        return "union commutativity"
    if intersect(a, b) != intersect(b, a):
        return "intersection commutativity"
    if union(union(a, b), c) != union(a, union(b, c)):
        return "union associativity"
    if intersect(intersect(a, b), c) != intersect(a, intersect(b, c)):
        return "intersection associativity"
    if complement(complement(a)) != a:
        return "double complement"
    if complement(union(a, b)) != intersect(complement(a), complement(b)):
        return "De Morgan (union)"
    if complement(intersect(a, b)) != union(complement(a), complement(b)):
        return "De Morgan (intersection)"
    if union(a, intersect(a, b)) != a:
        return "absorption"
    if intersect(a, union(a, b)) != a:
        return "absorption dual"
    if intersect(a, union(b, c)) != union(intersect(a, b), intersect(a, c)):
        return "distributivity"
    if interior(a) != complement(closure(complement(a))):
        return "interior/closure duality"
    if not is_subset(interior(a), a) or not is_subset(a, closure(a)):
        return "interior below, closure above"
    return None


def triangle_oracle(dist) -> tuple[int, int, int] | None:
    """The first ordered triple (i, j, k) with d(i, k) > d(i, j) + d(j, k),
    scanned over Fractions, or None."""
    rows = [[Fraction(v) for v in row] for row in dist]
    n = len(rows)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[i][k] > rows[i][j] + rows[j][k]:
                    return (i, j, k)
    return None
