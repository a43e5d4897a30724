"""Reference computations the benchmark checks regopen's outputs against.

Nothing here imports regopen. Spaces are given as a point count n and a
family of open sets encoded as bitmasks over {0..n-1}. Every finite space is
Alexandrov: each point x has a smallest open set U_x, and

    interior(A) = {x : U_x is inside A}
    closure(A)  = {x : U_x meets A}

which is the route taken here. regopen scans the whole open family instead,
so agreement between the two is evidence, not a tautology.
"""

from __future__ import annotations

import itertools
import math

# OEIS A000798 (labeled topologies) and A001930 (up to homeomorphism).
LABELED_COUNTS = {1: 1, 2: 4, 3: 29, 4: 355, 5: 6942}
CLASS_COUNTS = {1: 1, 2: 3, 3: 9, 4: 33, 5: 139}


def transitive_closure(up: list[int]) -> list[int]:
    """Close a relation given as successor masks (bit j of up[i]: i <= j)."""
    up = list(up)
    n = len(up)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in range(n):
                if acc >> j & 1:
                    acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return up


def upsets(up: list[int]) -> tuple[int, ...]:
    """The open family of a preorder: the sets closed upward under it.

    With this reading up[x] is the smallest open set around x.
    """
    n = len(up)
    return tuple(
        u for u in range(1 << n) if all(up[x] & ~u == 0 for x in range(n) if u >> x & 1)
    )


def preorder_spaces(n: int) -> list[tuple[int, ...]]:
    """Every topology on n points, as the up-set family of a preorder.

    Breadth-first search from the identity relation: each preorder is
    extended by one missing pair i <= j and closed transitively, which adds
    k <= l for every k <= i and j <= l. Every preorder is reached, since its
    pairs can be added one at a time.
    """
    start = tuple(1 << i for i in range(n))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for up in frontier:
            for i in range(n):
                for j in range(n):
                    if up[i] >> j & 1:
                        continue
                    grown = tuple(u | up[j] if u >> i & 1 else u for u in up)
                    if grown not in seen:
                        seen.add(grown)
                        nxt.append(grown)
        frontier = nxt
    return sorted(upsets(list(up)) for up in seen)


def minimal_neighbourhoods(n: int, opens) -> list[int]:
    full = (1 << n) - 1
    nbhd = []
    for x in range(n):
        acc = full
        for o in opens:
            if o >> x & 1:
                acc &= o
        nbhd.append(acc)
    return nbhd


def interior(nbhd: list[int], a: int) -> int:
    return sum(1 << x for x, u in enumerate(nbhd) if u & ~a == 0)


def closure(nbhd: list[int], a: int) -> int:
    return sum(1 << x for x, u in enumerate(nbhd) if u & a)


def regular_opens(n: int, opens) -> list[int]:
    nbhd = minimal_neighbourhoods(n, opens)
    return sorted(o for o in opens if interior(nbhd, closure(nbhd, o)) == o)


def atom_count(regs) -> int:
    """Minimal nonzero members of a family of sets."""
    nonzero = [r for r in regs if r]
    return sum(1 for r in nonzero if not any(s != r and s & ~r == 0 for s in nonzero))


def well_inside_pairs(n: int, opens, elements) -> set[tuple[int, int]]:
    """Index pairs (f, g) with closure(elements[g]) inside elements[f]."""
    nbhd = minimal_neighbourhoods(n, opens)
    closures = [closure(nbhd, e) for e in elements]
    return {
        (f, g)
        for f, ef in enumerate(elements)
        for g, cg in enumerate(closures)
        if cg & ~ef == 0
    }


def dense_subsets(n: int, opens) -> list[int]:
    nbhd = minimal_neighbourhoods(n, opens)
    full = (1 << n) - 1
    return [y for y in range(1, full + 1) if closure(nbhd, y) == full]


def is_topology(n: int, opens) -> bool:
    fam = set(opens)
    full = (1 << n) - 1
    return (
        0 in fam
        and full in fam
        and all(a | b in fam and a & b in fam for a in fam for b in fam)
    )


def _permute(mask: int, perm) -> int:
    out = 0
    for i, target in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << target
    return out


def relabelings(n: int, opens):
    """The open family under each of the n! relabelings of the points."""
    for perm in itertools.permutations(range(n)):
        yield tuple(sorted(_permute(o, perm) for o in opens))


def automorphism_count(n: int, opens) -> int:
    own = tuple(sorted(opens))
    return sum(1 for image in relabelings(n, opens) if image == own)


def canonical_form(n: int, opens) -> tuple[int, ...]:
    return min(relabelings(n, opens))


def orbit_total(n: int, families) -> int:
    """Sum of n!/|Aut| over the families: the labeled spaces they stand for."""
    return sum(math.factorial(n) // automorphism_count(n, fam) for fam in families)


def verify_instance_counts(max_n: int) -> dict[str, int]:
    """Instance counts regopen's suites must report at bound ``max_n``.

    Each count follows from the suite's definition over all labeled spaces
    with 1..max_n points:
      ux0         one instance per (space, dense subset);
      denso       one per (space, dense subset, open set);
      uvw         one per (space, regular opens U, V) with U not inside V;
      regularity  one per (space, subset);
      boolean, rlattice
                  one per space;
      stone       one per space, plus one ultrafilter check on each of the
                  powersets of 1..5 points.
    """
    counts = dict.fromkeys(
        ("ux0", "denso", "uvw", "regularity", "boolean", "rlattice", "stone"), 0
    )
    for n in range(1, max_n + 1):
        for opens in preorder_spaces(n):
            dense = len(dense_subsets(n, opens))
            regs = regular_opens(n, opens)
            counts["ux0"] += dense
            counts["denso"] += dense * len(opens)
            counts["uvw"] += sum(1 for u in regs for v in regs if u & ~v)
            counts["regularity"] += 1 << n
            counts["boolean"] += 1
            counts["rlattice"] += 1
            counts["stone"] += 1
    counts["stone"] += 5
    return counts
