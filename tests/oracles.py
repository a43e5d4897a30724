"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive and shares no code with the package:
pointwise scans and literal set arithmetic over frozensets.
"""

import itertools
from itertools import combinations

from regopen import Topology
from regopen.errors import SizeGuardExceeded


def opens_as_sets(t: Topology) -> list[frozenset[int]]:
    return [frozenset(i for i in range(t.n) if m >> i & 1) for m in t.open_masks]


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
