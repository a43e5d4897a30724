"""Exhaustive enumeration of topologies on small ground sets.

A finite space is exactly a preorder, and its opens are the up-sets (Stong,
Trans. AMS 123, 1966). So every space on n + 1 points is a space on n points
with one point added, and ``enumerate_topologies`` grows the open families
one point at a time, as Brinkmann & McKay do for posets ("Posets on up to 16
points", Order 19, 2002). Up to homeomorphism it extends only the class
representatives and keeps one family per class: the canonical form of every
candidate, taken at each step, both tells the classes apart and names them.

Labeled counts are 1, 4, 29, 355, 6942 for n = 1..5; counts up to
homeomorphism are 1, 3, 9, 33, 139.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import BadEnumerationSpec, SizeGuardExceeded
from .topology import Topology, canonical_open_masks, set_of

MODES = ("all", "up-to-homeomorphism")

# Every size limit of a run, enforced by ``check_budget`` alone: per entry
# point, the largest n and the n from which allow_n5 is needed (None: never).
# A space from outside input is bounded by topology.MAX_POINTS and MAX_OPENS.
BUDGETS: dict[str, tuple[int, int | None]] = {
    "enumerate": (5, 5),
    "classes": (7, 5),
    "verify": (5, 5),
    "counterexamples": (4, None),
    "ideals": (5, None),
}


def check_budget(entry: str, n: int, allow_n5: bool = False) -> None:
    """SizeGuardExceeded if the ``entry`` row of BUDGETS refuses ``n``."""
    largest, opt_in = BUDGETS[entry]
    if n > largest:
        raise SizeGuardExceeded(f"{entry} is guarded at n <= {largest}")
    if opt_in is not None and n >= opt_in and not allow_n5:
        raise SizeGuardExceeded(f"{entry} at n = {n} requires the explicit allow_n5 flag")


@dataclass(frozen=True)
class EnumerationSpec:
    """What to enumerate: ground size, labeled-vs-classes, optional cap.

    The sizes allowed, and the one from which ``allow_n5`` is needed, are
    the "enumerate" row of BUDGETS for labeled spaces and the "classes" row
    up to homeomorphism.
    """

    n: int
    mode: str = "all"
    limit: int | None = None
    allow_n5: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise BadEnumerationSpec(f"mode must be one of {MODES}")
        if self.n < 1:
            raise BadEnumerationSpec("ground set must have at least one point")
        if self.limit is not None and self.limit < 0:
            raise BadEnumerationSpec(f"limit must not be negative, not {self.limit}")
        check_budget("classes" if self.mode == "up-to-homeomorphism" else "enumerate", self.n, self.allow_n5)


def _extensions(n: int, opens: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every open family on n + 1 points whose trace on points 0..n-1 is ``opens``.

    The new point p gets the least neighbourhood {p} | U for an open U. It
    lies in the least neighbourhood of each point of a closed set D whose
    points x all have U inside U_x; so the complement V of D is an open that
    holds every open not containing U. The new opens are the old opens inside
    V and, with p added, the old opens containing U. Deleting p gives back
    (opens, U, D), so each family arises exactly once.
    """
    p = 1 << n
    for u in opens:
        with_p = [o | p for o in opens if o & u == u]
        must_hold = 0
        for o in opens:
            if o & u != u:
                must_hold |= o
        for v in opens:
            if v & must_hold == must_hold:
                yield tuple(sorted([o for o in opens if o & v == o] + with_p))


def enumerate_topologies(spec: EnumerationSpec) -> Iterator[Topology]:
    """Stream every topology on {0..n-1}, each exactly once, in a fixed
    deterministic order (by open count, then family encoding). In
    up-to-homeomorphism mode, one canonical representative per class.

    Both modes grow the families one point at a time from the one family on
    no points. Class mode extends only the class representatives: deleting
    the last point of a space leaves a subspace homeomorphic to one of them.
    It keeps the distinct canonical forms at every step, so each family kept
    is already the named representative of its class."""
    classes = spec.mode == "up-to-homeomorphism"
    families = {(0,)}
    for k in range(spec.n):
        grown = (f for fam in families for f in _extensions(k, fam))
        if classes:
            families = {canonical_open_masks(Topology.trusted(k + 1, f)) for f in grown}
        else:
            families = set(grown)
    families = sorted(families, key=lambda f: (len(f), f))
    if spec.limit is not None:
        families = families[: spec.limit]
    for fam in families:
        yield Topology.trusted(spec.n, fam)


def dense_masks(t: Topology, cl: Sequence[int] | None = None) -> list[int]:
    """The masks of all nonempty subsets with full closure, ascending.

    ``cl`` is the closure table of ``t`` (``Topology.closure_table``), read
    once per mask: a verify run passes the table it holds for the space,
    and without one the space's own table is built. The empty mask has
    closure 0, so it is never listed.
    """
    if cl is None:
        cl = t.closure_table()
    full = t.full_mask
    return [y for y, c in enumerate(cl) if c == full]


def enumerate_dense_subsets(t: Topology) -> list[frozenset[int]]:
    """All nonempty subsets with full closure, in ascending mask order."""
    return [set_of(y) for y in dense_masks(t)]


def canonical_classes(max_n: int) -> list[Topology]:
    """Canonical representatives of all homeomorphism classes with n <= max_n,
    ordered by (n, open count, family encoding)."""
    out = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_topologies(EnumerationSpec(n, mode="up-to-homeomorphism")))
    return out
