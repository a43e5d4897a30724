"""Exhaustive enumeration of topologies on small ground sets.

A finite space is exactly a preorder, and its opens are the up-sets (Stong,
Trans. AMS 123, 1966). So every space on n + 1 points is a space on n points
with one point added, and ``enumerate_topologies`` grows the open families
one point at a time, as Brinkmann & McKay do for posets ("Posets on up to 16
points", Order 19, 2002). Up to homeomorphism it extends only the class
representatives, names only the candidates whose new point has the least
rank, and keeps one family per class: the canonical form of each candidate
named, taken at each step, both tells the classes apart and names them.

Labeled counts are 1, 4, 29, 355, 6942 for n = 1..5; counts up to
homeomorphism are 1, 3, 9, 33, 139.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import BadEnumerationSpec, SizeGuardExceeded
from .record import Record
from .topology import Topology, canonical_open_masks, set_of

MODES = ("all", "up-to-homeomorphism")

# Every size limit of a run, enforced by ``check_budget`` alone: one row per
# walk or search, with the largest n and the n from which allow_n5 is needed
# (None: never). "enumerate" is the labeled walk, which ``verify`` makes too;
# "classes" the walk up to homeomorphism. A space from outside input is
# bounded by topology.MAX_POINTS and MAX_OPENS.
BUDGETS: dict[str, tuple[int, int | None]] = {
    "enumerate": (5, 5),
    "classes": (8, 5),
    "counterexamples": (4, None),
    "ideals": (5, None),
}


def check_budget(entry: str, n: int, allow_n5: bool = False) -> None:
    """BadEnumerationSpec if ``n`` is not an int or is below 1;
    SizeGuardExceeded if the ``entry`` row of BUDGETS refuses it."""
    if type(n) is not int:  # bools and floats refused
        raise BadEnumerationSpec(f"ground set size must be an int, not {n!r}")
    if n < 1:
        raise BadEnumerationSpec("ground set must have at least one point")
    largest, opt_in = BUDGETS[entry]
    if n > largest:
        raise SizeGuardExceeded(f"{entry} is guarded at n <= {largest}")
    if opt_in is not None and n >= opt_in and not allow_n5:
        raise SizeGuardExceeded(f"{entry} at n = {n} requires the explicit allow_n5 flag")


class EnumerationSpec(Record):
    """What to enumerate: ground size, labeled-vs-classes, optional cap.

    The sizes allowed, and the one from which ``allow_n5`` is needed, are
    the "enumerate" row of BUDGETS for labeled spaces and the "classes" row
    up to homeomorphism.
    """

    __slots__ = ("n", "mode", "limit", "allow_n5")

    def __init__(self, n: int, mode: str = "all", limit: int | None = None, allow_n5: bool = False):
        if mode not in MODES:
            raise BadEnumerationSpec(f"mode must be one of {MODES}")
        if limit is not None:
            if type(limit) is not int:
                raise BadEnumerationSpec(f"limit must be an int, not {limit!r}")
            if limit < 0:
                raise BadEnumerationSpec(f"limit must not be negative, not {limit}")
        check_budget("classes" if mode == "up-to-homeomorphism" else "enumerate", n, allow_n5)
        self._set(n, mode, limit, allow_n5)


def _choices(n: int, opens: tuple[int, ...]) -> Iterator[tuple[int, int, list[int]]]:
    """Every way to add the point n to the space on 0..n-1 whose opens are
    ``opens``.

    The new point gets the least neighbourhood {n} | U for an open U. It
    lies in the least neighbourhood of each point of a closed set D whose
    points x all have U inside U_x; so the complement V of D is an open that
    holds every open not containing U. Yields each such (U, V) with the new
    opens holding n: the old opens containing U, with n added.
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
                yield u, v, with_p


def _extension(opens: tuple[int, ...], v: int, with_p: list[int]) -> tuple[int, ...]:
    """The open family that a choice (U, V) of ``_choices`` gives: the old
    opens inside V, then ``with_p``. Both lists ascend, and every open of
    the second holds the new point, the highest bit, so the family comes
    out sorted."""
    return tuple([o for o in opens if o & v == o] + with_p)


def _extensions(n: int, opens: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every open family on n + 1 points whose trace on points 0..n-1 is
    ``opens``. Deleting the new point gives back (opens, U, D), so each
    family arises exactly once."""
    for _, v, with_p in _choices(n, opens):
        yield _extension(opens, v, with_p)


def _least_rank_extensions(n: int, opens: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The families of ``_extensions`` in which no point has a smaller rank
    than the new point n. The rank of a point p is (|U_p|, |cl{p}|), where
    cl{p} is the set of points x with p in U_x.

    Adding n with the choice (U, V) gives n the rank (|U| + 1, |D| + 1),
    and it adds 1 to |U_x| for each old point x in D and to |cl{x}| for
    each x in U; so the ranks come from those of ``opens`` without building
    the family.
    """
    full = (1 << n) - 1
    nbhd = Topology.trusted(n, opens).min_nbhd_masks
    sizes = [u.bit_count() for u in nbhd]
    seen = [sum(u >> x & 1 for u in nbhd) for x in range(n)]
    for u, v, with_p in _choices(n, opens):
        d = full & ~v
        new = (u.bit_count() + 1, d.bit_count() + 1)
        if all((sizes[x] + (d >> x & 1), seen[x] + (u >> x & 1)) >= new for x in range(n)):
            yield _extension(opens, v, with_p)


def enumerate_topologies(spec: EnumerationSpec) -> Iterator[Topology]:
    """Stream every topology on {0..n-1}, each exactly once, in a fixed
    deterministic order (by open count, then family encoding). In
    up-to-homeomorphism mode, one canonical representative per class.

    Both modes grow the families one point at a time from the one family on
    no points. Class mode extends only the class representatives, and of
    their extensions it names only those whose new point has the least
    rank (``_least_rank_extensions``), as in McKay's canonical construction
    path ("Isomorph-free exhaustive generation", J. Algorithms 26, 1998).
    This misses no class: let q be a point of least rank in a space C on
    k + 1 points. C - q is homeomorphic to a representative P on k points;
    relabel C so that C - q carries P's labels and q carries label k. The
    result is an extension of P whose new point, q, has the least rank, as
    rank does not depend on labels. Class mode keeps the distinct canonical
    forms of the extensions named, so each family kept is already the
    representative of its class."""
    classes = spec.mode == "up-to-homeomorphism"
    families = {(0,)}
    for k in range(spec.n):
        if classes:
            grown = (f for fam in families for f in _least_rank_extensions(k, fam))
            families = {canonical_open_masks(Topology.trusted(k + 1, f)) for f in grown}
        else:
            families = {f for fam in families for f in _extensions(k, fam)}
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
    ordered by (n, open count, family encoding). ``max_n`` is checked
    against the "classes" row before any class is enumerated."""
    check_budget("classes", max_n)
    out = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_topologies(EnumerationSpec(n, mode="up-to-homeomorphism")))
    return out
