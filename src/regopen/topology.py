"""Finite topological spaces as immutable values with exact set operators.

A space lives on the ground set {0..n-1}. Subsets are exposed as frozensets
of indices and carried internally as integer bitmasks, which keeps every
operator an auditable one-liner over machine words. All values are immutable
after construction; the open family, stored once as a sorted tuple, and the
least neighbourhoods, which decide openness, are computed eagerly in
``__init__`` so instances are safe to share across threads.

Homeomorphism has one decision: ``canonical_open_masks``, the least sorted
encoding of the open family over all relabelings of the points. It is found
by a search that labels the points one at a time and extends only the
partial labellings with the least encoding so far, not by scanning all n!
relabelings; that scan is the reference in the tests.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    EmptySubspace,
    IndexOutOfRange,
    MalformedSpace,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    SizeGuardExceeded,
)

PointSet = frozenset[int]
# cl, int and reg of every mask, each indexed by the mask: Topology.operator_tables.
OperatorTables = tuple[list[int], list[int], list[int]]

# Largest space accepted: validating k opens on n points takes about n * k
# set lookups, but its regular-open lattice has up to k elements with k x k
# meet and join tables, so the lattice of discrete:10 (1024 opens) takes
# about half a second and that of discrete:18 would never finish.
MAX_POINTS = 16
MAX_OPENS = 1024


def mask_of(points: Iterable[int], n: int) -> int:
    """Encode a subset of {0..n-1} as a bitmask, validating every index."""
    try:
        points = iter(points)
    except TypeError:
        raise MalformedSpace(f"{points!r} is neither a mask nor a set of points") from None
    m = 0
    for p in points:
        if type(p) is not int or not 0 <= p < n:
            raise IndexOutOfRange(f"point {p} outside ground set of size {n}")
        m |= 1 << p
    return m


def set_of(mask: int) -> PointSet:
    """Decode a bitmask back into a frozenset of indices."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return frozenset(out)


def iter_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> list[int]:
    """Every submask of ``mask``, ascending, the empty one first. The i-th is
    the set whose j-th point, in ascending order, is in it when bit j of i is."""
    out = [0]
    for p in iter_bits(mask):
        bit = 1 << p
        out += [s | bit for s in out]
    return out


def compress_mask(mask: int, points: Sequence[int]) -> int:
    """Trace ``mask`` on ``points`` (sorted), re-indexed so that points[i] is bit i."""
    out = 0
    for i, p in enumerate(points):
        if mask >> p & 1:
            out |= 1 << i
    return out


class Topology:
    """A validated family of open sets on the ground set {0..n-1}.

    ``n`` is an int and each open an int mask or an iterable of int
    points; anything else, bools and floats included, is refused with
    MalformedSpace or IndexOutOfRange. The family must contain the empty
    and full sets and be closed under pairwise union and intersection (at
    finite scale this is closure under arbitrary unions and intersections).
    Such a family is exactly the set of unions of its least neighbourhoods
    (Stong, Trans. AMS 123, 1966), and that is how it is decided, in about
    n * k set lookups for k opens; only a family that fails is scanned pair
    by pair, to name the first pair whose union or intersection is missing.
    Duplicates in the input family are canonicalized away; the stored
    family is sorted by mask value. A space with more than MAX_POINTS points
    or MAX_OPENS opens is refused with SizeGuardExceeded before it is
    validated.
    """

    __slots__ = ("n", "full_mask", "open_masks", "min_nbhd_masks")

    def __init__(self, n: int, opens: Iterable[Iterable[int]]):
        if type(n) is not int:  # bools and floats refused
            raise MalformedSpace(f"ground set size must be an int, not {n!r}")
        if n < 1:
            raise MalformedSpace("ground set must have at least one point")
        if n > MAX_POINTS:
            raise SizeGuardExceeded(f"a space has at most {MAX_POINTS} points, not {n}")
        self.n = n
        self.full_mask = (1 << n) - 1
        mask_set = frozenset(m if type(m) is int else mask_of(m, n) for m in opens)
        if len(mask_set) > MAX_OPENS:
            raise SizeGuardExceeded(
                f"a space has at most {MAX_OPENS} opens, not {len(mask_set)}"
            )
        masks = sorted(mask_set)
        for m in masks:
            if m < 0 or m > self.full_mask:
                raise IndexOutOfRange(f"open {m:#x} outside ground set of size {n}")
        if 0 not in mask_set or self.full_mask not in mask_set:
            raise MissingEmptyOrFull(
                f"open family on {n} points must contain the empty and full sets"
            )
        self._fill(tuple(masks))
        # Grow the unions of U_0, U_1, ... one point at a time, stopping at
        # the first that is not an open. Each open O is the union of the U_x
        # with x in O, so the family is a topology iff the unions are its opens.
        unions = {0}
        for u in self.min_nbhd_masks:
            unions |= {v | u for v in unions}
            if not unions <= mask_set:
                break
        if unions != mask_set:
            for a, b in itertools.combinations(masks, 2):
                if a | b not in mask_set:
                    raise NotClosedUnderUnion(set_of(a), set_of(b))
                if a & b not in mask_set:
                    raise NotClosedUnderIntersection(set_of(a), set_of(b))

    @classmethod
    def trusted(cls, n: int, masks: tuple[int, ...]) -> "Topology":
        """The space on n points whose opens are ``masks``, sorted and
        distinct, kept as given beside its least neighbourhoods, without the
        checks of ``__init__``: for a family that its construction already
        proves a topology, as the enumeration's one-point extensions are.
        Every space from outside input goes through ``__init__``."""
        t = cls.__new__(cls)
        t.n = n
        t.full_mask = (1 << n) - 1
        t._fill(masks)
        return t

    def _fill(self, masks: tuple[int, ...]) -> None:
        self.open_masks: tuple[int, ...] = masks
        # Finite spaces are Alexandrov: each point has a smallest open
        # neighborhood, precomputed here to keep instances immutable. The
        # opens are the unions of these n masks, so they determine the space.
        nbhd = []
        for x in range(self.n):
            bit = 1 << x
            acc = self.full_mask
            for m in masks:
                if m & bit:
                    acc &= m
            nbhd.append(acc)
        self.min_nbhd_masks: tuple[int, ...] = tuple(nbhd)

    # -- canonical identity -------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Topology)
            and self.n == other.n
            and self.open_masks == other.open_masks
        )

    def __hash__(self):
        return hash((self.n, self.open_masks))

    def __repr__(self):
        fam = ",".join("{" + ",".join(map(str, sorted(set_of(m)))) + "}" for m in self.open_masks)
        return f"Topology(n={self.n}, opens=[{fam}])"

    @property
    def opens(self) -> tuple[PointSet, ...]:
        return tuple(set_of(m) for m in self.open_masks)

    # -- mask-level operators (fast path used throughout the package) -------

    def to_mask(self, points: Iterable[int] | int) -> int:
        if type(points) is int:
            if points < 0 or points > self.full_mask:
                raise IndexOutOfRange(f"mask {points:#x} outside ground set of size {self.n}")
            return points
        return mask_of(points, self.n)

    # Finite spaces are Alexandrov (Stong, Trans. AMS 123, 1966): x is
    # interior to a iff its least open neighborhood U_x fits in a, and x is in
    # the closure of a iff U_x meets a. Each is O(n), not a scan of the opens.

    def is_open_mask(self, m: int) -> bool:
        return self.interior_mask(m) == m

    def interior_mask(self, a: int) -> int:
        acc, bit = 0, 1
        for u in self.min_nbhd_masks:
            if u & a == u:
                acc |= bit
            bit <<= 1
        return acc

    def closure_mask(self, a: int) -> int:
        acc, bit = 0, 1
        for u in self.min_nbhd_masks:
            if u & a:
                acc |= bit
            bit <<= 1
        return acc

    def closure_table(self) -> list[int]:
        """cl(a) for every mask a, indexed by a: 2^n entries. Closure is
        additive, cl(a | b) = cl(a) | cl(b), so the entries for the masks
        holding point x are those below 1 << x joined with cl{x}."""
        table = [0]
        for x in range(self.n):
            cl_x = self.closure_mask(1 << x)
            table += [c | cl_x for c in table]
        return table

    def operator_tables(self) -> OperatorTables:
        """cl, int and reg = int∘cl of every mask, each indexed by the mask:
        three lists of 2^n entries. int(a) is the complement of cl of the
        complement, and the complements of 0, 1, 2, … are the masks from
        ``full_mask`` down. The tables are not kept: a caller builds them
        for one space, reads them for that space's instances, and drops them."""
        cl = self.closure_table()
        full = self.full_mask
        interior = [full ^ c for c in reversed(cl)]
        return cl, interior, [interior[c] for c in cl]

    def regularize_mask(self, a: int) -> int:
        return self.interior_mask(self.closure_mask(a))

    def is_regular_open_mask(self, m: int) -> bool:
        # int∘cl is always open, so a fixed point of it is open
        return self.regularize_mask(m) == m

    def regular_open_masks(self) -> tuple[int, ...]:
        return tuple(m for m in self.open_masks if self.regularize_mask(m) == m)

    # -- public set-level operators -----------------------------------------

    def is_open(self, a: Iterable[int]) -> bool:
        return self.is_open_mask(self.to_mask(a))

    def interior(self, a: Iterable[int]) -> PointSet:
        """Largest open subset of ``a``."""
        return set_of(self.interior_mask(self.to_mask(a)))

    def closure(self, a: Iterable[int]) -> PointSet:
        """Smallest closed superset of ``a``."""
        return set_of(self.closure_mask(self.to_mask(a)))

    def regularize(self, a: Iterable[int]) -> PointSet:
        """interior(closure(a)); idempotent on opens, fixed exactly on regular opens."""
        return set_of(self.regularize_mask(self.to_mask(a)))

    def is_regular_open(self, a: Iterable[int]) -> bool:
        return self.is_regular_open_mask(self.to_mask(a))

    def regular_opens(self) -> tuple[PointSet, ...]:
        return tuple(set_of(m) for m in self.regular_open_masks())

    def is_dense(self, y: Iterable[int]) -> bool:
        return self.closure_mask(self.to_mask(y)) == self.full_mask

    def minimal_neighborhood(self, x: int) -> PointSet:
        """Intersection of all opens containing ``x``: the least open around it."""
        if type(x) is not int or not 0 <= x < self.n:
            raise IndexOutOfRange(f"point {x} outside ground set of size {self.n}")
        return set_of(self.min_nbhd_masks[x])

    def subspace(self, y: Iterable[int]) -> tuple["Topology", dict[int, int]]:
        """Inherited topology on ``y``, re-indexed to {0..|y|-1}.

        Returns the subspace together with the map ambient point -> new index.
        """
        ymask = self.to_mask(y)
        if ymask == 0:
            raise EmptySubspace("cannot take the subspace on the empty set")
        points = sorted(iter_bits(ymask))
        index_map = {p: i for i, p in enumerate(points)}
        traces = {compress_mask(m, points) for m in self.open_masks}
        return Topology(len(points), traces), index_map


# -- standard fixtures used across tests, demos and docs ---------------------


def _all_masks(n: int) -> Iterator[int]:
    """Every subset of n points, lazily: Topology reads the family only after
    its size guard, so an oversized n is refused before 2^n is computed."""
    yield from range(1 << n)


def discrete(n: int) -> Topology:
    """Every subset open."""
    return Topology(n, _all_masks(n))


def indiscrete(n: int) -> Topology:
    """Only the empty and full sets open."""
    return Topology(n, ((), range(n)))  # point sets, encoded after the size guard


def sierpinski() -> Topology:
    """Two points with opens {}, {0}, {0,1}."""
    return Topology(2, (0b00, 0b01, 0b11))


def x3() -> Topology:
    """Three points: two open singletons plus a point in the closure of both."""
    return Topology(3, (0b000, 0b001, 0b010, 0b011, 0b111))


# -- relabelings and the canonical form -----------------------------------------


def permute_mask(mask: int, perm: Sequence[int]) -> int:
    """Relabel the points of ``mask`` through ``perm`` (old index -> new index)."""
    out = 0
    for i, target in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << target
    return out


def _carries_neighbourhoods(tx: Topology, ty: Topology, tau: Mapping[int, int]) -> bool:
    """Whether the bijection ``tau`` from X0 in ``tx`` onto Y0 in ``ty`` is a
    homeomorphism of the subspaces, or of the spaces when X0 and Y0 hold
    every point. The least neighbourhood of x in X0 is U_x & X0, and a
    bijection of finite spaces is a homeomorphism iff it carries each least
    neighbourhood onto that of the image point."""
    x0 = sum(1 << x for x in tau)
    y0 = sum(1 << y for y in tau.values())
    return all(
        sum(1 << tau[z] for z in iter_bits(tx.min_nbhd_masks[x] & x0)) == ty.min_nbhd_masks[y] & y0
        for x, y in tau.items()
    )


def homeomorphic(t1: Topology, t2: Topology) -> bool:
    """Same size and the same canonical open family."""
    return t1.n == t2.n and canonical_open_masks(t1) == canonical_open_masks(t2)


def canonical_open_masks(t: Topology) -> tuple[int, ...]:
    """Least sorted encoding of the open family over all n! relabelings.

    Two spaces are homeomorphic iff they have the same size and the same
    canonical encoding. The search gives the new labels 0, 1, 2, … to the
    points in turn. The entries below 2^j of an encoding are the images of
    the opens inside the first j labelled points, so labelling point p as j
    appends the images of the opens inside the labelled set that hold p:
    each has bit j set and sorts after everything placed before. Only the
    partial labellings whose appended run is least are extended; an empty
    run is greater than any other, as the entry after it has a higher bit.
    Every least encoding extends a least prefix, so the search is exact.

    Runs are compared by their heads alone, with a sentinel of 2^n for an
    empty run. Every open holding p contains U_p, the least open holding p,
    and labelling preserves inclusion, so the head of p's run is the image
    of U_p's labelled part with bit j; when U_p does not fit inside the
    labelled points and p, no open does, and the run is empty. A run with
    a greater head is greater, and runs with the same head are the same
    run, so one lookup per (partial labelling, p) finds the least run, and
    it is built once.

    Runs with the same head are the same run. Let C be the class of p, the
    points whose least neighbourhood is U_p. A depth at which every run is
    empty extends every labelling by every point. Say r such depths come
    just before depth j, after a depth that left an open O labelled, with
    the labels below j - r (every depth with a head leaves O | U_p). If p
    has a head, each point y of U_p outside O but p is one of the r points
    labelled since O: it was labelled with an empty run, so U_y, inside
    U_p, holds a point labelled after y; from the last one labelled back,
    each has p in U_y, so all lie in C. So U_p minus O is C, and C is
    maximal outside O; such a class of s points gives a head after s - 1
    empty depths from O, so C minus p is the r points. No open inside the
    labelled points meets C, so they are the opens inside O, and p's run
    is each entry of the encoding so far that contains the image of
    U_p & O, joined with bit j and the labels j - r..j - 1 of C minus p.
    The head is that image joined with the same labels, so it fixes the
    run.
    """
    opens = t.open_masks
    holders = [[k for k, o in enumerate(opens) if o >> p & 1] for p in range(t.n)]
    nbhd = t.min_nbhd_masks
    least = [opens.index(u) for u in nbhd]
    sentinel = 1 << t.n
    encoding = [0]  # the empty open, the one open inside no labelled point
    # A partial labelling is kept as the labelled points and the image of
    # each open's labelled part. These alone fix every later run, so
    # labellings that agree on them are kept once.
    level = {(0, (0,) * len(opens))}
    for j in range(t.n):
        bit = 1 << j
        best, kept = sentinel, []
        for done, images in level:
            for p in iter_bits(t.full_mask & ~done):
                head = images[least[p]] | bit if nbhd[p] & ~done == 1 << p else sentinel
                if head < best:
                    best, kept = head, [(done, images, p)]
                elif head == best:
                    kept.append((done, images, p))
        if best != sentinel:
            done, images, p = kept[0]
            inside = done | 1 << p
            encoding += sorted([images[k] | bit for k in holders[p] if opens[k] | inside == inside])
        level = set()
        for done, images, p in kept:
            images = list(images)
            for k in holders[p]:
                images[k] |= bit
            level.add((done | 1 << p, tuple(images)))
    return tuple(encoding)
