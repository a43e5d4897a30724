"""Exhaustive verification suites over the small-space enumeration, plus the
search for non-homeomorphic space pairs with isomorphic regular-open lattices.

A suite is data: a function from a labeled space to its group of instances,
checked in one call, and the groups that need no space. ``run_suites`` runs
several suites in one pass over the enumeration up to a ground-size bound:
for each space in turn it runs every suite's group for that space, sharing
the space's operator tables, dense sets and lattice among them, and then
drops those; the groups without a space run after the walk. It counts every
instance, counts a ``RegOpenError`` raised inside a check as a failure, and
reports each suite deterministically: its groups come in a fixed order, and
its failures keep the order of its instances. ``run_suite`` runs one suite
the same way. Each call makes one ``SpaceContext``, which holds what the
run shares and is dropped when the call returns: within it, a verdict is
checked once per distinct key of all that its check reads.

A passing instance costs only the reads its claim needs: the per-space
checks read their items from columns (``_Product``) and the space's
tables, and build an item's tuple and its report fields only when it
fails.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import cofinite as cof
from .enumeration import BUDGETS, EnumerationSpec, canonical_classes, check_budget, dense_masks, enumerate_topologies
from .errors import NotABasis, NotDense, RegOpenError, UnknownSuite
from .ideals import ideal_open_correspondence, ideals, ultrafilters
from .lattice import (
    RegularOpenLattice,
    check_r_lattice,
    find_order_isomorphisms,
    ge_relation,
    regular_open_lattice,
    relation_pairs,
    transport_relation,
    upward_kept,
    well_inside_rows,
)
from .metric import FiniteMetric, combine_metric
from .record import Record
from .serialize import space_to_dict
from .stone import stone_space
from .topology import OperatorTables, Topology, iter_bits, set_of, submasks
from .transfer import (
    LatticeIsoWitness,
    check_basis,
    dense_rows,
    recover_tau,
    restriction_maps,
    separations_failing,
    subspace_key,
    traces_losing_closure,
)

# A failed instance's result: a message or a dict of report fields.
Result = str | dict
_POINT_SET_FIELDS = frozenset({"dense", "open", "u", "v", "subset"})
_UNSEEN = object()


class Group(NamedTuple):
    """Instances that share fields, usually those of one space, checked in
    one call as ``check(ctx, group)``.

    ``shared`` holds the fields they share, ``names`` the names of each
    instance's own fields and ``items`` their values, one tuple per
    instance, in order: a list, or a ``_Product`` of value columns whose
    tuples are made only when asked for. The check returns the failing
    items as (position in ``items``, result) pairs, positions ascending.
    Point-set fields are bitmasks; a failure lists their points.
    """

    shared: dict
    names: tuple[str, ...]
    items: Sequence[tuple]
    check: GroupCheck

    def fields(self, item: tuple) -> dict:
        return {**self.shared, **dict(zip(self.names, item))}


GroupCheck = Callable[["SpaceContext", Group], list[tuple[int, Result]]]


class _Product:
    """The tuples of ``itertools.product(*columns)`` as a sequence, in
    row-major order, each made only when it is asked for: a group check
    reads the ``columns``, and a report reads the tuples of failed items."""

    __slots__ = ("columns",)

    def __init__(self, *columns: Sequence[int]):
        self.columns = columns

    def __len__(self) -> int:
        return math.prod(map(len, self.columns))

    def __getitem__(self, pos: int) -> tuple:
        size = len(self)
        if not -size <= pos < size:
            raise IndexError("item index out of range")
        pos %= size
        item = []
        for column in reversed(self.columns):
            pos, i = divmod(pos, len(column))
            item.append(column[i])
        return tuple(reversed(item))

    def __iter__(self) -> Iterator[tuple]:
        return itertools.product(*self.columns)


def _each(check: Callable[..., Result | None]) -> GroupCheck:
    """The group check that calls ``check(ctx, *item, **shared)`` on each
    item: the item's own fields by position, in the order of ``names``, and
    the shared fields by name. ``check`` returns None when the claim holds,
    else a result; a ``RegOpenError`` it raises is the failure of that item
    alone."""

    def check_each(ctx: SpaceContext, group: Group) -> list[tuple[int, Result]]:
        failed = []
        shared = group.shared
        for pos, item in enumerate(group.items):
            try:
                result = check(ctx, *item, **shared)
            except RegOpenError as exc:
                result = str(exc)
            if result is not None:
                failed.append((pos, result))
        return failed

    return check_each


_ONE_ITEM = ((),)


def _one(check: Callable[..., Result | None]) -> Group:
    """A group of the single instance ``check(ctx)``, with no fields."""
    return Group({}, (), _ONE_ITEM, _each(check))


class Suite(NamedTuple):
    """A suite as data. ``space(ctx, t)`` gives the group of instances of
    the space ``t``, or None when it has none; ``rest(ctx, bound)``
    gives the groups that need no space. A run checks each space's group
    when its walk reaches the space, and the rest after the walk."""

    space: Callable[[SpaceContext, Topology], Group | None] | None = None
    rest: Callable[[SpaceContext, int], Iterable[Group]] | None = None


class SuiteReport(Record):
    """A suite's result; ``run_suites`` adds to its counts as it checks."""

    __slots__ = ("suite", "bound", "instances", "failures", "wall_time_s")
    # The counts change during the run, so a report is assignable and unhashable.
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, suite: str, bound: int, instances: int, failures: list[dict], wall_time_s: float = 0.0):
        self._set(suite, bound, instances, failures, wall_time_s)

    @property
    def passed(self) -> bool:
        # A run that checked nothing has shown nothing.
        return self.instances > 0 and not self.failures

    def to_dict(self) -> dict:
        # Timing is volatile, so the byte-identical report leaves it out.
        return {
            "schema": 1,
            "suite": self.suite,
            "bound": self.bound,
            "instances": self.instances,
            "failures": self.failures,
            "passed": self.passed,
        }


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


class SpaceContext:
    """What the suites of one run share while it walks the labeled spaces.
    ``run_suites`` makes one per call and drops it when the call returns.

    ``spaces(bound)`` walks the spaces on 1..bound points in enumeration
    order, and the space it has yielded last is the current one. The values
    of the current space are built on first request and dropped when the
    walk moves on: its operator tables (``tables``), dense masks
    (``dense``, read from the cl table), regular opens (``regular_opens``)
    and lattice (``lattice``). Asked for another space, each is built
    again, not kept.

    The context holds the spaces with fewer points than the bound, and
    their lattices, for the dense-subspace lookups: the subspace on a dense
    set of fewer points is one of them, and that on every point is the
    current space. So it holds one space of the largest size at a time. A
    finite space is determined by its least neighbourhoods, so spaces and
    lattices are keyed by them, and ``subspace`` and the ux0 check find
    those held under their traces on a dense set
    (``transfer.subspace_key``). It is not thread-safe.

    It remembers verdicts (``verdict``), each under a key of everything its
    check reads, so each is exact: a lattice's index tables for rlattice's
    axioms and for stone, the order and the well-inside rows for rlattice's
    monotonicity scan, both order tables and both maps for ux0, and a dense
    subspace's least neighbourhoods and basis for recovery's basis check.
    It keeps a verdict, never a witness or a lattice, and never a raise.

    It also keeps a record of each regular-open family (the family fixes a
    finite RO(X)): its first passing build, without a space. A later space
    whose join and complement, read from its tables, equal the record's
    (``_same_operations``) shares all of the record's tables, and so its
    Boolean verdict; otherwise it gets a full build,
    ``RegularOpenLattice(t)``, which builds the space's tables again. The
    records' tables are interned: the 522 families with n <= 5 have 21
    shapes.
    """

    def __init__(self):
        self._spaces: dict[tuple[int, ...], Topology] = {}
        self._lattices: dict[tuple[int, ...], RegularOpenLattice] = {}
        self._current: tuple[int, ...] | None = None
        self._values: dict[str, object] = {}
        self._verdicts: dict[tuple, object] = {}
        self._records: dict[tuple[int, ...], RegularOpenLattice] = {}
        self._shapes: dict[tuple, tuple] = {}

    def verdict(self, key: tuple, check: Callable[[], object]):
        """``check()``, remembered under ``key``, which holds everything
        the check reads."""
        value = self._verdicts.get(key, _UNSEEN)
        if value is _UNSEEN:
            value = self._verdicts[key] = check()
        return value

    def spaces(self, bound: int) -> Iterator[Topology]:
        """The labeled spaces on 1..bound points, in enumeration order, each
        the current space until the next is yielded. Each is enumerated as
        it is walked, and those on fewer than ``bound`` points are held.
        The specs opt in: ``run_suites`` checked
        ``bound`` against the "enumerate" row of ``enumeration.BUDGETS``,
        the row each spec checks again."""
        for n in range(1, bound + 1):
            for t in enumerate_topologies(EnumerationSpec(n, allow_n5=True)):
                key = t.min_nbhd_masks
                if n < bound:
                    self._spaces[key] = t
                self._visit(key)
                yield t
        self._visit(None)

    def _visit(self, key: tuple[int, ...] | None) -> None:
        self._current = key
        self._values = {}

    def _own(self, t: Topology, name: str, build: Callable[[], object]):
        """``build()``, kept under ``name`` while ``t`` is the current space."""
        if t.min_nbhd_masks != self._current:
            return build()
        value = self._values.get(name)
        if value is None:
            value = self._values[name] = build()
        return value

    def tables(self, t: Topology) -> OperatorTables:
        """cl, int and reg of every mask of ``t``: ``Topology.operator_tables()``."""
        return self._own(t, "tables", t.operator_tables)

    def dense(self, t: Topology) -> list[int]:
        """The dense masks of ``t``: ``enumeration.dense_masks`` on the held cl table."""
        return self._own(t, "dense", lambda: dense_masks(t, self.tables(t)[0]))

    def regular_opens(self, t: Topology) -> tuple[int, ...]:
        """The regular opens of ``t``, read from its reg table: not from its
        lattice, so that a failed lattice build fails only the suites that
        use the lattice. They key the family records."""
        reg = self.tables(t)[2]
        return self._own(t, "regular opens", lambda: tuple([m for m in t.open_masks if reg[m] == m]))

    def lattice(self, t: Topology) -> RegularOpenLattice:
        """The regular-open lattice of ``t``, shared with the run's record
        of its family where that matches; that of a held space is kept with
        it. A build that fails is not kept, so each request raises again."""
        key = t.min_nbhd_masks
        lat = self._lattices.get(key)
        if lat is None:
            lat = self._own(t, "lattice", lambda: self._family_lattice(t))
            if key in self._spaces:
                self._lattices[key] = lat
        return lat

    def _family_lattice(self, t: Topology) -> RegularOpenLattice:
        """The lattice of ``t``, shared with its family's record or built."""
        masks, tables = self.regular_opens(t), self.tables(t)
        record = self._records.get(masks)
        if record is not None and _same_operations(record, t.full_mask, tables):
            return record._shared(t)
        lat = RegularOpenLattice(t)
        if record is None:
            intern = self._shapes.setdefault
            lat.up, lat.down = intern(lat.up, lat.up), intern(lat.down, lat.down)
            lat.meet, lat.join = intern(lat.meet, lat.meet), intern(lat.join, lat.join)
            lat.complement = intern(lat.complement, lat.complement)
            self._records[masks] = lat._shared(None)
        return lat

    def subspace(self, t: Topology, dense: int) -> Topology:
        """The subspace of ``t`` on ``dense``, a mask from ``dense_masks(t)``:
        ``t`` itself, else the held space with its least neighbourhoods, else new."""
        if dense == t.full_mask:
            return t
        key = subspace_key(t, dense, dense_rows(dense))
        return self._spaces.get(key) or t.subspace(dense)[0]


# -- individual suites ---------------------------------------------------------


def _check_ux0(ctx: SpaceContext, group: Group) -> list[tuple[int, Result]]:
    """``restriction_isomorphism`` for every dense mask Y, with one read of
    Y's rows (``transfer.dense_rows``) for the subspace's key and the maps.
    The subspace's lattice is that of the space on Y = X, else the lattice
    held under the key, else ``ctx.lattice(ctx.subspace(t, Y))``; the maps
    come from ``restriction_maps`` with the space's reg table. A pair of
    maps the run has passed between the same two orders is not checked
    again: the verdict is remembered as ``SpaceContext.verdict`` does."""
    t = group.shared["space"]
    up, reg = ctx.lattice(t), ctx.tables(t)[2]
    full, held, verdicts = t.full_mask, ctx._lattices, ctx._verdicts
    (dense,) = group.items.columns
    failed = []
    for pos, y in enumerate(dense):
        try:
            rows = dense_rows(y)
            if y == full:
                down = up
            else:
                down = held.get(subspace_key(t, y, rows)) or ctx.lattice(ctx.subspace(t, y))
            forward, backward = restriction_maps(up, down, y, rows, reg)
            key = "ux0", up.up, down.up, forward, backward
            if key not in verdicts:
                LatticeIsoWitness(up, down, forward, backward)
                verdicts[key] = None
        except RegOpenError as exc:
            failed.append((pos, str(exc)))
    return failed


def _space_ux0(ctx: SpaceContext, t: Topology) -> Group:
    return Group({"space": t}, ("dense",), _Product(ctx.dense(t)), _check_ux0)


def _check_denso(ctx: SpaceContext, group: Group) -> list[tuple[int, Result]]:
    # dense_masks checked the density, and the opens come from the space
    cl = ctx.tables(group.shared["space"])[0]
    return [
        (pos, "closure of the open differs from closure of its dense trace")
        for pos in traces_losing_closure(cl, *group.items.columns)
    ]


def _space_denso(ctx: SpaceContext, t: Topology) -> Group:
    return Group({"space": t}, ("dense", "open"), _Product(ctx.dense(t), t.open_masks), _check_denso)


def _check_uvw(ctx: SpaceContext, group: Group) -> list[tuple[int, Result]]:
    t = group.shared["space"]
    cl, _, reg = ctx.tables(t)
    return separations_failing(t, cl, reg, group.items)


def _space_uvw(ctx: SpaceContext, t: Topology) -> Group:
    pairs = [(u, v) for u, v in itertools.product(ctx.regular_opens(t), repeat=2) if u & ~v]
    return Group({"space": t}, ("u", "v"), pairs, _check_uvw)


def _check_regularity(ctx: SpaceContext, group: Group) -> list[tuple[int, Result]]:
    t = group.shared["space"]
    cl, _, reg = ctx.tables(t)
    opens = t.open_masks
    # every open inside c = cl(A) sits inside A iff their union does; the
    # union depends on c alone, so the opens are scanned once per closure
    inside: dict[int, int] = {}
    failed = []
    # both routes ask for an open set first, so a subset that is not open
    # passes; the subsets are the masks in order, so A's position is A
    for a in opens:
        direct = reg[a] == a
        c = cl[a]
        union = inside.get(c)
        if union is None:
            union = 0
            for v in opens:
                if v & ~c == 0:
                    union |= v
            inside[c] = union
        via_opens = union | a == a
        if direct != via_opens:
            failed.append((a, f"fixpoint route says {direct}, open-scan route says {via_opens}"))
    return failed


def _space_regularity(ctx: SpaceContext, t: Topology) -> Group:
    """Both routes to 'regular open' agree on every subset of the space:
    the fixpoint definition, reg(A) = A for an open A, read from the
    space's reg table, versus openness plus 'every open inside the closure
    already sits inside the set', a scan of the opens per distinct closure."""
    return Group({"space": t}, ("subset",), _Product(range(t.full_mask + 1)), _check_regularity)


def _check_recovery(ctx: SpaceContext, dense: int, space: Topology, basis: tuple[int, ...]) -> str | None:
    """What ``point_recovery`` checks for the dense mask Y, on masks.
    ``basis`` is the space's basis as ``check_basis`` returned it when the
    group was made. The subspace's basis is checked through
    ``SpaceContext.verdict``, once per run for each (least neighbourhoods,
    basis); a raise is not remembered, so it fails each of its instances.
    On every point the subspace is the space, with ``basis``. Then
    ``recover_tau`` checks the iso, and tau must be the inclusion of Y."""
    if ctx.tables(space)[0][dense] != space.full_mask:
        raise NotDense(f"{sorted(set_of(dense))} is not dense in the ambient space")
    sub = ctx.subspace(space, dense)
    points, _, trace = dense_rows(dense)
    if sub is space:
        sub_basis = basis
    else:
        by = tuple([m for m in ctx.lattice(sub).payload_masks if m])
        sub_basis = ctx.verdict(("basis", sub.min_nbhd_masks, by), lambda: check_basis(sub, by))
    tau = recover_tau(space, basis, sub, sub_basis, {u: trace[u & dense] for u in basis})
    for x, yy in tau.items():
        if not (0 <= yy < len(points) and points[yy] == x):
            return f"recovered {x} -> {yy}, expected the dense-set inclusion"
    return None


def _space_recovery(ctx: SpaceContext, t: Topology) -> Group | None:
    """Recovery from the basis isomorphism induced by dense restriction must
    send each recovered point to its own copy. The construction quantifies
    over given bases, so the spaces are those whose nonempty regular opens
    form a basis; then so do those of each dense subspace, whose least
    neighbourhoods are traces of regular opens. The space's basis is
    checked here, once, and handed to each instance's check."""
    try:
        basis = check_basis(t, [m for m in ctx.regular_opens(t) if m])
    except NotABasis:
        return None
    check = functools.partial(_check_recovery, basis=basis)
    return Group({"space": t}, ("dense",), _Product(ctx.dense(t)), _each(check))


def _one_per_space(check: Callable[..., Result | None]) -> Callable[[SpaceContext, Topology], Group]:
    """The ``Suite.space`` whose group is the one instance ``check(ctx, space=t)``."""
    each = _each(check)
    return lambda ctx, t: Group({"space": t}, (), _ONE_ITEM, each)


def _check_boolean(ctx: SpaceContext, space: Topology) -> None:
    # Building the lattice is the Boolean test: check_boolean_algebra.
    ctx.lattice(space)


def _check_rlattice(ctx: SpaceContext, space: Topology) -> str | dict | None:
    lat = ctx.lattice(space)
    key = "rlattice", lat.up, lat.meet, lat.join, lat.bottom
    report = ctx.verdict(key, lambda: check_r_lattice(lat, ge_relation(lat)))
    if not report.passed:
        return {"report": report.to_dict()}
    # well-inside as rows from the cl table; the scan reads them and the
    # order (down is its transpose), and its message names only indices
    cl = ctx.tables(space)[0]
    rows = well_inside_rows(lat, [cl[u] for u in lat.payload_masks])
    return ctx.verdict(("well-inside", lat.up, tuple(rows)), lambda: _monotonicity(lat, rows))


def _monotonicity(lat: RegularOpenLattice, rows: list[int]) -> str | None:
    """The message for the first pair (f, g) of the relation with rows
    ``rows``, in lexicographic order, that is not upward or downward
    monotone, with its first witness h, else None."""
    up, down = lat.up, lat.down
    for f, row in enumerate(rows):
        # (f, g) fails iff some h >= f lacks g or some h <= g is not in row
        lost = row & ~upward_kept(lat, rows, f)
        for g in iter_bits(row):
            if lost >> g & 1 or down[g] & ~row:
                for h in range(lat.m):
                    if up[f] >> h & 1 and not rows[h] >> g & 1:
                        return f"well-inside not upward monotone at ({h},{f},{g})"
                    if down[g] >> h & 1 and not row >> h & 1:
                        return f"well-inside not downward monotone at ({f},{g},{h})"
    return None


def _check_stone(ctx: SpaceContext, space: Topology) -> str | None:
    lat = ctx.lattice(space)
    key = "stone", lat.up, lat.meet, lat.join, lat.bottom
    return ctx.verdict(key, lambda: _stone_verdict(ctx, lat))


def _stone_verdict(ctx: SpaceContext, lat: RegularOpenLattice) -> str | None:
    # stone_space reads the order only; the clopen lattice is discrete(k)'s
    st = stone_space(lat)
    if len(st.atoms) != len(lat.atoms()) or st.space.n != len(st.atoms):
        return "point count differs from atom count"
    clopen = ctx.lattice(st.space)
    if sorted(st.space.to_mask(s) for s in st.to_clopen) != list(clopen.payload_masks):
        return "image is not the full clopen algebra"
    return None


def _check_ultrafilters(ctx: SpaceContext, powerset: int) -> str | None:
    ufs = ultrafilters(powerset)
    if len(ufs) != powerset:
        return f"expected {powerset} ultrafilters, found {len(ufs)}"
    return None


def _ultrafilter_groups(ctx: SpaceContext, bound: int) -> Iterator[Group]:
    powersets = [(n,) for n in range(1, BUDGETS["ideals"][0] + 1)]
    yield Group({}, ("powerset",), powersets, _each(_check_ultrafilters))


# The brute-force cross-check filters all 2^(2^n - 1) families of nonempty
# subsets: 32768 at n = 4, 2^31 at n = 5.
_BRUTE_FORCE_IDEALS_MAX = 4


def _brute_force_ideals(n: int) -> set[frozenset]:
    """Every family of subsets of n points that holds the empty set and is
    closed downward and under pairwise union, found by testing each of the
    2^(2^n - 1) families. A family is an int with bit s for the subset s,
    and ``below[s]`` has the bits of the subsets of s; only the families
    found become sets."""
    size = 1 << n
    below = [sum(1 << t for t in submasks(s)) for s in range(size)]
    found = set()
    for picks in range(1 << (size - 1)):
        family = picks << 1 | 1
        rest = family
        while rest:  # down-closure, member by member from the smallest mask
            low = rest & -rest
            if below[low.bit_length() - 1] & ~family:
                break
            rest ^= low
        else:
            members = list(iter_bits(family))
            if all(family >> (a | b) & 1 for a in members for b in members):
                found.add(frozenset(map(set_of, members)))
    return found


def _check_ideal_enumeration(ctx: SpaceContext, powerset: int) -> str | None:
    if {i.members for i in ideals(powerset)} != _brute_force_ideals(powerset):
        return "principal construction disagrees with brute filter"
    return None


def _check_ideal_correspondence(ctx: SpaceContext, powerset: int) -> None:
    ideal_open_correspondence(powerset)


def _ideal_groups(ctx: SpaceContext, bound: int) -> Iterator[Group]:
    largest = min(bound, BUDGETS["ideals"][0])
    brute = [(n,) for n in range(1, min(largest, _BRUTE_FORCE_IDEALS_MAX) + 1)]
    yield Group({}, ("powerset",), brute, _each(_check_ideal_enumeration))
    powersets = [(n,) for n in range(1, largest + 1)]
    yield Group({}, ("powerset",), powersets, _each(_check_ideal_correspondence))


def _check_cofinite_family(ctx: SpaceContext) -> str | None:
    family, traces = cof.regular_opens()
    if set(family) != {cof.EMPTY, cof.FULL}:
        return "regular-open family is not the two-element algebra"
    for tr in traces:
        if tr.queried not in family and tr.regularization != cof.FULL:
            return f"nonempty proper open {tr.queried!r} did not regularize to the full set"
    return None


# The cofinite window: the 64 symbolic sets with supports in {0..4}. A set's
# membership is a mask: bit x for the window label x, and bit _WINDOW for
# every label outside the window at once.
_WINDOW = 5
_OUTSIDE = 1 << _WINDOW
_EVERY = 2 * _OUTSIDE - 1


def _window_set(member: int) -> cof.SymbolicSet:
    """The set with membership ``member``: cofinite iff the outside bit is
    set, its support the window labels whose bit differs from that bit."""
    if member & _OUTSIDE:
        return cof.SymbolicSet(cof.COFINITE, set_of(_EVERY ^ member))
    return cof.SymbolicSet(cof.FINITE, set_of(member))


def _window_results() -> Iterator[tuple]:
    """(operation, its arguments, its result, the result membership gives)
    for each operation on the window's sets and on each ordered pair: the
    Boolean ones are bitwise; a finite set has interior ∅ and is its own
    closure, a cofinite set is its own interior and has closure X."""
    sets = [_window_set(member) for member in range(_EVERY + 1)]
    empty, full = sets[0], sets[_EVERY]
    for a, s in enumerate(sets):
        cofinite = a & _OUTSIDE
        yield "complement", (s,), cof.complement(s), sets[a ^ _EVERY]
        yield "interior", (s,), cof.interior(s), s if cofinite else empty
        yield "closure", (s,), cof.closure(s), full if cofinite else s
        for b, t in enumerate(sets):
            yield "union", (s, t), cof.union(s, t), sets[a | b]
            yield "intersect", (s, t), cof.intersect(s, t), sets[a & b]
            yield "is_subset", (s, t), cof.is_subset(s, t), not a & ~b


def _check_cofinite_window(ctx: SpaceContext) -> dict | None:
    # Results are compared by equality, so a stray label outside the window fails too.
    for name, args, got, want in _window_results():
        if got != want:
            return {"error": f"{name} gives {got!r}, membership gives {want!r}", "sets": list(map(repr, args))}
    return None


def _cofinite_groups(ctx: SpaceContext, bound: int) -> Iterator[Group]:
    yield _one(_check_cofinite_family)
    yield _one(_check_cofinite_window)


# The metric grid: the 24 three-point metrics with distances in {1, 2, 3},
# each given as (d01, d02, d12). The triangle inequality binds on 1 + 1 = 2
# and 1 + 2 = 3. _DISTINCT is the grid metric whose distances all differ.
_GRID = tuple(d for d in itertools.product((1, 2, 3), repeat=3) if 2 * max(d) <= sum(d))
_DISTINCT = (1, 2, 3)


def _check_metric(ctx: SpaceContext) -> dict | None:
    """``combine_metric`` against its definition, d(i, j) = max(dx(i, j),
    dy(τi, τj)): every pair of grid metrics with τ = id, which covers every
    pullback dy∘τ since the grid is closed under relabelling, and every τ in
    S₃ with dy = _DISTINCT."""
    rows = {(a, b, c): ((0, a, b), (a, 0, c), (b, c, 0)) for a, b, c in _GRID}
    metrics = {d: FiniteMetric(rows[d]) for d in _GRID}
    cases = [(dx, dy, (0, 1, 2)) for dx in _GRID for dy in _GRID]
    cases += [(dx, _DISTINCT, tau) for dx in _GRID for tau in itertools.permutations(range(3))]
    for dx, dy, tau in cases:
        try:
            dz = combine_metric(metrics[dx], metrics[dy], tau)  # constructor scans all axioms
        except RegOpenError as exc:
            error = str(exc)
        else:
            rx, ry = rows[dx], rows[dy]
            want = tuple(tuple(max(rx[i][j], ry[tau[i]][tau[j]]) for j in range(3)) for i in range(3))
            if dz.dist == want:
                continue
            error = "combined metric is not the pointwise max"
        return {"error": error, "dx": list(dx), "dy": list(dy), "tau": list(tau)}
    return None


def _metric_groups(ctx: SpaceContext, bound: int) -> Iterator[Group]:
    yield _one(_check_metric)


SUITES: dict[str, Suite] = {
    "ux0": Suite(_space_ux0),
    "denso": Suite(_space_denso),
    "uvw": Suite(_space_uvw),
    "regularity": Suite(_space_regularity),
    "recovery": Suite(_space_recovery),
    "boolean": Suite(_one_per_space(_check_boolean)),
    "rlattice": Suite(_one_per_space(_check_rlattice)),
    "stone": Suite(_one_per_space(_check_stone), _ultrafilter_groups),
    "ideals": Suite(rest=_ideal_groups),
    "cofinite": Suite(rest=_cofinite_groups),
    "metric": Suite(rest=_metric_groups),
}


def _failure(fields: dict, result: Result) -> dict:
    """The report of a failed instance: its fields, readable, and the result."""
    failure = {}
    for key, value in fields.items():
        if isinstance(value, Topology):
            value = space_to_dict(value)
        elif key in _POINT_SET_FIELDS:
            value = sorted(set_of(value))
        failure[key] = value
    failure.update({"error": result} if isinstance(result, str) else result)
    return failure


def _check(ctx: SpaceContext, group: Group | None, report: SuiteReport) -> None:
    """Check ``group`` and add its instances and failures to ``report``."""
    if group is None:
        return
    items = group.items
    count = len(items)
    if not count:
        return
    report.instances += count
    try:
        failed = group.check(ctx, group)
    except RegOpenError as exc:
        failed = [(pos, str(exc)) for pos in range(count)]
    if failed:
        report.failures.extend(_failure(group.fields(items[pos]), result) for pos, result in failed)


def _charge(report: SuiteReport, mark: float) -> float:
    """Add the seconds since ``mark`` to ``report`` and return the clock's reading."""
    now = time.perf_counter()
    report.wall_time_s += now - mark
    return now


def run_suites(names: Sequence[str], bound: int = 3, *, allow_n5: bool = False) -> list[SuiteReport]:
    """Run the named suites in one walk over the enumeration up to ``bound``
    points, and report each, in the order of ``names``.

    ``bound`` and ``allow_n5`` are checked first against the row of the
    walk, the "enumerate" row of ``enumeration.BUDGETS``, for every suite,
    also those that walk no space. The walk visits each space once and runs
    the group of every suite for it, in the order of ``names``, sharing the
    space's values through one new ``SpaceContext``, which the call drops
    when it returns; the groups that need no space run after the walk,
    suite by suite, on the same context. Each group
    is built, checked and freed before the clock is read, and a suite's
    ``wall_time_s`` is the sum of the time since the last reading over its
    groups, so the first suite of a space also carries enumerating it. A
    ``RegOpenError`` that escapes a group's check fails every instance the
    check was given, with its message; one raised while generating groups
    propagates.
    """
    for name in names:
        if name not in SUITES:
            raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    check_budget("enumerate", bound, allow_n5)
    context = SpaceContext()
    reports = [SuiteReport(suite=name, bound=bound, instances=0, failures=[]) for name in names]
    chosen = [(SUITES[name], report) for name, report in zip(names, reports)]
    per_space = [(suite.space, report) for suite, report in chosen if suite.space]
    mark = time.perf_counter()
    if per_space:
        for t in context.spaces(bound):
            for group_of, report in per_space:
                # The group is a temporary: it is freed when _check returns.
                _check(context, group_of(context, t), report)
                mark = _charge(report, mark)
    for suite, report in chosen:
        if suite.rest:
            for group in suite.rest(context, bound):
                _check(context, group, report)
                del group
                mark = _charge(report, mark)
    return reports


def run_suite(name: str, bound: int = 3, *, allow_n5: bool = False) -> SuiteReport:
    """Run one named suite: ``run_suites([name], ...)``, with the same arguments."""
    return run_suites([name], bound, allow_n5=allow_n5)[0]


# -- counterexample gallery ------------------------------------------------------


class CounterexamplePair(NamedTuple):
    """Two non-homeomorphic spaces with order-isomorphic regular-open lattices.

    ``iso`` is the lexicographically first order isomorphism; the two
    topologically induced well-inside relations, as rows, are reported
    along with whether the iso (or any of the k! isos, one per
    permutation of the k atoms) carries one onto the other.
    """

    t1: Topology
    t2: Topology
    iso: tuple[int, ...]
    rel1: tuple[int, ...]
    rel2: tuple[int, ...]
    same_under_reported_iso: bool
    same_under_some_iso: bool

    def to_dict(self) -> dict:
        return {
            "space1": space_to_dict(self.t1),
            "space2": space_to_dict(self.t2),
            "iso": list(self.iso),
            "well_inside_1": sorted([f, g] for f, g in relation_pairs(self.rel1)),
            "well_inside_2": sorted([f, g] for f, g in relation_pairs(self.rel2)),
            "same_under_reported_iso": self.same_under_reported_iso,
            "same_under_some_iso": self.same_under_some_iso,
        }


def counterexample_search(max_n: int) -> list[CounterexamplePair]:
    """All pairs of homeomorphism-class representatives (n <= max_n) whose
    regular-open lattices are order isomorphic, in canonical order. Those
    are the pairs whose lattices have the same size: each is Boolean, so
    two of 2^k elements are isomorphic through each permutation of the k
    atoms (``find_order_isomorphisms``)."""
    check_budget("counterexamples", max_n)
    reps = canonical_classes(max_n)
    lats = [regular_open_lattice(t) for t in reps]
    closures = [[t.closure_mask(u) for u in lat.payload_masks] for t, lat in zip(reps, lats)]
    rels = [tuple(well_inside_rows(lat, cl)) for lat, cl in zip(lats, closures)]
    out = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if lats[i].m != lats[j].m:
                continue
            isos = find_order_isomorphisms(lats[i], lats[j])
            reported = isos[0]
            same_reported = transport_relation(rels[i], reported) == rels[j]
            same_some = any(transport_relation(rels[i], phi) == rels[j] for phi in isos)
            out.append(
                CounterexamplePair(
                    reps[i], reps[j], reported, rels[i], rels[j], same_reported, same_some
                )
            )
    return out
