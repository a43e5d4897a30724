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
the same way. Within a run, a verdict is checked once per distinct key of
all that its check reads (see ``SpaceContext``).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import cofinite as cof
from .enumeration import BUDGETS, EnumerationSpec, canonical_classes, check_budget, dense_masks, enumerate_topologies
from .errors import BadEnumerationSpec, BadSuiteArgument, NotABasis, NotDense, RegOpenError, UnknownSuite
from .ideals import ideal_open_correspondence, ideals, ultrafilters
from .lattice import (
    PairRelation,
    RegularOpenLattice,
    _same_operations,
    check_r_lattice,
    find_order_isomorphisms,
    ge_relation,
    regular_open_lattice,
    transport_relation,
    upward_kept,
    well_inside,
    well_inside_rows,
)
from .metric import FiniteMetric, combine_metric
from .serialize import canonical_json, space_to_dict
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
    instance, in order. The check returns the failing items as (position in
    ``items``, result) pairs, positions ascending. Point-set fields are
    bitmasks; a failure lists their points.
    """

    shared: dict
    names: tuple[str, ...]
    items: Sequence[tuple]
    check: GroupCheck

    def fields(self, item: tuple) -> dict:
        return {**self.shared, **dict(zip(self.names, item))}


GroupCheck = Callable[["SpaceContext", Group], list[tuple[int, Result]]]


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


def _one(check: Callable[..., Result | None], **shared) -> Group:
    """A group of the single instance with fields ``shared``."""
    return Group(shared, (), [()], _each(check))


class Suite(NamedTuple):
    """A suite as data. ``space(ctx, t)`` gives the group of instances of
    the space ``t``, or None when it has none; ``rest(ctx, bound)``
    gives the groups that need no space. A run checks each space's group
    when its walk reaches the space, and the rest after the walk."""

    space: Callable[[SpaceContext, Topology], Group | None] | None = None
    rest: Callable[[SpaceContext, int], Iterable[Group]] | None = None


@dataclass
class SuiteReport:
    suite: str
    bound: int
    instances: int
    failures: list[dict]
    wall_time_s: float = 0.0
    schema: int = 1

    @property
    def passed(self) -> bool:
        # A run that checked nothing has shown nothing.
        return self.instances > 0 and not self.failures

    def to_dict(self) -> dict:
        # Timing is volatile, so the byte-identical report leaves it out.
        return {
            "schema": self.schema,
            "suite": self.suite,
            "bound": self.bound,
            "instances": self.instances,
            "failures": self.failures,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


class _HeldTables(Topology):
    """A copy of a space whose ``operator_tables`` are the tables a context
    holds for it: its full lattice build reads them and builds none."""

    __slots__ = ("tables",)

    def operator_tables(self) -> OperatorTables:
        return self.tables


class SpaceContext:
    """What the suites of a run share while it walks the labeled spaces.

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
    current space. So it holds one space of the largest size at a time, and
    a context may serve several runs. A finite space is determined by its
    least neighbourhoods, so spaces and lattices are keyed by them, and
    ``subspace`` and ``dense_lattice`` find those held under their traces
    on a dense set (``transfer.subspace_key``). It is not thread-safe.

    For one run it remembers verdicts (``verdict``), each under a key of
    everything its check reads, so each is exact: a lattice's index tables
    for rlattice's axioms and for stone, the order and the well-inside rows
    for rlattice's monotonicity scan, both order tables and both maps for
    ux0, and a dense subspace's least neighbourhoods and basis for
    recovery's basis check. It keeps a verdict, never a witness or a
    lattice, and never a raise.

    It also keeps, for the run, a record of each regular-open family (the
    family fixes a finite RO(X)): its first passing build, without a space.
    A later space whose join and complement, read from its tables, equal
    the record's shares all of the record's tables, and so its Boolean
    verdict; otherwise it gets a full build, ``RegularOpenLattice(t)``,
    which reads the held tables. The records' tables are interned: the 522
    families with n <= 5 have 21 shapes.
    """

    def __init__(self):
        self._spaces: dict[int, dict[tuple[int, ...], Topology]] = {}
        self._lattices: dict[tuple[int, ...], RegularOpenLattice] = {}
        self._current: tuple[int, ...] | None = None
        self._values: dict[str, object] = {}
        self.start_run()

    def start_run(self) -> None:
        """Remember no verdict and no family: ``run_suites`` calls this as
        each run starts."""
        self._verdicts: dict[tuple, object] = {}
        self._records: dict[tuple[int, ...], RegularOpenLattice] = {}
        self._shapes: dict[tuple, tuple] = {}

    def verdict(self, key: tuple, check: Callable[[], object]):
        """``check()``, remembered for the run under ``key``, which holds
        everything the check reads."""
        value = self._verdicts.get(key, _UNSEEN)
        if value is _UNSEEN:
            value = self._verdicts[key] = check()
        return value

    def spaces(self, bound: int) -> Iterator[Topology]:
        """The labeled spaces on 1..bound points, in enumeration order, each
        the current space until the next is yielded. Those on fewer than
        ``bound`` points are held; those on ``bound`` points are enumerated
        as they are walked. The specs opt in: ``run_suites`` checked
        ``bound`` against ``enumeration.BUDGETS``."""
        for n in range(1, bound + 1):
            layer = self._spaces.get(n)
            if layer is None:
                layer = enumerate_topologies(EnumerationSpec(n, allow_n5=True))
                if n < bound:
                    layer = self._spaces[n] = {t.min_nbhd_masks: t for t in layer}
            for t in layer.values() if isinstance(layer, dict) else layer:
                self._visit(t.min_nbhd_masks)
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
            if key in self._spaces.get(t.n, ()):
                self._lattices[key] = lat
        return lat

    def _family_lattice(self, t: Topology) -> RegularOpenLattice:
        """The lattice of ``t``, shared with its family's record or built."""
        masks, tables = self.regular_opens(t), self.tables(t)
        record = self._records.get(masks)
        if record is not None and _same_operations(record, t.full_mask, tables):
            return record._shared(t)
        held = _HeldTables.trusted(t.n, t.open_masks)
        held.tables = tables
        lat = RegularOpenLattice(held)
        lat.topology = t
        if record is None:
            intern = self._shapes.setdefault
            lat.up, lat.down = intern(lat.up, lat.up), intern(lat.down, lat.down)
            lat.meet, lat.join = intern(lat.meet, lat.meet), intern(lat.join, lat.join)
            lat.complement = intern(lat.complement, lat.complement)
            self._records[masks] = lat._shared(None)
        return lat

    def dense_lattice(self, t: Topology, dense: int) -> RegularOpenLattice:
        """``lattice(subspace(t, dense))`` in one lookup: the lattice held
        under the subspace's least neighbourhoods, the traces of those of
        ``t`` on ``dense``, when there is one."""
        if dense == t.full_mask:
            return self.lattice(t)
        return self._lattices.get(subspace_key(t, dense)) or self.lattice(self.subspace(t, dense))

    def subspace(self, t: Topology, dense: int) -> Topology:
        """The subspace of ``t`` on ``dense``, a mask from ``dense_masks(t)``:
        ``t`` itself, else the held space with its least neighbourhoods, else new."""
        if dense == t.full_mask:
            return t
        held = self._spaces.get(dense.bit_count(), {}).get(subspace_key(t, dense))
        return held or t.subspace(dense)[0]


# -- individual suites ---------------------------------------------------------


def _check_ux0(ctx: SpaceContext, group: Group) -> list[tuple[int, Result]]:
    """``restriction_isomorphism`` for every dense mask Y: the subspace's
    lattice from one lookup (``SpaceContext.dense_lattice``), and the maps
    from ``restriction_maps`` with the space's reg table. A pair of maps
    the run has passed between the same two orders is not checked again."""
    t = group.shared["space"]
    up, reg = ctx.lattice(t), ctx.tables(t)[2].__getitem__
    failed = []
    for pos, (y,) in enumerate(group.items):
        try:
            down = ctx.dense_lattice(t, y)
            maps = restriction_maps(up, down, y, reg)
            ctx.verdict(("ux0", up.up, down.up, *maps), lambda: _isomorphic(up, down, maps))
        except RegOpenError as exc:
            failed.append((pos, str(exc)))
    return failed


def _isomorphic(up: RegularOpenLattice, down: RegularOpenLattice, maps: tuple) -> None:
    """None if ``LatticeIsoWitness`` passes ``maps``, which it raises on otherwise."""
    LatticeIsoWitness(up, down, *maps)


def _space_ux0(ctx: SpaceContext, t: Topology) -> Group:
    return Group({"space": t}, ("dense",), [(y,) for y in ctx.dense(t)], _check_ux0)


def _check_denso(ctx: SpaceContext, group: Group) -> list[tuple[int, Result]]:
    # dense_masks checked the density, and the opens come from the space
    cl = ctx.tables(group.shared["space"])[0]
    return [
        (pos, "closure of the open differs from closure of its dense trace")
        for pos in traces_losing_closure(cl, group.items)
    ]


def _space_denso(ctx: SpaceContext, t: Topology) -> Group:
    pairs = list(itertools.product(ctx.dense(t), t.open_masks))
    return Group({"space": t}, ("dense", "open"), pairs, _check_denso)


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
    opens, open_set = t.open_masks, t._open_set
    # every open inside c = cl(A) sits inside A iff their union does; the
    # union depends on c alone, so the opens are scanned once per closure
    inside: dict[int, int] = {}
    failed = []
    for pos, (a,) in enumerate(group.items):
        if a not in open_set:
            continue  # both routes ask for an open set first
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
            failed.append((pos, f"fixpoint route says {direct}, open-scan route says {via_opens}"))
    return failed


def _space_regularity(ctx: SpaceContext, t: Topology) -> Group:
    """Both routes to 'regular open' agree on every subset of the space:
    the fixpoint definition, reg(A) = A for an open A, read from the
    space's reg table, versus openness plus 'every open inside the closure
    already sits inside the set', a scan of the opens per distinct closure."""
    subsets = [(a,) for a in range(t.full_mask + 1)]
    return Group({"space": t}, ("subset",), subsets, _check_regularity)


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
    return Group({"space": t}, ("dense",), [(y,) for y in ctx.dense(t)], _each(check))


def _one_per_space(check: Callable[..., Result | None]) -> Callable[[SpaceContext, Topology], Group]:
    """The ``Suite.space`` whose group is the one instance ``check(ctx, space=t)``."""
    return lambda ctx, t: _one(check, space=t)


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


def _walk(ctx: SpaceContext, chosen: Sequence[Suite], bound: int) -> Iterator[tuple[int, Group | None]]:
    """(i, group) for each group of ``chosen[i]``: for each space in turn,
    its group of every suite, in the order of ``chosen``, then the groups
    that need no space, suite by suite. A space without a group for suite i
    gives (i, None). Each suite's groups come in its own order."""
    per_space = [(i, suite.space) for i, suite in enumerate(chosen) if suite.space]
    if per_space:
        for t in ctx.spaces(bound):
            for i, group_of in per_space:
                yield i, group_of(ctx, t)
    for i, suite in enumerate(chosen):
        if suite.rest:
            for group in suite.rest(ctx, bound):
                yield i, group


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


class _Tally:
    """One suite's share of a run: the instances it counted (``total``) and
    checked (``count``), its failures and seconds, and, when it samples, the
    indices of its drawn instances."""

    def __init__(self):
        self.total = self.count = self.offset = 0
        self.failures: list[dict] = []
        self.seconds = 0.0
        self.drawn: list[int] | None = None

    def check(self, ctx: SpaceContext, group: Group) -> None:
        if self.drawn is not None:
            # the drawn global indices that fall in this group's range
            size, offset = len(group.items), self.offset
            first = bisect.bisect_left(self.drawn, offset)
            stop = bisect.bisect_left(self.drawn, offset + size)
            group = group._replace(items=[group.items[i - offset] for i in self.drawn[first:stop]])
            self.offset += size
        items = group.items
        if not items:
            return
        self.count += len(items)
        try:
            failed = group.check(ctx, group)
        except RegOpenError as exc:
            failed = [(pos, str(exc)) for pos in range(len(items))]
        self.failures.extend(_failure(group.fields(items[pos]), result) for pos, result in failed)


def _timed(
    walk: Iterator[tuple[int, Group | None]], tallies: list[_Tally]
) -> Iterator[tuple[_Tally, Group | None]]:
    """``walk`` with each suite's tally for its index. A suite's seconds gain
    the time from the end of the last step to the end of the caller's work on
    its group: so the suite first to ask for a shared value of a space, or
    first after the walk enumerates a space, carries that work."""
    mark = time.perf_counter()
    for i, group in walk:
        yield tallies[i], group
        now = time.perf_counter()
        tallies[i].seconds += now - mark
        mark = now


def run_suites(
    names: Sequence[str],
    bound: int = 3,
    *,
    sample: int | None = None,
    seed: int = 0,
    allow_n5: bool = False,
    context: SpaceContext | None = None,
) -> list[SuiteReport]:
    """Run the named suites in one walk over the enumeration up to ``bound``
    points, and report each, in the order of ``names``.

    ``bound`` and ``allow_n5`` are checked against the "verify" row of
    ``enumeration.BUDGETS`` first. The walk visits each space once and runs
    the group of every suite for it, sharing the space's values through
    ``context`` (a new ``SpaceContext`` without one); the groups that need no
    space run after it. ``sample`` draws a deterministic random subset of
    each suite's instances: a first walk counts them, and a second hands
    each group's check the drawn ones, in order; ``seed`` fixes the draw,
    and nothing else reads it. ``wall_time_s`` is a
    suite's share of the time (see ``_timed``), generating its instances
    as well as checking them. A ``RegOpenError`` that escapes a group's
    check fails every instance the check was given, with its message; one
    raised while generating groups propagates.
    """
    for name in names:
        if name not in SUITES:
            raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    if bound < 1:
        raise BadSuiteArgument(f"bound must be at least 1, not {bound}")
    if sample is not None and sample < 0:
        raise BadSuiteArgument(f"sample size must not be negative, not {sample}")
    check_budget("verify", bound, allow_n5)
    if context is None:
        context = SpaceContext()
    context.start_run()
    chosen = [SUITES[name] for name in names]
    tallies = [_Tally() for _ in names]
    if sample is not None:
        for tally, group in _timed(_walk(context, chosen, bound), tallies):
            if group is not None:
                tally.total += len(group.items)
        for tally in tallies:
            if sample < tally.total:
                tally.drawn = sorted(random.Random(seed).sample(range(tally.total), sample))
    for tally, group in _timed(_walk(context, chosen, bound), tallies):
        if group is not None:
            tally.check(context, group)
    return [
        SuiteReport(suite=name, bound=bound, instances=t.count, failures=t.failures, wall_time_s=t.seconds)
        for name, t in zip(names, tallies)
    ]


def run_suite(
    name: str,
    bound: int = 3,
    *,
    sample: int | None = None,
    seed: int = 0,
    allow_n5: bool = False,
    context: SpaceContext | None = None,
) -> SuiteReport:
    """Run one named suite: ``run_suites([name], ...)``, with the same arguments."""
    return run_suites([name], bound, sample=sample, seed=seed, allow_n5=allow_n5, context=context)[0]


# -- counterexample gallery ------------------------------------------------------


@dataclass(frozen=True)
class CounterexamplePair:
    """Two non-homeomorphic spaces with order-isomorphic regular-open lattices.

    ``iso`` is the lexicographically first order isomorphism; the two
    topologically induced well-inside relations are reported along with
    whether the iso (or any iso) carries one onto the other.
    """

    t1: Topology
    t2: Topology
    iso: tuple[int, ...]
    rel1: PairRelation
    rel2: PairRelation
    same_under_reported_iso: bool
    same_under_some_iso: bool

    def to_dict(self) -> dict:
        return {
            "space1": space_to_dict(self.t1),
            "space2": space_to_dict(self.t2),
            "iso": list(self.iso),
            "well_inside_1": sorted([f, g] for f, g in self.rel1),
            "well_inside_2": sorted([f, g] for f, g in self.rel2),
            "same_under_reported_iso": self.same_under_reported_iso,
            "same_under_some_iso": self.same_under_some_iso,
        }


def counterexample_search(max_n: int) -> list[CounterexamplePair]:
    """All pairs of homeomorphism-class representatives (n <= max_n) whose
    regular-open lattices are order isomorphic, in canonical order."""
    if max_n < 1:
        raise BadEnumerationSpec(f"the search needs at least one point, not {max_n}")
    check_budget("counterexamples", max_n)
    reps = canonical_classes(max_n)
    lats = [regular_open_lattice(t) for t in reps]
    rels = [well_inside(lat) for lat in lats]
    out = []
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if lats[i].m != lats[j].m:
                continue
            isos = find_order_isomorphisms(lats[i], lats[j])
            if not isos:
                continue
            reported = isos[0]
            same_reported = transport_relation(rels[i], reported) == rels[j]
            same_some = any(transport_relation(rels[i], phi) == rels[j] for phi in isos)
            out.append(
                CounterexamplePair(
                    reps[i], reps[j], reported, rels[i], rels[j], same_reported, same_some
                )
            )
    return out
