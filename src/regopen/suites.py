"""Exhaustive verification suites over the small-space enumeration, plus the
search for non-homeomorphic space pairs with isomorphic regular-open lattices.

A suite is data: a generator of groups of instances drawn from the labeled
enumeration up to a ground-size bound, one group per space, each checked in
one call. ``run_suite`` counts every instance, counts a ``RegOpenError``
raised inside a check as a failure, and reports deterministically (groups
are generated in a fixed order, and failures keep the order of the
instances). Groups are generated lazily and checked as they come, so a
suite holds one space's instances at a time.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from . import cofinite as cof
from .enumeration import BUDGETS, EnumerationSpec, canonical_classes, check_budget, dense_masks, enumerate_topologies
from .errors import BadEnumerationSpec, BadSuiteArgument, NotABasis, RegOpenError, UnknownSuite
from .ideals import _subsets, ideal_open_correspondence, ideals, ultrafilters
from .lattice import (
    PairRelation,
    RegularOpenLattice,
    check_r_lattice,
    find_order_isomorphisms,
    ge_relation,
    regular_open_lattice,
    relation_rows,
    transport_relation,
    upward_kept,
    well_inside,
)
from .metric import FiniteMetric, combine_metric, dominates
from .serialize import canonical_json, space_to_dict
from .stone import stone_space
from .topology import Topology, set_of
from .transfer import (
    DenseEmbedding,
    check_basis,
    point_recovery,
    restrictions_failing,
    separations_failing,
    subspace_on,
    traces_losing_closure,
)

# A failed instance's result: a message or a dict of report fields.
Result = str | dict
_POINT_SET_FIELDS = frozenset({"dense", "open", "u", "v", "subset"})


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

    def to_dict(self, include_timing: bool = False) -> dict:
        d = {
            "schema": self.schema,
            "suite": self.suite,
            "bound": self.bound,
            "instances": self.instances,
            "failures": self.failures,
            "passed": self.passed,
        }
        # Timing is volatile, so byte-identical reports exclude it by default.
        if include_timing:
            d["wall_time_s"] = self.wall_time_s
        return d

    def to_json(self, include_timing: bool = False) -> str:
        return canonical_json(self.to_dict(include_timing))


class SpaceContext:
    """What the suites of one run share: the labeled spaces, enumerated once
    per ground size, and one regular-open lattice per distinct space.

    A finite space is determined by its least neighbourhoods (its opens are
    their unions), so spaces and lattices are keyed by them, and the
    subspace on a dense set is looked up among the enumerated spaces rather
    than built again. Spaces and lattices live as long as the context, which
    one ``regopen verify`` run creates and hands to each ``run_suite`` call.
    Values of one space alone, such as closures, are left to the checks. It
    is not thread-safe.
    """

    def __init__(self):
        self._spaces: dict[int, dict[tuple[int, ...], Topology]] = {}
        self._lattices: dict[tuple[int, ...], RegularOpenLattice] = {}

    def spaces(self, bound: int) -> Iterator[Topology]:
        """The labeled spaces on 1..bound points, in enumeration order. The
        specs opt in: ``run_suite`` checked ``bound`` against ``enumeration.BUDGETS``."""
        specs = [EnumerationSpec(n, allow_n5=True) for n in range(1, bound + 1)]
        for spec in specs:
            if spec.n not in self._spaces:
                self._spaces[spec.n] = {t.min_nbhd_masks: t for t in enumerate_topologies(spec)}
        return itertools.chain.from_iterable(self._spaces[spec.n].values() for spec in specs)

    def lattice(self, t: Topology) -> RegularOpenLattice:
        """The regular-open lattice of ``t``, built on the first request for
        a space equal to ``t`` (same least neighbourhoods, so same opens)."""
        lat = self._lattices.get(t.min_nbhd_masks)
        if lat is None:
            lat = self._lattices[t.min_nbhd_masks] = regular_open_lattice(t)
        return lat

    def embedding(self, t: Topology, dense: int) -> DenseEmbedding:
        """The embedding of ``dense``, a mask from ``dense_masks(t)``. Its
        subspace is the context's own enumerated space where there is one."""
        return DenseEmbedding(t, dense, self._spaces.get(dense.bit_count()))

    def subspace(self, t: Topology, dense: int) -> Topology:
        """The subspace of ``t`` on ``dense``, as ``embedding`` finds it."""
        return subspace_on(t, dense, self._spaces.get(dense.bit_count()))


# -- individual suites ---------------------------------------------------------


def _check_ux0(ctx: SpaceContext, group: Group) -> list[tuple[int, Result]]:
    dense = [y for (y,) in group.items]
    return restrictions_failing(group.shared["space"], dense, ctx.lattice, ctx.subspace)


def _suite_ux0(ctx: SpaceContext, bound: int, seed: int) -> Iterator[Group]:
    for t in ctx.spaces(bound):
        yield Group({"space": t}, ("dense",), [(y,) for y in dense_masks(t)], _check_ux0)


def _check_denso(ctx: SpaceContext, group: Group) -> list[tuple[int, Result]]:
    # dense_masks checked the density, and the opens come from the space
    return [
        (pos, "closure of the open differs from closure of its dense trace")
        for pos in traces_losing_closure(group.shared["space"], group.items)
    ]


def _suite_denso(ctx: SpaceContext, bound: int, seed: int) -> Iterator[Group]:
    for t in ctx.spaces(bound):
        pairs = list(itertools.product(dense_masks(t), t.open_masks))
        yield Group({"space": t}, ("dense", "open"), pairs, _check_denso)


def _check_uvw(ctx: SpaceContext, group: Group) -> list[tuple[int, Result]]:
    return separations_failing(group.shared["space"], group.items)


def _suite_uvw(ctx: SpaceContext, bound: int, seed: int) -> Iterator[Group]:
    for t in ctx.spaces(bound):
        pairs = [(u, v) for u, v in itertools.product(t.regular_open_masks(), repeat=2) if u & ~v]
        yield Group({"space": t}, ("u", "v"), pairs, _check_uvw)


def _check_regularity(ctx: SpaceContext, group: Group) -> list[tuple[int, Result]]:
    t = group.shared["space"]
    cl, _, reg = t.operator_tables()
    opens, is_open = t.open_masks, t.is_open_mask
    failed = []
    for pos, (a,) in enumerate(group.items):
        if not is_open(a):
            continue  # both routes ask for an open set first
        direct = reg[a] == a
        c = cl[a]
        via_opens = all(v & ~a == 0 for v in opens if v & ~c == 0)
        if direct != via_opens:
            failed.append((pos, f"fixpoint route says {direct}, open-scan route says {via_opens}"))
    return failed


def _suite_regularity(ctx: SpaceContext, bound: int, seed: int) -> Iterator[Group]:
    """Both routes to 'regular open' agree on every subset of every space:
    the fixpoint definition, reg(A) = A for an open A, read from the
    space's reg table, versus openness plus 'every open inside the closure
    already sits inside the set', a scan of the opens."""
    for t in ctx.spaces(bound):
        subsets = [(a,) for a in range(t.full_mask + 1)]
        yield Group({"space": t}, ("subset",), subsets, _check_regularity)


def _check_recovery(ctx: SpaceContext, dense: int, space: Topology) -> str | None:
    emb = ctx.embedding(space, dense)
    bx = [m for m in ctx.lattice(space).payload_masks if m]
    by = [m for m in ctx.lattice(emb.sub).payload_masks if m]
    ph = point_recovery(space, bx, emb.sub, by, {u: emb.compress(u) for u in bx})
    for x, yy in ph.tau.items():
        if emb.index_map.get(x) != yy:
            return f"recovered {x} -> {yy}, expected the dense-set inclusion"
    return None


def _suite_recovery(ctx: SpaceContext, bound: int, seed: int) -> Iterator[Group]:
    """Recovery from the basis isomorphism induced by dense restriction must
    send each recovered point to its own copy. The construction quantifies
    over given bases, so the spaces are those whose nonempty regular opens
    form a basis; then so do those of each dense subspace, whose least
    neighbourhoods are traces of regular opens, and ``point_recovery``
    checks both bases again."""
    for t in ctx.spaces(bound):
        try:
            check_basis(t, [m for m in t.regular_open_masks() if m])
        except NotABasis:
            continue
        yield Group({"space": t}, ("dense",), [(y,) for y in dense_masks(t)], _each(_check_recovery))


def _check_boolean(ctx: SpaceContext, space: Topology) -> None:
    # Building the lattice is the Boolean test: check_boolean_algebra.
    ctx.lattice(space)


def _suite_boolean(ctx: SpaceContext, bound: int, seed: int) -> Iterator[Group]:
    for t in ctx.spaces(bound):
        yield _one(_check_boolean, space=t)


def _check_rlattice(ctx: SpaceContext, space: Topology) -> str | dict | None:
    lat = ctx.lattice(space)
    report = check_r_lattice(lat, ge_relation(lat))
    if not report.passed:
        return {"report": report.to_dict()}
    rel = well_inside(lat)
    rows, _ = relation_rows(lat, rel)
    kept = [upward_kept(lat, rows, f) for f in range(lat.m)]
    failing = [(f, g) for f, g in rel if not kept[f] >> g & 1 or lat.down[g] & ~rows[f]]
    if failing:
        # re-scan the first failing pair for its first witness
        f, g = min(failing)
        for h in range(lat.m):
            if lat.leq(f, h) and (h, g) not in rel:
                return f"well-inside not upward monotone at ({h},{f},{g})"
            if lat.leq(h, g) and (f, h) not in rel:
                return f"well-inside not downward monotone at ({f},{g},{h})"
    return None


def _suite_rlattice(ctx: SpaceContext, bound: int, seed: int) -> Iterator[Group]:
    for t in ctx.spaces(bound):
        yield _one(_check_rlattice, space=t)


def _check_stone(ctx: SpaceContext, space: Topology) -> str | None:
    lat = ctx.lattice(space)
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


def _suite_stone(ctx: SpaceContext, bound: int, seed: int) -> Iterator[Group]:
    for t in ctx.spaces(bound):
        yield _one(_check_stone, space=t)
    powersets = [(n,) for n in range(1, BUDGETS["ideals"][0] + 1)]
    yield Group({}, ("powerset",), powersets, _each(_check_ultrafilters))


# The brute-force cross-check filters all 2^(2^n - 1) families of nonempty
# subsets: 32768 at n = 4, 2^31 at n = 5.
_BRUTE_FORCE_IDEALS_MAX = 4


def _brute_force_ideals(n: int) -> set[frozenset]:
    found = set()
    middle = [s for s in _subsets(frozenset(range(n))) if s]
    for picks in range(1 << len(middle)):
        fam = {frozenset()} | {s for i, s in enumerate(middle) if picks >> i & 1}
        ok = all(a | b in fam for a in fam for b in fam) and all(
            sub in fam for a in fam for sub in _subsets(a)
        )
        if ok:
            found.add(frozenset(fam))
    return found


def _check_ideal_enumeration(ctx: SpaceContext, powerset: int) -> str | None:
    if {i.members for i in ideals(powerset)} != _brute_force_ideals(powerset):
        return "principal construction disagrees with brute filter"
    return None


def _check_ideal_correspondence(ctx: SpaceContext, powerset: int) -> None:
    ideal_open_correspondence(powerset)


def _suite_ideals(ctx: SpaceContext, bound: int, seed: int) -> Iterator[Group]:
    largest = min(bound, BUDGETS["ideals"][0])
    brute = [(n,) for n in range(1, min(largest, _BRUTE_FORCE_IDEALS_MAX) + 1)]
    yield Group({}, ("powerset",), brute, _each(_check_ideal_enumeration))
    powersets = [(n,) for n in range(1, largest + 1)]
    yield Group({}, ("powerset",), powersets, _each(_check_ideal_correspondence))


_COFINITE_TRIALS = 10_000


def _random_symbolic(rnd: random.Random) -> cof.SymbolicSet:
    kind = cof.FINITE if rnd.random() < 0.5 else cof.COFINITE
    support = frozenset(rnd.sample(range(10), rnd.randint(0, 5)))
    return cof.SymbolicSet(kind, support)


def _symbolic_identities(a, b, c) -> str | None:
    if cof.union(a, b) != cof.union(b, a):
        return "union commutativity"
    if cof.intersect(a, b) != cof.intersect(b, a):
        return "intersection commutativity"
    if cof.union(cof.union(a, b), c) != cof.union(a, cof.union(b, c)):
        return "union associativity"
    if cof.intersect(cof.intersect(a, b), c) != cof.intersect(a, cof.intersect(b, c)):
        return "intersection associativity"
    if cof.complement(cof.complement(a)) != a:
        return "double complement"
    if cof.complement(cof.union(a, b)) != cof.intersect(cof.complement(a), cof.complement(b)):
        return "De Morgan (union)"
    if cof.complement(cof.intersect(a, b)) != cof.union(cof.complement(a), cof.complement(b)):
        return "De Morgan (intersection)"
    if cof.union(a, cof.intersect(a, b)) != a:
        return "absorption"
    if cof.intersect(a, cof.union(a, b)) != a:
        return "absorption dual"
    if cof.intersect(a, cof.union(b, c)) != cof.union(cof.intersect(a, b), cof.intersect(a, c)):
        return "distributivity"
    if cof.interior(a) != cof.complement(cof.closure(cof.complement(a))):
        return "interior/closure duality"
    if not cof.is_subset(cof.interior(a), a) or not cof.is_subset(a, cof.closure(a)):
        return "interior below, closure above"
    return None


def _check_cofinite_family(ctx: SpaceContext) -> str | None:
    family, traces = cof.regular_opens()
    if set(family) != {cof.EMPTY, cof.FULL}:
        return "regular-open family is not the two-element algebra"
    for tr in traces:
        if tr.queried not in family and tr.regularization != cof.FULL:
            return f"nonempty proper open {tr.queried!r} did not regularize to the full set"
    return None


def _check_cofinite_identities(ctx: SpaceContext, seed: int) -> dict | None:
    rnd = random.Random(seed)
    for trial in range(_COFINITE_TRIALS):
        a, b, c = (_random_symbolic(rnd) for _ in range(3))
        failed = _symbolic_identities(a, b, c)
        if failed:
            return {"trial": trial, "error": f"identity failed: {failed}", "sets": [repr(a), repr(b), repr(c)]}
    return None


def _suite_cofinite(ctx: SpaceContext, bound: int, seed: int) -> Iterator[Group]:
    yield _one(_check_cofinite_family)
    yield _one(_check_cofinite_identities, seed=seed)


_METRIC_TRIALS = 1_000


def _random_metric(rnd: random.Random, n: int) -> FiniteMetric:
    # Distances in [1, 2] satisfy the triangle inequality automatically.
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = Fraction(16 + rnd.randint(0, 16), 16)
            rows[i][j] = rows[j][i] = d
    return FiniteMetric(rows)


def _check_metric(ctx: SpaceContext, seed: int) -> dict | None:
    rnd = random.Random(seed)
    for trial in range(_METRIC_TRIALS):
        dx = _random_metric(rnd, 4)
        dy = _random_metric(rnd, 4)
        tau = list(range(4))
        rnd.shuffle(tau)
        try:
            dz = combine_metric(dx, dy, tau)  # constructor scans all axioms
        except RegOpenError as exc:
            return {"trial": trial, "error": str(exc)}
        if not dominates(dz, dx):
            return {"trial": trial, "error": "combined metric does not dominate the first factor"}
    return None


def _suite_metric(ctx: SpaceContext, bound: int, seed: int) -> Iterator[Group]:
    yield _one(_check_metric, seed=seed)


SUITES: dict[str, Callable[[SpaceContext, int, int], Iterator[Group]]] = {
    "ux0": _suite_ux0,
    "denso": _suite_denso,
    "uvw": _suite_uvw,
    "regularity": _suite_regularity,
    "recovery": _suite_recovery,
    "boolean": _suite_boolean,
    "rlattice": _suite_rlattice,
    "stone": _suite_stone,
    "ideals": _suite_ideals,
    "cofinite": _suite_cofinite,
    "metric": _suite_metric,
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


def run_suite(
    name: str,
    bound: int = 3,
    *,
    sample: int | None = None,
    seed: int = 0,
    allow_n5: bool = False,
    context: SpaceContext | None = None,
) -> SuiteReport:
    """Run one named suite over the enumeration up to ``bound`` points.

    Every suite first checks ``bound`` and ``allow_n5`` against the "verify"
    row of ``enumeration.BUDGETS``. ``sample`` draws a deterministic random
    subset of instances: the groups are generated twice, once to count their
    instances and once to hand each group's check the drawn ones, in order.
    ``context`` shares spaces and lattices with other suites of the same
    run; without one the suite makes its own.
    ``wall_time_s`` covers generating the instances as well as checking them.
    A ``RegOpenError`` that escapes a group's check fails every instance the
    check was given, with its message; one raised while generating groups
    propagates.
    """
    if name not in SUITES:
        raise UnknownSuite(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    if bound < 1:
        raise BadSuiteArgument(f"bound must be at least 1, not {bound}")
    if sample is not None and sample < 0:
        raise BadSuiteArgument(f"sample size must not be negative, not {sample}")
    check_budget("verify", bound, allow_n5)
    start = time.perf_counter()
    if context is None:
        context = SpaceContext()
    groups = SUITES[name](context, bound, seed)
    drawn = None
    if sample is not None:
        total = sum(len(group.items) for group in groups)
        if sample < total:
            drawn = sorted(random.Random(seed).sample(range(total), sample))
        groups = SUITES[name](context, bound, seed)
    count, offset, failures = 0, 0, []
    for group in groups:
        if drawn is not None:
            # the drawn global indices that fall in this group's range
            size = len(group.items)
            first, stop = bisect.bisect_left(drawn, offset), bisect.bisect_left(drawn, offset + size)
            group = group._replace(items=[group.items[i - offset] for i in drawn[first:stop]])
            offset += size
        items = group.items
        if not items:
            continue
        count += len(items)
        try:
            failed = group.check(context, group)
        except RegOpenError as exc:
            failed = [(pos, str(exc)) for pos in range(len(items))]
        failures.extend(_failure(group.fields(items[pos]), result) for pos, result in failed)
    return SuiteReport(
        suite=name,
        bound=bound,
        instances=count,
        failures=failures,
        wall_time_s=time.perf_counter() - start,
    )


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
