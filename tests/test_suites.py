"""The suite driver: pass/fail behaviour, determinism, instance accounting,
and the counterexample gallery."""

import functools
import itertools
import random
import types
from collections import Counter

import pytest

from regopen import cofinite as cof
from regopen import (
    counterexample_search,
    enumeration,
    run_suite,
    run_suites,
    sierpinski,
    suites,
    transfer,
    x3,
)
from regopen.enumeration import (
    BUDGETS,
    EnumerationSpec,
    canonical_classes,
    dense_masks,
    enumerate_dense_subsets,
    enumerate_topologies,
)
from regopen.errors import (
    BadEnumerationSpec,
    NotABasis,
    NotAMetric,
    NotDense,
    RegOpenError,
    SizeGuardExceeded,
    UnknownSuite,
    VerificationError,
)
from regopen.cli import main
from regopen.ideals import ideal_open_correspondence, ideals, maximal_ideals, ultrafilters
from regopen.lattice import (
    AXIOM_NAMES,
    AxiomResult,
    RegularOpenLattice,
    RLatticeReport,
    find_order_isomorphisms,
    regular_open_lattice,
    relation_rows,
    transport_relation,
    well_inside,
    well_inside_rows,
)
from regopen.metric import FiniteMetric, combine_metric
from regopen.serialize import canonical_json, space_to_dict
from regopen.stone import StoneSpace, stone_space
from regopen.suites import SUITES, SpaceContext, Suite
from regopen.topology import Topology, canonical_open_masks, discrete, permute_mask, set_of
from regopen.transfer import (
    DenseEmbedding,
    LatticeIsoWitness,
    closure_density_check,
    point_recovery,
    restriction_isomorphism,
    separating_witness,
    traces_losing_closure,
)

from oracles import (
    basis_oracle,
    closure_oracle,
    regularity_scan_oracle,
    trace_keeps_closure_oracle,
    well_inside_monotone_oracle,
)


def _texts(reports) -> list[str]:
    """The canonical report text of each suite report."""
    return [canonical_json(r.to_dict()) for r in reports]


def _groups(name, ctx, bound):
    """The groups of the suite ``name``, in the order a run checks them."""
    suite = SUITES[name]
    if suite.space:
        for t in ctx.spaces(bound):
            group = suite.space(ctx, t)
            if group is not None:
                yield group
    if suite.rest:
        yield from suite.rest(ctx, bound)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_at_small_bound(name):
    report = run_suite(name, bound=2)
    assert report.passed
    assert report.instances > 0


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nope", bound=2)


def test_ux0_instance_count_matches_dense_oracle():
    report = run_suite("ux0", bound=3)
    expected = sum(
        len(enumerate_dense_subsets(t))
        for n in (1, 2, 3)
        for t in enumerate_topologies(EnumerationSpec(n))
    )
    assert report.passed and report.instances == expected


def test_reports_are_byte_identical_across_runs():
    a = canonical_json(run_suite("uvw", bound=3).to_dict())
    b = canonical_json(run_suite("uvw", bound=3).to_dict())
    assert a == b


def test_shared_context_reports_equal_lone_runs(monkeypatch):
    # successive runs share no context: each builds exactly one new one,
    # and its report is that of the suite run alone
    lone = {name: canonical_json(run_suite(name, bound=3).to_dict()) for name in sorted(SUITES)}
    made = _recording_contexts(monkeypatch)
    for runs, name in enumerate(sorted(SUITES), 1):
        assert canonical_json(run_suite(name, bound=3).to_dict()) == lone[name]
        assert len(made) == len(set(map(id, made))) == runs


# -- one walk for several suites ---------------------------------------------------


@pytest.mark.parametrize("bound", [2, 4])
def test_joint_run_reports_equal_lone_runs(bound):
    # each suite's report from the one walk, byte for byte that of its own
    # run; at n = 5 the memo readers are compared in test_memo_changes_no_n5_report
    names = sorted(SUITES)
    joint = run_suites(names, bound)
    assert [report.suite for report in joint] == names
    for name, report in zip(names, joint):
        assert canonical_json(report.to_dict()) == canonical_json(run_suite(name, bound).to_dict())


def test_joint_run_refuses_an_unknown_name_before_running():
    with pytest.raises(UnknownSuite):
        run_suites(["boolean", "nope"], 2)


def test_a_group_is_freed_before_the_clock_charges_its_suite(monkeypatch):
    # freeing a planted group costs 1000 ticks of a fake clock, which must
    # land in its own suite's seconds, not in those of the suite after it
    events, now = [], [0]

    class Items(list):
        def __del__(self):
            events.append("freed")
            now[0] += 1000

    def clock():
        events.append("clock")
        now[0] += 1
        return now[0]

    def planted(*_):
        return suites.Group({}, ("x",), Items([(0,)]), lambda ctx, group: events.append("checked") or [])

    def plain(*_):
        return suites.Group({}, ("x",), [(0,)], lambda ctx, group: [])

    monkeypatch.setattr(suites, "time", types.SimpleNamespace(perf_counter=clock))
    monkeypatch.setitem(SUITES, "planted", Suite(planted, lambda ctx, bound: (planted() for _ in range(2))))
    monkeypatch.setitem(SUITES, "plain", Suite(plain, lambda ctx, bound: iter([plain()])))
    first, second = run_suites(["planted", "plain"], 2)
    groups = first.instances
    assert groups == 5 + 2  # the five spaces on at most 2 points, then the two rest groups
    assert events.count("checked") == events.count("freed") == groups
    for i, event in enumerate(events):
        if event == "checked":
            assert events[i + 1 : i + 3] == ["freed", "clock"]
    assert first.wall_time_s >= 1000 * groups
    assert second.wall_time_s < 1000


def _watching(check_each_call):
    """The suites, each wrapped so that ``check_each_call(ctx, group)`` runs
    before every group check."""

    def watched(group):
        if group is None:
            return None

        def check(ctx, g, check=group.check):
            check_each_call(ctx, g)
            return check(ctx, g)

        return group._replace(check=check)

    return {
        name: Suite(
            suite.space and (lambda ctx, t, suite=suite: watched(suite.space(ctx, t))),
            suite.rest and (lambda ctx, b, suite=suite: map(watched, suite.rest(ctx, b))),
        )
        for name, suite in SUITES.items()
    }


def test_joint_run_holds_only_the_smaller_spaces_and_the_current_one(monkeypatch):
    # bound 4: the 34 spaces on at most 3 points and their lattices, and of
    # the 355 four-point spaces only the current one, with its lattice
    seen = []

    def inspect(ctx, group):
        held = list(ctx._spaces.values())
        lattices = list(ctx._lattices.values()) + [
            v for v in ctx._values.values() if isinstance(v, RegularOpenLattice)
        ]
        assert len(held) <= 34 and all(t.n < 4 for t in held)
        assert len(lattices) <= 34 + 1
        assert all(lat.topology.n < 4 or lat.topology.min_nbhd_masks == ctx._current for lat in lattices)
        seen.append(len(lattices))

    for name, suite in _watching(inspect).items():
        monkeypatch.setitem(SUITES, name, suite)
    assert all(report.passed for report in run_suites(sorted(SUITES), 4))
    assert max(seen) == 34 + 1


def test_joint_run_builds_dense_sets_once_and_tables_once_per_space_and_full_build(monkeypatch):
    # a full lattice build makes its own tables: one more for the first
    # space of each of the 60 regular-open families with n <= 4
    tables, dense, built = Counter(), Counter(), Counter()
    operator_tables, masks, build = Topology.operator_tables, suites.dense_masks, RegularOpenLattice.__init__

    def counting_tables(t):
        tables[t] += 1
        return operator_tables(t)

    def counting_dense(t, cl):
        dense[t] += 1
        return masks(t, cl)

    def counting_build(lat, t):
        built[t] += 1
        build(lat, t)

    monkeypatch.setattr(Topology, "operator_tables", counting_tables)
    monkeypatch.setattr(suites, "dense_masks", counting_dense)
    monkeypatch.setattr(RegularOpenLattice, "__init__", counting_build)
    assert all(report.passed for report in run_suites(sorted(SUITES), 4))
    assert set(dense.values()) == {1}
    assert len(tables) == len(dense) == 1 + 4 + 29 + 355
    assert sum(tables.values()) == 389 + 60
    assert set(built.values()) == {1}
    assert {t for t, count in tables.items() if count == 2} == set(built)


def test_bound_below_one_is_refused_before_enumerating(monkeypatch):
    monkeypatch.setattr(suites, "enumerate_topologies", None)  # enumerating would raise TypeError
    for bound in (0, -1):
        with pytest.raises(BadEnumerationSpec, match="^ground set must have at least one point$"):
            run_suite("ux0", bound=bound)


def _never_called(ctx, group):
    pytest.fail("a group without instances was checked")


def test_run_that_checked_nothing_does_not_pass(monkeypatch):
    # a suite whose every space has a group without items (the shape of a
    # per-space suite such as denso), and one whose groups need no space
    # and which yields none
    empty_groups = Suite(lambda ctx, t: suites.Group({"space": t}, ("open",), [], _never_called))
    no_groups = Suite(rest=lambda ctx, bound: iter(()))
    for suite in (empty_groups, no_groups):
        monkeypatch.setitem(SUITES, "boolean", suite)
        report = run_suite("boolean", bound=2)
        assert report.instances == 0 and report.failures == []
        assert not report.passed
        assert report.to_dict()["passed"] is False


def test_gated_five_point_scale():
    with pytest.raises(SizeGuardExceeded):
        run_suite("boolean", bound=5)


# An entry point per row of the budget table, and run_suite for the labeled
# row too, as a verify run makes the labeled walk: the row each checks, and
# a call at n.
BUDGET_ENTRY_POINTS = {
    "enumerate": ("enumerate", lambda n, allow_n5: EnumerationSpec(n, allow_n5=allow_n5)),
    "classes": ("classes", lambda n, allow_n5: EnumerationSpec(n, mode="up-to-homeomorphism", allow_n5=allow_n5)),
    "verify": ("enumerate", lambda n, allow_n5: run_suite("ideals", bound=n, allow_n5=allow_n5)),
    "counterexamples": ("counterexamples", lambda n, allow_n5: counterexample_search(n)),
    "ideals": ("ideals", lambda n, allow_n5: ideals(n)),
}


def test_every_budget_row_has_an_entry_point():
    assert {row for row, _ in BUDGET_ENTRY_POINTS.values()} == set(BUDGETS)


@pytest.mark.parametrize("entry", sorted(BUDGET_ENTRY_POINTS))
def test_budget_row(entry, monkeypatch):
    row, call = BUDGET_ENTRY_POINTS[entry]
    largest, opt_in = BUDGETS[row]
    call(largest, allow_n5=opt_in is not None)
    monkeypatch.setattr(suites, "enumerate_topologies", None)  # enumerating would raise TypeError
    monkeypatch.setattr(enumeration, "enumerate_topologies", None)
    if opt_in is not None:
        with pytest.raises(SizeGuardExceeded, match="requires the explicit allow_n5 flag"):
            call(opt_in, allow_n5=False)
    with pytest.raises(SizeGuardExceeded, match=f"{row} is guarded at n <= {largest}"):
        call(largest + 1, allow_n5=True)


# Every entry point that takes a run's size: the row of the budget table it
# is checked against, and either a call at n, opting in to n = 5 where it
# can, or a command line that takes "--n n".
SIZE_ENTRY_POINTS = {
    "cli-enumerate": ("enumerate", ["enumerate", "--allow-n5"]),
    "cli-verify": ("enumerate", ["verify", "--suite", "all", "--allow-n5"]),
    "cli-counterexamples": ("counterexamples", ["counterexamples"]),
    "EnumerationSpec": ("enumerate", lambda n: EnumerationSpec(n, allow_n5=True)),
    "EnumerationSpec-classes": ("classes", lambda n: EnumerationSpec(n, mode="up-to-homeomorphism", allow_n5=True)),
    "run_suites": ("enumerate", lambda n: run_suites(sorted(SUITES), n, allow_n5=True)),
    "counterexample_search": ("counterexamples", counterexample_search),
    "canonical_classes": ("classes", canonical_classes),
    "ideals": ("ideals", ideals),
    "maximal_ideals": ("ideals", maximal_ideals),
    "ultrafilters": ("ideals", ultrafilters),
    "ideal_open_correspondence": ("ideals", ideal_open_correspondence),
}


@pytest.mark.parametrize("entry", sorted(SIZE_ENTRY_POINTS))
def test_every_entry_point_refuses_its_size_through_one_guard(entry, monkeypatch, capsys):
    # n < 1 gets one error and one message everywhere, and one above the row
    # is refused before any space is enumerated
    row, call = SIZE_ENTRY_POINTS[entry]
    largest = BUDGETS[row][0]
    monkeypatch.setattr(suites, "enumerate_topologies", None)  # enumerating would raise TypeError
    monkeypatch.setattr(enumeration, "enumerate_topologies", None)
    refusals = [
        (0, BadEnumerationSpec, "ground set must have at least one point"),
        (-1, BadEnumerationSpec, "ground set must have at least one point"),
        (largest + 1, SizeGuardExceeded, f"{row} is guarded at n <= {largest}"),
    ]
    for n, error, message in refusals:
        if isinstance(call, list):
            assert main(call + ["--n", str(n)]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        else:
            with pytest.raises(error, match=f"^{message}$"):
                call(n)


def test_report_shape():
    d = run_suite("boolean", bound=2).to_dict()
    assert d["schema"] == 1
    assert d["passed"] is True and d["failures"] == []
    assert "wall_time_s" not in d  # volatile field excluded from canonical form


# -- the context's dense-set kernels against the public routes ----------------------


def test_context_subspace_is_the_held_space():
    # every (space, dense mask) with n <= 4, in the walk: the subspace is
    # the space walked before it with its opens, the space itself on every
    # point, and equals the one built
    ctx, walked = SpaceContext(), {}
    for t in ctx.spaces(4):
        walked[t] = t
        for y in dense_masks(t):
            sub = ctx.subspace(t, y)
            assert sub is walked[sub] and (sub is t) == (y == t.full_mask)
            assert sub == t.subspace(y)[0]


def test_denso_instances_agree_with_closure_density_check():
    ctx = SpaceContext()
    count = 0
    for group in _groups("denso", ctx, 4):
        failing = {pos for pos, _ in group.check(ctx, group)}
        for pos, item in enumerate(group.items):
            fields = group.fields(item)
            expected = closure_density_check(fields["space"], fields["dense"], fields["open"])
            assert (pos not in failing) == expected
        count += len(group.items)
    assert count == sum(len(dense_masks(t)) * len(t.open_masks) for t in ctx.spaces(4))


def test_denso_group_check_matches_the_per_instance_oracle(monkeypatch):
    # the group check against one closure scan per instance, on every denso
    # instance with n <= 4, correct and under the planted short trace
    ctx = SpaceContext()
    for plant in (None, _density_check_with_short_trace):
        if plant:
            plant(monkeypatch)
        failing = []
        for group in _groups("denso", ctx, 4):
            expected = _denso_oracle(group.shared["space"], group, bool(plant))
            assert group.check(ctx, group) == expected
            failing += expected
        assert bool(failing) == bool(plant)


def test_density_kernel_matches_the_per_instance_oracle():
    # any Y, dense or not, so that the kernel has pairs to report: every
    # (subset, open) pair with n <= 4, then a seeded sample of n = 5 pairs,
    # each the pairs of 5 subsets and 4 opens, in row-major order
    ctx = SpaceContext()
    reported = 0
    for t in ctx.spaces(4):
        ys = range(t.full_mask + 1)
        pairs = itertools.product(ys, t.open_masks)
        expected = [i for i, (y, u) in enumerate(pairs) if not trace_keeps_closure_oracle(t, y, u)]
        assert traces_losing_closure(t.closure_table(), ys, t.open_masks) == expected
        reported += len(expected)
    assert reported
    rng = random.Random(5)
    spaces = list(enumerate_topologies(EnumerationSpec(5, allow_n5=True)))
    for t in rng.sample(spaces, 300):
        ys = [rng.randrange(32) for _ in range(5)]
        opens = [rng.choice(t.open_masks) for _ in range(4)]
        pairs = itertools.product(ys, opens)
        expected = [i for i, (y, u) in enumerate(pairs) if not trace_keeps_closure_oracle(t, y, u)]
        assert traces_losing_closure(t.closure_table(), ys, opens) == expected


def test_closure_table_matches_closure_of_every_subset():
    for t in SpaceContext().spaces(4):
        table = t.closure_table()
        assert len(table) == 1 << t.n
        for a, cl in enumerate(table):
            assert cl == t.closure_mask(a)
            points = frozenset(i for i in range(t.n) if a >> i & 1)
            assert cl == sum(1 << x for x in closure_oracle(t, points))


# -- the per-run memo of verdicts ---------------------------------------------------

_MEMO_READERS = ["rlattice", "stone", "ux0"]


class _NeverKept(dict):
    """A dict that keeps nothing stored in it."""

    def __setitem__(self, key, value):
        pass


class _Forgetful(SpaceContext):
    """A context whose memo never hits: it keeps no verdict, so every
    verdict is checked again. With ``families=False`` it keeps no family
    record either, so every lattice it gives is a full build."""

    def __init__(self, families: bool = True):
        super().__init__()
        self.families = families
        self._verdicts = _NeverKept()

    def _family_lattice(self, t):
        return super()._family_lattice(t) if self.families else RegularOpenLattice(t)


def _forgetful_runs(names, bound, families: bool = True, allow_n5: bool = False) -> list:
    """``run_suites(names, bound)`` with each run's context a ``_Forgetful``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "SpaceContext", functools.partial(_Forgetful, families))
        return run_suites(names, bound, allow_n5=allow_n5)


def _forgetful_json(name, bound, families: bool = True) -> str:
    return canonical_json(_forgetful_runs([name], bound, families)[0].to_dict())


def _recording_contexts(monkeypatch) -> list:
    """Make each run's context record itself; the list gains every context made."""
    made = []

    class Recording(SpaceContext):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(suites, "SpaceContext", Recording)
    return made


def _tables(lat):
    return lat.up, lat.meet, lat.join, lat.bottom


def _spaces_to(bound):
    return [t for n in range(1, bound + 1) for t in enumerate_topologies(EnumerationSpec(n))]


def _reading_spaces(every: bool = False) -> list[str]:
    """The suites that read spaces, or ``every`` suite: those that read no
    space read no memo either."""
    return sorted(name for name, suite in SUITES.items() if suite.space or every)


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_memo_changes_no_report(bound):
    # each suite's report from one walk, and each memo reader's lone
    # report, byte for byte that of a run whose memo never hits; all
    # eleven suites at bound 4
    names = _reading_spaces(every=bound == 4)
    joint = run_suites(names, bound)
    for families in (True, False):
        assert _texts(joint) == _texts(_forgetful_runs(names, bound, families))
    for name in _MEMO_READERS:
        alone = canonical_json(run_suite(name, bound).to_dict())
        assert alone == _forgetful_json(name, bound)
        assert alone == canonical_json(joint[names.index(name)].to_dict())


def test_memo_changes_no_n5_report():
    # every instance of the memo readers at n = 5, byte for byte that of a
    # run that shares no verdict and no family record
    memo = run_suites(_MEMO_READERS, 5, allow_n5=True)
    never_shared = _forgetful_runs(_MEMO_READERS, 5, families=False, allow_n5=True)
    assert _texts(memo) == _texts(never_shared)


def test_memo_checks_each_distinct_table_once_per_run(monkeypatch):
    spaces = _spaces_to(4)
    tables = {_tables(regular_open_lattice(t)) for t in spaces}
    passing = set()
    for t in spaces:
        for y in dense_masks(t):
            w = restriction_isomorphism(DenseEmbedding(t, y))
            passing.add((w.source.up, w.target.up, w.forward, w.backward))
    assert len(tables) < len(spaces) and len(passing) < sum(len(dense_masks(t)) for t in spaces)

    rlattice, stone, witnesses = Counter(), Counter(), Counter()
    check, to_stone, witness = suites.check_r_lattice, suites.stone_space, suites.LatticeIsoWitness

    def counting_check(lat, rel):
        rlattice[_tables(lat)] += 1
        return check(lat, rel)

    def counting_stone(lat):
        stone[_tables(lat)] += 1
        return to_stone(lat)

    def counting_witness(up, down, forward, backward):
        witnesses[up.up, down.up, forward, backward] += 1
        return witness(up, down, forward, backward)

    monkeypatch.setattr(suites, "check_r_lattice", counting_check)
    monkeypatch.setattr(suites, "stone_space", counting_stone)
    monkeypatch.setattr(suites, "LatticeIsoWitness", counting_witness)
    for runs in (1, 2):
        # a second run, on its own context, remembers nothing of the first
        assert all(r.passed for r in run_suites(_MEMO_READERS, 4))
        assert set(rlattice) == set(stone) == tables
        assert set(witnesses) == passing
        assert set(rlattice.values()) == set(stone.values()) == set(witnesses.values()) == {runs}


def test_memo_reports_an_rlattice_failure_on_every_space_sharing_its_tables(monkeypatch):
    # the planted failure belongs to the four-element order of discrete(2)
    planted = _tables(regular_open_lattice(discrete(2)))
    check = suites.check_r_lattice

    def wrong(lat, rel):
        report = check(lat, rel)
        if _tables(lat) != planted:
            return report
        return RLatticeReport((AxiomResult(AXIOM_NAMES[0], False, (0, 1)),) + report.axioms[1:])

    monkeypatch.setattr(suites, "check_r_lattice", wrong)
    report = run_suite("rlattice", 4)
    sharing = [space_to_dict(t) for t in _spaces_to(4) if _tables(regular_open_lattice(t)) == planted]
    assert len(sharing) > 1
    assert [failure["space"] for failure in report.failures] == sharing
    assert canonical_json(report.to_dict()) == _forgetful_json("rlattice", 4)


def _lattice_with_tables(t, tables):
    """``RegularOpenLattice(t)`` built from ``tables`` as the operator tables of ``t``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Topology, "operator_tables", lambda space: tables)
        return RegularOpenLattice(t)


def _closure_of_empty_holding(tables, x):
    """Operator tables with point ``x`` planted in cl of the empty set."""
    cl, interior, reg = tables
    return [1 << x, *cl[1:]], interior, reg


def test_memo_reports_a_planted_closure_on_exactly_the_space_whose_rows_it_changes(monkeypatch):
    # The cl table of one 3-point space puts a point x in the closure of
    # the empty set. Its lattice stays the same, but the empty set leaves
    # the well-inside row of every U_f that misses x, which breaks downward
    # monotonicity. Spaces before and after it in the walk share its order
    # and its true rows: a memo keyed without the rows would pass it on
    # their verdict, and one that kept its failure would fail them.
    spaces = _spaces_to(3)

    def key(t, tables):
        lat = _lattice_with_tables(t, tables)
        return _tables(lat), tuple(well_inside_rows(lat, [tables[0][u] for u in lat.payload_masks]))

    true_keys = [key(t, t.operator_tables()) for t in spaces]

    def plants():
        for i, t in enumerate(spaces):
            if true_keys[i] not in true_keys[:i] or true_keys[i] not in true_keys[i + 1 :]:
                continue
            lat = regular_open_lattice(t)
            for x in range(t.n):
                tables = _closure_of_empty_holding(t.operator_tables(), x)
                try:
                    planted = _lattice_with_tables(t, tables)
                except RegOpenError:
                    continue
                rel = frozenset(
                    (f, g)
                    for f, u in enumerate(lat.payload_masks)
                    for g, v in enumerate(lat.payload_masks)
                    if tables[0][v] & ~u == 0
                )
                error = well_inside_monotone_oracle(lat, rel)
                if _tables(planted) == _tables(lat) and error:
                    yield t, x, error

    target, x, error = next(plants())
    assert key(target, _closure_of_empty_holding(target.operator_tables(), x)) != true_keys[spaces.index(target)]
    tables = Topology.operator_tables
    monkeypatch.setattr(
        Topology, "operator_tables", lambda t: _closure_of_empty_holding(tables(t), x) if t == target else tables(t)
    )
    report = run_suite("rlattice", 3)
    assert report.failures == [{"space": space_to_dict(target), "error": error}]
    for families in (True, False):
        assert canonical_json(report.to_dict()) == _forgetful_json("rlattice", 3, families)


def test_memo_keeps_each_failing_restriction_its_own_message(monkeypatch):
    # in one 3-point space, backward sends the image of element y % m to
    # the next element, so the witness names that element; a memo keyed by
    # the two lattices alone would pass these maps on the strength of the
    # correct ones of earlier spaces
    def planted(t):
        return t.n == 3 and regular_open_lattice(t).m > 2 and len({y % 3 for y in dense_masks(t)}) > 1

    target = [t for t in _spaces_to(3) if planted(t)][-1]
    maps = suites.restriction_maps

    def wrong(up, down, y, rows, reg):
        forward, backward = maps(up, down, y, rows, reg)
        if up.topology != target:
            return forward, backward
        i = y % up.m
        backward = list(backward)
        backward[forward[i]] = (i + 1) % up.m
        return forward, tuple(backward)

    monkeypatch.setattr(suites, "restriction_maps", wrong)
    expected = []
    up, reg = regular_open_lattice(target), target.operator_tables()[2]
    for y in dense_masks(target):
        down = regular_open_lattice(target.subspace(y)[0])
        with pytest.raises(RegOpenError) as exc:
            transfer.LatticeIsoWitness(up, down, *wrong(up, down, y, transfer.dense_rows(y), reg))
        expected.append({"space": space_to_dict(target), "dense": sorted(set_of(y)), "error": str(exc.value)})
    assert len({failure["error"] for failure in expected}) > 1
    report = run_suite("ux0", 3)
    assert report.failures == expected
    assert canonical_json(report.to_dict()) == _forgetful_json("ux0", 3)


def test_memo_checks_a_failing_restriction_again_each_time(monkeypatch):
    # the images of elements 0 and 1 trade places on every lattice of two
    # or more elements: the same failing keys recur, and each fails again
    maps = suites.restriction_maps

    def wrong(up, down, y, rows, reg):
        forward, backward = maps(up, down, y, rows, reg)
        if up.m < 2:
            return forward, backward
        swap = {forward[0]: forward[1], forward[1]: forward[0]}
        return tuple(swap.get(f, f) for f in forward), tuple(backward[swap.get(j, j)] for j in range(up.m))

    monkeypatch.setattr(suites, "restriction_maps", wrong)
    report = run_suite("ux0", 3)
    assert len(report.failures) == sum(len(dense_masks(t)) for t in _spaces_to(3) if regular_open_lattice(t).m >= 2)
    assert canonical_json(report.to_dict()) == _forgetful_json("ux0", 3)


_LATTICE_FIELDS = (
    "m", "up", "down", "meet", "join", "complement", "top", "bottom", "payload_masks", "index_of_mask"
)


def _counting_builds(monkeypatch) -> list:
    """Wrap ``RegularOpenLattice.__init__``; the list gains the space of
    each full build."""
    built = []
    init = RegularOpenLattice.__init__
    monkeypatch.setattr(RegularOpenLattice, "__init__", lambda lat, t: built.append(t) or init(lat, t))
    return built


@pytest.mark.parametrize("bound, families", [(3, 11), (4, 60), (5, 522)])
def test_context_lattice_is_a_lone_build_with_one_full_build_per_family(bound, families, monkeypatch):
    built = _counting_builds(monkeypatch)
    ctx, seen, full_builds = SpaceContext(), set(), 0
    for t in ctx.spaces(bound):
        before = len(built)
        lat = ctx.lattice(t)
        full_builds += len(built) - before
        alone = RegularOpenLattice(t)
        assert lat.topology is t
        assert [getattr(lat, name) for name in _LATTICE_FIELDS] == [getattr(alone, name) for name in _LATTICE_FIELDS]
        seen.add(alone.payload_masks)
    assert full_builds == len(seen) == families


def _ux0_lattices(ctx, monkeypatch, groups) -> list:
    """Check each of ``groups`` with ux0's check on ``ctx``, and return
    (space, Y, the subspace lattice the check read, the lattice of the
    subspace on the context) for each of its instances, in order."""
    read = []
    maps = suites.restriction_maps

    def recording(up, down, y, rows, reg):
        t = up.topology
        read.append((t, y, down, ctx.lattice(ctx.subspace(t, y))))
        return maps(up, down, y, rows, reg)

    monkeypatch.setattr(suites, "restriction_maps", recording)
    for group in groups:
        assert group.check(ctx, group) == []
    return read


def test_ux0_reads_the_lattice_of_each_dense_subspace(monkeypatch):
    # ux0's lookup from Y, the space itself on every point and else the
    # held lattice under the subspace key, against the two-step route
    # ``lattice(subspace(t, Y))``, for every (space, dense mask) with
    # n <= 4, in one walk
    ctx = SpaceContext()
    read = _ux0_lattices(ctx, monkeypatch, _groups("ux0", ctx, 4))
    assert [(t, y) for t, y, _, _ in read] == [(t, y) for t in _spaces_to(4) for y in dense_masks(t)]
    assert all(lat is two_step for _, _, lat, two_step in read)
    # outside a walk, each lattice is built again
    ctx = SpaceContext()
    for t, y, lat, _ in _ux0_lattices(ctx, monkeypatch, [suites._space_ux0(ctx, discrete(3))]):
        alone = regular_open_lattice(ctx.subspace(t, y))
        assert [getattr(lat, name) for name in _LATTICE_FIELDS] == [getattr(alone, name) for name in _LATTICE_FIELDS]


def test_a_space_whose_join_differs_from_its_family_record_gets_the_full_build(monkeypatch):
    # The target is a middle space of a 3-point family: its interior table
    # sends cl(a) to the empty set for its least nonzero regular open a, so
    # its join of a with a differs from the record's. It alone fails, with
    # the message of its lone full build, and the family's later spaces
    # still share the record.
    families = {}
    for t in _spaces_to(3):
        if t.n == 3:
            families.setdefault(regular_open_lattice(t).payload_masks, []).append(t)
    members = next(ts for masks, ts in sorted(families.items()) if len(ts) > 2 and len(masks) > 1)
    target = members[1]
    a = next(m for m in regular_open_lattice(target).payload_masks if m)
    tables = Topology.operator_tables

    def planted(t):
        cl, interior, reg = tables(t)
        if t == target:
            interior = list(interior)
            interior[cl[a]] = 0
        return cl, interior, reg

    monkeypatch.setattr(Topology, "operator_tables", planted)
    with pytest.raises(VerificationError) as exc:
        regular_open_lattice(target)
    failure = {"space": space_to_dict(target), "error": str(exc.value)}
    built = _counting_builds(monkeypatch)
    names = ["boolean", "rlattice", "stone", "ux0"]
    reports = run_suites(names, 3)
    assert [r.failures for r in reports[:3]] == [[failure]] * 3
    assert reports[3].failures == [{**failure, "dense": sorted(set_of(y))} for y in dense_masks(target)]
    assert members[0] in built and target in built and not set(members[2:]) & set(built)
    never_shared = _forgetful_runs(names, 3, families=False)
    assert _texts(reports) == _texts(never_shared)


def test_memo_holds_no_lattice(monkeypatch):
    # a remembered witness would pin both of its lattices for the run
    made = _recording_contexts(monkeypatch)
    run_suites(_MEMO_READERS, 4)
    (context,) = made
    remembered = list(context._verdicts.values())
    assert remembered and None in remembered
    assert not any(isinstance(value, (LatticeIsoWitness, RegularOpenLattice)) for value in remembered)


def test_restriction_isomorphism_and_ux0_share_one_restriction(monkeypatch):
    # an image swap planted in restriction_maps fails the one-embedding
    # route and the ux0 suite on the same (space, Y) pairs, with the same
    # message
    maps = transfer.restriction_maps

    def swapped(up, down, y, rows, reg):
        forward, backward = maps(up, down, y, rows, reg)
        if up.m < 2:
            return forward, backward
        return (forward[1], forward[0], *forward[2:]), backward

    monkeypatch.setattr(transfer, "restriction_maps", swapped)
    monkeypatch.setattr(suites, "restriction_maps", swapped)
    expected = []
    for t in _spaces_to(3):
        for y in dense_masks(t):
            try:
                restriction_isomorphism(DenseEmbedding(t, y))
            except RegOpenError as exc:
                expected.append({"space": space_to_dict(t), "dense": sorted(set_of(y)), "error": str(exc)})
    assert expected
    assert run_suite("ux0", 3).failures == expected


# -- planted bugs: every suite reports a subtly wrong operator ----------------------


def _trace_losing_last_subspace_point(monkeypatch):
    # the trace row of Y, which ux0 reads for the subspace key and the
    # maps, loses Y's last point
    rows = transfer.dense_rows

    def wrong(mask):
        points, lift, trace = rows(mask)
        last = 1 << (len(points) - 1)
        return points, lift, {s: i & ~last for s, i in trace.items()}

    monkeypatch.setattr(transfer, "dense_rows", wrong)
    monkeypatch.setattr(suites, "dense_rows", wrong)


def _density_check_with_short_trace(monkeypatch):
    # U & Y loses the lowest point of Y
    monkeypatch.setattr(
        suites,
        "traces_losing_closure",
        lambda cl, ys, opens: traces_losing_closure(cl, [y & (y - 1) for y in ys], opens),
    )


def _closure_ignoring_last_point_neighborhood(monkeypatch):
    closure = Topology.closure_mask

    def wrong(t, a):
        last = 1 << (t.n - 1)
        return closure(t, a) & ~last | a & last

    monkeypatch.setattr(Topology, "closure_mask", wrong)


def _regularize_dropping_last_point(monkeypatch):
    # the reg table, which the fixpoint route reads, loses the last point
    tables = Topology.operator_tables

    def wrong(t):
        cl, interior, reg = tables(t)
        last = 1 << (t.n - 1)
        return cl, interior, [r if r == t.full_mask else r & ~last for r in reg]

    monkeypatch.setattr(Topology, "operator_tables", wrong)


def _recovery_off_by_one(monkeypatch):
    recover = suites.recover_tau

    def wrong(*args):
        return {x: y ^ 1 for x, y in recover(*args).items()}

    monkeypatch.setattr(suites, "recover_tau", wrong)


def _join_as_plain_union(monkeypatch):
    # joins are interiors of closures, so every open becomes regular too
    monkeypatch.setattr(Topology, "closure_mask", lambda t, a: a)


def _well_inside_missing_top_over_bottom(monkeypatch):
    # the well-inside rows rlattice reads lose the pair (top, bottom)
    def wrong(lat, closures):
        rows = well_inside_rows(lat, closures)
        rows[lat.top] &= ~(1 << lat.bottom)
        return rows

    monkeypatch.setattr(suites, "well_inside_rows", wrong)


def _ultrafilters_missing_one(monkeypatch):
    monkeypatch.setattr(suites, "ultrafilters", lambda n: ultrafilters(n)[1:])


def _ideals_missing_one(monkeypatch):
    monkeypatch.setattr(suites, "ideals", lambda n: ideals(n)[:-1])


def _complement_ignoring_label_zero(monkeypatch):
    complement = cof.complement

    def wrong(a):
        return complement(cof.SymbolicSet(a.kind, a.support - {0}))

    monkeypatch.setattr(cof, "complement", wrong)


def _union_intersect_swapped(monkeypatch):
    union, intersect = cof.union, cof.intersect
    monkeypatch.setattr(cof, "union", intersect)
    monkeypatch.setattr(cof, "intersect", union)


def _strict_triangle(monkeypatch):
    # the axiom scan also refuses a triangle that binds, d(i, k) = d(i, j) + d(j, k)
    init = FiniteMetric.__init__

    def wrong(self, dist):
        init(self, dist)
        d = self.dist
        for i, j, k in itertools.permutations(range(self.n), 3):
            if d[i][k] >= d[i][j] + d[j][k]:
                raise NotAMetric("triangle", (i, j, k))

    monkeypatch.setattr(FiniteMetric, "__init__", wrong)


def _metric_sum(monkeypatch):
    def wrong(dx, dy, tau):
        return FiniteMetric([[dx(i, j) + dy(tau[i], tau[j]) for j in range(dx.n)] for i in range(dx.n)])

    monkeypatch.setattr(suites, "combine_metric", wrong)


def _metric_first_factor(monkeypatch):
    monkeypatch.setattr(suites, "combine_metric", lambda dx, dy, tau: dx)


def _metric_ignoring_tau(monkeypatch):
    monkeypatch.setattr(suites, "combine_metric", lambda dx, dy, tau: combine_metric(dx, dy, range(dx.n)))


def _metric_with_inverse_tau(monkeypatch):
    def wrong(dx, dy, tau):
        inverse = [0] * dx.n
        for i, image in enumerate(tau):
            inverse[image] = i
        return combine_metric(dx, dy, inverse)

    monkeypatch.setattr(suites, "combine_metric", wrong)


PLANTED = {
    "ux0": (_trace_losing_last_subspace_point, {"space", "dense", "error"}),
    "denso": (_density_check_with_short_trace, {"space", "dense", "open", "error"}),
    "uvw": (_closure_ignoring_last_point_neighborhood, {"space", "u", "v", "error"}),
    "regularity": (_regularize_dropping_last_point, {"space", "subset", "error"}),
    "recovery": (_recovery_off_by_one, {"space", "dense", "error"}),
    "boolean": (_join_as_plain_union, {"space", "error"}),
    "rlattice": (_well_inside_missing_top_over_bottom, {"space", "error"}),
    "stone": (_ultrafilters_missing_one, {"powerset", "error"}),
    "ideals": (_ideals_missing_one, {"powerset", "error"}),
    "cofinite": (_complement_ignoring_label_zero, {"error", "sets"}),
    "metric": (_strict_triangle, {"error"}),
}

# More plants, each with its suite: bugs that the exact cofinite and metric
# checks catch, and that the earlier randomized trials passed.
MORE_PLANTED = {
    "cofinite-union-intersect-swapped": ("cofinite", _union_intersect_swapped, {"error", "sets"}),
    "metric-sum": ("metric", _metric_sum, {"error", "dx", "dy", "tau"}),
    "metric-first-factor": ("metric", _metric_first_factor, {"error", "dx", "dy", "tau"}),
    "metric-ignoring-tau": ("metric", _metric_ignoring_tau, {"error", "dx", "dy", "tau"}),
    "metric-inverse-tau": ("metric", _metric_with_inverse_tau, {"error", "dx", "dy", "tau"}),
}


def test_cofinite_reports_an_intersection_that_keeps_label_zero(monkeypatch):
    intersect = cof.intersect

    def wrong(a, b):
        # finite & cofinite keeps label 0 of the finite set, even where the cofinite set omits it
        out = intersect(a, b)
        fin = a if a.kind == cof.FINITE else b
        if a.kind != b.kind and 0 in fin.support:
            return cof.SymbolicSet(cof.FINITE, out.support | {0})
        return out

    monkeypatch.setattr(cof, "intersect", wrong)
    report = run_suite("cofinite", bound=3)
    assert not report.passed
    assert report.failures == [
        {
            "error": "intersect gives Finite({0}), membership gives Finite({})",
            "sets": ["Finite({0})", "Cofinite({0,1,2,3,4})"],
        }
    ]


def test_window_sets_follow_symbolic_membership():
    # bit x of the membership mask is label x of the window; the outside bit
    # is every label from the window's end on
    sets = [suites._window_set(member) for member in range(64)]
    assert len(set(sets)) == 64
    for member, s in enumerate(sets):
        assert s.support <= set(range(suites._WINDOW))
        for label in range(suites._WINDOW + 3):
            inside = (label in s.support) != (s.kind == cof.COFINITE)
            assert inside == bool(member >> min(label, suites._WINDOW) & 1)


@pytest.mark.parametrize("name", ["cofinite", "metric"])
@pytest.mark.parametrize("planted", [False, True])
def test_fixed_cost_suites_do_not_read_the_seed(name, planted, monkeypatch, tmp_path, capsys):
    # run_suite takes no seed; `verify --seed` is still parsed, and the
    # report, which lists a planted failure with its fields, is the same for
    # every seed
    if planted:
        PLANTED[name][0](monkeypatch)
    reports = set()
    for seed in ("1", "2", "9"):
        out = tmp_path / f"seed{seed}.json"
        assert main(["verify", "--suite", name, "--n", "2", "--seed", seed, "--json", str(out)]) == int(planted)
        reports.add(out.read_bytes())
    capsys.readouterr()
    assert len(reports) == 1
    assert reports == {canonical_json(run_suite(name, bound=2).to_dict()).encode()}


def test_rlattice_monotonicity_scan_matches_oracle(monkeypatch):
    # well-inside, and seeded variants missing or gaining pairs: the suite
    # reports the same first failing pair and message as the pairwise scan.
    # One context remembers every verdict. The lone pair (k, bottom), k =
    # m // 2, has the same rows on every lattice of m elements, but its
    # witness is the first h above k, which at n = 4 differs between them.
    rng = random.Random(11)
    ctx = SpaceContext()
    messages = set()
    for t in ctx.spaces(4):
        lat = ctx.lattice(t)
        pairs = sorted(well_inside(lat))
        every_pair = [(f, g) for f in range(lat.m) for g in range(lat.m)]
        variants = [
            frozenset(pairs),
            frozenset(pairs) - {rng.choice(pairs)},
            frozenset(pairs) | {rng.choice(every_pair)},
            frozenset(p for p in every_pair if rng.random() < 0.7),
            frozenset({(lat.top, lat.top)}),
            frozenset({(lat.m // 2, lat.bottom)}),
        ]
        for rel in variants:
            monkeypatch.setattr(suites, "well_inside_rows", lambda lat, closures, rel=rel: relation_rows(lat, rel))
            expected = well_inside_monotone_oracle(lat, rel)
            assert suites._check_rlattice(ctx, t) == expected
            messages.add(expected.split(" at ")[0] if expected else None)
    assert messages == {
        None,
        "well-inside not upward monotone",
        "well-inside not downward monotone",
    }


@pytest.mark.parametrize("plant", [None, _regularize_dropping_last_point], ids=["clean", "reg-dropping-last-point"])
def test_regularity_kernel_matches_the_per_open_scan(plant, monkeypatch):
    # the kernel scans the opens once per closure, the oracle once per subset
    if plant:
        plant(monkeypatch)
    ctx = SpaceContext()
    reported = 0
    for t in ctx.spaces(4):
        group = suites._space_regularity(ctx, t)
        expected = _regularity_oracle(t, group, bool(plant))
        assert group.check(ctx, group) == expected
        reported += len(expected)
    assert bool(reported) == bool(plant)


def _raised(check, items) -> list[tuple[int, str]]:
    """(position, message) of each item on which ``check(*item)`` raises."""
    failed = []
    for pos, item in enumerate(items):
        try:
            check(*item)
        except RegOpenError as exc:
            failed.append((pos, str(exc)))
    return failed


def _denso_oracle(t, group, planted):
    # the plant drops the lowest point of each Y
    message = "closure of the open differs from closure of its dense trace"
    return [
        (pos, message)
        for pos, (y, u) in enumerate(group.items)
        if not trace_keeps_closure_oracle(t, y & (y - 1) if planted else y, u)
    ]


def _regularity_oracle(t, group, planted):
    # every subset, open or not
    cl, _, reg = t.operator_tables()
    verdicts = [regularity_scan_oracle(t, cl, reg, a) for (a,) in group.items]
    return [(pos, verdict) for pos, verdict in enumerate(verdicts) if verdict is not None]


# Each kernel's per-instance oracle: the failing positions and messages of
# a group of the space t.
_KERNEL_ORACLES = {
    "ux0": lambda t, group, planted: _raised(lambda y: restriction_isomorphism(DenseEmbedding(t, y)), group.items),
    "uvw": lambda t, group, planted: _raised(lambda u, v: separating_witness(t, u, v), group.items),
    "regularity": _regularity_oracle,
    "denso": _denso_oracle,
}


@functools.cache
def _n5_sample() -> list[Topology]:
    """200 of the labeled 5-point spaces, drawn with a fixed seed."""
    return random.Random(8).sample(list(enumerate_topologies(EnumerationSpec(5, allow_n5=True))), 200)


@pytest.mark.parametrize("planted", [False, True], ids=["clean", "planted"])
@pytest.mark.parametrize("name", sorted(_KERNEL_ORACLES))
def test_kernel_matches_its_oracle_on_a_seeded_n5_sample(name, planted, monkeypatch):
    # each space's group check against one oracle call per instance, on a
    # seeded sample of 5-point spaces, correct and under the suite's plant
    if planted:
        PLANTED[name][0](monkeypatch)
    ctx, failed = SpaceContext(), 0
    for t in _n5_sample():
        group = SUITES[name].space(ctx, t)
        expected = _KERNEL_ORACLES[name](t, group, planted)
        assert group.check(ctx, group) == expected
        failed += len(expected)
    assert bool(failed) == planted


def test_product_items_equal_the_lists_they_replace():
    # every space with n <= 3: the items of each group given as a _Product
    # against the list of tuples it replaces, and the report of each item
    ctx = SpaceContext()
    for t in ctx.spaces(3):
        dense = ctx.dense(t)
        replaced = {
            "ux0": [(y,) for y in dense],
            "recovery": [(y,) for y in dense],
            "denso": list(itertools.product(dense, t.open_masks)),
            "regularity": [(a,) for a in range(t.full_mask + 1)],
        }
        for name, old in replaced.items():
            group = SUITES[name].space(ctx, t)
            if group is None:  # recovery skips a space whose regular opens are no basis
                continue
            items = group.items
            assert len(items) == len(old) and list(items) == old
            assert [items[pos] for pos in range(len(old))] == old
            assert items[-1] == old[-1] and items[-len(old)] == old[0]
            for outside in (len(old), -len(old) - 1):
                with pytest.raises(IndexError):
                    items[outside]
            for pos, item in enumerate(old):
                points = {key: sorted(set_of(value)) for key, value in zip(group.names, item)}
                want = {"space": space_to_dict(t), **points, "error": "e"}
                assert suites._failure(group.fields(items[pos]), "e") == want


def test_every_suite_has_a_planted_bug():
    assert sorted(PLANTED) == sorted(SUITES)


@pytest.mark.parametrize("case", sorted(PLANTED) + sorted(MORE_PLANTED))
def test_suite_reports_planted_bug(case, monkeypatch):
    name, plant, keys = MORE_PLANTED[case] if case in MORE_PLANTED else (case, *PLANTED[case])
    plant(monkeypatch)
    report = run_suite(name, bound=3)
    assert report.failures and not report.passed
    assert all(set(failure) == keys for failure in report.failures)


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_joint_run_reports_planted_bug(name, monkeypatch):
    # caught in one walk with every suite that reads the spaces, with the
    # report of the suite's own run; the suites without a space run after
    # the walk, so they join only for their own plants
    plant, keys = PLANTED[name]
    plant(monkeypatch)
    names = sorted({other for other, suite in SUITES.items() if suite.space} | {name})
    report = run_suites(names, 3)[names.index(name)]
    assert report.failures and not report.passed
    assert all(set(failure) == keys for failure in report.failures)
    assert canonical_json(report.to_dict()) == canonical_json(run_suite(name, 3).to_dict())


def test_stone_reports_a_space_with_a_point_more_than_atoms(monkeypatch):
    def wrong(lat):
        st = stone_space(lat)
        return StoneSpace(discrete(st.space.n + 1), st.atoms, st.to_clopen)

    monkeypatch.setattr(suites, "stone_space", wrong)
    report = run_suite("stone", bound=3)
    assert len(report.failures) == 1 + 4 + 29  # every space, no ultrafilter instance
    assert all(set(failure) == {"space", "error"} for failure in report.failures)
    assert {failure["error"] for failure in report.failures} == {"point count differs from atom count"}


def test_stone_suite_checks_ultrafilters_up_to_the_ideals_row(monkeypatch):
    assert BUDGETS["ideals"][0] == 5
    assert run_suite("stone", bound=1).instances == 1 + 5
    monkeypatch.setitem(BUDGETS, "ideals", (3, None))
    assert run_suite("stone", bound=1).instances == 1 + 3


def test_ideals_suite_stops_at_the_ideals_row(monkeypatch):
    assert run_suite("ideals", bound=5, allow_n5=True).instances == 4 + 5
    monkeypatch.setitem(BUDGETS, "ideals", (3, None))
    report = run_suite("ideals", bound=5, allow_n5=True)
    assert report.passed and report.instances == 3 + 3


def _two_point_subspaces_as_sierpinski(monkeypatch):
    # every 2-point dense subspace becomes the Sierpinski space, whose one
    # nonempty regular open misses the least neighbourhood {0}
    subspace = SpaceContext.subspace

    def wrong(ctx, t, dense):
        sub = subspace(ctx, t, dense)
        return sierpinski() if sub.n == 2 else sub

    monkeypatch.setattr(SpaceContext, "subspace", wrong)


def _trace_rows_reversed(monkeypatch):
    # Y's trace row, which recovery reads, lists the subspace's points in
    # reverse order
    rows = suites.dense_rows

    def reversed_trace(mask):
        points, lift, trace = rows(mask)
        back = range(len(points) - 1, -1, -1)
        return points, lift, {s: permute_mask(i, back) for s, i in trace.items()}

    monkeypatch.setattr(suites, "dense_rows", reversed_trace)


def _first_not_dense(t):
    return next((m for m in range(1, t.full_mask) if t.closure_mask(m) != t.full_mask), None)


def _dense_masks_with_one_not_dense(monkeypatch):
    # each space's dense masks gain its first nonempty mask that is not dense
    masks = suites.dense_masks
    monkeypatch.setattr(suites, "dense_masks", lambda t, cl: masks(t, cl) + [m for m in [_first_not_dense(t)] if m])


def _naive_recovery(bound):
    """The recovery suite's instance count and failures by a plain loop:
    the public ``point_recovery`` once per (space, dense set), reading the
    dense sets, the subspace and Y's trace row through the names the suite
    reads, so that a plant on those reaches both."""
    ctx = SpaceContext()
    count, failures = 0, []
    for t in _spaces_to(bound):
        bx = [m for m in t.regular_open_masks() if m]
        if not basis_oracle(t, map(set_of, bx)):
            continue
        for y in suites.dense_masks(t, t.closure_table()):
            count += 1
            try:
                DenseEmbedding(t, y)  # raises NotDense with the suite's message
                sub = ctx.subspace(t, y)
                points, _, trace = suites.dense_rows(y)
                by = [m for m in sub.regular_open_masks() if m]
                ph = point_recovery(t, bx, sub, by, {u: trace[u & y] for u in bx})
                wrong = [(x, yy) for x, yy in ph.tau.items() if not (0 <= yy < len(points) and points[yy] == x)]
                error = f"recovered {wrong[0][0]} -> {wrong[0][1]}, expected the dense-set inclusion" if wrong else None
            except RegOpenError as exc:
                error = str(exc)
            if error is not None:
                failures.append({"space": space_to_dict(t), "dense": sorted(set_of(y)), "error": error})
    return count, failures


@pytest.mark.parametrize(
    "plant",
    [None, _two_point_subspaces_as_sierpinski, _trace_rows_reversed, _dense_masks_with_one_not_dense],
    ids=lambda plant: plant.__name__.strip("_") if plant else "clean",
)
def test_recovery_report_matches_a_naive_loop(plant, monkeypatch):
    if plant:
        plant(monkeypatch)
    count, failures = _naive_recovery(4)
    assert bool(failures) == bool(plant)
    report = run_suite("recovery", bound=4)
    assert (report.instances, report.failures) == (count, failures)


def test_recovery_checks_each_basis_once(monkeypatch):
    # once per space, when its group is made, where it returns for the
    # spaces with a basis and raises for the rest; and once per held
    # subspace a dense set gives, for the run
    returned, raised = Counter(), Counter()
    check = suites.check_basis

    def counting(t, basis):
        try:
            masks = check(t, basis)
        except NotABasis:
            raised[t.min_nbhd_masks] += 1
            raise
        returned[t.min_nbhd_masks] += 1
        return masks

    monkeypatch.setattr(suites, "check_basis", counting)
    assert run_suite("recovery", bound=4).passed
    spaces = _spaces_to(4)
    with_basis = [t for t in spaces if basis_oracle(t, [set_of(m) for m in t.regular_open_masks() if m])]
    held = {t.subspace(y)[0].min_nbhd_masks for t in with_basis for y in dense_masks(t) if y != t.full_mask}
    assert held and len(with_basis) < len(spaces)
    assert returned == Counter([t.min_nbhd_masks for t in with_basis]) + Counter(held)
    assert raised == Counter([t.min_nbhd_masks for t in spaces if t not in with_basis])


def test_recovery_reports_a_dense_subspace_without_a_basis(monkeypatch):
    _two_point_subspaces_as_sierpinski(monkeypatch)
    report = run_suite("recovery", bound=3)
    assert report.failures and not report.passed
    assert all(set(failure) == {"space", "dense", "error"} for failure in report.failures)
    assert {failure["error"] for failure in report.failures} == {
        "least neighbourhood [0] of point 0 is not a basis member"
    }
    assert {len(failure["dense"]) for failure in report.failures} == {2}


def test_cofinite_self_check_failure_is_a_suite_failure(monkeypatch):
    monkeypatch.setattr(cof, "closure", lambda a: a)  # every cofinite set becomes regular open
    report = run_suite("cofinite", bound=2)
    assert not report.passed
    assert report.failures[0] == {
        "error": "regularity of Cofinite({0}) disagrees with the two-element family"
    }


def test_recovery_reports_a_basis_map_that_is_not_a_bijection(monkeypatch):
    _trace_rows_reversed(monkeypatch)
    report = run_suite("recovery", bound=3)
    assert not report.passed
    assert "iso must be a bijection between the two bases" in {f["error"] for f in report.failures}


def test_recovery_reports_a_set_that_is_not_dense(monkeypatch):
    # recovery fails on exactly the planted masks, with the message of the
    # density check of a DenseEmbedding
    _dense_masks_with_one_not_dense(monkeypatch)
    expected = []
    for t in _spaces_to(3):
        y = _first_not_dense(t)
        if y is None or suites._space_recovery(SpaceContext(), t) is None:
            continue
        with pytest.raises(NotDense) as exc:
            DenseEmbedding(t, y)
        expected.append({"space": space_to_dict(t), "dense": sorted(set_of(y)), "error": str(exc.value)})
    assert expected
    assert run_suite("recovery", bound=3).failures == expected


def _lattice_law_failure_on_sierpinski(monkeypatch):
    make = SpaceContext._family_lattice

    def build(ctx, t):
        if t == sierpinski():
            raise VerificationError("planted law failure")
        return make(ctx, t)

    monkeypatch.setattr(SpaceContext, "_family_lattice", build)


@pytest.mark.parametrize("name", ["boolean", "rlattice", "stone"])
def test_lattice_construction_failure_is_a_suite_failure(name, monkeypatch):
    _lattice_law_failure_on_sierpinski(monkeypatch)
    report = run_suite(name, bound=2)
    assert report.failures == [{"space": space_to_dict(sierpinski()), "error": "planted law failure"}]


def test_error_escaping_a_group_check_fails_each_instance_it_was_given(monkeypatch):
    s = sierpinski()

    def kernel(cl, ys, opens):
        if cl == s.closure_table():
            raise VerificationError("planted kernel failure")
        return traces_losing_closure(cl, ys, opens)

    monkeypatch.setattr(suites, "traces_losing_closure", kernel)

    def failure(y, u):
        return {
            "space": space_to_dict(s),
            "dense": sorted(set_of(y)),
            "open": sorted(set_of(u)),
            "error": "planted kernel failure",
        }

    every = [failure(y, u) for y in dense_masks(s) for u in s.open_masks]
    assert run_suite("denso", bound=2).failures == every


# -- counterexample gallery -------------------------------------------------------


def test_gallery_contains_point_and_sierpinski():
    pairs = counterexample_search(2)
    keys = {
        (p.t1.n, canonical_open_masks(p.t1), p.t2.n, canonical_open_masks(p.t2))
        for p in pairs
    }
    point = discrete(1)
    s = sierpinski()
    assert (1, canonical_open_masks(point), 2, canonical_open_masks(s)) in keys


def test_gallery_never_pairs_homeomorphic_spaces():
    for p in counterexample_search(3):
        assert canonical_open_masks(p.t1) != canonical_open_masks(p.t2) or p.t1.n != p.t2.n


def test_gallery_isos_verify_and_relations_transport():
    for p in counterexample_search(3):
        l1 = regular_open_lattice(p.t1)
        l2 = regular_open_lattice(p.t2)
        isos = find_order_isomorphisms(l1, l2)
        assert p.iso in isos
        # symmetric closure: the inverse is a verified iso the other way
        inverse = tuple(p.iso.index(i) for i in range(len(p.iso)))
        assert inverse in find_order_isomorphisms(l2, l1)
        assert p.same_under_reported_iso == (
            transport_relation(p.rel1, p.iso) == p.rel2
        )
        assert p.same_under_some_iso == any(
            transport_relation(p.rel1, phi) == p.rel2 for phi in isos
        )


def test_gallery_contains_differing_relations_pair():
    pairs = counterexample_search(3)
    differing = [p for p in pairs if not p.same_under_reported_iso]
    assert differing
    # the four-element flagship: the discrete pair against the space with a
    # shared boundary point
    keys = {
        (canonical_open_masks(p.t1), canonical_open_masks(p.t2)) for p in differing
    }
    assert (canonical_open_masks(discrete(2)), canonical_open_masks(x3())) in keys


def test_gallery_guard(monkeypatch):
    with pytest.raises(SizeGuardExceeded):
        counterexample_search(5)
    monkeypatch.setattr(suites, "canonical_classes", None)  # refused before enumerating
    with pytest.raises(SizeGuardExceeded):
        counterexample_search(5)
