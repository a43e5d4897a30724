"""Core space operators against frozen values and the pointwise oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regopen import (
    EnumerationSpec,
    Topology,
    canonical_open_masks,
    discrete,
    enumerate_topologies,
    homeomorphic,
    indiscrete,
    sierpinski,
    x3,
)
from regopen.enumeration import _extensions
from regopen.errors import (
    EmptySubspace,
    IndexOutOfRange,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    SizeGuardExceeded,
)
from regopen.topology import MAX_OPENS, MAX_POINTS, permute_mask, set_of

from oracles import (
    all_subsets,
    canonical_open_masks_oracle,
    closure_oracle,
    dense_oracle,
    find_homeomorphism_oracle,
    interior_oracle,
    opens_as_sets,
    regular_open_oracle,
)

S = sierpinski()
X3 = x3()
D2 = discrete(2)


# -- validation ---------------------------------------------------------------


def test_sierpinski_validates():
    t = Topology(2, [frozenset(), frozenset({0}), frozenset({0, 1})])
    assert t == S


def test_missing_full_set_rejected():
    with pytest.raises(MissingEmptyOrFull):
        Topology(2, [frozenset(), frozenset({0}), frozenset({1})])


def test_union_closure_rejected_with_witness():
    with pytest.raises(NotClosedUnderUnion) as exc:
        Topology(3, [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1, 2})])
    assert exc.value.witness == (frozenset({0}), frozenset({1}))


def test_intersection_closure_rejected():
    with pytest.raises(NotClosedUnderIntersection):
        Topology(3, [0b000, 0b011, 0b110, 0b111])


def test_out_of_range_point_rejected():
    with pytest.raises(IndexOutOfRange):
        Topology(2, [frozenset(), frozenset({2}), frozenset({0, 1})])


def test_largest_spaces_load():
    chain = Topology(MAX_POINTS, [(1 << k) - 1 for k in range(MAX_POINTS + 1)])
    assert len(chain.open_masks) == MAX_POINTS + 1
    assert discrete(10).open_masks == tuple(range(MAX_OPENS))


def test_oversized_spaces_rejected():
    with pytest.raises(SizeGuardExceeded, match=f"at most {MAX_POINTS} points, not 17"):
        Topology(MAX_POINTS + 1, [0, (1 << MAX_POINTS + 1) - 1])
    with pytest.raises(SizeGuardExceeded, match=f"at most {MAX_OPENS} opens, not 2048"):
        discrete(11)
    with pytest.raises(SizeGuardExceeded, match="not 1000000"):
        indiscrete(10**6)


def test_fixture_encodings():
    assert discrete(3).open_masks == tuple(range(8))
    assert indiscrete(3).open_masks == (0, 0b111)


def test_duplicates_canonicalized():
    t = Topology(2, [0b00, 0b01, 0b01, 0b11])
    assert t.open_masks == (0b00, 0b01, 0b11)


# -- interior / closure / regularize ------------------------------------------


def test_interior_frozen_values():
    assert S.interior({1}) == frozenset()
    assert S.interior({0, 1}) == frozenset({0, 1})
    assert X3.interior({0, 2}) == frozenset({0})


def test_closure_frozen_values():
    assert S.closure({0}) == frozenset({0, 1})
    assert X3.closure(frozenset()) == frozenset()
    assert X3.closure({0}) == frozenset({0, 2})


def test_regularize_frozen_values():
    assert S.regularize({0}) == frozenset({0, 1})
    assert not S.is_regular_open({0})
    assert X3.regularize({0}) == frozenset({0})
    assert X3.is_regular_open({0})
    assert D2.regularize({1}) == frozenset({1})


def test_regular_opens_of_fixtures():
    assert S.regular_opens() == (frozenset(), frozenset({0, 1}))
    assert set(X3.regular_opens()) == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({0, 1, 2}),
    }
    assert len(discrete(2).regular_opens()) == 4


def test_density():
    assert S.is_dense({0})
    assert X3.is_dense({0, 1})
    assert not discrete(2).is_dense({0})


def test_discrete_all_regular_indiscrete_trivial():
    for n in (1, 2, 3):
        d = discrete(n)
        assert all(d.is_regular_open(a) for a in all_subsets(n))
        i = indiscrete(n)
        assert set(i.regular_opens()) == {frozenset(), frozenset(range(n))}


# -- operators agree with the pointwise oracles over the full n<=4 gallery -----


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operators_match_oracles(n):
    for t in enumerate_topologies(EnumerationSpec(n)):
        for a in all_subsets(n):
            assert t.interior(a) == interior_oracle(t, a)
            assert t.closure(a) == closure_oracle(t, a)
            assert t.is_regular_open(a) == regular_open_oracle(t, a)
            assert t.is_dense(a) == dense_oracle(t, a)
            assert t.is_open(a) == (a in opens_as_sets(t))


def _assert_tables_match_the_operators(t: Topology, oracles: bool) -> None:
    cl, interior, reg = t.operator_tables()
    assert len(cl) == len(interior) == len(reg) == 1 << t.n
    for a in range(t.full_mask + 1):
        assert (cl[a], interior[a], reg[a]) == (
            t.closure_mask(a),
            t.interior_mask(a),
            t.regularize_mask(a),
        )
        points = frozenset(i for i in range(t.n) if a >> i & 1)
        assert set_of(cl[a]) == closure_oracle(t, points)
        if oracles:
            assert set_of(interior[a]) == interior_oracle(t, points)
            assert set_of(reg[a]) == interior_oracle(t, closure_oracle(t, points))


def test_operator_tables_match_the_operators_and_oracles():
    # every space on up to 4 points, a seeded sample of 5-point spaces, and
    # the largest spaces, whose interior oracle scans are left out
    for n in (1, 2, 3, 4):
        for t in enumerate_topologies(EnumerationSpec(n)):
            _assert_tables_match_the_operators(t, oracles=True)
    spaces = list(enumerate_topologies(EnumerationSpec(5, allow_n5=True)))
    for t in random.Random(17).sample(spaces, 300):
        _assert_tables_match_the_operators(t, oracles=True)
    for t in (discrete(10), indiscrete(MAX_POINTS)):
        _assert_tables_match_the_operators(t, oracles=False)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_laws(n):
    for t in enumerate_topologies(EnumerationSpec(n)):
        full = frozenset(range(n))
        for a in all_subsets(n):
            ia, ca = t.interior(a), t.closure(a)
            assert ia <= frozenset(a) <= ca
            assert t.interior(ia) == ia
            assert t.closure(ca) == ca
            assert ia == full - t.closure(full - frozenset(a))
        for u in t.opens:
            r = t.regularize(u)
            assert t.regularize(r) == r
            assert t.is_regular_open(r)


# -- subspace and minimal neighborhoods ----------------------------------------


def test_subspace_of_x3_is_discrete_pair():
    sub, index_map = X3.subspace({0, 1})
    assert sub == discrete(2)
    assert index_map == {0: 0, 1: 1}


def test_subspace_one_point():
    sub, _ = S.subspace({0})
    assert sub.n == 1 and len(sub.open_masks) == 2


def test_subspace_full_is_identity():
    for t in (S, X3, discrete(3)):
        sub, index_map = t.subspace(range(t.n))
        assert sub == t
        assert index_map == {i: i for i in range(t.n)}


def test_subspace_empty_rejected():
    with pytest.raises(EmptySubspace):
        S.subspace(frozenset())


def test_minimal_neighborhoods():
    assert S.minimal_neighborhood(1) == frozenset({0, 1})
    assert X3.minimal_neighborhood(2) == frozenset({0, 1, 2})
    for x in range(3):
        assert discrete(3).minimal_neighborhood(x) == frozenset({x})
    with pytest.raises(IndexOutOfRange):
        S.minimal_neighborhood(2)


def test_minimal_neighborhood_is_least_open_around_point():
    for t in enumerate_topologies(EnumerationSpec(3)):
        for x in range(3):
            nb = t.minimal_neighborhood(x)
            assert t.is_open(nb) and x in nb
            assert all(nb <= u for u in t.opens if x in u)


# -- homeomorphism ---------------------------------------------------------------


def test_homeomorphism_relabel():
    flipped = Topology(2, [0b00, 0b10, 0b11])
    assert homeomorphic(S, flipped)
    assert canonical_open_masks(flipped) == canonical_open_masks(S) == S.open_masks


def test_homeomorphism_absent():
    assert not homeomorphic(S, D2)
    assert not homeomorphic(X3, D2)
    assert not homeomorphic(discrete(1), S)


def test_homeomorphism_found_maps_opens_onto_opens():
    # the canonical form is the open family of a relabeling of the space
    t = Topology(3, [0b000, 0b100, 0b110, 0b111])
    form = Topology(3, canonical_open_masks(t))
    sigma = find_homeomorphism_oracle(t, form)
    assert sigma is not None
    assert {frozenset(sigma[p] for p in u) for u in t.opens} == set(form.opens)


def test_homeomorphism_decision_matches_canonical_forms_up_to_three_points():
    spaces = [t for n in (1, 2, 3) for t in enumerate_topologies(EnumerationSpec(n))]
    for t1 in spaces:
        for t2 in spaces:
            same = t1.n == t2.n and canonical_open_masks_oracle(t1) == canonical_open_masks_oracle(t2)
            assert homeomorphic(t1, t2) == same == (find_homeomorphism_oracle(t1, t2) is not None)


def test_canonical_form_is_homeomorphism_invariant():
    t1 = Topology(3, [0b000, 0b001, 0b011, 0b111])
    t2 = Topology(3, [0b000, 0b100, 0b110, 0b111])
    assert canonical_open_masks(t1) == canonical_open_masks(t2)
    assert homeomorphic(t1, t2)
    assert canonical_open_masks(S) != canonical_open_masks(D2)


# -- the labelling search against the n! scan -----------------------------------


def _mismatches(spaces, form) -> int:
    """How many of ``spaces`` ``form`` encodes otherwise than the n! scan."""
    return sum(form(t) != canonical_open_masks_oracle(t) for t in spaces)


def _labeled(n):
    return list(enumerate_topologies(EnumerationSpec(n, allow_n5=True)))


def _relabeled(t, rng):
    perm = rng.sample(range(t.n), t.n)
    return Topology(t.n, [permute_mask(m, perm) for m in t.open_masks])


@pytest.fixture(scope="module")
def six_point_classes():
    return list(enumerate_topologies(EnumerationSpec(6, mode="up-to-homeomorphism", allow_n5=True)))


def _first_tie_only(t):
    """A planted bug: the labelling search extending only the first least
    partial labelling, by point index, at each depth."""
    labels, encoding = {}, [0]
    for j in range(t.n):
        runs = []
        for p in sorted(set(range(t.n)) - labels.keys()):
            trial = {**labels, p: j}
            run = sorted(
                sum(1 << trial[x] for x in u)
                for u in t.opens
                if p in u and u <= trial.keys()
            )
            runs.append((run + [1 << t.n], p))
        run, p = min(runs)
        labels[p] = j
        encoding += run[:-1]
    return tuple(encoding)


def test_canonical_form_is_the_n_factorial_scan_on_every_space_up_to_five_points():
    assert _mismatches([t for n in range(1, 6) for t in _labeled(n)], canonical_open_masks) == 0


def test_canonical_form_is_the_n_factorial_scan_on_relabeled_six_point_classes(six_point_classes):
    rng = random.Random(6)
    copies = [_relabeled(t, rng) for t in six_point_classes]
    assert _mismatches(copies, canonical_open_masks) == 0
    assert [canonical_open_masks(c) for c in copies] == [t.open_masks for t in six_point_classes]


def test_canonical_form_is_the_n_factorial_scan_on_sampled_seven_point_spaces(six_point_classes):
    # every 7-point class holds a one-point extension of a 6-point class
    rng = random.Random(7)
    grown = [
        Topology(7, rng.choice(list(_extensions(6, t.open_masks))))
        for t in rng.sample(six_point_classes, 30)
    ]
    assert _mismatches([_relabeled(t, rng) for t in grown], canonical_open_masks) == 0


def test_cross_check_catches_a_search_that_keeps_one_tied_labelling():
    assert [_mismatches(_labeled(n), _first_tie_only) for n in (2, 3, 4, 5)] == [0, 4, 102, 3132]


# -- randomized: closing any family yields a space satisfying the laws -----------


@st.composite
def random_topology(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    full = (1 << n) - 1
    seeds = draw(st.lists(st.integers(min_value=0, max_value=full), max_size=4))
    fam = {0, full, *seeds}
    changed = True
    while changed:
        changed = False
        for a in list(fam):
            for b in list(fam):
                for c in (a | b, a & b):
                    if c not in fam:
                        fam.add(c)
                        changed = True
    return Topology(n, fam), draw(st.integers(min_value=0, max_value=full))


@given(random_topology())
@settings(max_examples=200)
def test_random_spaces_satisfy_operator_laws(pair):
    t, a = pair
    ia = t.interior_mask(a)
    ca = t.closure_mask(a)
    assert ia & ~a == 0 and a & ~ca == 0
    assert t.interior_mask(ia) == ia
    assert t.closure_mask(ca) == ca
    assert ia == t.full_mask ^ t.closure_mask(t.full_mask ^ a)
    r = t.regularize_mask(a)
    assert t.regularize_mask(r) == r
